//! Dirty-set incremental assessment benchmark: the report-cache
//! service against its cache-disabled twin under skewed arrivals.
//!
//! Emits `BENCH_PR8.json` (override the path with the first CLI
//! argument; pass `--smoke` for a seconds-scale CI rot check):
//!
//! ```text
//! cargo run --release -p crowd_bench --bin scaling_pr8
//! ```
//!
//! The workload is a community-structured fleet whose per-worker
//! activity follows [`crowd_sim::skewed_activity_densities`] over the
//! *global* worker index: a few head communities answer almost
//! everything, the long tail hovers near the floor. That is the
//! regime the dirty-set machinery targets — a late burst lands on a
//! handful of hot workers and dirties one community's co-occurrence
//! neighbourhood, not the fleet.
//!
//! Three phases:
//!
//! 1. **Seed** — most of the trace streams into both services
//!    (identical order); a drain + snapshot warms the report cache
//!    and is compared **byte-for-byte** (via the wire encoding of the
//!    reports, so every interval bit pattern counts) between the two
//!    services before any number is written.
//! 2. **Burst loop** — held-out responses from the hot communities
//!    arrive in sparse bursts. After each burst both services drain,
//!    then each serves a fleet snapshot under the wall clock. Every
//!    drain point gates on byte identity; the cache-counter deltas
//!    report exactly how many anchors the dirty set forced the
//!    incremental service to re-evaluate.
//! 3. **Verdict** — in full runs the median steady-state speedup of
//!    the incremental snapshot over full re-evaluation must be ≥ 5×
//!    at `m = 10⁴`; the cache counters are also fetched over a
//!    loopback `crowd_wire` connection and must agree with the
//!    in-process stats (the Stats reply carries them end to end).

use crowd_core::{EstimatorConfig, WorkerReport};
use crowd_data::{Label, Response, ResponseMatrix, ResponseMatrixBuilder, TaskId, WorkerId};
use crowd_service::{AssessmentService, ServiceConfig};
use crowd_shard::ShardPlan;
use crowd_sim::skewed_activity_densities;
use crowd_wire::proto::encode_reply;
use crowd_wire::{Reply, WireClient, WireConfig, WireServer};
use std::time::Instant;

/// Community-structured fleet with global-Zipf worker activity.
struct Workload {
    communities: usize,
    workers_per: usize,
    tasks_per: usize,
    /// Zipf exponent of [`skewed_activity_densities`].
    exponent: f64,
    /// Activity floor of the quiet majority.
    floor: f64,
    /// Communities the held-out bursts land in (the Zipf head).
    hot_communities: usize,
    n_bursts: usize,
    burst_size: usize,
}

impl Workload {
    fn n_workers(&self) -> usize {
        self.communities * self.workers_per
    }

    fn n_tasks(&self) -> usize {
        self.communities * self.tasks_per
    }

    /// Deterministic skewed-activity crowd; same `(shape, seed)` →
    /// same matrix. Worker `w` answers only its community's tasks,
    /// with attempt probability `activity[w]` — the global Zipf
    /// density, so contiguous head communities are dense and the tail
    /// is quiet.
    fn generate(&self, seed: u64) -> ResponseMatrix {
        let m = self.n_workers();
        let n = self.n_tasks();
        let activity = skewed_activity_densities(m, self.exponent, self.floor);
        let mut state = seed;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as u32
        };
        let unit = |x: u32| x as f64 / u32::MAX as f64 * 2.0;
        let truths: Vec<u16> = (0..n).map(|_| (next() % 2) as u16).collect();
        let error_rates: Vec<f64> = (0..m).map(|_| 0.05 + 0.15 * unit(next())).collect();
        let mut b = ResponseMatrixBuilder::new(m, n, 2);
        for w in 0..m {
            let community = w / self.workers_per;
            for t in community * self.tasks_per..(community + 1) * self.tasks_per {
                if unit(next()) / 2.0 >= activity[w] {
                    continue;
                }
                let flip = unit(next()) / 2.0 < error_rates[w];
                let label = Label(truths[t] ^ u16::from(flip));
                b.push(WorkerId(w as u32), TaskId(t as u32), label)
                    .expect("generated ids are valid");
            }
        }
        b.build().expect("generated cells are unique")
    }

    /// Splits the trace into the seed stream and per-burst held-out
    /// groups: burst `b` is `burst_size` responses from hot community
    /// `b % hot_communities`, so each burst dirties one community's
    /// neighbourhood.
    fn split(&self, data: &ResponseMatrix) -> (Vec<Response>, Vec<Vec<Response>>) {
        let per_comm = self.n_bursts.div_ceil(self.hot_communities) * self.burst_size;
        let mut pools: Vec<Vec<Response>> = vec![Vec::new(); self.hot_communities];
        let mut seed = Vec::new();
        for r in data.iter() {
            let community = r.worker.index() / self.workers_per;
            if community < self.hot_communities && pools[community].len() < per_comm {
                pools[community].push(r);
            } else {
                seed.push(r);
            }
        }
        for (c, pool) in pools.iter().enumerate() {
            assert!(
                pool.len() >= self.n_bursts.div_ceil(self.hot_communities) * self.burst_size,
                "hot community {c} too sparse for the burst schedule ({} held out)",
                pool.len()
            );
        }
        let bursts = (0..self.n_bursts)
            .map(|b| {
                let community = b % self.hot_communities;
                let round = b / self.hot_communities;
                pools[community][round * self.burst_size..(round + 1) * self.burst_size].to_vec()
            })
            .collect();
        (seed, bursts)
    }
}

/// One burst → drain → timed-snapshot measurement.
struct BurstRow {
    burst: usize,
    community: usize,
    /// Anchors the dirty set forced the cache to re-evaluate
    /// (cache-miss delta across the incremental snapshot).
    dirty: u64,
    hits: u64,
    incremental_ms: f64,
    full_ms: f64,
    speedup: f64,
}

fn ms(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1e3
}

/// Byte-for-byte equality via the wire encoding — the strongest
/// equality the protocol can state (NaN payloads and signed zeros
/// included): the gate every drain point must pass.
fn reports_byte_identical(a: &WorkerReport, b: &WorkerReport) -> bool {
    encode_reply(&Reply::Report(a.clone())) == encode_reply(&Reply::Report(b.clone()))
}

fn main() {
    let mut out_path = "BENCH_PR8.json".to_string();
    let mut smoke = false;
    for arg in std::env::args().skip(1) {
        if arg == "--smoke" {
            smoke = true;
        } else {
            out_path = arg;
        }
    }
    let confidence = 0.9;

    let (workload, n_shards) = if smoke {
        (
            Workload {
                communities: 4,
                workers_per: 12,
                tasks_per: 30,
                exponent: 1.0,
                floor: 0.3,
                hot_communities: 2,
                n_bursts: 4,
                burst_size: 12,
            },
            2usize,
        )
    } else {
        (
            Workload {
                communities: 200,
                workers_per: 50,
                tasks_per: 50,
                exponent: 1.0,
                floor: 0.15,
                hot_communities: 4,
                n_bursts: 20,
                burst_size: 64,
            },
            8usize,
        )
    };
    let config = EstimatorConfig::fleet(16);

    eprintln!(
        "generating skewed-activity workload: {} workers, {} tasks ...",
        workload.n_workers(),
        workload.n_tasks()
    );
    let data = workload.generate(20260808);
    let (seed, bursts) = workload.split(&data);
    eprintln!(
        "trace: {} responses ({} seed + {} bursts x {})",
        data.n_responses(),
        seed.len(),
        bursts.len(),
        workload.burst_size
    );

    let spawn = |incremental: bool| {
        AssessmentService::spawn(
            ShardPlan::build_clustered(&data, n_shards),
            data.n_tasks(),
            data.arity(),
            ServiceConfig::default()
                .with_estimator(config.clone())
                .with_incremental(incremental),
        )
    };
    let cached = spawn(true);
    let full = spawn(false);

    // Phase 1 — seed both services identically, warm the cache, gate.
    let start = Instant::now();
    for chunk in seed.chunks(512) {
        cached.ingest_batch(chunk).expect("seed ingest");
        full.ingest_batch(chunk).expect("seed ingest");
    }
    cached.drain().expect("drain");
    full.drain().expect("drain");
    eprintln!("seeded both services in {:.0} ms", ms(start));
    let start = Instant::now();
    let warm = cached.snapshot(confidence).expect("warm snapshot");
    let warm_cached_ms = ms(start);
    let start = Instant::now();
    let warm_full = full.snapshot(confidence).expect("warm snapshot");
    let warm_full_ms = ms(start);
    assert!(
        reports_byte_identical(&warm, &warm_full),
        "cached and uncached services diverged on the seed snapshot"
    );
    let mut identity_checkpoints = 1usize;
    eprintln!(
        "warm snapshot: incremental {warm_cached_ms:.1} ms (cold cache), full {warm_full_ms:.1} ms"
    );

    // Phase 2 — sparse bursts into the hot communities; every drain
    // point gates on byte identity before its timing is recorded.
    let mut rows: Vec<BurstRow> = Vec::new();
    let mut stats_before = cached.stats().expect("stats");
    for (b, burst) in bursts.iter().enumerate() {
        cached.ingest_batch(burst).expect("burst ingest");
        full.ingest_batch(burst).expect("burst ingest");
        cached.drain().expect("drain");
        full.drain().expect("drain");
        let start = Instant::now();
        let inc = cached.snapshot(confidence).expect("incremental snapshot");
        let incremental_ms = ms(start);
        let start = Instant::now();
        let reference = full.snapshot(confidence).expect("full snapshot");
        let full_ms = ms(start);
        assert!(
            reports_byte_identical(&inc, &reference),
            "burst {b}: incremental snapshot diverged from full re-evaluation"
        );
        identity_checkpoints += 1;
        let stats_after = cached.stats().expect("stats");
        let row = BurstRow {
            burst: b,
            community: b % workload.hot_communities,
            dirty: stats_after.total_cache_misses() - stats_before.total_cache_misses(),
            hits: stats_after.total_cache_hits() - stats_before.total_cache_hits(),
            incremental_ms,
            full_ms,
            speedup: full_ms / incremental_ms,
        };
        eprintln!(
            "burst {b} (community {}): dirty {} of {} anchors; incremental {:.2} ms vs full {:.1} ms ({:.1}x)",
            row.community,
            row.dirty,
            data.n_workers(),
            row.incremental_ms,
            row.full_ms,
            row.speedup
        );
        stats_before = stats_after;
        rows.push(row);
    }

    // Phase 3 — verdict. The counters also round-trip over the wire:
    // the Stats reply must carry exactly the in-process numbers.
    let final_stats = cached.stats().expect("stats");
    let server = WireServer::bind("127.0.0.1:0", cached.handle(), WireConfig::default())
        .expect("bind loopback");
    let mut client = WireClient::connect(server.local_addr()).expect("connect");
    let over_wire = client.stats().expect("wire stats");
    assert_eq!(
        (
            over_wire.total_cache_hits(),
            over_wire.total_cache_misses(),
            over_wire.total_cache_full_refreshes(),
        ),
        (
            final_stats.total_cache_hits(),
            final_stats.total_cache_misses(),
            final_stats.total_cache_full_refreshes(),
        ),
        "wire Stats reply dropped the cache counters"
    );
    drop(client);
    drop(server);

    let mut speedups: Vec<f64> = rows.iter().map(|r| r.speedup).collect();
    let median_speedup = crowd_obs::sample_percentile(&mut speedups, 0.5);
    let mean_dirty = rows.iter().map(|r| r.dirty).sum::<u64>() as f64 / rows.len() as f64;
    let hit_rate = final_stats.total_cache_hits() as f64
        / (final_stats.total_cache_hits() + final_stats.total_cache_misses()) as f64;
    eprintln!(
        "median steady-state speedup {median_speedup:.1}x; mean dirty set {mean_dirty:.1} of {} anchors; hit rate {:.4}",
        data.n_workers(),
        hit_rate
    );
    if !smoke {
        assert!(
            median_speedup >= 5.0,
            "median incremental-snapshot speedup {median_speedup:.2}x fell below the 5x floor \
             at m = {} — the dirty-set machinery is not earning its keep",
            data.n_workers()
        );
    }

    // Power-of-two histogram of per-burst dirty-set sizes.
    let mut dirty_hist = [0u64; 12];
    for r in &rows {
        let bucket = (63 - (r.dirty.max(1)).leading_zeros()) as usize;
        dirty_hist[bucket.min(11)] += 1;
    }

    let json = render_json(
        &workload,
        &data,
        n_shards,
        seed.len(),
        identity_checkpoints,
        warm_cached_ms,
        warm_full_ms,
        &rows,
        median_speedup,
        mean_dirty,
        hit_rate,
        final_stats.total_cache_full_refreshes(),
        &dirty_hist,
        smoke,
    );
    std::fs::write(&out_path, json).expect("write benchmark output");
    eprintln!("wrote {out_path}");
}

#[allow(clippy::too_many_arguments)]
fn render_json(
    w: &Workload,
    data: &ResponseMatrix,
    n_shards: usize,
    seed_responses: usize,
    identity_checkpoints: usize,
    warm_cached_ms: f64,
    warm_full_ms: f64,
    rows: &[BurstRow],
    median_speedup: f64,
    mean_dirty: f64,
    hit_rate: f64,
    full_refreshes: u64,
    dirty_hist: &[u64; 12],
    smoke: bool,
) -> String {
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    let mut s = format!(
        concat!(
            "{{\n",
            "  \"benchmark\": \"dirty-set incremental assessment: report-cache snapshots vs full re-evaluation under skewed arrivals\",\n",
            "  \"confidence\": 0.9,\n",
            "  \"smoke\": {},\n",
            "  \"timing\": \"wall clock; snapshot latency in milliseconds, measured after each burst's drain barrier\",\n",
            "  \"host_available_parallelism\": {},\n",
            "  \"workload\": {{\n",
            "    \"workers\": {},\n",
            "    \"tasks\": {},\n",
            "    \"communities\": {},\n",
            "    \"activity\": \"skewed_activity_densities(exponent = {}, floor = {}) over the global worker index\",\n",
            "    \"responses\": {},\n",
            "    \"seed_responses\": {},\n",
            "    \"bursts\": {},\n",
            "    \"burst_size\": {},\n",
            "    \"hot_communities\": {},\n",
            "    \"shards\": {}\n",
            "  }},\n",
            "  \"bit_identity\": {{\n",
            "    \"verified\": true,\n",
            "    \"checkpoints\": {},\n",
            "    \"comparison\": \"byte equality of wire-encoded reports at every drain point, gated before timings are recorded\"\n",
            "  }},\n",
            "  \"warm_snapshot\": {{\n",
            "    \"incremental_cold_cache_ms\": {:.2},\n",
            "    \"full_ms\": {:.2}\n",
            "  }},\n",
            "  \"bursts\": [\n",
        ),
        smoke,
        cores,
        w.n_workers(),
        w.n_tasks(),
        w.communities,
        w.exponent,
        w.floor,
        data.n_responses(),
        seed_responses,
        w.n_bursts,
        w.burst_size,
        w.hot_communities,
        n_shards,
        identity_checkpoints,
        warm_cached_ms,
        warm_full_ms,
    );
    for (i, r) in rows.iter().enumerate() {
        s.push_str(&format!(
            concat!(
                "    {{\n",
                "      \"burst\": {},\n",
                "      \"community\": {},\n",
                "      \"dirty_anchors\": {},\n",
                "      \"cache_hits\": {},\n",
                "      \"incremental_snapshot_ms\": {:.3},\n",
                "      \"full_snapshot_ms\": {:.3},\n",
                "      \"speedup\": {:.2}\n",
                "    }}{}\n",
            ),
            r.burst,
            r.community,
            r.dirty,
            r.hits,
            r.incremental_ms,
            r.full_ms,
            r.speedup,
            if i + 1 < rows.len() { "," } else { "" },
        ));
    }
    s.push_str(&format!(
        concat!(
            "  ],\n",
            "  \"summary\": {{\n",
            "    \"median_speedup\": {:.2},\n",
            "    \"speedup_floor\": 5.0,\n",
            "    \"speedup_floor_enforced\": {},\n",
            "    \"mean_dirty_anchors\": {:.1},\n",
            "    \"anchors\": {},\n",
            "    \"cache_hit_rate\": {:.4},\n",
            "    \"cache_full_refreshes\": {},\n",
            "    \"dirty_histogram_pow2\": [{}],\n",
            "    \"wire_stats_roundtrip\": \"cache counters fetched over loopback TCP matched in-process stats\"\n",
            "  }}\n",
            "}}\n",
        ),
        median_speedup,
        !smoke,
        mean_dirty,
        data.n_workers(),
        hit_rate,
        full_refreshes,
        dirty_hist
            .iter()
            .map(u64::to_string)
            .collect::<Vec<_>>()
            .join(", "),
    ));
    s
}
