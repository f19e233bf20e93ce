//! `crowdperf`: the repository's benchmark, from wire ingest to a
//! byte-verified snapshot.
//!
//! ```text
//! cargo run --release --manifest-path crowdperf/Cargo.toml -- \
//!     --workload dense-stream --seed 1 --seconds 25 --trace 0
//! ```
//!
//! Load model, every workload: a closed loop of one generator thread
//! holding one `WireClient` connection to a 2-shard fleet
//! (`ShardPlan::build_clustered`, default `ServiceConfig`). The thread
//! pipelines 256-response `IngestBatch` frames, reads intervals between
//! batches, and at each drain point sends `Drain` then a snapshot. Each
//! pass sets the fleet up afresh and plays the whole schedule; passes
//! repeat until `--seconds` have elapsed.
//!
//! Every drain point's snapshot is compared byte for byte with a
//! serial `IncrementalEvaluator` / `KaryIncrementalEvaluator` computed
//! beforehand in a child process, and every pass checks the shards'
//! delivery counts. A mismatch ends the run without metrics.
//!
//! `--trace 0` prints the end-to-end metrics; `--trace 1` replays the
//! same inputs through each layer and prints the per-layer metrics.
//! The last line of standard output is the JSON result.

mod drive;
mod layers;
mod procfs;
mod reference;
mod trace;
mod workload;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

use drive::{Fleet, Pass, Via, pass};
use reference::Reference;
use trace::Tracer;
use workload::{Kind, Shape, Workload};

/// Bytes per MiB.
pub const MIB: f64 = 1024.0 * 1024.0;
/// Set-up-only cycles before the measured passes, so `setup_s` is a
/// median over enough samples.
const SETUP_REPEATS: usize = 5;
/// Measured passes per untraced run, at least.
const MIN_PASSES: usize = 5;

/// Named metrics with units, in insertion order.
#[derive(Debug, Default)]
pub struct Report(Vec<(&'static str, f64, &'static str)>);

impl Report {
    /// Adds one metric.
    pub fn put(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.0.push((name, value, unit));
    }

    /// The metric names, in order.
    #[cfg(test)]
    pub fn names(&self) -> impl Iterator<Item = (&'static str, &'static str)> + '_ {
        self.0.iter().map(|&(n, _, u)| (n, u))
    }
}

/// Median of a non-empty sample.
pub fn median(xs: &[f64]) -> f64 {
    percentile(xs, 0.5)
}

/// Nearest-rank percentile.
fn percentile(xs: &[f64], q: f64) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// The p99 when at least 1000 samples support it; otherwise the
/// highest percentile with at least ten samples beyond it.
fn tail(xs: &[f64]) -> f64 {
    let n = xs.len() as f64;
    percentile(xs, if n >= 1000.0 { 0.99 } else { 1.0 - 10.0 / n })
}

/// One run's command line.
#[derive(Debug, Clone)]
struct Options {
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
}

/// What a finished run prints.
#[derive(Debug)]
struct Outcome {
    attempted: u64,
    failed: u64,
    metrics: Report,
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = if args.first().map(String::as_str) == Some("reference") {
        reference_child(&args[1..]).map(|()| None)
    } else {
        parse(&args)
            .and_then(|opts| run(&opts, Shape::Full, true))
            .map(Some)
    };
    match result {
        Ok(None) => ExitCode::SUCCESS,
        Ok(Some(out)) => {
            println!("{}", render(&out));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("crowdperf: {e}");
            ExitCode::FAILURE
        }
    }
}

fn flag<'a>(args: &'a [String], name: &str) -> Result<&'a str, String> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
        .ok_or_else(|| format!("missing {name}"))
}

fn parse(args: &[String]) -> Result<Options, String> {
    let name = flag(args, "--workload")?;
    Ok(Options {
        kind: Kind::parse(name).ok_or_else(|| format!("unknown workload {name}"))?,
        seed: flag(args, "--seed")?
            .parse()
            .map_err(|e| format!("--seed: {e}"))?,
        seconds: flag(args, "--seconds")?
            .parse()
            .map_err(|e| format!("--seconds: {e}"))?,
        trace: match flag(args, "--trace")? {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, not {other}")),
        },
    })
}

/// `crowdperf reference --workload W --seed S --out PATH`: writes the
/// serial reference of workload `W` from seed `S`.
fn reference_child(args: &[String]) -> Result<(), String> {
    let kind = Kind::parse(flag(args, "--workload")?).ok_or("unknown workload")?;
    let seed = flag(args, "--seed")?
        .parse()
        .map_err(|e| format!("--seed: {e}"))?;
    let w = Workload::generate(kind, seed, Shape::Full);
    reference::write(&w, Path::new(flag(args, "--out")?)).map_err(|e| format!("reference: {e}"))
}

/// The reference file of one run, removed when the run ends.
struct RefFile(PathBuf);

impl RefFile {
    /// `.crowdperf-run/<name>` under the working directory.
    fn new(name: &str) -> Result<Self, String> {
        let dir = Path::new(".crowdperf-run");
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        Ok(Self(dir.join(name)))
    }
}

impl Drop for RefFile {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

/// Generates the inputs, writes the reference (in a child process when
/// `child`, so its time and memory stay out of the measurement), then
/// runs the untraced or traced measurement.
fn run(opts: &Options, shape: Shape, child: bool) -> Result<Outcome, String> {
    let w = Workload::generate(opts.kind, opts.seed, shape);
    eprintln!(
        "{}: seed {} · {} workers × {} tasks · {} responses in {} batches · {} drain points · trace hash {:016x}",
        opts.kind.name(),
        opts.seed,
        w.data.n_workers(),
        w.data.n_tasks(),
        w.n_responses(),
        w.batches.len(),
        w.n_drain_points(),
        w.hash()
    );
    let file = RefFile::new(&format!("reference-{}.bin", std::process::id()))?;
    let start = Instant::now();
    if child {
        let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
        let status = Command::new(exe)
            .args(["reference", "--workload", opts.kind.name(), "--seed"])
            .arg(opts.seed.to_string())
            .arg("--out")
            .arg(&file.0)
            .stdout(Stdio::null())
            .status()
            .map_err(|e| format!("reference process: {e}"))?;
        if !status.success() {
            return Err(format!("reference process failed: {status}"));
        }
    } else {
        reference::write(&w, &file.0).map_err(|e| format!("reference: {e}"))?;
    }
    eprintln!("reference: {:.1} s", start.elapsed().as_secs_f64());
    let mut reference = Reference::open(&file.0).map_err(|e| format!("reference: {e}"))?;
    if opts.trace {
        traced(&w, &mut reference)
    } else {
        untraced(&w, opts.seconds, &mut reference)
    }
}

/// The end-to-end measurement: wire passes until `seconds` have
/// elapsed (at least [`MIN_PASSES`]), then set-up-only cycles.
fn untraced(w: &Workload, seconds: f64, reference: &mut Reference) -> Result<Outcome, String> {
    let baseline = procfs::status_bytes("VmRSS");
    let mut peak = 0;
    let mut passes: Vec<Pass> = Vec::new();
    let start = Instant::now();
    let mut off = Tracer::new(false);
    while passes.len() < MIN_PASSES || start.elapsed().as_secs_f64() < seconds {
        let p = pass(w, Via::Wire, true, reference, &mut off)?;
        if passes.is_empty() {
            // The first fleet runs on a fresh heap; later ones reuse
            // memory the allocator kept from earlier passes.
            peak = procfs::status_bytes("VmHWM").saturating_sub(baseline);
        }
        eprintln!(
            "pass {}: setup {:.3} s · ingest {:.3} s · fresh p50 {:.2} ms · assess p50 {:.2} ms · \
             cpu: shards {:.3} s, wire-conn {:.3} s, generator {:.3} s",
            passes.len(),
            p.setup_s,
            p.ingest_s(),
            median(&p.fresh_ms),
            median(&p.assess_ms),
            p.cpu.shard_ns as f64 / 1e9,
            p.cpu.conn_ns as f64 / 1e9,
            p.cpu.generator_ns as f64 / 1e9
        );
        passes.push(p);
    }
    let mut setups: Vec<f64> = passes.iter().map(|p| p.setup_s).collect();
    for _ in 0..SETUP_REPEATS {
        let (fleet, s) = Fleet::setup(w, Via::Wire, true)?;
        setups.push(s);
        fleet.teardown()?;
    }
    let fresh: Vec<f64> = passes.iter().flat_map(|p| p.fresh_ms.clone()).collect();
    let assess: Vec<f64> = passes.iter().flat_map(|p| p.assess_ms.clone()).collect();
    let rates: Vec<f64> = passes
        .iter()
        .map(|p| p.responses as f64 / p.ingest_s())
        .collect();
    let cpu: Vec<f64> = passes
        .iter()
        .map(|p| p.cpu.service_ns() as f64 / 1e9)
        .collect();
    eprintln!(
        "{} passes · {} drain points checked · {} setups · fresh n={} · assess n={}",
        passes.len(),
        reference.checked,
        setups.len(),
        fresh.len(),
        assess.len()
    );

    let mut m = Report::default();
    m.put("ingest_rps", median(&rates), "1/s");
    m.put("fresh_p50_ms", median(&fresh), "ms");
    m.put("assess_p50_ms", median(&assess), "ms");
    m.put("cpu_s", median(&cpu), "s");
    m.put("peak_rss_mb", peak as f64 / MIB, "MiB");
    m.put("setup_s", median(&setups), "s");
    Ok(Outcome {
        attempted: passes.iter().map(|p| p.attempted).sum(),
        failed: passes.iter().map(|p| p.failed).sum(),
        metrics: m,
    })
}

/// The per-layer measurement: an untraced and a traced wire pass (the
/// tracing overhead), three in-process passes each with metrics on and
/// off (wire overhead and instrumentation cost), then the layer
/// replays.
fn traced(w: &Workload, reference: &mut Reference) -> Result<Outcome, String> {
    let mut t = Tracer::new(true);
    let plain = pass(w, Via::Wire, true, reference, &mut Tracer::new(false))?;
    t.enter("pass.wire");
    let wire = pass(w, Via::Wire, true, reference, &mut t)?;
    t.exit();
    // Instrumentation on and off, alternated so drift hits both sides.
    let mut on = Vec::new();
    let mut off = Vec::new();
    for metrics in [true, false, false, true, true, false] {
        let p = pass(
            w,
            Via::InProcess,
            metrics,
            reference,
            &mut Tracer::new(false),
        )?;
        if metrics { &mut on } else { &mut off }.push(p);
    }
    let ingest_s = |ps: &[Pass]| median(&ps.iter().map(Pass::ingest_s).collect::<Vec<_>>());
    let on_s = ingest_s(&on);
    let route_s = median(&on.iter().map(|p| p.ingest_call_s).collect::<Vec<_>>());
    let passes: Vec<&Pass> = [&plain, &wire].into_iter().chain(&on).chain(&off).collect();

    let mut m = Report::default();
    t.enter("replay");
    layers::measure(w, &mut t, &mut m);
    t.exit();

    let stats = &wire.metrics.stats;
    let stages = wire.metrics.merged_stages();
    let delivered: u64 = stats.shards.iter().map(|s| s.responses).sum();
    let n = wire.responses as f64;
    m.put(
        "data.gram_patches",
        stats.total_gram_patches() as f64,
        "count",
    );
    m.put(
        "data.gram_rebuilds",
        stats.total_gram_rebuilds() as f64,
        "count",
    );
    m.put("data.reanchors", stats.total_reanchors() as f64, "count");
    m.put(
        "shard.fanout",
        delivered as f64 / stats.submitted as f64,
        "x",
    );
    m.put("service.route_ns_per_resp", route_s * 1e9 / n, "ns");
    m.put(
        "service.apply_s",
        stages.batch_apply.sum() as f64 / 1e9,
        "s",
    );
    m.put(
        "service.queue_wait_s",
        stages.queue_wait.sum() as f64 / 1e9,
        "s",
    );
    m.put(
        "service.drain_eval_s",
        stages.drain_eval.sum() as f64 / 1e9,
        "s",
    );
    m.put("service.shard_cpu_s", wire.cpu.shard_ns as f64 / 1e9, "s");
    m.put(
        "service.queue_high_water",
        stats.max_queue_high_water() as f64,
        "count",
    );
    m.put("wire.overhead_s", plain.ingest_s() - on_s, "s");
    m.put("wire.conn_cpu_s", wire.cpu.conn_ns as f64 / 1e9, "s");
    m.put("obs.on_off_ratio", ingest_s(&off) / on_s, "x");
    m.put(
        "trace.ingest_overhead_frac",
        wire.ingest_s() / plain.ingest_s() - 1.0,
        "frac",
    );
    let reads: Vec<f64> = [&plain, &wire]
        .iter()
        .flat_map(|p| p.assess_ms.iter().copied())
        .collect();
    m.put("wire.assess_tail_ms", tail(&reads), "ms");
    m.put(
        "trace.fresh_overhead_frac",
        median(&wire.fresh_ms) / median(&plain.fresh_ms) - 1.0,
        "frac",
    );
    eprint!("{}", t.summary());
    Ok(Outcome {
        attempted: passes.iter().map(|p| p.attempted).sum(),
        failed: passes.iter().map(|p| p.failed).sum(),
        metrics: m,
    })
}

fn render(out: &Outcome) -> String {
    let metrics: Vec<String> = out
        .metrics
        .0
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.failed == 0,
        out.attempted,
        out.failed,
        metrics.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crowd_core::IncrementalEvaluator;
    use workload::Op;

    /// `(name, unit)` of every metric in one section of
    /// `BENCHMARK.json`.
    fn declared(section: &str) -> Vec<(String, String)> {
        let text = std::fs::read_to_string("../BENCHMARK.json").expect("BENCHMARK.json");
        let start = text.find(&format!("\"{section}\"")).expect("section");
        let body = &text[start..];
        let body = &body[..body.find(']').expect("section end")];
        let field = |entry: &str, key: &str| {
            let at = entry.find(&format!("\"{key}\"")).expect(key) + key.len() + 2;
            let rest = &entry[at..];
            let open = rest.find('"').expect("value") + 1;
            let close = open + rest[open..].find('"').expect("value end");
            rest[open..close].to_string()
        };
        body.split('{')
            .skip(1)
            .map(|entry| (field(entry, "name"), field(entry, "unit")))
            .collect()
    }

    fn opts(kind: Kind, trace: bool) -> Options {
        Options {
            kind,
            seed: 3,
            seconds: 0.0,
            trace,
        }
    }

    #[test]
    fn same_seed_same_trace() {
        for kind in Kind::ALL {
            let a = Workload::generate(kind, 42, Shape::Full);
            let b = Workload::generate(kind, 42, Shape::Full);
            let c = Workload::generate(kind, 43, Shape::Full);
            assert_eq!(a.hash(), b.hash(), "{}", kind.name());
            assert_ne!(a.hash(), c.hash(), "{}", kind.name());
            assert!(a.n_drain_points() >= 2, "{}", kind.name());
        }
    }

    #[test]
    fn identity_gate_trips_on_perturbed_report() {
        let w = Workload::generate(Kind::Dense, 5, Shape::Tiny);
        let file = RefFile::new("gate-test.bin").expect("scratch file");
        reference::write(&w, &file.0).expect("reference");
        let first = w
            .ops
            .iter()
            .position(|op| *op == Op::DrainPoint)
            .expect("a drain point");
        let mut ev = IncrementalEvaluator::new(
            w.data.n_workers(),
            w.data.n_tasks(),
            w.data.arity(),
            w.estimator.clone(),
        );
        for op in &w.ops[..first] {
            if let Op::Ingest(range) = op {
                for &r in w.batches[range.clone()].iter().flatten() {
                    ev.ingest(r).expect("valid response");
                }
            }
        }
        let report = ev.evaluate_all(workload::CONFIDENCE).expect("evaluation");
        let mut gate = Reference::open(&file.0).expect("open");
        gate.check(&reference::binary_bytes(&report))
            .expect("the unperturbed report passes");

        let mut perturbed = report.clone();
        let hw = &mut perturbed.assessments[0].interval.half_width;
        *hw = f64::from_bits(hw.to_bits() ^ 1);
        gate.rewind().expect("rewind");
        assert!(gate.check(&reference::binary_bytes(&perturbed)).is_err());
    }

    #[test]
    fn short_runs_emit_every_declared_metric() {
        for (trace, section) in [(false, "end_to_end"), (true, "per_layer")] {
            let mut want = declared(section);
            want.sort();
            for kind in Kind::ALL {
                let out = run(&opts(kind, trace), Shape::Tiny, false)
                    .unwrap_or_else(|e| panic!("{}: {e}", kind.name()));
                assert_eq!(out.failed, 0, "{}", kind.name());
                let mut got: Vec<(String, String)> = out
                    .metrics
                    .names()
                    .map(|(n, u)| (n.to_string(), u.to_string()))
                    .collect();
                got.sort();
                assert_eq!(got, want, "{} trace={trace}", kind.name());
                assert!(
                    out.metrics.0.iter().all(|(_, v, _)| v.is_finite()),
                    "{}",
                    kind.name()
                );
            }
        }
    }
}
