//! The traced run's per-layer replays: the same generated inputs fed
//! through each layer's public functions, one layer at a time, with a
//! span around every call.

use std::hint::black_box;
use std::time::Instant;

use crowd_core::pairing::form_pairs_limited;
use crowd_core::{
    CacheStats, IncrementalEvaluator, KaryIncrementalEvaluator, KaryMWorkerEstimator,
    MWorkerEstimator,
};
use crowd_data::{PairBackend, Response, StreamingIndex};
use crowd_shard::{ShardPlan, merge_kary_reports, merge_reports};
use crowd_wire::Reply;
use crowd_wire::proto::{
    decode_reply, decode_request, encode_ingest_batch_payload, encode_reply, opcode,
};

use crate::trace::Tracer;
use crate::workload::{CONFIDENCE, Op, SHARDS, Workload};
use crate::{MIB, Report, median};

/// Runs every replay and puts its metrics into `out`.
pub fn measure(w: &Workload, t: &mut Tracer, out: &mut Report) {
    data_ingest(w, t, out);
    if w.is_kary() {
        let ev = KaryIncrementalEvaluator::new(
            w.data.n_workers(),
            w.data.n_tasks(),
            w.data.arity(),
            w.estimator.clone(),
        );
        serial_eval(w, ev, t, out);
    } else {
        let ev = IncrementalEvaluator::new(
            w.data.n_workers(),
            w.data.n_tasks(),
            w.data.arity(),
            w.estimator.clone(),
        );
        serial_eval(w, ev, t, out);
    }
    shards(w, t, out);
    request_codec(w, t, out);
}

fn trace_responses(w: &Workload) -> impl Iterator<Item = Response> + '_ {
    w.batches.iter().flatten().copied()
}

/// `StreamingIndex::record_response` over the whole trace, single
/// threaded, on the sparse backend the shards use.
fn data_ingest(w: &Workload, t: &mut Tracer, out: &mut Report) {
    for _ in 0..3 {
        let mut s = StreamingIndex::new_with(
            w.data.n_workers(),
            w.data.n_tasks(),
            w.data.arity(),
            PairBackend::Sparse,
        );
        let start = Instant::now();
        for r in trace_responses(w) {
            s.record_response(r).expect("generated responses are valid");
        }
        t.record("data.record_response", start);
        black_box(&s);
    }
    let per = median(&t.seconds("data.record_response")) / w.n_responses() as f64;
    out.put("data.ingest_ns_per_resp", per * 1e9, "ns");
}

/// The serial evaluators' shared surface, so one replay covers the
/// binary and k-ary twins.
trait Serial {
    fn ingest(&mut self, r: Response);
    /// Uncached `evaluate_all`; returns the rows evaluated.
    fn full(&self) -> usize;
    /// `evaluate_all_cached`; returns the rows served.
    fn cached(&mut self) -> usize;
    fn cache(&self) -> CacheStats;
}

impl Serial for IncrementalEvaluator {
    fn ingest(&mut self, r: Response) {
        IncrementalEvaluator::ingest(self, r).expect("generated responses are valid");
    }
    fn full(&self) -> usize {
        let r = black_box(self.evaluate_all(CONFIDENCE).expect("evaluation"));
        r.assessments.len() + r.failures.len()
    }
    fn cached(&mut self) -> usize {
        let r = black_box(self.evaluate_all_cached(CONFIDENCE).expect("evaluation"));
        r.assessments.len() + r.failures.len()
    }
    fn cache(&self) -> CacheStats {
        self.cache_stats()
    }
}

impl Serial for KaryIncrementalEvaluator {
    fn ingest(&mut self, r: Response) {
        KaryIncrementalEvaluator::ingest(self, r).expect("generated responses are valid");
    }
    fn full(&self) -> usize {
        let r = black_box(self.evaluate_all(CONFIDENCE).expect("evaluation"));
        r.assessments.len() + r.failures.len()
    }
    fn cached(&mut self) -> usize {
        let r = black_box(self.evaluate_all_cached(CONFIDENCE).expect("evaluation"));
        r.assessments.len() + r.failures.len()
    }
    fn cache(&self) -> CacheStats {
        self.cache_stats()
    }
}

/// The serial evaluator at the last two drain points: a cold cached
/// evaluation at the second-to-last, the timed cached one after the
/// last ingest segment (one burst on `community-bursts`), then full
/// re-evaluation of the same state.
fn serial_eval(w: &Workload, mut ev: impl Serial, t: &mut Tracer, out: &mut Report) {
    let drains: Vec<usize> = (0..w.ops.len())
        .filter(|&i| w.ops[i] == Op::DrainPoint)
        .collect();
    let (prev, last) = match drains[..] {
        [.., p, l] => (p, l),
        _ => (0, drains[0]),
    };
    let ingest = |ev: &mut dyn Serial, ops: &[Op]| {
        for op in ops {
            if let Op::Ingest(range) = op {
                w.batches[range.clone()]
                    .iter()
                    .flatten()
                    .for_each(|&r| ev.ingest(r));
            }
        }
    };
    ingest(&mut ev, &w.ops[..prev]);
    ev.cached();
    ingest(&mut ev, &w.ops[prev..last]);
    let before = ev.cache();
    let start = Instant::now();
    ev.cached();
    t.record("core.evaluate_all_cached", start);
    let after = ev.cache();
    let cached_ms = t.total_s("core.evaluate_all_cached") * 1e3;
    let (hits, misses) = (after.hits - before.hits, after.misses - before.misses);

    let mut rows = 0;
    for _ in 0..3 {
        let start = Instant::now();
        rows = ev.full();
        t.record("core.evaluate_all", start);
    }
    let full_ms = median(&t.seconds("core.evaluate_all")) * 1e3;
    let per_anchor = full_ms / rows.max(1) as f64;

    out.put("core.eval_ms_per_anchor", per_anchor, "ms");
    if w.is_kary() {
        out.put("kary.eval_ms_per_anchor", per_anchor, "ms");
    }
    out.put("core.cached_eval_ms", cached_ms, "ms");
    out.put(
        "core.cache_hit_frac",
        hits as f64 / (hits + misses).max(1) as f64,
        "frac",
    );
    out.put("core.cache_speedup", full_ms / cached_ms, "x");
}

/// The sharded substrate without threads: plan, per-shard ingest of
/// each closure's responses, triple formation and one evaluation of
/// each shard's anchors, resident bytes, checkpoints, the report merge
/// and the reply codec.
fn shards(w: &Workload, t: &mut Tracer, out: &mut Report) {
    let mut plan = None;
    for _ in 0..5 {
        let start = Instant::now();
        plan = Some(ShardPlan::build_clustered(&w.data, SHARDS));
        t.record("shard.build_clustered", start);
    }
    let plan = plan.expect("built above");
    out.put(
        "shard.plan_ms",
        median(&t.seconds("shard.build_clustered")) * 1e3,
        "ms",
    );

    let mut streams: Vec<StreamingIndex> = (0..SHARDS)
        .map(|_| {
            StreamingIndex::new_with(
                w.data.n_workers(),
                w.data.n_tasks(),
                w.data.arity(),
                PairBackend::Sparse,
            )
        })
        .collect();
    let start = Instant::now();
    for r in trace_responses(w) {
        for &s in plan.closure_shards(r.worker) {
            streams[s as usize]
                .record_response(r)
                .expect("generated responses are valid");
        }
    }
    t.record("data.shard_record_response", start);

    // Triple formation for every anchor on its shard's substrate, as
    // the shard's estimator forms them.
    let cfg = &w.estimator;
    for _ in 0..3 {
        let start = Instant::now();
        for (stream, spec) in streams.iter().zip(plan.shards()) {
            for &anchor in &spec.anchors {
                black_box(form_pairs_limited(
                    stream,
                    anchor,
                    cfg.pairing,
                    cfg.min_pair_overlap,
                    cfg.max_triples,
                ));
            }
        }
        t.record("core.form_pairs", start);
    }
    out.put(
        "core.pairs_ms",
        median(&t.seconds("core.form_pairs")) * 1e3,
        "ms",
    );

    if w.is_kary() {
        let est = KaryMWorkerEstimator::new(w.estimator.clone());
        let parts: Vec<_> = (0..SHARDS)
            .map(|s| {
                let start = Instant::now();
                let r = est
                    .evaluate_workers_streaming(&streams[s], &plan.shards()[s].anchors, CONFIDENCE)
                    .expect("evaluation");
                t.record("core.shard_evaluate", start);
                r
            })
            .collect();
        for _ in 0..5 {
            let copy = parts.clone();
            let start = Instant::now();
            black_box(merge_kary_reports(copy));
            t.record("shard.merge_reports", start);
        }
        out.put("wire.reply_codec_ms", 0.0, "ms");
    } else {
        let est = MWorkerEstimator::new(w.estimator.clone());
        let parts: Vec<_> = (0..SHARDS)
            .map(|s| {
                let start = Instant::now();
                let r = est
                    .evaluate_workers_on(&streams[s], &plan.shards()[s].anchors, CONFIDENCE)
                    .expect("evaluation");
                t.record("core.shard_evaluate", start);
                r
            })
            .collect();
        // The k-ary evaluator on this binary fleet (k = 2), over a few
        // anchors: the k-ary layer's figure on the measured workloads.
        let kary = KaryMWorkerEstimator::new(w.estimator.clone());
        let sample = &plan.shards()[0].anchors[..plan.shards()[0].anchors.len().min(16)];
        let start = Instant::now();
        black_box(
            kary.evaluate_workers_streaming(&streams[0], sample, CONFIDENCE)
                .expect("evaluation"),
        );
        t.record("kary.evaluate_workers", start);
        out.put(
            "kary.eval_ms_per_anchor",
            t.total_s("kary.evaluate_workers") * 1e3 / sample.len().max(1) as f64,
            "ms",
        );

        let mut merged = None;
        for _ in 0..5 {
            let copy = parts.clone();
            let start = Instant::now();
            merged = Some(merge_reports(copy));
            t.record("shard.merge_reports", start);
        }
        let reply = Reply::Report(merged.expect("merged above"));
        for _ in 0..5 {
            let start = Instant::now();
            let (op, bytes) = encode_reply(&reply);
            black_box(decode_reply(op, &bytes).expect("a reply this process encoded"));
            t.record("wire.reply_codec", start);
        }
        out.put(
            "wire.reply_codec_ms",
            median(&t.seconds("wire.reply_codec")) * 1e3,
            "ms",
        );
    }
    out.put(
        "shard.merge_ms",
        median(&t.seconds("shard.merge_reports")) * 1e3,
        "ms",
    );

    let masks: usize = streams.iter().map(StreamingIndex::view_mask_bytes).sum();
    let pairs: usize = streams.iter().map(|s| s.index().pair_table_bytes()).sum();
    out.put("data.view_mask_mb", masks as f64 / MIB, "MiB");
    out.put("data.pair_table_mb", pairs as f64 / MIB, "MiB");

    let mut bytes = 0;
    for _ in 0..3 {
        let start = Instant::now();
        bytes = streams
            .iter()
            .map(|s| black_box(s.checkpoint()).len())
            .sum();
        t.record("data.checkpoint", start);
    }
    out.put(
        "data.checkpoint_ms",
        median(&t.seconds("data.checkpoint")) * 1e3,
        "ms",
    );
    out.put("data.checkpoint_mb", bytes as f64 / MIB, "MiB");
}

/// The client's `IngestBatch` encoding and the server's decoding of
/// every batch in the trace.
fn request_codec(w: &Workload, t: &mut Tracer, out: &mut Report) {
    let mut bytes = 0;
    for _ in 0..3 {
        bytes = 0;
        let start = Instant::now();
        for batch in &w.batches {
            let payload = encode_ingest_batch_payload(batch);
            // Length prefix and opcode, as `write_frame` sends them.
            bytes += payload.len() + 5;
            black_box(
                decode_request(opcode::INGEST_BATCH, &payload)
                    .expect("a request this process encoded"),
            );
        }
        t.record("wire.request_codec", start);
    }
    let n = w.n_responses() as f64;
    out.put(
        "wire.req_codec_ns_per_resp",
        median(&t.seconds("wire.request_codec")) * 1e9 / n,
        "ns",
    );
    out.put("wire.bytes_per_resp", bytes as f64 / n, "B");
}
