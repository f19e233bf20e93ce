//! One pass of a workload's schedule against a freshly set-up fleet,
//! from the generator thread: over loopback TCP the way a client
//! drives the service, or through the in-process handle for the
//! traced run's wire-overhead and instrumentation comparisons.

use std::time::Instant;

use crowd_service::{
    AssessmentService, ServiceConfig, ServiceError, ServiceHandle, ServiceMetrics, ServiceStats,
};
use crowd_shard::ShardPlan;
use crowd_wire::{WireClient, WireConfig, WireServer};

use crate::procfs::ThreadCpu;
use crate::reference::{Reference, binary_bytes, kary_bytes};
use crate::trace::Tracer;
use crate::workload::{CONFIDENCE, Op, SHARDS, Workload};

/// How the generator reaches the service.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Via {
    /// One `WireClient` connection to a `WireServer` on loopback.
    Wire,
    /// Direct calls on the `ServiceHandle`.
    InProcess,
}

/// A running fleet and, over the wire, its server and connection.
pub struct Fleet {
    service: AssessmentService,
    wire: Option<(WireServer, WireClient)>,
}

impl Fleet {
    /// Plan build, service spawn, server bind and client connect: the
    /// set-up a deployment pays once. Returns the fleet and the seconds
    /// it took.
    pub fn setup(w: &Workload, via: Via, metrics: bool) -> Result<(Self, f64), String> {
        let start = Instant::now();
        let plan = ShardPlan::build_clustered(&w.data, SHARDS);
        let config = ServiceConfig::default()
            .with_estimator(w.estimator.clone())
            .with_metrics(metrics);
        let service = AssessmentService::spawn(plan, w.data.n_tasks(), w.data.arity(), config);
        let wire = match via {
            Via::InProcess => None,
            Via::Wire => {
                let server =
                    WireServer::bind("127.0.0.1:0", service.handle(), WireConfig::default())
                        .map_err(|e| format!("bind: {e}"))?;
                let client = WireClient::connect(server.local_addr())
                    .map_err(|e| format!("connect: {e}"))?;
                Some((server, client))
            }
        };
        Ok((Self { service, wire }, start.elapsed().as_secs_f64()))
    }

    /// Closes the connection and the server, then shuts the fleet down
    /// and joins its threads.
    pub fn teardown(mut self) -> Result<(), String> {
        if let Some((mut server, client)) = self.wire.take() {
            drop(client);
            server.close();
        }
        self.service
            .shutdown()
            .map(|_| ())
            .map_err(|e| format!("shutdown: {e}"))
    }
}

/// What one pass measured.
#[derive(Debug)]
pub struct Pass {
    /// Seconds of set-up before the pass.
    pub setup_s: f64,
    /// Responses streamed.
    pub responses: usize,
    /// Wall seconds inside ingest calls.
    pub ingest_call_s: f64,
    /// Wall seconds inside drain calls.
    pub drain_s: f64,
    /// `Drain` request to snapshot reply, per drain point (ms).
    pub fresh_ms: Vec<f64>,
    /// Round trip of each read (ms).
    pub assess_ms: Vec<f64>,
    /// Thread CPU over the pass.
    pub cpu: ThreadCpu,
    /// Operations issued: ingest batches, reads, drains and snapshots.
    pub attempted: u64,
    /// Operations that failed or were refused.
    pub failed: u64,
    /// Fleet metrics scrape (counters included) at the end of the pass.
    pub metrics: ServiceMetrics,
}

impl Pass {
    /// Seconds inside ingest and drain calls: the `ingest_rps` divisor.
    pub fn ingest_s(&self) -> f64 {
        self.ingest_call_s + self.drain_s
    }
}

/// Sets up a fleet, plays the whole schedule, checks every drain
/// point against `reference` and the delivery accounting, and tears
/// the fleet down. An identity or accounting mismatch is an error: the
/// pass yields no numbers.
pub fn pass(
    w: &Workload,
    via: Via,
    metrics: bool,
    reference: &mut Reference,
    tracer: &mut Tracer,
) -> Result<Pass, String> {
    let (mut fleet, setup_s) = Fleet::setup(w, via, metrics)?;
    reference.rewind().map_err(|e| format!("reference: {e}"))?;
    let handle = fleet.service.handle();
    let mut p = Pass {
        setup_s,
        responses: 0,
        ingest_call_s: 0.0,
        drain_s: 0.0,
        fresh_ms: Vec::new(),
        assess_ms: Vec::new(),
        cpu: ThreadCpu::default(),
        attempted: 0,
        failed: 0,
        metrics: ServiceMetrics {
            enabled: false,
            stats: ServiceStats::default(),
            stages: Vec::new(),
            events: Vec::new(),
            events_dropped: 0,
        },
    };
    let mut client = fleet.wire.as_mut().map(|(_, c)| c);
    let cpu_start = ThreadCpu::now();
    for op in &w.ops {
        match op {
            Op::Ingest(range) => {
                let batches = &w.batches[range.clone()];
                p.attempted += batches.len() as u64;
                p.responses += batches.iter().map(Vec::len).sum::<usize>();
                let start = Instant::now();
                let failed = match client.as_deref_mut() {
                    Some(c) => match c.ingest_batches(batches) {
                        Ok(receipts) => receipts.iter().filter(|r| r.is_err()).count(),
                        Err(e) => return Err(format!("wire ingest: {e}")),
                    },
                    None => batches
                        .iter()
                        .filter(|b| handle.ingest_batch(b).is_err())
                        .count(),
                };
                p.ingest_call_s += start.elapsed().as_secs_f64();
                tracer.record(ingest_span(via), start);
                p.failed += failed as u64;
            }
            Op::Assess(ids) => {
                p.attempted += 1;
                let start = Instant::now();
                // A worker the estimator cannot assess yet is an answer
                // (the binary report carries it in `failures`), not a
                // failed operation.
                let ok = if w.is_kary() {
                    ids.iter().all(|&id| {
                        matches!(
                            handle.assess_worker_kary(id, CONFIDENCE),
                            Ok(_) | Err(ServiceError::Estimate(_))
                        )
                    })
                } else {
                    match client.as_deref_mut() {
                        Some(c) => c.assess_workers(ids, CONFIDENCE).is_ok(),
                        None => handle.assess_workers(ids, CONFIDENCE).is_ok(),
                    }
                };
                p.assess_ms.push(start.elapsed().as_secs_f64() * 1e3);
                tracer.record("service.assess", start);
                p.failed += u64::from(!ok);
            }
            Op::DrainPoint => {
                p.attempted += 2;
                let start = Instant::now();
                let drained = match client.as_deref_mut() {
                    Some(c) => c.drain(),
                    None => handle.drain(),
                };
                drained.map_err(|e| format!("drain: {e}"))?;
                p.drain_s += start.elapsed().as_secs_f64();
                tracer.record("service.drain", start);
                let snap_start = Instant::now();
                let bytes = snapshot_bytes(w, client.as_deref_mut(), &handle)?;
                p.fresh_ms.push(start.elapsed().as_secs_f64() * 1e3);
                tracer.record("service.snapshot", snap_start);
                reference.check(&bytes)?;
            }
        }
    }
    p.cpu = ThreadCpu::now().since(cpu_start);
    p.metrics = handle.metrics().map_err(|e| format!("metrics: {e}"))?;
    check_accounting(w, fleet.service.plan(), &p.metrics.stats)?;
    fleet.teardown()?;
    Ok(p)
}

fn ingest_span(via: Via) -> &'static str {
    match via {
        Via::Wire => "wire.ingest_batches",
        Via::InProcess => "service.ingest_batch",
    }
}

/// The drain point's snapshot, as the bytes the gate compares.
fn snapshot_bytes(
    w: &Workload,
    client: Option<&mut WireClient>,
    handle: &ServiceHandle,
) -> Result<Vec<u8>, String> {
    if w.is_kary() {
        // The wire has no k-ary opcode: k-ary reads go through the
        // handle the server fronts.
        return handle
            .snapshot_kary(CONFIDENCE)
            .map(|r| kary_bytes(&r))
            .map_err(|e| format!("k-ary snapshot: {e}"));
    }
    let report = match client {
        Some(c) => c.snapshot(CONFIDENCE),
        None => handle.snapshot(CONFIDENCE),
    }
    .map_err(|e| format!("snapshot: {e}"))?;
    Ok(binary_bytes(&report))
}

/// Every response was submitted once, delivered once to each shard of
/// its worker's closure, and none was rejected or shed.
fn check_accounting(w: &Workload, plan: &ShardPlan, stats: &ServiceStats) -> Result<(), String> {
    let submitted = w.n_responses() as u64;
    let delivered: u64 = stats.shards.iter().map(|s| s.responses).sum();
    let expected = expected_deliveries(w, plan);
    if stats.submitted != submitted
        || delivered != expected
        || stats.total_rejected() != 0
        || stats.dropped_responses != 0
    {
        return Err(format!(
            "accounting: submitted {} of {submitted}, shards recorded {delivered} of {expected} \
             deliveries, {} rejected, {} dropped",
            stats.submitted,
            stats.total_rejected(),
            stats.dropped_responses
        ));
    }
    Ok(())
}

/// Σ over the trace of the number of shards each response is routed
/// to: trace length × fan-out.
pub fn expected_deliveries(w: &Workload, plan: &ShardPlan) -> u64 {
    w.batches
        .iter()
        .flatten()
        .map(|r| plan.closure_shards(r.worker).len() as u64)
        .sum()
}
