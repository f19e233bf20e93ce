//! The three workloads: seeded fleets, their arrival order, and the
//! operation schedule one generator thread plays against the service.
//!
//! Everything here is a pure function of `(kind, seed)`: the same seed
//! gives the same responses, batches and reads, which is what lets the
//! serial reference (another process) and the measured stream agree on
//! every drain point.

use std::ops::Range;

use crowd_core::EstimatorConfig;
use crowd_data::{Label, Response, ResponseMatrix, ResponseMatrixBuilder, TaskId, WorkerId};
use crowd_sim::{ArrivalSchedule, BinaryScenario, KaryScenario, rng, skewed_activity_densities};
use rand::RngExt;

/// Confidence level of every interval the benchmark asks for.
pub const CONFIDENCE: f64 = 0.9;
/// Responses per `IngestBatch` frame.
pub const BATCH: usize = 256;
/// Shards in the fleet: with the generator thread, one busy thread per
/// core of the 2-core machine the benchmark was designed on.
pub const SHARDS: usize = 2;

/// Which workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Dense, well-mixed binary fleet: every shard's closure is the
    /// whole fleet, and every drain point dirties every anchor.
    Dense,
    /// Sparse community fleet at m = 10⁴: a seed stream, then many
    /// small bursts into hot communities, each read back at once.
    Community,
    /// Arity-3 fleet: the k-ary counts, covariance and eigen paths.
    Kary,
}

impl Kind {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Kind; 3] = [Kind::Dense, Kind::Community, Kind::Kary];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Kind::Dense => "dense-stream",
            Kind::Community => "community-bursts",
            Kind::Kary => "kary-stream",
        }
    }

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }
}

/// How big a workload is. The benchmark always runs [`Shape::Full`];
/// the tests use [`Shape::Tiny`] so a debug build finishes in seconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    /// The sizes the benchmark measures.
    Full,
    /// A few dozen workers, for tests.
    Tiny,
}

/// One step of the generator's closed loop.
#[derive(Debug, Clone, PartialEq)]
pub enum Op {
    /// Pipelined ingest of `batches[range]` over one connection.
    Ingest(Range<usize>),
    /// One read of these workers' intervals (beside the writes).
    Assess(Vec<WorkerId>),
    /// Drain, then snapshot; the snapshot is checked byte for byte
    /// against the serial reference at the same point.
    DrainPoint,
}

/// A generated workload: the fleet, its batches and its schedule.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Every response of the trace; the shard plan is built from it.
    pub data: ResponseMatrix,
    /// Estimator configuration of the service and the reference.
    pub estimator: EstimatorConfig,
    /// The trace in arrival order, cut into ingest batches.
    pub batches: Vec<Vec<Response>>,
    /// The closed-loop schedule over `batches`.
    pub ops: Vec<Op>,
}

impl Workload {
    /// Generates `kind` from `seed`.
    pub fn generate(kind: Kind, seed: u64, shape: Shape) -> Self {
        let tiny = shape == Shape::Tiny;
        match kind {
            Kind::Dense => {
                let (m, n) = if tiny { (20, 300) } else { (300, 2000) };
                let inst = BinaryScenario::paper_default(m, n, 0.25).generate(&mut rng(seed));
                let cadence = Cadence {
                    assess_every: if tiny { 2 } else { 8 },
                    assess_width: 2,
                    drain_points: if tiny { 3 } else { 4 },
                };
                poisson_stream(inst.responses().clone(), seed, &cadence)
            }
            Kind::Community => community(seed, tiny),
            Kind::Kary => {
                let (m, n) = if tiny { (9, 600) } else { (48, 8000) };
                let inst = KaryScenario::paper_default(3, n, 0.3)
                    .with_workers(m)
                    .generate(&mut rng(seed));
                let cadence = Cadence {
                    assess_every: if tiny { 2 } else { 8 },
                    assess_width: 3,
                    drain_points: if tiny { 3 } else { 4 },
                };
                poisson_stream(inst.responses().clone(), seed, &cadence)
            }
        }
    }

    /// True for the arity-3 fleet, whose reads go through the k-ary
    /// entry points.
    pub fn is_kary(&self) -> bool {
        self.data.arity() > 2
    }

    /// Responses in the trace.
    pub fn n_responses(&self) -> usize {
        self.batches.iter().map(Vec::len).sum()
    }

    /// Drain points per pass over the schedule.
    pub fn n_drain_points(&self) -> usize {
        self.ops.iter().filter(|op| **op == Op::DrainPoint).count()
    }

    /// FNV-1a-64 over the fleet shape, the batches and the schedule:
    /// equal hashes mean the program receives identical inputs.
    pub fn hash(&self) -> u64 {
        let mut h = Fnv::default();
        for x in [
            self.data.n_workers(),
            self.data.n_tasks(),
            usize::from(self.data.arity()),
        ] {
            h.u64(x as u64);
        }
        for batch in &self.batches {
            h.u64(batch.len() as u64);
            for r in batch {
                h.u64(u64::from(r.worker.0) << 32 | u64::from(r.task.0));
                h.u64(u64::from(r.label.0));
            }
        }
        for op in &self.ops {
            match op {
                Op::Ingest(range) => {
                    h.u64(1);
                    h.u64(range.start as u64);
                    h.u64(range.end as u64);
                }
                Op::Assess(ids) => {
                    h.u64(2);
                    ids.iter().for_each(|w| h.u64(u64::from(w.0)));
                }
                Op::DrainPoint => h.u64(3),
            }
        }
        h.0
    }
}

#[derive(Debug)]
struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    fn u64(&mut self, x: u64) {
        for b in x.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
}

/// The read/drain rhythm of a streamed trace.
struct Cadence {
    /// One `Assess` after every this many batches.
    assess_every: usize,
    /// Workers per `Assess`.
    assess_width: usize,
    /// Drain points, spread evenly over the trace (the last one ends
    /// it).
    drain_points: usize,
}

impl Cadence {
    fn schedule(
        &self,
        order: &[Response],
        n_workers: usize,
        rng: &mut crowd_sim::Rng,
    ) -> (Vec<Vec<Response>>, Vec<Op>) {
        let batches: Vec<Vec<Response>> = order.chunks(BATCH).map(<[Response]>::to_vec).collect();
        let mut ops = Vec::new();
        let mut start = 0;
        let n = batches.len();
        for end in 1..=n {
            // True where the drain points' share of the trace steps up.
            let drain = end * self.drain_points / n > (end - 1) * self.drain_points / n;
            if drain || end % self.assess_every == 0 {
                ops.push(Op::Ingest(start..end));
                start = end;
            }
            if drain {
                ops.push(Op::DrainPoint);
            }
            if end % self.assess_every == 0 {
                ops.push(Op::Assess(random_workers(
                    rng,
                    0..n_workers,
                    self.assess_width,
                )));
            }
        }
        (batches, ops)
    }
}

fn random_workers(rng: &mut crowd_sim::Rng, pool: Range<usize>, k: usize) -> Vec<WorkerId> {
    (0..k)
        .map(|_| WorkerId(rng.random_range(pool.clone()) as u32))
        .collect()
}

/// `data` in Poisson arrival order under `cadence`, with the paper's
/// default estimator.
fn poisson_stream(data: ResponseMatrix, seed: u64, cadence: &Cadence) -> Workload {
    let order = ArrivalSchedule::poisson(&data, 1e6, &mut rng(seed ^ 0x9e37_79b9))
        .responses()
        .to_vec();
    let (batches, ops) = cadence.schedule(&order, data.n_workers(), &mut rng(seed ^ 0xa55e55));
    Workload {
        data,
        estimator: EstimatorConfig::default(),
        batches,
        ops,
    }
}

/// The community fleet: `communities × workers_per` workers, each
/// answering only its own community's `tasks_per` tasks with Zipf
/// activity over the global worker index. The first `hot` communities
/// (the Zipf head) hold back responses for the burst phase.
fn community(seed: u64, tiny: bool) -> Workload {
    let (communities, workers_per, tasks_per, hot, bursts, burst_size) = if tiny {
        (6usize, 8usize, 12usize, 2usize, 4usize, 6usize)
    } else {
        (200, 50, 50, 10, 100, 24)
    };
    let m = communities * workers_per;
    let n = communities * tasks_per;
    let activity = skewed_activity_densities(m, 1.0, 0.15);
    let mut g = rng(seed);
    let truths: Vec<u16> = (0..n).map(|_| g.random_range(0..2u16)).collect();
    let mut b = ResponseMatrixBuilder::new(m, n, 2);
    for (w, &density) in activity.iter().enumerate() {
        let error_rate = 0.05 + 0.15 * g.random::<f64>();
        let c = w / workers_per;
        let tasks = c * tasks_per..(c + 1) * tasks_per;
        for (t, &truth) in tasks.clone().zip(&truths[tasks]) {
            if g.random::<f64>() >= density {
                continue;
            }
            let flip = g.random::<f64>() < error_rate;
            b.push(
                WorkerId(w as u32),
                TaskId(t as u32),
                Label(truth ^ u16::from(flip)),
            )
            .expect("generated ids are in range");
        }
    }
    let data = b.build().expect("generated cells are unique");

    // Shuffle the trace, then hold the burst responses back from it.
    let mut order: Vec<Response> = data.iter().collect();
    for i in (1..order.len()).rev() {
        let j = g.random_range(0..i + 1);
        order.swap(i, j);
    }
    let per_hot = bursts.div_ceil(hot) * burst_size;
    let mut pools: Vec<Vec<Response>> = vec![Vec::new(); hot];
    let mut seed_stream = Vec::with_capacity(order.len());
    for r in order {
        let c = r.worker.index() / workers_per;
        if c < hot && pools[c].len() < per_hot {
            pools[c].push(r);
        } else {
            seed_stream.push(r);
        }
    }
    assert!(
        pools.iter().all(|p| p.len() == per_hot),
        "every hot community holds back {per_hot} responses"
    );

    let seed_plan = Cadence {
        assess_every: 16,
        assess_width: 4,
        drain_points: 1,
    };
    let (mut batches, mut ops) = seed_plan.schedule(&seed_stream, m, &mut g);
    for burst in 0..bursts {
        let c = burst % hot;
        let round = burst / hot;
        batches.push(pools[c][round * burst_size..(round + 1) * burst_size].to_vec());
        ops.push(Op::Ingest(batches.len() - 1..batches.len()));
        ops.push(Op::DrainPoint);
        // Read back the workers the burst just wrote.
        let mut written: Vec<WorkerId> = batches[batches.len() - 1]
            .iter()
            .map(|r| r.worker)
            .collect();
        written.sort_unstable();
        written.dedup();
        ops.push(Op::Assess(written));
    }
    Workload {
        data,
        estimator: EstimatorConfig::fleet(16),
        batches,
        ops,
    }
}
