//! Seeded input generation for the workloads.
//!
//! Everything here runs outside every timer and outside `setup_s`.  A job's
//! inputs depend only on the workload seed and the job's position, so the
//! same seed always yields the same jobs, and the program under test only
//! ever sees the generated graphs.

use std::collections::HashSet;

use mwl_driver::{BatchJob, LatencySpec};
use mwl_model::SequencingGraph;
use mwl_serve::job_key;
use mwl_tgff::{GraphShape, TgffConfig, TgffGenerator, WidthProfile};

/// Jobs per `run_batch` call in `sweep_small`: one small design-space
/// sweep request.
pub const SWEEP_CHUNK: usize = 16;
/// Operation counts of `sweep_small` graphs.
pub const SWEEP_OPS: (usize, usize) = (6, 24);
/// Graph sizes of `scale_large`.
pub const SCALE_OPS: [usize; 4] = [32, 64, 96, 128];
/// λ slack (control steps above λ_min) of `scale_large`.
pub const SCALE_SLACK: [u32; 2] = [0, 8];
/// Variants raced by a portfolio replay.
pub const PORTFOLIO_VARIANTS: usize = 4;

const SHAPES: [GraphShape; 4] = [
    GraphShape::Layered,
    GraphShape::Wide,
    GraphShape::Deep,
    GraphShape::Diamond,
];

/// SplitMix64: a tiny seeded generator, enough for drawing input
/// parameters.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for one stream of one seed.
    #[must_use]
    pub fn new(seed: u64, stream: u64, index: u64) -> Self {
        let mut rng = Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        rng.0 ^= rng.next_u64() ^ index.wrapping_mul(0xE703_7ED1_A0B4_28DB);
        rng
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniform draw from `lo..=hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next_u64() % (hi - lo + 1)
    }
}

/// Rejects content repeats across a whole run, so no input-keyed cache
/// can help the workloads that promise unique jobs.
#[derive(Debug, Default)]
pub struct Unique(HashSet<u64>);

impl Unique {
    /// Records the job's content key; false when it was seen before.
    pub fn insert(&mut self, job: &BatchJob) -> bool {
        self.0.insert(job_key(
            &job.graph,
            &job.latency,
            &job.config,
            job.portfolio,
        ))
    }
}

fn small_graph(rng: &mut Rng, ops: usize, shape: GraphShape, mixed: bool) -> SequencingGraph {
    let profile = if mixed {
        WidthProfile::Mixed { high_fraction: 0.3 }
    } else {
        WidthProfile::Uniform
    };
    let config = TgffConfig::with_ops(ops)
        .shape(shape)
        .width_profile(profile);
    TgffGenerator::new(config, rng.next_u64()).generate()
}

/// λ from `RelaxSteps(0..=8)` or `RelaxPercent(10..=50)`.
fn sweep_latency(rng: &mut Rng, percent: bool) -> LatencySpec {
    if percent {
        LatencySpec::RelaxPercent(rng.range(10, 50) as u32)
    } else {
        LatencySpec::RelaxSteps(rng.range(0, 8) as u32)
    }
}

/// One `sweep_small` request: [`SWEEP_CHUNK`] unique jobs over graphs of
/// one operation count, covering every shape × width profile × λ family.
/// Every fourth job (one per shape) carries `verify_rtl`.
pub fn sweep_chunk(seed: u64, chunk: u64, unique: &mut Unique) -> Vec<BatchJob> {
    let mut rng = Rng::new(seed, 1, chunk);
    let ops = rng.range(SWEEP_OPS.0 as u64, SWEEP_OPS.1 as u64) as usize;
    (0..SWEEP_CHUNK)
        .map(|j| {
            let shape = SHAPES[j % 4];
            let mixed = (j / 4) % 2 == 1;
            let percent = (j / 8) % 2 == 1;
            loop {
                let graph = small_graph(&mut rng, ops, shape, mixed);
                let job = BatchJob::new(
                    format!("sweep/{chunk}/{j}"),
                    graph,
                    sweep_latency(&mut rng, percent),
                )
                .with_rtl_check((j + j / 4) % 4 == 0);
                if unique.insert(&job) {
                    break job;
                }
            }
        })
        .collect()
}

/// One `scale_large` round: one Layered graph per size, each at every
/// slack, smallest first.
///
/// The rounds form a fixed suite that does not depend on the workload
/// seed: at 128 ops one graph's solve time varies by tens of percent with
/// its structure, and the few 128-op graphs a run can afford do not
/// average that out (seed-drawn graphs gave a 15–20% spread of
/// `graphs_per_s` across seeds).  The seed shuffles the job order instead
/// (see [`scale_suite`]).
#[must_use]
pub fn scale_round(round: u64) -> Vec<BatchJob> {
    let mut jobs = Vec::with_capacity(SCALE_OPS.len() * SCALE_SLACK.len());
    for (i, &ops) in SCALE_OPS.iter().enumerate() {
        let mut rng = Rng::new(0, 2, round * SCALE_OPS.len() as u64 + i as u64);
        let graph = TgffGenerator::new(TgffConfig::with_ops(ops), rng.next_u64()).generate();
        for &slack in &SCALE_SLACK {
            jobs.push(BatchJob::new(
                format!("scale/{round}/{ops}/{slack}"),
                graph.clone(),
                LatencySpec::RelaxSteps(slack),
            ));
        }
    }
    jobs
}

/// The first `rounds` rounds of the `scale_large` suite: the seed shuffles
/// the order of the rounds and of the jobs within each round, and each
/// round stays contiguous.
#[must_use]
pub fn scale_suite(seed: u64, rounds: u64) -> Vec<Vec<BatchJob>> {
    let mut rng = Rng::new(seed, 2, u64::MAX);
    let mut suite: Vec<Vec<BatchJob>> = (0..rounds).map(scale_round).collect();
    shuffle(&mut suite, &mut rng);
    for round in &mut suite {
        shuffle(round, &mut rng);
    }
    suite
}

fn shuffle<T>(items: &mut [T], rng: &mut Rng) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.range(0, i as u64) as usize);
    }
}

/// The request whose cost cache every `sweep_small` set-up builds: the
/// first request of a fixed seed.  A seed's own first request would make
/// `setup_s` vary with the widths that seed happened to draw.
#[must_use]
pub fn setup_request() -> Vec<BatchJob> {
    sweep_chunk(0x5E70, 0, &mut Unique::default())
}

/// The job every set-up repetition solves on a fresh scratch: a Layered
/// graph of `ops` operations.  It is the same for every seed — set-up is
/// the program's fixed cost, and a seed-drawn graph would make `setup_s`
/// vary with the seed's solve time.
#[must_use]
pub fn setup_job(ops: usize) -> BatchJob {
    let graph = TgffGenerator::new(TgffConfig::with_ops(ops), 0x5E70_u64).generate();
    BatchJob::new("setup", graph, LatencySpec::RelaxSteps(0))
}
