//! The two batch workloads.
//!
//! * `sweep_small` streams small design-space sweep requests — 16 unique
//!   jobs of 6–24 ops each — through `run_batch` at one worker.  Per-job
//!   fixed costs (cost cache, λ resolve, WCG rebuild, storage binding,
//!   driver residual, RTL) are a large share of the time here.
//! * `scale_large` solves Layered graphs of 32–128 ops one at a time
//!   through `solve_job` with one persistent scratch; bind and schedule
//!   dominate, and the fitted size exponent is the curve an incremental
//!   re-scheduling change has to bend.
//!
//! The amount of work, traced or not, is fixed by the seed and `--seconds`
//! (through a rate calibrated on a 2-CPU host), never by the clock, so two
//! commits always solve the same jobs and report comparable totals.

use std::hint::black_box;
use std::time::Instant;

use mwl_core::{AllocScratch, PortfolioSpec};
use mwl_driver::{
    batch_cache, run_batch, run_batch_traced, solve_job, BatchJob, BatchOptions, JobOutcome,
};
use mwl_model::{CostModel, SonicCostModel};
use mwl_obs::{ObsMode, TraceSink};

use crate::check::{check_job, digest, nproc, par_map, reference_fingerprint};
use crate::inputs::{
    scale_round, scale_suite, setup_job, setup_request, sweep_chunk, Unique, PORTFOLIO_VARIANTS,
    SCALE_OPS, SWEEP_CHUNK, SWEEP_OPS,
};
use crate::layers::Layers;
use crate::report::Outcome;
use crate::serve::serve_probe;
use crate::stats::{log_log_slope, median, peak_rss_mb};

/// Set-up samples per run; `setup_s` is their median.
const SETUP_REPS: usize = 15;
/// Back-to-back set-ups timed as one sample, so a sample is long enough
/// that timer and scheduler noise stay small beside it.
const SETUPS_PER_SAMPLE: usize = 8;
/// Stimulus vectors per RTL-checked job (`BatchOptions`' default).
const RTL_VECTORS: usize = 4;
/// `sweep_small` requests per second of `--seconds` (about 2000 graphs/s
/// on a 2-CPU host).
const SWEEP_CHUNKS_PER_S: f64 = 125.0;
/// Seconds of `--seconds` per `scale_large` round (8 jobs, ~2.6 s on a
/// 2-CPU host).
const SCALE_ROUND_S: f64 = 2.5;
/// Share of an untraced run's work that a traced run of the same
/// `--seconds` does: a traced job is solved several times over (untraced,
/// traced, replayed), so this keeps the traced run about as long.
const TRACED_SHARE: f64 = 0.3;
/// One in this many `sweep_small` jobs is also solved by the frozen
/// reference allocator, whose fingerprint must match.
const SWEEP_REFERENCE_EVERY: usize = 16;
/// `scale_large` jobs up to this size are also solved by the frozen
/// reference allocator.
const SCALE_REFERENCE_OPS: usize = 32;
/// Equal segments of a `sweep_small` run whose median throughput is its
/// `graphs_per_s`.
const SEGMENTS: usize = 10;
/// `sweep_small` jobs whose output checks run together (outside the
/// timers), so the check threads are started once per this many jobs.
const CHECK_BATCH: usize = 512;
/// Jobs of a traced run that also take the loopback serve round trip.
const PROBE_JOBS: usize = 64;
/// `sweep_small` requests whose program-side trace events are kept; a full
/// traced run would write ~30 MB of them.
const TRACED_EVENT_CHUNKS: u64 = 16;

/// `sweep_small` requests in a run of `seconds`.
#[must_use]
pub fn sweep_chunks(seconds: f64) -> u64 {
    ((seconds * SWEEP_CHUNKS_PER_S).round() as u64).max(1)
}

/// `scale_large` rounds in a run of `seconds`.
#[must_use]
pub fn scale_rounds(seconds: f64) -> u64 {
    ((seconds / SCALE_ROUND_S).round() as u64).max(1)
}

/// Set-up samples, spread evenly over a run (outside every timer) so that
/// a slow stretch of the run cannot decide them.  Each sample also times a
/// fixed loop that uses no code of the repository; its median is printed
/// as a host-speed note and scales nothing.
struct Setups<'a> {
    first: &'a [BatchJob],
    warm: BatchJob,
    every: usize,
    samples: Vec<f64>,
    host: Vec<f64>,
}

impl<'a> Setups<'a> {
    /// Samples for a run of `units` timed units; a set-up is the cost-cache
    /// build for the first request, `first`, plus a fresh scratch's first
    /// solve of `warm`.
    fn new(first: &'a [BatchJob], warm: BatchJob, units: usize) -> Self {
        Setups {
            first,
            warm,
            every: (units / SETUP_REPS).max(1),
            samples: Vec::with_capacity(SETUP_REPS),
            host: Vec::with_capacity(SETUP_REPS),
        }
    }

    /// Measures one sample before timed unit `unit` when one is due there.
    fn before(&mut self, unit: usize, cost: &(dyn CostModel + Sync)) {
        if !unit.is_multiple_of(self.every) || self.samples.len() == SETUP_REPS {
            return;
        }
        let start = Instant::now();
        for _ in 0..SETUPS_PER_SAMPLE {
            let mut cache = batch_cache(cost, self.first);
            cache.warm_graph(&self.warm.graph);
            let mut scratch = AllocScratch::new();
            black_box(solve_job(0, &self.warm, &cache, RTL_VECTORS, &mut scratch));
        }
        self.samples
            .push(start.elapsed().as_secs_f64() / SETUPS_PER_SAMPLE as f64);
        self.host.push(host_loop_s());
    }

    /// The median set-up.
    fn setup_s(&self) -> f64 {
        median(&self.samples)
    }
}

/// Times a fixed integer loop (SplitMix64 steps) that touches no code of
/// the repository: a host-speed reference for the notes.
fn host_loop_s() -> f64 {
    let start = Instant::now();
    let mut x = black_box(0u64);
    for _ in 0..(1 << 20) {
        x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = x;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x ^= z ^ (z >> 31);
    }
    black_box(x);
    start.elapsed().as_secs_f64()
}

/// Output checks, run outside the timers: every job solved, every
/// datapath replays, validates and matches its report, and the jobs
/// `reference` selects match the frozen reference allocator.
#[derive(Debug, Default)]
struct Checked {
    jobs: u64,
    failed: u64,
    fingerprints: Vec<u64>,
    area: u64,
}

impl Checked {
    fn add(
        &mut self,
        jobs: &[BatchJob],
        outcomes: &[&JobOutcome],
        cost: &(dyn CostModel + Sync),
        reference: impl Fn(usize, &BatchJob) -> bool + Sync,
        out: &mut Outcome,
    ) {
        let pairs: Vec<_> = jobs.iter().zip(outcomes).collect();
        let results = par_map(&pairs, |i, (job, outcome)| {
            let stats = outcome
                .result
                .as_ref()
                .map_err(|e| format!("{}: {e}", job.label))?;
            let fingerprint = check_job(job, stats, cost)?;
            if reference(i, job) && reference_fingerprint(job, cost)? != fingerprint {
                return Err(format!("{}: differs from the frozen reference", job.label));
            }
            Ok((fingerprint, stats.area_breakdown.fu))
        });
        for r in results {
            self.jobs += 1;
            match r {
                Ok((fingerprint, area)) => {
                    self.fingerprints.push(fingerprint);
                    self.area += area;
                }
                Err(e) => {
                    self.failed += 1;
                    if self.failed <= 5 {
                        out.note(format!("CHECK FAILED: {e}"));
                    }
                }
            }
        }
    }

    /// Fills the result fields and the metrics every batch run shares.
    fn report(&self, out: &mut Outcome, setups: &Setups, graphs_per_s: f64, sized: &[(f64, f64)]) {
        out.correct = self.failed == 0;
        out.attempted = self.jobs;
        out.failed = self.failed;
        out.digest = digest(self.fingerprints.iter().copied());
        out.note(format!(
            "setup_s: median of {} samples of {SETUPS_PER_SAMPLE} back-to-back set-ups; \
             host speed note: a fixed 2^20-step integer loop took {:.3} ms (median of {})",
            setups.samples.len(),
            median(&setups.host) * 1e3,
            setups.host.len()
        ));
        out.metric("setup_s", setups.setup_s(), "s");
        out.metric("graphs_per_s", graphs_per_s, "1/s");
        out.metric("scaling_exponent", log_log_slope(sized), "1");
        out.metric("fu_area_total", self.area as f64, "area");
        out.metric(
            "ok_frac",
            1.0 - self.failed as f64 / self.jobs as f64,
            "ratio",
        );
        out.metric("peak_rss_mb", peak_rss_mb(), "MiB");
    }
}

/// `sweep_small`, untraced: the end-to-end metrics.
#[must_use]
pub fn sweep_small(seed: u64, seconds: f64) -> Outcome {
    let cost = SonicCostModel::default();
    let mut unique = Unique::default();
    let mut out = Outcome::default();
    let chunks = sweep_chunks(seconds);
    let setup_first = setup_request();
    let mut setups = Setups::new(&setup_first, setup_job(SWEEP_OPS.1), chunks as usize);

    let options = BatchOptions::sequential();
    let mut checked = Checked::default();
    let mut timed = 0.0;
    let mut sized = Vec::new();
    let mut pending: Vec<(BatchJob, JobOutcome)> = Vec::new();
    let mut check = |pending: &mut Vec<(BatchJob, JobOutcome)>, out: &mut Outcome| {
        let (jobs, outcomes): (Vec<BatchJob>, Vec<JobOutcome>) = pending.drain(..).unzip();
        let outcomes: Vec<&JobOutcome> = outcomes.iter().collect();
        let offset = checked.jobs as usize;
        checked.add(
            &jobs,
            &outcomes,
            &cost,
            |i, _| (offset + i).is_multiple_of(SWEEP_REFERENCE_EVERY),
            out,
        );
    };
    for chunk in 0..chunks {
        let jobs = sweep_chunk(seed, chunk, &mut unique);
        setups.before(chunk as usize, &cost);
        let start = Instant::now();
        let report = run_batch(&jobs, &cost, &options);
        let elapsed = start.elapsed().as_secs_f64();
        timed += elapsed;
        // Each request's graphs share one size: its time per job is one
        // point of the size curve.
        sized.push((jobs[0].graph.len() as f64, elapsed / jobs.len() as f64));
        pending.extend(jobs.into_iter().zip(report.outcomes));
        if pending.len() >= CHECK_BATCH {
            check(&mut pending, &mut out);
        }
    }
    check(&mut pending, &mut out);

    // Jobs per second over each tenth of the run; the median tenth stands
    // for the run, so a host stall covering a few tenths does not.
    let per = sized.len().div_ceil(SEGMENTS).max(1);
    let rates: Vec<f64> = sized
        .chunks(per)
        .map(|segment| segment.len() as f64 / segment.iter().map(|s| s.1).sum::<f64>())
        .collect();
    checked.report(&mut out, &setups, median(&rates), &sized);
    out.note(format!(
        "sweep_small: {} unique jobs in {chunks} run_batch requests of {SWEEP_CHUNK}, {timed:.3} s measured \
         ({:.1} jobs/s over the whole run; graphs_per_s is the median of {} segments); \
         1 in {SWEEP_REFERENCE_EVERY} jobs checked against the frozen reference",
        checked.jobs,
        checked.jobs as f64 / timed,
        rates.len()
    ));
    out
}

/// `scale_large`, untraced: the end-to-end metrics.
#[must_use]
pub fn scale_large(seed: u64, seconds: f64) -> Outcome {
    let cost = SonicCostModel::default();
    let mut out = Outcome::default();
    let rounds = scale_rounds(seconds);
    let suite = scale_suite(seed, rounds);
    let round_len = suite[0].len();
    let jobs: Vec<BatchJob> = suite.into_iter().flatten().collect();
    let mut setups = Setups::new(&jobs, setup_job(SCALE_OPS[0]), jobs.len());

    let cache = batch_cache(&cost, &jobs);
    let mut scratch = AllocScratch::new();
    let mut solved = Vec::with_capacity(jobs.len());
    for (i, job) in jobs.iter().enumerate() {
        setups.before(i, &cost);
        let start = Instant::now();
        let outcome = solve_job(i, job, &cache, RTL_VECTORS, &mut scratch);
        solved.push((outcome, start.elapsed().as_secs_f64()));
    }
    let timed: f64 = solved.iter().map(|s| s.1).sum();

    // The frozen reference is ~6x slower, and slower still as graphs grow:
    // a run can afford it on the 32-op jobs only.  (On 96- and 128-op
    // graphs it also fails outright while DpAllocator solves them; the test
    // suite's reference digest shows it.)
    let mut checked = Checked::default();
    let outcomes: Vec<&JobOutcome> = solved.iter().map(|s| &s.0).collect();
    checked.add(
        &jobs,
        &outcomes,
        &cost,
        |_, job| job.graph.len() <= SCALE_REFERENCE_OPS,
        &mut out,
    );
    let sized: Vec<(f64, f64)> = jobs
        .iter()
        .zip(&solved)
        .map(|(job, s)| (job.graph.len() as f64, s.1))
        .collect();
    // Jobs per second of each round (every round holds every size); the
    // median round stands for the run, so a host stall covering a few
    // rounds does not.
    let rates: Vec<f64> = solved
        .chunks(round_len)
        .map(|round| round.len() as f64 / round.iter().map(|s| s.1).sum::<f64>())
        .collect();
    checked.report(&mut out, &setups, median(&rates), &sized);
    out.note(format!(
        "scale_large: {} jobs ({rounds} rounds of the fixed suite), {timed:.3} s measured \
         ({:.3} jobs/s over the whole run; graphs_per_s is the median round); \
         jobs up to {SCALE_REFERENCE_OPS} ops checked against the frozen reference",
        checked.jobs,
        checked.jobs as f64 / timed
    ));
    out
}

/// `sweep_small`, traced: the per-layer metrics over the first
/// [`TRACED_SHARE`] of the untraced run's requests.
#[must_use]
pub fn sweep_small_traced(seed: u64, seconds: f64) -> (Outcome, Layers) {
    let cost = SonicCostModel::default();
    let mut unique = Unique::default();
    let mut layers = Layers::new();
    let options = BatchOptions::sequential();
    let traced_options = options.clone().with_obs(ObsMode::Trace);
    let chunks = sweep_chunks(seconds * TRACED_SHARE);
    let mut probe: Vec<BatchJob> = Vec::new();
    let mut failed = 0u64;
    let mut attempted = 0u64;
    for chunk in 0..chunks {
        let jobs = sweep_chunk(seed, chunk, &mut unique);
        // Untraced and traced run_batch over the same jobs, alternating
        // which goes first.
        let mut untraced = 0.0;
        let mut traced = (0.0, None);
        for pass in 0..2 {
            if (pass + chunk).is_multiple_of(2) {
                let t = Instant::now();
                black_box(run_batch(&jobs, &cost, &options));
                untraced = t.elapsed().as_nanos() as f64;
            } else {
                let sink = TraceSink::new();
                let span = layers.spans.open("driver.run_batch", None, chunk);
                let report = run_batch_traced(&jobs, &cost, &traced_options, Some(&sink));
                let ns = layers.spans.close(span) as f64;
                if chunk < TRACED_EVENT_CHUNKS {
                    let offset = layers.spans.start_ns(span);
                    layers
                        .events
                        .extend(sink.snapshot().into_iter().map(|mut e| {
                            e.ts_ns += offset;
                            e
                        }));
                }
                traced = (ns, Some((span, report)));
            }
        }
        let (batch_ns, Some((batch_span, report))) = traced else {
            unreachable!("both passes ran")
        };
        layers.overhead_ns.0 += untraced;
        layers.overhead_ns.1 += batch_ns;

        let (cache, cache_ns) =
            layers
                .spans
                .time("core.cost_cache_build", Some(batch_span), chunk, || {
                    batch_cache(&cost, &jobs)
                });
        layers.cache_build_ns.push(cache_ns as f64);
        let mut solves = 0.0;
        for (j, job) in jobs.iter().enumerate() {
            let index = chunk as usize * SWEEP_CHUNK + j;
            solves += layers.replay_job(index, job, &cache, RTL_VECTORS, false, Some(batch_span));
        }
        layers.cache_misses += cache.misses();
        layers.batches.push((batch_ns, cache_ns as f64, solves));
        // The portfolio tier: sweep jobs do not race, so every eighth
        // request replays one of its jobs as a portfolio.
        if chunk.is_multiple_of(8) {
            let job = jobs[1]
                .clone()
                .with_portfolio(PortfolioSpec::new(seed ^ chunk, PORTFOLIO_VARIANTS));
            layers.replay_job(
                chunk as usize * SWEEP_CHUNK + 1,
                &job,
                &cache,
                RTL_VECTORS,
                false,
                None,
            );
        }
        attempted += jobs.len() as u64;
        failed += report.outcomes.iter().filter(|o| o.result.is_err()).count() as u64;
        if probe.len() < PROBE_JOBS {
            probe.extend(jobs.iter().cloned());
        }
    }
    probe.truncate(PROBE_JOBS);
    let probe_failed = serve_probe(&probe, &mut layers);
    finish_traced(layers, attempted, failed + probe_failed, chunks as usize)
}

/// `scale_large`, traced: the per-layer metrics over the first
/// [`TRACED_SHARE`] of the untraced run's rounds (in suite order).
#[must_use]
pub fn scale_large_traced(seed: u64, seconds: f64) -> (Outcome, Layers) {
    let cost = SonicCostModel::default();
    let mut layers = Layers::new();
    let rounds = scale_rounds(seconds * TRACED_SHARE);
    let mut probe = Vec::new();
    for round in 0..rounds {
        let jobs = scale_round(round);
        let (cache, cache_ns) = layers.spans.time("core.cost_cache_build", None, round, || {
            batch_cache(&cost, &jobs)
        });
        layers.cache_build_ns.push(cache_ns as f64);
        for (i, job) in jobs.iter().enumerate() {
            let index = round as usize * jobs.len() + i;
            layers.overhead_pair(index, job, &cache, RTL_VECTORS);
            // scale_large jobs do not ask for the RTL tier, so the replay
            // runs it on every job.
            layers.replay_job(index, job, &cache, RTL_VECTORS, true, None);
        }
        let job = jobs[1]
            .clone()
            .with_portfolio(PortfolioSpec::new(seed ^ round, PORTFOLIO_VARIANTS));
        layers.replay_job(
            round as usize * jobs.len() + 1,
            &job,
            &cache,
            RTL_VECTORS,
            false,
            None,
        );
        layers.cache_misses += cache.misses();
        if round == 0 {
            probe = jobs[..4].to_vec();
        }
    }
    let attempted = layers.jobs.len() as u64;
    let probe_failed = serve_probe(&probe, &mut layers);
    finish_traced(layers, attempted, probe_failed, rounds as usize)
}

/// Emits the per-layer metrics and the run's verdict.
fn finish_traced(layers: Layers, attempted: u64, failed: u64, units: usize) -> (Outcome, Layers) {
    let mut out = Outcome::default();
    layers.emit(&mut out);
    for e in layers.errors.iter().take(5) {
        out.note(format!("CHECK FAILED: {e}"));
    }
    out.correct = layers.errors.is_empty() && failed == 0;
    out.attempted = attempted;
    out.failed = failed + layers.errors.len() as u64;
    out.note(format!(
        "traced: {units} units, {} spans, {} program trace events, nproc = {}",
        layers.spans.len(),
        layers.events.len(),
        nproc()
    ));
    out.note(format!(
        "percentile samples: core.alloc_ms and driver.solve_job_us over {} replayed jobs, \
         core.portfolio_ms over {} portfolio replays, serve.* and loadgen.lag_ms over {} serve requests",
        layers.jobs.len(),
        layers.portfolio.len(),
        layers.serve.requests
    ));
    (out, layers)
}
