//! Output checks.  They run after the measured part of a run, outside
//! every timer.
//!
//! `solve_job` reports statistics but not the datapath itself, so each
//! check replays the job's allocation through `DpAllocator` (or the
//! portfolio) to get the datapath, validates it, and requires every
//! statistic the program reported to match the replay.

use std::cell::RefCell;
use std::thread;

use mwl_core::{
    datapath_fingerprint, reference, run_portfolio_with_scratch, AllocConfig, AllocOutcome,
    AllocScratch, DpAllocator, StableHasher,
};
use mwl_driver::{BatchJob, JobStats};
use mwl_model::CostModel;

/// Worker threads used by the checks.
#[must_use]
pub fn nproc() -> usize {
    thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Maps `f` over `items` on up to [`nproc`] scoped threads, keeping order.
pub fn par_map<T: Sync, R: Send>(items: &[T], f: impl Fn(usize, &T) -> R + Sync) -> Vec<R> {
    let workers = nproc().min(items.len()).max(1);
    let per = items.len().div_ceil(workers).max(1);
    let f = &f;
    thread::scope(|scope| {
        let handles: Vec<_> = items
            .chunks(per)
            .enumerate()
            .map(|(c, chunk)| {
                scope.spawn(move || {
                    chunk
                        .iter()
                        .enumerate()
                        .map(|(i, item)| f(c * per + i, item))
                        .collect::<Vec<R>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("check worker panicked"))
            .collect()
    })
}

/// The job's allocator configuration with its λ resolved.
#[must_use]
pub fn resolved_config(job: &BatchJob, cost: &dyn CostModel) -> AllocConfig {
    let mut config = job.config.clone();
    config.latency_constraint = job.latency.resolve(&job.graph, cost);
    config
}

/// Replays the job's allocation (the portfolio winner for a portfolio
/// job).
///
/// # Errors
///
/// The allocation error, rendered.
pub fn replay(job: &BatchJob, cost: &(dyn CostModel + Sync)) -> Result<AllocOutcome, String> {
    thread_local! {
        // Results do not depend on what a scratch solved before.
        static SCRATCH: RefCell<AllocScratch> = RefCell::new(AllocScratch::new());
    }
    let config = resolved_config(job, cost);
    SCRATCH.with_borrow_mut(|scratch| match job.portfolio {
        Some(spec) => run_portfolio_with_scratch(cost, &job.graph, &config, spec, 1, scratch)
            .map(|p| p.best)
            .map_err(|e| e.to_string()),
        None => DpAllocator::new(cost, config)
            .allocate_with_scratch(&job.graph, scratch)
            .map_err(|e| e.to_string()),
    })
}

/// Checks one reported job result: the replayed datapath validates, its
/// area, latency, instance count and loop counters equal the report, and
/// an RTL check, if the job asked for one, passed.  Returns the datapath fingerprint.
///
/// # Errors
///
/// What was wrong.
pub fn check_job(
    job: &BatchJob,
    stats: &JobStats,
    cost: &(dyn CostModel + Sync),
) -> Result<u64, String> {
    let outcome = replay(job, cost)?;
    let datapath = &outcome.datapath;
    datapath
        .validate(&job.graph, cost)
        .map_err(|e| format!("{}: invalid datapath: {e}", job.label))?;
    let replayed = (
        datapath.area(),
        datapath.latency(),
        datapath.num_instances(),
        outcome.refinements,
        outcome.bound_escalations,
        outcome.merges,
    );
    let reported = (
        stats.area,
        stats.latency,
        stats.instances,
        stats.refinements,
        stats.bound_escalations,
        stats.merges,
    );
    if replayed != reported {
        return Err(format!(
            "{}: reported stats differ from the replay",
            job.label
        ));
    }
    if job.verify_rtl && !stats.rtl.as_ref().is_some_and(|r| r.passed) {
        return Err(format!("{}: RTL equivalence check failed", job.label));
    }
    Ok(datapath_fingerprint(datapath))
}

/// The datapath fingerprint of the frozen reference allocator on a plain
/// (non-portfolio) job.
///
/// # Errors
///
/// The allocation error, rendered.
pub fn reference_fingerprint(job: &BatchJob, cost: &dyn CostModel) -> Result<u64, String> {
    let config = resolved_config(job, cost);
    reference::allocate_with_stats(cost, &config, &job.graph)
        .map(|o| datapath_fingerprint(&o.datapath))
        .map_err(|e| e.to_string())
}

/// An order-sensitive digest of fingerprints.
#[must_use]
pub fn digest(fingerprints: impl IntoIterator<Item = u64>) -> u64 {
    let mut h = StableHasher::new();
    for f in fingerprints {
        h.write_u64(f);
    }
    h.finish()
}
