//! The benchmark's own checks: seeded inputs are deterministic, smoke-sized
//! runs of every workload pass their output checks, the reported metrics
//! match `BENCHMARK.json`, and the optimized allocator's datapath digests
//! equal the frozen reference allocator's.
//!
//! The reference-digest tests solve every job twice (once through the
//! reference, ~6x slower); run them with `cargo test --release`.

use std::collections::HashSet;

use mwl_benchmark::batch::{scale_large, scale_rounds, sweep_chunks, sweep_small};
use mwl_benchmark::check::{digest, reference_fingerprint, resolved_config};
use mwl_benchmark::inputs::{scale_suite, sweep_chunk, Unique, SWEEP_CHUNK};
use mwl_benchmark::{run, Workload};
use mwl_core::{graph_fingerprint, reference, AllocScratch, DpAllocator};
use mwl_driver::BatchJob;
use mwl_model::SonicCostModel;
use mwl_serve::job_key;

fn keys(jobs: &[BatchJob]) -> Vec<u64> {
    jobs.iter()
        .map(|j| job_key(&j.graph, &j.latency, &j.config, j.portfolio))
        .collect()
}

fn sweep_jobs(seed: u64, chunks: u64) -> Vec<BatchJob> {
    let mut unique = Unique::default();
    (0..chunks)
        .flat_map(|c| sweep_chunk(seed, c, &mut unique))
        .collect()
}

fn scale_jobs(seed: u64, rounds: u64) -> Vec<BatchJob> {
    scale_suite(seed, rounds).into_iter().flatten().collect()
}

/// Metric names of one section of `BENCHMARK.json`.
fn contract_names(section: &str) -> Vec<String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to the benchmark");
    let start = text
        .find(&format!("\"{section}\""))
        .expect("section present");
    let body = &text[start..];
    let body = &body[..body.find(']').expect("section is a list")];
    body.split("\"name\": \"")
        .skip(1)
        .map(|s| s[..s.find('"').expect("closing quote")].to_string())
        .collect()
}

#[test]
fn same_seed_same_inputs_and_different_seed_different_inputs() {
    assert_eq!(keys(&sweep_jobs(7, 3)), keys(&sweep_jobs(7, 3)));
    assert_ne!(keys(&sweep_jobs(7, 3)), keys(&sweep_jobs(8, 3)));

    assert_eq!(keys(&scale_jobs(7, 3)), keys(&scale_jobs(7, 3)));
    assert_ne!(keys(&scale_jobs(7, 3)), keys(&scale_jobs(8, 3)));
    // The scale suite is fixed; the seed only orders it.
    let set = |seed| {
        keys(&scale_jobs(seed, 3))
            .into_iter()
            .collect::<HashSet<_>>()
    };
    assert_eq!(set(7), set(8));
}

#[test]
fn sweep_jobs_never_repeat() {
    let jobs = sweep_jobs(3, 40);
    let distinct: HashSet<u64> = keys(&jobs).into_iter().collect();
    assert_eq!(distinct.len(), jobs.len());
    assert_eq!(jobs.iter().filter(|j| j.verify_rtl).count() * 4, jobs.len());
    let graphs: HashSet<u64> = jobs.iter().map(|j| graph_fingerprint(&j.graph)).collect();
    assert!(graphs.len() > jobs.len() * 9 / 10);
}

#[test]
fn smoke_runs_pass_their_checks_and_report_the_contract_metrics() {
    let end_to_end = contract_names("end_to_end");
    for (name, out) in [
        ("sweep_small", sweep_small(5, 0.2)),
        ("scale_large", scale_large(5, 0.1)),
    ] {
        assert!(out.correct, "{name}: {:?}", out.notes);
        assert_eq!(out.failed, 0, "{name}");
        assert_eq!(out.get("ok_frac"), Some(1.0), "{name}");
        let reported: Vec<&str> = out.metrics.iter().map(|m| m.name).collect();
        assert_eq!(reported, end_to_end, "{name}");
        assert!(
            out.metrics.iter().all(|m| m.value > 0.0),
            "{name}: {:?}",
            out.metrics
        );
        assert!(out
            .json()
            .starts_with("{\"correct\": true, \"attempted\": "));
    }
}

#[test]
fn traced_runs_report_every_per_layer_metric() {
    let per_layer = contract_names("per_layer");
    let dir = std::path::PathBuf::from(env!("CARGO_TARGET_TMPDIR"));
    for workload in Workload::ALL {
        let path = dir.join(format!("trace_{}.json", workload.name()));
        let out = run(workload, 9, 0.05, Some(&path)).expect("traced run");
        assert!(out.correct, "{}: {:?}", workload.name(), out.notes);
        let reported: Vec<&str> = out.metrics.iter().map(|m| m.name).collect();
        assert_eq!(reported, per_layer, "{}", workload.name());
        assert!(out.table.contains("unattributed"));
        let trace = std::fs::read_to_string(&path).expect("trace written");
        assert!(trace.starts_with("{\"displayTimeUnit\":\"ms\",\"traceEvents\":["));
        assert!(trace.contains("\"name\":\"core.alloc\""));
    }
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "solves every job through the slow reference; use --release"
)]
fn sweep_digest_equals_the_frozen_reference() {
    let (seed, seconds) = (11, 0.2);
    let out = sweep_small(seed, seconds);
    let cost = SonicCostModel::default();
    let reference: Vec<u64> = sweep_jobs(seed, sweep_chunks(seconds))
        .iter()
        .map(|job| reference_fingerprint(job, &cost).expect("reference solves"))
        .collect();
    assert_eq!(out.digest, digest(reference));
}

/// Fails at the commit that added it: on the 96- and 128-op graphs the
/// frozen reference returns `InfeasibleResourceBounds` while `DpAllocator`
/// returns a valid datapath, so the two allocators are not bit-identical
/// beyond the sizes the identity suites cover.
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "solves every job through the slow reference; use --release"
)]
fn scale_digest_equals_the_frozen_reference() {
    let (seed, seconds) = (11, 0.1);
    let out = scale_large(seed, seconds);
    let cost = SonicCostModel::default();
    let reference: Vec<u64> = scale_jobs(seed, scale_rounds(seconds))
        .iter()
        .map(|job| reference_fingerprint(job, &cost).expect("reference solves"))
        .collect();
    assert_eq!(out.digest, digest(reference));
}

/// Fails until the program is fixed: these `sweep_small` jobs are the ones
/// found where `DpAllocator` and the frozen reference return different
/// datapaths.  On each, `mwl_sched::scheduling_set_with_scratch` counts
/// emptied trailing resource rows against the exact-cover candidate limit,
/// which the reference's `scheduling_set` does not, and so picks the
/// greedy cover where the reference picks the exact one.
#[test]
fn sweep_counterexamples_equal_the_frozen_reference() {
    let cost = SonicCostModel::default();
    for (seed, chunk, index) in [
        (1_264_528_344, 322, 0),
        (1_264_528_344, 1571, 5),
        (1_264_528_344, 1883, 2),
        (1, 1040, 10),
    ] {
        let jobs = sweep_jobs(seed, chunk + 1);
        let job = &jobs[chunk as usize * SWEEP_CHUNK + index];
        assert_eq!(job.label, format!("sweep/{chunk}/{index}"));
        let config = resolved_config(job, &cost);
        let optimized = DpAllocator::new(&cost, config.clone())
            .allocate_with_scratch(&job.graph, &mut AllocScratch::new());
        let frozen = reference::allocate_with_stats(&cost, &config, &job.graph);
        assert_eq!(optimized, frozen, "seed {seed}, {}", job.label);
    }
}
