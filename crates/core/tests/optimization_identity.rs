//! Property tests pinning the optimized allocator to the frozen pre-PR
//! implementation ([`mwl_core::reference`]).
//!
//! The hot-path rewrite (scratch-reused dense tables, incremental
//! compatibility-graph and scheduling-set state, pruned merge candidates) is
//! only allowed to change *how fast* the answer is computed, never the
//! answer: across every TGFF `GraphShape`×`WidthProfile` family, with the
//! instance-merging pass on and off, the full [`AllocOutcome`] — datapath
//! area, schedule, binding, instance list, merge count, refinement and
//! escalation statistics, resource bounds — must be **bit-identical**, and
//! so must every error.  Reusing one `AllocScratch` across jobs must be
//! indistinguishable from using a fresh one per job.

use proptest::prelude::*;

use mwl_core::{reference, AllocConfig, AllocError, AllocOutcome, AllocScratch, DpAllocator};
use mwl_model::{CostModel, SequencingGraph, SonicCostModel};
use mwl_tgff::{GraphShape, TgffConfig, TgffGenerator, WidthProfile};

/// One allocation problem drawn from the full scenario space.
#[derive(Debug, Clone)]
struct Problem {
    graph: SequencingGraph,
    lambda_slack: u32,
    merging: bool,
}

fn problem_strategy() -> impl Strategy<Value = Problem> {
    (
        prop_oneof![
            Just(GraphShape::Layered),
            Just(GraphShape::Wide),
            Just(GraphShape::Deep),
            Just(GraphShape::Diamond),
        ],
        prop_oneof![
            Just(WidthProfile::Uniform),
            Just(WidthProfile::Mixed { high_fraction: 0.3 }),
            Just(WidthProfile::Mixed { high_fraction: 0.7 }),
        ],
        2usize..=16,
        0u64..=2000,
        0u32..=12,
        any::<bool>(),
    )
        .prop_map(|(shape, widths, ops, seed, lambda_slack, merging)| {
            let config = TgffConfig::with_ops(ops).shape(shape).width_profile(widths);
            Problem {
                graph: TgffGenerator::new(config, seed).generate(),
                lambda_slack,
                merging,
            }
        })
}

fn lambda_min(graph: &SequencingGraph, cost: &SonicCostModel) -> u32 {
    let native = mwl_sched::OpLatencies::from_fn(graph, |op| cost.native_latency(op.shape()));
    mwl_sched::critical_path_length(graph, &native)
}

fn solve_both(
    problem: &Problem,
    cost: &SonicCostModel,
    scratch: &mut AllocScratch,
) -> (
    Result<AllocOutcome, AllocError>,
    Result<AllocOutcome, AllocError>,
) {
    let lambda = lambda_min(&problem.graph, cost) + problem.lambda_slack;
    let config = AllocConfig::new(lambda).with_instance_merging(problem.merging);
    let optimized =
        DpAllocator::new(cost, config.clone()).allocate_with_scratch(&problem.graph, scratch);
    let frozen = reference::allocate_with_stats(cost, &config, &problem.graph);
    (optimized, frozen)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    /// The headline guarantee: optimized == frozen on arbitrary problems,
    /// including the full outcome statistics and validation of the result.
    #[test]
    fn optimized_allocator_is_bit_identical_to_reference(problem in problem_strategy()) {
        let cost = SonicCostModel::default();
        let mut scratch = AllocScratch::new();
        let (optimized, frozen) = solve_both(&problem, &cost, &mut scratch);
        prop_assert_eq!(&optimized, &frozen);
        if let Ok(outcome) = &optimized {
            outcome.datapath.validate(&problem.graph, &cost).unwrap();
        }
    }

    /// Scratch reuse across a whole job sequence changes nothing: solving
    /// every problem with one warm scratch equals solving each with a fresh
    /// scratch, and both equal the frozen reference.
    #[test]
    fn scratch_reuse_is_invisible(
        problems in proptest::collection::vec(problem_strategy(), 2..6)
    ) {
        let cost = SonicCostModel::default();
        let mut warm = AllocScratch::new();
        for problem in &problems {
            let (with_warm, frozen) = solve_both(problem, &cost, &mut warm);
            let (with_fresh, _) = solve_both(problem, &cost, &mut AllocScratch::new());
            prop_assert_eq!(&with_warm, &with_fresh);
            prop_assert_eq!(&with_warm, &frozen);
        }
    }
}

/// Infeasible inputs produce identical errors (absolute λ below the critical
/// path, user bounds too tight).
#[test]
fn errors_are_identical_too() {
    let cost = SonicCostModel::default();
    let mut generator = TgffGenerator::new(TgffConfig::with_ops(9), 77);
    let mut scratch = AllocScratch::new();
    for _ in 0..6 {
        let graph = generator.generate();
        let lmin = lambda_min(&graph, &cost);
        for config in [
            AllocConfig::new(lmin.saturating_sub(1)),
            AllocConfig::new(lmin).with_resource_bounds(std::collections::BTreeMap::from([(
                mwl_model::ResourceClass::Multiplier,
                1,
            )])),
        ] {
            let optimized =
                DpAllocator::new(&cost, config.clone()).allocate_with_scratch(&graph, &mut scratch);
            let frozen = reference::allocate_with_stats(&cost, &config, &graph);
            assert_eq!(optimized, frozen);
        }
    }
}

/// Graphs past one 64-bit word of operations take the multi-word paths:
/// the column-plane greedy scheduling-set cover (more than 64 coverable
/// items) and multi-word chain and clique masks.  Kept small enough to run
/// the frozen reference in a debug build.
#[test]
fn graphs_past_64_ops_are_identical_too() {
    let cost = SonicCostModel::default();
    let mut scratch = AllocScratch::new();
    for (ops, shape, seed, slack, merging) in [
        (66, GraphShape::Layered, 0, 30, false),
        (66, GraphShape::Deep, 0, 30, true),
        (66, GraphShape::Diamond, 0, 30, false),
        (66, GraphShape::Diamond, 2, 30, true),
        (96, GraphShape::Wide, 0, 100, true),
    ] {
        let config = TgffConfig::with_ops(ops).shape(shape);
        let problem = Problem {
            graph: TgffGenerator::new(config, seed).generate(),
            lambda_slack: slack,
            merging,
        };
        assert!(problem.graph.len() > 64);
        let (optimized, frozen) = solve_both(&problem, &cost, &mut scratch);
        assert_eq!(optimized, frozen, "{ops} ops, {shape:?}, seed {seed}");
        optimized
            .expect("the allocator solves every generated graph")
            .datapath
            .validate(&problem.graph, &cost)
            .unwrap();
    }
}
