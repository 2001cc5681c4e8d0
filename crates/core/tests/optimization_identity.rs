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
//! indistinguishable from using a fresh one per job.  Jobs that escalate
//! their resource bounds are pinned separately, because the optimized loop
//! replays certified passes across escalations where the reference
//! restarts refinement from scratch.

use proptest::prelude::*;

use mwl_core::{
    reference, AllocConfig, AllocError, AllocOutcome, AllocScratch, DpAllocator, RefinementPolicy,
};
use mwl_model::{CostModel, SequencingGraph, SonicCostModel};
use mwl_sched::SchedulePriority;
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

/// Deterministic draws for the escalation cases (splitmix64).
fn draw(state: &mut u64, bound: u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    (z ^ (z >> 31)) % bound
}

/// Near-λ_min problems escalate their bounds round after round, so most of
/// their passes are replayed rather than computed.  Every scheduling
/// priority × refinement policy × clique-growth setting must still match the
/// frozen reference, and enough cases must escalate at least twice for the
/// comparison to cover replays of replayed passes.
#[test]
fn escalating_problems_are_identical_across_configurations() {
    let cost = SonicCostModel::default();
    let shapes = [
        GraphShape::Layered,
        GraphShape::Wide,
        GraphShape::Deep,
        GraphShape::Diamond,
    ];
    let mut state = 0x5eed_u64;
    let mut scratch = AllocScratch::new();
    let mut cases = 0usize;
    let mut escalating_twice = 0usize;
    for priority in [SchedulePriority::CriticalPath, SchedulePriority::InputOrder] {
        for refinement in [
            RefinementPolicy::BoundCriticalPath,
            RefinementPolicy::FirstRefinable,
        ] {
            for grow_cliques in [true, false] {
                for _ in 0..3 {
                    let ops = 12 + draw(&mut state, 29) as usize;
                    let shape = shapes[draw(&mut state, 4) as usize];
                    let seed = draw(&mut state, 10_000);
                    let slack = draw(&mut state, 4) as u32;
                    let merging = draw(&mut state, 2) == 1;
                    let graph =
                        TgffGenerator::new(TgffConfig::with_ops(ops).shape(shape), seed).generate();
                    let config = AllocConfig::new(lambda_min(&graph, &cost) + slack)
                        .with_priority(priority)
                        .with_refinement(refinement)
                        .with_clique_growth(grow_cliques)
                        .with_instance_merging(merging);
                    let optimized = DpAllocator::new(&cost, config.clone())
                        .allocate_with_scratch(&graph, &mut scratch);
                    let frozen = reference::allocate_with_stats(&cost, &config, &graph);
                    assert_eq!(
                        optimized, frozen,
                        "{ops} ops, {shape:?}, seed {seed}, slack {slack}, {priority:?}, \
                         {refinement:?}, grow {grow_cliques}, merging {merging}"
                    );
                    cases += 1;
                    if optimized.is_ok_and(|o| o.bound_escalations >= 2) {
                        escalating_twice += 1;
                    }
                }
            }
        }
    }
    assert!(
        escalating_twice * 2 >= cases,
        "only {escalating_twice} of {cases} cases escalated twice or more"
    );
}

/// Replayed passes count against the per-round iteration budget: an
/// escalating job under small budgets fails (or succeeds) exactly where the
/// reference does, with the same `IterationBudgetExceeded` error.  Each
/// budget that fails is checked to fail after an escalation — the first
/// round alone (user bounds of one unit per class) fits in it — so the
/// failing round replays passes of the round before.
#[test]
fn iteration_budgets_hold_across_replayed_passes() {
    let cost = SonicCostModel::default();
    let graph =
        TgffGenerator::new(TgffConfig::with_ops(24).shape(GraphShape::Layered), 1).generate();
    let one_each: std::collections::BTreeMap<_, _> = mwl_model::ResourceClass::ALL
        .iter()
        .map(|&class| (class, 1))
        .collect();
    let mut scratch = AllocScratch::new();
    let (mut exceeded, mut solved) = (0usize, 0usize);
    for budget in [3, 5, 8, 12, 17, 23, 29, 40, 60] {
        let mut config = AllocConfig::new(lambda_min(&graph, &cost));
        config.max_iterations = budget;
        let optimized =
            DpAllocator::new(&cost, config.clone()).allocate_with_scratch(&graph, &mut scratch);
        let frozen = reference::allocate_with_stats(&cost, &config, &graph);
        assert_eq!(optimized, frozen, "budget {budget}");
        match optimized {
            Err(AllocError::IterationBudgetExceeded { budget: b }) => {
                assert_eq!(b, budget);
                let first_round =
                    DpAllocator::new(&cost, config.clone().with_resource_bounds(one_each.clone()))
                        .allocate_with_scratch(&graph, &mut scratch);
                assert!(
                    matches!(
                        first_round,
                        Err(AllocError::InfeasibleResourceBounds { .. })
                    ),
                    "budget {budget}: the first round already fails with {first_round:?}"
                );
                exceeded += 1;
            }
            Ok(outcome) => {
                assert!(outcome.bound_escalations >= 3);
                solved += 1;
            }
            Err(e) => panic!("budget {budget}: unexpected error {e}"),
        }
    }
    assert!(
        exceeded >= 5 && solved > 0,
        "{exceeded} exceeded, {solved} solved"
    );
}
