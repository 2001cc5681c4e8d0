//! Dense-vs-sparse scheduling-set equivalence over realistic inputs.
//!
//! [`DenseSchedulingSetBound`] promises decision-for-decision (and
//! rounding-for-rounding) identity with the `BTreeMap`-backed
//! [`SchedulingSetBound`].  The unit tests in `mwl_sched` pin hand-built
//! corner cases; this suite derives the scheduling sets the way the
//! allocator does — from the wordlength compatibility graph of generated
//! problems across every `GraphShape` × `WidthProfile` family — and replays
//! probe/commit streams through both constraints.

use std::collections::BTreeMap;

use proptest::prelude::*;

use mwl_model::{ResourceClass, SonicCostModel};
use mwl_sched::{DenseSchedulingSetBound, ResourceConstraint, SchedulingSetBound};
use mwl_tgff::{GraphShape, TgffConfig, TgffGenerator, WidthProfile};
use mwl_wcg::WordlengthCompatibilityGraph;

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    /// Replaying the same probe/commit stream through the dense and sparse
    /// constraints yields identical admission decisions at every step —
    /// including `admissible_at_all` — for WCG-derived scheduling sets.
    #[test]
    fn dense_admits_matches_sparse_on_wcg_problems(
        shape in prop_oneof![
            Just(GraphShape::Layered),
            Just(GraphShape::Wide),
            Just(GraphShape::Deep),
            Just(GraphShape::Diamond),
        ],
        widths in prop_oneof![
            Just(WidthProfile::Uniform),
            Just(WidthProfile::Mixed { high_fraction: 0.3 }),
            Just(WidthProfile::Mixed { high_fraction: 0.7 }),
        ],
        ops in 1usize..=14,
        seed in 0u64..=2000,
        adder_bound in prop_oneof![Just(None), (0usize..=3).prop_map(Some)],
        mul_bound in prop_oneof![Just(None), (0usize..=3).prop_map(Some)],
    ) {
        let config = TgffConfig::with_ops(ops).shape(shape).width_profile(widths);
        let graph = TgffGenerator::new(config, seed).generate();
        let cost = SonicCostModel::default();
        let wcg = WordlengthCompatibilityGraph::new(&graph, &cost);

        // The allocator's construction: ops keyed by kind class, members are
        // the WCG resource types, rows are the compatibility candidates.
        let op_classes: Vec<ResourceClass> = graph
            .operations()
            .iter()
            .map(|o| ResourceClass::for_kind(o.kind()))
            .collect();
        let member_classes: Vec<ResourceClass> =
            wcg.resources().iter().map(|r| r.class()).collect();
        let op_members: Vec<Vec<usize>> = graph
            .op_ids()
            .map(|op| wcg.resources_for(op))
            .collect();

        let mut bounds = BTreeMap::new();
        let mut dense_bounds = [None; ResourceClass::COUNT];
        if let Some(b) = adder_bound {
            bounds.insert(ResourceClass::Adder, b);
            dense_bounds[ResourceClass::Adder.index()] = Some(b);
        }
        if let Some(b) = mul_bound {
            bounds.insert(ResourceClass::Multiplier, b);
            dense_bounds[ResourceClass::Multiplier.index()] = Some(b);
        }

        let mut sparse = SchedulingSetBound::new(
            op_classes.clone(),
            op_members.clone(),
            member_classes.clone(),
            bounds,
        );
        let mut dense = DenseSchedulingSetBound::new();
        dense.reset_problem(&op_classes, dense_bounds);
        dense.set_members(member_classes.iter().copied());
        for (i, row) in op_members.iter().enumerate() {
            dense.set_row(mwl_model::OpId::new(i as u32), row.iter().copied());
        }
        dense.reset_loads();

        for op in graph.op_ids() {
            let latency = wcg.upper_bound_latency(op).max(1);
            prop_assert_eq!(
                dense.admissible_at_all(op, latency),
                sparse.admissible_at_all(op, latency),
                "admissible_at_all diverged for {:?}",
                op
            );
            let mut committed = false;
            for step in 0..8u32 {
                let sparse_ok = sparse.admits(op, step, latency);
                prop_assert_eq!(
                    dense.admits(op, step, latency),
                    sparse_ok,
                    "admits diverged for {:?} at step {}",
                    op,
                    step
                );
                if sparse_ok && !committed {
                    sparse.commit(op, step, latency);
                    dense.commit(op, step, latency);
                    committed = true;
                    // Keep probing after the commit: the remaining steps
                    // exercise decisions against a non-trivial load profile.
                }
            }
        }
    }
}
