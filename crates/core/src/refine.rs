//! Wordlength-information refinement (Section 2.4).
//!
//! When the scheduled and bound solution violates the user's latency
//! constraint, the allocator must lower some operation's latency upper bound
//! `L_o` by deleting its slowest compatible resource types from the
//! wordlength compatibility graph.  The operation is chosen from the
//! **bound critical path** `Q_b`: the critical path of the sequencing graph
//! augmented with *binding* edges `S_b` that serialise operations sharing a
//! resource instance back-to-back.  Among the candidates that can still
//! finish before the constraint, the one losing the smallest proportion of
//! wordlength edges is refined, with ties broken in favour of operations
//! already bound to a resource faster than their upper bound.

use mwl_model::{Cycles, OpId, SequencingGraph};
use mwl_sched::{OpLatencies, Schedule};
use mwl_wcg::WordlengthCompatibilityGraph;

/// Reusable buffers of the refinement rule: the bound operations grouped by
/// instance, each operation's binding successors, the ASAP/ALAP tables of the
/// bound critical path, and the candidate lists of the selection rule.  One
/// lives in each [`crate::AllocScratch`], so the once-per-iteration
/// refinement selection is allocation-free in the steady state.
#[derive(Debug, Default)]
pub(crate) struct RefineScratch {
    /// Counting-sort offsets: instance `k`'s group is
    /// `by_instance[group_start[k]..group_start[k + 1]]`.
    group_start: Vec<u32>,
    /// Bound operations grouped by instance, each group in ascending start
    /// order.
    by_instance: Vec<u32>,
    /// Binding successors of each operation, as a range of `by_instance` —
    /// the per-pass CSR of the `S_b` edges.
    binding_succ: Vec<(u32, u32)>,
    asap: Vec<Cycles>,
    alap_end: Vec<Cycles>,
    critical: Vec<OpId>,
    candidates: Vec<OpId>,
    /// Deletion proportion per entry of `candidates`.
    proportions: Vec<f64>,
}

/// Computes the bound critical path `Q_b`.
///
/// The sequencing edges are augmented with `S_b = {(o1, o2) : start(o1) +
/// ℓ(o1) = start(o2) and o1, o2 bound to the same instance}`; the returned
/// operations are those with equal ASAP and ALAP times on the augmented graph
/// under the bound latencies `ℓ(o)` — i.e. the operations whose latency
/// directly determines the achieved overall latency.
///
/// `binding[i]` is the resource-instance index of operation `i`
/// (`usize::MAX`: unbound).  The schedule must respect the graph under
/// latencies of at least one cycle and every bound latency must be at least
/// one cycle, as every allocator schedule and binding does: then both edge
/// kinds strictly increase the start time (see
/// [`bound_critical_path_into`]).
///
/// # Panics
///
/// Panics if a sequencing edge does not strictly increase the start time or
/// a bound latency is zero.
#[must_use]
pub fn bound_critical_path(
    graph: &SequencingGraph,
    schedule: &Schedule,
    bound_latencies: &OpLatencies,
    binding: &[usize],
) -> Vec<OpId> {
    let mut scratch = RefineScratch::default();
    bound_critical_path_into(
        graph,
        &checked_start_order(graph, schedule, bound_latencies),
        schedule,
        bound_latencies,
        &dense_instances(binding),
        &mut scratch,
    );
    scratch.critical
}

/// Every operation in ascending start order — a topological order of the
/// augmented graph under the precondition of [`bound_critical_path`], which
/// is checked here for the public entry points (the allocator, whose
/// schedules and bindings meet it by construction, reads the same order off
/// its compatibility graph and checks it in debug builds only).
fn checked_start_order(
    graph: &SequencingGraph,
    schedule: &Schedule,
    bound_latencies: &OpLatencies,
) -> Vec<OpId> {
    assert!(
        graph
            .edges()
            .iter()
            .all(|e| schedule.start(e.from) < schedule.start(e.to)),
        "every sequencing edge must strictly increase the start time"
    );
    assert!(
        graph.op_ids().all(|o| bound_latencies.get(o) >= 1),
        "bound latencies must be at least one cycle"
    );
    let mut order: Vec<OpId> = graph.op_ids().collect();
    order.sort_unstable_by_key(|&o| (schedule.start(o), o));
    order
}

/// Renumbers the instance indices of a caller-supplied binding densely
/// (keeping their order and `usize::MAX` for unbound operations), so the
/// counting sort's table is sized by the number of instances, not by the
/// largest index.
fn dense_instances(binding: &[usize]) -> Vec<usize> {
    let mut ids: Vec<usize> = binding
        .iter()
        .copied()
        .filter(|&b| b != usize::MAX)
        .collect();
    ids.sort_unstable();
    ids.dedup();
    binding
        .iter()
        .map(|&b| match ids.binary_search(&b) {
            Ok(k) => k,
            Err(_) => usize::MAX,
        })
        .collect()
}

/// Scratch-reusing core of [`bound_critical_path`]: the result lands in
/// `scratch.critical`.
///
/// `order` lists every operation in ascending start time.  That is a
/// topological order of the augmented graph: a sequencing edge `(u, v)` has
/// `start(v) ≥ start(u) + L_u > start(u)` because the schedule respects the
/// graph under latencies of at least one cycle, and a binding edge `(i, j)`
/// has `start(j) = start(i) + ℓ(i) > start(i)` because `ℓ(i) ≥ 1`.  ASAP
/// times are pushed forward and ALAP times pulled back along
/// `graph.successors()` plus the binding successors; the fixpoints do not
/// depend on which topological order is used, and an edge present in both
/// sets does not change a max or a min.
///
/// The bound operations are grouped by instance with a counting sort over
/// `order`, so every group is in ascending start order, and operation `i`'s
/// binding successors — the members of its group starting exactly at
/// `start(i) + ℓ(i)` — are one contiguous run found by binary search (for a
/// `BindSelect` binding, at most the next member).  The counting sort's table
/// is sized by the largest instance index, so `binding` must number its
/// instances densely: the allocator's clique indices do, and the public entry
/// points renumber theirs.
fn bound_critical_path_into(
    graph: &SequencingGraph,
    order: &[OpId],
    schedule: &Schedule,
    bound_latencies: &OpLatencies,
    binding: &[usize],
    scratch: &mut RefineScratch,
) {
    let n = graph.len();
    let start = |i: u32| schedule.start(OpId::new(i));
    let latency = |i: u32| bound_latencies.get(OpId::new(i));
    debug_assert!(
        order.len() == n
            && order
                .windows(2)
                .all(|w| schedule.start(w[0]) <= schedule.start(w[1])),
        "the order must list every operation by ascending start"
    );
    debug_assert!(
        graph
            .edges()
            .iter()
            .all(|e| schedule.start(e.from) < schedule.start(e.to)),
        "every sequencing edge must strictly increase the start time"
    );
    debug_assert!(
        (0..n as u32).all(|i| latency(i) >= 1),
        "bound latencies must be at least one cycle"
    );
    let RefineScratch {
        group_start,
        by_instance,
        binding_succ,
        asap,
        alap_end,
        critical,
        ..
    } = scratch;

    // Counting sort of the bound operations by instance, stable over the
    // start order: count into slot `k + 2`, prefix-sum, then scatter through
    // slot `k + 1`, which leaves group `k` at `group_start[k]..[k + 1]`.
    let instances = binding
        .iter()
        .filter(|&&k| k != usize::MAX)
        .max()
        .map_or(0, |&k| k + 1);
    group_start.clear();
    group_start.resize(instances + 2, 0);
    for &k in binding.iter().filter(|&&k| k != usize::MAX) {
        group_start[k + 2] += 1;
    }
    for k in 2..group_start.len() {
        group_start[k] += group_start[k - 1];
    }
    by_instance.clear();
    by_instance.resize(group_start[instances + 1] as usize, 0);
    for &o in order {
        let k = binding[o.index()];
        if k != usize::MAX {
            by_instance[group_start[k + 1] as usize] = o.index() as u32;
            group_start[k + 1] += 1;
        }
    }

    binding_succ.clear();
    binding_succ.resize(n, (0, 0));
    for (i, &k) in binding.iter().enumerate() {
        if k == usize::MAX {
            continue;
        }
        let i = i as u32;
        let (lo, hi) = (group_start[k] as usize, group_start[k + 1] as usize);
        let group = &by_instance[lo..hi];
        let ready = start(i) + latency(i);
        let first = group.partition_point(|&j| start(j) < ready);
        let run = group[first..]
            .iter()
            .take_while(|&&j| start(j) == ready)
            .count();
        binding_succ[i as usize] = ((lo + first) as u32, (lo + first + run) as u32);
    }
    let successors = |v: OpId| {
        let (lo, hi) = binding_succ[v.index()];
        graph.successors(v).iter().map(|s| s.index()).chain(
            by_instance[lo as usize..hi as usize]
                .iter()
                .map(|&s| s as usize),
        )
    };

    // ASAP on the augmented graph, pushed forward in start order.
    asap.clear();
    asap.resize(n, 0);
    for &v in order {
        let finish = asap[v.index()] + bound_latencies.get(v);
        for s in successors(v) {
            asap[s] = asap[s].max(finish);
        }
    }
    let deadline = (0..n as u32)
        .map(|i| asap[i as usize] + latency(i))
        .max()
        .unwrap_or(0);

    // ALAP (end times) against that deadline, pulled back in reverse order.
    alap_end.clear();
    alap_end.resize(n, deadline);
    for &v in order.iter().rev() {
        let end = successors(v)
            .map(|s| alap_end[s] - latency(s as u32))
            .fold(alap_end[v.index()], Cycles::min);
        alap_end[v.index()] = end;
    }

    critical.clear();
    critical.extend(
        (0..n as u32)
            .filter(|&i| asap[i as usize] == alap_end[i as usize] - latency(i))
            .map(OpId::new),
    );
}

/// Selects the operation whose latency upper bound should be refined next,
/// following the paper's candidate-selection rule, or `None` when no
/// candidate can be refined any further.
///
/// * `upper_bounds` — the latency upper bounds `L_o` used in the violated
///   schedule;
/// * `bound_latencies` — the latencies `ℓ(o)` of the resources each operation
///   is currently bound to;
/// * `binding` — instance index per operation;
/// * `constraint` — the user's overall latency constraint `λ`.
///
/// The schedule and binding must meet the precondition of
/// [`bound_critical_path`].
///
/// # Panics
///
/// Panics where [`bound_critical_path`] does.
#[must_use]
pub fn select_refinement_op(
    graph: &SequencingGraph,
    wcg: &WordlengthCompatibilityGraph,
    schedule: &Schedule,
    upper_bounds: &OpLatencies,
    bound_latencies: &OpLatencies,
    binding: &[usize],
    constraint: Cycles,
) -> Option<OpId> {
    select_refinement_op_with_scratch(
        graph,
        wcg,
        &checked_start_order(graph, schedule, bound_latencies),
        schedule,
        upper_bounds,
        bound_latencies,
        &dense_instances(binding),
        constraint,
        &mut RefineScratch::default(),
    )
}

/// The scratch-reusing form of [`select_refinement_op`] used by the
/// allocator's inner loop; decisions are identical.  `order` lists every
/// operation by ascending start (the allocator passes its compatibility
/// graph's [`start_order`](WordlengthCompatibilityGraph::start_order)).
#[allow(clippy::too_many_arguments)]
pub(crate) fn select_refinement_op_with_scratch(
    graph: &SequencingGraph,
    wcg: &WordlengthCompatibilityGraph,
    order: &[OpId],
    schedule: &Schedule,
    upper_bounds: &OpLatencies,
    bound_latencies: &OpLatencies,
    binding: &[usize],
    constraint: Cycles,
    scratch: &mut RefineScratch,
) -> Option<OpId> {
    bound_critical_path_into(graph, order, schedule, bound_latencies, binding, scratch);
    let critical = &scratch.critical;

    // Candidate subset W: critical operations finishing before the
    // constraint even at their upper-bound latency.  Tier 1: critical,
    // refinable and inside the window; tier 2: critical and refinable;
    // tier 3: any refinable operation.
    let in_window = |o: &OpId| schedule.start(*o) + upper_bounds.get(*o) <= constraint;
    let refinable = |o: &OpId| wcg.refinable(*o);

    let candidates = &mut scratch.candidates;
    candidates.clear();
    candidates.extend(
        critical
            .iter()
            .copied()
            .filter(|o| in_window(o) && refinable(o)),
    );
    if candidates.is_empty() {
        candidates.extend(critical.iter().copied().filter(refinable));
    }
    if candidates.is_empty() {
        candidates.extend(graph.op_ids().filter(|o| wcg.refinable(*o)));
    }
    if candidates.is_empty() {
        return None;
    }

    // Choose the candidate losing the smallest proportion of edges in
    // {{o1, r} ∈ H : ∃{o, r} ∈ H}; tie-break toward operations currently
    // bound to a resource faster than their upper bound, then by id.  Each
    // candidate's proportion is computed once.
    let proportions = &mut scratch.proportions;
    proportions.clear();
    proportions.extend(candidates.iter().map(|&o| deletion_proportion(wcg, o)));
    candidates
        .iter()
        .copied()
        .zip(proportions.iter().copied())
        .min_by(|&(a, pa), &(b, pb)| {
            pa.partial_cmp(&pb)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then_with(|| {
                    let fa = bound_latencies.get(a) < upper_bounds.get(a);
                    let fb = bound_latencies.get(b) < upper_bounds.get(b);
                    fb.cmp(&fa) // prefer "already bound faster" (true first)
                })
                .then(a.cmp(&b))
        })
        .map(|(op, _)| op)
}

/// Proportion of wordlength edges incident to resources compatible with `op`
/// that would be lost by refining `op`'s upper bound.
///
/// Both numerator and denominator count *edges* of the pool
/// `{{o1, r} ∈ H : ∃{o, r} ∈ H}`: the denominator sums the edge counts of
/// every resource compatible with `op`, the numerator sums the edge counts of
/// the resources that refinement would delete (those at the operation's
/// current latency upper bound).
fn deletion_proportion(wcg: &WordlengthCompatibilityGraph, op: OpId) -> f64 {
    let bound = wcg.upper_bound_latency(op);
    let (mut pool, mut deleted) = (0usize, 0usize);
    for r in wcg.candidates(op) {
        let edges = wcg.resource_edge_count(r);
        pool += edges;
        if wcg.resource_latency(r) == bound {
            deleted += edges;
        }
    }
    if pool == 0 {
        f64::INFINITY
    } else {
        deleted as f64 / pool as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bind::{bind_select, BindSelectOptions};
    use mwl_model::{CostModel, OpShape, ResourceClass, SequencingGraphBuilder, SonicCostModel};
    use mwl_sched::{asap, ListScheduler, PerClassBound};
    use mwl_tgff::{GraphShape, TgffConfig, TgffGenerator};
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    /// Two independent multiplications bound to one shared instance, followed
    /// by an addition that depends on the first multiplication only.
    fn setup() -> (
        SequencingGraph,
        WordlengthCompatibilityGraph,
        Schedule,
        OpLatencies,
        OpLatencies,
        Vec<usize>,
    ) {
        let mut b = SequencingGraphBuilder::new();
        let m0 = b.add_operation(OpShape::multiplier(8, 8));
        let m1 = b.add_operation(OpShape::multiplier(16, 16));
        let a = b.add_operation(OpShape::adder(20));
        b.add_dependency(m0, a).unwrap();
        let g = b.build().unwrap();
        let cost = SonicCostModel::default();
        let mut wcg = WordlengthCompatibilityGraph::new(&g, &cost);
        let upper = wcg.upper_bound_latencies();
        // Serial schedule: m0 then m1 on the same instance, a after m0.
        let schedule = Schedule::from_vec(vec![0, 4, 4]);
        wcg.attach_schedule(&schedule, &upper);
        // Bind both multiplications to instance 0 (16x16) and the adder to 1.
        let binding = vec![0, 0, 1];
        let bound = OpLatencies::from_vec(vec![4, 4, 2]);
        let _ = m1;
        (g, wcg, schedule, upper, bound, binding)
    }

    #[test]
    fn bound_critical_path_includes_serialised_chain() {
        let (g, _wcg, schedule, _upper, bound, binding) = setup();
        let qb = bound_critical_path(&g, &schedule, &bound, &binding);
        // The chain m0 (0..4) then m1 (4..8) on the same instance is the
        // longest path (length 8); the adder (4..6) is not critical.
        assert!(qb.contains(&OpId::new(0)));
        assert!(qb.contains(&OpId::new(1)));
        assert!(!qb.contains(&OpId::new(2)));
    }

    #[test]
    fn bound_critical_path_without_binding_edges_is_plain_critical_path() {
        let mut b = SequencingGraphBuilder::new();
        let x = b.add_operation(OpShape::multiplier(8, 8));
        let y = b.add_operation(OpShape::adder(16));
        let z = b.add_operation(OpShape::adder(4));
        b.add_dependency(x, y).unwrap();
        let g = b.build().unwrap();
        let lat = OpLatencies::from_vec(vec![2, 2, 2]);
        let schedule = asap(&g, &lat);
        // Distinct instances everywhere: no S_b edges.
        let binding = vec![0, 1, 2];
        let qb = bound_critical_path(&g, &schedule, &lat, &binding);
        assert!(qb.contains(&x));
        assert!(qb.contains(&y));
        assert!(!qb.contains(&z));
    }

    #[test]
    fn selects_a_critical_refinable_op_within_window() {
        let (g, wcg, schedule, upper, bound, binding) = setup();
        // Constraint of 8: both critical multiplications finish within 8 at
        // their upper bounds, so both are tier-1 candidates; the small one
        // (o0) loses a smaller proportion of edges.
        let chosen =
            select_refinement_op(&g, &wcg, &schedule, &upper, &bound, &binding, 8).unwrap();
        assert_eq!(chosen, OpId::new(0));
    }

    #[test]
    fn falls_back_to_critical_ops_outside_window() {
        let (g, wcg, schedule, upper, bound, binding) = setup();
        // An impossible constraint of 1: no candidate finishes in time, so
        // the rule falls back to any refinable critical operation.
        let chosen =
            select_refinement_op(&g, &wcg, &schedule, &upper, &bound, &binding, 1).unwrap();
        assert!(chosen == OpId::new(0) || chosen == OpId::new(1));
    }

    #[test]
    fn returns_none_when_nothing_is_refinable() {
        let (g, mut wcg, schedule, upper, bound, binding) = setup();
        // Exhaust refinement on every operation.
        for op in g.op_ids() {
            while wcg.refinable(op) {
                assert!(wcg.refine_op(op) > 0);
            }
        }
        assert_eq!(
            select_refinement_op(&g, &wcg, &schedule, &upper, &bound, &binding, 8),
            None
        );
    }

    #[test]
    fn refinement_loop_reduces_upper_bound() {
        let (g, mut wcg, schedule, upper, bound, binding) = setup();
        let before = wcg.upper_bound_latency(OpId::new(0));
        let chosen =
            select_refinement_op(&g, &wcg, &schedule, &upper, &bound, &binding, 8).unwrap();
        assert!(wcg.refine_op(chosen) > 0);
        assert!(wcg.upper_bound_latency(chosen) < before.max(2));
        let _ = g;
    }

    /// Regression for the edge-count bug in the deletion-proportion rule:
    /// the numerator must sum the *edges* of the resources that refinement
    /// deletes, not merely count those resources.  This instance is built so
    /// the two readings disagree on which operation to refine.
    #[test]
    fn deletion_proportion_counts_edges_not_resources() {
        use mwl_model::{LinearCostModel, ResourceType};

        // o0 (mul 8x8) -> o1 (add 8), plus four independent 12x12
        // multiplications padding the big multiplier's edge count.
        let mut b = SequencingGraphBuilder::new();
        let o0 = b.add_operation(OpShape::multiplier(8, 8));
        let o1 = b.add_operation(OpShape::adder(8));
        for _ in 0..4 {
            b.add_operation(OpShape::multiplier(12, 12));
        }
        b.add_dependency(o0, o1).unwrap();
        let g = b.build().unwrap();

        // Explicit resource set under the linear cost model (latency
        // ceil(total/8) + 1): m0/m1 cover o0, a0/a1/a2 cover o1, and only m1
        // covers the fillers.
        let cost = LinearCostModel::default();
        let resources = vec![
            ResourceType::multiplier(8, 8),   // m0: latency 3, edges {o0}
            ResourceType::multiplier(16, 16), // m1: latency 5, edges {o0, fillers}
            ResourceType::adder(8),           // a0: latency 2, edges {o1}
            ResourceType::adder(9),           // a1: latency 3, edges {o1}
            ResourceType::adder(10),          // a2: latency 3, edges {o1}
        ];
        let wcg = WordlengthCompatibilityGraph::with_resources(&g, resources, &cost);

        // o0 and o1 are serialised back-to-back by the dependency and form
        // the bound critical path (length 5); the fillers end at 4.
        let schedule = Schedule::from_vec(vec![0, 3, 0, 0, 0, 0]);
        let bound = OpLatencies::from_vec(vec![3, 2, 4, 4, 4, 4]);
        let binding = vec![0, 1, 2, 3, 4, 5];
        let upper = wcg.upper_bound_latencies();
        assert_eq!(upper.as_slice(), &[5, 3, 5, 5, 5, 5]);

        // Proportions under the two readings, with pool(o) the summed edge
        // counts of o's compatible resources:
        //   o0: pool = |O(m0)| + |O(m1)| = 1 + 5 = 6; at-bound resources
        //       {m1}: 1 resource carrying 5 edges -> edges 5/6, resources 1/6.
        //   o1: pool = |O(a0)| + |O(a1)| + |O(a2)| = 3; at-bound {a1, a2}:
        //       2 resources carrying 2 edges -> 2/3 under both readings.
        // Counting resources prefers o0 (1/6 < 2/3); the paper's edge-count
        // rule must pick o1 (2/3 < 5/6).
        let chosen =
            select_refinement_op(&g, &wcg, &schedule, &upper, &bound, &binding, 6).unwrap();
        assert_eq!(chosen, o1);
    }

    /// The bound critical path with the binding edges found by testing
    /// every ordered pair of operations.
    fn naive_bound_critical_path(
        graph: &SequencingGraph,
        schedule: &Schedule,
        bound_latencies: &OpLatencies,
        binding: &[usize],
    ) -> Vec<OpId> {
        let n = graph.len();
        let lat = |i: usize| bound_latencies.get(OpId::new(i as u32));
        let start = |i: usize| schedule.start(OpId::new(i as u32));
        let mut succ: Vec<Vec<usize>> = vec![Vec::new(); n];
        let mut pred: Vec<Vec<usize>> = vec![Vec::new(); n];
        for e in graph.edges() {
            succ[e.from.index()].push(e.to.index());
            pred[e.to.index()].push(e.from.index());
        }
        for i in 0..n {
            for j in 0..n {
                if i != j
                    && binding[i] == binding[j]
                    && binding[i] != usize::MAX
                    && start(i) + lat(i) == start(j)
                    && !succ[i].contains(&j)
                {
                    succ[i].push(j);
                    pred[j].push(i);
                }
            }
        }
        // Longest paths by relaxation to a fixed point (the augmented graph
        // is acyclic, so `n` rounds suffice).
        let mut asap: Vec<Cycles> = vec![0; n];
        for _ in 0..n {
            for v in 0..n {
                for &p in &pred[v] {
                    asap[v] = asap[v].max(asap[p] + lat(p));
                }
            }
        }
        let deadline = (0..n).map(|i| asap[i] + lat(i)).max().unwrap_or(0);
        let mut alap_end = vec![deadline; n];
        for _ in 0..n {
            for v in 0..n {
                for &s in &succ[v] {
                    alap_end[v] = alap_end[v].min(alap_end[s] - lat(s));
                }
            }
        }
        (0..n)
            .filter(|&i| asap[i] == alap_end[i] - lat(i))
            .map(|i| OpId::new(i as u32))
            .collect()
    }

    // Default case count (`PROPTEST_CASES` lowers it).
    proptest! {
        /// The start-order bound critical path equals the order-free
        /// relaxation of the pairwise-edge graph on arbitrary bindings — random instances, unbound operations, and
        /// operations that overlap in time on one instance — with bound
        /// latencies anywhere from one cycle to the upper bound, through
        /// both the scratch path (the compatibility graph's start order, one
        /// warm scratch) and the public entry point (which derives the order
        /// and renumbers instance indices, here also spread far apart).
        #[test]
        fn start_order_critical_path_matches_naive_relaxation(
            shape in prop_oneof![
                Just(GraphShape::Layered),
                Just(GraphShape::Wide),
                Just(GraphShape::Deep),
                Just(GraphShape::Diamond),
            ],
            ops in 1usize..=130,
            seed in 0u64..=5000,
            units in 1usize..=3,
            instances in 1usize..=12,
            binding_seed in any::<u64>(),
        ) {
            let config = TgffConfig::with_ops(ops).shape(shape);
            let g = TgffGenerator::new(config, seed).generate();
            let cost = SonicCostModel::default();
            let mut wcg = WordlengthCompatibilityGraph::new(&g, &cost);
            let upper = wcg.upper_bound_latencies();
            let classes = g
                .operations()
                .iter()
                .map(|o| ResourceClass::for_kind(o.kind()))
                .collect();
            let bounds = BTreeMap::from([
                (ResourceClass::Multiplier, units),
                (ResourceClass::Adder, units),
            ]);
            let schedule = ListScheduler::default()
                .schedule(&g, &upper, PerClassBound::new(classes, bounds))
                .expect("positive bounds are feasible");
            wcg.attach_schedule(&schedule, &upper);

            let mut state = binding_seed;
            let mut next = || {
                state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
                let z = (state ^ (state >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
                z ^ (z >> 31)
            };
            let mut binding = Vec::with_capacity(g.len());
            let mut bound = upper.clone();
            for op in g.op_ids() {
                binding.push(match next() % (instances as u64 + 1) {
                    0 => usize::MAX,
                    k => k as usize - 1,
                });
                bound.set(op, 1 + (next() % u64::from(upper.get(op))) as u32);
            }
            let expected = naive_bound_critical_path(&g, &schedule, &bound, &binding);

            let mut scratch = RefineScratch::default();
            for _ in 0..2 {
                bound_critical_path_into(
                    &g,
                    wcg.start_order(),
                    &schedule,
                    &bound,
                    &binding,
                    &mut scratch,
                );
                prop_assert_eq!(&scratch.critical, &expected);
            }
            prop_assert_eq!(&bound_critical_path(&g, &schedule, &bound, &binding), &expected);
            let spread: Vec<usize> = binding
                .iter()
                .map(|&k| if k == usize::MAX { k } else { k * (usize::MAX / 16) })
                .collect();
            prop_assert_eq!(&bound_critical_path(&g, &schedule, &bound, &spread), &expected);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

        /// The sorted-neighbour binding edges give the same bound critical
        /// path as the pairwise scan, on `BindSelect` bindings of graphs
        /// list-scheduled under tight per-class bounds (which serialise
        /// operations back to back on shared instances).
        #[test]
        fn bound_critical_path_matches_pairwise_binding_edges(
            shape in prop_oneof![
                Just(GraphShape::Layered),
                Just(GraphShape::Wide),
                Just(GraphShape::Deep),
                Just(GraphShape::Diamond),
            ],
            ops in 1usize..=130,
            seed in 0u64..=5000,
            units in 1usize..=3,
        ) {
            let config = TgffConfig::with_ops(ops).shape(shape);
            let g = TgffGenerator::new(config, seed).generate();
            let cost = SonicCostModel::default();
            let mut wcg = WordlengthCompatibilityGraph::new(&g, &cost);
            let upper = wcg.upper_bound_latencies();
            let classes = g
                .operations()
                .iter()
                .map(|o| ResourceClass::for_kind(o.kind()))
                .collect();
            let bounds = BTreeMap::from([
                (ResourceClass::Multiplier, units),
                (ResourceClass::Adder, units),
            ]);
            let schedule = ListScheduler::default()
                .schedule(&g, &upper, PerClassBound::new(classes, bounds))
                .expect("positive bounds are feasible");
            wcg.attach_schedule(&schedule, &upper);
            let instances = bind_select(&wcg, BindSelectOptions::default()).expect("binds");
            let mut binding = vec![usize::MAX; g.len()];
            let mut bound = upper.clone();
            for (k, inst) in instances.iter().enumerate() {
                for &op in inst.ops() {
                    binding[op.index()] = k;
                    bound.set(op, cost.latency(&inst.resource()));
                }
            }
            prop_assert_eq!(
                bound_critical_path(&g, &schedule, &bound, &binding),
                naive_bound_critical_path(&g, &schedule, &bound, &binding)
            );
        }
    }

    #[test]
    fn single_op_graph_critical_path() {
        let mut b = SequencingGraphBuilder::new();
        let x = b.add_operation(OpShape::adder(8));
        let g = b.build().unwrap();
        let lat = OpLatencies::uniform(&g, 2);
        let schedule = Schedule::from_vec(vec![0]);
        let qb = bound_critical_path(&g, &schedule, &lat, &[0]);
        assert_eq!(qb, vec![x]);
    }

    #[test]
    #[should_panic(expected = "bound latencies must be at least one cycle")]
    fn public_critical_path_rejects_zero_latency() {
        let mut b = SequencingGraphBuilder::new();
        b.add_operation(OpShape::adder(8));
        b.add_operation(OpShape::adder(8));
        let g = b.build().unwrap();
        let lat = OpLatencies::from_vec(vec![0, 1]);
        let schedule = Schedule::from_vec(vec![0, 0]);
        let _ = bound_critical_path(&g, &schedule, &lat, &[0, 0]);
    }

    #[test]
    #[should_panic(expected = "every sequencing edge must strictly increase the start time")]
    fn public_critical_path_rejects_non_increasing_edge() {
        let mut b = SequencingGraphBuilder::new();
        let x = b.add_operation(OpShape::adder(8));
        let y = b.add_operation(OpShape::adder(8));
        b.add_dependency(x, y).unwrap();
        let g = b.build().unwrap();
        let lat = OpLatencies::uniform(&g, 1);
        let schedule = Schedule::from_vec(vec![2, 2]);
        let _ = bound_critical_path(&g, &schedule, &lat, &[0, 1]);
    }
}
