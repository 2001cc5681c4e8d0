//! Bitset-kernel equivalence: every word-parallel query of the wordlength
//! compatibility graph must return exactly what a naive model built from
//! first principles returns — an `(op, resource)` edge set, sort-based
//! chain tests and a quadratic longest-chain DP — across all `GraphShape` ×
//! `WidthProfile` families, on graphs below and above one 64-bit word of
//! operations, on tie-heavy hand-built schedules, through refinement, and
//! regardless of whether the chain scratch is warm or fresh.  The greedy
//! chain-length scan must give the DP's length as operations are covered
//! round by round, and the cached edge counts must equal the column
//! popcounts through deletions, pristine restores and rebuilds.
//!
//! The allocator-level identity against the frozen reference lives in
//! `mwl_core/tests/optimization_identity.rs`.

use std::collections::BTreeSet;

use proptest::prelude::*;

use mwl_model::{
    Area, CostModel, Cycles, OpId, OpShape, SequencingGraph, SequencingGraphBuilder, SonicCostModel,
};
use mwl_sched::{asap, OpLatencies, Schedule};
use mwl_tgff::{GraphShape, TgffConfig, TgffGenerator, WidthProfile};
use mwl_wcg::{ChainScratch, WordlengthCompatibilityGraph};

/// One generated problem covering the full scenario space.
#[derive(Debug, Clone)]
struct Case {
    shape: GraphShape,
    widths: WidthProfile,
    ops: usize,
    seed: u64,
}

fn case_strategy() -> impl Strategy<Value = Case> {
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
        // Single-word planes, and multi-word planes past 64 operations.
        prop_oneof![1usize..=14, 60usize..=130],
        0u64..=2000,
    )
        .prop_map(|(shape, widths, ops, seed)| Case {
            shape,
            widths,
            ops,
            seed,
        })
}

fn build(case: &Case) -> SequencingGraph {
    let config = TgffConfig::with_ops(case.ops)
        .shape(case.shape)
        .width_profile(case.widths);
    TgffGenerator::new(config, case.seed).generate()
}

/// The graph modelled from first principles: `H` as a set of
/// `(op, resource)` pairs over the same resource list, per-resource costs
/// straight from the cost model, and the schedule's execution intervals.
struct Naive {
    num_ops: usize,
    latencies: Vec<Cycles>,
    areas: Vec<Area>,
    edges: BTreeSet<(usize, usize)>,
    intervals: Vec<(Cycles, Cycles)>,
}

impl Naive {
    fn new(graph: &SequencingGraph, wcg: &WordlengthCompatibilityGraph) -> Self {
        let cost = SonicCostModel::default();
        let resources = wcg.resources();
        let mut edges = BTreeSet::new();
        for (o, op) in graph.operations().iter().enumerate() {
            for (r, resource) in resources.iter().enumerate() {
                if resource.covers(op.shape()) {
                    edges.insert((o, r));
                }
            }
        }
        Naive {
            num_ops: graph.len(),
            latencies: resources.iter().map(|r| cost.latency(r)).collect(),
            areas: resources.iter().map(|r| cost.area(r)).collect(),
            edges,
            intervals: Vec::new(),
        }
    }

    fn attach(&mut self, schedule: &Schedule, latencies: &OpLatencies) {
        self.intervals = (0..self.num_ops)
            .map(|i| {
                let op = OpId::new(i as u32);
                (schedule.start(op), schedule.end(op, latencies))
            })
            .collect();
    }

    fn has_edge(&self, op: OpId, r: usize) -> bool {
        self.edges.contains(&(op.index(), r))
    }

    fn resources_for(&self, op: OpId) -> Vec<usize> {
        (0..self.latencies.len())
            .filter(|&r| self.has_edge(op, r))
            .collect()
    }

    fn ops_for(&self, r: usize) -> Vec<OpId> {
        (0..self.num_ops)
            .map(|i| OpId::new(i as u32))
            .filter(|&o| self.has_edge(o, r))
            .collect()
    }

    fn upper(&self, op: OpId) -> Cycles {
        self.resources_for(op)
            .iter()
            .map(|&r| self.latencies[r])
            .max()
            .expect("op keeps an edge")
    }

    fn refinable(&self, op: OpId) -> bool {
        let distinct: BTreeSet<Cycles> = self
            .resources_for(op)
            .iter()
            .map(|&r| self.latencies[r])
            .collect();
        distinct.len() > 1
    }

    /// Deletes the at-bound edges unless that would strand the operation.
    fn refine(&mut self, op: OpId) -> usize {
        if !self.refinable(op) {
            return 0;
        }
        let bound = self.upper(op);
        let slow: Vec<usize> = self
            .resources_for(op)
            .into_iter()
            .filter(|&r| self.latencies[r] == bound)
            .collect();
        for &r in &slow {
            self.edges.remove(&(op.index(), r));
        }
        slow.len()
    }

    fn is_chain(&self, ops: &[OpId]) -> bool {
        let mut sorted = ops.to_vec();
        sorted.sort_by_key(|o| self.intervals[o.index()].0);
        sorted
            .windows(2)
            .all(|w| self.intervals[w[0].index()].1 <= self.intervals[w[1].index()].0)
    }

    /// Longest chain of uncovered members of `O(r)`: quadratic DP over the
    /// candidates sorted by `(start, end, id)`, first maximum wins.
    fn max_chain(&self, r: usize, covered: &[bool]) -> Vec<OpId> {
        let iv = &self.intervals;
        let mut cands: Vec<OpId> = self
            .ops_for(r)
            .into_iter()
            .filter(|o| !covered[o.index()])
            .collect();
        cands.sort_by_key(|o| (iv[o.index()].0, iv[o.index()].1, *o));
        if cands.is_empty() {
            return Vec::new();
        }
        let mut best = vec![1usize; cands.len()];
        let mut prev = vec![None; cands.len()];
        for i in 0..cands.len() {
            for j in 0..i {
                if iv[cands[j].index()].1 <= iv[cands[i].index()].0 && best[j] + 1 > best[i] {
                    best[i] = best[j] + 1;
                    prev[i] = Some(j);
                }
            }
        }
        let mut tail = (0..cands.len()).max_by_key(|&i| best[i]).unwrap();
        let mut chain = vec![cands[tail]];
        while let Some(p) = prev[tail] {
            chain.push(cands[p]);
            tail = p;
        }
        chain.reverse();
        chain
    }

    fn cheapest_common_resource(&self, ops: &[OpId]) -> Option<usize> {
        (0..self.latencies.len())
            .filter(|&r| ops.iter().all(|&o| self.has_edge(o, r)))
            .min_by_key(|&r| (self.areas[r], r))
    }
}

/// The WCG and its naive model for one problem, with a shared ASAP schedule
/// attached.
fn scheduled(graph: &SequencingGraph) -> (WordlengthCompatibilityGraph, Naive) {
    let mut wcg = WordlengthCompatibilityGraph::new(graph, &SonicCostModel::default());
    let mut naive = Naive::new(graph, &wcg);
    let upper = wcg.upper_bound_latencies();
    let schedule = asap(graph, &upper);
    wcg.attach_schedule(&schedule, &upper);
    naive.attach(&schedule, &upper);
    (wcg, naive)
}

/// Deterministic bit source for subset sampling (no `rand` dev-dependency
/// here; proptest drives the seed).
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A pseudo-random subset of the graph's operations, one fresh random word
/// per 64 operations.
fn random_subset(num_ops: usize, state: &mut u64) -> Vec<OpId> {
    let words: Vec<u64> = (0..num_ops.div_ceil(64)).map(|_| splitmix(state)).collect();
    (0..num_ops)
        .filter(|&i| words[i / 64] >> (i % 64) & 1 == 1)
        .map(|i| OpId::new(i as u32))
        .collect()
}

/// The uncovered operations as an end-rank mask, the form
/// `max_chain_length` takes.
fn end_rank_mask(wcg: &WordlengthCompatibilityGraph, covered: &[bool]) -> Vec<u64> {
    let mut mask = vec![0u64; wcg.op_mask_words()];
    for (i, _) in covered.iter().enumerate().filter(|(_, &c)| !c) {
        let e = wcg.end_rank(OpId::new(i as u32));
        mask[e / 64] |= 1 << (e % 64);
    }
    mask
}

/// `|O(r)|` of every resource counted straight off its column.
fn column_popcounts(wcg: &WordlengthCompatibilityGraph) -> Vec<usize> {
    let words = wcg.op_mask_words();
    (0..wcg.resources().len())
        .map(|r| {
            wcg.resource_columns()[r * words..][..words]
                .iter()
                .map(|w| w.count_ones() as usize)
                .sum()
        })
        .collect()
}

fn cached_edge_counts(wcg: &WordlengthCompatibilityGraph) -> Vec<usize> {
    (0..wcg.resources().len())
        .map(|r| wcg.resource_edge_count(r))
        .collect()
}

/// Covers the operations round by round the way `BindSelect` does — each
/// round covers the longest naive chain (lowest resource index among equal
/// lengths) — and checks before every round that `max_chain_length` equals
/// the naive DP's chain length for every resource.  Every other round also
/// refines one operation while the schedule stays attached, in both models,
/// so the end-rank plane must follow deletions.
fn chain_lengths_match_naive_round_by_round(
    wcg: &mut WordlengthCompatibilityGraph,
    naive: &mut Naive,
    refine_seed: u64,
) {
    let n = wcg.num_ops();
    let mut covered = vec![false; n];
    let mut state = refine_seed;
    for round in 0.. {
        if round % 2 == 1 && n > 0 {
            let op = OpId::new((splitmix(&mut state) % n as u64) as u32);
            prop_assert_eq!(wcg.refine_op(op), naive.refine(op));
        }
        let uncovered = end_rank_mask(wcg, &covered);
        let mut longest: Vec<OpId> = Vec::new();
        for r in 0..wcg.resources().len() {
            let chain = naive.max_chain(r, &covered);
            prop_assert_eq!(
                wcg.max_chain_length(r, &uncovered),
                chain.len(),
                "resource {} in round {}",
                r,
                round
            );
            if chain.len() > longest.len() {
                longest = chain;
            }
        }
        if longest.is_empty() {
            break;
        }
        for op in longest {
            covered[op.index()] = true;
        }
    }
    prop_assert!(covered.iter().all(|&c| c), "every operation gets covered");
}

/// Independent operations of widths 8, 12 and 16 with hand-picked start
/// times and latencies, attached to both models.
fn tie_heavy(ops: &[(usize, u32, u32)]) -> (SequencingGraph, WordlengthCompatibilityGraph, Naive) {
    let mut b = SequencingGraphBuilder::new();
    for &(width, _, _) in ops {
        let w = [8, 12, 16][width];
        b.add_operation(OpShape::multiplier(w, w));
    }
    let graph = b.build().expect("independent operations");
    let schedule = Schedule::from_vec(ops.iter().map(|&(_, start, _)| start).collect());
    let latencies = OpLatencies::from_vec(ops.iter().map(|&(_, _, lat)| lat).collect());
    let mut wcg = WordlengthCompatibilityGraph::new(&graph, &SonicCostModel::default());
    let mut naive = Naive::new(&graph, &wcg);
    wcg.attach_schedule(&schedule, &latencies);
    naive.attach(&schedule, &latencies);
    (graph, wcg, naive)
}

fn mask_of(ops: &[OpId], words: usize) -> Vec<u64> {
    let mut mask = vec![0u64; words];
    for op in ops {
        mask[op.index() / 64] |= 1 << (op.index() % 64);
    }
    mask
}

/// `max_chain_into` produces the naive DP's chain for every resource, with
/// nothing covered and then for random covered sets, through one warm
/// scratch; `max_chain` agrees too.
fn chains_match_naive(wcg: &WordlengthCompatibilityGraph, naive: &Naive, covered_seed: u64) {
    let n = wcg.num_ops();
    let words = wcg.op_mask_words();
    let mut state = covered_seed;
    let mut warm = ChainScratch::default();
    let mut warm_chain = Vec::new();
    for round in 0..4 {
        let mut covered = vec![false; n];
        if round > 0 {
            for op in random_subset(n, &mut state) {
                covered[op.index()] = true;
            }
        }
        let uncovered: Vec<OpId> = (0..n as u32)
            .map(OpId::new)
            .filter(|o| !covered[o.index()])
            .collect();
        let uncovered = mask_of(&uncovered, words);
        for r in 0..wcg.resources().len() {
            let expected = naive.max_chain(r, &covered);
            prop_assert_eq!(&wcg.max_chain(r, &covered), &expected);
            wcg.max_chain_into(r, &uncovered, &mut warm, &mut warm_chain);
            prop_assert_eq!(&warm_chain, &expected);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    /// Structural queries agree with the edge set: edge probes, candidate
    /// lists, per-resource operation lists and columns, edge counts, upper
    /// bounds, and the cheapest-common-resource selection for arbitrary op
    /// subsets.
    #[test]
    fn structure_queries_match_naive(case in case_strategy(), subset_seed in any::<u64>()) {
        let graph = build(&case);
        let (wcg, naive) = scheduled(&graph);
        let words = wcg.op_mask_words();

        for op in graph.op_ids() {
            prop_assert_eq!(wcg.resources_for(op), naive.resources_for(op));
            prop_assert_eq!(wcg.upper_bound_latency(op), naive.upper(op));
            for r in 0..wcg.resources().len() {
                prop_assert_eq!(wcg.has_edge(op, r), naive.has_edge(op, r));
            }
        }
        for r in 0..wcg.resources().len() {
            let ops = naive.ops_for(r);
            prop_assert_eq!(&wcg.ops_for(r), &ops);
            prop_assert_eq!(wcg.resource_edge_count(r), ops.len());
            prop_assert_eq!(&wcg.resource_columns()[r * words..][..words], &mask_of(&ops, words)[..]);
        }
        prop_assert_eq!(wcg.num_edges(), naive.edges.len());

        let mut state = subset_seed;
        for _ in 0..8 {
            let subset = random_subset(graph.len(), &mut state);
            prop_assert_eq!(
                wcg.cheapest_common_resource(&subset),
                naive.cheapest_common_resource(&subset)
            );
        }
        prop_assert_eq!(
            wcg.cheapest_common_resource(&[]),
            naive.cheapest_common_resource(&[])
        );
    }

    /// `is_chain` and its mask form agree with the sort-based definition on
    /// arbitrary subsets and on real chains.
    #[test]
    fn is_chain_matches_naive(case in case_strategy(), subset_seed in any::<u64>()) {
        let graph = build(&case);
        let (wcg, naive) = scheduled(&graph);
        let words = wcg.op_mask_words();

        let mut state = subset_seed;
        for round in 0..12 {
            // Mix in real chains so the `true` branch is exercised, not just
            // random (usually incompatible) subsets.
            let subset = if round % 3 == 0 && !wcg.resources().is_empty() {
                let covered = vec![false; graph.len()];
                naive.max_chain(round % wcg.resources().len(), &covered)
            } else {
                random_subset(graph.len(), &mut state)
            };
            let expected = naive.is_chain(&subset);
            prop_assert_eq!(wcg.is_chain(&subset), expected);
            prop_assert_eq!(wcg.mask_is_chain(&mask_of(&subset, words)), expected);
        }
    }

    /// `max_chain_into` produces the naive DP's chain for every resource and
    /// for arbitrary covered sets — and a warm scratch (reused across every
    /// query) is indistinguishable from a fresh one.
    #[test]
    fn max_chain_matches_naive_warm_and_fresh(
        case in case_strategy(),
        covered_seed in any::<u64>(),
    ) {
        let graph = build(&case);
        let (wcg, naive) = scheduled(&graph);

        chains_match_naive(&wcg, &naive, covered_seed);
    }

    /// The end-order chain sweep keeps the quadratic DP's tie rules — the
    /// lowest-ranked predecessor among equal-length maximisers, the last
    /// maximum as the tail — on schedules built to tie: latencies of one or
    /// two cycles over a handful of start times, so many operations share a
    /// start, an end, or both.  Every compatibility row must also equal the
    /// pairwise interval-disjointness test.
    #[test]
    fn tie_heavy_chains_and_rows_match_naive(
        ops in prop::collection::vec((0usize..3, 0u32..5, 1u32..=2), 1..=130),
        covered_seed in any::<u64>(),
    ) {
        let (graph, wcg, naive) = tie_heavy(&ops);

        for a in graph.op_ids() {
            for b in graph.op_ids().filter(|&b| b != a) {
                let (ia, ib) = (naive.intervals[a.index()], naive.intervals[b.index()]);
                let disjoint = ia.1 <= ib.0 || ib.1 <= ia.0;
                prop_assert_eq!(wcg.is_chain(&[a, b]), disjoint, "row {:?} bit {:?}", a, b);
            }
        }
        chains_match_naive(&wcg, &naive, covered_seed);
    }

    /// The mask-form clique-growth primitives agree with their scalar
    /// definitions: `mask_covered_by` ⇔ every masked op has the H edge,
    /// `mask_candidate_count` = |mask ∩ O(r)|.
    #[test]
    fn mask_primitives_match_naive(case in case_strategy(), mask_seed in any::<u64>()) {
        let graph = build(&case);
        let (wcg, naive) = scheduled(&graph);
        let words = wcg.op_mask_words();

        let mut state = mask_seed;
        for _ in 0..8 {
            let subset = random_subset(graph.len(), &mut state);
            let mask = mask_of(&subset, words);
            for r in 0..wcg.resources().len() {
                prop_assert_eq!(
                    wcg.mask_covered_by(&mask, r),
                    subset.iter().all(|&op| naive.has_edge(op, r))
                );
                prop_assert_eq!(
                    wcg.mask_candidate_count(&mask, r),
                    subset.iter().filter(|&&op| naive.has_edge(op, r)).count()
                );
            }
        }
    }

    /// Refinement keeps the planes in lock-step with the edge set: the same
    /// refinement sequence preserves removal counts, upper bounds,
    /// candidate lists and the whole edge relation after every step, and
    /// `restore_pristine` brings back the unrefined graph.
    #[test]
    fn refinement_matches_naive(case in case_strategy()) {
        let graph = build(&case);
        let mut wcg = WordlengthCompatibilityGraph::new(&graph, &SonicCostModel::default());
        let mut naive = Naive::new(&graph, &wcg);
        let pristine = naive.edges.clone();
        wcg.snapshot_pristine();

        for op in graph.op_ids() {
            while wcg.refinable(op) {
                prop_assert!(naive.refinable(op));
                prop_assert_eq!(wcg.refine_op(op), naive.refine(op));
                prop_assert_eq!(wcg.upper_bound_latency(op), naive.upper(op));
                prop_assert_eq!(wcg.resources_for(op), naive.resources_for(op));
            }
            prop_assert!(!naive.refinable(op));
            prop_assert_eq!(wcg.refine_op(op), 0);
        }
        for r in 0..wcg.resources().len() {
            prop_assert_eq!(wcg.ops_for(r), naive.ops_for(r));
            prop_assert_eq!(wcg.resource_edge_count(r), naive.ops_for(r).len());
        }

        wcg.restore_pristine();
        naive.edges = pristine;
        for op in graph.op_ids() {
            prop_assert_eq!(wcg.resources_for(op), naive.resources_for(op));
            prop_assert_eq!(wcg.upper_bound_latency(op), naive.upper(op));
        }
    }
}

// The properties below run at the default case count (`PROPTEST_CASES`
// lowers it), so a release run at the default samples the tie-heavy
// schedules the greedy length's exactness argument turns on.
proptest! {
    /// The greedy chain length equals the naive DP's chain length for every
    /// resource as operations are covered round by round, on generated
    /// graphs below and above one word of operations.
    #[test]
    fn greedy_chain_lengths_match_naive_as_ops_are_covered(
        case in case_strategy(),
        refine_seed in any::<u64>(),
    ) {
        let graph = build(&case);
        let (mut wcg, mut naive) = scheduled(&graph);
        chain_lengths_match_naive_round_by_round(&mut wcg, &mut naive, refine_seed);
    }

    /// The same on tie-heavy schedules (latencies of one or two cycles over
    /// starts 0–4, up to 130 operations), where many candidates share a
    /// start, an end or both.
    #[test]
    fn greedy_chain_lengths_match_naive_on_tie_heavy_schedules(
        ops in prop::collection::vec((0usize..3, 0u32..5, 1u32..=2), 1..=130),
        refine_seed in any::<u64>(),
    ) {
        let (_, mut wcg, mut naive) = tie_heavy(&ops);
        chain_lengths_match_naive_round_by_round(&mut wcg, &mut naive, refine_seed);
    }

    /// The cached per-resource edge counts equal the column popcounts after
    /// every step of a random `delete_edge` / `refine_op` sequence (with a
    /// schedule attached for part of it), after `restore_pristine`, and
    /// after a `rebuild` that reuses the graph for another problem.
    #[test]
    fn edge_counts_match_column_popcounts(
        case in case_strategy(),
        other in case_strategy(),
        edit_seed in any::<u64>(),
    ) {
        let graph = build(&case);
        let cost = SonicCostModel::default();
        let mut wcg = WordlengthCompatibilityGraph::new(&graph, &cost);
        let mut state = edit_seed;
        for (round, g) in [&graph, &build(&other)].into_iter().enumerate() {
            if round > 0 {
                wcg.rebuild(g, &cost);
            }
            prop_assert_eq!(cached_edge_counts(&wcg), column_popcounts(&wcg));
            wcg.snapshot_pristine();
            let pristine = cached_edge_counts(&wcg);
            let n = g.len();
            let upper = wcg.upper_bound_latencies();
            for step in 0..3 * n {
                if step == n {
                    wcg.attach_schedule(&asap(g, &upper), &upper);
                }
                let op = OpId::new((splitmix(&mut state) % n as u64) as u32);
                if splitmix(&mut state).is_multiple_of(2) {
                    // Delete one edge, never an operation's last one.
                    let candidates = wcg.resources_for(op);
                    if candidates.len() > 1 {
                        let r = candidates[(splitmix(&mut state) % candidates.len() as u64) as usize];
                        prop_assert!(wcg.delete_edge(op, r));
                    }
                } else {
                    wcg.refine_op(op);
                }
                prop_assert_eq!(cached_edge_counts(&wcg), column_popcounts(&wcg));
            }
            wcg.restore_pristine();
            prop_assert_eq!(cached_edge_counts(&wcg), pristine);
            prop_assert_eq!(cached_edge_counts(&wcg), column_popcounts(&wcg));
        }
    }
}
