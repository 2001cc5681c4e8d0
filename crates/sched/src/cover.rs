//! Minimum-cardinality cover computation for the *scheduling set*.
//!
//! Before scheduling, the paper selects a minimum-cardinality subset
//! `S ⊆ R` of resource-wordlength types such that every operation has at
//! least one wordlength edge `{o, s}` with `s ∈ S`.  This is a set-cover
//! instance; it is solved exactly by branch and bound for the problem sizes
//! of the evaluation (≤ a few dozen operations) and by the classic greedy
//! heuristic beyond that.
//!
//! Every entry point reduces to one core over a *column plane*: candidate
//! `j` is a bitset of the items it covers, `ceil(num_items / 64)` words
//! starting at word `j * stride` — the layout of the wordlength
//! compatibility graph's per-resource `H` columns.

/// Upper bound on the number of items for which the exact branch-and-bound
/// cover is attempted; larger instances fall back to the greedy heuristic.
const EXACT_COVER_ITEM_LIMIT: usize = 64;

/// Upper bound on the number of candidate sets for the exact solver.
const EXACT_COVER_CANDIDATE_LIMIT: usize = 28;

/// Computes a minimum-cardinality selection of candidate sets covering all
/// items `0..num_items`.
///
/// `candidates[j]` lists the items covered by candidate `j`.  Items that no
/// candidate covers are ignored (they cannot be covered by any selection),
/// and so are trailing candidates that cover nothing.  The result is a
/// sorted list of selected candidate indices; it is exact (minimum
/// cardinality) when the instance is small enough and a greedy
/// approximation otherwise.
///
/// # Examples
///
/// ```
/// use mwl_sched::minimum_cover;
/// // Two candidates each covering one item, one candidate covering both.
/// let cover = minimum_cover(2, &[vec![0], vec![1], vec![0, 1]]);
/// assert_eq!(cover, vec![2]);
/// ```
#[must_use]
pub fn minimum_cover(num_items: usize, candidates: &[Vec<usize>]) -> Vec<usize> {
    let stride = num_items.div_ceil(64);
    let mut columns = vec![0u64; candidates.len() * stride];
    for (j, set) in candidates.iter().enumerate() {
        for &item in set.iter().filter(|&&item| item < num_items) {
            columns[j * stride + item / 64] |= 1 << (item % 64);
        }
    }
    let mut out = Vec::new();
    scheduling_set_with_scratch(num_items, &columns, &mut CoverScratch::default(), &mut out);
    out
}

/// Computes the scheduling set from per-operation candidate lists:
/// `op_candidates[i]` is the list of resource indices able to execute
/// operation `i`.  Returns the selected resource indices, sorted.
///
/// # Examples
///
/// ```
/// use mwl_sched::scheduling_set;
/// // op0 can use resources {0,2}, op1 only resource {2}: {2} covers both.
/// assert_eq!(scheduling_set(&[vec![0, 2], vec![2]]), vec![2]);
/// ```
#[must_use]
pub fn scheduling_set(op_candidates: &[Vec<usize>]) -> Vec<usize> {
    let num_resources = op_candidates
        .iter()
        .flat_map(|c| c.iter().copied())
        .max()
        .map_or(0, |m| m + 1);
    let mut covers: Vec<Vec<usize>> = vec![Vec::new(); num_resources];
    for (op, cands) in op_candidates.iter().enumerate() {
        for &r in cands {
            covers[r].push(op);
        }
    }
    minimum_cover(op_candidates.len(), &covers)
}

/// Reusable buffers for [`scheduling_set_with_scratch`].
#[derive(Debug, Default)]
pub struct CoverScratch {
    coverable: Vec<u64>,
    covered: Vec<u64>,
    masks: Vec<u64>,
}

/// The cover core: selects a minimum-cardinality set of columns covering
/// every coverable item and writes the selected column indices, sorted,
/// into `out`.
///
/// `columns` is a column plane over `num_items` items (stride
/// `ceil(num_items / 64)`; see the module docs) — for the scheduling set,
/// the wordlength compatibility graph's per-resource operation columns.
/// Only columns up to the last non-empty one count as candidates, so
/// resources whose every edge was refined away never push an instance past
/// the exact-search limit.  Up to 64 coverable items the columns are
/// compacted to one word each and covered exactly (at most 28 candidates)
/// or greedily; beyond that the greedy rule runs on the columns directly.
/// The buffers are reused, so the allocator's inner loop runs this once per
/// refinement iteration without growing.
pub fn scheduling_set_with_scratch(
    num_items: usize,
    columns: &[u64],
    scratch: &mut CoverScratch,
    out: &mut Vec<usize>,
) {
    out.clear();
    let stride = num_items.div_ceil(64);
    if stride == 0 {
        return;
    }
    let num_columns = columns
        .chunks_exact(stride)
        .rposition(|col| col.iter().any(|&w| w != 0))
        .map_or(0, |last| last + 1);
    let columns = &columns[..num_columns * stride];
    let CoverScratch {
        coverable,
        covered,
        masks,
    } = scratch;
    coverable.clear();
    coverable.resize(stride, 0);
    for col in columns.chunks_exact(stride) {
        for (c, &w) in coverable.iter_mut().zip(col) {
            *c |= w;
        }
    }
    let num_coverable: usize = coverable.iter().map(|w| w.count_ones() as usize).sum();
    if num_coverable == 0 {
        return;
    }
    if num_coverable > EXACT_COVER_ITEM_LIMIT {
        greedy_cover_columns(columns, stride, coverable, covered, out);
        return;
    }
    // Bit position of an item: its rank among the coverable items.
    masks.clear();
    masks.extend(columns.chunks_exact(stride).map(|col| {
        let mut mask = 0u64;
        let mut base = 0;
        for (&c, &cov) in col.iter().zip(coverable.iter()) {
            let mut bits = c;
            while bits != 0 {
                let below = (bits & bits.wrapping_neg()) - 1;
                mask |= 1 << (base + (cov & below).count_ones());
                bits &= bits - 1;
            }
            base += cov.count_ones();
        }
        mask
    }));
    let full: u64 = if num_coverable == 64 {
        u64::MAX
    } else {
        (1u64 << num_coverable) - 1
    };
    let chosen = if num_columns <= EXACT_COVER_CANDIDATE_LIMIT {
        exact_cover(full, masks)
    } else {
        greedy_cover(full, masks)
    };
    out.extend_from_slice(&chosen);
}

/// The classic greedy set-cover heuristic for instances with more items
/// than a 64-bit mask can hold: the selection rule of [`greedy_cover`]
/// (most newly-covered items wins, ties to the highest-indexed column) run
/// word by word over the column plane.  Writes the sorted selection into
/// `chosen`, which must be empty.
fn greedy_cover_columns(
    columns: &[u64],
    stride: usize,
    coverable: &[u64],
    covered: &mut Vec<u64>,
    chosen: &mut Vec<usize>,
) {
    covered.clear();
    covered.resize(stride, 0);
    while covered.as_slice() != coverable {
        // An uncovered coverable item lies in some column not chosen yet,
        // so the winner covers at least one new item; chosen columns cover
        // none and can never win.
        let (best, _) = columns
            .chunks_exact(stride)
            .enumerate()
            .map(|(j, col)| {
                let new: u32 = col
                    .iter()
                    .zip(covered.iter())
                    .map(|(&c, &v)| (c & !v).count_ones())
                    .sum();
                (j, new)
            })
            .max_by_key(|&(_, new)| new)
            .expect("an uncovered item has a column");
        for (v, &c) in covered.iter_mut().zip(&columns[best * stride..][..stride]) {
            *v |= c;
        }
        chosen.push(best);
    }
    chosen.sort_unstable();
}

fn greedy_cover(full: u64, masks: &[u64]) -> Vec<usize> {
    let mut covered = 0u64;
    let mut chosen = Vec::new();
    while covered != full {
        let best = (0..masks.len())
            .filter(|&j| !chosen.contains(&j))
            .max_by_key(|&j| (masks[j] & !covered).count_ones());
        match best {
            Some(j) if (masks[j] & !covered) != 0 => {
                covered |= masks[j];
                chosen.push(j);
            }
            _ => break,
        }
    }
    chosen.sort_unstable();
    chosen
}

fn exact_cover(full: u64, masks: &[u64]) -> Vec<usize> {
    // Greedy solution as the initial incumbent / upper bound.
    let mut best = greedy_cover(full, masks);
    let mut best_len = best.len();

    // Order candidates by decreasing coverage for better pruning.
    let mut order: Vec<usize> = (0..masks.len()).collect();
    order.sort_by_key(|&j| std::cmp::Reverse(masks[j].count_ones()));

    /// Immutable search context shared by every branch-and-bound node.
    struct Search<'a> {
        order: &'a [usize],
        masks: &'a [u64],
        full: u64,
    }

    fn recurse(
        s: &Search<'_>,
        pos: usize,
        covered: u64,
        chosen: &mut Vec<usize>,
        best: &mut Vec<usize>,
        best_len: &mut usize,
    ) {
        let Search { order, masks, full } = *s;
        if covered == full {
            if chosen.len() < *best_len {
                *best_len = chosen.len();
                *best = chosen.clone();
            }
            return;
        }
        if pos >= order.len() {
            return;
        }
        // Lower bound: remaining items / largest remaining candidate size.
        let remaining = (full & !covered).count_ones() as usize;
        let largest = order[pos..]
            .iter()
            .map(|&j| (masks[j] & !covered).count_ones() as usize)
            .max()
            .unwrap_or(0);
        if largest == 0 {
            return;
        }
        let lower = remaining.div_ceil(largest);
        if chosen.len() + lower >= *best_len {
            return;
        }
        // Branch: pick an uncovered item and try every candidate covering it.
        let uncovered_bit = (full & !covered).trailing_zeros();
        for &j in &order[pos..] {
            if masks[j] & (1u64 << uncovered_bit) == 0 {
                continue;
            }
            chosen.push(j);
            recurse(s, pos, covered | masks[j], chosen, best, best_len);
            chosen.pop();
        }
    }

    let search = Search {
        order: &order,
        masks,
        full,
    };
    let mut chosen = Vec::new();
    recurse(&search, 0, 0, &mut chosen, &mut best, &mut best_len);
    best.sort_unstable();
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    fn covers_all(num_items: usize, candidates: &[Vec<usize>], chosen: &[usize]) -> bool {
        (0..num_items).all(|item| {
            // item must be covered unless no candidate covers it at all
            let coverable = candidates.iter().any(|c| c.contains(&item));
            !coverable || chosen.iter().any(|&j| candidates[j].contains(&item))
        })
    }

    #[test]
    fn empty_inputs() {
        assert!(minimum_cover(0, &[vec![0]]).is_empty());
        assert!(minimum_cover(3, &[]).is_empty());
        assert!(scheduling_set(&[]).is_empty());
    }

    #[test]
    fn single_candidate_covering_everything() {
        let c = vec![vec![0, 1, 2, 3]];
        assert_eq!(minimum_cover(4, &c), vec![0]);
    }

    #[test]
    fn prefers_one_big_set_over_two_small() {
        let c = vec![vec![0], vec![1], vec![0, 1]];
        assert_eq!(minimum_cover(2, &c), vec![2]);
    }

    #[test]
    fn exact_beats_greedy_on_adversarial_instance() {
        // Classic instance where greedy picks 3 sets but the optimum is 2:
        // items 0..=5; optimal = {0,1,2} and {3,4,5};
        // greedy is lured by {2,3,4,5}... construct so greedy takes the big
        // set first then needs two more.
        let c = vec![
            vec![0, 1, 2],    // A (optimal)
            vec![3, 4, 5],    // B (optimal)
            vec![1, 2, 3, 4], // C (greedy bait)
            vec![0],
            vec![5],
        ];
        let cover = minimum_cover(6, &c);
        assert_eq!(cover.len(), 2);
        assert!(covers_all(6, &c, &cover));
    }

    #[test]
    fn uncoverable_items_are_ignored() {
        let c = vec![vec![0]];
        let cover = minimum_cover(3, &c);
        assert_eq!(cover, vec![0]);
    }

    #[test]
    fn scheduling_set_from_op_candidates() {
        // Three ops; resource 1 covers ops 0 and 1; resource 0 covers op 2.
        let ops = vec![vec![0, 1], vec![1], vec![0]];
        let s = scheduling_set(&ops);
        assert_eq!(s, vec![0, 1]);
    }

    #[test]
    fn scheduling_set_single_resource_suffices() {
        // All ops can use resource 3 (the biggest): scheduling set = {3}.
        let ops = vec![vec![0, 3], vec![1, 3], vec![2, 3]];
        assert_eq!(scheduling_set(&ops), vec![3]);
    }

    /// Packs per-candidate item lists into a column plane.
    fn columns_of(num_items: usize, candidates: &[Vec<usize>]) -> Vec<u64> {
        let stride = num_items.div_ceil(64);
        let mut columns = vec![0u64; candidates.len() * stride];
        for (j, set) in candidates.iter().enumerate() {
            for &item in set {
                columns[j * stride + item / 64] |= 1 << (item % 64);
            }
        }
        columns
    }

    /// Deterministic xorshift stream: `next(m)` is uniform-ish in `0..m`.
    fn xorshift(mut state: u64) -> impl FnMut(u64) -> u64 {
        move |m| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state % m
        }
    }

    /// The column-plane entry point on a reused scratch selects exactly what
    /// `scheduling_set` selects over the transposed per-op candidate lists,
    /// however many empty columns trail the plane.
    #[test]
    fn column_plane_matches_candidate_lists_on_random_instances() {
        let mut next = xorshift(0xdead_beef);
        let mut scratch = CoverScratch::default();
        let mut out = Vec::new();
        for _ in 0..60 {
            let num_ops = 1 + next(12) as usize;
            let num_resources = 1 + next(8) as usize;
            let op_candidates: Vec<Vec<usize>> = (0..num_ops)
                .map(|_| (0..num_resources).filter(|_| next(3) != 0).collect())
                .collect();
            let mut covers: Vec<Vec<usize>> = vec![Vec::new(); num_resources];
            for (op, cands) in op_candidates.iter().enumerate() {
                for &r in cands {
                    covers[r].push(op);
                }
            }
            covers.extend((0..next(3)).map(|_| Vec::new()));
            let columns = columns_of(num_ops, &covers);
            scheduling_set_with_scratch(num_ops, &columns, &mut scratch, &mut out);
            assert_eq!(out, scheduling_set(&op_candidates), "{op_candidates:?}");
        }
        // Degenerate shapes.
        scheduling_set_with_scratch(0, &[], &mut scratch, &mut out);
        assert!(out.is_empty());
        scheduling_set_with_scratch(3, &[], &mut scratch, &mut out);
        assert!(out.is_empty());
        scheduling_set_with_scratch(2, &[0, 0], &mut scratch, &mut out);
        assert!(out.is_empty());
    }

    /// Emptied trailing rows do not count against the exact-search limit:
    /// 28 non-empty candidates plus one empty one still get the minimum
    /// cover, where greedy takes three sets.
    #[test]
    fn trailing_empty_rows_keep_the_exact_cover() {
        let mut candidates = vec![
            vec![0, 1, 2],    // optimal
            vec![3, 4, 5],    // optimal
            vec![1, 2, 3, 4], // greedy bait
            vec![0],
            vec![5],
        ];
        candidates.extend((0..23).map(|_| vec![0]));
        candidates.push(Vec::new());
        assert_eq!(candidates.len(), EXACT_COVER_CANDIDATE_LIMIT + 1);
        assert_eq!(minimum_cover(6, &candidates), vec![0, 1]);
        let mut out = Vec::new();
        let columns = columns_of(6, &candidates);
        scheduling_set_with_scratch(6, &columns, &mut CoverScratch::default(), &mut out);
        assert_eq!(out, vec![0, 1]);
        // One more non-empty candidate crosses the limit: greedy.
        candidates.pop();
        candidates.push(vec![0]);
        assert_eq!(minimum_cover(6, &candidates).len(), 3);
    }

    /// More than 64 coverable items exceeds the 64-bit mask representation:
    /// the column-plane greedy must take over and still produce a valid
    /// cover (this used to shift-overflow).
    #[test]
    fn more_than_64_items_use_the_column_greedy() {
        let num_items = 70;
        let mut candidates: Vec<Vec<usize>> = (0..num_items).map(|i| vec![i]).collect();
        candidates.push((0..num_items).collect());
        let cover = minimum_cover(num_items, &candidates);
        assert!(covers_all(num_items, &candidates, &cover));
        assert_eq!(cover, vec![num_items]); // the big candidate wins
        let split: Vec<Vec<usize>> = {
            let mut c: Vec<Vec<usize>> = (0..num_items).map(|i| vec![i]).collect();
            c.push((0..40).collect());
            c.push((40..num_items).collect());
            c
        };
        // Two medium sets beat seventy singletons.
        let cover = minimum_cover(num_items, &split);
        assert!(covers_all(num_items, &split, &cover));
        assert_eq!(cover, vec![num_items, num_items + 1]);
    }

    /// The greedy rule spelled out over item lists: most newly covered
    /// items wins, ties go to the highest index.
    fn naive_greedy(num_items: usize, candidates: &[Vec<usize>]) -> Vec<usize> {
        let mut covered = vec![false; num_items];
        let mut chosen = Vec::new();
        loop {
            let gain =
                |j: usize, covered: &[bool]| candidates[j].iter().filter(|&&i| !covered[i]).count();
            let Some(best) = (0..candidates.len()).max_by_key(|&j| gain(j, &covered)) else {
                break;
            };
            if gain(best, &covered) == 0 {
                break;
            }
            for &i in &candidates[best] {
                covered[i] = true;
            }
            chosen.push(best);
        }
        chosen.sort_unstable();
        chosen
    }

    /// Above 64 items the multi-word greedy follows the list rule exactly,
    /// across word boundaries and with ties.
    #[test]
    fn column_greedy_matches_the_list_rule_above_64_items() {
        let mut next = xorshift(0x5eed_1234);
        for _ in 0..30 {
            let num_items = 65 + next(100) as usize;
            let num_sets = 1 + next(40) as usize;
            let density = 2 + next(10);
            let candidates: Vec<Vec<usize>> = (0..num_sets)
                .map(|_| (0..num_items).filter(|_| next(density) == 0).collect())
                .collect();
            let coverable = (0..num_items)
                .filter(|i| candidates.iter().any(|c| c.contains(i)))
                .count();
            let cover = minimum_cover(num_items, &candidates);
            assert!(covers_all(num_items, &candidates, &cover));
            if coverable > EXACT_COVER_ITEM_LIMIT {
                assert_eq!(cover, naive_greedy(num_items, &candidates));
            }
        }
    }

    #[test]
    fn greedy_path_used_for_large_instances() {
        // More candidates than the exact limit: still returns a valid cover.
        let num_items = 40;
        let mut candidates: Vec<Vec<usize>> = (0..num_items).map(|i| vec![i]).collect();
        candidates.push((0..num_items).collect());
        let cover = minimum_cover(num_items, &candidates);
        assert!(covers_all(num_items, &candidates, &cover));
        assert_eq!(cover, vec![num_items]); // the big candidate wins
    }

    #[test]
    fn exact_matches_brute_force_on_small_random_instances() {
        // Deterministic pseudo-random small instances; compare with brute force.
        let mut state = 0x1234_5678u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for _ in 0..30 {
            let items = 6;
            let nsets = 6;
            let candidates: Vec<Vec<usize>> = (0..nsets)
                .map(|_| (0..items).filter(|_| next() % 3 == 0).collect())
                .collect();
            let chosen = minimum_cover(items, &candidates);
            // Brute force minimal cardinality over coverable items.
            let coverable: Vec<usize> = (0..items)
                .filter(|&i| candidates.iter().any(|c| c.contains(&i)))
                .collect();
            let mut best = usize::MAX;
            for mask in 0u32..(1 << nsets) {
                let sel: Vec<usize> = (0..nsets).filter(|&j| mask & (1 << j) != 0).collect();
                if coverable
                    .iter()
                    .all(|&i| sel.iter().any(|&j| candidates[j].contains(&i)))
                {
                    best = best.min(sel.len());
                }
            }
            if best == usize::MAX {
                assert!(chosen.is_empty());
            } else {
                assert_eq!(chosen.len(), best, "candidates: {candidates:?}");
            }
            assert!(covers_all(items, &candidates, &chosen));
        }
    }
}
