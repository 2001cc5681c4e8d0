//! Resource-constraint strategies for list scheduling.
//!
//! The list scheduler is generic over a [`ResourceConstraint`]; three
//! strategies are provided:
//!
//! * [`Unbounded`] — no limits (list scheduling degenerates to ASAP);
//! * [`PerClassBound`] — the standard constraint of Eqn (2): at every control
//!   step, no more than `N_y` operations of type `y` execute simultaneously;
//! * [`SchedulingSetBound`] — the paper's constraint of Eqn (3), which uses
//!   the incomplete wordlength information of the compatibility graph.  For
//!   every type `y` it requires
//!   `Σ_{s ∈ S_y} max_t Σ_{o ∈ O(s)} e_{o,t} / |S(o)|  ≤  N_y`,
//!   i.e. operations that could be executed by several scheduling-set members
//!   share their usage equally between those members, and each member
//!   contributes its peak usage to the type total.

use std::cell::Cell;
use std::collections::BTreeMap;

use mwl_model::{Cycles, OpId, ResourceClass};

/// Numerical slack used when comparing fractional resource usage.
const EPSILON: f64 = 1e-9;

const WORD_BITS: usize = u64::BITS as usize;

#[inline]
fn words_for(bits: usize) -> usize {
    bits.div_ceil(WORD_BITS)
}

#[inline]
fn bit_is_set(words: &[u64], bit: usize) -> bool {
    words[bit / WORD_BITS] >> (bit % WORD_BITS) & 1 == 1
}

/// A pluggable admission policy consulted by the list scheduler before
/// placing an operation at a control step.
///
/// Implementations carry their own bookkeeping of already-committed
/// placements.  The scheduler guarantees that it calls [`commit`] exactly
/// once for every placement it makes, immediately after a successful
/// [`admits`] query with the same arguments.
///
/// [`admits`]: ResourceConstraint::admits
/// [`commit`]: ResourceConstraint::commit
pub trait ResourceConstraint {
    /// Returns `true` if the operation may start at `step` and occupy
    /// `latency` control steps without violating the constraint, given all
    /// previously committed placements.
    fn admits(&self, op: OpId, step: Cycles, latency: Cycles) -> bool;

    /// Records the placement of an operation.
    fn commit(&mut self, op: OpId, step: Cycles, latency: Cycles);

    /// Returns `true` if the operation could be admitted at *some* step in an
    /// otherwise empty schedule.  Used to distinguish "temporarily blocked"
    /// from "permanently impossible".
    fn admissible_at_all(&self, op: OpId, latency: Cycles) -> bool {
        // Default: being admitted at a far-future step of an empty timeline
        // is representative.  Implementations with history-dependent
        // constraints should override this.
        let _ = (op, latency);
        true
    }
}

/// A mutable reference forwards to the referenced constraint, letting a
/// caller keep ownership of a constraint whose buffers are reused across
/// scheduler invocations (see [`DenseSchedulingSetBound`]).
impl<C: ResourceConstraint + ?Sized> ResourceConstraint for &mut C {
    fn admits(&self, op: OpId, step: Cycles, latency: Cycles) -> bool {
        (**self).admits(op, step, latency)
    }

    fn commit(&mut self, op: OpId, step: Cycles, latency: Cycles) {
        (**self).commit(op, step, latency)
    }

    fn admissible_at_all(&self, op: OpId, latency: Cycles) -> bool {
        (**self).admissible_at_all(op, latency)
    }
}

/// No resource constraint: every operation is admitted immediately.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Unbounded;

impl Unbounded {
    /// Creates the unbounded policy.
    #[must_use]
    pub fn new() -> Self {
        Unbounded
    }
}

impl ResourceConstraint for Unbounded {
    fn admits(&self, _op: OpId, _step: Cycles, _latency: Cycles) -> bool {
        true
    }

    fn commit(&mut self, _op: OpId, _step: Cycles, _latency: Cycles) {}
}

/// The standard resource constraint of Eqn (2): at most `N_y` operations of
/// class `y` execute during any control step.
#[derive(Debug, Clone)]
pub struct PerClassBound {
    /// Class of every operation, indexed by [`OpId`].
    op_classes: Vec<ResourceClass>,
    /// Bound per class; classes missing from the map are unbounded.
    bounds: BTreeMap<ResourceClass, usize>,
    /// Committed placements: `(start, end, class)`.
    committed: Vec<(Cycles, Cycles, ResourceClass)>,
}

impl PerClassBound {
    /// Creates the policy from per-operation classes and per-class bounds.
    /// Classes absent from `bounds` are not constrained.
    #[must_use]
    pub fn new(op_classes: Vec<ResourceClass>, bounds: BTreeMap<ResourceClass, usize>) -> Self {
        PerClassBound {
            op_classes,
            bounds,
            committed: Vec::new(),
        }
    }

    fn usage_at(&self, class: ResourceClass, step: Cycles) -> usize {
        self.committed
            .iter()
            .filter(|&&(s, e, c)| c == class && s <= step && step < e)
            .count()
    }
}

impl ResourceConstraint for PerClassBound {
    fn admits(&self, op: OpId, step: Cycles, latency: Cycles) -> bool {
        let class = self.op_classes[op.index()];
        let Some(&bound) = self.bounds.get(&class) else {
            return true;
        };
        if bound == 0 {
            return false;
        }
        (step..step + latency).all(|t| self.usage_at(class, t) < bound)
    }

    fn commit(&mut self, op: OpId, step: Cycles, latency: Cycles) {
        let class = self.op_classes[op.index()];
        self.committed.push((step, step + latency, class));
    }

    fn admissible_at_all(&self, op: OpId, _latency: Cycles) -> bool {
        let class = self.op_classes[op.index()];
        self.bounds.get(&class).is_none_or(|&b| b > 0)
    }
}

/// Exclusive access to a fixed set of resource instances: every operation is
/// pre-bound to one instance, and no two operations bound to the same
/// instance may overlap in time.
///
/// This is the constraint used when *re*-scheduling an already-bound
/// datapath — e.g. the post-bind instance-merging pass, which serialises the
/// cliques of coalesced instances back-to-back — where the binding is data,
/// not a per-class head count.
#[derive(Debug, Clone, Default)]
pub struct PerInstanceExclusive {
    /// Instance index of every operation, indexed by [`OpId`].
    op_instances: Vec<usize>,
    /// Committed busy intervals per instance: `(start, end)`.
    committed: Vec<Vec<(Cycles, Cycles)>>,
}

impl PerInstanceExclusive {
    /// Creates the policy from the per-operation instance assignment.
    /// `num_instances` must exceed every entry of `op_instances`.
    #[must_use]
    pub fn new(op_instances: Vec<usize>, num_instances: usize) -> Self {
        debug_assert!(op_instances.iter().all(|&i| i < num_instances));
        PerInstanceExclusive {
            op_instances,
            committed: vec![Vec::new(); num_instances],
        }
    }

    /// Re-initialises the policy in place, reusing the committed-interval
    /// buffers — the allocation-free counterpart of [`new`](Self::new) for
    /// callers (like the merge pass) that re-schedule many bindings in a
    /// loop.  The result is indistinguishable from a fresh policy.
    pub fn rebuild(&mut self, op_instances: &[usize], num_instances: usize) {
        debug_assert!(op_instances.iter().all(|&i| i < num_instances));
        self.op_instances.clear();
        self.op_instances.extend_from_slice(op_instances);
        self.committed.truncate(num_instances);
        for intervals in &mut self.committed {
            intervals.clear();
        }
        if self.committed.len() < num_instances {
            self.committed.resize_with(num_instances, Vec::new);
        }
    }
}

impl ResourceConstraint for PerInstanceExclusive {
    fn admits(&self, op: OpId, step: Cycles, latency: Cycles) -> bool {
        let end = step + latency;
        self.committed[self.op_instances[op.index()]]
            .iter()
            .all(|&(s, e)| end <= s || e <= step)
    }

    fn commit(&mut self, op: OpId, step: Cycles, latency: Cycles) {
        self.committed[self.op_instances[op.index()]].push((step, step + latency));
    }
}

/// The paper's wordlength-aware constraint of Eqn (3).
///
/// Built from the wordlength compatibility graph: every operation `o` has a
/// set `S(o)` of compatible scheduling-set members; every member `s` has a
/// resource class.  The committed usage of a member `s` during step `t` is
/// `Σ_{o ∈ O(s) active at t} 1/|S(o)|`, and the constraint requires, for each
/// class `y`, that the sum over members of class `y` of their *peak* usage
/// stays within the bound `N_y`.
#[derive(Debug, Clone)]
pub struct SchedulingSetBound {
    /// Class of every operation, indexed by [`OpId`].
    op_classes: Vec<ResourceClass>,
    /// Scheduling-set members compatible with every operation (indices into
    /// `member_classes`), indexed by [`OpId`].
    op_members: Vec<Vec<usize>>,
    /// Resource class of every scheduling-set member.
    member_classes: Vec<ResourceClass>,
    /// Bound per class; classes missing from the map are unbounded.
    bounds: BTreeMap<ResourceClass, usize>,
    /// Per-member load profile over control steps.
    load: Vec<Vec<f64>>,
    /// Per-member peak load so far.
    peak: Vec<f64>,
}

impl SchedulingSetBound {
    /// Creates the policy.
    ///
    /// * `op_classes[i]` — resource class of operation `i`;
    /// * `op_members[i]` — scheduling-set members able to execute operation
    ///   `i` (the paper's `S(o)`), as indices into `member_classes`;
    /// * `member_classes[j]` — class of scheduling-set member `j`;
    /// * `bounds` — `N_y` per class (absent classes are unbounded).
    #[must_use]
    pub fn new(
        op_classes: Vec<ResourceClass>,
        op_members: Vec<Vec<usize>>,
        member_classes: Vec<ResourceClass>,
        bounds: BTreeMap<ResourceClass, usize>,
    ) -> Self {
        let members = member_classes.len();
        SchedulingSetBound {
            op_classes,
            op_members,
            member_classes,
            bounds,
            load: vec![Vec::new(); members],
            peak: vec![0.0; members],
        }
    }

    /// The left-hand side of Eqn (3) for one class, given optional tentative
    /// peaks overriding the committed ones.
    fn class_total(&self, class: ResourceClass, tentative: Option<&[f64]>) -> f64 {
        (0..self.member_classes.len())
            .filter(|&j| self.member_classes[j] == class)
            .map(|j| tentative.map_or(self.peak[j], |t| t[j]))
            .sum()
    }

    /// Current value of the Eqn (3) left-hand side for a class (useful for
    /// diagnostics and tests).
    #[must_use]
    pub fn current_class_total(&self, class: ResourceClass) -> f64 {
        self.class_total(class, None)
    }

    fn member_load_at(&self, member: usize, step: Cycles) -> f64 {
        self.load[member].get(step as usize).copied().unwrap_or(0.0)
    }
}

impl ResourceConstraint for SchedulingSetBound {
    fn admits(&self, op: OpId, step: Cycles, latency: Cycles) -> bool {
        let class = self.op_classes[op.index()];
        let Some(&bound) = self.bounds.get(&class) else {
            return true;
        };
        let members = &self.op_members[op.index()];
        if members.is_empty() {
            return false;
        }
        let share = 1.0 / members.len() as f64;
        // Tentative peaks with this operation placed.
        let mut tentative = self.peak.clone();
        for &m in members {
            let mut new_peak = self.peak[m];
            for t in step..step + latency {
                new_peak = new_peak.max(self.member_load_at(m, t) + share);
            }
            tentative[m] = new_peak;
        }
        self.class_total(class, Some(&tentative)) <= bound as f64 + EPSILON
    }

    fn commit(&mut self, op: OpId, step: Cycles, latency: Cycles) {
        let members = self.op_members[op.index()].clone();
        if members.is_empty() {
            return;
        }
        let share = 1.0 / members.len() as f64;
        let end = (step + latency) as usize;
        for &m in &members {
            if self.load[m].len() < end {
                self.load[m].resize(end, 0.0);
            }
            for t in step as usize..end {
                self.load[m][t] += share;
                if self.load[m][t] > self.peak[m] {
                    self.peak[m] = self.load[m][t];
                }
            }
        }
    }

    fn admissible_at_all(&self, op: OpId, latency: Cycles) -> bool {
        let class = self.op_classes[op.index()];
        let Some(&bound) = self.bounds.get(&class) else {
            return true;
        };
        let members = &self.op_members[op.index()];
        if members.is_empty() || bound == 0 {
            return false;
        }
        // Placing the op in untouched future steps raises each compatible
        // member's peak to at least 1/|S(o)| (if not already higher); the
        // other members keep their current peaks.
        let share = 1.0 / members.len() as f64;
        let mut tentative = self.peak.clone();
        for &m in members {
            tentative[m] = tentative[m].max(share);
        }
        let _ = latency;
        self.class_total(class, Some(&tentative)) <= bound as f64 + EPSILON
    }
}

/// The smallest Eqn (3) total that [`DenseSchedulingSetBound`] rejected
/// against each class's bound since its last
/// [`reset_loads`](DenseSchedulingSetBound::reset_loads).
///
/// A record certifies a schedule for *raised* bounds: every admitted call
/// stays admitted when a bound grows, and every rejected call stays rejected
/// exactly when its total still exceeds the new bound.  If
/// [`still_rejected_under`](Self::still_rejected_under) holds, the list
/// scheduler therefore sees the same answer to every query and repeats its
/// schedule decision for decision.  Rejections of operations with an empty
/// member row do not depend on the bound and are not recorded.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BoundRejections {
    /// Least rejected total per class; `INFINITY` when nothing was rejected.
    least: [f64; ResourceClass::COUNT],
}

impl Default for BoundRejections {
    fn default() -> Self {
        BoundRejections {
            least: [f64::INFINITY; ResourceClass::COUNT],
        }
    }
}

impl BoundRejections {
    /// Returns `true` if every recorded rejection is still a rejection under
    /// `bounds` — the same `total > bound + ε` comparison
    /// [`admits`](ResourceConstraint::admits) makes (`None` = unbounded,
    /// which rejects nothing).
    #[must_use]
    pub fn still_rejected_under(&self, bounds: &[Option<usize>; ResourceClass::COUNT]) -> bool {
        self.least
            .iter()
            .zip(bounds)
            .all(|(&least, bound)| match bound {
                Some(bound) => least > *bound as f64 + EPSILON,
                None => least == f64::INFINITY,
            })
    }

    fn record(&mut self, class: ResourceClass, total: f64) {
        let least = &mut self.least[class.index()];
        if total < *least {
            *least = total;
        }
    }
}

/// The scratch-reusing dense form of [`SchedulingSetBound`], built for the
/// allocator's inner loop.
///
/// Behaviourally **identical** to [`SchedulingSetBound`] — every admission
/// decision performs the same floating-point operations in the same order —
/// but engineered for the steady state of the `DPAlloc` refinement loop:
///
/// * per-class bounds live in a [`ResourceClass::COUNT`]-sized array instead
///   of a `BTreeMap`;
/// * the scheduling-set membership tables (`S(o)` rows, member classes,
///   members-by-class) are owned buffers updated in place — when a
///   refinement deletes wordlength edges of one operation and the scheduling
///   set is unchanged, only that operation's row is rewritten;
/// * [`admits`](ResourceConstraint::admits) is allocation-free: instead of
///   cloning the peak table to overlay tentative peaks, it walks the class's
///   members in index order and substitutes the tentative value on the fly
///   (the summation order, and therefore the rounding, of
///   [`SchedulingSetBound`] is preserved exactly);
/// * [`reset_loads`](Self::reset_loads) clears the committed load profiles
///   without releasing their allocations, so repeated schedules are
///   allocation-free after warm-up;
/// * every bound rejection is recorded in a [`BoundRejections`]
///   ([`rejections`](Self::rejections)), which tells the allocator whether
///   the same schedule would come out under raised bounds.
///
/// Pass `&mut bound` to [`crate::ListScheduler::schedule`] (mutable
/// references forward the [`ResourceConstraint`] impl) so the buffers stay
/// with the caller.
#[derive(Debug, Default)]
pub struct DenseSchedulingSetBound {
    /// Class of every operation, indexed by [`OpId`].
    op_classes: Vec<ResourceClass>,
    /// Bound per class, dense; `None` means unbounded.
    bounds: [Option<usize>; ResourceClass::COUNT],
    /// Resource class of every scheduling-set member.
    member_classes: Vec<ResourceClass>,
    /// Member indices by class, ascending — the iteration domain of the
    /// Eqn (3) left-hand side.
    class_members: [Vec<u32>; ResourceClass::COUNT],
    /// Scheduling-set members compatible with every operation (`S(o)`),
    /// ascending member indices, indexed by [`OpId`].  Kept for the share
    /// denominator `|S(o)|` and as the readable form of the rows.
    rows: Vec<Vec<u32>>,
    /// Dense membership: bit `j` of row `o` is set iff member `j` ∈ `S(o)`.
    /// Flat, stride `row_words` — the membership probe inside
    /// [`admits`](ResourceConstraint::admits) is a single bit test instead
    /// of a binary search, while the class-member walk (and therefore the
    /// FP summation order) is unchanged.
    row_bits: Vec<u64>,
    /// Words per `row_bits` row (`ceil(members / 64)`).
    row_words: usize,
    /// Per-member load profile over control steps.
    load: Vec<Vec<f64>>,
    /// Per-member peak load so far.
    peak: Vec<f64>,
    /// Bound rejections since the last reset (a `Cell`, because
    /// [`admits`](ResourceConstraint::admits) takes `&self`).
    rejections: Cell<BoundRejections>,
}

impl DenseSchedulingSetBound {
    /// Creates an empty constraint; configure it with
    /// [`reset_problem`](Self::reset_problem), [`set_members`](Self::set_members)
    /// and [`set_row`](Self::set_row).
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Begins a new scheduling problem: copies the per-operation classes and
    /// installs the dense per-class bounds (`None` = unbounded).  Membership
    /// tables and load state are configured separately so they can survive
    /// across refinement iterations.
    pub fn reset_problem(
        &mut self,
        op_classes: &[ResourceClass],
        bounds: [Option<usize>; ResourceClass::COUNT],
    ) {
        self.op_classes.clear();
        self.op_classes.extend_from_slice(op_classes);
        self.bounds = bounds;
        if self.rows.len() < op_classes.len() {
            self.rows.resize_with(op_classes.len(), Vec::new);
        }
        for row in &mut self.rows {
            row.clear();
        }
        self.row_bits.clear();
    }

    /// Replaces the scheduling-set member classes (invalidating every row —
    /// rewrite them with [`set_row`](Self::set_row)).
    pub fn set_members(&mut self, classes: impl Iterator<Item = ResourceClass>) {
        self.member_classes.clear();
        self.member_classes.extend(classes);
        for list in &mut self.class_members {
            list.clear();
        }
        for (j, c) in self.member_classes.iter().enumerate() {
            self.class_members[c.index()].push(j as u32);
        }
        let members = self.member_classes.len();
        if self.load.len() < members {
            self.load.resize_with(members, Vec::new);
        }
        if self.peak.len() < members {
            self.peak.resize(members, 0.0);
        }
        self.row_words = words_for(members);
        self.row_bits.clear();
        self.row_bits
            .resize(self.op_classes.len() * self.row_words, 0);
    }

    /// Rewrites one operation's member row `S(o)` (ascending member
    /// indices).
    pub fn set_row(&mut self, op: OpId, members: impl Iterator<Item = usize>) {
        let row = &mut self.rows[op.index()];
        row.clear();
        row.extend(members.map(|j| j as u32));
        let bits = &mut self.row_bits[op.index() * self.row_words..][..self.row_words];
        bits.fill(0);
        for &j in row.iter() {
            bits[j as usize / WORD_BITS] |= 1 << (j as usize % WORD_BITS);
        }
    }

    /// Clears all committed load, peaks and recorded rejections, keeping
    /// every buffer allocation — call before each schedule.
    pub fn reset_loads(&mut self) {
        for profile in &mut self.load {
            profile.clear();
        }
        for peak in &mut self.peak {
            *peak = 0.0;
        }
        self.rejections.set(BoundRejections::default());
    }

    /// The bound rejections of the queries since the last
    /// [`reset_loads`](Self::reset_loads).
    #[must_use]
    pub fn rejections(&self) -> BoundRejections {
        self.rejections.get()
    }

    #[inline]
    fn load_at(&self, member: usize, step: Cycles) -> f64 {
        self.load[member].get(step as usize).copied().unwrap_or(0.0)
    }
}

impl ResourceConstraint for DenseSchedulingSetBound {
    #[inline]
    fn admits(&self, op: OpId, step: Cycles, latency: Cycles) -> bool {
        let class = self.op_classes[op.index()];
        let Some(bound) = self.bounds[class.index()] else {
            return true;
        };
        let row = &self.rows[op.index()];
        if row.is_empty() {
            return false;
        }
        let share = 1.0 / row.len() as f64;
        let bits = &self.row_bits[op.index() * self.row_words..][..self.row_words];
        // The Eqn (3) left-hand side with this op tentatively placed: walk
        // the class's members in index order (the same order, and therefore
        // the same rounding, as SchedulingSetBound::class_total) overlaying
        // the tentative peak of the op's own members on the fly.  Membership
        // is a bit probe into the dense row.
        let mut total = 0.0f64;
        for &j in &self.class_members[class.index()] {
            let m = j as usize;
            let value = if bit_is_set(bits, m) {
                let mut new_peak = self.peak[m];
                for t in step..step + latency {
                    new_peak = new_peak.max(self.load_at(m, t) + share);
                }
                new_peak
            } else {
                self.peak[m]
            };
            total += value;
        }
        if total <= bound as f64 + EPSILON {
            return true;
        }
        let mut rejections = self.rejections.get();
        rejections.record(class, total);
        self.rejections.set(rejections);
        false
    }

    fn commit(&mut self, op: OpId, step: Cycles, latency: Cycles) {
        let row_len = self.rows[op.index()].len();
        if row_len == 0 {
            return;
        }
        let share = 1.0 / row_len as f64;
        let end = (step + latency) as usize;
        for k in 0..row_len {
            let m = self.rows[op.index()][k] as usize;
            if self.load[m].len() < end {
                self.load[m].resize(end, 0.0);
            }
            for t in step as usize..end {
                self.load[m][t] += share;
                if self.load[m][t] > self.peak[m] {
                    self.peak[m] = self.load[m][t];
                }
            }
        }
    }

    fn admissible_at_all(&self, op: OpId, latency: Cycles) -> bool {
        let class = self.op_classes[op.index()];
        let Some(bound) = self.bounds[class.index()] else {
            return true;
        };
        let row = &self.rows[op.index()];
        if row.is_empty() || bound == 0 {
            return false;
        }
        let share = 1.0 / row.len() as f64;
        let bits = &self.row_bits[op.index() * self.row_words..][..self.row_words];
        let mut total = 0.0f64;
        for &j in &self.class_members[class.index()] {
            let m = j as usize;
            let value = if bit_is_set(bits, m) {
                self.peak[m].max(share)
            } else {
                self.peak[m]
            };
            total += value;
        }
        let _ = latency;
        total <= bound as f64 + EPSILON
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn id(i: u32) -> OpId {
        OpId::new(i)
    }

    #[test]
    fn unbounded_admits_everything() {
        let mut u = Unbounded::new();
        assert!(u.admits(id(0), 0, 5));
        u.commit(id(0), 0, 5);
        assert!(u.admits(id(1), 0, 5));
        assert!(u.admissible_at_all(id(1), 3));
    }

    #[test]
    fn per_class_bound_limits_concurrency() {
        let classes = vec![ResourceClass::Multiplier, ResourceClass::Multiplier];
        let bounds = BTreeMap::from([(ResourceClass::Multiplier, 1)]);
        let mut c = PerClassBound::new(classes, bounds);
        assert!(c.admits(id(0), 0, 3));
        c.commit(id(0), 0, 3);
        assert!(!c.admits(id(1), 0, 2));
        assert!(!c.admits(id(1), 2, 2));
        assert!(c.admits(id(1), 3, 2));
        assert!(c.admissible_at_all(id(1), 2));
    }

    #[test]
    fn per_class_bound_ignores_other_classes() {
        let classes = vec![ResourceClass::Multiplier, ResourceClass::Adder];
        let bounds = BTreeMap::from([(ResourceClass::Multiplier, 1)]);
        let mut c = PerClassBound::new(classes, bounds);
        c.commit(id(0), 0, 3);
        // The adder is unconstrained (no entry in the bound map).
        assert!(c.admits(id(1), 0, 3));
    }

    #[test]
    fn per_class_zero_bound_rejects_forever() {
        let classes = vec![ResourceClass::Adder];
        let bounds = BTreeMap::from([(ResourceClass::Adder, 0)]);
        let c = PerClassBound::new(classes, bounds);
        assert!(!c.admits(id(0), 10, 1));
        assert!(!c.admissible_at_all(id(0), 1));
    }

    /// Reproduces the paper's Fig. 2 discussion: after deleting the edge
    /// between `o1` and the large multiplier, one multiplier resource is no
    /// longer enough even though the operations never overlap in time.
    #[test]
    fn eqn3_rejects_single_multiplier_after_edge_deletion() {
        // Two multiplications; members: 0 = small multiplier, 1 = large.
        let op_classes = vec![ResourceClass::Multiplier, ResourceClass::Multiplier];
        let member_classes = vec![ResourceClass::Multiplier, ResourceClass::Multiplier];
        // o0 can only use the small member, o1 only the large member.
        let op_members = vec![vec![0], vec![1]];
        let bounds = BTreeMap::from([(ResourceClass::Multiplier, 1)]);
        let mut c = SchedulingSetBound::new(op_classes, op_members, member_classes, bounds);
        assert!(c.admits(id(0), 0, 3));
        c.commit(id(0), 0, 3);
        // Even though o1 would run later (no time overlap), admitting it
        // would need a second multiplier: sum of member peaks = 2 > 1.
        assert!(!c.admits(id(1), 5, 3));
        assert!(!c.admissible_at_all(id(1), 3));
    }

    #[test]
    fn eqn3_degenerates_to_eqn2_with_single_member() {
        // Both ops can use the single big member: constraint behaves like a
        // concurrency bound of 1.
        let op_classes = vec![ResourceClass::Multiplier, ResourceClass::Multiplier];
        let member_classes = vec![ResourceClass::Multiplier];
        let op_members = vec![vec![0], vec![0]];
        let bounds = BTreeMap::from([(ResourceClass::Multiplier, 1)]);
        let mut c = SchedulingSetBound::new(op_classes, op_members, member_classes, bounds);
        assert!(c.admits(id(0), 0, 3));
        c.commit(id(0), 0, 3);
        assert!(!c.admits(id(1), 1, 3)); // overlap -> rejected
        assert!(c.admits(id(1), 3, 3)); // sequential -> accepted
        c.commit(id(1), 3, 3);
        assert!((c.current_class_total(ResourceClass::Multiplier) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn eqn3_fractional_sharing_allows_flexible_ops() {
        // Two members; op0 and op1 can use either member (|S(o)| = 2), so
        // each contributes 0.5 to each member.  Under a bound of one
        // multiplier the two flexible operations may run sequentially (class
        // total stays at 1.0) but not concurrently (total would reach 2.0).
        let op_classes = vec![ResourceClass::Multiplier, ResourceClass::Multiplier];
        let member_classes = vec![ResourceClass::Multiplier, ResourceClass::Multiplier];
        let op_members = vec![vec![0, 1], vec![0, 1]];
        let bounds = BTreeMap::from([(ResourceClass::Multiplier, 1)]);
        let mut c = SchedulingSetBound::new(op_classes, op_members, member_classes, bounds);
        assert!(c.admits(id(0), 0, 2));
        c.commit(id(0), 0, 2);
        assert!((c.current_class_total(ResourceClass::Multiplier) - 1.0).abs() < 1e-9);
        assert!(!c.admits(id(1), 0, 2)); // concurrent -> total 2.0 > 1
        assert!(c.admits(id(1), 2, 2)); // sequential -> total stays 1.0
        c.commit(id(1), 2, 2);
        assert!((c.current_class_total(ResourceClass::Multiplier) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn eqn3_is_at_least_as_strict_as_eqn2() {
        // Any placement admitted by Eqn 3 must also be admitted by Eqn 2 with
        // the same bounds (the paper: Eqn 3 is at least as strict).
        let op_classes = vec![ResourceClass::Multiplier; 4];
        let member_classes = vec![ResourceClass::Multiplier, ResourceClass::Multiplier];
        let op_members = vec![vec![0], vec![0, 1], vec![1], vec![0, 1]];
        let bounds = BTreeMap::from([(ResourceClass::Multiplier, 2)]);
        let mut eqn3 = SchedulingSetBound::new(
            op_classes.clone(),
            op_members,
            member_classes,
            bounds.clone(),
        );
        let mut eqn2 = PerClassBound::new(op_classes, bounds);
        let placements = [(0u32, 0u32, 2u32), (1, 0, 2), (2, 2, 2), (3, 2, 2)];
        for &(op, step, lat) in &placements {
            if eqn3.admits(id(op), step, lat) {
                assert!(
                    eqn2.admits(id(op), step, lat),
                    "Eqn3 admitted a placement Eqn2 rejects"
                );
                eqn3.commit(id(op), step, lat);
                eqn2.commit(id(op), step, lat);
            }
        }
    }

    #[test]
    fn eqn3_unlisted_class_is_unbounded() {
        let op_classes = vec![ResourceClass::Adder];
        let member_classes = vec![ResourceClass::Adder];
        let op_members = vec![vec![0]];
        let bounds = BTreeMap::from([(ResourceClass::Multiplier, 1)]);
        let c = SchedulingSetBound::new(op_classes, op_members, member_classes, bounds);
        assert!(c.admits(id(0), 0, 2));
        assert!(c.admissible_at_all(id(0), 2));
    }

    /// Builds the dense twin of a [`SchedulingSetBound`] configuration.
    fn dense_twin(
        op_classes: &[ResourceClass],
        op_members: &[Vec<usize>],
        member_classes: &[ResourceClass],
        bounds: &BTreeMap<ResourceClass, usize>,
    ) -> DenseSchedulingSetBound {
        let mut dense_bounds = [None; ResourceClass::COUNT];
        for (&c, &b) in bounds {
            dense_bounds[c.index()] = Some(b);
        }
        let mut dense = DenseSchedulingSetBound::new();
        dense.reset_problem(op_classes, dense_bounds);
        dense.set_members(member_classes.iter().copied());
        for (i, row) in op_members.iter().enumerate() {
            dense.set_row(id(i as u32), row.iter().copied());
        }
        dense
    }

    /// The dense constraint must agree with [`SchedulingSetBound`] decision
    /// for decision, including near the fractional-sharing boundary.
    #[test]
    fn dense_bound_matches_sparse_bound_decision_for_decision() {
        let op_classes = vec![
            ResourceClass::Multiplier,
            ResourceClass::Multiplier,
            ResourceClass::Multiplier,
            ResourceClass::Adder,
            ResourceClass::Multiplier,
        ];
        let member_classes = vec![
            ResourceClass::Multiplier,
            ResourceClass::Multiplier,
            ResourceClass::Adder,
        ];
        let op_members = vec![vec![0], vec![0, 1], vec![1], vec![2], vec![0, 1]];
        let bounds = BTreeMap::from([(ResourceClass::Multiplier, 2), (ResourceClass::Adder, 1)]);
        let mut sparse = SchedulingSetBound::new(
            op_classes.clone(),
            op_members.clone(),
            member_classes.clone(),
            bounds.clone(),
        );
        let mut dense = dense_twin(&op_classes, &op_members, &member_classes, &bounds);

        // Deterministic pseudo-random probe sequence.
        let mut state = 0x9e37_79b9u64;
        let mut next = move |m: u64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state % m
        };
        for _ in 0..400 {
            let op = id(next(op_classes.len() as u64) as u32);
            let step = next(6) as Cycles;
            let latency = 1 + next(3) as Cycles;
            let a = sparse.admits(op, step, latency);
            let b = dense.admits(op, step, latency);
            assert_eq!(a, b, "admits diverged for {op:?} @ {step}+{latency}");
            assert_eq!(
                sparse.admissible_at_all(op, latency),
                dense.admissible_at_all(op, latency)
            );
            if a && next(2) == 0 {
                sparse.commit(op, step, latency);
                dense.commit(op, step, latency);
            }
        }
    }

    /// `reset_loads` restores a fresh dense constraint (buffers reused, not
    /// state), recorded rejections included.
    #[test]
    fn dense_bound_reset_clears_committed_load() {
        let op_classes = vec![ResourceClass::Multiplier, ResourceClass::Multiplier];
        let member_classes = vec![ResourceClass::Multiplier];
        let op_members = vec![vec![0], vec![0]];
        let bounds = BTreeMap::from([(ResourceClass::Multiplier, 1)]);
        let mut dense = dense_twin(&op_classes, &op_members, &member_classes, &bounds);
        assert!(dense.admits(id(0), 0, 3));
        dense.commit(id(0), 0, 3);
        assert!(!dense.admits(id(1), 1, 3));
        assert_ne!(dense.rejections(), BoundRejections::default());
        dense.reset_loads();
        assert_eq!(dense.rejections(), BoundRejections::default());
        assert!(dense.admits(id(1), 1, 3));
        // A mutable reference forwards the constraint unchanged.
        let via_ref: &mut DenseSchedulingSetBound = &mut dense;
        assert!(via_ref.admits(id(1), 1, 3));
    }

    /// The least rejected total recorded for a class, if any.
    fn least(dense: &DenseSchedulingSetBound, class: ResourceClass) -> Option<f64> {
        Some(dense.rejections().least[class.index()]).filter(|t| t.is_finite())
    }

    /// A bound rejection records its Eqn (3) total, the least one is kept,
    /// and admitted queries record nothing.
    #[test]
    fn dense_bound_records_the_least_rejected_total() {
        // Bound 1; ops 0 and 1 use member 0 only, op 2 either member.
        let op_classes = vec![ResourceClass::Multiplier; 3];
        let member_classes = vec![ResourceClass::Multiplier, ResourceClass::Multiplier];
        let op_members = vec![vec![0], vec![0], vec![0, 1]];
        let bounds = BTreeMap::from([(ResourceClass::Multiplier, 1)]);
        let mut dense = dense_twin(&op_classes, &op_members, &member_classes, &bounds);
        let mul = ResourceClass::Multiplier;
        assert!(dense.admits(id(0), 0, 3));
        dense.commit(id(0), 0, 3);
        assert_eq!(least(&dense, mul), None);

        assert!(!dense.admits(id(1), 1, 2)); // 2.0 + 0.0
        assert_eq!(least(&dense, mul), Some(2.0));
        assert!(!dense.admits(id(2), 5, 1)); // 1.0 + 0.5: the new least
        assert_eq!(least(&dense, mul), Some(1.5));
        assert!(!dense.admits(id(2), 0, 1)); // 1.5 + 0.5: the least stays
        assert_eq!(least(&dense, mul), Some(1.5));
        assert!(dense.admits(id(1), 3, 1)); // admitted: no record
        assert_eq!(least(&dense, mul), Some(1.5));
        assert_eq!(least(&dense, ResourceClass::Adder), None);
    }

    /// A record certifies raised bounds only while every recorded total
    /// still exceeds the new bound by more than ε — the comparison `admits`
    /// makes, so a total equal to `bound + ε` (admitted) does not certify.
    #[test]
    fn rejections_certify_only_bounds_they_still_exceed() {
        let mul = ResourceClass::Multiplier.index();
        let add = ResourceClass::Adder.index();
        let with_bounds = |adder: Option<usize>, multiplier: Option<usize>| {
            let mut bounds = [None; ResourceClass::COUNT];
            bounds[add] = adder;
            bounds[mul] = multiplier;
            bounds
        };

        let nothing = BoundRejections::default();
        assert!(nothing.still_rejected_under(&with_bounds(Some(1), Some(1))));
        assert!(nothing.still_rejected_under(&with_bounds(None, None)));

        let mut record = BoundRejections::default();
        record.record(ResourceClass::Multiplier, 3.0);
        assert!(record.still_rejected_under(&with_bounds(Some(1), Some(2))));
        assert!(record.still_rejected_under(&with_bounds(Some(9), Some(2))));
        assert!(!record.still_rejected_under(&with_bounds(Some(1), Some(3))));
        assert!(!record.still_rejected_under(&with_bounds(Some(1), None)));

        let bound = 3usize;
        let at_limit = bound as f64 + EPSILON;
        let mut boundary = BoundRejections::default();
        boundary.record(ResourceClass::Multiplier, at_limit);
        assert!(!boundary.still_rejected_under(&with_bounds(None, Some(bound))));
        let mut above = BoundRejections::default();
        above.record(ResourceClass::Multiplier, at_limit.next_up());
        assert!(above.still_rejected_under(&with_bounds(None, Some(bound))));
    }

    #[test]
    fn eqn3_empty_member_set_rejected() {
        let op_classes = vec![ResourceClass::Adder];
        let member_classes = vec![ResourceClass::Adder];
        let op_members = vec![vec![]];
        let bounds = BTreeMap::from([(ResourceClass::Adder, 4)]);
        let dense = dense_twin(&op_classes, &op_members, &member_classes, &bounds);
        let c = SchedulingSetBound::new(op_classes, op_members, member_classes, bounds);
        assert!(!c.admits(id(0), 0, 2));
        assert!(!c.admissible_at_all(id(0), 2));
        // The rejection does not depend on the bound, so it certifies
        // nothing and the dense form does not record it.
        assert!(!dense.admits(id(0), 0, 2));
        assert_eq!(dense.rejections(), BoundRejections::default());
    }
}
