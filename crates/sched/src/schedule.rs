//! Schedules and per-operation latency tables.
//!
//! A [`Schedule`] assigns each operation a start control step; an
//! [`OpLatencies`] table carries per-operation cycle counts.  Because
//! wordlength selection changes latencies (a small multiplication run on a
//! wide multiplier takes the *resource's* latency), the paper's algorithms
//! always pair a schedule with the latency table it was computed under.

use std::fmt;

use mwl_model::{Cycles, OpId, Operation, SequencingGraph};

use crate::error::SchedError;

/// A table of per-operation latencies, indexed by [`OpId`].
///
/// The allocator uses two such tables: the *upper bounds* `L_o` (latency of
/// the slowest resource an operation is still compatible with) during
/// scheduling, and the *bound latencies* `ℓ(o)` (latency of the resource the
/// operation was actually bound to) when analysing the result.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct OpLatencies {
    latencies: Vec<Cycles>,
}

impl OpLatencies {
    /// Builds a table from an explicit vector (entry `i` is the latency of
    /// operation `i`).
    #[must_use]
    pub fn from_vec(latencies: Vec<Cycles>) -> Self {
        OpLatencies { latencies }
    }

    /// Builds a table by evaluating a function on every operation of a graph.
    #[must_use]
    pub fn from_fn(graph: &SequencingGraph, mut f: impl FnMut(&Operation) -> Cycles) -> Self {
        OpLatencies {
            latencies: graph.operations().iter().map(&mut f).collect(),
        }
    }

    /// Builds a table with the same latency for every operation.
    #[must_use]
    pub fn uniform(graph: &SequencingGraph, latency: Cycles) -> Self {
        OpLatencies {
            latencies: vec![latency; graph.len()],
        }
    }

    /// An empty table, intended as a reusable buffer for
    /// [`copy_from_slice`](Self::copy_from_slice).
    #[must_use]
    pub fn empty() -> Self {
        OpLatencies {
            latencies: Vec::new(),
        }
    }

    /// Overwrites the table with the given per-operation latencies, reusing
    /// the existing allocation — the scratch-buffer counterpart of
    /// [`from_vec`](Self::from_vec).
    pub fn copy_from_slice(&mut self, latencies: &[Cycles]) {
        self.latencies.clear();
        self.latencies.extend_from_slice(latencies);
    }

    /// Latency of one operation.
    ///
    /// # Panics
    ///
    /// Panics if the operation does not belong to the graph this table was
    /// built for.
    #[must_use]
    pub fn get(&self, op: OpId) -> Cycles {
        self.latencies[op.index()]
    }

    /// Sets the latency of one operation.
    ///
    /// # Panics
    ///
    /// Panics if the operation index is out of range.
    pub fn set(&mut self, op: OpId, latency: Cycles) {
        self.latencies[op.index()] = latency;
    }

    /// Number of entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.latencies.len()
    }

    /// Returns `true` if the table is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.latencies.is_empty()
    }

    /// Underlying slice of latencies in operation-id order.
    #[must_use]
    pub fn as_slice(&self) -> &[Cycles] {
        &self.latencies
    }

    /// Validates the table against a graph: the lengths must match and no
    /// operation may have zero latency.
    ///
    /// # Errors
    ///
    /// Returns [`SchedError::LatencyTableMismatch`] or
    /// [`SchedError::ZeroLatency`].
    pub fn validate(&self, graph: &SequencingGraph) -> Result<(), SchedError> {
        if self.latencies.len() != graph.len() {
            return Err(SchedError::LatencyTableMismatch {
                graph_ops: graph.len(),
                table_ops: self.latencies.len(),
            });
        }
        for (i, &l) in self.latencies.iter().enumerate() {
            if l == 0 {
                return Err(SchedError::ZeroLatency(OpId::new(i as u32)));
            }
        }
        Ok(())
    }
}

impl FromIterator<Cycles> for OpLatencies {
    fn from_iter<T: IntoIterator<Item = Cycles>>(iter: T) -> Self {
        OpLatencies {
            latencies: iter.into_iter().collect(),
        }
    }
}

/// A start control step for every operation of a sequencing graph.
///
/// A schedule is always interpreted together with a latency table: operation
/// `o` occupies the half-open interval `[start(o), start(o) + latency(o))`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Schedule {
    start: Vec<Cycles>,
}

impl Schedule {
    /// Creates a schedule from explicit start steps (entry `i` is the start
    /// step of operation `i`).
    #[must_use]
    pub fn from_vec(start: Vec<Cycles>) -> Self {
        Schedule { start }
    }

    /// Number of scheduled operations.
    #[must_use]
    pub fn len(&self) -> usize {
        self.start.len()
    }

    /// Returns `true` if the schedule covers no operations.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.start.is_empty()
    }

    /// Start control step of an operation.
    ///
    /// # Panics
    ///
    /// Panics if the operation does not belong to the graph this schedule was
    /// built for.
    #[must_use]
    pub fn start(&self, op: OpId) -> Cycles {
        self.start[op.index()]
    }

    /// Completion step of an operation under the given latency table
    /// (`start + latency`, exclusive).
    #[must_use]
    pub fn end(&self, op: OpId, latencies: &OpLatencies) -> Cycles {
        self.start(op) + latencies.get(op)
    }

    /// Overall schedule latency: the largest completion step over all
    /// operations.
    #[must_use]
    pub fn makespan(&self, latencies: &OpLatencies) -> Cycles {
        self.start
            .iter()
            .enumerate()
            .map(|(i, &s)| s + latencies.get(OpId::new(i as u32)))
            .max()
            .unwrap_or(0)
    }

    /// Returns `true` if the two operations' execution intervals overlap.
    #[must_use]
    pub fn overlaps(&self, a: OpId, b: OpId, latencies: &OpLatencies) -> bool {
        let (sa, ea) = (self.start(a), self.end(a, latencies));
        let (sb, eb) = (self.start(b), self.end(b, latencies));
        sa < eb && sb < ea
    }

    /// Underlying slice of start steps in operation-id order.
    #[must_use]
    pub fn as_slice(&self) -> &[Cycles] {
        &self.start
    }

    /// Validates the schedule against a graph and latency table:
    /// every dependence `u -> v` must satisfy `end(u) <= start(v)`.
    ///
    /// # Errors
    ///
    /// Propagates latency-table validation errors; precedence violations are
    /// reported as `Err(None)`-free booleans via the returned list of
    /// offending edges (empty when the schedule is valid).
    pub fn precedence_violations(
        &self,
        graph: &SequencingGraph,
        latencies: &OpLatencies,
    ) -> Result<Vec<(OpId, OpId)>, SchedError> {
        latencies.validate(graph)?;
        if self.start.len() != graph.len() {
            return Err(SchedError::LatencyTableMismatch {
                graph_ops: graph.len(),
                table_ops: self.start.len(),
            });
        }
        let mut violations = Vec::new();
        for e in graph.edges() {
            if self.end(e.from, latencies) > self.start(e.to) {
                violations.push((e.from, e.to));
            }
        }
        Ok(violations)
    }

    /// Returns `true` if the schedule respects every data dependence of the
    /// graph under the given latency table.
    #[must_use]
    pub fn is_valid(&self, graph: &SequencingGraph, latencies: &OpLatencies) -> bool {
        matches!(self.precedence_violations(graph, latencies), Ok(v) if v.is_empty())
    }

    /// The operations executing during a given control step, under the given
    /// latency table.
    #[must_use]
    pub fn active_at(&self, step: Cycles, latencies: &OpLatencies) -> Vec<OpId> {
        (0..self.start.len())
            .map(|i| OpId::new(i as u32))
            .filter(|&o| self.start(o) <= step && step < self.end(o, latencies))
            .collect()
    }
}

impl fmt::Display for Schedule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "schedule[")?;
        for (i, s) in self.start.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "o{i}@{s}")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mwl_model::{OpShape, SequencingGraphBuilder};

    fn chain3() -> SequencingGraph {
        let mut b = SequencingGraphBuilder::new();
        let x = b.add_operation(OpShape::multiplier(8, 8));
        let y = b.add_operation(OpShape::adder(16));
        let z = b.add_operation(OpShape::adder(16));
        b.add_dependency(x, y).unwrap();
        b.add_dependency(y, z).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn latency_table_constructors() {
        let g = chain3();
        let t = OpLatencies::uniform(&g, 2);
        assert_eq!(t.len(), 3);
        assert!(!t.is_empty());
        assert_eq!(t.get(OpId::new(1)), 2);
        let t = OpLatencies::from_fn(&g, |op| if op.kind().is_additive() { 2 } else { 3 });
        assert_eq!(t.as_slice(), &[3, 2, 2]);
        let t: OpLatencies = [1, 2, 3].into_iter().collect();
        assert_eq!(t.get(OpId::new(2)), 3);
    }

    #[test]
    fn latency_table_set_and_validate() {
        let g = chain3();
        let mut t = OpLatencies::uniform(&g, 1);
        t.set(OpId::new(0), 4);
        assert_eq!(t.get(OpId::new(0)), 4);
        assert!(t.validate(&g).is_ok());
        t.set(OpId::new(2), 0);
        assert_eq!(t.validate(&g), Err(SchedError::ZeroLatency(OpId::new(2))));
        let short = OpLatencies::from_vec(vec![1, 1]);
        assert_eq!(
            short.validate(&g),
            Err(SchedError::LatencyTableMismatch {
                graph_ops: 3,
                table_ops: 2
            })
        );
    }

    #[test]
    fn schedule_basics() {
        let g = chain3();
        let lat = OpLatencies::from_vec(vec![2, 2, 2]);
        let s = Schedule::from_vec(vec![0, 2, 4]);
        assert_eq!(s.len(), 3);
        assert_eq!(s.start(OpId::new(1)), 2);
        assert_eq!(s.end(OpId::new(1), &lat), 4);
        assert_eq!(s.makespan(&lat), 6);
        assert!(s.is_valid(&g, &lat));
        assert_eq!(s.active_at(2, &lat), vec![OpId::new(1)]);
        assert_eq!(s.active_at(5, &lat), vec![OpId::new(2)]);
        assert!(!s.overlaps(OpId::new(0), OpId::new(1), &lat));
    }

    #[test]
    fn schedule_violations_detected() {
        let g = chain3();
        let lat = OpLatencies::from_vec(vec![2, 2, 2]);
        let s = Schedule::from_vec(vec![0, 1, 4]);
        let v = s.precedence_violations(&g, &lat).unwrap();
        assert_eq!(v, vec![(OpId::new(0), OpId::new(1))]);
        assert!(!s.is_valid(&g, &lat));
        assert!(s.overlaps(OpId::new(0), OpId::new(1), &lat));
    }

    #[test]
    fn schedule_length_mismatch_is_error() {
        let g = chain3();
        let lat = OpLatencies::uniform(&g, 1);
        let s = Schedule::from_vec(vec![0, 1]);
        assert!(matches!(
            s.precedence_violations(&g, &lat),
            Err(SchedError::LatencyTableMismatch { .. })
        ));
    }

    #[test]
    fn empty_schedule_makespan_is_zero() {
        let s = Schedule::from_vec(vec![]);
        let lat = OpLatencies::from_vec(vec![]);
        assert!(s.is_empty());
        assert_eq!(s.makespan(&lat), 0);
    }

    #[test]
    fn display_lists_every_op() {
        let s = Schedule::from_vec(vec![0, 3, 7]);
        let text = s.to_string();
        assert!(text.contains("o0@0"));
        assert!(text.contains("o1@3"));
        assert!(text.contains("o2@7"));
    }
}
