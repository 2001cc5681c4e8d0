//! The allocated datapath: schedule, resource instances, binding and
//! wordlength selection, plus validation of all problem invariants.

use std::fmt;

use mwl_model::{Area, AreaBreakdown, CostModel, Cycles, OpId, ResourceType, SequencingGraph};
use mwl_sched::{OpLatencies, Schedule};

use crate::error::ValidateError;
use crate::storage::{self, RegisterBinding};

/// One allocated functional unit together with the operations bound to it.
///
/// The instance's [`ResourceType`] *is* the wordlength selection of the
/// operations bound to it: an 8×8-bit multiplication bound to a 16×16-bit
/// multiplier instance is implemented at 16×16 bits (and pays that latency).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResourceInstance {
    resource: ResourceType,
    ops: Vec<OpId>,
}

impl ResourceInstance {
    /// Creates an instance of the given type executing the given operations.
    #[must_use]
    pub fn new(resource: ResourceType, mut ops: Vec<OpId>) -> Self {
        ops.sort_unstable();
        ResourceInstance { resource, ops }
    }

    /// The resource-wordlength type of the instance.
    #[must_use]
    pub fn resource(&self) -> ResourceType {
        self.resource
    }

    /// The operations bound to the instance, in id order.
    #[must_use]
    pub fn ops(&self) -> &[OpId] {
        &self.ops
    }

    /// Number of operations sharing the instance.
    #[must_use]
    pub fn sharing_factor(&self) -> usize {
        self.ops.len()
    }
}

impl fmt::Display for ResourceInstance {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ops: Vec<String> = self.ops.iter().map(ToString::to_string).collect();
        write!(f, "{} <- [{}]", self.resource, ops.join(", "))
    }
}

/// A complete solution of the combined scheduling, resource-binding and
/// wordlength-selection problem.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Datapath {
    schedule: Schedule,
    instances: Vec<ResourceInstance>,
    /// Instance index per operation.
    binding: Vec<usize>,
    area: Area,
    latency: Cycles,
}

impl Datapath {
    /// Assembles a datapath from its parts, computing area and latency from
    /// the instances and the cost model.
    ///
    /// `instances` must cover every operation exactly once; this is checked
    /// by [`validate`](Self::validate), not here.
    #[must_use]
    pub fn assemble(
        schedule: Schedule,
        instances: Vec<ResourceInstance>,
        cost: &dyn CostModel,
    ) -> Self {
        let num_ops = schedule.len();
        let mut binding = vec![usize::MAX; num_ops];
        for (idx, inst) in instances.iter().enumerate() {
            for &op in inst.ops() {
                if op.index() < num_ops {
                    binding[op.index()] = idx;
                }
            }
        }
        let area = instances.iter().map(|i| cost.area(&i.resource())).sum();
        let bound_latencies = Self::bound_latency_table(&schedule, &instances, &binding, cost);
        let latency = schedule.makespan(&bound_latencies);
        Datapath {
            schedule,
            instances,
            binding,
            area,
            latency,
        }
    }

    fn bound_latency_table(
        schedule: &Schedule,
        instances: &[ResourceInstance],
        binding: &[usize],
        cost: &dyn CostModel,
    ) -> OpLatencies {
        (0..schedule.len())
            .map(|i| {
                let inst = binding[i];
                if inst == usize::MAX {
                    1
                } else {
                    cost.latency(&instances[inst].resource())
                }
            })
            .collect()
    }

    /// The start control step of every operation.
    #[must_use]
    pub fn schedule(&self) -> &Schedule {
        &self.schedule
    }

    /// The allocated resource instances.
    #[must_use]
    pub fn instances(&self) -> &[ResourceInstance] {
        &self.instances
    }

    /// The instance index an operation is bound to.
    ///
    /// # Panics
    ///
    /// Panics if the operation does not belong to the allocated graph.
    #[must_use]
    pub fn instance_of(&self, op: OpId) -> usize {
        self.binding[op.index()]
    }

    /// The resource-wordlength type selected for an operation (its
    /// wordlength selection).
    ///
    /// # Panics
    ///
    /// Panics if the operation does not belong to the allocated graph or is
    /// unbound (an unbound operation only occurs in hand-assembled invalid
    /// datapaths, which [`validate`](Self::validate) rejects).
    #[must_use]
    pub fn selected_resource(&self, op: OpId) -> ResourceType {
        self.instances[self.binding[op.index()]].resource()
    }

    /// Total implementation area (sum of instance areas).
    #[must_use]
    pub fn area(&self) -> Area {
        self.area
    }

    /// Overall latency: the last completion step over all operations, with
    /// each operation taking the latency of the resource it is bound to.
    #[must_use]
    pub fn latency(&self) -> Cycles {
        self.latency
    }

    /// Number of allocated instances.
    #[must_use]
    pub fn num_instances(&self) -> usize {
        self.instances.len()
    }

    /// Latency table induced by the binding (`ℓ(o)` in the paper's notation).
    #[must_use]
    pub fn bound_latencies(&self, cost: &dyn CostModel) -> OpLatencies {
        Self::bound_latency_table(&self.schedule, &self.instances, &self.binding, cost)
    }

    /// Checks every invariant of the combined problem:
    ///
    /// * every operation is bound to exactly one instance able to execute it,
    /// * no two operations sharing an instance overlap in time,
    /// * every data dependence is respected by the schedule with the bound
    ///   latencies,
    /// * the reported area and latency match the instances and schedule.
    ///
    /// # Errors
    ///
    /// Returns the first violated invariant.
    pub fn validate(
        &self,
        graph: &SequencingGraph,
        cost: &dyn CostModel,
    ) -> Result<(), ValidateError> {
        if self.schedule.len() != graph.len() || self.binding.len() != graph.len() {
            return Err(ValidateError::SizeMismatch {
                graph_ops: graph.len(),
                datapath_ops: self.schedule.len().min(self.binding.len()),
            });
        }
        // Binding totality and compatibility.
        for op in graph.op_ids() {
            let inst = self.binding[op.index()];
            if inst == usize::MAX || inst >= self.instances.len() {
                return Err(ValidateError::UnboundOperation(op));
            }
            if !self.instances[inst]
                .resource()
                .covers(graph.operation(op).shape())
            {
                return Err(ValidateError::IncompatibleBinding { op, instance: inst });
            }
            if !self.instances[inst].ops().contains(&op) {
                return Err(ValidateError::UnboundOperation(op));
            }
        }
        // Each instance's operations must be pairwise non-overlapping under
        // the instance's latency.
        let bound = self.bound_latencies(cost);
        for (idx, inst) in self.instances.iter().enumerate() {
            let ops = inst.ops();
            for i in 0..ops.len() {
                for j in (i + 1)..ops.len() {
                    if self.schedule.overlaps(ops[i], ops[j], &bound) {
                        return Err(ValidateError::InstanceConflict {
                            first: ops[i],
                            second: ops[j],
                            instance: idx,
                        });
                    }
                }
            }
        }
        // Precedence with bound latencies.
        match self.schedule.precedence_violations(graph, &bound) {
            Ok(violations) => {
                if let Some(&(from, to)) = violations.first() {
                    return Err(ValidateError::PrecedenceViolation { from, to });
                }
            }
            Err(_) => {
                return Err(ValidateError::SizeMismatch {
                    graph_ops: graph.len(),
                    datapath_ops: self.schedule.len(),
                })
            }
        }
        // Reported aggregates.
        let area: Area = self
            .instances
            .iter()
            .map(|i| cost.area(&i.resource()))
            .sum();
        if area != self.area {
            return Err(ValidateError::AreaMismatch {
                reported: self.area,
                recomputed: area,
            });
        }
        let latency = self.schedule.makespan(&bound);
        if latency != self.latency {
            return Err(ValidateError::LatencyMismatch {
                reported: self.latency,
                recomputed: latency,
            });
        }
        Ok(())
    }
}

/// The control-step interval during which an operation's result value must
/// be held in storage, as required by a structural (RTL) implementation of
/// the datapath.
///
/// Produced by [`Datapath::value_lifetimes`]; consumed by the netlist
/// lowering in `mwl_rtl` to place result registers and to share them between
/// values with disjoint lifetimes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ValueLifetime {
    /// First step at which the value is available: the producing operation's
    /// completion step (`start + bound latency`).  The value is written to
    /// its register at the clock edge closing step `born - 1`.
    pub born: Cycles,
    /// Last step through which the value must be held (inclusive).  Covers
    /// every control step during which a consumer of the value executes;
    /// values of sink operations are held through the final control step so
    /// they remain observable as primary outputs.
    pub dies: Cycles,
}

impl ValueLifetime {
    /// Returns `true` if the two lifetimes overlap, i.e. the values cannot
    /// share one register.
    #[must_use]
    pub fn overlaps(&self, other: &ValueLifetime) -> bool {
        self.born <= other.dies && other.born <= self.dies
    }
}

impl Datapath {
    /// Computes, for every operation, the interval during which its result
    /// value must be held — the register-lifetime information an RTL
    /// backend needs.
    ///
    /// The interval is conservative: it extends over *all* successors of the
    /// operation in the sequencing graph (a backend that treats some edges
    /// as sequencing-only may hold values slightly longer than strictly
    /// necessary, never shorter).  Sink values are held through the overall
    /// latency so the final datapath outputs are observable.
    ///
    /// # Panics
    ///
    /// Panics if the graph does not match the allocated datapath (call
    /// [`validate`](Self::validate) first for a checked variant).
    #[must_use]
    pub fn value_lifetimes(
        &self,
        graph: &SequencingGraph,
        cost: &dyn CostModel,
    ) -> Vec<ValueLifetime> {
        assert_eq!(
            graph.len(),
            self.schedule.len(),
            "graph does not match datapath"
        );
        let bound = self.bound_latencies(cost);
        let makespan = self.schedule.makespan(&bound);
        graph
            .op_ids()
            .map(|op| {
                let born = self.schedule.end(op, &bound);
                let mut dies = born;
                for &succ in graph.successors(op) {
                    // The consumer reads its operands throughout its whole
                    // execution interval; the value must outlive its final
                    // execution step.
                    dies = dies.max(self.schedule.end(succ, &bound).saturating_sub(1));
                }
                if graph.successors(op).is_empty() {
                    // Sink: observable as a primary output after the last
                    // control step.
                    dies = dies.max(makespan);
                }
                ValueLifetime { born, dies }
            })
            .collect()
    }

    /// Packs this datapath's value lifetimes onto registers with the
    /// certified interval-packing binder (see [`crate::storage`]): one
    /// register class per result wordlength, register count provably equal
    /// to the max-overlap lower bound.
    ///
    /// # Panics
    ///
    /// Panics if the graph does not match the allocated datapath.
    #[must_use]
    pub fn register_binding(
        &self,
        graph: &SequencingGraph,
        cost: &dyn CostModel,
    ) -> RegisterBinding {
        let widths = storage::result_widths(graph);
        let lifetimes = self.value_lifetimes(graph, cost);
        storage::pack_registers(&widths, &lifetimes)
    }

    /// Total multiplexer input bits implied by the binding: every instance
    /// shared by `k ≥ 2` operations steers both operand ports through
    /// `k`-arm muxes at the instance's port widths; unshared instances need
    /// no muxes (their "mux" is a wire).  This mirrors the structural
    /// netlist `mwl_rtl` builds, so the model-level and netlist-level mux
    /// areas agree exactly.
    #[must_use]
    pub fn mux_input_bits(&self) -> u64 {
        self.instances
            .iter()
            .filter(|inst| inst.sharing_factor() >= 2)
            .map(|inst| {
                let (a, b) = inst.resource().widths();
                (u64::from(a) + u64::from(b)) * inst.sharing_factor() as u64
            })
            .sum()
    }

    /// Splits the implementation area into functional-unit, register and
    /// mux components using the cost model's [`mwl_model::StorageCosts`].
    ///
    /// Under the default zero storage coefficients this is exactly
    /// [`AreaBreakdown::fu_only`]`(self.area())` — the paper's FU-only
    /// number — and the (potentially costly) lifetime analysis is skipped,
    /// so oracle and baseline paths stay bit-identical and fast.
    ///
    /// # Panics
    ///
    /// Panics if the graph does not match the allocated datapath.
    #[must_use]
    pub fn area_breakdown(&self, graph: &SequencingGraph, cost: &dyn CostModel) -> AreaBreakdown {
        let storage_costs = cost.storage_costs();
        if storage_costs.is_zero() {
            return AreaBreakdown::fu_only(self.area);
        }
        let binding = self.register_binding(graph, cost);
        AreaBreakdown {
            fu: self.area,
            register: binding.register_bits() * storage_costs.register_area_per_bit,
            mux: self.mux_input_bits() * storage_costs.mux_area_per_input_bit,
        }
    }
}

impl fmt::Display for Datapath {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "datapath: area {} units, latency {} steps, {} instances",
            self.area,
            self.latency,
            self.instances.len()
        )?;
        for (i, inst) in self.instances.iter().enumerate() {
            writeln!(f, "  instance {i}: {inst}")?;
        }
        write!(f, "  {}", self.schedule)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mwl_model::{OpShape, SequencingGraphBuilder, SonicCostModel};

    /// mul(8x8) -> add(16), plus an independent mul(12x12).
    fn graph() -> SequencingGraph {
        let mut b = SequencingGraphBuilder::new();
        let m = b.add_operation(OpShape::multiplier(8, 8));
        let a = b.add_operation(OpShape::adder(16));
        let _n = b.add_operation(OpShape::multiplier(12, 12));
        b.add_dependency(m, a).unwrap();
        b.build().unwrap()
    }

    fn valid_datapath() -> (SequencingGraph, Datapath, SonicCostModel) {
        let g = graph();
        let cost = SonicCostModel::default();
        // Bind both multiplications to one 12x12 multiplier (latency 3) and
        // the addition to a 16-bit adder; schedule accordingly:
        //   m0 on mult @0..3, m2 on mult @3..6, a1 on adder @3..5.
        let schedule = Schedule::from_vec(vec![0, 3, 3]);
        let instances = vec![
            ResourceInstance::new(
                ResourceType::multiplier(12, 12),
                vec![OpId::new(0), OpId::new(2)],
            ),
            ResourceInstance::new(ResourceType::adder(16), vec![OpId::new(1)]),
        ];
        let dp = Datapath::assemble(schedule, instances, &cost);
        (g, dp, cost)
    }

    #[test]
    fn assemble_computes_area_and_latency() {
        let (g, dp, cost) = valid_datapath();
        assert_eq!(dp.area(), 144 + 16);
        assert_eq!(dp.latency(), 6);
        assert_eq!(dp.num_instances(), 2);
        assert!(dp.validate(&g, &cost).is_ok());
        assert_eq!(dp.instance_of(OpId::new(2)), 0);
        assert_eq!(
            dp.selected_resource(OpId::new(0)),
            ResourceType::multiplier(12, 12)
        );
        assert_eq!(dp.bound_latencies(&cost).get(OpId::new(0)), 3);
    }

    #[test]
    fn display_mentions_instances() {
        let (_, dp, _) = valid_datapath();
        let s = dp.to_string();
        assert!(s.contains("12x12-bit multiplier"));
        assert!(s.contains("16-bit adder"));
        assert!(s.contains("area 160"));
    }

    #[test]
    fn validate_rejects_unbound_operation() {
        let g = graph();
        let cost = SonicCostModel::default();
        let schedule = Schedule::from_vec(vec![0, 3, 0]);
        let instances = vec![ResourceInstance::new(
            ResourceType::multiplier(12, 12),
            vec![OpId::new(0), OpId::new(2)],
        )];
        let dp = Datapath::assemble(schedule, instances, &cost);
        assert_eq!(
            dp.validate(&g, &cost),
            Err(ValidateError::UnboundOperation(OpId::new(1)))
        );
    }

    #[test]
    fn validate_rejects_incompatible_binding() {
        let g = graph();
        let cost = SonicCostModel::default();
        // The 8x8 multiplier cannot execute the 12x12 multiplication.
        let schedule = Schedule::from_vec(vec![0, 2, 2]);
        let instances = vec![
            ResourceInstance::new(
                ResourceType::multiplier(8, 8),
                vec![OpId::new(0), OpId::new(2)],
            ),
            ResourceInstance::new(ResourceType::adder(16), vec![OpId::new(1)]),
        ];
        let dp = Datapath::assemble(schedule, instances, &cost);
        assert_eq!(
            dp.validate(&g, &cost),
            Err(ValidateError::IncompatibleBinding {
                op: OpId::new(2),
                instance: 0
            })
        );
    }

    #[test]
    fn validate_rejects_instance_conflict() {
        let g = graph();
        let cost = SonicCostModel::default();
        // Both multiplications at step 0 on the same instance.
        let schedule = Schedule::from_vec(vec![0, 3, 0]);
        let instances = vec![
            ResourceInstance::new(
                ResourceType::multiplier(12, 12),
                vec![OpId::new(0), OpId::new(2)],
            ),
            ResourceInstance::new(ResourceType::adder(16), vec![OpId::new(1)]),
        ];
        let dp = Datapath::assemble(schedule, instances, &cost);
        assert!(matches!(
            dp.validate(&g, &cost),
            Err(ValidateError::InstanceConflict { .. })
        ));
    }

    #[test]
    fn validate_rejects_precedence_violation() {
        let g = graph();
        let cost = SonicCostModel::default();
        // The addition starts before its producer finishes.
        let schedule = Schedule::from_vec(vec![0, 1, 3]);
        let instances = vec![
            ResourceInstance::new(
                ResourceType::multiplier(12, 12),
                vec![OpId::new(0), OpId::new(2)],
            ),
            ResourceInstance::new(ResourceType::adder(16), vec![OpId::new(1)]),
        ];
        let dp = Datapath::assemble(schedule, instances, &cost);
        assert_eq!(
            dp.validate(&g, &cost),
            Err(ValidateError::PrecedenceViolation {
                from: OpId::new(0),
                to: OpId::new(1)
            })
        );
    }

    #[test]
    fn validate_rejects_size_mismatch() {
        let g = graph();
        let cost = SonicCostModel::default();
        let schedule = Schedule::from_vec(vec![0, 2]);
        let dp = Datapath::assemble(schedule, vec![], &cost);
        assert!(matches!(
            dp.validate(&g, &cost),
            Err(ValidateError::SizeMismatch { .. })
        ));
    }

    #[test]
    fn value_lifetimes_cover_consumers_and_sinks() {
        let (g, dp, cost) = valid_datapath();
        // Schedule: m0 on mult @0..3, a1 on adder @3..5, m2 on mult @3..6.
        let lifetimes = dp.value_lifetimes(&g, &cost);
        assert_eq!(lifetimes.len(), 3);
        // m0's value: born at 3, consumed by a1 through step 4.
        assert_eq!(lifetimes[0], ValueLifetime { born: 3, dies: 4 });
        // a1 is a sink: held through the makespan (6).
        assert_eq!(lifetimes[1], ValueLifetime { born: 5, dies: 6 });
        // m2 is a sink too.
        assert_eq!(lifetimes[2], ValueLifetime { born: 6, dies: 6 });
        // Overlap relation: a1 and m2 both hold at step 6.
        assert!(lifetimes[1].overlaps(&lifetimes[2]));
        assert!(!lifetimes[0].overlaps(&lifetimes[2]));
        assert!(lifetimes[0].overlaps(&lifetimes[0]));
    }

    #[test]
    fn area_breakdown_prices_registers_and_muxes() {
        use mwl_model::{AreaBreakdown, StorageCosts};

        let (g, dp, cost) = valid_datapath();
        // Zero storage coefficients collapse the breakdown to FU area.
        assert_eq!(dp.area_breakdown(&g, &cost), AreaBreakdown::fu_only(160));

        // Result widths: mul(8x8) -> 16, add(16) -> 16, mul(12x12) -> 24.
        // The 16-bit lifetimes (3..4 and 5..6) are disjoint and share one
        // register; the 24-bit value gets its own: 40 register bits.
        let binding = dp.register_binding(&g, &cost);
        assert_eq!(binding.registers(), 2);
        assert_eq!(binding.register_bits(), 40);
        assert_eq!(
            binding.certificate,
            crate::storage::BindingCertificate::Optimal
        );

        // Only the shared 12x12 multiplier needs muxes: (12+12) bits x 2 arms
        // on its two ports combined.
        assert_eq!(dp.mux_input_bits(), 48);

        let priced = SonicCostModel::default().with_storage_costs(StorageCosts::new(2, 1));
        let breakdown = dp.area_breakdown(&g, &priced);
        assert_eq!(
            breakdown,
            AreaBreakdown {
                fu: 160,
                register: 80,
                mux: 48,
            }
        );
        assert_eq!(breakdown.total(), 288);
        // Storage pricing never perturbs the allocator's objective.
        assert_eq!(dp.area(), 160);
    }

    #[test]
    fn sharing_factor_counts_ops() {
        let inst = ResourceInstance::new(
            ResourceType::adder(8),
            vec![OpId::new(2), OpId::new(0), OpId::new(1)],
        );
        assert_eq!(inst.sharing_factor(), 3);
        // Ops are kept sorted for determinism.
        assert_eq!(inst.ops(), &[OpId::new(0), OpId::new(1), OpId::new(2)]);
        assert_eq!(inst.resource(), ResourceType::adder(8));
    }
}
