//! Problem-building API for linear and integer programs.
//!
//! The modelling layer under [`crate::simplex`] and [`crate::branch_bound`];
//! `mwl_optimal`'s ILP formulation (the paper's reference \[5\] baseline,
//! solved there with `lp_solve`) is expressed through this API.

use crate::branch_bound::{solve_mip, BranchBoundOptions, MipSolution};
use crate::error::LpError;
use crate::simplex::solve_simplex;

/// Optimisation direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Sense {
    /// Minimise the objective.
    Minimize,
    /// Maximise the objective.
    Maximize,
}

/// Kind of a decision variable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VarKind {
    /// Real-valued variable.
    Continuous,
    /// Integer-valued variable (binary variables are integers with bounds
    /// `[0, 1]`).
    Integer,
}

/// Identifier of a decision variable within one [`LpProblem`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct VarId(pub(crate) usize);

impl VarId {
    /// The dense index of the variable.
    #[must_use]
    pub fn index(self) -> usize {
        self.0
    }
}

/// Direction of a linear constraint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConstraintOp {
    /// `terms ≤ rhs`
    Le,
    /// `terms ≥ rhs`
    Ge,
    /// `terms = rhs`
    Eq,
}

/// A linear constraint `Σ coeff·var  op  rhs`.
#[derive(Debug, Clone, PartialEq)]
pub struct Constraint {
    /// The linear terms of the left-hand side.
    pub terms: Vec<(VarId, f64)>,
    /// The comparison operator.
    pub op: ConstraintOp,
    /// The right-hand side constant.
    pub rhs: f64,
}

#[derive(Debug, Clone, PartialEq)]
pub(crate) struct VarDef {
    pub kind: VarKind,
    pub objective: f64,
    pub lower: f64,
    pub upper: Option<f64>,
}

/// The solution of an LP relaxation.
#[derive(Debug, Clone, PartialEq)]
pub struct LpSolution {
    /// Objective value in the problem's own sense.
    pub objective: f64,
    /// Value of every variable, indexed by [`VarId::index`].
    pub values: Vec<f64>,
}

/// A linear/integer program under construction.
///
/// See the [crate-level documentation](crate) for a complete example.
#[derive(Debug, Clone, PartialEq)]
pub struct LpProblem {
    sense: Sense,
    pub(crate) vars: Vec<VarDef>,
    pub(crate) constraints: Vec<Constraint>,
}

impl LpProblem {
    /// Creates an empty problem with the given optimisation sense.
    #[must_use]
    pub fn new(sense: Sense) -> Self {
        LpProblem {
            sense,
            vars: Vec::new(),
            constraints: Vec::new(),
        }
    }

    /// The optimisation sense.
    #[must_use]
    pub fn sense(&self) -> Sense {
        self.sense
    }

    /// Number of variables.
    #[must_use]
    pub fn num_vars(&self) -> usize {
        self.vars.len()
    }

    /// Number of constraints.
    #[must_use]
    pub fn num_constraints(&self) -> usize {
        self.constraints.len()
    }

    /// Adds a variable and returns its id.
    ///
    /// * `objective` — the variable's coefficient in the objective;
    /// * `lower` — finite lower bound (use `0.0` for standard non-negative
    ///   variables);
    /// * `upper` — optional upper bound.
    pub fn add_var(
        &mut self,
        kind: VarKind,
        objective: f64,
        lower: f64,
        upper: Option<f64>,
    ) -> VarId {
        self.vars.push(VarDef {
            kind,
            objective,
            lower,
            upper,
        });
        VarId(self.vars.len() - 1)
    }

    /// Adds a binary (0/1 integer) variable.
    pub fn add_binary(&mut self, objective: f64) -> VarId {
        self.add_var(VarKind::Integer, objective, 0.0, Some(1.0))
    }

    /// Adds a `≤` constraint.
    pub fn add_le(&mut self, terms: &[(VarId, f64)], rhs: f64) {
        self.constraints.push(Constraint {
            terms: terms.to_vec(),
            op: ConstraintOp::Le,
            rhs,
        });
    }

    /// Adds a `≥` constraint.
    pub fn add_ge(&mut self, terms: &[(VarId, f64)], rhs: f64) {
        self.constraints.push(Constraint {
            terms: terms.to_vec(),
            op: ConstraintOp::Ge,
            rhs,
        });
    }

    /// Adds an `=` constraint.
    pub fn add_eq(&mut self, terms: &[(VarId, f64)], rhs: f64) {
        self.constraints.push(Constraint {
            terms: terms.to_vec(),
            op: ConstraintOp::Eq,
            rhs,
        });
    }

    /// Validates variable references and domains.
    pub(crate) fn validate(&self) -> Result<(), LpError> {
        for (i, v) in self.vars.iter().enumerate() {
            if let Some(u) = v.upper {
                if u < v.lower - 1e-12 {
                    return Err(LpError::EmptyDomain { var: i });
                }
            }
            if !v.lower.is_finite() {
                return Err(LpError::EmptyDomain { var: i });
            }
        }
        for c in &self.constraints {
            for &(v, _) in &c.terms {
                if v.0 >= self.vars.len() {
                    return Err(LpError::UnknownVariable(v.0));
                }
            }
        }
        Ok(())
    }

    /// Solves the LP relaxation (integrality requirements ignored) with the
    /// built-in two-phase primal simplex.
    ///
    /// # Errors
    ///
    /// [`LpError::Infeasible`], [`LpError::Unbounded`], or model validation
    /// errors.
    pub fn solve_relaxation(&self) -> Result<LpSolution, LpError> {
        self.validate()?;
        solve_simplex(self, None)
    }

    /// Solves the LP relaxation with additional temporary variable bounds
    /// (used by branch and bound); `overrides[i]` replaces variable `i`'s
    /// bounds when present.
    pub(crate) fn solve_relaxation_with_bounds(
        &self,
        overrides: &[Option<(f64, Option<f64>)>],
    ) -> Result<LpSolution, LpError> {
        solve_simplex(self, Some(overrides))
    }

    /// Solves the problem to integer optimality by branch and bound.
    ///
    /// # Errors
    ///
    /// * [`LpError::Infeasible`] if no integer-feasible point exists;
    /// * [`LpError::TimeLimit`] if the limit was hit before a feasible point
    ///   was found (a limit hit *after* an incumbent was found returns
    ///   `Ok` with [`crate::SolveStatus::TimeLimitFeasible`]);
    /// * [`LpError::Unbounded`] and validation errors as for
    ///   [`solve_relaxation`](Self::solve_relaxation).
    pub fn solve(&self, options: BranchBoundOptions) -> Result<MipSolution, LpError> {
        self.validate()?;
        solve_mip(self, options)
    }

    /// Objective vector in *minimisation* form (negated for maximisation
    /// problems), used internally by the solvers.
    pub(crate) fn minimize_objective(&self) -> Vec<f64> {
        let sign = match self.sense {
            Sense::Minimize => 1.0,
            Sense::Maximize => -1.0,
        };
        self.vars.iter().map(|v| sign * v.objective).collect()
    }

    /// Converts an internal minimised objective value back to the problem's
    /// sense.
    pub(crate) fn external_objective(&self, minimized: f64) -> f64 {
        match self.sense {
            Sense::Minimize => minimized,
            Sense::Maximize => -minimized,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_counts() {
        let mut lp = LpProblem::new(Sense::Minimize);
        let x = lp.add_var(VarKind::Continuous, 1.0, 0.0, None);
        let y = lp.add_binary(2.0);
        lp.add_le(&[(x, 1.0), (y, 1.0)], 3.0);
        lp.add_ge(&[(x, 1.0)], 1.0);
        lp.add_eq(&[(y, 1.0)], 1.0);
        assert_eq!(lp.num_vars(), 2);
        assert_eq!(lp.num_constraints(), 3);
        assert_eq!(lp.sense(), Sense::Minimize);
        assert_eq!(x.index(), 0);
        assert_eq!(y.index(), 1);
        assert!(lp.validate().is_ok());
    }

    #[test]
    fn validation_rejects_bad_models() {
        let mut lp = LpProblem::new(Sense::Minimize);
        let _x = lp.add_var(VarKind::Continuous, 1.0, 2.0, Some(1.0));
        assert_eq!(lp.validate(), Err(LpError::EmptyDomain { var: 0 }));

        let mut lp = LpProblem::new(Sense::Minimize);
        let x = lp.add_var(VarKind::Continuous, 1.0, 0.0, None);
        lp.add_le(&[(x, 1.0), (VarId(7), 1.0)], 3.0);
        assert_eq!(lp.validate(), Err(LpError::UnknownVariable(7)));
    }

    #[test]
    fn objective_sign_conversion() {
        let mut lp = LpProblem::new(Sense::Maximize);
        lp.add_var(VarKind::Continuous, 3.0, 0.0, None);
        assert_eq!(lp.minimize_objective(), vec![-3.0]);
        assert_eq!(lp.external_objective(-6.0), 6.0);
        let mut lp = LpProblem::new(Sense::Minimize);
        lp.add_var(VarKind::Continuous, 3.0, 0.0, None);
        assert_eq!(lp.minimize_objective(), vec![3.0]);
        assert_eq!(lp.external_objective(6.0), 6.0);
    }
}
