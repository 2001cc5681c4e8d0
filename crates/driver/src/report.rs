//! Batch results: per-job outcomes and the aggregate report.

use std::fmt;

use mwl_core::{AllocError, BindingCertificate, PortfolioStats};
use mwl_model::{Area, AreaBreakdown, Cycles};
use mwl_obs::StageNanos;

/// The outcome of the opt-in RTL equivalence oracle for one job
/// (see [`crate::BatchJob::verify_rtl`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RtlCheck {
    /// `true` when every stimulus vector was bit-identical between the
    /// netlist simulation and the reference evaluation, and the netlist
    /// area accounting matched the datapath's (FU component and full
    /// breakdown alike).
    pub passed: bool,
    /// Number of stimulus vectors simulated.
    pub vectors: usize,
    /// Result registers in the lowered netlist (after lifetime sharing).
    pub registers: usize,
    /// Operand-mux steering arms in the lowered netlist.
    pub mux_arms: usize,
    /// Width-adapter cells in the lowered netlist.
    pub adapters: usize,
    /// Optimality certificate of the netlist's register binding; `None`
    /// when the check failed before a netlist was produced.
    pub certificate: Option<BindingCertificate>,
    /// Human-readable description of the first failure, when `!passed`.
    pub failure: Option<String>,
}

/// Statistics of one successfully allocated job.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobStats {
    /// Resolved latency budget `λ` the job ran with.
    pub lambda: Cycles,
    /// Datapath area (the functional-unit component; the allocator's
    /// objective).
    pub area: Area,
    /// Per-component area under the cost model's storage coefficients.
    /// With zero coefficients (the default) this collapses to
    /// `AreaBreakdown::fu_only(area)`.
    pub area_breakdown: AreaBreakdown,
    /// Optimality certificate of the datapath's register binding.
    pub certificate: BindingCertificate,
    /// Achieved overall latency (`<= lambda`).
    pub latency: Cycles,
    /// Number of resource instances in the datapath.
    pub instances: usize,
    /// Wordlength-refinement iterations performed.
    pub refinements: usize,
    /// Resource-bound escalations performed.
    pub bound_escalations: usize,
    /// Instance merges accepted by the post-bind merging pass.
    pub merges: usize,
    /// RTL equivalence-check outcome; `None` unless the job opted in via
    /// [`crate::BatchJob::verify_rtl`].
    pub rtl: Option<RtlCheck>,
    /// Portfolio-race statistics; `None` unless the job opted in via
    /// [`crate::BatchJob::portfolio`].  When present, [`area`](Self::area)
    /// is the *winning* variant's area and
    /// [`PortfolioStats::area_saved`] records how much the race improved
    /// on the plain configuration (variant 0).
    pub portfolio: Option<PortfolioStats>,
    /// Per-stage wall-clock breakdown of the job; `None` unless the batch
    /// ran with [`crate::BatchOptions::obs`] enabled.  Purely diagnostic:
    /// two reports that differ only here describe identical datapaths, and
    /// the obs-off report is byte-identical to pre-telemetry output.
    pub stages: Option<StageNanos>,
}

/// The result of one job: its label plus either stats or the allocation
/// error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobOutcome {
    /// Position of the job in the submitted batch.
    pub index: usize,
    /// The job's label.
    pub label: String,
    /// Allocation stats, or the error that failed the job.
    pub result: Result<JobStats, AllocError>,
}

/// Aggregate counters over a whole batch.
///
/// Derived deterministically from the per-job outcomes, so two
/// [`BatchReport`]s are equal exactly when all their outcomes are.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BatchSummary {
    /// Number of jobs in the batch.
    pub jobs: usize,
    /// Jobs that produced a datapath.
    pub succeeded: usize,
    /// Jobs that failed with an [`AllocError`].
    pub failed: usize,
    /// Sum of datapath (FU) areas over the successful jobs.
    pub total_area: Area,
    /// Component-wise sum of per-job area breakdowns over the successful
    /// jobs (`area_breakdown.fu == total_area` always holds).
    pub area_breakdown: AreaBreakdown,
    /// Sum of achieved latencies over the successful jobs.
    pub total_latency: u64,
    /// Sum of resource instances over the successful jobs.
    pub total_instances: usize,
    /// Sum of refinement iterations over the successful jobs.
    pub total_refinements: usize,
    /// Sum of bound escalations over the successful jobs.
    pub total_escalations: usize,
    /// Sum of accepted instance merges over the successful jobs.
    pub total_merges: usize,
    /// Jobs that ran the RTL equivalence oracle.
    pub rtl_checked: usize,
    /// RTL-checked jobs whose netlist was bit-identical to the reference.
    pub rtl_passed: usize,
    /// Successful jobs that raced a variant portfolio.
    pub portfolio_jobs: usize,
    /// Portfolio jobs whose winner was *not* the baseline variant.
    pub portfolio_improved: usize,
    /// Total area saved by portfolio winners relative to their baselines.
    pub portfolio_area_saved: Area,
    /// Element-wise sum of per-job stage breakdowns over jobs that carried
    /// one (all-zero when the batch ran without telemetry).
    pub stages: StageNanos,
}

/// The deterministic result of a batch run.
///
/// Outcomes are ordered by submission index, never by completion order, so a
/// report is bit-identical across worker counts (regression-tested in
/// `tests/determinism.rs`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchReport {
    /// One outcome per submitted job, in submission order.
    pub outcomes: Vec<JobOutcome>,
}

impl BatchReport {
    /// Aggregates the per-job outcomes.
    #[must_use]
    pub fn summary(&self) -> BatchSummary {
        let mut s = BatchSummary {
            jobs: self.outcomes.len(),
            ..BatchSummary::default()
        };
        for outcome in &self.outcomes {
            match &outcome.result {
                Ok(stats) => {
                    s.succeeded += 1;
                    s.total_area += stats.area;
                    s.area_breakdown.fu += stats.area_breakdown.fu;
                    s.area_breakdown.register += stats.area_breakdown.register;
                    s.area_breakdown.mux += stats.area_breakdown.mux;
                    s.total_latency += u64::from(stats.latency);
                    s.total_instances += stats.instances;
                    s.total_refinements += stats.refinements;
                    s.total_escalations += stats.bound_escalations;
                    s.total_merges += stats.merges;
                    if let Some(rtl) = &stats.rtl {
                        s.rtl_checked += 1;
                        s.rtl_passed += usize::from(rtl.passed);
                    }
                    if let Some(p) = &stats.portfolio {
                        s.portfolio_jobs += 1;
                        s.portfolio_improved += usize::from(p.winner != 0);
                        s.portfolio_area_saved += p.area_saved;
                    }
                    if let Some(stages) = &stats.stages {
                        s.stages.merge(stages);
                    }
                }
                Err(_) => s.failed += 1,
            }
        }
        s
    }

    /// The outcomes of failed jobs.
    #[must_use]
    pub fn failures(&self) -> Vec<&JobOutcome> {
        self.outcomes.iter().filter(|o| o.result.is_err()).collect()
    }

    /// Renders the report as a compact JSON document (hand-written: the
    /// workspace has no serialisation dependency).
    #[must_use]
    pub fn to_json(&self) -> String {
        let s = self.summary();
        let mut out = String::from("{\n  \"summary\": {");
        out.push_str(&format!(
            "\"jobs\": {}, \"succeeded\": {}, \"failed\": {}, \"total_area\": {}, \
             \"area_breakdown\": {{\"fu\": {}, \"register\": {}, \"mux\": {}}}, \
             \"total_latency\": {}, \"total_instances\": {}, \"total_refinements\": {}, \
             \"total_escalations\": {}, \"total_merges\": {}, \"rtl_checked\": {}, \
             \"rtl_passed\": {}, \"portfolio_jobs\": {}, \"portfolio_improved\": {}, \
             \"portfolio_area_saved\": {}",
            s.jobs,
            s.succeeded,
            s.failed,
            s.total_area,
            s.area_breakdown.fu,
            s.area_breakdown.register,
            s.area_breakdown.mux,
            s.total_latency,
            s.total_instances,
            s.total_refinements,
            s.total_escalations,
            s.total_merges,
            s.rtl_checked,
            s.rtl_passed,
            s.portfolio_jobs,
            s.portfolio_improved,
            s.portfolio_area_saved
        ));
        if !s.stages.is_zero() {
            out.push_str(&format!(", \"stages\": {}", stages_json(&s.stages)));
        }
        out.push_str("},\n  \"outcomes\": [\n");
        for (i, o) in self.outcomes.iter().enumerate() {
            out.push_str("    {");
            out.push_str(&format!(
                "\"index\": {}, \"label\": {}",
                o.index,
                json_string(&o.label)
            ));
            match &o.result {
                Ok(st) => {
                    out.push_str(&format!(
                        ", \"ok\": true, \"lambda\": {}, \"area\": {}, \
                         \"area_breakdown\": {{\"fu\": {}, \"register\": {}, \"mux\": {}}}, \
                         \"certificate\": \"{}\", \
                         \"latency\": {}, \"instances\": {}, \"refinements\": {}, \
                         \"escalations\": {}, \"merges\": {}",
                        st.lambda,
                        st.area,
                        st.area_breakdown.fu,
                        st.area_breakdown.register,
                        st.area_breakdown.mux,
                        st.certificate.as_str(),
                        st.latency,
                        st.instances,
                        st.refinements,
                        st.bound_escalations,
                        st.merges
                    ));
                    if let Some(rtl) = &st.rtl {
                        out.push_str(&format!(
                            ", \"rtl\": {{\"passed\": {}, \"vectors\": {}, \
                             \"registers\": {}, \"mux_arms\": {}, \"adapters\": {}",
                            rtl.passed, rtl.vectors, rtl.registers, rtl.mux_arms, rtl.adapters
                        ));
                        if let Some(cert) = rtl.certificate {
                            out.push_str(&format!(", \"certificate\": \"{}\"", cert.as_str()));
                        }
                        if let Some(failure) = &rtl.failure {
                            out.push_str(&format!(", \"failure\": {}", json_string(failure)));
                        }
                        out.push('}');
                    }
                    if let Some(p) = &st.portfolio {
                        out.push_str(&format!(
                            ", \"portfolio\": {{\"seed\": {}, \"variants\": {}, \
                             \"solved\": {}, \"failed\": {}, \"winner\": {}, \
                             \"winner_label\": {}, \"area_saved\": {}",
                            p.seed,
                            p.variants,
                            p.solved,
                            p.failed,
                            p.winner,
                            json_string(&p.winner_label),
                            p.area_saved
                        ));
                        if let Some(v0) = p.variant0_area {
                            out.push_str(&format!(", \"variant0_area\": {v0}"));
                        }
                        out.push('}');
                    }
                    if let Some(stages) = &st.stages {
                        out.push_str(&format!(", \"stages\": {}", stages_json(stages)));
                    }
                }
                Err(e) => out.push_str(&format!(
                    ", \"ok\": false, \"error\": {}",
                    json_string(&e.to_string())
                )),
            }
            out.push('}');
            if i + 1 < self.outcomes.len() {
                out.push(',');
            }
            out.push('\n');
        }
        out.push_str("  ]\n}\n");
        out
    }
}

impl fmt::Display for BatchReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = self.summary();
        writeln!(
            f,
            "batch: {} jobs, {} ok, {} failed, total area {}, {} merges",
            s.jobs, s.succeeded, s.failed, s.total_area, s.total_merges
        )?;
        for o in &self.outcomes {
            match &o.result {
                Ok(st) => {
                    let rtl = match &st.rtl {
                        Some(r) if r.passed => "  rtl ok".to_string(),
                        Some(r) => format!(
                            "  rtl FAIL ({})",
                            r.failure.as_deref().unwrap_or("unknown divergence")
                        ),
                        None => String::new(),
                    };
                    let portfolio = match &st.portfolio {
                        Some(p) if p.winner != 0 => {
                            format!("  portfolio -{} ({})", p.area_saved, p.winner_label)
                        }
                        Some(_) => "  portfolio =baseline".to_string(),
                        None => String::new(),
                    };
                    writeln!(
                        f,
                        "  [{:>3}] {:<28} area {:>8}  latency {:>4}/{:<4} instances \
                         {:>3}{rtl}{portfolio}",
                        o.index, o.label, st.area, st.latency, st.lambda, st.instances
                    )?;
                }
                Err(e) => writeln!(f, "  [{:>3}] {:<28} FAILED: {e}", o.index, o.label)?,
            }
        }
        Ok(())
    }
}

/// Renders a stage breakdown as a JSON object with `<stage>_ns` keys in
/// report order.
fn stages_json(stages: &StageNanos) -> String {
    let mut out = String::from("{");
    for (i, (stage, nanos)) in stages.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        out.push_str(&format!("\"{}_ns\": {nanos}", stage.name()));
    }
    out.push('}');
    out
}

/// Escapes a string as a JSON string literal.
fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_report() -> BatchReport {
        BatchReport {
            outcomes: vec![
                JobOutcome {
                    index: 0,
                    label: "a".into(),
                    result: Ok(JobStats {
                        lambda: 10,
                        area: 100,
                        area_breakdown: AreaBreakdown {
                            fu: 100,
                            register: 24,
                            mux: 12,
                        },
                        certificate: BindingCertificate::Optimal,
                        latency: 9,
                        instances: 3,
                        refinements: 2,
                        bound_escalations: 1,
                        merges: 1,
                        rtl: Some(RtlCheck {
                            passed: true,
                            vectors: 4,
                            registers: 3,
                            mux_arms: 6,
                            adapters: 2,
                            certificate: Some(BindingCertificate::Optimal),
                            failure: None,
                        }),
                        portfolio: Some(PortfolioStats {
                            seed: 42,
                            variants: 6,
                            solved: 5,
                            failed: 1,
                            winner: 3,
                            winner_label: "no_growth+merge_shuffle".into(),
                            variant0_area: Some(112),
                            area_saved: 12,
                        }),
                        stages: None,
                    }),
                },
                JobOutcome {
                    index: 1,
                    label: "b\"quoted\"".into(),
                    result: Err(AllocError::LatencyUnachievable {
                        constraint: 1,
                        minimum: 5,
                    }),
                },
            ],
        }
    }

    #[test]
    fn summary_aggregates() {
        let r = sample_report();
        let s = r.summary();
        assert_eq!(s.jobs, 2);
        assert_eq!(s.succeeded, 1);
        assert_eq!(s.failed, 1);
        assert_eq!(s.total_area, 100);
        assert_eq!(
            s.area_breakdown,
            AreaBreakdown {
                fu: 100,
                register: 24,
                mux: 12
            }
        );
        assert_eq!(s.area_breakdown.fu, s.total_area);
        assert_eq!(s.total_merges, 1);
        assert_eq!(s.rtl_checked, 1);
        assert_eq!(s.rtl_passed, 1);
        assert_eq!(s.portfolio_jobs, 1);
        assert_eq!(s.portfolio_improved, 1);
        assert_eq!(s.portfolio_area_saved, 12);
        assert_eq!(r.failures().len(), 1);
    }

    #[test]
    fn json_is_well_formed_enough() {
        let json = sample_report().to_json();
        assert!(json.starts_with('{') && json.trim_end().ends_with('}'));
        assert!(json.contains("\"jobs\": 2"));
        assert!(json.contains("\\\"quoted\\\""));
        assert!(json.contains("\"ok\": false"));
        assert!(json.contains("\"rtl_checked\": 1"));
        assert!(json.contains("\"rtl\": {\"passed\": true"));
        assert!(json.contains("\"area_breakdown\": {\"fu\": 100, \"register\": 24, \"mux\": 12}"));
        assert!(json.contains("\"certificate\": \"optimal\""));
        assert!(json.contains("\"portfolio_jobs\": 1"));
        assert!(json.contains(
            "\"portfolio\": {\"seed\": 42, \"variants\": 6, \"solved\": 5, \"failed\": 1, \
             \"winner\": 3, \"winner_label\": \"no_growth+merge_shuffle\", \"area_saved\": 12, \
             \"variant0_area\": 112}"
        ));
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "balanced braces"
        );
    }

    #[test]
    fn display_lists_every_job() {
        let text = sample_report().to_string();
        assert!(text.contains("2 jobs"));
        assert!(text.contains("FAILED"));
        assert!(text.contains("rtl ok"));
        assert!(text.contains("portfolio -12 (no_growth+merge_shuffle)"));
    }

    #[test]
    fn baseline_winning_portfolio_is_not_counted_as_improved() {
        let mut r = sample_report();
        if let Ok(st) = &mut r.outcomes[0].result {
            st.portfolio = Some(PortfolioStats {
                seed: 1,
                variants: 4,
                solved: 4,
                failed: 0,
                winner: 0,
                winner_label: "baseline".into(),
                variant0_area: Some(100),
                area_saved: 0,
            });
        }
        let s = r.summary();
        assert_eq!(s.portfolio_jobs, 1);
        assert_eq!(s.portfolio_improved, 0);
        assert_eq!(s.portfolio_area_saved, 0);
        assert!(r.to_string().contains("portfolio =baseline"));
        assert!(r.to_json().contains("\"winner_label\": \"baseline\""));
    }

    #[test]
    fn failed_rtl_check_is_visible() {
        let mut r = sample_report();
        if let Ok(st) = &mut r.outcomes[0].result {
            st.rtl = Some(RtlCheck {
                passed: false,
                vectors: 4,
                registers: 3,
                mux_arms: 6,
                adapters: 2,
                certificate: None,
                failure: Some("vector 1 diverged".into()),
            });
        }
        let s = r.summary();
        assert_eq!(s.rtl_checked, 1);
        assert_eq!(s.rtl_passed, 0);
        // The diagnostic reaches both the human-readable and JSON reports.
        assert!(r.to_string().contains("rtl FAIL (vector 1 diverged)"));
        assert!(r.to_json().contains("\"passed\": false"));
        assert!(r.to_json().contains("\"failure\": \"vector 1 diverged\""));
    }

    #[test]
    fn stage_breakdowns_reach_the_json_report_only_when_present() {
        let without = sample_report();
        assert!(!without.to_json().contains("\"stages\""));
        assert!(without.summary().stages.is_zero());

        let mut with = sample_report();
        if let Ok(st) = &mut with.outcomes[0].result {
            let mut stages = StageNanos::default();
            stages.add(mwl_obs::Stage::Schedule, 1_500);
            stages.add(mwl_obs::Stage::Solve, 4_000);
            st.stages = Some(stages);
        }
        let summary = with.summary();
        assert_eq!(summary.stages.get(mwl_obs::Stage::Schedule), 1_500);
        assert_eq!(summary.stages.get(mwl_obs::Stage::Solve), 4_000);
        let json = with.to_json();
        assert!(json.contains("\"stages\": {\"schedule_ns\": 1500, \"bind_ns\": 0"));
        assert!(json.contains("\"solve_ns\": 4000}"));
        // Stripping the breakdowns restores the obs-off report exactly.
        if let Ok(st) = &mut with.outcomes[0].result {
            st.stages = None;
        }
        assert_eq!(with.to_json(), without.to_json());
    }

    #[test]
    fn json_string_escapes() {
        assert_eq!(json_string("x"), "\"x\"");
        assert_eq!(json_string("a\nb"), "\"a\\nb\"");
        assert_eq!(json_string("\u{1}"), "\"\\u0001\"");
    }
}
