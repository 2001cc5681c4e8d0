//! Figure 5: execution time of the heuristic versus the ILP as the number of
//! operations grows.

use std::time::{Duration, Instant};

use mwl_core::{AllocConfig, DpAllocator};
use mwl_model::SonicCostModel;
use mwl_optimal::IlpAllocator;
use mwl_tgff::{TgffConfig, TgffGenerator};

use crate::sweep::{lambda_min, SweepConfig};

/// Parameters of the Figure 5 sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig5Config {
    /// Problem sizes |O| to sweep.
    pub sizes: Vec<usize>,
    /// Shared sweep settings.
    pub sweep: SweepConfig,
    /// Also time the heuristic beyond the ILP-tractable range (the paper's
    /// polynomial-complexity claim); sizes in this list are heuristic-only.
    pub heuristic_only_sizes: Vec<usize>,
}

impl Fig5Config {
    /// The paper's range (1..=10 operations for both solvers).
    #[must_use]
    pub fn paper() -> Self {
        Fig5Config {
            sizes: (1..=10).collect(),
            sweep: SweepConfig::paper(),
            heuristic_only_sizes: vec![16, 20, 24],
        }
    }

    /// A reduced range for quick runs.
    #[must_use]
    pub fn quick() -> Self {
        Fig5Config {
            sizes: (1..=7).collect(),
            sweep: SweepConfig::quick(),
            heuristic_only_sizes: vec![12, 18, 24],
        }
    }
}

/// One point of the Figure 5 series.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fig5Row {
    /// Number of operations |O|.
    pub ops: usize,
    /// Total heuristic execution time over all graphs of this size.
    pub heuristic_time: Duration,
    /// Total ILP execution time over all graphs of this size (`None` for
    /// heuristic-only sizes).
    pub ilp_time: Option<Duration>,
    /// Number of ILP runs that hit the per-graph time limit.
    pub ilp_timeouts: usize,
    /// Number of graphs evaluated.
    pub graphs: usize,
}

/// The full Figure 5 series.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig5Results {
    /// One row per problem size.
    pub rows: Vec<Fig5Row>,
}

impl Fig5Results {
    /// Renders the series as fixed-width text.
    #[must_use]
    pub fn render_text(&self) -> String {
        let mut out = String::from(
            "Figure 5: execution time vs number of operations (totals over the swept graphs)\n",
        );
        out.push_str("|O|   heuristic      ILP            ILP timeouts  graphs\n");
        for r in &self.rows {
            let ilp = match r.ilp_time {
                Some(t) => format!("{:>10.3?}", t),
                None => format!("{:>10}", "-"),
            };
            out.push_str(&format!(
                "{:<5} {:>10.3?}  {}   {:>12}  {:>6}\n",
                r.ops, r.heuristic_time, ilp, r.ilp_timeouts, r.graphs
            ));
        }
        out
    }

    /// Renders the series as CSV (times in milliseconds).
    #[must_use]
    pub fn to_csv(&self) -> String {
        let mut out = String::from("ops,heuristic_ms,ilp_ms,ilp_timeouts,graphs\n");
        for r in &self.rows {
            out.push_str(&format!(
                "{},{:.3},{},{},{}\n",
                r.ops,
                r.heuristic_time.as_secs_f64() * 1e3,
                r.ilp_time.map_or_else(
                    || "-".to_string(),
                    |t| format!("{:.3}", t.as_secs_f64() * 1e3)
                ),
                r.ilp_timeouts,
                r.graphs
            ));
        }
        out
    }
}

/// Runs the Figure 5 sweep (λ = λ_min, the regime most favourable to the
/// ILP, as the paper notes).
#[must_use]
pub fn run_fig5(config: &Fig5Config) -> Fig5Results {
    let cost = SonicCostModel::default();
    let mut rows = Vec::new();
    let all_sizes: Vec<(usize, bool)> = config
        .sizes
        .iter()
        .map(|&s| (s, true))
        .chain(config.heuristic_only_sizes.iter().map(|&s| (s, false)))
        .collect();
    for (ops, with_ilp) in all_sizes {
        let mut generator = TgffGenerator::new(
            TgffConfig::with_ops(ops),
            config.sweep.seed.wrapping_add(77 * ops as u64),
        );
        let mut heuristic_time = Duration::ZERO;
        let mut ilp_time = Duration::ZERO;
        let mut ilp_timeouts = 0usize;
        let graphs = config.sweep.graphs_per_point;
        for _ in 0..graphs {
            let graph = generator.generate();
            let lambda = lambda_min(&graph, &cost);

            let start = Instant::now();
            let _ = DpAllocator::new(&cost, AllocConfig::new(lambda)).allocate(&graph);
            heuristic_time += start.elapsed();

            if with_ilp {
                let start = Instant::now();
                let result = IlpAllocator::new(&cost, lambda)
                    .with_time_limit(config.sweep.ilp_time_limit)
                    .allocate(&graph);
                ilp_time += start.elapsed();
                match result {
                    Ok(out) if out.stats.proven_optimal => {}
                    _ => ilp_timeouts += 1,
                }
            }
        }
        rows.push(Fig5Row {
            ops,
            heuristic_time,
            ilp_time: with_ilp.then_some(ilp_time),
            ilp_timeouts,
            graphs,
        });
    }
    Fig5Results { rows }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn heuristic_is_faster_than_ilp_for_nontrivial_sizes() {
        let config = Fig5Config {
            sizes: vec![2, 6],
            sweep: SweepConfig::quick().with_graphs(4),
            heuristic_only_sizes: vec![12],
        };
        let results = run_fig5(&config);
        assert_eq!(results.rows.len(), 3);
        let six = results.rows.iter().find(|r| r.ops == 6).unwrap();
        let ilp = six.ilp_time.unwrap();
        assert!(
            ilp >= six.heuristic_time,
            "ILP ({ilp:?}) should not be faster than the heuristic ({:?}) at 6 ops",
            six.heuristic_time
        );
        // Heuristic-only sizes have no ILP column.
        let twelve = results.rows.iter().find(|r| r.ops == 12).unwrap();
        assert!(twelve.ilp_time.is_none());
        let text = results.render_text();
        assert!(text.contains("Figure 5"));
        let csv = results.to_csv();
        assert_eq!(csv.lines().count(), 1 + results.rows.len());
    }
}
