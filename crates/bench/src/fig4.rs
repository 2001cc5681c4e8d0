//! Figure 4: area premium of the heuristic over the ILP optimum \[5\].

use mwl_core::{AllocConfig, DpAllocator};
use mwl_model::SonicCostModel;
use mwl_optimal::IlpAllocator;
use mwl_tgff::{TgffConfig, TgffGenerator};

use crate::sweep::{lambda_min, SweepConfig};

/// Parameters of the Figure 4 sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig4Config {
    /// Problem sizes |O| to sweep (the paper shows roughly 1..=10; larger
    /// sizes make the ILP intractable, which is the paper's point).
    pub sizes: Vec<usize>,
    /// Shared sweep settings.
    pub sweep: SweepConfig,
}

impl Fig4Config {
    /// The paper's range (small problems, λ = λ_min).
    #[must_use]
    pub fn paper() -> Self {
        Fig4Config {
            sizes: (1..=10).collect(),
            sweep: SweepConfig::paper(),
        }
    }

    /// A reduced range for quick runs.
    #[must_use]
    pub fn quick() -> Self {
        Fig4Config {
            sizes: (1..=7).collect(),
            sweep: SweepConfig::quick(),
        }
    }
}

/// One point of the Figure 4 series.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fig4Row {
    /// Number of operations |O|.
    pub ops: usize,
    /// Mean area premium of the heuristic over the optimum, in percent.
    pub mean_area_premium_percent: f64,
    /// Largest premium observed over the swept graphs, in percent.
    pub max_area_premium_percent: f64,
    /// Number of graphs for which the ILP optimum was proven within the time
    /// limit (only these contribute to the averages).
    pub graphs_solved: usize,
    /// Number of graphs skipped because the ILP hit its time limit.
    pub graphs_timed_out: usize,
}

/// The full Figure 4 series.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig4Results {
    /// One row per problem size.
    pub rows: Vec<Fig4Row>,
}

impl Fig4Results {
    /// Renders the series as fixed-width text.
    #[must_use]
    pub fn render_text(&self) -> String {
        let mut out =
            String::from("Figure 4: area premium (%) of the heuristic over the ILP optimum [5]\n");
        out.push_str("|O|   mean%    max%   solved  timed-out\n");
        for r in &self.rows {
            out.push_str(&format!(
                "{:<5} {:>6.1}  {:>6.1}  {:>6}  {:>9}\n",
                r.ops,
                r.mean_area_premium_percent,
                r.max_area_premium_percent,
                r.graphs_solved,
                r.graphs_timed_out
            ));
        }
        out
    }

    /// Renders the series as CSV.
    #[must_use]
    pub fn to_csv(&self) -> String {
        let mut out = String::from(
            "ops,mean_area_premium_percent,max_area_premium_percent,solved,timed_out\n",
        );
        for r in &self.rows {
            out.push_str(&format!(
                "{},{:.4},{:.4},{},{}\n",
                r.ops,
                r.mean_area_premium_percent,
                r.max_area_premium_percent,
                r.graphs_solved,
                r.graphs_timed_out
            ));
        }
        out
    }
}

/// Runs the Figure 4 sweep (λ = λ_min for every graph, as in the paper).
#[must_use]
pub fn run_fig4(config: &Fig4Config) -> Fig4Results {
    let cost = SonicCostModel::default();
    let mut rows = Vec::new();
    for &ops in &config.sizes {
        let mut generator = TgffGenerator::new(
            TgffConfig::with_ops(ops),
            config.sweep.seed.wrapping_add(31 * ops as u64),
        );
        let mut premiums = Vec::new();
        let mut timed_out = 0usize;
        for _ in 0..config.sweep.graphs_per_point {
            let graph = generator.generate();
            let lambda = lambda_min(&graph, &cost);
            let heuristic = DpAllocator::new(&cost, AllocConfig::new(lambda)).allocate(&graph);
            let optimal = IlpAllocator::new(&cost, lambda)
                .with_time_limit(config.sweep.ilp_time_limit)
                .allocate(&graph);
            match (heuristic, optimal) {
                (Ok(h), Ok(o)) if o.stats.proven_optimal && o.datapath.area() > 0 => {
                    let premium = (h.area() as f64 - o.datapath.area() as f64)
                        / o.datapath.area() as f64
                        * 100.0;
                    premiums.push(premium);
                }
                (_, Ok(_)) | (Ok(_), Err(_)) => timed_out += 1,
                _ => timed_out += 1,
            }
        }
        let solved = premiums.len();
        let mean = if solved > 0 {
            premiums.iter().sum::<f64>() / solved as f64
        } else {
            0.0
        };
        let max = premiums.iter().copied().fold(0.0f64, f64::max);
        rows.push(Fig4Row {
            ops,
            mean_area_premium_percent: mean,
            max_area_premium_percent: max,
            graphs_solved: solved,
            graphs_timed_out: timed_out,
        });
    }
    Fig4Results { rows }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn premium_is_nonnegative_and_small_for_tiny_graphs() {
        let config = Fig4Config {
            sizes: vec![1, 3, 5],
            sweep: SweepConfig::quick().with_graphs(6),
        };
        let results = run_fig4(&config);
        assert_eq!(results.rows.len(), 3);
        for r in &results.rows {
            assert!(r.mean_area_premium_percent >= -1e-9);
            assert!(r.max_area_premium_percent >= r.mean_area_premium_percent - 1e-9);
            assert!(r.graphs_solved > 0);
        }
        // A single operation has a unique solution: zero premium.
        assert!(results.rows[0].mean_area_premium_percent.abs() < 1e-9);
        let text = results.render_text();
        assert!(text.contains("Figure 4"));
        let csv = results.to_csv();
        assert_eq!(csv.lines().count(), 1 + results.rows.len());
    }
}
