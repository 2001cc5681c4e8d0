//! End-to-end and per-layer benchmark of the mwl allocation stack.
//!
//! Two workloads load different layers: `sweep_small` (many small unique
//! jobs through `run_batch`) and `scale_large` (32–128-op graphs through
//! `solve_job`).  An untraced run reports the end-to-end metrics; a traced
//! run replays each job's layer calls inside the benchmark's own spans,
//! sends some jobs through a loopback `SpawnedServer`, and reports the
//! per-layer metrics.  See
//! `README.md` in this directory.

pub mod batch;
pub mod check;
pub mod inputs;
pub mod layers;
pub mod report;
pub mod serve;
pub mod spans;
pub mod stats;

use report::Outcome;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Small unique design-space sweep requests through `run_batch`.
    SweepSmall,
    /// 32–128-op graphs through `solve_job`.
    ScaleLarge,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 2] = [Workload::SweepSmall, Workload::ScaleLarge];

    /// The workload's name on the command line.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::SweepSmall => "sweep_small",
            Workload::ScaleLarge => "scale_large",
        }
    }

    /// Parses a workload name.
    #[must_use]
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Runs one workload.  An untraced run reports the end-to-end metrics; a
/// traced run reports the per-layer metrics, writes its trace to
/// `trace_path` and fills [`Outcome::table`].
///
/// # Errors
///
/// A trace that could not be written.
pub fn run(
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace_path: Option<&std::path::Path>,
) -> Result<Outcome, String> {
    let Some(path) = trace_path else {
        return match workload {
            Workload::SweepSmall => Ok(batch::sweep_small(seed, seconds)),
            Workload::ScaleLarge => Ok(batch::scale_large(seed, seconds)),
        };
    };
    let (mut out, layers) = match workload {
        Workload::SweepSmall => batch::sweep_small_traced(seed, seconds),
        Workload::ScaleLarge => batch::scale_large_traced(seed, seconds),
    };
    layers
        .write_trace(path)
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    out.table = layers.table(workload.name());
    out.note(format!("trace written to {}", path.display()));
    Ok(out)
}
