//! The run result: named metrics, validity notes and the one-line JSON the
//! benchmark prints last.

use std::fmt::Write as _;

/// One named measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// Everything one run reports.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Every output check passed.
    pub correct: bool,
    /// Jobs or requests attempted in the measured part of the run.
    pub attempted: u64,
    /// Attempted jobs that failed, were rejected or gave a wrong output.
    pub failed: u64,
    /// The reported metrics, in report order.
    pub metrics: Vec<Metric>,
    /// Noise and validity statements printed above the JSON line.
    pub notes: Vec<String>,
    /// Order-sensitive digest of every checked datapath fingerprint.
    pub digest: u64,
    /// Human-readable per-layer table (traced runs only).
    pub table: String,
}

impl Outcome {
    /// Adds a metric; a non-finite value is reported as 0 with a note.
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        let value = if value == 0.0 {
            0.0 // also turns -0.0 (an empty float sum) into 0
        } else if value.is_finite() {
            value
        } else {
            self.notes
                .push(format!("metric {name} was not finite and is reported as 0"));
            0.0
        };
        self.metrics.push(Metric { name, value, unit });
    }

    /// The value of a metric, if reported.
    #[must_use]
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// Adds a note.
    pub fn note(&mut self, note: impl Into<String>) {
        self.notes.push(note.into());
    }

    /// The result object: `correct`, `attempted`, `failed`, `metrics`.
    #[must_use]
    pub fn json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct,
            self.attempted.max(1),
            self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            );
        }
        out.push_str("}}");
        out
    }
}
