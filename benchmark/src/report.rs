//! What a run reports, and the two forms it is printed in: one
//! `name value unit workload` line per metric for people, then — last —
//! the one-line JSON object the driver reads.

use crate::json::{obj, Json};
use crate::spec::Metric;

/// The result of one run of one workload.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Ops run, and ops that failed, were refused, or answered wrongly.
    pub attempted: u64,
    pub failed: u64,
    /// Checks over the whole run that failed (fingerprint, census, …).
    pub problems: Vec<String>,
    /// Every declared metric of the mode, by name.
    pub metrics: Vec<(&'static str, f64)>,
    /// Sizes and counts a reader needs beside the numbers.
    pub notes: Vec<(&'static str, String)>,
}

impl Outcome {
    /// No op failed and no run-wide check did.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty()
    }

    /// The value reported for `name`.
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|(n, _)| *n == name).map(|m| m.1)
    }

    /// The contract's result object: exactly `correct`, `attempted`,
    /// `failed` and `metrics`, the latter in `declared` order.
    pub fn result_json(&self, declared: &[Metric]) -> Json {
        let metrics = declared.iter().map(|m| {
            let value = self
                .metric(m.name)
                .unwrap_or_else(|| panic!("declared metric {} was not measured", m.name));
            (
                m.name,
                obj([
                    ("value", Json::Num(value)),
                    ("unit", Json::Str(m.unit.into())),
                ]),
            )
        });
        obj([
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("metrics", obj(metrics)),
        ])
    }

    /// Prints the human-readable lines, then the result object last.
    pub fn print(&self, workload: &str, declared: &[Metric]) {
        assert_eq!(
            self.metrics.len(),
            declared.len(),
            "measured and declared metrics differ in number"
        );
        for (key, value) in &self.notes {
            println!("# {key} = {value}");
        }
        for problem in &self.problems {
            println!("# WRONG: {problem}");
        }
        for m in declared {
            let value = self.metric(m.name).expect("checked by result_json");
            println!("{} {value} {} {workload}", m.name, m.unit);
        }
        println!("{}", self.result_json(declared).render());
    }
}
