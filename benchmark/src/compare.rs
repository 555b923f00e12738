//! `compare A.json B.json`: one row per (end-to-end metric, workload)
//! of two `results.json` files, B against the base A.
//!
//! The verdict uses the bound `BENCHMARK.json` fixes for the metric:
//! `worse` when B's median is worse than A's by more than the bound,
//! `better` when it is better by more than the bound, `same` otherwise —
//! unless either side's own runs spread wider than the bound, which
//! makes the row `unresolved` (a difference the benchmark cannot see),
//! except when every run of one side beats every run of the other.

use std::path::Path;

use crate::json::Json;
use crate::stats::{median, quartile_spread};

fn load(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Every untraced value of `metric` on `workload`, one per set.
fn values(results: &Json, workload: &str, metric: &str) -> Vec<f64> {
    let runs = results.get("runs").and_then(Json::as_arr).unwrap_or(&[]);
    runs.iter()
        .filter(|run| {
            run.get("workload").and_then(Json::as_str) == Some(workload)
                && run.get("trace").and_then(Json::as_f64) == Some(0.0)
        })
        .filter_map(|run| {
            run.get("result")?
                .get("metrics")?
                .get(metric)?
                .get("value")?
                .as_f64()
        })
        .collect()
}

/// Quartile distance as a share of the median; 0 for a single run.
fn spread(values: &[f64]) -> f64 {
    if values.len() < 2 {
        0.0
    } else {
        quartile_spread(values.to_vec())
    }
}

/// The verdict for one row. `a` and `b` are the two sides' runs;
/// `bound` and the spreads are shares (0.05 = 5 %).
pub fn verdict(a: &[f64], b: &[f64], higher_is_better: bool, bound: f64) -> &'static str {
    // Signed so that positive means B is worse.
    let sign = if higher_is_better { -1.0 } else { 1.0 };
    let worse_by = sign * (median(b.to_vec()) - median(a.to_vec())) / median(a.to_vec());
    if spread(a) > bound || spread(b) > bound {
        let beats =
            |x: &[f64], y: &[f64]| x.iter().all(|&p| y.iter().all(|&q| sign * (p - q) < 0.0));
        return if beats(b, a) {
            "better"
        } else if beats(a, b) {
            "worse"
        } else {
            "unresolved"
        };
    }
    if worse_by > bound {
        "worse"
    } else if worse_by < -bound {
        "better"
    } else {
        "same"
    }
}

/// Prints the comparison of `b_path` against the base `a_path`.
pub fn compare(dir: &Path, a_path: &Path, b_path: &Path) -> Result<(), String> {
    let declared = load(&dir.join("..").join("BENCHMARK.json"))?;
    let (a, b) = (load(a_path)?, load(b_path)?);
    for (side, doc) in [("A (base)", &a), ("B", &b)] {
        let stamp = doc.get("stamp").map_or("no stamp".into(), Json::render);
        println!("# {side}: {stamp}");
    }
    println!(
        "{:<16} {:<17} {:>12} {:>12} {:<6} {:>8} {:>7} {:>9} {:>9}  verdict",
        "workload",
        "metric",
        "A median",
        "B median",
        "unit",
        "delta",
        "bound",
        "A spread",
        "B spread"
    );
    let list = |key: &str| declared.get(key).and_then(Json::as_arr).unwrap_or(&[]);
    for workload in list("workloads") {
        let workload = workload.get("name").and_then(Json::as_str).unwrap_or("?");
        for metric in list("end_to_end") {
            let field = |key: &str| metric.get(key).and_then(Json::as_str).unwrap_or("?");
            let (name, unit) = (field("name"), field("unit"));
            let bound = metric.get("bound").and_then(Json::as_f64).unwrap_or(0.0);
            let (va, vb) = (values(&a, workload, name), values(&b, workload, name));
            if va.is_empty() || vb.is_empty() {
                println!("{workload:<16} {name:<17} missing on one side");
                continue;
            }
            let (ma, mb) = (median(va.clone()), median(vb.clone()));
            println!(
                "{workload:<16} {name:<17} {ma:>12.5} {mb:>12.5} {unit:<6} {:>+7.2}% {:>6.1}% {:>8.2}% {:>8.2}%  {}",
                (mb - ma) / ma * 100.0,
                bound * 100.0,
                spread(&va) * 100.0,
                spread(&vb) * 100.0,
                verdict(&va, &vb, field("better") == "higher", bound),
            );
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_bound_direction_and_spread() {
        // Lower is better, 5 % bound, tight runs.
        assert_eq!(
            verdict(&[100.0, 101.0], &[102.0, 103.0], false, 0.05),
            "same"
        );
        assert_eq!(
            verdict(&[100.0, 101.0], &[110.0, 111.0], false, 0.05),
            "worse"
        );
        assert_eq!(
            verdict(&[100.0, 101.0], &[90.0, 91.0], false, 0.05),
            "better"
        );
        // Higher is better flips it.
        assert_eq!(
            verdict(&[100.0, 101.0], &[110.0, 111.0], true, 0.05),
            "better"
        );
        assert_eq!(verdict(&[100.0], &[90.0], true, 0.05), "worse");
        // One side spreads wider than the bound: unresolved, unless
        // every run of one side beats every run of the other.
        assert_eq!(
            verdict(&[100.0, 120.0], &[105.0, 125.0], false, 0.05),
            "unresolved"
        );
        assert_eq!(
            verdict(&[100.0, 120.0], &[60.0, 80.0], false, 0.05),
            "better"
        );
        assert_eq!(
            verdict(&[100.0, 120.0], &[130.0, 150.0], false, 0.05),
            "worse"
        );
    }

    #[test]
    fn values_pick_untraced_runs_of_one_workload() {
        let doc = Json::parse(
            r#"{"runs": [
              {"workload": "w", "trace": 0, "result": {"metrics": {"m": {"value": 1.5, "unit": "s"}}}},
              {"workload": "w", "trace": 1, "result": {"metrics": {"m": {"value": 9, "unit": "s"}}}},
              {"workload": "x", "trace": 0, "result": {"metrics": {"m": {"value": 7, "unit": "s"}}}},
              {"workload": "w", "trace": 0, "result": {"metrics": {"m": {"value": 2.5, "unit": "s"}}}}
            ]}"#,
        )
        .unwrap();
        assert_eq!(values(&doc, "w", "m"), vec![1.5, 2.5]);
        assert!(values(&doc, "w", "absent").is_empty());
    }
}
