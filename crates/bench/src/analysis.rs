//! Eliciting a cost model from benchmark runs — the paper's original
//! goal, achieved.
//!
//! §2: "Our hope was that, with the help of an expert in data analysis
//! (Yves Lechevallier at INRIA), we could elicit a cost model from the
//! results (in a manner similar to what Fedorowicz proposes)." The
//! authors never got enough runs. The simulator can produce as many as
//! we like, so this module does the experiment: run a sweep, regress
//! elapsed time on the observable per-run counters, and compare the
//! fitted coefficients with the true `CostModel` constants.
//!
//! The regression is ordinary least squares via the normal equations
//! (the feature count is tiny), solved with Gaussian elimination.

use crate::harness::build_db;
use tq_pagestore::CostModel;
use tq_query::{JoinAlgo, JoinOptions};
use tq_server::measure::{run_join_cell, JoinCell};
use tq_workload::{DbShape, Organization};

/// One observation: feature vector plus observed elapsed seconds.
#[derive(Clone, Debug)]
pub struct Observation {
    /// Feature values (see [`FEATURES`]).
    pub x: Vec<f64>,
    /// Elapsed simulated seconds.
    pub y: f64,
}

/// Feature names, in order.
///
/// Cold runs make disk reads and RPCs perfectly collinear (every cold
/// miss is one of each), so they appear as a single "page" feature
/// whose fitted coefficient absorbs read + ship time.
pub const FEATURES: [&str; 4] = [
    "pages read+shipped",
    "objects fetched",
    "result tuples",
    "swap faults",
];

/// Extracts the feature vector from a measured join cell.
pub fn features_of(cell: &JoinCell) -> Observation {
    Observation {
        x: vec![
            cell.io.d2sc_read_pages as f64,
            (cell.report.parents_scanned + cell.report.children_scanned) as f64,
            cell.results as f64,
            cell.report.swap_faults as f64,
        ],
        y: cell.secs,
    }
}

/// Ordinary least squares without an intercept: minimizes
/// `||X·beta - y||²`. Returns `None` when the normal matrix is
/// singular (degenerate design).
pub fn ols(observations: &[Observation]) -> Option<Vec<f64>> {
    let k = observations.first()?.x.len();
    // Normal equations: (XᵀX) beta = Xᵀy.
    let mut a = vec![vec![0.0f64; k]; k];
    let mut b = vec![0.0f64; k];
    for obs in observations {
        assert_eq!(obs.x.len(), k, "ragged observation");
        for i in 0..k {
            b[i] += obs.x[i] * obs.y;
            for (aij, xj) in a[i].iter_mut().zip(&obs.x) {
                *aij += obs.x[i] * xj;
            }
        }
    }
    // Gaussian elimination with partial pivoting.
    for col in 0..k {
        let pivot = (col..k).max_by(|&p, &q| a[p][col].abs().total_cmp(&a[q][col].abs()))?;
        if a[pivot][col].abs() < 1e-12 {
            return None;
        }
        a.swap(col, pivot);
        b.swap(col, pivot);
        for row in col + 1..k {
            let f = a[row][col] / a[col][col];
            let (upper, lower) = a.split_at_mut(row);
            let pivot_row = &upper[col];
            for (rj, pj) in lower[0][col..].iter_mut().zip(&pivot_row[col..]) {
                *rj -= f * pj;
            }
            b[row] -= f * b[col];
        }
    }
    let mut beta = vec![0.0f64; k];
    for row in (0..k).rev() {
        let mut acc = b[row];
        for j in row + 1..k {
            acc -= a[row][j] * beta[j];
        }
        beta[row] = acc / a[row][row];
    }
    Some(beta)
}

/// Coefficient of determination for a fit.
pub fn r_squared(observations: &[Observation], beta: &[f64]) -> f64 {
    let mean = observations.iter().map(|o| o.y).sum::<f64>() / observations.len() as f64;
    let mut ss_res = 0.0;
    let mut ss_tot = 0.0;
    for obs in observations {
        let pred: f64 = obs.x.iter().zip(beta).map(|(x, b)| x * b).sum();
        ss_res += (obs.y - pred) * (obs.y - pred);
        ss_tot += (obs.y - mean) * (obs.y - mean);
    }
    if ss_tot == 0.0 {
        1.0
    } else {
        1.0 - ss_res / ss_tot
    }
}

/// The fitted model plus the truth to compare against.
pub struct CostModelFit {
    /// Fitted seconds-per-unit for each of [`FEATURES`].
    pub beta: Vec<f64>,
    /// R² of the fit.
    pub r2: f64,
    /// Observations used.
    pub observations: usize,
    /// Scale divisor used.
    pub scale: u32,
}

/// Runs the sweep (3 organizations × 4 cells × 4 algorithms) and fits.
pub fn run(scale: u32) -> CostModelFit {
    let mut observations = Vec::new();
    for org in Organization::all() {
        let mut db = build_db(DbShape::Db2, org, scale);
        for (pat, prov) in [(10u32, 10u32), (10, 90), (90, 10), (90, 90)] {
            for algo in JoinAlgo::all() {
                let cell = run_join_cell(&mut db, algo, pat, prov, &JoinOptions::default());
                observations.push(features_of(&cell));
            }
        }
    }
    // Features that never occurred in the sweep (e.g. swap faults at
    // scales where no table outgrows the budget) are unidentifiable:
    // prune them, fit the rest, and report 0 for the pruned ones.
    let k = FEATURES.len();
    let active: Vec<usize> = (0..k)
        .filter(|&i| observations.iter().any(|o| o.x[i].abs() > 1e-9))
        .collect();
    let pruned: Vec<Observation> = observations
        .iter()
        .map(|o| Observation {
            x: active.iter().map(|&i| o.x[i]).collect(),
            y: o.y,
        })
        .collect();
    let fitted = ols(&pruned).expect("active features span a full-rank design");
    let mut beta = vec![0.0f64; k];
    for (slot, &i) in active.iter().enumerate() {
        beta[i] = fitted[slot];
    }
    let r2 = r_squared(&observations, &beta);
    CostModelFit {
        beta,
        r2,
        observations: observations.len(),
        scale,
    }
}

/// Prints the fitted coefficients against the true constants.
pub fn print(fit: &CostModelFit) -> String {
    use std::fmt::Write;
    let m = CostModel::sparc20();
    let truth_ms: [(f64, &str); 4] = [
        (
            (m.read_page_random + m.rpc_per_page) as f64 / 1e6,
            "8.5-10.5 ms/page (read + rpc, seq-random mix)",
        ),
        (
            (m.handle_alloc + m.handle_unref + m.handle_free) as f64 / 1e6 + 0.12,
            "~0.25 ms/object (handle cycle + attribute gets)",
        ),
        (
            (m.result_append_transient + 2 * m.attr_get) as f64 / 1e6,
            "0.17 ms/tuple (append + projections)",
        ),
        (m.swap_fault as f64 / 1e6, "20 ms/fault"),
    ];
    let mut out = String::new();
    writeln!(
        out,
        "Eliciting the cost model from {} runs by least squares (scale 1/{}):",
        fit.observations, fit.scale
    )
    .unwrap();
    writeln!(
        out,
        "  feature               fitted (ms/unit)   true constant"
    )
    .unwrap();
    for ((name, beta), (_, truth)) in FEATURES.iter().zip(&fit.beta).zip(truth_ms) {
        writeln!(out, "  {:<20} {:>15.3}    {}", name, beta * 1e3, truth).unwrap();
    }
    writeln!(out, "  R² = {:.4}", fit.r2).unwrap();
    writeln!(
        out,
        "  — the regression the authors hoped Lechevallier's data analysis would\n    \
         give them: with enough (deterministic) runs, the constants fall out."
    )
    .unwrap();
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obs(x: Vec<f64>, y: f64) -> Observation {
        Observation { x, y }
    }

    #[test]
    fn ols_recovers_exact_coefficients() {
        // y = 2 x0 + 0.5 x1, no noise.
        let data: Vec<Observation> = (0..20)
            .map(|i| {
                let x0 = (i % 7) as f64 + 1.0;
                let x1 = (i % 5) as f64 * 3.0 + 2.0;
                obs(vec![x0, x1], 2.0 * x0 + 0.5 * x1)
            })
            .collect();
        let beta = ols(&data).unwrap();
        assert!((beta[0] - 2.0).abs() < 1e-9, "{beta:?}");
        assert!((beta[1] - 0.5).abs() < 1e-9, "{beta:?}");
        assert!((r_squared(&data, &beta) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn ols_rejects_singular_designs() {
        // x1 is always 2 * x0: rank deficient.
        let data: Vec<Observation> = (1..10)
            .map(|i| obs(vec![i as f64, 2.0 * i as f64], 3.0 * i as f64))
            .collect();
        assert!(ols(&data).is_none());
    }

    #[test]
    fn ols_fits_noisy_data_approximately() {
        // y = 4 x0 + 1 x1 + deterministic "noise".
        let data: Vec<Observation> = (0..60)
            .map(|i| {
                let x0 = ((i * 13) % 17) as f64 + 1.0;
                let x1 = ((i * 7) % 11) as f64 + 1.0;
                let noise = ((i * 31) % 5) as f64 * 0.05 - 0.1;
                obs(vec![x0, x1], 4.0 * x0 + x1 + noise)
            })
            .collect();
        let beta = ols(&data).unwrap();
        assert!((beta[0] - 4.0).abs() < 0.05, "{beta:?}");
        assert!((beta[1] - 1.0).abs() < 0.1, "{beta:?}");
        assert!(r_squared(&data, &beta) > 0.999);
    }

    #[test]
    fn sweep_fit_recovers_the_simulators_constants() {
        let fit = run(500);
        assert!(fit.r2 > 0.95, "R² = {}", fit.r2);
        // Disk page cost lands near 8-10 ms.
        let page_ms = fit.beta[0] * 1e3;
        assert!(
            (5.0..14.0).contains(&page_ms),
            "fitted page cost {page_ms:.2} ms"
        );
        // Per-object (handle) cost lands near 0.25 ms.
        let obj_ms = fit.beta[1] * 1e3;
        assert!(
            (0.1..0.5).contains(&obj_ms),
            "fitted object cost {obj_ms:.3} ms"
        );
    }
}
