//! Every figure's stdout, frozen: one digest per `tq-fig` invocation at
//! `TQ_SCALE=1000 TQ_JOBS=2` in `tests/golden/figures.fp`, run in
//! process through the [`figures::FIGURES`] registry. `fig_parallel`
//! prints host times, so only its simulated columns are pinned.

mod golden;

use tq_bench::figures;
use tq_query::PlannerPolicy;

const ROWS: &[&str] = &[
    "fig06_selection",
    "fig07_sorted_index",
    "fig10_hash_sizes",
    "fig10_hash_sizes --measure",
    "fig11_14_joins",
    "fig11_14_joins --db db1 --org class",
    "fig11_14_joins --db db1 --org random",
    "fig11_14_joins --db db1 --org comp",
    "fig11_14_joins --db db2 --org class",
    "fig11_14_joins --db db2 --org random",
    "fig11_14_joins --db db2 --org comp",
    "fig11_14_joins --db db2 --org class --explain",
    "fig15_summary",
    "fig_assoc_ordered",
    "fig_cost_model_fit",
    "fig_handle_ablation",
    "fig_hybrid",
    "fig_loading",
    "fig_multiway",
    "fig_multiway --planner estimate",
    "fig_multiway --planner simpli",
    "fig_multiway --planner syntactic",
    "fig_parallel",
    "fig_rid_vs_handle",
    "fig_warm",
];

/// `fig_parallel`'s `algo degree sim_secs results` columns, one row per
/// table line; its header and speedup lines carry host measurements.
fn simulated_columns(stdout: &str) -> String {
    stdout
        .lines()
        .skip_while(|line| !line.starts_with("algo "))
        .skip(1)
        .filter(|line| !line.starts_with(' '))
        .map(|line| {
            let f: Vec<&str> = line.split_whitespace().collect();
            format!("{} {} {} {}\n", f[0], f[1], f[4], f[5])
        })
        .collect()
}

/// What `tq-fig <row>` prints, run in this process.
fn run(row: &str, scale: u32) -> String {
    let words: Vec<String> = row.split_whitespace().map(String::from).collect();
    let fig = figures::find(&words[0]).expect("a registered figure");
    let args = fig.parse(&words[1..], scale, 2).expect("valid flags");
    let stdout = (fig.run)(&args);
    if fig.name == "fig_parallel" {
        simulated_columns(&stdout)
    } else {
        stdout
    }
}

#[test]
fn every_figure_prints_the_frozen_stdout() {
    let cells: Vec<(String, String)> = ROWS
        .iter()
        .map(|row| (row.to_string(), run(row, 1000)))
        .collect();
    golden::assert_matches("figures.fp", &cells);
}

/// Order changes time, never answers: every `--planner` policy returns
/// the same result counts per (depth, cell) at scale 200.
#[test]
fn every_planner_policy_returns_the_same_results() {
    let counts = |planner: &str| -> Vec<String> {
        let out = run(&format!("fig_multiway --planner {planner}"), 200);
        out.split_whitespace()
            .filter(|w| w.starts_with("results="))
            .map(String::from)
            .collect()
    };
    let [estimate, simpli, syntactic] = PlannerPolicy::all().map(|p| counts(p.label()));
    assert!(
        !estimate.is_empty(),
        "fig_multiway printed no result counts"
    );
    assert_eq!(simpli, estimate, "simpli");
    assert_eq!(syntactic, estimate, "syntactic");
}
