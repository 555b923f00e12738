//! One module per regenerated table/figure, and [`FIGURES`], the
//! registry `tq-fig <name>` dispatches on.

pub mod assoc;
pub mod fig06;
pub mod fig07;
pub mod fig10;
pub mod fig15;
pub mod handles;
pub mod hybrid;
pub mod joins;
pub mod loading;
pub mod multiway;
pub mod parallel;
pub mod warm;

use tq_query::PlannerPolicy;
use tq_statsdb::export::{to_csv, to_operator_csv};
use tq_statsdb::StatsDb;
use tq_workload::{DbShape, Organization};

use crate::harness::{parse_org, parse_shape};
use crate::{env, parse_flags, Flags};

/// Every flag a figure may take, with its values (none for a switch).
const FLAGS: &Flags = &[
    ("--db", "db1|db2"),
    ("--org", "class|random|comp|assoc"),
    ("--measure", ""),
    ("--explain", ""),
    ("--planner", "estimate|simpli|syntactic"),
];

/// A figure run's parameters: the environment's scale (raised to the
/// figure's minimum) and worker count, then the flags.
#[derive(Debug, Default)]
pub struct Args {
    scale: u32,
    jobs: usize,
    /// `None` leaves the shape to the figure.
    db: Option<DbShape>,
    /// `None` is class clustering.
    org: Option<Organization>,
    measure: bool,
    explain: bool,
    /// `None` runs every policy.
    planner: Option<PlannerPolicy>,
}

/// One registry row.
pub struct Figure {
    /// The `tq-fig` subcommand (each figure's former binary name).
    pub name: &'static str,
    about: &'static str,
    /// The smallest scale divisor the figure runs at.
    min_scale: u32,
    /// The [`FLAGS`] it takes.
    flags: &'static [&'static str],
    /// Runs the figure and returns its stdout.
    pub run: fn(&Args) -> String,
}

impl Figure {
    /// Parses the words after the figure's name. A malformed word is an
    /// error that names it: an unknown flag, one this figure does not
    /// take, a repeated one, a missing or bad value.
    pub fn parse(&self, words: &[String], scale: u32, jobs: usize) -> Result<Args, String> {
        let mut args = Args::default();
        (args.scale, args.jobs) = (scale.max(self.min_scale), jobs);
        let takes = |word: &str| self.flags.contains(&word);
        for (&(word, values), value) in parse_flags(self.name, words, FLAGS, takes)? {
            let bad = || format!("unknown {word} {value:?} (use {values})");
            match word {
                "--db" => args.db = Some(parse_shape(value).ok_or_else(bad)?),
                "--org" => args.org = Some(parse_org(value).ok_or_else(bad)?),
                "--planner" => args.planner = Some(PlannerPolicy::parse(value).ok_or_else(bad)?),
                "--measure" => args.measure = true,
                "--explain" => args.explain = true,
                _ => unreachable!("every FLAGS entry has an arm"),
            }
        }
        Ok(args)
    }

    /// `tq-fig <name> --help`.
    pub fn help(&self) -> String {
        let mut usage = format!("tq-fig {}", self.name);
        for (name, values) in FLAGS.iter().filter(|f| self.flags.contains(&f.0)) {
            usage += &format!(" [{}]", format!("{name} {values}").trim_end());
        }
        let mut about = self.about.to_string();
        if self.min_scale > 1 {
            about += &format!(" Runs at 1/{} scale or smaller.", self.min_scale);
        }
        env::help(&about, &usage, &env::KNOBS[..2])
    }
}

const CLASS: Organization = Organization::ClassClustered;

/// Every figure, by name.
pub static FIGURES: &[Figure] = &[
    Figure {
        name: "fig06_selection",
        about: "Figure 6: selection I/O, unclustered index vs scan.",
        min_scale: 1,
        flags: &[],
        run: |a| {
            let fig = fig06::run(a.scale, a.jobs);
            lines(&[fig06::print(&fig), to_csv(fig.stats.all())])
        },
    },
    Figure {
        name: "fig07_sorted_index",
        about: "Figures 7 and 9: sorted unclustered index vs no index, and where the time goes.",
        min_scale: 1,
        flags: &[],
        run: |a| fig07::print(&fig07::run(a.scale, a.jobs)) + "\n",
    },
    Figure {
        name: "fig10_hash_sizes",
        about: "Figure 10: hash-table sizes, formula vs measurement.",
        min_scale: 1,
        flags: &["--measure"],
        run: |a| fig10::print(&fig10::run(a.scale, a.measure, a.jobs)) + "\n",
    },
    Figure {
        name: "fig11_14_joins",
        about: "Figures 11-14: the join algorithms on one database (default db1, class).",
        min_scale: 1,
        flags: &["--db", "--org", "--explain"],
        run: |a| {
            let (shape, org) = (a.db.unwrap_or(DbShape::Db1), a.org.unwrap_or(CLASS));
            let fig = joins::run_join_figure(shape, org, a.scale, a.jobs);
            with_stats(a, joins::print_join_figure(&fig), &fig.stats)
        },
    },
    Figure {
        name: "fig15_summary",
        about: "Figure 15: the winning join algorithm over 3 organizations x 2 databases.",
        min_scale: 1,
        flags: &[],
        run: |a| {
            let fig = fig15::run(a.scale, a.jobs);
            let mut parts: Vec<String> = fig.figures.iter().map(joins::print_join_figure).collect();
            parts.push(fig15::print(&fig));
            lines(&parts)
        },
    },
    Figure {
        name: "fig_assoc_ordered",
        about: "Extension: the §5.3 association-ordered organization, tested.",
        min_scale: 10,
        flags: &[],
        run: |a| assoc::print(&assoc::run(a.scale, a.jobs)) + "\n",
    },
    Figure {
        name: "fig_cost_model_fit",
        about: "The §2 plan, realized: the cost model elicited from runs by regression.",
        min_scale: 50,
        flags: &[],
        run: |a| crate::analysis::print(&crate::analysis::run(a.scale)) + "\n",
    },
    Figure {
        name: "fig_handle_ablation",
        about: "§4.4 ablation: the proposed handle improvements, measured one by one.",
        min_scale: 1,
        flags: &[],
        run: |a| handles::print_ablation(&handles::run_ablation(a.scale, a.jobs)) + "\n",
    },
    Figure {
        name: "fig_hybrid",
        about: "Extension: hybrid hashing on the swap-bound cells (§5.1/§6's untested fix).",
        min_scale: 10,
        flags: &[],
        run: |a| hybrid::print(&hybrid::run(a.scale, a.jobs)) + "\n",
    },
    Figure {
        name: "fig_loading",
        about: "§3.2: the loading experiment (12 hours -> 1).",
        min_scale: 10,
        flags: &[],
        run: |a| loading::print(&loading::run(a.scale)) + "\n",
    },
    Figure {
        name: "fig_multiway",
        about: "Plan quality: the chain-ordering policies on depth-3/4 chains (default db2).",
        min_scale: 1,
        flags: &["--db", "--org", "--planner", "--explain"],
        run: |a| {
            let (shape, org) = (a.db.unwrap_or(DbShape::Db2), a.org.unwrap_or(CLASS));
            let fig = multiway::run(shape, org, a.scale, a.jobs, a.planner);
            with_stats(a, multiway::print(&fig), &fig.stats)
        },
    },
    Figure {
        name: "fig_parallel",
        about: "Intra-query scaling: host CPU and wall time of the joins at degrees 1/2/4.",
        min_scale: 1,
        flags: &[],
        run: |a| parallel::print(&parallel::run(a.scale)),
    },
    Figure {
        name: "fig_rid_vs_handle",
        about: "§4.1: hash tables keyed on Rids vs Handles.",
        min_scale: 1,
        flags: &[],
        run: |a| handles::print_rid_vs_handle(&handles::run_rid_vs_handle(a.scale, a.jobs)) + "\n",
    },
    Figure {
        name: "fig_warm",
        about: "Extension: cold vs warm executions (the paper ran only cold ones).",
        min_scale: 10,
        flags: &[],
        run: |a| warm::print(&warm::run(a.scale, a.jobs)) + "\n",
    },
];

/// The registry row named `name`.
pub fn find(name: &str) -> Option<&'static Figure> {
    FIGURES.iter().find(|f| f.name == name)
}

/// `tq-fig --help`.
pub fn help() -> String {
    let rows: String = FIGURES
        .iter()
        .map(|f| format!("\n  {:<20} {}", f.name, f.about))
        .collect();
    let usage = format!(
        "tq-fig <figure> [flags]   (tq-fig <figure> --help lists its flags; \
         --explain adds per-operator counter tables)\n\nFigures:{rows}"
    );
    let about = "Regenerates the paper's tables and figures, one figure per run.";
    env::help(about, &usage, &env::KNOBS[..2])
}

/// Each part on its own line, as `println!` would print it.
fn lines(parts: &[String]) -> String {
    parts.iter().map(|p| format!("{p}\n")).collect()
}

/// A figure table, its stats CSV and, under `--explain`, the
/// per-operator tables and the operator CSV.
fn with_stats(a: &Args, table: String, stats: &StatsDb) -> String {
    let mut parts = vec![table, to_csv(stats.all())];
    if a.explain {
        parts.push(joins::explain_tables(stats));
        parts.push(to_operator_csv(stats.all()));
    }
    lines(&parts)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(name: &str, words: &[&str]) -> Result<Args, String> {
        let words: Vec<String> = words.iter().map(|w| w.to_string()).collect();
        find(name).unwrap().parse(&words, 3, 2)
    }

    #[test]
    fn flags_parse_and_reject() {
        let a = parse(
            "fig11_14_joins",
            &["--org", "comp", "--db", "db2", "--explain"],
        )
        .unwrap();
        assert_eq!((a.scale, a.jobs, a.db), (3, 2, Some(DbShape::Db2)));
        assert_eq!(a.org, Some(Organization::Composition));
        assert!(a.explain && !a.measure);
        assert_eq!(parse("fig_warm", &[]).unwrap().scale, 10, "min_scale");

        // --planner: absent means "all three policies", an exact label
        // selects one, anything else (including case variants) errors.
        assert_eq!(parse("fig_multiway", &[]).unwrap().planner, None);
        for policy in PlannerPolicy::all() {
            let a = parse("fig_multiway", &["--planner", policy.label()]).unwrap();
            assert_eq!(a.planner, Some(policy));
        }
        for bad in ["greedy", "Estimate", "SIMPLI", ""] {
            let err = parse("fig_multiway", &["--planner", bad]).unwrap_err();
            assert!(
                err.contains("--planner") && err.contains("syntactic"),
                "{err}"
            );
        }

        for (name, words, needle) in [
            (
                "fig11_14_joins",
                &["--dbb", "db2"][..],
                "unknown argument \"--dbb\"",
            ),
            ("fig06_selection", &["--db", "db2"], "does not take --db"),
            ("fig11_14_joins", &["--db"], "--db needs a value"),
            (
                "fig10_hash_sizes",
                &["--measure", "--measure"],
                "given twice",
            ),
            ("fig11_14_joins", &["--db", "db3"], "unknown --db \"db3\""),
        ] {
            let err = parse(name, words).unwrap_err();
            assert!(err.contains(needle), "{name} {words:?}: {err}");
        }
    }

    #[test]
    fn every_figure_is_named_once() {
        for (i, f) in FIGURES.iter().enumerate() {
            assert!(
                std::ptr::eq(find(f.name).unwrap(), &FIGURES[i]),
                "{}",
                f.name
            );
        }
    }
}
