//! The binaries' command-line contract, run as processes: a malformed
//! argument or knob exits 2 and names itself before any database is
//! built, `--help` is generated from the registry, a join figure on
//! two workers prints what the registry prints in process, and a short
//! cold `loadgen` run prints one well-formed latency-CSV row.

use std::process::{Command, Output};

use tq_bench::figures::{self, FIGURES};

const KNOBS: &[&str] = &[
    "TQ_SCALE",
    "TQ_JOBS",
    "TQ_PARALLEL",
    "TQ_SHARDS",
    "TQ_CONCURRENCY",
    "TQ_DURATION",
    "TQ_QUEUE_DEPTH",
    "TQ_WRITE_MIX",
    "TQ_WARMUP_MS",
];

/// Runs `bin args` at scale 1000 with two workers, every other knob
/// unset except `knobs`.
fn run(bin: &str, args: &[&str], knobs: &[(&str, &str)]) -> Output {
    let mut cmd = Command::new(bin);
    for knob in KNOBS {
        cmd.env_remove(knob);
    }
    cmd.env("TQ_SCALE", "1000").env("TQ_JOBS", "2");
    cmd.args(args).envs(knobs.iter().copied());
    cmd.output().expect("run the binary")
}

/// Asserts exit status 2 with `needle` in stderr.
fn rejects(bin: &str, args: &[&str], knobs: &[(&str, &str)], needle: &str) {
    let out = run(bin, args, knobs);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?} {knobs:?}: {stderr}");
    assert!(
        stderr.contains(needle),
        "{args:?}: {stderr:?} lacks {needle:?}"
    );
}

const TQ_FIG: &str = env!("CARGO_BIN_EXE_tq-fig");
const LOADGEN: &str = env!("CARGO_BIN_EXE_loadgen");

#[test]
fn malformed_arguments_exit_2_and_name_the_argument() {
    rejects(TQ_FIG, &[], &[], "Usage: tq-fig");
    rejects(TQ_FIG, &["fig99_nothing"], &[], "\"fig99_nothing\"");
    rejects(
        TQ_FIG,
        &["fig11_14_joins", "--dbb", "db2"],
        &[],
        "\"--dbb\"",
    );
    rejects(TQ_FIG, &["fig06_selection", "--db", "db2"], &[], "--db");
    rejects(
        TQ_FIG,
        &["fig11_14_joins", "--db"],
        &[],
        "--db needs a value",
    );
    let twice = ["fig11_14_joins", "--db", "db1", "--db", "db2"];
    rejects(TQ_FIG, &twice, &[], "--db given twice");
    rejects(TQ_FIG, &["fig11_14_joins", "--org", "cls"], &[], "\"cls\"");
    rejects(
        TQ_FIG,
        &["fig_multiway", "--planner", "greedy"],
        &[],
        "\"greedy\"",
    );
}

#[test]
fn malformed_loadgen_flags_exit_2_and_name_the_flag() {
    rejects(LOADGEN, &["--db"], &[], "--db needs a value");
    rejects(
        LOADGEN,
        &["--algoo", "nl"],
        &[],
        "unknown argument \"--algoo\"",
    );
    rejects(LOADGEN, &["--pat"], &[], "--pat needs a value");
    let twice = ["--algo", "nl", "--algo", "phj"];
    rejects(LOADGEN, &twice, &[], "--algo given twice");
    rejects(LOADGEN, &["--warm", "--warm"], &[], "--warm given twice");
}

#[test]
fn malformed_knobs_exit_2_and_name_the_knob() {
    let fig = ["fig11_14_joins", "--db", "db2"];
    rejects(TQ_FIG, &fig, &[("TQ_SCALE", "0")], "TQ_SCALE");
    rejects(LOADGEN, &[], &[("TQ_PARALLEL", "banana")], "TQ_PARALLEL");
    rejects(LOADGEN, &[], &[("TQ_SHARDS", "banana")], "TQ_SHARDS");
    rejects(LOADGEN, &[], &[("TQ_WRITE_MIX", "101")], "TQ_WRITE_MIX");
}

#[test]
fn help_is_generated_from_the_registry() {
    let out = run(TQ_FIG, &["--help"], &[]);
    assert!(out.status.success());
    let help = String::from_utf8(out.stdout).unwrap();
    for fig in FIGURES {
        assert!(help.contains(fig.name), "tq-fig --help lacks {}", fig.name);
    }
    let out = run(TQ_FIG, &["fig_multiway", "--help"], &[]);
    assert!(out.status.success());
    let help = String::from_utf8(out.stdout).unwrap();
    assert!(help.contains("[--explain] [--planner estimate|simpli|syntactic]"));
    assert!(!help.contains("--measure"));
}

/// The figure smoke: the real `tq-fig` binary, its cells fanned out
/// over two workers, exits 0 and prints byte for byte what the
/// registry prints in this process.
#[test]
fn a_join_figure_on_two_workers_prints_the_registry_output() {
    let args = ["fig11_14_joins", "--db", "db2", "--org", "class"];
    let out = run(TQ_FIG, &args, &[]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{stderr}");
    let fig = figures::find(args[0]).expect("a registered figure");
    let words: Vec<String> = args[1..].iter().map(|w| w.to_string()).collect();
    let in_process = (fig.run)(&fig.parse(&words, 1000, 2).expect("valid flags"));
    assert_eq!(String::from_utf8(out.stdout).unwrap(), in_process);
}

/// One cold closed-loop run of the binary: exit 0 (no error, no
/// leaked handle), and stdout ends in the latency-CSV header and
/// exactly one 18-column row.
#[test]
fn loadgen_prints_one_latency_csv_row() {
    let out = run(LOADGEN, &[], &[("TQ_DURATION", "1")]);
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(out.status.success(), "{stdout}");
    let header = "label,concurrency,workers,queue_depth,duration_ns,ok,shed,shed_router,\
                  deadline_exceeded,errors,";
    let mut csv = stdout.lines().skip_while(|l| !l.starts_with(header));
    assert!(csv.next().is_some(), "no latency-CSV header in {stdout}");
    let rows: Vec<&str> = csv.filter(|l| !l.is_empty()).collect();
    assert_eq!(rows.len(), 1, "{rows:?}");
    assert_eq!(rows[0].split(',').count(), 18, "{}", rows[0]);
}
