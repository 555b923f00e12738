//! Runs every workload at smoke size, both ways, and locks the names:
//! what `BENCHMARK.json` declares, what `spec.rs` declares and what a
//! run prints must be the same names with the same units, each printed
//! exactly once — and every answer must be right.

use std::path::Path;
use std::process::Command;

use tq_benchmark::json::Json;
use tq_benchmark::spec::{Metric, Workload, END_TO_END, FIG_SCALE, PER_LAYER, SERVE_SCALE};

fn declared() -> Json {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repo root");
    Json::parse(&text).expect("BENCHMARK.json parses")
}

fn field<'a>(entry: &'a Json, key: &str) -> &'a str {
    entry
        .get(key)
        .and_then(Json::as_str)
        .unwrap_or_else(|| panic!("{key} in {}", entry.render()))
}

fn entries<'a>(doc: &'a Json, key: &str) -> &'a [Json] {
    doc.get(key)
        .and_then(Json::as_arr)
        .unwrap_or_else(|| panic!("{key} in BENCHMARK.json"))
}

fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

#[test]
fn benchmark_json_declares_exactly_what_the_code_measures() {
    let doc = declared();
    let workloads: Vec<&str> = entries(&doc, "workloads")
        .iter()
        .map(|w| field(w, "name"))
        .collect();
    assert_eq!(workloads, Workload::ALL.map(Workload::name));
    for w in entries(&doc, "workloads") {
        let why = field(w, "why");
        assert!(!why.is_empty() && why.len() <= 200 && !why.contains('\n'));
    }
    for (key, metrics) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
        let listed: Vec<(&str, &str, &str)> = entries(&doc, key)
            .iter()
            .map(|m| (field(m, "name"), field(m, "unit"), field(m, "better")))
            .collect();
        let coded: Vec<(&str, &str, &str)> = metrics
            .iter()
            .map(|m| {
                let better = if m.higher_is_better {
                    "higher"
                } else {
                    "lower"
                };
                (m.name, m.unit, better)
            })
            .collect();
        assert_eq!(listed, coded, "{key}");
    }
    let mut names: Vec<&str> = workloads;
    names.extend(END_TO_END.iter().chain(PER_LAYER).map(|m| m.name));
    assert!(names.iter().all(|n| valid_name(n)), "{names:?}");
    let total = names.len();
    names.sort_unstable();
    names.dedup();
    assert_eq!(names.len(), total, "a name is used twice");
    assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
    let setup = entries(&doc, "end_to_end")
        .iter()
        .find(|m| field(m, "name") == "setup_s")
        .expect("setup_s is an end-to-end metric");
    assert_eq!(
        (field(setup, "unit"), field(setup, "better")),
        ("s", "lower")
    );
    for m in entries(&doc, "end_to_end") {
        let bound = m.get("bound").and_then(Json::as_f64).expect("a bound");
        assert!(bound > 0.0 && bound <= 0.25, "{}", m.render());
    }
}

/// Every database scale `BENCHMARK.json` or the README states is the one
/// `spec.rs` runs: each workload's `why` names its own, and the README
/// names no other.
#[test]
fn stated_scales_are_the_ones_run() {
    let stated = |text: &str| -> Vec<u32> {
        text.match_indices("scale ")
            .filter_map(|(at, pat)| {
                let digits: String = text[at + pat.len()..]
                    .chars()
                    .take_while(char::is_ascii_digit)
                    .collect();
                digits.parse().ok()
            })
            .collect()
    };
    for w in entries(&declared(), "workloads") {
        let workload = Workload::parse(field(w, "name")).expect("a declared workload");
        assert_eq!(
            stated(field(w, "why")),
            [workload.sizing(false).scale],
            "{}",
            workload.name()
        );
    }
    let readme = Path::new(env!("CARGO_MANIFEST_DIR")).join("README.md");
    let readme = std::fs::read_to_string(readme).expect("benchmark/README.md");
    let smoke = Workload::FigJoins.sizing(true).scale;
    let scales = stated(&readme);
    for known in [FIG_SCALE, SERVE_SCALE] {
        assert!(
            scales.contains(&known),
            "the README never states scale {known}"
        );
    }
    for scale in scales {
        assert!(
            [FIG_SCALE, SERVE_SCALE, smoke].contains(&scale),
            "the README states scale {scale}, which no run uses"
        );
    }
}

/// One smoke run; checks its printed lines and its result object
/// against `declared`.
fn smoke(w: Workload, trace: bool, declared: &[Metric]) {
    let out = Path::new(env!("CARGO_TARGET_TMPDIR")).join("smoke-out");
    let run = Command::new(env!("CARGO_BIN_EXE_tq-benchmark"))
        .args(["--workload", w.name(), "--smoke", "--seconds", "0"])
        .args(["--seed", "7", "--trace", if trace { "1" } else { "0" }])
        .args(["--dir", env!("CARGO_MANIFEST_DIR")])
        .arg("--out")
        .arg(&out)
        // The benchmark must not inherit engine knobs.
        .env("TQ_BATCH", "1")
        .output()
        .expect("run tq-benchmark");
    let stdout = String::from_utf8(run.stdout).expect("UTF-8 output");
    let what = format!("{} trace {trace}", w.name());
    assert!(
        run.status.success(),
        "{what} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&run.stderr)
    );
    assert!(
        stdout.contains("# unset before running: TQ_BATCH"),
        "{what}"
    );

    // The human-readable lines: `name value unit workload`, each
    // declared name exactly once, nothing undeclared.
    let mut printed = Vec::new();
    for line in stdout.lines().filter(|l| !l.starts_with(['#', '{'])) {
        let cols: Vec<&str> = line.split(' ').collect();
        assert_eq!(cols.len(), 4, "{what}: {line}");
        assert!(valid_name(cols[0]), "{what}: {line}");
        assert!(
            cols[1].parse::<f64>().is_ok_and(f64::is_finite),
            "{what}: {line}"
        );
        assert_eq!(cols[3], w.name(), "{what}: {line}");
        printed.push((cols[0], cols[2]));
    }
    let expected: Vec<(&str, &str)> = declared.iter().map(|m| (m.name, m.unit)).collect();
    assert_eq!(printed, expected, "{what}");

    // The result object, last: exactly the contract's keys.
    let result = Json::parse(stdout.lines().last().expect("a last line")).expect("JSON");
    let keys: Vec<&str> = result
        .as_obj()
        .expect("an object")
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(
        keys,
        ["correct", "attempted", "failed", "metrics"],
        "{what}"
    );
    assert_eq!(result.get("correct"), Some(&Json::Bool(true)), "{what}");
    assert_eq!(
        result.get("failed").and_then(Json::as_f64),
        Some(0.0),
        "{what}"
    );
    assert!(
        result.get("attempted").and_then(Json::as_f64) >= Some(1.0),
        "{what}"
    );
    let metrics = result
        .get("metrics")
        .and_then(Json::as_obj)
        .expect("metrics");
    let reported: Vec<(&str, &str)> = metrics
        .iter()
        .map(|(name, m)| {
            let keys: Vec<&str> = m
                .as_obj()
                .expect("object")
                .iter()
                .map(|(k, _)| k.as_str())
                .collect();
            assert_eq!(keys, ["value", "unit"], "{what}: {name}");
            assert!(
                m.get("value").and_then(Json::as_f64).is_some(),
                "{what}: {name}"
            );
            (name.as_str(), field(m, "unit"))
        })
        .collect();
    assert_eq!(reported, expected, "{what}");
    if trace {
        let fail_rate = result.get("metrics").and_then(|m| m.get("fail_rate"));
        assert_eq!(
            fail_rate
                .and_then(|m| m.get("value"))
                .and_then(Json::as_f64),
            Some(0.0)
        );
        let trace_file = out.join(format!("trace-{}.json", w.name()));
        let spans = Json::parse(&std::fs::read_to_string(trace_file).expect("trace written"))
            .expect("trace parses");
        let spans = spans.get("spans").and_then(Json::as_arr).expect("spans");
        assert!(!spans.is_empty());
        for key in ["id", "parent", "op", "name", "start_ns", "end_ns"] {
            assert!(spans[0].get(key).is_some(), "span field {key}");
        }
    }
}

macro_rules! smoke_tests {
    ($($name:ident => $workload:expr,)*) => {$(
        #[test]
        fn $name() {
            smoke($workload, false, END_TO_END);
            smoke($workload, true, PER_LAYER);
        }
    )*};
}

smoke_tests! {
    smoke_fig_joins => Workload::FigJoins,
    smoke_fig_chains => Workload::FigChains,
    smoke_fig_selects => Workload::FigSelects,
    smoke_fig_morsel => Workload::FigMorsel,
    smoke_serve_direct => Workload::ServeDirect,
    smoke_serve_routed => Workload::ServeRouted,
    smoke_serve_sessions => Workload::ServeSessions,
    smoke_serve_write_mix => Workload::ServeWriteMix,
}

/// A wrong fingerprint file makes the default-seed run fail: wrong
/// answers exit non-zero with `correct: false`.
#[test]
fn a_moved_fingerprint_fails_the_run() {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("bad-expected");
    std::fs::create_dir_all(dir.join("expected")).unwrap();
    // Same op counts as the smoke run, but checked like a full run would
    // be: only `--smoke` and a non-default seed skip the comparison.
    std::fs::write(dir.join("expected/serve_sessions.fp"), "0000000000000000\n").unwrap();
    let run = Command::new(env!("CARGO_BIN_EXE_tq-benchmark"))
        .args([
            "--workload",
            "serve_sessions",
            "--seconds",
            "0",
            "--seed",
            "1",
        ])
        .arg("--dir")
        .arg(&dir)
        .output()
        .expect("run tq-benchmark");
    let stdout = String::from_utf8(run.stdout).unwrap();
    assert_eq!(run.status.code(), Some(1), "{stdout}");
    assert!(stdout.contains("# WRONG: fingerprint"), "{stdout}");
    let result = Json::parse(stdout.lines().last().unwrap()).unwrap();
    assert_eq!(result.get("correct"), Some(&Json::Bool(false)));
}
