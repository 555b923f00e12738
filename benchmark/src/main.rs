//! treequery's benchmark. One process runs one workload:
//!
//! ```text
//! tq-benchmark --workload <name> [--seed N] [--seconds S] [--trace 0|1]
//!              [--smoke] [--bless] [--dir benchmark] [--out DIR] [--record FILE]
//! tq-benchmark compare A/results.json B/results.json [--dir benchmark]
//! tq-benchmark workloads
//! ```
//!
//! With `--trace 0` it measures the end-to-end metrics with tracing off;
//! with `--trace 1` it runs the traced layer suite and reports the
//! per-layer metrics. Either way it checks every answer, prints one
//! `name value unit workload` line per metric, and ends with the result
//! object on one line. It exits 1 when any answer was wrong.
//! `benchmark/run.sh` builds it and runs the workloads one after another.

use std::path::PathBuf;
use std::process::ExitCode;

use tq_benchmark::e2e::{self, RunConfig};
use tq_benchmark::json::{obj, Json};
use tq_benchmark::spec::{self, Workload};
use tq_benchmark::{compare, layers, sys};

const USAGE: &str = "\
usage: tq-benchmark --workload NAME [--seed N] [--seconds S] [--trace 0|1]
                    [--smoke] [--bless] [--dir DIR] [--out DIR] [--record FILE]
       tq-benchmark compare A.json B.json [--dir DIR]
       tq-benchmark workloads";

/// The command line, parsed.
struct Args {
    /// `compare`'s two files; empty for a run.
    compare: Option<Vec<PathBuf>>,
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    bless: bool,
    dir: PathBuf,
    out: Option<PathBuf>,
    record: Option<PathBuf>,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut parsed = Args {
        compare: None,
        workload: None,
        seed: e2e::DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
        smoke: false,
        bless: false,
        dir: PathBuf::from("benchmark"),
        out: None,
        record: None,
    };
    while let Some(arg) = args.next() {
        let mut value = || args.next().ok_or(format!("{arg} needs a value"));
        match arg.as_str() {
            "compare" if parsed.compare.is_none() => parsed.compare = Some(Vec::new()),
            "--workload" => {
                let name = value()?;
                let workload = Workload::parse(&name).ok_or(format!("unknown workload {name}"))?;
                parsed.workload = Some(workload);
            }
            "--seed" => {
                let v = value()?;
                parsed.seed = v.parse().map_err(|_| format!("bad seed {v}"))?;
            }
            "--seconds" => {
                let v = value()?;
                parsed.seconds = match v.parse::<f64>() {
                    Ok(s) if s.is_finite() && s >= 0.0 => s,
                    _ => return Err(format!("bad seconds {v}")),
                };
            }
            "--trace" => {
                parsed.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v}")),
                };
            }
            "--dir" => parsed.dir = PathBuf::from(value()?),
            "--out" => parsed.out = Some(PathBuf::from(value()?)),
            "--record" => parsed.record = Some(PathBuf::from(value()?)),
            "--smoke" => parsed.smoke = true,
            "--bless" => parsed.bless = true,
            file if !file.starts_with("--") && parsed.compare.is_some() => {
                parsed.compare.as_mut().expect("checked").push(file.into());
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(parsed)
}

fn main() -> ExitCode {
    let scrubbed = sys::scrub_tq_env();
    let host_cores = sys::host_cores();
    let mut args = std::env::args().skip(1).peekable();
    if args.next_if(|a| a == "workloads").is_some() {
        println!("{}", Workload::ALL.map(Workload::name).join("\n"));
        return ExitCode::SUCCESS;
    }
    let args = match parse_args(args) {
        Ok(args) => args,
        Err(problem) => {
            eprintln!("tq-benchmark: {problem}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Some(files) = &args.compare {
        let [a, b] = files.as_slice() else {
            eprintln!("tq-benchmark: compare takes two results.json files\n{USAGE}");
            return ExitCode::from(2);
        };
        return match compare::compare(&args.dir, a, b) {
            Ok(()) => ExitCode::SUCCESS,
            Err(problem) => {
                eprintln!("tq-benchmark compare: {problem}");
                ExitCode::FAILURE
            }
        };
    }
    let Some(workload) = args.workload else {
        eprintln!("tq-benchmark: --workload is required\n{USAGE}");
        return ExitCode::from(2);
    };

    let pinned = workload.pinned().then(sys::pin_to_one_cpu).flatten();
    let out = args.out.unwrap_or_else(|| args.dir.join("out"));
    let cfg = RunConfig {
        workload,
        seed: args.seed,
        seconds: args.seconds,
        smoke: args.smoke,
        bless: args.bless,
        dir: &args.dir,
        out: &out,
    };
    let (outcome, declared) = if args.trace {
        (layers::traced(&cfg), spec::PER_LAYER)
    } else {
        (e2e::end_to_end(&cfg), spec::END_TO_END)
    };
    if !scrubbed.is_empty() {
        println!("# unset before running: {}", scrubbed.join(" "));
    }
    println!(
        "# pinned to cpu = {}",
        pinned.map_or("none".into(), |c| c.to_string())
    );
    outcome.print(workload.name(), declared);

    if let Some(path) = args.record {
        // One line per run, for run.sh to gather into results.json.
        let line = obj([
            ("workload", Json::Str(workload.name().into())),
            ("seed", Json::Num(args.seed as f64)),
            ("trace", Json::Num(f64::from(u8::from(args.trace)))),
            ("smoke", Json::Bool(args.smoke)),
            ("host_cores", Json::Num(host_cores as f64)),
            (
                "pinned_cpu",
                pinned.map_or(Json::Null, |c| Json::Num(c as f64)),
            ),
            // The engine defaults in force: the benchmark sets neither.
            (
                "engine_batch",
                Json::Num(tq_query::exec::default_batch_size() as f64),
            ),
            (
                "engine_parallel_degree",
                Json::Num(tq_query::exec::default_parallel_degree() as f64),
            ),
            (
                "notes",
                obj(outcome
                    .notes
                    .iter()
                    .map(|(k, v)| (*k, Json::Str(v.clone())))),
            ),
            (
                "tq_env_unset",
                Json::Arr(scrubbed.into_iter().map(Json::Str).collect()),
            ),
            ("result", outcome.result_json(declared)),
        ]);
        use std::io::Write;
        let appended = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)
            .and_then(|mut f| writeln!(f, "{}", line.render()));
        if let Err(e) = appended {
            eprintln!("tq-benchmark: {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    }
    if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
