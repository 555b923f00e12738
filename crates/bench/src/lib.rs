//! # tq-bench — figure and table regeneration
//!
//! One module per table/figure of the paper's evaluation, run by the
//! `tq-fig <name>` binary over the [`figures::FIGURES`] registry; see
//! `DESIGN.md` for the experiment index. Each figure
//! runs the real engine under the paper's measurement protocol (cold
//! caches, Figure 3 counters), stores every run in a
//! [`StatsDb`](tq_statsdb::StatsDb), and prints its table by *querying
//! the stats database* — the §3.3 methodology, practiced.
//!
//! Set `TQ_SCALE=n` to divide object counts (and cache sizes, keeping
//! ratios) by `n`; the default is paper scale.

pub mod analysis;
pub mod env;
pub mod figures;
pub mod harness;
pub mod paper;
pub mod serve;

pub use harness::build_db;
pub use serve::{run_serve, ServeConfig};

/// Reads `TQ_SCALE` and `TQ_JOBS`, exiting 2 on a bad value.
pub fn env_config_or_exit() -> (u32, usize) {
    let var = |name| std::env::var(name).ok();
    let scale = or_exit(env::scale(var("TQ_SCALE").as_deref()));
    let jobs = or_exit(env::jobs(var("TQ_JOBS").as_deref()));
    (scale, jobs)
}

/// The value, or the error on stderr and exit status 2 — how the
/// binaries report a bad argument or knob.
pub fn or_exit<T>(r: Result<T, String>) -> T {
    r.unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2)
    })
}

/// A flag as `(name, values)`; `values` is `""` for a switch.
pub type Flag = (&'static str, &'static str);

/// A command's flags.
pub type Flags = [Flag];

/// Pairs each flag in `words` with its value (`""` for a switch). An
/// error names the word: a flag not in `known`, one `takes` refuses, a
/// repeated one, or one missing its value.
pub fn parse_flags<'k, 'w>(
    cmd: &str,
    words: &'w [String],
    known: &'k Flags,
    takes: impl Fn(&str) -> bool,
) -> Result<Vec<(&'k Flag, &'w str)>, String> {
    let mut out: Vec<(&Flag, &str)> = Vec::new();
    let mut words = words.iter().map(String::as_str);
    while let Some(word) = words.next() {
        let Some(flag) = known.iter().find(|f| f.0 == word) else {
            return Err(format!("unknown argument {word:?}"));
        };
        if !takes(word) {
            return Err(format!("{cmd} does not take {word}"));
        }
        if out.iter().any(|(f, _)| f.0 == word) {
            return Err(format!("{word} given twice"));
        }
        let value = match flag.1 {
            "" => "",
            values => words
                .next()
                .ok_or(format!("{word} needs a value ({values})"))?,
        };
        out.push((flag, value));
    }
    Ok(out)
}
