//! Environment knobs shared by every binary, and the standard
//! `--help` text.
//!
//! Every `TQ_*` variable any binary honours is parsed here (and
//! documented in the README's environment table; the serving ones are
//! read by `loadgen` only). Each parser takes the
//! variable's raw value, `None` when unset, so parsing is pure: only the
//! binaries' `main` and [`crate::env_config_or_exit`] read the process
//! environment. A set-but-unparseable value is a hard error: silently
//! falling back to a default would launch a run the user did not ask
//! for. Errors are returned (not exited on) so library callers and
//! tests stay testable; the binaries report them and exit 2.

/// The scale divisor, `TQ_SCALE` (default 1 = paper scale).
pub fn scale(raw: Option<&str>) -> Result<u32, String> {
    positive("TQ_SCALE", raw, 1, "the figure scale divisor")
}

/// The worker count, `TQ_JOBS` (default: available cores): figure
/// cells, or the server's worker pool. Figures are byte-identical at
/// any value; `1` runs every cell inline on the main thread.
pub fn jobs(raw: Option<&str>) -> Result<usize, String> {
    let default = std::thread::available_parallelism()
        .map(|n| n.get() as u32)
        .unwrap_or(1);
    positive("TQ_JOBS", raw, default, "the worker count").map(|n| n as usize)
}

/// The morsel-parallel degree of every served query, `TQ_PARALLEL`
/// (default 1 = the exact serial path). At `n > 1` each query's driving
/// list is split across `n` threads on private store clones: results
/// are identical, cache splits and swap faults may differ. The load
/// generator forwards it to the server, which budgets
/// `workers × parallel` against the cores.
pub fn parallel(raw: Option<&str>) -> Result<usize, String> {
    positive("TQ_PARALLEL", raw, 1, "the morsel-parallel degree").map(|n| n as usize)
}

/// The closed-loop client count, `TQ_CONCURRENCY` (default 8).
pub fn concurrency(raw: Option<&str>) -> Result<u32, String> {
    positive("TQ_CONCURRENCY", raw, 8, "the closed-loop client count")
}

/// The serving-run duration in wall-clock seconds, `TQ_DURATION` (default 2).
pub fn duration_secs(raw: Option<&str>) -> Result<u32, String> {
    positive("TQ_DURATION", raw, 2, "the serving run duration in seconds")
}

/// The admission-queue depth, `TQ_QUEUE_DEPTH` (default 16). `0` is
/// valid: shed unless a worker is idle (`tq_server::sched`).
pub fn queue_depth(raw: Option<&str>) -> Result<u32, String> {
    non_negative("TQ_QUEUE_DEPTH", raw, 16, "the admission queue depth")
}

/// The engine-shard count, `TQ_SHARDS` (default 1 = unsharded): `n`
/// Rid-hash shards behind the router, `max(1, TQ_JOBS / n)` workers each.
pub fn shards(raw: Option<&str>) -> Result<u32, String> {
    positive("TQ_SHARDS", raw, 1, "the engine shard count")
}

/// The write percentage, `TQ_WRITE_MIX` (default 0 = read-only): the
/// chance that a client iteration runs update + commit, not a query.
pub fn write_mix(raw: Option<&str>) -> Result<u32, String> {
    let n = non_negative("TQ_WRITE_MIX", raw, 0, "the write percentage")?;
    if n > 100 {
        return Err(format!(
            "TQ_WRITE_MIX (the write percentage) must be in 0..=100, got {n}"
        ));
    }
    Ok(n)
}

/// The warmup window in wall-clock milliseconds, `TQ_WARMUP_MS`, whose
/// samples are discarded; `None` when unset (loadgen takes a fifth).
pub fn warmup_ms(raw: Option<&str>) -> Result<Option<u64>, String> {
    let what = "TQ_WARMUP_MS (the warmup window) must be a non-negative integer of milliseconds";
    raw.map(|raw| raw.parse().map_err(|_| format!("{what}, got {raw:?}")))
        .transpose()
}

/// A positive integer from `var`'s raw value, or `default` when unset.
fn positive(var: &str, raw: Option<&str>, default: u32, what: &str) -> Result<u32, String> {
    let Some(raw) = raw else { return Ok(default) };
    let n = raw.parse().ok().filter(|&n| n >= 1);
    n.ok_or_else(|| format!("{var} ({what}) must be a positive integer, got {raw:?}"))
}

/// A non-negative integer from `var`'s raw value, or `default` when
/// unset (for knobs where 0 is a meaningful value, not a typo).
fn non_negative(var: &str, raw: Option<&str>, default: u32, what: &str) -> Result<u32, String> {
    raw.map_or(Ok(default), |raw| {
        raw.parse::<u32>()
            .map_err(|_| format!("{var} ({what}) must be a non-negative integer, got {raw:?}"))
    })
}

/// Every knob's `--help` row. The figures read the first two; the
/// load generator reads them all.
pub const KNOBS: [&str; 9] = [
    "TQ_SCALE         divide database sizes and caches by n; default 1 = paper scale",
    "TQ_JOBS          worker threads (figure cells / server workers); default: available cores",
    "TQ_PARALLEL      morsel-parallel degree per served query; 1 = exact serial path; default 1",
    "TQ_CONCURRENCY   closed-loop client threads driving the server; default 8",
    "TQ_DURATION      serving run duration in wall-clock seconds; default 2",
    "TQ_QUEUE_DEPTH   admission-queue depth; 0 = shed unless a worker is idle; default 16",
    "TQ_SHARDS        engine shards behind a scatter-gather router; default 1 = unsharded",
    "TQ_WRITE_MIX     percent of client iterations that update+commit; default 0",
    "TQ_WARMUP_MS     warmup window in ms, excluded from the measurement; default: duration/5",
];

/// The `--help` text: the about text, usage, and environment table.
pub fn help(about: &str, usage: &str, knobs: &[&str]) -> String {
    let rows: String = knobs.iter().map(|k| format!("  {k}\n")).collect();
    format!("{about}\n\nUsage: {usage}\n\nEnvironment:\n{rows}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serving_knobs_parse_and_reject() {
        for (var, parse, default) in [
            ("TQ_CONCURRENCY", concurrency as fn(_) -> _, 8),
            ("TQ_DURATION", duration_secs, 2),
            ("TQ_SHARDS", shards, 1),
        ] {
            assert_eq!(parse(None), Ok(default));
            assert_eq!(parse(Some("3")), Ok(3));
            let err = parse(Some("zero")).unwrap_err();
            assert!(err.contains(var) && err.contains("positive integer"));
            assert!(parse(Some("0")).is_err());
        }

        // TQ_QUEUE_DEPTH: 0 is the shed-unless-idle policy, a *valid*
        // configuration — it must parse, not error or silently clamp.
        assert_eq!(queue_depth(None), Ok(16));
        assert_eq!(queue_depth(Some("0")), Ok(0), "depth 0 is shed-unless-idle");
        assert_eq!(queue_depth(Some("7")), Ok(7));
        assert!(queue_depth(Some("-1")).is_err());
        let err = queue_depth(Some("deep")).unwrap_err();
        assert!(err.contains("TQ_QUEUE_DEPTH") && err.contains("non-negative"));

        // TQ_WRITE_MIX: a percentage, 0 included, 100 the ceiling.
        assert_eq!(write_mix(None), Ok(0));
        assert_eq!(write_mix(Some("0")), Ok(0));
        assert_eq!(write_mix(Some("30")), Ok(30));
        assert_eq!(write_mix(Some("100")), Ok(100));
        assert!(write_mix(Some("101")).unwrap_err().contains("0..=100"));
        assert!(write_mix(Some("many")).is_err());

        // TQ_PARALLEL: unset means serial (degree 1), 1 is explicit
        // serial, 0 and garbage are rejected — the binaries exit 2 on
        // the error rather than silently running a serial experiment
        // labelled parallel.
        assert_eq!(parallel(None), Ok(1));
        assert_eq!(parallel(Some("1")), Ok(1), "1 is the exact serial path");
        assert_eq!(parallel(Some("4")), Ok(4));
        assert!(parallel(Some("0")).is_err());
        let err = parallel(Some("banana")).unwrap_err();
        assert!(err.contains("TQ_PARALLEL") && err.contains("positive integer"));

        // TQ_WARMUP_MS: unset means "derive from duration", 0 means
        // "no warmup", any other integer is taken literally.
        assert_eq!(warmup_ms(None), Ok(None));
        assert_eq!(warmup_ms(Some("0")), Ok(Some(0)));
        assert_eq!(warmup_ms(Some("250")), Ok(Some(250)));
        assert!(warmup_ms(Some("soon")).is_err());
    }
}
