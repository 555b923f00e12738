//! The untraced run: identical blocks until the seconds are spent, then
//! the six end-to-end metrics, each a true measurement of one block —
//! ops over the wall time of its list, process CPU over its ops,
//! nearest-rank percentiles of its per-op latencies — and reported as
//! the median over the run's blocks.

use std::path::Path;
use std::time::{Duration, Instant};

use tq_workload::{build, partition_database};

use crate::ops::op_lists;
use crate::oracle::{same_results, served_answers, updated_counts};
use crate::report::Outcome;
use crate::run::{best, build_config, census_mismatches, fig_block, serve_block, Block, SHARDS};
use crate::spec::Workload;
use crate::stats::median;

/// The seed whose fingerprints are committed under `expected/`.
pub const DEFAULT_SEED: u64 = 1;

/// How a run is sized and checked.
#[derive(Clone, Copy, Debug)]
pub struct RunConfig<'a> {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    /// Tiny database, one short block: the test suite's run.
    pub smoke: bool,
    /// Write `expected/<workload>.fp` instead of comparing with it.
    pub bless: bool,
    /// The benchmark's directory (holds `expected/`).
    pub dir: &'a Path,
    /// Where a traced run writes `trace-<workload>.json`.
    pub out: &'a Path,
}

/// Runs blocks of `cfg.workload` until the seconds are spent (and at
/// least the sizing's minimum), checking every answer; run-wide
/// findings go to `problems`.
fn run_blocks(cfg: &RunConfig<'_>, problems: &mut Vec<String>) -> Vec<Block> {
    let w = cfg.workload;
    let sizing = w.sizing(cfg.smoke);
    let budget = Duration::from_secs_f64(cfg.seconds);
    let started = Instant::now();
    let mut blocks = Vec::new();
    let repeat = |blocks: &mut Vec<Block>, block: &dyn Fn() -> Block| {
        while blocks.len() < sizing.min_blocks || started.elapsed() < budget {
            blocks.push(block());
        }
    };
    if w.is_fig() {
        repeat(&mut blocks, &|| fig_block(w, cfg.seed, sizing));
        return blocks;
    }
    let routed = w == Workload::ServeRouted;
    let lists = op_lists(w, cfg.seed, sizing.ops);
    let block = || serve_block(w, cfg.seed, sizing, &lists, routed);
    // The first block runs before anything else has: its peak memory is
    // the workload's. Only then the oracle, on private clones.
    blocks.push(block());
    let base = build(&build_config(sizing.scale, cfg.seed));
    let mut answers = served_answers(std::slice::from_ref(&base), &lists);
    if routed {
        let merged = served_answers(&partition_database(&base, SHARDS), &lists);
        if !same_results(&answers, &merged) {
            problems.push("the shards' result counts do not sum to the unsharded ones".into());
        }
        answers = merged;
    }
    let updated = updated_counts(&base);
    drop(base);
    repeat(&mut blocks, &block);
    for block in &mut blocks {
        block.failed += block.wrong_ops(&answers, &updated);
    }
    blocks
}

/// Compares a run's fingerprint with the committed one. Only the
/// default seed at full size has one; every other run passes.
pub fn fingerprint_matches(cfg: &RunConfig<'_>, fingerprint: u64) -> Result<(), String> {
    if cfg.seed != DEFAULT_SEED || cfg.smoke {
        return Ok(());
    }
    let path = cfg
        .dir
        .join("expected")
        .join(format!("{}.fp", cfg.workload.name()));
    let text = format!("{fingerprint:016x}\n");
    if cfg.bless {
        return std::fs::write(&path, text).map_err(|e| format!("{}: {e}", path.display()));
    }
    match std::fs::read_to_string(&path) {
        Ok(want) if want == text => Ok(()),
        Ok(want) => Err(format!(
            "fingerprint {} differs from {} in {}: a simulated statistic moved",
            text.trim(),
            want.trim(),
            path.display()
        )),
        Err(e) => Err(format!("{}: {e}", path.display())),
    }
}

/// The untraced run of one workload.
pub fn end_to_end(cfg: &RunConfig<'_>) -> Outcome {
    let w = cfg.workload;
    let mut problems = Vec::new();
    let blocks = run_blocks(cfg, &mut problems);

    let mut out = Outcome {
        attempted: blocks.iter().map(|b| b.attempted).sum(),
        failed: blocks.iter().map(|b| b.failed).sum(),
        problems,
        ..Outcome::default()
    };
    // Every block did the same work on the same state: any two that
    // disagree on an answer or a simulated statistic are both suspect.
    let fingerprint = blocks[0].fingerprint;
    let odd = blocks.iter().filter(|b| b.fingerprint != fingerprint);
    let odd_ops: u64 = odd.map(|b| b.attempted).sum();
    if odd_ops > 0 {
        out.problems
            .push("blocks of one run disagree on their answers".into());
        out.failed += odd_ops;
    }
    if let Err(problem) = fingerprint_matches(cfg, fingerprint) {
        // A simulated statistic moved: the model changed, and every op
        // of the run counts as a wrong answer.
        out.problems.push(problem);
        out.failed = out.attempted;
    }
    if w.is_fig() {
        let wrong = census_mismatches(w, cfg.seed, w.sizing(cfg.smoke), &blocks[0].results);
        if wrong > 0 {
            out.problems.push(format!(
                "{wrong} cells disagree with the brute-force census"
            ));
            out.failed += wrong;
        }
    }

    // Each metric is measured block by block; the run reports the median
    // block, and notes the best one beside it.
    let mid = |metric: fn(&Block) -> f64| median(blocks.iter().map(metric).collect());
    let p50: fn(&Block) -> f64 = |b| b.focus_percentile(50.0);
    let p90: fn(&Block) -> f64 = |b| b.focus_percentile(90.0);
    out.metrics = vec![
        ("setup_s", mid(|b| b.setup_s)),
        // After the first block: how many more fit in the seconds depends
        // on the host, and freed memory fragments.
        ("peak_rss_mb", blocks[0].rss_mb),
        ("throughput_ops_s", mid(Block::throughput_ops_s)),
        ("cpu_ms_per_op", mid(Block::cpu_ms_per_op)),
        ("op_p50_ms", mid(p50)),
        ("op_p90_ms", mid(p90)),
    ];
    out.failed = out.failed.min(out.attempted);
    out.notes = vec![
        ("blocks", blocks.len().to_string()),
        ("ops_per_block", blocks[0].attempted.to_string()),
        (
            "latency_samples_per_block",
            blocks[0].focus_ms().len().to_string(),
        ),
        (
            "best_block_throughput_ops_s",
            best(&blocks, Block::throughput_ops_s, true).to_string(),
        ),
        (
            "best_block_cpu_ms_per_op",
            best(&blocks, Block::cpu_ms_per_op, false).to_string(),
        ),
        (
            "best_block_op_p50_ms",
            best(&blocks, p50, false).to_string(),
        ),
        (
            "best_block_op_p90_ms",
            best(&blocks, p90, false).to_string(),
        ),
        ("fingerprint", format!("{fingerprint:016x}")),
    ];
    out
}
