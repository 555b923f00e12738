//! Closed-loop load generator for the tq-server query service.
//!
//! Starts the service over a freshly built database, drives it with
//! `TQ_CONCURRENCY` client threads for `TQ_DURATION` seconds, and
//! reports throughput, latency percentiles (p50/p95/p99 from a
//! log-scaled histogram), and the admission-control shed rate —
//! machine-readably as the latency CSV.

use std::time::Duration;

use tq_bench::harness::{parse_org, parse_shape};
use tq_bench::serve::{run_serve, ServeConfig};
use tq_bench::{env, or_exit, parse_flags, Flags};
use tq_query::JoinAlgo;
use tq_server::CacheMode;
use tq_statsdb::to_latency_csv;

/// Every flag, with its values (none for a switch).
const FLAGS: &Flags = &[
    ("--db", "db1|db2"),
    ("--org", "class|random|comp|assoc"),
    ("--algo", "nl|nojoin|phj|chj"),
    ("--pat", "PCT"),
    ("--prov", "PCT"),
    ("--warm", ""),
    ("--deadline-ms", "N"),
];

fn main() {
    let words: Vec<String> = std::env::args().skip(1).collect();
    if words.iter().any(|w| w == "--help" || w == "-h") {
        print!(
            "{}",
            env::help(
                "Closed-loop load generator for the tq-server query service: drives \
                 N client sessions against the simulated database and reports \
                 throughput, latency percentiles, and shed rate.",
                "loadgen [--db db1|db2] [--org class|random|comp|assoc] \
                 [--algo nl|nojoin|phj|chj] [--pat PCT] [--prov PCT] [--warm] \
                 [--deadline-ms N]",
                &env::KNOBS,
            )
        );
        return;
    }
    let flags = or_exit(parse_flags("loadgen", &words, FLAGS, |_| true));
    let arg = |name: &str, default: &'static str| {
        flags
            .iter()
            .find(|(f, _)| f.0 == name)
            .map_or(default, |&(_, value)| value)
    };
    let (db, org) = (arg("--db", "db2"), arg("--org", "class"));
    let shape = parse_shape(db)
        .unwrap_or_else(|| exit_usage(&format!("unknown --db {db:?} (use db1|db2)")));
    let org = parse_org(org).unwrap_or_else(|| {
        exit_usage(&format!(
            "unknown --org {org:?} (use class|random|comp|assoc)"
        ))
    });
    let algo = match arg("--algo", "chj") {
        "nl" => JoinAlgo::Nl,
        "nojoin" => JoinAlgo::Nojoin,
        "phj" => JoinAlgo::Phj,
        "chj" => JoinAlgo::Chj,
        other => exit_usage(&format!("unknown --algo {other:?} (use nl|nojoin|phj|chj)")),
    };
    let pct = |name: &str, default| -> u32 {
        match arg(name, default).parse::<u32>() {
            Ok(n) if (1..=100).contains(&n) => n,
            _ => exit_usage(&format!("{name} must be a percentage in 1..=100")),
        }
    };
    let pat_pct = pct("--pat", "10");
    let prov_pct = pct("--prov", "90");
    let deadline_nanos = match arg("--deadline-ms", "0").parse::<u64>() {
        Ok(ms) => ms * 1_000_000,
        Err(_) => exit_usage("--deadline-ms must be an integer (simulated milliseconds)"),
    };
    let mode = if flags.iter().any(|(f, _)| f.0 == "--warm") {
        CacheMode::Warm
    } else {
        CacheMode::Cold
    };
    let (scale, jobs) = tq_bench::env_config_or_exit();
    let var = |name| std::env::var(name).ok();
    let concurrency = or_exit(env::concurrency(var("TQ_CONCURRENCY").as_deref()));
    let duration_secs = or_exit(env::duration_secs(var("TQ_DURATION").as_deref()));
    let queue_depth = or_exit(env::queue_depth(var("TQ_QUEUE_DEPTH").as_deref()));
    let write_mix = or_exit(env::write_mix(var("TQ_WRITE_MIX").as_deref()));
    let shards = or_exit(env::shards(var("TQ_SHARDS").as_deref()));
    let parallel = or_exit(env::parallel(var("TQ_PARALLEL").as_deref()));
    let duration = Duration::from_secs(duration_secs as u64);
    let warmup = or_exit(env::warmup_ms(var("TQ_WARMUP_MS").as_deref()))
        .map_or(duration / 5, Duration::from_millis);

    let db = tq_bench::build_db(shape, org, scale);
    let cfg = ServeConfig {
        concurrency,
        workers: jobs,
        queue_depth: queue_depth as usize,
        shards,
        duration,
        warmup,
        mode,
        algo,
        pat_pct,
        prov_pct,
        deadline_nanos,
        write_mix,
        parallel,
    };
    let shard_note = if shards > 1 {
        format!(" across {shards} shards")
    } else {
        String::new()
    };
    eprintln!(
        "serving: {} clients -> {} workers{} (queue depth {}), {}s ({}ms warmup, {}% writes)...",
        cfg.concurrency,
        cfg.workers,
        shard_note,
        cfg.queue_depth,
        duration_secs,
        warmup.as_millis(),
        write_mix
    );
    let outcome = run_serve(db, &cfg);
    let s = &outcome.stat;
    println!(
        "ran {} ({} x{}, scale 1/{})",
        s.label,
        org.label(),
        concurrency,
        scale
    );
    println!(
        "throughput {:.1} q/s | p50 {:.3} ms  p95 {:.3} ms  p99 {:.3} ms | \
         shed {} ({:.1}%)  deadline-exceeded {}  errors {}  leaked-handles {}",
        s.throughput_qps(),
        s.p50_nanos as f64 / 1e6,
        s.p95_nanos as f64 / 1e6,
        s.p99_nanos as f64 / 1e6,
        s.queries_shed,
        s.shed_rate() * 100.0,
        s.deadline_exceeded,
        s.errors,
        outcome.leaked_handles,
    );
    if shards > 1 {
        println!(
            "sharding: {} shards | shed at router edge {}  shed at shard queues {}",
            shards,
            s.shed_router,
            s.queries_shed - s.shed_router,
        );
    }
    if s.commits + s.aborts > 0 {
        println!(
            "writes: {} committed  {} aborted ({:.1}% abort rate)",
            s.commits,
            s.aborts,
            s.abort_rate() * 100.0
        );
    }
    println!("{}", to_latency_csv([s]));
    if s.errors > 0 || outcome.leaked_handles > 0 {
        std::process::exit(1);
    }
}

fn exit_usage(msg: &str) -> ! {
    eprintln!("{msg}");
    std::process::exit(2)
}
