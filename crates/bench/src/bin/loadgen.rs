//! Closed-loop load generator for the tq-server query service.
//!
//! Starts the service over a freshly built database, drives it with
//! `TQ_CONCURRENCY` client threads for `TQ_DURATION` seconds, and
//! reports throughput, latency percentiles (p50/p95/p99 from a
//! log-scaled histogram), and the admission-control shed rate —
//! machine-readably as the latency CSV.

use std::time::Duration;

use tq_bench::env;
use tq_bench::serve::{run_serve, ServeConfig};
use tq_query::JoinAlgo;
use tq_server::CacheMode;
use tq_statsdb::to_latency_csv;
use tq_workload::{DbShape, Organization};

fn main() {
    env::maybe_print_help(
        "Closed-loop load generator for the tq-server query service: drives \
         N client sessions against the simulated database and reports \
         throughput, latency percentiles, and shed rate.",
        "loadgen [--db db1|db2] [--org class|random|comp|assoc] \
         [--algo nl|nojoin|phj|chj] [--pat PCT] [--prov PCT] [--warm] \
         [--deadline-ms N]",
        &[
            env::ENV_SCALE,
            env::ENV_JOBS,
            env::ENV_CONCURRENCY,
            env::ENV_DURATION,
            env::ENV_QUEUE_DEPTH,
            env::ENV_WRITE_MIX,
            env::ENV_WARMUP_MS,
            env::ENV_BATCH,
            env::ENV_SHARDS,
            env::ENV_PARALLEL,
        ],
    );
    let args: Vec<String> = std::env::args().collect();
    let arg = |name: &str, default: &str| -> String {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1))
            .cloned()
            .unwrap_or_else(|| default.to_string())
    };
    let flag = |name: &str| args.iter().any(|a| a == name);
    let shape = match arg("--db", "db2").as_str() {
        "db1" => DbShape::Db1,
        "db2" => DbShape::Db2,
        other => exit_usage(&format!("unknown --db {other:?} (use db1|db2)")),
    };
    let org = match arg("--org", "class").as_str() {
        "class" => Organization::ClassClustered,
        "random" => Organization::Randomized,
        "comp" | "composition" => Organization::Composition,
        "assoc" | "assoc-ordered" => Organization::AssociationOrdered,
        other => exit_usage(&format!(
            "unknown --org {other:?} (use class|random|comp|assoc)"
        )),
    };
    let algo = match arg("--algo", "chj").as_str() {
        "nl" => JoinAlgo::Nl,
        "nojoin" => JoinAlgo::Nojoin,
        "phj" => JoinAlgo::Phj,
        "chj" => JoinAlgo::Chj,
        other => exit_usage(&format!("unknown --algo {other:?} (use nl|nojoin|phj|chj)")),
    };
    let pct = |name: &str, default: &str| -> u32 {
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
    let mode = if flag("--warm") {
        CacheMode::Warm
    } else {
        CacheMode::Cold
    };
    let (scale, jobs) = tq_bench::env_config_or_exit();
    let or_exit = |r: Result<u32, String>| -> u32 {
        r.unwrap_or_else(|e| {
            eprintln!("{e}");
            std::process::exit(2);
        })
    };
    let concurrency = or_exit(env::concurrency_from_env());
    let duration_secs = or_exit(env::duration_secs_from_env());
    let queue_depth = or_exit(env::queue_depth_from_env());
    let write_mix = or_exit(env::write_mix_from_env());
    let shards = or_exit(env::shards_from_env());
    let parallel = env::parallel_from_env().unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2);
    });
    let duration = Duration::from_secs(duration_secs as u64);
    let warmup = match env::warmup_ms_from_env() {
        Ok(Some(ms)) => Duration::from_millis(ms),
        Ok(None) => duration / 5,
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(2);
        }
    };

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
