//! What the benchmark declares: its workloads, their sizes, and every
//! metric name with its unit. `BENCHMARK.json` repeats these names; the
//! name-lock test holds the two together.

/// The eight workloads. The four `fig_*` run the engine in-process
/// (server and router do nothing); the four `serve_*` drive the wire
/// protocol closed-loop — one op in flight, except `serve_write_mix`,
/// whose two clients run at once.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    FigJoins,
    FigChains,
    FigSelects,
    FigMorsel,
    ServeDirect,
    ServeRouted,
    ServeSessions,
    ServeWriteMix,
}

impl Workload {
    pub const ALL: [Workload; 8] = [
        Workload::FigJoins,
        Workload::FigChains,
        Workload::FigSelects,
        Workload::FigMorsel,
        Workload::ServeDirect,
        Workload::ServeRouted,
        Workload::ServeSessions,
        Workload::ServeWriteMix,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::FigJoins => "fig_joins",
            Workload::FigChains => "fig_chains",
            Workload::FigSelects => "fig_selects",
            Workload::FigMorsel => "fig_morsel",
            Workload::ServeDirect => "serve_direct",
            Workload::ServeRouted => "serve_routed",
            Workload::ServeSessions => "serve_sessions",
            Workload::ServeWriteMix => "serve_write_mix",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// In-process figure grid (true) or served op lists (false).
    pub fn is_fig(self) -> bool {
        matches!(
            self,
            Workload::FigJoins | Workload::FigChains | Workload::FigSelects | Workload::FigMorsel
        )
    }

    /// Whether each lane has a client thread of its own, so that two
    /// requests are in flight. One workload does, to exercise what the
    /// others cannot: both workers busy at once, the session table and
    /// the epoch chain under contention, a reader overlapping the writer.
    pub fn concurrent(self) -> bool {
        self == Workload::ServeWriteMix
    }

    /// Whether the process restricts itself to one CPU: every workload
    /// that never has two threads runnable at once.
    pub fn pinned(self) -> bool {
        !(self == Workload::FigMorsel || self.concurrent())
    }

    /// Sizes of one block. A run repeats blocks — set-up, then the
    /// fixed op list — until its seconds are spent, and reports each
    /// metric's median over the blocks. Blocks are short (0.15–1 s on the
    /// host the bounds were taken on) so that a run holds a dozen or
    /// more: the host's speed changes by the second.
    pub fn sizing(self, smoke: bool) -> Sizing {
        if smoke {
            return Sizing {
                scale: 2000,
                ops: if self == Workload::ServeSessions {
                    200
                } else {
                    100
                },
                min_blocks: 1,
            };
        }
        let ops = match self {
            // A grid workload serves nothing when timed; `ops` sizes the
            // walk and the live blocks of its traced run, where one read
            // of this database takes ~20 ms.
            Workload::FigJoins
            | Workload::FigChains
            | Workload::FigSelects
            | Workload::FigMorsel => 16,
            // Every lattice kind once per lane.
            Workload::ServeDirect | Workload::ServeRouted => 100,
            Workload::ServeSessions => 2000,
            // Four times each kind, and with them 100 write transactions:
            // ten beyond their 90th percentile.
            Workload::ServeWriteMix => 400,
        };
        Sizing {
            scale: if self.is_fig() {
                FIG_SCALE
            } else {
                SERVE_SCALE
            },
            ops,
            min_blocks: 3,
        }
    }
}

/// DB2 class-clustered at 1/20 of the paper's size: 50 k providers with
/// a mean fan-out of 3, ≈43 MB resident — twenty times the 2 MiB L2,
/// with the simulated caches scaled to keep the paper's ratios.
/// (Per-cell host time is close to linear in scale; a cell here takes
/// 4–70 ms, short enough that a 15 s run sees each twenty-odd times.)
pub const FIG_SCALE: u32 = 20;
/// 5 k providers, ≈12 MB resident with a server on top: the served
/// workloads measure the service and the engine's CPU, not DRAM.
pub const SERVE_SCALE: u32 = 200;

/// Block sizes for one workload.
#[derive(Clone, Copy, Debug)]
pub struct Sizing {
    /// `BuildConfig::scaled` divisor.
    pub scale: u32,
    /// Reads in each lane's list per served block.
    pub ops: usize,
    /// Blocks run even when the seconds are already spent.
    pub min_blocks: usize,
}

/// A declared metric: name, unit, and whether higher is better.
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
}

const fn lower(name: &'static str, unit: &'static str) -> Metric {
    Metric {
        name,
        unit,
        higher_is_better: false,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> Metric {
    Metric {
        name,
        unit,
        higher_is_better: true,
    }
}

/// Measured with tracing off; every workload reports every one.
pub const END_TO_END: &[Metric] = &[
    lower("setup_s", "s"),
    lower("peak_rss_mb", "MB"),
    higher("throughput_ops_s", "ops/s"),
    lower("cpu_ms_per_op", "ms"),
    lower("op_p50_ms", "ms"),
    lower("op_p90_ms", "ms"),
];

/// From the traced run. Layers are the crates. Counts whose unit is
/// `count` or `pages` repeat bit-for-bit for a given seed.
pub const PER_LAYER: &[Metric] = &[
    lower("fail_rate", "ratio"),
    // workload
    lower("workload.build_s", "s"),
    lower("workload.partition_s", "s"),
    // pagestore
    lower("pagestore.clone_us", "us"),
    lower("pagestore.lru_touch_ns", "ns"),
    lower("pagestore.page_hit_ns", "ns"),
    lower("pagestore.page_miss_ns", "ns"),
    lower("pagestore.write_set_us", "us"),
    lower("pagestore.cow_pages_per_commit", "pages"),
    higher("pagestore.cc_hit_rate", "%"),
    higher("pagestore.sc_hit_rate", "%"),
    lower("pagestore.d2sc_pages", "pages"),
    // objstore
    lower("objstore.fetch_ns", "ns"),
    lower("objstore.fetch_batch_ns", "ns"),
    lower("objstore.encode_ns", "ns"),
    lower("objstore.decode_ns", "ns"),
    lower("objstore.cold_restart_us", "us"),
    lower("objstore.end_of_query_us", "us"),
    lower("objstore.update_ns", "ns"),
    lower("objstore.handle_gets", "count"),
    lower("objstore.ns_per_handle_get", "ns"),
    // index
    lower("index.bulk_build_ms", "ms"),
    lower("index.range_ns_per_rid", "ns"),
    lower("index.lookup_ns", "ns"),
    lower("index.maintain_ns_per_key", "ns"),
    lower("index.pages_per_probe", "pages"),
    // core
    lower("core.join.nl_cpu_s", "s"),
    lower("core.join.nojoin_cpu_s", "s"),
    lower("core.join.phj_cpu_s", "s"),
    lower("core.join.chj_cpu_s", "s"),
    lower("core.chain.plan_us", "us"),
    lower("core.chain.d3_cpu_s", "s"),
    lower("core.chain.d4_cpu_s", "s"),
    lower("core.select.seq_cpu_s", "s"),
    lower("core.select.index_cpu_s", "s"),
    lower("core.select.sorted_cpu_s", "s"),
    higher("core.morsel.speedup_d2", "ratio"),
    lower("core.morsel.cpu_ratio_d2", "ratio"),
    lower("core.update.stmt_us", "us"),
    lower("core.oql.compile_us", "us"),
    // statsdb
    lower("statsdb.merge_stats_us", "us"),
    lower("statsdb.hist_record_ns", "ns"),
    // server
    lower("server.codec.request_ns", "ns"),
    lower("server.codec.response_ns", "ns"),
    lower("server.codec.response_bytes", "bytes"),
    lower("server.frame_ns", "ns"),
    lower("server.sched.handoff_us", "us"),
    lower("server.session.create_us", "us"),
    lower("server.session.take_restore_us", "us"),
    lower("server.session.close_us", "us"),
    lower("server.measure.stat_record_us", "us"),
    lower("server.session.commit_us", "us"),
    lower("server.session.commit_drift", "ratio"),
    lower("server.session.repin_us", "us"),
    lower("server.walk.engine_us", "us"),
    lower("server.walk.service_us", "us"),
    lower("server.walk.service_share", "ratio"),
    lower("server.unattributed_us", "us"),
    lower("server.read_p99_ms", "ms"),
    higher("server.queries_ok", "count"),
    lower("server.queries_shed", "count"),
    lower("server.queries_failed", "count"),
    higher("server.commits", "count"),
    lower("server.commit_aborts", "count"),
    // router
    lower("router.walk.shard_engine_us", "us"),
    lower("router.dup_work_ratio", "ratio"),
    lower("router.slowest_shard_share", "ratio"),
    lower("router.walk.merge_us", "us"),
    lower("router.unattributed_us", "us"),
    higher("router.tax_throughput", "ratio"),
    lower("router.tax_cpu", "ratio"),
    lower("router.read_p99_ms", "ms"),
    higher("router.routed", "count"),
    lower("router.shed_router", "count"),
    lower("router.shard_unavailable", "count"),
    // trace
    lower("trace.overhead_pct", "%"),
    lower("trace.spans", "count"),
];
