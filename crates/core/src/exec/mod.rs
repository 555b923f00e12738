//! The physical-operator execution layer.
//!
//! Every access pattern the paper measures — index range scans,
//! sequential scans, parent→child set navigation, child→parent
//! back-reference navigation, hash build/probe, residual predicates,
//! result construction — is a named operator here, and every join and
//! selection is a composition of them driven through one
//! [`ExecContext`]. The context does two jobs:
//!
//! 1. **Handle discipline.** Object fetches go through
//!    [`ExecContext::with_object`], which pairs the fetch with its
//!    release via an RAII [`ObjGuard`] — no operator can leak a pin,
//!    including on deleted-object early returns.
//! 2. **Counter attribution.** [`ExecContext::op`] opens a scope for
//!    one operator node and snapshots the store's counters (pages,
//!    RPCs, cache faults, handle traffic, CPU events, per-category
//!    nanoseconds) at every scope boundary. Each delta is credited to
//!    the *innermost* open scope, so the flattened per-operator rows
//!    sum **exactly** — field for field — to the query totals. That
//!    invariant is enforced by `crates/bench/tests/operator_invariants`.
//!
//! Scopes charge nothing themselves: wrapping existing executor code in
//! `op()` changes neither the charge sequence nor any counter, which is
//! how the refactor keeps figure output byte-identical.

use crate::spec::{ResultMode, TreeJoinSpec};
use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use tq_index::BTreeIndex;
use tq_objstore::{ObjBatch, ObjGuard, ObjectStore, Record, Rid};
use tq_pagestore::{CpuEvent, IoStats};

pub use tq_objstore::DEFAULT_BATCH_SIZE;

/// The batch size every store starts with; a store's own is
/// [`ObjectStore::batch_size`], set per database.
pub const fn default_batch_size() -> usize {
    DEFAULT_BATCH_SIZE
}

/// The morsel-parallel degree of every query that is not given one: 1,
/// the exact serial path. Callers that want more pass a degree
/// explicitly (see [`crate::join::parallel`]).
pub const fn default_parallel_degree() -> usize {
    1
}

/// Reusable rid scratch for chunked fan-out (set members, index-scan
/// pairs); lives in the [`ExecContext`] arena so a query allocates it
/// once across all its operators.
pub type RidBatch = Vec<Rid>;

/// Reusable `(left key, right key)` scratch for deferred `Emit`
/// flushes. Selections use the first slot only.
pub type ValueBatch = Vec<(i64, i64)>;

/// Why a cancellation check fired.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CancelReason {
    /// The query's simulated-time budget ran out.
    Deadline {
        /// The budget that was exceeded, in simulated nanoseconds.
        deadline_nanos: u64,
    },
    /// [`CancelToken::cancel`] was called (client disconnect, server
    /// shutdown).
    External,
}

/// The panic payload thrown when a cancellation check fires.
///
/// Cooperative cancellation must abandon an operator pipeline from
/// *inside* arbitrarily nested composition closures; unwinding is the
/// only way out that needs no `Result` plumbing through every operator
/// (and therefore cannot perturb the counter stream of uncancelled
/// queries). Callers that opt in via [`ExecContext::set_cancel`] must
/// wrap the query in `std::panic::catch_unwind` and downcast the
/// payload to this type; [`ObjGuard`]s pinned in unwound frames skip
/// their debug leak check while panicking, and the query's store clone
/// is discarded wholesale by the session layer.
#[derive(Clone, Copy, Debug)]
pub struct Cancelled {
    /// What fired.
    pub reason: CancelReason,
    /// Simulated nanoseconds the query had consumed when it was
    /// stopped.
    pub elapsed_nanos: u64,
}

/// Shared cancellation state for one query: an external flag plus an
/// optional deadline on *simulated* time. Simulated-time deadlines are
/// deterministic — the same query with the same budget is cancelled at
/// exactly the same operator boundary on every run and every machine.
#[derive(Clone, Debug, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
    deadline_nanos: Option<u64>,
    /// The morsel worker this query's run forces to panic (fault tests).
    pub(crate) fail_worker: Option<usize>,
}

impl CancelToken {
    /// A token that only cancels on [`CancelToken::cancel`].
    pub fn new() -> Self {
        Self::default()
    }

    /// A token that additionally cancels once the query has consumed
    /// `nanos` of simulated time.
    pub fn with_deadline_nanos(nanos: u64) -> Self {
        Self {
            deadline_nanos: Some(nanos),
            ..Self::default()
        }
    }

    /// Test hook: the query's morsel worker `w` panics on entry (at
    /// degree 1 the inline run counts as worker 0).
    #[doc(hidden)]
    pub fn fail_worker(self, w: usize) -> Self {
        Self {
            fail_worker: Some(w),
            ..self
        }
    }

    /// Requests cancellation from another thread.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Relaxed);
    }

    /// Has [`CancelToken::cancel`] been called?
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::Relaxed)
    }

    /// The simulated-time budget, if any.
    pub fn deadline_nanos(&self) -> Option<u64> {
        self.deadline_nanos
    }
}

/// The operator vocabulary.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum OpKind {
    /// Drain an index range into `(key, rid)` pairs (leaf-chain I/O,
    /// plus the rid sort when the §4.3 sorted-scan lesson is applied),
    /// or fetch objects in index-key order (the naive index scan).
    IndexRangeScan,
    /// Fetch every object of a collection (or a rid-sorted prefix) in
    /// physical order.
    SeqScan,
    /// Parent→child navigation through the set attribute.
    SetNav,
    /// Child→parent navigation through the back reference.
    BackRefNav,
    /// Build an operator hash table (fetch + insert + swap touches).
    HashBuild,
    /// Probe an operator hash table (fetch + probe + swap touches).
    HashProbe,
    /// Sort a gathered run (in memory or external with spill I/O).
    Sort,
    /// Merge rid-ordered runs (sort-merge join).
    Merge,
    /// Residual-predicate evaluation on pinned objects.
    Residual,
    /// Project attributes and append one result tuple.
    Emit,
    /// Rewrite fetched objects in place (or relocate them) and re-key
    /// their header-listed indexes — the write half of an update
    /// statement.
    Update,
    /// End-of-query handle drain (recorded by the measurement harness,
    /// outside any operator).
    Teardown,
    /// Work charged outside every operator scope (should stay zero).
    Other,
}

impl OpKind {
    /// Stable display name.
    pub fn label(&self) -> &'static str {
        match self {
            OpKind::IndexRangeScan => "IndexRangeScan",
            OpKind::SeqScan => "SeqScan",
            OpKind::SetNav => "SetNav",
            OpKind::BackRefNav => "BackRefNav",
            OpKind::HashBuild => "HashBuild",
            OpKind::HashProbe => "HashProbe",
            OpKind::Sort => "Sort",
            OpKind::Merge => "Merge",
            OpKind::Residual => "Residual",
            OpKind::Emit => "Emit",
            OpKind::Update => "Update",
            OpKind::Teardown => "Teardown",
            OpKind::Other => "Other",
        }
    }

    /// Parses a display name back (the statsdb CSV round trip).
    pub fn parse(s: &str) -> Option<OpKind> {
        Some(match s {
            "IndexRangeScan" => OpKind::IndexRangeScan,
            "SeqScan" => OpKind::SeqScan,
            "SetNav" => OpKind::SetNav,
            "BackRefNav" => OpKind::BackRefNav,
            "HashBuild" => OpKind::HashBuild,
            "HashProbe" => OpKind::HashProbe,
            "Sort" => OpKind::Sort,
            "Merge" => OpKind::Merge,
            "Residual" => OpKind::Residual,
            "Emit" => OpKind::Emit,
            "Update" => OpKind::Update,
            "Teardown" => OpKind::Teardown,
            "Other" => OpKind::Other,
            _ => return None,
        })
    }
}

impl fmt::Display for OpKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Counter deltas attributed to one operator node. Every field is an
/// exactly summable `u64` (rates and high-water marks are derived,
/// never stored), so per-operator rows add up to the query totals
/// without rounding.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct OpCounters {
    /// I/O counters (Figure 3's page/RPC/fault fields).
    pub io: IoStats,
    /// Fresh handle allocations.
    pub handle_allocations: u64,
    /// Re-pins of live handles.
    pub handle_touches: u64,
    /// Revivals from the delayed-free pool.
    pub handle_revivals: u64,
    /// Pin drops.
    pub handle_unrefs: u64,
    /// Handle teardowns.
    pub handle_frees: u64,
    /// CPU events charged (handle traffic, attribute gets, compares,
    /// hashing, sorting, result appends, swap faults).
    pub cpu_events: u64,
    /// Simulated nanoseconds spent on disk I/O.
    pub io_nanos: u64,
    /// Simulated nanoseconds spent shipping pages client↔server.
    pub rpc_nanos: u64,
    /// Simulated nanoseconds of CPU work.
    pub cpu_nanos: u64,
    /// Simulated nanoseconds of operator-memory swap faults.
    pub swap_nanos: u64,
}

impl OpCounters {
    /// Absolute counter values right now — deltas between two
    /// snapshots attribute to operators.
    pub fn snapshot(store: &ObjectStore) -> Self {
        let h = store.handle_stats();
        let clock = store.clock();
        Self {
            io: store.stats(),
            handle_allocations: h.allocations,
            handle_touches: h.touches,
            handle_revivals: h.revivals,
            handle_unrefs: h.unrefs,
            handle_frees: h.frees,
            cpu_events: clock.cpu_events(),
            io_nanos: clock.io_time(),
            rpc_nanos: clock.rpc_time(),
            cpu_nanos: clock.cpu_time(),
            swap_nanos: clock.swap_time(),
        }
    }

    /// Field-wise `self - earlier` (all fields are monotone counters).
    pub fn delta_since(&self, earlier: &OpCounters) -> OpCounters {
        OpCounters {
            io: self.io.delta_since(&earlier.io),
            handle_allocations: self.handle_allocations - earlier.handle_allocations,
            handle_touches: self.handle_touches - earlier.handle_touches,
            handle_revivals: self.handle_revivals - earlier.handle_revivals,
            handle_unrefs: self.handle_unrefs - earlier.handle_unrefs,
            handle_frees: self.handle_frees - earlier.handle_frees,
            cpu_events: self.cpu_events - earlier.cpu_events,
            io_nanos: self.io_nanos - earlier.io_nanos,
            rpc_nanos: self.rpc_nanos - earlier.rpc_nanos,
            cpu_nanos: self.cpu_nanos - earlier.cpu_nanos,
            swap_nanos: self.swap_nanos - earlier.swap_nanos,
        }
    }

    /// Field-wise accumulate.
    pub fn add(&mut self, other: &OpCounters) {
        self.io.d2sc_read_pages += other.io.d2sc_read_pages;
        self.io.sc2cc_read_pages += other.io.sc2cc_read_pages;
        self.io.client_hits += other.io.client_hits;
        self.io.client_misses += other.io.client_misses;
        self.io.server_hits += other.io.server_hits;
        self.io.server_misses += other.io.server_misses;
        self.io.pages_written += other.io.pages_written;
        self.io.log_pages_written += other.io.log_pages_written;
        self.handle_allocations += other.handle_allocations;
        self.handle_touches += other.handle_touches;
        self.handle_revivals += other.handle_revivals;
        self.handle_unrefs += other.handle_unrefs;
        self.handle_frees += other.handle_frees;
        self.cpu_events += other.cpu_events;
        self.io_nanos += other.io_nanos;
        self.rpc_nanos += other.rpc_nanos;
        self.cpu_nanos += other.cpu_nanos;
        self.swap_nanos += other.swap_nanos;
    }

    /// All-zero?
    pub fn is_zero(&self) -> bool {
        *self == OpCounters::default()
    }

    /// Handle gets of any flavour (alloc + touch + revive).
    pub fn handle_gets(&self) -> u64 {
        self.handle_allocations + self.handle_touches + self.handle_revivals
    }

    /// Total simulated nanoseconds across the four categories.
    pub fn elapsed_nanos(&self) -> u64 {
        self.io_nanos + self.rpc_nanos + self.cpu_nanos + self.swap_nanos
    }

    /// Total simulated seconds.
    pub fn elapsed_secs(&self) -> f64 {
        self.elapsed_nanos() as f64 / 1e9
    }
}

/// One operator node of a finished trace, flattened pre-order.
#[derive(Clone, Debug, PartialEq)]
pub struct OpRecord {
    /// Operator kind.
    pub kind: OpKind,
    /// Deterministic instance label (collection name, "result", …).
    pub label: String,
    /// Nesting depth (0 = pipeline root).
    pub depth: u32,
    /// Counters exclusively attributed to this node.
    pub counters: OpCounters,
}

/// A finished per-operator attribution, pre-order.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ExecTrace {
    /// The operator rows.
    pub ops: Vec<OpRecord>,
}

impl ExecTrace {
    /// Field-wise sum over every row — equals the counter deltas of the
    /// whole traced window.
    pub fn total(&self) -> OpCounters {
        let mut t = OpCounters::default();
        for op in &self.ops {
            t.add(&op.counters);
        }
        t
    }

    /// Appends a root-level row (the harness records the end-of-query
    /// handle drain this way, so the trace covers the full measured
    /// window).
    pub fn push_root(&mut self, kind: OpKind, label: &str, counters: OpCounters) {
        self.ops.push(OpRecord {
            kind,
            label: label.to_string(),
            depth: 0,
            counters,
        });
    }

    /// First row of the given kind, if any (test convenience). Prefer
    /// [`ExecTrace::find_all`] for pipelines where a kind can appear
    /// more than once (hybrid hash runs two `HashBuild`s, selections
    /// two `IndexRangeScan`s) — this returns only the first.
    pub fn find(&self, kind: OpKind) -> Option<&OpRecord> {
        self.ops.iter().find(|op| op.kind == kind)
    }

    /// Every row of the given kind, in pre-order. Pipelines with
    /// repeated operator kinds have one row per `(parent, label)`
    /// instance; summing over all of them gives the kind's true total
    /// where `find` would silently report just the first.
    pub fn find_all(&self, kind: OpKind) -> Vec<&OpRecord> {
        self.ops.iter().filter(|op| op.kind == kind).collect()
    }

    /// Field-wise counter sum over every row of the given kind.
    pub fn total_of(&self, kind: OpKind) -> OpCounters {
        let mut t = OpCounters::default();
        for op in self.find_all(kind) {
            t.add(&op.counters);
        }
        t
    }
}

struct Node {
    kind: OpKind,
    label: String,
    parent: Option<usize>,
    counters: OpCounters,
}

/// Drives a composition of operators over one store, attributing
/// counter deltas to the innermost open operator scope.
pub struct ExecContext<'a> {
    /// The store every operator works through.
    pub store: &'a mut ObjectStore,
    nodes: Vec<Node>,
    open: Vec<usize>,
    last: OpCounters,
    unattributed: OpCounters,
    cancel: Option<CancelToken>,
    start_nanos: u64,
    /// Scratch arena, reused across every operator of the query.
    obj_batch: ObjBatch,
    rid_scratch: RidBatch,
    val_scratch: ValueBatch,
}

impl<'a> ExecContext<'a> {
    /// Starts a trace: counters from here on are attributed.
    pub fn new(store: &'a mut ObjectStore) -> Self {
        let last = OpCounters::snapshot(store);
        let start_nanos = store.clock().elapsed();
        Self {
            store,
            nodes: Vec::new(),
            open: Vec::new(),
            last,
            unattributed: OpCounters::default(),
            cancel: None,
            start_nanos,
            obj_batch: ObjBatch::default(),
            rid_scratch: RidBatch::new(),
            val_scratch: ValueBatch::new(),
        }
    }

    /// The batch size operators should chunk by (≥ 1): the store's.
    pub fn batch_size(&self) -> usize {
        self.store.batch_size()
    }

    /// Takes the rid scratch buffer (empty). Return it with
    /// [`ExecContext::put_rid_batch`] so the next operator reuses the
    /// allocation.
    pub fn take_rid_batch(&mut self) -> RidBatch {
        let mut b = std::mem::take(&mut self.rid_scratch);
        b.clear();
        b
    }

    /// Returns the rid scratch buffer to the arena.
    pub fn put_rid_batch(&mut self, b: RidBatch) {
        self.rid_scratch = b;
    }

    /// Takes the value scratch buffer (empty); pair of
    /// [`ExecContext::put_val_batch`].
    pub fn take_val_batch(&mut self) -> ValueBatch {
        let mut b = std::mem::take(&mut self.val_scratch);
        b.clear();
        b
    }

    /// Returns the value scratch buffer to the arena.
    pub fn put_val_batch(&mut self, b: ValueBatch) {
        self.val_scratch = b;
    }

    /// Arms cooperative cancellation: every subsequent operator-scope
    /// entry and object fetch checks `token` and unwinds with a
    /// [`Cancelled`] payload when it fires. Without a token (the figure
    /// harness path) the checks cost nothing and charge nothing.
    pub fn set_cancel(&mut self, token: CancelToken) {
        self.cancel = Some(token);
    }

    /// Rebases the deadline origin to `nanos` on the *context's own*
    /// simulated clock. A morsel worker runs on a cloned store whose
    /// clock kept ticking through the coordinator's shared prefix
    /// (index scan, hash build); rebasing to the query's original
    /// start makes the worker's `Cancelled::elapsed_nanos` — and its
    /// deadline checks — measure from query start, exactly as the
    /// serial path would.
    pub fn rebase_start_nanos(&mut self, nanos: u64) {
        self.start_nanos = nanos;
    }

    /// The cancellation check, run at operator boundaries. Panics with
    /// a [`Cancelled`] payload — see that type for why unwinding.
    fn check_cancel(&self) {
        let Some(token) = &self.cancel else { return };
        let elapsed_nanos = self.store.clock().elapsed() - self.start_nanos;
        if token.is_cancelled() {
            std::panic::panic_any(Cancelled {
                reason: CancelReason::External,
                elapsed_nanos,
            });
        }
        if let Some(deadline_nanos) = token.deadline_nanos {
            if elapsed_nanos > deadline_nanos {
                std::panic::panic_any(Cancelled {
                    reason: CancelReason::Deadline { deadline_nanos },
                    elapsed_nanos,
                });
            }
        }
    }

    fn take_delta(&mut self) -> OpCounters {
        let now = OpCounters::snapshot(self.store);
        let delta = now.delta_since(&self.last);
        self.last = now;
        delta
    }

    fn credit(&mut self, delta: OpCounters) {
        match self.open.last() {
            Some(&id) => self.nodes[id].counters.add(&delta),
            None => self.unattributed.add(&delta),
        }
    }

    /// Runs `f` inside an operator scope. Repeated scopes with the same
    /// `(kind, label)` under the same parent accumulate into one node
    /// (a per-tuple navigation scope is still one operator row).
    pub fn op<R>(&mut self, kind: OpKind, label: &str, f: impl FnOnce(&mut Self) -> R) -> R {
        let parent = self.open.last().copied();
        self.op_inner(parent, kind, label, f)
    }

    /// Like [`ExecContext::op`], but the node's parent is given
    /// explicitly instead of taken from the innermost open scope.
    /// Pipelines use this to flush deferred `Emit`s *after* the scope
    /// that matched them has closed while still landing on the `Emit`
    /// node under it. `parent` must come from
    /// [`ExecContext::current_node`] inside the intended scope.
    pub fn op_batch<R>(
        &mut self,
        parent: Option<usize>,
        kind: OpKind,
        label: &str,
        f: impl FnOnce(&mut Self) -> R,
    ) -> R {
        self.op_inner(parent, kind, label, f)
    }

    /// The innermost open node's id, for later [`ExecContext::op_batch`]
    /// re-entry. `None` outside every scope.
    pub fn current_node(&self) -> Option<usize> {
        self.open.last().copied()
    }

    fn op_inner<R>(
        &mut self,
        parent: Option<usize>,
        kind: OpKind,
        label: &str,
        f: impl FnOnce(&mut Self) -> R,
    ) -> R {
        self.check_cancel();
        let delta = self.take_delta();
        self.credit(delta);
        let id = self.node(parent, kind, label);
        self.open.push(id);
        let out = f(self);
        let delta = self.take_delta();
        self.open.pop();
        self.nodes[id].counters.add(&delta);
        out
    }

    /// The node for `(parent, kind, label)`, created on first use.
    fn node(&mut self, parent: Option<usize>, kind: OpKind, label: &str) -> usize {
        self.nodes
            .iter()
            .position(|n| n.parent == parent && n.kind == kind && n.label == label)
            .unwrap_or_else(|| {
                self.nodes.push(Node {
                    kind,
                    label: label.to_string(),
                    parent,
                    counters: OpCounters::default(),
                });
                self.nodes.len() - 1
            })
    }

    /// Adds a finished trace — a morsel worker's, run on a private
    /// store clone — into this context's node tree as if its scopes
    /// had been opened here: each row lands on the node with the same
    /// `(parent, kind, label)`, created (after its existing siblings)
    /// when this context never opened it. The worker's counters never
    /// touched this context's store, so nothing is credited twice.
    pub fn absorb(&mut self, trace: &ExecTrace) {
        let base = self.current_node();
        let mut path: Vec<usize> = Vec::new();
        for row in &trace.ops {
            path.truncate(row.depth as usize);
            let parent = path.last().copied().or(base);
            let id = self.node(parent, row.kind, &row.label);
            self.nodes[id].counters.add(&row.counters);
            path.push(id);
        }
    }

    /// Fetches `rid` and runs `f` with the guarded object; the release
    /// is structural, so early returns (deleted objects) cannot leak
    /// the handle pin.
    pub fn with_object<R>(&mut self, rid: Rid, f: impl FnOnce(&mut Self, &ObjGuard) -> R) -> R {
        self.check_cancel();
        let guard = self.store.fetch_guard(rid);
        let out = f(self, &guard);
        self.store.release_guard(guard);
        out
    }

    /// Fetches a batch of distinct rids and runs `f` over the armed
    /// [`ObjBatch`]; every entry is released (in fetch order) on the
    /// way out. One cancellation check covers the whole batch — the
    /// per-object charge sequence is untouched (see
    /// [`tq_objstore::ObjectStore::fetch_batch`]), so counters are
    /// bitwise-identical to a `with_object` loop over the same rids.
    pub fn with_batch<R>(&mut self, rids: &[Rid], f: impl FnOnce(&mut Self, &ObjBatch) -> R) -> R {
        self.check_cancel();
        let mut batch = std::mem::take(&mut self.obj_batch);
        self.store.fetch_batch(rids, &mut batch);
        let out = f(self, &batch);
        self.store.release_batch(&mut batch);
        self.obj_batch = batch;
        out
    }

    /// The one fetch loop body: fetches the objects `items` name, in
    /// order, runs `row(ctx, item, canonical rid, record)` on each and
    /// releases them. A chunk of one is a plain
    /// [`ExecContext::with_object`]; a longer chunk is one
    /// [`ExecContext::with_batch`] gather (so its rids must be
    /// distinct). Counters are bitwise-identical either way, which
    /// leaves the chunk length free to follow the *page-access
    /// sequence*: an operator slices its list by
    /// [`ExecContext::batch_size`] where the list was materialized
    /// before any fetch, and by 1 where page reads or writes interleave
    /// with the fetches (overflow sets, spilling partitions, repeating
    /// rids) — that interleave is measured behaviour and must not move.
    pub fn fetch_chunk<T>(
        &mut self,
        items: &[T],
        rid_of: impl Fn(&T) -> Rid,
        mut row: impl FnMut(&mut Self, &T, Rid, &Record),
    ) {
        if let [item] = items {
            return self.with_object(rid_of(item), |ex, obj| row(ex, item, obj.rid(), obj));
        }
        let mut rids = self.take_rid_batch();
        rids.extend(items.iter().map(rid_of));
        self.with_batch(&rids, |ex, objs| {
            for (i, item) in items.iter().enumerate() {
                let (rid, record) = objs.get(i);
                row(ex, item, rid, record);
            }
        });
        self.put_rid_batch(rids);
    }

    /// Closes the trace. Anything charged outside every scope surfaces
    /// as an `Other` row (it should be zero; the invariant test counts
    /// it either way).
    pub fn finish(mut self) -> ExecTrace {
        debug_assert!(self.open.is_empty(), "finish with open operator scopes");
        let tail = self.take_delta();
        self.unattributed.add(&tail);
        let mut trace = ExecTrace::default();
        flatten(&self.nodes, None, 0, &mut trace.ops);
        if !self.unattributed.is_zero() {
            trace.push_root(OpKind::Other, "unattributed", self.unattributed);
        }
        trace
    }
}

fn flatten(nodes: &[Node], parent: Option<usize>, depth: u32, out: &mut Vec<OpRecord>) {
    for (i, n) in nodes.iter().enumerate() {
        if n.parent == parent {
            out.push(OpRecord {
                kind: n.kind,
                label: n.label.clone(),
                depth,
                counters: n.counters,
            });
            flatten(nodes, Some(i), depth + 1, out);
        }
    }
}

/// Integer attribute accessor — keys and projections are Int by
/// construction in the paper's Derby schemas. The one shared copy
/// (selections and joins used to carry private duplicates).
pub fn int_attr(obj: &Record, attr: usize) -> i64 {
    obj.int(attr)
        .expect("key/projection attributes must be Int") as i64
}

/// `IndexRangeScan`: drains `(key, rid)` pairs for keys `< hi_exclusive`
/// from the index, optionally rid-sorting them (charging the sort
/// compares) so the subsequent fetches run in physical order — the
/// §4.3 sorted-scan lesson applied inside the joins.
pub fn index_range_scan(
    ctx: &mut ExecContext<'_>,
    index: &BTreeIndex,
    hi_exclusive: i64,
    sort: bool,
    label: &str,
) -> Vec<(i64, Rid)> {
    ctx.op(OpKind::IndexRangeScan, label, |ctx| {
        let mut cursor = index.range(ctx.store.stack_mut(), i64::MIN + 1, hi_exclusive - 1);
        let mut out: Vec<(i64, Rid)> = Vec::new();
        while let Some(pair) = cursor.next(ctx.store.stack_mut()) {
            out.push(pair);
        }
        if sort && out.len() > 1 {
            let n = out.len() as f64;
            ctx.store
                .charge(CpuEvent::SortCompare, (n * n.log2()).ceil() as u64);
            out.sort_unstable_by_key(|&(_, rid)| rid);
        }
        out
    })
}

/// `Emit` charge for one result tuple under the spec's result mode.
pub fn charge_result_append(store: &mut ObjectStore, mode: ResultMode) {
    store.charge(
        match mode {
            ResultMode::Persistent => CpuEvent::ResultAppendPersistent,
            ResultMode::Transient => CpuEvent::ResultAppendTransient,
        },
        1,
    );
}

/// The operator pipeline a join algorithm runs, in execution order —
/// the *specs* the estimator costs and the executor traces share. Kept
/// next to the executor so the two cannot drift; the estimator's
/// per-operator breakdown uses exactly these kinds, and a test pins
/// each algorithm's measured trace to this vocabulary.
pub fn join_pipeline(algo: crate::spec::JoinAlgo, spec: &TreeJoinSpec) -> Vec<(OpKind, String)> {
    use crate::spec::JoinAlgo;
    let parents = spec.parents.clone();
    let children = spec.children.clone();
    match algo {
        JoinAlgo::Nl => vec![
            (OpKind::IndexRangeScan, parents),
            (OpKind::SetNav, children),
            (OpKind::Emit, "result".to_string()),
        ],
        JoinAlgo::Nojoin => vec![
            (OpKind::IndexRangeScan, children),
            (OpKind::BackRefNav, parents),
            (OpKind::Emit, "result".to_string()),
        ],
        JoinAlgo::Phj => vec![
            (OpKind::IndexRangeScan, parents.clone()),
            (OpKind::HashBuild, parents),
            (OpKind::IndexRangeScan, children.clone()),
            (OpKind::HashProbe, children),
            (OpKind::Emit, "result".to_string()),
        ],
        JoinAlgo::Chj => vec![
            (OpKind::IndexRangeScan, children.clone()),
            (OpKind::HashBuild, children),
            (OpKind::IndexRangeScan, parents.clone()),
            (OpKind::HashProbe, parents),
            (OpKind::Emit, "result".to_string()),
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tq_objstore::{AttrType, Schema, Value};
    use tq_pagestore::{CacheConfig, CostModel, StorageStack};

    fn small_store(n: i64) -> (ObjectStore, Vec<Rid>) {
        let mut schema = Schema::new();
        let item = schema.add_class("Item", vec![("key", AttrType::Int)]);
        let stack = StorageStack::new(CostModel::sparc20(), CacheConfig::default());
        let mut store = ObjectStore::new(schema, stack);
        let file = store.create_file("items");
        let rids: Vec<Rid> = (0..n)
            .map(|i| store.insert(file, item, &[Value::Int(i as i32)], true))
            .collect();
        store.cold_restart();
        store.reset_metrics();
        (store, rids)
    }

    #[test]
    fn each_store_carries_its_own_batch_size() {
        let (mut a, _) = small_store(1);
        let (mut b, _) = small_store(1);
        assert_eq!(a.batch_size(), DEFAULT_BATCH_SIZE);
        a.set_batch_size(7);
        b.set_batch_size(0);
        assert_eq!(ExecContext::new(&mut a).batch_size(), 7);
        assert_eq!(ExecContext::new(&mut b).batch_size(), 1, "clamped to 1");
        let mut clone = a.clone();
        assert_eq!(ExecContext::new(&mut clone).batch_size(), 7);
    }

    #[test]
    fn deltas_attribute_to_the_innermost_scope() {
        let (mut store, rids) = small_store(10);
        let mut ctx = ExecContext::new(&mut store);
        ctx.op(OpKind::SeqScan, "Items", |ctx| {
            for &rid in &rids[..4] {
                ctx.with_object(rid, |_ctx, g| assert!(!g.is_deleted()));
            }
            ctx.op(OpKind::Emit, "result", |ctx| {
                ctx.store.charge(CpuEvent::ResultAppendTransient, 1);
            });
        });
        let trace = ctx.finish();
        let scan = trace.find(OpKind::SeqScan).unwrap();
        let emit = trace.find(OpKind::Emit).unwrap();
        assert_eq!(scan.counters.handle_allocations, 4);
        assert_eq!(scan.counters.handle_unrefs, 4);
        assert_eq!(emit.counters.handle_allocations, 0, "emit fetched nothing");
        assert_eq!(emit.counters.cpu_events, 1);
        assert_eq!(emit.depth, 1, "emit nests under the scan");
        assert!(trace.find(OpKind::Other).is_none(), "everything attributed");
    }

    #[test]
    fn repeated_scopes_merge_into_one_node() {
        let (mut store, rids) = small_store(6);
        let mut ctx = ExecContext::new(&mut store);
        for &rid in &rids {
            ctx.op(OpKind::SetNav, "children", |ctx| {
                ctx.with_object(rid, |_ctx, _g| ());
            });
        }
        let trace = ctx.finish();
        let navs: Vec<_> = trace
            .ops
            .iter()
            .filter(|o| o.kind == OpKind::SetNav)
            .collect();
        assert_eq!(navs.len(), 1, "per-tuple scopes share one node");
        assert_eq!(navs[0].counters.handle_gets(), 6);
    }

    #[test]
    fn trace_total_equals_window_delta_exactly() {
        let (mut store, rids) = small_store(50);
        let before = OpCounters::snapshot(&store);
        let mut ctx = ExecContext::new(&mut store);
        ctx.op(OpKind::SeqScan, "Items", |ctx| {
            for &rid in &rids {
                ctx.with_object(rid, |ctx, g| {
                    let _ = int_attr(g, 0);
                    ctx.store.charge(CpuEvent::AttrGet, 1);
                });
            }
        });
        // Charge something *outside* every scope: it must surface as
        // Other, keeping the sum exact.
        ctx.store.charge(CpuEvent::Compare, 3);
        let trace = ctx.finish();
        let after = OpCounters::snapshot(&store);
        assert_eq!(trace.total(), after.delta_since(&before));
        assert_eq!(trace.find(OpKind::Other).unwrap().counters.cpu_events, 3);
    }

    #[test]
    fn deadline_cancellation_unwinds_with_payload() {
        let (mut store, rids) = small_store(50);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut ctx = ExecContext::new(&mut store);
            // 1 ns of simulated budget: the first charged page access
            // blows it, and the next boundary check fires.
            ctx.set_cancel(CancelToken::with_deadline_nanos(1));
            ctx.op(OpKind::SeqScan, "Items", |ctx| {
                for &rid in &rids {
                    ctx.with_object(rid, |_ctx, _g| ());
                }
            });
            ctx.finish()
        }));
        let payload = result.expect_err("deadline must cancel the scan");
        let cancelled = payload
            .downcast_ref::<Cancelled>()
            .expect("payload is exec::Cancelled");
        assert_eq!(
            cancelled.reason,
            CancelReason::Deadline { deadline_nanos: 1 }
        );
        assert!(cancelled.elapsed_nanos > 1);
    }

    #[test]
    fn external_cancellation_fires_at_the_next_boundary() {
        let (mut store, rids) = small_store(4);
        let token = CancelToken::new();
        let remote = token.clone();
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut ctx = ExecContext::new(&mut store);
            ctx.set_cancel(token);
            ctx.op(OpKind::SeqScan, "Items", |ctx| {
                for (i, &rid) in rids.iter().enumerate() {
                    if i == 2 {
                        remote.cancel(); // what another thread would do
                    }
                    ctx.with_object(rid, |_ctx, _g| ());
                }
            });
        }));
        let payload = result.expect_err("cancel() must stop the scan");
        let cancelled = payload.downcast_ref::<Cancelled>().unwrap();
        assert_eq!(cancelled.reason, CancelReason::External);
    }

    #[test]
    fn unarmed_context_charges_and_attributes_identically() {
        // The same scan, with and without an (unfired) token: traces
        // must be bitwise identical — cancellation support costs the
        // figure harness nothing.
        let run = |arm: bool| {
            let (mut store, rids) = small_store(30);
            let mut ctx = ExecContext::new(&mut store);
            if arm {
                ctx.set_cancel(CancelToken::with_deadline_nanos(u64::MAX));
            }
            ctx.op(OpKind::SeqScan, "Items", |ctx| {
                for &rid in &rids {
                    ctx.with_object(rid, |ctx, g| {
                        let _ = int_attr(g, 0);
                        ctx.store.charge(CpuEvent::AttrGet, 1);
                    });
                }
            });
            ctx.finish()
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn find_all_sees_rows_that_find_shadows() {
        let (mut store, rids) = small_store(8);
        let mut ctx = ExecContext::new(&mut store);
        // Two same-kind scopes with different labels — two rows, the
        // shape hybrid hashing produces (HashBuild on the collection,
        // HashBuild on "spill").
        ctx.op(OpKind::HashBuild, "Items", |ctx| {
            for &rid in &rids[..5] {
                ctx.with_object(rid, |_ctx, _g| ());
            }
        });
        ctx.op(OpKind::HashBuild, "spill", |ctx| {
            for &rid in &rids[5..] {
                ctx.with_object(rid, |_ctx, _g| ());
            }
        });
        let trace = ctx.finish();
        let rows = trace.find_all(OpKind::HashBuild);
        assert_eq!(rows.len(), 2, "one row per (parent, kind, label)");
        // `find` silently reports just the first row; the kind's true
        // total needs both.
        assert_eq!(
            trace
                .find(OpKind::HashBuild)
                .unwrap()
                .counters
                .handle_gets(),
            5
        );
        assert_eq!(trace.total_of(OpKind::HashBuild).handle_gets(), 8);
    }

    #[test]
    fn batched_fetch_and_deferred_emit_trace_identically() {
        // The chunk length is an execution detail: fetch_chunk + one
        // flushed Emit scope per chunk must produce the same trace as
        // the per-tuple loop with a nested Emit per result — at a
        // chunk of one (with_object), an odd size with a ragged tail,
        // and a size that divides nothing evenly either.
        let scalar = {
            let (mut store, rids) = small_store(40);
            let mut ctx = ExecContext::new(&mut store);
            ctx.op(OpKind::SeqScan, "Items", |ctx| {
                for &rid in &rids {
                    ctx.with_object(rid, |ctx, g| {
                        let _ = int_attr(g, 0);
                        ctx.store.charge(CpuEvent::Compare, 1);
                        ctx.op(OpKind::Emit, "result", |ctx| {
                            ctx.store.charge(CpuEvent::ResultAppendTransient, 1);
                        });
                    });
                }
            });
            ctx.finish()
        };
        for chunk in [1, 7, 16] {
            let (mut store, rids) = small_store(40);
            let mut ctx = ExecContext::new(&mut store);
            ctx.op(OpKind::SeqScan, "Items", |ctx| {
                for part in rids.chunks(chunk) {
                    let mut pending = 0u64;
                    ctx.fetch_chunk(
                        part,
                        |&rid| rid,
                        |ctx, &asked, rid, record| {
                            assert_eq!(asked, rid, "no forwarders in this store");
                            let _ = int_attr(record, 0);
                            ctx.store.charge(CpuEvent::Compare, 1);
                            pending += 1;
                        },
                    );
                    let emit_parent = ctx.current_node();
                    ctx.op_batch(emit_parent, OpKind::Emit, "result", |ctx| {
                        ctx.store.charge(CpuEvent::ResultAppendTransient, pending);
                    });
                }
            });
            assert_eq!(scalar, ctx.finish(), "chunk {chunk}");
        }
    }

    fn row(kind: OpKind, label: &str, depth: u32, cpu: u64) -> OpRecord {
        OpRecord {
            kind,
            label: label.into(),
            depth,
            counters: OpCounters {
                cpu_events: cpu,
                ..Default::default()
            },
        }
    }

    /// Runs `coordinator` on a fresh context, absorbs `workers` in
    /// order, runs `suffix`, and returns the flattened
    /// `(kind, label, depth, cpu_events)` rows.
    fn absorbed(
        coordinator: &[(OpKind, &str, u64)],
        workers: Vec<Vec<OpRecord>>,
        suffix: &[(OpKind, &str, u64)],
    ) -> Vec<(OpKind, String, u32, u64)> {
        let (mut store, _) = small_store(1);
        let mut ctx = ExecContext::new(&mut store);
        let charge = |ctx: &mut ExecContext<'_>, scopes: &[(OpKind, &str, u64)]| {
            for &(kind, label, cpu) in scopes {
                ctx.op(kind, label, |ctx| ctx.store.charge(CpuEvent::Compare, cpu));
            }
        };
        charge(&mut ctx, coordinator);
        for ops in workers {
            ctx.absorb(&ExecTrace { ops });
        }
        charge(&mut ctx, suffix);
        ctx.finish()
            .ops
            .into_iter()
            .map(|r| (r.kind, r.label, r.depth, r.counters.cpu_events))
            .collect()
    }

    #[test]
    fn absorb_preserves_serial_shape_and_sums() {
        // Coordinator prefix: the gather rows. Workers: probe rows (one
        // with no emits). Suffix: a teardown re-entering an existing row.
        let shape = absorbed(
            &[
                (OpKind::IndexRangeScan, "Providers", 1),
                (OpKind::HashBuild, "Providers", 2),
                (OpKind::IndexRangeScan, "Patients", 3),
            ],
            vec![
                vec![
                    row(OpKind::HashProbe, "Patients", 0, 10),
                    row(OpKind::Emit, "result", 1, 20),
                ],
                vec![row(OpKind::HashProbe, "Patients", 0, 100)],
            ],
            &[(OpKind::HashBuild, "Providers", 1000)],
        );
        assert_eq!(
            shape,
            vec![
                (OpKind::IndexRangeScan, "Providers".to_string(), 0, 1),
                (OpKind::HashBuild, "Providers".to_string(), 0, 1002),
                (OpKind::IndexRangeScan, "Patients".to_string(), 0, 3),
                (OpKind::HashProbe, "Patients".to_string(), 0, 110),
                (OpKind::Emit, "result".to_string(), 1, 20),
            ]
        );
    }

    #[test]
    fn absorb_hangs_new_rows_under_the_shared_parent() {
        // NL shape: every worker re-opens the IndexRangeScan row the
        // coordinator drained, then hangs SetNav/Emit under it.
        let shape = absorbed(
            &[(OpKind::IndexRangeScan, "Providers", 1)],
            vec![
                vec![
                    row(OpKind::IndexRangeScan, "Providers", 0, 2),
                    row(OpKind::SetNav, "Patients", 1, 3),
                ],
                vec![
                    row(OpKind::IndexRangeScan, "Providers", 0, 4),
                    row(OpKind::SetNav, "Patients", 1, 5),
                    row(OpKind::Emit, "result", 2, 6),
                ],
            ],
            &[],
        );
        let shape: Vec<(OpKind, u64)> = shape.into_iter().map(|(k, _, _, c)| (k, c)).collect();
        assert_eq!(
            shape,
            vec![
                (OpKind::IndexRangeScan, 7),
                (OpKind::SetNav, 8),
                (OpKind::Emit, 6),
            ]
        );
    }

    #[test]
    fn opkind_labels_round_trip() {
        for kind in [
            OpKind::IndexRangeScan,
            OpKind::SeqScan,
            OpKind::SetNav,
            OpKind::BackRefNav,
            OpKind::HashBuild,
            OpKind::HashProbe,
            OpKind::Sort,
            OpKind::Merge,
            OpKind::Residual,
            OpKind::Emit,
            OpKind::Update,
            OpKind::Teardown,
            OpKind::Other,
        ] {
            assert_eq!(OpKind::parse(kind.label()), Some(kind));
        }
        assert_eq!(OpKind::parse("NoSuchOp"), None);
    }
}
