//! The four §5.1 join algorithms over a 1-N tree.
//!
//! All four evaluate
//!
//! ```text
//! select [p.<parent_project>, pa.<child_project>]
//! from p in <parents>, pa in p.<children set>
//! where pa.<child_key> < k1 and p.<parent_key> < k2
//! ```
//!
//! * [`nl`] — **parent-to-child navigation**: index on parents only;
//!   children reached through the set attribute (random I/O unless
//!   composition-clustered).
//! * [`nojoin`] — **child-to-parent navigation**: index on children
//!   only; parents reached through the back reference, tested up to
//!   fan-out times ("the join is hidden within the navigation
//!   pattern").
//! * [`phj`] — **hash the parents and join**: both indexes, both
//!   collections accessed sequentially; table of 64 bytes per selected
//!   parent (paper Figure 10).
//! * [`chj`] — **hash the children and join**: the sequential-outer
//!   variant of the Shekita–Carey pointer join; table of 60 bytes per
//!   parent slot plus 8 per selected child (Figure 10).
//!
//! Hash tables larger than the operator memory budget page against the
//! [`SwapSim`](crate::swap::SwapSim) — the Figure 12 inversion where
//! navigation wins back at 90/90 selectivity on the 1:3 database.

pub mod chain;
mod chj;
pub mod hybrid;
mod multimap;
mod nl;
mod nojoin;
pub mod parallel;
mod phj;
pub mod smj;
pub mod spill;

pub use chain::{run_chain, ChainReport};

use crate::exec::{charge_result_append, CancelToken, ExecContext, ExecTrace, OpKind, ValueBatch};
use crate::spec::{HashKeyMode, JoinAlgo, TreeJoinSpec};
use tq_index::BTreeIndex;
use tq_objstore::{AttrId, ClassId, ObjectStore, Rid};

/// Bytes per PHJ hash-table entry: `(providerid, provider information)`
/// — calibrated so table sizes reproduce the paper's Figure 10 exactly.
pub const PHJ_ENTRY_BYTES: u64 = 64;
/// Bytes per CHJ parent slot (the table is directory-organized by
/// parent, sized for the parent cardinality) — Figure 10.
pub const CHJ_PARENT_SLOT_BYTES: u64 = 60;
/// Bytes per CHJ child entry — Figure 10.
pub const CHJ_CHILD_ENTRY_BYTES: u64 = 8;
/// Extra bytes per entry when hashing Handles instead of Rids (§4.1).
pub const HANDLE_ENTRY_EXTRA_BYTES: u64 = 60;

/// Options common to all join runs.
#[derive(Clone, Copy, Debug)]
pub struct JoinOptions {
    /// Hash tables keyed on rids (cheap) or handles (§4.1's costly
    /// alternative).
    pub hash_key: HashKeyMode,
    /// Sort index-returned rids before fetching, so large collections
    /// are "always accessed sequentially" (§5.1) regardless of index
    /// clustering — the §4.3 sorted-scan lesson applied inside the
    /// joins. Applies to the scan sides of NOJOIN/PHJ/CHJ; NL's child
    /// accesses are navigational and cannot be sorted.
    pub sort_index_rids: bool,
    /// Use hybrid hashing for PHJ/CHJ: partition both sides so every
    /// partition's table fits in memory (§5.1's untested "need for
    /// hybrid hashing"). Off by default — the paper measured the
    /// non-hybrid algorithms.
    pub hybrid_hashing: bool,
}

impl Default for JoinOptions {
    fn default() -> Self {
        Self {
            hash_key: HashKeyMode::Rid,
            sort_index_rids: true,
            hybrid_hashing: false,
        }
    }
}

/// What a join did. Clock and I/O counters live in the store; measure
/// around the call.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct JoinReport {
    /// Result tuples produced.
    pub results: u64,
    /// Parent objects fetched.
    pub parents_scanned: u64,
    /// Child objects fetched.
    pub children_scanned: u64,
    /// Final operator hash-table size in bytes (0 for navigation).
    pub hash_table_bytes: u64,
    /// Swap faults the table incurred (always 0 under hybrid hashing).
    pub swap_faults: u64,
    /// Partitions used (hybrid hashing; 0 when not hybrid).
    pub partitions: u32,
    /// Spill pages written+read by hybrid hashing.
    pub spill_pages: u64,
    /// `(parent_key, child_key)` pairs, when collection was requested
    /// (tests only — paper-scale runs stream).
    pub pairs: Option<Vec<(i64, i64)>>,
    /// Per-operator counter attribution (sums exactly to the counter
    /// deltas of the join's execution window).
    pub trace: ExecTrace,
}

/// Everything a join algorithm needs.
pub struct JoinContext<'a> {
    /// The object store.
    pub store: &'a mut ObjectStore,
    /// Clustered index on the parent key (`upin`).
    pub parent_index: &'a BTreeIndex,
    /// Clustered index on the child key (`mrn`).
    pub child_index: &'a BTreeIndex,
}

/// Runs the chosen algorithm. Every algorithm runs through an
/// [`ExecContext`] built over the store: object accesses are
/// guard-paired (no manual `fetch`/`release`) and every counter delta
/// lands in the [`JoinReport::trace`] operator breakdown.
pub fn run_join(
    algo: JoinAlgo,
    ctx: &mut JoinContext<'_>,
    spec: &TreeJoinSpec,
    opts: &JoinOptions,
    collect: bool,
) -> JoinReport {
    run_join_with(algo, ctx, spec, opts, collect, None)
}

/// [`run_join`] with cooperative cancellation: when `cancel` is set,
/// operator boundaries check the token and abandon the pipeline by
/// unwinding with a [`Cancelled`](crate::exec::Cancelled) payload
/// (catch it with `std::panic::catch_unwind`; the store is then in an
/// undefined cache/handle state and must be discarded). With `None`
/// this is exactly `run_join` — no check, no charge, no drift.
///
/// This is [`parallel::run_join_parallel`] at degree 1: the same
/// algorithm code, its morsels run inline on the one context.
pub fn run_join_with(
    algo: JoinAlgo,
    ctx: &mut JoinContext<'_>,
    spec: &TreeJoinSpec,
    opts: &JoinOptions,
    collect: bool,
    cancel: Option<CancelToken>,
) -> JoinReport {
    match parallel::run_join_parallel(algo, ctx, spec, opts, collect, cancel, 1) {
        Ok(run) => run.report,
        Err(p) => unreachable!("degree 1 spawns no workers, yet: {p}"),
    }
}

/// The paper's Figure 10 hash-table size *approximation*, in bytes.
///
/// `parents_total` is the parent-extent cardinality, `selected_parents`
/// / `selected_children` the predicate survivors. Note the CHJ
/// directory is sized pessimistically by the full parent cardinality,
/// exactly as the paper approximates it; the executor demand-allocates
/// parent slots and reports the (smaller) actual size in
/// [`JoinReport::hash_table_bytes`].
pub fn hash_table_bytes(
    algo: JoinAlgo,
    parents_total: u64,
    selected_parents: u64,
    selected_children: u64,
) -> u64 {
    match algo {
        JoinAlgo::Phj => PHJ_ENTRY_BYTES * selected_parents,
        JoinAlgo::Chj => {
            CHJ_PARENT_SLOT_BYTES * parents_total + CHJ_CHILD_ENTRY_BYTES * selected_children
        }
        JoinAlgo::Nl | JoinAlgo::Nojoin => 0,
    }
}

/// Hash a rid for table-page placement.
pub(crate) fn rid_hash(rid: Rid) -> u64 {
    let x = ((rid.page.file.0 as u64) << 48) ^ ((rid.page.page_no as u64) << 16) ^ rid.slot as u64;
    // splitmix64 finalizer.
    let mut z = x.wrapping_add(0x9E3779B97F4A7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

/// Flushes a batch of deferred result emissions under one `Emit` scope
/// rooted at `emit_parent` (the operator that matched the pairs —
/// capture it with [`ExecContext::current_node`] inside that scope).
/// Per pair: `attr_charges` attribute accesses, then the result append.
/// No-op on an empty batch, so no spurious `Emit` node appears for
/// joins that matched nothing.
pub(crate) fn flush_emits(
    ex: &mut ExecContext<'_>,
    emit_parent: Option<usize>,
    pending: &mut ValueBatch,
    attr_charges: &[(ClassId, AttrId)],
    spec: &TreeJoinSpec,
    report: &mut JoinReport,
) {
    if pending.is_empty() {
        return;
    }
    ex.op_batch(emit_parent, OpKind::Emit, "result", |ex| {
        for _ in 0..pending.len() {
            for &(class, attr) in attr_charges {
                ex.store.charge_attr_access(class, attr);
            }
            charge_result_append(ex.store, spec.result_mode);
        }
    });
    report.results += pending.len() as u64;
    if let Some(pairs) = &mut report.pairs {
        pairs.extend_from_slice(pending);
    }
    pending.clear();
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Figure 10, all eight rows, to the megabyte.
    #[test]
    fn figure_10_hash_table_sizes() {
        let mb = |b: u64| b as f64 / 1e6; // the paper's "MB"
                                          // PHJ, 2000 providers, 1:1000.
        assert!((mb(hash_table_bytes(JoinAlgo::Phj, 2_000, 200, 0)) - 0.0128).abs() < 1e-4);
        assert!((mb(hash_table_bytes(JoinAlgo::Phj, 2_000, 1_800, 0)) - 0.1152).abs() < 1e-4);
        // PHJ, 10^6 providers, 1:3.
        assert!((mb(hash_table_bytes(JoinAlgo::Phj, 1_000_000, 100_000, 0)) - 6.4).abs() < 0.01);
        assert!((mb(hash_table_bytes(JoinAlgo::Phj, 1_000_000, 900_000, 0)) - 57.6).abs() < 0.01);
        // CHJ, 2000 providers, 1:1000 (2M patients).
        assert!((mb(hash_table_bytes(JoinAlgo::Chj, 2_000, 0, 200_000)) - 1.72).abs() < 0.01);
        assert!((mb(hash_table_bytes(JoinAlgo::Chj, 2_000, 0, 1_800_000)) - 14.52).abs() < 0.01);
        // CHJ, 10^6 providers, 1:3 (3M patients).
        assert!((mb(hash_table_bytes(JoinAlgo::Chj, 1_000_000, 0, 300_000)) - 62.4).abs() < 0.01);
        assert!((mb(hash_table_bytes(JoinAlgo::Chj, 1_000_000, 0, 2_700_000)) - 81.6).abs() < 0.01);
        // Navigation needs no table.
        assert_eq!(hash_table_bytes(JoinAlgo::Nl, 1, 1, 1), 0);
        assert_eq!(hash_table_bytes(JoinAlgo::Nojoin, 1, 1, 1), 0);
    }

    #[test]
    fn rid_hash_spreads() {
        use tq_pagestore::{FileId, PageId};
        let mut buckets = [0u32; 16];
        for p in 0..1000u32 {
            for s in 0..4u16 {
                let r = Rid::new(
                    PageId {
                        file: FileId(1),
                        page_no: p,
                    },
                    s,
                );
                buckets[(rid_hash(r) % 16) as usize] += 1;
            }
        }
        // Roughly uniform: every bucket within 2x of the mean.
        let mean = 4000 / 16;
        for (i, &b) in buckets.iter().enumerate() {
            assert!(
                b > mean / 2 && b < mean * 2,
                "bucket {i} holds {b}, mean {mean}"
            );
        }
    }
}
