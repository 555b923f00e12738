//! Hybrid hash joins — the optimization the paper names but never
//! tested (§5.1: "We did not consider hybrid hashing — their citation 17 — to optimize
//! this"; conclusion: "the second point indicates the need for hybrid
//! hashing").
//!
//! When the build side outgrows the operator memory budget, the plain
//! PHJ/CHJ tables page catastrophically (the Figure 12 (90,90)
//! inversion). Hybrid hashing partitions both sides by a hash of the
//! join rid so that **every partition's table fits in memory**:
//! partition 0 is built and probed in memory on the fly; partitions
//! `1..P` spill `(key, rid)` pairs to temporary files — sequential,
//! charged I/O — and join pairwise afterwards. No swap faults, ever.
//!
//! The implementation is shared by both hash joins:
//! [`BuildSide::Parents`] gives hybrid-PHJ, [`BuildSide::Children`]
//! hybrid-CHJ. Either way a partition's table — the in-memory one and
//! each spilled one's — is a `RidMultimap` from join rid to the build
//! side's keys, in arrival order: a parent rid holds one key, a parent
//! slot all of its children's.
//!
//! Operator composition: the in-memory partition runs under the same
//! `HashBuild`/`HashProbe` nodes as the plain joins; spilled-partition
//! work (run writes, re-reads, pairwise joins) lands on `"spill"`
//! labelled build/probe nodes, and releasing the spill space is a
//! `Teardown`.

use super::multimap::RidMultimap;
use super::spill::{SpillRun, SpillWriter};
use super::{
    flush_emits, rid_hash, JoinOptions, JoinReport, TreeJoinSpec, CHJ_CHILD_ENTRY_BYTES,
    CHJ_PARENT_SLOT_BYTES, PHJ_ENTRY_BYTES,
};
use crate::exec::{index_range_scan, ExecContext, OpKind};
use tq_index::BTreeIndex;
use tq_objstore::{ObjectStore, Record, Rid};
use tq_pagestore::CpuEvent;

/// Which side the hash table is built on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BuildSide {
    /// Hash the (selected) parents; probe with the children — PHJ.
    Parents,
    /// Hash the (selected) children by their parent; probe with the
    /// parents — CHJ.
    Children,
}

/// Partition of a rid. Uses the high hash bits so it stays independent
/// of any in-memory bucketing of the same hash.
fn partition_of(rid: Rid, partitions: u32) -> u32 {
    if partitions <= 1 {
        0
    } else {
        ((rid_hash(rid) >> 32) % partitions as u64) as u32
    }
}

/// Picks a partition count such that each partition's build table fits
/// comfortably (80%) inside the memory budget.
fn partition_count(table_bytes: u64, budget: u64) -> u32 {
    let usable = (budget as f64 * 0.8).max(1.0);
    (table_bytes as f64 / usable).ceil().max(1.0) as u32
}

struct Spills {
    build: Vec<SpillWriter>,
    probe: Vec<SpillWriter>,
    files: Vec<tq_pagestore::FileId>,
}

fn make_spills(store: &mut ObjectStore, partitions: u32) -> Spills {
    let mut build = Vec::new();
    let mut probe = Vec::new();
    let mut files = Vec::new();
    for p in 1..partitions {
        let bf = store.create_file(format!("spill.build.{p}"));
        let pf = store.create_file(format!("spill.probe.{p}"));
        build.push(SpillWriter::new(bf));
        probe.push(SpillWriter::new(pf));
        files.push(bf);
        files.push(pf);
    }
    Spills {
        build,
        probe,
        files,
    }
}

/// Runs the hybrid hash join.
#[allow(clippy::too_many_arguments)]
pub(super) fn run(
    ex: &mut ExecContext<'_>,
    parent_index: &BTreeIndex,
    child_index: &BTreeIndex,
    spec: &TreeJoinSpec,
    opts: &JoinOptions,
    side: BuildSide,
    report: &mut JoinReport,
) {
    let parent_class = ex.store.collection(&spec.parents).class;
    let child_class = ex.store.collection(&spec.children).class;
    let budget = ex.store.stack().model().operator_memory_budget;
    let (build_label, probe_label, probe_side) = match side {
        BuildSide::Parents => (&spec.parents, &spec.children, BuildSide::Children),
        BuildSide::Children => (&spec.children, &spec.parents, BuildSide::Parents),
    };
    let scan_parents = |ex: &mut ExecContext<'_>, label: &str| {
        let (limit, sort) = (spec.parent_key_limit, opts.sort_index_rids);
        index_range_scan(ex, parent_index, limit, sort, label)
    };
    let scan_children = |ex: &mut ExecContext<'_>, label: &str| {
        let (limit, sort) = (spec.child_key_limit, opts.sort_index_rids);
        index_range_scan(ex, child_index, limit, sort, label)
    };
    // Accounts for one fetched object of `fetched_side` — counted, then
    // charged for the attributes that travel with it unless deleted —
    // and names the parent rid it joins on (`None`: deleted).
    let join_rid_of = |ex: &mut ExecContext<'_>,
                       fetched_side: BuildSide,
                       rid: Rid,
                       fetched: &Record,
                       report: &mut JoinReport| {
        match fetched_side {
            BuildSide::Parents => {
                report.parents_scanned += 1;
                if fetched.is_deleted() {
                    return None;
                }
                ex.store
                    .charge_attr_access(parent_class, spec.parent_project);
                Some(rid)
            }
            BuildSide::Children => {
                report.children_scanned += 1;
                if fetched.is_deleted() {
                    return None;
                }
                ex.store.charge_attr_access(child_class, spec.child_parent);
                ex.store.charge_attr_access(child_class, spec.child_project);
                Some(
                    fetched
                        .ref_rid(spec.child_parent)
                        .expect("child parent reference"),
                )
            }
        }
    };
    // A `(payload, key)` match as a `(parent_key, child_key)` pair.
    let pair = |payload: i64, key: i64| match side {
        BuildSide::Parents => (payload, key),
        BuildSide::Children => (key, payload),
    };

    // --- Build phase -------------------------------------------------
    // Gather the build side's (key, rid) stream and size the partitions
    // from its exact cardinality.
    let build_pairs = match side {
        BuildSide::Parents => scan_parents(ex, build_label),
        BuildSide::Children => scan_children(ex, build_label),
    };
    let table_bytes = match side {
        BuildSide::Parents => PHJ_ENTRY_BYTES * build_pairs.len() as u64,
        // Pessimistic: every child could touch a distinct parent slot.
        BuildSide::Children => {
            (CHJ_PARENT_SLOT_BYTES + CHJ_CHILD_ENTRY_BYTES) * build_pairs.len() as u64
        }
    };
    let partitions = partition_count(table_bytes, budget);
    report.partitions = partitions;

    // Sequence identity: when partitions spill, any row may write a
    // spill page between object fetches — that interleave of writes and
    // reads is the algorithm's measured cache behaviour, so objects are
    // fetched one at a time. Only a spill-free run (partition 0 holds
    // everything) is a pure gather-then-fetch stream, on both sides.
    let batch = ex.batch_size();
    let chunk = if partitions > 1 { 1 } else { batch };

    // The in-memory (partition 0) table: join-rid -> payload keys.
    let mut mem = RidMultimap::default();
    let mut spills = ex.op(OpKind::HashBuild, build_label, |ex| {
        let mut spills = make_spills(ex.store, partitions);
        for part in build_pairs.chunks(chunk) {
            // Fetch the build object (its projected attribute travels
            // with the entry, as in the plain algorithms).
            ex.fetch_chunk(
                part,
                |&(_, rid)| rid,
                |ex, &(key, _), rid, fetched| {
                    let Some(join_rid) = join_rid_of(ex, side, rid, fetched, report) else {
                        return;
                    };
                    let p = partition_of(join_rid, partitions);
                    ex.store.charge(CpuEvent::HashInsert, 1);
                    if p == 0 {
                        mem.push(join_rid, key);
                    } else {
                        spills.build[p as usize - 1].push(ex.store.stack_mut(), key, join_rid);
                    }
                },
            );
        }
        spills
    });

    // --- Probe phase (streaming) --------------------------------------
    let probe_pairs = match side {
        BuildSide::Parents => scan_children(ex, probe_label),
        BuildSide::Children => scan_parents(ex, probe_label),
    };
    ex.op(OpKind::HashProbe, probe_label, |ex| {
        let mut pending = ex.take_val_batch();
        for part in probe_pairs.chunks(chunk) {
            ex.fetch_chunk(
                part,
                |&(_, rid)| rid,
                |ex, &(key, _), rid, fetched| {
                    let Some(join_rid) = join_rid_of(ex, probe_side, rid, fetched, report) else {
                        return;
                    };
                    let p = partition_of(join_rid, partitions);
                    if p == 0 {
                        ex.store.charge(CpuEvent::HashProbe, 1);
                        let payloads = mem.get(&join_rid);
                        pending.extend(payloads.map(|payload| pair(payload, key)));
                    } else {
                        spills.probe[p as usize - 1].push(ex.store.stack_mut(), key, join_rid);
                    }
                },
            );
            if pending.len() >= batch {
                let at = ex.current_node();
                flush_emits(ex, at, &mut pending, &[], spec, report);
            }
        }
        let at = ex.current_node();
        flush_emits(ex, at, &mut pending, &[], spec, report);
        ex.put_val_batch(pending);
    });
    report.hash_table_bytes = table_bytes.min(budget);
    drop(mem);

    // --- Spilled partitions, pairwise ----------------------------------
    let build_runs: Vec<SpillRun> = ex.op(OpKind::HashBuild, "spill", |ex| {
        spills
            .build
            .drain(..)
            .map(|w| w.finish(ex.store.stack_mut()))
            .collect()
    });
    let probe_runs: Vec<SpillRun> = ex.op(OpKind::HashProbe, "spill", |ex| {
        spills
            .probe
            .drain(..)
            .map(|w| w.finish(ex.store.stack_mut()))
            .collect()
    });
    for (build_run, probe_run) in build_runs.iter().zip(&probe_runs) {
        report.spill_pages += (build_run.pages + probe_run.pages) as u64;
        let mut table = RidMultimap::default();
        ex.op(OpKind::HashBuild, "spill", |ex| {
            for (key, join_rid) in build_run.read_all(ex.store.stack_mut()) {
                ex.store.charge(CpuEvent::HashInsert, 1);
                table.push(join_rid, key);
            }
        });
        ex.op(OpKind::HashProbe, "spill", |ex| {
            let mut pending = ex.take_val_batch();
            for (key, join_rid) in probe_run.read_all(ex.store.stack_mut()) {
                ex.store.charge(CpuEvent::HashProbe, 1);
                let payloads = table.get(&join_rid);
                pending.extend(payloads.map(|payload| pair(payload, key)));
                if pending.len() >= batch {
                    let at = ex.current_node();
                    flush_emits(ex, at, &mut pending, &[], spec, report);
                }
            }
            let at = ex.current_node();
            flush_emits(ex, at, &mut pending, &[], spec, report);
            ex.put_val_batch(pending);
        });
    }

    // Release the spill space.
    ex.op(OpKind::Teardown, "spill", |ex| {
        for f in spills.files {
            ex.store.stack_mut().truncate_file(f);
        }
    });
}
