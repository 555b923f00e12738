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
//! hybrid-CHJ.
//!
//! Operator composition: the in-memory partition runs under the same
//! `HashBuild`/`HashProbe` nodes as the plain joins; spilled-partition
//! work (run writes, re-reads, pairwise joins) lands on `"spill"`
//! labelled build/probe nodes, and releasing the spill space is a
//! `Teardown`.

use super::spill::{SpillRun, SpillWriter};
use super::{
    emit, flush_emits, rid_hash, JoinOptions, JoinReport, TreeJoinSpec, CHJ_CHILD_ENTRY_BYTES,
    CHJ_PARENT_SLOT_BYTES, PHJ_ENTRY_BYTES,
};
use crate::exec::{index_range_scan, ExecContext, OpKind};
use tq_fasthash::FxHashMap;
use tq_index::BTreeIndex;
use tq_objstore::{ObjectStore, Rid};
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
    collect: bool,
) -> JoinReport {
    let mut report = JoinReport {
        pairs: collect.then(Vec::new),
        ..Default::default()
    };
    let parent_class = ex.store.collection(&spec.parents).class;
    let child_class = ex.store.collection(&spec.children).class;
    let budget = ex.store.stack().model().operator_memory_budget;
    let (build_label, probe_label) = match side {
        BuildSide::Parents => (&spec.parents, &spec.children),
        BuildSide::Children => (&spec.children, &spec.parents),
    };

    // --- Build phase -------------------------------------------------
    // Gather the build side's (key, rid) stream and size the partitions
    // from its exact cardinality.
    let build_pairs = match side {
        BuildSide::Parents => index_range_scan(
            ex,
            parent_index,
            spec.parent_key_limit,
            opts.sort_index_rids,
            build_label,
        ),
        BuildSide::Children => index_range_scan(
            ex,
            child_index,
            spec.child_key_limit,
            opts.sort_index_rids,
            build_label,
        ),
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

    // The in-memory (partition 0) table: join-rid -> payload keys.
    let batch = ex.batch_size();
    let mut mem: FxHashMap<Rid, Vec<i64>> = FxHashMap::default();
    let mut spills = ex.op(OpKind::HashBuild, build_label, |ex| {
        let mut spills = make_spills(ex.store, partitions);
        // Sequence identity: when partitions spill, every row may write
        // a spill page between object fetches — that interleave of
        // writes and reads is the algorithm's measured cache behaviour,
        // so the fetch loop stays scalar. Only a spill-free build
        // (partition 0 holds everything) is a pure gather-then-fetch
        // stream that batching cannot perturb.
        if batch <= 1 || partitions > 1 {
            for &(key, rid) in &build_pairs {
                // Fetch the build object (its projected attribute travels
                // with the entry, as in the plain algorithms).
                ex.with_object(rid, |ex, fetched| {
                    if fetched.is_deleted() {
                        return;
                    }
                    match side {
                        BuildSide::Parents => {
                            report.parents_scanned += 1;
                            ex.store
                                .charge_attr_access(parent_class, spec.parent_project);
                            let p = partition_of(fetched.rid(), partitions);
                            ex.store.charge(CpuEvent::HashInsert, 1);
                            if p == 0 {
                                mem.entry(fetched.rid()).or_default().push(key);
                            } else {
                                spills.build[p as usize - 1].push(
                                    ex.store.stack_mut(),
                                    key,
                                    fetched.rid(),
                                );
                            }
                        }
                        BuildSide::Children => {
                            report.children_scanned += 1;
                            ex.store.charge_attr_access(child_class, spec.child_parent);
                            ex.store.charge_attr_access(child_class, spec.child_project);
                            let prid = fetched
                                .ref_rid(spec.child_parent)
                                .expect("child parent reference");
                            let p = partition_of(prid, partitions);
                            ex.store.charge(CpuEvent::HashInsert, 1);
                            if p == 0 {
                                mem.entry(prid).or_default().push(key);
                            } else {
                                spills.build[p as usize - 1].push(ex.store.stack_mut(), key, prid);
                            }
                        }
                    }
                });
            }
        } else {
            let mut rids = ex.take_rid_batch();
            for chunk in build_pairs.chunks(batch) {
                rids.clear();
                rids.extend(chunk.iter().map(|&(_, r)| r));
                ex.with_batch(&rids, |ex, objs| {
                    for (i, &(key, _)) in chunk.iter().enumerate() {
                        let (rid, fetched) = objs.get(i);
                        if fetched.is_deleted() {
                            continue;
                        }
                        match side {
                            BuildSide::Parents => {
                                report.parents_scanned += 1;
                                ex.store
                                    .charge_attr_access(parent_class, spec.parent_project);
                                let p = partition_of(rid, partitions);
                                ex.store.charge(CpuEvent::HashInsert, 1);
                                if p == 0 {
                                    mem.entry(rid).or_default().push(key);
                                } else {
                                    spills.build[p as usize - 1].push(
                                        ex.store.stack_mut(),
                                        key,
                                        rid,
                                    );
                                }
                            }
                            BuildSide::Children => {
                                report.children_scanned += 1;
                                ex.store.charge_attr_access(child_class, spec.child_parent);
                                ex.store.charge_attr_access(child_class, spec.child_project);
                                let prid = fetched
                                    .ref_rid(spec.child_parent)
                                    .expect("child parent reference");
                                let p = partition_of(prid, partitions);
                                ex.store.charge(CpuEvent::HashInsert, 1);
                                if p == 0 {
                                    mem.entry(prid).or_default().push(key);
                                } else {
                                    spills.build[p as usize - 1].push(
                                        ex.store.stack_mut(),
                                        key,
                                        prid,
                                    );
                                }
                            }
                        }
                    }
                });
            }
            ex.put_rid_batch(rids);
        }
        spills
    });

    // --- Probe phase (streaming) --------------------------------------
    let probe_pairs = match side {
        BuildSide::Parents => index_range_scan(
            ex,
            child_index,
            spec.child_key_limit,
            opts.sort_index_rids,
            probe_label,
        ),
        BuildSide::Children => index_range_scan(
            ex,
            parent_index,
            spec.parent_key_limit,
            opts.sort_index_rids,
            probe_label,
        ),
    };
    ex.op(OpKind::HashProbe, probe_label, |ex| {
        if batch > 1 && partitions > 1 {
            // Spilling probe: rows interleave spill-page writes with
            // object fetches, so the fetch loop stays in scalar order
            // (same doctrine as the build). The emits are page-pure —
            // deferring them through `flush_emits` is the only batching
            // this phase admits.
            let mut pending = ex.take_val_batch();
            for &(key, rid) in &probe_pairs {
                ex.with_object(rid, |ex, fetched| {
                    if fetched.is_deleted() {
                        return;
                    }
                    let join_rid = match side {
                        BuildSide::Parents => {
                            report.children_scanned += 1;
                            ex.store.charge_attr_access(child_class, spec.child_parent);
                            ex.store.charge_attr_access(child_class, spec.child_project);
                            fetched
                                .ref_rid(spec.child_parent)
                                .expect("child parent reference")
                        }
                        BuildSide::Children => {
                            report.parents_scanned += 1;
                            ex.store
                                .charge_attr_access(parent_class, spec.parent_project);
                            fetched.rid()
                        }
                    };
                    let p = partition_of(join_rid, partitions);
                    if p == 0 {
                        ex.store.charge(CpuEvent::HashProbe, 1);
                        if let Some(payloads) = mem.get(&join_rid) {
                            for &payload in payloads.iter() {
                                match side {
                                    BuildSide::Parents => pending.push((payload, key)),
                                    BuildSide::Children => pending.push((key, payload)),
                                }
                            }
                        }
                    } else {
                        spills.probe[p as usize - 1].push(ex.store.stack_mut(), key, join_rid);
                    }
                });
                if pending.len() >= batch {
                    let at = ex.current_node();
                    flush_emits(ex, at, &mut pending, &[], spec, &mut report);
                }
            }
            let at = ex.current_node();
            flush_emits(ex, at, &mut pending, &[], spec, &mut report);
            ex.put_val_batch(pending);
        } else if batch <= 1 {
            for &(key, rid) in &probe_pairs {
                ex.with_object(rid, |ex, fetched| {
                    if fetched.is_deleted() {
                        return;
                    }
                    let join_rid = match side {
                        BuildSide::Parents => {
                            report.children_scanned += 1;
                            ex.store.charge_attr_access(child_class, spec.child_parent);
                            ex.store.charge_attr_access(child_class, spec.child_project);
                            fetched
                                .ref_rid(spec.child_parent)
                                .expect("child parent reference")
                        }
                        BuildSide::Children => {
                            report.parents_scanned += 1;
                            ex.store
                                .charge_attr_access(parent_class, spec.parent_project);
                            fetched.rid()
                        }
                    };
                    let p = partition_of(join_rid, partitions);
                    if p == 0 {
                        ex.store.charge(CpuEvent::HashProbe, 1);
                        if let Some(payloads) = mem.get(&join_rid) {
                            ex.op(OpKind::Emit, "result", |ex| {
                                for &payload in payloads.iter() {
                                    match side {
                                        BuildSide::Parents => {
                                            emit(ex.store, spec, &mut report, payload, key)
                                        }
                                        BuildSide::Children => {
                                            emit(ex.store, spec, &mut report, key, payload)
                                        }
                                    }
                                }
                            });
                        }
                    } else {
                        spills.probe[p as usize - 1].push(ex.store.stack_mut(), key, join_rid);
                    }
                });
            }
        } else {
            let mut rids = ex.take_rid_batch();
            let mut pending = ex.take_val_batch();
            for chunk in probe_pairs.chunks(batch) {
                rids.clear();
                rids.extend(chunk.iter().map(|&(_, r)| r));
                ex.with_batch(&rids, |ex, objs| {
                    for (i, &(key, _)) in chunk.iter().enumerate() {
                        let (rid, fetched) = objs.get(i);
                        if fetched.is_deleted() {
                            continue;
                        }
                        let join_rid = match side {
                            BuildSide::Parents => {
                                report.children_scanned += 1;
                                ex.store.charge_attr_access(child_class, spec.child_parent);
                                ex.store.charge_attr_access(child_class, spec.child_project);
                                fetched
                                    .ref_rid(spec.child_parent)
                                    .expect("child parent reference")
                            }
                            BuildSide::Children => {
                                report.parents_scanned += 1;
                                ex.store
                                    .charge_attr_access(parent_class, spec.parent_project);
                                rid
                            }
                        };
                        let p = partition_of(join_rid, partitions);
                        if p == 0 {
                            ex.store.charge(CpuEvent::HashProbe, 1);
                            if let Some(payloads) = mem.get(&join_rid) {
                                for &payload in payloads.iter() {
                                    match side {
                                        BuildSide::Parents => pending.push((payload, key)),
                                        BuildSide::Children => pending.push((key, payload)),
                                    }
                                }
                            }
                        } else {
                            spills.probe[p as usize - 1].push(ex.store.stack_mut(), key, join_rid);
                        }
                    }
                });
                if pending.len() >= batch {
                    let at = ex.current_node();
                    flush_emits(ex, at, &mut pending, &[], spec, &mut report);
                }
            }
            let at = ex.current_node();
            flush_emits(ex, at, &mut pending, &[], spec, &mut report);
            ex.put_rid_batch(rids);
            ex.put_val_batch(pending);
        }
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
        let mut table: FxHashMap<Rid, Vec<i64>> = FxHashMap::default();
        ex.op(OpKind::HashBuild, "spill", |ex| {
            for (key, join_rid) in build_run.read_all(ex.store.stack_mut()) {
                ex.store.charge(CpuEvent::HashInsert, 1);
                table.entry(join_rid).or_default().push(key);
            }
        });
        ex.op(OpKind::HashProbe, "spill", |ex| {
            if batch <= 1 {
                for (key, join_rid) in probe_run.read_all(ex.store.stack_mut()) {
                    ex.store.charge(CpuEvent::HashProbe, 1);
                    if let Some(payloads) = table.get(&join_rid) {
                        ex.op(OpKind::Emit, "result", |ex| {
                            for &payload in payloads.iter() {
                                match side {
                                    BuildSide::Parents => {
                                        emit(ex.store, spec, &mut report, payload, key)
                                    }
                                    BuildSide::Children => {
                                        emit(ex.store, spec, &mut report, key, payload)
                                    }
                                }
                            }
                        });
                    }
                }
            } else {
                let mut pending = ex.take_val_batch();
                for (key, join_rid) in probe_run.read_all(ex.store.stack_mut()) {
                    ex.store.charge(CpuEvent::HashProbe, 1);
                    if let Some(payloads) = table.get(&join_rid) {
                        for &payload in payloads.iter() {
                            match side {
                                BuildSide::Parents => pending.push((payload, key)),
                                BuildSide::Children => pending.push((key, payload)),
                            }
                        }
                    }
                    if pending.len() >= batch {
                        let at = ex.current_node();
                        flush_emits(ex, at, &mut pending, &[], spec, &mut report);
                    }
                }
                let at = ex.current_node();
                flush_emits(ex, at, &mut pending, &[], spec, &mut report);
                ex.put_val_batch(pending);
            }
        });
    }

    // Release the spill space.
    ex.op(OpKind::Teardown, "spill", |ex| {
        for f in spills.files {
            ex.store.stack_mut().truncate_file(f);
        }
    });
    report
}
