//! Snapshot-isolated sessions over an MVCC epoch chain.
//!
//! Each session owns a copy-on-write [`Database`] clone pinned to a
//! **base epoch** — an immutable published snapshot. Epoch 0 is the
//! database the server started with; every successful [`Commit`]
//! publishes a new epoch. Sessions never observe each other's
//! uncommitted work — not through caches (each clone carries its own),
//! not through handle tables, not through the simulated clock — which
//! is what makes K concurrent sessions produce `Stat`s byte-identical
//! to K serial runs (pinned by `tests/concurrency.rs`).
//!
//! ## The publication protocol
//!
//! A session's writes stay private in its clone until `Commit`:
//!
//! 1. The session's database is checked out (`Busy` excludes races
//!    with its own queries), quiesced (handle drain + flush), and
//!    diffed against its base epoch's disk — copy-on-write pointer
//!    identity yields the **write-set** without tracking a single page
//!    number during execution.
//! 2. An empty write-set commits trivially: the session just re-pins
//!    the newest epoch.
//! 3. Otherwise the write-set is validated under the epoch lock
//!    against every epoch published after the session's base —
//!    **first committer wins**: any overlap (at file = collection
//!    granularity; see `tq_pagestore::writeset` for why) aborts the
//!    commit with a typed conflict naming the file and the winning
//!    epoch, and the session is refilled from the newest epoch.
//! 4. A valid write-set is published: if nothing intervened, the
//!    session's own (normalized) clone becomes the new epoch's
//!    database; if disjoint epochs intervened, a clone of the newest
//!    head *adopts* the write-set's files (pages stay shared — the
//!    merge is O(touched files), not O(pages)). The head pointer
//!    swaps to the new epoch atomically under the lock.
//!
//! ## Trimming the chain
//!
//! A session validates only against epochs numbered above its base,
//! so once every live session is based at epoch `w` or later (the
//! **watermark**: the lowest base among live slots, or the head when
//! there are none), epochs `<= w` can never be validated against
//! again. After each publish, and when a session closes, the chain
//! drops them. The dropped `Arc`s are released after both locks are —
//! as is a session's old base when it re-pins, which may be the last
//! reference to a trimmed epoch — so freeing a dead epoch's pages
//! never holds up a commit or a checkout. The watermark is read and
//! applied under `slots` → `epochs` — the one lock order in this file
//! — and [`SessionManager::create`] reads the head under `slots` too,
//! so no session can be pinned to an epoch a concurrent trim has
//! already judged unreachable.
//!
//! Warm sessions re-pin: a query checkout
//! ([`SessionManager::take`]) that finds the session clean (no
//! divergence from its base) and behind the head silently re-bases it
//! onto the newest epoch, so committed writes become visible to
//! long-lived read sessions on their next query without breaking any
//! in-progress transaction's snapshot.
//!
//! A query *takes* the session's database out of the slot and returns
//! it afterwards; a second query on the same session while the first
//! runs gets a typed [`SessionError::Busy`] instead of racing. A
//! cancelled query leaves its database in an undefined cache/handle
//! state, so it is discarded and the slot refilled with a fresh clone
//! of the session's base epoch ([`SessionManager::replace_fresh`]) —
//! which also discards any uncommitted writes the session had
//! accumulated (a deadline mid-transaction aborts the transaction).

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use tq_pagestore::WriteSet;
use tq_workload::Database;

use crate::proto::CacheMode;

/// Why a session operation failed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SessionError {
    /// No session with that id (never opened, or already closed).
    Unknown(u64),
    /// The session's database is out running another query.
    Busy(u64),
}

impl std::fmt::Display for SessionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SessionError::Unknown(id) => write!(f, "unknown session {id}"),
            SessionError::Busy(id) => write!(f, "session {id} is busy"),
        }
    }
}

impl std::error::Error for SessionError {}

/// What teardown found and did.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CloseReport {
    /// Handles drained from the delayed-free pool.
    pub drained_handles: u64,
    /// Handles still pinned after the drain (0 unless an operator
    /// leaked a guard).
    pub leaked_handles: u64,
    /// Pages of uncommitted writes the close discarded (0 for a
    /// session that committed or never wrote).
    pub uncommitted_pages: u64,
}

/// The conflict that aborted a commit: the first overlapping file and
/// the epoch whose earlier commit wins.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CommitConflict {
    /// Name of the contended file (collection or index).
    pub file: String,
    /// The already-published epoch it conflicts with.
    pub epoch: u64,
}

/// What a commit did.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CommitOutcome {
    /// The write-set was published (or was empty); the session is now
    /// pinned to `epoch`.
    Committed {
        /// The epoch the session observes after the commit. A
        /// non-empty write-set creates this epoch; an empty one
        /// re-pins the newest existing epoch.
        epoch: u64,
        /// Pages the published write-set contained (0 for read-only).
        pages: u64,
    },
    /// First-committer-wins validation failed; the session's writes
    /// were discarded and it was re-pinned to the newest epoch.
    Aborted {
        /// What it conflicted with.
        conflict: CommitConflict,
    },
}

/// One published snapshot.
pub struct Epoch {
    number: u64,
    db: Database,
    write_set: WriteSet,
}

impl Epoch {
    /// The epoch's position in the publication order (0 = the server's
    /// starting snapshot).
    pub fn number(&self) -> u64 {
        self.number
    }

    /// The immutable database this epoch published.
    pub fn database(&self) -> &Database {
        &self.db
    }

    /// The write-set whose publication created this epoch (empty for
    /// epoch 0).
    pub fn write_set(&self) -> &WriteSet {
        &self.write_set
    }
}

struct Chain {
    head: Arc<Epoch>,
    /// The published epochs above the watermark, in order — the
    /// validation window for first-committer-wins. Its length is the
    /// commits published since the oldest live session's base (see
    /// "Trimming the chain" in the module docs).
    published: Vec<Arc<Epoch>>,
}

struct Slot {
    mode: CacheMode,
    /// `None` while a query has the database checked out.
    db: Option<Box<Database>>,
    /// The epoch this session's clone was taken from.
    base: Arc<Epoch>,
}

/// The session table: id allocation, snapshot checkout, the MVCC
/// commit/abort/re-pin protocol, teardown.
pub struct SessionManager {
    epochs: Mutex<Chain>,
    slots: Mutex<HashMap<u64, Slot>>,
    next_id: AtomicU64,
}

impl SessionManager {
    /// Wraps the starting snapshot as epoch 0.
    pub fn new(base: Database) -> Self {
        let epoch0 = Arc::new(Epoch {
            number: 0,
            db: base,
            write_set: WriteSet::default(),
        });
        Self {
            epochs: Mutex::new(Chain {
                head: epoch0,
                published: Vec::new(),
            }),
            slots: Mutex::new(HashMap::new()),
            next_id: AtomicU64::new(1),
        }
    }

    /// The newest published epoch.
    fn head(&self) -> Arc<Epoch> {
        Arc::clone(&self.epochs.lock().unwrap().head)
    }

    /// The newest epoch number (0 until the first commit).
    pub fn current_epoch(&self) -> u64 {
        self.epochs.lock().unwrap().head.number
    }

    /// Published epochs the chain still holds for validation — 0 once
    /// every live session is based at the head.
    #[doc(hidden)]
    pub fn retained_epochs(&self) -> usize {
        self.epochs.lock().unwrap().published.len()
    }

    /// Opens a session: clones the newest epoch into a fresh slot. The
    /// head is read under `slots`, so a concurrent trim either sees
    /// this slot or ran before the head it pins was read.
    pub fn create(&self, mode: CacheMode) -> u64 {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let mut slots = self.slots.lock().unwrap();
        let base = self.head();
        let db = Box::new(base.db.clone());
        slots.insert(
            id,
            Slot {
                mode,
                db: Some(db),
                base,
            },
        );
        id
    }

    /// Drops every published epoch at or below the watermark (the
    /// lowest live base, or the head with no sessions). The dropped
    /// epochs are freed after both locks are released.
    fn trim(&self) {
        let dead: Vec<Arc<Epoch>> = {
            let slots = self.slots.lock().unwrap();
            let mut chain = self.epochs.lock().unwrap();
            let watermark = slots
                .values()
                .map(|s| s.base.number)
                .min()
                .unwrap_or(chain.head.number);
            let cut = chain.published.partition_point(|e| e.number <= watermark);
            chain.published.drain(..cut).collect()
        };
        drop(dead);
    }

    /// Checks the session's database out for a query. A clean session
    /// (no uncommitted writes) pinned behind the newest epoch is
    /// transparently re-pinned to it first — committed writes become
    /// visible to warm sessions at their next query.
    pub fn take(&self, id: u64) -> Result<(Box<Database>, CacheMode), SessionError> {
        let mut slots = self.slots.lock().unwrap();
        let slot = slots.get_mut(&id).ok_or(SessionError::Unknown(id))?;
        let db = slot.db.take().ok_or(SessionError::Busy(id))?;
        let head = self.head();
        if head.number > slot.base.number
            && db
                .store
                .stack()
                .is_unchanged_since(slot.base.db.store.stack())
        {
            let old = std::mem::replace(&mut slot.base, Arc::clone(&head));
            let mode = slot.mode;
            drop(slots);
            // A base the chain already trimmed dies here, unlocked.
            drop(old);
            return Ok((Box::new(head.db.clone()), mode));
        }
        Ok((db, slot.mode))
    }

    /// Returns a checked-out database. If the session vanished in the
    /// meantime the database is simply dropped.
    pub fn restore(&self, id: u64, db: Box<Database>) {
        let mut slots = self.slots.lock().unwrap();
        if let Some(slot) = slots.get_mut(&id) {
            slot.db = Some(db);
        }
    }

    /// Refills a session whose checked-out database was discarded
    /// (cancelled query) with a fresh clone of its base epoch. Any
    /// uncommitted writes the discarded clone carried die with it.
    pub fn replace_fresh(&self, id: u64) {
        let mut slots = self.slots.lock().unwrap();
        if let Some(slot) = slots.get_mut(&id) {
            slot.db = Some(Box::new(slot.base.db.clone()));
        }
    }

    /// Validates and publishes the session's writes (see the module
    /// docs for the protocol). On success the session is re-pinned,
    /// cold, to the epoch it just created (or, for a read-only
    /// transaction, the newest epoch); on conflict its writes are
    /// discarded and it is re-pinned to the newest epoch.
    pub fn commit(&self, id: u64) -> Result<CommitOutcome, SessionError> {
        let (mut db, base) = {
            let mut slots = self.slots.lock().unwrap();
            let slot = slots.get_mut(&id).ok_or(SessionError::Unknown(id))?;
            let db = slot.db.take().ok_or(SessionError::Busy(id))?;
            (db, Arc::clone(&slot.base))
        };
        // Quiesce outside every lock: drain handles, flush dirty pages
        // so the copy-on-write state is the whole truth, zero the
        // metrics so the published snapshot starts clean.
        db.store.end_of_query();
        db.store.cold_restart();
        db.store.reset_metrics();
        let ws = db.store.stack().write_set_since(base.db.store.stack());
        if ws.is_empty() {
            let head = self.head();
            let number = head.number;
            self.repin(id, head);
            return Ok(CommitOutcome::Committed {
                epoch: number,
                pages: 0,
            });
        }
        let pages = ws.page_count();
        let published = {
            let mut chain = self.epochs.lock().unwrap();
            let conflict = chain
                .published
                .iter()
                .rev()
                .take_while(|e| e.number > base.number)
                .find_map(|e| {
                    ws.overlap_with(&e.write_set).map(|fw| CommitConflict {
                        file: fw.name.clone(),
                        epoch: e.number,
                    })
                })
                .or_else(|| {
                    // A write-set containing files the base never had
                    // (an operator that spills mid-transaction) can be
                    // published over its own base but not merged past
                    // other commits: the intervening epoch may have
                    // allocated the same file ids.
                    (chain.head.number > base.number && ws.has_created_files()).then(|| {
                        CommitConflict {
                            file: ws
                                .files()
                                .iter()
                                .find(|f| f.created)
                                .map(|f| f.name.clone())
                                .unwrap_or_default(),
                            epoch: chain.head.number,
                        }
                    })
                });
            if let Some(conflict) = conflict {
                drop(chain);
                drop(db);
                self.repin(id, self.head());
                return Ok(CommitOutcome::Aborted { conflict });
            }
            let number = chain.head.number + 1;
            let new_db = if chain.head.number == base.number {
                // Fast path: nothing intervened — the session's own
                // normalized clone is the new epoch's database.
                *db
            } else {
                // Disjoint merge: newest head adopts the write-set's
                // files (and their index descriptors) from the session.
                let mut merged = chain.head.db.clone();
                merged.absorb_write_set(&db, &ws);
                merged
            };
            let epoch = Arc::new(Epoch {
                number,
                db: new_db,
                write_set: ws,
            });
            chain.published.push(Arc::clone(&epoch));
            chain.head = Arc::clone(&epoch);
            epoch
        };
        let number = published.number;
        self.repin(id, published);
        self.trim();
        Ok(CommitOutcome::Committed {
            epoch: number,
            pages,
        })
    }

    /// Discards the session's uncommitted writes and re-pins it to the
    /// newest epoch. Returns the number of discarded pages.
    pub fn abort(&self, id: u64) -> Result<u64, SessionError> {
        let (db, base) = {
            let mut slots = self.slots.lock().unwrap();
            let slot = slots.get_mut(&id).ok_or(SessionError::Unknown(id))?;
            let db = slot.db.take().ok_or(SessionError::Busy(id))?;
            (db, Arc::clone(&slot.base))
        };
        let discarded = db
            .store
            .stack()
            .write_set_since(base.db.store.stack())
            .page_count();
        drop(db);
        self.repin(id, self.head());
        Ok(discarded)
    }

    /// Refills `id` with a fresh clone of `epoch` and pins it there.
    fn repin(&self, id: u64, epoch: Arc<Epoch>) {
        let db = Box::new(epoch.db.clone());
        let old = self.slots.lock().unwrap().get_mut(&id).map(|slot| {
            slot.db = Some(db);
            std::mem::replace(&mut slot.base, epoch)
        });
        // A base the chain already trimmed dies here, unlocked.
        drop(old);
    }

    /// Closes a session: drains its delayed-free handle pool and
    /// reports what teardown found — including uncommitted written
    /// pages the close is about to discard, so write leaks are visible
    /// to the load generator's accounting. Fails with
    /// [`SessionError::Busy`] if a query still has the database
    /// checked out.
    pub fn close(&self, id: u64) -> Result<CloseReport, SessionError> {
        let (mut db, base) = {
            let mut slots = self.slots.lock().unwrap();
            let slot = slots.get_mut(&id).ok_or(SessionError::Unknown(id))?;
            match slot.db.take() {
                Some(db) => {
                    let base = Arc::clone(&slot.base);
                    slots.remove(&id);
                    (db, base)
                }
                None => return Err(SessionError::Busy(id)),
            }
        };
        let frees_before = db.store.handle_stats().frees;
        db.store.end_of_query();
        let report = CloseReport {
            drained_handles: db.store.handle_stats().frees - frees_before,
            leaked_handles: db.store.live_handles() as u64,
            uncommitted_pages: db
                .store
                .stack()
                .write_set_since(base.db.store.stack())
                .page_count(),
        };
        drop(base);
        self.trim();
        Ok(report)
    }

    /// Currently open sessions.
    pub fn open_count(&self) -> usize {
        self.slots.lock().unwrap().len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tq_query::maintenance::MaintainedIndex;
    use tq_query::update::{run_update, UpdateSpec};
    use tq_workload::{build, patient_attr, BuildConfig, DbShape, Organization};

    fn tiny_db() -> Database {
        // Scaled DB2: 1000x smaller than the paper's.
        build(&BuildConfig::scaled(
            DbShape::Db2,
            Organization::ClassClustered,
            1000,
        ))
    }

    /// Runs `update Patients set num = num + delta where mrn < limit`
    /// on a checked-out session database.
    fn update_patients(db: &mut Database, limit: i64, delta: i32) -> u64 {
        let scan = db.idx_patient_mrn.clone();
        let mut idx_mrn = db.idx_patient_mrn.clone();
        let mut idx_num = db.idx_patient_num.clone();
        let out = {
            let mut reg = [
                MaintainedIndex {
                    index: &mut idx_mrn,
                    key_attr: patient_attr::MRN,
                },
                MaintainedIndex {
                    index: &mut idx_num,
                    key_attr: patient_attr::NUM,
                },
            ];
            run_update(
                &mut db.store,
                &scan,
                &mut reg,
                &UpdateSpec {
                    collection: "Patients".into(),
                    key_limit: limit,
                    set_attr: patient_attr::NUM,
                    delta,
                },
                None,
            )
        };
        db.idx_patient_mrn = idx_mrn;
        db.idx_patient_num = idx_num;
        db.store.end_of_query();
        out.updated
    }

    #[test]
    fn checkout_is_exclusive_and_restorable() {
        let mgr = SessionManager::new(tiny_db());
        let id = mgr.create(CacheMode::Cold);
        let (db, mode) = mgr.take(id).unwrap();
        assert_eq!(mode, CacheMode::Cold);
        assert_eq!(mgr.take(id).err(), Some(SessionError::Busy(id)));
        assert_eq!(mgr.close(id), Err(SessionError::Busy(id)));
        mgr.restore(id, db);
        let report = mgr.close(id).unwrap();
        assert_eq!(report.leaked_handles, 0);
        assert_eq!(report.uncommitted_pages, 0);
        assert_eq!(mgr.take(id).err(), Some(SessionError::Unknown(id)));
        assert_eq!(mgr.open_count(), 0);
    }

    #[test]
    fn replace_fresh_refills_a_discarded_checkout() {
        let mgr = SessionManager::new(tiny_db());
        let id = mgr.create(CacheMode::Warm);
        let (db, _) = mgr.take(id).unwrap();
        drop(db); // what the worker does after a cancellation
        mgr.replace_fresh(id);
        let (_db, mode) = mgr.take(id).unwrap();
        assert_eq!(mode, CacheMode::Warm);
    }

    #[test]
    fn sessions_are_isolated_snapshots() {
        let mgr = SessionManager::new(tiny_db());
        let a = mgr.create(CacheMode::Cold);
        let b = mgr.create(CacheMode::Cold);
        assert_ne!(a, b);
        let (mut db_a, _) = mgr.take(a).unwrap();
        let (db_b, _) = mgr.take(b).unwrap();
        // Warm up a's caches; b must not see it.
        db_a.store.cold_restart();
        mgr.restore(a, db_a);
        mgr.restore(b, db_b);
        assert_eq!(mgr.open_count(), 2);
        mgr.close(a).unwrap();
        mgr.close(b).unwrap();
    }

    /// `num` of the patient with `mrn == 0`.
    fn num_of_first_patient(db: &mut Database) -> i64 {
        let rids = db.idx_patient_mrn.lookup(db.store.stack_mut(), 0);
        assert_eq!(rids.len(), 1);
        let num = db.store.with_fetched(rids[0], |_store, g| {
            g.int(patient_attr::NUM).expect("num is Int") as i64
        });
        db.store.end_of_query();
        num
    }

    #[test]
    fn commit_publishes_and_readers_repin() {
        let mgr = SessionManager::new(tiny_db());
        let writer = mgr.create(CacheMode::Warm);
        let reader = mgr.create(CacheMode::Warm);
        // Reader takes (and returns) its snapshot before the commit.
        let (mut db_r, _) = mgr.take(reader).unwrap();
        let before = num_of_first_patient(&mut db_r);
        mgr.restore(reader, db_r);
        // Writer updates and commits.
        let (mut db_w, _) = mgr.take(writer).unwrap();
        let limit = db_w.patient_selectivity_key(10);
        assert!(update_patients(&mut db_w, limit, 7) > 0);
        mgr.restore(writer, db_w);
        match mgr.commit(writer).unwrap() {
            CommitOutcome::Committed { epoch, pages } => {
                assert_eq!(epoch, 1);
                assert!(pages > 0);
            }
            other => panic!("expected commit, got {other:?}"),
        }
        assert_eq!(mgr.current_epoch(), 1);
        // The reader's next checkout re-pins to epoch 1 and sees the
        // committed num values.
        let (mut db_r, _) = mgr.take(reader).unwrap();
        assert_eq!(num_of_first_patient(&mut db_r), before + 7);
        mgr.restore(reader, db_r);
        mgr.close(reader).unwrap();
        mgr.close(writer).unwrap();
    }

    #[test]
    fn conflicting_commit_aborts_with_winner_named() {
        let mgr = SessionManager::new(tiny_db());
        let a = mgr.create(CacheMode::Warm);
        let b = mgr.create(CacheMode::Warm);
        let (mut db_a, _) = mgr.take(a).unwrap();
        let (mut db_b, _) = mgr.take(b).unwrap();
        let limit_a = db_a.patient_selectivity_key(10);
        let limit_b = db_b.patient_selectivity_key(5);
        update_patients(&mut db_a, limit_a, 1);
        update_patients(&mut db_b, limit_b, 2);
        mgr.restore(a, db_a);
        mgr.restore(b, db_b);
        assert!(matches!(
            mgr.commit(a).unwrap(),
            CommitOutcome::Committed { epoch: 1, .. }
        ));
        match mgr.commit(b).unwrap() {
            CommitOutcome::Aborted { conflict } => {
                assert_eq!(conflict.epoch, 1);
                assert!(!conflict.file.is_empty());
            }
            other => panic!("expected abort, got {other:?}"),
        }
        // b was re-pinned to the winner's epoch; a fresh commit of a
        // new write on b succeeds against epoch 1.
        let (mut db_b, _) = mgr.take(b).unwrap();
        let limit = db_b.patient_selectivity_key(3);
        update_patients(&mut db_b, limit, 5);
        mgr.restore(b, db_b);
        assert!(matches!(
            mgr.commit(b).unwrap(),
            CommitOutcome::Committed { epoch: 2, .. }
        ));
    }

    #[test]
    fn abort_discards_writes_and_repins() {
        let mgr = SessionManager::new(tiny_db());
        let id = mgr.create(CacheMode::Warm);
        let (mut db, _) = mgr.take(id).unwrap();
        let limit = db.patient_selectivity_key(10);
        update_patients(&mut db, limit, 3);
        mgr.restore(id, db);
        let discarded = mgr.abort(id).unwrap();
        assert!(discarded > 0, "the update dirtied pages");
        // After the abort the session is clean again.
        let report = mgr.close(id).unwrap();
        assert_eq!(report.uncommitted_pages, 0);
    }

    #[test]
    fn close_reports_uncommitted_pages() {
        let mgr = SessionManager::new(tiny_db());
        let id = mgr.create(CacheMode::Warm);
        let (mut db, _) = mgr.take(id).unwrap();
        let limit = db.patient_selectivity_key(10);
        update_patients(&mut db, limit, 3);
        db.store.cold_restart(); // flush so the CoW diff sees the writes
        mgr.restore(id, db);
        let report = mgr.close(id).unwrap();
        assert!(report.uncommitted_pages > 0);
    }

    /// A write-transaction step: checks `id` out, runs
    /// [`update_patients`] over `mrn < limit`, checks it back in.
    fn write_patients(mgr: &SessionManager, id: u64, limit: i64, delta: i32) {
        let (mut db, _) = mgr.take(id).unwrap();
        assert!(update_patients(&mut db, limit, delta) > 0);
        mgr.restore(id, db);
    }

    /// Rewrites the first `limit` providers unchanged (a delta-0 touch):
    /// a write-set on the providers file only, disjoint from any
    /// patients update.
    fn touch_providers(mgr: &SessionManager, id: u64, limit: i64) {
        let (mut db, _) = mgr.take(id).unwrap();
        let scan = db.idx_provider_upin.clone();
        let mut idx_upin = db.idx_provider_upin.clone();
        let mut reg = [MaintainedIndex {
            index: &mut idx_upin,
            key_attr: tq_workload::provider_attr::UPIN,
        }];
        let out = run_update(
            &mut db.store,
            &scan,
            &mut reg,
            &UpdateSpec {
                collection: "Providers".into(),
                key_limit: limit,
                set_attr: tq_workload::provider_attr::UPIN,
                delta: 0,
            },
            None,
        );
        assert!(out.updated > 0);
        db.store.end_of_query();
        mgr.restore(id, db);
    }

    fn committed_epoch(outcome: CommitOutcome) -> u64 {
        match outcome {
            CommitOutcome::Committed { epoch, pages } => {
                assert!(pages > 0, "the write reached the write-set");
                epoch
            }
            other => panic!("expected commit, got {other:?}"),
        }
    }

    #[test]
    fn chain_stays_bounded_under_a_repinning_reader() {
        let mgr = SessionManager::new(tiny_db());
        let writer = mgr.create(CacheMode::Warm);
        let reader = mgr.create(CacheMode::Warm);
        let limit = mgr.head().db.patient_selectivity_key(1);
        for i in 1..=10_000u64 {
            write_patients(&mgr, writer, limit, 1);
            assert_eq!(committed_epoch(mgr.commit(writer).unwrap()), i);
            assert!(mgr.retained_epochs() <= 2, "commit {i}");
            // The warm reader's next query re-pins it to the head.
            let (db, _) = mgr.take(reader).unwrap();
            mgr.restore(reader, db);
            assert!(mgr.retained_epochs() <= 2, "commit {i}");
        }
        mgr.close(reader).unwrap();
        mgr.close(writer).unwrap();
        assert_eq!(mgr.retained_epochs(), 0);
    }

    #[test]
    fn idle_session_keeps_its_validation_window() {
        let mgr = SessionManager::new(tiny_db());
        let writer = mgr.create(CacheMode::Warm);
        let (pat_limit, prov_limit) = {
            let head = mgr.head();
            (
                head.db.patient_selectivity_key(1),
                head.db.provider_selectivity_key(1),
            )
        };
        touch_providers(&mgr, writer, prov_limit);
        let k = committed_epoch(mgr.commit(writer).unwrap());
        // An open transaction at k: its uncommitted write keeps it
        // from re-pinning at its next checkout.
        let idle = mgr.create(CacheMode::Warm);
        write_patients(&mgr, idle, pat_limit, 2);
        // Epoch k + 1 writes patients; the 99 after it only providers.
        write_patients(&mgr, writer, pat_limit, 1);
        let winner = committed_epoch(mgr.commit(writer).unwrap());
        assert_eq!(winner, k + 1);
        for _ in 0..99 {
            touch_providers(&mgr, writer, prov_limit);
            committed_epoch(mgr.commit(writer).unwrap());
        }
        assert_eq!(mgr.current_epoch(), k + 100);
        assert_eq!(mgr.retained_epochs(), 100, "every epoch > k is kept");
        // The idle session still sees the conflict 99 epochs back.
        match mgr.commit(idle).unwrap() {
            CommitOutcome::Aborted { conflict } => assert_eq!(conflict.epoch, winner),
            other => panic!("expected abort, got {other:?}"),
        }
        mgr.close(idle).unwrap();
        assert_eq!(mgr.retained_epochs(), 0, "the chain collapses to the head");
        mgr.close(writer).unwrap();
    }

    /// First-committer-wins' precondition: every live session can
    /// still validate against every epoch published after its base.
    fn windows_intact(mgr: &SessionManager) -> bool {
        let slots = mgr.slots.lock().unwrap();
        let chain = mgr.epochs.lock().unwrap();
        let oldest_kept = chain
            .published
            .first()
            .map_or(chain.head.number + 1, |e| e.number);
        slots.values().all(|s| s.base.number + 1 >= oldest_kept)
    }

    /// Races session creation against another session's commits, both
    /// writing the same patients, while two more threads churn
    /// sessions (create, check, close) so that more threads than cores
    /// are runnable and creates get preempted mid-way. A trim between
    /// `create` reading the head and inserting its slot would drop an
    /// epoch the new session still has to validate against; the window
    /// check catches that directly (a clean session re-pins at its
    /// first checkout, which would otherwise mask it). And
    /// first-committer-wins must never let two overlapping write-sets
    /// both publish: every committed `+1` stays visible, so the first
    /// patient's `num` ends exactly `committed` above where it started.
    #[test]
    fn create_races_commit_without_losing_updates() {
        let mgr = SessionManager::new(tiny_db());
        let probe = mgr.create(CacheMode::Cold);
        let (mut db, _) = mgr.take(probe).unwrap();
        let before = num_of_first_patient(&mut db);
        let limit = db.patient_selectivity_key(1);
        mgr.restore(probe, db);
        mgr.close(probe).unwrap();

        const ITERATIONS: usize = 1_000;
        // 1 if `id`'s `+1` on the first patients was published.
        let write_commit = |id: u64| {
            write_patients(&mgr, id, limit, 1);
            match mgr.commit(id).unwrap() {
                CommitOutcome::Committed { .. } => 1,
                CommitOutcome::Aborted { .. } => 0,
            }
        };
        let create_checked = || {
            let id = mgr.create(CacheMode::Cold);
            assert!(windows_intact(&mgr), "a trim outran create");
            id
        };
        let done = std::sync::atomic::AtomicBool::new(false);
        let committed: i64 = std::thread::scope(|s| {
            for _ in 0..2 {
                s.spawn(|| {
                    while !done.load(Ordering::Relaxed) {
                        mgr.close(create_checked()).unwrap();
                    }
                });
            }
            let writer = s.spawn(|| {
                let id = mgr.create(CacheMode::Warm);
                let n: i64 = (0..ITERATIONS).map(|_| write_commit(id)).sum();
                mgr.close(id).unwrap();
                n
            });
            let creator = s.spawn(|| {
                (0..ITERATIONS)
                    .map(|_| {
                        let id = create_checked();
                        let n = write_commit(id);
                        mgr.close(id).unwrap();
                        n
                    })
                    .sum::<i64>()
            });
            let joined = (writer.join(), creator.join());
            done.store(true, Ordering::Relaxed);
            joined.0.unwrap() + joined.1.unwrap()
        });
        assert!(committed > 0);
        let reader = mgr.create(CacheMode::Cold);
        let (mut db, _) = mgr.take(reader).unwrap();
        assert_eq!(num_of_first_patient(&mut db), before + committed);
        mgr.restore(reader, db);
        mgr.close(reader).unwrap();
        assert_eq!(mgr.retained_epochs(), 0);
    }

    #[test]
    fn empty_commit_repins_to_newest_epoch() {
        let mgr = SessionManager::new(tiny_db());
        let reader = mgr.create(CacheMode::Warm);
        let writer = mgr.create(CacheMode::Warm);
        let (mut db_w, _) = mgr.take(writer).unwrap();
        let limit = db_w.patient_selectivity_key(10);
        update_patients(&mut db_w, limit, 1);
        mgr.restore(writer, db_w);
        mgr.commit(writer).unwrap();
        match mgr.commit(reader).unwrap() {
            CommitOutcome::Committed { epoch, pages } => {
                assert_eq!((epoch, pages), (1, 0));
            }
            other => panic!("expected trivial commit, got {other:?}"),
        }
    }
}
