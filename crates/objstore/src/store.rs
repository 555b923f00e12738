//! The object store: O2's engine surface, as the paper describes it.
//!
//! An [`ObjectStore`] combines the storage stack (pages + two cache
//! tiers + simulated clock), a [`Schema`], the [`HandleTable`] and a
//! catalog of named collections. It implements the behaviours the
//! paper's hard truths hinge on:
//!
//! * **Physical rids** — an object lives where it was created; pages
//!   are filled in creation order with a fill-factor slack for growth.
//! * **Forwarding** — an update that no longer fits relocates the
//!   record to the end of its file, leaving a forwarder; every later
//!   access pays an extra hop. ("This destroys the physical
//!   organization that you managed to impose", §3.2.)
//! * **Index membership in object headers** — adding the first index to
//!   a loaded collection widens every object header by 16 bytes,
//!   triggering a relocation storm
//!   ([`ObjectStore::register_index_on_collection`]).
//! * **Handle charging** — every object access allocates/touches an
//!   in-memory handle whose CPU cost is charged to the simulated clock.

use crate::handle::{GetOutcome, HandleStats, HandleTable};
use crate::record::{self, DecodeError, Object, ObjectHeader, Record};
use crate::rid::{Rid, RID_BYTES};
use crate::ridlist::{self, RidRun, RidRunCursor, RIDS_PER_PAGE};
#[cfg(test)]
use crate::schema::AttrType;
use crate::schema::{AttrId, ClassDef, ClassId, Schema};
use crate::value::{SetValue, Value};
use std::cell::OnceCell;
use tq_fasthash::FxHashMap;
use tq_pagestore::{CpuEvent, FileId, IoStats, PageId, SimClock, StorageStack, PAGE_SIZE};

/// Default fill factor for data pages: the paper notes O2 "always
/// leaves some extra space to deal with growing strings or collections".
pub const DEFAULT_FILL_LIMIT: usize = PAGE_SIZE * 9 / 10;

/// Default executor batch size: large enough to amortize the
/// per-scope snapshot pair over a thousand objects, small enough that
/// the pending-emit scratch stays cache-resident.
pub const DEFAULT_BATCH_SIZE: usize = 1024;

/// A named collection: the class of its members and the rid run storing
/// them.
#[derive(Clone, Copy, Debug)]
pub struct CollectionInfo {
    /// Member class.
    pub class: ClassId,
    /// Backing rid run.
    pub run: RidRun,
    /// Distinct data pages holding the members at creation time — what
    /// a full scan of *this* collection touches. Under shared-file
    /// organizations (composition, randomized) this is smaller than the
    /// file's page count, which also holds the other class's objects.
    pub data_pages: u64,
}

/// Outcome of [`ObjectStore::register_index_on_collection`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WideningReport {
    /// Objects visited.
    pub objects: u64,
    /// Objects whose header had to be widened (rewritten).
    pub widened: u64,
    /// Objects that no longer fit their page and were relocated.
    pub relocated: u64,
}

/// A fetched object together with its *canonical* rid (post-forwarding).
#[derive(Clone, Debug)]
pub struct Fetched {
    /// Where the object actually lives now.
    pub rid: Rid,
    /// The decoded object.
    pub object: Object,
    /// The pinned handle's slot in the handle table.
    slot: u32,
}

/// An RAII fetch: a pinned handle that *must* go back through
/// [`ObjectStore::release_guard`].
///
/// [`ObjectStore::fetch`]/[`ObjectStore::release`] rely on every call
/// site remembering the release — including the easy-to-miss
/// deleted-object `continue` paths. A guard makes the forgotten release
/// impossible to ship: dropping one that was never released panics in
/// debug builds (tests), so any leaked pin fails loudly instead of
/// silently skewing the handle counters the paper's analysis rests on.
/// Release builds let the drop pass (the handle leaks until
/// `end_of_query`, exactly as a forgotten `release()` would have).
///
/// The guard derefs to the fetched [`Record`]; operators read the
/// attributes they need through its accessors.
#[derive(Debug)]
pub struct ObjGuard {
    rid: Rid,
    /// The pinned handle's slot in the handle table.
    slot: u32,
    record: Record,
    /// True while the pin is held; cleared by
    /// [`ObjectStore::release_guard`].
    armed: bool,
    /// [`ObjGuard::object`]'s materialisation, made on first use.
    object: OnceCell<Box<Object>>,
}

impl ObjGuard {
    /// The canonical rid (post-forwarding).
    pub fn rid(&self) -> Rid {
        self.rid
    }

    /// The decoded object, materialised from the record on first call.
    pub fn object(&self) -> &Object {
        self.object.get_or_init(|| {
            let mut object = Box::default();
            self.record
                .decode_into(&mut object)
                .unwrap_or_else(|e| panic!("corrupt record at {:?}: {e:?}", self.rid));
            object
        })
    }
}

impl std::ops::Deref for ObjGuard {
    type Target = Record;

    fn deref(&self) -> &Record {
        &self.record
    }
}

impl Drop for ObjGuard {
    fn drop(&mut self) {
        if self.armed && cfg!(debug_assertions) && !std::thread::panicking() {
            panic!(
                "ObjGuard for {:?} dropped without ObjectStore::release_guard: leaked handle pin",
                self.rid
            );
        }
    }
}

/// A reusable arena of fetched records for [`ObjectStore::fetch_batch`].
///
/// Holds one recycled [`Record`] per slot; they persist across batches
/// (and across queries, when the caller keeps the arena), so a warm
/// batch loop never allocates. Between a `fetch_batch` and its
/// `release_batch` the arena is *armed*: `len()` objects are pinned and
/// readable through [`ObjBatch::get`].
#[derive(Debug, Default)]
pub struct ObjBatch {
    /// Canonical (post-forwarding) rids of the armed entries.
    rids: Vec<Rid>,
    /// Their handles' slots in the handle table.
    slots: Vec<u32>,
    /// Record pool; the first `rids.len()` hold armed records, the rest
    /// are spares from earlier, larger batches.
    records: Vec<Record>,
}

impl ObjBatch {
    /// Armed entries.
    pub fn len(&self) -> usize {
        self.rids.len()
    }

    /// True when nothing is armed.
    pub fn is_empty(&self) -> bool {
        self.rids.is_empty()
    }

    /// Canonical rid of entry `i`.
    pub fn rid(&self, i: usize) -> Rid {
        self.rids[i]
    }

    /// Fetched record of entry `i`.
    pub fn record(&self, i: usize) -> &Record {
        &self.records[i]
    }

    /// `(canonical rid, record)` of entry `i`.
    pub fn get(&self, i: usize) -> (Rid, &Record) {
        (self.rids[i], &self.records[i])
    }
}

/// The object store.
///
/// `Clone` duplicates the entire simulated client/server/disk state;
/// clones evolve independently (used for per-cell measurements on
/// worker threads).
#[derive(Clone)]
pub struct ObjectStore {
    stack: StorageStack,
    schema: Schema,
    handles: HandleTable,
    collections: FxHashMap<String, CollectionInfo>,
    /// Current append target per file.
    tails: FxHashMap<FileId, u32>,
    fill_limit: usize,
    /// Objects per executor gather and pairs per deferred `Emit` flush
    /// of every query run over this store (and its clones).
    batch_size: usize,
    /// Recycled [`Object`] shells for [`ObjectStore::fetch`] —
    /// returning one via [`ObjectStore::release`] lets the next fetch
    /// of a same-shaped object decode without heap allocation.
    spare: Vec<Object>,
    /// The same pool for [`ObjectStore::fetch_guard`]'s records.
    spare_records: Vec<Record>,
    /// Reusable encode buffer for [`ObjectStore::insert`] and
    /// [`ObjectStore::update`] — bulk loads encode millions of records
    /// through one allocation.
    scratch: Vec<u8>,
}

/// Recycled objects kept per store; scan loops hold at most a couple
/// of fetches at a time.
const OBJECT_POOL_CAP: usize = 16;

impl ObjectStore {
    /// Builds a store over `stack` with the given schema.
    pub fn new(schema: Schema, stack: StorageStack) -> Self {
        Self {
            stack,
            schema,
            handles: HandleTable::default(),
            collections: FxHashMap::default(),
            tails: FxHashMap::default(),
            fill_limit: DEFAULT_FILL_LIMIT,
            batch_size: DEFAULT_BATCH_SIZE,
            spare: Vec::new(),
            spare_records: Vec::new(),
            scratch: Vec::new(),
        }
    }

    /// The schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// The underlying storage stack (index structures and operators
    /// read pages through it so everything shares one clock).
    pub fn stack(&self) -> &StorageStack {
        &self.stack
    }

    /// Mutable access to the storage stack.
    pub fn stack_mut(&mut self) -> &mut StorageStack {
        &mut self.stack
    }

    /// Overrides the data-page fill factor (bytes of record space used
    /// per page before a new page is opened).
    pub fn set_fill_limit(&mut self, bytes: usize) {
        assert!(bytes > 64 && bytes <= PAGE_SIZE);
        self.fill_limit = bytes;
    }

    /// The executor batch size queries over this store run at (≥ 1).
    pub fn batch_size(&self) -> usize {
        self.batch_size
    }

    /// Sets the executor batch size, clamped to ≥ 1. At 1 every gather
    /// is a single object: the same code, the one-at-a-time access
    /// sequence the differential oracles compare against. Output is
    /// byte-identical at any value. Clones carry it.
    pub fn set_batch_size(&mut self, n: usize) {
        self.batch_size = n.max(1);
    }

    /// Creates a data or overflow file.
    pub fn create_file(&mut self, name: impl Into<String>) -> FileId {
        self.stack.create_file(name)
    }

    // ------------------------------------------------------------------
    // Object creation and access
    // ------------------------------------------------------------------

    /// Inserts a new object of `class` at the end of `file`.
    ///
    /// `with_index_headroom` reserves the 8-slot index area (what O2
    /// does when the target collection is already indexed; creating
    /// objects *without* headroom and indexing later triggers the §3.2
    /// relocation storm).
    pub fn insert(
        &mut self,
        file: FileId,
        class: ClassId,
        values: &[Value],
        with_index_headroom: bool,
    ) -> Rid {
        let header = ObjectHeader::new(class, with_index_headroom);
        let mut bytes = std::mem::take(&mut self.scratch);
        record::encode_into(self.schema.class(class), &header, values, &mut bytes);
        let rid = self.append_record(file, &bytes);
        self.scratch = bytes;
        rid
    }

    /// Appends raw record bytes to `file`, opening a new page when the
    /// tail page is full (respecting the fill factor).
    fn append_record(&mut self, file: FileId, bytes: &[u8]) -> Rid {
        let fill = self.fill_limit;
        if let Some(&tail) = self.tails.get(&file) {
            let pid = PageId {
                file,
                page_no: tail,
            };
            if let Some(slot) = self.stack.write_page(pid, |p| p.insert(bytes, fill)) {
                return Rid::new(pid, slot);
            }
        }
        let pid = self.stack.allocate_page(file);
        self.tails.insert(file, pid.page_no);
        let slot = self
            .stack
            .write_page(pid, |p| p.insert(bytes, fill))
            .expect("record must fit an empty page");
        Rid::new(pid, slot)
    }

    /// The one fetch path: locates the record, hands its class and
    /// bytes to `decode` while they sit on the page, then pins the
    /// handle and charges the access. Returns the canonical rid and
    /// the handle's slot.
    fn fetch_with(
        &mut self,
        rid: Rid,
        decode: impl FnOnce(&ClassDef, &[u8]) -> Result<(), DecodeError>,
    ) -> (Rid, u32) {
        let schema = &self.schema;
        let rid = locate(&mut self.stack, rid, |rid, bytes| {
            let class = record::peek_class(bytes).expect("located record is an object");
            decode(schema.class(class), bytes)
                .unwrap_or_else(|e| panic!("corrupt record at {rid:?}: {e:?}"));
            rid
        });
        let (outcome, slot) = self.handles.get(rid);
        match outcome {
            GetOutcome::Allocated => self.stack.charge(CpuEvent::HandleAlloc, 1),
            GetOutcome::Touched | GetOutcome::Revived => {
                self.stack.charge(CpuEvent::HandleTouch, 1)
            }
        }
        (rid, slot)
    }

    /// Fetches an object, pinning its handle and charging the access.
    ///
    /// Decodes straight from the page image into a recycled [`Object`]
    /// (see [`ObjectStore::release`]) — no intermediate byte copy, and
    /// no allocation at all once the pool is warm.
    pub fn fetch(&mut self, rid: Rid) -> Fetched {
        let mut object = self.spare.pop().unwrap_or_default();
        let (rid, slot) = self.fetch_with(rid, |class, bytes| {
            record::decode_into(class, bytes, &mut object)
        });
        Fetched { rid, object, slot }
    }

    /// Unpins the handle and recycles the object's allocations for the
    /// next [`ObjectStore::fetch`]. Semantically identical to
    /// `unref(f.rid)` followed by dropping `f` — scan and join loops
    /// use this so a paper-scale pass stays off the allocator.
    pub fn release(&mut self, f: Fetched) {
        self.unref_slot(f.rid, f.slot);
        if self.spare.len() < OBJECT_POOL_CAP {
            self.spare.push(f.object);
        }
    }

    /// Like [`ObjectStore::fetch`], but decodes nothing — the guard
    /// holds the validated [`Record`] — and the pin comes back as an
    /// RAII [`ObjGuard`]: forgetting [`ObjectStore::release_guard`]
    /// panics in debug builds. Query operators fetch exclusively
    /// through this.
    pub fn fetch_guard(&mut self, rid: Rid) -> ObjGuard {
        let mut record = self.spare_records.pop().unwrap_or_default();
        let (rid, slot) = self.fetch_with(rid, |class, bytes| {
            record::view_into(class, bytes, &mut record)
        });
        ObjGuard {
            rid,
            slot,
            record,
            armed: true,
            object: OnceCell::new(),
        }
    }

    /// Consumes a guard: unpins the handle and recycles the record's
    /// buffers, exactly like [`ObjectStore::release`].
    pub fn release_guard(&mut self, mut guard: ObjGuard) {
        guard.armed = false;
        self.unref_slot(guard.rid, guard.slot);
        if self.spare_records.len() < OBJECT_POOL_CAP {
            self.spare_records.push(std::mem::take(&mut guard.record));
        }
    }

    /// Fetches `rid`, runs `f` with the guarded object, and releases —
    /// the pairing lives in one place, so early returns (deleted
    /// objects) cannot leak the pin.
    pub fn with_fetched<R>(&mut self, rid: Rid, f: impl FnOnce(&mut Self, &ObjGuard) -> R) -> R {
        let guard = self.fetch_guard(rid);
        let out = f(self, &guard);
        self.release_guard(guard);
        out
    }

    /// Fetches a batch of **distinct** objects into `out`, reading
    /// each off its page exactly as [`ObjectStore::fetch_guard`] would:
    /// per-rid page reads (forwarder hops included), then the handle
    /// get and its charge, in input order. Input order is preserved
    /// deliberately — LRU recency is order-sensitive, and batching is
    /// an execution detail that must not move a single counter.
    ///
    /// The rids (after forwarding) must be pairwise distinct: a
    /// duplicate would find its own still-pinned handle (`Touched`
    /// where a fetch/release loop sees `Revived`) and skew the handle
    /// counters. Every batched executor stream satisfies this by
    /// construction; debug builds verify it.
    pub fn fetch_batch(&mut self, rids: &[Rid], out: &mut ObjBatch) {
        debug_assert!(out.is_empty(), "fetch_batch into an armed ObjBatch");
        out.rids.clear();
        out.slots.clear();
        for (i, &rid) in rids.iter().enumerate() {
            if out.records.len() <= i {
                out.records.push(Record::default());
            }
            let record = &mut out.records[i];
            let (rid, slot) =
                self.fetch_with(rid, |class, bytes| record::view_into(class, bytes, record));
            out.rids.push(rid);
            out.slots.push(slot);
        }
        #[cfg(debug_assertions)]
        {
            let mut seen: std::collections::HashSet<Rid> = std::collections::HashSet::new();
            for &r in &out.rids {
                assert!(
                    seen.insert(r),
                    "fetch_batch requires distinct rids, got {r:?} twice"
                );
            }
        }
    }

    /// Unpins every entry of an armed batch, in fetch order — the same
    /// unref sequence (and the same `HandleUnref`/`HandleFree` charges)
    /// a fetch/release loop produces, just deferred to the end of the
    /// batch. With distinct rids the zombie pool sees the identical
    /// push order, so later revivals and evictions are unchanged. The
    /// shells stay in the arena for the next batch.
    pub fn release_batch(&mut self, batch: &mut ObjBatch) {
        for i in 0..batch.rids.len() {
            self.unref_slot(batch.rids[i], batch.slots[i]);
        }
        batch.rids.clear();
        batch.slots.clear();
    }

    /// Unpins a handle previously pinned by [`ObjectStore::fetch`].
    pub fn unref(&mut self, rid: Rid) {
        let frees = self.handles.unref(rid);
        self.charge_unref(frees);
    }

    /// [`ObjectStore::unref`] by the slot the fetch pinned: no lookup.
    fn unref_slot(&mut self, rid: Rid, slot: u32) {
        let frees = self.handles.unref_slot(rid, slot);
        self.charge_unref(frees);
    }

    fn charge_unref(&mut self, frees: u64) {
        self.stack.charge(CpuEvent::HandleUnref, 1);
        if frees > 0 {
            self.stack.charge(CpuEvent::HandleFree, frees);
        }
    }

    /// Charges the CPU cost of reading one attribute of a pinned
    /// object: an attribute fetch, plus a literal-handle get when the
    /// attribute is a separate literal record (strings, §4.4).
    pub fn charge_attr_access(&mut self, class: ClassId, attr: AttrId) {
        self.stack.charge(CpuEvent::AttrGet, 1);
        if self.schema.class(class).attrs[attr].ty.is_literal_record() {
            self.stack.charge(CpuEvent::HandleGetLiteral, 1);
        }
    }

    /// Ends a query: tears down the delayed-free handle pool and
    /// charges the deferred frees.
    pub fn end_of_query(&mut self) {
        let frees = self.handles.drain_zombies();
        if frees > 0 {
            self.stack.charge(CpuEvent::HandleFree, frees);
        }
    }

    // ------------------------------------------------------------------
    // Updates, relocation, index membership
    // ------------------------------------------------------------------

    /// Rewrites the attribute values of the object at `rid`, keeping
    /// its header. Returns the object's (possibly new) rid: when the
    /// record no longer fits its page it is relocated to the end of its
    /// file and a forwarder is left behind.
    pub fn update(&mut self, rid: Rid, values: &[Value]) -> Rid {
        // The header only: every value is replaced anyway, so the old
        // attributes are dead weight.
        let (canonical, header) = locate(&mut self.stack, rid, |rid, bytes| {
            let header = record::decode_header(bytes)
                .unwrap_or_else(|e| panic!("corrupt record at {rid:?}: {e:?}"));
            (rid, header)
        });
        let mut bytes = std::mem::take(&mut self.scratch);
        record::encode_into(self.schema.class(header.class), &header, values, &mut bytes);
        let final_rid = self.rewrite(canonical, &bytes);
        self.scratch = bytes;
        final_rid
    }

    /// Writes `new_bytes` at `rid`, relocating on overflow. Returns the
    /// final rid.
    fn rewrite(&mut self, rid: Rid, new_bytes: &[u8]) -> Rid {
        let updated = self
            .stack
            .write_page(rid.page, |p| p.update(rid.slot, new_bytes));
        if updated {
            return rid;
        }
        // Relocate: append, then leave a forwarder (always fits in
        // place of the old record, which was larger).
        let new_rid = self.append_record(rid.page.file, new_bytes);
        let fwd = record::encode_forwarder(new_rid);
        let ok = self
            .stack
            .write_page(rid.page, |p| p.update(rid.slot, &fwd));
        assert!(ok, "forwarder must fit in place of the old record");
        new_rid
    }

    /// Decodes the object at `rid` for a header rewrite, unpinned:
    /// `(canonical rid, class, object)`.
    fn load(&mut self, rid: Rid) -> (Rid, ClassId, Object) {
        let schema = &self.schema;
        locate(&mut self.stack, rid, |rid, bytes| {
            let class = record::peek_class(bytes).expect("located record is an object");
            let object = record::decode(schema.class(class), bytes)
                .unwrap_or_else(|e| panic!("corrupt record at {rid:?}: {e:?}"));
            (rid, class, object)
        })
    }

    /// Logically deletes the object at `rid`: its header gains the
    /// `DELETED` flag in place (same record size). Physical rids keep
    /// resolving — O2 cannot reclaim a slot other objects may
    /// reference — and every scan skips flagged objects. Returns the
    /// canonical rid.
    pub fn mark_deleted(&mut self, rid: Rid) -> Rid {
        let (canonical, class, mut object) = self.load(rid);
        object.header.mark_deleted();
        let new_bytes = record::encode(self.schema.class(class), &object.header, &object.values);
        let final_rid = self.rewrite(canonical, &new_bytes);
        debug_assert_eq!(final_rid, canonical, "flagging never grows the record");
        final_rid
    }

    /// Records that the object at `rid` now belongs to `index_id`,
    /// widening (and possibly relocating) the record if its header has
    /// no free index slot. Returns the final rid and whether the record
    /// was relocated.
    pub fn add_index_membership(&mut self, rid: Rid, index_id: u16) -> (Rid, bool, bool) {
        let (canonical, class, mut object) = self.load(rid);
        if object.header.add_index(index_id) {
            // Fits the existing headroom: rewrite in place (same size).
            let new_bytes =
                record::encode(self.schema.class(class), &object.header, &object.values);
            let final_rid = self.rewrite(canonical, &new_bytes);
            debug_assert_eq!(final_rid, canonical);
            return (final_rid, false, false);
        }
        object.header.widen_index_area();
        assert!(object.header.add_index(index_id), "widened header has room");
        let new_bytes = record::encode(self.schema.class(class), &object.header, &object.values);
        let final_rid = self.rewrite(canonical, &new_bytes);
        (final_rid, true, final_rid != canonical)
    }

    /// Registers `index_id` on every member of the named collection —
    /// the paper's "index after load" operation. When members were
    /// created without index headroom this rewrites (and partly
    /// relocates) the whole collection; the report says how bad it was.
    pub fn register_index_on_collection(&mut self, name: &str, index_id: u16) -> WideningReport {
        let info = self.collection(name);
        let mut cursor = RidRunCursor::new(info.run);
        let mut report = WideningReport::default();
        while let Some(rid) = cursor.next(&mut self.stack) {
            let (_final, widened, relocated) = self.add_index_membership(rid, index_id);
            report.objects += 1;
            report.widened += u64::from(widened);
            report.relocated += u64::from(relocated);
        }
        report
    }

    // ------------------------------------------------------------------
    // Collections
    // ------------------------------------------------------------------

    /// Materializes a named collection (e.g. the `Providers` root) as a
    /// rid run in its own file.
    pub fn create_collection(&mut self, name: &str, class: ClassId, rids: &[Rid]) {
        assert!(
            !self.collections.contains_key(name),
            "duplicate collection {name:?}"
        );
        let file = self.stack.create_file(format!("{name}.coll"));
        let run = ridlist::write_run(&mut self.stack, file, rids);
        let data_pages = {
            let mut pages: Vec<PageId> = rids.iter().map(|r| r.page).collect();
            pages.sort_unstable();
            pages.dedup();
            pages.len() as u64
        };
        self.collections.insert(
            name.to_string(),
            CollectionInfo {
                class,
                run,
                data_pages,
            },
        );
    }

    /// Looks a collection up; panics with the name when absent (see
    /// [`ObjectStore::try_collection`] for the non-panicking form).
    pub fn collection(&self, name: &str) -> CollectionInfo {
        self.try_collection(name)
            .unwrap_or_else(|| panic!("no collection named {name:?}"))
    }

    /// Looks a collection up.
    pub fn try_collection(&self, name: &str) -> Option<CollectionInfo> {
        self.collections.get(name).copied()
    }

    /// Names of all collections (sorted, for deterministic output).
    pub fn collection_names(&self) -> Vec<&str> {
        let mut v: Vec<&str> = self.collections.keys().map(String::as_str).collect();
        v.sort_unstable();
        v
    }

    /// A cursor over a named collection's members.
    pub fn collection_cursor(&self, name: &str) -> RidRunCursor {
        RidRunCursor::new(self.collection(name).run)
    }

    /// A cursor over a set attribute's members. Inline sets iterate in
    /// memory (the owning record is already pinned); overflow sets read
    /// their rid-run pages through the cache.
    pub fn set_cursor<'a>(&self, set: &'a SetValue) -> SetCursor<'a> {
        match *set {
            SetValue::Inline(ref rids) => SetCursor::Inline(rids),
            SetValue::Overflow {
                file,
                first_page,
                count,
            } => SetCursor::overflow(file, first_page, count),
        }
    }

    /// Writes a large set's members to the overflow file, returning the
    /// [`SetValue::Overflow`] descriptor to store in the owning record.
    pub fn write_overflow_set(&mut self, overflow_file: FileId, rids: &[Rid]) -> SetValue {
        let run = ridlist::write_run(&mut self.stack, overflow_file, rids);
        SetValue::Overflow {
            file: overflow_file,
            first_page: run.first_page,
            count: rids.len() as u32,
        }
    }

    // ------------------------------------------------------------------
    // Metrics passthrough
    // ------------------------------------------------------------------

    /// Flushes dirty pages (charging writes, and log writes when
    /// logging is enabled).
    /// Adopts one file wholesale from `src` — pages (shared, see
    /// [`StorageStack::adopt_file_from`]) plus this store's
    /// file-level bookkeeping: the append tail. The MVCC merge path
    /// uses this to splice a committed transaction's files into a
    /// newer epoch; collection-level catalog entries are positional
    /// (rid lists don't move on adoption) and need no fixup.
    pub fn adopt_file_from(&mut self, src: &ObjectStore, file: FileId) {
        self.stack.adopt_file_from(&src.stack, file);
        match src.tails.get(&file) {
            Some(&tail) => {
                self.tails.insert(file, tail);
            }
            None => {
                self.tails.remove(&file);
            }
        }
    }

    pub fn commit(&mut self) {
        self.stack.commit();
    }

    /// Cold restart: commit, drop both caches and the delayed-free
    /// handle pool (the paper's between-queries server shutdown). The
    /// pool goes uncharged: no clock, counter or handle statistic
    /// moves, so the next measured window starts cold in handles too.
    pub fn cold_restart(&mut self) {
        self.stack.cold_restart();
        self.handles.discard_zombies();
    }

    /// Zeroes clock and I/O counters.
    pub fn reset_metrics(&mut self) {
        self.stack.reset_metrics();
    }

    /// I/O counters.
    pub fn stats(&self) -> IoStats {
        self.stack.stats()
    }

    /// The simulated clock.
    pub fn clock(&self) -> &SimClock {
        self.stack.clock()
    }

    /// Charges CPU events (query operators use this for their own
    /// work: hashing, sorting, result construction).
    pub fn charge(&mut self, event: CpuEvent, count: u64) {
        self.stack.charge(event, count);
    }

    /// Handle-traffic statistics.
    pub fn handle_stats(&self) -> HandleStats {
        self.handles.stats()
    }

    /// Sizes the handle table for one query: a full delayed-free pool
    /// plus one batch of pinned objects. A store clone starts with an
    /// empty table; reserving it where the clone is made keeps the
    /// thread that runs the query from growing it by doubling.
    pub fn reserve_handles(&mut self) {
        self.handles.reserve(self.batch_size);
    }

    /// Handles currently pinned (live, not in the delayed-free pool).
    /// Zero between queries unless an operator leaked a guard.
    pub fn live_handles(&self) -> usize {
        self.handles.live_count()
    }

    /// Size of one encoded object of `class` with the given values —
    /// used by workload builders to compute placement.
    pub fn encoded_len(
        &self,
        class: ClassId,
        values: &[Value],
        with_index_headroom: bool,
    ) -> usize {
        let header = ObjectHeader::new(class, with_index_headroom);
        record::encode(self.schema.class(class), &header, values).len()
    }
}

/// Follows forwarders from `rid` to the canonical record and runs `f`
/// on its rid and its bytes, in place on the page. Each hop is a
/// (charged) page access.
fn locate<R>(stack: &mut StorageStack, mut rid: Rid, f: impl FnOnce(Rid, &[u8]) -> R) -> R {
    loop {
        let bytes = stack
            .read_page(rid.page)
            .read(rid.slot)
            .unwrap_or_else(|| panic!("dangling rid {rid:?}"));
        match record::forwarder_target(bytes) {
            Some(next) => rid = next,
            None => return f(rid, bytes),
        }
    }
}

/// Cursor over a set attribute's members. The inline variants hold the
/// members *not yet returned*.
#[derive(Clone, Debug)]
pub enum SetCursor<'a> {
    /// Inline set of a decoded [`SetValue`] (no copy).
    Inline(&'a [Rid]),
    /// Inline set of a [`Record`]: the members' 8-byte encodings.
    InlineRaw(&'a [u8]),
    /// Overflow set: members streamed from rid-run pages.
    Overflow(RidRunCursor),
}

impl SetCursor<'_> {
    /// A cursor over the overflow set `count` rids long that starts at
    /// `first_page` of `file`.
    pub(crate) fn overflow(file: FileId, first_page: u32, count: u32) -> Self {
        SetCursor::Overflow(RidRunCursor::new(RidRun {
            file,
            first_page,
            page_count: (count as u64).div_ceil(RIDS_PER_PAGE as u64) as u32,
            count: count as u64,
        }))
    }

    /// Next member rid.
    pub fn next(&mut self, stack: &mut StorageStack) -> Option<Rid> {
        match self {
            SetCursor::Inline(rids) => {
                let (&rid, rest) = rids.split_first()?;
                *rids = rest;
                Some(rid)
            }
            SetCursor::InlineRaw(bytes) => {
                let (rid, rest) = bytes.split_first_chunk::<RID_BYTES>()?;
                *bytes = rest;
                Some(Rid::decode(rid))
            }
            SetCursor::Overflow(c) => c.next(stack),
        }
    }

    /// Number of members not yet returned.
    pub fn remaining(&self) -> u64 {
        match self {
            SetCursor::Inline(rids) => rids.len() as u64,
            SetCursor::InlineRaw(bytes) => (bytes.len() / RID_BYTES) as u64,
            SetCursor::Overflow(c) => c.remaining(),
        }
    }

    /// True for inline sets — the members live in the decoded owning
    /// record, so draining them touches no pages. A batched caller can
    /// chunk an inline set's fan-out freely: the page-access sequence
    /// is the member fetches alone, identical to a one-at-a-time loop.
    /// Overflow sets interleave rid-run page reads with the member
    /// fetches; reordering those would perturb cache recency.
    pub fn is_inline(&self) -> bool {
        !matches!(self, SetCursor::Overflow(_))
    }

    /// Drains up to `max` member rids into `out`. Inline sets drain
    /// from memory (no I/O, any chunk size); overflow sets delegate to
    /// [`RidRunCursor::next_chunk`], which stops at rid-run page
    /// boundaries so a batched caller keeps the scalar page-access
    /// interleave. Appends nothing when the set is exhausted.
    pub fn next_chunk(&mut self, stack: &mut StorageStack, max: usize, out: &mut Vec<Rid>) {
        match self {
            SetCursor::Inline(rids) => {
                let (now, rest) = rids.split_at(max.min(rids.len()));
                out.extend_from_slice(now);
                *rids = rest;
            }
            SetCursor::InlineRaw(bytes) => {
                let (now, rest) = bytes.split_at(max.saturating_mul(RID_BYTES).min(bytes.len()));
                out.extend(now.chunks_exact(RID_BYTES).map(Rid::decode));
                *bytes = rest;
            }
            SetCursor::Overflow(c) => c.next_chunk(stack, max, out),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tq_pagestore::{CacheConfig, CostModel};

    /// A tiny one-class schema: Item { key: Int, label: Str }.
    fn item_store() -> (ObjectStore, ClassId, FileId) {
        let mut schema = Schema::new();
        let item = schema.add_class(
            "Item",
            vec![("key", AttrType::Int), ("label", AttrType::Str)],
        );
        let stack = StorageStack::new(CostModel::sparc20(), CacheConfig::default());
        let mut store = ObjectStore::new(schema, stack);
        let file = store.create_file("items");
        (store, item, file)
    }

    fn item_values(key: i32, label: &str) -> Vec<Value> {
        vec![Value::Int(key), Value::Str(label.to_string())]
    }

    #[test]
    fn insert_fetch_round_trip() {
        let (mut store, item, file) = item_store();
        let rid = store.insert(file, item, &item_values(7, "seven"), true);
        let fetched = store.fetch(rid);
        assert_eq!(fetched.rid, rid);
        assert_eq!(fetched.object.values, item_values(7, "seven"));
        assert_eq!(fetched.object.header.class, item);
        store.unref(rid);
    }

    #[test]
    fn guarded_fetch_round_trip_matches_fetch() {
        let (mut store, item, file) = item_store();
        let rid = store.insert(file, item, &item_values(7, "seven"), true);
        store.cold_restart();
        store.reset_metrics();
        let g = store.fetch_guard(rid);
        assert_eq!(g.rid(), rid);
        assert!(!g.is_deleted());
        assert_eq!(g.object().values, item_values(7, "seven"));
        store.release_guard(g);
        // Same charges as a fetch/unref pair.
        let m = store.stack().model().clone();
        assert_eq!(store.clock().cpu_time(), m.handle_alloc + m.handle_unref);
        let h = store.handle_stats();
        assert_eq!(h.allocations, 1);
        assert_eq!(h.unrefs, 1);
    }

    #[test]
    fn with_fetched_releases_on_early_return() {
        let (mut store, item, file) = item_store();
        let rid = store.insert(file, item, &item_values(1, "victim"), true);
        store.mark_deleted(rid);
        store.cold_restart();
        store.reset_metrics();
        let skipped = store.with_fetched(rid, |_store, g| {
            if g.is_deleted() {
                return true; // the easy-to-leak continue path
            }
            false
        });
        assert!(skipped);
        let h = store.handle_stats();
        assert_eq!(h.unrefs, 1, "early return still unpins");
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "leaked handle pin")]
    fn dropping_an_armed_guard_panics_in_debug() {
        let (mut store, item, file) = item_store();
        let rid = store.insert(file, item, &item_values(1, "a"), true);
        let guard = store.fetch_guard(rid);
        drop(guard); // never released: the leak check must fire
    }

    #[test]
    fn objects_fill_pages_in_creation_order() {
        let (mut store, item, file) = item_store();
        let rids: Vec<Rid> = (0..200)
            .map(|i| store.insert(file, item, &item_values(i, "xxxxxxxxxxxxxxxx"), true))
            .collect();
        // Rid order equals creation order.
        let mut sorted = rids.clone();
        sorted.sort();
        assert_eq!(sorted, rids);
        // Several records share pages.
        assert!(store.stack().disk().file_len(file) < 200);
    }

    #[test]
    fn fill_factor_leaves_slack() {
        let (mut store, item, file) = item_store();
        store.set_fill_limit(PAGE_SIZE / 2);
        for i in 0..100 {
            store.insert(file, item, &item_values(i, "0123456789abcdef"), true);
        }
        let pages = store.stack().disk().file_len(file);
        // ~47 bytes per record incl. slot; half-page fill → ~43/page.
        assert!(pages >= 2, "fill limit forces extra pages, got {pages}");
    }

    #[test]
    fn update_in_place_keeps_rid() {
        let (mut store, item, file) = item_store();
        let rid = store.insert(file, item, &item_values(1, "abcdefgh"), true);
        let new_rid = store.update(rid, &item_values(2, "abcd"));
        assert_eq!(new_rid, rid);
        let f = store.fetch(rid);
        assert_eq!(f.object.values, item_values(2, "abcd"));
        store.unref(rid);
    }

    #[test]
    fn growing_update_relocates_and_forwards() {
        let (mut store, item, file) = item_store();
        // Fill the first page almost completely.
        let first = store.insert(file, item, &item_values(0, "tiny"), true);
        for i in 1..90 {
            store.insert(
                file,
                item,
                &item_values(i, "0123456789abcdefghij0123456789abcdef"),
                true,
            );
        }
        // Grow `first` beyond what page slack allows.
        let big = "x".repeat(3000);
        let new_rid = store.update(first, &item_values(0, &big));
        assert_ne!(new_rid, first, "record must relocate");
        // Fetch through the *old* rid follows the forwarder.
        let f = store.fetch(first);
        assert_eq!(f.rid, new_rid);
        assert_eq!(f.object.values[1], Value::Str(big));
        store.unref(f.rid);
    }

    #[test]
    fn forwarder_chase_costs_an_extra_page_access() {
        let (mut store, item, file) = item_store();
        let first = store.insert(file, item, &item_values(0, "tiny"), true);
        for i in 1..90 {
            store.insert(
                file,
                item,
                &item_values(i, "0123456789abcdefghij0123456789abcdef"),
                true,
            );
        }
        let moved = store.update(first, &item_values(0, &"x".repeat(3000)));
        store.cold_restart();
        store.reset_metrics();
        let f = store.fetch(first);
        store.unref(f.rid);
        let via_old = store.stats().client_misses;
        store.cold_restart();
        store.reset_metrics();
        let f = store.fetch(moved);
        store.unref(f.rid);
        let direct = store.stats().client_misses;
        assert!(
            via_old > direct,
            "forwarded access ({via_old} faults) must cost more than direct ({direct})"
        );
    }

    #[test]
    fn cold_restart_drains_the_handle_pool_off_the_clock() {
        let (mut store, item, file) = item_store();
        let rids: Vec<Rid> = (0..10)
            .map(|k| store.insert(file, item, &item_values(k, "x"), true))
            .collect();
        store.commit();
        for &rid in &rids {
            let f = store.fetch(rid);
            store.release(f);
        }
        // A pin held across the restart survives it.
        let held = store.fetch_guard(rids[0]);
        let (clock, io, handles) = (store.clock().elapsed(), store.stats(), store.handle_stats());
        store.cold_restart();
        assert_eq!(store.clock().elapsed(), clock);
        assert_eq!(store.stats(), io);
        assert_eq!(store.handle_stats(), handles);
        assert_eq!(store.live_handles(), 1);
        store.release_guard(held);
        // Nothing is left to revive: the next fetch allocates.
        let f = store.fetch(rids[1]);
        store.release(f);
        assert_eq!(store.handle_stats().allocations, handles.allocations + 1);
        assert_eq!(store.handle_stats().revivals, handles.revivals);
    }

    #[test]
    fn handle_charges_hit_the_clock() {
        let (mut store, item, file) = item_store();
        let rid = store.insert(file, item, &item_values(1, "a"), true);
        store.cold_restart();
        store.reset_metrics();
        let f = store.fetch(rid);
        store.unref(f.rid);
        let cpu = store.clock().cpu_time();
        let m = store.stack().model().clone();
        assert_eq!(cpu, m.handle_alloc + m.handle_unref);
        // Second fetch revives the zombied handle: a touch, not an alloc.
        let before = store.clock().cpu_time();
        let f = store.fetch(rid);
        store.unref(f.rid);
        assert_eq!(
            store.clock().cpu_time() - before,
            m.handle_touch + m.handle_unref
        );
    }

    #[test]
    fn attr_access_charges_literal_handles_for_strings() {
        let (mut store, item, _) = item_store();
        store.reset_metrics();
        store.charge_attr_access(item, 0); // Int
        let int_cost = store.clock().cpu_time();
        store.charge_attr_access(item, 1); // Str
        let str_cost = store.clock().cpu_time() - int_cost;
        let m = store.stack().model();
        assert_eq!(int_cost, m.attr_get);
        assert_eq!(str_cost, m.attr_get + m.handle_literal);
    }

    #[test]
    fn collections_round_trip() {
        let (mut store, item, file) = item_store();
        let rids: Vec<Rid> = (0..700)
            .map(|i| store.insert(file, item, &item_values(i, "l"), true))
            .collect();
        store.create_collection("Items", item, &rids);
        let info = store.collection("Items");
        assert_eq!(info.class, item);
        assert_eq!(info.run.count, 700);
        let mut cursor = store.collection_cursor("Items");
        let mut seen = Vec::new();
        while let Some(r) = cursor.next(store.stack_mut()) {
            seen.push(r);
        }
        assert_eq!(seen, rids);
        assert!(store.try_collection("Nope").is_none());
        assert_eq!(store.collection_names(), vec!["Items"]);
    }

    #[test]
    fn overflow_sets_round_trip() {
        let (mut store, item, file) = item_store();
        let members: Vec<Rid> = (0..1000)
            .map(|i| store.insert(file, item, &item_values(i, "m"), true))
            .collect();
        let ovf = store.create_file("overflow");
        let set = store.write_overflow_set(ovf, &members);
        assert_eq!(set.len(), 1000);
        let mut cursor = store.set_cursor(&set);
        assert_eq!(cursor.remaining(), 1000);
        let mut seen = Vec::new();
        while let Some(r) = cursor.next(store.stack_mut()) {
            seen.push(r);
        }
        assert_eq!(seen, members);
    }

    #[test]
    fn inline_set_cursor_needs_no_io() {
        let (mut store, item, file) = item_store();
        let a = store.insert(file, item, &item_values(1, "a"), true);
        let b = store.insert(file, item, &item_values(2, "b"), true);
        let set = SetValue::Inline(vec![a, b]);
        store.cold_restart();
        store.reset_metrics();
        let mut cursor = store.set_cursor(&set);
        let mut seen = Vec::new();
        while let Some(r) = cursor.next(store.stack_mut()) {
            seen.push(r);
        }
        assert_eq!(seen, vec![a, b]);
        assert_eq!(store.stats().client_misses, 0);
    }

    #[test]
    fn exhausted_inline_cursors_report_nothing_remaining() {
        // `next` past the end used to keep advancing the position, and
        // `remaining` then subtracted it from the length.
        let (mut store, item, file) = item_store();
        let a = store.insert(file, item, &item_values(1, "a"), true);
        let set = SetValue::Inline(vec![a]);
        let raw = a.encode();
        for mut cursor in [store.set_cursor(&set), SetCursor::InlineRaw(&raw)] {
            assert!(cursor.is_inline());
            assert_eq!(cursor.remaining(), 1);
            assert_eq!(cursor.next(store.stack_mut()), Some(a));
            for _ in 0..2 {
                assert_eq!(cursor.next(store.stack_mut()), None);
                assert_eq!(cursor.remaining(), 0);
            }
            let mut out = Vec::new();
            cursor.next_chunk(store.stack_mut(), 8, &mut out);
            assert!(out.is_empty());
        }
    }

    #[test]
    fn mark_deleted_flags_in_place() {
        let (mut store, item, file) = item_store();
        let rid = store.insert(file, item, &item_values(1, "victim"), true);
        let other = store.insert(file, item, &item_values(2, "bystander"), true);
        let final_rid = store.mark_deleted(rid);
        assert_eq!(final_rid, rid, "flagging must not relocate");
        let f = store.fetch(rid);
        assert!(f.object.header.is_deleted());
        assert_eq!(f.object.values, item_values(1, "victim"), "values survive");
        store.unref(f.rid);
        let f = store.fetch(other);
        assert!(!f.object.header.is_deleted());
        store.unref(f.rid);
        // Deleting through a forwarder flags the relocated record.
        let moved = store.update(other, &item_values(2, &"z".repeat(3000)));
        if moved != other {
            store.mark_deleted(other); // via the old rid
            let f = store.fetch(moved);
            assert!(f.object.header.is_deleted());
            store.unref(f.rid);
        }
    }

    #[test]
    fn index_membership_with_headroom_stays_in_place() {
        let (mut store, item, file) = item_store();
        let rid = store.insert(file, item, &item_values(1, "a"), true);
        let (final_rid, widened, relocated) = store.add_index_membership(rid, 5);
        assert_eq!(final_rid, rid);
        assert!(!widened);
        assert!(!relocated);
        let f = store.fetch(rid);
        assert_eq!(f.object.header.index_ids, vec![5]);
        store.unref(rid);
    }

    #[test]
    fn first_index_without_headroom_widens_every_object() {
        let (mut store, item, file) = item_store();
        // Pack objects with NO index headroom at 100% fill: widening
        // must relocate many of them.
        store.set_fill_limit(PAGE_SIZE);
        let rids: Vec<Rid> = (0..300)
            .map(|i| store.insert(file, item, &item_values(i, "0123456789abcdef"), false))
            .collect();
        store.create_collection("Items", item, &rids);
        let pages_before = store.stack().disk().file_len(file);
        let report = store.register_index_on_collection("Items", 1);
        assert_eq!(report.objects, 300);
        assert_eq!(report.widened, 300, "every header must widen");
        assert!(
            report.relocated > 100,
            "full pages cannot absorb 16 extra bytes each; {} relocated",
            report.relocated
        );
        assert!(store.stack().disk().file_len(file) > pages_before);
        // Objects remain reachable through forwarders and carry the
        // index id.
        let f = store.fetch(rids[0]);
        assert_eq!(f.object.header.index_ids, vec![1]);
        store.unref(f.rid);
    }

    #[test]
    fn index_with_headroom_avoids_relocation_entirely() {
        let (mut store, item, file) = item_store();
        let rids: Vec<Rid> = (0..300)
            .map(|i| store.insert(file, item, &item_values(i, "0123456789abcdef"), true))
            .collect();
        store.create_collection("Items", item, &rids);
        let report = store.register_index_on_collection("Items", 1);
        assert_eq!(report.widened, 0);
        assert_eq!(report.relocated, 0);
    }

    #[test]
    fn fetch_batch_charges_exactly_like_a_fetch_loop() {
        // Three identical stores, same rid stream: an eager fetch/unref
        // loop, fetch_batch/release_batch, and a lazy fetch_guard loop.
        // Every observable counter must match — batching and laziness
        // are execution details.
        let build = || {
            let (mut store, item, file) = item_store();
            let rids: Vec<Rid> = (0..250)
                .map(|i| store.insert(file, item, &item_values(i, "payload"), true))
                .collect();
            store.cold_restart();
            store.reset_metrics();
            (store, rids)
        };
        let (mut a, rids_a) = build();
        for &rid in &rids_a {
            // Immediate release — the strictest comparison: the batch
            // defers releases to the chunk end, and for a duplicate-free
            // stream that deferral must be counter-invisible.
            let f = a.fetch(rid);
            assert!(!f.object.header.is_deleted());
            a.unref(rid);
        }
        let (mut b, rids_b) = build();
        assert_eq!(rids_a, rids_b);
        let mut batch = ObjBatch::default();
        for chunk in rids_b.chunks(64) {
            b.fetch_batch(chunk, &mut batch);
            assert_eq!(batch.len(), chunk.len());
            for (i, &want) in chunk.iter().enumerate() {
                let (rid, obj) = batch.get(i);
                assert_eq!(rid, want);
                assert!(!obj.is_deleted());
            }
            b.release_batch(&mut batch);
            assert!(batch.is_empty());
        }
        let (mut c, rids_c) = build();
        for (i, &rid) in rids_c.iter().enumerate() {
            let g = c.fetch_guard(rid);
            assert_eq!(g.int(0), Some(i as i32));
            c.release_guard(g);
        }
        for lazy in [&b, &c] {
            assert_eq!(a.stats(), lazy.stats());
            assert_eq!(a.handle_stats(), lazy.handle_stats());
            assert_eq!(a.clock().io_time(), lazy.clock().io_time());
            assert_eq!(a.clock().cpu_time(), lazy.clock().cpu_time());
        }
    }

    #[test]
    fn fetch_batch_follows_forwarders_to_canonical_rids() {
        let (mut store, item, file) = item_store();
        store.set_fill_limit(PAGE_SIZE);
        let rids: Vec<Rid> = (0..300)
            .map(|i| store.insert(file, item, &item_values(i, "0123456789abcdef"), false))
            .collect();
        store.create_collection("Items", item, &rids);
        // Widening without headroom relocates objects behind forwarders.
        let report = store.register_index_on_collection("Items", 1);
        assert!(report.relocated > 0, "need forwarded objects to test");
        store.end_of_query();
        let mut batch = ObjBatch::default();
        store.fetch_batch(&rids[..50], &mut batch);
        for (i, &orig) in rids[..50].iter().enumerate() {
            let (canonical, record) = batch.get(i);
            let scalar = store.fetch(orig);
            assert_eq!(canonical, scalar.rid, "same canonical rid as fetch");
            let mut obj = Object::default();
            record.decode_into(&mut obj).unwrap();
            assert_eq!(obj, scalar.object);
            store.unref(scalar.rid);
        }
        store.release_batch(&mut batch);
    }
}
