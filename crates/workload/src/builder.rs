//! Database construction for all shapes and organizations.
//!
//! The builder follows the paper's own loading recipe (§3.2): create
//! the objects (placement = creation order, chosen per organization),
//! then *update the association* between doctors and patients (the
//! authors used a join for this; we hold the assignment in memory),
//! then materialize the named collections and build the three indexes
//! post-load.

use crate::config::{BuildConfig, DbShape, Organization};
use crate::derby::DerbySchema;
#[cfg(test)]
use crate::derby::{patient_attr, provider_attr};
use tq_index::BTreeIndex;
use tq_objstore::{ObjectStore, Rid, SetValue, Value};
use tq_pagestore::StorageStack;
use tq_simrng::SimRng;

/// Index id of the clustered `Provider.upin` index.
pub const IDX_UPIN: u16 = 1;
/// Index id of the clustered `Patient.mrn` index.
pub const IDX_MRN: u16 = 2;
/// Index id of the unclustered `Patient.num` index.
pub const IDX_NUM: u16 = 3;

/// A fully built database: store, schema handles, indexes, counts.
///
/// `Clone` yields an independent copy of the whole simulated machine;
/// the figure harness builds one master per figure and clones it per
/// measurement cell so cells can run in parallel.
#[derive(Clone)]
pub struct Database {
    /// The object store (owns the storage stack and clock).
    pub store: ObjectStore,
    /// Schema handles.
    pub derby: DerbySchema,
    /// The configuration it was built from.
    pub config: BuildConfig,
    /// I/O counters accumulated while loading (before the post-build
    /// metric reset) — consumed by the §3.2 loading experiment.
    pub load_stats: Option<tq_pagestore::IoStats>,
    /// Simulated seconds the load took.
    pub load_clock_secs: f64,
    /// Number of providers stored *here* (the local shard's share when
    /// the database is a partition; the whole extent otherwise).
    pub provider_count: u64,
    /// Number of patients stored here (see [`Database::provider_count`]).
    pub patient_count: u64,
    /// Number of providers in the *logical* database — equal to
    /// `provider_count` for an unsharded build; the full pre-partition
    /// count on a shard. Selectivity keys derive from the logical
    /// counts so every shard (and the unsharded engine) agrees on key
    /// thresholds and query text.
    pub logical_provider_count: u64,
    /// Number of patients in the logical database (see
    /// [`Database::logical_provider_count`]).
    pub logical_patient_count: u64,
    /// Clustered index on `Provider.upin`.
    pub idx_provider_upin: BTreeIndex,
    /// Clustered index on `Patient.mrn`.
    pub idx_patient_mrn: BTreeIndex,
    /// Unclustered index on `Patient.num` (key is uniform random in
    /// `0 .. patient_count`).
    pub idx_patient_num: BTreeIndex,
}

impl Database {
    /// The `mrn` threshold selecting `pct`% of patients
    /// (`mrn < key`). Logical-count based: identical on every shard
    /// of a partitioned database.
    pub fn patient_selectivity_key(&self, pct: u32) -> i64 {
        (self.logical_patient_count as i64 * pct as i64) / 100
    }

    /// The `upin` threshold selecting `pct`% of providers
    /// (`upin < key`). Logical-count based, like
    /// [`Database::patient_selectivity_key`].
    pub fn provider_selectivity_key(&self, pct: u32) -> i64 {
        (self.logical_provider_count as i64 * pct as i64) / 100
    }

    /// The `num` threshold selecting `pct`% of patients (`num < key`;
    /// `num` is uniform in `0 .. logical_patient_count`).
    pub fn num_selectivity_key(&self, pct: u32) -> i64 {
        (self.logical_patient_count as i64 * pct as i64) / 100
    }

    /// Splices a committed transaction's write-set into this database:
    /// every touched file is adopted wholesale from `src` (pages stay
    /// shared — see `ObjectStore::adopt_file_from`), and the B-tree
    /// descriptors whose node file was rewritten come along with it,
    /// since root/height/entry-count live in the descriptor rather
    /// than on a page. The MVCC epoch-merge path calls this with
    /// `self` = a clone of the newest epoch and `src` = the committing
    /// session's database, after validating that `ws` is disjoint from
    /// every epoch published since the session's base.
    pub fn absorb_write_set(&mut self, src: &Database, ws: &tq_pagestore::WriteSet) {
        for fw in ws.files() {
            self.store.adopt_file_from(&src.store, fw.file);
        }
        if ws.touches(src.idx_provider_upin.file) {
            self.idx_provider_upin = src.idx_provider_upin.clone();
        }
        if ws.touches(src.idx_patient_mrn.file) {
            self.idx_patient_mrn = src.idx_patient_mrn.clone();
        }
        if ws.touches(src.idx_patient_num.file) {
            self.idx_patient_num = src.idx_patient_num.clone();
        }
    }

    /// Convenience: run a closure between a cold restart + metric reset
    /// and an end-of-query handle drain; returns elapsed simulated
    /// seconds (the paper's measurement protocol).
    pub fn measure_cold<R>(&mut self, f: impl FnOnce(&mut Self) -> R) -> (R, f64) {
        self.store.cold_restart();
        self.store.reset_metrics();
        let out = f(self);
        self.store.end_of_query();
        (out, self.store.clock().elapsed_secs())
    }
}

/// Writes `{prefix}-{n}` padded with `.` to exactly 16 bytes into a
/// recycled string. The build loops fill millions of these; writing in
/// place keeps the whole pass off the allocator.
fn pad16_into(out: &mut String, prefix: &str, n: i64) {
    out.clear();
    out.push_str(prefix);
    out.push('-');
    if n < 0 {
        out.push('-');
    }
    // The digits, written last to first: `core::fmt` costs more than
    // the rest of a record's build.
    let mut digits = [0u8; 20];
    let mut at = digits.len();
    let mut v = n.unsigned_abs();
    loop {
        at -= 1;
        digits[at] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    out.extend(digits[at..].iter().map(|&d| d as char));
    while out.len() < 16 {
        out.push('.');
    }
    out.truncate(16);
}

fn str_slot(slot: &mut Value, prefix: &str, n: i64) {
    match slot {
        Value::Str(s) => pad16_into(s, prefix, n),
        _ => unreachable!("template slot holds a string"),
    }
}

/// Reusable attribute buffers for provider / patient records. One pair
/// serves every insert and update of a build: the string (and, for
/// Db2, inline-set) buffers are rewritten in place.
struct ValueTemplates {
    provider: Vec<Value>,
    patient: Vec<Value>,
}

impl ValueTemplates {
    fn new() -> Self {
        Self {
            provider: vec![
                Value::Str(String::new()),
                Value::Int(0),
                Value::Str(String::new()),
                Value::Str(String::new()),
                Value::Str(String::new()),
                Value::Set(SetValue::Inline(Vec::new())),
            ],
            patient: vec![
                Value::Str(String::new()),
                Value::Int(0),
                Value::Int(0),
                Value::Char(0),
                Value::Int(0),
                Value::Int(0),
                Value::Ref(Rid::nil()),
            ],
        }
    }

    /// Fills the provider attributes except the clients set (slot 5).
    fn fill_provider(&mut self, upin: i64) {
        let v = &mut self.provider;
        str_slot(&mut v[0], "prov", upin);
        v[1] = Value::Int(upin as i32);
        str_slot(&mut v[2], "addr", upin);
        str_slot(&mut v[3], "spec", upin % 40);
        str_slot(&mut v[4], "office", upin % 500);
    }

    /// Sets the provider clients slot to an inline set of `rids`,
    /// recycling the template's buffer.
    fn set_clients_inline(&mut self, rids: &[Rid]) {
        match &mut self.provider[5] {
            Value::Set(SetValue::Inline(v)) => {
                v.clear();
                v.extend_from_slice(rids);
            }
            slot => *slot = Value::Set(SetValue::Inline(rids.to_vec())),
        }
    }

    /// Sets the provider clients slot to `nil` placeholders (same
    /// encoded size as the final inline set, updated during wiring).
    fn set_clients_placeholder(&mut self, fanout: usize) {
        match &mut self.provider[5] {
            Value::Set(SetValue::Inline(v)) => {
                v.clear();
                v.resize(fanout, Rid::nil());
            }
            slot => *slot = Value::Set(SetValue::Inline(vec![Rid::nil(); fanout])),
        }
    }

    fn set_clients_overflow(&mut self, set: SetValue) {
        self.provider[5] = Value::Set(set);
    }

    fn fill_patient(
        &mut self,
        mrn: i64,
        age: i32,
        sex: u8,
        random_integer: i32,
        num: i64,
        pcp: Rid,
    ) {
        let v = &mut self.patient;
        str_slot(&mut v[0], "pat", mrn);
        v[1] = Value::Int(mrn as i32);
        v[2] = Value::Int(age);
        v[3] = Value::Char(sex);
        v[4] = Value::Int(random_integer);
        v[5] = Value::Int(num as i32);
        v[6] = Value::Ref(pcp);
    }
}

/// What gets created at one step of the creation plan. Payloads are
/// *logical* ids: provider `upin` / patient `mrn` — placement order is
/// the plan order, logical ids never change across organizations.
enum PlanItem {
    Provider(u32),
    Patient(u32),
}

/// Loading knobs for [`build_with_load_knobs`] — the §3.2 pitfalls.
#[derive(Clone, Debug)]
pub struct LoadKnobs {
    /// Load without a transaction log.
    pub transaction_off: bool,
    /// Commit after this many object creations/updates.
    pub commit_every: usize,
    /// Re-run the wiring join on every wiring commit: the paper's
    /// naive association update re-scanned both collections because
    /// "we cannot perform too many updates within the same
    /// transaction" and they had not yet learned to avoid "performing
    /// the same and very large join too many times".
    pub join_rescan_on_commit: bool,
}

impl Default for LoadKnobs {
    fn default() -> Self {
        Self {
            transaction_off: true,
            commit_every: usize::MAX,
            join_rescan_on_commit: false,
        }
    }
}

/// Restricts a build to the objects one shard owns (see
/// `partition::partition_database`). Ownership is per provider *tree*:
/// a shard owning provider `i` owns every patient assigned to `i`, so
/// no association ever crosses a shard boundary.
pub(crate) struct PartitionFilter {
    /// `own_provider[i]` — does this shard own provider (upin) `i`?
    pub own_provider: Vec<bool>,
}

/// Builds a database per `config`. Deterministic for a given seed.
/// Loads in the paper's tuned mode: transactions off, one commit at
/// the end.
pub fn build(config: &BuildConfig) -> Database {
    build_with_load_knobs(config, &LoadKnobs::default())
}

/// Builds a database with explicit §3.2 loading knobs.
pub fn build_with_load_knobs(config: &BuildConfig, knobs: &LoadKnobs) -> Database {
    build_filtered(config, knobs, None)
}

/// The build recipe, optionally restricted to one shard's objects.
///
/// The filtered build replays the *exact* unsharded recipe — every RNG
/// draw (fan-outs, assignment shuffle, plan shuffle, patient
/// attributes) happens at full size in the same order — and only then
/// skips the creation, wiring, collection and index entries of objects
/// the shard does not own. Relative placement order among owned
/// objects is therefore identical to their order in the unsharded
/// database, for every organization, and a filter that owns everything
/// reproduces the unsharded build byte for byte.
pub(crate) fn build_filtered(
    config: &BuildConfig,
    knobs: &LoadKnobs,
    filter: Option<&PartitionFilter>,
) -> Database {
    let transaction_off = knobs.transaction_off;
    let commit_every = knobs.commit_every;
    let derby = DerbySchema::new();
    let stack = StorageStack::new(config.cost_model.clone(), config.cache);
    let mut store = ObjectStore::new(derby.schema.clone(), stack);
    store.stack_mut().logging_enabled = !transaction_off;
    let mut ops_since_commit = 0usize;

    let mut rng = SimRng::seed_from_u64(config.seed);
    let p_count = config.provider_count() as usize;
    let mean = config.shape.mean_fanout();

    // Per-provider fan-outs, randomized around the mean.
    let fanouts: Vec<u32> = (0..p_count)
        .map(|_| {
            let lo = (mean / 2).max(1);
            let hi = mean + mean / 2;
            rng.range_u32(lo, hi.max(lo))
        })
        .collect();
    let n_count: usize = fanouts.iter().map(|&f| f as usize).sum();

    // Patient -> provider assignment, by *logical* patient id (mrn).
    // The same randomized relationship is used for every organization:
    // the three organizations are "three physical representation of the
    // same databases" (paper §2) — only placement differs.
    let assignment: Vec<u32> = {
        let mut a = Vec::with_capacity(n_count);
        for (i, &f) in fanouts.iter().enumerate() {
            a.extend(std::iter::repeat_n(i as u32, f as usize));
        }
        rng.shuffle(&mut a);
        a
    };

    // Creation plan: the order objects hit the disk.
    let plan: Vec<PlanItem> = match config.organization {
        Organization::ClassClustered => {
            let mut plan = Vec::with_capacity(p_count + n_count);
            plan.extend((0..p_count as u32).map(PlanItem::Provider));
            plan.extend((0..n_count as u32).map(PlanItem::Patient));
            plan
        }
        Organization::Randomized => {
            // Same logical objects, placed in shuffled order: no index
            // stays clustered.
            let mut plan = Vec::with_capacity(p_count + n_count);
            plan.extend((0..p_count as u32).map(PlanItem::Provider));
            plan.extend((0..n_count as u32).map(PlanItem::Patient));
            rng.shuffle(&mut plan);
            plan
        }
        Organization::Composition => {
            // Each provider followed by its assigned patients (a dump /
            // reload of the logical database into composition order).
            // Patient mrn values are unchanged, so the mrn index is no
            // longer clustered.
            let mut groups: Vec<Vec<u32>> = vec![Vec::new(); p_count];
            for (j, &prov) in assignment.iter().enumerate() {
                groups[prov as usize].push(j as u32);
            }
            let mut plan = Vec::with_capacity(p_count + n_count);
            for (i, group) in groups.iter().enumerate() {
                plan.push(PlanItem::Provider(i as u32));
                plan.extend(group.iter().copied().map(PlanItem::Patient));
            }
            plan
        }
        Organization::AssociationOrdered => {
            // §5.3: separate class files, but patients grouped by
            // provider in provider order. mrn stays logical, so the
            // mrn index is unclustered here too.
            let mut groups: Vec<Vec<u32>> = vec![Vec::new(); p_count];
            for (j, &prov) in assignment.iter().enumerate() {
                groups[prov as usize].push(j as u32);
            }
            let mut plan = Vec::with_capacity(p_count + n_count);
            plan.extend((0..p_count as u32).map(PlanItem::Provider));
            for group in &groups {
                plan.extend(group.iter().copied().map(PlanItem::Patient));
            }
            plan
        }
    };

    // A shard keeps only the objects it owns. The plan was built (and,
    // for Randomized, shuffled) at full size above, so the surviving
    // items keep their unsharded relative placement order.
    let own_provider = |i: u32| filter.is_none_or(|f| f.own_provider[i as usize]);
    let own_patient = |j: u32| own_provider(assignment[j as usize]);
    let plan: Vec<PlanItem> = plan
        .into_iter()
        .filter(|item| match *item {
            PlanItem::Provider(i) => own_provider(i),
            PlanItem::Patient(j) => own_patient(j),
        })
        .collect();

    // Files.
    let (provider_file, patient_file) = match config.organization {
        Organization::ClassClustered | Organization::AssociationOrdered => {
            let pf = store.create_file("providers");
            let af = store.create_file("patients");
            (pf, af)
        }
        _ => {
            let f = store.create_file("objects");
            (f, f)
        }
    };
    let overflow_file = match config.shape {
        DbShape::Db1 => Some(store.create_file("clients.overflow")),
        DbShape::Db2 => None,
    };

    // Patient attribute material, generated in creation (mrn) order.
    let nums: Vec<i64> = (0..n_count)
        .map(|_| rng.range_i64(0, n_count as i64 - 1))
        .collect();
    let random_integers: Vec<i32> = (0..n_count)
        .map(|_| rng.range_i32(1, p_count as i32))
        .collect();

    // Create everything. `*_rids` index by logical id; `*_order`
    // remember physical (creation) order — extents enumerate in
    // storage order, like a real segment scan.
    //
    // From here on each temporary is dropped as soon as nothing reads
    // it: they are host-side scaffolding, and left alive until the end
    // they, not the store, set the build's peak resident memory.
    let mut provider_rids: Vec<Rid> = vec![Rid::nil(); p_count];
    let mut patient_rids: Vec<Rid> = vec![Rid::nil(); n_count];
    let mut provider_order: Vec<Rid> = Vec::with_capacity(p_count);
    let mut patient_order: Vec<Rid> = Vec::with_capacity(n_count);
    let mut templates = ValueTemplates::new();
    for item in &plan {
        match *item {
            PlanItem::Provider(i) => {
                templates.fill_provider(i as i64);
                match config.shape {
                    // Same encoded size as the final value: updated in
                    // place during wiring.
                    DbShape::Db1 => templates.set_clients_overflow(SetValue::Overflow {
                        file: overflow_file.unwrap(),
                        first_page: 0,
                        count: 0,
                    }),
                    DbShape::Db2 => templates.set_clients_placeholder(fanouts[i as usize] as usize),
                }
                let rid = store.insert(
                    provider_file,
                    derby.provider,
                    &templates.provider,
                    config.index_headroom,
                );
                provider_rids[i as usize] = rid;
                provider_order.push(rid);
            }
            PlanItem::Patient(j) => {
                let j = j as usize;
                let age = (j % 97) as i32;
                let sex = if j.is_multiple_of(2) { b'F' } else { b'M' };
                templates.fill_patient(j as i64, age, sex, random_integers[j], nums[j], Rid::nil());
                let rid = store.insert(
                    patient_file,
                    derby.patient,
                    &templates.patient,
                    config.index_headroom,
                );
                patient_rids[j] = rid;
                patient_order.push(rid);
            }
        }
        ops_since_commit += 1;
        if ops_since_commit >= commit_every {
            store.commit();
            ops_since_commit = 0;
        }
    }
    drop(plan);
    drop(fanouts);

    // Wire the association: patients' pcp, then providers' client sets.
    let mut clients: Vec<Vec<Rid>> = vec![Vec::new(); p_count];
    for (j, &prov) in assignment.iter().enumerate() {
        if !own_provider(prov) {
            continue;
        }
        clients[prov as usize].push(patient_rids[j]);
        let age = (j % 97) as i32;
        let sex = if j % 2 == 0 { b'F' } else { b'M' };
        templates.fill_patient(
            j as i64,
            age,
            sex,
            random_integers[j],
            nums[j],
            provider_rids[prov as usize],
        );
        let new_rid = store.update(patient_rids[j], &templates.patient);
        debug_assert_eq!(new_rid, patient_rids[j], "pcp update is same-size");
        ops_since_commit += 1;
        if ops_since_commit >= commit_every {
            store.commit();
            ops_since_commit = 0;
            if knobs.join_rescan_on_commit {
                rescan_files(&mut store, &[provider_file, patient_file]);
            }
        }
    }
    drop(assignment);
    drop(random_integers);
    for i in 0..p_count {
        if !own_provider(i as u32) {
            continue;
        }
        templates.fill_provider(i as i64);
        match config.shape {
            DbShape::Db1 => {
                let set = store.write_overflow_set(overflow_file.unwrap(), &clients[i]);
                templates.set_clients_overflow(set);
            }
            DbShape::Db2 => templates.set_clients_inline(&clients[i]),
        }
        let new_rid = store.update(provider_rids[i], &templates.provider);
        debug_assert_eq!(new_rid, provider_rids[i], "client-set update is same-size");
        ops_since_commit += 1;
        if ops_since_commit >= commit_every {
            store.commit();
            ops_since_commit = 0;
            if knobs.join_rescan_on_commit {
                rescan_files(&mut store, &[provider_file, patient_file]);
            }
        }
    }
    drop(clients);

    /// Reads every page of the given files through the cache hierarchy
    /// — the cost of re-running the wiring join once.
    fn rescan_files(store: &mut ObjectStore, files: &[tq_pagestore::FileId]) {
        let mut unique: Vec<tq_pagestore::FileId> = Vec::new();
        for f in files {
            if !unique.contains(f) {
                unique.push(*f);
            }
        }
        for f in unique {
            let pages = store.stack().disk().file_len(f);
            for page_no in 0..pages {
                store
                    .stack_mut()
                    .read_page(tq_pagestore::PageId { file: f, page_no });
            }
        }
    }

    // Named collections (rid runs in their own files), in physical
    // order: an extent scan walks storage order.
    store.create_collection("Providers", derby.provider, &provider_order);
    store.create_collection("Patients", derby.patient, &patient_order);
    let (provider_count, patient_count) = (provider_order.len(), patient_order.len());
    drop(provider_order);
    drop(patient_order);

    // Indexes, built after load (the paper's recommended order —
    // headroom was already reserved at creation when asked).
    // On a shard, unowned logical ids were never created (their rids
    // stayed nil) and contribute no index entries.
    let upin_entries: Vec<(i64, Rid)> = provider_rids
        .iter()
        .enumerate()
        .filter(|(_, r)| !r.is_nil())
        .map(|(i, &r)| (i as i64, r))
        .collect();
    drop(provider_rids);
    let upin_clustered = config.organization != Organization::Randomized;
    let idx_provider_upin = BTreeIndex::bulk_build(
        store.stack_mut(),
        IDX_UPIN,
        "idx.provider.upin",
        upin_clustered,
        &upin_entries,
    );
    drop(upin_entries);
    let mrn_entries: Vec<(i64, Rid)> = patient_rids
        .iter()
        .enumerate()
        .filter(|(_, r)| !r.is_nil())
        .map(|(j, &r)| (j as i64, r))
        .collect();
    let mrn_clustered = config.organization == Organization::ClassClustered;
    let idx_patient_mrn = BTreeIndex::bulk_build(
        store.stack_mut(),
        IDX_MRN,
        "idx.patient.mrn",
        mrn_clustered,
        &mrn_entries,
    );
    drop(mrn_entries);
    let mut num_entries: Vec<(i64, Rid)> = nums
        .iter()
        .zip(&patient_rids)
        .filter(|&(_, r)| !r.is_nil())
        .map(|(&n, &r)| (n, r))
        .collect();
    drop(nums);
    drop(patient_rids);
    num_entries.sort_unstable_by_key(|&(k, _)| k);
    let idx_patient_num = BTreeIndex::bulk_build(
        store.stack_mut(),
        IDX_NUM,
        "idx.patient.num",
        false,
        &num_entries,
    );
    drop(num_entries);

    if config.register_memberships {
        store.register_index_on_collection("Providers", IDX_UPIN);
        store.register_index_on_collection("Patients", IDX_MRN);
        store.register_index_on_collection("Patients", IDX_NUM);
    }

    // Final commit, then snapshot what the load cost before resetting
    // metrics for the measurement phase.
    store.commit();
    let load_stats = store.stats();
    let load_clock_secs = store.clock().elapsed_secs();
    store.stack_mut().logging_enabled = true;
    store.cold_restart();
    store.reset_metrics();

    Database {
        store,
        derby,
        config: config.clone(),
        load_stats: Some(load_stats),
        load_clock_secs,
        provider_count: provider_count as u64,
        patient_count: patient_count as u64,
        logical_provider_count: p_count as u64,
        logical_patient_count: n_count as u64,
        idx_provider_upin,
        idx_patient_mrn,
        idx_patient_num,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tq_objstore::SetCursor;

    #[test]
    fn pad16_matches_the_format_spelling() {
        let mut out = String::new();
        for (prefix, n) in [
            ("P", 0),
            ("P", 9),
            ("P", 10),
            ("Name", 123_456),
            ("P", 9_999_999_999_999),
            ("Address", 1_234_567_890),
            ("P", -1),
            ("P", -907),
            ("P", i64::MIN),
            ("P", i64::MAX),
            ("ExactlySixteen", 7),
            ("LongerThanSixteenBytes", 5),
        ] {
            pad16_into(&mut out, prefix, n);
            let mut want = format!("{prefix}-{n}");
            while want.len() < 16 {
                want.push('.');
            }
            want.truncate(16);
            assert_eq!(out, want, "{prefix} {n}");
        }
    }

    fn tiny(shape: DbShape, org: Organization) -> Database {
        // Db1/1000: 2 providers × ~1000 patients; Db2/1000: 1000 × ~3.
        build(&BuildConfig::scaled(shape, org, 1000))
    }

    #[test]
    fn counts_and_fanout_are_plausible() {
        for org in Organization::all() {
            let db = tiny(DbShape::Db2, org);
            assert_eq!(db.provider_count, 1000);
            let mean = db.patient_count as f64 / db.provider_count as f64;
            assert!(
                (2.0..4.0).contains(&mean),
                "mean fanout {mean} should be ~3 ({org:?})"
            );
        }
    }

    #[test]
    fn same_seed_same_database() {
        let a = tiny(DbShape::Db2, Organization::ClassClustered);
        let b = tiny(DbShape::Db2, Organization::ClassClustered);
        assert_eq!(a.patient_count, b.patient_count);
        assert_eq!(
            a.store.stack().disk().total_pages(),
            b.store.stack().disk().total_pages()
        );
    }

    #[test]
    fn every_patient_points_at_its_provider() {
        for org in Organization::all() {
            let mut db = tiny(DbShape::Db2, org);
            let mut cursor = db.store.collection_cursor("Patients");
            let mut checked = 0;
            while let Some(rid) = cursor.next(db.store.stack_mut()) {
                let pat = db.store.fetch(rid);
                let pcp = pat.object.values[patient_attr::PCP]
                    .as_ref_rid()
                    .expect("pcp is a ref");
                assert!(!pcp.is_nil(), "wiring left a nil pcp ({org:?})");
                let prov = db.store.fetch(pcp);
                // The provider's clients set contains the patient.
                let set = prov.object.values[provider_attr::CLIENTS]
                    .as_set()
                    .expect("clients is a set")
                    .clone();
                let mut members = db.store.set_cursor(&set);
                let mut found = false;
                while let Some(m) = members.next(db.store.stack_mut()) {
                    if m == rid {
                        found = true;
                        break;
                    }
                }
                assert!(found, "patient missing from provider's clients ({org:?})");
                db.store.unref(prov.rid);
                db.store.unref(pat.rid);
                checked += 1;
                if checked >= 50 {
                    break; // spot check; full check is O(n·fanout)
                }
            }
        }
    }

    #[test]
    fn client_sets_partition_the_patients() {
        let mut db = tiny(DbShape::Db2, Organization::ClassClustered);
        let mut seen = std::collections::HashSet::new();
        let mut cursor = db.store.collection_cursor("Providers");
        while let Some(rid) = cursor.next(db.store.stack_mut()) {
            let prov = db.store.fetch(rid);
            let set = prov.object.values[provider_attr::CLIENTS]
                .as_set()
                .unwrap()
                .clone();
            let mut members: SetCursor<'_> = db.store.set_cursor(&set);
            while let Some(m) = members.next(db.store.stack_mut()) {
                assert!(seen.insert(m), "patient in two client sets");
            }
            db.store.unref(prov.rid);
        }
        assert_eq!(seen.len() as u64, db.patient_count);
    }

    #[test]
    fn db1_uses_overflow_sets_db2_inline() {
        let mut db1 = tiny(DbShape::Db1, Organization::ClassClustered);
        let rid = {
            let mut c = db1.store.collection_cursor("Providers");
            c.next(db1.store.stack_mut()).unwrap()
        };
        let prov = db1.store.fetch(rid);
        assert!(matches!(
            prov.object.values[provider_attr::CLIENTS],
            Value::Set(SetValue::Overflow { .. })
        ));
        db1.store.unref(prov.rid);

        let mut db2 = tiny(DbShape::Db2, Organization::ClassClustered);
        let rid = {
            let mut c = db2.store.collection_cursor("Providers");
            c.next(db2.store.stack_mut()).unwrap()
        };
        let prov = db2.store.fetch(rid);
        assert!(matches!(
            prov.object.values[provider_attr::CLIENTS],
            Value::Set(SetValue::Inline(_))
        ));
        db2.store.unref(prov.rid);
    }

    #[test]
    fn class_clustering_separates_files_composition_interleaves() {
        let db_class = tiny(DbShape::Db2, Organization::ClassClustered);
        let d = db_class.store.stack().disk();
        assert!(d.file_by_name("providers").is_some());
        assert!(d.file_by_name("patients").is_some());
        let db_comp = tiny(DbShape::Db2, Organization::Composition);
        let d = db_comp.store.stack().disk();
        assert!(d.file_by_name("objects").is_some());
        assert!(d.file_by_name("providers").is_none());
    }

    #[test]
    fn composition_places_patients_next_to_their_provider() {
        let mut db = tiny(DbShape::Db2, Organization::Composition);
        let mut providers = db.store.collection_cursor("Providers");
        let p0 = providers.next(db.store.stack_mut()).unwrap();
        let p1 = providers.next(db.store.stack_mut()).unwrap();
        let prov = db.store.fetch(p0);
        let set = prov.object.values[provider_attr::CLIENTS]
            .as_set()
            .unwrap()
            .clone();
        let mut members = db.store.set_cursor(&set);
        while let Some(m) = members.next(db.store.stack_mut()) {
            assert!(
                m > p0 && m < p1,
                "client {m:?} not between {p0:?} and {p1:?}"
            );
        }
        db.store.unref(prov.rid);
    }

    #[test]
    fn mrn_index_is_clustered_only_under_class_clustering() {
        for org in Organization::all() {
            let mut db = tiny(DbShape::Db2, org);
            let entries = db
                .idx_patient_mrn
                .scan_all(db.store.stack_mut())
                .collect_all(db.store.stack_mut());
            assert_eq!(entries.len() as u64, db.patient_count);
            let physical_order = entries.windows(2).all(|w| w[0].1 < w[1].1);
            let expect = org == Organization::ClassClustered;
            assert_eq!(
                physical_order, expect,
                "mrn/physical order agreement under {org:?}"
            );
            assert_eq!(db.idx_patient_mrn.clustered, expect);
        }
    }

    #[test]
    fn the_three_organizations_store_the_same_logical_database() {
        // Same seed: identical (mrn -> upin) association in every
        // organization (paper §2: "three physical representation of
        // the same databases").
        let mut maps = Vec::new();
        for org in Organization::all() {
            let mut db = tiny(DbShape::Db2, org);
            let mut cursor = db.store.collection_cursor("Patients");
            let mut assoc: Vec<(i32, i32)> = Vec::new();
            while let Some(rid) = cursor.next(db.store.stack_mut()) {
                let pat = db.store.fetch(rid);
                let mrn = pat.object.values[patient_attr::MRN].as_int().unwrap();
                let pcp = pat.object.values[patient_attr::PCP].as_ref_rid().unwrap();
                let prov = db.store.fetch(pcp);
                let upin = prov.object.values[provider_attr::UPIN].as_int().unwrap();
                assoc.push((mrn, upin));
                db.store.unref(prov.rid);
                db.store.unref(pat.rid);
            }
            assoc.sort_unstable();
            maps.push(assoc);
        }
        assert_eq!(maps[0], maps[1]);
        assert_eq!(maps[1], maps[2]);
    }

    #[test]
    fn num_index_is_unclustered() {
        let mut db = tiny(DbShape::Db2, Organization::ClassClustered);
        let entries = db
            .idx_patient_num
            .scan_all(db.store.stack_mut())
            .collect_all(db.store.stack_mut());
        assert_eq!(entries.len() as u64, db.patient_count);
        let sorted_by_rid = entries.windows(2).all(|w| w[0].1 < w[1].1);
        assert!(!sorted_by_rid, "num order must not follow physical order");
        assert!(!db.idx_patient_num.clustered);
        assert!(db.idx_patient_mrn.clustered);
    }

    #[test]
    fn association_ordered_groups_patients_in_provider_order() {
        let mut db = tiny(DbShape::Db2, Organization::AssociationOrdered);
        // Separate class files, like class clustering.
        let d = db.store.stack().disk();
        assert!(d.file_by_name("providers").is_some());
        assert!(d.file_by_name("patients").is_some());
        // Walking providers in upin order, their client sets' rids are
        // non-decreasing across providers: patients of provider i all
        // precede patients of provider i+1.
        let mut providers = db.store.collection_cursor("Providers");
        let mut prev_max: Option<Rid> = None;
        let mut checked = 0;
        while let Some(prid) = providers.next(db.store.stack_mut()) {
            let prov = db.store.fetch(prid);
            let set = prov.object.values[provider_attr::CLIENTS]
                .as_set()
                .unwrap()
                .clone();
            db.store.unref(prov.rid);
            let mut members = db.store.set_cursor(&set);
            let mut min = Rid::nil();
            let mut max: Option<Rid> = None;
            while let Some(m) = members.next(db.store.stack_mut()) {
                if max.is_none() || Some(m) > max {
                    max = Some(m);
                }
                if min.is_nil() || m < min {
                    min = m;
                }
            }
            if let (Some(prev), false) = (prev_max, min.is_nil()) {
                assert!(
                    min > prev,
                    "patients of later providers must be placed later"
                );
            }
            if let Some(m) = max {
                prev_max = Some(m);
            }
            checked += 1;
            if checked > 200 {
                break;
            }
        }
        // And the mrn index is unclustered here (mrn stays logical).
        assert!(!db.idx_patient_mrn.clustered);
        assert!(db.idx_provider_upin.clustered);
    }

    #[test]
    fn selectivity_keys() {
        let db = tiny(DbShape::Db2, Organization::ClassClustered);
        assert_eq!(db.patient_selectivity_key(10), db.patient_count as i64 / 10);
        assert_eq!(db.provider_selectivity_key(90), 900);
    }

    #[test]
    fn measure_cold_resets_and_reports() {
        let mut db = tiny(DbShape::Db2, Organization::ClassClustered);
        let (n, secs) = db.measure_cold(|db| {
            let mut c = db.store.collection_cursor("Patients");
            let mut n = 0;
            while let Some(rid) = c.next(db.store.stack_mut()) {
                let f = db.store.fetch(rid);
                db.store.unref(f.rid);
                n += 1;
            }
            n
        });
        assert_eq!(n as u64, db.patient_count);
        assert!(secs > 0.0);
        // Cold: the data pages were actually read from "disk".
        assert!(db.store.stats().d2sc_read_pages > 0);
    }
}
