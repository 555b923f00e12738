//! What the right answers are, computed without the code under test
//! where that is possible and through the in-process measurement
//! protocol where it is not.
//!
//! * A [`Census`] walks the raw collections once and counts join,
//!   chain and selection results by brute force — the check on the
//!   `fig_*` cells, whose timed op *is* the measurement protocol.
//! * [`served_answers`] runs every served read kind in-process on a
//!   private clone; a served reply must equal it, `Stat` included.
//! * A [`Fnv`] fingerprint over every answer's simulated counters is
//!   compared with `expected/<workload>.fp` for the default seed: a
//!   host-side change must leave every simulated statistic identical.

use std::collections::{BTreeMap, BTreeSet};

use tq_query::{JoinOptions, OpCounters, SelectReport};
use tq_server::{measure, Response, UpdateTarget};
use tq_statsdb::{merge_stats, Stat};
use tq_workload::{patient_attr, provider_attr, Database};

use crate::ops::{read_kind, Op, WRITE_SELS};

/// 64-bit FNV-1a.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

/// Digest of one query answer: the result count and every field of the
/// `Stat`, through the wire encoding (floats as bit patterns).
pub fn answer_digest(results: u64, stat: &Stat) -> u64 {
    let mut h = Fnv::new();
    h.bytes(
        &Response::QueryOk {
            results,
            stat: Box::new(stat.clone()),
        }
        .encode(),
    );
    h.finish()
}

/// Digest of one selection: what it returned and every simulated
/// counter of its window (`Stat` records are a join/chain shape).
pub fn select_digest(db: &Database, report: &SelectReport) -> u64 {
    let mut h = Fnv::new();
    // Metrics were reset when the window opened, so the absolute
    // counters are the window's totals.
    let c = OpCounters::snapshot(&db.store);
    for v in [
        report.scanned,
        report.selected,
        report.rids_sorted,
        c.io.d2sc_read_pages,
        c.io.sc2cc_read_pages,
        c.io.client_hits,
        c.io.client_misses,
        c.io.server_hits,
        c.io.server_misses,
        c.handle_allocations,
        c.handle_touches,
        c.handle_revivals,
        c.handle_unrefs,
        c.handle_frees,
        c.cpu_events,
        c.io_nanos,
        c.rpc_nanos,
        c.cpu_nanos,
        c.swap_nanos,
    ] {
        h.u64(v);
    }
    for op in &report.trace.ops {
        h.bytes(op.label.as_bytes());
        h.u64(op.counters.handle_gets());
        h.u64(op.counters.elapsed_nanos());
    }
    h.finish()
}

/// The expected reply to one served read kind.
#[derive(Clone, Debug)]
pub struct Answer {
    pub results: u64,
    pub stat: Stat,
}

/// Runs every read kind of `lists` in-process through the paper's cold
/// protocol — the code path the server's workers run — on a private
/// clone of each shard and merges the per-shard records the way the
/// router must. One shard (the unpartitioned base) is the direct
/// server's answer.
pub fn served_answers(shards: &[Database], lists: &[Vec<Op>]) -> BTreeMap<usize, Answer> {
    let opts = JoinOptions::default();
    let kinds: BTreeSet<usize> = lists
        .iter()
        .flatten()
        .filter_map(|op| match *op {
            Op::Read(kind) => Some(kind),
            Op::Write(_) => None,
        })
        .collect();
    kinds
        .into_iter()
        .map(|kind| {
            let (algo, pat, prov) = read_kind(kind);
            let mut results = 0;
            let parts: Vec<Stat> = shards
                .iter()
                .map(|shard| {
                    let mut db = shard.clone();
                    let cell = measure::run_join_cell(&mut db, algo, pat, prov, &opts);
                    results += cell.results;
                    measure::stat_record(&db, &cell, pat, prov)
                })
                .collect();
            let stat = merge_stats(&parts).expect("at least one shard");
            (kind, Answer { results, stat })
        })
        .collect()
}

/// Whether two answer tables agree on every kind's result count — what
/// must hold between the unsharded database and its shards' merge.
pub fn same_results(a: &BTreeMap<usize, Answer>, b: &BTreeMap<usize, Answer>) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|((ka, x), (kb, y))| ka == kb && x.results == y.results)
}

/// Rows each write selectivity must update, indexed by percent. The
/// statement's predicate is on `mrn`, which no write changes, so the
/// count does not depend on what was committed before.
pub fn updated_counts(base: &Database) -> Vec<u64> {
    (0..=*WRITE_SELS.end())
        .map(|sel| {
            if !WRITE_SELS.contains(&sel) {
                return 0;
            }
            let mut db = base.clone();
            measure::measure_update_current(&mut db, UpdateTarget::Patients, sel, 1, None)
                .outcome
                .updated
        })
        .collect()
}

/// Every provider's `upin` with its patients' `(mrn, num)`, read
/// straight off the collections.
pub struct Census {
    providers: Vec<(i64, Vec<(i64, i64)>)>,
}

impl Census {
    pub fn take(base: &Database) -> Self {
        let mut db = base.clone();
        let int = |o: &tq_objstore::Object, attr: usize| {
            i64::from(o.values[attr].as_int().expect("integer attribute"))
        };
        let mut cursor = db.store.collection_cursor("Providers");
        let mut rids = Vec::new();
        while let Some(rid) = cursor.next(db.store.stack_mut()) {
            rids.push(rid);
        }
        let providers = rids
            .into_iter()
            .map(|rid| {
                db.store.with_fetched(rid, |store, p| {
                    let set = p.object().values[provider_attr::CLIENTS]
                        .as_set()
                        .expect("clients is a set");
                    let mut members = store.set_cursor(set);
                    let mut clients = Vec::with_capacity(set.len());
                    while let Some(pa) = members.next(store.stack_mut()) {
                        clients.push(store.with_fetched(pa, |_, o| {
                            (
                                int(o.object(), patient_attr::MRN),
                                int(o.object(), patient_attr::NUM),
                            )
                        }));
                    }
                    (int(p.object(), provider_attr::UPIN), clients)
                })
            })
            .collect();
        Census { providers }
    }

    /// `(join, chain4)` result counts of one grid cell. The depth-3
    /// chain re-finds each pair's provider, so it returns the join's
    /// count; depth 4 fans every qualifying pair back out to all of
    /// that provider's patients.
    pub fn join_counts(&self, db: &Database, pat_pct: u32, prov_pct: u32) -> (u64, u64) {
        let mrn_limit = db.patient_selectivity_key(pat_pct);
        let upin_limit = db.provider_selectivity_key(prov_pct);
        let (mut join, mut chain4) = (0, 0);
        for (upin, clients) in &self.providers {
            if *upin < upin_limit {
                let hits = clients.iter().filter(|(mrn, _)| *mrn < mrn_limit).count() as u64;
                join += hits;
                chain4 += hits * clients.len() as u64;
            }
        }
        (join, chain4)
    }

    /// Patients with `num < key(pct)`.
    pub fn select_count(&self, db: &Database, pct: u32) -> u64 {
        let limit = db.num_selectivity_key(pct);
        self.providers
            .iter()
            .flat_map(|(_, clients)| clients)
            .filter(|(_, num)| *num < limit)
            .count() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tq_query::{JoinAlgo, PlannerPolicy};
    use tq_workload::{build, BuildConfig, DbShape, Organization};

    #[test]
    fn fnv_matches_the_reference_vectors() {
        let mut h = Fnv::new();
        h.bytes(b"a");
        assert_eq!(h.finish(), 0xaf63_dc4c_8601_ec8c);
        let mut h = Fnv::new();
        h.bytes(b"foobar");
        assert_eq!(h.finish(), 0x8594_4171_f739_67e8);
    }

    /// The brute-force census and the engine agree on a small database —
    /// so when they disagree in a run, the engine's answer moved.
    #[test]
    fn census_agrees_with_the_engine() {
        let base = build(&BuildConfig::scaled(
            DbShape::Db2,
            Organization::ClassClustered,
            2000,
        ));
        let census = Census::take(&base);
        for (pat, prov) in [(10, 90), (50, 50)] {
            let (join, chain4) = census.join_counts(&base, pat, prov);
            let mut db = base.clone();
            let cell =
                measure::run_join_cell(&mut db, JoinAlgo::Phj, pat, prov, &JoinOptions::default());
            assert_eq!(cell.results, join);
            for (depth, want) in [(3, join), (4, chain4)] {
                let mut db = base.clone();
                let cell = measure::run_chain_cell(
                    &mut db,
                    depth,
                    pat,
                    prov,
                    PlannerPolicy::Estimate,
                    None,
                )
                .unwrap();
                assert_eq!(cell.results, want, "depth {depth} at {pat}/{prov}");
            }
        }
        assert!(census.select_count(&base, 50) > census.select_count(&base, 10));
    }
}
