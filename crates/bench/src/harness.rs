//! Shared machinery for the figures: database construction, the
//! binaries' spellings of a shape and an organization, and the cell
//! fan-out.
//!
//! The measurement protocol itself (cold runs, teardown attribution,
//! `Stat` conversion) lives in [`tq_server::measure`] so the query
//! service and the figure harness execute queries through one code
//! path. Environment parsing lives in [`crate::env`].

use std::panic::resume_unwind;

use tq_query::fan_out;
use tq_workload::{build, BuildConfig, Database, DbShape, Organization};

/// Builds the database for a figure, honouring `TQ_SCALE`.
pub fn build_db(shape: DbShape, org: Organization, scale: u32) -> Database {
    let cfg = if scale <= 1 {
        BuildConfig::paper(shape, org)
    } else {
        BuildConfig::scaled(shape, org, scale)
    };
    eprintln!(
        "building {:?} / {:?} at scale 1/{} ({} providers)...",
        shape,
        org,
        scale.max(1),
        cfg.provider_count()
    );
    build(&cfg)
}

/// `db1` or `db2`, as the binaries spell a database shape.
pub fn parse_shape(s: &str) -> Option<DbShape> {
    match s {
        "db1" => Some(DbShape::Db1),
        "db2" => Some(DbShape::Db2),
        _ => None,
    }
}

/// `class`, `random`, `comp` or `assoc` (or the long labels), as the
/// binaries spell an organization.
pub fn parse_org(s: &str) -> Option<Organization> {
    match s {
        "class" => Some(Organization::ClassClustered),
        "random" => Some(Organization::Randomized),
        "comp" | "composition" => Some(Organization::Composition),
        "assoc" | "assoc-ordered" => Some(Organization::AssociationOrdered),
        _ => None,
    }
}

/// Runs a figure's cells [`fan_out`] `jobs` wide and returns their
/// results in cell order. Every cell simulates its own machine (a
/// cloned [`Database`] with its own disk, caches and clock), so the
/// printed tables and stored `Stat`s are byte-identical at any
/// `TQ_JOBS`. A panicking cell panics the caller.
pub(crate) fn run_cells<J, T>(cells: Vec<J>, jobs: usize) -> Vec<T>
where
    J: FnOnce() -> T + Send,
    T: Send,
{
    fan_out(cells, jobs)
        .into_iter()
        .map(|outcome| outcome.unwrap_or_else(|payload| resume_unwind(payload)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use tq_query::estimator::PhysicalProfile;
    use tq_query::{Engine, JoinAlgo};
    use tq_server::measure::{join_spec, run_join_cell, stat_record};
    use tq_workload::{patient_attr, provider_attr};

    /// The estimator's view of `db`'s provider/patient join, derived by
    /// the engine over a clone of the store.
    fn engine_profile(db: &Database) -> PhysicalProfile {
        let mut engine = Engine::new(db.store.clone());
        let derby = &db.derby;
        engine.register_index(
            db.idx_provider_upin.clone(),
            derby.provider,
            provider_attr::UPIN,
        );
        engine.register_index(db.idx_patient_mrn.clone(), derby.patient, patient_attr::MRN);
        engine
            .profile_for(&join_spec(db, 10, 10))
            .expect("both indexes registered")
    }

    #[test]
    fn profile_reflects_the_database() {
        let db = build_db(DbShape::Db2, Organization::ClassClustered, 1000);
        let p = engine_profile(&db);
        assert_eq!(p.parents_total, 1000);
        assert!(p.parent_index_clustered);
        assert!(p.child_index_clustered);
        assert!(!p.composition);
        assert!(p.parent_scan_pages > 0 && p.child_scan_pages > 0);
        let comp = build_db(DbShape::Db2, Organization::Composition, 1000);
        let pc = engine_profile(&comp);
        assert!(pc.composition);
        assert!(!pc.child_index_clustered);
        assert_eq!(pc.parent_scan_pages, pc.child_scan_pages);
    }

    #[test]
    fn cells_convert_to_stat_records() {
        let mut db = build_db(DbShape::Db2, Organization::ClassClustered, 1000);
        let cell = run_join_cell(&mut db, JoinAlgo::Phj, 10, 90, &Default::default());
        assert!(cell.results > 0);
        assert!(cell.secs > 0.0);
        let stat = stat_record(&db, &cell, 10, 90);
        assert_eq!(stat.algo, "PHJ");
        assert_eq!(stat.cluster, "class");
        assert_eq!(stat.query.selectivity_on("Patient"), Some(10));
        assert!(stat.query.text.contains("select"));
        assert!(stat.d2sc_read_pages > 0);
    }

    #[test]
    fn db1_profile_has_overflow_pages() {
        let db = build_db(DbShape::Db1, Organization::ClassClustered, 200);
        let p = engine_profile(&db);
        assert!(
            p.overflow_pages_per_parent > 1.0,
            "1:1000 client sets overflow ({} pages/parent)",
            p.overflow_pages_per_parent
        );
    }
}
