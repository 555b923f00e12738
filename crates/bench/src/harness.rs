//! Shared machinery for the figures: database construction, the
//! binaries' spellings of a shape and an organization, and the
//! estimator profile.
//!
//! The measurement protocol itself (cold runs, teardown attribution,
//! `Stat` conversion) lives in [`tq_server::measure`] so the query
//! service and the figure harness execute queries through one code
//! path. Environment parsing lives in [`crate::env`].

use tq_query::estimator::PhysicalProfile;
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

/// The estimator's view of a database.
pub fn physical_profile(db: &Database) -> PhysicalProfile {
    let disk = db.store.stack().disk();
    let (parent_pages, child_pages) = match db.config.organization {
        Organization::ClassClustered | Organization::AssociationOrdered => {
            let p = disk.file_len(disk.file_by_name("providers").expect("providers file"));
            let c = disk.file_len(disk.file_by_name("patients").expect("patients file"));
            (p as u64, c as u64)
        }
        _ => {
            let shared = disk.file_len(disk.file_by_name("objects").expect("objects file")) as u64;
            (shared, shared)
        }
    };
    let overflow_pages_per_parent = match db.config.shape {
        DbShape::Db1 => {
            let ovf = disk
                .file_by_name("clients.overflow")
                .map(|f| disk.file_len(f) as f64)
                .unwrap_or(0.0);
            ovf / db.provider_count as f64
        }
        DbShape::Db2 => 0.0,
    };
    PhysicalProfile {
        parents_total: db.provider_count,
        children_total: db.patient_count,
        parent_scan_pages: parent_pages,
        child_scan_pages: child_pages,
        parent_index_clustered: db.idx_provider_upin.clustered,
        child_index_clustered: db.idx_patient_mrn.clustered,
        composition: db.config.organization == Organization::Composition,
        mean_fanout: db.patient_count as f64 / db.provider_count as f64,
        overflow_pages_per_parent,
        client_cache_pages: db.config.cache.client_pages as u64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tq_query::JoinAlgo;
    use tq_server::measure::{run_join_cell, stat_record};

    #[test]
    fn profile_reflects_the_database() {
        let db = build_db(DbShape::Db2, Organization::ClassClustered, 1000);
        let p = physical_profile(&db);
        assert_eq!(p.parents_total, 1000);
        assert!(p.parent_index_clustered);
        assert!(p.child_index_clustered);
        assert!(!p.composition);
        assert!(p.parent_scan_pages > 0 && p.child_scan_pages > 0);
        let comp = build_db(DbShape::Db2, Organization::Composition, 1000);
        let pc = physical_profile(&comp);
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
        let p = physical_profile(&db);
        assert!(
            p.overflow_pages_per_parent > 1.0,
            "1:1000 client sets overflow ({} pages/parent)",
            p.overflow_pages_per_parent
        );
    }
}
