//! The builder's output, frozen: every page byte of every file plus
//! each index descriptor, for both shapes × all four organizations and
//! for a two-shard partition. `build` may reorder its own host-side
//! work (what it allocates, when it frees it) but not a simulated
//! byte; a change that moves one fails here against `golden/build.fp`.

#[path = "../../bench/tests/golden/mod.rs"]
mod golden;

use tq_pagestore::{FileId, PageId};
use tq_workload::{build, partition_database, BuildConfig, Database, DbShape, Organization};

/// FNV-1a over `bytes`, continuing from `h`.
fn fnv1a(h: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(h, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// One line per file (name, page count, page-bytes hash), then the
/// index descriptors (root, height, entry count via `Debug`) and the
/// load counters.
fn render(db: &Database) -> String {
    let disk = db.store.stack().disk();
    let mut out = String::new();
    for f in 0..disk.file_count() {
        let file = FileId(f);
        let pages = disk.file_len(file);
        let hash = (0..pages).fold(0xcbf2_9ce4_8422_2325, |h, page_no| {
            fnv1a(h, disk.peek(PageId { file, page_no }).as_bytes())
        });
        out += &format!("{} pages={pages} fnv={hash:016x}\n", disk.file_name(file));
    }
    out += &format!(
        "{:?}\n{:?}\n{:?}\nproviders={} patients={} logical=({}, {})\nload={:?} clock={:?}\n",
        db.idx_provider_upin,
        db.idx_patient_mrn,
        db.idx_patient_num,
        db.provider_count,
        db.patient_count,
        db.logical_provider_count,
        db.logical_patient_count,
        db.load_stats,
        db.load_clock_secs,
    );
    out
}

#[test]
fn build_output_matches_the_frozen_fingerprints() {
    let mut cells = Vec::new();
    for shape in [DbShape::Db1, DbShape::Db2] {
        for org in Organization::all_extended() {
            let db = build(&BuildConfig::scaled(shape, org, 1000));
            cells.push((format!("{shape:?}/{org:?}"), render(&db)));
        }
    }
    let base = build(&BuildConfig::scaled(
        DbShape::Db2,
        Organization::Randomized,
        1000,
    ));
    for (i, shard) in partition_database(&base, 2).iter().enumerate() {
        cells.push((format!("Db2/Randomized/shard{i}of2"), render(shard)));
    }
    golden::assert_matches("build.fp", &cells);
}
