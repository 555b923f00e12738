//! # tq-objstore — an O2-like object store
//!
//! The object-database substrate of the `treequery` reproduction of
//! *Benchmarking Queries over Trees* (SIGMOD 2000). It implements the
//! mechanisms whose costs the paper measures:
//!
//! * physical object identifiers ([`Rid`]) — page + slot addresses;
//! * schema-driven record encoding with **index membership lists in
//!   object headers** ([`record`]), including the 8-slot headroom rule
//!   whose absence causes the §3.2 relocation storm;
//! * in-memory **Handles** with pin counts and delayed free
//!   ([`handle`]) — the §4 hard truth about associative-access CPU
//!   cost;
//! * named collections and large-set overflow files as packed rid runs
//!   ([`ridlist`]);
//! * the [`ObjectStore`] façade: insert / fetch / update with
//!   relocation + forwarding, index registration, collection cursors,
//!   and cost charging into the shared simulated clock.
//!
//! Physical organization (class / random / composition clustering,
//! paper Figure 2) is chosen by *creation order and file assignment*,
//! which the `tq-workload` crate drives.

pub mod handle;
pub mod record;
pub mod rid;
pub mod ridlist;
pub mod schema;
pub mod store;
pub mod value;

pub use handle::{GetOutcome, HandleStats, HandleTable, HANDLE_BYTES};
pub use record::{DecodeError, Object, ObjectHeader, Record, INDEX_HEADROOM};
pub use rid::{Rid, RID_BYTES};
pub use ridlist::{RidRun, RidRunCursor, RIDS_PER_PAGE};
pub use schema::{Attr, AttrId, AttrType, ClassDef, ClassId, Schema};
pub use store::{
    CollectionInfo, Fetched, ObjBatch, ObjGuard, ObjectStore, SetCursor, WideningReport,
    DEFAULT_BATCH_SIZE, DEFAULT_FILL_LIMIT,
};
pub use value::{SetValue, Value};

#[cfg(test)]
mod thread_safety {
    use super::*;

    /// Compile-time proof that a store clone can run on a worker
    /// thread (per-cell figure measurements).
    #[test]
    fn object_store_is_send_and_sync() {
        fn assert_send<T: Send>() {}
        fn assert_sync<T: Sync>() {}
        assert_send::<ObjectStore>();
        assert_sync::<ObjectStore>();
        assert_send::<HandleTable>();
        assert_send::<Schema>();
    }
}
