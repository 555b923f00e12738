//! treequery's benchmark: eight workloads, six end-to-end metrics, and
//! a traced layer suite. `main.rs` is the command line; `run.sh` builds
//! it and runs the workloads one process after another. See README.md.

pub mod compare;
pub mod e2e;
pub mod json;
pub mod layers;
pub mod ops;
pub mod oracle;
pub mod report;
pub mod run;
pub mod spec;
pub mod stats;
pub mod sys;
pub mod trace;
pub mod walk;
