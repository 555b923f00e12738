//! Source-structure gates: design decisions that no behavioural test
//! can see, checked against the source text itself. Each gate names the
//! decision it keeps; the unit tests at the bottom plant a violation in
//! a synthetic source string and show the scanner catches it.

use std::fs;
use std::path::Path;

/// `(line number, line)` for every line of `source` containing one of
/// `needles`.
fn matching_lines<'a>(source: &'a str, needles: &[&str]) -> Vec<(usize, &'a str)> {
    lines_where(source, |line| needles.iter().any(|n| line.contains(n)))
}

/// `(line number, line)` for every line of `source` that `keep` keeps.
fn lines_where(source: &str, keep: impl Fn(&str) -> bool) -> Vec<(usize, &str)> {
    source
        .lines()
        .enumerate()
        .filter(|(_, line)| keep(line))
        .map(|(i, line)| (i + 1, line))
        .collect()
}

/// Every file under `dir` (recursively, repo-relative), sorted.
fn files_under(dir: &str) -> Vec<String> {
    fn walk(path: &Path, out: &mut Vec<std::path::PathBuf>) {
        for entry in fs::read_dir(path).expect("read source directory") {
            let path = entry.expect("directory entry").path();
            if path.is_dir() {
                walk(&path, out);
            } else {
                out.push(path);
            }
        }
    }
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut paths = Vec::new();
    walk(&root.join(dir), &mut paths);
    let mut files: Vec<String> = paths
        .iter()
        .map(|p| p.strip_prefix(root).unwrap().to_string_lossy().into_owned())
        .collect();
    files.sort();
    files
}

fn read(file: &str) -> String {
    fs::read_to_string(Path::new(env!("CARGO_MANIFEST_DIR")).join(file)).expect("read source file")
}

/// `file:line: text` for every line under `dirs` containing one of
/// `needles`, skipping the files named in `except`.
fn violations(dirs: &[&str], except: &[&str], needles: &[&str]) -> Vec<String> {
    violations_where(dirs, except, |line| {
        needles.iter().any(|n| line.contains(n))
    })
}

/// [`violations`] for the lines `keep` keeps.
fn violations_where(dirs: &[&str], except: &[&str], keep: impl Fn(&str) -> bool) -> Vec<String> {
    dirs.iter()
        .flat_map(|dir| files_under(dir))
        .filter(|file| !except.contains(&file.as_str()))
        .flat_map(|file| {
            lines_where(&read(&file), &keep)
                .into_iter()
                .map(|(n, line)| format!("{file}:{n}: {}", line.trim()))
                .collect::<Vec<_>>()
        })
        .collect()
}

/// `source` up to its first `#[cfg(test)]` line: the non-test code.
fn non_test(source: &str) -> &str {
    let cut = source
        .find("\n#[cfg(test)]")
        .map_or(source.len(), |i| i + 1);
    &source[..cut]
}

/// `Stat { .. }` constructor literals before the first `#[cfg(test)]`
/// line: not `-> Stat {` signatures, not `OperatorStat {` and the like.
fn stat_literals(source: &str) -> usize {
    non_test(source)
        .lines()
        .filter(|line| {
            line.contains("Stat {")
                && !line.contains("-> Stat {")
                && !line.match_indices("Stat {").any(|(i, _)| {
                    line[..i]
                        .chars()
                        .next_back()
                        .is_some_and(|c| c.is_ascii_alphabetic() || c == '_')
                })
        })
        .count()
}

/// Join modules compose `ExecContext` operators; pinning objects by
/// hand (`store.fetch` / `store.release`) would bypass the RAII guards
/// and the per-operator counter attribution.
const RAW_PIN: &[&str] = &[".fetch(", ".release("];

/// An operator picks its fetch chunk from what it observes (a live
/// cursor, an overflow set, spilling partitions), never by branching on
/// the batch size into a second copy of its row logic.
const BATCH_FORK: &[&str] = &["batch <= 1", "batch_size() <= 1", "batch > 1 &&"];

/// Joins, chains and updates are one `Work` value on one dispatch →
/// execute → measure path; a per-kind copy of a stage is the
/// triplicate coming back.
const PER_KIND_STAGE: &[&str] = &[
    "fn dispatch_query",
    "fn dispatch_chain",
    "fn dispatch_update",
    "fn execute_query",
    "fn execute_chain",
    "fn execute_update",
];

/// Bytes meet the wire in one place: `proto.rs`'s `Wire` tables. A
/// hand-rolled integer encoding elsewhere in the service is a second
/// codec that the frozen-bytes tests do not see.
const BYTE_CODEC: &[&str] = &["to_le_bytes", "from_le_bytes"];

/// Knobs are parsed from their raw values; a test that writes the
/// process environment races every other test in its binary.
const ENV_WRITE: &[&str] = &["env::set_var", "env::remove_var"];

/// A child-keyed join table is one flat rid multimap — a directory
/// over one key arena; a map of per-rid `Vec`s allocates once per rid.
const MAP_OF_VECS: &[&str] = &["HashMap<Rid, Vec<"];

/// Threads have three owners: the scoped fan-out (figure cells, morsel
/// spans, closed-loop load clients), the connection front (one handler
/// per connection, joined at shutdown) and the server's admission
/// queue. A thread started anywhere else is a fourth pool.
const THREAD_START: &[&str] = &["thread::scope", "thread::spawn", "thread::Builder"];
const THREAD_OWNERS: &[&str] = &[
    "crates/core/src/join/parallel.rs",
    "crates/server/src/transport.rs",
    "crates/server/src/sched.rs",
];

/// How a query runs is a value it carries (its store's batch size, a
/// degree argument, its cancel token's fault), never a `static` atomic
/// that every query in the process shares and no run records.
fn static_atomic(line: &str) -> bool {
    let line = line.trim_start();
    let line = ["pub(crate) ", "pub "]
        .iter()
        .find_map(|vis| line.strip_prefix(vis))
        .unwrap_or(line);
    line.starts_with("static ") && line.contains(": Atomic")
}

#[test]
fn joins_use_the_executor_layer() {
    let found = violations(&["crates/core/src/join"], &[], RAW_PIN);
    assert!(found.is_empty(), "raw fetch()/release() calls:\n{found:#?}");
}

#[test]
fn one_loop_body_per_operator() {
    let found = violations(&["crates/core/src"], &[], BATCH_FORK);
    assert!(found.is_empty(), "a batch-size fork is back:\n{found:#?}");
}

#[test]
fn child_keyed_tables_are_flat() {
    let found = violations(&["crates/core/src"], &[], MAP_OF_VECS);
    assert!(found.is_empty(), "a map of per-rid Vecs:\n{found:#?}");
}

#[test]
fn one_request_path_from_wire_to_stat() {
    let found = violations(&["crates/server/src"], &[], PER_KIND_STAGE);
    assert!(
        found.is_empty(),
        "a per-kind dispatch/execute fork:\n{found:#?}"
    );
    let n = stat_literals(&read("crates/server/src/measure.rs"));
    assert!(
        n <= 1,
        "measure.rs builds `Stat {{ .. }}` in {n} non-test places (want 1)"
    );
}

#[test]
fn the_wire_is_spelled_once() {
    let found = violations(
        &["crates/server/src", "crates/router/src"],
        &["crates/server/src/proto.rs"],
        BYTE_CODEC,
    );
    assert!(
        found.is_empty(),
        "byte encoding outside proto.rs:\n{found:#?}"
    );
    // The walker does reach the codec itself: only the exception hides it.
    assert!(!violations(&["crates/server/src"], &[], BYTE_CODEC).is_empty());
}

#[test]
fn nothing_writes_the_process_environment() {
    let found = violations(&["crates"], &[], ENV_WRITE);
    assert!(found.is_empty(), "environment writes:\n{found:#?}");
}

#[test]
fn no_process_global_configuration() {
    let found: Vec<String> = violations_where(&["crates"], &[], static_atomic)
        .into_iter()
        .filter(|v| {
            v.split(':')
                .next()
                .is_some_and(|file| file.contains("/src/"))
        })
        .collect();
    assert!(found.is_empty(), "process-global atomics:\n{found:#?}");
}

#[test]
fn every_thread_has_one_owner() {
    let starts = |file: &str| -> Vec<String> {
        let source = read(file);
        matching_lines(non_test(&source), THREAD_START)
            .into_iter()
            .map(|(n, line)| format!("{file}:{n}: {}", line.trim()))
            .collect()
    };
    let found: Vec<String> = files_under("crates")
        .iter()
        .filter(|file| file.contains("/src/") && !THREAD_OWNERS.contains(&file.as_str()))
        .flat_map(|file| starts(file))
        .collect();
    assert!(
        found.is_empty(),
        "threads started outside the fan-out, the connection front and the scheduler:\n{found:#?}"
    );
    // The walker does reach the owners: only the exception hides them.
    for owner in THREAD_OWNERS {
        assert!(!starts(owner).is_empty(), "{owner} starts no thread");
    }
}

#[test]
fn every_gate_fires_on_a_planted_violation() {
    let planted = "fn a() {}\n\
                   let h = store.fetch(rid)?;\n\
                   if batch <= 1 { row() }\n\
                   fn execute_chain(w: Work) {}\n\
                   out.extend(&n.to_le_bytes());\n\
                   std::env::set_var(knob, value);\n\
                   pub static BATCH: AtomicUsize = AtomicUsize::new(1);\n\
                   let mut slots: FxHashMap<Rid, Vec<i64>> = FxHashMap::default();\n\
                   let h = std::thread::Builder::new().spawn(work);\n";
    assert_eq!(matching_lines(planted, RAW_PIN)[0].0, 2);
    assert_eq!(matching_lines(planted, BATCH_FORK)[0].0, 3);
    assert_eq!(matching_lines(planted, PER_KIND_STAGE)[0].0, 4);
    assert_eq!(matching_lines(planted, BYTE_CODEC)[0].0, 5);
    assert_eq!(matching_lines(planted, ENV_WRITE)[0].0, 6);
    assert_eq!(lines_where(planted, static_atomic)[0].0, 7);
    assert_eq!(matching_lines(planted, MAP_OF_VECS)[0].0, 8);
    assert_eq!(matching_lines(non_test(planted), THREAD_START)[0].0, 9);
    let test_spawn = "fn a() {}\n#[cfg(test)]\nmod tests {\n    std::thread::spawn(f);\n}\n";
    assert_eq!(matching_lines(test_spawn, THREAD_START)[0].0, 4);
    assert!(matching_lines(non_test(test_spawn), THREAD_START).is_empty());
    assert!(lines_where(
        "flag: Arc<AtomicBool>,\nstatic HOOK: Once = Once::new();\n",
        static_atomic
    )
    .is_empty());
    assert!(matching_lines("let v = std::env::var(\"TQ_SCALE\");\n", ENV_WRITE).is_empty());
    assert!(matching_lines("fn a() { exec.fetch_chunk(n) }\n", RAW_PIN).is_empty());

    let one = "fn f() -> Stat {\n    Stat {\n        x,\n    }\n}\n";
    assert_eq!(stat_literals(one), 1);
    let ops = "let o = OperatorStat {\n    op,\n};\n";
    assert_eq!(stat_literals(ops), 0);
    let two = format!("{one}fn g() -> Stat {{\n    Stat {{ ..s }}\n}}\n");
    assert_eq!(stat_literals(&two), 2);
    let test_only = format!("{one}#[cfg(test)]\nmod tests {{\n    Stat {{ ..s }}\n}}\n");
    assert_eq!(stat_literals(&test_only), 1);
}
