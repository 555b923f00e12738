//! Frozen per-cell fingerprints for the differential oracles.
//!
//! `batch_differential` and `parallel_equivalence` compare the engine
//! against itself (across batch sizes, across degrees). That catches a
//! fork drifting from its twin but not both moving together, so each
//! also checks its cells against a file rendered once from a known
//! commit: `<fnv1a-64 of the cell's Debug rendering>  <cell name>` per
//! line. A simulated-side change then has to re-render the file on
//! purpose — the actual lines land in `CARGO_TARGET_TMPDIR/<file>` on
//! every mismatch, ready to be reviewed and copied over.

use std::path::PathBuf;

fn fnv1a(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Asserts that `cells` — `(name, rendering)` in a deterministic order —
/// fingerprint to exactly the lines of `tests/golden/<file>`.
pub fn assert_matches(file: &str, cells: &[(String, String)]) {
    let actual: String = cells
        .iter()
        .map(|(name, rendering)| format!("{:016x}  {name}\n", fnv1a(rendering)))
        .collect();
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(file);
    let expected = std::fs::read_to_string(&path).unwrap_or_default();
    if actual == expected {
        return;
    }
    let out = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(file);
    std::fs::write(&out, &actual).expect("write the actual fingerprints");
    let first = actual
        .lines()
        .zip(expected.lines().chain(std::iter::repeat("<missing>")))
        .find(|(a, e)| a != e)
        .map(|(a, e)| format!("got `{a}`, frozen `{e}`"))
        .unwrap_or_else(|| "the frozen file has extra lines".into());
    panic!(
        "{} diverges from the frozen fingerprints: {first}\n(actual lines written to {})",
        path.display(),
        out.display()
    );
}
