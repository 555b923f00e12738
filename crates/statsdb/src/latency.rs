//! Latency accounting for the serving experiment: a log-scaled
//! histogram and the summary record the load generator exports.
//!
//! The histogram is HDR-style: values (nanoseconds) land in buckets
//! that are linear within an octave and geometric across octaves —
//! [`SUB_BUCKETS`] sub-buckets per power of two, so any recorded value
//! is off by at most `1/SUB_BUCKETS` of itself (~3%) while the whole
//! `u64` range fits in a couple of thousand counters. Percentiles come
//! from bucket midpoints; min/max/mean are tracked exactly.
//!
//! [`LatencyStat`] deliberately stores only integers (nanoseconds and
//! counts), so its CSV export round-trips *exactly* — the same
//! discipline the per-operator CSV uses (`export.rs`).

use std::fmt::Write as _;

use crate::export::split_csv_line;

/// Sub-buckets per octave (power of two). 32 gives ≤3.2% relative
/// error per recorded value.
pub const SUB_BUCKETS: u64 = 32;
const SUB_BITS: u32 = SUB_BUCKETS.trailing_zeros();
const BUCKETS: usize = ((64 - SUB_BITS as usize) + 1) * SUB_BUCKETS as usize;

/// Log-scaled histogram of nanosecond values.
#[derive(Clone)]
pub struct LogHistogram {
    counts: Vec<u64>,
    total: u64,
    sum: u128,
    min: u64,
    max: u64,
}

impl Default for LogHistogram {
    fn default() -> Self {
        Self::new()
    }
}

fn bucket_of(v: u64) -> usize {
    if v < SUB_BUCKETS {
        return v as usize;
    }
    let msb = 63 - v.leading_zeros();
    let shift = msb - SUB_BITS;
    ((shift as u64 * SUB_BUCKETS) + (v >> shift)) as usize
}

/// Midpoint of a bucket's value range (its representative value).
fn bucket_mid(index: usize) -> u64 {
    let index = index as u64;
    if index < 2 * SUB_BUCKETS {
        // Octaves 0..=SUB_BITS: buckets are single values / width 1.
        return index;
    }
    let shift = index / SUB_BUCKETS - 1;
    let s = index - shift * SUB_BUCKETS;
    let low = s << shift;
    low + (1u64 << shift) / 2
}

impl LogHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self {
            counts: vec![0; BUCKETS],
            total: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Records one value (nanoseconds).
    pub fn record(&mut self, nanos: u64) {
        self.counts[bucket_of(nanos)] += 1;
        self.total += 1;
        self.sum += nanos as u128;
        self.min = self.min.min(nanos);
        self.max = self.max.max(nanos);
    }

    /// Values recorded.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Smallest recorded value (0 if empty).
    pub fn min(&self) -> u64 {
        if self.total == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest recorded value (0 if empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Exact mean of recorded values (0 if empty).
    pub fn mean(&self) -> u64 {
        if self.total == 0 {
            0
        } else {
            (self.sum / self.total as u128) as u64
        }
    }

    /// Value at quantile `q`: the midpoint of the bucket holding the
    /// `ceil(q·count)`-th smallest recording, clamped to the exact
    /// observed min/max. The boundaries are exact, not bucket
    /// approximations: `q ≤ 0` is the recorded minimum and `q ≥ 1` the
    /// recorded maximum (out-of-range `q` clamps rather than panics;
    /// NaN falls through to the minimum). 0 if empty.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.total == 0 {
            return 0;
        }
        if q.is_nan() || q <= 0.0 {
            return self.min();
        }
        if q >= 1.0 {
            return self.max();
        }
        let rank = ((q * self.total as f64).ceil() as u64).clamp(1, self.total);
        let mut seen = 0;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return bucket_mid(i).clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// Folds another histogram in (per-thread histograms merge into
    /// one report).
    pub fn merge(&mut self, other: &LogHistogram) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.total += other.total;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

/// One serving run's summary: configuration, outcome counts, and the
/// latency distribution of successful queries. All fields are integers
/// so the CSV export round-trips exactly; derived rates are methods.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct LatencyStat {
    /// What ran (e.g. `"CHJ pat=10 prov=90 cold"`).
    pub label: String,
    /// Closed-loop client threads.
    pub concurrency: u32,
    /// Server worker threads.
    pub workers: u32,
    /// Admission-queue depth.
    pub queue_depth: u32,
    /// Wall-clock duration of the run, nanoseconds.
    pub duration_nanos: u64,
    /// Queries answered `QueryOk`.
    pub queries_ok: u64,
    /// Queries shed by admission control — all targets combined.
    pub queries_shed: u64,
    /// Of [`LatencyStat::queries_shed`], the queries shed at the
    /// scatter-gather *router's* admission edge rather than by an
    /// engine shard. Always 0 for unsharded runs; the shard-level
    /// count is `queries_shed - shed_router`.
    pub shed_router: u64,
    /// Queries cancelled by their deadline.
    pub deadline_exceeded: u64,
    /// Queries answered with a protocol/server error.
    pub errors: u64,
    /// Write transactions committed (mixed-workload runs; 0 otherwise).
    pub commits: u64,
    /// Write transactions aborted by commit validation.
    pub aborts: u64,
    /// Fastest successful query, nanoseconds.
    pub min_nanos: u64,
    /// Mean successful-query latency, nanoseconds.
    pub mean_nanos: u64,
    /// Median, nanoseconds.
    pub p50_nanos: u64,
    /// 95th percentile, nanoseconds.
    pub p95_nanos: u64,
    /// 99th percentile, nanoseconds.
    pub p99_nanos: u64,
    /// Slowest successful query, nanoseconds.
    pub max_nanos: u64,
}

impl LatencyStat {
    /// Builds the summary from a run's histogram and outcome counts.
    #[allow(clippy::too_many_arguments)]
    pub fn from_histogram(
        label: impl Into<String>,
        concurrency: u32,
        workers: u32,
        queue_depth: u32,
        duration_nanos: u64,
        hist: &LogHistogram,
        queries_shed: u64,
        shed_router: u64,
        deadline_exceeded: u64,
        errors: u64,
        commits: u64,
        aborts: u64,
    ) -> Self {
        Self {
            label: label.into(),
            concurrency,
            workers,
            queue_depth,
            duration_nanos,
            queries_ok: hist.count(),
            queries_shed,
            shed_router,
            deadline_exceeded,
            errors,
            commits,
            aborts,
            min_nanos: hist.min(),
            mean_nanos: hist.mean(),
            p50_nanos: hist.quantile(0.50),
            p95_nanos: hist.quantile(0.95),
            p99_nanos: hist.quantile(0.99),
            max_nanos: hist.max(),
        }
    }

    /// Completed queries per wall-clock second.
    pub fn throughput_qps(&self) -> f64 {
        if self.duration_nanos == 0 {
            return 0.0;
        }
        self.queries_ok as f64 / (self.duration_nanos as f64 / 1e9)
    }

    /// Fraction of arrivals shed by admission control.
    pub fn shed_rate(&self) -> f64 {
        let arrivals = self.queries_ok + self.queries_shed + self.deadline_exceeded + self.errors;
        if arrivals == 0 {
            return 0.0;
        }
        self.queries_shed as f64 / arrivals as f64
    }

    /// Fraction of write transactions that lost commit validation
    /// (aborts / attempts). 0.0 for read-only runs.
    pub fn abort_rate(&self) -> f64 {
        let attempts = self.commits + self.aborts;
        if attempts == 0 {
            return 0.0;
        }
        self.aborts as f64 / attempts as f64
    }

    /// Folds another run's summary into this one — the aggregation
    /// that combines per-shard (or per-instance) serving summaries
    /// into a single fleet-level row. All-integer, so the merged
    /// record still round-trips the CSV exactly.
    ///
    /// Semantics, field by field:
    /// * outcome counters (`ok`, `shed`, `shed_router`, deadline,
    ///   errors, commits, aborts) and the client/worker totals
    ///   (`concurrency`, `workers`) sum exactly;
    /// * `queue_depth` keeps the per-instance maximum — it bounds one
    ///   admission queue, it is not an additive resource;
    /// * `duration_nanos` keeps the maximum: merged instances ran
    ///   concurrently, so wall clock is the slowest part's;
    /// * `min`/`max` latencies merge exactly;
    /// * `mean_nanos` is the count-weighted integer mean (computed in
    ///   u128; each fold loses at most the sub-nanosecond division
    ///   remainder, so a chain of k folds is within k ns of the mean
    ///   over all samples);
    /// * percentiles take the **maximum** of the parts: the union's
    ///   true q-quantile can never exceed the largest per-part
    ///   q-quantile (each part already has ⌈q·nᵢ⌉ samples at or below
    ///   its own quantile), so up to the histogram's bucket
    ///   resolution (≤3.2% per value) this is a conservative upper
    ///   bound — the right direction to err for latency SLOs.
    pub fn merge(&mut self, other: &LatencyStat) {
        let (n_self, n_other) = (self.queries_ok, other.queries_ok);
        let n = n_self + n_other;
        if n > 0 {
            let weighted = self.mean_nanos as u128 * n_self as u128
                + other.mean_nanos as u128 * n_other as u128;
            self.mean_nanos = (weighted / n as u128) as u64;
        }
        if n_other > 0 {
            self.min_nanos = if n_self == 0 {
                other.min_nanos
            } else {
                self.min_nanos.min(other.min_nanos)
            };
            self.max_nanos = self.max_nanos.max(other.max_nanos);
            self.p50_nanos = self.p50_nanos.max(other.p50_nanos);
            self.p95_nanos = self.p95_nanos.max(other.p95_nanos);
            self.p99_nanos = self.p99_nanos.max(other.p99_nanos);
        }
        self.concurrency += other.concurrency;
        self.workers += other.workers;
        self.queue_depth = self.queue_depth.max(other.queue_depth);
        self.duration_nanos = self.duration_nanos.max(other.duration_nanos);
        self.queries_ok = n;
        self.queries_shed += other.queries_shed;
        self.shed_router += other.shed_router;
        self.deadline_exceeded += other.deadline_exceeded;
        self.errors += other.errors;
        self.commits += other.commits;
        self.aborts += other.aborts;
    }
}

/// Header of the latency CSV, shared by writer and parser.
const LATENCY_CSV_HEADER: &str = "label,concurrency,workers,queue_depth,duration_ns,\
     ok,shed,shed_router,deadline_exceeded,errors,commits,aborts,\
     min_ns,mean_ns,p50_ns,p95_ns,p99_ns,max_ns";

fn csv_field(s: &str) -> String {
    if s.contains([',', '"', '\n']) {
        format!("\"{}\"", s.replace('"', "\"\""))
    } else {
        s.to_string()
    }
}

/// Renders latency summaries as CSV (integer nanoseconds throughout,
/// so [`parse_latency_csv`] recovers them exactly).
pub fn to_latency_csv<'a>(stats: impl IntoIterator<Item = &'a LatencyStat>) -> String {
    let mut out = String::new();
    out.push_str(LATENCY_CSV_HEADER);
    out.push('\n');
    for s in stats {
        writeln!(
            out,
            "{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{}",
            csv_field(&s.label),
            s.concurrency,
            s.workers,
            s.queue_depth,
            s.duration_nanos,
            s.queries_ok,
            s.queries_shed,
            s.shed_router,
            s.deadline_exceeded,
            s.errors,
            s.commits,
            s.aborts,
            s.min_nanos,
            s.mean_nanos,
            s.p50_nanos,
            s.p95_nanos,
            s.p99_nanos,
            s.max_nanos,
        )
        .expect("writing to a String cannot fail");
    }
    out
}

/// Parses [`to_latency_csv`] output back. Returns `None` on a header
/// mismatch or malformed row — our own exports only, like the
/// operator-CSV parser.
pub fn parse_latency_csv(csv: &str) -> Option<Vec<LatencyStat>> {
    let mut lines = csv.lines();
    if lines.next()? != LATENCY_CSV_HEADER {
        return None;
    }
    let mut rows = Vec::new();
    for line in lines {
        let f = split_csv_line(line);
        if f.len() != 18 {
            return None;
        }
        let num = |i: usize| f[i].parse::<u64>().ok();
        rows.push(LatencyStat {
            label: f[0].clone(),
            concurrency: f[1].parse().ok()?,
            workers: f[2].parse().ok()?,
            queue_depth: f[3].parse().ok()?,
            duration_nanos: num(4)?,
            queries_ok: num(5)?,
            queries_shed: num(6)?,
            shed_router: num(7)?,
            deadline_exceeded: num(8)?,
            errors: num(9)?,
            commits: num(10)?,
            aborts: num(11)?,
            min_nanos: num(12)?,
            mean_nanos: num(13)?,
            p50_nanos: num(14)?,
            p95_nanos: num(15)?,
            p99_nanos: num(16)?,
            max_nanos: num(17)?,
        });
    }
    Some(rows)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_are_contiguous_and_monotone() {
        let mut prev = 0;
        for v in (0..4096u64).chain([1 << 20, (1 << 20) + 1, u64::MAX / 2, u64::MAX]) {
            let b = bucket_of(v);
            assert!(b < BUCKETS, "bucket {b} out of range for {v}");
            assert!(b >= prev || v < 4096, "non-monotone at {v}");
            if v < 4096 {
                prev = prev.max(b);
            }
        }
        // Exact buckets below SUB_BUCKETS.
        for v in 0..SUB_BUCKETS {
            assert_eq!(bucket_mid(bucket_of(v)), v);
        }
    }

    #[test]
    fn quantiles_track_recorded_values_within_bucket_error() {
        let mut h = LogHistogram::new();
        for v in 1..=10_000u64 {
            h.record(v * 1000);
        }
        assert_eq!(h.count(), 10_000);
        assert_eq!(h.min(), 1000);
        assert_eq!(h.max(), 10_000_000);
        for (q, expect) in [(0.5, 5_000_000.0), (0.95, 9_500_000.0), (0.99, 9_900_000.0)] {
            let got = h.quantile(q) as f64;
            let err = (got - expect).abs() / expect;
            assert!(err < 0.04, "q{q}: got {got}, want ~{expect} (err {err:.3})");
        }
        // Mean is exact.
        assert_eq!(h.mean(), 5_000_500);
    }

    #[test]
    fn empty_histogram_reports_zeroes() {
        let h = LogHistogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.mean(), 0);
        assert_eq!(h.quantile(0.99), 0);
        // Boundary quantiles of an empty histogram are 0 too — not
        // u64::MAX leaking out of the untouched `min` field.
        assert_eq!(h.quantile(0.0), 0);
        assert_eq!(h.quantile(1.0), 0);
    }

    #[test]
    fn boundary_quantiles_are_exact_extremes() {
        // Regression: q=0 used to return the first occupied bucket's
        // midpoint (above the true minimum once values outgrow the
        // exact sub-bucket range) and q=1 the last bucket's clamped
        // midpoint. Both must be the *recorded* extremes, exactly.
        let mut h = LogHistogram::new();
        for v in [1_000_003u64, 5_500_017, 9_999_991] {
            h.record(v);
        }
        assert_eq!(h.quantile(0.0), 1_000_003);
        assert_eq!(h.quantile(1.0), 9_999_991);
        // Out-of-range q clamps instead of panicking or indexing wild.
        assert_eq!(h.quantile(-3.5), 1_000_003);
        assert_eq!(h.quantile(7.0), 9_999_991);
        assert_eq!(h.quantile(f64::NAN), 1_000_003);
        // Interior quantiles still sit within the recorded range.
        let q50 = h.quantile(0.5);
        assert!((1_000_003..=9_999_991).contains(&q50));
        // A single-value histogram answers that value at every q.
        let mut one = LogHistogram::new();
        one.record(123_456_789);
        for q in [0.0, 0.25, 0.5, 0.99, 1.0] {
            assert_eq!(one.quantile(q), 123_456_789, "q={q}");
        }
    }

    #[test]
    fn merge_equals_combined_recording() {
        let mut a = LogHistogram::new();
        let mut b = LogHistogram::new();
        let mut both = LogHistogram::new();
        for v in [3u64, 77, 1_000_000, 123_456_789] {
            a.record(v);
            both.record(v);
        }
        for v in [1u64, 500, 2_000_000_000] {
            b.record(v);
            both.record(v);
        }
        a.merge(&b);
        assert_eq!(a.count(), both.count());
        assert_eq!(a.min(), both.min());
        assert_eq!(a.max(), both.max());
        assert_eq!(a.mean(), both.mean());
        for q in [0.1, 0.5, 0.9, 0.99] {
            assert_eq!(a.quantile(q), both.quantile(q));
        }
    }

    #[test]
    fn latency_csv_round_trips_exactly() {
        let mut h = LogHistogram::new();
        for v in [10_000u64, 20_000, 40_000, 80_000, 160_000] {
            h.record(v);
        }
        let stats = vec![
            LatencyStat::from_histogram(
                "CHJ pat=10, prov=90",
                8,
                4,
                16,
                2_000_000_000,
                &h,
                3,
                1,
                1,
                0,
                12,
                4,
            ),
            LatencyStat::default(),
        ];
        let csv = to_latency_csv(&stats);
        let parsed = parse_latency_csv(&csv).expect("own export must parse");
        assert_eq!(parsed, stats);
        // The quoted-comma label survived.
        assert_eq!(parsed[0].label, "CHJ pat=10, prov=90");
        // Derived rates behave.
        assert!(parsed[0].throughput_qps() > 0.0);
        assert!((parsed[0].shed_rate() - 3.0 / 9.0).abs() < 1e-12);
        assert!((parsed[0].abort_rate() - 4.0 / 16.0).abs() < 1e-12);
        assert_eq!(parsed[1].abort_rate(), 0.0, "read-only runs report 0");
    }

    #[test]
    fn foreign_csv_is_rejected() {
        assert!(parse_latency_csv("nope\n1,2,3").is_none());
        let mut csv = String::from(LATENCY_CSV_HEADER);
        csv.push_str("\nonly,three,fields\n");
        assert!(parse_latency_csv(&csv).is_none());
        // A pre-shed_router 17-field row is foreign now.
        let mut old = String::from(LATENCY_CSV_HEADER);
        old.push_str("\nx,1,1,1,1,1,1,1,1,1,1,1,1,1,1,1,1\n");
        assert!(parse_latency_csv(&old).is_none());
    }

    fn stat_of(label: &str, values: &[u64], shed: u64, shed_router: u64) -> LatencyStat {
        let mut h = LogHistogram::new();
        for &v in values {
            h.record(v);
        }
        LatencyStat::from_histogram(
            label,
            4,
            2,
            8,
            1_000_000_000,
            &h,
            shed,
            shed_router,
            2,
            1,
            5,
            3,
        )
    }

    #[test]
    fn merge_sums_counts_and_bounds_percentiles() {
        let mut a = stat_of("a", &[1_000, 2_000, 4_000], 3, 1);
        let b = stat_of("b", &[8_000, 16_000], 2, 2);
        a.merge(&b);
        assert_eq!(a.queries_ok, 5);
        assert_eq!(a.queries_shed, 5);
        assert_eq!(a.shed_router, 3);
        assert_eq!(a.deadline_exceeded, 4);
        assert_eq!(a.errors, 2);
        assert_eq!(a.commits, 10);
        assert_eq!(a.aborts, 6);
        assert_eq!(a.concurrency, 8);
        assert_eq!(a.workers, 4);
        assert_eq!(a.queue_depth, 8);
        assert_eq!(a.duration_nanos, 1_000_000_000);
        assert_eq!(a.min_nanos, 1_000);
        assert_eq!(a.max_nanos, 16_000);
        // Weighted mean: (2333*3 + 12000*2) / 5.
        assert_eq!(a.mean_nanos, (2333 * 3 + 12000 * 2) / 5);
        // Merged stat still round-trips the CSV exactly.
        let csv = to_latency_csv([&a]);
        assert_eq!(parse_latency_csv(&csv).unwrap(), vec![a]);
    }

    #[test]
    fn merge_with_empty_keeps_latencies() {
        let mut empty = stat_of("e", &[], 0, 0);
        let a = stat_of("a", &[5_000, 9_000], 1, 0);
        empty.merge(&a);
        assert_eq!(empty.min_nanos, a.min_nanos);
        assert_eq!(empty.max_nanos, a.max_nanos);
        assert_eq!(empty.mean_nanos, a.mean_nanos);
        assert_eq!(empty.p99_nanos, a.p99_nanos);
        let mut b = stat_of("b", &[5_000, 9_000], 1, 0);
        b.merge(&stat_of("e", &[], 0, 0));
        assert_eq!(b.p50_nanos, a.p50_nanos);
        assert_eq!(b.min_nanos, a.min_nanos);
    }

    #[test]
    fn merge_tracks_combined_recording_within_bounds() {
        // Property: merging per-part summaries tracks the summary of
        // the combined recording — counts/min/max exactly, the mean
        // within one ns per fold (integer rounding), percentiles
        // bounded by [combined percentile, combined max].
        let mut rng = tq_simrng::SimRng::seed_from_u64(0x5EED_1A7E);
        for _ in 0..40 {
            let parts = 2 + rng.index(4);
            let mut combined = LogHistogram::new();
            let mut merged: Option<LatencyStat> = None;
            let mut totals = (0u64, 0u64); // (shed, shed_router)
            for _ in 0..parts {
                let n = rng.index(200);
                let mut h = LogHistogram::new();
                for _ in 0..n {
                    let v = 1 + (rng.next_u64() % 10_000_000);
                    h.record(v);
                    combined.record(v);
                }
                let shed_router = rng.index(5) as u64;
                let shed = shed_router + rng.index(5) as u64;
                totals.0 += shed;
                totals.1 += shed_router;
                let s = LatencyStat::from_histogram(
                    "part",
                    1,
                    1,
                    8,
                    1_000,
                    &h,
                    shed,
                    shed_router,
                    0,
                    0,
                    0,
                    0,
                );
                match merged.as_mut() {
                    Some(m) => m.merge(&s),
                    None => merged = Some(s),
                }
            }
            let m = merged.unwrap();
            assert_eq!(m.queries_ok, combined.count());
            assert_eq!(m.min_nanos, combined.min());
            assert_eq!(m.max_nanos, combined.max());
            assert_eq!(m.queries_shed, totals.0);
            assert_eq!(m.shed_router, totals.1);
            assert!(m.mean_nanos.abs_diff(combined.mean()) <= parts as u64);
            for (q, got) in [
                (0.50, m.p50_nanos),
                (0.95, m.p95_nanos),
                (0.99, m.p99_nanos),
            ] {
                // Lower bound holds up to bucket resolution (two
                // sub-buckets of slack); the upper bound is exact.
                let lo = combined.quantile(q) as f64 * (1.0 - 2.0 / SUB_BUCKETS as f64);
                assert!(got as f64 >= lo, "q{q} below combined quantile");
                assert!(got <= combined.max(), "q{q} above combined max");
            }
            // All-integer: the merged row survives the CSV exactly.
            let csv = to_latency_csv([&m]);
            assert_eq!(parse_latency_csv(&csv).unwrap(), vec![m]);
        }
    }
}
