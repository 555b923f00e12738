//! Exporters: CSV and gnuplot data files.
//!
//! The paper's authors "built easily automatic translation tools to
//! create input files for data analysis softwares" (§3.3) and used YAT
//! to convert O2 data to Gnuplot. These are those tools.

use crate::model::Stat;
use std::fmt::Write as _;

/// Escapes one CSV field (quotes when needed).
fn csv_field(s: &str) -> String {
    if s.contains([',', '"', '\n']) {
        format!("\"{}\"", s.replace('"', "\"\""))
    } else {
        s.to_string()
    }
}

/// Renders records as CSV with a header row. Selectivities are
/// flattened as `extent=pct` pairs joined by `;`.
pub fn to_csv<'a>(stats: impl IntoIterator<Item = &'a Stat>) -> String {
    let mut out = String::new();
    out.push_str(
        "numtest,algo,cluster,database,cold,projection,selectivities,query,\
         elapsed_s,cc_pagefaults,rpcs,rpcs_mb,d2sc_pages,sc2cc_pages,\
         cc_miss_pct,sc_miss_pct\n",
    );
    for s in stats {
        let sel = s
            .query
            .selectivities
            .iter()
            .map(|(e, p)| format!("{e}={p}"))
            .collect::<Vec<_>>()
            .join(";");
        writeln!(
            out,
            "{},{},{},{},{},{},{},{},{:.2},{},{},{:.2},{},{},{:.1},{:.1}",
            s.numtest,
            csv_field(&s.algo),
            csv_field(&s.cluster),
            csv_field(&s.database_label()),
            s.query.cold,
            csv_field(&s.query.projection_type),
            csv_field(&sel),
            csv_field(&s.query.text),
            s.elapsed_time,
            s.cc_pagefaults,
            s.rpcs_number,
            s.rpcs_total_mb,
            s.d2sc_read_pages,
            s.sc2cc_read_pages,
            s.cc_miss_rate,
            s.sc_miss_rate,
        )
        .expect("writing to a String cannot fail");
    }
    out
}

/// Header of the per-operator CSV.
const OPERATOR_CSV_HEADER: &str = "numtest,algo,cluster,op,label,depth,d2sc_pages,\
     sc2cc_pages,cc_misses,handle_gets,handle_frees,cpu_events,io_ns,rpc_ns,cpu_ns,swap_ns";

/// Renders the per-operator breakdowns as their own CSV (one row per
/// operator, keyed back to the experiment by `numtest`). Time columns
/// are integer nanoseconds so the export round-trips exactly; records
/// without a traced breakdown contribute no rows.
pub fn to_operator_csv<'a>(stats: impl IntoIterator<Item = &'a Stat>) -> String {
    let mut out = String::new();
    out.push_str(OPERATOR_CSV_HEADER);
    out.push('\n');
    for s in stats {
        for op in &s.operators {
            writeln!(
                out,
                "{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{}",
                s.numtest,
                csv_field(&s.algo),
                csv_field(&s.cluster),
                csv_field(&op.op),
                csv_field(&op.label),
                op.depth,
                op.d2sc_read_pages,
                op.sc2cc_read_pages,
                op.client_misses,
                op.handle_gets,
                op.handle_frees,
                op.cpu_events,
                op.io_nanos,
                op.rpc_nanos,
                op.cpu_nanos,
                op.swap_nanos,
            )
            .expect("writing to a String cannot fail");
        }
    }
    out
}

/// Splits one CSV line into fields, undoing [`csv_field`] quoting.
pub(crate) fn split_csv_line(line: &str) -> Vec<String> {
    let mut fields = Vec::new();
    let mut cur = String::new();
    let mut in_quotes = false;
    let mut chars = line.chars().peekable();
    while let Some(c) = chars.next() {
        match c {
            '"' if in_quotes && chars.peek() == Some(&'"') => {
                cur.push('"');
                chars.next();
            }
            '"' => in_quotes = !in_quotes,
            ',' if !in_quotes => fields.push(std::mem::take(&mut cur)),
            _ => cur.push(c),
        }
    }
    fields.push(cur);
    fields
}

/// Renders a gnuplot `.dat` block per series: rows are
/// `x elapsed_seconds`, one indexed block per series (gnuplot
/// `index n`), series selected and ordered by `series_of`, x by `x_of`.
pub fn to_gnuplot<'a>(
    stats: impl IntoIterator<Item = &'a Stat>,
    series_of: impl Fn(&Stat) -> String,
    x_of: impl Fn(&Stat) -> f64,
) -> String {
    let mut by_series: Vec<(String, Vec<(f64, f64)>)> = Vec::new();
    for s in stats {
        let key = series_of(s);
        let point = (x_of(s), s.elapsed_time);
        match by_series.iter_mut().find(|(k, _)| *k == key) {
            Some((_, v)) => v.push(point),
            None => by_series.push((key, vec![point])),
        }
    }
    let mut out = String::new();
    for (key, mut points) in by_series {
        points.sort_by(|a, b| a.0.total_cmp(&b.0));
        writeln!(out, "# series: {key}").unwrap();
        for (x, y) in points {
            writeln!(out, "{x} {y:.2}").unwrap();
        }
        out.push_str("\n\n");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::db::StatsDb;
    use crate::model::tests::sample_stat;
    use crate::model::OperatorStat;

    #[test]
    fn csv_has_header_and_rows() {
        let mut db = StatsDb::new();
        db.insert(sample_stat(0, "PHJ", 89.83));
        db.insert(sample_stat(0, "NL", 1418.56));
        let csv = to_csv(db.all());
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].starts_with("numtest,algo"));
        assert!(lines[1].contains("PHJ"));
        assert!(lines[1].contains("89.83"));
        assert!(lines[2].contains("NL"));
    }

    #[test]
    fn csv_escapes_commas_and_quotes() {
        let mut s = sample_stat(1, "PHJ", 1.0);
        s.query.text = "select f(p,pa) \"quoted\"".into();
        let csv = to_csv([&s]);
        assert!(csv.contains("\"select f(p,pa) \"\"quoted\"\"\""));
    }

    /// One operator's CSV row as fields, in header order.
    fn operator_fields(s: &Stat, op: &OperatorStat) -> Vec<String> {
        let mut f = vec![s.numtest.to_string(), s.algo.clone(), s.cluster.clone()];
        f.extend([op.op.clone(), op.label.clone(), op.depth.to_string()]);
        f.extend(
            [
                op.d2sc_read_pages,
                op.sc2cc_read_pages,
                op.client_misses,
                op.handle_gets,
                op.handle_frees,
                op.cpu_events,
                op.io_nanos,
                op.rpc_nanos,
                op.cpu_nanos,
                op.swap_nanos,
            ]
            .map(|n| n.to_string()),
        );
        f
    }

    #[test]
    fn operator_csv_round_trips_exactly() {
        let mut db = StatsDb::new();
        db.insert(sample_stat(0, "PHJ", 89.83));
        let mut bare = sample_stat(0, "NL", 1.0);
        bare.operators.clear(); // untraced runs contribute no rows
        db.insert(bare);
        let csv = to_operator_csv(db.all());
        let mut lines = csv.lines();
        assert_eq!(lines.next(), Some(OPERATOR_CSV_HEADER));
        let rows: Vec<Vec<String>> = lines.map(split_csv_line).collect();
        let original: Vec<_> = db
            .all()
            .iter()
            .flat_map(|s| s.operators.iter().map(|op| operator_fields(s, op)))
            .collect();
        assert_eq!(rows, original);
        assert_eq!(rows.len(), 2, "only the traced record exports rows");
    }

    #[test]
    fn operator_csv_escapes_and_reparses_quoted_labels() {
        let mut s = sample_stat(3, "PHJ", 1.0);
        s.operators[0].label = "weird,\"label\"".into();
        let csv = to_operator_csv([&s]);
        let row = split_csv_line(csv.lines().nth(1).unwrap());
        assert_eq!(row[4], "weird,\"label\"");
    }

    #[test]
    fn gnuplot_groups_series_and_sorts_x() {
        let mut db = StatsDb::new();
        let mut a = sample_stat(0, "PHJ", 10.0);
        a.query.selectivities = vec![("Patient".into(), 90)];
        db.insert(a);
        let mut b = sample_stat(0, "PHJ", 5.0);
        b.query.selectivities = vec![("Patient".into(), 10)];
        db.insert(b);
        let mut c = sample_stat(0, "NL", 99.0);
        c.query.selectivities = vec![("Patient".into(), 10)];
        db.insert(c);
        let dat = to_gnuplot(
            db.all(),
            |s| s.algo.clone(),
            |s| s.query.selectivity_on("Patient").unwrap_or(0) as f64,
        );
        let phj = dat.split("# series: NL").next().unwrap();
        assert!(phj.contains("# series: PHJ"));
        // Points sorted by x within the PHJ block.
        let idx10 = phj.find("10 5.00").unwrap();
        let idx90 = phj.find("90 10.00").unwrap();
        assert!(idx10 < idx90);
        assert!(dat.contains("# series: NL"));
        assert!(dat.contains("10 99.00"));
    }
}
