//! Shape tests: scaled-down regenerations of every figure, asserting
//! the paper's orderings and crossovers (DESIGN.md §4).
//!
//! Scales are chosen so each test runs in seconds while the
//! cache-to-database and memory-to-table ratios stay at paper values
//! (BuildConfig::scaled divides them together).

use tq_bench::figures::{fig06, fig07, joins};
use tq_query::planner::{choose_join, Strategy};
use tq_query::{Engine, JoinAlgo};
use tq_server::measure::{join_spec, run_join_cell};
use tq_workload::{patient_attr, provider_attr, DbShape, Organization};

/// Figure 6: the unclustered-index crossover sits at low selectivity.
#[test]
fn fig06_index_crossover_at_low_selectivity() {
    let fig = fig06::run(100, 1);
    // Below the crossover the index reads fewer pages; above, more.
    let crossover = fig06::crossover_permille(&fig)
        .expect("the index must start losing on pages at some selectivity");
    assert!(
        (2..=300).contains(&crossover),
        "crossover at {:.1}% (paper: between 1 and 5%)",
        crossover as f64 / 10.0
    );
    // At 90% the index scan reads strictly more pages than the scan.
    let last = fig.rows.last().unwrap();
    assert!(last.index_pages > last.scan_pages);
    // And the lowest selectivity reads strictly fewer.
    let first = fig.rows.first().unwrap();
    assert!(first.index_pages < first.scan_pages);
}

/// Figure 7: the *sorted* unclustered index beats the full scan at
/// every selectivity from 10% to 90%.
#[test]
fn fig07_sorted_index_always_wins() {
    let fig = fig07::run(100, 1);
    for row in &fig.rows {
        assert!(
            row.sorted_secs < row.scan_secs,
            "sel {}%: sorted {:.2}s vs scan {:.2}s",
            row.pct,
            row.sorted_secs,
            row.scan_secs
        );
        assert!(row.rids_sorted > 0);
    }
    // The advantage narrows as selectivity grows (paper: 0.25 -> 0.86).
    let first_ratio = fig.rows.first().unwrap().sorted_secs / fig.rows.first().unwrap().scan_secs;
    let last_ratio = fig.rows.last().unwrap().sorted_secs / fig.rows.last().unwrap().scan_secs;
    assert!(first_ratio < last_ratio);
}

/// Figure 11 shape: 1:1000, class clustering — hash joins and NOJOIN
/// comparable; NL dreadful.
#[test]
fn fig11_class_1to1000_shape() {
    let fig = joins::run_join_figure(DbShape::Db1, Organization::ClassClustered, 50, 1);
    for (pat, prov) in joins::CELLS {
        let ranked = fig.ranking(pat, prov);
        let best = ranked[0].1;
        let winner = ranked[0].0;
        assert!(
            matches!(winner, JoinAlgo::Phj | JoinAlgo::Chj),
            "({pat},{prov}): winner {winner:?}"
        );
        let nojoin = ranked
            .iter()
            .find(|(a, _)| *a == JoinAlgo::Nojoin)
            .unwrap()
            .1;
        assert!(
            nojoin < 2.5 * best,
            "({pat},{prov}): NOJOIN must stay comparable ({:.1}x)",
            nojoin / best
        );
        let nl = ranked.iter().find(|(a, _)| *a == JoinAlgo::Nl).unwrap().1;
        // The paper's NL margins per cell: 15.8x, 80x, 1.63x, 7x — the
        // (90,10) cell is the only close one.
        let nl_floor = if (pat, prov) == (90, 10) { 1.25 } else { 3.0 };
        assert!(
            nl > nl_floor * best,
            "({pat},{prov}): NL must trail clearly ({:.1}x)",
            nl / best
        );
    }
}

/// Figure 12 shape: 1:3, class clustering — hash joins win low
/// selectivities; at (90,90) the tables swap and NOJOIN wins.
#[test]
fn fig12_class_1to3_shape() {
    let fig = joins::run_join_figure(DbShape::Db2, Organization::ClassClustered, 100, 1);
    // (10,10): hash joins far ahead of navigation.
    let ranked = fig.ranking(10, 10);
    assert!(matches!(ranked[0].0, JoinAlgo::Phj | JoinAlgo::Chj));
    let best = ranked[0].1;
    for nav in [JoinAlgo::Nl, JoinAlgo::Nojoin] {
        let t = ranked.iter().find(|(a, _)| *a == nav).unwrap().1;
        assert!(t > 4.0 * best, "{nav:?} must be dreadful at (10,10)");
    }
    // (90,90): the swap inversion — NOJOIN beats both hash joins.
    let ranked = fig.ranking(90, 90);
    assert_eq!(ranked[0].0, JoinAlgo::Nojoin, "ranking: {ranked:?}");
    // And everything is within ~2x (the paper: 1.0 to 1.7).
    assert!(ranked[3].1 < 3.0 * ranked[0].1);
}

/// Figures 13/14 shape: composition clustering — NL wins nearly
/// everywhere; the Fig 14 (10,90) exception goes to NOJOIN.
#[test]
fn fig13_14_composition_shape() {
    let db1 = joins::run_join_figure(DbShape::Db1, Organization::Composition, 50, 1);
    for (pat, prov) in [(10, 10), (90, 10)] {
        assert_eq!(db1.winner(pat, prov).0, JoinAlgo::Nl, "db1 ({pat},{prov})");
    }
    let db2 = joins::run_join_figure(DbShape::Db2, Organization::Composition, 100, 1);
    for (pat, prov) in [(10, 10), (90, 10), (90, 90)] {
        assert_eq!(db2.winner(pat, prov).0, JoinAlgo::Nl, "db2 ({pat},{prov})");
    }
    // The paper's Figure 14 row 2: NOJOIN wins (pat 10, prov 90).
    assert_eq!(db2.winner(10, 90).0, JoinAlgo::Nojoin);
    // And PHJ swaps there (its table outgrows the budget).
    let ranked = db2.ranking(10, 90);
    let phj = ranked.iter().find(|(a, _)| *a == JoinAlgo::Phj).unwrap().1;
    assert!(
        phj > 3.0 * ranked[0].1,
        "PHJ must swap at (10,90): {ranked:?}"
    );
}

/// §5.2: the randomized organization is slower than class clustering
/// but crowns the same kind of winner.
#[test]
fn random_org_slower_same_winners() {
    let class = joins::run_join_figure(DbShape::Db2, Organization::ClassClustered, 200, 1);
    let random = joins::run_join_figure(DbShape::Db2, Organization::Randomized, 200, 1);
    let (cw, ct) = class.winner(10, 10);
    let (rw, rt) = random.winner(10, 10);
    assert!(matches!(cw, JoinAlgo::Phj | JoinAlgo::Chj));
    assert!(matches!(rw, JoinAlgo::Phj | JoinAlgo::Chj));
    assert!(
        rt > 1.2 * ct && rt < 8.0 * ct,
        "random {rt:.1}s vs class {ct:.1}s (paper: 1.5-2x)"
    );
}

/// The cost-based planner picks a plan whose *actual* cost is close to
/// the actual best, across organizations and selectivities.
#[test]
fn cost_based_planner_is_near_optimal() {
    for org in Organization::all() {
        let mut db = tq_bench::build_db(DbShape::Db2, org, 200);
        let mut engine = Engine::new(db.store.clone());
        let derby = &db.derby;
        engine.register_index(
            db.idx_provider_upin.clone(),
            derby.provider,
            provider_attr::UPIN,
        );
        engine.register_index(db.idx_patient_mrn.clone(), derby.patient, patient_attr::MRN);
        let model = db.store.stack().model().clone();
        for (pat, prov) in [(10, 10), (90, 90)] {
            let profile = engine
                .profile_for(&join_spec(&db, pat, prov))
                .expect("both indexes registered");
            let choice = choose_join(
                Strategy::CostBased,
                &profile,
                &model,
                prov as f64 / 100.0,
                pat as f64 / 100.0,
            );
            let mut actual: Vec<(JoinAlgo, f64)> = JoinAlgo::all()
                .into_iter()
                .map(|a| {
                    let cell = run_join_cell(&mut db, a, pat, prov, &Default::default());
                    (a, cell.secs)
                })
                .collect();
            actual.sort_by(|a, b| a.1.total_cmp(&b.1));
            let chosen = actual.iter().find(|(a, _)| *a == choice.algo).unwrap().1;
            assert!(
                chosen <= 2.0 * actual[0].1,
                "{org:?} ({pat},{prov}): planner chose {:?} at {chosen:.1}s, best was {:?} at {:.1}s",
                choice.algo,
                actual[0].0,
                actual[0].1
            );
        }
    }
}
