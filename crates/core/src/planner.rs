//! Plan choice: the heuristic strategy O2 shipped with, and the
//! cost-based strategy the authors wanted to build.
//!
//! §2 of the paper: "The OQL optimizer of the O2 database management
//! system relies on heuristics to choose the 'best' execution plans.
//! As expected, this implies that 'best' is sometimes rather bad."
//! [`Strategy::Heuristic`] encodes that navigation-first mindset;
//! [`Strategy::CostBased`] runs the [`estimator`](crate::estimator)
//! over every candidate and takes the argmin.
//!
//! N-way chains choose their join order through a [`PlannerPolicy`]:
//! * [`PlannerPolicy::Syntactic`] — the query's own binding order, all
//!   navigation (what a naive OQL evaluator does);
//! * [`PlannerPolicy::Simpli`] — Simpli-Squared (arXiv 2111.00163):
//!   order by collection size alone, no cardinality estimates, hash
//!   joins wherever the schema allows;
//! * [`PlannerPolicy::Estimate`] — enumerate every connected order ×
//!   per-stage algorithm × access path and take the estimator argmin.

use crate::estimator::{
    estimate_chain, estimate_join, estimate_selection, ChainFacts, PhysicalProfile, SelectPath,
};
use crate::plan::{
    enumerate_plans, root_options, stage_options, ChainSpec, JoinStage, LogicalPlan, RootAccess,
    StepAlgo,
};
use crate::spec::JoinAlgo;
use tq_pagestore::CostModel;

/// Plan-selection strategy.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Strategy {
    /// Navigation-oriented rules of thumb (what O2 did): follow the
    /// pointer from the smaller selected side.
    Heuristic,
    /// Estimate every candidate and take the cheapest.
    CostBased,
}

/// A join plan choice with its (estimated) cost in seconds.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct JoinChoice {
    /// Chosen algorithm.
    pub algo: JoinAlgo,
    /// Estimated seconds (heuristic choices are costed too, for
    /// comparison).
    pub estimated_secs: f64,
}

/// Chooses a join algorithm.
pub fn choose_join(
    strategy: Strategy,
    profile: &PhysicalProfile,
    model: &CostModel,
    parent_sel: f64,
    child_sel: f64,
) -> JoinChoice {
    match strategy {
        Strategy::Heuristic => {
            // O2's object-oriented instinct: navigate, starting from
            // whichever side the predicates make smaller.
            let selected_parents = parent_sel * profile.parents_total as f64;
            let selected_children = child_sel * profile.children_total as f64;
            let algo = if selected_parents <= selected_children {
                JoinAlgo::Nl
            } else {
                JoinAlgo::Nojoin
            };
            JoinChoice {
                algo,
                estimated_secs: estimate_join(algo, profile, model, parent_sel, child_sel).secs,
            }
        }
        Strategy::CostBased => JoinAlgo::all()
            .into_iter()
            .map(|algo| JoinChoice {
                algo,
                estimated_secs: estimate_join(algo, profile, model, parent_sel, child_sel).secs,
            })
            .min_by(|a, b| a.estimated_secs.total_cmp(&b.estimated_secs))
            .expect("four candidates"),
    }
}

/// A selection plan choice.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SelectChoice {
    /// Chosen access path.
    pub path: SelectPath,
    /// Estimated seconds.
    pub estimated_secs: f64,
}

/// Chooses a selection access path. `has_index` limits the candidates.
pub fn choose_selection(
    strategy: Strategy,
    total: u64,
    pages: u64,
    cache_pages: u64,
    model: &CostModel,
    sel: f64,
    has_index: bool,
) -> SelectChoice {
    let cost = |p: SelectPath| estimate_selection(p, total, pages, cache_pages, model, sel);
    match strategy {
        Strategy::Heuristic => {
            // The classic rule of thumb the paper debunks: use the
            // index only below ~5% selectivity, never bother sorting.
            let path = if has_index && sel <= 0.05 {
                SelectPath::IndexScan
            } else {
                SelectPath::SeqScan
            };
            SelectChoice {
                path,
                estimated_secs: cost(path),
            }
        }
        Strategy::CostBased => {
            let mut candidates = vec![SelectPath::SeqScan];
            if has_index {
                candidates.push(SelectPath::IndexScan);
                candidates.push(SelectPath::SortedIndexScan);
            }
            candidates
                .into_iter()
                .map(|path| SelectChoice {
                    path,
                    estimated_secs: cost(path),
                })
                .min_by(|a, b| a.estimated_secs.total_cmp(&b.estimated_secs))
                .expect("at least one candidate")
        }
    }
}

/// Chain join-ordering policy — `tq-fig fig_multiway --planner`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PlannerPolicy {
    /// Enumerate every connected order × per-stage algorithm × access
    /// path and take the estimator argmin.
    Estimate,
    /// Simpli-Squared: join order from extent sizes alone — start at
    /// the smallest collection and greedily extend the bound interval
    /// toward the smaller frontier — hash joins wherever the schema
    /// allows. No cardinality estimate is ever consulted.
    Simpli,
    /// The query's own binding order, navigating every edge: what a
    /// naive OQL evaluator does.
    Syntactic,
}

impl PlannerPolicy {
    /// The knob value naming this policy.
    pub fn label(&self) -> &'static str {
        match self {
            PlannerPolicy::Estimate => "estimate",
            PlannerPolicy::Simpli => "simpli",
            PlannerPolicy::Syntactic => "syntactic",
        }
    }

    /// Parses a knob value (exact, lowercase).
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "estimate" => Some(PlannerPolicy::Estimate),
            "simpli" => Some(PlannerPolicy::Simpli),
            "syntactic" => Some(PlannerPolicy::Syntactic),
            _ => None,
        }
    }

    /// Every policy, in figure order.
    pub fn all() -> [PlannerPolicy; 3] {
        [
            PlannerPolicy::Estimate,
            PlannerPolicy::Simpli,
            PlannerPolicy::Syntactic,
        ]
    }
}

/// A chain plan choice with its (estimated) cost in seconds. The
/// non-estimator policies are costed too, so the plan-quality figure
/// can show what each policy believed it was buying.
#[derive(Clone, Debug, PartialEq)]
pub struct ChainChoice {
    /// Chosen plan.
    pub plan: LogicalPlan,
    /// Estimated seconds.
    pub estimated_secs: f64,
}

/// Chooses a [`LogicalPlan`] for a binding chain under `policy`.
pub fn plan_chain(
    policy: PlannerPolicy,
    spec: &ChainSpec,
    facts: &ChainFacts,
    model: &CostModel,
) -> ChainChoice {
    let has_index = facts.has_index();
    let plan = match policy {
        PlannerPolicy::Syntactic => syntactic_plan(spec, &has_index),
        PlannerPolicy::Simpli => simpli_plan(spec, facts, &has_index),
        PlannerPolicy::Estimate => {
            // Ties break to the first enumerated candidate, so the
            // choice is deterministic.
            return enumerate_plans(spec, &has_index)
                .into_iter()
                .map(|plan| {
                    let estimated_secs = estimate_chain(spec, &plan, facts, model).secs;
                    ChainChoice {
                        plan,
                        estimated_secs,
                    }
                })
                .min_by(|a, b| a.estimated_secs.total_cmp(&b.estimated_secs))
                .expect("the all-nav binding-order plan is always legal");
        }
    };
    let estimated_secs = estimate_chain(spec, &plan, facts, model).secs;
    ChainChoice {
        plan,
        estimated_secs,
    }
}

/// Binding order, all navigation. Always legal: every edge carries at
/// least the attribute the query traversed it by.
fn syntactic_plan(spec: &ChainSpec, has_index: &[bool]) -> LogicalPlan {
    LogicalPlan {
        root: 0,
        root_access: root_options(spec, has_index, 0)[0],
        stages: (1..spec.len())
            .map(|step| JoinStage {
                step,
                from: step - 1,
                algo: StepAlgo::Nav,
                access: RootAccess::Scan,
            })
            .collect(),
    }
}

/// Size-only greedy order: smallest extent roots (tie → lower step
/// index), then the smaller bindable frontier extends the interval.
/// Stages prefer hash over navigation, and an index access over a
/// scan. If greed dead-ends on a one-way edge, fall back to the
/// always-legal syntactic plan.
fn simpli_plan(spec: &ChainSpec, facts: &ChainFacts, has_index: &[bool]) -> LogicalPlan {
    let n = spec.len();
    let size = |i: usize| facts.steps[i].total;
    let root = (0..n)
        .min_by_key(|&i| (size(i), i))
        .expect("non-empty chain");
    let (mut lo, mut hi) = (root, root);
    let mut stages = Vec::with_capacity(n - 1);
    while stages.len() + 1 < n {
        let mut frontier: Vec<(usize, usize)> = Vec::new(); // (step, from)
        if lo > 0 {
            frontier.push((lo - 1, lo));
        }
        if hi + 1 < n {
            frontier.push((hi + 1, hi));
        }
        let choice = frontier
            .into_iter()
            .filter_map(|(step, from)| {
                let opts = stage_options(spec, has_index, from, step);
                // Hash options precede Nav in preference; stage_options
                // lists the index-access hash first when it exists.
                opts.iter()
                    .copied()
                    .find(|&(algo, _)| algo == StepAlgo::Hash)
                    .or_else(|| opts.first().copied())
                    .map(|(algo, access)| JoinStage {
                        step,
                        from,
                        algo,
                        access,
                    })
            })
            .min_by_key(|st| (size(st.step), st.step));
        let Some(stage) = choice else {
            return syntactic_plan(spec, has_index);
        };
        lo = lo.min(stage.step);
        hi = hi.max(stage.step);
        stages.push(stage);
    }
    LogicalPlan {
        root,
        root_access: root_options(spec, has_index, root)[0],
        stages,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{ChainEdge, ChainStep};
    use crate::spec::{AttrPredicate, CmpOp, ResultMode};
    use tq_objstore::ClassId;

    fn profile() -> PhysicalProfile {
        PhysicalProfile {
            parents_total: 1_000_000,
            children_total: 3_000_000,
            parent_scan_pages: 33_000,
            child_scan_pages: 49_000,
            parent_index_clustered: true,
            child_index_clustered: true,
            composition: false,
            mean_fanout: 3.0,
            overflow_pages_per_parent: 0.0,
            client_cache_pages: 8_192,
        }
    }

    #[test]
    fn heuristic_navigates_cost_based_hashes() {
        let m = CostModel::sparc20();
        let p = profile();
        // Low selectivity both sides, class clustering: the paper shows
        // hash joins win; the heuristic still navigates.
        let h = choose_join(Strategy::Heuristic, &p, &m, 0.1, 0.1);
        assert!(matches!(h.algo, JoinAlgo::Nl | JoinAlgo::Nojoin));
        let c = choose_join(Strategy::CostBased, &p, &m, 0.1, 0.1);
        assert!(matches!(c.algo, JoinAlgo::Phj | JoinAlgo::Chj));
        assert!(c.estimated_secs <= h.estimated_secs);
    }

    #[test]
    fn cost_based_switches_to_navigation_under_swap() {
        // (90, 90) on 1:3: hash tables outgrow memory (Figure 12).
        let m = CostModel::sparc20();
        let c = choose_join(Strategy::CostBased, &profile(), &m, 0.9, 0.9);
        assert_eq!(c.algo, JoinAlgo::Nojoin);
    }

    #[test]
    fn cost_based_prefers_nl_on_composition() {
        let m = CostModel::sparc20();
        let mut p = profile();
        let shared = p.parent_scan_pages + p.child_scan_pages;
        p.parent_scan_pages = shared;
        p.child_scan_pages = shared;
        p.composition = true;
        p.child_index_clustered = false;
        for (sp, sc) in [(0.1, 0.1), (0.9, 0.9), (0.1, 0.9)] {
            let c = choose_join(Strategy::CostBased, &p, &m, sp, sc);
            assert_eq!(c.algo, JoinAlgo::Nl, "composition at ({sp},{sc})");
        }
    }

    #[test]
    fn selection_cost_based_always_sorts_the_index_scan() {
        // The paper's Figure 7 lesson, encoded: with an index, the
        // sorted scan wins at every selectivity.
        let m = CostModel::sparc20();
        for sel in [0.001, 0.05, 0.1, 0.5, 0.9] {
            let c = choose_selection(Strategy::CostBased, 2_000_000, 33_000, 8_192, &m, sel, true);
            assert_eq!(c.path, SelectPath::SortedIndexScan, "sel {sel}");
        }
        // Without an index there is only the scan.
        let c = choose_selection(
            Strategy::CostBased,
            2_000_000,
            33_000,
            8_192,
            &m,
            0.5,
            false,
        );
        assert_eq!(c.path, SelectPath::SeqScan);
    }

    #[test]
    fn heuristic_selection_misses_the_sorted_plan() {
        let m = CostModel::sparc20();
        let h = choose_selection(Strategy::Heuristic, 2_000_000, 33_000, 8_192, &m, 0.9, true);
        assert_eq!(h.path, SelectPath::SeqScan);
        let c = choose_selection(Strategy::CostBased, 2_000_000, 33_000, 8_192, &m, 0.9, true);
        assert!(c.estimated_secs < h.estimated_secs);
    }

    fn pred(attr: usize, key: i64) -> AttrPredicate {
        AttrPredicate {
            attr,
            cmp: CmpOp::Lt,
            key,
        }
    }

    /// Providers(x) —1:N→ Patients(y) —N:1→ Providers(z), both edges
    /// traversable in both directions.
    fn chain3() -> ChainSpec {
        ChainSpec {
            steps: vec![
                ChainStep {
                    var: "x".into(),
                    collection: "Providers".into(),
                    class: ClassId(0),
                    preds: vec![pred(1, 100)],
                },
                ChainStep {
                    var: "y".into(),
                    collection: "Patients".into(),
                    class: ClassId(1),
                    preds: vec![pred(1, 1_000)],
                },
                ChainStep {
                    var: "z".into(),
                    collection: "Providers".into(),
                    class: ClassId(0),
                    preds: vec![],
                },
            ],
            edges: vec![
                ChainEdge {
                    parent: 0,
                    child: 1,
                    set_attr: Some(2),
                    ref_attr: Some(4),
                },
                ChainEdge {
                    parent: 2,
                    child: 1,
                    set_attr: Some(2),
                    ref_attr: Some(4),
                },
            ],
            projection: vec![(2, 1)],
            result_mode: ResultMode::Transient,
        }
    }

    fn chain_facts(totals: [u64; 3]) -> ChainFacts {
        use crate::estimator::ChainStepFacts;
        ChainFacts {
            steps: totals
                .iter()
                .enumerate()
                .map(|(i, &total)| ChainStepFacts {
                    total,
                    scan_pages: (total / 30).max(1),
                    primary_selectivity: if i < 2 { 0.1 } else { 1.0 },
                    selectivity: if i < 2 { 0.1 } else { 1.0 },
                    has_index: i < 2,
                    index_clustered: true,
                })
                .collect(),
            client_cache_pages: 8_192,
        }
    }

    #[test]
    fn policy_labels_round_trip() {
        for p in PlannerPolicy::all() {
            assert_eq!(PlannerPolicy::parse(p.label()), Some(p));
        }
        assert_eq!(PlannerPolicy::parse("bogus"), None);
        assert_eq!(PlannerPolicy::parse("Estimate"), None, "exact match only");
    }

    #[test]
    fn syntactic_follows_the_binding_order() {
        let spec = chain3();
        let m = CostModel::sparc20();
        let c = plan_chain(
            PlannerPolicy::Syntactic,
            &spec,
            &chain_facts([10_000, 30_000, 10_000]),
            &m,
        );
        assert_eq!(c.plan.order(), vec![0, 1, 2]);
        assert!(c.plan.stages.iter().all(|s| s.algo == StepAlgo::Nav));
        // The root still takes its index: even O2 used one when handed it.
        assert_eq!(c.plan.root_access, RootAccess::Index);
        assert!(c.estimated_secs > 0.0);
    }

    #[test]
    fn simpli_orders_by_size_alone_and_hashes() {
        let spec = chain3();
        let m = CostModel::sparc20();
        // z's extent is smallest: size-only ordering roots there even
        // though z has no predicate at all.
        let c = plan_chain(
            PlannerPolicy::Simpli,
            &spec,
            &chain_facts([10_000, 30_000, 5_000]),
            &m,
        );
        assert_eq!(c.plan.order(), vec![2, 1, 0]);
        assert!(c.plan.stages.iter().all(|s| s.algo == StepAlgo::Hash));
        // Equal sizes tie toward the lower step index.
        let c = plan_chain(
            PlannerPolicy::Simpli,
            &spec,
            &chain_facts([10_000, 30_000, 10_000]),
            &m,
        );
        assert_eq!(c.plan.root, 0);
    }

    #[test]
    fn simpli_falls_back_to_navigation_on_one_way_edges() {
        let mut spec = chain3();
        // Each edge only carries the attribute the query traversed it
        // by: x→y through the set, y→z through the reference.
        spec.edges[0].ref_attr = None;
        spec.edges[1].set_attr = None;
        let m = CostModel::sparc20();
        let c = plan_chain(
            PlannerPolicy::Simpli,
            &spec,
            &chain_facts([10_000, 30_000, 5_000]),
            &m,
        );
        // Greed roots at z (smallest) and hashes y against it, but
        // then binding x from y needs a back reference edge 0–1 does
        // not have: the dead-end falls back to the syntactic plan.
        assert_eq!(c.plan.order(), vec![0, 1, 2]);
        assert!(c.plan.stages.iter().all(|s| s.algo == StepAlgo::Nav));
    }

    #[test]
    fn estimate_policy_never_loses_to_the_fixed_policies() {
        let spec = chain3();
        let m = CostModel::sparc20();
        for totals in [
            [10_000, 30_000, 10_000],
            [500, 1_500, 500],
            [200_000, 600_000, 200_000],
        ] {
            let facts = chain_facts(totals);
            let e = plan_chain(PlannerPolicy::Estimate, &spec, &facts, &m);
            let s = plan_chain(PlannerPolicy::Simpli, &spec, &facts, &m);
            let y = plan_chain(PlannerPolicy::Syntactic, &spec, &facts, &m);
            assert!(e.estimated_secs <= s.estimated_secs, "{totals:?}");
            assert!(e.estimated_secs <= y.estimated_secs, "{totals:?}");
        }
    }
}
