//! The query engine façade: OQL text in, planned and measured
//! execution out.
//!
//! This is the layer the paper's authors were building toward: a
//! [`Strategy::CostBased`] optimizer over the physical facts of the
//! database. The engine keeps a registry of indexes, derives the
//! estimator's [`PhysicalProfile`] *mechanically* (collection
//! cardinalities and file sizes from the catalog, clustering flags
//! from the indexes, composition detection by sampling parent/child
//! adjacency), chooses an access path, and runs it.
//!
//! Selectivity estimation assumes integer keys uniform on
//! `0..cardinality` — the convention of the paper's Derby databases
//! (`upin`/`mrn` are creation ranks, `num` is uniform random). Finding
//! out *which* statistics a system should maintain was the paper's
//! original goal; this is the simplest answer that makes the paper's
//! plan choices correctly.

use crate::estimator::{ChainFacts, PhysicalProfile, SelectPath};
use crate::join::{run_chain, run_join, ChainReport, JoinContext, JoinOptions, JoinReport};
use crate::oql::{compile_str, CompileError, CompiledQuery};
use crate::plan::ChainSpec;
use crate::planner::{
    choose_join, choose_selection, plan_chain, ChainChoice, PlannerPolicy, Strategy,
};
use crate::select::{index_scan, seq_scan, sorted_index_scan, SelectReport};
use crate::spec::{JoinAlgo, Selection, TreeJoinSpec};
use std::fmt;
use tq_index::BTreeIndex;
use tq_objstore::{AttrId, ClassId, ObjectStore, SetValue};

/// A registered index: the tree plus what it indexes.
pub struct EngineIndex {
    /// The B+-tree.
    pub index: BTreeIndex,
    /// Class of the indexed objects.
    pub class: ClassId,
    /// The indexed attribute.
    pub key_attr: AttrId,
}

/// Engine errors.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum EngineError {
    /// The query did not compile.
    Compile(CompileError),
    /// A tree join needs indexes on both key attributes.
    MissingIndex(String),
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::Compile(e) => write!(f, "{e}"),
            EngineError::MissingIndex(m) => write!(f, "missing index: {m}"),
        }
    }
}

impl std::error::Error for EngineError {}

impl From<CompileError> for EngineError {
    fn from(e: CompileError) -> Self {
        EngineError::Compile(e)
    }
}

/// What a query execution produced.
#[derive(Debug)]
pub enum QueryOutcome {
    /// A selection ran.
    Selection {
        /// Chosen access path.
        path: SelectPath,
        /// Executor report.
        report: SelectReport,
        /// Simulated seconds the execution took.
        secs: f64,
    },
    /// A tree join ran.
    Join {
        /// Chosen algorithm.
        algo: JoinAlgo,
        /// Executor report.
        report: JoinReport,
        /// Simulated seconds the execution took.
        secs: f64,
    },
    /// An N-way binding chain ran.
    Chain {
        /// The compiled chain (kept for explain rendering).
        spec: ChainSpec,
        /// Policy that picked the plan.
        policy: PlannerPolicy,
        /// The chosen plan with its estimated cost.
        choice: ChainChoice,
        /// Executor report.
        report: ChainReport,
        /// Simulated seconds the execution took.
        secs: f64,
    },
}

impl QueryOutcome {
    /// Rows/tuples produced.
    pub fn results(&self) -> u64 {
        match self {
            QueryOutcome::Selection { report, .. } => report.selected,
            QueryOutcome::Join { report, .. } => report.results,
            QueryOutcome::Chain { report, .. } => report.results,
        }
    }

    /// Simulated seconds.
    pub fn secs(&self) -> f64 {
        match self {
            QueryOutcome::Selection { secs, .. }
            | QueryOutcome::Join { secs, .. }
            | QueryOutcome::Chain { secs, .. } => *secs,
        }
    }
}

/// The engine: an object store plus an index registry and a planner.
pub struct Engine {
    store: ObjectStore,
    indexes: Vec<EngineIndex>,
    /// Join options used for every join execution.
    pub join_options: JoinOptions,
    /// Ordering policy for N-way binding chains (`tq-fig
    /// fig_multiway --planner`; 2-way tree joins keep using `Strategy`).
    pub chain_policy: PlannerPolicy,
}

impl Engine {
    /// Wraps a store.
    pub fn new(store: ObjectStore) -> Self {
        Self {
            store,
            indexes: Vec::new(),
            join_options: JoinOptions::default(),
            chain_policy: PlannerPolicy::Estimate,
        }
    }

    /// The underlying store.
    pub fn store(&self) -> &ObjectStore {
        &self.store
    }

    /// Registers an index for planning and execution.
    pub fn register_index(&mut self, index: BTreeIndex, class: ClassId, key_attr: AttrId) {
        self.indexes.push(EngineIndex {
            index,
            class,
            key_attr,
        });
    }

    fn find_index(&self, class: ClassId, attr: AttrId) -> Option<&EngineIndex> {
        self.indexes
            .iter()
            .find(|e| e.class == class && e.key_attr == attr)
    }

    /// Fraction of a collection a `attr cmp key` predicate keeps, under
    /// the uniform `0..count` key assumption.
    fn estimate_selectivity(cmp: crate::spec::CmpOp, key: i64, count: u64) -> f64 {
        if count == 0 {
            return 0.0;
        }
        let (lo, hi) = cmp.index_range(key, 0, count as i64 - 1);
        let kept = (hi - lo + 1).clamp(0, count as i64);
        kept as f64 / count as f64
    }

    /// Data pages a scan of the collection touches, from the catalog.
    ///
    /// This must be the collection's *own* page count, not its file's:
    /// under composition clustering both classes share one file, and
    /// charging the parent scan with the children's pages (or vice
    /// versa) made the planner believe every scan costs the whole
    /// file.
    fn data_pages(&self, collection: &str) -> u64 {
        self.store.collection(collection).data_pages
    }

    /// Detects composition placement by sampling: are parents' first
    /// children adjacent to them?
    fn detect_composition(&mut self, spec: &TreeJoinSpec) -> bool {
        let mut cursor = self.store.collection_cursor(&spec.parents);
        let mut sampled = 0;
        let mut adjacent = 0;
        while sampled < 8 {
            let Some(prid) = cursor.next(self.store.stack_mut()) else {
                break;
            };
            // `Some(first)` when the set is inline, `None` on overflow.
            let sample = self.store.with_fetched(prid, |store, parent| {
                let mut set = parent.set(spec.parent_set).expect("parent set attribute");
                set.is_inline()
                    .then(|| (parent.rid(), set.next(store.stack_mut())))
            });
            let Some((parent_rid, first)) = sample else {
                // Overflow sets (1:1000): members never sit with the
                // parent.
                return false;
            };
            if let Some(first) = first {
                sampled += 1;
                let same_file = first.page.file == parent_rid.page.file;
                let close = first.page.page_no.abs_diff(parent_rid.page.page_no) <= 2;
                if same_file && close {
                    adjacent += 1;
                }
            }
        }
        sampled > 0 && adjacent * 2 > sampled
    }

    /// Derives the estimator profile for a join, mechanically.
    pub fn profile_for(&mut self, spec: &TreeJoinSpec) -> Result<PhysicalProfile, EngineError> {
        let parents = self.store.collection(&spec.parents);
        let children = self.store.collection(&spec.children);
        let parent_idx = self
            .find_index(parents.class, spec.parent_key)
            .ok_or_else(|| {
                EngineError::MissingIndex(format!("{}.{}", spec.parents, spec.parent_key))
            })?;
        let parent_clustered = parent_idx.index.clustered;
        let child_idx = self
            .find_index(children.class, spec.child_key)
            .ok_or_else(|| {
                EngineError::MissingIndex(format!("{}.{}", spec.children, spec.child_key))
            })?;
        let child_clustered = child_idx.index.clustered;
        let parent_scan_pages = self.data_pages(&spec.parents);
        let child_scan_pages = self.data_pages(&spec.children);
        // Overflow rid-run pages per parent.
        let overflow_pages_per_parent = {
            let mut cursor = self.store.collection_cursor(&spec.parents);
            match cursor.next(self.store.stack_mut()) {
                Some(prid) => self.store.with_fetched(prid, |store, parent| {
                    match parent.object().values[spec.parent_set].as_set() {
                        Some(SetValue::Overflow { file, .. }) => {
                            let pages = store.stack().disk().file_len(*file) as f64;
                            pages / parents.run.count.max(1) as f64
                        }
                        _ => 0.0,
                    }
                }),
                None => 0.0,
            }
        };
        Ok(PhysicalProfile {
            parents_total: parents.run.count,
            children_total: children.run.count,
            parent_scan_pages,
            child_scan_pages,
            parent_index_clustered: parent_clustered,
            child_index_clustered: child_clustered,
            composition: self.detect_composition(spec),
            mean_fanout: children.run.count as f64 / parents.run.count.max(1) as f64,
            overflow_pages_per_parent,
            client_cache_pages: self.store.stack().config().client_pages as u64,
        })
    }

    /// Compiles, plans and executes one OQL query under `strategy`,
    /// cold (the paper's protocol: server restart, metrics reset).
    pub fn run(&mut self, oql: &str, strategy: Strategy) -> Result<QueryOutcome, EngineError> {
        let compiled = compile_str(&self.store, oql)?;
        match compiled {
            CompiledQuery::Selection(sel) => self.run_selection(sel, strategy),
            CompiledQuery::TreeJoin(spec) => self.run_join_query(spec, strategy),
            CompiledQuery::Chain(spec) => self.run_chain_query(spec),
        }
    }

    fn run_chain_query(&mut self, spec: ChainSpec) -> Result<QueryOutcome, EngineError> {
        let facts = ChainFacts::derive(&self.store, &spec, |class, attr| {
            self.find_index(class, attr).map(|e| e.index.clustered)
        });
        let model = self.store.stack().model().clone();
        let policy = self.chain_policy;
        let choice = plan_chain(policy, &spec, &facts, &model);
        // Per-step index clone on each primary predicate attribute,
        // in the shape the executor takes.
        let indexes: Vec<Option<tq_index::BTreeIndex>> = spec
            .steps
            .iter()
            .map(|s| {
                let class = self.store.collection(&s.collection).class;
                s.preds
                    .first()
                    .and_then(|p| self.find_index(class, p.attr))
                    .map(|e| e.index.clone())
            })
            .collect();
        self.store.cold_restart();
        self.store.reset_metrics();
        let report = run_chain(&mut self.store, &spec, &choice.plan, &indexes, false, None);
        self.store.end_of_query();
        let secs = self.store.clock().elapsed_secs();
        Ok(QueryOutcome::Chain {
            spec,
            policy,
            choice,
            report,
            secs,
        })
    }

    fn run_selection(
        &mut self,
        mut sel: Selection,
        strategy: Strategy,
    ) -> Result<QueryOutcome, EngineError> {
        let info = self.store.collection(&sel.collection);
        // Put an indexed predicate first when the primary has none.
        if self.find_index(info.class, sel.attr).is_none() {
            if let Some(p) = sel
                .residual
                .iter()
                .find(|p| self.find_index(info.class, p.attr).is_some())
            {
                let attr = p.attr;
                sel.promote(attr);
            }
        }
        let has_index = self.find_index(info.class, sel.attr).is_some();
        let pages = self.data_pages(&sel.collection);
        let selectivity = Self::estimate_selectivity(sel.cmp, sel.key, info.run.count);
        let model = self.store.stack().model().clone();
        let choice = choose_selection(
            strategy,
            info.run.count,
            pages,
            self.store.stack().config().client_pages as u64,
            &model,
            selectivity,
            has_index,
        );
        self.store.cold_restart();
        self.store.reset_metrics();
        let report = match choice.path {
            SelectPath::SeqScan => seq_scan(&mut self.store, &sel, false),
            SelectPath::IndexScan => {
                let index = self
                    .find_index(info.class, sel.attr)
                    .expect("path implies index")
                    .index
                    .clone();
                index_scan(&mut self.store, &index, &sel, false)
            }
            SelectPath::SortedIndexScan => {
                let index = self
                    .find_index(info.class, sel.attr)
                    .expect("path implies index")
                    .index
                    .clone();
                sorted_index_scan(&mut self.store, &index, &sel, false)
            }
        };
        self.store.end_of_query();
        Ok(QueryOutcome::Selection {
            path: choice.path,
            report,
            secs: self.store.clock().elapsed_secs(),
        })
    }

    fn run_join_query(
        &mut self,
        spec: TreeJoinSpec,
        strategy: Strategy,
    ) -> Result<QueryOutcome, EngineError> {
        let profile = self.profile_for(&spec)?;
        let parent_sel = Self::estimate_selectivity(
            crate::spec::CmpOp::Lt,
            spec.parent_key_limit,
            profile.parents_total,
        );
        let child_sel = Self::estimate_selectivity(
            crate::spec::CmpOp::Lt,
            spec.child_key_limit,
            profile.children_total,
        );
        let model = self.store.stack().model().clone();
        let choice = choose_join(strategy, &profile, &model, parent_sel, child_sel);
        let parents = self.store.collection(&spec.parents);
        let children = self.store.collection(&spec.children);
        let parent_index = self
            .find_index(parents.class, spec.parent_key)
            .expect("checked by profile_for")
            .index
            .clone();
        let child_index = self
            .find_index(children.class, spec.child_key)
            .expect("checked by profile_for")
            .index
            .clone();
        self.store.cold_restart();
        self.store.reset_metrics();
        let opts = self.join_options;
        let report = {
            let mut ctx = JoinContext {
                store: &mut self.store,
                parent_index: &parent_index,
                child_index: &child_index,
            };
            run_join(choice.algo, &mut ctx, &spec, &opts, false)
        };
        self.store.end_of_query();
        Ok(QueryOutcome::Join {
            algo: choice.algo,
            report,
            secs: self.store.clock().elapsed_secs(),
        })
    }
}
