//! The in-process results database.

use crate::model::Stat;

/// Structured filter over [`Stat`] records. All set fields must match
/// (conjunction); unset fields match anything.
#[derive(Clone, Debug, Default)]
pub struct Filter {
    /// Algorithm name, exact.
    pub algo: Option<String>,
    /// Clustering strategy, exact.
    pub cluster: Option<String>,
    /// Cold-run flag.
    pub cold: Option<bool>,
    /// Required `(extent, selectivity%)` pairs.
    pub selectivities: Vec<(String, u32)>,
    /// Required `(provider extent size, link ratio)`.
    pub database: Option<(u64, u32)>,
}

impl Filter {
    /// Matches everything.
    pub fn any() -> Self {
        Self::default()
    }

    /// Restricts to an algorithm.
    pub fn algo(mut self, algo: &str) -> Self {
        self.algo = Some(algo.to_string());
        self
    }

    /// Restricts to a clustering strategy.
    pub fn cluster(mut self, cluster: &str) -> Self {
        self.cluster = Some(cluster.to_string());
        self
    }

    /// Restricts to cold (or warm) runs.
    pub fn cold(mut self, cold: bool) -> Self {
        self.cold = Some(cold);
        self
    }

    /// Requires a selectivity on an extent.
    pub fn selectivity(mut self, extent: &str, percent: u32) -> Self {
        self.selectivities.push((extent.to_string(), percent));
        self
    }

    /// Requires the database shape `(parent extent size, link ratio)`.
    pub fn database(mut self, parent_size: u64, link_ratio: u32) -> Self {
        self.database = Some((parent_size, link_ratio));
        self
    }

    /// Does `stat` satisfy this filter?
    pub fn matches(&self, stat: &Stat) -> bool {
        if let Some(a) = &self.algo {
            if &stat.algo != a {
                return false;
            }
        }
        if let Some(c) = &self.cluster {
            if &stat.cluster != c {
                return false;
            }
        }
        if let Some(cold) = self.cold {
            if stat.query.cold != cold {
                return false;
            }
        }
        for (extent, pct) in &self.selectivities {
            if stat.query.selectivity_on(extent) != Some(*pct) {
                return false;
            }
        }
        if let Some((size, ratio)) = self.database {
            let found = stat
                .database
                .iter()
                .any(|e| e.size == size && e.associations.iter().any(|&(_, r)| r == ratio));
            if !found {
                return false;
            }
        }
        true
    }
}

/// The benchmark-results database.
#[derive(Clone, Debug, Default)]
pub struct StatsDb {
    stats: Vec<Stat>,
}

impl StatsDb {
    /// An empty database.
    pub fn new() -> Self {
        Self::default()
    }

    /// Inserts a record, assigning and returning its `numtest`.
    pub fn insert(&mut self, mut stat: Stat) -> u64 {
        let numtest = self.stats.len() as u64 + 1;
        stat.numtest = numtest;
        self.stats.push(stat);
        numtest
    }

    /// Number of stored experiments.
    pub fn len(&self) -> usize {
        self.stats.len()
    }

    /// True when no experiments are stored.
    pub fn is_empty(&self) -> bool {
        self.stats.is_empty()
    }

    /// All records, in insertion order.
    pub fn all(&self) -> &[Stat] {
        &self.stats
    }

    /// Records matching `filter`, in insertion order.
    pub fn select(&self, filter: &Filter) -> Vec<&Stat> {
        self.stats.iter().filter(|s| filter.matches(s)).collect()
    }

    /// Records matching `filter`, sorted by ascending elapsed time —
    /// the ranking the paper's Figures 11–14 print.
    pub fn ranking(&self, filter: &Filter) -> Vec<&Stat> {
        let mut rows = self.select(filter);
        rows.sort_by(|a, b| a.elapsed_time.total_cmp(&b.elapsed_time));
        rows
    }

    /// The fastest matching record (the Figure 15 "winning algorithm").
    pub fn winner(&self, filter: &Filter) -> Option<&Stat> {
        self.ranking(filter).into_iter().next()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::tests::sample_stat;

    fn db() -> StatsDb {
        let mut db = StatsDb::new();
        db.insert(sample_stat(0, "PHJ", 89.83));
        db.insert(sample_stat(0, "CHJ", 101.05));
        db.insert(sample_stat(0, "NOJOIN", 125.90));
        db.insert(sample_stat(0, "NL", 1418.56));
        db
    }

    #[test]
    fn insert_assigns_numtest() {
        let db = db();
        assert_eq!(db.len(), 4);
        assert_eq!(db.all()[0].numtest, 1);
        assert_eq!(db.all()[3].numtest, 4);
    }

    #[test]
    fn filter_by_algo_and_cluster() {
        let db = db();
        assert_eq!(db.select(&Filter::any().algo("PHJ")).len(), 1);
        assert_eq!(db.select(&Filter::any().cluster("class")).len(), 4);
        assert_eq!(db.select(&Filter::any().cluster("composition")).len(), 0);
        assert_eq!(
            db.select(&Filter::any().algo("CHJ").cluster("class")).len(),
            1
        );
    }

    #[test]
    fn filter_by_selectivity_and_database() {
        let db = db();
        let f = Filter::any()
            .selectivity("Patient", 10)
            .selectivity("Provider", 90);
        assert_eq!(db.select(&f).len(), 4);
        let f = Filter::any().selectivity("Patient", 30);
        assert_eq!(db.select(&f).len(), 0);
        assert_eq!(db.select(&Filter::any().database(2000, 1000)).len(), 4);
        assert_eq!(db.select(&Filter::any().database(2000, 3)).len(), 0);
    }

    #[test]
    fn ranking_and_winner_follow_elapsed_time() {
        let db = db();
        let ranked = db.ranking(&Filter::any());
        let algos: Vec<&str> = ranked.iter().map(|s| s.algo.as_str()).collect();
        assert_eq!(algos, vec!["PHJ", "CHJ", "NOJOIN", "NL"]);
        assert_eq!(db.winner(&Filter::any()).unwrap().algo, "PHJ");
        assert!(db.winner(&Filter::any().algo("X")).is_none());
    }

    #[test]
    fn cold_filter() {
        let db = db();
        assert_eq!(db.select(&Filter::any().cold(true)).len(), 4);
        assert_eq!(db.select(&Filter::any().cold(false)).len(), 0);
    }
}
