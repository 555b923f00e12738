//! The hash joins' child-keyed table: keys filed under rids, flat.
//!
//! Every key lives in one arena, in push order; the keys of one rid
//! form a chain through it, linked by index (`next`), and a directory
//! holds each rid's first and last entry. A table of `n` keys over `d`
//! distinct rids is three allocations — directory, arena, links — where
//! a map of `Vec`s is `d + 1`, and partial tables built over
//! consecutive runs of a driving list concatenate by relinking one
//! chain per rid. Host memory only: the simulated table bytes are the
//! callers' (per slot and per key), never this layout's.

use tq_fasthash::FxHashMap;
use tq_objstore::Rid;

/// Ends a chain.
const END: u32 = u32::MAX;

/// Keys filed under rids, each rid's keys in insertion order.
#[derive(Default)]
pub(crate) struct RidMultimap {
    /// A rid's first and last arena entry.
    dir: FxHashMap<Rid, (u32, u32)>,
    /// The keys, in push order.
    keys: Vec<i64>,
    /// `next[i]`: the entry after `i` under the same rid, or [`END`].
    next: Vec<u32>,
}

impl RidMultimap {
    /// An empty map with room for `keys` keys under `rids` distinct
    /// rids: pushes within both never allocate.
    pub(crate) fn with_capacity(rids: usize, keys: usize) -> Self {
        Self {
            dir: FxHashMap::with_capacity_and_hasher(rids, Default::default()),
            keys: Vec::with_capacity(keys),
            next: Vec::with_capacity(keys),
        }
    }

    /// Files `key` under `rid`, after the keys already there.
    pub(crate) fn push(&mut self, rid: Rid, key: i64) {
        let at = entry_index(self.keys.len());
        self.keys.push(key);
        self.next.push(END);
        self.link(rid, at, at);
    }

    /// `rid`'s keys, in the order they were filed (none if absent).
    pub(crate) fn get(&self, rid: &Rid) -> impl Iterator<Item = i64> + '_ {
        let first = self.dir.get(rid).map(|&(first, _)| first);
        std::iter::successors(first, |&at| {
            Some(self.next[at as usize]).filter(|&n| n != END)
        })
        .map(|at| self.keys[at as usize])
    }

    /// Distinct rids.
    pub(crate) fn len(&self) -> usize {
        self.dir.len()
    }

    /// Keys, over all rids.
    pub(crate) fn key_count(&self) -> usize {
        self.keys.len()
    }

    /// Files `later`'s keys after this map's: each rid's chain goes on
    /// with its keys in `later`, in their order. The arenas are copied
    /// in bulk; the directory costs one step per distinct rid of
    /// `later`.
    pub(crate) fn append(&mut self, later: RidMultimap) {
        // Every merged entry must stay addressable, so check the end.
        let base = entry_index(self.keys.len() + later.keys.len()) - later.keys.len() as u32;
        self.keys.extend_from_slice(&later.keys);
        self.next.extend(
            later
                .next
                .iter()
                .map(|&n| if n == END { END } else { n + base }),
        );
        for (rid, (first, last)) in later.dir {
            self.link(rid, first + base, last + base);
        }
    }

    /// Hangs the chain `first..=last` (already linked within) off
    /// `rid`'s chain, or starts `rid` with it.
    fn link(&mut self, rid: Rid, first: u32, last: u32) {
        let next = &mut self.next;
        self.dir
            .entry(rid)
            .and_modify(|(_, tail)| {
                next[*tail as usize] = first;
                *tail = last;
            })
            .or_insert((first, last));
    }
}

/// Arena position `len` as a chain link.
fn entry_index(len: usize) -> u32 {
    u32::try_from(len)
        .ok()
        .filter(|&at| at != END)
        .expect("a rid multimap holds fewer than 2^32 - 1 keys")
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;
    use tq_pagestore::{FileId, PageId};
    use tq_simrng::SimRng;

    fn rid(n: u64) -> Rid {
        let page_no = (n / 7) as u32;
        Rid::new(
            PageId {
                file: FileId(1),
                page_no,
            },
            (n % 7) as u16,
        )
    }

    fn assert_matches(map: &RidMultimap, model: &BTreeMap<Rid, Vec<i64>>, ctx: &str) {
        assert_eq!(map.len(), model.len(), "{ctx}: distinct rids");
        let total: usize = model.values().map(Vec::len).sum();
        assert_eq!(map.key_count(), total, "{ctx}: key count");
        for (r, keys) in model {
            assert_eq!(&map.get(r).collect::<Vec<_>>(), keys, "{ctx}: {r:?}");
        }
        assert_eq!(map.get(&rid(1_000_000)).count(), 0, "{ctx}: absent rid");
    }

    /// A stream of `(rid, key)` split at random points into 1–4 ordered
    /// partials (plus empty ones, and a last one of all-new rids, in some
    /// cases), appended back together, files every rid's keys exactly as
    /// one map over the whole stream does.
    #[test]
    fn appended_partials_match_a_model() {
        let mut rng = SimRng::seed_from_u64(0x6d75_6c74);
        for case in 0..300 {
            let rids = 1 + rng.below(400);
            let n = rng.index(2_000);
            let mut stream: Vec<(Rid, i64)> = (0..n)
                .map(|_| (rid(rng.below(rids)), rng.range_i64(-1_000, 1_000)))
                .collect();
            if case % 10 == 0 {
                // A last partial whose rids are all new.
                let fresh = (rids..rids + 50).map(|r| (rid(r), r as i64));
                stream.extend(fresh);
            }
            let mut cuts: Vec<usize> = (0..rng.index(4))
                .map(|_| rng.index(stream.len() + 1))
                .collect();
            if case % 10 == 0 {
                cuts.push(stream.len() - 50);
            }
            if case % 7 == 0 {
                // Empty partials: a repeated cut and one at an end.
                cuts.extend([0, stream.len() / 2, stream.len() / 2]);
            }
            cuts.extend([0, stream.len()]);
            cuts.sort_unstable();

            let mut model: BTreeMap<Rid, Vec<i64>> = BTreeMap::new();
            for &(r, key) in &stream {
                model.entry(r).or_default().push(key);
            }
            let mut partials = cuts.windows(2).map(|w| {
                let part = &stream[w[0]..w[1]];
                let mut map = RidMultimap::with_capacity(part.len(), part.len());
                for &(r, key) in part {
                    map.push(r, key);
                }
                map
            });
            let mut merged = partials.next().expect("at least one partial");
            for later in partials {
                merged.append(later);
            }
            assert_matches(&merged, &model, &format!("case {case}"));
        }
    }

    #[test]
    fn empty_maps_append_to_empty() {
        let mut map = RidMultimap::default();
        map.append(RidMultimap::default());
        assert_matches(&map, &BTreeMap::new(), "empty");
        map.push(rid(3), 9);
        map.append(RidMultimap::default());
        assert_matches(&map, &BTreeMap::from([(rid(3), vec![9])]), "one key");
    }
}
