//! The benchmark's inputs: fixed cell grids for the `fig_*` workloads
//! and seeded op lists for the `serve_*` ones. The same seed gives the
//! same lists; the engine only ever sees these generated inputs.

use tq_query::JoinAlgo;
use tq_simrng::SimRng;

use crate::spec::Workload;

/// The (patient %, provider %) cells of the paper's Figures 11–14.
pub const GRID: [(u32, u32); 4] = [(10, 10), (10, 90), (90, 10), (90, 90)];

/// Selectivities, in percent, of the two lattices served reads are
/// drawn from. The paper's grid is the corners of the first; the second
/// is the tiny query `serve_sessions` wraps in a session of its own
/// (1 % is the smallest the wire protocol can ask for).
const LATTICE_SELS: [u32; 5] = [10, 30, 50, 70, 90];
const TINY_SELS: [u32; 2] = [1, 2];

/// Read kinds in the first lattice: four algorithms × 5 × 5
/// selectivities. A hundred kinds whose costs lie a few percent apart,
/// each run equally often, make the latency distribution of a list
/// smooth — with the paper's 16 cells alone, eight cost ~1 ms or less
/// and eight ~2 ms or more, and the median sat on the 38 % cliff
/// between them.
const LATTICE_KINDS: usize = 4 * LATTICE_SELS.len() * LATTICE_SELS.len();
/// Served read kinds: `0..100` the lattice, `100..116` the tiny one.
pub const READ_KINDS: usize = LATTICE_KINDS + 4 * TINY_SELS.len() * TINY_SELS.len();

/// The `(algorithm, patient %, provider %)` a read kind stands for.
pub fn read_kind(kind: usize) -> (JoinAlgo, u32, u32) {
    assert!(kind < READ_KINDS);
    let (k, sels) = if kind < LATTICE_KINDS {
        (kind, &LATTICE_SELS[..])
    } else {
        (kind - LATTICE_KINDS, &TINY_SELS[..])
    };
    let n = sels.len();
    (JoinAlgo::all()[k / (n * n)], sels[k / n % n], sels[k % n])
}

/// Update selectivities a write draws from, in percent of patients.
pub const WRITE_SELS: std::ops::RangeInclusive<u32> = 1..=5;

/// One served operation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Op {
    /// One join query of the given read kind.
    Read(usize),
    /// One write transaction: `update Patients set num = num + 1 where
    /// mrn < key(sel %)`, then `commit`.
    Write(u32),
}

/// The op lists of one block of a served workload, one per lane, `n`
/// reads each. Every list is dealt from the workload's read kinds in
/// turn and then shuffled: the seed decides the order, never the mix,
/// so every seed's list is the same amount of work on every lane.
/// `serve_direct` and `serve_routed` get identical lists. List 0 of
/// `serve_write_mix` is the only one that writes (one writer, so no
/// commit can lose first-committer-wins): `n / 4` write transactions
/// more, a fifth of the list, spread evenly over [`WRITE_SELS`].
pub fn op_lists(w: Workload, seed: u64, n: usize) -> Vec<Vec<Op>> {
    let kinds: Vec<usize> = match w {
        Workload::ServeSessions => (LATTICE_KINDS..READ_KINDS).collect(),
        Workload::ServeDirect | Workload::ServeRouted | Workload::ServeWriteMix => {
            (0..LATTICE_KINDS).collect()
        }
        // The in-process workloads serve nothing when timed; their traced
        // suite replays the paper's own 16 cells, which a short list covers.
        _ => (0..LATTICE_KINDS)
            .filter(|&k| {
                let (_, pat, prov) = read_kind(k);
                GRID.contains(&(pat, prov))
            })
            .collect(),
    };
    let lanes = if w == Workload::ServeSessions { 1 } else { 2 };
    (0..lanes)
        .map(|lane| {
            let mut list: Vec<Op> = kinds.iter().map(|&k| Op::Read(k)).cycle().take(n).collect();
            if w == Workload::ServeWriteMix && lane == 0 {
                list.extend(WRITE_SELS.map(Op::Write).cycle().take(n / 4));
            }
            SimRng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ lane)
                .shuffle(&mut list);
            list
        })
        .collect()
}

/// One cell of an in-process figure grid.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Cell {
    /// A 2-way join, cold, serial (`measure::run_join_cell`).
    Join(JoinAlgo, u32, u32),
    /// An N-way chain planned by `PlannerPolicy::Estimate`.
    Chain { depth: u32, pat: u32, prov: u32 },
    /// A selection on `Patient.num` at `pct` percent.
    Select(Scan, u32),
    /// A 2-way join at morsel-parallel degree 2.
    Morsel(JoinAlgo, u32, u32),
}

/// The three selection access paths of Figures 6–8.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scan {
    Seq,
    Index,
    SortedIndex,
}

impl Scan {
    pub const ALL: [Scan; 3] = [Scan::Seq, Scan::Index, Scan::SortedIndex];
}

/// Morsel-parallel degree of the `fig_morsel` cells.
pub const MORSEL_DEGREE: usize = 2;

/// The cells one round of a `fig_*` workload runs, in order.
pub fn fig_cells(w: Workload) -> Vec<Cell> {
    let algos = JoinAlgo::all();
    match w {
        Workload::FigJoins => algos
            .into_iter()
            .flat_map(|a| GRID.map(|(pat, prov)| Cell::Join(a, pat, prov)))
            .collect(),
        Workload::FigChains => [3, 4]
            .into_iter()
            .flat_map(|depth| {
                [(10, 90), (90, 10), (50, 50)].map(|(pat, prov)| Cell::Chain { depth, pat, prov })
            })
            .collect(),
        Workload::FigSelects => Scan::ALL
            .into_iter()
            .flat_map(|s| [1, 10, 50].map(|pct| Cell::Select(s, pct)))
            .collect(),
        Workload::FigMorsel => algos
            .into_iter()
            .flat_map(|a| [(10, 90), (90, 90)].map(|(pat, prov)| Cell::Morsel(a, pat, prov)))
            .collect(),
        _ => panic!("{} has no cell grid", w.name()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_lists_other_seed_other_lists() {
        for w in [
            Workload::ServeDirect,
            Workload::ServeSessions,
            Workload::ServeWriteMix,
        ] {
            assert_eq!(op_lists(w, 7, 500), op_lists(w, 7, 500));
            assert_ne!(op_lists(w, 7, 500), op_lists(w, 8, 500));
        }
        // Direct and routed replay identical lists.
        assert_eq!(
            op_lists(Workload::ServeDirect, 3, 300),
            op_lists(Workload::ServeRouted, 3, 300)
        );
        // The two lanes' lists differ from each other.
        let lists = op_lists(Workload::ServeDirect, 1, 300);
        assert_ne!(lists[0], lists[1]);
    }

    /// Another seed changes the order, never the mix: every lane holds
    /// each of its kinds equally often, whatever the seed.
    #[test]
    fn kind_histogram_is_seed_independent() {
        let histogram = |list: &[Op]| {
            let mut reads = [0u64; READ_KINDS];
            let mut writes = [0u64; 6];
            for op in list {
                match *op {
                    Op::Read(k) => reads[k] += 1,
                    Op::Write(sel) => writes[sel as usize] += 1,
                }
            }
            (reads, writes)
        };
        for w in [
            Workload::ServeDirect,
            Workload::ServeSessions,
            Workload::ServeWriteMix,
        ] {
            for (a, b) in op_lists(w, 1, 800).iter().zip(&op_lists(w, 2, 800)) {
                assert_eq!(histogram(a), histogram(b), "{}", w.name());
            }
        }
        for list in op_lists(Workload::ServeDirect, 5, 800) {
            let (reads, writes) = histogram(&list);
            assert_eq!(reads[..100], [8; 100]);
            assert_eq!(reads[100..], [0; 16]);
            assert_eq!(writes, [0; 6]);
        }
        // A fifth of the writer's list writes, evenly over 1..=5 %.
        let lists = op_lists(Workload::ServeWriteMix, 5, 800);
        let (reads, writes) = histogram(&lists[0]);
        assert_eq!(reads[..100], [8; 100]);
        assert_eq!(writes, [0, 40, 40, 40, 40, 40]);
        assert_eq!(histogram(&lists[1]).1, [0; 6]);
        let (reads, _) = histogram(&op_lists(Workload::ServeSessions, 5, 800)[0]);
        assert_eq!(reads[100..], [50; 16]);
    }

    #[test]
    fn kinds_and_grids_have_the_declared_shape() {
        assert_eq!(read_kind(0), (JoinAlgo::Nl, 10, 10));
        assert_eq!(read_kind(4), (JoinAlgo::Nl, 10, 90));
        assert_eq!(read_kind(49), (JoinAlgo::Nojoin, 90, 90));
        assert_eq!(read_kind(62), (JoinAlgo::Phj, 50, 50));
        assert_eq!(read_kind(100), (JoinAlgo::Nl, 1, 1));
        assert_eq!(read_kind(102), (JoinAlgo::Nl, 2, 1));
        assert_eq!(read_kind(115), (JoinAlgo::Chj, 2, 2));
        // A grid workload's served lists are the paper's 16 cells.
        let mut corners: Vec<_> = op_lists(Workload::FigJoins, 1, 16)[0]
            .iter()
            .map(|op| match *op {
                Op::Read(k) => read_kind(k),
                Op::Write(_) => panic!("a grid workload writes nothing"),
            })
            .collect();
        corners.sort_by_key(|&(algo, pat, prov)| (algo as usize, pat, prov));
        let paper: Vec<_> = JoinAlgo::all()
            .into_iter()
            .flat_map(|a| GRID.map(|(pat, prov)| (a, pat, prov)))
            .collect();
        assert_eq!(corners, paper);
        assert_eq!(fig_cells(Workload::FigJoins).len(), 16);
        assert_eq!(fig_cells(Workload::FigChains).len(), 6);
        assert_eq!(fig_cells(Workload::FigSelects).len(), 9);
        assert_eq!(fig_cells(Workload::FigMorsel).len(), 8);
    }
}
