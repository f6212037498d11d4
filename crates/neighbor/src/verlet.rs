//! Verlet neighbor lists.
//!
//! A Verlet list (Verlet 1967, the paper's ref. 2) records, for every atom,
//! the indices of all atoms within `cutoff + skin`. The *skin* margin lets a
//! list survive several time-steps: it only needs rebuilding once some atom
//! has moved further than `skin / 2` since the list was built (two atoms
//! approaching head-on close the gap at twice the single-atom rate).
//!
//! Two list shapes are provided:
//!
//! * [`NeighborListKind::Half`] — each pair `(i, j)` stored once, under
//!   `min(i, j)`. Force kernels then apply Newton's third law, writing to
//!   **both** `i` and `j` — the irregular scatter the paper's SDC method
//!   parallelizes.
//! * [`NeighborListKind::Full`] — each pair stored in both rows. Kernels
//!   only ever write to their own row (gather form); this doubles the pair
//!   computations and the list memory, which is exactly the paper's
//!   *Redundant Computation* (RC) baseline.

use crate::cell_grid::CellGrid;
use crate::csr::Csr;
use crate::stats::NeighborStats;
use md_geometry::{SimBox, Vec3};
use rayon::prelude::*;
use std::ops::Range;

/// Whether each pair is stored once (half) or twice (full).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NeighborListKind {
    /// Pair `(i, j)` with `i < j` stored once in row `i`.
    Half,
    /// Pair stored in both row `i` and row `j`.
    Full,
}

/// Parameters for building a [`NeighborList`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VerletConfig {
    /// Interaction cutoff `r_c` (Å).
    pub cutoff: f64,
    /// Extra skin margin (Å); the list holds all pairs within
    /// `cutoff + skin`.
    pub skin: f64,
    /// Half or full list.
    pub kind: NeighborListKind,
}

impl VerletConfig {
    /// Half list with the given cutoff and skin.
    pub fn half(cutoff: f64, skin: f64) -> VerletConfig {
        VerletConfig {
            cutoff,
            skin,
            kind: NeighborListKind::Half,
        }
    }

    /// Full list with the given cutoff and skin.
    pub fn full(cutoff: f64, skin: f64) -> VerletConfig {
        VerletConfig {
            cutoff,
            skin,
            kind: NeighborListKind::Full,
        }
    }

    /// The list radius `cutoff + skin`.
    #[inline]
    pub fn reach(&self) -> f64 {
        self.cutoff + self.skin
    }

    fn validate(&self) {
        assert!(
            self.cutoff > 0.0 && self.cutoff.is_finite(),
            "cutoff must be positive, got {}",
            self.cutoff
        );
        assert!(
            self.skin >= 0.0 && self.skin.is_finite(),
            "skin must be non-negative, got {}",
            self.skin
        );
    }

    /// [`VerletConfig::validate`] plus the box's minimum-image check.
    fn validate_for(&self, sim_box: &SimBox) {
        self.validate();
        sim_box
            .validate_cutoff(self.reach())
            .expect("box too small for cutoff + skin");
    }
}

/// A built Verlet neighbor list in CSR form.
///
/// ```
/// use md_geometry::LatticeSpec;
/// use md_neighbor::{NeighborList, VerletConfig};
///
/// let (sim_box, positions) = LatticeSpec::bcc_fe(5).build();
/// let list = NeighborList::build(&sim_box, &positions, VerletConfig::half(5.67, 0.0));
/// // Perfect BCC iron: 58 neighbors within 5.67 Å, so the half list
/// // stores 29 pairs per atom (each pair once).
/// assert_eq!(list.entries(), positions.len() * 29);
/// assert_eq!(list.to_full().stats().min, 58);
/// assert!(!list.needs_rebuild(&sim_box, &positions));
/// ```
#[derive(Debug, Clone)]
pub struct NeighborList {
    config: VerletConfig,
    csr: Csr,
    /// Atom positions at build time, for the displacement rebuild check.
    ref_positions: Vec<Vec3>,
}

impl NeighborList {
    /// Builds a neighbor list with linked-cell binning: O(N) for homogeneous
    /// systems.
    ///
    /// `positions` must be wrapped into the primary image of `sim_box`, and
    /// every periodic box edge must be at least `2 · (cutoff + skin)` so the
    /// minimum-image convention resolves each pair to a unique image.
    ///
    /// Runs the per-cell row kernel over the cells in order (see
    /// [`NeighborList::build_parallel`] for how a row is made); every row
    /// comes out sorted ascending.
    ///
    /// # Panics
    /// Panics on invalid config or if the box is too small for the reach.
    pub fn build(sim_box: &SimBox, positions: &[Vec3], config: VerletConfig) -> NeighborList {
        config.validate_for(sim_box);
        let grid = CellGrid::build(sim_box, positions, config.reach());
        let cells = cell_rows(&grid, sim_box, positions, config, 0..grid.cell_count());
        NeighborList::from_cells(&grid, &[cells], positions, config)
    }

    /// [`NeighborList::build`] with the cells spread over the current rayon
    /// pool, **bitwise-identical** to it (same `offsets`, same `indices`) at
    /// every thread count.
    ///
    /// Both builders share one per-cell row kernel. For cell `c` it merges
    /// the atom lists of `c`'s stencil cells — each ascending, because
    /// binning is a stable counting sort — into one candidate list sorted
    /// by id, with the candidate positions gathered alongside. Each atom
    /// `i` of `c` is itself a candidate, so its row is a masked scan of a
    /// contiguous range: the suffix after `i` for the half list, every
    /// candidate but `i` for the full one. The accept test is
    /// `min_image(pos[min(i, j)], pos[max(i, j)]).norm_sq() < reach²`, the
    /// brute-force reference's comparison; the candidates ascend, so the
    /// accepted ids do too, and no row is sorted. A cell's rows depend on
    /// nothing but the cell, and one prefix sum over the row lengths then
    /// places them in the CSR, so the schedule cannot change a byte.
    ///
    /// Runs on the current rayon pool — call inside `ThreadPool::install`.
    /// Each worker takes one run of consecutive cells.
    ///
    /// # Panics
    /// As [`NeighborList::build`].
    pub fn build_parallel(
        sim_box: &SimBox,
        positions: &[Vec3],
        config: VerletConfig,
    ) -> NeighborList {
        config.validate_for(sim_box);
        let grid = CellGrid::build_parallel(sim_box, positions, config.reach());
        let (cells, workers) = (grid.cell_count(), rayon::current_num_threads());
        let runs: Vec<Vec<CellRows>> = (0..workers)
            .into_par_iter()
            .map(|w| {
                let run = w * cells / workers..(w + 1) * cells / workers;
                cell_rows(&grid, sim_box, positions, config, run)
            })
            .collect();
        NeighborList::from_cells(&grid, &runs, positions, config)
    }

    /// Places the per-cell rows (`runs` holds consecutive runs of cells) in
    /// one CSR: a prefix sum over the row lengths gives the offsets, then
    /// each row is copied to its slot.
    fn from_cells(
        grid: &CellGrid,
        runs: &[Vec<CellRows>],
        positions: &[Vec3],
        config: VerletConfig,
    ) -> NeighborList {
        let n = positions.len();
        let mut offsets = vec![0u32; n + 1];
        for (c, cell) in runs.iter().flatten().enumerate() {
            for (&i, &len) in grid.cell_atoms(c).iter().zip(&cell.lens) {
                offsets[i as usize + 1] = len;
            }
        }
        for i in 0..n {
            offsets[i + 1] = offsets[i]
                .checked_add(offsets[i + 1])
                .expect("CSR entry count overflows u32");
        }
        let mut indices = vec![0u32; offsets[n] as usize];
        for (c, cell) in runs.iter().flatten().enumerate() {
            let mut rows = &cell.indices[..];
            for &i in grid.cell_atoms(c) {
                let i = i as usize;
                let (lo, hi) = (offsets[i] as usize, offsets[i + 1] as usize);
                let (row, rest) = rows.split_at(hi - lo);
                indices[lo..hi].copy_from_slice(row);
                rows = rest;
            }
        }
        NeighborList {
            config,
            csr: Csr::from_raw(offsets, indices),
            ref_positions: positions.to_vec(),
        }
    }

    /// Reference O(N²) builder; used by tests to validate [`NeighborList::build`].
    pub fn build_brute_force(
        sim_box: &SimBox,
        positions: &[Vec3],
        config: VerletConfig,
    ) -> NeighborList {
        config.validate();
        let reach_sq = config.reach() * config.reach();
        let full = config.kind == NeighborListKind::Full;
        let mut pairs = Vec::new();
        for i in 0..positions.len() as u32 {
            for j in (i + 1)..positions.len() as u32 {
                if sim_box.distance_sq(positions[i as usize], positions[j as usize]) < reach_sq {
                    pairs.push((i, j));
                    if full {
                        pairs.push((j, i));
                    }
                }
            }
        }
        let mut csr = Csr::from_pairs(positions.len(), &pairs);
        csr.sort_rows();
        NeighborList {
            config,
            csr,
            ref_positions: positions.to_vec(),
        }
    }

    /// The build configuration.
    #[inline]
    pub fn config(&self) -> VerletConfig {
        self.config
    }

    /// Half or full.
    #[inline]
    pub fn kind(&self) -> NeighborListKind {
        self.config.kind
    }

    /// Interaction cutoff `r_c`.
    #[inline]
    pub fn cutoff(&self) -> f64 {
        self.config.cutoff
    }

    /// Number of atoms the list covers.
    #[inline]
    pub fn atoms(&self) -> usize {
        self.csr.rows()
    }

    /// Neighbors of atom `i`.
    #[inline]
    pub fn neighbors(&self, i: usize) -> &[u32] {
        self.csr.row(i)
    }

    /// The underlying CSR adjacency.
    #[inline]
    pub fn csr(&self) -> &Csr {
        &self.csr
    }

    /// Number of stored pair entries (half list: one per pair; full: two).
    #[inline]
    pub fn entries(&self) -> usize {
        self.csr.entries()
    }

    /// `true` once some atom has drifted more than `skin / 2` from its
    /// position at build time, i.e. the list may now miss a pair within
    /// `cutoff` and must be rebuilt before the next force evaluation.
    pub fn needs_rebuild(&self, sim_box: &SimBox, positions: &[Vec3]) -> bool {
        assert_eq!(
            positions.len(),
            self.ref_positions.len(),
            "atom count changed since list build"
        );
        let limit_sq = (self.config.skin * 0.5) * (self.config.skin * 0.5);
        positions
            .iter()
            .zip(&self.ref_positions)
            .any(|(&p, &q)| sim_box.distance_sq(p, q) > limit_sq)
    }

    /// Converts this list to the full (symmetric) form. No-op on full lists.
    pub fn to_full(&self) -> NeighborList {
        match self.config.kind {
            NeighborListKind::Full => self.clone(),
            NeighborListKind::Half => NeighborList {
                config: VerletConfig {
                    kind: NeighborListKind::Full,
                    ..self.config
                },
                csr: self.csr.symmetrized(),
                ref_positions: self.ref_positions.clone(),
            },
        }
    }

    /// Positions the list was built from (rebuild reference).
    pub fn ref_positions_raw(&self) -> &[Vec3] {
        &self.ref_positions
    }

    /// Reassembles a list from validated parts (crate-internal; used by the
    /// reordering transform, which preserves the pair set by construction).
    pub(crate) fn assemble_from_parts(
        config: VerletConfig,
        csr: Csr,
        ref_positions: Vec<Vec3>,
    ) -> NeighborList {
        assert_eq!(csr.rows(), ref_positions.len());
        NeighborList {
            config,
            csr,
            ref_positions,
        }
    }

    /// Per-atom neighbor count statistics.
    pub fn stats(&self) -> NeighborStats {
        NeighborStats::of_csr(&self.csr)
    }

    /// Heap bytes consumed by the list (paper §I: EAM neighbor-list memory
    /// pressure; the RC baseline's full list doubles this).
    pub fn heap_bytes(&self) -> usize {
        self.csr.heap_bytes() + self.ref_positions.capacity() * std::mem::size_of::<Vec3>()
    }
}

/// The rows of one cell's atoms, back to back in the cell's (ascending)
/// atom order, and each row's length; both sized exactly.
struct CellRows {
    indices: Box<[u32]>,
    lens: Box<[u32]>,
}

/// The row kernel both builders run, over a run of consecutive cells
/// (described at [`NeighborList::build_parallel`]). The candidate and row
/// scratch is reused from cell to cell.
fn cell_rows(
    grid: &CellGrid,
    sim_box: &SimBox,
    positions: &[Vec3],
    config: VerletConfig,
    cells: Range<usize>,
) -> Vec<CellRows> {
    let reach_sq = config.reach() * config.reach();
    let (mut ids, mut pos, mut row, mut rows) = (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    cells
        .map(|c| {
            let own = grid.cell_atoms(c);
            ids.clear();
            for nc in grid.stencil(c) {
                ids.extend_from_slice(grid.cell_atoms(nc));
            }
            ids.sort_unstable();
            pos.clear();
            pos.extend(ids.iter().map(|&j| positions[j as usize]));
            row.resize(ids.len(), 0);
            rows.clear();
            let mut at = 0;
            let lens = own
                .iter()
                .map(|&i| {
                    // `own` ascends and is a subsequence of `ids` (a cell is
                    // in its own stencil), so one forward cursor finds every
                    // owned atom.
                    while ids[at] != i {
                        at += 1;
                    }
                    let xi = positions[i as usize];
                    let mut len = 0;
                    if config.kind == NeighborListKind::Full {
                        len = accept(&mut row, len, &ids[..at], &pos[..at], reach_sq, |xj| {
                            sim_box.min_image(xj, xi)
                        });
                    }
                    len = accept(
                        &mut row,
                        len,
                        &ids[at + 1..],
                        &pos[at + 1..],
                        reach_sq,
                        |xj| sim_box.min_image(xi, xj),
                    );
                    rows.extend_from_slice(&row[..len]);
                    len as u32
                })
                .collect();
            CellRows {
                indices: rows.as_slice().into(),
                lens,
            }
        })
        .collect()
}

/// Appends to `row[..len]` every id whose displacement `d(pos)` lies
/// within the reach, in candidate order, and returns the new length. The
/// accept test is a mask, not a branch: each id is written, and the cursor
/// advances only if it is accepted.
#[inline(always)]
fn accept(
    row: &mut [u32],
    mut len: usize,
    ids: &[u32],
    pos: &[Vec3],
    reach_sq: f64,
    d: impl Fn(Vec3) -> Vec3,
) -> usize {
    for (&j, &xj) in ids.iter().zip(pos) {
        row[len] = j;
        len += usize::from(d(xj).norm_sq() < reach_sq);
    }
    len
}

#[cfg(test)]
mod tests {
    use super::*;
    use md_geometry::LatticeSpec;

    const FE_CUTOFF: f64 = 5.67;

    #[test]
    fn cell_build_matches_brute_force_half() {
        let (bx, pos) = LatticeSpec::bcc_fe(5).build();
        let cfg = VerletConfig::half(FE_CUTOFF, 0.3);
        let fast = NeighborList::build(&bx, &pos, cfg);
        let slow = NeighborList::build_brute_force(&bx, &pos, cfg);
        assert_eq!(fast.csr(), slow.csr());
    }

    #[test]
    fn cell_build_matches_brute_force_full() {
        let (bx, pos) = LatticeSpec::bcc_fe(4).build();
        let cfg = VerletConfig::full(FE_CUTOFF, 0.0);
        let fast = NeighborList::build(&bx, &pos, cfg);
        let slow = NeighborList::build_brute_force(&bx, &pos, cfg);
        assert_eq!(fast.csr(), slow.csr());
    }

    #[test]
    fn parallel_build_is_bitwise_identical_to_serial() {
        let (bx, pos) = LatticeSpec::bcc_fe(9).build();
        for threads in [2usize, 4] {
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .expect("pool");
            for cfg in [
                VerletConfig::half(FE_CUTOFF, 0.3),
                VerletConfig::full(FE_CUTOFF, 0.3),
            ] {
                let serial = NeighborList::build(&bx, &pos, cfg);
                let parallel = pool.install(|| NeighborList::build_parallel(&bx, &pos, cfg));
                assert_eq!(serial.csr().offsets(), parallel.csr().offsets());
                assert_eq!(serial.csr().indices(), parallel.csr().indices());
            }
        }
    }

    #[test]
    fn parallel_build_on_a_small_system_matches_serial() {
        let (bx, pos) = LatticeSpec::bcc_fe(5).build();
        let cfg = VerletConfig::half(FE_CUTOFF, 0.3);
        let serial = NeighborList::build(&bx, &pos, cfg);
        let pool = rayon::ThreadPoolBuilder::new().num_threads(4).build().expect("pool");
        let parallel = pool.install(|| NeighborList::build_parallel(&bx, &pos, cfg));
        assert_eq!(serial.csr().offsets(), parallel.csr().offsets());
        assert_eq!(serial.csr().indices(), parallel.csr().indices());
    }

    #[test]
    fn half_list_stores_each_pair_once_with_lower_owner() {
        let (bx, pos) = LatticeSpec::bcc_fe(4).build();
        let nl = NeighborList::build(&bx, &pos, VerletConfig::half(FE_CUTOFF, 0.0));
        for (i, row) in nl.csr().iter_rows() {
            for &j in row {
                assert!(j as usize > i, "half list row {i} contains {j} ≤ {i}");
            }
        }
    }

    #[test]
    fn full_list_is_symmetric_and_double_sized() {
        let (bx, pos) = LatticeSpec::bcc_fe(4).build();
        let half = NeighborList::build(&bx, &pos, VerletConfig::half(FE_CUTOFF, 0.0));
        let full = NeighborList::build(&bx, &pos, VerletConfig::full(FE_CUTOFF, 0.0));
        assert_eq!(full.entries(), 2 * half.entries());
        for (i, row) in full.csr().iter_rows() {
            for &j in row {
                assert!(
                    full.neighbors(j as usize).contains(&(i as u32)),
                    "pair ({i},{j}) not mirrored"
                );
            }
        }
    }

    #[test]
    fn to_full_equals_direct_full_build() {
        let (bx, pos) = LatticeSpec::bcc_fe(5).build();
        let half = NeighborList::build(&bx, &pos, VerletConfig::half(FE_CUTOFF, 0.1));
        let full = NeighborList::build(&bx, &pos, VerletConfig::full(FE_CUTOFF, 0.1));
        assert_eq!(half.to_full().csr(), full.csr());
    }

    #[test]
    fn bcc_fe_coordination_within_cutoff() {
        // Within 5.67 Å ≈ 1.98a, BCC has 8 (√3/2·a) + 6 (a) + 12 (√2·a)
        // + 24 (√11/2·a ≈ 1.66a) + 8 (√3·a ≈ 1.73a) = 58 neighbors.
        let (bx, pos) = LatticeSpec::bcc_fe(4).build();
        let nl = NeighborList::build(&bx, &pos, VerletConfig::full(FE_CUTOFF, 0.0));
        let s = nl.stats();
        assert_eq!(s.min, 58, "every Fe atom sees 58 neighbors in a perfect crystal");
        assert_eq!(s.max, 58);
    }

    #[test]
    fn needs_rebuild_triggers_on_half_skin_drift() {
        let (bx, mut pos) = LatticeSpec::bcc_fe(5).build();
        let nl = NeighborList::build(&bx, &pos, VerletConfig::half(FE_CUTOFF, 1.0));
        assert!(!nl.needs_rebuild(&bx, &pos));
        // Move one atom by 0.49 — still inside skin/2 = 0.5.
        pos[0].x += 0.49;
        let wrapped: Vec<_> = pos.iter().map(|&p| bx.wrap(p)).collect();
        assert!(!nl.needs_rebuild(&bx, &wrapped));
        // 0.51 crosses the threshold.
        pos[0].x += 0.02;
        let wrapped: Vec<_> = pos.iter().map(|&p| bx.wrap(p)).collect();
        assert!(nl.needs_rebuild(&bx, &wrapped));
    }

    #[test]
    fn rebuild_check_sees_through_periodic_wrap() {
        let (bx, mut pos) = LatticeSpec::bcc_fe(5).build();
        let nl = NeighborList::build(&bx, &pos, VerletConfig::half(FE_CUTOFF, 1.0));
        // Drift across the boundary: small physical move, large coordinate
        // jump after wrapping. The min-image displacement check must not
        // flag this as a big move... but must flag genuine skin/2 drift.
        pos[0].x -= 0.2; // may wrap below 0
        let wrapped: Vec<_> = pos.iter().map(|&p| bx.wrap(p)).collect();
        assert!(!nl.needs_rebuild(&bx, &wrapped));
    }

    #[test]
    fn skin_enlarges_the_list() {
        let (bx, pos) = LatticeSpec::bcc_fe(5).build();
        let tight = NeighborList::build(&bx, &pos, VerletConfig::half(FE_CUTOFF, 0.0));
        let padded = NeighborList::build(&bx, &pos, VerletConfig::half(FE_CUTOFF, 0.6));
        assert!(padded.entries() > tight.entries());
    }

    #[test]
    fn neighbor_rows_are_sorted_ascending() {
        let (bx, pos) = LatticeSpec::bcc_fe(5).build();
        let nl = NeighborList::build(&bx, &pos, VerletConfig::half(FE_CUTOFF, 0.3));
        for (_, row) in nl.csr().iter_rows() {
            assert!(row.windows(2).all(|w| w[0] < w[1]), "row not sorted: {row:?}");
        }
    }

    #[test]
    #[should_panic(expected = "box too small")]
    fn box_smaller_than_two_reach_rejected() {
        let bx = SimBox::cubic(10.0);
        let _ = NeighborList::build(&bx, &[Vec3::splat(1.0)], VerletConfig::half(4.0, 1.1));
    }

    #[test]
    fn empty_system_builds_empty_list() {
        let bx = SimBox::cubic(20.0);
        let nl = NeighborList::build(&bx, &[], VerletConfig::half(5.0, 0.0));
        assert_eq!(nl.atoms(), 0);
        assert_eq!(nl.entries(), 0);
    }

    #[test]
    fn isolated_atoms_have_no_neighbors() {
        let bx = SimBox::cubic(100.0);
        let pos = [Vec3::splat(10.0), Vec3::splat(60.0)];
        let nl = NeighborList::build(&bx, &pos, VerletConfig::half(5.0, 0.5));
        assert_eq!(nl.entries(), 0);
    }

    #[test]
    fn pair_across_periodic_boundary_is_found() {
        let bx = SimBox::cubic(20.0);
        let pos = [Vec3::new(0.5, 10.0, 10.0), Vec3::new(19.5, 10.0, 10.0)];
        let nl = NeighborList::build(&bx, &pos, VerletConfig::half(5.0, 0.0));
        assert_eq!(nl.entries(), 1, "boundary pair at distance 1.0 missed");
        assert_eq!(nl.neighbors(0), &[1]);
    }

    #[test]
    fn full_memory_is_about_double_half_memory() {
        let (bx, pos) = LatticeSpec::bcc_fe(5).build();
        let half = NeighborList::build(&bx, &pos, VerletConfig::half(FE_CUTOFF, 0.3));
        let full = NeighborList::build(&bx, &pos, VerletConfig::full(FE_CUTOFF, 0.3));
        let ratio = full.heap_bytes() as f64 / half.heap_bytes() as f64;
        assert!(ratio > 1.5, "full/half memory ratio = {ratio}");
    }
}
