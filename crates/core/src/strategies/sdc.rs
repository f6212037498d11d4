//! Spatial Decomposition Coloring — the paper's contribution (§II.B–C).
//!
//! Execution mirrors the paper's Fig. 7/8 loop nest:
//!
//! ```text
//! for color in colors {               // serial over colors
//!     par for subdomain in of_color(color) {   // rayon, no sync inside
//!         for i in atoms_of(subdomain) {
//!             for j in half_list(i) {
//!                 out[i] += to_i;  out[j] += to_j;   // unsynchronized!
//!             }
//!         }
//!     }                               // implicit barrier (par_iter joins)
//! }
//! ```
//!
//! The unsynchronized writes are sound because within one color the write
//! footprints — each subdomain's atoms plus their list neighbors — are
//! pairwise disjoint: same-color subdomains are separated by a full
//! subdomain of edge ≥ 2·(cutoff + skin) along some axis, and every list
//! neighbor lies within `cutoff + skin` of its owner. The invariant is
//! established once per neighbor-list rebuild and can be checked exhaustively
//! with [`SdcPlan::validate_footprints`]; debug builds re-verify it before
//! every sweep.
//!
//! The only synchronization the strategy ever performs is the barrier at the
//! end of each color's parallel loop — `colors` barriers per sweep (2, 4 or
//! 8), amortized over the entire force computation. That is the whole reason
//! for the paper's near-linear speedup.

use crate::context::ParallelContext;
use crate::metrics::{ScatterMetrics, MAX_COLORS};
use crate::plan::SdcPlan;
use crate::scatter::{PairTerm, ScatterValue};
use crate::shared::SharedSlice;
use md_neighbor::Csr;
use rayon::prelude::*;
use std::time::Instant;

/// Color-parallel scatter over a half list (see module docs).
///
/// The kernel receives each pair's **slot** — its storage index in the half
/// list (`offsets[i] + k`) — besides `(i, j)`. Within one sweep every stored
/// pair is visited exactly once and by exactly one task, so a kernel may
/// write disjoint per-pair scratch entries through a [`SharedSlice`] (the
/// fused EAM path's phase-1 record store) under the same
/// footprint-disjointness argument that covers `out`.
///
/// With `metrics`, records per-color wall time (the span of each color's
/// parallel region, whose join is the barrier) and per-worker busy time
/// (attributed via `rayon::current_thread_index`, so a worker's barrier
/// wait is `Σ color walls − busy`). Timing is taken once per color / per
/// subdomain task — never inside the pair loop — keeping the enabled-path
/// overhead within the ≤ 1% budget (DESIGN.md §10).
pub fn scatter_sdc<V: ScatterValue>(
    ctx: &ParallelContext,
    plan: &SdcPlan,
    half: &Csr,
    out: &mut [V],
    kernel: &(impl Fn(usize, usize, usize) -> Option<PairTerm<V>> + Sync),
    metrics: Option<&ScatterMetrics>,
) {
    debug_assert!(
        plan.validate_footprints(half).is_ok(),
        "SDC plan footprints overlap; decomposition range too small for this list"
    );
    let shared = SharedSlice::new(out);
    run_by_color(ctx, plan, metrics, |s| {
        // SAFETY: only same-color subdomains run between two barriers, and
        // same-color write footprints are disjoint (checked above).
        unsafe { sweep_subdomain(plan, half, &shared, s, kernel) }
    });
}

/// The barrier schedule: runs `task(s)` for every subdomain, color after
/// color, with the same-color subdomains in parallel and a barrier (the
/// `par_iter` join) before the next color starts. The iteration order
/// within a color is the plan's schedule (LPT when balancing is on, CSR
/// otherwise).
pub(crate) fn run_by_color(
    ctx: &ParallelContext,
    plan: &SdcPlan,
    metrics: Option<&ScatterMetrics>,
    task: impl Fn(usize) + Sync,
) {
    ctx.install(|| {
        for color in 0..plan.decomposition().color_count() {
            let color_start = metrics.map(|_| Instant::now());
            plan.ordered_of_color(color).par_iter().for_each(|&s| {
                let task_start = metrics.map(|_| Instant::now());
                task(s as usize);
                if let (Some(m), Some(start)) = (metrics, task_start) {
                    let worker = rayon::current_thread_index().unwrap_or(0);
                    m.add_busy_ns(worker, start.elapsed().as_nanos() as u64);
                }
            });
            if let (Some(m), Some(start)) = (metrics, color_start) {
                m.color_wall[color.min(MAX_COLORS - 1)].record(start.elapsed());
                m.color_barriers.inc();
            }
        }
    });
}

/// One subdomain task: for every atom `i` of subdomain `s` and every stored
/// pair `(i, j)` of its half-list row, `out[i] += to_i` and
/// `out[j] += to_j`, rows and neighbors in CSR order. Both schedules — the
/// color barriers of [`scatter_sdc`] and the conflict DAG of
/// [`crate::taskgraph::scatter_taskgraph`] — run their tasks through this
/// one function, so the per-element accumulation order, and with it the
/// bitwise result, depends only on the order in which conflicting tasks
/// run.
///
/// # Safety
/// While this runs, no other thread may access an element of `out` in the
/// write footprint of `s`: the atoms of `s` and their half-list neighbors.
#[inline]
pub(crate) unsafe fn sweep_subdomain<V: ScatterValue>(
    plan: &SdcPlan,
    half: &Csr,
    out: &SharedSlice<'_, V>,
    s: usize,
    kernel: &(impl Fn(usize, usize, usize) -> Option<PairTerm<V>> + Sync),
) {
    let offsets = half.offsets();
    for &i in plan.atoms_of(s) {
        let i = i as usize;
        let base = offsets[i] as usize;
        for (k, &j) in half.row(i).iter().enumerate() {
            if let Some(t) = kernel(base + k, i, j as usize) {
                // SAFETY: i is owned by s and j is a list neighbor of i, so
                // both lie in s's write footprint, which the caller keeps
                // free of other threads.
                unsafe {
                    out.get_mut(i).add(t.to_i);
                    out.get_mut(j as usize).add(t.to_j);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decomposition::DecompositionConfig;
    use md_geometry::{LatticeSpec, Vec3};
    use md_neighbor::{NeighborList, VerletConfig};

    const CUTOFF: f64 = 5.67;
    const SKIN: f64 = 0.3;

    #[test]
    fn matches_serial_for_each_dimensionality() {
        let (bx, pos) = LatticeSpec::bcc_fe(17).build();
        let nl = NeighborList::build(&bx, &pos, VerletConfig::half(CUTOFF, SKIN));
        let kernel = |_: usize, i: usize, j: usize| {
            let r2 = bx.distance_sq(pos[i], pos[j]);
            (r2 < CUTOFF * CUTOFF).then(|| PairTerm::symmetric(1.0 / (1.0 + r2)))
        };
        let mut expect = vec![0.0f64; pos.len()];
        crate::strategies::serial::scatter_serial(nl.csr(), &mut expect, &kernel);
        for dims in 1..=3 {
            let plan =
                SdcPlan::build(&bx, &pos, DecompositionConfig::new(dims, CUTOFF + SKIN)).unwrap();
            for threads in [1, 2, 5] {
                let ctx = ParallelContext::new(threads);
                let mut got = vec![0.0f64; pos.len()];
                scatter_sdc(&ctx, &plan, nl.csr(), &mut got, &kernel, None);
                for (k, (a, b)) in expect.iter().zip(&got).enumerate() {
                    assert!(
                        (a - b).abs() < 1e-12,
                        "dims {dims} threads {threads}: atom {k}: {a} vs {b}"
                    );
                }
            }
        }
    }

    #[test]
    fn vec3_scatter_matches_serial() {
        let (bx, pos) = LatticeSpec::bcc_fe(17).build();
        let nl = NeighborList::build(&bx, &pos, VerletConfig::half(CUTOFF, SKIN));
        let kernel = |_: usize, i: usize, j: usize| {
            let d = bx.min_image(pos[i], pos[j]);
            let r2 = d.norm_sq();
            (r2 < CUTOFF * CUTOFF).then(|| PairTerm::newton(d / (1.0 + r2)))
        };
        let mut expect = vec![Vec3::ZERO; pos.len()];
        crate::strategies::serial::scatter_serial(nl.csr(), &mut expect, &kernel);
        let plan = SdcPlan::build(&bx, &pos, DecompositionConfig::new(3, CUTOFF + SKIN)).unwrap();
        let ctx = ParallelContext::new(4);
        let mut got = vec![Vec3::ZERO; pos.len()];
        scatter_sdc(&ctx, &plan, nl.csr(), &mut got, &kernel, None);
        for (a, b) in expect.iter().zip(&got) {
            assert!((*a - *b).norm() < 1e-12);
        }
    }

    #[test]
    fn lpt_schedule_is_bitwise_identical_to_csr_order() {
        // Reordering tasks within a color must not change a single bit:
        // every output element has exactly one writer per color, so the
        // floating-point accumulation order per element is unchanged.
        use crate::schedule::ColorSchedule;
        let (bx, pos) = LatticeSpec::bcc_fe(17).build();
        let nl = NeighborList::build(&bx, &pos, VerletConfig::half(CUTOFF, SKIN));
        let kernel = |_: usize, i: usize, j: usize| {
            let r2 = bx.distance_sq(pos[i], pos[j]);
            (r2 < CUTOFF * CUTOFF).then(|| PairTerm::symmetric(1.0 / (1.0 + r2)))
        };
        for dims in 1..=3 {
            let plan =
                SdcPlan::build(&bx, &pos, DecompositionConfig::new(dims, CUTOFF + SKIN)).unwrap();
            let costs: Vec<f64> =
                plan.pair_counts(nl.csr()).iter().map(|&c| c as f64).collect();
            let mut scheduled = plan.clone();
            scheduled.set_schedule(ColorSchedule::lpt(plan.decomposition(), &costs, 4));
            for threads in [1, 4] {
                let ctx = ParallelContext::new(threads);
                let mut plain = vec![0.0f64; pos.len()];
                let mut lpt = vec![0.0f64; pos.len()];
                scatter_sdc(&ctx, &plan, nl.csr(), &mut plain, &kernel, None);
                scatter_sdc(&ctx, &scheduled, nl.csr(), &mut lpt, &kernel, None);
                assert_eq!(
                    plain, lpt,
                    "dims {dims} threads {threads}: LPT changed a bit"
                );
            }
        }
    }

    #[test]
    fn every_pair_processed_exactly_once() {
        // Unit contributions: out[i] must equal the degree of i in the
        // full adjacency — each stored pair touched once, no duplicates.
        let (bx, pos) = LatticeSpec::bcc_fe(17).build();
        let nl = NeighborList::build(&bx, &pos, VerletConfig::half(CUTOFF, 0.0));
        let plan = SdcPlan::build(&bx, &pos, DecompositionConfig::new(2, CUTOFF)).unwrap();
        let ctx = ParallelContext::new(4);
        let mut got = vec![0.0f64; pos.len()];
        scatter_sdc(
            &ctx,
            &plan,
            nl.csr(),
            &mut got,
            &|_, _, _| Some(PairTerm::symmetric(1.0)),
            None,
        );
        let full = nl.to_full();
        #[allow(clippy::needless_range_loop)]
        for i in 0..pos.len() {
            assert_eq!(got[i], full.neighbors(i).len() as f64, "atom {i}");
        }
    }
}
