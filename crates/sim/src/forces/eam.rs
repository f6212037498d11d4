//! The three-phase EAM force computation (paper §II.C).
//!
//! Per time-step:
//!
//! 1. **Densities** (Fig. 7): `rho[i] += f(r); rho[j] += f(r)` over the half
//!    list — an irregular reduction, executed by the configured strategy.
//! 2. **Embedding** (§II.C phase 2): `fp[i] = F'(ρ_i)` — a plain data-
//!    parallel loop with no cross-iteration dependences (`parallel for`).
//! 3. **Forces** (Fig. 8): for each stored pair, the scalar
//!    `s = φ'(r) + (F'(ρ_i) + F'(ρ_j))·f'(r)` (the paper's Eq. 2), scattered
//!    as `force[i] −= s·r̂; force[j] += s·r̂` — the second irregular
//!    reduction.
//!
//! Phases 1 and 3 are the paper's timed quantity; phase 2 is cheap
//! (`O(N)` vs `O(N·neighbors)`).

use crate::forces::ForceEngine;
use crate::system::System;
use crate::timing::Phase;
use md_geometry::{SimBox, Vec3};
use md_neighbor::{ClusterList, Csr, NeighborList, DEFAULT_CLUSTER_M};
use md_potential::EamPotential;
use rayon::prelude::*;
use sdc_core::shared::SharedSlice;
use sdc_core::{PairTerm, StrategyKind, NO_SLOT};

/// Phase-1 record for one stored half-list pair, addressed by its slot
/// (`offsets[i] + k`): the minimum-image displacement, the separation, both
/// radial derivatives, and the density contribution `f(r)`. Phase 3 of the
/// fused path reads this instead of re-deriving it, so `min_image`, `sqrt`
/// and the pair/density spline evaluations are paid once per pair per step —
/// the paper's §II.D interpolation optimization. The SIMD path fills each
/// record span lane-batched from inside the density sweep (see
/// [`precompute_rows`]), so the sweep replays `f` while the span is still
/// cache-hot.
#[derive(Debug, Clone, Copy)]
pub(crate) struct PairRecord {
    d: Vec3,
    r: f64,
    dphi: f64,
    df: f64,
    f: f64,
}

impl PairRecord {
    /// Sentinel for "outside the true cutoff this step" (a Verlet skin
    /// pair): `r < 0` is unreachable for a real separation.
    pub(crate) const EMPTY: PairRecord = PairRecord {
        d: Vec3::ZERO,
        r: -1.0,
        dphi: 0.0,
        df: 0.0,
        f: 0.0,
    };
}

/// Lane-batch size of the SIMD span fill: stored pairs are gathered into
/// blocks of this many separations before one
/// [`EamPotential::pair_density_batch`] call (a multiple of the 4-wide
/// AVX2 blocks, large enough to amortize the call).
const SIMD_BATCH: usize = 64;

/// Fills the slot records of a span of consecutive rows by batched spline
/// evaluation: walks the rows, gathers stored pairs into
/// [`SIMD_BATCH`]-wide blocks, evaluates φ/φ'/f/f' for the whole block, and
/// writes the results into the slot-addressed scratch; skin pairs get the
/// sentinel. The span is a [`ClusterList`] cluster under the
/// serial sweep and a single row under the parallel ones (see
/// [`ForceEngine::eam_density_phase_fused`]); either way row spans of
/// distinct tasks are disjoint, so every slot has exactly one writer.
#[allow(clippy::too_many_arguments)]
fn precompute_rows<P: EamPotential>(
    half: &Csr,
    row_lo: usize,
    row_hi: usize,
    sim_box: &SimBox,
    pos: &[Vec3],
    rc2: f64,
    pot: &P,
    records: &SharedSlice<'_, PairRecord>,
) {
    let offsets = half.offsets();
    let indices = half.indices();
    let mut rs = [0.0f64; SIMD_BATCH];
    let mut valid = [false; SIMD_BATCH];
    let mut out = [[0.0f64; 4]; SIMD_BATCH];
    // Within a span, stored pairs occupy *consecutive* slots, so lane `k`
    // of a block is slot `base + k` — no compaction, no slot scatter. Skin
    // pairs ride through the batch as dead lanes (their outputs are
    // discarded); evaluating them costs a few percent of lane occupancy
    // but drops the per-pair gather/scatter bookkeeping a compacting pass
    // would pay.
    let mut base = offsets[row_lo] as usize;
    let mut n = 0;
    for i in row_lo..row_hi {
        let lo = offsets[i] as usize;
        let hi = offsets[i + 1] as usize;
        for (slot, &j) in (lo..hi).zip(&indices[lo..hi]) {
            let d = sim_box.min_image(pos[i], pos[j as usize]);
            let r2 = d.norm_sq();
            rs[n] = r2;
            // The cutoff test is the *negated* scalar guard `r2 >= rc2`
            // (not `r < rc`): squared, so the rounded sqrt cannot land a
            // boundary pair on the other side, and negated, so a NaN
            // separation counts as valid — exactly like the scalar
            // kernel's early-out — and the poison still flows.
            #[allow(clippy::neg_cmp_op_on_partial_ord)]
            {
                valid[n] = !(r2 >= rc2);
            }
            // SAFETY: slot is inside this span — disjoint from every
            // other task's writes (see above).
            unsafe { records.get_mut(slot).d = d };
            n += 1;
            if n == SIMD_BATCH {
                flush_block(pot, &mut rs, &valid, base, n, &mut out, records);
                base = slot + 1;
                n = 0;
            }
        }
    }
    flush_block(pot, &mut rs, &valid, base, n, &mut out, records);
}

/// One batched r²→r/φ/f evaluation over `n` consecutive slots starting at
/// `base`, writing the separations and spline outputs back into the
/// records (whose `d` fields the geometry walk already filled). Dead
/// (skin) lanes get the `r = −1` sentinel instead of their separation;
/// their spline outputs are stored too — harmless, since the sentinel
/// makes every replay skip them.
fn flush_block<P: EamPotential>(
    pot: &P,
    rs: &mut [f64; SIMD_BATCH],
    valid: &[bool; SIMD_BATCH],
    base: usize,
    n: usize,
    out: &mut [[f64; 4]; SIMD_BATCH],
    records: &SharedSlice<'_, PairRecord>,
) {
    md_potential::simd::sqrt_batch(&mut rs[..n]);
    // Dead lanes take the sentinel *before* the spline batch: a skin
    // separation (`r ≥ rc`) would otherwise make
    // [`EamPotential::pair_density_batch`] drop its whole 4-lane block to
    // the scalar guard path, and with ~14% of stored pairs in the skin
    // that is nearly half the blocks. The sentinel is in-domain (clamped
    // to segment 0), the lane's garbage output is discarded anyway, and
    // batched evaluation is lane-independent — valid lanes are bitwise
    // unaffected. NaN separations are `valid` (see above) and stay NaN.
    for k in 0..n {
        if !valid[k] {
            rs[k] = -1.0;
        }
    }
    pot.pair_density_batch(&rs[..n], &mut out[..n]);
    for (k, o) in out[..n].iter().enumerate() {
        let [_phi, dphi, f, df] = *o;
        // SAFETY: consecutive slots of this span — see `precompute_rows`.
        unsafe {
            let m = records.get_mut(base + k);
            m.r = rs[k];
            m.dphi = dphi;
            m.df = df;
            m.f = f;
        }
    }
}

impl ForceEngine {
    /// EAM phases 1–2 on the reference (dyn-dispatched) path: densities and
    /// embedding derivatives. Split out so a halo-exchange driver can ship
    /// ghost `F'(ρ)` values between the embedding and force phases.
    pub(crate) fn eam_density_phase(&mut self, system: &mut System, pot: &dyn EamPotential) {
        let rc2 = pot.cutoff() * pot.cutoff();
        let strategy = self.strategy();
        // Timers are detached so `exec` (borrowing `self`) and timing
        // (borrowing `self.timers` mutably) can coexist.
        let mut timers = std::mem::take(self.timers_mut());
        {
            let exec = self.exec();
            let ctx = self.ctx();
            let (sim_box, pos, rho, fp, _forces) = system.eam_split_mut();

            // Phase 1: electron densities.
            timers.time(Phase::Density, || {
                rho.fill(0.0);
                let kernel = |_: usize, i: usize, j: usize| {
                    let d = sim_box.min_image(pos[i], pos[j]);
                    let r2 = d.norm_sq();
                    if r2 >= rc2 {
                        return None;
                    }
                    Some(PairTerm::symmetric(pot.density(r2.sqrt()).0))
                };
                exec.run(strategy, rho, &kernel);
            });

            // Phase 2: embedding derivatives (no dependences).
            timers.time(Phase::Embedding, || {
                ctx.install(|| {
                    fp.par_iter_mut()
                        .zip(rho.par_iter())
                        .for_each(|(f, &r)| *f = pot.embedding(r).1);
                });
            });
        }
        *self.timers_mut() = timers;
    }

    /// EAM phase 3 on the reference path: forces from the `fp` currently in
    /// the system (normally the output of [`ForceEngine::eam_density_phase`],
    /// possibly with ghost entries overwritten by a halo exchange).
    pub(crate) fn eam_force_phase(&mut self, system: &mut System, pot: &dyn EamPotential) {
        let rc2 = pot.cutoff() * pot.cutoff();
        let strategy = self.strategy();
        let mut timers = std::mem::take(self.timers_mut());
        {
            let exec = self.exec();
            let (sim_box, pos, _rho, fp, forces) = system.eam_split_mut();

            // Phase 3: forces.
            timers.time(Phase::Force, || {
                forces.fill(Vec3::ZERO);
                let fp_ro: &[f64] = fp;
                let kernel = |_: usize, i: usize, j: usize| {
                    let d = sim_box.min_image(pos[i], pos[j]);
                    let r2 = d.norm_sq();
                    if r2 >= rc2 {
                        return None;
                    }
                    let r = r2.sqrt();
                    let (_, dphi) = pot.pair(r);
                    let (_, df) = pot.density(r);
                    let scalar = dphi + (fp_ro[i] + fp_ro[j]) * df;
                    // F_i = −dE/dr · r̂, r̂ = (r_i − r_j)/r; Newton gives −F to j.
                    Some(PairTerm::newton(d * (-scalar / r)))
                };
                exec.run(strategy, forces, &kernel);
            });
        }
        *self.timers_mut() = timers;
    }

    /// Phases 1–2 of the fused §II.D variant, monomorphized over the
    /// concrete potential `P` (resolved once per step in
    /// [`ForceEngine::compute`], so the pair loops pay no virtual calls).
    ///
    /// Arithmetic is identical to the reference path expression for
    /// expression — bitwise under every deterministic strategy — but phase 1
    /// evaluates φ and f through [`EamPotential::pair_density`] (one segment
    /// index into interleaved coefficients for tabulated potentials) and
    /// stores each in-cutoff pair's [`PairRecord`] in slot-addressed
    /// scratch; [`ForceEngine::eam_force_phase_fused`] reads the record
    /// back. Strategies without stable slots (everything but
    /// Serial/SDC/taskgraph) receive [`NO_SLOT`] and recompute in phase 3,
    /// exactly like the reference path.
    ///
    /// When SIMD is enabled (the default) *and* the active strategy
    /// provides slots, the density sweep batch-fills the records span by
    /// span from inside the kernel — the first executed pair of a span
    /// evaluates the whole span's φ/f splines four pairs per AVX2 block
    /// ([`EamPotential::pair_density_batch`]) and every pair then replays
    /// its slot's stored `f` while it is still cache-hot. Spans are whole
    /// [`ClusterList`] clusters under the serial sweep and single rows
    /// under the parallel ones (a subdomain boundary can split a cluster
    /// between tasks). Because the batched evaluators are bit-exact
    /// against the scalar ones and the sweep's accumulation order is
    /// untouched, rho/fp/forces are bitwise identical to the scalar fused
    /// path at every thread count, with any span grouping.
    pub(crate) fn eam_density_phase_fused<P: EamPotential>(
        &mut self,
        system: &mut System,
        pot: &P,
    ) {
        let rc2 = pot.cutoff() * pot.cutoff();
        let strategy = self.strategy();
        let entries = self.neighbor_list().csr().entries();
        // Re-gated every step: a mid-run downgrade can move the engine onto
        // a strategy whose sweep hands out NO_SLOT, where a precomputed
        // record would never be read back.
        let simd = self.simd() && strategy.provides_slots();
        // Timers and scratch are detached so `exec` (borrowing `self`) can
        // coexist with both.
        let mut timers = std::mem::take(self.timers_mut());
        if simd && self.clusters_mut().is_none() {
            // Grouping the fresh list's rows is list-building work.
            let cl = timers.time(Phase::Neighbor, || {
                ClusterList::build(self.neighbor_list().csr(), DEFAULT_CLUSTER_M)
            });
            *self.clusters_mut() = Some(cl);
        }
        let clusters = self.clusters_mut().take();
        let mut scratch = std::mem::take(self.scratch_mut());
        if scratch.len() != entries {
            scratch.clear();
            scratch.resize(entries, PairRecord::EMPTY);
        }
        {
            let exec = self.exec();
            let ctx = self.ctx();
            let half = self.neighbor_list().csr();
            let (sim_box, pos, rho, fp, _forces) = system.eam_split_mut();

            // Phase 1: densities, recording each pair as a side effect.
            timers.time(Phase::Density, || {
                rho.fill(0.0);
                if let (true, Some(cl)) = (simd, clusters.as_ref()) {
                    debug_assert_eq!(cl.entries(), entries, "stale cluster grouping");
                    debug_assert_eq!(cl.m(), DEFAULT_CLUSTER_M, "unexpected cluster height");
                    let offsets = half.offsets();
                    let rows = half.rows();
                    let records = SharedSlice::new(&mut scratch);
                    // The batch fill happens *inside* the sweep, triggered
                    // by the first executed pair of each span, so records
                    // are written and replayed while still cache-hot — a
                    // separate precompute pass would stream the whole
                    // record array through memory twice. The trigger
                    // compares against the span's first slot: empty leading
                    // rows do not advance CSR offsets, so the span's first
                    // executed pair always carries it, and no later pair
                    // can (slots ascend within a row). Accumulation stays
                    // inside `run`, in exactly the order of the
                    // scalar kernel below — hence bitwise-identical rho.
                    let replay = |rec: &PairRecord| {
                        if rec.r < 0.0 {
                            return None;
                        }
                        Some(PairTerm::symmetric(rec.f))
                    };
                    if matches!(strategy, StrategyKind::Serial) {
                        // One task sweeps all rows in ascending order, so a
                        // span can be a whole cluster of `cl`'s grouping —
                        // M consecutive rows, the granularity
                        // `lane_occupancy` scores.
                        const M: usize = DEFAULT_CLUSTER_M;
                        const { assert!(M.is_power_of_two()) };
                        let kernel = |slot: usize, i: usize, _j: usize| {
                            let first = i & !(M - 1);
                            if slot == offsets[first] as usize {
                                let hi = (first + M).min(rows);
                                precompute_rows(
                                    half, first, hi, sim_box, pos, rc2, pot, &records,
                                );
                            }
                            // SAFETY: the span trigger above filled this
                            // slot earlier in this task's sweep; spans of
                            // distinct tasks are disjoint.
                            replay(unsafe { &*records.get_mut(slot) })
                        };
                        exec.run(strategy, rho, &kernel);
                    } else {
                        // Parallel strategies own whole rows, but a
                        // subdomain boundary can split a cluster between
                        // tasks — so each task batches row-wide spans.
                        let kernel = |slot: usize, i: usize, _j: usize| {
                            if slot == offsets[i] as usize {
                                precompute_rows(
                                    half,
                                    i,
                                    i + 1,
                                    sim_box,
                                    pos,
                                    rc2,
                                    pot,
                                    &records,
                                );
                            }
                            // SAFETY: as above — row spans are disjoint.
                            replay(unsafe { &*records.get_mut(slot) })
                        };
                        exec.run(strategy, rho, &kernel);
                    }
                } else {
                    let records = SharedSlice::new(&mut scratch);
                    let kernel = |slot: usize, i: usize, j: usize| {
                        let d = sim_box.min_image(pos[i], pos[j]);
                        let r2 = d.norm_sq();
                        if r2 >= rc2 {
                            if slot != NO_SLOT {
                                // SAFETY: run visits each real slot
                                // exactly once per sweep, from one task.
                                unsafe { records.get_mut(slot).r = -1.0 };
                            }
                            return None;
                        }
                        let r = r2.sqrt();
                        let (_, dphi, f, df) = pot.pair_density(r);
                        if slot != NO_SLOT {
                            // SAFETY: as above — slot writes are disjoint.
                            unsafe {
                                *records.get_mut(slot) = PairRecord { d, r, dphi, df, f }
                            };
                        }
                        Some(PairTerm::symmetric(f))
                    };
                    exec.run(strategy, rho, &kernel);
                }
            });

            // Phase 2: embedding derivatives (no dependences). The SIMD
            // path evaluates F' in contiguous lane batches; chunk writes
            // are disjoint, and the batched evaluator is bit-exact against
            // the scalar one, so the split cannot be observed in fp.
            timers.time(Phase::Embedding, || {
                ctx.install(|| {
                    if simd {
                        let n = fp.len();
                        let fp_sh = SharedSlice::new(fp);
                        let rho_ro: &[f64] = rho;
                        (0..n.div_ceil(SIMD_BATCH)).into_par_iter().for_each(|b| {
                            let lo = b * SIMD_BATCH;
                            let hi = (lo + SIMD_BATCH).min(n);
                            // SAFETY: blocks are disjoint half-open ranges,
                            // each visited by exactly one task.
                            let fc = unsafe {
                                std::slice::from_raw_parts_mut(fp_sh.as_ptr().add(lo), hi - lo)
                            };
                            pot.embedding_deriv_batch(&rho_ro[lo..hi], fc);
                        });
                    } else {
                        fp.par_iter_mut()
                            .zip(rho.par_iter())
                            .for_each(|(f, &r)| *f = pot.embedding(r).1);
                    }
                });
            });
        }
        *self.scratch_mut() = scratch;
        *self.timers_mut() = timers;
        *self.clusters_mut() = clusters;
    }

    /// Phase 3 of the fused path: forces, replaying the records written by
    /// [`ForceEngine::eam_density_phase_fused`] (which must run first on the
    /// same neighbor list — [`ForceEngine::compute`] and the shard driver
    /// both guarantee that ordering).
    ///
    /// This phase deliberately stays scalar even on the SIMD path: the
    /// replay is a handful of cheap flops per record, its per-pair divides
    /// are independent (so the out-of-order core already overlaps them),
    /// and a lane-batched variant was measured slower — the extra span
    /// walk and write-back cost more than the batched divide saved.
    pub(crate) fn eam_force_phase_fused<P: EamPotential>(&mut self, system: &mut System, pot: &P) {
        let rc2 = pot.cutoff() * pot.cutoff();
        let strategy = self.strategy();
        debug_assert_eq!(
            self.scratch_mut().len(),
            self.neighbor_list().csr().entries(),
            "fused force phase without a preceding density phase"
        );
        let mut timers = std::mem::take(self.timers_mut());
        let scratch = std::mem::take(self.scratch_mut());
        {
            let exec = self.exec();
            let (sim_box, pos, _rho, fp, forces) = system.eam_split_mut();

            // Phase 3: forces, replaying the phase-1 records.
            timers.time(Phase::Force, || {
                forces.fill(Vec3::ZERO);
                let fp_ro: &[f64] = fp;
                let records: &[PairRecord] = &scratch;
                let kernel = |slot: usize, i: usize, j: usize| {
                    let (d, r, dphi, df) = if slot == NO_SLOT {
                        let d = sim_box.min_image(pos[i], pos[j]);
                        let r2 = d.norm_sq();
                        if r2 >= rc2 {
                            return None;
                        }
                        let r = r2.sqrt();
                        let (_, dphi, _, df) = pot.pair_density(r);
                        (d, r, dphi, df)
                    } else {
                        let rec = records[slot];
                        if rec.r < 0.0 {
                            return None;
                        }
                        (rec.d, rec.r, rec.dphi, rec.df)
                    };
                    let scalar = dphi + (fp_ro[i] + fp_ro[j]) * df;
                    // F_i = −dE/dr · r̂, r̂ = (r_i − r_j)/r; Newton gives −F to j.
                    Some(PairTerm::newton(d * (-scalar / r)))
                };
                exec.run(strategy, forces, &kernel);
            });
        }
        *self.scratch_mut() = scratch;
        *self.timers_mut() = timers;
    }
}

/// Total EAM potential energy `Σ_i F(ρ_i) + Σ_pairs φ(r)`, using the
/// densities stored in the system by the last force computation.
pub fn eam_energy(half: &NeighborList, system: &System, pot: &dyn EamPotential) -> f64 {
    let embed: f64 = system.rho().iter().map(|&r| pot.embedding(r).0).sum();
    let rc2 = pot.cutoff() * pot.cutoff();
    let pos = system.positions();
    let sim_box = system.sim_box();
    let mut pair = 0.0;
    for (i, row) in half.csr().iter_rows() {
        for &j in row {
            let r2 = sim_box.distance_sq(pos[i], pos[j as usize]);
            if r2 < rc2 {
                pair += pot.pair(r2.sqrt()).0;
            }
        }
    }
    embed + pair
}

/// Configurational (virial) stress tensor `Σ_pairs d ⊗ f / V`, using the
/// stored embedding derivatives. Its trace/3 is the configurational part of
/// the pressure.
pub fn eam_stress(
    half: &NeighborList,
    system: &System,
    pot: &dyn EamPotential,
) -> crate::stress::StressTensor {
    let rc2 = pot.cutoff() * pot.cutoff();
    let pos = system.positions();
    let fp = system.fp();
    let sim_box = system.sim_box();
    let mut t = crate::stress::StressTensor::zero();
    for (i, row) in half.csr().iter_rows() {
        for &j in row {
            let j = j as usize;
            let d = sim_box.min_image(pos[i], pos[j]);
            let r2 = d.norm_sq();
            if r2 < rc2 {
                let r = r2.sqrt();
                let (_, dphi) = pot.pair(r);
                let (_, df) = pot.density(r);
                let scalar = dphi + (fp[i] + fp[j]) * df;
                // Force on i: f = −(scalar/r)·d; dyadic d ⊗ f.
                t.add_dyadic(d, d * (-scalar / r));
            }
        }
    }
    t.scaled(1.0 / sim_box.volume())
}

/// Pair virial `W = Σ_pairs r⃗·f⃗ = −Σ_pairs (dE/dr)·r`, using the stored
/// embedding derivatives.
///
/// Derived as `tr(σ_config)·V` from [`eam_stress`]: the trace of the dyadic
/// sum `Σ d ⊗ f` is exactly `Σ d·f`. This used to be a third hand-copy of
/// the pair kernel (which had already drifted to `distance_sq` where the
/// stress used `min_image`); sharing the tensor makes drift impossible.
pub fn eam_virial(half: &NeighborList, system: &System, pot: &dyn EamPotential) -> f64 {
    eam_stress(half, system, pot).trace() * system.sim_box().volume()
}

#[cfg(test)]
mod tests {
    use crate::forces::{ForceEngine, PotentialChoice};
    use crate::system::System;
    use crate::units::FE_MASS;
    use md_geometry::{LatticeSpec, Vec3};
    use md_potential::{AnalyticEam, EamPotential, TabulatedEam};
    use sdc_core::StrategyKind;
    use std::sync::Arc;

    fn fe_engine(n: usize, strategy: StrategyKind, threads: usize) -> (System, ForceEngine) {
        let system = System::from_lattice(LatticeSpec::bcc_fe(n), FE_MASS);
        let pot = PotentialChoice::Eam(Arc::new(AnalyticEam::fe()));
        let eng = ForceEngine::new(&system, pot, strategy, threads, 0.3).unwrap();
        (system, eng)
    }

    /// Perturb the perfect crystal deterministically so forces are non-zero.
    fn rattle(system: &mut System, amplitude: f64) {
        for (k, p) in system.positions_mut().iter_mut().enumerate() {
            let k = k as f64;
            p.x += amplitude * (0.917 * k).sin();
            p.y += amplitude * (1.311 * k).cos();
            p.z += amplitude * (2.113 * k).sin();
        }
        system.wrap();
    }

    /// Tuning probe (not part of the suite): min-of-N per-phase wall time
    /// of the fused density/force phases at the EXPERIMENTS.md size
    /// (cells = 26, 35152 atoms), SIMD vs scalar. Much lower-noise than
    /// timing whole `mdrun` processes. Run with
    /// `cargo test -q -p md-sim --release phase_speed -- --ignored --nocapture`.
    #[test]
    #[ignore]
    fn phase_speed_probe() {
        use std::time::Instant;
        let mut system = System::from_lattice(LatticeSpec::bcc_fe(26), FE_MASS);
        rattle(&mut system, 0.05);
        let src = AnalyticEam::fe();
        let tab = Arc::new(TabulatedEam::standard(&src, src.rho_e()));
        let pot = PotentialChoice::Eam(tab.clone());
        let mut eng = ForceEngine::new(&system, pot, StrategyKind::Serial, 1, 0.3).unwrap();
        eng.rebuild(&system);
        for &simd in &[false, true] {
            eng.set_simd(simd);
            eng.compute(&mut system); // warm caches + scratch
            let reps = 8;
            let (mut dmin, mut fmin) = (f64::MAX, f64::MAX);
            for _ in 0..reps {
                let t = Instant::now();
                eng.eam_density_phase_fused(&mut system, &*tab);
                let d = t.elapsed().as_secs_f64();
                let t = Instant::now();
                eng.eam_force_phase_fused(&mut system, &*tab);
                let f = t.elapsed().as_secs_f64();
                dmin = dmin.min(d);
                fmin = fmin.min(f);
            }
            eprintln!(
                "simd={simd}: density {:.2} ms  force {:.2} ms",
                dmin * 1e3,
                fmin * 1e3
            );
        }
    }

    #[test]
    fn perfect_crystal_has_zero_forces_by_symmetry() {
        let (mut system, mut eng) = fe_engine(5, StrategyKind::Serial, 1);
        eng.compute(&mut system);
        for (i, f) in system.forces().iter().enumerate() {
            assert!(f.norm() < 1e-10, "atom {i}: |F| = {}", f.norm());
        }
    }

    #[test]
    fn perfect_crystal_density_equals_shell_sum() {
        let (mut system, mut eng) = fe_engine(5, StrategyKind::Serial, 1);
        eng.compute(&mut system);
        let pot = AnalyticEam::fe();
        for (i, &rho) in system.rho().iter().enumerate() {
            assert!(
                (rho - pot.rho_e()).abs() < 1e-9,
                "atom {i}: rho = {rho}, rho_e = {}",
                pot.rho_e()
            );
        }
    }

    #[test]
    fn newtons_third_law_net_force_is_zero() {
        let (mut system, mut eng) = fe_engine(5, StrategyKind::Serial, 1);
        rattle(&mut system, 0.08);
        eng.rebuild(&system);
        eng.compute(&mut system);
        let net: Vec3 = system.forces().iter().sum();
        assert!(net.norm() < 1e-9, "net force {net}");
    }

    #[test]
    fn forces_are_minus_gradient_of_energy() {
        let (mut system, mut eng) = fe_engine(5, StrategyKind::Serial, 1);
        rattle(&mut system, 0.05);
        eng.rebuild(&system);
        eng.compute(&mut system);
        let f0 = system.forces()[7];
        // Central difference on atom 7, each axis.
        let h = 1e-6;
        for axis in 0..3 {
            let mut plus = system.clone();
            plus.positions_mut()[7][axis] += h;
            plus.wrap();
            let mut eng_p = ForceEngine::new(
                &plus,
                PotentialChoice::Eam(Arc::new(AnalyticEam::fe())),
                StrategyKind::Serial,
                1,
                0.3,
            )
            .unwrap();
            eng_p.compute(&mut plus);
            let ep = eng_p.potential_energy(&plus);

            let mut minus = system.clone();
            minus.positions_mut()[7][axis] -= h;
            minus.wrap();
            let mut eng_m = ForceEngine::new(
                &minus,
                PotentialChoice::Eam(Arc::new(AnalyticEam::fe())),
                StrategyKind::Serial,
                1,
                0.3,
            )
            .unwrap();
            eng_m.compute(&mut minus);
            let em = eng_m.potential_energy(&minus);

            let numeric = -(ep - em) / (2.0 * h);
            assert!(
                (f0[axis] - numeric).abs() < 1e-5 * f0[axis].abs().max(1.0),
                "axis {axis}: analytic {}, numeric {numeric}",
                f0[axis]
            );
        }
    }

    #[test]
    fn all_strategies_compute_identical_physics() {
        let mut reference: Option<(Vec<f64>, Vec<Vec3>)> = None;
        for strategy in StrategyKind::all() {
            let (mut system, mut eng) = fe_engine(9, strategy, 3);
            rattle(&mut system, 0.05);
            eng.rebuild(&system);
            eng.compute(&mut system);
            let rho = system.rho().to_vec();
            let forces = system.forces().to_vec();
            match &reference {
                None => reference = Some((rho, forces)),
                Some((rho_ref, f_ref)) => {
                    for (k, (a, b)) in rho_ref.iter().zip(&rho).enumerate() {
                        assert!(
                            (a - b).abs() < 1e-10 * a.abs().max(1.0),
                            "{strategy}: rho[{k}] {a} vs {b}"
                        );
                    }
                    for (k, (a, b)) in f_ref.iter().zip(&forces).enumerate() {
                        assert!(
                            (*a - *b).norm() < 1e-9,
                            "{strategy}: force[{k}] {a} vs {b}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn tabulated_eam_matches_analytic_closely() {
        let src = AnalyticEam::fe();
        let tab = TabulatedEam::standard(&src, src.rho_e());
        let mut sys_a = System::from_lattice(LatticeSpec::bcc_fe(5), FE_MASS);
        rattle(&mut sys_a, 0.05);
        let mut sys_t = sys_a.clone();
        let mut eng_a = ForceEngine::new(
            &sys_a,
            PotentialChoice::Eam(Arc::new(src)),
            StrategyKind::Serial,
            1,
            0.3,
        )
        .unwrap();
        let mut eng_t = ForceEngine::new(
            &sys_t,
            PotentialChoice::Eam(Arc::new(tab)),
            StrategyKind::Serial,
            1,
            0.3,
        )
        .unwrap();
        eng_a.compute(&mut sys_a);
        eng_t.compute(&mut sys_t);
        for (a, t) in sys_a.forces().iter().zip(sys_t.forces()) {
            assert!((*a - *t).norm() < 1e-3, "forces diverge: {a} vs {t}");
        }
        let ea = eng_a.potential_energy(&sys_a);
        let et = eng_t.potential_energy(&sys_t);
        assert!((ea - et).abs() / ea.abs() < 1e-5, "energy {ea} vs {et}");
    }

    #[test]
    fn cohesive_energy_per_atom_is_negative() {
        let (mut system, mut eng) = fe_engine(5, StrategyKind::Serial, 1);
        eng.compute(&mut system);
        let e = eng.potential_energy(&system) / system.len() as f64;
        assert!(e < -1.0, "cohesive energy {e} eV/atom");
    }

    #[test]
    fn compressed_crystal_has_positive_pressure() {
        let (mut system, mut eng) = fe_engine(5, StrategyKind::Serial, 1);
        system.deform(Vec3::splat(0.97));
        eng.rebuild(&system);
        eng.compute(&mut system);
        let p = eng.pressure(&system);
        let (mut relaxed, mut eng2) = fe_engine(5, StrategyKind::Serial, 1);
        eng2.compute(&mut relaxed);
        let p0 = eng2.pressure(&relaxed);
        assert!(
            p > p0,
            "compression must raise pressure: {p} vs {p0} (eV/Å³)"
        );
    }

    #[test]
    fn pressure_tensor_trace_matches_scalar_pressure() {
        let (mut system, mut eng) = fe_engine(5, StrategyKind::Serial, 1);
        rattle(&mut system, 0.05);
        eng.rebuild(&system);
        eng.compute(&mut system);
        let t = eng.pressure_tensor(&system);
        assert!(
            (t.pressure() - eng.pressure(&system)).abs() < 1e-10,
            "trace/3 = {}, pressure = {}",
            t.pressure(),
            eng.pressure(&system)
        );
    }

    #[test]
    fn unstrained_crystal_stress_is_isotropic() {
        let (mut system, mut eng) = fe_engine(5, StrategyKind::Serial, 1);
        eng.compute(&mut system);
        let t = eng.pressure_tensor(&system);
        let [xx, yy, zz, xy, xz, yz] = t.components;
        assert!((xx - yy).abs() < 1e-9 && (yy - zz).abs() < 1e-9);
        assert!(xy.abs() < 1e-9 && xz.abs() < 1e-9 && yz.abs() < 1e-9);
        assert!(t.von_mises() < 1e-8);
    }

    #[test]
    fn uniaxial_strain_breaks_stress_isotropy() {
        let (mut system, mut eng) = fe_engine(5, StrategyKind::Serial, 1);
        system.deform(Vec3::new(1.02, 1.0, 1.0));
        eng.rebuild(&system);
        eng.compute(&mut system);
        let t = eng.pressure_tensor(&system);
        let [xx, yy, zz, ..] = t.components;
        // Stretch along x: the x-diagonal must respond differently from y/z,
        // which stay equal by symmetry.
        assert!((yy - zz).abs() < 1e-9, "transverse symmetry");
        assert!((xx - yy).abs() > 1e-4, "xx = {xx}, yy = {yy}");
        assert!(t.von_mises() > 1e-4);
    }

    #[test]
    fn fused_path_is_bitwise_identical_to_reference_under_serial() {
        let src = AnalyticEam::fe();
        let pots: [Arc<dyn md_potential::EamPotential>; 2] = [
            Arc::new(AnalyticEam::fe()),
            Arc::new(TabulatedEam::standard(&src, src.rho_e())),
        ];
        for pot in pots {
            let mut sys_f = System::from_lattice(LatticeSpec::bcc_fe(5), FE_MASS);
            rattle(&mut sys_f, 0.05);
            let mut sys_r = sys_f.clone();
            let mut eng_f = ForceEngine::new(
                &sys_f,
                PotentialChoice::Eam(pot.clone()),
                StrategyKind::Serial,
                1,
                0.3,
            )
            .unwrap();
            let mut eng_r = ForceEngine::new(
                &sys_r,
                PotentialChoice::Eam(pot),
                StrategyKind::Serial,
                1,
                0.3,
            )
            .unwrap();
            assert!(eng_f.fused());
            eng_r.set_fused(false);
            // Two steps, so the second replays a warm scratch.
            for _ in 0..2 {
                eng_f.compute(&mut sys_f);
                eng_r.compute(&mut sys_r);
                assert_eq!(sys_f.rho(), sys_r.rho(), "densities must be bitwise equal");
                assert_eq!(sys_f.fp(), sys_r.fp(), "embedding derivs must be bitwise equal");
                assert_eq!(sys_f.forces(), sys_r.forces(), "forces must be bitwise equal");
            }
            let ef = eng_f.potential_energy(&sys_f);
            let er = eng_r.potential_energy(&sys_r);
            assert_eq!(ef, er, "energies must be bitwise equal");
        }
    }

    #[test]
    fn simd_path_is_bitwise_identical_to_scalar_fused() {
        let src = AnalyticEam::fe();
        let pots: [Arc<dyn md_potential::EamPotential>; 2] = [
            Arc::new(AnalyticEam::fe()),
            Arc::new(TabulatedEam::standard(&src, src.rho_e())),
        ];
        for pot in pots {
            for strategy in [
                StrategyKind::Serial,
                StrategyKind::Sdc { dims: 3 },
                StrategyKind::TaskGraph { dims: 3 },
            ] {
                let mut sys_v = System::from_lattice(LatticeSpec::bcc_fe(9), FE_MASS);
                rattle(&mut sys_v, 0.05);
                let mut sys_s = sys_v.clone();
                let mut eng_v = ForceEngine::new(
                    &sys_v,
                    PotentialChoice::Eam(pot.clone()),
                    strategy,
                    2,
                    0.3,
                )
                .unwrap();
                let mut eng_s = ForceEngine::new(
                    &sys_s,
                    PotentialChoice::Eam(pot.clone()),
                    strategy,
                    2,
                    0.3,
                )
                .unwrap();
                assert!(eng_v.simd(), "SIMD is the default");
                eng_s.set_simd(false);
                eng_v.rebuild(&sys_v);
                eng_s.rebuild(&sys_s);
                // Two steps, so the second replays warm scratch/clusters.
                for step in 0..2 {
                    eng_v.compute(&mut sys_v);
                    eng_s.compute(&mut sys_s);
                    assert_eq!(sys_v.rho(), sys_s.rho(), "{strategy} step {step}: rho");
                    assert_eq!(sys_v.fp(), sys_s.fp(), "{strategy} step {step}: fp");
                    assert_eq!(
                        sys_v.forces(),
                        sys_s.forces(),
                        "{strategy} step {step}: forces"
                    );
                }
                assert!(
                    eng_v.lane_occupancy().is_some_and(|o| o > 0.5 && o <= 1.0),
                    "SIMD engine must report its lane occupancy"
                );
                assert!(
                    eng_s.lane_occupancy().is_none(),
                    "scalar engine never builds clusters"
                );
            }
        }
    }

    #[test]
    fn simd_flag_is_inert_on_strategies_without_slots() {
        // SAP's sweep hands out NO_SLOT: the flag must gate itself off
        // and the physics must match the scalar fused path exactly.
        let (mut sys_v, mut eng_v) = fe_engine(7, StrategyKind::Privatized, 2);
        rattle(&mut sys_v, 0.05);
        let mut sys_s = sys_v.clone();
        let (_, mut eng_s) = fe_engine(7, StrategyKind::Privatized, 2);
        eng_s.set_simd(false);
        eng_v.rebuild(&sys_v);
        eng_s.rebuild(&sys_s);
        eng_v.compute(&mut sys_v);
        eng_s.compute(&mut sys_s);
        assert!(eng_v.lane_occupancy().is_none(), "no clusters without slots");
        for (a, b) in sys_v.forces().iter().zip(sys_s.forces()) {
            assert!((*a - *b).norm() < 1e-12);
        }
    }

    #[test]
    fn fused_path_matches_reference_under_every_strategy() {
        for strategy in StrategyKind::all() {
            let (mut sys_f, mut eng_f) = fe_engine(9, strategy, 3);
            rattle(&mut sys_f, 0.05);
            let mut sys_r = sys_f.clone();
            let (_, mut eng_r) = fe_engine(9, strategy, 3);
            eng_r.set_fused(false);
            eng_f.rebuild(&sys_f);
            eng_r.rebuild(&sys_r);
            eng_f.compute(&mut sys_f);
            eng_r.compute(&mut sys_r);
            for (k, (a, b)) in sys_r.forces().iter().zip(sys_f.forces()).enumerate() {
                assert!(
                    (*a - *b).norm() < 1e-10,
                    "{strategy}: force[{k}] {a} vs {b}"
                );
            }
            let ef = eng_f.potential_energy(&sys_f);
            let er = eng_r.potential_energy(&sys_r);
            assert!(
                (ef - er).abs() <= 1e-12 * er.abs(),
                "{strategy}: energy {ef} vs {er}"
            );
        }
    }

    #[test]
    fn virial_equals_stress_trace_times_volume() {
        let (mut system, mut eng) = fe_engine(5, StrategyKind::Serial, 1);
        rattle(&mut system, 0.05);
        eng.rebuild(&system);
        eng.compute(&mut system);
        let pot = AnalyticEam::fe();
        let w = super::eam_virial(eng.neighbor_list(), &system, &pot);
        // Independent oracle: the scalar sum −Σ (dE/dr)·r coded directly,
        // as eam_virial used to be implemented.
        let rc2 = pot.cutoff() * pot.cutoff();
        let (pos, fp, sim_box) = (system.positions(), system.fp(), system.sim_box());
        let mut expect = 0.0;
        for (i, row) in eng.neighbor_list().csr().iter_rows() {
            for &j in row {
                let j = j as usize;
                let r2 = sim_box.distance_sq(pos[i], pos[j]);
                if r2 < rc2 {
                    let r = r2.sqrt();
                    let (_, dphi) = pot.pair(r);
                    let (_, df) = pot.density(r);
                    expect -= (dphi + (fp[i] + fp[j]) * df) * r;
                }
            }
        }
        assert!(
            (w - expect).abs() <= 1e-12 * expect.abs().max(1.0),
            "tr(σ)·V = {w}, direct sum = {expect}"
        );
    }

    #[test]
    fn timers_charge_density_and_force_phases() {
        let (mut system, mut eng) = fe_engine(5, StrategyKind::Serial, 1);
        eng.compute(&mut system);
        eng.compute(&mut system);
        use crate::timing::Phase;
        assert_eq!(eng.timers().count(Phase::Density), 2);
        assert_eq!(eng.timers().count(Phase::Embedding), 2);
        assert_eq!(eng.timers().count(Phase::Force), 2);
        assert!(eng.timers().paper_time() > std::time::Duration::ZERO);
    }
}
