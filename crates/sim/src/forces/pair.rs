//! Single-phase pair-potential forces.
//!
//! The paper's intro contrasts EAM against exactly this class ("pair-wise
//! potential method … only involves one computational phase"), and its
//! conclusion claims SDC "can be applied in MD simulations with other
//! potentials" — this module demonstrates that: the force loop is the same
//! irregular reduction, routed through the same strategies.

use crate::forces::ForceEngine;
use crate::system::System;
use crate::timing::Phase;
use md_geometry::Vec3;
use md_neighbor::NeighborList;
use md_potential::PairPotential;
use sdc_core::PairTerm;

impl ForceEngine {
    pub(crate) fn compute_pair(&mut self, system: &mut System, pot: &dyn PairPotential) {
        let rc2 = pot.cutoff() * pot.cutoff();
        let strategy = self.strategy();
        let mut timers = std::mem::take(self.timers_mut());
        {
            let exec = self.exec();
            let (sim_box, pos, _rho, _fp, forces) = system.eam_split_mut();
            timers.time(Phase::Force, || {
                forces.fill(Vec3::ZERO);
                let kernel = |_: usize, i: usize, j: usize| {
                    let d = sim_box.min_image(pos[i], pos[j]);
                    let r2 = d.norm_sq();
                    if r2 >= rc2 {
                        return None;
                    }
                    let r = r2.sqrt();
                    let (_, dv) = pot.energy_deriv(r);
                    Some(PairTerm::newton(d * (-dv / r)))
                };
                exec.run(strategy, forces, &kernel);
            });
        }
        *self.timers_mut() = timers;
    }
}

/// Total pair potential energy `Σ_pairs V(r)`.
pub fn pair_energy(half: &NeighborList, system: &System, pot: &dyn PairPotential) -> f64 {
    let rc2 = pot.cutoff() * pot.cutoff();
    let pos = system.positions();
    let sim_box = system.sim_box();
    let mut e = 0.0;
    for (i, row) in half.csr().iter_rows() {
        for &j in row {
            let r2 = sim_box.distance_sq(pos[i], pos[j as usize]);
            if r2 < rc2 {
                e += pot.energy(r2.sqrt());
            }
        }
    }
    e
}

/// Configurational (virial) stress tensor for a pair potential.
pub fn pair_stress(
    half: &NeighborList,
    system: &System,
    pot: &dyn PairPotential,
) -> crate::stress::StressTensor {
    let rc2 = pot.cutoff() * pot.cutoff();
    let pos = system.positions();
    let sim_box = system.sim_box();
    let mut t = crate::stress::StressTensor::zero();
    for (i, row) in half.csr().iter_rows() {
        for &j in row {
            let d = sim_box.min_image(pos[i], pos[j as usize]);
            let r2 = d.norm_sq();
            if r2 < rc2 {
                let r = r2.sqrt();
                let (_, dv) = pot.energy_deriv(r);
                t.add_dyadic(d, d * (-dv / r));
            }
        }
    }
    t.scaled(1.0 / sim_box.volume())
}

/// Pair virial `W = −Σ_pairs V'(r)·r`.
pub fn pair_virial(half: &NeighborList, system: &System, pot: &dyn PairPotential) -> f64 {
    let rc2 = pot.cutoff() * pot.cutoff();
    let pos = system.positions();
    let sim_box = system.sim_box();
    let mut w = 0.0;
    for (i, row) in half.csr().iter_rows() {
        for &j in row {
            let r2 = sim_box.distance_sq(pos[i], pos[j as usize]);
            if r2 < rc2 {
                let r = r2.sqrt();
                w -= pot.energy_deriv(r).1 * r;
            }
        }
    }
    w
}

#[cfg(test)]
mod tests {
    use crate::forces::{ForceEngine, PotentialChoice};
    use crate::system::System;
    use md_geometry::{Lattice, LatticeSpec, Vec3};
    use md_potential::LennardJones;
    use sdc_core::StrategyKind;
    use std::sync::Arc;

    /// An FCC LJ crystal near its equilibrium spacing.
    fn lj_system() -> (System, PotentialChoice) {
        // LJ equilibrium FCC lattice constant ≈ 1.5496 σ for σ = 1.
        let spec = LatticeSpec::new(Lattice::Fcc, 1.5496, [8, 8, 8]);
        let system = System::new(spec.sim_box(), spec.generate(), 1.0);
        let pot = PotentialChoice::Pair(Arc::new(LennardJones::reduced(1.0, 1.0)));
        (system, pot)
    }

    #[test]
    fn perfect_fcc_has_zero_forces() {
        let (mut system, pot) = lj_system();
        let mut eng = ForceEngine::new(&system, pot, StrategyKind::Serial, 1, 0.1).unwrap();
        eng.compute(&mut system);
        for f in system.forces() {
            assert!(f.norm() < 1e-10, "|F| = {}", f.norm());
        }
    }

    #[test]
    fn strategies_agree_for_pair_potentials_too() {
        let (mut base, pot) = lj_system();
        // Rattle deterministically.
        for (k, p) in base.positions_mut().iter_mut().enumerate() {
            p.x += 0.02 * (0.7 * k as f64).sin();
            p.y += 0.02 * (1.3 * k as f64).cos();
        }
        base.wrap();
        let mut reference: Option<Vec<Vec3>> = None;
        for strategy in [
            StrategyKind::Serial,
            StrategyKind::Sdc { dims: 2 },
            StrategyKind::Privatized,
            StrategyKind::Redundant,
        ] {
            let mut system = base.clone();
            let mut eng =
                ForceEngine::new(&system, pot.clone(), strategy, 2, 0.1).unwrap();
            eng.compute(&mut system);
            match &reference {
                None => reference = Some(system.forces().to_vec()),
                Some(f_ref) => {
                    for (k, (a, b)) in f_ref.iter().zip(system.forces()).enumerate() {
                        assert!(
                            (*a - *b).norm() < 1e-10,
                            "{strategy}: force[{k}] {a} vs {b}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn lj_forces_match_numeric_gradient() {
        let (mut system, pot) = lj_system();
        for (k, p) in system.positions_mut().iter_mut().enumerate() {
            p.z += 0.03 * (2.1 * k as f64).sin();
        }
        system.wrap();
        let mut eng = ForceEngine::new(&system, pot.clone(), StrategyKind::Serial, 1, 0.1).unwrap();
        eng.compute(&mut system);
        let f0 = system.forces()[11];
        let h = 1e-6;
        for axis in 0..3 {
            let energy_at = |delta: f64| {
                let mut s = system.clone();
                s.positions_mut()[11][axis] += delta;
                s.wrap();
                let mut e = ForceEngine::new(&s, pot.clone(), StrategyKind::Serial, 1, 0.1).unwrap();
                e.compute(&mut s);
                e.potential_energy(&s)
            };
            let numeric = -(energy_at(h) - energy_at(-h)) / (2.0 * h);
            assert!(
                (f0[axis] - numeric).abs() < 1e-5 * f0[axis].abs().max(1.0),
                "axis {axis}: {} vs {numeric}",
                f0[axis]
            );
        }
    }

    #[test]
    fn lj_cohesive_energy_is_negative() {
        let (mut system, pot) = lj_system();
        let mut eng = ForceEngine::new(&system, pot, StrategyKind::Serial, 1, 0.1).unwrap();
        eng.compute(&mut system);
        let e = eng.potential_energy(&system) / system.len() as f64;
        // FCC LJ cohesive energy ≈ −8.6 ε per atom at r_min spacing
        // (−8.61 for the full lattice sum; truncated at 2.5 σ it is ≈ −8.0).
        assert!(e < -6.0 && e > -9.0, "e = {e}");
    }

    #[test]
    fn expanded_lj_crystal_is_under_tension() {
        let (mut system, pot) = lj_system();
        let mut eng = ForceEngine::new(&system, pot.clone(), StrategyKind::Serial, 1, 0.1).unwrap();
        system.deform(Vec3::splat(1.05));
        eng.rebuild(&system);
        eng.compute(&mut system);
        assert!(
            eng.virial(&system) < 0.0,
            "stretched crystal must pull inward"
        );
    }
}
