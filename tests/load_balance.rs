//! Non-uniform-density conformance and load-balance suite.
//!
//! The paper's benchmark crystals are uniform, so equal-volume subdomains
//! carry equal work and the SDC color barriers cost little. These tests
//! build the workloads that *break* that assumption — a carved spherical
//! void and an impact-heated cluster — and check two things:
//!
//! 1. **Conformance**: every strategy, balanced or not, at 1/2/4/8 threads,
//!    agrees with the serial oracle to ≤ 1e-10 per force component. The
//!    balancer may change the decomposition; it must never change physics.
//! 2. **Balance**: on the skewed pair distribution, LPT packing provably
//!    lowers the predicted thread imbalance versus in-order chunking, and
//!    the plan search never returns a plan with a worse predicted makespan
//!    than the default uncapped decomposition.

use md_geometry::{LatticeSpec, Vec3};
use md_neighbor::{NeighborList, VerletConfig};
use md_potential::AnalyticEam;
use md_sim::{BalanceConfig, PotentialChoice, Simulation, StrategyKind, System};
use sdc_core::schedule::{self, ColorSchedule, MakespanParams};
use sdc_core::{DecompositionConfig, SdcPlan};
use std::sync::Arc;

const FE_MASS: f64 = 55.845;
const CUTOFF: f64 = 5.67;
const SKIN: f64 = 0.3;
const RANGE: f64 = CUTOFF + SKIN;

/// A bcc iron crystal with a spherical void carved out of one octant —
/// the subdomains overlapping the void hold far fewer pairs than the rest.
fn void_system(cells: usize) -> System {
    let (bx, pos) = LatticeSpec::bcc_fe(cells).build();
    let l = bx.lengths();
    let center = Vec3::new(l.x * 0.25, l.y * 0.25, l.z * 0.25);
    let radius = l.x * 0.2;
    let kept: Vec<Vec3> = pos
        .into_iter()
        .filter(|p| (*p - center).norm() > radius)
        .collect();
    System::new(bx, kept, FE_MASS)
}

fn forces_of(system: &System, strategy: StrategyKind, threads: usize, balance: bool) -> Vec<Vec3> {
    let sim = Simulation::from_system(system.clone())
        .potential_choice(PotentialChoice::Eam(Arc::new(AnalyticEam::fe())))
        .strategy(strategy)
        .threads(threads)
        .balance(balance)
        .build()
        .expect("build");
    sim.system().forces().to_vec()
}

fn assert_forces_match(reference: &[Vec3], got: &[Vec3], what: &str) {
    assert_eq!(reference.len(), got.len(), "{what}: atom count");
    for (i, (a, b)) in reference.iter().zip(got).enumerate() {
        for d in 0..3 {
            assert!(
                (a[d] - b[d]).abs() <= 1e-10,
                "{what}: atom {i} component {d}: {} vs {}",
                a[d],
                b[d]
            );
        }
    }
}

#[test]
fn every_strategy_matches_serial_on_the_carved_void() {
    let system = void_system(9);
    let reference = forces_of(&system, StrategyKind::Serial, 1, false);
    let strategies = [
        StrategyKind::Sdc { dims: 1 },
        StrategyKind::Sdc { dims: 2 },
        StrategyKind::Sdc { dims: 3 },
        StrategyKind::TaskGraph { dims: 1 },
        StrategyKind::TaskGraph { dims: 2 },
        StrategyKind::TaskGraph { dims: 3 },
        StrategyKind::Critical,
        StrategyKind::Privatized,
        StrategyKind::Redundant,
    ];
    for threads in [1usize, 2, 4, 8] {
        for strategy in strategies {
            let got = forces_of(&system, strategy, threads, false);
            assert_forces_match(&reference, &got, &format!("{strategy} t{threads}"));
        }
        // Balanced SDC: the search may move to a different dims — physics
        // must not move with it.
        for dims in [1usize, 2, 3] {
            let got = forces_of(&system, StrategyKind::Sdc { dims }, threads, true);
            assert_forces_match(
                &reference,
                &got,
                &format!("balanced sdc{dims}d t{threads}"),
            );
        }
    }
}

#[test]
fn balanced_trajectory_tracks_serial_through_an_impact_heated_cluster() {
    // Heat a spherical cluster to provoke drift, rebuilds and (possibly)
    // mid-run re-planning; the balanced SDC trajectory must stay within
    // 1e-10 of the serial one after several steps.
    let build = |strategy: StrategyKind, threads: usize, balance: bool| {
        let mut sim = Simulation::from_system(void_system(9))
            .potential_choice(PotentialChoice::Eam(Arc::new(AnalyticEam::fe())))
            .strategy(strategy)
            .threads(threads)
            .temperature(300.0)
            .seed(23)
            .metrics(balance)
            .balance(balance)
            .build()
            .expect("build");
        // Impact: quadruple the velocities inside a cluster near the origin.
        let l = sim.system().sim_box().lengths();
        let center = Vec3::new(l.x * 0.75, l.y * 0.75, l.z * 0.75);
        let radius = l.x * 0.15;
        let positions = sim.system().positions().to_vec();
        for (i, p) in positions.iter().enumerate() {
            if (*p - center).norm() < radius {
                sim.system_mut().velocities_mut()[i] *= 4.0;
            }
        }
        sim.refresh_forces();
        sim.run(5);
        sim
    };
    let reference = build(StrategyKind::Serial, 1, false);
    for threads in [2usize, 4] {
        let balanced = build(StrategyKind::Sdc { dims: 3 }, threads, true);
        for (i, (a, b)) in reference
            .system()
            .positions()
            .iter()
            .zip(balanced.system().positions())
            .enumerate()
        {
            assert!(
                (*a - *b).norm() <= 1e-10,
                "t{threads}: atom {i} diverged: {a} vs {b}"
            );
        }
        // The balancer stayed live through the rebuilds the impact caused.
        assert!(balanced.engine().plan_choice().is_some());
    }
}

#[test]
fn lpt_packing_lowers_the_predicted_imbalance_on_the_void() {
    // bcc_fe(17) fits 4 subdomains per axis (48.7 Å ≥ 4·2·5.97), so a 1-D
    // or 2-D decomposition has ≥ 2 tasks per color and ordering matters.
    let system = void_system(17);
    let nl = NeighborList::build(
        system.sim_box(),
        system.positions(),
        VerletConfig::half(CUTOFF, SKIN),
    );
    let plan = SdcPlan::build(
        system.sim_box(),
        system.positions(),
        DecompositionConfig::new(2, RANGE),
    )
    .expect("bcc_fe(17) hosts a 2-D split");
    let costs: Vec<f64> = plan
        .pair_counts(nl.csr())
        .iter()
        .map(|&c| c as f64)
        .collect();
    // The void skews per-subdomain pair counts noticeably.
    let max = costs.iter().cloned().fold(0.0, f64::max);
    let mean = costs.iter().sum::<f64>() / costs.len() as f64;
    assert!(max / mean > 1.05, "void produced no skew: {}", max / mean);

    for threads in [2usize, 4, 8] {
        let mut worst_gain: f64 = f64::INFINITY;
        for color in 0..plan.decomposition().color_count() {
            let ids = plan.decomposition().of_color(color);
            if ids.len() < 2 {
                continue;
            }
            let in_order = schedule::imbalance_of(&schedule::chunked_loads(ids, &costs, threads));
            let packed = schedule::imbalance_of(&schedule::packed_loads(
                &schedule::lpt_order(ids, &costs),
                &costs,
                threads,
            ));
            assert!(
                packed <= in_order + 1e-12,
                "t{threads} color {color}: LPT {packed} worse than in-order {in_order}"
            );
            worst_gain = worst_gain.min(in_order - packed);
        }
        assert!(worst_gain.is_finite(), "no color had multiple tasks");
    }

    // While tasks ≥ threads, the thread-aware imbalance never exceeds the
    // per-task one (with more threads than tasks, empty bins legitimately
    // inflate the max/mean ratio — that regime stays ≥ 1 but uncomparable).
    let threaded = plan.imbalance_threaded(nl.csr(), 2);
    assert!(threaded >= 1.0);
    assert!(threaded <= plan.imbalance(nl.csr()) + 1e-12);
    assert!(plan.imbalance_threaded(nl.csr(), 8) >= 1.0);
}

#[test]
fn plan_search_never_predicts_worse_than_the_default_decomposition() {
    let system = void_system(17);
    let nl = NeighborList::build(
        system.sim_box(),
        system.positions(),
        VerletConfig::half(CUTOFF, SKIN),
    );
    let machine = BalanceConfig::default().machine;
    for threads in [1usize, 2, 4, 8] {
        let params: MakespanParams = md_perfmodel::makespan_params(&machine, threads);
        let best = schedule::search_plans(
            system.sim_box(),
            system.positions(),
            nl.csr(),
            RANGE,
            &[1, 2, 3],
            threads,
            &params,
        )
        .expect("feasible");
        // Baseline: the uncapped 3-D decomposition mdrun defaults to.
        let default_plan = SdcPlan::build(
            system.sim_box(),
            system.positions(),
            DecompositionConfig::new(3, RANGE),
        )
        .unwrap();
        let costs: Vec<f64> = default_plan
            .pair_counts(nl.csr())
            .iter()
            .map(|&c| c as f64)
            .collect();
        let default_schedule = ColorSchedule::lpt(default_plan.decomposition(), &costs, threads);
        assert!(
            best.choice.predicted_seconds <= default_schedule.predicted_seconds(&params) + 1e-15,
            "t{threads}: search {} worse than default {}",
            best.choice.predicted_seconds,
            default_schedule.predicted_seconds(&params)
        );
        assert!(best.plan.schedule().is_some(), "winner carries its schedule");
        assert!(best.choice.predicted_imbalance >= 1.0);
    }
}
