//! Conformance, determinism and soak battery for the task-graph scatter
//! engine (the barrier-free execution of the SDC plan).
//!
//! Three layers:
//!
//! 1. **DAG safety/liveness (property tests)**: on random atom clouds and
//!    decomposition dimensionalities, the dependency graph (a) has exactly
//!    the edges a brute-force periodic halo-overlap oracle predicts, (b)
//!    never leaves two tasks with overlapping write footprints unordered,
//!    and (c) lets every task become runnable (Kahn's algorithm drains it).
//! 2. **Determinism battery**: taskgraph trajectories are bitwise-identical
//!    across thread counts and repeated runs, and bitwise-equal to the
//!    barriered SDC reference on the melt, carved-void and impact-cluster
//!    workloads at 1, 2, 4 and 8 threads: the DAG's edges climb colors, so
//!    every output element receives its contributions in the barriered
//!    sweep's color order. Both stay within 1e-10 of the serial oracle.
//! 3. **Stress/soak**: a 500-step melt with mid-run rebuilds and a
//!    hair-trigger rebalance threshold loses no task completions, and the
//!    balancer calibrates its pair cost from the graph's task sweeps.

use md_geometry::{LatticeSpec, SimBox, Vec3};
use md_neighbor::{NeighborList, VerletConfig};
use md_potential::AnalyticEam;
use md_sim::{BalanceConfig, PotentialChoice, Simulation, StrategyKind, System};
use proptest::prelude::*;
use sdc_core::{DecompositionConfig, SdcPlan, TaskGraph};
use std::sync::Arc;

const FE_MASS: f64 = 55.845;

/// The carved-void workload of `tests/load_balance.rs`: a bcc iron crystal
/// with a sphere of radius 0.2·L removed from one octant.
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

fn fe() -> PotentialChoice {
    PotentialChoice::Eam(Arc::new(AnalyticEam::fe()))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn dag_matches_the_halo_overlap_oracle_and_is_safe_and_live(
        seed in 0u64..500,
        n_atoms in 50usize..150,
        l in 24.0..40.0f64,
        dims in 1usize..4,
    ) {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let b = SimBox::cubic(l);
        let pos: Vec<Vec3> = (0..n_atoms)
            .map(|_| Vec3::new(rng.gen::<f64>() * l, rng.gen::<f64>() * l, rng.gen::<f64>() * l))
            .collect();
        let (cutoff, skin) = (3.0, 0.5);
        let range = cutoff + skin;
        let nl = NeighborList::build(&b, &pos, VerletConfig::half(cutoff, skin));
        let plan = SdcPlan::build(&b, &pos, DecompositionConfig::new(dims, range)).unwrap();
        let d = plan.decomposition();
        let graph = TaskGraph::build(d, &b);
        let n = d.subdomain_count();
        prop_assert_eq!(graph.task_count(), n);

        // (a) Edge oracle: a conflict edge exists iff the two subdomains'
        // range-expanded AABBs intersect under periodic wrap — the same
        // predicate that defines SDC color safety — and it points from the
        // lower to the higher color.
        let mut expected_edges = 0usize;
        for a in 0..n {
            for c in (a + 1)..n {
                let overlap = d
                    .aabb(a)
                    .expanded(range)
                    .intersects_periodic(&d.aabb(c).expanded(range), &b);
                let (lo, hi) = if d.color_of(a) < d.color_of(c) { (a, c) } else { (c, a) };
                prop_assert_eq!(
                    graph.has_edge(lo, hi),
                    overlap,
                    "tasks {} and {}: edge vs oracle mismatch", lo, hi
                );
                prop_assert!(!graph.has_edge(hi, lo), "edge {}→{} descends a color", hi, lo);
                if overlap {
                    expected_edges += 1;
                }
            }
        }
        prop_assert_eq!(graph.edge_count(), expected_edges);
        // Colors are the DAG's levels: no path holds two tasks of a color.
        let cp = graph.critical_path_units(&vec![1.0; n]);
        prop_assert!(cp <= d.color_count() as f64, "critical path {} > {} colors", cp, d.color_count());

        // (b) Safety: tasks left unordered by the DAG must have disjoint
        // write footprints on the *real* neighbor rows, so no interleaving
        // of runnable tasks can race on an output element.
        graph
            .validate_independence(&plan, nl.csr())
            .map_err(TestCaseError::fail)?;

        // (c) Liveness: Kahn's algorithm drains the whole graph — every
        // task becomes runnable exactly once, no deadlock or starvation.
        let mut indeg = graph.indegree().to_vec();
        let mut ready: Vec<usize> = (0..n).filter(|&t| indeg[t] == 0).collect();
        prop_assert!(!ready.is_empty() || n == 0, "nothing is initially runnable");
        let mut done = 0usize;
        while let Some(t) = ready.pop() {
            done += 1;
            for &dep in graph.dependents_of(t) {
                indeg[dep as usize] -= 1;
                if indeg[dep as usize] == 0 {
                    ready.push(dep as usize);
                }
            }
        }
        prop_assert_eq!(done, n, "some task never became runnable");
    }
}

fn taskgraph_trajectory(
    system: &System,
    dims: usize,
    threads: usize,
    steps: usize,
) -> (Vec<Vec3>, Vec<Vec3>) {
    let mut sim = Simulation::from_system(system.clone())
        .potential_choice(fe())
        .strategy(StrategyKind::TaskGraph { dims })
        .threads(threads)
        .temperature(300.0)
        .seed(23)
        .build()
        .expect("build");
    assert_eq!(
        sim.engine().strategy(),
        StrategyKind::TaskGraph { dims },
        "taskgraph must not have downgraded"
    );
    sim.run(steps);
    (
        sim.system().positions().to_vec(),
        sim.system().velocities().to_vec(),
    )
}

#[test]
fn taskgraph_trajectories_are_bitwise_identical_across_thread_counts() {
    // The accumulation order is fixed by the conflict DAG (ascending color
    // between every overlapping pair), so the trajectory must not depend
    // on the worker count or on scheduling noise between repeated runs.
    let system = void_system(9);
    for dims in [2usize, 3] {
        let reference = taskgraph_trajectory(&system, dims, 1, 3);
        for threads in [2usize, 4, 8] {
            let got = taskgraph_trajectory(&system, dims, threads, 3);
            assert_eq!(reference.0, got.0, "positions differ at t{threads} d{dims}");
            assert_eq!(reference.1, got.1, "velocities differ at t{threads} d{dims}");
        }
        // Repeated runs at the same thread count: scheduling noise between
        // runs must not leak into the physics either.
        let again = taskgraph_trajectory(&system, dims, 4, 3);
        assert_eq!(reference.0, again.0, "repeat run diverged at d{dims}");
    }
}

#[derive(Clone, Copy, Debug)]
enum Workload {
    Melt,
    Void,
    Impact,
}

/// 17 cells is the smallest bcc Fe box whose 3-D decomposition holds more
/// than one subdomain per color (4 per axis, 64 tasks over 8 colors), so
/// same-color tasks really run side by side.
const BATTERY_CELLS: usize = 17;

/// The battery workloads: a 3000 K bulk melt, the carved void at 300 K,
/// and the void with a cluster struck to four times its thermal velocity.
fn battery_sim(workload: Workload, strategy: StrategyKind, threads: usize) -> Simulation {
    let (system, temperature) = match workload {
        Workload::Melt => {
            let (bx, pos) = LatticeSpec::bcc_fe(BATTERY_CELLS).build();
            (System::new(bx, pos, FE_MASS), 3000.0)
        }
        Workload::Void | Workload::Impact => (void_system(BATTERY_CELLS), 300.0),
    };
    let mut sim = Simulation::from_system(system)
        .potential_choice(fe())
        .strategy(strategy)
        .threads(threads)
        .temperature(temperature)
        .seed(23)
        .build()
        .expect("build");
    assert_eq!(sim.engine().strategy(), strategy, "{workload:?}: strategy downgraded");
    if let Some(plan) = sim.engine().plan() {
        assert!(
            plan.decomposition().subdomains_per_color() > 1,
            "{workload:?}: one subdomain per color leaves nothing to run side by side"
        );
    }
    if let Workload::Impact = workload {
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
    }
    sim.run(5);
    sim
}

fn bits(vs: &[Vec3]) -> Vec<[u64; 3]> {
    vs.iter()
        .map(|v| [v.x.to_bits(), v.y.to_bits(), v.z.to_bits()])
        .collect()
}

#[test]
fn taskgraph_equals_barriered_sdc_bitwise_on_melt_void_and_impact() {
    for workload in [Workload::Melt, Workload::Void, Workload::Impact] {
        let serial = battery_sim(workload, StrategyKind::Serial, 1);
        for threads in [1usize, 2, 4, 8] {
            let sdc = battery_sim(workload, StrategyKind::Sdc { dims: 3 }, threads);
            let graph = battery_sim(workload, StrategyKind::TaskGraph { dims: 3 }, threads);
            let what = format!("{workload:?} t{threads}");
            assert_eq!(
                bits(sdc.system().positions()),
                bits(graph.system().positions()),
                "{what}: taskgraph positions differ from barriered SDC"
            );
            assert_eq!(
                bits(sdc.system().velocities()),
                bits(graph.system().velocities()),
                "{what}: taskgraph velocities differ from barriered SDC"
            );
            for (i, (a, b)) in serial
                .system()
                .positions()
                .iter()
                .zip(graph.system().positions())
                .enumerate()
            {
                assert!(
                    (*a - *b).norm() <= 1e-10,
                    "{what}: atom {i} diverged from serial: {a} vs {b}"
                );
            }
        }
    }
}

#[test]
fn five_hundred_step_melt_loses_no_task_completions() {
    // Hot enough to force many neighbor rebuilds; the hair-trigger replan
    // threshold makes the balancer re-search at essentially every rebuild.
    let mut sim = Simulation::from_system(void_system(9))
        .potential_choice(fe())
        .strategy(StrategyKind::TaskGraph { dims: 3 })
        .threads(4)
        .temperature(1800.0)
        .seed(11)
        .metrics(true)
        .balance_config(BalanceConfig {
            replan_threshold: 1.01,
            ..BalanceConfig::default()
        })
        .build()
        .expect("build");
    assert!(sim.engine().downgrades().is_empty(), "unexpected downgrade");

    // build() ran one initial force compute under the post-balance plan.
    let tasks_per_compute = |sim: &Simulation| -> u64 {
        match sim.engine().strategy() {
            StrategyKind::TaskGraph { .. } => {
                let subdomains = sim
                    .engine()
                    .plan()
                    .expect("taskgraph keeps a plan")
                    .decomposition()
                    .subdomain_count() as u64;
                2 * subdomains // density + force sweeps
            }
            _ => 0,
        }
    };
    let mut expected = tasks_per_compute(&sim);
    for _ in 0..500 {
        sim.step();
        // Reading the engine *after* the step sees exactly the plan the
        // step's compute ran under (rebuilds happen before the compute).
        expected += tasks_per_compute(&sim);
    }
    let m = sim.metrics().expect("metrics on");
    assert_eq!(
        m.scatter.tasks.get(),
        expected,
        "task completions lost or duplicated across {} rebuilds",
        sim.engine().rebuilds()
    );
    assert_eq!(
        m.scatter.ready_latency.count(),
        expected,
        "ready-latency histogram missed tasks"
    );
    assert_eq!(m.scatter.color_barriers.get(), 0, "no color barriers may run");
    assert!(
        sim.engine().rebuilds() >= 3,
        "melt produced too few rebuilds ({}) to stress the graph rebuild path",
        sim.engine().rebuilds()
    );
    // The balancer stayed live throughout, and any rebalance it adopted
    // moved between plan-backed strategies only.
    assert!(sim.engine().plan_choice().is_some());
    // The graph's task sweeps fed the pair-cost calibration at the rebuilds.
    assert_ne!(
        sim.engine().calibrated_pair_cost(),
        Some(BalanceConfig::default().machine.pair_cost),
        "the balancer never calibrated under the task graph"
    );
    for ev in sim.rebalances() {
        assert!(ev.from.plan_dims().is_some() && ev.to.plan_dims().is_some());
    }
    // Physics stayed finite through the melt.
    assert!(sim
        .system()
        .forces()
        .iter()
        .all(|f| f.norm().is_finite()));
}
