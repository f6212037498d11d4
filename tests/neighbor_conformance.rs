//! Conformance suite for the neighbor-list builders.
//!
//! The contract under test: [`NeighborList::build`] and
//! [`NeighborList::build_parallel`] at every thread count produce **the
//! same bytes** as the O(n²) [`NeighborList::build_brute_force`] reference
//! — same CSR `offsets`, same `indices`, rows ascending — for both list
//! kinds, on cubic and non-cubic boxes, on boxes of 2 and 3 cells per axis
//! (where the wrapped stencil repeats cells and must be deduplicated), and
//! on a box with an open axis and atoms past its faces. The two builders
//! share one row kernel, so each is pinned to the reference rather than
//! to the other. Plus the end-to-end skin invariant: between rebuilds, no
//! pair inside the bare cutoff is ever absent from the active list.

use proptest::prelude::*;
use sdc_md::core::ParallelContext;
use sdc_md::prelude::*;
use std::sync::OnceLock;

/// Shared thread pools — building a pool per proptest case is wasteful and
/// (on the sweep's larger clouds) would dominate the run time.
fn ctx(threads: usize) -> &'static ParallelContext {
    static POOLS: OnceLock<Vec<ParallelContext>> = OnceLock::new();
    let pools = POOLS.get_or_init(|| {
        [1usize, 2, 4, 8]
            .into_iter()
            .map(ParallelContext::new)
            .collect()
    });
    match threads {
        1 => &pools[0],
        2 => &pools[1],
        4 => &pools[2],
        8 => &pools[3],
        other => panic!("no shared pool for {other} threads"),
    }
}

fn random_cloud(seed: u64, n: usize, l: f64) -> Vec<Vec3> {
    use rand::{Rng, SeedableRng};
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| Vec3::new(rng.gen::<f64>() * l, rng.gen::<f64>() * l, rng.gen::<f64>() * l))
        .collect()
}

/// The box shapes the builders must handle.
#[derive(Debug, Clone, Copy)]
enum Shape {
    Cubic,
    /// Edges `l`, `l·(0.6 + 0.8·f.1)` and `l·(0.6 + 0.8·f.2)`.
    NonCubic,
    /// Edges `reach·(k + 0.01 + 0.98·f)`, so the grid has `k` cells per
    /// axis and the 27-cell stencil wraps onto itself.
    Cells(usize),
    /// Periodic x and y, open z, with atoms up to 2 Å past both z faces.
    OpenZ,
}

const SHAPES: [Shape; 5] = [
    Shape::Cubic,
    Shape::NonCubic,
    Shape::Cells(2),
    Shape::Cells(3),
    Shape::OpenZ,
];

/// A box of `shape` with `n` atoms scattered in it: inside the primary
/// image along the periodic axes, overhanging the open one.
fn scene(
    shape: Shape,
    seed: u64,
    n: usize,
    l: f64,
    reach: f64,
    f: (f64, f64, f64),
) -> (SimBox, Vec<Vec3>) {
    let edge = |k: usize, x: f64| reach * (k as f64 + 0.01 + 0.98 * x);
    let (sim_box, overhang) = match shape {
        Shape::Cubic => (SimBox::cubic(l), 0.0),
        Shape::NonCubic => {
            let lengths = Vec3::new(l, l * (0.6 + 0.8 * f.1), l * (0.6 + 0.8 * f.2));
            (SimBox::periodic(lengths), 0.0)
        }
        Shape::Cells(k) => {
            let lengths = Vec3::new(edge(k, f.0), edge(k, f.1), edge(k, f.2));
            (SimBox::periodic(lengths), 0.0)
        }
        Shape::OpenZ => {
            let open_z = SimBox::with_periodicity(Vec3::splat(l), [true, true, false]);
            (open_z, 2.0)
        }
    };
    let len = sim_box.lengths();
    let pos = random_cloud(seed, n, 1.0)
        .into_iter()
        .map(|u| {
            let z = u.z * (len.z + 2.0 * overhang) - overhang;
            Vec3::new(u.x * len.x, u.y * len.y, z)
        })
        .collect();
    (sim_box, pos)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Small random clouds in every box shape: the serial build and the
    /// parallel build at each tested thread count must equal the brute
    /// force byte for byte.
    #[test]
    fn parallel_build_conforms_on_random_clouds(
        seed in 0u64..10_000,
        n in 64usize..320,
        l in 16.0..36.0f64,
        cutoff in 3.0..6.0f64,
        skin in 0.0..0.8f64,
        half in proptest::bool::ANY,
        shape in 0usize..SHAPES.len(),
        f in (0.0..1.0f64, 0.0..1.0f64, 0.0..1.0f64),
    ) {
        let shape = SHAPES[shape];
        let reach = cutoff + skin;
        let (b, pos) = scene(shape, seed, n, l, reach, f);
        prop_assume!(b.validate_cutoff(reach).is_ok());
        if let Shape::Cells(k) = shape {
            prop_assert_eq!(CellGrid::build(&b, &pos, reach).dims(), [k; 3]);
        }
        let cfg = if half {
            VerletConfig::half(cutoff, skin)
        } else {
            VerletConfig::full(cutoff, skin)
        };
        let brute = NeighborList::build_brute_force(&b, &pos, cfg);
        let serial = NeighborList::build(&b, &pos, cfg);
        prop_assert_eq!(
            brute.csr().offsets(), serial.csr().offsets(),
            "serial offsets diverged on {:?}", shape
        );
        prop_assert_eq!(
            brute.csr().indices(), serial.csr().indices(),
            "serial indices diverged on {:?}", shape
        );
        for threads in [1usize, 2, 4, 8] {
            let parallel =
                ctx(threads).install(|| NeighborList::build_parallel(&b, &pos, cfg));
            prop_assert_eq!(
                brute.csr().offsets(), parallel.csr().offsets(),
                "offsets diverged at {} threads on {:?}", threads, shape
            );
            prop_assert_eq!(
                brute.csr().indices(), parallel.csr().indices(),
                "indices diverged at {} threads on {:?}", threads, shape
            );
        }
    }

    /// Clouds past the parallel binning threshold (the chunked counting
    /// sort starts at 2048 atoms): still byte-equal to the brute force.
    #[test]
    fn parallel_build_is_bitwise_identical_on_large_clouds(
        seed in 0u64..10_000,
        n in 2_100usize..2_600,
        half in proptest::bool::ANY,
    ) {
        let l = 40.0;
        let b = SimBox::cubic(l);
        let pos = random_cloud(seed, n, l);
        let cfg = if half {
            VerletConfig::half(5.0, 0.5)
        } else {
            VerletConfig::full(5.0, 0.5)
        };
        let brute = NeighborList::build_brute_force(&b, &pos, cfg);
        for threads in [2usize, 4, 8] {
            let parallel =
                ctx(threads).install(|| NeighborList::build_parallel(&b, &pos, cfg));
            prop_assert_eq!(brute.csr().offsets(), parallel.csr().offsets());
            prop_assert_eq!(brute.csr().indices(), parallel.csr().indices());
        }
    }
}

/// End-to-end skin invariant (the `skin/2` rebuild trigger): at every step
/// of an EAM melt, every pair currently inside the *bare* cutoff must be
/// present in the active (possibly stale) half list — otherwise forces
/// would silently drop interactions between rebuilds.
#[test]
fn no_in_cutoff_pair_is_ever_missing_between_rebuilds() {
    let cutoff = AnalyticEam::fe().cutoff();
    let mut sim = Simulation::builder(LatticeSpec::bcc_fe(5))
        .potential(AnalyticEam::fe())
        .temperature(1200.0) // hot: fast drift, frequent rebuilds
        .seed(7)
        .skin(0.3)
        .build()
        .unwrap();
    for step in 1..=60 {
        sim.step();
        let b = *sim.system().sim_box();
        let pos = sim.system().positions();
        let csr = sim.engine().neighbor_list().csr();
        for i in 0..pos.len() {
            for j in (i + 1)..pos.len() {
                if b.distance_sq(pos[i], pos[j]) < cutoff * cutoff {
                    assert!(
                        csr.row(i).contains(&(j as u32)),
                        "step {step}: in-cutoff pair ({i}, {j}) missing from half list"
                    );
                }
            }
        }
    }
    assert!(
        sim.engine().rebuilds() > 0,
        "melt never triggered a rebuild; the test exercised nothing"
    );
}
