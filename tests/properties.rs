//! Property-based tests over the core data structures and the SDC
//! invariants, spanning crates.

use proptest::prelude::*;
use sdc_md::core::{ColoredDecomposition, DecompositionConfig, PairTerm, ParallelContext, ScatterExec, SdcPlan, StrategyKind};
use sdc_md::geometry::{SimBox, Vec3};
use sdc_md::neighbor::{Csr, NeighborList, Permutation, VerletConfig};

fn arb_vec3(limit: f64) -> impl Strategy<Value = Vec3> {
    (
        -limit..limit,
        -limit..limit,
        -limit..limit,
    )
        .prop_map(|(x, y, z)| Vec3::new(x, y, z))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn wrap_is_idempotent_and_in_range(
        p in arb_vec3(500.0),
        lx in 1.0..100.0f64,
        ly in 1.0..100.0f64,
        lz in 1.0..100.0f64,
    ) {
        let b = SimBox::periodic(Vec3::new(lx, ly, lz));
        let w = b.wrap(p);
        for d in 0..3 {
            prop_assert!(w[d] >= 0.0 && w[d] < b.lengths()[d]);
        }
        prop_assert_eq!(b.wrap(w), w);
    }

    #[test]
    fn min_image_is_shorter_than_any_explicit_image(
        a in arb_vec3(50.0),
        c in arb_vec3(50.0),
        l in 10.0..60.0f64,
    ) {
        let b = SimBox::cubic(l);
        let (a, c) = (b.wrap(a), b.wrap(c));
        let d = b.min_image(a, c).norm();
        // Compare against all 27 explicit images.
        for sx in -1..=1i32 {
            for sy in -1..=1i32 {
                for sz in -1..=1i32 {
                    let shift = Vec3::new(sx as f64, sy as f64, sz as f64) * l;
                    let explicit = (a - (c + shift)).norm();
                    prop_assert!(d <= explicit + 1e-9);
                }
            }
        }
    }

    #[test]
    fn permutation_inverse_is_identity(order in proptest::collection::vec(0u32..64, 1..64)) {
        // Turn an arbitrary vector into a permutation by ranking.
        let mut idx: Vec<u32> = (0..order.len() as u32).collect();
        idx.sort_by_key(|&i| (order[i as usize], i));
        let p = Permutation::from_new_to_old(idx);
        let data: Vec<u32> = (0..p.len() as u32).collect();
        let round = p.inverse().apply(&p.apply(&data));
        prop_assert_eq!(&round, &data);
        let comp = p.compose(&p.inverse());
        prop_assert_eq!(comp.apply(&data), data);
    }

    #[test]
    fn csr_mirror_preserves_edge_multiset(
        pairs in proptest::collection::vec((0u32..20, 0u32..20), 0..60)
    ) {
        let csr = Csr::from_pairs(20, &pairs);
        let mirrored = csr.mirrored();
        prop_assert_eq!(mirrored.entries(), csr.entries());
        let mut fwd: Vec<(u32, u32)> = csr
            .iter_rows()
            .flat_map(|(i, r)| r.iter().map(move |&j| (i as u32, j)))
            .collect();
        let mut back: Vec<(u32, u32)> = mirrored
            .iter_rows()
            .flat_map(|(i, r)| r.iter().map(move |&j| (j, i as u32)))
            .collect();
        fwd.sort_unstable();
        back.sort_unstable();
        prop_assert_eq!(fwd, back);
    }

    #[test]
    fn decomposition_invariants_hold_for_random_boxes(
        lx in 40.0..150.0f64,
        ly in 40.0..150.0f64,
        lz in 40.0..150.0f64,
        range in 3.0..9.0f64,
        dims in 1usize..=3,
    ) {
        let b = SimBox::periodic(Vec3::new(lx, ly, lz));
        match ColoredDecomposition::new(&b, DecompositionConfig::new(dims, range)) {
            Ok(d) => {
                // Even counts, edge ≥ 2·range, equal color classes.
                for ax in 0..dims {
                    let n = d.counts()[ax];
                    prop_assert_eq!(n % 2, 0);
                    prop_assert!(b.lengths()[ax] / n as f64 >= 2.0 * range - 1e-9);
                }
                prop_assert_eq!(d.color_count(), 1 << dims);
                prop_assert_eq!(
                    d.subdomain_count(),
                    d.subdomains_per_color() * d.color_count()
                );
                d.validate(&b).map_err(TestCaseError::fail)?;
            }
            Err(_) => {
                // Rejection is only legal when some decomposed axis truly
                // cannot fit two 2·range subdomains.
                let fits = (0..dims).all(|ax| b.lengths()[ax] >= 4.0 * range);
                prop_assert!(!fits, "decomposition refused a feasible box");
            }
        }
    }

    #[test]
    fn sdc_scatter_equals_serial_on_random_atom_clouds(
        seed in 0u64..1000,
        n_atoms in 40usize..150,
    ) {
        // Random (non-lattice) configurations: the invariant must not
        // depend on crystal regularity.
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let l = 30.0;
        let b = SimBox::cubic(l);
        let pos: Vec<Vec3> = (0..n_atoms)
            .map(|_| Vec3::new(rng.gen::<f64>() * l, rng.gen::<f64>() * l, rng.gen::<f64>() * l))
            .collect();
        let cutoff = 3.0;
        let nl = NeighborList::build(&b, &pos, VerletConfig::half(cutoff, 0.5));
        let plan = SdcPlan::build(&b, &pos, DecompositionConfig::new(3, cutoff + 0.5)).unwrap();
        plan.validate_footprints(nl.csr()).map_err(TestCaseError::fail)?;

        let kernel = |_: usize, i: usize, j: usize| {
            let r2 = b.distance_sq(pos[i], pos[j]);
            (r2 < cutoff * cutoff).then(|| PairTerm::symmetric(1.0 / (1.0 + r2)))
        };
        let mut serial = vec![0.0f64; n_atoms];
        let ctx1 = ParallelContext::new(1);
        ScatterExec { ctx: &ctx1, half: nl.csr(), full: None, plan: None,
            metrics: None, sap: None, taskgraph: None }
            .run(StrategyKind::Serial, &mut serial, &kernel);
        let ctx = ParallelContext::new(4);
        let mut par = vec![0.0f64; n_atoms];
        ScatterExec { ctx: &ctx, half: nl.csr(), full: None, plan: Some(&plan),
            metrics: None, sap: None, taskgraph: None }
            .run(StrategyKind::Sdc { dims: 3 }, &mut par, &kernel);
        for (k, (a, c)) in serial.iter().zip(&par).enumerate() {
            prop_assert!((a - c).abs() < 1e-12, "atom {k}: {a} vs {c}");
        }
    }

    #[test]
    fn neighbor_lists_are_symmetric_under_relabeling(
        seed in 0u64..200,
    ) {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let l = 24.0;
        let b = SimBox::cubic(l);
        let pos: Vec<Vec3> = (0..80)
            .map(|_| Vec3::new(rng.gen::<f64>() * l, rng.gen::<f64>() * l, rng.gen::<f64>() * l))
            .collect();
        let nl = NeighborList::build(&b, &pos, VerletConfig::full(3.5, 0.0));
        for (i, row) in nl.csr().iter_rows() {
            for &j in row {
                prop_assert!(nl.neighbors(j as usize).contains(&(i as u32)));
            }
        }
    }
}
