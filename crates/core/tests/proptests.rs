//! Property-based tests: every strategy computes the same reduction on
//! arbitrary random graphs with exactly-representable contributions, so
//! equality is bitwise regardless of summation order.

use md_neighbor::Csr;
use proptest::prelude::*;
use sdc_core::{PairTerm, ParallelContext, ScatterExec, StrategyKind};

/// Builds a half adjacency (i < j) from arbitrary pairs.
fn half_graph(n: usize, raw: &[(u32, u32)]) -> Csr {
    let mut pairs: Vec<(u32, u32)> = raw
        .iter()
        .filter(|(a, b)| a != b)
        .map(|&(a, b)| {
            let (a, b) = (a % n as u32, b % n as u32);
            if a < b {
                (a, b)
            } else {
                (b, a)
            }
        })
        .filter(|(a, b)| a != b)
        .collect();
    pairs.sort_unstable();
    pairs.dedup();
    let mut csr = Csr::from_pairs(n, &pairs);
    csr.sort_rows();
    csr
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn non_sdc_strategies_agree_bitwise_on_random_graphs(
        raw in proptest::collection::vec((0u32..48, 0u32..48), 0..200),
        threads in 1usize..5,
    ) {
        let n = 48;
        let half = half_graph(n, &raw);
        let full = half.symmetrized();
        // Contributions are small integers scaled by powers of two: exact
        // under any summation order, so equality must be bitwise. The
        // function is symmetric in (i, j), as the Redundant gather requires.
        let kernel = |_: usize, i: usize, j: usize| {
            Some(PairTerm::symmetric(
                ((i + j) * 7 % 32) as f64 * 0.125 + (i * j % 8) as f64 * 0.25,
            ))
        };
        let mut reference = vec![0.0f64; n];
        sdc_core::strategies::serial::scatter_serial(&half, &mut reference, &kernel);
        let ctx = ParallelContext::new(threads);
        for kind in [
            StrategyKind::Critical,
            StrategyKind::Privatized,
            StrategyKind::Redundant,
        ] {
            let exec = ScatterExec {
                ctx: &ctx,
                half: &half,
                full: Some(&full),
                plan: None,
                metrics: None,
                sap: None,
                taskgraph: None,
            };
            let mut out = vec![0.0f64; n];
            exec.run(kind, &mut out, &kernel);
            prop_assert_eq!(&out, &reference, "{} with {} threads", kind, threads);
        }
    }

    #[test]
    fn redundant_gather_equals_scatter_for_antisymmetric_kernels(
        raw in proptest::collection::vec((0u32..32, 0u32..32), 0..120),
    ) {
        let n = 32;
        let half = half_graph(n, &raw);
        let full = half.symmetrized();
        // Antisymmetric (force-like) kernel with exact values.
        let kernel = |_: usize, i: usize, j: usize| {
            let v = ((i % 8) as f64 - (j % 8) as f64) * 0.25;
            Some(PairTerm { to_i: v, to_j: -v })
        };
        let mut scatter = vec![0.0f64; n];
        sdc_core::strategies::serial::scatter_serial(&half, &mut scatter, &kernel);
        let ctx = ParallelContext::new(3);
        let exec = ScatterExec {
            ctx: &ctx,
            half: &half,
            full: Some(&full),
            plan: None,
            metrics: None,
            sap: None,
            taskgraph: None,
        };
        let mut gather = vec![0.0f64; n];
        exec.run(StrategyKind::Redundant, &mut gather, &kernel);
        prop_assert_eq!(&gather, &scatter);
        // Newton: total momentum transfer sums to zero exactly.
        let net: f64 = scatter.iter().sum();
        prop_assert_eq!(net, 0.0);
    }
}
