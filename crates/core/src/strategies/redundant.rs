//! Redundant Computation baseline (paper class 5, "RC" in Fig. 9).
//!
//! With a **full** neighbor list each atom can compute everything it needs
//! by itself: `out[i] += kernel(i, j).to_i` over all neighbors `j`, no
//! writes to other atoms, hence no synchronization at all. The price is the
//! paper's stated one — every pair interaction is computed twice and the
//! neighbor list doubles in memory.
//!
//! Correctness requires the kernel to be *endpoint-symmetric*
//! (`kernel(j, i).to_i == kernel(i, j).to_j`): true for densities
//! (symmetric) and forces (antisymmetric), see
//! [`crate::scatter::PairKernel`].

use crate::context::ParallelContext;
use crate::metrics::ScatterMetrics;
use crate::scatter::{PairTerm, ScatterValue};
use md_neighbor::Csr;
use rayon::prelude::*;

/// Gather-only parallel reduction over a full neighbor list.
///
/// With `metrics`, counts the *duplicate* kernel evaluations — the second
/// visit of each stored pair, identified as the `j < i` traversal of the
/// full list — i.e. exactly the extra compute the paper charges RC with.
/// Tallies accumulate in a per-row local and flush with one atomic add per
/// row.
pub fn scatter_redundant<V: ScatterValue>(
    ctx: &ParallelContext,
    full: &Csr,
    out: &mut [V],
    kernel: &(impl Fn(usize, usize) -> Option<PairTerm<V>> + Sync),
    metrics: Option<&ScatterMetrics>,
) {
    ctx.install(|| {
        out.par_iter_mut().enumerate().for_each(|(i, o)| {
            let mut duplicates = 0u64;
            for &j in full.row(i) {
                if let Some(t) = kernel(i, j as usize) {
                    duplicates += ((j as usize) < i) as u64;
                    o.add(t.to_i);
                }
            }
            if let Some(m) = metrics {
                m.duplicate_pairs.add(duplicates);
            }
        });
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_serial_half_list_scatter() {
        let half = Csr::from_rows(&[vec![1, 2], vec![2, 3], vec![3], vec![]]);
        let full = half.symmetrized();
        let kernel = |i: usize, j: usize| Some(PairTerm::symmetric((i + j) as f64));
        let mut expect = vec![0.0f64; 4];
        crate::strategies::serial::scatter_serial(&half, &mut expect, &|_, i, j| kernel(i, j));
        let ctx = ParallelContext::new(3);
        let mut got = vec![0.0f64; 4];
        scatter_redundant(&ctx, &full, &mut got, &kernel, None);
        assert_eq!(expect, got);
    }

    #[test]
    fn antisymmetric_kernel_gathers_correct_signs() {
        // force-like: contribution to i from j is sign(j - i).
        let half = Csr::from_rows(&[vec![1], vec![2], vec![]]);
        let full = half.symmetrized();
        let kernel = |i: usize, j: usize| {
            let f = if j > i { 1.0 } else { -1.0 };
            Some(PairTerm { to_i: f, to_j: -f })
        };
        let ctx = ParallelContext::new(2);
        let mut got = vec![0.0f64; 3];
        scatter_redundant(&ctx, &full, &mut got, &kernel, None);
        // atom 0: +1 (from 1). atom 1: -1 (from 0) + 1 (from 2) = 0.
        // atom 2: -1 (from 1).
        assert_eq!(got, vec![1.0, 0.0, -1.0]);
        let net: f64 = got.iter().sum();
        assert_eq!(net, 0.0);
    }
}
