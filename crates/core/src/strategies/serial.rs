//! Reference single-thread sweep.
//!
//! This is the paper's optimized serial baseline (its Figs. 1–2 loops with
//! the §II.D optimizations): one pass over the half list, both endpoints
//! updated per pair via Newton's third law / symmetric density flow. All
//! speedups in the reproduction are measured against this path.

use crate::scatter::{PairTerm, ScatterValue};
use md_neighbor::Csr;

/// Serial scatter over a half list: for each stored pair `(i, j)`,
/// `out[i] += to_i` and `out[j] += to_j`.
///
/// The kernel also receives each pair's **slot** — its storage index in the
/// half list (`offsets[i] + k` for the `k`-th neighbor of `i`). Every stored
/// pair is visited exactly once per sweep, so a kernel may address disjoint
/// per-pair scratch entries by slot (the fused EAM path's phase-1 record
/// store).
pub fn scatter_serial<V: ScatterValue>(
    half: &Csr,
    out: &mut [V],
    kernel: &(impl Fn(usize, usize, usize) -> Option<PairTerm<V>> + Sync),
) {
    let offsets = half.offsets();
    for (i, row) in half.iter_rows() {
        let base = offsets[i] as usize;
        for (k, &j) in row.iter().enumerate() {
            if let Some(t) = kernel(base + k, i, j as usize) {
                out[i].add(t.to_i);
                out[j as usize].add(t.to_j);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accumulates_both_endpoints() {
        // 0-1, 0-2, 1-2 triangle with unit symmetric contributions:
        // every vertex has degree 2.
        let half = Csr::from_rows(&[vec![1, 2], vec![2], vec![]]);
        let mut out = vec![0.0f64; 3];
        scatter_serial(&half, &mut out, &|_, _, _| Some(PairTerm::symmetric(1.0)));
        assert_eq!(out, vec![2.0, 2.0, 2.0]);
    }

    #[test]
    fn none_contributions_are_skipped() {
        let half = Csr::from_rows(&[vec![1, 2], vec![2], vec![]]);
        let mut out = vec![0.0f64; 3];
        scatter_serial(&half, &mut out, &|_, i, j| {
            // skip the 0-2 pair
            if i == 0 && j == 2 {
                None
            } else {
                Some(PairTerm::symmetric(1.0))
            }
        });
        assert_eq!(out, vec![1.0, 2.0, 1.0]);
    }

    #[test]
    fn accumulates_into_existing_values() {
        let half = Csr::from_rows(&[vec![1], vec![]]);
        let mut out = vec![10.0f64, 20.0];
        scatter_serial(&half, &mut out, &|_, _, _| Some(PairTerm::symmetric(1.0)));
        assert_eq!(out, vec![11.0, 21.0]);
    }
}
