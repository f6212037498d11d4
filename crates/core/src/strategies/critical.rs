//! Critical-section baseline (paper class 1, "CS" in Fig. 9).
//!
//! The iteration space is parallelized over atoms, but every update of the
//! shared array is wrapped in **one global lock** — the direct translation
//! of wrapping the reduction in `#pragma omp critical`. The pair kernel runs
//! *outside* the lock (as the paper's formulation implies: only "the
//! reference to the reduction array" is enclosed), so the serialization cost
//! is the lock traffic itself. The paper finds this the slowest strategy at
//! every core count; so do we.

use crate::context::ParallelContext;
use crate::metrics::ScatterMetrics;
use crate::scatter::{PairTerm, ScatterValue};
use crate::shared::SharedSlice;
use md_neighbor::Csr;
use rayon::prelude::*;
use std::sync::{Mutex, PoisonError};

/// Parallel scatter with one global mutex around each pair's two updates.
///
/// With `metrics`, every acquisition of the global lock is counted (one per
/// contributing pair — exactly the serialized traffic the paper blames for
/// CS's flat speedup). Counts accumulate in a per-row local and flush with
/// one atomic add per row, so the pair loop itself gains no atomic traffic.
pub fn scatter_critical<V: ScatterValue>(
    ctx: &ParallelContext,
    half: &Csr,
    out: &mut [V],
    kernel: &(impl Fn(usize, usize) -> Option<PairTerm<V>> + Sync),
    metrics: Option<&ScatterMetrics>,
) {
    let lock = Mutex::new(());
    let shared = SharedSlice::new(out);
    ctx.install(|| {
        (0..half.rows()).into_par_iter().for_each(|i| {
            let mut acquisitions = 0u64;
            for &j in half.row(i) {
                if let Some(t) = kernel(i, j as usize) {
                    // The lock guards `()`: a panic elsewhere cannot leave
                    // it half-updated, so a poisoned lock is recovered.
                    let _guard = lock.lock().unwrap_or_else(PoisonError::into_inner);
                    acquisitions += 1;
                    // SAFETY: the global mutex serializes every access to the
                    // shared array; the mutex's acquire/release ordering
                    // makes the updates visible across threads.
                    unsafe {
                        shared.get_mut(i).add(t.to_i);
                        shared.get_mut(j as usize).add(t.to_j);
                    }
                }
            }
            if let Some(m) = metrics {
                m.lock_acquisitions.add(acquisitions);
            }
        });
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_serial_on_a_dense_graph() {
        // Complete graph on 40 vertices; heavy contention on purpose.
        let n = 40usize;
        let rows: Vec<Vec<u32>> = (0..n)
            .map(|i| ((i + 1) as u32..n as u32).collect())
            .collect();
        let half = Csr::from_rows(&rows);
        let kernel = |i: usize, j: usize| Some(PairTerm::symmetric((i + j) as f64));
        let mut expect = vec![0.0f64; n];
        crate::strategies::serial::scatter_serial(&half, &mut expect, &|_, i, j| kernel(i, j));
        let ctx = ParallelContext::new(4);
        let mut got = vec![0.0f64; n];
        scatter_critical(&ctx, &half, &mut got, &kernel, None);
        // Summation order varies; integers summed exactly here.
        assert_eq!(expect, got);
    }
}
