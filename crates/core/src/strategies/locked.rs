//! Striped-lock baseline — the third class-1 variant the paper names
//! ("critical region, atomic **or lock**", §I).
//!
//! Instead of one global critical section, the output array is guarded by a
//! fixed pool of stripe locks (`atom index mod STRIPES`). A pair update
//! acquires the stripes of both endpoints in ascending order (lock-ordering
//! discipline — no deadlock), so unrelated pairs proceed in parallel and
//! only true collisions serialize. Faster than the global critical section,
//! still paying two lock round-trips per pair — the paper's class-1 verdict
//! ("high synchronization cost when using … lock in loop") stands.

use crate::context::ParallelContext;
use crate::metrics::ScatterMetrics;
use crate::scatter::{PairTerm, ScatterValue};
use crate::shared::SharedSlice;
use md_neighbor::Csr;
use rayon::prelude::*;
use std::sync::{Mutex, PoisonError};

/// Number of stripe locks. A power of two well above any realistic core
/// count keeps the collision probability (two random atoms sharing a
/// stripe) low while bounding lock memory.
pub const STRIPES: usize = 1024;

/// Parallel scatter guarded by a pool of [`STRIPES`] stripe locks.
pub fn scatter_locked<V: ScatterValue>(
    ctx: &ParallelContext,
    half: &Csr,
    out: &mut [V],
    kernel: &(impl Fn(usize, usize) -> Option<PairTerm<V>> + Sync),
) {
    scatter_locked_metered(ctx, half, out, kernel, None);
}

/// [`scatter_locked`] with optional instrumentation: stripe-lock
/// acquisitions (one or two per contributing pair) and *crossings* — pairs
/// whose endpoints hit two distinct stripes and therefore pay both lock
/// round-trips, the class-1 overhead the paper's verdict is about. Tallies
/// accumulate in per-row locals and flush with one atomic add per row.
pub fn scatter_locked_metered<V: ScatterValue>(
    ctx: &ParallelContext,
    half: &Csr,
    out: &mut [V],
    kernel: &(impl Fn(usize, usize) -> Option<PairTerm<V>> + Sync),
    metrics: Option<&ScatterMetrics>,
) {
    let locks: Vec<Mutex<()>> = (0..STRIPES).map(|_| Mutex::new(())).collect();
    let shared = SharedSlice::new(out);
    ctx.install(|| {
        (0..half.rows()).into_par_iter().for_each(|i| {
            let mut acquisitions = 0u64;
            let mut crossings = 0u64;
            for &j in half.row(i) {
                if let Some(t) = kernel(i, j as usize) {
                    let j = j as usize;
                    let (lo, hi) = {
                        let (a, b) = (i % STRIPES, j % STRIPES);
                        if a <= b {
                            (a, b)
                        } else {
                            (b, a)
                        }
                    };
                    // Ascending acquisition order prevents deadlock; when
                    // both endpoints share a stripe, one lock suffices. The
                    // locks guard `()`, so a poisoned one is recovered.
                    let lock = |k: usize| locks[k].lock().unwrap_or_else(PoisonError::into_inner);
                    let _g1 = lock(lo);
                    let _g2 = (hi != lo).then(|| lock(hi));
                    acquisitions += 1 + (hi != lo) as u64;
                    crossings += (hi != lo) as u64;
                    // SAFETY: every write to index k happens under the lock
                    // of stripe k % STRIPES, so no two threads touch the
                    // same element concurrently; the mutexes order the
                    // memory accesses.
                    unsafe {
                        shared.get_mut(i).add(t.to_i);
                        shared.get_mut(j).add(t.to_j);
                    }
                }
            }
            if let Some(m) = metrics {
                m.lock_acquisitions.add(acquisitions);
                m.lock_crossings.add(crossings);
            }
        });
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_serial_on_a_dense_graph() {
        // Dense graph with vertices far beyond the stripe count is the
        // worst case for collisions — correctness must not depend on it.
        let n = 60usize;
        let rows: Vec<Vec<u32>> = (0..n)
            .map(|i| ((i + 1) as u32..n as u32).collect())
            .collect();
        let half = Csr::from_rows(&rows);
        let kernel = |i: usize, j: usize| Some(PairTerm::symmetric((i * 3 + j) as f64));
        let mut expect = vec![0.0f64; n];
        crate::strategies::serial::scatter_serial(&half, &mut expect, &kernel);
        let ctx = ParallelContext::new(4);
        let mut got = vec![0.0f64; n];
        scatter_locked(&ctx, &half, &mut got, &kernel);
        assert_eq!(expect, got);
    }

    #[test]
    fn same_stripe_pairs_do_not_deadlock() {
        // Pairs whose endpoints map to the same stripe (i ≡ j mod STRIPES).
        let n = STRIPES * 2 + 1;
        let rows: Vec<Vec<u32>> = (0..n)
            .map(|i| {
                if i + STRIPES < n {
                    vec![(i + STRIPES) as u32]
                } else {
                    vec![]
                }
            })
            .collect();
        let half = Csr::from_rows(&rows);
        let ctx = ParallelContext::new(4);
        let mut got = vec![0.0f64; n];
        scatter_locked(&ctx, &half, &mut got, &|_, _| Some(PairTerm::symmetric(1.0)));
        // Pairs exist for i in 0..(n - STRIPES); each adds 1.0 to both ends.
        let total: f64 = got.iter().sum();
        assert_eq!(total, 2.0 * (n - STRIPES) as f64);
    }
}
