//! Share-Array Privatization baseline (paper class 2, "SAP" in Fig. 9).
//!
//! Every thread accumulates into its **own full-length private copy** of the
//! reduction array; afterwards the copies are merged into the shared array.
//! The paper's two criticisms are faithfully present:
//!
//! * memory overhead grows linearly with the thread count (`threads × N`
//!   values — [`privatized_bytes`] reports it), competing for cache;
//! * the merge is serialized ("updating shared array must be done in a
//!   critical section"), an `O(threads × N)` sequential tail that caps
//!   scalability beyond ~8 cores in the paper's measurements.

use crate::context::ParallelContext;
use crate::metrics::ScatterMetrics;
use crate::scatter::{PairTerm, ScatterValue};
use md_neighbor::Csr;
use rayon::prelude::*;
use std::any::{Any, TypeId};
use std::collections::HashMap;
use std::sync::Mutex;
use std::time::Instant;

/// Reusable private-copy storage for the SAP strategy, keyed by the scatter
/// value type (`ScatterValue: 'static` makes the `TypeId` key sound).
///
/// Without a pool, every sweep reallocates and zero-fills its private
/// arrays; an EAM step does two sweeps (density `f64`, force `Vec3`), so a
/// long run churns `2 × copies × N` values of heap per step. A pool owned by
/// the force engine hands the same buffers back sweep after sweep — they are
/// re-zeroed (that cost is inherent to SAP) but never reallocated. The
/// internal mutex is taken twice per sweep, outside the pair loop.
#[derive(Debug, Default)]
pub struct SapBuffers {
    pool: Mutex<HashMap<TypeId, Box<dyn Any + Send>>>,
}

impl SapBuffers {
    /// An empty pool.
    pub fn new() -> SapBuffers {
        SapBuffers::default()
    }

    fn take<V: ScatterValue>(&self) -> Vec<Vec<V>> {
        self.pool
            .lock()
            .unwrap()
            .remove(&TypeId::of::<V>())
            .and_then(|b| b.downcast::<Vec<Vec<V>>>().ok())
            .map_or_else(Vec::new, |b| *b)
    }

    fn put<V: ScatterValue>(&self, buffers: Vec<Vec<V>>) {
        self.pool
            .lock()
            .unwrap()
            .insert(TypeId::of::<V>(), Box::new(buffers));
    }
}

/// Parallel scatter via thread-private copies and a serialized merge.
///
/// Rows are split into `threads` contiguous chunks (mirroring OpenMP's
/// static schedule); chunk `k` scatters into private array `k`; the merge
/// adds the private arrays into `out` in chunk order, so the result is
/// deterministic for a fixed thread count.
///
/// Only **active** chunks — those covering at least one row — get a private
/// array: `active = ceil(rows / chunk) ≤ threads` bounds both the
/// allocation and the serialized merge, and is what [`privatized_bytes`]
/// (and the `private_bytes` metric) report.
///
/// The serialized merge — the paper's `O(copies × N)` sequential tail — is
/// timed per sweep when `metrics` is given. When `pool` is given the private
/// arrays are borrowed from it and returned after the merge instead of being
/// reallocated each sweep.
pub fn scatter_privatized<V: ScatterValue>(
    ctx: &ParallelContext,
    half: &Csr,
    out: &mut [V],
    kernel: &(impl Fn(usize, usize) -> Option<PairTerm<V>> + Sync),
    metrics: Option<&ScatterMetrics>,
    pool: Option<&SapBuffers>,
) {
    let n = half.rows();
    let threads = ctx.threads();
    let chunk = n.div_ceil(threads).max(1);
    // Chunks beyond the last row are empty: never allocate or merge them.
    let active = if n == 0 { 0 } else { n.div_ceil(chunk).min(threads) };
    let mut privates: Vec<Vec<V>> = pool.map(|p| p.take::<V>()).unwrap_or_default();
    privates.truncate(active);
    for buf in &mut privates {
        buf.clear();
        buf.resize(n, V::zero());
    }
    while privates.len() < active {
        privates.push(vec![V::zero(); n]);
    }
    ctx.install(|| {
        privates.par_iter_mut().enumerate().for_each(|(k, local)| {
            let start = (k * chunk).min(n);
            let end = ((k + 1) * chunk).min(n);
            for i in start..end {
                for &j in half.row(i) {
                    if let Some(t) = kernel(i, j as usize) {
                        local[i].add(t.to_i);
                        local[j as usize].add(t.to_j);
                    }
                }
            }
        })
    });
    let merge_start = metrics.map(|_| Instant::now());
    // The paper's serialized merge: private copies folded into the shared
    // array one after another, in chunk order (deterministic).
    for local in &privates {
        for (o, l) in out.iter_mut().zip(local) {
            o.add(*l);
        }
    }
    if let (Some(m), Some(start)) = (metrics, merge_start) {
        m.merge_ns.add(start.elapsed().as_nanos() as u64);
        m.merges.inc();
        m.private_bytes
            .set_max(privatized_bytes::<V>(n, active) as f64);
    }
    if let Some(p) = pool {
        p.put(privates);
    }
}

/// The extra heap the strategy holds for `n` atoms of `V` across `copies`
/// private arrays — the paper's linear-in-threads memory overhead. `copies`
/// is the *active* chunk count: `min(threads, ceil(rows / chunk))`, which
/// equals the thread count whenever `rows ≥ threads` (every realistic MD
/// case) but stops overstating the footprint when threads outnumber rows.
pub fn privatized_bytes<V: ScatterValue>(n: usize, copies: usize) -> usize {
    n * copies * std::mem::size_of::<V>()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_serial_including_cross_chunk_pairs() {
        // A path graph: every pair crosses a chunk boundary for some thread
        // count, exercising the private-copy scatter to "remote" rows.
        let n = 100usize;
        let rows: Vec<Vec<u32>> = (0..n)
            .map(|i| if i + 1 < n { vec![i as u32 + 1] } else { vec![] })
            .collect();
        let half = Csr::from_rows(&rows);
        let kernel = |i: usize, j: usize| Some(PairTerm::symmetric((i * 31 + j) as f64));
        let mut expect = vec![0.0f64; n];
        crate::strategies::serial::scatter_serial(&half, &mut expect, &|_, i, j| kernel(i, j));
        for threads in [1, 2, 3, 4, 7] {
            let ctx = ParallelContext::new(threads);
            let mut got = vec![0.0f64; n];
            scatter_privatized(&ctx, &half, &mut got, &kernel, None, None);
            assert_eq!(expect, got, "threads = {threads}");
        }
    }

    #[test]
    fn handles_more_threads_than_rows() {
        let half = Csr::from_rows(&[vec![1], vec![]]);
        let ctx = ParallelContext::new(8);
        let mut out = vec![0.0f64; 2];
        scatter_privatized(
            &ctx,
            &half,
            &mut out,
            &|_, _| Some(PairTerm::symmetric(1.0)),
            None,
            None,
        );
        assert_eq!(out, vec![1.0, 1.0]);
    }

    #[test]
    fn empty_chunks_get_no_private_copies() {
        // 2 rows on 8 threads: chunk = 1, so only 2 chunks are non-empty.
        // The reported footprint must be 2 copies, not 8 — the regression
        // this guards against allocated and merged 8 full-length arrays.
        let m = ScatterMetrics::new(8);
        let half = Csr::from_rows(&[vec![1], vec![]]);
        let ctx = ParallelContext::new(8);
        let mut out = vec![0.0f64; 2];
        scatter_privatized(
            &ctx,
            &half,
            &mut out,
            &|_, _| Some(PairTerm::symmetric(1.0)),
            Some(&m),
            None,
        );
        assert_eq!(out, vec![1.0, 1.0]);
        assert_eq!(m.private_bytes.get(), privatized_bytes::<f64>(2, 2) as f64);
        assert_eq!(m.merges.get(), 1);
    }

    #[test]
    fn zero_rows_allocates_nothing() {
        let m = ScatterMetrics::new(4);
        let half = Csr::from_rows(&[]);
        let ctx = ParallelContext::new(4);
        let mut out: Vec<f64> = vec![];
        scatter_privatized(
            &ctx,
            &half,
            &mut out,
            &|_, _| Some(PairTerm::symmetric(1.0)),
            Some(&m),
            None,
        );
        assert_eq!(m.private_bytes.get(), 0.0);
    }

    #[test]
    fn pooled_buffers_are_reused_across_sweeps_with_identical_results() {
        let n = 64usize;
        let rows: Vec<Vec<u32>> = (0..n)
            .map(|i| if i + 2 < n { vec![i as u32 + 2] } else { vec![] })
            .collect();
        let half = Csr::from_rows(&rows);
        let kernel = |i: usize, j: usize| Some(PairTerm::symmetric((i + 7 * j) as f64));
        let ctx = ParallelContext::new(3);
        let pool = SapBuffers::new();
        let mut expect = vec![0.0f64; n];
        scatter_privatized(&ctx, &half, &mut expect, &kernel, None, None);
        let mut first = vec![0.0f64; n];
        scatter_privatized(&ctx, &half, &mut first, &kernel, None, Some(&pool));
        assert_eq!(expect, first);
        // The pool now holds the private arrays; a second sweep must hand
        // back the same storage, fully re-zeroed (no stale contributions).
        let held: Vec<Vec<f64>> = pool.take::<f64>();
        assert_eq!(held.len(), 3, "active copies parked in the pool");
        let fingerprints: Vec<*const f64> = held.iter().map(|b| b.as_ptr()).collect();
        pool.put(held);
        let mut second = vec![0.0f64; n];
        scatter_privatized(&ctx, &half, &mut second, &kernel, None, Some(&pool));
        assert_eq!(expect, second, "stale buffer contents leaked into sweep 2");
        let held = pool.take::<f64>();
        let again: Vec<*const f64> = held.iter().map(|b| b.as_ptr()).collect();
        assert_eq!(fingerprints, again, "buffers were reallocated, not reused");
        // Distinct value types coexist in one pool.
        pool.put(held);
        let mut v3 = vec![md_geometry::Vec3::ZERO; n];
        scatter_privatized(
            &ctx,
            &half,
            &mut v3,
            &|_, _| Some(PairTerm::symmetric(md_geometry::Vec3::new(1.0, 0.0, 0.0))),
            None,
            Some(&pool),
        );
        assert_eq!(pool.take::<f64>().len(), 3);
        assert_eq!(pool.take::<md_geometry::Vec3>().len(), 3);
    }

    #[test]
    fn memory_overhead_is_linear_in_active_copies() {
        assert_eq!(
            privatized_bytes::<f64>(1000, 4),
            4 * 1000 * std::mem::size_of::<f64>()
        );
        assert_eq!(
            privatized_bytes::<md_geometry::Vec3>(10, 2),
            2 * 10 * 24
        );
    }
}
