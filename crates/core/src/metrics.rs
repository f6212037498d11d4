//! Lightweight, lock-free metrics primitives for the hot paths.
//!
//! The paper's whole argument (Table 1, Fig. 9) is about *where time goes*:
//! barrier waits between SDC colors, lock traffic in the class-1 baselines,
//! the serialized merge in SAP, doubled pair work in RC. This module provides
//! the measurement substrate — monotonic [`Counter`]s, [`Gauge`]s and
//! streaming [`DurationHistogram`]s — plus [`ScatterMetrics`], the bundle the
//! strategy implementations record into.
//!
//! Design constraints (std-only, no external deps):
//!
//! * **Lock-free recording.** Every primitive is a handful of relaxed
//!   atomics; recording from inside a rayon worker never blocks another
//!   worker. Cross-counter reads are therefore *not* a consistent snapshot —
//!   read after the parallel region joins (every caller in this workspace
//!   does).
//! * **Coarse-grained charging.** Strategies accumulate per-task or per-row
//!   tallies in locals and flush once per task/row, so the per-pair inner
//!   loop gains no atomic traffic. The measured overhead budget is ≤ 1% of
//!   step time (DESIGN.md §10).
//! * **Bounded memory.** A histogram is a fixed array of log-spaced buckets
//!   (16 sub-buckets per octave → ≤ 6.25% relative quantile error), not a
//!   sample reservoir.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// A monotonic event counter.
///
/// Increments use **wrapping** arithmetic: a counter that reaches
/// `u64::MAX` rolls over to 0 rather than saturating or panicking (at one
/// event per nanosecond that takes ~584 years, but the semantics are pinned
/// by tests so reports can rely on them). [`Counter::reset`] zeroes it.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// A fresh zeroed counter.
    pub const fn new() -> Counter {
        Counter(AtomicU64::new(0))
    }

    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n` (wrapping on overflow).
    #[inline]
    pub fn add(&self, n: u64) {
        // fetch_add on AtomicU64 wraps by definition.
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }

    /// Resets to zero.
    pub fn reset(&self) {
        self.0.store(0, Ordering::Relaxed);
    }
}

/// A last-value-wins gauge holding an `f64` (stored as bits in an atomic).
#[derive(Debug, Default)]
pub struct Gauge(AtomicU64);

impl Gauge {
    /// A fresh gauge reading 0.0.
    pub const fn new() -> Gauge {
        Gauge(AtomicU64::new(0))
    }

    /// Sets the gauge.
    #[inline]
    pub fn set(&self, v: f64) {
        self.0.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }

    /// Sets the gauge to `v` if it exceeds the current value (high-water
    /// mark). Relaxed read-compare-store; concurrent writers may race, which
    /// is acceptable for a watermark.
    #[inline]
    pub fn set_max(&self, v: f64) {
        if v > self.get() {
            self.set(v);
        }
    }
}

/// Sub-bucket resolution: 16 sub-buckets per power-of-two octave.
const SUB_BITS: u32 = 4;
const SUBS: u64 = 1 << SUB_BITS;
/// Highest representable octave: values ≥ 2^48 ns (~3.3 days) clamp into the
/// last bucket.
const MAX_OCTAVE: u64 = 48;
const BUCKETS: usize = (SUBS + (MAX_OCTAVE - SUB_BITS as u64) * SUBS) as usize;

fn bucket_index(v: u64) -> usize {
    if v < SUBS {
        return v as usize;
    }
    let msb = 63 - v.leading_zeros() as u64;
    let msb = msb.min(MAX_OCTAVE - 1);
    let octave = msb - SUB_BITS as u64;
    let sub = (v >> (msb - SUB_BITS as u64)) - SUBS;
    ((octave << SUB_BITS) + SUBS + sub).min(BUCKETS as u64 - 1) as usize
}

fn bucket_lower(idx: usize) -> u64 {
    let idx = idx as u64;
    if idx < SUBS {
        return idx;
    }
    let octave = (idx - SUBS) >> SUB_BITS;
    let sub = (idx - SUBS) & (SUBS - 1);
    (SUBS + sub) << octave
}

/// A streaming duration histogram: count, sum, min, max and log-spaced
/// buckets good for p50/p99 estimates within 6.25% relative error.
///
/// All state is atomic; recording is wait-free and safe from any thread.
/// Quantiles are computed on read by walking the buckets; the returned value
/// is the lower bound of the bucket holding the requested rank, clamped to
/// the observed `[min, max]` — so a degenerate distribution (all values
/// equal) reports *exact* quantiles.
pub struct DurationHistogram {
    count: AtomicU64,
    sum_ns: AtomicU64,
    min_ns: AtomicU64,
    max_ns: AtomicU64,
    buckets: Box<[AtomicU64]>,
}

impl Default for DurationHistogram {
    fn default() -> DurationHistogram {
        DurationHistogram::new()
    }
}

impl std::fmt::Debug for DurationHistogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DurationHistogram")
            .field("count", &self.count())
            .field("mean_ns", &self.mean_ns())
            .field("p50_ns", &self.quantile_ns(0.5))
            .field("p99_ns", &self.quantile_ns(0.99))
            .finish()
    }
}

impl DurationHistogram {
    /// A fresh, empty histogram.
    pub fn new() -> DurationHistogram {
        DurationHistogram {
            count: AtomicU64::new(0),
            sum_ns: AtomicU64::new(0),
            min_ns: AtomicU64::new(u64::MAX),
            max_ns: AtomicU64::new(0),
            buckets: (0..BUCKETS).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    /// Records one duration.
    #[inline]
    pub fn record(&self, d: Duration) {
        self.record_ns(d.as_nanos().min(u64::MAX as u128) as u64);
    }

    /// Records one duration given in nanoseconds.
    pub fn record_ns(&self, ns: u64) {
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_ns.fetch_add(ns, Ordering::Relaxed);
        self.min_ns.fetch_min(ns, Ordering::Relaxed);
        self.max_ns.fetch_max(ns, Ordering::Relaxed);
        self.buckets[bucket_index(ns)].fetch_add(1, Ordering::Relaxed);
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of recorded values, ns.
    pub fn sum_ns(&self) -> u64 {
        self.sum_ns.load(Ordering::Relaxed)
    }

    /// Smallest recorded value, ns (0 when empty).
    pub fn min_ns(&self) -> u64 {
        let v = self.min_ns.load(Ordering::Relaxed);
        if v == u64::MAX {
            0
        } else {
            v
        }
    }

    /// Largest recorded value, ns.
    pub fn max_ns(&self) -> u64 {
        self.max_ns.load(Ordering::Relaxed)
    }

    /// Arithmetic mean, ns (0 when empty).
    pub fn mean_ns(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            0.0
        } else {
            self.sum_ns() as f64 / n as f64
        }
    }

    /// The `q`-quantile (`0 < q ≤ 1`), ns. Returns 0 when empty.
    ///
    /// The estimate is the lower bound of the bucket containing the rank
    /// `ceil(q·count)`, clamped to `[min, max]`; relative error is bounded
    /// by the sub-bucket width (6.25%).
    pub fn quantile_ns(&self, q: f64) -> u64 {
        let n = self.count();
        if n == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = ((q * n as f64).ceil() as u64).clamp(1, n);
        let mut seen = 0u64;
        for (i, b) in self.buckets.iter().enumerate() {
            seen += b.load(Ordering::Relaxed);
            if seen >= rank {
                return bucket_lower(i).clamp(self.min_ns(), self.max_ns());
            }
        }
        self.max_ns()
    }

    /// Resets to the empty state.
    pub fn reset(&self) {
        self.count.store(0, Ordering::Relaxed);
        self.sum_ns.store(0, Ordering::Relaxed);
        self.min_ns.store(u64::MAX, Ordering::Relaxed);
        self.max_ns.store(0, Ordering::Relaxed);
        for b in self.buckets.iter() {
            b.store(0, Ordering::Relaxed);
        }
    }
}

/// Maximum SDC color count (3-D decomposition → 2³ = 8 colors).
pub const MAX_COLORS: usize = 8;

/// The per-strategy instrumentation bundle threaded through the scatter
/// implementations via [`crate::strategies::ScatterExec`].
///
/// One instance lives for the whole run (owned by the force engine);
/// recording is lock-free, so a single instance is shared by every sweep.
/// Everything is recorded **per scatter sweep** (density or force), i.e. a
/// time-step of EAM contributes two sweeps.
#[derive(Debug)]
pub struct ScatterMetrics {
    /// Lock acquisitions performed by the `Critical` strategy (one per
    /// guarded update).
    pub lock_acquisitions: Counter,
    /// Nanoseconds spent in the serialized SAP merge (paper's `O(P·N)`
    /// sequential tail).
    pub merge_ns: Counter,
    /// Number of SAP merges performed (one per sweep).
    pub merges: Counter,
    /// High-water mark of SAP private-copy heap bytes (`threads × N × V`).
    pub private_bytes: Gauge,
    /// Pair kernel evaluations performed *redundantly* by the RC strategy —
    /// the second visit of each stored pair via the full list.
    pub duplicate_pairs: Counter,
    /// Color barriers executed by the SDC strategy (one per color per
    /// sweep).
    pub color_barriers: Counter,
    /// Wall time of each SDC color's parallel region, indexed by color
    /// (≤ [`MAX_COLORS`]). The barrier wait of a thread within a color is
    /// the color wall time minus the thread's busy time in that color.
    pub color_wall: Vec<DurationHistogram>,
    /// Per-worker-thread busy nanoseconds inside SDC subdomain tasks.
    /// Indexed by the rayon worker index of the strategy's dedicated pool.
    pub thread_busy_ns: Vec<Counter>,
    /// Mid-run plan changes made by the cost-guided balancer (plan search
    /// re-runs that adopted a different decomposition).
    pub rebalances: Counter,
    /// Predicted thread-aware imbalance (`max bin / mean bin` under LPT
    /// packing) of the currently active plan; 0.0 until a balancer sets it.
    pub planned_imbalance: Gauge,
    /// Subdomain task completions executed by the taskgraph scheduler (one
    /// per task per sweep — the taskgraph analogue of `color_barriers` for
    /// liveness accounting).
    pub tasks: Counter,
    /// Tasks a taskgraph worker stole from another worker's deque.
    pub steals: Counter,
    /// Per-task ready→start latency under the taskgraph scheduler: how long
    /// a runnable task sat in a deque before a worker picked it up — the
    /// dependency-driven replacement for the per-color barrier walls.
    pub ready_latency: DurationHistogram,
}

impl ScatterMetrics {
    /// Creates a bundle sized for a pool of `threads` workers.
    pub fn new(threads: usize) -> ScatterMetrics {
        ScatterMetrics {
            lock_acquisitions: Counter::new(),
            merge_ns: Counter::new(),
            merges: Counter::new(),
            private_bytes: Gauge::new(),
            duplicate_pairs: Counter::new(),
            color_barriers: Counter::new(),
            color_wall: (0..MAX_COLORS).map(|_| DurationHistogram::new()).collect(),
            thread_busy_ns: (0..threads.max(1)).map(|_| Counter::new()).collect(),
            rebalances: Counter::new(),
            planned_imbalance: Gauge::new(),
            tasks: Counter::new(),
            steals: Counter::new(),
            ready_latency: DurationHistogram::new(),
        }
    }

    /// Worker count this bundle was sized for.
    pub fn threads(&self) -> usize {
        self.thread_busy_ns.len()
    }

    /// Adds `ns` to the busy tally of worker `thread` (out-of-range indices
    /// are clamped into the last slot, so a mis-sized bundle degrades to
    /// coarser attribution instead of panicking).
    #[inline]
    pub fn add_busy_ns(&self, thread: usize, ns: u64) {
        let idx = thread.min(self.thread_busy_ns.len() - 1);
        self.thread_busy_ns[idx].add(ns);
    }

    /// Total wall nanoseconds across all color regions.
    pub fn total_color_wall_ns(&self) -> u64 {
        self.color_wall.iter().map(|h| h.sum_ns()).sum()
    }

    /// Per-thread *wait* nanoseconds: the part of the color regions a worker
    /// spent idle at barriers, `Σ color walls − busy(t)`, clamped at 0.
    pub fn thread_wait_ns(&self, thread: usize) -> u64 {
        let total = self.total_color_wall_ns();
        let busy = self
            .thread_busy_ns
            .get(thread)
            .map_or(0, |c| c.get());
        total.saturating_sub(busy)
    }

    /// Resets every counter, gauge and histogram.
    pub fn reset(&self) {
        self.lock_acquisitions.reset();
        self.merge_ns.reset();
        self.merges.reset();
        self.private_bytes.set(0.0);
        self.duplicate_pairs.reset();
        self.color_barriers.reset();
        for h in &self.color_wall {
            h.reset();
        }
        for c in &self.thread_busy_ns {
            c.reset();
        }
        self.rebalances.reset();
        self.planned_imbalance.set(0.0);
        self.tasks.reset();
        self.steals.reset();
        self.ready_latency.reset();
    }
}

/// Counters for a job-queue service layer (the `mdserve` server): every
/// queue transition, retry and checkpoint-backed resume is tallied here so
/// the `stats` endpoint and the storm harness can assert liveness without
/// scraping logs. Same recording rules as [`ScatterMetrics`]: relaxed
/// atomics, read after the region of interest has quiesced.
#[derive(Debug, Default)]
pub struct QueueMetrics {
    /// Jobs offered by clients (accepted + rejected).
    pub submitted: Counter,
    /// Jobs accepted into the queue (journaled before the accept reply).
    pub accepted: Counter,
    /// Jobs refused with an explicit backpressure response (bounded queue
    /// full, or the server was draining).
    pub rejected: Counter,
    /// Job executions started (first attempts and retries alike).
    pub started: Counter,
    /// Jobs that reached the `completed` terminal state.
    pub completed: Counter,
    /// Jobs that reached the `failed` terminal state.
    pub failed: Counter,
    /// Server-level retry attempts (re-runs after a faulted attempt, with
    /// exponential backoff applied).
    pub retries: Counter,
    /// Executions that resumed from a durable checkpoint instead of
    /// starting at step 0.
    pub resumes: Counter,
    /// Executions interrupted resumably (worker death, shutdown).
    pub interrupted: Counter,
    /// Current queue depth (queued, not yet running).
    pub depth: Gauge,
}

impl QueueMetrics {
    /// A fresh all-zero bundle.
    pub fn new() -> QueueMetrics {
        QueueMetrics::default()
    }

    /// Resets every counter and the depth gauge.
    pub fn reset(&self) {
        self.submitted.reset();
        self.accepted.reset();
        self.rejected.reset();
        self.started.reset();
        self.completed.reset();
        self.failed.reset();
        self.retries.reset();
        self.resumes.reset();
        self.interrupted.reset();
        self.depth.set(0.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn queue_metrics_tally_and_reset() {
        let q = QueueMetrics::new();
        q.submitted.add(5);
        q.accepted.add(4);
        q.rejected.inc();
        q.completed.add(3);
        q.retries.add(2);
        q.resumes.inc();
        q.depth.set(4.0);
        assert_eq!(q.submitted.get(), 5);
        assert_eq!(q.accepted.get() + q.rejected.get(), q.submitted.get());
        assert_eq!(q.completed.get(), 3);
        assert_eq!(q.retries.get(), 2);
        assert_eq!(q.resumes.get(), 1);
        assert_eq!(q.depth.get(), 4.0);
        q.reset();
        assert_eq!(q.submitted.get(), 0);
        assert_eq!(q.depth.get(), 0.0);
    }

    #[test]
    fn counter_add_get_reset() {
        let c = Counter::new();
        c.inc();
        c.add(41);
        assert_eq!(c.get(), 42);
        c.reset();
        assert_eq!(c.get(), 0);
    }

    #[test]
    fn counter_overflow_wraps() {
        let c = Counter::new();
        c.add(u64::MAX);
        c.add(3);
        // Wrapping semantics: MAX + 3 ≡ 2 (mod 2^64).
        assert_eq!(c.get(), 2);
    }

    #[test]
    fn gauge_last_write_wins_and_watermarks() {
        let g = Gauge::new();
        assert_eq!(g.get(), 0.0);
        g.set(1.5);
        g.set(-2.25);
        assert_eq!(g.get(), -2.25);
        g.set_max(7.0);
        g.set_max(3.0);
        assert_eq!(g.get(), 7.0);
    }

    #[test]
    fn bucket_round_trip_is_monotone_and_tight() {
        let mut prev = 0usize;
        for v in [0u64, 1, 5, 15, 16, 17, 100, 1_000, 123_456, u64::MAX] {
            let idx = bucket_index(v);
            assert!(idx >= prev || v == 0, "bucket index not monotone at {v}");
            prev = idx.max(prev);
            let lo = bucket_lower(idx);
            assert!(lo <= v, "lower bound {lo} exceeds value {v}");
            if (SUBS..1 << (MAX_OCTAVE - 1)).contains(&v) {
                // Within range, the bucket width is ≤ v / 16.
                let hi = bucket_lower(idx + 1);
                assert!(hi > v, "value {v} not inside [{lo}, {hi})");
                assert!((hi - lo) as f64 <= v as f64 / 16.0 + 1.0);
            }
        }
    }

    #[test]
    fn degenerate_distribution_has_exact_quantiles() {
        let h = DurationHistogram::new();
        for _ in 0..100 {
            h.record_ns(777);
        }
        // Clamping to [min, max] makes single-valued distributions exact.
        assert_eq!(h.quantile_ns(0.5), 777);
        assert_eq!(h.quantile_ns(0.99), 777);
        assert_eq!(h.min_ns(), 777);
        assert_eq!(h.max_ns(), 777);
        assert_eq!(h.mean_ns(), 777.0);
    }

    #[test]
    fn exactly_representable_two_point_distribution() {
        // 99 values at 64 ns, 1 at 4096 ns — both are bucket lower bounds,
        // so p50 and p99 are exact and p100 picks up the outlier.
        let h = DurationHistogram::new();
        for _ in 0..99 {
            h.record_ns(64);
        }
        h.record_ns(4096);
        assert_eq!(h.count(), 100);
        assert_eq!(h.quantile_ns(0.5), 64);
        assert_eq!(h.quantile_ns(0.99), 64); // rank 99 of 100
        assert_eq!(h.quantile_ns(1.0), 4096);
        assert_eq!(h.max_ns(), 4096);
    }

    #[test]
    fn uniform_distribution_quantiles_within_relative_error() {
        // 1..=10_000 ns uniformly: p50 ≈ 5000, p99 ≈ 9900, each within the
        // documented 6.25% bucket resolution.
        let h = DurationHistogram::new();
        for v in 1..=10_000u64 {
            h.record_ns(v);
        }
        let p50 = h.quantile_ns(0.5) as f64;
        let p99 = h.quantile_ns(0.99) as f64;
        assert!((p50 - 5000.0).abs() / 5000.0 < 0.0625, "p50 = {p50}");
        assert!((p99 - 9900.0).abs() / 9900.0 < 0.0625, "p99 = {p99}");
        assert_eq!(h.min_ns(), 1);
        assert_eq!(h.max_ns(), 10_000);
        assert!((h.mean_ns() - 5000.5).abs() < 1e-9);
    }

    #[test]
    fn empty_histogram_reads_zero() {
        let h = DurationHistogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.quantile_ns(0.5), 0);
        assert_eq!(h.min_ns(), 0);
        assert_eq!(h.max_ns(), 0);
        assert_eq!(h.mean_ns(), 0.0);
    }

    #[test]
    fn histogram_reset_clears_everything() {
        let h = DurationHistogram::new();
        h.record(Duration::from_micros(3));
        assert_eq!(h.count(), 1);
        h.reset();
        assert_eq!(h.count(), 0);
        assert_eq!(h.sum_ns(), 0);
        assert_eq!(h.quantile_ns(0.99), 0);
    }

    #[test]
    fn scatter_metrics_wait_is_wall_minus_busy() {
        let m = ScatterMetrics::new(2);
        m.color_wall[0].record_ns(1_000);
        m.color_wall[1].record_ns(1_000);
        m.add_busy_ns(0, 1_500);
        m.add_busy_ns(1, 400);
        assert_eq!(m.total_color_wall_ns(), 2_000);
        assert_eq!(m.thread_wait_ns(0), 500);
        assert_eq!(m.thread_wait_ns(1), 1_600);
        // Out-of-range thread: full wall charged as wait.
        assert_eq!(m.thread_wait_ns(9), 2_000);
        m.rebalances.inc();
        m.planned_imbalance.set(1.4);
        m.reset();
        assert_eq!(m.total_color_wall_ns(), 0);
        assert_eq!(m.thread_busy_ns[0].get(), 0);
        assert_eq!(m.rebalances.get(), 0);
        assert_eq!(m.planned_imbalance.get(), 0.0);
    }

    #[test]
    fn busy_attribution_clamps_out_of_range_workers() {
        let m = ScatterMetrics::new(2);
        m.add_busy_ns(17, 10);
        assert_eq!(m.thread_busy_ns[1].get(), 10);
    }
}
