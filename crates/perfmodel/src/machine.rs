//! Machine cost parameters.

/// Cost constants of the modeled shared-memory machine.
///
/// Times are seconds. Defaults are order-of-magnitude values for a mid-2000s
/// multi-socket Xeon (the paper's E7320 era), chosen so the modeled curves
/// reproduce the paper's *shapes*; `pair_cost` should be overridden with the
/// host-calibrated value (the bench harness measures it from the real serial
/// engine) when absolute times matter.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MachineParams {
    /// Serial cost of one stored half-pair in one sweep (density or force)
    /// on the reference (per-pair dyn-dispatched) evaluation path.
    pub pair_cost: f64,
    /// Serial cost of one stored half-pair under the fused path (§II.D):
    /// monomorphized dispatch, Horner-form spline segments, the interleaved
    /// φ/f table, and the phase-1 scratch that spares phase 3 the
    /// min_image/sqrt/spline recomputation. Default is `pair_cost / 1.25`,
    /// the measured single-thread gain on the tabulated iron case
    /// (EXPERIMENTS.md §fused).
    pub fused_pair_cost: f64,
    /// Serial cost of one stored half-pair under the SIMD fused path at
    /// full lane occupancy: the φ/f spline lookups run four pairs per AVX2
    /// block in the cluster-batched precompute pass, leaving the sweeps as
    /// pure replays. Real cost is `simd_pair_cost / occupancy` — partially
    /// filled tail batches pay for their idle lanes — which is the
    /// [`MachineParams::simd`] view's lane-efficiency term. Default is
    /// `fused_pair_cost / 1.2`, the measured single-thread gain on the
    /// tabulated iron case (EXPERIMENTS.md §simd).
    pub simd_pair_cost: f64,
    /// Shared-bandwidth degradation μ: work cost scales by `1 + μ·ln P`.
    pub mem_contention: f64,
    /// Fixed cost of one fork-join barrier.
    pub barrier_base: f64,
    /// Additional barrier cost per `log2 P` (tree reduction).
    pub barrier_log: f64,
    /// Serialized cost of one lock-protected update (CS strategy).
    pub lock_cost: f64,
    /// Lock handoff degradation λ: lock cost scales by `1 + λ(P−1)`.
    pub lock_contention: f64,
    /// Cost of one CAS-loop atomic update.
    pub atomic_cost: f64,
    /// Atomic retry degradation (scales like the lock term, much weaker).
    pub atomic_contention: f64,
    /// SAP: merge cost per array element per thread copy (serialized).
    pub merge_cost: f64,
    /// SAP: private-array zeroing cost per element.
    pub zero_cost: f64,
    /// SAP: extra cache-pressure slope σ (`1 + σ(P−1)` on the compute part).
    pub sap_cache: f64,
    /// SDC: cache-locality penalty slope for subdomain halo traffic. A task
    /// touching subdomain `S` streams `S` plus its `r_c` halo; the larger
    /// the halo-to-subdomain volume ratio, the worse the reuse. Cost scales
    /// by `1 + halo_kappa·(halo_ratio − 1)` — this is the paper's §IV
    /// argument for why compact 2-D subdomains beat both 1-D slabs (fewer
    /// but no worse) and fine 3-D cells (more fork-join, more halo).
    pub halo_kappa: f64,
    /// SDC: fraction of the final partial round that fails to overlap with
    /// earlier rounds (1.0 = hard `ceil` makespan, 0.0 = perfectly fluid
    /// work-stealing). OpenMP static scheduling with equal tasks sits in
    /// between.
    pub round_overlap: f64,
    /// LOCALWRITE: boundary-pair fraction of an index-chunked partitioning
    /// (the class-3 redundant work; the inspector itself is amortized over
    /// list rebuilds like the SDC plan).
    pub lw_boundary_frac: f64,
    /// RC: work multiplier versus the half-list sweep (the paper: "there is
    /// two-fold computation work for the force calculations in RC method").
    pub rc_work: f64,
    /// Timed sweeps per step (density + force = 2, the paper's §III.A).
    pub sweeps: usize,
    /// Cores per socket of the modeled machine (the paper's E7320 box is
    /// 4 sockets × 4 cores).
    pub cores_per_socket: usize,
    /// NUMA remote-access penalty (paper §V names "a detailed study of SDC
    /// on NUMA memory architecture" as future work; this parameter models
    /// it): once threads span multiple sockets, a fraction
    /// `(sockets_used − 1)/sockets_used` of memory traffic is remote and
    /// costs `(1 + numa_penalty)` per access. 0 disables NUMA modeling
    /// (the paper's implicit flat-memory assumption).
    pub numa_penalty: f64,
    /// Neighbor rebuild: per-atom cell-binning cost (one coordinate → cell
    /// map plus a counting-sort pass).
    pub bin_cost: f64,
    /// Neighbor rebuild: cost of *examining* one candidate pair in the
    /// row kernel's masked scan (distance test and compaction; cheaper than
    /// `pair_cost`, which also evaluates the potential kernel). Default is
    /// `pair_cost / 5`, the measured ratio on 35,152-atom bcc Fe: 6.3 ns
    /// per candidate for the 1-worker build against 31.4 ns per stored
    /// half-pair and sweep for the serial engine (EXPERIMENTS.md
    /// §neighbor_build).
    pub pair_gen_cost: f64,
    /// Neighbor rebuild: candidate pairs examined per stored half-pair.
    /// Each atom scans the candidates of its 27-cell stencil with a larger
    /// id, about half the stencil. Measured, not the volume ratio: at 26³
    /// bcc Fe with 6.21 Å cells and a 5.97 Å reach the suffix scans visit
    /// 9,637,056 candidates for 1,124,864 stored half-pairs, 8.57 each.
    pub candidate_ratio: f64,
    /// Steps between list rebuilds (skin-triggered; ≈ 10 for the paper's
    /// 0.3 Å skin at melt temperatures).
    pub rebuild_every: f64,
    /// Fork-join barriers per parallel rebuild (bin, scatter, pair
    /// generation).
    pub rebuild_barriers: f64,
}

impl Default for MachineParams {
    fn default() -> MachineParams {
        MachineParams {
            pair_cost: 60e-9,
            fused_pair_cost: 48e-9,
            simd_pair_cost: 40e-9,
            mem_contention: 0.05,
            barrier_base: 4e-6,
            barrier_log: 1.5e-6,
            lock_cost: 30e-9,
            lock_contention: 0.12,
            atomic_cost: 12e-9,
            atomic_contention: 0.02,
            merge_cost: 20e-9,
            zero_cost: 1e-9,
            sap_cache: 0.05,
            halo_kappa: 0.02,
            round_overlap: 0.5,
            lw_boundary_frac: 0.25,
            rc_work: 2.0,
            sweeps: 2,
            cores_per_socket: 4,
            numa_penalty: 0.0,
            bin_cost: 5e-9,
            pair_gen_cost: 12e-9,
            candidate_ratio: 8.57,
            rebuild_every: 10.0,
            rebuild_barriers: 3.0,
        }
    }
}

impl MachineParams {
    /// Default constants with a host-calibrated per-pair cost.
    pub fn calibrated(pair_cost: f64) -> MachineParams {
        assert!(
            pair_cost > 0.0 && pair_cost.is_finite(),
            "pair cost must be positive, got {pair_cost}"
        );
        MachineParams {
            pair_cost,
            // Keep the measured fused/reference, SIMD/fused and
            // candidate/pair ratios of the defaults.
            fused_pair_cost: pair_cost * 0.8,
            simd_pair_cost: pair_cost * 0.8 / 1.2,
            pair_gen_cost: pair_cost / 5.0,
            ..MachineParams::default()
        }
    }

    /// Constants for predicting the fused evaluation path: the per-pair
    /// sweep cost drops to [`MachineParams::fused_pair_cost`]; every
    /// synchronization, bandwidth, and rebuild constant is unchanged (the
    /// fused path keeps the same strategy-routed scatter).
    pub fn fused(mut self) -> MachineParams {
        self.pair_cost = self.fused_pair_cost;
        self
    }

    /// Constants for predicting the SIMD fused path at the given lane
    /// occupancy (`ClusterList::lane_occupancy` from `md-neighbor`, in
    /// `(0, 1]`): the per-pair cost becomes `simd_pair_cost / occupancy` —
    /// idle lanes in a cluster's tail batch still occupy the vector units —
    /// and, like [`MachineParams::fused`], every synchronization,
    /// bandwidth, and rebuild constant is unchanged.
    ///
    /// # Panics
    /// Panics unless `0 < occupancy ≤ 1`.
    pub fn simd(mut self, occupancy: f64) -> MachineParams {
        assert!(
            occupancy > 0.0 && occupancy <= 1.0,
            "lane occupancy must be in (0, 1], got {occupancy}"
        );
        self.pair_cost = self.simd_pair_cost / occupancy;
        self
    }

    /// The work-scaling overhead `(1 + μ·ln P) · numa(P)`.
    #[inline]
    pub fn overhead(&self, threads: usize) -> f64 {
        (1.0 + self.mem_contention * (threads as f64).ln()) * self.numa_factor(threads)
    }

    /// NUMA remote-traffic multiplier at `P` threads (1.0 when NUMA
    /// modeling is off or all threads fit one socket).
    #[inline]
    pub fn numa_factor(&self, threads: usize) -> f64 {
        if self.numa_penalty <= 0.0 {
            return 1.0;
        }
        let sockets_used = threads.div_ceil(self.cores_per_socket.max(1));
        if sockets_used <= 1 {
            1.0
        } else {
            let remote = (sockets_used - 1) as f64 / sockets_used as f64;
            1.0 + self.numa_penalty * remote
        }
    }

    /// Barrier cost at `P` threads.
    #[inline]
    pub fn barrier(&self, threads: usize) -> f64 {
        self.barrier_base + self.barrier_log * (threads as f64).log2().max(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overhead_is_one_for_single_thread() {
        let m = MachineParams::default();
        assert_eq!(m.overhead(1), 1.0);
        assert!(m.overhead(16) > m.overhead(2));
    }

    #[test]
    fn barrier_grows_with_threads() {
        let m = MachineParams::default();
        assert!(m.barrier(16) > m.barrier(2));
        assert!(m.barrier(1) >= m.barrier_base);
    }

    #[test]
    fn numa_factor_kicks_in_past_one_socket() {
        let mut m = MachineParams::default();
        assert_eq!(m.numa_factor(16), 1.0, "off by default");
        m.numa_penalty = 0.4;
        assert_eq!(m.numa_factor(4), 1.0, "one socket: all local");
        let two = m.numa_factor(8); // 2 sockets → half remote
        assert!((two - 1.2).abs() < 1e-12, "{two}");
        let four = m.numa_factor(16); // 4 sockets → 3/4 remote
        assert!((four - 1.3).abs() < 1e-12, "{four}");
        assert!(m.overhead(16) > MachineParams::default().overhead(16));
    }

    #[test]
    fn calibration_overrides_pair_cost_only() {
        let m = MachineParams::calibrated(123e-9);
        assert_eq!(m.pair_cost, 123e-9);
        assert_eq!(m.lock_cost, MachineParams::default().lock_cost);
    }

    #[test]
    fn fused_view_swaps_in_the_cheaper_pair_cost() {
        let m = MachineParams::default();
        let f = m.fused();
        assert_eq!(f.pair_cost, m.fused_pair_cost);
        assert!(f.pair_cost < m.pair_cost, "fused must be cheaper");
        assert_eq!(f.barrier_base, m.barrier_base, "sync costs unchanged");
        // Calibration preserves the fused/reference ratio.
        let c = MachineParams::calibrated(100e-9);
        assert!((c.fused_pair_cost / c.pair_cost - 0.8).abs() < 1e-12);
    }

    #[test]
    fn simd_view_scales_with_lane_occupancy() {
        let m = MachineParams::default();
        let full = m.simd(1.0);
        assert_eq!(full.pair_cost, m.simd_pair_cost);
        assert!(full.pair_cost < m.fused().pair_cost, "SIMD must beat fused");
        assert_eq!(full.barrier_base, m.barrier_base, "sync costs unchanged");
        // Half-empty lanes double the effective per-pair cost; occupancy
        // can degrade the SIMD path below the scalar fused one.
        let half = m.simd(0.5);
        assert!((half.pair_cost - 2.0 * m.simd_pair_cost).abs() < 1e-18);
        assert!(half.pair_cost > m.fused().pair_cost);
        // Calibration preserves the SIMD/fused ratio.
        let c = MachineParams::calibrated(100e-9);
        assert!((c.fused_pair_cost / c.simd_pair_cost - 1.2).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "occupancy")]
    fn out_of_range_occupancy_rejected() {
        let _ = MachineParams::default().simd(0.0);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn non_positive_pair_cost_rejected() {
        let _ = MachineParams::calibrated(0.0);
    }
}
