//! The irregular-reduction strategies and their shared entry point.
//!
//! Each submodule implements one of the paper's strategies as a free
//! function; [`ScatterExec`] bundles the resources (thread pool, neighbor
//! CSRs, SDC plan) and dispatches on [`StrategyKind`]. The benchmark harness
//! and the MD engine both go through this single entry point, so every
//! strategy sees exactly the same kernels and data.

pub mod critical;
pub mod privatized;
pub mod redundant;
pub mod sdc;
pub mod serial;

use crate::context::ParallelContext;
use crate::metrics::ScatterMetrics;
use crate::plan::SdcPlan;
use crate::scatter::{PairTerm, ScatterValue, NO_SLOT};
use crate::taskgraph::{self, TaskGraph};
use md_neighbor::Csr;

/// Selects an irregular-reduction parallelization strategy (paper §I
/// taxonomy; see the crate docs for the mapping).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StrategyKind {
    /// Single-threaded reference sweep over the half list.
    Serial,
    /// Spatial Decomposition Coloring with `dims` decomposed axes
    /// (the paper's contribution; `dims ∈ 1..=3`).
    Sdc {
        /// Number of decomposed axes (1, 2 or 3).
        dims: usize,
    },
    /// One global lock around every scatter update (paper's CS baseline).
    Critical,
    /// Share-Array Privatization: thread-private copies merged serially
    /// (paper's SAP baseline).
    Privatized,
    /// Redundant Computation over a full neighbor list (paper's RC
    /// baseline): gather-only, 2× pair computations.
    Redundant,
    /// Dependency-graph scheduling of the SDC subdomain tasks: the per-color
    /// barrier replaced by conflict edges and a work-stealing scheduler
    /// ([`crate::taskgraph`]); `dims` selects the decomposition like
    /// [`StrategyKind::Sdc`].
    TaskGraph {
        /// Number of decomposed axes (1, 2 or 3).
        dims: usize,
    },
}

impl StrategyKind {
    /// Short machine-readable name (used by the bench harness CLI).
    pub fn name(&self) -> &'static str {
        match self {
            StrategyKind::Serial => "serial",
            StrategyKind::Sdc { dims: 1 } => "sdc1d",
            StrategyKind::Sdc { dims: 2 } => "sdc2d",
            StrategyKind::Sdc { dims: 3 } => "sdc3d",
            StrategyKind::Sdc { .. } => "sdc",
            StrategyKind::Critical => "cs",
            StrategyKind::Privatized => "sap",
            StrategyKind::Redundant => "rc",
            StrategyKind::TaskGraph { dims: 1 } => "taskgraph1d",
            StrategyKind::TaskGraph { dims: 2 } => "taskgraph2d",
            StrategyKind::TaskGraph { dims: 3 } => "taskgraph3d",
            StrategyKind::TaskGraph { .. } => "taskgraph",
        }
    }

    /// Parses the names produced by [`StrategyKind::name`].
    pub fn parse(s: &str) -> Option<StrategyKind> {
        Some(match s {
            "serial" => StrategyKind::Serial,
            "sdc1d" => StrategyKind::Sdc { dims: 1 },
            "sdc2d" | "sdc" => StrategyKind::Sdc { dims: 2 },
            "sdc3d" => StrategyKind::Sdc { dims: 3 },
            "cs" | "critical" => StrategyKind::Critical,
            "sap" | "privatized" => StrategyKind::Privatized,
            "rc" | "redundant" => StrategyKind::Redundant,
            "taskgraph1d" => StrategyKind::TaskGraph { dims: 1 },
            "taskgraph2d" | "taskgraph" => StrategyKind::TaskGraph { dims: 2 },
            "taskgraph3d" => StrategyKind::TaskGraph { dims: 3 },
            _ => return None,
        })
    }

    /// Every concrete strategy: the paper's Fig. 9 set (Serial, SDC, CS,
    /// SAP, RC) plus the taskgraph schedule of SDC.
    pub fn all() -> [StrategyKind; 10] {
        [
            StrategyKind::Serial,
            StrategyKind::Sdc { dims: 1 },
            StrategyKind::Sdc { dims: 2 },
            StrategyKind::Sdc { dims: 3 },
            StrategyKind::Critical,
            StrategyKind::Privatized,
            StrategyKind::Redundant,
            StrategyKind::TaskGraph { dims: 1 },
            StrategyKind::TaskGraph { dims: 2 },
            StrategyKind::TaskGraph { dims: 3 },
        ]
    }

    /// `true` for strategies whose floating-point summation order is fixed,
    /// making results bit-reproducible run to run.
    pub fn is_deterministic(&self) -> bool {
        !matches!(self, StrategyKind::Critical)
    }

    /// `true` if the strategy consumes the full (symmetric) neighbor list.
    pub fn needs_full_list(&self) -> bool {
        matches!(self, StrategyKind::Redundant)
    }

    /// `true` if the strategy needs an [`SdcPlan`].
    pub fn needs_plan(&self) -> bool {
        matches!(
            self,
            StrategyKind::Sdc { .. } | StrategyKind::TaskGraph { .. }
        )
    }

    /// The decomposition dimensionality for plan-backed strategies
    /// (`Sdc`/`TaskGraph`), `None` otherwise.
    pub fn plan_dims(&self) -> Option<usize> {
        match self {
            StrategyKind::Sdc { dims } | StrategyKind::TaskGraph { dims } => Some(*dims),
            _ => None,
        }
    }

    /// `true` for strategies whose [`ScatterExec::run`] sweep hands the
    /// kernel real half-list slot indices (Serial, barriered SDC, and
    /// the task-graph scheduler); every other strategy receives
    /// [`NO_SLOT`](crate::scatter::NO_SLOT) and must recompute per pair.
    /// Slot-addressed side channels — the fused EAM scratch replay and the
    /// SIMD precompute pass built on top of it — are only sound on these.
    pub fn provides_slots(&self) -> bool {
        matches!(
            self,
            StrategyKind::Serial | StrategyKind::Sdc { .. } | StrategyKind::TaskGraph { .. }
        )
    }

    /// The next-best strategy when this one is infeasible for the current
    /// box geometry: SDC sheds decomposed axes one at a time (3 → 2 → 1) —
    /// each step weakens the geometric precondition — and finally falls back
    /// to [`StrategyKind::Privatized`], which is parallel, has no geometric
    /// precondition and, like SDC, is bitwise deterministic at a fixed thread
    /// count (row chunks own private copies that merge in chunk order).
    /// Strategies without preconditions have nothing to degrade to.
    pub fn downgrade(&self) -> Option<StrategyKind> {
        match self {
            StrategyKind::Sdc { dims } if *dims > 1 => Some(StrategyKind::Sdc { dims: dims - 1 }),
            StrategyKind::Sdc { .. } => Some(StrategyKind::Privatized),
            // The taskgraph schedule's first step down is the barriered SDC
            // schedule at the same decomposition (same plan, coarser
            // ordering), which then continues down the SDC chain.
            StrategyKind::TaskGraph { dims } => Some(StrategyKind::Sdc { dims: *dims }),
            _ => None,
        }
    }
}

/// A recorded strategy downgrade: the engine replaced an infeasible
/// strategy with the next one in the degradation chain (see
/// [`StrategyKind::downgrade`]) instead of failing the run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DowngradeEvent {
    /// The strategy that could not be used.
    pub from: StrategyKind,
    /// The replacement that was tried next.
    pub to: StrategyKind,
    /// Why `from` was infeasible (human-readable).
    pub reason: String,
}

impl std::fmt::Display for DowngradeEvent {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "strategy downgraded {} -> {}: {}", self.from, self.to, self.reason)
    }
}

impl std::fmt::Display for StrategyKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// The resources a scatter execution may need. Build once per neighbor-list
/// rebuild, run many times (typically twice per time-step: densities and
/// forces).
pub struct ScatterExec<'a> {
    /// Thread pool to run on.
    pub ctx: &'a ParallelContext,
    /// Half neighbor list (every strategy except `Redundant`).
    pub half: &'a Csr,
    /// Full neighbor list (`Redundant` only).
    pub full: Option<&'a Csr>,
    /// SDC plan (`Sdc` only).
    pub plan: Option<&'a SdcPlan>,
    /// Instrumentation sink ([`crate::metrics`]); `None` disables all
    /// recording at zero cost in the pair loops.
    pub metrics: Option<&'a ScatterMetrics>,
    /// Reusable SAP private-copy buffers (`Privatized` only); `None` falls
    /// back to per-sweep allocation.
    pub sap: Option<&'a privatized::SapBuffers>,
    /// Conflict DAG of the current plan (`TaskGraph` only); its workers
    /// run at `ctx`'s thread count.
    pub taskgraph: Option<&'a TaskGraph>,
}

impl ScatterExec<'_> {
    /// Runs the scatter: `out[i] += Σ to_i`, `out[j] += Σ to_j` over all
    /// stored pairs, using `kind`'s synchronization scheme.
    ///
    /// The kernel receives each stored pair's slot — its storage index in
    /// the half list (`offsets[i] + k` for the `k`-th neighbor of `i`) —
    /// besides `(i, j)`. Strategies that [provide slots](StrategyKind::provides_slots)
    /// visit each slot exactly once per sweep from exactly one task, so
    /// kernels may keep disjoint per-pair scratch addressed by slot. CS, SAP
    /// and RC pass [`NO_SLOT`](crate::scatter::NO_SLOT); the kernel must
    /// then recompute the pair instead of touching scratch.
    ///
    /// `out` is **accumulated into**, not cleared — callers zero it first
    /// when appropriate (matching the paper's loop structure, where `rho[]`
    /// and `force[]` are reset at the start of each step).
    ///
    /// # Panics
    /// Panics if `kind` needs a resource (`full`, `plan`, `taskgraph`) this
    /// exec lacks, or if `plan`'s dimensionality does not match `kind`'s.
    pub fn run<V: ScatterValue>(
        &self,
        kind: StrategyKind,
        out: &mut [V],
        kernel: &(impl Fn(usize, usize, usize) -> Option<PairTerm<V>> + Sync),
    ) {
        assert_eq!(
            out.len(),
            self.half.rows(),
            "output length must match atom count"
        );
        let plan = || {
            let plan = self
                .plan
                .unwrap_or_else(|| panic!("{kind} strategy requires a plan"));
            assert_eq!(
                Some(plan.decomposition().dims()),
                kind.plan_dims(),
                "plan dimensionality does not match {kind}"
            );
            plan
        };
        let unslotted = |i, j| kernel(NO_SLOT, i, j);
        match kind {
            StrategyKind::Serial => serial::scatter_serial(self.half, out, kernel),
            StrategyKind::Sdc { .. } => {
                sdc::scatter_sdc(self.ctx, plan(), self.half, out, kernel, self.metrics)
            }
            StrategyKind::TaskGraph { .. } => {
                let plan = plan();
                let graph = self
                    .taskgraph
                    .expect("TaskGraph strategy requires a task graph");
                taskgraph::scatter_taskgraph(
                    self.ctx.threads(),
                    graph,
                    plan,
                    self.half,
                    out,
                    kernel,
                    self.metrics,
                );
            }
            StrategyKind::Critical => {
                critical::scatter_critical(self.ctx, self.half, out, &unslotted, self.metrics)
            }
            StrategyKind::Privatized => privatized::scatter_privatized(
                self.ctx,
                self.half,
                out,
                &unslotted,
                self.metrics,
                self.sap,
            ),
            StrategyKind::Redundant => {
                let full = self.full.expect("Redundant strategy requires a full list");
                redundant::scatter_redundant(self.ctx, full, out, &unslotted, self.metrics);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decomposition::DecompositionConfig;
    use md_geometry::{LatticeSpec, SimBox, Vec3};
    use md_neighbor::{NeighborList, VerletConfig};

    const CUTOFF: f64 = 5.67;
    const SKIN: f64 = 0.3;

    struct Fixture {
        pos: Vec<Vec3>,
        sim_box: SimBox,
        half: md_neighbor::Csr,
        full: md_neighbor::Csr,
        plans: Vec<SdcPlan>,
        graphs: Vec<TaskGraph>,
    }

    fn fixture() -> Fixture {
        let (sim_box, pos) = LatticeSpec::bcc_fe(17).build();
        let nl = NeighborList::build(&sim_box, &pos, VerletConfig::half(CUTOFF, SKIN));
        let full = nl.to_full();
        let plans: Vec<SdcPlan> = (1..=3)
            .map(|dims| {
                SdcPlan::build(&sim_box, &pos, DecompositionConfig::new(dims, CUTOFF + SKIN))
                    .unwrap()
            })
            .collect();
        let graphs = plans
            .iter()
            .map(|p| TaskGraph::build(p.decomposition(), &sim_box))
            .collect();
        Fixture {
            pos,
            sim_box,
            half: nl.csr().clone(),
            full: full.csr().clone(),
            plans,
            graphs,
        }
    }

    fn exec<'a>(f: &'a Fixture, ctx: &'a ParallelContext, kind: StrategyKind) -> ScatterExec<'a> {
        ScatterExec {
            ctx,
            half: &f.half,
            full: Some(&f.full),
            plan: kind.plan_dims().map(|dims| &f.plans[dims - 1]),
            metrics: None,
            sap: None,
            taskgraph: kind.plan_dims().map(|dims| &f.graphs[dims - 1]),
        }
    }

    fn run_density(f: &Fixture, kind: StrategyKind, threads: usize) -> Vec<f64> {
        let ctx = ParallelContext::new(threads);
        let exec = exec(f, &ctx, kind);
        let pos = &f.pos;
        let sim_box = &f.sim_box;
        let mut rho = vec![0.0f64; pos.len()];
        // A density-like symmetric kernel with a sharp cutoff, so the skin
        // pairs exercise the `None` path.
        exec.run(kind, &mut rho, &|_, i, j| {
            let r2 = sim_box.distance_sq(pos[i], pos[j]);
            if r2 < CUTOFF * CUTOFF {
                Some(PairTerm::symmetric((-r2).exp() + 0.01))
            } else {
                None
            }
        });
        rho
    }

    fn run_force(f: &Fixture, kind: StrategyKind, threads: usize) -> Vec<Vec3> {
        let ctx = ParallelContext::new(threads);
        let exec = exec(f, &ctx, kind);
        let pos = &f.pos;
        let sim_box = &f.sim_box;
        let mut force = vec![Vec3::ZERO; pos.len()];
        // An antisymmetric force-like kernel: f(i,j) = -f(j,i) by
        // construction, as Redundant requires.
        exec.run(kind, &mut force, &|_, i, j| {
            let d = sim_box.min_image(pos[i], pos[j]);
            let r2 = d.norm_sq();
            if r2 < CUTOFF * CUTOFF {
                Some(PairTerm::newton(d * (1.0 / (1.0 + r2))))
            } else {
                None
            }
        });
        force
    }

    fn assert_close_f64(a: &[f64], b: &[f64], tol: f64, what: &str) {
        for (k, (x, y)) in a.iter().zip(b).enumerate() {
            assert!(
                (x - y).abs() <= tol * x.abs().max(1.0),
                "{what}: element {k} differs: {x} vs {y}"
            );
        }
    }

    #[test]
    fn all_strategies_agree_on_densities() {
        let f = fixture();
        let reference = run_density(&f, StrategyKind::Serial, 1);
        for kind in StrategyKind::all() {
            for threads in [1, 2, 4] {
                let got = run_density(&f, kind, threads);
                assert_close_f64(&reference, &got, 1e-12, &format!("{kind} t={threads}"));
            }
        }
    }

    #[test]
    fn all_strategies_agree_on_forces() {
        let f = fixture();
        let reference = run_force(&f, StrategyKind::Serial, 1);
        for kind in StrategyKind::all() {
            let got = run_force(&f, kind, 4);
            for (k, (a, b)) in reference.iter().zip(&got).enumerate() {
                assert!(
                    (*a - *b).norm() <= 1e-11 * a.norm().max(1.0),
                    "{kind}: force {k} differs: {a} vs {b}"
                );
            }
        }
    }

    #[test]
    fn newton_kernel_forces_sum_to_zero() {
        let f = fixture();
        for kind in [
            StrategyKind::Serial,
            StrategyKind::Sdc { dims: 2 },
            StrategyKind::Privatized,
            StrategyKind::Redundant,
        ] {
            let force = run_force(&f, kind, 2);
            let total: Vec3 = force.iter().sum();
            assert!(
                total.norm() < 1e-9,
                "{kind}: net force {total} violates Newton's third law"
            );
        }
    }

    #[test]
    fn deterministic_strategies_are_bit_reproducible() {
        let f = fixture();
        for kind in StrategyKind::all() {
            if !kind.is_deterministic() {
                continue;
            }
            let a = run_density(&f, kind, 4);
            let b = run_density(&f, kind, 4);
            assert_eq!(a, b, "{kind} not reproducible");
        }
    }

    #[test]
    fn slots_address_the_half_list_exactly_where_provided() {
        use std::sync::atomic::{AtomicU32, Ordering};
        let f = fixture();
        let reference = run_density(&f, StrategyKind::Serial, 1);
        for kind in StrategyKind::all() {
            let ctx = ParallelContext::new(4);
            let exec = exec(&f, &ctx, kind);
            // The public predicate must agree with the dispatch below — the
            // fused/SIMD engines gate their slot-addressed scratch on it.
            let expects_slots = kind.provides_slots();
            let hits: Vec<AtomicU32> = (0..f.half.entries()).map(|_| AtomicU32::new(0)).collect();
            let (pos, sim_box, half) = (&f.pos, &f.sim_box, &f.half);
            let mut rho = vec![0.0f64; pos.len()];
            exec.run(kind, &mut rho, &|slot, i, j| {
                if expects_slots {
                    // A real slot must name exactly this pair's storage cell.
                    assert_eq!(half.indices()[slot], j as u32, "{kind}: slot names wrong pair");
                    let base = half.offsets()[i] as usize;
                    assert!(slot >= base && slot < base + half.row_len(i), "{kind}: slot off-row");
                    hits[slot].fetch_add(1, Ordering::Relaxed);
                } else {
                    assert_eq!(slot, crate::scatter::NO_SLOT, "{kind}: expected NO_SLOT");
                }
                let r2 = sim_box.distance_sq(pos[i], pos[j]);
                (r2 < CUTOFF * CUTOFF).then(|| PairTerm::symmetric((-r2).exp() + 0.01))
            });
            assert_close_f64(&reference, &rho, 1e-12, &format!("slotted {kind}"));
            if expects_slots {
                assert!(
                    hits.iter().all(|h| h.load(Ordering::Relaxed) == 1),
                    "{kind}: every slot must be visited exactly once per sweep"
                );
            }
        }
    }

    #[test]
    fn names_round_trip() {
        for kind in StrategyKind::all() {
            assert_eq!(StrategyKind::parse(kind.name()), Some(kind), "{kind}");
        }
        assert_eq!(StrategyKind::parse("nope"), None);
    }

    #[test]
    fn resource_predicates() {
        assert!(StrategyKind::Redundant.needs_full_list());
        assert!(!StrategyKind::Serial.needs_full_list());
        assert!(StrategyKind::Sdc { dims: 2 }.needs_plan());
        assert!(!StrategyKind::Critical.needs_plan());
        assert!(!StrategyKind::Critical.is_deterministic());
        assert!(StrategyKind::Privatized.is_deterministic());
        assert!(StrategyKind::Sdc { dims: 3 }.is_deterministic());
        assert!(StrategyKind::TaskGraph { dims: 2 }.needs_plan());
        assert!(StrategyKind::TaskGraph { dims: 2 }.is_deterministic());
        assert_eq!(StrategyKind::TaskGraph { dims: 3 }.plan_dims(), Some(3));
        assert_eq!(StrategyKind::Sdc { dims: 1 }.plan_dims(), Some(1));
        assert_eq!(StrategyKind::Critical.plan_dims(), None);
    }

    #[test]
    fn downgrade_chain_ends_at_privatized() {
        // Sdc sheds one axis per step, then falls back to SAP.
        assert_eq!(
            StrategyKind::Sdc { dims: 3 }.downgrade(),
            Some(StrategyKind::Sdc { dims: 2 })
        );
        assert_eq!(
            StrategyKind::Sdc { dims: 2 }.downgrade(),
            Some(StrategyKind::Sdc { dims: 1 })
        );
        assert_eq!(
            StrategyKind::Sdc { dims: 1 }.downgrade(),
            Some(StrategyKind::Privatized)
        );
        // TaskGraph falls back to barriered SDC at the same decomposition,
        // which then continues down the SDC chain.
        for dims in 1..=3 {
            assert_eq!(
                StrategyKind::TaskGraph { dims }.downgrade(),
                Some(StrategyKind::Sdc { dims })
            );
        }
        // Non-SDC strategies have no geometric precondition to relax.
        for kind in StrategyKind::all() {
            if !kind.needs_plan() {
                assert_eq!(kind.downgrade(), None, "{kind}");
            }
        }
    }

    #[test]
    fn downgrade_event_display_names_both_strategies() {
        let ev = DowngradeEvent {
            from: StrategyKind::Sdc { dims: 3 },
            to: StrategyKind::Sdc { dims: 2 },
            reason: "axis 0 too small".into(),
        };
        let msg = ev.to_string();
        assert!(msg.contains("sdc3d") && msg.contains("sdc2d") && msg.contains("axis 0"));
    }

    #[test]
    #[should_panic(expected = "requires a plan")]
    fn sdc_without_plan_panics() {
        let f = fixture();
        let ctx = ParallelContext::new(2);
        let exec = ScatterExec {
            ctx: &ctx,
            half: &f.half,
            full: None,
            plan: None,
            metrics: None,
            sap: None,
            taskgraph: None,
        };
        let mut out = vec![0.0f64; f.pos.len()];
        exec.run(StrategyKind::Sdc { dims: 2 }, &mut out, &|_, _, _| {
            Some(PairTerm::symmetric(1.0))
        });
    }

    #[test]
    #[should_panic(expected = "requires a full list")]
    fn redundant_without_full_list_panics() {
        let f = fixture();
        let ctx = ParallelContext::new(2);
        let exec = ScatterExec {
            ctx: &ctx,
            half: &f.half,
            full: None,
            plan: None,
            metrics: None,
            sap: None,
            taskgraph: None,
        };
        let mut out = vec![0.0f64; f.pos.len()];
        exec.run(StrategyKind::Redundant, &mut out, &|_, _, _| {
            Some(PairTerm::symmetric(1.0))
        });
    }

    #[test]
    #[should_panic(expected = "output length")]
    fn wrong_output_length_panics() {
        let f = fixture();
        let ctx = ParallelContext::new(1);
        let exec = ScatterExec {
            ctx: &ctx,
            half: &f.half,
            full: None,
            plan: None,
            metrics: None,
            sap: None,
            taskgraph: None,
        };
        let mut out = vec![0.0f64; 3];
        exec.run(StrategyKind::Serial, &mut out, &|_, _, _| {
            Some(PairTerm::symmetric(1.0))
        });
    }
}
