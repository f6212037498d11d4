//! # sdc-core
//!
//! The paper's contribution: **Spatial Decomposition Coloring (SDC)** for
//! parallelizing reduction operations on irregular arrays, together with the
//! baseline strategies it is evaluated against.
//!
//! ## The problem
//!
//! Short-range MD force loops over *half* neighbor lists apply Newton's
//! third law: each stored pair `(i, j)` updates **both** `out[i]` and
//! `out[j]` (paper Figs. 1–2). Parallelizing the outer loop naively lets two
//! threads update the same element concurrently — the classic irregular
//! array reduction.
//!
//! ## The strategies (paper §I taxonomy and §III comparison)
//!
//! | [`StrategyKind`] | Paper class | Mechanism |
//! |---|---|---|
//! | `Serial` | — | reference single-thread sweep |
//! | `Sdc { dims }` | the contribution | color subdomains (2/4/8 colors); within a color, write footprints are geometrically disjoint — no synchronization; barrier between colors |
//! | `TaskGraph { dims }` | the contribution, rescheduled | the same subdomain tasks ordered by a conflict DAG whose edges climb colors; no per-color barrier, bitwise-equal to `Sdc` |
//! | `Critical` | class 1 (CS) | one global lock around every scatter update |
//! | `Privatized` | class 2 (SAP) | per-thread private copies, serialized merge |
//! | `Redundant` | class 5 (RC) | full neighbor list, gather-only, 2× compute |
//!
//! All strategies produce identical results up to floating-point summation
//! order; the test suites assert tight agreement. Every strategy is one
//! function in [`strategies`], and [`ScatterExec::run`] is the one entry
//! point that dispatches on [`StrategyKind`].
//!
//! ## Safety
//!
//! Each `unsafe` site in the workspace lets threads write provably disjoint
//! parts of one array, or calls a CPU feature the code has checked for:
//!
//! * [`shared::SharedSlice`] here is the aliased output array. Its only
//!   writer in the SDC and task-graph schedules is the one subdomain sweep
//!   in [`strategies::sdc`]; it is sound because tasks that run at the same
//!   time have disjoint write footprints — same-color subdomains are
//!   separated by a full subdomain of edge ≥ 2·range
//!   ([`plan::SdcPlan::validate_footprints`]), and the task graph orders
//!   every pair of overlapping tasks by an edge
//!   ([`TaskGraph::validate_independence`]). Both checks run in debug
//!   builds on every sweep and exhaustively in the test suite, and a unit
//!   test claims every written element per running task on real threads.
//! * `strategies/critical.rs` writes the shared array only while holding
//!   the one global mutex.
//! * `md-neighbor`'s `csr.rs` fills CSR slots from several workers; each
//!   worker owns a disjoint window of slots.
//! * `md-potential`'s `simd.rs`, `spline.rs` and `tabulated.rs` call AVX2
//!   kernels (`#[target_feature]`) only after the runtime CPU probe found
//!   AVX2.
//! * `md-sim`'s `forces/eam.rs` writes per-pair scratch records through a
//!   `SharedSlice`, addressed by slot, which the slot-providing strategies
//!   visit exactly once per sweep from one task, and fills disjoint
//!   embedding batches.

#![warn(missing_docs)]

pub mod context;
pub mod decomposition;
pub mod metrics;
pub mod plan;
pub mod scatter;
pub mod schedule;
pub mod shared;
pub mod strategies;
pub mod taskgraph;

pub use context::ParallelContext;
pub use decomposition::{ColoredDecomposition, DecompositionConfig, DecompositionError};
pub use metrics::{Counter, DurationHistogram, Gauge, QueueMetrics, ScatterMetrics};
pub use plan::SdcPlan;
pub use scatter::{PairTerm, ScatterValue, NO_SLOT};
pub use schedule::{BalancedPlan, ColorSchedule, MakespanParams, PlanChoice};
pub use strategies::{DowngradeEvent, ScatterExec, StrategyKind};
pub use taskgraph::TaskGraph;
