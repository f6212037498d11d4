//! # sdc-md — Spatial Decomposition Coloring for molecular dynamics
//!
//! Facade crate for the `sdc-md` workspace, a from-scratch Rust reproduction
//! of *"Efficient Parallel Implementation of Molecular Dynamics with Embedded
//! Atom Method on Multi-core Platforms"* (Hu, Liu & Li, ICPP Workshops 2009).
//!
//! The workspace implements:
//!
//! * [`geometry`] — vectors, periodic boxes, BCC/FCC lattices;
//! * [`neighbor`] — linked-cell binning, Verlet half/full neighbor lists in
//!   CSR form, and the paper's data-reordering optimizations (§II.D);
//! * [`potential`] — an analytic Johnson-style Fe EAM potential, a
//!   spline-tabulated EAM, and Lennard-Jones / Morse pair potentials;
//! * [`core`] — the paper's contribution: **Spatial Decomposition Coloring**
//!   plus the baseline strategies it is compared against (critical section,
//!   share-array privatization, redundant computation);
//! * [`sim`] — a complete MD engine (three-phase EAM forces, velocity
//!   Verlet, thermostats, observables, phase-resolved timing);
//! * [`perfmodel`] — a calibrated multicore cost model that regenerates the
//!   paper's Table 1 and Fig. 9 on machines without 16 physical cores.
//!
//! ## Quickstart
//!
//! ```
//! use sdc_md::prelude::*;
//!
//! // A small BCC iron crystal (the paper's workload, scaled down).
//! let spec = LatticeSpec::bcc_fe(9);
//! let mut sim = Simulation::builder(spec)
//!     .potential(AnalyticEam::fe())
//!     .strategy(StrategyKind::Sdc { dims: 3 })
//!     .threads(2)
//!     .temperature(300.0)
//!     .seed(42)
//!     .build()
//!     .expect("valid configuration");
//!
//! sim.run(5);
//! let t = sim.thermo();
//! assert!(t.temperature > 0.0);
//! assert!(t.potential_energy < 0.0); // bound crystal
//! ```

pub use md_geometry as geometry;
pub use md_neighbor as neighbor;
pub use md_perfmodel as perfmodel;
pub use md_potential as potential;
pub use md_sim as sim;
pub use sdc_core as core;

/// Commonly used items, re-exported for convenience.
pub mod prelude {
    pub use md_geometry::{Aabb, Axis, Lattice, LatticeSpec, SimBox, Vec3};
    pub use md_neighbor::{CellGrid, Csr, NeighborList, NeighborListKind, VerletConfig};
    pub use md_potential::{
        AnalyticEam, EamPotential, LennardJones, Morse, PairPotential, TabulatedEam,
    };
    pub use md_sim::{
        CheckpointError, EngineError, FaultInjector, ForceEngine, InjectedFault, PotentialChoice,
        RecoveryConfig, RecoveryError, RecoveryReport, SimFault, Simulation, SimulationBuilder,
        System, Thermo, Thermostat, Watchdog, WatchdogConfig,
    };
    pub use sdc_core::{
        ColoredDecomposition, DecompositionConfig, DowngradeEvent, ParallelContext, ScatterExec,
        SdcPlan, StrategyKind,
    };
}
