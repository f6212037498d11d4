//! All strategies, one crystal: verifies that every parallelization strategy
//! computes identical physics, then times them head-to-head (the measured
//! counterpart of the paper's Fig. 9 on whatever machine this runs on).
//!
//! ```text
//! cargo run --release --example strategy_showdown
//! ```

use sdc_md::prelude::*;
use std::time::Instant;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let spec = LatticeSpec::bcc_fe(17);
    let threads = 4;
    let steps = 10;
    println!(
        "{} Fe atoms, {threads} threads, {steps} timed steps per strategy\n",
        spec.atom_count()
    );

    let strategies = [
        StrategyKind::Serial,
        StrategyKind::Sdc { dims: 1 },
        StrategyKind::Sdc { dims: 2 },
        StrategyKind::Sdc { dims: 3 },
        StrategyKind::Critical,
        StrategyKind::Privatized,
        StrategyKind::Redundant,
    ];

    let mut reference_energy: Option<f64> = None;
    let mut serial_time: Option<f64> = None;
    println!(
        "{:<12} {:>14} {:>12} {:>10} {:>22}",
        "strategy", "s/step (D+F)", "speedup", "rebuilds", "total energy (eV)"
    );
    for strategy in strategies {
        let t = if strategy == StrategyKind::Serial { 1 } else { threads };
        let mut sim = Simulation::builder(spec)
            .potential(AnalyticEam::fe())
            .strategy(strategy)
            .threads(t)
            .temperature(300.0)
            .seed(42)
            .build()?;
        sim.run(2); // warm-up
        sim.reset_timers();
        let wall = Instant::now();
        sim.run(steps);
        let _ = wall.elapsed();
        let per_step = sim.timers().paper_time().as_secs_f64() / steps as f64;
        let energy = sim.thermo().total;

        // Same seed + deterministic integrator ⇒ identical trajectories up
        // to FP summation order: total energies agree tightly.
        match reference_energy {
            None => reference_energy = Some(energy),
            Some(e0) => assert!(
                (energy - e0).abs() < 1e-6 * e0.abs(),
                "{strategy}: energy {energy} deviates from serial {e0}"
            ),
        }
        let speedup = match serial_time {
            None => {
                serial_time = Some(per_step);
                1.0
            }
            Some(s) => s / per_step,
        };
        println!(
            "{:<12} {:>14.5} {:>12.2} {:>10} {:>22.6}",
            strategy.name(),
            per_step,
            speedup,
            sim.engine().rebuilds(),
            energy
        );
    }

    println!("\nall strategies agree on the physics ✓");
    println!("(on a single-core host the speedup column stays near 1; run on a");
    println!("multi-core machine — or use `cargo run -p sdc-bench --bin fig9` —");
    println!("to see the paper's ordering emerge)");
    Ok(())
}
