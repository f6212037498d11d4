//! Free-form measured runs: pick a case, strategy, thread count and step
//! count; prints per-phase timing and thermodynamic sanity output.
//!
//! ```text
//! cargo run -p sdc-bench --release --bin sweep -- \
//!     --case 2 --scale 4 --strategy sdc2d --threads 4 --steps 20
//! ```
//!
//! Strategies: serial, sdc1d, sdc2d, sdc3d, cs, sap, rc.

use md_sim::{StrategyKind, Thermo};
use sdc_bench::{case_lattice, fe_simulation, Args};

fn main() {
    let args = Args::parse();
    let case: usize = args.get("--case", 1);
    let scale: usize = args.get("--scale", 4);
    let threads: usize = args.get("--threads", 1);
    let steps: usize = args.get("--steps", 10);
    let strategy = args
        .get_str("--strategy")
        .map(|s| StrategyKind::parse(s).unwrap_or_else(|| panic!("unknown strategy '{s}'")))
        .unwrap_or(StrategyKind::Serial);

    let spec = case_lattice(case, scale);
    println!(
        "case {case} at scale 1/{scale}: {} atoms | strategy {strategy} | {threads} threads | {steps} steps",
        spec.atom_count()
    );
    let mut sim = fe_simulation(spec, strategy, threads);
    if let Some(plan) = sim.engine().plan() {
        let d = plan.decomposition();
        println!(
            "decomposition: {:?} subdomains, {} colors, {} per color",
            d.counts(),
            d.color_count(),
            d.subdomains_per_color()
        );
    }
    println!("{}", Thermo::header());
    println!("{}", sim.thermo());
    let report_every = (steps / 5).max(1);
    for k in 0..steps {
        sim.step();
        if (k + 1) % report_every == 0 {
            println!("{}", sim.thermo());
        }
    }
    println!("\nphase timing:\n{}", sim.timers());
    println!(
        "\nneighbor rebuilds: {} | pairs stored: {}",
        sim.engine().rebuilds(),
        sim.engine().neighbor_list().entries()
    );
}
