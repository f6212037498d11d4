//! Criterion bench: one density + force sweep per strategy (the paper's
//! timed kernels), medium-small Fe crystal. Regenerates the strategy
//! ordering of Fig. 9 as directly measurable kernel times.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use md_geometry::LatticeSpec;
use md_potential::AnalyticEam;
use md_sim::{PotentialChoice, StrategyKind, System};
use std::sync::Arc;
use std::time::Duration;

fn bench_strategies(c: &mut Criterion) {
    let threads = 4;
    let mut group = c.benchmark_group("strategy_sweep");
    group.sample_size(10).measurement_time(Duration::from_secs(4));
    for strategy in [
        StrategyKind::Serial,
        StrategyKind::Sdc { dims: 2 },
        StrategyKind::Critical,
        StrategyKind::Privatized,
        StrategyKind::Redundant,
    ] {
        let system = System::from_lattice(LatticeSpec::bcc_fe(12), md_sim::units::FE_MASS);
        let pot = PotentialChoice::Eam(Arc::new(AnalyticEam::fe()));
        let t = if strategy == StrategyKind::Serial { 1 } else { threads };
        let mut engine =
            md_sim::ForceEngine::new(&system, pot, strategy, t, 0.3).expect("engine");
        let mut system = system;
        group.bench_function(BenchmarkId::from_parameter(strategy.name()), |b| {
            b.iter(|| engine.compute(&mut system));
        });
    }
    group.finish();
}

criterion_group!(benches, bench_strategies);
criterion_main!(benches);
