//! Criterion bench: linked-cell binning and Verlet list construction —
//! the half list (SDC/CS/SAP input) vs the full list (the RC baseline's
//! doubled structure, paper §I memory argument), plus the list build at
//! the reference size on 1 and 2 workers.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use md_geometry::LatticeSpec;
use md_neighbor::{CellGrid, NeighborList, VerletConfig};
use std::time::Duration;

fn bench_builds(c: &mut Criterion) {
    let (bx, pos) = LatticeSpec::bcc_fe(12).build();
    let mut group = c.benchmark_group("neighbor_build");
    group.sample_size(10).measurement_time(Duration::from_secs(4));
    group.bench_function(BenchmarkId::from_parameter("cell_grid"), |b| {
        b.iter(|| CellGrid::build(&bx, &pos, 5.97));
    });
    group.bench_function(BenchmarkId::from_parameter("half_list"), |b| {
        b.iter(|| NeighborList::build(&bx, &pos, VerletConfig::half(5.67, 0.3)));
    });
    group.bench_function(BenchmarkId::from_parameter("full_list"), |b| {
        b.iter(|| NeighborList::build(&bx, &pos, VerletConfig::full(5.67, 0.3)));
    });
    group.finish();
}

/// The one list builder at the benchmark's reference size — 35,152-atom
/// bcc Fe (26³ unit cells), half list — on 1- and 2-worker pools: the
/// rebuild cost `md-perfmodel::rebuild_seconds` models. Before any timing
/// it asserts that both worker counts give the same CSR, so a smoke run
/// (`cargo test --benches`) checks the parallel build at full size.
fn bench_parallel_builds(c: &mut Criterion) {
    let cfg = VerletConfig::half(5.67, 0.3);
    let (bx, pos) = LatticeSpec::bcc_fe(26).build();
    let pools: Vec<(usize, rayon::ThreadPool)> = [1usize, 2]
        .into_iter()
        .map(|t| {
            let pool = rayon::ThreadPoolBuilder::new().num_threads(t).build();
            (t, pool.expect("thread pool"))
        })
        .collect();
    let lists: Vec<NeighborList> = pools
        .iter()
        .map(|(_, pool)| pool.install(|| NeighborList::build_parallel(&bx, &pos, cfg)))
        .collect();
    assert_eq!(
        lists[0].csr(),
        lists[1].csr(),
        "1- and 2-worker builds differ"
    );
    let mut group = c.benchmark_group(format!("neighbor_build_par/{}atoms", pos.len()));
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(4));
    for (threads, pool) in &pools {
        group.bench_function(BenchmarkId::from_parameter(format!("par{threads}")), |b| {
            b.iter(|| pool.install(|| NeighborList::build_parallel(&bx, &pos, cfg)));
        });
    }
    group.finish();
}

criterion_group!(benches, bench_builds, bench_parallel_builds);
criterion_main!(benches);
