//! Dependency-graph scatter — the per-color barrier replaced by a task DAG.
//!
//! The SDC strategy (see [`crate::strategies::sdc`]) orders conflicting
//! subdomain tasks with *colors*: all tasks of color `k` run, a global
//! barrier, then color `k+1`. The barrier waits for the slowest task of each
//! color even when most of the box has long gone idle — the residual cost on
//! non-uniform densities that the per-color wall metrics expose.
//!
//! This module derives a finer ordering from the same geometric invariant.
//! Two subdomain tasks **conflict** exactly when their write footprints can
//! share an atom: a task writes its own atoms plus their list neighbors, all
//! of which lie inside the subdomain's AABB expanded by the interaction range
//! (`cutoff + skin`, the list radius). So tasks `a` and `b` conflict iff
//!
//! ```text
//! aabb(a).expanded(range)  intersects  aabb(b).expanded(range)   (periodic)
//! ```
//!
//! — the identical predicate `ColoredDecomposition::validate` uses to prove
//! the color scheme sound. Every conflicting pair gets a dependency edge
//! directed from the lower to the higher `(color, id)` rank, which makes the
//! graph acyclic by construction. By the paper's §II.B rule same-color
//! subdomains never conflict, so every edge climbs at least one color: the
//! colors are the levels of the DAG and the critical path holds at most one
//! task per color (8 in 3-D) whatever the subdomain count. A task becomes
//! runnable the moment its last conflicting lower-color neighbor finishes;
//! independent tasks never wait on each other at all. The only full join
//! left is one per sweep.
//!
//! **Determinism.** The edge direction is the whole argument: every pair of
//! tasks that write a common output element is ordered by color, so the
//! additions into each element arrive in ascending color order under *any*
//! worker interleaving, at *any* thread count. That is exactly the order of
//! the barriered SDC sweep, where each element has at most one writer per
//! color. Together with the same atom and neighbor-row order inside each
//! task, taskgraph results are **bitwise-equal** to barriered SDC
//! (DESIGN.md §14).
//!
//! Execution is a small work-stealing scheduler on scoped `std::thread`
//! workers, started per sweep, because rayon exposes no dependency hooks:
//! one deque per worker, owners pop the front, thieves steal from the back,
//! completions decrement dependent counters and push newly-ready tasks onto
//! the completing worker's deque. Each task is the same subdomain sweep the
//! barriered schedule runs ([`crate::strategies::sdc`]). Per-task
//! ready-latency and steal counters replace the per-color wall histograms
//! in [`ScatterMetrics`].

use crate::metrics::ScatterMetrics;
use crate::plan::SdcPlan;
use crate::scatter::{PairTerm, ScatterValue};
use crate::shared::SharedSlice;
use crate::strategies::sdc::sweep_subdomain;
use md_geometry::SimBox;
use md_neighbor::Csr;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// The conflict DAG over one plan's subdomain tasks (see module docs).
///
/// Edges run from the lower to the higher `(color, id)` rank between every
/// pair of tasks whose range-expanded AABBs intersect under periodic
/// boundary conditions; stored as a dependents CSR plus per-task indegrees
/// and the rank order, which is topological.
#[derive(Debug, Clone)]
pub struct TaskGraph {
    /// CSR offsets into `dependents`, one slot per task plus a tail.
    dep_offsets: Vec<u32>,
    /// For task `t`: the higher-rank tasks whose pending count drops when
    /// `t` completes, ascending by id.
    dependents: Vec<u32>,
    /// Incoming-edge count per task (the initial pending count).
    indegree: Vec<u32>,
    /// Task ids sorted by `(color, id)`: a topological order.
    order: Vec<u32>,
}

impl TaskGraph {
    /// Builds the conflict DAG for `decomp` inside `sim_box`.
    ///
    /// O(S²) in the subdomain count — S is small (the decomposition caps
    /// counts per axis) and the graph is rebuilt only when the plan is.
    pub fn build(decomp: &crate::decomposition::ColoredDecomposition, sim_box: &SimBox) -> TaskGraph {
        let n = decomp.subdomain_count();
        let range = decomp.range();
        let rank = |s: usize| (decomp.color_of(s), s);
        let mut indegree = vec![0u32; n];
        let mut counts = vec![0u32; n];
        let mut edges: Vec<(u32, u32)> = Vec::new();
        let halos: Vec<_> = (0..n).map(|s| decomp.aabb(s).expanded(range)).collect();
        for (a, halo_a) in halos.iter().enumerate() {
            for (off, halo_b) in halos[a + 1..].iter().enumerate() {
                let b = a + 1 + off;
                if halo_a.intersects_periodic(halo_b, sim_box) {
                    debug_assert_ne!(
                        decomp.color_of(a),
                        decomp.color_of(b),
                        "same-color subdomains {a} and {b} conflict"
                    );
                    let (src, dst) = if rank(a) < rank(b) { (a, b) } else { (b, a) };
                    edges.push((src as u32, dst as u32));
                    counts[src] += 1;
                    indegree[dst] += 1;
                }
            }
        }
        let mut dep_offsets = vec![0u32; n + 1];
        for t in 0..n {
            dep_offsets[t + 1] = dep_offsets[t] + counts[t];
        }
        // Sorted, each task's dependent list comes out ascending by id.
        edges.sort_unstable();
        let dependents = edges.iter().map(|&(_, b)| b).collect();
        let mut order: Vec<u32> = (0..n as u32).collect();
        order.sort_unstable_by_key(|&s| rank(s as usize));
        TaskGraph { dep_offsets, dependents, indegree, order }
    }

    /// Number of tasks (subdomains).
    #[inline]
    pub fn task_count(&self) -> usize {
        self.indegree.len()
    }

    /// Number of conflict edges.
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.dependents.len()
    }

    /// The higher-rank tasks depending on `t`, ascending by id.
    #[inline]
    pub fn dependents_of(&self, t: usize) -> &[u32] {
        let lo = self.dep_offsets[t] as usize;
        let hi = self.dep_offsets[t + 1] as usize;
        &self.dependents[lo..hi]
    }

    /// Incoming-edge counts per task.
    #[inline]
    pub fn indegree(&self) -> &[u32] {
        &self.indegree
    }

    /// True when the DAG orders `a` before `b` by a direct edge (`b` is in
    /// `a`'s dependent list).
    pub fn has_edge(&self, a: usize, b: usize) -> bool {
        self.dependents_of(a).binary_search(&(b as u32)).is_ok()
    }

    /// Longest path through the DAG in cost units — the makespan lower bound
    /// no amount of parallelism can beat. `costs[t]` is task `t`'s work
    /// (typically its stored-pair count).
    ///
    /// A single forward DP pass over the stored `(color, id)` order, which
    /// is topological, suffices.
    ///
    /// # Panics
    /// Panics if `costs` is shorter than the task count.
    pub fn critical_path_units(&self, costs: &[f64]) -> f64 {
        let n = self.task_count();
        assert!(costs.len() >= n, "need one cost per task: {} < {n}", costs.len());
        let mut longest_to = vec![0.0f64; n]; // longest path *into* t, excl. t
        let mut cp = 0.0f64;
        for &t in &self.order {
            let t = t as usize;
            let finish = longest_to[t] + costs[t];
            cp = cp.max(finish);
            for &d in self.dependents_of(t) {
                let d = d as usize;
                if finish > longest_to[d] {
                    longest_to[d] = finish;
                }
            }
        }
        cp
    }

    /// Exhaustively verifies the safety contract against a real plan and
    /// half list: any two tasks *not* ordered by an edge must have disjoint
    /// write footprints (own atoms ∪ their list neighbors). Debug builds run
    /// this on every scatter; release builds skip it.
    pub fn validate_independence(&self, plan: &SdcPlan, half: &Csr) -> Result<(), String> {
        let n = self.task_count();
        if n != plan.decomposition().subdomain_count() {
            return Err(format!(
                "graph has {n} tasks but plan has {} subdomains",
                plan.decomposition().subdomain_count()
            ));
        }
        let atoms = half.rows();
        let words = atoms.div_ceil(64);
        let mut footprints: Vec<Vec<u64>> = Vec::with_capacity(n);
        for s in 0..n {
            let mut bits = vec![0u64; words];
            for &i in plan.atoms_of(s) {
                let i = i as usize;
                bits[i / 64] |= 1 << (i % 64);
                for &j in half.row(i) {
                    let j = j as usize;
                    bits[j / 64] |= 1 << (j % 64);
                }
            }
            footprints.push(bits);
        }
        for a in 0..n {
            for b in (a + 1)..n {
                if self.has_edge(a, b) || self.has_edge(b, a) {
                    continue;
                }
                let overlap = footprints[a]
                    .iter()
                    .zip(&footprints[b])
                    .any(|(&x, &y)| x & y != 0);
                if overlap {
                    return Err(format!(
                        "tasks {a} and {b} are unordered but their write footprints overlap"
                    ));
                }
            }
        }
        Ok(())
    }

    /// The dependency schedule: executes every task exactly once on
    /// `threads` scoped workers, respecting all edges — `task(id, worker)`
    /// runs only after every task with an edge into `id` has returned.
    /// Work-stealing: initially-ready tasks are dealt round-robin across the
    /// per-worker deques in ascending id order, each worker pops its own
    /// front and steals from others' backs, and a completion pushes
    /// newly-ready dependents onto the completing worker's deque.
    ///
    /// With metrics on, records per-task busy time (worker indices), task
    /// and steal counts, and the ready→start latency histogram.
    pub(crate) fn run<F>(&self, threads: usize, metrics: Option<&ScatterMetrics>, task: F)
    where
        F: Fn(u32, usize) + Sync,
    {
        let n = self.task_count();
        if n == 0 {
            return;
        }
        let threads = threads.clamp(1, n);
        let pending: Vec<AtomicU32> = self.indegree().iter().map(|&d| AtomicU32::new(d)).collect();
        let deques: Vec<Mutex<VecDeque<u32>>> =
            (0..threads).map(|_| Mutex::new(VecDeque::new())).collect();
        let completed = AtomicUsize::new(0);
        let epoch = Instant::now();
        // Nanoseconds after `epoch` at which each task became ready; only
        // allocated when metrics are on (zero cost otherwise).
        let ready_at: Option<Vec<AtomicU64>> =
            metrics.map(|_| (0..n).map(|_| AtomicU64::new(0)).collect());
        {
            let mut dealt = 0usize;
            for t in 0..n {
                if self.indegree()[t] == 0 {
                    deques[dealt % threads].lock().unwrap().push_back(t as u32);
                    dealt += 1;
                }
            }
            debug_assert!(dealt > 0, "a non-empty DAG must have a source task");
        }
        let worker = |w: usize| {
            loop {
                if completed.load(Ordering::Acquire) >= n {
                    break;
                }
                let mut popped = deques[w].lock().unwrap().pop_front();
                if popped.is_none() {
                    for off in 1..threads {
                        let victim = (w + off) % threads;
                        if let Some(t) = deques[victim].lock().unwrap().pop_back() {
                            if let Some(m) = metrics {
                                m.steals.inc();
                            }
                            popped = Some(t);
                            break;
                        }
                    }
                }
                let Some(t) = popped else {
                    // Ready queues are dry but tasks are still pending on
                    // running predecessors; let them finish.
                    std::thread::yield_now();
                    continue;
                };
                let start = metrics.map(|_| Instant::now());
                if let (Some(m), Some(ready), Some(s)) = (metrics, ready_at.as_ref(), start) {
                    let waited = (s - epoch)
                        .as_nanos()
                        .saturating_sub(ready[t as usize].load(Ordering::Relaxed).into());
                    m.ready_latency.record_ns(waited as u64);
                }
                task(t, w);
                if let (Some(m), Some(s)) = (metrics, start) {
                    m.add_busy_ns(w, s.elapsed().as_nanos() as u64);
                    m.tasks.inc();
                }
                for &d in self.dependents_of(t as usize) {
                    // AcqRel: the last decrement acquires every predecessor's
                    // release, so the dependent observes all their writes.
                    if pending[d as usize].fetch_sub(1, Ordering::AcqRel) == 1 {
                        if let Some(ready) = ready_at.as_ref() {
                            ready[d as usize]
                                .store(epoch.elapsed().as_nanos() as u64, Ordering::Relaxed);
                        }
                        deques[w].lock().unwrap().push_back(d);
                    }
                }
                completed.fetch_add(1, Ordering::Release);
            }
        };
        if threads == 1 {
            worker(0);
        } else {
            std::thread::scope(|scope| {
                for w in 1..threads {
                    scope.spawn(move || worker(w));
                }
                worker(0);
            });
        }
        debug_assert_eq!(completed.load(Ordering::Acquire), n, "lost task completions");
    }
}

/// Dependency-driven scatter over a half list on `threads` workers: the
/// task-graph schedule of the SDC subdomain sweep, same kernel contract as
/// [`crate::strategies::sdc::scatter_sdc`] (each stored pair visited exactly
/// once, slot = its half-list storage index). `graph` must be the conflict
/// DAG of `plan`'s decomposition.
pub fn scatter_taskgraph<V: ScatterValue>(
    threads: usize,
    graph: &TaskGraph,
    plan: &SdcPlan,
    half: &Csr,
    out: &mut [V],
    kernel: &(impl Fn(usize, usize, usize) -> Option<PairTerm<V>> + Sync),
    metrics: Option<&ScatterMetrics>,
) {
    debug_assert!(
        graph.validate_independence(plan, half).is_ok(),
        "task graph out of sync with the plan: {:?}",
        graph.validate_independence(plan, half)
    );
    let shared = SharedSlice::new(out);
    graph.run(threads, metrics, |s, _worker| {
        // SAFETY: tasks not ordered by an edge have disjoint write
        // footprints (checked above); ordered tasks never run concurrently,
        // and the completion protocol's release/acquire chain makes the
        // earlier task's writes visible to the later one.
        unsafe { sweep_subdomain(plan, half, &shared, s as usize, kernel) }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decomposition::{ColoredDecomposition, DecompositionConfig};
    use md_geometry::LatticeSpec;
    use md_neighbor::{NeighborList, VerletConfig};

    const CUTOFF: f64 = 5.67;
    const SKIN: f64 = 0.3;
    const RANGE: f64 = CUTOFF + SKIN;

    fn fixture(cells: usize, dims: usize) -> (md_geometry::SimBox, Vec<md_geometry::Vec3>, NeighborList, SdcPlan) {
        let (bx, pos) = LatticeSpec::bcc_fe(cells).build();
        let nl = NeighborList::build(&bx, &pos, VerletConfig::half(CUTOFF, SKIN));
        let plan = SdcPlan::build(&bx, &pos, DecompositionConfig::new(dims, RANGE)).unwrap();
        (bx, pos, nl, plan)
    }

    #[test]
    fn edges_match_the_validate_predicate_and_point_upward() {
        for dims in 1..=3 {
            let (bx, _, _, plan) = fixture(17, dims);
            let decomp = plan.decomposition();
            let graph = TaskGraph::build(decomp, &bx);
            let n = decomp.subdomain_count();
            assert_eq!(graph.task_count(), n);
            let rank = |s: usize| (decomp.color_of(s), s);
            let mut expect = 0usize;
            for a in 0..n {
                let ha = decomp.aabb(a).expanded(decomp.range());
                for b in (a + 1)..n {
                    let hb = decomp.aabb(b).expanded(decomp.range());
                    let conflict = ha.intersects_periodic(&hb, &bx);
                    let (lo, hi) = if rank(a) < rank(b) { (a, b) } else { (b, a) };
                    assert_eq!(
                        graph.has_edge(lo, hi),
                        conflict,
                        "dims {dims}: edge ({lo},{hi})"
                    );
                    assert!(!graph.has_edge(hi, lo), "edge must point up in (color, id)");
                    if conflict {
                        expect += 1;
                    }
                }
            }
            assert_eq!(graph.edge_count(), expect, "dims {dims}");
            // Every stored edge climbs at least one color.
            for a in 0..n {
                for &b in graph.dependents_of(a) {
                    assert!(
                        decomp.color_of(a) < decomp.color_of(b as usize),
                        "dims {dims}: edge {a}→{b} does not climb a color"
                    );
                }
            }
            let mut sorted = graph.order.clone();
            sorted.sort_unstable_by_key(|&s| rank(s as usize));
            assert_eq!(graph.order, sorted, "dims {dims}: order");
            // Indegrees are consistent with the dependent lists.
            let mut indeg = vec![0u32; n];
            for a in 0..n {
                for &b in graph.dependents_of(a) {
                    indeg[b as usize] += 1;
                }
            }
            assert_eq!(indeg, graph.indegree(), "dims {dims}");
        }
    }

    #[test]
    fn independence_validates_against_real_footprints() {
        for dims in 1..=3 {
            let (bx, _, nl, plan) = fixture(17, dims);
            let graph = TaskGraph::build(plan.decomposition(), &bx);
            graph
                .validate_independence(&plan, nl.csr())
                .unwrap_or_else(|e| panic!("dims {dims}: {e}"));
        }
    }

    #[test]
    fn critical_path_bounds() {
        let (bx, _, nl, plan) = fixture(17, 2);
        let graph = TaskGraph::build(plan.decomposition(), &bx);
        let costs: Vec<f64> = plan.pair_counts(nl.csr()).iter().map(|&c| c as f64).collect();
        let cp = graph.critical_path_units(&costs);
        let max = costs.iter().cloned().fold(0.0, f64::max);
        let total: f64 = costs.iter().sum();
        assert!(cp >= max, "critical path {cp} below heaviest task {max}");
        assert!(cp <= total, "critical path {cp} above serial total {total}");
        // A chain graph degenerates to the serial total.
        let chain = TaskGraph {
            dep_offsets: vec![0, 1, 2, 2],
            dependents: vec![1, 2],
            indegree: vec![0, 1, 1],
            order: vec![0, 1, 2],
        };
        assert_eq!(chain.critical_path_units(&[1.0, 2.0, 4.0]), 7.0);
        // Fully independent tasks: the heaviest one.
        let free = TaskGraph {
            dep_offsets: vec![0, 0, 0, 0],
            dependents: vec![],
            indegree: vec![0, 0, 0],
            order: vec![0, 1, 2],
        };
        assert_eq!(free.critical_path_units(&[1.0, 2.0, 4.0]), 4.0);
    }

    #[test]
    fn critical_path_is_at_most_one_task_per_color() {
        for cells in [9usize, 13, 17, 26, 40] {
            let bx = LatticeSpec::bcc_fe(cells).sim_box();
            for dims in 1..=3 {
                let decomp = ColoredDecomposition::new(&bx, DecompositionConfig::new(dims, RANGE))
                    .unwrap_or_else(|e| panic!("{cells} cells, dims {dims}: {e}"));
                let graph = TaskGraph::build(&decomp, &bx);
                let n = graph.task_count();
                let cp = graph.critical_path_units(&vec![1.0; n]);
                assert!(
                    cp <= decomp.color_count() as f64,
                    "{cells} cells, dims {dims}: critical path {cp} tasks of {n} exceeds {} colors",
                    decomp.color_count()
                );
            }
        }
    }

    /// Per-element ownership check for the subdomain sweep on real threads:
    /// each running task claims every element it writes, and a claim held
    /// by another task is a cross-task write inside one color or one ready
    /// set.
    struct Owners {
        /// 0 = free, otherwise the owning task id + 1.
        owner: Vec<AtomicU32>,
        conflicts: AtomicUsize,
        in_flight: AtomicUsize,
        peak: AtomicUsize,
    }

    impl Owners {
        fn new(n: usize) -> Owners {
            Owners {
                owner: (0..n).map(|_| AtomicU32::new(0)).collect(),
                conflicts: AtomicUsize::new(0),
                in_flight: AtomicUsize::new(0),
                peak: AtomicUsize::new(0),
            }
        }

        fn claim(&self, e: usize, id: u32) -> bool {
            match self.owner[e].compare_exchange(0, id, Ordering::SeqCst, Ordering::SeqCst) {
                Ok(_) => true,
                Err(held) => held == id,
            }
        }

        /// Runs subdomain `s` as one task through the shared sweep. A pair
        /// whose elements another running task holds is counted and not
        /// written; the claims are released when the task ends.
        fn task(&self, plan: &SdcPlan, half: &Csr, out: &SharedSlice<'_, f64>, s: usize) {
            let now = self.in_flight.fetch_add(1, Ordering::SeqCst) + 1;
            self.peak.fetch_max(now, Ordering::SeqCst);
            // Until two tasks have overlapped once, hold the first one
            // until a second starts (bounded): a schedule that runs tasks
            // side by side gets there, a serializing one times out.
            let start = Instant::now();
            while self.peak.load(Ordering::SeqCst) < 2 && start.elapsed().as_secs() < 2 {
                self.peak
                    .fetch_max(self.in_flight.load(Ordering::SeqCst), Ordering::SeqCst);
                std::hint::spin_loop();
            }
            let id = s as u32 + 1;
            let kernel = |_: usize, i: usize, j: usize| {
                if self.claim(i, id) && self.claim(j, id) {
                    Some(PairTerm::symmetric(1.0))
                } else {
                    self.conflicts.fetch_add(1, Ordering::SeqCst);
                    None
                }
            };
            // SAFETY: a pair is written only after both of its elements
            // were claimed for this task, and a claim shuts every other
            // task out of the element until the release below.
            unsafe { sweep_subdomain(plan, half, out, s, &kernel) };
            for &i in plan.atoms_of(s) {
                for &e in std::iter::once(&i).chain(half.row(i as usize)) {
                    let _ = self.owner[e as usize].compare_exchange(
                        id,
                        0,
                        Ordering::SeqCst,
                        Ordering::SeqCst,
                    );
                }
            }
            self.in_flight.fetch_sub(1, Ordering::SeqCst);
        }
    }

    /// Runs one schedule over `plan` with the ownership check on every
    /// task; returns the check and the scattered per-atom pair counts.
    fn owned_sweep(
        plan: &SdcPlan,
        half: &Csr,
        schedule: impl FnOnce(&(dyn Fn(usize) + Sync)),
    ) -> (Owners, Vec<f64>) {
        let owners = Owners::new(half.rows());
        let mut out = vec![0.0f64; half.rows()];
        {
            let shared = SharedSlice::new(&mut out);
            schedule(&|s| owners.task(plan, half, &shared, s));
        }
        (owners, out)
    }

    #[test]
    fn subdomain_sweep_never_shares_an_element_between_running_tasks() {
        // 3-D, 17 cells: 64 tasks, 8 per color, so two workers always have
        // same-color (barrier) or unordered (DAG) tasks to run side by side.
        let (bx, _, nl, plan) = fixture(17, 3);
        let half = nl.csr();
        let full = nl.to_full();
        let degree: Vec<f64> = (0..half.rows())
            .map(|i| full.neighbors(i).len() as f64)
            .collect();
        let graph = TaskGraph::build(plan.decomposition(), &bx);
        let ctx = crate::ParallelContext::new(2);
        let by_color = owned_sweep(&plan, half, |task| {
            crate::strategies::sdc::run_by_color(&ctx, &plan, None, task)
        });
        let by_graph = owned_sweep(&plan, half, |task| {
            graph.run(2, None, |s, _| task(s as usize))
        });
        for (name, (owners, out)) in [("barrier", by_color), ("graph", by_graph)] {
            assert_eq!(
                owners.conflicts.load(Ordering::SeqCst),
                0,
                "{name}: cross-task write"
            );
            assert_eq!(
                owners.peak.load(Ordering::SeqCst),
                2,
                "{name}: tasks never overlapped"
            );
            assert_eq!(out, degree, "{name}: a pair was skipped or repeated");
        }
        // Negative control: without conflict edges adjacent subdomains run
        // side by side and the check must catch their shared halo atoms.
        let n = graph.task_count();
        let edgeless = TaskGraph {
            dep_offsets: vec![0; n + 1],
            dependents: vec![],
            indegree: vec![0; n],
            order: (0..n as u32).collect(),
        };
        let (owners, _) = owned_sweep(&plan, half, |task| {
            edgeless.run(2, None, |s, _| task(s as usize))
        });
        assert_eq!(owners.peak.load(Ordering::SeqCst), 2);
        assert!(
            owners.conflicts.load(Ordering::SeqCst) > 0,
            "an edgeless graph must trip the ownership check"
        );
    }

    #[test]
    fn run_executes_every_task_once_in_dependency_order() {
        let (bx, _, _, plan) = fixture(17, 3);
        let graph = TaskGraph::build(plan.decomposition(), &bx);
        let n = graph.task_count();
        for threads in [1usize, 2, 4, 7] {
            let runs: Vec<AtomicU32> = (0..n).map(|_| AtomicU32::new(0)).collect();
            let finish_order = Mutex::new(Vec::new());
            graph.run(threads, None, |t, w| {
                assert!(w < threads);
                runs[t as usize].fetch_add(1, Ordering::SeqCst);
                finish_order.lock().unwrap().push(t);
            });
            for (t, r) in runs.iter().enumerate() {
                assert_eq!(r.load(Ordering::SeqCst), 1, "t{threads}: task {t}");
            }
            // Every edge respected: the source finished before the sink.
            let order = finish_order.into_inner().unwrap();
            let mut position = vec![0usize; n];
            for (k, &t) in order.iter().enumerate() {
                position[t as usize] = k;
            }
            for a in 0..n {
                for &b in graph.dependents_of(a) {
                    assert!(
                        position[a] < position[b as usize],
                        "t{threads}: edge {a}→{b} violated"
                    );
                }
            }
        }
    }

    #[test]
    fn scatter_matches_sdc_bitwise() {
        for dims in 1..=3 {
            let (bx, pos, nl, plan) = fixture(17, dims);
            let kernel = |_: usize, i: usize, j: usize| {
                let r2 = bx.distance_sq(pos[i], pos[j]);
                (r2 < CUTOFF * CUTOFF).then(|| PairTerm::symmetric(1.0 / (1.0 + r2)))
            };
            let mut reference = vec![0.0f64; pos.len()];
            let ctx = crate::ParallelContext::new(2);
            crate::strategies::sdc::scatter_sdc(
                &ctx,
                &plan,
                nl.csr(),
                &mut reference,
                &kernel,
                None,
            );
            let graph = TaskGraph::build(plan.decomposition(), &bx);
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            for threads in [1usize, 2, 4, 8] {
                for _ in 0..2 {
                    let mut got = vec![0.0f64; pos.len()];
                    scatter_taskgraph(threads, &graph, &plan, nl.csr(), &mut got, &kernel, None);
                    assert_eq!(
                        bits(&reference),
                        bits(&got),
                        "dims {dims}, t{threads}: taskgraph scatter differs from SDC"
                    );
                }
            }
        }
    }

    #[test]
    fn metered_scatter_counts_every_task() {
        let (bx, pos, nl, plan) = fixture(17, 3);
        let graph = TaskGraph::build(plan.decomposition(), &bx);
        let metrics = ScatterMetrics::new(4);
        let mut out = vec![0.0f64; pos.len()];
        scatter_taskgraph(
            4,
            &graph,
            &plan,
            nl.csr(),
            &mut out,
            &|_, _, _| Some(PairTerm::symmetric(1.0)),
            Some(&metrics),
        );
        let n = plan.decomposition().subdomain_count() as u64;
        assert_eq!(metrics.tasks.get(), n, "every task completion counted");
        assert_eq!(metrics.ready_latency.count(), n);
        assert_eq!(metrics.color_barriers.get(), 0, "no color barriers here");
        let busy: u64 = (0..metrics.threads())
            .map(|w| metrics.thread_busy_ns[w].get())
            .sum();
        assert!(busy > 0, "busy time attributed to the graph workers");
    }
}
