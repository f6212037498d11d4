//! Phase-resolved wall-clock accounting.
//!
//! The paper's §III.A measurement protocol: "All of execution times of our
//! experiments are the running times of the calculations of the electron
//! densities and forces, since these two parts are the most time-consuming
//! components." These timers expose exactly that — per-phase accumulated
//! time — so the harness reports the same quantity the paper does.

use std::time::{Duration, Instant};

/// The phases of one EAM time-step.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Phase {
    /// Electron-density accumulation (paper Fig. 7).
    Density,
    /// Embedding-function evaluation (paper §II.C phase 2).
    Embedding,
    /// Force accumulation (paper Fig. 8).
    Force,
    /// Neighbor-list / decomposition (re)builds.
    Neighbor,
    /// Integration, thermostats and everything else.
    Other,
}

impl Phase {
    /// All phases, in execution order.
    pub const ALL: [Phase; 5] = [
        Phase::Density,
        Phase::Embedding,
        Phase::Force,
        Phase::Neighbor,
        Phase::Other,
    ];

    fn index(self) -> usize {
        match self {
            Phase::Density => 0,
            Phase::Embedding => 1,
            Phase::Force => 2,
            Phase::Neighbor => 3,
            Phase::Other => 4,
        }
    }
}

/// Accumulated per-phase wall-clock time and invocation counts.
#[derive(Debug, Clone, Default)]
pub struct PhaseTimers {
    elapsed: [Duration; 5],
    counts: [u64; 5],
}

impl PhaseTimers {
    /// Fresh, zeroed timers.
    pub fn new() -> PhaseTimers {
        PhaseTimers::default()
    }

    /// Times `f` and charges it to `phase`.
    #[inline]
    pub fn time<R>(&mut self, phase: Phase, f: impl FnOnce() -> R) -> R {
        let start = Instant::now();
        let out = f();
        self.add(phase, start.elapsed());
        out
    }

    /// Adds an externally measured duration to `phase`.
    pub fn add(&mut self, phase: Phase, d: Duration) {
        self.elapsed[phase.index()] += d;
        self.counts[phase.index()] += 1;
    }

    /// Accumulated time in `phase`.
    pub fn elapsed(&self, phase: Phase) -> Duration {
        self.elapsed[phase.index()]
    }

    /// Number of invocations charged to `phase`.
    pub fn count(&self, phase: Phase) -> u64 {
        self.counts[phase.index()]
    }

    /// The paper's measured quantity: density + force time.
    pub fn paper_time(&self) -> Duration {
        self.elapsed(Phase::Density) + self.elapsed(Phase::Force)
    }

    /// Total accumulated time over all phases.
    pub fn total(&self) -> Duration {
        self.elapsed.iter().sum()
    }

    /// Resets all counters.
    pub fn reset(&mut self) {
        *self = PhaseTimers::default();
    }

    /// Merges another timer set into this one.
    pub fn merge(&mut self, other: &PhaseTimers) {
        for p in Phase::ALL {
            self.elapsed[p.index()] += other.elapsed[p.index()];
            self.counts[p.index()] += other.counts[p.index()];
        }
    }
}

impl std::fmt::Display for PhaseTimers {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "{:<10} {:>12} {:>8}", "phase", "seconds", "calls")?;
        for p in Phase::ALL {
            writeln!(
                f,
                "{:<10} {:>12.6} {:>8}",
                format!("{p:?}"),
                self.elapsed(p).as_secs_f64(),
                self.count(p)
            )?;
        }
        write!(
            f,
            "{:<10} {:>12.6} (density + force, the paper's metric)",
            "paper",
            self.paper_time().as_secs_f64()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_charges_the_right_phase() {
        let mut t = PhaseTimers::new();
        let x = t.time(Phase::Density, || 41 + 1);
        assert_eq!(x, 42);
        assert_eq!(t.count(Phase::Density), 1);
        assert_eq!(t.count(Phase::Force), 0);
        assert!(t.elapsed(Phase::Density) > Duration::ZERO);
    }

    #[test]
    fn paper_time_is_density_plus_force() {
        let mut t = PhaseTimers::new();
        t.add(Phase::Density, Duration::from_millis(10));
        t.add(Phase::Force, Duration::from_millis(20));
        t.add(Phase::Neighbor, Duration::from_millis(500));
        assert_eq!(t.paper_time(), Duration::from_millis(30));
        assert_eq!(t.total(), Duration::from_millis(530));
    }

    #[test]
    fn reset_and_merge() {
        let mut a = PhaseTimers::new();
        a.add(Phase::Force, Duration::from_millis(5));
        let mut b = PhaseTimers::new();
        b.add(Phase::Force, Duration::from_millis(7));
        b.add(Phase::Other, Duration::from_millis(1));
        a.merge(&b);
        assert_eq!(a.elapsed(Phase::Force), Duration::from_millis(12));
        assert_eq!(a.count(Phase::Force), 2);
        a.reset();
        assert_eq!(a.total(), Duration::ZERO);
    }

    #[test]
    fn display_mentions_the_paper_metric() {
        let t = PhaseTimers::new();
        let s = t.to_string();
        assert!(s.contains("paper"));
        assert!(s.contains("Density"));
    }
}
