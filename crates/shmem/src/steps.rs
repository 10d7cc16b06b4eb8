//! The paper's cost model: per-process step accounting.
//!
//! The complexity of every algorithm in the paper is measured in *process
//! steps* — shared-memory reads and writes, with all coin flips between two
//! shared-memory operations counted as one step (§2). Because atomic
//! test-and-set operations are available on most modern machines, several
//! upper bounds are also stated counting test-and-set invocations as having
//! unit cost. [`StepStats`] tracks all of these categories separately so the
//! experiments can report either cost measure.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign};

/// The category of a single shared-memory step.
///
/// Each variant corresponds to one class of operation counted by the paper's
/// cost model.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum StepKind {
    /// A read of a shared atomic register.
    RegisterRead,
    /// A write to a shared atomic register.
    RegisterWrite,
    /// A read-modify-write on a shared register (compare-and-swap, swap,
    /// fetch-and-add). Used by baselines and by hardware test-and-set.
    ReadModifyWrite,
    /// An invocation of a test-and-set *object* (the unit-cost measure the
    /// paper uses when hardware test-and-set is assumed available). The
    /// register steps performed *inside* a software test-and-set are counted
    /// separately under the other categories.
    TasInvocation,
    /// A batch of local coin flips between two shared-memory operations
    /// (counted as a single step, per §2).
    CoinFlip,
    /// A release of a previously acquired name back to a long-lived renaming
    /// object (one push onto its free list). The paper's objects are
    /// one-shot, so this category only appears in long-lived executions; it
    /// is tracked separately so the one-shot cost measures stay comparable.
    Release,
    /// A toggle of a balancer in a balancing (counting) network — one atomic
    /// flip deciding whether a traversing token exits on the top or bottom
    /// wire. Balancers are the counting-network analogue of the renaming
    /// network's two-process test-and-sets, so their unit-cost measure is
    /// tracked separately (like [`StepKind::TasInvocation`]) rather than
    /// being folded into the generic read-modify-write bucket.
    Balancer,
    /// An operation on an elimination/diffraction prism slot — the loads,
    /// compare-and-swaps and resets by which two colliding increments pair
    /// off *before* entering a counting network. Tracked as its own
    /// unit-cost measure (like [`StepKind::Balancer`]) so experiments can
    /// report how much work a prism in front of a network costs.
    Elimination,
}

impl fmt::Display for StepKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            StepKind::RegisterRead => "register-read",
            StepKind::RegisterWrite => "register-write",
            StepKind::ReadModifyWrite => "read-modify-write",
            StepKind::TasInvocation => "tas-invocation",
            StepKind::CoinFlip => "coin-flip",
            StepKind::Release => "release",
            StepKind::Balancer => "balancer-toggle",
            StepKind::Elimination => "elimination",
        };
        f.write_str(name)
    }
}

/// Per-process step counts, broken down by [`StepKind`].
///
/// `StepStats` is the value returned for every process by the
/// [`VirtualExecutor`](crate::vexec::VirtualExecutor) and is the quantity the paper's
/// step-count claims (`tests/paper_claims.rs`) are stated in.
///
/// # Example
///
/// ```
/// use shmem::steps::{StepKind, StepStats};
///
/// let mut stats = StepStats::new();
/// stats.record(StepKind::RegisterRead);
/// stats.record(StepKind::RegisterWrite);
/// stats.record(StepKind::TasInvocation);
/// assert_eq!(stats.total(), 2); // TAS invocations are tracked separately
/// assert_eq!(stats.tas_invocations, 1);
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub struct StepStats {
    /// Number of shared register reads.
    pub reads: u64,
    /// Number of shared register writes.
    pub writes: u64,
    /// Number of read-modify-write operations.
    pub rmws: u64,
    /// Number of test-and-set object invocations (unit-cost measure).
    pub tas_invocations: u64,
    /// Number of coin-flip steps (batches of local coin flips).
    pub coin_flips: u64,
    /// Number of name releases performed against long-lived renaming objects.
    pub releases: u64,
    /// Number of balancer toggles performed while traversing balancing
    /// (counting) networks — a unit-cost measure like
    /// [`StepStats::tas_invocations`].
    pub balancer_toggles: u64,
    /// Number of elimination-prism slot operations (install, capture,
    /// timeout and reset) performed in front of counting networks — a
    /// unit-cost measure like [`StepStats::balancer_toggles`].
    pub eliminations: u64,
}

impl StepStats {
    /// Creates an all-zero step count.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a single step of the given kind.
    pub fn record(&mut self, kind: StepKind) {
        match kind {
            StepKind::RegisterRead => self.reads += 1,
            StepKind::RegisterWrite => self.writes += 1,
            StepKind::ReadModifyWrite => self.rmws += 1,
            StepKind::TasInvocation => self.tas_invocations += 1,
            StepKind::CoinFlip => self.coin_flips += 1,
            StepKind::Release => self.releases += 1,
            StepKind::Balancer => self.balancer_toggles += 1,
            StepKind::Elimination => self.eliminations += 1,
        }
    }

    /// Total *register* steps: reads + writes + read-modify-writes +
    /// coin-flip steps. This is the paper's primary step-complexity measure.
    ///
    /// Test-and-set invocations are excluded because they are an alternative
    /// unit-cost measure layered on top of the register steps performed inside
    /// the test-and-set implementation; see [`StepStats::total_unit_tas`].
    pub fn total(&self) -> u64 {
        self.reads + self.writes + self.rmws + self.coin_flips
    }

    /// Total steps under the unit-cost test-and-set measure: every
    /// test-and-set invocation counts as one step and register operations are
    /// ignored. This matches the paper's statements such as "the total number
    /// of test-and-set operations performed in an execution is `O(n log n)`"
    /// (Corollary 2).
    pub fn total_unit_tas(&self) -> u64 {
        self.tas_invocations
    }

    /// Total shared-memory operations of any kind (register steps plus
    /// test-and-set invocations, releases, balancer toggles and elimination
    /// operations). Useful as a conservative upper bound.
    pub fn total_all(&self) -> u64 {
        self.total()
            + self.tas_invocations
            + self.releases
            + self.balancer_toggles
            + self.eliminations
    }

    /// Returns `true` if no steps of any kind have been recorded.
    pub fn is_empty(&self) -> bool {
        self.total_all() == 0
    }
}

impl Add for StepStats {
    type Output = StepStats;

    fn add(self, rhs: StepStats) -> StepStats {
        StepStats {
            reads: self.reads + rhs.reads,
            writes: self.writes + rhs.writes,
            rmws: self.rmws + rhs.rmws,
            tas_invocations: self.tas_invocations + rhs.tas_invocations,
            coin_flips: self.coin_flips + rhs.coin_flips,
            releases: self.releases + rhs.releases,
            balancer_toggles: self.balancer_toggles + rhs.balancer_toggles,
            eliminations: self.eliminations + rhs.eliminations,
        }
    }
}

impl AddAssign for StepStats {
    fn add_assign(&mut self, rhs: StepStats) {
        *self = *self + rhs;
    }
}

impl Sum for StepStats {
    fn sum<I: Iterator<Item = StepStats>>(iter: I) -> StepStats {
        iter.fold(StepStats::new(), Add::add)
    }
}

impl fmt::Display for StepStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "reads={} writes={} rmws={} tas={} flips={} releases={} balancers={} elims={} (register steps={})",
            self.reads,
            self.writes,
            self.rmws,
            self.tas_invocations,
            self.coin_flips,
            self.releases,
            self.balancer_toggles,
            self.eliminations,
            self.total()
        )
    }
}

/// Summary statistics over the per-process step counts of one execution.
///
/// # Example
///
/// ```
/// use shmem::steps::{StepStats, StepSummary};
///
/// let per_process = vec![
///     StepStats { reads: 10, ..Default::default() },
///     StepStats { reads: 30, ..Default::default() },
/// ];
/// let summary = StepSummary::from_stats(&per_process);
/// assert_eq!(summary.max_register_steps, 30);
/// assert_eq!(summary.total_register_steps, 40);
/// assert!((summary.mean_register_steps - 20.0).abs() < 1e-9);
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct StepSummary {
    /// Number of processes aggregated.
    pub processes: usize,
    /// Maximum register steps taken by any single process (the paper's
    /// "local" or "per-process" step complexity).
    pub max_register_steps: u64,
    /// Mean register steps per process.
    pub mean_register_steps: f64,
    /// Total register steps across all processes (the paper's "total step
    /// complexity").
    pub total_register_steps: u64,
    /// Maximum test-and-set invocations by any single process.
    pub max_tas_invocations: u64,
    /// Total test-and-set invocations across all processes.
    pub total_tas_invocations: u64,
}

impl StepSummary {
    /// Builds a summary from a slice of per-process statistics.
    ///
    /// Returns an all-zero summary for an empty slice.
    pub fn from_stats(stats: &[StepStats]) -> Self {
        if stats.is_empty() {
            return Self::default();
        }
        let total: StepStats = stats.iter().copied().sum();
        let max_register_steps = stats.iter().map(StepStats::total).max().unwrap_or(0);
        let max_tas_invocations = stats.iter().map(|s| s.tas_invocations).max().unwrap_or(0);
        StepSummary {
            processes: stats.len(),
            max_register_steps,
            mean_register_steps: total.total() as f64 / stats.len() as f64,
            total_register_steps: total.total(),
            max_tas_invocations,
            total_tas_invocations: total.tas_invocations,
        }
    }
}

impl fmt::Display for StepSummary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "processes={} max-steps={} mean-steps={:.1} total-steps={} max-tas={} total-tas={}",
            self.processes,
            self.max_register_steps,
            self.mean_register_steps,
            self.total_register_steps,
            self.max_tas_invocations,
            self.total_tas_invocations
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_each_kind_updates_the_matching_counter() {
        let mut stats = StepStats::new();
        stats.record(StepKind::RegisterRead);
        stats.record(StepKind::RegisterRead);
        stats.record(StepKind::RegisterWrite);
        stats.record(StepKind::ReadModifyWrite);
        stats.record(StepKind::TasInvocation);
        stats.record(StepKind::CoinFlip);
        stats.record(StepKind::Release);
        stats.record(StepKind::Balancer);
        stats.record(StepKind::Elimination);
        assert_eq!(stats.reads, 2);
        assert_eq!(stats.writes, 1);
        assert_eq!(stats.rmws, 1);
        assert_eq!(stats.tas_invocations, 1);
        assert_eq!(stats.coin_flips, 1);
        assert_eq!(stats.releases, 1);
        assert_eq!(stats.balancer_toggles, 1);
        assert_eq!(stats.eliminations, 1);
    }

    #[test]
    fn total_excludes_tas_invocations_releases_and_balancer_toggles() {
        let stats = StepStats {
            reads: 3,
            writes: 2,
            rmws: 1,
            tas_invocations: 100,
            coin_flips: 4,
            releases: 7,
            balancer_toggles: 9,
            eliminations: 5,
        };
        assert_eq!(stats.total(), 10);
        assert_eq!(stats.total_unit_tas(), 100);
        assert_eq!(stats.total_all(), 131);
    }

    #[test]
    fn empty_stats_report_empty() {
        assert!(StepStats::new().is_empty());
        let mut stats = StepStats::new();
        stats.record(StepKind::CoinFlip);
        assert!(!stats.is_empty());
    }

    #[test]
    fn add_and_sum_accumulate_componentwise() {
        let a = StepStats {
            reads: 1,
            writes: 2,
            rmws: 3,
            tas_invocations: 4,
            coin_flips: 5,
            releases: 6,
            balancer_toggles: 7,
            eliminations: 8,
        };
        let b = StepStats {
            reads: 10,
            writes: 20,
            rmws: 30,
            tas_invocations: 40,
            coin_flips: 50,
            releases: 60,
            balancer_toggles: 70,
            eliminations: 80,
        };
        let c = a + b;
        assert_eq!(c.reads, 11);
        assert_eq!(c.writes, 22);
        assert_eq!(c.rmws, 33);
        assert_eq!(c.tas_invocations, 44);
        assert_eq!(c.coin_flips, 55);
        assert_eq!(c.releases, 66);
        assert_eq!(c.balancer_toggles, 77);
        assert_eq!(c.eliminations, 88);

        let summed: StepStats = vec![a, b, c].into_iter().sum();
        assert_eq!(summed.reads, 22);
        assert_eq!(summed.total(), (a.total() + b.total()) * 2);
    }

    #[test]
    fn summary_of_empty_slice_is_zero() {
        let summary = StepSummary::from_stats(&[]);
        assert_eq!(summary.processes, 0);
        assert_eq!(summary.total_register_steps, 0);
    }

    #[test]
    fn summary_computes_max_mean_and_totals() {
        let stats = vec![
            StepStats {
                reads: 5,
                tas_invocations: 2,
                ..Default::default()
            },
            StepStats {
                writes: 15,
                tas_invocations: 8,
                ..Default::default()
            },
            StepStats {
                rmws: 10,
                ..Default::default()
            },
        ];
        let summary = StepSummary::from_stats(&stats);
        assert_eq!(summary.processes, 3);
        assert_eq!(summary.max_register_steps, 15);
        assert_eq!(summary.total_register_steps, 30);
        assert!((summary.mean_register_steps - 10.0).abs() < 1e-9);
        assert_eq!(summary.max_tas_invocations, 8);
        assert_eq!(summary.total_tas_invocations, 10);
    }

    #[test]
    fn display_formats_are_nonempty() {
        assert!(!format!("{}", StepKind::RegisterRead).is_empty());
        assert!(!format!("{}", StepStats::new()).is_empty());
        assert!(!format!("{}", StepSummary::default()).is_empty());
    }
}
