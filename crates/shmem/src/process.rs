//! Process identities and the per-process execution context.
//!
//! Every algorithm in this workspace is written in direct style: a process is
//! a closure that performs shared-memory operations on `Arc`-shared objects.
//! The closure receives a [`ProcessCtx`] carrying everything the paper's model
//! attaches to a process — its identity (initial name), its local coin flips,
//! the step accounting of §2, and the adversary's crash decisions. The
//! [`VirtualExecutor`](crate::vexec::VirtualExecutor) builds one context per
//! process and parks it at every step; code that drives real OS threads
//! (unit tests racing words that charge no step) builds one per thread with
//! [`ProcessCtx::new`].

use crate::steps::{StepKind, StepStats};
use crate::vexec::{AccessClass, Baton, Loc, PendingOp, ScheduleAbort};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fmt;
use std::sync::Arc;

/// A process identifier — the process's *initial name* drawn from the large
/// namespace of size `M` (§2). Identifiers need not be consecutive; renaming
/// exists precisely to map them down to a small namespace.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ProcessId(usize);

impl ProcessId {
    /// Creates a process identifier from its initial name.
    pub fn new(id: usize) -> Self {
        ProcessId(id)
    }

    /// The identifier as a `usize`.
    pub fn as_usize(&self) -> usize {
        self.0
    }

    /// The identifier as a `u64`.
    pub fn as_u64(&self) -> u64 {
        self.0 as u64
    }
}

impl From<usize> for ProcessId {
    fn from(id: usize) -> Self {
        ProcessId(id)
    }
}

impl fmt::Display for ProcessId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.0)
    }
}

/// Panic payload used internally to simulate a crash fault: the process stops
/// taking steps and never returns from its operation.
///
/// The [`VirtualExecutor`](crate::vexec::VirtualExecutor) catches this payload and
/// reports the process as crashed together with the steps it took before
/// stopping. User code never observes it.
#[derive(Clone, Copy, Debug)]
pub struct CrashSignal {
    /// The process that crashed.
    pub id: ProcessId,
    /// Steps the process had taken when it crashed.
    pub steps: StepStats,
}

/// Per-process execution context: identity, seeded randomness, step
/// accounting and crash injection.
///
/// Shared objects take `&mut ProcessCtx` on every operation and call
/// [`ProcessCtx::record`] once per shared-memory step, which keeps the cost
/// model centralized in the substrate instead of scattered through algorithm
/// code.
///
/// # Example
///
/// ```
/// use shmem::process::{ProcessCtx, ProcessId};
/// use shmem::steps::StepKind;
///
/// let mut ctx = ProcessCtx::new(ProcessId::new(3), 12345);
/// ctx.record(StepKind::RegisterRead);
/// let coin = ctx.flip();
/// assert!(coin == 0 || coin == 1);
/// assert_eq!(ctx.stats().reads, 1);
/// assert_eq!(ctx.stats().coin_flips, 1);
/// ```
#[derive(Debug)]
pub struct ProcessCtx {
    id: ProcessId,
    rng: StdRng,
    stats: StepStats,
    crash_at: Option<u64>,
    flipped_since_last_shared_op: bool,
    /// The virtual executor's baton and this process's index in its run.
    baton: Option<(Arc<Baton>, usize)>,
}

impl ProcessCtx {
    /// Creates a context with no crash plan.
    ///
    /// The random stream is derived from `seed` and the process identifier so
    /// distinct processes sharing a global seed still flip independent coins.
    pub fn new(id: ProcessId, seed: u64) -> Self {
        Self::with_adversary(id, seed, None)
    }

    /// Creates a context with an optional crash step (the total number of
    /// shared-memory steps after which the process crashes).
    pub(crate) fn with_adversary(id: ProcessId, seed: u64, crash_at: Option<u64>) -> Self {
        let stream = seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(id.as_u64().wrapping_mul(0xD1B5_4A32_D192_ED03));
        ProcessCtx {
            id,
            rng: StdRng::seed_from_u64(stream),
            stats: StepStats::new(),
            crash_at,
            flipped_since_last_shared_op: false,
            baton: None,
        }
    }

    /// Installs the virtual executor's baton for the process at `index` of
    /// its run: every subsequent non-local recorded step parks on it before
    /// the operation executes, until the scheduler grants the step.
    pub(crate) fn install_baton(&mut self, baton: Arc<Baton>, index: usize) {
        self.baton = Some((baton, index));
    }

    /// The process identifier (initial name).
    pub fn id(&self) -> ProcessId {
        self.id
    }

    /// A snapshot of the steps taken so far.
    pub fn stats(&self) -> StepStats {
        self.stats
    }

    /// Records one shared-memory step of the given kind, then applies the
    /// adversary's crash plan.
    ///
    /// Equivalent to [`ProcessCtx::record_at`] with the anonymous location
    /// [`Loc::ANON`], which the schedule explorer treats as conflicting with
    /// every other operation. Registers pass their real location through
    /// `record_at`; call sites without a meaningful location (accounting
    /// markers) can keep using `record`.
    ///
    /// # Panics
    ///
    /// Panics with an internal [`CrashSignal`] payload when the configured
    /// crash step is reached; the executor converts this into a
    /// [`ProcessOutcome::Crashed`](crate::vexec::ProcessOutcome) report.
    pub fn record(&mut self, kind: StepKind) {
        self.record_at(kind, Loc::ANON);
    }

    /// Records one shared-memory step of the given kind on the given
    /// location, then applies the adversary's crash plan.
    ///
    /// This is the instrumentation point of the virtual executor
    /// ([`VirtualExecutor`](crate::vexec::VirtualExecutor)): when a baton is
    /// installed, the process parks here — *before* the operation's atomic
    /// access executes — announcing `(kind, loc)`, and proceeds only once the
    /// scheduler grants it the step.
    ///
    /// # Panics
    ///
    /// Panics with an internal [`CrashSignal`] payload when the configured
    /// crash step is reached, and with an internal
    /// [`ScheduleAbort`] payload when the
    /// virtual executor abandons the execution.
    pub fn record_at(&mut self, kind: StepKind, loc: Loc) {
        self.stats.record(kind);
        if kind != StepKind::CoinFlip {
            self.flipped_since_last_shared_op = false;
        }
        if let Some(limit) = self.crash_at {
            if self.stats.total_all() >= limit {
                std::panic::panic_any(CrashSignal {
                    id: self.id,
                    steps: self.stats,
                });
            }
        }
        if let Some((baton, index)) = &self.baton {
            let op = PendingOp::step(kind, loc);
            if op.access != AccessClass::Local && !baton.park(*index, op) {
                std::panic::panic_any(ScheduleAbort);
            }
        }
    }

    /// Records a coin-flip step if this is the first flip since the last
    /// shared-memory operation (the paper counts all coin flips between two
    /// shared-memory operations as a single step, §2).
    fn record_flip(&mut self) {
        if !self.flipped_since_last_shared_op {
            self.flipped_since_last_shared_op = true;
            self.stats.record(StepKind::CoinFlip);
        }
    }

    /// Flips a fair coin, returning 0 or 1.
    pub fn flip(&mut self) -> u8 {
        self.record_flip();
        self.rng.gen_range(0..2u8)
    }

    /// Draws a uniformly random index in `[0, bound)`.
    ///
    /// # Panics
    ///
    /// Panics if `bound` is zero.
    pub fn random_index(&mut self, bound: usize) -> usize {
        assert!(bound > 0, "random_index bound must be positive");
        self.record_flip();
        self.rng.gen_range(0..bound)
    }

    /// Draws a uniformly random value in the inclusive range `[low, high]`.
    ///
    /// # Panics
    ///
    /// Panics if `low > high`.
    pub fn random_in(&mut self, low: u64, high: u64) -> u64 {
        assert!(low <= high, "random_in requires low <= high");
        self.record_flip();
        self.rng.gen_range(low..=high)
    }

    /// Mutable access to the raw random number generator for callers that need
    /// more elaborate distributions. The caller is responsible for recording a
    /// coin-flip step if the draw influences shared-memory behaviour.
    pub fn rng(&mut self) -> &mut impl Rng {
        &mut self.rng
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn process_id_conversions_round_trip() {
        let id = ProcessId::new(17);
        assert_eq!(id.as_usize(), 17);
        assert_eq!(id.as_u64(), 17);
        assert_eq!(ProcessId::from(17usize), id);
        assert_eq!(format!("{id}"), "p17");
    }

    #[test]
    fn record_counts_steps_by_kind() {
        let mut ctx = ProcessCtx::new(ProcessId::new(0), 1);
        ctx.record(StepKind::RegisterRead);
        ctx.record(StepKind::RegisterWrite);
        ctx.record(StepKind::ReadModifyWrite);
        ctx.record(StepKind::TasInvocation);
        let stats = ctx.stats();
        assert_eq!(stats.reads, 1);
        assert_eq!(stats.writes, 1);
        assert_eq!(stats.rmws, 1);
        assert_eq!(stats.tas_invocations, 1);
    }

    #[test]
    fn consecutive_flips_count_as_one_step() {
        let mut ctx = ProcessCtx::new(ProcessId::new(0), 1);
        ctx.flip();
        ctx.flip();
        ctx.random_index(10);
        assert_eq!(ctx.stats().coin_flips, 1);

        // A shared-memory operation resets the batch.
        ctx.record(StepKind::RegisterRead);
        ctx.flip();
        ctx.random_in(0, 1);
        assert_eq!(ctx.stats().coin_flips, 2);
    }

    #[test]
    fn distinct_processes_draw_distinct_streams() {
        let mut a = ProcessCtx::new(ProcessId::new(0), 99);
        let mut b = ProcessCtx::new(ProcessId::new(1), 99);
        let draws_a: Vec<usize> = (0..32).map(|_| a.random_index(1_000_000)).collect();
        let draws_b: Vec<usize> = (0..32).map(|_| b.random_index(1_000_000)).collect();
        assert_ne!(draws_a, draws_b);
    }

    #[test]
    fn same_seed_and_id_reproduce_the_stream() {
        let mut a = ProcessCtx::new(ProcessId::new(4), 7);
        let mut b = ProcessCtx::new(ProcessId::new(4), 7);
        let draws_a: Vec<u64> = (0..32).map(|_| a.random_in(0, 1 << 40)).collect();
        let draws_b: Vec<u64> = (0..32).map(|_| b.random_in(0, 1 << 40)).collect();
        assert_eq!(draws_a, draws_b);
    }

    #[test]
    fn random_index_stays_in_bounds() {
        let mut ctx = ProcessCtx::new(ProcessId::new(2), 5);
        for _ in 0..200 {
            assert!(ctx.random_index(7) < 7);
        }
        for _ in 0..200 {
            let v = ctx.random_in(3, 9);
            assert!((3..=9).contains(&v));
        }
    }

    #[test]
    #[should_panic(expected = "bound must be positive")]
    fn random_index_rejects_zero_bound() {
        let mut ctx = ProcessCtx::new(ProcessId::new(0), 0);
        ctx.random_index(0);
    }

    #[test]
    fn crash_at_panics_with_crash_signal() {
        crate::vexec::install_panic_silencer();
        let result = std::panic::catch_unwind(|| {
            let mut ctx = ProcessCtx::with_adversary(ProcessId::new(5), 0, Some(2));
            ctx.record(StepKind::RegisterRead);
            ctx.record(StepKind::RegisterWrite); // reaches the crash limit
            ctx.record(StepKind::RegisterRead); // never executed
        });
        let payload = result.expect_err("crash must unwind");
        let signal = payload
            .downcast_ref::<CrashSignal>()
            .expect("payload must be a CrashSignal");
        assert_eq!(signal.id, ProcessId::new(5));
        assert_eq!(signal.steps.total_all(), 2);
    }
}
