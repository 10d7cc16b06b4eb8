//! The strong adaptive adversary of the paper's model.
//!
//! The paper's adversary controls scheduling and crashes and may observe local
//! coin flips (§2). A true worst-case adaptive adversary cannot be enumerated
//! at runtime, so the execution harness approximates it with two orthogonal
//! knobs, both of which the safety properties of the algorithms must tolerate:
//!
//! * [`ScheduleSource`] — who takes the next shared-memory step. The
//!   [`VirtualExecutor`](crate::vexec::VirtualExecutor) serializes processes
//!   at every step and asks a seeded random scheduler, a recorded schedule or
//!   an exploration scheduler which process goes next, so every interleaving
//!   (arrival order and contention pattern included) is a pure function of
//!   the configuration. The threaded [`Executor`](crate::executor::Executor)
//!   leaves the interleaving to the OS.
//! * [`CrashPlan`] — crash-fault injection: a process silently stops taking
//!   steps after a chosen number of shared-memory operations.
//!
//! [`ExecConfig`] bundles the two together with a global random seed so an
//! execution is reproducible given its configuration.

use crate::vexec::{ExploreHandle, Schedule};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Crash-fault injection plan.
///
/// A crashed process stops taking shared-memory steps forever; it never
/// returns from its operation. The renaming algorithms must remain safe (names
/// stay unique, the namespace stays tight with respect to *participating*
/// processes) in the presence of such crashes.
#[derive(Clone, Debug, Default, PartialEq)]
pub enum CrashPlan {
    /// No process crashes.
    #[default]
    None,
    /// Process `i` crashes after `steps[i]` shared-memory steps (if `Some`).
    /// Processes beyond the vector's length do not crash.
    Fixed(Vec<Option<u64>>),
    /// Each process independently crashes with probability `prob`, after a
    /// uniformly random number of steps in `[1, max_steps]`.
    Random {
        /// Probability that an individual process crashes at all.
        prob: f64,
        /// Upper bound on the step at which a crashing process stops.
        max_steps: u64,
    },
    /// Crash every process with index `>= first_survivors` after the given
    /// number of steps — a deterministic "half the system dies" scenario.
    CrashSuffix {
        /// Number of low-indexed processes that never crash.
        survivors: usize,
        /// Step count after which the rest crash.
        after_steps: u64,
    },
}

impl CrashPlan {
    /// Computes the crash step for process `index`, or `None` if it runs to
    /// completion.
    pub fn crash_step_for<R: Rng + ?Sized>(&self, index: usize, rng: &mut R) -> Option<u64> {
        match self {
            CrashPlan::None => None,
            CrashPlan::Fixed(steps) => steps.get(index).copied().flatten(),
            CrashPlan::Random { prob, max_steps } => {
                if *max_steps == 0 || !rng.gen_bool(prob.clamp(0.0, 1.0)) {
                    None
                } else {
                    Some(rng.gen_range(1..=*max_steps))
                }
            }
            CrashPlan::CrashSuffix {
                survivors,
                after_steps,
            } => {
                if index >= *survivors {
                    Some((*after_steps).max(1))
                } else {
                    None
                }
            }
        }
    }
}

/// Where the interleaving of a *virtual* (serialized) execution comes from.
///
/// The threaded [`Executor`](crate::executor::Executor) ignores this field —
/// its interleavings come from the OS scheduler. The
/// [`VirtualExecutor`](crate::vexec::VirtualExecutor) consults it at every
/// step:
///
/// * [`ScheduleSource::Random`] — a seeded uniformly random scheduler, the
///   deterministic analogue of the threaded executor's sampling.
/// * [`ScheduleSource::Replay`] — replay a recorded [`Schedule`] verbatim
///   (with deterministic fallback for shrunk or stale schedules), the
///   substrate of `tests/schedules/*.trace` regression replays. The empty
///   schedule falls back at every step and so runs the processes one after
///   another in index order: staggered, contention-free arrivals.
/// * [`ScheduleSource::Explore`] — delegate every decision to a shared
///   [`Scheduler`](crate::vexec::Scheduler), the hook the `mcheck` crate's
///   DPOR / preemption-bounded / coverage-guided explorers drive.
#[derive(Clone, Debug, PartialEq)]
pub enum ScheduleSource {
    /// Uniformly random scheduling decisions from the given seed.
    Random(u64),
    /// Replay of a recorded schedule.
    Replay(Schedule),
    /// Decisions delegated to an external exploration scheduler.
    Explore(ExploreHandle),
}

/// Configuration for one adversarial execution: seed, crash plan and
/// schedule source.
///
/// # Example
///
/// ```
/// use shmem::adversary::{CrashPlan, ExecConfig, ScheduleSource};
///
/// let config =
///     ExecConfig::new(42).with_crash_plan(CrashPlan::Random { prob: 0.2, max_steps: 100 });
/// assert_eq!(config.seed, 42);
/// // One seed drives the virtual scheduler too.
/// assert_eq!(config.schedule, ScheduleSource::Random(42));
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct ExecConfig {
    /// Global random seed; each process derives its own stream from it.
    pub seed: u64,
    /// Crash-fault injection plan.
    pub crash_plan: CrashPlan,
    /// Schedule source for virtual (serialized) executions; ignored by the
    /// threaded executor.
    pub schedule: ScheduleSource,
}

impl ExecConfig {
    /// Creates a configuration with the given seed, no crashes and the
    /// virtual schedule [`ScheduleSource::Random`] drawn from the same seed.
    pub fn new(seed: u64) -> Self {
        ExecConfig {
            seed,
            crash_plan: CrashPlan::None,
            schedule: ScheduleSource::Random(seed),
        }
    }

    /// Sets the crash plan.
    pub fn with_crash_plan(mut self, plan: CrashPlan) -> Self {
        self.crash_plan = plan;
        self
    }

    /// Sets the schedule source consulted by the
    /// [`VirtualExecutor`](crate::vexec::VirtualExecutor).
    pub fn with_schedule(mut self, schedule: ScheduleSource) -> Self {
        self.schedule = schedule;
        self
    }

    /// The crash step of each of `k` processes, derived from the seed: both
    /// executors call this, so a crash plan reproduces identically under
    /// either.
    pub(crate) fn crash_steps(&self, k: usize) -> Vec<Option<u64>> {
        let mut plan_rng = StdRng::seed_from_u64(self.seed ^ 0xA5A5_5A5A_DEAD_BEEF);
        (0..k)
            .map(|index| self.crash_plan.crash_step_for(index, &mut plan_rng))
            .collect()
    }
}

impl Default for ExecConfig {
    fn default() -> Self {
        ExecConfig::new(0)
    }
}

/// What the chaos harness does to one child at a chosen moment.
///
/// Unlike [`CrashPlan`], which terminates *virtual* processes inside the
/// executor, a fault plan drives **real OS signals** from a supervising
/// parent ([`crate::procs::kill_child`], [`crate::procs::stop_child`]):
/// children publish per-operation progress words, and the parent fires
/// each fault when its child's progress crosses the planned index.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultAction {
    /// SIGKILL: the child dies uncooperatively, leases in hand.
    Kill,
    /// SIGSTOP for `pause_ops` observed operations of the other children
    /// (then SIGCONT): the child is *stalled, not dead* — a sweep that
    /// reclaims its leases is wrong, which is exactly what this arm tests.
    Stall {
        /// How much forward progress (summed over live children) the
        /// parent waits for before delivering SIGCONT.
        pause_ops: u64,
    },
    /// Torn-write injection: the parent flips arena words into the
    /// half-written states a kill can leave (a name popped off a free list
    /// and never claimed, a free-list data bit without its summary flag)
    /// via the structures' fault hooks. The child itself is untouched.
    TornWrite,
}

/// One planned fault: `child` gets `action` once it has performed
/// `at_op` operations.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ChildFault {
    /// Index of the targeted child (the forker's ordinal, not a pid).
    pub child: usize,
    /// The child-local operation count at which the fault fires.
    pub at_op: u64,
    /// What happens.
    pub action: FaultAction,
}

/// A deterministic, seeded schedule of kill/stall/torn-write faults over a
/// fleet of forked children — same seed, same storm.
///
/// # Example
///
/// ```
/// use shmem::adversary::FaultPlan;
///
/// let plan = FaultPlan::from_seed(7, 4, 100);
/// assert_eq!(plan, FaultPlan::from_seed(7, 4, 100), "deterministic");
/// assert!(plan.faults().iter().all(|fault| fault.child < 4));
/// assert!(!plan.faults().is_empty(), "a storm plans at least one fault");
/// ```
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FaultPlan {
    faults: Vec<ChildFault>,
}

impl FaultPlan {
    /// Derives a plan for `children` children performing `ops` operations
    /// each. Roughly half the children draw a fault: mostly kills (the
    /// storm), some stalls, an occasional torn write; at least one child
    /// is always killed so every seed exercises recovery. Fault indices
    /// are uniform over `1..=ops`, so kills land anywhere from the first
    /// lease to the last release.
    pub fn from_seed(seed: u64, children: usize, ops: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed ^ 0xFA_017_9A5);
        let mut faults = Vec::new();
        for child in 0..children {
            if !rng.gen_bool(0.5) {
                continue;
            }
            let at_op = rng.gen_range(1..=ops.max(1));
            let action = match rng.gen_range(0..10u32) {
                0..=5 => FaultAction::Kill,
                6..=8 => FaultAction::Stall {
                    pause_ops: rng.gen_range(1..=ops.max(1)),
                },
                _ => FaultAction::TornWrite,
            };
            faults.push(ChildFault {
                child,
                at_op,
                action,
            });
        }
        if !faults.iter().any(|fault| fault.action == FaultAction::Kill) {
            let child = rng.gen_range(0..children.max(1));
            let at_op = rng.gen_range(1..=ops.max(1));
            faults.retain(|fault| fault.child != child);
            faults.push(ChildFault {
                child,
                at_op,
                action: FaultAction::Kill,
            });
        }
        FaultPlan { faults }
    }

    /// The planned faults, at most one per child.
    pub fn faults(&self) -> &[ChildFault] {
        &self.faults
    }

    /// The children this plan SIGKILLs.
    pub fn killed_children(&self) -> impl Iterator<Item = usize> + '_ {
        self.faults
            .iter()
            .filter(|fault| fault.action == FaultAction::Kill)
            .map(|fault| fault.child)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(0xfeed)
    }

    #[test]
    fn fault_plans_always_kill_and_target_each_child_at_most_once() {
        for seed in 0..200 {
            let plan = FaultPlan::from_seed(seed, 6, 50);
            assert!(
                plan.killed_children().next().is_some(),
                "seed {seed}: every storm kills someone"
            );
            let mut children: Vec<usize> = plan.faults().iter().map(|fault| fault.child).collect();
            children.sort_unstable();
            children.dedup();
            assert_eq!(
                children.len(),
                plan.faults().len(),
                "seed {seed}: at most one fault per child"
            );
            for fault in plan.faults() {
                assert!((1..=50).contains(&fault.at_op), "seed {seed}: {fault:?}");
            }
        }
    }

    #[test]
    fn crash_plan_none_never_crashes() {
        let mut r = rng();
        assert_eq!(CrashPlan::None.crash_step_for(0, &mut r), None);
    }

    #[test]
    fn crash_plan_fixed_uses_per_process_entries() {
        let mut r = rng();
        let plan = CrashPlan::Fixed(vec![Some(5), None, Some(9)]);
        assert_eq!(plan.crash_step_for(0, &mut r), Some(5));
        assert_eq!(plan.crash_step_for(1, &mut r), None);
        assert_eq!(plan.crash_step_for(2, &mut r), Some(9));
        // Out-of-range processes never crash.
        assert_eq!(plan.crash_step_for(3, &mut r), None);
    }

    #[test]
    fn crash_plan_random_respects_bounds() {
        let mut r = rng();
        let plan = CrashPlan::Random {
            prob: 1.0,
            max_steps: 10,
        };
        for i in 0..50 {
            let step = plan.crash_step_for(i, &mut r).expect("prob=1 must crash");
            assert!((1..=10).contains(&step));
        }
        let never = CrashPlan::Random {
            prob: 0.0,
            max_steps: 10,
        };
        assert_eq!(never.crash_step_for(0, &mut r), None);
        let zero_steps = CrashPlan::Random {
            prob: 1.0,
            max_steps: 0,
        };
        assert_eq!(zero_steps.crash_step_for(0, &mut r), None);
    }

    #[test]
    fn crash_suffix_spares_survivors() {
        let mut r = rng();
        let plan = CrashPlan::CrashSuffix {
            survivors: 2,
            after_steps: 7,
        };
        assert_eq!(plan.crash_step_for(0, &mut r), None);
        assert_eq!(plan.crash_step_for(1, &mut r), None);
        assert_eq!(plan.crash_step_for(2, &mut r), Some(7));
        assert_eq!(plan.crash_step_for(9, &mut r), Some(7));
    }

    #[test]
    fn exec_config_builder_sets_fields() {
        let config = ExecConfig::new(3).with_crash_plan(CrashPlan::CrashSuffix {
            survivors: 1,
            after_steps: 2,
        });
        assert_eq!(config.seed, 3);
        assert_eq!(config.schedule, ScheduleSource::Random(3));
        assert!(matches!(config.crash_plan, CrashPlan::CrashSuffix { .. }));
        assert_eq!(ExecConfig::default(), ExecConfig::new(0));
    }
}
