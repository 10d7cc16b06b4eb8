//! Multi-threaded execution harness.
//!
//! The [`Executor`] runs `k` processes — each an OS thread executing the same
//! closure against `Arc`-shared objects — released together behind one start
//! barrier, under the crash plan of an [`ExecConfig`]; the OS scheduler picks
//! the interleaving. It collects every process's return value and step
//! statistics into an [`ExecutionOutcome`], the raw material for all
//! correctness checks and experiments. Tests whose verdict depends on the
//! interleaving run on the seeded, replayable
//! [`VirtualExecutor`](crate::vexec::VirtualExecutor) instead.

use crate::adversary::ExecConfig;
use crate::process::{install_crash_panic_silencer, CrashSignal, ProcessCtx, ProcessId};
use crate::steps::{StepStats, StepSummary};
use std::panic::AssertUnwindSafe;

/// The fate of one process in an execution.
#[derive(Clone, Debug, PartialEq)]
pub enum ProcessOutcome<R> {
    /// The process's operation returned a value.
    Completed {
        /// The value returned by the process's closure.
        result: R,
        /// Shared-memory steps the process took.
        steps: StepStats,
    },
    /// The process crashed (stopped taking steps) before returning.
    Crashed {
        /// Shared-memory steps the process took before crashing.
        steps: StepStats,
    },
}

impl<R> ProcessOutcome<R> {
    /// The steps taken by the process, whether or not it completed.
    pub fn steps(&self) -> StepStats {
        match self {
            ProcessOutcome::Completed { steps, .. } | ProcessOutcome::Crashed { steps } => *steps,
        }
    }

    /// The result if the process completed.
    pub fn result(&self) -> Option<&R> {
        match self {
            ProcessOutcome::Completed { result, .. } => Some(result),
            ProcessOutcome::Crashed { .. } => None,
        }
    }

    /// Whether the process crashed.
    pub fn is_crashed(&self) -> bool {
        matches!(self, ProcessOutcome::Crashed { .. })
    }
}

/// The collected results of one adversarial execution of `k` processes.
#[must_use = "an execution outcome carries the results and step statistics every check needs"]
#[derive(Clone, Debug, PartialEq)]
pub struct ExecutionOutcome<R> {
    outcomes: Vec<(ProcessId, ProcessOutcome<R>)>,
}

impl<R> ExecutionOutcome<R> {
    /// Assembles an outcome from per-process reports (used by the executors).
    pub(crate) fn from_outcomes(outcomes: Vec<(ProcessId, ProcessOutcome<R>)>) -> Self {
        ExecutionOutcome { outcomes }
    }

    /// Number of processes that participated (completed or crashed).
    pub fn len(&self) -> usize {
        self.outcomes.len()
    }

    /// Whether no process participated.
    pub fn is_empty(&self) -> bool {
        self.outcomes.is_empty()
    }

    /// Iterates over `(process, outcome)` pairs in process-index order.
    pub fn iter(&self) -> impl Iterator<Item = &(ProcessId, ProcessOutcome<R>)> {
        self.outcomes.iter()
    }

    /// Iterates over the processes that completed, with their results.
    pub fn completed(&self) -> impl Iterator<Item = (ProcessId, &R)> {
        self.outcomes
            .iter()
            .filter_map(|(id, outcome)| match outcome {
                ProcessOutcome::Completed { result, .. } => Some((*id, result)),
                ProcessOutcome::Crashed { .. } => None,
            })
    }

    /// The results of all completed processes, in process-index order.
    pub fn results(&self) -> Vec<R>
    where
        R: Clone,
    {
        self.completed().map(|(_, r)| r.clone()).collect()
    }

    /// The results of all completed processes, sorted ascending.
    ///
    /// Replaces the ubiquitous `let mut v = outcome.results();
    /// v.sort_unstable();` pattern in tests and examples.
    ///
    /// # Example
    ///
    /// ```
    /// use shmem::executor::Executor;
    ///
    /// let outcome = Executor::with_seed(3).run(4, |ctx| ctx.id().as_usize());
    /// assert_eq!(outcome.results_sorted(), vec![0, 1, 2, 3]);
    /// ```
    pub fn results_sorted(&self) -> Vec<R>
    where
        R: Clone + Ord,
    {
        let mut results = self.results();
        results.sort_unstable();
        results
    }

    /// Number of processes that crashed.
    pub fn crashed_count(&self) -> usize {
        self.outcomes.iter().filter(|(_, o)| o.is_crashed()).count()
    }

    /// Per-process step statistics (completed and crashed alike), in
    /// process-index order.
    pub fn per_process_steps(&self) -> Vec<StepStats> {
        self.outcomes.iter().map(|(_, o)| o.steps()).collect()
    }

    /// Step statistics of completed processes only.
    pub fn completed_steps(&self) -> Vec<StepStats> {
        self.outcomes
            .iter()
            .filter(|(_, o)| !o.is_crashed())
            .map(|(_, o)| o.steps())
            .collect()
    }

    /// Total steps across all processes.
    pub fn total_steps(&self) -> StepStats {
        self.outcomes.iter().map(|(_, o)| o.steps()).sum()
    }

    /// Summary statistics (max / mean / total) over per-process step counts.
    pub fn step_summary(&self) -> StepSummary {
        StepSummary::from_stats(&self.per_process_steps())
    }
}

impl<R> ExecutionOutcome<Vec<R>> {
    /// Flattens the per-process result vectors of a multi-operation execution
    /// (each process performing several operations and returning a `Vec`)
    /// into one list over all completed processes, in process-index order.
    pub fn flattened(&self) -> Vec<R>
    where
        R: Clone,
    {
        self.completed()
            .flat_map(|(_, ops)| ops.iter().cloned())
            .collect()
    }

    /// Like [`ExecutionOutcome::flattened`], sorted ascending.
    pub fn flattened_sorted(&self) -> Vec<R>
    where
        R: Clone + Ord,
    {
        let mut results = self.flattened();
        results.sort_unstable();
        results
    }
}

impl<R> IntoIterator for ExecutionOutcome<R> {
    type Item = (ProcessId, ProcessOutcome<R>);
    type IntoIter = std::vec::IntoIter<Self::Item>;

    fn into_iter(self) -> Self::IntoIter {
        self.outcomes.into_iter()
    }
}

impl<'a, R> IntoIterator for &'a ExecutionOutcome<R> {
    type Item = &'a (ProcessId, ProcessOutcome<R>);
    type IntoIter = std::slice::Iter<'a, (ProcessId, ProcessOutcome<R>)>;

    fn into_iter(self) -> Self::IntoIter {
        self.outcomes.iter()
    }
}

/// Runs `k` processes concurrently on OS threads against shared objects,
/// starting them together behind one barrier.
///
/// # Example
///
/// ```
/// use shmem::adversary::ExecConfig;
/// use shmem::executor::Executor;
/// use shmem::register::AtomicUsizeRegister;
/// use std::sync::Arc;
///
/// let slots = Arc::new(AtomicUsizeRegister::new(0));
/// let exec = Executor::new(ExecConfig::new(1));
/// let outcome = exec.run(4, {
///     let slots = Arc::clone(&slots);
///     move |ctx| slots.fetch_add(ctx, 1)
/// });
/// assert_eq!(outcome.results_sorted(), vec![0, 1, 2, 3]);
/// ```
#[derive(Clone, Debug, Default)]
pub struct Executor {
    config: ExecConfig,
}

impl Executor {
    /// Creates an executor with the given adversarial configuration.
    pub fn new(config: ExecConfig) -> Self {
        Executor { config }
    }

    /// Creates an executor with no crashes and the given seed.
    pub fn with_seed(seed: u64) -> Self {
        Executor {
            config: ExecConfig::new(seed),
        }
    }

    /// The configuration this executor runs with.
    pub fn config(&self) -> &ExecConfig {
        &self.config
    }

    /// Runs `k` processes with consecutive identifiers `0..k`.
    ///
    /// Each process executes `f(&mut ctx)`; the closure is shared by all
    /// processes, so per-process state must live in the `ProcessCtx` or in
    /// values captured behind `Arc`.
    pub fn run<R, F>(&self, k: usize, f: F) -> ExecutionOutcome<R>
    where
        R: Send,
        F: Fn(&mut ProcessCtx) -> R + Send + Sync,
    {
        let ids: Vec<ProcessId> = (0..k).map(ProcessId::new).collect();
        self.run_with_ids(&ids, f)
    }

    /// Runs one process per entry of `ids`, using each entry as the process's
    /// initial name. This is how experiments model a large, sparse initial
    /// namespace (`M ≫ k`).
    pub fn run_with_ids<R, F>(&self, ids: &[ProcessId], f: F) -> ExecutionOutcome<R>
    where
        R: Send,
        F: Fn(&mut ProcessCtx) -> R + Send + Sync,
    {
        install_crash_panic_silencer();
        let k = ids.len();
        if k == 0 {
            return ExecutionOutcome {
                outcomes: Vec::new(),
            };
        }

        let crash_steps = self.config.crash_steps(k);
        let barrier = std::sync::Barrier::new(k);
        let f = &f;
        let barrier = &barrier;
        let seed = self.config.seed;

        let mut outcomes: Vec<(ProcessId, ProcessOutcome<R>)> = Vec::with_capacity(k);
        std::thread::scope(|scope| {
            let handles: Vec<_> = ids
                .iter()
                .zip(crash_steps)
                .map(|(&id, crash_at)| {
                    scope.spawn(move || {
                        barrier.wait();
                        let mut ctx = ProcessCtx::with_adversary(id, seed, crash_at);
                        let run = std::panic::catch_unwind(AssertUnwindSafe(|| f(&mut ctx)));
                        match run {
                            Ok(result) => (
                                id,
                                ProcessOutcome::Completed {
                                    result,
                                    steps: ctx.stats(),
                                },
                            ),
                            Err(payload) => {
                                if let Some(signal) = payload.downcast_ref::<CrashSignal>() {
                                    (
                                        id,
                                        ProcessOutcome::Crashed {
                                            steps: signal.steps,
                                        },
                                    )
                                } else {
                                    // A genuine bug in the algorithm under
                                    // test: propagate it.
                                    std::panic::resume_unwind(payload)
                                }
                            }
                        }
                    })
                })
                .collect();
            for handle in handles {
                // Re-raise a process's own panic with its payload intact.
                let outcome = handle
                    .join()
                    .unwrap_or_else(|payload| std::panic::resume_unwind(payload));
                outcomes.push(outcome);
            }
        });

        ExecutionOutcome { outcomes }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adversary::CrashPlan;
    use crate::register::AtomicUsizeRegister;
    use std::sync::Arc;

    #[test]
    fn run_with_zero_processes_is_empty() {
        let outcome: ExecutionOutcome<()> = Executor::with_seed(0).run(0, |_| ());
        assert!(outcome.is_empty());
        assert_eq!(outcome.len(), 0);
        assert_eq!(outcome.total_steps().total_all(), 0);
    }

    #[test]
    fn every_process_completes_and_reports_steps() {
        let reg = Arc::new(AtomicUsizeRegister::new(0));
        let outcome = Executor::with_seed(7).run(8, {
            let reg = Arc::clone(&reg);
            move |ctx| {
                reg.write(ctx, ctx.id().as_usize());
                reg.read(ctx)
            }
        });
        assert_eq!(outcome.len(), 8);
        assert_eq!(outcome.crashed_count(), 0);
        assert_eq!(outcome.completed().count(), 8);
        for stats in outcome.per_process_steps() {
            assert_eq!(stats.total(), 2);
        }
        assert_eq!(outcome.total_steps().total(), 16);
        assert_eq!(outcome.step_summary().processes, 8);
    }

    #[test]
    fn fetch_add_hands_out_distinct_values_under_contention() {
        let reg = Arc::new(AtomicUsizeRegister::new(0));
        let outcome = Executor::with_seed(3).run(16, {
            let reg = Arc::clone(&reg);
            move |ctx| reg.fetch_add(ctx, 1)
        });
        assert_eq!(outcome.results_sorted(), (0..16).collect::<Vec<_>>());
    }

    #[test]
    fn run_with_ids_passes_sparse_initial_names() {
        let ids = vec![
            ProcessId::new(10),
            ProcessId::new(999),
            ProcessId::new(5000),
        ];
        let outcome = Executor::with_seed(1).run_with_ids(&ids, |ctx| ctx.id().as_usize());
        assert_eq!(outcome.results_sorted(), vec![10, 999, 5000]);
    }

    #[test]
    fn crashed_processes_are_reported_not_joined_on() {
        let reg = Arc::new(AtomicUsizeRegister::new(0));
        let config = ExecConfig::new(11).with_crash_plan(CrashPlan::Fixed(vec![
            Some(3),
            None,
            Some(1),
            None,
        ]));
        let outcome = Executor::new(config).run(4, {
            let reg = Arc::clone(&reg);
            move |ctx| {
                for _ in 0..10 {
                    reg.fetch_add(ctx, 1);
                }
                ctx.id().as_usize()
            }
        });
        assert_eq!(outcome.len(), 4);
        assert_eq!(outcome.crashed_count(), 2);
        assert_eq!(outcome.completed().count(), 2);
        // Crashed processes still report the steps they took before stopping.
        for (_, o) in outcome.iter().filter(|(_, o)| o.is_crashed()) {
            assert!(o.steps().total_all() >= 1);
            assert!(o.result().is_none());
        }
    }

    #[test]
    fn execution_outcome_into_iter_yields_all_processes() {
        let outcome = Executor::with_seed(2).run(3, |ctx| ctx.id().as_usize());
        let borrowed: Vec<_> = (&outcome).into_iter().collect();
        assert_eq!(borrowed.len(), 3);
        let collected: Vec<_> = outcome.into_iter().collect();
        assert_eq!(collected.len(), 3);
    }

    #[test]
    fn multi_operation_outcomes_flatten() {
        let outcome = Executor::with_seed(4).run(3, |ctx| {
            let base = ctx.id().as_usize() * 10;
            vec![base, base + 1]
        });
        assert_eq!(outcome.flattened().len(), 6);
        assert_eq!(outcome.flattened_sorted(), vec![0, 1, 10, 11, 20, 21]);
    }

    #[test]
    #[should_panic(expected = "boom")]
    fn genuine_panics_inside_processes_propagate() {
        let _ = Executor::with_seed(0).run(2, |ctx| {
            if ctx.id().as_usize() == 1 {
                panic!("boom");
            }
            0usize
        });
    }
}
