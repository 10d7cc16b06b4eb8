//! Execution outcomes.
//!
//! A run of the [`VirtualExecutor`](crate::vexec::VirtualExecutor) reports
//! every process's return value and step statistics as an
//! [`ExecutionOutcome`], the raw material for all correctness checks and
//! experiments; each process's fate is a [`ProcessOutcome`].

use crate::process::ProcessId;
use crate::steps::{StepStats, StepSummary};

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
}

/// The collected results of one adversarial execution of `k` processes.
#[must_use = "an execution outcome carries the results and step statistics every check needs"]
#[derive(Clone, Debug, PartialEq)]
pub struct ExecutionOutcome<R> {
    outcomes: Vec<(ProcessId, ProcessOutcome<R>)>,
}

impl<R> ExecutionOutcome<R> {
    /// Assembles an outcome from per-process reports (used by the executor).
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
    /// use shmem::adversary::ExecConfig;
    /// use shmem::vexec::VirtualExecutor;
    ///
    /// let outcome = VirtualExecutor::new(ExecConfig::new(3))
    ///     .run(4, |ctx| ctx.id().as_usize())
    ///     .outcome;
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
        self.outcomes.len() - self.completed().count()
    }

    /// Per-process step statistics (completed and crashed alike), in
    /// process-index order.
    pub fn per_process_steps(&self) -> Vec<StepStats> {
        self.outcomes.iter().map(|(_, o)| o.steps()).collect()
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adversary::{CrashPlan, ExecConfig};
    use crate::register::AtomicUsizeRegister;
    use crate::vexec::VirtualExecutor;
    use std::sync::Arc;

    fn seeded(seed: u64) -> VirtualExecutor {
        VirtualExecutor::new(ExecConfig::new(seed))
    }

    #[test]
    fn run_with_zero_processes_is_empty() {
        let outcome: ExecutionOutcome<()> = seeded(0).run(0, |_| ()).outcome;
        assert!(outcome.is_empty());
        assert_eq!(outcome.len(), 0);
        assert_eq!(outcome.total_steps().total_all(), 0);
    }

    #[test]
    fn every_process_completes_and_reports_steps() {
        let reg = Arc::new(AtomicUsizeRegister::new(0));
        let outcome = seeded(7)
            .run(8, {
                let reg = Arc::clone(&reg);
                move |ctx| {
                    reg.write(ctx, ctx.id().as_usize());
                    reg.read(ctx)
                }
            })
            .outcome;
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
        let outcome = seeded(3)
            .run(16, {
                let reg = Arc::clone(&reg);
                move |ctx| reg.fetch_add(ctx, 1)
            })
            .outcome;
        assert_eq!(outcome.results_sorted(), (0..16).collect::<Vec<_>>());
    }

    #[test]
    fn run_with_ids_passes_sparse_initial_names() {
        let ids = vec![
            ProcessId::new(10),
            ProcessId::new(999),
            ProcessId::new(5000),
        ];
        let outcome = seeded(1)
            .run_with_ids(&ids, |ctx| ctx.id().as_usize())
            .outcome;
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
        let outcome = VirtualExecutor::new(config)
            .run(4, {
                let reg = Arc::clone(&reg);
                move |ctx| {
                    for _ in 0..10 {
                        reg.fetch_add(ctx, 1);
                    }
                    ctx.id().as_usize()
                }
            })
            .outcome;
        assert_eq!(outcome.len(), 4);
        assert_eq!(outcome.crashed_count(), 2);
        assert_eq!(outcome.completed().count(), 2);
        // Crashed processes still report the steps they took before stopping.
        let crashed = outcome
            .iter()
            .filter(|(_, o)| matches!(o, ProcessOutcome::Crashed { .. }));
        for (_, o) in crashed {
            assert!(o.steps().total_all() >= 1);
            assert!(o.result().is_none());
        }
    }

    #[test]
    fn execution_outcome_into_iter_yields_all_processes() {
        let outcome = seeded(2).run(3, |ctx| ctx.id().as_usize()).outcome;
        let borrowed: Vec<_> = (&outcome).into_iter().collect();
        assert_eq!(borrowed.len(), 3);
        let collected: Vec<_> = outcome.into_iter().collect();
        assert_eq!(collected.len(), 3);
    }

    #[test]
    fn multi_operation_outcomes_flatten() {
        let outcome = seeded(4)
            .run(3, |ctx| {
                let base = ctx.id().as_usize() * 10;
                vec![base, base + 1]
            })
            .outcome;
        assert_eq!(outcome.flattened().len(), 6);
        assert_eq!(outcome.flattened_sorted(), vec![0, 1, 10, 11, 20, 21]);
    }
}
