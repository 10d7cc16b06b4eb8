//! Delta-debugging minimization of failing schedules.
//!
//! A counterexample schedule straight out of the explorer drags the whole
//! execution along — begins, unrelated suffixes, redundant switches. Zeller's
//! `ddmin` shrinks it to a 1-minimal subsequence: removing any single retained
//! choice makes the failure disappear. Replay tolerance makes this sound: the
//! [`ReplayScheduler`](shmem::vexec::ReplayScheduler) skips choices naming a
//! process that is not enabled and falls back to the lowest-index enabled
//! process once the schedule is exhausted, so *every* subsequence of a valid
//! schedule replays to a complete, deterministic execution.

use crate::dpor::Counterexample;
use crate::scenarios::ScenarioDef;
use shmem::{Schedule, ScheduleSource};

/// Zeller–Hildebrandt delta debugging over an arbitrary sequence: returns a
/// 1-minimal subsequence on which `fails` still returns `true`.
///
/// If `fails` rejects the full input the input is returned unchanged (there
/// is nothing to minimize towards).
pub fn ddmin<T: Clone>(input: &[T], mut fails: impl FnMut(&[T]) -> bool) -> Vec<T> {
    let mut current: Vec<T> = input.to_vec();
    if current.is_empty() || !fails(&current) {
        return current;
    }
    let mut granularity = 2usize;
    while current.len() >= 2 {
        let chunk = current.len().div_ceil(granularity);
        let mut reduced = false;

        // Try each chunk alone, then each complement (classic ddmin order).
        let mut start = 0;
        while start < current.len() {
            let end = (start + chunk).min(current.len());
            let subset: Vec<T> = current[start..end].to_vec();
            if subset.len() < current.len() && fails(&subset) {
                current = subset;
                granularity = 2;
                reduced = true;
                break;
            }
            start = end;
        }
        if !reduced && granularity > 2 {
            let mut start = 0;
            while start < current.len() {
                let end = (start + chunk).min(current.len());
                let complement: Vec<T> = current[..start]
                    .iter()
                    .chain(&current[end..])
                    .cloned()
                    .collect();
                if complement.len() < current.len() && fails(&complement) {
                    current = complement;
                    granularity = (granularity - 1).max(2);
                    reduced = true;
                    break;
                }
                start = end;
            }
        }
        if !reduced {
            if granularity >= current.len() {
                break; // 1-minimal
            }
            granularity = (granularity * 2).min(current.len());
        }
    }
    current
}

/// Replays `schedule` against a fresh build of the scenario and reports
/// whether the oracle still fails. This is the `ddmin` predicate — and the
/// one-command repro underneath `mcheck replay`.
pub fn schedule_fails(
    def: &ScenarioDef,
    crash_plan: Option<&Vec<Option<u64>>>,
    schedule: &Schedule,
    max_steps: u64,
) -> bool {
    let replay = ScheduleSource::Replay(schedule.clone());
    let (run, check) = def.execute(0, crash_plan, replay, max_steps);
    if run.trace.truncated || run.trace.aborted {
        // A cut-off replay never counts as a reproduction.
        return false;
    }
    check(&run).is_err()
}

/// Minimizes a counterexample's schedule with `ddmin`, preserving the crash
/// plan. The result still reproduces the violation (guaranteed by the
/// predicate) with a 1-minimal choice sequence.
pub fn minimize_counterexample(
    def: &ScenarioDef,
    cx: &Counterexample,
    max_steps: u64,
) -> Counterexample {
    let choices = ddmin(&cx.schedule.choices, |candidate| {
        schedule_fails(
            def,
            cx.crash_plan.as_ref(),
            &Schedule::new(candidate.to_vec()),
            max_steps,
        )
    });
    Counterexample {
        schedule: Schedule::new(choices),
        ..cx.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ddmin_reduces_to_the_failure_kernel() {
        // Failure: the sequence contains both 3 and 7.
        let input: Vec<u32> = (0..20).collect();
        let minimal = ddmin(&input, |s| s.contains(&3) && s.contains(&7));
        assert_eq!(minimal, vec![3, 7]);
    }

    #[test]
    fn ddmin_preserves_order_and_multiplicity() {
        let input = vec![5, 1, 5, 2, 5];
        // Failure: at least two fives.
        let minimal = ddmin(&input, |s| s.iter().filter(|&&x| x == 5).count() >= 2);
        assert_eq!(minimal, vec![5, 5]);
    }

    #[test]
    fn ddmin_returns_passing_input_unchanged() {
        let input = vec![1, 2, 3];
        assert_eq!(ddmin(&input, |_| false), input);
    }

    #[test]
    fn ddmin_handles_singleton_failures() {
        let input: Vec<u32> = (0..100).collect();
        let minimal = ddmin(&input, |s| s.contains(&42));
        assert_eq!(minimal, vec![42]);
    }
}
