//! Consistency checkers: linearizability and monotone consistency.
//!
//! Two correctness notions appear in the paper's applications:
//!
//! * **Linearizability** — required of the ℓ-test-and-set (Lemma 5) and the
//!   m-valued fetch-and-increment (Theorem 6). [`check_linearizable`] is a
//!   Wing&Gong-style exhaustive checker with memoization, suitable for the
//!   small histories produced by stress tests.
//! * **Monotone consistency** — the weaker guarantee the §8.1 counter
//!   provides. [`check_monotone_consistent`] implements the three conditions
//!   of Lemma 4 directly on a recorded history.
//! * **Quiescent consistency** — the guarantee of counting-network counters
//!   (the `cnet` crate): any read not overlapping an increment must see the
//!   exact number of completed increments. [`check_quiescent_consistent`]
//!   verifies it on a recorded history.
//!
//! All checkers consume [`History`] values produced by a
//! [`Recorder`](crate::history::Recorder), pending operations included. The
//! linearizability checker *completes* each pending operation the
//! Herlihy–Wing way: it linearizes anywhere after its invocation, returning
//! what the sequential specification returns there, or never takes effect.
//! The counter checkers count a pending increment as started, not completed.

use crate::history::{History, OpRecord};
use std::collections::HashSet;
use std::fmt;
use std::hash::Hash;

/// A sequential specification of a shared object, used by the
/// linearizability checker.
///
/// Implementations describe the object's state machine: starting from
/// [`initial`](SequentialSpec::initial), applying operations one at a time in
/// some sequential order must reproduce the results observed in the concurrent
/// history.
pub trait SequentialSpec {
    /// Operation type.
    type Op;
    /// Result type returned by operations.
    type Ret: PartialEq;
    /// Object state.
    type State: Clone + Eq + Hash;

    /// The object's initial state.
    fn initial(&self) -> Self::State;

    /// Applies `op` to `state`, returning the successor state and the result
    /// the operation returns in that sequential execution.
    fn apply(&self, state: &Self::State, op: &Self::Op) -> (Self::State, Self::Ret);
}

/// The reason a history failed a consistency check.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Violation {
    /// No linearization order consistent with real time reproduces the
    /// observed results.
    NotLinearizable,
    /// Two reads ordered in real time returned decreasing values
    /// (monotone-consistency condition 1).
    NonMonotoneReads {
        /// Value returned by the earlier read.
        earlier: u64,
        /// Value returned by the later read.
        later: u64,
    },
    /// A read returned less than the number of increments that had completed
    /// before it started (monotone-consistency condition 2).
    ReadBelowCompletedIncrements {
        /// Value the read returned.
        returned: u64,
        /// Number of increments completed before the read's invocation.
        completed: u64,
    },
    /// A read returned more than the number of increments that had started
    /// before it responded (monotone-consistency condition 3).
    ReadAboveStartedIncrements {
        /// Value the read returned.
        returned: u64,
        /// Number of increments started before the read's response.
        started: u64,
    },
    /// A read performed at a quiescent point (no increment overlapping it)
    /// did not return the exact number of completed increments.
    QuiescentReadMismatch {
        /// Value the read returned.
        returned: u64,
        /// Number of increments completed before the read's invocation.
        expected: u64,
    },
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Violation::NotLinearizable => write!(f, "history is not linearizable"),
            Violation::NonMonotoneReads { earlier, later } => write!(
                f,
                "reads are not monotone: an earlier read returned {earlier} but a later read returned {later}"
            ),
            Violation::ReadBelowCompletedIncrements { returned, completed } => write!(
                f,
                "a read returned {returned} but {completed} increments had already completed"
            ),
            Violation::ReadAboveStartedIncrements { returned, started } => write!(
                f,
                "a read returned {returned} but only {started} increments had started"
            ),
            Violation::QuiescentReadMismatch { returned, expected } => write!(
                f,
                "a quiescent read returned {returned} but exactly {expected} increments had completed"
            ),
        }
    }
}

impl std::error::Error for Violation {}

/// Checks whether `history` is linearizable with respect to `spec`.
///
/// Pending operations are completed (see the module docs). On success,
/// returns one witness linearization as a list of indices into
/// `history.records()`: every completed operation, plus the pending ones
/// that took effect.
///
/// The search is exponential in the worst case (linearizability checking is
/// NP-complete); memoization over (set of linearized operations, object state)
/// keeps it fast for the history sizes produced by the test suite (tens of
/// operations).
///
/// # Errors
///
/// Returns [`Violation::NotLinearizable`] if no valid linearization exists.
///
/// # Panics
///
/// Panics if the history holds more than 64 operations, pending ones
/// included.
pub fn check_linearizable<S>(
    spec: &S,
    history: &History<S::Op, S::Ret>,
) -> Result<Vec<usize>, Violation>
where
    S: SequentialSpec,
{
    let records = history.records();
    assert!(
        records.len() <= 64,
        "the exhaustive linearizability checker supports at most 64 operations per history"
    );

    let mut order: Vec<usize> = Vec::with_capacity(records.len());
    let mut visited: HashSet<(u64, S::State)> = HashSet::new();
    if search(spec, records, 0, &spec.initial(), &mut order, &mut visited) {
        Ok(order)
    } else {
        Err(Violation::NotLinearizable)
    }
}

fn search<S>(
    spec: &S,
    records: &[OpRecord<S::Op, S::Ret>],
    done_mask: u64,
    state: &S::State,
    order: &mut Vec<usize>,
    visited: &mut HashSet<(u64, S::State)>,
) -> bool
where
    S: SequentialSpec,
{
    // Minimum response among completed operations not yet linearized: an
    // operation can only be linearized next if no other operation finished
    // entirely before it began. Once every completed operation is
    // linearized, the pending ones left over never took effect.
    let Some(min_response) = records
        .iter()
        .enumerate()
        .filter(|(i, _)| done_mask & (1 << i) == 0)
        .filter_map(|(_, r)| r.response.as_ref().map(|response| response.at))
        .min()
    else {
        return true;
    };
    if !visited.insert((done_mask, state.clone())) {
        return false;
    }

    for (i, record) in records.iter().enumerate() {
        if done_mask & (1 << i) != 0 || record.invoke > min_response {
            continue;
        }
        let (next_state, result) = spec.apply(state, &record.op);
        if record.result().is_some_and(|observed| *observed != result) {
            continue;
        }
        order.push(i);
        if search(
            spec,
            records,
            done_mask | (1 << i),
            &next_state,
            order,
            visited,
        ) {
            return true;
        }
        order.pop();
    }
    false
}

/// Operations of a counter object, as used by the §8.1 monotone-consistent
/// counter and its baselines.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum CounterOp {
    /// Increment the counter. Counter increments return no value to callers;
    /// by convention records of increments carry result `0`, and both
    /// checkers ignore it.
    Increment,
    /// Read the counter. The recorded result is the value returned.
    Read,
}

/// Sequential specification of a standard counter: increments add one (and by
/// convention "return" 0), reads return the current value. Used to check
/// *linearizability* of counter histories (which the paper's counter
/// deliberately does not satisfy).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CounterSpec;

impl SequentialSpec for CounterSpec {
    type Op = CounterOp;
    type Ret = u64;
    type State = u64;

    fn initial(&self) -> u64 {
        0
    }

    fn apply(&self, state: &u64, op: &CounterOp) -> (u64, u64) {
        match op {
            // Increments have no return value; records carry 0 by convention.
            CounterOp::Increment => (*state + 1, 0),
            CounterOp::Read => (*state, *state),
        }
    }
}

/// Sequential specification of an exact ticket counter (fetch-and-increment):
/// each increment returns its 0-indexed ticket, the count before it, and
/// reads return the count. Used to show that recorded counting-network ticket
/// histories are *not* linearizable.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TicketCounterSpec;

impl SequentialSpec for TicketCounterSpec {
    type Op = CounterOp;
    type Ret = u64;
    type State = u64;

    fn initial(&self) -> u64 {
        0
    }

    fn apply(&self, state: &u64, op: &CounterOp) -> (u64, u64) {
        match op {
            CounterOp::Increment => (*state + 1, *state),
            CounterOp::Read => (*state, *state),
        }
    }
}

/// Checks the three monotone-consistency conditions of Lemma 4 on a counter
/// history.
///
/// 1. There is a total order on reads, consistent with their real-time order,
///    along which returned values are non-decreasing.
/// 2. Every read returns at least the number of increments completed before it
///    started.
/// 3. Every read returns at most the number of increments started before it
///    responded.
///
/// Increment results are ignored; only their invocation/response times matter.
/// A pending increment (one that started but never completed: its process
/// crashed, or it was still in flight when recording stopped) counts towards
/// condition 3 but not condition 2. A pending read returned nothing and is
/// unconstrained.
///
/// # Errors
///
/// Returns the first [`Violation`] found.
pub fn check_monotone_consistent(history: &History<CounterOp, u64>) -> Result<(), Violation> {
    let (reads, increments) = (completed_reads(history), increments(history));

    // Condition 1: pairwise — if R1 finishes before R2 starts, then
    // value(R1) <= value(R2). (Sorting reads by value with invoke-time
    // tie-breaks then yields a witness total order.)
    for &(r1, earlier) in &reads {
        for &(r2, later) in &reads {
            if r1.precedes(r2) && earlier > later {
                return Err(Violation::NonMonotoneReads { earlier, later });
            }
        }
    }

    for &(read, returned) in &reads {
        // Condition 2: completed increments before the read started.
        let completed = increments.iter().filter(|inc| inc.precedes(read)).count() as u64;
        if returned < completed {
            return Err(Violation::ReadBelowCompletedIncrements {
                returned,
                completed,
            });
        }
        // Condition 3: started increments (completed or pending) before the
        // read responded.
        let started = increments.iter().filter(|inc| !read.precedes(inc)).count() as u64;
        if returned > started {
            return Err(Violation::ReadAboveStartedIncrements { returned, started });
        }
    }
    Ok(())
}

/// Checks *quiescent consistency* of a counter history: every read performed
/// at a quiescent point sees the exact number of completed increments.
///
/// A read is **quiescent** when no increment overlaps it: every completed
/// increment either responded before the read invoked or invoked after the
/// read responded, and no pending increment (one that started but never
/// completed) invoked before the read responded. Reads that do overlap an
/// increment are unconstrained by this checker — that is precisely the
/// guarantee counting networks provide (see the `cnet` crate), strictly
/// weaker than linearizability but incomparable to monotone consistency
/// (quiescent consistency says nothing about the order of concurrent reads).
///
/// Increment results are ignored; only their invocation/response times
/// matter. A pending read returned nothing and is unconstrained.
///
/// # Errors
///
/// Returns [`Violation::QuiescentReadMismatch`] for the first quiescent read
/// whose value is not exactly the completed-increment count.
pub fn check_quiescent_consistent(history: &History<CounterOp, u64>) -> Result<(), Violation> {
    let increments = increments(history);
    for (read, returned) in completed_reads(history) {
        if increments.iter().any(|inc| inc.overlaps(read)) {
            continue; // not a quiescent point; the read is unconstrained
        }
        let expected = increments.iter().filter(|inc| inc.precedes(read)).count() as u64;
        if returned != expected {
            return Err(Violation::QuiescentReadMismatch { returned, expected });
        }
    }
    Ok(())
}

/// The completed reads of a counter history, with the values they returned.
fn completed_reads(history: &History<CounterOp, u64>) -> Vec<(&OpRecord<CounterOp, u64>, u64)> {
    history
        .iter()
        .filter(|r| r.op == CounterOp::Read)
        .filter_map(|r| r.result().map(|&value| (r, value)))
        .collect()
}

/// The increments of a counter history, pending ones included.
fn increments(history: &History<CounterOp, u64>) -> Vec<&OpRecord<CounterOp, u64>> {
    history
        .iter()
        .filter(|r| r.op == CounterOp::Increment)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::process::ProcessId;

    fn op(p: usize, op: CounterOp, result: u64, invoke: u64, at: u64) -> OpRecord<CounterOp, u64> {
        OpRecord::completed(ProcessId::new(p), op, result, invoke, at)
    }

    fn pending(process: usize, invoke: u64) -> OpRecord<CounterOp, u64> {
        OpRecord::pending(ProcessId::new(process), CounterOp::Increment, invoke)
    }

    /// Sequential spec of a single-value register for checker tests.
    #[derive(Clone, Copy, Debug)]
    struct RegisterSpec;

    #[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
    enum RegOp {
        Write(u64),
        Read,
    }

    impl SequentialSpec for RegisterSpec {
        type Op = RegOp;
        type Ret = u64;
        type State = u64;

        fn initial(&self) -> u64 {
            0
        }

        fn apply(&self, state: &u64, op: &RegOp) -> (u64, u64) {
            match op {
                RegOp::Write(v) => (*v, *v),
                RegOp::Read => (*state, *state),
            }
        }
    }

    fn reg(op_: RegOp, result: u64, invoke: u64, response: u64) -> OpRecord<RegOp, u64> {
        OpRecord::completed(ProcessId::new(0), op_, result, invoke, response)
    }

    #[test]
    fn empty_history_is_linearizable() {
        let history: History<RegOp, u64> = History::new(vec![]);
        assert_eq!(check_linearizable(&RegisterSpec, &history), Ok(vec![]));
    }

    #[test]
    fn sequential_register_history_is_linearizable() {
        let history = History::new(vec![
            reg(RegOp::Write(5), 5, 1, 2),
            reg(RegOp::Read, 5, 3, 4),
            reg(RegOp::Write(9), 9, 5, 6),
            reg(RegOp::Read, 9, 7, 8),
        ]);
        let order = check_linearizable(&RegisterSpec, &history).expect("linearizable");
        assert_eq!(order.len(), 4);
    }

    #[test]
    fn stale_read_after_write_is_not_linearizable() {
        // Write(7) completes strictly before the read starts, yet the read
        // returns the initial value 0.
        let history = History::new(vec![
            reg(RegOp::Write(7), 7, 1, 2),
            reg(RegOp::Read, 0, 3, 4),
        ]);
        assert_eq!(
            check_linearizable(&RegisterSpec, &history),
            Err(Violation::NotLinearizable)
        );
    }

    #[test]
    fn overlapping_ops_may_linearize_in_either_order() {
        // The read overlaps the write, so returning either 0 or 7 is fine.
        for observed in [0u64, 7] {
            let history = History::new(vec![
                reg(RegOp::Write(7), 7, 1, 4),
                reg(RegOp::Read, observed, 2, 3),
            ]);
            assert!(check_linearizable(&RegisterSpec, &history).is_ok());
        }
    }

    #[test]
    fn counter_spec_linearizability_accepts_correct_histories() {
        let history = History::new(vec![
            op(0, CounterOp::Increment, 0, 1, 2),
            op(1, CounterOp::Read, 1, 3, 4),
            op(2, CounterOp::Increment, 0, 5, 6),
            op(1, CounterOp::Read, 2, 7, 8),
        ]);
        assert!(check_linearizable(&CounterSpec, &history).is_ok());
    }

    #[test]
    fn ticket_counter_spec_hands_out_tickets_in_order() {
        let history = History::new(vec![
            op(0, CounterOp::Increment, 0, 1, 2),
            op(1, CounterOp::Increment, 1, 3, 4),
            op(2, CounterOp::Read, 2, 5, 6),
        ]);
        assert!(check_linearizable(&TicketCounterSpec, &history).is_ok());
        // A later increment may not take an earlier ticket.
        let inverted = History::new(vec![
            op(0, CounterOp::Increment, 1, 1, 2),
            op(1, CounterOp::Increment, 0, 3, 4),
        ]);
        assert_eq!(
            check_linearizable(&TicketCounterSpec, &inverted),
            Err(Violation::NotLinearizable)
        );
    }

    #[test]
    fn linearization_witness_respects_real_time_order() {
        let history = History::new(vec![
            op(0, CounterOp::Increment, 0, 1, 2),
            op(1, CounterOp::Increment, 0, 3, 4),
            op(2, CounterOp::Read, 2, 5, 6),
        ]);
        let order = check_linearizable(&CounterSpec, &history).expect("linearizable");
        // The read is last in real time, so it must be last in the witness.
        assert_eq!(*order.last().unwrap(), 2);
    }

    #[test]
    fn monotone_consistency_accepts_a_valid_history() {
        let history = History::new(vec![
            op(0, CounterOp::Increment, 0, 1, 4),
            op(1, CounterOp::Increment, 0, 2, 6),
            op(2, CounterOp::Read, 1, 5, 7),
            op(2, CounterOp::Read, 2, 8, 9),
        ]);
        assert_eq!(check_monotone_consistent(&history), Ok(()));
    }

    #[test]
    fn monotone_consistency_rejects_decreasing_reads() {
        let history = History::new(vec![
            op(0, CounterOp::Increment, 0, 1, 2),
            op(1, CounterOp::Increment, 0, 3, 4),
            op(2, CounterOp::Read, 2, 5, 6),
            op(2, CounterOp::Read, 1, 7, 8),
        ]);
        assert!(matches!(
            check_monotone_consistent(&history),
            Err(Violation::NonMonotoneReads {
                earlier: 2,
                later: 1
            })
        ));
    }

    #[test]
    fn monotone_consistency_rejects_reads_below_completed_increments() {
        let history = History::new(vec![
            op(0, CounterOp::Increment, 0, 1, 2),
            op(1, CounterOp::Increment, 0, 3, 4),
            op(2, CounterOp::Read, 1, 5, 6),
        ]);
        assert!(matches!(
            check_monotone_consistent(&history),
            Err(Violation::ReadBelowCompletedIncrements {
                returned: 1,
                completed: 2
            })
        ));
    }

    #[test]
    fn monotone_consistency_rejects_reads_above_started_increments() {
        let history = History::new(vec![
            op(0, CounterOp::Increment, 0, 1, 2),
            op(2, CounterOp::Read, 3, 3, 4),
        ]);
        assert!(matches!(
            check_monotone_consistent(&history),
            Err(Violation::ReadAboveStartedIncrements {
                returned: 3,
                started: 1
            })
        ));
    }

    #[test]
    fn pending_increments_count_towards_started_but_not_completed() {
        // One completed increment plus one pending increment: a read of 2 is
        // fine (condition 3 counts the pending one), but a read of 3 is not.
        let history = History::new(vec![
            op(0, CounterOp::Increment, 0, 1, 2),
            pending(1, 3),
            op(2, CounterOp::Read, 2, 4, 5),
        ]);
        assert_eq!(check_monotone_consistent(&history), Ok(()));

        let too_high = History::new(vec![
            op(0, CounterOp::Increment, 0, 1, 2),
            pending(1, 3),
            op(2, CounterOp::Read, 3, 4, 5),
        ]);
        assert!(check_monotone_consistent(&too_high).is_err());

        // A pending increment that starts only after the read responded does
        // not count.
        let late_pending = History::new(vec![
            op(0, CounterOp::Increment, 0, 1, 2),
            op(2, CounterOp::Read, 2, 4, 5),
            pending(1, 9),
        ]);
        assert!(check_monotone_consistent(&late_pending).is_err());
    }

    #[test]
    fn paper_counterexample_is_monotone_but_not_linearizable() {
        // The §8.1 non-linearizability scenario: p3 starts an increment and
        // stalls before writing the max register; concurrently p2 increments
        // and obtains name 2. A read R1 then returns 2. Afterwards p1
        // increments, obtains name 1 (possible in a renaming network), and a
        // second read R2 still returns 2. p1's completed increment lies
        // strictly between two reads returning the same value, so the history
        // is not linearizable — but it is monotone-consistent because p3's
        // increment has started.
        // Completing p3's increment does not help: R1 needs it to have taken
        // effect, R2 needs it not to have.
        let history = History::new(vec![
            pending(3, 1),                        // p3 starts, never finishes
            op(2, CounterOp::Increment, 0, 2, 3), // p2 obtains name 2
            op(9, CounterOp::Read, 2, 4, 5),      // R1 returns 2
            op(1, CounterOp::Increment, 0, 6, 7), // p1 obtains name 1
            op(9, CounterOp::Read, 2, 8, 9),      // R2 still returns 2
        ]);
        assert_eq!(check_monotone_consistent(&history), Ok(()));
        assert_eq!(
            check_linearizable(&CounterSpec, &history),
            Err(Violation::NotLinearizable)
        );
    }

    #[test]
    fn monotone_consistency_of_empty_and_read_only_histories() {
        let empty: History<CounterOp, u64> = History::new(vec![]);
        assert_eq!(check_monotone_consistent(&empty), Ok(()));

        let reads_only = History::new(vec![op(0, CounterOp::Read, 0, 1, 2)]);
        assert_eq!(check_monotone_consistent(&reads_only), Ok(()));

        let bad_read = History::new(vec![op(0, CounterOp::Read, 1, 1, 2)]);
        assert!(check_monotone_consistent(&bad_read).is_err());
    }

    #[test]
    fn quiescent_consistency_accepts_exact_quiescent_reads() {
        // Two completed increments, then a read of 2, then another increment
        // and a read of 3: every read is quiescent and exact.
        let history = History::new(vec![
            op(0, CounterOp::Increment, 0, 1, 2),
            op(1, CounterOp::Increment, 0, 3, 4),
            op(2, CounterOp::Read, 2, 5, 6),
            op(0, CounterOp::Increment, 0, 7, 8),
            op(2, CounterOp::Read, 3, 9, 10),
        ]);
        assert_eq!(check_quiescent_consistent(&history), Ok(()));
    }

    #[test]
    fn quiescent_consistency_rejects_inexact_quiescent_reads() {
        // The read starts after both increments completed but returns 1.
        let history = History::new(vec![
            op(0, CounterOp::Increment, 0, 1, 2),
            op(1, CounterOp::Increment, 0, 3, 4),
            op(2, CounterOp::Read, 1, 5, 6),
        ]);
        assert_eq!(
            check_quiescent_consistent(&history),
            Err(Violation::QuiescentReadMismatch {
                returned: 1,
                expected: 2
            })
        );
        // Over-counting at a quiescent point is just as wrong.
        let too_high = History::new(vec![
            op(0, CounterOp::Increment, 0, 1, 2),
            op(2, CounterOp::Read, 2, 3, 4),
        ]);
        assert!(matches!(
            check_quiescent_consistent(&too_high),
            Err(Violation::QuiescentReadMismatch {
                returned: 2,
                expected: 1
            })
        ));
    }

    #[test]
    fn reads_overlapping_increments_are_unconstrained() {
        // The read overlaps the second increment, so returning 1 or 2 (or
        // even 0 — quiescent consistency says nothing here) is accepted.
        for observed in [0u64, 1, 2] {
            let history = History::new(vec![
                op(0, CounterOp::Increment, 0, 1, 2),
                op(1, CounterOp::Increment, 0, 4, 7),
                op(2, CounterOp::Read, observed, 5, 6),
            ]);
            assert_eq!(
                check_quiescent_consistent(&history),
                Ok(()),
                "observed {observed}"
            );
        }
    }

    #[test]
    fn pending_increments_make_overlapping_reads_non_quiescent() {
        // A pending increment started at time 3 never completes: the read at
        // [4, 5] overlaps it and is unconstrained...
        let history = History::new(vec![
            op(0, CounterOp::Increment, 0, 1, 2),
            pending(1, 3),
            op(2, CounterOp::Read, 2, 4, 5),
        ]);
        assert_eq!(check_quiescent_consistent(&history), Ok(()));
        // ...but a pending increment started only after the read responded
        // leaves the read quiescent, so the stale value is a violation.
        let late_pending = History::new(vec![
            op(0, CounterOp::Increment, 0, 1, 2),
            op(2, CounterOp::Read, 2, 4, 5),
            pending(1, 9),
        ]);
        assert!(matches!(
            check_quiescent_consistent(&late_pending),
            Err(Violation::QuiescentReadMismatch {
                returned: 2,
                expected: 1
            })
        ));
    }

    #[test]
    fn quiescent_consistency_of_empty_and_read_only_histories() {
        let empty: History<CounterOp, u64> = History::new(vec![]);
        assert_eq!(check_quiescent_consistent(&empty), Ok(()));

        let reads_only = History::new(vec![op(0, CounterOp::Read, 0, 1, 2)]);
        assert_eq!(check_quiescent_consistent(&reads_only), Ok(()));

        let bad_read = History::new(vec![op(0, CounterOp::Read, 5, 1, 2)]);
        assert!(check_quiescent_consistent(&bad_read).is_err());
    }

    #[test]
    fn quiescent_consistency_is_weaker_than_linearizability_on_reads() {
        // The §8.1-style history: non-linearizable (R1 and R2 both return 2
        // around a completed increment) yet quiescently consistent, because
        // both reads overlap the pending increment that started at time 1.
        let history = History::new(vec![
            pending(3, 1),
            op(2, CounterOp::Increment, 0, 2, 3),
            op(9, CounterOp::Read, 2, 4, 5),
            op(1, CounterOp::Increment, 0, 6, 7),
            op(9, CounterOp::Read, 2, 8, 9),
        ]);
        assert_eq!(check_quiescent_consistent(&history), Ok(()));
        assert_eq!(
            check_linearizable(&CounterSpec, &history),
            Err(Violation::NotLinearizable)
        );
    }

    #[test]
    fn pending_operations_that_took_effect_are_completed() {
        // p0's increment never responds, yet p1, invoked after it, takes
        // ticket 1: the history linearizes only if p0's increment took
        // effect first, with ticket 0.
        let history = History::new(vec![
            pending(0, 1),
            op(1, CounterOp::Increment, 1, 2, 3),
            op(2, CounterOp::Read, 2, 4, 5),
        ]);
        assert_eq!(
            check_linearizable(&TicketCounterSpec, &history),
            Ok(vec![0, 1, 2])
        );
        // Without the pending record the same responses cannot linearize.
        let dropped = history.filter(|r| r.response.is_some());
        assert!(check_linearizable(&TicketCounterSpec, &dropped).is_err());
    }

    #[test]
    fn pending_operations_that_never_took_effect_are_dropped() {
        // p0's increment never responds, and p1 (invoked after it) takes
        // ticket 0 and a later read returns 1: p0's increment can have
        // taken effect nowhere before the read, so the witness leaves it out.
        let history = History::new(vec![
            pending(0, 1),
            op(1, CounterOp::Increment, 0, 2, 3),
            op(2, CounterOp::Read, 1, 4, 5),
        ]);
        assert_eq!(
            check_linearizable(&TicketCounterSpec, &history),
            Ok(vec![1, 2])
        );
    }

    #[test]
    #[should_panic(expected = "at most 64 operations")]
    fn pending_operations_count_toward_the_operation_cap() {
        // 64 completed reads fit; one pending increment more does not.
        let mut records: Vec<_> = (0..64)
            .map(|i| op(0, CounterOp::Read, 0, 2 * i + 1, 2 * i + 2))
            .collect();
        records.push(pending(1, 200));
        let _ = check_linearizable(&TicketCounterSpec, &History::new(records));
    }

    #[test]
    fn violation_display_is_informative() {
        let violations = vec![
            Violation::NotLinearizable,
            Violation::NonMonotoneReads {
                earlier: 2,
                later: 1,
            },
            Violation::ReadBelowCompletedIncrements {
                returned: 0,
                completed: 3,
            },
            Violation::ReadAboveStartedIncrements {
                returned: 5,
                started: 2,
            },
            Violation::QuiescentReadMismatch {
                returned: 4,
                expected: 3,
            },
        ];
        for v in violations {
            assert!(!v.to_string().is_empty());
        }
    }

    #[test]
    #[should_panic(expected = "at most 64 operations")]
    fn linearizability_checker_rejects_oversized_histories() {
        let records: Vec<OpRecord<CounterOp, u64>> = (0..65)
            .map(|i| {
                op(
                    i,
                    CounterOp::Increment,
                    i as u64 + 1,
                    2 * i as u64 + 1,
                    2 * i as u64 + 2,
                )
            })
            .collect();
        let _ = check_linearizable(&CounterSpec, &History::new(records));
    }
}
