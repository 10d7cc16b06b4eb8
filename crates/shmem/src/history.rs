//! Invoke/response history recording for concurrent objects.
//!
//! Correctness arguments in the paper (linearizability of the ℓ-test-and-set
//! and fetch-and-increment objects, monotone consistency of the counter) are
//! statements about *histories*: sequences of operation invocations and
//! responses with their real-time order. The [`Recorder`] opens a record at
//! each invocation ([`Recorder::invoke`]) and closes it at the response
//! ([`Recorder::respond`]), stamping both from one logical clock, so the
//! checkers in [`consistency`](crate::consistency) can reconstruct the
//! real-time partial order of any execution. A record never closed (its
//! process crashed) stays in the [`History`] as **pending**: it may already
//! have taken effect, and every checker reads it from there.
//!
//! Stamps are *uncharged*: recording takes no shared-memory step, so under
//! the virtual executor no other process runs between a process's response
//! and its next invocation. A scenario that needs another process to run
//! between two of its own operations must take a charged step between them,
//! and schedule-equivalence classes are built from charged steps only.

use crate::process::ProcessId;
use parking_lot::Mutex;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

/// The response of a completed operation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Response<V> {
    /// The value the operation returned.
    pub result: V,
    /// Logical timestamp at response. Always greater than `invoke`.
    pub at: u64,
}

/// One operation in a history: completed, or pending if it never responded.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct OpRecord<O, V> {
    /// The process that performed the operation.
    pub process: ProcessId,
    /// The operation performed.
    pub op: O,
    /// Logical timestamp at invocation.
    pub invoke: u64,
    /// The response, or `None` while the operation is pending.
    pub response: Option<Response<V>>,
}

impl<O, V> OpRecord<O, V> {
    /// A completed operation, invoked at `invoke`, that returned `result` at
    /// `at`.
    pub fn completed(process: ProcessId, op: O, result: V, invoke: u64, at: u64) -> Self {
        let mut record = OpRecord::pending(process, op, invoke);
        record.response = Some(Response { result, at });
        record
    }

    /// An operation invoked at `invoke` that never responded.
    pub fn pending(process: ProcessId, op: O, invoke: u64) -> Self {
        OpRecord {
            process,
            op,
            invoke,
            response: None,
        }
    }

    /// The value the operation returned, or `None` while it is pending.
    pub fn result(&self) -> Option<&V> {
        self.response.as_ref().map(|response| &response.result)
    }

    /// Whether this operation's response precedes `other`'s invocation
    /// (i.e. it strictly precedes `other` in real time). A pending operation
    /// precedes nothing.
    pub fn precedes(&self, other: &OpRecord<O, V>) -> bool {
        matches!(&self.response, Some(response) if response.at < other.invoke)
    }

    /// Whether this operation overlaps `other` in real time.
    pub fn overlaps(&self, other: &OpRecord<O, V>) -> bool {
        !self.precedes(other) && !other.precedes(self)
    }
}

/// An operation history, completed and pending operations alike, ordered by
/// invocation timestamp.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct History<O, V> {
    records: Vec<OpRecord<O, V>>,
}

impl<O, V> History<O, V> {
    /// Builds a history from raw records, sorting them by invocation time.
    pub fn new(mut records: Vec<OpRecord<O, V>>) -> Self {
        records.sort_by_key(|r| r.invoke);
        History { records }
    }

    /// Number of operations in the history, pending ones included.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the history contains no operations.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Iterates over the records in invocation order.
    pub fn iter(&self) -> std::slice::Iter<'_, OpRecord<O, V>> {
        self.records.iter()
    }

    /// The records in invocation order.
    pub fn records(&self) -> &[OpRecord<O, V>] {
        &self.records
    }

    /// Returns the sub-history of operations satisfying `predicate`,
    /// preserving timestamps.
    pub fn filter<F>(&self, predicate: F) -> History<O, V>
    where
        O: Clone,
        V: Clone,
        F: Fn(&OpRecord<O, V>) -> bool,
    {
        History {
            records: self
                .records
                .iter()
                .filter(|r| predicate(r))
                .cloned()
                .collect(),
        }
    }
}

impl<O, V> IntoIterator for History<O, V> {
    type Item = OpRecord<O, V>;
    type IntoIter = std::vec::IntoIter<OpRecord<O, V>>;

    fn into_iter(self) -> Self::IntoIter {
        self.records.into_iter()
    }
}

impl<'a, O, V> IntoIterator for &'a History<O, V> {
    type Item = &'a OpRecord<O, V>;
    type IntoIter = std::slice::Iter<'a, OpRecord<O, V>>;

    fn into_iter(self) -> Self::IntoIter {
        self.records.iter()
    }
}

impl<O, V> FromIterator<OpRecord<O, V>> for History<O, V> {
    fn from_iter<I: IntoIterator<Item = OpRecord<O, V>>>(iter: I) -> Self {
        History::new(iter.into_iter().collect())
    }
}

/// An open record, returned by [`Recorder::invoke`] and closed by
/// [`Recorder::respond`]. Dropping it leaves the operation pending.
#[derive(Debug)]
#[must_use = "an operation that is never responded to stays pending"]
pub struct Invocation(u64);

/// A thread-safe recorder that opens a record at every invocation and
/// closes it at the response, stamping both from one logical clock.
///
/// # Example
///
/// ```
/// use shmem::history::Recorder;
/// use shmem::process::ProcessId;
///
/// let recorder: Recorder<&'static str, u64> = Recorder::new();
/// let increment = recorder.invoke(ProcessId::new(0), "increment");
/// // ... perform the operation on the shared object ...
/// recorder.respond(increment, 1);
/// let _crashed = recorder.invoke(ProcessId::new(1), "increment");
/// let history = recorder.take_history();
/// assert_eq!(history.len(), 2);
/// assert_eq!(history.records()[0].result(), Some(&1));
/// assert_eq!(history.records()[1].result(), None); // pending
/// ```
pub struct Recorder<O, V> {
    clock: AtomicU64,
    records: Mutex<Vec<OpRecord<O, V>>>,
}

impl<O, V> Recorder<O, V> {
    /// Creates an empty recorder.
    pub fn new() -> Self {
        Recorder {
            clock: AtomicU64::new(1),
            records: Mutex::new(Vec::new()),
        }
    }

    /// Opens a pending record of `process` invoking `op`. Call this
    /// immediately before invoking the operation on the shared object.
    pub fn invoke(&self, process: ProcessId, op: O) -> Invocation {
        let mut records = self.records.lock();
        // Stamped under the lock, so the records stay sorted by invocation.
        let invoke = self.clock.fetch_add(1, Ordering::SeqCst);
        records.push(OpRecord::pending(process, op, invoke));
        Invocation(invoke)
    }

    /// Closes the record `invocation` opened: the operation returned
    /// `result`. The response timestamp is assigned at the moment of this
    /// call, so call it immediately after the operation returns.
    ///
    /// # Panics
    ///
    /// Panics if the record was already taken by [`Recorder::take_history`].
    pub fn respond(&self, invocation: Invocation, result: V) {
        let at = self.clock.fetch_add(1, Ordering::SeqCst);
        let mut records = self.records.lock();
        let index = records
            .binary_search_by_key(&invocation.0, |record| record.invoke)
            .expect("responding to an operation of a history already taken");
        records[index].response = Some(Response { result, at });
    }

    /// Number of operations recorded so far, pending ones included.
    pub fn len(&self) -> usize {
        self.records.lock().len()
    }

    /// Whether nothing has been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.records.lock().is_empty()
    }

    /// Takes the recorded operations, leaving the recorder empty. Operations
    /// still open stay pending in the returned history.
    pub fn take_history(&self) -> History<O, V> {
        History::new(std::mem::take(&mut *self.records.lock()))
    }

    /// Clones the recorded operations without clearing the recorder.
    pub fn snapshot(&self) -> History<O, V>
    where
        O: Clone,
        V: Clone,
    {
        History::new(self.records.lock().clone())
    }
}

impl<O, V> Default for Recorder<O, V> {
    fn default() -> Self {
        Recorder::new()
    }
}

impl<O, V> fmt::Debug for Recorder<O, V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Recorder")
            .field("clock", &self.clock.load(Ordering::SeqCst))
            .field("recorded", &self.records.lock().len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(invoke: u64, response: u64, result: u64) -> OpRecord<&'static str, u64> {
        OpRecord::completed(ProcessId::new(0), "op", result, invoke, response)
    }

    #[test]
    fn precedes_and_overlaps_follow_real_time() {
        let a = record(1, 2, 0);
        let b = record(3, 4, 0);
        let c = record(2, 5, 0);
        assert!(a.precedes(&b));
        assert!(!b.precedes(&a));
        assert!(a.overlaps(&c));
        assert!(c.overlaps(&b));
        assert!(!a.overlaps(&b));
        // A pending operation precedes nothing.
        let pending = OpRecord::pending(ProcessId::new(1), "op", 3);
        assert!(a.precedes(&pending));
        assert!(!pending.precedes(&record(7, 8, 0)));
    }

    #[test]
    fn history_sorts_by_invocation_time() {
        let history = History::new(vec![record(5, 6, 2), record(1, 2, 0), record(3, 4, 1)]);
        let invokes: Vec<u64> = history.iter().map(|r| r.invoke).collect();
        assert_eq!(invokes, vec![1, 3, 5]);
        assert_eq!(history.len(), 3);
        assert!(!history.is_empty());
    }

    #[test]
    fn history_filter_preserves_matching_records() {
        let history = History::new(vec![record(1, 2, 10), record(3, 4, 20), record(5, 6, 30)]);
        let filtered = history.filter(|r| r.result() >= Some(&20));
        assert_eq!(filtered.len(), 2);
        assert!(filtered.iter().all(|r| r.result() >= Some(&20)));
    }

    #[test]
    fn history_collects_from_iterator() {
        let history: History<&str, u64> = vec![record(9, 10, 1), record(1, 2, 2)]
            .into_iter()
            .collect();
        assert_eq!(history.records()[0].invoke, 1);
        let back: Vec<_> = (&history).into_iter().collect();
        assert_eq!(back.len(), 2);
        let owned: Vec<_> = history.into_iter().collect();
        assert_eq!(owned.len(), 2);
    }

    #[test]
    fn recorder_assigns_increasing_timestamps() {
        let recorder: Recorder<&'static str, u64> = Recorder::new();
        assert!(recorder.is_empty());
        let t0 = recorder.invoke(ProcessId::new(1), "read");
        recorder.respond(t0, 7);
        let t1 = recorder.invoke(ProcessId::new(2), "read");
        recorder.respond(t1, 8);
        assert_eq!(recorder.len(), 2);

        let history = recorder.snapshot();
        assert_eq!(history.len(), 2);
        let at = |r: &OpRecord<&str, u64>| r.response.as_ref().expect("completed").at;
        let first = &history.records()[0];
        let second = &history.records()[1];
        assert!(first.invoke < at(first));
        assert!(second.invoke < at(second));
        assert!(at(first) < at(second));

        let taken = recorder.take_history();
        assert_eq!(taken.len(), 2);
        assert!(recorder.is_empty());
    }

    #[test]
    #[should_panic(expected = "already taken")]
    fn responding_after_the_history_was_taken_panics() {
        let recorder: Recorder<&'static str, u64> = Recorder::new();
        let open = recorder.invoke(ProcessId::new(0), "op");
        let _ = recorder.take_history();
        recorder.respond(open, 0);
    }

    #[test]
    fn recorder_is_usable_across_threads() {
        use std::sync::Arc;
        let recorder: Arc<Recorder<&'static str, usize>> = Arc::new(Recorder::new());
        std::thread::scope(|scope| {
            for process in 0..4 {
                let recorder = Arc::clone(&recorder);
                scope.spawn(move || {
                    for round in 0..8 {
                        let t = recorder.invoke(ProcessId::new(process), "op");
                        recorder.respond(t, round);
                    }
                });
            }
        });
        let history = recorder.take_history();
        assert_eq!(history.len(), 32);
        // Every record has invoke < response, and timestamps are unique.
        let mut stamps: Vec<u64> = Vec::new();
        for r in &history {
            let response = r.response.as_ref().expect("every operation responded").at;
            assert!(r.invoke < response);
            stamps.push(r.invoke);
            stamps.push(response);
        }
        stamps.sort_unstable();
        stamps.dedup();
        assert_eq!(stamps.len(), 64);
    }

    #[test]
    fn recorder_debug_is_nonempty() {
        let recorder: Recorder<u8, u8> = Recorder::new();
        assert!(format!("{recorder:?}").contains("Recorder"));
    }
}
