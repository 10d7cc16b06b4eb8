//! Long-lived renaming: RAII name leases and the lease-history checker.
//!
//! The paper's objects are one-shot: each participant calls `acquire` once
//! and the name is consumed forever. A production name server needs the
//! *long-lived* variant of the problem — acquire **and** release, with
//! released names recycled — which is the standard extension studied in the
//! long-lived renaming literature. This module provides the public surface:
//!
//! * [`LongLivedRenaming`] — the trait of objects that hand out names for a
//!   bounded duration. [`Recycler`](crate::recycler::Recycler) adapts any
//!   one-shot [`Renaming`](crate::traits::Renaming) object into one.
//! * [`NameLease`] — the RAII guard returned by
//!   [`LongLivedRenaming::lease`]. Dropping the guard returns the name;
//!   [`NameLease::release`] does the same with step accounting.
//! * [`LeaseOp`] / [`assert_tight_lease_namespace`] — the correctness
//!   checker for lease-churn histories recorded through a
//!   [`Recorder`](shmem::history::Recorder): at every instant live names
//!   must be distinct, and every granted name must be bounded by the
//!   contention at the moment of the grant (tightness against *concurrent
//!   holders*, not against the total number of acquisitions ever made).

use crate::error::RenamingError;
use shmem::history::{History, OpRecord, Response};
use shmem::process::ProcessCtx;
use shmem::steps::StepKind;
use std::fmt;
use std::sync::Arc;

/// A renaming object whose names can be returned and recycled.
///
/// Unlike the one-shot [`Renaming`](crate::traits::Renaming) trait, names
/// obtained through [`LongLivedRenaming::lease`] are held only for the
/// lifetime of the returned [`NameLease`]; releasing a lease makes its name
/// available to later leases. The guarantee under churn (for recyclers over
/// strong adaptive one-shot objects): at every instant the live names are
/// distinct, and every name is at most the number of leases concurrently in
/// progress when it was granted.
///
/// Every operation leases or releases exactly one name, as long-lived
/// renaming is specified; a burst of names is a loop of leases.
///
/// The trait is dyn-compatible: the builder returns
/// `Arc<dyn LongLivedRenaming>`, and [`LongLivedRenaming::lease`] takes the
/// `Arc` by value so the guard can keep its issuer alive. Call it as
/// `Arc::clone(&object).lease(ctx)`.
pub trait LongLivedRenaming: Send + Sync {
    /// Acquires a name wrapped in an RAII [`NameLease`].
    ///
    /// # Errors
    ///
    /// Returns [`RenamingError::CapacityExceeded`] when the configured
    /// maximum number of concurrent leases is reached, or any error of the
    /// underlying one-shot object's fresh-name path.
    fn lease(self: Arc<Self>, ctx: &mut ProcessCtx) -> Result<NameLease, RenamingError>;

    /// Acquires a name **without** an RAII guard: the raw hot path
    /// underneath [`LongLivedRenaming::lease`].
    ///
    /// The caller owes the returned name exactly one
    /// [`LongLivedRenaming::release_raw`] (or
    /// [`LongLivedRenaming::release_with`]); nothing releases it
    /// automatically. Use this where guard overhead or ownership rules out
    /// RAII — names stored in tables or handed across an FFI boundary, and
    /// benchmarks that must not time two reference-count updates per cycle.
    /// Everywhere else, prefer [`LongLivedRenaming::lease`]: a leaked raw
    /// name permanently consumes an admission slot.
    ///
    /// # Errors
    ///
    /// As [`LongLivedRenaming::lease`].
    fn lease_raw(&self, ctx: &mut ProcessCtx) -> Result<usize, RenamingError>;

    /// Returns a previously leased name to the object **without** step
    /// accounting.
    ///
    /// Normally invoked by [`NameLease`]'s `Drop` implementation; call it
    /// directly only with a name obtained from [`NameLease::forget`] or
    /// [`LongLivedRenaming::lease_raw`], and at most once per lease —
    /// releasing a name twice corrupts the free list's uniqueness guarantee
    /// (implementations reject obvious double releases, but the contract is
    /// the caller's responsibility).
    fn release_raw(&self, name: usize);

    /// Returns a previously leased name, recording one
    /// [`StepKind::Release`] step against `ctx`. Implementations whose
    /// release takes shared-memory steps override it to take them through
    /// `ctx` as well, so they are charged to (and scheduled as) the caller.
    fn release_with(&self, ctx: &mut ProcessCtx, name: usize) {
        self.release_raw(name);
        ctx.record(StepKind::Release);
    }

    /// The maximum number of leases that may be live simultaneously, or
    /// `None` if unbounded.
    fn max_concurrent(&self) -> Option<usize>;

    /// The number of leases currently live (including leases whose release
    /// is still in flight).
    fn live_leases(&self) -> usize;
}

/// An RAII guard over a leased name.
///
/// The guard holds its issuing [`LongLivedRenaming`] object alive and
/// returns the name when dropped. For step-accounted release, use
/// [`NameLease::release`]; to intentionally leak the name out of the
/// recycling discipline, use [`NameLease::forget`].
///
/// # Example
///
/// ```
/// use adaptive_renaming::lease::LongLivedRenaming;
/// use adaptive_renaming::recycler::Recycler;
/// use adaptive_renaming::traits::Renaming;
/// use shmem::process::{ProcessCtx, ProcessId};
/// use std::sync::Arc;
///
/// let object = <dyn Renaming>::builder()
///     .linear_probe()
///     .capacity(8)
///     .max_concurrent(4)
///     .build_long_lived()
///     .unwrap();
/// let mut ctx = ProcessCtx::new(ProcessId::new(0), 7);
///
/// let lease = Arc::clone(&object).lease(&mut ctx).unwrap();
/// assert_eq!(lease.name(), 1);
/// drop(lease); // the name goes back to the pool
///
/// let again = Arc::clone(&object).lease(&mut ctx).unwrap();
/// assert_eq!(again.name(), 1, "released names are recycled");
/// ```
#[must_use = "dropping a NameLease immediately releases the name"]
pub struct NameLease {
    name: usize,
    owner: Option<Arc<dyn LongLivedRenaming>>,
}

impl NameLease {
    /// Wraps a freshly granted `name` so that dropping the guard returns it
    /// to `owner`. Called by [`LongLivedRenaming`] implementations.
    pub fn new(name: usize, owner: Arc<dyn LongLivedRenaming>) -> Self {
        NameLease {
            name,
            owner: Some(owner),
        }
    }

    /// The leased name (1-based).
    pub fn name(&self) -> usize {
        self.name
    }

    /// Releases the name, recording one [`StepKind::Release`] step against
    /// `ctx`. Equivalent to dropping the guard, plus the step accounting.
    pub fn release(mut self, ctx: &mut ProcessCtx) {
        if let Some(owner) = self.owner.take() {
            owner.release_with(ctx, self.name);
        }
    }

    /// Detaches the name from the guard without releasing it: the name stays
    /// permanently allocated (it still counts against the issuer's
    /// concurrency limit) unless later handed to
    /// [`LongLivedRenaming::release_raw`].
    pub fn forget(mut self) -> usize {
        self.owner = None;
        self.name
    }
}

impl Drop for NameLease {
    fn drop(&mut self) {
        if let Some(owner) = self.owner.take() {
            owner.release_raw(self.name);
        }
    }
}

impl fmt::Debug for NameLease {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("NameLease")
            .field("name", &self.name)
            .field("released", &self.owner.is_none())
            .finish()
    }
}

impl PartialEq<usize> for NameLease {
    fn eq(&self, other: &usize) -> bool {
        self.name == *other
    }
}

/// An operation in a [`LeaseHistory`]. A lease responds `Some(name)` when
/// granted and `None` when it fails; a release responds `None`; a pending
/// operation is a crash. A lease attempt **contends** from its invocation
/// until a failed lease or the name's release responds (forever after a
/// crash), and **holds** its name from the grant until its process invokes
/// the release (a subset of the true ownership span, so any recorded
/// overlap is a genuine violation).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum LeaseOp {
    /// Lease a name.
    Lease,
    /// Release the given name.
    Release(usize),
}

/// A lease history, recorded through a [`Recorder`](shmem::history::Recorder).
pub type LeaseHistory = History<LeaseOp, Option<usize>>;

/// Checks a lease-churn history for the long-lived strong renaming
/// guarantees:
///
/// 1. **Uniqueness at every instant** — no two hold intervals with the same
///    name overlap (see [`assert_unique_lease_names`]).
/// 2. **Tightness against concurrent holders** — every granted name is at
///    most the peak number of attempts simultaneously inside their
///    contention interval while the grant was in flight (between the
///    attempt's request and its grant). Crashed attempts count as
///    contenders forever, exactly as a crashed process may forever hold the
///    object's internal resources.
///
/// This is the lease-history analogue of
/// [`assert_tight_namespace`](crate::traits::assert_tight_namespace), which
/// compares against the *total* number of one-shot acquirers and therefore
/// rejects any history in which a name is ever reused.
///
/// Returns `Err` with a human-readable description of the first violation.
pub fn assert_tight_lease_namespace(history: &LeaseHistory) -> Result<(), String> {
    check_lease_namespace(history, None)
}

/// Checks a lease-churn history against the bound of a recycler with a
/// per-thread escrow (see the [`recycler`](crate::recycler) module docs):
/// uniqueness as in [`assert_tight_lease_namespace`], and every granted
/// name at most the highest grant-window point contention of any grant up
/// to and including it, plus `slack` (`P·q` for quota `q` and `P` slots in
/// use). Returns `Err` describing the first violation.
pub fn assert_escrow_lease_namespace(history: &LeaseHistory, slack: usize) -> Result<(), String> {
    check_lease_namespace(history, Some(slack))
}

/// Checks the uniqueness half of [`assert_tight_lease_namespace`]: no two
/// hold intervals with the same name overlap, no name is 0, and every
/// release is of a name its process holds. Returns `Err` describing the
/// first violation.
pub fn assert_unique_lease_names(history: &LeaseHistory) -> Result<(), String> {
    // `(name, grant, end of hold)`, and the open hold of each (holder, name)
    // as an index into `holds`. A second grant to the same holder replaces
    // the first, which then holds forever and fails the check below.
    let mut holds: Vec<(usize, u64, u64)> = Vec::new();
    let mut held = std::collections::HashMap::new();
    for record in history {
        if let Some((name, at)) = grant(record) {
            held.insert((record.process, name), holds.len());
            holds.push((name, at, u64::MAX));
        } else if let LeaseOp::Release(name) = record.op {
            let index = held.remove(&(record.process, name)).ok_or_else(|| {
                let (process, at) = (record.process, record.invoke);
                format!("{process:?} released name {name} at t={at} without holding it")
            })?;
            holds[index].2 = record.invoke;
        }
    }
    holds.sort_unstable();
    for pair in holds.windows(2) {
        let (name_a, _, end_a) = pair[0];
        let (name_b, start_b, _) = pair[1];
        if name_a == name_b && start_b < end_a {
            return Err(format!(
                "name {name_a} held by two leases simultaneously \
                 (second grant at t={start_b}, first release at t={end_a})"
            ));
        }
    }
    if let Some(&(name, ..)) = holds.first() {
        if name == 0 {
            return Err("name 0 granted (names are 1-based)".to_string());
        }
    }
    Ok(())
}

/// The name a lease record was granted, and when.
fn grant(record: &OpRecord<LeaseOp, Option<usize>>) -> Option<(usize, u64)> {
    match (record.op, &record.response) {
        (LeaseOp::Lease, Some(response)) => Some((response.result?, response.at)),
        _ => None,
    }
}

/// The tight check (`slack == None`) or the escrow check.
fn check_lease_namespace(history: &LeaseHistory, slack: Option<usize>) -> Result<(), String> {
    assert_unique_lease_names(history)?;

    // Tightness: name ≤ peak contention during the grant window. Every lease
    // starts contending at its invocation, and every response without a
    // name (a failed lease's or a release's) ends one attempt's contention.
    // Sweep these deltas in timestamp order, remembering the active count
    // after every event so per-grant windows can be answered offline.
    let mut deltas: Vec<(u64, i64)> = Vec::with_capacity(history.len() * 2);
    for record in history {
        if record.op == LeaseOp::Lease {
            deltas.push((record.invoke, 1));
        }
        if let Some(Response { result: None, at }) = record.response {
            deltas.push((at, -1));
        }
    }
    deltas.sort_unstable();
    let mut active = 0i64;
    let timeline: Vec<(u64, i64)> = deltas
        .iter()
        .map(|&(t, d)| {
            active += d;
            (t, active)
        })
        .collect();

    let peak_between = |from: u64, to: u64| -> i64 {
        // Active count just before `from`, maxed with every level reached at
        // event times within [from, to].
        let start = timeline.partition_point(|&(t, _)| t < from);
        let before = if start == 0 { 0 } else { timeline[start - 1].1 };
        timeline[start..]
            .iter()
            .take_while(|&&(t, _)| t <= to)
            .map(|&(_, level)| level)
            .fold(before, i64::max)
    };

    let mut grants: Vec<(u64, usize, i64)> = history
        .iter()
        .filter_map(|record| {
            let (name, at) = grant(record)?;
            Some((at, name, peak_between(record.invoke, at)))
        })
        .collect();
    grants.sort_unstable();
    let mut highest = 0;
    for (granted, name, contention) in grants {
        highest = highest.max(contention);
        let limit = slack.map_or(contention, |slack| highest + slack as i64);
        if name as i64 > limit {
            return Err(match slack {
                None => format!(
                    "name {name} granted at t={granted} exceeds the point \
                     contention {contention} of its grant window"
                ),
                Some(slack) => format!(
                    "name {name} granted at t={granted} exceeds the highest \
                     grant-window contention so far ({highest}) plus the \
                     escrow slack {slack}"
                ),
            });
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use shmem::process::ProcessId;

    type Record = OpRecord<LeaseOp, Option<usize>>;

    /// The records of one granted lease, leased by a process of its own
    /// (numbered by its request time) and released over
    /// `[rel_start, rel_end]`: no release without `rel_start`, a pending one
    /// without `rel_end`.
    fn record(
        name: usize,
        requested: u64,
        granted: u64,
        rel_start: Option<u64>,
        rel_end: Option<u64>,
    ) -> Vec<Record> {
        let process = ProcessId::new(requested as usize);
        let lease = OpRecord::completed(process, LeaseOp::Lease, Some(name), requested, granted);
        let release = rel_start.map(|invoke| OpRecord {
            process,
            op: LeaseOp::Release(name),
            invoke,
            response: rel_end.map(|at| Response { result: None, at }),
        });
        std::iter::once(lease).chain(release).collect()
    }

    fn history(leases: Vec<Vec<Record>>) -> LeaseHistory {
        History::new(leases.concat())
    }

    #[test]
    fn sequential_reuse_of_one_name_is_accepted() {
        let records = history(vec![
            record(1, 0, 1, Some(2), Some(3)),
            record(1, 4, 5, Some(6), Some(7)),
            record(1, 8, 9, None, None), // still held at the end
        ]);
        assert!(assert_tight_lease_namespace(&records).is_ok());
    }

    #[test]
    fn overlapping_holders_of_one_name_are_rejected() {
        let records = history(vec![
            record(1, 0, 1, Some(6), Some(7)),
            record(1, 2, 3, Some(4), Some(5)),
        ]);
        let err = assert_tight_lease_namespace(&records).unwrap_err();
        assert!(err.contains("held by two leases"), "{err}");
    }

    #[test]
    fn names_above_the_point_contention_are_rejected() {
        // A single uncontended lease must get a name bounded by its own
        // contention of 1.
        let records = history(vec![record(2, 0, 1, Some(2), Some(3))]);
        let err = assert_tight_lease_namespace(&records).unwrap_err();
        assert!(err.contains("exceeds the point contention"), "{err}");
    }

    #[test]
    fn concurrent_leases_may_use_higher_names() {
        // Two overlapping leases: names 1 and 2 are both legitimate.
        let records = history(vec![
            record(1, 0, 2, Some(8), Some(9)),
            record(2, 1, 3, Some(6), Some(7)),
        ]);
        assert!(assert_tight_lease_namespace(&records).is_ok());
    }

    #[test]
    fn in_flight_releases_count_toward_contention() {
        // Lease A releases over [3, 6]; lease B requests at 4 and is granted
        // name 2 at 5 — legitimate, because A's release has not finished.
        let records = history(vec![
            record(1, 0, 1, Some(3), Some(6)),
            record(2, 4, 5, Some(7), Some(8)),
        ]);
        assert!(assert_tight_lease_namespace(&records).is_ok());
    }

    #[test]
    fn crashed_attempts_hold_contention_forever() {
        // A crashed attempt (a lease that never responded) keeps contention
        // at 2, so a later lease may be granted name 2.
        let crashed = vec![OpRecord::pending(ProcessId::new(9), LeaseOp::Lease, 0)];
        let records = history(vec![crashed, record(2, 5, 6, Some(7), Some(8))]);
        assert!(assert_tight_lease_namespace(&records).is_ok());
    }

    #[test]
    fn pending_releases_end_the_hold_at_their_invocation_and_contend_forever() {
        // A's release of name 1 is invoked at 2 and never responds: the name
        // is free for B from then on, and A still contends, so C's later
        // grant of name 2 is within the contention of its window.
        let records = history(vec![
            record(1, 0, 1, Some(2), None),
            record(1, 3, 4, Some(5), Some(6)),
            record(2, 7, 8, Some(9), Some(10)),
        ]);
        assert!(assert_tight_lease_namespace(&records).is_ok());
        // Had A's release responded, C would be alone and name 2 too high.
        let answered = history(vec![
            record(1, 0, 1, Some(2), Some(3)),
            record(1, 4, 5, Some(6), Some(7)),
            record(2, 8, 9, Some(10), Some(11)),
        ]);
        let err = assert_tight_lease_namespace(&answered).unwrap_err();
        assert!(err.contains("exceeds the point contention"), "{err}");
    }

    #[test]
    fn pending_leases_contend_forever_and_hold_no_name() {
        // A pending lease holds no name (B takes name 1 without a
        // uniqueness violation) but counts toward every later contention
        // (C's name 2 is legitimate).
        let pending = vec![OpRecord::pending(ProcessId::new(9), LeaseOp::Lease, 0)];
        let records = history(vec![
            pending,
            record(1, 1, 2, Some(3), Some(4)),
            record(2, 5, 6, Some(7), Some(8)),
        ]);
        assert!(assert_tight_lease_namespace(&records).is_ok());
        // A lease that failed instead stops contending at its response.
        let mut failed = record(1, 0, 1, None, None);
        failed[0].response.as_mut().expect("responded").result = None;
        let records = history(vec![failed, record(2, 5, 6, Some(7), Some(8))]);
        assert!(assert_tight_lease_namespace(&records).is_err());
    }

    #[test]
    fn releases_of_names_never_granted_are_rejected() {
        // Process 5's release of name 1, without its lease.
        let mut stray = record(1, 5, 6, Some(7), Some(8));
        stray.remove(0);
        let records = history(vec![record(1, 0, 1, None, None), stray]);
        let err = assert_unique_lease_names(&records).unwrap_err();
        assert!(err.contains("without holding it"), "{err}");
    }

    #[test]
    fn zero_names_are_rejected() {
        let records = history(vec![record(0, 0, 1, None, None)]);
        assert!(assert_tight_lease_namespace(&records).is_err());
    }

    #[test]
    fn empty_histories_are_trivially_tight() {
        assert!(assert_tight_lease_namespace(&History::new(vec![])).is_ok());
    }

    #[test]
    fn escrow_checker_allows_the_slack_above_the_running_peak() {
        // Two overlapping grants reach contention 2; a later solo grant
        // (contention 1) may carry an escrowed name up to 2 + slack.
        let history = history(vec![
            record(1, 0, 2, Some(6), Some(7)),
            record(2, 1, 3, Some(4), Some(5)),
            record(3, 8, 9, Some(10), Some(11)),
        ]);
        assert!(assert_tight_lease_namespace(&history).is_err());
        assert!(assert_escrow_lease_namespace(&history, 1).is_ok());
        let error = assert_escrow_lease_namespace(&history, 0).unwrap_err();
        assert!(error.contains("escrow slack 0"), "{error}");
    }
}
