//! Crash-consistent restart recovery for arena-resident lease state.
//!
//! A fleet of processes serving names out of a file-backed
//! [`shmem::arena::Arena`] can be SIGKILLed wholesale at any instant. The
//! arena's words survive on disk exactly as the kill left them; what a
//! fresh attacher inherits is a namespace mid-flight: slots held by dead
//! owners, slots torn between claim and owner publication, free names that
//! a kill left off the table's free list (between pop and claim, or between
//! free and push), and free-list summary flags that lag their data words (a
//! kill between a push's data `fetch_or` and its summary ensure).
//! [`recover`] reconciles all of it — the escrow shape from the paper's
//! lineage applies directly: every per-process obligation is
//! reconstructible by a later process that never spoke to the dead one,
//! because the protocol state (generation-stamped slot words, monotone
//! summary bits) is self-describing.
//!
//! # The scan
//!
//! 1. **Arbitrate.** [`RobustLeaseTable::claim_recovery`] CASes the
//!    table's recovery epoch upward; exactly one caller wins per epoch.
//!    Losers return immediately ([`RecoveryReport::won`] false) — recovery
//!    is idempotent, so there is nothing to wait for.
//! 2. **Gate admissions.** While the scan runs, acquirers that find the
//!    table exhausted back off (bounded) instead of failing: the capacity
//!    they are missing is exactly what the scan is about to free.
//! 3. **Repair free-list summaries** — the table's own list and every list
//!    passed in. Summary flags are monotone, so repair is
//!    re-derive-and-re-flag ([`FreeList::repair_summary`]) — never a clear,
//!    so it cannot race pushers.
//! 4. **Sweep the table.** Every held slot's owner tag is judged: torn
//!    slots (owner tag 0) are quarantined, dead owners' slots get the same
//!    exactly-once `HELD(g) → FREE(g)` CAS a release would perform, and the
//!    name is pushed back onto the table's free list. With
//!    `presume_all_dead` (the restart signature: no registered survivor)
//!    every non-torn held slot is reclaimed unconditionally.
//! 5. **Re-list dropped names.** With `presume_all_dead`, every free slot
//!    whose list bit is clear is pushed back: nobody is alive to finish the
//!    pop-then-claim or free-then-push that left it off the list. A push
//!    that races a straggler only duplicates a bit, and the table drops a
//!    popped name whose slot is held, so duplicates are harmless.
//!
//! Idempotence — `recover ∘ recover = recover` on the observable state
//! ([`RobustLeaseTable::state_snapshot`]) — is pinned by proptests in
//! `tests/chaos_recovery.rs` and model-checked by the `recover_race_2p`
//! scenario in `mcheck`.

use crate::free_list::FreeList;
use crate::robust::{self, RobustLeaseTable, TagStatus};
use shmem::process::ProcessCtx;

/// What one [`recover`] call did (all counts zero unless it
/// [won](RecoveryReport::won) the epoch).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Whether this caller won the epoch CAS and ran the scan.
    pub won: bool,
    /// The epoch claimed (or already held by a previous recovery).
    pub epoch: u64,
    /// Names reclaimed from dead owners by the sweep.
    pub reclaimed: usize,
    /// Torn slots newly parked on the quarantine list.
    pub quarantined: usize,
    /// Free-list summary flags re-derived from data words.
    pub summary_repairs: usize,
    /// Free slots pushed back onto the table's free list (their bit was
    /// clear after a whole-fleet kill).
    pub relisted: usize,
    /// Distinct dead registered pids encountered (postmortem candidates).
    pub dead_pids: Vec<u32>,
}

/// Recovers `table` (and the free lists backing any recyclers layered
/// over it) after attaching to an arena whose previous fleet may have died —
/// the backend-generic core. `epoch` arbitrates concurrent recoverers
/// (file arenas pass the attach epoch; see [`recover`]); `is_dead_pid`
/// judges a registered owner's pid; `presume_all_dead` short-circuits the
/// judgment for whole-fleet restarts, where *every* prior owner — raw
/// tags included — is known gone.
///
/// Deterministic given its inputs (no OS probes of its own), so the
/// model checker drives it directly.
pub fn recover_with(
    ctx: &mut ProcessCtx,
    table: &RobustLeaseTable,
    lists: &[&FreeList],
    epoch: u64,
    mut is_dead_pid: impl FnMut(u32) -> bool,
    presume_all_dead: bool,
) -> RecoveryReport {
    let timer = obs::start();
    let mut report = RecoveryReport {
        epoch,
        ..RecoveryReport::default()
    };
    if !table.claim_recovery(ctx, epoch) {
        report.epoch = table.last_recovered_epoch();
        return report;
    }
    report.won = true;
    obs::count(obs::Metric::RecoverRuns);

    table.hold_admissions(ctx);
    let own = table.free_list();
    report.summary_repairs = std::iter::once(own)
        .chain(lists.iter().copied())
        .map(FreeList::repair_summary)
        .sum();

    let mut listed = 0;
    for (index, slot) in table.slot_registers().iter().enumerate() {
        let name = index + 1;
        let word = slot.read(ctx);
        if presume_all_dead && index % 64 == 0 {
            listed = own.word_bits(index / 64);
        }
        if !robust::is_held(word) {
            let bit = 1u64 << (index % 64);
            // Like a release's push, the re-listing rides on the slot read.
            if presume_all_dead && listed & bit == 0 && own.push_unsequenced(name) {
                report.relisted += 1;
            }
            continue;
        }
        let tag = robust::owner(word);
        if tag == 0 {
            // Torn: claimed but no owner published. Indeterminate — park it
            // for the next sweep instead of guessing.
            if table.quarantine_name(ctx, name) {
                report.quarantined += 1;
            }
            continue;
        }
        let dead = presume_all_dead
            || match table.tag_status(tag) {
                TagStatus::Raw => false,
                TagStatus::Stale => true,
                TagStatus::Registered(pid) => {
                    let dead = is_dead_pid(pid);
                    if dead && !report.dead_pids.contains(&pid) {
                        report.dead_pids.push(pid);
                    }
                    dead
                }
            };
        if dead
            && slot
                .compare_and_swap(ctx, word, robust::pack_free(robust::generation(word)))
                .is_ok()
        {
            table.note_transition(ctx, name);
            report.reclaimed += 1;
            obs::count(obs::Metric::RecoverReclaimed);
            obs::event(obs::EventKind::Recovered, name as u64, tag as u64);
        }
    }

    table.release_admissions(ctx);
    obs::add(
        obs::Metric::RecoverSummaryRepairs,
        report.summary_repairs as u64,
    );
    obs::finish(timer, obs::Metric::RecoverNs);
    report
}

/// Recovers `table` after attaching by path — the OS-facing entry the
/// chaos harness and restartable deployments call before serving.
///
/// * The epoch is the arena's attach epoch
///   ([`shmem::arena::Arena::attach_epoch`]) when the table lives in a
///   file-backed arena, else one past the table's last recovered epoch —
///   so every fresh attach is entitled to one recovery run, and two
///   attachers racing the *same* epoch resolve to one winner.
/// * Whole-fleet restarts are self-detected: if no registered pid probes
///   alive ([`RobustLeaseTable::no_registered_survivors`]), every held
///   slot's owner is presumed dead, raw tags included. Otherwise only
///   provably dead owners (stale registrations, dead registered pids) are
///   reclaimed — attaching to a *live* fleet recovers nothing it
///   shouldn't.
/// * Every dead registered pid is reported to
///   [`obs::postmortem::notify_dead`] (whether or not it still held
///   leases), dumping its flight-recorder tail if one is installed.
#[cfg(all(unix, not(miri)))]
pub fn recover(
    ctx: &mut ProcessCtx,
    table: &RobustLeaseTable,
    lists: &[&FreeList],
) -> RecoveryReport {
    let epoch = table
        .arena()
        .attach_epoch()
        .unwrap_or_else(|| table.last_recovered_epoch() + 1);
    let presume_all_dead = table.no_registered_survivors();
    let mut report = recover_with(
        ctx,
        table,
        lists,
        epoch,
        |pid| !shmem::arena::os_process_alive(pid),
        presume_all_dead,
    );
    if report.won {
        // Postmortems for every dead registration, not only those that
        // still held leases — a process that crashed between release and
        // exit still has a tail worth dumping.
        for registration in table.registrations() {
            let pid = registration.pid();
            if !shmem::arena::os_process_alive(pid) && !report.dead_pids.contains(&pid) {
                report.dead_pids.push(pid);
            }
        }
        for &pid in &report.dead_pids {
            obs::postmortem::notify_dead(pid);
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::free_list::FreeList;
    use shmem::process::ProcessId;

    fn ctx(id: usize) -> ProcessCtx {
        ProcessCtx::new(ProcessId::new(id), 23)
    }

    #[test]
    fn recovery_reclaims_presumed_dead_owners_and_wins_once_per_epoch() {
        let table = RobustLeaseTable::with_capacity(4);
        let mut ctx = ctx(0);
        let registration = table.register_process(4242).unwrap();
        let a = table.acquire(&mut ctx, registration.tag()).unwrap();
        let b = table.acquire(&mut ctx, registration.tag()).unwrap();

        let report = recover_with(&mut ctx, &table, &[], 1, |_| true, true);
        assert!(report.won);
        assert_eq!(report.reclaimed, 2);
        assert_eq!(table.holder(a), None);
        assert_eq!(table.holder(b), None);
        assert!(
            !table.admissions_gated(),
            "the gate is lowered on the way out"
        );

        // Same epoch again: the CAS is already claimed — nothing runs.
        let again = recover_with(&mut ctx, &table, &[], 1, |_| true, true);
        assert!(!again.won);
        assert_eq!(again.reclaimed, 0);
    }

    #[test]
    fn recovery_is_idempotent_on_the_observable_state() {
        let table = RobustLeaseTable::with_capacity(8);
        let mut ctx = ctx(0);
        let registration = table.register_process(77).unwrap();
        for _ in 0..3 {
            table.acquire(&mut ctx, registration.tag()).unwrap();
        }
        table.inject_torn_slot(&mut ctx, 5);

        let first = recover_with(&mut ctx, &table, &[], 1, |_| true, true);
        assert!(first.won);
        assert_eq!(first.quarantined, 1);
        let snapshot = table.state_snapshot();

        // A later epoch wins again but finds nothing left to change.
        let second = recover_with(&mut ctx, &table, &[], 2, |_| true, true);
        assert!(second.won);
        assert_eq!(second.reclaimed, 0);
        assert_eq!(second.quarantined, 0, "quarantining is idempotent");
        assert_eq!(table.state_snapshot(), snapshot, "byte-identical state");

        // The quarantined torn slot is repaired by the next sweep-style
        // drain, after which the name is grantable exactly once.
        assert_eq!(table.drain_quarantine(&mut ctx), 1);
        assert_eq!(table.quarantined(), 0);
        assert_eq!(table.acquire(&mut ctx, registration.tag()).unwrap(), 1);
    }

    #[test]
    fn live_owners_survive_a_non_restart_recovery() {
        let table = RobustLeaseTable::with_capacity(4);
        let mut ctx = ctx(0);
        let live = table.register_process(100).unwrap();
        let dead = table.register_process(200).unwrap();
        let live_name = table.acquire(&mut ctx, live.tag()).unwrap();
        let dead_name = table.acquire(&mut ctx, dead.tag()).unwrap();
        // A raw in-process lease is never provably dead.
        let raw_name = table.acquire(&mut ctx, 7).unwrap();

        let report = recover_with(&mut ctx, &table, &[], 1, |pid| pid == 200, false);
        assert!(report.won);
        assert_eq!(report.reclaimed, 1);
        assert_eq!(report.dead_pids, vec![200]);
        assert_eq!(table.holder(live_name), Some(live.tag()));
        assert_eq!(table.holder(dead_name), None);
        assert_eq!(table.holder(raw_name), Some(7));
    }

    #[test]
    fn recovery_repairs_free_list_summaries() {
        let list = FreeList::new(256);
        // A kill between a push's data fetch_or and its summary ensure
        // leaves the data bit set behind an unflagged summary word.
        assert!(list.inject_torn_push(130));
        assert_eq!(list.pop(), None, "the torn push is invisible to pops");

        let table = RobustLeaseTable::with_capacity(2);
        let mut ctx = ctx(0);
        let report = recover_with(&mut ctx, &table, &[&list], 1, |_| true, true);
        assert_eq!(report.summary_repairs, 1);
        assert_eq!(list.pop(), Some(130), "the repaired name is findable");
    }
}
