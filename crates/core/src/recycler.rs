//! Adapting one-shot renaming objects to long-lived renaming.
//!
//! A [`Recycler`] layers a lock-free free list of released names over any
//! one-shot [`Renaming`] object. Leases are served from the free list when
//! possible; only when the list is empty — i.e. every name handed out so far
//! is still held — does the recycler fall back to a *fresh* acquisition from
//! the inner object, registered under a new virtual participant
//! ([`Renaming::acquire_as`]).
//!
//! # Tightness under churn
//!
//! Admission control bounds the number of simultaneously live leases by
//! `max_concurrent`. Because a fresh acquisition happens only when the free
//! list is empty, and every name absent from the list is attributable to a
//! distinct live lease, the inner object never sees more than
//! `max_concurrent` virtual participants. With a *strong adaptive* inner
//! object (names exactly `1..=k` for `k` participants — the compiled
//! [`RenamingNetwork`](crate::renaming_network::RenamingNetwork),
//! [`AdaptiveRenaming`](crate::adaptive::AdaptiveRenaming),
//! [`LinearProbeRenaming`](crate::linear_probe::LinearProbeRenaming)), every
//! name ever granted therefore stays in `1..=max_concurrent`, and moreover
//! within `1..=c` where `c` is the point contention at the grant — the
//! long-lived strong renaming guarantee checked by
//! [`assert_tight_lease_namespace`](crate::lease::assert_tight_lease_namespace).
//! Non-adaptive inner objects
//! ([`BitBatchingRenaming`](crate::bit_batching::BitBatchingRenaming)) keep
//! their own `1..=n` bound instead.
//!
//! # The free list
//!
//! Released names live in a [`FreeList`]: release sets the name's bit (one
//! `fetch_or`), lease claims the **lowest** set bit. Claiming the minimum
//! free name is what keeps recycling *adaptive* — see the
//! [`free_list`](crate::free_list) module documentation for the argument,
//! the two-level bitmap layout, and the seqlock protocol behind coherent
//! misses. Both operations are lock-free and allocation-free, and a
//! double release is detected by the `fetch_or` (the duplicate is rejected
//! and counted in [`Recycler::leaked_names`]).
//!
//! For shard-local throughput at the price of a *loose* namespace bound, see
//! [`ShardedRecycler`](crate::sharded::ShardedRecycler), which spreads
//! leases over several independent recyclers.

use crate::error::RenamingError;
use crate::free_list::FreeList;
use crate::lease::{LongLivedRenaming, NameLease};
use crate::traits::Renaming;
use shmem::arena::{Arena, ArenaRef};
use shmem::process::ProcessCtx;
use shmem::steps::StepKind;
use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Headroom multiplier used to size the free list of a recycler over an
/// unbounded (adaptive) inner object, where no hard namespace bound exists.
/// Names above the sized bound are never produced in well-formed executions
/// (they would exceed the admission limit); if one appears it is leaked, not
/// lost.
const UNBOUNDED_FREELIST_HEADROOM: usize = 4;

/// Adapts a one-shot [`Renaming`] object into a [`LongLivedRenaming`] object
/// by recycling released names through a lock-free free list.
///
/// # Example
///
/// ```
/// use adaptive_renaming::lease::LongLivedRenaming;
/// use adaptive_renaming::recycler::Recycler;
/// use adaptive_renaming::renaming_network::RenamingNetwork;
/// use shmem::process::{ProcessCtx, ProcessId};
/// use sortnet::batcher::odd_even_network;
/// use std::sync::Arc;
///
/// // A compiled renaming network over 16 wires, recycled for at most 4
/// // concurrent holders.
/// let recycler = Arc::new(Recycler::new(
///     RenamingNetwork::<_>::new(odd_even_network(16)),
///     4,
/// ));
/// let mut ctx = ProcessCtx::new(ProcessId::new(0), 1);
///
/// let a = Arc::clone(&recycler).lease(&mut ctx).unwrap();
/// let b = Arc::clone(&recycler).lease(&mut ctx).unwrap();
/// assert_eq!((a.name(), b.name()), (1, 2));
/// b.release(&mut ctx);
/// let c = Arc::clone(&recycler).lease(&mut ctx).unwrap();
/// assert_eq!(c.name(), 2, "the released name is recycled, not name 3");
/// assert_eq!(recycler.fresh_names(), 2);
/// assert_eq!(recycler.recycled_names(), 1);
/// ```
pub struct Recycler<R: Renaming> {
    inner: R,
    free: FreeList,
    /// The arena holding the header counters below (shared with `free`).
    /// The inner one-shot object stays process-local: fresh acquisitions
    /// are served by whichever process runs them, while the recycling fast
    /// path — the free list plus these counters — is fully shared.
    arena: Arc<Arena>,
    /// Next virtual participant index for fresh acquisitions. The header
    /// counters are pinned ([`ArenaRef`]) so the admission fast path never
    /// pays a per-access offset resolution.
    tickets: ArenaRef<AtomicUsize>,
    max_concurrent: usize,
    /// Admission reservations that led to a grant (or crashed trying);
    /// rejected reservations unreserve themselves, completed releases never
    /// decrement. The live-lease count is `granted − free.pushes()`: the
    /// free list's seqlock bump — which a release performs strictly after
    /// its name lands on the list — doubles as the admission release, saving
    /// an atomic read-modify-write per release and making it impossible for
    /// an in-flight release to stop counting as live too early.
    granted: ArenaRef<AtomicUsize>,
    peak: ArenaRef<AtomicUsize>,
    leaked: ArenaRef<AtomicUsize>,
}

impl<R: Renaming> Recycler<R> {
    /// Wraps `inner`, allowing at most `max_concurrent` simultaneously live
    /// leases.
    ///
    /// # Panics
    ///
    /// Panics if `max_concurrent` is zero or exceeds the inner object's
    /// capacity (a bounded object cannot serve more concurrent holders than
    /// it has names).
    pub fn new(inner: R, max_concurrent: usize) -> Self {
        let bound = Self::checked_bound(&inner, max_concurrent);
        let arena = Arena::heap(Self::footprint_for(bound));
        Self::build(inner, max_concurrent, bound, arena)
    }

    /// Like [`Recycler::new`], but places the free list and the header
    /// counters in the caller's `arena`. The caller must reserve at least
    /// [`Recycler::footprint`] bytes for this recycler. The inner one-shot
    /// object stays on the private heap, so a shared arena alone does not
    /// make the recycler safe to use from several processes.
    ///
    /// # Panics
    ///
    /// As [`Recycler::new`].
    pub fn new_in(inner: R, max_concurrent: usize, arena: &Arc<Arena>) -> Self {
        let bound = Self::checked_bound(&inner, max_concurrent);
        Self::build(inner, max_concurrent, bound, Arc::clone(arena))
    }

    /// The number of arena bytes a recycler of this shape allocates: the
    /// free list plus four header counter lines.
    pub fn footprint(inner: &R, max_concurrent: usize) -> usize {
        Self::footprint_for(Self::checked_bound(inner, max_concurrent))
    }

    fn footprint_for(bound: usize) -> usize {
        FreeList::footprint(bound) + 4 * 64
    }

    fn checked_bound(inner: &R, max_concurrent: usize) -> usize {
        assert!(
            max_concurrent >= 1,
            "a recycler needs at least one concurrent lease"
        );
        match inner.capacity() {
            Some(capacity) => {
                assert!(
                    max_concurrent <= capacity,
                    "max_concurrent ({max_concurrent}) exceeds the inner \
                     object's capacity ({capacity})"
                );
                capacity
            }
            None => max_concurrent.saturating_mul(UNBOUNDED_FREELIST_HEADROOM),
        }
    }

    fn build(inner: R, max_concurrent: usize, bound: usize, arena: Arc<Arena>) -> Self {
        Recycler {
            inner,
            free: FreeList::new_in(&arena, bound),
            tickets: arena.alloc::<AtomicUsize>().pin(&arena),
            max_concurrent,
            granted: arena.alloc::<AtomicUsize>().pin(&arena),
            peak: arena.alloc::<AtomicUsize>().pin(&arena),
            leaked: arena.alloc::<AtomicUsize>().pin(&arena),
            arena,
        }
    }

    #[inline]
    fn tickets(&self) -> &AtomicUsize {
        &self.tickets
    }

    #[inline]
    fn granted(&self) -> &AtomicUsize {
        &self.granted
    }

    #[inline]
    fn peak(&self) -> &AtomicUsize {
        &self.peak
    }

    #[inline]
    fn leaked(&self) -> &AtomicUsize {
        &self.leaked
    }

    /// The arena holding the free list and the header counters (a private
    /// heap arena unless the recycler was built with
    /// [`Recycler::new_in`]).
    pub fn arena(&self) -> &Arc<Arena> {
        &self.arena
    }

    /// The wrapped one-shot object.
    pub fn inner(&self) -> &R {
        &self.inner
    }

    /// The largest name this recycler can ever grant (the free list's
    /// bound): the inner object's capacity, or a fixed headroom multiple of
    /// `max_concurrent` for unbounded inner objects.
    pub fn name_bound(&self) -> usize {
        self.free.bound()
    }

    /// Names acquired fresh from the inner object so far.
    pub fn fresh_names(&self) -> usize {
        self.tickets().load(Ordering::Relaxed) // lint: relaxed-ok(diagnostic counter; no ordering dependency)
    }

    /// Leases served from the free list (recycled names) so far, derived as
    /// `releases − names currently free` (`O(capacity)`; diagnostics —
    /// momentarily stale while operations are in flight).
    pub fn recycled_names(&self) -> usize {
        self.free.pushes().saturating_sub(self.free.len())
    }

    /// Peak number of simultaneously live leases observed so far.
    pub fn peak_leases(&self) -> usize {
        self.peak().load(Ordering::Relaxed) // lint: relaxed-ok(diagnostic counter; no ordering dependency)
    }

    /// Names lost to the recycling discipline (double releases or releases
    /// of out-of-range names). Zero in well-formed executions.
    pub fn leaked_names(&self) -> usize {
        self.leaked().load(Ordering::Relaxed) // lint: relaxed-ok(diagnostic counter; no ordering dependency)
    }

    /// Names currently waiting on the free list (O(capacity); diagnostics).
    pub fn free_names(&self) -> usize {
        self.free.len()
    }

    /// Leases currently live (including in-flight releases and crashed
    /// attempts): total reservations granted minus completed releases.
    fn live_count(&self) -> usize {
        self.granted()
            .load(Ordering::SeqCst)
            .saturating_sub(self.free.pushes())
    }

    /// Grants one name without wrapping it in a [`NameLease`]: the
    /// admission + recycle/fresh core shared by [`LongLivedRenaming::lease`]
    /// and [`ShardedRecycler`](crate::sharded::ShardedRecycler). The caller
    /// owes the name one [`LongLivedRenaming::release_raw`].
    pub(crate) fn grant(&self, ctx: &mut ProcessCtx) -> Result<usize, RenamingError> {
        let lease_timer = obs::start();
        // Admission control: bound the simultaneously live leases. The
        // reservation is taken before touching shared state and unreserved
        // on failure. Reading `pushes` *after* the reservation makes the
        // live estimate an overcount of the true outstanding leases (other
        // in-flight reservations are all counted, completed releases may
        // lag), so admission can spuriously reject under a race but can
        // never over-admit past `max_concurrent`.
        //
        // A rejection is retried with bounded backoff while releases keep
        // landing (the `pushes` seqlock moving between rejections): during
        // a crash-recovery sweep the capacity exists and is in the middle
        // of being pushed back, and failing fast would surface the sweep as
        // spurious `CapacityExceeded` to every concurrent acquirer. A
        // genuinely full recycler rejects with `pushes` unchanged and fails
        // after one retry, preserving the fail-fast contract at capacity.
        let mut backoff = crate::backoff::Backoff::new();
        let mut rejected_at = None;
        let live = loop {
            let reserved = self.granted().fetch_add(1, Ordering::SeqCst) + 1;
            let pushes = self.free.pushes();
            let live = reserved.saturating_sub(pushes);
            if live <= self.max_concurrent {
                break live;
            }
            self.granted().fetch_sub(1, Ordering::SeqCst);
            if backoff.is_completed() || rejected_at == Some(pushes) {
                return Err(RenamingError::CapacityExceeded {
                    capacity: self.max_concurrent,
                });
            }
            obs::count(obs::Metric::RecyclerAdmissionRetry);
            rejected_at = Some(pushes);
            backoff.snooze();
        };
        // lint: relaxed-ok(peak watermark is advisory; fetch_max below is the RMW)
        if live > self.peak().load(Ordering::Relaxed) {
            self.peak().fetch_max(live, Ordering::AcqRel); // lint: relaxed-ok(monotone watermark RMW; AcqRel keeps concurrent maxes ordered)
        }

        // Fast path: recycle a released name. The coherent pop only reports
        // a miss when the list was empty at a single instant, so a miss
        // proves every issued ticket still has a live owner.
        ctx.record(StepKind::ReadModifyWrite);
        if let Some(name) = self.free.pop_coherent() {
            obs::count(obs::Metric::RecyclerGrant);
            obs::count(obs::Metric::RecyclerRecycled);
            obs::finish(lease_timer, obs::Metric::GrantNs);
            return Ok(name);
        }
        match self.grant_fresh(ctx) {
            Ok(name) => {
                obs::count(obs::Metric::RecyclerGrant);
                obs::count(obs::Metric::RecyclerFresh);
                obs::finish(lease_timer, obs::Metric::GrantNs);
                Ok(name)
            }
            Err(error) => {
                self.granted().fetch_sub(1, Ordering::SeqCst);
                Err(error)
            }
        }
    }

    /// Slow path: every name handed out so far is still held — acquire a
    /// fresh one as a new virtual participant. The caller owns the
    /// admission reservation and unreserves it on failure.
    fn grant_fresh(&self, ctx: &mut ProcessCtx) -> Result<usize, RenamingError> {
        let participant = self.tickets().fetch_add(1, Ordering::AcqRel); // lint: relaxed-ok(ticket RMW is the acquisition point for the participant slot)
        match self.inner.acquire_as(ctx, participant) {
            Ok(name) => Ok(name),
            Err(error) => {
                // Roll the ticket back so a failed inner acquisition neither
                // over-reports `fresh_names()` nor burns a virtual
                // participant index (which would inflate the inner object's
                // namespace on retry). The compare-exchange only restores
                // the counter when no later fresh acquisition raced past us;
                // in that rare case the index stays burned — acceptable,
                // since concurrent freshers are bounded by admission.
                let _ = self.tickets().compare_exchange(
                    participant + 1,
                    participant,
                    Ordering::AcqRel, // lint: relaxed-ok(CAS success publishes the rollback; failure retries with a fresh load)
                    Ordering::Relaxed,
                );
                Err(error)
            }
        }
    }

    /// Grants up to `count` names with a single amortized admission
    /// reservation, appending them to `names`. Returns how many were
    /// granted (possibly zero when the admission bound is reached) plus the
    /// inner fresh-path error that cut the batch short, if any — callers
    /// decide whether a partial batch is usable (shard sweeps) or must be
    /// rolled back with the true cause surfaced (all-or-nothing leases).
    /// Every granted name owes one [`LongLivedRenaming::release_raw`].
    pub(crate) fn grant_many(
        &self,
        ctx: &mut ProcessCtx,
        count: usize,
        names: &mut Vec<usize>,
    ) -> (usize, Option<RenamingError>) {
        if count == 0 {
            return (0, None);
        }
        // One fetch_add reserves the whole batch; excess reservations are
        // returned immediately, so transient over-reservation never rejects
        // others spuriously for longer than this window.
        let before = self.granted().fetch_add(count, Ordering::SeqCst);
        let live_before = before.saturating_sub(self.free.pushes());
        let admitted = self.max_concurrent.saturating_sub(live_before).min(count);
        if admitted < count {
            self.granted().fetch_sub(count - admitted, Ordering::SeqCst);
        }
        if admitted == 0 {
            return (0, None);
        }
        // lint: relaxed-ok(peak watermark is advisory; fetch_max below is the RMW)
        if live_before + admitted > self.peak().load(Ordering::Relaxed) {
            self.peak()
                .fetch_max(live_before + admitted, Ordering::AcqRel); // lint: relaxed-ok(monotone watermark RMW; AcqRel keeps concurrent maxes ordered)
        }
        let mut served = 0;
        while served < admitted {
            ctx.record(StepKind::ReadModifyWrite);
            let result = match self.free.pop_coherent() {
                Some(name) => Ok(name),
                None => self.grant_fresh(ctx),
            };
            match result {
                Ok(name) => {
                    names.push(name);
                    served += 1;
                }
                Err(error) => {
                    // Unreserve the failing slot plus the not-yet-attempted
                    // remainder of the batch.
                    self.granted()
                        .fetch_sub(admitted - served, Ordering::SeqCst);
                    return (served, Some(error));
                }
            }
        }
        (served, None)
    }
}

impl<R: Renaming + 'static> LongLivedRenaming for Recycler<R> {
    fn lease(self: Arc<Self>, ctx: &mut ProcessCtx) -> Result<NameLease, RenamingError> {
        let name = self.grant(ctx)?;
        Ok(NameLease::new(name, self))
    }

    fn lease_raw(&self, ctx: &mut ProcessCtx) -> Result<usize, RenamingError> {
        self.grant(ctx)
    }

    /// Raw batch form with the amortized admission [`Recycler::lease_many`]
    /// builds on: one atomic reservation for the whole batch, all-or-nothing
    /// with the true shortfall cause surfaced.
    fn lease_many_raw(
        &self,
        ctx: &mut ProcessCtx,
        count: usize,
        out: &mut Vec<usize>,
    ) -> Result<(), RenamingError> {
        let start = out.len();
        let (served, stop) = self.grant_many(ctx, count, out);
        if served == count {
            return Ok(());
        }
        let partial = out.split_off(start);
        self.release_many_raw(&partial);
        Err(stop.unwrap_or(RenamingError::CapacityExceeded {
            capacity: self.max_concurrent,
        }))
    }

    /// Batch form with *amortized admission*: one atomic reservation admits
    /// the whole batch instead of one reservation per lease. All-or-nothing:
    /// on a shortfall the partial batch is released and the cause is
    /// returned — the inner object's error if its fresh path failed,
    /// [`RenamingError::CapacityExceeded`] otherwise.
    fn lease_many(
        self: Arc<Self>,
        ctx: &mut ProcessCtx,
        count: usize,
    ) -> Result<Vec<NameLease>, RenamingError> {
        let mut names = Vec::with_capacity(count);
        self.lease_many_raw(ctx, count, &mut names)?;
        Ok(names
            .into_iter()
            .map(|name| NameLease::new(name, Arc::clone(&self) as Arc<dyn LongLivedRenaming>))
            .collect())
    }

    fn release_raw(&self, name: usize) {
        obs::count(obs::Metric::RecyclerRelease);
        if !self.free.push(name) {
            // A rejected push is a double release (or an out-of-range name,
            // unreachable through `NameLease`). The admission slot was
            // already returned by the first release, so the duplicate must
            // not count as another release — count the misuse and otherwise
            // treat the call as a no-op. (A rejected push does not bump the
            // seqlock, so `live_leases` is untouched automatically.)
            self.leaked().fetch_add(1, Ordering::Relaxed); // lint: relaxed-ok(diagnostic counter; no ordering dependency)
        }
        // No further bookkeeping: the successful push's seqlock bump *is*
        // the admission release, and it lands strictly after the name does —
        // so in-flight releases keep counting as live, the invariant that
        // makes fresh names contention-bounded.
    }

    /// Batch release with one seqlock bump (hence one admission release
    /// operation) for the whole batch, after every name's bit has landed.
    fn release_many_raw(&self, names: &[usize]) {
        let pushed = self.free.push_many(names);
        if pushed < names.len() {
            self.leaked()
                .fetch_add(names.len() - pushed, Ordering::Relaxed); // lint: relaxed-ok(diagnostic counter; no ordering dependency)
        }
    }

    fn max_concurrent(&self) -> Option<usize> {
        Some(self.max_concurrent)
    }

    fn live_leases(&self) -> usize {
        self.live_count()
    }
}

impl<R: Renaming> fmt::Debug for Recycler<R> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Recycler")
            .field("max_concurrent", &self.max_concurrent)
            .field("live", &self.live_count())
            .field("fresh_names", &self.fresh_names())
            .field("recycled_names", &self.recycled_names())
            .field("leaked_names", &self.leaked_names())
            .field("free_list", &self.free)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adaptive::AdaptiveRenaming;
    use crate::linear_probe::LinearProbeRenaming;
    use crate::renaming_network::RenamingNetwork;
    use parking_lot::Mutex;
    use shmem::adversary::ExecConfig;
    use shmem::executor::Executor;
    use shmem::process::ProcessId;
    use sortnet::batcher::odd_even_network;
    use tas::ratrace::RatRaceTas;

    fn ctx(id: usize, seed: u64) -> ProcessCtx {
        ProcessCtx::new(ProcessId::new(id), seed)
    }

    #[test]
    fn sequential_churn_recycles_instead_of_growing() {
        let recycler = Arc::new(Recycler::new(
            RenamingNetwork::<_>::new(odd_even_network(32)),
            4,
        ));
        let mut ctx = ctx(0, 9);
        for round in 0..20 {
            let lease = Arc::clone(&recycler).lease(&mut ctx).unwrap();
            assert_eq!(lease.name(), 1, "round {round}");
            lease.release(&mut ctx);
        }
        assert_eq!(recycler.fresh_names(), 1, "one fresh name serves all churn");
        assert_eq!(recycler.recycled_names(), 19);
        assert_eq!(recycler.leaked_names(), 0);
        assert_eq!(recycler.live_leases(), 0);
        assert!(ctx.stats().releases >= 19);
    }

    #[test]
    fn names_stay_within_max_concurrent_under_staircase_churn() {
        let recycler = Arc::new(Recycler::new(AdaptiveRenaming::default(), 3));
        let mut ctx = ctx(7, 2);
        for _ in 0..5 {
            let a = Arc::clone(&recycler).lease(&mut ctx).unwrap();
            let b = Arc::clone(&recycler).lease(&mut ctx).unwrap();
            let c = Arc::clone(&recycler).lease(&mut ctx).unwrap();
            for lease in [&a, &b, &c] {
                assert!((1..=3).contains(&lease.name()), "name {}", lease.name());
            }
            drop(c);
            drop(b);
            drop(a);
        }
        assert!(recycler.fresh_names() <= 3);
        assert_eq!(recycler.peak_leases(), 3);
    }

    #[test]
    fn admission_control_rejects_excess_concurrency() {
        let recycler = Arc::new(Recycler::new(
            LinearProbeRenaming::with_slots((0..4).map(|_| RatRaceTas::new()).collect::<Vec<_>>()),
            2,
        ));
        let mut ctx = ctx(0, 0);
        let a = Arc::clone(&recycler).lease(&mut ctx).unwrap();
        let _b = Arc::clone(&recycler).lease(&mut ctx).unwrap();
        assert_eq!(
            Arc::clone(&recycler).lease(&mut ctx).unwrap_err(),
            RenamingError::CapacityExceeded { capacity: 2 }
        );
        drop(a);
        let c = Arc::clone(&recycler).lease(&mut ctx).unwrap();
        assert_eq!(c.name(), 1, "releasing re-opens admission with recycling");
    }

    #[test]
    fn lease_many_amortizes_admission_and_is_all_or_nothing() {
        let recycler = Arc::new(Recycler::new(
            RenamingNetwork::<_>::new(odd_even_network(32)),
            4,
        ));
        let mut ctx = ctx(0, 3);
        let batch = Arc::clone(&recycler).lease_many(&mut ctx, 3).unwrap();
        let mut names: Vec<usize> = batch.iter().map(NameLease::name).collect();
        names.sort_unstable();
        assert_eq!(names, vec![1, 2, 3]);
        assert_eq!(recycler.live_leases(), 3);
        // Requesting past the admission bound releases the partial batch.
        assert_eq!(
            Arc::clone(&recycler).lease_many(&mut ctx, 2).unwrap_err(),
            RenamingError::CapacityExceeded { capacity: 4 }
        );
        assert_eq!(recycler.live_leases(), 3, "partial batch fully released");
        drop(batch);
        assert_eq!(recycler.live_leases(), 0);
        // After full release the batch recycles instead of growing.
        let again = Arc::clone(&recycler).lease_many(&mut ctx, 4).unwrap();
        assert_eq!(again.len(), 4);
        assert!(recycler.fresh_names() <= 4);
        assert_eq!(
            Arc::clone(&recycler).lease_many(&mut ctx, 0).unwrap().len(),
            0
        );
    }

    #[test]
    fn raw_batches_round_trip_with_one_seqlock_bump_per_batch() {
        let recycler = Arc::new(Recycler::new(
            RenamingNetwork::<_>::new(odd_even_network(32)),
            4,
        ));
        let mut ctx = ctx(0, 8);
        let mut names = Vec::new();
        recycler.lease_many_raw(&mut ctx, 4, &mut names).unwrap();
        names.sort_unstable();
        assert_eq!(names, vec![1, 2, 3, 4]);
        assert_eq!(recycler.live_leases(), 4);
        // All-or-nothing past the bound, with the buffer restored.
        let mut overflow = vec![99];
        assert_eq!(
            recycler
                .lease_many_raw(&mut ctx, 1, &mut overflow)
                .unwrap_err(),
            RenamingError::CapacityExceeded { capacity: 4 }
        );
        assert_eq!(overflow, vec![99], "the out buffer keeps prior contents");
        recycler.release_many_raw(&names);
        assert_eq!(recycler.live_leases(), 0);
        assert_eq!(recycler.free_names(), 4);
        // A second batch recycles the same names; a double batch release is
        // rejected name by name and counted.
        let mut again = Vec::new();
        recycler.lease_many_raw(&mut ctx, 4, &mut again).unwrap();
        assert!(recycler.fresh_names() <= 4);
        recycler.release_many_raw(&again);
        recycler.release_many_raw(&again);
        assert_eq!(recycler.leaked_names(), 4);
        assert_eq!(recycler.live_leases(), 0);
    }

    #[test]
    fn forget_detaches_the_name_and_release_raw_returns_it() {
        let recycler = Arc::new(Recycler::new(AdaptiveRenaming::default(), 2));
        let mut ctx = ctx(1, 4);
        let lease = Arc::clone(&recycler).lease(&mut ctx).unwrap();
        let name = lease.forget();
        assert_eq!(recycler.live_leases(), 1, "a forgotten name stays live");
        recycler.release_raw(name);
        assert_eq!(recycler.live_leases(), 0);
        let again = Arc::clone(&recycler).lease(&mut ctx).unwrap();
        assert_eq!(again.name(), name);
    }

    #[test]
    fn double_release_raw_is_rejected_and_counted() {
        let recycler = Arc::new(Recycler::new(AdaptiveRenaming::default(), 2));
        let mut ctx = ctx(0, 5);
        let name = Arc::clone(&recycler).lease(&mut ctx).unwrap().forget();
        let held = Arc::clone(&recycler).lease(&mut ctx).unwrap();
        recycler.release_raw(name);
        assert_eq!(recycler.live_leases(), 1, "one lease is still held");
        recycler.release_raw(name); // misuse: the duplicate is leaked
        assert_eq!(recycler.leaked_names(), 1);
        assert_eq!(
            recycler.live_leases(),
            1,
            "a rejected release must not return an admission slot twice"
        );
        drop(held);
        assert_eq!(recycler.live_leases(), 0);
    }

    /// A one-shot object whose `acquire_as` fails a scripted number of times
    /// before succeeding, recording every participant index it is offered —
    /// the probe for the fresh-path ticket rollback.
    struct FlakyRenaming {
        failures_left: AtomicUsize,
        participants_seen: Mutex<Vec<usize>>,
    }

    impl FlakyRenaming {
        fn failing(times: usize) -> Self {
            FlakyRenaming {
                failures_left: AtomicUsize::new(times),
                participants_seen: Mutex::new(Vec::new()),
            }
        }
    }

    impl Renaming for FlakyRenaming {
        fn acquire(&self, ctx: &mut ProcessCtx) -> Result<usize, RenamingError> {
            self.acquire_as(ctx, 0)
        }

        fn acquire_as(
            &self,
            _ctx: &mut ProcessCtx,
            participant: usize,
        ) -> Result<usize, RenamingError> {
            self.participants_seen.lock().push(participant);
            let failing = self
                .failures_left
                .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |left| {
                    left.checked_sub(1)
                })
                .is_ok();
            if failing {
                Err(RenamingError::CapacityExceeded { capacity: 0 })
            } else {
                Ok(participant + 1)
            }
        }

        fn capacity(&self) -> Option<usize> {
            Some(64)
        }

        fn is_adaptive(&self) -> bool {
            true
        }
    }

    #[test]
    fn failed_fresh_acquisitions_roll_the_ticket_back() {
        // Regression test for the fresh-path ticket leak: a failing inner
        // renaming used to burn a virtual participant index per failure and
        // leave `fresh_names()` over-reporting, inflating the inner
        // namespace on retry.
        let recycler = Arc::new(Recycler::new(FlakyRenaming::failing(3), 4));
        let mut ctx = ctx(0, 1);
        for attempt in 0..3 {
            let error = Arc::clone(&recycler).lease(&mut ctx).unwrap_err();
            assert_eq!(error, RenamingError::CapacityExceeded { capacity: 0 });
            assert_eq!(
                recycler.fresh_names(),
                0,
                "attempt {attempt}: failed fresh acquisitions must not be counted"
            );
            assert_eq!(recycler.live_leases(), 0, "attempt {attempt}");
        }
        let lease = Arc::clone(&recycler).lease(&mut ctx).unwrap();
        assert_eq!(
            lease.name(),
            1,
            "the retry reuses participant 0, keeping the inner namespace tight"
        );
        assert_eq!(recycler.fresh_names(), 1);
        assert_eq!(
            *recycler.inner().participants_seen.lock(),
            vec![0, 0, 0, 0],
            "every attempt entered the inner object as participant 0"
        );
    }

    #[test]
    fn concurrent_churn_yields_unique_live_names_in_bound() {
        for seed in 0..4 {
            let recycler = Arc::new(Recycler::new(
                RenamingNetwork::<_>::new(odd_even_network(64)),
                8,
            ));
            let outcome = Executor::new(ExecConfig::new(seed)).run(8, {
                let recycler = Arc::clone(&recycler);
                move |ctx| {
                    let mut names = Vec::new();
                    for _ in 0..6 {
                        let lease = Arc::clone(&recycler).lease(ctx).unwrap();
                        names.push(lease.name());
                        lease.release(ctx);
                    }
                    names
                }
            });
            let names = outcome.flattened();
            assert_eq!(names.len(), 48, "seed {seed}");
            assert!(
                names.iter().all(|&name| (1..=8).contains(&name)),
                "seed {seed}: names must stay in 1..=max_concurrent, got {names:?}"
            );
            assert!(recycler.fresh_names() <= 8, "seed {seed}");
            assert_eq!(recycler.live_leases(), 0, "seed {seed}");
            assert_eq!(recycler.leaked_names(), 0, "seed {seed}");
        }
    }

    #[test]
    fn debug_reports_the_counters() {
        let recycler = Recycler::new(AdaptiveRenaming::default(), 2);
        let formatted = format!("{recycler:?}");
        assert!(formatted.contains("Recycler"));
        assert!(formatted.contains("max_concurrent"));
        assert_eq!(LongLivedRenaming::max_concurrent(&recycler), Some(2));
        assert_eq!(recycler.name_bound(), 2 * UNBOUNDED_FREELIST_HEADROOM);
    }

    #[test]
    #[should_panic(expected = "at least one concurrent lease")]
    fn zero_concurrency_is_rejected() {
        let _ = Recycler::new(AdaptiveRenaming::default(), 0);
    }

    #[test]
    #[should_panic(expected = "exceeds the inner")]
    fn max_concurrent_above_capacity_is_rejected() {
        let _ = Recycler::new(
            LinearProbeRenaming::with_slots((0..2).map(|_| RatRaceTas::new()).collect::<Vec<_>>()),
            3,
        );
    }
}
