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
//! # The per-thread escrow
//!
//! With an escrow quota `q ≥ 1` ([`Recycler::new_in`]; the builder default
//! is `q = 8`) released names park in 64 arena-resident slots of one cache
//! line each: a header word (busy flag, length) and up to 15 names. A
//! thread's slot is a thread-local index drawn once from a global counter,
//! modulo 64, so a slot's line is normally written by one thread only.
//!
//! * **Lease** (one modelled read-modify-write): try-lock the caller's slot
//!   with one RMW, pop the newest name, unlock. A busy or empty slot falls
//!   back to the admission + free-list grant; if that is rejected for
//!   capacity, the lease sweeps every slot and steals a parked name first,
//!   so names parked by another or an exited thread never cause a spurious
//!   reject.
//! * **Release:** try-lock the caller's slot and append the name. A slot
//!   holding `q` names keeps its newest `q/2` and spills the rest plus this
//!   name with one [`FreeList::push_many`] (one seqlock bump). A busy slot
//!   sends the name to the free list.
//! * **Critical sections** record no modelled step, allocate nothing and
//!   cannot panic, so the virtual executor never parks a slot holder and a
//!   sweeper's [`Backoff`] wait on a busy slot ends.
//!
//! Escrowed names keep their admission slots (admission counts
//! `granted − pushes`), so `max_concurrent` bounds leases plus parked names
//! exactly; [`LongLivedRenaming::live_leases`] subtracts the parked names.
//! The trade: an escrowed name was granted earlier, perhaps at higher
//! contention, so the per-grant tight bound is lost. What holds, with `P`
//! slots in use, is that every granted name is at most the highest point
//! contention of any grant up to and including it, plus `P·q`: the bound
//! [`assert_escrow_lease_namespace`] checks on seeded virtual-executor
//! churn in `tests/lease_churn.rs`. (Under real threads a spill in flight
//! briefly holds up to `⌈q/2⌉` more names of its slot.)
//!
//! A release drops a duplicate of a name still parked in its own slot,
//! counted in [`Recycler::leaked_names`]; a duplicate whose first copy left
//! that slot (spilled, stolen, or released by another thread) is caught
//! only if it spills while the other copy is on the free list. Names parked
//! by a process that dies stay parked until a steal sweep finds them; crash
//! recovery does not drain escrows.
//!
//! [`assert_escrow_lease_namespace`]: crate::lease::assert_escrow_lease_namespace

use crate::backoff::Backoff;
use crate::error::RenamingError;
use crate::free_list::FreeList;
use crate::lease::{LongLivedRenaming, NameLease};
use crate::traits::Renaming;
use shmem::arena::{Arena, ArenaRef, ArenaSliceRef};
use shmem::process::ProcessCtx;
use shmem::steps::StepKind;
use std::fmt;
use std::sync::atomic::{AtomicU32, AtomicUsize, Ordering};
use std::sync::Arc;

/// Headroom multiplier used to size the free list of a recycler over an
/// unbounded (adaptive) inner object, where no hard namespace bound exists.
/// Names above the sized bound are never produced in well-formed executions
/// (they would exceed the admission limit); if one appears it is leaked, not
/// lost.
const UNBOUNDED_FREELIST_HEADROOM: usize = 4;

/// Escrow slots per recycler; a thread uses slot `index % ESCROW_SLOTS`.
const ESCROW_SLOTS: usize = 64;
/// `u32` words per escrow slot — one 64-byte cache line: the header word,
/// then up to [`MAX_ESCROW_QUOTA`] names, oldest first.
const SLOT_WORDS: usize = 16;
/// The largest escrow quota: the names that fit in one slot.
pub const MAX_ESCROW_QUOTA: usize = SLOT_WORDS - 1;
/// The header's busy flag; the low bits hold the slot's length.
const BUSY: u32 = 1 << 31;

/// Hands each thread its escrow slot index, in order of first use.
static NEXT_ESCROW_SLOT: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    // lint: relaxed-ok(an index ticket; threads sharing a slot stay correct)
    static ESCROW_SLOT: usize = NEXT_ESCROW_SLOT.fetch_add(1, Ordering::Relaxed) % ESCROW_SLOTS;
}

/// The calling thread's escrow slot index, the same for every recycler.
#[inline]
fn home_slot() -> usize {
    ESCROW_SLOT.with(|slot| *slot)
}

/// One escrow slot: `[header, name₁, …, name₁₅]`.
type Slot = [AtomicU32; SLOT_WORDS];

/// Try-locks `slot` with one RMW on its line; returns its length when the
/// lock was free. The length is clamped so that no index derived from it can
/// leave the slot, which keeps every critical section panic-free.
#[inline]
fn try_lock(slot: &Slot) -> Option<usize> {
    let header = slot[0].fetch_or(BUSY, Ordering::Acquire);
    (header & BUSY == 0).then_some((header as usize).min(MAX_ESCROW_QUOTA))
}

/// Publishes the slot's names and new length, releasing the lock.
#[inline]
fn unlock(slot: &Slot, len: usize) {
    slot[0].store(len as u32, Ordering::Release);
}

/// Reads a name word of a slot the caller has locked.
#[inline]
fn read(word: &AtomicU32) -> usize {
    word.load(Ordering::Relaxed) as usize // lint: relaxed-ok(slot words are accessed under the slot lock, whose Acquire/Release orders them)
}

/// Writes a name word of a slot the caller has locked.
#[inline]
fn write(word: &AtomicU32, name: usize) {
    word.store(name as u32, Ordering::Relaxed); // lint: relaxed-ok(slot words are accessed under the slot lock, whose Acquire/Release orders them)
}

/// What a release into the caller's escrow slot did with the name.
enum Parked {
    /// Appended to the slot.
    Kept,
    /// Already in the slot: a double release, dropped.
    Duplicate,
    /// The slot was full: these names (its oldest plus the released one)
    /// left it and must go to the free list.
    Spilled([usize; SLOT_WORDS], usize),
    /// Another thread holds the slot.
    Busy,
}

/// The per-thread escrow of a [`Recycler`] (see the module docs).
struct Escrow {
    /// `ESCROW_SLOTS` slots of `SLOT_WORDS` words, one cache line each.
    words: ArenaSliceRef<AtomicU32>,
    quota: usize,
}

impl Escrow {
    fn new_in(arena: &Arc<Arena>, quota: usize) -> Self {
        Escrow {
            words: arena.alloc_slice(ESCROW_SLOTS * SLOT_WORDS),
            quota,
        }
    }

    #[inline]
    fn slot(&self, index: usize) -> &Slot {
        &self.words.as_chunks::<SLOT_WORDS>().0[index % ESCROW_SLOTS]
    }

    /// Pops the newest name of slot `index`; `None` if it is empty, or if
    /// it is busy and `wait` is false. Waiting uses [`Backoff`]: a holder
    /// never blocks, so the wait ends.
    #[inline]
    fn pop(&self, index: usize, wait: bool) -> Option<usize> {
        let slot = self.slot(index);
        let mut backoff = Backoff::new();
        let len = loop {
            match try_lock(slot) {
                Some(len) => break len,
                None if wait => backoff.snooze(),
                None => return None,
            }
        };
        let name = (len > 0).then(|| read(&slot[len]));
        unlock(slot, len - usize::from(name.is_some()));
        name
    }

    /// Steals one name, visiting every slot once from `from` and waiting
    /// out busy ones; `None` when every slot is empty.
    fn steal(&self, from: usize) -> Option<usize> {
        (0..ESCROW_SLOTS).find_map(|offset| {
            // An unlocked empty slot has a zero header: skip it unwritten.
            let index = from + offset;
            (self.slot(index)[0].load(Ordering::Acquire) != 0)
                .then(|| self.pop(index, true))
                .flatten()
        })
    }

    /// Parks `name` in slot `index` (see [`Parked`]).
    #[inline]
    fn park(&self, index: usize, name: usize) -> Parked {
        let slot = self.slot(index);
        let Some(len) = try_lock(slot) else {
            return Parked::Busy;
        };
        let names = &slot[1..=len];
        if names.iter().any(|held| read(held) == name) {
            unlock(slot, len);
            return Parked::Duplicate;
        }
        if len < self.quota {
            write(&slot[len + 1], name);
            unlock(slot, len + 1);
            return Parked::Kept;
        }
        // Full: spill the oldest names plus this one, keep the newest half.
        let spill = len - self.quota / 2;
        let mut spilled = [name; SLOT_WORDS];
        for (out, held) in spilled.iter_mut().zip(&names[..spill]) {
            *out = read(held);
        }
        for (to, from) in names.iter().zip(&names[spill..]) {
            write(to, read(from));
        }
        unlock(slot, len - spill);
        Parked::Spilled(spilled, spill + 1)
    }
}

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
    /// The per-thread escrow, when built with a quota (see the module docs).
    escrow: Option<Escrow>,
}

impl<R: Renaming> Recycler<R> {
    /// Wraps `inner`, allowing at most `max_concurrent` simultaneously live
    /// leases. The recycler has no escrow: every release goes straight to
    /// the free list, and every grant is tight.
    ///
    /// # Panics
    ///
    /// Panics if `max_concurrent` is zero or exceeds the inner object's
    /// capacity (a bounded object cannot serve more concurrent holders than
    /// it has names).
    pub fn new(inner: R, max_concurrent: usize) -> Self {
        let arena = Arena::heap(Self::footprint(&inner, max_concurrent, 0));
        Self::new_in(inner, max_concurrent, 0, &arena)
    }

    /// Like [`Recycler::new`], but with a per-thread escrow of up to
    /// `escrow_quota` names per slot (`0` for none; see the module docs),
    /// and with the free list, the header counters and the escrow slots
    /// placed in the caller's `arena`. The caller must reserve at least
    /// [`Recycler::footprint`] bytes for this recycler. The inner one-shot
    /// object stays on the private heap, so a shared arena alone does not
    /// make the recycler safe to use from several processes.
    ///
    /// # Panics
    ///
    /// As [`Recycler::new`], and if `escrow_quota` exceeds
    /// [`MAX_ESCROW_QUOTA`].
    ///
    /// # Example
    ///
    /// ```
    /// use adaptive_renaming::lease::LongLivedRenaming;
    /// use adaptive_renaming::recycler::Recycler;
    /// use adaptive_renaming::renaming_network::RenamingNetwork;
    /// use shmem::arena::Arena;
    /// use shmem::process::{ProcessCtx, ProcessId};
    /// use sortnet::batcher::odd_even_network;
    ///
    /// let inner = RenamingNetwork::<_>::new(odd_even_network(16));
    /// let arena = Arena::heap(Recycler::footprint(&inner, 4, 4));
    /// let recycler = Recycler::new_in(inner, 4, 4, &arena);
    /// let mut ctx = ProcessCtx::new(ProcessId::new(0), 1);
    ///
    /// let name = recycler.lease_raw(&mut ctx).unwrap();
    /// recycler.release_raw(name); // parked in this thread's slot
    /// assert_eq!(recycler.escrowed_names(), 1);
    /// assert_eq!(recycler.free_names(), 0, "the free list never saw it");
    /// assert_eq!(recycler.live_leases(), 0);
    /// assert_eq!(recycler.lease_raw(&mut ctx).unwrap(), name, "taken back");
    /// ```
    pub fn new_in(
        inner: R,
        max_concurrent: usize,
        escrow_quota: usize,
        arena: &Arc<Arena>,
    ) -> Self {
        let bound = Self::checked_bound(&inner, max_concurrent);
        assert!(
            escrow_quota <= MAX_ESCROW_QUOTA && (escrow_quota == 0 || bound <= u32::MAX as usize),
            "an escrow slot holds at most {MAX_ESCROW_QUOTA} names, stored as u32"
        );
        Recycler {
            inner,
            free: FreeList::new_in(arena, bound),
            tickets: arena.alloc::<AtomicUsize>(),
            max_concurrent,
            granted: arena.alloc::<AtomicUsize>(),
            peak: arena.alloc::<AtomicUsize>(),
            leaked: arena.alloc::<AtomicUsize>(),
            escrow: (escrow_quota > 0).then(|| Escrow::new_in(arena, escrow_quota)),
            arena: Arc::clone(arena),
        }
    }

    /// The number of arena bytes a recycler of this shape allocates: the
    /// free list, four header counter lines and, with a nonzero quota, the
    /// 64 escrow slot lines.
    pub fn footprint(inner: &R, max_concurrent: usize, escrow_quota: usize) -> usize {
        let escrow = if escrow_quota > 0 {
            ESCROW_SLOTS * 64
        } else {
            0
        };
        FreeList::footprint(Self::checked_bound(inner, max_concurrent)) + 4 * 64 + escrow
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

    /// The arena holding the free list, the header counters and the escrow
    /// slots (a private heap arena unless the recycler was built with
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
        self.tickets.load(Ordering::Relaxed) // lint: relaxed-ok(diagnostic counter; no ordering dependency)
    }

    /// Leases served from the free list (recycled names) so far, derived as
    /// `releases − names currently free` (`O(capacity)`; diagnostics —
    /// momentarily stale while operations are in flight).
    pub fn recycled_names(&self) -> usize {
        self.free.pushes().saturating_sub(self.free.len())
    }

    /// Peak number of simultaneously live leases observed so far.
    pub fn peak_leases(&self) -> usize {
        self.peak.load(Ordering::Relaxed) // lint: relaxed-ok(diagnostic counter; no ordering dependency)
    }

    /// Names lost to the recycling discipline (double releases or releases
    /// of out-of-range names). Zero in well-formed executions.
    pub fn leaked_names(&self) -> usize {
        self.leaked.load(Ordering::Relaxed) // lint: relaxed-ok(diagnostic counter; no ordering dependency)
    }

    /// Names currently waiting on the free list (O(capacity); diagnostics).
    pub fn free_names(&self) -> usize {
        self.free.len()
    }

    /// The escrow quota: the names a thread's slot keeps before it spills
    /// (`0` when the recycler has no escrow).
    pub fn escrow_quota(&self) -> usize {
        self.escrow.as_ref().map_or(0, |escrow| escrow.quota)
    }

    /// Names currently parked in escrow slots: released by their holders,
    /// still holding admission slots (diagnostics; momentarily stale while
    /// operations are in flight).
    pub fn escrowed_names(&self) -> usize {
        let Some(escrow) = &self.escrow else { return 0 };
        let slots = escrow.words.as_chunks::<SLOT_WORDS>().0;
        slots
            .iter()
            .map(|slot| (slot[0].load(Ordering::Acquire) & !BUSY) as usize)
            .sum()
    }

    /// Admission's live count (including in-flight releases, crashed
    /// attempts and escrowed names): total reservations granted minus
    /// completed free-list pushes.
    fn live_count(&self) -> usize {
        self.granted
            .load(Ordering::SeqCst)
            .saturating_sub(self.free.pushes())
    }

    /// Leases one name: from the caller's escrow slot when it has one,
    /// otherwise through [`Recycler::grant`], with a steal sweep over every
    /// slot before a capacity rejection is surfaced (see the module docs).
    fn lease_escrowed(
        &self,
        escrow: &Escrow,
        ctx: &mut ProcessCtx,
    ) -> Result<usize, RenamingError> {
        // The slot consult is modeled as one shared read-modify-write: the
        // try-lock on the caller's own line.
        ctx.record(StepKind::ReadModifyWrite);
        let home = home_slot();
        let name = match escrow.pop(home, false) {
            Some(name) => name,
            None => match self.grant(ctx) {
                Err(RenamingError::CapacityExceeded { capacity }) => escrow
                    .steal(home)
                    .ok_or(RenamingError::CapacityExceeded { capacity })?,
                granted => return granted,
            },
        };
        obs::count(obs::Metric::BatchedStashHit);
        Ok(name)
    }

    /// Returns `name` through the caller's escrow slot: parked, dropped as
    /// a duplicate, spilled with part of the slot in one batch push, or —
    /// when another thread holds the slot — pushed straight to the list.
    fn release_escrowed(&self, escrow: &Escrow, name: usize) {
        let home = home_slot();
        match escrow.park(home, name) {
            Parked::Kept => {}
            Parked::Duplicate => {
                self.leaked.fetch_add(1, Ordering::Relaxed); // lint: relaxed-ok(diagnostic counter; no ordering dependency)
            }
            Parked::Spilled(names, count) => {
                obs::count(obs::Metric::BatchedFlush);
                obs::event(obs::EventKind::Flush, home as u64, count as u64);
                self.push_many(&names[..count]);
            }
            Parked::Busy => self.push_many(&[name]),
        }
    }

    /// Returns a batch of names to the free list with one seqlock bump,
    /// counting rejected duplicates as leaked.
    fn push_many(&self, names: &[usize]) {
        let pushed = self.free.push_many(names);
        if pushed < names.len() {
            self.leaked
                .fetch_add(names.len() - pushed, Ordering::Relaxed); // lint: relaxed-ok(diagnostic counter; no ordering dependency)
        }
    }

    /// Grants one name through admission and the free list (or the fresh
    /// path), bypassing the escrow: the recycler's only admission path.
    /// The caller owes the name one [`LongLivedRenaming::release_raw`].
    fn grant(&self, ctx: &mut ProcessCtx) -> Result<usize, RenamingError> {
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
            let reserved = self.granted.fetch_add(1, Ordering::SeqCst) + 1;
            let pushes = self.free.pushes();
            let live = reserved.saturating_sub(pushes);
            if live <= self.max_concurrent {
                break live;
            }
            self.granted.fetch_sub(1, Ordering::SeqCst);
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
        if live > self.peak.load(Ordering::Relaxed) {
            self.peak.fetch_max(live, Ordering::AcqRel); // lint: relaxed-ok(monotone watermark RMW; AcqRel keeps concurrent maxes ordered)
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
                self.granted.fetch_sub(1, Ordering::SeqCst);
                Err(error)
            }
        }
    }

    /// Slow path: every name handed out so far is still held — acquire a
    /// fresh one as a new virtual participant. The caller owns the
    /// admission reservation and unreserves it on failure.
    fn grant_fresh(&self, ctx: &mut ProcessCtx) -> Result<usize, RenamingError> {
        let participant = self.tickets.fetch_add(1, Ordering::AcqRel); // lint: relaxed-ok(ticket RMW is the acquisition point for the participant slot)
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
                let _ = self.tickets.compare_exchange(
                    participant + 1,
                    participant,
                    Ordering::AcqRel, // lint: relaxed-ok(CAS success publishes the rollback; failure retries with a fresh load)
                    Ordering::Relaxed,
                );
                Err(error)
            }
        }
    }
}

impl<R: Renaming + 'static> LongLivedRenaming for Recycler<R> {
    fn lease(self: Arc<Self>, ctx: &mut ProcessCtx) -> Result<NameLease, RenamingError> {
        let name = self.lease_raw(ctx)?;
        Ok(NameLease::new(name, self))
    }

    fn lease_raw(&self, ctx: &mut ProcessCtx) -> Result<usize, RenamingError> {
        match &self.escrow {
            None => self.grant(ctx),
            Some(escrow) => self.lease_escrowed(escrow, ctx),
        }
    }

    fn release_raw(&self, name: usize) {
        if let Some(escrow) = &self.escrow {
            // Out-of-range names (misuse) take the free list's rejection.
            if (1..=self.free.bound()).contains(&name) {
                return self.release_escrowed(escrow, name);
            }
        }
        obs::count(obs::Metric::RecyclerRelease);
        if !self.free.push(name) {
            // A rejected push is a double release (or an out-of-range name,
            // unreachable through `NameLease`). The admission slot was
            // already returned by the first release, so the duplicate must
            // not count as another release — count the misuse and otherwise
            // treat the call as a no-op. (A rejected push does not bump the
            // seqlock, so `live_leases` is untouched automatically.)
            self.leaked.fetch_add(1, Ordering::Relaxed); // lint: relaxed-ok(diagnostic counter; no ordering dependency)
        }
        // No further bookkeeping: the successful push's seqlock bump *is*
        // the admission release, and it lands strictly after the name does —
        // so in-flight releases keep counting as live, the invariant that
        // makes fresh names contention-bounded.
    }

    fn max_concurrent(&self) -> Option<usize> {
        Some(self.max_concurrent)
    }

    /// Admission's live count minus the escrowed names.
    fn live_leases(&self) -> usize {
        self.live_count().saturating_sub(self.escrowed_names())
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
            .field("escrow_quota", &self.escrow_quota())
            .field("escrowed_names", &self.escrowed_names())
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
    use shmem::process::ProcessId;
    use sortnet::batcher::odd_even_network;
    use tas::ratrace::RatRaceTas;

    fn ctx(id: usize, seed: u64) -> ProcessCtx {
        ProcessCtx::new(ProcessId::new(id), seed)
    }

    /// Runs `workers` OS threads released together, thread `i` as process
    /// `i` with its own context, and returns every thread's names in
    /// process order.
    fn on_threads<F>(workers: usize, seed: u64, body: F) -> Vec<usize>
    where
        F: Fn(&mut ProcessCtx) -> Vec<usize> + Sync,
    {
        let (body, start) = (&body, &std::sync::Barrier::new(workers));
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|id| {
                    scope.spawn(move || {
                        start.wait();
                        body(&mut ctx(id, seed))
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|handle| handle.join().unwrap())
                .collect()
        })
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
        // On OS threads: the free-list words and escrow try-locks record no
        // modelled step, so a virtual schedule never interleaves inside
        // them; only real threads (and miri) race them. Shrunk under miri,
        // like the escrow churn below.
        let seeds = if cfg!(miri) { 1 } else { 4 };
        for seed in 0..seeds {
            let recycler = Arc::new(Recycler::new(
                RenamingNetwork::<_>::new(odd_even_network(64)),
                8,
            ));
            let names = on_threads(8, seed, |ctx| {
                let mut names = Vec::new();
                for _ in 0..6 {
                    let lease = Arc::clone(&recycler).lease(ctx).unwrap();
                    names.push(lease.name());
                    lease.release(ctx);
                }
                names
            });
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

    /// A recycler over a 64-wire network with an escrow of `quota` names
    /// per slot, in its own heap arena.
    fn escrowed(max: usize, quota: usize) -> Arc<Recycler<impl Renaming>> {
        let inner = RenamingNetwork::<_>::new(odd_even_network(64));
        let arena = Arena::heap(Recycler::footprint(&inner, max, quota));
        Arc::new(Recycler::new_in(inner, max, quota, &arena))
    }

    fn lease_n(recycler: &impl LongLivedRenaming, ctx: &mut ProcessCtx, n: usize) -> Vec<usize> {
        (0..n).map(|_| recycler.lease_raw(ctx).unwrap()).collect()
    }

    fn release(recycler: &impl LongLivedRenaming, names: &[usize]) {
        names.iter().for_each(|&name| recycler.release_raw(name));
    }

    #[test]
    fn releases_park_in_the_escrow_until_the_slot_fills() {
        let (recycler, mut ctx) = (escrowed(8, 4), ctx(0, 1));
        let names = lease_n(&*recycler, &mut ctx, 4);
        release(&*recycler, &names[..3]);
        assert_eq!((recycler.escrowed_names(), recycler.free_names()), (3, 0));
        assert_eq!(recycler.live_leases(), 1);
        assert_eq!(recycler.live_count(), 4, "parked, still admitted");
        // Churn takes back the newest parked name, without a spill.
        assert_eq!(recycler.lease_raw(&mut ctx).unwrap(), names[2]);
        recycler.release_raw(names[2]);
        recycler.release_raw(names[3]); // fills the slot to the quota
        assert_eq!((recycler.escrowed_names(), recycler.free_names()), (4, 0));
        assert_eq!(recycler.live_leases(), 0);
    }

    #[test]
    fn a_full_slot_spills_its_older_half_as_one_batch() {
        let (recycler, mut ctx) = (escrowed(8, 4), ctx(0, 2));
        let names = lease_n(&*recycler, &mut ctx, 5);
        release(&*recycler, &names);
        // The fifth release found the slot full: the two oldest names and
        // itself spilled with one push_many, the newest two stayed.
        assert_eq!((recycler.escrowed_names(), recycler.free_names()), (2, 3));
        assert_eq!(recycler.live_leases(), 0);
        let again = lease_n(&*recycler, &mut ctx, 3);
        assert_eq!(again, [names[3], names[2], names[0]], "newest, then min");
    }

    #[test]
    fn escrowed_names_do_not_defeat_the_admission_bound() {
        let (recycler, mut ctx) = (escrowed(2, 8), ctx(0, 3));
        let names = lease_n(&*recycler, &mut ctx, 2);
        release(&*recycler, &names);
        // Both admission slots are parked, yet both leases succeed.
        let mut again = lease_n(&*recycler, &mut ctx, 2);
        let reject = RenamingError::CapacityExceeded { capacity: 2 };
        assert_eq!(recycler.lease_raw(&mut ctx), Err(reject));
        again.reverse();
        assert_eq!(again, names);
    }

    #[test]
    fn names_parked_by_an_exited_thread_are_stolen_not_rejected() {
        let recycler = escrowed(2, 8);
        let spawn = |run: &(dyn Fn() -> Option<Vec<usize>> + Sync)| {
            std::thread::scope(|scope| scope.spawn(run).join().unwrap())
        };
        // Thread A leases two names, parks both in its slot and exits.
        let mut parked = spawn(&|| {
            let names = lease_n(&*recycler, &mut ctx(0, 4), 2);
            release(&*recycler, &names);
            Some(vec![names[0], names[1], home_slot()])
        })
        .unwrap();
        let a_slot = parked.pop().unwrap();
        assert_eq!((recycler.escrowed_names(), recycler.live_leases()), (2, 0));
        // Thread B, on another slot, must steal both names from A's slot;
        // only its third lease is a genuine reject.
        let leased = loop {
            let attempt = spawn(&|| {
                let mut ctx = ctx(1, 5);
                (home_slot() != a_slot).then(|| {
                    let names = lease_n(&*recycler, &mut ctx, 2);
                    let reject = RenamingError::CapacityExceeded { capacity: 2 };
                    assert_eq!(recycler.lease_raw(&mut ctx), Err(reject));
                    release(&*recycler, &names);
                    names
                })
            });
            if let Some(leased) = attempt {
                break leased;
            }
        };
        parked.reverse();
        assert_eq!(leased, parked, "B took exactly A's names, newest first");
        assert_eq!(recycler.fresh_names(), 2, "no name was minted for B");
        assert_eq!(recycler.live_leases(), 0, "every thread has exited");
    }

    #[test]
    fn a_double_release_into_the_own_slot_is_dropped_and_counted() {
        let (recycler, mut ctx) = (escrowed(4, 8), ctx(0, 6));
        let [name, held] = lease_n(&*recycler, &mut ctx, 2)[..] else {
            unreachable!()
        };
        recycler.release_raw(name);
        recycler.release_raw(name); // misuse: the duplicate is dropped
        assert_eq!(recycler.leaked_names(), 1);
        assert_eq!((recycler.escrowed_names(), recycler.live_leases()), (1, 1));
        // Two later leases must not both get the name.
        let again = lease_n(&*recycler, &mut ctx, 2);
        assert!(again[0] == name && ![name, held].contains(&again[1]));
    }

    #[test]
    fn the_lease_surface_returns_raii_guards_through_the_escrow() {
        let (recycler, mut ctx) = (escrowed(4, 2), ctx(3, 4));
        let lease = Arc::clone(&recycler).lease(&mut ctx).unwrap();
        let name = lease.name();
        drop(lease); // Drop releases through the escrow.
        assert_eq!((recycler.escrowed_names(), recycler.live_leases()), (1, 0));
        assert_eq!(Arc::clone(&recycler).lease(&mut ctx).unwrap(), name);
    }

    #[test]
    fn escrowed_concurrent_churn_keeps_names_unique_and_bounded() {
        // On OS threads and shrunk under miri, as the bare churn above.
        let (seeds, workers) = if cfg!(miri) { (1, 3) } else { (4, 8) };
        for seed in 0..seeds {
            let recycler = escrowed(workers, 2);
            let names = on_threads(workers, seed, |ctx| {
                (0..6)
                    .map(|_| Arc::clone(&recycler).lease(ctx).unwrap().name())
                    .collect()
            });
            assert!(names.iter().all(|name| (1..=workers).contains(name)));
            assert_eq!(recycler.live_leases(), 0, "seed {seed}");
            assert_eq!(recycler.live_count(), recycler.escrowed_names());
            assert_eq!(recycler.leaked_names(), 0, "seed {seed}");
        }
    }

    #[test]
    fn escrow_accessors_and_debug_report_the_configuration() {
        let recycler = escrowed(4, 8);
        assert_eq!((recycler.escrow_quota(), recycler.escrowed_names()), (8, 0));
        assert!(format!("{recycler:?}").contains("escrow_quota: 8"));
        // The bare recycler has no escrow and no slot lines in its arena.
        let inner = AdaptiveRenaming::default();
        let slot_lines = Recycler::footprint(&inner, 4, 8) - Recycler::footprint(&inner, 4, 0);
        assert_eq!(slot_lines, ESCROW_SLOTS * 64);
        assert_eq!(Recycler::new(inner, 4).escrow_quota(), 0);
    }

    #[test]
    #[should_panic(expected = "at most 15 names")]
    fn escrow_quotas_above_a_slot_are_rejected() {
        let _ = escrowed(2, MAX_ESCROW_QUOTA + 1);
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
