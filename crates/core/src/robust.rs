//! Crash-robust long-lived renaming: generation-stamped lease slots with a
//! liveness sweep.
//!
//! The recycling layers of this crate ([`Recycler`](crate::recycler::Recycler)
//! and friends) assume every granted name is eventually released by its
//! holder. Across OS processes over a shared-memory
//! [`shmem::arena::Arena`] that assumption fails: a process that
//! crashes mid-lease takes its names with it, permanently shrinking the
//! namespace. [`RobustLeaseTable`] closes that hole with the classical
//! slot-per-name lease protocol:
//!
//! * Name `n` is represented by one 64-bit slot word packing an **owner**
//!   (32 bits, an OS pid in cross-process deployments), a **generation**
//!   (31 bits, bumped once per grant) and a **held** flag. The slot word is
//!   the only ownership record: sweep and recovery read nothing else.
//! * In front of the slots sits an arena-resident pop-minimum
//!   [`FreeList`] of the free names, full at creation. `acquire` pops the
//!   lowest free name and claims its slot with a single CAS
//!   `FREE(g) → HELD(g+1, owner)`: `O(1)` expected steps instead of the
//!   `Θ(k)` slot scan of linear probing (§1's baseline,
//!   [`linear_probe`](crate::linear_probe)).
//! * `release` performs the single CAS `HELD(g, owner) → FREE(g)`, then
//!   pushes the name back.
//! * `sweep` reads the slots whose free-list bit is clear and performs the
//!   *same* CAS on those whose owner a liveness predicate declares dead,
//!   then pushes the name back. A set bit means a free slot, so the sweep
//!   costs one read per 64 names plus one per unlisted slot.
//!
//! The list is a hint, the slot word the truth. A popped name whose slot
//! turns out HELD carries a stale bit (a duplicate push) and is simply
//! dropped: its holder pushes it again when it frees it. Duplicate bits are
//! therefore harmless, which is what lets recovery re-list names without
//! coordinating with the list. Until a pop drops it, such a bit hides its
//! held slot from sweeps: the [`crate::recovery`] docs state that one
//! exception to "a set bit means a free slot".
//!
//! Because release and sweep compare against the exact word they observed,
//! the `HELD(g) → FREE(g)` transition of every grant happens **exactly
//! once**, no matter how a tardy releaser races a sweeper that presumed it
//! dead — the losing CAS fails harmlessly, and a re-grant bumps the
//! generation so stale CASes can never resurrect an old lease. That race is
//! exhaustively model-checked in the `mcheck` crate's `robust_sweep_2p`
//! scenario.
//!
//! **Namespace tightness.** `acquire` pops the *minimum* free name, so a
//! process granted name `m` found every name in `1..m` absent from the
//! list: held, popped by a concurrent acquirer, or freed by a releaser that
//! has not pushed it yet — each one a live operation (a name a sweep
//! reclaims belonged to a crashed holder, which counts as a contender
//! forever). Under point contention `k` the names therefore stay in
//! `1..=k`, the recycling argument that makes
//! [`Recycler`](crate::recycler::Recycler) tight.
//! `tests/lease_churn.rs` checks seeded three-process `vexec` churn
//! histories of this table with
//! [`assert_tight_lease_namespace`](crate::lease::assert_tight_lease_namespace).
//!
//! **ABA.** A generation wraps after `2³¹` grants of the same name; a CAS
//! delayed across a full wrap of one slot could misfire. At one grant per
//! microsecond that is a half-hour-long stall on one slot — accepted, like
//! every bounded-tag scheme.
//!
//! **Pid reuse and registrations.** Probing a pid with `kill(pid, 0)`
//! proves *a* process with that pid is alive — not that it is *our* owner:
//! the OS recycles pids, so a sweep keyed on raw pids can mistake a
//! stranger for a live leaseholder and leak the name forever. The table
//! therefore carries a small arena-resident **process registry**: a
//! process calls [`RobustLeaseTable::register_process`] once at attach,
//! receives a [`Registration`] whose [`Registration::tag`] packs its
//! registry slot and a start **generation**, and stamps that tag (not the
//! bare pid) into its leases. [`RobustLeaseTable::sweep_dead_processes`]
//! resolves a tag back through the registry: a generation mismatch means
//! the slot was re-registered (the original owner is gone no matter what
//! the pid now names), and only a matching registration's pid is probed
//! against the OS. Nonzero tags below `2^24` never collide with
//! registration tags and are treated as in-process (never provably dead) by
//! the OS sweep; `acquire` rejects tag `0`, and the trait path refuses
//! process ids whose `id + 1` tag would leave that range.
//!
//! **Restart recovery.** Over a file-backed arena
//! ([`shmem::arena::Arena::file_attach`]) a whole fleet can die and a
//! fresh process attach later. [`crate::recovery::recover`] arbitrates via
//! the table's recovery-epoch word (one winner per epoch), raises the
//! **admission gate** so concurrent acquirers back off instead of
//! reporting spurious exhaustion ([`crate::backoff::Backoff`]) and sweeps
//! dead owners. A claim is one CAS that writes the generation and the owner
//! together, so no kill can leave a slot held without an owner: every held
//! word names the process that claimed it. On a whole-fleet restart
//! recovery also re-lists free slots whose list bit is clear: a kill
//! between pop and claim, or between free and push, leaves exactly that.
//!
//! All shared state lives in an [`Arena`] — one cache line per slot, per
//! free-list word and per transition stripe — so the table works unchanged
//! over the process-private heap backend (tests, model checking) and the
//! `MAP_SHARED` mmap backend (the fork-based crash test in
//! `tests/crash_reclaim.rs`).

use crate::backoff::Backoff;
use crate::error::RenamingError;
use crate::free_list::FreeList;
use crate::lease::{LongLivedRenaming, NameLease};
use shmem::arena::{Arena, ArenaPod, ArenaSliceRef};
use shmem::pad::CachePadded;
use shmem::process::{ProcessCtx, ProcessId};
use shmem::register::AtomicU64Register;
use shmem::steps::StepKind;
use std::fmt;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

/// Number of low bits holding the owner tag.
const OWNER_BITS: u32 = 32;
/// Mask extracting the owner tag.
const OWNER_MASK: u64 = (1 << OWNER_BITS) - 1;
/// Bit position of the generation field.
const GEN_SHIFT: u32 = OWNER_BITS;
/// Width of the generation field (bit 63 is the held flag).
const GEN_BITS: u32 = 31;
/// Mask for a generation value (applied before shifting).
const GEN_MASK: u64 = (1 << GEN_BITS) - 1;
/// The held flag: set while the slot's name is leased out.
const HELD_BIT: u64 = 1 << 63;

/// Packs a free slot word carrying the given generation.
fn pack_free(generation: u64) -> u64 {
    (generation & GEN_MASK) << GEN_SHIFT
}

/// Packs a held slot word carrying the given generation and owner.
fn pack_held(generation: u64, owner: u32) -> u64 {
    HELD_BIT | ((generation & GEN_MASK) << GEN_SHIFT) | owner as u64
}

/// Whether the slot word is currently held.
pub(crate) fn is_held(word: u64) -> bool {
    word & HELD_BIT != 0
}

/// The generation stamped in the slot word.
fn generation(word: u64) -> u64 {
    (word >> GEN_SHIFT) & GEN_MASK
}

/// The owner tag stamped in the slot word (meaningful while held).
pub(crate) fn owner(word: u64) -> u32 {
    (word & OWNER_MASK) as u32
}

/// The successor generation, wrapping within the 31-bit field.
fn next_generation(generation: u64) -> u64 {
    generation.wrapping_add(1) & GEN_MASK
}

/// Number of transition stripes: a process bumps stripe `ctx.id() % 16`
/// after each `HELD → FREE` transition it completes, so releases by
/// processes whose ids differ modulo 16 never contend on one counter.
const TRANSITION_STRIPES: usize = 16;

/// Number of process-registration slots every table carries. Generously
/// above the fleet sizes the chaos harness and benches run; dead
/// registrations are reclaimed (with a generation bump) so long-lived
/// deployments recycle slots rather than exhausting them.
pub const REGISTRY_SLOTS: usize = 64;
/// Registry word layout: pid in the low half, start-generation above it.
const REG_GEN_SHIFT: u32 = 32;
/// Owner-tag layout: `(slot + 1)` above this shift, generation low bits.
/// `slot + 1` keeps every registration tag `>= 2^24`, disjoint from the
/// small raw tags the in-process trait path stamps (`ctx.id() + 1`).
const TAG_SLOT_SHIFT: u32 = 24;
/// Process ids the trait path accepts: `0..RAW_ID_LIMIT`, so its raw tag
/// `id + 1` is nonzero and stays below the registration tags.
const RAW_ID_LIMIT: u64 = (1 << TAG_SLOT_SHIFT) - 1;
/// Mask of the generation bits a tag can carry.
const TAG_GEN_MASK: u32 = (1 << TAG_SLOT_SHIFT) - 1;

/// How [`RobustLeaseTable::tag_status`] classifies an owner tag.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TagStatus {
    /// A small in-process tag (below `2^24`), never issued by the registry.
    /// The OS sweep cannot prove its owner dead and leaves its leases alone.
    Raw,
    /// A registration tag whose registry slot has since been re-registered
    /// (generation mismatch) or cleared: the original owner is gone.
    Stale,
    /// A current registration; the carried value is the registered OS pid.
    Registered(u32),
}

/// Proof of a process's registration with a [`RobustLeaseTable`]: the
/// registry slot it claimed, the start-generation stamped there, and the
/// pid it registered. Obtained from [`RobustLeaseTable::register_process`]
/// at attach time; [`Registration::tag`] is the owner tag to stamp into
/// every lease so sweeps can tell this incarnation from a later process
/// that recycled the same pid.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Registration {
    slot: u32,
    generation: u32,
    pid: u32,
}

impl Registration {
    /// The owner tag to pass to [`RobustLeaseTable::acquire`]: packs the
    /// registry slot and the low bits of the start-generation. Always
    /// `>= 2^24`, so it never collides with in-process raw tags.
    pub fn tag(&self) -> u32 {
        ((self.slot + 1) << TAG_SLOT_SHIFT) | (self.generation & TAG_GEN_MASK)
    }

    /// The OS pid this registration was claimed for.
    pub fn pid(&self) -> u32 {
        self.pid
    }

    /// The registry slot index claimed.
    pub fn slot(&self) -> u32 {
        self.slot
    }

    /// The start-generation stamped in the registry slot.
    pub fn generation(&self) -> u32 {
        self.generation
    }
}

/// A crash-robust lease table over arena-resident slot words.
///
/// # Example
///
/// ```
/// use adaptive_renaming::robust::RobustLeaseTable;
/// use shmem::process::{ProcessCtx, ProcessId};
///
/// let table = RobustLeaseTable::with_capacity(4);
/// let mut ctx = ProcessCtx::new(ProcessId::new(0), 1);
/// let name = table.acquire(&mut ctx, 71).unwrap();
/// assert_eq!(name, 1);
/// assert_eq!(table.holder(name), Some(71));
/// // The owner crashes; a sweep with a liveness predicate reclaims it.
/// assert_eq!(table.sweep(&mut ctx, |owner| owner == 71), 1);
/// assert_eq!(table.holder(name), None);
/// ```
pub struct RobustLeaseTable {
    arena: Arc<Arena>,
    /// Slot `i` governs name `i + 1`, one word per arena cache line; every
    /// step on it is charged at the line's [`ArenaSliceRef::loc_at`].
    slots: ArenaSliceRef<CachePadded<AtomicU64>>,
    /// The free names, popped lowest first. Pushed with
    /// [`FreeList::push_unsequenced`]: the stripes below are the seqlock.
    free: FreeList,
    /// Completed `HELD → FREE` transitions (by releasers, sweepers or
    /// recovery), striped per process and bumped after the name is pushed
    /// back. Their sum doubles as the seqlock that keeps exhaustion reports
    /// coherent: an acquire whose pop missed reports exhaustion only if the
    /// sum did not move across a second, missing pop.
    stripes: ArenaSliceRef<CachePadded<AtomicUsize>>,
    /// Admission gate: nonzero while a sweep/recovery is in flight. An
    /// acquire that would report exhaustion backs off (bounded) instead, so
    /// recovery does not surface as spurious `CapacityExceeded` to callers
    /// racing the reclamation.
    gate: AtomicU64Register,
    /// Highest recovery epoch claimed so far: `claim_recovery` CASes it
    /// upward, so exactly one recoverer wins per epoch value.
    recovered_epoch: AtomicU64Register,
    /// Process registry: [`REGISTRY_SLOTS`] packed `generation << 32 | pid`
    /// words. Registration is a cold attach-time path, so the words are
    /// dense plain atomics rather than per-line registers.
    registry: ArenaSliceRef<AtomicU64>,
    capacity: usize,
}

impl RobustLeaseTable {
    /// Creates a table of `capacity` names over a fresh process-private
    /// arena sized exactly [`RobustLeaseTable::footprint`] bytes.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn with_capacity(capacity: usize) -> Self {
        Self::with_capacity_in(&Arena::heap(Self::footprint(capacity)), capacity)
    }

    /// Creates a table of `capacity` names whose slots live in the caller's
    /// `arena` — the cross-process constructor. Allocates
    /// [`RobustLeaseTable::footprint`] arena bytes.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero or the arena runs out of space.
    /// The allocation order below is part of the cross-process contract: a
    /// process attaching to an existing file-backed arena re-runs this
    /// constructor in preserve mode and must land every word on the same
    /// offsets the creator used.
    pub fn with_capacity_in(arena: &Arc<Arena>, capacity: usize) -> Self {
        assert!(capacity > 0, "a lease table needs at least one name");
        // Zeroed words are `pack_free(0)`, the never-granted slot.
        RobustLeaseTable {
            arena: Arc::clone(arena),
            slots: arena.alloc_slice(capacity),
            free: FreeList::full_in(arena, capacity),
            stripes: arena.alloc_slice(TRANSITION_STRIPES),
            gate: AtomicU64Register::new_in(arena, 0),
            recovered_epoch: AtomicU64Register::new_in(arena, 0),
            registry: arena.alloc_slice::<AtomicU64>(REGISTRY_SLOTS),
            capacity,
        }
    }

    /// The number of arena bytes the table allocates: one 64-byte line per
    /// slot, the free list ([`FreeList::footprint`]), one line per
    /// transition stripe, one each for the admission gate and the recovery
    /// epoch, plus the dense [`REGISTRY_SLOTS`]-word process registry.
    pub fn footprint(capacity: usize) -> usize {
        capacity * 64
            + FreeList::footprint(capacity)
            + (TRANSITION_STRIPES + 2) * 64
            + REGISTRY_SLOTS * 8
    }

    /// The arena holding the table's shared state.
    pub fn arena(&self) -> &Arc<Arena> {
        &self.arena
    }

    /// The number of names the table governs.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Acquires the lowest free name for `owner`, stamping the slot with a
    /// fresh generation. In cross-process deployments the owner should be
    /// the caller's OS pid ([`shmem::arena::os_pid`]) so
    /// [`RobustLeaseTable::sweep_dead_processes`] can reclaim after a crash.
    ///
    /// Costs one free-list pop (`O(1)` expected) and one or two CASes on the
    /// popped name's slot. The first CAS guesses the never-granted word, so
    /// it takes the slot's line exclusive on first touch; when the guess
    /// misses, it returns the actual word for the second. A popped name
    /// whose slot is held carries a stale bit and is dropped for the next
    /// pop.
    ///
    /// # Panics
    ///
    /// Panics if `owner_tag` is 0: a held word must name its owner.
    ///
    /// # Errors
    ///
    /// Returns [`RenamingError::CapacityExceeded`] when every slot is held —
    /// coherently: a missing pop is repeated, and the miss reported only if
    /// no `HELD → FREE` transition completed in between (the stripe sum did
    /// not move). While the admission gate is raised (a sweep/recovery in
    /// flight), a coherent miss backs off and retries ([`Backoff`],
    /// bounded) before failing: the sweep is about to free the dead owners'
    /// names, so the exhaustion is very likely transient.
    pub fn acquire(&self, ctx: &mut ProcessCtx, owner_tag: u32) -> Result<usize, RenamingError> {
        assert!(owner_tag != 0, "owner tag 0 names no owner");
        let acquire_timer = obs::start();
        let mut backoff = Backoff::new();
        let mut stamp = None;
        loop {
            // The list's words are plain atomics; announce the pop as one
            // shared step so schedules interleave around it.
            ctx.record(StepKind::ReadModifyWrite);
            let Some(name) = self.free.pop() else {
                let now = self.transitions_seen(ctx);
                if stamp != Some(now) {
                    stamp = Some(now);
                    continue;
                }
                if !backoff.is_completed() && self.gate.read(ctx) != 0 {
                    obs::count(obs::Metric::RobustGateWait);
                    backoff.snooze();
                    continue;
                }
                return Err(RenamingError::CapacityExceeded {
                    capacity: self.capacity,
                });
            };
            if self.claim(ctx, name, owner_tag) {
                obs::count(obs::Metric::RobustAcquire);
                obs::finish(acquire_timer, obs::Metric::RobustAcquireNs);
                obs::event(obs::EventKind::LeaseGranted, name as u64, owner_tag as u64);
                return Ok(name);
            }
            obs::count(obs::Metric::RobustCasRetry);
        }
    }

    /// Claims popped `name`'s slot: `FREE(g) → HELD(g + 1, owner_tag)`.
    /// Returns `false` if the slot is held, i.e. the popped bit was stale.
    fn claim(&self, ctx: &mut ProcessCtx, name: usize, owner_tag: u32) -> bool {
        let mut expected = pack_free(0);
        loop {
            let claimed = pack_held(next_generation(generation(expected)), owner_tag);
            match self.cas_slot(ctx, name - 1, expected, claimed) {
                Ok(_) => return true,
                Err(actual) if is_held(actual) => return false,
                Err(actual) => expected = actual,
            }
        }
    }

    /// Releases a held name: the single CAS `HELD(g, owner) → FREE(g)`,
    /// then the push back onto the free list.
    /// Returns whether **this call** performed the transition — `false`
    /// means a sweeper (or an erroneous double release) got there first, in
    /// which case the call changes nothing; the transition still happened
    /// exactly once.
    ///
    /// # Panics
    ///
    /// Panics if `name` is outside `1..=capacity`.
    pub fn release(&self, ctx: &mut ProcessCtx, name: usize) -> bool {
        let index = self.index(name);
        let word = self.read_slot(ctx, index);
        if !is_held(word) {
            return false;
        }
        if self.free_observed(ctx, index, word) {
            obs::count(obs::Metric::RobustRelease);
            obs::event(obs::EventKind::LeaseReleased, name as u64, 0);
            true
        } else {
            obs::count(obs::Metric::RobustCasRetry);
            false
        }
    }

    /// Reclaims the names of dead owners: for every held slot whose owner
    /// `is_dead` declares gone, performs the same `HELD(g) → FREE(g)` CAS a
    /// release would, so a presumed-dead owner racing its own release
    /// resolves to exactly one transition. Returns the number of names
    /// reclaimed by this call.
    ///
    /// Reads only the slots the free list cannot vouch for: one step per
    /// free-list data word plus one per unlisted slot,
    /// `O(capacity / 64 + held)` rather than `O(capacity)`. A listed name's
    /// slot is free, save for the straggler exception the
    /// [`crate::recovery`] docs describe, which delays that one slot's
    /// reclamation to the sweep after a pop drops its bit.
    ///
    /// Correctness of the *namespace* (no two live holders of one name)
    /// relies on the predicate never declaring a live owner dead; the
    /// exactly-once transition holds regardless.
    pub fn sweep(&self, ctx: &mut ProcessCtx, mut is_dead: impl FnMut(u32) -> bool) -> usize {
        let mut reclaimed = 0;
        self.for_each_unlisted(ctx, |ctx, index| {
            let word = self.read_slot(ctx, index);
            if is_held(word) && is_dead(owner(word)) && self.free_observed(ctx, index, word) {
                reclaimed += 1;
                obs::count(obs::Metric::RobustSwept);
                obs::event(
                    obs::EventKind::SweepReclaimed,
                    (index + 1) as u64,
                    owner(word) as u64,
                );
            }
        });
        reclaimed
    }

    /// Calls `visit` with the slot index of every name whose free-list bit
    /// is clear, in name order: the slots the list cannot vouch for, which
    /// sweep and recovery read. Each data word
    /// ([`FreeList::word_bits`]) is loaded once and charged as one
    /// anonymous [`StepKind::RegisterRead`], like `acquire`'s pop: pushes
    /// ride on slot CASes at other locations, so a located read would hide
    /// real races from the model checker. Bits past `capacity` are masked
    /// off.
    pub(crate) fn for_each_unlisted(
        &self,
        ctx: &mut ProcessCtx,
        mut visit: impl FnMut(&mut ProcessCtx, usize),
    ) {
        for word in 0..self.capacity.div_ceil(64) {
            let base = word * 64;
            let in_range = match self.capacity - base {
                names @ 0..=63 => (1u64 << names) - 1,
                _ => u64::MAX,
            };
            ctx.record(StepKind::RegisterRead);
            let mut unlisted = !self.free.word_bits(word) & in_range;
            while unlisted != 0 {
                visit(ctx, base + unlisted.trailing_zeros() as usize);
                unlisted &= unlisted - 1;
            }
        }
    }

    /// Sweeps with the operating system as the liveness oracle — the sweep
    /// every surviving process runs after a peer crashes mid-lease over a
    /// shared arena (`tests/crash_reclaim.rs`).
    ///
    /// A held slot's owner tag is resolved through the process registry
    /// (see [`RobustLeaseTable::register_process`]):
    ///
    /// * a **stale** tag (its registry slot was re-registered since) is
    ///   dead by construction — this is the pid-reuse fix: the original
    ///   owner is gone even if *some* process now answers to its old pid;
    /// * a **registered** tag's pid is probed with
    ///   [`shmem::arena::os_process_alive`];
    /// * a **raw** in-process tag (below `2^24`, as stamped by the
    ///   [`LongLivedRenaming`] trait path) is never provably dead to the
    ///   OS and is left alone.
    ///
    /// As a postmortem hook, every distinct dead pid whose name this sweep
    /// reclaims is reported to [`obs::postmortem::notify_dead`]: if the
    /// sweeping process has a [`obs::FlightRecorder`] installed and the dead
    /// process had attached one of its rings, the dead process's last
    /// recorded events are dumped for inspection.
    #[cfg(all(unix, not(miri)))]
    pub fn sweep_dead_processes(&self, ctx: &mut ProcessCtx) -> usize {
        let mut dead_pids = Vec::new();
        let reclaimed = self.sweep(ctx, |tag| {
            self.owner_is_dead(
                tag,
                |pid| !shmem::arena::os_process_alive(pid),
                &mut dead_pids,
            )
        });
        for pid in dead_pids {
            obs::postmortem::notify_dead(pid);
        }
        reclaimed
    }

    /// Judges the owner behind `tag`, the one judgment
    /// [`RobustLeaseTable::sweep_dead_processes`] and
    /// [`recover_with`](crate::recovery::recover_with) share: a raw
    /// in-process tag is alive, a stale registration is dead, and a
    /// registered pid is dead when `is_dead_pid` says so. Each distinct dead
    /// registered pid is appended to `dead_pids`, the postmortem candidates.
    pub(crate) fn owner_is_dead(
        &self,
        tag: u32,
        mut is_dead_pid: impl FnMut(u32) -> bool,
        dead_pids: &mut Vec<u32>,
    ) -> bool {
        match self.tag_status(tag) {
            TagStatus::Raw => false,
            TagStatus::Stale => true,
            TagStatus::Registered(pid) => {
                let dead = is_dead_pid(pid);
                if dead && !dead_pids.contains(&pid) {
                    dead_pids.push(pid);
                }
                dead
            }
        }
    }

    /// Registers `pid` with the table, claiming a registry slot and a fresh
    /// start-generation; the returned [`Registration`]'s
    /// [`tag`](Registration::tag) is the owner tag this process should
    /// stamp into its leases. A slot is claimable if it is empty or already
    /// carries `pid` (re-registration bumps the generation, immediately
    /// staling the previous incarnation's leases). This variant never
    /// probes the OS, so it is deterministic under miri and the virtual
    /// executor; cross-process callers use
    /// [`RobustLeaseTable::register_current_process`], which also recycles
    /// dead processes' slots.
    ///
    /// # Errors
    ///
    /// Returns [`RenamingError::CapacityExceeded`] when no registry slot is
    /// claimable.
    pub fn register_process(&self, pid: u32) -> Result<Registration, RenamingError> {
        self.claim_registry_slot(pid, |_| false)
    }

    /// Registers the calling OS process ([`shmem::arena::os_pid`]),
    /// additionally reclaiming registry slots whose pid no longer probes
    /// alive — a restart registers over its dead predecessors. The
    /// generation bump on reclaim is what keeps this sound: the dead
    /// incarnation's leases carry the old generation and resolve as
    /// [`TagStatus::Stale`].
    #[cfg(all(unix, not(miri)))]
    pub fn register_current_process(&self) -> Result<Registration, RenamingError> {
        self.claim_registry_slot(shmem::arena::os_pid(), |pid| {
            !shmem::arena::os_process_alive(pid)
        })
    }

    fn claim_registry_slot(
        &self,
        pid: u32,
        mut reclaimable: impl FnMut(u32) -> bool,
    ) -> Result<Registration, RenamingError> {
        assert!(pid != 0, "pid 0 is the registry's empty-slot marker");
        for (index, word) in self.registry.iter().enumerate() {
            let mut seen = word.load(Ordering::SeqCst);
            loop {
                let (old_pid, old_gen) = (seen as u32, (seen >> REG_GEN_SHIFT) as u32);
                if old_pid != 0 && old_pid != pid && !reclaimable(old_pid) {
                    break; // occupied by a live stranger; next slot
                }
                // Skip generations whose low tag bits are zero, so every
                // issued tag carries nonzero generation bits.
                let mut generation = old_gen.wrapping_add(1);
                if generation & TAG_GEN_MASK == 0 {
                    generation = generation.wrapping_add(1);
                }
                let claimed = ((generation as u64) << REG_GEN_SHIFT) | pid as u64;
                match word.compare_exchange(seen, claimed, Ordering::SeqCst, Ordering::SeqCst) {
                    Ok(_) => {
                        return Ok(Registration {
                            slot: index as u32,
                            generation,
                            pid,
                        })
                    }
                    Err(actual) => seen = actual, // re-judge the slot
                }
            }
        }
        Err(RenamingError::CapacityExceeded {
            capacity: REGISTRY_SLOTS,
        })
    }

    /// Classifies an owner tag against the current registry (see
    /// [`TagStatus`]).
    pub fn tag_status(&self, tag: u32) -> TagStatus {
        let slot = (tag >> TAG_SLOT_SHIFT) as usize;
        if slot == 0 {
            return TagStatus::Raw;
        }
        let Some(word) = self.registry.get(slot - 1) else {
            return TagStatus::Stale; // beyond REGISTRY_SLOTS: never issued
        };
        let current = word.load(Ordering::SeqCst);
        let (pid, generation) = (current as u32, (current >> REG_GEN_SHIFT) as u32);
        if pid != 0 && generation & TAG_GEN_MASK == tag & TAG_GEN_MASK {
            TagStatus::Registered(pid)
        } else {
            TagStatus::Stale
        }
    }

    /// The registered pid a tag currently resolves to, if any.
    pub fn resolve_tag(&self, tag: u32) -> Option<u32> {
        match self.tag_status(tag) {
            TagStatus::Registered(pid) => Some(pid),
            _ => None,
        }
    }

    /// The OS pid behind a held name's owner tag (harness/test inspection):
    /// `None` if the name is free or its tag does not resolve to a current
    /// registration.
    pub fn owner_pid(&self, name: usize) -> Option<u32> {
        self.holder(name).and_then(|tag| self.resolve_tag(tag))
    }

    /// All current registrations, as `(registration, pid)`-bearing
    /// [`Registration`] values (harness/restart inspection).
    pub fn registrations(&self) -> Vec<Registration> {
        self.registry
            .iter()
            .enumerate()
            .filter_map(|(index, word)| {
                let current = word.load(Ordering::SeqCst);
                let pid = current as u32;
                (pid != 0).then_some(Registration {
                    slot: index as u32,
                    generation: (current >> REG_GEN_SHIFT) as u32,
                    pid,
                })
            })
            .collect()
    }

    /// Whether no registered process probes alive — the restart signature:
    /// after a whole-fleet kill every registry pid is dead, which licenses
    /// recovery to presume every held slot's owner gone. (A table nobody
    /// ever registered with also reports `true`; cross-process deployments
    /// must register before acquiring for restart detection to be sound.)
    #[cfg(all(unix, not(miri)))]
    pub fn no_registered_survivors(&self) -> bool {
        self.registrations()
            .iter()
            .all(|registration| !shmem::arena::os_process_alive(registration.pid()))
    }

    /// Raises the admission gate: until released, acquirers that find the
    /// table exhausted back off and retry instead of failing. Called by
    /// recovery around its reclamation scan.
    pub fn hold_admissions(&self, ctx: &mut ProcessCtx) {
        self.gate.write(ctx, 1);
    }

    /// Lowers the admission gate.
    pub fn release_admissions(&self, ctx: &mut ProcessCtx) {
        self.gate.write(ctx, 0);
    }

    /// Whether the admission gate is currently raised (inspection).
    pub fn admissions_gated(&self) -> bool {
        self.gate.peek() != 0
    }

    /// Claims the right to run recovery for `epoch`: CASes the recovery
    /// epoch upward and returns whether **this caller** won. Exactly one
    /// claimant wins per epoch value, so two attachers racing `recover`
    /// with the same epoch serialize to one effective run (the loser
    /// returns immediately — recovery is idempotent, so it has nothing to
    /// wait for).
    pub fn claim_recovery(&self, ctx: &mut ProcessCtx, epoch: u64) -> bool {
        let mut seen = self.recovered_epoch.read(ctx);
        loop {
            if seen >= epoch {
                return false;
            }
            match self.recovered_epoch.compare_and_swap(ctx, seen, epoch) {
                Ok(_) => return true,
                Err(actual) => seen = actual,
            }
        }
    }

    /// The highest recovery epoch claimed so far (inspection).
    pub fn last_recovered_epoch(&self) -> u64 {
        self.recovered_epoch.peek()
    }

    /// Injects a torn pop — the lowest free name popped but never claimed,
    /// the state a kill between `acquire`'s pop and its slot CAS leaves
    /// behind: the slot is free, its list bit clear. Chaos-harness fault
    /// hook; returns the name, or `None` if the list was empty.
    pub fn inject_torn_pop(&self, ctx: &mut ProcessCtx) -> Option<usize> {
        ctx.record(StepKind::ReadModifyWrite);
        self.free.pop()
    }

    /// Injects a torn free — `HELD(g) → FREE(g)` with no push and no
    /// transition count, the state a kill between a release's CAS and its
    /// push leaves behind. Chaos-harness fault hook; returns whether the
    /// injection landed (the name was held).
    pub fn inject_torn_free(&self, ctx: &mut ProcessCtx, name: usize) -> bool {
        let index = self.index(name);
        let word = self.read_slot(ctx, index);
        is_held(word)
            && self
                .cas_slot(ctx, index, word, pack_free(generation(word)))
                .is_ok()
    }

    /// A flat copy of the table's observable lease state — every slot word,
    /// the transition count and the free list's words
    /// ([`FreeList::snapshot_words`]). Two snapshots being equal
    /// means the namespaces are byte-identical; the recovery idempotence
    /// tests pin `recover ∘ recover = recover` with it. (The recovery epoch
    /// itself is deliberately excluded: it is arbitration state, not lease
    /// state.)
    pub fn state_snapshot(&self) -> Vec<u64> {
        self.slots
            .iter()
            .map(|slot| slot.load(Ordering::SeqCst))
            .chain(std::iter::once(self.transitions() as u64))
            .chain(self.free.snapshot_words())
            .collect()
    }

    /// Reads slot `index` (name `index + 1`) as one read step.
    pub(crate) fn read_slot(&self, ctx: &mut ProcessCtx, index: usize) -> u64 {
        charged(ctx, StepKind::RegisterRead, &self.slots, index).load(Ordering::SeqCst)
    }

    /// CASes slot `index` as one read-modify-write step. Returns
    /// `Ok(previous)` or `Err(actual)`.
    fn cas_slot(
        &self,
        ctx: &mut ProcessCtx,
        index: usize,
        expected: u64,
        new: u64,
    ) -> Result<u64, u64> {
        charged(ctx, StepKind::ReadModifyWrite, &self.slots, index).compare_exchange(
            expected,
            new,
            Ordering::SeqCst,
            Ordering::SeqCst,
        )
    }

    /// The `HELD(g) → FREE(g)` CAS of slot `index` against the exact held
    /// word `observed` — the one transition release, sweep and recovery
    /// share — followed on success by [`Self::note_transition`]. Returns
    /// whether this call performed the transition.
    pub(crate) fn free_observed(&self, ctx: &mut ProcessCtx, index: usize, observed: u64) -> bool {
        let freed = self
            .cas_slot(ctx, index, observed, pack_free(generation(observed)))
            .is_ok();
        if freed {
            self.note_transition(ctx, index + 1);
        }
        freed
    }

    /// The table's free list (same-crate only: recovery repairs and
    /// re-lists it).
    pub(crate) fn free_list(&self) -> &FreeList {
        &self.free
    }

    /// Finishes a `HELD → FREE` transition of `name` that the caller's CAS
    /// just performed: pushes the name back, then bumps the caller's
    /// transition stripe. The bump comes last, so a seqlock reader that
    /// sees it also sees the pushed bit.
    ///
    /// The push announces no step of its own: like
    /// [`Recycler`](crate::recycler::Recycler)'s pushes, it rides on the
    /// caller's CAS step. Every pop is announced as an anonymous step,
    /// which conflicts with all others, so schedules still order each pop
    /// against every push.
    fn note_transition(&self, ctx: &mut ProcessCtx, name: usize) {
        self.free.push_unsequenced(name);
        let stripe = ctx.id().as_usize() % TRANSITION_STRIPES;
        charged(ctx, StepKind::ReadModifyWrite, &self.stripes, stripe)
            .fetch_add(1, Ordering::SeqCst);
    }

    /// The stripe sum as read, one stripe at a time, by `ctx`: the acquire's
    /// coherent-miss seqlock.
    fn transitions_seen(&self, ctx: &mut ProcessCtx) -> usize {
        (0..TRANSITION_STRIPES)
            .map(|stripe| {
                charged(ctx, StepKind::RegisterRead, &self.stripes, stripe).load(Ordering::SeqCst)
            })
            .sum()
    }

    /// The owner of a held name, or `None` if the name is free
    /// (harness/test inspection only, never from algorithm code).
    pub fn holder(&self, name: usize) -> Option<u32> {
        let word = self.peek_slot(name);
        is_held(word).then(|| owner(word))
    }

    /// The generation stamped on a name's slot (harness/test inspection).
    pub fn generation_of(&self, name: usize) -> u64 {
        generation(self.peek_slot(name))
    }

    /// The number of completed `HELD → FREE` transitions, by releasers and
    /// sweepers combined (harness/test inspection). Exactly-once means this
    /// equals the number of completed grants at any quiescent point.
    pub fn transitions(&self) -> usize {
        self.stripes
            .iter()
            .map(|stripe| stripe.load(Ordering::SeqCst))
            .sum()
    }

    /// The number of names currently on the free list (inspection). Stale
    /// bits of held slots count too, so this can exceed the free slots.
    pub fn listed(&self) -> usize {
        self.free.len()
    }

    /// The slot index of `name`.
    fn index(&self, name: usize) -> usize {
        assert!(
            (1..=self.capacity).contains(&name),
            "name {name} outside the table's 1..={} namespace",
            self.capacity
        );
        name - 1
    }

    /// A name's slot word, read without charging a step (inspection).
    fn peek_slot(&self, name: usize) -> u64 {
        self.slots[self.index(name)].load(Ordering::SeqCst)
    }
}

/// Charges one `kind` step at word `index` of `words`, then hands out the
/// word for the access the step stands for — the step is recorded first, as
/// the `shmem::register` types do, so schedules interleave before it.
fn charged<'a, T: ArenaPod>(
    ctx: &mut ProcessCtx,
    kind: StepKind,
    words: &'a ArenaSliceRef<CachePadded<T>>,
    index: usize,
) -> &'a T {
    ctx.record_at(kind, words.loc_at(index));
    &words[index]
}

impl LongLivedRenaming for RobustLeaseTable {
    fn lease(self: Arc<Self>, ctx: &mut ProcessCtx) -> Result<NameLease, RenamingError> {
        let name = self.lease_raw(ctx)?;
        Ok(NameLease::new(name, self))
    }

    /// The trait path stamps ownership with the simulated process identity
    /// as the raw tag `ctx.id() + 1`; cross-process callers use
    /// [`RobustLeaseTable::acquire`] directly with a registration tag.
    ///
    /// # Errors
    ///
    /// Returns [`RenamingError::IdentifierOutOfRange`] for a process id of
    /// `2^24 − 1` or more, whose tag would be 0 or would alias a
    /// registration tag (which sweeps may judge stale), and
    /// [`RenamingError::CapacityExceeded`] as [`RobustLeaseTable::acquire`].
    fn lease_raw(&self, ctx: &mut ProcessCtx) -> Result<usize, RenamingError> {
        let id = ctx.id().as_u64();
        if id >= RAW_ID_LIMIT {
            return Err(RenamingError::IdentifierOutOfRange {
                identifier: ctx.id().as_usize(),
                namespace: RAW_ID_LIMIT as usize,
            });
        }
        self.acquire(ctx, id as u32 + 1)
    }

    fn release_raw(&self, name: usize) {
        // The raw path has no caller context to charge; release through an
        // ephemeral one (step accounting lands nowhere, exactly like the
        // other recyclers' unaccounted release paths).
        let mut ctx = ProcessCtx::new(ProcessId::new(0), 0);
        self.release(&mut ctx, name);
    }

    /// Releases through the caller's `ctx`, so the slot read, the CAS and
    /// the transition-stripe bump are charged to the caller, scheduled as
    /// its steps, subject to its crash plan and striped by its identity;
    /// then records the one [`StepKind::Release`] step.
    fn release_with(&self, ctx: &mut ProcessCtx, name: usize) {
        self.release(ctx, name);
        ctx.record(StepKind::Release);
    }

    fn max_concurrent(&self) -> Option<usize> {
        Some(self.capacity)
    }

    fn live_leases(&self) -> usize {
        self.slots
            .iter()
            .filter(|slot| is_held(slot.load(Ordering::SeqCst)))
            .count()
    }
}

impl fmt::Debug for RobustLeaseTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RobustLeaseTable")
            .field("capacity", &self.capacity)
            .field("live", &self.live_leases())
            .field("transitions", &self.transitions())
            .field("backend", &self.arena.backend())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx(id: usize) -> ProcessCtx {
        ProcessCtx::new(ProcessId::new(id), 17)
    }

    #[test]
    fn slot_words_pack_and_unpack() {
        for (g, o) in [(0u64, 0u32), (1, 71), (GEN_MASK, u32::MAX)] {
            let free = pack_free(g);
            assert!(!is_held(free));
            assert_eq!(generation(free), g);
            let held = pack_held(g, o);
            assert!(is_held(held));
            assert_eq!(generation(held), g);
            assert_eq!(owner(held), o);
        }
        assert_eq!(next_generation(GEN_MASK), 0, "generations wrap in-field");
        assert_eq!(
            pack_free(GEN_MASK) & HELD_BIT,
            0,
            "gen never leaks into the flag"
        );
    }

    #[test]
    fn acquire_grants_lowest_free_names_and_bumps_generations() {
        let table = RobustLeaseTable::with_capacity(3);
        let mut ctx = ctx(0);
        assert_eq!(table.acquire(&mut ctx, 7).unwrap(), 1);
        assert_eq!(table.acquire(&mut ctx, 7).unwrap(), 2);
        assert_eq!(table.holder(1), Some(7));
        assert_eq!(table.generation_of(1), 1);
        assert!(table.release(&mut ctx, 1));
        assert_eq!(table.holder(1), None);
        // The freed minimum is reused, with a bumped generation.
        assert_eq!(table.acquire(&mut ctx, 9).unwrap(), 1);
        assert_eq!(table.generation_of(1), 2);
        assert_eq!(table.holder(1), Some(9));
    }

    #[test]
    fn exhaustion_is_reported_and_recovers() {
        let table = RobustLeaseTable::with_capacity(2);
        let mut ctx = ctx(0);
        table.acquire(&mut ctx, 1).unwrap();
        table.acquire(&mut ctx, 1).unwrap();
        assert!(matches!(
            table.acquire(&mut ctx, 1),
            Err(RenamingError::CapacityExceeded { capacity: 2 })
        ));
        assert!(table.release(&mut ctx, 2));
        assert_eq!(table.acquire(&mut ctx, 1).unwrap(), 2);
    }

    #[test]
    fn release_is_exactly_once() {
        let table = RobustLeaseTable::with_capacity(2);
        let mut ctx = ctx(0);
        let name = table.acquire(&mut ctx, 3).unwrap();
        assert!(table.release(&mut ctx, name));
        assert!(!table.release(&mut ctx, name), "double release is a no-op");
        assert_eq!(table.transitions(), 1);
    }

    #[test]
    fn sweep_reclaims_dead_owners_only() {
        let table = RobustLeaseTable::with_capacity(4);
        let mut ctx = ctx(0);
        let dead = table.acquire(&mut ctx, 100).unwrap();
        let live = table.acquire(&mut ctx, 200).unwrap();
        assert_eq!(table.sweep(&mut ctx, |o| o == 100), 1);
        assert_eq!(table.holder(dead), None);
        assert_eq!(table.holder(live), Some(200));
        // The reclaimed minimum is immediately grantable again.
        assert_eq!(table.acquire(&mut ctx, 300).unwrap(), dead);
        // A second sweep for the same owner finds nothing.
        assert_eq!(table.sweep(&mut ctx, |o| o == 100), 0);
        assert_eq!(table.transitions(), 1);
    }

    /// The sweep loads each free-list data word once and reads only the
    /// slots whose bit is clear: here the `capacity / 64` held names, one
    /// per word. A full slot scan would read all `capacity` slots.
    #[test]
    fn a_sweep_reads_one_word_per_64_names_and_only_held_slots() {
        let capacity = if cfg!(miri) { 256 } else { 4096 };
        let table = RobustLeaseTable::with_capacity(capacity);
        let mut ctx = ctx(0);
        for name in 1..=capacity {
            assert_eq!(table.acquire(&mut ctx, 9).unwrap(), name);
        }
        for name in (1..=capacity).filter(|name| name % 64 != 7) {
            assert!(table.release(&mut ctx, name));
        }
        let held = capacity / 64;

        let before = ctx.stats();
        assert_eq!(table.sweep(&mut ctx, |owner| owner == 9), held);
        let after = ctx.stats();
        assert_eq!(
            after.reads - before.reads,
            (capacity / 64 + held) as u64,
            "one read per data word, one per held slot"
        );
        assert_eq!(
            after.rmws - before.rmws,
            (2 * held) as u64,
            "a CAS and a stripe bump per reclaimed name"
        );
        assert_eq!(table.listed(), capacity);
    }

    /// The one exception to "a set bit means a free slot": recovery
    /// re-lists a name a presumed-dead straggler popped, and the straggler
    /// then claims it. Scans skip the held slot until a pop drops the stale
    /// bit; the scan after that reclaims it.
    #[test]
    fn a_straggler_claim_behind_a_relisted_bit_is_reclaimed_after_a_pop() {
        let table = RobustLeaseTable::with_capacity(1);
        let mut ctx = ctx(0);
        let recover = |ctx: &mut ProcessCtx, epoch| {
            crate::recovery::recover_with(ctx, &table, &[], epoch, |_| true, true)
        };

        // 1. The straggler pops name 1 and stalls before its claim.
        assert_eq!(table.inject_torn_pop(&mut ctx), Some(1));
        // 2. A whole-fleet recovery finds the slot free and unlisted.
        let first = recover(&mut ctx, 1);
        assert_eq!((first.reclaimed, first.relisted), (0, 1));
        // 3. The straggler wakes and claims: held, with its bit set.
        assert!(table.claim(&mut ctx, 1, 5));
        assert_eq!((table.holder(1), table.listed()), (Some(5), 1));
        // 4. The set bit hides the held slot from the next scan.
        assert_eq!(recover(&mut ctx, 2).reclaimed, 0);
        assert_eq!(table.sweep(&mut ctx, |_| true), 0);
        // 5. A pop finds the slot held and drops the stale name.
        assert!(table.acquire(&mut ctx, 6).is_err());
        assert_eq!((table.holder(1), table.listed()), (Some(5), 0));
        // 6. The next scan reads the slot and reclaims it.
        assert_eq!(recover(&mut ctx, 3).reclaimed, 1);
        assert_eq!(table.acquire(&mut ctx, 6).unwrap(), 1);
    }

    #[test]
    fn tardy_release_after_a_sweep_cannot_free_the_regrant() {
        // The ABA guard: sweep frees HELD(g), a new grant takes the slot at
        // g+1; the tardy owner's release must fail against the regrant.
        let table = RobustLeaseTable::with_capacity(1);
        let mut ctx = ctx(0);
        let name = table.acquire(&mut ctx, 1).unwrap();
        assert_eq!(table.sweep(&mut ctx, |_| true), 1);
        assert_eq!(table.acquire(&mut ctx, 2).unwrap(), name);
        // A release targeting the regrant *would* free it (release checks
        // the held flag, not the caller's identity) — but the slot the
        // tardy releaser observed carried generation 1, and a CAS against
        // that stale word fails. Simulate it at the packing level:
        assert_ne!(
            pack_held(1, 1),
            table.peek_slot(name),
            "the regrant's word differs, so the stale CAS cannot apply"
        );
        assert_eq!(table.generation_of(name), 2);
    }

    #[test]
    fn a_popped_name_whose_slot_is_held_is_dropped() {
        let table = RobustLeaseTable::with_capacity(3);
        let mut ctx = ctx(0);
        assert_eq!(table.acquire(&mut ctx, 7).unwrap(), 1);
        // A duplicate push leaves a stale bit for a held name.
        assert!(table.free_list().push_unsequenced(1));
        assert_eq!(table.listed(), 3);
        // The pop finds name 1 held, drops the bit and pops again.
        assert_eq!(table.acquire(&mut ctx, 8).unwrap(), 2);
        assert_eq!(table.holder(1), Some(7), "the holder is untouched");
        assert_eq!(table.listed(), 1);
        // The holder's release lists the name again, exactly once.
        assert!(table.release(&mut ctx, 1));
        assert_eq!(table.acquire(&mut ctx, 9).unwrap(), 1);
        assert_eq!(table.acquire(&mut ctx, 9).unwrap(), 3);
        assert!(table.acquire(&mut ctx, 9).is_err());
    }

    #[test]
    fn steps_per_grant_do_not_grow_with_live_leases() {
        // The §1 baseline scans from name 1: its reads grow with the live
        // leases. A pop-min grant costs the same steps at any occupancy.
        let table = RobustLeaseTable::with_capacity(1024);
        let mut ctx = ctx(0);
        let counted_grant = |ctx: &mut ProcessCtx| {
            let before = ctx.stats().total_all();
            let name = table.acquire(ctx, 1).unwrap();
            (ctx.stats().total_all() - before, name)
        };
        for live in [0, 10, 1000] {
            while table.live_leases() < live {
                table.acquire(&mut ctx, 1).unwrap();
            }
            let (first, name) = counted_grant(&mut ctx);
            assert_eq!(first, 2, "live {live}: pop, then one CAS on a fresh slot");
            table.release(&mut ctx, name);
            let (again, regranted) = counted_grant(&mut ctx);
            assert_eq!(regranted, name);
            assert_eq!(again, 3, "live {live}: pop, guessing CAS, claiming CAS");
            table.release(&mut ctx, name);
        }
    }

    /// Re-running the constructor over an attached file arena keeps the
    /// surviving free list instead of refilling it.
    #[test]
    #[cfg(all(unix, not(miri)))]
    fn attaching_preserves_the_free_list() {
        let path = std::env::temp_dir().join(format!("robust_attach_{}.arena", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let bytes = RobustLeaseTable::footprint(8);
        {
            let arena = Arena::file_create(&path, bytes).unwrap();
            let table = RobustLeaseTable::with_capacity_in(&arena, 8);
            let mut ctx = ctx(0);
            for expected in 1..=3 {
                assert_eq!(table.acquire(&mut ctx, 5).unwrap(), expected);
            }
            assert!(table.release(&mut ctx, 2));
        }
        let arena = Arena::file_attach(&path).unwrap();
        let table = RobustLeaseTable::with_capacity_in(&arena, 8);
        assert_eq!(table.listed(), 6, "names 2 and 4..=8");
        let mut ctx = ctx(1);
        assert_eq!(table.acquire(&mut ctx, 6).unwrap(), 2);
        assert_eq!(table.acquire(&mut ctx, 6).unwrap(), 4);
        assert_eq!(table.holder(1), Some(5));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn arena_backed_table_has_an_exact_footprint() {
        let arena = Arena::heap(RobustLeaseTable::footprint(8));
        let table = RobustLeaseTable::with_capacity_in(&arena, 8);
        assert_eq!(arena.remaining(), 0, "footprint is exact");
        let mut ctx = ctx(0);
        assert_eq!(table.acquire(&mut ctx, 5).unwrap(), 1);
        assert_eq!(table.live_leases(), 1);
    }

    #[test]
    fn the_long_lived_trait_surface_works() {
        let table: Arc<dyn LongLivedRenaming> = Arc::new(RobustLeaseTable::with_capacity(4));
        assert_eq!(table.max_concurrent(), Some(4));
        let mut ctx = ctx(6);
        let lease = Arc::clone(&table).lease(&mut ctx).unwrap();
        assert_eq!(lease.name(), 1);
        assert_eq!(table.live_leases(), 1);
        drop(lease);
        assert_eq!(table.live_leases(), 0);
        let raw = table.lease_raw(&mut ctx).unwrap();
        table.release_raw(raw);
        assert_eq!(table.live_leases(), 0);
    }

    #[test]
    fn a_guard_release_is_charged_to_the_callers_context() {
        let table = Arc::new(RobustLeaseTable::with_capacity(4));
        let mut ctx = ctx(3);
        let lease = (Arc::clone(&table) as Arc<dyn LongLivedRenaming>)
            .lease(&mut ctx)
            .unwrap();
        let before = ctx.stats();
        lease.release(&mut ctx);
        let after = ctx.stats();
        assert_eq!(after.reads - before.reads, 1, "the slot read");
        assert_eq!(after.rmws - before.rmws, 2, "the CAS and the stripe bump");
        assert_eq!(after.releases - before.releases, 1);
        assert_eq!(table.live_leases(), 0);
        assert_eq!(table.transitions(), 1);
        assert_eq!(
            table.stripes[3].load(Ordering::SeqCst),
            1,
            "the caller's own stripe"
        );
    }

    #[test]
    #[should_panic(expected = "owner tag 0")]
    fn acquire_rejects_owner_tag_zero() {
        let _ = RobustLeaseTable::with_capacity(1).acquire(&mut ctx(0), 0);
    }

    #[test]
    fn trait_path_tags_stay_nonzero_and_below_registration_tags() {
        let table = RobustLeaseTable::with_capacity(2);
        // Id u32::MAX would stamp tag 0; id 2^24 − 1 would stamp a tag that
        // reads as registry slot 0, a stale registration sweeps reclaim.
        for id in [RAW_ID_LIMIT as usize, u32::MAX as usize] {
            assert_eq!(
                table.lease_raw(&mut ctx(id)),
                Err(RenamingError::IdentifierOutOfRange {
                    identifier: id,
                    namespace: RAW_ID_LIMIT as usize,
                })
            );
        }
        assert_eq!(table.live_leases(), 0);

        // The largest accepted id stamps the largest raw tag: a live
        // in-process lease that neither sweep nor a recovery with
        // survivors may take.
        let mut ctx = ctx(RAW_ID_LIMIT as usize - 1);
        let name = table.lease_raw(&mut ctx).unwrap();
        let tag = (1 << TAG_SLOT_SHIFT) - 1;
        assert_eq!(table.holder(name), Some(tag));
        assert_eq!(table.tag_status(tag), TagStatus::Raw);
        #[cfg(all(unix, not(miri)))]
        assert_eq!(table.sweep_dead_processes(&mut ctx), 0);
        let report = crate::recovery::recover_with(&mut ctx, &table, &[], 1, |_| false, false);
        assert!(report.won);
        assert_eq!(report.reclaimed, 0);
        assert_eq!(table.holder(name), Some(tag));
    }

    #[test]
    fn registration_tags_are_disjoint_from_raw_tags_and_stale_out() {
        let table = RobustLeaseTable::with_capacity(4);
        let first = table.register_process(500).unwrap();
        assert!(
            first.tag() >= 1 << TAG_SLOT_SHIFT,
            "registration tags live above the raw-tag range"
        );
        assert_eq!(table.tag_status(7), TagStatus::Raw);
        assert_eq!(table.tag_status(first.tag()), TagStatus::Registered(500));
        assert_eq!(table.resolve_tag(first.tag()), Some(500));

        // Re-registering the same pid reuses the slot with a bumped
        // generation: the first incarnation's tag goes stale.
        let second = table.register_process(500).unwrap();
        assert_eq!(second.slot(), first.slot());
        assert_ne!(second.tag(), first.tag());
        assert_eq!(table.tag_status(first.tag()), TagStatus::Stale);
        assert_eq!(table.tag_status(second.tag()), TagStatus::Registered(500));

        // A tag fabricated for a never-issued slot is stale, not a panic.
        let bogus = ((REGISTRY_SLOTS as u32) + 5) << TAG_SLOT_SHIFT;
        assert_eq!(table.tag_status(bogus), TagStatus::Stale);
    }

    #[test]
    fn registry_exhaustion_is_reported() {
        let table = RobustLeaseTable::with_capacity(1);
        for pid in 1..=REGISTRY_SLOTS as u32 {
            table.register_process(pid).unwrap();
        }
        assert!(matches!(
            table.register_process(9999),
            Err(RenamingError::CapacityExceeded { capacity }) if capacity == REGISTRY_SLOTS
        ));
    }

    /// The pid-reuse regression: `kill(pid, 0)` succeeding proves *a*
    /// process with that pid is alive, not *our* owner. Simulate the
    /// recycled-pid scenario with this test's own (certainly alive) pid:
    /// the dead incarnation's lease must be reclaimed anyway, because its
    /// registration generation no longer matches.
    #[test]
    #[cfg(all(unix, not(miri)))]
    fn sweep_is_not_fooled_by_a_recycled_pid() {
        let alive_pid = shmem::arena::os_pid();
        let table = RobustLeaseTable::with_capacity(4);
        let mut ctx = ctx(0);

        // Incarnation one registers, leases, and "crashes"; the OS then
        // hands its pid to a new process, which registers over the slot.
        let dead_incarnation = table.register_process(alive_pid).unwrap();
        let orphaned = table.acquire(&mut ctx, dead_incarnation.tag()).unwrap();
        let new_incarnation = table.register_process(alive_pid).unwrap();
        let live_name = table.acquire(&mut ctx, new_incarnation.tag()).unwrap();

        // The pid probes alive — a raw-pid sweep would leak `orphaned`
        // forever. The generation check reclaims it and keeps `live_name`.
        assert!(shmem::arena::os_process_alive(alive_pid));
        assert_eq!(table.sweep_dead_processes(&mut ctx), 1);
        assert_eq!(table.holder(orphaned), None);
        assert_eq!(table.holder(live_name), Some(new_incarnation.tag()));
        assert_eq!(table.owner_pid(live_name), Some(alive_pid));

        // Raw in-process tags are left alone: the OS cannot prove them dead.
        let raw = table.acquire(&mut ctx, 3).unwrap();
        assert_eq!(table.sweep_dead_processes(&mut ctx), 0);
        assert_eq!(table.holder(raw), Some(3));
    }

    #[test]
    #[cfg(all(unix, not(miri)))]
    fn register_current_process_recycles_dead_registrations() {
        let table = RobustLeaseTable::with_capacity(2);
        // Fill the registry with pids that cannot be alive (beyond pid_max
        // is unprobeable; use distinct large u32 values — `kill` rejects
        // them with ESRCH, which os_process_alive reports as dead).
        for pid in 0..REGISTRY_SLOTS as u32 {
            table.register_process(0x7000_0000 + pid).unwrap();
        }
        // A full registry of corpses still admits the living.
        let mine = table.register_current_process().unwrap();
        assert_eq!(mine.pid(), shmem::arena::os_pid());
        assert_eq!(
            table.tag_status(mine.tag()),
            TagStatus::Registered(mine.pid())
        );
    }

    #[test]
    fn a_raised_gate_bounds_exhaustion_retries_instead_of_hanging() {
        let table = RobustLeaseTable::with_capacity(1);
        let mut ctx = ctx(0);
        table.acquire(&mut ctx, 1).unwrap();
        table.hold_admissions(&mut ctx);
        assert!(table.admissions_gated());
        // Nobody will release: the bounded backoff must expire into the
        // ordinary capacity error, not spin forever.
        assert!(matches!(
            table.acquire(&mut ctx, 2),
            Err(RenamingError::CapacityExceeded { capacity: 1 })
        ));
        table.release_admissions(&mut ctx);
        assert!(!table.admissions_gated());
    }

    #[test]
    fn a_release_during_a_gated_wait_is_picked_up() {
        // The gate's purpose: an acquirer that would have failed keeps
        // popping while recovery frees capacity under it.
        let table = Arc::new(RobustLeaseTable::with_capacity(1));
        let mut ctx = ctx(0);
        let name = table.acquire(&mut ctx, 1).unwrap();
        table.hold_admissions(&mut ctx);
        let releaser = {
            let table = Arc::clone(&table);
            std::thread::spawn(move || {
                let mut ctx = ProcessCtx::new(ProcessId::new(1), 5);
                table.release(&mut ctx, name);
                table.release_admissions(&mut ctx);
            })
        };
        // Whether the release lands between two missing pops (the seqlock
        // moves) or during a gated snooze, the acquire must eventually succeed
        // once the releaser has run; retry across backoff expiries so the
        // test is schedule-independent.
        let granted = loop {
            match table.acquire(&mut ctx, 2) {
                Ok(granted) => break granted,
                Err(_) => std::thread::yield_now(),
            }
        };
        releaser.join().unwrap();
        assert_eq!(granted, name);
        assert_eq!(table.holder(name), Some(2));
    }

    #[test]
    fn concurrent_churn_with_a_lying_sweeper_transitions_exactly_once() {
        // Threads churn acquire/release while a sweeper declares everyone
        // dead: every grant's HELD → FREE transition must happen exactly
        // once no matter who performs it.
        let threads = 4usize;
        let cycles = if cfg!(miri) { 10 } else { 300 };
        let table = Arc::new(RobustLeaseTable::with_capacity(threads));
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let sweeper = {
            let table = Arc::clone(&table);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut ctx = ctx(99);
                let mut swept = 0usize;
                while !stop.load(std::sync::atomic::Ordering::SeqCst) {
                    swept += table.sweep(&mut ctx, |_| true);
                }
                swept
            })
        };
        let workers: Vec<_> = (0..threads)
            .map(|t| {
                let table = Arc::clone(&table);
                std::thread::spawn(move || {
                    let mut ctx = ctx(t);
                    let mut granted = 0usize;
                    for _ in 0..cycles {
                        if let Ok(name) = table.acquire(&mut ctx, t as u32 + 1) {
                            granted += 1;
                            table.release(&mut ctx, name);
                        }
                    }
                    granted
                })
            })
            .collect();
        let granted: usize = workers.into_iter().map(|w| w.join().unwrap()).sum();
        stop.store(true, std::sync::atomic::Ordering::SeqCst);
        let swept = sweeper.join().unwrap();
        // Quiescent now: every grant was freed by exactly one transition.
        assert_eq!(table.live_leases(), 0);
        assert_eq!(table.transitions(), granted);
        assert!(swept <= granted);
    }
}
