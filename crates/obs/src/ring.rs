//! The flight recorder: per-process event rings that survive crashes.
//!
//! A [`FlightRecorder`] is an arena-resident array of single-writer event
//! rings, one per process. Each ring is a header line (a seqlock word and
//! the writer's OS pid) followed by `capacity` fixed-size event slots of
//! [`EVENT_WORDS`] atomic words each. Writing an event is one seqlock
//! entry bump, four word stores into the slot the cursor selects, and one
//! exit bump — the cursor *is* the seqlock (`sequence / 2` counts completed
//! events), so a reader can always tell how much of the ring is real and
//! whether the write it overlapped was in flight.
//!
//! Because the words live in a shared [`Arena`], a child SIGKILLed
//! mid-operation leaves its ring intact in the mapping: the surviving
//! parent reads the tail — the dead process's last moments — and renders it
//! as a postmortem ([`FlightRecorder::postmortem`], hooked into
//! `RobustLeaseTable::sweep_dead_processes` via
//! [`crate::postmortem`]). A ring whose writer died *inside* the seqlock
//! window is still readable: the reader's bounded retry gives up and
//! returns the snapshot with every event marked [`Event::torn`], which the
//! postmortem renders honestly.
//!
//! The `*_vis` variants thread a [`ProcessCtx`] through every shared word
//! access (one [`StepKind`] record with the word's arena-derived
//! [`Loc`](shmem::vexec::Loc) each), which is what lets the `mcheck`
//! explorer drive the writer/reader race schedule by schedule
//! (`obs_ring_2p`).

use shmem::arena::{Arena, ArenaSliceRef};
use shmem::process::ProcessCtx;
use shmem::steps::StepKind;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Words per event slot: stamp, kind, name, payload.
pub const EVENT_WORDS: usize = 4;
/// Words per ring header (one cache line): the seqlock cursor, the writer's
/// OS pid, and reserved space.
pub const HDR_WORDS: usize = 8;

/// What a recorded event describes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u64)]
pub enum EventKind {
    /// A lease/name was granted to the writer.
    LeaseGranted = 1,
    /// A lease/name was released by the writer.
    LeaseReleased = 2,
    /// A lease acquisition failed (capacity, inner error).
    LeaseFailed = 3,
    /// The writer's sweep reclaimed a dead peer's name.
    SweepReclaimed = 4,
    /// A counter increment completed.
    Increment = 5,
    /// A batched-release stash flushed.
    Flush = 6,
    /// A free-form application marker.
    Mark = 7,
    /// Restart recovery reclaimed a dead owner's name.
    Recovered = 8,
}

impl EventKind {
    /// Decodes a stored kind word (unknown codes decode to [`Self::Mark`]).
    pub fn from_code(code: u64) -> EventKind {
        match code {
            1 => EventKind::LeaseGranted,
            2 => EventKind::LeaseReleased,
            3 => EventKind::LeaseFailed,
            4 => EventKind::SweepReclaimed,
            5 => EventKind::Increment,
            6 => EventKind::Flush,
            8 => EventKind::Recovered,
            _ => EventKind::Mark,
        }
    }
}

/// One decoded flight-recorder event.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Event {
    /// The event's sequence number within its ring (0-based, monotone).
    pub seq: u64,
    /// The writer's timestamp (nanoseconds since the recorder's epoch for
    /// raw logging; the pre-bump seqlock word for `log_vis`, keeping
    /// model-checked runs deterministic).
    pub stamp: u64,
    /// What happened.
    pub kind: EventKind,
    /// The name/wire/slot the event concerns.
    pub name: u64,
    /// Free-form payload.
    pub payload: u64,
    /// Whether the snapshot this event came from was torn: the writer was
    /// (or died) mid-write and the bounded seqlock retry gave up.
    pub torn: bool,
}

/// An arena-resident array of per-process single-writer event rings.
pub struct FlightRecorder {
    words: ArenaSliceRef<AtomicU64>,
    rings: usize,
    capacity: usize,
}

impl std::fmt::Debug for FlightRecorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FlightRecorder")
            .field("rings", &self.rings)
            .field("capacity", &self.capacity)
            .finish()
    }
}

/// Bounded seqlock retries before a reader accepts a torn snapshot.
const READ_RETRIES: usize = 3;

impl FlightRecorder {
    /// Allocates `rings` rings of `capacity` events each from `arena`
    /// (exactly [`FlightRecorder::footprint`] bytes). Also initializes the
    /// recorder's timestamp epoch, so forked children inherit it.
    ///
    /// # Panics
    ///
    /// Panics if `rings` or `capacity` is zero, or the arena runs out.
    pub fn new_in(arena: &Arc<Arena>, rings: usize, capacity: usize) -> Arc<Self> {
        assert!(rings > 0, "a flight recorder needs at least one ring");
        assert!(capacity > 0, "a ring needs at least one event slot");
        crate::time::init_epoch();
        let words = arena.alloc_slice::<AtomicU64>(rings * Self::ring_words(capacity));
        Arc::new(FlightRecorder {
            words,
            rings,
            capacity,
        })
    }

    /// Allocates a recorder over a fresh process-private heap arena.
    pub fn heap(rings: usize, capacity: usize) -> Arc<Self> {
        Self::new_in(
            &Arena::heap(Self::footprint(rings, capacity)),
            rings,
            capacity,
        )
    }

    fn ring_words(capacity: usize) -> usize {
        HDR_WORDS + capacity * EVENT_WORDS
    }

    /// The number of arena bytes a recorder of this shape allocates
    /// (rounded to the arena's 64-byte allocation grain).
    pub fn footprint(rings: usize, capacity: usize) -> usize {
        (rings * Self::ring_words(capacity) * std::mem::size_of::<AtomicU64>()).next_multiple_of(64)
    }

    /// The number of rings.
    pub fn rings(&self) -> usize {
        self.rings
    }

    /// Events each ring retains.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    #[inline]
    fn base(&self, ring: usize) -> usize {
        assert!(ring < self.rings, "ring {ring} out of range");
        ring * Self::ring_words(self.capacity)
    }

    /// A writer handle for `ring`. Clone-cheap and fork-safe (it resolves
    /// through the pinned arena slice). One writer per ring: the seqlock
    /// protocol is single-writer.
    pub fn writer(self: &Arc<Self>, ring: usize) -> RingWriter {
        let _ = self.base(ring); // range check
        RingWriter {
            recorder: Arc::clone(self),
            ring,
        }
    }

    /// Stamps `ring`'s header with its writer's OS pid so postmortem
    /// sweeps can find the dead owner's ring.
    pub fn attach(&self, ring: usize, pid: u32) {
        self.words[self.base(ring) + 1].store(pid as u64, Ordering::Release);
    }

    /// The pid stamped on `ring`'s header (0 if never attached).
    pub fn ring_pid(&self, ring: usize) -> u32 {
        self.words[self.base(ring) + 1].load(Ordering::Acquire) as u32
    }

    /// The ring attached by `pid`, if any.
    pub fn find_ring(&self, pid: u32) -> Option<usize> {
        (0..self.rings).find(|&ring| self.ring_pid(ring) == pid)
    }

    /// Completed events written to `ring` so far (possibly more than
    /// `capacity`; only the last `capacity` remain readable).
    pub fn written(&self, ring: usize) -> u64 {
        self.words[self.base(ring)].load(Ordering::Acquire) / 2
    }

    /// A seqlock-consistent snapshot of `ring`'s retained events, oldest
    /// first. After `READ_RETRIES` failed attempts (the writer is mid
    /// write, or died there) the snapshot is returned anyway with every
    /// event marked [`Event::torn`].
    pub fn events(&self, ring: usize) -> Vec<Event> {
        let base = self.base(ring);
        let seq = &self.words[base];
        for _ in 0..READ_RETRIES {
            let s1 = seq.load(Ordering::Acquire);
            if s1 % 2 == 1 {
                std::hint::spin_loop();
                continue;
            }
            let snapshot = self.read_slots(base, s1 / 2, false);
            if seq.load(Ordering::Acquire) == s1 {
                return snapshot;
            }
        }
        let s = seq.load(Ordering::Acquire);
        self.read_slots(base, s / 2 + s % 2, true)
    }

    /// The last `n` retained events of `ring`, oldest first.
    pub fn tail(&self, ring: usize, n: usize) -> Vec<Event> {
        let mut events = self.events(ring);
        let keep = events.len().saturating_sub(n);
        events.drain(..keep);
        events
    }

    /// Schedule-visible snapshot of `ring` for the model checker: every
    /// shared word access records one step against the word's arena
    /// location, and the seqlock retry is bounded by `retries`.
    pub fn events_vis(&self, ctx: &mut ProcessCtx, ring: usize, retries: usize) -> Vec<Event> {
        let base = self.base(ring);
        let seq = &self.words[base];
        for _ in 0..retries {
            ctx.record_at(StepKind::RegisterRead, self.words.loc_at(base));
            let s1 = seq.load(Ordering::Acquire);
            if s1 % 2 == 1 {
                continue;
            }
            let snapshot = self.read_slots_vis(ctx, base, s1 / 2, false);
            ctx.record_at(StepKind::RegisterRead, self.words.loc_at(base));
            if seq.load(Ordering::Acquire) == s1 {
                return snapshot;
            }
        }
        ctx.record_at(StepKind::RegisterRead, self.words.loc_at(base));
        let s = seq.load(Ordering::Acquire);
        self.read_slots_vis(ctx, base, s / 2 + s % 2, true)
    }

    fn read_slots(&self, base: usize, written: u64, torn: bool) -> Vec<Event> {
        self.collect_slots(written, torn, |index| {
            self.words[base + index].load(Ordering::Acquire)
        })
    }

    fn read_slots_vis(
        &self,
        ctx: &mut ProcessCtx,
        base: usize,
        written: u64,
        torn: bool,
    ) -> Vec<Event> {
        self.collect_slots(written, torn, |index| {
            ctx.record_at(StepKind::RegisterRead, self.words.loc_at(base + index));
            self.words[base + index].load(Ordering::Acquire)
        })
    }

    fn collect_slots(
        &self,
        written: u64,
        torn: bool,
        mut load: impl FnMut(usize) -> u64,
    ) -> Vec<Event> {
        let first = written.saturating_sub(self.capacity as u64);
        (first..written)
            .map(|seq| {
                let slot = HDR_WORDS + (seq as usize % self.capacity) * EVENT_WORDS;
                Event {
                    seq,
                    stamp: load(slot),
                    kind: EventKind::from_code(load(slot + 1)),
                    name: load(slot + 2),
                    payload: load(slot + 3),
                    torn,
                }
            })
            .collect()
    }

    /// Renders `ring`'s tail as a human-readable postmortem block.
    pub fn postmortem(&self, ring: usize) -> String {
        let pid = self.ring_pid(ring);
        let events = self.events(ring);
        let mut out = format!(
            "postmortem: ring {ring} (pid {pid}), {} event(s) retained of {} written\n",
            events.len(),
            self.written(ring)
        );
        if events.is_empty() {
            out.push_str("  (no events recorded)\n");
        }
        for event in &events {
            out.push_str(&format!(
                "  #{:<4} +{:<12} {:<14} name={:<6} payload={}{}\n",
                event.seq,
                format!("{}ns", event.stamp),
                format!("{:?}", event.kind),
                event.name,
                event.payload,
                if event.torn { "  [torn]" } else { "" }
            ));
        }
        out
    }
}

/// The single-writer handle of one ring.
#[derive(Clone)]
pub struct RingWriter {
    recorder: Arc<FlightRecorder>,
    ring: usize,
}

impl std::fmt::Debug for RingWriter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RingWriter")
            .field("ring", &self.ring)
            .finish()
    }
}

impl RingWriter {
    /// The recorder this writer logs into.
    pub fn recorder(&self) -> &Arc<FlightRecorder> {
        &self.recorder
    }

    /// This writer's ring index.
    pub fn ring(&self) -> usize {
        self.ring
    }

    /// Stamps the ring header with the calling OS process's pid (no-op off
    /// unix or under miri, where there is no meaningful pid to probe).
    pub fn attach_current_process(&self) {
        #[cfg(all(unix, not(miri)))]
        self.recorder.attach(self.ring, shmem::arena::os_pid());
    }

    /// Logs one event: seqlock entry bump, four slot-word stores, exit
    /// bump. The stamp is nanoseconds since the recorder's epoch.
    pub fn log(&self, kind: EventKind, name: u64, payload: u64) {
        self.log_stamped(crate::time::now_ns(), kind, name, payload, None);
    }

    /// Schedule-visible [`RingWriter::log`] for the model checker: each
    /// shared word access records one step at the word's location, and the
    /// stamp is the deterministic pre-bump sequence word instead of a
    /// clock.
    pub fn log_vis(&self, ctx: &mut ProcessCtx, kind: EventKind, name: u64, payload: u64) {
        self.log_stamped(0, kind, name, payload, Some(ctx));
    }

    fn log_stamped(
        &self,
        stamp: u64,
        kind: EventKind,
        name: u64,
        payload: u64,
        mut ctx: Option<&mut ProcessCtx>,
    ) {
        let rec = &self.recorder;
        let base = self.ring * FlightRecorder::ring_words(rec.capacity);
        let seq = &rec.words[base];
        if let Some(ctx) = ctx.as_deref_mut() {
            ctx.record_at(StepKind::ReadModifyWrite, rec.words.loc_at(base));
        }
        // Entry bump: odd sequence marks the write in flight. The acquire
        // half keeps the slot stores below from hoisting above the bump;
        // the release half publishes the odd marker.
        // lint: relaxed-ok(seqlock entry RMW needs both halves: acquire pins the slot stores after it, release publishes the odd marker)
        let s = seq.fetch_add(1, Ordering::AcqRel);
        let slot = base + HDR_WORDS + ((s / 2) as usize % rec.capacity) * EVENT_WORDS;
        let stamp = if ctx.is_some() { s } else { stamp };
        for (index, word) in [(0, stamp), (1, kind as u64), (2, name), (3, payload)] {
            if let Some(ctx) = ctx.as_deref_mut() {
                ctx.record_at(StepKind::RegisterWrite, rec.words.loc_at(slot + index));
            }
            rec.words[slot + index].store(word, Ordering::Release);
        }
        if let Some(ctx) = ctx {
            ctx.record_at(StepKind::ReadModifyWrite, rec.words.loc_at(base));
        }
        // Exit bump: even again, event s/2 complete.
        // lint: relaxed-ok(seqlock exit RMW: release publishes the slot stores before the even marker)
        seq.fetch_add(1, Ordering::AcqRel);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_round_trip_in_order() {
        let rec = FlightRecorder::heap(2, 4);
        let w = rec.writer(1);
        for i in 0..3u64 {
            w.log(EventKind::Mark, i, i * 10);
        }
        let events = rec.events(1);
        assert_eq!(events.len(), 3);
        for (i, event) in events.iter().enumerate() {
            assert_eq!(event.seq, i as u64);
            assert_eq!(event.kind, EventKind::Mark);
            assert_eq!(event.name, i as u64);
            assert_eq!(event.payload, i as u64 * 10);
            assert!(!event.torn);
        }
        assert!(rec.events(0).is_empty(), "the other ring is untouched");
        assert_eq!(rec.written(1), 3);
    }

    #[test]
    fn the_ring_wraps_keeping_the_tail() {
        let rec = FlightRecorder::heap(1, 3);
        let w = rec.writer(0);
        for i in 0..10u64 {
            w.log(EventKind::Increment, i, 0);
        }
        let events = rec.events(0);
        assert_eq!(events.len(), 3, "only the last `capacity` events remain");
        assert_eq!(
            events.iter().map(|e| e.name).collect::<Vec<_>>(),
            vec![7, 8, 9]
        );
        assert_eq!(
            rec.tail(0, 2).iter().map(|e| e.name).collect::<Vec<_>>(),
            vec![8, 9]
        );
        assert_eq!(rec.written(0), 10);
    }

    #[test]
    fn a_writer_dead_inside_the_seqlock_window_reads_as_torn() {
        let rec = FlightRecorder::heap(1, 2);
        let w = rec.writer(0);
        w.log(EventKind::Mark, 1, 1);
        // Simulate a crash mid-write: bump the seqlock entry without an exit.
        rec.words[0].fetch_add(1, Ordering::SeqCst);
        let events = rec.events(0);
        assert!(!events.is_empty());
        assert!(events.iter().all(|e| e.torn), "the torn flag is honest");
        let report = rec.postmortem(0);
        assert!(report.contains("[torn]"), "{report}");
    }

    #[test]
    fn stamps_are_monotone_and_kinds_decode() {
        let rec = FlightRecorder::heap(1, 8);
        let w = rec.writer(0);
        w.log(EventKind::LeaseGranted, 1, 0);
        w.log(EventKind::LeaseReleased, 1, 0);
        let events = rec.events(0);
        assert!(events[0].stamp <= events[1].stamp);
        assert_eq!(events[0].kind, EventKind::LeaseGranted);
        assert_eq!(events[1].kind, EventKind::LeaseReleased);
        assert_eq!(EventKind::from_code(999), EventKind::Mark);
        let report = rec.postmortem(0);
        assert!(report.contains("LeaseGranted"), "{report}");
    }

    #[test]
    fn footprint_is_exact() {
        let arena = Arena::heap(FlightRecorder::footprint(3, 5));
        let rec = FlightRecorder::new_in(&arena, 3, 5);
        assert_eq!(arena.remaining(), 0);
        assert_eq!(rec.rings(), 3);
        assert_eq!(rec.capacity(), 5);
        assert_eq!(rec.find_ring(12345), None);
        rec.attach(2, 12345);
        assert_eq!(rec.find_ring(12345), Some(2));
        assert_eq!(rec.ring_pid(2), 12345);
    }
}
