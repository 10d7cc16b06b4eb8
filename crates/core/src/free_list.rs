//! A lock-free pop-minimum free list of names over a two-level bitmap.
//!
//! A [`FreeList`] is the heart of the long-lived recycling layer
//! ([`Recycler`](crate::recycler::Recycler)): released names are parked in an
//! atomic bitmap, and a lease claims the **smallest** free name. Claiming the
//! minimum is what keeps recycling *adaptive* — for a lease to be granted
//! name `m`, every name below `m` must be held or in transit at the moment of
//! the scan, so the point contention is at least `m`. A LIFO stack would hand
//! a name granted at peak contention straight back out at low contention and
//! break that bound.
//!
//! The bitmap has two levels: one *data* word per 64 names, plus a
//! *summary* level with one bit per data word (so one summary word per 64
//! data words, i.e. per 4096 names). Pop-minimum reads the first non-zero
//! summary word, jumps straight to its lowest flagged data word, and claims
//! that word's lowest bit — `O(1)` expected instead of the `O(bound / 64)`
//! of scanning the data words in order.
//!
//! # The summary protocol: monotone flags
//!
//! Summary bits are **monotone**: a push *ensures* its word's summary bit
//! is set (a plain load, plus one `fetch_or` only if the bit is still
//! clear) strictly before the push completes, and **nothing ever clears a
//! summary bit**. A flagged word may be empty (all its names claimed
//! again); an *unflagged* word carries an exact guarantee — **no push for
//! any of its names has ever completed**, i.e. no name in that word has
//! ever been free.
//!
//! That guarantee is what makes skipping unflagged words sound, where a
//! clearing protocol would not be:
//!
//! * **Minimality.** A pop may only skip a word it knows holds no free
//!   name. Flagged words the pop inspects itself (one load). Unflagged
//!   words have never held a free name at any point in time — a fact no
//!   concurrent interleaving can invalidate mid-scan, because the bits
//!   only ever go from 0 to 1. (Any protocol that *clears* summary bits
//!   opens a window in which a refilled word is hidden behind another
//!   thread's stale observation, letting a pop return a non-minimum name.)
//! * **Coherent misses.** A completed push ensured its summary bit before
//!   bumping the seqlock below, and the bit cannot have been cleared since
//!   — so any scan that starts after the bump is guaranteed to visit the
//!   word. In-flight pushes (bit ensured but seqlock not yet bumped) are
//!   exactly what the seqlock re-scan rule accounts for.
//!
//! The trade-off is that emptied words keep their flags: a pop pays one
//! load per *historically touched* word it passes, degenerating to an
//! in-order scan of the data words plus summary overhead only when every
//! word has held a free name at some point. Under the recycling workloads
//! the hierarchy is for — free names dense at the bottom of the namespace —
//! only the lowest words are ever flagged, and pop-minimum (hits *and*
//! misses) stays `O(1)` expected regardless of the bound.
//!
//! # Coherent misses
//!
//! The word scan of [`FreeList::pop`] is not by itself an atomic emptiness
//! check: a name released into an already-scanned region would be missed,
//! and a miss wrongly reported as "no free names" would let a recycler
//! consume a fresh name it does not need — breaking the `1..=max_concurrent`
//! bound. The `pushes` counter closes that hole seqlock-style: every
//! successful push bumps it (after all bits land, before the releaser stops
//! counting as live), and [`FreeList::pop_coherent`] rescans whenever the
//! counter moved during a missing scan. A coherent miss therefore proves
//! that at its linearization point every name absent from the list was owned
//! by a still-live lease operation.
//!
//! Owners that keep their own seqlock push with
//! [`FreeList::push_unsequenced`], which lands the bits and the summary flag
//! exactly like [`FreeList::push`] but leaves `pushes` alone. The
//! crash-robust lease table ([`crate::robust::RobustLeaseTable`]) does: its
//! per-process transition stripes already order every push before the
//! releaser finishes, and one shared counter bumped by every release would
//! be the table's single most contended word.
//!
//! # Name-to-bit mapping
//!
//! Names are 1-based; name `n` occupies bit `(n - 1) % 64` of data word
//! `(n - 1) / 64`, so a list of bound `b` allocates exactly `⌈b / 64⌉`
//! words. (An earlier revision mapped name `n` to bit `n % 64` of word
//! `n / 64`, which wasted bit 0 of word 0 and allocated one entire extra
//! word whenever `bound % 64 == 0` — e.g. 2 words for a 64-name list.)
//!
//! # Layout
//!
//! Every data word owns a 64-byte line. A pop claims a word's bit with an
//! RMW and a release pushes into the same word from another core, so two
//! neighbouring words on one line would bounce that line between
//! processes serving disjoint names. The price is 64 bytes per 64 names.

use shmem::arena::{Arena, ArenaRef, ArenaSliceRef};
use shmem::pad::CachePadded;
use std::fmt;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

/// A lock-free pop-minimum set of names `1..=bound`, stored as a two-level
/// atomic bitmap (see the [module documentation](self)).
pub struct FreeList {
    /// The arena holding every mutable word below. Defaults to a private
    /// heap arena sized by [`FreeList::footprint`]; pass a `MAP_SHARED`
    /// arena to [`FreeList::new_in`] to share the list across
    /// processes.
    arena: Arc<Arena>,
    /// One data word (64 names) per cache line, so pops and pushes on
    /// neighbouring words never contend for one line (see the module docs'
    /// layout section). Pinned (resolved once) so every scan is a plain
    /// slice walk.
    words: ArenaSliceRef<CachePadded<AtomicU64>>,
    /// One bit per data word. Each summary word is cache-padded: adjacent
    /// summary words cover disjoint 4096-name regions and are flagged
    /// concurrently.
    summary: ArenaSliceRef<CachePadded<AtomicU64>>,
    /// Successful pushes so far (seqlock for coherent-miss detection). An
    /// arena allocation owns its 64-byte line outright — it is the single
    /// most contended word in the structure.
    pushes: ArenaRef<AtomicUsize>,
    bound: usize,
}

impl FreeList {
    /// Creates an empty free list accepting names `1..=bound` in a private
    /// heap arena (identical layout to the shared backend; see
    /// [`FreeList::new_in`]).
    pub fn new(bound: usize) -> Self {
        Self::new_in(&Arena::heap(Self::footprint(bound)), bound)
    }

    /// Creates an empty free list whose words live in `arena` — the
    /// cross-process constructor. The caller must reserve at least
    /// [`FreeList::footprint`] bytes for it.
    pub fn new_in(arena: &Arc<Arena>, bound: usize) -> Self {
        Self::alloc_in(arena, bound, false)
    }

    /// Creates a **full** free list (every name `1..=bound` free) in
    /// `arena`, with its summary flags already raised, so the first pops
    /// need no pushes. Like every `*_with` arena allocation, the initial
    /// fill is skipped when `arena` preserves its contents
    /// ([`Arena::file_attach`]): re-running the constructor over a
    /// surviving list keeps its words.
    pub(crate) fn full_in(arena: &Arc<Arena>, bound: usize) -> Self {
        Self::alloc_in(arena, bound, true)
    }

    fn alloc_in(arena: &Arc<Arena>, bound: usize, full: bool) -> Self {
        // The low `count` bits of a word, or none unless `full`.
        let fill = |count: usize| match count {
            _ if !full => 0,
            0..=63 => (1u64 << count) - 1,
            _ => u64::MAX,
        };
        let word_count = bound.div_ceil(64).max(1);
        let words = arena.alloc_slice_with(word_count, |index, _| {
            CachePadded::new(AtomicU64::new(fill(bound.saturating_sub(index * 64))))
        });
        let summary = arena.alloc_slice_with(word_count.div_ceil(64), |index, _| {
            CachePadded::new(AtomicU64::new(fill(word_count - index * 64)))
        });
        FreeList {
            words,
            summary,
            pushes: arena.alloc::<AtomicUsize>(),
            bound,
            arena: Arc::clone(arena),
        }
    }

    /// The number of arena bytes a `FreeList` of this shape allocates: one
    /// 64-byte line per data word, one per summary word and one for the
    /// seqlock.
    pub fn footprint(bound: usize) -> usize {
        let word_count = bound.div_ceil(64).max(1);
        (word_count + word_count.div_ceil(64) + 1) * 64
    }

    /// The arena backing this list.
    pub fn arena(&self) -> &Arc<Arena> {
        &self.arena
    }

    #[inline]
    fn data(&self) -> &[CachePadded<AtomicU64>] {
        &self.words
    }

    #[inline]
    fn flags(&self) -> &[CachePadded<AtomicU64>] {
        &self.summary
    }

    #[inline]
    fn push_counter(&self) -> &AtomicUsize {
        &self.pushes
    }

    /// The largest name the list can hold.
    pub fn bound(&self) -> usize {
        self.bound
    }

    /// Successful pushes so far. Together with [`FreeList::len`] this yields
    /// the number of successful pops: `pushes() - len()`.
    pub fn pushes(&self) -> usize {
        self.push_counter().load(Ordering::SeqCst)
    }

    /// Marks `name` free; returns `false` (rejecting the push) if the name
    /// is out of range or already free.
    pub fn push(&self, name: usize) -> bool {
        if !self.set_bit(name) {
            return false;
        }
        self.push_counter().fetch_add(1, Ordering::SeqCst);
        obs::count(obs::Metric::FreeListPush);
        true
    }

    /// Marks `name` free exactly like [`FreeList::push`] — bits and summary
    /// flag land before the call returns — but **without** bumping the
    /// `pushes` seqlock. For owners that keep their own seqlock ordered
    /// after the push, as the crash-robust lease table's transition stripes
    /// are; [`FreeList::pop_coherent`] cannot see these pushes.
    pub fn push_unsequenced(&self, name: usize) -> bool {
        self.set_bit(name)
    }

    /// Data word `index` as one load: bit `i` is set iff name
    /// `index * 64 + i + 1` is listed free. The crash-robust table's sweep
    /// and recovery walk ([`RobustLeaseTable`](crate::robust::RobustLeaseTable))
    /// load each word once and read only the slots behind its clear bits,
    /// since a set bit vouches for a free slot. Bits past the bound read
    /// as clear; callers mask them off.
    pub(crate) fn word_bits(&self, index: usize) -> u64 {
        self.data()[index].load(Ordering::SeqCst)
    }

    /// Marks every name in `names` free with a **single** seqlock bump at
    /// the end (after every bit has landed), amortizing the release-side
    /// counter update over the batch. Returns how many pushes were accepted;
    /// out-of-range and already-free names are rejected exactly as by
    /// [`FreeList::push`].
    ///
    /// Until the final bump the batch's names keep counting as in-flight
    /// (seqlock-wise they have not been released yet), which is the
    /// conservative direction for every coherence argument built on the
    /// counter.
    pub fn push_many(&self, names: &[usize]) -> usize {
        let pushed = names.iter().filter(|&&name| self.set_bit(name)).count();
        if pushed > 0 {
            self.push_counter().fetch_add(pushed, Ordering::SeqCst);
            obs::add(obs::Metric::FreeListPush, pushed as u64);
        }
        pushed
    }

    /// Sets `name`'s bit and ensures its word's (monotone) summary bit,
    /// without touching the seqlock. Returns `false` for out-of-range or
    /// already-free names.
    fn set_bit(&self, name: usize) -> bool {
        if name == 0 || name > self.bound {
            return false;
        }
        let (word, bit) = ((name - 1) / 64, 1u64 << ((name - 1) % 64));
        let previous = self.data()[word].fetch_or(bit, Ordering::SeqCst);
        if previous & bit != 0 {
            return false;
        }
        // Ensure the summary flag before this push can complete. The bits
        // are monotone (never cleared), so an observed-set flag is set
        // forever and the common case is one plain load. Skipping based on
        // the *data* word being non-empty would be unsound: the earlier
        // pusher that made it non-empty may still be in-flight before its
        // own summary write.
        let flag = &self.flags()[word / 64];
        let summary_bit = 1u64 << (word % 64);
        if flag.load(Ordering::SeqCst) & summary_bit == 0 {
            flag.fetch_or(summary_bit, Ordering::SeqCst);
        }
        true
    }

    /// Re-derives the summary level from the data words, flagging any
    /// non-empty data word whose summary bit is clear. Returns the number
    /// of flags repaired.
    ///
    /// A crash between a push's data `fetch_or` and its summary ensure
    /// leaves exactly this inconsistency: the name's bit is set but pops
    /// skip its word forever — lost capacity. Because summary flags are
    /// monotone (never cleared), repair is pure re-derivation: setting a
    /// flag that should be set cannot race any concurrent pusher or popper,
    /// so this is safe to run at any time, not only during restart recovery
    /// ([`crate::recovery::recover`] calls it on every win).
    pub fn repair_summary(&self) -> usize {
        let summary = self.flags();
        let mut repaired = 0;
        for (index, word) in self.data().iter().enumerate() {
            if word.load(Ordering::SeqCst) == 0 {
                continue;
            }
            let flag = &summary[index / 64];
            let summary_bit = 1u64 << (index % 64);
            if flag.load(Ordering::SeqCst) & summary_bit == 0 {
                flag.fetch_or(summary_bit, Ordering::SeqCst);
                repaired += 1;
            }
        }
        repaired
    }

    /// Injects a torn push: sets `name`'s **data** bit without the summary
    /// ensure or the seqlock bump — the state a kill inside
    /// [`FreeList::push`] leaves behind, which [`FreeList::repair_summary`]
    /// exists to fix. Chaos-harness fault hook; returns whether the data
    /// bit was newly set.
    pub fn inject_torn_push(&self, name: usize) -> bool {
        if name == 0 || name > self.bound {
            return false;
        }
        let (word, bit) = ((name - 1) / 64, 1u64 << ((name - 1) % 64));
        self.data()[word].fetch_or(bit, Ordering::SeqCst) & bit == 0
    }

    /// A flat copy of every shared word — data, summary, then the
    /// push counter. Equal snapshots mean byte-identical list state; the
    /// recovery idempotence tests pin on it.
    pub fn snapshot_words(&self) -> Vec<u64> {
        self.data()
            .iter()
            .map(|word| word.load(Ordering::SeqCst))
            .chain(self.flags().iter().map(|flag| flag.load(Ordering::SeqCst)))
            .chain(std::iter::once(self.pushes() as u64))
            .collect()
    }

    /// Claims the smallest free name in one scan, if any.
    ///
    /// A `None` from a single scan is **not** an atomic emptiness check; use
    /// [`FreeList::pop_coherent`] when a miss must mean "observably empty at
    /// one instant".
    pub fn pop(&self) -> Option<usize> {
        for (summary_index, summary_word) in self.flags().iter().enumerate() {
            // One snapshot per summary word, visited lowest bit first. A
            // flag appearing behind the cursor belongs to a push that
            // overlaps this scan — the same race any in-order scan has,
            // covered by the seqlock for coherent misses. Flags over
            // emptied words cost one data-word load each and are never
            // cleared (see the module docs for why clearing would be
            // unsound).
            let mut flags = summary_word.load(Ordering::SeqCst);
            while flags != 0 {
                let summary_bit = flags.trailing_zeros() as usize;
                flags &= !(1u64 << summary_bit);
                let word_index = summary_index * 64 + summary_bit;
                if let Some(bit) = Self::claim_lowest(&self.data()[word_index]) {
                    obs::count(obs::Metric::FreeListPop);
                    return Some(word_index * 64 + bit + 1);
                }
            }
        }
        None
    }

    /// Claims the lowest set bit of `word`, returning its index.
    ///
    /// The first access is an RMW that changes nothing (`fetch_add(0)`), not
    /// a load: it brings the line in exclusive, so the claiming CAS that
    /// follows hits locally instead of paying a second coherence
    /// round-trip to upgrade a shared line.
    fn claim_lowest(word: &AtomicU64) -> Option<usize> {
        let mut current = word.fetch_add(0, Ordering::SeqCst);
        while current != 0 {
            let bit = current.trailing_zeros();
            match word.compare_exchange_weak(
                current,
                current & !(1u64 << bit),
                Ordering::SeqCst,
                Ordering::SeqCst,
            ) {
                Ok(_) => return Some(bit as usize),
                Err(now) => current = now,
            }
        }
        None
    }

    /// Claims the smallest free name; a miss is retried until no release
    /// landed during the scan, so `None` means the list was observably empty
    /// at a single instant. Lock-free: each retry is caused by another
    /// thread's completed release.
    pub fn pop_coherent(&self) -> Option<usize> {
        loop {
            let before = self.push_counter().load(Ordering::SeqCst);
            if let Some(name) = self.pop() {
                return Some(name);
            }
            if self.push_counter().load(Ordering::SeqCst) == before {
                return None;
            }
        }
    }

    /// The number of names currently free (`O(bound / 64)`; diagnostics).
    pub fn len(&self) -> usize {
        self.data()
            .iter()
            .map(|word| word.load(Ordering::Relaxed).count_ones() as usize)
            .sum()
    }

    /// Whether no names are currently free (diagnostics; racy by nature).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The number of data words allocated (exactly `⌈bound / 64⌉`, except
    /// that a zero-bound list still allocates one word), one per line.
    pub fn word_count(&self) -> usize {
        self.words.len()
    }

    /// The byte offsets (within the arena) of the data words, the summary
    /// words and the seqlock — exposed so tests can assert the layout
    /// (64-byte alignment, no line sharing between hot words).
    pub fn layout_offsets(&self) -> (usize, usize, usize) {
        (
            self.words.offset(),
            self.summary.offset(),
            self.pushes.offset(),
        )
    }
}

impl fmt::Debug for FreeList {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FreeList")
            .field("bound", &self.bound)
            .field("len", &self.len())
            .field("pushes", &self.pushes())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;
    use std::sync::Arc;

    /// Iterations of the multi-threaded churn tests; shrunk under miri,
    /// whose interpreter runs them ~1000× slower than native.
    const CHURN_OPS: usize = if cfg!(miri) { 200 } else { 10_000 };

    #[test]
    fn pops_the_minimum_and_rejects_duplicates() {
        let list = FreeList::new(200);
        assert_eq!(list.pop(), None);
        assert!(list.push(5));
        assert!(list.push(3));
        assert!(list.push(130)); // third word of the bitmap
        assert!(!list.push(5), "duplicate push is rejected");
        assert!(!list.push(0), "name 0 is rejected");
        assert!(!list.push(201), "out-of-range name is rejected");
        assert_eq!(list.len(), 3);
        assert_eq!(list.pop(), Some(3), "the smallest free name comes first");
        assert_eq!(list.pop(), Some(5));
        assert_eq!(list.pop(), Some(130));
        assert_eq!(list.pop(), None);
        assert!(list.push(5), "popped names can be pushed again");
        assert_eq!(list.pop_coherent(), Some(5));
        assert_eq!(list.pop_coherent(), None);
    }

    #[test]
    fn word_sizing_is_exact_at_the_64_boundaries() {
        // One word per 64 names, no extra word when the bound divides 64.
        for (bound, words) in [(1, 1), (63, 1), (64, 1), (65, 2), (127, 2), (128, 2)] {
            assert_eq!(FreeList::new(bound).word_count(), words, "bound {bound}");
        }
    }

    #[test]
    fn boundary_bounds_round_trip_every_name() {
        // Exhaustive push/pop/pop_coherent at the word-boundary bounds named
        // by the audit: every name in 1..=bound lands and comes back out in
        // ascending order; bound + 1 and 0 are rejected.
        for bound in [1usize, 63, 64, 65, 128] {
            let list = FreeList::new(bound);
            for name in 1..=bound {
                assert!(list.push(name), "bound {bound}: push {name}");
            }
            assert!(!list.push(0), "bound {bound}");
            assert!(!list.push(bound + 1), "bound {bound}: name above the bound");
            assert_eq!(list.len(), bound, "bound {bound}");
            for name in 1..=bound {
                assert_eq!(
                    list.pop_coherent(),
                    Some(name),
                    "bound {bound}: pop-minimum order"
                );
            }
            assert_eq!(list.pop_coherent(), None, "bound {bound}");
            assert_eq!(list.pushes(), bound, "bound {bound}");
        }
    }

    #[test]
    fn the_highest_name_lives_in_the_last_word() {
        let list = FreeList::new(64);
        assert!(list.push(64), "name == bound is accepted");
        assert_eq!(list.len(), 1);
        assert_eq!(list.pop(), Some(64));
        let wide = FreeList::new(128);
        assert!(wide.push(128));
        assert_eq!(wide.pop(), Some(128));
    }

    #[test]
    fn emptied_words_keep_their_flags_and_are_skipped_cheaply() {
        let list = FreeList::new(8192);
        // Park a name far up the namespace, then cycle a low name: word 0's
        // monotone summary flag survives the pop that empties it, and later
        // pops walk past it (one load) to find name 5000.
        assert!(list.push(5000));
        assert!(list.push(1));
        assert_eq!(list.pop(), Some(1));
        assert_eq!(list.pop(), Some(5000), "flagged-but-empty words are passed");
        assert_eq!(list.pop(), None);
        // The flags stay set; correctness is unaffected across refills.
        assert!(list.push(8192));
        assert!(list.push(1));
        assert_eq!(list.pop_coherent(), Some(1), "pop-minimum across refills");
        assert_eq!(list.pop_coherent(), Some(8192));
        assert_eq!(list.pop_coherent(), None);
    }

    #[test]
    fn misses_are_coherent_under_concurrent_churn() {
        // Pushers cycle names through the list while poppers drain it; a
        // coherent miss must never coincide with an unclaimed name. The
        // accounting check: every popped name is pushed back, so at the end
        // all names are on the list again.
        let list = Arc::new(FreeList::new(8192));
        assert!(list.push(1) && list.push(100) && list.push(8000));
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let list = Arc::clone(&list);
                scope.spawn(move || {
                    for _ in 0..CHURN_OPS {
                        if let Some(name) = list.pop_coherent() {
                            assert!(list.push(name), "claimed names push back cleanly");
                        }
                    }
                });
            }
        });
        assert_eq!(list.len(), 3, "all names survive the churn");
        assert_eq!(list.pop_coherent(), Some(1));
        assert_eq!(list.pop_coherent(), Some(100));
        assert_eq!(list.pop_coherent(), Some(8000));
        assert_eq!(list.pop_coherent(), None);
    }

    #[test]
    fn free_list_agrees_with_a_sorted_set_on_sequential_scripts() {
        // A deterministic script driven against the list and a sequential
        // pop-min model (a `BTreeSet` of the free names) must produce
        // identical results op for op (the property-based version with
        // random scripts lives in tests/lease_churn.rs).
        let bound = 300;
        let list = FreeList::new(bound);
        let mut model = BTreeSet::new();
        let mut pushes = 0;
        let script: Vec<(usize, usize)> = (0..600usize)
            .map(|i| ((i * 7 + 3) % 4, (i * 131 + 17) % 302))
            .collect();
        for (op, name) in script {
            match op {
                0 | 1 => {
                    let accepted = (1..=bound).contains(&name) && model.insert(name);
                    pushes += usize::from(accepted);
                    assert_eq!(list.push(name), accepted, "push {name}");
                }
                2 => assert_eq!(list.pop(), model.pop_first()),
                _ => assert_eq!(list.pop_coherent(), model.pop_first()),
            }
        }
        assert_eq!(list.len(), model.len());
        assert_eq!(list.pushes(), pushes);
    }

    #[test]
    fn push_many_batches_the_seqlock_and_rejects_like_push() {
        let list = FreeList::new(100);
        assert!(list.push(7));
        // 7 is a duplicate, 0 and 101 are out of range: 3 of 6 land.
        let pushed = list.push_many(&[5, 7, 0, 70, 101, 9]);
        assert_eq!(pushed, 3);
        assert_eq!(list.pushes(), 4, "one bump per landed name");
        assert_eq!(list.len(), 4);
        for expected in [5, 7, 9, 70] {
            assert_eq!(list.pop_coherent(), Some(expected));
        }
        assert_eq!(list.pop_coherent(), None);
        assert_eq!(list.push_many(&[]), 0);
    }

    #[test]
    fn hot_words_are_cache_line_aligned_and_disjoint() {
        // Every hot word owns its 64-byte line: each data word, each
        // summary word and the pushes seqlock, with no two regions sharing
        // a line.
        let list = FreeList::new(8192);
        let (words_off, summary_off, pushes_off) = list.layout_offsets();
        assert_eq!(words_off % 64, 0, "data words line-aligned");
        assert_eq!(pushes_off % 64, 0, "seqlock line-aligned");
        assert_eq!(summary_off % 64, 0, "summary line-aligned");
        assert_eq!(
            std::mem::size_of::<CachePadded<AtomicU64>>(),
            64,
            "each data and summary word owns a full line"
        );
        let data_end = words_off + list.word_count() * 64;
        let summary_end = summary_off + 64 * list.word_count().div_ceil(64);
        assert!(
            data_end <= summary_off && summary_end <= pushes_off,
            "data, summary and seqlock regions are disjoint and in order"
        );
        // The footprint helper is exact.
        assert_eq!(list.arena().used(), FreeList::footprint(8192));
    }

    #[test]
    fn full_lists_pop_every_name_in_order() {
        for bound in [1usize, 63, 64, 65, 4097] {
            let list = FreeList::full_in(&Arena::heap(FreeList::footprint(bound)), bound);
            assert_eq!(list.len(), bound, "bound {bound}");
            for name in 1..=bound {
                assert_eq!(list.pop(), Some(name), "bound {bound}");
            }
            assert_eq!(list.pop(), None, "bound {bound}: no bit above the bound");
            assert_eq!(list.pushes(), 0, "the fill is not a push");
        }
    }

    #[test]
    fn unsequenced_pushes_land_without_the_seqlock() {
        let list = FreeList::new(100);
        assert!(list.push_unsequenced(70));
        assert!(!list.push_unsequenced(70), "duplicates are rejected");
        assert!(
            !list.push_unsequenced(101),
            "out-of-range names are rejected"
        );
        assert_eq!(list.word_bits(1), 1 << (70 - 65), "only name 70's bit");
        assert_eq!(list.pushes(), 0);
        assert_eq!(list.pop(), Some(70), "the summary flag landed too");
        assert_eq!(list.word_bits(1), 0);
    }

    #[test]
    fn arena_backed_list_behaves_identically_to_private() {
        use shmem::arena::Arena;

        let arena = Arena::heap(FreeList::footprint(300));
        let shared = FreeList::new_in(&arena, 300);
        let private = FreeList::new(300);
        for name in [7usize, 1, 299, 64, 65] {
            assert_eq!(shared.push(name), private.push(name));
        }
        loop {
            let (a, b) = (shared.pop_coherent(), private.pop_coherent());
            assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
        assert_eq!(shared.pushes(), private.pushes());
    }

    #[test]
    fn debug_reports_layout_and_occupancy() {
        let list = FreeList::new(10);
        assert!(list.is_empty());
        assert!(list.push(2));
        let formatted = format!("{list:?}");
        assert!(formatted.contains("bound: 10"), "{formatted}");
        assert!(formatted.contains("len: 1"), "{formatted}");
    }
}
