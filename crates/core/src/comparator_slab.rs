//! A lock-free slab of comparator objects built in place.
//!
//! The renaming engine stores one two-process test-and-set per comparator of
//! the underlying sorting network. Where a compiled
//! [`ComparatorNetwork`](sortnet::network::ComparatorNetwork) assigns every
//! comparator a *dense index* — the §5 renaming network and the compiled
//! inner sections of the §6 adaptive network — the natural store is a
//! pre-sized contiguous array indexed by that slot: no hashing, no lock, no
//! `Arc` clone on the traversal path. The slab reserves one block of
//! location ids for all its comparators and builds comparator *i* in place
//! at the block's *i*-th sub-block ([`InPlace`]), so a slot is the object
//! itself and a lookup is a plain index. A comparator is in its initial
//! state until some process plays it, which is what
//! [`ComparatorSlab::touched`] counts; the first play allocates nothing
//! and draws no location id.
//!
//! Sections too large to pre-size (the adaptive network's outer levels) keep
//! the same layout in a sparse [`LazyTable`](shmem::lazy::LazyTable) keyed
//! by stage and channel, whose leaves hold 64 comparators each.

use shmem::register::InPlace;
use shmem::vexec::Loc;
use std::fmt;

/// A fixed-capacity slab of `T`s built in place, one per dense comparator
/// slot.
///
/// The returned reference borrows from the slab, so playing a comparator
/// performs no reference-count traffic at all.
///
/// # Example
///
/// ```
/// use adaptive_renaming::comparator_slab::ComparatorSlab;
/// use shmem::process::{ProcessCtx, ProcessId};
/// use tas::two_process::TwoProcessTas;
/// use tas::{Side, TwoPartyTas};
///
/// let slab: ComparatorSlab<TwoProcessTas> = ComparatorSlab::new(4);
/// assert_eq!(slab.touched(), 0);
/// let mut ctx = ProcessCtx::new(ProcessId::new(0), 1);
/// assert!(slab.get(2).play(&mut ctx, Side::Top));
/// assert!(!slab.get(2).play(&mut ctx, Side::Bottom));
/// assert_eq!(slab.touched(), 1);
/// ```
pub struct ComparatorSlab<T> {
    values: Box<[T]>,
}

impl<T: InPlace> ComparatorSlab<T> {
    /// Creates a slab of `len` initial values over one block of
    /// `len × T::LOCS` location ids.
    pub fn new(len: usize) -> Self {
        let base = Loc::fresh_block(len as u64 * T::LOCS);
        ComparatorSlab {
            values: (0..len as u64)
                .map(|i| T::at(base.offset(i * T::LOCS)))
                .collect(),
        }
    }

    /// The object at `slot`.
    ///
    /// # Panics
    ///
    /// Panics if `slot >= self.len()`.
    #[inline]
    pub fn get(&self, slot: usize) -> &T {
        &self.values[slot]
    }

    /// Number of slots.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether the slab has no slots.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Number of objects some process has played (harness inspection;
    /// O(len)).
    pub fn touched(&self) -> usize {
        self.values.iter().filter(|value| value.touched()).count()
    }
}

impl<T> fmt::Debug for ComparatorSlab<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ComparatorSlab")
            .field("slots", &self.values.len())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use shmem::process::{ProcessCtx, ProcessId};
    use shmem::register::RegisterBlock;
    use std::collections::BTreeSet;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use tas::two_process::TwoProcessTas;
    use tas::{Side, TwoPartyTas};

    /// A test value: a touch counter at one location id.
    struct Counter {
        count: AtomicUsize,
        loc: Loc,
    }

    impl InPlace for Counter {
        const LOCS: u64 = 1;

        fn at(loc: Loc) -> Self {
            Counter {
                count: AtomicUsize::new(0),
                loc,
            }
        }

        fn touched(&self) -> bool {
            self.count.load(Ordering::SeqCst) > 0
        }
    }

    #[test]
    fn cells_initialize_lazily_and_once() {
        let slab: ComparatorSlab<Counter> = ComparatorSlab::new(8);
        assert_eq!(slab.len(), 8);
        assert!(!slab.is_empty());
        assert_eq!(slab.touched(), 0);
        slab.get(3).count.fetch_add(1, Ordering::SeqCst);
        slab.get(3).count.fetch_add(1, Ordering::SeqCst);
        assert_eq!(slab.touched(), 1);
        assert_eq!(slab.get(3).count.load(Ordering::SeqCst), 2);
        let locs: BTreeSet<Loc> = (0..8).map(|slot| slab.get(slot).loc).collect();
        assert_eq!(locs.len(), 8, "one location id per slot");
    }

    #[test]
    fn registers_of_one_slab_never_share_a_loc() {
        // Word `w` of slot `i` sits at id `i × LOCS + w` of the slab's
        // block; a second slab draws a block of its own. (How a
        // `TwoProcessTas` lays its 104 words over its sub-block is pinned
        // in `tas::two_process`.)
        let slabs: [ComparatorSlab<RegisterBlock<3>>; 2] =
            [ComparatorSlab::new(70), ComparatorSlab::new(3)];
        let mut locs = BTreeSet::new();
        for slab in &slabs {
            for slot in 0..slab.len() {
                for word in 0..3 {
                    let loc = slab.get(slot).loc(word);
                    assert!(locs.insert(loc), "slot {slot}, word {word}: {loc:?} shared");
                }
            }
        }
        assert_eq!(slabs[0].get(1).loc(0), slabs[0].get(0).loc(0).offset(3));
    }

    #[test]
    fn concurrent_first_touch_yields_one_object() {
        let slab: ComparatorSlab<Counter> = ComparatorSlab::new(4);
        std::thread::scope(|scope| {
            for _ in 0..8 {
                let slab = &slab;
                scope.spawn(move || {
                    for slot in 0..4 {
                        slab.get(slot).count.fetch_add(1, Ordering::SeqCst);
                    }
                });
            }
        });
        assert_eq!(slab.touched(), 4);
        for slot in 0..4 {
            assert_eq!(
                slab.get(slot).count.load(Ordering::SeqCst),
                8,
                "slot {slot}"
            );
        }
    }

    #[test]
    fn concurrent_first_touch_yields_one_comparator() {
        // The slab's real value type: two processes race to play each
        // comparator first, on opposite sides; each slot's comparator ends
        // up with one winner, and the slab's objects are the ones played.
        let slab: ComparatorSlab<TwoProcessTas> = ComparatorSlab::new(4);
        let wins: Vec<Vec<bool>> = std::thread::scope(|scope| {
            let players: Vec<_> = [Side::Top, Side::Bottom]
                .into_iter()
                .enumerate()
                .map(|(id, side)| {
                    let slab = &slab;
                    scope.spawn(move || {
                        let mut ctx = ProcessCtx::new(ProcessId::new(id), 5);
                        (0..4)
                            .map(|slot| slab.get(slot).play(&mut ctx, side))
                            .collect()
                    })
                })
                .collect();
            players.into_iter().map(|p| p.join().unwrap()).collect()
        });
        assert_eq!(slab.touched(), 4);
        for (slot, (top, bottom)) in wins[0].iter().zip(&wins[1]).enumerate() {
            assert!(top ^ bottom, "slot {slot}: one winner");
            let winner = if *top { Side::Top } else { Side::Bottom };
            assert_eq!(slab.get(slot).winner(), Some(winner));
        }
    }

    #[test]
    #[should_panic]
    fn out_of_range_get_panics() {
        let slab: ComparatorSlab<Counter> = ComparatorSlab::new(2);
        let _ = slab.get(2);
    }

    #[test]
    fn zero_length_slab_is_empty() {
        let slab: ComparatorSlab<Counter> = ComparatorSlab::new(0);
        assert!(slab.is_empty());
        assert_eq!(slab.touched(), 0);
        assert!(format!("{slab:?}").contains("ComparatorSlab"));
    }
}
