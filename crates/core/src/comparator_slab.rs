//! A lock-free, lazily initialized slab of comparator objects.
//!
//! The renaming engine stores one two-process test-and-set per comparator of
//! the underlying sorting network. Where a compiled
//! [`ComparatorNetwork`](sortnet::network::ComparatorNetwork) assigns every
//! comparator a *dense index* — the §5 renaming network and the compiled
//! inner sections of the §6 adaptive network — the natural store is a
//! pre-sized contiguous array indexed by that slot: no hashing, no lock, no
//! `Arc` clone on the traversal path. Each cell is a [`OnceLock`], which
//! preserves the engine's lazy-allocation semantics (a comparator object
//! exists only once some process actually reaches it — observable through
//! [`ComparatorSlab::allocated`]): every contender resolves first touch to
//! the same object, and all subsequent reads are a single atomic acquire
//! load. The only blocking the slab can introduce is per-cell and one-time —
//! a contender arriving while a cell's `T::default()` is still running waits
//! for it — after which the cell is immutable and lock-free forever.
//!
//! Sections too large to pre-size (the adaptive network's outer levels) keep
//! the same first-touch semantics in a sparse
//! [`LazyTable`](shmem::lazy::LazyTable) keyed by stage and channel instead.

use std::fmt;
use std::sync::OnceLock;

/// A fixed-capacity slab of lazily created `T`s, one per dense comparator
/// slot.
///
/// Reads after initialization are a single atomic acquire load; the returned
/// reference borrows from the slab, so playing a comparator performs no
/// reference-count traffic at all.
///
/// # Example
///
/// ```
/// use adaptive_renaming::comparator_slab::ComparatorSlab;
/// use std::sync::atomic::{AtomicUsize, Ordering};
///
/// #[derive(Default)]
/// struct Cell(AtomicUsize);
///
/// let slab: ComparatorSlab<Cell> = ComparatorSlab::new(4);
/// assert_eq!(slab.allocated(), 0);
/// slab.get(2).0.fetch_add(1, Ordering::Relaxed);
/// slab.get(2).0.fetch_add(1, Ordering::Relaxed);
/// assert_eq!(slab.allocated(), 1);
/// assert_eq!(slab.get(2).0.load(Ordering::Relaxed), 2);
/// ```
pub struct ComparatorSlab<T> {
    cells: Box<[OnceLock<T>]>,
}

impl<T> ComparatorSlab<T> {
    /// Creates a slab with `len` empty cells.
    pub fn new(len: usize) -> Self {
        let mut cells = Vec::with_capacity(len);
        cells.resize_with(len, OnceLock::new);
        ComparatorSlab {
            cells: cells.into_boxed_slice(),
        }
    }

    /// Creates a slab whose cells are pre-filled with the given values (used
    /// when the caller supplies ready-made objects instead of relying on
    /// lazy creation, e.g. `BitBatchingRenaming::with_slots`).
    pub fn from_values<I: IntoIterator<Item = T>>(values: I) -> Self {
        ComparatorSlab {
            cells: values
                .into_iter()
                .map(|value| {
                    let cell = OnceLock::new();
                    let _ = cell.set(value);
                    cell
                })
                .collect(),
        }
    }

    /// The object at `slot`, created by `init` on first touch.
    ///
    /// # Panics
    ///
    /// Panics if `slot >= self.len()`.
    #[inline]
    pub fn get_with<F: FnOnce() -> T>(&self, slot: usize, init: F) -> &T {
        self.cells[slot].get_or_init(init)
    }

    /// The object at `slot` if some process already touched it.
    pub fn peek(&self, slot: usize) -> Option<&T> {
        self.cells.get(slot).and_then(OnceLock::get)
    }

    /// Number of slots.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// Whether the slab has no slots.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// Number of objects created so far (harness inspection; O(len)).
    pub fn allocated(&self) -> usize {
        self.cells
            .iter()
            .filter(|cell| cell.get().is_some())
            .count()
    }
}

impl<T: Default> ComparatorSlab<T> {
    /// The object at `slot`, default-created on first touch.
    ///
    /// # Panics
    ///
    /// Panics if `slot >= self.len()`.
    #[inline]
    pub fn get(&self, slot: usize) -> &T {
        self.get_with(slot, T::default)
    }
}

impl<T> fmt::Debug for ComparatorSlab<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ComparatorSlab")
            .field("slots", &self.cells.len())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use shmem::process::{ProcessCtx, ProcessId};
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;
    use tas::two_process::TwoProcessTas;
    use tas::{Side, TwoPartyTas};

    #[derive(Default)]
    struct Counter(AtomicUsize);

    #[test]
    fn cells_initialize_lazily_and_once() {
        let slab: ComparatorSlab<Counter> = ComparatorSlab::new(8);
        assert_eq!(slab.len(), 8);
        assert!(!slab.is_empty());
        assert_eq!(slab.allocated(), 0);
        assert!(slab.peek(3).is_none());
        slab.get(3).0.fetch_add(1, Ordering::Relaxed); // lint: relaxed-ok(test-only single-threaded counter)
        slab.get(3).0.fetch_add(1, Ordering::Relaxed); // lint: relaxed-ok(test-only single-threaded counter)
        assert_eq!(slab.allocated(), 1);
        assert_eq!(slab.peek(3).unwrap().0.load(Ordering::Relaxed), 2); // lint: relaxed-ok(test-only single-threaded counter)
        assert!(slab.peek(99).is_none(), "out-of-range peek is None");
    }

    #[test]
    fn concurrent_first_touch_yields_one_object() {
        let slab: Arc<ComparatorSlab<Counter>> = Arc::new(ComparatorSlab::new(4));
        std::thread::scope(|scope| {
            for _ in 0..8 {
                let slab = Arc::clone(&slab);
                scope.spawn(move || {
                    for slot in 0..4 {
                        slab.get(slot).0.fetch_add(1, Ordering::Relaxed); // lint: relaxed-ok(test-only counter; threads joined before the assert)
                    }
                });
            }
        });
        assert_eq!(slab.allocated(), 4);
        for slot in 0..4 {
            // lint: relaxed-ok(test-only counter; threads joined before the assert)
            assert_eq!(slab.get(slot).0.load(Ordering::Relaxed), 8, "slot {slot}");
        }
    }

    #[test]
    fn concurrent_first_touch_yields_one_comparator() {
        // The slab's real cell type: two processes race to create each
        // comparator and play opposite sides of it; each slot ends up with
        // one object and that object with one winner.
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
        assert_eq!(slab.allocated(), 4);
        for (slot, (top, bottom)) in wins[0].iter().zip(&wins[1]).enumerate() {
            assert!(top ^ bottom, "slot {slot}: one winner");
            assert!(slab.peek(slot).unwrap().has_winner());
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
        assert_eq!(slab.allocated(), 0);
        assert!(format!("{slab:?}").contains("ComparatorSlab"));
    }
}
