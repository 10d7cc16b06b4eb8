//! A lock-free, lazily grown table of shared objects keyed by `u64`.
//!
//! Several one-shot objects are conceptually infinite: a splitter tree of
//! unbounded height, a comparator network with billions of channels. Only
//! the parts some process actually reaches may be built, and the lookup
//! sits on the step-counted hot path, so it must not take a lock or hash.
//! [`LazyTable`] is a radix tree of 64-way nodes:
//!
//! * A key's *height* is the number of 6-bit digits it needs (1 for keys
//!   below 64, 2 below 4096, ..., 11 for the full 64-bit range). Keys of
//!   each height hang off their own root, so small keys pay for short
//!   paths: a key below 2¹⁸ resolves in three dependent acquire loads.
//! * Every child pointer is an `AtomicPtr`, null until a first touch builds
//!   the child and publishes it with one compare-and-swap. A contender that
//!   loses that race frees its copy and uses the winner's, so no first
//!   touch ever waits for another, and every later read is one acquire
//!   load per level.
//! * Lookups return `&T` borrowed from the table: no reference counting.
//! * A leaf holds its 64 values inline. When it is built it reserves one
//!   block of `64 × T::LOCS` location ids and builds value *i* in place at
//!   the block's *i*-th sub-block ([`InPlace`]). Playing or entering a value
//!   of an existing leaf therefore allocates nothing and draws no id, and a
//!   value counts as used once one of its registers has left its initial
//!   state ([`LazyTable::touched`]).
//!
//! Keys can be sparse: under one leaf of a renaming network's level-4
//! section a round of 256 acquisitions reaches about 11 of the 64
//! comparators. Inline values are still the cheaper layout there, because
//! a comparator is small: 64 32-byte `TwoProcessTas` values make a 2 KiB
//! leaf, where a leaf of boxed values is 1 KiB of pointers plus one
//! ~96-byte box per key reached. Building a leaf is one allocation, and
//! dropping the table frees one block per leaf rather than one per value.
//! (With 80-byte values that each drew their own location id, inline
//! leaves were the larger layout.)
//!
//! # Example
//!
//! ```
//! use shmem::lazy::LazyTable;
//! use shmem::process::{ProcessCtx, ProcessId};
//! use shmem::register::RegisterBlock;
//!
//! let table: LazyTable<RegisterBlock<2>> = LazyTable::new();
//! let mut ctx = ProcessCtx::new(ProcessId::new(0), 1);
//! assert_eq!(table.touched(), 0);
//! table.get(1 << 40).write(&mut ctx, 1, 7);
//! assert_eq!(table.get(1 << 40).peek(1), 7);
//! assert_eq!(table.get(3).peek(1), 0, "values start in their initial state");
//! assert_eq!(table.touched(), 1);
//! assert_ne!(table.get(3).loc(0), table.get(4).loc(0));
//! ```

// Nodes are published through `AtomicPtr`s and freed from raw pointers;
// every unsafe block of the crate outside `arena` and `procs` is here.
#![allow(unsafe_code)]

use crate::register::InPlace;
use crate::vexec::Loc;
use std::fmt;
use std::marker::PhantomData;
use std::ptr;
use std::sync::atomic::{AtomicPtr, Ordering};

/// Bits of key consumed per tree level.
const DIGIT_BITS: u32 = 6;

/// Fan-out of every node.
const FANOUT: usize = 1 << DIGIT_BITS;

/// Tree heights needed to cover every `u64` key.
const HEIGHTS: usize = u64::BITS.div_ceil(DIGIT_BITS) as usize;

/// An interior node: one child pointer per digit, null until the child is
/// published. A child of a node of height `h` heads a subtree of height
/// `h - 1`: a `Branch` if that is above 1, a [`Leaf`] otherwise.
type Branch = [AtomicPtr<()>; FANOUT];

/// A node of height 1: the values of 64 consecutive keys, built in place.
type Leaf<T> = [T; FANOUT];

/// Builds an empty node heading a subtree of the given height, for
/// publication in a child slot.
fn new_node<T: InPlace>(height: usize) -> *mut () {
    if height == 1 {
        let base = Loc::fresh_block(FANOUT as u64 * T::LOCS);
        let values: Box<[T]> = (0..FANOUT as u64)
            .map(|i| T::at(base.offset(i * T::LOCS)))
            .collect();
        let leaf: Box<Leaf<T>> = values.try_into().ok().expect("a leaf has FANOUT values");
        Box::into_raw(leaf).cast()
    } else {
        let branch: Box<Branch> = Box::new(std::array::from_fn(|_| AtomicPtr::default()));
        Box::into_raw(branch).cast()
    }
}

/// Frees the subtree of the given height headed by `node`, if any.
///
/// # Safety
///
/// `node` is null or came from `new_node::<T>(height)`, and no reference
/// into the subtree outlives this call.
unsafe fn free_node<T>(node: *mut (), height: usize) {
    if node.is_null() {
        return;
    }
    if height == 1 {
        // SAFETY: a node of height 1 is a boxed leaf (caller's contract).
        drop(unsafe { Box::from_raw(node.cast::<Leaf<T>>()) });
    } else {
        // SAFETY: a node above height 1 is a boxed branch (caller's
        // contract), and its children head subtrees one level lower.
        let branch = unsafe { Box::from_raw(node.cast::<Branch>()) };
        for child in *branch {
            unsafe { free_node::<T>(child.into_inner(), height - 1) };
        }
    }
}

/// Number of 6-bit digits in `key` (at least 1).
fn height(key: u64) -> usize {
    let bits = u64::BITS - key.leading_zeros();
    bits.div_ceil(DIGIT_BITS).max(1) as usize
}

/// The digit of `key` selecting the child at a node of the given height.
fn digit(key: u64, height: usize) -> usize {
    ((key >> (DIGIT_BITS * (height as u32 - 1))) as usize) & (FANOUT - 1)
}

/// A lazily grown map from `u64` keys to objects built in place.
///
/// See the [module documentation](self) for the layout. Objects are never
/// removed; they are dropped with the table.
pub struct LazyTable<T> {
    /// `roots[h - 1]` heads the tree of all keys of height `h`.
    roots: [AtomicPtr<()>; HEIGHTS],
    /// The table owns the values in its leaves.
    values: PhantomData<Box<T>>,
}

// SAFETY: a shared table hands out `&T` on every thread that shares it, and
// any of them may build a leaf whose values the owner later drops, so it is
// `Sync` exactly when `OnceLock<T>` is.
unsafe impl<T: Send + Sync> Sync for LazyTable<T> {}

impl<T> LazyTable<T> {
    /// Creates an empty table (allocates nothing).
    pub fn new() -> Self {
        LazyTable {
            roots: std::array::from_fn(|_| AtomicPtr::default()),
            values: PhantomData,
        }
    }

    /// Calls `visit` on every leaf built so far.
    fn for_each_leaf(&self, visit: &mut dyn FnMut(&Leaf<T>)) {
        fn walk<T>(node: *const (), height: usize, visit: &mut dyn FnMut(&Leaf<T>)) {
            if node.is_null() {
                return;
            }
            if height == 1 {
                // SAFETY: a published node of height 1 is a leaf, alive for
                // as long as the table is borrowed.
                visit(unsafe { &*node.cast::<Leaf<T>>() });
            } else {
                // SAFETY: as above, for a branch.
                let branch = unsafe { &*node.cast::<Branch>() };
                for child in branch {
                    walk(child.load(Ordering::Acquire), height - 1, visit);
                }
            }
        }
        for (index, root) in self.roots.iter().enumerate() {
            walk(root.load(Ordering::Acquire), index + 1, visit);
        }
    }
}

impl<T: InPlace> LazyTable<T> {
    /// The object at `key`, built (with the rest of its leaf) on first
    /// touch. Concurrent first touches of one key all return one object.
    #[inline]
    pub fn get(&self, key: u64) -> &T {
        let mut level = height(key);
        let mut node = Self::node(&self.roots[level - 1], level);
        while level > 1 {
            // SAFETY: a published node above height 1 is a branch, and
            // published nodes live until the table drops.
            let branch = unsafe { &*node.cast::<Branch>() };
            node = Self::node(&branch[digit(key, level)], level - 1);
            level -= 1;
        }
        // SAFETY: a published node of height 1 is a leaf (as above).
        let leaf = unsafe { &*node.cast::<Leaf<T>>() };
        &leaf[digit(key, 1)]
    }

    /// The node heading the subtree of the given height at `slot`.
    #[inline]
    fn node(slot: &AtomicPtr<()>, height: usize) -> *const () {
        let node = slot.load(Ordering::Acquire);
        if node.is_null() {
            Self::publish(slot, height)
        } else {
            node
        }
    }

    /// Builds the node for an empty `slot` and publishes it, or, if another
    /// contender published one first, frees this copy and returns that one.
    #[cold]
    fn publish(slot: &AtomicPtr<()>, height: usize) -> *const () {
        let fresh = new_node::<T>(height);
        match slot.compare_exchange(ptr::null_mut(), fresh, Ordering::Release, Ordering::Acquire) {
            Ok(_) => fresh,
            Err(winner) => {
                // SAFETY: `fresh` was never published, so nothing else
                // refers to it.
                unsafe { free_node::<T>(fresh, height) };
                winner
            }
        }
    }

    /// Number of objects some process has touched (harness inspection;
    /// walks every leaf).
    pub fn touched(&self) -> usize {
        let mut touched = 0;
        self.for_each_leaf(&mut |leaf| {
            touched += leaf.iter().filter(|value| value.touched()).count();
        });
        touched
    }
}

impl<T> Drop for LazyTable<T> {
    fn drop(&mut self) {
        for (index, root) in self.roots.iter_mut().enumerate() {
            // SAFETY: every published root of height `index + 1` came from
            // `new_node` at that height, and `&mut self` means no borrow
            // into the table is left.
            unsafe { free_node::<T>(*root.get_mut(), index + 1) };
        }
    }
}

impl<T> Default for LazyTable<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: InPlace> fmt::Debug for LazyTable<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("LazyTable")
            .field("touched", &self.touched())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::process::{ProcessCtx, ProcessId};
    use crate::register::RegisterBlock;
    use std::collections::BTreeSet;
    use std::sync::atomic::AtomicUsize;
    use std::sync::Barrier;

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

    impl Counter {
        fn touch(&self) {
            self.count.fetch_add(1, Ordering::SeqCst);
        }
    }

    fn leaves<T>(table: &LazyTable<T>) -> usize {
        let mut leaves = 0;
        table.for_each_leaf(&mut |_| leaves += 1);
        leaves
    }

    #[test]
    fn heights_cover_the_key_space() {
        assert_eq!(HEIGHTS, 11);
        assert_eq!(height(0), 1);
        assert_eq!(height(63), 1);
        assert_eq!(height(64), 2);
        assert_eq!(height(4095), 2);
        assert_eq!(height(4096), 3);
        assert_eq!(height(1 << 60), 11);
        assert_eq!(height(u64::MAX), 11);
    }

    #[test]
    fn cells_initialize_lazily_and_once() {
        let table: LazyTable<Counter> = LazyTable::new();
        assert_eq!((table.touched(), leaves(&table)), (0, 0));
        for _ in 0..2 {
            table.get(5).touch();
        }
        assert_eq!((table.touched(), leaves(&table)), (1, 1));
        assert_eq!(table.get(5).count.load(Ordering::SeqCst), 2);
        assert_eq!(table.get(6).count.load(Ordering::SeqCst), 0);
        assert!(format!("{table:?}").contains("touched: 1"));
    }

    #[test]
    fn extreme_keys_land_in_distinct_cells() {
        // Around 2^60: the deepest `TempName` splitters (depth 59) sit just
        // below it and its overflow names start at it.
        let keys = [
            0,
            1,
            63,
            64,
            (1 << 60) - 1,
            1 << 60,
            (1 << 60) + 1,
            u64::MAX - 1,
            u64::MAX,
        ];
        let table: LazyTable<Counter> = LazyTable::new();
        let mut locs = BTreeSet::new();
        for &key in &keys {
            let cell = table.get(key);
            cell.touch();
            assert!(locs.insert(cell.loc), "key {key:#x}: loc shared");
        }
        for &key in &keys {
            assert_eq!(table.get(key).count.load(Ordering::SeqCst), 1, "{key:#x}");
        }
        assert_eq!(table.touched(), keys.len());
    }

    #[test]
    fn registers_of_one_leaf_and_of_two_leaves_never_share_a_loc() {
        let table: LazyTable<RegisterBlock<3>> = LazyTable::new();
        let mut locs = BTreeSet::new();
        for key in 0..2 * FANOUT as u64 {
            for word in 0..3 {
                assert!(
                    locs.insert(table.get(key).loc(word)),
                    "key {key}, word {word}"
                );
            }
        }
        assert_eq!(leaves(&table), 2);
        assert_eq!(table.touched(), 0, "building a leaf touches none of it");
    }

    #[test]
    fn concurrent_first_touch_yields_one_object_per_key() {
        // Keys spread over several heights and leaves, touched by eight
        // threads at once in different orders; every thread must get the
        // same object for a key, however many copies of a node were built
        // and freed on the way.
        #[cfg(not(miri))]
        const KEYS: u64 = 512;
        #[cfg(miri)]
        const KEYS: u64 = 16;
        let key = |i: u64| i.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (i % 64);
        let table: LazyTable<Counter> = LazyTable::new();
        let seen: Vec<Vec<(u64, usize)>> = std::thread::scope(|scope| {
            let threads: Vec<_> = (0..8u64)
                .map(|thread| {
                    let table = &table;
                    scope.spawn(move || {
                        (0..KEYS)
                            .map(|i| {
                                let k = key((i + thread * 7) % KEYS);
                                let cell = table.get(k);
                                cell.touch();
                                (k, cell as *const Counter as usize)
                            })
                            .collect()
                    })
                })
                .collect();
            threads.into_iter().map(|t| t.join().unwrap()).collect()
        });
        let distinct: BTreeSet<u64> = (0..KEYS).map(key).collect();
        assert_eq!(table.touched(), distinct.len());
        for &(k, address) in seen.iter().flatten() {
            assert_eq!(
                table.get(k) as *const Counter as usize,
                address,
                "key {k:#x}"
            );
        }
        for &k in &distinct {
            let touches = (0..KEYS).filter(|&i| key(i) == k).count() * 8;
            assert_eq!(table.get(k).count.load(Ordering::SeqCst), touches);
        }
    }

    #[test]
    fn two_threads_racing_to_build_one_leaf_keep_one_leaf_and_one_winner_each() {
        // Both threads start at once on the same empty leaf and play a
        // one-CAS test-and-set at each of its 64 keys: one copy of the leaf
        // is published (the other is freed), and each value has one winner.
        let table: LazyTable<RegisterBlock<1>> = LazyTable::new();
        let start = Barrier::new(2);
        let wins: Vec<Vec<bool>> = std::thread::scope(|scope| {
            let players: Vec<_> = (0..2u8)
                .map(|id| {
                    let (table, start) = (&table, &start);
                    scope.spawn(move || {
                        let mut ctx = ProcessCtx::new(ProcessId::new(id.into()), 1);
                        start.wait();
                        (0..FANOUT as u64)
                            .map(|key| {
                                let game = table.get(key);
                                game.compare_and_swap(&mut ctx, 0, 0, id + 1).is_ok()
                            })
                            .collect()
                    })
                })
                .collect();
            players.into_iter().map(|p| p.join().unwrap()).collect()
        });
        assert_eq!(leaves(&table), 1);
        assert_eq!(table.touched(), FANOUT);
        for (key, (&first, &second)) in wins[0].iter().zip(&wins[1]).enumerate() {
            assert!(first ^ second, "key {key}: one winner");
            let winner = if first { 1 } else { 2 };
            assert_eq!(table.get(key as u64).peek(0), winner);
        }
    }
}
