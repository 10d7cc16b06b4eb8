//! A lock-free, lazily grown table of shared objects keyed by `u64`.
//!
//! Several one-shot objects are conceptually infinite: a splitter tree of
//! unbounded height, a comparator network with billions of channels. Only
//! the cells some process actually reaches may be allocated, and the lookup
//! sits on the step-counted hot path, so it must not take a lock or hash.
//! [`LazyTable`] is a radix tree of 64-way [`OnceLock`] nodes:
//!
//! * A key's *height* is the number of 6-bit digits it needs (1 for keys
//!   below 64, 2 below 4096, ..., 11 for the full 64-bit range). Keys of
//!   each height hang off their own root, so small keys pay for short
//!   paths: a key below 2¹⁸ resolves in three dependent acquire loads.
//! * Each level is a `OnceLock`: every contender resolves first touch to the
//!   same node or object, and every later read is one acquire load. The only
//!   blocking is per-cell and one-time — a contender arriving while a cell's
//!   initializer runs waits for it — exactly like
//!   `adaptive_renaming::comparator_slab::ComparatorSlab`.
//! * Lookups return `&T` borrowed from the table: no reference counting.
//! * Leaves hold boxed values, so a leaf costs 64 pointer-sized cells (1 KiB)
//!   however few of its keys are used, and a value's memory is allocated
//!   only when its own key is touched. This matters because keys can be
//!   sparse: in a renaming network's outer sections few of the comparators
//!   under one 64-key leaf are ever reached, so inline values would make a
//!   leaf many times larger than the objects in it.
//!
//! # Example
//!
//! ```
//! use shmem::lazy::LazyTable;
//!
//! let table: LazyTable<String> = LazyTable::new();
//! assert_eq!(table.allocated(), 0);
//! assert_eq!(table.get_or_init(1 << 40, || "far".into()), "far");
//! assert_eq!(table.get_or_init(1 << 40, || "never built".into()), "far");
//! assert_eq!(table.get_or_init(3, String::new), "");
//! assert_eq!(table.allocated(), 2);
//! ```

use std::fmt;
use std::sync::OnceLock;

/// Bits of key consumed per tree level.
const DIGIT_BITS: u32 = 6;

/// Fan-out of every node.
const FANOUT: usize = 1 << DIGIT_BITS;

/// Tree heights needed to cover every `u64` key.
const HEIGHTS: usize = u64::BITS.div_ceil(DIGIT_BITS) as usize;

/// One node: interior nodes point at children one level down, leaves hold
/// the values.
enum Node<T> {
    Branch(Box<[OnceLock<Node<T>>]>),
    Leaf(Box<[OnceLock<Box<T>>]>),
}

impl<T> Node<T> {
    /// An empty node heading a subtree of the given height (1 = leaf).
    fn new(height: usize) -> Self {
        if height == 1 {
            Node::Leaf((0..FANOUT).map(|_| OnceLock::new()).collect())
        } else {
            Node::Branch((0..FANOUT).map(|_| OnceLock::new()).collect())
        }
    }

    fn allocated(&self) -> usize {
        match self {
            Node::Branch(children) => children
                .iter()
                .filter_map(OnceLock::get)
                .map(Node::allocated)
                .sum(),
            Node::Leaf(cells) => cells.iter().filter(|cell| cell.get().is_some()).count(),
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

/// A lazily grown map from `u64` keys to objects created on first touch.
///
/// See the [module documentation](self) for the layout. Objects are never
/// removed; they are dropped with the table.
pub struct LazyTable<T> {
    /// `roots[h - 1]` heads the tree of all keys of height `h`.
    roots: [OnceLock<Node<T>>; HEIGHTS],
}

impl<T> LazyTable<T> {
    /// Creates an empty table (allocates nothing).
    pub fn new() -> Self {
        LazyTable {
            roots: std::array::from_fn(|_| OnceLock::new()),
        }
    }

    /// The object at `key`, created by `init` on first touch. Concurrent
    /// first touches of one key run `init` once and all return that object.
    #[inline]
    pub fn get_or_init<F: FnOnce() -> T>(&self, key: u64, init: F) -> &T {
        let mut level = height(key);
        let mut node = self.roots[level - 1].get_or_init(|| Node::new(level));
        loop {
            match node {
                Node::Branch(children) => {
                    node = children[digit(key, level)].get_or_init(|| Node::new(level - 1));
                    level -= 1;
                }
                Node::Leaf(cells) => {
                    return cells[digit(key, 1)].get_or_init(|| Box::new(init()));
                }
            }
        }
    }

    /// Number of objects created so far (harness inspection; walks every
    /// allocated node).
    pub fn allocated(&self) -> usize {
        self.roots
            .iter()
            .filter_map(OnceLock::get)
            .map(Node::allocated)
            .sum()
    }
}

impl<T> Default for LazyTable<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> fmt::Debug for LazyTable<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("LazyTable")
            .field("allocated", &self.allocated())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[derive(Default)]
    struct Counter(AtomicUsize);

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
        assert_eq!(table.allocated(), 0);
        for _ in 0..2 {
            table
                .get_or_init(5, Counter::default)
                .0
                .fetch_add(1, Ordering::Relaxed); // lint: relaxed-ok(test-only single-threaded counter)
        }
        assert_eq!(table.allocated(), 1);
        let again = table.get_or_init(5, || unreachable!("cell 5 exists"));
        assert_eq!(again.0.load(Ordering::Relaxed), 2); // lint: relaxed-ok(test-only single-threaded counter)
        assert!(format!("{table:?}").contains("allocated: 1"));
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
        let table: LazyTable<u64> = LazyTable::new();
        for &key in &keys {
            assert_eq!(*table.get_or_init(key, || key), key);
        }
        for &key in &keys {
            let found = table.get_or_init(key, || unreachable!("key {key:#x} exists"));
            assert_eq!(*found, key);
        }
        assert_eq!(table.allocated(), keys.len());
    }

    #[test]
    fn concurrent_first_touch_yields_one_object_per_key() {
        // Keys spread over several heights and leaves, touched by eight
        // threads at once in different orders; each key's initializer must
        // run exactly once and every thread must see that object.
        #[cfg(not(miri))]
        const KEYS: u64 = 512;
        #[cfg(miri)]
        const KEYS: u64 = 16;
        let key = |i: u64| i.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (i % 64);
        let inits = AtomicUsize::new(0);
        let table: LazyTable<Counter> = LazyTable::new();
        std::thread::scope(|scope| {
            for thread in 0..8u64 {
                let (table, inits) = (&table, &inits);
                scope.spawn(move || {
                    for i in 0..KEYS {
                        let i = (i + thread * 7) % KEYS;
                        let cell = table.get_or_init(key(i), || {
                            inits.fetch_add(1, Ordering::SeqCst);
                            Counter::default()
                        });
                        cell.0.fetch_add(1, Ordering::SeqCst);
                    }
                });
            }
        });
        let distinct: std::collections::BTreeSet<u64> = (0..KEYS).map(key).collect();
        assert_eq!(inits.load(Ordering::SeqCst), distinct.len());
        assert_eq!(table.allocated(), distinct.len());
        for &k in &distinct {
            let touches = (0..KEYS).filter(|&i| key(i) == k).count() * 8;
            let cell = table.get_or_init(k, || unreachable!("every key was touched"));
            assert_eq!(cell.0.load(Ordering::SeqCst), touches);
        }
    }
}
