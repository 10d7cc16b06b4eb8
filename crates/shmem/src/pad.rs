//! Cache-line padding for contended shared words.
//!
//! The simulated cost model counts *steps*, but the wall-clock experiments in
//! `perfbench` also care about mechanical sympathy: two logically
//! independent atomic words that share a cache line serialize on real
//! hardware through coherence traffic (false sharing). [`CachePadded`] is a
//! zero-logic wrapper that aligns its contents to a 64-byte boundary so every
//! wrapped word owns its line. It is used for balancer toggle words, counting
//! network exit wires, elimination-prism slots and free-list summary words —
//! the places profiles show neighbouring hot words.
//!
//! The alignment is fixed at 64 bytes, the line size of the x86-64 machines
//! the benchmarks run on. (Some ARM parts prefetch in 128-byte pairs; padding
//! there would want 128. The constant lives in one place so that is a
//! one-line change.)

use std::ops::{Deref, DerefMut};

/// Pads and aligns a value to a 64-byte cache line to avoid false sharing.
///
/// `CachePadded<T>` derefs to `T`, so wrapped atomics are used exactly as the
/// bare value would be:
///
/// ```
/// use shmem::pad::CachePadded;
/// use std::sync::atomic::{AtomicU64, Ordering};
///
/// let counters: Vec<CachePadded<AtomicU64>> =
///     (0..4).map(|_| CachePadded::new(AtomicU64::new(0))).collect();
/// counters[2].fetch_add(1, Ordering::Relaxed);
/// assert_eq!(counters[2].load(Ordering::Relaxed), 1);
/// // Each element owns a full line: no two elements share one.
/// assert_eq!(std::mem::align_of::<CachePadded<AtomicU64>>(), 64);
/// ```
#[derive(Debug, Default)]
#[repr(align(64))]
pub struct CachePadded<T> {
    value: T,
}

impl<T> CachePadded<T> {
    /// Wraps a value in cache-line padding.
    pub const fn new(value: T) -> Self {
        CachePadded { value }
    }

    /// Unwraps the padded value.
    pub fn into_inner(self) -> T {
        self.value
    }
}

impl<T> Deref for CachePadded<T> {
    type Target = T;

    fn deref(&self) -> &T {
        &self.value
    }
}

impl<T> DerefMut for CachePadded<T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.value
    }
}

impl<T> From<T> for CachePadded<T> {
    fn from(value: T) -> Self {
        CachePadded::new(value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    #[test]
    fn padded_values_occupy_distinct_lines() {
        let slots: Vec<CachePadded<AtomicU64>> = (0..8)
            .map(|_| CachePadded::new(AtomicU64::new(0)))
            .collect();
        assert_eq!(std::mem::size_of::<CachePadded<AtomicU64>>(), 64);
        assert_eq!(std::mem::align_of::<CachePadded<AtomicU64>>(), 64);
        let base = &*slots[0] as *const AtomicU64 as usize;
        let next = &*slots[1] as *const AtomicU64 as usize;
        assert!(next - base >= 64, "adjacent elements must not share a line");
    }

    #[test]
    fn deref_and_into_inner_round_trip() {
        let mut padded = CachePadded::new(41u64);
        *padded += 1;
        assert_eq!(*padded, 42);
        assert_eq!(padded.into_inner(), 42);

        let from: CachePadded<u64> = 7u64.into();
        assert_eq!(*from, 7);

        let atomic = CachePadded::new(AtomicU64::new(5));
        atomic.fetch_add(2, Ordering::Relaxed);
        assert_eq!(atomic.into_inner().into_inner(), 7);
    }
}
