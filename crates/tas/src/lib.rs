//! Test-and-set objects for asynchronous shared memory.
//!
//! Every renaming algorithm in the PODC 2011 paper is driven by test-and-set:
//! *BitBatching* (§4) assigns names by winning one of `n` adaptive
//! test-and-set objects, and the *renaming network* (§5–6) replaces every
//! comparator of a sorting network with a two-process test-and-set. This crate
//! provides the full menagerie the paper relies on:
//!
//! * [`HardwareTas`] — an atomic-swap test-and-set,
//!   the "unit cost" object the paper's hardware-assisted bounds assume
//!   (§1 Discussion, §2).
//! * [`TwoProcessTas`] — a randomized wait-free
//!   two-process test-and-set built from read/write registers, in the spirit
//!   of Tromp–Vitányi \[20\]: rounds of a register-based commit-adopt gadget
//!   plus a randomized race.
//! * [`RandomizedSplitter`] — the randomized
//!   splitter of Attiya et al. \[25\], the building block of the `TempName`
//!   stage and of the RatRace tree.
//! * [`RatRaceTas`] — an adaptive `n`-process
//!   test-and-set in the style of RatRace \[12\]: a randomized splitter tree
//!   in which the acquirer of a node climbs back to the root through
//!   three-player tournaments of two-process test-and-sets. Its step
//!   complexity is polylogarithmic in the contention `k`, not in `n`.
//!
//! All objects are *one-shot*: each process invokes them at most once, and at
//! most one process ever wins.
//!
//! # Example
//!
//! ```
//! use shmem::adversary::ExecConfig;
//! use shmem::executor::Executor;
//! use std::sync::Arc;
//! use tas::ratrace::RatRaceTas;
//! use tas::TestAndSet;
//!
//! let tas = Arc::new(RatRaceTas::new());
//! let outcome = Executor::new(ExecConfig::new(5)).run(8, {
//!     let tas = Arc::clone(&tas);
//!     move |ctx| tas.test_and_set(ctx)
//! });
//! let winners = outcome.results().into_iter().filter(|w| *w).count();
//! assert_eq!(winners, 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod hardware;
pub mod ratrace;
pub mod splitter;
pub mod two_process;

pub use hardware::HardwareTas;
pub use ratrace::RatRaceTas;
pub use splitter::{RandomizedSplitter, SplitterOutcome};
pub use two_process::TwoProcessTas;

use shmem::process::ProcessCtx;

/// A one-shot `n`-process test-and-set object.
///
/// At most one invocation returns `true` ("wins"); all others return `false`
/// ("lose"). If a single process invokes the object and runs to completion, it
/// wins. Objects are not resettable.
pub trait TestAndSet: Send + Sync {
    /// Competes in the test-and-set, returning `true` if this process wins.
    fn test_and_set(&self, ctx: &mut ProcessCtx) -> bool;

    /// Whether some process has already won this object.
    ///
    /// This is a harness-level inspection hook (it charges no steps) used by
    /// tests and experiments; algorithms never call it.
    fn has_winner(&self) -> bool;
}

/// The side a process plays in a two-party object.
///
/// Two-process test-and-set objects distinguish their two potential
/// participants by a statically assigned side: in a renaming network the
/// process arriving on the comparator's top wire plays [`Side::Top`] and the
/// process arriving on the bottom wire plays [`Side::Bottom`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Side {
    /// The first participant (top wire of a comparator).
    Top,
    /// The second participant (bottom wire of a comparator).
    Bottom,
}

impl Side {
    /// The opposite side.
    pub fn other(self) -> Side {
        match self {
            Side::Top => Side::Bottom,
            Side::Bottom => Side::Top,
        }
    }

    /// Index of this side (0 for top, 1 for bottom).
    pub fn index(self) -> usize {
        match self {
            Side::Top => 0,
            Side::Bottom => 1,
        }
    }
}

/// A one-shot two-process test-and-set object.
///
/// Exactly two potential participants exist, distinguished by [`Side`]. At
/// most one of them wins; a participant that runs alone wins.
pub trait TwoPartyTas: Send + Sync {
    /// Competes on the given side, returning `true` if this process wins.
    fn play(&self, ctx: &mut ProcessCtx, side: Side) -> bool;

    /// Whether some process has already won this object (harness inspection
    /// hook; charges no steps).
    fn has_winner(&self) -> bool;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn side_other_and_index_are_consistent() {
        assert_eq!(Side::Top.other(), Side::Bottom);
        assert_eq!(Side::Bottom.other(), Side::Top);
        assert_eq!(Side::Top.index(), 0);
        assert_eq!(Side::Bottom.index(), 1);
        assert_ne!(Side::Top, Side::Bottom);
    }
}
