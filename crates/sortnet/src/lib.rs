//! Comparator and sorting networks.
//!
//! The renaming networks of the PODC 2011 paper are sorting networks whose
//! comparators have been replaced by two-process test-and-set objects (§5).
//! This crate provides the sorting-network substrate:
//!
//! * [`network`] — [`ComparatorNetwork`], the one materialized network:
//!   stages of disjoint comparators in a flat wire map over a dense,
//!   stage-major comparator index, with O(1) "which comparator touches my
//!   wire?" queries, application to inputs and depth/size metrics. Any
//!   schedule compiles into it; the dense index addresses the lock-free
//!   comparator slab of the renaming engine.
//! * [`schedule`] — the [`ComparatorSchedule`]
//!   abstraction: "which comparator (if any) touches wire `w` in stage `s`?".
//!   Analytic schedules answer it arithmetically, so arbitrarily wide
//!   networks (the adaptive construction's outer levels) can be queried
//!   without materializing millions of comparators.
//! * [`batcher`] — Batcher's odd-even mergesort, both materialized and as an
//!   analytic schedule; the constructible `O(log² n)`-depth family the paper
//!   suggests in place of the impractical AKS network.
//! * [`bitonic`] — an ascending-comparator variant of Batcher's bitonic
//!   sorter (materialized).
//! * [`transposition`] — the odd-even transposition ("brick wall") network,
//!   a simple `Θ(n)`-depth reference network used in tests.
//! * [`adaptive`] — the paper's §6.1 recursive "sandwich" construction of an
//!   unbounded-width sorting network whose truncations are sorting networks
//!   and in which a value entering wire `n` and leaving wire `m` traverses
//!   only `O(log^c max(n, m))` comparators.
//! * [`family`] — named network families with depth formulas (including the
//!   AKS depth oracle used for analytic comparisons).
//! * [`verify`] — zero-one-principle verification, exhaustive and randomized.
//!
//! # Example
//!
//! ```
//! use sortnet::batcher::odd_even_network;
//! use sortnet::verify::schedule_sorts_exhaustive;
//!
//! let network = odd_even_network(8);
//! assert!(schedule_sorts_exhaustive(&network));
//! assert_eq!(network.apply(&[5, 3, 8, 1, 9, 2, 7, 4]), vec![1, 2, 3, 4, 5, 7, 8, 9]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod adaptive;
pub mod batcher;
pub mod bitonic;
pub mod family;
pub mod network;
pub mod periodic;
pub mod schedule;
pub mod transposition;
pub mod verify;

pub use adaptive::AdaptiveNetwork;
pub use batcher::{odd_even_network, OddEvenSchedule};
pub use bitonic::bitonic_network;
pub use family::{NetworkFamily, SortingFamily};
pub use network::{Comparator, ComparatorNetwork};
pub use periodic::periodic_network;
pub use schedule::ComparatorSchedule;
pub use transposition::transposition_network;
