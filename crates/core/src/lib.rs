//! Adaptive strong renaming, with applications to counting.
//!
//! This crate is a from-scratch Rust reproduction of the algorithms of
//! Alistarh, Aspnes, Censor-Hillel, Gilbert and Zadimoghaddam,
//! *Optimal-Time Adaptive Strong Renaming, with Applications to Counting*
//! (PODC 2011). It provides:
//!
//! * [`BitBatchingRenaming`] — the §4
//!   non-adaptive strong renaming algorithm: `n` processes obtain names
//!   `1..=n` by repeatedly sampling test-and-set objects over geometrically
//!   shrinking batches, using `O(log² n)` test-and-set probes per process with
//!   high probability.
//! * [`RenamingNetwork`] — the §5
//!   construction: any sorting network becomes a strong adaptive renaming
//!   object by replacing comparators with two-process test-and-sets. Runs on
//!   the compiled engine: the schedule is lowered to flat wire-map arrays and
//!   the test-and-sets live in a lock-free
//!   [`ComparatorSlab`], so a comparator
//!   play costs one array load on top of the test-and-set itself.
//! * [`TempName`] — the §6.2 first stage: a randomized
//!   splitter tree assigning temporary names polynomial in the contention `k`.
//! * [`AdaptiveRenaming`] — the paper's headline
//!   result (§6): strong adaptive renaming into exactly `1..=k` with `O(log k)`
//!   expected step complexity, built from `TempName` plus a renaming network
//!   over the §6.1 unbounded adaptive sorting network.
//! * [`LinearProbeRenaming`] — the folklore
//!   `Θ(k)`-step baseline the paper's introduction compares against.
//! * [`MonotoneCounter`] — the §8.1
//!   monotone-consistent counter (renaming + max register), plus a
//!   compare-and-swap baseline counter and the `cnet` counting-network
//!   counters behind one facade: `<dyn Counter>::builder()` selects among
//!   [`CounterBackend::Monotone`], [`CounterBackend::FetchAdd`],
//!   [`CounterBackend::Network`] and [`CounterBackend::Adaptive`].
//! * [`BoundedTas`] and
//!   [`BoundedFetchIncrement`] — the
//!   §8.2 linearizable ℓ-test-and-set and m-valued fetch-and-increment.
//!
//! Beyond the paper, the crate extends the one-shot objects to *long-lived*
//! renaming: [`Renaming::builder()`](traits::Renaming) (spelled
//! `<dyn Renaming>::builder()`) is the unified construction facade for every
//! algorithm, and [`Recycler`] turns any of them into a
//! [`LongLivedRenaming`] object whose
//! [`NameLease`] guards recycle released names through a
//! lock-free [`FreeList`] (a two-level bitmap with an `O(1)`-expected
//! lowest-free-name pop). The builder's default long-lived object gives its
//! recycler a per-thread *escrow* (`.escrow_quota(q)`, `q = 8`): a release
//! parks the name in the calling thread's own cache-line slot and the
//! thread's next lease takes it back, so steady churn touches no shared
//! line, at the price of the per-grant tight bound (see the [`recycler`]
//! module docs for the exact bound). `.escrow_quota(0)` builds the bare
//! recycler, whose every grant is tight.
//!
//! # Quick start
//!
//! ```
//! use adaptive_renaming::traits::Renaming;
//! use shmem::adversary::ExecConfig;
//! use shmem::vexec::VirtualExecutor;
//!
//! // Eight processes acquire names 1..=8 from the paper's adaptive strong
//! // renaming algorithm on a seeded virtual schedule.
//! let renaming = <dyn Renaming>::builder().build().unwrap();
//! let outcome = VirtualExecutor::new(ExecConfig::new(7)).run(8, {
//!     let renaming = renaming.clone();
//!     move |ctx| renaming.acquire(ctx).expect("adaptive renaming never fails")
//! }).outcome;
//! assert_eq!(outcome.results_sorted(), (1..=8).collect::<Vec<_>>());
//! ```
//!
//! For the long-lived surface — leases, recycling, churn — see the
//! [`lease`] and [`recycler`] module documentation.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod adaptive;
pub mod backoff;
pub mod bit_batching;
pub mod builder;
pub mod comparator_slab;
pub mod counter;
pub mod error;
pub mod fetch_increment;
pub mod free_list;
pub mod lease;
pub mod linear_probe;
pub mod ltas;
pub mod recovery;
pub mod recycler;
pub mod renaming_network;
pub mod robust;
pub mod temp_name;
pub mod traits;

pub use adaptive::AdaptiveRenaming;
pub use bit_batching::BitBatchingRenaming;
pub use builder::{Algorithm, ComparatorKind, RenamingBuilder};
pub use comparator_slab::ComparatorSlab;
pub use counter::{CasCounter, Counter, CounterBackend, CounterBuilder, MonotoneCounter};
pub use error::RenamingError;
pub use fetch_increment::BoundedFetchIncrement;
pub use free_list::FreeList;
pub use lease::{
    assert_escrow_lease_namespace, assert_tight_lease_namespace, LeaseRecord, LongLivedRenaming,
    NameLease,
};
pub use linear_probe::LinearProbeRenaming;
pub use ltas::BoundedTas;
pub use recycler::Recycler;
pub use renaming_network::RenamingNetwork;
pub use robust::RobustLeaseTable;
pub use temp_name::TempName;
pub use traits::Renaming;
