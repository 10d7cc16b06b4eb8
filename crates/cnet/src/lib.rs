//! Counting networks: contention-distributing counters over balancer wiring.
//!
//! The paper's headline application is counting (§8): the monotone counter
//! pairs adaptive renaming with a max register, and the m-valued
//! fetch-and-increment layers test-and-sets over it. This crate adds the
//! *other* classical route to scalable counting — the **counting networks**
//! of Aspnes, Herlihy and Shavit (JACM 1994): balancing networks of two-wire
//! toggles whose quiescent output counts always form a staircase (the *step
//! property*), so appending one local counter per output wire yields a
//! counter whose increments spread over `Θ(w log² w)` memory words instead
//! of funnelling through one.
//!
//! Balancing networks are structurally isomorphic to the comparator networks
//! the `sortnet` crate already compiles, so the crate reuses that machinery
//! wholesale:
//!
//! * [`Balancer`] — the primitive: one atomic word toggled per token, with
//!   step accounting through `shmem` ([`StepKind::Balancer`]).
//! * [`CompiledBalancingNetwork`] — any [`ComparatorSchedule`]
//!   reinterpreted as balancer wiring, lowered onto
//!   [`CompiledSchedule`](sortnet::compiled::CompiledSchedule)'s flat
//!   wire-map and dense-CSR arrays: O(1) per-stage traversal, balancers in a
//!   flat slab indexed by dense slot. It implements
//!   [`BalancingTopology`], the traversal interface the counters are
//!   generic over.
//! * [`CountingFamily`] — the wirings certified to count: bitonic and
//!   periodic, both at power-of-two widths. Batcher's odd-even merge and
//!   the one-pass transposition wiring provably miscount and are rejected
//!   ([`UncertifiedWiring`]); the refutations are pinned as tests.
//! * [`NetworkCounter`] — the counter: traverse + fetch-add on the exit
//!   wire, width-`w` tickets `local · w + wire`, quiescently consistent
//!   reads ([`check_quiescent_consistent`]) but deliberately *not*
//!   linearizable.
//! * [`AdaptiveNetworkCounter`] — the adaptive counter: a [`ContentionSensor`]
//!   routes each increment into the narrowest layer that covers *realized*
//!   contention. The layers have widths 1, 4, …, `width`: a single
//!   fetch-and-add word, then [`NetworkCounter`]s. So a quiet increment is a
//!   sensor read and one fetch-add, 2 shared steps instead of a wide
//!   network's ~11. A width-2 network is dominated by the word: its one
//!   balancer is as contended as the word, and its exit wire adds a second
//!   contended step. The sensor learns from the exit-wire tickets
//!   increments already fetch, and the route leaves the word only on
//!   sustained evidence of three or more interleaving processes.
//! * [`Prism`] — a standalone elimination/diffraction primitive: exchanger
//!   slots where two colliding increments pair off before entering a
//!   network (one returns immediately, the other carries a weight-2 token).
//!   No counter in this crate uses it; at low contention a visit costs more
//!   than the pairings it wins back.
//! * [`verify`] — executable step-property checks and a pure sequential
//!   token simulator for certifying or refuting candidate wirings; the
//!   simulator is also the reference the compiled network is tested
//!   against.
//!
//! # Quick start
//!
//! ```
//! use cnet::{CountingFamily, NetworkCounter};
//! use shmem::adversary::ExecConfig;
//! use shmem::vexec::VirtualExecutor;
//! use std::sync::Arc;
//!
//! let counter = Arc::new(NetworkCounter::new(CountingFamily::Bitonic, 8));
//! let outcome = VirtualExecutor::new(ExecConfig::new(1)).run(8, {
//!     let counter = Arc::clone(&counter);
//!     move |ctx| counter.fetch_increment(ctx)
//! }).outcome;
//! // Quiescent: the exit counts form a staircase and the sum is exact.
//! assert!(cnet::verify::has_step_property(&counter.exit_counts()));
//! assert_eq!(counter.peek(), 8);
//! // The eight tickets are exactly 0..8 (in some order).
//! assert_eq!(outcome.results_sorted(), (0..8).collect::<Vec<u64>>());
//! ```
//!
//! [`StepKind::Balancer`]: shmem::steps::StepKind
//! [`ComparatorSchedule`]: sortnet::schedule::ComparatorSchedule
//! [`check_quiescent_consistent`]: shmem::consistency::check_quiescent_consistent

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod adaptive;
pub mod balancer;
pub mod compiled;
pub mod counter;
pub mod family;
pub mod network;
pub mod prism;
pub mod verify;

pub use adaptive::{AdaptiveNetworkCounter, ContentionSensor};
pub use balancer::{Balancer, BalancerSlot};
pub use compiled::CompiledBalancingNetwork;
pub use counter::NetworkCounter;
pub use family::{CountingFamily, UncertifiedWiring};
pub use network::BalancingTopology;
pub use prism::{Prism, PrismOutcome};
pub use verify::{
    has_step_property, is_smooth, sequential_step_property, simulate_tokens,
    step_property_violation, StepViolation,
};
