//! The unified construction facade for renaming objects.
//!
//! Every algorithm of the workspace used to be built through its own ad-hoc
//! constructor (`AdaptiveRenaming::new()`, `BitBatchingRenaming::new(n)`,
//! `RenamingNetwork::new(odd_even_network(n))`, …). The
//! [`RenamingBuilder`] replaces those entry points with one fluent surface
//! that selects the algorithm, the capacity, the sorting-network family and
//! the comparator test-and-set, and returns the object behind
//! `Arc<dyn Renaming>` — or, via [`RenamingBuilder::build_long_lived`], behind
//! `Arc<dyn LongLivedRenaming>` with a [`Recycler`] layered on top.
//!
//! Obtain a builder with `<dyn Renaming>::builder()` (or
//! [`RenamingBuilder::new`]):
//!
//! ```
//! use adaptive_renaming::traits::{assert_tight_namespace, Renaming};
//! use shmem::adversary::ExecConfig;
//! use shmem::vexec::VirtualExecutor;
//!
//! let renaming = <dyn Renaming>::builder().build().unwrap(); // adaptive strong renaming
//! let outcome = VirtualExecutor::new(ExecConfig::new(42)).run(6, {
//!     let renaming = renaming.clone();
//!     move |ctx| renaming.acquire(ctx).unwrap()
//! }).outcome;
//! assert!(assert_tight_namespace(&outcome.results()).is_ok());
//! ```

use crate::adaptive::AdaptiveRenaming;
use crate::bit_batching::BitBatchingRenaming;
use crate::error::RenamingError;
use crate::lease::LongLivedRenaming;
use crate::linear_probe::LinearProbeRenaming;
use crate::recycler::{Recycler, MAX_ESCROW_QUOTA};
use crate::renaming_network::RenamingNetwork;
use crate::traits::Renaming;
use shmem::arena::Arena;
use sortnet::family::{NetworkFamily, SortingFamily};
use std::sync::Arc;
use tas::hardware::HardwareTas;
use tas::ratrace::RatRaceTas;
use tas::two_process::TwoProcessTas;

/// The renaming algorithm a [`RenamingBuilder`] constructs.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum Algorithm {
    /// The §6 adaptive strong renaming object (unbounded, names `1..=k`).
    #[default]
    Adaptive,
    /// The §5 renaming network over a fixed sorting network (requires a
    /// capacity; strong adaptive within it).
    Network,
    /// The §4 BitBatching algorithm (requires a capacity; non-adaptive,
    /// names `1..=n`).
    BitBatching,
    /// The folklore linear-probing baseline (requires a capacity; adaptive
    /// but `Θ(k)` steps).
    LinearProbe,
}

/// The test-and-set implementation placed at comparators and name slots.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum ComparatorKind {
    /// Randomized register-based objects (two-process test-and-set at
    /// network comparators, RatRace at BitBatching / linear-probe slots) —
    /// the paper's model.
    #[default]
    Randomized,
    /// Hardware (atomic swap) test-and-set — the deterministic unit-cost
    /// variant of the paper's discussion section.
    Hardware,
}

/// Fluent configuration for every renaming object of the workspace.
///
/// See the [module documentation](self) for an overview and
/// `examples/name_server.rs` for the long-lived surface.
#[derive(Clone, Debug)]
pub struct RenamingBuilder {
    algorithm: Algorithm,
    capacity: Option<usize>,
    max_concurrent: Option<usize>,
    family: NetworkFamily,
    comparators: ComparatorKind,
    adaptive_level: Option<usize>,
    escrow_quota: usize,
}

impl Default for RenamingBuilder {
    fn default() -> Self {
        RenamingBuilder {
            algorithm: Algorithm::default(),
            capacity: None,
            max_concurrent: None,
            family: NetworkFamily::default(),
            comparators: ComparatorKind::default(),
            adaptive_level: None,
            escrow_quota: 8,
        }
    }
}

impl dyn Renaming {
    /// Starts building a renaming object; the canonical entry point of the
    /// crate. Equivalent to [`RenamingBuilder::new`].
    pub fn builder() -> RenamingBuilder {
        RenamingBuilder::new()
    }
}

impl RenamingBuilder {
    /// Creates a builder with the default configuration: §6 adaptive strong
    /// renaming with randomized comparators.
    pub fn new() -> Self {
        Self::default()
    }

    /// Selects the algorithm.
    pub fn algorithm(mut self, algorithm: Algorithm) -> Self {
        self.algorithm = algorithm;
        self
    }

    /// Shorthand for [`Algorithm::Adaptive`].
    pub fn adaptive(self) -> Self {
        self.algorithm(Algorithm::Adaptive)
    }

    /// Shorthand for [`Algorithm::Network`].
    pub fn network(self) -> Self {
        self.algorithm(Algorithm::Network)
    }

    /// Shorthand for [`Algorithm::BitBatching`].
    pub fn bit_batching(self) -> Self {
        self.algorithm(Algorithm::BitBatching)
    }

    /// Shorthand for [`Algorithm::LinearProbe`].
    pub fn linear_probe(self) -> Self {
        self.algorithm(Algorithm::LinearProbe)
    }

    /// Sets the namespace size of the bounded algorithms: input wires of a
    /// renaming network, name slots of BitBatching and linear probing.
    /// Rejected (at build time) by [`Algorithm::Adaptive`], which is
    /// unbounded by construction.
    pub fn capacity(mut self, capacity: usize) -> Self {
        self.capacity = Some(capacity);
        self
    }

    /// Sets the concurrency bound of the long-lived object produced by
    /// [`RenamingBuilder::build_long_lived`]; defaults to the capacity.
    pub fn max_concurrent(mut self, max_concurrent: usize) -> Self {
        self.max_concurrent = Some(max_concurrent);
        self
    }

    /// Selects the sorting-network family used by [`Algorithm::Network`] and
    /// [`Algorithm::Adaptive`].
    pub fn family(mut self, family: NetworkFamily) -> Self {
        self.family = family;
        self
    }

    /// Selects the test-and-set implementation.
    pub fn comparators(mut self, comparators: ComparatorKind) -> Self {
        self.comparators = comparators;
        self
    }

    /// Shorthand for [`ComparatorKind::Hardware`].
    pub fn hardware_comparators(self) -> Self {
        self.comparators(ComparatorKind::Hardware)
    }

    /// Sets the truncation level of the §6.1 adaptive network (defaults to
    /// the maximum supported level; smaller levels build faster and suffice
    /// for small contention).
    pub fn adaptive_level(mut self, level: usize) -> Self {
        self.adaptive_level = Some(level);
        self
    }

    /// Sets the escrow quota `q` of the long-lived object produced by
    /// [`RenamingBuilder::build_long_lived`]. By default (`8`) every
    /// recycler parks released names in a per-thread escrow slot that the
    /// thread's next lease takes them back from, so churn touches only the
    /// caller's cache line. The price is the *per-grant* tight bound: names
    /// stay unique and within `max_concurrent`, and within the escrow bound
    /// checked by
    /// [`assert_escrow_lease_namespace`](crate::lease::assert_escrow_lease_namespace)
    /// (see the [`recycler`](crate::recycler) module docs).
    /// `.escrow_quota(0)` builds the bare, tight recycler; `1..=15` is an
    /// escrow of that many names per slot.
    ///
    /// Ignored by [`RenamingBuilder::build`]; values above
    /// [`MAX_ESCROW_QUOTA`] (15) are rejected at build time.
    pub fn escrow_quota(mut self, quota: usize) -> Self {
        self.escrow_quota = quota;
        self
    }

    fn bounded_capacity(&self, minimum: usize) -> Result<usize, RenamingError> {
        let capacity = self.capacity.ok_or(RenamingError::InvalidConfiguration {
            reason: "this algorithm is bounded: set .capacity(n)",
        })?;
        if capacity < minimum {
            return Err(RenamingError::InvalidConfiguration {
                reason: "capacity is below the algorithm's minimum (2 for \
                         networks and BitBatching, 1 for linear probing)",
            });
        }
        Ok(capacity)
    }

    /// Builds the configured one-shot renaming object.
    ///
    /// # Errors
    ///
    /// Returns [`RenamingError::InvalidConfiguration`] when the settings do
    /// not fit the selected algorithm (missing or too-small capacity, a
    /// capacity on the unbounded adaptive algorithm).
    pub fn build(&self) -> Result<Arc<dyn Renaming>, RenamingError> {
        match self.algorithm {
            Algorithm::Adaptive => {
                if self.capacity.is_some() {
                    return Err(RenamingError::InvalidConfiguration {
                        reason: "adaptive renaming is unbounded: drop .capacity(n) \
                                 (use .max_concurrent(n) to bound the long-lived form)",
                    });
                }
                let level = self.adaptive_level.unwrap_or(sortnet::adaptive::MAX_LEVEL);
                Ok(match self.comparators {
                    ComparatorKind::Randomized => Arc::new(
                        AdaptiveRenaming::<TwoProcessTas>::with_family(self.family, level),
                    ),
                    ComparatorKind::Hardware => Arc::new(
                        AdaptiveRenaming::<HardwareTas>::with_family(self.family, level),
                    ),
                })
            }
            Algorithm::Network => {
                let width = self.bounded_capacity(2)?;
                let schedule = self.family.schedule(width);
                Ok(match self.comparators {
                    ComparatorKind::Randomized => {
                        Arc::new(RenamingNetwork::<_, TwoProcessTas>::new(schedule))
                    }
                    ComparatorKind::Hardware => {
                        Arc::new(RenamingNetwork::<_, HardwareTas>::new(schedule))
                    }
                })
            }
            Algorithm::BitBatching => {
                let slots = self.bounded_capacity(2)?;
                Ok(match self.comparators {
                    ComparatorKind::Randomized => {
                        Arc::new(BitBatchingRenaming::with_factory(slots, RatRaceTas::new))
                    }
                    ComparatorKind::Hardware => {
                        Arc::new(BitBatchingRenaming::with_factory(slots, HardwareTas::new))
                    }
                })
            }
            Algorithm::LinearProbe => {
                let slots = self.bounded_capacity(1)?;
                Ok(match self.comparators {
                    ComparatorKind::Randomized => Arc::new(LinearProbeRenaming::with_slots(
                        (0..slots).map(|_| RatRaceTas::new()).collect::<Vec<_>>(),
                    )),
                    ComparatorKind::Hardware => Arc::new(LinearProbeRenaming::with_slots(
                        (0..slots).map(|_| HardwareTas::new()).collect::<Vec<_>>(),
                    )),
                })
            }
        }
    }

    /// Builds the configured object and wraps it in a [`Recycler`],
    /// yielding a long-lived renaming object whose leases recycle released
    /// names through a lock-free [`FreeList`](crate::free_list::FreeList).
    /// Unless [`RenamingBuilder::escrow_quota`] is set to 0, the recycler
    /// also gets a per-thread escrow of that quota (8 by default). Its
    /// words live in a private heap arena of exactly
    /// [`Recycler::footprint`] bytes.
    ///
    /// The concurrency bound is [`RenamingBuilder::max_concurrent`] if set,
    /// otherwise the capacity.
    ///
    /// # Errors
    ///
    /// As [`RenamingBuilder::build`], plus
    /// [`RenamingError::InvalidConfiguration`] when no concurrency bound can
    /// be derived, it exceeds the capacity, or the escrow quota is out of
    /// range.
    pub fn build_long_lived(&self) -> Result<Arc<dyn LongLivedRenaming>, RenamingError> {
        if self.escrow_quota > MAX_ESCROW_QUOTA {
            return Err(RenamingError::InvalidConfiguration {
                reason: "the escrow quota must be in 0..=15 (0 disables the escrow)",
            });
        }
        let max_concurrent =
            self.max_concurrent
                .or(self.capacity)
                .ok_or(RenamingError::InvalidConfiguration {
                    reason: "the long-lived form needs .max_concurrent(n) (or a capacity)",
                })?;
        if max_concurrent == 0 {
            return Err(RenamingError::InvalidConfiguration {
                reason: "max_concurrent must be at least 1",
            });
        }
        let inner = self.build()?;
        if let Some(capacity) = inner.capacity() {
            if max_concurrent > capacity {
                return Err(RenamingError::InvalidConfiguration {
                    reason: "max_concurrent exceeds the object's capacity",
                });
            }
        }
        let quota = self.escrow_quota;
        let arena = Arena::heap(Recycler::footprint(&inner, max_concurrent, quota));
        Ok(Arc::new(Recycler::new_in(
            inner,
            max_concurrent,
            quota,
            &arena,
        )))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traits::assert_tight_namespace;
    use shmem::process::{ProcessCtx, ProcessId};
    use shmem::vexec::VirtualExecutor;

    fn run_tight(renaming: Arc<dyn Renaming>, k: usize, seed: u64) {
        let outcome = VirtualExecutor::with_seed(seed)
            .run(k, move |ctx| renaming.acquire(ctx).unwrap())
            .outcome;
        assert_tight_namespace(&outcome.results()).unwrap();
    }

    #[test]
    fn every_algorithm_builds_as_a_trait_object() {
        let configs: Vec<(&str, RenamingBuilder)> = vec![
            ("adaptive", RenamingBuilder::new().adaptive()),
            ("network", RenamingBuilder::new().network().capacity(16)),
            (
                "network-hardware",
                RenamingBuilder::new()
                    .network()
                    .capacity(16)
                    .hardware_comparators(),
            ),
            (
                "linear-probe",
                RenamingBuilder::new().linear_probe().capacity(16),
            ),
        ];
        for (label, builder) in configs {
            let renaming = builder.build().unwrap_or_else(|e| panic!("{label}: {e}"));
            run_tight(renaming, 6, 3);
        }

        // BitBatching is non-adaptive: the namespace is tight only under
        // full load, so it gets its own run at k = n.
        let bitbatching = RenamingBuilder::new()
            .bit_batching()
            .capacity(8)
            .build()
            .unwrap();
        assert_eq!(bitbatching.capacity(), Some(8));
        assert!(!bitbatching.is_adaptive());
        run_tight(bitbatching, 8, 3);
    }

    #[test]
    fn adaptive_is_the_default_and_is_unbounded() {
        let renaming = <dyn Renaming>::builder().build().unwrap();
        assert_eq!(renaming.capacity(), None);
        assert!(renaming.is_adaptive());
    }

    #[test]
    fn families_and_levels_are_selectable() {
        let bitonic = <dyn Renaming>::builder()
            .network()
            .capacity(8)
            .family(NetworkFamily::Bitonic)
            .build()
            .unwrap();
        assert_eq!(bitonic.capacity(), Some(8));
        run_tight(bitonic, 5, 9);

        let small = <dyn Renaming>::builder().adaptive_level(3).build().unwrap();
        run_tight(small, 6, 11);
    }

    #[test]
    fn misconfigurations_are_reported() {
        let missing = <dyn Renaming>::builder().network().build();
        assert!(matches!(
            missing,
            Err(RenamingError::InvalidConfiguration { .. })
        ));
        let adaptive_capacity = <dyn Renaming>::builder().capacity(8).build();
        assert!(adaptive_capacity.is_err());
        let tiny = <dyn Renaming>::builder().bit_batching().capacity(1).build();
        assert!(tiny.is_err());
        let no_bound = <dyn Renaming>::builder().build_long_lived();
        assert!(no_bound.is_err());
        let excess = <dyn Renaming>::builder()
            .linear_probe()
            .capacity(4)
            .max_concurrent(9)
            .build_long_lived();
        assert!(excess.is_err());
        let oversized_quota = <dyn Renaming>::builder()
            .network()
            .capacity(8)
            .escrow_quota(16) // one escrow slot holds at most 15 names
            .build_long_lived();
        assert!(oversized_quota.is_err());
    }

    #[test]
    fn lease_batching_is_the_long_lived_default_and_is_disableable() {
        // The default long-lived object has a per-thread escrow: after a
        // lease/release round trip the name is parked in this thread's slot,
        // and the next lease takes it back from there.
        let escrowed = <dyn Renaming>::builder()
            .network()
            .capacity(32)
            .max_concurrent(4)
            .build_long_lived()
            .unwrap();
        let mut ctx = ProcessCtx::new(ProcessId::new(0), 13);
        let name = escrowed.lease_raw(&mut ctx).unwrap();
        escrowed.release_raw(name);
        assert_eq!(escrowed.live_leases(), 0);
        assert_eq!(escrowed.lease_raw(&mut ctx).unwrap(), name);
        escrowed.release_raw(name);

        // .escrow_quota(0) builds the bare tight recycler: a release goes
        // straight to the free list, so the free-list pop serves the next
        // lease.
        let tight = <dyn Renaming>::builder()
            .network()
            .capacity(32)
            .max_concurrent(4)
            .escrow_quota(0)
            .build_long_lived()
            .unwrap();
        let first = tight.lease_raw(&mut ctx).unwrap();
        assert_eq!(first, 1);
        tight.release_raw(first);
        assert_eq!(tight.lease_raw(&mut ctx).unwrap(), 1);
        // Every quota up to a slot's 15 names builds, one included.
        for quota in [1, MAX_ESCROW_QUOTA] {
            let object = <dyn Renaming>::builder()
                .network()
                .capacity(32)
                .max_concurrent(4)
                .escrow_quota(quota)
                .build_long_lived()
                .unwrap();
            let name = object.lease_raw(&mut ctx).unwrap();
            object.release_raw(name);
            assert_eq!(object.live_leases(), 0, "quota {quota}");
            assert_eq!(object.lease_raw(&mut ctx).unwrap(), name, "quota {quota}");
        }
    }

    #[test]
    fn long_lived_builds_lease_and_recycle() {
        let object = <dyn Renaming>::builder()
            .network()
            .capacity(32)
            .max_concurrent(4)
            .build_long_lived()
            .unwrap();
        assert_eq!(object.max_concurrent(), Some(4));
        let mut ctx = ProcessCtx::new(ProcessId::new(0), 2);
        for _ in 0..8 {
            let lease = Arc::clone(&object).lease(&mut ctx).unwrap();
            assert_eq!(lease.name(), 1);
        }
        assert_eq!(object.live_leases(), 0);
    }

    #[test]
    fn long_lived_adaptive_derives_its_bound_from_max_concurrent() {
        let object = <dyn Renaming>::builder()
            .adaptive()
            .adaptive_level(3)
            .max_concurrent(3)
            .build_long_lived()
            .unwrap();
        let mut ctx = ProcessCtx::new(ProcessId::new(5), 8);
        let a = Arc::clone(&object).lease(&mut ctx).unwrap();
        let b = Arc::clone(&object).lease(&mut ctx).unwrap();
        assert!(a.name() <= 3 && b.name() <= 3);
        a.release(&mut ctx);
        b.release(&mut ctx);
        assert_eq!(ctx.stats().releases, 2);
    }
}
