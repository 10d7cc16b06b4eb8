//! Umbrella crate for the *Optimal-Time Adaptive Strong Renaming* workspace.
//!
//! This crate re-exports the workspace's public crates under one roof so the
//! runnable examples and the cross-crate integration tests have a single
//! dependency. Library users should depend on the individual crates directly:
//!
//! * [`adaptive_renaming`] — the paper's algorithms (renaming, counters,
//!   fetch-and-increment).
//! * [`shmem`] — the shared-memory substrate and the seeded virtual executor.
//! * [`tas`] — test-and-set objects.
//! * [`sortnet`] — sorting networks, including the §6.1 adaptive construction.
//! * [`cnet`] — counting networks: balancers, the compiled balancing
//!   network, and the quiescently-consistent network and adaptive counters.
//! * [`maxreg`] — max registers.
//!
//! See `README.md` for a guided tour. The paper's quantitative claims are
//! asserted, as seeded step counts, by `tests/paper_claims.rs`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use adaptive_renaming;
pub use cnet;
pub use maxreg;
pub use shmem;
pub use sortnet;
pub use tas;

/// A convenience prelude for examples and tests: the items needed to run the
/// paper's objects on a seeded virtual schedule, plus the builder and
/// long-lived lease surface.
pub mod prelude {
    pub use adaptive_renaming::adaptive::AdaptiveRenaming;
    pub use adaptive_renaming::bit_batching::BitBatchingRenaming;
    pub use adaptive_renaming::builder::{Algorithm, ComparatorKind, RenamingBuilder};
    pub use adaptive_renaming::comparator_slab::ComparatorSlab;
    pub use adaptive_renaming::counter::{
        CasCounter, Counter, CounterBackend, CounterBuilder, MonotoneCounter,
    };
    pub use adaptive_renaming::fetch_increment::BoundedFetchIncrement;
    pub use adaptive_renaming::free_list::FreeList;
    pub use adaptive_renaming::lease::{
        assert_escrow_lease_namespace, assert_tight_lease_namespace, LeaseRecord,
        LongLivedRenaming, NameLease,
    };
    pub use adaptive_renaming::linear_probe::LinearProbeRenaming;
    pub use adaptive_renaming::ltas::BoundedTas;
    pub use adaptive_renaming::recycler::Recycler;
    pub use adaptive_renaming::renaming_network::RenamingNetwork;
    pub use adaptive_renaming::traits::{assert_tight_namespace, assert_unique_names, Renaming};
    pub use cnet::{
        AdaptiveNetworkCounter, Balancer, BalancerSlot, BalancingTopology,
        CompiledBalancingNetwork, ContentionSensor, CountingFamily, NetworkCounter, Prism,
        PrismOutcome,
    };
    pub use shmem::adversary::{CrashPlan, ExecConfig, ScheduleSource};
    pub use shmem::process::{ProcessCtx, ProcessId};
    pub use shmem::vexec::{Schedule, VirtualExecutor};
    pub use sortnet::family::NetworkFamily;
}

#[cfg(test)]
mod tests {
    #[test]
    fn prelude_exposes_the_main_types() {
        use crate::prelude::*;
        let _ = ExecConfig::new(0);
        let renaming = <dyn Renaming>::builder().build().unwrap();
        assert!(renaming.is_adaptive());
        let long_lived = RenamingBuilder::new()
            .network()
            .capacity(8)
            .max_concurrent(4)
            .build_long_lived()
            .unwrap();
        assert_eq!(long_lived.max_concurrent(), Some(4));
        assert!(assert_tight_namespace(&[1, 2]).is_ok());
        assert!(assert_tight_lease_namespace(&[]).is_ok());
        let counter = <dyn Counter>::builder()
            .backend(CounterBackend::Network)
            .build()
            .unwrap();
        let mut ctx = ProcessCtx::new(ProcessId::new(0), 0);
        counter.increment(&mut ctx);
        assert_eq!(counter.read(&mut ctx), 1);
        assert_eq!(NetworkCounter::default().width(), 8);
    }
}
