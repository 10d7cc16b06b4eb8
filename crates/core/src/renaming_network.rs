//! Renaming networks over a fixed sorting network (§5).
//!
//! Take any sorting network with `M` input wires and replace every comparator
//! with a two-process test-and-set object. A process enters the network on the
//! input wire given by its (unique) initial name, and at every comparator it
//! meets it plays the test-and-set: winning moves it to the comparator's top
//! wire, losing to the bottom wire. The index of the output wire it reaches is
//! its new name. Theorem 1 shows this solves strong adaptive renaming — the
//! `k` participating processes obtain exactly the names `1..=k`, in every
//! execution — and the per-process cost is the network's depth in
//! test-and-set operations.
//!
//! # The compiled engine
//!
//! The paper's cost bounds count test-and-set operations, so the substrate
//! must not hide extra synchronization behind each one. [`RenamingNetwork`]
//! therefore lowers its schedule into a
//! [`CompiledSchedule`] at construction
//! — a flat wire map answering "which comparator touches my wire in the next
//! stage?" with one array load — and stores the comparator test-and-sets in a
//! [`ComparatorSlab`] indexed by the
//! compiled dense slot. The traversal hot path performs no hashing, no
//! reference-count traffic and no locking beyond each cell's one-time
//! initialization: per stage, one wire-map load plus the test-and-set
//! itself. Comparator objects are still created lazily on first touch
//! ([`RenamingNetwork::allocated_comparators`] observes this).

use crate::comparator_slab::ComparatorSlab;
use crate::error::RenamingError;
use crate::traits::Renaming;
use shmem::process::ProcessCtx;
use sortnet::compiled::CompiledSchedule;
use sortnet::schedule::ComparatorSchedule;
use std::fmt;
use tas::two_process::TwoProcessTas;
use tas::{Side, TwoPartyTas};

/// Plays one process through a compiled schedule against its comparator
/// slab, entering at `wire`. Returns the exit wire together with the number
/// of comparators played and won. Shared by [`RenamingNetwork`] and the
/// compiled sections of [`AdaptiveRenaming`](crate::adaptive::AdaptiveRenaming),
/// so the traversal protocol cannot silently diverge between the two.
pub(crate) fn traverse_compiled<T: TwoPartyTas + Default>(
    schedule: &CompiledSchedule,
    slab: &ComparatorSlab<T>,
    ctx: &mut ProcessCtx,
    mut wire: usize,
) -> (usize, usize, usize) {
    let mut comparators_played = 0;
    let mut wins = 0;
    for stage in 0..ComparatorSchedule::depth(schedule) {
        if let Some((comparator, slot)) = schedule.pair_at(stage, wire) {
            let side = if wire == comparator.top {
                Side::Top
            } else {
                Side::Bottom
            };
            comparators_played += 1;
            if slab.get(slot).play(ctx, side) {
                wins += 1;
                wire = comparator.top;
            } else {
                wire = comparator.bottom;
            }
        }
    }
    (wire, comparators_played, wins)
}

/// Diagnostics of one traversal of a renaming network.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TraversalReport {
    /// The name acquired (1-based output-port index).
    pub name: usize,
    /// How many comparators (two-process test-and-sets) the process played.
    pub comparators_played: usize,
    /// How many of those the process won (moves "up").
    pub wins: usize,
}

/// A renaming network over an arbitrary comparator schedule, running on the
/// compiled lock-free engine.
///
/// The type is generic in the two-process test-and-set used at the
/// comparators; the default is the randomized register-based
/// [`TwoProcessTas`], and [`tas::hardware::HardwareTas`] gives the
/// deterministic hardware-assisted variant the paper mentions in its
/// discussion section.
///
/// Construction compiles the schedule, which costs `O(width × depth)` time
/// and memory. Every materializable network qualifies; for the
/// astronomically wide analytic schedules of §6.1 use
/// [`AdaptiveRenaming`](crate::adaptive::AdaptiveRenaming), which compiles
/// only the sections processes actually reach.
///
/// # Example
///
/// ```
/// use adaptive_renaming::renaming_network::RenamingNetwork;
/// use adaptive_renaming::traits::{assert_tight_namespace, Renaming};
/// use shmem::adversary::ExecConfig;
/// use shmem::process::ProcessId;
/// use shmem::vexec::VirtualExecutor;
/// use sortnet::batcher::odd_even_network;
/// use std::sync::Arc;
///
/// // 16 possible initial names, 5 participants with scattered identities.
/// let network: Arc<RenamingNetwork<_>> = Arc::new(RenamingNetwork::new(odd_even_network(16)));
/// let ids: Vec<ProcessId> = [0usize, 3, 7, 11, 15].iter().copied().map(ProcessId::new).collect();
/// let outcome = VirtualExecutor::new(ExecConfig::new(5)).run_with_ids(&ids, {
///     let network = Arc::clone(&network);
///     move |ctx| network.acquire(ctx).expect("identities fit the network")
/// }).outcome;
/// assert!(assert_tight_namespace(&outcome.results()).is_ok());
/// ```
pub struct RenamingNetwork<S: ComparatorSchedule, T: TwoPartyTas + Default = TwoProcessTas> {
    /// The schedule lowered into flat arrays: O(1) wire-map queries and the
    /// dense comparator index space addressing the slab. The source schedule
    /// is not retained — every query goes through the compiled form.
    compiled: CompiledSchedule,
    /// One lazily created test-and-set per comparator, indexed by the
    /// compiled dense slot.
    slab: ComparatorSlab<T>,
    _schedule: std::marker::PhantomData<S>,
}

impl<S: ComparatorSchedule, T: TwoPartyTas + Default> RenamingNetwork<S, T> {
    /// Creates a renaming network over the given sorting network, compiling
    /// its schedule and pre-sizing the comparator slab (one empty cell per
    /// comparator; the objects themselves stay lazy).
    pub fn new(schedule: S) -> Self {
        let compiled = CompiledSchedule::compile(&schedule);
        let slab = ComparatorSlab::new(compiled.size());
        RenamingNetwork {
            compiled,
            slab,
            _schedule: std::marker::PhantomData,
        }
    }

    /// The size of the initial namespace (number of input ports).
    pub fn namespace(&self) -> usize {
        self.compiled.width()
    }

    /// The depth of the underlying sorting network — an upper bound on the
    /// number of test-and-set objects any process plays.
    pub fn depth(&self) -> usize {
        ComparatorSchedule::depth(&self.compiled)
    }

    /// The compiled form of the schedule (harness inspection).
    pub fn compiled(&self) -> &CompiledSchedule {
        &self.compiled
    }

    /// Total number of comparators — the slab's capacity.
    pub fn comparator_count(&self) -> usize {
        self.slab.len()
    }

    /// Number of comparator objects allocated so far (harness inspection).
    pub fn allocated_comparators(&self) -> usize {
        self.slab.allocated()
    }

    /// Runs the calling process through the network from the input port given
    /// by its initial name, returning detailed diagnostics.
    ///
    /// # Errors
    ///
    /// Returns [`RenamingError::IdentifierOutOfRange`] if the process's
    /// identifier is not a valid input port.
    pub fn acquire_with_report(
        &self,
        ctx: &mut ProcessCtx,
    ) -> Result<TraversalReport, RenamingError> {
        let port = ctx.id().as_usize();
        self.traverse_from(ctx, port)
    }

    /// Runs the calling process through the network from an explicit input
    /// port (0-based). Used by the adaptive algorithm, which enters on the
    /// port given by its temporary name rather than by its identifier.
    ///
    /// # Errors
    ///
    /// Returns [`RenamingError::IdentifierOutOfRange`] if `port` is not a
    /// valid input port.
    pub fn traverse_from(
        &self,
        ctx: &mut ProcessCtx,
        port: usize,
    ) -> Result<TraversalReport, RenamingError> {
        if port >= self.compiled.width() {
            return Err(RenamingError::IdentifierOutOfRange {
                identifier: port,
                namespace: self.compiled.width(),
            });
        }
        let (wire, comparators_played, wins) =
            traverse_compiled(&self.compiled, &self.slab, ctx, port);
        Ok(TraversalReport {
            name: wire + 1,
            comparators_played,
            wins,
        })
    }
}

impl<S: ComparatorSchedule, T: TwoPartyTas + Default> fmt::Debug for RenamingNetwork<S, T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RenamingNetwork")
            .field("namespace", &self.namespace())
            .field("depth", &self.depth())
            .field("comparators", &self.comparator_count())
            .field("allocated_comparators", &self.allocated_comparators())
            .finish()
    }
}

impl<S: ComparatorSchedule, T: TwoPartyTas + Default> Renaming for RenamingNetwork<S, T> {
    fn acquire(&self, ctx: &mut ProcessCtx) -> Result<usize, RenamingError> {
        self.acquire_with_report(ctx).map(|report| report.name)
    }

    /// Enters the network on the wire given by the *virtual participant*
    /// index instead of the caller's identifier, so long-lived wrappers can
    /// route repeated fresh acquisitions through distinct input ports.
    fn acquire_as(&self, ctx: &mut ProcessCtx, participant: usize) -> Result<usize, RenamingError> {
        self.traverse_from(ctx, participant)
            .map(|report| report.name)
    }

    fn capacity(&self) -> Option<usize> {
        Some(self.compiled.width())
    }

    fn is_adaptive(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traits::{assert_tight_namespace, assert_unique_names};
    use shmem::adversary::{CrashPlan, ExecConfig};
    use shmem::process::ProcessId;
    use shmem::vexec::VirtualExecutor;
    use sortnet::batcher::odd_even_network;
    use sortnet::transposition::transposition_network;
    use std::sync::Arc;
    use tas::hardware::HardwareTas;

    fn scattered_ids(count: usize, namespace: usize, seed: u64) -> Vec<ProcessId> {
        use rand::seq::SliceRandom;
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut all: Vec<usize> = (0..namespace).collect();
        all.shuffle(&mut rng);
        all.into_iter().take(count).map(ProcessId::new).collect()
    }

    #[test]
    fn solo_process_gets_name_one_from_any_port() {
        for port in [0usize, 3, 7, 12, 15] {
            let network = RenamingNetwork::<_, TwoProcessTas>::new(odd_even_network(16));
            let mut ctx = ProcessCtx::new(ProcessId::new(port), 3);
            let report = network.acquire_with_report(&mut ctx).unwrap();
            assert_eq!(report.name, 1, "port {port}");
            assert_eq!(report.wins, report.comparators_played);
        }
    }

    #[test]
    fn identifiers_outside_the_namespace_are_rejected() {
        let network = RenamingNetwork::<_, TwoProcessTas>::new(odd_even_network(8));
        let mut ctx = ProcessCtx::new(ProcessId::new(8), 0);
        assert_eq!(
            network.acquire(&mut ctx),
            Err(RenamingError::IdentifierOutOfRange {
                identifier: 8,
                namespace: 8
            })
        );
    }

    #[test]
    fn sequential_arrivals_get_a_tight_namespace() {
        let network = RenamingNetwork::<_, TwoProcessTas>::new(odd_even_network(16));
        let mut names = Vec::new();
        for port in [15usize, 2, 9, 0, 7] {
            let mut ctx = ProcessCtx::new(ProcessId::new(port), 5);
            names.push(network.acquire(&mut ctx).unwrap());
        }
        assert_tight_namespace(&names).unwrap();
    }

    #[test]
    fn concurrent_arrivals_get_a_tight_namespace() {
        for seed in 0..8 {
            let network = Arc::new(RenamingNetwork::<_, TwoProcessTas>::new(odd_even_network(
                32,
            )));
            let ids = scattered_ids(10, 32, seed);
            let outcome = VirtualExecutor::with_seed(seed)
                .run_with_ids(&ids, {
                    let network = Arc::clone(&network);
                    move |ctx| network.acquire(ctx).unwrap()
                })
                .outcome;
            assert_tight_namespace(&outcome.results())
                .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        }
    }

    #[test]
    fn full_load_is_a_permutation_of_the_namespace() {
        let namespace = 16;
        let network = Arc::new(RenamingNetwork::<_, TwoProcessTas>::new(odd_even_network(
            namespace,
        )));
        let ids: Vec<ProcessId> = (0..namespace).map(ProcessId::new).collect();
        let outcome = VirtualExecutor::with_seed(3)
            .run_with_ids(&ids, {
                let network = Arc::clone(&network);
                move |ctx| network.acquire(ctx).unwrap()
            })
            .outcome;
        assert_tight_namespace(&outcome.results()).unwrap();
    }

    #[test]
    fn hardware_comparators_give_the_deterministic_variant() {
        let network: Arc<RenamingNetwork<_, HardwareTas>> =
            Arc::new(RenamingNetwork::new(odd_even_network(16)));
        let ids = scattered_ids(6, 16, 99);
        let outcome = VirtualExecutor::with_seed(4)
            .run_with_ids(&ids, {
                let network = Arc::clone(&network);
                move |ctx| network.acquire(ctx).unwrap()
            })
            .outcome;
        assert_tight_namespace(&outcome.results()).unwrap();
    }

    #[test]
    fn crashed_processes_never_break_uniqueness() {
        for seed in 0..5 {
            let network = Arc::new(RenamingNetwork::<_, TwoProcessTas>::new(odd_even_network(
                32,
            )));
            let ids = scattered_ids(16, 32, seed + 100);
            let config = ExecConfig::new(seed).with_crash_plan(CrashPlan::Random {
                prob: 0.3,
                max_steps: 25,
            });
            let outcome = VirtualExecutor::new(config)
                .run_with_ids(&ids, {
                    let network = Arc::clone(&network);
                    move |ctx| network.acquire(ctx).unwrap()
                })
                .outcome;
            // Crashed processes return nothing; survivors keep unique names
            // bounded by the number of participants that took steps.
            let names = outcome.results();
            assert_unique_names(&names).unwrap();
            assert!(names.iter().all(|&name| name <= ids.len()));
        }
    }

    #[test]
    fn comparators_played_is_bounded_by_the_network_depth() {
        let schedule = odd_even_network(64);
        let depth = sortnet::schedule::ComparatorSchedule::depth(&schedule);
        let network = Arc::new(RenamingNetwork::<_, TwoProcessTas>::new(schedule));
        let ids = scattered_ids(20, 64, 7);
        let outcome = VirtualExecutor::with_seed(7)
            .run_with_ids(&ids, {
                let network = Arc::clone(&network);
                move |ctx| network.acquire_with_report(ctx).unwrap()
            })
            .outcome;
        for report in outcome.results() {
            assert!(report.comparators_played <= depth);
            assert!(report.wins <= report.comparators_played);
        }
        assert!(network.allocated_comparators() > 0);
        assert!(format!("{network:?}").contains("RenamingNetwork"));
    }

    #[test]
    fn slower_networks_still_rename_correctly() {
        // The transposition network has Θ(n) depth but is still a sorting
        // network, so renaming over it must still be tight.
        let network = Arc::new(RenamingNetwork::<_, TwoProcessTas>::new(
            transposition_network(12),
        ));
        let ids = scattered_ids(12, 12, 42);
        let outcome = VirtualExecutor::with_seed(6)
            .run_with_ids(&ids, {
                let network = Arc::clone(&network);
                move |ctx| network.acquire(ctx).unwrap()
            })
            .outcome;
        assert_tight_namespace(&outcome.results()).unwrap();
    }

    #[test]
    fn comparator_allocation_stays_lazy_and_bounded() {
        let network = Arc::new(RenamingNetwork::<_, TwoProcessTas>::new(odd_even_network(
            64,
        )));
        assert_eq!(
            network.allocated_comparators(),
            0,
            "nothing allocated up front"
        );
        let total = network.comparator_count();
        assert_eq!(total, network.compiled().size());
        let ids = scattered_ids(8, 64, 11);
        let outcome = VirtualExecutor::with_seed(11)
            .run_with_ids(&ids, {
                let network = Arc::clone(&network);
                move |ctx| network.acquire(ctx).unwrap()
            })
            .outcome;
        assert_tight_namespace(&outcome.results()).unwrap();
        let allocated = network.allocated_comparators();
        assert!(
            allocated > 0,
            "traversals allocate the comparators they touch"
        );
        assert!(
            allocated < total,
            "8 of 64 ports must not touch the whole network ({allocated} of {total})"
        );
    }
}
