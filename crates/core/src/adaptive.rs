//! Strong adaptive renaming (§6.2) — the paper's headline result.
//!
//! The algorithm has two stages:
//!
//! 1. [`TempName`]: a randomized splitter tree
//!    assigns each participant a unique temporary name that is polynomial in
//!    the contention `k` with high probability, in `O(log k)` steps.
//! 2. A renaming network built over the §6.1 *adaptive sorting network*
//!    ([`sortnet::adaptive::AdaptiveNetwork`]): the process enters the network
//!    at the input port given by its temporary name and plays a two-process
//!    test-and-set at every comparator it meets, returning the index of the
//!    output port it reaches.
//!
//! Because the adaptive network is a sorting network under every truncation
//! (Theorem 2), the outputs are exactly `1..=k` (Theorem 1), and because a
//! value entering port `n` traverses only `O(log^c max(n, m))` comparators,
//! the expected step complexity is `O(log k)` for a depth-`O(log n)` base
//! family — `O(log² k)` for the constructible Batcher family used here
//! (Theorem 3, adjusted for the constructible-network substitution recorded
//! under *Substitutions* in `PAPER.md`).
//!
//! Comparator storage is chosen per section of the sandwich. Both kinds are
//! lock-free, and both build their comparators in place ([`InPlace`]) from
//! one block of location ids, so a comparator's first play allocates
//! nothing and draws no id:
//!
//! * Sections of at most `COMPILED_CELL_LIMIT` cells (levels 1–3 and the
//!   base, covering channels 0–255) are compiled into a
//!   [`ComparatorNetwork`]'s flat wire map, with a [`ComparatorSlab`] of
//!   comparators indexed by its dense comparator slot and built with the
//!   object.
//! * Larger sections (level 4 from channel 128, level 5 from channel 32768
//!   up to 2³²) keep their analytic schedule and store comparators in a
//!   [`LazyTable`] keyed by `(top − offset) << depth_bits | stage`, whose
//!   64-comparator leaves are built on the first touch of any key under
//!   them.
//!
//! The outer sections are not rare: temporary names are polynomial in `k`,
//! and level 4 begins at channel 128, so a process whose temporary name
//! exceeds 128 plays some comparators there. With `k = 256` concurrent
//! acquisitions (128 per thread on two threads), 61% of acquisitions reach
//! level 4; the median temporary name is 136. Such a first touch builds a
//! 2 KiB leaf of 64 [`TwoProcessTas`] values. Each value is 32 bytes: its
//! rounds 0 and 1 are seven byte registers behind one base location id, and
//! its other rounds are boxed and built only by a play that reaches round 2.
//! Dropping the object frees its slabs and leaves and any tails that plays
//! reached, not one box per comparator.

use crate::comparator_slab::ComparatorSlab;
use crate::error::RenamingError;
use crate::renaming_network::traverse_compiled;
use crate::temp_name::{TempName, TempNameReport};
use crate::traits::Renaming;
use shmem::lazy::LazyTable;
use shmem::process::ProcessCtx;
use shmem::register::InPlace;
use sortnet::adaptive::{AdaptiveNetwork, Section};
use sortnet::family::{NetworkFamily, SortingFamily};
use sortnet::network::ComparatorNetwork;
use std::fmt;
use tas::two_process::TwoProcessTas;
use tas::{Side, TwoPartyTas};

/// Upper bound on `width × depth` for a section to be compiled into a flat
/// wire map + comparator slab. Sections above the bound (the outer levels of
/// the §6.1 construction, with tens of thousands to billions of channels)
/// keep sparse lazy storage: compiling them would pre-size wire maps and
/// slabs for cells that are never touched. Sparse does not mean rarely
/// used — see the [module documentation](self) — which is why the sparse
/// store is a lock-free [`LazyTable`] rather than a locked map.
const COMPILED_CELL_LIMIT: usize = 1 << 20;

/// Comparator storage of one section of the adaptive network.
enum SectionStore<T> {
    /// Small section: schedule compiled into flat arrays, test-and-sets in
    /// a lock-free slab indexed by the dense comparator slot.
    Compiled {
        /// The section's schedule in compiled (local-wire) form.
        network: ComparatorNetwork,
        /// One test-and-set per comparator, built with the object.
        slab: ComparatorSlab<T>,
    },
    /// Huge analytic section: comparator objects built a leaf at a time on
    /// first touch, keyed by [`sparse_key`].
    Sparse {
        /// Bits reserved for the stage in the key.
        depth_bits: u32,
        /// The test-and-sets of the leaves reached (boxed: the table's
        /// eleven roots outweigh the compiled variant).
        games: Box<LazyTable<T>>,
    },
}

/// Bits needed to store any stage index of `section`.
fn depth_bits(section: &Section) -> u32 {
    section
        .schedule
        .depth()
        .next_power_of_two()
        .trailing_zeros()
}

/// The [`LazyTable`] key of the comparator at `stage` whose top channel is
/// the global channel `top`: `(top − offset) << depth_bits | stage`.
fn sparse_key(section: &Section, depth_bits: u32, stage: usize, top: usize) -> u64 {
    (((top - section.offset) as u64) << depth_bits) | stage as u64
}

impl<T: TwoPartyTas + InPlace> SectionStore<T> {
    fn for_section(section: &Section) -> Self {
        let cells = section.width().checked_mul(section.schedule.depth());
        match cells {
            Some(cells) if cells <= COMPILED_CELL_LIMIT => {
                let network = ComparatorNetwork::compile(section.schedule.as_ref());
                let slab = ComparatorSlab::new(network.size());
                SectionStore::Compiled { network, slab }
            }
            _ => {
                let depth_bits = depth_bits(section);
                assert!(
                    (section.width() as u64).leading_zeros() >= depth_bits,
                    "sparse keys of a {}-channel section overflow u64",
                    section.width()
                );
                SectionStore::Sparse {
                    depth_bits,
                    games: Box::default(),
                }
            }
        }
    }

    fn touched(&self) -> usize {
        match self {
            SectionStore::Compiled { slab, .. } => slab.touched(),
            SectionStore::Sparse { games, .. } => games.touched(),
        }
    }
}

/// Diagnostics of one adaptive-renaming acquisition.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AdaptiveReport {
    /// The final name (1-based; in `1..=k` in every execution).
    pub name: usize,
    /// The temporary name produced by the first stage.
    pub temp_name: usize,
    /// Depth at which the first stage acquired its splitter.
    pub splitter_depth: usize,
    /// Number of two-process test-and-set objects played in the second stage.
    pub comparators_played: usize,
    /// How many of those the process won.
    pub wins: usize,
}

/// The §6 adaptive strong renaming object.
///
/// The object is unbounded: it never needs to know `n`, `M` or `k`, and with
/// `k` participants it hands out exactly the names `1..=k`.
///
/// # Example
///
/// ```
/// use adaptive_renaming::adaptive::AdaptiveRenaming;
/// use adaptive_renaming::traits::{assert_tight_namespace, Renaming};
/// use shmem::adversary::ExecConfig;
/// use shmem::process::ProcessId;
/// use shmem::vexec::VirtualExecutor;
/// use std::sync::Arc;
///
/// // Identifiers are irrelevant: huge, scattered initial names still map to 1..=4.
/// let renaming = Arc::new(AdaptiveRenaming::default());
/// let ids: Vec<ProcessId> = [7usize, 123_456, 42, 999_999_999]
///     .iter().copied().map(ProcessId::new).collect();
/// let outcome = VirtualExecutor::new(ExecConfig::new(11)).run_with_ids(&ids, {
///     let renaming = Arc::clone(&renaming);
///     move |ctx| renaming.acquire(ctx).expect("adaptive renaming never fails")
/// }).outcome;
/// assert!(assert_tight_namespace(&outcome.results()).is_ok());
/// ```
pub struct AdaptiveRenaming<T: TwoPartyTas + InPlace = TwoProcessTas> {
    temp: TempName,
    network: AdaptiveNetwork,
    /// Per-section comparator storage, parallel to `network.sections()`:
    /// compiled slabs for the small inner sections, sparse lazy tables for
    /// the huge outer ones.
    stores: Vec<SectionStore<T>>,
}

impl Default for AdaptiveRenaming<TwoProcessTas> {
    /// The default configuration: randomized two-process test-and-set
    /// comparators over the adaptive network based on Batcher's odd-even
    /// mergesort, truncated at the maximum supported level (2³² input
    /// ports). This is what `<dyn Renaming>::builder().build()` constructs.
    fn default() -> Self {
        Self::with_network(AdaptiveNetwork::new(
            NetworkFamily::OddEven,
            sortnet::adaptive::MAX_LEVEL,
        ))
    }
}

impl<T: TwoPartyTas + InPlace> AdaptiveRenaming<T> {
    /// Creates the object over an explicit adaptive network (choice of base
    /// family and truncation level).
    pub fn with_network(network: AdaptiveNetwork) -> Self {
        let stores = network
            .sections()
            .iter()
            .map(SectionStore::for_section)
            .collect();
        AdaptiveRenaming {
            temp: TempName::new(),
            network,
            stores,
        }
    }

    /// Creates the object over the adaptive network built from the given base
    /// family and truncation level. The analytic odd-even family supports
    /// the maximum level cheaply.
    ///
    /// # Panics
    ///
    /// As [`AdaptiveNetwork::new`]: a level outside `1..=MAX_LEVEL`, or a
    /// materialized family above
    /// [`MAX_MATERIALIZED_LEVEL`](sortnet::adaptive::MAX_MATERIALIZED_LEVEL).
    pub fn with_family<F: SortingFamily + 'static>(family: F, max_level: usize) -> Self {
        Self::with_network(AdaptiveNetwork::new(family, max_level))
    }

    /// The underlying adaptive sorting network.
    pub fn network(&self) -> &AdaptiveNetwork {
        &self.network
    }

    /// The temporary-name stage (exposed for experiments).
    pub fn temp_name_stage(&self) -> &TempName {
        &self.temp
    }

    /// Number of comparators some process has played (harness inspection).
    pub fn allocated_comparators(&self) -> usize {
        self.stores.iter().map(SectionStore::touched).sum()
    }

    /// Number of sections running on the compiled slab engine (the rest use
    /// the sparse fallback store). Harness inspection.
    pub fn compiled_sections(&self) -> usize {
        self.stores
            .iter()
            .filter(|store| matches!(store, SectionStore::Compiled { .. }))
            .count()
    }

    /// Runs the second stage from an explicit input port (0-based channel),
    /// returning the output channel and traversal counts.
    fn traverse(
        &self,
        ctx: &mut ProcessCtx,
        port: usize,
    ) -> Result<(usize, usize, usize), RenamingError> {
        if port >= self.network.width() {
            return Err(RenamingError::IdentifierOutOfRange {
                identifier: port,
                namespace: self.network.width(),
            });
        }
        let mut channel = port;
        let mut comparators_played = 0;
        let mut wins = 0;
        for (section, store) in self.network.sections().iter().zip(&self.stores) {
            if !section.covers(channel) {
                continue;
            }
            match store {
                SectionStore::Compiled { network, slab } => {
                    // Hot path: O(1) wire-map lookups over local wires, plays
                    // against the lock-free slab.
                    let (local, played, won) =
                        traverse_compiled(network, slab, ctx, channel - section.offset);
                    channel = section.offset + local;
                    comparators_played += played;
                    wins += won;
                }
                SectionStore::Sparse { depth_bits, games } => {
                    for stage in 0..section.schedule.depth() {
                        if let Some(comparator) = section.comparator_at(stage, channel) {
                            let key = sparse_key(section, *depth_bits, stage, comparator.top);
                            let game = games.get(key);
                            let side = if channel == comparator.top {
                                Side::Top
                            } else {
                                Side::Bottom
                            };
                            comparators_played += 1;
                            if game.play(ctx, side) {
                                wins += 1;
                                channel = comparator.top;
                            } else {
                                channel = comparator.bottom;
                            }
                        }
                    }
                }
            }
        }
        Ok((channel, comparators_played, wins))
    }

    /// Acquires a name, returning full diagnostics.
    ///
    /// # Errors
    ///
    /// Returns [`RenamingError::IdentifierOutOfRange`] in the astronomically
    /// unlikely event that the first stage produces a temporary name beyond
    /// the network's truncation width.
    pub fn acquire_with_report(
        &self,
        ctx: &mut ProcessCtx,
    ) -> Result<AdaptiveReport, RenamingError> {
        let TempNameReport {
            name: temp_name,
            depth: splitter_depth,
            ..
        } = self.temp.acquire_with_report(ctx);
        let (channel, comparators_played, wins) = self.traverse(ctx, temp_name - 1)?;
        Ok(AdaptiveReport {
            name: channel + 1,
            temp_name,
            splitter_depth,
            comparators_played,
            wins,
        })
    }
}

impl<T: TwoPartyTas + InPlace> fmt::Debug for AdaptiveRenaming<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("AdaptiveRenaming")
            .field("network", &self.network)
            .field("allocated_comparators", &self.allocated_comparators())
            .finish()
    }
}

impl<T: TwoPartyTas + InPlace> Renaming for AdaptiveRenaming<T> {
    fn acquire(&self, ctx: &mut ProcessCtx) -> Result<usize, RenamingError> {
        self.acquire_with_report(ctx).map(|report| report.name)
    }

    fn capacity(&self) -> Option<usize> {
        None
    }

    fn is_adaptive(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traits::{assert_tight_namespace, assert_unique_names};
    use shmem::adversary::{CrashPlan, ExecConfig, ScheduleSource};
    use shmem::process::ProcessId;
    use shmem::steps::StepStats;
    use shmem::vexec::{Schedule, VirtualExecutor};
    use std::sync::Arc;
    use tas::hardware::HardwareTas;

    #[test]
    fn solo_process_gets_name_one() {
        let renaming = AdaptiveRenaming::default();
        let mut ctx = ProcessCtx::new(ProcessId::new(123_456_789), 3);
        let report = renaming.acquire_with_report(&mut ctx).unwrap();
        assert_eq!(report.name, 1);
        assert_eq!(report.temp_name, 1);
        assert_eq!(report.wins, report.comparators_played);
    }

    #[test]
    fn sequential_processes_get_a_tight_namespace() {
        let renaming = AdaptiveRenaming::default();
        let mut names = Vec::new();
        for id in 0..12usize {
            let mut ctx = ProcessCtx::new(ProcessId::new(id * 1000 + 7), 5);
            names.push(renaming.acquire(&mut ctx).unwrap());
        }
        assert_tight_namespace(&names).unwrap();
    }

    #[test]
    fn concurrent_processes_get_a_tight_namespace() {
        for seed in 0..6 {
            let renaming = Arc::new(AdaptiveRenaming::default());
            let k = 12usize;
            let outcome = VirtualExecutor::with_seed(seed)
                .run(k, {
                    let renaming = Arc::clone(&renaming);
                    move |ctx| renaming.acquire(ctx).unwrap()
                })
                .outcome;
            assert_tight_namespace(&outcome.results())
                .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        }
    }

    #[test]
    fn namespace_is_independent_of_initial_identifiers() {
        let renaming = Arc::new(AdaptiveRenaming::default());
        let ids: Vec<ProcessId> = [5usize, 1_000_000, 77, 123_456_789, 31_337, 2]
            .iter()
            .copied()
            .map(ProcessId::new)
            .collect();
        let outcome = VirtualExecutor::with_seed(21)
            .run_with_ids(&ids, {
                let renaming = Arc::clone(&renaming);
                move |ctx| renaming.acquire(ctx).unwrap()
            })
            .outcome;
        assert_tight_namespace(&outcome.results()).unwrap();
    }

    #[test]
    fn staggered_arrivals_still_get_a_tight_namespace() {
        let renaming = Arc::new(AdaptiveRenaming::default());
        // The empty replay schedule runs each process to completion before
        // the next one arrives.
        let config = ExecConfig::new(8).with_schedule(ScheduleSource::Replay(Schedule::default()));
        let outcome = VirtualExecutor::new(config)
            .run(10, {
                let renaming = Arc::clone(&renaming);
                move |ctx| renaming.acquire(ctx).unwrap()
            })
            .outcome;
        assert_tight_namespace(&outcome.results()).unwrap();
    }

    #[test]
    fn crashed_processes_never_break_safety() {
        for seed in 0..5 {
            let renaming = Arc::new(AdaptiveRenaming::default());
            let k = 16usize;
            let config = ExecConfig::new(seed).with_crash_plan(CrashPlan::Random {
                prob: 0.3,
                max_steps: 60,
            });
            let outcome = VirtualExecutor::new(config)
                .run(k, {
                    let renaming = Arc::clone(&renaming);
                    move |ctx| renaming.acquire(ctx).unwrap()
                })
                .outcome;
            let names = outcome.results();
            assert_unique_names(&names).unwrap();
            assert!(names.iter().all(|&name| name <= k));
        }
    }

    #[test]
    fn hardware_comparators_give_the_deterministic_variant() {
        let renaming: Arc<AdaptiveRenaming<HardwareTas>> = Arc::new(
            AdaptiveRenaming::with_network(AdaptiveNetwork::new(NetworkFamily::OddEven, 5)),
        );
        let outcome = VirtualExecutor::with_seed(2)
            .run(8, {
                let renaming = Arc::clone(&renaming);
                move |ctx| renaming.acquire(ctx).unwrap()
            })
            .outcome;
        assert_tight_namespace(&outcome.results()).unwrap();
    }

    #[test]
    fn comparators_played_grow_polylogarithmically_with_contention() {
        // Theorem 3's cost profile: the number of two-process test-and-sets a
        // process plays is bounded by the traversal-depth bound for its
        // temporary name, which is polylogarithmic in k.
        let renaming = Arc::new(AdaptiveRenaming::default());
        let k = 16usize;
        let outcome = VirtualExecutor::with_seed(33)
            .run(k, {
                let renaming = Arc::clone(&renaming);
                move |ctx| renaming.acquire_with_report(ctx).unwrap()
            })
            .outcome;
        for report in outcome.results() {
            let bound = renaming
                .network()
                .traversal_depth_bound(report.temp_name.max(report.name) - 1);
            assert!(
                report.comparators_played <= bound,
                "played {} > bound {bound} (temp name {})",
                report.comparators_played,
                report.temp_name
            );
        }
        assert!(renaming.allocated_comparators() > 0);
    }

    #[test]
    fn smaller_truncations_work_for_small_contention() {
        let renaming: Arc<AdaptiveRenaming> = Arc::new(AdaptiveRenaming::with_family(
            NetworkFamily::OddEven,
            3, // 256 input ports
        ));
        let outcome = VirtualExecutor::with_seed(14)
            .run(6, {
                let renaming = Arc::clone(&renaming);
                move |ctx| renaming.acquire(ctx).unwrap()
            })
            .outcome;
        assert_tight_namespace(&outcome.results()).unwrap();
    }

    #[test]
    fn inner_sections_compile_and_outer_sections_stay_sparse() {
        // Default instance: level 5, sections A5..A1, S0, C1..C5. Levels 1-3
        // fit the compiled-cell budget; levels 4 and 5 are analytic giants
        // that must stay sparse.
        let renaming = AdaptiveRenaming::default();
        assert_eq!(renaming.network().sections().len(), 11);
        assert_eq!(renaming.compiled_sections(), 7);

        // A small truncation compiles everything.
        let small: AdaptiveRenaming = AdaptiveRenaming::with_family(NetworkFamily::OddEven, 3);
        assert_eq!(small.compiled_sections(), small.network().sections().len());
    }

    #[test]
    fn sixty_four_sequential_acquisitions_are_pinned() {
        // Pins the algorithm: how comparators and splitters are stored must
        // not change a single step. These constants were recorded with
        // every test-and-set round built up front and the outer sections
        // and splitters in locked hash maps; any change to the splitter
        // walk, the network or the test-and-set rounds shows up here.
        const TEMP_NAMES: [usize; 64] = [
            1, 3, 6, 2, 5, 10, 4, 13, 8, 11, 20, 22, 23, 12, 7, 24, 26, 17, 9, 14, 45, 21, 43, 15,
            53, 41, 82, 16, 52, 31, 87, 18, 104, 27, 28, 208, 57, 42, 47, 84, 46, 33, 35, 56, 62,
            83, 417, 107, 85, 112, 40, 49, 55, 19, 71, 63, 126, 44, 252, 167, 166, 125, 98, 115,
        ];
        const PLAYED: [usize; 64] = [
            1, 9, 15, 11, 18, 24, 18, 35, 24, 48, 56, 63, 67, 66, 38, 59, 51, 59, 58, 59, 49, 57,
            52, 53, 55, 59, 51, 60, 63, 62, 56, 60, 54, 62, 64, 71, 56, 61, 59, 50, 57, 60, 65, 64,
            64, 64, 93, 60, 64, 66, 69, 69, 67, 63, 64, 62, 58, 65, 103, 102, 116, 66, 65, 62,
        ];
        let renaming = AdaptiveRenaming::default();
        let mut totals = StepStats::new();
        for (i, (&temp_name, &played)) in TEMP_NAMES.iter().zip(&PLAYED).enumerate() {
            let mut ctx = ProcessCtx::new(ProcessId::new(i), 0x5EED);
            let report = renaming.acquire_with_report(&mut ctx).unwrap();
            assert_eq!(report.name, i + 1, "acquisition {i}: name");
            assert_eq!(report.temp_name, temp_name, "acquisition {i}: temp name");
            assert_eq!(
                report.comparators_played, played,
                "acquisition {i}: comparators"
            );
            let stats = ctx.stats();
            totals.reads += stats.reads;
            totals.writes += stats.writes;
            totals.rmws += stats.rmws;
            totals.tas_invocations += stats.tas_invocations;
            totals.coin_flips += stats.coin_flips;
        }
        let expected = StepStats {
            reads: 6989,
            writes: 7053,
            rmws: 2146,
            tas_invocations: 3621,
            coin_flips: 1765,
            ..StepStats::new()
        };
        assert_eq!(totals, expected);
        assert_eq!(renaming.allocated_comparators(), 2146);
        assert_eq!(renaming.temp_name_stage().allocated_splitters(), 64);
        // Temporary names above 128 reach level 4, a sparse section.
        assert!(TEMP_NAMES.iter().any(|&name| name > 128));
    }

    #[test]
    fn extreme_sparse_keys_land_in_distinct_cells() {
        // The largest key of level 5 — its last channel as a comparator's
        // top at its last stage — and its neighbours must not collide.
        let renaming = AdaptiveRenaming::default();
        let mut ctx = ProcessCtx::new(ProcessId::new(0), 1);
        let mut probes = Vec::new();
        for (section, store) in renaming.network().sections().iter().zip(&renaming.stores) {
            if let SectionStore::Sparse { depth_bits, games } = store {
                let last_top = section.offset + section.width() - 1;
                let last_stage = section.schedule.depth() - 1;
                for (stage, top) in [
                    (last_stage, last_top),
                    (last_stage - 1, last_top),
                    (last_stage, last_top - 1),
                    (0, section.offset),
                ] {
                    let key = sparse_key(section, *depth_bits, stage, top);
                    let game = games.get(key);
                    assert!(game.play(&mut ctx, Side::Top), "a solo play wins");
                    probes.push((section.index, key, game as *const TwoProcessTas));
                }
                assert_eq!(games.touched(), 4, "section {}", section.index);
            }
        }
        assert_eq!(probes.len(), 16, "four sparse sections");
        let level5_max = probes[0].1;
        assert_eq!(level5_max, ((4_294_934_528 - 1) << 10) | 527);
        for (i, a) in probes.iter().enumerate() {
            for b in &probes[i + 1..] {
                if a.0 == b.0 {
                    assert_ne!(a.1, b.1, "section {}: keys collide", a.0);
                }
                assert_ne!(a.2, b.2, "distinct cells");
            }
        }
        assert_eq!(renaming.allocated_comparators(), 16);
    }

    #[test]
    fn metadata_is_reported() {
        let renaming = AdaptiveRenaming::default();
        assert_eq!(renaming.capacity(), None);
        assert!(renaming.is_adaptive());
        assert_eq!(renaming.temp_name_stage().allocated_splitters(), 0);
        assert!(format!("{renaming:?}").contains("AdaptiveRenaming"));
    }

    #[test]
    fn repeated_acquisitions_by_one_process_stay_unique() {
        // The counter increments by re-acquiring from the same object; each
        // acquisition acts as a fresh virtual participant.
        let renaming = AdaptiveRenaming::default();
        let mut ctx = ProcessCtx::new(ProcessId::new(4), 6);
        let mut names = Vec::new();
        for _ in 0..10 {
            names.push(renaming.acquire(&mut ctx).unwrap());
        }
        assert_tight_namespace(&names).unwrap();
    }
}
