//! The BitBatching non-adaptive strong renaming algorithm (§4).
//!
//! `n` processes share a vector of `n` test-and-set objects, partitioned into
//! batches of geometrically decreasing size: the first half, the next
//! quarter, and so on, down to a final batch of `Θ(log n)` objects. In the
//! first stage a process performs `3 log n` random probes in each batch in
//! turn (competing in *every* object of the final batch), stopping as soon as
//! it wins an object; its name is the index of the object it won. With high
//! probability every process terminates during this stage after `O(log² n)`
//! test-and-set probes (Lemma 1). The second stage — a left-to-right sweep of
//! the whole vector — exists only to guarantee termination in the
//! vanishing-probability case where the first stage fails.

use crate::error::RenamingError;
use crate::traits::Renaming;
use shmem::process::ProcessCtx;
use std::fmt;
use std::ops::Range;
use std::sync::OnceLock;
use tas::ratrace::RatRaceTas;
use tas::TestAndSet;

/// The paper's probes per batch, in units of `log n`: a process tries
/// `3 log n` random slots of each batch before moving on (Lemma 1).
const PROBES_PER_LOG_N: usize = 3;

/// Diagnostics of one acquisition, used by tests and experiments.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BitBatchingReport {
    /// The name acquired (1-based).
    pub name: usize,
    /// Total test-and-set objects the process competed in.
    pub probes: usize,
    /// Index of the batch in which the process won (0-based), if it won
    /// during the first stage.
    pub winning_batch: Option<usize>,
    /// Whether the process had to enter the second (sequential sweep) stage.
    pub entered_second_stage: bool,
}

/// The §4 BitBatching strong renaming object over `n` names.
///
/// The object is generic in the underlying test-and-set implementation; the
/// default is the adaptive [`RatRaceTas`], matching the paper's use of
/// RatRace \[12\]. [`BitBatchingRenaming::with_slots`] allows swapping in any
/// other [`TestAndSet`] (for instance the hardware test-and-set for the
/// unit-cost measure).
///
/// The name vector is lazily initialized: constructing the object over `n`
/// names allocates `n` empty `OnceLock` cells, and a test-and-set object
/// materializes only when some process first probes its slot (observable
/// through [`BitBatchingRenaming::allocated_slots`]). With `k ≪ n`
/// participants probing `O(log² n)` slots each, most of the vector is never
/// built. (A slot's object is a whole RatRace tree, not a value of fixed
/// size that could be built in place the way the renaming networks build
/// their comparators.)
///
/// # Example
///
/// ```
/// use adaptive_renaming::traits::{assert_tight_namespace, Renaming};
/// use shmem::adversary::ExecConfig;
/// use shmem::vexec::VirtualExecutor;
///
/// let renaming = <dyn Renaming>::builder()
///     .bit_batching()
///     .capacity(8)
///     .build()
///     .unwrap();
/// let outcome = VirtualExecutor::new(ExecConfig::new(3)).run(8, {
///     let renaming = renaming.clone();
///     move |ctx| renaming.acquire(ctx).expect("8 slots for 8 processes")
/// }).outcome;
/// assert!(assert_tight_namespace(&outcome.results()).is_ok());
/// ```
pub struct BitBatchingRenaming<T: TestAndSet = RatRaceTas> {
    /// One lazily initialized cell per name.
    slots: Box<[OnceLock<T>]>,
    /// Builds a slot's test-and-set on first probe. `None` only when the
    /// object was constructed from pre-built slots, in which case every cell
    /// is already initialized.
    factory: Option<Box<dyn Fn() -> T + Send + Sync>>,
    batches: Vec<Range<usize>>,
    trials_per_batch: usize,
}

impl<T: TestAndSet> BitBatchingRenaming<T> {
    /// Creates the object over `n` lazily initialized names; `factory` builds
    /// a slot's test-and-set when some process first probes it.
    ///
    /// # Panics
    ///
    /// Panics if `n < 2`.
    pub fn with_factory<F>(n: usize, factory: F) -> Self
    where
        F: Fn() -> T + Send + Sync + 'static,
    {
        Self::from_parts(
            (0..n).map(|_| OnceLock::new()).collect(),
            Some(Box::new(factory)),
        )
    }

    /// Creates the object over the given vector of pre-built test-and-set
    /// objects (one per name).
    ///
    /// # Panics
    ///
    /// Panics if fewer than 2 slots are supplied.
    pub fn with_slots(slots: Vec<T>) -> Self {
        Self::from_parts(slots.into_iter().map(OnceLock::from).collect(), None)
    }

    fn from_parts(
        slots: Box<[OnceLock<T>]>,
        factory: Option<Box<dyn Fn() -> T + Send + Sync>>,
    ) -> Self {
        let n = slots.len();
        assert!(n >= 2, "BitBatching needs at least two names");
        let log_n = (n as f64).log2().ceil().max(1.0) as usize;
        BitBatchingRenaming {
            slots,
            factory,
            batches: Self::batch_layout(n),
            trials_per_batch: PROBES_PER_LOG_N * log_n,
        }
    }

    /// The test-and-set of one slot, created on first probe.
    fn slot(&self, index: usize) -> &T {
        self.slots[index].get_or_init(|| {
            let factory = self
                .factory
                .as_ref()
                .expect("pre-built slots are fully initialized at construction");
            factory()
        })
    }

    /// Number of slot objects actually materialized so far (harness
    /// inspection; O(n)).
    pub fn allocated_slots(&self) -> usize {
        self.slots
            .iter()
            .filter(|slot| slot.get().is_some())
            .count()
    }

    /// The batch layout for a vector of `n` objects: the first half, the next
    /// quarter, …, with a final batch of between `log n` and `2 log n`
    /// objects (Figure 1).
    pub fn batch_layout(n: usize) -> Vec<Range<usize>> {
        let log_n = (n as f64).log2().max(1.0);
        let ell = ((n as f64 / log_n).log2().floor() as usize).max(1);
        let mut batches = Vec::with_capacity(ell);
        let mut start = 0usize;
        for i in 1..ell {
            let end = n - n / (1usize << i);
            if end > start {
                batches.push(start..end);
                start = end;
            }
        }
        batches.push(start..n);
        batches
    }

    /// The number of names (and test-and-set objects).
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Whether the object has no slots (never true: construction requires 2).
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// The batch boundaries used by the first stage.
    pub fn batches(&self) -> &[Range<usize>] {
        &self.batches
    }

    /// The number of random probes performed in each non-final batch.
    pub fn trials_per_batch(&self) -> usize {
        self.trials_per_batch
    }

    /// Acquires a name and returns detailed diagnostics.
    ///
    /// # Errors
    ///
    /// Returns [`RenamingError::CapacityExceeded`] if every object is already
    /// won (more than `n` participants).
    pub fn acquire_with_report(
        &self,
        ctx: &mut ProcessCtx,
    ) -> Result<BitBatchingReport, RenamingError> {
        let mut probes = 0usize;

        // Stage one: random probes per batch; every object of the last batch.
        let last_batch = self.batches.len() - 1;
        for (batch_index, batch) in self.batches.iter().enumerate() {
            if batch_index < last_batch {
                for _ in 0..self.trials_per_batch {
                    let slot = batch.start + ctx.random_index(batch.len());
                    probes += 1;
                    if self.slot(slot).test_and_set(ctx) {
                        return Ok(BitBatchingReport {
                            name: slot + 1,
                            probes,
                            winning_batch: Some(batch_index),
                            entered_second_stage: false,
                        });
                    }
                }
            } else {
                for slot in batch.clone() {
                    probes += 1;
                    if self.slot(slot).test_and_set(ctx) {
                        return Ok(BitBatchingReport {
                            name: slot + 1,
                            probes,
                            winning_batch: Some(batch_index),
                            entered_second_stage: false,
                        });
                    }
                }
            }
        }

        // Stage two: sequential sweep (reached with vanishing probability).
        for slot in 0..self.slots.len() {
            probes += 1;
            if self.slot(slot).test_and_set(ctx) {
                return Ok(BitBatchingReport {
                    name: slot + 1,
                    probes,
                    winning_batch: None,
                    entered_second_stage: true,
                });
            }
        }
        Err(RenamingError::CapacityExceeded {
            capacity: self.slots.len(),
        })
    }
}

impl<T: TestAndSet> fmt::Debug for BitBatchingRenaming<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("BitBatchingRenaming")
            .field("names", &self.slots.len())
            .field("allocated_slots", &self.allocated_slots())
            .field("batches", &self.batches.len())
            .field("trials_per_batch", &self.trials_per_batch)
            .finish()
    }
}

impl<T: TestAndSet> Renaming for BitBatchingRenaming<T> {
    fn acquire(&self, ctx: &mut ProcessCtx) -> Result<usize, RenamingError> {
        self.acquire_with_report(ctx).map(|report| report.name)
    }

    fn capacity(&self) -> Option<usize> {
        Some(self.slots.len())
    }

    fn is_adaptive(&self) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traits::assert_tight_namespace;
    use shmem::adversary::{CrashPlan, ExecConfig};
    use shmem::process::ProcessId;
    use shmem::vexec::VirtualExecutor;
    use std::sync::Arc;
    use tas::hardware::HardwareTas;

    #[test]
    fn batch_layout_halves_until_a_logarithmic_tail() {
        let batches = BitBatchingRenaming::<RatRaceTas>::batch_layout(64);
        // 64 names, log = 6, ell = floor(log2(64/6)) = 3 batches.
        assert_eq!(batches.len(), 3);
        assert_eq!(batches[0], 0..32);
        assert_eq!(batches[1], 32..48);
        assert_eq!(batches[2], 48..64);
        // The batches tile the whole vector.
        let covered: usize = batches.iter().map(|b| b.len()).sum();
        assert_eq!(covered, 64);
    }

    #[test]
    fn batch_layout_covers_the_vector_for_many_sizes() {
        for n in [2usize, 3, 5, 8, 16, 31, 100, 256, 1000, 1024] {
            let batches = BitBatchingRenaming::<RatRaceTas>::batch_layout(n);
            assert_eq!(batches.first().unwrap().start, 0, "n={n}");
            assert_eq!(batches.last().unwrap().end, n, "n={n}");
            for pair in batches.windows(2) {
                assert_eq!(pair[0].end, pair[1].start, "n={n}: batches must tile");
            }
            // The final batch is at least logarithmic in size.
            let log_n = (n as f64).log2().max(1.0) as usize;
            assert!(batches.last().unwrap().len() >= log_n.min(n), "n={n}");
        }
    }

    #[test]
    fn solo_process_wins_in_the_first_batch_with_few_probes() {
        let renaming = BitBatchingRenaming::with_factory(64, RatRaceTas::new);
        let mut ctx = ProcessCtx::new(ProcessId::new(0), 5);
        let report = renaming.acquire_with_report(&mut ctx).unwrap();
        assert!(
            report.name >= 1 && report.name <= 32,
            "name {}",
            report.name
        );
        assert_eq!(report.winning_batch, Some(0));
        assert_eq!(report.probes, 1);
        assert!(!report.entered_second_stage);
    }

    #[test]
    fn sequential_full_load_yields_a_tight_namespace() {
        let n = 32;
        let renaming = BitBatchingRenaming::with_factory(n, RatRaceTas::new);
        let mut names = Vec::new();
        for id in 0..n {
            let mut ctx = ProcessCtx::new(ProcessId::new(id), 7);
            names.push(renaming.acquire(&mut ctx).unwrap());
        }
        assert_tight_namespace(&names).unwrap();
    }

    #[test]
    fn concurrent_full_load_yields_a_tight_namespace() {
        for seed in 0..5 {
            let n = 16;
            let renaming = Arc::new(BitBatchingRenaming::with_factory(n, RatRaceTas::new));
            let outcome = VirtualExecutor::with_seed(seed)
                .run(n, {
                    let renaming = Arc::clone(&renaming);
                    move |ctx| renaming.acquire(ctx).unwrap()
                })
                .outcome;
            assert_tight_namespace(&outcome.results())
                .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        }
    }

    #[test]
    fn partial_load_yields_unique_names_within_n() {
        let renaming = Arc::new(BitBatchingRenaming::with_factory(64, RatRaceTas::new));
        let outcome = VirtualExecutor::with_seed(11)
            .run(20, {
                let renaming = Arc::clone(&renaming);
                move |ctx| renaming.acquire(ctx).unwrap()
            })
            .outcome;
        let names = outcome.results();
        crate::traits::assert_unique_names(&names).unwrap();
        assert!(names.iter().all(|&name| (1..=64).contains(&name)));
    }

    #[test]
    fn hardware_slots_are_supported() {
        let slots: Vec<HardwareTas> = (0..16).map(|_| HardwareTas::new()).collect();
        let renaming = Arc::new(BitBatchingRenaming::with_slots(slots));
        let outcome = VirtualExecutor::with_seed(2)
            .run(16, {
                let renaming = Arc::clone(&renaming);
                move |ctx| renaming.acquire(ctx).unwrap()
            })
            .outcome;
        assert_tight_namespace(&outcome.results()).unwrap();
    }

    #[test]
    fn capacity_exceeded_is_reported_not_hung() {
        let renaming =
            BitBatchingRenaming::with_slots((0..4).map(|_| HardwareTas::new()).collect::<Vec<_>>());
        let mut names = Vec::new();
        for id in 0..4 {
            let mut ctx = ProcessCtx::new(ProcessId::new(id), 0);
            names.push(renaming.acquire(&mut ctx).unwrap());
        }
        let mut extra = ProcessCtx::new(ProcessId::new(4), 0);
        assert_eq!(
            renaming.acquire(&mut extra),
            Err(RenamingError::CapacityExceeded { capacity: 4 })
        );
    }

    #[test]
    fn crashed_processes_do_not_break_uniqueness() {
        for seed in 0..5 {
            let renaming = Arc::new(BitBatchingRenaming::with_factory(24, RatRaceTas::new));
            let config = ExecConfig::new(seed).with_crash_plan(CrashPlan::Random {
                prob: 0.3,
                max_steps: 40,
            });
            let outcome = VirtualExecutor::new(config)
                .run(24, {
                    let renaming = Arc::clone(&renaming);
                    move |ctx| renaming.acquire(ctx).unwrap()
                })
                .outcome;
            crate::traits::assert_unique_names(&outcome.results()).unwrap();
        }
    }

    #[test]
    fn probe_counts_stay_polylogarithmic_under_full_load() {
        let n = 64;
        let renaming = Arc::new(BitBatchingRenaming::with_factory(n, RatRaceTas::new));
        let outcome = VirtualExecutor::with_seed(9)
            .run(n, {
                let renaming = Arc::clone(&renaming);
                move |ctx| renaming.acquire_with_report(ctx).unwrap()
            })
            .outcome;
        let log_n = (n as f64).log2();
        let bound = (3.0 * log_n * log_n + 2.0 * log_n) as usize + n / 4;
        for report in outcome.results() {
            assert!(
                report.probes <= bound,
                "probes {} exceed the O(log² n) regime (bound {bound})",
                report.probes
            );
        }
    }

    #[test]
    fn slots_materialize_lazily() {
        let renaming = BitBatchingRenaming::with_factory(1024, RatRaceTas::new);
        assert_eq!(renaming.allocated_slots(), 0, "construction builds nothing");
        let mut ctx = ProcessCtx::new(ProcessId::new(0), 5);
        let report = renaming.acquire_with_report(&mut ctx).unwrap();
        assert!(report.name >= 1);
        let allocated = renaming.allocated_slots();
        assert!(
            (1..1024).contains(&allocated),
            "a solo process touches a few slots, not the whole vector ({allocated})"
        );

        // Pre-built slots arrive fully materialized.
        let eager =
            BitBatchingRenaming::with_slots((0..8).map(|_| HardwareTas::new()).collect::<Vec<_>>());
        assert_eq!(eager.allocated_slots(), 8);
    }

    #[test]
    fn trait_metadata_is_reported() {
        let renaming = BitBatchingRenaming::with_factory(8, RatRaceTas::new);
        assert_eq!(renaming.capacity(), Some(8));
        assert!(!renaming.is_adaptive());
        assert_eq!(renaming.len(), 8);
        assert!(!renaming.is_empty());
        assert_eq!(renaming.trials_per_batch(), 9);
        assert!(format!("{renaming:?}").contains("BitBatchingRenaming"));
    }

    #[test]
    #[should_panic(expected = "at least two names")]
    fn tiny_vectors_are_rejected() {
        let _ = BitBatchingRenaming::with_factory(1, RatRaceTas::new);
    }
}
