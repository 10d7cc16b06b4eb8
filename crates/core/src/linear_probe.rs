//! The folklore linear-probing renaming baseline.
//!
//! The simplest test-and-set based renaming algorithm (§1, \[4, 11\]): a
//! process competes in test-and-set objects of increasing index until it wins
//! one, and takes that object's index as its name. The namespace is tight and
//! adaptive, but the step complexity is `Θ(k)` test-and-set operations per
//! process — the baseline the paper's logarithmic algorithms are measured
//! against (Experiments E5, E7).

use crate::error::RenamingError;
use crate::traits::Renaming;
use shmem::process::ProcessCtx;
use std::fmt;
use tas::ratrace::RatRaceTas;
use tas::TestAndSet;

/// Linear-probing adaptive renaming over at most `capacity` names.
///
/// # Example
///
/// ```
/// use adaptive_renaming::traits::{assert_tight_namespace, Renaming};
/// use shmem::adversary::ExecConfig;
/// use shmem::executor::Executor;
///
/// let renaming = <dyn Renaming>::builder()
///     .linear_probe()
///     .capacity(16)
///     .build()
///     .unwrap();
/// let outcome = Executor::new(ExecConfig::new(1)).run(5, {
///     let renaming = renaming.clone();
///     move |ctx| renaming.acquire(ctx).expect("capacity not exceeded")
/// });
/// assert!(assert_tight_namespace(&outcome.results()).is_ok());
/// ```
pub struct LinearProbeRenaming<T: TestAndSet = RatRaceTas> {
    slots: Vec<T>,
}

impl<T: TestAndSet> LinearProbeRenaming<T> {
    /// Creates the baseline over the given test-and-set slots.
    ///
    /// # Panics
    ///
    /// Panics if no slots are supplied.
    pub fn with_slots(slots: Vec<T>) -> Self {
        assert!(!slots.is_empty(), "linear probing needs at least one slot");
        LinearProbeRenaming { slots }
    }

    /// The number of names available.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Whether there are no slots (never true after construction).
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Acquires a name and reports how many test-and-set objects were probed.
    ///
    /// # Errors
    ///
    /// Returns [`RenamingError::CapacityExceeded`] when every slot is taken.
    pub fn acquire_with_probes(
        &self,
        ctx: &mut ProcessCtx,
    ) -> Result<(usize, usize), RenamingError> {
        for (index, slot) in self.slots.iter().enumerate() {
            if slot.test_and_set(ctx) {
                return Ok((index + 1, index + 1));
            }
        }
        Err(RenamingError::CapacityExceeded {
            capacity: self.slots.len(),
        })
    }
}

impl<T: TestAndSet> fmt::Debug for LinearProbeRenaming<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("LinearProbeRenaming")
            .field("capacity", &self.slots.len())
            .finish()
    }
}

impl<T: TestAndSet> Renaming for LinearProbeRenaming<T> {
    fn acquire(&self, ctx: &mut ProcessCtx) -> Result<usize, RenamingError> {
        self.acquire_with_probes(ctx).map(|(name, _)| name)
    }

    fn capacity(&self) -> Option<usize> {
        Some(self.slots.len())
    }

    fn is_adaptive(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traits::assert_tight_namespace;
    use shmem::process::ProcessId;
    use shmem::vexec::VirtualExecutor;
    use std::sync::Arc;
    use tas::hardware::HardwareTas;

    #[test]
    fn sequential_processes_get_consecutive_names() {
        let renaming = LinearProbeRenaming::with_slots((0..8).map(|_| RatRaceTas::new()).collect());
        for expected in 1..=8usize {
            let mut ctx = ProcessCtx::new(ProcessId::new(expected), 1);
            assert_eq!(renaming.acquire(&mut ctx).unwrap(), expected);
        }
        let mut extra = ProcessCtx::new(ProcessId::new(99), 1);
        assert!(matches!(
            renaming.acquire(&mut extra),
            Err(RenamingError::CapacityExceeded { capacity: 8 })
        ));
    }

    #[test]
    fn concurrent_processes_get_a_tight_namespace() {
        for seed in 0..5 {
            let renaming = Arc::new(LinearProbeRenaming::with_slots(
                (0..32).map(|_| RatRaceTas::new()).collect(),
            ));
            let outcome = VirtualExecutor::with_seed(seed)
                .run(12, {
                    let renaming = Arc::clone(&renaming);
                    move |ctx| renaming.acquire(ctx).unwrap()
                })
                .outcome;
            assert_tight_namespace(&outcome.results()).unwrap();
        }
    }

    #[test]
    fn probe_count_equals_the_acquired_name() {
        let renaming = LinearProbeRenaming::with_slots(
            (0..10).map(|_| HardwareTas::new()).collect::<Vec<_>>(),
        );
        for expected in 1..=10usize {
            let mut ctx = ProcessCtx::new(ProcessId::new(expected), 0);
            let (name, probes) = renaming.acquire_with_probes(&mut ctx).unwrap();
            assert_eq!(name, expected);
            assert_eq!(probes, expected, "linear probing probes k slots for name k");
        }
    }

    #[test]
    fn metadata_is_reported() {
        let renaming = LinearProbeRenaming::with_slots((0..4).map(|_| RatRaceTas::new()).collect());
        assert_eq!(renaming.capacity(), Some(4));
        assert!(renaming.is_adaptive());
        assert_eq!(renaming.len(), 4);
        assert!(!renaming.is_empty());
        assert!(format!("{renaming:?}").contains("LinearProbeRenaming"));
    }

    #[test]
    #[should_panic(expected = "at least one slot")]
    fn empty_slot_vectors_are_rejected() {
        let _ = LinearProbeRenaming::with_slots(Vec::<HardwareTas>::new());
    }
}
