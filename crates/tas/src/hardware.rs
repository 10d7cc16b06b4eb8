//! Hardware (atomic-swap) test-and-set.
//!
//! The paper states several bounds "counting test-and-set operations as having
//! unit cost", motivated by the fact that atomic test-and-set is available on
//! most modern machines (§2), and notes that the renaming-network results
//! become deterministic when hardware two-process test-and-set or
//! compare-and-swap is available (§1 Discussion, §9). [`HardwareTas`] is that
//! object: a single atomic swap.

use crate::{Side, TestAndSet, TwoPartyTas};
use shmem::process::ProcessCtx;
use shmem::register::{AtomicBoolRegister, InPlace};
use shmem::steps::StepKind;
use shmem::vexec::Loc;

/// A test-and-set backed by a single atomic swap instruction.
///
/// Winning costs exactly one read-modify-write step (plus the unit-cost
/// test-and-set invocation recorded for the paper's alternative cost
/// measure). Works for any number of participants and therefore implements
/// both [`TestAndSet`] and [`TwoPartyTas`].
///
/// # Example
///
/// ```
/// use shmem::process::{ProcessCtx, ProcessId};
/// use tas::hardware::HardwareTas;
/// use tas::TestAndSet;
///
/// let tas = HardwareTas::new();
/// let mut p0 = ProcessCtx::new(ProcessId::new(0), 1);
/// let mut p1 = ProcessCtx::new(ProcessId::new(1), 1);
/// assert!(tas.test_and_set(&mut p0));
/// assert!(!tas.test_and_set(&mut p1));
/// ```
#[derive(Debug, Default)]
pub struct HardwareTas {
    bit: AtomicBoolRegister,
}

impl InPlace for HardwareTas {
    const LOCS: u64 = 1;

    fn at(base: Loc) -> Self {
        HardwareTas {
            bit: AtomicBoolRegister::at(base, false),
        }
    }

    /// The first swap sets the bit.
    fn touched(&self) -> bool {
        self.bit.peek()
    }
}

impl HardwareTas {
    /// Creates an unwon test-and-set at a fresh location id.
    pub fn new() -> Self {
        Self::at(Loc::fresh())
    }
}

impl TestAndSet for HardwareTas {
    fn test_and_set(&self, ctx: &mut ProcessCtx) -> bool {
        ctx.record(StepKind::TasInvocation);
        // The previous value was `false` exactly for the first (winning) swap.
        !self.bit.test_and_set(ctx)
    }

    fn has_winner(&self) -> bool {
        self.bit.peek()
    }
}

impl TwoPartyTas for HardwareTas {
    fn play(&self, ctx: &mut ProcessCtx, _side: Side) -> bool {
        TestAndSet::test_and_set(self, ctx)
    }

    fn has_winner(&self) -> bool {
        self.bit.peek()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use shmem::process::ProcessId;
    use shmem::vexec::VirtualExecutor;
    use std::sync::Arc;

    #[test]
    fn first_caller_wins_rest_lose() {
        let tas = HardwareTas::new();
        assert!(!TestAndSet::has_winner(&tas));
        let mut first = ProcessCtx::new(ProcessId::new(0), 0);
        let mut second = ProcessCtx::new(ProcessId::new(1), 0);
        let mut third = ProcessCtx::new(ProcessId::new(2), 0);
        assert!(tas.test_and_set(&mut first));
        assert!(TestAndSet::has_winner(&tas));
        assert!(!tas.test_and_set(&mut second));
        assert!(!tas.test_and_set(&mut third));
    }

    #[test]
    fn charges_one_rmw_and_one_tas_invocation() {
        let tas = HardwareTas::new();
        let mut ctx = ProcessCtx::new(ProcessId::new(0), 0);
        tas.test_and_set(&mut ctx);
        assert_eq!(ctx.stats().rmws, 1);
        assert_eq!(ctx.stats().tas_invocations, 1);
    }

    #[test]
    fn two_party_interface_matches_test_and_set() {
        let tas = HardwareTas::new();
        let mut top = ProcessCtx::new(ProcessId::new(0), 0);
        let mut bottom = ProcessCtx::new(ProcessId::new(1), 0);
        assert!(tas.play(&mut top, Side::Top));
        assert!(!tas.play(&mut bottom, Side::Bottom));
        assert!(TwoPartyTas::has_winner(&tas));
    }

    #[test]
    fn exactly_one_winner_under_concurrency() {
        for seed in 0..10 {
            let tas = Arc::new(HardwareTas::new());
            let outcome = VirtualExecutor::with_seed(seed)
                .run(16, {
                    let tas = Arc::clone(&tas);
                    move |ctx| tas.test_and_set(ctx)
                })
                .outcome;
            let winners = outcome.results().into_iter().filter(|w| *w).count();
            assert_eq!(winners, 1, "seed {seed}");
        }
    }
}
