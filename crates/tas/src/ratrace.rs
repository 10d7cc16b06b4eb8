//! RatRace-style adaptive `n`-process test-and-set.
//!
//! The paper's BitBatching algorithm (§4) and its temporary-name stage rely on
//! the adaptive test-and-set of Alistarh et al. \[12\] ("RatRace"), whose step
//! complexity is `O(log² k)` with high probability in the contention `k` —
//! crucially independent of `n` and of the size of the initial namespace.
//!
//! [`RatRaceTas`] follows the same blueprint:
//!
//! 1. **Descent.** The process walks down a lazily allocated binary tree of
//!    [randomized splitters](crate::splitter::RandomizedSplitter), moving to a
//!    uniformly random child whenever it fails to acquire the current node.
//!    With `k` participants, every process acquires a node within `O(log k)`
//!    levels with high probability.
//! 2. **Climb.** The acquirer of a node becomes its *owner* and races back to
//!    the root through three-player tournaments: at every node, the winner
//!    emerging from the left subtree plays the winner from the right subtree
//!    in a two-process test-and-set, and the survivor plays the node's owner
//!    in a second one. The process that survives the root tournament wins a
//!    final two-process game against the winner of the *backup* object (see
//!    below); the overall survivor wins the `RatRaceTas`.
//! 3. **Backup.** A process that descends past a configurable depth bound
//!    without acquiring a splitter — an event of polynomially small
//!    probability — falls back to a hardware-swap backup object, preserving
//!    wait-freedom without affecting safety. (The original RatRace uses a
//!    linear backup chain; the substitution is recorded under
//!    *Substitutions* in `PAPER.md`.)

use crate::hardware::HardwareTas;
use crate::splitter::{Direction, RandomizedSplitter};
use crate::two_process::TwoProcessTas;
use crate::{Side, TestAndSet, TwoPartyTas};
use shmem::lazy::LazyTable;
use shmem::process::ProcessCtx;
use shmem::register::InPlace;
use shmem::steps::StepKind;
use shmem::vexec::Loc;
use std::fmt;

/// Maximum descent depth before a process diverts to the backup object.
///
/// The probability that a process fails to acquire a splitter for this many
/// levels is at most `2^-O(BACKUP_DEPTH)` once contention is below
/// `2^BACKUP_DEPTH`, so the backup is effectively never used; it exists to
/// keep the object wait-free with a hard bound.
pub const BACKUP_DEPTH: usize = 48;

/// One node of the RatRace tree.
struct Node {
    splitter: RandomizedSplitter,
    /// Two-process game between the winners of the left and right subtrees.
    children_game: TwoProcessTas,
    /// Two-process game between the children-game survivor and this node's
    /// owner (the process that acquired the splitter).
    owner_game: TwoProcessTas,
}

impl InPlace for Node {
    const LOCS: u64 = RandomizedSplitter::LOCS + 2 * TwoProcessTas::LOCS;

    fn at(base: Loc) -> Self {
        let games = base.offset(RandomizedSplitter::LOCS);
        Node {
            splitter: RandomizedSplitter::at(base),
            children_game: TwoProcessTas::at(games),
            owner_game: TwoProcessTas::at(games.offset(TwoProcessTas::LOCS)),
        }
    }

    fn touched(&self) -> bool {
        self.splitter.touched() || self.children_game.touched() || self.owner_game.touched()
    }
}

/// An adaptive `n`-process test-and-set in the style of RatRace \[12\].
///
/// Step complexity is polylogarithmic in the contention `k` with high
/// probability, and the object is safe (at most one winner, a solo
/// participant wins) in every execution.
///
/// # Example
///
/// ```
/// use shmem::process::{ProcessCtx, ProcessId};
/// use tas::ratrace::RatRaceTas;
/// use tas::TestAndSet;
///
/// let tas = RatRaceTas::new();
/// let mut solo = ProcessCtx::new(ProcessId::new(42), 9);
/// assert!(tas.test_and_set(&mut solo));
/// ```
pub struct RatRaceTas {
    /// Tree nodes, built a leaf of 64 at a time on first touch and keyed
    /// by heap index (root = 1, children of `i` are `2i` and `2i + 1`).
    nodes: LazyTable<Node>,
    /// Final game between the primary-tree winner (top) and the backup winner
    /// (bottom).
    crown: TwoProcessTas,
    /// Backup object for processes that exceed [`BACKUP_DEPTH`].
    backup: HardwareTas,
}

impl RatRaceTas {
    /// Creates an unwon adaptive test-and-set.
    pub fn new() -> Self {
        RatRaceTas {
            nodes: LazyTable::new(),
            crown: TwoProcessTas::new(),
            backup: HardwareTas::new(),
        }
    }

    /// Number of tree nodes some process has entered (harness inspection
    /// hook).
    pub fn allocated_nodes(&self) -> usize {
        self.nodes.touched()
    }

    fn node(&self, index: u64) -> &Node {
        self.nodes.get(index)
    }

    /// Descends the splitter tree until acquiring a node; returns its heap
    /// index, or `None` if the depth bound was exceeded.
    fn descend(&self, ctx: &mut ProcessCtx) -> Option<u64> {
        let mut index: u64 = 1;
        for _ in 0..BACKUP_DEPTH {
            let node = self.node(index);
            if node.splitter.enter(ctx).is_acquired() {
                return Some(index);
            }
            index = match Direction::random(ctx) {
                Direction::Left => index * 2,
                Direction::Right => index * 2 + 1,
            };
        }
        None
    }

    /// Climbs from the owned node back to the root, playing the three-player
    /// tournament at every level. Returns `true` if the process survives the
    /// root tournament.
    fn climb(&self, ctx: &mut ProcessCtx, owned_index: u64) -> bool {
        // The owner first defends its own node against the survivor of its
        // subtrees.
        let owned = self.node(owned_index);
        if !owned.owner_game.play(ctx, Side::Bottom) {
            return false;
        }
        // Then it rises through the ancestors: at each parent, play the
        // children game on the side matching the child it came from, then the
        // owner game against that parent's owner.
        let mut index = owned_index;
        while index > 1 {
            let parent_index = index / 2;
            let parent = self.node(parent_index);
            let side = if index.is_multiple_of(2) {
                Side::Top
            } else {
                Side::Bottom
            };
            if !parent.children_game.play(ctx, side) {
                return false;
            }
            if !parent.owner_game.play(ctx, Side::Top) {
                return false;
            }
            index = parent_index;
        }
        true
    }
}

impl Default for RatRaceTas {
    fn default() -> Self {
        Self::new()
    }
}

impl fmt::Debug for RatRaceTas {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RatRaceTas")
            .field("allocated_nodes", &self.allocated_nodes())
            .field("has_winner", &TestAndSet::has_winner(self))
            .finish()
    }
}

impl TestAndSet for RatRaceTas {
    fn test_and_set(&self, ctx: &mut ProcessCtx) -> bool {
        ctx.record(StepKind::TasInvocation);
        match self.descend(ctx) {
            Some(owned_index) => {
                if !self.climb(ctx, owned_index) {
                    return false;
                }
                self.crown.play(ctx, Side::Top)
            }
            None => {
                // Depth bound exceeded: divert to the backup object, then
                // play the crown from the backup side.
                if !TestAndSet::test_and_set(&self.backup, ctx) {
                    return false;
                }
                self.crown.play(ctx, Side::Bottom)
            }
        }
    }

    fn has_winner(&self) -> bool {
        TwoPartyTas::has_winner(&self.crown)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use shmem::adversary::{CrashPlan, ExecConfig};
    use shmem::process::ProcessId;
    use shmem::vexec::VirtualExecutor;
    use std::sync::Arc;

    #[test]
    fn solo_process_wins_at_the_root() {
        let tas = RatRaceTas::new();
        let mut ctx = ProcessCtx::new(ProcessId::new(3), 5);
        assert!(tas.test_and_set(&mut ctx));
        assert!(TestAndSet::has_winner(&tas));
        // A solo process acquires the root splitter, so it enters one node.
        assert_eq!(tas.allocated_nodes(), 1);
    }

    #[test]
    fn sequential_processes_produce_exactly_one_winner() {
        let tas = RatRaceTas::new();
        let mut winners = 0;
        for id in 0..20 {
            let mut ctx = ProcessCtx::new(ProcessId::new(id), 11);
            if tas.test_and_set(&mut ctx) {
                winners += 1;
            }
        }
        assert_eq!(winners, 1);
    }

    #[test]
    fn concurrent_processes_produce_exactly_one_winner() {
        for seed in 0..15 {
            let tas = Arc::new(RatRaceTas::new());
            let outcome = VirtualExecutor::with_seed(seed)
                .run(24, {
                    let tas = Arc::clone(&tas);
                    move |ctx| tas.test_and_set(ctx)
                })
                .outcome;
            let winners = outcome.results().into_iter().filter(|w| *w).count();
            assert_eq!(winners, 1, "seed {seed}");
        }
    }

    #[test]
    fn crashes_never_create_a_second_winner() {
        for seed in 0..10 {
            let tas = Arc::new(RatRaceTas::new());
            let config = ExecConfig::new(seed).with_crash_plan(CrashPlan::Random {
                prob: 0.4,
                max_steps: 20,
            });
            let outcome = VirtualExecutor::new(config)
                .run(16, {
                    let tas = Arc::clone(&tas);
                    move |ctx| tas.test_and_set(ctx)
                })
                .outcome;
            let winners = outcome.results().into_iter().filter(|w| *w).count();
            assert!(winners <= 1, "seed {seed}: {winners} winners");
        }
    }

    #[test]
    fn step_complexity_is_polylogarithmic_in_contention() {
        // With k = 16 concurrent participants the maximum per-process step
        // count should be far below the Θ(k) cost of a linear scan.
        let tas = Arc::new(RatRaceTas::new());
        let outcome = VirtualExecutor::with_seed(77)
            .run(16, {
                let tas = Arc::clone(&tas);
                move |ctx| tas.test_and_set(ctx)
            })
            .outcome;
        let summary = outcome.step_summary();
        assert!(
            summary.max_register_steps < 600,
            "max steps {}",
            summary.max_register_steps
        );
    }

    #[test]
    fn losers_observe_that_the_object_is_won() {
        let tas = RatRaceTas::new();
        let mut first = ProcessCtx::new(ProcessId::new(0), 2);
        assert!(tas.test_and_set(&mut first));
        let mut second = ProcessCtx::new(ProcessId::new(1), 2);
        assert!(!tas.test_and_set(&mut second));
        assert!(TestAndSet::has_winner(&tas));
        assert!(format!("{tas:?}").contains("RatRaceTas"));
    }
}
