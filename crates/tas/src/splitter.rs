//! Randomized splitters.
//!
//! A splitter is the classic register-only object of Moir–Anderson/Lamport
//! fame: when `k ≥ 1` processes enter it, at most one *acquires* it, and a
//! process running alone always acquires it. The randomized splitter *tree*
//! of Attiya et al. \[25\] sends every non-acquiring process to a uniformly
//! random child; after `O(log k)` levels every process has acquired some node
//! with high probability. The paper uses this structure twice: inside the
//! RatRace adaptive test-and-set \[12\] (§2) and as the `TempName` first stage
//! of the adaptive renaming algorithm (§6.2).

use shmem::process::ProcessCtx;
use shmem::register::{AtomicBoolRegister, AtomicU64Register, InPlace};
use shmem::vexec::Loc;

/// The result of passing through a splitter.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum SplitterOutcome {
    /// The process acquired (stopped at) this splitter. At most one process
    /// per splitter acquires it.
    Acquired,
    /// The process did not acquire the splitter and must continue (in the
    /// splitter tree: to a uniformly random child).
    Continue,
}

impl SplitterOutcome {
    /// Whether this outcome is [`SplitterOutcome::Acquired`].
    pub fn is_acquired(&self) -> bool {
        matches!(self, SplitterOutcome::Acquired)
    }
}

/// A child direction in a randomized splitter tree.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Direction {
    /// The left child.
    Left,
    /// The right child.
    Right,
}

impl Direction {
    /// Chooses a direction uniformly at random using the process's local
    /// coin.
    pub fn random(ctx: &mut ProcessCtx) -> Direction {
        if ctx.flip() == 0 {
            Direction::Left
        } else {
            Direction::Right
        }
    }

    /// Index of the direction (0 for left, 1 for right).
    pub fn index(&self) -> usize {
        match self {
            Direction::Left => 0,
            Direction::Right => 1,
        }
    }
}

/// A one-shot splitter built from two registers.
///
/// # Guarantees
///
/// * At most one process ever returns [`SplitterOutcome::Acquired`].
/// * If exactly one process enters the splitter and runs to completion, it
///   acquires it.
/// * Every process returns after at most four register steps (wait-free).
///
/// # Example
///
/// ```
/// use shmem::process::{ProcessCtx, ProcessId};
/// use tas::splitter::{RandomizedSplitter, SplitterOutcome};
///
/// let splitter = RandomizedSplitter::new();
/// let mut ctx = ProcessCtx::new(ProcessId::new(4), 0);
/// assert_eq!(splitter.enter(&mut ctx), SplitterOutcome::Acquired);
/// assert!(splitter.is_acquired());
/// ```
#[derive(Debug, Default)]
pub struct RandomizedSplitter {
    /// The "name" register X: last process to enter, as its identifier
    /// plus one, so that 0 means that no process has entered.
    name: AtomicU64Register,
    /// The "door" register Y: set once somebody has gone through.
    door: AtomicBoolRegister,
    /// Harness-only flag recording that some process acquired the splitter.
    acquired: AtomicBoolRegister,
}

impl InPlace for RandomizedSplitter {
    const LOCS: u64 = 3;

    fn at(base: Loc) -> Self {
        RandomizedSplitter {
            name: AtomicU64Register::at(base, 0),
            door: AtomicBoolRegister::at(base.offset(1), false),
            acquired: AtomicBoolRegister::at(base.offset(2), false),
        }
    }

    /// Every entry writes the name register first.
    fn touched(&self) -> bool {
        self.name.peek() != 0 || self.door.peek()
    }
}

impl RandomizedSplitter {
    /// Creates a fresh, unacquired splitter at fresh location ids.
    pub fn new() -> Self {
        Self::at(Loc::fresh_block(Self::LOCS))
    }

    /// Passes the calling process through the splitter.
    pub fn enter(&self, ctx: &mut ProcessCtx) -> SplitterOutcome {
        let me = ctx.id().as_u64().wrapping_add(1);
        self.name.write(ctx, me);
        if self.door.read(ctx) {
            return SplitterOutcome::Continue;
        }
        self.door.write(ctx, true);
        if self.name.read(ctx) == me {
            // Harness bookkeeping (does not affect the algorithm's semantics).
            self.acquired.write(ctx, true);
            SplitterOutcome::Acquired
        } else {
            SplitterOutcome::Continue
        }
    }

    /// Whether some process has acquired this splitter (harness inspection
    /// hook; charges no steps).
    pub fn is_acquired(&self) -> bool {
        self.acquired.peek()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use shmem::process::ProcessId;
    use shmem::vexec::VirtualExecutor;
    use std::sync::Arc;

    #[test]
    fn solo_process_acquires_the_splitter() {
        let splitter = RandomizedSplitter::new();
        let mut ctx = ProcessCtx::new(ProcessId::new(7), 0);
        assert_eq!(splitter.enter(&mut ctx), SplitterOutcome::Acquired);
        assert!(splitter.is_acquired());
        assert!(SplitterOutcome::Acquired.is_acquired());
        assert!(!SplitterOutcome::Continue.is_acquired());
    }

    #[test]
    fn later_processes_do_not_acquire_after_a_solo_acquisition() {
        let splitter = RandomizedSplitter::new();
        let mut first = ProcessCtx::new(ProcessId::new(0), 0);
        let mut second = ProcessCtx::new(ProcessId::new(1), 0);
        assert_eq!(splitter.enter(&mut first), SplitterOutcome::Acquired);
        assert_eq!(splitter.enter(&mut second), SplitterOutcome::Continue);
    }

    #[test]
    fn splitter_costs_at_most_four_register_steps() {
        let splitter = RandomizedSplitter::new();
        let mut ctx = ProcessCtx::new(ProcessId::new(0), 0);
        splitter.enter(&mut ctx);
        assert!(ctx.stats().total() <= 5, "steps: {}", ctx.stats());
    }

    #[test]
    fn at_most_one_process_acquires_under_contention() {
        for seed in 0..30 {
            let splitter = Arc::new(RandomizedSplitter::new());
            let outcome = VirtualExecutor::with_seed(seed)
                .run(8, {
                    let splitter = Arc::clone(&splitter);
                    move |ctx| splitter.enter(ctx)
                })
                .outcome;
            let acquired = outcome
                .results()
                .into_iter()
                .filter(SplitterOutcome::is_acquired)
                .count();
            assert!(acquired <= 1, "seed {seed}: {acquired} acquirers");
        }
    }

    #[test]
    fn random_direction_is_roughly_balanced() {
        let mut ctx = ProcessCtx::new(ProcessId::new(0), 123);
        let mut lefts = 0usize;
        let trials = 1000;
        for _ in 0..trials {
            if Direction::random(&mut ctx) == Direction::Left {
                lefts += 1;
            }
        }
        assert!(lefts > trials / 4 && lefts < 3 * trials / 4);
        assert_eq!(Direction::Left.index(), 0);
        assert_eq!(Direction::Right.index(), 1);
    }
}
