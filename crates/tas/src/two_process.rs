//! Randomized two-process test-and-set from read/write registers.
//!
//! The paper uses the two-process test-and-set of Tromp and Vitányi \[20\] as
//! the comparator object of its renaming networks: expected `O(1)` steps, and
//! `O(log n)` steps with high probability (§2). [`TwoProcessTas`] reproduces
//! that object's interface and cost profile with a construction we can verify
//! directly:
//!
//! * Rounds of a **two-process commit-adopt gadget** built from single-writer
//!   registers. In each round a process writes its current preference
//!   (candidate winner), reads the other side's preference, and *commits* if
//!   it saw no conflict, otherwise *adopts* the other preference. The gadget
//!   guarantees that at most one value is ever committed and that once a value
//!   is committed every later decision agrees with it — this is what makes the
//!   object safe in **every** execution, no matter the schedule.
//! * A **randomized race conciliator** between rounds: each process either
//!   writes its preference to a shared race register before reading it, or
//!   reads first and only writes if the register is empty, choosing between
//!   the two orders by a fair coin. Under any realistic schedule the
//!   preferences coalesce within a couple of rounds, giving constant expected
//!   step complexity, matching the Tromp–Vitányi profile.
//! * An **arbiter escape hatch**: after [`RANDOM_ROUNDS`] rounds without a
//!   decision (an event we have never observed and whose probability decays
//!   geometrically), the conciliator of the final round is replaced by a
//!   single compare-and-swap that forces both preferences equal, after which
//!   the next commit-adopt round must decide. This bounds the worst case
//!   without ever compromising safety, and mirrors the paper's remark that
//!   hardware test-and-set/compare-and-swap may be assumed at unit cost.
//!
//! The substitution relative to the verbatim Tromp–Vitányi algorithm is
//! documented in `DESIGN.md`.
//!
//! **Storage.** A renaming network holds one object per comparator and
//! creates it on first touch, so construction is on the traversal path.
//! Plays nearly always decide in round 0 or 1, so the object holds only
//! those two rounds (six registers plus the harness `decided` word); the
//! other rounds and the arbiter are created once, through a `OnceLock`, by
//! the first play that reaches round 2. The algorithm and the steps each
//! play records are the same as with every round built up front.

use crate::{Side, TwoPartyTas};
use shmem::process::ProcessCtx;
use shmem::register::AtomicUsizeRegister;
use shmem::steps::StepKind;
use std::sync::OnceLock;

/// Number of purely register-based rounds before the arbiter escape hatch.
pub const RANDOM_ROUNDS: usize = 32;

/// Rounds in total: [`RANDOM_ROUNDS`] randomized rounds, one arbiter round,
/// and one final round that is guaranteed to decide.
const ROUNDS: usize = RANDOM_ROUNDS + 2;

/// Sentinel meaning "no value written yet".
const EMPTY: usize = usize::MAX;

/// One round's worth of shared registers.
#[derive(Debug)]
struct Round {
    /// Proposal register of the top-side process (single writer).
    proposal_top: AtomicUsizeRegister,
    /// Proposal register of the bottom-side process (single writer).
    proposal_bottom: AtomicUsizeRegister,
    /// Race register used by the randomized conciliator.
    race: AtomicUsizeRegister,
}

impl Round {
    fn new() -> Self {
        Round {
            proposal_top: AtomicUsizeRegister::new(EMPTY),
            proposal_bottom: AtomicUsizeRegister::new(EMPTY),
            race: AtomicUsizeRegister::new(EMPTY),
        }
    }

    fn proposal(&self, side: Side) -> &AtomicUsizeRegister {
        match side {
            Side::Top => &self.proposal_top,
            Side::Bottom => &self.proposal_bottom,
        }
    }
}

/// Rounds kept inline in every [`TwoProcessTas`]. A play almost always
/// decides in round 0 (a winner that met no conflict) or round 1 (a loser
/// that adopted the winner's preference in round 0), so only these rounds
/// are built with the object.
const INLINE_ROUNDS: usize = 2;

/// The rarely reached rounds: the remaining randomized rounds, the arbiter
/// round and the final round that always decides, plus the arbiter register.
/// Created by the first play that needs round [`INLINE_ROUNDS`].
#[derive(Debug)]
struct Tail {
    rounds: Box<[Round]>,
    /// Compare-and-swap arbiter used only by the escape-hatch round.
    arbiter: AtomicUsizeRegister,
}

impl Tail {
    fn new() -> Self {
        Tail {
            rounds: (INLINE_ROUNDS..ROUNDS).map(|_| Round::new()).collect(),
            arbiter: AtomicUsizeRegister::new(EMPTY),
        }
    }
}

/// A one-shot randomized two-process test-and-set built from registers.
///
/// See the [module documentation](self) for the construction and its
/// guarantees: at most one winner in every execution, a solo participant
/// always wins, and constant expected step complexity.
///
/// # Example
///
/// ```
/// use shmem::process::{ProcessCtx, ProcessId};
/// use tas::two_process::TwoProcessTas;
/// use tas::{Side, TwoPartyTas};
///
/// let tas = TwoProcessTas::new();
/// let mut top = ProcessCtx::new(ProcessId::new(0), 7);
/// let mut bottom = ProcessCtx::new(ProcessId::new(1), 7);
/// let top_won = tas.play(&mut top, Side::Top);
/// let bottom_won = tas.play(&mut bottom, Side::Bottom);
/// assert!(top_won ^ bottom_won, "exactly one side wins");
/// ```
#[derive(Debug)]
pub struct TwoProcessTas {
    head: [Round; INLINE_ROUNDS],
    tail: OnceLock<Tail>,
    /// Harness-only record of the decided winner side (no algorithmic role).
    decided: AtomicUsizeRegister,
}

impl TwoProcessTas {
    /// Creates an unwon two-process test-and-set.
    pub fn new() -> Self {
        TwoProcessTas {
            head: [Round::new(), Round::new()],
            tail: OnceLock::new(),
            decided: AtomicUsizeRegister::new(EMPTY),
        }
    }

    /// The winner's side, if a winner has been determined (harness inspection
    /// hook; charges no steps).
    pub fn winner(&self) -> Option<Side> {
        match self.decided.peek() {
            0 => Some(Side::Top),
            1 => Some(Side::Bottom),
            _ => None,
        }
    }

    /// Whether some play has reached round 2 and so created the rounds
    /// beyond the inline ones (test-only inspection hook).
    #[cfg(test)]
    fn tail_allocated(&self) -> bool {
        self.tail.get().is_some()
    }

    fn tail(&self) -> &Tail {
        self.tail.get_or_init(Tail::new)
    }

    /// Round `index`, creating the tail on first need.
    fn round(&self, index: usize) -> &Round {
        match self.head.get(index) {
            Some(round) => round,
            None => &self.tail().rounds[index - INLINE_ROUNDS],
        }
    }

    /// One commit-adopt round: returns `Ok(value)` if `value` was committed,
    /// `Err(adopted)` otherwise.
    fn commit_adopt(
        &self,
        ctx: &mut ProcessCtx,
        round: &Round,
        side: Side,
        preference: usize,
    ) -> Result<usize, usize> {
        round.proposal(side).write(ctx, preference);
        let other = round.proposal(side.other()).read(ctx);
        if other == EMPTY || other == preference {
            Ok(preference)
        } else {
            Err(other)
        }
    }

    /// The randomized race conciliator: nudges both preferences towards a
    /// common value.
    fn race_conciliator(&self, ctx: &mut ProcessCtx, round: &Round, preference: usize) -> usize {
        if ctx.flip() == 0 {
            round.race.write(ctx, preference);
            let seen = round.race.read(ctx);
            if seen == EMPTY {
                preference
            } else {
                seen
            }
        } else {
            let seen = round.race.read(ctx);
            if seen == EMPTY {
                round.race.write(ctx, preference);
                preference
            } else {
                seen
            }
        }
    }

    /// The arbiter conciliator: a single compare-and-swap that forces both
    /// preferences to the first value installed.
    fn arbiter_conciliator(&self, ctx: &mut ProcessCtx, preference: usize) -> usize {
        let arbiter = &self.tail().arbiter;
        let _ = arbiter.compare_and_swap(ctx, EMPTY, preference);
        arbiter.read(ctx)
    }
}

impl Default for TwoProcessTas {
    fn default() -> Self {
        Self::new()
    }
}

impl TwoPartyTas for TwoProcessTas {
    fn play(&self, ctx: &mut ProcessCtx, side: Side) -> bool {
        ctx.record(StepKind::TasInvocation);
        let mut preference = side.index();
        for index in 0..ROUNDS {
            let round = self.round(index);
            match self.commit_adopt(ctx, round, side, preference) {
                Ok(winner) => {
                    // Harness bookkeeping only; not part of the algorithm.
                    if self.decided.peek() == EMPTY {
                        self.decided
                            .compare_and_swap(ctx, EMPTY, winner)
                            .map(|_| ())
                            .unwrap_or(());
                    }
                    return winner == side.index();
                }
                Err(adopted) => preference = adopted,
            }
            preference = if index < RANDOM_ROUNDS {
                self.race_conciliator(ctx, round, preference)
            } else {
                self.arbiter_conciliator(ctx, preference)
            };
        }
        unreachable!(
            "the round after the arbiter conciliator always commits: both \
             preferences are equal, so commit-adopt cannot conflict"
        )
    }

    fn has_winner(&self) -> bool {
        self.decided.peek() != EMPTY
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use shmem::adversary::{ArrivalSchedule, ExecConfig, ScheduleSource, YieldPolicy};
    use shmem::executor::Executor;
    use shmem::process::ProcessId;
    use shmem::vexec::VirtualExecutor;
    use std::sync::Arc;

    #[test]
    fn solo_top_participant_wins() {
        let tas = TwoProcessTas::new();
        let mut ctx = ProcessCtx::new(ProcessId::new(0), 1);
        assert!(tas.play(&mut ctx, Side::Top));
        assert!(TwoPartyTas::has_winner(&tas));
        assert_eq!(tas.winner(), Some(Side::Top));
    }

    #[test]
    fn solo_bottom_participant_wins() {
        let tas = TwoProcessTas::new();
        let mut ctx = ProcessCtx::new(ProcessId::new(1), 1);
        assert!(tas.play(&mut ctx, Side::Bottom));
        assert_eq!(tas.winner(), Some(Side::Bottom));
    }

    #[test]
    fn sequential_contenders_yield_exactly_one_winner() {
        let tas = TwoProcessTas::new();
        let mut first = ProcessCtx::new(ProcessId::new(0), 3);
        let mut second = ProcessCtx::new(ProcessId::new(1), 3);
        let first_won = tas.play(&mut first, Side::Top);
        let second_won = tas.play(&mut second, Side::Bottom);
        assert!(first_won, "a participant running alone to completion wins");
        assert!(!second_won);
    }

    #[test]
    fn solo_winner_and_sequential_loser_decide_inline() {
        // The common case never creates the tail: the winner commits in
        // round 0, the loser adopts in round 0 and commits in round 1.
        for (first, second) in [(Side::Top, Side::Bottom), (Side::Bottom, Side::Top)] {
            for seed in 0..16 {
                let tas = TwoProcessTas::new();
                let mut winner = ProcessCtx::new(ProcessId::new(0), seed);
                let mut loser = ProcessCtx::new(ProcessId::new(1), seed);
                assert!(tas.play(&mut winner, first));
                assert!(!tas.play(&mut loser, second));
                assert!(!tas.tail_allocated(), "seed {seed}: tail created");
            }
        }
    }

    #[test]
    fn interleaved_plays_reach_the_tail_and_still_decide_once() {
        // Under the virtual executor's seeded random scheduler some
        // interleavings conflict in rounds 0 and 1, so a play reaches
        // round 2 and creates the tail (seed 5 is the first that does);
        // every run still has one winner.
        let seeds = if cfg!(miri) { 8 } else { 64 };
        let mut reached_tail = 0;
        for seed in 0..seeds {
            let tas = Arc::new(TwoProcessTas::new());
            let config = ExecConfig::new(seed).with_schedule(ScheduleSource::Random(seed));
            let run = VirtualExecutor::new(config).run(2, {
                let tas = Arc::clone(&tas);
                move |ctx| {
                    let side = if ctx.id().as_usize() == 0 {
                        Side::Top
                    } else {
                        Side::Bottom
                    };
                    tas.play(ctx, side)
                }
            });
            let winners = run.outcome.results().into_iter().filter(|w| *w).count();
            assert_eq!(winners, 1, "seed {seed}: exactly one winner required");
            if tas.tail_allocated() {
                reached_tail += 1;
            }
        }
        assert!(reached_tail > 0, "no seed reached round 2");
    }

    #[test]
    fn losers_see_the_winner_after_the_fact() {
        let tas = TwoProcessTas::new();
        let mut bottom = ProcessCtx::new(ProcessId::new(1), 9);
        assert!(tas.play(&mut bottom, Side::Bottom));
        let mut top = ProcessCtx::new(ProcessId::new(0), 9);
        assert!(!tas.play(&mut top, Side::Top));
        assert_eq!(tas.winner(), Some(Side::Bottom));
    }

    #[test]
    fn concurrent_contenders_always_produce_exactly_one_winner() {
        let seeds = if cfg!(miri) { 4 } else { 50 };
        for seed in 0..seeds {
            let tas = Arc::new(TwoProcessTas::new());
            let config = ExecConfig::new(seed)
                .with_yield_policy(YieldPolicy::Probabilistic(0.3))
                .with_arrival(ArrivalSchedule::Simultaneous);
            let outcome = Executor::new(config).run(2, {
                let tas = Arc::clone(&tas);
                move |ctx| {
                    let side = if ctx.id().as_usize() == 0 {
                        Side::Top
                    } else {
                        Side::Bottom
                    };
                    tas.play(ctx, side)
                }
            });
            let winners = outcome.results().into_iter().filter(|w| *w).count();
            assert_eq!(winners, 1, "seed {seed}: exactly one winner required");
        }
    }

    #[test]
    fn expected_step_complexity_is_small() {
        let mut total_steps = 0u64;
        let trials = if cfg!(miri) { 4 } else { 50 };
        for seed in 0..trials {
            let tas = Arc::new(TwoProcessTas::new());
            let outcome = Executor::new(ExecConfig::new(seed)).run(2, {
                let tas = Arc::clone(&tas);
                move |ctx| {
                    let side = if ctx.id().as_usize() == 0 {
                        Side::Top
                    } else {
                        Side::Bottom
                    };
                    tas.play(ctx, side)
                }
            });
            total_steps += outcome.total_steps().total();
        }
        let mean_per_process = total_steps as f64 / (2 * trials) as f64;
        // The constant-expected-steps profile of Tromp–Vitányi: the mean
        // should be a small constant, far below even a single round per
        // process times the round limit.
        assert!(
            mean_per_process < 20.0,
            "mean steps per play was {mean_per_process}"
        );
    }

    #[test]
    fn winner_is_reported_only_after_a_decision() {
        let tas = TwoProcessTas::new();
        assert!(!TwoPartyTas::has_winner(&tas));
        assert_eq!(tas.winner(), None);
        let mut ctx = ProcessCtx::new(ProcessId::new(0), 2);
        tas.play(&mut ctx, Side::Top);
        assert!(TwoPartyTas::has_winner(&tas));
    }
}
