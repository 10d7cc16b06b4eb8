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
//! recorded under *Substitutions* in `PAPER.md`.
//!
//! **Storage.** A renaming network holds one object per comparator and
//! builds the objects in place in its slabs and table leaves, so an object's
//! size is what a new network pays per comparator. Every register holds
//! "empty", side 0 or side 1, encoded as 0, 1 and 2, so it is one byte and
//! the all-zero state is the initial one. Plays nearly always decide in
//! round 0 or 1, so the object holds only those two rounds inline: six byte
//! registers plus the harness `decided` byte in one [`RegisterBlock`],
//! 32 bytes with the tail pointer. The other rounds and the arbiter are a
//! second, boxed block of 97 bytes, created once, through a `OnceLock`, by
//! the first play that reaches round 2. The object owns
//! [`LOCS`](InPlace::LOCS) = 104 consecutive location ids: the head's seven
//! words are at `base.offset(0..7)` and the tail's at `base.offset(7..104)`,
//! so creating the tail draws no id. Word *i* of a block charges its steps
//! at its own id, so the algorithm, the steps each play records and the
//! conflicts between them are the same as with one register per word built
//! up front.

use crate::{Side, TwoPartyTas};
use shmem::process::ProcessCtx;
use shmem::register::{InPlace, RegisterBlock};
use shmem::steps::StepKind;
use shmem::vexec::Loc;
use std::sync::OnceLock;

/// Number of purely register-based rounds before the arbiter escape hatch.
pub const RANDOM_ROUNDS: usize = 32;

/// Rounds in total: [`RANDOM_ROUNDS`] randomized rounds, one arbiter round,
/// and one final round that is guaranteed to decide.
const ROUNDS: usize = RANDOM_ROUNDS + 2;

/// Register value meaning "no value written yet": the initial state. A
/// written preference is a side's [`code`].
const EMPTY: u8 = 0;

/// The register encoding of `side`'s preference: 1 for the top side, 2 for
/// the bottom side.
fn code(side: Side) -> u8 {
    side.index() as u8 + 1
}

/// Words of one round, at these offsets from the round's first word: the
/// proposal of the top-side process and of the bottom-side process (each
/// single-writer), then the race register of the randomized conciliator.
const ROUND_WORDS: usize = 3;
const RACE: usize = 2;

/// Rounds kept inline in every [`TwoProcessTas`]. A play almost always
/// decides in round 0 (a winner that met no conflict) or round 1 (a loser
/// that adopted the winner's preference in round 0), so only these rounds
/// are built with the object.
const INLINE_ROUNDS: usize = 2;

/// Index of the harness `decided` word in the head block, after the inline
/// rounds.
const DECIDED: usize = INLINE_ROUNDS * ROUND_WORDS;
const HEAD_WORDS: usize = DECIDED + 1;

/// Index of the compare-and-swap arbiter word in the tail block, after the
/// tail's rounds. Used only by the escape-hatch round.
const ARBITER: usize = (ROUNDS - INLINE_ROUNDS) * ROUND_WORDS;
const TAIL_WORDS: usize = ARBITER + 1;

/// The inline rounds and the `decided` word.
type Head = RegisterBlock<HEAD_WORDS>;

/// The rarely reached rounds: the remaining randomized rounds, the arbiter
/// round and the final round that always decides, plus the arbiter word.
/// Created by the first play that needs round [`INLINE_ROUNDS`].
type Tail = RegisterBlock<TAIL_WORDS>;

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
    /// Rounds 0 and 1, then the harness-only record of the decided winner
    /// side (no algorithmic role).
    head: Head,
    tail: OnceLock<Box<Tail>>,
}

/// One round: its block and the index of its first word there.
struct Round<'a, const N: usize> {
    words: &'a RegisterBlock<N>,
    first: usize,
}

impl<const N: usize> Round<'_, N> {
    /// The commit-adopt gadget: returns `Ok(value)` if `value` was
    /// committed, `Err(adopted)` otherwise.
    fn commit_adopt(&self, ctx: &mut ProcessCtx, side: Side, preference: u8) -> Result<u8, u8> {
        self.words.write(ctx, self.first + side.index(), preference);
        let other = self.words.read(ctx, self.first + side.other().index());
        if other == EMPTY || other == preference {
            Ok(preference)
        } else {
            Err(other)
        }
    }

    /// The randomized race conciliator: nudges both preferences towards a
    /// common value.
    fn race_conciliator(&self, ctx: &mut ProcessCtx, preference: u8) -> u8 {
        let race = self.first + RACE;
        if ctx.flip() == 0 {
            self.words.write(ctx, race, preference);
            let seen = self.words.read(ctx, race);
            if seen == EMPTY {
                preference
            } else {
                seen
            }
        } else {
            let seen = self.words.read(ctx, race);
            if seen == EMPTY {
                self.words.write(ctx, race, preference);
                preference
            } else {
                seen
            }
        }
    }
}

impl InPlace for TwoProcessTas {
    const LOCS: u64 = Head::LOCS + Tail::LOCS;

    fn at(base: Loc) -> Self {
        TwoProcessTas {
            head: Head::at(base),
            tail: OnceLock::new(),
        }
    }

    /// Every play writes its preference in round 0.
    fn touched(&self) -> bool {
        self.head.touched()
    }
}

impl TwoProcessTas {
    /// Creates an unwon two-process test-and-set at fresh location ids.
    pub fn new() -> Self {
        Self::at(Loc::fresh_block(Self::LOCS))
    }

    /// The winner's side, if a winner has been determined (harness inspection
    /// hook; charges no steps).
    pub fn winner(&self) -> Option<Side> {
        match self.head.peek(DECIDED) {
            1 => Some(Side::Top),
            2 => Some(Side::Bottom),
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
        self.tail
            .get_or_init(|| Box::new(Tail::at(self.head.loc(HEAD_WORDS))))
    }

    /// Round `index`: commit-adopt, then (if undecided) the conciliator.
    /// Returns `Ok(won)` once the play decides, `Err(preference)` with the
    /// preference to carry into the next round otherwise.
    fn round<const N: usize>(
        &self,
        ctx: &mut ProcessCtx,
        round: Round<'_, N>,
        index: usize,
        side: Side,
        preference: u8,
    ) -> Result<bool, u8> {
        let preference = match round.commit_adopt(ctx, side, preference) {
            Ok(winner) => {
                // Harness bookkeeping only; not part of the algorithm.
                if self.head.peek(DECIDED) == EMPTY {
                    let _ = self.head.compare_and_swap(ctx, DECIDED, EMPTY, winner);
                }
                return Ok(winner == code(side));
            }
            Err(adopted) => adopted,
        };
        Err(if index < RANDOM_ROUNDS {
            round.race_conciliator(ctx, preference)
        } else {
            self.arbiter_conciliator(ctx, preference)
        })
    }

    /// The arbiter conciliator: a single compare-and-swap that forces both
    /// preferences to the first value installed.
    fn arbiter_conciliator(&self, ctx: &mut ProcessCtx, preference: u8) -> u8 {
        let tail = self.tail();
        let _ = tail.compare_and_swap(ctx, ARBITER, EMPTY, preference);
        tail.read(ctx, ARBITER)
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
        let mut preference = code(side);
        for index in 0..ROUNDS {
            let decided = if index < INLINE_ROUNDS {
                let words = &self.head;
                let first = index * ROUND_WORDS;
                self.round(ctx, Round { words, first }, index, side, preference)
            } else {
                let words = self.tail();
                let first = (index - INLINE_ROUNDS) * ROUND_WORDS;
                self.round(ctx, Round { words, first }, index, side, preference)
            };
            match decided {
                Ok(won) => return won,
                Err(next) => preference = next,
            }
        }
        unreachable!(
            "the round after the arbiter conciliator always commits: both \
             preferences are equal, so commit-adopt cannot conflict"
        )
    }

    fn has_winner(&self) -> bool {
        self.head.peek(DECIDED) != EMPTY
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use shmem::lazy::LazyTable;
    use shmem::process::ProcessId;
    use shmem::steps::StepStats;
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
        // every run still has one winner. The number of runs that reach the
        // tail and the summed step counts are pinned: the storage layout
        // must not change which words a play touches or what it charges.
        let (seeds, pinned_tail, pinned_steps) = if cfg!(miri) {
            (8, 1, (36, 36, 10, 10, 16))
        } else {
            (64, 13, (352, 337, 73, 112, 128))
        };
        let mut reached_tail = 0;
        let mut steps = StepStats::new();
        for seed in 0..seeds {
            let tas = Arc::new(TwoProcessTas::new());
            let run = VirtualExecutor::with_seed(seed).run(2, {
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
            steps += run.outcome.total_steps();
        }
        assert_eq!(reached_tail, pinned_tail, "runs that reached round 2");
        assert_eq!(
            (
                steps.reads,
                steps.writes,
                steps.rmws,
                steps.coin_flips,
                steps.tas_invocations
            ),
            pinned_steps,
            "summed (reads, writes, rmws, coin flips, TAS invocations)"
        );
    }

    #[test]
    fn object_and_slab_cell_stay_small() {
        // A renaming network's slabs and table leaves hold the objects
        // themselves, so a slab cell is one object and a 64-value table
        // leaf is 64 of them. That size is what a fresh §6 lease (perfbench
        // `lease_ramp`) pays per comparator slot when it builds a new
        // object, and per leaf its first touches create.
        assert!(std::mem::size_of::<TwoProcessTas>() <= 32);
        assert!(std::mem::size_of::<[TwoProcessTas; 64]>() <= 2048);
        assert!(std::mem::size_of::<Tail>() <= 112);
    }

    #[test]
    fn words_sit_at_consecutive_ids_and_the_tail_draws_none() {
        let base = Loc::fresh_block(TwoProcessTas::LOCS);
        let tas = TwoProcessTas::at(base);
        assert!(!tas.touched());
        let mut locs: Vec<Loc> = (0..HEAD_WORDS).map(|i| tas.head.loc(i)).collect();
        locs.extend((0..TAIL_WORDS).map(|i| tas.tail().loc(i)));
        let expected: Vec<Loc> = (0..TwoProcessTas::LOCS).map(|i| base.offset(i)).collect();
        assert_eq!(locs, expected);
        assert!(!tas.touched(), "creating the tail is not a play");
        let mut ctx = ProcessCtx::new(ProcessId::new(0), 4);
        assert!(tas.play(&mut ctx, Side::Bottom));
        assert!(tas.touched());
    }

    #[test]
    fn playing_fresh_comparators_in_an_existing_leaf_draws_no_ids() {
        // On a thread of its own, so that its location-id block is fresh
        // and two consecutive ids it draws differ by exactly 1.
        std::thread::spawn(|| {
            let table: LazyTable<TwoProcessTas> = LazyTable::new();
            let mut ctx = ProcessCtx::new(ProcessId::new(0), 8);
            assert!(table.get(0).play(&mut ctx, Side::Top), "builds the leaf");
            let before = Loc::fresh();
            for key in 1..=10 {
                assert!(table.get(key).play(&mut ctx, Side::Bottom));
            }
            let after = Loc::fresh();
            assert_eq!(after.as_u64() - before.as_u64(), 1);
            assert_eq!(table.touched(), 11);
        })
        .join()
        .unwrap();
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
            let outcome = VirtualExecutor::with_seed(seed)
                .run(2, {
                    let tas = Arc::clone(&tas);
                    move |ctx| {
                        let side = if ctx.id().as_usize() == 0 {
                            Side::Top
                        } else {
                            Side::Bottom
                        };
                        tas.play(ctx, side)
                    }
                })
                .outcome;
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
            let outcome = VirtualExecutor::with_seed(seed)
                .run(2, {
                    let tas = Arc::clone(&tas);
                    move |ctx| {
                        let side = if ctx.id().as_usize() == 0 {
                            Side::Top
                        } else {
                            Side::Bottom
                        };
                        tas.play(ctx, side)
                    }
                })
                .outcome;
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
