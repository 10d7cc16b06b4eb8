//! The linearizable ℓ-test-and-set object (§8.2, Algorithm 1).
//!
//! An ℓ-test-and-set generalizes test-and-set to ℓ winners: its sequential
//! specification is that the first ℓ invocations return `true` and every
//! later invocation returns `false`. The paper implements it from adaptive
//! strong renaming plus a *doorway* bit: an invocation first checks the
//! doorway; if it is still open it acquires a name and wins exactly when the
//! name is at most ℓ, closing the doorway otherwise. Lemma 5 shows this is
//! linearizable with expected step complexity `O(log k)`.

use crate::traits::Renaming;
use shmem::consistency::SequentialSpec;
use shmem::process::ProcessCtx;
use shmem::register::AtomicBoolRegister;
use std::fmt;
use std::sync::Arc;

/// The §8.2 ℓ-test-and-set: at most `limit` invocations win.
///
/// Each participating process invokes the object at most once (the underlying
/// renaming object hands each participant a single name).
///
/// # Example
///
/// ```
/// use adaptive_renaming::ltas::BoundedTas;
/// use shmem::adversary::ExecConfig;
/// use shmem::vexec::VirtualExecutor;
/// use std::sync::Arc;
///
/// let ltas = Arc::new(BoundedTas::new(3));
/// let outcome = VirtualExecutor::new(ExecConfig::new(9)).run(8, {
///     let ltas = Arc::clone(&ltas);
///     move |ctx| ltas.invoke(ctx)
/// }).outcome;
/// let winners = outcome.results().into_iter().filter(|w| *w).count();
/// assert_eq!(winners, 3);
/// ```
pub struct BoundedTas<R: Renaming = Arc<dyn Renaming>> {
    /// `false` = open, `true` = closed.
    doorway: AtomicBoolRegister,
    renaming: R,
    limit: usize,
}

impl BoundedTas<Arc<dyn Renaming>> {
    /// Creates an ℓ-test-and-set with `limit` winners over the default
    /// adaptive renaming backend, constructed through the
    /// [builder](crate::builder::RenamingBuilder) facade.
    ///
    /// # Panics
    ///
    /// Panics if `limit` is zero.
    pub fn new(limit: usize) -> Self {
        Self::with_renaming(
            <dyn Renaming>::builder()
                .build()
                .expect("the default adaptive configuration is always valid"),
            limit,
        )
    }
}

impl<R: Renaming> BoundedTas<R> {
    /// Creates an ℓ-test-and-set over an explicit renaming backend.
    ///
    /// # Panics
    ///
    /// Panics if `limit` is zero.
    pub fn with_renaming(renaming: R, limit: usize) -> Self {
        assert!(limit > 0, "an l-test-and-set needs at least one winner");
        BoundedTas {
            doorway: AtomicBoolRegister::new(false),
            renaming,
            limit,
        }
    }

    /// The number of invocations that may win.
    pub fn limit(&self) -> usize {
        self.limit
    }

    /// Invokes the object: returns `true` for at most [`BoundedTas::limit`]
    /// callers.
    pub fn invoke(&self, ctx: &mut ProcessCtx) -> bool {
        if self.doorway.read(ctx) {
            return false;
        }
        match self.renaming.acquire(ctx) {
            Ok(name) if name <= self.limit => true,
            Ok(_) => {
                self.doorway.write(ctx, true);
                false
            }
            Err(_) => {
                // A bounded backend ran out of names; the invocation cannot
                // win, and later arrivals should not bother the backend.
                self.doorway.write(ctx, true);
                false
            }
        }
    }
}

impl<R: Renaming> fmt::Debug for BoundedTas<R> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("BoundedTas")
            .field("limit", &self.limit)
            .field("doorway_closed", &self.doorway.peek())
            .finish()
    }
}

/// Sequential specification of an ℓ-test-and-set, for the linearizability
/// checker: the first `limit` operations return `true`, the rest `false`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BoundedTasSpec {
    /// The number of winning invocations.
    pub limit: u64,
}

impl SequentialSpec for BoundedTasSpec {
    type Op = ();
    type Ret = bool;
    type State = u64;

    fn initial(&self) -> u64 {
        0
    }

    fn apply(&self, state: &u64, _op: &()) -> (u64, bool) {
        (*state + 1, *state < self.limit)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use shmem::consistency::check_linearizable;
    use shmem::history::{History, OpRecord, Recorder};
    use shmem::process::ProcessId;
    use shmem::vexec::VirtualExecutor;
    use std::sync::Arc;

    #[test]
    fn exactly_limit_winners_sequentially() {
        let ltas = BoundedTas::new(4);
        assert_eq!(ltas.limit(), 4);
        let mut winners = 0;
        for id in 0..10usize {
            let mut ctx = ProcessCtx::new(ProcessId::new(id), 3);
            if ltas.invoke(&mut ctx) {
                winners += 1;
            }
        }
        assert_eq!(winners, 4);
        assert!(format!("{ltas:?}").contains("BoundedTas"));
    }

    #[test]
    fn late_arrivals_after_the_doorway_closes_lose_cheaply() {
        let ltas = BoundedTas::new(1);
        for id in 0..3usize {
            let mut ctx = ProcessCtx::new(ProcessId::new(id), 1);
            ltas.invoke(&mut ctx);
        }
        // By now some loser has closed the doorway.
        let mut ctx = ProcessCtx::new(ProcessId::new(50), 1);
        let before_steps;
        {
            before_steps = ctx.stats().total();
            assert!(!ltas.invoke(&mut ctx));
        }
        // A doorway-rejected invocation costs a single register read.
        assert_eq!(ctx.stats().total() - before_steps, 1);
    }

    #[test]
    fn exactly_limit_winners_under_concurrency() {
        for seed in 0..6 {
            for limit in [1usize, 2, 5] {
                let ltas = Arc::new(BoundedTas::new(limit));
                let k = 10usize;
                let outcome = VirtualExecutor::with_seed(seed)
                    .run(k, {
                        let ltas = Arc::clone(&ltas);
                        move |ctx| ltas.invoke(ctx)
                    })
                    .outcome;
                let winners = outcome.results().into_iter().filter(|w| *w).count();
                assert_eq!(winners, limit.min(k), "seed {seed}, limit {limit}");
            }
        }
    }

    #[test]
    fn fewer_participants_than_the_limit_all_win() {
        let ltas = Arc::new(BoundedTas::new(8));
        let outcome = VirtualExecutor::with_seed(1)
            .run(3, {
                let ltas = Arc::clone(&ltas);
                move |ctx| ltas.invoke(ctx)
            })
            .outcome;
        assert!(outcome.results().into_iter().all(|won| won));
    }

    #[test]
    fn recorded_histories_are_linearizable() {
        for seed in 0..4 {
            let limit = 3usize;
            let ltas = Arc::new(BoundedTas::new(limit));
            let recorder: Arc<Recorder<(), bool>> = Arc::new(Recorder::new());
            let outcome = VirtualExecutor::with_seed(seed)
                .run(8, {
                    let ltas = Arc::clone(&ltas);
                    let recorder = Arc::clone(&recorder);
                    move |ctx| {
                        let invoke = recorder.invoke();
                        let won = ltas.invoke(ctx);
                        recorder.record(ctx.id(), (), won, invoke);
                    }
                })
                .outcome;
            assert_eq!(outcome.crashed_count(), 0);
            let history = recorder.take_history();
            check_linearizable(
                &BoundedTasSpec {
                    limit: limit as u64,
                },
                &history,
            )
            .unwrap_or_else(|violation| panic!("seed {seed}: {violation}"));
        }
    }

    #[test]
    fn the_spec_itself_behaves_as_documented() {
        let spec = BoundedTasSpec { limit: 2 };
        let history = History::new(vec![
            OpRecord {
                process: ProcessId::new(0),
                op: (),
                result: true,
                invoke: 1,
                response: 2,
            },
            OpRecord {
                process: ProcessId::new(1),
                op: (),
                result: true,
                invoke: 3,
                response: 4,
            },
            OpRecord {
                process: ProcessId::new(2),
                op: (),
                result: false,
                invoke: 5,
                response: 6,
            },
        ]);
        assert!(check_linearizable(&spec, &history).is_ok());

        // Three winners with limit 2 is not linearizable.
        let bad = History::new(vec![
            OpRecord {
                process: ProcessId::new(0),
                op: (),
                result: true,
                invoke: 1,
                response: 2,
            },
            OpRecord {
                process: ProcessId::new(1),
                op: (),
                result: true,
                invoke: 3,
                response: 4,
            },
            OpRecord {
                process: ProcessId::new(2),
                op: (),
                result: true,
                invoke: 5,
                response: 6,
            },
        ]);
        assert!(check_linearizable(&spec, &bad).is_err());
    }

    #[test]
    #[should_panic(expected = "at least one winner")]
    fn zero_limits_are_rejected() {
        let _ = BoundedTas::new(0);
    }
}
