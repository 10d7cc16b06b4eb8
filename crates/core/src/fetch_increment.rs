//! The linearizable m-valued fetch-and-increment object (§8.2, Algorithm 2).
//!
//! An m-valued fetch-and-increment behaves like fetch-and-increment but
//! saturates: once the counter reaches `m − 1` every later operation keeps
//! returning `m − 1`. The paper builds it recursively: an ℓ-valued object is
//! an ℓ/2-test-and-set (built from adaptive renaming, Algorithm 1) steering
//! each operation either to a left ℓ/2-valued object (winners) or to a right
//! ℓ/2-valued object plus an offset of ℓ/2 (losers); the recursion bottoms out
//! at 0-valued objects that always return 0. Theorem 6 shows the construction
//! is linearizable with `O(log k · log m)` expected step complexity.

use crate::ltas::BoundedTas;
use crate::traits::Renaming;
use shmem::consistency::SequentialSpec;
use shmem::process::ProcessCtx;
use std::fmt;
use std::sync::{Arc, OnceLock};

/// One node of the recursive construction, covering `span` values.
struct FaiNode {
    /// Number of values this node can hand out (a power of two, or 1 for the
    /// leaves).
    span: u64,
    /// The ℓ/2-test-and-set steering operations left (winners) or right;
    /// its inner renaming object is constructed through the builder facade.
    gate: OnceLock<BoundedTas<Arc<dyn Renaming>>>,
    left: OnceLock<Box<FaiNode>>,
    right: OnceLock<Box<FaiNode>>,
}

impl FaiNode {
    fn new(span: u64) -> Self {
        FaiNode {
            span,
            gate: OnceLock::new(),
            left: OnceLock::new(),
            right: OnceLock::new(),
        }
    }

    fn gate(&self) -> &BoundedTas<Arc<dyn Renaming>> {
        self.gate
            .get_or_init(|| BoundedTas::new((self.span / 2) as usize))
    }

    fn left(&self) -> &FaiNode {
        self.left
            .get_or_init(|| Box::new(FaiNode::new(self.span / 2)))
    }

    fn right(&self) -> &FaiNode {
        self.right
            .get_or_init(|| Box::new(FaiNode::new(self.span / 2)))
    }

    fn fetch_and_increment(&self, ctx: &mut ProcessCtx) -> u64 {
        if self.span <= 1 {
            // A 0/1-valued object always returns 0.
            return 0;
        }
        if self.gate().invoke(ctx) {
            self.left().fetch_and_increment(ctx)
        } else {
            self.span / 2 + self.right().fetch_and_increment(ctx)
        }
    }
}

/// The §8.2 m-valued linearizable fetch-and-increment.
///
/// Each participating process performs at most one operation per object in
/// the paper's model; like the renaming objects, performing several
/// operations from one OS thread is supported and each acts as a fresh
/// virtual participant.
///
/// # Example
///
/// ```
/// use adaptive_renaming::fetch_increment::BoundedFetchIncrement;
/// use shmem::adversary::ExecConfig;
/// use shmem::vexec::VirtualExecutor;
/// use std::sync::Arc;
///
/// let object = Arc::new(BoundedFetchIncrement::new(16));
/// let outcome = VirtualExecutor::new(ExecConfig::new(2)).run(5, {
///     let object = Arc::clone(&object);
///     move |ctx| object.fetch_and_increment(ctx)
/// }).outcome;
/// let mut values = outcome.results();
/// values.sort_unstable();
/// assert_eq!(values, vec![0, 1, 2, 3, 4]);
/// ```
pub struct BoundedFetchIncrement {
    limit: u64,
    root: FaiNode,
}

impl BoundedFetchIncrement {
    /// Creates an m-valued fetch-and-increment supporting values
    /// `0..=limit-1`.
    ///
    /// Internally the recursion uses the smallest power of two at least
    /// `limit`, and results are clamped to `limit − 1`, exactly as the paper
    /// prescribes for general `m`.
    ///
    /// # Panics
    ///
    /// Panics if `limit` is zero.
    pub fn new(limit: u64) -> Self {
        assert!(limit > 0, "fetch-and-increment needs at least one value");
        BoundedFetchIncrement {
            limit,
            root: FaiNode::new(limit.next_power_of_two().max(2)),
        }
    }

    /// The number of distinct values the object hands out.
    pub fn limit(&self) -> u64 {
        self.limit
    }

    /// Returns the current value and increments, saturating at
    /// `limit − 1`.
    pub fn fetch_and_increment(&self, ctx: &mut ProcessCtx) -> u64 {
        self.root.fetch_and_increment(ctx).min(self.limit - 1)
    }
}

impl fmt::Debug for BoundedFetchIncrement {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("BoundedFetchIncrement")
            .field("limit", &self.limit)
            .finish()
    }
}

/// Sequential specification of the m-valued fetch-and-increment, for the
/// linearizability checker.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FetchIncrementSpec {
    /// The object's value bound `m`.
    pub limit: u64,
}

impl SequentialSpec for FetchIncrementSpec {
    type Op = ();
    type Ret = u64;
    type State = u64;

    fn initial(&self) -> u64 {
        0
    }

    fn apply(&self, state: &u64, _op: &()) -> (u64, u64) {
        ((*state + 1).min(self.limit), (*state).min(self.limit - 1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use shmem::consistency::check_linearizable;
    use shmem::history::Recorder;
    use shmem::process::ProcessId;
    use shmem::vexec::VirtualExecutor;
    use std::sync::Arc;

    #[test]
    fn sequential_operations_return_consecutive_values() {
        let object = BoundedFetchIncrement::new(32);
        assert_eq!(object.limit(), 32);
        for expected in 0..8u64 {
            let mut ctx = ProcessCtx::new(ProcessId::new(expected as usize), 4);
            assert_eq!(object.fetch_and_increment(&mut ctx), expected);
        }
        assert!(format!("{object:?}").contains("BoundedFetchIncrement"));
    }

    #[test]
    fn values_saturate_at_the_limit() {
        let object = BoundedFetchIncrement::new(3);
        let mut values = Vec::new();
        for id in 0..6usize {
            let mut ctx = ProcessCtx::new(ProcessId::new(id), 1);
            values.push(object.fetch_and_increment(&mut ctx));
        }
        assert_eq!(values[..3], [0, 1, 2]);
        assert!(values[3..].iter().all(|&v| v == 2), "{values:?}");
    }

    #[test]
    fn concurrent_operations_return_distinct_consecutive_values() {
        for seed in 0..5 {
            let object = Arc::new(BoundedFetchIncrement::new(64));
            let k = 10usize;
            let outcome = VirtualExecutor::with_seed(seed)
                .run(k, {
                    let object = Arc::clone(&object);
                    move |ctx| object.fetch_and_increment(ctx)
                })
                .outcome;
            let mut values = outcome.results();
            values.sort_unstable();
            assert_eq!(
                values,
                (0..k as u64).collect::<Vec<_>>(),
                "seed {seed}: k concurrent operations must receive 0..k"
            );
        }
    }

    #[test]
    fn recorded_histories_are_linearizable() {
        for seed in 0..3 {
            let limit = 16u64;
            let object = Arc::new(BoundedFetchIncrement::new(limit));
            let recorder: Arc<Recorder<(), u64>> = Arc::new(Recorder::new());
            let outcome = VirtualExecutor::with_seed(seed)
                .run(8, {
                    let object = Arc::clone(&object);
                    let recorder = Arc::clone(&recorder);
                    move |ctx| {
                        let invoke = recorder.invoke(ctx.id(), ());
                        let value = object.fetch_and_increment(ctx);
                        recorder.respond(invoke, value);
                    }
                })
                .outcome;
            assert_eq!(outcome.crashed_count(), 0);
            let history = recorder.take_history();
            check_linearizable(&FetchIncrementSpec { limit }, &history)
                .unwrap_or_else(|violation| panic!("seed {seed}: {violation}"));
        }
    }

    #[test]
    fn small_limits_work() {
        let object = BoundedFetchIncrement::new(1);
        let mut ctx = ProcessCtx::new(ProcessId::new(0), 0);
        assert_eq!(object.fetch_and_increment(&mut ctx), 0);
        assert_eq!(object.fetch_and_increment(&mut ctx), 0);

        let object = BoundedFetchIncrement::new(2);
        let mut a = ProcessCtx::new(ProcessId::new(0), 0);
        let mut b = ProcessCtx::new(ProcessId::new(1), 0);
        assert_eq!(object.fetch_and_increment(&mut a), 0);
        assert_eq!(object.fetch_and_increment(&mut b), 1);
    }

    #[test]
    fn cost_scales_with_log_m_not_with_m() {
        // Theorem 6: O(log k · log m). A solo process's cost for m = 2^10
        // should be far less than 2^10 steps and grow roughly linearly in
        // log m.
        let mut costs = Vec::new();
        for exponent in [4u32, 8, 12] {
            let object = BoundedFetchIncrement::new(1 << exponent);
            let mut ctx = ProcessCtx::new(ProcessId::new(0), 7);
            object.fetch_and_increment(&mut ctx);
            costs.push(ctx.stats().total());
        }
        assert!(
            costs[2] < 1 << 12,
            "cost {} is not polylogarithmic",
            costs[2]
        );
        // Tripling log m should not blow the cost up by more than ~6x.
        assert!(
            costs[2] <= costs[0] * 6 + 64,
            "costs {costs:?} grow faster than O(log m)"
        );
    }

    #[test]
    #[should_panic(expected = "at least one value")]
    fn zero_limits_are_rejected() {
        let _ = BoundedFetchIncrement::new(0);
    }
}
