//! The monotone-consistent counter (§8.1), the counting-network counter and
//! baselines — plus the [`CounterBuilder`] facade selecting among them.
//!
//! The paper's counter pairs an adaptive strong renaming object with a max
//! register: an increment acquires a fresh name and writes it to the max
//! register; a read returns the max register's value. Because the renaming
//! object hands out exactly the names `1..=v` after `v` increments, reads are
//! always sandwiched between the number of *completed* and the number of
//! *started* increments — the monotone-consistency guarantee of Lemma 4 —
//! at an expected cost of `O(log v)` per operation. The counter is
//! deliberately *not* linearizable (§8.1 exhibits a counterexample, reproduced
//! in this crate's tests and in experiment E9).
//!
//! Four backends hide behind the shared [`Counter`] trait and the
//! [`CounterBuilder`] facade (`<dyn Counter>::builder()`):
//!
//! * [`CounterBackend::Monotone`] — the paper's renaming + max-register
//!   counter: monotone-consistent, register-model-only.
//! * [`CounterBackend::Network`] — the [`cnet`] counting-network counter:
//!   quiescently consistent, spreads increment contention over a balancing
//!   network's `Θ(w log² w)` words.
//! * [`CounterBackend::Adaptive`] — the contention-routed cascade
//!   ([`AdaptiveNetworkCounter`]): quiescently consistent like the network
//!   counter, but each increment is routed through the narrowest of the
//!   widths 1, 4, …, w that covers *realized* contention, so a quiet
//!   increment is a sensor read and one fetch-add on the width-1 word.
//! * [`CounterBackend::FetchAdd`] — the hardware fetch-and-add baseline:
//!   linearizable, but every increment hits the same cache line (and the
//!   paper's model does not assume read-modify-write).

use crate::error::RenamingError;
use crate::traits::Renaming;
use cnet::adaptive::AdaptiveNetworkCounter;
use cnet::counter::NetworkCounter;
use cnet::family::CountingFamily;
use cnet::network::BalancingTopology;
use maxreg::{MaxRegister, UnboundedMaxRegister};
use shmem::process::ProcessCtx;
use shmem::register::AtomicU64Register;
use sortnet::family::NetworkFamily;
use std::fmt;
use std::sync::Arc;

/// A shared counter supporting concurrent increments and reads.
pub trait Counter: Send + Sync {
    /// Increments the counter by one.
    fn increment(&self, ctx: &mut ProcessCtx);

    /// Returns the counter's current value.
    fn read(&self, ctx: &mut ProcessCtx) -> u64;
}

/// The §8.1 monotone-consistent counter: adaptive renaming + max register.
///
/// # Example
///
/// ```
/// use adaptive_renaming::counter::{Counter, MonotoneCounter};
/// use shmem::adversary::ExecConfig;
/// use shmem::vexec::VirtualExecutor;
/// use std::sync::Arc;
///
/// let counter = Arc::new(MonotoneCounter::new());
/// let outcome = VirtualExecutor::new(ExecConfig::new(4)).run(6, {
///     let counter = Arc::clone(&counter);
///     move |ctx| {
///         counter.increment(ctx);
///         counter.read(ctx)
///     }
/// }).outcome;
/// // After all six increments the counter reads exactly six.
/// assert!(outcome.results().into_iter().max().unwrap() == 6);
/// ```
pub struct MonotoneCounter<R: Renaming = Arc<dyn Renaming>, M: MaxRegister = UnboundedMaxRegister> {
    renaming: R,
    max: M,
}

impl MonotoneCounter<Arc<dyn Renaming>, UnboundedMaxRegister> {
    /// Creates the counter with the paper's default components: adaptive
    /// strong renaming (constructed through the
    /// [builder](crate::builder::RenamingBuilder) facade) and an unbounded
    /// max register.
    pub fn new() -> Self {
        MonotoneCounter {
            renaming: <dyn Renaming>::builder()
                .build()
                .expect("the default adaptive configuration is always valid"),
            max: UnboundedMaxRegister::new(),
        }
    }
}

impl Default for MonotoneCounter<Arc<dyn Renaming>, UnboundedMaxRegister> {
    fn default() -> Self {
        Self::new()
    }
}

impl<R: Renaming, M: MaxRegister> MonotoneCounter<R, M> {
    /// Builds the counter from an explicit renaming object and max register.
    ///
    /// The counter's guarantees require the renaming object to be *strong
    /// adaptive* (names exactly `1..=v` for `v` acquisitions); plugging in a
    /// loose renaming object produces a counter that may over-count.
    pub fn with_parts(renaming: R, max: M) -> Self {
        MonotoneCounter { renaming, max }
    }

    /// The underlying renaming object.
    pub fn renaming(&self) -> &R {
        &self.renaming
    }

    /// The underlying max register.
    pub fn max_register(&self) -> &M {
        &self.max
    }
}

impl<R: Renaming, M: MaxRegister> fmt::Debug for MonotoneCounter<R, M> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("MonotoneCounter").finish_non_exhaustive()
    }
}

impl<R: Renaming, M: MaxRegister> Counter for MonotoneCounter<R, M> {
    /// # Panics
    ///
    /// Panics if the underlying renaming object reports an error (only
    /// possible for bounded backends whose capacity is exceeded; the default
    /// adaptive backend never fails).
    fn increment(&self, ctx: &mut ProcessCtx) {
        let name = self
            .renaming
            .acquire(ctx)
            .expect("the counter's renaming backend ran out of names");
        self.max.write_max(ctx, name as u64);
    }

    fn read(&self, ctx: &mut ProcessCtx) -> u64 {
        self.max.read_max(ctx)
    }
}

/// A fetch-and-add baseline counter (linearizable, but built on a
/// read-modify-write primitive the paper's model does not assume).
#[derive(Debug, Default)]
pub struct CasCounter {
    value: AtomicU64Register,
}

impl CasCounter {
    /// Creates a counter holding zero.
    pub fn new() -> Self {
        CasCounter {
            value: AtomicU64Register::new(0),
        }
    }
}

impl Counter for CasCounter {
    fn increment(&self, ctx: &mut ProcessCtx) {
        self.value.fetch_add(ctx, 1);
    }

    fn read(&self, ctx: &mut ProcessCtx) -> u64 {
        self.value.read(ctx)
    }
}

/// The counting-network counter is the third [`Counter`] backend: an
/// increment routes one token through the balancing network and
/// fetch-adds the exit wire's local counter; a read sums the exit counters
/// (quiescently consistent, not linearizable).
impl<T: BalancingTopology> Counter for NetworkCounter<T> {
    fn increment(&self, ctx: &mut ProcessCtx) {
        NetworkCounter::increment(self, ctx);
    }

    fn read(&self, ctx: &mut ProcessCtx) -> u64 {
        NetworkCounter::read(self, ctx)
    }
}

/// The adaptive cascade is the fourth [`Counter`] backend: an increment is
/// routed by a contention sensor into the narrowest layer (widths 1, 4, …,
/// `width`) covering realized contention, so a quiet increment is a sensor
/// read and one fetch-add on the width-1 word; a read sums all layers' exit
/// wires (quiescently consistent, not linearizable).
impl Counter for AdaptiveNetworkCounter {
    fn increment(&self, ctx: &mut ProcessCtx) {
        AdaptiveNetworkCounter::increment(self, ctx);
    }

    fn read(&self, ctx: &mut ProcessCtx) -> u64 {
        AdaptiveNetworkCounter::read(self, ctx)
    }
}

/// The counter implementation a [`CounterBuilder`] constructs.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum CounterBackend {
    /// The §8.1 monotone-consistent counter: adaptive strong renaming plus a
    /// max register ([`MonotoneCounter`]).
    #[default]
    Monotone,
    /// The hardware fetch-and-add baseline ([`CasCounter`]): linearizable,
    /// single hot cache line, outside the paper's register-only model.
    FetchAdd,
    /// The counting-network counter ([`NetworkCounter`] over the compiled
    /// balancing-network engine): quiescently consistent, contention spread
    /// over the network's balancers and exit counters.
    Network,
    /// The adaptive cascade counter ([`AdaptiveNetworkCounter`]): a
    /// contention sensor, fed by the gaps between each process's exit-wire
    /// tickets, routes each increment into the narrowest layer that covers
    /// realized contention. The layers have widths 1, 4, …, the configured
    /// width: a single fetch-and-add word, then network counters. So a
    /// quiet increment is a sensor read and one fetch-add. At width 2 the
    /// cascade is the word alone. Quiescently consistent.
    Adaptive,
}

/// Fluent configuration for the workspace's counters, mirroring the
/// [`RenamingBuilder`](crate::builder::RenamingBuilder) facade.
///
/// # Example
///
/// ```
/// use adaptive_renaming::counter::{Counter, CounterBackend};
/// use shmem::process::{ProcessCtx, ProcessId};
///
/// let counter = <dyn Counter>::builder()
///     .backend(CounterBackend::Network)
///     .width(8)
///     .build()
///     .unwrap();
/// let mut ctx = ProcessCtx::new(ProcessId::new(0), 1);
/// counter.increment(&mut ctx);
/// assert_eq!(counter.read(&mut ctx), 1);
/// ```
#[derive(Clone, Debug)]
pub struct CounterBuilder {
    backend: CounterBackend,
    family: NetworkFamily,
    width: usize,
}

impl dyn Counter {
    /// Starts building a counter; the canonical entry point. Equivalent to
    /// [`CounterBuilder::new`].
    pub fn builder() -> CounterBuilder {
        CounterBuilder::new()
    }
}

impl Default for CounterBuilder {
    fn default() -> Self {
        CounterBuilder {
            backend: CounterBackend::default(),
            family: NetworkFamily::Bitonic,
            width: 8,
        }
    }
}

impl CounterBuilder {
    /// Creates a builder with the default configuration: the paper's
    /// monotone counter (and, should the backend be switched to
    /// [`CounterBackend::Network`], a width-8 bitonic wiring).
    pub fn new() -> Self {
        Self::default()
    }

    /// Selects the backend.
    pub fn backend(mut self, backend: CounterBackend) -> Self {
        self.backend = backend;
        self
    }

    /// Shorthand for [`CounterBackend::Monotone`].
    pub fn monotone(self) -> Self {
        self.backend(CounterBackend::Monotone)
    }

    /// Shorthand for [`CounterBackend::FetchAdd`].
    pub fn fetch_add(self) -> Self {
        self.backend(CounterBackend::FetchAdd)
    }

    /// Shorthand for [`CounterBackend::Network`].
    pub fn network(self) -> Self {
        self.backend(CounterBackend::Network)
    }

    /// Shorthand for [`CounterBackend::Adaptive`].
    pub fn adaptive_network(self) -> Self {
        self.backend(CounterBackend::Adaptive)
    }

    /// Selects the balancing-network wiring of [`CounterBackend::Network`]
    /// and [`CounterBackend::Adaptive`] (ignored by the other backends).
    /// Only the counting-certified families are accepted at build time:
    /// [`NetworkFamily::Bitonic`] (the default) and
    /// [`NetworkFamily::Periodic`].
    pub fn family(mut self, family: NetworkFamily) -> Self {
        self.family = family;
        self
    }

    /// Sets the balancing network's width — the contention-spreading factor
    /// of [`CounterBackend::Network`] and the *maximum* (widest-layer) width
    /// of [`CounterBackend::Adaptive`]; ignored by the other backends. Must
    /// be a power of two of at least 2; a good default is the expected
    /// thread count rounded up.
    pub fn width(mut self, width: usize) -> Self {
        self.width = width;
        self
    }

    /// The configured backend.
    pub fn configured_backend(&self) -> CounterBackend {
        self.backend
    }

    /// Builds the configured counter.
    ///
    /// # Errors
    ///
    /// Returns [`RenamingError::InvalidConfiguration`] when
    /// [`CounterBackend::Network`] or [`CounterBackend::Adaptive`] is
    /// combined with a width that is not a power of two (or is below 2), or
    /// with a sorting-network family whose balancer wiring is not a
    /// certified counting network (odd-even merge, one-pass transposition).
    pub fn build(&self) -> Result<Arc<dyn Counter>, RenamingError> {
        match self.backend {
            CounterBackend::Monotone => Ok(Arc::new(MonotoneCounter::new())),
            CounterBackend::FetchAdd => Ok(Arc::new(CasCounter::new())),
            CounterBackend::Network => {
                let (family, width) = self.counting_network_config()?;
                Ok(Arc::new(NetworkCounter::new(family, width)))
            }
            CounterBackend::Adaptive => {
                let (family, width) = self.counting_network_config()?;
                Ok(Arc::new(AdaptiveNetworkCounter::new(family, width)))
            }
        }
    }

    /// Validates the wiring family and width shared by the network-backed
    /// backends.
    fn counting_network_config(&self) -> Result<(CountingFamily, usize), RenamingError> {
        let family = CountingFamily::try_from(self.family).map_err(|_| {
            RenamingError::InvalidConfiguration {
                reason: "the selected wiring is not a certified counting network: \
                         use the bitonic or periodic family",
            }
        })?;
        if self.width < 2 || !self.width.is_power_of_two() {
            return Err(RenamingError::InvalidConfiguration {
                reason: "counting networks need a power-of-two width of at least 2",
            });
        }
        Ok((family, self.width))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use maxreg::BoundedMaxRegister;
    use shmem::adversary::ExecConfig;
    use shmem::consistency::{check_monotone_consistent, CounterOp};
    use shmem::history::Recorder;
    use shmem::process::ProcessId;
    use shmem::vexec::VirtualExecutor;
    use std::sync::Arc;

    #[test]
    fn sequential_increments_and_reads_count_exactly() {
        let counter = MonotoneCounter::new();
        let mut ctx = ProcessCtx::new(ProcessId::new(0), 1);
        assert_eq!(counter.read(&mut ctx), 0);
        for expected in 1..=10u64 {
            counter.increment(&mut ctx);
            assert_eq!(counter.read(&mut ctx), expected);
        }
    }

    #[test]
    fn concurrent_increments_are_all_counted() {
        for seed in 0..4 {
            let counter = Arc::new(MonotoneCounter::new());
            let k = 10usize;
            let outcome = VirtualExecutor::with_seed(seed)
                .run(k, {
                    let counter = Arc::clone(&counter);
                    move |ctx| {
                        counter.increment(ctx);
                        counter.read(ctx)
                    }
                })
                .outcome;
            let reads = outcome.results();
            // Every read is at least 1 (its own increment) and at most k.
            assert!(
                reads.iter().all(|&v| v >= 1 && v <= k as u64),
                "seed {seed}"
            );
            // A final quiescent read sees exactly k.
            let mut ctx = ProcessCtx::new(ProcessId::new(10_000), seed);
            assert_eq!(counter.read(&mut ctx), k as u64, "seed {seed}");
        }
    }

    #[test]
    fn recorded_histories_are_monotone_consistent() {
        for seed in 0..3 {
            let counter = Arc::new(MonotoneCounter::new());
            let recorder: Arc<Recorder<CounterOp, u64>> = Arc::new(Recorder::new());
            let outcome = VirtualExecutor::with_seed(seed)
                .run(8, {
                    let counter = Arc::clone(&counter);
                    let recorder = Arc::clone(&recorder);
                    move |ctx| {
                        for round in 0..3 {
                            if (ctx.id().as_usize() + round) % 2 == 0 {
                                let invoke = recorder.invoke();
                                counter.increment(ctx);
                                recorder.record(ctx.id(), CounterOp::Increment, 0, invoke);
                            } else {
                                let invoke = recorder.invoke();
                                let value = counter.read(ctx);
                                recorder.record(ctx.id(), CounterOp::Read, value, invoke);
                            }
                        }
                    }
                })
                .outcome;
            assert_eq!(outcome.crashed_count(), 0);
            let history = recorder.take_history();
            check_monotone_consistent(&history, &[])
                .unwrap_or_else(|violation| panic!("seed {seed}: {violation}"));
        }
    }

    #[test]
    fn custom_parts_are_supported() {
        let counter = MonotoneCounter::with_parts(
            <dyn Renaming>::builder()
                .linear_probe()
                .capacity(32)
                .build()
                .unwrap(),
            BoundedMaxRegister::new(64),
        );
        let mut ctx = ProcessCtx::new(ProcessId::new(0), 2);
        counter.increment(&mut ctx);
        counter.increment(&mut ctx);
        assert_eq!(counter.read(&mut ctx), 2);
        assert_eq!(counter.renaming().capacity(), Some(32));
        assert_eq!(counter.max_register().capacity(), 64);
        assert!(format!("{counter:?}").contains("MonotoneCounter"));
    }

    #[test]
    #[should_panic(expected = "ran out of names")]
    fn exhausted_bounded_backends_panic_loudly() {
        let counter = MonotoneCounter::with_parts(
            <dyn Renaming>::builder()
                .linear_probe()
                .capacity(2)
                .build()
                .unwrap(),
            BoundedMaxRegister::new(8),
        );
        let mut ctx = ProcessCtx::new(ProcessId::new(0), 0);
        counter.increment(&mut ctx);
        counter.increment(&mut ctx);
        counter.increment(&mut ctx);
    }

    #[test]
    fn cas_counter_counts_under_contention() {
        let counter = Arc::new(CasCounter::new());
        let outcome = VirtualExecutor::with_seed(5)
            .run(16, {
                let counter = Arc::clone(&counter);
                move |ctx| {
                    counter.increment(ctx);
                    counter.read(ctx)
                }
            })
            .outcome;
        let mut ctx = ProcessCtx::new(ProcessId::new(99), 0);
        assert_eq!(counter.read(&mut ctx), 16);
        assert!(outcome.results().iter().all(|&v| v >= 1));
    }

    #[test]
    fn every_backend_builds_and_counts() {
        for backend in [
            CounterBackend::Monotone,
            CounterBackend::FetchAdd,
            CounterBackend::Network,
            CounterBackend::Adaptive,
        ] {
            let builder = <dyn Counter>::builder().backend(backend);
            assert_eq!(builder.configured_backend(), backend);
            let counter = builder
                .build()
                .unwrap_or_else(|e| panic!("{backend:?}: {e}"));
            let outcome = VirtualExecutor::new(ExecConfig::new(3))
                .run(8, {
                    let counter = Arc::clone(&counter);
                    move |ctx| counter.increment(ctx)
                })
                .outcome;
            assert_eq!(outcome.crashed_count(), 0);
            let mut ctx = ProcessCtx::new(ProcessId::new(50), 0);
            assert_eq!(counter.read(&mut ctx), 8, "{backend:?}");
        }
    }

    #[test]
    fn network_backend_respects_family_and_width() {
        let counter = <dyn Counter>::builder()
            .network()
            .family(sortnet::family::NetworkFamily::Periodic)
            .width(4)
            .build()
            .unwrap();
        let mut ctx = ProcessCtx::new(ProcessId::new(0), 1);
        for expected in 1..=6u64 {
            counter.increment(&mut ctx);
            assert_eq!(counter.read(&mut ctx), expected);
        }
        // The balancing-network cost profile shines through the trait
        // object: increments toggle balancers instead of acquiring names.
        assert!(ctx.stats().balancer_toggles > 0);
    }

    #[test]
    fn adaptive_backend_routes_narrow_when_quiet() {
        let counter = <dyn Counter>::builder()
            .adaptive_network()
            .width(16)
            .build()
            .unwrap();
        let mut ctx = ProcessCtx::new(ProcessId::new(0), 6);
        for expected in 1..=12u64 {
            counter.increment(&mut ctx);
            assert_eq!(counter.read(&mut ctx), expected);
        }
        // A lone process pays one fetch-add on the width-1 word per
        // increment, not the width-16 network's ten toggles, and no
        // elimination.
        let stats = ctx.stats();
        assert_eq!(stats.balancer_toggles, 0, "the word has no balancer");
        assert_eq!(stats.rmws, 12 + 1, "one fetch-add each, one sensor CAS");
        assert_eq!(
            stats.reads,
            12 + 1 + 12 * 29,
            "sensor reads, reads of 29 wires"
        );
        assert_eq!(stats.eliminations, 0, "no prism on the increment path");
        // At width 2 the cascade is the word alone, and still counts.
        let word = <dyn Counter>::builder()
            .adaptive_network()
            .width(2)
            .build()
            .unwrap();
        for expected in 1..=3u64 {
            word.increment(&mut ctx);
            assert_eq!(word.read(&mut ctx), expected);
        }
    }

    #[test]
    fn counter_misconfigurations_are_reported() {
        let odd_width = <dyn Counter>::builder().network().width(12).build();
        assert!(matches!(
            odd_width,
            Err(crate::error::RenamingError::InvalidConfiguration { .. })
        ));
        let tiny = <dyn Counter>::builder().network().width(1).build();
        assert!(tiny.is_err());
        let uncertified = <dyn Counter>::builder()
            .network()
            .family(sortnet::family::NetworkFamily::OddEven)
            .build();
        assert!(uncertified.is_err());
        // The adaptive backend shares the network validations.
        assert!(<dyn Counter>::builder()
            .adaptive_network()
            .width(12)
            .build()
            .is_err());
        assert!(<dyn Counter>::builder()
            .adaptive_network()
            .family(sortnet::family::NetworkFamily::OddEven)
            .build()
            .is_err());
        // The knobs are inert on the other backends: nothing to misconfigure.
        assert!(<dyn Counter>::builder()
            .monotone()
            .width(12)
            .build()
            .is_ok());
        assert!(<dyn Counter>::builder()
            .fetch_add()
            .family(sortnet::family::NetworkFamily::OddEven)
            .build()
            .is_ok());
    }

    #[test]
    fn increment_cost_grows_slowly_with_the_number_of_increments() {
        // Lemma 4: expected O(log v) per increment. Compare the cost of the
        // first increment with the cost of the 64th: the ratio must stay far
        // below the linear-growth ratio of 64.
        let counter = MonotoneCounter::new();
        let mut ctx = ProcessCtx::new(ProcessId::new(0), 9);
        counter.increment(&mut ctx);
        let first_cost = ctx.stats().total();
        let mut before = ctx.stats().total();
        for _ in 0..63 {
            before = ctx.stats().total();
            counter.increment(&mut ctx);
        }
        let last_cost = ctx.stats().total() - before;
        assert!(
            last_cost < first_cost * 32,
            "cost grew from {first_cost} to {last_cost}; not logarithmic"
        );
    }
}
