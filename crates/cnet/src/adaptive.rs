//! The adaptive counter: a cascade of counting networks sized to *realized*
//! contention.
//!
//! A fixed-width network counter pays its full `Θ(log² w)` depth on every
//! increment even when it runs alone, while a width provisioned for the
//! worst case is exactly what the source paper argues against: cost should
//! scale with the contention `k` an execution actually exhibits, not the
//! maximum `n` it was provisioned for. [`AdaptiveNetworkCounter`] follows
//! the sandwich construction of the adaptive counting literature (§6 of the
//! counting-network chapters in Aspnes' notes):
//!
//! 1. a [`ContentionSensor`] — a cache-padded EWMA — estimates how many
//!    increments are currently in flight;
//! 2. the token enters the **narrowest layer whose width covers the
//!    estimate**: the layers have widths 1, 4, …, `max_width`, from a single
//!    fetch-and-add word when the counter is quiet up to the full
//!    provisioned network under load;
//! 3. the ticket the layer's exit-wire fetch-and-add returns feeds the
//!    sensor: the gap between one process's consecutive tickets on a layer
//!    is the number of increments that layer served in between — about 1
//!    for a process running alone, about `k` under `k` busy processes.
//!
//! # Routing rule
//!
//! The cascade widens only on sustained evidence:
//!
//! - **The word covers estimates up to 3.** A token leaves level 0 only when
//!   at least three processes keep interleaving on it; above that, level
//!   `ℓ ≥ 1` (width `2^(ℓ+1)`) covers estimates up to its width.
//! - **A sample moves routing at most one layer.** A ticket gap sampled on a
//!   layer is clamped to the width of the next layer up (the top layer
//!   clamps at `2 × max_width`). With α = 1/8, lifting the estimate from 2
//!   past 3 takes six consecutive word samples with gaps of 4 or more, and
//!   one descheduled sample moves a lone process's estimate from 1.0 to
//!   1.375 rather than to the widest layer.
//!
//! The measured basis is `perfbench`'s `count_mix` (two threads, 7
//! increments per read, on a 2-vCPU Xeon; the runs are in `CHANGES.md`). At
//! two interleaved processes the estimate sits near 2, which the earlier
//! cover of 2 for the word crossed on about half the samples, and one
//! stalled sample, clamped at 32, routed to width 8 and set that layer's
//! touched bit for good: 41–47% of increments routed up and every read
//! loaded 14 registers. Under the rule above no increment leaves the word,
//! a read loads 2 registers, and in 10 of 10 alternating pairs the read
//! p50 fell (~201 ns to ~143 ns), with both p99s about halved. In the §2
//! step model a fetch-and-add on the word is one step whatever the
//! contention, so the wider layers pay off only through memory contention
//! that two workers on this host cannot show; their case rests on the
//! counting-network literature.
//!
//! The narrowest layer is a width-1 counting network: one cache-padded exit
//! word and no balancer. A width-2 network would be dominated by it: its
//! single balancer is toggled by every token, so it is exactly as contended
//! as one word, and each token then pays a second contended fetch-and-add
//! on an exit wire. Width 4 is the narrowest network with two balancers per
//! stage, the first that divides contention. So a quiet increment is a
//! sensor read and one fetch-add — versus the ~11 shared steps of a fixed
//! width-16 network — plus, on one increment in eight, a sensor update (one
//! read, one compare-and-swap).
//!
//! # Local ticket slots
//!
//! Each process remembers the level and ticket of its last deposit in one of
//! 64 cache-padded slots owned by the counter, indexed by `ctx.id() % 64`.
//! Only that process reads or writes its slot, so, like the local spin of a
//! [`Prism`](crate::prism::Prism), slot accesses are not charged as shared
//! steps. Processes whose identifiers collide modulo 64 share a slot, which
//! can blur the sensor's samples but never the count.
//!
//! # Consistency
//!
//! The word is a one-wire layer and every wider layer an independent
//! quiescently-consistent [`NetworkCounter`]. Every token has weight 1 and
//! every exit wire is a plain 64-bit counter, so at any quiescent point each
//! layer's exit counts sum to the increments routed to it — the total is
//! exact — and satisfy the step property
//! ([`check_step_property`](AdaptiveNetworkCounter::check_step_property)).
//!
//! A read sums the word and only the *touched* networks. A cache-padded
//! word holds one bit per level `ℓ ≥ 1`, monotone like the free list's
//! summary flags: a route-up increment ensures its level's bit (one load,
//! plus one `fetch_or` only if the bit is clear) *before* it traverses, and
//! nothing clears a bit. A read loads that word once, then the word and the
//! flagged networks' exit wires; a clear bit means no token ever entered
//! that network. At a quiescent point every completed increment set its bit
//! before it returned, so a read that starts there visits every network
//! holding a token and is exact. Level 0 needs no bit: every read reads it.
//!
//! Routing different increments to different layers is also why the adaptive
//! counter exposes *counting* only (increment/read) and not the network
//! counter's exact fetch-and-increment tickets: tickets would need a total
//! order across layers, which the cascade deliberately does not maintain.
//! As in [`NetworkCounter`], a token that crashes between its traversal and
//! its deposit is lost.

use crate::counter::NetworkCounter;
use crate::family::CountingFamily;
use crate::network::BalancingTopology;
use crate::verify::{step_property_violation, StepViolation};
use shmem::pad::CachePadded;
use shmem::process::ProcessCtx;
use shmem::register::AtomicU64Register;
use shmem::steps::StepKind;
use std::fmt;
use std::iter;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// Fixed-point scale of the sensor's contention estimate (8 fraction bits).
const FP_ONE: u64 = 256;
/// EWMA smoothing: new = old − old/2^ALPHA + sample/2^ALPHA (α = 1/8).
const ALPHA_SHIFT: u32 = 3;
/// A process feeds the sensor on one increment in this many: sampling keeps
/// the sensor word from becoming the very serialization point the cascade
/// exists to avoid.
const SAMPLE_PERIOD: u64 = 8;
/// Number of per-process ticket slots (see the module docs).
const TICKET_SLOTS: usize = 64;
/// The largest estimate, in processes, that routes to the word: two
/// interleaved processes are no reason to leave it (see the module docs).
const WORD_COVERS: u64 = 3;

/// A cache-padded EWMA of sampled ticket gaps, estimating the number of
/// concurrently in-flight increments.
///
/// The estimate is stored as a fixed-point word (×256). Observations are a
/// *single* compare-and-swap attempt: under contention a failed CAS means
/// another process just folded in its own sample, which serves the estimate
/// equally well, so there is nothing to retry.
pub struct ContentionSensor {
    estimate: CachePadded<AtomicU64>,
}

impl ContentionSensor {
    /// The largest sample [`observe`](ContentionSensor::observe) folds in, in
    /// processes; larger samples are clamped to it. It keeps the fixed-point
    /// estimate at most 2⁴⁰, far from overflow. [`AdaptiveNetworkCounter`]
    /// clamps its own samples far tighter, to the next layer's width (see
    /// the module docs).
    pub const MAX_SAMPLE: u64 = 1 << 32;

    /// Creates a sensor that initially estimates one lone process.
    pub fn new() -> Self {
        ContentionSensor {
            estimate: CachePadded::new(AtomicU64::new(FP_ONE)),
        }
    }

    /// The current contention estimate, in processes (≥ 0).
    pub fn estimate(&self) -> f64 {
        self.estimate.load(Ordering::Acquire) as f64 / FP_ONE as f64
    }

    /// Reads the estimate for routing, charging one register read.
    fn load_for_routing(&self, ctx: &mut ProcessCtx) -> u64 {
        ctx.record(StepKind::RegisterRead);
        self.estimate.load(Ordering::Acquire)
    }

    /// Folds a sample of `tokens` concurrently-active processes (clamped to
    /// [`MAX_SAMPLE`](ContentionSensor::MAX_SAMPLE)) into the EWMA with one
    /// read and at most one CAS attempt (never retried). Charges one
    /// register read and one read-modify-write.
    pub fn observe(&self, ctx: &mut ProcessCtx, tokens: u64) {
        let sample = tokens.min(Self::MAX_SAMPLE) * FP_ONE;
        ctx.record(StepKind::RegisterRead);
        let old = self.estimate.load(Ordering::Acquire);
        let new = old - (old >> ALPHA_SHIFT) + (sample >> ALPHA_SHIFT);
        ctx.record(StepKind::ReadModifyWrite);
        let _ = self
            .estimate
            .compare_exchange(old, new, Ordering::AcqRel, Ordering::Acquire); // lint: relaxed-ok(RMW success needs Acquire+Release: publishes the new tally, observes prior ones)
    }

    /// The narrowest level (0-indexed) among `levels` layers that covers a
    /// fixed-point estimate. Level 0, the word, covers estimates up to
    /// [`WORD_COVERS`]; level `ℓ ≥ 1` has width `2^(ℓ+1)` and covers
    /// estimates up to it.
    fn level_for(estimate_fp: u64, levels: usize) -> usize {
        if estimate_fp <= WORD_COVERS * FP_ONE {
            return 0;
        }
        let width = estimate_fp.div_ceil(FP_ONE).next_power_of_two();
        let level = width.trailing_zeros() as usize - 1;
        level.min(levels - 1)
    }
}

impl Default for ContentionSensor {
    fn default() -> Self {
        Self::new()
    }
}

impl fmt::Debug for ContentionSensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ContentionSensor")
            .field("estimate", &self.estimate())
            .finish()
    }
}

/// One process's last deposit: its level, its ticket, and how many
/// increments the slot has seen (the sampling clock).
struct TicketSlot {
    level: AtomicUsize,
    ticket: AtomicU64,
    increments: AtomicU64,
}

impl TicketSlot {
    fn new() -> Self {
        TicketSlot {
            level: AtomicUsize::new(usize::MAX),
            ticket: AtomicU64::new(0),
            increments: AtomicU64::new(0),
        }
    }

    /// Records a deposit of `ticket` at `level` and returns the gap since
    /// the previous one when this increment is the slot's sample (one in
    /// [`SAMPLE_PERIOD`]) and the level is unchanged.
    fn sample(&self, level: usize, ticket: u64) -> Option<u64> {
        let last_level = self.level.load(Ordering::Relaxed); // lint: relaxed-ok(process-local slot: only its owner reads or writes it)
        let last_ticket = self.ticket.load(Ordering::Relaxed); // lint: relaxed-ok(process-local slot: only its owner reads or writes it)
        let seen = self.increments.load(Ordering::Relaxed); // lint: relaxed-ok(process-local slot: only its owner reads or writes it)
        self.level.store(level, Ordering::Relaxed); // lint: relaxed-ok(process-local slot: only its owner reads or writes it)
        self.ticket.store(ticket, Ordering::Relaxed); // lint: relaxed-ok(process-local slot: only its owner reads or writes it)
        self.increments.store(seen + 1, Ordering::Relaxed); // lint: relaxed-ok(process-local slot: only its owner reads or writes it)
        let sampled = seen % SAMPLE_PERIOD == SAMPLE_PERIOD - 1 && last_level == level;
        sampled.then(|| ticket.saturating_sub(last_ticket))
    }
}

/// A quiescently-consistent counter whose per-increment cost adapts to
/// realized contention: a contention sensor routes each increment into a
/// cascade of layers of widths 1, 4, …, `max_width` — a single fetch-and-add
/// word, then network counters.
///
/// # Example
///
/// ```
/// use cnet::adaptive::AdaptiveNetworkCounter;
/// use cnet::family::CountingFamily;
/// use shmem::process::{ProcessCtx, ProcessId};
///
/// let counter = AdaptiveNetworkCounter::new(CountingFamily::Bitonic, 16);
/// let mut ctx = ProcessCtx::new(ProcessId::new(0), 1);
/// counter.increment(&mut ctx);
/// counter.increment(&mut ctx);
/// assert_eq!(counter.read(&mut ctx), 2);
/// assert!(counter.check_step_property().is_ok());
/// // Alone, tokens route through the narrowest layer: the width-1 word.
/// assert_eq!(counter.current_width(), 1);
/// assert_eq!(counter.layer_widths(), vec![1, 4, 8, 16]);
/// ```
pub struct AdaptiveNetworkCounter {
    /// Level 0: a width-1 counting network, one exit word and no balancer.
    word: CachePadded<AtomicU64Register>,
    /// Levels 1 and up: network counters of widths 4, 8, …, `max_width`.
    networks: Vec<NetworkCounter>,
    /// Bit `ℓ` is set once an increment routes to level `ℓ ≥ 1`, never cleared.
    touched: CachePadded<AtomicU64>,
    max_width: usize,
    sensor: ContentionSensor,
    slots: Box<[CachePadded<TicketSlot>]>,
}

impl AdaptiveNetworkCounter {
    /// Builds a cascade of the width-1 word and `family` networks at every
    /// power-of-two width from 4 up to `max_width`. At `max_width` 2 the
    /// cascade is the word alone.
    ///
    /// # Panics
    ///
    /// Panics if `max_width` is not a power of two or is below 2 (see
    /// [`CountingFamily::schedule`]).
    pub fn new(family: CountingFamily, max_width: usize) -> Self {
        assert!(
            max_width.is_power_of_two() && max_width >= 2,
            "adaptive cascade needs a power-of-two width of at least 2, got {max_width}"
        );
        let levels = max_width.trailing_zeros() as usize;
        AdaptiveNetworkCounter {
            word: CachePadded::new(AtomicU64Register::new(0)),
            networks: (1..levels)
                .map(|level| NetworkCounter::new(family, 2 << level))
                .collect(),
            touched: CachePadded::new(AtomicU64::new(0)),
            max_width,
            sensor: ContentionSensor::new(),
            slots: (0..TICKET_SLOTS)
                .map(|_| CachePadded::new(TicketSlot::new()))
                .collect(),
        }
    }

    /// The provisioned width passed to [`new`](AdaptiveNetworkCounter::new).
    /// It is the widest layer's width, except at 2, where the cascade is the
    /// width-1 word alone. The top layer's samples are clamped to twice this.
    pub fn max_width(&self) -> usize {
        self.max_width
    }

    /// The widths of the cascade's layers, narrowest first: 1 (the word),
    /// then 4, 8, …, `max_width`.
    pub fn layer_widths(&self) -> Vec<usize> {
        (0..self.levels())
            .map(|level| self.width_of(level))
            .collect()
    }

    /// The width new increments currently route to (diagnostic; racy by
    /// nature).
    pub fn current_width(&self) -> usize {
        let fp = self.sensor.estimate.load(Ordering::Acquire);
        self.width_of(ContentionSensor::level_for(fp, self.levels()))
    }

    fn levels(&self) -> usize {
        1 + self.networks.len()
    }

    fn width_of(&self, level: usize) -> usize {
        match level.checked_sub(1) {
            None => 1,
            Some(network) => self.networks[network].width(),
        }
    }

    /// The sensor's current contention estimate, in processes.
    pub fn contention_estimate(&self) -> f64 {
        self.sensor.estimate()
    }

    /// Increments the counter.
    ///
    /// The token is routed to the layer covering the sensor's estimate: at
    /// level 0 it is one fetch-and-add on the word, above it the token
    /// ensures its level's touched bit, is carried through that layer's
    /// network and deposited on its exit wire.
    /// On one increment in eight the ticket gap since the process's previous
    /// deposit on the same layer, clamped to the next layer's width, is
    /// folded into the sensor.
    pub fn increment(&self, ctx: &mut ProcessCtx) {
        let increment_timer = obs::start();
        let fp = self.sensor.load_for_routing(ctx);
        let level = ContentionSensor::level_for(fp, self.levels());
        obs::count(obs::Metric::AdaptiveIncrement);
        obs::gauge(obs::Metric::SensorEstimateFp, fp);
        obs::gauge(obs::Metric::RoutedWidth, self.width_of(level) as u64);
        let ticket = match level.checked_sub(1) {
            None => self.word.fetch_add(ctx, 1),
            Some(network) => {
                obs::count(obs::Metric::AdaptiveRouteUp);
                let bit = 1u64 << level;
                ctx.record(StepKind::RegisterRead);
                if self.touched.load(Ordering::Acquire) & bit == 0 {
                    ctx.record(StepKind::ReadModifyWrite);
                    self.touched.fetch_or(bit, Ordering::AcqRel); // lint: relaxed-ok(monotone flag: a set bit stays set, and coherence shows it to any read ordered after this increment)
                }
                let layer = &self.networks[network];
                // Traverse and deposit directly: `fetch_increment` would
                // count the token again as a `NetIncrement`.
                let wire = layer.network().traverse(ctx, layer.entry_wire(ctx));
                layer.deposit(ctx, wire)
            }
        };
        let slot = &self.slots[ctx.id().as_usize() % TICKET_SLOTS];
        if let Some(gap) = slot.sample(level, ticket) {
            // At most one layer per sample: clamp to the next layer's width.
            let ceiling = if level + 1 < self.levels() {
                self.width_of(level + 1)
            } else {
                2 * self.max_width()
            };
            self.sensor.observe(ctx, gap.clamp(1, ceiling as u64));
        }
        obs::finish(increment_timer, obs::Metric::AdaptiveIncrementNs);
    }

    /// Reads the counter: one register read of the touched word, one of the
    /// width-1 word, and one per exit wire of each network an increment has
    /// touched (2 reads while every token has stayed on the word, 29 once
    /// all layers of a width-16 cascade are touched). Quiescently consistent:
    /// exact whenever no increment is in flight.
    pub fn read(&self, ctx: &mut ProcessCtx) -> u64 {
        ctx.record(StepKind::RegisterRead);
        let touched = self.touched.load(Ordering::Acquire);
        let word = self.word.read(ctx);
        word + self
            .networks
            .iter()
            .enumerate()
            .filter(|(network, _)| touched & (2 << network) != 0)
            .map(|(_, layer)| layer.read(ctx))
            .sum::<u64>()
    }

    /// The total count without charging steps (harness/test inspection;
    /// meaningful at quiescent points).
    pub fn peek(&self) -> u64 {
        self.word.peek() + self.networks.iter().map(NetworkCounter::peek).sum::<u64>()
    }

    /// Per-layer exit-wire token counts, narrowest layer first, the word as
    /// a one-wire layer (harness/test inspection; each layer must satisfy
    /// the step property at quiescent points).
    pub fn layer_token_counts(&self) -> Vec<Vec<u64>> {
        iter::once(vec![self.word.peek()])
            .chain(self.networks.iter().map(NetworkCounter::exit_counts))
            .collect()
    }

    /// Verifies the step property on every layer's token counts
    /// (harness/test inspection; meaningful at quiescent points).
    pub fn check_step_property(&self) -> Result<(), StepViolation> {
        self.layer_token_counts()
            .iter()
            .find_map(|counts| step_property_violation(counts))
            .map_or(Ok(()), Err)
    }
}

impl fmt::Debug for AdaptiveNetworkCounter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("AdaptiveNetworkCounter")
            .field("layer_widths", &self.layer_widths())
            .field("estimate", &self.contention_estimate())
            .field("tokens", &self.peek())
            .finish()
    }
}

impl fmt::Display for AdaptiveNetworkCounter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "adaptive(max_width={}, estimate={:.2}, count={})",
            self.max_width(),
            self.contention_estimate(),
            self.peek()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use shmem::consistency::{check_quiescent_consistent, CounterOp};
    use shmem::history::Recorder;
    use shmem::process::ProcessId;
    use shmem::vexec::VirtualExecutor;
    use std::sync::Arc;

    fn ctx(id: usize) -> ProcessCtx {
        ProcessCtx::new(ProcessId::new(id), 23)
    }

    #[test]
    #[should_panic(expected = "power-of-two width")]
    fn non_power_of_two_cascades_are_rejected() {
        let _ = AdaptiveNetworkCounter::new(CountingFamily::Bitonic, 12);
    }

    #[test]
    fn cascade_builds_every_power_of_two_layer() {
        let counter = AdaptiveNetworkCounter::new(CountingFamily::Bitonic, 16);
        assert_eq!(counter.layer_widths(), vec![1, 4, 8, 16]);
        assert_eq!(counter.max_width(), 16);
        let mut ctx = ctx(0);
        assert_eq!(counter.read(&mut ctx), 0);
        assert_eq!(ctx.stats().reads, 2, "the touched word and the word");
        // Width-16 traffic touches only the widest network: a read then
        // charges the touched word, the word and that network's 16 wires.
        for _ in 0..32 {
            counter.sensor.observe(&mut ctx, 16);
        }
        assert_eq!(counter.current_width(), 16);
        counter.increment(&mut ctx);
        let before = ctx.stats().reads;
        assert_eq!(counter.read(&mut ctx), 1);
        assert_eq!(ctx.stats().reads - before, 1 + 1 + 16);
        let narrow = AdaptiveNetworkCounter::new(CountingFamily::Periodic, 2);
        assert_eq!(narrow.layer_widths(), vec![1]);
        assert_eq!(
            narrow.max_width(),
            2,
            "the provisioned width, not the word's"
        );
        for _ in 0..5 {
            narrow.increment(&mut ctx);
        }
        assert_eq!(narrow.read(&mut ctx), 5);
        assert_eq!(narrow.layer_token_counts(), vec![vec![5]]);
    }

    #[test]
    fn sequential_increments_are_exact_and_stay_narrow() {
        let counter = AdaptiveNetworkCounter::new(CountingFamily::Bitonic, 16);
        let mut ctx = ctx(0);
        let rounds = if cfg!(miri) { 8 } else { 100 };
        for expected in 1..=rounds {
            counter.increment(&mut ctx);
            assert_eq!(counter.read(&mut ctx), expected);
            counter.check_step_property().expect("staircase per layer");
        }
        // A lone process's tickets are consecutive: the sensor stays at ~1
        // process and every token takes the width-1 word.
        assert_eq!(counter.current_width(), 1);
        assert!(counter.contention_estimate() < 2.0);
        let counts = counter.layer_token_counts();
        assert_eq!(counts[0].iter().sum::<u64>(), rounds);
        assert!(counts[1..]
            .iter()
            .all(|layer| layer.iter().sum::<u64>() == 0));
    }

    #[test]
    fn a_quiet_increment_is_far_cheaper_than_a_wide_network() {
        let counter = AdaptiveNetworkCounter::new(CountingFamily::Bitonic, 16);
        let mut ctx = ctx(0);
        counter.increment(&mut ctx);
        let stats = ctx.stats();
        // Sensor read + the word's fetch-add: two steps against the ~11 of
        // a fixed width-16 traversal.
        assert_eq!(stats.reads, 1, "the sensor read");
        assert_eq!(stats.balancer_toggles, 0, "the word has no balancer");
        assert_eq!(stats.rmws, 1, "the word's fetch-add");
        assert_eq!(stats.eliminations, 0);
        assert_eq!(stats.total_all(), 2);
    }

    #[test]
    fn collisions_widen_the_route_and_misses_narrow_it_back() {
        let counter = AdaptiveNetworkCounter::new(CountingFamily::Bitonic, 16);
        let mut ctx = ctx(0);
        // A burst of ticket gaps of 4 (four processes sharing the layer).
        for _ in 0..32 {
            counter.sensor.observe(&mut ctx, 4);
        }
        assert!(counter.contention_estimate() > 2.0);
        assert_eq!(counter.current_width(), 4);
        // Heavier contention pushes wider still.
        for _ in 0..32 {
            counter.sensor.observe(&mut ctx, 16);
        }
        assert_eq!(counter.current_width(), 16);
        // A quiet spell decays the estimate back down to the word.
        for _ in 0..64 {
            counter.sensor.observe(&mut ctx, 1);
        }
        assert_eq!(counter.current_width(), 1);
    }

    #[test]
    fn oversized_samples_are_clamped_and_route_to_the_widest_layer() {
        let counter = AdaptiveNetworkCounter::new(CountingFamily::Bitonic, 16);
        let mut ctx = ctx(0);
        counter.sensor.observe(&mut ctx, u64::MAX);
        let estimate = counter.contention_estimate();
        assert!(estimate.is_finite());
        // One clamped sample moves the estimate by MAX_SAMPLE/8 from 1.
        let expected = 1.0 - 1.0 / 8.0 + (ContentionSensor::MAX_SAMPLE / 8) as f64;
        assert_eq!(estimate, expected);
        assert_eq!(counter.current_width(), 16);
        // Repeated saturation stays finite and below the clamp.
        for _ in 0..256 {
            counter.sensor.observe(&mut ctx, u64::MAX);
        }
        assert!(counter.contention_estimate() <= ContentionSensor::MAX_SAMPLE as f64);
        assert_eq!(counter.current_width(), 16);
    }

    #[test]
    fn one_stalled_sample_cannot_jump_layers() {
        let counter = AdaptiveNetworkCounter::new(CountingFamily::Bitonic, 16);
        let (mut a, mut b) = (ctx(0), ctx(1));
        for _ in 0..7 {
            counter.increment(&mut a);
        }
        for _ in 0..1000 {
            counter.increment(&mut b);
        }
        // A's eighth increment samples a ticket gap of ~1000, clamped to the
        // width-4 layer above the word: 1 − 1/8 + 4/8.
        counter.increment(&mut a);
        assert_eq!(counter.contention_estimate(), 1.375);
        assert_eq!(counter.current_width(), 1);
    }

    #[test]
    fn two_interleaved_processes_stay_on_the_word() {
        let (seeds, ops) = if cfg!(miri) { (2, 32) } else { (16, 256) };
        for seed in 0..seeds {
            let counter = Arc::new(AdaptiveNetworkCounter::new(CountingFamily::Bitonic, 16));
            let run = VirtualExecutor::with_seed(seed).run(2, {
                let counter = Arc::clone(&counter);
                move |ctx| {
                    for op in 1..=ops {
                        if op % 8 == 0 {
                            counter.read(ctx);
                        } else {
                            counter.increment(ctx);
                        }
                    }
                }
            });
            assert_eq!(run.outcome.crashed_count(), 0);
            let above_word: u64 = counter.layer_token_counts()[1..].iter().flatten().sum();
            assert_eq!(above_word, 0, "seed {seed}: tokens left the word");
            let mut reader = ctx(99);
            assert_eq!(counter.read(&mut reader), 2 * (ops - ops / 8));
            assert_eq!(
                reader.stats().reads,
                2,
                "seed {seed}: the touched word and the word"
            );
        }
    }

    #[test]
    fn a_lone_process_stays_on_the_word_with_pinned_steps() {
        let counter = Arc::new(AdaptiveNetworkCounter::new(CountingFamily::Bitonic, 16));
        let increments = 64u64;
        let run = VirtualExecutor::with_seed(5).run(1, {
            let counter = Arc::clone(&counter);
            move |ctx| {
                (1..=increments)
                    .map(|i| {
                        let before = ctx.stats().total_all();
                        counter.increment(ctx);
                        // Read and fetch-add; every eighth increment also
                        // folds its ticket gap into the sensor.
                        let steps = ctx.stats().total_all() - before;
                        assert_eq!(steps, if i % 8 == 0 { 4 } else { 2 }, "increment {i}");
                        counter.current_width()
                    })
                    .max()
            }
        });
        assert_eq!(run.outcome.results(), vec![Some(1)]);
        let stats = run.outcome.total_steps();
        assert_eq!(stats.reads, increments + increments / 8);
        assert_eq!(stats.balancer_toggles, 0);
        assert_eq!(stats.rmws, increments + increments / 8);
        assert_eq!(stats.eliminations, 0);
        assert_eq!(stats.coin_flips, 0);
        assert_eq!(counter.contention_estimate(), 1.0);
        assert_eq!(
            counter.layer_token_counts()[0].iter().sum::<u64>(),
            increments
        );
    }

    #[test]
    fn eight_interleaved_processes_route_above_width_two() {
        let processes = 8;
        let (seeds, per_process) = if cfg!(miri) { (1, 16) } else { (4, 32) };
        for seed in 0..seeds {
            let counter = Arc::new(AdaptiveNetworkCounter::new(CountingFamily::Bitonic, 16));
            let run = VirtualExecutor::with_seed(seed).run(processes, {
                let counter = Arc::clone(&counter);
                move |ctx| {
                    for _ in 0..per_process {
                        counter.increment(ctx);
                    }
                }
            });
            assert_eq!(run.outcome.crashed_count(), 0);
            assert_eq!(counter.peek(), (processes * per_process) as u64);
            assert_eq!(counter.read(&mut ctx(99)), counter.peek());
            counter.check_step_property().expect("staircase per layer");
            let above_two: u64 = counter.layer_token_counts()[1..].iter().flatten().sum();
            assert!(above_two > 0, "seed {seed}: every token stayed on the word");
            assert_eq!(run.outcome.total_steps().eliminations, 0);
        }
    }

    #[test]
    fn reads_racing_first_touch_increments_are_quiescently_consistent() {
        let (seeds, rounds) = if cfg!(miri) { (1, 3) } else { (6, 6) };
        for width in [4u64, 8, 16] {
            for processes in 2..=4 {
                for seed in 0..seeds {
                    let counter =
                        Arc::new(AdaptiveNetworkCounter::new(CountingFamily::Bitonic, 16));
                    for _ in 0..32 {
                        counter.sensor.observe(&mut ctx(0), width);
                    }
                    assert_eq!(counter.current_width(), width as usize);
                    let recorder: Arc<Recorder<CounterOp, u64>> = Arc::new(Recorder::new());
                    let run = VirtualExecutor::with_seed(seed).run(processes, {
                        let counter = Arc::clone(&counter);
                        let recorder = Arc::clone(&recorder);
                        move |ctx| {
                            for round in 0..rounds {
                                if (ctx.id().as_usize() + round) % 2 == 0 {
                                    let invoke = recorder.invoke(ctx.id(), CounterOp::Increment);
                                    counter.increment(ctx);
                                    recorder.respond(invoke, 0);
                                } else {
                                    let invoke = recorder.invoke(ctx.id(), CounterOp::Read);
                                    let value = counter.read(ctx);
                                    recorder.respond(invoke, value);
                                }
                            }
                        }
                    });
                    assert_eq!(run.outcome.crashed_count(), 0);
                    let mut reader = ctx(99);
                    let invoke = recorder.invoke(reader.id(), CounterOp::Read);
                    let value = counter.read(&mut reader);
                    recorder.respond(invoke, value);
                    let routed_up: u64 = counter.layer_token_counts()[1..].iter().flatten().sum();
                    assert!(routed_up > 0, "width {width} seed {seed}: no first touch");
                    check_quiescent_consistent(&recorder.take_history()).unwrap_or_else(
                        |violation| panic!("width {width} p {processes} seed {seed}: {violation}"),
                    );
                    assert_eq!(value, counter.peek(), "width {width} seed {seed}");
                }
            }
        }
    }

    #[test]
    fn concurrent_increments_are_exact_at_quiescence() {
        let (threads, per_thread) = if cfg!(miri) { (3, 8) } else { (8, 300) };
        let counter = Arc::new(AdaptiveNetworkCounter::new(CountingFamily::Bitonic, 8));
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let counter = Arc::clone(&counter);
                std::thread::spawn(move || {
                    let mut ctx = ProcessCtx::new(ProcessId::new(t), 31);
                    for _ in 0..per_thread {
                        counter.increment(&mut ctx);
                    }
                })
            })
            .collect();
        for handle in handles {
            handle.join().unwrap();
        }
        assert_eq!(counter.peek(), (threads * per_thread) as u64);
        counter.check_step_property().expect("staircase per layer");
        let mut reader = ctx(99);
        assert_eq!(counter.read(&mut reader), (threads * per_thread) as u64);
    }

    #[test]
    fn display_and_debug_report_the_cascade() {
        let counter = AdaptiveNetworkCounter::new(CountingFamily::Bitonic, 4);
        assert!(format!("{counter}").starts_with("adaptive(max_width=4"));
        let debug = format!("{counter:?}");
        assert!(debug.contains("layer_widths"));
        assert!(debug.contains("tokens"));
    }
}
