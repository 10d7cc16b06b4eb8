//! The metric registry and the escrowed arena slab holding per-process
//! metric stripes.
//!
//! Recording follows the escrow pattern: every process (or thread) owns one
//! *stripe* of the slab and bumps only its own words with relaxed atomics —
//! no cross-process cache-line traffic on the hot path. The stripes are
//! folded together only when a [`Snapshot`](crate::snapshot::Snapshot) is
//! taken, exactly like the free-list escrow the rest of the workspace uses
//! for coordination-free fast paths.
//!
//! The stripe layout is fixed at compile time: the word metrics (counters
//! and gauges, one word each) come first, then one
//! [`HIST_WORDS`]-word block per histogram metric,
//! padded to a whole number of cache lines so adjacent stripes never share a
//! line.

use crate::hist::{bucket_of, Histogram, HIST_WORDS};
use shmem::arena::{Arena, ArenaSliceRef};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// How a metric's words are interpreted.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MetricKind {
    /// A monotone event count; stripes are summed at snapshot time.
    Counter,
    /// A last-written observation; stripes are maxed at snapshot time.
    Gauge,
    /// A log-bucketed latency histogram; stripes are merged at snapshot time.
    Histogram,
}

macro_rules! metrics {
    (
        words { $($wvariant:ident => ($wname:expr, $wkind:ident),)* }
        hists { $($hvariant:ident => $hname:expr,)* }
    ) => {
        /// Every metric the workspace records. Word metrics (counters and
        /// gauges) precede histogram metrics; the discriminant doubles as
        /// the stripe-layout index.
        #[derive(Clone, Copy, Debug, PartialEq, Eq)]
        #[repr(usize)]
        #[allow(missing_docs)]
        pub enum Metric {
            $($wvariant,)*
            $($hvariant,)*
        }

        /// Number of one-word (counter/gauge) metrics.
        pub const WORD_METRICS: usize = [$(Metric::$wvariant,)*].len();
        /// Number of histogram metrics.
        pub const HIST_METRICS: usize = [$(Metric::$hvariant,)*].len();
        /// Every metric, in stripe-layout order.
        pub const ALL_METRICS: [Metric; WORD_METRICS + HIST_METRICS] =
            [$(Metric::$wvariant,)* $(Metric::$hvariant,)*];

        impl Metric {
            /// The metric's stable export name.
            pub fn name(self) -> &'static str {
                match self {
                    $(Metric::$wvariant => $wname,)*
                    $(Metric::$hvariant => $hname,)*
                }
            }

            /// How the metric's words are interpreted and merged.
            pub fn kind(self) -> MetricKind {
                match self {
                    $(Metric::$wvariant => MetricKind::$wkind,)*
                    $(Metric::$hvariant => MetricKind::Histogram,)*
                }
            }
        }
    };
}

metrics! {
    words {
        RecyclerGrant => ("recycler.grant", Counter),
        RecyclerFresh => ("recycler.grant_fresh", Counter),
        RecyclerRecycled => ("recycler.grant_recycled", Counter),
        RecyclerRelease => ("recycler.release", Counter),
        BatchedStashHit => ("batched.stash_hit", Counter),
        BatchedFlush => ("batched.flush", Counter),
        RobustAcquire => ("robust.acquire", Counter),
        RobustCasRetry => ("robust.cas_retry", Counter),
        RobustRelease => ("robust.release", Counter),
        RobustSwept => ("robust.swept", Counter),
        FreeListPush => ("free_list.push", Counter),
        FreeListPop => ("free_list.pop", Counter),
        NetIncrement => ("cnet.increment", Counter),
        AdaptiveIncrement => ("adaptive.increment", Counter),
        AdaptiveRouteUp => ("adaptive.route_up", Counter),
        PrismEliminated => ("prism.eliminated", Counter),
        BalancerToggle => ("balancer.toggle", Counter),
        RobustGateWait => ("robust.gate_wait", Counter),
        RecyclerAdmissionRetry => ("recycler.admission_retry", Counter),
        RecoverRuns => ("recover.runs", Counter),
        RecoverReclaimed => ("recover.reclaimed", Counter),
        RecoverSummaryRepairs => ("recover.summary_repairs", Counter),
        SensorEstimateFp => ("adaptive.sensor_estimate_fp", Gauge),
        RoutedWidth => ("adaptive.routed_width", Gauge),
    }
    hists {
        GrantNs => "recycler.grant_ns",
        RobustAcquireNs => "robust.acquire_ns",
        NetIncrementNs => "cnet.increment_ns",
        AdaptiveIncrementNs => "adaptive.increment_ns",
        RecoverNs => "recover.ns",
    }
}

impl Metric {
    /// The metric's first word within a stripe.
    #[inline]
    pub fn offset(self) -> usize {
        let index = self as usize;
        if index < WORD_METRICS {
            index
        } else {
            WORD_METRICS + (index - WORD_METRICS) * HIST_WORDS
        }
    }
}

/// Raw words per stripe before cache-line padding.
const STRIPE_RAW_WORDS: usize = WORD_METRICS + HIST_METRICS * HIST_WORDS;
/// Words per stripe, padded to whole 64-byte lines so adjacent stripes
/// never false-share.
pub const STRIPE_WORDS: usize = STRIPE_RAW_WORDS.next_multiple_of(8);

/// The escrowed metric slab: `stripes` per-process regions of
/// [`STRIPE_WORDS`] atomic words each, allocated from one arena slice.
pub struct MetricsSlab {
    words: ArenaSliceRef<AtomicU64>,
    stripes: usize,
}

impl std::fmt::Debug for MetricsSlab {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MetricsSlab")
            .field("stripes", &self.stripes)
            .field("stripe_words", &STRIPE_WORDS)
            .finish()
    }
}

impl MetricsSlab {
    /// Allocates a slab of `stripes` stripes from `arena` (exactly
    /// [`MetricsSlab::footprint`] bytes).
    ///
    /// # Panics
    ///
    /// Panics if `stripes` is zero or the arena runs out of space.
    pub fn new_in(arena: &Arc<Arena>, stripes: usize) -> Arc<Self> {
        assert!(stripes > 0, "a metrics slab needs at least one stripe");
        let words = arena.alloc_slice::<AtomicU64>(stripes * STRIPE_WORDS);
        Arc::new(MetricsSlab { words, stripes })
    }

    /// Allocates a slab of `stripes` stripes over a fresh process-private
    /// heap arena.
    pub fn heap(stripes: usize) -> Arc<Self> {
        Self::new_in(&Arena::heap(Self::footprint(stripes)), stripes)
    }

    /// The number of arena bytes a slab of `stripes` stripes allocates.
    pub fn footprint(stripes: usize) -> usize {
        // Stripes are whole cache lines, so the slice needs no extra
        // alignment padding beyond its own 64-byte start.
        stripes * STRIPE_WORDS * std::mem::size_of::<AtomicU64>()
    }

    /// The number of stripes.
    pub fn stripes(&self) -> usize {
        self.stripes
    }

    /// A writer bound to `stripe` (values in `0..stripes`). Writers are
    /// cheap to clone and safe to carry across `fork`: they resolve through
    /// the pinned arena slice.
    ///
    /// # Panics
    ///
    /// Panics if `stripe` is out of range.
    pub fn writer(self: &Arc<Self>, stripe: usize) -> StripeWriter {
        assert!(stripe < self.stripes, "stripe {stripe} out of range");
        StripeWriter {
            slab: Arc::clone(self),
            base: stripe * STRIPE_WORDS,
        }
    }

    #[inline]
    fn word(&self, index: usize) -> &AtomicU64 {
        &self.words[index]
    }

    /// The merged value of a counter or gauge metric across all stripes
    /// (sum for counters, max for gauges).
    pub fn merged_word(&self, metric: Metric) -> u64 {
        let offset = metric.offset();
        let fold = |acc: u64, v: u64| match metric.kind() {
            MetricKind::Gauge => acc.max(v),
            _ => acc + v,
        };
        (0..self.stripes).fold(0, |acc, stripe| {
            fold(
                acc,
                self.word(stripe * STRIPE_WORDS + offset)
                    .load(Ordering::Acquire),
            )
        })
    }

    /// The merged histogram of a histogram metric across all stripes.
    ///
    /// # Panics
    ///
    /// Panics if `metric` is not a histogram metric.
    pub fn merged_hist(&self, metric: Metric) -> Histogram {
        assert_eq!(metric.kind(), MetricKind::Histogram, "{metric:?}");
        let offset = metric.offset();
        let mut merged = Histogram::new();
        let mut words = vec![0u64; HIST_WORDS];
        for stripe in 0..self.stripes {
            let base = stripe * STRIPE_WORDS + offset;
            for (i, word) in words.iter_mut().enumerate() {
                *word = self.word(base + i).load(Ordering::Acquire);
            }
            merged.merge(&Histogram::from_words(&words));
        }
        merged
    }

    /// Zeroes every stripe (start of a fresh measurement window).
    pub fn reset(&self) {
        for word in self.words.iter() {
            word.store(0, Ordering::Release);
        }
    }
}

/// A handle recording into one stripe of a [`MetricsSlab`]. All operations
/// are single relaxed read-modify-writes on the stripe's own cache lines —
/// the escrow discipline makes stronger orderings pointless, since the
/// words are only read at snapshot time, after the window quiesces.
#[derive(Clone)]
pub struct StripeWriter {
    slab: Arc<MetricsSlab>,
    base: usize,
}

impl std::fmt::Debug for StripeWriter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StripeWriter")
            .field("stripe", &(self.base / STRIPE_WORDS))
            .finish()
    }
}

impl StripeWriter {
    /// The slab this writer records into.
    pub fn slab(&self) -> &Arc<MetricsSlab> {
        &self.slab
    }

    /// Bumps a counter metric by one.
    #[inline]
    pub fn count(&self, metric: Metric) {
        self.add(metric, 1);
    }

    /// Bumps a counter metric by `n`.
    #[inline]
    pub fn add(&self, metric: Metric, n: u64) {
        self.slab
            .word(self.base + metric.offset())
            .fetch_add(n, Ordering::Relaxed); // lint: relaxed-ok(escrowed per-process metric word; read only at quiesced snapshots)
    }

    /// Stores a gauge observation.
    #[inline]
    pub fn gauge(&self, metric: Metric, value: u64) {
        self.slab
            .word(self.base + metric.offset())
            .store(value, Ordering::Relaxed); // lint: relaxed-ok(escrowed per-process gauge word; read only at quiesced snapshots)
    }

    /// Records one value into a histogram metric.
    #[inline]
    pub fn record(&self, metric: Metric, value: u64) {
        let base = self.base + metric.offset();
        let bucket = bucket_of(value);
        self.slab
            .word(base + bucket)
            .fetch_add(1, Ordering::Relaxed); // lint: relaxed-ok(escrowed per-process histogram words; read only at quiesced snapshots)
        self.slab
            .word(base + crate::hist::BUCKETS)
            .fetch_add(1, Ordering::Relaxed); // lint: relaxed-ok(escrowed per-process histogram words; read only at quiesced snapshots)
        self.slab
            .word(base + crate::hist::BUCKETS + 1)
            .fetch_add(value, Ordering::Relaxed); // lint: relaxed-ok(escrowed per-process histogram words; read only at quiesced snapshots)
        self.slab
            .word(base + crate::hist::BUCKETS + 2)
            .fetch_max(value, Ordering::Relaxed); // lint: relaxed-ok(escrowed per-process histogram words; read only at quiesced snapshots)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_stripe_layout_is_dense_and_in_declaration_order() {
        for window in ALL_METRICS.windows(2) {
            assert!(
                window[0].offset() < window[1].offset(),
                "{:?} before {:?}",
                window[0],
                window[1]
            );
        }
        // Word metrics are one word apart; histograms HIST_WORDS apart.
        assert_eq!(Metric::RecyclerGrant.offset(), 0);
        assert_eq!(
            Metric::GrantNs.offset(),
            WORD_METRICS,
            "first histogram starts right after the word metrics"
        );
        assert_eq!(Metric::RobustAcquireNs.offset(), WORD_METRICS + HIST_WORDS);
        const { assert!(STRIPE_WORDS >= STRIPE_RAW_WORDS) };
        assert_eq!(STRIPE_WORDS % 8, 0, "stripes are whole cache lines");
    }

    #[test]
    fn metric_names_are_unique() {
        let mut names: Vec<&str> = ALL_METRICS.iter().map(|m| m.name()).collect();
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(names.len(), before);
    }

    #[test]
    fn slab_footprint_is_exact_and_stripes_merge() {
        let arena = Arena::heap(MetricsSlab::footprint(3));
        let slab = MetricsSlab::new_in(&arena, 3);
        assert_eq!(arena.remaining(), 0, "footprint is exact");
        for stripe in 0..3 {
            let w = slab.writer(stripe);
            w.count(Metric::RecyclerGrant);
            w.add(Metric::RobustCasRetry, stripe as u64);
            w.gauge(Metric::RoutedWidth, 2 << stripe);
            w.record(Metric::GrantNs, 100 << stripe);
        }
        assert_eq!(slab.merged_word(Metric::RecyclerGrant), 3);
        assert_eq!(slab.merged_word(Metric::RobustCasRetry), 3);
        assert_eq!(slab.merged_word(Metric::RoutedWidth), 8, "gauges max");
        let hist = slab.merged_hist(Metric::GrantNs);
        assert_eq!(hist.count(), 3);
        assert_eq!(hist.sum(), 100 + 200 + 400);
        assert_eq!(hist.max(), 400);
        slab.reset();
        assert_eq!(slab.merged_word(Metric::RecyclerGrant), 0);
        assert!(slab.merged_hist(Metric::GrantNs).is_empty());
    }

    #[test]
    #[should_panic(expected = "stripe 2 out of range")]
    fn out_of_range_stripes_are_rejected() {
        let _ = MetricsSlab::heap(2).writer(2);
    }
}
