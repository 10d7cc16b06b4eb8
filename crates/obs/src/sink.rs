//! The per-thread recording sink the instrumented hot paths call into.
//!
//! Instrumentation sites in `core` and `cnet` cannot thread a metrics
//! handle through every signature, so they call the free functions here
//! ([`count`], [`record`], [`event`], [`start`]/[`finish`]). Each thread
//! (or forked process — the binding is plain thread-local state and
//! survives `fork`) opts in by [`bind_metrics`]-ing a [`StripeWriter`]
//! and/or [`bind_ring`]-ing a [`RingWriter`]; unbound threads pay one
//! global flag load and a predictable branch per site.

use crate::metrics::{Metric, StripeWriter};
use crate::ring::{EventKind, RingWriter};
use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, Ordering};

/// Flips true on the first bind anywhere in the process and stays true:
/// the hot-path guard is one relaxed load of this mostly-read line.
static ANY_BOUND: AtomicBool = AtomicBool::new(false);

#[derive(Default)]
struct Bound {
    metrics: Option<StripeWriter>,
    ring: Option<RingWriter>,
}

thread_local! {
    static BOUND: RefCell<Bound> = RefCell::new(Bound::default());
}

#[inline(always)]
fn active() -> bool {
    ANY_BOUND.load(Ordering::Relaxed) // lint: relaxed-ok(monotone enable flag; guards only whether to consult thread-local state)
}

/// Binds the calling thread's metric stripe.
pub fn bind_metrics(writer: StripeWriter) {
    BOUND.with(|bound| bound.borrow_mut().metrics = Some(writer));
    ANY_BOUND.store(true, Ordering::Release);
}

/// Binds the calling thread's flight-recorder ring.
pub fn bind_ring(writer: RingWriter) {
    BOUND.with(|bound| bound.borrow_mut().ring = Some(writer));
    ANY_BOUND.store(true, Ordering::Release);
}

/// Unbinds both sinks of the calling thread.
pub fn unbind() {
    let _ = BOUND.try_with(|bound| *bound.borrow_mut() = Bound::default());
}

/// Whether any sink has ever been bound in this process.
pub fn enabled() -> bool {
    active()
}

#[inline]
fn with_metrics(f: impl FnOnce(&StripeWriter)) {
    if !active() {
        return;
    }
    let _ = BOUND.try_with(|bound| {
        if let Some(writer) = bound.borrow().metrics.as_ref() {
            f(writer);
        }
    });
}

/// Bumps a counter metric on the calling thread's stripe, if bound.
#[inline]
pub fn count(metric: Metric) {
    with_metrics(|writer| writer.count(metric));
}

/// Bumps a counter metric by `n` on the calling thread's stripe.
#[inline]
pub fn add(metric: Metric, n: u64) {
    with_metrics(|writer| writer.add(metric, n));
}

/// Stores a gauge observation on the calling thread's stripe.
#[inline]
pub fn gauge(metric: Metric, value: u64) {
    with_metrics(|writer| writer.gauge(metric, value));
}

/// Records a histogram value on the calling thread's stripe.
#[inline]
pub fn record(metric: Metric, value: u64) {
    with_metrics(|writer| writer.record(metric, value));
}

/// Logs a flight-recorder event on the calling thread's ring, if bound.
#[inline]
pub fn event(kind: EventKind, name: u64, payload: u64) {
    if !active() {
        return;
    }
    let _ = BOUND.try_with(|bound| {
        if let Some(ring) = bound.borrow().ring.as_ref() {
            ring.log(kind, name, payload);
        }
    });
}

/// An in-flight latency measurement (see [`start`]).
#[derive(Clone, Copy, Debug)]
pub struct Timer(Option<u64>);

/// Starts a latency measurement. Reads the clock only when a metric
/// stripe is bound, so unbound threads never pay for a timestamp.
#[inline]
pub fn start() -> Timer {
    if !active() {
        return Timer(None);
    }
    let mut stamp = None;
    let _ = BOUND.try_with(|bound| {
        if bound.borrow().metrics.is_some() {
            stamp = Some(crate::time::now_ns());
        }
    });
    Timer(stamp)
}

/// Finishes a latency measurement into a histogram metric.
#[inline]
pub fn finish(timer: Timer, metric: Metric) {
    if let Timer(Some(started)) = timer {
        record(metric, crate::time::now_ns().saturating_sub(started));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{Metric, MetricsSlab};
    use crate::ring::{EventKind, FlightRecorder};

    #[test]
    fn unbound_threads_record_nothing_and_pay_no_clock() {
        // Run in a throwaway thread so bindings from other tests in this
        // process never leak in.
        std::thread::spawn(|| {
            unbind();
            count(Metric::RecyclerGrant);
            let timer = start();
            finish(timer, Metric::GrantNs);
        })
        .join()
        .unwrap();
    }

    #[test]
    fn bound_threads_record_into_their_stripe_and_ring() {
        std::thread::spawn(|| {
            let slab = MetricsSlab::heap(1);
            let rec = FlightRecorder::heap(1, 4);
            bind_metrics(slab.writer(0));
            bind_ring(rec.writer(0));
            assert!(enabled());
            count(Metric::RobustAcquire);
            add(Metric::RobustCasRetry, 2);
            gauge(Metric::RoutedWidth, 4);
            record(Metric::RobustAcquireNs, 123);
            let timer = start();
            finish(timer, Metric::GrantNs);
            event(EventKind::LeaseGranted, 7, 0);
            unbind();
            count(Metric::RobustAcquire); // after unbind: dropped
            assert_eq!(slab.merged_word(Metric::RobustAcquire), 1);
            assert_eq!(slab.merged_word(Metric::RobustCasRetry), 2);
            assert_eq!(slab.merged_word(Metric::RoutedWidth), 4);
            assert_eq!(slab.merged_hist(Metric::RobustAcquireNs).count(), 1);
            assert_eq!(slab.merged_hist(Metric::GrantNs).count(), 1);
            let events = rec.events(0);
            assert_eq!(events.len(), 1);
            assert_eq!(events[0].kind, EventKind::LeaseGranted);
            assert_eq!(events[0].name, 7);
        })
        .join()
        .unwrap();
    }
}
