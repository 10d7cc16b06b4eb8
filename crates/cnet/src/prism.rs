//! Elimination/diffraction prisms: pairing off colliding increments before
//! they enter a counting network.
//!
//! A *prism* (Shavit & Zemach's diffracting trees; see also the elimination
//! section of Aspnes' *Notes on Theory of Distributed Systems*) is an array
//! of exchanger slots placed in front of a balancer network. A token arriving
//! at a slot either
//!
//! * finds the slot **empty** — it installs itself and waits a bounded spin
//!   window for a partner;
//! * finds a **waiting** token — it *captures* the waiter and returns
//!   immediately ([`PrismOutcome::Eliminated`]): its increment will be
//!   carried into the network by the waiter, which wakes up as a *combiner*
//!   holding a weight-2 token ([`PrismOutcome::Combined`]);
//! * times out or loses a race — it falls through to the network as an
//!   ordinary weight-1 token ([`PrismOutcome::FellThrough`]).
//!
//! Pairing halves both the token traffic through the balancers and the
//! contention on them exactly when contention is high (collisions are
//! frequent), while the bounded spin window keeps the uncontended path cheap
//! (install, a short spin, one compare-and-swap back out).
//!
//! # Slot protocol
//!
//! Each slot is a single padded atomic word with three states —
//! `EMPTY → WAITING → CAPTURED → EMPTY` — and needs no ABA tag: only the
//! process that installed `WAITING` ever spins on or resets the slot, and
//! exactly one of the installer's timeout CAS (`WAITING → EMPTY`) and a
//! partner's capture CAS (`WAITING → CAPTURED`) can succeed. Which concrete
//! partner was captured never matters for counting — only that one paired
//! increment is now carried by the combiner.
//!
//! # Consistency and cost accounting
//!
//! An eliminated increment returns *before* its value is deposited by the
//! combiner, which is fine for quiescent consistency: any read that begins
//! after the eliminated operation returned but before the combiner deposits
//! overlaps the combiner's in-flight increment, so that read is not separated
//! from the increment by a quiescent point. Exactness at quiescence is
//! restored the moment the combiner deposits.
//!
//! Under *crash injection* the guarantee weakens: if a waiter crashes after
//! a partner captured it (or while carrying its weight-2 token through the
//! network), the partner's already-completed increment is lost with it.
//! Crash-tolerant elimination needs a helping protocol the paper does not
//! require; the executor's default configuration injects no crashes, and
//! neither do the prism tests. The slot itself stays safe: a slot
//! abandoned in `CAPTURED` is permanently skipped (every visitor falls
//! through), never corrupted.
//!
//! Every *shared-memory* operation on a slot (initial load, install CAS,
//! capture CAS, timeout CAS, reset store) charges one
//! [`StepKind::Elimination`] step. The spin-window polls are *not* charged:
//! the installer re-reads a line it owns in cache until the capture
//! invalidates it, which the cost model treats as local spinning, matching
//! how the test-and-set substrate accounts its local spins.

use shmem::pad::CachePadded;
use shmem::process::ProcessCtx;
use shmem::steps::StepKind;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

/// Slot is free: an arriving token may install itself and wait.
const EMPTY: u64 = 0;
/// A token is installed and spinning for a partner.
const WAITING: u64 = 1;
/// A partner captured the waiter; the waiter will combine and reset.
const CAPTURED: u64 = 2;

/// How a token's visit to a prism ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum PrismOutcome {
    /// The token captured a waiting partner and is done: its increment will
    /// be deposited by the partner, which continues as a weight-2 combiner.
    Eliminated,
    /// The token waited, was captured, and now carries weight 2 (its own
    /// increment plus the eliminated partner's) into the network.
    Combined,
    /// No pairing happened inside the spin window; the token proceeds into
    /// the network with its own weight of 1.
    FellThrough,
}

impl PrismOutcome {
    /// The number of increments this token carries into the network: 0 for
    /// an eliminated token, 2 for a combiner, 1 for a fall-through.
    pub fn weight(self) -> u64 {
        match self {
            PrismOutcome::Eliminated => 0,
            PrismOutcome::Combined => 2,
            PrismOutcome::FellThrough => 1,
        }
    }
}

/// An array of exchanger slots with a bounded spin window.
///
/// # Example
///
/// ```
/// use cnet::prism::{Prism, PrismOutcome};
/// use shmem::process::{ProcessCtx, ProcessId};
///
/// let prism = Prism::new(1, 16);
/// let mut ctx = ProcessCtx::new(ProcessId::new(0), 1);
/// // Alone, a token times out of the exchange and falls through.
/// assert_eq!(prism.visit(&mut ctx), PrismOutcome::FellThrough);
/// assert_eq!(prism.pairs(), 0);
/// ```
pub struct Prism {
    slots: Box<[CachePadded<AtomicU64>]>,
    spin_limit: u32,
    /// Completed eliminations (bumped once per pair, by the capturer).
    pairs: AtomicU64,
}

impl Prism {
    /// Creates a prism with `slots` exchanger slots (at least 1) and a spin
    /// window of `spin_limit` polls.
    ///
    /// # Panics
    ///
    /// Panics if `slots` is zero.
    pub fn new(slots: usize, spin_limit: u32) -> Self {
        assert!(slots > 0, "a prism needs at least one slot");
        Prism {
            slots: (0..slots)
                .map(|_| CachePadded::new(AtomicU64::new(EMPTY)))
                .collect(),
            spin_limit,
            pairs: AtomicU64::new(0),
        }
    }

    /// The number of exchanger slots.
    pub fn width(&self) -> usize {
        self.slots.len()
    }

    /// Completed eliminations so far (each pair counted once). Harness/test
    /// inspection only; never charged to a process.
    pub fn pairs(&self) -> u64 {
        self.pairs.load(Ordering::Acquire)
    }

    /// Visits a uniformly random slot and attempts to pair with another
    /// in-flight increment, per the slot protocol in the module docs.
    ///
    /// Charges one [`StepKind::Elimination`] step per shared slot operation
    /// and (for multi-slot prisms) one coin-flip step for the slot draw.
    pub fn visit(&self, ctx: &mut ProcessCtx) -> PrismOutcome {
        let slot: &AtomicU64 = if self.slots.len() == 1 {
            &self.slots[0]
        } else {
            &self.slots[ctx.random_index(self.slots.len())]
        };
        ctx.record(StepKind::Elimination);
        match slot.load(Ordering::Acquire) {
            EMPTY => {
                ctx.record(StepKind::Elimination);
                if slot
                    .compare_exchange(EMPTY, WAITING, Ordering::AcqRel, Ordering::Acquire) // lint: relaxed-ok(slot handshake RMW both acquires the peer write and releases ours)
                    .is_err()
                {
                    // Someone else took the slot between our load and CAS;
                    // don't retry — proceed into the network.
                    return PrismOutcome::FellThrough;
                }
                for _ in 0..self.spin_limit {
                    // Local poll of a line we own until a capture invalidates
                    // it — not charged as a shared step (see module docs).
                    // Deliberately no PAUSE-style spin hint: on current x86
                    // a PAUSE costs ~10-15 ns, which at a 16-poll window adds
                    // ~200 ns to every *uncontended* increment — the exact
                    // path the prism exists to keep cheap. Polling an owned
                    // line generates no coherence traffic, and under a
                    // preemptive scheduler pairing is dominated by timeslice
                    // preemption while WAITING, not by the real-time width of
                    // the window.
                    if slot.load(Ordering::Acquire) == CAPTURED {
                        ctx.record(StepKind::Elimination);
                        slot.store(EMPTY, Ordering::Release);
                        return PrismOutcome::Combined;
                    }
                }
                ctx.record(StepKind::Elimination);
                // lint: relaxed-ok(slot handshake RMW both acquires the peer write and releases ours)
                match slot.compare_exchange(WAITING, EMPTY, Ordering::AcqRel, Ordering::Acquire) {
                    Ok(_) => PrismOutcome::FellThrough,
                    Err(_) => {
                        // The only transition out of WAITING not made by us
                        // is a partner's capture: we were paired after the
                        // window closed. Reset the slot and combine.
                        ctx.record(StepKind::Elimination);
                        slot.store(EMPTY, Ordering::Release);
                        PrismOutcome::Combined
                    }
                }
            }
            WAITING => {
                ctx.record(StepKind::Elimination);
                if slot
                    .compare_exchange(WAITING, CAPTURED, Ordering::AcqRel, Ordering::Acquire) // lint: relaxed-ok(slot handshake RMW both acquires the peer write and releases ours)
                    .is_ok()
                {
                    self.pairs.fetch_add(1, Ordering::AcqRel); // lint: relaxed-ok(pair counter RMW orders capture before the exit-side read)
                    PrismOutcome::Eliminated
                } else {
                    PrismOutcome::FellThrough
                }
            }
            // CAPTURED (or a lost race mid-exchange): the slot is busy
            // completing a pairing; don't wait on someone else's exchange.
            _ => PrismOutcome::FellThrough,
        }
    }
}

impl fmt::Debug for Prism {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Prism")
            .field("slots", &self.slots.len())
            .field("spin_limit", &self.spin_limit)
            .field("pairs", &self.pairs())
            .finish()
    }
}

impl fmt::Display for Prism {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "prism(slots={}, pairs={})", self.width(), self.pairs())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use shmem::process::ProcessId;
    use std::sync::Arc;

    fn ctx(id: usize) -> ProcessCtx {
        ProcessCtx::new(ProcessId::new(id), 11)
    }

    #[test]
    #[should_panic(expected = "at least one slot")]
    fn zero_slots_are_rejected() {
        let _ = Prism::new(0, 8);
    }

    #[test]
    fn a_lone_token_falls_through_and_charges_elimination_steps() {
        let prism = Prism::new(1, 4);
        let mut ctx = ctx(0);
        assert_eq!(prism.visit(&mut ctx), PrismOutcome::FellThrough);
        let stats = ctx.stats();
        // Initial load + install CAS + timeout CAS, no coin flip (one slot).
        assert_eq!(stats.eliminations, 3);
        assert_eq!(stats.coin_flips, 0);
        assert_eq!(stats.total(), 0, "eliminations are a separate measure");
        assert_eq!(stats.total_all(), 3);
        assert_eq!(prism.pairs(), 0);
    }

    #[test]
    fn multi_slot_visits_charge_one_flip() {
        let prism = Prism::new(4, 2);
        let mut ctx = ctx(0);
        prism.visit(&mut ctx);
        assert_eq!(ctx.stats().coin_flips, 1);
    }

    #[test]
    fn outcome_weights_conserve_increments() {
        assert_eq!(PrismOutcome::Eliminated.weight(), 0);
        assert_eq!(PrismOutcome::Combined.weight(), 2);
        assert_eq!(PrismOutcome::FellThrough.weight(), 1);
        assert_eq!(
            PrismOutcome::Eliminated.weight() + PrismOutcome::Combined.weight(),
            2,
            "a pair carries exactly its two increments"
        );
    }

    #[test]
    fn concurrent_visits_conserve_total_weight() {
        // Total carried weight must equal the number of visits regardless of
        // how pairings and timeouts interleave. Sized down under miri (the
        // CI miri job runs this module).
        let (threads, per_thread, spin) = if cfg!(miri) {
            (3, 8, 32)
        } else {
            (8, 400, 2_000)
        };
        let prism = Arc::new(Prism::new(2, spin));
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let prism = Arc::clone(&prism);
                std::thread::spawn(move || {
                    let mut ctx = ProcessCtx::new(ProcessId::new(t), 5);
                    let mut weight = 0u64;
                    let mut eliminated = 0u64;
                    let mut combined = 0u64;
                    for _ in 0..per_thread {
                        let outcome = prism.visit(&mut ctx);
                        weight += outcome.weight();
                        match outcome {
                            PrismOutcome::Eliminated => eliminated += 1,
                            PrismOutcome::Combined => combined += 1,
                            PrismOutcome::FellThrough => {}
                        }
                    }
                    (weight, eliminated, combined)
                })
            })
            .collect();
        let mut weight = 0u64;
        let mut eliminated = 0u64;
        let mut combined = 0u64;
        for handle in handles {
            let (w, e, c) = handle.join().unwrap();
            weight += w;
            eliminated += e;
            combined += c;
        }
        let visits = (threads * per_thread) as u64;
        assert_eq!(weight, visits, "every increment is carried exactly once");
        assert_eq!(eliminated, combined, "pairings are symmetric");
        assert_eq!(prism.pairs(), eliminated);
        // All slots are EMPTY again at quiescence.
        for slot in prism.slots.iter() {
            assert_eq!(slot.load(Ordering::Acquire), EMPTY);
        }
    }

    #[test]
    fn slots_are_cache_padded() {
        let prism = Prism::new(2, 1);
        let a = &*prism.slots[0] as *const AtomicU64 as usize;
        let b = &*prism.slots[1] as *const AtomicU64 as usize;
        assert!(b - a >= 64);
    }

    #[test]
    fn display_and_debug_report_geometry() {
        let prism = Prism::new(3, 9);
        assert_eq!(format!("{prism}"), "prism(slots=3, pairs=0)");
        assert!(format!("{prism:?}").contains("spin_limit: 9"));
    }
}
