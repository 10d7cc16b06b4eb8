//! Property-based tests of the counting-network subsystem (`cnet`).
//!
//! These guarantees are pinned across randomized widths, both certified
//! wirings and seeded `VirtualExecutor` schedules, whose verdicts are a pure
//! function of the inputs and cannot depend on machine load:
//!
//! 1. **Step property** — at every quiescent point the output-wire counts
//!    form a staircase, sequentially (checked after every token) and after
//!    adversarial concurrent executions.
//! 2. **Quiescent consistency** — recorded histories pass
//!    `check_quiescent_consistent`: reads that overlap no increment are
//!    exact.
//! 3. **Non-linearizability** — the counter is *deliberately* weaker than
//!    linearizable: a stalled token lets a later increment steal an earlier
//!    ticket, mirroring the §8.1 non-linearizability argument for the
//!    monotone counter. The counterexample is driven deterministically
//!    through the real implementation for every certified wiring and width.
//! 4. **Elimination preserves counting** — every visit to the standalone
//!    `Prism` resolves to an outcome whose weights sum back to the visit
//!    count. The prism's slot words are uncharged, so a virtual schedule
//!    runs each visit uninterrupted and never pairs two visits: the pairing
//!    assertions here hold only as 0 = 0. That eliminated and combined
//!    tokens pair one-for-one is checked on OS threads by
//!    `cnet::prism::tests::concurrent_visits_conserve_total_weight`.
//! 5. **Routing preserves counting** — the `AdaptiveNetworkCounter` cascade
//!    stays exact and quiescently consistent under the same schedules as
//!    the fixed-width counter.

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use shmem::consistency::{
    check_linearizable, check_quiescent_consistent, CounterOp, TicketCounterSpec, Violation,
};
use shmem::history::Recorder;
use std::sync::Arc;
use strong_renaming::prelude::*;

fn families() -> [CountingFamily; 2] {
    CountingFamily::all()
}

fn width_from(raw: u8) -> usize {
    1usize << (1 + raw % 4) // 2, 4, 8 or 16
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 10,
        .. ProptestConfig::default()
    })]

    /// Sequentially, both certified wirings satisfy the step property after
    /// every token, for arbitrary entry-wire sequences — and the live
    /// compiled engine lands tokens exactly where the pure simulation says.
    #[test]
    fn certified_wirings_count_sequentially(
        raw_width in 0u8..3,
        entries in proptest::collection::vec(0usize..64, 1..48),
    ) {
        let width = width_from(raw_width);
        for family in families() {
            let schedule = family.schedule(width);
            let entries: Vec<usize> = entries.iter().map(|e| e % width).collect();
            let counts = cnet::sequential_step_property(&*schedule, &entries)
                .map_err(|violation| {
                    TestCaseError::fail(format!("{family} width {width}: {violation}"))
                })?;
            prop_assert_eq!(counts.iter().sum::<u64>(), entries.len() as u64);

            // The live compiled engine agrees with the mathematical model.
            let counter = NetworkCounter::new(family, width);
            for &entry in &entries {
                let mut ctx = ProcessCtx::new(ProcessId::new(entry), 0);
                counter.increment(&mut ctx);
            }
            prop_assert_eq!(counter.exit_counts(), counts);
        }
    }

    /// After any adversarial concurrent execution drains, the exit-wire
    /// counts of both certified wirings form a staircase and sum to the
    /// exact number of increments.
    #[test]
    fn step_property_holds_at_quiescence_under_contention(
        threads in 2usize..9,
        ops_per_worker in 1usize..12,
        raw_width in 0u8..4,
        seed in 0u64..1_000_000,
    ) {
        let width = width_from(raw_width);
        for family in families() {
            let counter = Arc::new(NetworkCounter::new(family, width));
            let outcome = VirtualExecutor::with_seed(seed)
                .run(threads, {
                    let counter = Arc::clone(&counter);
                    move |ctx| {
                        for _ in 0..ops_per_worker {
                            counter.increment(ctx);
                        }
                    }
                }).outcome;
            prop_assert_eq!(outcome.crashed_count(), 0);
            let counts = counter.exit_counts();
            if let Some(violation) = cnet::step_property_violation(&counts) {
                return Err(TestCaseError::fail(format!(
                    "{family} width {width}: {violation}"
                )));
            }
            prop_assert_eq!(
                counter.peek(),
                (threads * ops_per_worker) as u64,
                "{} width {}: tokens conserved", family, width
            );
        }
    }

    /// Recorded mixed workloads are quiescently consistent: every read that
    /// overlaps no increment returns the exact completed count. (The same
    /// histories are *not* required to be linearizable — see the
    /// counterexample tests below.)
    #[test]
    fn recorded_histories_are_quiescently_consistent(
        threads in 2usize..7,
        seed in 0u64..1_000_000,
        raw_width in 0u8..3,
    ) {
        let width = width_from(raw_width);
        for family in families() {
            let counter = Arc::new(NetworkCounter::new(family, width));
            let recorder: Arc<Recorder<CounterOp, u64>> = Arc::new(Recorder::new());
            let outcome = VirtualExecutor::with_seed(seed).run(threads, {
                let counter = Arc::clone(&counter);
                let recorder = Arc::clone(&recorder);
                move |ctx| {
                    for round in 0..3 {
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
            }).outcome;
            prop_assert_eq!(outcome.crashed_count(), 0);
            // A final quiescent read must be exact by construction.
            let mut quiescent = ProcessCtx::new(ProcessId::new(10_000), 0);
            let invoke = recorder.invoke(quiescent.id(), CounterOp::Read);
            let value = counter.read(&mut quiescent);
            recorder.respond(invoke, value);
            prop_assert_eq!(value, counter.peek());

            let history = recorder.take_history();
            if let Err(violation) = check_quiescent_consistent(&history) {
                return Err(TestCaseError::fail(format!(
                    "{family} width {width}: {violation}"
                )));
            }
        }
    }

    /// The non-linearizability counterexample, driven through the real
    /// implementation for every certified wiring and width: the first token
    /// stalls between its traversal and its deposit, the next `width`
    /// increments wrap around the exit wires, and the wrapping increment
    /// steals ticket 0 — after an increment that returned ticket 1 has
    /// already completed. The recorded history is rejected by the
    /// linearizability checker yet passes `check_quiescent_consistent`.
    #[test]
    fn stalled_tokens_pin_non_linearizability(
        raw_width in 0u8..3,
        stalled_entry in 0usize..8,
        seed in 0u64..1_000_000,
    ) {
        let width = width_from(raw_width);
        for family in families() {
            let counter = NetworkCounter::new(family, width);
            let recorder: Recorder<CounterOp, u64> = Recorder::new();

            // The stalled process traverses the empty network (exiting on
            // wire 0, as the first token must) and then pauses before its
            // exit-wire deposit.
            let mut stalled = ProcessCtx::new(ProcessId::new(100), seed);
            let stalled_invoke = recorder.invoke(stalled.id(), CounterOp::Increment);
            let stalled_wire = counter.network().traverse(&mut stalled, stalled_entry % width);
            prop_assert_eq!(stalled_wire, 0, "the first token exits wire 0");

            // `width` full increments now run to completion. The step
            // property routes them to wires 1, 2, …, width−1 and then wraps
            // the last one onto wire 0, whose counter the stalled token has
            // not bumped yet: the wrapper gets ticket 0.
            let mut tickets = Vec::new();
            for process in 0..width {
                let mut ctx = ProcessCtx::new(ProcessId::new(process), seed);
                let invoke = recorder.invoke(ctx.id(), CounterOp::Increment);
                let ticket = counter.fetch_increment(&mut ctx);
                recorder.respond(invoke, ticket);
                tickets.push(ticket);
            }
            let mut expected: Vec<u64> = (1..width as u64).collect();
            expected.push(0);
            prop_assert_eq!(&tickets, &expected, "{} width {}", family, width);

            // The stalled token finally deposits and takes ticket `width`.
            let ticket = counter.deposit(&mut stalled, stalled_wire);
            recorder.respond(stalled_invoke, ticket);
            prop_assert_eq!(ticket, width as u64);

            // A quiescent read closes the history.
            let mut reader = ProcessCtx::new(ProcessId::new(200), seed);
            let invoke = recorder.invoke(reader.id(), CounterOp::Read);
            let value = counter.read(&mut reader);
            recorder.respond(invoke, value);
            prop_assert_eq!(value, width as u64 + 1);

            let history = recorder.take_history();
            // Ticket 1 completed strictly before ticket 0 was even invoked
            // (when width > 2 the wrap makes it even more lopsided): no
            // sequential fetch-and-increment order can reproduce this.
            prop_assert_eq!(
                check_linearizable(&TicketCounterSpec, &history),
                Err(Violation::NotLinearizable),
                "{} width {}", family, width
            );
            // Yet the very same run is quiescently consistent.
            prop_assert_eq!(
                check_quiescent_consistent(&history),
                Ok(()),
                "{} width {}", family, width
            );
        }
    }

    /// Elimination never creates or destroys increments: across any
    /// adversarial schedule the outcome weights sum to the visit count. The
    /// slot CASes charge no step, so no visit pairs on a virtual schedule
    /// and the pairing assertions below hold as 0 = 0; pairing's checker is
    /// `cnet::prism::tests::concurrent_visits_conserve_total_weight`, on OS
    /// threads.
    #[test]
    fn prism_outcomes_conserve_tokens_under_contention(
        threads in 2usize..9,
        visits_per_worker in 1usize..12,
        raw_slots in 0u8..3,
        spin_limit in 1u32..64,
        seed in 0u64..1_000_000,
    ) {
        use std::sync::atomic::{AtomicU64, Ordering};

        let slots = 1usize << (raw_slots % 3); // 1, 2 or 4
        let prism = Arc::new(Prism::new(slots, spin_limit));
        let tallies: Arc<[AtomicU64; 3]> = Arc::new([
            AtomicU64::new(0), // eliminated
            AtomicU64::new(0), // combined
            AtomicU64::new(0), // fell through
        ]);
        let outcome = VirtualExecutor::with_seed(seed)
            .run(threads, {
                let prism = Arc::clone(&prism);
                let tallies = Arc::clone(&tallies);
                move |ctx| {
                    for _ in 0..visits_per_worker {
                        let slot = match prism.visit(ctx) {
                            PrismOutcome::Eliminated => 0,
                            PrismOutcome::Combined => 1,
                            PrismOutcome::FellThrough => 2,
                        };
                        tallies[slot].fetch_add(1, Ordering::Relaxed);
                    }
                }
            }).outcome;
        prop_assert_eq!(outcome.crashed_count(), 0);

        let eliminated = tallies[0].load(Ordering::Relaxed);
        let combined = tallies[1].load(Ordering::Relaxed);
        let fell_through = tallies[2].load(Ordering::Relaxed);
        let visits = (threads * visits_per_worker) as u64;
        prop_assert_eq!(eliminated + combined + fell_through, visits);
        // Weight conservation: 0·eliminated + 2·combined + 1·fell_through
        // must equal the number of increments handed to the prism.
        prop_assert_eq!(2 * combined + fell_through, visits);
        prop_assert_eq!(eliminated, combined, "pairs are symmetric");
        prop_assert_eq!(prism.pairs(), combined, "pairs() counts each pairing once");
    }

    /// The adaptive counter is exact at quiescence on seeded schedules — no
    /// increment is lost or duplicated by cascade routing — and every
    /// layer's exit wires satisfy the step property.
    #[test]
    fn adaptive_counter_is_exact_at_quiescence_on_virtual_schedules(
        threads in 2usize..9,
        ops_per_worker in 1usize..12,
        raw_width in 0u8..4,
        seed in 0u64..1_000_000,
    ) {
        let width = width_from(raw_width);
        for family in families() {
            let counter = Arc::new(AdaptiveNetworkCounter::new(family, width));
            let run = VirtualExecutor::with_seed(seed).run(threads, {
                let counter = Arc::clone(&counter);
                move |ctx| {
                    for _ in 0..ops_per_worker {
                        counter.increment(ctx);
                    }
                }
            });
            prop_assert_eq!(run.outcome.crashed_count(), 0);
            prop_assert!(!run.trace.truncated);
            prop_assert_eq!(
                counter.peek(),
                (threads * ops_per_worker) as u64,
                "{} max width {}: tokens conserved", family, width
            );
            let mut reader = ProcessCtx::new(ProcessId::new(10_000), 0);
            prop_assert_eq!(
                counter.read(&mut reader),
                counter.peek(),
                "{} max width {}: a charged read skips no touched layer", family, width
            );
            if let Err(violation) = counter.check_step_property() {
                return Err(TestCaseError::fail(format!(
                    "{family} max width {width} seed {seed}: {violation}"
                )));
            }
        }
    }

    /// Recorded mixed workloads against the adaptive counter are
    /// quiescently consistent, exactly like the fixed-width counters it
    /// routes between: contention routing never lets a read that overlaps
    /// no increment drift from the completed count.
    #[test]
    fn adaptive_histories_are_quiescently_consistent(
        threads in 2usize..7,
        seed in 0u64..1_000_000,
        raw_width in 0u8..3,
    ) {
        let width = width_from(raw_width);
        for family in families() {
            let counter = Arc::new(AdaptiveNetworkCounter::new(family, width));
            let recorder: Arc<Recorder<CounterOp, u64>> = Arc::new(Recorder::new());
            let outcome = VirtualExecutor::with_seed(seed).run(threads, {
                let counter = Arc::clone(&counter);
                let recorder = Arc::clone(&recorder);
                move |ctx| {
                    for round in 0..3 {
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
            }).outcome;
            prop_assert_eq!(outcome.crashed_count(), 0);
            // A final quiescent read must be exact by construction.
            let mut quiescent = ProcessCtx::new(ProcessId::new(10_000), 0);
            let invoke = recorder.invoke(quiescent.id(), CounterOp::Read);
            let value = counter.read(&mut quiescent);
            recorder.respond(invoke, value);
            prop_assert_eq!(value, counter.peek());

            let history = recorder.take_history();
            if let Err(violation) = check_quiescent_consistent(&history) {
                return Err(TestCaseError::fail(format!(
                    "{family} max width {width}: {violation}"
                )));
            }
        }
    }
}

/// The concrete §8.1-style counterexample, spelled out once with fixed
/// timestamps so the failure mode is documented even if the proptest above
/// ever shrinks away: width 2, single balancer.
#[test]
fn width_two_counterexample_is_pinned() {
    let counter = NetworkCounter::new(CountingFamily::Bitonic, 2);
    let recorder: Recorder<CounterOp, u64> = Recorder::new();

    // p traverses (toggling the lone balancer towards wire 1) and stalls.
    let mut p = ProcessCtx::new(ProcessId::new(100), 0);
    let p_invoke = recorder.invoke(p.id(), CounterOp::Increment);
    let p_wire = counter.network().traverse(&mut p, 0);
    assert_eq!(p_wire, 0);

    // q completes: exits wire 1, ticket 0·2+1 = 1.
    let mut q = ProcessCtx::new(ProcessId::new(0), 0);
    let q_invoke = recorder.invoke(q.id(), CounterOp::Increment);
    let q_ticket = counter.fetch_increment(&mut q);
    recorder.respond(q_invoke, q_ticket);
    assert_eq!(q_ticket, 1);

    // r starts after q responded and completes: exits wire 0, whose counter
    // p has not bumped — ticket 0·2+0 = 0, an inversion against q.
    let mut r = ProcessCtx::new(ProcessId::new(1), 0);
    let r_invoke = recorder.invoke(r.id(), CounterOp::Increment);
    let r_ticket = counter.fetch_increment(&mut r);
    recorder.respond(r_invoke, r_ticket);
    assert_eq!(r_ticket, 0);

    // p deposits last: ticket 1·2+0 = 2. All three tickets are distinct and
    // complete {0, 1, 2} — counting is intact, order is not.
    let p_ticket = counter.deposit(&mut p, p_wire);
    recorder.respond(p_invoke, p_ticket);
    assert_eq!(p_ticket, 2);

    let history = recorder.take_history();
    assert_eq!(
        check_linearizable(&TicketCounterSpec, &history),
        Err(Violation::NotLinearizable),
        "q's ticket 1 completed before r's ticket 0 was invoked"
    );
    assert_eq!(check_quiescent_consistent(&history), Ok(()));
}

/// The uncertified wirings really do miscount — the refutations that justify
/// `CountingFamily` rejecting them, executed against the same simulator the
/// certification tests use.
#[test]
fn uncertified_wirings_are_refuted_mechanically() {
    use sortnet::family::SortingFamily;

    // Batcher's odd-even merge: 4 tokens suffice at width 4.
    let odd_even = NetworkFamily::OddEven.schedule(4);
    assert!(cnet::sequential_step_property(&*odd_even, &[0, 0, 0, 2]).is_err());

    // One-pass odd-even transposition: 3 tokens suffice at width 4.
    let transposition = NetworkFamily::Transposition.schedule(4);
    assert!(cnet::sequential_step_property(&*transposition, &[0, 0, 0]).is_err());

    // Truncated bitonic (width 6): sorting survives truncation, counting
    // does not.
    let truncated = NetworkFamily::Bitonic.schedule(6);
    assert!(cnet::sequential_step_property(&*truncated, &[0; 12]).is_err());

    // All three remain perfectly good sorting networks.
    for schedule in [odd_even, transposition, truncated] {
        assert!(sortnet::verify::schedule_sorts_exhaustive(&schedule));
    }
}
