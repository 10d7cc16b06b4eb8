//! Event counting across the three counter backends.
//!
//! Producer processes record events by incrementing a shared counter; a
//! monitor process periodically reads it. The same workload runs against
//! every backend of the `<dyn Counter>::builder()` facade:
//!
//! * `monotone` — the paper's §8.1 renaming + max-register counter
//!   (monotone-consistent, register-model-only),
//! * `network`  — the `cnet` counting-network counter (quiescently
//!   consistent, contention spread over a bitonic balancing network),
//! * `adaptive` — a cascade of widths 1, 4, …, `width` (a fetch-and-add
//!   word, then counting networks), routed by the realized contention its
//!   own exit-wire tickets reveal (quiescently consistent; a quiet
//!   increment is a sensor read and one fetch-add),
//! * `fetch_add` — the hardware fetch-and-add baseline (linearizable, one
//!   hot cache line).
//!
//! Each run records the full operation history, verifies the backend's
//! consistency guarantee (Lemma 4 monotone consistency for the renaming
//! counter, quiescent consistency for the network counter — the
//! fetch-and-add baseline satisfies both), and prints a cost comparison in
//! the step model. Every run is a seeded virtual schedule, so the output is
//! the same on every host and every run.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example event_counter
//! ```

use shmem::consistency::{check_monotone_consistent, check_quiescent_consistent, CounterOp};
use shmem::history::Recorder;
use std::sync::Arc;
use strong_renaming::prelude::*;

const PRODUCERS: usize = 8;
const EVENTS_PER_PRODUCER: usize = 4;

struct RunReport {
    backend: CounterBackend,
    max_steps: u64,
    total_steps: u64,
    balancer_toggles: u64,
    verdict: &'static str,
}

fn run_backend(backend: CounterBackend) -> RunReport {
    let counter = <dyn Counter>::builder()
        .backend(backend)
        .width(PRODUCERS.next_power_of_two())
        .build()
        .expect("every backend builds");
    let recorder: Arc<Recorder<CounterOp, u64>> = Arc::new(Recorder::new());

    // Producers increment; the last process acts as a read-only monitor.
    let outcome = VirtualExecutor::new(ExecConfig::new(7))
        .run(PRODUCERS + 1, {
            let counter = Arc::clone(&counter);
            let recorder = Arc::clone(&recorder);
            move |ctx| {
                if ctx.id().as_usize() == PRODUCERS {
                    for _ in 0..2 * EVENTS_PER_PRODUCER {
                        let invoke = recorder.invoke(ctx.id(), CounterOp::Read);
                        let value = counter.read(ctx);
                        recorder.respond(invoke, value);
                    }
                } else {
                    for _ in 0..EVENTS_PER_PRODUCER {
                        let invoke = recorder.invoke(ctx.id(), CounterOp::Increment);
                        counter.increment(ctx);
                        recorder.respond(invoke, 0);
                    }
                }
            }
        })
        .outcome;

    let expected = (PRODUCERS * EVENTS_PER_PRODUCER) as u64;
    let mut quiescent = ProcessCtx::new(ProcessId::new(10_000), 0);
    assert_eq!(
        counter.read(&mut quiescent),
        expected,
        "{backend:?}: the quiescent count must be exact"
    );

    // Verify the guarantee each backend actually makes. The linearizable
    // fetch-and-add baseline satisfies both weaker notions.
    let history = recorder.take_history();
    let verdict = match backend {
        CounterBackend::Monotone => {
            check_monotone_consistent(&history)
                .unwrap_or_else(|violation| panic!("monotone-consistency violation: {violation}"));
            "monotone-consistent (Lemma 4)"
        }
        CounterBackend::Network => {
            check_quiescent_consistent(&history)
                .unwrap_or_else(|violation| panic!("quiescent-consistency violation: {violation}"));
            "quiescently consistent"
        }
        CounterBackend::Adaptive => {
            check_quiescent_consistent(&history)
                .unwrap_or_else(|violation| panic!("quiescent-consistency violation: {violation}"));
            "quiescently consistent"
        }
        CounterBackend::FetchAdd => {
            check_monotone_consistent(&history)
                .unwrap_or_else(|violation| panic!("monotone-consistency violation: {violation}"));
            check_quiescent_consistent(&history)
                .unwrap_or_else(|violation| panic!("quiescent-consistency violation: {violation}"));
            "linearizable (⇒ both)"
        }
    };

    let summary = outcome.step_summary();
    let totals = outcome.total_steps();
    RunReport {
        backend,
        max_steps: summary.max_register_steps,
        total_steps: summary.total_register_steps,
        balancer_toggles: totals.balancer_toggles,
        verdict,
    }
}

fn main() {
    let expected = PRODUCERS * EVENTS_PER_PRODUCER;
    println!(
        "{PRODUCERS} producers record {expected} events under each counter backend \
         (plus one monitor reading throughout):\n"
    );

    let reports: Vec<RunReport> = [
        CounterBackend::Monotone,
        CounterBackend::Network,
        CounterBackend::Adaptive,
        CounterBackend::FetchAdd,
    ]
    .into_iter()
    .map(run_backend)
    .collect();

    println!(
        "{:<10} {:>16} {:>13} {:>9}  consistency",
        "backend", "max steps/proc", "total steps", "toggles"
    );
    for report in &reports {
        let name = match report.backend {
            CounterBackend::Monotone => "monotone",
            CounterBackend::Network => "network",
            CounterBackend::Adaptive => "adaptive",
            CounterBackend::FetchAdd => "fetch_add",
        };
        println!(
            "{:<10} {:>16} {:>13} {:>9}  {}",
            name, report.max_steps, report.total_steps, report.balancer_toggles, report.verdict
        );
    }

    println!(
        "\nThe network counter trades the monotone counter's register-step budget for \
         {} balancer toggles spread across a width-{} bitonic network; the adaptive \
         counter routes each increment through the narrowest layer covering the \
         contention its exit-wire tickets reveal, a single fetch-and-add word when quiet \
         ({} toggles); the fetch-and-add baseline \
         is a single hot word outside the paper's register-only model.",
        reports[1].balancer_toggles,
        PRODUCERS.next_power_of_two(),
        reports[2].balancer_toggles,
    );
}
