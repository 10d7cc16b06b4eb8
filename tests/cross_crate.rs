//! Cross-crate integration tests: the paper's objects assembled end to end,
//! exercised on seeded virtual-executor schedules, with their correctness
//! conditions checked by the history-based checkers.

use adaptive_renaming::fetch_increment::FetchIncrementSpec;
use adaptive_renaming::ltas::BoundedTasSpec;
use shmem::consistency::{
    check_linearizable, check_monotone_consistent, CounterOp, CounterSpec, Violation,
};
use shmem::history::{History, OpRecord, Recorder};
use std::sync::Arc;
use strong_renaming::prelude::*;

#[test]
fn adaptive_renaming_handles_bursts_of_mixed_arrival_times() {
    for (seed, k) in [(1u64, 4usize), (2, 9), (3, 16), (4, 25)] {
        let renaming = <dyn Renaming>::builder()
            .build()
            .expect("valid configuration");
        let outcome = VirtualExecutor::with_seed(seed)
            .run(k, {
                let renaming = renaming.clone();
                move |ctx| renaming.acquire(ctx).unwrap()
            })
            .outcome;
        assert_tight_namespace(&outcome.results())
            .unwrap_or_else(|e| panic!("k={k}, seed={seed}: {e}"));
    }
}

#[test]
fn counter_histories_with_crashes_stay_monotone_consistent() {
    for seed in 0..4u64 {
        let counter = Arc::new(MonotoneCounter::new());
        let recorder: Arc<Recorder<CounterOp, u64>> = Arc::new(Recorder::new());
        let k = 10usize;
        let config = ExecConfig::new(seed).with_crash_plan(CrashPlan::Random {
            prob: 0.25,
            max_steps: 80,
        });
        let _ = VirtualExecutor::new(config).run(k, {
            let counter = Arc::clone(&counter);
            let recorder = Arc::clone(&recorder);
            move |ctx| {
                for round in 0..3 {
                    if (ctx.id().as_usize() + round) % 3 == 0 {
                        let invoke = recorder.invoke(ctx.id(), CounterOp::Read);
                        let value = counter.read(ctx);
                        recorder.respond(invoke, value);
                    } else {
                        // An increment whose process crashes before it
                        // returns stays pending in the history.
                        let invoke = recorder.invoke(ctx.id(), CounterOp::Increment);
                        counter.increment(ctx);
                        recorder.respond(invoke, 0);
                    }
                }
            }
        });
        let history = recorder.take_history();
        check_monotone_consistent(&history)
            .unwrap_or_else(|violation| panic!("seed {seed}: {violation}"));
    }
}

#[test]
fn paper_counterexample_history_is_monotone_but_not_linearizable() {
    // Experiment E9: the §8.1 schedule — p3's increment is pending, p2
    // completes with name 2, p1 later completes with name 1, and two reads
    // straddling p1's increment both return 2.
    let (p, increment, read) = (ProcessId::new, CounterOp::Increment, CounterOp::Read);
    let history = History::new(vec![
        OpRecord::pending(p(3), increment, 1),
        OpRecord::completed(p(2), increment, 0, 2, 3),
        OpRecord::completed(p(9), read, 2, 4, 5),
        OpRecord::completed(p(1), increment, 0, 6, 7),
        OpRecord::completed(p(9), read, 2, 8, 9),
    ]);
    assert_eq!(check_monotone_consistent(&history), Ok(()));
    assert_eq!(
        check_linearizable(&CounterSpec, &history),
        Err(Violation::NotLinearizable)
    );
}

#[test]
fn bounded_tas_histories_remain_linearizable_under_crashes() {
    for seed in 0..4u64 {
        let limit = 3usize;
        let ltas = Arc::new(BoundedTas::new(limit));
        let recorder: Arc<Recorder<(), bool>> = Arc::new(Recorder::new());
        let config = ExecConfig::new(seed).with_crash_plan(CrashPlan::Random {
            prob: 0.2,
            max_steps: 60,
        });
        let _ = VirtualExecutor::new(config).run(9, {
            let ltas = Arc::clone(&ltas);
            let recorder = Arc::clone(&recorder);
            move |ctx| {
                let invoke = recorder.invoke(ctx.id(), ());
                let won = ltas.invoke(ctx);
                recorder.respond(invoke, won);
            }
        });
        // A crashed invocation never responds, but it may already have won
        // a slot: the checker completes it (it won, lost, or never took
        // effect) rather than dropping it.
        let spec = BoundedTasSpec {
            limit: limit as u64,
        };
        check_linearizable(&spec, &recorder.take_history())
            .unwrap_or_else(|violation| panic!("seed {seed}: {violation}"));
    }
}

#[test]
fn fetch_and_increment_under_heavy_yielding_is_linearizable() {
    for seed in 0..3u64 {
        let limit = 32u64;
        let object = Arc::new(BoundedFetchIncrement::new(limit));
        let recorder: Arc<Recorder<(), u64>> = Arc::new(Recorder::new());
        let outcome = VirtualExecutor::with_seed(seed)
            .run(10, {
                let object = Arc::clone(&object);
                let recorder = Arc::clone(&recorder);
                move |ctx| {
                    let invoke = recorder.invoke(ctx.id(), ());
                    let value = object.fetch_and_increment(ctx);
                    recorder.respond(invoke, value);
                    value
                }
            })
            .outcome;
        assert_eq!(
            outcome.results_sorted(),
            (0..10u64).collect::<Vec<_>>(),
            "seed {seed}"
        );
        let history = recorder.take_history();
        check_linearizable(&FetchIncrementSpec { limit }, &history)
            .unwrap_or_else(|violation| panic!("seed {seed}: {violation}"));
    }
}

#[test]
fn renaming_network_and_adaptive_renaming_agree_on_tightness_for_shared_ids() {
    // The same scattered identifier set processed by both §5 (bounded network)
    // and §6 (adaptive) renaming gives a tight namespace both ways.
    let ids: Vec<ProcessId> = [3usize, 17, 64, 131, 255]
        .iter()
        .copied()
        .map(ProcessId::new)
        .collect();

    let bounded: Arc<RenamingNetwork> = Arc::new(RenamingNetwork::new(
        sortnet::batcher::odd_even_network(256),
    ));
    let outcome = VirtualExecutor::with_seed(31)
        .run_with_ids(&ids, {
            let bounded = Arc::clone(&bounded);
            move |ctx| bounded.acquire(ctx).unwrap()
        })
        .outcome;
    assert_tight_namespace(&outcome.results()).unwrap();

    let adaptive = <dyn Renaming>::builder()
        .build()
        .expect("valid configuration");
    let outcome = VirtualExecutor::with_seed(31)
        .run_with_ids(&ids, {
            let adaptive = adaptive.clone();
            move |ctx| adaptive.acquire(ctx).unwrap()
        })
        .outcome;
    assert_tight_namespace(&outcome.results()).unwrap();
}

#[test]
fn counters_agree_with_the_fetch_and_add_baseline_at_quiescence() {
    let increments_per_process = 3usize;
    let k = 8usize;

    let monotone = Arc::new(MonotoneCounter::new());
    let baseline = Arc::new(CasCounter::new());
    let _ = VirtualExecutor::with_seed(13).run(k, {
        let monotone = Arc::clone(&monotone);
        let baseline = Arc::clone(&baseline);
        move |ctx| {
            for _ in 0..increments_per_process {
                monotone.increment(ctx);
                baseline.increment(ctx);
            }
        }
    });
    let mut ctx = ProcessCtx::new(ProcessId::new(999), 0);
    assert_eq!(monotone.read(&mut ctx), (k * increments_per_process) as u64);
    assert_eq!(baseline.read(&mut ctx), (k * increments_per_process) as u64);
}
