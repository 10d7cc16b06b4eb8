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
        let pending: Arc<parking_lot::Mutex<Vec<u64>>> =
            Arc::new(parking_lot::Mutex::new(Vec::new()));
        let k = 10usize;
        let config = ExecConfig::new(seed).with_crash_plan(CrashPlan::Random {
            prob: 0.25,
            max_steps: 80,
        });
        let _ = VirtualExecutor::new(config).run(k, {
            let counter = Arc::clone(&counter);
            let recorder = Arc::clone(&recorder);
            let pending = Arc::clone(&pending);
            move |ctx| {
                for round in 0..3 {
                    if (ctx.id().as_usize() + round) % 3 == 0 {
                        let invoke = recorder.invoke();
                        let value = counter.read(ctx);
                        recorder.record(ctx.id(), CounterOp::Read, value, invoke);
                    } else {
                        let invoke = recorder.invoke();
                        // Record the increment as pending before starting it:
                        // if the process crashes mid-increment the checker
                        // still knows the operation had begun.
                        pending.lock().push(invoke);
                        counter.increment(ctx);
                        pending.lock().retain(|&p| p != invoke);
                        recorder.record(ctx.id(), CounterOp::Increment, 0, invoke);
                    }
                }
            }
        });
        let history = recorder.take_history();
        let pending_invokes = pending.lock().clone();
        check_monotone_consistent(&history, &pending_invokes)
            .unwrap_or_else(|violation| panic!("seed {seed}: {violation}"));
    }
}

#[test]
fn paper_counterexample_history_is_monotone_but_not_linearizable() {
    // Experiment E9: the §8.1 schedule — p3's increment is pending, p2
    // completes with name 2, p1 later completes with name 1, and two reads
    // straddling p1's increment both return 2.
    fn op(
        process: usize,
        op: CounterOp,
        result: u64,
        invoke: u64,
        response: u64,
    ) -> OpRecord<CounterOp, u64> {
        OpRecord {
            process: ProcessId::new(process),
            op,
            result,
            invoke,
            response,
        }
    }
    let history = History::new(vec![
        op(2, CounterOp::Increment, 0, 2, 3),
        op(9, CounterOp::Read, 2, 4, 5),
        op(1, CounterOp::Increment, 0, 6, 7),
        op(9, CounterOp::Read, 2, 8, 9),
    ]);
    let pending_p3 = [1u64];
    assert_eq!(check_monotone_consistent(&history, &pending_p3), Ok(()));
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
        let invoked: Arc<parking_lot::Mutex<Vec<(ProcessId, u64)>>> =
            Arc::new(parking_lot::Mutex::new(Vec::new()));
        let config = ExecConfig::new(seed).with_crash_plan(CrashPlan::Random {
            prob: 0.2,
            max_steps: 60,
        });
        let _ = VirtualExecutor::new(config).run(9, {
            let ltas = Arc::clone(&ltas);
            let recorder = Arc::clone(&recorder);
            let invoked = Arc::clone(&invoked);
            move |ctx| {
                let invoke = recorder.invoke();
                invoked.lock().push((ctx.id(), invoke));
                let won = ltas.invoke(ctx);
                recorder.record(ctx.id(), (), won, invoke);
            }
        });
        // A crashed invocation never responds, but it may already have won
        // a slot, so dropping it can make a correct history look
        // non-linearizable. Herlihy–Wing completion: the history is
        // linearizable if completing some subset of the crashed invocations
        // as wins that respond after every recorded event (and dropping the
        // rest) linearizes.
        let completed = recorder.take_history().into_records();
        let crashed: Vec<(ProcessId, u64)> = invoked
            .lock()
            .iter()
            .copied()
            .filter(|&(_, invoke)| completed.iter().all(|op| op.invoke != invoke))
            .collect();
        let end = recorder.invoke();
        let spec = BoundedTasSpec {
            limit: limit as u64,
        };
        let linearizable = (0..1u32 << crashed.len()).any(|took_effect| {
            let winners = crashed
                .iter()
                .enumerate()
                .filter(|&(index, _)| took_effect & (1 << index) != 0)
                .map(|(_, &(process, invoke))| OpRecord {
                    process,
                    op: (),
                    result: true,
                    invoke,
                    response: end,
                });
            let history = History::new(completed.iter().cloned().chain(winners).collect());
            check_linearizable(&spec, &history).is_ok()
        });
        assert!(
            linearizable,
            "seed {seed}: no completion of {} crashed invocations linearizes",
            crashed.len()
        );
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
                    let invoke = recorder.invoke();
                    let value = object.fetch_and_increment(ctx);
                    recorder.record(ctx.id(), (), value, invoke);
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

    let bounded: Arc<RenamingNetwork<_>> = Arc::new(RenamingNetwork::new(
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
