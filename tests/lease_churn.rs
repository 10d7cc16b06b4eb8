//! Property-based tests of long-lived renaming under churn.
//!
//! Random acquire/release/crash interleavings against a `Recycler` over the
//! compiled renaming network must preserve the long-lived strong renaming
//! guarantees at every instant: no two live leases share a name, and every
//! granted name is bounded by the point contention of its grant. Histories
//! are recorded with logical timestamps and checked offline by
//! `assert_tight_lease_namespace`. The builder-default object, a recycler
//! with a per-thread escrow, is checked for uniqueness, the
//! `max_concurrent` bound and `assert_escrow_lease_namespace` (the escrow
//! deliberately trades away per-grant tightness). The crash-robust
//! `RobustLeaseTable` is held to the same tight checker. Every interleaving
//! comes from a seeded, replayable `vexec` schedule, so no verdict depends
//! on machine load. The free-list properties pin the lock-free bitmap to a
//! sequential sorted-set model op for op, and one concurrent-churn property
//! runs it on real threads.

use proptest::prelude::*;
use shmem::history::Recorder;
use shmem::steps::StepKind;
use std::collections::BTreeSet;
use std::sync::Arc;
use strong_renaming::prelude::*;
use tas::two_process::TwoProcessTas;

/// Runs `k` workers through `rounds` lease/hold/release cycles against the
/// given long-lived object, with optional crash injection, and returns the
/// recorded history. Each cycle is one guarded `lease`, held across one
/// charged step, so an injected crash can strike inside `lease` or while
/// the name is held.
fn churn(
    object: Arc<dyn LongLivedRenaming>,
    k: usize,
    rounds: usize,
    config: ExecConfig,
) -> LeaseHistory {
    let recorder = Arc::new(Recorder::new());
    let _ = VirtualExecutor::new(config).run(k, {
        let object = Arc::clone(&object);
        let recorder = Arc::clone(&recorder);
        move |ctx| {
            for _ in 0..rounds {
                let attempt = recorder.invoke(ctx.id(), LeaseOp::Lease);
                match Arc::clone(&object).lease(ctx) {
                    Ok(lease) => {
                        recorder.respond(attempt, Some(lease.name()));
                        let _held = Held {
                            lease: Some(lease),
                            recorder: &recorder,
                            process: ctx.id(),
                        };
                        ctx.record(StepKind::RegisterRead);
                    }
                    Err(_) => recorder.respond(attempt, None),
                }
            }
        }
    });
    recorder.take_history()
}

/// A granted lease whose release is recorded when it drops: the release is
/// invoked before the name goes back and answered after, except when the
/// process is unwinding from a crash, which leaves `Release(name)` pending.
struct Held<'a> {
    lease: Option<NameLease>,
    recorder: &'a Recorder<LeaseOp, Option<usize>>,
    process: ProcessId,
}

impl Drop for Held<'_> {
    fn drop(&mut self) {
        if let Some(lease) = self.lease.take() {
            let release = self
                .recorder
                .invoke(self.process, LeaseOp::Release(lease.name()));
            drop(lease);
            if !std::thread::panicking() {
                self.recorder.respond(release, None);
            }
        }
    }
}

/// The number of lease attempts in a history.
fn attempts(history: &LeaseHistory) -> usize {
    history.iter().filter(|r| r.op == LeaseOp::Lease).count()
}

/// Checks the guarantees an object without per-grant tightness must still
/// keep: every granted name lies in `1..=bound`, and no two leases hold one
/// name at once. A holder occupies its name from the grant until its
/// release *starts* (an escrow push lands inside the release window, so any
/// later grant of the same name is stamped after it).
fn assert_unique_and_bounded(history: &LeaseHistory, bound: usize) -> Result<(), String> {
    for name in history.iter().filter_map(|r| r.result().copied().flatten()) {
        if !(1..=bound).contains(&name) {
            return Err(format!("name {name} outside 1..={bound}"));
        }
    }
    assert_unique_lease_names(history)
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 10,
        .. ProptestConfig::default()
    })]

    /// Recycled leases over the compiled renaming network: under random
    /// interleavings, live names are distinct at every instant and bounded
    /// by the point contention of their grant.
    #[test]
    fn recycled_network_leases_stay_unique_and_tight(
        k in 2usize..8,
        rounds in 1usize..8,
        seed in 0u64..1_000_000,
    ) {
        let recycler = Arc::new(Recycler::new(
            RenamingNetwork::<TwoProcessTas>::new(sortnet::batcher::odd_even_network(64)),
            2 * k,
        ));
        let history = churn(
            Arc::clone(&recycler) as Arc<dyn LongLivedRenaming>,
            k,
            rounds,
            ExecConfig::new(seed),
        );

        prop_assert_eq!(attempts(&history), k * rounds);
        let check = assert_tight_lease_namespace(&history);
        prop_assert!(check.is_ok(), "{check:?}");
        // Quiescent invariants: everything released, nothing leaked, and the
        // one-shot namespace consumed only in proportion to concurrency.
        prop_assert_eq!(recycler.live_leases(), 0);
        prop_assert_eq!(recycler.leaked_names(), 0);
        prop_assert!(recycler.fresh_names() <= k);
    }

    /// The same guarantees must survive crash injection: a crash inside the
    /// acquisition leaves a pending lease that counts toward contention
    /// forever, and no interleaving ever yields duplicate live names.
    #[test]
    fn recycled_network_leases_survive_crashes(
        k in 2usize..8,
        rounds in 1usize..6,
        seed in 0u64..1_000_000,
        crash_percent in 10u8..60,
    ) {
        let recycler = Arc::new(Recycler::new(
            RenamingNetwork::<TwoProcessTas>::new(sortnet::batcher::odd_even_network(64)),
            2 * k,
        ));
        let config = ExecConfig::new(seed).with_crash_plan(CrashPlan::Random {
            prob: f64::from(crash_percent) / 100.0,
            max_steps: 40,
        });
        let history = churn(Arc::clone(&recycler) as Arc<dyn LongLivedRenaming>, k, rounds, config);

        let check = assert_tight_lease_namespace(&history);
        prop_assert!(check.is_ok(), "{check:?}");
        prop_assert_eq!(recycler.leaked_names(), 0);
        prop_assert!(recycler.fresh_names() <= 2 * k);
    }

    /// The builder's long-lived surface composes the same way over the other
    /// strong adaptive backends.
    #[test]
    fn builder_long_lived_objects_stay_tight(
        k in 2usize..6,
        rounds in 1usize..5,
        seed in 0u64..1_000_000,
        algorithm in 0u8..3,
    ) {
        let builder = match algorithm % 3 {
            0 => RenamingBuilder::new().network().capacity(32),
            1 => RenamingBuilder::new().adaptive().adaptive_level(3),
            _ => RenamingBuilder::new().linear_probe().capacity(32),
        };
        // .escrow_quota(0) builds the bare recycler without the default
        // escrow: only it guarantees per-grant tightness (the escrowed
        // default is covered by the unique-and-bounded test below and by
        // the seeded escrow-bound test at the end of this file).
        let object = builder
            .max_concurrent(2 * k)
            .escrow_quota(0)
            .build_long_lived()
            .unwrap();
        let history = churn(object, k, rounds, ExecConfig::new(seed));
        let check = assert_tight_lease_namespace(&history);
        prop_assert!(check.is_ok(), "{check:?}");
    }

    /// The builder's *default* long-lived object parks releases in a
    /// per-thread escrow, which deliberately gives up per-grant
    /// tightness. What it must still guarantee, at every instant and under
    /// random interleavings: no two simultaneously-held leases share a
    /// name, every name stays within `1..=max_concurrent`, and the live
    /// accounting returns to zero at quiescence.
    #[test]
    fn batched_default_leases_stay_unique_and_bounded(
        k in 2usize..8,
        rounds in 1usize..8,
        seed in 0u64..1_000_000,
    ) {
        let object = RenamingBuilder::new()
            .network()
            .capacity(64)
            .max_concurrent(2 * k)
            .build_long_lived()
            .unwrap();
        let history = churn(Arc::clone(&object), k, rounds, ExecConfig::new(seed));

        prop_assert_eq!(attempts(&history), k * rounds);
        let check = assert_unique_and_bounded(&history, 2 * k);
        prop_assert!(check.is_ok(), "{check:?}");
        prop_assert_eq!(object.live_leases(), 0);
    }

    /// The free list is pinned to a sequential pop-min model (a sorted set
    /// of the free names): a random push/pop/pop_coherent interleaving,
    /// replayed deterministically against both, must produce identical push
    /// verdicts, pop-minimum results and coherent-miss verdicts at every
    /// step.
    #[test]
    fn free_list_agrees_with_a_sorted_set_on_random_scripts(
        bound in 1usize..5000,
        ops in 1usize..400,
        seed in 0u64..1_000_000,
    ) {
        let list = FreeList::new(bound);
        let mut model = BTreeSet::new();
        let mut pushes = 0;
        prop_assert_eq!(list.word_count(), bound.div_ceil(64));
        let mut state = seed.wrapping_mul(2).wrapping_add(1);
        let mut step = move || {
            // SplitMix64: a deterministic op stream from the sampled seed.
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        for index in 0..ops {
            let draw = step();
            // Pushes dominate so the lists fill; names deliberately overshoot
            // the bound a little to exercise the rejection path.
            match draw % 4 {
                0 | 1 => {
                    let name = (step() % (bound as u64 + 2)) as usize;
                    let accepted = (1..=bound).contains(&name) && model.insert(name);
                    pushes += usize::from(accepted);
                    prop_assert_eq!(
                        list.push(name),
                        accepted,
                        "op {}: push({}) verdicts diverge", index, name
                    );
                }
                2 => prop_assert_eq!(list.pop(), model.pop_first(), "op {}: pop", index),
                _ => prop_assert_eq!(
                    list.pop_coherent(),
                    model.pop_first(),
                    "op {}: pop_coherent", index
                ),
            }
        }
        // Drain both: remaining contents are identical, in identical order.
        loop {
            let (a, b) = (list.pop_coherent(), model.pop_first());
            prop_assert_eq!(a, b, "drain diverges");
            if a.is_none() {
                break;
            }
        }
        prop_assert_eq!(list.pushes(), pushes);
    }

    /// Concurrent conservation churn: every popped name is pushed back, so
    /// after real threads churn the list it must hold exactly the initial
    /// name set — no coherent miss may ever swallow a name.
    #[test]
    fn free_list_conserves_names_under_concurrent_churn(
        bound in 64usize..4096,
        threads in 2usize..5,
        names in 1usize..16,
        iterations in 100usize..2000,
        seed in 0u64..1_000_000,
    ) {
        let expected: Vec<usize> = (0..names.min(bound))
            .map(|i| (seed as usize).wrapping_mul(31).wrapping_add(i * 97) % bound + 1)
            .collect::<BTreeSet<_>>()
            .into_iter()
            .collect();
        let list = Arc::new(FreeList::new(bound));
        for &name in &expected {
            prop_assert!(list.push(name));
        }
        std::thread::scope(|scope| {
            for _ in 0..threads {
                let list = Arc::clone(&list);
                scope.spawn(move || {
                    for _ in 0..iterations {
                        if let Some(name) = list.pop_coherent() {
                            assert!(list.push(name), "claimed names push back cleanly");
                        }
                    }
                });
            }
        });
        let mut drained = Vec::new();
        while let Some(name) = list.pop_coherent() {
            drained.push(name);
        }
        prop_assert_eq!(&drained, &expected, "lost or invented names");
    }
}

/// Crash injection reaches lease holders: process 0 crashes at each of its
/// first 40 steps in turn. Some of those crashes land on the hold step and
/// leave a pending release; every history still passes the tight lease
/// checker, and the unwinding guard returns the name, so nothing leaks.
#[test]
fn crashes_strike_lease_holders_and_the_history_stays_tight() {
    let mut struck = 0;
    for step in 1..=40 {
        let recycler = Arc::new(Recycler::new(
            RenamingNetwork::<TwoProcessTas>::new(sortnet::batcher::odd_even_network(64)),
            4,
        ));
        let config = ExecConfig::new(7).with_crash_plan(CrashPlan::Fixed(vec![Some(step)]));
        let history = churn(
            Arc::clone(&recycler) as Arc<dyn LongLivedRenaming>,
            2,
            3,
            config,
        );
        assert_tight_lease_namespace(&history)
            .unwrap_or_else(|violation| panic!("crash at step {step}: {violation}"));
        assert_eq!(recycler.leaked_names(), 0, "crash at step {step}");
        struck += history
            .iter()
            .filter(|r| matches!(r.op, LeaseOp::Release(_)) && r.response.is_none())
            .count();
    }
    assert!(struck > 0, "no crash struck a lease holder");
}

/// The crash-robust lease table pops the minimum free name, so it is held
/// to the tight long-lived bound: three processes churn acquire/release on
/// seeded virtual-executor schedules (replayable, independent of machine
/// load), and every history must pass `assert_tight_lease_namespace`.
#[test]
fn robust_table_leases_stay_tight_on_seeded_schedules() {
    use adaptive_renaming::robust::RobustLeaseTable;
    use shmem::vexec::VirtualExecutor;

    const PROCS: usize = 3;
    const ROUNDS: usize = 4;
    for capacity in [PROCS, 8] {
        for seed in 0..48u64 {
            let table = Arc::new(RobustLeaseTable::with_capacity(capacity));
            let recorder = Arc::new(Recorder::new());
            let run = VirtualExecutor::with_seed(seed).run(PROCS, {
                let (table, recorder) = (Arc::clone(&table), Arc::clone(&recorder));
                move |ctx| {
                    let tag = ctx.id().as_u64() as u32 + 1;
                    for _ in 0..ROUNDS {
                        let lease = recorder.invoke(ctx.id(), LeaseOp::Lease);
                        let name = table
                            .acquire(ctx, tag)
                            .expect("the capacity covers every process");
                        recorder.respond(lease, Some(name));
                        let release = recorder.invoke(ctx.id(), LeaseOp::Release(name));
                        assert!(table.release(ctx, name), "nobody else frees it");
                        recorder.respond(release, None);
                    }
                }
            });
            assert_eq!(run.outcome.completed().count(), PROCS, "seed {seed}");
            let history = recorder.take_history();
            assert_tight_lease_namespace(&history).unwrap_or_else(|violation| {
                panic!("capacity {capacity}, seed {seed}: {violation}")
            });
            assert_eq!(table.live_leases(), 0);
            assert_eq!(table.transitions(), PROCS * ROUNDS, "exactly once");
            assert_eq!(table.listed(), capacity, "every name back on the list");
        }
    }
}

/// The builder-default object's escrow bound: three processes churn on
/// seeded virtual-executor schedules, each leasing bursts of up to six
/// names and releasing them, and every history must pass
/// `assert_escrow_lease_namespace` with slack `P·q` (each process uses at
/// most one escrow slot). Bursts larger than `q` make slots spill. The
/// concurrency bound of 12 is below the 18 names the bursts can hold at
/// once, so leases are rejected, and admission also counts parked names, so
/// the steal sweep runs. Every reject must be genuine: a process step runs
/// atomically under `vexec`, so the attempts open at the reject's
/// timestamp are the contention admission saw, and they must exceed the
/// bound.
#[test]
fn escrow_default_leases_stay_within_the_escrow_bound_on_seeded_schedules() {
    use shmem::vexec::VirtualExecutor;

    const PROCS: usize = 3;
    const MAX_CONCURRENT: usize = 12;
    const BURSTS: [usize; 4] = [2, 6, 1, 5];
    for quota in [2, 8] {
        for seed in 0..32u64 {
            let object = RenamingBuilder::new()
                .max_concurrent(MAX_CONCURRENT)
                .escrow_quota(quota)
                .build_long_lived()
                .unwrap();
            let recorder = Arc::new(Recorder::new());
            let run = VirtualExecutor::with_seed(seed).run(PROCS, {
                let (object, recorder) = (Arc::clone(&object), Arc::clone(&recorder));
                move |ctx| {
                    for burst in BURSTS {
                        let mut held = Vec::new();
                        for _ in 0..burst {
                            let lease = recorder.invoke(ctx.id(), LeaseOp::Lease);
                            let name = object.lease_raw(ctx).ok();
                            recorder.respond(lease, name);
                            held.extend(name);
                        }
                        for name in held {
                            let release = recorder.invoke(ctx.id(), LeaseOp::Release(name));
                            object.release_with(ctx, name);
                            recorder.respond(release, None);
                        }
                    }
                }
            });
            assert_eq!(run.outcome.completed().count(), PROCS, "seed {seed}");
            let history = recorder.take_history();
            assert_escrow_lease_namespace(&history, PROCS * quota)
                .unwrap_or_else(|violation| panic!("quota {quota}, seed {seed}: {violation}"));
            // Every response without a name ends one attempt's contention:
            // a reject's own, or a release's.
            let ended_before = |at: u64| {
                history
                    .iter()
                    .filter_map(|r| r.response.as_ref())
                    .filter(|response| response.result.is_none() && response.at < at)
                    .count()
            };
            let rejects = history
                .iter()
                .filter(|r| r.op == LeaseOp::Lease && r.result() == Some(&None));
            for reject in rejects {
                let at = reject.response.as_ref().expect("a reject responded").at;
                let requested = history
                    .iter()
                    .filter(|r| r.op == LeaseOp::Lease && r.invoke < at)
                    .count();
                let open = requested - ended_before(at);
                assert!(
                    open > MAX_CONCURRENT,
                    "quota {quota}, seed {seed}: spurious reject at t={at} with {open} attempts open"
                );
            }
            assert_eq!(object.live_leases(), 0, "quota {quota}, seed {seed}");
        }
    }
}
