//! Property-based tests of long-lived renaming under churn.
//!
//! Random acquire/release/crash interleavings against a `Recycler` over the
//! compiled renaming network must preserve the long-lived strong renaming
//! guarantees at every instant: no two live leases share a name, and every
//! granted name is bounded by the point contention of its grant. Histories
//! are recorded with logical timestamps and checked offline by
//! `assert_tight_lease_namespace`. The sharded variants run the same churn
//! against a `ShardedRecycler` and check the relaxed guarantee with
//! `assert_loose_lease_namespace`; the builder-default `BatchedRecycler`
//! variant checks uniqueness and the `max_concurrent` bound (batching
//! deliberately trades away per-grant tightness); the free-list properties
//! pin the lock-free bitmap to a sequential sorted-set model op for op. The
//! crash-robust `RobustLeaseTable` churns on seeded, replayable `vexec`
//! schedules and is held to the same tight checker.

use parking_lot::Mutex;
use proptest::prelude::*;
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use strong_renaming::prelude::*;

/// Shared instrumentation: a logical clock and the records under
/// construction.
struct Journal {
    clock: AtomicU64,
    records: Mutex<Vec<LeaseRecord>>,
}

impl Journal {
    fn new() -> Self {
        Journal {
            clock: AtomicU64::new(0),
            records: Mutex::new(Vec::new()),
        }
    }

    fn now(&self) -> u64 {
        self.clock.fetch_add(1, Ordering::AcqRel)
    }

    /// Opens a record at request time; returns its index.
    fn open(&self) -> usize {
        let requested_at = self.now();
        let mut records = self.records.lock();
        records.push(LeaseRecord {
            requested_at,
            ..Default::default()
        });
        records.len() - 1
    }

    fn grant(&self, index: usize, name: usize) {
        let at = self.now();
        let mut records = self.records.lock();
        records[index].name = Some(name);
        records[index].granted_at = Some(at);
    }

    /// A failed (but not crashed) attempt stops counting toward contention.
    fn fail(&self, index: usize) {
        let at = self.now();
        self.records.lock()[index].release_finished_at = Some(at);
    }
}

/// Holds a lease together with its journal record, stamping the release
/// boundaries even when dropped by a crash unwind.
struct RecordedLease {
    lease: Option<NameLease>,
    journal: Arc<Journal>,
    index: usize,
}

impl Drop for RecordedLease {
    fn drop(&mut self) {
        let started = self.journal.now();
        self.journal.records.lock()[self.index].release_started_at = Some(started);
        drop(self.lease.take());
        let finished = self.journal.now();
        self.journal.records.lock()[self.index].release_finished_at = Some(finished);
    }
}

/// Runs `k` workers through `rounds` lease/hold/release cycles against the
/// given long-lived object, with optional crash injection, and returns the
/// recorded history.
fn churn(
    object: Arc<dyn LongLivedRenaming>,
    k: usize,
    rounds: usize,
    config: ExecConfig,
) -> Vec<LeaseRecord> {
    let journal = Arc::new(Journal::new());
    let _ = Executor::new(config).run(k, {
        let object = Arc::clone(&object);
        let journal = Arc::clone(&journal);
        move |ctx| {
            for _ in 0..rounds {
                let index = journal.open();
                match Arc::clone(&object).lease(ctx) {
                    Ok(lease) => {
                        journal.grant(index, lease.name());
                        let holder = RecordedLease {
                            lease: Some(lease),
                            journal: Arc::clone(&journal),
                            index,
                        };
                        // Hold the name across a few steps so leases overlap
                        // (and so crash injection can strike mid-hold; the
                        // unwind then drops `holder`, which journals the
                        // release the recycler performs).
                        ctx.flip();
                        drop(holder);
                    }
                    Err(_) => journal.fail(index),
                }
            }
        }
    });
    Arc::try_unwrap(journal)
        .ok()
        .expect("all workers joined")
        .records
        .into_inner()
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
        yield_percent in 0u8..40,
    ) {
        let recycler = Arc::new(Recycler::new(
            RenamingNetwork::<_>::new(sortnet::batcher::odd_even_network(64)),
            2 * k,
        ));
        let config = ExecConfig::new(seed)
            .with_yield_policy(YieldPolicy::Probabilistic(f64::from(yield_percent) / 100.0))
            .with_arrival(ArrivalSchedule::Simultaneous);
        let records = churn(Arc::clone(&recycler) as Arc<dyn LongLivedRenaming>, k, rounds, config);

        prop_assert_eq!(records.len(), k * rounds);
        let check = assert_tight_lease_namespace(&records);
        prop_assert!(check.is_ok(), "{check:?}");
        // Quiescent invariants: everything released, nothing leaked, and the
        // one-shot namespace consumed only in proportion to concurrency.
        prop_assert_eq!(recycler.live_leases(), 0);
        prop_assert_eq!(recycler.leaked_names(), 0);
        prop_assert!(recycler.fresh_names() <= k);
    }

    /// The same guarantees must survive crash injection: a crashed holder's
    /// lease is released by the unwind, a crash inside the acquisition keeps
    /// counting toward contention forever, and no interleaving ever yields
    /// duplicate live names.
    #[test]
    fn recycled_network_leases_survive_crashes(
        k in 2usize..8,
        rounds in 1usize..6,
        seed in 0u64..1_000_000,
        crash_percent in 10u8..60,
    ) {
        let recycler = Arc::new(Recycler::new(
            RenamingNetwork::<_>::new(sortnet::batcher::odd_even_network(64)),
            2 * k,
        ));
        let config = ExecConfig::new(seed).with_crash_plan(CrashPlan::Random {
            prob: f64::from(crash_percent) / 100.0,
            max_steps: 40,
        });
        let records = churn(Arc::clone(&recycler) as Arc<dyn LongLivedRenaming>, k, rounds, config);

        let check = assert_tight_lease_namespace(&records);
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
        // .lease_batch(1) bypasses the default release-batching stash: only
        // the bare recycler guarantees per-grant tightness (the batched
        // default is covered by the unique-and-bounded test below).
        let object = builder
            .max_concurrent(2 * k)
            .lease_batch(1)
            .seed(seed)
            .build_long_lived()
            .unwrap();
        let records = churn(object, k, rounds, ExecConfig::new(seed));
        let check = assert_tight_lease_namespace(&records);
        prop_assert!(check.is_ok(), "{check:?}");
    }

    /// The builder's *default* long-lived object batches releases through a
    /// `BatchedRecycler` stash, which deliberately gives up per-grant
    /// tightness. What it must still guarantee, at every instant and under
    /// random interleavings: no two simultaneously-held leases share a
    /// name, every name stays within `1..=max_concurrent`, and the live
    /// accounting returns to zero at quiescence.
    #[test]
    fn batched_default_leases_stay_unique_and_bounded(
        k in 2usize..8,
        rounds in 1usize..8,
        seed in 0u64..1_000_000,
        yield_percent in 0u8..40,
    ) {
        let object = RenamingBuilder::new()
            .network()
            .capacity(64)
            .max_concurrent(2 * k)
            .seed(seed)
            .build_long_lived()
            .unwrap();
        let config = ExecConfig::new(seed)
            .with_yield_policy(YieldPolicy::Probabilistic(f64::from(yield_percent) / 100.0))
            .with_arrival(ArrivalSchedule::Simultaneous);
        let records = churn(Arc::clone(&object), k, rounds, config);

        prop_assert_eq!(records.len(), k * rounds);
        for (i, a) in records.iter().enumerate() {
            let (Some(name_a), Some(start_a)) = (a.name, a.granted_at) else { continue };
            prop_assert!(
                (1..=2 * k).contains(&name_a),
                "name {} above max_concurrent {}", name_a, 2 * k
            );
            // A holder occupies its name from the grant until its release
            // *starts* (the stash push lands inside the release window, so
            // any later grant of the same name is stamped after it).
            for b in &records[i + 1..] {
                let (Some(name_b), Some(start_b)) = (b.name, b.granted_at) else { continue };
                if name_a != name_b {
                    continue;
                }
                let end_a = a.release_started_at.unwrap_or(u64::MAX);
                let end_b = b.release_started_at.unwrap_or(u64::MAX);
                prop_assert!(
                    end_a <= start_b || end_b <= start_a,
                    "name {} held twice at once", name_a
                );
            }
        }
        prop_assert_eq!(object.live_leases(), 0);
    }

    /// Sharded leases under random interleavings: per-shard localized names
    /// stay unique and tight against shard contention — the documented
    /// loose bound `namespace ≤ shards × per-shard point contention`.
    #[test]
    fn sharded_recycler_leases_stay_unique_and_loose(
        k in 2usize..8,
        shards in 2usize..5,
        rounds in 1usize..8,
        seed in 0u64..1_000_000,
        yield_percent in 0u8..40,
    ) {
        let sharded = Arc::new(ShardedRecycler::new(
            (0..shards)
                .map(|_| RenamingNetwork::<_>::new(sortnet::batcher::odd_even_network(16)))
                .collect(),
            2 * k, // every shard could absorb the whole load via stealing
        ));
        let span = sharded.span();
        let config = ExecConfig::new(seed)
            .with_yield_policy(YieldPolicy::Probabilistic(f64::from(yield_percent) / 100.0))
            .with_arrival(ArrivalSchedule::Simultaneous);
        let records = churn(
            Arc::clone(&sharded) as Arc<dyn LongLivedRenaming>,
            k,
            rounds,
            config,
        );

        prop_assert_eq!(records.len(), k * rounds);
        let check = assert_loose_lease_namespace(&records, shards, span);
        prop_assert!(check.is_ok(), "{check:?}");
        prop_assert_eq!(sharded.live_leases(), 0);
        prop_assert_eq!(sharded.leaked_names(), 0);
        prop_assert!(sharded.fresh_names() <= k * rounds);
    }

    /// The loose guarantees survive crash injection exactly as the tight
    /// ones do: a crashed holder's lease is released by the unwind
    /// (re-entering its home shard's free list), a crash inside the
    /// acquisition keeps counting toward contention forever, and no
    /// interleaving yields duplicate live names in any shard.
    #[test]
    fn sharded_recycler_leases_survive_crashes(
        k in 2usize..8,
        shards in 2usize..5,
        rounds in 1usize..6,
        seed in 0u64..1_000_000,
        crash_percent in 10u8..60,
    ) {
        let sharded = Arc::new(ShardedRecycler::new(
            (0..shards)
                .map(|_| RenamingNetwork::<_>::new(sortnet::batcher::odd_even_network(16)))
                .collect(),
            2 * k,
        ));
        let span = sharded.span();
        let config = ExecConfig::new(seed).with_crash_plan(CrashPlan::Random {
            prob: f64::from(crash_percent) / 100.0,
            max_steps: 40,
        });
        let records = churn(
            Arc::clone(&sharded) as Arc<dyn LongLivedRenaming>,
            k,
            rounds,
            config,
        );

        let check = assert_loose_lease_namespace(&records, shards, span);
        prop_assert!(check.is_ok(), "{check:?}");
        prop_assert_eq!(sharded.leaked_names(), 0);
    }

    /// A dead home shard must not wedge stealers. A process that crashes
    /// inside an acquisition burns one of its home shard's admission slots
    /// forever; with per-shard admission this small, a couple of crashes
    /// wall off entire shards. The guarantee under test: a single fresh
    /// late-arriver can still collect *every* admission the crashes left
    /// behind — the overflow sweep walks past wedged shards instead of
    /// giving up at its home — and the namespace stays loose-tight
    /// throughout.
    #[test]
    fn dead_home_shards_do_not_wedge_stealers(
        k in 2usize..8,
        shards in 2usize..5,
        per_shard in 1usize..3,
        rounds in 1usize..5,
        seed in 0u64..1_000_000,
        crash_percent in 20u8..70,
    ) {
        let sharded = Arc::new(ShardedRecycler::new(
            (0..shards)
                .map(|_| RenamingNetwork::<_>::new(sortnet::batcher::odd_even_network(16)))
                .collect(),
            per_shard, // tiny: stealing is the common path, one crash wedges a shard
        ));
        let span = sharded.span();
        let config = ExecConfig::new(seed).with_crash_plan(CrashPlan::Random {
            prob: f64::from(crash_percent) / 100.0,
            max_steps: 30,
        });
        let records = churn(
            Arc::clone(&sharded) as Arc<dyn LongLivedRenaming>,
            k,
            rounds,
            config,
        );
        let check = assert_loose_lease_namespace(&records, shards, span);
        prop_assert!(check.is_ok(), "{check:?}");
        prop_assert_eq!(sharded.leaked_names(), 0);

        // Only admissions burned by mid-acquisition crashes stay live (a
        // crashed *holder*'s lease is released by its unwind).
        let burned = sharded.live_leases();
        let total = shards * per_shard;
        prop_assert!(burned <= total, "{burned} burned > {total} admissions");

        // The late arriver: home shard 0, which the crashes may have wedged
        // entirely. Every unburned admission anywhere must still be
        // stealable, the granted names globally distinct, and the first
        // failure after that must be plain exhaustion.
        let mut ctx = ProcessCtx::new(ProcessId::new(0), seed);
        let mut survivors = Vec::new();
        for _ in 0..total - burned {
            match Arc::clone(&sharded).lease(&mut ctx) {
                Ok(lease) => survivors.push(lease),
                Err(error) => prop_assert!(
                    false,
                    "sweep wedged with {} of {} admissions free: {error}",
                    total - burned - survivors.len(),
                    total
                ),
            }
        }
        let names: std::collections::BTreeSet<usize> =
            survivors.iter().map(|lease| lease.name()).collect();
        prop_assert_eq!(names.len(), survivors.len(), "duplicate live names");
        prop_assert!(
            Arc::clone(&sharded).lease(&mut ctx).is_err(),
            "lease granted beyond the admission bound"
        );
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
            let journal = Arc::new(Journal::new());
            let run = VirtualExecutor::with_seed(seed).run(PROCS, {
                let (table, journal) = (Arc::clone(&table), Arc::clone(&journal));
                move |ctx| {
                    let tag = ctx.id().as_u64() as u32 + 1;
                    for _ in 0..ROUNDS {
                        let index = journal.open();
                        let name = table
                            .acquire(ctx, tag)
                            .expect("the capacity covers every process");
                        journal.grant(index, name);
                        let started = journal.now();
                        journal.records.lock()[index].release_started_at = Some(started);
                        assert!(table.release(ctx, name), "nobody else frees it");
                        let finished = journal.now();
                        journal.records.lock()[index].release_finished_at = Some(finished);
                    }
                }
            });
            assert_eq!(run.outcome.completed().count(), PROCS, "seed {seed}");
            let records = journal.records.lock().clone();
            assert_tight_lease_namespace(&records).unwrap_or_else(|violation| {
                panic!("capacity {capacity}, seed {seed}: {violation}")
            });
            assert_eq!(table.live_leases(), 0);
            assert_eq!(table.transitions(), PROCS * ROUNDS, "exactly once");
            assert_eq!(table.listed(), capacity, "every name back on the list");
        }
    }
}
