//! Property-based tests of the renaming objects' safety guarantees.
//!
//! These properties hold in *every* execution, so they are exercised across
//! randomized contention levels on seeded `VirtualExecutor` schedules, whose
//! verdicts are a pure function of the inputs and cannot depend on load.

use proptest::prelude::*;
use std::sync::Arc;
use strong_renaming::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 12,
        .. ProptestConfig::default()
    })]

    /// Adaptive strong renaming returns exactly the names 1..=k, for any
    /// contention level and seeded schedule.
    #[test]
    fn adaptive_renaming_namespace_is_always_tight(
        k in 1usize..10,
        seed in 0u64..1_000_000,
    ) {
        let renaming = <dyn Renaming>::builder().build().expect("valid configuration");
        let outcome = VirtualExecutor::with_seed(seed).run(k, {
            let renaming = renaming.clone();
            move |ctx| renaming.acquire(ctx).expect("adaptive renaming never fails")
        }).outcome;
        prop_assert!(assert_tight_namespace(&outcome.results()).is_ok());
    }

    /// The renaming network over a fixed sorting network is tight for any
    /// subset of input ports.
    #[test]
    fn renaming_network_namespace_is_always_tight(
        seed in 0u64..1_000_000,
        ports in proptest::collection::btree_set(0usize..32, 1..10),
    ) {
        let network: Arc<RenamingNetwork> =
            Arc::new(RenamingNetwork::new(sortnet::batcher::odd_even_network(32)));
        let ids: Vec<ProcessId> = ports.iter().copied().map(ProcessId::new).collect();
        let outcome = VirtualExecutor::with_seed(seed).run_with_ids(&ids, {
            let network = Arc::clone(&network);
            move |ctx| network.acquire(ctx).expect("ports fit the namespace")
        }).outcome;
        prop_assert!(assert_tight_namespace(&outcome.results()).is_ok());
    }

    /// BitBatching hands out unique names within 1..=n whenever at most n
    /// processes participate, and the namespace is exactly 1..=n under full
    /// load.
    #[test]
    fn bit_batching_names_are_unique_and_in_range(
        k in 1usize..12,
        seed in 0u64..1_000_000,
    ) {
        let n = 16usize;
        let renaming = RenamingBuilder::new()
            .bit_batching()
            .capacity(n)
            .build()
            .expect("valid configuration");
        let outcome = VirtualExecutor::with_seed(seed).run(k, {
            let renaming = renaming.clone();
            move |ctx| renaming.acquire(ctx).expect("k <= n")
        }).outcome;
        let names = outcome.results();
        prop_assert!(assert_unique_names(&names).is_ok());
        prop_assert!(names.iter().all(|&name| (1..=n).contains(&name)));
    }

    /// The ℓ-test-and-set admits exactly min(ℓ, k) winners.
    #[test]
    fn bounded_tas_has_exactly_limit_winners(
        k in 1usize..13,
        limit in 1usize..9,
        seed in 0u64..1_000_000,
    ) {
        let ltas = Arc::new(BoundedTas::new(limit));
        let outcome = VirtualExecutor::with_seed(seed).run(k, {
            let ltas = Arc::clone(&ltas);
            move |ctx| ltas.invoke(ctx)
        }).outcome;
        let winners = outcome.results().into_iter().filter(|w| *w).count();
        prop_assert_eq!(winners, limit.min(k));
    }

    /// The m-valued fetch-and-increment returns 0..k-1 when k ≤ m processes
    /// each perform one operation.
    #[test]
    fn fetch_and_increment_values_are_consecutive(
        k in 1usize..10,
        seed in 0u64..1_000_000,
    ) {
        let object = Arc::new(BoundedFetchIncrement::new(32));
        let outcome = VirtualExecutor::with_seed(seed).run(k, {
            let object = Arc::clone(&object);
            move |ctx| object.fetch_and_increment(ctx)
        }).outcome;
        let mut values = outcome.results();
        values.sort_unstable();
        prop_assert_eq!(values, (0..k as u64).collect::<Vec<_>>());
    }
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 8,
        .. ProptestConfig::default()
    })]

    /// Crash faults never violate uniqueness, and survivors' names stay
    /// bounded by the number of participants.
    #[test]
    fn adaptive_renaming_is_safe_under_crashes(
        k in 2usize..10,
        seed in 0u64..1_000_000,
        crash_percent in 10u8..60,
    ) {
        let renaming = <dyn Renaming>::builder().build().expect("valid configuration");
        let exec_config = ExecConfig::new(seed).with_crash_plan(CrashPlan::Random {
            prob: f64::from(crash_percent) / 100.0,
            max_steps: 50,
        });
        let outcome = VirtualExecutor::new(exec_config).run(k, {
            let renaming = renaming.clone();
            move |ctx| renaming.acquire(ctx).expect("adaptive renaming never fails")
        }).outcome;
        let names = outcome.results();
        prop_assert!(assert_unique_names(&names).is_ok());
        prop_assert!(names.iter().all(|&name| name <= k));
    }
}
