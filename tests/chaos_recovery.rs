//! Recovery idempotence and epoch-arbitration properties.
//!
//! The restart-recovery scan ([`adaptive_renaming::recovery`]) promises
//! `recover ∘ recover = recover`: running it again — at a later epoch, or
//! raced from a second fresh attacher at the *same* epoch — must not
//! change the observable lease state ([`RobustLeaseTable::state_snapshot`],
//! which includes the table's own free list) or the words of the free lists
//! passed in. These tests pin that over randomized crash states (live and
//! dead owners, torn pops and frees of the table's free list, torn
//! free-list pushes) and over a real two-thread race for the epoch CAS.

use adaptive_renaming::free_list::FreeList;
use adaptive_renaming::lease::LongLivedRenaming;
use adaptive_renaming::recovery::{recover_with, RecoveryReport};
use adaptive_renaming::robust::RobustLeaseTable;
use proptest::prelude::*;
use shmem::process::{ProcessCtx, ProcessId};
use std::sync::Arc;

fn ctx(id: usize, seed: u64) -> ProcessCtx {
    ProcessCtx::new(ProcessId::new(id), seed)
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 48,
        .. ProptestConfig::default()
    })]

    /// Random crash states: some owners dead, some alive, some names torn
    /// off the table's free list (a pop with no claim, a free with no
    /// push), a free-list push torn (data bit with no summary flag). One recovery repairs everything it
    /// can prove; a second recovery at the next epoch does zero work and
    /// leaves the observable state byte-identical; a replay at an
    /// already-claimed epoch loses the arbitration without touching
    /// anything.
    #[test]
    fn recovery_is_idempotent_over_random_crash_states(
        capacity in 2usize..12,
        owners in 1usize..4,
        seed in 0u64..1_000_000,
        dead_mask in 0u32..256,
        release_mask in 0u32..256,
        torn_pops in 0usize..3,
        torn_frees in 0usize..3,
        torn_push in 1usize..64,
        presume in 0u8..2,
    ) {
        let table = RobustLeaseTable::with_capacity(capacity);
        let free = FreeList::new(64);
        let mut driver = ctx(0, seed);

        let registrations: Vec<_> = (0..owners)
            .map(|index| table.register_process(1000 + index as u32).unwrap())
            .collect();
        let mut held = Vec::new();
        for index in 0..capacity {
            let registration = &registrations[index % owners];
            match table.acquire(&mut driver, registration.tag()) {
                Ok(name) => held.push(name),
                Err(_) => break,
            }
        }
        for (index, &name) in held.iter().enumerate() {
            if release_mask >> (index % 8) & 1 == 1 {
                table.release(&mut driver, name);
            }
        }
        // Kills between a release's CAS and its push, and between an
        // acquire's pop and its claim: free slots whose list bit is clear.
        for &name in held.iter().take(torn_frees) {
            table.inject_torn_free(&mut driver, name);
        }
        for _ in 0..torn_pops {
            table.inject_torn_pop(&mut driver);
        }
        let tore_push = free.inject_torn_push(torn_push);
        prop_assert!(tore_push, "data bit should set cleanly on an empty list");

        let is_dead = |pid: u32| dead_mask >> (pid - 1000) & 1 == 1;
        let presume_all_dead = presume == 1;
        let first = recover_with(&mut driver, &table, &[&free], 1, is_dead, presume_all_dead);
        prop_assert!(first.won);
        if tore_push {
            prop_assert!(first.summary_repairs >= 1, "torn push not re-flagged");
        }

        let snapshot = table.state_snapshot();
        let free_words = free.snapshot_words();

        let second = recover_with(&mut driver, &table, &[&free], 2, is_dead, presume_all_dead);
        prop_assert!(second.won);
        prop_assert_eq!(second.reclaimed, 0, "second recovery re-reclaimed");
        prop_assert_eq!(table.state_snapshot(), snapshot.clone());
        prop_assert_eq!(free.snapshot_words(), free_words.clone());

        let replay = recover_with(&mut driver, &table, &[&free], 2, is_dead, presume_all_dead);
        prop_assert!(!replay.won, "an already-claimed epoch was re-won");
        prop_assert_eq!(replay.reclaimed, 0);
        prop_assert_eq!(table.state_snapshot(), snapshot);
        prop_assert_eq!(free.snapshot_words(), free_words);

        // After a whole-fleet restart nothing is lost: every name is
        // grantable again, lowest first.
        if presume_all_dead {
            let regranted: Vec<usize> = (0..capacity)
                .map_while(|_| table.acquire(&mut driver, 9).ok())
                .collect();
            prop_assert_eq!(regranted, (1..=capacity).collect::<Vec<_>>());
        }
    }
}

/// A kill between `acquire`'s pop and its slot CAS (a torn pop) or between
/// a release's CAS and its push (a torn free) leaves a free slot whose
/// free-list bit is clear: the name is lost to acquirers. A whole-fleet
/// restart recovery re-lists both, and every name is grantable again.
#[test]
fn restart_recovery_relists_torn_pops_and_torn_frees() {
    let capacity = 8;
    let table = RobustLeaseTable::with_capacity(capacity);
    let mut driver = ctx(0, 7);
    let tag = table.register_process(4242).unwrap().tag();
    for expected in 1..=4 {
        assert_eq!(table.acquire(&mut driver, tag).unwrap(), expected);
    }
    assert!(table.inject_torn_free(&mut driver, 2), "name 2 was held");
    assert!(!table.inject_torn_free(&mut driver, 2), "and is free now");
    assert_eq!(table.inject_torn_pop(&mut driver), Some(5));
    assert_eq!(table.holder(2), None);
    assert_eq!(table.holder(5), None);
    assert_eq!(table.listed(), 3, "only 6..=8 are still listed");

    // A recovery that presumes survivors cannot tell a torn pop from a
    // live acquirer between its pop and its claim: it leaves both alone.
    let survivors = recover_with(&mut driver, &table, &[], 1, |_| false, false);
    assert!(survivors.won);
    assert_eq!((survivors.reclaimed, survivors.relisted), (0, 0));
    assert_eq!(table.listed(), 3);

    // The restart signature licenses the re-listing.
    let restart = recover_with(&mut driver, &table, &[], 2, |_| true, true);
    assert!(restart.won);
    assert_eq!(restart.reclaimed, 3, "names 1, 3 and 4 had a dead owner");
    assert_eq!(restart.relisted, 2, "names 2 and 5 were off the list");
    assert_eq!(table.listed(), capacity);

    let again = recover_with(&mut driver, &table, &[], 3, |_| true, true);
    assert_eq!((again.reclaimed, again.relisted), (0, 0), "idempotent");

    let regranted: Vec<usize> = (0..capacity)
        .map(|_| table.acquire(&mut driver, tag).unwrap())
        .collect();
    assert_eq!(regranted, (1..=capacity).collect::<Vec<_>>());
    assert!(table.acquire(&mut driver, tag).is_err(), "exactly full");
}

/// Two fresh attachers racing `recover_with` at the *same* epoch (the
/// restart race: both read the same attach epoch from the arena header)
/// serialize through the epoch CAS: exactly one runs the scan, every dead
/// lease is reclaimed exactly once, and the loser touches nothing.
#[test]
fn racing_fresh_attachers_serialize_to_one_recovery() {
    for round in 0..64u64 {
        let table = Arc::new(RobustLeaseTable::with_capacity(8));
        let registration = table.register_process(4242).unwrap();
        let mut driver = ctx(0, round);
        for _ in 0..8 {
            table.acquire(&mut driver, registration.tag()).unwrap();
        }
        let free = FreeList::new(16);

        let reports: Vec<RecoveryReport> = std::thread::scope(|scope| {
            let handles: Vec<_> = (1..=2)
                .map(|id| {
                    let table = Arc::clone(&table);
                    let free = &free;
                    scope.spawn(move || {
                        let mut attacher = ctx(id, round ^ id as u64);
                        recover_with(&mut attacher, &table, &[free], 1, |_| true, true)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|handle| handle.join().expect("attacher panicked"))
                .collect()
        });

        let winners = reports.iter().filter(|report| report.won).count();
        assert_eq!(
            winners, 1,
            "round {round}: epoch won {winners} times: {reports:?}"
        );
        let reclaimed: usize = reports.iter().map(|report| report.reclaimed).sum();
        assert_eq!(
            reclaimed, 8,
            "round {round}: dead leases reclaimed {reclaimed} times"
        );
        assert_eq!(
            table.live_leases(),
            0,
            "round {round}: leases survived recovery"
        );
    }
}
