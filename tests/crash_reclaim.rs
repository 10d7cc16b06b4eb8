//! Cross-process crash tests over the `MAP_SHARED` arena backend.
//!
//! These tests `fork(2)` real child processes against an anonymous shared
//! mapping ([`Arena::shared`]) and verify the two cross-process claims of the
//! shared-memory substrate:
//!
//! * **Visibility** — atomic words allocated in a shared arena are the same
//!   physical memory in every forked process; the views allocation returns
//!   (`ArenaRef`, compiled network wiring, lease-table slot vectors) are
//!   inherited by value with the mapping at the same address, so they keep
//!   pointing into the shared region.
//! * **Crash-robust reclamation** — a child SIGKILLed mid-lease leaves its
//!   slot `HELD(pid)`; the surviving parent's
//!   [`RobustLeaseTable::sweep_dead_processes`] probes the pid, reclaims the
//!   name, and the namespace stays tight.
//!
//! The fork discipline (allocate everything before the fork; children touch
//! only atomics on the shared mapping and then `_exit`) is enforced by the
//! [`shmem::procs`] helpers these tests are built on.

#![cfg(all(unix, not(miri)))]

use adaptive_renaming::lease::LongLivedRenaming;
use adaptive_renaming::robust::RobustLeaseTable;
use shmem::arena::{os_process_alive, Arena, ArenaBackend};
use shmem::process::{ProcessCtx, ProcessId};
use shmem::procs::{fork_child, kill_child, wait_child, wait_for_clean_exit};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

#[test]
fn shared_arena_words_are_visible_across_fork() {
    let arena = Arena::shared(1 << 12).expect("anonymous MAP_SHARED mapping");
    assert_eq!(arena.backend(), ArenaBackend::Shared);
    let word = arena.alloc::<AtomicU64>();

    let pid = fork_child({
        let word = word.clone();
        move || {
            word.store(0xC0FFEE, Ordering::SeqCst);
        }
    });
    wait_for_clean_exit(pid);
    assert_eq!(
        word.load(Ordering::SeqCst),
        0xC0FFEE,
        "a child's store through the shared mapping must be visible here"
    );
}

#[test]
fn forked_incrementers_share_one_arena_counter() {
    // Several children hammer one shared word; the total must be exact —
    // the mapping is genuinely shared, not copy-on-write.
    let arena = Arena::shared(1 << 12).expect("anonymous MAP_SHARED mapping");
    let word = arena.alloc::<AtomicU64>();
    let (children, increments) = (4, 1000u64);

    let pids: Vec<i32> = (0..children)
        .map(|_| {
            fork_child({
                let word = word.clone();
                move || {
                    for _ in 0..increments {
                        word.fetch_add(1, Ordering::SeqCst);
                    }
                }
            })
        })
        .collect();
    for pid in pids {
        wait_for_clean_exit(pid);
    }
    assert_eq!(word.load(Ordering::SeqCst), children as u64 * increments);
}

#[test]
fn forked_clean_churn_of_the_robust_table_stays_tight() {
    // Every child registers, then acquires and releases in a loop with its
    // registration tag as the owner stamp. With one name per process, the
    // table's pop-min keeps every grant within the process count; after
    // clean exits nothing is held and every release was one transition.
    let (processes, rounds) = (4usize, 500usize);
    let arena = Arena::shared(RobustLeaseTable::footprint(processes) + (processes + 1) * 64)
        .expect("anonymous MAP_SHARED mapping");
    let table = Arc::new(RobustLeaseTable::with_capacity_in(&arena, processes));
    // One word per child: the largest name it was granted.
    let reports = arena.alloc_slice::<AtomicU64>(processes);

    let pids: Vec<i32> = (0..processes)
        .map(|child| {
            // Pre-fork context (fork discipline: the child only touches
            // atomics on the shared mapping).
            let mut ctx = ProcessCtx::new(ProcessId::new(child), child as u64);
            let (table, reports) = (Arc::clone(&table), reports.clone());
            fork_child(move || {
                let registration = table
                    .register_current_process()
                    .expect("the registry admits every child");
                let mut worst = 0usize;
                for _ in 0..rounds {
                    let name = table
                        .acquire(&mut ctx, registration.tag())
                        .expect("the capacity equals the process count");
                    worst = worst.max(name);
                    assert!(table.release(&mut ctx, name), "nobody else frees it");
                }
                reports[child].store(worst as u64, Ordering::SeqCst);
            })
        })
        .collect();
    for pid in pids {
        wait_for_clean_exit(pid);
    }
    for (child, report) in reports.iter().enumerate() {
        let worst = report.load(Ordering::SeqCst) as usize;
        assert!(
            (1..=processes).contains(&worst),
            "child {child}: largest name {worst} outside 1..={processes}"
        );
    }
    assert_eq!(table.live_leases(), 0);
    assert_eq!(table.transitions(), processes * rounds);
}

#[test]
fn crashed_leaseholder_names_are_reclaimed_by_a_sweep() {
    let arena =
        Arena::shared(RobustLeaseTable::footprint(4) + 64).expect("anonymous MAP_SHARED mapping");
    let table = Arc::new(RobustLeaseTable::with_capacity_in(&arena, 4));
    // Handshake word: the child publishes its granted name here so the
    // parent knows the lease is held before delivering SIGKILL.
    let handshake = arena.alloc::<AtomicU64>();
    // Pre-fork context for the child (fork discipline: no post-fork
    // allocation — the context, the table handle and the arena all exist
    // before the fork and are inherited by value).
    let mut child_ctx = ProcessCtx::new(ProcessId::new(1), 7);

    let pid = fork_child({
        let handshake = handshake.clone();
        let table = Arc::clone(&table);
        move || {
            // Registration is the child's first act on the shared table:
            // the returned tag (registry slot + start-generation) is what
            // gets stamped into the lease, so the sweeping parent can
            // prove this incarnation dead even if the OS recycles the pid.
            let registration = table
                .register_current_process()
                .expect("the registry admits the child");
            let name = table
                .acquire(&mut child_ctx, registration.tag())
                .expect("an empty table has free names");
            handshake.store(name as u64, Ordering::SeqCst);
            // Hold the lease until the parent kills us: the crash leaves the
            // slot HELD with our registration tag stamped as owner.
            loop {
                std::hint::spin_loop();
            }
        }
    });

    // Wait for the lease, then crash the holder without warning.
    while handshake.load(Ordering::SeqCst) == 0 {
        std::thread::yield_now();
    }
    let name = handshake.load(Ordering::SeqCst) as usize;
    kill_child(pid);
    assert!(
        wait_child(pid).killed(),
        "the child must have died of SIGKILL, not exited"
    );

    // The crash is now observable: the slot is held by a dead pid.
    let mut ctx = ProcessCtx::new(ProcessId::new(0), 3);
    assert!(!os_process_alive(pid as u32), "the reaped child is gone");
    assert_eq!(
        table.owner_pid(name),
        Some(pid as u32),
        "the held slot's tag resolves to the dead child's pid"
    );
    assert_eq!(
        table.live_leases(),
        1,
        "the crashed lease still counts as live"
    );

    // The surviving process sweeps and gets the name back.
    assert_eq!(table.sweep_dead_processes(&mut ctx), 1);
    assert_eq!(table.holder(name), None);
    assert_eq!(table.live_leases(), 0);
    let parent = table
        .register_current_process()
        .expect("the registry admits the parent");
    assert_eq!(
        table.acquire(&mut ctx, parent.tag()).unwrap(),
        name,
        "the reclaimed minimum is granted again — the namespace stays tight"
    );
    // A second sweep finds nothing: the reclamation was exactly-once.
    assert_eq!(table.sweep_dead_processes(&mut ctx), 0);
    assert_eq!(table.transitions(), 1);
}

#[test]
fn a_crashed_leaseholders_flight_recorder_tail_survives_the_sweep() {
    // The observability variant of the reclamation test: the child records
    // its lease events into an arena-resident flight-recorder ring; after
    // SIGKILL the sweeping parent recovers the dead child's last events —
    // including the grant of the very lease the sweep reclaims.
    use obs::{EventKind, FlightRecorder};

    let footprint = RobustLeaseTable::footprint(4) + FlightRecorder::footprint(2, 8) + 64;
    let arena = Arena::shared(footprint).expect("anonymous MAP_SHARED mapping");
    let table = Arc::new(RobustLeaseTable::with_capacity_in(&arena, 4));
    let recorder = FlightRecorder::new_in(&arena, 2, 8);
    let handshake = arena.alloc::<AtomicU64>();
    let mut child_ctx = ProcessCtx::new(ProcessId::new(1), 7);

    let pid = fork_child({
        let handshake = handshake.clone();
        let table = Arc::clone(&table);
        let recorder = Arc::clone(&recorder);
        move || {
            // The child claims ring 1, registers its pid on it, and binds it
            // as this process's event sink: the robust table's acquire path
            // logs LeaseGranted into shared memory from here on.
            let writer = recorder.writer(1);
            writer.attach_current_process();
            obs::bind_ring(writer);
            let registration = table
                .register_current_process()
                .expect("the registry admits the child");
            let name = table
                .acquire(&mut child_ctx, registration.tag())
                .expect("an empty table has free names");
            handshake.store(name as u64, Ordering::SeqCst);
            loop {
                std::hint::spin_loop();
            }
        }
    });

    while handshake.load(Ordering::SeqCst) == 0 {
        std::thread::yield_now();
    }
    let name = handshake.load(Ordering::SeqCst) as usize;
    kill_child(pid);
    assert!(wait_child(pid).killed());

    // The dead child's ring is findable by pid and its tail is readable
    // even though the writer died without any shutdown handshake.
    assert_eq!(recorder.find_ring(pid as u32), Some(1));

    // The sweeping parent installs the recorder as the postmortem source;
    // reclaiming the dead pid's name dumps its tail.
    obs::postmortem::install(Arc::clone(&recorder));
    let mut ctx = ProcessCtx::new(ProcessId::new(0), 3);
    assert_eq!(table.sweep_dead_processes(&mut ctx), 1);
    obs::postmortem::uninstall();

    let reports = obs::postmortem::take_reports();
    assert_eq!(reports.len(), 1, "one dead pid, one postmortem");
    let report = &reports[0];
    assert_eq!(report.pid, pid as u32);
    assert_eq!(report.ring, 1);
    let last_lease = report
        .events
        .iter()
        .rev()
        .find(|event| event.kind == EventKind::LeaseGranted)
        .expect("the dead child's last lease event is in the recovered tail");
    assert_eq!(
        last_lease.name, name as u64,
        "the recovered grant names the lease the sweep reclaimed"
    );
    assert!(
        last_lease.payload >= 1 << 24,
        "stamped with the dead child's registration tag"
    );
    assert!(
        report.rendered.contains("LeaseGranted"),
        "{}",
        report.rendered
    );
}

#[test]
fn forked_clients_drive_a_shared_network_counter() {
    use cnet::counter::NetworkCounter;
    use cnet::family::CountingFamily;
    use cnet::verify::has_step_property;

    // Width 4, and width 16: the widest network a 16-way fleet provisions.
    for width in [4, 16] {
        let family = CountingFamily::Bitonic;
        let arena =
            Arena::shared(NetworkCounter::footprint(family, width)).expect("MAP_SHARED mapping");
        let counter = Arc::new(NetworkCounter::new_in(family, width, &arena));
        let (children, increments) = (4usize, 200u64);

        let pids: Vec<i32> = (0..children)
            .map(|child| {
                // Pre-fork context, as above.
                let mut ctx = ProcessCtx::new(ProcessId::new(child), child as u64);
                fork_child({
                    let counter = Arc::clone(&counter);
                    move || {
                        for _ in 0..increments {
                            counter.increment(&mut ctx);
                        }
                    }
                })
            })
            .collect();
        for pid in pids {
            wait_for_clean_exit(pid);
        }
        // Quiescent: every child token is accounted for, and the exit counts
        // satisfy the counting network's step property.
        assert_eq!(
            counter.peek(),
            children as u64 * increments,
            "width {width}"
        );
        assert!(
            has_step_property(&counter.exit_counts()),
            "width {width}: exit counts {:?} violate the step property",
            counter.exit_counts()
        );
    }
}
