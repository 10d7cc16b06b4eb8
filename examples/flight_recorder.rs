//! The flight recorder surviving a crash: forked children record their
//! lease traffic into arena-resident event rings over a `MAP_SHARED`
//! mapping; one child is SIGKILLed mid-lease, and the sweeping parent
//! recovers the dead process's last recorded moments as a postmortem.
//!
//! This is the observability half of the crash-robustness story: the
//! `RobustLeaseTable` sweep reclaims the dead child's *name*
//! (`examples/name_server.rs` shows the lease protocol itself), and the
//! postmortem hook wired into `sweep_dead_processes` dumps the dead
//! child's *events* — what it was doing when it died — from the same
//! shared arena.
//!
//! Run with:
//!
//! ```text
//! cargo run --example flight_recorder
//! ```

#[cfg(all(unix, not(miri)))]
fn main() {
    use adaptive_renaming::robust::RobustLeaseTable;
    use obs::{FlightRecorder, MetricsSlab, Snapshot};
    use shmem::arena::Arena;
    use shmem::process::{ProcessCtx, ProcessId};
    use shmem::procs::{fork_child, kill_child, wait_child, wait_for_clean_exit};
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    let children = 3usize;
    let rounds = 40usize;
    let capacity = 8usize;

    // Everything shared lives in one MAP_SHARED arena, allocated before the
    // forks: the lease table, one event ring per child, one metric stripe
    // per child, and a handshake line.
    let footprint = RobustLeaseTable::footprint(capacity)
        + FlightRecorder::footprint(children, 16)
        + MetricsSlab::footprint(children)
        + 64;
    let arena = Arena::shared(footprint).expect("anonymous MAP_SHARED mapping");
    let table = Arc::new(RobustLeaseTable::with_capacity_in(&arena, capacity));
    let recorder = FlightRecorder::new_in(&arena, children, 16);
    let slab = MetricsSlab::new_in(&arena, children);
    let handshake = arena.alloc::<AtomicU64>();

    let pids: Vec<i32> = (0..children)
        .map(|child| {
            let mut ctx = ProcessCtx::new(ProcessId::new(child), child as u64 + 1);
            fork_child({
                let handshake = handshake.clone();
                let table = Arc::clone(&table);
                let recorder = Arc::clone(&recorder);
                let slab = Arc::clone(&slab);
                move || {
                    // Each child claims its own ring and metric stripe and
                    // binds them as this process's telemetry sinks; the
                    // instrumented acquire/release paths record from here on.
                    let writer = recorder.writer(child);
                    writer.attach_current_process();
                    obs::bind_ring(writer);
                    obs::bind_metrics(slab.writer(child));
                    // Register with the lease table: the returned tag (not
                    // the bare pid) goes into every lease, so the sweep can
                    // tell this incarnation from a later pid-reuse stranger.
                    let registration = table
                        .register_current_process()
                        .expect("the registry admits every child");
                    for round in 0..rounds {
                        let name = table
                            .acquire(&mut ctx, registration.tag())
                            .expect("table sized for all children");
                        // Child 1 crashes mid-lease, halfway through its
                        // rounds: SIGKILL arrives while it spins here, so
                        // its last recorded event is this grant.
                        if child == 1 && round == rounds / 2 {
                            handshake.store(name as u64, Ordering::SeqCst);
                            loop {
                                std::hint::spin_loop();
                            }
                        }
                        table.release(&mut ctx, name);
                    }
                }
            })
        })
        .collect();

    // Wait for the victim to hold a lease, then crash it without warning.
    while handshake.load(Ordering::SeqCst) == 0 {
        std::thread::yield_now();
    }
    let stuck_name = handshake.load(Ordering::SeqCst) as usize;
    let victim = pids[1];
    kill_child(victim);
    assert!(wait_child(victim).killed(), "the victim died of SIGKILL");
    for (child, pid) in pids.into_iter().enumerate() {
        if child != 1 {
            wait_for_clean_exit(pid);
        }
    }

    println!("killed child pid {victim} while it held name {stuck_name}");
    println!(
        "before the sweep: name {stuck_name} is held by pid {:?}, {} lease(s) live\n",
        table.owner_pid(stuck_name),
        adaptive_renaming::lease::LongLivedRenaming::live_leases(&*table),
    );

    // The surviving parent installs the recorder as the postmortem source
    // and sweeps: reclaiming the dead pid's name dumps its ring tail.
    obs::postmortem::install(Arc::clone(&recorder));
    let mut ctx = ProcessCtx::new(ProcessId::new(children), 99);
    let reclaimed = table.sweep_dead_processes(&mut ctx);
    println!("sweep_dead_processes reclaimed {reclaimed} name(s)\n");
    assert_eq!(reclaimed, 1);
    assert_eq!(table.holder(stuck_name), None);

    for report in obs::postmortem::take_reports() {
        println!("{}", report.rendered);
    }

    // The children's escrowed metric stripes merge into one dashboard —
    // including the dead child's, which survives in the shared slab.
    println!("merged telemetry of all {children} children:");
    print!("{}", Snapshot::collect(&slab).dashboard());
}

#[cfg(not(all(unix, not(miri))))]
fn main() {
    eprintln!("flight_recorder requires unix fork semantics (and not miri)");
}
