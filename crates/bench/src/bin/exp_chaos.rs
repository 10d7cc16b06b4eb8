//! Chaos harness: seeded kill-storm → restart → recover → verify cycles
//! over a file-backed (named) arena.
//!
//! Each cycle creates a named arena on disk, forks a fleet of children
//! that attach-by-inheritance and churn a `RobustLeaseTable` while
//! recording into arena-resident flight-recorder rings, then drives a
//! deterministic `FaultPlan` against them: SIGKILL at randomized
//! operation indices, SIGSTOP/SIGCONT stalls (with a mid-stall sweep
//! proving a *stalled* process's leases survive — slow is not dead), and
//! torn-write injection (names popped off the table's free list and never
//! claimed, free-list data bits with no summary flag; a lease slot cannot
//! tear, since its claim is one CAS). The storm then kills whatever is
//! left, the parent re-attaches **by path** as a fresh restart, runs
//! `recover`, and verifies:
//!
//! * the recovery wins its attach epoch and reports the arena dirty;
//! * every dead child's flight-recorder tail is recovered as a postmortem;
//! * after recovery the namespace is exactly whole again — no lost names,
//!   no duplicates (`assert_tight_namespace` over a full re-grant);
//! * torn free-list pushes are findable again after summary repair;
//! * a second recovery at a later epoch changes nothing
//!   (`RobustLeaseTable::state_snapshot` byte-identical).
//!
//! Modes: `--smoke` runs 50 fixed seeds (CI), the default runs 200.
//! Any violation prints the seed and exits nonzero.

#[cfg(all(unix, not(miri)))]
mod harness {
    use adaptive_renaming::free_list::FreeList;
    use adaptive_renaming::recovery::{recover, recover_with};
    use adaptive_renaming::robust::RobustLeaseTable;
    use adaptive_renaming::traits::assert_tight_namespace;
    use obs::FlightRecorder;
    use shmem::adversary::{ChildFault, FaultAction, FaultPlan};
    use shmem::arena::{os_process_alive, Arena};
    use shmem::process::{ProcessCtx, ProcessId};
    use shmem::procs::{fork_child, kill_child, resume_child, stop_child, wait_child, ChildExit};
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    const CHILDREN: usize = 4;
    const OPS_PER_CHILD: u64 = 30;
    const CAPACITY: usize = 8;
    const RING_CAPACITY: usize = 16;
    const FREE_BOUND: usize = 256;

    /// Everything the cycle shares through the named arena. Built with the
    /// same allocation sequence by the creator and by the re-attaching
    /// "restarted" process, so every offset matches.
    struct Shared {
        table: Arc<RobustLeaseTable>,
        recorder: Arc<FlightRecorder>,
        free: FreeList,
        progress: shmem::arena::ArenaSliceRef<AtomicU64>,
    }

    fn footprint() -> usize {
        RobustLeaseTable::footprint(CAPACITY)
            + FlightRecorder::footprint(CHILDREN, RING_CAPACITY)
            + FreeList::footprint(FREE_BOUND)
            + CHILDREN * 64
    }

    fn build(arena: &Arc<Arena>) -> Shared {
        Shared {
            table: Arc::new(RobustLeaseTable::with_capacity_in(arena, CAPACITY)),
            recorder: FlightRecorder::new_in(arena, CHILDREN, RING_CAPACITY),
            free: FreeList::new_in(arena, FREE_BOUND),
            progress: arena.alloc_slice::<AtomicU64>(CHILDREN),
        }
    }

    fn arena_path(seed: u64) -> std::path::PathBuf {
        std::env::temp_dir().join(format!(
            "exp_chaos_{}_{seed:06}.arena",
            shmem::arena::os_pid()
        ))
    }

    /// Runs one seeded cycle; returns a violation description on failure.
    pub fn run_cycle(seed: u64) -> Result<(), String> {
        let path = arena_path(seed);
        let _ = std::fs::remove_file(&path);
        let outcome = run_cycle_at(seed, &path);
        let _ = std::fs::remove_file(&path);
        outcome
    }

    fn run_cycle_at(seed: u64, path: &std::path::Path) -> Result<(), String> {
        let fail = |message: String| Err(format!("seed {seed}: {message}"));
        let arena = Arena::file_create(path, footprint())
            .map_err(|error| format!("seed {seed}: create: {error}"))?;
        let shared = build(&arena);
        let plan = FaultPlan::from_seed(seed, CHILDREN, OPS_PER_CHILD);

        // ---- Serve: fork the fleet -----------------------------------
        let pids: Vec<i32> = (0..CHILDREN)
            .map(|worker| {
                let ctx = ProcessCtx::new(ProcessId::new(worker), seed ^ worker as u64);
                let table = Arc::clone(&shared.table);
                let recorder = Arc::clone(&shared.recorder);
                let progress = shared.progress.clone();
                fork_child(move || {
                    let mut ctx = ctx;
                    let writer = recorder.writer(worker);
                    writer.attach_current_process();
                    obs::bind_ring(writer);
                    let registration = match table.register_current_process() {
                        Ok(registration) => registration,
                        Err(_) => return,
                    };
                    for _ in 0..OPS_PER_CHILD {
                        let mut tries = 0u32;
                        let name = loop {
                            match table.acquire(&mut ctx, registration.tag()) {
                                Ok(name) => break Some(name),
                                Err(_) if tries < 1000 => {
                                    tries += 1;
                                    std::thread::yield_now();
                                }
                                Err(_) => break None,
                            }
                        };
                        let Some(name) = name else { return };
                        // Publish progress while *holding* the lease and
                        // dwell a little, so planned faults land mid-lease.
                        progress[worker].fetch_add(1, Ordering::SeqCst);
                        for _ in 0..500 {
                            std::hint::spin_loop();
                        }
                        table.release(&mut ctx, name);
                    }
                })
            })
            .collect();

        // ---- Storm: drive the fault plan -----------------------------
        let mut supervisor = ProcessCtx::new(ProcessId::new(CHILDREN), seed);
        let mut killed: Vec<usize> = Vec::new();
        let mut stalled: Vec<usize> = Vec::new();
        let mut pending: Vec<ChildFault> = plan.faults().to_vec();
        let mut torn_pushes: Vec<usize> = Vec::new();
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
        while !pending.is_empty() {
            if std::time::Instant::now() > deadline {
                return fail("storm timed out waiting for child progress".into());
            }
            let mut index = 0;
            while index < pending.len() {
                let fault = pending[index];
                // Fire only once the child has visibly completed an op: the
                // first progress bump proves ring-attach and registration
                // ran, so every killed child has a postmortem tail to find.
                let threshold = fault.at_op.max(1);
                let done = match fault.action {
                    _ if shared.progress[fault.child].load(Ordering::SeqCst) < threshold => {
                        // The child may already be dead short of the mark
                        // (it gave up on an exhausted table): fire anyway
                        // once it stops moving. Cheap check: a kill target
                        // that exited is already what the storm wanted.
                        false
                    }
                    FaultAction::Kill => {
                        kill_child(pids[fault.child]);
                        killed.push(fault.child);
                        true
                    }
                    FaultAction::Stall { .. } => {
                        stop_child(pids[fault.child]);
                        stalled.push(fault.child);
                        true
                    }
                    FaultAction::TornWrite => {
                        // Half-written states, injected from outside the
                        // children: a name popped but never claimed (lost
                        // to the fleet until a restart re-lists it) and an
                        // unflagged free-list data bit.
                        shared.table.inject_torn_pop(&mut supervisor);
                        let torn = FREE_BOUND - (seed as usize % 64) - 1;
                        if shared.free.inject_torn_push(torn) {
                            torn_pushes.push(torn);
                        }
                        true
                    }
                };
                if done {
                    pending.remove(index);
                } else {
                    index += 1;
                }
            }
            std::thread::yield_now();
        }

        // A stalled process is slow, not dead: while frozen it still owns
        // its leases, and a liveness sweep must leave them alone.
        if let Some(&frozen) = stalled.first() {
            let frozen_pid = pids[frozen] as u32;
            if !os_process_alive(frozen_pid) {
                return fail(format!("stalled child {frozen} probes dead"));
            }
            let held_before: Vec<usize> = (1..=CAPACITY)
                .filter(|&name| shared.table.owner_pid(name) == Some(frozen_pid))
                .collect();
            shared.table.sweep_dead_processes(&mut supervisor);
            for &name in &held_before {
                if shared.table.owner_pid(name) != Some(frozen_pid) {
                    return fail(format!(
                        "mid-stall sweep reclaimed name {name} from live (stalled) pid {frozen_pid}"
                    ));
                }
            }
        }

        // Every child must have visibly completed an op before the fleet
        // kill, for the same reason as the per-fault threshold above: a
        // postmortem tail only exists once the ring is attached. Faulted
        // children already cleared the bar; wait for the rest.
        for child in 0..CHILDREN {
            if killed.contains(&child) || stalled.contains(&child) {
                continue;
            }
            while shared.progress[child].load(Ordering::SeqCst) == 0 {
                if std::time::Instant::now() > deadline {
                    return fail(format!("child {child} never completed an op"));
                }
                std::thread::yield_now();
            }
        }

        // Fleet kill: resume the stalled (SIGKILL terminates stopped
        // processes, but the exit-status accounting is cleaner running),
        // then kill everything still up and reap the lot.
        for &child in &stalled {
            resume_child(pids[child]);
        }
        for (child, &pid) in pids.iter().enumerate() {
            if !killed.contains(&child) {
                kill_child(pid);
            }
        }
        let mut dead_pids: Vec<u32> = Vec::new();
        for (child, &pid) in pids.iter().enumerate() {
            let exit = wait_child(pid);
            if killed.contains(&child) && !exit.killed() && exit != ChildExit::Exited(0) {
                return fail(format!("child {child} odd exit: {exit:?}"));
            }
            dead_pids.push(pid as u32);
        }

        // The creator's mapping goes away entirely: the restart below
        // shares nothing with this incarnation but the file.
        let was_clean_shutdown = false; // the fleet died; no mark_clean ran
        drop(shared);
        drop(arena);

        // ---- Restart: attach by path, recover, verify ----------------
        let arena =
            Arena::file_attach(path).map_err(|error| format!("seed {seed}: attach: {error}"))?;
        if !arena.was_dirty() && !was_clean_shutdown {
            return fail("crashed fleet left a clean dirty-flag".into());
        }
        let shared = build(&arena);
        let mut ctx = ProcessCtx::new(ProcessId::new(0), seed ^ 0xDEAD);
        obs::postmortem::install(Arc::clone(&shared.recorder));
        let report = recover(&mut ctx, &shared.table, &[&shared.free]);
        obs::postmortem::uninstall();
        if !report.won {
            return fail(format!("fresh attach lost the epoch CAS: {report:?}"));
        }

        // Every dead child that got far enough to register must come back
        // as a postmortem with its ring tail.
        let reports = obs::postmortem::take_reports();
        for (child, &pid) in dead_pids.iter().enumerate() {
            if !reports.iter().any(|postmortem| postmortem.pid == pid) {
                return fail(format!("no postmortem for dead child {child} (pid {pid})"));
            }
        }

        // Nothing may be live now, and the namespace must be exactly whole.
        if adaptive_renaming::lease::LongLivedRenaming::live_leases(&*shared.table) != 0 {
            return fail(format!(
                "leases survived recovery: {:?}",
                shared.table.state_snapshot()
            ));
        }
        let registration = shared
            .table
            .register_current_process()
            .map_err(|error| format!("seed {seed}: re-register: {error}"))?;
        let mut names = Vec::new();
        for _ in 0..CAPACITY {
            match shared.table.acquire(&mut ctx, registration.tag()) {
                Ok(name) => names.push(name),
                Err(error) => return fail(format!("lost name: regrant failed: {error}")),
            }
        }
        assert_tight_namespace(&names).map_err(|violation| {
            format!("seed {seed}: names lost or duplicated after recovery: {violation}")
        })?;
        for &name in &names {
            shared.table.release(&mut ctx, name);
        }

        // Torn free-list pushes are findable again after summary repair.
        for &torn in &torn_pushes {
            let mut found = false;
            while let Some(popped) = shared.free.pop() {
                if popped == torn {
                    found = true;
                    break;
                }
            }
            if !found {
                return fail(format!("torn push of {torn} lost despite summary repair"));
            }
        }
        if !torn_pushes.is_empty() && report.summary_repairs == 0 {
            return fail("torn pushes injected but no summary repair reported".into());
        }

        // Idempotence: a second recovery (next epoch) changes nothing.
        let snapshot = shared.table.state_snapshot();
        let free_snapshot = shared.free.snapshot_words();
        let epoch = shared.table.last_recovered_epoch() + 1;
        let second = recover_with(
            &mut ctx,
            &shared.table,
            &[&shared.free],
            epoch,
            |_| true,
            false,
        );
        if !second.won || second.reclaimed != 0 {
            return fail(format!("second recovery did work: {second:?}"));
        }
        if shared.table.state_snapshot() != snapshot
            || shared.free.snapshot_words() != free_snapshot
        {
            return fail("second recovery changed observable state".into());
        }

        arena.mark_clean();
        Ok(())
    }

    pub fn run(seeds: std::ops::Range<u64>) -> i32 {
        let total = seeds.end - seeds.start;
        let mut violations = 0;
        for seed in seeds {
            match run_cycle(seed) {
                Ok(()) => {
                    if seed % 25 == 0 {
                        println!("seed {seed}: ok");
                    }
                }
                Err(violation) => {
                    violations += 1;
                    eprintln!("VIOLATION: {violation}");
                }
            }
        }
        println!(
            "exp_chaos: {}/{total} kill-storm/restart cycles clean",
            total - violations
        );
        if violations > 0 {
            1
        } else {
            0
        }
    }
}

#[cfg(all(unix, not(miri)))]
fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|arg| arg == "--smoke");
    // Fixed seed ranges: CI replays the same storms every run. A bare
    // integer argument overrides the cycle count (tools/chaos_soak.sh).
    let cycles = args
        .iter()
        .find_map(|arg| arg.parse::<u64>().ok())
        .unwrap_or(if smoke { 50 } else { 200 });
    std::process::exit(harness::run(0..cycles));
}

#[cfg(not(all(unix, not(miri))))]
fn main() {
    eprintln!("exp_chaos requires unix fork semantics (and not miri)");
}
