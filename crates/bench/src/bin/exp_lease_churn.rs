//! Lease-churn throughput: long-lived renaming vs the ticket baseline.
//!
//! Worker threads repeatedly lease and release a name. The contenders:
//!
//! * **`Recycler`** — the compiled §5 renaming network behind the
//!   lock-free recycling free list. The list is a two-level bitmap:
//!   pop-minimum consults a summary word and visits only data words that
//!   have ever held a free name, so hits *and* misses are `O(1)` expected
//!   under churn. Names stay inside `1..=threads` forever (the *tight*
//!   long-lived guarantee).
//! * **`ShardedRecycler`** — one recycler per worker-count shard over
//!   disjoint name ranges, home shards by process id, overflow stealing.
//!   Shard-local atomics take the coherence traffic out of the hot path at
//!   the price of the documented *loose* bound
//!   (`namespace ≤ shards × per-shard contention`, names ≤ shards × span).
//! * **Escrowed `Recycler` (the builder default, `lease_batch(8)`)** — the
//!   hierarchical recycler with a per-thread escrow: single-lease churn
//!   whose releases park in the releasing thread's own cache-line slot,
//!   whose leases take them back from there, and whose full slots spill
//!   half to the free list in one batch push. At the price of the per-grant
//!   tight bound (names stay unique and ≤ the concurrency bound). The row
//!   keeps its historical name, `builder_default_stash8`.
//! * **`RobustLeaseTable` over forked processes** (unix only) — real
//!   `fork(2)` children churning the crash-robust lease table through a
//!   `MAP_SHARED` arena, each stamping its OS pid as the lease owner. The
//!   cross-process deployment the arena subsystem exists for, priced
//!   against the in-process rows.
//! * **`CasCounter`-style ticket dispenser** — one `fetch_add` per acquire,
//!   one per release. As fast as the hardware allows, but the namespace
//!   grows without bound: after `10^9` operations names are 10 decimal
//!   digits wide, which is exactly what renaming exists to prevent.
//!
//! Reported: acquire/release cycles per second at 2/4/8/16 threads, plus
//! the recyclers' fresh/recycled split and each variant's namespace bound.
//! Every row's `max name seen` is checked against its documented bound.
//! The numbers are written to `BENCH_lease_churn.json` so the trajectory of
//! the long-lived hot path is tracked across revisions.
//!
//! A separate **untimed** telemetry pass then re-runs each variant with
//! every worker bound to its own `obs` metric stripe and writes the merged
//! snapshots — grant/acquire latency histograms, fresh/recycled splits,
//! CAS retry and stash/flush counters — to `OBS_lease_churn.json`. The
//! robust row's stripes live in the same `MAP_SHARED` arena as the lease
//! table, escrowed per forked child and merged by the parent at snapshot
//! time. Telemetry stays out of the timed sweep: workers there never bind
//! a sink, so the committed baselines and `--gate` verdicts price the
//! unbound hot path.
//!
//! Run with `cargo run --release -p renaming-bench --bin exp_lease_churn`;
//! pass `--smoke` for a seconds-long CI-sized run that skips the JSON, or
//! `--gate` to replay the **full** sizing and fail (exit 1) when any
//! variant's *best* replayed execution regresses more than 20% past the
//! committed
//! `BENCH_lease_churn.json` baseline.

use adaptive_renaming::builder::RenamingBuilder;
use adaptive_renaming::lease::LongLivedRenaming;
use adaptive_renaming::recycler::Recycler;
use adaptive_renaming::sharded::ShardedRecycler;
use adaptive_renaming::traits::Renaming;
use renaming_bench::{fmt1, parse_baseline_rows, GateReport, Table};
use shmem::adversary::ExecConfig;
use shmem::arena::Arena;
use shmem::executor::Executor;
use shmem::register::AtomicU64Register;
use std::sync::Arc;
use std::time::Instant;

/// Input wires of the one-shot network under the single recyclers.
const WIDTH: usize = 64;
/// Input wires of each shard's one-shot network under the sharded recycler.
const SHARD_SPAN: usize = 8;
/// Live leases allowed per shard (the loose per-shard admission bound).
const PER_SHARD_MAX: usize = 2;
/// Leases per call of the batched variant (amortized admission + release),
/// and the escrow quota of the builder-default row.
const BATCH: usize = 8;

/// Run sizing; the full sweep feeds `BENCH_lease_churn.json`, the smoke
/// sweep bounds CI time.
struct Sizing {
    ops_per_worker: usize,
    executions: usize,
    threads: &'static [usize],
    write_json: bool,
}

const FULL: Sizing = Sizing {
    ops_per_worker: 2_000,
    executions: 5,
    threads: &[2, 4, 8, 16],
    write_json: true,
};

const SMOKE: Sizing = Sizing {
    ops_per_worker: 200,
    executions: 2,
    threads: &[2, 4],
    write_json: false,
};

/// The gate replays the FULL per-execution workload (so cells are
/// comparable to the committed baseline) with three times the executions:
/// the gate compares the *best* replay per cell, and a larger best-of-N
/// keeps the scheduler's worst moods out of the verdict.
const GATE: Sizing = Sizing {
    ops_per_worker: 2_000,
    executions: 15,
    threads: &[2, 4, 8, 16],
    write_json: false,
};

/// How a variant's namespace is bounded, for the per-row `max_name` check.
#[derive(Clone, Copy)]
enum Bound {
    /// Names stay in `1..=limit` (limit = the concurrency bound).
    Tight(usize),
    /// Names stay in `1..=limit` (limit = shards × span); the *set* in use
    /// is further bounded by shards × per-shard contention.
    Loose(usize),
    /// No bound — the baseline's failure mode, not a guarantee.
    Unbounded,
}

impl Bound {
    fn kind(&self) -> &'static str {
        match self {
            Bound::Tight(_) => "tight",
            Bound::Loose(_) => "loose",
            Bound::Unbounded => "unbounded",
        }
    }

    fn limit(&self) -> usize {
        match self {
            Bound::Tight(limit) | Bound::Loose(limit) => *limit,
            Bound::Unbounded => 0,
        }
    }

    fn admits(&self, name: usize) -> bool {
        match self {
            Bound::Tight(limit) | Bound::Loose(limit) => name <= *limit,
            Bound::Unbounded => true,
        }
    }
}

/// One measured configuration.
struct Sample {
    variant: &'static str,
    threads: usize,
    mean_ns_per_op: f64,
    min_ns_per_op: f64,
    max_ns_per_op: f64,
    max_name: usize,
    fresh_names: usize,
    recycled_names: usize,
    bound: Bound,
    /// Capacity of the variant's inner one-shot object(s): the network
    /// width of a single recycler, the per-shard width of the sharded one.
    inner_capacity: usize,
}

/// The static shape of one measured variant.
struct VariantSpec {
    variant: &'static str,
    threads: usize,
    bound: Bound,
    /// Lease/release ops per `cycle` invocation: 1 for the single-lease
    /// variants, the batch size for the batched ones.
    ops_per_call: usize,
    inner_capacity: usize,
}

/// Times `executions` runs of `spec.threads` workers × `ops_per_worker`
/// lease/release ops issued through `cycle`, which performs
/// `spec.ops_per_call` ops per invocation and returns the largest name it
/// observed.
fn measure<F>(
    sizing: &Sizing,
    spec: VariantSpec,
    mut stats_after: impl FnMut() -> (usize, usize),
    cycle: F,
) -> Sample
where
    F: Fn(&mut shmem::process::ProcessCtx, usize) -> usize + Send + Sync,
{
    let VariantSpec {
        variant,
        threads,
        bound,
        ops_per_call,
        inner_capacity,
    } = spec;
    let calls_per_worker = sizing.ops_per_worker / ops_per_call;
    let total_ops = (threads * calls_per_worker * ops_per_call) as f64;
    let mut total_ns = 0.0;
    let mut min_ns = f64::INFINITY;
    let mut max_ns: f64 = 0.0;
    let mut max_name = 0usize;
    let cycle = &cycle;
    for execution in 0..sizing.executions {
        let start = Instant::now();
        let outcome = Executor::new(ExecConfig::new(execution as u64)).run(threads, move |ctx| {
            let mut worst = 0usize;
            for _ in 0..calls_per_worker {
                worst = worst.max(cycle(ctx, threads));
            }
            worst
        });
        let elapsed = start.elapsed().as_nanos() as f64 / total_ops;
        total_ns += elapsed;
        min_ns = min_ns.min(elapsed);
        max_ns = max_ns.max(elapsed);
        max_name = max_name.max(outcome.results().into_iter().max().unwrap_or(0));
    }
    assert!(
        bound.admits(max_name),
        "{variant} at {threads} threads leaked name {max_name} past its \
         {} bound of {}",
        bound.kind(),
        bound.limit(),
    );
    let (fresh_names, recycled_names) = stats_after();
    Sample {
        variant,
        threads,
        mean_ns_per_op: total_ns / sizing.executions as f64,
        min_ns_per_op: min_ns,
        max_ns_per_op: max_ns,
        max_name,
        fresh_names,
        recycled_names,
        bound,
        inner_capacity,
    }
}

fn network(capacity: usize) -> Arc<dyn Renaming> {
    RenamingBuilder::new()
        .network()
        .capacity(capacity)
        .hardware_comparators()
        .build()
        .expect("valid configuration")
}

/// The object `build_long_lived` makes from the same configuration with
/// `.lease_batch(BATCH)`: a recycler over `network(WIDTH)` with a
/// per-thread escrow of quota `BATCH`. Built directly so the row can read
/// its fresh/recycled split.
fn escrowed_recycler(threads: usize) -> Arc<Recycler<Arc<dyn Renaming>>> {
    let inner = network(WIDTH);
    let arena = Arena::heap(Recycler::footprint(&inner, threads, BATCH));
    Arc::new(Recycler::new_in(inner, threads, BATCH, &arena))
}

/// Measures the crash-robust lease table shared across **forked OS
/// processes** over a `MAP_SHARED` arena: the cross-process analogue of the
/// thread rows. Each child acquires and releases through the
/// generation-stamped slot protocol with its pid as the owner stamp, so the
/// row prices the full robust protocol (scan + CAS acquire, CAS release,
/// releases-seqlock bump) on real shared memory. Timing runs gate-to-done —
/// children spin on a start word, bump a done word after their last release
/// — so fork and waitpid overhead stay out of the measurement.
#[cfg(all(unix, not(miri)))]
fn measure_robust_procs(sizing: &Sizing, processes: usize) -> Sample {
    use adaptive_renaming::robust::RobustLeaseTable;
    use shmem::arena::Arena;
    use shmem::process::{ProcessCtx, ProcessId};
    use shmem::procs::{fork_child, wait_for_clean_exit};
    use std::sync::atomic::{AtomicU64, Ordering};

    let calls_per_worker = sizing.ops_per_worker;
    let total_ops = (processes * calls_per_worker) as f64;
    // Table slots + releases register + barrier words + per-child report
    // words (each allocation is rounded to its own 64-byte line).
    let arena = Arena::shared(RobustLeaseTable::footprint(processes) + (processes + 3) * 64)
        .expect("anonymous MAP_SHARED arena");
    let table = Arc::new(RobustLeaseTable::with_capacity_in(&arena, processes));
    let ready = arena.alloc::<AtomicU64>().pin(&arena);
    let start_gate = arena.alloc::<AtomicU64>().pin(&arena);
    let done = arena.alloc::<AtomicU64>().pin(&arena);
    let reports = arena.alloc_slice::<AtomicU64>(processes).pin(&arena);

    let mut total_ns = 0.0;
    let mut min_ns = f64::INFINITY;
    let mut max_ns: f64 = 0.0;
    for execution in 0..sizing.executions {
        ready.store(0, Ordering::SeqCst);
        start_gate.store(0, Ordering::SeqCst);
        done.store(0, Ordering::SeqCst);
        let pids: Vec<i32> = (0..processes)
            .map(|worker| {
                // Pre-fork context (fork discipline: children only touch
                // atomics on the shared mapping).
                let ctx = ProcessCtx::new(
                    ProcessId::new(worker),
                    (execution * processes + worker) as u64,
                );
                let table = Arc::clone(&table);
                let (ready, start_gate, done, reports) = (
                    ready.clone(),
                    start_gate.clone(),
                    done.clone(),
                    reports.clone(),
                );
                fork_child(move || {
                    let mut ctx = ctx;
                    // Register before signalling ready: the registry claim
                    // is atomics-only (fork-safe) and must stay outside the
                    // timed window. Dead children of earlier executions are
                    // recycled here, so the registry never fills up.
                    let registration = table
                        .register_current_process()
                        .expect("the registry admits every live child");
                    ready.fetch_add(1, Ordering::SeqCst);
                    while start_gate.load(Ordering::SeqCst) == 0 {
                        std::hint::spin_loop();
                    }
                    let mut worst = 0usize;
                    for _ in 0..calls_per_worker {
                        let name = table
                            .acquire(&mut ctx, registration.tag())
                            .expect("table capacity equals the process count");
                        worst = worst.max(name);
                        table.release(&mut ctx, name);
                    }
                    reports[worker].fetch_max(worst as u64, Ordering::SeqCst);
                    done.fetch_add(1, Ordering::SeqCst);
                })
            })
            .collect();
        // Wait until every child is spinning on the gate, so fork and child
        // startup latency never lands inside the timed window.
        while ready.load(Ordering::SeqCst) < processes as u64 {
            std::thread::yield_now();
        }
        let timer = Instant::now();
        start_gate.store(1, Ordering::SeqCst);
        // Yield, don't spin: the parent must not steal a core from the
        // children it is timing.
        while done.load(Ordering::SeqCst) < processes as u64 {
            std::thread::yield_now();
        }
        let elapsed = timer.elapsed().as_nanos() as f64 / total_ops;
        total_ns += elapsed;
        min_ns = min_ns.min(elapsed);
        max_ns = max_ns.max(elapsed);
        for pid in pids {
            wait_for_clean_exit(pid);
        }
        assert_eq!(
            table.live_leases(),
            0,
            "every lease must be released once the children are done"
        );
    }
    let max_name = reports
        .iter()
        .map(|report| report.load(Ordering::SeqCst) as usize)
        .max()
        .unwrap_or(0);
    let bound = Bound::Tight(processes);
    assert!(
        bound.admits(max_name),
        "robust_mmap_procs at {processes} processes leaked name {max_name} \
         past its tight bound of {processes}"
    );
    Sample {
        variant: "robust_mmap_procs",
        threads: processes,
        mean_ns_per_op: total_ns / sizing.executions as f64,
        min_ns_per_op: min_ns,
        max_ns_per_op: max_ns,
        max_name,
        fresh_names: 0,
        // Every completed HELD→FREE transition is a recycle of its slot.
        recycled_names: table.transitions(),
        bound,
        inner_capacity: processes,
    }
}

/// Measures a single tight recycler over the compiled renaming network.
fn measure_recycler(sizing: &Sizing, variant: &'static str, threads: usize) -> Sample {
    let recycler = Arc::new(Recycler::new(network(WIDTH), threads));
    measure(
        sizing,
        VariantSpec {
            variant,
            threads,
            bound: Bound::Tight(threads),
            ops_per_call: 1,
            inner_capacity: WIDTH,
        },
        {
            let recycler = Arc::clone(&recycler);
            move || (recycler.fresh_names(), recycler.recycled_names())
        },
        {
            // The raw lease surface: like the ticket baseline, the timed
            // cycle carries no RAII guard (which would add two reference
            // count updates per cycle on top of the renaming protocol).
            let recycler = Arc::clone(&recycler);
            move |ctx, _| {
                let name = recycler
                    .lease_raw(ctx)
                    .expect("admission bound equals the worker count");
                recycler.release_with(ctx, name);
                name
            }
        },
    )
}

fn run_sweep(sizing: &Sizing) -> Vec<Sample> {
    let mut samples = Vec::new();
    for &threads in sizing.threads {
        // --- Recycler over the compiled renaming network -----------------
        samples.push(measure_recycler(sizing, "recycler_hierarchical", threads));

        // --- Batched leases: admission and release amortized over BATCH ---
        // Each worker cycles a whole batch at a time through the raw batch
        // surface: one admission reservation and one release-side counter
        // bump per BATCH leases instead of per lease.
        let batched = Arc::new(Recycler::new(network(threads * BATCH), threads * BATCH));
        samples.push(measure(
            sizing,
            VariantSpec {
                variant: "recycler_hierarchical_batch8",
                threads,
                bound: Bound::Tight(threads * BATCH),
                ops_per_call: BATCH,
                inner_capacity: threads * BATCH,
            },
            {
                let batched = Arc::clone(&batched);
                move || (batched.fresh_names(), batched.recycled_names())
            },
            {
                let batched = Arc::clone(&batched);
                move |ctx, _| {
                    let mut names = Vec::with_capacity(BATCH);
                    batched
                        .lease_many_raw(ctx, BATCH, &mut names)
                        .expect("admission bound equals workers × batch");
                    let worst = names.iter().copied().max().unwrap_or(0);
                    batched.release_many_raw(&names);
                    worst
                }
            },
        ));

        // --- Builder-default escrow: single leases through thread slots ----
        // The same recycler with the per-thread escrow the builder installs
        // by default: plain lease/release per cycle (no caller-side
        // batching), served from each worker's own slot. Names stay within
        // the concurrency bound but lose the per-grant tightness, so the row
        // is labelled loose.
        let stash = escrowed_recycler(threads);
        samples.push(measure(
            sizing,
            VariantSpec {
                variant: "builder_default_stash8",
                threads,
                bound: Bound::Loose(threads),
                ops_per_call: 1,
                inner_capacity: WIDTH,
            },
            {
                let stash = Arc::clone(&stash);
                move || (stash.fresh_names(), stash.recycled_names())
            },
            {
                let stash = Arc::clone(&stash);
                move |ctx, _| {
                    // Escrowed names hold admission slots, so a lease can
                    // spuriously collide with a spill in flight; retry until
                    // the name lands (the steal sweep finds it on the next
                    // pass).
                    let name = loop {
                        if let Ok(name) = stash.lease_raw(ctx) {
                            break name;
                        }
                    };
                    stash.release_with(ctx, name);
                    name
                }
            },
        ));

        // --- Sharded recycler: one home shard per worker ------------------
        let sharded = Arc::new(ShardedRecycler::new(
            (0..threads).map(|_| network(SHARD_SPAN)).collect(),
            PER_SHARD_MAX,
        ));
        samples.push(measure(
            sizing,
            VariantSpec {
                variant: "sharded_recycler",
                threads,
                bound: Bound::Loose(threads * sharded.span()),
                ops_per_call: 1,
                inner_capacity: SHARD_SPAN,
            },
            {
                let sharded = Arc::clone(&sharded);
                move || (sharded.fresh_names(), sharded.recycled_names())
            },
            {
                let sharded = Arc::clone(&sharded);
                move |ctx, _| {
                    let name = sharded
                        .lease_raw(ctx)
                        .expect("every worker fits in its home shard");
                    sharded.release_with(ctx, name);
                    name
                }
            },
        ));

        // --- Crash-robust lease table across forked OS processes ----------
        // Real fork(2) children over a MAP_SHARED arena: the only row whose
        // contenders are processes, not threads. Unix only.
        #[cfg(all(unix, not(miri)))]
        samples.push(measure_robust_procs(sizing, threads));

        // --- Ticket baseline: fetch-and-add acquire + release -------------
        let tickets = Arc::new(AtomicU64Register::new(0));
        let stubs = Arc::new(AtomicU64Register::new(0));
        samples.push(measure(
            sizing,
            VariantSpec {
                variant: "cas_ticket_baseline",
                threads,
                bound: Bound::Unbounded,
                ops_per_call: 1,
                inner_capacity: 0,
            },
            || (0, 0),
            {
                let tickets = Arc::clone(&tickets);
                let stubs = Arc::clone(&stubs);
                move |ctx, _| {
                    let name = tickets.fetch_add(ctx, 1) as usize + 1;
                    stubs.fetch_add(ctx, 1); // "return the ticket stub"
                    name
                }
            },
        ));
    }
    samples
}

fn print_table(samples: &[Sample]) {
    let mut table = Table::new(
        "Lease churn — acquire/release cycles: recyclers (single/batched/sharded) vs ticket dispenser",
        &[
            "variant",
            "threads",
            "ns/op (mean)",
            "ns/op (min)",
            "ns/op (max)",
            "max name seen",
            "bound",
            "fresh",
            "recycled",
        ],
    );
    for s in samples {
        let bound = match s.bound {
            Bound::Unbounded => "none".to_string(),
            _ => format!("{} ≤{}", s.bound.kind(), s.bound.limit()),
        };
        table.row(vec![
            s.variant.to_string(),
            s.threads.to_string(),
            fmt1(s.mean_ns_per_op),
            fmt1(s.min_ns_per_op),
            fmt1(s.max_ns_per_op),
            s.max_name.to_string(),
            bound,
            s.fresh_names.to_string(),
            s.recycled_names.to_string(),
        ]);
    }
    table.print();
}

fn write_json(sizing: &Sizing, samples: &[Sample]) -> std::io::Result<()> {
    let mut variants = String::new();
    for (index, s) in samples.iter().enumerate() {
        if index > 0 {
            variants.push_str(",\n");
        }
        variants.push_str(&format!(
            "    {{\"variant\": \"{}\", \"threads\": {}, \"mean_ns_per_op\": {:.1}, \
             \"min_ns_per_op\": {:.1}, \"max_ns_per_op\": {:.1}, \"max_name\": {}, \
             \"bound_kind\": \"{}\", \"namespace_bound\": {}, \"inner_capacity\": {}, \
             \"fresh_names\": {}, \"recycled_names\": {}}}",
            s.variant,
            s.threads,
            s.mean_ns_per_op,
            s.min_ns_per_op,
            s.max_ns_per_op,
            s.max_name,
            s.bound.kind(),
            s.bound.limit(),
            s.inner_capacity,
            s.fresh_names,
            s.recycled_names
        ));
    }
    let json = format!(
        "{{\n  \"experiment\": \"lease_churn\",\n  \"network_width\": {WIDTH},\n  \
         \"shard_span\": {SHARD_SPAN},\n  \"ops_per_worker\": {},\n  \
         \"executions\": {},\n  \"variants\": [\n{variants}\n  ]\n}}\n",
        sizing.ops_per_worker, sizing.executions,
    );
    std::fs::write("BENCH_lease_churn.json", json)
}

/// One untimed telemetry execution of an in-process variant: each worker
/// binds its own stripe of a fresh heap
/// [`MetricsSlab`](obs::MetricsSlab), churns the sizing's per-worker
/// cycles, and the stripes merge into one snapshot.
fn observe_cycles<F>(
    sizing: &Sizing,
    threads: usize,
    ops_per_call: usize,
    cycle: F,
) -> obs::Snapshot
where
    F: Fn(&mut shmem::process::ProcessCtx, usize) -> usize + Send + Sync,
{
    let calls_per_worker = sizing.ops_per_worker / ops_per_call;
    let slab = obs::MetricsSlab::heap(threads);
    let cycle = &cycle;
    Executor::new(ExecConfig::new(0))
        .run(threads, {
            let slab = Arc::clone(&slab);
            move |ctx| {
                obs::bind_metrics(slab.writer(ctx.id().as_usize()));
                for _ in 0..calls_per_worker {
                    cycle(ctx, threads);
                }
                obs::unbind();
            }
        })
        .results();
    obs::Snapshot::collect(&slab)
}

/// The cross-process telemetry row: forked children churn the crash-robust
/// lease table while recording into per-child metric stripes **escrowed in
/// the same `MAP_SHARED` arena as the table itself** — each child owns its
/// stripe's cache lines, and the parent merges the slab into one snapshot
/// after the children exit. The acquire-latency histogram and CAS-retry
/// counters of the full robust protocol on real shared memory.
#[cfg(all(unix, not(miri)))]
fn observe_robust_procs(sizing: &Sizing, processes: usize) -> obs::Snapshot {
    use adaptive_renaming::robust::RobustLeaseTable;
    use shmem::arena::Arena;
    use shmem::process::{ProcessCtx, ProcessId};
    use shmem::procs::{fork_child, wait_for_clean_exit};

    let calls_per_worker = sizing.ops_per_worker;
    let arena = Arena::shared(
        RobustLeaseTable::footprint(processes) + obs::MetricsSlab::footprint(processes) + 64,
    )
    .expect("anonymous MAP_SHARED arena");
    let table = Arc::new(RobustLeaseTable::with_capacity_in(&arena, processes));
    let slab = obs::MetricsSlab::new_in(&arena, processes);
    let pids: Vec<i32> = (0..processes)
        .map(|worker| {
            // Pre-fork context; the child binds its stripe post-fork (the
            // sink binding is plain thread-local state) and touches only
            // atomics on the shared mapping.
            let ctx = ProcessCtx::new(ProcessId::new(worker), worker as u64);
            let table = Arc::clone(&table);
            let slab = Arc::clone(&slab);
            fork_child(move || {
                let mut ctx = ctx;
                obs::bind_metrics(slab.writer(worker));
                let registration = table
                    .register_current_process()
                    .expect("the registry admits every live child");
                for _ in 0..calls_per_worker {
                    let name = table
                        .acquire(&mut ctx, registration.tag())
                        .expect("table capacity equals the process count");
                    table.release(&mut ctx, name);
                }
            })
        })
        .collect();
    for pid in pids {
        wait_for_clean_exit(pid);
    }
    obs::Snapshot::collect(&slab)
}

/// Writes `OBS_lease_churn.json`: one telemetry row per (variant, threads)
/// cell, each carrying the merged snapshot of that cell's bound run.
fn write_obs_json(sizing: &Sizing) -> std::io::Result<()> {
    let mut rows = String::new();
    let mut push_row = |variant: &str, threads: usize, snapshot: obs::Snapshot| {
        if !rows.is_empty() {
            rows.push_str(",\n");
        }
        rows.push_str(&format!(
            "    {{\"variant\": \"{variant}\", \"threads\": {threads}, \
             \"telemetry\": {}}}",
            snapshot.to_json().trim_end(),
        ));
    };
    for &threads in sizing.threads {
        let hierarchical = Arc::new(Recycler::new(network(WIDTH), threads));
        push_row(
            "recycler_hierarchical",
            threads,
            observe_cycles(sizing, threads, 1, {
                let recycler = Arc::clone(&hierarchical);
                move |ctx, _| {
                    let name = recycler
                        .lease_raw(ctx)
                        .expect("admission bound equals the worker count");
                    recycler.release_with(ctx, name);
                    name
                }
            }),
        );

        let stash = escrowed_recycler(threads);
        push_row(
            "builder_default_stash8",
            threads,
            observe_cycles(sizing, threads, 1, {
                let stash = Arc::clone(&stash);
                move |ctx, _| {
                    // Same spurious-collision retry as the timed row.
                    let name = loop {
                        if let Ok(name) = stash.lease_raw(ctx) {
                            break name;
                        }
                    };
                    stash.release_with(ctx, name);
                    name
                }
            }),
        );

        #[cfg(all(unix, not(miri)))]
        push_row(
            "robust_mmap_procs",
            threads,
            observe_robust_procs(sizing, threads),
        );
    }
    let json = format!(
        "{{\n  \"experiment\": \"lease_churn\",\n  \"ops_per_worker\": {},\n  \
         \"rows\": [\n{rows}\n  ]\n}}\n",
        sizing.ops_per_worker,
    );
    std::fs::write("OBS_lease_churn.json", json)
}

/// `--gate`: replay the full sizing and compare every (variant, threads)
/// cell's best (minimum ns/op) execution against the committed
/// `BENCH_lease_churn.json`, failing when even the best replay sits >20%
/// past the committed mean (or committed max for rows whose baseline was
/// already noisy). Exits the process with status 1 on failure.
fn run_gate(samples: &[Sample]) {
    let committed = match std::fs::read_to_string("BENCH_lease_churn.json") {
        Ok(json) => parse_baseline_rows(&json),
        Err(error) => {
            eprintln!("perf gate: cannot read BENCH_lease_churn.json: {error}");
            std::process::exit(1);
        }
    };
    let mut report = GateReport::new();
    for sample in samples {
        let label = format!("{} at {} threads", sample.variant, sample.threads);
        let threads = sample.threads.to_string();
        let row = committed
            .iter()
            .find(|row| row.matches(&[("variant", sample.variant), ("threads", &threads)]));
        match row
            .and_then(|row| Some((row.number("mean_ns_per_op")?, row.number("max_ns_per_op")?)))
        {
            Some((mean, max)) => report.check(&label, sample.min_ns_per_op, mean, max),
            None => report.missing(&label),
        }
    }
    if report.passed() {
        println!(
            "perf gate: {} configurations within tolerance of BENCH_lease_churn.json",
            report.checked()
        );
    } else {
        eprintln!("perf gate FAILED against BENCH_lease_churn.json:");
        for failure in report.failures() {
            eprintln!("  {failure}");
        }
        std::process::exit(1);
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let smoke = args.iter().any(|arg| arg == "--smoke");
    let gate = args.iter().any(|arg| arg == "--gate");
    // `--no-obs` skips the telemetry pass: the overhead gate
    // (tools/obs_overhead.sh) compares telemetry-on vs obs-off builds over
    // *identical* work, so the bound recording of the telemetry pass must
    // not leak into the comparison.
    let no_obs = args.iter().any(|arg| arg == "--no-obs");
    // The gate replays the full per-execution workload (a smoke-sized run
    // against the committed full-sized baseline would compare different
    // workloads) with extra executions per cell — see GATE.
    let sizing = if gate {
        &GATE
    } else if smoke {
        &SMOKE
    } else {
        &FULL
    };
    let samples = run_sweep(sizing);
    print_table(&samples);
    for &threads in sizing.threads {
        let ns = |variant: &str| {
            samples
                .iter()
                .find(|s| s.variant == variant && s.threads == threads)
                .map(|s| s.mean_ns_per_op)
                .unwrap_or(f64::NAN)
        };
        let ticket = ns("cas_ticket_baseline");
        println!(
            "{threads:>2} threads: hierarchical {:.0} ns/op ({:.1}x), \
             batch8 {:.0} ns/op ({:.1}x), stash8 {:.0} ns/op ({:.1}x), \
             sharded {:.0} ns/op ({:.1}x) vs \
             ticket {ticket:.0} ns/op; tight namespace 1..={threads}, loose ≤ {}",
            ns("recycler_hierarchical"),
            ns("recycler_hierarchical") / ticket,
            ns("recycler_hierarchical_batch8"),
            ns("recycler_hierarchical_batch8") / ticket,
            ns("builder_default_stash8"),
            ns("builder_default_stash8") / ticket,
            ns("sharded_recycler"),
            ns("sharded_recycler") / ticket,
            threads * SHARD_SPAN,
        );
    }
    if gate {
        run_gate(&samples);
    } else {
        if sizing.write_json {
            match write_json(sizing, &samples) {
                Ok(()) => println!("wrote BENCH_lease_churn.json"),
                Err(error) => eprintln!("failed to write BENCH_lease_churn.json: {error}"),
            }
        } else {
            println!("smoke mode: BENCH_lease_churn.json left untouched");
        }
        // The telemetry pass runs after every timed execution has finished:
        // binding a sink flips the process-wide enable flag, so the order
        // keeps the timed sweep above on the never-enabled fast path.
        if no_obs {
            println!("--no-obs: OBS_lease_churn.json left untouched");
        } else {
            match write_obs_json(sizing) {
                Ok(()) => println!("wrote OBS_lease_churn.json"),
                Err(error) => eprintln!("failed to write OBS_lease_churn.json: {error}"),
            }
        }
    }
}
