//! The traced run (`--trace 1`): per-layer metrics.
//!
//! 1. The workload runs once with telemetry unbound (its p50s are the
//!    reference the overhead and the reconciliation use), then once with
//!    an `obs` metric stripe bound on every worker. That second phase
//!    yields the layer counters (`obs` counters only: no instrumentation is
//!    added to the program) and, from each worker's `ProcessCtx`, the §2
//!    step delta of every timed op.
//! 2. Each layer's public entry point is then replayed in isolation on
//!    two threads, with op streams drawn from the same seed: the
//!    benchmark's spans around those calls give each layer's time. Every
//!    layer is replayed on every workload, so each run reports every
//!    metric; a layer's counters read 0 on a workload that does not use
//!    it.
//! 3. Reconciliation: the layers on the primary op's blocking path,
//!    weighted by how often the traced phase called them, plus the cost of
//!    the clock read, are subtracted from the untraced primary p50. The
//!    rest is `reconcile.residual_ns`: time no public entry point accounts
//!    for (admission, the stash mutex, sensor routing, call overhead).

use crate::hist::Hist;
use crate::host::Host;
use crate::stream::{LeaseOp, Rng, WindowStream, PURPOSE_CTX};
use crate::workloads::{
    self, build_robust, timed, Counts, Measured, Phase, Workload, MAX_CONCURRENT, RAMP_LEASES,
    SLACK, WINDOW, WORKERS,
};
use crate::{median, Metric, Report};
use adaptive_renaming::free_list::FreeList;
use adaptive_renaming::lease::LongLivedRenaming;
use adaptive_renaming::recovery::recover_with;
use adaptive_renaming::{AdaptiveRenaming, Recycler, RobustLeaseTable};
use cnet::{
    BalancingTopology, CompiledBalancingNetwork, CountingFamily, NetworkCounter, Prism,
    PrismOutcome,
};
use obs::{Metric as Obs, MetricsSlab};
use shmem::arena::Arena;
use shmem::process::{ProcessCtx, ProcessId};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Barrier, Mutex, OnceLock};
use std::time::{Duration, Instant};

/// Replays sharing half the run's time: recycler, free list, adaptive,
/// robust, recovery and the increment path (the arena is timed apart).
const REPLAYS: u32 = 6;

/// `numerator / denominator`, 0 when nothing was counted.
fn ratio(numerator: f64, denominator: f64) -> f64 {
    if denominator > 0.0 {
        numerator / denominator
    } else {
        0.0
    }
}

/// Worker-side coordination for a replay: a time budget that starts when
/// the workers do, and rounds whose continuation worker 0 decides.
struct Replay {
    slab: Arc<MetricsSlab>,
    seed: u64,
    budget: Duration,
    deadline: OnceLock<Instant>,
    barrier: Barrier,
    go: AtomicBool,
}

impl Replay {
    fn new(slab: &Arc<MetricsSlab>, seed: u64, budget: Duration) -> Replay {
        Replay {
            slab: Arc::clone(slab),
            seed,
            budget,
            deadline: OnceLock::new(),
            barrier: Barrier::new(WORKERS),
            go: AtomicBool::new(false),
        }
    }

    fn running(&self) -> bool {
        Instant::now() < *self.deadline.get().expect("set before the workers start")
    }

    /// Whether another round starts; worker 0 decides (always at least
    /// one round) and runs `prepare` first, the other learns it at the
    /// barrier.
    fn round(&self, worker: usize, first: bool, prepare: impl FnOnce()) -> bool {
        if worker == 0 {
            let go = first || self.running();
            if go {
                prepare();
            }
            self.go.store(go, Ordering::SeqCst);
        }
        self.barrier.wait();
        self.go.load(Ordering::SeqCst)
    }

    /// Runs `body` on every worker with the metric sink bound, after
    /// which the slab's counters belong to this replay alone.
    fn on_workers<T: Send>(
        &self,
        body: impl Fn(usize, &mut ProcessCtx) -> T + Sync,
    ) -> (Vec<T>, Counts) {
        self.deadline
            .set(Instant::now() + self.budget)
            .expect("each replay runs its workers once");
        let results = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..WORKERS)
                .map(|w| {
                    let body = &body;
                    scope.spawn(move || {
                        obs::bind_metrics(self.slab.writer(w));
                        let mut ctx = ProcessCtx::new(
                            ProcessId::new(w),
                            Rng::new(self.seed, w, PURPOSE_CTX).next_u64(),
                        );
                        body(w, &mut ctx)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("a replay worker panicked"))
                .collect()
        });
        (results, Counts::take(&self.slab))
    }
}

fn merged(hists: impl IntoIterator<Item = Hist>) -> Hist {
    let mut all = Hist::default();
    for hist in hists {
        all.merge(&hist);
    }
    all
}

/// A FIFO-window replay against one lease-like layer: `grant` returns a
/// name, `give` takes it back; both are timed.
fn window_replay(
    replay: &Replay,
    grant: impl Fn(&mut ProcessCtx) -> usize + Sync,
    give: impl Fn(&mut ProcessCtx, usize) + Sync,
) -> (Hist, Hist) {
    let (results, _) = replay.on_workers(|w, ctx| {
        let mut stream = WindowStream::new(replay.seed, w, WINDOW, SLACK);
        let mut held: VecDeque<usize> = (0..stream.window()).map(|_| grant(ctx)).collect();
        let (mut grants, mut gives) = (Hist::default(), Hist::default());
        while replay.running() {
            match stream.next_op() {
                LeaseOp::Lease => held.push_back(timed(ctx, &mut grants, None, &grant)),
                LeaseOp::Release => {
                    let name = held.pop_front().expect("the window never empties");
                    timed(ctx, &mut gives, None, |ctx| give(ctx, name));
                }
            }
        }
        for name in held {
            give(ctx, name);
        }
        (grants, gives)
    });
    let (grants, gives): (Vec<_>, Vec<_>) = results.into_iter().unzip();
    (merged(grants), merged(gives))
}

/// A metric whose sample count is a float tally.
fn m(name: &str, value: f64, unit: &'static str, samples: f64) -> Metric {
    Metric::new(name, value, unit, samples as u64)
}

/// `numerator` per unit of `denominator`, with the denominator as the
/// sample count.
fn per(name: &str, numerator: f64, denominator: f64, unit: &'static str) -> Metric {
    m(name, ratio(numerator, denominator), unit, denominator)
}

/// The median of a span histogram.
fn p50(name: &str, hist: &Hist) -> Metric {
    Metric::new(name, hist.quantile(0.5), "ns", hist.count())
}

pub fn run(workload: Workload, seed: u64, seconds: f64, host: &Host) -> Report {
    let phase = |slab: Option<Arc<MetricsSlab>>| Phase {
        seed,
        setups: 1,
        segments: 2,
        seconds: seconds / 4.0,
        slab,
    };
    // Untraced first: once a sink is bound, every thread pays the check.
    let plain = workloads::run(workload, &phase(None));
    let slab = MetricsSlab::heap(WORKERS);
    let traced = workloads::run(workload, &phase(Some(Arc::clone(&slab))));
    let counts = traced
        .counts
        .as_ref()
        .expect("a traced phase snapshots its counters");
    let budget = Duration::from_secs_f64(seconds / 2.0 / REPLAYS as f64);
    let replay = |offset: u64| Replay::new(&slab, seed.wrapping_add(offset), budget);

    let t = &traced.tally;
    let (primaries, secondaries) = (t.primary.count() as f64, t.secondary.count() as f64);
    let kops = (primaries + secondaries) / 1000.0;
    let on = |workloads: &[Workload], ops: f64| {
        if workloads.contains(&workload) {
            ops
        } else {
            0.0
        }
    };
    let leases = on(&[Workload::LeaseWindow, Workload::LeaseRamp], primaries);
    let (increments, reads) = (
        on(&[Workload::CountMix], primaries),
        on(&[Workload::CountMix], secondaries),
    );
    let (grants, fresh) = (
        counts.get(Obs::RecyclerGrant),
        counts.get(Obs::RecyclerFresh),
    );
    let routed = counts.get(Obs::AdaptiveIncrement);
    let width_mean = ratio(t.width_sum as f64, t.width_samples as f64);
    let width = (width_mean.round() as usize)
        .clamp(2, workloads::COUNTER_WIDTH)
        .next_power_of_two();

    let recycler = Recycler::new(AdaptiveRenaming::default(), MAX_CONCURRENT);
    let (lease_ns, _) = window_replay(
        &replay(1),
        |ctx| {
            recycler
                .lease_raw(ctx)
                .expect("the window stays far below the admission bound")
        },
        |_, name| recycler.release_raw(name),
    );
    drop(recycler);
    let list = FreeList::new(4 * MAX_CONCURRENT);
    let next_fresh = AtomicUsize::new(0);
    let (pop_ns, push_ns) = window_replay(
        &replay(2),
        // A miss takes the next fresh name, as the recycler's fresh path would.
        |_| {
            list.pop_coherent()
                .unwrap_or_else(|| next_fresh.fetch_add(1, Ordering::SeqCst) + 1)
        },
        |_, name| {
            list.push(name);
        },
    );
    let (visit, traverse, deposit) = increment_replay(&replay(6), width);
    let create_us: Vec<f64> = (0..21)
        .map(|_| {
            let started = Instant::now();
            let arena = Arena::shared(RobustLeaseTable::footprint(workloads::ROBUST_CAPACITY))
                .expect("a MAP_SHARED arena of a few MB can be mapped");
            let us = started.elapsed().as_secs_f64() * 1e6;
            drop(arena);
            us
        })
        .collect();

    let mut metrics = vec![
        m("host.clock_read_ns", host.clock_read_ns, "ns", 0.0),
        per(
            "mix.secondary_share",
            secondaries,
            primaries + secondaries,
            "ratio",
        ),
        per(
            "batched.hit_ratio",
            counts.get(Obs::BatchedStashHit),
            leases,
            "ratio",
        ),
        per(
            "batched.flushes_per_kop",
            counts.get(Obs::BatchedFlush),
            kops,
            "1/kop",
        ),
        p50("recycler.lease_ns_p50", &lease_ns),
        per(
            "recycler.admission_retries_per_kop",
            counts.get(Obs::RecyclerAdmissionRetry),
            kops,
            "1/kop",
        ),
        per("recycler.fresh_ratio", fresh, leases, "ratio"),
        p50("free_list.pop_ns_p50", &pop_ns),
        p50("free_list.push_ns_p50", &push_ns),
        per("free_list.miss_ratio", fresh, grants, "ratio"),
    ];
    metrics.extend(adaptive_replay(&replay(3)));
    metrics.extend(robust_replay(&replay(4), &replay(5)));
    metrics.extend([
        p50("prism.visit_ns_p50", &visit),
        per(
            "prism.eliminated_ratio",
            counts.get(Obs::PrismEliminated),
            routed,
            "ratio",
        ),
        per(
            "prism.steps_per_incr",
            t.primary_steps.eliminations as f64,
            increments,
            "steps",
        ),
        m(
            "cascade.routed_width_mean",
            width_mean,
            "wires",
            t.width_samples as f64,
        ),
        per(
            "cascade.route_up_ratio",
            counts.get(Obs::AdaptiveRouteUp),
            routed,
            "ratio",
        ),
        p50("network.traverse_ns_p50", &traverse),
        per(
            "network.toggles_per_incr",
            t.primary_steps.balancer_toggles as f64,
            increments,
            "toggles",
        ),
        p50("exit.deposit_ns_p50", &deposit),
        per(
            "exit.reads_per_read",
            t.secondary_steps.reads as f64,
            reads,
            "reads",
        ),
        m(
            "arena.create_us",
            median(&create_us),
            "us",
            create_us.len() as f64,
        ),
        m(
            "obs.bound_overhead_primary_ns",
            t.primary.quantile(0.5) - plain.tally.primary.quantile(0.5),
            "ns",
            primaries,
        ),
        m(
            "obs.bound_overhead_secondary_ns",
            t.secondary.quantile(0.5) - plain.tally.secondary.quantile(0.5),
            "ns",
            secondaries,
        ),
    ]);
    metrics.extend(reconcile(
        workload, &plain, host, &metrics, counts, primaries,
    ));

    let mut violations = plain.tally.violations;
    violations.extend(traced.tally.violations);
    Report {
        metrics,
        attempted: plain.tally.attempted + traced.tally.attempted,
        failed: plain.tally.failed + traced.tally.failed,
        violations,
        violation_count: plain.tally.violation_count + traced.tally.violation_count,
    }
}

/// The §6 fresh path: each round builds a fresh object (timed as
/// `adaptive.build_us`), then both workers acquire a `lease_ramp` round's
/// worth of names from it, exactly as that round's leases reach it.
fn adaptive_replay(replay: &Replay) -> Vec<Metric> {
    let current: Mutex<Option<Arc<AdaptiveRenaming>>> = Mutex::new(None);
    let (results, _) = replay.on_workers(|w, ctx| {
        let mut acquire = Hist::default();
        let mut build_us = Vec::new();
        let (mut steps, mut tas, mut comparators) = (0u64, 0u64, 0u64);
        let mut first = true;
        while replay.round(w, first, || {
            let started = Instant::now();
            let object = Arc::new(AdaptiveRenaming::default());
            build_us.push(started.elapsed().as_secs_f64() * 1e6);
            *current.lock().expect("workers are parked") = Some(object);
        }) {
            first = false;
            let object = current
                .lock()
                .expect("workers are parked")
                .clone()
                .expect("worker 0 built this round's object");
            for _ in 0..RAMP_LEASES {
                let before = ctx.stats();
                let report = timed(ctx, &mut acquire, None, |ctx| {
                    object.acquire_with_report(ctx)
                })
                .expect("temporary names stay far inside the network's width");
                let after = ctx.stats();
                steps += after.total() - before.total();
                tas += after.tas_invocations - before.tas_invocations;
                comparators += report.comparators_played as u64;
            }
            drop(object);
            replay.barrier.wait();
            if w == 0 {
                *current.lock().expect("workers are parked") = None;
            }
        }
        (acquire, build_us, steps, tas, comparators)
    });
    let mut acquire = Hist::default();
    let mut build_us = Vec::new();
    let (mut steps, mut tas, mut comparators) = (0, 0, 0);
    for (hist, builds, s, t, c) in results {
        acquire.merge(&hist);
        build_us.extend(builds);
        steps += s;
        tas += t;
        comparators += c;
    }
    let n = acquire.count() as f64;
    vec![
        p50("adaptive.acquire_ns_p50", &acquire),
        m("adaptive.acquire_ns_p99", acquire.quantile(0.99), "ns", n),
        per("adaptive.steps_per_acquire", steps as f64, n, "steps"),
        per("adaptive.tas_per_acquire", tas as f64, n, "tas"),
        per(
            "adaptive.comparators_per_acquire",
            comparators as f64,
            n,
            "comparators",
        ),
        m(
            "adaptive.build_us",
            median(&build_us),
            "us",
            build_us.len() as f64,
        ),
    ]
}

/// The robust table's acquire/release under the FIFO window, then
/// restart cycles on the same table: refill, one whole-fleet recovery.
fn robust_replay(churn: &Replay, restarts: &Replay) -> Vec<Metric> {
    let shared = build_robust();
    let table = &shared.table;
    let tag = |w: usize| w as u32 + 1;
    let (results, counts) = churn.on_workers(|w, ctx| {
        let mut stream = WindowStream::new(churn.seed, w, WINDOW, SLACK);
        let acquire_one = |ctx: &mut ProcessCtx| {
            table
                .acquire(ctx, tag(w))
                .expect("the window stays far below the capacity")
        };
        let mut held: VecDeque<usize> = (0..stream.window()).map(|_| acquire_one(ctx)).collect();
        let (mut acquire, mut release, mut reads) = (Hist::default(), Hist::default(), 0u64);
        while churn.running() {
            match stream.next_op() {
                LeaseOp::Lease => {
                    let before = ctx.stats().reads;
                    held.push_back(timed(ctx, &mut acquire, None, acquire_one));
                    reads += ctx.stats().reads - before;
                }
                LeaseOp::Release => {
                    let name = held.pop_front().expect("the window never empties");
                    timed(ctx, &mut release, None, |ctx| table.release(ctx, name));
                }
            }
        }
        for name in held {
            table.release(ctx, name);
        }
        (acquire, release, reads)
    });
    let (mut acquire, mut release, mut reads) = (Hist::default(), Hist::default(), 0);
    for (a, r, n) in results {
        acquire.merge(&a);
        release.merge(&r);
        reads += n;
    }
    let kops = (acquire.count() + release.count()) as f64 / 1000.0;
    let acquires = acquire.count() as f64;
    let mut metrics = vec![
        p50("robust.acquire_ns_p50", &acquire),
        p50("robust.release_ns_p50", &release),
        per("robust.reads_per_acquire", reads as f64, acquires, "reads"),
        per(
            "robust.cas_retries_per_kop",
            counts.get(Obs::RobustCasRetry),
            kops,
            "1/kop",
        ),
    ];

    let (results, counts) = restarts.on_workers(|w, ctx| {
        let (mut scans, mut reclaimed) = (Hist::default(), 0usize);
        let mut first = true;
        while restarts.round(w, first, || {}) {
            first = false;
            for _ in 0..WINDOW {
                table
                    .acquire(ctx, tag(w))
                    .expect("the window stays far below the capacity");
            }
            restarts.barrier.wait();
            if w == 0 {
                let epoch = table.last_recovered_epoch() + 1;
                let report = timed(ctx, &mut scans, None, |ctx| {
                    recover_with(ctx, table, &[], epoch, |_| true, true)
                });
                reclaimed += report.reclaimed;
            }
            restarts.barrier.wait();
        }
        (scans, reclaimed)
    });
    let (mut scans, mut reclaimed) = (Hist::default(), 0);
    for (s, r) in results {
        scans.merge(&s);
        reclaimed += r;
    }
    let runs = counts.get(Obs::RecoverRuns);
    metrics.extend([
        m(
            "recovery.scan_us_p50",
            scans.quantile(0.5) / 1000.0,
            "us",
            scans.count() as f64,
        ),
        per(
            "recovery.reclaimed_per_run",
            reclaimed as f64,
            runs,
            "names",
        ),
        m(
            "recovery.summary_repairs",
            counts.get(Obs::RecoverSummaryRepairs),
            "count",
            runs,
        ),
    ]);
    metrics
}

/// Splits the untraced primary p50 into the replayed layers on its
/// blocking path (each weighted by how often the traced phase called it),
/// the clock read, and the unattributed residual.
fn reconcile(
    workload: Workload,
    plain: &Measured,
    host: &Host,
    metrics: &[Metric],
    counts: &Counts,
    primaries: f64,
) -> Vec<Metric> {
    let get = |name: &str| {
        metrics
            .iter()
            .find(|m| m.name == name)
            .map_or(0.0, |m| m.value)
    };
    let per_op = |metric: Obs| ratio(counts.get(metric), primaries);
    let layers = match workload {
        Workload::LeaseWindow | Workload::LeaseRamp => {
            per_op(Obs::RecyclerGrant) * get("free_list.pop_ns_p50")
                + per_op(Obs::RecyclerFresh) * get("adaptive.acquire_ns_p50")
        }
        Workload::RobustRestart => get("robust.acquire_ns_p50"),
        Workload::CountMix => {
            get("prism.visit_ns_p50")
                + (1.0 - get("prism.eliminated_ratio"))
                    * (get("network.traverse_ns_p50") + get("exit.deposit_ns_p50"))
        }
    };
    let e2e = plain.tally.primary.quantile(0.5);
    let layer_sum = host.clock_read_ns + layers;
    let n = plain.tally.primary.count();
    vec![
        Metric::new("reconcile.e2e_p50_ns", e2e, "ns", n),
        Metric::new("reconcile.layer_sum_ns", layer_sum, "ns", n),
        Metric::new("reconcile.residual_ns", e2e - layer_sum, "ns", n),
    ]
}

/// An increment taken apart at its layer boundaries: the benchmark calls
/// one cascade layer's prism, balancing network and exit wire in turn,
/// with a span around each, just as `AdaptiveNetworkCounter::increment`
/// does after routing to that layer.
fn increment_replay(replay: &Replay, width: usize) -> (Hist, Hist, Hist) {
    // The cascade's layer of this width: width/2 prism slots and a spin
    // window of 16 polls doubled per level above width 2.
    let level = width.trailing_zeros() - 1;
    let prism = Prism::new(width / 2, 16 << level);
    let network = CompiledBalancingNetwork::compile(&*CountingFamily::Bitonic.schedule(width));
    let exits = NetworkCounter::new(CountingFamily::Bitonic, width);
    let (spans, _) = replay.on_workers(|w, ctx| {
        let (mut visit, mut traverse, mut deposit) =
            (Hist::default(), Hist::default(), Hist::default());
        while replay.running() {
            if timed(ctx, &mut visit, None, |ctx| prism.visit(ctx)) != PrismOutcome::Eliminated {
                let wire = timed(ctx, &mut traverse, None, |ctx| {
                    network.traverse(ctx, w % width)
                });
                timed(ctx, &mut deposit, None, |ctx| exits.deposit(ctx, wire));
            }
        }
        (visit, traverse, deposit)
    });
    let (mut visit, mut traverse, mut deposit) =
        (Hist::default(), Hist::default(), Hist::default());
    for (v, t, d) in spans {
        visit.merge(&v);
        traverse.merge(&t);
        deposit.merge(&d);
    }
    (visit, traverse, deposit)
}
