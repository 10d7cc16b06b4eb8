//! The four closed-loop workloads, driven by [`WORKERS`] threads through the
//! public API.
//!
//! A phase sets the object up `setups` times (timing each set-up, warm-up
//! included), then measures `segments` equal time slices. Each worker
//! times its own ops with `Instant` inside the thread; thread spawn,
//! barriers, stream generation and the benchmark's own correctness checks
//! stay outside every latency sample. Segment throughput is ops over the
//! slice's wall time, so work the workload does between ops (a
//! `lease_ramp` round's construction, a `robust_restart` recovery) counts
//! against it.

use crate::hist::{Hist, Segmented};
use crate::stream::{shuffled, LeaseOp, MixStream, Rng, WindowStream, PURPOSE_CTX, PURPOSE_ORDER};
use adaptive_renaming::lease::LongLivedRenaming;
use adaptive_renaming::recovery::recover_with;
use adaptive_renaming::robust::RobustLeaseTable;
use adaptive_renaming::traits::Renaming;
use cnet::{AdaptiveNetworkCounter, CountingFamily};
use obs::MetricsSlab;
use shmem::arena::Arena;
use shmem::process::{ProcessCtx, ProcessId};
use shmem::steps::StepStats;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Barrier, Mutex};
use std::time::{Duration, Instant};

/// Worker threads per workload; the run refuses hosts with fewer vCPUs.
pub const WORKERS: usize = 2;
/// Live leases each worker's FIFO window walks around.
pub const WINDOW: usize = 512;
/// Fresh leases each worker takes per `lease_ramp` round.
pub const RAMP_LEASES: usize = 128;
/// How far the window may wander from [`WINDOW`].
pub const SLACK: usize = 64;
/// The long-lived object's admission bound (`.max_concurrent`).
pub const MAX_CONCURRENT: usize = 4096;
/// Names in the robust table.
pub const ROBUST_CAPACITY: usize = 65536;
/// Widest layer of the adaptive counter cascade (layers 2, 4, 8, 16).
pub const COUNTER_WIDTH: usize = 16;
/// Ops each worker runs after filling its window, before timing starts.
const WARM_OPS: usize = 20_000;
/// `count_mix` warm-up ops per worker: long enough that the contention
/// sensor's excursions between cascade widths average out, so set-up time
/// does not depend on which width the warm-up happened to end on.
const COUNT_WARM_OPS: usize = 200_000;
/// Churn ops per worker between two `robust_restart` recoveries.
const ROBUST_CHURN: usize = 1024;
/// `lease_ramp` rounds in one warm-up.
const WARM_ROUNDS: usize = 2;
/// Violations kept verbatim per worker (the rest are only counted).
const MAX_REPORTED: usize = 8;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    LeaseWindow,
    LeaseRamp,
    RobustRestart,
    CountMix,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::LeaseWindow,
        Workload::LeaseRamp,
        Workload::RobustRestart,
        Workload::CountMix,
    ];

    pub fn parse(name: &str) -> Option<Workload> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::LeaseWindow => "lease_window",
            Workload::LeaseRamp => "lease_ramp",
            Workload::RobustRestart => "robust_restart",
            Workload::CountMix => "count_mix",
        }
    }

    /// The op behind the `primary_*` metrics, then the one behind
    /// `secondary_*`.
    pub fn ops(self) -> (&'static str, &'static str) {
        match self {
            Workload::LeaseWindow | Workload::LeaseRamp => ("lease", "release"),
            Workload::RobustRestart => ("acquire", "release"),
            Workload::CountMix => ("increment", "read"),
        }
    }
}

/// How one phase of a run is driven.
pub struct Phase {
    pub seed: u64,
    pub setups: usize,
    pub segments: usize,
    pub seconds: f64,
    /// Bound to every worker when set: the traced phase.
    pub slab: Option<Arc<MetricsSlab>>,
}

impl Phase {
    fn traced(&self) -> bool {
        self.slab.is_some()
    }

    /// Binds the obs metric sink on the calling worker (traced phases).
    fn bind(&self, worker: usize) {
        if let Some(slab) = &self.slab {
            obs::bind_metrics(slab.writer(worker));
        }
    }

    fn ctx(&self, worker: usize) -> ProcessCtx {
        ProcessCtx::new(
            ProcessId::new(worker),
            Rng::new(self.seed, worker, PURPOSE_CTX).next_u64(),
        )
    }
}

/// Everything the workers of one phase measured, merged.
#[derive(Default)]
pub struct Tally {
    pub primary: Segmented,
    pub secondary: Segmented,
    /// Step deltas summed over the timed ops (traced phases only).
    pub primary_steps: StepStats,
    pub secondary_steps: StepStats,
    /// `robust_restart` recovery scans, in microseconds.
    pub recover_us: Hist,
    pub attempted: u64,
    pub failed: u64,
    /// Largest name granted.
    pub max_name: usize,
    /// Sum over workers of each worker's largest live window.
    pub peak_live: usize,
    /// `count_mix` (traced): routed cascade width sampled per increment.
    pub width_sum: u64,
    pub width_samples: u64,
    pub violations: Vec<String>,
    pub violation_count: u64,
}

impl Tally {
    fn merge(&mut self, other: Tally) {
        self.primary.merge(&other.primary);
        self.secondary.merge(&other.secondary);
        add_steps(&mut self.primary_steps, &other.primary_steps);
        add_steps(&mut self.secondary_steps, &other.secondary_steps);
        self.recover_us.merge(&other.recover_us);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.max_name = self.max_name.max(other.max_name);
        self.peak_live += other.peak_live;
        self.width_sum += other.width_sum;
        self.width_samples += other.width_samples;
        self.violation_count += other.violation_count;
        self.violations.extend(other.violations);
        self.violations.truncate(MAX_REPORTED * WORKERS);
    }

    /// Starts a measured segment.
    fn begin_segment(&mut self) {
        self.primary.begin();
        self.secondary.begin();
    }

    fn violation(&mut self, what: String) {
        self.violation_count += 1;
        if self.violations.len() < MAX_REPORTED {
            self.violations.push(what);
        }
    }

    /// Folds a warm-up tally in: its violations count, its samples don't.
    fn keep_violations(&mut self, warm: Tally) {
        self.violation_count += warm.violation_count;
        self.violations.extend(warm.violations);
        self.max_name = self.max_name.max(warm.max_name);
    }
}

/// `obs` counters merged over the stripes, read once and then cleared.
pub struct Counts(Vec<(obs::Metric, u64)>);

impl Counts {
    pub fn take(slab: &MetricsSlab) -> Counts {
        let words = obs::metrics::ALL_METRICS
            .into_iter()
            .filter(|m| m.kind() != obs::metrics::MetricKind::Histogram)
            .map(|m| (m, slab.merged_word(m)))
            .collect();
        slab.reset();
        Counts(words)
    }

    pub fn get(&self, metric: obs::Metric) -> f64 {
        self.0
            .iter()
            .find(|(m, _)| *m == metric)
            .map_or(0.0, |&(_, v)| v as f64)
    }
}

/// One phase's results.
pub struct Measured {
    pub setup_s: Vec<f64>,
    pub rates: Vec<f64>,
    pub tally: Tally,
    /// Traced phases: the `obs` counters of the measured slices alone.
    pub counts: Option<Counts>,
}

fn add_steps(sum: &mut StepStats, delta: &StepStats) {
    sum.reads += delta.reads;
    sum.writes += delta.writes;
    sum.rmws += delta.rmws;
    sum.tas_invocations += delta.tas_invocations;
    sum.coin_flips += delta.coin_flips;
    sum.releases += delta.releases;
    sum.balancer_toggles += delta.balancer_toggles;
    sum.eliminations += delta.eliminations;
}

fn step_delta(before: StepStats, after: StepStats) -> StepStats {
    StepStats {
        reads: after.reads - before.reads,
        writes: after.writes - before.writes,
        rmws: after.rmws - before.rmws,
        tas_invocations: after.tas_invocations - before.tas_invocations,
        coin_flips: after.coin_flips - before.coin_flips,
        releases: after.releases - before.releases,
        balancer_toggles: after.balancer_toggles - before.balancer_toggles,
        eliminations: after.eliminations - before.eliminations,
    }
}

/// Times one op into `hist` — the span is the call alone — and, when
/// `steps` is given, adds the op's step delta read from `ctx`.
#[inline(always)]
pub fn timed<T>(
    ctx: &mut ProcessCtx,
    hist: &mut Hist,
    steps: Option<&mut StepStats>,
    op: impl FnOnce(&mut ProcessCtx) -> T,
) -> T {
    let before = steps.as_ref().map(|_| ctx.stats());
    let start = Instant::now();
    let out = op(ctx);
    hist.record(start.elapsed().as_nanos() as u64);
    if let (Some(sum), Some(before)) = (steps, before) {
        add_steps(sum, &step_delta(before, ctx.stats()));
    }
    out
}

/// One flag per name: the benchmark's own record of who holds what, so a
/// name granted twice while live, or above its bound, fails the run.
pub struct Holders {
    flags: Vec<AtomicBool>,
}

impl Holders {
    pub fn new(bound: usize) -> Self {
        Holders {
            flags: (0..=bound).map(|_| AtomicBool::new(false)).collect(),
        }
    }

    fn grant(&self, name: usize, tally: &mut Tally) {
        tally.max_name = tally.max_name.max(name);
        if name == 0 || name >= self.flags.len() {
            tally.violation(format!("name {name} outside 1..={}", self.flags.len() - 1));
        } else if self.flags[name].swap(true, Ordering::SeqCst) {
            tally.violation(format!("name {name} granted while another holder has it"));
        }
    }

    /// Clears a name's flag; call before handing the name back, so a
    /// racing re-grant never sees it still set.
    fn give_back(&self, name: usize, tally: &mut Tally) {
        if !self.flags[name].swap(false, Ordering::SeqCst) {
            tally.violation(format!("name {name} released but not held"));
        }
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Cmd {
    Warm,
    Measure,
    Drain,
    Quit,
}

/// Main-to-worker sequencing. The main thread posts a command and meets
/// the workers at `start`; they run it and meet again at `end`.
struct Control<S: ?Sized> {
    start: Barrier,
    end: Barrier,
    /// Worker-only rendezvous inside rounds (`lease_ramp`,
    /// `robust_restart`).
    round: Barrier,
    cmd: Mutex<Cmd>,
    stop: AtomicBool,
    /// Worker 0's verdict on whether another round starts.
    go: AtomicBool,
    ops: AtomicU64,
    object: Mutex<Option<Arc<S>>>,
}

impl<S: ?Sized> Control<S> {
    fn new() -> Self {
        Control {
            start: Barrier::new(WORKERS + 1),
            end: Barrier::new(WORKERS + 1),
            round: Barrier::new(WORKERS),
            cmd: Mutex::new(Cmd::Quit),
            stop: AtomicBool::new(false),
            go: AtomicBool::new(false),
            ops: AtomicU64::new(0),
            object: Mutex::new(None),
        }
    }

    fn post(&self, cmd: Cmd) {
        *self
            .cmd
            .lock()
            .expect("no thread panics holding the command") = cmd;
        self.stop.store(false, Ordering::SeqCst);
        self.start.wait();
    }

    fn run(&self, cmd: Cmd) {
        self.post(cmd);
        self.end.wait();
    }

    /// Runs `cmd` for `slice`, then raises the stop flag and returns the
    /// wall time until every worker stopped.
    fn run_for(&self, cmd: Cmd, slice: Duration) -> Duration {
        self.post(cmd);
        let started = Instant::now();
        std::thread::sleep(slice);
        self.stop.store(true, Ordering::SeqCst);
        self.end.wait();
        started.elapsed()
    }

    fn next(&self) -> Cmd {
        self.start.wait();
        *self
            .cmd
            .lock()
            .expect("no thread panics holding the command")
    }

    fn done(&self, ops: u64) {
        self.ops.fetch_add(ops, Ordering::SeqCst);
        self.end.wait();
    }

    fn stopped(&self) -> bool {
        self.stop.load(Ordering::SeqCst)
    }

    fn object(&self) -> Arc<S> {
        Arc::clone(
            self.object
                .lock()
                .expect("no thread panics holding the object")
                .as_ref()
                .expect("the main thread sets the object before posting"),
        )
    }

    /// Whether another round starts: worker 0 decides (`more`), the others
    /// learn it at the round barrier.
    fn round_begins(&self, worker: usize, more: impl FnOnce() -> bool) -> bool {
        if worker == 0 {
            self.go.store(more(), Ordering::SeqCst);
        }
        self.round.wait();
        self.go.load(Ordering::SeqCst)
    }
}

/// Runs one phase: `setups` timed set-ups (the last one is kept), then
/// `segments` measured slices, then a drain checked by `check`.
fn drive<S: ?Sized + Send + Sync>(
    phase: &Phase,
    build: impl Fn() -> Arc<S>,
    check: impl Fn(&S) -> Result<(), String>,
    worker: impl Fn(usize, &Control<S>) -> Tally + Sync,
) -> Measured {
    let ctl = Control::<S>::new();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..WORKERS)
            .map(|w| {
                let (ctl, worker) = (&ctl, &worker);
                scope.spawn(move || worker(w, ctl))
            })
            .collect();
        let mut checks = Vec::new();
        let mut setup_s = Vec::new();
        for round in 0..phase.setups {
            let started = Instant::now();
            *ctl.object.lock().expect("workers are parked") = Some(build());
            ctl.run(Cmd::Warm);
            setup_s.push(started.elapsed().as_secs_f64());
            if round + 1 < phase.setups {
                ctl.run(Cmd::Drain);
                checks.push(check(&ctl.object()));
            }
        }
        if let Some(slab) = &phase.slab {
            slab.reset(); // forget the set-ups' counts
        }
        let slice = Duration::from_secs_f64(phase.seconds / phase.segments as f64);
        let mut rates = Vec::new();
        for _ in 0..phase.segments {
            ctl.ops.store(0, Ordering::SeqCst);
            let wall = ctl.run_for(Cmd::Measure, slice);
            rates.push(ctl.ops.load(Ordering::SeqCst) as f64 / wall.as_secs_f64());
        }
        let counts = phase.slab.as_deref().map(Counts::take);
        ctl.run(Cmd::Drain);
        checks.push(check(&ctl.object()));
        ctl.post(Cmd::Quit);
        let mut tally = Tally::default();
        for handle in handles {
            tally.merge(handle.join().expect("a worker panicked"));
        }
        for error in checks.into_iter().filter_map(Result::err) {
            tally.violation(error);
        }
        Measured {
            setup_s,
            rates,
            tally,
            counts,
        }
    })
}

pub fn run(workload: Workload, phase: &Phase) -> Measured {
    match workload {
        Workload::LeaseWindow => lease_window(phase),
        Workload::LeaseRamp => lease_ramp(phase),
        Workload::RobustRestart => robust_restart(phase),
        Workload::CountMix => count_mix(phase),
    }
}

/// The builder-default long-lived object: batch-8 stash over a `Recycler`
/// over §6 adaptive renaming.
pub fn build_long_lived() -> Arc<dyn LongLivedRenaming> {
    <dyn Renaming>::builder()
        .max_concurrent(MAX_CONCURRENT)
        .build_long_lived()
        .expect("the builder defaults with a concurrency bound are valid")
}

fn drained(live: usize) -> Result<(), String> {
    if live == 0 {
        Ok(())
    } else {
        Err(format!("live_leases() = {live} after the drain"))
    }
}

/// What the lease workloads take names from and hand them back to.
trait Lessor {
    fn grant(&self, ctx: &mut ProcessCtx) -> Option<usize>;
    /// Returns the name; false when the release did not take effect.
    fn give(&self, ctx: &mut ProcessCtx, name: usize) -> bool;
}

impl Lessor for Arc<dyn LongLivedRenaming> {
    fn grant(&self, ctx: &mut ProcessCtx) -> Option<usize> {
        self.lease_raw(ctx).ok()
    }

    fn give(&self, _: &mut ProcessCtx, name: usize) -> bool {
        self.release_raw(name);
        true
    }
}

/// The robust table, leasing under one worker's owner tag.
struct Tagged<'a> {
    table: &'a RobustLeaseTable,
    tag: u32,
}

impl Lessor for Tagged<'_> {
    fn grant(&self, ctx: &mut ProcessCtx) -> Option<usize> {
        self.table.acquire(ctx, self.tag).ok()
    }

    fn give(&self, ctx: &mut ProcessCtx, name: usize) -> bool {
        self.table.release(ctx, name)
    }
}

/// One worker's side of the lease workloads: its context, the shared
/// holder table, and whether step deltas are recorded.
struct Leaser<'a> {
    ctx: ProcessCtx,
    holders: &'a Holders,
    traced: bool,
}

impl Leaser<'_> {
    /// One timed grant, checked against the holder table.
    fn lease(&mut self, lessor: &dyn Lessor, tally: &mut Tally) -> Option<usize> {
        tally.attempted += 1;
        let steps = self.traced.then_some(&mut tally.primary_steps);
        let granted = timed(&mut self.ctx, tally.primary.current(), steps, |ctx| {
            lessor.grant(ctx)
        });
        match granted {
            Some(name) => self.holders.grant(name, tally),
            None => tally.failed += 1,
        }
        granted
    }

    /// One timed release; the holder flag clears first.
    fn release(&mut self, lessor: &dyn Lessor, tally: &mut Tally, name: usize) {
        tally.attempted += 1;
        self.holders.give_back(name, tally);
        let steps = self.traced.then_some(&mut tally.secondary_steps);
        if !timed(&mut self.ctx, tally.secondary.current(), steps, |ctx| {
            lessor.give(ctx, name)
        }) {
            tally.violation(format!("release of held name {name} did not take effect"));
        }
    }
}

/// A worker's FIFO window of held names.
struct Window {
    held: VecDeque<usize>,
    stream: WindowStream,
}

impl Window {
    fn new(seed: u64, worker: usize) -> Self {
        Window {
            held: VecDeque::with_capacity(WINDOW + SLACK + 1),
            stream: WindowStream::new(seed, worker, WINDOW, SLACK),
        }
    }

    /// Leases until the window holds what the stream says it should;
    /// returns the ops run.
    fn fill(&mut self, leaser: &mut Leaser, lessor: &dyn Lessor, tally: &mut Tally) -> u64 {
        let mut ops = 0;
        while self.held.len() < self.stream.window() {
            self.lease(leaser, lessor, tally);
            ops += 1;
        }
        ops
    }

    fn lease(&mut self, leaser: &mut Leaser, lessor: &dyn Lessor, tally: &mut Tally) {
        if let Some(name) = leaser.lease(lessor, tally) {
            self.held.push_back(name);
            tally.peak_live = tally.peak_live.max(self.held.len());
        }
    }

    /// The stream's next op: lease, or release the oldest name.
    fn step(&mut self, leaser: &mut Leaser, lessor: &dyn Lessor, tally: &mut Tally) {
        match self.stream.next_op() {
            LeaseOp::Lease => self.lease(leaser, lessor, tally),
            LeaseOp::Release => {
                if let Some(name) = self.held.pop_front() {
                    leaser.release(lessor, tally, name);
                }
            }
        }
    }

    /// Set-up: fill, then [`WARM_OPS`] untimed-for-the-result ops.
    fn warm(&mut self, leaser: &mut Leaser, lessor: &dyn Lessor, tally: &mut Tally) {
        let mut warm = Tally::default();
        self.fill(leaser, lessor, &mut warm);
        for _ in 0..WARM_OPS {
            self.step(leaser, lessor, &mut warm);
        }
        tally.keep_violations(warm);
    }

    /// Releases every held name, untimed.
    fn drain(&mut self, leaser: &mut Leaser, lessor: &dyn Lessor, tally: &mut Tally) {
        for name in self.held.drain(..) {
            leaser.holders.give_back(name, tally);
            lessor.give(&mut leaser.ctx, name);
        }
    }
}

fn lease_window(phase: &Phase) -> Measured {
    let holders = Holders::new(MAX_CONCURRENT);
    drive(
        phase,
        build_long_lived,
        |object| drained(object.live_leases()),
        |w, ctl| {
            phase.bind(w);
            let mut leaser = Leaser {
                ctx: phase.ctx(w),
                holders: &holders,
                traced: phase.traced(),
            };
            let mut window = Window::new(phase.seed, w);
            let mut tally = Tally::default();
            loop {
                let cmd = ctl.next();
                if cmd == Cmd::Quit {
                    return tally;
                }
                let object = ctl.object();
                let mut ops = 0;
                match cmd {
                    Cmd::Warm => window.warm(&mut leaser, &object, &mut tally),
                    Cmd::Measure => {
                        tally.begin_segment();
                        while !ctl.stopped() {
                            window.step(&mut leaser, &object, &mut tally);
                            ops += 1;
                        }
                    }
                    Cmd::Drain => window.drain(&mut leaser, &object, &mut tally),
                    Cmd::Quit => unreachable!("handled above"),
                }
                ctl.done(ops);
            }
        },
    )
}

/// The object a `lease_ramp` round builds; worker 0 fills the slot.
type RampSlot = Mutex<Option<Arc<dyn LongLivedRenaming>>>;

fn lease_ramp(phase: &Phase) -> Measured {
    let holders = Holders::new(MAX_CONCURRENT);
    let slot: RampSlot = Mutex::new(None);
    drive(
        phase,
        || Arc::new(()),
        |_| Ok(()),
        |w, ctl| {
            phase.bind(w);
            let mut leaser = Leaser {
                ctx: phase.ctx(w),
                holders: &holders,
                traced: phase.traced(),
            };
            let mut order_rng = Rng::new(phase.seed, w, PURPOSE_ORDER);
            let mut held = Vec::with_capacity(RAMP_LEASES);
            let mut tally = Tally::default();
            loop {
                let cmd = ctl.next();
                let warm = match cmd {
                    Cmd::Quit => return tally,
                    Cmd::Drain => {
                        ctl.done(0);
                        continue;
                    }
                    Cmd::Warm => true,
                    Cmd::Measure => false,
                };
                let mut scratch = Tally::default();
                let sink = if warm {
                    &mut scratch
                } else {
                    tally.begin_segment();
                    &mut tally
                };
                let (mut ops, mut rounds) = (0, 0);
                while ctl.round_begins(w, || {
                    let more = if warm {
                        rounds < WARM_ROUNDS
                    } else {
                        !ctl.stopped()
                    };
                    if more {
                        *slot.lock().expect("workers are parked") = Some(build_long_lived());
                    }
                    more
                }) {
                    let object = Arc::clone(
                        slot.lock()
                            .expect("workers are parked")
                            .as_ref()
                            .expect("worker 0 built this round's object"),
                    );
                    held.extend((0..RAMP_LEASES).filter_map(|_| leaser.lease(&object, sink)));
                    sink.peak_live = sink.peak_live.max(held.len());
                    ctl.round.wait();
                    for index in shuffled(&mut order_rng, held.len()) {
                        leaser.release(&object, sink, held[index]);
                    }
                    ops += 2 * held.len() as u64;
                    held.clear();
                    ctl.round.wait();
                    if w == 0 {
                        if let Err(error) = drained(object.live_leases()) {
                            sink.violation(error);
                        }
                        *slot.lock().expect("workers are parked") = None;
                    }
                    rounds += 1;
                }
                if warm {
                    tally.keep_violations(scratch);
                }
                ctl.done(ops);
            }
        },
    )
}

/// The crash-robust deployment: a table in a `MAP_SHARED` arena.
pub struct RobustShared {
    pub table: RobustLeaseTable,
    /// Names the workers held when a recovery started.
    held: AtomicUsize,
}

pub fn build_robust() -> Arc<RobustShared> {
    let arena = Arena::shared(RobustLeaseTable::footprint(ROBUST_CAPACITY))
        .expect("a MAP_SHARED arena of a few MB can be mapped");
    Arc::new(RobustShared {
        table: RobustLeaseTable::with_capacity_in(&arena, ROBUST_CAPACITY),
        held: AtomicUsize::new(0),
    })
}

fn robust_restart(phase: &Phase) -> Measured {
    let holders = Holders::new(ROBUST_CAPACITY);
    drive(
        phase,
        build_robust,
        |shared| drained(shared.table.live_leases()),
        |w, ctl| {
            phase.bind(w);
            let mut leaser = Leaser {
                ctx: phase.ctx(w),
                holders: &holders,
                traced: phase.traced(),
            };
            let mut window = Window::new(phase.seed, w);
            let mut tally = Tally::default();
            loop {
                let cmd = ctl.next();
                if cmd == Cmd::Quit {
                    return tally;
                }
                let shared = ctl.object();
                // In-process owner tags: nonzero and distinct per worker.
                let lessor = Tagged {
                    table: &shared.table,
                    tag: w as u32 + 1,
                };
                let mut ops = 0;
                match cmd {
                    Cmd::Warm => window.warm(&mut leaser, &lessor, &mut tally),
                    Cmd::Measure => {
                        tally.begin_segment();
                        while ctl.round_begins(w, || !ctl.stopped()) {
                            // Refill after the last restart, then churn.
                            ops += window.fill(&mut leaser, &lessor, &mut tally);
                            for _ in 0..ROBUST_CHURN {
                                window.step(&mut leaser, &lessor, &mut tally);
                            }
                            ops += ROBUST_CHURN as u64;
                            // The fleet "dies": its names are the recovery's
                            // to reclaim, so the workers forget them.
                            shared.held.fetch_add(window.held.len(), Ordering::SeqCst);
                            for name in window.held.drain(..) {
                                holders.give_back(name, &mut tally);
                            }
                            ctl.round.wait();
                            if w == 0 {
                                restart(&mut leaser.ctx, &shared, &mut tally);
                                ops += 1;
                            }
                            ctl.round.wait();
                        }
                    }
                    Cmd::Drain => window.drain(&mut leaser, &lessor, &mut tally),
                    Cmd::Quit => unreachable!("handled above"),
                }
                ctl.done(ops);
            }
        },
    )
}

/// One restart: a timed whole-fleet `recover_with` that must reclaim
/// exactly the names the dead fleet held, then a second recovery that must
/// reclaim nothing (idempotence).
fn restart(ctx: &mut ProcessCtx, shared: &RobustShared, tally: &mut Tally) {
    let table = &shared.table;
    let held = shared.held.swap(0, Ordering::SeqCst);
    let epoch = table.last_recovered_epoch() + 1;
    let started = Instant::now();
    let report = recover_with(ctx, table, &[], epoch, |_| true, true);
    tally
        .recover_us
        .record(started.elapsed().as_nanos() as u64 / 1000);
    tally.attempted += 1;
    if !report.won || report.reclaimed != held {
        tally.violation(format!(
            "recovery at epoch {epoch} reclaimed {} of {held} held names (won: {})",
            report.reclaimed, report.won
        ));
    }
    let again = recover_with(ctx, table, &[], epoch + 1, |_| true, true);
    if again.reclaimed != 0 || again.quarantined != 0 {
        tally.violation(format!(
            "a second recovery reclaimed {} and quarantined {}",
            again.reclaimed, again.quarantined
        ));
    }
}

/// `CounterBackend::Adaptive` at width 16, built directly so the
/// quiescent checks can reach its layers.
pub struct CountShared {
    pub counter: AdaptiveNetworkCounter,
    increments: AtomicU64,
}

pub fn build_counter() -> Arc<CountShared> {
    Arc::new(CountShared {
        counter: AdaptiveNetworkCounter::new(CountingFamily::Bitonic, COUNTER_WIDTH),
        increments: AtomicU64::new(0),
    })
}

fn count_mix(phase: &Phase) -> Measured {
    drive(
        phase,
        build_counter,
        |shared| {
            let expected = shared.increments.load(Ordering::SeqCst);
            let counted = shared.counter.peek();
            if counted != expected {
                return Err(format!(
                    "counter reads {counted} after {expected} increments"
                ));
            }
            shared.counter.check_step_property().map_err(|violation| {
                format!("cascade layer breaks the step property: {violation:?}")
            })
        },
        |w, ctl| {
            phase.bind(w);
            let mut ctx = phase.ctx(w);
            let mut stream = MixStream::new(phase.seed, w);
            let mut tally = Tally::default();
            let mut increments = 0u64;
            loop {
                let cmd = ctl.next();
                let shared = match cmd {
                    Cmd::Quit => return tally,
                    _ => ctl.object(),
                };
                let counter = &shared.counter;
                let mut ops = 0;
                match cmd {
                    Cmd::Warm => {
                        for _ in 0..COUNT_WARM_OPS {
                            if stream.next_is_read() {
                                counter.read(&mut ctx);
                            } else {
                                counter.increment(&mut ctx);
                                increments += 1;
                            }
                        }
                    }
                    Cmd::Measure => {
                        let traced = phase.traced();
                        tally.begin_segment();
                        while !ctl.stopped() {
                            tally.attempted += 1;
                            if stream.next_is_read() {
                                let steps = traced.then_some(&mut tally.secondary_steps);
                                timed(&mut ctx, tally.secondary.current(), steps, |ctx| {
                                    counter.read(ctx)
                                });
                            } else {
                                if traced {
                                    tally.width_sum += counter.current_width() as u64;
                                    tally.width_samples += 1;
                                }
                                let steps = traced.then_some(&mut tally.primary_steps);
                                timed(&mut ctx, tally.primary.current(), steps, |ctx| {
                                    counter.increment(ctx)
                                });
                                increments += 1;
                            }
                            ops += 1;
                        }
                    }
                    Cmd::Drain => {
                        shared.increments.fetch_add(increments, Ordering::SeqCst);
                        increments = 0;
                    }
                    Cmd::Quit => unreachable!("handled above"),
                }
                ctl.done(ops);
            }
        },
    )
}
