//! Deterministic virtual executor: cooperative serialization of process
//! threads at every shared-memory operation.
//!
//! The [`VirtualExecutor`] is the workspace's one execution harness. It runs
//! each process closure on its own thread, but the OS scheduler does not pick
//! the interleaving (it could sample schedules, yet neither enumerate nor
//! replay them). A cooperative protocol does: every process parks at each
//! shared-memory operation (the [`ProcessCtx::record_at`] instrumentation
//! point, called by every register before the underlying atomic executes) and
//! announces the operation it is about to perform — its [`StepKind`], the
//! [`Loc`] of the memory word it touches and its [`AccessClass`]. A
//! coordinator thread waits until every live process is parked, asks a
//! [`Scheduler`] to pick the next process, and grants exactly one process at a
//! time. The result is a fully serialized, deterministic execution whose
//! interleaving is chosen step by step — the substrate the `mcheck` crate's
//! DPOR/bounded/coverage explorers are built on.
//!
//! The schedule actually taken is returned as an [`ExecTrace`] alongside the
//! ordinary [`ExecutionOutcome`], and can be replayed verbatim through
//! [`ScheduleSource::Replay`](crate::adversary::ScheduleSource).
//!
//! # Example
//!
//! ```
//! use shmem::adversary::ExecConfig;
//! use shmem::register::AtomicU64Register;
//! use shmem::vexec::VirtualExecutor;
//! use std::sync::Arc;
//!
//! let reg = Arc::new(AtomicU64Register::new(0));
//! let exec = VirtualExecutor::new(ExecConfig::new(7));
//! let run = exec.run(3, {
//!     let reg = Arc::clone(&reg);
//!     move |ctx| {
//!         reg.write(ctx, ctx.id().as_u64() + 1);
//!         reg.read(ctx)
//!     }
//! });
//! assert_eq!(run.outcome.completed().count(), 3);
//! // Replaying the recorded schedule reproduces the execution exactly.
//! let replay = VirtualExecutor::new(
//!     ExecConfig::new(7).with_schedule(shmem::adversary::ScheduleSource::Replay(
//!         run.trace.schedule.clone(),
//!     )),
//! )
//! .run(3, {
//!     let reg = Arc::new(AtomicU64Register::new(0));
//!     move |ctx| {
//!         reg.write(ctx, ctx.id().as_u64() + 1);
//!         reg.read(ctx)
//!     }
//! });
//! assert_eq!(replay.trace.schedule, run.trace.schedule);
//! ```

use crate::adversary::{ExecConfig, ScheduleSource};
use crate::executor::{ExecutionOutcome, ProcessOutcome};
use crate::process::{install_crash_panic_silencer, CrashSignal, ProcessCtx, ProcessId};
use crate::steps::StepKind;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::cell::Cell;
use std::fmt;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};

/// Identifier of a shared-memory location (one register, balancer word or
/// other atomic cell), used to key read/write dependency analysis.
///
/// Every shared word gets its own `Loc` at construction: a register draws
/// one with [`Loc::fresh`], and a block of words (a
/// [`RegisterBlock`](crate::register::RegisterBlock)) draws one contiguous
/// range with [`Loc::fresh_block`] and charges word *i* at `base + i`
/// ([`Loc::offset`]). Either way two operations conflict only if they touch
/// the same word. Ids are unique process-wide but carry no order: each
/// thread draws them from its own block, so which ids an object gets
/// depends on the thread that built it and on what that thread built
/// before. Nothing relies on the raw values — the dependency analysis only
/// compares locations *within* one execution, and `mcheck` renames them by
/// first appearance in each run.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Loc(u64);

/// Next unallocated block of location ids.
static NEXT_LOC: AtomicU64 = AtomicU64::new(1);

/// Ids a thread takes from [`NEXT_LOC`] at a time: building a shared object
/// touches the global counter once per `LOC_BLOCK` registers instead of
/// once per register.
const LOC_BLOCK: u64 = 4096;

thread_local! {
    /// The calling thread's unused ids, as the half-open range `(next, end)`.
    static LOC_IDS: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
}

impl Loc {
    /// The anonymous location, used by [`ProcessCtx::record`] call sites that
    /// predate location tracking. It conservatively conflicts with every
    /// other location.
    pub const ANON: Loc = Loc(0);

    /// Allocates a fresh, globally unique location identifier from the
    /// calling thread's block, refilling the block from the global counter
    /// when it runs out.
    pub fn fresh() -> Loc {
        Loc::fresh_block(1)
    }

    /// Allocates `n` consecutive fresh location ids and returns the first;
    /// the block's ids are `base.offset(0)` to `base.offset(n - 1)`.
    ///
    /// A block that fits in the calling thread's remaining ids is cut from
    /// them. Otherwise the thread refills first, dropping the ids it had
    /// left, so a block never straddles two refills. A block longer than a
    /// whole refill comes straight from the global counter and leaves the
    /// thread's ids untouched.
    pub fn fresh_block(n: u64) -> Loc {
        if n > LOC_BLOCK {
            return Loc(NEXT_LOC.fetch_add(n, Ordering::Relaxed)); // lint: relaxed-ok(unique id allocation only; no data is published through this counter)
        }
        LOC_IDS.with(|ids| {
            let (mut next, mut end) = ids.get();
            if end - next < n {
                next = NEXT_LOC.fetch_add(LOC_BLOCK, Ordering::Relaxed); // lint: relaxed-ok(unique id allocation only; no data is published through this counter)
                end = next + LOC_BLOCK;
            }
            ids.set((next + n, end));
            Loc(next)
        })
    }

    /// The id `index` places after this one: word `index` of a block whose
    /// base came from [`Loc::fresh_block`].
    pub fn offset(self, index: u64) -> Loc {
        Loc(self.0 + index)
    }

    /// Whether this is the anonymous (conservatively conflicting) location.
    pub fn is_anon(&self) -> bool {
        self.0 == 0
    }

    /// The raw identifier.
    pub fn as_u64(&self) -> u64 {
        self.0
    }

    /// Reconstructs a location from a raw identifier (`0` is [`Loc::ANON`]).
    ///
    /// Intended for schedule-exploration tooling that renames locations into
    /// a run-local namespace (global allocation order is not stable across
    /// re-executions that rebuild their shared objects); renamed locations
    /// compare and conflict exactly like allocated ones.
    pub fn from_raw(raw: u64) -> Loc {
        Loc(raw)
    }
}

/// The dependency class of a shared-memory operation.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum AccessClass {
    /// A purely local step (coin flips, accounting markers such as
    /// test-and-set invocation counts, arrival). Never conflicts.
    Local,
    /// A read of a shared location. Conflicts with writes and RMWs on the
    /// same location.
    Read,
    /// A write to a shared location. Conflicts with every access to the same
    /// location.
    Write,
    /// A read-modify-write (CAS, swap, fetch-add, balancer toggle,
    /// test-and-set word). Conflicts with every access to the same location.
    Rmw,
}

impl AccessClass {
    /// The dependency class implied by a [`StepKind`].
    ///
    /// `TasInvocation`, `Release` and `Elimination` are unit-cost accounting
    /// markers — the shared-memory operations they summarize are recorded
    /// separately by the registers involved — so they classify as `Local`.
    pub fn of(kind: StepKind) -> AccessClass {
        match kind {
            StepKind::RegisterRead => AccessClass::Read,
            StepKind::RegisterWrite => AccessClass::Write,
            StepKind::ReadModifyWrite | StepKind::Balancer => AccessClass::Rmw,
            StepKind::TasInvocation
            | StepKind::CoinFlip
            | StepKind::Release
            | StepKind::Elimination => AccessClass::Local,
        }
    }

    /// Whether this class can modify memory.
    pub fn is_writing(&self) -> bool {
        matches!(self, AccessClass::Write | AccessClass::Rmw)
    }
}

/// The operation a parked process has announced it will perform next.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct PendingOp {
    /// The step kind, or `None` for the arrival pseudo-step a process takes
    /// before its closure runs.
    pub kind: Option<StepKind>,
    /// The location the operation touches ([`Loc::ANON`] if unknown).
    pub loc: Loc,
    /// The dependency class of the operation.
    pub access: AccessClass,
}

impl PendingOp {
    /// The arrival pseudo-operation each process announces before running.
    pub fn begin() -> PendingOp {
        PendingOp {
            kind: None,
            loc: Loc::ANON,
            access: AccessClass::Local,
        }
    }

    /// Builds the pending operation for a recorded step.
    pub fn step(kind: StepKind, loc: Loc) -> PendingOp {
        PendingOp {
            kind: Some(kind),
            loc,
            access: AccessClass::of(kind),
        }
    }

    /// Whether the two operations are *dependent*: reordering adjacent
    /// occurrences can change the execution. Local steps never conflict; an
    /// anonymous location conservatively conflicts with every non-local
    /// operation; otherwise two operations conflict iff they touch the same
    /// location and at least one writes it.
    pub fn conflicts_with(&self, other: &PendingOp) -> bool {
        if self.access == AccessClass::Local || other.access == AccessClass::Local {
            return false;
        }
        if self.loc.is_anon() || other.loc.is_anon() {
            return true;
        }
        self.loc == other.loc && (self.access.is_writing() || other.access.is_writing())
    }
}

/// Internal panic payload used by the coordinator to stop a process whose
/// execution the scheduler has abandoned (schedule truncation or sleep-set
/// pruning). The process is reported as crashed. User code never observes it.
#[derive(Clone, Copy, Debug)]
pub struct ScheduleAbort;

/// Installs a panic hook silencing the internal [`ScheduleAbort`] payload
/// (in addition to the [`CrashSignal`] silencer). Called by the virtual
/// executor; calling it multiple times is harmless.
pub fn install_abort_panic_silencer() {
    use std::sync::Once;
    static INSTALL: Once = Once::new();
    INSTALL.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if info.payload().downcast_ref::<ScheduleAbort>().is_none() {
                previous(info);
            }
        }));
    });
}

#[derive(Debug, Default)]
struct GateState {
    pending: Option<PendingOp>,
    granted: bool,
    abort: bool,
    finished: bool,
}

/// The per-process rendezvous through which the coordinator serializes
/// shared-memory steps. Installed into each [`ProcessCtx`] by the virtual
/// executor; [`ProcessCtx::record_at`] parks on it before every non-local
/// operation.
#[derive(Default)]
pub(crate) struct Gate {
    state: Mutex<GateState>,
    cv: Condvar,
}

impl fmt::Debug for Gate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Gate").finish_non_exhaustive()
    }
}

impl Gate {
    /// Worker side: announce `op`, block until the coordinator grants this
    /// process the next step. Returns `false` if the coordinator asked the
    /// process to abort instead of proceeding.
    pub(crate) fn park(&self, op: PendingOp) -> bool {
        let mut st = self.state.lock().expect("gate poisoned");
        st.pending = Some(op);
        self.cv.notify_all();
        while !st.granted {
            st = self.cv.wait(st).expect("gate poisoned");
        }
        st.granted = false;
        !st.abort
    }

    /// Worker side: mark the process finished (returned, crashed or aborted).
    fn mark_finished(&self) {
        let mut st = self.state.lock().expect("gate poisoned");
        st.finished = true;
        self.cv.notify_all();
    }

    /// Coordinator side: block until the process is parked (returning its
    /// announced operation) or finished (returning `None`).
    fn wait_parked(&self) -> Option<PendingOp> {
        let mut st = self.state.lock().expect("gate poisoned");
        loop {
            if let Some(op) = st.pending {
                return Some(op);
            }
            if st.finished {
                return None;
            }
            st = self.cv.wait(st).expect("gate poisoned");
        }
    }

    /// Coordinator side: let the parked process take its announced step (or
    /// abort it). Consumes `pending` here — not in [`Gate::park`] — so the
    /// coordinator's next [`Gate::wait_parked`] blocks until the worker
    /// actually reaches its *next* park rather than re-observing a stale op.
    fn grant(&self, abort: bool) {
        let mut st = self.state.lock().expect("gate poisoned");
        st.granted = true;
        st.abort = abort;
        st.pending = None;
        self.cv.notify_all();
    }
}

/// One granted step of a virtual execution.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct OpEvent {
    /// The process that took the step.
    pub pid: ProcessId,
    /// The operation it performed.
    pub op: PendingOp,
    /// Snapshot of every parked process and its announced operation at the
    /// moment of the scheduling decision, in process-index order. This is the
    /// "enabled set" the scheduler chose from.
    pub enabled: Vec<(ProcessId, PendingOp)>,
}

/// A recorded schedule: the sequence of processes granted steps, in order.
/// Replayable through [`ScheduleSource::Replay`]; entries that name a process
/// that is not enabled at replay time are skipped, and an exhausted schedule
/// falls back to the lowest-index enabled process, so shrunk or hand-edited
/// schedules still replay deterministically.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Schedule {
    /// The granted process at each step (arrival pseudo-steps included).
    pub choices: Vec<ProcessId>,
}

impl Schedule {
    /// Creates a schedule from explicit choices.
    pub fn new(choices: Vec<ProcessId>) -> Self {
        Schedule { choices }
    }

    /// Number of choices.
    pub fn len(&self) -> usize {
        self.choices.len()
    }

    /// Whether the schedule is empty.
    pub fn is_empty(&self) -> bool {
        self.choices.is_empty()
    }
}

/// The full trace of one virtual execution.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ExecTrace {
    /// Every granted step, in execution order.
    pub events: Vec<OpEvent>,
    /// The schedule actually taken (the `pid` of each event, in order).
    pub schedule: Schedule,
    /// Whether the execution was cut off by the step budget.
    pub truncated: bool,
    /// Whether the scheduler abandoned the execution ([`SchedulerDecision::Abort`]).
    pub aborted: bool,
}

/// The decision a [`Scheduler`] returns at each step.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SchedulerDecision {
    /// Grant the next step to this process (must be one of the enabled).
    Pick(ProcessId),
    /// Abandon the execution: all remaining processes are aborted and
    /// reported as crashed, and the trace is marked
    /// [`aborted`](ExecTrace::aborted).
    Abort,
}

/// Chooses the next process to step at each point of a virtual execution.
///
/// `enabled` is non-empty and sorted by process index; each entry carries the
/// operation the process will perform if granted. Implementations must be
/// deterministic functions of their own state and the arguments for replays
/// to be byte-identical.
pub trait Scheduler: Send {
    /// Chooses the process to grant the `step`-th step (0-based).
    fn choose(&mut self, step: usize, enabled: &[(ProcessId, PendingOp)]) -> SchedulerDecision;
}

/// A uniformly random scheduler, seeded for reproducibility.
#[derive(Debug)]
pub struct RandomScheduler {
    rng: StdRng,
}

impl RandomScheduler {
    /// Creates the scheduler from a seed.
    pub fn new(seed: u64) -> Self {
        RandomScheduler {
            rng: StdRng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1)),
        }
    }
}

impl Scheduler for RandomScheduler {
    fn choose(&mut self, _step: usize, enabled: &[(ProcessId, PendingOp)]) -> SchedulerDecision {
        let i = self.rng.gen_range(0..enabled.len());
        SchedulerDecision::Pick(enabled[i].0)
    }
}

/// Replays a recorded [`Schedule`]. Choices naming a process that is not
/// currently enabled are skipped; once the schedule is exhausted the lowest
/// enabled process is chosen, so arbitrary subsequences of a valid schedule
/// (as produced by ddmin minimization) remain replayable.
#[derive(Clone, Debug)]
pub struct ReplayScheduler {
    choices: Vec<ProcessId>,
    pos: usize,
}

impl ReplayScheduler {
    /// Creates the scheduler from a recorded schedule.
    pub fn new(schedule: Schedule) -> Self {
        ReplayScheduler {
            choices: schedule.choices,
            pos: 0,
        }
    }
}

impl Scheduler for ReplayScheduler {
    fn choose(&mut self, _step: usize, enabled: &[(ProcessId, PendingOp)]) -> SchedulerDecision {
        while self.pos < self.choices.len() {
            let c = self.choices[self.pos];
            self.pos += 1;
            if enabled.iter().any(|(p, _)| *p == c) {
                return SchedulerDecision::Pick(c);
            }
        }
        SchedulerDecision::Pick(enabled[0].0)
    }
}

/// A cloneable, comparable handle to a shared [`Scheduler`], so that
/// [`ScheduleSource::Explore`] fits in the `Clone + Debug + PartialEq`
/// derives of [`ExecConfig`]. The explorer keeps a clone and inspects or
/// reseeds the scheduler between executions.
#[derive(Clone)]
pub struct ExploreHandle {
    inner: Arc<Mutex<dyn Scheduler>>,
}

impl ExploreHandle {
    /// Wraps a scheduler in a shareable handle.
    pub fn new<S: Scheduler + 'static>(scheduler: S) -> Self {
        ExploreHandle {
            inner: Arc::new(Mutex::new(scheduler)),
        }
    }

    /// Locks the underlying scheduler for a scheduling decision or for
    /// between-execution state manipulation.
    pub fn lock(&self) -> std::sync::MutexGuard<'_, dyn Scheduler + 'static> {
        self.inner.lock().expect("explore handle poisoned")
    }
}

impl fmt::Debug for ExploreHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ExploreHandle").finish_non_exhaustive()
    }
}

impl PartialEq for ExploreHandle {
    fn eq(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.inner, &other.inner)
    }
}

/// The result of one virtual execution: the ordinary outcome plus the trace.
#[derive(Clone, Debug)]
pub struct VirtualRun<R> {
    /// Per-process results and step statistics. Processes aborted by the
    /// scheduler are reported as crashed.
    pub outcome: ExecutionOutcome<R>,
    /// The serialized schedule taken and every operation performed.
    pub trace: ExecTrace,
}

/// Runs `k` processes one shared-memory step at a time under a
/// [`Scheduler`] chosen by the configuration's
/// [`ScheduleSource`].
///
/// Executions are fully deterministic: the same configuration produces
/// byte-identical traces, step statistics and results. Arrival order is part
/// of the schedule (each process's first step is an arrival pseudo-step);
/// crash plans are honored.
///
/// The executor requires process closures not to block on locks held across
/// a recorded step by another process. All objects in this workspace park
/// *before* acquiring any internal lock and release it before the next
/// recorded step, so they satisfy the requirement by construction.
#[derive(Clone, Debug)]
pub struct VirtualExecutor {
    config: ExecConfig,
    max_steps: u64,
}

/// Default per-execution step budget; a safety net against divergent
/// schedules, far above anything the small configurations explored by
/// `mcheck` take.
pub const DEFAULT_MAX_STEPS: u64 = 1_000_000;

impl VirtualExecutor {
    /// Creates a virtual executor with the given configuration.
    pub fn new(config: ExecConfig) -> Self {
        VirtualExecutor {
            config,
            max_steps: DEFAULT_MAX_STEPS,
        }
    }

    /// Creates a virtual executor with no crashes and the given seed
    /// (random scheduling seeded by the configuration seed).
    pub fn with_seed(seed: u64) -> Self {
        VirtualExecutor::new(ExecConfig::new(seed))
    }

    /// Sets the per-execution step budget. Executions exceeding it are cut
    /// off: remaining processes are reported as crashed and the trace is
    /// marked [`truncated`](ExecTrace::truncated).
    pub fn with_max_steps(mut self, max_steps: u64) -> Self {
        self.max_steps = max_steps.max(1);
        self
    }

    /// The configuration this executor runs with.
    pub fn config(&self) -> &ExecConfig {
        &self.config
    }

    /// Runs `k` processes with consecutive identifiers `0..k`.
    pub fn run<R, F>(&self, k: usize, f: F) -> VirtualRun<R>
    where
        R: Send,
        F: Fn(&mut ProcessCtx) -> R + Send + Sync,
    {
        let ids: Vec<ProcessId> = (0..k).map(ProcessId::new).collect();
        self.run_with_ids(&ids, f)
    }

    /// Runs one process per entry of `ids`, using each entry as the
    /// process's initial name.
    pub fn run_with_ids<R, F>(&self, ids: &[ProcessId], f: F) -> VirtualRun<R>
    where
        R: Send,
        F: Fn(&mut ProcessCtx) -> R + Send + Sync,
    {
        install_crash_panic_silencer();
        install_abort_panic_silencer();
        let k = ids.len();
        if k == 0 {
            return VirtualRun {
                outcome: ExecutionOutcome::from_outcomes(Vec::new()),
                trace: ExecTrace::default(),
            };
        }

        let params: Vec<(ProcessId, Option<u64>)> = ids
            .iter()
            .copied()
            .zip(self.config.crash_steps(k))
            .collect();

        let gates: Vec<Arc<Gate>> = (0..k).map(|_| Arc::new(Gate::default())).collect();
        let seed = self.config.seed;
        let f = &f;

        let mut scheduler = self.resolve_scheduler();
        let mut trace = ExecTrace::default();
        let mut outcomes: Vec<Option<(ProcessId, ProcessOutcome<R>)>> =
            (0..k).map(|_| None).collect();

        std::thread::scope(|scope| {
            let handles: Vec<_> = params
                .iter()
                .zip(gates.iter())
                .map(|(&(id, crash_at), gate)| {
                    let gate = Arc::clone(gate);
                    scope.spawn(move || {
                        let mut ctx = ProcessCtx::with_adversary(id, seed, crash_at);
                        if !gate.park(PendingOp::begin()) {
                            gate.mark_finished();
                            return (id, ProcessOutcome::Crashed { steps: ctx.stats() });
                        }
                        ctx.install_gate(Arc::clone(&gate));
                        let run = std::panic::catch_unwind(AssertUnwindSafe(|| f(&mut ctx)));
                        let steps = ctx.stats();
                        gate.mark_finished();
                        match run {
                            Ok(result) => (id, ProcessOutcome::Completed { result, steps }),
                            Err(payload) => {
                                if let Some(signal) = payload.downcast_ref::<CrashSignal>() {
                                    (
                                        id,
                                        ProcessOutcome::Crashed {
                                            steps: signal.steps,
                                        },
                                    )
                                } else if payload.downcast_ref::<ScheduleAbort>().is_some() {
                                    (id, ProcessOutcome::Crashed { steps })
                                } else {
                                    std::panic::resume_unwind(payload)
                                }
                            }
                        }
                    })
                })
                .collect();

            // Coordinator loop: wait for every live process to park, pick
            // one, grant it, repeat.
            let mut finished = vec![false; k];
            let mut step: usize = 0;
            loop {
                let mut enabled: Vec<(ProcessId, PendingOp)> = Vec::with_capacity(k);
                let mut enabled_idx: Vec<usize> = Vec::with_capacity(k);
                for (i, gate) in gates.iter().enumerate() {
                    if finished[i] {
                        continue;
                    }
                    match gate.wait_parked() {
                        Some(op) => {
                            enabled.push((params[i].0, op));
                            enabled_idx.push(i);
                        }
                        None => finished[i] = true,
                    }
                }
                if enabled.is_empty() {
                    break;
                }
                let abort_all =
                    |reason_truncated: bool, trace: &mut ExecTrace, finished: &mut [bool]| {
                        if reason_truncated {
                            trace.truncated = true;
                        } else {
                            trace.aborted = true;
                        }
                        for (i, gate) in gates.iter().enumerate() {
                            if finished[i] {
                                continue;
                            }
                            // The process is parked; abort it and wait for the
                            // unwind to complete.
                            if gate.wait_parked().is_some() {
                                gate.grant(true);
                            }
                            while gate.wait_parked().is_some() {
                                gate.grant(true);
                            }
                            finished[i] = true;
                        }
                    };
                if step as u64 >= self.max_steps {
                    abort_all(true, &mut trace, &mut finished);
                    break;
                }
                match scheduler.choose(step, &enabled) {
                    SchedulerDecision::Pick(pid) => {
                        let slot = enabled
                            .iter()
                            .position(|(p, _)| *p == pid)
                            .expect("scheduler picked a process that is not enabled");
                        let op = enabled[slot].1;
                        trace.events.push(OpEvent {
                            pid,
                            op,
                            enabled: enabled.clone(),
                        });
                        trace.schedule.choices.push(pid);
                        gates[enabled_idx[slot]].grant(false);
                        step += 1;
                    }
                    SchedulerDecision::Abort => {
                        abort_all(false, &mut trace, &mut finished);
                        break;
                    }
                }
            }

            for handle in handles {
                // Re-raise a process's own panic with its payload intact.
                let (id, outcome) = handle
                    .join()
                    .unwrap_or_else(|payload| std::panic::resume_unwind(payload));
                let index = params
                    .iter()
                    .position(|(pid, _)| *pid == id)
                    .expect("unknown process id");
                outcomes[index] = Some((id, outcome));
            }
        });

        VirtualRun {
            outcome: ExecutionOutcome::from_outcomes(
                outcomes
                    .into_iter()
                    .map(|o| o.expect("every process reports an outcome"))
                    .collect(),
            ),
            trace,
        }
    }

    fn resolve_scheduler(&self) -> Box<dyn SchedulerSlot + '_> {
        match &self.config.schedule {
            ScheduleSource::Random(seed) => Box::new(Owned(RandomScheduler::new(*seed))),
            ScheduleSource::Replay(schedule) => {
                Box::new(Owned(ReplayScheduler::new(schedule.clone())))
            }
            ScheduleSource::Explore(handle) => Box::new(Shared(handle)),
        }
    }
}

/// Internal adapter unifying owned schedulers and shared explore handles.
trait SchedulerSlot {
    fn choose(&mut self, step: usize, enabled: &[(ProcessId, PendingOp)]) -> SchedulerDecision;
}

struct Owned<S: Scheduler>(S);

impl<S: Scheduler> SchedulerSlot for Owned<S> {
    fn choose(&mut self, step: usize, enabled: &[(ProcessId, PendingOp)]) -> SchedulerDecision {
        self.0.choose(step, enabled)
    }
}

struct Shared<'a>(&'a ExploreHandle);

impl SchedulerSlot for Shared<'_> {
    fn choose(&mut self, step: usize, enabled: &[(ProcessId, PendingOp)]) -> SchedulerDecision {
        self.0.lock().choose(step, enabled)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adversary::CrashPlan;
    use crate::register::{AtomicU64Register, AtomicUsizeRegister};
    use std::sync::Arc;

    #[test]
    fn loc_fresh_is_unique_and_not_anon() {
        let a = Loc::fresh();
        let b = Loc::fresh();
        assert_ne!(a, b);
        assert!(!a.is_anon());
        assert!(Loc::ANON.is_anon());
    }

    #[test]
    fn loc_fresh_is_unique_across_threads() {
        #[cfg(not(miri))]
        const PER_THREAD: usize = 100_000;
        #[cfg(miri)]
        const PER_THREAD: usize = 5_000;
        let per_thread: Vec<Vec<u64>> = std::thread::scope(|scope| {
            let workers: Vec<_> = (0..8)
                .map(|_| {
                    scope.spawn(|| {
                        (0..PER_THREAD)
                            .map(|_| Loc::fresh().as_u64())
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            workers.into_iter().map(|w| w.join().unwrap()).collect()
        });
        let mut all: Vec<u64> = per_thread.into_iter().flatten().collect();
        assert!(all.iter().all(|&raw| raw != 0), "no id is ANON");
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), 8 * PER_THREAD, "ids are unique");
    }

    #[test]
    fn loc_blocks_and_single_ids_are_unique_across_threads() {
        // Each thread interleaves single ids with 7- and 97-id blocks (the
        // two-process test-and-set's head and tail); every id of every
        // block and every single id is distinct process-wide.
        #[cfg(not(miri))]
        const ROUNDS: usize = 2_000;
        #[cfg(miri)]
        const ROUNDS: usize = 50;
        let per_thread: Vec<Vec<u64>> = std::thread::scope(|scope| {
            let workers: Vec<_> = (0..8)
                .map(|_| {
                    scope.spawn(|| {
                        let mut ids = Vec::new();
                        for _ in 0..ROUNDS {
                            ids.push(Loc::fresh().as_u64());
                            for n in [7, 97] {
                                let base = Loc::fresh_block(n);
                                ids.extend((0..n).map(|i| base.offset(i).as_u64()));
                            }
                        }
                        ids
                    })
                })
                .collect();
            workers.into_iter().map(|w| w.join().unwrap()).collect()
        });
        let mut all: Vec<u64> = per_thread.into_iter().flatten().collect();
        assert!(all.iter().all(|&raw| raw != 0), "no id is ANON");
        let drawn = all.len();
        assert_eq!(drawn, 8 * ROUNDS * (1 + 7 + 97));
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), drawn, "ids are unique");
    }

    #[test]
    fn loc_block_ids_are_consecutive() {
        std::thread::spawn(|| {
            let base = Loc::fresh_block(7);
            let ids: Vec<u64> = (0..7).map(|i| base.offset(i).as_u64()).collect();
            assert_eq!(ids, (base.as_u64()..base.as_u64() + 7).collect::<Vec<_>>());
            // The thread's next id follows the block directly.
            assert_eq!(Loc::fresh(), base.offset(7));
        })
        .join()
        .unwrap();
    }

    #[test]
    fn loc_block_larger_than_a_refill_comes_from_the_global_counter() {
        std::thread::spawn(|| {
            let before = Loc::fresh();
            let big = Loc::fresh_block(LOC_BLOCK + 1);
            let after = Loc::fresh();
            // The thread's own ids carry on, untouched by the big block.
            assert_eq!(after, before.offset(1));
            let span = big.as_u64()..big.as_u64() + LOC_BLOCK + 1;
            assert!(!span.contains(&before.as_u64()));
            assert!(!span.contains(&after.as_u64()));
            assert!(!big.is_anon());
        })
        .join()
        .unwrap();
    }

    #[test]
    fn loc_block_never_straddles_a_refill() {
        std::thread::spawn(|| {
            // A new thread's first id starts its first refill.
            let first = Loc::fresh();
            let refill = first.as_u64()..first.as_u64() + LOC_BLOCK;
            // Leave three ids in the refill, fewer than the block needs.
            for _ in 0..LOC_BLOCK - 4 {
                Loc::fresh();
            }
            let base = Loc::fresh_block(7);
            let block = base.as_u64()..base.as_u64() + 7;
            assert!(
                block.end <= refill.start || block.start >= refill.end,
                "block {block:?} overlaps the refill {refill:?}"
            );
            // The block opens the thread's next refill.
            assert_eq!(Loc::fresh(), base.offset(7));
        })
        .join()
        .unwrap();
    }

    #[test]
    fn conflicts_require_same_loc_and_a_writer() {
        let l1 = Loc::fresh();
        let l2 = Loc::fresh();
        let r1 = PendingOp::step(StepKind::RegisterRead, l1);
        let w1 = PendingOp::step(StepKind::RegisterWrite, l1);
        let w2 = PendingOp::step(StepKind::RegisterWrite, l2);
        let rmw1 = PendingOp::step(StepKind::ReadModifyWrite, l1);
        let flip = PendingOp::step(StepKind::CoinFlip, Loc::ANON);
        let anon_w = PendingOp::step(StepKind::RegisterWrite, Loc::ANON);

        assert!(!r1.conflicts_with(&r1), "read-read is independent");
        assert!(r1.conflicts_with(&w1));
        assert!(w1.conflicts_with(&r1));
        assert!(w1.conflicts_with(&rmw1));
        assert!(
            !w1.conflicts_with(&w2),
            "distinct locations are independent"
        );
        assert!(!flip.conflicts_with(&w1), "local steps never conflict");
        assert!(!PendingOp::begin().conflicts_with(&w1));
        assert!(anon_w.conflicts_with(&r1), "anonymous is conservative");
    }

    fn three_writer_body(
        reg: &Arc<AtomicU64Register>,
    ) -> impl Fn(&mut ProcessCtx) -> u64 + Send + Sync {
        let reg = Arc::clone(reg);
        move |ctx| {
            reg.write(ctx, ctx.id().as_u64() + 1);
            reg.read(ctx)
        }
    }

    #[test]
    fn virtual_execution_completes_and_counts_steps() {
        let reg = Arc::new(AtomicU64Register::new(0));
        let run = VirtualExecutor::with_seed(3).run(3, three_writer_body(&reg));
        assert_eq!(run.outcome.completed().count(), 3);
        assert_eq!(run.outcome.total_steps().total(), 6);
        // 3 begin events + 6 operations.
        assert_eq!(run.trace.events.len(), 9);
        assert!(!run.trace.truncated);
        assert!(!run.trace.aborted);
    }

    #[test]
    fn same_seed_gives_byte_identical_traces_and_stats() {
        let mk = || {
            let reg = Arc::new(AtomicU64Register::new(0));
            VirtualExecutor::with_seed(42).run(4, three_writer_body(&reg))
        };
        let a = mk();
        let b = mk();
        assert_eq!(a.trace.schedule, b.trace.schedule);
        assert_eq!(a.outcome.per_process_steps(), b.outcome.per_process_steps());
        assert_eq!(a.outcome.results(), b.outcome.results());
        // Events compare equal modulo the location ids, which differ between
        // register instances; the pid/kind/access skeleton must match.
        let skel = |t: &ExecTrace| {
            t.events
                .iter()
                .map(|e| (e.pid, e.op.kind, e.op.access))
                .collect::<Vec<_>>()
        };
        assert_eq!(skel(&a.trace), skel(&b.trace));
    }

    #[test]
    fn one_seed_drives_the_schedule() {
        // A racy two-process program: both write, then read, one register,
        // so the schedule decides what each reads.
        let mk = |exec: VirtualExecutor| {
            let reg = Arc::new(AtomicU64Register::new(0));
            exec.run(2, three_writer_body(&reg))
        };
        for seed in 0..8 {
            let configured = mk(VirtualExecutor::new(ExecConfig::new(seed)));
            let seeded = mk(VirtualExecutor::with_seed(seed));
            assert_eq!(
                configured.trace.schedule, seeded.trace.schedule,
                "seed {seed}"
            );
            assert_eq!(configured.outcome.results(), seeded.outcome.results());
        }
    }

    #[test]
    #[should_panic(expected = "boom")]
    fn genuine_panics_inside_processes_keep_their_message() {
        let _ = VirtualExecutor::with_seed(0).run(2, |ctx| {
            ctx.record_at(StepKind::RegisterRead, Loc::ANON);
            if ctx.id().as_usize() == 1 {
                panic!("boom");
            }
            0usize
        });
    }

    #[test]
    fn replay_reproduces_a_random_schedule_exactly() {
        let mk = |source: ScheduleSource| {
            let reg = Arc::new(AtomicU64Register::new(0));
            VirtualExecutor::new(ExecConfig::new(9).with_schedule(source))
                .run(3, three_writer_body(&reg))
        };
        let original = mk(ScheduleSource::Random(1234));
        let replay = mk(ScheduleSource::Replay(original.trace.schedule.clone()));
        assert_eq!(replay.trace.schedule, original.trace.schedule);
        assert_eq!(replay.outcome.results(), original.outcome.results());
    }

    #[test]
    fn replay_falls_back_on_invalid_and_exhausted_schedules() {
        let reg = Arc::new(AtomicUsizeRegister::new(0));
        // A nonsense schedule: process 7 never exists, and it is far too
        // short — the fallback must still complete the run deterministically.
        let schedule = Schedule::new(vec![ProcessId::new(7), ProcessId::new(1)]);
        let run = VirtualExecutor::new(
            ExecConfig::new(0).with_schedule(ScheduleSource::Replay(schedule)),
        )
        .run(2, {
            let reg = Arc::clone(&reg);
            move |ctx| reg.fetch_add(ctx, 1)
        });
        assert_eq!(run.outcome.results_sorted(), vec![0, 1]);
    }

    #[test]
    fn fixed_sequential_schedule_serializes_processes() {
        // Grant p1 everything first, then p0: p1 must see the initial value,
        // p0 must see p1's write.
        let reg = Arc::new(AtomicU64Register::new(0));
        let choices = vec![
            ProcessId::new(0),
            ProcessId::new(1), // begins (p0's begin first: both are local)
            ProcessId::new(1),
            ProcessId::new(1), // p1: write, read
            ProcessId::new(0),
            ProcessId::new(0), // p0: write, read
        ];
        let run = VirtualExecutor::new(
            ExecConfig::new(0).with_schedule(ScheduleSource::Replay(Schedule::new(choices))),
        )
        .run(2, {
            let reg = Arc::clone(&reg);
            move |ctx| {
                reg.write(ctx, ctx.id().as_u64() + 1);
                reg.read(ctx)
            }
        });
        let results: Vec<(ProcessId, u64)> =
            run.outcome.completed().map(|(id, r)| (id, *r)).collect();
        assert!(results.contains(&(ProcessId::new(1), 2)));
        assert!(results.contains(&(ProcessId::new(0), 1)));
    }

    #[test]
    fn crash_plans_are_honored_deterministically() {
        let reg = Arc::new(AtomicUsizeRegister::new(0));
        let config = ExecConfig::new(5).with_crash_plan(CrashPlan::Fixed(vec![Some(2), None]));
        let run = VirtualExecutor::new(config).run(2, {
            let reg = Arc::clone(&reg);
            move |ctx| {
                for _ in 0..4 {
                    reg.fetch_add(ctx, 1);
                }
                ctx.id().as_usize()
            }
        });
        assert_eq!(run.outcome.crashed_count(), 1);
        assert_eq!(run.outcome.completed().count(), 1);
    }

    #[test]
    fn step_budget_truncates_and_reports() {
        let reg = Arc::new(AtomicUsizeRegister::new(0));
        let run = VirtualExecutor::with_seed(1).with_max_steps(5).run(2, {
            let reg = Arc::clone(&reg);
            move |ctx| {
                for _ in 0..100 {
                    reg.fetch_add(ctx, 1);
                }
            }
        });
        assert!(run.trace.truncated);
        assert_eq!(run.outcome.crashed_count(), 2);
        assert!(run.trace.events.len() <= 5);
    }

    /// A scheduler that aborts immediately.
    struct AbortNow;
    impl Scheduler for AbortNow {
        fn choose(
            &mut self,
            _step: usize,
            _enabled: &[(ProcessId, PendingOp)],
        ) -> SchedulerDecision {
            SchedulerDecision::Abort
        }
    }

    #[test]
    fn explore_handle_drives_scheduling_and_abort() {
        let handle = ExploreHandle::new(AbortNow);
        let run = VirtualExecutor::new(
            ExecConfig::new(0).with_schedule(ScheduleSource::Explore(handle.clone())),
        )
        .run(2, |ctx| ctx.flip());
        assert!(run.trace.aborted);
        assert_eq!(run.outcome.crashed_count(), 2);
        assert_eq!(handle, handle.clone());
    }

    #[test]
    fn enabled_sets_are_recorded_in_process_order() {
        let reg = Arc::new(AtomicU64Register::new(0));
        let run = VirtualExecutor::with_seed(11).run(3, three_writer_body(&reg));
        for event in &run.trace.events {
            let pids: Vec<usize> = event.enabled.iter().map(|(p, _)| p.as_usize()).collect();
            let mut sorted = pids.clone();
            sorted.sort_unstable();
            assert_eq!(pids, sorted);
            assert!(event.enabled.iter().any(|(p, _)| *p == event.pid));
        }
    }

    #[test]
    fn zero_processes_yield_an_empty_run() {
        let run: VirtualRun<()> = VirtualExecutor::with_seed(0).run(0, |_| ());
        assert!(run.outcome.is_empty());
        assert!(run.trace.events.is_empty());
    }
}
