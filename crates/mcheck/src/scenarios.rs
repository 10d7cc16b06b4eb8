//! The workload registry: small shared-memory programs with oracles.
//!
//! Every scenario is a *factory*: stateless re-execution rebuilds the shared
//! objects before each run, so [`ScenarioDef::build`] returns a fresh
//! [`BuiltScenario`] — a process body plus a one-shot oracle over the
//! finished run. Oracles come in two polarities:
//!
//! * **Green oracles** (`expect_violations == false`) must hold on *every*
//!   schedule: a counterexample is a bug in the workspace.
//! * **Counterexample hunts** (`expect_violations == true`) encode a
//!   violation the paper itself predicts — the §8.1 monotone-counter
//!   non-linearizability and the counting-network stall-one-token
//!   counterexample. The explorer is expected to *find* schedules failing
//!   the oracle; the minimized witnesses are pinned under `tests/schedules/`.

use adaptive_renaming::counter::MonotoneCounter;
use adaptive_renaming::error::RenamingError;
use adaptive_renaming::lease::{assert_tight_lease_namespace, LeaseOp, LongLivedRenaming};
use adaptive_renaming::linear_probe::LinearProbeRenaming;
use adaptive_renaming::recovery::recover_with;
use adaptive_renaming::recycler::Recycler;
use adaptive_renaming::renaming_network::RenamingNetwork;
use adaptive_renaming::robust::RobustLeaseTable;
use adaptive_renaming::traits::{assert_tight_namespace, Renaming};
use cnet::counter::NetworkCounter;
use cnet::family::CountingFamily;
use cnet::network::BalancingTopology;
use cnet::verify::step_property_violation;
use maxreg::unbounded::UnboundedMaxRegister;
use maxreg::MaxRegister;
use shmem::adversary::{CrashPlan, ExecConfig, ScheduleSource};
use shmem::consistency::{
    check_linearizable, check_monotone_consistent, check_quiescent_consistent, CounterOp,
    CounterSpec, TicketCounterSpec,
};
use shmem::history::Recorder;
use shmem::process::{ProcessCtx, ProcessId};
use shmem::register::AtomicU64Register;
use shmem::steps::StepKind;
use shmem::vexec::{VirtualExecutor, VirtualRun};
use sortnet::batcher::odd_even_network;
use std::ops::RangeInclusive;
use std::sync::Arc;
use tas::hardware::HardwareTas;
use tas::two_process::TwoProcessTas;
use tas::{Side, TwoPartyTas};

/// The process body of a scenario. Every process returns a `u64` the oracle
/// may inspect (a name, a ticket, a read value — scenario-specific).
pub type ScenarioBody = Arc<dyn Fn(&mut ProcessCtx) -> u64 + Send + Sync>;

/// The oracle of a scenario, consumed by one execution.
pub type ScenarioCheck = Box<dyn FnOnce(&VirtualRun<u64>) -> Result<(), String> + Send>;

/// One freshly built instance of a scenario: shared objects, body, oracle.
pub struct BuiltScenario {
    /// The closure every process runs.
    pub body: ScenarioBody,
    /// The oracle over the finished run.
    pub check: ScenarioCheck,
}

impl std::fmt::Debug for BuiltScenario {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BuiltScenario").finish_non_exhaustive()
    }
}

/// A registered scenario.
#[derive(Clone, Debug)]
pub struct ScenarioDef {
    /// Registry name, as referenced from trace files and the CLI.
    pub name: &'static str,
    /// Number of processes.
    pub procs: usize,
    /// Builds a fresh instance (fresh shared objects) for one execution.
    pub build: fn() -> BuiltScenario,
    /// Crash sweep: `(pid, crash_at range)` — the explorer runs one search
    /// per crash step of the range, crashing `pid` after that many steps.
    pub crash_sweep: Option<(usize, RangeInclusive<u64>)>,
    /// Whether the oracle is a counterexample hunt (see module docs).
    pub expect_violations: bool,
    /// Whether exhaustive DPOR is tractable on this scenario. Heavy
    /// scenarios (randomized TAS with its coin-flip-dependent round counts)
    /// are searched in the DPOR search's bounded mode or fuzzed instead.
    pub exhaustive: bool,
    /// One-line description.
    pub about: &'static str,
}

impl ScenarioDef {
    /// The crash plans this scenario sweeps over: `None` entries mean "no
    /// crash plan"; `Some(plan)` entries are `CrashPlan::Fixed` vectors.
    pub fn crash_plans(&self) -> Vec<Option<Vec<Option<u64>>>> {
        match &self.crash_sweep {
            None => vec![None],
            Some((pid, range)) => range
                .clone()
                .map(|at| {
                    let mut plan: Vec<Option<u64>> = vec![None; self.procs];
                    plan[*pid] = Some(at);
                    Some(plan)
                })
                .collect(),
        }
    }

    /// Builds a fresh instance and runs it once on the virtual executor:
    /// `seed` drives the processes' coin flips, `crash_plan` (a
    /// `CrashPlan::Fixed` vector) crashes processes, `schedule` picks the
    /// interleaving and `max_steps` cuts the run off. Returns the run with
    /// the instance's oracle, not yet applied.
    pub fn execute(
        &self,
        seed: u64,
        crash_plan: Option<&Vec<Option<u64>>>,
        schedule: ScheduleSource,
        max_steps: u64,
    ) -> (VirtualRun<u64>, ScenarioCheck) {
        let built = (self.build)();
        let mut config = ExecConfig::new(seed).with_schedule(schedule);
        if let Some(plan) = crash_plan {
            config = config.with_crash_plan(CrashPlan::Fixed(plan.clone()));
        }
        let run = VirtualExecutor::new(config)
            .with_max_steps(max_steps)
            .run(self.procs, &*built.body);
        (run, built.check)
    }
}

/// Every registered scenario.
pub fn all() -> Vec<ScenarioDef> {
    vec![
        ScenarioDef {
            name: "toy_rw_indep",
            procs: 2,
            build: build_toy_rw_indep,
            crash_sweep: None,
            expect_violations: false,
            exhaustive: true,
            about: "two processes on disjoint registers: every interleaving equivalent",
        },
        ScenarioDef {
            name: "toy_racy_pair",
            procs: 2,
            build: build_toy_racy_pair,
            crash_sweep: None,
            expect_violations: false,
            exhaustive: true,
            about: "two writers and readers of one shared register",
        },
        ScenarioDef {
            name: "toy_mp",
            procs: 2,
            build: build_toy_mp,
            crash_sweep: None,
            expect_violations: false,
            exhaustive: true,
            about: "message passing: data register guarded by a flag register",
        },
        ScenarioDef {
            name: "tas_pair_2p",
            procs: 2,
            build: build_tas_pair,
            crash_sweep: None,
            expect_violations: false,
            exhaustive: true,
            about: "two processes race one hardware TAS: exactly one winner",
        },
        ScenarioDef {
            name: "tas_chain_3p",
            procs: 3,
            build: build_tas_chain,
            crash_sweep: None,
            expect_violations: false,
            exhaustive: true,
            about: "chain of two two-party TAS objects shared pairwise by three processes",
        },
        ScenarioDef {
            name: "rand_tas_pair_2p",
            procs: 2,
            build: build_rand_tas_pair,
            crash_sweep: None,
            expect_violations: false,
            exhaustive: false,
            about: "the paper's randomized two-process TAS (coin-flip round counts \
                    blow up the exhaustive tier; bounded search and fuzzing only)",
        },
        ScenarioDef {
            name: "cnet_width2_2p",
            procs: 2,
            build: || build_cnet_counter(2, 2),
            crash_sweep: None,
            expect_violations: false,
            exhaustive: true,
            about: "width-2 bitonic counting network: distinct tickets + step property",
        },
        ScenarioDef {
            name: "cnet_width4_3p",
            procs: 3,
            build: || build_cnet_counter(4, 3),
            crash_sweep: None,
            expect_violations: false,
            exhaustive: true,
            about: "width-4 bitonic counting network: distinct tickets + step property",
        },
        ScenarioDef {
            name: "cnet_stall_one_token",
            procs: 3,
            build: build_cnet_stall,
            crash_sweep: None,
            expect_violations: true,
            exhaustive: true,
            about: "a token stalled mid-network makes ticket histories non-linearizable \
                    while staying quiescently consistent",
        },
        ScenarioDef {
            name: "mono_counter_3p",
            procs: 3,
            build: build_mono_counter,
            crash_sweep: Some((0, 1..=24)),
            expect_violations: true,
            exhaustive: true,
            about: "§8.1: a crashed incrementer lets a renaming network grant name 1 after \
                    name 2, so the renaming+max-register counter is non-linearizable \
                    while staying monotone-consistent",
        },
        ScenarioDef {
            name: "renaming_width4_3p",
            procs: 3,
            build: build_renaming_width4,
            crash_sweep: None,
            expect_violations: false,
            exhaustive: true,
            about: "three acquirers on a strong adaptive renaming object: tight namespace",
        },
        ScenarioDef {
            name: "recycler_churn_2p",
            procs: 2,
            build: || build_recycler_churn(2, 2, 3),
            crash_sweep: None,
            expect_violations: false,
            exhaustive: true,
            about: "lease/release churn through the recycler: tight lease namespace",
        },
        ScenarioDef {
            name: "robust_sweep_2p",
            procs: 2,
            build: build_robust_sweep,
            crash_sweep: None,
            expect_violations: false,
            exhaustive: true,
            about: "crash-robust lease table: a releaser races a sweeper that presumes \
                    it dead — every grant's HELD→FREE transition happens exactly once",
        },
        ScenarioDef {
            name: "recover_race_2p",
            procs: 2,
            build: build_recover_race,
            crash_sweep: None,
            expect_violations: false,
            exhaustive: true,
            about: "two fresh attachers race restart recovery at the same epoch — \
                    exactly one wins the CAS, every dead lease is reclaimed once, \
                    and the loser touches nothing",
        },
        ScenarioDef {
            name: "obs_ring_2p",
            procs: 2,
            build: build_obs_ring,
            crash_sweep: None,
            expect_violations: false,
            exhaustive: true,
            about: "flight-recorder seqlock ring: a reader races the single writer — \
                    non-torn snapshots are never half-written",
        },
        ScenarioDef {
            name: "recycler_churn_3p",
            procs: 3,
            build: || build_recycler_churn(3, 1, 4),
            crash_sweep: None,
            expect_violations: false,
            exhaustive: true,
            about: "three-process lease/release churn: tightness + ticket accounting",
        },
        ScenarioDef {
            name: "recycler_rollback_2p",
            procs: 2,
            build: || build_recycler_churn(2, 2, 1),
            crash_sweep: None,
            expect_violations: false,
            exhaustive: true,
            about: "two fresh leases race for a one-name inner object: the loser's \
                    failed acquisition rolls its ticket back or counts it burned, so the \
                    ledgers reconcile",
        },
    ]
}

/// Looks a scenario up by name.
pub fn find(name: &str) -> Option<ScenarioDef> {
    all().into_iter().find(|s| s.name == name)
}

// ---------------------------------------------------------------------------
// Toy scenarios (DPOR soundness baselines).
// ---------------------------------------------------------------------------

fn build_toy_rw_indep() -> BuiltScenario {
    let regs: Arc<Vec<AtomicU64Register>> =
        Arc::new((0..2).map(|_| AtomicU64Register::new(0)).collect());
    let body: ScenarioBody = Arc::new({
        let regs = Arc::clone(&regs);
        move |ctx| {
            let me = ctx.id().as_usize();
            regs[me].write(ctx, ctx.id().as_u64() + 1);
            regs[me].read(ctx)
        }
    });
    let check: ScenarioCheck = Box::new(|run: &VirtualRun<u64>| {
        for (pid, &value) in run.outcome.completed() {
            if value != pid.as_u64() + 1 {
                return Err(format!(
                    "process {pid} read {value} from its private register, expected {}",
                    pid.as_u64() + 1
                ));
            }
        }
        Ok(())
    });
    BuiltScenario { body, check }
}

fn build_toy_racy_pair() -> BuiltScenario {
    let reg = Arc::new(AtomicU64Register::new(0));
    let body: ScenarioBody = Arc::new({
        let reg = Arc::clone(&reg);
        move |ctx| {
            reg.write(ctx, ctx.id().as_u64() + 1);
            reg.read(ctx)
        }
    });
    let check: ScenarioCheck = Box::new(|run: &VirtualRun<u64>| {
        let mut own = false;
        for (pid, &value) in run.outcome.completed() {
            if !(1..=2).contains(&value) {
                return Err(format!("process {pid} read impossible value {value}"));
            }
            own |= value == pid.as_u64() + 1;
        }
        if !own {
            return Err("no process read its own write — impossible sequentially".into());
        }
        Ok(())
    });
    BuiltScenario { body, check }
}

fn build_toy_mp() -> BuiltScenario {
    let data = Arc::new(AtomicU64Register::new(0));
    let flag = Arc::new(AtomicU64Register::new(0));
    let body: ScenarioBody = Arc::new({
        let data = Arc::clone(&data);
        let flag = Arc::clone(&flag);
        move |ctx| {
            if ctx.id().as_usize() == 0 {
                data.write(ctx, 7);
                flag.write(ctx, 1);
                0
            } else {
                let f = flag.read(ctx);
                let d = data.read(ctx);
                f * 100 + d
            }
        }
    });
    let check: ScenarioCheck = Box::new(|run: &VirtualRun<u64>| {
        for (pid, &value) in run.outcome.completed() {
            if pid.as_usize() == 1 && value / 100 == 1 && value % 100 != 7 {
                return Err(format!(
                    "reader saw the flag set but stale data ({})",
                    value % 100
                ));
            }
        }
        Ok(())
    });
    BuiltScenario { body, check }
}

// ---------------------------------------------------------------------------
// Test-and-set scenarios.
// ---------------------------------------------------------------------------

fn build_tas_pair() -> BuiltScenario {
    let tas = Arc::new(HardwareTas::new());
    let body: ScenarioBody = Arc::new({
        let tas = Arc::clone(&tas);
        move |ctx| {
            let side = if ctx.id().as_usize() == 0 {
                Side::Top
            } else {
                Side::Bottom
            };
            u64::from(tas.play(ctx, side))
        }
    });
    let check: ScenarioCheck = Box::new(|run: &VirtualRun<u64>| {
        let wins: u64 = run.outcome.completed().map(|(_, &w)| w).sum();
        if wins == 1 {
            Ok(())
        } else {
            Err(format!("expected exactly one TAS winner, saw {wins}"))
        }
    });
    BuiltScenario { body, check }
}

/// The paper's randomized two-process TAS. Its coin-flip-dependent round
/// counts make the schedule space explode, so it is registered as a
/// non-exhaustive (bounded / coverage) scenario.
fn build_rand_tas_pair() -> BuiltScenario {
    let tas = Arc::new(TwoProcessTas::new());
    let body: ScenarioBody = Arc::new({
        let tas = Arc::clone(&tas);
        move |ctx| {
            let side = if ctx.id().as_usize() == 0 {
                Side::Top
            } else {
                Side::Bottom
            };
            u64::from(tas.play(ctx, side))
        }
    });
    let check: ScenarioCheck = Box::new(|run: &VirtualRun<u64>| {
        let wins: u64 = run.outcome.completed().map(|(_, &w)| w).sum();
        if wins == 1 {
            Ok(())
        } else {
            Err(format!("expected exactly one TAS winner, saw {wins}"))
        }
    });
    BuiltScenario { body, check }
}

fn build_tas_chain() -> BuiltScenario {
    let a = Arc::new(HardwareTas::new());
    let b = Arc::new(HardwareTas::new());
    let body: ScenarioBody = Arc::new({
        let a = Arc::clone(&a);
        let b = Arc::clone(&b);
        move |ctx| match ctx.id().as_usize() {
            0 => u64::from(a.play(ctx, Side::Top)),
            1 => {
                let wa = u64::from(a.play(ctx, Side::Bottom));
                let wb = u64::from(b.play(ctx, Side::Top));
                wa << 1 | wb
            }
            _ => u64::from(b.play(ctx, Side::Bottom)),
        }
    });
    let check: ScenarioCheck = Box::new(|run: &VirtualRun<u64>| {
        let mut result = [0u64; 3];
        for (pid, &value) in run.outcome.completed() {
            result[pid.as_usize()] = value;
        }
        let a_wins = result[0] + (result[1] >> 1);
        let b_wins = (result[1] & 1) + result[2];
        if a_wins != 1 || b_wins != 1 {
            return Err(format!(
                "each TAS object needs exactly one winner (A: {a_wins}, B: {b_wins})"
            ));
        }
        Ok(())
    });
    BuiltScenario { body, check }
}

// ---------------------------------------------------------------------------
// Counting-network scenarios.
// ---------------------------------------------------------------------------

fn build_cnet_counter(width: usize, procs: usize) -> BuiltScenario {
    cnet_counter_scenario(
        Arc::new(NetworkCounter::new(CountingFamily::Bitonic, width)),
        procs,
    )
}

/// Every process increments `counter` once; the oracle wants distinct
/// tickets, `procs` tokens counted and the step property at quiescence.
fn cnet_counter_scenario<T: BalancingTopology + 'static>(
    counter: Arc<NetworkCounter<T>>,
    procs: usize,
) -> BuiltScenario {
    let body: ScenarioBody = Arc::new({
        let counter = Arc::clone(&counter);
        move |ctx| counter.fetch_increment(ctx)
    });
    let check: ScenarioCheck = Box::new({
        let counter = Arc::clone(&counter);
        move |run: &VirtualRun<u64>| {
            let mut tickets: Vec<u64> = run.outcome.completed().map(|(_, &t)| t).collect();
            tickets.sort_unstable();
            tickets.dedup();
            let completed = run.outcome.completed().count();
            if tickets.len() != completed {
                return Err("duplicate tickets issued".into());
            }
            if counter.peek() != procs as u64 {
                return Err(format!(
                    "counter holds {} tokens after {procs} increments",
                    counter.peek()
                ));
            }
            let counts = counter.exit_counts();
            if let Some(violation) = step_property_violation(&counts) {
                return Err(format!(
                    "exit counts {counts:?} violate the step property at quiescence: {violation}"
                ));
            }
            Ok(())
        }
    });
    BuiltScenario { body, check }
}

fn build_cnet_stall() -> BuiltScenario {
    let counter = Arc::new(NetworkCounter::new(CountingFamily::Bitonic, 2));
    let recorder: Arc<Recorder<CounterOp, u64>> = Arc::new(Recorder::new());
    let body: ScenarioBody = Arc::new({
        let counter = Arc::clone(&counter);
        let recorder = Arc::clone(&recorder);
        move |ctx| match ctx.id().as_usize() {
            0 => {
                // The stalled token: traverse the network but never deposit.
                // Its increment is invoked and stays pending forever.
                let _stalled = recorder.invoke(ctx.id(), CounterOp::Increment);
                let entry = counter.entry_wire(ctx);
                counter.network().traverse(ctx, entry) as u64
            }
            1 => {
                let invoke = recorder.invoke(ctx.id(), CounterOp::Increment);
                let ticket = counter.fetch_increment(ctx);
                recorder.respond(invoke, ticket);
                ticket
            }
            _ => {
                let invoke = recorder.invoke(ctx.id(), CounterOp::Increment);
                let ticket = counter.fetch_increment(ctx);
                recorder.respond(invoke, ticket);
                let invoke = recorder.invoke(ctx.id(), CounterOp::Read);
                let value = counter.read(ctx);
                recorder.respond(invoke, value);
                value
            }
        }
    });
    let check: ScenarioCheck = Box::new({
        let recorder = Arc::clone(&recorder);
        move |_run: &VirtualRun<u64>| {
            let history = recorder.take_history();
            let not_linearizable = check_linearizable(&TicketCounterSpec, &history).is_err();
            if let Err(v) = check_quiescent_consistent(&history) {
                return Err(format!("quiescent consistency violated: {v}"));
            }
            if not_linearizable {
                return Err(
                    "stall-one-token: ticket history is non-linearizable yet quiescently \
                     consistent"
                        .into(),
                );
            }
            Ok(())
        }
    });
    BuiltScenario { body, check }
}

// ---------------------------------------------------------------------------
// §8.1 monotone counter.
// ---------------------------------------------------------------------------

fn build_mono_counter() -> BuiltScenario {
    // The paper's counter, §8.1: a width-4 §5 renaming network over hardware
    // TAS plus an unbounded max register. The witness: crash-swept p0 wins
    // its first comparator and crashes, pushing p1 to name 2; p1 reads 2;
    // p2 takes the comparator p0 never reached, gets name 1, and p1 reads 2
    // again, which no completion of p0's increment explains. (Linear probing
    // never grants name 1 after name 2, so it cannot produce the witness.)
    let counter = Arc::new(MonotoneCounter::with_parts(
        RenamingNetwork::<HardwareTas>::new(odd_even_network(4)),
        UnboundedMaxRegister::new(),
    ));
    let recorder: Arc<Recorder<CounterOp, u64>> = Arc::new(Recorder::new());
    let body: ScenarioBody = Arc::new({
        let counter = Arc::clone(&counter);
        let recorder = Arc::clone(&recorder);
        move |ctx| {
            let increment = recorder.invoke(ctx.id(), CounterOp::Increment);
            let name = counter
                .renaming()
                .acquire(ctx)
                .expect("capacity covers the participants");
            counter.max_register().write_max(ctx, name as u64);
            recorder.respond(increment, 0);
            if ctx.id().as_usize() != 1 {
                return name as u64;
            }
            let read = |ctx: &mut ProcessCtx| {
                let invoke = recorder.invoke(ctx.id(), CounterOp::Read);
                let value = counter.max_register().read_max(ctx);
                recorder.respond(invoke, value);
                value
            };
            read(ctx);
            // Recording is uncharged: without a charged step here no other
            // process could run between the two reads.
            ctx.record(StepKind::RegisterRead);
            read(ctx)
        }
    });
    let check: ScenarioCheck = Box::new({
        let recorder = Arc::clone(&recorder);
        move |_run: &VirtualRun<u64>| {
            let history = recorder.take_history();
            if let Err(v) = check_monotone_consistent(&history) {
                return Err(format!("monotone consistency violated: {v}"));
            }
            if check_linearizable(&CounterSpec, &history).is_err() {
                return Err(
                    "§8.1: counter history is non-linearizable yet monotone-consistent".into(),
                );
            }
            Ok(())
        }
    });
    BuiltScenario { body, check }
}

// ---------------------------------------------------------------------------
// Renaming and recycler scenarios.
// ---------------------------------------------------------------------------

fn linear_probe(slots: usize) -> LinearProbeRenaming<HardwareTas> {
    LinearProbeRenaming::with_slots((0..slots).map(|_| HardwareTas::new()).collect())
}

fn build_renaming_width4() -> BuiltScenario {
    let renaming = Arc::new(linear_probe(4));
    let body: ScenarioBody = Arc::new({
        let renaming = Arc::clone(&renaming);
        move |ctx| {
            renaming
                .acquire(ctx)
                .expect("capacity covers the participants") as u64
        }
    });
    let check: ScenarioCheck = Box::new(|run: &VirtualRun<u64>| {
        let names: Vec<usize> = run.outcome.completed().map(|(_, &n)| n as usize).collect();
        assert_tight_namespace(&names)
    });
    BuiltScenario { body, check }
}

/// A linear probe that reports a capacity of at least `admitted`, however
/// few names it has. `Recycler::new` refuses an inner object whose reported
/// capacity is below its admission; with fewer names than admitted leases, a
/// fresh acquisition can find every name taken and fail.
struct UndersizedProbe {
    probe: LinearProbeRenaming<HardwareTas>,
    admitted: usize,
}

impl Renaming for UndersizedProbe {
    fn acquire(&self, ctx: &mut ProcessCtx) -> Result<usize, RenamingError> {
        self.probe.acquire(ctx)
    }

    fn capacity(&self) -> Option<usize> {
        self.probe.capacity().map(|names| names.max(self.admitted))
    }

    fn is_adaptive(&self) -> bool {
        self.probe.is_adaptive()
    }
}

/// `procs` processes lease and release `cycles` times each through a
/// recycler admitting `procs` leases over an `inner_names`-name linear probe.
/// With fewer inner names than admitted leases, a fresh acquisition can fail
/// and must roll its ticket back.
fn build_recycler_churn(procs: usize, cycles: usize, inner_names: usize) -> BuiltScenario {
    let inner = UndersizedProbe {
        probe: linear_probe(inner_names),
        admitted: procs,
    };
    let recycler = Arc::new(Recycler::new(inner, procs));
    let recorder: Arc<Recorder<LeaseOp, Option<usize>>> = Arc::new(Recorder::new());
    let body: ScenarioBody = Arc::new({
        let recycler = Arc::clone(&recycler);
        let recorder = Arc::clone(&recorder);
        move |ctx| {
            let mut granted = 0u64;
            for _ in 0..cycles {
                let lease = recorder.invoke(ctx.id(), LeaseOp::Lease);
                let name = recycler.lease_raw(ctx).ok();
                recorder.respond(lease, name);
                if let Some(name) = name {
                    granted += 1;
                    let release = recorder.invoke(ctx.id(), LeaseOp::Release(name));
                    recycler.release_with(ctx, name);
                    recorder.respond(release, None);
                }
            }
            granted
        }
    });
    let check: ScenarioCheck = Box::new({
        let recycler = Arc::clone(&recycler);
        let recorder = Arc::clone(&recorder);
        move |run: &VirtualRun<u64>| {
            assert_tight_lease_namespace(&recorder.take_history())?;
            if recycler.leaked_names() != 0 {
                return Err(format!("{} names leaked", recycler.leaked_names()));
            }
            let granted: u64 = run.outcome.completed().map(|(_, &g)| g).sum();
            let accounted = (recycler.fresh_names() + recycler.recycled_names()) as u64;
            // The ticket-rollback regression: a failed fresh acquisition
            // rolls its ticket back, or counts it burned when a later fresh
            // acquisition raced past it, so grants and the fresh/recycled
            // ledgers always reconcile.
            if accounted != granted {
                return Err(format!(
                    "lease ledger mismatch: {accounted} accounted vs {granted} granted"
                ));
            }
            if recycler.free_names() != recycler.fresh_names() {
                return Err(format!(
                    "{} fresh names but only {} returned to the free list",
                    recycler.fresh_names(),
                    recycler.free_names()
                ));
            }
            Ok(())
        }
    });
    BuiltScenario { body, check }
}

// ---------------------------------------------------------------------------
// Flight-recorder seqlock ring.
// ---------------------------------------------------------------------------

/// The writer's single event: name 1, payload `1 * 1000 + 7`. A reader
/// snapshot that is *not* marked torn must decode exactly this pairing — a
/// half-written slot leaking through the seqlock would break it.
const OBS_RING_NAME: u64 = 1;
const OBS_RING_PAYLOAD: u64 = OBS_RING_NAME * 1000 + 7;

fn build_obs_ring() -> BuiltScenario {
    // One single-writer ring of capacity 1 on the heap arena backend.
    // Process 0 writes one event through the schedule-visible seqlock
    // protocol (entry bump, four slot stores, exit bump — six shared steps);
    // process 1 snapshots the ring with a bounded retry. The green oracle is
    // the seqlock's honesty contract: every snapshot the reader accepts as
    // consistent (untorn) contains only fully written events, and the
    // bounded-retry fallback may return garbage only with the torn flag set.
    let recorder = obs::FlightRecorder::heap(1, 1);
    let body: ScenarioBody = Arc::new({
        let recorder = Arc::clone(&recorder);
        move |ctx| {
            if ctx.id().as_usize() == 0 {
                recorder.writer(0).log_vis(
                    ctx,
                    obs::EventKind::Mark,
                    OBS_RING_NAME,
                    OBS_RING_PAYLOAD,
                );
                0
            } else {
                let events = recorder.events_vis(ctx, 0, 2);
                for event in &events {
                    if !event.torn
                        && (event.name != OBS_RING_NAME || event.payload != OBS_RING_PAYLOAD)
                    {
                        // An untorn snapshot leaked a half-written slot.
                        return 999;
                    }
                }
                events.len() as u64
            }
        }
    });
    let check: ScenarioCheck = Box::new({
        let recorder = Arc::clone(&recorder);
        move |run: &VirtualRun<u64>| {
            for (pid, &value) in run.outcome.completed() {
                if pid.as_usize() == 1 && value == 999 {
                    return Err("an untorn reader snapshot contained a half-written event".into());
                }
            }
            // Quiescent re-read: the writer's event is fully visible, untorn.
            let events = recorder.events(0);
            if events.len() != 1 {
                return Err(format!("{} events at quiescence, expected 1", events.len()));
            }
            let event = &events[0];
            if event.torn
                || event.seq != 0
                || event.kind != obs::EventKind::Mark
                || event.name != OBS_RING_NAME
                || event.payload != OBS_RING_PAYLOAD
            {
                return Err(format!("quiescent snapshot corrupted: {event:?}"));
            }
            Ok(())
        }
    });
    BuiltScenario { body, check }
}

// ---------------------------------------------------------------------------
// Crash-robust lease reclamation.
// ---------------------------------------------------------------------------

fn build_robust_sweep() -> BuiltScenario {
    // Process 0 churns name 1 (acquire/release twice, owner tag 1); process
    // 1 sweeps the table twice with an adversarial liveness predicate that
    // declares owner 1 dead while it is alive and releasing. The green
    // oracle is the protocol's exactly-once guarantee: no interleaving of
    // the release CAS and the sweep CAS may free a grant zero or two times,
    // and a stale sweep CAS must never clobber a re-grant (the generation
    // stamp's job).
    let table = Arc::new(RobustLeaseTable::with_capacity(2));
    let body: ScenarioBody = Arc::new({
        let table = Arc::clone(&table);
        move |ctx| {
            if ctx.id().as_usize() == 0 {
                let mut names = 0u64;
                for _ in 0..2 {
                    let name = table.acquire(ctx, 1).expect("capacity 2 covers one holder");
                    names = names * 10 + name as u64;
                    table.release(ctx, name);
                }
                names
            } else {
                let mut reclaimed = 0u64;
                for _ in 0..2 {
                    reclaimed += table.sweep(ctx, |owner| owner == 1) as u64;
                }
                reclaimed
            }
        }
    });
    let check: ScenarioCheck = Box::new({
        let table = Arc::clone(&table);
        move |run: &VirtualRun<u64>| {
            let mut results = [0u64; 2];
            for (pid, &value) in run.outcome.completed() {
                results[pid.as_usize()] = value;
            }
            // Solo contention: the churner always gets the minimal name.
            if results[0] != 11 {
                return Err(format!(
                    "the solo churner must be granted name 1 twice, got digits {}",
                    results[0]
                ));
            }
            if table.live_leases() != 0 {
                return Err(format!(
                    "{} leases leaked at quiescence",
                    table.live_leases()
                ));
            }
            // Exactly-once: two grants, two HELD→FREE transitions, no
            // matter how release and sweep raced for them.
            if table.transitions() != 2 {
                return Err(format!(
                    "expected exactly 2 transitions for 2 grants, saw {} \
                     ({} of them by the sweeper)",
                    table.transitions(),
                    results[1]
                ));
            }
            if table.generation_of(1) != 2 || table.generation_of(2) != 0 {
                return Err(format!(
                    "generation stamps corrupted: slot 1 at {}, slot 2 at {}",
                    table.generation_of(1),
                    table.generation_of(2)
                ));
            }
            Ok(())
        }
    });
    BuiltScenario { body, check }
}

fn build_recover_race() -> BuiltScenario {
    // Pre-seeded crash image (real-mode ctx, before the virtual run): name 1
    // held by a dead raw owner, name 2 free. Both processes then race
    // `recover_with` at the same attach epoch, the restart race two fresh
    // attachers of a named arena run. The green oracle: exactly one
    // claimant wins the epoch CAS and does all the work exactly once — one
    // HELD→FREE transition for the dead lease — while the loser returns
    // without touching the table.
    let table = Arc::new(RobustLeaseTable::with_capacity(2));
    let mut setup = ProcessCtx::new(ProcessId::new(0), 11);
    table
        .acquire(&mut setup, 7)
        .expect("seeding the dead owner's lease");
    let body: ScenarioBody = Arc::new({
        let table = Arc::clone(&table);
        move |ctx| {
            let report = recover_with(ctx, &table, &[], 1, |_| true, true);
            u64::from(report.won) * 100 + report.reclaimed as u64 * 10
        }
    });
    let check: ScenarioCheck = Box::new({
        let table = Arc::clone(&table);
        move |run: &VirtualRun<u64>| {
            let mut results = Vec::new();
            for (_, &value) in run.outcome.completed() {
                results.push(value);
            }
            results.sort_unstable();
            if results != [0, 110] {
                return Err(format!(
                    "expected one winner doing all the work (110) and one \
                     no-op loser (0), got {results:?}"
                ));
            }
            if table.transitions() != 1 {
                return Err(format!(
                    "the dead lease must be freed exactly once, saw {} transitions",
                    table.transitions()
                ));
            }
            if table.last_recovered_epoch() != 1 {
                return Err(format!(
                    "epoch should settle at 1, at {}",
                    table.last_recovered_epoch()
                ));
            }
            if table.admissions_gated() {
                return Err("the winner left the admission gate raised".into());
            }
            Ok(())
        }
    });
    BuiltScenario { body, check }
}

#[cfg(test)]
mod tests {
    use super::*;
    use shmem::vexec::DEFAULT_MAX_STEPS;

    /// Every scenario completes and passes (or, for counterexample hunts,
    /// legitimately fails) under a handful of random schedules.
    #[test]
    fn scenarios_run_under_random_schedules() {
        for def in all() {
            for seed in 0..3u64 {
                let schedule = ScheduleSource::Random(seed);
                let (run, check) = def.execute(seed, None, schedule, DEFAULT_MAX_STEPS);
                assert_eq!(
                    run.outcome.completed().count(),
                    def.procs,
                    "{}: all processes complete under seed {seed}",
                    def.name
                );
                // Green oracles must hold on arbitrary schedules; hunts may
                // fail (that is their purpose), but must not panic.
                let verdict = check(&run);
                if !def.expect_violations {
                    assert_eq!(verdict, Ok(()), "{} under seed {seed}", def.name);
                }
            }
        }
    }

    /// The `cnet_width4_3p` oracle rejects a wiring that miscounts: three
    /// tokens entering wire 0 of the width-4 transposition wiring leave with
    /// exit counts [2, 1, 0, 0], whose adjacent wires all differ by at most
    /// one, but whose first and third wires differ by two.
    #[test]
    fn the_counting_oracle_rejects_a_non_adjacent_step_violation() {
        use cnet::compiled::CompiledBalancingNetwork;
        use sortnet::family::{NetworkFamily, SortingFamily};

        let wiring = NetworkFamily::Transposition.schedule(4);
        let counter = Arc::new(NetworkCounter::with_network(
            CompiledBalancingNetwork::compile(&*wiring),
        ));
        let BuiltScenario { body, check } = cnet_counter_scenario(Arc::clone(&counter), 3);
        // Entry wire = identifier mod 4: all three enter on wire 0.
        let ids: Vec<ProcessId> = [0, 4, 8].into_iter().map(ProcessId::new).collect();
        let run = VirtualExecutor::with_seed(0).run_with_ids(&ids, move |ctx| body(ctx));
        assert_eq!(counter.exit_counts(), vec![2, 1, 0, 0]);
        let error = check(&run).expect_err("[2, 1, 0, 0] is not a staircase");
        assert!(
            error.contains("wire 0 holds 2 tokens but wire 2 holds 0"),
            "{error}"
        );
    }

    #[test]
    fn registry_lookup_is_by_name() {
        assert!(find("mono_counter_3p").is_some());
        assert!(find("no_such_scenario").is_none());
        let names: Vec<&str> = all().iter().map(|s| s.name).collect();
        let mut dedup = names.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), names.len(), "scenario names are unique");
    }
}
