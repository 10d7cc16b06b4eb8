//! The schedule search: one DFS over schedules, with classic DPOR as its
//! default mode and brute-force and preemption-bounded modes beside it.
//!
//! Stateless-search layout (Flanagan–Godefroid persistent sets + sleep
//! sets): a DFS stack of scheduling decisions mirrors the current execution
//! one entry per granted step. After each run, a clock-vector race analysis
//! walks the trace, finds pairs of conflicting concurrent operations, and
//! plants **backtrack points** — alternative processes to try — at the
//! earlier operation's decision node. Backtracking pops exhausted nodes,
//! switches an unexplored backtrack candidate in, and re-executes the
//! program under the forced prefix. Sleep sets carry explored siblings into
//! each subtree so no Mazurkiewicz class is executed twice: a run whose
//! every enabled process sleeps is abandoned ([`ExploreReport::sleep_blocked`]).
//!
//! [`ExploreMode::BruteForce`] disables both reductions (every enabled
//! process becomes a backtrack candidate, sleep sets stay empty), turning
//! the same DFS into naive enumeration of *all* maximal interleavings — the
//! ground truth the DPOR soundness tests compare against.
//!
//! [`ExploreMode::Bounded`] is CHESS-style preemption bounding. Empirically,
//! most concurrency bugs need only a handful of *preemptions* — context
//! switches taken while the running process could have continued — and
//! bounding their count makes the schedule space polynomial in the program
//! length, a deep slice of behaviours on scenarios exhaustive DPOR cannot
//! finish. The same DFS runs with empty sleep sets and no race analysis; a
//! node's backtrack set is every enabled process switching to which is free
//! (not a preemption) or affordable (the prefix above the node took fewer
//! preemptions than the bound), and the free-run tail keeps granting the
//! process that stepped last, so it spends no preemptions.

use crate::classes::class_hash;
use crate::driver::{ForcedChoice, Guide, TailPolicy};
use crate::scenarios::ScenarioDef;
use shmem::{ExploreHandle, OpEvent, PendingOp, ProcessId, Schedule, ScheduleSource, VirtualRun};
use std::collections::{BTreeMap, BTreeSet};

/// Search strategy of the explorer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ExploreMode {
    /// Dynamic partial-order reduction: persistent sets + sleep sets.
    Dpor,
    /// Naive enumeration of every maximal interleaving (ground truth).
    BruteForce,
    /// Every interleaving that takes at most this many preemptions.
    Bounded(u32),
}

/// Knobs of one search.
#[derive(Clone, Debug)]
pub struct ExploreConfig {
    /// Search strategy.
    pub mode: ExploreMode,
    /// Hard cap on executed schedules; hitting it sets [`ExploreReport::capped`].
    pub max_executions: usize,
    /// Per-execution step budget handed to the virtual executor.
    pub max_steps: u64,
    /// Stop the search at the first oracle violation.
    pub stop_on_violation: bool,
}

impl Default for ExploreConfig {
    fn default() -> Self {
        ExploreConfig {
            mode: ExploreMode::Dpor,
            max_executions: 200_000,
            max_steps: 100_000,
            stop_on_violation: false,
        }
    }
}

/// A schedule (plus crash plan) under which a scenario's oracle failed —
/// replayable via [`ScheduleSource::Replay`], serializable as a trace file.
#[derive(Clone, Debug)]
pub struct Counterexample {
    /// The scenario the oracle belongs to.
    pub scenario: String,
    /// The crash plan in force, if any (`CrashPlan::Fixed` vector).
    pub crash_plan: Option<Vec<Option<u64>>>,
    /// The schedule that produced the violation.
    pub schedule: Schedule,
    /// The oracle's description of the violation.
    pub message: String,
}

impl Counterexample {
    /// The counterexample made of `run`, an execution of `def` under
    /// `crash_plan` whose oracle failed with `message`.
    pub(crate) fn new(
        def: &ScenarioDef,
        crash_plan: Option<&Vec<Option<u64>>>,
        run: &VirtualRun<u64>,
        message: String,
    ) -> Self {
        Counterexample {
            scenario: def.name.to_string(),
            crash_plan: crash_plan.cloned(),
            schedule: run.trace.schedule.clone(),
            message,
        }
    }
}

/// What a search did and found.
#[derive(Clone, Debug, Default)]
pub struct ExploreReport {
    /// Executions launched (complete + sleep-blocked + truncated).
    pub executions: usize,
    /// Executions that ran to completion and were oracle-checked.
    pub complete: usize,
    /// Executions abandoned because every enabled process slept.
    pub sleep_blocked: usize,
    /// Executions cut off by the step budget.
    pub truncated: usize,
    /// Mazurkiewicz class hashes of the complete executions.
    pub classes: BTreeSet<u64>,
    /// Every oracle violation found.
    pub violations: Vec<Counterexample>,
    /// Whether `max_executions` cut the search short.
    pub capped: bool,
    /// `ln` of the multinomial interleaving count of the first complete
    /// trace — the naive enumeration baseline the reduction is measured
    /// against (`None` until a run completes).
    pub naive_ln_interleavings: Option<f64>,
}

impl ExploreReport {
    /// The naive-enumeration baseline as a plain count (`exp` of the stored
    /// logarithm; `f64::INFINITY`-safe for large traces).
    pub fn naive_interleavings(&self) -> f64 {
        self.naive_ln_interleavings.map_or(0.0, f64::exp)
    }

    /// Folds another report (e.g. one crash-sweep arm) into this one.
    pub fn merge(&mut self, other: ExploreReport) {
        self.executions += other.executions;
        self.complete += other.complete;
        self.sleep_blocked += other.sleep_blocked;
        self.truncated += other.truncated;
        self.classes.extend(other.classes);
        self.violations.extend(other.violations);
        self.capped |= other.capped;
        self.naive_ln_interleavings =
            match (self.naive_ln_interleavings, other.naive_ln_interleavings) {
                (Some(a), Some(b)) => Some(a.max(b)),
                (a, b) => a.or(b),
            };
    }
}

/// One DFS stack node: a scheduling decision and its exploration state.
#[derive(Clone, Debug)]
struct Entry {
    /// The enabled set at the decision, in process order.
    enabled: Vec<(ProcessId, PendingOp)>,
    /// The branch currently (or most recently) taken.
    chosen: ProcessId,
    /// Sleep set inherited at this node.
    sleep_at_entry: Vec<(ProcessId, PendingOp)>,
    /// Processes worth exploring from this node (persistent set).
    backtrack: BTreeSet<ProcessId>,
    /// Branches fully explored.
    done: BTreeSet<ProcessId>,
}

/// Explores every crash-plan arm of a scenario and merges the reports.
pub fn explore(def: &ScenarioDef, config: &ExploreConfig) -> ExploreReport {
    let mut report = ExploreReport::default();
    for plan in def.crash_plans() {
        report.merge(explore_one(def, plan.as_ref(), config));
        if config.stop_on_violation && !report.violations.is_empty() {
            break;
        }
    }
    report
}

/// Explores one scenario under one (optional) crash plan.
pub fn explore_one(
    def: &ScenarioDef,
    crash_plan: Option<&Vec<Option<u64>>>,
    config: &ExploreConfig,
) -> ExploreReport {
    let mut report = ExploreReport::default();
    let mut stack: Vec<Entry> = Vec::new();

    loop {
        if report.executions >= config.max_executions {
            report.capped = true;
            break;
        }

        // Re-execute under the stack's forced prefix. Sleep sets ride along:
        // at each prefix node the already-explored siblings go to sleep.
        let forced: Vec<ForcedChoice> = stack
            .iter()
            .map(|e| ForcedChoice {
                pid: e.chosen,
                sleep_add: match config.mode {
                    ExploreMode::Dpor => e
                        .enabled
                        .iter()
                        .filter(|(p, _)| e.done.contains(p))
                        .copied()
                        .collect(),
                    ExploreMode::BruteForce | ExploreMode::Bounded(_) => Vec::new(),
                },
            })
            .collect();
        let policy = match config.mode {
            ExploreMode::Bounded(_) => TailPolicy::Sticky,
            ExploreMode::Dpor | ExploreMode::BruteForce => TailPolicy::LowestAwake,
        };
        let guide = Guide::new(forced, policy);
        let schedule = ScheduleSource::Explore(ExploreHandle::new(guide.scheduler()));
        let (run, check) = def.execute(0, crash_plan, schedule, config.max_steps);
        let (nodes, sleep_blocked) = guide.into_nodes();
        report.executions += 1;

        // Extend the stack with the free-run suffix of this execution,
        // counting the preemptions the run took above each node.
        debug_assert!(
            nodes.len() >= stack.len()
                && nodes.iter().zip(&stack).all(|(n, e)| n.chosen == e.chosen),
            "deterministic replay must reproduce the forced prefix"
        );
        let mut prev = None;
        let mut preemptions = 0;
        for (depth, node) in nodes.iter().enumerate() {
            let preempts = |pid: ProcessId| {
                prev.is_some_and(|q| q != pid && node.enabled.iter().any(|(p, _)| *p == q))
            };
            if depth >= stack.len() {
                let enabled = node.enabled.iter().map(|(p, _)| *p);
                let backtrack: BTreeSet<ProcessId> = match config.mode {
                    ExploreMode::Dpor => std::iter::once(node.chosen).collect(),
                    ExploreMode::BruteForce => enabled.collect(),
                    ExploreMode::Bounded(bound) => enabled
                        .filter(|&p| preemptions < bound || !preempts(p))
                        .collect(),
                };
                stack.push(Entry {
                    enabled: node.enabled.clone(),
                    chosen: node.chosen,
                    sleep_at_entry: node.sleep_at_entry.clone(),
                    backtrack,
                    done: BTreeSet::new(),
                });
            }
            preemptions += u32::from(preempts(node.chosen));
            prev = Some(node.chosen);
        }

        if sleep_blocked {
            report.sleep_blocked += 1;
        } else if run.trace.truncated {
            report.truncated += 1;
        } else {
            report.complete += 1;
            report.classes.insert(class_hash(&run.trace.events));
            if report.naive_ln_interleavings.is_none() {
                report.naive_ln_interleavings = Some(ln_multinomial(&run.trace.events));
            }
            if let Err(message) = check(&run) {
                report
                    .violations
                    .push(Counterexample::new(def, crash_plan, &run, message));
                if config.stop_on_violation {
                    break;
                }
            }
        }

        // Race analysis: plant backtrack points at the earlier operation of
        // every conflicting concurrent pair. Partial (sleep-blocked or
        // truncated) traces are analyzed too — their prefix races are real.
        if config.mode == ExploreMode::Dpor {
            for (i, pid) in race_backtracks(&run.trace.events) {
                if let Some(entry) = stack.get_mut(i) {
                    entry.backtrack.insert(pid);
                }
            }
        }

        // Backtrack: find the deepest node with an unexplored, non-sleeping
        // backtrack candidate; pop everything below it.
        let mut advanced = false;
        while let Some(mut entry) = stack.pop() {
            entry.done.insert(entry.chosen);
            let next = entry.backtrack.iter().copied().find(|p| {
                !entry.done.contains(p) && !entry.sleep_at_entry.iter().any(|(q, _)| q == p)
            });
            if let Some(pid) = next {
                debug_assert!(
                    entry.enabled.iter().any(|(p, _)| *p == pid),
                    "backtrack candidates were enabled at their node"
                );
                entry.chosen = pid;
                stack.push(entry);
                advanced = true;
                break;
            }
        }
        if !advanced {
            break;
        }
    }
    report
}

/// Clock-vector race analysis over one trace: returns `(node index, process)`
/// pairs meaning "also try scheduling `process` at `node index`".
///
/// For each event `j` (by process `q`) the causal past is tracked as a vector
/// clock counting, per process, how many of its events happen-before `j`
/// (program order plus conflict order). Scanning backwards from `j`, the
/// *latest* conflicting event `i` by another process that is **not** in `j`'s
/// causal past is a race: `q` could have been scheduled at `i`'s decision
/// node instead (it was parked there — under the virtual executor every live
/// process is announced at every decision), reversing the pair.
pub(crate) fn race_backtracks(events: &[OpEvent]) -> Vec<(usize, ProcessId)> {
    type Clock = BTreeMap<ProcessId, usize>;
    let join = |into: &mut Clock, from: &Clock| {
        for (p, &c) in from {
            let slot = into.entry(*p).or_insert(0);
            *slot = (*slot).max(c);
        }
    };

    let mut event_clock: Vec<Clock> = Vec::with_capacity(events.len());
    // Per-process: clock of its latest event, count of its events so far.
    let mut proc_clock: BTreeMap<ProcessId, Clock> = BTreeMap::new();
    let mut proc_seq: BTreeMap<ProcessId, usize> = BTreeMap::new();
    // 1-based index of each event within its process.
    let mut po: Vec<usize> = Vec::with_capacity(events.len());
    let mut out = Vec::new();

    for (j, ej) in events.iter().enumerate() {
        let q = ej.pid;
        let pre = proc_clock.get(&q).cloned().unwrap_or_default();

        for i in (0..j).rev() {
            let p = events[i].pid;
            if p == q || !events[i].op.conflicts_with(&ej.op) {
                continue;
            }
            if pre.get(&p).copied().unwrap_or(0) >= po[i] {
                // `i` happens-before `j`: ordered, not a race. Keep scanning —
                // an earlier concurrent conflict may still exist.
                continue;
            }
            out.push((i, q));
            break; // only the latest race per event (Flanagan–Godefroid)
        }

        // This event's clock: program-order past joined with every
        // conflicting predecessor's clock (ordered and racy alike — once the
        // trace has executed them in this order, the order is causal here).
        let mut clock = pre;
        for (i, ei) in events.iter().enumerate().take(j) {
            if ei.pid != q && ei.op.conflicts_with(&ej.op) {
                join(&mut clock, &event_clock[i]);
            }
        }
        let seq = proc_seq.entry(q).or_insert(0);
        *seq += 1;
        clock.insert(q, *seq);
        po.push(*seq);
        proc_clock.insert(q, clock.clone());
        event_clock.push(clock);
    }
    out
}

/// `ln` of the number of interleavings of the trace's per-process event
/// counts (the multinomial coefficient): the naive enumeration baseline.
fn ln_multinomial(events: &[OpEvent]) -> f64 {
    let mut counts: BTreeMap<ProcessId, u64> = BTreeMap::new();
    for e in events {
        *counts.entry(e.pid).or_insert(0) += 1;
    }
    let total: u64 = counts.values().sum();
    ln_factorial(total) - counts.values().map(|&c| ln_factorial(c)).sum::<f64>()
}

fn ln_factorial(n: u64) -> f64 {
    (2..=n).map(|i| (i as f64).ln()).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenarios;

    fn exhaustive(mode: ExploreMode) -> ExploreConfig {
        ExploreConfig {
            mode,
            max_executions: 500_000,
            max_steps: 100_000,
            stop_on_violation: false,
        }
    }

    /// Runs both strategies on a scenario and checks the DPOR soundness
    /// contract: identical class sets (no class pruned, none invented) and
    /// no duplicate complete execution (sleep-set theorem).
    fn soundness(name: &str) -> (ExploreReport, ExploreReport) {
        let def = scenarios::find(name).expect("scenario registered");
        let dpor = explore(&def, &exhaustive(ExploreMode::Dpor));
        let brute = explore(&def, &exhaustive(ExploreMode::BruteForce));
        assert!(!dpor.capped && !brute.capped, "{name}: search must finish");
        assert_eq!(
            dpor.classes, brute.classes,
            "{name}: DPOR must cover exactly the brute-force class set"
        );
        assert_eq!(
            dpor.complete,
            dpor.classes.len(),
            "{name}: sleep sets must prevent duplicate complete executions"
        );
        assert!(
            brute.violations.is_empty() == dpor.violations.is_empty(),
            "{name}: both strategies agree on violation existence"
        );
        (dpor, brute)
    }

    #[test]
    fn dpor_matches_brute_force_on_independent_registers() {
        let (dpor, brute) = soundness("toy_rw_indep");
        // Fully independent programs collapse to a single class...
        assert_eq!(dpor.classes.len(), 1);
        assert_eq!(dpor.executions, 1, "one class, one execution");
        // ...which naive enumeration pays dearly for.
        assert!(
            brute.executions >= 10 * dpor.executions,
            "reduction must beat naive enumeration 10x: {} vs {}",
            brute.executions,
            dpor.executions
        );
    }

    #[test]
    fn dpor_matches_brute_force_on_a_racy_register() {
        let (dpor, brute) = soundness("toy_racy_pair");
        assert!(dpor.classes.len() > 1, "the race is real");
        assert!(dpor.executions < brute.executions);
    }

    #[test]
    fn dpor_matches_brute_force_on_message_passing() {
        let (dpor, brute) = soundness("toy_mp");
        assert!(
            brute.executions >= 2 * dpor.executions,
            "flag/data dependence still admits reduction: {} vs {}",
            brute.executions,
            dpor.executions
        );
    }

    #[test]
    fn exhaustive_dpor_verifies_the_two_process_tas() {
        let def = scenarios::find("tas_pair_2p").expect("registered");
        let report = explore(&def, &exhaustive(ExploreMode::Dpor));
        assert!(!report.capped, "2-process TAS must be exhaustible");
        assert!(report.violations.is_empty(), "{:?}", report.violations);
        assert!(report.complete >= 2, "both winners are reachable");
    }

    #[test]
    fn exhaustive_dpor_verifies_the_tas_chain() {
        let def = scenarios::find("tas_chain_3p").expect("registered");
        let report = explore(&def, &exhaustive(ExploreMode::Dpor));
        assert!(!report.capped, "3-process TAS chain must be exhaustible");
        assert!(report.violations.is_empty(), "{:?}", report.violations);
        assert!(report.complete >= 2, "multiple outcomes are reachable");
        // The acceptance bar: DPOR explores >= 10x fewer schedules than
        // naive enumeration (210 maximal interleavings for this scenario).
        assert!(
            report.naive_interleavings() >= 10.0 * report.executions as f64,
            "expected >= 10x reduction: {} executions vs {:.0} naive",
            report.executions,
            report.naive_interleavings()
        );
    }

    #[test]
    fn exhaustive_tier_counts_are_pinned() {
        // `(executions, complete, sleep_blocked, classes)` of every
        // exhaustive scenario, searched as `mcheck explore` searches it. The
        // virtual executor is deterministic, so any drift here means the
        // enabled sets or the order the scheduler saw them in changed.
        let pinned: [(&str, [usize; 4]); 16] = [
            ("toy_rw_indep", [1, 1, 0, 1]),
            ("toy_racy_pair", [4, 4, 0, 4]),
            ("toy_mp", [3, 3, 0, 3]),
            ("tas_pair_2p", [2, 2, 0, 2]),
            ("tas_chain_3p", [4, 4, 0, 4]),
            ("cnet_width2_2p", [2, 2, 0, 2]),
            ("cnet_width4_3p", [9, 8, 1, 8]),
            ("cnet_stall_one_token", [1, 1, 0, 1]),
            ("mono_counter_3p", [193, 193, 0, 104]),
            ("renaming_width4_3p", [13, 12, 1, 12]),
            ("recycler_churn_2p", [22, 22, 0, 22]),
            ("robust_sweep_2p", [887, 887, 0, 887]),
            ("recover_race_2p", [8, 8, 0, 8]),
            ("obs_ring_2p", [39, 39, 0, 39]),
            ("recycler_churn_3p", [119, 114, 5, 114]),
            ("recycler_rollback_2p", [18, 18, 0, 18]),
        ];
        let tier: Vec<ScenarioDef> = scenarios::all()
            .into_iter()
            .filter(|def| def.exhaustive)
            .collect();
        assert_eq!(
            tier.iter().map(|def| def.name).collect::<Vec<_>>(),
            pinned.iter().map(|(name, _)| *name).collect::<Vec<_>>(),
            "the exhaustive tier's membership changed"
        );
        for (def, (name, counts)) in tier.iter().zip(pinned) {
            let config = ExploreConfig {
                stop_on_violation: def.expect_violations,
                ..ExploreConfig::default()
            };
            let r = explore(def, &config);
            assert_eq!(
                [r.executions, r.complete, r.sleep_blocked, r.classes.len()],
                counts,
                "{name}: (executions, complete, sleep-blocked, classes)"
            );
            assert!(
                def.expect_violations || r.violations.is_empty(),
                "{name}: {:?}",
                r.violations
            );
        }
        let chain = scenarios::find("tas_chain_3p").expect("registered");
        let brute = explore(&chain, &exhaustive(ExploreMode::BruteForce));
        assert_eq!((brute.executions, brute.classes.len()), (210, 4));
    }

    #[test]
    fn capped_dpor_keeps_the_randomized_tas_green() {
        // The randomized TAS's schedule space explodes (round counts depend
        // on adversarially scheduled coin flips), so the exhaustive tier
        // excludes it; a capped DPOR pass still checks the one-winner oracle
        // across a broad sample of its schedules.
        let def = scenarios::find("rand_tas_pair_2p").expect("registered");
        assert!(!def.exhaustive, "randomized TAS belongs to the heavy tier");
        let config = ExploreConfig {
            mode: ExploreMode::Dpor,
            max_executions: 500,
            ..ExploreConfig::default()
        };
        let report = explore(&def, &config);
        assert!(report.violations.is_empty(), "{:?}", report.violations);
        assert!(report.complete >= 2, "distinct executions must complete");
    }

    #[test]
    fn bound_zero_is_non_preemptive_scheduling() {
        // With no preemptions allowed, the only free choices are at process
        // completion: a 2-process program admits exactly 2 executions.
        let def = scenarios::find("toy_racy_pair").expect("registered");
        let report = explore(&def, &exhaustive(ExploreMode::Bounded(0)));
        assert!(!report.capped);
        assert_eq!(report.executions, 2);
        assert!(report.violations.is_empty(), "{:?}", report.violations);
    }

    #[test]
    fn preemptions_buy_strictly_more_coverage() {
        let def = scenarios::find("toy_racy_pair").expect("registered");
        let b0 = explore(&def, &exhaustive(ExploreMode::Bounded(0)));
        let b2 = explore(&def, &exhaustive(ExploreMode::Bounded(2)));
        assert!(!b2.capped);
        assert!(
            b2.classes.len() > b0.classes.len(),
            "bound 2 must reach classes bound 0 cannot: {} vs {}",
            b2.classes.len(),
            b0.classes.len()
        );
        assert!(
            b2.classes.is_superset(&b0.classes),
            "raising the bound only adds schedules"
        );
        assert!(b2.violations.is_empty(), "{:?}", b2.violations);
    }

    #[test]
    fn bounded_search_keeps_tas_pair_green() {
        let def = scenarios::find("tas_pair_2p").expect("registered");
        let report = explore(&def, &exhaustive(ExploreMode::Bounded(2)));
        assert!(!report.capped, "bound 2 on a 2-process TAS is exhaustible");
        assert!(report.violations.is_empty(), "{:?}", report.violations);
        assert!(report.complete >= 2);
    }

    #[test]
    fn bound_two_counts_are_pinned() {
        // `(executions, complete, truncated, classes)` at bound 2, searched
        // as `mcheck explore --mode bounded` searches each scenario. The
        // randomized TAS runs under CI's execution cap.
        let pinned: [(&str, usize, [usize; 4]); 6] = [
            ("toy_racy_pair", 200_000, [14, 14, 0, 4]),
            ("tas_pair_2p", 200_000, [6, 6, 0, 2]),
            ("tas_chain_3p", 200_000, [92, 92, 0, 4]),
            ("cnet_width4_3p", 200_000, [690, 690, 0, 8]),
            ("recycler_churn_2p", 200_000, [24, 24, 0, 12]),
            ("rand_tas_pair_2p", 20_000, [42, 42, 0, 16]),
        ];
        for (name, max_executions, counts) in pinned {
            let def = scenarios::find(name).expect("registered");
            let r = explore(
                &def,
                &ExploreConfig {
                    mode: ExploreMode::Bounded(2),
                    max_executions,
                    ..ExploreConfig::default()
                },
            );
            assert!(!r.capped, "{name}: bound 2 is exhaustible");
            assert_eq!(
                [r.executions, r.complete, r.truncated, r.classes.len()],
                counts,
                "{name}: (executions, complete, truncated, classes)"
            );
            assert!(r.violations.is_empty(), "{name}: {:?}", r.violations);
        }
    }

    #[test]
    fn race_analysis_orders_conflicts_and_skips_locals() {
        use shmem::{Loc, PendingOp as Op, StepKind};
        let a = Loc::fresh();
        let pid = ProcessId::new;
        let ev = |p: usize, op: Op| OpEvent { pid: pid(p), op };
        // p0 writes a, then p1 writes a: one race at index 0, try p1 there.
        let events = vec![
            ev(0, Op::begin()),
            ev(1, Op::begin()),
            ev(0, Op::step(StepKind::RegisterWrite, a)),
            ev(1, Op::step(StepKind::RegisterWrite, a)),
        ];
        assert_eq!(race_backtracks(&events), vec![(2, pid(1))]);
        // Local ops (begins) never race.
        let quiet = vec![ev(0, Op::begin()), ev(1, Op::begin())];
        assert!(race_backtracks(&quiet).is_empty());
    }

    #[test]
    fn happens_before_suppresses_ordered_conflicts() {
        use shmem::{Loc, PendingOp as Op, StepKind};
        let a = Loc::fresh();
        let pid = ProcessId::new;
        let ev = |p: usize, op: Op| OpEvent { pid: pid(p), op };
        // p0 writes a; p1 reads a; p1 writes a again. The second p1 access
        // is ordered after p0's write *through* p1's own earlier racy read —
        // only the first pair is a race.
        let events = vec![
            ev(0, Op::step(StepKind::RegisterWrite, a)),
            ev(1, Op::step(StepKind::RegisterRead, a)),
            ev(1, Op::step(StepKind::RegisterWrite, a)),
        ];
        assert_eq!(race_backtracks(&events), vec![(0, pid(1))]);
    }
}
