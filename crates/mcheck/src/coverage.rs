//! Coverage-guided schedule fuzzing.
//!
//! Exhaustive search caps out at a handful of processes; random scheduling
//! alone keeps re-sampling the fat head of the schedule distribution. The
//! fuzzer sits in between: a corpus of interesting schedules is mutated
//! (truncate at a random point, then continue with fresh random choices) and
//! a run earns its way into the corpus by **novelty** — an unseen
//! Mazurkiewicz dependency-class hash — or by pushing an **objective**
//! outlier: the longest trace seen (step-count outlier, e.g. recycler retry
//! storms) or the largest per-process result (namespace-bound outlier for
//! renaming scenarios). A full corpus keeps learning: each admission then
//! replaces a uniformly drawn entry.

use crate::classes::class_hash;
use crate::dpor::Counterexample;
use crate::scenarios::ScenarioDef;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use shmem::{
    ExploreHandle, PendingOp, ProcessId, Schedule, ScheduleSource, Scheduler, SchedulerDecision,
};
use std::collections::BTreeSet;
use std::time::{Duration, Instant};

/// Knobs of one fuzzing campaign.
#[derive(Clone, Debug)]
pub struct FuzzConfig {
    /// Wall-clock budget.
    pub seconds: f64,
    /// Campaign seed: drives mutation and tail scheduling.
    pub seed: u64,
    /// Per-execution step budget.
    pub max_steps: u64,
    /// Hard cap on iterations (safety net under CI timers).
    pub max_iters: usize,
    /// Stop at the first oracle violation.
    pub stop_on_violation: bool,
}

impl Default for FuzzConfig {
    fn default() -> Self {
        FuzzConfig {
            seconds: 5.0,
            seed: 0,
            max_steps: 100_000,
            max_iters: 1_000_000,
            stop_on_violation: false,
        }
    }
}

/// What a fuzzing campaign observed.
#[derive(Clone, Debug, Default)]
pub struct FuzzReport {
    /// Executions launched.
    pub iterations: usize,
    /// Executions that ran to completion and were oracle-checked.
    pub complete: usize,
    /// Executions cut off by the step budget.
    pub truncated: usize,
    /// Distinct Mazurkiewicz class hashes observed.
    pub classes: BTreeSet<u64>,
    /// Every oracle violation found.
    pub violations: Vec<Counterexample>,
    /// Final corpus size.
    pub corpus: usize,
    /// Longest complete trace observed (step-count objective).
    pub max_trace_len: usize,
    /// Largest per-process result observed (namespace-bound objective).
    pub max_result: u64,
}

/// Replays a schedule prefix (skipping entries naming a non-enabled
/// process), then continues with uniformly random choices.
struct PrefixRandomScheduler {
    prefix: Vec<ProcessId>,
    pos: usize,
    rng: StdRng,
}

impl Scheduler for PrefixRandomScheduler {
    fn choose(&mut self, _step: usize, enabled: &[(ProcessId, PendingOp)]) -> SchedulerDecision {
        while self.pos < self.prefix.len() {
            let pid = self.prefix[self.pos];
            self.pos += 1;
            if enabled.iter().any(|(p, _)| *p == pid) {
                return SchedulerDecision::Pick(pid);
            }
        }
        let index = self.rng.gen_range(0..enabled.len());
        SchedulerDecision::Pick(enabled[index].0)
    }
}

/// The most schedules a campaign keeps as mutation parents.
const CORPUS_CAP: usize = 512;

/// Admits an interesting run's schedule to the corpus: appended while there
/// is room, and once the corpus is full it replaces a uniformly drawn entry,
/// so a long campaign keeps learning after the cap. Draws from `rng` only
/// when the corpus is full.
fn admit<T>(corpus: &mut Vec<T>, entry: T, rng: &mut StdRng) {
    if corpus.len() < CORPUS_CAP {
        corpus.push(entry);
    } else {
        let victim = rng.gen_range(0..corpus.len());
        corpus[victim] = entry;
    }
}

/// Runs a coverage-guided fuzzing campaign over one scenario.
pub fn fuzz(def: &ScenarioDef, config: &FuzzConfig) -> FuzzReport {
    let mut report = FuzzReport::default();
    let mut corpus: Vec<Schedule> = Vec::new();
    let mut rng =
        StdRng::seed_from_u64(config.seed.wrapping_mul(0x517c_c1b7_2722_0a95) ^ 0x5eed_0fc0_ffee);
    let plans = def.crash_plans();
    let deadline = Instant::now() + Duration::from_secs_f64(config.seconds.max(0.0));

    while report.iterations < config.max_iters && Instant::now() < deadline {
        report.iterations += 1;

        // Mutation: three-quarters of the time, truncate a corpus schedule
        // at a random point and let the random tail diverge from there.
        let prefix: Vec<ProcessId> = if !corpus.is_empty() && rng.gen_bool(0.75) {
            let parent = &corpus[rng.gen_range(0..corpus.len())];
            let cut = rng.gen_range(0..=parent.choices.len());
            parent.choices[..cut].to_vec()
        } else {
            Vec::new()
        };
        let plan = &plans[rng.gen_range(0..plans.len())];

        let scheduler = PrefixRandomScheduler {
            prefix,
            pos: 0,
            rng: StdRng::seed_from_u64(rng.gen()),
        };
        let schedule = ScheduleSource::Explore(ExploreHandle::new(scheduler));
        let (run, check) = def.execute(0, plan.as_ref(), schedule, config.max_steps);

        if run.trace.truncated {
            report.truncated += 1;
            continue;
        }
        report.complete += 1;

        // Novelty and objectives decide corpus admission.
        let mut interesting = report.classes.insert(class_hash(&run.trace.events));
        if run.trace.events.len() > report.max_trace_len {
            report.max_trace_len = run.trace.events.len();
            interesting = true;
        }
        let best = run.outcome.completed().map(|(_, &r)| r).max().unwrap_or(0);
        if best > report.max_result {
            report.max_result = best;
            interesting = true;
        }
        if interesting {
            admit(&mut corpus, run.trace.schedule.clone(), &mut rng);
        }

        if let Err(message) = check(&run) {
            report
                .violations
                .push(Counterexample::new(def, plan.as_ref(), &run, message));
            if config.stop_on_violation {
                break;
            }
        }
    }
    report.corpus = corpus.len();
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenarios;

    fn quick(seed: u64) -> FuzzConfig {
        FuzzConfig {
            seconds: 2.0,
            seed,
            max_steps: 100_000,
            max_iters: 400,
            stop_on_violation: false,
        }
    }

    #[test]
    fn fuzzing_accumulates_distinct_classes() {
        let def = scenarios::find("toy_racy_pair").expect("registered");
        let report = fuzz(&def, &quick(1));
        assert!(report.iterations > 0);
        assert!(
            report.classes.len() > 1,
            "random schedules of a racy pair hit several classes"
        );
        assert!(report.violations.is_empty(), "{:?}", report.violations);
        assert!(report.corpus >= report.classes.len().min(4));
    }

    #[test]
    fn fuzzing_finds_the_stalled_token_counterexample() {
        let def = scenarios::find("cnet_stall_one_token").expect("registered");
        let report = fuzz(
            &def,
            &FuzzConfig {
                stop_on_violation: true,
                ..quick(2)
            },
        );
        assert!(
            !report.violations.is_empty(),
            "the stall violation is dense enough for a short fuzz: {report:?}"
        );
    }

    #[test]
    fn fuzz_campaigns_are_pinned() {
        // `(iterations, complete, truncated, classes, corpus, max_trace_len,
        // max_result, violations)` of a 400-iteration campaign at seed 1. The
        // deadline is an hour away, so the iteration cap ends every campaign
        // and the figures do not depend on the host's speed.
        let pinned: [(&str, [usize; 8]); 3] = [
            ("toy_racy_pair", [400, 400, 0, 4, 4, 6, 2, 0]),
            ("recycler_churn_2p", [400, 400, 0, 22, 22, 9, 2, 0]),
            ("cnet_stall_one_token", [400, 400, 0, 14, 14, 10, 2, 130]),
        ];
        for (name, counts) in pinned {
            let def = scenarios::find(name).expect("registered");
            let r = fuzz(
                &def,
                &FuzzConfig {
                    seconds: 3600.0,
                    ..quick(1)
                },
            );
            assert_eq!(
                [
                    r.iterations,
                    r.complete,
                    r.truncated,
                    r.classes.len(),
                    r.corpus,
                    r.max_trace_len,
                    r.max_result as usize,
                    r.violations.len(),
                ],
                counts,
                "{name}: (iterations, complete, truncated, classes, corpus, \
                 max_trace_len, max_result, violations)"
            );
        }
    }

    #[test]
    fn a_full_corpus_replaces_a_uniformly_drawn_entry() {
        let mut rng = StdRng::seed_from_u64(7);
        let mut corpus: Vec<usize> = Vec::new();
        for entry in 0..CORPUS_CAP {
            admit(&mut corpus, entry, &mut rng);
        }
        // Filling the corpus never touches the rng.
        assert_eq!(rng.gen::<u64>(), StdRng::seed_from_u64(7).gen::<u64>());
        assert_eq!(corpus, (0..CORPUS_CAP).collect::<Vec<_>>());
        let replacements = 4 * CORPUS_CAP;
        for entry in CORPUS_CAP..CORPUS_CAP + replacements {
            admit(&mut corpus, entry, &mut rng);
            assert_eq!(corpus.len(), CORPUS_CAP);
            assert!(corpus.contains(&entry), "the newest admission is kept");
        }
        // Uniform victims: after four corpus-sizes of replacements about
        // e⁻⁴ ≈ 2% of the original entries survive, and the corpus holds no
        // entry twice.
        let originals = corpus.iter().filter(|&&entry| entry < CORPUS_CAP).count();
        assert!(originals < CORPUS_CAP / 10, "{originals} originals survive");
        let mut distinct = corpus.clone();
        distinct.sort_unstable();
        distinct.dedup();
        assert_eq!(distinct.len(), CORPUS_CAP);
    }

    #[test]
    fn lease_churn_survives_a_short_fuzz() {
        let def = scenarios::find("recycler_churn_2p").expect("registered");
        let report = fuzz(&def, &quick(3));
        assert!(report.complete > 0);
        assert!(report.violations.is_empty(), "{:?}", report.violations);
    }
}
