//! Replayable trace files: serialized counterexamples and pinned schedules.
//!
//! A trace file captures everything needed to reproduce one execution
//! deterministically: the scenario name, process count, executor seed, crash
//! plan and the schedule itself. The format is line-oriented plain text so
//! minimized counterexamples can live under `tests/schedules/` as reviewable
//! regression artifacts:
//!
//! ```text
//! # free-form comment
//! scenario: mono_counter_3p
//! procs: 3
//! seed: 0
//! crash: 0@5
//! expect: violation
//! schedule: 0 0 0 1 1 2
//! ```
//!
//! One-command repro: `cargo run -p mcheck -- replay tests/schedules/<f>.trace`.

use crate::scenarios;
use shmem::{CrashPlan, ExecConfig, ProcessId, Schedule, ScheduleSource, VirtualExecutor};
use std::sync::Arc;

/// Whether the pinned schedule is expected to pass its oracle or violate it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Expectation {
    /// The oracle must hold under this schedule.
    Pass,
    /// The oracle must fail under this schedule (a pinned counterexample).
    Violation,
}

/// A parsed (or to-be-rendered) trace file.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceFile {
    /// Scenario registry name.
    pub scenario: String,
    /// Number of processes.
    pub procs: usize,
    /// Execution seed (drives per-process coin flips).
    pub seed: u64,
    /// Crash plan entries as `(process index, crash-after steps)`.
    pub crashes: Vec<(usize, u64)>,
    /// Expected oracle outcome.
    pub expect: Expectation,
    /// The schedule to replay.
    pub schedule: Schedule,
}

impl TraceFile {
    /// Renders the file format (see the module docs), with a leading comment.
    pub fn render(&self, comment: &str) -> String {
        let mut out = String::new();
        for line in comment.lines() {
            out.push_str("# ");
            out.push_str(line);
            out.push('\n');
        }
        out.push_str(&format!("scenario: {}\n", self.scenario));
        out.push_str(&format!("procs: {}\n", self.procs));
        out.push_str(&format!("seed: {}\n", self.seed));
        for (pid, steps) in &self.crashes {
            out.push_str(&format!("crash: {pid}@{steps}\n"));
        }
        out.push_str(match self.expect {
            Expectation::Pass => "expect: pass\n",
            Expectation::Violation => "expect: violation\n",
        });
        let choices: Vec<String> = self
            .schedule
            .choices
            .iter()
            .map(|p| p.as_usize().to_string())
            .collect();
        out.push_str(&format!("schedule: {}\n", choices.join(" ")));
        out
    }

    /// Parses the file format. Unknown keys, blank lines and `#` comments
    /// are rejected only when a required field ends up missing or malformed.
    pub fn parse(text: &str) -> Result<TraceFile, String> {
        let mut scenario = None;
        let mut procs = None;
        let mut seed = 0u64;
        let mut crashes = Vec::new();
        let mut expect = None;
        let mut schedule = None;
        for (lineno, raw) in text.lines().enumerate() {
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let (key, value) = line
                .split_once(':')
                .ok_or_else(|| format!("line {}: expected `key: value`", lineno + 1))?;
            let value = value.trim();
            match key.trim() {
                "scenario" => scenario = Some(value.to_string()),
                "procs" => {
                    procs = Some(
                        value
                            .parse::<usize>()
                            .map_err(|e| format!("line {}: bad process count: {e}", lineno + 1))?,
                    );
                }
                "seed" => {
                    seed = value
                        .parse::<u64>()
                        .map_err(|e| format!("line {}: bad seed: {e}", lineno + 1))?;
                }
                "crash" => {
                    let (pid, steps) = value.split_once('@').ok_or_else(|| {
                        format!("line {}: expected `crash: PID@STEPS`", lineno + 1)
                    })?;
                    crashes.push((
                        pid.trim()
                            .parse::<usize>()
                            .map_err(|e| format!("line {}: bad crash pid: {e}", lineno + 1))?,
                        steps
                            .trim()
                            .parse::<u64>()
                            .map_err(|e| format!("line {}: bad crash step: {e}", lineno + 1))?,
                    ));
                }
                "expect" => {
                    expect = Some(match value {
                        "pass" => Expectation::Pass,
                        "violation" => Expectation::Violation,
                        other => {
                            return Err(format!(
                                "line {}: expect must be pass|violation, got {other:?}",
                                lineno + 1
                            ))
                        }
                    });
                }
                "schedule" => {
                    let choices: Result<Vec<ProcessId>, String> = value
                        .split_whitespace()
                        .map(|tok| {
                            tok.parse::<usize>().map(ProcessId::new).map_err(|e| {
                                format!("line {}: bad schedule entry {tok:?}: {e}", lineno + 1)
                            })
                        })
                        .collect();
                    schedule = Some(Schedule::new(choices?));
                }
                other => return Err(format!("line {}: unknown key {other:?}", lineno + 1)),
            }
        }
        Ok(TraceFile {
            scenario: scenario.ok_or("missing `scenario:` line")?,
            procs: procs.ok_or("missing `procs:` line")?,
            seed,
            crashes,
            expect: expect.ok_or("missing `expect:` line")?,
            schedule: schedule.ok_or("missing `schedule:` line")?,
        })
    }

    /// The crash plan as a `CrashPlan::Fixed` vector, or `None` if the file
    /// pins no crashes.
    pub fn crash_plan(&self) -> Option<Vec<Option<u64>>> {
        if self.crashes.is_empty() {
            return None;
        }
        let mut plan: Vec<Option<u64>> = vec![None; self.procs];
        for &(pid, steps) in &self.crashes {
            if pid < plan.len() {
                plan[pid] = Some(steps);
            }
        }
        Some(plan)
    }
}

/// Replays a trace file against a fresh build of its scenario and checks the
/// oracle outcome against the file's expectation.
///
/// Returns a human-readable summary on success; an error describes either a
/// replay problem (unknown scenario, truncation) or an expectation mismatch —
/// for `expect: violation` files, a mismatch means the pinned bug no longer
/// reproduces.
pub fn verify(file: &TraceFile) -> Result<String, String> {
    let def = scenarios::find(&file.scenario)
        .ok_or_else(|| format!("unknown scenario {:?}", file.scenario))?;
    if def.procs != file.procs {
        return Err(format!(
            "scenario {} runs {} processes, trace file says {}",
            def.name, def.procs, file.procs
        ));
    }
    let built = (def.build)();
    let mut cfg =
        ExecConfig::new(file.seed).with_schedule(ScheduleSource::Replay(file.schedule.clone()));
    if let Some(plan) = file.crash_plan() {
        cfg = cfg.with_crash_plan(CrashPlan::Fixed(plan));
    }
    let body = Arc::clone(&built.body);
    let run = VirtualExecutor::new(cfg).run(def.procs, move |ctx| body(ctx));
    if run.trace.truncated || run.trace.aborted {
        return Err("replay was truncated or aborted — the trace is stale".into());
    }
    let verdict = (built.check)(&run);
    match (file.expect, verdict) {
        (Expectation::Pass, Ok(())) => Ok(format!(
            "{}: replayed {} steps, oracle passed as expected",
            def.name,
            run.trace.events.len()
        )),
        (Expectation::Violation, Err(message)) => Ok(format!(
            "{}: replayed {} steps, oracle violated as expected: {message}",
            def.name,
            run.trace.events.len()
        )),
        (Expectation::Pass, Err(message)) => Err(format!(
            "{}: expected a pass, oracle failed: {message}",
            def.name
        )),
        (Expectation::Violation, Ok(())) => Err(format!(
            "{}: expected a violation, oracle passed — the pinned bug no longer reproduces",
            def.name
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> TraceFile {
        TraceFile {
            scenario: "mono_counter_3p".into(),
            procs: 3,
            seed: 0,
            crashes: vec![(0, 5)],
            expect: Expectation::Violation,
            schedule: Schedule::new(vec![0, 0, 1, 2].into_iter().map(ProcessId::new).collect()),
        }
    }

    #[test]
    fn render_parse_roundtrips() {
        let file = sample();
        let text = file.render("regression: §8.1 counterexample");
        assert_eq!(TraceFile::parse(&text), Ok(file));
    }

    #[test]
    fn parse_rejects_malformed_input() {
        assert!(TraceFile::parse("scenario: x").is_err(), "missing fields");
        assert!(
            TraceFile::parse("scenario: x\nprocs: 2\nexpect: maybe\nschedule: 0").is_err(),
            "bad expectation"
        );
        assert!(
            TraceFile::parse("nonsense without a colon").is_err(),
            "bad line shape"
        );
        assert!(
            TraceFile::parse("scenario: x\nprocs: 2\nexpect: pass\ncrash: 1\nschedule: 0").is_err(),
            "bad crash shape"
        );
    }

    #[test]
    fn crash_plan_is_sized_to_the_process_count() {
        let file = sample();
        assert_eq!(file.crash_plan(), Some(vec![Some(5), None, None]));
        let no_crash = TraceFile {
            crashes: Vec::new(),
            ..sample()
        };
        assert_eq!(no_crash.crash_plan(), None);
    }

    #[test]
    fn comments_and_blanks_are_ignored() {
        let text = "# header\n\n# more\nscenario: toy_mp\nprocs: 2\nexpect: pass\nschedule: 0 1\n";
        let file = TraceFile::parse(text).expect("parses");
        assert_eq!(file.scenario, "toy_mp");
        assert_eq!(file.seed, 0, "seed defaults to zero");
    }
}
