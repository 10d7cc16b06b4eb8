//! The `mcheck` command-line front end.
//!
//! ```text
//! mcheck list
//! mcheck explore [--scenario NAME] [--mode dpor|brute|bounded] [--bound N]
//!                [--max-executions N] [--stop-on-violation] [--write-traces DIR]
//! mcheck fuzz --scenario NAME [--seconds S] [--seed S] [--write-traces DIR]
//! mcheck replay <FILE.trace>
//! ```
//!
//! `explore` runs the one schedule search over each selected scenario in one
//! of its three modes: `dpor` (partial-order reduction, the default),
//! `brute` (every interleaving) or `bounded` (every interleaving with at
//! most `--bound` preemptions). It prints the executions and classes found
//! beside the naive enumeration baseline and (with `--write-traces`)
//! serializes every violation as a minimized replayable trace file. `fuzz`
//! samples schedules instead, guided by class coverage. Exit status is
//! non-zero when a scenario's outcome contradicts its registration (an
//! unexpected violation, or a counterexample hunt that found nothing).

use mcheck::coverage::{fuzz, FuzzConfig};
use mcheck::dpor::{self, Counterexample, ExploreConfig, ExploreMode};
use mcheck::minimize::minimize_counterexample;
use mcheck::scenarios::{self, ScenarioDef};
use mcheck::trace::{Expectation, TraceFile};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("list") => cmd_list(),
        Some("explore") => cmd_explore(&args[1..]),
        Some("fuzz") => cmd_fuzz(&args[1..]),
        Some("replay") => cmd_replay(&args[1..]),
        _ => {
            eprintln!("usage: mcheck <list|explore|fuzz|replay> [options]");
            return ExitCode::from(2);
        }
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("mcheck: {message}");
            ExitCode::FAILURE
        }
    }
}

fn cmd_list() -> Result<(), String> {
    for def in scenarios::all() {
        println!(
            "{:<22} {} procs  {}{}",
            def.name,
            def.procs,
            if def.expect_violations {
                "[counterexample hunt] "
            } else {
                ""
            },
            def.about
        );
    }
    Ok(())
}

struct Flags {
    scenario: Option<String>,
    mode: String,
    bound: u32,
    max_executions: usize,
    seconds: f64,
    seed: u64,
    stop_on_violation: bool,
    write_traces: Option<PathBuf>,
}

fn parse_flags(args: &[String]) -> Result<Flags, String> {
    let mut flags = Flags {
        scenario: None,
        mode: "dpor".into(),
        bound: 2,
        max_executions: 200_000,
        seconds: 5.0,
        seed: 0,
        stop_on_violation: false,
        write_traces: None,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match arg.as_str() {
            "--scenario" => flags.scenario = Some(value("--scenario")?),
            "--mode" => flags.mode = value("--mode")?,
            "--bound" => {
                flags.bound = value("--bound")?
                    .parse()
                    .map_err(|e| format!("--bound: {e}"))?;
            }
            "--max-executions" => {
                flags.max_executions = value("--max-executions")?
                    .parse()
                    .map_err(|e| format!("--max-executions: {e}"))?;
            }
            "--seconds" => {
                flags.seconds = value("--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
            }
            "--seed" => {
                flags.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--stop-on-violation" => flags.stop_on_violation = true,
            "--write-traces" => flags.write_traces = Some(PathBuf::from(value("--write-traces")?)),
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(flags)
}

fn selected(flags: &Flags) -> Result<Vec<ScenarioDef>, String> {
    match &flags.scenario {
        Some(name) => scenarios::find(name)
            .map(|d| vec![d])
            .ok_or_else(|| format!("unknown scenario {name:?} (try `mcheck list`)")),
        None => Ok(scenarios::all()),
    }
}

fn cmd_explore(args: &[String]) -> Result<(), String> {
    let flags = parse_flags(args)?;
    let mode = match flags.mode.as_str() {
        "dpor" => ExploreMode::Dpor,
        "brute" => ExploreMode::BruteForce,
        "bounded" => ExploreMode::Bounded(flags.bound),
        other => return Err(format!("unknown mode {other:?} (dpor|brute|bounded)")),
    };
    let mut failed = false;
    // A bare `explore` sweeps the exhaustive tier; heavy scenarios (whose
    // schedule spaces defeat exhaustive search) must be named explicitly
    // and are meant for the bounded mode or the fuzzer.
    let sweep = flags.scenario.is_none();
    for def in selected(&flags)? {
        if sweep && !def.exhaustive {
            println!(
                "{:<22} skipped (heavy tier; name it with --scenario)",
                def.name
            );
            continue;
        }
        let config = ExploreConfig {
            mode,
            max_executions: flags.max_executions,
            stop_on_violation: flags.stop_on_violation || def.expect_violations,
            ..ExploreConfig::default()
        };
        let report = dpor::explore(&def, &config);
        println!(
            "{:<22} {} executions ({} complete, {} sleep-blocked, {} truncated), \
             {} classes, naive baseline ≈ {:.0} interleavings{}",
            def.name,
            report.executions,
            report.complete,
            report.sleep_blocked,
            report.truncated,
            report.classes.len(),
            report.naive_interleavings(),
            if report.capped { " [CAPPED]" } else { "" },
        );
        let ok = report_outcome(&def, &report.violations, flags.write_traces.as_deref())?;
        failed |= !ok;
    }
    if failed {
        Err("at least one scenario contradicted its registration".into())
    } else {
        Ok(())
    }
}

fn cmd_fuzz(args: &[String]) -> Result<(), String> {
    let flags = parse_flags(args)?;
    let mut failed = false;
    for def in selected(&flags)? {
        let config = FuzzConfig {
            seconds: flags.seconds,
            seed: flags.seed,
            stop_on_violation: flags.stop_on_violation || def.expect_violations,
            ..FuzzConfig::default()
        };
        let report = fuzz(&def, &config);
        println!(
            "{:<22} {} iterations, {} classes, corpus {}, longest trace {}, max result {}",
            def.name,
            report.iterations,
            report.classes.len(),
            report.corpus,
            report.max_trace_len,
            report.max_result,
        );
        let ok = report_outcome(&def, &report.violations, flags.write_traces.as_deref())?;
        failed |= !ok;
    }
    if failed {
        Err("at least one scenario contradicted its registration".into())
    } else {
        Ok(())
    }
}

/// Prints violations (minimized), optionally writes trace files, and returns
/// whether the outcome matches the scenario's registration.
fn report_outcome(
    def: &ScenarioDef,
    violations: &[Counterexample],
    write_traces: Option<&Path>,
) -> Result<bool, String> {
    for (index, cx) in violations.iter().enumerate() {
        let minimized = minimize_counterexample(def, cx, 100_000);
        println!(
            "  violation: {} (schedule minimized {} -> {} choices)",
            minimized.message,
            cx.schedule.len(),
            minimized.schedule.len(),
        );
        if let Some(dir) = write_traces {
            let file = trace_file_for(def, &minimized);
            let path = dir.join(format!("{}_{index}.trace", def.name));
            std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
            std::fs::write(&path, file.render(&format!("minimized from {}", def.name)))
                .map_err(|e| format!("writing {}: {e}", path.display()))?;
            println!("  wrote {}", path.display());
        }
    }
    let ok = violations.is_empty() != def.expect_violations;
    if !ok {
        println!(
            "  UNEXPECTED: {} violations on a scenario registered with expect_violations={}",
            violations.len(),
            def.expect_violations
        );
    }
    Ok(ok)
}

/// Converts a (minimized) counterexample into its trace-file form.
fn trace_file_for(def: &ScenarioDef, cx: &Counterexample) -> TraceFile {
    let crashes = cx
        .crash_plan
        .iter()
        .flatten()
        .enumerate()
        .filter_map(|(pid, steps)| steps.map(|s| (pid, s)))
        .collect();
    TraceFile {
        scenario: def.name.to_string(),
        procs: def.procs,
        seed: 0,
        crashes,
        expect: Expectation::Violation,
        schedule: cx.schedule.clone(),
    }
}

fn cmd_replay(args: &[String]) -> Result<(), String> {
    let path = args.first().ok_or("replay needs a trace file path")?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    let file = TraceFile::parse(&text)?;
    let summary = mcheck::trace::verify(&file)?;
    println!("{summary}");
    Ok(())
}
