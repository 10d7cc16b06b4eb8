//! The `mcheck` command-line front end (see [`USAGE`]).
//!
//! `explore` runs the one schedule search over each selected scenario in one
//! of its three modes: `dpor` (partial-order reduction, the default),
//! `brute` (every interleaving) or `bounded` (every interleaving with at
//! most `--bound` preemptions). It prints the executions and classes found
//! beside the naive enumeration baseline and (with `--write-traces`)
//! serializes every violation as a minimized replayable trace file. `fuzz`
//! samples schedules instead, guided by class coverage. A subcommand given a
//! flag it does not read prints the usage and exits with status 2. Exit
//! status is 1 when a scenario's outcome contradicts its registration (an
//! unexpected violation, or a counterexample hunt that found nothing).

use mcheck::coverage::{fuzz, FuzzConfig};
use mcheck::dpor::{self, Counterexample, ExploreConfig, ExploreMode};
use mcheck::minimize::minimize_counterexample;
use mcheck::scenarios::{self, ScenarioDef};
use mcheck::trace::{Expectation, TraceFile};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

const USAGE: &str = "usage: mcheck list
       mcheck explore [--scenario NAME] [--mode dpor|brute|bounded] [--bound N]
                      [--max-executions N] [--stop-on-violation] [--write-traces DIR]
       mcheck fuzz --scenario NAME [--seconds S] [--seed S] [--stop-on-violation]
                   [--write-traces DIR]
       mcheck replay <FILE.trace>";

/// The flags each subcommand reads; any other flag is a usage error.
const EXPLORE_FLAGS: &str =
    "--scenario --mode --bound --max-executions --stop-on-violation --write-traces";
const FUZZ_FLAGS: &str = "--scenario --seconds --seed --stop-on-violation --write-traces";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (command, rest) = args
        .split_first()
        .map_or(("", &[][..]), |(c, r)| (c.as_str(), r));
    // The outer `Err` is a usage error, the inner one a failed run.
    let result = match (command, rest) {
        ("list", []) => Ok(cmd_list()),
        ("explore", _) => parse_flags(rest, EXPLORE_FLAGS).map(|flags| cmd_explore(&flags)),
        ("fuzz", _) => parse_flags(rest, FUZZ_FLAGS).map(|flags| cmd_fuzz(&flags)),
        ("replay", [path]) => Ok(cmd_replay(path)),
        _ => Err(format!("cannot run {:?}", args.join(" "))),
    };
    match result {
        Ok(Ok(())) => ExitCode::SUCCESS,
        Ok(Err(message)) => {
            eprintln!("mcheck: {message}");
            ExitCode::FAILURE
        }
        Err(message) => {
            eprintln!("mcheck: {message}\n{USAGE}");
            ExitCode::from(2)
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

#[derive(Debug)]
struct Flags {
    scenario: Option<String>,
    mode: ExploreMode,
    max_executions: usize,
    seconds: f64,
    seed: u64,
    stop_on_violation: bool,
    write_traces: Option<PathBuf>,
}

/// Parses the flags of a subcommand that reads the (space-separated) flags
/// in `accepted`.
fn parse_flags(args: &[String], accepted: &str) -> Result<Flags, String> {
    fn parse<T: std::str::FromStr>(flag: &str, value: &str) -> Result<T, String>
    where
        T::Err: std::fmt::Display,
    {
        value.parse().map_err(|e| format!("{flag}: {e}"))
    }
    let mut flags = Flags {
        scenario: None,
        mode: ExploreMode::Dpor,
        max_executions: 200_000,
        seconds: 5.0,
        seed: 0,
        stop_on_violation: false,
        write_traces: None,
    };
    let (mut mode, mut bound) = ("dpor".to_string(), None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if !accepted.split(' ').any(|accepted| accepted == flag) {
            return Err(format!("unknown flag {flag:?}"));
        }
        if flag == "--stop-on-violation" {
            flags.stop_on_violation = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--scenario" => flags.scenario = Some(value.clone()),
            "--mode" => mode = value.clone(),
            "--bound" => bound = Some(parse(flag, value)?),
            "--max-executions" => flags.max_executions = parse(flag, value)?,
            "--seconds" => flags.seconds = parse(flag, value)?,
            "--seed" => flags.seed = parse(flag, value)?,
            "--write-traces" => flags.write_traces = Some(PathBuf::from(value)),
            other => unreachable!("accepted flag {other:?} has no parser"),
        }
    }
    flags.mode = match (mode.as_str(), bound) {
        ("dpor", None) => ExploreMode::Dpor,
        ("brute", None) => ExploreMode::BruteForce,
        ("bounded", bound) => ExploreMode::Bounded(bound.unwrap_or(2)),
        ("dpor" | "brute", Some(_)) => {
            return Err("--bound is read only with --mode bounded".into())
        }
        (other, _) => return Err(format!("unknown mode {other:?} (dpor|brute|bounded)")),
    };
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

fn cmd_explore(flags: &Flags) -> Result<(), String> {
    let mut failed = false;
    // A bare `explore` sweeps the exhaustive tier; heavy scenarios (whose
    // schedule spaces defeat exhaustive search) must be named explicitly
    // and are meant for the bounded mode or the fuzzer.
    let sweep = flags.scenario.is_none();
    for def in selected(flags)? {
        if sweep && !def.exhaustive {
            println!(
                "{:<22} skipped (heavy tier; name it with --scenario)",
                def.name
            );
            continue;
        }
        let config = ExploreConfig {
            mode: flags.mode,
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

fn cmd_fuzz(flags: &Flags) -> Result<(), String> {
    let mut failed = false;
    for def in selected(flags)? {
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

fn cmd_replay(path: &str) -> Result<(), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    let file = TraceFile::parse(&text)?;
    let summary = mcheck::trace::verify(&file)?;
    println!("{summary}");
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str, accepted: &str) -> Result<Flags, String> {
        let args: Vec<String> = line.split_whitespace().map(String::from).collect();
        parse_flags(&args, accepted)
    }

    #[test]
    fn subcommands_reject_flags_they_do_not_read() {
        let err = parse("--seconds 2", EXPLORE_FLAGS).unwrap_err();
        assert!(err.contains("unknown flag \"--seconds\""), "{err}");
        let err = parse("--mode dpor --bound 7", EXPLORE_FLAGS).unwrap_err();
        assert!(
            err.contains("--bound is read only with --mode bounded"),
            "{err}"
        );
        assert!(parse("--scenario toy_mp --mode brute", FUZZ_FLAGS).is_err());
        // The flags CI passes still parse.
        let bounded = "--mode bounded --bound 2 --max-executions 20000 --scenario x";
        assert_eq!(
            parse(bounded, EXPLORE_FLAGS).map(|f| f.mode),
            Ok(ExploreMode::Bounded(2))
        );
        assert!(parse("--mode brute --scenario tas_chain_3p", EXPLORE_FLAGS).is_ok());
        assert!(parse("--scenario rand_tas_pair_2p --seconds 30", FUZZ_FLAGS).is_ok());
    }
}
