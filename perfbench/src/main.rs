//! One-command benchmark of the strong-renaming workspace.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload lease_window --seed 1 --seconds 10 --trace 0
//! ```
//!
//! `--trace 0` measures the end-to-end metrics of one workload with
//! telemetry unbound; `--trace 1` is the traced run that yields the
//! per-layer metrics (see `trace.rs`). Every run prints a host stamp line,
//! one line per metric with its sample count, and as its last line the
//! JSON result. A correctness violation prints `"correct": false` and exits
//! with code 1; bad arguments or a host with fewer vCPUs than workers exit
//! with code 2. `perfbench/README.md` lists workloads, metrics and layers.

mod hist;
mod host;
mod stream;
mod trace;
mod workloads;

use host::{json_string, Host};
use workloads::{Phase, Workload, WORKERS};

/// One reported metric.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// Samples behind the value (0 where it is not a sample statistic).
    pub samples: u64,
}

impl Metric {
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str, samples: u64) -> Self {
        Metric {
            name: name.into(),
            value: if value.is_finite() { value } else { 0.0 },
            unit,
            samples,
        }
    }
}

/// What a run prints.
pub struct Report {
    pub metrics: Vec<Metric>,
    pub attempted: u64,
    pub failed: u64,
    pub violations: Vec<String>,
    pub violation_count: u64,
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

const USAGE: &str =
    "usage: perfbench --workload <lease_window|lease_ramp|robust_restart|count_mix> --seed <n> --seconds <1..=60> --trace <0|1>";

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    for pair in argv.chunks(2) {
        let [flag, value] = pair else {
            return Err(format!("{} needs a value", pair[0]));
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse()
                        .ok()
                        .filter(|s| (1..=60).contains(s))
                        .ok_or_else(|| format!("bad seconds {value}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
    })
}

pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    match sorted.len() {
        0 => 0.0,
        n if n % 2 == 1 => sorted[n / 2],
        n => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// The untraced run: every end-to-end metric.
fn end_to_end(workload: Workload, seed: u64, seconds: f64) -> Report {
    let phase = Phase {
        seed,
        setups: 5,
        segments: 5,
        seconds,
        slab: None,
    };
    let measured = workloads::run(workload, &phase);
    let tally = &measured.tally;
    let name_ratio = match workload {
        // A counter's "namespace" is its value range: the quiescent check
        // already failed the run unless the count equals the increments.
        Workload::CountMix => 1.0,
        _ => tally.max_name as f64 / tally.peak_live as f64,
    };
    let quantile = |name, series: &hist::Segmented, q| {
        Metric::new(name, series.quantile(q), "ns", series.count())
    };
    let (setups, segments) = (measured.setup_s.len(), measured.rates.len());
    let metrics = vec![
        Metric::new("setup_s", median(&measured.setup_s), "s", setups as u64),
        Metric::new(
            "ops_per_s",
            median(&measured.rates),
            "ops/s",
            segments as u64,
        ),
        quantile("primary_p50_ns", &tally.primary, 0.5),
        quantile("primary_p99_ns", &tally.primary, 0.99),
        quantile("secondary_p50_ns", &tally.secondary, 0.5),
        quantile("secondary_p99_ns", &tally.secondary, 0.99),
        Metric::new("name_ratio", name_ratio, "ratio", tally.max_name as u64),
        Metric::new("peak_rss_mb", host::peak_rss_mb(), "MB", 1),
    ];
    println!("# set-ups (s): {:?}", measured.setup_s);
    if tally.recover_us.count() > 0 {
        println!(
            "# recover_with p50 = {:.1} us (n={})",
            tally.recover_us.quantile(0.5),
            tally.recover_us.count()
        );
    }
    Report {
        metrics,
        attempted: tally.attempted,
        failed: tally.failed,
        violations: tally.violations.clone(),
        violation_count: tally.violation_count,
    }
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(error) => {
            eprintln!("perfbench: {error}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let host = Host::probe();
    if host.vcpus < WORKERS {
        eprintln!(
            "perfbench: refusing to run {WORKERS} workers on {} vCPU(s): the workers would share a CPU",
            host.vcpus
        );
        std::process::exit(2);
    }
    println!("{}", host.to_json());
    let (primary, secondary) = args.workload.ops();
    println!(
        "# workload {} seed {} seconds {} trace {}: {WORKERS} workers, primary = {primary}, secondary = {secondary}",
        args.workload.name(),
        args.seed,
        args.seconds,
        args.trace as u8
    );
    let report = if args.trace {
        trace::run(args.workload, args.seed, args.seconds as f64, &host)
    } else {
        end_to_end(args.workload, args.seed, args.seconds as f64)
    };
    println!(
        "# timer: one clock read adds {:.1} ns to every latency sample",
        host.clock_read_ns
    );
    for metric in &report.metrics {
        println!(
            "# {} = {} {} (n={})",
            metric.name, metric.value, metric.unit, metric.samples
        );
    }
    for violation in &report.violations {
        println!("# VIOLATION: {violation}");
    }
    let correct = report.violation_count == 0;
    let metrics = report
        .metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_string(&m.name),
                m.value,
                json_string(m.unit)
            )
        })
        .collect::<Vec<_>>()
        .join(", ");
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        report.attempted.max(1),
        report.failed
    );
    std::process::exit(if correct { 0 } else { 1 });
}
