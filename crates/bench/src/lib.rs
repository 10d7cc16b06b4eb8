//! Shared utilities for the experiment binaries.
//!
//! Every quantitative claim of the paper has a corresponding `exp_*` binary
//! in `src/bin/` (the README's "Running the benches" section lists them);
//! this crate holds the measurement helpers they share: aggregation of step
//! statistics across repeated executions and plain-text table rendering.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use shmem::steps::StepStats;

/// Aggregate statistics of a set of per-process measurements.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Aggregate {
    /// Number of samples aggregated.
    pub samples: usize,
    /// Mean of the samples.
    pub mean: f64,
    /// Maximum sample.
    pub max: u64,
}

impl Aggregate {
    /// Aggregates an iterator of samples.
    pub fn of<I: IntoIterator<Item = u64>>(samples: I) -> Self {
        let mut count = 0usize;
        let mut sum = 0u64;
        let mut max = 0u64;
        for sample in samples {
            count += 1;
            sum += sample;
            max = max.max(sample);
        }
        Aggregate {
            samples: count,
            mean: if count == 0 {
                0.0
            } else {
                sum as f64 / count as f64
            },
            max,
        }
    }

    /// Aggregates the register-step totals of a set of per-process stats.
    pub fn of_register_steps(stats: &[StepStats]) -> Self {
        Self::of(stats.iter().map(StepStats::total))
    }

    /// Aggregates the test-and-set invocation counts of per-process stats.
    pub fn of_tas_invocations(stats: &[StepStats]) -> Self {
        Self::of(stats.iter().map(|s| s.tas_invocations))
    }
}

/// A plain-text table printed by the experiment binaries.
#[derive(Clone, Debug, Default)]
pub struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with a title and column headers.
    pub fn new(title: &str, headers: &[&str]) -> Self {
        Table {
            title: title.to_string(),
            headers: headers.iter().map(|h| h.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (must have as many cells as there are headers).
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(
            cells.len(),
            self.headers.len(),
            "row width must match the header width"
        );
        self.rows.push(cells);
    }

    /// Renders the table.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (index, cell) in row.iter().enumerate() {
                widths[index] = widths[index].max(cell.len());
            }
        }
        let mut out = String::new();
        out.push_str(&format!("## {}\n\n", self.title));
        let header_line: Vec<String> = self
            .headers
            .iter()
            .enumerate()
            .map(|(i, h)| format!("{h:>width$}", width = widths[i]))
            .collect();
        out.push_str(&header_line.join("  "));
        out.push('\n');
        out.push_str(&"-".repeat(header_line.join("  ").len()));
        out.push('\n');
        for row in &self.rows {
            let line: Vec<String> = row
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{c:>width$}", width = widths[i]))
                .collect();
            out.push_str(&line.join("  "));
            out.push('\n');
        }
        out
    }

    /// Prints the table to standard output.
    pub fn print(&self) {
        println!("{}", self.render());
    }
}

/// One row of a committed `BENCH_*.json` baseline, scanned without a JSON
/// parser: a flat list of key → raw-value pairs. The experiment writers emit
/// each row as a single `{...}` line of scalar fields, which is all this
/// reader supports — nested objects or arrays inside a row are out of scope.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct BaselineRow {
    entries: Vec<(String, String)>,
}

impl BaselineRow {
    /// The raw value of a key (quotes stripped for strings).
    pub fn get(&self, key: &str) -> Option<&str> {
        self.entries
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    /// The value of a key parsed as a number.
    pub fn number(&self, key: &str) -> Option<f64> {
        self.get(key)?.parse().ok()
    }

    /// Whether this row matches every given `(key, value)` pair.
    pub fn matches(&self, criteria: &[(&str, &str)]) -> bool {
        criteria
            .iter()
            .all(|(key, value)| self.get(key) == Some(*value))
    }
}

/// Parses one single-line `{...}` object into a [`BaselineRow`].
fn parse_row_line(line: &str) -> Option<BaselineRow> {
    let line = line.trim().trim_end_matches(',');
    let body = line.strip_prefix('{')?.strip_suffix('}')?;
    let mut entries = Vec::new();
    let mut rest = body;
    while let Some(start) = rest.find('"') {
        let after_quote = &rest[start + 1..];
        let key_end = after_quote.find('"')?;
        let key = &after_quote[..key_end];
        let after_key = after_quote[key_end + 1..].trim_start();
        let value_part = after_key.strip_prefix(':')?.trim_start();
        let (value, remainder) = if let Some(quoted) = value_part.strip_prefix('"') {
            let value_end = quoted.find('"')?;
            (quoted[..value_end].to_string(), &quoted[value_end + 1..])
        } else {
            let value_end = value_part.find(',').unwrap_or(value_part.len());
            (
                value_part[..value_end].trim().to_string(),
                &value_part[value_end..],
            )
        };
        entries.push((key.to_string(), value));
        rest = remainder;
    }
    (!entries.is_empty()).then_some(BaselineRow { entries })
}

/// Extracts the per-configuration rows of a committed `BENCH_*.json`
/// baseline: every line of the file that is a single-line `{...}` object.
/// Top-level metadata lines (`"experiment": ...`) are skipped because they
/// are not objects.
pub fn parse_baseline_rows(json: &str) -> Vec<BaselineRow> {
    json.lines().filter_map(parse_row_line).collect()
}

/// The perf-gate tolerance: a configuration regresses when its *best*
/// fresh replay exceeds the committed baseline by more than this factor.
pub const GATE_TOLERANCE: f64 = 1.2;

/// The perf-gate verdict for one configuration: a regression is a fresh
/// *minimum* (best replayed execution) above
/// `max(committed_mean, committed_max) × GATE_TOLERANCE`.
///
/// The fresh minimum — not the mean — is what gets compared: on a loaded
/// or single-CPU host, scheduler interference inflates the mean and max of
/// a replay by well over 20% from run to run, but a *genuine* regression
/// (an extra atomic on the hot path, a reintroduced spin stall) shifts the
/// whole distribution, best case included. The committed max absorbs
/// configurations whose committed run was already noisy, and the tolerance
/// absorbs ordinary jitter on top.
pub fn gate_regresses(fresh_min: f64, committed_mean: f64, committed_max: f64) -> bool {
    fresh_min > committed_mean.max(committed_max) * GATE_TOLERANCE
}

/// Accumulates perf-gate comparisons and renders a pass/fail report.
#[derive(Clone, Debug, Default)]
pub struct GateReport {
    checked: usize,
    failures: Vec<String>,
}

impl GateReport {
    /// Creates an empty report.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one comparison of a fresh *minimum* (best replayed
    /// execution) against a committed baseline row's `mean` and `max`
    /// values under the given label.
    pub fn check(&mut self, label: &str, fresh_min: f64, committed_mean: f64, committed_max: f64) {
        self.checked += 1;
        if gate_regresses(fresh_min, committed_mean, committed_max) {
            self.failures.push(format!(
                "{label}: best replay {fresh_min:.1} exceeds the gate \
                 max({committed_mean:.1}, {committed_max:.1}) × {GATE_TOLERANCE}"
            ));
        }
    }

    /// Records a configuration that could not be compared (missing from the
    /// committed baseline) — a gate failure, since silently skipping it
    /// would let regressions hide behind renamed rows.
    pub fn missing(&mut self, label: &str) {
        self.failures
            .push(format!("{label}: no committed baseline row"));
    }

    /// Number of comparisons performed.
    pub fn checked(&self) -> usize {
        self.checked
    }

    /// Whether every comparison passed.
    pub fn passed(&self) -> bool {
        self.failures.is_empty()
    }

    /// The failure lines (empty when [`GateReport::passed`]).
    pub fn failures(&self) -> &[String] {
        &self.failures
    }
}

/// Formats a float with one decimal place (shared by every experiment table).
pub fn fmt1(value: f64) -> String {
    format!("{value:.1}")
}

/// log₂ helper used for the reference columns of the step-complexity tables.
pub fn log2(value: usize) -> f64 {
    (value.max(1) as f64).log2()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aggregate_computes_mean_and_max() {
        let agg = Aggregate::of([1u64, 2, 3, 10]);
        assert_eq!(agg.samples, 4);
        assert!((agg.mean - 4.0).abs() < 1e-9);
        assert_eq!(agg.max, 10);
        assert_eq!(Aggregate::of([]).samples, 0);
    }

    #[test]
    fn aggregate_reads_step_stats() {
        let stats = vec![
            StepStats {
                reads: 4,
                tas_invocations: 2,
                ..Default::default()
            },
            StepStats {
                writes: 8,
                tas_invocations: 6,
                ..Default::default()
            },
        ];
        assert_eq!(Aggregate::of_register_steps(&stats).max, 8);
        assert_eq!(Aggregate::of_tas_invocations(&stats).max, 6);
    }

    #[test]
    fn table_renders_aligned_columns() {
        let mut table = Table::new("demo", &["k", "steps"]);
        table.row(vec!["2".into(), "10".into()]);
        table.row(vec!["1024".into(), "17.5".into()]);
        let rendered = table.render();
        assert!(rendered.contains("## demo"));
        assert!(rendered.contains("1024"));
        assert!(rendered.lines().count() >= 5);
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn mismatched_rows_are_rejected() {
        let mut table = Table::new("demo", &["a", "b"]);
        table.row(vec!["only one".into()]);
    }

    #[test]
    fn helpers_format_numbers() {
        assert_eq!(fmt1(1.25), "1.2");
        assert!((log2(8) - 3.0).abs() < 1e-9);
        assert_eq!(log2(0), 0.0);
    }

    #[test]
    fn baseline_rows_parse_from_the_writer_format() {
        let json = "{\n  \"experiment\": \"counters\",\n  \"ops_per_worker\": 500,\n  \
                    \"rows\": [\n    {\"backend\": \"network\", \"threads\": 4, \
                    \"arrivals\": \"bursty\", \"mean_ns_per_op\": 161.2, \
                    \"max_ns_per_op\": 199.0},\n    {\"backend\": \"fetch_add\", \
                    \"threads\": 4, \"arrivals\": \"steady\", \"mean_ns_per_op\": 42.3, \
                    \"max_ns_per_op\": 50.1}\n  ]\n}\n";
        let rows = parse_baseline_rows(json);
        assert_eq!(rows.len(), 2);
        assert!(rows[0].matches(&[("backend", "network"), ("threads", "4")]));
        assert_eq!(rows[0].get("arrivals"), Some("bursty"));
        assert_eq!(rows[0].number("mean_ns_per_op"), Some(161.2));
        assert!(!rows[1].matches(&[("backend", "network")]));
        assert_eq!(rows[1].number("max_ns_per_op"), Some(50.1));
        assert_eq!(rows[1].number("backend"), None, "strings are not numbers");
        assert!(parse_baseline_rows("not json at all").is_empty());
    }

    #[test]
    fn the_gate_threshold_scales_the_worse_of_mean_and_max() {
        // A stable committed run: the threshold is max × tolerance.
        assert!(!gate_regresses(125.0, 100.0, 105.0));
        assert!(gate_regresses(127.0, 100.0, 105.0));
        // A noisy committed run: the committed max dominates the mean.
        assert!(!gate_regresses(179.0, 100.0, 150.0));
        assert!(gate_regresses(181.0, 100.0, 150.0));
    }

    #[test]
    fn gate_reports_collect_failures_and_missing_rows() {
        let mut report = GateReport::new();
        report.check("ok-row", 100.0, 100.0, 110.0);
        assert!(report.passed());
        report.check("slow-row", 200.0, 100.0, 110.0);
        report.missing("gone-row");
        assert!(!report.passed());
        assert_eq!(report.checked(), 2);
        assert_eq!(report.failures().len(), 2);
        assert!(report.failures()[0].contains("slow-row"));
        assert!(report.failures()[1].contains("no committed baseline"));
    }
}
