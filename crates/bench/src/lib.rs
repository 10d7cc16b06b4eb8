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
}
