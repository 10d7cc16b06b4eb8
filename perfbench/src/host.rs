//! The host stamp every result carries, and process-level probes.

use crate::hist::Hist;
use std::time::Instant;

/// What a result depends on besides the code: results from hosts that
/// differ in any field but `clock_read_ns` are not comparable.
#[derive(Debug)]
pub struct Host {
    pub vcpus: usize,
    pub cpu_model: String,
    pub kernel: String,
    pub clocksource: String,
    /// Median cost of one `Instant::now()`, which every latency sample
    /// carries once.
    pub clock_read_ns: f64,
}

fn read_trimmed(path: &str) -> String {
    std::fs::read_to_string(path)
        .map(|text| text.trim().to_string())
        .unwrap_or_else(|_| "unknown".to_string())
}

impl Host {
    pub fn probe() -> Host {
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|info| {
                info.lines()
                    .find(|line| line.starts_with("model name"))
                    .and_then(|line| line.split_once(':'))
                    .map(|(_, model)| model.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".to_string());
        Host {
            vcpus: std::thread::available_parallelism().map_or(1, |n| n.get()),
            cpu_model,
            kernel: read_trimmed("/proc/sys/kernel/osrelease"),
            clocksource: read_trimmed(
                "/sys/devices/system/clocksource/clocksource0/current_clocksource",
            ),
            clock_read_ns: clock_read_ns(),
        }
    }

    pub fn to_json(&self) -> String {
        format!(
            "{{\"host\": {{\"vcpus\": {}, \"cpu_model\": {}, \"kernel\": {}, \"clocksource\": {}, \"clock_read_ns\": {:.3}}}}}",
            self.vcpus,
            json_string(&self.cpu_model),
            json_string(&self.kernel),
            json_string(&self.clocksource),
            self.clock_read_ns
        )
    }
}

/// The span an empty timed region measures: the p50 of back-to-back
/// `Instant::now()` pairs, i.e. what the timer adds to each op sample.
fn clock_read_ns() -> f64 {
    let mut hist = Hist::default();
    for _ in 0..200_000 {
        let start = Instant::now();
        hist.record(start.elapsed().as_nanos() as u64);
    }
    hist.quantile(0.5)
}

/// Peak resident set size of this process (VmHWM), in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find(|line| line.starts_with("VmHWM:"))
                .and_then(|line| line.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

pub fn json_string(text: &str) -> String {
    let mut out = String::with_capacity(text.len() + 2);
    out.push('"');
    for c in text.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}
