//! Snapshots: merging escrowed stripes and rendering them.
//!
//! A [`Snapshot`] folds every stripe of a [`MetricsSlab`] into owned
//! values — counters summed, gauges maxed, histograms merged — and renders
//! them as a text dashboard.

use crate::hist::Histogram;
use crate::metrics::{MetricKind, MetricsSlab, ALL_METRICS};

/// A merged, owned view of a [`MetricsSlab`] at one instant.
///
/// Meaningful at quiescent points (no recorder mid-operation), like every
/// other diagnostic read in this workspace.
#[derive(Clone, Debug, Default)]
pub struct Snapshot {
    /// Counter metrics with non-zero totals, in registry order.
    pub counters: Vec<(&'static str, u64)>,
    /// Gauge metrics with non-zero values, in registry order.
    pub gauges: Vec<(&'static str, u64)>,
    /// Histogram metrics with at least one recorded value, in registry
    /// order.
    pub hists: Vec<(&'static str, Histogram)>,
}

impl Snapshot {
    /// Merges every stripe of `slab`.
    pub fn collect(slab: &MetricsSlab) -> Snapshot {
        let mut snapshot = Snapshot::default();
        for metric in ALL_METRICS {
            match metric.kind() {
                MetricKind::Counter => {
                    let value = slab.merged_word(metric);
                    if value > 0 {
                        snapshot.counters.push((metric.name(), value));
                    }
                }
                MetricKind::Gauge => {
                    let value = slab.merged_word(metric);
                    if value > 0 {
                        snapshot.gauges.push((metric.name(), value));
                    }
                }
                MetricKind::Histogram => {
                    let hist = slab.merged_hist(metric);
                    if !hist.is_empty() {
                        snapshot.hists.push((metric.name(), hist));
                    }
                }
            }
        }
        snapshot
    }

    /// Merges every stripe, then zeroes the slab for the next window.
    pub fn collect_and_reset(slab: &MetricsSlab) -> Snapshot {
        let snapshot = Self::collect(slab);
        slab.reset();
        snapshot
    }

    /// The value of a counter by registry name (0 if absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0, |(_, v)| *v)
    }

    /// The value of a gauge by registry name (0 if absent).
    pub fn gauge(&self, name: &str) -> u64 {
        self.gauges
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0, |(_, v)| *v)
    }

    /// The histogram by registry name, if it recorded anything.
    pub fn hist(&self, name: &str) -> Option<&Histogram> {
        self.hists.iter().find(|(n, _)| *n == name).map(|(_, h)| h)
    }

    /// Whether nothing at all was recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.hists.is_empty()
    }

    /// Renders the snapshot as a text dashboard block.
    pub fn dashboard(&self) -> String {
        let mut out = String::new();
        if self.is_empty() {
            return "  (no telemetry recorded)\n".to_string();
        }
        if !self.counters.is_empty() || !self.gauges.is_empty() {
            out.push_str("  counters/gauges:\n");
            for (name, value) in self.counters.iter().chain(self.gauges.iter()) {
                out.push_str(&format!("    {name:<28} {value}\n"));
            }
        }
        for (name, hist) in &self.hists {
            out.push_str(&format!("  {name}: {}\n", hist.render()));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::Metric;

    #[test]
    fn snapshots_merge_render_and_reset() {
        let slab = MetricsSlab::heap(2);
        slab.writer(0).count(Metric::NetIncrement);
        slab.writer(1).count(Metric::NetIncrement);
        slab.writer(1).gauge(Metric::RoutedWidth, 8);
        slab.writer(0).record(Metric::NetIncrementNs, 300);
        let snapshot = Snapshot::collect_and_reset(&slab);
        assert_eq!(snapshot.counter("cnet.increment"), 2);
        assert_eq!(snapshot.gauge("adaptive.routed_width"), 8);
        assert_eq!(snapshot.hist("cnet.increment_ns").unwrap().count(), 1);
        assert_eq!(snapshot.counter("no.such"), 0);
        assert!(snapshot.hist("no.such").is_none());
        let dash = snapshot.dashboard();
        assert!(dash.contains("cnet.increment"), "{dash}");
        assert!(
            Snapshot::collect(&slab).is_empty(),
            "collect_and_reset zeroed the slab"
        );
        assert!(Snapshot::collect(&slab)
            .dashboard()
            .contains("no telemetry"));
    }
}
