//! The comparator-schedule abstraction.
//!
//! A renaming network never needs the full list of comparators: a process at
//! wire `w` only ever asks "which comparator, if any, touches my wire in the
//! next stage?". [`ComparatorSchedule`] captures exactly that query, which
//! allows very wide networks (the §6.1 adaptive construction truncated at
//! tens of thousands of ports) to be used without materializing millions of
//! comparators: analytic schedules compute the answer arithmetically.

use crate::network::{Comparator, ComparatorNetwork};
use std::sync::Arc;

/// A stage-by-stage description of a comparator network.
///
/// Implementors must guarantee the usual comparator-network well-formedness:
/// within one stage, each wire is touched by at most one comparator, and
/// `comparator_at(s, w)` agrees for both wires of the comparator it reports.
pub trait ComparatorSchedule: Send + Sync {
    /// Number of wires.
    fn width(&self) -> usize;

    /// Number of stages.
    fn depth(&self) -> usize;

    /// The comparator touching `wire` in `stage`, if any.
    ///
    /// Returns `None` when the wire is idle in that stage, when the stage is
    /// out of range, or when the wire is out of range.
    fn comparator_at(&self, stage: usize, wire: usize) -> Option<Comparator>;

    /// All comparators of one stage, derived by scanning the wires.
    fn stage_comparators(&self, stage: usize) -> Vec<Comparator> {
        let mut comparators = Vec::new();
        for wire in 0..self.width() {
            if let Some(c) = self.comparator_at(stage, wire) {
                if c.top == wire {
                    comparators.push(c);
                }
            }
        }
        comparators
    }
}

impl ComparatorSchedule for ComparatorNetwork {
    fn width(&self) -> usize {
        ComparatorNetwork::width(self)
    }

    fn depth(&self) -> usize {
        ComparatorNetwork::depth(self)
    }

    fn comparator_at(&self, stage: usize, wire: usize) -> Option<Comparator> {
        // One wire-map load.
        self.pair_at(stage, wire).map(|(comparator, _)| comparator)
    }

    fn stage_comparators(&self, stage: usize) -> Vec<Comparator> {
        self.stage(stage).to_vec()
    }
}

/// Forwarding impl so shared schedules — in particular the
/// `Arc<dyn ComparatorSchedule>` produced by
/// [`SortingFamily::schedule`](crate::family::SortingFamily::schedule) — can
/// be used wherever an owned schedule is expected (e.g. as the schedule of a
/// renaming network chosen at runtime by a builder).
impl<S: ComparatorSchedule + ?Sized> ComparatorSchedule for Arc<S> {
    fn width(&self) -> usize {
        (**self).width()
    }

    fn depth(&self) -> usize {
        (**self).depth()
    }

    fn comparator_at(&self, stage: usize, wire: usize) -> Option<Comparator> {
        (**self).comparator_at(stage, wire)
    }

    fn stage_comparators(&self, stage: usize) -> Vec<Comparator> {
        (**self).stage_comparators(stage)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sorter3() -> ComparatorNetwork {
        let mut network = ComparatorNetwork::new(3);
        network.push_stage(vec![Comparator::new(0, 1)]);
        network.push_stage(vec![Comparator::new(1, 2)]);
        network.push_stage(vec![Comparator::new(0, 1)]);
        network
    }

    #[test]
    fn materialized_network_answers_comparator_queries() {
        let network = sorter3();
        assert_eq!(network.comparator_at(0, 0), Some(Comparator::new(0, 1)));
        assert_eq!(network.comparator_at(0, 1), Some(Comparator::new(0, 1)));
        assert_eq!(network.comparator_at(0, 2), None);
        assert_eq!(network.comparator_at(1, 0), None);
        assert_eq!(network.comparator_at(7, 0), None, "stage out of range");
    }

    #[test]
    fn stage_comparators_lists_each_comparator_once() {
        let network = sorter3();
        assert_eq!(network.stage_comparators(0), vec![Comparator::new(0, 1)]);
        assert_eq!(network.stage_comparators(1), vec![Comparator::new(1, 2)]);
        assert!(network.stage_comparators(9).is_empty());
    }

    #[test]
    fn materialize_round_trips_a_network() {
        // Compiling a materialized network rebuilds it exactly.
        let network = sorter3();
        let rebuilt = ComparatorNetwork::compile(&network);
        assert_eq!(rebuilt, network);
        assert_eq!(rebuilt.apply(&[2, 3, 1]), vec![1, 2, 3]);
        let network = crate::batcher::odd_even_network(12);
        assert_eq!(ComparatorNetwork::compile(&network), network);
    }
}
