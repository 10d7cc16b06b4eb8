//! Materialized comparator networks.
//!
//! A comparator network is a sequence of *stages*; each stage is a set of
//! comparators on pairwise-disjoint wires, so all comparators of a stage may
//! execute in parallel. A comparator `(top, bottom)` with `top < bottom`
//! routes the smaller value to the `top` wire and the larger value to the
//! `bottom` wire — the "min up" convention the paper's renaming networks rely
//! on (winning a test-and-set moves a process *up*).
//!
//! [`ComparatorNetwork`] is the one materialized form of a network in the
//! workspace: the §5 renaming network, the small sections of the §6 adaptive
//! renaming object and the counting networks all traverse it. It keeps
//! three flat arrays:
//!
//! * a `depth × width` *wire map*: for every `(stage, wire)` cell, the dense
//!   index of the comparator touching that wire, or a sentinel for an idle
//!   wire. One array load answers the traversal query "which comparator
//!   touches my wire in this stage?" ([`ComparatorNetwork::pair_at`]).
//! * the comparators, each once, in stage-major order. A comparator's
//!   position is its *dense index*: the renaming engine keeps its
//!   test-and-sets, and a counting network its balancers, in plain arrays
//!   indexed by it, with no hashing and no locks on the traversal path.
//! * CSR stage offsets into the comparators, so a stage is a contiguous
//!   slice ([`ComparatorNetwork::stage`]).
//!
//! [`ComparatorNetwork::compile`] lowers any [`ComparatorSchedule`] into
//! this layout in `O(width × depth)` time and memory, so it is meant for the
//! bounded networks processes actually traverse. The analytic schedules of
//! the §6.1 construction with astronomical widths stay uncompiled: the
//! adaptive renaming object compiles its small inner sections and keeps
//! sparse storage for the outer ones.

use crate::schedule::ComparatorSchedule;
use std::fmt;

/// A single min-up comparator between two wires.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Comparator {
    /// The upper wire (smaller index); receives the smaller value.
    pub top: usize,
    /// The lower wire (larger index); receives the larger value.
    pub bottom: usize,
}

impl Comparator {
    /// Creates a comparator between two distinct wires, normalizing order.
    ///
    /// # Panics
    ///
    /// Panics if `a == b`.
    pub fn new(a: usize, b: usize) -> Self {
        assert_ne!(a, b, "a comparator needs two distinct wires");
        Comparator {
            top: a.min(b),
            bottom: a.max(b),
        }
    }

    /// Whether this comparator touches the given wire.
    pub fn touches(&self, wire: usize) -> bool {
        self.top == wire || self.bottom == wire
    }

    /// Given one of the comparator's wires, returns the other.
    ///
    /// # Panics
    ///
    /// Panics if `wire` is not one of the comparator's wires.
    pub fn other(&self, wire: usize) -> usize {
        if wire == self.top {
            self.bottom
        } else if wire == self.bottom {
            self.top
        } else {
            panic!("wire {wire} is not part of comparator {self:?}")
        }
    }
}

impl fmt::Display for Comparator {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({}, {})", self.top, self.bottom)
    }
}

/// Sentinel marking an idle `(stage, wire)` cell in the wire map.
const IDLE: u32 = u32::MAX;

/// A materialized comparator network: a fixed width and a sequence of stages,
/// stored as a flat wire map over a dense comparator index (see the
/// [module documentation](self)).
///
/// # Example
///
/// ```
/// use sortnet::batcher::{odd_even_network, OddEvenSchedule};
/// use sortnet::network::{Comparator, ComparatorNetwork};
/// use sortnet::schedule::ComparatorSchedule;
///
/// // A 3-wire sorting network (insertion sort).
/// let mut network = ComparatorNetwork::new(3);
/// network.push_stage(vec![Comparator::new(0, 1)]);
/// network.push_stage(vec![Comparator::new(1, 2)]);
/// network.push_stage(vec![Comparator::new(0, 1)]);
/// assert_eq!(network.apply(&[3, 2, 1]), vec![1, 2, 3]);
/// assert_eq!(network.depth(), 3);
/// assert_eq!(network.size(), 3);
/// assert_eq!(network.pair_at(1, 2), Some((Comparator::new(1, 2), 1)));
///
/// // Compiling a schedule keeps every stage and every query.
/// let schedule = OddEvenSchedule::new(8);
/// let compiled = ComparatorNetwork::compile(&schedule);
/// assert_eq!(compiled, odd_even_network(8));
/// for stage in 0..schedule.depth() {
///     for wire in 0..schedule.width() {
///         assert_eq!(compiled.comparator_at(stage, wire), schedule.comparator_at(stage, wire));
///     }
/// }
/// assert_eq!(compiled.apply(&[5, 1, 4, 2, 8, 6, 3, 7]), vec![1, 2, 3, 4, 5, 6, 7, 8]);
/// ```
#[derive(Clone, PartialEq, Eq)]
pub struct ComparatorNetwork {
    width: usize,
    /// Wire map: `slots[stage * width + wire]` is the dense index of the
    /// comparator touching the wire in the stage, or [`IDLE`].
    slots: Vec<u32>,
    /// Every comparator once, in stage-major order (the dense index space).
    comparators: Vec<Comparator>,
    /// CSR offsets: stage `s` owns `comparators[stage_offsets[s]..stage_offsets[s + 1]]`.
    stage_offsets: Vec<u32>,
}

impl ComparatorNetwork {
    /// Creates an empty network over `width` wires.
    pub fn new(width: usize) -> Self {
        ComparatorNetwork {
            width,
            slots: Vec::new(),
            comparators: Vec::new(),
            stage_offsets: vec![0],
        }
    }

    /// Lowers any schedule into the flat layout.
    ///
    /// Runs in `O(width × depth)` time and memory — one wire-map cell per
    /// `(stage, wire)` pair. Stages are kept verbatim, including empty ones,
    /// so stage indices agree with the source schedule.
    ///
    /// # Panics
    ///
    /// Panics if the wire map does not fit the address space, if the
    /// schedule has `u32::MAX` comparators or more, or if the schedule is
    /// inconsistent (a comparator reported for a wire before its top wire,
    /// or two comparators on one wire in one stage — a violation of the
    /// [`ComparatorSchedule`] contract).
    pub fn compile<S: ComparatorSchedule + ?Sized>(schedule: &S) -> Self {
        let width = schedule.width();
        let depth = schedule.depth();
        let cells = width
            .checked_mul(depth)
            .expect("schedule wire map exceeds the address space");
        let mut network = ComparatorNetwork::new(width);
        network.slots.reserve_exact(cells);
        network.stage_offsets.reserve_exact(depth);
        for stage in 0..depth {
            let row = network.open_stage();
            for wire in 0..width {
                // The top wire of a comparator is visited first and fills in
                // both cells, so a filled cell needs no second query.
                if network.slots[row + wire] != IDLE {
                    continue;
                }
                if let Some(comparator) = schedule.comparator_at(stage, wire) {
                    assert_eq!(
                        comparator.top, wire,
                        "schedule reported comparator {comparator} for wire {wire} in stage \
                         {stage} before its top wire — inconsistent comparator_at"
                    );
                    network.place(row, comparator);
                }
            }
            network.close_stage();
        }
        network
    }

    /// Appends an idle wire-map row for a new stage and returns its first
    /// cell.
    fn open_stage(&mut self) -> usize {
        let row = self.slots.len();
        self.slots.resize(row + self.width, IDLE);
        row
    }

    /// Gives `comparator` the next dense index in the stage whose wire-map
    /// row starts at `row`.
    fn place(&mut self, row: usize, comparator: Comparator) {
        assert!(
            comparator.bottom < self.width,
            "comparator {comparator} exceeds network width {}",
            self.width
        );
        let index = u32::try_from(self.comparators.len())
            .ok()
            .filter(|&index| index != IDLE)
            .expect("a network holds fewer than u32::MAX comparators");
        for wire in [comparator.top, comparator.bottom] {
            let cell = &mut self.slots[row + wire];
            assert!(
                *cell == IDLE,
                "wire {wire} appears twice in one stage ({comparator})"
            );
            *cell = index;
        }
        self.comparators.push(comparator);
    }

    /// Ends the stage opened last after the comparators placed so far.
    fn close_stage(&mut self) {
        // `place` keeps every index, and so this count, below `u32::MAX`.
        self.stage_offsets.push(self.comparators.len() as u32);
    }

    /// The number of wires.
    pub fn width(&self) -> usize {
        self.width
    }

    /// The number of stages (the network's depth).
    pub fn depth(&self) -> usize {
        self.stage_offsets.len() - 1
    }

    /// The total number of comparators — the size of the dense index space
    /// (and of any slab allocated against it).
    pub fn size(&self) -> usize {
        self.comparators.len()
    }

    /// Appends a stage of comparators.
    ///
    /// # Panics
    ///
    /// Panics if any comparator references a wire `>= width`, or if two
    /// comparators in the stage share a wire.
    pub fn push_stage(&mut self, comparators: Vec<Comparator>) {
        let row = self.open_stage();
        for comparator in comparators {
            self.place(row, comparator);
        }
        self.close_stage();
    }

    /// The comparator touching `wire` in `stage` together with its dense
    /// index — the one wire-map load a traversal runs per stage. The index
    /// addresses the comparator slab of a renaming network and the balancer
    /// slab of a counting network built over this network. Out-of-range
    /// stages and wires yield `None`.
    #[inline]
    pub fn pair_at(&self, stage: usize, wire: usize) -> Option<(Comparator, usize)> {
        if wire >= self.width || stage >= self.depth() {
            return None;
        }
        match self.slots[stage * self.width + wire] {
            IDLE => None,
            slot => Some((self.comparators[slot as usize], slot as usize)),
        }
    }

    /// The comparators of one stage as a contiguous slice. Out-of-range
    /// stages yield an empty slice.
    pub fn stage(&self, stage: usize) -> &[Comparator] {
        if stage >= self.depth() {
            return &[];
        }
        let start = self.stage_offsets[stage] as usize;
        let end = self.stage_offsets[stage + 1] as usize;
        &self.comparators[start..end]
    }

    /// Applies the network to an input sequence, returning the output wires.
    ///
    /// # Panics
    ///
    /// Panics if `input.len() != width`.
    pub fn apply<T: Ord + Clone>(&self, input: &[T]) -> Vec<T> {
        assert_eq!(
            input.len(),
            self.width,
            "input length must equal the network width"
        );
        let mut values: Vec<T> = input.to_vec();
        // Stages only matter for parallel hardware; sequentially, the dense
        // stage-major order applies them with one flat pass.
        for comparator in &self.comparators {
            if values[comparator.top] > values[comparator.bottom] {
                values.swap(comparator.top, comparator.bottom);
            }
        }
        values
    }

    /// Applies the network and records, for each input position, the number
    /// of comparators the value starting there traversed and the output wire
    /// it reached. Used by the adaptivity experiments (Theorem 2).
    pub fn trace<T: Ord + Clone>(&self, input: &[T]) -> Vec<TraceEntry> {
        assert_eq!(
            input.len(),
            self.width,
            "input length must equal the network width"
        );
        let mut values: Vec<T> = input.to_vec();
        // `origin[w]` = index of the input whose value currently sits on wire w.
        let mut origin: Vec<usize> = (0..self.width).collect();
        let mut traversed = vec![0usize; self.width];
        for comparator in &self.comparators {
            traversed[origin[comparator.top]] += 1;
            traversed[origin[comparator.bottom]] += 1;
            if values[comparator.top] > values[comparator.bottom] {
                values.swap(comparator.top, comparator.bottom);
                origin.swap(comparator.top, comparator.bottom);
            }
        }
        let mut entries: Vec<TraceEntry> = (0..self.width)
            .map(|input_wire| TraceEntry {
                input_wire,
                output_wire: 0,
                comparators_traversed: traversed[input_wire],
            })
            .collect();
        for (output_wire, &input_wire) in origin.iter().enumerate() {
            entries[input_wire].output_wire = output_wire;
        }
        entries
    }

    /// Returns a copy of this network restricted to the first `width` wires:
    /// comparators touching any dropped wire are removed, and so are the
    /// stages left empty.
    ///
    /// If the original network sorts and uses only min-up comparators, the
    /// truncation sorts its `width` wires (dropped wires behave as `+∞`
    /// inputs, which a min-up comparator never moves upward).
    pub fn truncate(&self, width: usize) -> ComparatorNetwork {
        let mut truncated = ComparatorNetwork::new(width);
        for stage in 0..self.depth() {
            let kept: Vec<Comparator> = self
                .stage(stage)
                .iter()
                .copied()
                .filter(|c| c.bottom < width)
                .collect();
            if !kept.is_empty() {
                truncated.push_stage(kept);
            }
        }
        truncated
    }
}

impl fmt::Debug for ComparatorNetwork {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ComparatorNetwork")
            .field("width", &self.width)
            .field("depth", &self.depth())
            .field("size", &self.size())
            .finish()
    }
}

/// The path summary of one input value through a network (see
/// [`ComparatorNetwork::trace`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceEntry {
    /// The wire on which the value entered.
    pub input_wire: usize,
    /// The wire on which the value exited.
    pub output_wire: usize,
    /// How many comparators the value passed through.
    pub comparators_traversed: usize,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batcher::odd_even_network;

    fn three_wire_sorter() -> ComparatorNetwork {
        let mut network = ComparatorNetwork::new(3);
        network.push_stage(vec![Comparator::new(0, 1)]);
        network.push_stage(vec![Comparator::new(1, 2)]);
        network.push_stage(vec![Comparator::new(0, 1)]);
        network
    }

    #[test]
    fn comparator_normalizes_wire_order() {
        let c = Comparator::new(5, 2);
        assert_eq!(c.top, 2);
        assert_eq!(c.bottom, 5);
        assert!(c.touches(2) && c.touches(5) && !c.touches(3));
        assert_eq!(c.other(2), 5);
        assert_eq!(c.other(5), 2);
        assert_eq!(format!("{c}"), "(2, 5)");
    }

    #[test]
    #[should_panic(expected = "two distinct wires")]
    fn comparator_rejects_equal_wires() {
        let _ = Comparator::new(3, 3);
    }

    #[test]
    #[should_panic(expected = "is not part of comparator")]
    fn comparator_other_rejects_foreign_wires() {
        Comparator::new(0, 1).other(2);
    }

    #[test]
    fn apply_sorts_with_the_three_wire_network() {
        let network = three_wire_sorter();
        assert_eq!(network.width(), 3);
        assert_eq!(network.depth(), 3);
        assert_eq!(network.size(), 3);
        assert_eq!(
            format!("{network:?}"),
            "ComparatorNetwork { width: 3, depth: 3, size: 3 }"
        );
        for input in [
            [1, 2, 3],
            [3, 2, 1],
            [2, 3, 1],
            [2, 1, 3],
            [3, 1, 2],
            [1, 3, 2],
        ] {
            assert_eq!(network.apply(&input), vec![1, 2, 3], "input {input:?}");
        }
    }

    #[test]
    #[should_panic(expected = "input length must equal")]
    fn apply_rejects_wrong_input_length() {
        three_wire_sorter().apply(&[1, 2]);
    }

    #[test]
    #[should_panic(expected = "exceeds network width")]
    fn push_stage_rejects_out_of_range_wires() {
        let mut network = ComparatorNetwork::new(2);
        network.push_stage(vec![Comparator::new(1, 2)]);
    }

    #[test]
    #[should_panic(expected = "appears twice in one stage")]
    fn push_stage_rejects_overlapping_comparators() {
        let mut network = ComparatorNetwork::new(3);
        network.push_stage(vec![Comparator::new(0, 1), Comparator::new(1, 2)]);
    }

    #[test]
    fn trace_counts_comparators_and_final_positions() {
        let network = three_wire_sorter();
        let trace = network.trace(&[3, 2, 1]);
        // The value 3 (input wire 0) ends on output wire 2.
        assert_eq!(trace[0].output_wire, 2);
        // The value 1 (input wire 2) ends on output wire 0.
        assert_eq!(trace[2].output_wire, 0);
        // Every input passes through at least one comparator here.
        assert!(trace.iter().all(|t| t.comparators_traversed >= 1));
        // Traversal counts are bounded by the network size.
        assert!(trace.iter().all(|t| t.comparators_traversed <= 3));
    }

    #[test]
    fn truncate_drops_comparators_touching_removed_wires() {
        let network = three_wire_sorter();
        let truncated = network.truncate(2);
        assert_eq!(truncated.width(), 2);
        assert_eq!(truncated.size(), 2); // the two (0,1) comparators survive
        assert_eq!(truncated.depth(), 2, "the emptied stage is dropped");
        assert_eq!(truncated.apply(&[2, 1]), vec![1, 2]);
    }

    /// The wire map must agree with a scan of the stage slices after any
    /// sequence of mutations.
    fn assert_lookup_consistent(network: &ComparatorNetwork, label: &str) {
        for stage in 0..network.depth() {
            for wire in 0..network.width() {
                let scanned = network
                    .stage(stage)
                    .iter()
                    .copied()
                    .find(|c| c.touches(wire));
                assert_eq!(
                    network.comparator_at(stage, wire),
                    scanned,
                    "{label}: stage {stage}, wire {wire}"
                );
            }
        }
        assert_eq!(network.pair_at(network.depth(), 0), None, "{label}");
        assert_eq!(network.pair_at(0, network.width()), None, "{label}");
        assert!(network.stage(network.depth()).is_empty(), "{label}");
    }

    #[test]
    fn lookup_index_tracks_every_mutation_path() {
        let mut network = three_wire_sorter();
        assert_lookup_consistent(&network, "push_stage");

        network.push_stage(Vec::new());
        network.push_stage(vec![Comparator::new(0, 2)]);
        assert_eq!(network.depth(), 5, "empty stages are kept");
        assert_lookup_consistent(&network, "empty push_stage");

        let truncated = network.truncate(2);
        assert_lookup_consistent(&truncated, "truncate");

        let compiled = ComparatorNetwork::compile(&network);
        assert_eq!(compiled, network, "compile");
        assert_lookup_consistent(&compiled, "compile");
    }

    #[test]
    fn dense_indices_are_stage_major_and_complete() {
        let network = odd_even_network(16);
        // Every busy (stage, wire) cell has a dense index; the indices of
        // one stage form the stage's contiguous slice.
        let mut seen = vec![false; network.size()];
        let mut start = 0;
        for stage in 0..network.depth() {
            let end = start + network.stage(stage).len();
            for wire in 0..network.width() {
                if let Some((comparator, slot)) = network.pair_at(stage, wire) {
                    assert!((start..end).contains(&slot), "stage {stage} wire {wire}");
                    assert_eq!(network.stage(stage)[slot - start], comparator);
                    seen[slot] = true;
                }
            }
            start = end;
        }
        assert_eq!(start, network.size());
        assert!(seen.into_iter().all(|s| s), "every dense slot is reachable");
    }

    #[test]
    fn pair_at_returns_comparator_and_slot_together() {
        let network = odd_even_network(8);
        let (comparator, slot) = network.pair_at(0, 0).unwrap();
        assert!(comparator.touches(0));
        assert_eq!(network.stage(0)[slot], comparator);
        assert_eq!(network.pair_at(0, 0), network.pair_at(0, comparator.bottom));
        assert_eq!(network.pair_at(99, 0), None, "stage out of range");
        assert_eq!(network.pair_at(0, 99), None, "wire out of range");
    }
}
