//! The paper's §6.1 adaptive sorting-network construction.
//!
//! The construction starts from a two-wire network `S₀` and repeatedly
//! "sandwiches" it: `S_{k+1}` is obtained by placing a sorting network
//! `A_{k+1}` before `S_k` and a sorting network `C_{k+1}` after it, where
//! `A_{k+1}` and `C_{k+1}` have width `w_k² − w_k/2` and act on the channels
//! above the lowest `ℓ_{k+1} = w_k/2` (Lemma 2). The resulting network has
//! width `w_k = 2^(2^k)`, is a sorting network at every truncation, and any
//! value that enters on wire `n` and leaves on wire `m` traverses only
//! `O(log^c max(n, m))` comparators (Theorem 2), where `c` is the depth
//! exponent of the base family.
//!
//! The crucial observation that makes the construction directly executable is
//! that, with `B` occupying channels `0..w_k` and `A`/`C` occupying channels
//! `ℓ..w_{k+1}`, the inter-network wiring of Lemma 2 is the identity on
//! channels: no permutation stage is needed. The flattened network is simply
//! the concatenation `A_L ; A_{L-1} ; … ; A_1 ; S₀ ; C_1 ; … ; C_L`, with each
//! section applied to its channel range. [`AdaptiveNetwork`] exposes exactly
//! that section list, which is what the renaming network in the core crate
//! traverses.

use crate::family::SortingFamily;
use crate::network::{Comparator, ComparatorNetwork};
use crate::schedule::ComparatorSchedule;
use std::fmt;
use std::sync::Arc;

/// The largest supported level: `w_5 = 2^32` wires, enough for any practical
/// truncation (input ports up to `2^31`).
pub const MAX_LEVEL: usize = 5;

/// The deepest level at which a family that is not
/// [analytic](SortingFamily::is_analytic) may back the construction. Level
/// 3's sections have at most 255 wires; level 4 would materialize 65 408-wire
/// sections and level 5 sections of up to 2³² wires (a bitonic level-5
/// section has 2³¹ comparators in its first stage alone).
pub const MAX_MATERIALIZED_LEVEL: usize = 3;

/// Which part of the sandwich a [`Section`] implements.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum SectionKind {
    /// The pre-network `A_level`, executed before all inner levels.
    Pre {
        /// The sandwich level this section belongs to (1-based).
        level: usize,
    },
    /// The innermost two-wire network `S₀`.
    Base,
    /// The post-network `C_level`, executed after all inner levels.
    Post {
        /// The sandwich level this section belongs to (1-based).
        level: usize,
    },
}

impl fmt::Display for SectionKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SectionKind::Pre { level } => write!(f, "A{level}"),
            SectionKind::Base => write!(f, "S0"),
            SectionKind::Post { level } => write!(f, "C{level}"),
        }
    }
}

/// One contiguous section of the adaptive network: a sorting network of the
/// base family applied to the channel range `offset..offset + width`.
#[derive(Clone)]
pub struct Section {
    /// Position of this section in traversal order (0-based).
    pub index: usize,
    /// Which part of the sandwich this is.
    pub kind: SectionKind,
    /// First channel this section acts on.
    pub offset: usize,
    /// The section's sorting network (width = number of channels it spans).
    pub schedule: Arc<dyn ComparatorSchedule>,
}

impl Section {
    /// Number of channels the section spans.
    pub fn width(&self) -> usize {
        self.schedule.width()
    }

    /// Whether the given global channel is acted on by this section.
    pub fn covers(&self, channel: usize) -> bool {
        channel >= self.offset && channel < self.offset + self.width()
    }

    /// The comparator touching `channel` in the section's `stage`, translated
    /// to global channel indices. Returns `None` if the channel is outside the
    /// section or idle in that stage.
    pub fn comparator_at(&self, stage: usize, channel: usize) -> Option<Comparator> {
        if !self.covers(channel) {
            return None;
        }
        self.schedule
            .comparator_at(stage, channel - self.offset)
            .map(|c| Comparator::new(c.top + self.offset, c.bottom + self.offset))
    }
}

impl fmt::Debug for Section {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Section")
            .field("index", &self.index)
            .field("kind", &self.kind)
            .field("offset", &self.offset)
            .field("width", &self.width())
            .field("depth", &self.schedule.depth())
            .finish()
    }
}

/// The width `w_level = 2^(2^level)` of the adaptive network at a level.
///
/// # Panics
///
/// Panics if `level > MAX_LEVEL`.
pub fn level_width(level: usize) -> usize {
    assert!(level <= MAX_LEVEL, "level {level} exceeds MAX_LEVEL");
    1usize << (1usize << level)
}

/// The smallest level whose *lower half* covers the given input port, i.e.
/// the level `k'` such that a value entering on `port` stays within `S_{k'}`
/// when it is among the smallest values (Lemma 3 / Theorem 2).
pub fn level_for_port(port: usize) -> usize {
    for level in 0..=MAX_LEVEL {
        if port < level_width(level) / 2 {
            return level.max(1);
        }
    }
    MAX_LEVEL
}

/// The §6.1 adaptive sorting network, truncated at a chosen level.
///
/// # Example
///
/// ```
/// use sortnet::adaptive::AdaptiveNetwork;
/// use sortnet::family::NetworkFamily;
/// use sortnet::verify::schedule_sorts_exhaustive;
///
/// // Level 2: a 16-wire network.
/// let adaptive = AdaptiveNetwork::new(NetworkFamily::OddEven, 2);
/// assert_eq!(adaptive.width(), 16);
/// assert!(schedule_sorts_exhaustive(&adaptive.materialize()));
/// ```
pub struct AdaptiveNetwork {
    family: Arc<dyn SortingFamily>,
    max_level: usize,
    sections: Vec<Section>,
}

impl AdaptiveNetwork {
    /// Builds the adaptive network up to `max_level` over the given base
    /// family.
    ///
    /// Levels beyond [`MAX_MATERIALIZED_LEVEL`] need an analytic family
    /// (such as [`NetworkFamily::OddEven`](crate::family::NetworkFamily)),
    /// since a materialized family would store networks with millions to
    /// billions of comparators.
    ///
    /// # Panics
    ///
    /// Panics if `max_level` is 0 or exceeds [`MAX_LEVEL`], or if it exceeds
    /// [`MAX_MATERIALIZED_LEVEL`] and `family` is not analytic. Either check
    /// runs before anything is built.
    pub fn new<F: SortingFamily + 'static>(family: F, max_level: usize) -> Self {
        Self::with_family(Arc::new(family), max_level)
    }

    /// Like [`AdaptiveNetwork::new`], but taking an already-shared family.
    pub fn with_family(family: Arc<dyn SortingFamily>, max_level: usize) -> Self {
        assert!(
            max_level >= 1,
            "the adaptive network needs at least level 1"
        );
        assert!(
            max_level <= MAX_LEVEL,
            "level {max_level} exceeds MAX_LEVEL ({MAX_LEVEL})"
        );
        assert!(
            family.is_analytic() || max_level <= MAX_MATERIALIZED_LEVEL,
            "the {} family is materialized: level {max_level} exceeds \
             MAX_MATERIALIZED_LEVEL ({MAX_MATERIALIZED_LEVEL})",
            family.name()
        );

        // Base section S0: a single comparator on channels {0, 1}.
        let mut base = ComparatorNetwork::new(2);
        base.push_stage(vec![Comparator::new(0, 1)]);
        let base_schedule: Arc<dyn ComparatorSchedule> = Arc::new(base);

        // Per-level A/C schedules (A_j and C_j share the same width, but are
        // distinct sections — and hence distinct comparator objects once
        // turned into a renaming network).
        let mut sections = Vec::new();
        let mut index = 0;
        for level in (1..=max_level).rev() {
            let offset = level_width(level - 1) / 2;
            let width = level_width(level) - offset;
            sections.push(Section {
                index,
                kind: SectionKind::Pre { level },
                offset,
                schedule: family.schedule(width),
            });
            index += 1;
        }
        sections.push(Section {
            index,
            kind: SectionKind::Base,
            offset: 0,
            schedule: Arc::clone(&base_schedule),
        });
        index += 1;
        for level in 1..=max_level {
            let offset = level_width(level - 1) / 2;
            let width = level_width(level) - offset;
            sections.push(Section {
                index,
                kind: SectionKind::Post { level },
                offset,
                schedule: family.schedule(width),
            });
            index += 1;
        }

        AdaptiveNetwork {
            family,
            max_level,
            sections,
        }
    }

    /// The base family used by the construction.
    pub fn family(&self) -> &Arc<dyn SortingFamily> {
        &self.family
    }

    /// The truncation level of this instance.
    pub fn max_level(&self) -> usize {
        self.max_level
    }

    /// The total number of wires, `2^(2^max_level)`.
    pub fn width(&self) -> usize {
        level_width(self.max_level)
    }

    /// The sections in traversal order: `A_L, …, A_1, S₀, C_1, …, C_L`.
    pub fn sections(&self) -> &[Section] {
        &self.sections
    }

    /// Total depth: the sum of the section depths. This is the worst-case
    /// number of stages any value can pass through; the per-value bound of
    /// Theorem 2 is much smaller for values entering and leaving low wires.
    pub fn total_depth(&self) -> usize {
        self.sections.iter().map(|s| s.schedule.depth()).sum()
    }

    /// The number of comparator stages a value confined to the lowest
    /// `max(n, m) + 1` wires can traverse: the depth of `S_{k'}` where `k'` is
    /// the level covering that wire (the Theorem 2 bound, instantiated for
    /// this base family).
    pub fn traversal_depth_bound(&self, max_wire: usize) -> usize {
        let level = level_for_port(max_wire).min(self.max_level);
        let mut bound = 1; // the base comparator
        for j in 1..=level {
            let offset = level_width(j - 1) / 2;
            let width = level_width(j) - offset;
            bound += 2 * self.family.depth(width);
        }
        bound
    }

    /// Flattens the construction into a materialized comparator network of
    /// width [`AdaptiveNetwork::width`]. Intended for verification and for
    /// small levels (≤ 3); level 4 and above would materialize millions of
    /// comparators.
    pub fn materialize(&self) -> ComparatorNetwork {
        let width = self.width();
        let mut network = ComparatorNetwork::new(width);
        for section in &self.sections {
            for stage in 0..section.schedule.depth() {
                let comparators: Vec<Comparator> = section
                    .schedule
                    .stage_comparators(stage)
                    .into_iter()
                    .map(|c| Comparator::new(c.top + section.offset, c.bottom + section.offset))
                    .collect();
                if !comparators.is_empty() {
                    network.push_stage(comparators);
                }
            }
        }
        network
    }
}

impl fmt::Debug for AdaptiveNetwork {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("AdaptiveNetwork")
            .field("family", &self.family.name())
            .field("max_level", &self.max_level)
            .field("width", &self.width())
            .field("sections", &self.sections.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::family::{NetworkFamily, SortingFamily};
    use crate::verify::{schedule_sorts_exhaustive, sorts_random_zero_one_inputs};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn level_widths_are_double_exponential() {
        assert_eq!(level_width(0), 2);
        assert_eq!(level_width(1), 4);
        assert_eq!(level_width(2), 16);
        assert_eq!(level_width(3), 256);
        assert_eq!(level_width(4), 65536);
        assert_eq!(level_width(5), 1 << 32);
    }

    #[test]
    #[should_panic(expected = "exceeds MAX_LEVEL")]
    fn level_width_rejects_oversized_levels() {
        let _ = level_width(6);
    }

    #[test]
    fn level_for_port_matches_the_lemma_3_threshold() {
        assert_eq!(level_for_port(0), 1);
        assert_eq!(level_for_port(1), 1);
        assert_eq!(level_for_port(2), 2);
        assert_eq!(level_for_port(7), 2);
        assert_eq!(level_for_port(8), 3);
        assert_eq!(level_for_port(127), 3);
        assert_eq!(level_for_port(128), 4);
        assert_eq!(level_for_port(40_000), 5);
    }

    #[test]
    fn section_layout_follows_the_sandwich_order() {
        let adaptive = AdaptiveNetwork::new(NetworkFamily::OddEven, 3);
        let kinds: Vec<String> = adaptive
            .sections()
            .iter()
            .map(|s| s.kind.to_string())
            .collect();
        assert_eq!(kinds, vec!["A3", "A2", "A1", "S0", "C1", "C2", "C3"]);
        // Sections carry consecutive indices.
        for (i, section) in adaptive.sections().iter().enumerate() {
            assert_eq!(section.index, i);
        }
        // Offsets and widths match the construction.
        let a3 = &adaptive.sections()[0];
        assert_eq!(a3.offset, 8);
        assert_eq!(a3.width(), 248);
        let a1 = &adaptive.sections()[2];
        assert_eq!(a1.offset, 1);
        assert_eq!(a1.width(), 3);
        let base = &adaptive.sections()[3];
        assert_eq!(base.offset, 0);
        assert_eq!(base.width(), 2);
    }

    #[test]
    fn section_comparator_queries_are_translated_to_global_channels() {
        let adaptive = AdaptiveNetwork::new(NetworkFamily::OddEven, 2);
        let a1 = adaptive
            .sections()
            .iter()
            .find(|s| s.kind == SectionKind::Pre { level: 1 })
            .unwrap();
        assert!(a1.covers(1) && a1.covers(3) && !a1.covers(0) && !a1.covers(4));
        assert_eq!(a1.comparator_at(0, 0), None, "channel outside the section");
        // Any comparator reported must lie within the section's channel range.
        for stage in 0..a1.schedule.depth() {
            for channel in 1..4 {
                if let Some(c) = a1.comparator_at(stage, channel) {
                    assert!(c.top >= a1.offset && c.bottom < a1.offset + a1.width());
                    assert!(c.touches(channel));
                }
            }
        }
    }

    #[test]
    fn level_1_and_2_truncations_sort_exhaustively() {
        for family in [NetworkFamily::OddEven, NetworkFamily::Bitonic] {
            let level1 = AdaptiveNetwork::new(family, 1);
            assert_eq!(level1.width(), 4);
            assert!(
                schedule_sorts_exhaustive(&level1.materialize()),
                "{family} level 1"
            );

            let level2 = AdaptiveNetwork::new(family, 2);
            assert_eq!(level2.width(), 16);
            assert!(
                schedule_sorts_exhaustive(&level2.materialize()),
                "{family} level 2"
            );
        }
    }

    #[test]
    fn level_3_truncation_sorts_random_inputs() {
        let adaptive = AdaptiveNetwork::new(NetworkFamily::OddEven, 3);
        let network = adaptive.materialize();
        assert_eq!(network.width(), 256);
        let mut rng = StdRng::seed_from_u64(1234);
        assert!(sorts_random_zero_one_inputs(&network, 300, &mut rng));
    }

    #[test]
    fn values_on_low_wires_traverse_few_comparators() {
        // Theorem 2: a value entering wire n and leaving wire m traverses
        // O(log^c max(n, m)) comparators. Put a single zero on a low wire and
        // on a high wire and compare their traversal counts.
        let adaptive = AdaptiveNetwork::new(NetworkFamily::OddEven, 3);
        let network = adaptive.materialize();
        let traversal_for = |port: usize| {
            let mut input = vec![1u8; network.width()];
            input[port] = 0;
            let trace = network.trace(&input);
            assert_eq!(trace[port].output_wire, 0, "the unique zero exits first");
            trace[port].comparators_traversed
        };
        let low = traversal_for(1);
        let mid = traversal_for(6);
        let high = traversal_for(200);
        assert!(low <= adaptive.traversal_depth_bound(1), "low {low}");
        assert!(mid <= adaptive.traversal_depth_bound(6), "mid {mid}");
        assert!(high <= adaptive.traversal_depth_bound(200), "high {high}");
        assert!(
            low < high,
            "low-wire values must traverse fewer comparators"
        );
        // The whole-network depth is much larger than the low-wire bound.
        assert!(adaptive.traversal_depth_bound(1) < adaptive.total_depth());
    }

    #[test]
    fn high_level_instances_are_cheap_with_analytic_families() {
        let adaptive = AdaptiveNetwork::new(NetworkFamily::OddEven, 5);
        assert_eq!(adaptive.width(), 1 << 32);
        assert_eq!(adaptive.sections().len(), 11);
        assert!(adaptive.total_depth() > 0);
        assert!(format!("{adaptive:?}").contains("AdaptiveNetwork"));
    }

    #[test]
    #[should_panic(expected = "at least level 1")]
    fn level_zero_is_rejected() {
        let _ = AdaptiveNetwork::new(NetworkFamily::OddEven, 0);
    }

    #[test]
    fn materialized_families_build_up_to_level_three() {
        for family in [NetworkFamily::Bitonic, NetworkFamily::Periodic] {
            let network = AdaptiveNetwork::new(family, MAX_MATERIALIZED_LEVEL);
            assert_eq!(network.width(), 256);
        }
        assert!(NetworkFamily::OddEven.is_analytic());
        assert!(!NetworkFamily::Transposition.is_analytic());
    }

    #[test]
    #[should_panic(expected = "the bitonic family is materialized: level 4 exceeds")]
    fn materialized_families_are_rejected_above_level_three() {
        let _ = AdaptiveNetwork::new(NetworkFamily::Bitonic, 4);
    }

    #[test]
    fn traversal_depth_bound_grows_with_the_wire_index() {
        let adaptive = AdaptiveNetwork::new(NetworkFamily::OddEven, 4);
        let bounds: Vec<usize> = [1usize, 3, 10, 100, 1000, 10_000]
            .iter()
            .map(|&w| adaptive.traversal_depth_bound(w))
            .collect();
        for pair in bounds.windows(2) {
            assert!(pair[0] <= pair[1], "bounds must be monotone: {bounds:?}");
        }
        // The bound for tiny wires is dramatically smaller than for wire 1000.
        assert!(bounds[0] * 4 < bounds[4]);
    }
}
