//! Named sorting-network families.
//!
//! The renaming-network results are parameterized by the underlying sorting
//! network: AKS gives the optimal `O(log n)` depth (`c = 1` in the paper's
//! notation) but is impractical; Batcher's constructible networks give
//! `O(log² n)` (`c = 2`). [`SortingFamily`] abstracts the choice so the core
//! crate's renaming networks and the §6.1 adaptive construction can swap
//! families freely.

use crate::batcher::OddEvenSchedule;
use crate::bitonic::bitonic_network;
use crate::periodic::periodic_network;
use crate::schedule::ComparatorSchedule;
use crate::transposition::transposition_network;
use std::fmt;
use std::sync::Arc;

/// A family of sorting networks, one per width.
pub trait SortingFamily: Send + Sync {
    /// Human-readable family name (used in experiment tables).
    fn name(&self) -> &'static str;

    /// The exponent `c` such that the family's depth is `Θ(log^c n)`
    /// (1 for AKS, 2 for Batcher's networks, `∞`-ish for transposition —
    /// reported as `0` meaning "not polylogarithmic").
    fn depth_exponent(&self) -> u32;

    /// Builds the comparator schedule for a network of the given width.
    ///
    /// # Panics
    ///
    /// Implementations panic if `width < 2`.
    fn schedule(&self, width: usize) -> Arc<dyn ComparatorSchedule>;

    /// The depth of the family's network at the given width.
    fn depth(&self, width: usize) -> usize {
        self.schedule(width).depth()
    }

    /// Whether the family computes its comparators on demand instead of
    /// storing them, so that a schedule of any width takes `O(1)` memory.
    /// Only such a family can back the §6.1 adaptive network above
    /// [`MAX_MATERIALIZED_LEVEL`](crate::adaptive::MAX_MATERIALIZED_LEVEL).
    fn is_analytic(&self) -> bool {
        false
    }
}

impl fmt::Debug for dyn SortingFamily {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SortingFamily({})", self.name())
    }
}

/// The built-in sorting-network families.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum NetworkFamily {
    /// Batcher's odd-even mergesort (analytic schedule, `Θ(log² n)` depth).
    /// The default basis for renaming networks in this crate.
    OddEven,
    /// Batcher's bitonic sorter, ascending-comparator variant (materialized,
    /// `Θ(log² n)` depth).
    Bitonic,
    /// The Dowd–Perl–Rudolph–Saks periodic balanced network (materialized,
    /// `Θ(log² n)` depth, `log n` identical blocks). Together with
    /// [`NetworkFamily::Bitonic`] it is one of the two wirings certified as a
    /// *counting network* when its comparators are reinterpreted as balancers
    /// (the `cnet` crate).
    Periodic,
    /// Odd-even transposition (materialized, `Θ(n)` depth). Reference /
    /// worst-case baseline only.
    Transposition,
}

impl NetworkFamily {
    /// All built-in families, in the order experiments report them.
    pub fn all() -> [NetworkFamily; 4] {
        [
            NetworkFamily::OddEven,
            NetworkFamily::Bitonic,
            NetworkFamily::Periodic,
            NetworkFamily::Transposition,
        ]
    }
}

impl Default for NetworkFamily {
    /// Batcher's odd-even mergesort — the default basis of the renaming
    /// networks throughout the workspace.
    fn default() -> Self {
        NetworkFamily::OddEven
    }
}

impl std::str::FromStr for NetworkFamily {
    type Err = String;

    /// Parses a family name as reported by [`SortingFamily::name`]
    /// (`"odd-even-merge"`, `"bitonic"`, `"transposition"`), accepting the
    /// common short forms `"odd-even"` and `"odd_even"`. Used by builders and
    /// experiment binaries that select the family from configuration.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.trim().to_ascii_lowercase().as_str() {
            "odd-even-merge" | "odd-even" | "odd_even" | "oddeven" | "batcher" => {
                Ok(NetworkFamily::OddEven)
            }
            "bitonic" => Ok(NetworkFamily::Bitonic),
            "periodic" | "dprs" | "balanced" => Ok(NetworkFamily::Periodic),
            "transposition" => Ok(NetworkFamily::Transposition),
            other => Err(format!(
                "unknown sorting-network family {other:?} \
                 (expected odd-even-merge, bitonic, periodic or transposition)"
            )),
        }
    }
}

impl fmt::Display for NetworkFamily {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl SortingFamily for NetworkFamily {
    fn name(&self) -> &'static str {
        match self {
            NetworkFamily::OddEven => "odd-even-merge",
            NetworkFamily::Bitonic => "bitonic",
            NetworkFamily::Periodic => "periodic",
            NetworkFamily::Transposition => "transposition",
        }
    }

    fn depth_exponent(&self) -> u32 {
        match self {
            NetworkFamily::OddEven | NetworkFamily::Bitonic | NetworkFamily::Periodic => 2,
            NetworkFamily::Transposition => 0,
        }
    }

    fn is_analytic(&self) -> bool {
        matches!(self, NetworkFamily::OddEven)
    }

    fn schedule(&self, width: usize) -> Arc<dyn ComparatorSchedule> {
        match self {
            NetworkFamily::OddEven => Arc::new(OddEvenSchedule::new(width)),
            NetworkFamily::Bitonic => Arc::new(bitonic_network(width)),
            NetworkFamily::Periodic => Arc::new(periodic_network(width)),
            NetworkFamily::Transposition => Arc::new(transposition_network(width)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::schedule_sorts_exhaustive;

    #[test]
    fn every_family_produces_sorting_networks() {
        for family in NetworkFamily::all() {
            for width in [2usize, 5, 8, 13] {
                let schedule = family.schedule(width);
                assert_eq!(schedule.width(), width);
                assert!(schedule.depth() > 0);
                assert!(
                    schedule_sorts_exhaustive(&*schedule),
                    "{} width {width}",
                    family.name()
                );
            }
        }
    }

    #[test]
    fn depth_exponents_and_names_are_reported() {
        assert_eq!(NetworkFamily::OddEven.depth_exponent(), 2);
        assert_eq!(NetworkFamily::Bitonic.depth_exponent(), 2);
        assert_eq!(NetworkFamily::Periodic.depth_exponent(), 2);
        assert_eq!(NetworkFamily::Transposition.depth_exponent(), 0);
        assert_eq!(NetworkFamily::Periodic.to_string(), "periodic");
        assert_eq!(NetworkFamily::OddEven.to_string(), "odd-even-merge");
        assert_eq!(format!("{:?}", NetworkFamily::Bitonic), "Bitonic");
    }

    #[test]
    fn family_names_round_trip_through_from_str() {
        for family in NetworkFamily::all() {
            assert_eq!(family.name().parse::<NetworkFamily>(), Ok(family));
        }
        assert_eq!(
            "odd-even".parse::<NetworkFamily>(),
            Ok(NetworkFamily::OddEven)
        );
        assert_eq!(
            " Bitonic ".parse::<NetworkFamily>(),
            Ok(NetworkFamily::Bitonic)
        );
        assert!("aks".parse::<NetworkFamily>().is_err());
        assert_eq!(NetworkFamily::default(), NetworkFamily::OddEven);
    }

    #[test]
    fn arc_schedules_forward_all_queries() {
        let family = NetworkFamily::OddEven;
        let shared = family.schedule(8);
        let owned = OddEvenSchedule::new(8);
        assert_eq!(ComparatorSchedule::width(&shared), owned.width());
        assert_eq!(ComparatorSchedule::depth(&shared), owned.depth());
        for stage in 0..owned.depth() {
            assert_eq!(
                shared.stage_comparators(stage),
                owned.stage_comparators(stage)
            );
            for wire in 0..owned.width() {
                assert_eq!(
                    shared.comparator_at(stage, wire),
                    owned.comparator_at(stage, wire)
                );
            }
        }
    }

    #[test]
    fn constructible_families_have_polylog_depth_while_transposition_does_not() {
        for exponent in [3usize, 5, 7, 9, 11] {
            let width = 1 << exponent;
            let odd_even = NetworkFamily::OddEven.depth(width);
            let bitonic = NetworkFamily::Bitonic.depth(width);
            let periodic = NetworkFamily::Periodic.depth(width);
            let transposition = NetworkFamily::Transposition.depth(width);
            // log n (log n + 1) / 2 stages: 28 at width 128.
            assert_eq!(odd_even, exponent * (exponent + 1) / 2, "width {width}");
            assert_eq!(bitonic, exponent * (exponent + 1) / 2, "width {width}");
            // log n blocks of depth log n: 49 at width 128.
            assert_eq!(periodic, exponent * exponent, "width {width}");
            assert!(transposition >= width - 1, "width {width}");
        }
    }
}
