//! The wirings certified as counting networks.
//!
//! Not every sorting network counts. Reinterpreting comparators as balancers
//! preserves the step property only for specific constructions: the
//! **bitonic** network and the **periodic** (Dowd–Perl–Rudolph–Saks /
//! Aspnes–Herlihy–Shavit) network, both at power-of-two widths, are the two
//! classical counting networks. Batcher's odd-even merge — the default
//! renaming-network basis of this workspace — is the textbook
//! counterexample, and the one-pass odd-even transposition wiring fails
//! too, as does a truncated (non-power-of-two) bitonic network; the
//! workspace pins all three failures with regression tests
//! (`tests/cnet_properties.rs`).
//!
//! [`CountingFamily`] therefore restricts the [`NetworkFamily`] menu to the
//! certified wirings, and the `TryFrom` conversion turns the uncertified
//! families into a configuration error instead of a silently broken counter.

use sortnet::family::{NetworkFamily, SortingFamily};
use sortnet::schedule::ComparatorSchedule;
use std::fmt;
use std::sync::Arc;

/// A balancing-network wiring certified to satisfy the step property.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum CountingFamily {
    /// The bitonic counting network (Aspnes–Herlihy–Shavit): `Θ(log² w)`
    /// depth, the classical default.
    #[default]
    Bitonic,
    /// The periodic counting network: `log w` identical blocks of depth
    /// `log w`. Same asymptotics as bitonic with a perfectly regular layout.
    Periodic,
}

impl CountingFamily {
    /// Both certified families, in the order experiments report them.
    pub fn all() -> [CountingFamily; 2] {
        [CountingFamily::Bitonic, CountingFamily::Periodic]
    }

    /// Human-readable family name (used in experiment tables).
    pub fn name(&self) -> &'static str {
        match self {
            CountingFamily::Bitonic => "bitonic",
            CountingFamily::Periodic => "periodic",
        }
    }

    /// The underlying sorting-network family of this wiring.
    pub fn network_family(&self) -> NetworkFamily {
        match self {
            CountingFamily::Bitonic => NetworkFamily::Bitonic,
            CountingFamily::Periodic => NetworkFamily::Periodic,
        }
    }

    /// Builds the comparator schedule whose balancer reinterpretation is the
    /// counting network of this family.
    ///
    /// # Panics
    ///
    /// Panics if `width` is not a power of two or is below 2: the counting
    /// property of both families is only certified at power-of-two widths
    /// (truncated networks still *sort*, but provably miscount).
    pub fn schedule(&self, width: usize) -> Arc<dyn ComparatorSchedule> {
        assert!(
            width >= 2 && width.is_power_of_two(),
            "counting networks require a power-of-two width of at least 2, got {width}"
        );
        self.network_family().schedule(width)
    }
}

impl fmt::Display for CountingFamily {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Error produced when a sorting-network family has no certified counting
/// wiring.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct UncertifiedWiring {
    /// The rejected family.
    pub family: NetworkFamily,
}

impl fmt::Display for UncertifiedWiring {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "the {} wiring is not a certified counting network (its balancer \
             reinterpretation violates the step property); use the bitonic or \
             periodic family",
            self.family.name()
        )
    }
}

impl std::error::Error for UncertifiedWiring {}

impl TryFrom<NetworkFamily> for CountingFamily {
    type Error = UncertifiedWiring;

    /// Maps the sorting-network families onto their counting-certified
    /// wirings. [`NetworkFamily::OddEven`] and
    /// [`NetworkFamily::Transposition`] are rejected: both are fine sorting
    /// networks whose balancer reinterpretation provably miscounts.
    fn try_from(family: NetworkFamily) -> Result<Self, Self::Error> {
        match family {
            NetworkFamily::Bitonic => Ok(CountingFamily::Bitonic),
            NetworkFamily::Periodic => Ok(CountingFamily::Periodic),
            NetworkFamily::OddEven | NetworkFamily::Transposition => {
                Err(UncertifiedWiring { family })
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedules_have_the_expected_shape() {
        let bitonic = CountingFamily::Bitonic.schedule(8);
        assert_eq!(bitonic.width(), 8);
        assert_eq!(bitonic.depth(), 6); // 3 * 4 / 2
        let periodic = CountingFamily::Periodic.schedule(8);
        assert_eq!(periodic.width(), 8);
        assert_eq!(periodic.depth(), 9); // 3 blocks of depth 3
    }

    #[test]
    fn certified_wirings_are_sorting_networks() {
        // The 0-1 principle transfers: both counting wirings sort, which the
        // sortnet verifier checks exhaustively.
        for family in CountingFamily::all() {
            for width in [2usize, 4, 8] {
                assert!(
                    sortnet::verify::schedule_sorts_exhaustive(&*family.schedule(width)),
                    "{family} width {width}"
                );
            }
        }
    }

    #[test]
    fn conversion_accepts_only_certified_families() {
        assert_eq!(
            CountingFamily::try_from(NetworkFamily::Bitonic),
            Ok(CountingFamily::Bitonic)
        );
        assert_eq!(
            CountingFamily::try_from(NetworkFamily::Periodic),
            Ok(CountingFamily::Periodic)
        );
        for rejected in [NetworkFamily::OddEven, NetworkFamily::Transposition] {
            let error = CountingFamily::try_from(rejected).unwrap_err();
            assert_eq!(error.family, rejected);
            assert!(error.to_string().contains("step property"));
        }
    }

    #[test]
    fn names_and_default_are_stable() {
        assert_eq!(CountingFamily::default(), CountingFamily::Bitonic);
        assert_eq!(CountingFamily::Bitonic.to_string(), "bitonic");
        assert_eq!(CountingFamily::Periodic.to_string(), "periodic");
        assert_eq!(
            CountingFamily::Periodic.network_family(),
            NetworkFamily::Periodic
        );
    }

    #[test]
    #[should_panic(expected = "power-of-two width")]
    fn non_power_of_two_widths_are_rejected() {
        let _ = CountingFamily::Bitonic.schedule(6);
    }
}
