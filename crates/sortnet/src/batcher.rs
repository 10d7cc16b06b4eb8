//! Batcher's odd-even mergesort.
//!
//! Odd-even mergesort is the classic *constructible* sorting network: depth
//! `O(log² n)` with small constants, built from min-up comparators only. The
//! paper recommends exactly this trade-off — "an alternative would be to use
//! constructible networks such as bitonic networks; this trades
//! constructibility for a logarithmic increase in running time" (§1) — so this
//! family is the default basis of our renaming networks and of the §6.1
//! adaptive construction.
//!
//! Two representations are provided:
//!
//! * [`odd_even_network`] — a materialized [`ComparatorNetwork`].
//! * [`OddEvenSchedule`] — an analytic [`ComparatorSchedule`] that computes
//!   `comparator_at(stage, wire)` arithmetically, allowing widths in the tens
//!   of thousands (as required by the adaptive construction's outer levels)
//!   without materializing millions of comparators.
//!
//! Networks of arbitrary (non-power-of-two) width are obtained by truncating
//! the next-power-of-two network; truncation preserves the sorting property
//! because dropped wires behave like `+∞` inputs that min-up comparators never
//! move upward.

use crate::network::{Comparator, ComparatorNetwork};
use crate::schedule::ComparatorSchedule;

/// Returns `true` if stage `(p, k)` of the odd-even mergesort network on
/// `phys` (power-of-two) wires contains the comparator `(a, a + k)`, and
/// that comparator survives truncation to `width` wires.
///
/// `p` and `k` are powers of two, so the textbook conditions `k mod p`,
/// `(a − j0) mod 2k < k` and `⌊a / 2p⌋ = ⌊(a + k) / 2p⌋` are computed with
/// masks: two values share their `2p`-block exactly when they agree on
/// every bit above the block, that is when their XOR is below `2p`.
fn is_lower_wire(phys: usize, width: usize, p: usize, k: usize, a: usize) -> bool {
    debug_assert!(phys.is_power_of_two() && p.is_power_of_two() && k.is_power_of_two());
    let j0 = k & (p - 1);
    a + k < width && a + k < phys && a >= j0 && (a - j0) & (2 * k - 1) < k && (a ^ (a + k)) < 2 * p
}

/// The `(p, k)` parameters of every stage, in execution order.
fn stage_parameters(phys: usize) -> Vec<(usize, usize)> {
    let mut parameters = Vec::new();
    let mut p = 1;
    while p < phys {
        let mut k = p;
        while k >= 1 {
            parameters.push((p, k));
            k /= 2;
        }
        p *= 2;
    }
    parameters
}

/// An analytic comparator schedule for Batcher's odd-even mergesort on
/// `width` wires.
///
/// # Example
///
/// ```
/// use sortnet::batcher::OddEvenSchedule;
/// use sortnet::network::ComparatorNetwork;
/// use sortnet::schedule::ComparatorSchedule;
///
/// let schedule = OddEvenSchedule::new(8);
/// assert_eq!(schedule.width(), 8);
/// assert_eq!(schedule.depth(), 6); // log2(8) * (log2(8) + 1) / 2
/// assert_eq!(ComparatorNetwork::compile(&schedule).apply(&[4, 2, 7, 1, 8, 3, 6, 5]),
///            vec![1, 2, 3, 4, 5, 6, 7, 8]);
/// ```
#[derive(Clone, Debug)]
pub struct OddEvenSchedule {
    width: usize,
    phys: usize,
    stages: Vec<(usize, usize)>,
}

impl OddEvenSchedule {
    /// Creates the schedule for `width` wires.
    ///
    /// # Panics
    ///
    /// Panics if `width < 2`.
    pub fn new(width: usize) -> Self {
        assert!(width >= 2, "a sorting network needs at least two wires");
        let phys = width.next_power_of_two();
        OddEvenSchedule {
            width,
            phys,
            stages: stage_parameters(phys),
        }
    }

    /// The power-of-two width of the untruncated underlying network.
    pub fn physical_width(&self) -> usize {
        self.phys
    }
}

impl ComparatorSchedule for OddEvenSchedule {
    fn width(&self) -> usize {
        self.width
    }

    fn depth(&self) -> usize {
        self.stages.len()
    }

    fn comparator_at(&self, stage: usize, wire: usize) -> Option<Comparator> {
        let &(p, k) = self.stages.get(stage)?;
        if wire >= self.width {
            return None;
        }
        if is_lower_wire(self.phys, self.width, p, k, wire) {
            return Some(Comparator::new(wire, wire + k));
        }
        if wire >= k && is_lower_wire(self.phys, self.width, p, k, wire - k) {
            return Some(Comparator::new(wire - k, wire));
        }
        None
    }
}

/// Builds a materialized odd-even mergesort network on `width` wires.
///
/// # Panics
///
/// Panics if `width < 2`.
///
/// # Example
///
/// ```
/// use sortnet::batcher::odd_even_network;
///
/// let network = odd_even_network(6);
/// assert_eq!(network.apply(&[6, 5, 4, 3, 2, 1]), vec![1, 2, 3, 4, 5, 6]);
/// ```
pub fn odd_even_network(width: usize) -> ComparatorNetwork {
    ComparatorNetwork::compile(&OddEvenSchedule::new(width))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::schedule_sorts_exhaustive;

    #[test]
    fn power_of_two_networks_sort_exhaustively() {
        for width in [2usize, 4, 8, 16] {
            let network = odd_even_network(width);
            assert!(
                schedule_sorts_exhaustive(&network),
                "width {width} failed the zero-one principle"
            );
        }
    }

    #[test]
    fn truncated_networks_sort_exhaustively() {
        for width in [3usize, 5, 6, 7, 9, 11, 13, 15, 17] {
            let network = odd_even_network(width);
            assert!(
                schedule_sorts_exhaustive(&network),
                "width {width} failed the zero-one principle"
            );
        }
    }

    #[test]
    fn analytic_schedule_sorts_exhaustively() {
        for width in [2usize, 3, 4, 6, 8, 12, 16] {
            let schedule = OddEvenSchedule::new(width);
            assert!(
                schedule_sorts_exhaustive(&schedule),
                "width {width} failed the zero-one principle"
            );
        }
    }

    #[test]
    fn analytic_schedule_matches_materialized_network() {
        for width in [4usize, 7, 8, 13, 16, 20] {
            let schedule = OddEvenSchedule::new(width);
            let network = odd_even_network(width);
            // Every (p, k) stage of the schedule holds a comparator, so the
            // network keeps the schedule's stage indices.
            assert_eq!(network.depth(), schedule.depth(), "width {width}");
            for stage in 0..schedule.depth() {
                assert!(!network.stage(stage).is_empty(), "width {width}");
                for wire in 0..width {
                    assert_eq!(
                        network.comparator_at(stage, wire),
                        schedule.comparator_at(stage, wire),
                        "width {width}: ({stage}, {wire})"
                    );
                }
            }
        }
    }

    #[test]
    fn depth_follows_the_log_squared_formula() {
        for exponent in 1..=10u32 {
            let width = 1usize << exponent;
            let schedule = OddEvenSchedule::new(width);
            let expected = (exponent * (exponent + 1) / 2) as usize;
            assert_eq!(schedule.depth(), expected, "width {width}");
        }
    }

    #[test]
    fn schedule_is_consistent_between_both_wires_of_a_comparator() {
        let schedule = OddEvenSchedule::new(32);
        for stage in 0..schedule.depth() {
            for wire in 0..schedule.width() {
                if let Some(c) = schedule.comparator_at(stage, wire) {
                    assert!(c.touches(wire));
                    let peer = schedule.comparator_at(stage, c.other(wire));
                    assert_eq!(peer, Some(c), "stage {stage}, wire {wire}");
                }
            }
        }
    }

    #[test]
    fn very_wide_schedules_are_cheap_to_construct() {
        // The analytic schedule for a 2^20-wire network must not materialize
        // anything: constructing it and probing a few comparators is instant.
        let schedule = OddEvenSchedule::new(1 << 20);
        assert_eq!(schedule.depth(), 20 * 21 / 2);
        assert_eq!(schedule.physical_width(), 1 << 20);
        let mut found = 0;
        for stage in 0..schedule.depth() {
            if schedule.comparator_at(stage, 123_456).is_some() {
                found += 1;
            }
        }
        assert!(found > 0, "wire 123456 must meet at least one comparator");
    }

    #[test]
    fn mask_lookup_matches_the_division_form_at_the_adaptive_section_widths() {
        fn by_division(phys: usize, width: usize, p: usize, k: usize, a: usize) -> bool {
            let j0 = k % p;
            a + k < width
                && a + k < phys
                && a >= j0
                && (a - j0) % (2 * k) < k
                && a / (2 * p) == (a + k) / (2 * p)
        }
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(7);
        // The widths of the §6.1 sections; the last needs 64-bit words.
        let widths = [3u64, 14, 248, 65_408, (1 << 32) - 32_768];
        let mut checked = 0;
        for width in widths.into_iter().filter_map(|w| usize::try_from(w).ok()) {
            let phys = width.next_power_of_two();
            for (p, k) in stage_parameters(phys) {
                // Both ends, both sides of every block boundary the stage
                // tests, and uniform samples.
                let mut wires: Vec<usize> = (0..8).chain(width.saturating_sub(8)..width).collect();
                for boundary in [k, 2 * k, p, 2 * p] {
                    let base = rng.gen_range(0..width / boundary + 1) * boundary;
                    wires.extend(base.saturating_sub(2)..base + 2);
                }
                wires.extend((0..16).map(|_| rng.gen_range(0..width)));
                for a in wires.into_iter().filter(|&a| a < width) {
                    assert_eq!(
                        is_lower_wire(phys, width, p, k, a),
                        by_division(phys, width, p, k, a),
                        "width {width} stage ({p}, {k}) wire {a}"
                    );
                    checked += 1;
                }
            }
        }
        assert!(checked > 10_000, "only {checked} lookups compared");
    }

    #[test]
    #[should_panic(expected = "at least two wires")]
    fn width_one_is_rejected() {
        let _ = OddEvenSchedule::new(1);
    }

    #[test]
    fn sorts_random_integer_inputs() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(42);
        for width in [5usize, 16, 33, 64] {
            let network = odd_even_network(width);
            for _ in 0..20 {
                let input: Vec<u32> = (0..width).map(|_| rng.gen_range(0..1000)).collect();
                let mut expected = input.clone();
                expected.sort_unstable();
                assert_eq!(network.apply(&input), expected, "width {width}");
            }
        }
    }
}
