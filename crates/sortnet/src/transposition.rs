//! Odd-even transposition ("brick wall") sorting network.
//!
//! A `Θ(n)`-depth sorting network over min-up comparators, used as a simple,
//! obviously correct reference network in tests and as a deliberately
//! non-scalable baseline in the depth experiments (E13).

use crate::network::{Comparator, ComparatorNetwork};

/// Builds the odd-even transposition network on `width` wires: `width`
/// stages alternating between comparators on even and odd adjacent pairs.
///
/// # Panics
///
/// Panics if `width < 2`.
///
/// # Example
///
/// ```
/// use sortnet::transposition::transposition_network;
///
/// let network = transposition_network(5);
/// assert_eq!(network.apply(&[5, 4, 3, 2, 1]), vec![1, 2, 3, 4, 5]);
/// assert_eq!(network.depth(), 5);
/// ```
pub fn transposition_network(width: usize) -> ComparatorNetwork {
    assert!(width >= 2, "a sorting network needs at least two wires");
    let mut network = ComparatorNetwork::new(width);
    for stage_index in 0..width {
        let mut stage = Vec::new();
        let mut wire = stage_index % 2;
        while wire + 1 < width {
            stage.push(Comparator::new(wire, wire + 1));
            wire += 2;
        }
        if !stage.is_empty() {
            network.push_stage(stage);
        }
    }
    network
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::schedule_sorts_exhaustive;

    #[test]
    fn sorts_exhaustively_for_small_widths() {
        for width in 2..=12usize {
            assert!(
                schedule_sorts_exhaustive(&transposition_network(width)),
                "width {width}"
            );
        }
    }

    #[test]
    fn depth_is_linear_in_width() {
        for width in [2usize, 5, 9, 16] {
            let network = transposition_network(width);
            assert!(
                network.depth() >= width - 1 && network.depth() <= width,
                "width {width}: depth {}",
                network.depth()
            );
        }
    }

    #[test]
    fn size_is_quadratic_in_width() {
        let network = transposition_network(8);
        // 8 stages alternating 4 and 3 comparators.
        assert_eq!(network.size(), 4 * 4 + 4 * 3);
    }

    #[test]
    #[should_panic(expected = "at least two wires")]
    fn width_one_is_rejected() {
        let _ = transposition_network(1);
    }
}
