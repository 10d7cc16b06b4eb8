//! Bitonic sorting network (ascending-comparator variant).
//!
//! Batcher's bitonic sorter is the second constructible `O(log² n)`-depth
//! family the paper mentions (§1, §6.1). The textbook presentation uses
//! comparators of both orientations; here we build the standard variant that
//! uses only min-up comparators by replacing each block's first merge step
//! with the "triangle" pattern that compares wire `i` with wire
//! `block_end - 1 - i`. The result is a valid sorting network over min-up
//! comparators, suitable for renaming networks.

use crate::network::{Comparator, ComparatorNetwork};

/// Builds a bitonic sorting network on `width` wires (min-up comparators
/// only). Non-power-of-two widths are obtained by truncating the
/// next-power-of-two network.
///
/// # Panics
///
/// Panics if `width < 2`.
///
/// # Example
///
/// ```
/// use sortnet::bitonic::bitonic_network;
///
/// let network = bitonic_network(8);
/// assert_eq!(network.apply(&[8, 7, 6, 5, 4, 3, 2, 1]), vec![1, 2, 3, 4, 5, 6, 7, 8]);
/// ```
pub fn bitonic_network(width: usize) -> ComparatorNetwork {
    assert!(width >= 2, "a sorting network needs at least two wires");
    let phys = width.next_power_of_two();
    let mut network = ComparatorNetwork::new(phys);

    let mut block = 2usize;
    while block <= phys {
        // Triangle stage: within each block, compare i with (block - 1 - i).
        let mut stage = Vec::new();
        let mut start = 0;
        while start < phys {
            for i in 0..block / 2 {
                stage.push(Comparator::new(start + i, start + block - 1 - i));
            }
            start += block;
        }
        network.push_stage(stage);

        // Half-cleaner stages with shrinking distance.
        let mut distance = block / 4;
        while distance >= 1 {
            let mut stage = Vec::new();
            let mut start = 0;
            while start < phys {
                for i in 0..distance {
                    stage.push(Comparator::new(start + i, start + i + distance));
                }
                start += 2 * distance;
            }
            network.push_stage(stage);
            distance /= 2;
        }

        block *= 2;
    }

    if width == phys {
        network
    } else {
        network.truncate(width)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::schedule_sorts_exhaustive;

    #[test]
    fn power_of_two_widths_sort_exhaustively() {
        for width in [2usize, 4, 8, 16] {
            assert!(
                schedule_sorts_exhaustive(&bitonic_network(width)),
                "width {width}"
            );
        }
    }

    #[test]
    fn truncated_widths_sort_exhaustively() {
        for width in [3usize, 5, 6, 7, 10, 12, 15] {
            assert!(
                schedule_sorts_exhaustive(&bitonic_network(width)),
                "width {width}"
            );
        }
    }

    #[test]
    fn depth_matches_the_log_squared_formula_for_powers_of_two() {
        for exponent in 1..=8u32 {
            let width = 1usize << exponent;
            let network = bitonic_network(width);
            let expected = (exponent * (exponent + 1) / 2) as usize;
            assert_eq!(network.depth(), expected, "width {width}");
        }
    }

    #[test]
    fn sorts_random_inputs() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(7);
        for width in [6usize, 16, 31, 64] {
            let network = bitonic_network(width);
            for _ in 0..20 {
                let input: Vec<i32> = (0..width).map(|_| rng.gen_range(-50..50)).collect();
                let mut expected = input.clone();
                expected.sort_unstable();
                assert_eq!(network.apply(&input), expected, "width {width}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "at least two wires")]
    fn width_one_is_rejected() {
        let _ = bitonic_network(1);
    }
}
