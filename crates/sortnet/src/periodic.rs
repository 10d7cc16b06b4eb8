//! The periodic balanced sorting network (Dowd–Perl–Rudolph–Saks).
//!
//! The periodic network on `w = 2^m` wires consists of `m` identical
//! *blocks*, each of depth `m`: layer `t` of a block (counting from 1)
//! compares every wire `i` with the wire obtained by complementing the low
//! `m − t + 1` bits of `i`. The first layer therefore folds each
//! `2^(m−t+1)`-wide group onto itself in the "triangle" pattern, and later
//! layers repeat the fold within smaller groups. The resulting network sorts
//! in `Θ(log² w)` depth — the same asymptotics as Batcher's constructions —
//! and its perfectly periodic structure is what made it attractive for
//! hardware.
//!
//! The family earns its place in this workspace for a second reason: the
//! periodic wiring is the classical *counting network* of Aspnes, Herlihy
//! and Shavit. Reinterpreting its comparators as balancers (the `cnet`
//! crate) yields a quiescently-consistent counter, which is **not** true of
//! every sorting network — Batcher's odd-even merge and the one-pass
//! odd-even transposition wirings both violate the step property (pinned by
//! regression tests in `cnet`). Bitonic and periodic are the two wirings
//! this workspace certifies for counting.

use crate::network::{Comparator, ComparatorNetwork};

/// Builds one periodic block on `width = 2^m` wires: `m` layers, layer `t`
/// comparing wire `i` with `i` XOR a low-bit mask of `m − t + 1` ones.
fn push_block(network: &mut ComparatorNetwork, width: usize) {
    let levels = width.trailing_zeros();
    for level in (1..=levels).rev() {
        let mask = (1usize << level) - 1;
        let mut stage = Vec::with_capacity(width / 2);
        for wire in 0..width {
            let partner = wire ^ mask;
            if partner > wire {
                stage.push(Comparator::new(wire, partner));
            }
        }
        network.push_stage(stage);
    }
}

/// Builds the periodic balanced sorting network on `width` wires: `log₂ w`
/// identical blocks of depth `log₂ w` each. Non-power-of-two widths are
/// obtained by truncating the next-power-of-two network, exactly as in
/// [`bitonic_network`](crate::bitonic::bitonic_network).
///
/// # Panics
///
/// Panics if `width < 2`.
///
/// # Example
///
/// ```
/// use sortnet::periodic::periodic_network;
///
/// let network = periodic_network(8);
/// assert_eq!(network.depth(), 9); // log₂ 8 blocks of depth log₂ 8
/// assert_eq!(network.apply(&[8, 7, 6, 5, 4, 3, 2, 1]), vec![1, 2, 3, 4, 5, 6, 7, 8]);
/// ```
pub fn periodic_network(width: usize) -> ComparatorNetwork {
    assert!(width >= 2, "a sorting network needs at least two wires");
    let phys = width.next_power_of_two();
    let mut network = ComparatorNetwork::new(phys);
    for _ in 0..phys.trailing_zeros() {
        push_block(&mut network, phys);
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
                schedule_sorts_exhaustive(&periodic_network(width)),
                "width {width}"
            );
        }
    }

    #[test]
    fn truncated_widths_sort_exhaustively() {
        for width in [3usize, 5, 6, 7, 9, 12, 13, 15] {
            assert!(
                schedule_sorts_exhaustive(&periodic_network(width)),
                "width {width}"
            );
        }
    }

    #[test]
    fn depth_is_log_squared_for_powers_of_two() {
        for exponent in 1..=8u32 {
            let width = 1usize << exponent;
            assert_eq!(
                periodic_network(width).depth(),
                (exponent * exponent) as usize,
                "width {width}"
            );
        }
    }

    #[test]
    fn blocks_are_identical() {
        let width = 8usize;
        let network = periodic_network(width);
        let block_depth = width.trailing_zeros() as usize;
        use crate::schedule::ComparatorSchedule;
        for stage in 0..block_depth {
            for block in 1..block_depth {
                assert_eq!(
                    network.stage_comparators(stage),
                    network.stage_comparators(block * block_depth + stage),
                    "block {block}, stage {stage}"
                );
            }
        }
    }

    #[test]
    fn first_layer_is_the_triangle_fold() {
        let network = periodic_network(8);
        use crate::schedule::ComparatorSchedule;
        assert_eq!(
            network.stage_comparators(0),
            vec![
                Comparator::new(0, 7),
                Comparator::new(1, 6),
                Comparator::new(2, 5),
                Comparator::new(3, 4),
            ]
        );
    }

    #[test]
    #[should_panic(expected = "at least two wires")]
    fn width_one_is_rejected() {
        let _ = periodic_network(1);
    }
}
