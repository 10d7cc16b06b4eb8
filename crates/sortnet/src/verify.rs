//! Sorting-network verification via the zero-one principle.
//!
//! Knuth's zero-one principle: a comparator network sorts *every* input
//! sequence if and only if it sorts every sequence of zeros and ones. The
//! paper's Lemma 2 proof uses exactly this principle; these helpers make it
//! executable, both exhaustively (for widths up to ~22 wires) and by random
//! sampling (for wider networks).

use crate::network::ComparatorNetwork;
use crate::schedule::ComparatorSchedule;
use rand::Rng;

/// Whether a 0/1 vector is sorted (all zeros before all ones).
fn is_sorted_zero_one(values: &[u8]) -> bool {
    values.windows(2).all(|pair| pair[0] <= pair[1])
}

/// Produces the 0/1 vector whose bits are given by `mask` (bit `i` of the
/// mask is input wire `i`).
fn zero_one_input(width: usize, mask: u64) -> Vec<u8> {
    (0..width).map(|wire| ((mask >> wire) & 1) as u8).collect()
}

/// Exhaustively checks the zero-one principle on any comparator schedule.
///
/// # Panics
///
/// Panics if the schedule is wider than 22 wires.
pub fn schedule_sorts_exhaustive<S: ComparatorSchedule + ?Sized>(schedule: &S) -> bool {
    let width = schedule.width();
    assert!(
        width <= 22,
        "exhaustive zero-one verification supports at most 22 wires; got {width}"
    );
    let network = ComparatorNetwork::compile(schedule);
    for mask in 0..(1u64 << width) {
        let input = zero_one_input(width, mask);
        let output = network.apply(&input);
        if !is_sorted_zero_one(&output) {
            return false;
        }
    }
    true
}

/// Checks the zero-one principle on `trials` uniformly random 0/1 inputs.
///
/// A `true` answer is probabilistic evidence, not proof; a `false` answer is
/// a definite counterexample.
pub fn sorts_random_zero_one_inputs<S, R>(schedule: &S, trials: usize, rng: &mut R) -> bool
where
    S: ComparatorSchedule + ?Sized,
    R: Rng + ?Sized,
{
    let width = schedule.width();
    let network = ComparatorNetwork::compile(schedule);
    for _ in 0..trials {
        let input: Vec<u8> = (0..width).map(|_| rng.gen_range(0..=1u8)).collect();
        let output = network.apply(&input);
        if !is_sorted_zero_one(&output) {
            return false;
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::Comparator;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn sorter2() -> ComparatorNetwork {
        let mut network = ComparatorNetwork::new(2);
        network.push_stage(vec![Comparator::new(0, 1)]);
        network
    }

    fn broken3() -> ComparatorNetwork {
        // Only compares (0,1): cannot sort inputs where wire 2 holds a 0.
        let mut network = ComparatorNetwork::new(3);
        network.push_stage(vec![Comparator::new(0, 1)]);
        network
    }

    #[test]
    fn a_single_comparator_sorts_two_wires() {
        assert!(schedule_sorts_exhaustive(&sorter2()));
    }

    #[test]
    fn exhaustive_check_detects_non_sorting_networks() {
        assert!(!schedule_sorts_exhaustive(&broken3()));
    }

    #[test]
    fn random_check_detects_non_sorting_networks() {
        let mut rng = StdRng::seed_from_u64(3);
        assert!(sorts_random_zero_one_inputs(&sorter2(), 50, &mut rng));
        assert!(!sorts_random_zero_one_inputs(&broken3(), 200, &mut rng));
    }

    #[test]
    #[should_panic(expected = "at most 22 wires")]
    fn exhaustive_check_rejects_very_wide_networks() {
        let network = ComparatorNetwork::new(30);
        let _ = schedule_sorts_exhaustive(&network);
    }

    #[test]
    fn zero_one_helpers_behave() {
        assert!(is_sorted_zero_one(&[0, 0, 1, 1]));
        assert!(!is_sorted_zero_one(&[1, 0]));
        assert_eq!(zero_one_input(4, 0b1010), vec![0, 1, 0, 1]);
    }
}
