//! Property tests of the compiled network layout: lowering any schedule into
//! a `ComparatorNetwork`'s flat arrays must change nothing observable. For
//! every materializing constructor, the analytic odd-even schedule and the
//! `Arc<dyn ComparatorSchedule>` a family hands out, across randomized
//! widths, the compiled network must agree with its source on every
//! `(stage, wire)` query and on the output of a stage-by-stage application
//! of the source.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sortnet::batcher::{odd_even_network, OddEvenSchedule};
use sortnet::bitonic::bitonic_network;
use sortnet::family::{NetworkFamily, SortingFamily};
use sortnet::network::ComparatorNetwork;
use sortnet::periodic::periodic_network;
use sortnet::schedule::ComparatorSchedule;
use sortnet::transposition::transposition_network;

fn network_for(family: u8, width: usize) -> (ComparatorNetwork, &'static str) {
    match family % 4 {
        0 => (odd_even_network(width), "odd-even"),
        1 => (bitonic_network(width), "bitonic"),
        2 => (periodic_network(width), "periodic"),
        _ => (transposition_network(width), "transposition"),
    }
}

/// Every `(stage, wire)` query of the compiled network must match the
/// source, including out-of-range probes.
fn queries_agree<S: ComparatorSchedule + ?Sized>(
    compiled: &ComparatorNetwork,
    source: &S,
) -> Result<(), proptest::test_runner::TestCaseError> {
    prop_assert_eq!(compiled.width(), source.width());
    prop_assert_eq!(compiled.depth(), source.depth());
    for stage in 0..source.depth() {
        prop_assert_eq!(
            compiled.stage(stage).to_vec(),
            source.stage_comparators(stage)
        );
        for wire in 0..source.width() {
            prop_assert_eq!(
                compiled.comparator_at(stage, wire),
                source.comparator_at(stage, wire),
                "stage {}, wire {}",
                stage,
                wire
            );
        }
    }
    prop_assert_eq!(compiled.comparator_at(source.depth(), 0), None);
    prop_assert_eq!(compiled.comparator_at(0, source.width()), None);
    Ok(())
}

/// The reference application: the source's stages in order, each stage's
/// comparators as the source lists them.
fn apply_by_stages<S: ComparatorSchedule + ?Sized>(source: &S, input: &[u32]) -> Vec<u32> {
    let mut values = input.to_vec();
    for stage in 0..source.depth() {
        for comparator in source.stage_comparators(stage) {
            if values[comparator.top] > values[comparator.bottom] {
                values.swap(comparator.top, comparator.bottom);
            }
        }
    }
    values
}

fn random_input(width: usize, seed: u64) -> Vec<u32> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..width).map(|_| rng.gen_range(0..1000)).collect()
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 24,
        .. ProptestConfig::default()
    })]

    /// Compiling a materialized network — of any of the four families —
    /// preserves every comparator query and every application output.
    #[test]
    fn compiled_network_agrees_with_its_source(
        width in 2usize..40,
        family in 0u8..4,
        seed in 0u64..1_000_000,
    ) {
        let (network, label) = network_for(family, width);
        let compiled = ComparatorNetwork::compile(&network);
        prop_assert_eq!(compiled.size(), network.size(), "{}", label);
        queries_agree(&compiled, &network)?;

        let input = random_input(width, seed);
        let mut sorted = input.clone();
        sorted.sort_unstable();
        prop_assert_eq!(compiled.apply(&input), apply_by_stages(&network, &input), "{}", label);
        prop_assert_eq!(compiled.apply(&input), sorted, "{}: must still sort", label);
    }

    /// The analytic odd-even schedule (no materialization involved) compiles
    /// to the same answers as well.
    #[test]
    fn compiled_analytic_schedule_agrees_with_its_source(
        width in 2usize..40,
        seed in 0u64..1_000_000,
    ) {
        let schedule = OddEvenSchedule::new(width);
        let compiled = ComparatorNetwork::compile(&schedule);
        queries_agree(&compiled, &schedule)?;

        let input = random_input(width, seed);
        prop_assert_eq!(compiled.apply(&input), apply_by_stages(&schedule, &input));
    }

    /// A family's shared `Arc<dyn ComparatorSchedule>` compiles through the
    /// trait object to the same answers.
    #[test]
    fn compiled_family_schedule_agrees_with_its_source(
        width in 2usize..40,
        family in 0usize..4,
        seed in 0u64..1_000_000,
    ) {
        let family = NetworkFamily::all()[family];
        let schedule = family.schedule(width);
        let compiled = ComparatorNetwork::compile(&*schedule);
        queries_agree(&compiled, &*schedule)?;

        let input = random_input(width, seed);
        prop_assert_eq!(compiled.apply(&input), apply_by_stages(&*schedule, &input), "{}", family);
    }
}
