//! Balancing networks: comparator schedules reinterpreted as balancer wiring.
//!
//! A *balancing network* has exactly the layout of a comparator network —
//! wires and stages — with every comparator replaced by a
//! [`Balancer`](crate::balancer::Balancer). A token enters on an input wire,
//! is switched up or down by each balancer it meets, and exits on an output
//! wire. The repo already
//! compiles comparator layouts for the renaming networks, so a balancing
//! network is built by *reinterpreting* any
//! [`ComparatorSchedule`](sortnet::schedule::ComparatorSchedule): the
//! schedule answers "which balancer touches my wire in the next stage?" and
//! the balancer decides which of its two wires the token continues on.
//!
//! The engine is
//! [`CompiledBalancingNetwork`](crate::compiled::CompiledBalancingNetwork),
//! which implements [`BalancingTopology`], the traversal interface the
//! [`NetworkCounter`](crate::counter::NetworkCounter) is generic over. The
//! sequential reference model the tests check it against is
//! [`simulate_tokens`](crate::verify::simulate_tokens).

use crate::balancer::BalancerSlot;
use sortnet::network::Comparator;

/// The wire a token continues on after a balancer routes it.
#[inline]
pub(crate) fn exit_wire(comparator: Comparator, slot: BalancerSlot) -> usize {
    match slot {
        BalancerSlot::Top => comparator.top,
        BalancerSlot::Bottom => comparator.bottom,
    }
}

/// Traversal interface of a balancing network: tokens in on a wire, tokens
/// out on a wire.
pub trait BalancingTopology: Send + Sync {
    /// Number of wires.
    fn width(&self) -> usize;

    /// Number of stages.
    fn depth(&self) -> usize;

    /// Total number of balancers.
    fn size(&self) -> usize;

    /// Routes one token from input `wire` to the output wire it exits on,
    /// toggling every balancer it meets (one
    /// [`StepKind::Balancer`](shmem::steps::StepKind) step each).
    ///
    /// # Panics
    ///
    /// Panics if `wire >= self.width()`.
    fn traverse(&self, ctx: &mut shmem::process::ProcessCtx, wire: usize) -> usize;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compiled::CompiledBalancingNetwork;
    use crate::family::CountingFamily;
    use shmem::process::{ProcessCtx, ProcessId};

    fn ctx() -> ProcessCtx {
        ProcessCtx::new(ProcessId::new(0), 5)
    }

    fn bitonic(width: usize) -> CompiledBalancingNetwork {
        CompiledBalancingNetwork::compile(&*CountingFamily::Bitonic.schedule(width))
    }

    #[test]
    fn dimensions_mirror_the_schedule() {
        let schedule = CountingFamily::Periodic.schedule(8);
        let network = CompiledBalancingNetwork::compile(&*schedule);
        assert_eq!(network.width(), 8);
        assert_eq!(network.depth(), schedule.depth());
        assert_eq!(
            network.size(),
            (0..schedule.depth())
                .map(|s| schedule.stage_comparators(s).len())
                .sum::<usize>()
        );
    }

    #[test]
    fn sequential_tokens_fill_output_wires_in_order() {
        for family in CountingFamily::all() {
            for width in [2usize, 4, 8] {
                let network = CompiledBalancingNetwork::compile(&*family.schedule(width));
                let mut ctx = ctx();
                for round in 0..3 {
                    for expected in 0..width {
                        // All tokens enter on the same wire; the step
                        // property forces round-robin exits.
                        let exit = network.traverse(&mut ctx, 0);
                        assert_eq!(exit, expected, "{family} width {width} round {round}");
                    }
                }
            }
        }
    }

    #[test]
    fn traversal_charges_one_toggle_per_met_balancer() {
        let network = bitonic(4);
        let mut ctx = ctx();
        network.traverse(&mut ctx, 0);
        // Bitonic width 4 touches every wire in every stage: depth toggles.
        assert_eq!(ctx.stats().balancer_toggles, network.depth() as u64);
        assert_eq!(ctx.stats().total(), 0);
    }

    #[test]
    fn balancer_at_exposes_the_wiring() {
        let network = bitonic(4);
        let mut ctx = ctx();
        network.traverse(&mut ctx, 0);
        let (_, slot) = network
            .schedule()
            .pair_at(0, 0)
            .expect("wire 0 is busy in stage 0");
        assert_eq!(network.balancer(slot).tokens(), 1);
    }

    #[test]
    #[should_panic(expected = "outside the network")]
    fn out_of_range_entry_wires_are_rejected() {
        bitonic(4).traverse(&mut ctx(), 4);
    }
}
