//! The compiled balancing-network fast path.
//!
//! [`CompiledBalancingNetwork`] compiles its schedule into the renaming
//! engine's [`ComparatorNetwork`] layout: the flat `depth × width` wire map
//! answers "which balancer touches my wire?" with one array load, and the
//! dense stage-major comparator index doubles as the index into a flat slab
//! of [`Balancer`]s — exactly the layout the lock-free comparator slab uses
//! for test-and-sets, minus the locks it never needed. A token's traversal
//! is `depth` iterations of load-wire-map → fetch-add → pick-wire, with no
//! hashing and no pointer chasing.

use crate::balancer::Balancer;
use crate::network::{exit_wire, BalancingTopology};
use shmem::arena::Arena;
use sortnet::network::ComparatorNetwork;
use sortnet::schedule::ComparatorSchedule;
use std::fmt;
use std::sync::Arc;

/// A balancing network lowered onto [`ComparatorNetwork`]'s flat arrays.
///
/// # Example
///
/// ```
/// use cnet::compiled::CompiledBalancingNetwork;
/// use cnet::family::CountingFamily;
/// use cnet::network::BalancingTopology;
/// use shmem::process::{ProcessCtx, ProcessId};
///
/// let network = CompiledBalancingNetwork::compile(&*CountingFamily::Bitonic.schedule(8));
/// let mut ctx = ProcessCtx::new(ProcessId::new(0), 1);
/// let exits: Vec<usize> = (0..8).map(|_| network.traverse(&mut ctx, 0)).collect();
/// assert_eq!(exits, vec![0, 1, 2, 3, 4, 5, 6, 7]);
/// ```
pub struct CompiledBalancingNetwork {
    network: ComparatorNetwork,
    /// One balancer per comparator, indexed by the network's dense slot.
    balancers: Vec<Balancer>,
}

impl CompiledBalancingNetwork {
    /// Compiles any comparator schedule and attaches one balancer per
    /// comparator slot.
    pub fn compile<S: ComparatorSchedule + ?Sized>(schedule: &S) -> Self {
        Self::with_balancers(ComparatorNetwork::compile(schedule), Balancer::new)
    }

    /// Like [`CompiledBalancingNetwork::compile`], but places every
    /// balancer's toggle word in `arena` — the cross-process constructor.
    /// The handle structs (wire map, slab of [`Balancer`] handles) stay
    /// process-local and are inherited by value across `fork`; only the
    /// toggle words they point at are shared. Allocates
    /// [`CompiledBalancingNetwork::footprint`] arena bytes.
    pub fn compile_in<S: ComparatorSchedule + ?Sized>(schedule: &S, arena: &Arc<Arena>) -> Self {
        Self::with_balancers(ComparatorNetwork::compile(schedule), || {
            Balancer::new_in(arena)
        })
    }

    /// Attaches one balancer per comparator slot of `network`, in dense
    /// order.
    fn with_balancers(network: ComparatorNetwork, balancer: impl FnMut() -> Balancer) -> Self {
        let balancers = std::iter::repeat_with(balancer)
            .take(network.size())
            .collect();
        CompiledBalancingNetwork { network, balancers }
    }

    /// The number of arena bytes [`CompiledBalancingNetwork::compile_in`]
    /// allocates for a schedule of `size` comparators: one 64-byte line per
    /// balancer toggle word.
    pub fn footprint(size: usize) -> usize {
        size * 64
    }

    /// The compiled network backing the wiring.
    pub fn schedule(&self) -> &ComparatorNetwork {
        &self.network
    }

    /// The balancer at the given dense slot (harness/test inspection).
    ///
    /// # Panics
    ///
    /// Panics if `slot >= self.size()`.
    pub fn balancer(&self, slot: usize) -> &Balancer {
        &self.balancers[slot]
    }

    /// Total tokens that have passed each balancer, in dense order
    /// (harness/test inspection; meaningful at quiescent points).
    pub fn balancer_tokens(&self) -> Vec<u64> {
        self.balancers.iter().map(Balancer::tokens).collect()
    }
}

impl BalancingTopology for CompiledBalancingNetwork {
    fn width(&self) -> usize {
        self.network.width()
    }

    fn depth(&self) -> usize {
        self.network.depth()
    }

    fn size(&self) -> usize {
        self.balancers.len()
    }

    fn traverse(&self, ctx: &mut shmem::process::ProcessCtx, wire: usize) -> usize {
        assert!(
            wire < self.width(),
            "entry wire {wire} is outside the network's {} wires",
            self.width()
        );
        let mut wire = wire;
        for stage in 0..self.network.depth() {
            if let Some((comparator, slot)) = self.network.pair_at(stage, wire) {
                wire = exit_wire(comparator, self.balancers[slot].toggle(ctx));
            }
        }
        wire
    }
}

impl fmt::Debug for CompiledBalancingNetwork {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CompiledBalancingNetwork")
            .field("width", &self.width())
            .field("depth", &self.depth())
            .field("size", &self.size())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::family::CountingFamily;
    use crate::verify::simulate_tokens;
    use shmem::process::{ProcessCtx, ProcessId};

    #[test]
    fn compiled_network_routes_like_the_sequential_token_model() {
        for family in CountingFamily::all() {
            for width in [2usize, 4, 8, 16] {
                let schedule = family.schedule(width);
                let compiled = CompiledBalancingNetwork::compile(&*schedule);
                assert_eq!(compiled.width(), schedule.width());
                assert_eq!(compiled.depth(), schedule.depth());
                let mut ctx = ProcessCtx::new(ProcessId::new(0), 9);
                // Each token's exit wire is the one output count the pure
                // model gains when that token is appended to the prefix.
                let entries: Vec<usize> = (0..4 * width).map(|token| token % width).collect();
                let mut before = vec![0u64; width];
                for (token, &wire) in entries.iter().enumerate() {
                    let after = simulate_tokens(&*schedule, &entries[..=token]);
                    let expected = (0..width)
                        .find(|&exit| after[exit] != before[exit])
                        .expect("every token exits somewhere");
                    assert_eq!(
                        compiled.traverse(&mut ctx, wire),
                        expected,
                        "{family} width {width} token {token}"
                    );
                    before = after;
                }
                assert_eq!(
                    ctx.stats().balancer_toggles,
                    compiled.balancer_tokens().iter().sum::<u64>(),
                    "one step per balancer toggle"
                );
            }
        }
    }

    #[test]
    fn balancer_tokens_are_exposed_in_dense_order() {
        let compiled = CompiledBalancingNetwork::compile(&*CountingFamily::Bitonic.schedule(4));
        let mut ctx = ProcessCtx::new(ProcessId::new(0), 2);
        compiled.traverse(&mut ctx, 0);
        let tokens = compiled.balancer_tokens();
        assert_eq!(tokens.len(), compiled.size());
        // One token traversed depth balancers (bitonic-4 is fully busy).
        assert_eq!(
            tokens.iter().sum::<u64>(),
            compiled.depth() as u64,
            "one toggle per stage"
        );
        assert_eq!(compiled.balancer(0).tokens(), tokens[0]);
        assert!(format!("{compiled:?}").contains("CompiledBalancingNetwork"));
    }

    #[test]
    fn arena_backed_network_routes_identically_to_the_private_one() {
        use shmem::arena::Arena;

        let schedule = CountingFamily::Bitonic.schedule(8);
        let arena = Arena::heap(CompiledBalancingNetwork::footprint(
            ComparatorNetwork::compile(&*schedule).size(),
        ));
        let private = CompiledBalancingNetwork::compile(&*schedule);
        let shared = CompiledBalancingNetwork::compile_in(&*schedule, &arena);
        assert_eq!(
            arena.used(),
            CompiledBalancingNetwork::footprint(shared.size())
        );
        let mut a = ProcessCtx::new(ProcessId::new(0), 5);
        let mut b = ProcessCtx::new(ProcessId::new(0), 5);
        for token in 0..32 {
            let wire = token % 8;
            assert_eq!(
                private.traverse(&mut a, wire),
                shared.traverse(&mut b, wire),
                "token {token}"
            );
        }
        assert_eq!(private.balancer_tokens(), shared.balancer_tokens());
    }

    #[test]
    #[should_panic(expected = "outside the network")]
    fn out_of_range_entry_wires_are_rejected() {
        let compiled = CompiledBalancingNetwork::compile(&*CountingFamily::Bitonic.schedule(4));
        let mut ctx = ProcessCtx::new(ProcessId::new(0), 0);
        compiled.traverse(&mut ctx, 9);
    }
}
