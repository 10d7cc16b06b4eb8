//! Sharded long-lived renaming: loose bounds for shard-local throughput.
//!
//! A [`ShardedRecycler`] spreads leases over `N` independent
//! [`Recycler`]s, each owning a disjoint range of `span` names: shard `i`
//! grants global names `i·span + 1 ..= (i + 1)·span`. Every process has a
//! *home shard* (its identifier modulo `N`), so under balanced load each
//! shard's admission counter, free-list words and seqlock are touched by a
//! small subset of processes — the cache-line ping-pong of one shared
//! recycler, which dominates the lease hot path, disappears. When the home
//! shard's admission bound is reached the lease *overflows*, probing the
//! remaining shards round-robin (work stealing in reverse), so capacity is
//! only exhausted when every shard is.
//!
//! # The tight-vs-loose trade
//!
//! The price is a relaxed namespace guarantee, exactly the tight-vs-loose
//! spectrum the source paper quantifies (for the one-shot problem, the §6.2
//! splitter tree [`TempName`](crate::temp_name::TempName) alone is the loose
//! end of it). A single [`Recycler`] over a strong adaptive inner object is
//! *tight*: every name is bounded by the point contention of its grant. A
//! [`ShardedRecycler`] is *loose*: within each shard the localized names
//! stay tight against that shard's contention, so with per-shard point
//! contention at most `p` the set of names in use has size at most
//! `shards × p` — but the *largest* name can be as high as
//! `(shards − 1)·span + p`, because a low-contention process may live in a
//! high shard. [`assert_loose_lease_namespace`](crate::lease::assert_loose_lease_namespace)
//! is the property checker for exactly this bound.
//!
//! With an escrow quota ([`ShardedRecycler::new_in`], the builder default)
//! each shard's recycler gets its own per-thread escrow, and the loose
//! checker applies only without one (see the [`recycler`](crate::recycler)
//! module docs).
//!
//! Choose sharding when lease/release throughput matters more than the last
//! factor of `shards` in namespace density — connection-slot pools, session
//! tables, per-core scratch indices. Stay with one tight recycler when the
//! names index a resource that must stay as dense as the contention allows.

use crate::error::RenamingError;
use crate::lease::{LongLivedRenaming, NameLease};
use crate::recycler::Recycler;
use crate::traits::Renaming;
use shmem::arena::{Arena, ArenaCell};
use shmem::process::ProcessCtx;
use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// `N` independent recyclers over disjoint name ranges, with per-process
/// home shards and overflow stealing. Implements [`LongLivedRenaming`] with
/// the documented **loose** bound: namespace size at most
/// `shards × per-shard point contention`.
///
/// # Example
///
/// ```
/// use adaptive_renaming::lease::LongLivedRenaming;
/// use adaptive_renaming::renaming_network::RenamingNetwork;
/// use adaptive_renaming::sharded::ShardedRecycler;
/// use shmem::process::{ProcessCtx, ProcessId};
/// use sortnet::batcher::odd_even_network;
/// use std::sync::Arc;
///
/// // Two shards of 8 names each, at most 2 concurrent leases per shard.
/// let sharded = Arc::new(ShardedRecycler::new(
///     (0..2)
///         .map(|_| RenamingNetwork::<_>::new(odd_even_network(8)))
///         .collect(),
///     2,
/// ));
/// let mut p0 = ProcessCtx::new(ProcessId::new(0), 1);
/// let mut p1 = ProcessCtx::new(ProcessId::new(1), 1);
///
/// // Each process leases from its home shard: names are shard-local.
/// let a = Arc::clone(&sharded).lease(&mut p0).unwrap();
/// let b = Arc::clone(&sharded).lease(&mut p1).unwrap();
/// assert_eq!(a.name(), 1, "process 0 is homed at shard 0");
/// assert_eq!(b.name(), 9, "process 1 is homed at shard 1 (names 9..=16)");
///
/// // Releases route back to the owning shard and recycle there.
/// b.release(&mut p1);
/// let c = Arc::clone(&sharded).lease(&mut p1).unwrap();
/// assert_eq!(c.name(), 9, "shard 1 recycles its own names");
/// ```
pub struct ShardedRecycler<R: Renaming> {
    shards: Box<[Recycler<R>]>,
    /// Names per shard: shard `i` owns global names `i·span+1 ..= (i+1)·span`.
    span: usize,
    per_shard_max: usize,
    /// Releases of names outside every shard's range (misuse; diagnostics),
    /// arena-resident so cross-process misuse is visible to every process.
    leaked: ArenaCell<AtomicUsize>,
}

impl<R: Renaming> ShardedRecycler<R> {
    /// Builds one shard per inner object, each allowing `per_shard_max`
    /// simultaneously live leases.
    ///
    /// # Panics
    ///
    /// Panics if `inners` is empty, if `per_shard_max` is zero or exceeds an
    /// inner object's capacity, or if the inner objects do not all yield the
    /// same per-shard name bound (the ranges could not be disjoint and
    /// uniform otherwise).
    pub fn new(inners: Vec<R>, per_shard_max: usize) -> Self {
        let arena = Arena::heap(Self::footprint(&inners, per_shard_max, 0));
        Self::new_in(inners, per_shard_max, 0, &arena)
    }

    /// Like [`ShardedRecycler::new`], but gives every shard a per-thread
    /// escrow of `escrow_quota` names per slot (`0` for none) and places
    /// every shard's free list, header counters and escrow slots in the
    /// caller's `arena` (see [`Recycler::new_in`] for what stays private).
    /// Size the arena with [`ShardedRecycler::footprint`].
    ///
    /// # Panics
    ///
    /// As [`ShardedRecycler::new`] and [`Recycler::new_in`].
    pub fn new_in(
        inners: Vec<R>,
        per_shard_max: usize,
        escrow_quota: usize,
        arena: &Arc<Arena>,
    ) -> Self {
        assert!(!inners.is_empty(), "a sharded recycler needs a shard");
        let shards: Box<[Recycler<R>]> = inners
            .into_iter()
            .map(|inner| Recycler::new_in(inner, per_shard_max, escrow_quota, arena))
            .collect();
        let span = shards[0].name_bound();
        assert!(
            shards.iter().all(|shard| shard.name_bound() == span),
            "every shard must span the same number of names"
        );
        ShardedRecycler {
            shards,
            span,
            per_shard_max,
            leaked: ArenaCell::new_in(arena, AtomicUsize::new(0)),
        }
    }

    /// The number of arena bytes the sharded recycler allocates when built
    /// with [`ShardedRecycler::new_in`]: one recycler footprint per inner
    /// object plus the shared misuse counter line.
    pub fn footprint(inners: &[R], per_shard_max: usize, escrow_quota: usize) -> usize {
        inners
            .iter()
            .map(|inner| Recycler::footprint(inner, per_shard_max, escrow_quota))
            .sum::<usize>()
            + 64
    }

    /// The number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Names per shard; shard `i` owns global names
    /// `i·span + 1 ..= (i + 1)·span`.
    pub fn span(&self) -> usize {
        self.span
    }

    /// The admission bound of each shard.
    pub fn per_shard_max(&self) -> usize {
        self.per_shard_max
    }

    /// The shards themselves, for per-shard diagnostics.
    pub fn shards(&self) -> &[Recycler<R>] {
        &self.shards
    }

    /// Names acquired fresh from the inner objects so far, summed over
    /// shards.
    pub fn fresh_names(&self) -> usize {
        self.shards.iter().map(Recycler::fresh_names).sum()
    }

    /// Leases served from the shards' free lists so far (diagnostics;
    /// momentarily stale while operations are in flight).
    pub fn recycled_names(&self) -> usize {
        self.shards.iter().map(Recycler::recycled_names).sum()
    }

    /// Names lost to recycling misuse: double releases (counted by the
    /// owning shard) plus releases outside every shard's range.
    pub fn leaked_names(&self) -> usize {
        self.leaked.get().load(Ordering::Relaxed) // lint: relaxed-ok(diagnostic counter; no ordering dependency)
            + self
                .shards
                .iter()
                .map(Recycler::leaked_names)
                .sum::<usize>()
    }

    /// The caller's home shard: its process identifier modulo the shard
    /// count.
    fn home_shard(&self, ctx: &ProcessCtx) -> usize {
        ctx.id().as_usize() % self.shards.len()
    }

    fn globalize(&self, shard: usize, local: usize) -> usize {
        shard * self.span + local
    }
}

impl<R: Renaming + 'static> LongLivedRenaming for ShardedRecycler<R> {
    fn lease(self: Arc<Self>, ctx: &mut ProcessCtx) -> Result<NameLease, RenamingError> {
        let name = self.lease_raw(ctx)?;
        Ok(NameLease::new(name, self))
    }

    fn lease_raw(&self, ctx: &mut ProcessCtx) -> Result<usize, RenamingError> {
        let count = self.shards.len();
        let home = self.home_shard(ctx);
        let mut first_error = None;
        for offset in 0..count {
            let shard = (home + offset) % count;
            match self.shards[shard].lease_raw(ctx) {
                Ok(local) if local <= self.span => return Ok(self.globalize(shard, local)),
                Ok(_) => {
                    // A misbehaving inner produced a name beyond the shard's
                    // span; globalizing it would alias the next shard's
                    // range. Contain it: count the leak (the admission slot
                    // stays burned, matching the per-shard recycler's
                    // leaked-name stance) and keep sweeping.
                    self.leaked.get().fetch_add(1, Ordering::Relaxed); // lint: relaxed-ok(diagnostic counter; no ordering dependency)
                }
                // The home shard is full: overflow to the next one.
                Err(RenamingError::CapacityExceeded { .. }) => continue,
                // Any other shard failure — e.g. a home shard wedged by a
                // crashed process (its inner fresh path poisoned, its names
                // unreleased) — must not wedge the *stealer*: remember the
                // first cause and keep sweeping, exactly as for exhaustion.
                // Returning here used to let one dead shard deny the whole
                // object while healthy shards still had capacity.
                Err(error) => {
                    first_error.get_or_insert(error);
                    continue;
                }
            }
        }
        // Every shard failed. Surface the first non-capacity cause if one
        // cut the sweep short; plain exhaustion otherwise.
        Err(first_error.unwrap_or(RenamingError::CapacityExceeded {
            capacity: count * self.per_shard_max,
        }))
    }

    /// Batch form: fills the batch shard by shard starting at the caller's
    /// home shard (see [`ShardedRecycler`]'s `lease_many_raw` for the sweep
    /// and all-or-nothing rollback policy).
    fn lease_many(
        self: Arc<Self>,
        ctx: &mut ProcessCtx,
        count: usize,
    ) -> Result<Vec<NameLease>, RenamingError> {
        let mut names = Vec::with_capacity(count);
        self.lease_many_raw(ctx, count, &mut names)?;
        Ok(names
            .into_iter()
            .map(|name| NameLease::new(name, Arc::clone(&self) as Arc<dyn LongLivedRenaming>))
            .collect())
    }

    /// Raw batch form: sweeps the shards from the caller's home shard, each
    /// contributing what its amortized admission allows. All-or-nothing: if
    /// the shards cannot jointly supply `count` leases, everything acquired
    /// is released and the cause is returned — a shard's inner fresh-path
    /// error if one cut the sweep short, [`RenamingError::CapacityExceeded`]
    /// otherwise.
    fn lease_many_raw(
        &self,
        ctx: &mut ProcessCtx,
        count: usize,
        out: &mut Vec<usize>,
    ) -> Result<(), RenamingError> {
        let shard_count = self.shards.len();
        let home = self.home_shard(ctx);
        let start = out.len();
        let mut stop = None;
        for offset in 0..shard_count {
            let granted = out.len() - start;
            if granted == count {
                break;
            }
            let shard = (home + offset) % shard_count;
            let before = out.len();
            let (_, error) = self.shards[shard].grant_many(ctx, count - granted, out);
            // Globalize the shard's contribution, containing any local name
            // beyond the span (see `lease_raw`). `swap_remove` only moves a
            // not-yet-globalized name from this same batch into the slot,
            // which the loop then re-examines.
            let mut index = before;
            while index < out.len() {
                let local = out[index];
                if local <= self.span {
                    out[index] = self.globalize(shard, local);
                    index += 1;
                } else {
                    self.leaked.get().fetch_add(1, Ordering::Relaxed); // lint: relaxed-ok(diagnostic counter; no ordering dependency)
                    out.swap_remove(index);
                }
            }
            if error.is_some() {
                stop = error;
                break;
            }
        }
        if out.len() - start == count {
            return Ok(());
        }
        let partial = out.split_off(start);
        self.release_many_raw(&partial);
        Err(stop.unwrap_or(RenamingError::CapacityExceeded {
            capacity: shard_count * self.per_shard_max,
        }))
    }

    fn release_raw(&self, name: usize) {
        if name == 0 || name > self.shards.len() * self.span {
            // Unreachable through `NameLease`; count the misuse like the
            // per-shard recyclers do for their own ranges.
            self.leaked.get().fetch_add(1, Ordering::Relaxed); // lint: relaxed-ok(diagnostic counter; no ordering dependency)
            return;
        }
        let shard = (name - 1) / self.span;
        self.shards[shard].release_raw((name - 1) % self.span + 1);
    }

    fn max_concurrent(&self) -> Option<usize> {
        Some(self.shards.len() * self.per_shard_max)
    }

    fn live_leases(&self) -> usize {
        self.shards.iter().map(Recycler::live_leases).sum()
    }
}

impl<R: Renaming> fmt::Debug for ShardedRecycler<R> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ShardedRecycler")
            .field("shards", &self.shards.len())
            .field("span", &self.span)
            .field("per_shard_max", &self.per_shard_max)
            .field("fresh_names", &self.fresh_names())
            .field("recycled_names", &self.recycled_names())
            .field("leaked_names", &self.leaked_names())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adaptive::AdaptiveRenaming;
    use crate::renaming_network::RenamingNetwork;
    use shmem::adversary::ExecConfig;
    use shmem::executor::Executor;
    use shmem::process::ProcessId;
    use sortnet::batcher::odd_even_network;

    fn networks(
        shards: usize,
        width: usize,
    ) -> Vec<RenamingNetwork<sortnet::network::ComparatorNetwork>> {
        (0..shards)
            .map(|_| RenamingNetwork::<_>::new(odd_even_network(width)))
            .collect()
    }

    fn ctx(id: usize, seed: u64) -> ProcessCtx {
        ProcessCtx::new(ProcessId::new(id), seed)
    }

    #[test]
    fn processes_lease_from_their_home_shards() {
        let sharded = Arc::new(ShardedRecycler::new(networks(4, 8), 2));
        assert_eq!(sharded.shard_count(), 4);
        assert_eq!(sharded.span(), 8);
        assert_eq!(LongLivedRenaming::max_concurrent(&*sharded), Some(8));
        for id in 0..4 {
            let mut ctx = ctx(id, 3);
            let lease = Arc::clone(&sharded).lease(&mut ctx).unwrap();
            assert_eq!(
                lease.name(),
                id * 8 + 1,
                "process {id} gets the first name of shard {id}"
            );
            lease.release(&mut ctx);
        }
        // Identifiers wrap onto the same homes.
        let mut ctx = ctx(6, 3);
        let lease = Arc::clone(&sharded).lease(&mut ctx).unwrap();
        assert_eq!(lease.name(), 2 * 8 + 1, "process 6 is homed at shard 2");
        assert_eq!(sharded.live_leases(), 1);
        drop(lease);
        assert_eq!(sharded.live_leases(), 0);
    }

    #[test]
    fn shards_recycle_their_own_names_independently() {
        let sharded = Arc::new(ShardedRecycler::new(networks(2, 8), 2));
        let mut p0 = ctx(0, 5);
        let mut p1 = ctx(1, 5);
        for _ in 0..10 {
            let a = Arc::clone(&sharded).lease(&mut p0).unwrap();
            let b = Arc::clone(&sharded).lease(&mut p1).unwrap();
            assert_eq!(a.name(), 1);
            assert_eq!(b.name(), 9);
            a.release(&mut p0);
            b.release(&mut p1);
        }
        assert_eq!(
            sharded.fresh_names(),
            2,
            "one fresh name per shard serves all churn"
        );
        assert_eq!(sharded.recycled_names(), 18);
        assert_eq!(sharded.leaked_names(), 0);
    }

    #[test]
    fn a_full_home_shard_overflows_to_the_next() {
        let sharded = Arc::new(ShardedRecycler::new(networks(2, 8), 1));
        let mut p0 = ctx(0, 1);
        let held = Arc::clone(&sharded).lease(&mut p0).unwrap();
        assert_eq!(held.name(), 1);
        // Shard 0 is at its admission bound; the same process steals from
        // shard 1.
        let stolen = Arc::clone(&sharded).lease(&mut p0).unwrap();
        assert_eq!(stolen.name(), 9, "overflow steals from the next shard");
        // Both shards full: total capacity is reported.
        assert_eq!(
            Arc::clone(&sharded).lease(&mut p0).unwrap_err(),
            RenamingError::CapacityExceeded { capacity: 2 }
        );
        drop(stolen);
        drop(held);
        assert_eq!(sharded.live_leases(), 0);
    }

    #[test]
    fn lease_many_fills_across_shards_and_is_all_or_nothing() {
        let sharded = Arc::new(ShardedRecycler::new(networks(2, 8), 2));
        let mut p0 = ctx(0, 2);
        let batch = Arc::clone(&sharded).lease_many(&mut p0, 3).unwrap();
        let mut names: Vec<usize> = batch.iter().map(NameLease::name).collect();
        names.sort_unstable();
        assert_eq!(
            names,
            vec![1, 2, 9],
            "the batch drains the home shard before overflowing"
        );
        assert_eq!(sharded.live_leases(), 3);
        // Only one slot remains in total: a batch of two must fail cleanly.
        assert_eq!(
            Arc::clone(&sharded).lease_many(&mut p0, 2).unwrap_err(),
            RenamingError::CapacityExceeded { capacity: 4 }
        );
        assert_eq!(sharded.live_leases(), 3, "failed batch fully released");
        drop(batch);
        assert_eq!(sharded.live_leases(), 0);
    }

    #[test]
    fn releases_route_back_to_the_owning_shard() {
        let sharded = Arc::new(ShardedRecycler::new(networks(2, 8), 2));
        let mut p1 = ctx(1, 4);
        let name = Arc::clone(&sharded).lease(&mut p1).unwrap().forget();
        assert_eq!(name, 9);
        assert_eq!(sharded.shards()[1].live_leases(), 1);
        sharded.release_raw(name);
        assert_eq!(sharded.shards()[1].live_leases(), 0);
        // Misuse: out-of-range and double releases are counted, not applied.
        sharded.release_raw(0);
        sharded.release_raw(17);
        sharded.release_raw(name);
        assert_eq!(sharded.leaked_names(), 3);
        assert_eq!(sharded.live_leases(), 0);
    }

    #[test]
    fn concurrent_churn_stays_within_the_loose_bound() {
        // Shrunk under miri, whose interpreter runs the multi-threaded
        // network traversals ~1000× slower than native.
        let (seeds, workers, rounds) = if cfg!(miri) { (1, 4, 2) } else { (3, 8, 6) };
        for seed in 0..seeds {
            let shards = 4usize;
            let sharded = Arc::new(ShardedRecycler::new(networks(shards, 8), 2));
            let span = sharded.span();
            let outcome = Executor::new(ExecConfig::new(seed)).run(workers, {
                let sharded = Arc::clone(&sharded);
                move |ctx| {
                    let mut names = Vec::new();
                    for _ in 0..rounds {
                        let lease = Arc::clone(&sharded).lease(ctx).unwrap();
                        names.push(lease.name());
                        lease.release(ctx);
                    }
                    names
                }
            });
            let names = outcome.flattened();
            assert_eq!(names.len(), workers * rounds, "seed {seed}");
            assert!(
                names.iter().all(|&name| name >= 1 && name <= shards * span),
                "seed {seed}: names must stay within the loose bound, got {names:?}"
            );
            assert_eq!(sharded.live_leases(), 0, "seed {seed}");
            assert_eq!(sharded.leaked_names(), 0, "seed {seed}");
        }
    }

    #[test]
    fn unbounded_inners_share_a_uniform_span() {
        let sharded =
            ShardedRecycler::new((0..2).map(|_| AdaptiveRenaming::default()).collect(), 3);
        // Unbounded inner objects get the headroom-sized per-shard span.
        assert_eq!(sharded.span(), sharded.shards()[0].name_bound());
        assert!(format!("{sharded:?}").contains("ShardedRecycler"));
    }

    #[test]
    #[should_panic(expected = "needs a shard")]
    fn zero_shards_are_rejected() {
        let _ = ShardedRecycler::new(networks(0, 8), 1);
    }
}
