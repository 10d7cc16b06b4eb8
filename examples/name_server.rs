//! A long-lived name server: clients churn through a bounded pool of slot
//! names, holding each only for the duration of a request.
//!
//! The paper's renaming objects are one-shot — every acquisition consumes a
//! name forever. The long-lived extension wraps a one-shot object in a
//! `Recycler`: leases are served from a lock-free free list of released
//! names, and only growth in *concurrency* (not in total traffic) consumes
//! fresh names from the underlying object. The `NameLease` guard releases
//! its name on drop, so a crashed or early-returning handler can never leak
//! a slot.
//!
//! Run with:
//!
//! ```text
//! cargo run --example name_server
//! ```

use std::sync::Arc;
use strong_renaming::prelude::*;

fn main() {
    let workers = 8usize;
    let requests_per_worker = 200usize;
    let max_concurrent = workers;

    // The compiled §5 renaming network over 64 wires, recycled for at most
    // `workers` simultaneous holders. `builder.max_concurrent(n)
    // .build_long_lived()` would produce the same object behind
    // `Arc<dyn LongLivedRenaming>`; this example layers the `Recycler`
    // explicitly because the churn diagnostics printed below
    // (`fresh_names()`, `recycled_names()`, `peak_leases()`) live on the
    // concrete type.
    let builder = RenamingBuilder::new().network().capacity(64).seed(7);
    let server: Arc<Recycler<_>> = Arc::new(Recycler::new(
        builder.build().expect("valid configuration"),
        max_concurrent,
    ));

    let outcome = Executor::new(builder.exec_config()).run(workers, {
        let server = Arc::clone(&server);
        move |ctx| {
            let mut names = Vec::with_capacity(requests_per_worker);
            for _ in 0..requests_per_worker {
                // One request: lease a slot, "serve" (a couple of local coin
                // flips), release. Dropping the lease would release too; the
                // explicit form also records the release step.
                let lease = Arc::clone(&server).lease(ctx).expect("pool not exhausted");
                names.push(lease.name());
                ctx.flip();
                lease.release(ctx);
            }
            names
        }
    });

    let served: Vec<usize> = outcome.flattened_sorted();
    let total = served.len();
    let distinct = {
        let mut unique = served.clone();
        unique.dedup();
        unique.len()
    };
    assert_eq!(total, workers * requests_per_worker);
    assert!(
        served.iter().all(|&name| name <= max_concurrent),
        "every name stays within 1..=max_concurrent under churn"
    );

    println!("{workers} workers served {total} requests through the name server.");
    println!(
        "Names used: {distinct} distinct (namespace 1..={max_concurrent}), \
         peak concurrency {}.",
        server.peak_leases()
    );
    println!(
        "Fresh names drawn from the one-shot network: {} — everything else \
         was recycled ({} leases served from the free list).",
        server.fresh_names(),
        server.recycled_names()
    );
    println!(
        "Live leases after quiescence: {}; leaked names: {}.",
        server.live_leases(),
        server.leaked_names()
    );
    assert!(server.fresh_names() <= max_concurrent);
    assert_eq!(server.live_leases(), 0);

    // --- Bursts through the builder-default object ----------------------
    // `build_long_lived()` gives the recycler a per-thread escrow (quota
    // q = 8 by default): a single release parks its name in the releasing
    // thread's own cache-line slot, where that thread's next lease finds
    // it. A burst is a loop of single leases, each served from the
    // caller's slot when it holds a name, and otherwise through admission
    // (which steals parked names before it rejects). Parked names hold
    // admission slots, and a spill in flight briefly holds up to ⌈q/2⌉
    // names of its slot, so the bound covers every worker holding a full
    // burst plus one spill each (a lease is non-blocking: an undersized
    // bound would reject leases on multi-core hosts).
    const BURST: usize = 4;
    const QUOTA: usize = 8;
    let burst_bound = workers * (BURST + QUOTA.div_ceil(2));
    let escrowed = builder
        .clone()
        .max_concurrent(burst_bound)
        .escrow_quota(QUOTA)
        .build_long_lived()
        .expect("valid configuration");

    let outcome = Executor::new(builder.exec_config()).run(workers, {
        let escrowed = Arc::clone(&escrowed);
        move |ctx| {
            let mut worst = 0usize;
            for _ in 0..requests_per_worker / BURST {
                // One burst: four slots leased one after another, served,
                // released one by one into the caller's escrow slot.
                let burst: Vec<NameLease> = (0..BURST)
                    .map(|_| {
                        Arc::clone(&escrowed)
                            .lease(ctx)
                            .expect("the bound covers every burst and spill")
                    })
                    .collect();
                ctx.flip();
                for lease in burst {
                    worst = worst.max(lease.name());
                    lease.release(ctx);
                }
            }
            worst
        }
    });
    let widest = outcome.results().into_iter().max().unwrap_or(0);
    println!(
        "Escrowed server: bursts of {BURST}, widest name granted {widest} \
         (bound {burst_bound})."
    );
    assert!(widest <= burst_bound, "names stay within max_concurrent");
    assert_eq!(escrowed.live_leases(), 0);
}
