//! Connection-slot assignment: a server owns a fixed pool of `n` connection
//! slots and concurrent handlers must each claim a distinct slot.
//!
//! This is the classic use case for *non-adaptive strong renaming*: the pool
//! size `n` is fixed up front and every slot should be usable. The example
//! builds the paper's BitBatching algorithm (§4) and the folklore
//! linear-probing baseline through the `Renaming::builder()` facade and
//! compares how many test-and-set invocations each handler needed.
//!
//! Run with:
//!
//! ```text
//! cargo run --example connection_slots
//! ```

use strong_renaming::prelude::*;

/// Runs `handlers` concurrent acquisitions against `renaming` and reports
/// the per-handler test-and-set invocation profile from the step statistics.
fn race(label: &str, renaming: std::sync::Arc<dyn Renaming>, handlers: usize, seed: u64) -> u64 {
    let outcome = VirtualExecutor::new(ExecConfig::new(seed))
        .run(handlers, {
            let renaming = renaming.clone();
            move |ctx| renaming.acquire(ctx).expect("enough slots")
        })
        .outcome;
    assert_tight_namespace(&outcome.results()).expect("every slot is assigned exactly once");

    let per_process = outcome.per_process_steps();
    let max_tas = per_process
        .iter()
        .map(|s| s.tas_invocations)
        .max()
        .unwrap_or(0);
    let mean_tas = per_process
        .iter()
        .map(|s| s.tas_invocations as f64)
        .sum::<f64>()
        / per_process.len() as f64;
    println!("{label}:");
    println!("  every handler got a distinct slot in 1..={handlers}");
    println!("  test-and-set invocations per handler: mean {mean_tas:.1}, max {max_tas}");
    max_tas
}

fn main() {
    let slots = 64usize;
    let handlers = 64usize;
    let seed = 42;

    // --- BitBatching: O(log² n) probes per handler w.h.p. -----------------
    let bitbatching = RenamingBuilder::new()
        .bit_batching()
        .capacity(slots)
        .build()
        .expect("valid configuration");
    let max_bitbatching = race(
        &format!("BitBatching over {slots} slots, {handlers} handlers"),
        bitbatching,
        handlers,
        seed,
    );

    // --- Linear probing baseline: Θ(k) probes per handler ------------------
    let linear = RenamingBuilder::new()
        .linear_probe()
        .capacity(slots)
        .build()
        .expect("valid configuration");
    let max_linear = race("\nLinear probing baseline", linear, handlers, seed);

    println!(
        "\nBitBatching's worst handler invoked {max_bitbatching} test-and-sets; \
         linear probing's invoked {max_linear}."
    );
}
