//! Quickstart: eight threads with arbitrary identities agree on the names
//! 1..=8 using the paper's adaptive strong renaming algorithm, constructed
//! through the unified `Renaming::builder()` facade.
//!
//! Run with:
//!
//! ```text
//! cargo run --example quickstart
//! ```

use strong_renaming::prelude::*;

fn main() {
    // The participants carry large, scattered initial identifiers — the
    // situation renaming exists to fix.
    let initial_ids = [90_210usize, 7, 123_456_789, 31_337, 4_242, 999, 17, 2_024];
    let ids: Vec<ProcessId> = initial_ids.iter().copied().map(ProcessId::new).collect();

    // One builder configures everything: algorithm, engine, seed.
    let builder = RenamingBuilder::new().adaptive().seed(0xC0FFEE);
    let renaming = builder.build().expect("the default configuration is valid");
    let executor = Executor::new(builder.exec_config());

    let outcome = executor.run_with_ids(&ids, {
        let renaming = renaming.clone();
        move |ctx| {
            let name = renaming
                .acquire(ctx)
                .expect("adaptive renaming never fails");
            (ctx.id().as_usize(), name)
        }
    });

    println!("initial id -> new name   (register steps)");
    println!("-----------------------------------------");
    let mut rows: Vec<_> = outcome
        .iter()
        .filter_map(|(_, o)| o.result().map(|r| (*r, o.steps())))
        .collect();
    rows.sort_by_key(|((_, name), _)| *name);
    for ((initial, name), steps) in &rows {
        println!("{initial:>11} -> {name:>8}   ({:>4} steps)", steps.total());
    }

    let names: Vec<usize> = rows.iter().map(|((_, name), _)| *name).collect();
    assert_tight_namespace(&names).expect("strong adaptive renaming: names are exactly 1..=k");
    println!(
        "\nAll {} names are unique and form exactly 1..={}.",
        names.len(),
        names.len()
    );
    println!(
        "Total register steps across all processes: {}",
        outcome.total_steps().total()
    );
}
