//! Experiment E3: renaming networks over fixed sorting networks (Theorem 1,
//! Corollary 3).
//!
//! For each initial-namespace size `M`, `k = M/4` processes with scattered
//! identities rename through a renaming network built from Batcher's odd-even
//! mergesort. Reported: comparators (two-process test-and-sets) played per
//! process against the network depth, register steps per process, and the
//! namespace check. A second table repeats the measurement with hardware
//! (atomic-swap) comparators — the deterministic variant of §1/§9.
//!
//! Run with `cargo run --release -p renaming-bench --bin exp_renaming_network`.

use adaptive_renaming::renaming_network::RenamingNetwork;
use adaptive_renaming::traits::assert_tight_namespace;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use renaming_bench::{fmt1, Aggregate, Table};
use shmem::adversary::ExecConfig;
use shmem::executor::Executor;
use shmem::process::ProcessId;
use sortnet::batcher::odd_even_network;
use sortnet::schedule::ComparatorSchedule;
use std::sync::Arc;
use tas::hardware::HardwareTas;
use tas::two_process::TwoProcessTas;

fn scattered_ids(count: usize, namespace: usize, seed: u64) -> Vec<ProcessId> {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mut all: Vec<usize> = (0..namespace).collect();
    all.shuffle(&mut rng);
    all.into_iter().take(count).map(ProcessId::new).collect()
}

fn run_table<T: tas::TwoPartyTas + Default + 'static>(title: &str) -> Table {
    let mut table = Table::new(
        title,
        &[
            "M (namespace)",
            "k (participants)",
            "network depth",
            "comparators/proc (mean)",
            "comparators/proc (max)",
            "steps/proc (mean)",
            "steps/proc (max)",
            "tight namespace",
        ],
    );
    for m in [16usize, 64, 256, 1024] {
        let k = (m / 4).max(2);
        let schedule = odd_even_network(m);
        let depth = ComparatorSchedule::depth(&schedule);
        let network: Arc<RenamingNetwork<_, T>> = Arc::new(RenamingNetwork::new(schedule));
        let ids = scattered_ids(k, m, m as u64);
        let outcome = Executor::new(ExecConfig::new(m as u64)).run_with_ids(&ids, {
            let network = Arc::clone(&network);
            move |ctx| {
                network
                    .acquire_with_report(ctx)
                    .expect("ids fit the namespace")
            }
        });
        let reports = outcome.results();
        let tight = assert_tight_namespace(&reports.iter().map(|r| r.name).collect::<Vec<_>>());
        let comp = Aggregate::of(reports.iter().map(|r| r.comparators_played as u64));
        let steps = Aggregate::of_register_steps(&outcome.per_process_steps());
        table.row(vec![
            m.to_string(),
            k.to_string(),
            depth.to_string(),
            fmt1(comp.mean),
            comp.max.to_string(),
            fmt1(steps.mean),
            steps.max.to_string(),
            if tight.is_ok() {
                "yes".into()
            } else {
                "VIOLATED".into()
            },
        ]);
    }
    table
}

fn main() {
    run_table::<TwoProcessTas>(
        "E3 — renaming network over odd-even mergesort (randomized two-process TAS comparators)",
    )
    .print();
    run_table::<HardwareTas>(
        "E3/E13 — same networks with hardware (atomic swap) comparators: the deterministic variant",
    )
    .print();
}
