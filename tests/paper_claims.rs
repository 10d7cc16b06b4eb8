//! The paper's quantitative claims as exact, host-independent gates.
//!
//! Every number asserted here is a §2 step count (register steps,
//! test-and-set probes or comparators played) from a seeded
//! [`VirtualExecutor`] run, a single [`ProcessCtx`], or a purely structural
//! computation. None depends on the host's scheduling or speed, so an
//! algorithmic step regression fails this file exactly, where a timing bound
//! could only catch it statistically.
//!
//! Asymptotic claims carry a constant `c` that was fitted once from the seeds
//! below and pinned with headroom; the comment beside each constant records
//! the largest measured ratio. Every concurrent run also checks its
//! correctness condition (a tight namespace, exact values, one winner).
//!
//! Each checked value prints one line,
//! `claim <id> k=<k> seed=<seed> measured=<value> <op> allowed=<bound>`, so
//!
//! ```text
//! cargo test --test paper_claims -- --nocapture
//! ```
//!
//! regenerates the paper's step-count tables, and the sorted `claim` lines of
//! two runs are byte-identical on any host.

use adaptive_renaming::adaptive::{AdaptiveRenaming, AdaptiveReport};
use adaptive_renaming::bit_batching::{BitBatchingRenaming, BitBatchingReport};
use adaptive_renaming::counter::{Counter, MonotoneCounter};
use adaptive_renaming::fetch_increment::{BoundedFetchIncrement, FetchIncrementSpec};
use adaptive_renaming::linear_probe::LinearProbeRenaming;
use adaptive_renaming::renaming_network::{RenamingNetwork, TraversalReport};
use adaptive_renaming::traits::assert_tight_namespace;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use shmem::consistency::check_linearizable;
use shmem::history::Recorder;
use shmem::process::{ProcessCtx, ProcessId};
use shmem::vexec::VirtualExecutor;
use sortnet::adaptive::{level_for_port, AdaptiveNetwork};
use sortnet::batcher::OddEvenSchedule;
use sortnet::family::NetworkFamily;
use sortnet::network::ComparatorNetwork;
use sortnet::schedule::ComparatorSchedule;
use std::sync::OnceLock;
use tas::hardware::HardwareTas;
use tas::ratrace::RatRaceTas;
use tas::two_process::TwoProcessTas;
use tas::{Side, TestAndSet, TwoPartyTas};

/// Contention levels of the concurrent renaming claims. A debug-build
/// `vexec` run costs about 2 s at k = 128 and four times that at k = 256.
const KS: [usize; 7] = [2, 4, 8, 16, 32, 64, 128];

/// Schedule seeds of the concurrent claims at contention `k`: three up to
/// k = 16 and one above, which keeps this file within a few seconds.
fn seeds(k: usize) -> std::ops::Range<u64> {
    if k <= 16 {
        0..3
    } else {
        0..1
    }
}

fn log2(value: usize) -> f64 {
    (value.max(1) as f64).log2()
}

/// Prints the line of one (claim, k, seed) and fails with it unless
/// `measured <op> allowed` holds; `op` is one of `<=`, `<`, `>=`, `==`.
fn claim(id: &str, k: usize, seed: Option<u64>, measured: f64, op: &str, allowed: f64) {
    let seed = seed.map_or_else(|| "-".to_string(), |s| s.to_string());
    let line =
        format!("claim {id} k={k} seed={seed} measured={measured:.2} {op} allowed={allowed:.2}");
    println!("{line}");
    let holds = match op {
        "<=" => measured <= allowed,
        "<" => measured < allowed,
        ">=" => measured >= allowed,
        "==" => measured == allowed,
        _ => panic!("unknown comparison {op}"),
    };
    assert!(holds, "claim violated: {line}");
}

/// One seeded concurrent run: per-process register steps and results.
struct Run<R> {
    k: usize,
    seed: u64,
    steps: Vec<u64>,
    reports: Vec<R>,
}

impl<R> Run<R> {
    fn max_steps(&self) -> f64 {
        self.steps.iter().copied().max().unwrap_or(0) as f64
    }

    fn mean_steps(&self) -> f64 {
        self.steps.iter().sum::<u64>() as f64 / self.steps.len() as f64
    }

    fn max_of(&self, f: impl Fn(&R) -> usize) -> f64 {
        self.reports.iter().map(f).max().unwrap_or(0) as f64
    }
}

/// Runs one process per id under the seeded virtual executor; every process
/// must finish within the step budget.
fn run_seeded<R, F>(seed: u64, ids: &[ProcessId], f: F) -> Run<R>
where
    R: Send + Clone,
    F: Fn(&mut ProcessCtx) -> R + Send + Sync,
{
    let k = ids.len();
    let run = VirtualExecutor::with_seed(seed).run_with_ids(ids, f);
    assert!(!run.trace.truncated, "k={k} seed={seed}: step budget hit");
    assert_eq!(run.outcome.crashed_count(), 0, "k={k} seed={seed}");
    Run {
        k,
        seed,
        steps: run
            .outcome
            .per_process_steps()
            .iter()
            .map(|s| s.total())
            .collect(),
        reports: run.outcome.results(),
    }
}

/// One run per (k, seed), each on a fresh object from `build(k)`; every run
/// must hand out exactly the names `1..=k`.
fn renaming_runs<O, R>(
    ks: &[usize],
    ids: impl Fn(usize, u64) -> Vec<ProcessId>,
    build: impl Fn(usize) -> O,
    acquire: impl Fn(&O, &mut ProcessCtx) -> R + Sync,
    name: impl Fn(&R) -> usize,
) -> Vec<Run<R>>
where
    O: Sync,
    R: Send + Clone,
{
    let mut runs = Vec::new();
    for &k in ks {
        for seed in seeds(k) {
            let object = build(k);
            let run = run_seeded(seed, &ids(k, seed), |ctx| acquire(&object, ctx));
            let names: Vec<usize> = run.reports.iter().map(&name).collect();
            assert_tight_namespace(&names)
                .unwrap_or_else(|e| panic!("k={k} seed={seed}: namespace not tight: {e}"));
            runs.push(run);
        }
    }
    runs
}

fn consecutive_ids(k: usize, _seed: u64) -> Vec<ProcessId> {
    (0..k).map(ProcessId::new).collect()
}

/// `AdaptiveRenaming::default()` with scattered initial identifiers: shared
/// by the Theorem 3, Theorem 5 and baseline claims.
fn adaptive_runs() -> &'static [Run<AdaptiveReport>] {
    static RUNS: OnceLock<Vec<Run<AdaptiveReport>>> = OnceLock::new();
    RUNS.get_or_init(|| {
        renaming_runs(
            &KS,
            |k, _| (0..k).map(|i| ProcessId::new(i * 1000 + 17)).collect(),
            |_| AdaptiveRenaming::default(),
            |renaming, ctx| renaming.acquire_with_report(ctx).expect("never fails"),
            |report| report.name,
        )
    })
}

/// BitBatching over exactly `n = k` names under full load: shared by the
/// Lemma 1 and Theorem 5 claims.
fn bit_batching_runs() -> &'static [Run<BitBatchingReport>] {
    static RUNS: OnceLock<Vec<Run<BitBatchingReport>>> = OnceLock::new();
    RUNS.get_or_init(|| {
        renaming_runs(
            &KS,
            consecutive_ids,
            |n| BitBatchingRenaming::with_factory(n, RatRaceTas::new),
            |renaming, ctx| renaming.acquire_with_report(ctx).expect("n names fit"),
            |report| report.name,
        )
    })
}

/// Linear probing over exactly `k` RatRace slots, the §1 baseline, stops at
/// k = 64: one debug-build run at k = 128 takes about 6 s.
const LINEAR_PROBE_KS: [usize; 6] = [2, 4, 8, 16, 32, 64];

/// Linear-probing runs, reporting `(name, probes)`: shared by the Theorem 5
/// and baseline claims.
fn linear_probe_runs() -> &'static [Run<(usize, usize)>] {
    static RUNS: OnceLock<Vec<Run<(usize, usize)>>> = OnceLock::new();
    RUNS.get_or_init(|| {
        renaming_runs(
            &LINEAR_PROBE_KS,
            consecutive_ids,
            |k| LinearProbeRenaming::with_slots((0..k).map(|_| RatRaceTas::new()).collect()),
            |renaming, ctx| renaming.acquire_with_probes(ctx).expect("k slots fit"),
            |&(name, _)| name,
        )
    })
}

/// Participants of the renaming-network runs: `k = M/4` processes over an
/// odd-even network of width `M` ∈ {16, 64, 256}.
const NETWORK_KS: [usize; 3] = [4, 16, 64];

/// `k` ids scattered over the network's `4k` input ports by a seeded shuffle.
fn network_runs<T: TwoPartyTas + Default>() -> Vec<Run<TraversalReport>> {
    renaming_runs(
        &NETWORK_KS,
        |k, seed| {
            let mut ports: Vec<usize> = (0..4 * k).collect();
            ports.shuffle(&mut rand::rngs::StdRng::seed_from_u64(seed));
            ports.into_iter().take(k).map(ProcessId::new).collect()
        },
        |k| RenamingNetwork::<_, T>::new(OddEvenSchedule::new(4 * k)),
        |network, ctx| network.acquire_with_report(ctx).expect("ids fit"),
        |report| report.name,
    )
}

/// Randomized-comparator renaming networks: shared by the Theorem 1 and
/// Theorem 5 claims.
fn two_process_network_runs() -> &'static [Run<TraversalReport>] {
    static RUNS: OnceLock<Vec<Run<TraversalReport>>> = OnceLock::new();
    RUNS.get_or_init(network_runs::<TwoProcessTas>)
}

/// Theorem 3: max register steps per acquire ≤ `c·(1 + log₂k)²` (the
/// Batcher base costs `log²k`). Measured maximum ratio: 15.44 (k = 16,
/// seed 1).
const THM3_STEPS_C: f64 = 20.0;

/// §6.2: the largest temporary name ≤ `c·k²`. Measured maximum ratio: 1.99
/// (k = 16, seed 1).
const THM3_TEMP_NAME_C: f64 = 2.5;

/// §6.2: splitter depth ≤ `c·log₂k + 1`, tighter than the paper's
/// `3·log₂k` w.h.p. bound so that a doubled descent fails. Measured maximum
/// of `(depth − 1) / log₂k`: 1.75 (k = 16, seed 1).
const THM3_SPLITTER_C: f64 = 2.0;

#[test]
fn thm3_adaptive_renaming_costs_polylog_k_steps() {
    for run in adaptive_runs() {
        let (k, seed) = (run.k, Some(run.seed));
        let steps_bound = THM3_STEPS_C * (1.0 + log2(k)).powi(2);
        claim(
            "thm3.max_steps",
            k,
            seed,
            run.max_steps(),
            "<=",
            steps_bound,
        );
        let temp = run.max_of(|r| r.temp_name);
        let temp_bound = THM3_TEMP_NAME_C * (k * k) as f64;
        claim("thm3.max_temp_name", k, seed, temp, "<=", temp_bound);
        let depth = run.max_of(|r| r.splitter_depth);
        let depth_bound = THM3_SPLITTER_C * log2(k) + 1.0;
        claim("thm3.max_splitter_depth", k, seed, depth, "<=", depth_bound);
    }
}

/// Lemma 1 / Corollary 2: Σ probes ≤ `c·n·log₂n`, counting the top-level
/// test-and-set probes (not the RatRace invocations nested inside them).
/// Measured maximum ratio: 2.94 (n = 128, seed 0).
const LEMMA1_TOTAL_C: f64 = 3.5;

/// Lemma 1 is asserted from this size on; smaller `n` fit in one batch.
const LEMMA1_MIN_N: usize = 16;

#[test]
fn lemma1_bit_batching_probes_are_polylog_each_and_n_log_n_in_total() {
    for run in bit_batching_runs().iter().filter(|r| r.k >= LEMMA1_MIN_N) {
        let (n, seed) = (run.k, Some(run.seed));
        let max_probes = run.max_of(|r| r.probes);
        let per_process_bound = 3.0 * log2(n) * log2(n);
        claim(
            "lemma1.max_probes",
            n,
            seed,
            max_probes,
            "<=",
            per_process_bound,
        );
        let total = run.reports.iter().map(|r| r.probes).sum::<usize>() as f64;
        let total_bound = LEMMA1_TOTAL_C * n as f64 * log2(n);
        claim("lemma1.total_probes", n, seed, total, "<=", total_bound);
        let stage_two = run.reports.iter().filter(|r| r.entered_second_stage);
        claim(
            "lemma1.stage_two",
            n,
            seed,
            stage_two.count() as f64,
            "==",
            0.0,
        );
    }
}

#[test]
fn thm1_renaming_network_comparators_stay_within_the_depth() {
    let hardware = network_runs::<HardwareTas>();
    for (kind, runs) in [
        ("two_process", two_process_network_runs()),
        ("hardware", &hardware[..]),
    ] {
        for run in runs {
            let depth = OddEvenSchedule::new(4 * run.k).depth() as f64;
            let played = run.max_of(|r| r.comparators_played);
            let id = format!("thm1.max_comparators.{kind}");
            claim(&id, run.k, Some(run.seed), played, "<=", depth);
        }
    }
}

#[test]
fn thm2_adaptive_network_traversal_stays_within_the_per_wire_bound() {
    let adaptive = AdaptiveNetwork::new(NetworkFamily::OddEven, 3);
    let network = adaptive.materialize();
    let total = adaptive.total_depth() as f64;
    for port in [1usize, 2, 4, 8, 16, 32, 64, 128, 200] {
        let mut input = vec![1u8; network.width()];
        input[port] = 0;
        let entry = network.trace(&input)[port];
        assert_eq!(entry.output_wire, 0, "the unique zero leaves on wire 0");
        let bound = adaptive.traversal_depth_bound(port) as f64;
        let traversed = entry.comparators_traversed as f64;
        claim(
            "thm2.comparators_traversed",
            port,
            None,
            traversed,
            "<=",
            bound,
        );
        // A port below the top level never enters the top level's sections;
        // on the top level the bound is the whole network.
        let op = if level_for_port(port) < adaptive.max_level() {
            "<"
        } else {
            "<="
        };
        claim("thm2.per_wire_bound", port, None, bound, op, total);
        let exact = exact_max_traversal(&network, port) as f64;
        claim(
            "thm2.traversed_within_exact_max",
            port,
            None,
            traversed,
            "<=",
            exact,
        );
    }
    // The tight half of the gate: no path from any port meets more
    // comparators than the per-wire bound allows.
    for port in 0..network.width() {
        let exact = exact_max_traversal(&network, port) as f64;
        let bound = adaptive.traversal_depth_bound(port) as f64;
        claim(
            "thm2.exact_max_within_bound",
            port,
            None,
            exact,
            "<=",
            bound,
        );
    }
}

/// The most comparators a value entering on `port` can meet while it stays
/// on the lowest `port + 1` wires, whatever the input — the paths Theorem 2
/// bounds for values that enter on `port` and leave at or below it. A
/// max-plus pass over the stages: a comparator inside that range gives both
/// its wires the longer of their two paths plus one, since the value may
/// leave on either; one that straddles its edge adds one to the wire
/// inside, where the value must stay.
fn exact_max_traversal(network: &ComparatorNetwork, port: usize) -> usize {
    let mut longest: Vec<Option<usize>> = vec![None; port + 1];
    longest[port] = Some(0);
    for stage in network.stages() {
        for comparator in stage.iter().filter(|c| c.top <= port) {
            let bottom = longest.get(comparator.bottom).copied().flatten();
            let met = longest[comparator.top].max(bottom).map(|n| n + 1);
            longest[comparator.top] = met;
            if let Some(bottom) = longest.get_mut(comparator.bottom) {
                *bottom = met;
            }
        }
    }
    longest.into_iter().flatten().max().unwrap_or(0)
}

#[test]
fn thm5_every_algorithm_pays_at_least_log_k_steps() {
    fn check<R>(algorithm: &str, runs: &[Run<R>]) {
        for run in runs {
            let id = format!("thm5.mean_steps.{algorithm}");
            claim(
                &id,
                run.k,
                Some(run.seed),
                run.mean_steps(),
                ">=",
                log2(run.k),
            );
        }
    }
    check("adaptive", adaptive_runs());
    check("bit_batching", bit_batching_runs());
    check("linear_probe", linear_probe_runs());
    check("renaming_network", two_process_network_runs());
}

/// The §1 baseline comparison is asserted from this contention level on;
/// at k = 8 the two algorithms cost about the same.
const BASELINE_MIN_K: usize = 16;

#[test]
fn baseline_adaptive_renaming_beats_linear_probing_in_register_steps() {
    // The two run sets are independent: build them side by side.
    let (adaptive, linear) = std::thread::scope(|scope| {
        let adaptive = scope.spawn(adaptive_runs);
        (adaptive.join().expect("adaptive runs"), linear_probe_runs())
    });
    for (adaptive, linear) in adaptive.iter().zip(linear) {
        assert_eq!((adaptive.k, adaptive.seed), (linear.k, linear.seed));
        let (k, seed) = (linear.k, Some(linear.seed));
        // Linear probing's unluckiest process probes every one of the k slots.
        let probes = linear.max_of(|&(_, probes)| probes);
        claim(
            "baseline.linear_max_probes",
            k,
            seed,
            probes,
            "==",
            k as f64,
        );
        if k >= BASELINE_MIN_K {
            let (ours, theirs) = (adaptive.max_steps(), linear.max_steps());
            claim("baseline.adaptive_max_steps", k, seed, ours, "<", theirs);
        }
    }
}

/// Lemma 4: steps per increment ≤ `c·log²v`. The Batcher base costs a log
/// factor over the paper's AKS-based `O(log v)`. Measured maximum ratio:
/// 10.85 (v = 512, seed 0).
const LEMMA4_INCREMENT_C: f64 = 13.0;

/// Lemma 4: a read ≤ `c·log₂v` steps. A read measures `2·log₂v + 2`, so the
/// maximum ratio is 2.67 (v = 8).
const LEMMA4_READ_C: f64 = 3.0;

/// Lemma 4: the max-register write of an increment ≤ `c·log₂v` steps. The
/// write of the v-th name measures `2·log₂v + 1`, so the maximum ratio is
/// 2.33 (v = 8). An increment is mostly renaming, so only this line sees a
/// slower write.
const LEMMA4_WRITE_C: f64 = 2.8;

#[test]
fn lemma4_counter_costs_polylog_v_per_increment_and_log_v_per_read() {
    for v in [8usize, 32, 128, 512] {
        for seed in 0..3u64 {
            let counter = MonotoneCounter::new();
            let mut ctx = ProcessCtx::new(ProcessId::new(0), seed);
            // The twin's context flips the same coins, so its acquires
            // cost what the counter's renaming does; the difference of the
            // last two operations is the write of name v.
            let twin = MonotoneCounter::new();
            let mut twin_ctx = ProcessCtx::new(ProcessId::new(0), seed);
            let mut last_write = 0;
            for _ in 0..v {
                let (before, twin_before) = (ctx.stats().total(), twin_ctx.stats().total());
                counter.increment(&mut ctx);
                twin.renaming().acquire(&mut twin_ctx).unwrap();
                let increment = ctx.stats().total() - before;
                last_write = increment - (twin_ctx.stats().total() - twin_before);
            }
            let per_increment = ctx.stats().total() as f64 / v as f64;
            let increment_bound = LEMMA4_INCREMENT_C * log2(v) * log2(v);
            let id = "lemma4.steps_per_increment";
            claim(id, v, Some(seed), per_increment, "<=", increment_bound);
            let write_bound = LEMMA4_WRITE_C * log2(v);
            let id = "lemma4.steps_per_write";
            claim(id, v, Some(seed), last_write as f64, "<=", write_bound);
            let before = ctx.stats().total();
            assert_eq!(counter.read(&mut ctx), v as u64, "v={v} seed={seed}");
            let read = (ctx.stats().total() - before) as f64;
            let read_bound = LEMMA4_READ_C * log2(v);
            claim(
                "lemma4.steps_per_read",
                v,
                Some(seed),
                read,
                "<=",
                read_bound,
            );
        }
    }
}

/// Theorem 6: max steps per fetch-and-increment ≤ `c·log₂k·log₂m`.
/// Measured maximum ratio: 41.31 (k = 16, m = 256, seed 272).
const THM6_C: f64 = 50.0;

#[test]
fn thm6_fetch_and_increment_costs_log_k_log_m_and_linearizes() {
    for (k, m) in [(4usize, 16u64), (8, 16), (8, 64), (16, 64), (16, 256)] {
        // One schedule per grid cell, a different one in each.
        let seed = k as u64 + m;
        let object = BoundedFetchIncrement::new(m);
        let recorder: Recorder<(), u64> = Recorder::new();
        let run = run_seeded(seed, &consecutive_ids(k, seed), |ctx| {
            let invoke = recorder.invoke();
            let value = object.fetch_and_increment(ctx);
            recorder.record(ctx.id(), (), value, invoke);
            value
        });
        let mut values = run.reports.clone();
        values.sort_unstable();
        let expected: Vec<u64> = (0..k as u64).collect();
        assert_eq!(values, expected, "k={k} m={m} seed={seed}");
        check_linearizable(&FetchIncrementSpec { limit: m }, &recorder.take_history())
            .unwrap_or_else(|e| panic!("k={k} m={m} seed={seed}: {e}"));
        let bound = THM6_C * log2(k) * log2(m as usize);
        let id = format!("thm6.max_steps.m{m}");
        claim(&id, k, Some(seed), run.max_steps(), "<=", bound);
    }
}

/// §3: RatRace max steps ≤ `c·(1 + log₂k)²`. Measured maximum ratio: 7.0
/// (k = 2, seed 0); 1.05 at k = 128.
const RATRACE_C: f64 = 9.0;

/// Seeds of the two-process test-and-set claim, one play per side each.
const TWO_PROCESS_SEEDS: u64 = 50;

/// §3: a two-process test-and-set takes `O(1)` expected steps per play.
/// Measured mean over all 100 plays: 6.73.
const TWO_PROCESS_MEAN_STEPS: f64 = 8.0;

#[test]
fn substrate_test_and_sets_have_one_winner_and_bounded_steps() {
    for k in [2usize, 8, 32, 128] {
        for seed in seeds(k) {
            let ratrace = RatRaceTas::new();
            let run = run_seeded(seed, &consecutive_ids(k, seed), |ctx| {
                ratrace.test_and_set(ctx)
            });
            let winners = run.reports.iter().filter(|won| **won).count();
            assert_eq!(winners, 1, "k={k} seed={seed}");
            let bound = RATRACE_C * (1.0 + log2(k)).powi(2);
            let id = "substrate.ratrace_max_steps";
            claim(id, k, Some(seed), run.max_steps(), "<=", bound);
        }
    }
    // Expected O(1) is a claim about the mean, so it is pinned over all
    // plays of all seeds rather than per seed.
    let mut steps = Vec::new();
    for seed in 0..TWO_PROCESS_SEEDS {
        let object = TwoProcessTas::new();
        let run = run_seeded(seed, &consecutive_ids(2, seed), |ctx| {
            let side = if ctx.id().as_usize() == 0 {
                Side::Top
            } else {
                Side::Bottom
            };
            object.play(ctx, side)
        });
        let winners = run.reports.iter().filter(|won| **won).count();
        assert_eq!(winners, 1, "seed={seed}");
        steps.extend(run.steps);
    }
    let mean = steps.iter().sum::<u64>() as f64 / steps.len() as f64;
    let id = "substrate.two_process_mean_steps";
    claim(id, 2, None, mean, "<=", TWO_PROCESS_MEAN_STEPS);
}
