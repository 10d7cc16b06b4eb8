//! `mcheck`: deterministic schedule exploration over the `shmem` virtual
//! executor — DPOR model checking with replayable counterexamples.
//!
//! The workspace's one execution harness, the
//! [`VirtualExecutor`](shmem::VirtualExecutor), serializes every
//! shared-memory operation through per-process gates and asks a
//! [`Scheduler`](shmem::Scheduler) which process steps next. Tests and
//! examples ask a seeded random scheduler; this crate supplies the
//! schedulers worth asking when the goal is to cover or replay schedules:
//!
//! * [`dpor`] — exhaustive DFS with dynamic partial-order reduction
//!   (persistent sets + sleep sets) and a brute-force mode as ground truth;
//! * [`bounded`] — CHESS-style preemption-bounded DFS;
//! * [`coverage`] — coverage-guided schedule fuzzing keyed on Mazurkiewicz
//!   class novelty and step-count / namespace-bound objectives;
//! * [`minimize`] — `ddmin` shrinking of failing schedules;
//! * [`trace`] — the `tests/schedules/*.trace` file format and replayer;
//! * [`scenarios`] — the workload registry (toy races, TAS objects, counting
//!   networks, renaming, recycler churn) with per-scenario oracles;
//! * [`classes`] — Mazurkiewicz trace-equivalence hashing.
//!
//! Every counterexample is a [`dpor::Counterexample`]: a schedule (plus
//! crash plan) replayable with one command —
//! `cargo run -p mcheck -- replay tests/schedules/<file>.trace`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bounded;
pub mod classes;
pub mod coverage;
pub mod dpor;
mod driver;
pub mod minimize;
pub mod scenarios;
pub mod trace;

pub use bounded::{BoundedConfig, BoundedReport};
pub use classes::{class_hash, class_hash_ops};
pub use coverage::{fuzz, FuzzConfig, FuzzReport};
pub use dpor::{explore, Counterexample, ExploreConfig, ExploreMode, ExploreReport};
pub use minimize::{ddmin, minimize_counterexample, schedule_fails};
pub use scenarios::{BuiltScenario, ScenarioDef};
pub use trace::{Expectation, TraceFile};
