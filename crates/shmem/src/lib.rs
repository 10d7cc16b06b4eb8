//! Asynchronous shared-memory substrate for the adaptive strong renaming
//! reproduction.
//!
//! The PODC 2011 paper *Optimal-Time Adaptive Strong Renaming, with
//! Applications to Counting* assumes an asynchronous shared-memory system of
//! `n` processes communicating through multiple-writer multiple-reader atomic
//! registers, scheduled by a strong adaptive adversary, where up to `t < n`
//! processes may crash. This crate provides that substrate:
//!
//! * [`register`] — MWMR atomic registers with per-operation step accounting.
//! * [`arena`] — a relocatable, offset-addressed backing store for shared
//!   structures (allocations return [`arena::ArenaRef`]/[`arena::ArenaSliceRef`]
//!   views that resolve `base + offset` once and remember the offset), with
//!   a process-private heap backend and anonymous and file-backed
//!   `MAP_SHARED` mmap backends for true cross-process operation.
//! * [`steps`] — the paper's cost model: counts of shared-memory reads,
//!   writes, read-modify-writes and test-and-set invocations per process.
//! * [`process`] — [`ProcessId`] and
//!   [`ProcessCtx`], the handle each simulated process
//!   threads through every shared-memory operation (identity, seeded
//!   randomness, step accounting and crash injection).
//! * [`adversary`] — the strong adaptive adversary's two levers: where the
//!   interleaving comes from (a seeded random, replayed or explored
//!   schedule) and which processes crash when.
//! * [`vexec`] — the execution harness: a deterministic *virtual* executor
//!   that runs `k` processes against a shared object, serializing them at
//!   every shared-memory operation behind per-process gates, so a
//!   [`vexec::Scheduler`] chooses the interleaving step by step. It is the
//!   substrate for seeded, load-independent concurrency tests, examples,
//!   systematic schedule exploration (the `mcheck` crate), schedule replay
//!   and DPOR model checking.
//! * [`executor`] — [`ExecutionOutcome`], the results, step statistics and
//!   crash outcomes a run collects.
//! * [`lazy`] — [`LazyTable`], a lock-free radix table of
//!   `OnceLock` nodes that creates shared objects keyed by `u64` on first
//!   touch (outer renaming-network sections, splitter trees).
//! * [`pad`] — a 64-byte-aligned [`CachePadded`] wrapper used to keep
//!   contended atomic words on distinct cache lines.
//! * [`history`] — invoke/response history recording for concurrent objects.
//! * [`consistency`] — a linearizability checker for small histories and the
//!   monotone-consistency checker used for the paper's counter (§8.1).
//!
//! # Example
//!
//! Run eight processes that each write and read a shared register on a
//! seeded virtual schedule, collecting per-process step counts:
//!
//! ```
//! use shmem::adversary::ExecConfig;
//! use shmem::register::AtomicU64Register;
//! use shmem::vexec::VirtualExecutor;
//! use std::sync::Arc;
//!
//! let reg = Arc::new(AtomicU64Register::new(0));
//! let exec = VirtualExecutor::new(ExecConfig::new(7));
//! let outcome = exec.run(8, {
//!     let reg = Arc::clone(&reg);
//!     move |ctx| {
//!         reg.write(ctx, ctx.id().as_u64() + 1);
//!         reg.read(ctx)
//!     }
//! }).outcome;
//! assert_eq!(outcome.completed().count(), 8);
//! assert!(outcome.total_steps().total() >= 16);
//! ```

// `deny` rather than `forbid`: the arena and procs modules opt back in with
// a scoped `#![allow(unsafe_code)]` — they are the only places raw memory
// and raw OS calls are handled, and the reason this crate can back its
// registers with a MAP_SHARED mapping shared across forked processes.
// Everything else in the crate remains unsafe-free.
#![deny(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod adversary;
pub mod arena;
pub mod consistency;
pub mod executor;
pub mod history;
pub mod lazy;
pub mod pad;
pub mod process;
#[cfg(all(unix, not(miri)))]
pub mod procs;
pub mod register;
pub mod steps;
pub mod vexec;

pub use adversary::{CrashPlan, ExecConfig, ScheduleSource};
pub use arena::{Arena, ArenaBackend, ArenaCell, ArenaError, ArenaPod, ArenaRef, ArenaSliceRef};
pub use executor::{ExecutionOutcome, ProcessOutcome};
pub use history::{History, OpRecord, Recorder};
pub use lazy::LazyTable;
pub use pad::CachePadded;
pub use process::{ProcessCtx, ProcessId};
pub use register::{AtomicBoolRegister, AtomicU64Register, AtomicUsizeRegister, RegisterBlock};
pub use steps::{StepKind, StepStats};
pub use vexec::{
    AccessClass, ExecTrace, ExploreHandle, Loc, OpEvent, PendingOp, Schedule, Scheduler,
    SchedulerDecision, VirtualExecutor, VirtualRun,
};
