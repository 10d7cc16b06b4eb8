//! Max registers (Aspnes, Attiya, Censor — PODC 2009).
//!
//! The paper's monotone-consistent counter (§8.1) pairs the adaptive strong
//! renaming object with a *max register*: `increment` writes the newly
//! acquired name to the max register, `read` returns its current maximum.
//! This crate reproduces the max-register substrate:
//!
//! * [`BoundedMaxRegister`] — the tree-based construction of \[17\]: a max
//!   register over values `0..capacity` built from read/write registers with
//!   `O(log capacity)` steps per operation.
//! * [`UnboundedMaxRegister`] — an unbounded max register assembled from
//!   doubling-capacity bounded registers, giving `O(log v)` steps for
//!   operations involving values around `v`.
//!
//! # Example
//!
//! ```
//! use maxreg::{BoundedMaxRegister, MaxRegister};
//! use shmem::process::{ProcessCtx, ProcessId};
//!
//! let register = BoundedMaxRegister::new(64);
//! let mut ctx = ProcessCtx::new(ProcessId::new(0), 1);
//! register.write_max(&mut ctx, 17);
//! register.write_max(&mut ctx, 5);
//! assert_eq!(register.read_max(&mut ctx), 17);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod bounded;
pub mod unbounded;

pub use bounded::BoundedMaxRegister;
pub use unbounded::UnboundedMaxRegister;

use shmem::process::ProcessCtx;

/// A linearizable max register: `write_max(v)` raises the stored maximum to at
/// least `v`, and `read_max()` returns the largest value written by any
/// operation linearized before it.
pub trait MaxRegister: Send + Sync {
    /// Records `value` in the register: subsequent reads return at least
    /// `value`.
    fn write_max(&self, ctx: &mut ProcessCtx, value: u64);

    /// Returns the largest value written so far (0 if nothing was written).
    fn read_max(&self, ctx: &mut ProcessCtx) -> u64;
}

#[cfg(test)]
mod tests {
    use super::*;
    use shmem::vexec::VirtualExecutor;
    use std::sync::Arc;

    /// Shared behavioural test applied to every implementation: concurrent
    /// writers followed by a read must observe the maximum of all writes, and
    /// reads interleaved with writes never exceed the largest started write.
    fn concurrent_max_semantics<M: MaxRegister + 'static>(make: impl Fn() -> M) {
        for seed in 0..10 {
            let register = Arc::new(make());
            let writers = 8u64;
            let outcome = VirtualExecutor::with_seed(seed)
                .run(writers as usize, {
                    let register = Arc::clone(&register);
                    move |ctx| {
                        let value = (ctx.id().as_u64() + 1) * 10;
                        register.write_max(ctx, value);
                        register.read_max(ctx)
                    }
                })
                .outcome;
            let reads = outcome.results();
            assert_eq!(reads.len(), writers as usize);
            for (process, read) in outcome.completed() {
                let own = (process.as_u64() + 1) * 10;
                assert!(
                    *read >= own,
                    "seed {seed}: read {read} below own write {own}"
                );
                assert!(*read <= writers * 10, "seed {seed}: read {read} too large");
            }
        }
    }

    #[test]
    fn bounded_register_satisfies_concurrent_max_semantics() {
        concurrent_max_semantics(|| BoundedMaxRegister::new(128));
    }

    #[test]
    fn unbounded_register_satisfies_concurrent_max_semantics() {
        concurrent_max_semantics(UnboundedMaxRegister::new);
    }
}
