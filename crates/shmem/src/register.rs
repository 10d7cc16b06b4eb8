//! Multi-writer multi-reader atomic registers with step accounting.
//!
//! The paper's processes "communicate through multiple-writer-multiple-reader
//! atomic registers" (§2). Registers here are backed by `std` word-sized
//! atomics, which give linearizable single-word semantics, and every
//! operation reports exactly one step to the calling process's
//! [`ProcessCtx`].
//!
//! Read-modify-write operations (`compare_and_swap`, `swap`, `fetch_add`) are
//! also provided. The renaming algorithms themselves never need them — they
//! are used by baseline implementations (e.g. a CAS counter) and by the
//! hardware test-and-set object that the paper's "unit-cost test-and-set"
//! bounds assume.

use crate::arena::{Arena, ArenaCell};
use crate::process::ProcessCtx;
use crate::steps::StepKind;
use crate::vexec::Loc;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

/// A multi-writer multi-reader atomic register holding a `u64`.
#[derive(Debug)]
pub struct AtomicU64Register {
    cell: ArenaCell<AtomicU64>,
    loc: Loc,
}

impl Default for AtomicU64Register {
    fn default() -> Self {
        AtomicU64Register::new(0)
    }
}

impl AtomicU64Register {
    /// Creates a register with the given initial value.
    pub fn new(initial: u64) -> Self {
        AtomicU64Register {
            cell: ArenaCell::inline(AtomicU64::new(initial)),
            loc: Loc::fresh(),
        }
    }

    /// Creates a register whose word lives in `arena`, on its own cache
    /// line. The register's [`Loc`] is derived from the word's offset
    /// ([`Arena::loc_for`]), so conflict classes are identical on every
    /// backend and across processes sharing the arena.
    pub fn new_in(arena: &Arc<Arena>, initial: u64) -> Self {
        let cell = ArenaCell::new_in(arena, AtomicU64::new(initial));
        AtomicU64Register {
            loc: cell.loc().expect("arena cells have derived locs"),
            cell,
        }
    }

    /// The register's location identifier, used by the schedule explorer to
    /// key read/write dependencies.
    pub fn loc(&self) -> Loc {
        self.loc
    }

    /// Atomically reads the register, charging one read step.
    pub fn read(&self, ctx: &mut ProcessCtx) -> u64 {
        ctx.record_at(StepKind::RegisterRead, self.loc);
        self.cell.get().load(Ordering::SeqCst)
    }

    /// Atomically writes the register, charging one write step.
    pub fn write(&self, ctx: &mut ProcessCtx, value: u64) {
        ctx.record_at(StepKind::RegisterWrite, self.loc);
        self.cell.get().store(value, Ordering::SeqCst);
    }

    /// Atomically replaces the value, returning the previous one and charging
    /// one read-modify-write step.
    pub fn swap(&self, ctx: &mut ProcessCtx, value: u64) -> u64 {
        ctx.record_at(StepKind::ReadModifyWrite, self.loc);
        self.cell.get().swap(value, Ordering::SeqCst)
    }

    /// Atomically performs compare-and-swap, charging one read-modify-write
    /// step. Returns `Ok(previous)` on success and `Err(actual)` on failure.
    pub fn compare_and_swap(
        &self,
        ctx: &mut ProcessCtx,
        expected: u64,
        new: u64,
    ) -> Result<u64, u64> {
        ctx.record_at(StepKind::ReadModifyWrite, self.loc);
        self.cell
            .get()
            .compare_exchange(expected, new, Ordering::SeqCst, Ordering::SeqCst)
    }

    /// Atomically adds `delta`, returning the previous value and charging one
    /// read-modify-write step.
    pub fn fetch_add(&self, ctx: &mut ProcessCtx, delta: u64) -> u64 {
        ctx.record_at(StepKind::ReadModifyWrite, self.loc);
        self.cell.get().fetch_add(delta, Ordering::SeqCst)
    }

    /// Reads the register without charging any step. Intended for harness and
    /// test inspection only, never from algorithm code.
    pub fn peek(&self) -> u64 {
        self.cell.get().load(Ordering::SeqCst)
    }
}

/// `N` multi-writer multi-reader `usize` registers stored as plain words
/// behind one block of location ids.
///
/// Word `i` behaves exactly like an [`AtomicU64Register`]: each operation
/// charges one step at location `base.offset(i)` ([`Loc::fresh_block`])
/// before its `SeqCst` access, so step counts, scheduling points and
/// conflicts are the same as with `N` separate registers. What differs is
/// the storage: eight bytes a word and one `Loc` for the block, where a
/// register carries its own `Loc` and an [`ArenaCell`] it may not need.
/// Objects built many times on a hot path (a comparator's two-process
/// test-and-set) hold their words this way.
#[derive(Debug)]
pub struct RegisterBlock<const N: usize> {
    words: [AtomicUsize; N],
    base: Loc,
}

impl<const N: usize> RegisterBlock<N> {
    /// Creates a block with every word set to `initial`.
    pub fn new(initial: usize) -> Self {
        RegisterBlock {
            words: std::array::from_fn(|_| AtomicUsize::new(initial)),
            base: Loc::fresh_block(N as u64),
        }
    }

    /// The location identifier of word `index`.
    pub fn loc(&self, index: usize) -> Loc {
        self.base.offset(index as u64)
    }

    /// Atomically reads word `index`, charging one read step.
    pub fn read(&self, ctx: &mut ProcessCtx, index: usize) -> usize {
        ctx.record_at(StepKind::RegisterRead, self.loc(index));
        self.words[index].load(Ordering::SeqCst)
    }

    /// Atomically writes word `index`, charging one write step.
    pub fn write(&self, ctx: &mut ProcessCtx, index: usize, value: usize) {
        ctx.record_at(StepKind::RegisterWrite, self.loc(index));
        self.words[index].store(value, Ordering::SeqCst);
    }

    /// Atomically performs compare-and-swap on word `index`, charging one
    /// read-modify-write step. Returns `Ok(previous)` on success and
    /// `Err(actual)` on failure.
    pub fn compare_and_swap(
        &self,
        ctx: &mut ProcessCtx,
        index: usize,
        expected: usize,
        new: usize,
    ) -> Result<usize, usize> {
        ctx.record_at(StepKind::ReadModifyWrite, self.loc(index));
        self.words[index].compare_exchange(expected, new, Ordering::SeqCst, Ordering::SeqCst)
    }

    /// Reads word `index` without charging any step (harness/test use only).
    pub fn peek(&self, index: usize) -> usize {
        self.words[index].load(Ordering::SeqCst)
    }
}

/// A multi-writer multi-reader atomic register holding a `bool`.
#[derive(Debug)]
pub struct AtomicBoolRegister {
    cell: ArenaCell<AtomicBool>,
    loc: Loc,
}

impl Default for AtomicBoolRegister {
    fn default() -> Self {
        AtomicBoolRegister::new(false)
    }
}

impl AtomicBoolRegister {
    /// Creates a register with the given initial value.
    pub fn new(initial: bool) -> Self {
        AtomicBoolRegister {
            cell: ArenaCell::inline(AtomicBool::new(initial)),
            loc: Loc::fresh(),
        }
    }

    /// Creates a register whose word lives in `arena`, on its own cache
    /// line (see [`AtomicU64Register::new_in`]).
    pub fn new_in(arena: &Arc<Arena>, initial: bool) -> Self {
        let cell = ArenaCell::new_in(arena, AtomicBool::new(initial));
        AtomicBoolRegister {
            loc: cell.loc().expect("arena cells have derived locs"),
            cell,
        }
    }

    /// The register's location identifier (see [`AtomicU64Register::loc`]).
    pub fn loc(&self) -> Loc {
        self.loc
    }

    /// Atomically reads the register, charging one read step.
    pub fn read(&self, ctx: &mut ProcessCtx) -> bool {
        ctx.record_at(StepKind::RegisterRead, self.loc);
        self.cell.get().load(Ordering::SeqCst)
    }

    /// Atomically writes the register, charging one write step.
    pub fn write(&self, ctx: &mut ProcessCtx, value: bool) {
        ctx.record_at(StepKind::RegisterWrite, self.loc);
        self.cell.get().store(value, Ordering::SeqCst);
    }

    /// Atomically sets the register to `true`, returning the previous value
    /// and charging one read-modify-write step. This is the hardware
    /// test-and-set instruction.
    pub fn test_and_set(&self, ctx: &mut ProcessCtx) -> bool {
        ctx.record_at(StepKind::ReadModifyWrite, self.loc);
        self.cell.get().swap(true, Ordering::SeqCst)
    }

    /// Reads the register without charging any step (harness/test use only).
    pub fn peek(&self) -> bool {
        self.cell.get().load(Ordering::SeqCst)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::process::ProcessId;

    fn ctx() -> ProcessCtx {
        ProcessCtx::new(ProcessId::new(0), 42)
    }

    #[test]
    fn u64_register_read_write_swap_cas() {
        let mut ctx = ctx();
        let reg = AtomicU64Register::new(5);
        assert_eq!(reg.read(&mut ctx), 5);
        reg.write(&mut ctx, 9);
        assert_eq!(reg.peek(), 9);
        assert_eq!(reg.swap(&mut ctx, 11), 9);
        assert_eq!(reg.compare_and_swap(&mut ctx, 11, 20), Ok(11));
        assert_eq!(reg.compare_and_swap(&mut ctx, 11, 30), Err(20));
        assert_eq!(reg.fetch_add(&mut ctx, 2), 20);
        assert_eq!(reg.peek(), 22);

        let stats = ctx.stats();
        assert_eq!(stats.reads, 1);
        assert_eq!(stats.writes, 1);
        assert_eq!(stats.rmws, 4);
    }

    #[test]
    fn register_block_words_behave_like_registers_at_consecutive_locs() {
        let mut ctx = ctx();
        let block: RegisterBlock<3> = RegisterBlock::new(7);
        assert_eq!(block.read(&mut ctx, 0), 7);
        block.write(&mut ctx, 1, 9);
        assert_eq!(block.peek(1), 9);
        assert_eq!(block.peek(2), 7, "words are independent");
        assert_eq!(block.compare_and_swap(&mut ctx, 2, 7, 4), Ok(7));
        assert_eq!(block.compare_and_swap(&mut ctx, 2, 7, 5), Err(4));
        let stats = ctx.stats();
        assert_eq!((stats.reads, stats.writes, stats.rmws), (1, 1, 2));
        for i in 0..3 {
            assert_eq!(block.loc(i), block.loc(0).offset(i as u64));
        }
        assert!(!block.loc(0).is_anon());
        assert_ne!(block.loc(0), RegisterBlock::<3>::new(0).loc(0));
    }

    #[test]
    fn bool_register_test_and_set_returns_previous_value() {
        let mut ctx = ctx();
        let reg = AtomicBoolRegister::new(false);
        assert!(!reg.read(&mut ctx));
        assert!(!reg.test_and_set(&mut ctx), "first TAS sees false");
        assert!(reg.test_and_set(&mut ctx), "second TAS sees true");
        reg.write(&mut ctx, false);
        assert!(!reg.peek());
    }

    #[test]
    fn arena_backed_registers_behave_identically() {
        use crate::arena::Arena;

        let mut ctx = ctx();
        let arena = Arena::heap(4096);
        let reg = AtomicU64Register::new_in(&arena, 5);
        assert_eq!(reg.read(&mut ctx), 5);
        reg.write(&mut ctx, 9);
        assert_eq!(reg.swap(&mut ctx, 11), 9);
        assert_eq!(reg.compare_and_swap(&mut ctx, 11, 20), Ok(11));
        assert_eq!(reg.fetch_add(&mut ctx, 2), 20);
        assert_eq!(reg.peek(), 22);

        let flag = AtomicBoolRegister::new_in(&arena, false);
        assert!(!flag.test_and_set(&mut ctx));
        assert!(flag.test_and_set(&mut ctx));

        let count = AtomicU64Register::new_in(&arena, 1);
        assert_eq!(count.fetch_add(&mut ctx, 3), 1);
        assert_eq!(count.peek(), 4);
    }

    #[test]
    fn arena_backed_locs_are_offset_derived_and_distinct() {
        use crate::arena::Arena;

        let arena = Arena::heap(4096);
        let a = AtomicU64Register::new_in(&arena, 0);
        let b = AtomicU64Register::new_in(&arena, 0);
        assert_ne!(a.loc(), b.loc());
        assert!(a.loc().as_u64() & (1 << 63) != 0, "arena-derived loc tag");
        // A heap register's loc comes from the global counter: untagged.
        let c = AtomicU64Register::new(0);
        assert_eq!(c.loc().as_u64() & (1 << 63), 0);
    }

    #[test]
    fn registers_charge_exactly_one_step_per_operation() {
        let mut ctx = ctx();
        let reg = AtomicU64Register::new(0);
        let before = ctx.stats().total_all();
        reg.read(&mut ctx);
        reg.write(&mut ctx, 1);
        let after = ctx.stats().total_all();
        assert_eq!(after - before, 2);
    }
}
