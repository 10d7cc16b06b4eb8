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
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
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
        AtomicU64Register::at(Loc::fresh(), initial)
    }

    /// Creates a register with the given initial value at a location id
    /// the caller reserved (register *i* of an [`InPlace`] value).
    pub fn at(loc: Loc, initial: u64) -> Self {
        AtomicU64Register {
            cell: ArenaCell::inline(AtomicU64::new(initial)),
            loc,
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

/// A shared object built at a block of location ids its container reserved.
///
/// Register *i* of the value charges its steps at `base.offset(i)`, for
/// `i < LOCS`. A container that holds many values of one type (a
/// [`LazyTable`](crate::lazy::LazyTable) leaf, a comparator slab) reserves
/// one block of `count × LOCS` ids with [`Loc::fresh_block`] and builds
/// value *j* at `base.offset(j × LOCS)`, so creating a value draws no id
/// and makes no allocation of its own. A value built this way is in its
/// initial state: it has been neither played nor entered.
pub trait InPlace: Sized {
    /// Location ids one value occupies.
    const LOCS: u64;

    /// Builds an initial value whose registers sit at `base.offset(0)` to
    /// `base.offset(LOCS - 1)`.
    fn at(base: Loc) -> Self;

    /// Whether some register has left its initial value, that is, whether
    /// some process has played or entered the object (harness inspection;
    /// charges no steps).
    fn touched(&self) -> bool;
}

/// `N` multi-writer multi-reader byte-wide registers behind one block of
/// location ids, every word starting at 0.
///
/// Word `i` behaves exactly like an [`AtomicU64Register`] holding a byte:
/// each operation charges one step at location `base.offset(i)` before its
/// `SeqCst` access, so step counts, scheduling points and conflicts are the
/// same as with `N` separate registers. What differs is the storage: one
/// byte a word and one `Loc` for the block. Objects built many times on a
/// hot path (a comparator's two-process test-and-set, whose words hold
/// "empty", side 0 or side 1) hold their words this way.
#[derive(Debug)]
pub struct RegisterBlock<const N: usize> {
    words: [AtomicU8; N],
    base: Loc,
}

impl<const N: usize> InPlace for RegisterBlock<N> {
    const LOCS: u64 = N as u64;

    fn at(base: Loc) -> Self {
        RegisterBlock {
            words: std::array::from_fn(|_| AtomicU8::new(0)),
            base,
        }
    }

    fn touched(&self) -> bool {
        (0..N).any(|index| self.peek(index) != 0)
    }
}

impl<const N: usize> RegisterBlock<N> {
    /// The location identifier of word `index`.
    pub fn loc(&self, index: usize) -> Loc {
        self.base.offset(index as u64)
    }

    /// Atomically reads word `index`, charging one read step.
    pub fn read(&self, ctx: &mut ProcessCtx, index: usize) -> u8 {
        ctx.record_at(StepKind::RegisterRead, self.loc(index));
        self.words[index].load(Ordering::SeqCst)
    }

    /// Atomically writes word `index`, charging one write step.
    pub fn write(&self, ctx: &mut ProcessCtx, index: usize, value: u8) {
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
        expected: u8,
        new: u8,
    ) -> Result<u8, u8> {
        ctx.record_at(StepKind::ReadModifyWrite, self.loc(index));
        self.words[index].compare_exchange(expected, new, Ordering::SeqCst, Ordering::SeqCst)
    }

    /// Reads word `index` without charging any step (harness/test use only).
    pub fn peek(&self, index: usize) -> u8 {
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
        AtomicBoolRegister::at(Loc::fresh(), initial)
    }

    /// Creates a register with the given initial value at a location id
    /// the caller reserved (see [`AtomicU64Register::at`]).
    pub fn at(loc: Loc, initial: bool) -> Self {
        AtomicBoolRegister {
            cell: ArenaCell::inline(AtomicBool::new(initial)),
            loc,
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
        let base = Loc::fresh_block(3);
        let block: RegisterBlock<3> = RegisterBlock::at(base);
        assert!(!block.touched());
        assert_eq!(block.read(&mut ctx, 0), 0);
        assert!(!block.touched(), "a read leaves the block untouched");
        block.write(&mut ctx, 1, 9);
        assert!(block.touched());
        assert_eq!(block.peek(1), 9);
        assert_eq!(block.peek(2), 0, "words are independent");
        assert_eq!(block.compare_and_swap(&mut ctx, 2, 0, 4), Ok(0));
        assert_eq!(block.compare_and_swap(&mut ctx, 2, 0, 5), Err(4));
        let stats = ctx.stats();
        assert_eq!((stats.reads, stats.writes, stats.rmws), (1, 1, 2));
        for i in 0..3 {
            assert_eq!(block.loc(i), base.offset(i as u64));
        }
        assert!(!block.loc(0).is_anon());
        let other = RegisterBlock::<3>::at(Loc::fresh_block(RegisterBlock::<3>::LOCS));
        assert_ne!(block.loc(0), other.loc(0));
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
