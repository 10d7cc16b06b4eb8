//! Fork-based child-process helpers for cross-process tests and benchmarks.
//!
//! The `MAP_SHARED` arena backend ([`crate::arena::Arena::shared`]) is
//! exercised by real operating-system processes created with `fork(2)`.
//! This module wraps the tiny unsafe surface that requires — fork, waitpid
//! and SIGKILL — behind safe helpers with the workspace's fork discipline
//! baked in:
//!
//! * everything (arenas, tables, process contexts) is allocated **before**
//!   the fork and inherited by value;
//! * a child runs only its closure — atomics on pre-mapped shared memory —
//!   and then terminates via `_exit`, never unwinding into the parent's
//!   harness, running `atexit` handlers, or touching the allocator/locks
//!   (which a forked child of a threaded parent must never do).
//!
//! Unix only, not available under miri (as the shared backend itself).

// The one other module in this crate that needs raw OS calls; everything
// unsafe is confined to the libc invocations below.
#![allow(unsafe_code)]

/// How a waited-for child process terminated.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ChildExit {
    /// Normal termination with the given exit status.
    Exited(i32),
    /// Killed by the given signal.
    Signaled(i32),
}

impl ChildExit {
    /// Whether the child exited normally with status 0.
    pub fn clean(self) -> bool {
        self == ChildExit::Exited(0)
    }

    /// Whether the child died of SIGKILL — the "crashed process" the
    /// robust-reclamation tests simulate.
    pub fn killed(self) -> bool {
        self == ChildExit::Signaled(libc::SIGKILL)
    }
}

/// Forks; runs `child` in the child process and terminates it with
/// `_exit(0)`; returns the child's pid in the parent.
///
/// The closure must confine itself to atomic operations on pre-mapped
/// shared memory (see the module docs). Panics if the fork fails.
pub fn fork_child(child: impl FnOnce()) -> i32 {
    // SAFETY: the child closure confines itself to atomics on pre-mapped
    // shared memory, which is fork-safe even from a threaded parent.
    let pid = unsafe { libc::fork() };
    assert!(pid >= 0, "fork failed");
    if pid == 0 {
        child();
        // SAFETY: terminating the child without running atexit handlers or
        // unwinding into the parent's harness is exactly what we want.
        unsafe { libc::_exit(0) };
    }
    pid
}

/// Blocks until `pid` terminates and reports how it went.
pub fn wait_child(pid: i32) -> ChildExit {
    let mut status: libc::c_int = 0;
    // SAFETY: status points at a live local; waitpid blocks until the
    // child changes state.
    let waited = unsafe { libc::waitpid(pid, &mut status, 0) };
    assert_eq!(waited, pid, "waitpid returned the wrong child");
    if libc::WIFEXITED(status) {
        ChildExit::Exited(libc::WEXITSTATUS(status))
    } else if libc::WIFSIGNALED(status) {
        ChildExit::Signaled(libc::WTERMSIG(status))
    } else {
        panic!("child {pid} neither exited nor was signaled (status {status})");
    }
}

/// Blocks until `pid` terminates; panics unless it exited cleanly.
pub fn wait_for_clean_exit(pid: i32) {
    let exit = wait_child(pid);
    assert!(exit.clean(), "child {pid} did not exit cleanly: {exit:?}");
}

/// Delivers SIGKILL to `pid` — the uncooperative mid-operation crash the
/// robust lease table's reclamation sweep exists for.
pub fn kill_child(pid: i32) {
    // SAFETY: SIGKILL to a child we forked cannot be mishandled; a stale
    // pid would at worst return ESRCH, which we ignore (the child is gone
    // either way — the caller still waits on it).
    unsafe { libc::kill(pid, libc::SIGKILL) };
}

/// Delivers SIGSTOP to `pid`: the child freezes mid-operation but stays
/// *alive* — `kill(pid, 0)` still succeeds, so a liveness sweep must NOT
/// reclaim its leases. The chaos harness uses stalls to test exactly that
/// boundary (a stalled process is slow, not dead). Pair with
/// [`resume_child`], or with [`kill_child`] (SIGKILL terminates stopped
/// processes too).
pub fn stop_child(pid: i32) {
    // SAFETY: as kill_child — SIGSTOP cannot be caught, blocked or ignored,
    // and a stale pid at worst returns ESRCH.
    unsafe { libc::kill(pid, libc::SIGSTOP) };
}

/// Delivers SIGCONT to `pid`, resuming a child frozen by [`stop_child`].
pub fn resume_child(pid: i32) {
    // SAFETY: as kill_child.
    unsafe { libc::kill(pid, libc::SIGCONT) };
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arena::Arena;
    use std::sync::atomic::{AtomicU64, Ordering};

    #[test]
    fn forked_children_exit_cleanly_and_report_through_shared_memory() {
        let arena = Arena::shared(4096).expect("MAP_SHARED arena");
        let word = arena.alloc::<AtomicU64>();
        let pid = fork_child({
            let word = word.clone();
            move || {
                word.store(41, Ordering::SeqCst);
            }
        });
        wait_for_clean_exit(pid);
        assert_eq!(word.load(Ordering::SeqCst), 41);
    }

    #[test]
    fn stopped_children_stay_alive_and_resume() {
        let arena = Arena::shared(4096).expect("MAP_SHARED arena");
        let word = arena.alloc::<AtomicU64>();
        let pid = fork_child({
            let word = word.clone();
            move || {
                while word.load(Ordering::SeqCst) == 0 {
                    std::hint::spin_loop();
                }
                word.store(2, Ordering::SeqCst);
            }
        });
        // Freeze the child before letting it proceed: the pid still probes
        // alive (a stall is not a crash), and nothing moves while stopped.
        stop_child(pid);
        assert!(crate::arena::os_process_alive(pid as u32));
        word.store(1, Ordering::SeqCst);
        std::thread::sleep(std::time::Duration::from_millis(20));
        assert_eq!(word.load(Ordering::SeqCst), 1, "a stopped child is frozen");
        resume_child(pid);
        wait_for_clean_exit(pid);
        assert_eq!(word.load(Ordering::SeqCst), 2);
    }

    #[test]
    fn killed_children_report_the_signal() {
        let pid = fork_child(|| loop {
            std::hint::spin_loop();
        });
        kill_child(pid);
        let exit = wait_child(pid);
        assert!(exit.killed(), "expected SIGKILL, got {exit:?}");
        assert!(!exit.clean());
    }
}
