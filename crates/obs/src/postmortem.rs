//! The sweep-time postmortem hook.
//!
//! A process that hosts (or inherits) a [`FlightRecorder`] installs it
//! here; when `RobustLeaseTable::sweep_dead_processes` reclaims a name
//! from a dead owner it calls [`notify_dead`] with the owner's pid, and
//! the hook dumps the dead process's ring tail — its last recorded
//! moments — as a [`Postmortem`]. Reports accumulate until drained with
//! [`take_reports`] (tests assert on them; the flight-recorder example
//! prints them).

use crate::ring::{Event, FlightRecorder};
use std::sync::{Arc, Mutex};

/// One dead process's dumped ring tail.
#[derive(Clone, Debug)]
pub struct Postmortem {
    /// The dead owner's OS pid.
    pub pid: u32,
    /// The ring the pid was attached to.
    pub ring: usize,
    /// The decoded ring tail, oldest first.
    pub events: Vec<Event>,
    /// The human-readable rendering ([`FlightRecorder::postmortem`]).
    pub rendered: String,
}

static HOOK: Mutex<Option<Arc<FlightRecorder>>> = Mutex::new(None);
static REPORTS: Mutex<Vec<Postmortem>> = Mutex::new(Vec::new());

/// Installs `recorder` as the process's postmortem source (replacing
/// any previous one).
pub fn install(recorder: Arc<FlightRecorder>) {
    *HOOK.lock().expect("postmortem hook lock") = Some(recorder);
}

/// Removes the installed recorder, if any.
pub fn uninstall() {
    *HOOK.lock().expect("postmortem hook lock") = None;
}

/// Dumps the ring attached by `pid`, if a recorder is installed and
/// has one. Returns whether a report was produced. Idempotent per
/// sweep call site, not deduplicated across calls — a pid swept twice
/// produces two reports.
pub fn notify_dead(pid: u32) -> bool {
    let recorder = HOOK.lock().expect("postmortem hook lock").clone();
    let Some(recorder) = recorder else {
        return false;
    };
    let Some(ring) = recorder.find_ring(pid) else {
        return false;
    };
    let report = Postmortem {
        pid,
        ring,
        events: recorder.events(ring),
        rendered: recorder.postmortem(ring),
    };
    REPORTS.lock().expect("postmortem report lock").push(report);
    true
}

/// Drains every accumulated report.
pub fn take_reports() -> Vec<Postmortem> {
    std::mem::take(&mut *REPORTS.lock().expect("postmortem report lock"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ring::EventKind;

    #[test]
    fn a_dead_pid_with_an_attached_ring_is_dumped() {
        let recorder = FlightRecorder::heap(2, 4);
        recorder.attach(1, 4242);
        let writer = recorder.writer(1);
        writer.log(EventKind::LeaseGranted, 3, 0);
        writer.log(EventKind::Mark, 9, 9);
        install(Arc::clone(&recorder));
        assert!(!notify_dead(999), "unknown pid: no ring, no report");
        assert!(notify_dead(4242));
        uninstall();
        assert!(!notify_dead(4242), "uninstalled: no report");
        let reports = take_reports();
        assert_eq!(reports.len(), 1);
        assert_eq!(reports[0].pid, 4242);
        assert_eq!(reports[0].ring, 1);
        assert_eq!(reports[0].events.len(), 2);
        assert_eq!(reports[0].events[0].kind, EventKind::LeaseGranted);
        assert!(reports[0].rendered.contains("pid 4242"));
        assert!(take_reports().is_empty(), "reports drain");
    }
}
