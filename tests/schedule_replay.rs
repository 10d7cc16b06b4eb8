//! Replays every pinned schedule in `tests/schedules/` and checks each trace's
//! recorded expectation (`pass` or `violation`) against the scenario oracle.
//!
//! The `expect: violation` traces are minimized counterexamples produced by
//! the `mcheck` explorer. The `expect: pass` traces pin races their comments
//! walk through, and fail unless the replay takes every pinned choice. Each
//! file can also be replayed by hand:
//!
//! ```text
//! cargo run -p mcheck -- replay tests/schedules/mono_counter_3p_0.trace
//! ```

use mcheck::trace::{self, TraceFile};
use std::path::PathBuf;

fn schedules_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/schedules")
}

#[test]
fn every_pinned_trace_replays_to_its_expectation() {
    let mut seen = 0;
    for entry in std::fs::read_dir(schedules_dir()).expect("tests/schedules exists") {
        let path = entry.expect("readable dir entry").path();
        if path.extension().is_none_or(|e| e != "trace") {
            continue;
        }
        seen += 1;
        let text = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("reading {}: {e}", path.display()));
        let file =
            TraceFile::parse(&text).unwrap_or_else(|e| panic!("parsing {}: {e}", path.display()));
        match trace::verify(&file) {
            Ok(summary) => println!("{}: {summary}", path.display()),
            Err(e) => panic!("{}: {e}", path.display()),
        }
    }
    assert!(
        seen >= 3,
        "expected at least the three pinned traces, found {seen}"
    );
}

#[test]
fn pinned_counterexamples_are_replayed_deterministically() {
    // Replaying the same trace twice must visit byte-identical schedules and
    // reach the same verdict: the virtual executor is deterministic given a
    // schedule source.
    for name in ["mono_counter_3p_0", "cnet_stall_one_token_0"] {
        let path = schedules_dir().join(format!("{name}.trace"));
        let text = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("reading {}: {e}", path.display()));
        let file = TraceFile::parse(&text).expect("pinned trace parses");
        let first = trace::verify(&file).expect("first replay");
        let second = trace::verify(&file).expect("second replay");
        assert_eq!(first, second, "replay of {name} must be deterministic");
    }
}
