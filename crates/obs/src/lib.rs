//! Arena-resident observability for the strong-renaming workspace.
//!
//! Everything here lives in the same [`shmem::arena::Arena`] the data
//! structures under test live in, so telemetry survives exactly the crashes
//! the rest of the workspace is built to tolerate:
//!
//! - [`ring::FlightRecorder`] — per-process lock-free event rings with a
//!   seqlock'd cursor; a SIGKILLed child's last events stay readable by the
//!   sweeping parent, which dumps them as a [`postmortem::Postmortem`].
//! - [`metrics::MetricsSlab`] — escrowed per-process stripes of counters,
//!   gauges, and log-bucketed [`hist::Histogram`]s, merged only at
//!   [`snapshot::Snapshot`] time.
//! - [`sink`] — thread-local recording handles the instrumented hot paths
//!   in `core` and `cnet` call through; a thread that binds no sink pays
//!   one relaxed flag load and a predictable branch per site.
//!
//! The crate depends only on `shmem`, so both `core` and `cnet` can record
//! without creating a dependency cycle.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![deny(unsafe_code)]

pub mod hist;
pub mod metrics;
pub mod postmortem;
pub mod ring;
pub mod sink;
pub mod snapshot;
pub mod time;

pub use hist::Histogram;
pub use metrics::{Metric, MetricsSlab, StripeWriter};
pub use postmortem::Postmortem;
pub use ring::{Event, EventKind, FlightRecorder, RingWriter};
pub use sink::{
    add, bind_metrics, bind_ring, count, enabled, event, finish, gauge, record, start, unbind,
    Timer,
};
pub use snapshot::Snapshot;
