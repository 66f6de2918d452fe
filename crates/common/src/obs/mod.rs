//! `sdg-obs` — the deployment-wide observability layer.
//!
//! Every engine in this workspace (the SDG runtime and the three baseline
//! engines) reports through the same introspection schema:
//!
//! - [`MetricsRegistry`] holds labeled per-TE ([`TaskInstruments`]) and
//!   per-SE ([`StateInstruments`]) instruments — item counters, queue-depth
//!   gauges, service-time and end-to-end latency histograms, byte and
//!   dirty-overlay gauges — plus one set of [`CheckpointInstruments`]
//!   (phase timers for the §5 protocol) and a bounded structured
//!   [`EventLog`] of scale-out, straggler, checkpoint and recovery events
//!   with monotonic timestamps.
//! - [`MetricsRegistry::snapshot`] freezes everything into a plain-data
//!   [`MetricsSnapshot`] with text ([`MetricsSnapshot::to_text`]) and JSON
//!   ([`MetricsSnapshot::to_json`]) renderers, both read from one
//!   description of each [`EventKind`]; [`DeploymentStats`] is the
//!   one-line aggregate across all instruments.
//! - [`json`] is a dependency-free JSON tree parser used by tests and the
//!   CI smoke check to validate the rendered output.
//!
//! Recording is lock-free on the hot path (relaxed atomics and the
//! log-linear [`crate::metrics::Histogram`]). Task counters and histograms
//! have one write path in every engine: each writer — a TE instance, or a
//! baseline engine's task — writes its own [`TaskShard`] with plain loads
//! and stores, never a locked read-modify-write on a line another writer
//! writes. A snapshot folds a task's shards, and the deployment-wide
//! end-to-end latency is the merge of their latency samples. Registry
//! maps are only locked when an instrument is first created or a snapshot
//! is taken.

mod event;
pub mod json;
mod registry;
mod snapshot;

pub use event::{EventKind, EventLog, ObsEvent, DEFAULT_EVENT_CAPACITY};
pub use registry::{
    CheckpointInstruments, FaultInstruments, MetricsRegistry, ReconfigInstruments,
    RecoveryInstruments, SchedInstruments, StateInstruments, TaskInstruments, TaskShard,
};
pub use snapshot::{
    CheckpointStats, DeploymentStats, FaultStats, MetricsSnapshot, ReconfigStats, RecoveryStats,
    SchedStats, StateStats, TaskStats,
};
