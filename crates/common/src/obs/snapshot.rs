//! Plain-data snapshots of a registry, with text and JSON renderers.

use std::fmt::Write as _;
use std::time::Duration;

use crate::ids::{StateId, TaskId};
use crate::metrics::Summary;

use super::event::{EventKind, ObsEvent};

/// Frozen per-task statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct TaskStats {
    /// Task label.
    pub name: String,
    /// Graph task id, when known.
    pub id: Option<TaskId>,
    /// Running instances at snapshot time.
    pub instances: u64,
    /// Items received.
    pub items_in: u64,
    /// Items forwarded downstream.
    pub items_out: u64,
    /// Values emitted externally.
    pub emits: u64,
    /// Items fully processed.
    pub processed: u64,
    /// Execution errors.
    pub errors: u64,
    /// Gather-barrier waits.
    pub gather_waits: u64,
    /// Queued items at snapshot time.
    pub queue_depth: u64,
    /// Service-time candlestick (ns).
    pub service: Summary,
    /// End-to-end latency candlestick (ns).
    pub latency: Summary,
}

/// Frozen per-state statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct StateStats {
    /// State label.
    pub name: String,
    /// Graph state id, when known.
    pub id: Option<StateId>,
    /// SE instances at snapshot time.
    pub instances: u64,
    /// Approximate bytes held.
    pub bytes: u64,
    /// Dirty-overlay bytes (non-zero only mid-checkpoint).
    pub dirty_bytes: u64,
    /// Lock stripes per instance (1 for unstriped cells).
    pub stripes: u64,
    /// Chunks dirtied since the last checkpoint, summed over instances.
    pub dirty_chunks: u64,
    /// Checkpoints taken.
    pub checkpoints: u64,
}

/// Frozen checkpoint/recovery statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct CheckpointStats {
    /// Checkpoints completed.
    pub taken: u64,
    /// Delta generations among `taken`.
    pub deltas: u64,
    /// Checkpoints failed.
    pub failed: u64,
    /// Serialised bytes written.
    pub bytes: u64,
    /// Items replayed during recoveries.
    pub replayed: u64,
    /// Always 0: no checkpoint encodes an output buffer any more. Kept
    /// for the benchmark harness, which still reads it.
    pub encode_deferred: u64,
    /// Approximate bytes parked across upstream output buffers.
    pub buffered_bytes: u64,
    /// Snapshot-initiation times (ns).
    pub snapshot: Summary,
    /// Serialise + backup times (ns).
    pub persist: Summary,
    /// Consolidation times (ns).
    pub consolidate: Summary,
    /// Stop-the-world totals for synchronous mode (ns).
    pub sync: Summary,
    /// Restore times (ns).
    pub restore: Summary,
}

/// Frozen reconfiguration control-plane statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct ReconfigStats {
    /// Scale-out reconfigurations completed.
    pub scale_outs: u64,
    /// Scale-in reconfigurations completed.
    pub scale_ins: u64,
    /// Bytes migrated between SE instances, one sample per migration
    /// episode (candlestick).
    pub migrated_bytes: Summary,
}

/// Frozen statistics of the work-stealing actor pool that runs every TE
/// instance.
#[derive(Debug, Clone, PartialEq)]
pub struct SchedStats {
    /// Pool workers running.
    pub workers: u64,
    /// Actor run-slices executed by pool workers.
    pub polls: u64,
    /// Actors stolen from another worker's deque.
    pub steals: u64,
    /// Times a pool worker parked with nothing runnable.
    pub parks: u64,
    /// Producer actors suspended on a full destination mailbox.
    pub suspends: u64,
    /// Suspended actors resumed by a credit hand-back.
    pub resumes: u64,
    /// Deadlines fired from the shared timer heap: the ends of synthetic
    /// service-time rests.
    pub timer_fires: u64,
    /// Queued messages across all actor mailboxes at snapshot time.
    pub mailbox_depth: u64,
}

/// Frozen fault-injection / failure-detection statistics (all zero on a
/// healthy, fault-free deployment).
#[derive(Debug, Clone, PartialEq)]
pub struct FaultStats {
    /// Worker/actor panics caught at the scheduler boundary.
    pub worker_panics: u64,
    /// Heartbeat epochs seen stalled past the miss threshold.
    pub heartbeats_missed: u64,
    /// Chunks found corrupt (checksum mismatch / truncation) on read.
    pub chunks_corrupt: u64,
    /// Transient store I/O errors absorbed by retry.
    pub io_retries: u64,
    /// Failure-to-detection latency candlestick (ns).
    pub detection: Summary,
}

/// Frozen automatic-recovery (supervisor) statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct RecoveryStats {
    /// Automatic fail-and-recover attempts started.
    pub started: u64,
    /// Attempts that completed successfully.
    pub succeeded: u64,
    /// Attempts that failed.
    pub failed: u64,
    /// Restore-chain fallbacks to an older intact generation.
    pub chain_fallbacks: u64,
    /// Recoveries in flight at snapshot time.
    pub in_flight: u64,
    /// Detection-to-resume recovery time candlestick (ns).
    pub mttr: Summary,
}

/// One coherent freeze of a deployment's instruments and events.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricsSnapshot {
    /// Registry age when the snapshot was taken.
    pub uptime: Duration,
    /// Per-task statistics, sorted by name.
    pub tasks: Vec<TaskStats>,
    /// Per-state statistics, sorted by name.
    pub states: Vec<StateStats>,
    /// Checkpoint/recovery statistics.
    pub checkpoints: CheckpointStats,
    /// Reconfiguration control-plane statistics.
    pub reconfig: ReconfigStats,
    /// Cooperative-scheduler statistics.
    pub sched: SchedStats,
    /// Fault-injection / failure-detection statistics.
    pub faults: FaultStats,
    /// Automatic-recovery (supervisor) statistics.
    pub recovery: RecoveryStats,
    /// Deployment-wide end-to-end latency candlestick (ns).
    pub e2e_latency: Summary,
    /// Retained events, oldest first.
    pub events: Vec<ObsEvent>,
    /// Total events ever logged.
    pub events_logged: u64,
    /// Events evicted by the log bound.
    pub events_dropped: u64,
}

/// One-line aggregate across a whole deployment — the typed replacement
/// for the old scattered `Deployment` getters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DeploymentStats {
    /// Registry age.
    pub uptime: Duration,
    /// Items processed across all tasks.
    pub processed: u64,
    /// Execution errors across all tasks.
    pub errors: u64,
    /// Running TE instances across all tasks.
    pub task_instances: u64,
    /// SE instances across all states.
    pub state_instances: u64,
    /// Approximate bytes across all states.
    pub state_bytes: u64,
    /// Scale-out events logged.
    pub scale_outs: u64,
    /// Scale-in events logged.
    pub scale_ins: u64,
    /// Checkpoints completed.
    pub checkpoints_taken: u64,
}

impl MetricsSnapshot {
    /// Looks up a task's statistics by label.
    pub fn task(&self, name: &str) -> Option<&TaskStats> {
        self.tasks.iter().find(|t| t.name == name)
    }

    /// Looks up a task's statistics by graph id.
    pub fn task_by_id(&self, id: TaskId) -> Option<&TaskStats> {
        self.tasks.iter().find(|t| t.id == Some(id))
    }

    /// Looks up a state's statistics by label.
    pub fn state(&self, name: &str) -> Option<&StateStats> {
        self.states.iter().find(|s| s.name == name)
    }

    /// Looks up a state's statistics by graph id.
    pub fn state_by_id(&self, id: StateId) -> Option<&StateStats> {
        self.states.iter().find(|s| s.id == Some(id))
    }

    /// Items processed across all tasks.
    pub fn processed_total(&self) -> u64 {
        self.tasks.iter().map(|t| t.processed).sum()
    }

    /// Execution errors across all tasks.
    pub fn errors_total(&self) -> u64 {
        self.tasks.iter().map(|t| t.errors).sum()
    }

    /// Approximate bytes across all states.
    pub fn state_bytes_total(&self) -> u64 {
        self.states.iter().map(|s| s.bytes).sum()
    }

    /// Scale-out events among the retained + evicted log entries is not
    /// recoverable; this counts retained scale-outs.
    pub fn scale_outs(&self) -> u64 {
        self.events
            .iter()
            .filter(|e| matches!(e.kind, EventKind::ScaleOut { .. }))
            .count() as u64
    }

    /// Retained scale-in events (see [`MetricsSnapshot::scale_outs`]).
    pub fn scale_ins(&self) -> u64 {
        self.events
            .iter()
            .filter(|e| matches!(e.kind, EventKind::ScaleIn { .. }))
            .count() as u64
    }

    /// Collapses the snapshot into the one-line [`DeploymentStats`].
    pub fn deployment_stats(&self) -> DeploymentStats {
        DeploymentStats {
            uptime: self.uptime,
            processed: self.processed_total(),
            errors: self.errors_total(),
            task_instances: self.tasks.iter().map(|t| t.instances).sum(),
            state_instances: self.states.iter().map(|s| s.instances).sum(),
            state_bytes: self.state_bytes_total(),
            scale_outs: self.scale_outs(),
            scale_ins: self.scale_ins(),
            checkpoints_taken: self.checkpoints.taken,
        }
    }

    /// Renders a human-readable multi-line report.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "deployment metrics (uptime {:.1}s, {} processed, {} errors)",
            self.uptime.as_secs_f64(),
            self.processed_total(),
            self.errors_total()
        );
        let _ = writeln!(
            out,
            "  {:<16} {:>4} {:>10} {:>10} {:>8} {:>6} {:>6}  {:>20} {:>20}",
            "task",
            "inst",
            "in",
            "processed",
            "out",
            "err",
            "queue",
            "service p50/p95",
            "latency p50/p95"
        );
        for t in &self.tasks {
            let _ = writeln!(
                out,
                "  {:<16} {:>4} {:>10} {:>10} {:>8} {:>6} {:>6}  {:>20} {:>20}",
                t.name,
                t.instances,
                t.items_in,
                t.processed,
                t.items_out,
                t.errors,
                t.queue_depth,
                fmt_p50_p95(&t.service),
                fmt_p50_p95(&t.latency),
            );
        }
        if !self.states.is_empty() {
            let _ = writeln!(
                out,
                "  {:<16} {:>4} {:>12} {:>12} {:>7} {:>7} {:>6}",
                "state", "inst", "bytes", "dirty", "stripes", "dchunks", "ckpts"
            );
            for s in &self.states {
                let _ = writeln!(
                    out,
                    "  {:<16} {:>4} {:>12} {:>12} {:>7} {:>7} {:>6}",
                    s.name,
                    s.instances,
                    s.bytes,
                    s.dirty_bytes,
                    s.stripes,
                    s.dirty_chunks,
                    s.checkpoints
                );
            }
        }
        let c = &self.checkpoints;
        let _ = writeln!(
            out,
            "  checkpoints: {} taken ({} deltas), {} failed, {} bytes, {} replayed, \
             {} deferred encodes, {} buffered bytes",
            c.taken, c.deltas, c.failed, c.bytes, c.replayed, c.encode_deferred, c.buffered_bytes
        );
        let r = &self.reconfig;
        let _ = writeln!(
            out,
            "  reconfig: {} scale-outs, {} scale-ins, migrated p50 {} bytes ({} episodes)",
            r.scale_outs, r.scale_ins, r.migrated_bytes.p50, r.migrated_bytes.count
        );
        let sc = &self.sched;
        if sc.workers > 0 {
            let _ = writeln!(
                out,
                "  sched: {} workers, {} polls, {} steals, {} parks, {} suspends, \
                 {} resumes, {} timer fires, {} queued",
                sc.workers,
                sc.polls,
                sc.steals,
                sc.parks,
                sc.suspends,
                sc.resumes,
                sc.timer_fires,
                sc.mailbox_depth
            );
        }
        let f = &self.faults;
        let rv = &self.recovery;
        if f.worker_panics + f.heartbeats_missed + f.chunks_corrupt + f.io_retries + rv.started > 0
        {
            let _ = writeln!(
                out,
                "  faults: {} panics, {} heartbeats missed, {} corrupt chunks, {} io retries, \
                 detection p50 {:.3}ms",
                f.worker_panics,
                f.heartbeats_missed,
                f.chunks_corrupt,
                f.io_retries,
                ns_to_ms(f.detection.p50),
            );
            let _ = writeln!(
                out,
                "  recovery: {} started, {} succeeded, {} failed, {} chain fallbacks, \
                 {} in flight, mttr p50 {:.3}ms",
                rv.started,
                rv.succeeded,
                rv.failed,
                rv.chain_fallbacks,
                rv.in_flight,
                ns_to_ms(rv.mttr.p50),
            );
        }
        if c.taken > 0 {
            let _ = writeln!(
                out,
                "    phases p50 (ms): snapshot {:.3}, persist {:.3}, consolidate {:.3}, sync {:.3}, restore {:.3}",
                ns_to_ms(c.snapshot.p50),
                ns_to_ms(c.persist.p50),
                ns_to_ms(c.consolidate.p50),
                ns_to_ms(c.sync.p50),
                ns_to_ms(c.restore.p50),
            );
        }
        if self.e2e_latency.count > 0 {
            let l = &self.e2e_latency;
            let _ = writeln!(
                out,
                "  e2e latency (ms): p5 {:.3}  p50 {:.3}  p95 {:.3}  p99 {:.3}  max {:.3}  ({} samples)",
                ns_to_ms(l.p5),
                ns_to_ms(l.p50),
                ns_to_ms(l.p95),
                ns_to_ms(l.p99),
                ns_to_ms(l.max),
                l.count
            );
        }
        let _ = writeln!(
            out,
            "  events: {} logged, {} dropped",
            self.events_logged, self.events_dropped
        );
        for e in &self.events {
            let _ = writeln!(
                out,
                "    [{:>10.3}s] #{} {}",
                e.at.as_secs_f64(),
                e.seq,
                render_event_detail(&e.kind)
            );
        }
        out
    }

    /// Renders the snapshot as a single-line JSON object with a stable key
    /// order (parseable by [`super::json::parse`]).
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push('{');
        let _ = write!(out, "\"uptime_ms\":{:.3},", ms(self.uptime));
        out.push_str("\"tasks\":[");
        for (i, t) in self.tasks.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"name\":{},\"task_id\":{},\"instances\":{},\"items_in\":{},\"items_out\":{},\
                 \"emits\":{},\"processed\":{},\"errors\":{},\"gather_waits\":{},\"queue_depth\":{},\
                 \"service_ns\":{},\"latency_ns\":{}}}",
                super::json::escape(&t.name),
                t.id.map(|id| id.raw().to_string())
                    .unwrap_or_else(|| "null".into()),
                t.instances,
                t.items_in,
                t.items_out,
                t.emits,
                t.processed,
                t.errors,
                t.gather_waits,
                t.queue_depth,
                summary_json(&t.service),
                summary_json(&t.latency),
            );
        }
        out.push_str("],\"states\":[");
        for (i, s) in self.states.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"name\":{},\"state_id\":{},\"instances\":{},\"bytes\":{},\"dirty_bytes\":{},\
                 \"stripes\":{},\"dirty_chunks\":{},\"checkpoints\":{}}}",
                super::json::escape(&s.name),
                s.id.map(|id| id.raw().to_string())
                    .unwrap_or_else(|| "null".into()),
                s.instances,
                s.bytes,
                s.dirty_bytes,
                s.stripes,
                s.dirty_chunks,
                s.checkpoints,
            );
        }
        let c = &self.checkpoints;
        let _ = write!(
            out,
            "],\"checkpoints\":{{\"taken\":{},\"deltas\":{},\"failed\":{},\"bytes\":{},\"replayed\":{},\
             \"encode_deferred\":{},\"buffered_bytes\":{},\
             \"snapshot_ns\":{},\"persist_ns\":{},\"consolidate_ns\":{},\"sync_ns\":{},\
             \"restore_ns\":{}}},",
            c.taken,
            c.deltas,
            c.failed,
            c.bytes,
            c.replayed,
            c.encode_deferred,
            c.buffered_bytes,
            summary_json(&c.snapshot),
            summary_json(&c.persist),
            summary_json(&c.consolidate),
            summary_json(&c.sync),
            summary_json(&c.restore),
        );
        let r = &self.reconfig;
        let _ = write!(
            out,
            "\"reconfig\":{{\"scale_outs\":{},\"scale_ins\":{},\"migrated_bytes\":{}}},",
            r.scale_outs,
            r.scale_ins,
            summary_json(&r.migrated_bytes),
        );
        let sc = &self.sched;
        let _ = write!(
            out,
            "\"sched\":{{\"workers\":{},\"polls\":{},\"steals\":{},\"parks\":{},\
             \"suspends\":{},\"resumes\":{},\"timer_fires\":{},\"mailbox_depth\":{}}},",
            sc.workers,
            sc.polls,
            sc.steals,
            sc.parks,
            sc.suspends,
            sc.resumes,
            sc.timer_fires,
            sc.mailbox_depth,
        );
        let f = &self.faults;
        let _ = write!(
            out,
            "\"faults\":{{\"worker_panics\":{},\"heartbeats_missed\":{},\"chunks_corrupt\":{},\
             \"io_retries\":{},\"detection_ns\":{}}},",
            f.worker_panics,
            f.heartbeats_missed,
            f.chunks_corrupt,
            f.io_retries,
            summary_json(&f.detection),
        );
        let rv = &self.recovery;
        let _ = write!(
            out,
            "\"recovery\":{{\"started\":{},\"succeeded\":{},\"failed\":{},\"chain_fallbacks\":{},\
             \"in_flight\":{},\"mttr_ns\":{}}},",
            rv.started,
            rv.succeeded,
            rv.failed,
            rv.chain_fallbacks,
            rv.in_flight,
            summary_json(&rv.mttr),
        );
        let _ = write!(
            out,
            "\"e2e_latency_ns\":{},",
            summary_json(&self.e2e_latency)
        );
        let _ = write!(
            out,
            "\"events_logged\":{},\"events_dropped\":{},\"events\":[",
            self.events_logged, self.events_dropped
        );
        for (i, e) in self.events.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&event_json(e));
        }
        out.push_str("]}");
        out
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn ns_to_ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

fn fmt_p50_p95(s: &Summary) -> String {
    if s.count == 0 {
        "-".to_string()
    } else {
        format!("{:.3}/{:.3}ms", ns_to_ms(s.p50), ns_to_ms(s.p95))
    }
}

fn summary_json(s: &Summary) -> String {
    format!(
        "{{\"count\":{},\"mean\":{:.3},\"min\":{},\"p5\":{},\"p25\":{},\"p50\":{},\"p75\":{},\
         \"p95\":{},\"p99\":{},\"max\":{}}}",
        s.count, s.mean, s.min, s.p5, s.p25, s.p50, s.p75, s.p95, s.p99, s.max
    )
}

fn render_event_detail(kind: &EventKind) -> String {
    match kind {
        EventKind::BottleneckDetected { task, fill } => {
            format!("bottleneck_detected task={task} fill={fill:.3}")
        }
        EventKind::ScaleOut {
            task,
            instances,
            node,
        } => format!("scale_out task={task} instances={instances} node={node}"),
        EventKind::ScaleIn {
            task,
            instances,
            node,
        } => format!("scale_in task={task} instances={instances} node={node}"),
        EventKind::RepartitionDrain { task, waited } => {
            format!("repartition_drain task={task} waited={:.3}ms", ms(*waited))
        }
        EventKind::StateMigrated { state, bytes, took } => {
            format!(
                "state_migrated state={state} bytes={bytes} took={:.3}ms",
                ms(*took)
            )
        }
        EventKind::CheckpointBegin { instance, seq } => {
            format!("checkpoint_begin instance={instance} seq={seq}")
        }
        EventKind::CheckpointBackup {
            instance,
            seq,
            bytes,
        } => format!("checkpoint_backup instance={instance} seq={seq} bytes={bytes}"),
        EventKind::CheckpointConsolidate { instance, seq } => {
            format!("checkpoint_consolidate instance={instance} seq={seq}")
        }
        EventKind::FailureInjected { instance } => {
            format!("failure_injected instance={instance}")
        }
        EventKind::RecoveryRestored { instance, took } => {
            format!(
                "recovery_restored instance={instance} took={:.3}ms",
                ms(*took)
            )
        }
        EventKind::RecoveryReplayed { instance, items } => {
            format!("recovery_replayed instance={instance} items={items}")
        }
        EventKind::RecoveryComplete { instance, took } => {
            format!(
                "recovery_complete instance={instance} took={:.3}ms",
                ms(*took)
            )
        }
        EventKind::WorkerPanicked { instance, message } => {
            format!("worker_panicked instance={instance} message={message}")
        }
        EventKind::HeartbeatMissed { instance, missed } => {
            format!("heartbeat_missed instance={instance} missed={missed}")
        }
        EventKind::RecoveryStarted { instance, attempt } => {
            format!("recovery_started instance={instance} attempt={attempt}")
        }
        EventKind::RecoverySucceeded { instance, attempt } => {
            format!("recovery_succeeded instance={instance} attempt={attempt}")
        }
        EventKind::RecoveryFailed {
            instance,
            attempt,
            error,
        } => format!("recovery_failed instance={instance} attempt={attempt} error={error}"),
        EventKind::ChunkCorrupt { instance, error } => {
            format!("chunk_corrupt instance={instance} error={error}")
        }
    }
}

fn event_json(e: &ObsEvent) -> String {
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\"seq\":{},\"at_ms\":{:.3},\"kind\":\"{}\"",
        e.seq,
        ms(e.at),
        e.kind.name()
    );
    match &e.kind {
        EventKind::BottleneckDetected { task, fill } => {
            let _ = write!(
                out,
                ",\"task\":{},\"fill\":{:.3}",
                super::json::escape(task),
                fill
            );
        }
        EventKind::ScaleOut {
            task,
            instances,
            node,
        }
        | EventKind::ScaleIn {
            task,
            instances,
            node,
        } => {
            let _ = write!(
                out,
                ",\"task\":{},\"instances\":{},\"node\":{}",
                super::json::escape(task),
                instances,
                node
            );
        }
        EventKind::StateMigrated { state, bytes, took } => {
            let _ = write!(
                out,
                ",\"state\":{},\"bytes\":{},\"took_ms\":{:.3}",
                super::json::escape(state),
                bytes,
                ms(*took)
            );
        }
        EventKind::RepartitionDrain { task, waited } => {
            let _ = write!(
                out,
                ",\"task\":{},\"waited_ms\":{:.3}",
                super::json::escape(task),
                ms(*waited)
            );
        }
        EventKind::CheckpointBegin { instance, seq }
        | EventKind::CheckpointConsolidate { instance, seq } => {
            let _ = write!(
                out,
                ",\"instance\":{},\"ckpt_seq\":{}",
                super::json::escape(instance),
                seq
            );
        }
        EventKind::CheckpointBackup {
            instance,
            seq,
            bytes,
        } => {
            let _ = write!(
                out,
                ",\"instance\":{},\"ckpt_seq\":{},\"bytes\":{}",
                super::json::escape(instance),
                seq,
                bytes
            );
        }
        EventKind::FailureInjected { instance } => {
            let _ = write!(out, ",\"instance\":{}", super::json::escape(instance));
        }
        EventKind::RecoveryRestored { instance, took }
        | EventKind::RecoveryComplete { instance, took } => {
            let _ = write!(
                out,
                ",\"instance\":{},\"took_ms\":{:.3}",
                super::json::escape(instance),
                ms(*took)
            );
        }
        EventKind::RecoveryReplayed { instance, items } => {
            let _ = write!(
                out,
                ",\"instance\":{},\"items\":{}",
                super::json::escape(instance),
                items
            );
        }
        EventKind::WorkerPanicked { instance, message } => {
            let _ = write!(
                out,
                ",\"instance\":{},\"message\":{}",
                super::json::escape(instance),
                super::json::escape(message)
            );
        }
        EventKind::HeartbeatMissed { instance, missed } => {
            let _ = write!(
                out,
                ",\"instance\":{},\"missed\":{}",
                super::json::escape(instance),
                missed
            );
        }
        EventKind::RecoveryStarted { instance, attempt }
        | EventKind::RecoverySucceeded { instance, attempt } => {
            let _ = write!(
                out,
                ",\"instance\":{},\"attempt\":{}",
                super::json::escape(instance),
                attempt
            );
        }
        EventKind::RecoveryFailed {
            instance,
            attempt,
            error,
        } => {
            let _ = write!(
                out,
                ",\"instance\":{},\"attempt\":{},\"error\":{}",
                super::json::escape(instance),
                attempt,
                super::json::escape(error)
            );
        }
        EventKind::ChunkCorrupt { instance, error } => {
            let _ = write!(
                out,
                ",\"instance\":{},\"error\":{}",
                super::json::escape(instance),
                super::json::escape(error)
            );
        }
    }
    out.push('}');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn summary(count: u64) -> Summary {
        Summary {
            count,
            mean: 10.0,
            min: if count > 0 { 5 } else { 0 },
            p5: 5,
            p25: 7,
            p50: 10,
            p75: 12,
            p95: 15,
            p99: 16,
            max: 17,
        }
    }

    fn sample_snapshot() -> MetricsSnapshot {
        MetricsSnapshot {
            uptime: Duration::from_millis(1500),
            tasks: vec![TaskStats {
                name: "put".into(),
                id: Some(TaskId(0)),
                instances: 2,
                items_in: 100,
                items_out: 90,
                emits: 10,
                processed: 100,
                errors: 0,
                gather_waits: 0,
                queue_depth: 3,
                service: summary(100),
                latency: summary(10),
            }],
            states: vec![StateStats {
                name: "kv".into(),
                id: Some(StateId(0)),
                instances: 2,
                bytes: 4096,
                dirty_bytes: 0,
                stripes: 16,
                dirty_chunks: 0,
                checkpoints: 1,
            }],
            checkpoints: CheckpointStats {
                taken: 1,
                deltas: 0,
                failed: 0,
                bytes: 2048,
                replayed: 0,
                encode_deferred: 4,
                buffered_bytes: 512,
                snapshot: summary(1),
                persist: summary(1),
                consolidate: summary(1),
                sync: summary(0),
                restore: summary(0),
            },
            reconfig: ReconfigStats {
                scale_outs: 1,
                scale_ins: 1,
                migrated_bytes: summary(2),
            },
            sched: SchedStats {
                workers: 4,
                polls: 200,
                steals: 12,
                parks: 8,
                suspends: 3,
                resumes: 3,
                timer_fires: 5,
                mailbox_depth: 6,
            },
            faults: FaultStats {
                worker_panics: 1,
                heartbeats_missed: 2,
                chunks_corrupt: 1,
                io_retries: 3,
                detection: summary(1),
            },
            recovery: RecoveryStats {
                started: 2,
                succeeded: 1,
                failed: 1,
                chain_fallbacks: 1,
                in_flight: 0,
                mttr: summary(1),
            },
            e2e_latency: summary(10),
            events: vec![
                ObsEvent {
                    seq: 0,
                    at: Duration::from_millis(750),
                    kind: EventKind::CheckpointBackup {
                        instance: "kv#0".into(),
                        seq: 1,
                        bytes: 2048,
                    },
                },
                ObsEvent {
                    seq: 1,
                    at: Duration::from_millis(900),
                    kind: EventKind::StateMigrated {
                        state: "kv".into(),
                        bytes: 512,
                        took: Duration::from_millis(4),
                    },
                },
                ObsEvent {
                    seq: 2,
                    at: Duration::from_millis(901),
                    kind: EventKind::ScaleIn {
                        task: "put".into(),
                        instances: 2,
                        node: 3,
                    },
                },
                ObsEvent {
                    seq: 3,
                    at: Duration::from_millis(950),
                    kind: EventKind::WorkerPanicked {
                        instance: "put#1".into(),
                        message: "boom".into(),
                    },
                },
                ObsEvent {
                    seq: 4,
                    at: Duration::from_millis(980),
                    kind: EventKind::RecoverySucceeded {
                        instance: "kv#1".into(),
                        attempt: 2,
                    },
                },
            ],
            events_logged: 5,
            events_dropped: 0,
        }
    }

    /// Golden test: the JSON renderer's byte-exact output is part of the
    /// snapshot schema contract (the CI smoke check parses it).
    #[test]
    fn json_renderer_golden() {
        let expected = concat!(
            "{\"uptime_ms\":1500.000,",
            "\"tasks\":[{\"name\":\"put\",\"task_id\":0,\"instances\":2,\"items_in\":100,",
            "\"items_out\":90,\"emits\":10,\"processed\":100,\"errors\":0,\"gather_waits\":0,",
            "\"queue_depth\":3,",
            "\"service_ns\":{\"count\":100,\"mean\":10.000,\"min\":5,\"p5\":5,\"p25\":7,\"p50\":10,",
            "\"p75\":12,\"p95\":15,\"p99\":16,\"max\":17},",
            "\"latency_ns\":{\"count\":10,\"mean\":10.000,\"min\":5,\"p5\":5,\"p25\":7,\"p50\":10,",
            "\"p75\":12,\"p95\":15,\"p99\":16,\"max\":17}}],",
            "\"states\":[{\"name\":\"kv\",\"state_id\":0,\"instances\":2,\"bytes\":4096,",
            "\"dirty_bytes\":0,\"stripes\":16,\"dirty_chunks\":0,\"checkpoints\":1}],",
            "\"checkpoints\":{\"taken\":1,\"deltas\":0,\"failed\":0,\"bytes\":2048,\"replayed\":0,",
            "\"encode_deferred\":4,\"buffered_bytes\":512,",
            "\"snapshot_ns\":{\"count\":1,\"mean\":10.000,\"min\":5,\"p5\":5,\"p25\":7,\"p50\":10,",
            "\"p75\":12,\"p95\":15,\"p99\":16,\"max\":17},",
            "\"persist_ns\":{\"count\":1,\"mean\":10.000,\"min\":5,\"p5\":5,\"p25\":7,\"p50\":10,",
            "\"p75\":12,\"p95\":15,\"p99\":16,\"max\":17},",
            "\"consolidate_ns\":{\"count\":1,\"mean\":10.000,\"min\":5,\"p5\":5,\"p25\":7,\"p50\":10,",
            "\"p75\":12,\"p95\":15,\"p99\":16,\"max\":17},",
            "\"sync_ns\":{\"count\":0,\"mean\":10.000,\"min\":0,\"p5\":5,\"p25\":7,\"p50\":10,",
            "\"p75\":12,\"p95\":15,\"p99\":16,\"max\":17},",
            "\"restore_ns\":{\"count\":0,\"mean\":10.000,\"min\":0,\"p5\":5,\"p25\":7,\"p50\":10,",
            "\"p75\":12,\"p95\":15,\"p99\":16,\"max\":17}},",
            "\"reconfig\":{\"scale_outs\":1,\"scale_ins\":1,",
            "\"migrated_bytes\":{\"count\":2,\"mean\":10.000,\"min\":5,\"p5\":5,\"p25\":7,",
            "\"p50\":10,\"p75\":12,\"p95\":15,\"p99\":16,\"max\":17}},",
            "\"sched\":{\"workers\":4,\"polls\":200,\"steals\":12,\"parks\":8,",
            "\"suspends\":3,\"resumes\":3,\"timer_fires\":5,\"mailbox_depth\":6},",
            "\"faults\":{\"worker_panics\":1,\"heartbeats_missed\":2,\"chunks_corrupt\":1,",
            "\"io_retries\":3,",
            "\"detection_ns\":{\"count\":1,\"mean\":10.000,\"min\":5,\"p5\":5,\"p25\":7,\"p50\":10,",
            "\"p75\":12,\"p95\":15,\"p99\":16,\"max\":17}},",
            "\"recovery\":{\"started\":2,\"succeeded\":1,\"failed\":1,\"chain_fallbacks\":1,",
            "\"in_flight\":0,",
            "\"mttr_ns\":{\"count\":1,\"mean\":10.000,\"min\":5,\"p5\":5,\"p25\":7,\"p50\":10,",
            "\"p75\":12,\"p95\":15,\"p99\":16,\"max\":17}},",
            "\"e2e_latency_ns\":{\"count\":10,\"mean\":10.000,\"min\":5,\"p5\":5,\"p25\":7,",
            "\"p50\":10,\"p75\":12,\"p95\":15,\"p99\":16,\"max\":17},",
            "\"events_logged\":5,\"events_dropped\":0,",
            "\"events\":[{\"seq\":0,\"at_ms\":750.000,\"kind\":\"checkpoint_backup\",",
            "\"instance\":\"kv#0\",\"ckpt_seq\":1,\"bytes\":2048},",
            "{\"seq\":1,\"at_ms\":900.000,\"kind\":\"state_migrated\",",
            "\"state\":\"kv\",\"bytes\":512,\"took_ms\":4.000},",
            "{\"seq\":2,\"at_ms\":901.000,\"kind\":\"scale_in\",",
            "\"task\":\"put\",\"instances\":2,\"node\":3},",
            "{\"seq\":3,\"at_ms\":950.000,\"kind\":\"worker_panicked\",",
            "\"instance\":\"put#1\",\"message\":\"boom\"},",
            "{\"seq\":4,\"at_ms\":980.000,\"kind\":\"recovery_succeeded\",",
            "\"instance\":\"kv#1\",\"attempt\":2}]}",
        );
        assert_eq!(sample_snapshot().to_json(), expected);
    }

    #[test]
    fn json_round_trips_through_the_parser() {
        let snap = sample_snapshot();
        let parsed = super::super::json::parse(&snap.to_json()).unwrap();
        assert_eq!(parsed.get("tasks").unwrap().as_array().unwrap().len(), 1);
        let task = &parsed.get("tasks").unwrap().as_array().unwrap()[0];
        assert_eq!(task.get("processed").unwrap().as_u64(), Some(100));
        assert_eq!(task.get("name").unwrap().as_str(), Some("put"));
        assert_eq!(
            parsed.get("events").unwrap().as_array().unwrap()[0]
                .get("kind")
                .unwrap()
                .as_str(),
            Some("checkpoint_backup")
        );
        let sched = parsed.get("sched").unwrap();
        assert_eq!(sched.get("workers").unwrap().as_u64(), Some(4));
        assert_eq!(sched.get("steals").unwrap().as_u64(), Some(12));
    }

    #[test]
    fn text_renderer_mentions_every_section() {
        let text = sample_snapshot().to_text();
        assert!(text.contains("deployment metrics"));
        assert!(text.contains("put"));
        assert!(text.contains("kv"));
        assert!(text.contains("checkpoints: 1 taken"));
        assert!(text.contains("4 deferred encodes, 512 buffered bytes"));
        assert!(text.contains("reconfig: 1 scale-outs, 1 scale-ins"));
        assert!(text.contains("sched: 4 workers, 200 polls, 12 steals"));
        assert!(text.contains("faults: 1 panics, 2 heartbeats missed, 1 corrupt chunks"));
        assert!(text.contains("recovery: 2 started, 1 succeeded, 1 failed, 1 chain fallbacks"));
        assert!(text.contains("e2e latency"));
        assert!(text.contains("checkpoint_backup"));
        assert!(text.contains("state_migrated state=kv bytes=512"));
        assert!(text.contains("scale_in task=put instances=2 node=3"));
        assert!(text.contains("worker_panicked instance=put#1 message=boom"));
        assert!(text.contains("recovery_succeeded instance=kv#1 attempt=2"));
    }

    #[test]
    fn aggregate_stats_sum_tasks_and_states() {
        let snap = sample_snapshot();
        let stats = snap.deployment_stats();
        assert_eq!(stats.processed, 100);
        assert_eq!(stats.errors, 0);
        assert_eq!(stats.task_instances, 2);
        assert_eq!(stats.state_instances, 2);
        assert_eq!(stats.state_bytes, 4096);
        assert_eq!(stats.checkpoints_taken, 1);
        assert_eq!(stats.scale_outs, 0);
        assert_eq!(stats.scale_ins, 1);
        assert_eq!(snap.task_by_id(TaskId(0)).unwrap().name, "put");
        assert_eq!(snap.state_by_id(StateId(0)).unwrap().bytes, 4096);
        assert!(snap.task("nope").is_none());
    }
}
