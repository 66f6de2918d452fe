//! The rendered form of every event kind.
//!
//! The snapshot JSON is parsed by the CI smoke check and by the benchmark
//! harness, so its bytes are part of the schema: one event of every
//! [`EventKind`] is pinned here.

use std::time::Duration;

use sdg_common::obs::{EventKind, MetricsRegistry, MetricsSnapshot, ObsEvent};

/// One event of every kind, each with its expected JSON object.
fn every_kind() -> Vec<(EventKind, &'static str)> {
    let ms = Duration::from_micros;
    vec![
        (
            EventKind::BottleneckDetected {
                task: "split".into(),
                fill: 0.875,
            },
            r#""kind":"bottleneck_detected","task":"split","fill":0.875}"#,
        ),
        (
            EventKind::ScaleOut {
                task: "split".into(),
                instances: 3,
                node: 2,
            },
            r#""kind":"scale_out","task":"split","instances":3,"node":2}"#,
        ),
        (
            EventKind::ScaleIn {
                task: "split".into(),
                instances: 2,
                node: 2,
            },
            r#""kind":"scale_in","task":"split","instances":2,"node":2}"#,
        ),
        (
            EventKind::RepartitionDrain {
                task: "count".into(),
                waited: ms(1_250),
            },
            r#""kind":"repartition_drain","task":"count","waited_ms":1.250}"#,
        ),
        (
            EventKind::StateMigrated {
                state: "counts".into(),
                bytes: 4096,
                took: ms(2_500),
            },
            r#""kind":"state_migrated","state":"counts","bytes":4096,"took_ms":2.500}"#,
        ),
        (
            EventKind::CheckpointBegin {
                instance: "counts#0".into(),
                seq: 7,
            },
            r#""kind":"checkpoint_begin","instance":"counts#0","ckpt_seq":7}"#,
        ),
        (
            EventKind::CheckpointBackup {
                instance: "counts#0".into(),
                seq: 7,
                bytes: 8192,
            },
            r#""kind":"checkpoint_backup","instance":"counts#0","ckpt_seq":7,"bytes":8192}"#,
        ),
        (
            EventKind::CheckpointConsolidate {
                instance: "counts#0".into(),
                seq: 7,
            },
            r#""kind":"checkpoint_consolidate","instance":"counts#0","ckpt_seq":7}"#,
        ),
        (
            EventKind::FailureInjected {
                instance: "counts#1".into(),
            },
            r#""kind":"failure_injected","instance":"counts#1"}"#,
        ),
        (
            EventKind::RecoveryRestored {
                instance: "counts#1".into(),
                took: ms(3_125),
            },
            r#""kind":"recovery_restored","instance":"counts#1","took_ms":3.125}"#,
        ),
        (
            EventKind::RecoveryReplayed {
                instance: "counts#1".into(),
                items: 42,
            },
            r#""kind":"recovery_replayed","instance":"counts#1","items":42}"#,
        ),
        (
            EventKind::RecoveryComplete {
                instance: "counts#1".into(),
                took: ms(5_000),
            },
            r#""kind":"recovery_complete","instance":"counts#1","took_ms":5.000}"#,
        ),
        (
            EventKind::WorkerPanicked {
                instance: "split#0".into(),
                message: "boom \"quoted\"".into(),
            },
            r#""kind":"worker_panicked","instance":"split#0","message":"boom \"quoted\""}"#,
        ),
        (
            EventKind::HeartbeatMissed {
                instance: "split#0".into(),
                missed: 3,
            },
            r#""kind":"heartbeat_missed","instance":"split#0","missed":3}"#,
        ),
        (
            EventKind::RecoveryStarted {
                instance: "counts#1".into(),
                attempt: 1,
            },
            r#""kind":"recovery_started","instance":"counts#1","attempt":1}"#,
        ),
        (
            EventKind::RecoverySucceeded {
                instance: "counts#1".into(),
                attempt: 1,
            },
            r#""kind":"recovery_succeeded","instance":"counts#1","attempt":1}"#,
        ),
        (
            EventKind::RecoveryFailed {
                instance: "counts#1".into(),
                attempt: 2,
                error: "chunk 3 missing".into(),
            },
            r#""kind":"recovery_failed","instance":"counts#1","attempt":2,"error":"chunk 3 missing"}"#,
        ),
        (
            EventKind::ChunkCorrupt {
                instance: "counts#1".into(),
                error: "checksum mismatch".into(),
            },
            r#""kind":"chunk_corrupt","instance":"counts#1","error":"checksum mismatch"}"#,
        ),
    ]
}

/// The variant's position in [`every_kind`]; a new variant fails to
/// compile here until it is pinned above.
fn position(kind: &EventKind) -> usize {
    match kind {
        EventKind::BottleneckDetected { .. } => 0,
        EventKind::ScaleOut { .. } => 1,
        EventKind::ScaleIn { .. } => 2,
        EventKind::RepartitionDrain { .. } => 3,
        EventKind::StateMigrated { .. } => 4,
        EventKind::CheckpointBegin { .. } => 5,
        EventKind::CheckpointBackup { .. } => 6,
        EventKind::CheckpointConsolidate { .. } => 7,
        EventKind::FailureInjected { .. } => 8,
        EventKind::RecoveryRestored { .. } => 9,
        EventKind::RecoveryReplayed { .. } => 10,
        EventKind::RecoveryComplete { .. } => 11,
        EventKind::WorkerPanicked { .. } => 12,
        EventKind::HeartbeatMissed { .. } => 13,
        EventKind::RecoveryStarted { .. } => 14,
        EventKind::RecoverySucceeded { .. } => 15,
        EventKind::RecoveryFailed { .. } => 16,
        EventKind::ChunkCorrupt { .. } => 17,
    }
}

/// A snapshot holding the events of [`every_kind`], the `i`-th logged
/// `1.5 · i` ms after start.
fn snapshot_of_every_kind() -> MetricsSnapshot {
    let mut snap = MetricsRegistry::new().snapshot();
    snap.events = every_kind()
        .into_iter()
        .enumerate()
        .map(|(i, (kind, _))| {
            assert_eq!(
                position(&kind),
                i,
                "every_kind lists each variant once, in order"
            );
            ObsEvent {
                seq: i as u64,
                at: Duration::from_micros(1_500 * i as u64),
                kind,
            }
        })
        .collect();
    snap
}

#[test]
fn json_golden_has_one_event_of_every_kind() {
    let json = snapshot_of_every_kind().to_json();
    let (_, events) = json.split_once("\"events\":[").expect("events array");
    let expected: Vec<String> = every_kind()
        .iter()
        .enumerate()
        .map(|(i, (_, body))| format!("{{\"seq\":{i},\"at_ms\":{:.3},{body}", 1.5 * i as f64))
        .collect();
    assert_eq!(events, format!("{}]}}", expected.join(",")));
}

#[test]
fn text_detail_is_the_name_then_the_json_keys() {
    let text = snapshot_of_every_kind().to_text();
    for (i, (_, body)) in every_kind().iter().enumerate() {
        // `"kind":"name","key":value,…}` → `name key=value …`, strings
        // bare and unescaped.
        let parsed = sdg_common::obs::json::parse(&format!("{{{body}")).expect("valid json");
        let mut pairs = body.trim_end_matches('}').split(",\"");
        let name = parsed.get("kind").and_then(|k| k.as_str()).expect("kind");
        pairs.next();
        let mut detail = name.to_string();
        for pair in pairs {
            let (key, raw) = pair.split_once("\":").expect("key:value");
            let value = parsed.get(key).and_then(|v| v.as_str()).unwrap_or(raw);
            detail += &format!(" {key}={value}");
        }
        let line = format!("] #{i} {detail}");
        assert!(
            text.lines().any(|l| l.ends_with(&line)),
            "no line ends with {line:?} in\n{text}"
        );
    }
}
