//! Fig. 6 — KV throughput/latency vs state size on a single node.
//!
//! SDG (asynchronous dirty-state checkpointing) against the Naiad-like
//! engine with synchronous global checkpointing, to disk and to memory.
//! The paper's shape: SDG throughput is flat as state grows; the
//! synchronous engine degrades because every checkpoint stalls processing
//! for a time proportional to the state size.

use std::time::{Duration, Instant};

use sdg_apps::kv::KvApp;
use sdg_baselines::naiadlike::{NaiadCheckpointTarget, NaiadConfig, NaiadKvStore};
use sdg_checkpoint::config::CheckpointConfig;
use sdg_common::metrics::Summary;
use sdg_runtime::config::RuntimeConfig;

use crate::util::{fmt_bytes, fmt_latency, fmt_rate, shape_verdict, OutputDrainer};
use crate::Scale;

/// Value payload size; state size = keys × payload.
pub const VALUE_BYTES: usize = 1024;

/// Modelled per-request service time applied to every engine in this
/// figure, so throughput differences come from checkpointing behaviour and
/// not from each engine's intrinsic in-process speed.
pub const PER_REQUEST: Duration = Duration::from_micros(50);

/// Parameters of one SDG KV measurement (shared by Figs 6, 12 and 13).
#[derive(Debug, Clone)]
pub struct KvMeasure {
    /// Preloaded state size in bytes.
    pub state_bytes: usize,
    /// Value payload size; `state_bytes / value_bytes` keys are preloaded.
    pub value_bytes: usize,
    /// Wall-clock measurement window.
    pub measure: Duration,
    /// Checkpoint interval (`None` = fault tolerance off).
    pub ckpt_interval: Option<Duration>,
    /// Stop-the-world mode (Fig. 12's baseline).
    pub synchronous: bool,
    /// Modelled per-request service time.
    pub per_request: Option<Duration>,
    /// Channel capacity between pipeline stages (bounds queueing latency).
    pub channel_capacity: usize,
}

impl Default for KvMeasure {
    fn default() -> Self {
        KvMeasure {
            state_bytes: 4 * 1024 * 1024,
            value_bytes: VALUE_BYTES,
            measure: Duration::from_secs(2),
            ckpt_interval: Some(Duration::from_millis(300)),
            synchronous: false,
            per_request: None,
            channel_capacity: 256,
        }
    }
}

/// One engine's measurement at one state size.
#[derive(Debug, Clone)]
pub struct EnginePoint {
    /// Updates per second.
    pub throughput: f64,
    /// Update latency percentiles.
    pub latency: Summary,
}

/// One state-size row of the figure.
#[derive(Debug, Clone)]
pub struct Fig6Row {
    /// Preloaded state size in bytes.
    pub state_bytes: usize,
    /// SDG with asynchronous checkpointing.
    pub sdg: EnginePoint,
    /// Naiad-like with synchronous checkpoints to a simulated disk.
    pub naiad_disk: EnginePoint,
    /// Naiad-like with synchronous checkpoints to memory.
    pub naiad_nodisk: EnginePoint,
}

/// Runs [`measure_sdg_kv`] `trials` times and returns the median point by
/// throughput — the host is shared, so single runs carry interference.
pub fn measure_sdg_kv_median(m: &KvMeasure, trials: usize) -> EnginePoint {
    let mut points: Vec<EnginePoint> = (0..trials.max(1)).map(|_| measure_sdg_kv(m)).collect();
    points.sort_by(|a, b| a.throughput.total_cmp(&b.throughput));
    points.swap_remove(points.len() / 2)
}

/// Measures SDG KV update throughput/latency with `state_bytes` of
/// preloaded state, checkpointing at `ckpt_interval`, over a fixed
/// wall-clock window (so several checkpoint cycles are captured). Also
/// used by the Fig. 12 and Fig. 13 experiments.
pub fn measure_sdg_kv(m: &KvMeasure) -> EnginePoint {
    // Checkpoints stream to a simulated 150 MB/s disk. Asynchronous mode
    // hides the write behind processing; synchronous mode stalls for it.
    let cfg = RuntimeConfig::builder()
        .channel_capacity(m.channel_capacity)
        .checkpoint(
            CheckpointConfig::builder()
                .enabled(m.ckpt_interval.is_some())
                .interval(m.ckpt_interval.unwrap_or(Duration::from_secs(3600)))
                .synchronous(m.synchronous)
                .disk_write_bps(Some(150_000_000))
                .build(),
        )
        .build();
    let app = KvApp::start_tuned(1, m.per_request, cfg).expect("deploy KV");
    let keys = (m.state_bytes / m.value_bytes).max(1);
    let payload = "x".repeat(m.value_bytes);
    // Preload the state fixture directly (test setup, not measured work).
    app.deployment()
        .with_state(app.state(), 0, |s| {
            let table = s.as_table().expect("kv table");
            for k in 0..keys {
                table.put(
                    sdg_common::value::Key::Int(k as i64),
                    sdg_common::value::Value::str(&payload),
                );
            }
        })
        .expect("preload");

    let drainer = OutputDrainer::start(app.deployment());
    // Warm up (fill queues, fault in the working set), then measure.
    let warmup_t0 = Instant::now();
    let mut ops = 0usize;
    while warmup_t0.elapsed() < m.measure / 5 {
        app.put_ack((ops % keys) as i64, &payload).expect("warmup");
        ops += 1;
    }
    app.deployment().reset_observations();
    let t0 = Instant::now();
    let mut ops = 0usize;
    while t0.elapsed() < m.measure {
        app.put_ack((ops % keys) as i64, &payload).expect("update");
        ops += 1;
    }
    assert!(app.quiesce(Duration::from_secs(600)));
    let elapsed = t0.elapsed();
    drainer.finish();
    let snapshot = app.deployment().metrics();
    let point = EnginePoint {
        throughput: ops as f64 / elapsed.as_secs_f64(),
        latency: snapshot.e2e_latency,
    };
    crate::util::publish_snapshot("sdg-kv", snapshot);
    app.shutdown();
    point
}

fn measure_naiad(
    state_bytes: usize,
    measure: Duration,
    ckpt_interval: Duration,
    target: NaiadCheckpointTarget,
) -> EnginePoint {
    let mut kv = NaiadKvStore::new(NaiadConfig {
        batch_size: 512,
        batch_overhead: Duration::from_micros(200),
        checkpoint_interval: ckpt_interval,
        target,
        per_request: PER_REQUEST,
    });
    let keys = (state_bytes / VALUE_BYTES).max(1);
    for k in 0..keys {
        kv.update(k as i64, vec![0u8; VALUE_BYTES]);
    }
    kv.flush();
    kv.reset_observations();

    let t0 = Instant::now();
    let mut ops = 0usize;
    while t0.elapsed() < measure {
        kv.update((ops % keys) as i64, vec![0u8; VALUE_BYTES]);
        ops += 1;
    }
    kv.flush();
    let elapsed = t0.elapsed();
    let snapshot = kv.metrics();
    let point = EnginePoint {
        throughput: ops as f64 / elapsed.as_secs_f64(),
        latency: snapshot.e2e_latency,
    };
    crate::util::publish_snapshot("naiad-kv", snapshot);
    point
}

/// Runs the state-size sweep.
pub fn run(scale: Scale) -> Vec<Fig6Row> {
    let sizes_mb: Vec<usize> = scale.pick(vec![1, 8, 32], vec![8, 32, 64, 128]);
    let measure = Duration::from_millis(scale.pick(2_000, 6_000));
    let interval = Duration::from_millis(scale.pick(300, 1_000));
    let disk_bps = 150_000_000; // 150 MB/s simulated disk.

    sizes_mb
        .into_iter()
        .map(|mb| {
            let bytes = mb * 1024 * 1024;
            Fig6Row {
                state_bytes: bytes,
                sdg: measure_sdg_kv(&KvMeasure {
                    state_bytes: bytes,
                    measure,
                    ckpt_interval: Some(interval),
                    per_request: Some(PER_REQUEST),
                    ..KvMeasure::default()
                }),
                naiad_disk: measure_naiad(
                    bytes,
                    measure,
                    interval,
                    NaiadCheckpointTarget::Disk {
                        write_bps: disk_bps,
                    },
                ),
                naiad_nodisk: measure_naiad(
                    bytes,
                    measure,
                    interval,
                    NaiadCheckpointTarget::Memory,
                ),
            }
        })
        .collect()
}

/// Prints the figure's series.
pub fn print(rows: &[Fig6Row]) {
    println!("# Fig 6 — KV throughput/latency vs state size (single node)");
    for row in rows {
        println!("state = {}", fmt_bytes(row.state_bytes));
        for (name, p) in [
            ("SDG (async ckpt)", &row.sdg),
            ("Naiad-Disk (sync)", &row.naiad_disk),
            ("Naiad-NoDisk (sync)", &row.naiad_nodisk),
        ] {
            println!(
                "  {:<20} {:>14}  {}",
                name,
                fmt_rate(p.throughput),
                fmt_latency(&p.latency)
            );
        }
    }
    // The paper's shape, from the smallest to the largest state: the
    // synchronous engine's checkpoint stall grows with the state and costs
    // it a large share of its throughput; the asynchronous SDG keeps
    // proportionally more.
    if let (Some(small), Some(large)) = (rows.first(), rows.last()) {
        let sdg = large.sdg.throughput / small.sdg.throughput;
        let naiad = large.naiad_disk.throughput / small.naiad_disk.throughput;
        println!(
            "shape ({} -> {}): SDG kept {sdg:.2} of its throughput, Naiad-Disk kept {naiad:.2} — {}",
            fmt_bytes(small.state_bytes),
            fmt_bytes(large.state_bytes),
            shape_verdict(naiad < 0.8 && sdg > naiad)
        );
    }
}
