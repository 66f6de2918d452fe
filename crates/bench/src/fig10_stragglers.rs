//! Fig. 10 — reactive runtime parallelism under stragglers.
//!
//! The paper deploys CF on a cluster that includes one slow machine. The
//! monitor detects the bottleneck TE (the CPU-intensive `updateCoOcc`),
//! adds an instance — which lands on the straggler and helps little — then
//! detects the still-saturated queues and adds another on a fast node,
//! restoring progress. Shortest-queue dispatch keeps the straggler from
//! throttling its peers. The experiment records a throughput timeline
//! together with the instance count.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use sdg_apps::cf::CF_SOURCE;
use sdg_apps::workloads::ratings;
use sdg_common::obs::{EventKind, ObsEvent};
use sdg_common::record;
use sdg_common::value::Value;
use sdg_ir::parser::parse_program;
use sdg_runtime::config::{ClusterSpec, NodeSpec, RuntimeConfig, ScalingConfig};
use sdg_runtime::deploy::Deployment;
use sdg_translate::translate;

use crate::util::fmt_rate;
use crate::Scale;

/// One timeline sample.
#[derive(Debug, Clone, Copy)]
pub struct Fig10Sample {
    /// Time since deployment start.
    pub at: Duration,
    /// Requests per second over the sampling interval.
    pub throughput: f64,
    /// Instances of the bottleneck task at sample time.
    pub instances: u32,
}

/// The experiment's outputs: a timeline plus the scale events.
#[derive(Debug, Clone)]
pub struct Fig10Result {
    /// Throughput/instances samples.
    pub timeline: Vec<Fig10Sample>,
    /// Structured scale-out and scale-in events (with bottleneck
    /// detections) from the deployment's event log, recorded while the
    /// feeder ran.
    pub events: Vec<ObsEvent>,
}

/// Runs the straggler experiment.
pub fn run(scale: Scale) -> Fig10Result {
    let sdg = translate(&parse_program(CF_SOURCE).expect("parse CF")).expect("translate CF");
    // The CPU-intensive TE is updateCoOcc (§3.2): `addRating_1` updates the
    // partial co-occurrence matrix for every rating.
    let bottleneck = sdg
        .task_by_name("addRating_1")
        .expect("updateCoOcc task")
        .id;

    // The CF graph occupies nodes 0-2; the first scale-out lands on node 3,
    // which is the slow machine (speed 0.3).
    let cfg = RuntimeConfig::builder()
        .channel_capacity(64)
        .cluster(ClusterSpec {
            nodes: vec![
                NodeSpec { speed: 1.0 },
                NodeSpec { speed: 1.0 },
                NodeSpec { speed: 1.0 },
                NodeSpec { speed: 0.3 },
                NodeSpec { speed: 1.0 },
                NodeSpec { speed: 1.0 },
            ],
        })
        .scaling(ScalingConfig {
            enabled: true,
            check_interval: Duration::from_millis(100),
            high_watermark: 0.5,
            patience: 2,
            max_instances: 4,
            ..Default::default()
        })
        .work_ns(bottleneck, scale.pick(150_000, 300_000))
        .build();
    let deployment = Arc::new(Deployment::start(sdg, cfg).expect("deploy CF"));

    // Preload a few ratings so the matrices are non-trivial.
    for r in ratings(500, 100_000, 10_000, 11) {
        deployment
            .submit(
                "addRating",
                record! {"user" => Value::Int(r.user), "item" => Value::Int(r.item), "rating" => Value::Int(r.rating)},
            )
            .expect("preload");
    }
    assert!(deployment.quiesce(Duration::from_secs(60)));

    // Feeder: stream new ratings as fast as backpressure allows; the
    // updateCoOcc stage is the bottleneck.
    let stop = Arc::new(AtomicBool::new(false));
    let feeder = {
        let deployment = Arc::clone(&deployment);
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut handle = deployment.ingest_handle().expect("handle");
            // Uniform users over a wide domain keep rating rows small, so
            // the per-item cost stays flat over the measurement window and
            // the timeline isolates the scaling behaviour.
            let mut i: i64 = 0;
            while !stop.load(Ordering::Acquire) {
                i += 1;
                let (user, item) = (i % 100_000, i % 9_973);
                if handle
                    .submit(
                        "addRating",
                        record! {"user" => Value::Int(user), "item" => Value::Int(item), "rating" => Value::Int(1 + i % 5)},
                    )
                    .is_err()
                {
                    break;
                }
            }
        })
    };

    // Sampler: rating-update throughput per interval.
    let duration = scale.pick(Duration::from_secs(5), Duration::from_secs(20));
    let sample_every = Duration::from_millis(250);
    let mut timeline = Vec::new();
    let started = Instant::now();
    let sample = |d: &sdg_runtime::deploy::Deployment| -> (u64, u32) {
        let snap = d.metrics();
        let t = snap.task_by_id(bottleneck).expect("bottleneck task stats");
        (t.processed, t.instances as u32)
    };
    let (mut last_processed, _) = sample(&deployment);
    while started.elapsed() < duration {
        std::thread::sleep(sample_every);
        let (now_processed, instances) = sample(&deployment);
        let delta = now_processed - last_processed;
        last_processed = now_processed;
        timeline.push(Fig10Sample {
            at: started.elapsed(),
            throughput: delta as f64 / sample_every.as_secs_f64(),
            instances,
        });
    }
    // The scale events of the timeline: taken before the feeder stops, so
    // a scale-in here happened under load.
    let events: Vec<ObsEvent> = deployment
        .events()
        .into_iter()
        .filter(|e| {
            matches!(
                e.kind,
                EventKind::ScaleOut { .. }
                    | EventKind::ScaleIn { .. }
                    | EventKind::BottleneckDetected { .. }
            )
        })
        .collect();
    stop.store(true, Ordering::Release);
    let _ = feeder.join();
    let _ = deployment.quiesce(Duration::from_secs(60));
    crate::util::publish_snapshot("sdg-cf straggler", deployment.metrics());
    Arc::try_unwrap(deployment)
        .ok()
        .expect("feeder joined")
        .shutdown();
    Fig10Result { timeline, events }
}

/// Prints the timeline.
pub fn print(result: &Fig10Result) {
    println!("# Fig 10 — throughput timeline under reactive scaling");
    println!("{:<8} {:>14} {:>10}", "t (s)", "throughput", "instances");
    for s in &result.timeline {
        println!(
            "{:<8.2} {:>14} {:>10}",
            s.at.as_secs_f64(),
            fmt_rate(s.throughput),
            s.instances
        );
    }
    println!("scale events:");
    for e in &result.events {
        match &e.kind {
            EventKind::ScaleOut {
                task,
                instances,
                node,
            } => println!(
                "  t={:.2}s task {task} -> {instances} instances (node n{node})",
                e.at.as_secs_f64(),
            ),
            EventKind::ScaleIn {
                task,
                instances,
                node,
            } => println!(
                "  t={:.2}s task {task} -> {instances} instances (node n{node} released)",
                e.at.as_secs_f64(),
            ),
            EventKind::BottleneckDetected { task, fill } => println!(
                "  t={:.2}s bottleneck {task} (queue fill {fill:.2})",
                e.at.as_secs_f64(),
            ),
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaling_fires_and_throughput_improves() {
        let result = run(Scale::Quick);
        assert!(!result.timeline.is_empty());
        assert!(
            !result.events.is_empty(),
            "the monitor must scale the bottleneck task"
        );
        // Throughput after scaling must clearly beat the single-instance
        // start. Use the first sample (pre/mid scale-out) against the best
        // of the settled tail, so shared-host noise cannot flip the check.
        let early = result.timeline[0].throughput.max(1.0);
        let late = result
            .timeline
            .iter()
            .rev()
            .take(8)
            .map(|s| s.throughput)
            .fold(0.0f64, f64::max);
        assert!(
            late > early * 1.3,
            "throughput should improve after scaling: early {early:.0}, late {late:.0}"
        );
        let final_instances = result.timeline.last().unwrap().instances;
        assert!(final_instances > 1);
        // `addRating_1` stays busy, so its `coOcc` group never shrinks under
        // load, even though the group's `getRec_1` sees no traffic.
        let scale_ins: Vec<_> = (result.events.iter())
            .filter(|e| matches!(e.kind, EventKind::ScaleIn { .. }))
            .collect();
        assert!(scale_ins.is_empty(), "scale-in under load: {scale_ins:?}");
    }
}
