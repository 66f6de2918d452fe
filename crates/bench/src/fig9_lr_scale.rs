//! Fig. 9 — batch logistic regression: throughput scaling vs nodes.
//!
//! Both systems scale near-linearly; the SDG throughput sits above the
//! Spark-like baseline because SDG tasks stay materialised and pipelined,
//! while the scheduled engine re-instantiates its tasks every iteration.

use std::sync::Arc;
use std::time::{Duration, Instant};

use sdg_apps::lr::LrApp;
use sdg_apps::workloads::lr_examples;
use sdg_baselines::sparklike::{synthetic_dataset, SparkLikeConfig, SparkLikeLogisticRegression};
use sdg_runtime::config::RuntimeConfig;

use crate::util::shape_verdict;
use crate::Scale;

/// One node-count row (throughput in MB/s of training data).
#[derive(Debug, Clone)]
pub struct Fig9Row {
    /// Simulated nodes (SDG partial instances / Spark worker threads).
    pub nodes: usize,
    /// SDG streaming trainer throughput.
    pub sdg_mbps: f64,
    /// Spark-like scheduled batch throughput.
    pub spark_mbps: f64,
}

/// Runs the node sweep.
pub fn run(scale: Scale) -> Vec<Fig9Row> {
    let node_counts: Vec<usize> = scale.pick(vec![1, 2, 4], vec![2, 4, 8]);
    let dims = scale.pick(32, 64);
    let examples = scale.pick(8_000, 60_000);
    let iterations = scale.pick(3, 5);

    node_counts
        .into_iter()
        .map(|nodes| {
            // SDG: stream `iterations` epochs through the pipeline; each
            // example is dims × 8 bytes.
            // Model a 40 µs per-example training cost (gradient compute on
            // a real node); instances train in parallel.
            let app = Arc::new(
                LrApp::start_tuned(
                    nodes,
                    dims,
                    Some(Duration::from_micros(40)),
                    RuntimeConfig::default(),
                )
                .expect("deploy LR"),
            );
            let data = lr_examples(examples, dims, 17);
            let t0 = Instant::now();
            let threads = nodes.min(8);
            std::thread::scope(|scope| {
                for t in 0..threads {
                    let app = Arc::clone(&app);
                    let chunk: Vec<_> = data.iter().skip(t).step_by(threads).cloned().collect();
                    scope.spawn(move || {
                        let mut handle = app.deployment().ingest_handle().expect("handle");
                        for _ in 0..iterations {
                            for ex in &chunk {
                                let x = sdg_common::value::Value::List(
                                    ex.features
                                        .iter()
                                        .map(|&v| sdg_common::value::Value::Float(v))
                                        .collect(),
                                );
                                handle
                                    .submit(
                                        "train",
                                        sdg_common::record! {
                                            "x" => x,
                                            "label" => sdg_common::value::Value::Float(ex.label),
                                        },
                                    )
                                    .expect("train");
                            }
                        }
                    });
                }
            });
            assert!(app.quiesce(Duration::from_secs(600)));
            let sdg_bytes = examples * dims * 8 * iterations;
            let sdg_mbps = sdg_bytes as f64 / t0.elapsed().as_secs_f64() / 1e6;
            crate::util::publish_snapshot(&format!("sdg-lr {nodes}n"), app.deployment().metrics());
            Arc::try_unwrap(app)
                .map(LrApp::shutdown)
                .ok()
                .expect("feeders joined");

            // Spark-like: same data volume, scheduled per iteration. The
            // partition count is fixed across node counts (as on a real
            // cluster, where the dataset layout does not change).
            let dataset = synthetic_dataset(examples, dims, 16, 17);
            // Both engines get the same 40 µs per-example service time; the
            // difference is scheduling per iteration vs pipelining.
            let mut engine = SparkLikeLogisticRegression::new(SparkLikeConfig {
                nodes,
                task_launch: Duration::from_millis(25),
                per_example: Duration::from_micros(40),
                learning_rate: 0.5,
            });
            let stats = engine.run(&dataset, iterations);
            let spark_mbps = stats.throughput_bps / 1e6;
            crate::util::publish_snapshot(&format!("sparklike-lr {nodes}n"), engine.metrics());

            Fig9Row {
                nodes,
                sdg_mbps,
                spark_mbps,
            }
        })
        .collect()
}

/// Prints the figure's series and its shape verdict.
pub fn print(rows: &[Fig9Row]) {
    println!("# Fig 9 — logistic regression throughput vs nodes");
    println!("{:<6} {:>12} {:>12}", "nodes", "SDG MB/s", "Spark MB/s");
    for row in rows {
        println!(
            "{:<6} {:>12.1} {:>12.1}",
            row.nodes, row.sdg_mbps, row.spark_mbps
        );
    }
    // The paper's shape: both engines scale with the node count, and the
    // pipelined SDG beats the scheduled engine at every node count (no
    // per-iteration task re-instantiation).
    if let (Some(first), Some(last)) = (rows.first(), rows.last()) {
        let ahead = rows.iter().all(|r| r.sdg_mbps > r.spark_mbps);
        let holds = ahead && last.sdg_mbps > first.sdg_mbps && last.spark_mbps > first.spark_mbps;
        println!(
            "shape ({} -> {} nodes): SDG {:.1} -> {:.1} MB/s, Spark-like {:.1} -> {:.1} MB/s, \
             SDG ahead at every node count: {} — {}",
            first.nodes,
            last.nodes,
            first.sdg_mbps,
            last.sdg_mbps,
            first.spark_mbps,
            last.spark_mbps,
            ahead,
            shape_verdict(holds)
        );
    }
}
