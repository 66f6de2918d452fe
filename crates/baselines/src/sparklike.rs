//! A scheduled stateless batch engine for iterative jobs (Fig. 9).
//!
//! Models Spark's execution of batch logistic regression: every iteration
//! schedules one task per partition (paying a task-launch cost each time,
//! because tasks are not materialised across iterations), tasks are
//! stateless (the weight vector is broadcast and gradients come back as
//! fresh immutable arrays), and a reduce step folds the partial gradients.
//!
//! The SDG counterpart keeps its TEs materialised and pipelined, so it
//! skips the per-iteration re-instantiation — the gap Fig. 9 shows.

use std::time::{Duration, Instant};

use sdg_common::obs::{MetricsRegistry, MetricsSnapshot, TaskShard};

/// One labelled example.
#[derive(Debug, Clone)]
pub struct Example {
    /// Feature vector.
    pub features: Vec<f64>,
    /// Label in `{-1.0, +1.0}`.
    pub label: f64,
}

/// Configuration of the Spark-like engine.
#[derive(Debug, Clone)]
pub struct SparkLikeConfig {
    /// Simulated nodes (worker threads).
    pub nodes: usize,
    /// Task-launch overhead paid per task per iteration.
    pub task_launch: Duration,
    /// Modelled per-example processing cost on a node (zero = only the
    /// real gradient math). Lets comparisons against other engines use the
    /// same record service time.
    pub per_example: Duration,
    /// Learning rate.
    pub learning_rate: f64,
}

impl Default for SparkLikeConfig {
    fn default() -> Self {
        SparkLikeConfig {
            nodes: 4,
            task_launch: Duration::from_micros(500),
            per_example: Duration::ZERO,
            learning_rate: 0.1,
        }
    }
}

/// Result of a logistic regression run.
#[derive(Debug, Clone)]
pub struct LrRunStats {
    /// Final weights.
    pub weights: Vec<f64>,
    /// Wall-clock time for all iterations.
    pub elapsed: Duration,
    /// Bytes of training data touched per iteration.
    pub bytes_per_iteration: usize,
    /// Throughput in bytes/second across the whole run.
    pub throughput_bps: f64,
}

/// Batch logistic regression on the scheduled stateless engine.
#[derive(Debug)]
pub struct SparkLikeLogisticRegression {
    cfg: SparkLikeConfig,
    obs: MetricsRegistry,
    iter_task: TaskShard,
}

impl SparkLikeLogisticRegression {
    /// Creates an engine.
    pub fn new(cfg: SparkLikeConfig) -> Self {
        let obs = MetricsRegistry::new();
        let iter_task = obs.task("iteration");
        iter_task.instances.set(cfg.nodes as u64);
        // The broadcast weight vector is the engine's only "state"; it is
        // rebuilt (not mutated) every iteration, which is the point of the
        // comparison.
        obs.state("weights").instances.set(1);
        SparkLikeLogisticRegression {
            cfg,
            iter_task: iter_task.shard(),
            obs,
        }
    }

    /// Freezes the engine's instruments into the shared snapshot schema.
    pub fn metrics(&self) -> MetricsSnapshot {
        self.obs.snapshot()
    }

    /// Runs `iterations` of gradient descent over `partitions` of examples.
    ///
    /// # Panics
    ///
    /// Panics if there are no partitions or all partitions are empty.
    pub fn run(&mut self, partitions: &[Vec<Example>], iterations: usize) -> LrRunStats {
        let dims = partitions
            .iter()
            .flat_map(|p| p.first())
            .map(|e| e.features.len())
            .max()
            .expect("non-empty dataset");
        let total_examples: usize = partitions.iter().map(Vec::len).sum();
        assert!(total_examples > 0, "non-empty dataset");
        let bytes_per_iteration = total_examples * dims * 8;

        let mut weights = vec![0.0f64; dims];
        self.obs.state("weights").bytes.set((dims * 8) as u64);
        let start = Instant::now();
        for _ in 0..iterations {
            let iter_start = Instant::now();
            // Schedule: one fresh task per partition per node slot; each
            // launch pays the fixed cost (tasks are not reused).
            let gradients: Vec<Vec<f64>> = std::thread::scope(|scope| {
                let mut handles = Vec::new();
                for chunk in partitions.chunks(partitions.len().div_ceil(self.cfg.nodes)) {
                    let weights = weights.clone(); // Broadcast.
                    let task_launch = self.cfg.task_launch;
                    let per_example = self.cfg.per_example;
                    handles.push(scope.spawn(move || {
                        let mut grad = vec![0.0f64; weights.len()];
                        for partition in chunk {
                            // Per-task launch cost, once per partition.
                            spin_sleep(task_launch);
                            // Modelled record service time, paid per record
                            // exactly as the SDG runtime pays it, so both
                            // engines share the same service-time model.
                            if !per_example.is_zero() {
                                for _ in 0..partition.len() {
                                    std::thread::sleep(per_example);
                                }
                            }
                            // Stateless gradient task: reads the broadcast
                            // weights, emits a fresh gradient array.
                            accumulate_gradient(&weights, partition, &mut grad);
                        }
                        grad
                    }));
                }
                handles
                    .into_iter()
                    .map(|h| h.join().expect("task"))
                    .collect()
            });
            // Reduce: fold the partial gradients into new weights (a new
            // immutable vector each iteration).
            let mut next = weights.clone();
            for grad in gradients {
                for (w, g) in next.iter_mut().zip(grad) {
                    *w += self.cfg.learning_rate * g / total_examples as f64;
                }
            }
            weights = next;
            self.iter_task.add_items_in(total_examples as u64);
            self.iter_task.add_processed(total_examples as u64);
            self.iter_task
                .record_service(iter_start.elapsed().as_nanos() as u64);
            // Each iteration replaces the broadcast state wholesale — the
            // stateless engine's analogue of a checkpointed version.
            self.obs.state("weights").checkpoints.inc();
        }
        let elapsed = start.elapsed();
        LrRunStats {
            weights,
            elapsed,
            bytes_per_iteration,
            throughput_bps: (bytes_per_iteration * iterations) as f64 / elapsed.as_secs_f64(),
        }
    }
}

/// Adds the logistic-loss gradient of `examples` at `weights` into `grad`.
pub fn accumulate_gradient(weights: &[f64], examples: &[Example], grad: &mut [f64]) {
    for ex in examples {
        let margin: f64 = weights
            .iter()
            .zip(&ex.features)
            .map(|(w, x)| w * x)
            .sum::<f64>()
            * ex.label;
        let coeff = ex.label * (1.0 / (1.0 + margin.exp()));
        for (g, x) in grad.iter_mut().zip(&ex.features) {
            *g += coeff * x;
        }
    }
}

/// Generates a deterministic synthetic dataset with a known separating
/// direction, split into `partitions` parts.
pub fn synthetic_dataset(
    examples: usize,
    dims: usize,
    partitions: usize,
    seed: u64,
) -> Vec<Vec<Example>> {
    let mut out: Vec<Vec<Example>> = (0..partitions).map(|_| Vec::new()).collect();
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    let mut next = move || {
        // xorshift64*; deterministic and dependency-free.
        state ^= state >> 12;
        state ^= state << 25;
        state ^= state >> 27;
        state.wrapping_mul(0x2545_F491_4F6C_DD1D)
    };
    for i in 0..examples {
        let features: Vec<f64> = (0..dims)
            .map(|_| (next() % 2_000) as f64 / 1_000.0 - 1.0)
            .collect();
        // True separator: sum of features.
        let label = if features.iter().sum::<f64>() >= 0.0 {
            1.0
        } else {
            -1.0
        };
        out[i % partitions].push(Example { features, label });
    }
    out
}

fn spin_sleep(d: Duration) {
    if d > Duration::from_micros(200) {
        std::thread::sleep(d);
    } else {
        let end = Instant::now() + d;
        while Instant::now() < end {
            std::hint::spin_loop();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gradient_descent_learns_the_separator() {
        let data = synthetic_dataset(2_000, 8, 4, 7);
        let mut engine = SparkLikeLogisticRegression::new(SparkLikeConfig {
            nodes: 2,
            task_launch: Duration::from_micros(10),
            per_example: Duration::ZERO,
            learning_rate: 1.0,
        });
        let stats = engine.run(&data, 30);
        // The learned weights must classify most of the training set.
        let correct: usize = data
            .iter()
            .flatten()
            .filter(|ex| {
                let score: f64 = stats
                    .weights
                    .iter()
                    .zip(&ex.features)
                    .map(|(w, x)| w * x)
                    .sum();
                (score >= 0.0) == (ex.label > 0.0)
            })
            .count();
        let total: usize = data.iter().map(Vec::len).sum();
        assert!(
            correct as f64 / total as f64 > 0.9,
            "accuracy {}/{total}",
            correct
        );
        assert!(stats.throughput_bps > 0.0);
        let snap = engine.metrics();
        let iter = snap.task("iteration").expect("iteration task stats");
        assert_eq!(iter.processed, 2_000 * 30);
        assert_eq!(iter.service.count, 30);
        let weights = snap.state("weights").expect("weights state stats");
        assert_eq!(weights.checkpoints, 30, "one broadcast per iteration");
        assert_eq!(weights.bytes, 8 * 8);
    }

    #[test]
    fn task_launch_overhead_slows_iterations() {
        let data = synthetic_dataset(200, 4, 8, 3);
        let fast = SparkLikeLogisticRegression::new(SparkLikeConfig {
            nodes: 2,
            task_launch: Duration::from_micros(1),
            per_example: Duration::ZERO,
            learning_rate: 0.1,
        })
        .run(&data, 10);
        let slow = SparkLikeLogisticRegression::new(SparkLikeConfig {
            nodes: 2,
            task_launch: Duration::from_millis(2),
            per_example: Duration::ZERO,
            learning_rate: 0.1,
        })
        .run(&data, 10);
        assert!(slow.elapsed > fast.elapsed);
        assert!(slow.throughput_bps < fast.throughput_bps);
    }

    #[test]
    fn dataset_is_deterministic_and_partitioned() {
        let a = synthetic_dataset(100, 4, 3, 42);
        let b = synthetic_dataset(100, 4, 3, 42);
        assert_eq!(a.len(), 3);
        assert_eq!(a.iter().map(Vec::len).sum::<usize>(), 100);
        for (pa, pb) in a.iter().zip(&b) {
            for (ea, eb) in pa.iter().zip(pb) {
                assert_eq!(ea.features, eb.features);
                assert_eq!(ea.label, eb.label);
            }
        }
        let c = synthetic_dataset(100, 4, 3, 43);
        assert_ne!(
            a[0][0].features, c[0][0].features,
            "different seeds must differ"
        );
    }

    #[test]
    fn more_nodes_speed_up_the_run() {
        let data = synthetic_dataset(6_000, 16, 8, 5);
        let one = SparkLikeLogisticRegression::new(SparkLikeConfig {
            nodes: 1,
            task_launch: Duration::from_micros(50),
            per_example: Duration::from_micros(5),
            learning_rate: 0.1,
        })
        .run(&data, 5);
        let four = SparkLikeLogisticRegression::new(SparkLikeConfig {
            nodes: 4,
            task_launch: Duration::from_micros(50),
            per_example: Duration::from_micros(5),
            learning_rate: 0.1,
        })
        .run(&data, 5);
        assert!(
            four.elapsed < one.elapsed,
            "parallel run must be faster: {:?} vs {:?}",
            four.elapsed,
            one.elapsed
        );
    }
}
