//! The fixed schema of the benchmark: workloads, sizes and metrics.
//!
//! Every size is a *count*. Nothing in a run is bounded by a timer, so two
//! runs of one seed do identical work and a run's length is a result, not
//! an input. `--seconds` scales the number of epochs, paced segments and
//! recovery rounds relative to [`NOMINAL_SECONDS`]; it never time-bounds a
//! loop.

/// Wall time one run is sized for at seed speed, and `run_seconds` in
/// `BENCHMARK.json`.
pub const NOMINAL_SECONDS: u32 = 28;

/// Partitions of every partitioned SE and partials of every partial SE:
/// what a user of a 2-core host would deploy.
pub const PARTITIONS: usize = 2;

/// `submit` calls longer than this count as blocked on backpressure.
pub const BLOCKED_SUBMIT_NS: u64 = 50_000;

/// How long `quiesce` may take before the run is abandoned as wedged.
pub const QUIESCE_TIMEOUT_S: u64 = 120;

/// What a workload runs and how its inputs are distributed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Kind {
    /// `KV_SOURCE`: `put` / `get` over `keys` integer keys.
    Kv {
        keys: usize,
        value_bytes: usize,
        get_share: f64,
        /// Zipf exponent of the key popularity; `0.0` is uniform.
        theta: f64,
    },
    /// `CF_SOURCE`: `addRating` / `getRec`.
    Cf {
        users: usize,
        items: usize,
        user_theta: f64,
        item_theta: f64,
        rec_share: f64,
    },
    /// `WcApp`: `addLine` of `words_per_line` words.
    Wc {
        vocab: usize,
        words_per_line: usize,
        theta: f64,
    },
}

/// One workload: a program, an input distribution and the size of every
/// phase.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Spec {
    pub name: &'static str,
    pub why: &'static str,
    pub kind: Kind,
    /// Requests fed into every fresh deployment before it is measured.
    pub preload: usize,
    /// Steady phase: epochs, requests per epoch, and checkpoints taken
    /// concurrently with the feed, at evenly spaced request indices.
    pub epochs: usize,
    pub epoch_requests: usize,
    pub epoch_checkpoints: usize,
    /// Paced segments of a traced run (one fresh deployment each):
    /// open-loop rate (≈ ¼ of seed saturation) and half-second latency
    /// windows per segment.
    pub paced_rate: u64,
    pub paced_segments: usize,
    pub paced_windows: usize,
    /// One request in this many is a latency sentinel (workloads without a
    /// response path only).
    pub sentinel_every: usize,
    /// Recovery phase: rounds (one fresh deployment each), cycles of
    /// {feed, kills, checkpoint} per round, kill/recover repetitions per
    /// cycle, and write requests fed per cycle.
    pub recovery_rounds: usize,
    pub recovery_cycles: usize,
    pub recovery_kills: usize,
    pub recovery_requests: usize,
    /// Requests sampled from the workload for the layer probes.
    pub probe_samples: usize,
}

pub const WORKLOADS: [Spec; 4] = [
    Spec {
        name: "kv-write",
        why: "95% put on uniform keys: ingest dispatch, mailbox hop, cell lock, table op, buffer logging, heavy checkpoints",
        kind: Kind::Kv {
            keys: 100_000,
            value_bytes: 64,
            get_share: 0.05,
            theta: 0.0,
        },
        preload: 100_000,
        epochs: 6,
        epoch_requests: 800_000,
        epoch_checkpoints: 2,
        paced_rate: 100_000,
        paced_segments: 2,
        paced_windows: 4,
        sentinel_every: 0,
        recovery_rounds: 3,
        recovery_cycles: 1,
        recovery_kills: 5,
        recovery_requests: 50_000,
        probe_samples: 10_000,
    },
    Spec {
        name: "kv-read-zipf",
        why: "95% get on Zipf(0.99) keys: hot stripes contend, every request crosses the sink, checkpoints are light",
        kind: Kind::Kv {
            keys: 20_000,
            value_bytes: 64,
            get_share: 0.95,
            theta: 0.99,
        },
        preload: 20_000,
        epochs: 8,
        epoch_requests: 800_000,
        epoch_checkpoints: 2,
        paced_rate: 100_000,
        paced_segments: 2,
        paced_windows: 4,
        sentinel_every: 0,
        recovery_rounds: 4,
        recovery_cycles: 1,
        recovery_kills: 5,
        recovery_requests: 50_000,
        probe_samples: 10_000,
    },
    Spec {
        name: "cf-mixed",
        why: "getRec:addRating 1:1: compute-bound compiled TEs with a @Global gather barrier and merge; dispatch is negligible",
        kind: Kind::Cf {
            users: 1_000,
            items: 200,
            user_theta: 0.8,
            item_theta: 1.0,
            rec_share: 0.5,
        },
        preload: 5_000,
        epochs: 10,
        epoch_requests: 3_500,
        epoch_checkpoints: 2,
        paced_rate: 400,
        paced_segments: 2,
        paced_windows: 4,
        sentinel_every: 0,
        recovery_rounds: 4,
        recovery_cycles: 1,
        recovery_kills: 15,
        recovery_requests: 2_500,
        probe_samples: 1_000,
    },
    Spec {
        name: "wc-zipf",
        why: "10-word lines, Zipf(1.0) vocabulary: two stages with 1-to-10 fan-out over a partitioned edge; dispatch, routing, logging",
        kind: Kind::Wc {
            vocab: 50_000,
            words_per_line: 10,
            theta: 1.0,
        },
        preload: 20_000,
        epochs: 8,
        epoch_requests: 70_000,
        epoch_checkpoints: 2,
        paced_rate: 8_000,
        paced_segments: 2,
        paced_windows: 4,
        sentinel_every: 320,
        recovery_rounds: 3,
        recovery_cycles: 1,
        recovery_kills: 5,
        recovery_requests: 10_000,
        probe_samples: 10_000,
    },
];

pub fn workload(name: &str) -> Option<&'static Spec> {
    WORKLOADS.iter().find(|w| w.name == name)
}

impl Spec {
    /// The spec with its repeat counts scaled to `seconds` of run time.
    /// Per-epoch sizes stay fixed so every sample measures the same work;
    /// floors keep each estimator at three samples or more.
    pub fn scaled_to(&self, seconds: u32) -> Spec {
        let scale = |n: usize, floor: usize| {
            ((n as f64 * f64::from(seconds) / f64::from(NOMINAL_SECONDS)).round() as usize)
                .max(floor)
        };
        Spec {
            epochs: scale(self.epochs, 3),
            paced_segments: scale(self.paced_segments, 2),
            recovery_rounds: scale(self.recovery_rounds, 2),
            ..*self
        }
    }

    /// The spec of a traced run, which spends part of the same wall time
    /// on paced segments and probes: fewer steady epochs (an even number,
    /// half of them left untraced to price the tracing) and fewer
    /// recovery rounds.
    pub fn traced(&self) -> Spec {
        Spec {
            epochs: (self.epochs.min(4) / 2 * 2).max(2),
            recovery_rounds: (self.recovery_rounds / 2).max(1),
            ..*self
        }
    }

    /// The spec at 1/20 size, for `perf check`.
    pub fn check_sized(&self) -> Spec {
        let cut = |n: usize| (n / 20).max(1);
        Spec {
            preload: cut(self.preload),
            epochs: 2,
            epoch_requests: cut(self.epoch_requests),
            paced_segments: 1,
            paced_windows: 2,
            paced_rate: (self.paced_rate / 20).max(50),
            sentinel_every: if self.sentinel_every == 0 { 0 } else { 8 },
            recovery_rounds: 2,
            // Repeated recovery of one deployment: checkpoints taken after
            // a recovery must themselves be recoverable.
            recovery_cycles: 2,
            recovery_kills: 2,
            recovery_requests: cut(self.recovery_requests),
            probe_samples: cut(self.probe_samples),
            ..*self
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// A metric's name, unit and direction; end-to-end metrics also carry the
/// share of the parent's median by which they may worsen.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: 0.0,
    }
}

/// What a user of the system sees; the same five on every workload.
///
/// The bounds are what this class of host resolves, not what one would
/// like: in A/A runs on the 2-core shared VM every wall- or CPU-time
/// metric spreads 5–12 % between identical runs (a fixed single-thread
/// loop already varies ±8 % between 5-second blocks), so those carry the
/// widest bound the contract allows. Peak RSS repeats within 1–4 %.
pub const END_TO_END: [MetricDef; 5] = [
    e2e("throughput_rps", "1/s", Better::Higher, 0.25),
    e2e("cpu_us_per_req", "us", Better::Lower, 0.25),
    e2e("recovery_ms", "ms", Better::Lower, 0.25),
    e2e("peak_rss_mb", "MB", Better::Lower, 0.10),
    e2e("setup_s", "s", Better::Lower, 0.25),
];

use Better::{Higher, Lower};

/// Single-layer measurements from the traced run; ungated.
pub const PER_LAYER: [MetricDef; 45] = [
    layer("ir.parse_ms", "ms", Lower),
    layer("translate.translate_ms", "ms", Lower),
    layer("deploy.start_ms", "ms", Lower),
    layer("deploy.preload_rps", "1/s", Higher),
    layer("deploy.submit_ns_p50", "ns", Lower),
    layer("deploy.submit_blocked_frac", "frac", Lower),
    layer("worker.service_ns_p50", "ns", Lower),
    layer("worker.items_per_req", "count", Lower),
    layer("worker.te_service_share", "frac", Higher),
    layer("sched.polls_per_item", "count", Lower),
    layer("sched.parks_per_kitem", "count", Lower),
    layer("sched.steals", "count", Lower),
    layer("sched.suspends", "count", Lower),
    layer("sched.ctx_switches_per_req", "count", Lower),
    layer("te.exec_ns_per_item", "ns", Lower),
    layer("state.put_ns", "ns", Lower),
    layer("state.get_ns", "ns", Lower),
    layer("cell.apply_ns_1t", "ns", Lower),
    layer("cell.apply_ns_2t", "ns", Lower),
    layer("state.bytes_end", "B", Lower),
    layer("codec.encode_ns_per_item", "ns", Lower),
    layer("codec.decode_ns_per_item", "ns", Lower),
    layer("codec.bytes_per_item", "B", Lower),
    layer("ckpt.total_ms_p50", "ms", Lower),
    layer("ckpt.snapshot_ms_p50", "ms", Lower),
    layer("ckpt.persist_ms_p50", "ms", Lower),
    layer("ckpt.consolidate_ms_p50", "ms", Lower),
    layer("ckpt.bytes_per_take", "B", Lower),
    layer("ckpt.persist_mb_per_s", "MB/s", Higher),
    layer("ckpt.feeder_stall_ms_max", "ms", Lower),
    layer("buffer.buffered_mb_end", "MB", Lower),
    layer("buffer.encode_deferred", "count", Lower),
    layer("recovery.restore_ms_p50", "ms", Lower),
    layer("recovery.replayed_items_p50", "count", Lower),
    layer("recovery.replay_us_per_item", "us", Lower),
    layer("recovery.restore_mb_per_s", "MB/s", Higher),
    layer("barrier.gather_waits_per_req", "count", Lower),
    layer("sink.outputs_per_req", "count", Lower),
    layer("client.latency_p50_ms", "ms", Lower),
    layer("client.latency_p99_ms", "ms", Lower),
    layer("client.latency_max_ms", "ms", Lower),
    layer("client.gen_lateness_ms_max", "ms", Lower),
    layer("proc.minor_faults_per_req", "count", Lower),
    layer("host.spin_ms", "ms", Lower),
    layer("proc.trace_overhead_frac", "frac", Lower),
];

pub fn metric_def(name: &str) -> Option<&'static MetricDef> {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|m| m.name == name)
}

/// The contents of `BENCHMARK.json`, generated from the tables above so
/// the manifest and the program cannot drift (a unit test compares the
/// checked-in file against this).
pub fn manifest_json() -> String {
    let mut out = String::from("{\n");
    out.push_str(
        "  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \
         \"--manifest-path\", \"perf/Cargo.toml\", \"--\"],\n",
    );
    out.push_str("  \"paths\": [\"perf\"],\n");
    out.push_str(&format!("  \"run_seconds\": {NOMINAL_SECONDS},\n"));
    out.push_str("  \"workloads\": [\n");
    for (i, w) in WORKLOADS.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"why\": \"{}\"}}{}\n",
            w.name,
            w.why,
            if i + 1 < WORKLOADS.len() { "," } else { "" }
        ));
    }
    out.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, m) in END_TO_END.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}{}\n",
            m.name,
            m.unit,
            m.better.as_str(),
            m.bound,
            if i + 1 < END_TO_END.len() { "," } else { "" }
        ));
    }
    out.push_str("  ],\n  \"per_layer\": [\n");
    for (i, m) in PER_LAYER.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}{}\n",
            m.name,
            m.unit,
            m.better.as_str(),
            if i + 1 < PER_LAYER.len() { "," } else { "" }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn the_checked_in_manifest_is_the_generated_one() {
        assert_eq!(
            include_str!("../../BENCHMARK.json"),
            manifest_json(),
            "regenerate with `perf manifest > BENCHMARK.json`"
        );
    }

    #[test]
    fn the_manifest_meets_the_contract_limits() {
        let json = sdg_common::obs::json::parse(&manifest_json()).expect("valid json");
        let names: Vec<&str> = WORKLOADS
            .iter()
            .map(|w| w.name)
            .chain(END_TO_END.iter().map(|m| m.name))
            .chain(PER_LAYER.iter().map(|m| m.name))
            .collect();
        let unique: HashSet<&str> = names.iter().copied().collect();
        assert_eq!(unique.len(), names.len(), "names are used once");
        for n in &names {
            assert!(
                n.len() <= 64 && n.as_bytes()[0].is_ascii_alphanumeric(),
                "{n}"
            );
            assert!(
                n.bytes()
                    .all(|b| b.is_ascii_alphanumeric() || b"_.-".contains(&b)),
                "{n}"
            );
        }
        for m in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(m.unit.len() <= 16, "{}", m.unit);
            assert!(
                m.unit
                    .bytes()
                    .all(|b| b.is_ascii_alphanumeric() || b"_/%.-".contains(&b)),
                "{}",
                m.unit
            );
        }
        for w in &WORKLOADS {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'));
        }
        for m in &END_TO_END {
            assert!(m.bound > 0.0 && m.bound <= 0.25);
        }
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s" && m.better == Better::Lower));
        assert!((1..=60).contains(&NOMINAL_SECONDS));
        assert_eq!(
            json.get("workloads").unwrap().as_array().unwrap().len(),
            WORKLOADS.len()
        );
        assert!(manifest_json().len() < 64 * 1024);
    }

    #[test]
    fn seconds_scale_repeat_counts_never_sizes() {
        let w = WORKLOADS[0];
        assert_eq!(w.scaled_to(NOMINAL_SECONDS), w);
        let half = w.scaled_to(NOMINAL_SECONDS / 2);
        assert_eq!(half.epoch_requests, w.epoch_requests);
        assert_eq!(half.preload, w.preload);
        assert!(half.epochs < w.epochs && half.epochs >= 3);
        assert!(w.scaled_to(1).epochs >= 3);
        assert!(w.scaled_to(2 * NOMINAL_SECONDS).epochs == 2 * w.epochs);
    }
}
