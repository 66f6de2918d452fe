//! Fig. 11 — recovery time under different m-to-n strategies.
//!
//! A failed SE instance is restored from a base checkpoint held on `m`
//! backup stores onto `n` recovering instances. The paper's shape: 1-to-1
//! is the slowest (one disk, one rebuilder); adding a second disk (2-to-1)
//! helps while I/O dominates; adding a second rebuilder (1-to-2) helps when
//! state reconstruction dominates; 2-to-2 combines both and wins.

use std::sync::Arc;
use std::time::{Duration, Instant};

use sdg_checkpoint::backup::BackupStore;
use sdg_checkpoint::cell::StateCell;
use sdg_checkpoint::config::CheckpointConfig;
use sdg_checkpoint::coordinator::{take_checkpoint_with, CheckpointOptions};
use sdg_checkpoint::recovery::{restore_chain_resilient, RestoreOptions};
use sdg_common::ids::{EdgeId, InstanceId, TaskId};
use sdg_common::obs::MetricsRegistry;
use sdg_common::value::{Key, Value};
use sdg_state::partition::PartitionDim;
use sdg_state::store::StateType;

use crate::util::fmt_bytes;
use crate::Scale;

/// Stripe count of the checkpointed cell (the runtime's default).
const STRIPES: usize = 16;

/// Checkpoint chunk space, tracked by the cell's dirty chunks.
const CHUNKS: usize = 64;

/// Value payload size per key.
const VALUE: usize = 1024;

/// One `(state size, strategy)` measurement.
#[derive(Debug, Clone)]
pub struct Fig11Row {
    /// Serialised base-generation size in bytes.
    pub state_bytes: usize,
    /// Backup stores (`m`).
    pub m: usize,
    /// Recovering instances (`n`).
    pub n: usize,
    /// Time to read chunks and reconstitute the instances.
    pub recovery: Duration,
}

/// Builds a striped table cell holding roughly `bytes` of state, routing
/// each key to its owning stripe as the runtime dispatcher does. Returns
/// the cell, its key count and the last timestamp written.
fn build_cell(bytes: usize) -> (StateCell, usize, u64) {
    let cell = StateCell::new_striped(StateType::Table, STRIPES, PartitionDim::Row, Some(CHUNKS));
    let keys = (bytes / VALUE).max(1);
    let payload = "y".repeat(VALUE);
    for k in 0..keys {
        let route = Some(Key::Int(k as i64).stable_hash());
        cell.apply_routed(EdgeId(0), (k + 1) as u64, route, |s| {
            s.as_table()
                .expect("table cell")
                .put(Key::Int(k as i64), Value::str(&payload));
        });
    }
    (cell, keys, keys as u64)
}

/// Runs the m-to-n sweep.
pub fn run(scale: Scale) -> Vec<Fig11Row> {
    let sizes_mb: Vec<usize> = scale.pick(vec![4, 16], vec![16, 64, 128]);
    let strategies = [(1usize, 1usize), (2, 1), (1, 2), (2, 2)];
    // Simulated resources: each backup disk streams at `read_bps`; each
    // recovering node reconstitutes state at `rebuild_bps`. m parallelises
    // the first, n the second — the trade-off Fig. 11 studies.
    let read_bps = 150_000_000u64;
    let write_bps = 400_000_000u64;
    let rebuild_bps = 150_000_000u64;

    let mut rows = Vec::new();
    let mut seq = 0u64;
    for mb in sizes_mb {
        let bytes = mb * 1024 * 1024;
        let (cell, _, _) = build_cell(bytes);
        for (m, n) in strategies {
            let stores: Vec<Arc<BackupStore>> = (0..m)
                .map(|_| {
                    Arc::new(
                        BackupStore::in_memory().with_bandwidth(Some(write_bps), Some(read_bps)),
                    )
                })
                .collect();
            let obs = MetricsRegistry::new();
            let cfg = CheckpointConfig::builder()
                .backup_fanout(m)
                .chunks(CHUNKS)
                .serialise_threads(4)
                .build();
            // Each strategy re-bases: its stores start empty.
            seq += 1;
            let base = take_checkpoint_with(
                &cell,
                InstanceId::new(TaskId(0), 0),
                seq,
                Vec::new,
                &stores,
                &cfg,
                Some(obs.checkpoints()),
                CheckpointOptions { force_full: true },
            )
            .expect("checkpoint");
            let chain = [base];

            // Median of three trials: restore timing shares the host with
            // other processes.
            let mut times: Vec<Duration> = (0..3)
                .map(|_| {
                    let t0 = Instant::now();
                    let restored = restore_chain_resilient(
                        &chain,
                        &stores,
                        n,
                        RestoreOptions {
                            rebuild_bps: Some(rebuild_bps),
                        },
                        Some(obs.checkpoints()),
                    )
                    .expect("restore");
                    assert_eq!(restored.parts.len(), n);
                    t0.elapsed()
                })
                .collect();
            times.sort();
            crate::util::publish_snapshot(&format!("ckpt {m}-to-{n} {mb}MB"), obs.snapshot());
            rows.push(Fig11Row {
                state_bytes: chain[0].state_bytes,
                m,
                n,
                recovery: times[1],
            });
        }
    }
    rows
}

/// Prints the figure's series.
pub fn print(rows: &[Fig11Row]) {
    println!("# Fig 11 — recovery time by m-to-n strategy");
    println!("{:<12} {:<10} {:>12}", "state", "strategy", "recovery");
    for row in rows {
        println!(
            "{:<12} {:<10} {:>10.2}s",
            fmt_bytes(row.state_bytes),
            format!("{}-to-{}", row.m, row.n),
            row.recovery.as_secs_f64()
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdg_checkpoint::recovery::restore_chain;

    #[test]
    fn two_to_two_beats_one_to_one() {
        let rows = run(Scale::Quick);
        // For the largest size, 2-to-2 must be faster than 1-to-1.
        let largest = rows.iter().map(|r| r.state_bytes).max().unwrap();
        let at = |m: usize, n: usize| {
            rows.iter()
                .find(|r| r.state_bytes == largest && r.m == m && r.n == n)
                .unwrap()
                .recovery
        };
        let r11 = at(1, 1);
        let r22 = at(2, 2);
        assert!(r22 < r11, "2-to-2 ({r22:?}) must beat 1-to-1 ({r11:?})");
        print(&rows);
    }

    #[test]
    fn recovery_time_grows_with_state() {
        let rows = run(Scale::Quick);
        let sizes: Vec<usize> = {
            let mut v: Vec<usize> = rows.iter().map(|r| r.state_bytes).collect();
            v.sort_unstable();
            v.dedup();
            v
        };
        if sizes.len() >= 2 {
            let small = rows
                .iter()
                .find(|r| r.state_bytes == sizes[0] && r.m == 1 && r.n == 1)
                .unwrap();
            let large = rows
                .iter()
                .find(|r| r.state_bytes == *sizes.last().unwrap() && r.m == 1 && r.n == 1)
                .unwrap();
            assert!(large.recovery > small.recovery);
        }
    }

    /// Overwrites ~10 % of the keys (the delta between two checkpoints).
    fn dirty_writes(cell: &StateCell, keys: usize, ts: &mut u64) {
        let payload = "z".repeat(VALUE);
        for k in 0..(keys / 10).max(1) {
            *ts += 1;
            let route = Some(Key::Int(k as i64).stable_hash());
            cell.apply_routed(EdgeId(0), *ts, route, |s| {
                s.as_table()
                    .expect("table cell")
                    .put(Key::Int(k as i64), Value::str(&payload));
            });
        }
    }

    /// Composing a base + delta chain restores exactly the live state,
    /// n-ways, on the fig11 workload.
    #[test]
    fn chain_restore_matches_live_state() {
        let (cell, keys, mut ts) = build_cell(256 * 1024);
        let stores = vec![Arc::new(BackupStore::in_memory())];
        let cfg = CheckpointConfig::builder().chunks(CHUNKS).build();
        let base = take_checkpoint_with(
            &cell,
            InstanceId::new(TaskId(0), 0),
            1,
            Vec::new,
            &stores,
            &cfg,
            None,
            CheckpointOptions::default(),
        )
        .unwrap();
        dirty_writes(&cell, keys, &mut ts);
        let delta = take_checkpoint_with(
            &cell,
            InstanceId::new(TaskId(0), 0),
            2,
            Vec::new,
            &stores,
            &cfg,
            None,
            CheckpointOptions::default(),
        )
        .unwrap();
        assert!(base.is_base() && !delta.is_base());
        assert!(delta.state_bytes < base.state_bytes / 2, "delta is small");

        let restored =
            restore_chain(&[base, delta], &stores, 2, RestoreOptions::default()).unwrap();
        let mut got: Vec<(Vec<u8>, Vec<u8>)> = restored
            .iter()
            .flat_map(|(s, _)| s.export_entries())
            .map(|e| (e.key, e.value))
            .collect();
        got.sort();
        let mut want: Vec<(Vec<u8>, Vec<u8>)> = cell
            .export_merged()
            .0
            .into_iter()
            .map(|e| (e.key, e.value))
            .collect();
        want.sort();
        assert_eq!(got, want);
    }
}
