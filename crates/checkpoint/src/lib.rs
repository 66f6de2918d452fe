//! Failure recovery for SDGs (§5 of the paper).
//!
//! The mechanism combines **asynchronous local checkpoints** with **message
//! replay**, avoiding both global checkpoint coordination and global
//! rollback:
//!
//! 1. each node periodically checkpoints its local SE instances
//!    ([`coordinator`]); checkpoint initiation is O(1) thanks to the
//!    dirty-state support in `sdg-state` — processing continues on the
//!    overlay while a background thread serialises the snapshot;
//! 2. checkpoints embed a vector timestamp of the last item applied from
//!    each input dataflow; upstream nodes trim their output buffers below
//!    all downstream checkpoints ([`buffer`]);
//! 3. checkpoints are hash-partitioned into chunks by `Key::stable_hash`
//!    and streamed to `m` backup stores round-robin. Each take is a base
//!    generation or a delta of the chunks dirtied since the previous take;
//!    a failed instance is restored from its base + delta chain to `n` new
//!    instances in parallel, the *m-to-n* pattern of Fig. 4 ([`backup`],
//!    [`recovery`]);
//! 4. after restoring state, the node reprocesses items replayed from
//!    upstream output buffers; downstream nodes discard duplicates by
//!    timestamp.
//!
//! A synchronous ("stop-the-world") mode is also provided so the benchmark
//! harness can reproduce the comparison of Fig. 12.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod backup;
pub mod buffer;
pub mod cell;
pub mod config;
pub mod coordinator;
pub mod recovery;

pub use backup::{BackupSet, BackupStore, ChunkKey, DeltaMeta, StoreFaultSpec};
pub use buffer::{BufferedItem, OutputBuffer};
pub use cell::StateCell;
pub use config::CheckpointConfig;
pub use coordinator::{take_checkpoint, take_checkpoint_with, CheckpointOptions};
pub use recovery::{restore_chain, restore_chain_resilient, RestoreOptions};
