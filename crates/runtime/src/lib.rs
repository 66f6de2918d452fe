//! Pipelined data-parallel execution engine for stateful dataflow graphs.
//!
//! The engine materialises an [`sdg_graph::Sdg`] onto a simulated cluster
//! (§3.3): every SE instance is an actor with a bounded input mailbox
//! (pipelining and backpressure, never per-item scheduling) hosting the TE
//! instances that access it, the SE instance itself is a
//! [`sdg_checkpoint::StateCell`] those TE instances share, a stateless TE
//! instance is an actor of its own, and dataflow edges are implemented by dispatchers on the
//! producer side (hash-partitioned, round-robin, broadcast, or all-to-one
//! gather with a synchronisation barrier).
//!
//! Runtime features:
//!
//! - **deploy-time slot compilation** of translated StateLang TE code
//!   ([`compile`], the engine): variable names are interned into
//!   per-TE symbol tables at deploy time and the per-item environment is a
//!   reused flat register file — the analogue of the paper's Javassist
//!   bytecode generation step (§4.2 step 6). Operator and accessor
//!   semantics are not defined here: the engine calls the kernels of the
//!   language crate's reference evaluator ([`sdg_ir::eval`]), whose
//!   `run_te` is the oracle of the engine-equivalence tests;
//! - a **work-stealing cooperative scheduler** ([`sched`]): one actor per
//!   SE instance (and per stateless TE instance), each with a serial
//!   mailbox, multiplexed onto a fixed pool of `sched_threads` workers (by
//!   default one per core), so replica counts can exceed core counts
//!   without one OS thread each. The TEs of one SE instance never run at
//!   once, and what one producer sends them runs in the order it was
//!   sent. Synthetic service time rests an actor on the pool's timer heap
//!   instead of holding a thread; every item is logged and sent the moment
//!   it is produced;
//! - **reactive scaling** (§3.3): a monitor watches queue depths and adds
//!   TE instances (and partial/partitioned SE instances) when a task
//!   becomes a bottleneck or a node straggles, and removes them again —
//!   live-migrating their state into the survivors — when the queues stay
//!   idle ([`scaling`]);
//! - a **typed reconfiguration control plane** ([`reconfig`]):
//!   [`deploy::Deployment::reconfigure`] executes scale-out, scale-in,
//!   checkpoint and failure-injection requests and returns a uniform
//!   report with timings, migrated bytes and resulting instance counts.
//!   One control thread runs the checkpoint timer, the scaling monitor
//!   and the supervisor, and one control sequencer orders every request
//!   with the supervisor's recoveries and `with_state`;
//! - **failure recovery** (§5): periodic asynchronous checkpoints, output
//!   buffers with trimming, node-failure injection, parallel restore and
//!   replay with timestamp-based duplicate filtering ([`deploy`]);
//! - a **self-healing supervisor** ([`fault`]): deterministic seeded
//!   fault injection (worker panics/stalls, backup-store I/O errors and
//!   torn writes), panic capture at the pool's actor boundary plus
//!   heartbeat-epoch hang detection, and automatic fail-and-recover with
//!   exponential backoff, jitter, a recovery storm guard and escalation
//!   to a terminal `Degraded` health state.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod compile;
pub mod config;
mod control;
pub mod deploy;
pub mod fault;
pub mod item;
pub mod reconfig;
pub mod scaling;
pub mod sched;
pub mod worker;

pub use compile::{run_compiled, Scratch};
pub use config::{ClusterSpec, NodeSpec, RuntimeConfig, ScalingConfig, SupervisorConfig};
pub use deploy::{Deployment, OutputEvent};
pub use fault::{FaultAction, FaultPlan, Health, WorkerFault};
pub use item::Item;
pub use reconfig::{ReconfigReport, ReconfigRequest};
pub use scaling::ScaleDirection;
