//! Comparison engines for the paper's evaluation (Table 1, Figs 6, 8, 9, 12).
//!
//! Three miniature engines reproduce the *architectural* behaviour of the
//! systems the paper compares against — enough to regenerate the shape of
//! each figure, with the same workload code paths as the SDG runtime:
//!
//! - [`microbatch`] — a Streaming-Spark-like discretised-stream engine:
//!   input is cut into window-sized batches, every batch is *scheduled*
//!   (per-batch task-launch overhead) and state is immutable, so each batch
//!   produces a new state version by copy-on-write. Below a minimum window
//!   the scheduling overhead exceeds the window and throughput collapses
//!   (Fig. 8).
//! - [`naiadlike`] — an engine with explicit per-task mutable state and
//!   configurable batch sizes, but **synchronous global checkpointing**:
//!   processing stops while the entire state is serialised and written out
//!   (Figs 6 and 12), either to a bandwidth-limited disk or to memory.
//! - [`sparklike`] — a scheduled stateless batch engine for iterative jobs:
//!   tasks are re-instantiated every iteration (launch overhead per task
//!   per iteration) and data structures are immutable (fresh allocations
//!   per iteration), the behaviour Fig. 9 contrasts with SDG pipelining.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod microbatch;
pub mod naiadlike;
pub mod sparklike;

pub use microbatch::MicroBatchWordCount;
pub use naiadlike::{NaiadCheckpointTarget, NaiadKvStore, NaiadWordCount};
pub use sparklike::SparkLikeLogisticRegression;

use std::time::{Duration, Instant};

/// Sleeps (or spins for short waits) to model fixed scheduling cost.
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
