//! State element (SE) data structures for stateful dataflow graphs.
//!
//! §3.2 of the paper requires SEs to be "efficient data structures, such as
//! hash tables or indexed sparse matrices" that support:
//!
//! - **fine-grained mutable access** on the processing path;
//! - **dirty state** (§5): while a checkpoint of the structure is being
//!   serialised, updates land in a separate overlay and reads consult the
//!   overlay first, so processing continues with minimal interruption;
//! - **dynamic partitioning** for partitioned SEs (placed by access-key
//!   hash across instances, on scaling and recovery alike:
//!   [`store::place_entry`]);
//! - **entry-level export/import** so checkpoints can be chunked and
//!   restored m-to-n (§5, Fig. 4).
//!
//! The dirty-state design here makes checkpoint initiation O(1): the base
//! structure lives behind an [`std::sync::Arc`], `begin_checkpoint` hands the
//! serialiser a clone of that `Arc` and flips the structure into dirty mode.
//! While dirty, the base is never mutated — writes go to an overlay map and
//! reads consult the overlay first — so the serialiser walks a consistent
//! snapshot without holding any lock. `consolidate` folds the overlay back
//! into the base once the checkpoint is durable.
//!
//! Three concrete structures cover the paper's applications:
//! [`table::KeyedTable`] (key/value store, wordcount), [`matrix::SparseMatrix`]
//! (collaborative filtering's `userItem` and `coOcc`), and
//! [`dense::DenseVector`] (logistic regression's weights). The
//! [`store::StateStore`] enum gives the runtime a uniform, enum-dispatched
//! view of all three.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dense;
pub mod entry;
pub mod matrix;
pub mod partition;
pub mod store;
pub mod table;

pub use dense::DenseVector;
pub use entry::StateEntry;
pub use matrix::SparseMatrix;
pub use store::{StateSnapshot, StateStore, StateType};
pub use table::KeyedTable;
