//! Translation of analysed StateLang programs into SDGs (§4.2).
//!
//! This crate is the analogue of the paper's `java2sdg` tool. Given a
//! checked [`sdg_ir::Program`], it:
//!
//! 1. generates one state element per annotated field (step 2);
//! 2. classifies every state access (step 3, via `sdg_ir::analysis`);
//! 3. cuts each entry method into task elements at state-access boundaries,
//!    following the paper's five rules (step 4):
//!    - a TE per entry point;
//!    - a new TE on partitioned access to a new SE or a new access key,
//!      with the dataflow edge annotated by the key;
//!    - a new TE on global access to a partial SE, with one-to-all
//!      dispatch;
//!    - a new TE on local access to a partial SE, with one-to-any dispatch
//!      (all-to-one with a barrier when it follows global access);
//!    - a new TE for `@Collection` expressions, gathered all-to-one;
//! 4. attaches the live variables to each dataflow edge (step 5); and
//! 5. packages each TE's statements as an interpretable
//!    [`sdg_ir::te::TeProgram`] (steps 6–8; interpretation replaces
//!    bytecode generation).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod build;
mod segment;

pub use build::translate;
pub use segment::{segment_method, Segment, SegmentCtx};
