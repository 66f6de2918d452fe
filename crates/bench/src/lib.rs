//! The evaluation harness: code that regenerates every table and figure of
//! the paper's §6 (see `EXPERIMENTS.md` at the workspace root for the
//! recorded results).
//!
//! Each `figN` module implements one experiment — workload generation,
//! parameter sweep, the SDG deployment and the relevant baseline — and
//! returns printable series. The `repro` binary drives them:
//!
//! ```text
//! cargo run --release -p sdg-bench --bin repro -- all --quick
//! cargo run --release -p sdg-bench --bin repro -- fig6
//! ```
//!
//! Absolute numbers differ from the paper (its testbed was a 36-VM EC2
//! cluster; this is an in-process simulated cluster), but each experiment
//! preserves the figure's *shape*: who wins, by what rough factor, and
//! where behaviour changes.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod fig10_stragglers;
pub mod fig11_recovery;
pub mod fig12_sync_async;
pub mod fig13_overhead;
pub mod fig5_cf_ratio;
pub mod fig6_state_size;
pub mod fig7_kv_scale;
pub mod fig8_wc_window;
pub mod fig9_lr_scale;
pub mod table1;
pub mod util;

/// Experiment scale: `Quick` finishes in seconds per figure for CI and
/// tests; `Full` uses larger state and longer measurement windows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Small state, short runs.
    Quick,
    /// Larger state, longer runs (minutes total).
    Full,
}

impl Scale {
    /// Picks between the quick and full variant of a parameter.
    pub fn pick<T>(self, quick: T, full: T) -> T {
        match self {
            Scale::Quick => quick,
            Scale::Full => full,
        }
    }
}
