//! Table 1 — the design space of data-parallel processing frameworks.
//!
//! The table is qualitative; this module reprints it and, for the SDG row,
//! points at the code in this workspace that implements each claimed
//! feature, making the claims checkable.

/// One framework row of the design-space table.
#[derive(Debug, Clone, Copy)]
pub struct Table1Row {
    /// System name.
    pub system: &'static str,
    /// Programming model.
    pub programming_model: &'static str,
    /// How state is represented.
    pub state_representation: &'static str,
    /// Supports large state sizes.
    pub large_state: bool,
    /// Supports fine-grained updates.
    pub fine_grained_updates: bool,
    /// Dataflow execution style.
    pub execution: &'static str,
    /// Achieves low latency.
    pub low_latency: bool,
    /// Supports iteration.
    pub iteration: bool,
    /// Failure recovery approach.
    pub failure_recovery: &'static str,
}

/// Returns the table's rows (the paper's Table 1, abbreviated to the rows
/// this workspace implements or models).
pub fn rows() -> Vec<Table1Row> {
    vec![
        Table1Row {
            system: "MapReduce",
            programming_model: "map/reduce",
            state_representation: "as data",
            large_state: false,
            fine_grained_updates: false,
            execution: "scheduled",
            low_latency: false,
            iteration: false,
            failure_recovery: "recompute",
        },
        Table1Row {
            system: "Spark",
            programming_model: "functional",
            state_representation: "as data (RDD)",
            large_state: false,
            fine_grained_updates: false,
            execution: "hybrid",
            low_latency: false,
            iteration: true,
            failure_recovery: "recompute (lineage)",
        },
        Table1Row {
            system: "D-Streams",
            programming_model: "functional",
            state_representation: "as data",
            large_state: false,
            fine_grained_updates: false,
            execution: "hybrid (micro-batch)",
            low_latency: true,
            iteration: true,
            failure_recovery: "recompute",
        },
        Table1Row {
            system: "Naiad",
            programming_model: "dataflow",
            state_representation: "explicit",
            large_state: false,
            fine_grained_updates: true,
            execution: "hybrid",
            low_latency: true,
            iteration: true,
            failure_recovery: "sync. global checkpoints",
        },
        Table1Row {
            system: "SEEP",
            programming_model: "dataflow",
            state_representation: "explicit",
            large_state: false,
            fine_grained_updates: true,
            execution: "pipelined",
            low_latency: true,
            iteration: false,
            failure_recovery: "sync. local checkpoints",
        },
        Table1Row {
            system: "Piccolo",
            programming_model: "imperative",
            state_representation: "explicit",
            large_state: true,
            fine_grained_updates: true,
            execution: "n/a",
            low_latency: true,
            iteration: true,
            failure_recovery: "async. global checkpoints",
        },
        Table1Row {
            system: "SDG (this repo)",
            programming_model: "imperative",
            state_representation: "explicit",
            large_state: true,
            fine_grained_updates: true,
            execution: "pipelined",
            low_latency: true,
            iteration: true,
            failure_recovery: "async. local checkpoints",
        },
    ]
}

fn tick(b: bool) -> &'static str {
    if b {
        "yes"
    } else {
        "no"
    }
}

/// Prints the table plus the SDG feature-to-code index.
pub fn print() {
    println!("# Table 1 — design space of data-parallel frameworks");
    println!(
        "{:<16} {:<12} {:<16} {:<6} {:<6} {:<20} {:<5} {:<5} recovery",
        "system", "model", "state", "large", "fine", "execution", "lowL", "iter"
    );
    for r in rows() {
        println!(
            "{:<16} {:<12} {:<16} {:<6} {:<6} {:<20} {:<5} {:<5} {}",
            r.system,
            r.programming_model,
            r.state_representation,
            tick(r.large_state),
            tick(r.fine_grained_updates),
            r.execution,
            tick(r.low_latency),
            tick(r.iteration),
            r.failure_recovery
        );
    }
    println!();
    println!("SDG feature → implementation:");
    println!("  imperative model        crates/ir (StateLang + annotations)");
    println!("  explicit state          crates/state (KeyedTable, SparseMatrix, DenseVector)");
    println!("  large state             crates/graph Distribution::{{Partitioned, Partial}}");
    println!("  fine-grained updates    crates/state dirty-state overlays");
    println!("  pipelined execution     crates/runtime actors on a work-stealing pool, bounded mailboxes");
    println!("  low latency             Fig 5/6/8 experiments");
    println!("  iteration               crates/graph cycles + alloc step 1");
    println!("  async local checkpoints crates/checkpoint coordinator + m-to-n restore");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sdg_row_claims_every_feature() {
        let rows = rows();
        let sdg = rows.last().unwrap();
        assert!(sdg.system.starts_with("SDG"));
        assert!(sdg.large_state && sdg.fine_grained_updates && sdg.low_latency && sdg.iteration);
        assert_eq!(sdg.execution, "pipelined");
        // No other row claims the full feature set.
        for r in &rows[..rows.len() - 1] {
            let full = r.large_state
                && r.fine_grained_updates
                && r.low_latency
                && r.iteration
                && r.execution == "pipelined";
            assert!(!full, "{} should not match SDG's full set", r.system);
        }
    }
}
