//! Streaming wordcount with fine-grained state updates (Fig. 8).
//!
//! The splitter is a **native** task because it fans one input line out
//! into one item per word — StateLang TEs forward a single record per
//! input, so flat-map stages use the [`sdg_graph::model::NativeTask`]
//! escape hatch. The counter is a partitioned table updated one word at a
//! time: the finest possible update granularity, which is exactly what the
//! micro-batch baselines cannot sustain at small windows.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

use sdg_common::error::{SdgError, SdgResult};
use sdg_common::ids::StateId;
use sdg_common::record;
use sdg_common::value::{Key, Record, Value};
use sdg_graph::model::{
    AccessMode, Dispatch, Distribution, NativeTask, SdgBuilder, StateAccessEdge, TaskCode,
    TaskContext, TaskKind,
};
use sdg_runtime::config::RuntimeConfig;
use sdg_runtime::deploy::Deployment;
use sdg_state::partition::{KeyLayout, PartitionDim};
use sdg_state::store::StateType;

/// The annotated StateLang source of the counting half of wordcount.
///
/// The line splitter stays a native task (a StateLang TE forwards exactly
/// one record per input, so flat-map stages cannot be expressed), which is
/// why the StateLang program starts at word granularity: `addWord` bumps
/// the partitioned table and `getCount` reads a single word's tally back.
pub const WC_SOURCE: &str = r#"
    @Partitioned Table counts;

    void addWord(string w, int n) {
        counts.inc(w, n);
    }

    int getCount(string w) {
        let c = counts.get(w);
        emit c;
    }
"#;

/// Splits a line into lowercase words and forwards one record per word.
struct SplitTask {
    /// The word records' one field name, shared by every record instead
    /// of allocated per word.
    w: Arc<str>,
}

impl NativeTask for SplitTask {
    fn process(&self, input: &Record, ctx: &mut dyn TaskContext) -> SdgResult<()> {
        let line = input.require("line")?.as_str()?.to_lowercase();
        for word in line.split_whitespace() {
            let mut out = Record::with_capacity(1);
            out.push_unchecked(Arc::clone(&self.w), Value::str(word));
            ctx.forward(out);
        }
        Ok(())
    }
}

/// Increments the count of the word in the partitioned table.
struct CountTask;

impl NativeTask for CountTask {
    fn process(&self, input: &Record, ctx: &mut dyn TaskContext) -> SdgResult<()> {
        let word = input.require("w")?.to_key()?;
        let table = ctx
            .state()
            .ok_or_else(|| SdgError::Runtime("count task requires state".into()))?
            .as_table()?;
        table.update(word, |v| {
            Value::Int(v.map(|x| x.as_int().unwrap_or(0)).unwrap_or(0) + 1)
        });
        Ok(())
    }
}

/// A running streaming wordcount deployment.
pub struct WcApp {
    deployment: Deployment,
    counts: StateId,
}

impl WcApp {
    /// Builds and deploys the two-stage split → count pipeline with the
    /// given number of count partitions.
    pub fn start(partitions: usize, mut cfg: RuntimeConfig) -> SdgResult<WcApp> {
        let mut b = SdgBuilder::new();
        let counts = b.add_state(
            "counts",
            StateType::Table,
            Distribution::Partitioned {
                dim: PartitionDim::Row,
            },
        );
        let split = b.add_task(
            "split",
            TaskKind::Entry {
                method: "addLine".into(),
            },
            TaskCode::Native(Arc::new(SplitTask { w: "w".into() })),
            None,
        );
        let count = b.add_task(
            "count",
            TaskKind::Compute,
            TaskCode::Native(Arc::new(CountTask)),
            Some(StateAccessEdge {
                state: counts,
                mode: AccessMode::Partitioned {
                    key: "w".into(),
                    dim: PartitionDim::Row,
                },
                writes: true,
            }),
        );
        b.connect(
            split,
            count,
            Dispatch::Partitioned { key: "w".into() },
            vec!["w".into()],
        );
        let sdg = b.build()?;
        cfg.se_instances.insert(counts, partitions);
        Ok(WcApp {
            deployment: Deployment::start(sdg, cfg)?,
            counts,
        })
    }

    /// The underlying deployment.
    pub fn deployment(&self) -> &Deployment {
        &self.deployment
    }

    /// Feeds one line of text (asynchronous).
    pub fn add_line(&self, line: &str) -> SdgResult<()> {
        self.deployment
            .submit("addLine", record! {"line" => Value::str(line)})
            .map(|_| ())
    }

    /// Returns the current count of `word` (post-quiesce for exactness).
    pub fn count(&self, word: &str) -> SdgResult<i64> {
        let key = Key::str(word.to_lowercase());
        let n = self
            .deployment
            .metrics()
            .state_by_id(self.counts)
            .map_or(1, |s| s.instances as usize);
        let replica = KeyLayout::instance(key.stable_hash(), n) as u32;
        self.deployment.with_state(self.counts, replica, |s| {
            Ok(match s.as_table()?.get(&key) {
                Some(v) => v.as_int()?,
                None => 0,
            })
        })?
    }

    /// Snapshot of all word counts across partitions.
    pub fn counts(&self) -> SdgResult<HashMap<String, i64>> {
        let mut out = HashMap::new();
        let n = self
            .deployment
            .metrics()
            .state_by_id(self.counts)
            .map_or(1, |s| s.instances as usize);
        for replica in 0..n as u32 {
            self.deployment.with_state(self.counts, replica, |s| {
                let table = s.as_table()?;
                table.for_each(|k, v| {
                    if let (Key::Str(word), Value::Int(c)) = (k, v) {
                        out.insert(word.to_string(), *c);
                    }
                });
                Ok::<(), SdgError>(())
            })??;
        }
        Ok(out)
    }

    /// Waits for in-flight work to drain.
    pub fn quiesce(&self, timeout: Duration) -> bool {
        self.deployment.quiesce(timeout)
    }

    /// Stops the deployment.
    pub fn shutdown(self) {
        self.deployment.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::text_lines;

    #[test]
    fn word_counts_match_a_sequential_count() {
        let app = WcApp::start(3, RuntimeConfig::default()).unwrap();
        let lines = text_lines(50, 8, 40, 9);
        let mut expected: HashMap<String, i64> = HashMap::new();
        for line in &lines {
            for w in line.to_lowercase().split_whitespace() {
                *expected.entry(w.to_owned()).or_default() += 1;
            }
            app.add_line(line).unwrap();
        }
        assert!(app.quiesce(Duration::from_secs(10)));
        assert_eq!(app.counts().unwrap(), expected);
        assert_eq!(app.deployment().stats().errors, 0);
        app.shutdown();
    }

    #[test]
    fn count_lookup_routes_to_the_right_partition() {
        let app = WcApp::start(4, RuntimeConfig::default()).unwrap();
        app.add_line("Hello hello WORLD").unwrap();
        assert!(app.quiesce(Duration::from_secs(10)));
        assert_eq!(app.count("hello").unwrap(), 2);
        assert_eq!(app.count("world").unwrap(), 1);
        assert_eq!(app.count("absent").unwrap(), 0);
        app.shutdown();
    }

    #[test]
    fn statelang_wordcount_translates_and_lints_clean() {
        let prog = sdg_ir::parser::parse_program(WC_SOURCE).unwrap();
        assert!(sdg_ir::analysis::lint_program(&prog).is_empty());
        let sdg = sdg_translate::translate(&prog).unwrap();
        assert!(sdg_graph::lint(&sdg).is_empty());
        let counts = sdg.state_by_name("counts").unwrap();
        assert!(matches!(counts.dist, Distribution::Partitioned { .. }));
    }

    #[test]
    fn empty_lines_are_harmless() {
        let app = WcApp::start(1, RuntimeConfig::default()).unwrap();
        app.add_line("").unwrap();
        app.add_line("   ").unwrap();
        assert!(app.quiesce(Duration::from_secs(5)));
        assert!(app.counts().unwrap().is_empty());
        app.shutdown();
    }
}
