//! Online collaborative filtering (Alg. 1 of the paper).
//!
//! The StateLang program is a line-for-line port of the paper's annotated
//! Java: `addRating` updates the partitioned `userItem` matrix and the
//! partial `coOcc` matrix; `getRec` multiplies the user's rating vector by
//! **all** instances of `coOcc` (`@Global`) and merges the partial
//! recommendation vectors.

use std::collections::HashMap;
use std::time::Duration;

use sdg_common::error::{SdgError, SdgResult};
use sdg_common::ids::StateId;
use sdg_common::record;
use sdg_common::value::Value;
use sdg_ir::parser::parse_program;
use sdg_runtime::config::RuntimeConfig;
use sdg_runtime::deploy::{Deployment, OutputEvent};
use sdg_translate::translate;

use crate::client::OutputStash;
use crate::workloads::Rating;

/// The annotated StateLang source of the CF application.
pub const CF_SOURCE: &str = r#"
    @Partitioned Matrix userItem;
    @Partial Matrix coOcc;

    void addRating(int user, int item, int rating) {
        userItem.set(user, item, rating);
        let userRow = userItem.row(user);
        foreach (p : userRow) {
            if (p[1] > 0) {
                coOcc.add(item, p[0], 1.0);
                coOcc.add(p[0], item, 1.0);
            }
        }
    }

    Vector getRec(int user) {
        let userRow = userItem.row(user);
        @Partial let userRec = @Global coOcc.multiply(userRow);
        let rec = merge(@Collection userRec);
        emit rec;
    }

    Vector merge(@Collection Vector allRec) {
        let out = [];
        foreach (cur : allRec) { out = pairs_add(out, cur); }
        return out;
    }
"#;

/// A running collaborative filtering deployment.
pub struct CfApp {
    deployment: Deployment,
    user_item: StateId,
    co_occ: StateId,
    stash: OutputStash,
}

impl CfApp {
    /// Translates and deploys the CF program with `partitions` userItem
    /// partitions and `partials` coOcc instances.
    pub fn start(partitions: usize, partials: usize, mut cfg: RuntimeConfig) -> SdgResult<CfApp> {
        let prog = parse_program(CF_SOURCE)?;
        let sdg = translate(&prog)?;
        let user_item = sdg
            .state_by_name("userItem")
            .ok_or_else(|| SdgError::NotFound("userItem".into()))?
            .id;
        let co_occ = sdg
            .state_by_name("coOcc")
            .ok_or_else(|| SdgError::NotFound("coOcc".into()))?
            .id;
        cfg.se_instances.insert(user_item, partitions);
        cfg.se_instances.insert(co_occ, partials);
        Ok(CfApp {
            deployment: Deployment::start(sdg, cfg)?,
            user_item,
            co_occ,
            stash: OutputStash::new(),
        })
    }

    /// The underlying deployment, for scaling/failure experiments.
    pub fn deployment(&self) -> &Deployment {
        &self.deployment
    }

    /// The `userItem` state element.
    pub fn user_item(&self) -> StateId {
        self.user_item
    }

    /// The `coOcc` state element.
    pub fn co_occ(&self) -> StateId {
        self.co_occ
    }

    /// Submits one rating (asynchronous, backpressured).
    pub fn add_rating(&self, r: Rating) -> SdgResult<()> {
        self.deployment
            .submit(
                "addRating",
                record! {
                    "user" => Value::Int(r.user),
                    "item" => Value::Int(r.item),
                    "rating" => Value::Int(r.rating),
                },
            )
            .map(|_| ())
    }

    /// Requests recommendations for `user`; returns the correlation id.
    pub fn request_rec(&self, user: i64) -> SdgResult<u64> {
        self.deployment
            .submit("getRec", record! {"user" => Value::Int(user)})
    }

    /// Blocking recommendation request: returns `(item, score)` pairs.
    pub fn get_rec(&self, user: i64, timeout: Duration) -> SdgResult<Vec<(i64, f64)>> {
        let corr = self.request_rec(user)?;
        let event = self.await_output(corr, timeout)?;
        parse_pairs(&event.value)
    }

    /// Waits for the output of request `corr`, stashing unrelated outputs.
    pub fn await_output(&self, corr: u64, timeout: Duration) -> SdgResult<OutputEvent> {
        self.stash.await_output(&self.deployment, corr, timeout)
    }

    /// Waits until all in-flight work drained.
    pub fn quiesce(&self, timeout: Duration) -> bool {
        self.deployment.quiesce(timeout)
    }

    /// Stops the deployment.
    pub fn shutdown(self) {
        self.deployment.shutdown();
    }
}

/// Parses a `[ [item, score], .. ]` value, in either layout, into pairs
/// sorted by item, dropping zeros.
pub fn parse_pairs(value: &Value) -> SdgResult<Vec<(i64, f64)>> {
    let pairs = value.pairs().map_err(|e| match e {
        SdgError::Eval(_) => SdgError::Runtime("malformed recommendation pair".into()),
        e => e,
    })?;
    let mut out: Vec<(i64, f64)> = pairs.iter().copied().filter(|&(_, s)| s != 0.0).collect();
    out.sort_by_key(|&(i, _)| i);
    Ok(out)
}

/// Reference (single-threaded) implementation of the CF model, used to
/// validate the distributed execution.
#[derive(Debug, Default, Clone)]
pub struct CfReference {
    user_item: HashMap<(i64, i64), f64>,
    co_occ: HashMap<(i64, i64), f64>,
}

impl CfReference {
    /// Creates an empty model.
    pub fn new() -> Self {
        Self::default()
    }

    /// Applies one rating exactly as Alg. 1 does.
    pub fn add_rating(&mut self, r: Rating) {
        self.user_item.insert((r.user, r.item), r.rating as f64);
        let row: Vec<(i64, f64)> = self
            .user_item
            .iter()
            .filter(|((u, _), _)| *u == r.user)
            .map(|((_, i), v)| (*i, *v))
            .collect();
        for (i, v) in row {
            if v > 0.0 {
                *self.co_occ.entry((r.item, i)).or_default() += 1.0;
                *self.co_occ.entry((i, r.item)).or_default() += 1.0;
            }
        }
    }

    /// Computes the recommendation vector for `user`.
    pub fn recommend(&self, user: i64) -> Vec<(i64, f64)> {
        let mut rec: HashMap<i64, f64> = HashMap::new();
        for ((r, c), v) in &self.co_occ {
            if let Some(x) = self.user_item.get(&(user, *c)) {
                *rec.entry(*r).or_default() += v * x;
            }
        }
        let mut out: Vec<(i64, f64)> = rec.into_iter().filter(|&(_, v)| v != 0.0).collect();
        out.sort_by_key(|&(i, _)| i);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::ratings;

    #[test]
    fn parse_pairs_reads_both_layouts_and_rejects_malformed_cells() {
        let cells = [(4, 1.5), (1, 0.0), (2, -3.0)];
        let list = Value::List(
            cells
                .iter()
                .map(|&(i, v)| Value::List(vec![Value::Int(i), Value::Float(v)]))
                .collect(),
        );
        let want = vec![(2, -3.0), (4, 1.5)];
        assert_eq!(parse_pairs(&list).unwrap(), want);
        assert_eq!(
            parse_pairs(&Value::Pairs(cells.as_slice().into())).unwrap(),
            want
        );
        let triple = Value::List(vec![Value::List(vec![Value::Int(1); 3])]);
        assert_eq!(
            parse_pairs(&triple).unwrap_err().to_string(),
            SdgError::Runtime("malformed recommendation pair".into()).to_string()
        );
        assert!(parse_pairs(&Value::Int(1)).is_err());
    }

    #[test]
    fn distributed_cf_matches_reference_model() {
        let app = CfApp::start(2, 2, RuntimeConfig::default()).unwrap();
        let mut reference = CfReference::new();
        for r in ratings(60, 8, 12, 42) {
            reference.add_rating(r);
            app.add_rating(r).unwrap();
        }
        assert!(app.quiesce(Duration::from_secs(10)));
        for user in 0..8 {
            let got = app.get_rec(user, Duration::from_secs(10)).unwrap();
            assert_eq!(got, reference.recommend(user), "user {user}");
        }
        assert_eq!(app.deployment().stats().errors, 0);
        app.shutdown();
    }

    #[test]
    fn concurrent_requests_are_matched_by_correlation_id() {
        let app = CfApp::start(1, 2, RuntimeConfig::default()).unwrap();
        let mut reference = CfReference::new();
        for r in ratings(30, 4, 6, 7) {
            reference.add_rating(r);
            app.add_rating(r).unwrap();
        }
        assert!(app.quiesce(Duration::from_secs(10)));
        // Issue several requests before reading any answers.
        let corrs: Vec<(i64, u64)> = (0..4).map(|u| (u, app.request_rec(u).unwrap())).collect();
        // Await them out of order.
        for (user, corr) in corrs.into_iter().rev() {
            let event = app.await_output(corr, Duration::from_secs(10)).unwrap();
            assert_eq!(
                parse_pairs(&event.value).unwrap(),
                reference.recommend(user)
            );
        }
        app.shutdown();
    }
}
