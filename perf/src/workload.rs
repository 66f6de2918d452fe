//! The four workloads: how each is deployed, what requests it is fed, and
//! the sequential model its outputs and final state are checked against.
//!
//! A [`Model`] generates requests from seeded streams and applies each to
//! a single-threaded model as it goes, so the expected reply of every
//! request and the expected state after any prefix are known without
//! running the system. The deployed program receives only the generated
//! records.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use sdg_apps::cf::{parse_pairs, CfReference, CF_SOURCE};
use sdg_apps::kv::KV_SOURCE;
use sdg_apps::wc::WC_SOURCE;
use sdg_apps::workloads::Rating;
use sdg_apps::WcApp;
use sdg_common::ids::StateId;
use sdg_common::value::{Key, Record, Value};
use sdg_ir::parser::parse_program;
use sdg_runtime::config::RuntimeConfig;
use sdg_runtime::deploy::Deployment;
use sdg_runtime::reconfig::ReconfigRequest;
use sdg_state::store::StateStore;
use sdg_translate::translate;

use crate::gen::{kv_value, kv_value_version, Ranks, Rng};
use crate::spec::{Kind, Spec, PARTITIONS, QUIESCE_TIMEOUT_S};
use crate::trace::{name, Recorder, NO_REQ};

/// Seed of the fixed CF request population (see [`Model::draw_pairs`]).
const CF_POPULATION_SEED: u64 = 0x5d67_c0ff_ee00_0001;

/// The benchmark's own error plumbing: a message for stderr.
pub type Res<T> = Result<T, String>;

pub fn err<E: std::fmt::Display>(e: E) -> String {
    e.to_string()
}

/// Random streams of one run; each is seeded independently from `--seed`.
pub mod stream {
    pub const PRELOAD: u64 = 1;
    pub const PACED: u64 = 2;
    pub const RECOVERY: u64 = 3;
    pub const PROBE: u64 = 4;
    pub const STEADY: u64 = 5;
}

/// The reply a request must produce.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Reply {
    /// No output (`put`, `addRating`, `addLine`).
    None,
    /// `get`: a value of `key`. `put` and `get` are separate entry TEs with
    /// separate mailboxes, so a `get` is not ordered against the `put`s
    /// submitted around it; the reply must be a version the key really
    /// had since the deployment started, and a key's versions must never
    /// go backwards from one reply to the next.
    KvGet { key: u32 },
    /// `getRec`: one recommendation vector. Its content depends on how
    /// the request interleaves with ratings on other partitions, so only
    /// its presence is checked in flight; content is checked after
    /// `quiesce` by [`Model::check_state`].
    Rec,
    /// A latency sentinel: the `n`-th unique single-word line.
    Sentinel(u32),
}

impl Reply {
    /// Whether the request must produce exactly one output.
    fn expects_output(self) -> bool {
        matches!(self, Reply::KvGet { .. } | Reply::Rec)
    }
}

/// Generated requests in submit order: entry point, payload and expected
/// reply of each.
#[derive(Debug, Clone, Default)]
pub struct Batch {
    pub entries: Vec<&'static str>,
    pub payloads: Vec<Record>,
    pub replies: Vec<Reply>,
}

impl Batch {
    fn with_capacity(n: usize) -> Batch {
        Batch {
            entries: Vec::with_capacity(n),
            payloads: Vec::with_capacity(n),
            replies: Vec::with_capacity(n),
        }
    }

    fn push(&mut self, entry: &'static str, payload: Record, reply: Reply) {
        self.entries.push(entry);
        self.payloads.push(payload);
        self.replies.push(reply);
    }

    pub fn len(&self) -> usize {
        self.entries.len()
    }
}

/// One output as the drainer saw it.
#[derive(Debug, Clone)]
pub struct Output {
    pub corr: u64,
    pub value: Value,
    pub at_ns: u64,
}

/// Interned field names, so generating a record allocates only its values.
#[derive(Debug, Clone)]
struct Names {
    k: Arc<str>,
    v: Arc<str>,
    user: Arc<str>,
    item: Arc<str>,
    rating: Arc<str>,
    line: Arc<str>,
}

fn record1(n: &Arc<str>, v: Value) -> Record {
    let mut r = Record::with_capacity(1);
    r.push_unchecked(Arc::clone(n), v);
    r
}

/// Sentinel words are this prefix and their number; vocabulary words are
/// `w` and their rank.
const SENTINEL_PREFIX: &str = "zz";

/// The word a sentinel line consists of.
pub fn sentinel_word(n: u32) -> String {
    format!("{SENTINEL_PREFIX}{n}")
}

#[derive(Debug, Clone)]
enum State {
    Kv {
        /// Version of every key; the preload writes version 1.
        ver: Vec<u32>,
        keys: Ranks,
    },
    Cf {
        preloaded: Box<CfState>,
        now: Box<CfState>,
        users: Ranks,
        items: Ranks,
        /// `(user, item)` pairs drawn for the batch being generated.
        draws: Vec<(i64, i64)>,
    },
    Wc {
        /// Count per vocabulary rank.
        preloaded: Vec<i64>,
        now: Vec<i64>,
        sentinels: u32,
        words: Ranks,
    },
}

#[derive(Debug, Clone, Default)]
struct CfState {
    reference: CfReference,
    /// `userItem` as the last rating per cell: per-user order is the
    /// submit order because the entry is partitioned by user.
    user_item: HashMap<(i64, i64), i64>,
}

impl CfState {
    fn add(&mut self, r: Rating) {
        self.reference.add_rating(r);
        self.user_item.insert((r.user, r.item), r.rating);
    }
}

/// Request generator and sequential oracle of one workload.
#[derive(Debug, Clone)]
pub struct Model {
    seed: u64,
    kind: Kind,
    names: Names,
    state: State,
    /// The preload of every fresh deployment, generated once.
    preload: Batch,
}

impl Model {
    /// The model of `spec` in its post-preload state.
    pub fn new(spec: &Spec, seed: u64) -> Model {
        let names = Names {
            k: Arc::from("k"),
            v: Arc::from("v"),
            user: Arc::from("user"),
            item: Arc::from("item"),
            rating: Arc::from("rating"),
            line: Arc::from("line"),
        };
        let state = match spec.kind {
            Kind::Kv { keys, theta, .. } => State::Kv {
                ver: vec![1; keys],
                keys: Ranks::new(keys, theta),
            },
            Kind::Cf {
                users,
                items,
                user_theta,
                item_theta,
                ..
            } => State::Cf {
                preloaded: Box::default(),
                now: Box::default(),
                users: Ranks::new(users, user_theta),
                items: Ranks::new(items, item_theta),
                draws: Vec::new(),
            },
            Kind::Wc { vocab, theta, .. } => State::Wc {
                preloaded: vec![0; vocab],
                now: vec![0; vocab],
                sentinels: 0,
                words: Ranks::new(vocab, theta),
            },
        };
        let mut model = Model {
            seed,
            kind: spec.kind,
            names,
            state,
            preload: Batch::default(),
        };
        model.preload = model.build_preload(spec.preload);
        match &mut model.state {
            State::Kv { .. } => {}
            State::Cf { preloaded, now, .. } => *preloaded = now.clone(),
            State::Wc { preloaded, now, .. } => preloaded.clone_from(now),
        }
        model
    }

    /// Returns the model to its post-preload state, for a fresh deployment.
    pub fn reset(&mut self) {
        match &mut self.state {
            State::Kv { ver, .. } => ver.fill(1),
            State::Cf { preloaded, now, .. } => *now = preloaded.clone(),
            State::Wc {
                preloaded,
                now,
                sentinels,
                ..
            } => {
                now.clone_from(preloaded);
                *sentinels = 0;
            }
        }
    }

    /// The preload of every fresh deployment.
    pub fn preload(&self) -> Batch {
        self.preload.clone()
    }

    /// For KV every key is written once in key order (version 1); CF and
    /// WC draw `n` writes from the preload stream, applied to the model.
    fn build_preload(&mut self, n: usize) -> Batch {
        if let (Kind::Kv { value_bytes, .. }, State::Kv { ver, .. }) = (self.kind, &self.state) {
            let mut b = Batch::with_capacity(ver.len());
            for key in 0..ver.len() {
                b.push("put", self.kv_put(key, 1, value_bytes), Reply::None);
            }
            return b;
        }
        let mut rng = Rng::new(self.seed, stream::PRELOAD);
        self.writes(n, &mut rng)
    }

    fn kv_put(&self, key: usize, ver: u32, value_bytes: usize) -> Record {
        let mut r = Record::with_capacity(2);
        r.push_unchecked(Arc::clone(&self.names.k), Value::Int(key as i64));
        r.push_unchecked(
            Arc::clone(&self.names.v),
            Value::str(kv_value(self.seed, key as u64, ver, value_bytes)),
        );
        r
    }

    /// One write request, applied to the model.
    fn push_write(&mut self, b: &mut Batch, rng: &mut Rng) {
        match (&mut self.state, self.kind) {
            (State::Kv { ver, keys }, Kind::Kv { value_bytes, .. }) => {
                let key = keys.sample(rng);
                ver[key] += 1;
                let v = ver[key];
                let rec = self.kv_put(key, v, value_bytes);
                b.push("put", rec, Reply::None);
            }
            (State::Cf { now, draws, .. }, _) => {
                let (user, item) = draws.pop().expect("a pair is drawn per request");
                let r = Rating {
                    user,
                    item,
                    rating: 1 + rng.below(5) as i64,
                };
                now.add(r);
                let mut rec = Record::with_capacity(3);
                rec.push_unchecked(Arc::clone(&self.names.user), Value::Int(r.user));
                rec.push_unchecked(Arc::clone(&self.names.item), Value::Int(r.item));
                rec.push_unchecked(Arc::clone(&self.names.rating), Value::Int(r.rating));
                b.push("addRating", rec, Reply::None);
            }
            (State::Wc { now, words, .. }, Kind::Wc { words_per_line, .. }) => {
                let mut line = String::with_capacity(words_per_line * 7);
                for i in 0..words_per_line {
                    let w = words.sample(rng);
                    now[w] += 1;
                    if i > 0 {
                        line.push(' ');
                    }
                    line.push('w');
                    line.push_str(&w.to_string());
                }
                b.push(
                    "addLine",
                    record1(&self.names.line, Value::str(line)),
                    Reply::None,
                );
            }
            _ => unreachable!("model state always matches its kind"),
        }
    }

    /// Draws the `(user, item)` pairs of an `n`-request CF batch.
    ///
    /// A CF request's cost is heavy-tailed in its user (a popular user's
    /// row is ~100 times a rare one's), so with a few thousand requests
    /// per batch the sample of users alone would move every timing by
    /// several percent from seed to seed. The pairs are therefore a fixed
    /// function of `n`; the seed decides their order, which of them are
    /// reads, and the rating values.
    fn draw_pairs(&mut self, n: usize, rng: &mut Rng) {
        let State::Cf {
            users,
            items,
            draws,
            ..
        } = &mut self.state
        else {
            return;
        };
        let mut fixed = Rng::new(CF_POPULATION_SEED, n as u64);
        *draws = (0..n)
            .map(|_| {
                (
                    users.sample(&mut fixed) as i64,
                    items.sample(&mut fixed) as i64,
                )
            })
            .collect();
        for i in (1..n).rev() {
            draws.swap(i, rng.below(i + 1));
        }
    }

    /// `n` write requests (the preload and the recovery rounds).
    pub fn writes(&mut self, n: usize, rng: &mut Rng) -> Batch {
        self.draw_pairs(n, rng);
        let mut b = Batch::with_capacity(n);
        for _ in 0..n {
            self.push_write(&mut b, rng);
        }
        b
    }

    /// `n` requests of the workload's mix. With `sentinel_every > 0`,
    /// every such request is instead a latency sentinel (workloads without
    /// a reply path).
    pub fn mixed(&mut self, n: usize, rng: &mut Rng, sentinel_every: usize) -> Batch {
        self.draw_pairs(n, rng);
        let mut b = Batch::with_capacity(n);
        for i in 0..n {
            if sentinel_every > 0 && i % sentinel_every == sentinel_every - 1 {
                if let State::Wc { sentinels, .. } = &mut self.state {
                    let word = sentinel_word(*sentinels);
                    b.push(
                        "addLine",
                        record1(&self.names.line, Value::str(word)),
                        Reply::Sentinel(*sentinels),
                    );
                    *sentinels += 1;
                    continue;
                }
            }
            let read_share = match self.kind {
                Kind::Kv { get_share, .. } => get_share,
                Kind::Cf { rec_share, .. } => rec_share,
                Kind::Wc { .. } => 0.0,
            };
            if rng.unit() >= read_share {
                self.push_write(&mut b, rng);
                continue;
            }
            match &mut self.state {
                State::Kv { keys, .. } => {
                    let key = keys.sample(rng);
                    b.push(
                        "get",
                        record1(&self.names.k, Value::Int(key as i64)),
                        Reply::KvGet { key: key as u32 },
                    );
                }
                State::Cf { draws, .. } => {
                    let (user, _) = draws.pop().expect("a pair is drawn per request");
                    b.push(
                        "getRec",
                        record1(&self.names.user, Value::Int(user)),
                        Reply::Rec,
                    );
                }
                State::Wc { .. } => unreachable!("wordcount has no read requests"),
            }
        }
        b
    }

    /// Checks `outputs` against the expected replies of a batch whose
    /// `i`-th request got correlation id `corrs[i]` (`None` where `submit`
    /// failed). Counts wrong, duplicate, unexpected and missing outputs.
    pub fn check_outputs(
        &self,
        replies: &[Reply],
        corrs: &[Option<u64>],
        outputs: &[Output],
    ) -> u64 {
        let index: HashMap<u64, usize> = corrs
            .iter()
            .enumerate()
            .filter(|&(i, _)| replies[i].expects_output())
            .filter_map(|(i, c)| c.map(|c| (c, i)))
            .collect();
        let mut seen = vec![0u8; replies.len()];
        let mut failed = 0u64;
        // Newest version each key has shown so far, in arrival order: one
        // key's replies all come from one replica, in its processing order.
        let mut shown: HashMap<u32, u32> = HashMap::new();
        for out in outputs {
            let Some(&i) = index.get(&out.corr) else {
                failed += 1;
                continue;
            };
            seen[i] = seen[i].saturating_add(1);
            let ok = match replies[i] {
                Reply::KvGet { key } => {
                    let newest = shown.entry(key).or_insert(1);
                    self.kv_version_of(key, &out.value).is_some_and(|ver| {
                        let monotone = ver >= *newest;
                        *newest = ver.max(*newest);
                        monotone
                    })
                }
                Reply::Rec => parse_pairs(&out.value).is_ok(),
                Reply::None | Reply::Sentinel(_) => false,
            };
            if !ok || seen[i] > 1 {
                failed += 1;
            }
        }
        for (i, reply) in replies.iter().enumerate() {
            if reply.expects_output() && seen[i] == 0 && corrs[i].is_some() {
                failed += 1;
            }
        }
        failed
    }

    /// The version of `key` that `value` is, if it is one the key has had:
    /// between the preload's and the newest the model has generated.
    fn kv_version_of(&self, key: u32, value: &Value) -> Option<u32> {
        let (State::Kv { ver, .. }, Kind::Kv { value_bytes, .. }) = (&self.state, self.kind) else {
            return None;
        };
        let Value::Str(s) = value else {
            return None;
        };
        let claimed = kv_value_version(s)?;
        let newest = *ver.get(key as usize)?;
        let genuine = **s == *kv_value(self.seed, u64::from(key), claimed, value_bytes);
        ((1..=newest).contains(&claimed) && genuine).then_some(claimed)
    }

    /// Compares the quiesced deployment's state with the model. Returns
    /// the number of mismatches.
    ///
    /// `derived` also checks state computed across stages (CF's `getRec`
    /// against `CfReference` for a sample of users). It must be off after
    /// a recovery of CF's `userItem`: the runtime re-forwards replayed
    /// items with fresh timestamps, so the downstream `coOcc` may apply
    /// them twice (README "Limitations"; ROADMAP item 4).
    pub fn check_state(&self, live: &Live, derived: bool) -> Res<u64> {
        let mut failed = 0u64;
        match &self.state {
            State::Kv { ver, .. } => {
                let Kind::Kv { value_bytes, .. } = self.kind else {
                    unreachable!("model state always matches its kind")
                };
                let mut found = 0usize;
                for replica in 0..PARTITIONS as u32 {
                    let pairs = live.with_target(replica, |s| {
                        let mut pairs = Vec::new();
                        s.as_table()?
                            .for_each(|k, v| pairs.push((k.clone(), v.clone())));
                        Ok(pairs)
                    })?;
                    found += pairs.len();
                    for (k, v) in pairs {
                        let ok = match (&k, &v) {
                            (Key::Int(key), Value::Str(s)) => {
                                ver.get(*key as usize).is_some_and(|&ver| {
                                    **s == *kv_value(self.seed, *key as u64, ver, value_bytes)
                                })
                            }
                            _ => false,
                        };
                        failed += u64::from(!ok);
                    }
                }
                failed += found.abs_diff(ver.len()) as u64;
            }
            State::Cf { now, .. } => {
                let mut found = 0usize;
                for replica in 0..PARTITIONS as u32 {
                    let cells = live.with_target(replica, |s| {
                        let m = s.as_matrix()?;
                        let mut cells = Vec::new();
                        for user in m.row_indices() {
                            for (item, rating) in m.row(user) {
                                cells.push((user, item, rating));
                            }
                        }
                        Ok(cells)
                    })?;
                    found += cells.len();
                    for (user, item, rating) in cells {
                        let ok = now
                            .user_item
                            .get(&(user, item))
                            .is_some_and(|&r| r as f64 == rating);
                        failed += u64::from(!ok);
                    }
                }
                failed += found.abs_diff(now.user_item.len()) as u64;
                if derived {
                    failed += self.check_recommendations(live, &now.reference)?;
                }
            }
            State::Wc { now, sentinels, .. } => {
                let Holder::Wc(app) = &live.holder else {
                    unreachable!("wordcount is deployed through WcApp")
                };
                let got = app.counts().map_err(err)?;
                let expected_words = now.iter().filter(|&&c| c > 0).count() + *sentinels as usize;
                failed += got.len().abs_diff(expected_words) as u64;
                for (word, count) in &got {
                    let expected =
                        match word.strip_prefix('w').and_then(|r| r.parse::<usize>().ok()) {
                            Some(rank) => now.get(rank).copied().unwrap_or(-1),
                            None => match word
                                .strip_prefix(SENTINEL_PREFIX)
                                .and_then(|n| n.parse::<u32>().ok())
                            {
                                Some(n) if n < *sentinels => 1,
                                _ => -1,
                            },
                        };
                    failed += u64::from(*count != expected);
                }
            }
        }
        Ok(failed)
    }

    /// `getRec` for the eight most popular users and eight spread over the
    /// rest, against `CfReference::recommend`.
    fn check_recommendations(&self, live: &Live, reference: &CfReference) -> Res<u64> {
        let Kind::Cf { users, .. } = self.kind else {
            return Ok(0);
        };
        let dep = live.dep();
        let mut failed = 0;
        let sample = (0..8).chain((1..=8).map(|i| i * (users - 1) / 8));
        for user in sample {
            let user = user as i64;
            let corr = dep
                .submit("getRec", record1(&self.names.user, Value::Int(user)))
                .map_err(err)?;
            let deadline = Instant::now() + Duration::from_secs(QUIESCE_TIMEOUT_S);
            let got = loop {
                let left = deadline.saturating_duration_since(Instant::now());
                match dep.outputs().recv_timeout(left) {
                    Ok(ev) if ev.corr == corr => break Some(ev.value),
                    Ok(_) => {}
                    Err(_) => break None,
                }
            };
            let ok = got
                .and_then(|v| parse_pairs(&v).ok())
                .is_some_and(|pairs| pairs == reference.recommend(user));
            failed += u64::from(!ok);
        }
        Ok(failed)
    }
}

/// Either a raw deployment or the app that owns one.
enum Holder {
    Raw(Deployment),
    Wc(WcApp),
}

/// A running, preloaded, once-checkpointed deployment of a workload.
pub struct Live {
    holder: Holder,
    /// Held around the benchmark's own `with_state` and checkpoint calls:
    /// at seed, a `with_state` on a striped cell swaps in fresh stores, and
    /// a checkpoint that began before it then fails to consolidate.
    state_access: Mutex<()>,
    /// The state that is killed in the recovery phase and compared with
    /// the model: `kv`, `userItem`, `counts`.
    pub target: StateId,
}

impl Live {
    pub fn dep(&self) -> &Deployment {
        match &self.holder {
            Holder::Raw(d) => d,
            Holder::Wc(app) => app.deployment(),
        }
    }

    /// Runs `f` on replica `replica` of the target state.
    pub fn with_target<R>(
        &self,
        replica: u32,
        f: impl FnOnce(&mut StateStore) -> sdg_common::SdgResult<R>,
    ) -> Res<R> {
        let _serial = self.state_access.lock().map_err(err)?;
        self.dep()
            .with_state(self.target, replica, f)
            .map_err(err)?
            .map_err(err)
    }

    /// Target-state entries of `replica`, sorted: equal vectors mean
    /// byte-equal state.
    pub fn state_image(&self, replica: u32) -> Res<Vec<(Vec<u8>, Vec<u8>)>> {
        let mut image: Vec<(Vec<u8>, Vec<u8>)> = self
            .with_target(replica, |s| Ok(s.export_entries()))?
            .into_iter()
            .map(|e| (e.key, e.value))
            .collect();
        image.sort_unstable();
        Ok(image)
    }

    pub fn quiesce(&self) -> bool {
        self.dep().quiesce(Duration::from_secs(QUIESCE_TIMEOUT_S))
    }

    pub fn checkpoint(&self) -> Res<Duration> {
        let _serial = self.state_access.lock().map_err(err)?;
        let t0 = Instant::now();
        self.dep()
            .reconfigure(ReconfigRequest::Checkpoint)
            .map_err(err)?;
        Ok(t0.elapsed())
    }

    pub fn shutdown(self) {
        match self.holder {
            Holder::Raw(d) => d.shutdown(),
            Holder::Wc(app) => app.shutdown(),
        }
    }
}

/// How long each part of one set-up took.
#[derive(Debug, Clone, Copy, Default)]
pub struct Setup {
    pub total_s: f64,
    pub start_ms: f64,
    /// Preload feed + `quiesce`.
    pub preload_s: f64,
    pub preload_requests: usize,
    pub checkpoint_ms: f64,
    pub submit_failures: u64,
}

/// The runtime configuration of every deployment: the defaults, with
/// checkpointing on and its timer pushed out of reach (checkpoints are
/// triggered by request count, so every run takes the same ones), so a
/// later change of a default is measured.
pub fn runtime_config() -> RuntimeConfig {
    let mut cfg = RuntimeConfig::default();
    cfg.checkpoint.enabled = true;
    cfg.checkpoint.interval = Duration::from_secs(3600);
    cfg
}

fn ms(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64() * 1e3
}

/// Deploys `spec` and brings it to the measured starting point: parse +
/// translate + `Deployment::start` + preload + `quiesce` + first
/// checkpoint. This is the set-up a user pays before the first request
/// and what `setup_s` times.
pub fn deploy(spec: &Spec, model: &Model, rec: &mut Recorder, parent: u32) -> Res<(Live, Setup)> {
    let preload = model.preload();
    let mut setup = Setup {
        preload_requests: preload.len(),
        ..Setup::default()
    };
    let t_setup = Instant::now();
    let span = rec.begin(name::SETUP, parent, NO_REQ);
    let mut cfg = runtime_config();
    let live = match spec.kind {
        Kind::Kv { .. } | Kind::Cf { .. } => {
            let (source, states): (&str, &[&str]) = match spec.kind {
                Kind::Kv { .. } => (KV_SOURCE, &["kv"]),
                _ => (CF_SOURCE, &["userItem", "coOcc"]),
            };
            let prog = rec
                .scope(name::PARSE, span.id, |_, _| parse_program(source))
                .map_err(err)?;
            let sdg = rec
                .scope(name::TRANSLATE, span.id, |_, _| translate(&prog))
                .map_err(err)?;
            let mut ids = Vec::new();
            for s in states {
                let id = sdg
                    .state_by_name(s)
                    .ok_or_else(|| format!("no state `{s}`"))?
                    .id;
                cfg.se_instances.insert(id, PARTITIONS);
                ids.push(id);
            }
            let t0 = Instant::now();
            let dep = rec
                .scope(name::START, span.id, |_, _| Deployment::start(sdg, cfg))
                .map_err(err)?;
            setup.start_ms = ms(t0);
            Live {
                holder: Holder::Raw(dep),
                state_access: Mutex::new(()),
                target: ids[0],
            }
        }
        Kind::Wc { .. } => {
            let t0 = Instant::now();
            let app = rec
                .scope(name::START, span.id, |_, _| WcApp::start(PARTITIONS, cfg))
                .map_err(err)?;
            setup.start_ms = ms(t0);
            let target = app
                .deployment()
                .metrics()
                .state("counts")
                .and_then(|s| s.id)
                .ok_or("no state `counts`")?;
            Live {
                holder: Holder::Wc(app),
                state_access: Mutex::new(()),
                target,
            }
        }
    };
    let t0 = Instant::now();
    let feed = rec.begin(name::PRELOAD, span.id, NO_REQ);
    for (entry, payload) in preload.entries.iter().zip(preload.payloads) {
        setup.submit_failures += u64::from(live.dep().submit(entry, payload).is_err());
    }
    rec.end(feed);
    let drained = rec.scope(name::QUIESCE, span.id, |_, _| live.quiesce());
    setup.preload_s = t0.elapsed().as_secs_f64();
    if !drained {
        return Err("preload did not quiesce".into());
    }
    let took = rec.scope(name::CHECKPOINT, span.id, |_, _| live.checkpoint())?;
    setup.checkpoint_ms = took.as_secs_f64() * 1e3;
    rec.end(span);
    setup.total_s = t_setup.elapsed().as_secs_f64();
    Ok((live, setup))
}

/// The StateLang source whose parse/translate cost the traced run probes
/// for `kind` (wordcount deploys a hand-built graph; its StateLang
/// counting half is what a translated deployment would run).
pub fn source_of(kind: Kind) -> &'static str {
    match kind {
        Kind::Kv { .. } => KV_SOURCE,
        Kind::Cf { .. } => CF_SOURCE,
        Kind::Wc { .. } => WC_SOURCE,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::WORKLOADS;

    fn lines(b: &Batch) -> Vec<String> {
        b.entries
            .iter()
            .zip(&b.payloads)
            .map(|(e, p)| format!("{e} {p:?}"))
            .collect()
    }

    #[test]
    fn generated_requests_are_reproducible_and_seed_sensitive() {
        for w in &WORKLOADS {
            let w = w.check_sized();
            let gen = |seed| {
                let mut m = Model::new(&w, seed);
                let mut rng = Rng::new(seed, stream::STEADY);
                lines(&m.mixed(200, &mut rng, w.sentinel_every))
            };
            assert_eq!(gen(5), gen(5), "{}", w.name);
            assert_ne!(gen(5), gen(6), "{}", w.name);
        }
    }

    #[test]
    fn reset_returns_to_the_post_preload_state() {
        let w = WORKLOADS[0].check_sized();
        let mut m = Model::new(&w, 1);
        let first = {
            let mut rng = Rng::new(1, stream::STEADY);
            m.mixed(500, &mut rng, 0).replies
        };
        m.reset();
        let again = {
            let mut rng = Rng::new(1, stream::STEADY);
            m.mixed(500, &mut rng, 0).replies
        };
        assert_eq!(first, again);
    }

    #[test]
    fn kv_reply_oracle_accepts_only_real_versions_in_order_once() {
        // One key, so its version is known: 1 after the preload, 4 after
        // three more writes.
        let w = Spec {
            kind: Kind::Kv {
                keys: 1,
                value_bytes: 32,
                get_share: 0.5,
                theta: 0.0,
            },
            preload: 1,
            ..WORKLOADS[0]
        };
        let mut m = Model::new(&w, 2);
        drop(m.writes(3, &mut Rng::new(2, stream::STEADY)));
        let replies = [
            Reply::KvGet { key: 0 },
            Reply::None,
            Reply::KvGet { key: 0 },
        ];
        let corrs = [Some(10), Some(11), Some(12)];
        let reply = |corr, ver| Output {
            corr,
            value: Value::str(kv_value(2, 0, ver, 32)),
            at_ns: 0,
        };
        let failures = |outputs: &[Output]| m.check_outputs(&replies, &corrs, outputs);
        assert_eq!(failures(&[reply(10, 1), reply(12, 4)]), 0);
        assert_eq!(failures(&[reply(10, 3), reply(12, 3)]), 0);
        assert_eq!(failures(&[reply(10, 2)]), 1, "a reply is missing");
        assert_eq!(
            failures(&[reply(10, 2), reply(12, 2), reply(12, 2)]),
            1,
            "duplicate"
        );
        assert_eq!(
            failures(&[reply(10, 2), reply(12, 2), reply(99, 2)]),
            1,
            "unknown id"
        );
        assert_eq!(
            failures(&[reply(10, 2), reply(12, 2), reply(11, 2)]),
            1,
            "reply to a put"
        );
        assert_eq!(
            failures(&[reply(10, 2), reply(12, 5)]),
            1,
            "a version never written"
        );
        assert_eq!(
            failures(&[reply(10, 3), reply(12, 2)]),
            1,
            "the key went back in time"
        );
        let mut forged = reply(12, 2);
        forged.value = Value::str(format!("{:08x}{}", 2, "g".repeat(24)));
        assert_eq!(
            failures(&[reply(10, 2), forged]),
            1,
            "not the value written"
        );
        assert_eq!(
            failures(&[
                reply(10, 2),
                Output {
                    value: Value::Null,
                    ..reply(12, 2)
                }
            ]),
            1
        );
    }
}
