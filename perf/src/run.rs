//! One run: steady epochs, recovery rounds and (traced runs) paced segments
//! of one workload, each on a fresh deployment, and the metrics they yield.
//!
//! Load comes from the calling thread alone. A drainer thread (outputs)
//! and a control thread (checkpoints) exist but block except when an
//! output arrives or a checkpoint falls due; checkpoints fall due when the
//! feeder passes fixed request indices, never on a timer.

use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use sdg_common::obs::MetricsSnapshot;
use sdg_common::value::{Key, Record};
use sdg_runtime::deploy::OutputEvent;
use sdg_runtime::reconfig::ReconfigRequest;

use crate::gen::Rng;
use crate::host::{self, ProcSample};
use crate::pacer::{Lateness, Pacer};
use crate::probe;
use crate::spec::{Kind, Spec, BLOCKED_SUBMIT_NS, END_TO_END, PARTITIONS, PER_LAYER};
use crate::stats::{median, percentile};
use crate::trace::{self, name, Recorder, Span, Tracer, NO_REQ, REQUEST_SAMPLE, ROOT};
use crate::workload::{
    deploy, err, sentinel_word, stream, Batch, Live, Model, Output, Reply, Res, Setup,
};

/// What to run.
#[derive(Debug, Clone, Copy)]
pub struct RunArgs {
    pub spec: Spec,
    pub seed: u64,
    /// Record spans, run the probes, report the per-layer metrics.
    pub trace: bool,
}

/// What a run found.
#[derive(Debug, Clone)]
pub struct RunResult {
    pub attempted: u64,
    pub failed: u64,
    /// `(name, value)` of every end-to-end metric (untraced) or every
    /// per-layer metric (traced), in schema order.
    pub metrics: Vec<(&'static str, f64)>,
    /// Sample counts behind the estimators, for the log.
    pub notes: Vec<String>,
    /// The spans of a traced run.
    pub spans: Vec<Span>,
}

/// Per-layer samples by metric name; each metric reports their median.
#[derive(Debug, Default)]
pub struct Layers(BTreeMap<&'static str, Vec<f64>>);

impl Layers {
    pub fn put(&mut self, name: &'static str, value: f64) {
        self.0.entry(name).or_default().push(value);
    }

    fn median_of(&self, name: &str) -> f64 {
        self.0.get(name).map_or(0.0, |v| median(v))
    }
}

struct Ctx<'a> {
    spec: Spec,
    tracer: &'a Tracer,
    model: Model,
    attempted: u64,
    failed: u64,
    setups: Vec<Setup>,
    layers: Layers,
}

impl Ctx<'_> {
    /// Deploys a fresh, preloaded deployment and accounts its set-up.
    fn deploy(&mut self, rec: &mut Recorder, parent: u32) -> Res<Live> {
        let (live, setup) = deploy(&self.spec, &self.model, rec, parent)?;
        self.attempted += setup.preload_requests as u64;
        self.failed += setup.submit_failures;
        self.setups.push(setup);
        Ok(live)
    }
}

/// Result of feeding one batch.
struct Fed {
    /// Correlation id per request; `None` where `submit` failed.
    corrs: Vec<Option<u64>>,
    /// `(index, submit start)` of the requests sampled for request spans.
    sampled: Vec<(usize, u64)>,
    span: u32,
}

impl Fed {
    fn failures(&self) -> u64 {
        self.corrs.iter().filter(|c| c.is_none()).count() as u64
    }
}

/// Request indices at which the `count` checkpoints of an `n`-request
/// feed fall due: evenly spaced, none at either end.
fn checkpoint_triggers(n: usize, count: usize) -> Vec<usize> {
    (1..=count).map(|k| k * n / (count + 1)).collect()
}

/// Closed loop at saturation: the next `submit` follows the previous one
/// immediately and blocks on backpressure. Signals `due` when the feed
/// passes each of `triggers`.
fn feed_closed(
    live: &Live,
    entries: &[&'static str],
    payloads: Vec<Record>,
    rec: &mut Recorder,
    parent: u32,
    triggers: &[usize],
    due: mpsc::Sender<()>,
) -> Fed {
    let dep = live.dep();
    let feed = rec.begin(name::FEED, parent, NO_REQ);
    let mut fed = Fed {
        corrs: Vec::with_capacity(payloads.len()),
        sampled: Vec::new(),
        span: feed.id,
    };
    let mut next = 0;
    for (i, payload) in payloads.into_iter().enumerate() {
        if triggers.get(next) == Some(&i) {
            // The control thread outlives the feed, so the send succeeds.
            let _ = due.send(());
            next += 1;
        }
        let open = rec.begin(name::SUBMIT, feed.id, i as u64);
        let corr = dep.submit(entries[i], payload).ok();
        if rec.on() && (i as u64).is_multiple_of(REQUEST_SAMPLE) {
            fed.sampled.push((i, open.start_ns));
        }
        rec.end(open);
        fed.corrs.push(corr);
    }
    drop(due);
    rec.end(feed);
    fed
}

/// Collects outputs until `stop` is set and the sink is empty.
fn drain(live: &Live, tracer: &Tracer, stop: &AtomicBool) -> Vec<Output> {
    let rx = live.dep().outputs();
    let stamped = |ev: OutputEvent| Output {
        corr: ev.corr,
        value: ev.value,
        at_ns: tracer.now_ns(),
    };
    let mut out = Vec::new();
    loop {
        match rx.recv_timeout(Duration::from_millis(20)) {
            Ok(ev) => out.push(stamped(ev)),
            // SeqCst: pairs with the store made after `quiesce` returned,
            // by which time every output is already in the channel.
            Err(_) if stop.load(Ordering::SeqCst) => {
                out.extend(std::iter::from_fn(|| rx.try_recv().ok()).map(stamped));
                return out;
            }
            Err(_) => {}
        }
    }
}

/// `num / den`, or zero where there is nothing to divide by.
fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Takes one checkpoint per signal on `due`, concurrently with the feed;
/// returns how many failed.
fn checkpoint_on_signal(
    live: &Live,
    tracer: &Tracer,
    traced: bool,
    parent: u32,
    due: mpsc::Receiver<()>,
) -> u64 {
    let mut rec = tracer.recorder(traced);
    let mut failed = 0;
    for () in due {
        let open = rec.begin(name::CHECKPOINT, parent, NO_REQ);
        failed += u64::from(live.checkpoint().is_err());
        rec.end(open);
    }
    failed
}

fn corr_index(corrs: &[Option<u64>]) -> HashMap<u64, usize> {
    corrs
        .iter()
        .enumerate()
        .filter_map(|(i, c)| c.map(|c| (c, i)))
        .collect()
}

/// Records a request span (submit → output received) for each sampled
/// request that has a reply.
fn record_request_spans(rec: &mut Recorder, fed: &Fed, outputs: &[Output]) {
    if !rec.on() {
        return;
    }
    let arrival: HashMap<u64, u64> = outputs.iter().map(|o| (o.corr, o.at_ns)).collect();
    for &(i, start_ns) in &fed.sampled {
        if let Some(&end_ns) = fed.corrs[i].and_then(|c| arrival.get(&c)) {
            rec.leaf(name::REQUEST, fed.span, i as u64, start_ns, end_ns);
        }
    }
}

/// One steady epoch's end-to-end samples.
struct Epoch {
    wall_s: f64,
    cpu_s: f64,
    rss_mb: f64,
    traced: bool,
    /// The feed span, under which the epoch's `submit` spans hang.
    feed_span: u32,
}

/// Deploy, feed `batch` at saturation with concurrent checkpoints, drain,
/// verify against `model` (which has `batch` applied), shut down. Every
/// epoch of a run feeds the same requests to an identical fresh
/// deployment, so epochs differ only by noise.
fn steady_epoch(
    ctx: &mut Ctx,
    e: usize,
    (batch, model): (&Batch, &Model),
    traced: bool,
    parent: u32,
) -> Res<Epoch> {
    let spec = ctx.spec;
    let tracer = ctx.tracer;
    let mut rec = tracer.recorder(traced);
    let span = rec.begin(name::EPOCH, parent, e as u64);
    let live = ctx.deploy(&mut rec, span.id)?;
    let (entries, replies) = (&batch.entries, &batch.replies);
    let payloads = batch.payloads.clone();
    let triggers = checkpoint_triggers(entries.len(), spec.epoch_checkpoints);

    live.dep().reset_observations();
    let m0 = traced.then(|| rec.scope(name::METRICS, span.id, |_, _| live.dep().metrics()));
    host::reset_peak_rss();
    let switches0 = if traced { host::context_switches() } else { 0 };
    let p0 = ProcSample::now();
    let stop = AtomicBool::new(false);
    let (due_tx, due_rx) = mpsc::channel();
    let t0 = Instant::now();
    let (fed, outputs, wall_s, ckpt_failures, drained) = std::thread::scope(|s| {
        let drainer = s.spawn(|| drain(&live, tracer, &stop));
        let control = s.spawn(|| checkpoint_on_signal(&live, tracer, traced, span.id, due_rx));
        let fed = feed_closed(
            &live, entries, payloads, &mut rec, span.id, &triggers, due_tx,
        );
        let ckpt_failures = control.join().expect("control thread does not panic");
        let drained = rec.scope(name::QUIESCE, span.id, |_, _| live.quiesce());
        let wall_s = t0.elapsed().as_secs_f64();
        stop.store(true, Ordering::SeqCst);
        let outputs = drainer.join().expect("drainer does not panic");
        (fed, outputs, wall_s, ckpt_failures, drained)
    });
    let p1 = ProcSample::now();
    let rss_mb = host::peak_rss_mb();
    if !drained {
        return Err(format!("epoch {e} did not quiesce"));
    }
    let n = entries.len() as f64;
    if let Some(m0) = m0 {
        let switches = host::context_switches().saturating_sub(switches0);
        let m1 = rec.scope(name::METRICS, span.id, |_, _| live.dep().metrics());
        let cpu_ns = (p1.cpu_s - p0.cpu_s) * 1e9;
        snapshot_layers(&mut ctx.layers, &m0, &m1, n, cpu_ns);
        ctx.layers
            .put("sched.ctx_switches_per_req", switches as f64 / n);
        ctx.layers.put(
            "proc.minor_faults_per_req",
            p1.minor_faults.saturating_sub(p0.minor_faults) as f64 / n,
        );
    }
    let verify = rec.begin(name::VERIFY, span.id, NO_REQ);
    ctx.attempted += entries.len() as u64;
    ctx.failed += fed.failures() + ckpt_failures;
    ctx.failed += model.check_outputs(replies, &fed.corrs, &outputs);
    ctx.failed += model.check_state(&live, true)?;
    rec.end(verify);
    record_request_spans(&mut rec, &fed, &outputs);
    rec.scope(name::SHUTDOWN, span.id, |_, _| live.shutdown());
    rec.end(span);
    Ok(Epoch {
        wall_s,
        cpu_s: p1.cpu_s - p0.cpu_s,
        rss_mb,
        traced,
        feed_span: fed.span,
    })
}

/// Per-layer samples read from two `Deployment::metrics` snapshots taken
/// around `requests` requests that cost `cpu_ns` of process CPU.
fn snapshot_layers(
    layers: &mut Layers,
    m0: &MetricsSnapshot,
    m1: &MetricsSnapshot,
    requests: f64,
    cpu_ns: f64,
) {
    let delta = |f: fn(&sdg_common::obs::TaskStats) -> u64| -> Vec<u64> {
        m1.tasks
            .iter()
            .map(|t| f(t).saturating_sub(m0.task(&t.name).map_or(0, f)))
            .collect()
    };
    let items_in = delta(|t| t.items_in);
    let items: u64 = items_in.iter().sum();
    // The hot task: the one that took the most items in the window. Its
    // histograms were reset at `m0`, so its summary covers the window.
    if let Some((hot, _)) = items_in.iter().enumerate().max_by_key(|&(_, &n)| n) {
        layers.put("worker.service_ns_p50", m1.tasks[hot].service.p50 as f64);
    }
    layers.put("worker.items_per_req", items as f64 / requests);
    let service_ns: f64 = m1
        .tasks
        .iter()
        .map(|t| t.service.mean * t.service.count as f64)
        .sum();
    layers.put("worker.te_service_share", ratio(service_ns, cpu_ns));
    let per_item = |x: u64| ratio(x as f64, items as f64);
    let (s0, s1) = (&m0.sched, &m1.sched);
    layers.put("sched.polls_per_item", per_item(s1.polls - s0.polls));
    layers.put("sched.parks_per_kitem", 1e3 * per_item(s1.parks - s0.parks));
    layers.put("sched.steals", (s1.steals - s0.steals) as f64);
    layers.put("sched.suspends", (s1.suspends - s0.suspends) as f64);
    let (c0, c1) = (&m0.checkpoints, &m1.checkpoints);
    layers.put("ckpt.snapshot_ms_p50", c1.snapshot.p50 as f64 / 1e6);
    layers.put("ckpt.persist_ms_p50", c1.persist.p50 as f64 / 1e6);
    layers.put("ckpt.consolidate_ms_p50", c1.consolidate.p50 as f64 / 1e6);
    layers.put(
        "ckpt.bytes_per_take",
        ratio((c1.bytes - c0.bytes) as f64, (c1.taken - c0.taken) as f64),
    );
    layers.put("buffer.buffered_mb_end", c1.buffered_bytes as f64 / 1e6);
    layers.put(
        "buffer.encode_deferred",
        (c1.encode_deferred - c0.encode_deferred) as f64,
    );
    layers.put(
        "barrier.gather_waits_per_req",
        delta(|t| t.gather_waits).iter().sum::<u64>() as f64 / requests,
    );
    layers.put(
        "sink.outputs_per_req",
        delta(|t| t.emits).iter().sum::<u64>() as f64 / requests,
    );
    layers.put("state.bytes_end", m1.state_bytes_total() as f64);
}

/// Latencies of paced windows, accumulated over a run's segments.
#[derive(Debug, Default)]
struct Paced {
    /// Median latency (ms) of each half-second window, by due time.
    window_p50_ms: Vec<f64>,
    latencies_ns: Vec<u64>,
    lateness: Lateness,
    /// Feed spans, under which the windows' `submit` spans hang.
    feed_spans: Vec<u32>,
}

/// A sentinel line's reading: `(window, latency)`.
type Sighting = (usize, u64);

/// Polls `Deployment::with_state` until each announced sentinel word is
/// visible in its partition of `counts`; the time from the line's due
/// time is its latency. Returns the sightings and how many never showed.
fn watch_sentinels(
    live: &Live,
    tracer: &Tracer,
    traced: bool,
    parent: u32,
    announced: mpsc::Receiver<(u32, u64, usize)>,
) -> (Vec<Sighting>, u64) {
    let mut rec = tracer.recorder(traced);
    let (mut seen, mut lost) = (Vec::new(), 0);
    for (n, due_ns, window) in announced {
        let word = Key::str(sentinel_word(n));
        let replica = (word.stable_hash() % PARTITIONS as u64) as u32;
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            let open = rec.begin(name::WITH_STATE, parent, NO_REQ);
            let visible = live.with_target(replica, |s| Ok(s.as_table()?.contains(&word)));
            rec.end(open);
            if visible == Ok(true) {
                seen.push((window, tracer.now_ns().saturating_sub(due_ns)));
                break;
            }
            if visible.is_err() || Instant::now() > deadline {
                lost += 1;
                break;
            }
            std::thread::sleep(Duration::from_micros(500));
        }
    }
    (seen, lost)
}

/// Open loop: one warm-up window (thread start, first-touch and cache
/// fill, not reported) then `windows` half-second windows at the spec's
/// fixed rate on `live`, each request timed from when it was due. With
/// `checkpoints`, one is taken every second window. Adds to `paced`.
#[allow(clippy::too_many_arguments)]
fn paced_windows(
    ctx: &mut Ctx,
    live: &Live,
    rng: &mut Rng,
    windows: usize,
    checkpoints: bool,
    paced: &mut Paced,
    rec: &mut Recorder,
    parent: u32,
) -> Res<()> {
    let spec = ctx.spec;
    let tracer = ctx.tracer;
    let traced = rec.on();
    let pacer = Pacer::new(spec.paced_rate);
    let n = pacer.requests_in(windows + 1);
    let Batch {
        entries,
        payloads,
        replies,
    } = ctx.model.mixed(n, rng, spec.sentinel_every);
    let triggers = if checkpoints {
        checkpoint_triggers(n, windows.div_ceil(2))
    } else {
        Vec::new()
    };
    let stop = AtomicBool::new(false);
    let (due_tx, due_rx) = mpsc::channel();
    let (seen_tx, seen_rx) = mpsc::channel();
    let dep = live.dep();
    let (corrs, outputs, sightings, side_failures, drained) = std::thread::scope(|s| {
        let drainer = s.spawn(|| drain(live, tracer, &stop));
        let control = s.spawn(|| checkpoint_on_signal(live, tracer, traced, parent, due_rx));
        let watcher = s.spawn(|| watch_sentinels(live, tracer, traced, parent, seen_rx));
        let feed = rec.begin(name::FEED, parent, NO_REQ);
        paced.feed_spans.push(feed.id);
        let mut corrs = Vec::with_capacity(n);
        let start_ns = tracer.now_ns();
        let mut next = 0;
        for (i, payload) in payloads.into_iter().enumerate() {
            let due_ns = start_ns + pacer.due_ns(i as u64);
            Pacer::wait_until(tracer.origin(), due_ns);
            paced.lateness.record(due_ns, tracer.now_ns());
            if triggers.get(next) == Some(&i) {
                let _ = due_tx.send(());
                next += 1;
            }
            let open = rec.begin(name::SUBMIT, feed.id, i as u64);
            let corr = dep.submit(entries[i], payload).ok();
            rec.end(open);
            if let (Reply::Sentinel(k), Some(_)) = (replies[i], corr) {
                let _ = seen_tx.send((k, due_ns, pacer.window_of(i as u64)));
            }
            corrs.push(corr);
        }
        drop((due_tx, seen_tx));
        rec.end(feed);
        let ckpt_failures = control.join().expect("control thread does not panic");
        let (mut sightings, lost) = watcher.join().expect("watcher does not panic");
        let drained = rec.scope(name::QUIESCE, parent, |_, _| live.quiesce());
        stop.store(true, Ordering::SeqCst);
        let outputs = drainer.join().expect("drainer does not panic");
        // Latency of replies: output arrival minus the request's due time.
        let index = corr_index(&corrs);
        for o in &outputs {
            if let Some(&i) = index.get(&o.corr) {
                let due_ns = start_ns + pacer.due_ns(i as u64);
                sightings.push((pacer.window_of(i as u64), o.at_ns.saturating_sub(due_ns)));
            }
        }
        (corrs, outputs, sightings, ckpt_failures + lost, drained)
    });
    if !drained {
        return Err("paced windows did not quiesce".into());
    }
    ctx.attempted += n as u64;
    ctx.failed += corrs.iter().filter(|c| c.is_none()).count() as u64 + side_failures;
    ctx.failed += ctx.model.check_outputs(&replies, &corrs, &outputs);
    let mut by_window: Vec<Vec<u64>> = vec![Vec::new(); windows];
    for (w, lat) in sightings {
        if w > 0 {
            by_window[(w - 1).min(windows - 1)].push(lat);
            paced.latencies_ns.push(lat);
        }
    }
    paced.window_p50_ms.extend(
        by_window
            .iter()
            .filter(|w| !w.is_empty())
            .map(|w| percentile(w, 50.0) as f64 / 1e6),
    );
    Ok(())
}

/// One paced segment: a fresh deployment and `paced_windows` quiet
/// windows, whose medians are the end-to-end latency samples. A traced
/// run halves them and follows with as many busy windows (checkpoints
/// inside), whose tail is reported per layer.
fn paced_segment(
    ctx: &mut Ctx,
    segment: usize,
    rng: &mut Rng,
    quiet: &mut Paced,
    busy: &mut Paced,
    parent: u32,
) -> Res<()> {
    let traced = ctx.tracer.enabled();
    let mut rec = ctx.tracer.recorder(traced);
    let span = rec.begin(name::PACED, parent, segment as u64);
    ctx.model.reset();
    let live = ctx.deploy(&mut rec, span.id)?;
    let windows = ctx.spec.paced_windows;
    if traced {
        let half = (windows / 2).max(2);
        paced_windows(ctx, &live, rng, half, false, quiet, &mut rec, span.id)?;
        paced_windows(ctx, &live, rng, half, true, busy, &mut rec, span.id)?;
    } else {
        paced_windows(ctx, &live, rng, windows, false, quiet, &mut rec, span.id)?;
    }
    let verify = rec.begin(name::VERIFY, span.id, NO_REQ);
    ctx.failed += ctx.model.check_state(&live, true)?;
    rec.end(verify);
    rec.scope(name::SHUTDOWN, span.id, |_, _| live.shutdown());
    rec.end(span);
    Ok(())
}

/// One recovery round, on a fresh deployment so that every round recovers
/// the same amount of state and replays the same number of items. A round
/// runs `recovery_cycles` cycles of {feed writes, `quiesce`,
/// `recovery_kills` × [kill replica 0 of the target state, recover it,
/// `quiesce` (timed from the kill)], checkpoint}. With no input and no
/// checkpoint between them, the kills of one cycle restore the same
/// checkpoint and replay the same items: identical samples of what a user
/// waits for after a failure. The target's state image must be byte-equal
/// before the first kill and after every catch-up. Only a round's first
/// cycle is sampled into `kill_ms`: later cycles replay more (upstream
/// buffers are not trimmed at seed).
fn recovery_round(
    ctx: &mut Ctx,
    round: usize,
    rng: &mut Rng,
    kill_ms: &mut Vec<f64>,
    parent: u32,
) -> Res<()> {
    let spec = ctx.spec;
    let traced = ctx.tracer.enabled();
    let mut rec = ctx.tracer.recorder(traced);
    let span = rec.begin(name::RECOVERY, parent, round as u64);
    ctx.model.reset();
    let live = ctx.deploy(&mut rec, span.id)?;
    for cycle in 0..spec.recovery_cycles {
        let Batch {
            entries, payloads, ..
        } = ctx.model.writes(spec.recovery_requests, rng);
        let (due_tx, _) = mpsc::channel();
        let fed = feed_closed(&live, &entries, payloads, &mut rec, span.id, &[], due_tx);
        ctx.attempted += entries.len() as u64;
        ctx.failed += fed.failures();
        if !rec.scope(name::QUIESCE, span.id, |_, _| live.quiesce()) {
            return Err(format!(
                "recovery round {round} did not quiesce before the kill"
            ));
        }
        let before = live.state_image(0)?;
        for _ in 0..spec.recovery_kills {
            let t0 = Instant::now();
            let open = rec.begin(name::RECOVER, span.id, round as u64);
            let report = live.dep().reconfigure(ReconfigRequest::FailAndRecover {
                state: live.target,
                replica: 0,
            });
            rec.end(open);
            let caught_up = rec.scope(name::QUIESCE, span.id, |_, _| live.quiesce());
            let took = t0.elapsed();
            let report = report.map_err(err)?;
            if !caught_up {
                return Err(format!("recovery round {round} did not catch up"));
            }
            ctx.attempted += 1;
            ctx.failed += u64::from(live.state_image(0)? != before);
            if cycle > 0 {
                continue;
            }
            kill_ms.push(took.as_secs_f64() * 1e3);
            if traced {
                let restore = report.restore;
                ctx.layers
                    .put("recovery.restore_ms_p50", restore.as_secs_f64() * 1e3);
                ctx.layers
                    .put("recovery.replayed_items_p50", report.replayed as f64);
                if report.replayed > 0 {
                    let replay_us = took.saturating_sub(restore).as_secs_f64() * 1e6;
                    ctx.layers.put(
                        "recovery.replay_us_per_item",
                        replay_us / report.replayed as f64,
                    );
                }
            }
        }
        rec.scope(name::CHECKPOINT, span.id, |_, _| live.checkpoint())?;
    }
    let verify = rec.begin(name::VERIFY, span.id, NO_REQ);
    // See `Model::check_state`: after recovering CF's first stage, the
    // state computed downstream of it is not exactly-once yet.
    let derived = !matches!(spec.kind, Kind::Cf { .. });
    ctx.failed += ctx.model.check_state(&live, derived)?;
    rec.end(verify);
    rec.scope(name::SHUTDOWN, span.id, |_, _| live.shutdown());
    rec.end(span);
    Ok(())
}

/// Per-layer metrics that are read off the spans.
fn span_layers(layers: &mut Layers, spans: &[Span], epochs: &[Epoch], quiet: &Paced) {
    let mut submits: HashMap<u32, Vec<u64>> = HashMap::new();
    for s in spans.iter().filter(|s| s.name == name::SUBMIT) {
        submits.entry(s.parent).or_default().push(s.dur_ns());
    }
    for epoch in epochs.iter().filter(|e| e.traced) {
        let Some(durs) = submits.get(&epoch.feed_span) else {
            continue;
        };
        let blocked: u64 = durs.iter().filter(|&&d| d > BLOCKED_SUBMIT_NS).sum();
        layers.put(
            "deploy.submit_blocked_frac",
            blocked as f64 / (epoch.wall_s * 1e9),
        );
        layers.put(
            "ckpt.feeder_stall_ms_max",
            durs.iter().copied().max().unwrap_or(0) as f64 / 1e6,
        );
    }
    for durs in quiet.feed_spans.iter().filter_map(|f| submits.get(f)) {
        layers.put("deploy.submit_ns_p50", percentile(durs, 50.0) as f64);
    }
    let steady: Vec<u32> = spans
        .iter()
        .filter(|s| s.name == name::EPOCH)
        .map(|s| s.id)
        .collect();
    let ckpts: Vec<u64> = spans
        .iter()
        .filter(|s| s.name == name::CHECKPOINT && steady.contains(&s.parent))
        .map(Span::dur_ns)
        .collect();
    layers.put("ckpt.total_ms_p50", percentile(&ckpts, 50.0) as f64 / 1e6);
}

/// Runs one workload once and assembles its metrics.
///
/// The run is a sequence of laps, each a steady epoch, a paced segment
/// and a recovery round (while the spec has any left of each), rather
/// than three contiguous phases: host speed drifts over seconds, and this
/// way every metric samples the whole length of the run.
pub fn run(args: RunArgs) -> Res<RunResult> {
    let spec = args.spec;
    let tracer = Tracer::new(args.trace);
    let mut ctx = Ctx {
        spec,
        tracer: &tracer,
        model: Model::new(&spec, args.seed),
        attempted: 0,
        failed: 0,
        setups: Vec::new(),
        layers: Layers::default(),
    };
    let mut root = tracer.recorder(true);
    let run_span = root.begin(name::RUN, ROOT, NO_REQ);
    let spin_before = host::spin_ms();

    // Every steady epoch feeds this one batch; the copy of the model that
    // has it applied is what each epoch's end state is checked against.
    let (batch, steady_model) = {
        let mut model = ctx.model.clone();
        let mut rng = Rng::new(args.seed, stream::STEADY);
        (model.mixed(spec.epoch_requests, &mut rng, 0), model)
    };
    let mut paced_rng = Rng::new(args.seed, stream::PACED);
    let mut recovery_rng = Rng::new(args.seed, stream::RECOVERY);
    let mut epochs = Vec::new();
    let (mut quiet, mut busy) = (Paced::default(), Paced::default());
    let mut kill_ms = Vec::new();
    let laps = spec
        .epochs
        .max(spec.paced_segments)
        .max(spec.recovery_rounds);
    for lap in 0..laps {
        if lap < spec.epochs {
            // A traced run leaves every other epoch untraced, so one run
            // yields both sides of `proc.trace_overhead_frac`.
            let traced = args.trace && lap % 2 == 0;
            let steady = (&batch, &steady_model);
            epochs.push(steady_epoch(&mut ctx, lap, steady, traced, run_span.id)?);
        }
        if args.trace && lap < spec.paced_segments {
            paced_segment(
                &mut ctx,
                lap,
                &mut paced_rng,
                &mut quiet,
                &mut busy,
                run_span.id,
            )?;
        }
        if lap < spec.recovery_rounds {
            recovery_round(&mut ctx, lap, &mut recovery_rng, &mut kill_ms, run_span.id)?;
        }
    }
    drop((batch, steady_model));

    let walls = |traced: bool| -> Vec<f64> {
        epochs
            .iter()
            .filter(|e| e.traced == traced)
            .map(|e| e.wall_s)
            .collect()
    };
    let n = spec.epoch_requests as f64;
    let spin_after = host::spin_ms();
    let setups: Vec<f64> = ctx.setups.iter().map(|s| s.total_s).collect();
    let cpu: Vec<f64> = epochs.iter().map(|e| e.cpu_s / n * 1e6).collect();
    let rss: Vec<f64> = epochs.iter().map(|e| e.rss_mb).collect();
    let list = |v: &[f64]| {
        v.iter()
            .map(|x| format!("{x:.4}"))
            .collect::<Vec<_>>()
            .join(" ")
    };
    let notes = vec![
        format!(
            "cores={} host.spin_ms before={spin_before:.1} after={spin_after:.1}",
            host::cores()
        ),
        format!("samples epoch_wall_s: {}", list(&walls(false))),
        format!("samples epoch_cpu_us_per_req: {}", list(&cpu)),
        format!("samples epoch_rss_mb: {}", list(&rss)),
        format!("samples setup_s: {}", list(&setups)),
        format!("samples recovery_ms: {}", list(&kill_ms)),
    ];
    if !args.trace {
        // Memory noise is one-sided (allocator slack, deeper queues), so
        // the smallest epoch peak is the steadiest estimate of what the
        // workload needs; every timing reports its median.
        let values = [
            n / median(&walls(false)),
            median(&cpu),
            median(&kill_ms),
            rss.iter().copied().fold(f64::INFINITY, f64::min),
            median(&setups),
        ];
        return Ok(RunResult {
            attempted: ctx.attempted,
            failed: ctx.failed,
            metrics: END_TO_END.iter().map(|m| m.name).zip(values).collect(),
            notes,
            spans: Vec::new(),
        });
    }

    let probes = root.begin(name::PROBES, run_span.id, NO_REQ);
    probe::run_all(&spec, args.seed, &tracer, probes.id, &mut ctx.layers)?;
    root.end(probes);
    root.end(run_span);
    drop(root);
    let spans = tracer.snapshot();
    let layers = &mut ctx.layers;
    for s in &ctx.setups {
        layers.put("deploy.start_ms", s.start_ms);
        layers.put(
            "deploy.preload_rps",
            s.preload_requests as f64 / s.preload_s,
        );
    }
    if quiet.latencies_ns.is_empty() || busy.latencies_ns.is_empty() {
        return Err("the paced windows saw no reply".into());
    }
    layers.put("client.latency_p50_ms", median(&quiet.window_p50_ms));
    layers.put(
        "client.latency_p99_ms",
        percentile(&busy.latencies_ns, 99.0) as f64 / 1e6,
    );
    layers.put(
        "client.latency_max_ms",
        busy.latencies_ns.iter().copied().max().unwrap_or(0) as f64 / 1e6,
    );
    layers.put(
        "client.gen_lateness_ms_max",
        quiet.lateness.max_ns.max(busy.lateness.max_ns) as f64 / 1e6,
    );
    let (on, off) = (median(&walls(true)), median(&walls(false)));
    layers.put(
        "proc.trace_overhead_frac",
        if off > 0.0 { on / off - 1.0 } else { 0.0 },
    );
    layers.put("host.spin_ms", spin_before);
    layers.put("host.spin_ms", spin_after);
    span_layers(layers, &spans, &epochs, &quiet);
    let mut notes = notes;
    notes.push(format!(
        "latency samples: p50 {} in {} windows, tail {}; generator late by more than 1 ms: {}",
        quiet.latencies_ns.len(),
        quiet.window_p50_ms.len(),
        busy.latencies_ns.len(),
        quiet.lateness.over_1ms + busy.lateness.over_1ms,
    ));
    Ok(RunResult {
        attempted: ctx.attempted,
        failed: ctx.failed,
        metrics: PER_LAYER
            .iter()
            .map(|m| (m.name, layers.median_of(m.name)))
            .collect(),
        notes,
        spans,
    })
}

/// The last line of a single run's standard output.
pub fn result_line(result: &RunResult) -> String {
    let metrics: Vec<String> = result
        .metrics
        .iter()
        .map(|(name, value)| {
            let unit = crate::spec::metric_def(name).map_or("", |m| m.unit);
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        result.failed == 0,
        result.attempted,
        result.failed,
        metrics.join(", ")
    )
}

/// Writes a traced run's spans to `perf/out/<workload>.trace.json`.
pub fn write_trace(workload: &str, seed: u64, spans: &[Span]) -> Res<String> {
    let dir = std::path::Path::new("perf").join("out");
    std::fs::create_dir_all(&dir).map_err(err)?;
    let path = dir.join(format!("{workload}.trace.json"));
    std::fs::write(&path, trace::render_json(workload, seed, spans)).map_err(err)?;
    Ok(path.display().to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checkpoints_fall_due_inside_the_feed() {
        assert_eq!(checkpoint_triggers(300, 2), vec![100, 200]);
        assert_eq!(checkpoint_triggers(10, 4), vec![2, 4, 6, 8]);
        assert!(checkpoint_triggers(100, 0).is_empty());
    }

    #[test]
    fn the_result_line_is_one_json_object_with_the_contract_keys() {
        let r = RunResult {
            attempted: 10,
            failed: 0,
            metrics: vec![("throughput_rps", 1234.5678), ("setup_s", 0.25)],
            notes: Vec::new(),
            spans: Vec::new(),
        };
        let line = result_line(&r);
        assert!(!line.contains('\n'));
        let json = sdg_common::obs::json::parse(&line).expect("valid json");
        assert_eq!(
            json.get("correct"),
            Some(&sdg_common::obs::json::Json::Bool(true))
        );
        assert_eq!(json.get("attempted").unwrap().as_u64(), Some(10));
        assert_eq!(json.get("failed").unwrap().as_u64(), Some(0));
        let m = json.get("metrics").unwrap();
        let t = m.get("throughput_rps").unwrap();
        assert_eq!(t.get("value").unwrap().as_f64(), Some(1234.5678));
        assert_eq!(t.get("unit").unwrap().as_str(), Some("1/s"));
        assert_eq!(
            m.get("setup_s").unwrap().get("unit").unwrap().as_str(),
            Some("s")
        );
    }
}
