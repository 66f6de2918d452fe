//! Cross-crate integration: annotated source → analysis → translation →
//! deployment → correct answers, through the public `sdg` facade.

use std::time::Duration;

use sdg::apps::cf::{CfApp, CfReference};
use sdg::apps::kv::KvApp;
use sdg::apps::lr::LrApp;
use sdg::apps::wc::WcApp;
use sdg::apps::workloads::{kv_requests, lr_examples, ratings, text_lines, KvRequest};
use sdg::prelude::*;

/// A quiet deployment has put every output in the sink: an instance hands
/// the outputs of a slice over before it goes idle, so `quiesce` returning
/// true leaves nothing held back in an instance.
#[test]
fn quiesce_implies_every_output_is_in_the_sink() {
    const KEYS: i64 = 64;
    let mut cfg = RuntimeConfig::builder().build();
    cfg.checkpoint.enabled = true;
    cfg.checkpoint.interval = Duration::from_secs(3600);
    let kv = KvApp::start(2, cfg).unwrap();
    for k in 0..KEYS {
        kv.put(k, &format!("v{k}")).unwrap();
    }
    let mut asked: Vec<u64> = (0..1_000)
        .map(|n| kv.request_get(n % KEYS).unwrap())
        .collect();
    assert!(kv.quiesce(Duration::from_secs(30)));
    let mut answered: Vec<u64> = std::iter::from_fn(|| kv.deployment().outputs().try_recv().ok())
        .map(|event| event.corr)
        .collect();
    asked.sort_unstable();
    answered.sort_unstable();
    assert_eq!(answered, asked);
    kv.shutdown();
}

#[test]
fn compile_deploy_and_query_a_custom_program() {
    // A program exercising all four annotations in one pipeline.
    let source = r#"
        @Partitioned Table totals;
        @Partial Table perNode;

        void record(int account, int amount) {
            totals.inc(account, amount);
            perNode.inc(account, amount);
        }

        int balance(int account) {
            let v = totals.get(account);
            emit v;
        }
    "#;
    let program = SdgProgram::compile(source).expect("compile");
    // record() splits into two TEs: partitioned totals, then partial perNode.
    assert_eq!(program.graph().tasks.len(), 3);
    let dot = program.to_dot();
    assert!(dot.contains("totals (partitioned)"));
    assert!(dot.contains("perNode (partial)"));

    let d = program
        .deploy_with(RuntimeConfig::default(), |sdg, cfg| {
            cfg.se_instances
                .insert(sdg.state_by_name("totals").unwrap().id, 3);
            cfg.se_instances
                .insert(sdg.state_by_name("perNode").unwrap().id, 2);
        })
        .expect("deploy");

    for i in 0..300i64 {
        d.submit(
            "record",
            record! {"account" => Value::Int(i % 10), "amount" => Value::Int(1)},
        )
        .unwrap();
    }
    assert!(d.quiesce(Duration::from_secs(30)));
    d.submit("balance", record! {"account" => Value::Int(3)})
        .unwrap();
    let out = d.outputs().recv_timeout(Duration::from_secs(5)).unwrap();
    assert_eq!(out.value, Value::Int(30));
    assert_eq!(d.stats().errors, 0);
    d.shutdown();
}

#[test]
fn cf_kv_wc_lr_apps_work_through_the_facade() {
    // CF against its reference model.
    let cf = CfApp::start(2, 2, RuntimeConfig::default()).unwrap();
    let mut reference = CfReference::new();
    for r in ratings(120, 15, 25, 3) {
        reference.add_rating(r);
        cf.add_rating(r).unwrap();
    }
    assert!(cf.quiesce(Duration::from_secs(30)));
    for user in 0..5 {
        assert_eq!(
            cf.get_rec(user, Duration::from_secs(10)).unwrap(),
            reference.recommend(user)
        );
    }
    cf.shutdown();

    // KV against a hashmap.
    let kv = KvApp::start(3, RuntimeConfig::default()).unwrap();
    let mut model = std::collections::HashMap::new();
    for req in kv_requests(200, 30, 8, 0.2, 5) {
        kv.apply(&req).unwrap();
        if let KvRequest::Put { key, value } = req {
            model.insert(key, value);
        }
    }
    assert!(kv.quiesce(Duration::from_secs(30)));
    for (k, v) in model {
        assert_eq!(
            kv.get(k, Duration::from_secs(5)).unwrap(),
            Some(Value::str(v))
        );
    }
    kv.shutdown();

    // WC against a sequential count.
    let wc = WcApp::start(2, RuntimeConfig::default()).unwrap();
    let lines = text_lines(40, 6, 30, 2);
    let mut expected: std::collections::HashMap<String, i64> = std::collections::HashMap::new();
    for line in &lines {
        for w in line.split_whitespace() {
            *expected.entry(w.to_lowercase()).or_default() += 1;
        }
        wc.add_line(line).unwrap();
    }
    assert!(wc.quiesce(Duration::from_secs(30)));
    assert_eq!(wc.counts().unwrap(), expected);
    wc.shutdown();

    // LR learns something useful.
    let lr = LrApp::start(2, 5, RuntimeConfig::default()).unwrap();
    let examples = lr_examples(800, 5, 9);
    for ex in &examples {
        lr.train(ex).unwrap();
    }
    assert!(lr.quiesce(Duration::from_secs(60)));
    let weights = lr.weights(Duration::from_secs(10)).unwrap();
    let correct = examples
        .iter()
        .filter(|ex| LrApp::predict(&weights, &ex.features) == ex.label)
        .count();
    assert!(correct as f64 / examples.len() as f64 > 0.8);
    lr.shutdown();
}

#[test]
fn the_same_state_serves_online_and_offline_workflows() {
    // §3.4: one SDG expresses both workflows over shared state — new
    // ratings keep arriving while recommendation requests are served, and
    // results reflect all ratings applied so far (bounded staleness).
    let cf = CfApp::start(1, 1, RuntimeConfig::default()).unwrap();
    let mut reference = CfReference::new();
    let stream = ratings(200, 10, 12, 4);
    for (i, r) in stream.iter().enumerate() {
        reference.add_rating(*r);
        cf.add_rating(*r).unwrap();
        if i % 50 == 49 {
            // Interleaved reads see fresh state once the pipeline drains.
            assert!(cf.quiesce(Duration::from_secs(30)));
            let got = cf.get_rec(r.user, Duration::from_secs(10)).unwrap();
            assert_eq!(got, reference.recommend(r.user), "after {} ratings", i + 1);
        }
    }
    cf.shutdown();
}

#[test]
fn deployment_reports_user_errors_without_crashing() {
    let source = "@Partitioned Table t;\n\
                  int divide(int k, int d) { let x = t.get(k); emit 100 / d; }";
    let d = SdgProgram::compile(source)
        .unwrap()
        .deploy(RuntimeConfig::default())
        .unwrap();
    d.submit(
        "divide",
        record! {"k" => Value::Int(1), "d" => Value::Int(0)},
    )
    .unwrap();
    assert!(d.quiesce(Duration::from_secs(10)));
    assert_eq!(d.stats().errors, 1);
    // The deployment keeps serving afterwards.
    d.submit(
        "divide",
        record! {"k" => Value::Int(1), "d" => Value::Int(4)},
    )
    .unwrap();
    let out = d.outputs().recv_timeout(Duration::from_secs(5)).unwrap();
    assert_eq!(out.value, Value::Int(25));
    d.shutdown();
}
