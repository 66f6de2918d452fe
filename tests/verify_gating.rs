//! Acceptance tests for certificate-gated runtime optimizations.
//!
//! `sdg-verify` attaches a certificate report at translation time and the
//! runtime consults it before enabling the aggressive state-path
//! optimizations: lock striping needs the key-locality certificate, delta
//! checkpointing needs replay safety. A program that fails a check must
//! still deploy and compute correct answers — it just runs in safe mode. A
//! graph without an attached report is trusted.

use std::time::Duration;

use sdg::common::record;
use sdg::common::value::Value;
use sdg::prelude::{Deployment, ReconfigRequest, RuntimeConfig};
use sdg::SdgProgram;

/// Deliberately cross-key: the second `put` goes through a reassigned key
/// inside the same task element, so routing and access key diverge
/// (`SL0301`) and `t` must not be striped.
const CROSS_KEY: &str = "@Partitioned Table t;\n\
     void put2(int k, int v) {\n\
       t.put(k, v);\n\
       k = k + 1;\n\
       t.put(k, v);\n\
     }\n\
     int get(int k) {\n\
       let v = t.get(k);\n\
       emit v;\n\
     }";

const CLEAN: &str = "@Partitioned Table t;\n\
     void put(int k, int v) { t.put(k, v); }\n\
     int get(int k) { let v = t.get(k); emit v; }";

/// The order-sensitive merge fixture: `SL0303` revokes replay safety for
/// `counts`, which must disable delta generations for it. The
/// state is a table — the only structure that can cut deltas at all, so
/// the gate (and not a serialisation fallback) is what the test observes.
const ORDER_SENSITIVE: &str = "@Partial Table counts;\n\
     void add(string w) { counts.inc(w, 1); }\n\
     Vector total() {\n\
       @Partial let s = @Global counts.size();\n\
       let m = combine(@Collection s);\n\
       emit m;\n\
     }\n\
     Vector combine(@Collection Vector all) {\n\
       let out = [];\n\
       foreach (cur : all) { out = append(out, cur); }\n\
       return out;\n\
     }";

fn stripes_of(snapshot: &sdg::common::obs::MetricsSnapshot, state: &str) -> u64 {
    snapshot
        .state(state)
        .unwrap_or_else(|| panic!("state `{state}` in snapshot"))
        .stripes
}

#[test]
fn cross_key_program_runs_unsharded_and_correct() {
    let program = SdgProgram::compile(CROSS_KEY).unwrap();
    let report = program.verify_report().expect("report attached");
    assert!(!report.key_local("t"), "verifier must revoke key locality");

    let cfg = RuntimeConfig::builder().state_stripes(8).build();
    let d = program.deploy(cfg).unwrap();
    d.submit(
        "put2",
        record! {"k" => Value::Int(1), "v" => Value::Int(10)},
    )
    .unwrap();
    assert!(d.quiesce(Duration::from_secs(10)));

    // Safe mode: the certificate is missing, so the cell keeps one stripe
    // regardless of the configured count.
    assert_eq!(stripes_of(&d.metrics(), "t"), 1);

    // Both writes — the routed one and the cross-key one — must be
    // visible, i.e. the fallback is still a correct execution.
    for (k, want) in [(1, 10), (2, 10)] {
        d.submit("get", record! {"k" => Value::Int(k)}).unwrap();
        let out = d.outputs().recv_timeout(Duration::from_secs(10)).unwrap();
        assert_eq!(out.value, Value::Int(want), "t[{k}]");
    }
    d.shutdown();
}

#[test]
fn certified_program_is_striped() {
    let program = SdgProgram::compile(CLEAN).unwrap();
    assert!(program.verify_report().unwrap().key_local("t"));

    let cfg = RuntimeConfig::builder().state_stripes(8).build();
    let d = program.deploy(cfg).unwrap();
    d.submit("put", record! {"k" => Value::Int(1), "v" => Value::Int(7)})
        .unwrap();
    assert!(d.quiesce(Duration::from_secs(10)));
    assert_eq!(stripes_of(&d.metrics(), "t"), 8);
    d.shutdown();
}

/// `program`'s graph with its `sdg-verify` report removed, as a hand-built
/// graph comes.
fn without_report(program: &SdgProgram) -> sdg::prelude::Sdg {
    let mut graph = program.graph().clone();
    graph.verify = None;
    graph
}

#[test]
fn graph_without_report_is_trusted() {
    let program = SdgProgram::compile(CROSS_KEY).unwrap();
    let cfg = RuntimeConfig::builder().state_stripes(8).build();
    let d = Deployment::start(without_report(&program), cfg).unwrap();
    assert_eq!(stripes_of(&d.metrics(), "t"), 8);
    d.shutdown();
}

#[test]
fn unreplayable_merge_disables_delta_checkpointing() {
    let run = |source: &str| {
        let program = SdgProgram::compile(source).unwrap();
        let mut cfg = RuntimeConfig::default();
        cfg.checkpoint.enabled = true;
        cfg.checkpoint.interval = Duration::from_secs(3600);
        let d = program.deploy(cfg).unwrap();
        for n in 0..20 {
            d.submit("add", record! {"w" => Value::str(format!("w{n}"))})
                .unwrap();
        }
        assert!(d.quiesce(Duration::from_secs(10)));
        d.reconfigure(ReconfigRequest::Checkpoint).unwrap();
        // A second generation over a dirty cell is where a delta would be
        // cut; an ungated cell records it as one.
        d.submit("add", record! {"w" => Value::str("w0")}).unwrap();
        assert!(d.quiesce(Duration::from_secs(10)));
        d.reconfigure(ReconfigRequest::Checkpoint).unwrap();
        let deltas = d.metrics().checkpoints.deltas;
        d.shutdown();
        deltas
    };

    // Same program, one commutative merge swap: `append` (order-sensitive,
    // SL0303) vs `vec_add` (certified) — only the certified one may cut
    // delta generations.
    assert_eq!(
        run(ORDER_SENSITIVE),
        0,
        "uncertified merge must gate deltas"
    );
    let certified = ORDER_SENSITIVE.replace("append(", "vec_add(");
    assert!(run(&certified) > 0, "certified merge must cut deltas");
}

#[test]
fn uncertified_partial_merge_refuses_scale_in() {
    // Scale-in of a @Partial group folds the victim replica into a
    // survivor — an additive merge applied outside the usual read-all
    // barrier. The runtime must refuse when `sdg-verify` cannot certify
    // the program's merge as sound, and explain itself.
    let deploy = |source: &str, strip_report: bool| {
        let program = SdgProgram::compile(source).unwrap();
        let sid = program.state("counts").expect("state counts");
        let task = {
            let mut ids: Vec<_> = program
                .graph()
                .tasks_accessing(sid)
                .iter()
                .map(|t| t.id)
                .collect();
            ids.sort();
            ids[0]
        };
        let mut cfg = RuntimeConfig::default();
        cfg.se_instances.insert(sid, 2);
        let d = if strip_report {
            Deployment::start(without_report(&program), cfg).unwrap()
        } else {
            program.deploy(cfg).unwrap()
        };
        for n in 0..20 {
            d.submit("add", record! {"w" => Value::str(format!("w{}", n % 6))})
                .unwrap();
        }
        assert!(d.quiesce(Duration::from_secs(10)));
        (d, sid, task)
    };
    let total = |d: &Deployment, sid| {
        let replicas = d
            .metrics()
            .state_by_id(sid)
            .map_or(0, |s| s.instances as usize);
        let mut total = 0i64;
        for replica in 0..replicas {
            d.with_state(sid, replica as u32, |s| {
                s.as_table().unwrap().for_each(|_, v| {
                    total += v.as_int().unwrap();
                });
            })
            .unwrap();
        }
        total
    };

    // The order-sensitive merge (SL0303): refused, replicas untouched.
    let (d, sid, task) = deploy(ORDER_SENSITIVE, false);
    let err = d
        .reconfigure(sdg::prelude::ReconfigRequest::ScaleIn { task })
        .unwrap_err();
    let msg = err.to_string();
    assert!(
        msg.contains("not certified sound") && msg.contains("Fix the merge."),
        "diagnostic must name the gate and the fix: {msg}"
    );
    assert_eq!(
        d.metrics().state_by_id(sid).unwrap().instances,
        2,
        "a refused scale-in must not change the group"
    );
    assert_eq!(total(&d, sid), 20);
    d.shutdown();

    // Without a report there is no certificate to refuse on.
    let (d, sid, task) = deploy(ORDER_SENSITIVE, true);
    d.reconfigure(sdg::prelude::ReconfigRequest::ScaleIn { task })
        .unwrap();
    assert_eq!(d.metrics().state_by_id(sid).unwrap().instances, 1);
    assert_eq!(total(&d, sid), 20, "the fold must preserve the sum");
    d.shutdown();

    // Fixing the merge (vec_add is certified) allows the scale-in.
    let certified = ORDER_SENSITIVE.replace("append(", "vec_add(");
    let (d, sid, task) = deploy(&certified, false);
    d.reconfigure(sdg::prelude::ReconfigRequest::ScaleIn { task })
        .unwrap();
    assert_eq!(d.metrics().state_by_id(sid).unwrap().instances, 1);
    assert_eq!(total(&d, sid), 20);
    d.shutdown();
}
