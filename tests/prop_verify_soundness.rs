//! Property-based soundness of the `sdg-verify` certificates.
//!
//! Two end-to-end properties over generated `@Partitioned Table` programs
//! and request sequences:
//!
//! 1. **Striping is invisible.** A deployment configured with many lock
//!    stripes must leave exactly the same state bytes as an unsharded one.
//!    For certified key-local programs the striped deployment really does
//!    stripe; for programs the verifier rejects, the gate forces safe mode
//!    — either way the observable result may not change.
//! 2. **Certified replay is exact.** For certified-deterministic programs,
//!    a checkpoint → kill → restore → replay cycle (the paper's Fig. 11
//!    experiment) must reproduce the exact state of an undisturbed run.

use std::time::Duration;

use proptest::prelude::*;
use sdg::common::record;
use sdg::common::value::Value;
use sdg::prelude::{ReconfigRequest, RuntimeConfig};
use sdg::SdgProgram;

/// One generated statement operating on the routed key `k`.
fn op_stmt() -> BoxedStrategy<String> {
    prop_oneof![
        3 => (-20i64..20).prop_map(|c| format!("t.put(k, v + {c});")),
        3 => (1i64..5).prop_map(|c| format!("t.inc(k, {c});")),
        1 => Just("t.remove(k);".to_owned()),
        2 => ((-10i64..10), (1i64..5)).prop_map(|(c, by)| {
            format!("if (v > {c}) {{ t.inc(k, {by}); }} else {{ t.put(k, v); }}")
        }),
    ]
    .boxed()
}

/// A program body; when `allow_mutation` is set, the generator may reassign
/// the routed key mid-segment, which the verifier must catch (`SL0301`) and
/// the runtime must survive by refusing to stripe.
fn body(allow_mutation: bool) -> BoxedStrategy<String> {
    let stmts = prop::collection::vec(op_stmt(), 1..5);
    if !allow_mutation {
        return stmts.prop_map(|s| s.join(" ")).boxed();
    }
    let mutate_at = prop_oneof![Just(None), (1usize..4).prop_map(Some)];
    (stmts, mutate_at)
        .prop_map(|(mut s, mutate_at)| {
            if let Some(i) = mutate_at {
                let i = i.min(s.len());
                s.insert(i, "k = k + 1;".to_owned());
            }
            s.join(" ")
        })
        .boxed()
}

fn program_src(body: &str) -> String {
    format!("@Partitioned Table t;\nvoid main(int k, int v) {{ {body} }}")
}

fn arb_requests() -> impl Strategy<Value = Vec<(i64, i64)>> {
    prop::collection::vec(((0i64..6), (-20i64..20)), 1..12)
}

/// Sorted `(key, value)` byte pairs exported from a state store.
type StateBytes = Vec<(Vec<u8>, Vec<u8>)>;

/// Deploys `src`, pushes `requests` through `main`, and returns the sorted
/// state bytes of `t` plus the stripe count the runtime actually chose.
fn run_deployment(src: &str, cfg: RuntimeConfig, requests: &[(i64, i64)]) -> (StateBytes, u64) {
    let program = SdgProgram::compile(src).expect("generated program compiles");
    let sid = program.state("t").expect("state t exists");
    let d = program.deploy(cfg).expect("deploys");
    for &(k, v) in requests {
        d.submit("main", record! {"k" => Value::Int(k), "v" => Value::Int(v)})
            .expect("submit");
    }
    assert!(d.quiesce(Duration::from_secs(30)), "drain:\n{src}");
    let stripes = d.metrics().state_by_id(sid).map(|s| s.stripes).unwrap_or(0);
    let mut entries = d
        .with_state(sid, 0, |s| {
            s.export_entries()
                .into_iter()
                .map(|e| (e.key, e.value))
                .collect::<Vec<_>>()
        })
        .expect("export state");
    entries.sort();
    d.shutdown();
    (entries, stripes)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Property 1: striped and unsharded deployments are byte-identical,
    /// with the verifier deciding whether striping really engages.
    #[test]
    fn striped_and_unsharded_deployments_agree(
        body in body(true),
        requests in arb_requests(),
    ) {
        let src = program_src(&body);
        let key_local = SdgProgram::compile(&src)
            .expect("compiles")
            .verify_report()
            .expect("report attached")
            .key_local("t");

        let striped_cfg = RuntimeConfig::builder().state_stripes(8).build();
        let (striped, stripes) = run_deployment(&src, striped_cfg, &requests);
        let (unsharded, _) = run_deployment(&src, RuntimeConfig::default(), &requests);

        // The certificate controls the layout: certified programs stripe,
        // rejected ones run unsharded no matter what the config asks for.
        prop_assert_eq!(stripes, if key_local { 8 } else { 1 }, "{}", src);
        prop_assert_eq!(striped, unsharded, "state diverged for:\n{}", src);
    }

    /// Property 2: for certified-deterministic programs, kill + restore +
    /// replay reproduces the undisturbed run exactly.
    #[test]
    fn certified_replay_reproduces_undisturbed_state(
        body in body(false),
        requests in arb_requests(),
        cut in 0usize..12,
    ) {
        let src = program_src(&body);
        let program = SdgProgram::compile(&src).expect("compiles");
        let report = program.verify_report().expect("report attached");
        prop_assert!(report.replay_safe("t"), "generator emits replay-safe programs");
        prop_assert!(report.deterministic("main_0"), "{}", src);
        let sid = program.state("t").expect("state t");

        let mut cfg = RuntimeConfig::default();
        cfg.checkpoint.enabled = true;
        cfg.checkpoint.interval = Duration::from_secs(3600); // Manual below.

        let cut = cut.min(requests.len());
        let d = program.deploy(cfg.clone()).expect("deploys");
        for &(k, v) in &requests[..cut] {
            d.submit("main", record! {"k" => Value::Int(k), "v" => Value::Int(v)})
                .expect("submit");
        }
        prop_assert!(d.quiesce(Duration::from_secs(30)));
        d.reconfigure(ReconfigRequest::Checkpoint).expect("checkpoint");
        for &(k, v) in &requests[cut..] {
            d.submit("main", record! {"k" => Value::Int(k), "v" => Value::Int(v)})
                .expect("submit");
        }
        prop_assert!(d.quiesce(Duration::from_secs(30)));
        d.reconfigure(ReconfigRequest::FailAndRecover { state: sid, replica: 0 })
            .expect("recover");
        prop_assert!(d.quiesce(Duration::from_secs(30)));
        let mut recovered = d
            .with_state(sid, 0, |s| {
                s.export_entries()
                    .into_iter()
                    .map(|e| (e.key, e.value))
                    .collect::<Vec<_>>()
            })
            .expect("export");
        recovered.sort();
        d.shutdown();

        let (undisturbed, _) = run_deployment(&src, RuntimeConfig::default(), &requests);
        prop_assert_eq!(recovered, undisturbed, "replay diverged for:\n{}", src);
    }
}
