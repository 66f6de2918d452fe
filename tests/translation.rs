//! Cross-crate tests of the source → SDG translation pipeline, including
//! the error surface a user sees for untranslatable programs.

use sdg::graph::model::{AccessMode, Dispatch, Distribution, TaskKind};
use sdg::SdgProgram;

fn compile_err(source: &str, needle: &str) {
    let err = SdgProgram::compile(source).unwrap_err();
    assert!(
        err.to_string().contains(needle),
        "expected `{needle}` in `{err}`"
    );
}

#[test]
fn cf_produces_the_papers_graph() {
    let program = SdgProgram::compile(sdg::apps::cf::CF_SOURCE).unwrap();
    let sdg = program.graph();

    // Fig. 1: five TEs, two SEs, three dataflows.
    assert_eq!(sdg.tasks.len(), 5);
    assert_eq!(sdg.states.len(), 2);
    assert_eq!(sdg.flows.len(), 3);

    // Allocation (§3.3): three nodes, merge alone on the last one.
    let allocation = sdg::graph::allocate(sdg);
    assert_eq!(allocation.num_nodes, 3);

    // updateUserItem and getUserVec entry TEs are partitioned on `user`.
    for entry in sdg.entry_tasks() {
        let access = entry.access.as_ref().expect("entry accesses userItem");
        assert!(
            matches!(&access.mode, AccessMode::Partitioned { key, .. } if key == "user"),
            "{:?}",
            access.mode
        );
    }

    // The recommendation path: broadcast then gather.
    let get_rec_1 = sdg.task_by_name("getRec_1").unwrap();
    assert_eq!(sdg.flows_to(get_rec_1.id)[0].dispatch, Dispatch::OneToAll);
    let get_rec_2 = sdg.task_by_name("getRec_2").unwrap();
    assert!(matches!(
        &sdg.flows_to(get_rec_2.id)[0].dispatch,
        Dispatch::AllToOne { collect_var } if collect_var == "userRec"
    ));
}

#[test]
fn distribution_follows_annotations() {
    let program = SdgProgram::compile(
        "@Partitioned Table a;\n@Partial Table b;\nTable c;\n\
         void f(int k) { a.inc(k, 1); }\n\
         void g(int k) { b.inc(k, 1); }\n\
         void h(int k) { c.inc(k, 1); }",
    )
    .unwrap();
    let sdg = program.graph();
    assert!(matches!(
        sdg.state_by_name("a").unwrap().dist,
        Distribution::Partitioned { .. }
    ));
    assert_eq!(sdg.state_by_name("b").unwrap().dist, Distribution::Partial);
    assert_eq!(sdg.state_by_name("c").unwrap().dist, Distribution::Local);
    // Three independent entry pipelines.
    assert_eq!(
        sdg.tasks
            .iter()
            .filter(|t| matches!(t.kind, TaskKind::Entry { .. }))
            .count(),
        3
    );
}

#[test]
fn untranslatable_programs_report_actionable_errors() {
    // Annotation misuse.
    compile_err(
        "@Partial Table t;\nvoid f(int k) { let x = @Global t.get(k); }",
        "@Partial let",
    );
    compile_err(
        "@Partitioned Table t;\nvoid f(int k) { @Partial let x = @Global t.get(k); }",
        "@Partitioned",
    );
    // Multi-SE statements.
    compile_err(
        "Table a;\nTable b;\nvoid f(int k) { let x = a.get(k) + b.get(k); }",
        "multiple state elements",
    );
    // Keys that cannot drive dispatch.
    compile_err(
        "@Partitioned Table t;\nvoid f(int k) { let x = t.get(k + 1); }",
        "must be a variable",
    );
    compile_err(
        "@Partitioned Table t;\nvoid f(list ks) { foreach (k : ks) { t.inc(k, 1); } }",
        "defined inside the statement",
    );
    // Unreconciled global results.
    compile_err(
        "@Partial Matrix m;\nvoid f(list v) { @Partial let r = @Global m.multiply(v); }",
        "never reconciled",
    );
    // Recursion.
    compile_err("int f(int n) { return f(n); }", "recursive");
    // Stateful helpers.
    compile_err(
        "Table t;\nint g(int k) { return t.get(k); }\nvoid f(int k) { let x = g(k); }",
        "accesses state",
    );
}

#[test]
fn error_positions_survive_to_the_user() {
    let err = SdgProgram::compile("void f() {\n  let = 3;\n}").unwrap_err();
    let msg = err.to_string();
    assert!(msg.contains("2:"), "line number missing from `{msg}`");
}

#[test]
fn dot_output_round_trips_key_structure() {
    let program = SdgProgram::compile(sdg::apps::kv::KV_SOURCE).unwrap();
    let dot = program.to_dot();
    assert!(dot.contains("digraph sdg"));
    assert!(dot.contains("kv (partitioned)"));
    // Entry tasks render bold.
    assert!(dot.contains("style=bold"));
}

#[test]
fn translation_attaches_verify_report_with_task_aliases() {
    let program = SdgProgram::compile(sdg::apps::cf::CF_SOURCE).unwrap();
    let report = program.graph().verify.as_deref().expect("report attached");

    // Every state element and every emitted task element can be looked up
    // in the report by exactly these names: the runtime gates cell layout
    // on the state certificates, and `sdgc verify` prints the task ones.
    for state in &program.graph().states {
        assert!(report.se(&state.name).is_some(), "{} missing", state.name);
    }
    for task in &program.graph().tasks {
        assert!(report.te(&task.name).is_some(), "{} missing", task.name);
    }

    // CF is fully certified, so the runtime keeps every optimization on.
    assert!(report.is_clean());
    assert!(report.key_local("userItem") && report.replay_safe("coOcc"));
}
