//! Differential test pinning the bytecode VM to the tree-walking reference
//! interpreter, byte for byte.
//!
//! The VM is the default execution tier for every oracle run, so any drift
//! in stdout, exceptions, module namespaces, observed accesses, virtual
//! costs, or trim outcomes would silently change every experiment. Unlike
//! `differential_interning` (which compares against a recorded golden),
//! this test runs the *live* tree-walker next to the VM over the full
//! 21-app corpus and asserts the renderings are identical — including the
//! meter, since virtual cost decides what λ-trim removes — and that
//! mini-corpus trim reports agree across engines.

use lambda_trim::pylite::{py_repr, Engine, Interpreter};
use lambda_trim::trim_core::oracle::parse_literal;
use lambda_trim::DebloatOptions;
use std::fmt::Write as _;

/// Render one app's full observable surface under `engine`: handler
/// results, stdout, external calls, error (if any), the `__main__` module
/// namespace, observed module-attribute accesses, and the meter.
fn capture_behavior(app: &lambda_trim::trim_apps::BenchApp, engine: Engine) -> String {
    let mut out = String::new();
    let mut it = Interpreter::new(app.registry.clone());
    it.engine = engine;
    let mut error: Option<String> = None;
    match it.exec_main(&app.app_source) {
        Ok(main) => {
            for case in &app.spec.cases {
                let event = parse_literal(&case.event).expect("literal event");
                let context = parse_literal(&case.context).expect("literal context");
                match it.call_handler(&app.spec.handler, event, context) {
                    Ok(v) => writeln!(out, "res| {}", py_repr(&v)).unwrap(),
                    Err(e) => {
                        error = Some(format!("{}: {}", e.kind.class_name(), e.message));
                        break;
                    }
                }
            }
            // The namespace built by top-level execution, in insertion
            // order — the exact thing trimming rewrites.
            let interner = app.registry.interner().clone();
            for key in main.ns.key_syms() {
                let value = main.ns.get(key).expect("key from snapshot");
                writeln!(out, "ns | {} = {}", interner.resolve(key), py_repr(&value)).unwrap();
            }
        }
        Err(e) => error = Some(format!("{}: {}", e.kind.class_name(), e.message)),
    }
    for line in &it.stdout {
        writeln!(out, "out| {line}").unwrap();
    }
    for call in &it.extcalls {
        writeln!(out, "ext| {call}").unwrap();
    }
    if let Some(e) = error {
        writeln!(out, "err| {e}").unwrap();
    }
    for (module, attrs) in it.observed_accesses() {
        let attrs: Vec<&str> = attrs.iter().map(|a| a.as_str()).collect();
        writeln!(out, "obs| {module}: {}", attrs.join(" ")).unwrap();
    }
    writeln!(
        out,
        "met| clock={} mem={} steps={}",
        it.meter.clock_ns(),
        it.meter.mem_bytes(),
        it.meter.steps
    )
    .unwrap();
    out
}

/// Render one app's trim outcome under `engine`: per-module kept/removed
/// lists, fallbacks, and cost summary.
fn capture_trim(app: &lambda_trim::trim_apps::BenchApp, engine: Engine) -> String {
    let mut out = String::new();
    let options = DebloatOptions {
        engine,
        ..DebloatOptions::default()
    };
    let report = lambda_trim::trim_app(&app.registry, &app.app_source, &app.spec, &options)
        .expect("trim succeeds");
    for m in &report.modules {
        writeln!(
            out,
            "mod| {} kept=[{}] removed=[{}] probes={}",
            m.module,
            m.kept.join(","),
            m.removed.join(","),
            m.dd_stats.oracle_invocations
        )
        .unwrap();
    }
    for f in &report.fallback_modules {
        writeln!(out, "fb | {f}").unwrap();
    }
    writeln!(
        out,
        "sum| init {:.9}->{:.9}s mem {:.6}->{:.6}MB",
        report.before.init_secs, report.after.init_secs, report.before.mem_mb, report.after.mem_mb
    )
    .unwrap();
    out
}

#[test]
fn vm_matches_tree_walker_on_full_corpus_behavior() {
    for app in lambda_trim::trim_apps::corpus() {
        let tree = capture_behavior(&app, Engine::Tree);
        let vm = capture_behavior(&app, Engine::Vm);
        if tree != vm {
            for (i, (t, v)) in tree.lines().zip(vm.lines()).enumerate() {
                assert_eq!(
                    v,
                    t,
                    "{}: vm diverged from tree-walker at line {}",
                    app.name,
                    i + 1
                );
            }
            panic!(
                "{}: capture length changed: vm {} vs tree {} lines",
                app.name,
                vm.lines().count(),
                tree.lines().count()
            );
        }
    }
}

#[test]
fn vm_matches_tree_walker_on_trim_results() {
    // Full-corpus trims are minutes-long in debug builds; the mini corpus
    // exercises the same DD/oracle/rewrite machinery at test-friendly cost.
    for app in lambda_trim::trim_apps::mini_corpus() {
        let tree = capture_trim(&app, Engine::Tree);
        let vm = capture_trim(&app, Engine::Vm);
        assert_eq!(vm, tree, "{}: vm trim diverged from tree-walker", app.name);
    }
}
