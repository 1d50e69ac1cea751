//! Integration tests for the extension features: deployment packaging,
//! continuous debloating, provider comparison, and the extended pool —
//! exercised against real corpus applications.

use lambda_trim::{trim_app, DebloatOptions};
use trim_core::{package, retrim_with_log, TrimLog};

#[test]
fn deployment_package_round_trip_on_corpus_app() {
    let bench = trim_apps::app("markdown").unwrap();
    let report = trim_app(
        &bench.registry,
        &bench.app_source,
        &bench.spec,
        &DebloatOptions::default(),
    )
    .unwrap();
    let pkg = package(
        &bench.registry,
        &bench.app_source,
        &bench.spec.handler,
        &report,
    );
    // The wrapped trimmed app answers normal oracle inputs directly…
    let mut it = pylite::Interpreter::new(pkg.trimmed.clone());
    it.exec_main(&pkg.wrapped_app_source).unwrap();
    let event = trim_core::oracle::parse_literal(&bench.spec.cases[0].event).unwrap();
    let out = it
        .call_handler(&pkg.handler, event, pylite::Value::None)
        .unwrap();
    assert_eq!(pylite::py_repr(&out), report.before.results[0]);
    // …and converts the rare input's AttributeError into a structured
    // fallback response instead of crashing.
    let mut it2 = pylite::Interpreter::new(pkg.trimmed.clone());
    it2.exec_main(&pkg.wrapped_app_source).unwrap();
    let rare = trim_core::oracle::parse_literal(&bench.rare_case().event).unwrap();
    let out2 = it2
        .call_handler(&pkg.handler, rare, pylite::Value::None)
        .unwrap();
    assert!(pylite::py_repr(&out2).contains("\"fallback\": True"));
    assert!(it2.extcalls.iter().any(|c| c.starts_with("lambda:")));
}

#[test]
fn continuous_debloating_across_an_app_update() {
    // Simulate a deployment cycle: trim v1, ship, then the developer edits
    // the handler (same imports) and re-trims with the saved log.
    let bench = trim_apps::app("igraph").unwrap();
    let v1 = trim_app(
        &bench.registry,
        &bench.app_source,
        &bench.spec,
        &DebloatOptions::default(),
    )
    .unwrap();
    let log = TrimLog::from_report(&v1);
    // v2: the handler gains a constant offset — behaviorally different but
    // structurally identical usage.
    let v2_source = bench.app_source.replace(
        "    n = event.get(\"n\", 1)",
        "    n = event.get(\"n\", 1) + 0",
    );
    assert_ne!(v2_source, bench.app_source);
    let v2 = retrim_with_log(
        &bench.registry,
        &v2_source,
        &bench.spec,
        &log,
        &DebloatOptions::default(),
    )
    .unwrap();
    assert!(v2.after.behavior_eq(&v2.before));
    assert!(v2.seeded_modules > 0, "unchanged imports reuse the log");
    assert!(v2.oracle_invocations < v1.oracle_invocations);
}

#[test]
fn provider_quotes_rank_trim_savings_by_granularity() {
    // The same trim saves more on AWS (1 ms rounding) than on Azure (1 s):
    // fine-grained billing rewards fine-grained debloating.
    let bench = trim_apps::app("lightgbm").unwrap();
    let report = trim_app(
        &bench.registry,
        &bench.app_source,
        &bench.spec,
        &DebloatOptions::default(),
    )
    .unwrap();
    let before = lambda_sim::AppProfile::new(
        "b",
        bench.image_mb,
        report.before.init_secs,
        report.before.exec_secs,
        report.before.mem_mb,
    );
    let after = lambda_sim::AppProfile::new(
        "a",
        bench.image_mb,
        report.after.init_secs,
        report.after.exec_secs,
        report.after.mem_mb,
    );
    let qb = lambda_sim::quote_all(&before);
    let qa = lambda_sim::quote_all(&after);
    for (b, a) in qb.iter().zip(qa.iter()) {
        assert!(
            a.cold_cost <= b.cold_cost,
            "{}: trimming must not raise cost",
            b.provider
        );
    }
    let saving = |provider: &str| {
        let b = qb
            .iter()
            .find(|q| q.provider == provider)
            .unwrap()
            .cold_cost;
        let a = qa
            .iter()
            .find(|q| q.provider == provider)
            .unwrap()
            .cold_cost;
        (b - a) / b
    };
    assert!(
        saving("AWS Lambda") >= saving("Azure Functions") - 1e-9,
        "coarse rounding can only hide savings, not amplify them"
    );
}

#[test]
fn extended_pool_composes_with_trimmed_profiles() {
    let bench = trim_apps::app("dna-visualization").unwrap();
    let report = trim_app(
        &bench.registry,
        &bench.app_source,
        &bench.spec,
        &DebloatOptions::default(),
    )
    .unwrap();
    let platform = lambda_sim::Platform::default();
    let profile = lambda_sim::AppProfile::new(
        "t",
        bench.image_mb,
        report.after.init_secs,
        report.after.exec_secs,
        report.after.mem_mb,
    );
    let arrivals: Vec<f64> = (0..30).map(|i| i as f64 * 120.0).collect();
    let stats = lambda_sim::simulate_pool_ext_stream_traced(
        &platform,
        &profile,
        arrivals.iter().copied(),
        &lambda_sim::PoolOptions {
            provisioned: 1,
            max_concurrency: Some(4),
            ..lambda_sim::PoolOptions::default()
        },
        |_| {},
    )
    .expect("sorted arrivals");
    assert_eq!(stats.invocations(), 30);
    assert_eq!(
        stats.cold_starts, 0,
        "one provisioned slot absorbs this rate"
    );
    assert!(stats.total_cost() > 0.0);
}

#[test]
fn report_renderer_on_corpus_trim() {
    let bench = trim_apps::app("markdown").unwrap();
    let report = trim_app(
        &bench.registry,
        &bench.app_source,
        &bench.spec,
        &DebloatOptions::default(),
    )
    .unwrap();
    let text = trim_core::render_report(&report);
    assert!(text.contains("markdown"));
    assert!(text.contains("identical on the oracle set"));
    let removals = trim_core::render_removals(&report);
    assert!(!removals.is_empty());
}
