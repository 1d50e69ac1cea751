//! Randomized property tests over the core invariants: ddmin soundness
//! and 1-minimality, rewriter correctness, pricing monotonicity, parser
//! robustness, and meter additivity.
//!
//! These use a small deterministic in-tree PRNG (`trim-rng`) instead of a
//! property-testing framework so the suite builds offline; each property
//! is exercised over a fixed-seed stream of generated cases.
#![cfg(feature = "property-tests")]

mod naive_pool;

use naive_pool::{event_pool, naive_pool};
use std::collections::BTreeSet;
use trim_dd::{ddmin, is_one_minimal};
use trim_rng::Rng;

const CASES: usize = 48;

// ---------------------------------------------------------------------------
// Delta Debugging
// ---------------------------------------------------------------------------

/// For monotone "must contain R" oracles, ddmin returns exactly R.
#[test]
fn ddmin_finds_exact_required_set() {
    let mut rng = Rng::seed_from_u64(0xdd01);
    for _ in 0..CASES {
        let n = rng.usize_inclusive(1, 119);
        let mut required = BTreeSet::new();
        for _ in 0..rng.usize_inclusive(0, 7) {
            let i = rng.usize_inclusive(0, 119);
            if i < n {
                required.insert(i);
            }
        }
        let items: Vec<usize> = (0..n).collect();
        let required: Vec<usize> = required.into_iter().collect();
        let mut oracle = |s: &[usize]| required.iter().all(|r| s.contains(r));
        let result = ddmin(&items, &mut oracle).expect("whole set passes");
        assert_eq!(result.minimized, required);
    }
}

/// For arbitrary oracles that accept the whole set, the result always
/// satisfies the oracle and is 1-minimal.
#[test]
fn ddmin_result_is_sound_and_one_minimal() {
    let mut rng = Rng::seed_from_u64(0xdd02);
    for _ in 0..CASES {
        let n = rng.usize_inclusive(1, 39);
        let modulus = rng.usize_inclusive(1, 6);
        let anchor = rng.usize_inclusive(0, 39) % n;
        let items: Vec<usize> = (0..n).collect();
        // Non-monotone oracle: needs the anchor and a size constraint.
        let mut oracle = move |s: &[usize]| {
            s.contains(&anchor) && s.len() % modulus != modulus.saturating_sub(1) % modulus
        };
        if !oracle(&items) {
            continue; // precondition unmet; skip
        }
        let result = ddmin(&items, &mut oracle).expect("whole set passes");
        assert!(oracle(&result.minimized), "result must satisfy oracle");
        assert!(
            is_one_minimal(&result.minimized, &mut oracle),
            "result must be 1-minimal: {:?}",
            result.minimized
        );
    }
}

// ---------------------------------------------------------------------------
// Rewriter
// ---------------------------------------------------------------------------

/// A random module source built from the corpus library generator
/// (arbitrary attr counts, costs, submodule shapes).
fn random_module_source(rng: &mut Rng) -> String {
    let attrs = rng.usize_inclusive(1, 59);
    let sub_attrs = rng.usize_inclusive(0, 19);
    let reexports = rng.usize_inclusive(0, 9);
    let spec = trim_apps::LibSpec {
        name: "randlib",
        prefix: "rl9",
        init_attrs: attrs,
        init_ms: 10.0,
        init_mb: 5.0,
        core_frac: 0.3,
        mem_core_frac: 0.5,
        subs: if sub_attrs == 0 {
            vec![]
        } else {
            vec![trim_apps::SubSpec {
                name: "sub",
                attrs: sub_attrs,
                import_ms: 5.0,
                alloc_mb: 2.0,
                reexports: reexports.min(sub_attrs),
            }]
        },
        deps: vec![],
        disk_mb: 1.0,
    };
    let mut registry = pylite::Registry::new();
    trim_apps::generate_library(&spec, &mut registry);
    registry.source("randlib").unwrap().to_owned()
}

/// Rewriting to any attribute subset yields source that re-parses and
/// whose attribute set is exactly the kept subset.
#[test]
fn rewrite_output_reparses_with_exact_attrs() {
    let mut rng = Rng::seed_from_u64(0x5e11);
    for _ in 0..CASES {
        let source = random_module_source(&mut rng);
        let program = pylite::parse(&source).expect("generated source parses");
        let attrs = trim_core::module_attributes(&program);
        let keep: BTreeSet<String> = attrs.iter().filter(|_| rng.bool()).cloned().collect();
        let rewritten = trim_core::rewrite_module(&program, &keep);
        let out = pylite::unparse(&rewritten);
        let reparsed = pylite::parse(&out).expect("rewritten source parses");
        let new_attrs: BTreeSet<String> = trim_core::module_attributes(&reparsed)
            .into_iter()
            .collect();
        assert_eq!(new_attrs, keep);
    }
}

/// unparse(parse(x)) re-parses to the same AST for generated sources.
#[test]
fn unparse_roundtrip() {
    let mut rng = Rng::seed_from_u64(0x5e12);
    for _ in 0..CASES {
        let source = random_module_source(&mut rng);
        let p1 = pylite::parse(&source).unwrap();
        let out = pylite::unparse(&p1);
        let p2 = pylite::parse(&out).unwrap();
        assert_eq!(p1, p2);
    }
}

// ---------------------------------------------------------------------------
// Parser robustness
// ---------------------------------------------------------------------------

/// The parser never panics — it returns Ok or Err on arbitrary input.
#[test]
fn parser_never_panics() {
    let mut rng = Rng::seed_from_u64(0x9a21);
    for _ in 0..200 {
        let len = rng.usize_inclusive(0, 200);
        let input: String = (0..len)
            .map(|_| char::from_u32(rng.usize_inclusive(1, 0x2FF) as u32).unwrap_or(' '))
            .collect();
        let _ = pylite::parse(&input);
    }
}

/// Arbitrary printable ASCII restricted to structure characters.
#[test]
fn parser_never_panics_structured() {
    const ALPHABET: &[u8] = b"abcxyz0189 ()[]{}:=.,#\"'\n+-";
    let mut rng = Rng::seed_from_u64(0x9a22);
    for _ in 0..200 {
        let len = rng.usize_inclusive(0, 200);
        let input: String = (0..len)
            .map(|_| ALPHABET[rng.usize_inclusive(0, ALPHABET.len() - 1)] as char)
            .collect();
        let _ = pylite::parse(&input);
    }
}

// ---------------------------------------------------------------------------
// Pricing
// ---------------------------------------------------------------------------

/// Cost is monotone non-decreasing in both duration and memory.
#[test]
fn pricing_is_monotone() {
    let mut rng = Rng::seed_from_u64(0xca41);
    let pricing = lambda_sim::PricingModel::aws();
    for _ in 0..CASES {
        let mem = 1.0 + rng.f64() * 11_999.0;
        let dur = rng.f64() * 100_000.0;
        let dmem = rng.f64() * 2_000.0;
        let ddur = rng.f64() * 10_000.0;
        let base = pricing.invocation_cost(mem, dur);
        assert!(pricing.invocation_cost(mem + dmem, dur) >= base - 1e-15);
        assert!(pricing.invocation_cost(mem, dur + ddur) >= base - 1e-15);
        assert!(base >= 0.0);
    }
}

/// Billed duration is always >= the raw duration and aligned to the
/// rounding granularity.
#[test]
fn billing_rounds_up() {
    let mut rng = Rng::seed_from_u64(0xca42);
    for _ in 0..CASES {
        let dur = rng.f64() * 1_000_000.0;
        for model in [
            lambda_sim::PricingModel::aws(),
            lambda_sim::PricingModel::gcp(),
            lambda_sim::PricingModel::azure(),
        ] {
            let billed = model.billed_duration_ms(dur);
            assert!(billed >= dur - 1e-9);
        }
    }
}

/// Configured memory always covers the footprint (above the minimum)
/// and respects platform bounds.
#[test]
fn configured_memory_covers_footprint() {
    let mut rng = Rng::seed_from_u64(0xca43);
    let pricing = lambda_sim::PricingModel::aws();
    for _ in 0..CASES {
        let mem = rng.f64() * 20_000.0;
        let configured = pricing.configured_memory_mb(mem);
        assert!(configured >= 128);
        assert!(configured <= 10_240);
        if mem <= 10_240.0 {
            assert!(configured as f64 >= mem.min(10_240.0).floor().min(configured as f64));
        }
    }
}

// ---------------------------------------------------------------------------
// Pool simulator
// ---------------------------------------------------------------------------

/// Random sorted arrival vector with bursts: mixes exponential-ish gaps
/// with runs of identical timestamps so concurrency pressure actually
/// occurs.
fn random_arrivals(rng: &mut Rng) -> Vec<f64> {
    let n = rng.usize_inclusive(0, 120);
    let mut arrivals = Vec::with_capacity(n);
    let mut t = 0.0;
    while arrivals.len() < n {
        t += rng.f64() * 40.0;
        // With probability ~1/3, a simultaneous burst.
        let burst = if rng.usize_inclusive(0, 2) == 0 {
            rng.usize_inclusive(2, 12)
        } else {
            1
        };
        for _ in 0..burst.min(n - arrivals.len()) {
            arrivals.push(t);
        }
    }
    arrivals
}

/// The pool never runs more than `max_concurrency` requests at
/// any instant, over randomized arrival sets, caps, and app profiles
/// (the concurrency-accounting bugfix's acceptance property).
#[test]
fn ext_pool_never_exceeds_concurrency_cap() {
    let platform = lambda_sim::Platform::default();
    let mut rng = Rng::seed_from_u64(0x0B00_7CA9);
    for case in 0..CASES {
        let arrivals = random_arrivals(&mut rng);
        let cap = rng.usize_inclusive(1, 6);
        let app = lambda_sim::AppProfile::new(
            "prop",
            rng.f64() * 500.0,
            rng.f64() * 3.0,
            0.01 + rng.f64() * 30.0,
            64.0 + rng.f64() * 1024.0,
        );
        let options = lambda_sim::PoolOptions {
            keep_alive_secs: rng.f64() * 900.0,
            max_concurrency: Some(cap),
            provisioned: rng.usize_inclusive(0, 2).min(cap),
            ..lambda_sim::PoolOptions::default()
        };
        let (stats, events) = event_pool(&platform, &app, &arrivals, &options);
        assert_eq!(stats.invocations() as usize, arrivals.len());
        let mut deltas: Vec<(f64, i64)> = Vec::new();
        for e in &events {
            assert!(e.start >= e.arrival, "dispatch cannot precede arrival");
            assert!(e.finish > e.start, "execution takes time");
            deltas.push((e.start, 1));
            deltas.push((e.finish, -1));
        }
        // Sweep: at equal timestamps, releases (-1) before claims (+1).
        deltas.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        let (mut cur, mut peak) = (0i64, 0i64);
        for (_, d) in &deltas {
            cur += d;
            peak = peak.max(cur);
        }
        assert!(
            peak as usize <= cap,
            "case {case}: instantaneous concurrency {peak} exceeds cap {cap} \
             ({} arrivals, keep-alive {:.1})",
            arrivals.len(),
            options.keep_alive_secs
        );
    }
}

/// The event-driven pool engine is byte-identical to the reference engine
/// in `naive_pool` — ExtPoolStats and the full traced PoolEvent stream —
/// over randomized bursty workloads spanning provisioned instances,
/// concurrency caps (including `Some(0)` and `Some(1)`), zero keep-alive,
/// and both start modes. Every fourth case runs the paper's basic
/// keep-alive pool (`provisioned = 0`, `max_concurrency = None`). The
/// instantaneous concurrency of the event engine must also respect the cap.
#[test]
fn event_pool_engine_matches_naive_oracle_on_random_workloads() {
    let platform = lambda_sim::Platform::default();
    let mut rng = Rng::seed_from_u64(0xeb9_0a5e);
    for case in 0..CASES {
        let basic = case % 4 == 0;
        let arrivals = random_arrivals(&mut rng);
        let cap = match rng.usize_inclusive(0, 3) {
            _ if basic => None,
            0 => None,
            1 => Some(rng.usize_inclusive(0, 1)),
            _ => Some(rng.usize_inclusive(2, 8)),
        };
        let app = lambda_sim::AppProfile::new(
            "prop",
            rng.f64() * 500.0,
            rng.f64() * 3.0,
            0.01 + rng.f64() * 30.0,
            64.0 + rng.f64() * 1024.0,
        );
        let options = lambda_sim::PoolOptions {
            keep_alive_secs: if rng.usize_inclusive(0, 3) == 0 {
                0.0
            } else {
                rng.f64() * 900.0
            },
            max_concurrency: cap,
            provisioned: if basic { 0 } else { rng.usize_inclusive(0, 3) },
            mode: if rng.bool() {
                lambda_sim::StartMode::Standard
            } else {
                lambda_sim::StartMode::Restore
            },
            ..lambda_sim::PoolOptions::default()
        };
        let (naive, naive_events) = naive_pool(&platform, &app, &arrivals, &options);
        let (event, event_events) = event_pool(&platform, &app, &arrivals, &options);
        assert_eq!(naive, event, "case {case}: stats diverged");
        assert_eq!(naive_events, event_events, "case {case}: events diverged");
        if basic {
            assert_eq!(
                event.queued_requests, 0,
                "case {case}: uncapped pool queued"
            );
            assert_eq!(event.provisioned_cost, 0.0);
        }
        if let Some(cap) = cap {
            let mut deltas: Vec<(f64, i64)> = Vec::new();
            for e in &event_events {
                deltas.push((e.start, 1));
                deltas.push((e.finish, -1));
            }
            deltas.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
            let (mut cur, mut peak) = (0i64, 0i64);
            for (_, d) in &deltas {
                cur += d;
                peak = peak.max(cur);
            }
            assert!(
                peak as usize <= cap.max(1),
                "case {case}: concurrency {peak} exceeds cap {cap}"
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Interpreter metering
// ---------------------------------------------------------------------------

/// Running the same program twice in fresh interpreters produces
/// identical meters (determinism), and the meter is additive: a program
/// doing A;B costs at least as much as A.
#[test]
fn meter_is_deterministic_and_additive() {
    let mut rng = Rng::seed_from_u64(0x3e71);
    for _ in 0..16 {
        let reps_a = rng.usize_inclusive(1, 19);
        let reps_b = rng.usize_inclusive(1, 19);
        let stmt = "x = 1 + 2\n";
        let prog_a: String = stmt.repeat(reps_a);
        let prog_ab: String = stmt.repeat(reps_a + reps_b);
        let run = |src: &str| {
            let mut it = pylite::Interpreter::new(pylite::Registry::new());
            it.exec_main(src).unwrap();
            (it.meter.clock_ns(), it.meter.mem_bytes())
        };
        let (t1, m1) = run(&prog_a);
        let (t1b, m1b) = run(&prog_a);
        assert_eq!((t1, m1), (t1b, m1b), "deterministic");
        let (t2, m2) = run(&prog_ab);
        assert!(t2 > t1);
        assert!(m2 >= m1);
    }
}

// ---------------------------------------------------------------------------
// Trim invariants on generated libraries
// ---------------------------------------------------------------------------

/// For any generated library and any usage subset, trimming preserves
/// behavior and the trimmed namespace is a subset of the original.
#[test]
fn trim_on_random_library_is_sound() {
    let mut rng = Rng::seed_from_u64(0x7a91);
    for _ in 0..8 {
        let attrs = rng.usize_inclusive(5, 39);
        let spec = trim_apps::LibSpec {
            name: "randlib",
            prefix: "rl9",
            init_attrs: attrs,
            init_ms: 20.0,
            init_mb: 8.0,
            core_frac: 0.3,
            mem_core_frac: 0.5,
            subs: vec![],
            deps: vec![],
            disk_mb: 1.0,
        };
        let mut registry = pylite::Registry::new();
        trim_apps::generate_library(&spec, &mut registry);
        // Use a handful of function attributes chosen by random bits.
        let mut app = String::from("import randlib\n");
        let mut uses = Vec::new();
        for bit_i in 0..8 {
            let idx = bit_i * 5; // function-kind attributes
            if rng.bool() && idx < attrs {
                uses.push(trim_apps::attr_name("rl9", idx));
            }
        }
        for (k, u) in uses.iter().enumerate() {
            app.push_str(&format!("_u{k} = randlib.{u}\n"));
        }
        app.push_str("def handler(event, context):\n    return event[\"n\"]\n");
        let spec_oracle =
            lambda_trim::OracleSpec::new(vec![lambda_trim::TestCase::event("{\"n\": 5}")]);
        let report = lambda_trim::trim_app(
            &registry,
            &app,
            &spec_oracle,
            &lambda_trim::DebloatOptions::default(),
        )
        .expect("pipeline runs");
        assert!(report.after.behavior_eq(&report.before));
        // Namespace subset check.
        let orig = pylite::parse(registry.source("randlib").unwrap()).unwrap();
        let trimmed = pylite::parse(report.trimmed.source("randlib").unwrap()).unwrap();
        let orig_attrs: BTreeSet<String> =
            trim_core::module_attributes(&orig).into_iter().collect();
        let trimmed_attrs: BTreeSet<String> =
            trim_core::module_attributes(&trimmed).into_iter().collect();
        assert!(trimmed_attrs.is_subset(&orig_attrs));
        // Every used attribute survived.
        for u in &uses {
            assert!(trimmed_attrs.contains(u), "used attr {u} must survive");
        }
    }
}

// ---------------------------------------------------------------------------
// Incremental re-analysis
// ---------------------------------------------------------------------------

/// Generate a random module source over a fixed universe of module names:
/// plain assignments, functions, and cross-module imports/accesses.
fn random_analysis_module(rng: &mut Rng, universe: &[String], this: usize) -> String {
    let mut src = String::new();
    for _ in 0..rng.usize_inclusive(0, 2) {
        let dep = rng.usize_inclusive(0, universe.len() - 1);
        if dep != this {
            src.push_str(&format!("import {}\n", universe[dep]));
        }
    }
    for a in 0..rng.usize_inclusive(1, 4) {
        src.push_str(&format!("val{a} = {}\n", rng.usize_inclusive(0, 9)));
    }
    for f in 0..rng.usize_inclusive(0, 2) {
        let dep = rng.usize_inclusive(0, universe.len() - 1);
        if dep != this && rng.bool() {
            src.push_str(&format!(
                "def fn{f}(x):\n    return {}.val0\n",
                universe[dep]
            ));
        } else {
            src.push_str(&format!("def fn{f}(x):\n    return x + {f}\n"));
        }
    }
    src
}

/// After arbitrary registry edits (rewrite / remove / re-add), analysis
/// through a warm summary cache is identical to analysis from scratch.
#[test]
fn incremental_reanalysis_matches_from_scratch() {
    use lambda_trim::trim_analysis::{analyze_full, AnalysisOptions, FullAnalysis};

    fn assert_same(a: &FullAnalysis, b: &FullAnalysis, what: &str) {
        assert_eq!(a.analysis, b.analysis, "{what}: analysis");
        assert_eq!(
            a.load_time_accessed, b.load_time_accessed,
            "{what}: load_time"
        );
        assert_eq!(a.module_bindings, b.module_bindings, "{what}: bindings");
        assert_eq!(a.lints, b.lints, "{what}: lints");
        assert_eq!(a.hazard_modules, b.hazard_modules, "{what}: hazards");
        assert_eq!(a.hazard_attrs, b.hazard_attrs, "{what}: hazard attrs");
        assert_eq!(a.call_graph, b.call_graph, "{what}: call graph");
        assert_eq!(a.reached_functions, b.reached_functions, "{what}: reached");
    }

    let mut rng = Rng::seed_from_u64(0x1ac5);
    for case in 0..24 {
        let universe: Vec<String> = (0..rng.usize_inclusive(3, 6))
            .map(|i| format!("mod{i}"))
            .collect();
        let mut registry = pylite::Registry::new();
        for (i, name) in universe.iter().enumerate() {
            let src = random_analysis_module(&mut rng, &universe, i);
            registry.set_module(name, src);
        }
        let mut app = String::new();
        for name in &universe {
            if rng.bool() {
                app.push_str(&format!("import {name}\nx_{name} = {name}.val0\n"));
            }
        }
        app.push_str("def handler(event, context):\n    return event\n");
        let program = pylite::parse(&app).expect("generated app parses");

        let cache = lambda_trim::trim_analysis::summary::SummaryCache::shared();
        let warm_opts = AnalysisOptions {
            summary_cache: Some(cache.clone()),
            ..AnalysisOptions::default()
        };
        analyze_full(&program, &registry, &warm_opts); // prime

        for edit in 0..rng.usize_inclusive(1, 3) {
            let victim = &universe[rng.usize_inclusive(0, universe.len() - 1)];
            match rng.usize_inclusive(0, 2) {
                0 => {
                    let i = universe.iter().position(|n| n == victim).unwrap();
                    let src = random_analysis_module(&mut rng, &universe, i);
                    registry.set_module(victim, src);
                }
                1 => {
                    registry.remove_module(victim);
                }
                _ => {
                    registry.set_module(victim, "restored = 1\n");
                }
            }
            let incremental = analyze_full(&program, &registry, &warm_opts);
            let scratch = analyze_full(&program, &registry, &AnalysisOptions::default());
            assert_same(
                &scratch,
                &incremental,
                &format!("case {case}, edit {edit} ({victim})"),
            );
        }
    }
}

/// A random module whose public surface the hazard lattice must track:
/// `a0`/`a1` always exist (the apps below getattr them), plus a random
/// tail of functions, constants and an occasional underscore-private.
fn random_hazardous_module(rng: &mut Rng) -> String {
    let n = rng.usize_inclusive(2, 10);
    let mut src = String::new();
    for i in 0..n {
        src.push_str(&format!("def a{i}(x):\n    return x + {i}\n"));
    }
    for c in 0..rng.usize_inclusive(0, 2) {
        src.push_str(&format!("C{c} = {}\n", rng.usize_inclusive(0, 9)));
    }
    if rng.bool() {
        src.push_str("_private = 7\n");
    }
    src
}

/// Random edits to a *hazardous* module: incremental re-analysis through a
/// warm summary cache yields hazard sets byte-identical to analysis from
/// scratch, for every hazard kind (bounded getattr, opaque getattr,
/// star-import, module rebinding). Every case includes a surface-shrinking
/// edit, which exercises the engine's poison-retry escalation (a rebuilt
/// shard whose published surface shrank forces the pessimistic rebuild of
/// its reverse read-dependency cone).
#[test]
fn incremental_hazard_sets_match_scratch_on_hazardous_edits() {
    use lambda_trim::trim_analysis::{analyze_full, AnalysisOptions};

    const APPS: [&str; 4] = [
        // Bounded getattr: hazard attrs = {a0, a1}.
        "import hz\ndef handler(event, context):\n    key = \"a0\" if event else \"a1\"\n    return getattr(hz, key)(1)\n",
        // Opaque getattr: hazard attrs = hz's full binding surface (top).
        "import hz\ndef handler(event, context):\n    return getattr(hz, event[\"k\"])(1)\n",
        // Star import: hazard attrs = hz's public binding surface.
        "from hz import *\ndef handler(event, context):\n    return a0(1)\n",
        // Module rebinding via del.
        "import hz\ndef handler(event, context):\n    r = hz.a0(1)\n    del hz\n    return r\n",
    ];

    let mut rng = Rng::seed_from_u64(0x4a2a);
    for case in 0..24 {
        let app = APPS[case % APPS.len()];
        let program = pylite::parse(app).expect("hazard app parses");
        let mut registry = pylite::Registry::new();
        registry.set_module("hz", random_hazardous_module(&mut rng));
        registry.set_module("helper", "def go(x):\n    return x\n");

        let cache = lambda_trim::trim_analysis::summary::SummaryCache::shared();
        let warm_opts = AnalysisOptions {
            summary_cache: Some(cache.clone()),
            ..AnalysisOptions::default()
        };
        analyze_full(&program, &registry, &warm_opts); // prime

        for edit in 0..3 {
            let old_hz = registry.source("hz").expect("hz present").to_owned();
            match edit {
                // A fresh random surface: may grow or shrink.
                0 => registry.set_module("hz", random_hazardous_module(&mut rng)),
                // A guaranteed shrink to the minimal surface — the
                // published surface of `hz` loses names, poisoning the
                // optimistic incremental attempt.
                1 => registry
                    .set_module("hz", "def a0(x):\n    return x\ndef a1(x):\n    return x\n"),
                // Grow it back plus an unrelated-module edit in the same
                // round, so the cone spans multiple shards.
                _ => {
                    registry.set_module("hz", random_hazardous_module(&mut rng));
                    registry.set_module("helper", "def go(x):\n    return x + 1\n");
                }
            }
            let edited = registry.source("hz") != Some(old_hz.as_str()) || edit == 2;
            let runs_before = cache.incremental_runs();
            let incremental = analyze_full(&program, &registry, &warm_opts);
            assert!(
                !edited || cache.incremental_runs() > runs_before,
                "case {case}, edit {edit}: a real edit must take the incremental path"
            );
            let scratch = analyze_full(&program, &registry, &AnalysisOptions::default());
            assert_eq!(
                format!("{:?}", scratch.hazard_attrs),
                format!("{:?}", incremental.hazard_attrs),
                "case {case}, edit {edit}: incremental hazard set must be byte-identical to scratch"
            );
            assert_eq!(
                scratch.hazard_modules, incremental.hazard_modules,
                "case {case}, edit {edit}"
            );
            assert_eq!(scratch.lints, incremental.lints, "case {case}, edit {edit}");
        }
    }
}

// ---------------------------------------------------------------------------
// Bytecode VM vs tree-walker differential
// ---------------------------------------------------------------------------

/// A random expression over already-bound names: literals, arithmetic,
/// comparisons (including chains), boolean operators, containers,
/// subscripts and conditionals. May raise at runtime — both engines must
/// then raise identically.
fn random_vm_expr(rng: &mut Rng, vars: &[String], depth: usize) -> String {
    let leaf = depth == 0 || rng.usize_inclusive(0, 2) == 0;
    if leaf {
        return match rng.usize_inclusive(0, 4) {
            0 => format!("{}", rng.usize_inclusive(0, 99)),
            1 if !vars.is_empty() => vars[rng.usize_inclusive(0, vars.len() - 1)].clone(),
            2 => format!("\"s{}\"", rng.usize_inclusive(0, 9)),
            3 => "True".to_owned(),
            _ => format!("{}", rng.usize_inclusive(0, 9)),
        };
    }
    let a = random_vm_expr(rng, vars, depth - 1);
    let b = random_vm_expr(rng, vars, depth - 1);
    match rng.usize_inclusive(0, 9) {
        0 => format!("({a} + {b})"),
        1 => format!("({a} * {b})"),
        2 => format!("({a} - {b})"),
        3 => format!("({a} < {b})"),
        4 => {
            let c = random_vm_expr(rng, vars, depth - 1);
            format!("({a} < {b} < {c})")
        }
        5 => format!("({a} and {b})"),
        6 => format!("({a} or {b})"),
        7 => format!("[{a}, {b}]"),
        8 => format!("({a} if {b} else {})", random_vm_expr(rng, vars, depth - 1)),
        _ => format!("(not {a})"),
    }
}

/// Append one random statement (possibly a compound with a nested block).
fn random_vm_stmt(rng: &mut Rng, vars: &mut Vec<String>, out: &mut String, indent: usize) {
    let pad = "    ".repeat(indent);
    let deep = indent >= 2;
    match rng.usize_inclusive(0, if deep { 4 } else { 9 }) {
        0 | 1 => {
            let name = format!("v{}", vars.len());
            let e = random_vm_expr(rng, vars, 2);
            out.push_str(&format!("{pad}{name} = {e}\n"));
            vars.push(name);
        }
        2 => {
            let e = random_vm_expr(rng, vars, 2);
            out.push_str(&format!("{pad}print({e})\n"));
        }
        3 if !vars.is_empty() => {
            let v = &vars[rng.usize_inclusive(0, vars.len() - 1)];
            let e = random_vm_expr(rng, vars, 1);
            out.push_str(&format!("{pad}{v} = {v} + {e}\n"));
        }
        4 => {
            let name = format!("v{}", vars.len());
            let cond = random_vm_expr(rng, vars, 1);
            let body = random_vm_expr(rng, vars, 1);
            out.push_str(&format!(
                "{pad}{name} = [i * 2 for i in range({}) if {cond} or i > {body}]\n",
                rng.usize_inclusive(0, 6)
            ));
            vars.push(name);
        }
        5 => {
            let cond = random_vm_expr(rng, vars, 1);
            out.push_str(&format!("{pad}if {cond}:\n"));
            random_vm_stmt(rng, vars, out, indent + 1);
            if rng.bool() {
                out.push_str(&format!("{pad}else:\n"));
                random_vm_stmt(rng, vars, out, indent + 1);
            }
        }
        6 => {
            let name = format!("v{}", vars.len());
            let n = rng.usize_inclusive(0, 5);
            out.push_str(&format!("{pad}{name} = 0\n"));
            vars.push(name.clone());
            out.push_str(&format!("{pad}while {name} < {n}:\n"));
            out.push_str(&format!("{pad}    {name} = {name} + 1\n"));
            if rng.bool() {
                out.push_str(&format!(
                    "{pad}    if {name} == {}:\n{pad}        {}\n",
                    rng.usize_inclusive(1, 5),
                    if rng.bool() { "break" } else { "continue" }
                ));
            }
            random_vm_stmt(rng, vars, out, indent + 1);
        }
        7 => {
            let name = format!("it{}", vars.len());
            let e = random_vm_expr(rng, vars, 1);
            out.push_str(&format!(
                "{pad}for {name} in [{e}, {}]:\n",
                random_vm_expr(rng, vars, 1)
            ));
            vars.push(name);
            random_vm_stmt(rng, vars, out, indent + 1);
        }
        8 => {
            out.push_str(&format!("{pad}try:\n"));
            random_vm_stmt(rng, vars, out, indent + 1);
            out.push_str(&format!("{pad}except Exception as exc:\n"));
            out.push_str(&format!("{pad}    print(\"caught\", exc)\n"));
            if rng.bool() {
                out.push_str(&format!("{pad}finally:\n"));
                out.push_str(&format!("{pad}    print(\"fin\")\n"));
            }
        }
        _ => {
            let fname = format!("f{}", vars.len());
            let ret = random_vm_expr(rng, vars, 2);
            out.push_str(&format!("{pad}def {fname}(x):\n{pad}    return {ret}\n"));
            let arg = random_vm_expr(rng, vars, 1);
            let name = format!("v{}", vars.len());
            out.push_str(&format!("{pad}{name} = {fname}({arg})\n"));
            vars.push(name);
        }
    }
}

/// Random small programs through both engines: results (or errors),
/// stdout, virtual clock, simulated memory and step counts must be
/// byte-identical. This is the randomized arm of the VM differential —
/// the curated arm is `tests/differential_vm.rs`.
#[test]
fn vm_and_tree_walker_agree_on_random_programs() {
    let mut rng = Rng::seed_from_u64(0xb17ec0de);
    for case in 0..96 {
        let mut source = String::new();
        let mut vars = Vec::new();
        for _ in 0..rng.usize_inclusive(2, 7) {
            random_vm_stmt(&mut rng, &mut vars, &mut source, 0);
        }
        let run = |engine: pylite::Engine| {
            let mut it = pylite::Interpreter::new(pylite::Registry::new());
            it.engine = engine;
            let result = it.exec_main(&source).map(|_| ()).map_err(|e| e.to_string());
            (
                result,
                it.stdout.clone(),
                it.meter.clock_ns(),
                it.meter.mem_bytes(),
                it.meter.steps,
            )
        };
        let tree = run(pylite::Engine::Tree);
        let vm = run(pylite::Engine::Vm);
        assert_eq!(tree, vm, "case {case}: engines diverged on:\n{source}");
    }
}
