//! Differential test pinning mask probes to source probes.
//!
//! The debloater and the slicer probe a candidate as a keep-mask over the
//! module's compiled code (`Registry::with_mask`) instead of rewriting,
//! unparsing and recompiling its source (`Registry::with_module`). The
//! contract (DESIGN.md §16): both overlays give the same verdict, the same
//! `Execution`, virtual clock, simulated bytes, step count and import
//! events, on both engines, and the masked module reads back as exactly
//! the source a commit writes.
//!
//! * `mini_corpus_probes_match_source_probes` replays every probe the
//!   debloater and slicer make while trimming the mini corpus, and checks
//!   the replay reached the same trim as `trim_app`;
//! * `sampled_keep_sets_match_on_every_corpus_target` runs a seeded sample
//!   of keep sets and statement masks for each target module of all 21
//!   apps;
//! * `full_corpus_probes_match_source_probes` (ignored; run it with
//!   `cargo test --release --test differential_mask -- --include-ignored`)
//!   replays every probe of the full corpus;
//! * the remaining tests cover the mask edge cases one by one.

use lambda_trim::pylite::{
    self, unparse, Engine, ImportEvent, Interpreter, KeepMask, Program, PyErr, Registry,
};
use lambda_trim::trim_analysis::slice::{slice_init, sliced_program};
use lambda_trim::trim_analysis::{analyze_full, AnalysisMode, AnalysisOptions};
use lambda_trim::trim_apps::BenchApp;
use lambda_trim::trim_core::oracle::parse_literal;
use lambda_trim::trim_core::{
    module_attributes, rewrite_module, run_app_opts, BindingTable, Execution, HazardMode,
};
use lambda_trim::trim_dd::{ddmax_with, ddmin_with};
use lambda_trim::trim_profiler::{profile_app, top_k};
use lambda_trim::{trim_app, DebloatOptions, OracleSpec, TestCase};
use std::collections::BTreeSet;
use std::sync::Arc;
use trim_rng::Rng;

/// Everything one oracle run exposes: the `Execution` the oracle builds
/// (or the error it fails with) plus the raw meter and import events.
#[derive(Debug, PartialEq)]
struct Observation {
    result: Result<Execution, PyErr>,
    clock_ns: u64,
    mem_bytes: u64,
    steps: u64,
    imports: Vec<ImportEvent>,
}

/// Run the app the way the oracle does, keeping the interpreter's meter.
fn observe(
    registry: &Registry,
    app: &str,
    spec: &OracleSpec,
    engine: Engine,
    snapshots: bool,
) -> Observation {
    let mut it = Interpreter::new(registry.clone());
    it.engine = engine;
    if snapshots {
        it.enable_init_snapshots();
    }
    let result = (|| {
        it.exec_main(app)?;
        let init_secs = it.meter.clock_secs();
        let mut results = Vec::new();
        for case in &spec.cases {
            let event = parse_literal(&case.event)?;
            let context = parse_literal(&case.context)?;
            let out = it.call_handler(&spec.handler, event, context)?;
            results.push(pylite::py_repr(&out));
        }
        let exec_total = it.meter.clock_secs() - init_secs;
        Ok(Execution {
            stdout: it.stdout.clone(),
            extcalls: it.extcalls.clone(),
            results,
            init_secs,
            exec_secs: if spec.cases.is_empty() {
                0.0
            } else {
                exec_total / spec.cases.len() as f64
            },
            mem_mb: it.meter.mem_mb(),
        })
    })();
    Observation {
        result,
        clock_ns: it.meter.clock_ns(),
        mem_bytes: it.meter.mem_bytes(),
        steps: it.meter.steps,
        imports: it.import_events.clone(),
    }
}

/// One probe candidate: the base registry, the probed module and both
/// overlays of the same keep decision.
struct Candidate {
    masked: Registry,
    source: Registry,
    module: String,
    what: String,
}

impl Candidate {
    /// A DD candidate: keep exactly the attributes in `keep`.
    fn attrs(base: &Registry, module: &str, program: &Program, keep: &BTreeSet<String>) -> Self {
        let mask = BindingTable::new(program).mask(keep);
        Candidate {
            masked: base.with_mask(module, Arc::new(mask)),
            source: base.with_module(module, unparse(&rewrite_module(program, keep))),
            module: module.to_owned(),
            what: format!("keep {keep:?}"),
        }
    }

    /// A slice candidate: keep exactly the statements at `kept`.
    fn stmts(base: &Registry, module: &str, program: &Program, kept: &[usize]) -> Self {
        let mask = KeepMask::statements(program.body.len(), kept);
        Candidate {
            masked: base.with_mask(module, Arc::new(mask)),
            source: base.with_module(module, unparse(&sliced_program(program, kept))),
            module: module.to_owned(),
            what: format!("statements {kept:?}"),
        }
    }

    /// Assert parity on `engine` and return the verdict against `expected`.
    fn check(
        &self,
        app: &str,
        spec: &OracleSpec,
        expected: &Execution,
        engine: Engine,
        snapshots: bool,
    ) -> bool {
        assert_eq!(
            self.masked.source(&self.module),
            self.source.source(&self.module),
            "{}: masked source differs from the rewrite ({})",
            self.module,
            self.what
        );
        let mask = observe(&self.masked, app, spec, engine, snapshots);
        let source = observe(&self.source, app, spec, engine, snapshots);
        assert_eq!(
            mask, source,
            "{} on {engine:?} (snapshots {snapshots}): mask and source probes differ for {}",
            self.module, self.what
        );
        matches!(&mask.result, Ok(actual) if actual.behavior_eq(expected))
    }
}

/// Probe counts and outcomes of one mirrored trim, for comparison with
/// `trim_app`'s report.
#[derive(Debug, PartialEq)]
struct Replayed {
    kept: Vec<(String, Vec<String>, u64)>,
    sliced: Vec<(String, usize, u64)>,
    fingerprint: u64,
}

/// Trim `app` with `trim_app`'s stages and options, probing every DD and
/// slicer candidate through both overlays; return what the trim decided.
fn replay_trim(app: &BenchApp, options: &DebloatOptions) -> Replayed {
    let registry = &app.registry;
    let (source, spec, engine) = (&app.app_source, &app.spec, options.engine);
    let snapshots = options.init_snapshots;
    let before = run_app_opts(registry, source, spec, engine, snapshots).expect("baseline");
    let program = pylite::parse(source).expect("app parses");
    let analysis_options = AnalysisOptions {
        mode: options.analysis,
        entry: None,
        jobs: 1,
        summary_cache: Some(lambda_trim::trim_analysis::summary::SummaryCache::shared()),
    };
    let full = analyze_full(&program, registry, &analysis_options);
    for module in full.hazard_attrs.keys() {
        registry.snapshot_store().deny(module);
    }
    let profile = profile_app(source, registry).expect("profile");
    let targets: Vec<String> = top_k(&profile, options.scoring, options.k)
        .into_iter()
        .filter(|m| registry.contains(m))
        .collect();

    let mut work = registry.clone();
    let mut kept = Vec::new();
    for module in &targets {
        let pinned = match full.hazard_attrs.get(module) {
            None => BTreeSet::new(),
            Some(bound) => match (options.hazards, bound.attrs()) {
                (HazardMode::PerAttribute, Some(attrs)) => attrs.clone(),
                _ => continue,
            },
        };
        let mut must_keep = match options.analysis {
            AnalysisMode::AppOnly => full.analysis.accessed_attrs(module),
            AnalysisMode::Interprocedural => analyze_full(&program, &work, &analysis_options)
                .analysis
                .accessed_attrs(module),
        };
        must_keep.extend(pinned);
        let module_program = work.parse_module(module).expect("target parses");
        let attrs = module_attributes(&module_program);
        let (fixed, candidates): (Vec<String>, Vec<String>) =
            attrs.iter().cloned().partition(|a| must_keep.contains(a));
        let mut probes = 0u64;
        let base = work.clone();
        let mut oracle = |subset: &[String]| {
            probes += 1;
            let keep: BTreeSet<String> = fixed.iter().chain(subset).cloned().collect();
            Candidate::attrs(&base, module, &module_program, &keep)
                .check(source, spec, &before, engine, snapshots)
        };
        let survivors = match ddmin_with(&candidates, &mut oracle, options.dd) {
            Ok(result) => {
                let keep: BTreeSet<String> =
                    fixed.iter().cloned().chain(result.minimized).collect();
                let original = work.source(module).expect("target").to_owned();
                work.set_module(module, unparse(&rewrite_module(&module_program, &keep)));
                let verify = run_app_opts(&work, source, spec, engine, snapshots);
                if matches!(&verify, Ok(after) if after.behavior_eq(&before)) {
                    attrs.into_iter().filter(|a| keep.contains(a)).collect()
                } else {
                    work.set_module(module, original);
                    attrs
                }
            }
            Err(_) => {
                probes = 0;
                attrs
            }
        };
        kept.push((module.clone(), survivors, probes));
    }

    let hazards: BTreeSet<String> = full.hazard_attrs.keys().cloned().collect();
    let mut sliced = Vec::new();
    for (module, _, _) in &kept {
        let module_program = work.parse_module(module).expect("kept module parses");
        let seed: BTreeSet<String> = module_attributes(&module_program).into_iter().collect();
        let slice = slice_init(&module_program, &seed, hazards.contains(module));
        if slice.is_full() {
            sliced.push((module.clone(), slice.total, 0));
            continue;
        }
        let mut probes = 0u64;
        let base = work.clone();
        let mut probe = |kept: &[usize]| {
            probes += 1;
            Candidate::stmts(&base, module, &module_program, kept)
                .check(source, spec, &before, engine, snapshots)
        };
        let total = slice.total;
        let committed = if probe(&slice.kept) {
            Some(slice.kept.clone())
        } else {
            let mut oracle = |dropped: &[usize]| {
                let drop: BTreeSet<usize> = dropped.iter().copied().collect();
                let kept: Vec<usize> = (0..total).filter(|i| !drop.contains(i)).collect();
                probe(&kept)
            };
            match ddmax_with(&slice.dropped(), &mut oracle, options.dd) {
                Ok(result) if !result.minimized.is_empty() => {
                    let drop: BTreeSet<usize> = result.minimized.into_iter().collect();
                    Some((0..total).filter(|i| !drop.contains(i)).collect())
                }
                _ => None,
            }
        };
        if let Some(kept) = &committed {
            work.set_module(module, unparse(&sliced_program(&module_program, kept)));
        }
        sliced.push((
            module.clone(),
            committed.as_ref().map_or(total, Vec::len),
            probes,
        ));
    }
    Replayed {
        kept,
        sliced,
        fingerprint: work.fingerprint(),
    }
}

/// What `trim_app` decided, in [`Replayed`]'s shape.
fn trimmed(app: &BenchApp, options: &DebloatOptions) -> Replayed {
    let report = trim_app(&app.registry, &app.app_source, &app.spec, options).expect("trim");
    Replayed {
        kept: report
            .modules
            .iter()
            .map(|m| {
                let probes = m.dd_stats.oracle_invocations;
                (m.module.clone(), m.kept.clone(), probes)
            })
            .collect(),
        sliced: report
            .slices
            .iter()
            .map(|s| (s.module.clone(), s.stmts_after, s.oracle_invocations))
            .collect(),
        fingerprint: report.trimmed.fingerprint(),
    }
}

/// Replay every probe of each app's trim on both engines, each from a
/// fresh registry family, and check the replay is the trim `trim_app`
/// makes.
fn replay_every_probe(apps: impl Fn() -> Vec<BenchApp>) {
    for engine in [Engine::Vm, Engine::Tree] {
        let options = DebloatOptions {
            engine,
            ..DebloatOptions::default()
        };
        for (app, fresh) in apps().iter().zip(apps()) {
            let replayed = replay_trim(app, &options);
            assert!(
                replayed.kept.iter().any(|(_, _, probes)| *probes > 0),
                "{}: no DD probes replayed",
                app.name
            );
            assert_eq!(
                replayed,
                trimmed(&fresh, &options),
                "{} on {engine:?}: the replay saw different probes than trim_app",
                app.name
            );
        }
    }
}

#[test]
fn mini_corpus_probes_match_source_probes() {
    replay_every_probe(lambda_trim::trim_apps::mini_corpus);
}

#[test]
#[ignore = "full corpus; run in release with --include-ignored"]
fn full_corpus_probes_match_source_probes() {
    replay_every_probe(lambda_trim::trim_apps::corpus);
}

#[test]
fn sampled_keep_sets_match_on_every_corpus_target() {
    let options = DebloatOptions::default();
    for (i, app) in lambda_trim::trim_apps::corpus().into_iter().enumerate() {
        let registry = &app.registry;
        let (source, spec) = (&app.app_source, &app.spec);
        let expected = run_app_opts(registry, source, spec, Engine::Vm, true).expect("baseline");
        let profile = profile_app(source, registry).expect("profile");
        let mut rng = Rng::seed_from_u64(0x6d61_736b + i as u64);
        for module in top_k(&profile, options.scoring, options.k) {
            let Ok(program) = registry.parse_module(&module) else {
                continue;
            };
            let keep: BTreeSet<String> = module_attributes(&program)
                .into_iter()
                .filter(|_| rng.bool())
                .collect();
            let kept: Vec<usize> = (0..program.body.len()).filter(|_| rng.bool()).collect();
            let candidates = [
                Candidate::attrs(registry, &module, &program, &keep),
                Candidate::stmts(registry, &module, &program, &kept),
            ];
            for (candidate, engine) in candidates
                .iter()
                .flat_map(|c| [(c, Engine::Vm), (c, Engine::Tree)])
            {
                candidate.check(source, spec, &expected, engine, true);
            }
        }
    }
}

// -- edge cases -------------------------------------------------------------

const APP: &str = "import lib\ndef handler(event, context):\n    return 0\n";

fn spec() -> OracleSpec {
    OracleSpec::new(vec![TestCase::event("{}")])
}

/// Check every keep set of `lib` in `registry` on both engines, with and
/// without init snapshots.
fn check_keep_sets(registry: &Registry, app: &str, keep_sets: &[&[&str]]) {
    let program = registry.parse_module("lib").expect("lib parses");
    let spec = spec();
    let expected = observe(registry, app, &spec, Engine::Vm, false)
        .result
        .unwrap_or_else(|e| panic!("baseline fails: {e}"));
    for keep in keep_sets {
        let keep: BTreeSet<String> = keep.iter().map(|s| (*s).to_owned()).collect();
        let candidate = Candidate::attrs(registry, "lib", &program, &keep);
        for engine in [Engine::Vm, Engine::Tree] {
            for snapshots in [false, true] {
                candidate.check(app, &spec, &expected, engine, snapshots);
            }
        }
    }
}

#[test]
fn an_all_dropped_mask_still_charges_the_rewrites_pass() {
    let mut r = Registry::new();
    r.set_module("lib", "x = 1\ndef f():\n    return 2\nclass C:\n    pass\n");
    let program = r.parse_module("lib").unwrap();
    let candidate = Candidate::attrs(&r, "lib", &program, &BTreeSet::new());
    assert_eq!(candidate.masked.source("lib"), Some("pass\n"));
    check_keep_sets(&r, APP, &[&[]]);
    // The lone `pass` is one statement: one step more than an empty body.
    let empty = r.with_mask("lib", Arc::new(KeepMask::statements(3, &[])));
    let spec = spec();
    let pass = observe(&candidate.masked, APP, &spec, Engine::Vm, false);
    let none = observe(&empty, APP, &spec, Engine::Vm, false);
    assert_eq!(pass.steps, none.steps + 1);
    assert!(pass.clock_ns > none.clock_ns);
}

#[test]
fn partial_import_lists_bind_only_their_kept_names() {
    let mut r = Registry::new();
    r.set_module("m", "a = 1\nb = 2\n");
    r.set_module("pkg", "__lt_work__(3)\n");
    r.set_module("pkg.sub", "s = 1\n");
    r.set_module("other", "__lt_alloc__(1)\n");
    r.set_module(
        "lib",
        "from m import a, b as c\nimport pkg.sub, other as d\ndef use():\n    return c\n",
    );
    let app = "import lib\ndef handler(event, context):\n    return [hasattr(lib, n) for n in [\"a\", \"c\", \"pkg\", \"d\"]]\n";
    check_keep_sets(
        &r,
        app,
        &[
            &["a"],
            &["c"],
            &["pkg"],
            &["d"],
            &["a", "d"],
            &["c", "pkg", "use"],
            &["a", "c", "pkg", "d", "use"],
        ],
    );
}

#[test]
fn magic_names_star_imports_and_tuple_targets_follow_the_rewrite() {
    let mut r = Registry::new();
    r.set_module("m", "x = 1\ny = 2\n_hidden = 3\n");
    r.set_module(
        "lib",
        "__all__ = [\"p\"]\n__version__ = \"1.0\"\nfrom m import *\np, q = (1, 2)\n[s, t] = [3, 4]\ndef __setup__():\n    return 1\nu = v = 5\n",
    );
    let app = "import lib\ndef handler(event, context):\n    return [hasattr(lib, n) for n in [\"x\", \"p\", \"q\", \"s\", \"u\", \"v\"]]\n";
    check_keep_sets(
        &r,
        app,
        &[
            &[],
            &["*"],
            &["p"],
            &["q"],
            &["t"],
            &["v"],
            &["*", "s", "u"],
        ],
    );
}

#[test]
fn non_binding_statements_and_failing_inits_match() {
    let mut r = Registry::new();
    r.set_module(
        "lib",
        "print(\"init\")\n__lt_work__(5)\nif True:\n    z = 1\nfor i in [1, 2]:\n    __lt_alloc__(1)\nboom = 1 // 0\nsafe = 2\n",
    );
    let app = "import lib\ndef handler(event, context):\n    return lib.safe\n";
    let program = r.parse_module("lib").unwrap();
    let spec = spec();
    let only_safe = BTreeSet::from(["safe".to_owned()]);
    let expected = observe(
        &Candidate::attrs(&r, "lib", &program, &only_safe).source,
        app,
        &spec,
        Engine::Vm,
        false,
    )
    .result
    .unwrap();
    assert_eq!(expected.stdout, vec!["init"], "non-binding statements run");
    // The full module raises during init; so does any keep set with
    // `boom`. Compare the failing runs too, not only the passing ones.
    for keep in [&["safe"][..], &["boom"], &["boom", "safe"], &[]] {
        let keep: BTreeSet<String> = keep.iter().map(|s| (*s).to_owned()).collect();
        let candidate = Candidate::attrs(&r, "lib", &program, &keep);
        for engine in [Engine::Vm, Engine::Tree] {
            for snapshots in [false, true] {
                let passes = candidate.check(app, &spec, &expected, engine, snapshots);
                assert_eq!(passes, keep == only_safe);
            }
        }
        let run = observe(&candidate.masked, app, &spec, Engine::Vm, false);
        if keep.contains("boom") {
            let err = run.result.unwrap_err();
            assert_eq!(err.kind, pylite::ExcKind::ZeroDivisionError);
        }
    }
}
