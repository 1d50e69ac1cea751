//! Static-analysis fixpoint benchmark: measured wall-clock nanoseconds per
//! full interprocedural analysis, per corpus application, in two
//! configurations:
//!
//! * **cold** — no summary cache, the whole fixpoint runs;
//! * **incremental** — one-module registry edit against a warm summary
//!   cache (only the edited module's reverse-dependency cone re-runs).
//!
//! Both run on the calling thread. Every app's incremental output is
//! also checked against a cold analysis of the same edited registry (call
//! graph, lints, accessed sets, bindings, reached functions); any
//! difference is reported and the binary exits 1 without writing.
//!
//! Usage:
//!
//! ```text
//! analysis        # measure, print per-app rows, write BENCH_analysis.json
//! ```
//!
//! `LT_BENCH_BUDGET_MS` bounds the per-configuration sampling budget
//! (default 300).

use std::process::ExitCode;
use std::time::{Duration, Instant};
use trim_analysis::summary::SummaryCache;
use trim_analysis::{analyze_full, AnalysisOptions, FullAnalysis};

fn render(full: &FullAnalysis) -> String {
    format!(
        "{:?}|{:?}|{:?}|{:?}|{:?}|{:?}|{:?}",
        full.analysis,
        full.load_time_accessed,
        full.module_bindings,
        full.lints,
        full.hazard_modules,
        full.call_graph,
        full.reached_functions
    )
}

/// Median duration of `f`, sampled under a budget.
fn measure(budget: Duration, mut f: impl FnMut()) -> u64 {
    f(); // warm-up: populates shared parse/resolve slots
    let mut samples: Vec<u64> = Vec::new();
    let deadline = Instant::now() + budget;
    while Instant::now() < deadline || samples.len() < 5 {
        let t = Instant::now();
        f();
        samples.push(t.elapsed().as_nanos() as u64);
        if samples.len() >= 500 {
            break;
        }
    }
    samples.sort_unstable();
    samples[samples.len() / 2]
}

struct Row {
    app: String,
    serial_ns: u64,
    incremental_ns: u64,
}

fn main() -> ExitCode {
    let budget_ms = std::env::var("LT_BENCH_BUDGET_MS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(300u64);
    let budget = Duration::from_millis(budget_ms);

    let mut rows: Vec<Row> = Vec::new();
    let mut mismatches: Vec<String> = Vec::new();
    for bench in trim_apps::corpus() {
        let program = pylite::parse(&bench.app_source).expect("corpus app parses");
        let cold = AnalysisOptions::default();
        let cache = SummaryCache::shared();
        let warm = AnalysisOptions {
            summary_cache: Some(cache.clone()),
            ..AnalysisOptions::default()
        };

        let serial_ns = measure(budget, || {
            std::hint::black_box(analyze_full(&program, &bench.registry, &cold));
        });

        // Incremental: flip one module between two contents; each sample
        // is a genuine incremental run (the fingerprint differs from the
        // cached one). The edit appends a bare expression statement — a
        // body-only change that leaves the module's public surface
        // unchanged, the shape of most retrim-triggering edits — so early
        // cutoff re-walks only the edited module.
        let module = bench
            .registry
            .module_names()
            .pop()
            .expect("corpus registries are non-empty");
        let original = bench
            .registry
            .source(&module)
            .expect("module listed")
            .to_owned();
        let edited = format!("{original}\n0\n");
        let mut work = bench.registry.clone();
        analyze_full(&program, &work, &warm); // prime
        let mut flip = false;
        let incremental_ns = measure(budget, || {
            flip = !flip;
            work.set_module(&module, if flip { &edited } else { &original });
            std::hint::black_box(analyze_full(&program, &work, &warm));
        });

        // Correctness: an incremental run from the original registry must
        // match a cold analysis of the edited one.
        work.set_module(&module, &original);
        analyze_full(&program, &work, &warm);
        work.set_module(&module, &edited);
        let runs = cache.incremental_runs();
        let incremental = render(&analyze_full(&program, &work, &warm));
        assert_eq!(
            cache.incremental_runs(),
            runs + 1,
            "the edit re-analyzes incrementally"
        );
        if incremental != render(&analyze_full(&program, &work, &cold)) {
            mismatches.push(bench.name.clone());
        }

        println!(
            "{:<24} cold {serial_ns:>9} ns | incremental {incremental_ns:>9} ns ({:.2}x)",
            bench.name,
            serial_ns as f64 / incremental_ns as f64,
        );
        rows.push(Row {
            app: bench.name.clone(),
            serial_ns,
            incremental_ns,
        });
    }
    if !mismatches.is_empty() {
        eprintln!(
            "incremental analysis differs from a cold analysis of the edited registry on: {}",
            mismatches.join(", ")
        );
        return ExitCode::FAILURE;
    }

    let total_serial: u64 = rows.iter().map(|r| r.serial_ns).sum();
    let total_incremental: u64 = rows.iter().map(|r| r.incremental_ns).sum();
    let incremental_speedup = total_serial as f64 / total_incremental as f64;

    let json_rows: Vec<String> = rows
        .iter()
        .map(|r| {
            format!(
                "    {{\"app\": \"{}\", \"serial_ns\": {}, \"incremental_ns\": {}, \"incremental_speedup\": {:.2}}}",
                r.app,
                r.serial_ns,
                r.incremental_ns,
                r.serial_ns as f64 / r.incremental_ns as f64,
            )
        })
        .collect();
    let json = format!(
        "{{\n  \"bench\": \"analysis_fixpoint\",\n  \"unit\": \"ns_per_analysis\",\n  \"apps\": [\n{}\n  ],\n  \"total_serial_ns\": {},\n  \"total_incremental_ns\": {},\n  \"incremental_speedup\": {:.2},\n  \"incremental_matches_cold\": true\n}}\n",
        json_rows.join(",\n"),
        total_serial,
        total_incremental,
        incremental_speedup,
    );
    let path = "BENCH_analysis.json";
    std::fs::write(path, json).unwrap_or_else(|e| panic!("writing {path}: {e}"));
    println!(
        "full corpus: one-module incremental speedup {incremental_speedup:.2}x (measured wall time), incremental output matches cold on every app"
    );
    println!("wrote {path}");
    ExitCode::SUCCESS
}
