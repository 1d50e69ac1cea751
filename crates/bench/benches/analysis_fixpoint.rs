//! Sharded-fixpoint micro-benchmarks: cold vs warm-cache incremental
//! analysis, on a few representative corpus apps.
//!
//! The `analysis` bin (`cargo run -p trim-bench --bin analysis --release`)
//! runs the same two configurations over the *whole* corpus and writes
//! `BENCH_analysis.json`; this bench is the quick inner-loop view.

use std::hint::black_box;
use trim_analysis::summary::SummaryCache;
use trim_analysis::{analyze_full, AnalysisOptions};
use trim_bench::micro::Runner;

fn main() {
    let runner = Runner::new();
    for name in ["markdown", "scikit", "dna-visualization"] {
        let bench = trim_apps::app(name).expect("corpus app");
        let program = pylite::parse(&bench.app_source).expect("corpus app parses");

        runner.bench(&format!("analysis-fixpoint/{name}/cold-serial"), || {
            black_box(analyze_full(
                &program,
                &bench.registry,
                &AnalysisOptions::default(),
            ))
        });

        // One-module edit against a warm summary cache: flip a module
        // between two contents so every iteration is a real incremental run
        // (never a pure fingerprint hit).
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
        let cache = SummaryCache::shared();
        let warm = AnalysisOptions {
            summary_cache: Some(cache.clone()),
            ..AnalysisOptions::default()
        };
        let mut work = bench.registry.clone();
        analyze_full(&program, &work, &warm); // prime the cache
        let mut flip = false;
        runner.bench(&format!("analysis-fixpoint/{name}/incremental"), || {
            flip = !flip;
            work.set_module(&module, if flip { &edited } else { &original });
            black_box(analyze_full(&program, &work, &warm))
        });
    }
}
