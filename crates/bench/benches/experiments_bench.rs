//! One bench per paper table/figure: each measures the code path that
//! regenerates that experiment (scaled to the mini corpus where the full
//! 21-app sweep would be too slow per iteration). The printable
//! rows/series themselves come from `--bin experiments`.

use lambda_sim::{
    generate_trace, nearest_function, simulate_pool_ext_stream_traced, CheckpointModel, Platform,
    PoolOptions, SnapStartPricing, StartMode, TraceConfig,
};
use std::hint::black_box;
use trim_bench::harness::*;
use trim_bench::micro::Runner;
use trim_core::{invoke_with_fallback, FallbackInstanceState};
use trim_profiler::ScoringMethod;

fn measure(bench: &trim_apps::BenchApp) -> trim_core::Execution {
    trim_core::run_app(&bench.registry, &bench.app_source, &bench.spec).expect("app runs")
}

fn main() {
    let runner = Runner::new();
    let platform = Platform::default();

    // Figure 1: phase breakdown of one cold start.
    {
        let bench = trim_apps::app("resnet").unwrap();
        let exec = measure(&bench);
        let profile = profile_from_execution(&bench.name, bench.image_mb, &exec);
        runner.bench("exp/fig1-phase-breakdown", || {
            black_box(
                platform
                    .cold_invocation(&profile, StartMode::Standard)
                    .e2e_secs(),
            )
        });
    }

    // Table 1 / Figure 2: measuring the corpus and pricing cold starts.
    {
        let pricing = default_pricing();
        let corpus = trim_apps::mini_corpus();
        runner.bench("exp/table1-fig2/measure-and-price", || {
            let mut total = 0.0;
            for bench in &corpus {
                let exec = measure(bench);
                let billable_ms = (exec.init_secs + exec.exec_secs) * 1000.0;
                total += pricing.cost_for_invocations(exec.mem_mb, billable_ms, PRICED_INVOCATIONS);
            }
            black_box(total)
        });
    }

    // Table 2: baseline comparison (FaaSLight / Vulture / λ-trim).
    {
        let bench = trim_apps::app("lightgbm").unwrap();
        runner.bench("exp/table2-baselines/three-way", || {
            let fl =
                trim_baselines::faaslight_trim(&bench.registry, &bench.app_source, &bench.spec)
                    .unwrap();
            let vu = trim_baselines::vulture_trim(&bench.registry, &bench.app_source, &bench.spec)
                .unwrap();
            let lt = AppResult::compute_default(bench.clone());
            black_box((
                fl.attrs_removed(),
                vu.attrs_removed(),
                lt.report.attrs_removed(),
            ))
        });
    }

    // Figure 8: the headline trim sweep (mini corpus per iteration).
    runner.bench("exp/fig8-trim-sweep/mini-corpus", || {
        let mut total = 0.0;
        for bench in trim_apps::mini_corpus() {
            let r = AppResult::compute_default(bench);
            total += improvements(&platform, &r).cost_pct;
        }
        black_box(total)
    });

    // Figure 9: scoring ablation.
    for method in [ScoringMethod::Combined, ScoringMethod::Random { seed: 7 }] {
        runner.bench(&format!("exp/fig9-scoring/{}", method.name()), || {
            let bench = trim_apps::app("dna-visualization").unwrap();
            black_box(result_with_scoring(bench, method).report.attrs_removed())
        });
    }

    // Table 3: debloat-time accounting.
    runner.bench("exp/table3-debloat-accounting/markdown", || {
        let bench = trim_apps::app("markdown").unwrap();
        let r = AppResult::compute_default(bench);
        black_box((r.report.debloat_secs, r.report.oracle_invocations))
    });

    // Figure 10: K sweep.
    for k in [1usize, 5, 20] {
        runner.bench(&format!("exp/fig10-k-sweep/k{k}"), || {
            let bench = trim_apps::app("dna-visualization").unwrap();
            black_box(result_with_k(bench, k).report.attrs_removed())
        });
    }

    // Figure 11: warm-start measurement.
    {
        let bench = trim_apps::app("markdown").unwrap();
        let exec = measure(&bench);
        let profile = profile_from_execution(&bench.name, bench.image_mb, &exec);
        runner.bench("exp/fig11-warm-start", || {
            black_box(platform.warm_invocation(&profile).e2e_secs())
        });
    }

    // Figure 12: checkpoint/restore model.
    {
        let ckpt = CheckpointModel::default();
        runner.bench("exp/fig12-cr-model", || {
            let mut total = 0.0;
            for mem in [40.0, 120.0, 420.0, 820.0] {
                total += ckpt.cr_init_secs(black_box(mem));
            }
            black_box(total)
        });
    }

    // Figure 13: Azure-trace generation + SnapStart pool simulation.
    {
        let config = TraceConfig {
            functions: 100,
            ..TraceConfig::default()
        };
        runner.bench("exp/fig13-trace-sim/generate-trace", || {
            black_box(generate_trace(&config).functions.len())
        });
        let trace = generate_trace(&config);
        runner.bench("exp/fig13-trace-sim/pool-sim-100fns", || {
            let mut cold = 0u64;
            for f in &trace.functions {
                let profile =
                    lambda_sim::AppProfile::new("f", 64.0, 0.5, f.duration_ms / 1000.0, f.mem_mb);
                let options = PoolOptions {
                    mode: StartMode::Restore,
                    ..PoolOptions::default()
                };
                let arrivals = f.arrivals.iter().copied();
                cold += simulate_pool_ext_stream_traced(
                    &platform,
                    &profile,
                    arrivals,
                    &options,
                    |_| {},
                )
                .expect("sorted arrivals")
                .cold_starts;
            }
            black_box(cold)
        });
    }

    // Figure 14: L2 matching + SnapStart accounting for one app.
    {
        let config = TraceConfig {
            functions: 200,
            ..TraceConfig::default()
        };
        let trace = generate_trace(&config);
        let pricing = SnapStartPricing::default();
        let ckpt = CheckpointModel::default();
        let bench = trim_apps::app("markdown").unwrap();
        let exec = measure(&bench);
        let profile = profile_from_execution(&bench.name, bench.image_mb, &exec);
        runner.bench("exp/fig14-snapstart-accounting", || {
            let matched =
                nearest_function(&trace.functions, profile.mem_mb, profile.exec_secs * 1000.0)
                    .unwrap();
            let acct = snapstart_account(
                &platform,
                &pricing,
                &ckpt,
                &profile,
                &matched.arrivals,
                900.0,
                config.window_secs,
            );
            black_box(acct.snapstart_share())
        });
    }

    // Table 4: fallback invocation path.
    {
        let bench = trim_apps::app("markdown").unwrap();
        let result = AppResult::compute_default(bench);
        let case = result.bench.rare_case();
        runner.bench("exp/table4-fallback/fallback-cold", || {
            let (outcome, cost) = invoke_with_fallback(
                &result.report.trimmed,
                &result.bench.registry,
                &result.bench.app_source,
                &result.bench.spec.handler,
                &case,
                FallbackInstanceState::Cold,
            )
            .unwrap();
            black_box((outcome.fell_back(), cost.e2e_cold_secs()))
        });
    }
}
