//! Event-driven trace replay: every function of a [`TraceSet`] through the
//! pool, across start modes and keep-alive settings, in one pass.
//!
//! This is the paper's §8.6 methodology generalized: instead of replaying a
//! single app against one matched trace function, the engine replays the
//! *whole* trace — each function becomes an [`crate::AppProfile`] (its
//! dataset memory/duration columns plus configurable image/init constants)
//! and its arrival slice streams through
//! [`crate::pool::simulate_pool_ext_stream_traced`] once per
//! (StartMode × keep-alive) variant.
//!
//! The fan-out, pricing and rendering are shared with
//! [`super::replay_fleet`] (see `drive.rs`); what this driver adds is the
//! per-function detail and exact E2E percentiles over every sample. Results
//! are **byte-identical whatever the worker count** — the acceptance bar
//! for `BENCH_replay.json`.

use super::drive::{app_for, fan_out, render_metrics, replay_variants, variant_pools, Pricing};
use super::fleet::FleetVariantReport;
use super::{ArrivalClass, FunctionTrace, TraceSet};
use crate::metrics::percentile;
use crate::platform::{Platform, StartMode};
use crate::pool::ExtPoolStats;

/// Options for [`replay_trace`].
#[derive(Debug, Clone, PartialEq)]
pub struct ReplayOptions {
    /// Start modes to replay (one full pass per mode × keep-alive).
    pub modes: Vec<StartMode>,
    /// Keep-alive settings to replay, seconds.
    pub keep_alive_secs: Vec<f64>,
    /// Worker threads for the per-function fan-out (clamped to ≥ 1).
    pub jobs: usize,
    /// Per-function concurrency cap (`None` = unlimited).
    pub max_concurrency: Option<usize>,
    /// Provisioned instances per function.
    pub provisioned: usize,
    /// Deployment image size assumed for every function, MB (the dataset
    /// has no image column).
    pub image_mb: f64,
    /// Function-initialization time assumed for every function, seconds
    /// (the dataset has no init column; λ-trim's whole point is shrinking
    /// this, so the knob is explicit).
    pub init_secs: f64,
}

impl Default for ReplayOptions {
    fn default() -> Self {
        ReplayOptions {
            modes: vec![StartMode::Standard, StartMode::Restore],
            keep_alive_secs: vec![60.0, 900.0],
            jobs: 1,
            max_concurrency: None,
            provisioned: 0,
            image_mb: 64.0,
            init_secs: 0.5,
        }
    }
}

/// One function's replay results: per-variant pool stats plus the raw
/// per-invocation E2E samples (for percentile aggregation).
#[derive(Debug, Clone, PartialEq)]
pub struct FunctionReplay {
    /// Trace function id.
    pub id: u32,
    /// Trace function name.
    pub name: String,
    /// Arrival class.
    pub class: ArrivalClass,
    /// Invocations in the window.
    pub invocations: usize,
    /// Per-variant results, parallel to [`ReplayReport::variants`].
    pub variants: Vec<FunctionVariant>,
}

/// One function under one (mode, keep-alive) variant.
#[derive(Debug, Clone, PartialEq)]
pub struct FunctionVariant {
    /// Pool statistics.
    pub stats: ExtPoolStats,
    /// Per-invocation E2E latencies (including queueing), seconds, in
    /// arrival order.
    pub e2e_secs: Vec<f64>,
}

/// Aggregate results for one (mode, keep-alive) variant across the whole
/// trace.
#[derive(Debug, Clone, PartialEq)]
pub struct VariantReport {
    /// Start mode of this variant.
    pub mode: StartMode,
    /// Keep-alive of this variant, seconds.
    pub keep_alive_secs: f64,
    /// Total invocations.
    pub invocations: u64,
    /// Total cold starts.
    pub cold_starts: u64,
    /// Total warm starts.
    pub warm_starts: u64,
    /// Total queued requests.
    pub queued_requests: u64,
    /// Sum of Equation-1 invocation costs, dollars (AWS pricing).
    pub invocation_cost: f64,
    /// Reserved provisioned capacity cost, dollars.
    pub provisioned_cost: f64,
    /// SnapStart snapshot cache + restore cost, dollars (Restore mode
    /// only; 0 under Standard).
    pub snapstart_cost: f64,
    /// SnapStart cost share of the total bill, in `[0, 1]`.
    pub snapstart_share: f64,
    /// p50 of per-invocation E2E latency, seconds.
    pub e2e_p50_secs: f64,
    /// p95 of per-invocation E2E latency, seconds.
    pub e2e_p95_secs: f64,
    /// p99 of per-invocation E2E latency, seconds.
    pub e2e_p99_secs: f64,
    /// Empirical CDF of per-function cold-start ratios (functions with at
    /// least one invocation): sorted `(ratio, cumulative_fraction)`.
    pub cold_ratio_cdf: Vec<(f64, f64)>,
    /// Total window bill under each provider's billing rules (invocation
    /// costs recomputed analytically from the cold/warm split; provisioned
    /// and SnapStart charges use AWS rates).
    pub provider_costs: Vec<(&'static str, f64)>,
}

impl VariantReport {
    /// Cold-start ratio across the whole trace.
    pub fn cold_ratio(&self) -> f64 {
        if self.invocations == 0 {
            0.0
        } else {
            self.cold_starts as f64 / self.invocations as f64
        }
    }

    /// Total dollars: invocations + provisioned capacity + SnapStart.
    pub fn total_cost(&self) -> f64 {
        self.invocation_cost + self.provisioned_cost + self.snapstart_cost
    }
}

/// The full replay result: per-function detail plus per-variant aggregates.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplayReport {
    /// Window length replayed, seconds.
    pub window_secs: f64,
    /// Per-function results, in trace order.
    pub functions: Vec<FunctionReplay>,
    /// Per-variant aggregates, ordered `modes × keep_alive_secs`.
    pub variants: Vec<VariantReport>,
}

/// Replay every function of `trace` through the pool under every
/// (mode × keep-alive) variant of `options`, fanning the per-function work
/// out over `options.jobs` threads. Deterministic: the report is identical
/// whatever the worker count.
pub fn replay_trace(
    platform: &Platform,
    trace: &TraceSet,
    options: &ReplayOptions,
) -> ReplayReport {
    let pools = variant_pools(options, trace.window_secs);
    let app = |function: &FunctionTrace| {
        app_for(
            &function.name,
            function.duration_ms,
            function.mem_mb,
            options,
        )
    };
    let (functions, _) = fan_out(
        trace.functions.len(),
        options.jobs,
        || (),
        |i, _| {
            let function = &trace.functions[i];
            let mut samples: Vec<Vec<f64>> = pools
                .iter()
                .map(|_| Vec::with_capacity(function.arrivals.len()))
                .collect();
            let stats = replay_variants(
                platform,
                &app(function),
                &pools,
                || function.arrivals.iter().copied(),
                &mut samples,
                |e2e: &mut Vec<f64>, secs| e2e.push(secs),
            );
            FunctionReplay {
                id: function.id,
                name: function.name.clone(),
                class: function.class,
                invocations: function.invocations(),
                variants: stats
                    .into_iter()
                    .zip(samples)
                    .map(|(stats, e2e_secs)| FunctionVariant { stats, e2e_secs })
                    .collect(),
            }
        },
    );

    let mut pricing = Pricing::new(platform, &pools, trace.window_secs);
    for (function, replay) in trace.functions.iter().zip(&functions) {
        pricing.add(&app(function), replay.variants.iter().map(|v| &v.stats));
    }
    let mut variants = pricing.finish();
    for (v, report) in variants.iter_mut().enumerate() {
        let e2e_all: Vec<f64> = functions
            .iter()
            .flat_map(|f| f.variants[v].e2e_secs.iter().copied())
            .collect();
        report.e2e_p50_secs = percentile(&e2e_all, 50.0);
        report.e2e_p95_secs = percentile(&e2e_all, 95.0);
        report.e2e_p99_secs = percentile(&e2e_all, 99.0);
    }
    ReplayReport {
        window_secs: trace.window_secs,
        functions,
        variants,
    }
}

/// Render the deterministic metrics block of a replay as a JSON string —
/// shared by `experiments -- replay` (which embeds it in
/// `BENCH_replay.json`) and the tier-1 golden-fixture test (which asserts
/// byte-identity across runs and worker counts). The block has the same
/// shape as [`super::render_fleet_metrics_json`]'s.
pub fn render_metrics_json(report: &ReplayReport) -> String {
    let variants: Vec<FleetVariantReport> = report
        .variants
        .iter()
        .map(FleetVariantReport::from)
        .collect();
    render_metrics(
        report.window_secs,
        report.functions.len(),
        report.functions.iter().map(|f| f.invocations as u64).sum(),
        &variants,
    )
}

#[cfg(test)]
mod tests {
    use super::super::synthetic::{generate_trace, TraceConfig};
    use super::*;

    fn small_trace() -> TraceSet {
        generate_trace(&TraceConfig {
            functions: 24,
            window_secs: 4.0 * 3600.0,
            seed: 99,
            diurnal: None,
        })
    }

    #[test]
    fn replay_covers_every_function_and_variant() {
        let trace = small_trace();
        let report = replay_trace(&Platform::default(), &trace, &ReplayOptions::default());
        assert_eq!(report.functions.len(), 24);
        assert_eq!(report.variants.len(), 4); // 2 modes × 2 keep-alives
        for f in &report.functions {
            assert_eq!(f.variants.len(), 4);
            for v in &f.variants {
                assert_eq!(v.stats.invocations() as usize, f.invocations);
                assert_eq!(v.e2e_secs.len(), f.invocations);
            }
        }
        let total: u64 = report.variants[0].invocations;
        assert_eq!(total as usize, trace.invocations());
    }

    #[test]
    fn worker_count_does_not_change_the_report() {
        let trace = small_trace();
        let platform = Platform::default();
        let base = ReplayOptions::default();
        let seq = replay_trace(
            &platform,
            &trace,
            &ReplayOptions {
                jobs: 1,
                ..base.clone()
            },
        );
        let par = replay_trace(
            &platform,
            &trace,
            &ReplayOptions {
                jobs: 8,
                ..base.clone()
            },
        );
        assert_eq!(seq, par, "replay must be deterministic across --jobs");
        assert_eq!(
            render_metrics_json(&seq),
            render_metrics_json(&par),
            "rendered metrics must be byte-identical across --jobs"
        );
    }

    #[test]
    fn longer_keep_alive_reduces_cold_ratio() {
        let trace = small_trace();
        let report = replay_trace(
            &Platform::default(),
            &trace,
            &ReplayOptions {
                modes: vec![StartMode::Standard],
                keep_alive_secs: vec![60.0, 3600.0],
                ..ReplayOptions::default()
            },
        );
        let short = &report.variants[0];
        let long = &report.variants[1];
        assert!(short.cold_ratio() > long.cold_ratio());
    }

    #[test]
    fn snapstart_costs_appear_only_in_restore_mode() {
        let trace = small_trace();
        let report = replay_trace(&Platform::default(), &trace, &ReplayOptions::default());
        for v in &report.variants {
            match v.mode {
                StartMode::Standard => {
                    assert_eq!(v.snapstart_cost, 0.0);
                    assert_eq!(v.snapstart_share, 0.0);
                }
                StartMode::Restore => {
                    assert!(v.snapstart_cost > 0.0);
                    assert!(v.snapstart_share > 0.0 && v.snapstart_share < 1.0);
                }
            }
            assert!(v.total_cost() > 0.0);
            assert_eq!(v.provider_costs.len(), 3);
            for &(_, cost) in &v.provider_costs {
                assert!(cost > 0.0);
            }
            // Coarser rounding never bills less than AWS's 1 ms rounding.
            let aws = v.provider_costs[0].1;
            assert!(v.provider_costs.iter().all(|&(_, c)| c >= aws * 0.999));
        }
    }

    #[test]
    fn percentiles_are_ordered_and_cdf_well_formed() {
        let trace = small_trace();
        let report = replay_trace(&Platform::default(), &trace, &ReplayOptions::default());
        for v in &report.variants {
            assert!(v.e2e_p50_secs <= v.e2e_p95_secs);
            assert!(v.e2e_p95_secs <= v.e2e_p99_secs);
            assert!(!v.cold_ratio_cdf.is_empty());
            assert_eq!(v.cold_ratio_cdf.last().unwrap().1, 1.0);
            for w in v.cold_ratio_cdf.windows(2) {
                assert!(w[0].0 <= w[1].0 && w[0].1 <= w[1].1);
            }
        }
    }

    #[test]
    fn rendered_metrics_are_valid_shape() {
        let trace = small_trace();
        let report = replay_trace(&Platform::default(), &trace, &ReplayOptions::default());
        let json = render_metrics_json(&report);
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert_eq!(json.matches("\"mode\"").count(), 4);
        assert!(json.contains("\"AWS Lambda\""));
        assert!(json.contains("\"cold_ratio_deciles\""));
        // Balanced braces/brackets — cheap structural sanity check.
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn empty_trace_replays_to_zeroes() {
        let trace = TraceSet {
            window_secs: 60.0,
            functions: vec![],
            source: super::super::TraceSource::Synthetic { seed: 0 },
        };
        let report = replay_trace(&Platform::default(), &trace, &ReplayOptions::default());
        assert!(report.functions.is_empty());
        for v in &report.variants {
            assert_eq!(v.invocations, 0);
            assert_eq!(v.total_cost(), 0.0);
            assert_eq!(v.cold_ratio(), 0.0);
        }
    }
}
