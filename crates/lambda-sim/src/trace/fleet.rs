//! Fleet-scale streaming replay: sweep a synthetic fleet through the pool
//! without ever materializing a trace.
//!
//! [`super::replay_trace`] keeps the whole [`super::TraceSet`] — every
//! arrival of every function — plus per-invocation E2E samples in memory.
//! That is the right shape for fixture-sized traces where the per-function
//! detail matters, but a 40k-function synthetic fleet carries ~10⁸
//! invocations × 8 bytes per variant, which does not fit.
//!
//! [`replay_fleet`] takes the [`super::TraceConfig`] instead of a
//! generated trace and exploits the generator's per-function seeding
//! ([`synthesize_function`] is row-order independent): workers pull
//! function indices from an atomic counter, synthesize the function's
//! profile on the spot, and stream its arrivals straight through
//! [`crate::pool::simulate_pool_ext_stream_traced`] once per
//! (mode × keep-alive) variant. Memory per worker is O(live pool
//! instances); fleet-wide state is O(functions × variants) pool-stat
//! records plus fixed-size E2E histograms — bounded however many
//! invocations the window holds.
//!
//! The worker fan-out, pricing and renderer are [`super::replay_trace`]'s
//! (see `drive.rs`): per-function stats are aggregated in function order
//! (f64 sums see one fixed order), and the per-worker E2E histograms are
//! u64 counters whose merges commute. The rendered metrics are
//! byte-identical whatever `jobs` is — pinned by tests.
//!
//! E2E percentiles are estimated from a log-scale histogram (60 bins per
//! decade over 10⁻⁴–10⁶ s) rather than exact order statistics; the
//! estimate is within one bin (≈ 4% relative) of the exact value, which is
//! ample for fleet-level latency curves. Costs, counts, and cold-ratio
//! deciles are exact and bit-identical to what [`super::replay_trace`]
//! reports on the materialized equivalent of the same config.

use super::drive::{app_for, fan_out, render_metrics, replay_variants, variant_pools, Pricing};
use super::replay::{ReplayOptions, VariantReport};
use super::synthetic::{synthesize_function, SyntheticFunction, TraceConfig};
use super::TraceError;
use crate::metrics::percentile;
use crate::platform::{Platform, StartMode};

/// Number of E2E histogram bins: 60 per decade across 10 decades.
const HIST_BINS: usize = 600;
/// Lower edge of the histogram, log10 seconds.
const HIST_LOG_MIN: f64 = -4.0;
/// Upper edge of the histogram, log10 seconds.
const HIST_LOG_MAX: f64 = 6.0;

fn hist_bin(secs: f64) -> usize {
    let log = secs.max(1e-300).log10();
    let pos = (log - HIST_LOG_MIN) / (HIST_LOG_MAX - HIST_LOG_MIN) * HIST_BINS as f64;
    (pos as isize).clamp(0, HIST_BINS as isize - 1) as usize
}

/// Representative latency for `p`-th percentile from cumulative counts:
/// the geometric midpoint of the first bin whose cumulative mass crosses
/// the rank. `None` when the histogram is empty (zero arrivals in the
/// window — an all-filtered trace or a rare function that never fired):
/// there is no order statistic to estimate, and the caller must decide
/// what an absent percentile renders as rather than divide by zero here.
fn hist_percentile(hist: &[u64], p: f64) -> Option<f64> {
    let total: u64 = hist.iter().sum();
    if total == 0 {
        return None;
    }
    let rank = (p / 100.0 * total as f64).ceil().max(1.0) as u64;
    let mut cum = 0u64;
    for (bin, &count) in hist.iter().enumerate() {
        cum += count;
        if cum >= rank {
            let width = (HIST_LOG_MAX - HIST_LOG_MIN) / HIST_BINS as f64;
            let mid = HIST_LOG_MIN + (bin as f64 + 0.5) * width;
            return Some(10f64.powf(mid));
        }
    }
    Some(10f64.powf(HIST_LOG_MAX))
}

/// Aggregate results for one (mode × keep-alive) variant across the fleet.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetVariantReport {
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
    /// SnapStart snapshot cache + restore cost, dollars (Restore only).
    pub snapstart_cost: f64,
    /// SnapStart cost share of the total bill, in `[0, 1]`.
    pub snapstart_share: f64,
    /// p50 of per-invocation E2E latency, seconds (histogram estimate).
    pub e2e_p50_secs: f64,
    /// p95 of per-invocation E2E latency, seconds (histogram estimate).
    pub e2e_p95_secs: f64,
    /// p99 of per-invocation E2E latency, seconds (histogram estimate).
    pub e2e_p99_secs: f64,
    /// Deciles (10th..100th percentile) of the per-function cold-start
    /// ratio distribution (functions with ≥ 1 invocation). Exact.
    pub cold_ratio_deciles: [f64; 10],
    /// Total window bill under each provider's billing rules.
    pub provider_costs: Vec<(&'static str, f64)>,
}

impl FleetVariantReport {
    /// Cold-start ratio across the whole fleet.
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

/// Result of a fleet-scale streaming replay.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetReport {
    /// Window length replayed, seconds.
    pub window_secs: f64,
    /// Fleet size (functions replayed).
    pub functions: usize,
    /// Invocations per variant (every variant replays the same arrivals).
    pub invocations: u64,
    /// Per-variant aggregates, ordered `modes × keep_alive_secs`.
    pub variants: Vec<FleetVariantReport>,
}

impl From<&VariantReport> for FleetVariantReport {
    /// The fixed-size summary of a variant: its cold-ratio CDF shrinks to
    /// deciles; every other field carries over.
    fn from(v: &VariantReport) -> Self {
        let ratios: Vec<f64> = v.cold_ratio_cdf.iter().map(|&(r, _)| r).collect();
        FleetVariantReport {
            mode: v.mode,
            keep_alive_secs: v.keep_alive_secs,
            invocations: v.invocations,
            cold_starts: v.cold_starts,
            warm_starts: v.warm_starts,
            queued_requests: v.queued_requests,
            invocation_cost: v.invocation_cost,
            provisioned_cost: v.provisioned_cost,
            snapstart_cost: v.snapstart_cost,
            snapstart_share: v.snapstart_share,
            e2e_p50_secs: v.e2e_p50_secs,
            e2e_p95_secs: v.e2e_p95_secs,
            e2e_p99_secs: v.e2e_p99_secs,
            cold_ratio_deciles: std::array::from_fn(|d| percentile(&ratios, (d + 1) as f64 * 10.0)),
            provider_costs: v.provider_costs.clone(),
        }
    }
}

/// Stream-replay the synthetic fleet described by `config` under every
/// (mode × keep-alive) variant of `options`, fanning function indices out
/// over `options.jobs` workers. No arrival vector is ever materialized;
/// memory stays bounded by fleet size, not invocation count. The report is
/// byte-identical whatever the worker count.
///
/// # Errors
///
/// [`TraceError::InvalidWindow`] / [`TraceError::InvalidDiurnal`] if
/// `config` is degenerate.
pub fn replay_fleet(
    platform: &Platform,
    config: &TraceConfig,
    options: &ReplayOptions,
) -> Result<FleetReport, TraceError> {
    config.validate()?;
    let pools = variant_pools(options, config.window_secs);
    let app =
        |synth: &SyntheticFunction| app_for(&synth.name, synth.duration_ms, synth.mem_mb, options);
    // Each worker counts E2E samples into its own histograms.
    let (per_function, worker_hists) = fan_out(
        config.functions,
        options.jobs,
        || vec![vec![0u64; HIST_BINS]; pools.len()],
        |id, hists| {
            let synth = synthesize_function(config, id);
            replay_variants(
                platform,
                &app(&synth),
                &pools,
                || synth.arrivals(),
                hists,
                |hist: &mut Vec<u64>, secs| hist[hist_bin(secs)] += 1,
            )
        },
    );
    let mut workers = worker_hists.into_iter();
    let mut hists = workers.next().expect("at least one worker");
    for worker in workers {
        for (total, local) in hists.iter_mut().zip(&worker) {
            for (t, &l) in total.iter_mut().zip(local) {
                *t += l;
            }
        }
    }

    // Profiles are re-synthesized per function — three RNG draws, no
    // arrivals — to price the cold/warm split.
    let mut pricing = Pricing::new(platform, &pools, config.window_secs);
    for (id, stats) in per_function.iter().enumerate() {
        pricing.add(&app(&synthesize_function(config, id)), stats);
    }
    let variants: Vec<FleetVariantReport> = pricing
        .finish()
        .into_iter()
        .zip(&hists)
        .map(|(mut report, hist)| {
            // Absent percentiles (zero arrivals) render as an explicit 0.0
            // zero-stat slot, never as NaN from an empty histogram.
            report.e2e_p50_secs = hist_percentile(hist, 50.0).unwrap_or(0.0);
            report.e2e_p95_secs = hist_percentile(hist, 95.0).unwrap_or(0.0);
            report.e2e_p99_secs = hist_percentile(hist, 99.0).unwrap_or(0.0);
            FleetVariantReport::from(&report)
        })
        .collect();
    let invocations = variants.first().map_or(0, |v| v.invocations);
    Ok(FleetReport {
        window_secs: config.window_secs,
        functions: config.functions,
        invocations,
        variants,
    })
}

/// Render the deterministic metrics block of a fleet replay as a JSON
/// string — shared by the `experiments -- replay` fleet-scaling sweep and
/// the determinism tests (byte-identity across worker counts).
pub fn render_fleet_metrics_json(report: &FleetReport) -> String {
    render_metrics(
        report.window_secs,
        report.functions,
        report.invocations,
        &report.variants,
    )
}

#[cfg(test)]
mod tests {
    use super::super::replay::{replay_trace, ReplayOptions};
    use super::super::synthetic::generate_trace;
    use super::*;

    fn small_config() -> TraceConfig {
        TraceConfig {
            functions: 24,
            window_secs: 4.0 * 3600.0,
            seed: 99,
            diurnal: None,
        }
    }

    #[test]
    fn fleet_counts_and_costs_match_materialized_replay_exactly() {
        let config = small_config();
        let platform = Platform::default();
        let options = ReplayOptions::default();
        let fleet = replay_fleet(&platform, &config, &options).expect("valid config");
        let replay = replay_trace(&platform, &generate_trace(&config), &options);
        assert_eq!(fleet.functions, replay.functions.len());
        assert_eq!(fleet.variants.len(), replay.variants.len());
        for (fv, rv) in fleet.variants.iter().zip(&replay.variants) {
            assert_eq!(fv.mode, rv.mode);
            assert_eq!(fv.keep_alive_secs, rv.keep_alive_secs);
            assert_eq!(fv.invocations, rv.invocations);
            assert_eq!(fv.cold_starts, rv.cold_starts);
            assert_eq!(fv.warm_starts, rv.warm_starts);
            assert_eq!(fv.queued_requests, rv.queued_requests);
            // Same stats summed in the same (function) order: bit-identical.
            assert_eq!(fv.invocation_cost, rv.invocation_cost);
            assert_eq!(fv.provisioned_cost, rv.provisioned_cost);
            assert_eq!(fv.snapstart_cost, rv.snapstart_cost);
            assert_eq!(fv.provider_costs, rv.provider_costs);
            // Histogram percentiles are estimates: within one log-bin
            // (≈ 4%) of the exact order statistic.
            for (est, exact) in [
                (fv.e2e_p50_secs, rv.e2e_p50_secs),
                (fv.e2e_p95_secs, rv.e2e_p95_secs),
                (fv.e2e_p99_secs, rv.e2e_p99_secs),
            ] {
                assert!(
                    est / exact > 0.95 && est / exact < 1.05,
                    "histogram percentile {est} too far from exact {exact}"
                );
            }
        }
    }

    #[test]
    fn fleet_replay_is_deterministic_across_jobs() {
        let config = small_config();
        let platform = Platform::default();
        let base = ReplayOptions::default();
        let renders: Vec<String> = [1usize, 2, 8]
            .into_iter()
            .map(|jobs| {
                let options = ReplayOptions {
                    jobs,
                    ..base.clone()
                };
                render_fleet_metrics_json(
                    &replay_fleet(&platform, &config, &options).expect("valid config"),
                )
            })
            .collect();
        assert_eq!(renders[0], renders[1], "jobs=1 vs jobs=2");
        assert_eq!(renders[0], renders[2], "jobs=1 vs jobs=8");
    }

    #[test]
    fn degenerate_config_is_a_typed_error() {
        let config = TraceConfig {
            window_secs: 0.0,
            ..small_config()
        };
        assert!(replay_fleet(&Platform::default(), &config, &ReplayOptions::default()).is_err());
    }

    #[test]
    fn empty_fleet_replays_to_zeroes() {
        let config = TraceConfig {
            functions: 0,
            ..small_config()
        };
        let report =
            replay_fleet(&Platform::default(), &config, &ReplayOptions::default()).expect("valid");
        assert_eq!(report.functions, 0);
        assert_eq!(report.invocations, 0);
        for v in &report.variants {
            assert_eq!(v.invocations, 0);
            assert_eq!(v.total_cost(), 0.0);
        }
    }

    #[test]
    fn histogram_percentiles_are_monotone() {
        let mut hist = vec![0u64; HIST_BINS];
        hist[100] = 50;
        hist[200] = 40;
        hist[300] = 10;
        let p50 = hist_percentile(&hist, 50.0).expect("non-empty histogram");
        let p95 = hist_percentile(&hist, 95.0).expect("non-empty histogram");
        let p99 = hist_percentile(&hist, 99.0).expect("non-empty histogram");
        assert!(p50 <= p95 && p95 <= p99);
        assert_eq!(hist_percentile(&[0u64; HIST_BINS], 50.0), None);
    }

    #[test]
    fn zero_arrival_fleet_reports_zero_stat_slots() {
        // A window short enough that every synthetic function's first
        // arrival falls outside it: the empty histograms must surface as
        // explicit zero slots, and the render must carry no NaN.
        let config = TraceConfig {
            functions: 3,
            window_secs: 1e-6,
            seed: 5,
            diurnal: None,
        };
        let report =
            replay_fleet(&Platform::default(), &config, &ReplayOptions::default()).expect("valid");
        assert_eq!(report.invocations, 0);
        for v in &report.variants {
            assert_eq!(v.invocations, 0);
            assert_eq!(v.cold_ratio(), 0.0);
            assert_eq!(
                (v.e2e_p50_secs, v.e2e_p95_secs, v.e2e_p99_secs),
                (0.0, 0.0, 0.0)
            );
            assert_eq!(v.cold_ratio_deciles, [0.0; 10]);
        }
        let json = render_fleet_metrics_json(&report);
        assert!(!json.contains("NaN"), "{json}");
    }
}
