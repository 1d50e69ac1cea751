//! The machinery both replay drivers share: [`super::replay_trace`]
//! (materialized traces, exact percentiles, per-function detail) and
//! [`super::replay_fleet`] (streamed synthetic fleets, histogram
//! percentiles) differ only in where arrivals come from and how E2E
//! samples are kept. Everything else lives here once: the per-function
//! worker fan-out, the variant pools, the per-function replay loop, the
//! pricing aggregation and the metrics renderer.
//!
//! Determinism across worker counts rests on two rules. Per-function
//! results land in per-index slots and are aggregated in function order,
//! so every f64 sum sees one fixed order; and per-worker scratch state
//! (the fleet's E2E histograms) holds only u64 counters, whose merges
//! commute.

use super::fleet::FleetVariantReport;
use super::replay::{ReplayOptions, VariantReport};
use crate::metrics::cdf;
use crate::platform::{AppProfile, Platform, StartMode};
use crate::pool::{simulate_pool_ext_stream_traced, ExtPoolStats, PoolOptions};
use crate::pricing::SnapStartPricing;
use crate::providers::{providers, Provider};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Run `work` for every function index in `0..n` on `jobs` workers (at
/// most one per function). Workers pull indices from an atomic counter
/// and each owns one scratch state built by `local`. Results come back in
/// function order whatever the worker count, together with every worker's
/// final scratch state.
pub(super) fn fan_out<T: Send, L: Send>(
    n: usize,
    jobs: usize,
    local: impl Fn() -> L + Sync,
    work: impl Fn(usize, &mut L) -> T + Sync,
) -> (Vec<T>, Vec<L>) {
    let threads = jobs.max(1).min(n.max(1));
    if threads <= 1 {
        let mut state = local();
        let results = (0..n).map(|i| work(i, &mut state)).collect();
        return (results, vec![state]);
    }
    let next = AtomicUsize::new(0);
    let slots: Mutex<Vec<Option<T>>> = Mutex::new((0..n).map(|_| None).collect());
    let states = Mutex::new(Vec::with_capacity(threads));
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| {
                let mut state = local();
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    let result = work(i, &mut state);
                    slots.lock().expect("replay slots poisoned")[i] = Some(result);
                }
                states.lock().expect("replay states poisoned").push(state);
            });
        }
    });
    let results = slots
        .into_inner()
        .expect("replay slots poisoned")
        .into_iter()
        .map(|r| r.expect("every function produced a result"))
        .collect();
    (
        results,
        states.into_inner().expect("replay states poisoned"),
    )
}

/// The pool of every (mode × keep-alive) variant, ordered
/// `modes × keep_alive_secs`.
pub(super) fn variant_pools(options: &ReplayOptions, window_secs: f64) -> Vec<PoolOptions> {
    options
        .modes
        .iter()
        .flat_map(|&mode| {
            options
                .keep_alive_secs
                .iter()
                .map(move |&keep_alive_secs| PoolOptions {
                    keep_alive_secs,
                    mode,
                    provisioned: options.provisioned,
                    max_concurrency: options.max_concurrency,
                    window_secs,
                })
        })
        .collect()
}

/// A trace function as an app: its dataset memory/duration columns plus
/// the image/init constants of `options` (the dataset has neither).
pub(super) fn app_for(
    name: &str,
    duration_ms: f64,
    mem_mb: f64,
    options: &ReplayOptions,
) -> AppProfile {
    AppProfile::new(
        name,
        options.image_mb,
        options.init_secs,
        duration_ms / 1000.0,
        mem_mb,
    )
}

/// Replay one function under every variant pool. `arrivals` restarts the
/// function's arrival stream once per variant; each invocation's E2E
/// latency (queueing included) goes to `record` with that variant's sink.
pub(super) fn replay_variants<I, S>(
    platform: &Platform,
    app: &AppProfile,
    pools: &[PoolOptions],
    arrivals: impl Fn() -> I,
    sinks: &mut [S],
    record: impl Fn(&mut S, f64),
) -> Vec<ExtPoolStats>
where
    I: Iterator<Item = f64>,
{
    pools
        .iter()
        .zip(sinks)
        .map(|(pool, sink)| {
            simulate_pool_ext_stream_traced(platform, app, arrivals(), pool, |e| {
                record(sink, e.finish - e.arrival)
            })
            .expect("trace arrivals are sorted and NaN-free")
        })
        .collect()
}

/// Per-variant totals, priced function by function in function order.
/// Pool dynamics (who is cold, who queues) are pricing-agnostic, so each
/// provider's bill follows analytically from the cold/warm split under its
/// own rounding and memory rules; provisioned and SnapStart charges use
/// AWS rates.
pub(super) struct Pricing<'a> {
    platform: &'a Platform,
    window_secs: f64,
    snapstart: SnapStartPricing,
    providers: Vec<Provider>,
    variants: Vec<VariantReport>,
    cold_ratios: Vec<Vec<f64>>,
}

impl<'a> Pricing<'a> {
    /// Empty totals for every variant pool.
    pub(super) fn new(platform: &'a Platform, pools: &[PoolOptions], window_secs: f64) -> Self {
        let providers = providers();
        let variants = pools
            .iter()
            .map(|pool| VariantReport {
                mode: pool.mode,
                keep_alive_secs: pool.keep_alive_secs,
                invocations: 0,
                cold_starts: 0,
                warm_starts: 0,
                queued_requests: 0,
                invocation_cost: 0.0,
                provisioned_cost: 0.0,
                snapstart_cost: 0.0,
                snapstart_share: 0.0,
                e2e_p50_secs: 0.0,
                e2e_p95_secs: 0.0,
                e2e_p99_secs: 0.0,
                cold_ratio_cdf: Vec::new(),
                provider_costs: providers.iter().map(|p| (p.name, 0.0)).collect(),
            })
            .collect();
        Pricing {
            platform,
            window_secs,
            snapstart: SnapStartPricing::default(),
            providers,
            variants,
            cold_ratios: vec![Vec::new(); pools.len()],
        }
    }

    /// Add one function's per-variant pool stats.
    pub(super) fn add<'s>(
        &mut self,
        app: &AppProfile,
        stats: impl IntoIterator<Item = &'s ExtPoolStats>,
    ) {
        let checkpoint = &self.platform.config.checkpoint;
        for ((report, ratios), stats) in self
            .variants
            .iter_mut()
            .zip(&mut self.cold_ratios)
            .zip(stats)
        {
            report.invocations += stats.invocations();
            report.cold_starts += stats.cold_starts;
            report.warm_starts += stats.warm_starts;
            report.queued_requests += stats.queued_requests;
            report.invocation_cost += stats.invocation_cost;
            report.provisioned_cost += stats.provisioned_cost;
            if stats.invocations() > 0 {
                ratios.push(stats.cold_starts as f64 / stats.invocations() as f64);
            }
            let cold_billable_ms = match report.mode {
                StartMode::Standard => app.cold_billable_ms(),
                StartMode::Restore => {
                    report.snapstart_cost += self.snapstart.window_cost(
                        checkpoint.snapshot_mb(app.mem_mb),
                        self.window_secs,
                        stats.cold_starts,
                    );
                    (checkpoint.cr_init_secs(app.mem_mb) + app.exec_secs) * 1000.0
                }
            };
            for (provider, total) in self.providers.iter().zip(&mut report.provider_costs) {
                total.1 += provider.pricing.cost_for_invocations(
                    app.mem_mb,
                    cold_billable_ms,
                    stats.cold_starts,
                ) + provider.pricing.cost_for_invocations(
                    app.mem_mb,
                    app.warm_billable_ms(),
                    stats.warm_starts,
                );
            }
        }
    }

    /// The finished variant reports: cold-ratio CDFs and SnapStart shares
    /// filled in; E2E percentiles are left at 0 for the driver to set.
    pub(super) fn finish(self) -> Vec<VariantReport> {
        self.variants
            .into_iter()
            .zip(self.cold_ratios)
            .map(|(mut report, ratios)| {
                report.cold_ratio_cdf = cdf(&ratios);
                let total = report.total_cost();
                report.snapstart_share = if total > 0.0 {
                    report.snapstart_cost / total
                } else {
                    0.0
                };
                report
            })
            .collect()
    }
}

/// Render a replay's deterministic metrics block as JSON. Only
/// replay-derived numbers appear here; harness-variable fields
/// (throughput, host) live outside this block.
pub(super) fn render_metrics(
    window_secs: f64,
    functions: usize,
    invocations: u64,
    variants: &[FleetVariantReport],
) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(&format!(
        "  \"window_secs\": {window_secs},\n  \"functions\": {functions},\n  \"invocations\": {invocations},\n"
    ));
    out.push_str("  \"variants\": [\n");
    for (i, v) in variants.iter().enumerate() {
        let deciles: Vec<String> = v
            .cold_ratio_deciles
            .iter()
            .map(|d| format!("{d}"))
            .collect();
        let provider_costs: Vec<String> = v
            .provider_costs
            .iter()
            .map(|(name, cost)| format!("\"{name}\": {cost}"))
            .collect();
        out.push_str(&format!(
            "    {{\"mode\": \"{}\", \"keep_alive_secs\": {}, \"invocations\": {}, \
             \"cold_starts\": {}, \"warm_starts\": {}, \"queued_requests\": {}, \
             \"cold_ratio\": {}, \"invocation_cost_usd\": {}, \"provisioned_cost_usd\": {}, \
             \"snapstart_cost_usd\": {}, \"snapstart_share\": {}, \"total_cost_usd\": {}, \
             \"e2e_p50_s\": {}, \"e2e_p95_s\": {}, \"e2e_p99_s\": {}, \
             \"cold_ratio_deciles\": [{}], \"provider_cost_usd\": {{{}}}}}{}\n",
            v.mode.name(),
            v.keep_alive_secs,
            v.invocations,
            v.cold_starts,
            v.warm_starts,
            v.queued_requests,
            v.cold_ratio(),
            v.invocation_cost,
            v.provisioned_cost,
            v.snapstart_cost,
            v.snapstart_share,
            v.total_cost(),
            v.e2e_p50_secs,
            v.e2e_p95_secs,
            v.e2e_p99_secs,
            deciles.join(", "),
            provider_costs.join(", "),
            if i + 1 < variants.len() { "," } else { "" }
        ));
    }
    out.push_str("  ]\n}");
    out
}
