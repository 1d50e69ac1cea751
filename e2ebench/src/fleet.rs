//! `fleet-replay`: stream-replay seeded synthetic fleets with
//! `replay_fleet` (default `ReplayOptions`: one worker, standard and
//! restore starts × two keep-alives). No trimmer code runs; the pool engine
//! and trace synthesis do all the work.
//!
//! A pass replays 21 seeded tenant fleets, one `replay_fleet` call per
//! tenant. Set-up sizes each tenant: it takes functions in id order until
//! their arrivals reach [`TENANT_ARRIVALS`], so every tenant, and every
//! pass, carries about the same work whatever the seed (rates are heavy
//! tailed, so a fixed function count would let the work vary with the
//! seed). A small fleet is also generated materialized and
//! replayed with `replay_trace`, as the cross-check of streaming
//! replay; it runs after the timed passes and after peak memory is read.

use crate::corpus::shuffled;
use crate::run::{ms, peak_rss_mb, setup, Outcome, Passes};
use crate::spans::Tracer;
use crate::stats::median;
use lambda_sim::{
    generate_trace, replay_fleet, replay_trace, simulate_pool_ext_stream_traced,
    synthesize_function, AppProfile, FleetReport, Platform, PoolOptions, ReplayOptions,
    TraceConfig,
};
use std::time::{Duration, Instant};

const SETUP_REPS: usize = 3;
const TENANTS: usize = 21;
/// Arrivals per tenant and day: 21 tenants × 4 pool variants make about
/// 14 M pool invocations per pass.
const TENANT_ARRIVALS: usize = 170_000;
const CHECK_FUNCTIONS: usize = 40;
/// Five passes of 21 tenants guarantee 105 samples: the tail is p90. Peak
/// memory is read when they are done.
const MIN_PASSES: usize = 5;

struct Input {
    tenants: Vec<TraceConfig>,
    check: TraceConfig,
}

fn config(seed: u64, stream: u64, functions: usize) -> TraceConfig {
    TraceConfig {
        functions,
        seed: seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15),
        ..TraceConfig::default()
    }
}

/// Tenant `t`'s fleet: the shortest prefix of its seeded functions whose
/// arrivals reach [`TENANT_ARRIVALS`]. Functions are synthesized
/// independently per id, so a prefix is itself a valid fleet.
fn tenant(seed: u64, t: usize) -> TraceConfig {
    let mut config = config(seed, t as u64 + 1, 0);
    let mut arrivals = 0;
    while arrivals < TENANT_ARRIVALS {
        arrivals += synthesize_function(&config, config.functions)
            .arrivals()
            .count();
        config.functions += 1;
    }
    config
}

fn build(seed: u64) -> Input {
    let tenants = (0..TENANTS).map(|t| tenant(seed, t)).collect();
    let check = config(seed, 0, CHECK_FUNCTIONS);
    Input { tenants, check }
}

/// Pool invocations and cold starts summed over every variant.
fn pool_totals(report: &FleetReport) -> (u64, u64) {
    report.variants.iter().fold((0, 0), |(inv, cold), v| {
        (inv + v.invocations, cold + v.cold_starts)
    })
}

pub fn run(seed: u64, seconds: u64, trace: bool) -> Outcome {
    let (input, setup_s) = setup(SETUP_REPS, || build(seed));
    let platform = Platform::default();
    let options = ReplayOptions::default();
    let mut out = Outcome::default();
    out.set("setup_s", setup_s);

    let mut reference: Vec<Option<FleetReport>> = vec![None; TENANTS];
    let mut pass_secs = Vec::new();
    let mut minv_s = Vec::new();
    let mut op_ms = Vec::new();
    let mut traced: Vec<[f64; 4]> = Vec::new();
    let mut last_untraced = 0.0;
    let mut passes = Passes::new(seconds, MIN_PASSES);
    while let Some(pass) = passes.next_pass() {
        let order = shuffled(seed, pass as u64, TENANTS);
        if trace && pass % 2 == 1 {
            let split = split_pass(&input, &order, &platform, &options, &reference, &mut out);
            traced.push([
                split.synth_ms,
                split.pool_ms,
                split.secs / last_untraced - 1.0,
                (split.synth_ms + split.pool_ms) / 1e3 / last_untraced,
            ]);
            continue;
        }
        let mut pass_time = Duration::ZERO;
        let mut times = Vec::with_capacity(TENANTS);
        let mut invocations = 0;
        for t in order {
            let start = Instant::now();
            let result = replay_fleet(&platform, &input.tenants[t], &options);
            let took = start.elapsed();
            pass_time += took;
            times.push(ms(took));
            let report = match result {
                Ok(report) => report,
                Err(e) => {
                    out.check(false, || format!("tenant {t}: replay failed: {e}"));
                    continue;
                }
            };
            let first = reference[t].get_or_insert_with(|| report.clone());
            let same = *first == report;
            out.check(same, || {
                format!("tenant {t}: replay differs between passes")
            });
            invocations += pool_totals(&report).0;
        }
        op_ms.push(times);
        last_untraced = pass_time.as_secs_f64();
        pass_secs.push(last_untraced);
        minv_s.push(invocations as f64 / last_untraced / 1e6);
        if pass + 1 == MIN_PASSES {
            out.set("peak_rss_mb", peak_rss_mb());
        }
    }

    let replay_ms = cross_check(&input, &platform, &options, &mut out);
    let pass_totals = reference.iter().flatten().map(pool_totals);
    let (invocations, cold_starts) = pass_totals.fold((0, 0), |a, b| (a.0 + b.0, a.1 + b.1));
    let functions: usize = input.tenants.iter().map(|c| c.functions).sum();
    out.note(format!(
        "fleet: {TENANTS} tenants, {functions} functions, {invocations} pool invocations per pass"
    ));
    out.set_passes(&pass_secs);
    out.set_ops(&op_ms, MIN_PASSES * TENANTS / if trace { 2 } else { 1 });
    out.set("replay.minv_s", median(&minv_s));
    if trace {
        out.set("replay.trace_ms", replay_ms);
        out.set("pool.invocations", invocations as f64);
        out.set("pool.cold_starts", cold_starts as f64);
        let names = [
            "trace.synth_ms",
            "pool.sim_ms",
            "trace.overhead_share",
            "trace.coverage_share",
        ];
        for (k, name) in names.into_iter().enumerate() {
            let samples: Vec<f64> = traced.iter().map(|v| v[k]).collect();
            out.set(name, median(&samples));
        }
    }
    out
}

/// Streaming and materialized replay of the check fleet must agree on
/// invocations, cold starts and costs. Returns the materialized replay's
/// wall time in milliseconds.
fn cross_check(
    input: &Input,
    platform: &Platform,
    options: &ReplayOptions,
    out: &mut Outcome,
) -> f64 {
    let check_trace = generate_trace(&input.check);
    let t = Instant::now();
    let materialized = replay_trace(platform, &check_trace, options);
    let replay_ms = ms(t.elapsed());
    let streamed = match replay_fleet(platform, &input.check, options) {
        Ok(report) => report,
        Err(e) => {
            out.check(false, || format!("check fleet: replay failed: {e}"));
            return replay_ms;
        }
    };
    let agree = streamed.variants.len() == materialized.variants.len()
        && streamed
            .variants
            .iter()
            .zip(&materialized.variants)
            .all(|(s, m)| {
                (
                    s.invocations,
                    s.cold_starts,
                    s.warm_starts,
                    s.queued_requests,
                ) == (
                    m.invocations,
                    m.cold_starts,
                    m.warm_starts,
                    m.queued_requests,
                ) && (s.invocation_cost, s.provisioned_cost, s.snapstart_cost)
                    == (m.invocation_cost, m.provisioned_cost, m.snapstart_cost)
            });
    out.check(agree, || {
        "streaming and materialized replay disagree on the check fleet".to_owned()
    });
    replay_ms
}

/// The pool variants `replay_fleet` runs: modes × keep-alives.
fn variants(options: &ReplayOptions, window_secs: f64) -> Vec<PoolOptions> {
    let mut pools = Vec::new();
    for &mode in &options.modes {
        for &keep_alive_secs in &options.keep_alive_secs {
            pools.push(PoolOptions {
                keep_alive_secs,
                mode,
                provisioned: options.provisioned,
                max_concurrency: options.max_concurrency,
                window_secs,
            });
        }
    }
    pools
}

/// Time a traced pass spent in each layer, and in all.
struct SplitPass {
    synth_ms: f64,
    pool_ms: f64,
    secs: f64,
}

/// A traced pass that splits each tenant's replay into its two layers:
/// draining `synthesize_function(..).arrivals()` into a buffer (trace
/// synthesis) and running the pool engine over that buffer, once per
/// variant as `replay_fleet` does. The split must count the same
/// invocations and cold starts as the streamed replay.
fn split_pass(
    input: &Input,
    order: &[usize],
    platform: &Platform,
    options: &ReplayOptions,
    reference: &[Option<FleetReport>],
    out: &mut Outcome,
) -> SplitPass {
    let mut tracer = Tracer::new();
    let mut arrivals: Vec<f64> = Vec::new();
    let start = Instant::now();
    for &t in order {
        let config = &input.tenants[t];
        let pools = variants(options, config.window_secs);
        let mut per_variant = vec![(0u64, 0u64); pools.len()];
        for id in 0..config.functions {
            let synth = synthesize_function(config, id);
            let app = AppProfile::new(
                synth.name.as_str(),
                options.image_mb,
                options.init_secs,
                synth.duration_ms / 1000.0,
                synth.mem_mb,
            );
            for (pool, total) in pools.iter().zip(per_variant.iter_mut()) {
                tracer.span("trace.synth", || {
                    arrivals.clear();
                    arrivals.extend(synth.arrivals());
                });
                let stats = tracer.span("pool.sim", || {
                    simulate_pool_ext_stream_traced(
                        platform,
                        &app,
                        arrivals.iter().copied(),
                        pool,
                        |_| {},
                    )
                });
                match stats {
                    Ok(s) => *total = (total.0 + s.invocations(), total.1 + s.cold_starts),
                    Err(e) => out.check(false, || format!("tenant {t}: pool failed: {e}")),
                }
            }
        }
        let streamed = reference[t].as_ref().map(|r| {
            r.variants
                .iter()
                .map(|v| (v.invocations, v.cold_starts))
                .collect()
        });
        out.check(streamed == Some(per_variant), || {
            format!("tenant {t}: split replay disagrees with replay_fleet")
        });
    }
    SplitPass {
        synth_ms: ms(tracer.total("trace.synth")),
        pool_ms: ms(tracer.total("pool.sim")),
        secs: start.elapsed().as_secs_f64(),
    }
}
