//! Integration tests for the serverless platform simulator working against
//! real (measured) corpus applications and generated traces.

use lambda_sim::{
    generate_trace, nearest_function, simulate_pool_ext_stream_traced, AppProfile, CheckpointModel,
    ExtPoolStats, Platform, PoolOptions, SnapStartPricing, StartMode, TraceConfig,
};

/// The paper's basic keep-alive pool: no provisioned instances, no cap.
fn basic_pool(
    platform: &Platform,
    app: &AppProfile,
    arrivals: &[f64],
    keep_alive_secs: f64,
    mode: StartMode,
) -> ExtPoolStats {
    let options = PoolOptions {
        keep_alive_secs,
        mode,
        ..PoolOptions::default()
    };
    simulate_pool_ext_stream_traced(platform, app, arrivals.iter().copied(), &options, |_| {})
        .expect("sorted arrivals")
}

fn measured_profile(name: &str) -> AppProfile {
    let bench = trim_apps::app(name).expect("corpus app");
    let exec = trim_core::run_app(&bench.registry, &bench.app_source, &bench.spec).unwrap();
    AppProfile::new(
        name,
        bench.image_mb,
        exec.init_secs,
        exec.exec_secs,
        exec.mem_mb,
    )
}

#[test]
fn cold_starts_cost_more_than_warm_for_every_app() {
    let platform = Platform::default();
    for bench in trim_apps::mini_corpus() {
        let profile = measured_profile(&bench.name);
        let cold = platform.cold_invocation(&profile, StartMode::Standard);
        let warm = platform.warm_invocation(&profile);
        assert!(cold.e2e_secs() > warm.e2e_secs(), "{}", bench.name);
        assert!(cold.cost >= warm.cost, "{}", bench.name);
        assert!(cold.billed_ms >= warm.billed_ms, "{}", bench.name);
    }
}

#[test]
fn keep_alive_monotonically_reduces_cold_starts() {
    let platform = Platform::default();
    let profile = measured_profile("markdown");
    let trace = generate_trace(&TraceConfig {
        functions: 5,
        window_secs: 24.0 * 3600.0,
        seed: 99,
        diurnal: None,
    });
    let arrivals = trace
        .functions
        .iter()
        .max_by_key(|f| f.arrivals.len())
        .unwrap()
        .arrivals
        .clone();
    let mut last_cold = u64::MAX;
    for keep_alive in [30.0, 300.0, 3600.0, 24.0 * 3600.0] {
        let stats = basic_pool(
            &platform,
            &profile,
            &arrivals,
            keep_alive,
            StartMode::Standard,
        );
        assert!(
            stats.cold_starts <= last_cold,
            "longer keep-alive must not add cold starts"
        );
        assert_eq!(stats.invocations(), arrivals.len() as u64);
        last_cold = stats.cold_starts;
    }
    assert!(last_cold >= 1, "the first request is always cold");
}

#[test]
fn restore_mode_helps_slow_init_apps_only() {
    let platform = Platform::default();
    let slow = measured_profile("resnet"); // multi-second init
    let fast = measured_profile("markdown"); // tens of ms init
    let slow_std = platform.cold_invocation(&slow, StartMode::Standard);
    let slow_cr = platform.cold_invocation(&slow, StartMode::Restore);
    assert!(slow_cr.e2e_secs() < slow_std.e2e_secs());
    let fast_std = platform.cold_invocation(&fast, StartMode::Standard);
    let fast_cr = platform.cold_invocation(&fast, StartMode::Restore);
    assert!(
        fast_cr.phases.function_init_secs > fast_std.phases.function_init_secs,
        "CRIU's fixed overhead hurts sub-0.1s inits (§8.6)"
    );
}

#[test]
fn snapstart_cache_dominates_for_rarely_invoked_functions() {
    // Figure 13's core finding: for most functions, C/R support costs more
    // than the function itself.
    let platform = Platform::default();
    let pricing = SnapStartPricing::default();
    let ckpt = CheckpointModel::default();
    let profile = measured_profile("lightgbm");
    // Five invocations a day.
    let arrivals: Vec<f64> = (0..5).map(|i| i as f64 * 17_000.0).collect();
    let stats = basic_pool(&platform, &profile, &arrivals, 900.0, StartMode::Restore);
    let snapshot_mb = ckpt.snapshot_mb(profile.mem_mb);
    let snap_cost = pricing.window_cost(snapshot_mb, 24.0 * 3600.0, stats.cold_starts);
    assert!(
        snap_cost > stats.invocation_cost,
        "cache+restore (${snap_cost:.6}) should exceed invocation cost (${:.6})",
        stats.invocation_cost
    );
}

#[test]
fn l2_matching_is_scale_aware() {
    let trace = generate_trace(&TraceConfig::default());
    let small = nearest_function(&trace.functions, 64.0, 20.0).unwrap();
    let large = nearest_function(&trace.functions, 1800.0, 15_000.0).unwrap();
    assert!(small.mem_mb < large.mem_mb);
}

#[test]
fn trimmed_profile_shrinks_snapshot_and_restore() {
    let ckpt = CheckpointModel::default();
    let bench = trim_apps::app("dna-visualization").unwrap();
    let report = lambda_trim::trim_app(
        &bench.registry,
        &bench.app_source,
        &bench.spec,
        &lambda_trim::DebloatOptions::default(),
    )
    .unwrap();
    let pre = ckpt.snapshot_mb(report.before.mem_mb);
    let post = ckpt.snapshot_mb(report.after.mem_mb);
    assert!(post < pre, "trimming must shrink the checkpoint (Table 3)");
    assert!(ckpt.restore_secs(post) < ckpt.restore_secs(pre));
}

#[test]
fn pool_handles_empty_and_burst_arrivals() {
    let platform = Platform::default();
    let profile = measured_profile("igraph");
    let empty = basic_pool(&platform, &profile, &[], 900.0, StartMode::Standard);
    assert_eq!(empty.invocations(), 0);
    assert_eq!(empty.total_cost(), 0.0);
    let burst: Vec<f64> = vec![0.0; 50];
    let stats = basic_pool(&platform, &profile, &burst, 900.0, StartMode::Standard);
    assert_eq!(
        stats.cold_starts, 50,
        "simultaneous arrivals all cold-start"
    );
    // A second burst once the first has finished, inside the keep-alive:
    // all 50 instances are still live, so every request is warm.
    let mut two_bursts = burst.clone();
    two_bursts.extend(vec![500.0; 50]);
    let stats = basic_pool(&platform, &profile, &two_bursts, 900.0, StartMode::Standard);
    assert_eq!((stats.cold_starts, stats.warm_starts), (50, 50));
}
