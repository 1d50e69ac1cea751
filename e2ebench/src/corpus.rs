//! Helpers shared by the trim workloads: fresh registries, held-out
//! requests, deterministic fingerprints and trim-quality ratios.

use lambda_sim::{AppProfile, Platform, StartMode};
use pylite::{Engine, Registry};
use trim_apps::BenchApp;
use trim_core::{run_app_opts, Execution, OracleSpec, TestCase};
use trim_rng::Rng;

/// A registry holding `app`'s module sources and nothing else: a new
/// registry family, so no parse slot, compiled code or init snapshot of an
/// earlier trim is shared with it.
pub fn fresh_registry(app: &BenchApp) -> Registry {
    let mut registry = Registry::new();
    for name in app.registry.module_names() {
        let source = app
            .registry
            .source(&name)
            .expect("listed module has source");
        registry.set_module(name.as_str(), source);
    }
    registry
}

/// 64-bit FNV-1a over every `(name, source)` pair in name order.
pub fn sources_fingerprint(registry: &Registry) -> u64 {
    let mut names = registry.module_names();
    names.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for name in names {
        let source = registry.source(&name).expect("listed module has source");
        for byte in name.bytes().chain([0]).chain(source.bytes()).chain([0]) {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// Every module's source, in name order: the byte-for-byte view of a
/// trimmed deployment.
pub fn sources(registry: &Registry) -> Vec<(String, String)> {
    let mut names = registry.module_names();
    names.sort();
    names
        .into_iter()
        .map(|name| {
            let source = registry.source(&name).expect("listed module has source");
            let source = source.to_owned();
            (name, source)
        })
        .collect()
}

/// The requests the oracle set does not contain: both branches of the
/// bounded dynamic-access path and the rare getattr path (Table 4).
pub fn held_out_cases(app: &BenchApp) -> [TestCase; 3] {
    [app.probe_case(false), app.probe_case(true), app.rare_case()]
}

/// One request's answer: the handler's result, or the error it raised.
pub type Answer = Result<String, String>;

/// Answer each held-out request with a separate run of the deployment.
/// Init snapshots stay off so these checks never touch the snapshot
/// counters the traced run reports.
pub fn answers(registry: &Registry, app_source: &str, app: &BenchApp) -> Vec<Answer> {
    held_out_cases(app)
        .into_iter()
        .map(|case| {
            let spec = OracleSpec {
                handler: app.spec.handler.clone(),
                cases: vec![case],
            };
            run_app_opts(registry, app_source, &spec, Engine::default(), false)
                .map(|exec| exec.results.join(","))
                .map_err(|e| e.to_string())
        })
        .collect()
}

/// Held-out requests a trimmed deployment does not answer the way the
/// original does: each would reach the fallback path (§5.4).
pub fn fallbacks(trimmed: &[Answer], original: &[Answer]) -> usize {
    trimmed
        .iter()
        .zip(original)
        .filter(|(t, o)| t.is_err() || t != o)
        .count()
}

/// Before/after ratios of one trim: init time, memory and the cost of one
/// cold invocation on the default platform. Each is > 1 when trimming
/// helped.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QualityRatios {
    pub init: f64,
    pub mem: f64,
    pub cold_cost: f64,
}

impl QualityRatios {
    pub fn of(app: &BenchApp, before: &Execution, after: &Execution) -> Self {
        let platform = Platform::default();
        let cost = |e: &Execution| {
            let profile = AppProfile::new(
                app.name.as_str(),
                app.image_mb,
                e.init_secs,
                e.exec_secs,
                e.mem_mb,
            );
            platform.cold_invocation(&profile, StartMode::Standard).cost
        };
        QualityRatios {
            init: before.init_secs / after.init_secs,
            mem: before.mem_mb / after.mem_mb,
            cold_cost: cost(before) / cost(after),
        }
    }
}

/// Seeded Fisher–Yates permutation of `0..n`, one per `(seed, stream)`.
pub fn shuffled(seed: u64, stream: u64, n: usize) -> Vec<usize> {
    let mut rng = Rng::seed_from_u64(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        order.swap(i, rng.usize_inclusive(0, i));
    }
    order
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shuffle_is_a_seeded_permutation() {
        let a = shuffled(7, 1, 21);
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..21).collect::<Vec<_>>());
        assert_eq!(a, shuffled(7, 1, 21));
        assert_ne!(a, shuffled(7, 2, 21));
        assert_ne!(a, shuffled(8, 1, 21));
    }

    #[test]
    fn fingerprint_tracks_sources() {
        let mut a = Registry::new();
        a.set_module("m", "x = 1\n");
        a.set_module("n", "y = 2\n");
        let mut b = Registry::new();
        b.set_module("n", "y = 2\n");
        b.set_module("m", "x = 1\n");
        assert_eq!(sources_fingerprint(&a), sources_fingerprint(&b));
        b.set_module("m", "x = 3\n");
        assert_ne!(sources_fingerprint(&a), sources_fingerprint(&b));
    }
}
