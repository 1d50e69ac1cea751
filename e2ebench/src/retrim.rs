//! `update-retrim`: chains of seeded releases, each retrimmed with
//! `retrim_with_log` from the previous release's log on the same registry
//! family.
//!
//! Set-up cold-trims every app's v1 with one shared `ProbeCache` and
//! `SummaryCache`. A release either redeploys an app unchanged or edits its
//! handler to read one or two library attributes v1 trimmed away. Each app
//! alternates between the two kinds from a seeded phase, so one pass (two
//! releases) retrims every app once after an edit and once unchanged.

use crate::corpus::{answers, fallbacks, shuffled, sources_fingerprint, Answer, QualityRatios};
use crate::run::{ms, peak_rss_mb, setup, Outcome, Passes};
use crate::stats::geomean;
use pylite::SnapshotStats;
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::{Duration, Instant};
use trim_analysis::summary::SummaryCache;
use trim_apps::BenchApp;
use trim_core::{
    retrim_with_log, trim_app, DebloatOptions, IncrementalReport, ProbeCache, TrimLog,
};
use trim_rng::Rng;

const SETUP_REPS: usize = 2;
/// Three timed passes retrim each of the 21 apps six times: 126 samples,
/// tail p90. Peak memory is read when they are done.
const MIN_PASSES: usize = 3;
const RELEASES_PER_PASS: usize = 2;
/// The handler line edits are inserted after.
const EDIT_ANCHOR: &str = "    n = event.get(\"n\", 1)\n";

/// One app's deployment state along its release chain.
struct Chain {
    /// The log the next retrim starts from.
    log: TrimLog,
    /// The app's main library and the attributes v1 trimmed from it that
    /// neither held-out path reads: what an edit may start reading.
    lib: String,
    extra: Vec<String>,
    /// v1's fingerprint and answers, for the checks.
    v1_fingerprint: u64,
    v1_answers: Vec<Answer>,
}

struct Input {
    apps: Vec<BenchApp>,
    chains: Vec<Chain>,
    options: DebloatOptions,
    probe_cache: Arc<ProbeCache>,
    summaries: Arc<SummaryCache>,
}

fn build(out: &mut Outcome) -> Input {
    let apps = trim_apps::corpus();
    let probe_cache = ProbeCache::shared();
    let summaries = SummaryCache::shared();
    let options = DebloatOptions {
        probe_cache: Some(probe_cache.clone()),
        summary_cache: Some(summaries.clone()),
        ..DebloatOptions::default()
    };
    let chains = apps
        .iter()
        .map(|app| {
            let (lib, rare) = &app.rare;
            let v1_answers = answers(&app.registry, &app.app_source, app);
            out.check(v1_answers.iter().all(Result::is_ok), || {
                format!("{}: original app fails a held-out request", app.name)
            });
            match trim_app(&app.registry, &app.app_source, &app.spec, &options) {
                Ok(v1) => {
                    out.check(v1.after.behavior_eq(&v1.before), || {
                        format!("{}: v1 trim is not oracle-equivalent", app.name)
                    });
                    let extra = v1
                        .modules
                        .iter()
                        .filter(|m| &m.module == lib)
                        .flat_map(|m| m.removed.iter())
                        .filter(|a| *a != rare && !app.probe.1.contains(a))
                        .cloned()
                        .collect();
                    Chain {
                        log: TrimLog::from_report(&v1),
                        lib: lib.clone(),
                        extra,
                        v1_fingerprint: sources_fingerprint(&v1.trimmed),
                        v1_answers,
                    }
                }
                Err(e) => {
                    out.check(false, || format!("{}: v1 trim failed: {e}", app.name));
                    Chain {
                        log: TrimLog::default(),
                        lib: lib.clone(),
                        extra: Vec::new(),
                        v1_fingerprint: 0,
                        v1_answers,
                    }
                }
            }
        })
        .collect();
    Input {
        apps,
        chains,
        options,
        probe_cache,
        summaries,
    }
}

/// The handler source of release `release` of app `i`, and whether it is
/// an edit. Edits are drawn afresh from v1 for every release, so a release's
/// cost does not depend on how many releases came before it.
fn release_source(
    seed: u64,
    release: usize,
    i: usize,
    app: &BenchApp,
    chain: &Chain,
) -> (String, bool) {
    let phase = Rng::seed_from_u64(seed ^ (i as u64).wrapping_mul(0xA24B_AED4_963E_E407)).bool();
    let edited = (release + usize::from(phase)).is_multiple_of(2) && !chain.extra.is_empty();
    if !edited {
        return (app.app_source.clone(), false);
    }
    let mut rng = Rng::seed_from_u64(
        seed ^ (release as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
            ^ (i as u64).wrapping_mul(0xD6E8_FEB8_6659_FD93),
    );
    let reads = rng.usize_inclusive(1, 2.min(chain.extra.len()));
    let mut lines = String::new();
    let mut picked: Vec<&String> = Vec::new();
    while picked.len() < reads {
        let attr = &chain.extra[rng.usize_inclusive(0, chain.extra.len() - 1)];
        if !picked.contains(&attr) {
            let _ = writeln!(
                lines,
                "    _r{release}_{} = {}.{attr}",
                picked.len(),
                chain.lib
            );
            picked.push(attr);
        }
    }
    let source = app
        .app_source
        .replacen(EDIT_ANCHOR, &format!("{EDIT_ANCHOR}{lines}"), 1);
    (source, true)
}

/// Totals over the timed retrims.
#[derive(Default)]
struct Totals {
    retrims: usize,
    fallbacks: [usize; 2],
    requests: [usize; 2],
    /// Retrim times in ms, by release kind (unchanged, edited).
    op_ms: [Vec<f64>; 2],
    ratios: Vec<QualityRatios>,
    seeded: usize,
    cold: usize,
    probes: u64,
    dd_probes: u64,
    dd_iterations: u64,
    dd_cache_hits: u64,
    slice_probes: u64,
    stmts_removed: usize,
}

impl Totals {
    fn add(&mut self, report: &IncrementalReport, edited: bool, fallbacks: usize, took: Duration) {
        self.retrims += 1;
        self.op_ms[usize::from(edited)].push(ms(took));
        self.fallbacks[usize::from(edited)] += fallbacks;
        self.requests[usize::from(edited)] += 3;
        self.seeded += report.seeded_modules;
        self.cold += report.cold_modules;
        self.probes += report.oracle_invocations;
        for m in &report.modules {
            self.dd_probes += m.dd_stats.oracle_invocations;
            self.dd_iterations += m.dd_stats.iterations;
            self.dd_cache_hits += m.dd_stats.cache_hits;
        }
        self.slice_probes += report
            .slices
            .iter()
            .map(|s| s.oracle_invocations)
            .sum::<u64>();
        self.stmts_removed += report
            .slices
            .iter()
            .map(|s| s.stmts_removed())
            .sum::<usize>();
    }
}

/// Counters of the shared caches and every app's snapshot store.
struct CacheCounters {
    probe_hits: u64,
    probe_misses: u64,
    summary_hits: u64,
    summary_misses: u64,
    summary_incremental: u64,
    snapshots: SnapshotStats,
}

impl CacheCounters {
    fn read(input: &Input) -> Self {
        let mut snapshots = SnapshotStats::default();
        for app in &input.apps {
            let s = app.registry.snapshot_store().stats();
            snapshots.hits += s.hits;
            snapshots.misses += s.misses;
            snapshots.captures += s.captures;
            snapshots.poisons += s.poisons;
        }
        CacheCounters {
            probe_hits: input.probe_cache.hits(),
            probe_misses: input.probe_cache.misses(),
            summary_hits: input.summaries.hits(),
            summary_misses: input.summaries.misses(),
            summary_incremental: input.summaries.incremental_runs(),
            snapshots,
        }
    }
}

pub fn run(seed: u64, seconds: u64, trace: bool) -> Outcome {
    let mut out = Outcome::default();
    let mut v1_fingerprints: Option<Vec<u64>> = None;
    let (mut input, setup_s) = setup(SETUP_REPS, || {
        let input = build(&mut out);
        let fps: Vec<u64> = input.chains.iter().map(|c| c.v1_fingerprint).collect();
        let reference = v1_fingerprints.get_or_insert_with(|| fps.clone());
        let same = *reference == fps;
        out.check(same, || "v1 trims differ between set-ups".to_owned());
        input
    });
    out.set("setup_s", setup_s);
    let unedited: Vec<&str> = input
        .apps
        .iter()
        .zip(&input.chains)
        .filter(|(_, c)| c.extra.is_empty())
        .map(|(a, _)| a.name.as_str())
        .collect();
    if !unedited.is_empty() {
        out.note(format!(
            "v1 trimmed nothing an edit could read back; always redeployed unchanged: {}",
            unedited.join(", ")
        ));
    }

    // The first pass warms the chain: it starts from v1's logs and fills
    // the shared caches, a cost paid once per chain, not per release. It
    // is checked like every other pass but not timed.
    let mut warm_up = Totals::default();
    run_pass(&mut input, seed, 0, &mut warm_up, &mut out);
    out.note(format!(
        "warm-up pass: {}/{} held-out requests fall back after unchanged redeploys from the v1 log",
        warm_up.fallbacks[0], warm_up.requests[0]
    ));

    let before = CacheCounters::read(&input);
    let mut totals = Totals::default();
    let mut pass_secs = Vec::new();
    let mut op_ms = Vec::new();
    let mut passes = Passes::new(seconds, MIN_PASSES);
    while let Some(pass) = passes.next_pass() {
        let times = run_pass(&mut input, seed, pass + 1, &mut totals, &mut out);
        op_ms.push(times.iter().copied().map(ms).collect());
        pass_secs.push(times.iter().sum::<Duration>().as_secs_f64());
        if pass + 1 == MIN_PASSES {
            out.set("peak_rss_mb", peak_rss_mb());
        }
    }
    let retrim_time: f64 = pass_secs.iter().sum();
    let after = CacheCounters::read(&input);

    out.set_passes(&pass_secs);
    out.set_ops(&op_ms, MIN_PASSES * RELEASES_PER_PASS * input.apps.len());
    report_quality(&totals, &mut out);
    if trace {
        report_layers(
            &totals,
            &before,
            &after,
            retrim_time,
            pass_secs.len(),
            &mut out,
        );
    }
    out
}

/// Retrim both releases of `pass` for every app, in a seeded order per
/// release; returns each retrim's wall time.
fn run_pass(
    input: &mut Input,
    seed: u64,
    pass: usize,
    totals: &mut Totals,
    out: &mut Outcome,
) -> Vec<Duration> {
    let mut times = Vec::new();
    for step in 0..RELEASES_PER_PASS {
        let release = pass * RELEASES_PER_PASS + step;
        for i in shuffled(seed, release as u64, input.apps.len()) {
            times.push(retrim_once(input, seed, release, i, totals, out));
        }
    }
    times
}

/// Retrim release `release` of app `i` and check it; returns its wall time.
fn retrim_once(
    input: &mut Input,
    seed: u64,
    release: usize,
    i: usize,
    totals: &mut Totals,
    out: &mut Outcome,
) -> Duration {
    let app = &input.apps[i];
    let chain = &input.chains[i];
    let (source, edited) = release_source(seed, release, i, app, chain);
    let t = Instant::now();
    let result = retrim_with_log(
        &app.registry,
        &source,
        &app.spec,
        &chain.log,
        &input.options,
    );
    let took = t.elapsed();
    let report = match result {
        Ok(report) => report,
        Err(e) => {
            out.check(false, || {
                format!("{} release {release}: retrim failed: {e}", app.name)
            });
            return took;
        }
    };
    let original = if edited {
        answers(&app.registry, &source, app)
    } else {
        chain.v1_answers.clone()
    };
    let trimmed = answers(&report.trimmed, &source, app);
    let equivalent = report.after.behavior_eq(&report.before);
    let answered = original.iter().all(Result::is_ok);
    out.check(equivalent && answered, || {
        format!(
            "{} release {release}: oracle-equivalent {equivalent}, original answers held-out requests {answered}",
            app.name
        )
    });
    totals.add(&report, edited, fallbacks(&trimmed, &original), took);
    totals
        .ratios
        .push(QualityRatios::of(app, &report.before, &report.after));
    input.chains[i].log = report.log();
    took
}

fn report_quality(totals: &Totals, out: &mut Outcome) {
    if totals.ratios.is_empty() {
        return;
    }
    let gmean =
        |f: fn(&QualityRatios) -> f64| geomean(&totals.ratios.iter().map(f).collect::<Vec<_>>());
    let fallback: usize = totals.fallbacks.iter().sum();
    let requests: usize = totals.requests.iter().sum();
    out.set("quality.init_speedup_gmean", gmean(|r| r.init));
    out.set("quality.mem_ratio_gmean", gmean(|r| r.mem));
    out.set("quality.cold_cost_ratio_gmean", gmean(|r| r.cold_cost));
    out.set("quality.fallback_share", fallback as f64 / requests as f64);
    out.note(format!(
        "fallback: {}/{} held-out requests after unchanged redeploys, {}/{} after edits ({} retrims)",
        totals.fallbacks[0], totals.requests[0], totals.fallbacks[1], totals.requests[1], totals.retrims
    ));
    let kind = |k: usize| {
        let t = &totals.op_ms[k];
        if t.is_empty() {
            return "none".to_owned();
        }
        let q = |p| crate::stats::percentile(t, p);
        format!("p25 {:.1}, p50 {:.1}, p75 {:.1}", q(25.0), q(50.0), q(75.0))
    };
    out.note(format!(
        "retrim ms: unchanged {}; edited {}",
        kind(0),
        kind(1)
    ));
}

/// Per-layer values per pass: retrim wall time, and the retrim reports'
/// and shared caches' counters over the timed part of the run.
fn report_layers(
    totals: &Totals,
    before: &CacheCounters,
    after: &CacheCounters,
    retrim_secs: f64,
    passes: usize,
    out: &mut Outcome,
) {
    let per_pass = |x: f64| x / passes as f64;
    let probe_hits = (after.probe_hits - before.probe_hits) as f64;
    let probe_misses = (after.probe_misses - before.probe_misses) as f64;
    let snap_hits = (after.snapshots.hits - before.snapshots.hits) as f64;
    let snap_misses = (after.snapshots.misses - before.snapshots.misses) as f64;
    let values = [
        ("retrim.ms", per_pass(retrim_secs * 1e3)),
        ("retrim.seeded_modules", per_pass(totals.seeded as f64)),
        ("retrim.cold_modules", per_pass(totals.cold as f64)),
        ("retrim.probes", per_pass(totals.probes as f64)),
        ("dd.probes", per_pass(totals.dd_probes as f64)),
        ("dd.iterations", per_pass(totals.dd_iterations as f64)),
        ("dd.cache_hits", per_pass(totals.dd_cache_hits as f64)),
        ("slicer.probes", per_pass(totals.slice_probes as f64)),
        (
            "slicer.stmts_removed",
            per_pass(totals.stmts_removed as f64),
        ),
        ("probe_cache.hits", per_pass(probe_hits)),
        ("probe_cache.misses", per_pass(probe_misses)),
        (
            "probe_cache.hit_ratio",
            probe_hits / (probe_hits + probe_misses).max(1.0),
        ),
        (
            "analysis.summary_hits",
            per_pass((after.summary_hits - before.summary_hits) as f64),
        ),
        (
            "analysis.summary_misses",
            per_pass((after.summary_misses - before.summary_misses) as f64),
        ),
        (
            "analysis.incremental_runs",
            per_pass((after.summary_incremental - before.summary_incremental) as f64),
        ),
        ("snapshot.hits", per_pass(snap_hits)),
        ("snapshot.misses", per_pass(snap_misses)),
        (
            "snapshot.captures",
            per_pass((after.snapshots.captures - before.snapshots.captures) as f64),
        ),
        (
            "snapshot.poisons",
            per_pass((after.snapshots.poisons - before.snapshots.poisons) as f64),
        ),
        (
            "snapshot.hit_ratio",
            snap_hits / (snap_hits + snap_misses).max(1.0),
        ),
    ];
    for (name, value) in values {
        out.set(name, value);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn releases_alternate_and_edits_read_extra_attributes() {
        let app = trim_apps::app("markdown").expect("corpus app");
        let chain = Chain {
            log: TrimLog::default(),
            lib: "markdown".into(),
            extra: vec!["md_7".into(), "md_9".into(), "md_12".into()],
            v1_fingerprint: 0,
            v1_answers: Vec::new(),
        };
        let kinds: Vec<bool> = (0..6)
            .map(|r| release_source(3, r, 0, &app, &chain).1)
            .collect();
        assert_eq!(kinds.iter().filter(|e| **e).count(), 3);
        assert!(kinds.windows(2).all(|w| w[0] != w[1]), "{kinds:?}");
        for r in 0..6 {
            let (source, edited) = release_source(3, r, 0, &app, &chain);
            assert_eq!(source != app.app_source, edited);
            if edited {
                let reads = source
                    .lines()
                    .filter(|l| l.contains(&format!("_r{r}_")))
                    .count();
                assert!((1..=2).contains(&reads), "{source}");
                assert_eq!(source, release_source(3, r, 0, &app, &chain).0);
            }
        }
    }
}
