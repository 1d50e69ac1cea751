//! Continuous debloating (§9 future work): re-debloat after a function
//! update or an oracle-set extension, reusing the previous run's kept sets
//! to drive the search.
//!
//! The paper: "we plan to implement a continuous debloating pipeline for
//! both function updates and inputs that are collected through our fallback
//! mechanism. This pipeline will make use of logs collected during the
//! initial debloating to drive the subsequent debloating more efficiently."
//!
//! The mechanism here: for each module, first probe the *previous* kept
//! set (intersected with the module's current attributes). If the app still
//! behaves correctly with it, ddmin only has to search inside that —
//! usually tiny — set instead of the full attribute list. If the seed fails
//! (the update needs something that was previously trimmed, or the oracle
//! grew), fall back to the full search.

use crate::attributes::module_attributes;
use crate::debloater::{DebloatOptions, ModuleReport};
use crate::oracle::{run_app_measured_opts, run_app_opts, Execution, OracleSpec};
use crate::pipeline::TrimReport;
use crate::probe_cache::{app_fingerprint, ProbeKey};
use crate::rewrite::rewrite_module;
use crate::slicer::{slice_modules, SliceReport};
use crate::TrimError;
use pylite::Registry;
use std::collections::{BTreeMap, BTreeSet};
use trim_dd::{ddmin_with, DdStats};

/// The debloating log of a previous run: per-module kept attribute sets.
/// This is the §9 "log collected during the initial debloating".
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct TrimLog {
    /// Module → attributes kept by the previous run.
    pub kept: BTreeMap<String, BTreeSet<String>>,
}

impl TrimLog {
    /// Extract the log from a completed [`TrimReport`].
    pub fn from_report(report: &TrimReport) -> TrimLog {
        TrimLog {
            kept: report
                .modules
                .iter()
                .map(|m| (m.module.clone(), m.kept.iter().cloned().collect()))
                .collect(),
        }
    }

    /// Record additional attributes that must be kept for a module (e.g.
    /// collected from fallback notifications).
    pub fn require(&mut self, module: &str, attr: &str) {
        self.kept
            .entry(module.to_owned())
            .or_default()
            .insert(attr.to_owned());
    }
}

/// Result of an incremental run, with seed-effectiveness accounting.
#[derive(Debug, Clone, PartialEq)]
pub struct IncrementalReport {
    /// The underlying trim results per module.
    pub modules: Vec<ModuleReport>,
    /// Baseline behavior of the (possibly updated) original application.
    pub before: Execution,
    /// Behavior of the trimmed application.
    pub after: Execution,
    /// The trimmed registry.
    pub trimmed: Registry,
    /// Modules where the previous kept set seeded the search successfully.
    pub seeded_modules: usize,
    /// Modules that required a full (cold) search.
    pub cold_modules: usize,
    /// Total oracle invocations (compare with a cold run to see savings).
    pub oracle_invocations: u64,
    /// Per-module selective-init slice results, matching the cold
    /// pipeline's pass. Empty when [`DebloatOptions::slice_init`] is off.
    pub slices: Vec<SliceReport>,
}

impl IncrementalReport {
    /// The updated log, to persist for the next round.
    pub fn log(&self) -> TrimLog {
        TrimLog {
            kept: self
                .modules
                .iter()
                .map(|m| (m.module.clone(), m.kept.iter().cloned().collect()))
                .collect(),
        }
    }
}

/// Re-debloat an application seeded by a previous [`TrimLog`].
///
/// The module list is taken from the log (the modules the previous run
/// chose via profiling); new modules the app imports but the log has never
/// seen are *not* debloated here — run the full pipeline when the import
/// set changes materially.
///
/// # Errors
///
/// [`TrimError::Baseline`] if the updated application fails its oracle run,
/// [`TrimError::Parse`] if a logged module no longer parses,
/// [`TrimError::NotEquivalent`] if the retrimmed application's final oracle
/// run differs from the baseline.
pub fn retrim_with_log(
    registry: &Registry,
    app_source: &str,
    spec: &OracleSpec,
    log: &TrimLog,
    options: &DebloatOptions,
) -> Result<IncrementalReport, TrimError> {
    if options.jobs == 0 {
        return Err(TrimError::Config(
            "analysis jobs must be at least 1".to_owned(),
        ));
    }
    let before = run_app_opts(
        registry,
        app_source,
        spec,
        options.engine,
        options.init_snapshots,
    )
    .map_err(TrimError::Baseline)?;
    let app_program = pylite::parse(app_source).map_err(TrimError::Parse)?;
    // Retrims are where the summary cache earns its keep: sharing one cache
    // across runs means only the edited modules' reverse-dependency cone is
    // re-analyzed, and the per-module recomputations below start as hits.
    let summaries = options
        .summary_cache
        .clone()
        .unwrap_or_else(trim_analysis::summary::SummaryCache::shared);
    let analysis_options = trim_analysis::AnalysisOptions {
        mode: trim_analysis::AnalysisMode::Interprocedural,
        entry: None,
        jobs: options.jobs,
        summary_cache: Some(summaries),
    };
    let full = trim_analysis::analyze_full(&app_program, registry, &analysis_options);
    let analysis = &full.analysis;
    let app_fp = app_fingerprint(app_source, spec);

    let mut work = registry.clone();
    let mut modules = Vec::new();
    let mut seeded_modules = 0;
    let mut cold_modules = 0;
    let mut oracle_invocations = 0;
    for (module, prev_kept) in &log.kept {
        if !work.contains(module) {
            continue;
        }
        let program = work.parse_module(module).map_err(TrimError::Parse)?;
        let attrs = module_attributes(&program);
        let attr_set: BTreeSet<String> = attrs.iter().cloned().collect();
        // Same recompute-on-work rule as the cold pipeline: committed trims
        // release the must-keeps their import lines induced.
        let must_keep = match options.analysis {
            trim_analysis::AnalysisMode::AppOnly => analysis.accessed_attrs(module),
            trim_analysis::AnalysisMode::Interprocedural => {
                trim_analysis::analyze_full(&app_program, &work, &analysis_options)
                    .analysis
                    .accessed_attrs(module)
            }
        };

        // Probe the seed: previous kept set ∩ current attrs ∪ must-keep.
        let seed: BTreeSet<String> = prev_kept
            .intersection(&attr_set)
            .cloned()
            .chain(must_keep.iter().cloned())
            .collect();
        // A retrim probe is keyed exactly like a cold-pipeline probe: same
        // base-registry fingerprint, app fingerprint, module and keep-set.
        // An untouched module therefore answers its probes straight from a
        // shared [`crate::ProbeCache`] populated by the previous run.
        let probe = |keep: &BTreeSet<String>, base: &Registry| -> (bool, f64) {
            let key = options
                .probe_cache
                .as_ref()
                .map(|_| ProbeKey::new(base.fingerprint(), app_fp, module, keep.iter().cloned()));
            if let (Some(cache), Some(key)) = (&options.probe_cache, &key) {
                if let Some(verdict) = cache.get(key) {
                    return (verdict, 0.0);
                }
            }
            let rewritten = rewrite_module(&program, keep);
            let candidate = base.with_module(module, pylite::unparse(&rewritten));
            let (result, secs) = run_app_measured_opts(
                &candidate,
                app_source,
                spec,
                options.engine,
                options.init_snapshots,
            );
            let ok = match result {
                Ok(actual) => actual.behavior_eq(&before),
                Err(_) => false,
            };
            if let (Some(cache), Some(key)) = (&options.probe_cache, key) {
                cache.insert(key, ok);
            }
            (ok, secs)
        };
        let (seed_ok, _) = probe(&seed, &work);
        oracle_invocations += 1;

        let (candidates, fixed): (Vec<String>, Vec<String>) = if seed_ok {
            seeded_modules += 1;
            // Search only inside the seed (minus must-keep).
            (
                attrs
                    .iter()
                    .filter(|a| seed.contains(*a) && !must_keep.contains(*a))
                    .cloned()
                    .collect(),
                attrs
                    .iter()
                    .filter(|a| must_keep.contains(*a))
                    .cloned()
                    .collect(),
            )
        } else {
            cold_modules += 1;
            (
                attrs
                    .iter()
                    .filter(|a| !must_keep.contains(*a))
                    .cloned()
                    .collect(),
                attrs
                    .iter()
                    .filter(|a| must_keep.contains(*a))
                    .cloned()
                    .collect(),
            )
        };

        let mut spent = 0.0f64;
        let mut oracle = |subset: &[String]| {
            let keep: BTreeSet<String> = fixed
                .iter()
                .cloned()
                .chain(subset.iter().cloned())
                .collect();
            let (ok, secs) = probe(&keep, &work);
            spent += secs;
            ok
        };
        let dd_result = ddmin_with(&candidates, &mut oracle, options.dd);
        match dd_result {
            Ok(result) => {
                let keep: BTreeSet<String> = fixed
                    .iter()
                    .cloned()
                    .chain(result.minimized.iter().cloned())
                    .collect();
                let rewritten = rewrite_module(&program, &keep);
                work.set_module(module, pylite::unparse(&rewritten));
                let kept: Vec<String> = attrs
                    .iter()
                    .filter(|a| keep.contains(*a))
                    .cloned()
                    .collect();
                let removed: Vec<String> = attrs
                    .iter()
                    .filter(|a| !keep.contains(*a))
                    .cloned()
                    .collect();
                oracle_invocations += result.stats.oracle_invocations;
                modules.push(ModuleReport {
                    module: module.clone(),
                    attrs_before: attrs.len(),
                    attrs_after: kept.len(),
                    removed,
                    kept,
                    dd_stats: result.stats,
                    debloat_secs: spent,
                });
            }
            Err(trim_dd::DdError::OracleRejectsWhole) => {
                // Even the full attribute set fails under this candidate
                // path — leave the module untouched.
                modules.push(ModuleReport {
                    module: module.clone(),
                    attrs_before: attrs.len(),
                    attrs_after: attrs.len(),
                    removed: Vec::new(),
                    kept: attrs,
                    dd_stats: DdStats::default(),
                    debloat_secs: spent,
                });
            }
        }
    }
    // Mirror the cold pipeline's selective-init slicing pass so an
    // incremental retrim converges to the same deployment as a from-scratch
    // trim of the same inputs.
    let slices = if options.slice_init {
        let candidates: Vec<String> = modules.iter().map(|m| m.module.clone()).collect();
        let hazard_set: BTreeSet<String> = full.hazard_attrs.keys().cloned().collect();
        let slices = slice_modules(
            &mut work,
            app_source,
            spec,
            &before,
            &candidates,
            &hazard_set,
            options,
        )?;
        oracle_invocations += slices.iter().map(|s| s.oracle_invocations).sum::<u64>();
        slices
    } else {
        Vec::new()
    };
    let after = run_app_opts(
        &work,
        app_source,
        spec,
        options.engine,
        options.init_snapshots,
    )
    .map_err(TrimError::Baseline)?;
    TrimError::check_equivalent(&before, &after)?;
    Ok(IncrementalReport {
        modules,
        before,
        after,
        trimmed: work,
        seeded_modules,
        cold_modules,
        oracle_invocations,
        slices,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::TestCase;
    use crate::pipeline::trim_app;

    fn registry() -> Registry {
        let mut r = Registry::new();
        r.set_module(
            "toolkit",
            "__lt_work__(50)\ndef alpha(x):\n    return x + 1\ndef beta(x):\n    return x + 2\ndef gamma(x):\n    return x + 3\ndef delta(x):\n    return x + 4\n_cache = __lt_alloc__(10)\n",
        );
        r
    }

    const APP_V1: &str =
        "import toolkit\ndef handler(event, context):\n    return toolkit.alpha(event[\"n\"])\n";
    // The update starts using `beta` as well.
    const APP_V2: &str = "import toolkit\ndef handler(event, context):\n    return toolkit.alpha(event[\"n\"]) + toolkit.beta(event[\"n\"])\n";

    fn spec() -> OracleSpec {
        OracleSpec::new(vec![TestCase::event("{\"n\": 5}")])
    }

    #[test]
    fn log_round_trips_through_report() {
        let report = trim_app(&registry(), APP_V1, &spec(), &DebloatOptions::default()).unwrap();
        let log = TrimLog::from_report(&report);
        let kept = log.kept.get("toolkit").expect("toolkit logged");
        assert!(kept.contains("alpha"));
        assert!(!kept.contains("beta"));
    }

    #[test]
    fn unchanged_app_retrims_with_far_fewer_probes() {
        let cold = trim_app(&registry(), APP_V1, &spec(), &DebloatOptions::default()).unwrap();
        let log = TrimLog::from_report(&cold);
        let warm = retrim_with_log(
            &registry(),
            APP_V1,
            &spec(),
            &log,
            &DebloatOptions::default(),
        )
        .unwrap();
        assert!(warm.after.behavior_eq(&cold.after));
        assert_eq!(warm.cold_modules, 0);
        assert!(warm.seeded_modules > 0);
        assert!(
            warm.oracle_invocations < cold.oracle_invocations,
            "seeded re-run ({}) must beat cold run ({})",
            warm.oracle_invocations,
            cold.oracle_invocations
        );
        // Same final trim.
        assert_eq!(
            warm.trimmed.source("toolkit"),
            cold.trimmed.source("toolkit")
        );
    }

    #[test]
    fn update_needing_trimmed_attr_falls_back_to_full_search() {
        let cold = trim_app(&registry(), APP_V1, &spec(), &DebloatOptions::default()).unwrap();
        let log = TrimLog::from_report(&cold);
        // v2 uses beta, which v1's log removed: the seed probe fails and a
        // full search runs — but the result must be correct.
        let warm = retrim_with_log(
            &registry(),
            APP_V2,
            &spec(),
            &log,
            &DebloatOptions::default(),
        )
        .unwrap();
        assert!(warm.after.behavior_eq(&warm.before));
        let kept = warm.log();
        let toolkit = kept.kept.get("toolkit").unwrap();
        assert!(toolkit.contains("alpha"));
        assert!(toolkit.contains("beta"));
        assert!(!toolkit.contains("gamma"));
    }

    #[test]
    fn fallback_notifications_extend_the_log() {
        let cold = trim_app(&registry(), APP_V1, &spec(), &DebloatOptions::default()).unwrap();
        let mut log = TrimLog::from_report(&cold);
        // A production fallback reported that `delta` was needed.
        log.require("toolkit", "delta");
        let warm = retrim_with_log(
            &registry(),
            APP_V1,
            &spec(),
            &log,
            &DebloatOptions::default(),
        )
        .unwrap();
        // The seed includes delta, but DD inside the seed can still remove
        // it because the oracle set does not exercise it — §5.4's workflow
        // requires adding the failing *input*, not just the attribute.
        // With the input added, delta survives:
        let mut spec2 = spec();
        spec2.cases.push(TestCase::event("{\"n\": 1}"));
        assert!(warm.after.behavior_eq(&warm.before));
    }

    #[test]
    fn probe_cache_hits_across_incremental_retrim_of_untouched_module() {
        let cache = crate::probe_cache::ProbeCache::shared();
        let options = DebloatOptions {
            probe_cache: Some(cache.clone()),
            ..DebloatOptions::default()
        };
        let cold = trim_app(&registry(), APP_V1, &spec(), &options).unwrap();
        let log = TrimLog::from_report(&cold);
        let hits_before = cache.hits();
        // Nothing changed: the seed probe (and the DD probes inside the
        // seed) carry the exact keys the cold run cached, so the retrim of
        // the untouched module reuses them.
        let warm = retrim_with_log(&registry(), APP_V1, &spec(), &log, &options).unwrap();
        assert!(
            cache.hits() > hits_before,
            "retrim of an untouched module must hit the cross-run cache"
        );
        assert!(warm.after.behavior_eq(&cold.after));
        assert_eq!(
            warm.trimmed.source("toolkit"),
            cold.trimmed.source("toolkit")
        );
    }

    #[test]
    fn cache_accounting_across_repeat_trim_and_retrim() {
        let probes = crate::probe_cache::ProbeCache::shared();
        let summaries = trim_analysis::summary::SummaryCache::shared();
        let options = DebloatOptions {
            probe_cache: Some(probes.clone()),
            summary_cache: Some(summaries.clone()),
            ..DebloatOptions::default()
        };

        // One registry instance throughout: summary-cache reuse is scoped
        // to a registry family (same interner), unlike the content-keyed
        // probe cache.
        let reg = registry();

        // Cold trim: every verdict stored came from a miss; the summary
        // cache records exactly one cold analysis run.
        let cold = trim_app(&reg, APP_V1, &spec(), &options).unwrap();
        assert_eq!(probes.hits(), 0, "cold run cannot hit");
        assert!(probes.misses() > 0, "cold run probes the oracle");
        assert_eq!(
            probes.insertions(),
            probes.misses(),
            "every miss runs the oracle once and stores its verdict"
        );
        assert_eq!(
            probes.len() as u64,
            probes.insertions(),
            "sequential cold run never stores a duplicate key"
        );
        assert_eq!(summaries.misses(), 1, "one cold analysis run");
        assert_eq!(summaries.len(), 1);

        // Identical repeat trim: all probes answered from cache — hit count
        // grows, miss/insert counts stand still.
        let (h0, m0, i0) = (probes.hits(), probes.misses(), probes.insertions());
        let sh0 = summaries.hits();
        let again = trim_app(&reg, APP_V1, &spec(), &options).unwrap();
        assert!(probes.hits() > h0, "repeat trim must hit the probe cache");
        assert_eq!(probes.misses(), m0);
        assert_eq!(probes.insertions(), i0);
        assert!(
            summaries.hits() > sh0,
            "repeat analysis answered from cache"
        );
        assert_eq!(summaries.misses(), 1, "still the one cold analysis run");
        assert_eq!(
            again.trimmed.source("toolkit"),
            cold.trimmed.source("toolkit")
        );

        // Incremental retrim of the untouched corpus: seeded probes carry
        // the cached keys, so still no new verdicts are stored.
        let (h1, i1) = (probes.hits(), probes.insertions());
        let sh1 = summaries.hits();
        let log = TrimLog::from_report(&cold);
        let warm = retrim_with_log(&reg, APP_V1, &spec(), &log, &options).unwrap();
        assert!(probes.hits() > h1, "seeded retrim must hit the probe cache");
        assert_eq!(
            probes.insertions(),
            i1,
            "untouched corpus stores no new verdicts"
        );
        assert!(
            summaries.hits() > sh1,
            "retrim analysis answered from cache"
        );
        assert!(warm.after.behavior_eq(&cold.after));
    }

    #[test]
    fn corpus_edit_invalidates_only_affected_probe_keys() {
        let cache = crate::probe_cache::ProbeCache::shared();
        let options = DebloatOptions {
            probe_cache: Some(cache.clone()),
            ..DebloatOptions::default()
        };
        let cold = trim_app(&registry(), APP_V1, &spec(), &options).unwrap();
        let log = TrimLog::from_report(&cold);
        // Edit the module: the registry fingerprint changes, so stale
        // verdicts cannot be reused — the retrim re-probes.
        let mut edited = registry();
        let patched = edited.source("toolkit").unwrap().replace("x + 3", "x + 30");
        edited.set_module("toolkit", patched);
        let misses_before = cache.misses();
        let warm = retrim_with_log(&edited, APP_V1, &spec(), &log, &options).unwrap();
        assert!(
            cache.misses() > misses_before,
            "edited module must re-probe (fingerprint changed)"
        );
        assert!(warm.after.behavior_eq(&warm.before));
    }

    #[test]
    fn log_for_missing_module_is_skipped() {
        let cold = trim_app(&registry(), APP_V1, &spec(), &DebloatOptions::default()).unwrap();
        let mut log = TrimLog::from_report(&cold);
        log.require("ghost_module", "anything");
        let warm = retrim_with_log(
            &registry(),
            APP_V1,
            &spec(),
            &log,
            &DebloatOptions::default(),
        )
        .unwrap();
        assert!(warm.modules.iter().all(|m| m.module != "ghost_module"));
    }
}
