//! Continuous debloating (§9 future work): re-debloat after a function
//! update or an oracle-set extension, reusing the previous run's kept sets
//! to drive the search.
//!
//! The paper: "we plan to implement a continuous debloating pipeline for
//! both function updates and inputs that are collected through our fallback
//! mechanism. This pipeline will make use of logs collected during the
//! initial debloating to drive the subsequent debloating more efficiently."
//!
//! A retrim is the cold pipeline ([`crate::trim_app`]) with one hint: for
//! each module the profiler targets, DD first probes the *previous* kept
//! set (intersected with the module's current candidates, plus must-keep).
//! If the app still behaves correctly with it, DD only has to search inside
//! that — usually tiny — set instead of the full attribute list. If the
//! seed fails (the update needs something that was previously trimmed, or
//! the oracle grew), DD searches the full list. Targets, hazard routing,
//! pins, slicing and the final equivalence check are the cold pipeline's.

use crate::debloater::DebloatOptions;
use crate::oracle::OracleSpec;
use crate::pipeline::{trim_seeded, TrimReport};
use crate::TrimError;
use pylite::Registry;
use std::collections::{BTreeMap, BTreeSet};

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

/// The result of a seeded retrim: a [`TrimReport`] whose
/// [`TrimReport::seeded_modules`] and [`TrimReport::cold_modules`] count
/// how well the log seeded the search.
pub type IncrementalReport = TrimReport;

impl TrimReport {
    /// The updated log, to persist for the next round (the same as
    /// [`TrimLog::from_report`]).
    pub fn log(&self) -> TrimLog {
        TrimLog::from_report(self)
    }
}

/// Re-debloat an application seeded by a previous [`TrimLog`].
///
/// This runs the same pipeline as [`crate::trim_app`]: targets come from
/// the profiler, and hazard routing, pins, slicing and the final
/// equivalence check all apply. The log only seeds each target's DD search
/// (see the module docs); a target the log has no entry for is searched
/// in full, and log entries for modules that are not targets are ignored.
///
/// # Errors
///
/// The same as [`crate::trim_app`].
pub fn retrim_with_log(
    registry: &Registry,
    app_source: &str,
    spec: &OracleSpec,
    log: &TrimLog,
    options: &DebloatOptions,
) -> Result<IncrementalReport, TrimError> {
    trim_seeded(registry, app_source, spec, options, Some(log))
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
        // The seed probe is counted in its module's DD stats, so both entry
        // points account for probes the same way.
        assert_eq!((cold.seeded_modules, cold.cold_modules), (0, 0));
        for r in [&cold, &warm] {
            let dd: u64 = r
                .modules
                .iter()
                .map(|m| m.dd_stats.oracle_invocations)
                .sum();
            let sliced: u64 = r.slices.iter().map(|s| s.oracle_invocations).sum();
            assert_eq!(r.oracle_invocations, dd + sliced);
        }
    }

    /// [`registry`] plus `pick`, which reaches `delta` only for small
    /// inputs: v1's oracle never sends one, so a cold trim drops `delta`.
    fn pick_registry() -> Registry {
        let mut reg = registry();
        let patched = format!(
            "{}def pick(x):\n    if x < 2:\n        return delta(x)\n    return alpha(x)\n",
            reg.source("toolkit").unwrap()
        );
        reg.set_module("toolkit", patched);
        reg
    }

    const PICK_APP: &str =
        "import toolkit\ndef handler(event, context):\n    return toolkit.pick(event[\"n\"])\n";

    #[test]
    fn update_needing_trimmed_attr_falls_back_to_full_search() {
        let options = DebloatOptions::default();
        let cold = trim_app(&registry(), APP_V1, &spec(), &options).unwrap();
        // v2 reads beta, which v1's log removed. The analyzer sees the new
        // read, so must-keep puts beta back into the seed and it passes.
        let warm = retrim_with_log(&registry(), APP_V2, &spec(), &cold.log(), &options).unwrap();
        assert!(warm.after.behavior_eq(&warm.before));
        assert_eq!((warm.seeded_modules, warm.cold_modules), (1, 0));
        let toolkit = &warm.log().kept["toolkit"];
        assert!(toolkit.contains("alpha"));
        assert!(toolkit.contains("beta"));
        assert!(!toolkit.contains("gamma"));

        // A new oracle input needs `delta`, which only the library reaches:
        // the seed probe fails and DD searches the full candidate list.
        let reg = pick_registry();
        let cold = trim_app(&reg, PICK_APP, &spec(), &options).unwrap();
        assert!(!cold.log().kept["toolkit"].contains("delta"));
        let mut spec2 = spec();
        spec2.cases.push(TestCase::event("{\"n\": 1}"));
        let warm = retrim_with_log(&reg, PICK_APP, &spec2, &cold.log(), &options).unwrap();
        assert_eq!((warm.seeded_modules, warm.cold_modules), (0, 1));
        assert!(warm.log().kept["toolkit"].contains("delta"));
        assert!(warm.after.behavior_eq(&warm.before));
    }

    #[test]
    fn fallback_notifications_extend_the_log() {
        let reg = pick_registry();
        let options = DebloatOptions::default();
        let mut log = trim_app(&reg, PICK_APP, &spec(), &options).unwrap().log();
        // A production fallback reported that `delta` was needed.
        log.require("toolkit", "delta");
        // The seed includes delta, but DD inside the seed still removes it
        // while the oracle set does not exercise it: §5.4's workflow
        // requires adding the failing *input*, not just the attribute.
        let warm = retrim_with_log(&reg, PICK_APP, &spec(), &log, &options).unwrap();
        assert!(!warm.log().kept["toolkit"].contains("delta"));
        // With the input added, delta survives.
        let mut spec2 = spec();
        spec2.cases.push(TestCase::event("{\"n\": 1}"));
        let warm = retrim_with_log(&reg, PICK_APP, &spec2, &log, &options).unwrap();
        assert!(warm.log().kept["toolkit"].contains("delta"));
        assert_eq!(warm.seeded_modules, 1, "the extended log seeds the search");
        assert!(warm.after.behavior_eq(&warm.before));
    }

    /// A library of ten interchangeable functions `a0`..`a9`.
    fn lib_registry() -> Registry {
        let mut src = String::from("__lt_work__(40)\n");
        for i in 0..10 {
            src.push_str(&format!("def a{i}(x):\n    return x + {i}\n"));
        }
        let mut r = Registry::new();
        r.set_module("lib", src);
        r
    }

    const LIB_V1: &str =
        "import lib\ndef handler(event, context):\n    return lib.a0(event[\"n\"])\n";

    #[test]
    fn retrim_pins_a_bounded_getattr_added_by_an_edit() {
        let reg = lib_registry();
        let options = DebloatOptions::default();
        let log = trim_app(&reg, LIB_V1, &spec(), &options).unwrap().log();
        assert_eq!(log.kept["lib"], BTreeSet::from(["a0".to_owned()]));
        // Only `a5` runs under the oracle, but `a7` is reachable too.
        let v2 = "import lib\ndef handler(event, context):\n    key = \"a5\" if event[\"n\"] > 0 else \"a7\"\n    return lib.a0(event[\"n\"]) + getattr(lib, key)(event[\"n\"])\n";
        let cold = trim_app(&reg, v2, &spec(), &options).unwrap();
        let warm = retrim_with_log(&reg, v2, &spec(), &log, &options).unwrap();
        let pins = BTreeSet::from(["a5".to_owned(), "a7".to_owned()]);
        assert_eq!(cold.pinned_hazard_attrs.get("lib"), Some(&pins));
        assert_eq!(warm.pinned_hazard_attrs, cold.pinned_hazard_attrs);
        let kept = &warm.log().kept["lib"];
        assert!(pins.is_subset(kept), "pinned attributes kept: {kept:?}");
        assert_eq!(warm.trimmed.source("lib"), cold.trimmed.source("lib"));
    }

    #[test]
    fn retrim_falls_back_on_an_unbounded_getattr_added_by_an_edit() {
        let reg = lib_registry();
        let options = DebloatOptions::default();
        let log = trim_app(&reg, LIB_V1, &spec(), &options).unwrap().log();
        let v2 = "import lib\ndef handler(event, context):\n    if \"x\" in event:\n        return getattr(lib, event[\"x\"])(1)\n    return lib.a0(event[\"n\"])\n";
        let cold = trim_app(&reg, v2, &spec(), &options).unwrap();
        let warm = retrim_with_log(&reg, v2, &spec(), &log, &options).unwrap();
        assert_eq!(cold.fallback_modules, vec!["lib".to_owned()]);
        assert_eq!(warm.fallback_modules, cold.fallback_modules);
        assert_eq!(
            warm.trimmed.source("lib"),
            reg.source("lib"),
            "the fallback module deploys untouched"
        );
        assert!(warm.modules.is_empty(), "no DD run for the fallback module");
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
