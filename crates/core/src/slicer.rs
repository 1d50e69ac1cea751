//! Statement-level selective-init slicing (DESIGN.md §15): after DD has
//! minimized a module's *attribute* surface, drop the init *statements*
//! that feed nothing the surviving surface needs.
//!
//! Attribute-granular rewriting removes unused bindings, but a kept module
//! still executes every remaining top-level statement at init — including
//! bare expression statements (`__lt_work__(...)` warm-up loops, cache
//! priming) that define no attribute at all and are therefore invisible to
//! DD's search space. This pass closes that gap: the interprocedural
//! engine's slice pass ([`trim_analysis::slice`]) computes the backward
//! def-use slice of the init body seeded with the module's current
//! (post-DD) attribute set, pinning side-effecting statements, and the DD
//! oracle stays the soundness authority — every sliced module is probed
//! against the baseline behavior before commit, and any mismatch is
//! refined with [`trim_dd::ddmax_with`] (find the *maximal* droppable
//! statement subset) or abandoned entirely, mirroring the §11 hazard
//! fallback: a module we cannot slice soundly deploys with its full init
//! body.

use crate::attributes::module_attributes;
use crate::debloater::DebloatOptions;
use crate::oracle::{Execution, OracleSpec, Probe};
use crate::TrimError;
use pylite::{KeepMask, Registry};
use std::collections::BTreeSet;
use std::sync::Arc;
use trim_analysis::slice::slice_init;
use trim_dd::{ddmax_with, DdOptions};

/// The result of slicing one module's init body.
#[derive(Debug, Clone, PartialEq)]
pub struct SliceReport {
    /// Dotted module name.
    pub module: String,
    /// Top-level statement count before slicing (post-DD source).
    pub stmts_before: usize,
    /// Top-level statement count after slicing (equal to `stmts_before`
    /// when the slice was full or the oracle forced a fallback).
    pub stmts_after: usize,
    /// Statements retained because they were pinned as side-effecting.
    pub pinned: usize,
    /// Whether the whole-slice probe failed and ddmax refinement ran.
    pub refined: bool,
    /// Whether the module fell back to its unsliced init body (probe and
    /// refinement both failed to drop anything soundly).
    pub fell_back: bool,
    /// Simulated seconds spent in slice-probe oracle runs.
    pub slice_secs: f64,
    /// Oracle invocations spent probing slices of this module.
    pub oracle_invocations: u64,
}

impl SliceReport {
    /// Init statements this module no longer executes.
    pub fn stmts_removed(&self) -> usize {
        self.stmts_before - self.stmts_after
    }
}

/// Slice each candidate module's init body in `work`, in place.
///
/// `candidates` are the modules DD already trimmed (fallback modules are
/// deliberately absent — a module too hazardous to trim is too hazardous
/// to slice). `hazard_modules` selects the conservative pinning mode for
/// modules a bounded hazard implicated. Every commit is probe-verified
/// against `expected`; an unsliceable module is left byte-identical.
///
/// # Errors
///
/// [`TrimError::Parse`] if a candidate module no longer parses.
pub fn slice_modules(
    work: &mut Registry,
    app_source: &str,
    spec: &OracleSpec,
    expected: &Execution,
    candidates: &[String],
    hazard_modules: &BTreeSet<String>,
    options: &DebloatOptions,
) -> Result<Vec<SliceReport>, TrimError> {
    let mut probe = Probe::new(app_source, spec, expected.clone(), options);
    slice_with(work, &mut probe, candidates, hazard_modules, options.dd)
}

/// [`slice_modules`] judged by the trim's `probe`, with `dd` bounding each
/// ddmax refinement.
pub(crate) fn slice_with(
    work: &mut Registry,
    probe: &mut Probe<'_>,
    candidates: &[String],
    hazard_modules: &BTreeSet<String>,
    dd: DdOptions,
) -> Result<Vec<SliceReport>, TrimError> {
    let mut reports = Vec::with_capacity(candidates.len());
    for module in candidates {
        if !work.contains(module) {
            continue;
        }
        let program = work.parse_module(module).map_err(TrimError::Parse)?;
        // The seed is the module's *current* attribute surface: everything
        // DD kept is reachable by the app (or pinned by analysis), so every
        // definition site feeding it must survive.
        let seed: BTreeSet<String> = module_attributes(&program).into_iter().collect();
        let slice = slice_init(&program, &seed, hazard_modules.contains(module));
        let total = slice.total;
        if slice.is_full() {
            reports.push(SliceReport {
                module: module.clone(),
                stmts_before: total,
                stmts_after: total,
                pinned: slice.pinned.len(),
                refined: false,
                fell_back: false,
                slice_secs: 0.0,
                oracle_invocations: 0,
            });
            continue;
        }

        let (start_secs, start_checks) = (probe.secs(), probe.checks());
        // One probe = one masked overlay, exactly like a DD probe: the
        // module runs only the kept statements of its compiled body.
        let mut passes = |kept: &[usize]| -> bool {
            probe.passes(&work.with_mask(module, Arc::new(KeepMask::statements(total, kept))))
        };

        let mut refined = false;
        let mut fell_back = false;
        let committed: Option<Vec<usize>> = if passes(&slice.kept) {
            Some(slice.kept.clone())
        } else {
            // The static slice overshot (a dropped statement mattered after
            // all). The slice was a *candidate*, never a promise: ask DD
            // for the 1-maximal droppable subset of the statements the
            // slice wanted gone.
            refined = true;
            let droppable = slice.dropped();
            let mut oracle = |dropped: &[usize]| -> bool {
                let drop: BTreeSet<usize> = dropped.iter().copied().collect();
                let kept: Vec<usize> = (0..total).filter(|i| !drop.contains(i)).collect();
                passes(&kept)
            };
            match ddmax_with(&droppable, &mut oracle, dd) {
                Ok(result) if !result.minimized.is_empty() => {
                    let drop: BTreeSet<usize> = result.minimized.iter().copied().collect();
                    Some((0..total).filter(|i| !drop.contains(i)).collect())
                }
                // Nothing droppable — or even the drop-nothing baseline
                // failed (flaky oracle): deploy the unsliced body.
                _ => {
                    fell_back = true;
                    None
                }
            }
        };
        if let Some(kept) = &committed {
            // Commit the passing probe's mask, applied to the AST.
            let sliced = KeepMask::statements(total, kept).apply(&program);
            work.set_module(module, pylite::unparse(&sliced));
        }
        reports.push(SliceReport {
            module: module.clone(),
            stmts_before: total,
            stmts_after: committed.as_ref().map_or(total, Vec::len),
            pinned: slice.pinned.len(),
            refined,
            fell_back,
            slice_secs: probe.secs() - start_secs,
            oracle_invocations: probe.checks() - start_checks,
        });
    }
    Ok(reports)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::{run_app, TestCase};

    fn registry() -> Registry {
        let mut r = Registry::new();
        r.set_module(
            "heavy",
            "__lt_work__(90)\n_scratch = __lt_alloc__(40)\ndef go(x):\n    return x + 1\n",
        );
        r
    }

    const APP: &str =
        "import heavy\ndef handler(event, context):\n    return heavy.go(event[\"n\"])\n";

    fn spec() -> OracleSpec {
        OracleSpec::new(vec![TestCase::event("{\"n\": 1}")])
    }

    #[test]
    fn slices_behavior_dead_init_work() {
        let mut work = registry();
        let expected = run_app(&work, APP, &spec()).unwrap();
        let reports = slice_modules(
            &mut work,
            APP,
            &spec(),
            &expected,
            &["heavy".to_owned()],
            &BTreeSet::new(),
            &DebloatOptions::default(),
        )
        .unwrap();
        assert_eq!(reports.len(), 1);
        let r = &reports[0];
        // `_scratch` is a module attribute (DD has not removed it here), so
        // its alloc stays; the bare __lt_work__ statement goes.
        assert_eq!(r.stmts_before, 3);
        assert_eq!(r.stmts_after, 2);
        assert!(!r.refined && !r.fell_back);
        assert!(r.oracle_invocations >= 1);
        let src = work.source("heavy").unwrap();
        assert!(!src.contains("__lt_work__"), "init work dropped:\n{src}");
        let after = run_app(&work, APP, &spec()).unwrap();
        assert!(after.behavior_eq(&expected));
        assert!(after.init_secs < expected.init_secs, "init got cheaper");
    }

    #[test]
    fn full_slice_skips_probing() {
        let mut r = Registry::new();
        r.set_module("lean", "def go(x):\n    return x\n");
        let app = "import lean\ndef handler(event, context):\n    return lean.go(event[\"n\"])\n";
        let expected = run_app(&r, app, &spec()).unwrap();
        let mut work = r.clone();
        let reports = slice_modules(
            &mut work,
            app,
            &spec(),
            &expected,
            &["lean".to_owned()],
            &BTreeSet::new(),
            &DebloatOptions::default(),
        )
        .unwrap();
        assert_eq!(reports[0].stmts_removed(), 0);
        assert_eq!(reports[0].oracle_invocations, 0, "full slice never probes");
        assert_eq!(work.source("lean"), r.source("lean"));
    }

    #[test]
    fn oracle_refines_an_overshooting_slice() {
        // `print` at init is pinned, but `_state` priming via a *pure-looking*
        // assignment that the handler observes through its result is the
        // overshoot shape: the slice drops `limit = len(seq)` (no kept attr
        // uses it statically... except the handler reads it via getattr-free
        // direct access the seed can't see if we seed with a subset). We
        // emulate that by seeding only {go}: `limit` is then behavior-live
        // but slice-dead, so the whole-slice probe fails and ddmax must
        // re-pin exactly the statements `limit` needs.
        let mut r = Registry::new();
        r.set_module(
            "tricky",
            "__lt_work__(30)\nseq = [1, 2, 3]\nlimit = len(seq)\ndef go(x):\n    return x\n",
        );
        let app = "import tricky\ndef handler(event, context):\n    return tricky.limit + tricky.go(event[\"n\"])\n";
        let expected = run_app(&r, app, &spec()).unwrap();
        let work = r.clone();
        let seed_only_go: BTreeSet<String> = ["go".to_owned()].into();
        let program = work.parse_module("tricky").unwrap();
        let slice = slice_init(&program, &seed_only_go, false);
        assert_eq!(slice.kept, vec![3], "the narrow seed drops limit and seq");
        // Drive slice_modules through a registry whose attribute surface
        // *is* the narrow seed: rewrite tricky so module_attributes sees
        // {go} yet the app still needs `limit`. Simplest faithful route:
        // call the probe path directly via a handcrafted candidate list is
        // not possible, so assert the refinement contract at the ddmax
        // level instead — the maximal droppable subset keeps seq and limit.
        let (spec, options) = (spec(), DebloatOptions::default());
        let mut probe = Probe::new(app, &spec, expected, &options);
        let mut passes = |kept: &[usize]| -> bool {
            let mask = KeepMask::statements(program.body.len(), kept);
            probe.passes(&work.with_mask("tricky", Arc::new(mask)))
        };
        assert!(!passes(&slice.kept), "narrow slice breaks the app");
        let droppable = slice.dropped();
        let total = slice.total;
        let mut oracle = |dropped: &[usize]| -> bool {
            let drop: BTreeSet<usize> = dropped.iter().copied().collect();
            let kept: Vec<usize> = (0..total).filter(|i| !drop.contains(i)).collect();
            passes(&kept)
        };
        let refined = ddmax_with(&droppable, &mut oracle, Default::default()).unwrap();
        let drop: BTreeSet<usize> = refined.minimized.iter().copied().collect();
        assert_eq!(
            drop,
            BTreeSet::from([0]),
            "only the __lt_work__ statement is truly droppable"
        );
    }

    #[test]
    fn hazard_module_slices_conservatively() {
        let mut work = Registry::new();
        work.set_module(
            "dyn",
            "__lt_work__(20)\nimport heavy_dep\nx = 1\ndef go(n):\n    return n\n",
        );
        work.set_module("heavy_dep", "__lt_work__(10)\n");
        let app = "import dyn\ndef handler(event, context):\n    return dyn.go(event[\"n\"])\n";
        let expected = run_app(&work, app, &spec()).unwrap();
        let hazards: BTreeSet<String> = ["dyn".to_owned()].into();
        let reports = slice_modules(
            &mut work,
            app,
            &spec(),
            &expected,
            &["dyn".to_owned()],
            &hazards,
            &DebloatOptions::default(),
        )
        .unwrap();
        let r = &reports[0];
        // Conservative mode pins the import; the meter call still goes.
        let src = work.source("dyn").unwrap();
        assert!(src.contains("import heavy_dep"), "{src}");
        assert!(!src.contains("__lt_work__"), "{src}");
        assert_eq!(r.stmts_removed(), 1);
    }

    #[test]
    fn missing_candidate_is_skipped() {
        let mut work = registry();
        let expected = run_app(&work, APP, &spec()).unwrap();
        let reports = slice_modules(
            &mut work,
            APP,
            &spec(),
            &expected,
            &["ghost".to_owned()],
            &BTreeSet::new(),
            &DebloatOptions::default(),
        )
        .unwrap();
        assert!(reports.is_empty());
    }
}
