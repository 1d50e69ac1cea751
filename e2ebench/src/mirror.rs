//! Stage mirror of `trim_core::trim_app` for the traced run.
//!
//! The mirror makes the same public calls as `trim_app`, in the same order
//! and with the same arguments, and opens a span around each stage: the
//! baseline oracle run, the full analysis, profiling, then per target the
//! re-analysis and DD, slicing and the final oracle run. Its output must
//! equal `trim_app`'s byte for byte; the workload checks that.

use crate::spans::Tracer;
use pylite::{Program, Registry};
use std::collections::BTreeSet;
use std::sync::Arc;
use std::time::{Duration, Instant};
use trim_analysis::summary::SummaryCache;
use trim_analysis::{analyze_full, AnalysisMode, AnalysisOptions};
use trim_core::{
    debloat_module, rewrite_module, run_app_measured_opts, run_app_opts, slice_modules,
    DebloatOptions, Execution, HazardMode, ModuleReport, OracleSpec, SliceReport, TrimError,
};
use trim_profiler::{profile_app, top_k};

/// Stage spans of one mirrored trim, all children of [`ROOT`].
pub const STAGES: [&str; 7] = [
    "oracle.baseline",
    "analysis.full",
    "profiler",
    "analysis.reanalyze",
    "dd",
    "slicer",
    "oracle.verify",
];

/// The span enclosing one app's mirrored trim.
pub const ROOT: &str = "trim";

/// Where a DD run committed: the registry it probed against and the keep
/// set it settled on. Re-running that one probe measures what a probe
/// costs on this module.
pub struct ProbeSite {
    base: Registry,
    module: String,
    program: Arc<Program>,
    keep: BTreeSet<String>,
}

/// What one mirrored trim produced.
pub struct Mirror {
    pub before: Execution,
    pub after: Execution,
    pub trimmed: Registry,
    pub modules: Vec<ModuleReport>,
    pub slices: Vec<SliceReport>,
    pub oracle_invocations: u64,
    pub targets: usize,
    pub summaries: Arc<SummaryCache>,
    pub sites: Vec<ProbeSite>,
}

/// Trim `app_source` exactly as `trim_app` does, recording stage spans.
pub fn trim(
    registry: &Registry,
    app_source: &str,
    spec: &OracleSpec,
    options: &DebloatOptions,
    t: &mut Tracer,
) -> Result<Mirror, TrimError> {
    let root = t.open(ROOT);
    let before = t
        .span("oracle.baseline", || {
            run_app_opts(
                registry,
                app_source,
                spec,
                options.engine,
                options.init_snapshots,
            )
        })
        .map_err(TrimError::Baseline)?;

    let summaries = options
        .summary_cache
        .clone()
        .unwrap_or_else(SummaryCache::shared);
    let analysis_options = AnalysisOptions {
        mode: options.analysis,
        entry: None,
        jobs: options.jobs,
        summary_cache: Some(summaries.clone()),
    };
    let (program, full) = t.span("analysis.full", || {
        let program = pylite::parse(app_source).map_err(TrimError::Parse)?;
        let full = analyze_full(&program, registry, &analysis_options);
        Ok::<_, TrimError>((program, full))
    })?;
    if options.init_snapshots {
        let store = registry.snapshot_store();
        for module in full.hazard_attrs.keys() {
            store.deny(module);
        }
    }

    let targets: Vec<String> = t.span("profiler", || {
        let profile = profile_app(app_source, registry).map_err(TrimError::Baseline)?;
        Ok::<_, TrimError>(
            top_k(&profile, options.scoring, options.k)
                .into_iter()
                .filter(|m| registry.contains(m))
                .collect(),
        )
    })?;

    let mut work = registry.clone();
    let mut modules = Vec::with_capacity(targets.len());
    let mut sites = Vec::with_capacity(targets.len());
    for module in &targets {
        let pinned: Option<BTreeSet<String>> = match full.hazard_attrs.get(module) {
            None => None,
            Some(bound) => match (options.hazards, bound.attrs()) {
                (HazardMode::PerAttribute, Some(attrs)) => Some(attrs.clone()),
                _ => continue,
            },
        };
        let mut must_keep = match options.analysis {
            AnalysisMode::AppOnly => full.analysis.accessed_attrs(module),
            AnalysisMode::Interprocedural => t.span("analysis.reanalyze", || {
                analyze_full(&program, &work, &analysis_options)
                    .analysis
                    .accessed_attrs(module)
            }),
        };
        must_keep.extend(pinned.into_iter().flatten());
        let base = work.clone();
        let report = t.span("dd", || {
            debloat_module(
                &mut work, app_source, spec, &before, module, &must_keep, options,
            )
        })?;
        sites.push(ProbeSite {
            program: base.parse_module(module).map_err(TrimError::Parse)?,
            base,
            module: module.clone(),
            keep: report.kept.iter().cloned().collect(),
        });
        modules.push(report);
    }

    let slices = if options.slice_init {
        let candidates: Vec<String> = modules.iter().map(|m| m.module.clone()).collect();
        let hazard_set: BTreeSet<String> = full.hazard_attrs.keys().cloned().collect();
        t.span("slicer", || {
            slice_modules(
                &mut work,
                app_source,
                spec,
                &before,
                &candidates,
                &hazard_set,
                options,
            )
        })?
    } else {
        Vec::new()
    };

    let after = t
        .span("oracle.verify", || {
            run_app_opts(
                &work,
                app_source,
                spec,
                options.engine,
                options.init_snapshots,
            )
        })
        .map_err(TrimError::Baseline)?;
    t.close(root);
    let oracle_invocations = modules
        .iter()
        .map(|m| m.dd_stats.oracle_invocations)
        .sum::<u64>()
        + slices.iter().map(|s| s.oracle_invocations).sum::<u64>();
    Ok(Mirror {
        before,
        after,
        trimmed: work,
        modules,
        slices,
        oracle_invocations,
        targets: targets.len(),
        summaries,
        sites,
    })
}

/// Cost of one probe, split into its three steps.
#[derive(Debug, Clone, Copy, Default)]
pub struct ProbeCost {
    /// `rewrite_module` + `unparse`: the candidate's source text.
    pub rewrite: Duration,
    /// `with_module` + `compile_module`: lex, parse, resolve and compile.
    pub frontend: Duration,
    /// `run_app_measured_opts`: the oracle run itself.
    pub run: Duration,
    /// Bytes of candidate source the round trip produced.
    pub bytes: usize,
    /// Whether the candidate still passed the oracle.
    pub passed: bool,
}

/// Re-run the probe of `site`'s committed keep set the way the debloater
/// builds it. A trailing comment gives the candidate source a content
/// fingerprint no earlier run has seen: in a real probe the module under
/// test is new, so its init cannot be replayed from a snapshot.
pub fn sample_probe(
    site: &ProbeSite,
    app_source: &str,
    spec: &OracleSpec,
    expected: &Execution,
    options: &DebloatOptions,
) -> ProbeCost {
    let t0 = Instant::now();
    let mut source = pylite::unparse(&rewrite_module(&site.program, &site.keep));
    source.push_str("# sampled probe\n");
    let t1 = Instant::now();
    let candidate = site.base.with_module(site.module.as_str(), source.as_str());
    let compiled = candidate.compile_module(&site.module).is_ok();
    let t2 = Instant::now();
    let (result, _) = run_app_measured_opts(
        &candidate,
        app_source,
        spec,
        options.engine,
        options.init_snapshots,
    );
    let t3 = Instant::now();
    ProbeCost {
        rewrite: t1 - t0,
        frontend: t2 - t1,
        run: t3 - t2,
        bytes: source.len(),
        passed: compiled && matches!(&result, Ok(actual) if actual.behavior_eq(expected)),
    }
}
