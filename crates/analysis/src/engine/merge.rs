//! Deterministic merge of per-shard outputs into the engine result.
//!
//! Each shard's collect pass produces a [`ShardOutput`] that depends only
//! on that shard's converged state (plus the frozen snapshots it read), so
//! outputs can be cached per shard and reused across incremental runs. The
//! merge folds them in sorted shard order — application first, then module
//! names ascending — never in walk order, which is one half of
//! the determinism argument (DESIGN.md §9); the other half is that every
//! target structure is keyed by strings, so even the symbol numbering of a
//! particular run is invisible in the result.

use super::EngineOutput;
use crate::callgraph::{CallGraph, CgNode};
use crate::lints::{hazard_join, HazardAttrs, HazardSet, Lint, LintKind, Severity};
use crate::Analysis;
use pylite::Registry;
use std::collections::{BTreeMap, BTreeSet};

/// Everything one shard contributes to the analysis result. All fields are
/// string-keyed: symbol ids never escape the fixpoint.
#[derive(Debug, Clone, Default, PartialEq)]
pub(crate) struct ShardOutput {
    /// Modules this shard imports (every dotted prefix).
    pub imported_modules: BTreeSet<String>,
    /// Exact dotted paths of the shard's import statements (app shard only).
    pub direct_imports: BTreeSet<String>,
    /// Definitely-accessed attributes per module.
    pub accessed: BTreeMap<String, BTreeSet<String>>,
    /// Accesses made from top-level (load-time) code.
    pub load_time: BTreeMap<String, BTreeSet<String>>,
    /// Module attributes this shard assigns to.
    pub written: BTreeSet<(String, String)>,
    /// Modules the application itself touches (app shard only).
    pub used_by_app: BTreeSet<String>,
    /// Lint findings raised while walking this shard.
    pub lints: BTreeSet<Lint>,
    /// Call-graph edges whose caller lives in this shard.
    pub edges: BTreeSet<(CgNode, CgNode)>,
    /// Display names of this shard's analyzed (activated) functions.
    pub reached: BTreeSet<String>,
    /// Qualified names of app-defined functions (app shard only; call-graph
    /// roots when no entry point is given).
    pub app_funcs: BTreeSet<String>,
    /// `(module, top-level binding names)` for an active module shard.
    pub module_bindings: Option<(String, BTreeSet<String>)>,
}

/// Fold shard outputs (already in sorted shard order) and run the cheap
/// whole-program finalization: derived lints, hazard set, call-graph
/// reachability. The finalization is recomputed from scratch on every run —
/// including incremental ones — so it may consult the registry freely
/// without invalidating cached shard summaries.
pub(crate) fn finish<'a>(
    outputs: impl IntoIterator<Item = &'a ShardOutput>,
    registry: &Registry,
    entry: Option<&str>,
) -> EngineOutput {
    let mut analysis = Analysis::default();
    let mut load_time: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
    let mut written: BTreeSet<(String, String)> = BTreeSet::new();
    let mut used_by_app: BTreeSet<String> = BTreeSet::new();
    let mut lints: BTreeSet<Lint> = BTreeSet::new();
    let mut edges: BTreeSet<(CgNode, CgNode)> = BTreeSet::new();
    let mut reached: BTreeSet<String> = BTreeSet::new();
    let mut app_funcs: BTreeSet<String> = BTreeSet::new();
    let mut module_bindings: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();

    for o in outputs {
        analysis
            .imported_modules
            .extend(o.imported_modules.iter().cloned());
        analysis
            .direct_imports
            .extend(o.direct_imports.iter().cloned());
        for (m, attrs) in &o.accessed {
            analysis
                .accessed
                .entry(m.clone())
                .or_default()
                .extend(attrs.iter().cloned());
        }
        for (m, attrs) in &o.load_time {
            load_time
                .entry(m.clone())
                .or_default()
                .extend(attrs.iter().cloned());
        }
        written.extend(o.written.iter().cloned());
        used_by_app.extend(o.used_by_app.iter().cloned());
        lints.extend(o.lints.iter().cloned());
        edges.extend(o.edges.iter().cloned());
        reached.extend(o.reached.iter().cloned());
        app_funcs.extend(o.app_funcs.iter().cloned());
        if let Some((m, keys)) = &o.module_bindings {
            module_bindings.insert(m.clone(), keys.clone());
        }
    }

    // Unused app imports.
    for d in analysis.direct_imports.clone() {
        let prefix = format!("{d}.");
        let used = used_by_app.contains(&d) || used_by_app.iter().any(|u| u.starts_with(&prefix));
        if !used {
            lints.insert(Lint {
                severity: Severity::Warning,
                kind: LintKind::UnusedImport { module: d },
            });
        }
    }
    // Accesses to attributes no statement of the module binds.
    for (m, attrs) in &analysis.accessed {
        let Some(keys) = module_bindings.get(m) else {
            continue;
        };
        for a in attrs {
            if !keys.contains(a)
                && !registry.contains(&format!("{m}.{a}"))
                && !written.contains(&(m.clone(), a.clone()))
            {
                lints.insert(Lint {
                    severity: Severity::Warning,
                    kind: LintKind::NonexistentAttr {
                        module: m.clone(),
                        attr: a.clone(),
                    },
                });
            }
        }
    }

    // Per-module hazard bounds: join each hazard lint's implicated attrs
    // under its module. Star imports are nominally ⊤ but are narrowed here
    // to the module's *public* binding surface when it is known (active
    // shard) — the narrowing lives in the merge, which reruns from scratch
    // on every run, so cached shard summaries stay valid.
    let mut hazard_attrs: HazardSet = HazardSet::new();
    for l in lints.iter().filter(|l| l.severity == Severity::Hazard) {
        let Some(m) = l.implicated_module() else {
            continue;
        };
        if !registry.contains(m) {
            continue;
        }
        let Some(attrs) = l.implicated_attrs() else {
            continue;
        };
        let attrs = match (&l.kind, module_bindings.get(m)) {
            (LintKind::StarImport { .. }, Some(keys)) => HazardAttrs::Attrs(
                keys.iter()
                    .filter(|k| !k.starts_with('_'))
                    .cloned()
                    .collect(),
            ),
            _ => attrs,
        };
        hazard_join(&mut hazard_attrs, m, &attrs);
    }
    let hazard_modules: BTreeSet<String> = hazard_attrs.keys().cloned().collect();

    let mut call_graph = CallGraph {
        edges,
        reachable: BTreeSet::new(),
    };
    let mut roots = vec![CgNode::AppTop];
    match entry {
        Some(name) => roots.push(CgNode::AppFunc(name.to_owned())),
        None => {
            for f in &app_funcs {
                roots.push(CgNode::AppFunc(f.clone()));
            }
        }
    }
    call_graph.recompute(roots);

    EngineOutput {
        analysis,
        load_time_accessed: load_time,
        module_bindings,
        lints: lints.into_iter().collect(),
        hazard_modules,
        hazard_attrs,
        call_graph,
        reached_functions: reached,
    }
}
