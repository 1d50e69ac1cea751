//! # trim-baselines — the comparator debloaters of Table 2
//!
//! Faithful-in-spirit reimplementations of the two systems λ-trim is
//! compared against (§8.1, Table 2), operating on the same pylite substrate:
//!
//! * [`faaslight_trim`] — a FaaSLight-style debloater: **statement-level**,
//!   purely static, app-driven reachability. It seeds from the attributes
//!   the application's call graph touches, closes over intra-module name
//!   references to a fixpoint, and drops unreachable top-level statements.
//!   Because it works at statement granularity it cannot split a
//!   `from m import a, b, c` list (§6.1's argument), and like the original
//!   it retains a code-retrieval safeguard stub in each trimmed module,
//!   which costs a little memory (§3.1: "FaaSLight additionally retrieves
//!   the original code as a safeguard, yielding additional overheads").
//! * [`vulture_trim`] — a Vulture-style dead-code eliminator: removes only
//!   definitions whose names are referenced **nowhere** in the whole code
//!   base. As a generic (not serverless-aware) tool it does not touch
//!   import statements, so it cannot recover import time — matching the
//!   small improvements the paper reports for it.
//!
//! Both baselines validate each module against the oracle after trimming
//! and revert any module whose removal changed behavior — static analysis
//! over a dynamic language is unsound, and the paper notes FaaSLight needs
//! "extensive manual annotation" to be safe; the per-module revert models
//! that safety net mechanically.

#![warn(missing_docs)]

use pylite::ast::{Expr, Program, Stmt};
use pylite::Registry;
use std::collections::{BTreeMap, BTreeSet};
use trim_core::oracle::{Execution, OracleSpec, Probe};
use trim_core::{DebloatOptions, TrimError};

/// Result of running a baseline debloater.
#[derive(Debug, Clone, PartialEq)]
pub struct BaselineReport {
    /// The trimmed registry (deployable).
    pub registry: Registry,
    /// Attributes removed per module.
    pub removed: BTreeMap<String, Vec<String>>,
    /// Modules whose trim broke the oracle and were reverted.
    pub reverted: Vec<String>,
    /// Baseline (original) execution.
    pub before: Execution,
    /// Execution of the trimmed application.
    pub after: Execution,
}

impl BaselineReport {
    /// Total number of attributes removed.
    pub fn attrs_removed(&self) -> usize {
        self.removed.values().map(Vec::len).sum()
    }
}

/// The oracle settings of both baselines: the default execution tier with
/// init snapshots off, so every oracle run executes module bodies live.
fn oracle_options() -> DebloatOptions {
    DebloatOptions {
        init_snapshots: false,
        ..DebloatOptions::default()
    }
}

/// Collect every name that appears in a *load* position anywhere in the
/// program: expression names, attribute names, and from-import names.
fn referenced_names(program: &Program, out: &mut BTreeSet<String>) {
    fn walk_expr(e: &Expr, out: &mut BTreeSet<String>) {
        match e {
            Expr::Name(n) => {
                out.insert(n.clone());
            }
            Expr::Attribute { value, attr } => {
                out.insert(attr.clone());
                walk_expr(value, out);
            }
            Expr::Subscript { value, index } => {
                walk_expr(value, out);
                walk_expr(index, out);
            }
            Expr::Call { func, args, kwargs } => {
                walk_expr(func, out);
                for a in args {
                    walk_expr(a, out);
                }
                for (_, v) in kwargs {
                    walk_expr(v, out);
                }
            }
            Expr::List(items) | Expr::Tuple(items) => {
                for i in items {
                    walk_expr(i, out);
                }
            }
            Expr::Dict(pairs) => {
                for (k, v) in pairs {
                    walk_expr(k, out);
                    walk_expr(v, out);
                }
            }
            Expr::Unary { operand, .. } => walk_expr(operand, out),
            Expr::Binary { left, right, .. } => {
                walk_expr(left, out);
                walk_expr(right, out);
            }
            Expr::Bool { values, .. } => {
                for v in values {
                    walk_expr(v, out);
                }
            }
            Expr::Compare { left, ops } => {
                walk_expr(left, out);
                for (_, v) in ops {
                    walk_expr(v, out);
                }
            }
            Expr::Conditional { test, body, orelse } => {
                walk_expr(test, out);
                walk_expr(body, out);
                walk_expr(orelse, out);
            }
            Expr::ListComp {
                element,
                iter,
                cond,
                ..
            } => {
                walk_expr(element, out);
                walk_expr(iter, out);
                if let Some(c) = cond {
                    walk_expr(c, out);
                }
            }
            Expr::Slice { value, start, stop } => {
                walk_expr(value, out);
                if let Some(e) = start {
                    walk_expr(e, out);
                }
                if let Some(e) = stop {
                    walk_expr(e, out);
                }
            }
            _ => {}
        }
    }
    fn walk_stmt(s: &Stmt, out: &mut BTreeSet<String>) {
        match s {
            Stmt::Expr(e) | Stmt::Return(Some(e)) | Stmt::Raise(Some(e)) | Stmt::Del(e) => {
                walk_expr(e, out)
            }
            Stmt::Assign { targets, value } => {
                walk_expr(value, out);
                for t in targets {
                    // Attribute/subscript targets reference their base.
                    if !matches!(t, Expr::Name(_)) {
                        walk_expr(t, out);
                    }
                }
            }
            Stmt::AugAssign { target, value, .. } => {
                walk_expr(target, out);
                walk_expr(value, out);
            }
            Stmt::If { branches, orelse } => {
                for (t, b) in branches {
                    walk_expr(t, out);
                    for s in b {
                        walk_stmt(s, out);
                    }
                }
                for s in orelse {
                    walk_stmt(s, out);
                }
            }
            Stmt::While { test, body } => {
                walk_expr(test, out);
                for s in body {
                    walk_stmt(s, out);
                }
            }
            Stmt::For { iter, body, .. } => {
                walk_expr(iter, out);
                for s in body {
                    walk_stmt(s, out);
                }
            }
            Stmt::FuncDef(f) => {
                for p in &f.params {
                    if let Some(d) = &p.default {
                        walk_expr(d, out);
                    }
                }
                for s in &f.body {
                    walk_stmt(s, out);
                }
            }
            Stmt::ClassDef(c) => {
                for b in &c.bases {
                    out.insert(b.clone());
                }
                for s in &c.body {
                    walk_stmt(s, out);
                }
            }
            Stmt::FromImport { names, .. } => {
                for (n, _) in names {
                    out.insert(n.clone());
                }
            }
            Stmt::Try {
                body,
                handlers,
                orelse,
                finalbody,
            } => {
                for s in body.iter().chain(orelse).chain(finalbody) {
                    walk_stmt(s, out);
                }
                for h in handlers {
                    if let Some(t) = &h.exc_type {
                        out.insert(t.clone());
                    }
                    for s in &h.body {
                        walk_stmt(s, out);
                    }
                }
            }
            Stmt::Assert { test, msg } => {
                walk_expr(test, out);
                if let Some(m) = msg {
                    walk_expr(m, out);
                }
            }
            _ => {}
        }
    }
    for s in &program.body {
        walk_stmt(s, out);
    }
}

/// Names a top-level statement binds, and names it references.
fn stmt_bindings_and_refs(stmt: &Stmt) -> (Vec<String>, BTreeSet<String>) {
    let mut refs = BTreeSet::new();
    referenced_names(
        &Program {
            body: vec![stmt.clone()],
        },
        &mut refs,
    );
    let bound = match stmt {
        Stmt::FuncDef(f) => vec![f.name.clone()],
        Stmt::ClassDef(c) => vec![c.name.clone()],
        Stmt::Assign { targets, .. } => targets.iter().flat_map(target_names).collect(),
        Stmt::Import { items } => items.iter().map(|i| i.bound_name().to_owned()).collect(),
        Stmt::FromImport { names, .. } => names
            .iter()
            .map(|(n, a)| a.clone().unwrap_or_else(|| n.clone()))
            .collect(),
        _ => Vec::new(),
    };
    // A binding's own name inside refs (e.g. recursion) must not keep it
    // alive by itself; the fixpoint handles this by seeding from roots.
    (bound, refs)
}

fn target_names(target: &Expr) -> Vec<String> {
    match target {
        Expr::Name(n) => vec![n.clone()],
        Expr::Tuple(items) | Expr::List(items) => items.iter().flat_map(target_names).collect(),
        _ => Vec::new(),
    }
}

/// FaaSLight-style statement-level reachability trim of one module.
///
/// Returns the rewritten program and the removed attribute names.
fn faaslight_trim_module(program: &Program, roots: &BTreeSet<String>) -> (Program, Vec<String>) {
    let stmts: Vec<(Vec<String>, BTreeSet<String>)> =
        program.body.iter().map(stmt_bindings_and_refs).collect();
    // Fixpoint: a statement is live if it binds nothing (executes for
    // effect) or binds a live name. Live statements make their referenced
    // names live.
    let mut live_names: BTreeSet<String> = roots.clone();
    let mut live_stmt = vec![false; stmts.len()];
    loop {
        let mut changed = false;
        for (i, (bound, refs)) in stmts.iter().enumerate() {
            if live_stmt[i] {
                continue;
            }
            let is_live = bound.is_empty()
                || bound
                    .iter()
                    .any(|b| live_names.contains(b) || trim_core::is_magic(b));
            if is_live {
                live_stmt[i] = true;
                changed = true;
                for b in bound {
                    live_names.insert(b.clone());
                }
                for r in refs {
                    if live_names.insert(r.clone()) {
                        changed = true;
                    }
                }
            }
        }
        if !changed {
            break;
        }
    }
    let mut body = Vec::new();
    let mut removed = Vec::new();
    for (i, stmt) in program.body.iter().enumerate() {
        if live_stmt[i] {
            body.push(stmt.clone());
        } else {
            removed.extend(stmts[i].0.iter().cloned());
        }
    }
    if body.is_empty() {
        body.push(Stmt::Pass);
    }
    (Program { body }, removed)
}

/// Run the FaaSLight-style baseline over an application.
///
/// # Errors
///
/// [`TrimError::Baseline`] if the original application fails its oracle run.
/// The per-module revert keeps the final [`Probe::verify`] passing.
pub fn faaslight_trim(
    registry: &Registry,
    app_source: &str,
    spec: &OracleSpec,
) -> Result<BaselineReport, TrimError> {
    let options = oracle_options();
    let mut probe = Probe::baseline(registry, app_source, spec, &options)?;
    let app_program = pylite::parse(app_source).map_err(TrimError::Parse)?;
    // App-scope analysis only: FaaSLight's reachability does not model
    // library-internal re-export semantics, and the baseline should not
    // inherit λ-trim's interprocedural engine.
    let analysis = trim_analysis::analyze_app_only(&app_program, registry);

    // Roots per module: attributes the app's call graph touches, plus names
    // referenced from *other* modules' sources (a static over-approximation
    // of cross-module dependencies).
    let mut external_refs: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
    for name in registry.module_names() {
        let mut refs = BTreeSet::new();
        if let Ok(p) = registry.parse_module(&name) {
            referenced_names(&p, &mut refs);
        }
        external_refs.insert(name, refs);
    }

    let mut work = registry.clone();
    let mut removed = BTreeMap::new();
    let mut reverted = Vec::new();
    for module in registry.module_names() {
        let program = match registry.parse_module(&module) {
            Ok(p) => p,
            Err(_) => continue,
        };
        let mut roots = analysis.accessed_attrs(&module);
        for (other, refs) in &external_refs {
            if other != &module {
                roots.extend(refs.iter().cloned());
            }
        }
        let (trimmed, module_removed) = faaslight_trim_module(&program, &roots);
        if module_removed.is_empty() {
            continue;
        }
        let original_source = work.source(&module).expect("module exists").to_owned();
        let mut trimmed_src = pylite::unparse(&trimmed);
        // The safeguard stub: FaaSLight keeps machinery to re-fetch removed
        // code on demand; model its footprint as a small guard allocation.
        trimmed_src.push_str("__faaslight_guard__ = __lt_alloc__(0.5)\n");
        work.set_module(&module, trimmed_src);
        if probe.passes(&work) {
            removed.insert(module.clone(), module_removed);
        } else {
            work.set_module(&module, original_source);
            reverted.push(module.clone());
        }
    }
    let after = probe.verify(&work)?;
    Ok(BaselineReport {
        registry: work,
        removed,
        reverted,
        before: probe.expected().clone(),
        after,
    })
}

/// Run the Vulture-style baseline: remove definitions whose names appear in
/// a load position nowhere in the code base. Imports are never touched.
///
/// # Errors
///
/// [`TrimError::Baseline`] if the original application fails its oracle run.
/// The per-module revert keeps the final [`Probe::verify`] passing.
pub fn vulture_trim(
    registry: &Registry,
    app_source: &str,
    spec: &OracleSpec,
) -> Result<BaselineReport, TrimError> {
    let options = oracle_options();
    let mut probe = Probe::baseline(registry, app_source, spec, &options)?;
    let app_program = pylite::parse(app_source).map_err(TrimError::Parse)?;

    // Union of every referenced name across the entire code base.
    let mut used = BTreeSet::new();
    referenced_names(&app_program, &mut used);
    for name in registry.module_names() {
        if let Ok(p) = registry.parse_module(&name) {
            referenced_names(&p, &mut used);
        }
    }

    let mut work = registry.clone();
    let mut removed = BTreeMap::new();
    let mut reverted = Vec::new();
    for module in registry.module_names() {
        let program = match registry.parse_module(&module) {
            Ok(p) => p,
            Err(_) => continue,
        };
        let mut body = Vec::new();
        let mut module_removed = Vec::new();
        for stmt in &program.body {
            let dead = match stmt {
                Stmt::FuncDef(f) => !used.contains(&f.name),
                Stmt::ClassDef(c) => !used.contains(&c.name),
                Stmt::Assign { targets, .. } => {
                    let names: Vec<String> = targets.iter().flat_map(target_names).collect();
                    !names.is_empty()
                        && names
                            .iter()
                            .all(|n| !used.contains(n) && !trim_core::is_magic(n))
                }
                // Vulture reports unused imports but a safe automated pass
                // leaves them in place (imports have side effects).
                _ => false,
            };
            if dead {
                match stmt {
                    Stmt::FuncDef(f) => module_removed.push(f.name.clone()),
                    Stmt::ClassDef(c) => module_removed.push(c.name.clone()),
                    Stmt::Assign { targets, .. } => {
                        module_removed.extend(targets.iter().flat_map(target_names))
                    }
                    _ => {}
                }
            } else {
                body.push(stmt.clone());
            }
        }
        if module_removed.is_empty() {
            continue;
        }
        if body.is_empty() {
            body.push(Stmt::Pass);
        }
        let original_source = work.source(&module).expect("module exists").to_owned();
        work.set_module(&module, pylite::unparse(&Program { body }));
        if probe.passes(&work) {
            removed.insert(module.clone(), module_removed);
        } else {
            work.set_module(&module, original_source);
            reverted.push(module.clone());
        }
    }
    let after = probe.verify(&work)?;
    Ok(BaselineReport {
        registry: work,
        removed,
        reverted,
        before: probe.expected().clone(),
        after,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use trim_core::oracle::TestCase;

    fn corpus() -> Registry {
        let mut r = Registry::new();
        r.set_module(
            "lib",
            "from lib.heavy import Big, Unused\n__lt_work__(20)\ndef api(x):\n    return helper(x)\ndef helper(x):\n    return x + 1\ndef dead_fn(x):\n    return x * 999\ndead_const = 12345\n",
        );
        r.set_module(
            "lib.heavy",
            "__lt_work__(100)\n_w = __lt_alloc__(40)\nclass Big:\n    pass\nclass Unused:\n    pass\n",
        );
        r
    }

    const APP: &str =
        "import lib\ndef handler(event, context):\n    return lib.api(event[\"n\"])\n";

    fn spec() -> OracleSpec {
        OracleSpec::new(vec![TestCase::event("{\"n\": 1}")])
    }

    #[test]
    fn faaslight_removes_unreachable_defs() {
        let report = faaslight_trim(&corpus(), APP, &spec()).unwrap();
        assert!(report.after.behavior_eq(&report.before));
        let lib_removed = report.removed.get("lib").cloned().unwrap_or_default();
        assert!(lib_removed.contains(&"dead_fn".to_owned()));
        assert!(lib_removed.contains(&"dead_const".to_owned()));
        // `helper` is referenced by `api` — kept by the fixpoint.
        let src = report.registry.source("lib").unwrap();
        assert!(src.contains("def helper"));
    }

    #[test]
    fn faaslight_cannot_split_from_import_lists() {
        // `Big`/`Unused` come from one from-import; the statement is live
        // because lib.heavy's classes are referenced *somewhere* — statement
        // granularity keeps the whole list (the §6.1 limitation).
        let report = faaslight_trim(&corpus(), APP, &spec()).unwrap();
        let src = report.registry.source("lib").unwrap();
        let kept_both = src.contains("Big") && src.contains("Unused");
        let dropped_both = !src.contains("Big") && !src.contains("Unused");
        assert!(
            kept_both || dropped_both,
            "statement granularity is all-or-nothing:\n{src}"
        );
    }

    #[test]
    fn faaslight_guard_costs_memory() {
        let report = faaslight_trim(&corpus(), APP, &spec()).unwrap();
        if !report.removed.is_empty() {
            let src = report.registry.source("lib").unwrap();
            assert!(src.contains("__faaslight_guard__"));
        }
    }

    #[test]
    fn vulture_removes_globally_unreferenced_defs_only() {
        let report = vulture_trim(&corpus(), APP, &spec()).unwrap();
        assert!(report.after.behavior_eq(&report.before));
        let lib_removed = report.removed.get("lib").cloned().unwrap_or_default();
        assert!(lib_removed.contains(&"dead_fn".to_owned()));
        // Imports are untouched, so lib.heavy still loads.
        let src = report.registry.source("lib").unwrap();
        assert!(src.contains("from lib.heavy import"));
    }

    #[test]
    fn vulture_never_beats_import_time() {
        let report = vulture_trim(&corpus(), APP, &spec()).unwrap();
        // lib.heavy's __lt_work__ still executes: init time barely moves.
        assert!(report.after.init_secs >= report.before.init_secs * 0.95);
    }

    #[test]
    fn baselines_preserve_behavior_or_revert() {
        // A module whose "dead" code is actually needed dynamically: the
        // oracle check must revert it.
        let mut r = corpus();
        r.set_module(
            "dynamic",
            "def hidden(x):\n    return x * 2\ndef api(x):\n    return getattr_helper(x)\ndef getattr_helper(x):\n    return hidden(x)\n",
        );
        let app = "import dynamic\nimport lib\ndef handler(event, context):\n    return dynamic.api(event[\"n\"]) + lib.api(0)\n";
        let report = faaslight_trim(&r, app, &spec()).unwrap();
        assert!(report.after.behavior_eq(&report.before));
    }

    #[test]
    fn report_counts_removed_attributes() {
        let report = faaslight_trim(&corpus(), APP, &spec()).unwrap();
        assert_eq!(
            report.attrs_removed(),
            report.removed.values().map(Vec::len).sum::<usize>()
        );
        assert!(report.attrs_removed() >= 2);
    }
}
