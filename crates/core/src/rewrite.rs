//! AST rewriting: produce a module that keeps only a chosen attribute set
//! (§6.3 — "the original `__init__.py` file is retrieved and then modified
//! based on the attributes that DD currently tests", via a single traversal).
//!
//! A keep set becomes a [`KeepMask`] over the module's top-level statements
//! through a [`BindingTable`] built once per module. DD probes run the mask
//! directly on the module's compiled code
//! ([`Registry::with_mask`](pylite::Registry::with_mask)); the committed
//! source is the same mask applied to the AST, so both come from one keep
//! decision.

use crate::attributes::{is_magic, target_names};
use pylite::ast::{Program, Stmt};
use pylite::{KeepMask, StmtKeep};
use std::collections::BTreeSet;

/// What each top-level statement of a module binds: the per-module table
/// every keep set is turned into a [`KeepMask`] through.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BindingTable {
    stmts: Vec<Binds>,
}

/// The keep rule of one top-level statement.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Binds {
    /// Kept under every keep set: non-binding statements, magic names and
    /// assignments to no plain name.
    Always,
    /// A `def`, `class` or assignment, kept if any of its names is kept.
    Any(Vec<String>),
    /// An import list: one bound name per item, each kept on its own.
    Items(Vec<String>),
}

impl BindingTable {
    /// Tabulate `program`'s top-level bindings.
    pub fn new(program: &Program) -> Self {
        let stmts = program
            .body
            .iter()
            .map(|stmt| match stmt {
                Stmt::FuncDef(f) => named(vec![f.name.clone()]),
                Stmt::ClassDef(c) => named(vec![c.name.clone()]),
                Stmt::Assign { targets, .. } => {
                    named(targets.iter().flat_map(target_names).collect())
                }
                Stmt::Import { items } => {
                    Binds::Items(items.iter().map(|i| i.bound_name().to_owned()).collect())
                }
                Stmt::FromImport { names, .. } => Binds::Items(
                    names
                        .iter()
                        .map(|(n, a)| a.as_deref().unwrap_or(n).to_owned())
                        .collect(),
                ),
                _ => Binds::Always,
            })
            .collect();
        BindingTable { stmts }
    }

    /// The mask that keeps exactly the attributes in `keep`:
    ///
    /// * `def` / `class` definitions whose name is not kept are dropped;
    /// * `x = ...` assignments are dropped when none of their targets is
    ///   kept;
    /// * `import m` clauses are dropped when their bound name is not kept;
    /// * `from m import a, b` lists are *filtered* — individual names drop
    ///   out (the finer-than-statement granularity that §6.1 argues for);
    /// * every other statement (bare expressions, conditionals, loops, try
    ///   blocks, magic-attribute assignments) is left untouched;
    /// * an empty result body becomes a single `pass` (Figure 7b).
    pub fn mask(&self, keep: &BTreeSet<String>) -> KeepMask {
        let stmts = self
            .stmts
            .iter()
            .map(|binds| match binds {
                Binds::Always => StmtKeep::Keep,
                Binds::Any(names) if names.iter().any(|n| keep.contains(n)) => StmtKeep::Keep,
                Binds::Any(_) => StmtKeep::Drop,
                Binds::Items(names) => {
                    StmtKeep::Items(names.iter().map(|n| keep.contains(n)).collect())
                }
            })
            .collect();
        KeepMask::new(stmts, true)
    }
}

/// The keep rule of a `def`, `class` or assignment binding `names`.
fn named(names: Vec<String>) -> Binds {
    if names.is_empty() || names.iter().any(|n| is_magic(n)) {
        Binds::Always
    } else {
        Binds::Any(names)
    }
}

/// Rewrite `program` so that only top-level attributes in `keep` remain:
/// the [`BindingTable::mask`] rules applied to the AST.
pub fn rewrite_module(program: &Program, keep: &BTreeSet<String>) -> Program {
    BindingTable::new(program).mask(keep).apply(program)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attributes::module_attributes;
    use pylite::parse;

    fn keep(names: &[&str]) -> BTreeSet<String> {
        names.iter().map(|s| (*s).to_owned()).collect()
    }

    const TORCH_INIT: &str = "from torch.nn import Linear, MSELoss\nfrom torch.optim import SGD\nclass tensor:\n    def __init__(self, data):\n        self.data = data\ndef add(t1, t2):\n    return t1\ndef view(t, dim1, dim2):\n    return t\n";

    #[test]
    fn figure7_debloating_example() {
        // Figure 7: keeping {tensor, add, view, Linear} drops MSELoss from
        // the from-import list and removes the torch.optim import entirely.
        let p = parse(TORCH_INIT).unwrap();
        let out = rewrite_module(&p, &keep(&["tensor", "add", "view", "Linear"]));
        let src = pylite::unparse(&out);
        assert!(src.contains("from torch.nn import Linear\n"));
        assert!(!src.contains("MSELoss"));
        assert!(!src.contains("torch.optim"));
        assert!(src.contains("class tensor"));
        assert!(src.contains("def add"));
    }

    #[test]
    fn rewrite_preserves_attribute_subset_exactly() {
        let p = parse(TORCH_INIT).unwrap();
        let kept = keep(&["tensor", "SGD"]);
        let out = rewrite_module(&p, &kept);
        let attrs: BTreeSet<String> = module_attributes(&out).into_iter().collect();
        assert_eq!(attrs, kept);
    }

    #[test]
    fn empty_keep_set_becomes_pass() {
        let p = parse("x = 1\ndef f():\n    pass\n").unwrap();
        let out = rewrite_module(&p, &BTreeSet::new());
        assert_eq!(pylite::unparse(&out), "pass\n");
    }

    #[test]
    fn non_binding_statements_are_untouched() {
        let p = parse("print(\"hi\")\nx = 1\nif True:\n    helper_state = 2\n").unwrap();
        let out = rewrite_module(&p, &BTreeSet::new());
        let src = pylite::unparse(&out);
        assert!(src.contains("print(\"hi\")"));
        assert!(src.contains("if True:"));
        assert!(!src.contains("x = 1"));
    }

    #[test]
    fn magic_assignments_survive() {
        let p = parse("__version__ = \"1.0\"\nx = 1\n").unwrap();
        let out = rewrite_module(&p, &BTreeSet::new());
        let src = pylite::unparse(&out);
        assert!(src.contains("__version__"));
        assert!(!src.contains("x = 1"));
    }

    #[test]
    fn import_aliases_are_respected() {
        let p = parse("import numpy as np, pandas as pd\n").unwrap();
        let out = rewrite_module(&p, &keep(&["np"]));
        let src = pylite::unparse(&out);
        assert!(src.contains("numpy as np"));
        assert!(!src.contains("pandas"));
    }

    #[test]
    fn rewritten_source_reparses() {
        let p = parse(TORCH_INIT).unwrap();
        for kept in [
            keep(&["tensor"]),
            keep(&["Linear", "view"]),
            keep(&[]),
            keep(&["tensor", "add", "view", "Linear", "MSELoss", "SGD"]),
        ] {
            let out = rewrite_module(&p, &kept);
            let src = pylite::unparse(&out);
            assert!(
                pylite::parse(&src).is_ok(),
                "rewritten source must parse:\n{src}"
            );
        }
    }

    #[test]
    fn full_keep_set_is_identity_on_attributes() {
        let p = parse(TORCH_INIT).unwrap();
        let all: BTreeSet<String> = module_attributes(&p).into_iter().collect();
        let out = rewrite_module(&p, &all);
        assert_eq!(module_attributes(&out), module_attributes(&p));
    }
}
