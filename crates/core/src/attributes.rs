//! Attribute-granularity decomposition of a module (§6.1).
//!
//! When a Python module is imported, every top-level statement executes in
//! program order and each *binding* statement adds an attribute to the module
//! namespace. λ-trim runs DD at this attribute granularity: coarser than
//! statements for function/class definitions (a whole def is one attribute),
//! identical for `import` statements, and *finer* for `from m import a, b, c`
//! — each imported name is its own attribute, so unused names can be trimmed
//! out of the list individually.

use pylite::ast::{Program, Stmt};

/// Whether a name is a magic/dunder attribute (`__file__`, `__name__`, …).
/// Magic attributes are excluded from DD (§6.3).
pub fn is_magic(name: &str) -> bool {
    name.len() > 4 && name.starts_with("__") && name.ends_with("__")
}

/// Extract the top-level attributes a module's body defines, in first-binding
/// order, without duplicates.
///
/// Statements that do not bind a top-level name (bare expressions, loops,
/// conditionals, try blocks) define no attributes and are never touched by
/// the rewriter ("all other code is untouched", §6.3).
pub fn module_attributes(program: &Program) -> Vec<String> {
    let mut seen = std::collections::HashSet::new();
    let mut out = Vec::new();
    let mut push = |name: &str, out: &mut Vec<String>| {
        if !is_magic(name) && seen.insert(name.to_owned()) {
            out.push(name.to_owned());
        }
    };
    for stmt in &program.body {
        match stmt {
            Stmt::FuncDef(f) => push(&f.name, &mut out),
            Stmt::ClassDef(c) => push(&c.name, &mut out),
            Stmt::Assign { targets, .. } => {
                for t in targets {
                    for name in target_names(t) {
                        push(&name, &mut out);
                    }
                }
            }
            Stmt::Import { items } => {
                for item in items {
                    push(item.bound_name(), &mut out);
                }
            }
            Stmt::FromImport { names, .. } => {
                for (name, alias) in names {
                    push(alias.as_deref().unwrap_or(name), &mut out);
                }
            }
            _ => {}
        }
    }
    out
}

/// The plain names an assignment target binds, through tuple and list
/// targets.
pub(crate) fn target_names(target: &pylite::ast::Expr) -> Vec<String> {
    use pylite::ast::Expr;
    match target {
        Expr::Name(n) => vec![n.clone()],
        Expr::Tuple(items) | Expr::List(items) => items.iter().flat_map(target_names).collect(),
        _ => Vec::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pylite::parse;

    #[test]
    fn collects_defs_classes_assigns_imports() {
        let p = parse(
            "import boto3\nfrom torch.nn import Linear, MSELoss as L\nx = 1\ndef f():\n    pass\nclass C:\n    pass\n",
        )
        .unwrap();
        assert_eq!(
            module_attributes(&p),
            vec!["boto3", "Linear", "L", "x", "f", "C"]
        );
    }

    #[test]
    fn dotted_import_binds_top_package() {
        let p = parse("import torch.nn\nimport torch.optim as opt\n").unwrap();
        assert_eq!(module_attributes(&p), vec!["torch", "opt"]);
    }

    #[test]
    fn duplicates_keep_first_position() {
        let p = parse("x = 1\ny = 2\nx = 3\n").unwrap();
        assert_eq!(module_attributes(&p), vec!["x", "y"]);
    }

    #[test]
    fn magic_attributes_are_excluded() {
        let p = parse("__version__ = \"1.0\"\n__all__ = []\nreal = 1\n").unwrap();
        assert_eq!(module_attributes(&p), vec!["real"]);
    }

    #[test]
    fn non_binding_statements_define_nothing() {
        let p =
            parse("print(\"side effect\")\nif x:\n    y = 1\nfor i in []:\n    pass\n").unwrap();
        assert!(module_attributes(&p).is_empty());
    }

    #[test]
    fn tuple_assignment_binds_each_name() {
        let p = parse("a, b = (1, 2)\n").unwrap();
        assert_eq!(module_attributes(&p), vec!["a", "b"]);
    }

    #[test]
    fn is_magic_matches_dunders_only() {
        assert!(is_magic("__file__"));
        assert!(is_magic("__version__"));
        assert!(!is_magic("__x")); // not a closing dunder
        assert!(!is_magic("version"));
        assert!(!is_magic("____")); // too short to be a real dunder name
    }
}
