//! Keep-masks: one probe candidate as the set of a module's top-level
//! statements that run (DESIGN.md §16).
//!
//! A DD or slicer probe keeps some of a module's top-level statements and,
//! inside `import` / `from … import` lists, some of the names. A
//! [`KeepMask`] records that decision per statement of the base module.
//! [`Registry::with_mask`](crate::Registry::with_mask) turns it into a
//! registry overlay that shares the base's parse, resolve and bytecode
//! slots; the interpreter skips the masked statements on both engines, so
//! a probe costs no lexing, parsing, resolving or compiling.
//! [`KeepMask::apply`] makes the same decision on the AST, which is the
//! source a caller commits once the search is over.

use crate::ast::{Program, Stmt};

/// What a mask keeps of one top-level statement.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StmtKeep {
    /// The statement runs unchanged.
    Keep,
    /// The statement does not run.
    Drop,
    /// Only the flagged names of an `import` / `from … import` list run,
    /// in their original order. At least one flag is set and at least one
    /// is clear ([`KeepMask::new`] turns the other cases into
    /// [`StmtKeep::Keep`] / [`StmtKeep::Drop`]).
    Items(Box<[bool]>),
}

/// A keep decision over every top-level statement of one module.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KeepMask {
    stmts: Box<[StmtKeep]>,
    pass_if_empty: bool,
}

impl KeepMask {
    /// A mask with one entry per top-level statement. When
    /// `pass_if_empty` is set and nothing is kept, the masked module is a
    /// single `pass` statement, which is what an attribute rewrite emits
    /// for an empty body; otherwise it is empty.
    pub fn new(stmts: Vec<StmtKeep>, pass_if_empty: bool) -> Self {
        let stmts = stmts
            .into_iter()
            .map(|s| match s {
                StmtKeep::Items(flags) if flags.iter().all(|k| *k) => StmtKeep::Keep,
                StmtKeep::Items(flags) if !flags.iter().any(|k| *k) => StmtKeep::Drop,
                other => other,
            })
            .collect();
        KeepMask {
            stmts,
            pass_if_empty,
        }
    }

    /// Keep exactly the statements at the `kept` indexes of a `total`-long
    /// body; an empty selection is an empty body.
    ///
    /// # Panics
    ///
    /// If an index in `kept` is not below `total`.
    pub fn statements(total: usize, kept: &[usize]) -> Self {
        let mut stmts = vec![StmtKeep::Drop; total];
        for &i in kept {
            stmts[i] = StmtKeep::Keep;
        }
        KeepMask {
            stmts: stmts.into_boxed_slice(),
            pass_if_empty: false,
        }
    }

    /// The per-statement decisions, in body order.
    pub(crate) fn stmts(&self) -> &[StmtKeep] {
        &self.stmts
    }

    /// Whether the masked module is the lone `pass` of an empty rewrite.
    pub(crate) fn runs_pass(&self) -> bool {
        self.pass_if_empty && self.stmts.iter().all(|s| *s == StmtKeep::Drop)
    }

    /// Whether this mask was built for `program`'s body: one entry per
    /// statement, and name flags only on import lists of the same length.
    pub fn fits(&self, program: &Program) -> bool {
        self.stmts.len() == program.body.len()
            && self
                .stmts
                .iter()
                .zip(&program.body)
                .all(|(keep, stmt)| match (keep, stmt) {
                    (StmtKeep::Items(flags), Stmt::Import { items }) => flags.len() == items.len(),
                    (StmtKeep::Items(flags), Stmt::FromImport { names, .. }) => {
                        flags.len() == names.len()
                    }
                    (StmtKeep::Items(_), _) => false,
                    _ => true,
                })
    }

    /// The masked module as an AST: kept statements in order, import lists
    /// filtered to their kept names, and `pass` for an empty rewrite.
    ///
    /// # Panics
    ///
    /// If the mask does not [fit](KeepMask::fits) `program`.
    pub fn apply(&self, program: &Program) -> Program {
        assert!(self.fits(program), "keep-mask does not fit the module");
        let mut body = Vec::with_capacity(program.body.len());
        for (keep, stmt) in self.stmts.iter().zip(&program.body) {
            match (keep, stmt) {
                (StmtKeep::Drop, _) => {}
                (StmtKeep::Keep, _) => body.push(stmt.clone()),
                (StmtKeep::Items(flags), Stmt::Import { items }) => body.push(Stmt::Import {
                    items: kept_items(items, flags).cloned().collect(),
                }),
                (StmtKeep::Items(flags), Stmt::FromImport { module, names }) => {
                    body.push(Stmt::FromImport {
                        module: module.clone(),
                        names: kept_items(names, flags).cloned().collect(),
                    });
                }
                (StmtKeep::Items(_), _) => unreachable!("checked by fits"),
            }
        }
        if body.is_empty() && self.pass_if_empty {
            body.push(Stmt::Pass);
        }
        Program { body }
    }

    /// A stable 64-bit digest of the decisions, mixed into a masked
    /// overlay's module fingerprint.
    pub(crate) fn digest(&self) -> u64 {
        let mut h = crate::registry::Fnv::new();
        h.byte(u8::from(self.pass_if_empty));
        for s in self.stmts.iter() {
            match s {
                StmtKeep::Keep => h.byte(1),
                StmtKeep::Drop => h.byte(2),
                StmtKeep::Items(flags) => {
                    h.byte(3);
                    for &k in flags.iter() {
                        h.byte(u8::from(k));
                    }
                    h.byte(0xff);
                }
            }
        }
        h.finish()
    }
}

/// The items of an import list whose flag is set, in order.
pub(crate) fn kept_items<'a, T>(items: &'a [T], flags: &'a [bool]) -> impl Iterator<Item = &'a T> {
    items.iter().zip(flags).filter(|(_, k)| **k).map(|(i, _)| i)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{parse, unparse};

    const SRC: &str = "import a, b as c\nfrom m import x, y as z\ndef f():\n    pass\nprint(1)\n";

    #[test]
    fn items_masks_filter_import_lists() {
        let p = parse(SRC).unwrap();
        let mask = KeepMask::new(
            vec![
                StmtKeep::Items(Box::new([false, true])),
                StmtKeep::Items(Box::new([true, false])),
                StmtKeep::Drop,
                StmtKeep::Keep,
            ],
            true,
        );
        assert!(mask.fits(&p));
        assert_eq!(
            unparse(&mask.apply(&p)),
            "import b as c\nfrom m import x\nprint(1)\n"
        );
    }

    #[test]
    fn new_normalizes_full_and_empty_item_lists() {
        let a = KeepMask::new(vec![StmtKeep::Items(Box::new([true, true]))], false);
        let b = KeepMask::new(vec![StmtKeep::Items(Box::new([false, false]))], false);
        assert_eq!(a.stmts(), &[StmtKeep::Keep]);
        assert_eq!(b.stmts(), &[StmtKeep::Drop]);
        assert_ne!(a.digest(), b.digest());
    }

    #[test]
    fn empty_rewrite_is_pass_but_empty_slice_is_empty() {
        let p = parse("x = 1\n").unwrap();
        let rewrite = KeepMask::new(vec![StmtKeep::Drop], true);
        assert!(rewrite.runs_pass());
        assert_eq!(unparse(&rewrite.apply(&p)), "pass\n");
        let slice = KeepMask::statements(1, &[]);
        assert!(!slice.runs_pass());
        assert!(slice.apply(&p).body.is_empty());
        assert_ne!(rewrite.digest(), slice.digest());
    }

    #[test]
    fn misfit_masks_are_detected() {
        let p = parse(SRC).unwrap();
        assert!(!KeepMask::statements(3, &[0]).fits(&p));
        let wrong_items = KeepMask::new(
            vec![
                StmtKeep::Keep,
                StmtKeep::Keep,
                StmtKeep::Items(Box::new([true, false])),
                StmtKeep::Keep,
            ],
            false,
        );
        assert!(!wrong_items.fits(&p));
    }
}
