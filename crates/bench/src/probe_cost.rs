//! Per-probe cost of the two ways to build a DD probe, each including the
//! oracle run.
//!
//! A **source probe** ([`source_probe`]) is what the debloater did before
//! mask probes: rewrite the module's AST to the keep set, unparse it,
//! install the text with [`Registry::with_module`], then lex, parse,
//! resolve and compile it when the app imports it. A **mask probe**
//! ([`mask_probe`]) builds the keep set's [`pylite::KeepMask`] and runs the
//! base module's compiled code under it ([`Registry::with_mask`]). Both run
//! the app's oracle cases on the VM with init snapshots on, as DD does; the
//! probed module is denied snapshot replay so every run executes it, as
//! every new DD candidate does.
//!
//! This is a per-layer measurement: the end-to-end effect is the
//! `cold-trim` pass time of the e2e benchmark.

use std::collections::BTreeSet;
use std::sync::Arc;
use std::time::Instant;

use pylite::{Engine, Program, Registry};
use trim_apps::BenchApp;
use trim_core::{module_attributes, rewrite_module, run_app_measured_opts, BindingTable};

/// One probe of `module` keeping `keep`, built from rewritten source.
/// Returns whether the app ran without error.
pub fn source_probe(
    app: &BenchApp,
    module: &str,
    program: &Program,
    keep: &BTreeSet<String>,
) -> bool {
    let overlay = app
        .registry
        .with_module(module, pylite::unparse(&rewrite_module(program, keep)));
    run(app, &overlay)
}

/// The same probe as a keep-mask over the module's compiled code.
pub fn mask_probe(
    app: &BenchApp,
    module: &str,
    table: &BindingTable,
    keep: &BTreeSet<String>,
) -> bool {
    let overlay = app.registry.with_mask(module, Arc::new(table.mask(keep)));
    run(app, &overlay)
}

fn run(app: &BenchApp, registry: &Registry) -> bool {
    let (result, _) = run_app_measured_opts(registry, &app.app_source, &app.spec, Engine::Vm, true);
    result.is_ok()
}

/// Median per-probe cost of both probe builds for one app.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProbeCost {
    /// Median nanoseconds per source probe (rewrite, unparse, overlay,
    /// lex, parse, resolve, compile, run).
    pub source_ns: u64,
    /// Median nanoseconds per mask probe (mask, overlay, run).
    pub mask_ns: u64,
}

impl ProbeCost {
    /// How many times cheaper the mask probe is.
    pub fn speedup(&self) -> f64 {
        self.source_ns as f64 / self.mask_ns.max(1) as f64
    }
}

fn median_ns<F: FnMut()>(mut f: F, samples: usize, iters: u32) -> u64 {
    let mut timings: Vec<u64> = (0..samples.max(1))
        .map(|_| {
            let start = Instant::now();
            for _ in 0..iters.max(1) {
                f();
            }
            (start.elapsed().as_nanos() / iters.max(1) as u128) as u64
        })
        .collect();
    timings.sort_unstable();
    timings[timings.len() / 2]
}

/// Measure both probe builds on `app`'s Table 3 example module, keeping
/// every attribute (the first candidate ddmin tests). The baseline run
/// warms the registry's shared caches first, as the pipeline's does.
pub fn measure(app: &BenchApp, iters: u32) -> ProbeCost {
    let module = app.example_module.as_str();
    let program = app
        .registry
        .parse_module(module)
        .expect("example module parses");
    let keep: BTreeSet<String> = module_attributes(&program).into_iter().collect();
    let table = BindingTable::new(&program);
    assert!(run(app, &app.registry), "{}: baseline run fails", app.name);
    app.registry.snapshot_store().deny(module);
    let source_ns = median_ns(
        || {
            std::hint::black_box(source_probe(app, module, &program, &keep));
        },
        9,
        iters,
    );
    let mask_ns = median_ns(
        || {
            std::hint::black_box(mask_probe(app, module, &table, &keep));
        },
        9,
        iters,
    );
    ProbeCost { source_ns, mask_ns }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn both_probes_agree_on_every_keep_set_size() {
        let app = trim_apps::app("markdown").expect("corpus app");
        let module = app.example_module.clone();
        let program = app.registry.parse_module(&module).unwrap();
        let table = BindingTable::new(&program);
        let attrs = module_attributes(&program);
        for n in [0, attrs.len() / 2, attrs.len()] {
            let keep: BTreeSet<String> = attrs.iter().take(n).cloned().collect();
            assert_eq!(
                source_probe(&app, &module, &program, &keep),
                mask_probe(&app, &module, &table, &keep),
                "keep {keep:?}"
            );
        }
    }

    #[test]
    fn measure_times_both_probes() {
        let app = trim_apps::app("markdown").expect("corpus app");
        let cost = measure(&app, 2);
        assert!(cost.source_ns > 0 && cost.mask_ns > 0);
        assert!(cost.speedup() > 0.0);
    }
}
