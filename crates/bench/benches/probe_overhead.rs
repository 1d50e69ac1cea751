//! Per-probe cost of a DD probe built from rewritten source against one
//! built as a keep-mask over the module's compiled code, oracle run
//! included (see `trim_bench::probe_cost`).
//!
//! Each probe keeps every attribute of the app's Table 3 example module.
//! `source-probe` rewrites, unparses, installs and recompiles the module;
//! `mask-probe` runs the base module's compiled code under the mask.

use std::collections::BTreeSet;
use std::hint::black_box;
use trim_bench::micro::Runner;
use trim_bench::probe_cost::{mask_probe, source_probe};
use trim_core::{module_attributes, BindingTable};

fn main() {
    let runner = Runner::new();
    for name in ["markdown", "scikit", "lightgbm", "huggingface"] {
        let app = trim_apps::app(name).expect("corpus app");
        let module = app.example_module.clone();
        let program = app.registry.parse_module(&module).expect("module parses");
        let keep: BTreeSet<String> = module_attributes(&program).into_iter().collect();
        let table = BindingTable::new(&program);
        // Warm the shared caches like the pipeline's baseline run, and keep
        // the probed module live like every new DD candidate.
        assert!(mask_probe(&app, &module, &table, &keep));
        app.registry.snapshot_store().deny(&module);
        runner.bench(&format!("probe-overhead/{name}/source-probe"), || {
            black_box(source_probe(&app, &module, &program, &keep))
        });
        runner.bench(&format!("probe-overhead/{name}/mask-probe"), || {
            black_box(mask_probe(&app, &module, &table, &keep))
        });
    }
}
