//! The pylite tree-walking interpreter with instrumentable import machinery.
//!
//! An [`Interpreter`] owns a module [`Registry`] (the virtual site-packages),
//! a [`Meter`] (virtual clock + simulated memory), a `sys.modules` cache and
//! captured stdout / external-call logs. λ-trim's profiler reads the
//! [`ImportEvent`]s the interpreter records around every module-body
//! execution — the Rust analogue of the paper's patched import loader (§5.2).
//!
//! The evaluator walks the symbol-resolved IR ([`crate::resolved`]): names
//! are pre-interned [`Symbol`]s, namespaces hash a single `u32` per lookup,
//! and module-attribute sites (`mod.attr`) carry monomorphic inline caches
//! keyed on module identity plus the namespace generation counter (see
//! DESIGN.md §8). Observable behavior — stdout, exceptions, meter ticks,
//! simulated allocations and observed accesses — is byte-identical to the
//! string-walking evaluator it replaced.

use crate::ast::{BinOp, BoolOp, CmpOp, UnaryOp};
use crate::cost::{mb_to_bytes, ms_to_ns, CostModel, Meter};
use crate::intern::{Interner, Symbol, SymbolHashBuilder};
use crate::mask::{kept_items, KeepMask, StmtKeep};
use crate::registry::Registry;
use crate::resolved::{resolve_program, RClassDef, RExpr, RFuncDef, RStmt};
use crate::snapshot::{
    rehydrate, InitSnapshot, LogEvent, SnapEvent, SnapRecorder, SnapshotBuilder,
};
use crate::value::{
    py_eq, py_repr, py_str, Builtin, ExcKind, ModuleObj, Namespace, NativeMethod, PyClass, PyErr,
    PyFunc, PyInstance, Value,
};
use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::rc::Rc;
use std::sync::Arc;

/// One recorded module-body execution, with its *marginal* cost: the delta
/// in virtual clock and simulated memory between the start and the end of
/// the body run (inclusive of any nested imports it triggered, exactly as
/// the paper defines `t` and `m` — "modules and all their submodules").
#[derive(Debug, Clone, PartialEq)]
pub struct ImportEvent {
    /// Dotted module name.
    pub module: String,
    /// Nesting depth: 0 for imports executed directly by `__main__`.
    pub depth: usize,
    /// Marginal virtual time in nanoseconds.
    pub time_ns: u64,
    /// Marginal simulated memory in bytes.
    pub mem_bytes: u64,
}

/// Control flow outcome of a statement.
pub(crate) enum Flow {
    Normal,
    Return(Value),
    Break,
    Continue,
}

/// Execution environment: the module globals plus, inside functions, a
/// locals namespace and the set of `global`-declared names.
pub(crate) struct Env {
    pub(crate) globals: Namespace,
    pub(crate) locals: Option<Namespace>,
    pub(crate) global_decls: HashSet<Symbol, SymbolHashBuilder>,
    pub(crate) module: Rc<str>,
}

/// Pre-interned symbols for names the interpreter itself consults on hot
/// or semantic paths (`__name__`, `__init__`, exception fields, ...).
struct CommonSyms {
    name: Symbol,
    file: Symbol,
    message: Symbol,
    args: Symbol,
    init: Symbol,
}

impl CommonSyms {
    fn new(interner: &Interner) -> Self {
        CommonSyms {
            name: interner.intern("__name__"),
            file: interner.intern("__file__"),
            message: interner.intern("message"),
            args: interner.intern("args"),
            init: interner.intern("__init__"),
        }
    }
}

/// Pre-interned native-method names, so `xs.append` resolves with symbol
/// compares instead of resolving the attribute symbol back to a string.
struct NativeSyms {
    append: Symbol,
    extend: Symbol,
    pop: Symbol,
    index: Symbol,
    count: Symbol,
    get: Symbol,
    keys: Symbol,
    values: Symbol,
    items: Symbol,
    update: Symbol,
    upper: Symbol,
    lower: Symbol,
    strip: Symbol,
    split: Symbol,
    join: Symbol,
    replace: Symbol,
    startswith: Symbol,
    endswith: Symbol,
    format: Symbol,
}

impl NativeSyms {
    fn new(interner: &Interner) -> Self {
        NativeSyms {
            append: interner.intern("append"),
            extend: interner.intern("extend"),
            pop: interner.intern("pop"),
            index: interner.intern("index"),
            count: interner.intern("count"),
            get: interner.intern("get"),
            keys: interner.intern("keys"),
            values: interner.intern("values"),
            items: interner.intern("items"),
            update: interner.intern("update"),
            upper: interner.intern("upper"),
            lower: interner.intern("lower"),
            strip: interner.intern("strip"),
            split: interner.intern("split"),
            join: interner.intern("join"),
            replace: interner.intern("replace"),
            startswith: interner.intern("startswith"),
            endswith: interner.intern("endswith"),
            format: interner.intern("format"),
        }
    }

    /// The symbol-keyed twin of [`NativeMethod::resolve`].
    fn resolve(&self, recv: &Value, attr: Symbol) -> Option<NativeMethod> {
        use NativeMethod::*;
        match recv {
            Value::List(_) => match attr {
                a if a == self.append => Some(Append),
                a if a == self.extend => Some(Extend),
                a if a == self.pop => Some(Pop),
                a if a == self.index => Some(Index),
                a if a == self.count => Some(Count),
                _ => None,
            },
            Value::Dict(_) => match attr {
                a if a == self.get => Some(Get),
                a if a == self.keys => Some(Keys),
                a if a == self.values => Some(Values),
                a if a == self.items => Some(Items),
                a if a == self.update => Some(Update),
                a if a == self.pop => Some(Pop),
                _ => None,
            },
            Value::Str(_) => match attr {
                a if a == self.upper => Some(Upper),
                a if a == self.lower => Some(Lower),
                a if a == self.strip => Some(Strip),
                a if a == self.split => Some(Split),
                a if a == self.join => Some(Join),
                a if a == self.replace => Some(Replace),
                a if a == self.startswith => Some(Startswith),
                a if a == self.endswith => Some(Endswith),
                a if a == self.format => Some(Format),
                a if a == self.count => Some(Count),
                _ => None,
            },
            _ => None,
        }
    }
}

/// One monomorphic inline-cache entry for a `mod.attr` site: valid while
/// the access still hits the *same* namespace object at the *same*
/// generation (any `set`/`del` bumps the generation and kills the entry).
struct IcEntry {
    ns: Namespace,
    generation: u64,
    value: Value,
}

/// Which execution tier runs module bodies and function code.
///
/// [`Engine::Vm`] (the default) compiles the resolved IR into the compact
/// bytecode of [`crate::bytecode`] and runs its dispatch loop;
/// [`Engine::Tree`] walks the resolved AST directly and is retained as the
/// differential reference of the test suites. Both tiers are byte-identical
/// in observable behavior: stdout, exceptions, meter ticks and simulated
/// allocations, and observed accesses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Engine {
    /// Compiled-bytecode dispatch loop (the default tier).
    #[default]
    Vm,
    /// Tree-walking reference evaluator.
    Tree,
}

/// Default per-run step budget (statements). Debloated candidate programs
/// can in pathological cases loop forever; the budget turns that into a
/// deterministic [`ExcKind::ResourceExhausted`] failure the oracle rejects.
pub const DEFAULT_STEP_LIMIT: u64 = 50_000_000;

/// Maximum nesting of pylite function calls. A call beyond it raises
/// [`ExcKind::RecursionError`] before touching the meter, identically on
/// both engines, so runaway recursion becomes a failed run instead of a
/// native stack overflow. The bound is low because an unoptimized build
/// spends up to about 25 KB of native stack per pylite call: 48 calls fit
/// a 2 MiB thread stack with room for the import chain below them. The
/// corpus nests at most two calls.
pub(crate) const MAX_CALL_DEPTH: usize = 48;

/// A pylite interpreter instance.
///
/// Each interpreter is fully isolated: its own `sys.modules`, meter and
/// output buffers. λ-trim spawns a fresh interpreter per profiling run and
/// per DD probe — the equivalent of the paper's per-phase process spawning
/// (§7, "Module isolation").
#[derive(Debug)]
pub struct Interpreter {
    /// The virtual filesystem of modules.
    pub registry: Registry,
    /// Cost model constants.
    pub cost: CostModel,
    /// Virtual clock and simulated memory.
    pub meter: Meter,
    /// Captured `print` output, one entry per line.
    pub stdout: Vec<String>,
    /// Captured external-service calls (`__lt_extcall__`).
    pub extcalls: Vec<String>,
    /// Recorded module-body executions with marginal costs.
    pub import_events: Vec<ImportEvent>,
    /// Maximum number of statements executed before aborting.
    pub step_limit: u64,
    /// Execution tier for module bodies and function calls.
    pub engine: Engine,
    observed: HashSet<(Symbol, Symbol), SymbolHashBuilder>,
    modules: HashMap<String, Rc<ModuleObj>>,
    builtins: Namespace,
    import_depth: usize,
    call_depth: usize,
    interner: Arc<Interner>,
    syms: CommonSyms,
    native_syms: NativeSyms,
    ics: HashMap<u32, IcEntry, SymbolHashBuilder>,
    /// Recycled VM frames: nested bytecode calls pop a frame here instead
    /// of allocating fresh operand-stack/iterator vectors per invocation.
    pub(crate) vm_frames: Vec<crate::bytecode::VmFrame>,
    /// Init-snapshot recorder. `None` (the default) disables both capture
    /// and replay; the oracle enables it so DD probes can reuse module-body
    /// executions via the registry's shared [`crate::snapshot::SnapshotStore`].
    snap: Option<Box<SnapRecorder>>,
}

impl std::fmt::Debug for CommonSyms {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("CommonSyms")
    }
}

impl std::fmt::Debug for NativeSyms {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("NativeSyms")
    }
}

impl std::fmt::Debug for IcEntry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("IcEntry")
            .field("generation", &self.generation)
            .finish_non_exhaustive()
    }
}

impl Interpreter {
    /// Create an interpreter over a registry.
    pub fn new(registry: Registry) -> Self {
        let interner = Arc::clone(registry.interner());
        let builtins = Namespace::new();
        for b in Builtin::all() {
            builtins.set(interner.intern(b.name()), Value::Builtin(*b));
        }
        for name in ExcKind::builtin_names() {
            builtins.set(
                interner.intern(name),
                Value::ExcClass(ExcKind::from_class_name(name)),
            );
        }
        let syms = CommonSyms::new(&interner);
        let native_syms = NativeSyms::new(&interner);
        Interpreter {
            registry,
            cost: CostModel::default(),
            meter: Meter::new(),
            stdout: Vec::new(),
            extcalls: Vec::new(),
            import_events: Vec::new(),
            step_limit: DEFAULT_STEP_LIMIT,
            engine: Engine::default(),
            observed: HashSet::default(),
            modules: HashMap::new(),
            builtins,
            import_depth: 0,
            call_depth: 0,
            interner,
            syms,
            native_syms,
            ics: HashMap::default(),
            vm_frames: Vec::new(),
            snap: None,
        }
    }

    /// Turn on init-snapshot record/replay. Fresh module-body executions are
    /// captured into the registry's shared [`crate::snapshot::SnapshotStore`];
    /// later imports whose content fingerprint, import cone and cost model
    /// match a stored snapshot replay it byte-identically (namespaces, stdout,
    /// extcalls, import events and meter deltas) instead of re-running the
    /// body. Off by default: plain `exec_main` users get live execution.
    pub fn enable_init_snapshots(&mut self) {
        if self.snap.is_none() {
            self.snap = Some(Box::new(SnapRecorder::new()));
        }
    }

    /// Every `(module, attribute)` read observed at runtime: direct
    /// attribute lookups, `getattr`-family calls and `from`-imports. The
    /// dynamic ground truth that static analysis must under-approximate.
    pub fn observed_accesses(&self) -> BTreeMap<String, BTreeSet<String>> {
        let mut out: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
        for (module, attr) in &self.observed {
            out.entry(self.interner.resolve(*module).to_string())
                .or_default()
                .insert(self.interner.resolve(*attr).to_string());
        }
        out
    }

    /// Execute a program as the `__main__` module and return its module
    /// object (whose namespace holds the handler).
    ///
    /// # Errors
    ///
    /// Any uncaught pylite exception, including parse errors surfaced as
    /// [`ExcKind::ImportError`].
    pub fn exec_main(&mut self, source: &str) -> Result<Rc<ModuleObj>, PyErr> {
        enum Body {
            Tree(crate::resolved::RProgram),
            Vm(std::sync::Arc<crate::bytecode::CodeObj>),
        }
        let body = match self.engine {
            Engine::Tree => {
                let program = crate::parser::parse(source)
                    .map_err(|e| PyErr::new(ExcKind::ImportError, format!("__main__: {e}")))?;
                Body::Tree(resolve_program(&program, &self.interner))
            }
            // `__main__` is not a registry module, but its bytecode still
            // gets a shared content-keyed slot: every DD probe runs the
            // identical app source, so all but the first skip the parse,
            // resolve and compile passes entirely.
            Engine::Vm => Body::Vm(
                self.registry
                    .compile_main(source)
                    .map_err(|e| PyErr::new(ExcKind::ImportError, format!("__main__: {e}")))?,
            ),
        };
        let module = Rc::new(ModuleObj {
            name: "__main__".into(),
            name_sym: self.interner.intern("__main__"),
            tracked: self.registry.contains("__main__"),
            ns: Namespace::new(),
        });
        module.ns.set(self.syms.name, Value::str("__main__"));
        self.modules.insert("__main__".into(), module.clone());
        self.snap_note_load("__main__");
        let mut env = Env {
            globals: module.ns.clone(),
            locals: None,
            global_decls: HashSet::default(),
            module: Rc::from("__main__"),
        };
        match body {
            Body::Tree(resolved) => self.exec_block(&resolved.body, &mut env)?,
            Body::Vm(code) => self.vm_exec_block(&code, &mut env)?,
        }
        Ok(module)
    }

    /// Call a function bound at top level of `__main__` (the Lambda handler).
    ///
    /// # Errors
    ///
    /// [`ExcKind::NameError`] if the handler is not bound, or any exception
    /// the handler raises.
    pub fn call_handler(
        &mut self,
        handler: &str,
        event: Value,
        context: Value,
    ) -> Result<Value, PyErr> {
        let main = self
            .modules
            .get("__main__")
            .cloned()
            .ok_or_else(|| PyErr::new(ExcKind::RuntimeError, "no __main__ module executed"))?;
        // A name that was never interned cannot key any namespace, so a
        // failed lookup is exactly "not defined".
        let func = self
            .interner
            .lookup(handler)
            .and_then(|sym| main.ns.get(sym))
            .ok_or_else(|| {
                PyErr::new(
                    ExcKind::NameError,
                    format!("handler `{handler}` is not defined"),
                )
            })?;
        self.call_value(func, vec![event, context], vec![])
    }

    /// The loaded module object for `name`, if imported.
    pub fn module(&self, name: &str) -> Option<Rc<ModuleObj>> {
        self.modules.get(name).cloned()
    }

    /// Names of all loaded modules (sorted).
    pub fn loaded_modules(&self) -> Vec<String> {
        let mut v: Vec<String> = self.modules.keys().cloned().collect();
        v.sort();
        v
    }

    /// Import a module by dotted name (public entry for tests/tools).
    ///
    /// # Errors
    ///
    /// [`ExcKind::ImportError`] if the module is missing or fails to parse,
    /// or any exception its body raises.
    pub fn import_module(&mut self, dotted: &str) -> Result<Rc<ModuleObj>, PyErr> {
        if let Some(m) = self.modules.get(dotted) {
            let m = m.clone();
            // A cache hit on a module loaded before an in-progress capture
            // started means that capture's closure is incomplete.
            self.snap_on_cache_hit(dotted);
            return Ok(m);
        }
        if !self.registry.contains(dotted) {
            return Err(PyErr::new(
                ExcKind::ImportError,
                format!("No module named '{dotted}'"),
            ));
        }
        // Import the parent package first (CPython semantics).
        let parent = dotted.rsplit_once('.').map(|(p, _)| p.to_owned());
        if let Some(p) = &parent {
            self.import_module(p)?;
        }
        if self.snap.is_some() {
            if let Some(m) = self.try_replay_import(dotted) {
                self.bind_into_parent(&parent, dotted, &m);
                return Ok(m);
            }
            self.registry.snapshot_store().record_miss();
        }
        enum Body {
            Tree(Arc<crate::resolved::RProgram>),
            Vm(Arc<crate::bytecode::CodeObj>),
        }
        let body = match self.engine {
            Engine::Tree => Body::Tree(
                self.registry
                    .resolve_module(dotted)
                    .map_err(|e| PyErr::new(ExcKind::ImportError, format!("{dotted}: {e}")))?,
            ),
            Engine::Vm => Body::Vm(
                self.registry
                    .compile_module(dotted)
                    .map_err(|e| PyErr::new(ExcKind::ImportError, format!("{dotted}: {e}")))?,
            ),
        };
        self.meter.tick(self.cost.import_ns);
        self.meter.alloc(self.cost.module_base_bytes);
        let module = Rc::new(ModuleObj {
            name: dotted.to_owned(),
            name_sym: self.interner.intern(dotted),
            tracked: true,
            ns: Namespace::new(),
        });
        module.ns.set(self.syms.name, Value::str(dotted));
        module.ns.set(
            self.syms.file,
            Value::str(format!("{}.py", dotted.replace('.', "/"))),
        );
        // Insert before executing the body so cyclic imports observe the
        // partially-initialized module instead of recursing forever.
        self.modules.insert(dotted.to_owned(), module.clone());
        let seq = self.snap_note_load(dotted);
        let depth = self.import_depth;
        let start = self.meter.snapshot();
        self.snap_frame_push(dotted, seq);
        self.import_depth += 1;
        let mut env = Env {
            globals: module.ns.clone(),
            locals: None,
            global_decls: HashSet::default(),
            module: Rc::from(dotted),
        };
        // A masked overlay runs its base's code with the masked statements
        // skipped (DESIGN.md §16).
        let mask = self.registry.module_mask(dotted).cloned();
        let result = match (&body, mask) {
            (Body::Tree(resolved), None) => self.exec_block(&resolved.body, &mut env),
            (Body::Tree(resolved), Some(mask)) => {
                self.exec_masked_block(&resolved.body, &mask, &mut env)
            }
            (Body::Vm(code), None) => self.vm_exec_block(code, &mut env),
            (Body::Vm(code), Some(mask)) => self.vm_exec_masked(code, &mask, &mut env),
        };
        self.import_depth -= 1;
        match result {
            Ok(()) => {
                let end = self.meter.snapshot();
                self.snap_frame_finish(dotted, end);
                self.emit_import_event(ImportEvent {
                    module: dotted.to_owned(),
                    depth,
                    time_ns: end.0 - start.0,
                    mem_bytes: end.1 - start.1,
                });
                self.bind_into_parent(&parent, dotted, &module);
                Ok(module)
            }
            Err(e) => {
                self.snap_frame_abort();
                self.modules.remove(dotted);
                self.snap_note_unload(dotted);
                Err(e)
            }
        }
    }

    /// Bind a freshly imported submodule as an attribute of its parent
    /// package (`import a.b` makes `b` visible on `a`).
    fn bind_into_parent(&mut self, parent: &Option<String>, dotted: &str, module: &Rc<ModuleObj>) {
        if let (Some(p), Some((_, leaf))) = (parent, dotted.rsplit_once('.')) {
            if let Some(pm) = self.modules.get(p).cloned() {
                let leaf_sym = self.interner.intern(leaf);
                let is_new = pm.ns.set(leaf_sym, Value::Module(module.clone())).is_none();
                if is_new {
                    self.meter.alloc(self.cost.binding_bytes);
                }
                // The parent was loaded before this frame started, so an
                // in-progress capture just saw a foreign write.
                self.snap_on_module_write(p);
            }
        }
    }
}

// -- init-snapshot record/replay ------------------------------------------
//
// See `crate::snapshot` for the data model. The interpreter's side is:
// every fresh `import_module` body pushes a recording frame; effects
// (stdout, extcalls, import events, observed accesses) are logged flat
// across nested frames; a clean frame pop walks the freshly-loaded subtree
// into an `InitSnapshot` stored in the registry's shared `SnapshotStore`;
// and a later import with a matching key replays the snapshot instead of
// executing the body.

impl Interpreter {
    /// Note that `name` is now in `sys.modules`; returns its load sequence
    /// number (the capture-frame closure boundary). Zero when disabled.
    fn snap_note_load(&mut self, name: &str) -> u64 {
        match &mut self.snap {
            Some(rec) => rec.note_load(name),
            None => 0,
        }
    }

    /// Forget a module removed from `sys.modules` after a failed import.
    fn snap_note_unload(&mut self, name: &str) {
        if let Some(rec) = &mut self.snap {
            rec.note_unload(name);
        }
    }

    /// A `sys.modules` cache hit on `name`: frames that began after `name`
    /// was loaded closed over pre-frame state → not replayable.
    fn snap_on_cache_hit(&mut self, name: &str) {
        if let Some(rec) = &mut self.snap {
            rec.mark_pre_frame(name);
        }
    }

    /// A write into module `name`'s namespace: frames that `name` predates
    /// just mutated foreign state → not replayable.
    fn snap_on_module_write(&mut self, name: &str) {
        if let Some(rec) = &mut self.snap {
            rec.mark_pre_frame(name);
        }
    }

    /// Append a stdout line, logging it when a capture frame is active.
    pub(crate) fn emit_stdout(&mut self, line: String) {
        if let Some(rec) = &mut self.snap {
            if !rec.frames.is_empty() {
                rec.log.push(LogEvent::Stdout(line.clone()));
            }
        }
        self.stdout.push(line);
    }

    /// Append an extcall line, logging it when a capture frame is active.
    pub(crate) fn emit_extcall(&mut self, line: String) {
        if let Some(rec) = &mut self.snap {
            if !rec.frames.is_empty() {
                rec.log.push(LogEvent::Extcall(line.clone()));
            }
        }
        self.extcalls.push(line);
    }

    /// Record an `ImportEvent`, logging it when a capture frame is active.
    fn emit_import_event(&mut self, ev: ImportEvent) {
        if let Some(rec) = &mut self.snap {
            if !rec.frames.is_empty() {
                rec.log.push(LogEvent::Import {
                    module: ev.module.clone(),
                    depth: ev.depth,
                    time_ns: ev.time_ns,
                    mem_bytes: ev.mem_bytes,
                });
            }
        }
        self.import_events.push(ev);
    }

    /// Log an observed `(module, attr)` access while a capture is active.
    /// Deduped per innermost frame: the same binding touched first by
    /// attribute lookup and again by namespace iteration (a star import
    /// materializing a lazy shell) logs exactly once.
    fn snap_log_access(&mut self, module: Symbol, attr: Symbol) {
        if let Some(rec) = &mut self.snap {
            if let Some(frame) = rec.frames.last_mut() {
                if frame.seen.insert((module, attr)) {
                    rec.log.push(LogEvent::Access(module, attr));
                }
            }
        }
    }

    /// Open a recording frame for a fresh import of `dotted` (just after
    /// the constant import costs and the `sys.modules` insert, i.e. at the
    /// same meter boundary as the live `ImportEvent` measurement).
    fn snap_frame_push(&mut self, dotted: &str, seq: u64) {
        let clock = self.meter.clock_ns();
        let mem = self.meter.mem_bytes();
        let steps = self.meter.steps;
        let depth = self.import_depth;
        if let Some(rec) = &mut self.snap {
            let log_start = rec.log.len();
            rec.frames.push(crate::snapshot::SnapFrame {
                module: dotted.to_owned(),
                start_seq: seq,
                log_start,
                base_depth: depth,
                clock_start: clock,
                mem_start: mem,
                steps_start: steps,
                violated: false,
                seen: HashSet::new(),
            });
        }
    }

    /// Discard the top recording frame after a failed import. The popped
    /// frame's log entries stay in the outer slice, so its seen set merges
    /// into the new innermost frame to keep dedup exact.
    fn snap_frame_abort(&mut self) {
        if let Some(rec) = &mut self.snap {
            if let Some(popped) = rec.frames.pop() {
                if let Some(outer) = rec.frames.last_mut() {
                    outer.seen.extend(popped.seen);
                }
            }
            if rec.frames.is_empty() {
                rec.log.clear();
            }
        }
    }

    /// Pop the top recording frame after a successful body run and, when
    /// every gate passes, capture the freshly-loaded subtree as an
    /// [`InitSnapshot`] in the shared store. `end` is the meter snapshot
    /// taken at the live `ImportEvent` boundary.
    fn snap_frame_finish(&mut self, dotted: &str, end: (u64, u64)) {
        let steps_now = self.meter.steps;
        let Some(rec) = &mut self.snap else { return };
        let Some(frame) = rec.frames.pop() else {
            return;
        };
        debug_assert_eq!(frame.module, dotted);
        'capture: {
            if frame.violated {
                break 'capture;
            }
            let store = Arc::clone(self.registry.snapshot_store());
            if store.is_denied(dotted) {
                break 'capture;
            }
            let Some(module_fp) = self.registry.module_fingerprint(dotted) else {
                break 'capture;
            };
            if store.is_ineligible(dotted, module_fp) {
                break 'capture;
            }
            // The captured subtree: everything loaded since the frame
            // opened, in load order. Index 0 is the module itself.
            let mut closure: Vec<(u64, String)> = rec
                .load_seq
                .iter()
                .filter(|&(_, &seq)| seq >= frame.start_seq)
                .map(|(name, &seq)| (seq, name.clone()))
                .collect();
            closure.sort();
            debug_assert_eq!(closure.first().map(|(_, n)| n.as_str()), Some(dotted));
            // A masked module is a one-off probe candidate: a snapshot
            // keyed on its mask replays only for an identical mask, which
            // a DD search rarely probes twice, so cones containing one
            // skip the capture walk (faster on cold trims and retrims).
            let mut deps = Vec::with_capacity(closure.len());
            let mut mods = Vec::with_capacity(closure.len());
            let mut keyed = true;
            for (_, name) in &closure {
                match (
                    self.registry.module_fingerprint(name),
                    self.modules.get(name),
                ) {
                    (Some(fp), Some(m))
                        if !store.is_denied(name) && self.registry.module_mask(name).is_none() =>
                    {
                        deps.push((name.clone(), fp));
                        mods.push(m.clone());
                    }
                    _ => {
                        keyed = false;
                        break;
                    }
                }
            }
            if !keyed {
                break 'capture;
            }
            let mut builder = SnapshotBuilder::new(&mods);
            let mut smods = Vec::with_capacity(mods.len());
            let mut walkable = true;
            for m in &mods {
                match builder.snap_module(m) {
                    Some(sm) => smods.push(sm),
                    None => {
                        walkable = false;
                        break;
                    }
                }
            }
            if !walkable {
                store.mark_ineligible(dotted, module_fp);
                break 'capture;
            }
            let log = rec.log[frame.log_start..]
                .iter()
                .map(|ev| match ev {
                    LogEvent::Stdout(s) => SnapEvent::Stdout(s.clone()),
                    LogEvent::Extcall(s) => SnapEvent::Extcall(s.clone()),
                    LogEvent::Import {
                        module,
                        depth,
                        time_ns,
                        mem_bytes,
                    } => SnapEvent::Import {
                        module: module.clone(),
                        rel_depth: depth - frame.base_depth,
                        time_ns: *time_ns,
                        mem_bytes: *mem_bytes,
                    },
                    LogEvent::Access(m, a) => SnapEvent::Access(*m, *a),
                })
                .collect();
            store.insert(
                dotted,
                InitSnapshot {
                    module_fp,
                    deps,
                    cost: self.cost.clone(),
                    time_ns: end.0 - frame.clock_start,
                    mem_bytes: end.1 - frame.mem_start,
                    steps: steps_now - frame.steps_start,
                    log,
                    modules: smods,
                    arena: builder.finish(),
                },
            );
        }
        // The finished frame's log entries remain in the enclosing slice,
        // so its seen set merges outward to keep dedup exact there too.
        if let Some(outer) = rec.frames.last_mut() {
            outer.seen.extend(frame.seen);
        }
        if rec.frames.is_empty() {
            rec.log.clear();
        }
    }

    /// Try to answer a fresh import of `dotted` by replaying a stored
    /// snapshot. Returns the module on success; `None` falls back to live
    /// execution (poisoning any entry replay found inconsistent).
    fn try_replay_import(&mut self, dotted: &str) -> Option<Rc<ModuleObj>> {
        let store = Arc::clone(self.registry.snapshot_store());
        if store.is_denied(dotted) {
            return None;
        }
        let module_fp = self.registry.module_fingerprint(dotted)?;
        'candidates: for entry in store.candidates(dotted) {
            if entry.module_fp != module_fp || entry.cost != self.cost {
                continue;
            }
            // Exact step-budget equivalence: steps grow monotonically and
            // the live check is strict `>` after each increment, so live
            // execution completes iff the final total stays ≤ the limit.
            if self.meter.steps.saturating_add(entry.steps) > self.step_limit {
                continue;
            }
            for (dep, fp) in &entry.deps {
                if self.modules.contains_key(dep)
                    || store.is_denied(dep)
                    || self.registry.module_fingerprint(dep) != Some(*fp)
                {
                    continue 'candidates;
                }
            }
            // Structural soundness was vetted when the entry entered the
            // store, so rehydration cannot fault; only a recording-order
            // mismatch (first module is not the requested one) poisons.
            let mods = rehydrate(&entry);
            if mods.first().map(|m| m.name.as_str()) != Some(dotted) {
                store.poison(dotted, &entry);
                continue;
            }
            let module = mods[0].clone();
            self.commit_replay(&entry, &mods);
            store.record_hit();
            return Some(module);
        }
        None
    }

    /// Apply a rehydrated snapshot to this interpreter, reproducing every
    /// observable of the live execution: `sys.modules` entries, meter
    /// deltas at the live boundaries, stdout/extcall lines, import events
    /// (self last, exactly as live nesting orders them) and observed
    /// accesses. Runs inside any enclosing recording frame, so replayed
    /// inits compose into outer captures.
    fn commit_replay(&mut self, entry: &InitSnapshot, mods: &[Rc<ModuleObj>]) {
        self.meter.tick(self.cost.import_ns);
        self.meter.alloc(self.cost.module_base_bytes);
        for m in mods {
            self.modules.insert(m.name.clone(), m.clone());
            self.snap_note_load(&m.name);
        }
        self.meter.tick(entry.time_ns);
        self.meter.alloc(entry.mem_bytes);
        self.meter.steps += entry.steps;
        let base_depth = self.import_depth;
        for ev in &entry.log {
            match ev {
                SnapEvent::Stdout(s) => self.emit_stdout(s.clone()),
                SnapEvent::Extcall(s) => self.emit_extcall(s.clone()),
                SnapEvent::Import {
                    module,
                    rel_depth,
                    time_ns,
                    mem_bytes,
                } => self.emit_import_event(ImportEvent {
                    module: module.clone(),
                    depth: base_depth + rel_depth,
                    time_ns: *time_ns,
                    mem_bytes: *mem_bytes,
                }),
                SnapEvent::Access(m, a) => {
                    self.observed.insert((*m, *a));
                    self.snap_log_access(*m, *a);
                }
            }
        }
        self.emit_import_event(ImportEvent {
            module: mods[0].name.clone(),
            depth: base_depth,
            time_ns: entry.time_ns,
            mem_bytes: entry.mem_bytes,
        });
    }
}

// -- statements -----------------------------------------------------------

impl Interpreter {
    fn exec_block(&mut self, body: &[RStmt], env: &mut Env) -> Result<(), PyErr> {
        for stmt in body {
            let flow = self.exec_stmt(stmt, env)?;
            top_level_flow(flow)?;
        }
        Ok(())
    }

    /// [`Interpreter::exec_block`] over a module body under a keep-mask:
    /// dropped statements are skipped, item-masked imports bind only their
    /// kept names, and an empty rewrite runs its lone `pass`. The meter
    /// sees exactly what running `unparse(mask.apply(..))` would charge.
    fn exec_masked_block(
        &mut self,
        body: &[RStmt],
        mask: &KeepMask,
        env: &mut Env,
    ) -> Result<(), PyErr> {
        if mask.runs_pass() {
            return self.charge_stmt();
        }
        for (stmt, keep) in body.iter().zip(mask.stmts()) {
            let flow = match (keep, stmt) {
                (StmtKeep::Drop, _) => continue,
                (StmtKeep::Keep, _) => self.exec_stmt(stmt, env)?,
                (StmtKeep::Items(flags), RStmt::Import { items }) => {
                    self.charge_stmt()?;
                    self.exec_import(kept_items(items, flags), env)?;
                    Flow::Normal
                }
                (StmtKeep::Items(flags), RStmt::FromImport { module, names }) => {
                    self.charge_stmt()?;
                    self.exec_from_import(module, kept_items(names, flags), env)?;
                    Flow::Normal
                }
                (StmtKeep::Items(_), _) => unreachable!("registry checks that masks fit"),
            };
            top_level_flow(flow)?;
        }
        Ok(())
    }

    fn exec_suite(&mut self, body: &[RStmt], env: &mut Env) -> Result<Flow, PyErr> {
        for stmt in body {
            match self.exec_stmt(stmt, env)? {
                Flow::Normal => {}
                other => return Ok(other),
            }
        }
        Ok(Flow::Normal)
    }

    /// The per-statement prologue: count the step, enforce the step
    /// limit, tick `stmt_ns`.
    pub(crate) fn charge_stmt(&mut self) -> Result<(), PyErr> {
        self.meter.steps += 1;
        if self.meter.steps > self.step_limit {
            return Err(PyErr::new(
                ExcKind::ResourceExhausted,
                format!("step limit of {} exceeded", self.step_limit),
            ));
        }
        self.meter.tick(self.cost.stmt_ns);
        Ok(())
    }

    fn exec_stmt(&mut self, stmt: &RStmt, env: &mut Env) -> Result<Flow, PyErr> {
        self.charge_stmt()?;
        match stmt {
            RStmt::Expr(e) => {
                self.eval(e, env)?;
                Ok(Flow::Normal)
            }
            RStmt::Assign { targets, value } => {
                let v = self.eval(value, env)?;
                if let [target] = targets.as_slice() {
                    self.assign_target(target, v, env)?;
                } else {
                    for t in targets {
                        self.assign_target(t, v.clone(), env)?;
                    }
                }
                Ok(Flow::Normal)
            }
            RStmt::If { branches, orelse } => {
                for (test, body) in branches {
                    if self.eval(test, env)?.truthy() {
                        return self.exec_suite(body, env);
                    }
                }
                self.exec_suite(orelse, env)
            }
            RStmt::While { test, body } => self.exec_while(test, body, env),
            RStmt::For {
                targets,
                iter,
                body,
            } => self.exec_for(targets, iter, body, env),
            RStmt::Return(e) => {
                let v = match e {
                    Some(e) => self.eval(e, env)?,
                    None => Value::None,
                };
                Ok(Flow::Return(v))
            }
            RStmt::Pass => Ok(Flow::Normal),
            RStmt::Break => Ok(Flow::Break),
            RStmt::Continue => Ok(Flow::Continue),
            RStmt::Try {
                body,
                handlers,
                orelse,
                finalbody,
            } => self.exec_try(body, handlers, orelse, finalbody, env),
            other => {
                self.exec_simple(other, env)?;
                Ok(Flow::Normal)
            }
        }
    }

    /// The statements that always complete normally or raise.
    fn exec_simple(&mut self, stmt: &RStmt, env: &mut Env) -> Result<(), PyErr> {
        match stmt {
            RStmt::AugAssign { target, op, value } => {
                let current = self.eval(target, env)?;
                let rhs = self.eval(value, env)?;
                let combined = self.binary_op(*op, current, rhs)?;
                self.assign_target(target, combined, env)
            }
            RStmt::FuncDef(f) => {
                let func = self.make_function(f, env)?;
                self.meter
                    .alloc(self.cost.func_base_bytes + self.cost.func_stmt_bytes * f.stmt_count);
                self.bind_name(f.sym, func, env);
                Ok(())
            }
            RStmt::ClassDef(c) => {
                let class = self.make_class(c, env)?;
                self.meter.alloc(self.cost.class_base_bytes);
                self.bind_name(c.sym, class, env);
                Ok(())
            }
            RStmt::Import { items } => self.exec_import(items, env),
            RStmt::FromImport { module, names } => self.exec_from_import(module, names, env),
            RStmt::Raise(e) => Err(match e {
                None => PyErr::new(ExcKind::RuntimeError, "re-raise outside except"),
                Some(expr) => {
                    let v = self.eval(expr, env)?;
                    self.value_to_exception(v)?
                }
            }),
            RStmt::Global(names) => {
                for n in names {
                    env.global_decls.insert(*n);
                }
                Ok(())
            }
            RStmt::Assert { test, msg } => {
                if !self.eval(test, env)?.truthy() {
                    let message = match msg {
                        Some(m) => py_str(&self.eval(m, env)?),
                        None => String::new(),
                    };
                    return Err(PyErr::new(ExcKind::AssertionError, message));
                }
                Ok(())
            }
            RStmt::Del(target) => self.exec_del(target, env),
            _ => unreachable!("control-flow statements run in exec_stmt"),
        }
    }

    // Loops, `try` and the simple statements run outside `exec_stmt` so
    // its frame, which every nested statement and pylite call stacks up,
    // stays small in unoptimized builds.
    fn exec_while(&mut self, test: &RExpr, body: &[RStmt], env: &mut Env) -> Result<Flow, PyErr> {
        while self.eval(test, env)?.truthy() {
            match self.exec_suite(body, env)? {
                Flow::Normal | Flow::Continue => {}
                Flow::Break => break,
                r @ Flow::Return(_) => return Ok(r),
            }
            self.meter.steps += 1;
            if self.meter.steps > self.step_limit {
                return Err(PyErr::new(
                    ExcKind::ResourceExhausted,
                    "step limit exceeded in while loop",
                ));
            }
        }
        Ok(Flow::Normal)
    }

    fn exec_for(
        &mut self,
        targets: &[Symbol],
        iter: &RExpr,
        body: &[RStmt],
        env: &mut Env,
    ) -> Result<Flow, PyErr> {
        let iterable = self.eval(iter, env)?;
        let items = self.iter_values(&iterable)?;
        for item in items {
            if let [target] = targets {
                self.bind_name(*target, item, env);
            } else {
                let parts = self.iter_values(&item)?;
                if parts.len() != targets.len() {
                    return Err(PyErr::new(
                        ExcKind::ValueError,
                        format!(
                            "cannot unpack {} values into {} loop targets",
                            parts.len(),
                            targets.len()
                        ),
                    ));
                }
                for (t, v) in targets.iter().zip(parts) {
                    self.bind_name(*t, v, env);
                }
            }
            match self.exec_suite(body, env)? {
                Flow::Normal | Flow::Continue => {}
                Flow::Break => break,
                r @ Flow::Return(_) => return Ok(r),
            }
        }
        Ok(Flow::Normal)
    }

    fn exec_try(
        &mut self,
        body: &[RStmt],
        handlers: &[crate::resolved::RExceptHandler],
        orelse: &[RStmt],
        finalbody: &[RStmt],
        env: &mut Env,
    ) -> Result<Flow, PyErr> {
        let outcome = self.exec_suite(body, env);
        let result = match outcome {
            Ok(flow) => {
                if matches!(flow, Flow::Normal) && !orelse.is_empty() {
                    self.exec_suite(orelse, env)
                } else {
                    Ok(flow)
                }
            }
            Err(err) => {
                // ResourceExhausted is not catchable: it models the
                // platform killing the function.
                if matches!(err.kind, ExcKind::ResourceExhausted) {
                    Err(err)
                } else {
                    let mut handled = None;
                    for h in handlers {
                        let matches = match &h.exc_type {
                            None => true,
                            Some(class) => err.matches_handler(class),
                        };
                        if matches {
                            if let Some(name) = h.name {
                                self.bind_name(name, Value::ExcValue(Rc::new(err.clone())), env);
                            }
                            handled = Some(self.exec_suite(&h.body, env));
                            break;
                        }
                    }
                    handled.unwrap_or(Err(err))
                }
            }
        };
        if !finalbody.is_empty() {
            // `finally` runs regardless; its own error wins.
            match self.exec_suite(finalbody, env)? {
                Flow::Normal => {}
                flow => return Ok(flow),
            }
        }
        result
    }

    /// Execute an `import a.b [as c][, ...]` clause list. Shared verbatim
    /// by the tree-walker and the bytecode VM's `Import` instruction, so
    /// binding and allocation behavior cannot diverge between tiers.
    pub(crate) fn exec_import<'a>(
        &mut self,
        items: impl IntoIterator<Item = &'a crate::resolved::RImportItem>,
        env: &mut Env,
    ) -> Result<(), PyErr> {
        for item in items {
            let module = self.import_module(&item.module)?;
            match &item.top {
                None => self.bind_name(item.bind, Value::Module(module), env),
                Some(top) => {
                    let top_module = self
                        .modules
                        .get(&**top)
                        .cloned()
                        .expect("top package loaded by import_module");
                    self.bind_name(item.bind, Value::Module(top_module), env);
                }
            }
        }
        Ok(())
    }

    /// Execute a `from module import ...` statement (shared by both
    /// engines, like [`Interpreter::exec_import`]).
    pub(crate) fn exec_from_import<'a>(
        &mut self,
        module: &str,
        names: impl IntoIterator<Item = &'a crate::resolved::RFromName>,
        env: &mut Env,
    ) -> Result<(), PyErr> {
        let m = self.import_module(module)?;
        for name in names {
            let (name, bind) = match name {
                crate::resolved::RFromName::Star => {
                    // Bind every public (non-underscore) name of the
                    // module into the importing scope.
                    for key in m.ns.key_syms() {
                        if self.interner.resolve(key).starts_with('_') {
                            continue;
                        }
                        self.record_access(&m, key);
                        let v = m.ns.get(key).expect("key from snapshot");
                        self.bind_name(key, v, env);
                    }
                    continue;
                }
                crate::resolved::RFromName::Named { name, bind } => (*name, *bind),
            };
            self.record_access(&m, name);
            let v = match m.ns.get(name) {
                Some(v) => v,
                None => {
                    // `from pkg import sub` where sub is a submodule.
                    let name_text = self.interner.resolve(name);
                    let sub = format!("{module}.{name_text}");
                    if self.registry.contains(&sub) {
                        Value::Module(self.import_module(&sub)?)
                    } else {
                        return Err(PyErr::new(
                            ExcKind::ImportError,
                            format!("cannot import name '{name_text}' from '{module}'"),
                        ));
                    }
                }
            };
            self.bind_name(bind, v, env);
        }
        Ok(())
    }

    /// Execute a `del target` statement (shared by both engines; the
    /// attribute form tree-evaluates its object expression, which is the
    /// cost reference the VM must match — `del` is rare enough that the
    /// bytecode tier simply reuses it).
    pub(crate) fn exec_del(&mut self, target: &RExpr, env: &mut Env) -> Result<(), PyErr> {
        match target {
            RExpr::Name(n) => {
                let removed = match &env.locals {
                    Some(locals) if !env.global_decls.contains(n) => locals.remove(*n),
                    _ => {
                        // Deleting a module-level name mutates the owning
                        // module's namespace.
                        self.snap_on_module_write(&env.module);
                        env.globals.remove(*n)
                    }
                };
                if removed.is_none() {
                    return Err(PyErr::new(
                        ExcKind::NameError,
                        format!("name '{}' is not defined", self.interner.resolve(*n)),
                    ));
                }
            }
            RExpr::Attribute { value, attr, .. } => {
                let obj = self.eval(value, env)?;
                // `NsMap::remove` bumps the namespace generation,
                // invalidating any inline cache for this attribute.
                let removed = match &obj {
                    Value::Module(m) => {
                        let removed = m.ns.remove(*attr);
                        self.snap_on_module_write(&m.name);
                        removed
                    }
                    Value::Instance(i) => i.borrow().ns.remove(*attr),
                    Value::Class(c) => c.ns.remove(*attr),
                    _ => None,
                };
                if removed.is_none() {
                    return Err(PyErr::attribute_error(format!(
                        "cannot delete attribute '{}'",
                        self.interner.resolve(*attr)
                    )));
                }
            }
            _ => {
                return Err(PyErr::type_error("unsupported del target"));
            }
        }
        Ok(())
    }
}

// -- definitions, bindings, expressions -----------------------------------

impl Interpreter {
    pub(crate) fn value_to_exception(&mut self, v: Value) -> Result<PyErr, PyErr> {
        match v {
            Value::ExcValue(e) => Ok((*e).clone()),
            Value::ExcClass(kind) => Ok(PyErr::new(kind, "")),
            Value::Instance(inst) => {
                let inst = inst.borrow();
                if !inst.class.is_exception {
                    return Err(PyErr::type_error("exceptions must derive from Exception"));
                }
                let message = inst
                    .ns
                    .get(self.syms.message)
                    .map(|m| py_str(&m))
                    .unwrap_or_default();
                let mut chain = Vec::new();
                collect_class_chain(&inst.class, &mut chain);
                let mut err = PyErr::new(ExcKind::Custom(inst.class.name.clone()), message);
                err.class_chain = chain;
                Ok(err)
            }
            Value::Class(c) if c.is_exception => {
                let mut chain = Vec::new();
                collect_class_chain(&c, &mut chain);
                let mut err = PyErr::new(ExcKind::Custom(c.name.clone()), "");
                err.class_chain = chain;
                Ok(err)
            }
            other => Err(PyErr::type_error(format!(
                "exceptions must derive from Exception, not {}",
                other.type_name()
            ))),
        }
    }

    pub(crate) fn make_function(&mut self, f: &Arc<RFuncDef>, env: &Env) -> Result<Value, PyErr> {
        let mut defaults = Vec::with_capacity(f.params.len());
        for p in &f.params {
            defaults.push(match &p.default {
                Some(d) => {
                    let mut env2 = Env {
                        globals: env.globals.clone(),
                        locals: env.locals.clone(),
                        global_decls: HashSet::default(),
                        module: env.module.clone(),
                    };
                    Some(self.eval(d, &mut env2)?)
                }
                None => None,
            });
        }
        Ok(Value::Func(Rc::new(PyFunc {
            code: Arc::clone(f),
            defaults,
            globals: env.globals.clone(),
            module: env.module.clone(),
        })))
    }

    pub(crate) fn make_class(&mut self, c: &RClassDef, env: &mut Env) -> Result<Value, PyErr> {
        let mut bases = Vec::new();
        let mut is_exception = false;
        for path in &c.bases {
            // Bases may be dotted references (`class Net(nn.Module)`).
            let mut base_val = self.lookup_name(path[0], env)?;
            for part in &path[1..] {
                base_val = self.attr_lookup(&base_val, *part, None)?;
            }
            match base_val {
                Value::Class(b) => {
                    if b.is_exception {
                        is_exception = true;
                    }
                    bases.push(b);
                }
                Value::ExcClass(_) => {
                    is_exception = true;
                }
                other => {
                    return Err(PyErr::type_error(format!(
                        "base class must be a class, not {}",
                        other.type_name()
                    )))
                }
            }
        }
        let class_ns = Namespace::new();
        let mut class_env = Env {
            globals: env.globals.clone(),
            locals: Some(class_ns.clone()),
            global_decls: HashSet::default(),
            module: env.module.clone(),
        };
        self.exec_block(&c.body, &mut class_env)?;
        self.meter
            .alloc(self.cost.binding_bytes * class_ns.len() as u64);
        Ok(Value::Class(Rc::new(PyClass {
            name: c.name.to_string(),
            bases,
            ns: class_ns,
            is_exception,
        })))
    }

    /// Record a runtime module-attribute read (registry modules only;
    /// `__name__` is import-machinery bookkeeping, not library surface).
    fn record_access(&mut self, module: &ModuleObj, attr: Symbol) {
        if attr == self.syms.name || !module.tracked {
            return;
        }
        self.observed.insert((module.name_sym, attr));
        self.snap_log_access(module.name_sym, attr);
    }

    pub(crate) fn bind_name(&mut self, name: Symbol, value: Value, env: &mut Env) {
        // A `global`-declared write from inside a function call mutates
        // the declaring module's namespace, which may predate an active
        // recording frame. (Module-level binds hit the module's own,
        // intra-frame namespace and need no check.)
        if env.locals.is_some() && env.global_decls.contains(&name) {
            self.snap_on_module_write(&env.module);
        }
        let target_ns = match &env.locals {
            Some(locals) if !env.global_decls.contains(&name) => locals,
            _ => &env.globals,
        };
        let is_new = target_ns.set(name, value).is_none();
        if is_new {
            self.meter.alloc(self.cost.binding_bytes);
        }
    }

    fn assign_target(&mut self, target: &RExpr, value: Value, env: &mut Env) -> Result<(), PyErr> {
        match target {
            RExpr::Name(n) => {
                self.bind_name(*n, value, env);
                Ok(())
            }
            RExpr::Attribute {
                value: obj, attr, ..
            } => {
                let obj = self.eval(obj, env)?;
                self.set_attr(&obj, *attr, value)
            }
            RExpr::Subscript { value: obj, index } => {
                let obj = self.eval(obj, env)?;
                let idx = self.eval(index, env)?;
                self.set_item(&obj, idx, value)
            }
            RExpr::Tuple(targets) | RExpr::List(targets) => {
                let items = self.iter_values(&value)?;
                if items.len() != targets.len() {
                    return Err(PyErr::new(
                        ExcKind::ValueError,
                        format!(
                            "cannot unpack {} values into {} targets",
                            items.len(),
                            targets.len()
                        ),
                    ));
                }
                for (t, v) in targets.iter().zip(items) {
                    self.assign_target(t, v, env)?;
                }
                Ok(())
            }
            _ => Err(PyErr::type_error("invalid assignment target")),
        }
    }

    /// Store `value` as an attribute of `obj` (the `obj.attr = value`
    /// path, shared by both engines).
    pub(crate) fn set_attr(
        &mut self,
        obj: &Value,
        attr: Symbol,
        value: Value,
    ) -> Result<(), PyErr> {
        // `NsMap::set` bumps the namespace generation, so inline
        // caches for this attribute are invalidated automatically.
        match obj {
            Value::Module(m) => {
                if m.ns.set(attr, value).is_none() {
                    self.meter.alloc(self.cost.binding_bytes);
                }
                self.snap_on_module_write(&m.name);
            }
            Value::Instance(i) => {
                if i.borrow().ns.set(attr, value).is_none() {
                    self.meter.alloc(self.cost.binding_bytes);
                }
            }
            Value::Class(c) => {
                if c.ns.set(attr, value).is_none() {
                    self.meter.alloc(self.cost.binding_bytes);
                }
            }
            other => {
                return Err(PyErr::attribute_error(format!(
                    "'{}' object attribute '{}' is read-only",
                    other.type_name(),
                    self.interner.resolve(attr)
                )))
            }
        }
        Ok(())
    }

    /// Store `value` at `obj[idx]` (shared by both engines).
    pub(crate) fn set_item(&mut self, obj: &Value, idx: Value, value: Value) -> Result<(), PyErr> {
        match obj {
            Value::List(items) => {
                let i = as_index(&idx, items.borrow().len())?;
                items.borrow_mut()[i] = value;
                Ok(())
            }
            Value::Dict(pairs) => {
                let mut pairs = pairs.borrow_mut();
                for (k, v) in pairs.iter_mut() {
                    if py_eq(k, &idx) {
                        *v = value;
                        return Ok(());
                    }
                }
                pairs.push((idx, value));
                self.meter.alloc(self.cost.element_bytes);
                Ok(())
            }
            other => Err(PyErr::type_error(format!(
                "'{}' object does not support item assignment",
                other.type_name()
            ))),
        }
    }

    pub(crate) fn lookup_name(&mut self, name: Symbol, env: &Env) -> Result<Value, PyErr> {
        if let Some(locals) = &env.locals {
            if !env.global_decls.contains(&name) {
                if let Some(v) = locals.get(name) {
                    return Ok(v);
                }
            }
        }
        if let Some(v) = env.globals.get(name) {
            return Ok(v);
        }
        if let Some(v) = self.builtins.get(name) {
            return Ok(v);
        }
        Err(PyErr::new(
            ExcKind::NameError,
            format!("name '{}' is not defined", self.interner.resolve(name)),
        ))
    }

    fn eval(&mut self, e: &RExpr, env: &mut Env) -> Result<Value, PyErr> {
        self.meter.tick(self.cost.expr_node_ns);
        match e {
            RExpr::None => Ok(Value::None),
            RExpr::True => Ok(Value::Bool(true)),
            RExpr::False => Ok(Value::Bool(false)),
            RExpr::Int(v) => Ok(Value::Int(*v)),
            RExpr::Float(v) => Ok(Value::Float(*v)),
            RExpr::Str(s) => {
                self.meter.alloc(self.cost.str_char_bytes * s.len() as u64);
                Ok(Value::Str(Arc::clone(s)))
            }
            RExpr::Name(n) => self.lookup_name(*n, env),
            RExpr::List(items) => self.eval_elements(items, env).map(Value::list),
            RExpr::Tuple(items) => self.eval_elements(items, env).map(Value::tuple),
            RExpr::Dict(pairs) => self.eval_dict(pairs, env),
            RExpr::Attribute { value, attr, site } => {
                let obj = self.eval(value, env)?;
                self.attr_lookup(&obj, *attr, Some(*site))
            }
            RExpr::Subscript { value, index } => {
                let obj = self.eval(value, env)?;
                let idx = self.eval(index, env)?;
                self.get_item(&obj, &idx)
            }
            RExpr::Call { func, args, kwargs } => self.eval_call(func, args, kwargs, env),
            RExpr::Unary { op, operand } => {
                let v = self.eval(operand, env)?;
                unary_op(*op, v)
            }
            RExpr::Binary { left, op, right } => {
                let l = self.eval(left, env)?;
                let r = self.eval(right, env)?;
                self.binary_op(*op, l, r)
            }
            RExpr::Bool { op, values } => self.eval_bool(*op, values, env),
            RExpr::Compare { left, ops } => self.eval_compare(left, ops, env),
            RExpr::Conditional { test, body, orelse } => {
                if self.eval(test, env)?.truthy() {
                    self.eval(body, env)
                } else {
                    self.eval(orelse, env)
                }
            }
            RExpr::ListComp {
                element,
                targets,
                iter,
                cond,
            } => self.eval_list_comp(element, targets, iter, cond.as_deref(), env),
            RExpr::Slice { value, start, stop } => {
                self.eval_slice(value, start.as_deref(), stop.as_deref(), env)
            }
        }
    }

    // The cold and composite expression forms run outside `eval` so its
    // frame, which nested expressions and pylite calls stack up, stays
    // small in unoptimized builds.
    /// A list or tuple display's elements, with their element charge.
    fn eval_elements(&mut self, items: &[RExpr], env: &mut Env) -> Result<Vec<Value>, PyErr> {
        let mut out = Vec::with_capacity(items.len());
        for i in items {
            out.push(self.eval(i, env)?);
        }
        self.meter
            .alloc(self.cost.element_bytes * items.len() as u64);
        Ok(out)
    }

    fn eval_dict(&mut self, pairs: &[(RExpr, RExpr)], env: &mut Env) -> Result<Value, PyErr> {
        let mut out = Vec::with_capacity(pairs.len());
        for (k, v) in pairs {
            out.push((self.eval(k, env)?, self.eval(v, env)?));
        }
        self.meter
            .alloc(self.cost.element_bytes * 2 * pairs.len() as u64);
        Ok(Value::dict(out))
    }

    fn eval_call(
        &mut self,
        func: &RExpr,
        args: &[RExpr],
        kwargs: &[(Symbol, RExpr)],
        env: &mut Env,
    ) -> Result<Value, PyErr> {
        let f = self.eval(func, env)?;
        let mut argv = Vec::with_capacity(args.len());
        for a in args {
            argv.push(self.eval(a, env)?);
        }
        let mut kwv = Vec::with_capacity(kwargs.len());
        for (k, v) in kwargs {
            kwv.push((*k, self.eval(v, env)?));
        }
        self.call_value(f, argv, kwv)
    }

    fn eval_bool(&mut self, op: BoolOp, values: &[RExpr], env: &mut Env) -> Result<Value, PyErr> {
        match op {
            BoolOp::And => {
                let mut last = Value::Bool(true);
                for v in values {
                    last = self.eval(v, env)?;
                    if !last.truthy() {
                        return Ok(last);
                    }
                }
                Ok(last)
            }
            BoolOp::Or => {
                let mut last = Value::Bool(false);
                for v in values {
                    last = self.eval(v, env)?;
                    if last.truthy() {
                        return Ok(last);
                    }
                }
                Ok(last)
            }
        }
    }

    fn eval_compare(
        &mut self,
        left: &RExpr,
        ops: &[(CmpOp, RExpr)],
        env: &mut Env,
    ) -> Result<Value, PyErr> {
        let mut lhs = self.eval(left, env)?;
        for (op, rhs_expr) in ops {
            let rhs = self.eval(rhs_expr, env)?;
            if !self.compare(*op, &lhs, &rhs)? {
                return Ok(Value::Bool(false));
            }
            lhs = rhs;
        }
        Ok(Value::Bool(true))
    }

    fn eval_list_comp(
        &mut self,
        element: &RExpr,
        targets: &[Symbol],
        iter: &RExpr,
        cond: Option<&RExpr>,
        env: &mut Env,
    ) -> Result<Value, PyErr> {
        let iterable = self.eval(iter, env)?;
        let items = self.iter_values(&iterable)?;
        let mut out = Vec::with_capacity(items.len());
        for item in items {
            self.meter.steps += 1;
            if self.meter.steps > self.step_limit {
                return Err(PyErr::new(
                    ExcKind::ResourceExhausted,
                    "step limit exceeded in comprehension",
                ));
            }
            if let [target] = targets {
                self.bind_name(*target, item, env);
            } else {
                let parts = self.iter_values(&item)?;
                if parts.len() != targets.len() {
                    return Err(PyErr::new(
                        ExcKind::ValueError,
                        "comprehension target unpack mismatch",
                    ));
                }
                for (t, v) in targets.iter().zip(parts) {
                    self.bind_name(*t, v, env);
                }
            }
            if let Some(c) = cond {
                if !self.eval(c, env)?.truthy() {
                    continue;
                }
            }
            out.push(self.eval(element, env)?);
        }
        self.meter.alloc(self.cost.element_bytes * out.len() as u64);
        Ok(Value::list(out))
    }

    fn eval_slice(
        &mut self,
        value: &RExpr,
        start: Option<&RExpr>,
        stop: Option<&RExpr>,
        env: &mut Env,
    ) -> Result<Value, PyErr> {
        let v = self.eval(value, env)?;
        let start = match start {
            Some(e) => Some(self.eval(e, env)?),
            None => None,
        };
        let stop = match stop {
            Some(e) => Some(self.eval(e, env)?),
            None => None,
        };
        self.slice_value(&v, start.as_ref(), stop.as_ref())
    }
}

// -- operators, attributes, calls -----------------------------------------

impl Interpreter {
    pub(crate) fn binary_op(&mut self, op: BinOp, l: Value, r: Value) -> Result<Value, PyErr> {
        use Value::*;
        let type_err = |l: &Value, r: &Value| {
            PyErr::type_error(format!(
                "unsupported operand type(s) for {}: '{}' and '{}'",
                op.symbol(),
                l.type_name(),
                r.type_name()
            ))
        };
        // Promote bools to ints for arithmetic.
        let lift = |v: Value| match v {
            Bool(b) => Int(b as i64),
            other => other,
        };
        let (l, r) = (lift(l), lift(r));
        match (op, &l, &r) {
            (BinOp::Add, Str(a), Str(b)) => {
                self.meter
                    .alloc(self.cost.str_char_bytes * (a.len() + b.len()) as u64);
                Ok(Value::str(format!("{a}{b}")))
            }
            (BinOp::Add, List(a), List(b)) => {
                let mut out = a.borrow().clone();
                out.extend(b.borrow().iter().cloned());
                self.meter.alloc(self.cost.element_bytes * out.len() as u64);
                Ok(Value::list(out))
            }
            (BinOp::Mul, Str(s), Int(n)) | (BinOp::Mul, Int(n), Str(s)) => {
                let n = (*n).max(0) as usize;
                self.meter
                    .alloc(self.cost.str_char_bytes * (s.len() * n) as u64);
                Ok(Value::str(s.repeat(n)))
            }
            (BinOp::Mul, List(items), Int(n)) | (BinOp::Mul, Int(n), List(items)) => {
                let n = (*n).max(0) as usize;
                let src = items.borrow();
                let mut out = Vec::with_capacity(src.len() * n);
                for _ in 0..n {
                    out.extend(src.iter().cloned());
                }
                self.meter.alloc(self.cost.element_bytes * out.len() as u64);
                Ok(Value::list(out))
            }
            (_, Int(a), Int(b)) => {
                let (a, b) = (*a, *b);
                match op {
                    BinOp::Add => Ok(Int(a.wrapping_add(b))),
                    BinOp::Sub => Ok(Int(a.wrapping_sub(b))),
                    BinOp::Mul => Ok(Int(a.wrapping_mul(b))),
                    BinOp::Div => {
                        if b == 0 {
                            Err(PyErr::new(ExcKind::ZeroDivisionError, "division by zero"))
                        } else {
                            Ok(Float(a as f64 / b as f64))
                        }
                    }
                    BinOp::FloorDiv => {
                        if b == 0 {
                            Err(PyErr::new(ExcKind::ZeroDivisionError, "division by zero"))
                        } else {
                            Ok(Int(a.div_euclid(b)))
                        }
                    }
                    BinOp::Mod => {
                        if b == 0 {
                            Err(PyErr::new(ExcKind::ZeroDivisionError, "modulo by zero"))
                        } else {
                            Ok(Int(a.rem_euclid(b)))
                        }
                    }
                    BinOp::Pow => {
                        if b >= 0 {
                            Ok(Int(a.pow(b.min(63) as u32)))
                        } else {
                            Ok(Float((a as f64).powi(b as i32)))
                        }
                    }
                }
            }
            (_, l @ (Int(_) | Float(_)), r @ (Int(_) | Float(_))) => {
                let a = as_f64(l);
                let b = as_f64(r);
                match op {
                    BinOp::Add => Ok(Float(a + b)),
                    BinOp::Sub => Ok(Float(a - b)),
                    BinOp::Mul => Ok(Float(a * b)),
                    BinOp::Div => {
                        if b == 0.0 {
                            Err(PyErr::new(
                                ExcKind::ZeroDivisionError,
                                "float division by zero",
                            ))
                        } else {
                            Ok(Float(a / b))
                        }
                    }
                    BinOp::FloorDiv => {
                        if b == 0.0 {
                            Err(PyErr::new(
                                ExcKind::ZeroDivisionError,
                                "float floor division by zero",
                            ))
                        } else {
                            Ok(Float((a / b).floor()))
                        }
                    }
                    BinOp::Mod => {
                        if b == 0.0 {
                            Err(PyErr::new(ExcKind::ZeroDivisionError, "float modulo"))
                        } else {
                            Ok(Float(a.rem_euclid(b)))
                        }
                    }
                    BinOp::Pow => Ok(Float(a.powf(b))),
                }
            }
            _ => Err(type_err(&l, &r)),
        }
    }

    pub(crate) fn compare(&mut self, op: CmpOp, l: &Value, r: &Value) -> Result<bool, PyErr> {
        match op {
            CmpOp::Eq => Ok(py_eq(l, r)),
            CmpOp::Ne => Ok(!py_eq(l, r)),
            CmpOp::Is => Ok(py_is(l, r)),
            CmpOp::IsNot => Ok(!py_is(l, r)),
            CmpOp::In => self.contains(r, l),
            CmpOp::NotIn => Ok(!self.contains(r, l)?),
            CmpOp::Lt | CmpOp::Le | CmpOp::Gt | CmpOp::Ge => {
                let ord = match (l, r) {
                    (Value::Int(a), Value::Int(b)) => a.partial_cmp(b),
                    (Value::Str(a), Value::Str(b)) => a.partial_cmp(b),
                    (
                        a @ (Value::Int(_) | Value::Float(_)),
                        b @ (Value::Int(_) | Value::Float(_)),
                    ) => as_f64(a).partial_cmp(&as_f64(b)),
                    _ => None,
                };
                let ord = ord.ok_or_else(|| {
                    PyErr::type_error(format!(
                        "'{}' not supported between instances of '{}' and '{}'",
                        op.symbol(),
                        l.type_name(),
                        r.type_name()
                    ))
                })?;
                Ok(match op {
                    CmpOp::Lt => ord == std::cmp::Ordering::Less,
                    CmpOp::Le => ord != std::cmp::Ordering::Greater,
                    CmpOp::Gt => ord == std::cmp::Ordering::Greater,
                    CmpOp::Ge => ord != std::cmp::Ordering::Less,
                    _ => unreachable!(),
                })
            }
        }
    }

    fn contains(&mut self, container: &Value, needle: &Value) -> Result<bool, PyErr> {
        match container {
            Value::List(items) => Ok(items.borrow().iter().any(|v| py_eq(v, needle))),
            Value::Tuple(items) => Ok(items.iter().any(|v| py_eq(v, needle))),
            Value::Dict(pairs) => Ok(pairs.borrow().iter().any(|(k, _)| py_eq(k, needle))),
            Value::Str(s) => match needle {
                Value::Str(sub) => Ok(s.contains(&**sub)),
                _ => Err(PyErr::type_error("'in <string>' requires string operand")),
            },
            other => Err(PyErr::type_error(format!(
                "argument of type '{}' is not iterable",
                other.type_name()
            ))),
        }
    }

    pub(crate) fn iter_values(&mut self, v: &Value) -> Result<Vec<Value>, PyErr> {
        match v {
            Value::List(items) => Ok(items.borrow().clone()),
            Value::Tuple(items) => Ok((**items).clone()),
            Value::Dict(pairs) => Ok(pairs.borrow().iter().map(|(k, _)| k.clone()).collect()),
            Value::Str(s) => Ok(s.chars().map(|c| Value::str(c.to_string())).collect()),
            other => Err(PyErr::type_error(format!(
                "'{}' object is not iterable",
                other.type_name()
            ))),
        }
    }

    /// Symbol-keyed attribute lookup following pylite's object model.
    /// Raises `AttributeError` — the signal λ-trim's fallback wrapper
    /// watches for. `site` is the resolved-IR inline-cache site id for
    /// `mod.attr` expressions; runtime lookups (`getattr`) pass `None`.
    pub(crate) fn attr_lookup(
        &mut self,
        obj: &Value,
        attr: Symbol,
        site: Option<u32>,
    ) -> Result<Value, PyErr> {
        match obj {
            Value::Module(m) => {
                // Observed-access recording must fire on cache hits too:
                // the profiler's ground truth is every read, not every miss.
                self.record_access(m, attr);
                let generation = m.ns.generation();
                if let Some(site) = site {
                    if let Some(entry) = self.ics.get(&site) {
                        if entry.generation == generation && entry.ns.same(&m.ns) {
                            return Ok(entry.value.clone());
                        }
                    }
                }
                match m.ns.get(attr) {
                    Some(v) => {
                        if let Some(site) = site {
                            self.ics.insert(
                                site,
                                IcEntry {
                                    ns: m.ns.clone(),
                                    generation,
                                    value: v.clone(),
                                },
                            );
                        }
                        Ok(v)
                    }
                    None => Err(PyErr::attribute_error(format!(
                        "module '{}' has no attribute '{}'",
                        m.name,
                        self.interner.resolve(attr)
                    ))),
                }
            }
            Value::List(_) | Value::Dict(_) | Value::Str(_) => {
                match self.native_syms.resolve(obj, attr) {
                    Some(method) => Ok(Value::NativeMethod {
                        recv: Box::new(obj.clone()),
                        method,
                    }),
                    None => Err(PyErr::attribute_error(format!(
                        "'{}' object has no attribute '{}'",
                        obj.type_name(),
                        self.interner.resolve(attr)
                    ))),
                }
            }
            Value::Instance(i) => {
                let inst = i.borrow();
                if let Some(v) = inst.ns.get(attr) {
                    return Ok(v);
                }
                if let Some(v) = inst.class.lookup(attr) {
                    if let Value::Func(f) = &v {
                        return Ok(Value::BoundMethod {
                            recv: Box::new(obj.clone()),
                            func: f.clone(),
                        });
                    }
                    return Ok(v);
                }
                Err(PyErr::attribute_error(format!(
                    "'{}' object has no attribute '{}'",
                    inst.class.name,
                    self.interner.resolve(attr)
                )))
            }
            Value::Class(c) => c.lookup(attr).ok_or_else(|| {
                PyErr::attribute_error(format!(
                    "type object '{}' has no attribute '{}'",
                    c.name,
                    self.interner.resolve(attr)
                ))
            }),
            Value::ExcValue(e) => {
                if attr == self.syms.message || attr == self.syms.args {
                    Ok(Value::str(&e.message))
                } else {
                    Err(PyErr::attribute_error(format!(
                        "'{}' object has no attribute '{}'",
                        e.kind.class_name(),
                        self.interner.resolve(attr)
                    )))
                }
            }
            other => Err(PyErr::attribute_error(format!(
                "'{}' object has no attribute '{}'",
                other.type_name(),
                self.interner.resolve(attr)
            ))),
        }
    }

    /// Attribute lookup with a runtime-supplied name (`getattr`, tooling).
    ///
    /// Module receivers intern the name so missing-attribute probes are
    /// still recorded as observed accesses; for other receivers a name
    /// that was never interned cannot be bound anywhere (all namespaces
    /// are symbol-keyed and every native/builtin name is pre-interned),
    /// so the lookup fails without growing the interner.
    ///
    /// # Errors
    ///
    /// `AttributeError` — the signal λ-trim's fallback wrapper watches for.
    pub fn get_attribute(&mut self, obj: &Value, attr: &str) -> Result<Value, PyErr> {
        if let Value::Module(_) = obj {
            let sym = self.interner.intern(attr);
            return self.attr_lookup(obj, sym, None);
        }
        match self.interner.lookup(attr) {
            Some(sym) => self.attr_lookup(obj, sym, None),
            None => Err(match obj {
                Value::Instance(i) => PyErr::attribute_error(format!(
                    "'{}' object has no attribute '{attr}'",
                    i.borrow().class.name
                )),
                Value::Class(c) => PyErr::attribute_error(format!(
                    "type object '{}' has no attribute '{attr}'",
                    c.name
                )),
                Value::ExcValue(e) => PyErr::attribute_error(format!(
                    "'{}' object has no attribute '{attr}'",
                    e.kind.class_name()
                )),
                other => PyErr::attribute_error(format!(
                    "'{}' object has no attribute '{attr}'",
                    other.type_name()
                )),
            }),
        }
    }

    /// Resolve a slice bound to a clamped index within `len`.
    fn slice_bound(bound: Option<&Value>, len: usize, default: i64) -> Result<i64, PyErr> {
        let raw = match bound {
            None => default,
            Some(Value::Int(i)) => *i,
            Some(Value::Bool(b)) => *b as i64,
            Some(other) => {
                return Err(PyErr::type_error(format!(
                    "slice indices must be integers, not {}",
                    other.type_name()
                )))
            }
        };
        let adjusted = if raw < 0 { raw + len as i64 } else { raw };
        Ok(adjusted.clamp(0, len as i64))
    }

    pub(crate) fn slice_value(
        &mut self,
        v: &Value,
        start: Option<&Value>,
        stop: Option<&Value>,
    ) -> Result<Value, PyErr> {
        match v {
            Value::List(items) => {
                let items = items.borrow();
                let len = items.len();
                let s = Self::slice_bound(start, len, 0)? as usize;
                let e = Self::slice_bound(stop, len, len as i64)? as usize;
                let out: Vec<Value> = if s < e {
                    items[s..e].to_vec()
                } else {
                    Vec::new()
                };
                self.meter.alloc(self.cost.element_bytes * out.len() as u64);
                Ok(Value::list(out))
            }
            Value::Tuple(items) => {
                let len = items.len();
                let s = Self::slice_bound(start, len, 0)? as usize;
                let e = Self::slice_bound(stop, len, len as i64)? as usize;
                let out: Vec<Value> = if s < e {
                    items[s..e].to_vec()
                } else {
                    Vec::new()
                };
                Ok(Value::tuple(out))
            }
            Value::Str(text) => {
                let chars: Vec<char> = text.chars().collect();
                let len = chars.len();
                let s = Self::slice_bound(start, len, 0)? as usize;
                let e = Self::slice_bound(stop, len, len as i64)? as usize;
                let out: String = if s < e {
                    chars[s..e].iter().collect()
                } else {
                    String::new()
                };
                Ok(Value::str(out))
            }
            other => Err(PyErr::type_error(format!(
                "'{}' object is not sliceable",
                other.type_name()
            ))),
        }
    }

    pub(crate) fn get_item(&mut self, obj: &Value, idx: &Value) -> Result<Value, PyErr> {
        match obj {
            Value::List(items) => {
                let items = items.borrow();
                let i = as_index(idx, items.len())?;
                Ok(items[i].clone())
            }
            Value::Tuple(items) => {
                let i = as_index(idx, items.len())?;
                Ok(items[i].clone())
            }
            Value::Str(s) => {
                let chars: Vec<char> = s.chars().collect();
                let i = as_index(idx, chars.len())?;
                Ok(Value::str(chars[i].to_string()))
            }
            Value::Dict(pairs) => pairs
                .borrow()
                .iter()
                .find(|(k, _)| py_eq(k, idx))
                .map(|(_, v)| v.clone())
                .ok_or_else(|| PyErr::new(ExcKind::KeyError, py_repr(idx))),
            other => Err(PyErr::type_error(format!(
                "'{}' object is not subscriptable",
                other.type_name()
            ))),
        }
    }

    /// Call any callable value.
    ///
    /// # Errors
    ///
    /// `TypeError` for non-callables or arity mismatches, plus whatever the
    /// callee raises.
    pub fn call_value(
        &mut self,
        f: Value,
        args: Vec<Value>,
        kwargs: Vec<(Symbol, Value)>,
    ) -> Result<Value, PyErr> {
        match f {
            Value::Func(func) => self.call_pyfunc(&func, args, kwargs),
            Value::BoundMethod { recv, func } => {
                let mut all = Vec::with_capacity(args.len() + 1);
                all.push(*recv);
                all.extend(args);
                self.call_pyfunc(&func, all, kwargs)
            }
            Value::Builtin(b) => self.call_builtin(b, args, kwargs),
            Value::NativeMethod { recv, method } => self.call_native(&recv, method, args),
            Value::Class(class) => {
                let instance = Rc::new(RefCell::new(PyInstance {
                    class: class.clone(),
                    ns: Namespace::new(),
                }));
                self.meter.alloc(self.cost.class_base_bytes / 4);
                let value = Value::Instance(instance);
                if let Some(Value::Func(init)) = class.lookup(self.syms.init) {
                    let mut all = Vec::with_capacity(args.len() + 1);
                    all.push(value.clone());
                    all.extend(args);
                    self.call_pyfunc(&init, all, kwargs)?;
                } else if !args.is_empty() && class.is_exception {
                    // Exception-style constructor: first arg is the message.
                    if let Value::Instance(i) = &value {
                        i.borrow()
                            .ns
                            .set(self.syms.message, Value::str(py_str(&args[0])));
                    }
                }
                Ok(value)
            }
            Value::ExcClass(kind) => {
                let message = args.first().map(py_str).unwrap_or_default();
                Ok(Value::ExcValue(Rc::new(PyErr::new(kind, message))))
            }
            other => Err(PyErr::type_error(format!(
                "'{}' object is not callable",
                other.type_name()
            ))),
        }
    }

    fn call_pyfunc(
        &mut self,
        func: &Rc<PyFunc>,
        args: Vec<Value>,
        kwargs: Vec<(Symbol, Value)>,
    ) -> Result<Value, PyErr> {
        if self.call_depth >= MAX_CALL_DEPTH {
            return Err(PyErr::new(
                ExcKind::RecursionError,
                "maximum recursion depth exceeded",
            ));
        }
        self.call_depth += 1;
        let result = self.call_pyfunc_body(func, args, kwargs);
        self.call_depth -= 1;
        result
    }

    fn call_pyfunc_body(
        &mut self,
        func: &Rc<PyFunc>,
        args: Vec<Value>,
        kwargs: Vec<(Symbol, Value)>,
    ) -> Result<Value, PyErr> {
        self.meter.tick(self.cost.call_ns);
        let params = &func.code.params;
        let locals = Namespace::new();
        let mut assigned = vec![false; params.len()];
        let positional = args.len();
        if positional > params.len() {
            return Err(PyErr::type_error(format!(
                "{}() takes {} positional arguments but {} were given",
                func.name(),
                params.len(),
                positional
            )));
        }
        for (i, v) in args.into_iter().enumerate() {
            locals.set(params[i].sym, v);
            assigned[i] = true;
        }
        for (k, v) in kwargs {
            match params.iter().position(|p| p.sym == k) {
                Some(i) => {
                    if assigned[i] {
                        return Err(PyErr::type_error(format!(
                            "{}() got multiple values for argument '{}'",
                            func.name(),
                            self.interner.resolve(k)
                        )));
                    }
                    locals.set(k, v);
                    assigned[i] = true;
                }
                None => {
                    return Err(PyErr::type_error(format!(
                        "{}() got an unexpected keyword argument '{}'",
                        func.name(),
                        self.interner.resolve(k)
                    )))
                }
            }
        }
        for (i, p) in params.iter().enumerate() {
            if !assigned[i] {
                match &func.defaults[i] {
                    Some(d) => {
                        locals.set(p.sym, d.clone());
                    }
                    None => {
                        return Err(PyErr::type_error(format!(
                            "{}() missing required argument: '{}'",
                            func.name(),
                            p.name
                        )))
                    }
                }
            }
        }
        let mut env = Env {
            globals: func.globals.clone(),
            locals: Some(locals),
            global_decls: HashSet::default(),
            module: func.module.clone(),
        };
        let flow = match self.engine {
            Engine::Tree => self.exec_suite(&func.code.body, &mut env)?,
            Engine::Vm => {
                let code = crate::bytecode::func_code(&func.code);
                self.vm_run_suite(&code, &mut env)?
            }
        };
        match flow {
            Flow::Return(v) => Ok(v),
            _ => Ok(Value::None),
        }
    }
}

// -- builtins and native methods ------------------------------------------

impl Interpreter {
    fn call_builtin(
        &mut self,
        b: Builtin,
        args: Vec<Value>,
        _kwargs: Vec<(Symbol, Value)>,
    ) -> Result<Value, PyErr> {
        let arity_err =
            |want: &str| PyErr::type_error(format!("{}() expects {want} argument(s)", b.name()));
        match b {
            Builtin::Print => {
                let line = args.iter().map(py_str).collect::<Vec<_>>().join(" ");
                self.meter.tick(2_000);
                self.emit_stdout(line);
                Ok(Value::None)
            }
            Builtin::Len => {
                let v = args.first().ok_or_else(|| arity_err("1"))?;
                let n = match v {
                    Value::Str(s) => s.chars().count(),
                    Value::List(l) => l.borrow().len(),
                    Value::Tuple(t) => t.len(),
                    Value::Dict(d) => d.borrow().len(),
                    other => {
                        return Err(PyErr::type_error(format!(
                            "object of type '{}' has no len()",
                            other.type_name()
                        )))
                    }
                };
                Ok(Value::Int(n as i64))
            }
            Builtin::Range => {
                let ints: Vec<i64> = args
                    .iter()
                    .map(|v| match v {
                        Value::Int(i) => Ok(*i),
                        Value::Bool(b) => Ok(*b as i64),
                        other => Err(PyErr::type_error(format!(
                            "range() argument must be int, not {}",
                            other.type_name()
                        ))),
                    })
                    .collect::<Result<_, _>>()?;
                let (start, stop, step) = match ints.as_slice() {
                    [stop] => (0, *stop, 1),
                    [start, stop] => (*start, *stop, 1),
                    [start, stop, step] => (*start, *stop, *step),
                    _ => return Err(arity_err("1 to 3")),
                };
                if step == 0 {
                    return Err(PyErr::new(
                        ExcKind::ValueError,
                        "range() arg 3 must not be zero",
                    ));
                }
                let mut out = Vec::new();
                let mut i = start;
                while (step > 0 && i < stop) || (step < 0 && i > stop) {
                    out.push(Value::Int(i));
                    i += step;
                    if out.len() > 10_000_000 {
                        return Err(PyErr::new(ExcKind::ResourceExhausted, "range too large"));
                    }
                }
                Ok(Value::list(out))
            }
            Builtin::Str => Ok(Value::str(args.first().map(py_str).unwrap_or_default())),
            Builtin::Repr => {
                let v = args.first().ok_or_else(|| arity_err("1"))?;
                Ok(Value::str(py_repr(v)))
            }
            Builtin::Int => {
                let v = args.first().ok_or_else(|| arity_err("1"))?;
                match v {
                    Value::Int(i) => Ok(Value::Int(*i)),
                    Value::Bool(b) => Ok(Value::Int(*b as i64)),
                    Value::Float(f) => Ok(Value::Int(*f as i64)),
                    Value::Str(s) => s.trim().parse::<i64>().map(Value::Int).map_err(|_| {
                        PyErr::new(
                            ExcKind::ValueError,
                            format!("invalid literal for int(): {s:?}"),
                        )
                    }),
                    other => Err(PyErr::type_error(format!(
                        "int() argument must not be '{}'",
                        other.type_name()
                    ))),
                }
            }
            Builtin::Float => {
                let v = args.first().ok_or_else(|| arity_err("1"))?;
                match v {
                    Value::Int(i) => Ok(Value::Float(*i as f64)),
                    Value::Bool(b) => Ok(Value::Float(*b as i64 as f64)),
                    Value::Float(f) => Ok(Value::Float(*f)),
                    Value::Str(s) => s.trim().parse::<f64>().map(Value::Float).map_err(|_| {
                        PyErr::new(
                            ExcKind::ValueError,
                            format!("could not convert string to float: {s:?}"),
                        )
                    }),
                    other => Err(PyErr::type_error(format!(
                        "float() argument must not be '{}'",
                        other.type_name()
                    ))),
                }
            }
            Builtin::Bool => Ok(Value::Bool(
                args.first().map(Value::truthy).unwrap_or(false),
            )),
            Builtin::Abs => {
                let v = args.first().ok_or_else(|| arity_err("1"))?;
                match v {
                    Value::Int(i) => Ok(Value::Int(i.abs())),
                    Value::Float(f) => Ok(Value::Float(f.abs())),
                    other => Err(PyErr::type_error(format!(
                        "bad operand type for abs(): '{}'",
                        other.type_name()
                    ))),
                }
            }
            Builtin::Min | Builtin::Max => {
                let items = if args.len() == 1 {
                    self.iter_values(&args[0])?
                } else {
                    args
                };
                if items.is_empty() {
                    return Err(PyErr::new(ExcKind::ValueError, "empty sequence"));
                }
                let mut best = items[0].clone();
                for v in &items[1..] {
                    let replace = if b == Builtin::Min {
                        self.compare(CmpOp::Lt, v, &best)?
                    } else {
                        self.compare(CmpOp::Gt, v, &best)?
                    };
                    if replace {
                        best = v.clone();
                    }
                }
                Ok(best)
            }
            Builtin::Sum => {
                let items = self.iter_values(args.first().ok_or_else(|| arity_err("1"))?)?;
                let mut acc = Value::Int(0);
                for v in items {
                    acc = self.binary_op(BinOp::Add, acc, v)?;
                }
                Ok(acc)
            }
            Builtin::Round => {
                let v = args.first().ok_or_else(|| arity_err("1 or 2"))?;
                let x = match v {
                    Value::Int(i) => return Ok(Value::Int(*i)),
                    Value::Float(f) => *f,
                    other => {
                        return Err(PyErr::type_error(format!(
                            "type {} doesn't define __round__",
                            other.type_name()
                        )))
                    }
                };
                match args.get(1) {
                    None => Ok(Value::Int(x.round() as i64)),
                    Some(Value::Int(nd)) => {
                        let scale = 10f64.powi(*nd as i32);
                        Ok(Value::Float((x * scale).round() / scale))
                    }
                    Some(other) => Err(PyErr::type_error(format!(
                        "ndigits must be int, not {}",
                        other.type_name()
                    ))),
                }
            }
            Builtin::Sorted => {
                let mut items = self.iter_values(args.first().ok_or_else(|| arity_err("1"))?)?;
                // Simple insertion sort using py comparison (lists are small).
                for i in 1..items.len() {
                    let mut j = i;
                    while j > 0 && self.compare(CmpOp::Lt, &items[j], &items[j - 1])? {
                        items.swap(j, j - 1);
                        j -= 1;
                    }
                }
                Ok(Value::list(items))
            }
            Builtin::Enumerate => {
                let items = self.iter_values(args.first().ok_or_else(|| arity_err("1"))?)?;
                Ok(Value::list(
                    items
                        .into_iter()
                        .enumerate()
                        .map(|(i, v)| Value::tuple(vec![Value::Int(i as i64), v]))
                        .collect(),
                ))
            }
            Builtin::Zip => {
                if args.len() != 2 {
                    return Err(arity_err("2"));
                }
                let a = self.iter_values(&args[0])?;
                let bv = self.iter_values(&args[1])?;
                Ok(Value::list(
                    a.into_iter()
                        .zip(bv)
                        .map(|(x, y)| Value::tuple(vec![x, y]))
                        .collect(),
                ))
            }
            Builtin::Isinstance => {
                if args.len() != 2 {
                    return Err(arity_err("2"));
                }
                Ok(Value::Bool(value_isinstance(&args[0], &args[1])))
            }
            Builtin::Type => {
                let v = args.first().ok_or_else(|| arity_err("1"))?;
                Ok(Value::str(v.class_name()))
            }
            Builtin::Getattr => {
                let obj = args.first().ok_or_else(|| arity_err("2 or 3"))?;
                let name = match args.get(1) {
                    Some(Value::Str(s)) => Arc::clone(s),
                    _ => {
                        return Err(PyErr::type_error(
                            "getattr(): attribute name must be string",
                        ))
                    }
                };
                match self.get_attribute(obj, &name) {
                    Ok(v) => Ok(v),
                    Err(e) if matches!(e.kind, ExcKind::AttributeError) => match args.get(2) {
                        Some(default) => Ok(default.clone()),
                        None => Err(e),
                    },
                    Err(e) => Err(e),
                }
            }
            Builtin::Setattr => {
                if args.len() != 3 {
                    return Err(arity_err("3"));
                }
                let name = match &args[1] {
                    Value::Str(s) => Arc::clone(s),
                    _ => {
                        return Err(PyErr::type_error(
                            "setattr(): attribute name must be string",
                        ))
                    }
                };
                // Interning a brand-new name is fine: the namespace `set`
                // bumps the generation, invalidating any inline cache.
                let sym = self.interner.intern(&name);
                match &args[0] {
                    Value::Module(m) => {
                        m.ns.set(sym, args[2].clone());
                        self.snap_on_module_write(&m.name);
                    }
                    Value::Instance(i) => {
                        i.borrow().ns.set(sym, args[2].clone());
                    }
                    Value::Class(c) => {
                        c.ns.set(sym, args[2].clone());
                    }
                    other => {
                        return Err(PyErr::type_error(format!(
                            "cannot set attributes of '{}'",
                            other.type_name()
                        )))
                    }
                }
                Ok(Value::None)
            }
            Builtin::Hasattr => {
                let obj = args.first().ok_or_else(|| arity_err("2"))?;
                let name = match args.get(1) {
                    Some(Value::Str(s)) => Arc::clone(s),
                    _ => {
                        return Err(PyErr::type_error(
                            "hasattr(): attribute name must be string",
                        ))
                    }
                };
                match self.get_attribute(obj, &name) {
                    Ok(_) => Ok(Value::Bool(true)),
                    Err(e) if matches!(e.kind, ExcKind::AttributeError) => Ok(Value::Bool(false)),
                    Err(e) => Err(e),
                }
            }
            Builtin::List => match args.first() {
                None => Ok(Value::list(vec![])),
                Some(v) => Ok(Value::list(self.iter_values(v)?)),
            },
            Builtin::Tuple => match args.first() {
                None => Ok(Value::tuple(vec![])),
                Some(v) => Ok(Value::tuple(self.iter_values(v)?)),
            },
            Builtin::Dict => match args.first() {
                None => Ok(Value::dict(vec![])),
                Some(Value::Dict(d)) => Ok(Value::dict(d.borrow().clone())),
                Some(v) => {
                    let items = self.iter_values(v)?;
                    let mut pairs = Vec::with_capacity(items.len());
                    for item in items {
                        let kv = self.iter_values(&item)?;
                        if kv.len() != 2 {
                            return Err(PyErr::new(
                                ExcKind::ValueError,
                                "dictionary update sequence element is not length 2",
                            ));
                        }
                        pairs.push((kv[0].clone(), kv[1].clone()));
                    }
                    Ok(Value::dict(pairs))
                }
            },
            Builtin::SimWork => {
                let ms = args.first().map(as_f64).unwrap_or(0.0);
                self.meter.tick(ms_to_ns(ms));
                Ok(Value::None)
            }
            Builtin::SimAlloc => {
                let mb = args.first().map(as_f64).unwrap_or(0.0);
                let bytes = mb_to_bytes(mb);
                self.meter.alloc(bytes);
                Ok(Value::Blob(bytes))
            }
            Builtin::SimExtCall => {
                let parts: Vec<String> = args.iter().map(py_str).collect();
                self.meter.tick(500_000);
                self.emit_extcall(parts.join(":"));
                Ok(Value::None)
            }
        }
    }

    fn call_native(
        &mut self,
        recv: &Value,
        method: NativeMethod,
        args: Vec<Value>,
    ) -> Result<Value, PyErr> {
        use NativeMethod::*;
        self.meter.tick(1_000);
        match (recv, method) {
            (Value::List(items), Append) => {
                let v = args
                    .into_iter()
                    .next()
                    .ok_or_else(|| PyErr::type_error("append() takes exactly one argument"))?;
                items.borrow_mut().push(v);
                self.meter.alloc(self.cost.element_bytes);
                Ok(Value::None)
            }
            (Value::List(items), Extend) => {
                let arg = args
                    .into_iter()
                    .next()
                    .ok_or_else(|| PyErr::type_error("extend() takes exactly one argument"))?;
                let vals = self.iter_values(&arg)?;
                self.meter
                    .alloc(self.cost.element_bytes * vals.len() as u64);
                items.borrow_mut().extend(vals);
                Ok(Value::None)
            }
            (Value::List(items), Pop) => {
                let mut items = items.borrow_mut();
                let idx = match args.first() {
                    None => items.len().checked_sub(1),
                    Some(Value::Int(i)) => {
                        let i = *i;
                        if i < 0 {
                            items.len().checked_sub(i.unsigned_abs() as usize)
                        } else {
                            Some(i as usize)
                        }
                    }
                    Some(other) => {
                        return Err(PyErr::type_error(format!(
                            "pop index must be int, not {}",
                            other.type_name()
                        )))
                    }
                };
                match idx {
                    Some(i) if i < items.len() => Ok(items.remove(i)),
                    _ => Err(PyErr::new(ExcKind::IndexError, "pop from empty list")),
                }
            }
            (Value::List(items), Index) => {
                let needle = args
                    .first()
                    .ok_or_else(|| PyErr::type_error("index() takes exactly one argument"))?;
                items
                    .borrow()
                    .iter()
                    .position(|v| py_eq(v, needle))
                    .map(|i| Value::Int(i as i64))
                    .ok_or_else(|| PyErr::new(ExcKind::ValueError, "value not in list"))
            }
            (Value::List(items), Count) => {
                let needle = args
                    .first()
                    .ok_or_else(|| PyErr::type_error("count() takes exactly one argument"))?;
                let n = items.borrow().iter().filter(|v| py_eq(v, needle)).count();
                Ok(Value::Int(n as i64))
            }
            (Value::Dict(pairs), Get) => {
                let key = args
                    .first()
                    .ok_or_else(|| PyErr::type_error("get() takes at least one argument"))?;
                Ok(pairs
                    .borrow()
                    .iter()
                    .find(|(k, _)| py_eq(k, key))
                    .map(|(_, v)| v.clone())
                    .unwrap_or_else(|| args.get(1).cloned().unwrap_or(Value::None)))
            }
            (Value::Dict(pairs), Keys) => Ok(Value::list(
                pairs.borrow().iter().map(|(k, _)| k.clone()).collect(),
            )),
            (Value::Dict(pairs), Values) => Ok(Value::list(
                pairs.borrow().iter().map(|(_, v)| v.clone()).collect(),
            )),
            (Value::Dict(pairs), Items) => Ok(Value::list(
                pairs
                    .borrow()
                    .iter()
                    .map(|(k, v)| Value::tuple(vec![k.clone(), v.clone()]))
                    .collect(),
            )),
            (Value::Dict(pairs), Update) => {
                let other = match args.first() {
                    Some(Value::Dict(d)) => d.borrow().clone(),
                    _ => return Err(PyErr::type_error("update() requires a dict")),
                };
                let mut pairs = pairs.borrow_mut();
                for (k, v) in other {
                    if let Some(slot) = pairs.iter_mut().find(|(pk, _)| py_eq(pk, &k)) {
                        slot.1 = v;
                    } else {
                        pairs.push((k, v));
                        self.meter.alloc(self.cost.element_bytes);
                    }
                }
                Ok(Value::None)
            }
            (Value::Dict(pairs), Pop) => {
                let key = args
                    .first()
                    .ok_or_else(|| PyErr::type_error("pop() takes at least one argument"))?;
                let mut pairs = pairs.borrow_mut();
                match pairs.iter().position(|(k, _)| py_eq(k, key)) {
                    Some(i) => Ok(pairs.remove(i).1),
                    None => match args.get(1) {
                        Some(default) => Ok(default.clone()),
                        None => Err(PyErr::new(ExcKind::KeyError, py_repr(key))),
                    },
                }
            }
            (Value::Str(s), m) => self.call_str_method(s, m, args),
            _ => Err(PyErr::type_error("bad native method receiver")),
        }
    }

    fn call_str_method(
        &mut self,
        s: &str,
        method: NativeMethod,
        args: Vec<Value>,
    ) -> Result<Value, PyErr> {
        use NativeMethod::*;
        let str_arg = |i: usize| -> Result<String, PyErr> {
            match args.get(i) {
                Some(Value::Str(s)) => Ok(s.to_string()),
                Some(other) => Err(PyErr::type_error(format!(
                    "expected str argument, got {}",
                    other.type_name()
                ))),
                None => Err(PyErr::type_error("missing str argument")),
            }
        };
        match method {
            Upper => Ok(Value::str(s.to_uppercase())),
            Lower => Ok(Value::str(s.to_lowercase())),
            Strip => Ok(Value::str(s.trim())),
            Split => {
                let parts: Vec<Value> = match args.first() {
                    None => s.split_whitespace().map(Value::str).collect(),
                    Some(Value::Str(sep)) => s.split(&**sep).map(Value::str).collect(),
                    Some(other) => {
                        return Err(PyErr::type_error(format!(
                            "sep must be str, not {}",
                            other.type_name()
                        )))
                    }
                };
                Ok(Value::list(parts))
            }
            Join => {
                let items = self.iter_values(
                    args.first()
                        .ok_or_else(|| PyErr::type_error("join() takes exactly one argument"))?,
                )?;
                let mut parts = Vec::with_capacity(items.len());
                for v in items {
                    match v {
                        Value::Str(p) => parts.push(p.to_string()),
                        other => {
                            return Err(PyErr::type_error(format!(
                                "sequence item: expected str, {} found",
                                other.type_name()
                            )))
                        }
                    }
                }
                Ok(Value::str(parts.join(s)))
            }
            Replace => {
                let from = str_arg(0)?;
                let to = str_arg(1)?;
                Ok(Value::str(s.replace(&from, &to)))
            }
            Startswith => Ok(Value::Bool(s.starts_with(&str_arg(0)?))),
            Endswith => Ok(Value::Bool(s.ends_with(&str_arg(0)?))),
            Count => {
                let sub = str_arg(0)?;
                if sub.is_empty() {
                    return Ok(Value::Int(s.chars().count() as i64 + 1));
                }
                Ok(Value::Int(s.matches(&sub).count() as i64))
            }
            Format => {
                let mut out = String::new();
                let mut arg_i = 0usize;
                let mut chars = s.chars().peekable();
                while let Some(c) = chars.next() {
                    if c == '{' && chars.peek() == Some(&'}') {
                        chars.next();
                        let v = args.get(arg_i).ok_or_else(|| {
                            PyErr::new(
                                ExcKind::IndexError,
                                "Replacement index out of range for positional args",
                            )
                        })?;
                        out.push_str(&py_str(v));
                        arg_i += 1;
                    } else {
                        out.push(c);
                    }
                }
                Ok(Value::str(out))
            }
            _ => Err(PyErr::attribute_error("unsupported str method")),
        }
    }
}

/// Python `is` — identity for reference types, value identity for scalars.
/// A module body's statements must complete normally.
pub(crate) fn top_level_flow(flow: Flow) -> Result<(), PyErr> {
    match flow {
        Flow::Normal => Ok(()),
        _ => Err(PyErr::new(
            ExcKind::RuntimeError,
            "return/break/continue outside of function or loop",
        )),
    }
}

fn py_is(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::None, Value::None) => true,
        (Value::Bool(x), Value::Bool(y)) => x == y,
        (Value::Int(x), Value::Int(y)) => x == y,
        (Value::Str(x), Value::Str(y)) => Arc::ptr_eq(x, y) || x == y,
        (Value::List(x), Value::List(y)) => Rc::ptr_eq(x, y),
        (Value::Dict(x), Value::Dict(y)) => Rc::ptr_eq(x, y),
        (Value::Tuple(x), Value::Tuple(y)) => Rc::ptr_eq(x, y),
        (Value::Func(x), Value::Func(y)) => Rc::ptr_eq(x, y),
        (Value::Class(x), Value::Class(y)) => Rc::ptr_eq(x, y),
        (Value::Instance(x), Value::Instance(y)) => Rc::ptr_eq(x, y),
        (Value::Module(x), Value::Module(y)) => Rc::ptr_eq(x, y),
        (Value::Builtin(x), Value::Builtin(y)) => x == y,
        (Value::ExcClass(x), Value::ExcClass(y)) => x == y,
        _ => false,
    }
}

fn collect_class_chain(class: &Rc<PyClass>, chain: &mut Vec<String>) {
    if !chain.iter().any(|c| c == &class.name) {
        chain.push(class.name.clone());
    }
    for b in &class.bases {
        collect_class_chain(b, chain);
    }
}

fn value_isinstance(v: &Value, class: &Value) -> bool {
    match class {
        Value::Class(c) => match v {
            Value::Instance(i) => i.borrow().class.isa(&c.name),
            _ => false,
        },
        Value::ExcClass(kind) => match v {
            Value::ExcValue(e) => {
                e.matches_handler(kind.class_name()) || kind.class_name() == "Exception"
            }
            Value::Instance(i) => i.borrow().class.is_exception && kind.class_name() == "Exception",
            _ => false,
        },
        Value::Builtin(b) => {
            matches!(
                (b, v),
                (Builtin::Str, Value::Str(_))
                    | (Builtin::Int, Value::Int(_))
                    | (Builtin::Int, Value::Bool(_))
                    | (Builtin::Float, Value::Float(_))
                    | (Builtin::Bool, Value::Bool(_))
                    | (Builtin::List, Value::List(_))
                    | (Builtin::Dict, Value::Dict(_))
                    | (Builtin::Tuple, Value::Tuple(_))
            )
        }
        Value::Tuple(classes) => classes.iter().any(|c| value_isinstance(v, c)),
        _ => false,
    }
}

/// Apply a unary operator (shared by both engines).
pub(crate) fn unary_op(op: UnaryOp, v: Value) -> Result<Value, PyErr> {
    match op {
        UnaryOp::Not => Ok(Value::Bool(!v.truthy())),
        UnaryOp::Neg => match v {
            Value::Int(i) => Ok(Value::Int(-i)),
            Value::Float(f) => Ok(Value::Float(-f)),
            Value::Bool(b) => Ok(Value::Int(-(b as i64))),
            other => Err(PyErr::type_error(format!(
                "bad operand type for unary -: '{}'",
                other.type_name()
            ))),
        },
        UnaryOp::Pos => match v {
            Value::Int(_) | Value::Float(_) | Value::Bool(_) => Ok(v),
            other => Err(PyErr::type_error(format!(
                "bad operand type for unary +: '{}'",
                other.type_name()
            ))),
        },
    }
}

fn as_f64(v: &Value) -> f64 {
    match v {
        Value::Int(i) => *i as f64,
        Value::Float(f) => *f,
        Value::Bool(b) => *b as i64 as f64,
        _ => f64::NAN,
    }
}

fn as_index(idx: &Value, len: usize) -> Result<usize, PyErr> {
    let i = match idx {
        Value::Int(i) => *i,
        Value::Bool(b) => *b as i64,
        other => {
            return Err(PyErr::type_error(format!(
                "indices must be integers, not {}",
                other.type_name()
            )))
        }
    };
    let adjusted = if i < 0 { i + len as i64 } else { i };
    if adjusted < 0 || adjusted as usize >= len {
        return Err(PyErr::new(ExcKind::IndexError, "index out of range"));
    }
    Ok(adjusted as usize)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(src: &str) -> Interpreter {
        let mut it = Interpreter::new(Registry::new());
        it.exec_main(src).expect("program runs");
        it
    }

    fn run_err(src: &str) -> PyErr {
        let mut it = Interpreter::new(Registry::new());
        it.exec_main(src).expect_err("program should fail")
    }

    fn run_with(mods: &[(&str, &str)], src: &str) -> Interpreter {
        let mut r = Registry::new();
        for (m, s) in mods {
            r.set_module(*m, *s);
        }
        let mut it = Interpreter::new(r);
        it.exec_main(src).expect("program runs");
        it
    }

    #[test]
    fn star_import_binds_public_names() {
        let it = run_with(
            &[("m", "alpha = 1\n_hidden = 2\ndef go():\n    return 3\n")],
            "from m import *\nprint(alpha, go())\n",
        );
        assert_eq!(it.stdout, vec!["1 3"]);
    }

    #[test]
    fn star_import_skips_private_names() {
        let e = {
            let mut r = Registry::new();
            r.set_module("m", "_hidden = 2\n");
            let mut it = Interpreter::new(r);
            it.exec_main("from m import *\nprint(_hidden)\n")
                .expect_err("private name must not be bound")
        };
        assert!(matches!(e.kind, ExcKind::NameError));
    }

    #[test]
    fn dotted_class_bases_resolve_through_modules() {
        let it = run_with(
            &[(
                "nn",
                "class Module:\n    def tag(self):\n        return \"base\"\n",
            )],
            "import nn\nclass Net(nn.Module):\n    pass\nprint(Net().tag())\n",
        );
        assert_eq!(it.stdout, vec!["base"]);
    }

    #[test]
    fn module_attribute_reads_are_observed() {
        let it = run_with(
            &[("m", "alpha = 1\nbeta = 2\ngamma = 3\n")],
            "import m\nfrom m import beta\nx = m.alpha\ny = getattr(m, \"gamma\")\n",
        );
        let seen = it.observed_accesses().get("m").cloned().unwrap_or_default();
        assert!(seen.contains("alpha"), "direct attribute read");
        assert!(seen.contains("beta"), "from-import read");
        assert!(seen.contains("gamma"), "getattr read");
    }

    #[test]
    fn observed_accesses_skip_non_registry_modules() {
        let it = run("x = 1\n");
        assert!(it.observed_accesses().is_empty());
    }

    #[test]
    fn arithmetic_and_print() {
        let it = run("print(1 + 2 * 3)\nprint(7 // 2, 7 % 2, 2 ** 10)\nprint(1 / 2)\n");
        assert_eq!(it.stdout, vec!["7", "3 1 1024", "0.5"]);
    }

    #[test]
    fn string_operations() {
        let it = run(r#"
s = "hello" + " " + "world"
print(s.upper())
print(s.split(" "))
print("-".join(["a", "b", "c"]))
print("x={} y={}".format(1, 2))
print(s.startswith("hello"), s.endswith("!"))
"#);
        assert_eq!(
            it.stdout,
            vec![
                "HELLO WORLD",
                "[\"hello\", \"world\"]",
                "a-b-c",
                "x=1 y=2",
                "True False"
            ]
        );
    }

    #[test]
    fn functions_defaults_and_kwargs() {
        let it = run(
            "def f(a, b=10, c=20):\n    return a + b + c\nprint(f(1))\nprint(f(1, 2))\nprint(f(1, c=3))\n",
        );
        assert_eq!(it.stdout, vec!["31", "23", "14"]);
    }

    #[test]
    fn classes_methods_and_attributes() {
        let it = run(r#"
class Counter:
    def __init__(self, start):
        self.n = start
    def incr(self, by=1):
        self.n += by
        return self.n

c = Counter(10)
c.incr()
c.incr(5)
print(c.n)
"#);
        assert_eq!(it.stdout, vec!["16"]);
    }

    #[test]
    fn inheritance_lookup() {
        let it = run(r#"
class Base:
    def hello(self):
        return "base"
class Child(Base):
    pass
print(Child().hello())
"#);
        assert_eq!(it.stdout, vec!["base"]);
    }

    #[test]
    fn loops_and_control_flow() {
        let it = run(r#"
total = 0
for i in range(10):
    if i == 5:
        continue
    if i == 8:
        break
    total += i
print(total)
n = 0
while n < 3:
    n += 1
print(n)
"#);
        assert_eq!(it.stdout, vec!["23", "3"]);
    }

    #[test]
    fn list_and_dict_methods() {
        let it = run(r#"
xs = [3, 1, 2]
xs.append(0)
print(sorted(xs))
print(xs.index(1), xs.count(2))
d = {"a": 1}
d["b"] = 2
print(d.get("a"), d.get("zz", -1))
print(len(d.keys()), d.items())
"#);
        assert_eq!(
            it.stdout,
            vec!["[0, 1, 2, 3]", "1 1", "1 -1", "2 [(\"a\", 1), (\"b\", 2)]"]
        );
    }

    #[test]
    fn try_except_catches_attribute_error() {
        let it = run(r#"
class A:
    pass
a = A()
try:
    a.missing
except AttributeError as e:
    print("caught")
"#);
        assert_eq!(it.stdout, vec!["caught"]);
    }

    #[test]
    fn uncaught_attribute_error_propagates() {
        let e = run_err("x = 1\nx.missing\n");
        assert!(matches!(e.kind, ExcKind::AttributeError));
    }

    #[test]
    fn raise_and_catch_custom_exception() {
        let it = run(r#"
class MyError(Exception):
    pass
try:
    raise MyError("boom")
except MyError as e:
    print("got", str(e))
"#);
        assert_eq!(it.stdout.len(), 1);
        assert!(it.stdout[0].starts_with("got"));
    }

    #[test]
    fn finally_always_runs() {
        let it = run(r#"
def f():
    try:
        raise ValueError("x")
    except ValueError:
        return 1
    finally:
        print("cleanup")
print(f())
"#);
        assert_eq!(it.stdout, vec!["cleanup", "1"]);
    }

    #[test]
    fn imports_bind_top_level_package() {
        let mut r = Registry::new();
        r.set_module("pkg", "x = 1\n");
        r.set_module("pkg.sub", "y = 2\n");
        let mut it = Interpreter::new(r);
        it.exec_main("import pkg.sub\nprint(pkg.sub.y)\nprint(pkg.x)\n")
            .unwrap();
        assert_eq!(it.stdout, vec!["2", "1"]);
    }

    #[test]
    fn import_alias_binds_leaf() {
        let mut r = Registry::new();
        r.set_module("pkg", "");
        r.set_module("pkg.sub", "y = 2\n");
        let mut it = Interpreter::new(r);
        it.exec_main("import pkg.sub as s\nprint(s.y)\n").unwrap();
        assert_eq!(it.stdout, vec!["2"]);
    }

    #[test]
    fn from_import_names_and_submodules() {
        let mut r = Registry::new();
        r.set_module("lib", "a = 1\n");
        r.set_module("lib.tools", "b = 2\n");
        let mut it = Interpreter::new(r);
        it.exec_main("from lib import a, tools\nprint(a, tools.b)\n")
            .unwrap();
        assert_eq!(it.stdout, vec!["1 2"]);
    }

    #[test]
    fn from_import_missing_name_is_import_error() {
        let mut r = Registry::new();
        r.set_module("lib", "a = 1\n");
        let mut it = Interpreter::new(r);
        let e = it.exec_main("from lib import nope\n").unwrap_err();
        assert!(matches!(e.kind, ExcKind::ImportError));
    }

    #[test]
    fn modules_are_cached() {
        let mut r = Registry::new();
        r.set_module("m", "print(\"side effect\")\n");
        let mut it = Interpreter::new(r);
        it.exec_main("import m\nimport m\n").unwrap();
        assert_eq!(it.stdout, vec!["side effect"], "module body runs once");
    }

    #[test]
    fn cyclic_imports_do_not_hang() {
        let mut r = Registry::new();
        r.set_module("a", "import b\nx = 1\n");
        r.set_module("b", "import a\ny = 2\n");
        let mut it = Interpreter::new(r);
        it.exec_main("import a\nprint(a.x, a.b.y)\n").unwrap();
        assert_eq!(it.stdout, vec!["1 2"]);
    }

    #[test]
    fn import_events_record_marginal_costs() {
        let mut r = Registry::new();
        r.set_module("heavy", "__lt_work__(100)\n__lt_alloc__(50)\nz = 1\n");
        r.set_module("light", "import heavy\nw = 2\n");
        let mut it = Interpreter::new(r);
        it.exec_main("import light\n").unwrap();
        let heavy = it
            .import_events
            .iter()
            .find(|e| e.module == "heavy")
            .unwrap();
        let light = it
            .import_events
            .iter()
            .find(|e| e.module == "light")
            .unwrap();
        assert_eq!(heavy.depth, 1);
        assert_eq!(light.depth, 0);
        assert!(heavy.time_ns >= 100_000_000);
        assert!(heavy.mem_bytes >= 50 * 1024 * 1024);
        assert!(
            light.time_ns >= heavy.time_ns,
            "parent marginal cost includes nested imports"
        );
    }

    #[test]
    fn failed_import_is_removed_from_sys_modules() {
        let mut r = Registry::new();
        r.set_module("bad", "raise ValueError(\"no\")\n");
        let mut it = Interpreter::new(r);
        assert!(it.exec_main("import bad\n").is_err());
        assert!(it.module("bad").is_none());
    }

    #[test]
    fn handler_invocation() {
        let mut it = Interpreter::new(Registry::new());
        it.exec_main("def handler(event, context):\n    return event[\"n\"] * 2\n")
            .unwrap();
        let event = Value::dict(vec![(Value::str("n"), Value::Int(21))]);
        let out = it.call_handler("handler", event, Value::None).unwrap();
        assert!(py_eq(&out, &Value::Int(42)));
    }

    #[test]
    fn missing_handler_is_name_error() {
        let mut it = Interpreter::new(Registry::new());
        it.exec_main("x = 1\n").unwrap();
        let e = it
            .call_handler("handler", Value::None, Value::None)
            .unwrap_err();
        assert!(matches!(e.kind, ExcKind::NameError));
    }

    #[test]
    fn step_limit_turns_infinite_loop_into_error() {
        let mut it = Interpreter::new(Registry::new());
        it.step_limit = 10_000;
        let e = it.exec_main("while True:\n    pass\n").unwrap_err();
        assert!(matches!(e.kind, ExcKind::ResourceExhausted));
    }

    #[test]
    fn step_limit_is_not_catchable() {
        let mut it = Interpreter::new(Registry::new());
        it.step_limit = 10_000;
        let e = it
            .exec_main("try:\n    while True:\n        pass\nexcept:\n    print(\"no\")\n")
            .unwrap_err();
        assert!(matches!(e.kind, ExcKind::ResourceExhausted));
        assert!(it.stdout.is_empty());
    }

    /// Run `import m` for a module whose init recurses without bound, on
    /// a 2 MiB thread like a test harness worker.
    fn runaway_recursion(engine: Engine) -> (PyErr, u64, u64, u64) {
        std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(move || {
                let mut r = Registry::new();
                r.set_module("m", "def f(n):\n    return f(n + 1)\nx = f(0)\n");
                let mut it = Interpreter::new(r);
                it.engine = engine;
                let err = it.exec_main("import m\n").unwrap_err();
                (
                    err,
                    it.meter.clock_ns(),
                    it.meter.mem_bytes(),
                    it.meter.steps,
                )
            })
            .unwrap()
            .join()
            .expect("recursion must not overflow the native stack")
    }

    #[test]
    fn runaway_recursion_is_a_recursion_error_on_both_engines() {
        let tree = runaway_recursion(Engine::Tree);
        let vm = runaway_recursion(Engine::Vm);
        assert!(matches!(tree.0.kind, ExcKind::RecursionError), "{}", tree.0);
        assert_eq!(tree, vm, "same trip point and meter state");
        // `import m`, `def f`, `x = f(0)`, then one `return` per frame.
        assert_eq!(tree.3, 3 + MAX_CALL_DEPTH as u64);
    }

    #[test]
    fn recursion_error_is_catchable_and_unwinds_the_depth() {
        for engine in [Engine::Tree, Engine::Vm] {
            let mut it = Interpreter::new(Registry::new());
            it.engine = engine;
            it.exec_main(
                "def f(n):\n    return f(n + 1)\ntry:\n    f(0)\nexcept RecursionError:\n    print(\"caught\")\ndef g(n):\n    if n == 0:\n        return 0\n    return g(n - 1)\nprint(g(40))\n",
            )
            .unwrap();
            assert_eq!(it.stdout, vec!["caught", "0"], "{engine:?}");
        }
    }

    #[test]
    fn global_statement_writes_module_scope() {
        let it = run(r#"
counter = 0
def bump():
    global counter
    counter += 1
bump()
bump()
print(counter)
"#);
        assert_eq!(it.stdout, vec!["2"]);
    }

    #[test]
    fn getattr_setattr_hasattr() {
        let it = run(r#"
class Box:
    pass
b = Box()
setattr(b, "x", 5)
print(hasattr(b, "x"), getattr(b, "x"), getattr(b, "y", -1))
"#);
        assert_eq!(it.stdout, vec!["True 5 -1"]);
    }

    #[test]
    fn del_removes_module_attribute() {
        let mut r = Registry::new();
        r.set_module("m", "a = 1\nb = 2\n");
        let mut it = Interpreter::new(r);
        it.exec_main("import m\ndel m.a\nprint(hasattr(m, \"a\"), m.b)\n")
            .unwrap();
        assert_eq!(it.stdout, vec!["False 2"]);
    }

    #[test]
    fn isinstance_checks() {
        let it = run(r#"
print(isinstance(1, int), isinstance("s", str), isinstance([1], list))
print(isinstance(1.5, int))
class A:
    pass
class B(A):
    pass
print(isinstance(B(), A))
"#);
        assert_eq!(it.stdout, vec!["True True True", "False", "True"]);
    }

    #[test]
    fn sim_intrinsics_advance_meter() {
        let mut it = Interpreter::new(Registry::new());
        it.exec_main("__lt_work__(250)\nblob = __lt_alloc__(10)\n")
            .unwrap();
        assert!(it.meter.clock_ns() >= 250_000_000);
        assert!(it.meter.mem_bytes() >= 10 * 1024 * 1024);
    }

    #[test]
    fn extcall_is_logged() {
        let mut it = Interpreter::new(Registry::new());
        it.exec_main("__lt_extcall__(\"s3\", \"put_object\", \"bucket\")\n")
            .unwrap();
        assert_eq!(it.extcalls, vec!["s3:put_object:bucket"]);
    }

    #[test]
    fn tuple_unpacking_assignment() {
        let it =
            run("a, b = (1, 2)\nprint(a, b)\nfor k, v in [(1, 2), (3, 4)]:\n    print(k + v)\n");
        assert_eq!(it.stdout, vec!["1 2", "3", "7"]);
    }

    #[test]
    fn negative_indexing() {
        let it = run("xs = [1, 2, 3]\nprint(xs[-1], \"abc\"[-2])\n");
        assert_eq!(it.stdout, vec!["3 b"]);
    }

    #[test]
    fn zero_division_raises() {
        let e = run_err("x = 1 / 0\n");
        assert!(matches!(e.kind, ExcKind::ZeroDivisionError));
    }

    #[test]
    fn comparison_chains() {
        let it = run("print(1 < 2 < 3, 1 < 2 > 5)\nprint(2 in [1, 2], 5 not in [1, 2])\n");
        assert_eq!(it.stdout, vec!["True False", "True True"]);
    }

    #[test]
    fn conditional_expression_short_circuits() {
        let it = run("x = 1 if True else unbound_name\nprint(x)\nprint(True or unbound)\n");
        assert_eq!(it.stdout, vec!["1", "True"]);
    }

    #[test]
    fn memory_charged_for_bindings() {
        let mut it = Interpreter::new(Registry::new());
        it.exec_main("a = 1\n").unwrap();
        let one = it.meter.mem_bytes();
        let mut it2 = Interpreter::new(Registry::new());
        it2.exec_main("a = 1\nb = 2\nc = 3\n").unwrap();
        assert!(it2.meter.mem_bytes() > one);
    }

    #[test]
    fn assert_raises_assertion_error() {
        let e = run_err("assert 1 == 2, \"mismatch\"\n");
        assert!(matches!(e.kind, ExcKind::AssertionError));
        assert_eq!(e.message, "mismatch");
    }

    #[test]
    fn list_comprehensions() {
        let it = run("xs = [i * 2 for i in range(5)]\nprint(xs)\nys = [i for i in range(10) if i % 3 == 0]\nprint(ys)\npairs = [a + b for a, b in [(1, 2), (3, 4)]]\nprint(pairs)\n");
        assert_eq!(it.stdout, vec!["[0, 2, 4, 6, 8]", "[0, 3, 6, 9]", "[3, 7]"]);
    }

    #[test]
    fn comprehension_respects_step_limit() {
        let mut it = Interpreter::new(Registry::new());
        it.step_limit = 1_000;
        let e = it
            .exec_main("xs = [i for i in range(100000)]\n")
            .unwrap_err();
        assert!(matches!(e.kind, ExcKind::ResourceExhausted));
    }

    #[test]
    fn slices_on_lists_strings_tuples() {
        let it = run("xs = [0, 1, 2, 3, 4]\nprint(xs[1:3])\nprint(xs[:2])\nprint(xs[3:])\nprint(xs[:])\nprint(\"hello\"[1:4])\nprint((1, 2, 3)[:2])\nprint(xs[-2:])\n");
        assert_eq!(
            it.stdout,
            vec![
                "[1, 2]",
                "[0, 1]",
                "[3, 4]",
                "[0, 1, 2, 3, 4]",
                "ell",
                "(1, 2)",
                "[3, 4]"
            ]
        );
    }

    #[test]
    fn slice_bounds_are_clamped() {
        let it = run("xs = [1, 2]\nprint(xs[0:99])\nprint(xs[5:9])\nprint(\"ab\"[-99:99])\n");
        assert_eq!(it.stdout, vec!["[1, 2]", "[]", "ab"]);
    }

    #[test]
    fn slicing_non_sequence_is_type_error() {
        let e = run_err("x = 5\ny = x[1:2]\n");
        assert!(matches!(e.kind, ExcKind::TypeError));
    }

    #[test]
    fn enumerate_and_zip() {
        let it = run("for i, v in enumerate([\"a\", \"b\"]):\n    print(i, v)\nfor x, y in zip([1, 2], [3, 4]):\n    print(x + y)\n");
        assert_eq!(it.stdout, vec!["0 a", "1 b", "4", "6"]);
    }

    #[test]
    fn inline_cache_invalidated_by_rebind() {
        let it = run_with(
            &[("m", "x = 1\n")],
            "import m\nfor i in range(3):\n    print(m.x)\n    m.x = m.x + 1\n",
        );
        assert_eq!(it.stdout, vec!["1", "2", "3"]);
    }

    #[test]
    fn inline_cache_del_invalidates_site() {
        let it = run_with(
            &[("m", "x = 1\n")],
            "import m\nout = []\nfor i in range(2):\n    try:\n        out.append(m.x)\n    except AttributeError:\n        out.append(0 - 1)\n    if i == 0:\n        del m.x\nprint(out)\n",
        );
        assert_eq!(it.stdout, vec!["[1, -1]"]);
    }

    // -- init-snapshot record/replay --------------------------------------

    fn replay_registry() -> Registry {
        let mut r = Registry::new();
        r.set_module(
            "util",
            "def helper(x):\n    return x + 1\nCONST = [1, 2, 3]\n",
        );
        r.set_module(
            "lib",
            "import util\nshared = util.CONST\nprint(\"lib init\")\n__lt_extcall__(\"init\", \"lib\")\ndef go(x):\n    return util.helper(x)\n",
        );
        r
    }

    fn run_snap(r: &Registry, src: &str, enable: bool) -> Interpreter {
        let mut it = Interpreter::new(r.clone());
        if enable {
            it.enable_init_snapshots();
        }
        it.exec_main(src).expect("program runs");
        it
    }

    fn assert_same_observables(a: &Interpreter, b: &Interpreter) {
        assert_eq!(a.stdout, b.stdout);
        assert_eq!(a.extcalls, b.extcalls);
        assert_eq!(a.import_events, b.import_events);
        assert_eq!(a.meter.clock_ns(), b.meter.clock_ns());
        assert_eq!(a.meter.mem_bytes(), b.meter.mem_bytes());
        assert_eq!(a.meter.steps, b.meter.steps);
        assert_eq!(a.observed_accesses(), b.observed_accesses());
        assert_eq!(a.loaded_modules(), b.loaded_modules());
    }

    #[test]
    fn snapshot_replay_is_byte_identical() {
        let r = replay_registry();
        let src = "import lib\nprint(lib.go(41))\n";
        let live = run_snap(&r, src, false);
        let first = run_snap(&r, src, true);
        let store = r.snapshot_store();
        assert!(store.stats().captures >= 2, "lib and util captured");
        assert_eq!(store.stats().hits, 0);
        let second = run_snap(&r, src, true);
        assert!(store.stats().hits >= 1, "second run replays");
        assert_same_observables(&first, &live);
        assert_same_observables(&second, &live);
    }

    #[test]
    fn masked_cones_run_live_while_their_deps_replay() {
        let r = replay_registry();
        let src = "import lib\nprint(lib.go(41))\n";
        let live = run_snap(&r, src, false);
        run_snap(&r, src, true);
        let masked = r.with_mask(
            "lib",
            Arc::new(KeepMask::new(vec![StmtKeep::Keep; 5], true)),
        );
        let store = r.snapshot_store();
        let before = store.stats();
        let first = run_snap(&masked, src, true);
        let second = run_snap(&masked, src, true);
        let after = store.stats();
        assert_eq!(
            after.captures, before.captures,
            "no capture of a masked cone"
        );
        assert_eq!(after.hits, before.hits + 2, "util replays in both runs");
        assert_same_observables(&first, &live);
        assert_same_observables(&second, &live);
    }

    #[test]
    fn pre_frame_import_blocks_capture_but_dep_still_replays() {
        let r = replay_registry();
        let src = "import util\nimport lib\nprint(lib.go(1))\n";
        let live = run_snap(&r, src, false);
        let _first = run_snap(&r, src, true);
        // `lib` cache-hits the pre-frame `util`, so only `util` is captured.
        assert!(r.snapshot_store().candidates("lib").is_empty());
        assert!(!r.snapshot_store().candidates("util").is_empty());
        let second = run_snap(&r, src, true);
        assert!(r.snapshot_store().stats().hits >= 1, "util replays");
        assert_same_observables(&second, &live);
    }

    #[test]
    fn foreign_write_blocks_capture() {
        let mut r = Registry::new();
        r.set_module("base", "x = 1\n");
        r.set_module("patch", "import base\nbase.x = 2\n");
        let src = "import base\nimport patch\nprint(base.x)\n";
        let live = run_snap(&r, src, false);
        let _first = run_snap(&r, src, true);
        assert!(r.snapshot_store().candidates("patch").is_empty());
        let second = run_snap(&r, src, true);
        assert_same_observables(&second, &live);
        assert_eq!(second.stdout, vec!["2"]);
    }

    #[test]
    fn replayed_functions_mutate_rehydrated_globals() {
        let mut r = Registry::new();
        r.set_module(
            "counter",
            "n = 0\ndef bump():\n    global n\n    n = n + 1\n    return n\n",
        );
        let src = "import counter\nprint(counter.bump())\nprint(counter.bump())\n";
        let live = run_snap(&r, src, false);
        let _first = run_snap(&r, src, true);
        let second = run_snap(&r, src, true);
        assert!(r.snapshot_store().stats().hits >= 1);
        assert_eq!(second.stdout, vec!["1", "2"]);
        assert_same_observables(&second, &live);
    }

    #[test]
    fn replay_preserves_cross_module_aliasing() {
        let r = replay_registry();
        let src = "import lib\nimport util\nlib.shared.append(9)\nprint(util.CONST)\n";
        let live = run_snap(&r, src, false);
        let _first = run_snap(&r, src, true);
        let second = run_snap(&r, src, true);
        assert!(r.snapshot_store().stats().hits >= 1);
        assert_eq!(second.stdout, vec!["lib init", "[1, 2, 3, 9]"]);
        assert_same_observables(&second, &live);
    }

    #[test]
    fn replayed_submodule_binds_into_parent() {
        let mut r = Registry::new();
        r.set_module("pkg", "tag = \"p\"\n");
        r.set_module("pkg.sub", "val = 7\n");
        let src = "import pkg.sub\nprint(pkg.sub.val)\n";
        let live = run_snap(&r, src, false);
        let _first = run_snap(&r, src, true);
        let second = run_snap(&r, src, true);
        assert!(r.snapshot_store().stats().hits >= 1);
        assert_same_observables(&second, &live);
    }

    #[test]
    fn unwalkable_namespace_is_negative_cached() {
        let mut r = Registry::new();
        r.set_module(
            "meth",
            "class C:\n    def m(self):\n        return 1\nc = C()\nf = c.m\n",
        );
        let src = "import meth\nprint(meth.f())\n";
        let live = run_snap(&r, src, false);
        let _first = run_snap(&r, src, true);
        assert!(r.snapshot_store().stats().ineligible >= 1);
        assert!(r.snapshot_store().candidates("meth").is_empty());
        let second = run_snap(&r, src, true);
        assert_eq!(r.snapshot_store().stats().hits, 0, "always live");
        assert_same_observables(&second, &live);
    }

    #[test]
    fn changed_dep_fingerprint_forces_live_run() {
        let r = replay_registry();
        let src = "import lib\nprint(lib.go(1))\n";
        let _first = run_snap(&r, src, true);
        let mut r2 = r.clone();
        r2.set_module("util", "def helper(x):\n    return x + 100\nCONST = []\n");
        let it = run_snap(&r2, src, true);
        assert_eq!(it.stdout, vec!["lib init", "101"]);
    }

    #[test]
    fn denied_module_stays_live_but_subtree_replays() {
        let r = replay_registry();
        r.snapshot_store().deny("lib");
        let src = "import lib\nprint(lib.go(1))\n";
        let live = run_snap(&r, src, false);
        let _first = run_snap(&r, src, true);
        assert!(r.snapshot_store().candidates("lib").is_empty());
        let second = run_snap(&r, src, true);
        assert!(
            r.snapshot_store().stats().hits >= 1,
            "util replays inside lib's live run"
        );
        assert_same_observables(&second, &live);
    }

    #[test]
    fn engines_share_snapshot_identity() {
        // A VM-run capture must replay byte-identically under the tree
        // engine and vice versa (tick-merged cost parity).
        let r = replay_registry();
        let src = "import lib\nprint(lib.go(41))\n";
        let mut vm = Interpreter::new(r.clone());
        vm.enable_init_snapshots();
        vm.exec_main(src).expect("vm run");
        let mut tree = Interpreter::new(r.clone());
        tree.engine = Engine::Tree;
        tree.enable_init_snapshots();
        tree.exec_main(src).expect("tree run");
        assert!(r.snapshot_store().stats().hits >= 1);
        assert_same_observables(&vm, &tree);
    }
}
