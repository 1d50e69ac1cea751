//! Init-snapshot memoization: record/replay of module top-level execution.
//!
//! Every DD probe is a full oracle run, and consecutive probes differ by a
//! handful of keep-set entries — so the bulk of each probe's time is spent
//! re-executing identical module initializations. This module records what
//! one module's init *produced* (final namespaces of its freshly-imported
//! subtree, emitted stdout/extcall lines, `ImportEvent`s, observed-access
//! pairs, and the exact meter delta) as an [`InitSnapshot`], keyed by the
//! content fingerprints of the module and its transitive import cone. A
//! later probe whose cone is unchanged *replays* the snapshot — rebuilding
//! the namespace values from a flat arena (fresh `Rc`s every replay, so no
//! copy-on-write guards are needed), re-emitting the recorded effects in
//! order, and ticking the recorded meter delta — byte-identical to live
//! execution.
//!
//! Safety comes from three conservative gates applied at record time:
//!
//! 1. **No pre-frame imports.** If the module (or anything in its subtree)
//!    import-cache-hits a module loaded before the recording frame began,
//!    the frame is violated: the subtree closed over state the snapshot
//!    cannot reproduce.
//! 2. **No foreign-namespace writes.** Writes into a module namespace that
//!    predates the frame (via `setattr`, attribute assignment, `del`, or a
//!    `global` declaration in a function called during init) violate every
//!    frame the target predates.
//! 3. **Walkable values only.** The capture walk bails on bound methods,
//!    reference cycles, functions whose globals belong to no module in the
//!    subtree, and modules outside the subtree. Unwalkable modules are
//!    negative-cached by content fingerprint so later probes skip the
//!    recording overhead.
//!
//! On top, the pipeline seeds a **deny set** from the static analyzer's
//! hazard facts (opaque getattr, foreign mutation through aliases), routing
//! statically-suspicious modules to live execution without ever recording.
//! Structural soundness (index bounds, kind agreement) is validated
//! once when an entry enters the store — so replay itself is infallible —
//! and the one remaining replay-time inconsistency (recording-order
//! mismatch) *poisons* the entry: it is dropped and the import falls back
//! to live execution.
//!
//! Replay is *lazy*: `rehydrate` builds only module shells, and each
//! shell's namespace materializes bindings on demand (`LazyModuleNs`) —
//! single bindings on attribute lookup, everything on iteration-style
//! access. A shared per-replay arena memo keeps aliasing exact no matter
//! which module forces first, so a probe pays O(modules) up front plus
//! only the bindings it actually touches — the same asymmetry (most
//! attributes unused) that makes debloating worthwhile in the first place.

use crate::cost::CostModel;
use crate::intern::Symbol;
use crate::resolved::RFuncDef;
use crate::value::{
    Builtin, ExcKind, ModuleObj, Namespace, PyClass, PyErr, PyFunc, PyInstance, Value,
};
use std::cell::RefCell;
use std::collections::{HashMap, HashSet};
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Maximum snapshot variants retained per module name (FIFO eviction).
/// Different probes rewrite different import cones, so a module can have a
/// few live (module_fp, deps) keys at once; beyond that, old cones are
/// stale probes not worth keeping.
const MAX_VARIANTS: usize = 4;

/// A scalar or reference cell of captured namespace state.
///
/// References point either at a module of the captured subtree (by closure
/// index) or at a heap node in the snapshot's arena (by arena index), so
/// aliasing and sharing among captured values is preserved exactly on
/// replay.
#[derive(Debug, Clone)]
pub(crate) enum SnapValue {
    /// `None`.
    None,
    /// Boolean.
    Bool(bool),
    /// Integer.
    Int(i64),
    /// Float.
    Float(f64),
    /// Immutable string (shared allocation).
    Str(Arc<str>),
    /// Builtin function handle.
    Builtin(Builtin),
    /// Builtin exception class.
    ExcClass(ExcKind),
    /// Exception instance (plain data; identity is unobservable).
    Exc(Box<PyErr>),
    /// Opaque simulated allocation.
    Blob(u64),
    /// Reference to the `i`-th module of the captured subtree.
    Module(u32),
    /// Reference to an arena node.
    Node(u32),
}

/// A heap object in the snapshot arena. Children always have smaller arena
/// indices than their parents (the capture walk is post-order and bails on
/// cycles), so replay can rebuild the arena in one forward pass.
#[derive(Debug, Clone)]
pub(crate) enum SnapNode {
    /// A mutable list.
    List(Vec<SnapValue>),
    /// An immutable tuple (identity preserved: `is` compares tuples by Rc).
    Tuple(Vec<SnapValue>),
    /// A dict (association list, insertion-ordered).
    Dict(Vec<(SnapValue, SnapValue)>),
    /// A function object.
    Func {
        /// Shared resolved definition.
        code: Arc<RFuncDef>,
        /// Definition-time default values.
        defaults: Vec<Option<SnapValue>>,
        /// Closure index of the module whose globals the function closes over.
        globals: u32,
        /// Dotted name of the defining module.
        module: Arc<str>,
    },
    /// A class object.
    Class {
        /// Class name.
        name: String,
        /// Arena indices of base classes (each must be a `Class` node).
        bases: Vec<u32>,
        /// Class namespace in insertion order.
        ns: Vec<(Symbol, SnapValue)>,
        /// Whether the class derives from `Exception`.
        is_exception: bool,
    },
    /// An instance of a user-defined class.
    Instance {
        /// Arena index of the class (must be a `Class` node).
        class: u32,
        /// Instance namespace in insertion order.
        ns: Vec<(Symbol, SnapValue)>,
    },
}

/// The final namespace of one module in the captured subtree.
#[derive(Debug, Clone)]
pub(crate) struct SnapModule {
    /// Dotted module name.
    pub(crate) name: String,
    /// The name as an interned symbol (valid within the registry family
    /// that owns the store).
    pub(crate) name_sym: Symbol,
    /// Namespace bindings in insertion order (includes `__name__`,
    /// `__file__`).
    pub(crate) bindings: Vec<(Symbol, SnapValue)>,
}

/// One recorded observable effect, replayed in order.
#[derive(Debug, Clone)]
pub(crate) enum SnapEvent {
    /// A `print` line.
    Stdout(String),
    /// An `__lt_extcall__` log line.
    Extcall(String),
    /// A nested module's `ImportEvent`.
    Import {
        /// Dotted module name.
        module: String,
        /// Import depth relative to the recording frame (≥ 1).
        rel_depth: usize,
        /// The nested import's own marginal virtual time.
        time_ns: u64,
        /// The nested import's own marginal simulated memory.
        mem_bytes: u64,
    },
    /// An observed module-attribute access `(module, attr)`.
    Access(Symbol, Symbol),
}

/// A recorded module initialization: everything `import_module` produced
/// for one module and the modules freshly loaded underneath it.
#[derive(Debug, Clone)]
pub struct InitSnapshot {
    /// Content fingerprint of the module itself.
    pub(crate) module_fp: u64,
    /// Content fingerprints of every module in the captured subtree
    /// (including the module itself) — the import cone's kept surface.
    pub(crate) deps: Vec<(String, u64)>,
    /// The cost model the recording ran under (replay requires equality).
    pub(crate) cost: CostModel,
    /// Virtual-clock delta of the whole init (body + nested imports).
    pub(crate) time_ns: u64,
    /// Simulated-memory delta of the whole init.
    pub(crate) mem_bytes: u64,
    /// Statement-step delta of the whole init.
    pub(crate) steps: u64,
    /// Observable effects in emission order.
    pub(crate) log: Vec<SnapEvent>,
    /// Captured modules in load order; index 0 is the module itself.
    pub(crate) modules: Vec<SnapModule>,
    /// Shared heap objects referenced by the module namespaces.
    pub(crate) arena: Vec<SnapNode>,
}

/// Counters describing how the snapshot cache behaved.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SnapshotStats {
    /// Imports answered by replaying a snapshot.
    pub hits: u64,
    /// Fresh imports of registry modules that had no valid snapshot.
    pub misses: u64,
    /// Snapshots recorded.
    pub captures: u64,
    /// Entries dropped because replay found them inconsistent.
    pub poisons: u64,
    /// Capture walks abandoned (unwalkable values), negative-cached.
    pub ineligible: u64,
}

/// The shared init-snapshot cache, living in the [`crate::Registry`] next
/// to the resolved-IR and bytecode slots and shared by every clone and
/// copy-on-write overlay of the registry family.
#[derive(Debug, Default)]
pub struct SnapshotStore {
    entries: Mutex<HashMap<String, Vec<Arc<InitSnapshot>>>>,
    deny: Mutex<HashSet<String>>,
    negative: Mutex<HashSet<(String, u64)>>,
    hits: AtomicU64,
    misses: AtomicU64,
    captures: AtomicU64,
    poisons: AtomicU64,
    ineligible: AtomicU64,
}

impl SnapshotStore {
    /// A fresh, empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// All retained snapshot variants for `name` (newest last).
    pub(crate) fn candidates(&self, name: &str) -> Vec<Arc<InitSnapshot>> {
        self.entries
            .lock()
            .expect("snapshot entries")
            .get(name)
            .cloned()
            .unwrap_or_default()
    }

    /// Insert a freshly-recorded snapshot, deduplicating by key and
    /// evicting the oldest variant beyond [`MAX_VARIANTS`]. Structurally
    /// unsound snapshots (see [`validate`]) are rejected here — lazy
    /// materialization has no fallback, so only vetted entries may enter.
    pub(crate) fn insert(&self, name: &str, snap: InitSnapshot) {
        if !validate(&snap) {
            debug_assert!(false, "capture built an unsound snapshot for {name}");
            return;
        }
        let mut entries = self.entries.lock().expect("snapshot entries");
        let slot = entries.entry(name.to_owned()).or_default();
        if slot
            .iter()
            .any(|e| e.module_fp == snap.module_fp && e.deps == snap.deps && e.cost == snap.cost)
        {
            return;
        }
        slot.push(Arc::new(snap));
        if slot.len() > MAX_VARIANTS {
            slot.remove(0);
        }
        self.captures.fetch_add(1, Ordering::Relaxed);
    }

    /// Drop a stored entry that replay found internally inconsistent.
    pub(crate) fn poison(&self, name: &str, entry: &Arc<InitSnapshot>) {
        let mut entries = self.entries.lock().expect("snapshot entries");
        if let Some(slot) = entries.get_mut(name) {
            let before = slot.len();
            slot.retain(|e| !Arc::ptr_eq(e, entry));
            if slot.len() < before {
                self.poisons.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Permanently route `name` to live execution (conservative gate fed by
    /// the static analyzer's hazard facts).
    pub fn deny(&self, name: &str) {
        self.deny
            .lock()
            .expect("snapshot deny")
            .insert(name.to_owned());
    }

    /// Whether `name` is routed to live execution.
    pub fn is_denied(&self, name: &str) -> bool {
        self.deny.lock().expect("snapshot deny").contains(name)
    }

    /// Remember that `name` at content fingerprint `fp` produced an
    /// unwalkable namespace, so future frames skip the capture walk.
    pub(crate) fn mark_ineligible(&self, name: &str, fp: u64) {
        self.ineligible.fetch_add(1, Ordering::Relaxed);
        self.negative
            .lock()
            .expect("snapshot negative")
            .insert((name.to_owned(), fp));
    }

    /// Whether `(name, fp)` is known-unwalkable.
    pub(crate) fn is_ineligible(&self, name: &str, fp: u64) -> bool {
        self.negative
            .lock()
            .expect("snapshot negative")
            .contains(&(name.to_owned(), fp))
    }

    pub(crate) fn record_hit(&self) {
        self.hits.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn record_miss(&self) {
        self.misses.fetch_add(1, Ordering::Relaxed);
    }

    /// Current counter values.
    pub fn stats(&self) -> SnapshotStats {
        SnapshotStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            captures: self.captures.load(Ordering::Relaxed),
            poisons: self.poisons.load(Ordering::Relaxed),
            ineligible: self.ineligible.load(Ordering::Relaxed),
        }
    }

    /// Number of snapshot variants currently retained across all modules.
    pub fn len(&self) -> usize {
        self.entries
            .lock()
            .expect("snapshot entries")
            .values()
            .map(Vec::len)
            .sum()
    }

    /// Whether the store holds no snapshots.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// The capture walk: converts the final namespaces of a captured subtree
/// into the flat [`SnapValue`]/[`SnapNode`] arena form.
///
/// Returns `None` from any method when it encounters a value a snapshot
/// cannot reproduce — the whole capture is then abandoned.
pub(crate) struct SnapshotBuilder {
    arena: Vec<SnapNode>,
    memo: HashMap<usize, u32>,
    in_progress: HashSet<usize>,
    closure_ptrs: Vec<usize>,
    closure_ns: Vec<Namespace>,
}

impl SnapshotBuilder {
    /// A builder over the captured subtree's modules, in load order.
    pub(crate) fn new(closure: &[Rc<ModuleObj>]) -> Self {
        SnapshotBuilder {
            arena: Vec::new(),
            memo: HashMap::new(),
            in_progress: HashSet::new(),
            closure_ptrs: closure.iter().map(|m| Rc::as_ptr(m) as usize).collect(),
            closure_ns: closure.iter().map(|m| m.ns.clone()).collect(),
        }
    }

    /// The finished arena.
    pub(crate) fn finish(self) -> Vec<SnapNode> {
        self.arena
    }

    /// Capture one module's namespace bindings in insertion order.
    pub(crate) fn snap_module(&mut self, m: &ModuleObj) -> Option<SnapModule> {
        let mut bindings = Vec::with_capacity(m.ns.len());
        for sym in m.ns.key_syms() {
            let v = m.ns.get(sym)?;
            bindings.push((sym, self.snap_value(&v)?));
        }
        Some(SnapModule {
            name: m.name.clone(),
            name_sym: m.name_sym,
            bindings,
        })
    }

    fn push(&mut self, node: SnapNode) -> Option<u32> {
        let idx = u32::try_from(self.arena.len()).ok()?;
        self.arena.push(node);
        Some(idx)
    }

    fn snap_class(&mut self, c: &Rc<PyClass>) -> Option<u32> {
        let key = Rc::as_ptr(c) as usize;
        if let Some(&idx) = self.memo.get(&key) {
            return Some(idx);
        }
        if !self.in_progress.insert(key) {
            return None; // reference cycle
        }
        let mut bases = Vec::with_capacity(c.bases.len());
        for b in &c.bases {
            bases.push(self.snap_class(b)?);
        }
        let mut ns = Vec::with_capacity(c.ns.len());
        for sym in c.ns.key_syms() {
            let v = c.ns.get(sym)?;
            ns.push((sym, self.snap_value(&v)?));
        }
        self.in_progress.remove(&key);
        let idx = self.push(SnapNode::Class {
            name: c.name.clone(),
            bases,
            ns,
            is_exception: c.is_exception,
        })?;
        self.memo.insert(key, idx);
        Some(idx)
    }

    /// Capture one value; `None` means the value is not snapshot-safe.
    pub(crate) fn snap_value(&mut self, v: &Value) -> Option<SnapValue> {
        match v {
            Value::None => Some(SnapValue::None),
            Value::Bool(b) => Some(SnapValue::Bool(*b)),
            Value::Int(i) => Some(SnapValue::Int(*i)),
            Value::Float(f) => Some(SnapValue::Float(*f)),
            Value::Str(s) => Some(SnapValue::Str(Arc::clone(s))),
            Value::Builtin(b) => Some(SnapValue::Builtin(*b)),
            Value::ExcClass(k) => Some(SnapValue::ExcClass(k.clone())),
            Value::ExcValue(e) => Some(SnapValue::Exc(Box::new((**e).clone()))),
            Value::Blob(n) => Some(SnapValue::Blob(*n)),
            Value::Module(m) => {
                let key = Rc::as_ptr(m) as usize;
                let idx = self.closure_ptrs.iter().position(|&p| p == key)?;
                Some(SnapValue::Module(idx as u32))
            }
            Value::List(l) => {
                let key = Rc::as_ptr(l) as *const u8 as usize;
                if let Some(&idx) = self.memo.get(&key) {
                    return Some(SnapValue::Node(idx));
                }
                if !self.in_progress.insert(key) {
                    return None;
                }
                let mut items = Vec::with_capacity(l.borrow().len());
                for item in l.borrow().iter() {
                    items.push(self.snap_value(item)?);
                }
                self.in_progress.remove(&key);
                let idx = self.push(SnapNode::List(items))?;
                self.memo.insert(key, idx);
                Some(SnapValue::Node(idx))
            }
            Value::Tuple(t) => {
                let key = Rc::as_ptr(t) as *const u8 as usize;
                if let Some(&idx) = self.memo.get(&key) {
                    return Some(SnapValue::Node(idx));
                }
                if !self.in_progress.insert(key) {
                    return None;
                }
                let mut items = Vec::with_capacity(t.len());
                for item in t.iter() {
                    items.push(self.snap_value(item)?);
                }
                self.in_progress.remove(&key);
                let idx = self.push(SnapNode::Tuple(items))?;
                self.memo.insert(key, idx);
                Some(SnapValue::Node(idx))
            }
            Value::Dict(d) => {
                let key = Rc::as_ptr(d) as *const u8 as usize;
                if let Some(&idx) = self.memo.get(&key) {
                    return Some(SnapValue::Node(idx));
                }
                if !self.in_progress.insert(key) {
                    return None;
                }
                let mut pairs = Vec::with_capacity(d.borrow().len());
                for (k, v) in d.borrow().iter() {
                    pairs.push((self.snap_value(k)?, self.snap_value(v)?));
                }
                self.in_progress.remove(&key);
                let idx = self.push(SnapNode::Dict(pairs))?;
                self.memo.insert(key, idx);
                Some(SnapValue::Node(idx))
            }
            Value::Func(f) => {
                let key = Rc::as_ptr(f) as usize;
                if let Some(&idx) = self.memo.get(&key) {
                    return Some(SnapValue::Node(idx));
                }
                let globals = self.closure_ns.iter().position(|ns| ns.same(&f.globals))? as u32;
                if !self.in_progress.insert(key) {
                    return None;
                }
                let mut defaults = Vec::with_capacity(f.defaults.len());
                for d in &f.defaults {
                    defaults.push(match d {
                        Some(v) => Some(self.snap_value(v)?),
                        None => None,
                    });
                }
                self.in_progress.remove(&key);
                let idx = self.push(SnapNode::Func {
                    code: Arc::clone(&f.code),
                    defaults,
                    globals,
                    module: Arc::from(&*f.module),
                })?;
                self.memo.insert(key, idx);
                Some(SnapValue::Node(idx))
            }
            Value::Class(c) => self.snap_class(c).map(SnapValue::Node),
            Value::Instance(i) => {
                let key = Rc::as_ptr(i) as *const u8 as usize;
                if let Some(&idx) = self.memo.get(&key) {
                    return Some(SnapValue::Node(idx));
                }
                if !self.in_progress.insert(key) {
                    return None;
                }
                let inst = i.borrow();
                let class = self.snap_class(&inst.class)?;
                let mut ns = Vec::with_capacity(inst.ns.len());
                for sym in inst.ns.key_syms() {
                    let v = inst.ns.get(sym)?;
                    ns.push((sym, self.snap_value(&v)?));
                }
                drop(inst);
                self.in_progress.remove(&key);
                let idx = self.push(SnapNode::Instance { class, ns })?;
                self.memo.insert(key, idx);
                Some(SnapValue::Node(idx))
            }
            // Bound methods capture a receiver identity that replay cannot
            // tie back to its aliases; both are rare at module top level.
            Value::BoundMethod { .. } | Value::NativeMethod { .. } => None,
        }
    }
}

/// Structural soundness of a snapshot: every reference a replay resolves
/// is in range and of the kind resolution expects — arena children
/// strictly before their parents, class references to `Class` nodes,
/// module references inside the captured closure. The store checks this
/// once at insert time; it is what lets materialization run infallibly
/// later, mid-interpretation, where no live fallback exists anymore.
pub(crate) fn validate(snap: &InitSnapshot) -> bool {
    let nmods = snap.modules.len() as u32;
    if nmods == 0 {
        return false;
    }
    // `limit` is how far into the arena a value may point: nodes only at
    // earlier nodes, module bindings (resolved after the whole arena)
    // anywhere.
    let ok_sv = |sv: &SnapValue, limit: u32| match sv {
        SnapValue::Module(i) => *i < nmods,
        SnapValue::Node(i) => *i < limit,
        _ => true,
    };
    let is_class =
        |i: u32, limit: u32| i < limit && matches!(snap.arena[i as usize], SnapNode::Class { .. });
    for (idx, node) in snap.arena.iter().enumerate() {
        let limit = idx as u32;
        let ok = match node {
            SnapNode::List(items) | SnapNode::Tuple(items) => {
                items.iter().all(|sv| ok_sv(sv, limit))
            }
            SnapNode::Dict(pairs) => pairs
                .iter()
                .all(|(k, v)| ok_sv(k, limit) && ok_sv(v, limit)),
            SnapNode::Func {
                defaults, globals, ..
            } => *globals < nmods && defaults.iter().flatten().all(|sv| ok_sv(sv, limit)),
            SnapNode::Class { bases, ns, .. } => {
                bases.iter().all(|b| is_class(*b, limit))
                    && ns.iter().all(|(_, sv)| ok_sv(sv, limit))
            }
            SnapNode::Instance { class, ns } => {
                is_class(*class, limit) && ns.iter().all(|(_, sv)| ok_sv(sv, limit))
            }
        };
        if !ok {
            return false;
        }
    }
    let arena_len = snap.arena.len() as u32;
    snap.modules
        .iter()
        .all(|sm| sm.bindings.iter().all(|(_, sv)| ok_sv(sv, arena_len)))
}

/// Per-replay materialization state: the arena memo and module shells one
/// replayed cone resolves against. Shared (via `Rc`) by the cone's
/// deferred namespaces; each namespace drops its handle when forced, so
/// the context and memo free once everything has materialized.
#[derive(Debug)]
struct ReplayCtx {
    snap: Arc<InitSnapshot>,
    /// Memoized arena values: aliasing among bindings is preserved even
    /// when modules force at different times.
    nodes: RefCell<Vec<Option<Value>>>,
    /// The cone's module shells. Weak because shells reach this context
    /// through their own deferred namespaces — the interpreter's module
    /// table (or any binding holding the shell) keeps them alive for as
    /// long as forcing can still happen.
    shells: Vec<std::rc::Weak<ModuleObj>>,
    /// One shared name allocation per module (every function carries its
    /// defining module's name).
    names: RefCell<Vec<Option<Rc<str>>>>,
}

impl ReplayCtx {
    fn shell(&self, i: u32) -> Rc<ModuleObj> {
        self.shells[i as usize]
            .upgrade()
            .expect("replayed module shell outlived its interpreter")
    }

    fn module_name(&self, i: u32, dotted: &Arc<str>) -> Rc<str> {
        let mut names = self.names.borrow_mut();
        let slot = &mut names[i as usize];
        match slot {
            Some(rc) if **rc == **dotted => Rc::clone(rc),
            _ => {
                let rc: Rc<str> = Rc::from(&**dotted);
                *slot = Some(Rc::clone(&rc));
                rc
            }
        }
    }

    fn resolve(&self, sv: &SnapValue) -> Value {
        match sv {
            SnapValue::None => Value::None,
            SnapValue::Bool(b) => Value::Bool(*b),
            SnapValue::Int(i) => Value::Int(*i),
            SnapValue::Float(f) => Value::Float(*f),
            SnapValue::Str(s) => Value::Str(Arc::clone(s)),
            SnapValue::Builtin(b) => Value::Builtin(*b),
            SnapValue::ExcClass(k) => Value::ExcClass(k.clone()),
            SnapValue::Exc(e) => Value::ExcValue(Rc::new((**e).clone())),
            SnapValue::Blob(n) => Value::Blob(*n),
            SnapValue::Module(i) => Value::Module(self.shell(*i)),
            SnapValue::Node(i) => self.node(*i as usize),
        }
    }

    fn resolve_ns(&self, pairs: &[(Symbol, SnapValue)]) -> Namespace {
        // Captured from an `NsMap` iteration, so keys are unique: the
        // single-probe insert is safe and the exact capacity avoids
        // rehashing.
        let ns = Namespace::with_capacity(pairs.len());
        for (sym, sv) in pairs {
            ns.insert_new(*sym, self.resolve(sv));
        }
        ns
    }

    /// The `i`-th arena node's value, built on first request. Children
    /// have strictly smaller indices (checked by [`validate`] at insert),
    /// so the recursion terminates.
    fn node(&self, i: usize) -> Value {
        {
            let memo = self.nodes.borrow();
            if let Some(v) = &memo[i] {
                return v.clone();
            }
        }
        let v = match &self.snap.arena[i] {
            SnapNode::List(items) => Value::list(items.iter().map(|sv| self.resolve(sv)).collect()),
            SnapNode::Tuple(items) => {
                Value::tuple(items.iter().map(|sv| self.resolve(sv)).collect())
            }
            SnapNode::Dict(pairs) => Value::dict(
                pairs
                    .iter()
                    .map(|(k, v)| (self.resolve(k), self.resolve(v)))
                    .collect(),
            ),
            SnapNode::Func {
                code,
                defaults,
                globals,
                module,
            } => {
                let owner = self.shell(*globals);
                let d = defaults
                    .iter()
                    .map(|dv| dv.as_ref().map(|sv| self.resolve(sv)))
                    .collect();
                Value::Func(Rc::new(PyFunc {
                    code: Arc::clone(code),
                    defaults: d,
                    globals: owner.ns.clone(),
                    module: self.module_name(*globals, module),
                }))
            }
            SnapNode::Class {
                name,
                bases,
                ns,
                is_exception,
            } => {
                let base_classes = bases
                    .iter()
                    .map(|b| match self.node(*b as usize) {
                        Value::Class(c) => c,
                        _ => unreachable!("validated at insert: class bases are Class nodes"),
                    })
                    .collect();
                Value::Class(Rc::new(PyClass {
                    name: name.clone(),
                    bases: base_classes,
                    ns: self.resolve_ns(ns),
                    is_exception: *is_exception,
                }))
            }
            SnapNode::Instance { class, ns } => {
                let class = match self.node(*class as usize) {
                    Value::Class(c) => c,
                    _ => unreachable!("validated at insert: instance class is a Class node"),
                };
                Value::Instance(Rc::new(RefCell::new(PyInstance {
                    class,
                    ns: self.resolve_ns(ns),
                })))
            }
        };
        self.nodes.borrow_mut()[i] = Some(v.clone());
        v
    }
}

/// Deferred contents of one replayed module's namespace.
#[derive(Debug)]
struct LazyModuleNs {
    ctx: Rc<ReplayCtx>,
    idx: usize,
}

impl crate::value::LazyBindings for LazyModuleNs {
    fn fill(&self) -> Vec<(Symbol, Value)> {
        let sm = &self.ctx.snap.modules[self.idx];
        sm.bindings
            .iter()
            .map(|(sym, sv)| (*sym, self.ctx.resolve(sv)))
            .collect()
    }

    fn get(&self, key: Symbol) -> Option<Value> {
        let sm = &self.ctx.snap.modules[self.idx];
        sm.bindings
            .iter()
            .find(|(sym, _)| *sym == key)
            .map(|(_, sv)| self.ctx.resolve(sv))
    }

    fn contains(&self, key: Symbol) -> bool {
        let sm = &self.ctx.snap.modules[self.idx];
        sm.bindings.iter().any(|(sym, _)| *sym == key)
    }
}

/// Rebuild the captured subtree's module objects from a snapshot.
///
/// Only the module *shells* are constructed eagerly — each namespace's
/// bindings materialize on first access, so a probe that never reads a
/// replayed module never builds its values. This is where replay beats
/// re-execution: live init pays for every binding, replay only for the
/// touched ones. Materialization builds fresh `Rc`s per replay
/// (intra-snapshot aliasing is preserved through the shared arena memo;
/// cross-replay sharing is impossible), so forced state is
/// indistinguishable from live execution. Requires a store-vetted
/// snapshot (see [`validate`]); resolution itself cannot fault.
pub(crate) fn rehydrate(snap: &Arc<InitSnapshot>) -> Vec<Rc<ModuleObj>> {
    let shells: Vec<Rc<ModuleObj>> = snap
        .modules
        .iter()
        .map(|sm| {
            Rc::new(ModuleObj {
                name: sm.name.clone(),
                name_sym: sm.name_sym,
                tracked: true,
                ns: Namespace::new(),
            })
        })
        .collect();
    let ctx = Rc::new(ReplayCtx {
        snap: Arc::clone(snap),
        nodes: RefCell::new(vec![None; snap.arena.len()]),
        shells: shells.iter().map(Rc::downgrade).collect(),
        names: RefCell::new(vec![None; shells.len()]),
    });
    for (idx, shell) in shells.iter().enumerate() {
        shell.ns.defer_to(Rc::new(LazyModuleNs {
            ctx: Rc::clone(&ctx),
            idx,
        }));
    }
    shells
}

/// One observable effect in the recording log, shared flat across nested
/// frames (a frame's slice is `log[frame.log_start..]` at pop time).
#[derive(Debug, Clone)]
pub(crate) enum LogEvent {
    /// A `print` line.
    Stdout(String),
    /// An `__lt_extcall__` line.
    Extcall(String),
    /// A nested `ImportEvent` at its absolute import depth.
    Import {
        /// Dotted module name.
        module: String,
        /// Absolute import depth at emission.
        depth: usize,
        /// Marginal virtual time.
        time_ns: u64,
        /// Marginal simulated memory.
        mem_bytes: u64,
    },
    /// An observed `(module, attr)` access.
    Access(Symbol, Symbol),
}

/// One active recording frame: a fresh `import_module` body execution.
#[derive(Debug)]
pub(crate) struct SnapFrame {
    /// The module whose init this frame records.
    pub(crate) module: String,
    /// Load sequence number of the module itself; modules with
    /// `load_seq >= start_seq` were loaded within the frame.
    pub(crate) start_seq: u64,
    /// Start of this frame's slice of the shared log.
    pub(crate) log_start: usize,
    /// Import depth at frame creation (nested events are ≥ this + 1).
    pub(crate) base_depth: usize,
    /// Virtual clock at frame start.
    pub(crate) clock_start: u64,
    /// Simulated memory at frame start.
    pub(crate) mem_start: u64,
    /// Step counter at frame start.
    pub(crate) steps_start: u64,
    /// Whether a pre-frame import or foreign write invalidated the frame.
    pub(crate) violated: bool,
    /// `(module, attr)` accesses already logged within this frame. A lazy
    /// module shell first touched via attribute lookup and later fully
    /// materialized via namespace iteration (star import) would otherwise
    /// record the touched binding twice; the log dedupes at record time.
    /// Observed-access *sets* are dedup-invariant, so replay is unchanged.
    pub(crate) seen: HashSet<(Symbol, Symbol)>,
}

/// Per-interpreter recording state, present only when init snapshots are
/// enabled ([`crate::Interpreter::enable_init_snapshots`]).
#[derive(Debug, Default)]
pub(crate) struct SnapRecorder {
    /// Stack of active recording frames (one per in-flight fresh import).
    pub(crate) frames: Vec<SnapFrame>,
    /// Flat effect log shared by all active frames.
    pub(crate) log: Vec<LogEvent>,
    /// Load sequence number per loaded module name.
    pub(crate) load_seq: HashMap<String, u64>,
    /// Next sequence number (starts at 1 so a missing entry sorts pre-frame).
    pub(crate) next_seq: u64,
}

impl SnapRecorder {
    pub(crate) fn new() -> Self {
        SnapRecorder {
            frames: Vec::new(),
            log: Vec::new(),
            load_seq: HashMap::new(),
            next_seq: 1,
        }
    }

    /// Assign the next load sequence number to `name`.
    pub(crate) fn note_load(&mut self, name: &str) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.load_seq.insert(name.to_owned(), seq);
        seq
    }

    /// Forget a module removed after a failed import.
    pub(crate) fn note_unload(&mut self, name: &str) {
        self.load_seq.remove(name);
    }

    /// Mark every frame that predates `name`'s load as violated (the frame
    /// closed over — or wrote into — state it cannot reproduce).
    pub(crate) fn mark_pre_frame(&mut self, name: &str) {
        if self.frames.is_empty() {
            return;
        }
        let seq = self.load_seq.get(name).copied().unwrap_or(0);
        for f in &mut self.frames {
            if seq < f.start_seq {
                f.violated = true;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::intern::Interner;

    fn snap(fp: u64, deps: Vec<(String, u64)>) -> InitSnapshot {
        // One empty module keeps the snapshot structurally valid (the
        // store rejects unsound entries at insert).
        InitSnapshot {
            module_fp: fp,
            deps,
            cost: CostModel::default(),
            time_ns: 1,
            mem_bytes: 2,
            steps: 3,
            log: Vec::new(),
            modules: vec![SnapModule {
                name: "m".into(),
                name_sym: Interner::new().intern("m"),
                bindings: Vec::new(),
            }],
            arena: Vec::new(),
        }
    }

    #[test]
    fn store_insert_dedups_and_evicts_fifo() {
        let store = SnapshotStore::new();
        store.insert("m", snap(1, vec![("m".into(), 1)]));
        store.insert("m", snap(1, vec![("m".into(), 1)]));
        assert_eq!(store.len(), 1, "identical keys deduplicate");
        for fp in 2..=6 {
            store.insert("m", snap(fp, vec![("m".into(), fp)]));
        }
        assert_eq!(store.len(), MAX_VARIANTS);
        let fps: Vec<u64> = store.candidates("m").iter().map(|e| e.module_fp).collect();
        assert_eq!(fps, vec![3, 4, 5, 6], "oldest variants evicted first");
        assert_eq!(store.stats().captures, 6);
    }

    #[test]
    fn store_poison_removes_by_identity() {
        let store = SnapshotStore::new();
        store.insert("m", snap(1, vec![("m".into(), 1)]));
        store.insert("m", snap(2, vec![("m".into(), 2)]));
        let victim = store.candidates("m")[0].clone();
        store.poison("m", &victim);
        assert_eq!(store.len(), 1);
        assert_eq!(store.candidates("m")[0].module_fp, 2);
        assert_eq!(store.stats().poisons, 1);
        // Poisoning again is a no-op.
        store.poison("m", &victim);
        assert_eq!(store.stats().poisons, 1);
    }

    #[test]
    fn store_deny_and_negative_sets() {
        let store = SnapshotStore::new();
        assert!(!store.is_denied("m"));
        store.deny("m");
        assert!(store.is_denied("m"));
        assert!(!store.is_ineligible("n", 7));
        store.mark_ineligible("n", 7);
        assert!(store.is_ineligible("n", 7));
        assert!(!store.is_ineligible("n", 8));
        assert_eq!(store.stats().ineligible, 1);
    }

    #[test]
    fn validate_rejects_out_of_bounds_references() {
        let interner = Interner::new();
        let sym = interner.intern("x");
        let mut s = snap(1, vec![("m".into(), 1)]);
        assert!(validate(&s), "helper snapshot is sound");
        s.modules.push(SnapModule {
            name: "n".into(),
            name_sym: interner.intern("n"),
            bindings: vec![(sym, SnapValue::Node(0))],
        });
        assert!(!validate(&s), "binding references a missing arena node");
        // Arena nodes may only reference earlier nodes.
        let mut fwd = snap(2, vec![("m".into(), 2)]);
        fwd.arena.push(SnapNode::List(vec![SnapValue::Node(0)]));
        assert!(!validate(&fwd), "self/forward arena reference");
        // Class bases must point at Class nodes.
        let mut base = snap(3, vec![("m".into(), 3)]);
        base.arena.push(SnapNode::List(Vec::new()));
        base.arena.push(SnapNode::Class {
            name: "C".into(),
            bases: vec![0],
            ns: Vec::new(),
            is_exception: false,
        });
        assert!(!validate(&base), "base class is not a Class node");
    }

    #[test]
    fn rehydrate_preserves_aliasing_and_defers_until_access() {
        let interner = Interner::new();
        let (a, b, m) = (
            interner.intern("a"),
            interner.intern("b"),
            interner.intern("m"),
        );
        let mut s = snap(1, vec![("m".into(), 1)]);
        s.arena.push(SnapNode::List(vec![SnapValue::Int(1)]));
        s.modules.push(SnapModule {
            name: "n".into(),
            name_sym: m,
            bindings: vec![(a, SnapValue::Node(0)), (b, SnapValue::Node(0))],
        });
        assert!(validate(&s));
        let modules = rehydrate(&Arc::new(s));
        // Aliasing within one replay is preserved through the arena memo
        // even though materialization is lazy.
        let (va, vb) = (modules[1].ns.get(a).unwrap(), modules[1].ns.get(b).unwrap());
        match (va, vb) {
            (Value::List(x), Value::List(y)) => assert!(Rc::ptr_eq(&x, &y)),
            other => panic!("expected aliased lists, got {other:?}"),
        }
    }

    #[test]
    fn rehydrate_twice_shares_nothing() {
        let interner = Interner::new();
        let a = interner.intern("a");
        let mut s = snap(1, vec![("m".into(), 1)]);
        s.arena.push(SnapNode::List(vec![SnapValue::Int(7)]));
        s.modules[0].bindings.push((a, SnapValue::Node(0)));
        let snap = Arc::new(s);
        let one = rehydrate(&snap);
        let two = rehydrate(&snap);
        match (one[0].ns.get(a).unwrap(), two[0].ns.get(a).unwrap()) {
            (Value::List(x), Value::List(y)) => {
                assert!(!Rc::ptr_eq(&x, &y), "replays must not share mutable state")
            }
            other => panic!("expected lists, got {other:?}"),
        }
    }

    #[test]
    fn recorder_marks_pre_frame_modules() {
        let mut r = SnapRecorder::new();
        r.note_load("old");
        let seq = r.note_load("self");
        r.frames.push(SnapFrame {
            module: "self".into(),
            start_seq: seq,
            log_start: 0,
            base_depth: 0,
            clock_start: 0,
            mem_start: 0,
            steps_start: 0,
            violated: false,
            seen: HashSet::new(),
        });
        r.mark_pre_frame("self");
        assert!(!r.frames[0].violated, "own load is intra-frame");
        r.mark_pre_frame("old");
        assert!(r.frames[0].violated, "pre-frame module violates");
        let mut r2 = SnapRecorder::new();
        let seq2 = r2.note_load("self");
        r2.frames.push(SnapFrame {
            module: "self".into(),
            start_seq: seq2,
            log_start: 0,
            base_depth: 0,
            clock_start: 0,
            mem_start: 0,
            steps_start: 0,
            violated: false,
            seen: HashSet::new(),
        });
        r2.mark_pre_frame("__main__");
        assert!(r2.frames[0].violated, "unknown names sort pre-frame");
    }

    #[test]
    fn frame_access_log_dedupes_lookup_then_star_import() {
        // `pkg` touches `lib.x` via attribute lookup and then fully
        // materializes lib's namespace via a star import. Pre-dedupe, the
        // recording frame logged the touched binding twice.
        let mut r = crate::Registry::new();
        r.set_module("lib", "x = 1\ny = 2\n");
        r.set_module("pkg", "import lib\na = lib.x\nfrom lib import *\n");
        let mut it = crate::Interpreter::new(r.clone());
        it.enable_init_snapshots();
        it.exec_main("import pkg\n").unwrap();
        let store = r.snapshot_store();
        let entry = store
            .candidates("pkg")
            .into_iter()
            .next()
            .expect("pkg init captured");
        let lib = r.interner().intern("lib");
        let (x, y) = (r.interner().intern("x"), r.interner().intern("y"));
        let count = |attr: Symbol| {
            entry
                .log
                .iter()
                .filter(|ev| matches!(ev, SnapEvent::Access(m, a) if *m == lib && *a == attr))
                .count()
        };
        assert_eq!(count(x), 1, "double-touched binding logs exactly once");
        assert_eq!(count(y), 1, "star-only binding still logs once");

        // Replay must reproduce the same observed-access set as live.
        let mut live = crate::Interpreter::new(r.clone());
        live.exec_main("import pkg\n").unwrap();
        let mut replayed = crate::Interpreter::new(r.clone());
        replayed.enable_init_snapshots();
        replayed.exec_main("import pkg\n").unwrap();
        assert!(r.snapshot_store().stats().hits > 0, "second run replays");
        assert_eq!(replayed.observed_accesses(), live.observed_accesses());
    }
}
