//! The sharded interprocedural fixpoint engine.
//!
//! Units of work are *code bodies that execute*: the application top-level,
//! the top-level of every (transitively) imported registry module — module
//! bodies run on first import — and the body of every function that some
//! executed unit possibly calls. Function bodies that nothing calls are
//! registered (their names bind to `Origin::Func` atoms) but never
//! analyzed, so the dense never-executed reference blocks that generated
//! libraries use to defeat naive static tools contribute nothing to the
//! definitely-accessed sets.
//!
//! The engine is organized as a bulk-synchronous sharded worklist
//! (DESIGN.md §9): one [`worklist::Shard`] per registry module plus one for
//! the application. Each round, every dirty shard runs to a *local*
//! fixpoint against immutable snapshots of all other shards, then a barrier
//! applies cross-shard messages (pure joins) and wakes readers of
//! re-published shards. Because walkers only see frozen snapshots and
//! barrier effects are commutative and idempotent, the converged state —
//! and therefore the output, collected in a read-only pass and merged in
//! sorted shard order — is a deterministic function of the inputs.
//!
//! Incremental re-analysis reuses the converged shards of a previous run
//! (via [`crate::summary::SummaryCache`]): only modules whose content
//! fingerprint changed, shards whose recorded registry probes flip, and
//! their reverse *read*-dependency cone are rebuilt from scratch;
//! everything else is shared by `Arc` and deep-cloned only if growth
//! actually reaches it. Message-receive edges are deliberately left out of
//! the cone — a sent-set validation pass after convergence catches the
//! rare run where a rebuilt sender stopped sending something a clean
//! receiver's cached state still reflects, and retries with that receiver
//! added to the changed set (see `incremental_run`).

pub(crate) mod merge;
pub(crate) mod transfer;
pub(crate) mod worklist;

use crate::callgraph::CallGraph;
use crate::lints::{HazardSet, Lint};
use crate::origin::OriginSet;
use crate::summary::{app_fingerprint, CachedRun, SummaryCache, SummaryKey};
use crate::{Analysis, AnalysisMode};
use merge::ShardOutput;
use pylite::ast::Program;
use pylite::{Interner, Registry, Symbol, SymbolHashBuilder};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::Arc;
use worklist::{Message, Published, RoundView, Scope, Shard, UnitRef};

/// Everything the engine produces beyond the seed-compatible [`Analysis`].
#[derive(Debug, Clone, Default)]
pub(crate) struct EngineOutput {
    pub analysis: Analysis,
    pub load_time_accessed: BTreeMap<String, BTreeSet<String>>,
    pub module_bindings: BTreeMap<String, BTreeSet<String>>,
    pub lints: Vec<Lint>,
    pub hazard_modules: BTreeSet<String>,
    pub hazard_attrs: HazardSet,
    pub call_graph: CallGraph,
    pub reached_functions: BTreeSet<String>,
}

const DYNAMIC_BUILTINS: [&str; 3] = ["getattr", "setattr", "hasattr"];

/// Serial, uncached entry point (back-compat for [`crate::analyze`]).
pub(crate) fn run(
    program: &Program,
    registry: &Registry,
    mode: AnalysisMode,
    entry: Option<&str>,
) -> EngineOutput {
    run_with(program, registry, mode, entry, None)
}

/// Full entry point: optional summary caching / incremental reuse.
pub(crate) fn run_with(
    program: &Program,
    registry: &Registry,
    mode: AnalysisMode,
    entry: Option<&str>,
    cache: Option<&SummaryCache>,
) -> EngineOutput {
    let Some(cache) = cache else {
        let run = cold_run(program, registry, mode, entry);
        return Arc::try_unwrap(run.output).unwrap_or_else(|arc| (*arc).clone());
    };
    let key = SummaryKey {
        app_fp: app_fingerprint(program),
        mode,
        entry: entry.map(str::to_owned),
    };
    if let Some(prev) = cache.lookup(&key) {
        if Arc::ptr_eq(&prev.interner, registry.interner()) {
            if prev.registry_fp == registry.fingerprint() {
                cache.note_hit();
                return (*prev.output).clone();
            }
            cache.note_incremental();
            let run = incremental_run(&prev, program, registry, mode, entry);
            let output = (*run.output).clone();
            cache.store(key, run);
            return output;
        }
    }
    cache.note_miss();
    let run = cold_run(program, registry, mode, entry);
    let output = (*run.output).clone();
    cache.store(key, run);
    output
}

struct Engine<'a> {
    registry: &'a Registry,
    interner: Arc<Interner>,
    interprocedural: bool,
    /// Index 0 is the application shard; the rest follow
    /// `registry.module_names()` order (sorted).
    shards: Vec<Arc<Shard>>,
    /// Shard name by index (`None` = application).
    names: Vec<Option<String>>,
    /// Shard index by module-name symbol.
    index: HashMap<Symbol, usize, SymbolHashBuilder>,
    dirty: Vec<bool>,
    /// Shards walked at least once this run (their cached collect output,
    /// if any, is stale).
    walked: Vec<bool>,
    /// Shards carried over from a cached run (incremental only). A clean
    /// shard's cached state is reused as-is unless a dependency publishes
    /// *past* what the shard converged against (see `rounds`).
    clean: Vec<bool>,
    /// For rebuilt shards that had a cached counterpart: the snapshot
    /// their clean readers last saw. Gates early cutoff — readers stay
    /// asleep while the rebuilt shard's content stays within the old
    /// snapshot — and surface validation in `incremental_run`.
    old_published: Vec<Option<Arc<Published>>>,
    dynamic_builtins: [Symbol; 3],
}

fn build_app_shard(program: &Program, interner: &Interner) -> Shard {
    let rprog = Arc::new(pylite::resolve_program(program, interner));
    let mut shard = Shard::slot(None, None);
    let mut names: BTreeSet<Symbol> = BTreeSet::new();
    transfer::assigned_names(&rprog.body, &mut names);
    shard.scopes.push(Scope {
        parent: None,
        env: names.into_iter().map(|n| (n, OriginSet::new())).collect(),
    });
    shard.program = Some(rprog);
    shard.active = true;
    shard.units.push(UnitRef::Top);
    shard
}

/// Per-module content fingerprints of the current registry state (cheap:
/// the registry memoizes fingerprints per content in shared slots).
fn registry_fps(registry: &Registry, module_names: &[String]) -> BTreeMap<String, u64> {
    module_names
        .iter()
        .map(|n| {
            (
                n.clone(),
                registry.module_fingerprint(n).expect("listed module"),
            )
        })
        .collect()
}

fn cold_run(
    program: &Program,
    registry: &Registry,
    mode: AnalysisMode,
    entry: Option<&str>,
) -> CachedRun {
    let interner = Arc::clone(registry.interner());
    let module_names = registry.module_names();
    let module_fps = registry_fps(registry, &module_names);
    let mut eng = Engine::new(registry, interner, mode, module_names.len());
    eng.push_shard(build_app_shard(program, &eng.interner), true);
    for name in &module_names {
        let sym = eng.interner.intern(name);
        eng.push_shard(Shard::slot(Some(sym), Some(name.clone())), false);
    }
    eng.rounds();
    eng.collect();
    eng.pack(entry, module_fps)
}

fn incremental_run(
    prev: &CachedRun,
    program: &Program,
    registry: &Registry,
    mode: AnalysisMode,
    entry: Option<&str>,
) -> CachedRun {
    let interprocedural = mode == AnalysisMode::Interprocedural;
    let module_names = registry.module_names();
    let new_fps = registry_fps(registry, &module_names);

    // Seed of the changed set: modules whose content changed (or
    // appeared), plus shards any of whose recorded registry probes now
    // answer differently. Removed modules have no shard to rebuild — their
    // direct readers are rebuilt instead (cached reader state reflects
    // content that no longer exists).
    let mut changed: BTreeSet<Option<String>> = BTreeSet::new();
    for (name, fp) in &new_fps {
        if prev.module_fps.get(name) != Some(fp) {
            changed.insert(Some(name.clone()));
        }
    }
    for name in prev.module_fps.keys() {
        if !new_fps.contains_key(name) {
            let removed = Some(name.clone());
            for s in &prev.shards {
                if s.read_deps.contains(&removed) {
                    changed.insert(s.name_str.clone());
                }
            }
        }
    }
    let probes_flipped = |s: &Shard| {
        s.probes.iter().any(|(n, &v)| registry.contains(n) != v)
            || s.analyzed_probes.iter().any(|(n, &v)| {
                let now =
                    interprocedural && registry.contains(n) && registry.resolve_module(n).is_ok();
                now != v
            })
    };
    for s in &prev.shards {
        if probes_flipped(s) {
            changed.insert(s.name_str.clone());
        }
    }
    let prev_by_name: HashMap<Option<&str>, &Arc<Shard>> = prev
        .shards
        .iter()
        .map(|s| (s.name_str.as_deref(), s))
        .collect();

    // The first attempt is optimistic: rebuild only the changed shards
    // themselves and keep every reader clean, betting that the rebuilt
    // shards re-publish content their readers already converged against
    // (early cutoff — the common case for edits that do not change a
    // module's public surface). The two validations below poison the bet
    // when a rebuilt shard's surface shrank or a previously-sent message
    // disappeared; the retry then escalates to the full reverse
    // read-dependency cone. `changed` grows strictly on every retry, so
    // the loop terminates (worst case: all shards, i.e. a cold run).
    let mut pessimistic = false;
    loop {
        let mut cone = changed.clone();
        if pessimistic {
            // Reverse cone over read edges: anything that read a changed
            // shard's published state is rebuilt too, transitively.
            loop {
                let mut grew = false;
                for s in &prev.shards {
                    if cone.contains(&s.name_str) {
                        continue;
                    }
                    if s.read_deps.iter().any(|d| cone.contains(d)) {
                        cone.insert(s.name_str.clone());
                        grew = true;
                    }
                }
                if !grew {
                    break;
                }
            }
        }

        let interner = Arc::clone(registry.interner());
        let mut eng = Engine::new(registry, interner, mode, module_names.len());
        let mut clean_names: BTreeSet<Option<String>> = BTreeSet::new();
        match prev_by_name.get(&None) {
            Some(app) if !cone.contains(&None) => {
                eng.push_shard_arc(Arc::clone(app), false, true);
                clean_names.insert(None);
            }
            _ => {
                eng.push_shard(build_app_shard(program, &eng.interner), true);
                if let Some(app) = prev_by_name.get(&None) {
                    *eng.old_published.last_mut().expect("just pushed") =
                        Some(Arc::clone(&app.published));
                }
            }
        }
        for name in &module_names {
            let sym = eng.interner.intern(name);
            let cached = (!cone.contains(&Some(name.clone())))
                .then(|| prev_by_name.get(&Some(name.as_str())))
                .flatten();
            match cached {
                Some(shard) => {
                    eng.push_shard_arc(Arc::clone(shard), false, true);
                    clean_names.insert(Some(name.clone()));
                }
                None => {
                    eng.push_shard(Shard::slot(Some(sym), Some(name.clone())), false);
                    if let Some(old) = prev_by_name.get(&Some(name.as_str())) {
                        *eng.old_published.last_mut().expect("just pushed") =
                            Some(Arc::clone(&old.published));
                    }
                }
            }
        }
        // Replay every message ever sent by a clean shard: rebuilt shards
        // in the cone re-receive activations and parameter binds whose
        // senders are not being re-walked. Replays that target clean shards
        // are no-ops (and are pre-checked so they do not force a
        // copy-on-write clone).
        let replays: Vec<Message> = eng
            .shards
            .iter()
            .filter(|s| clean_names.contains(&s.name_str))
            .flat_map(|s| s.sent.iter().cloned())
            .collect();
        for msg in replays {
            eng.deliver(msg);
        }
        eng.rounds();

        let mut poisoned: BTreeSet<Option<String>> = BTreeSet::new();
        // Surface validation: a rebuilt shard whose final snapshot lost
        // something its old snapshot had (`old ⋢ new`) invalidates every
        // clean reader that converged against the old snapshot. (Pure
        // growth is fine: those readers were woken at the point the new
        // content grew past the old snapshot and re-converged monotonely.)
        for idx in 0..eng.shards.len() {
            let Some(old) = &eng.old_published[idx] else {
                continue;
            };
            if old.le(&eng.shards[idx].published) {
                continue;
            }
            for s in &prev.shards {
                if clean_names.contains(&s.name_str) && s.read_deps.contains(&eng.names[idx]) {
                    poisoned.insert(s.name_str.clone());
                }
            }
        }
        // Sent-set validation: a rebuilt (or removed) shard may have
        // stopped sending a message that a clean receiver's cached state
        // still reflects — e.g. an edit deleted the only call that bound a
        // parameter of a clean module's function. Clean shards themselves
        // never lose messages (their `sent` only grows, and it was replayed
        // above), so only non-clean old shards need checking. Any
        // no-longer-sent message targeting a clean shard poisons that
        // receiver. With no poisons, every clean shard's inputs are a
        // superset of what its cached fixpoint was computed from, and
        // monotone transfer makes the reused state exact.
        let new_sent: HashMap<Option<&str>, &BTreeSet<Message>> = eng
            .shards
            .iter()
            .map(|s| (s.name_str.as_deref(), &s.sent))
            .collect();
        for old in &prev.shards {
            if clean_names.contains(&old.name_str) {
                continue;
            }
            let fresh = new_sent.get(&old.name_str.as_deref());
            for msg in &old.sent {
                if fresh.is_some_and(|s| s.contains(msg)) {
                    continue;
                }
                let target = match msg.target() {
                    Some(m) => match eng.index.get(&m) {
                        Some(&i) => &eng.names[i],
                        None => continue,
                    },
                    None => &eng.names[0],
                };
                if clean_names.contains(target) {
                    poisoned.insert(target.clone());
                }
            }
        }
        if poisoned.is_empty() {
            eng.collect();
            return eng.pack(entry, new_fps);
        }
        changed.append(&mut poisoned);
        pessimistic = true;
    }
}

impl<'a> Engine<'a> {
    fn new(
        registry: &'a Registry,
        interner: Arc<Interner>,
        mode: AnalysisMode,
        capacity: usize,
    ) -> Engine<'a> {
        let dynamic_builtins = DYNAMIC_BUILTINS.map(|n| interner.intern(n));
        Engine {
            registry,
            interner,
            interprocedural: mode == AnalysisMode::Interprocedural,
            shards: Vec::with_capacity(capacity + 1),
            names: Vec::with_capacity(capacity + 1),
            index: HashMap::default(),
            dirty: Vec::with_capacity(capacity + 1),
            walked: Vec::with_capacity(capacity + 1),
            clean: Vec::with_capacity(capacity + 1),
            old_published: Vec::with_capacity(capacity + 1),
            dynamic_builtins,
        }
    }

    fn push_shard(&mut self, shard: Shard, dirty: bool) {
        self.push_shard_arc(Arc::new(shard), dirty, false);
    }

    fn push_shard_arc(&mut self, shard: Arc<Shard>, dirty: bool, clean: bool) {
        let idx = self.shards.len();
        if let Some(sym) = shard.name {
            self.index.insert(sym, idx);
        }
        self.names.push(shard.name_str.clone());
        self.shards.push(shard);
        self.dirty.push(dirty);
        self.walked.push(false);
        self.clean.push(clean);
        self.old_published.push(None);
    }

    /// Package the converged engine as a cacheable run.
    fn pack(self, entry: Option<&str>, module_fps: BTreeMap<String, u64>) -> CachedRun {
        let output = Arc::new(self.finish(entry));
        CachedRun {
            registry_fp: self.registry.fingerprint(),
            interner: self.interner,
            module_fps,
            shards: self.shards,
            output,
        }
    }

    fn view<'v>(&'v self, snapshots: &'v [Arc<Published>]) -> RoundView<'v> {
        RoundView {
            registry: self.registry,
            interner: &self.interner,
            interprocedural: self.interprocedural,
            index: &self.index,
            snapshots,
            dynamic_builtins: self.dynamic_builtins,
        }
    }

    /// Bulk-synchronous rounds until no shard is dirty.
    fn rounds(&mut self) {
        let mut round = 0usize;
        loop {
            // Hub-last scheduling: the application shard reads from every
            // imported module, so walking it while library shards are
            // still converging just repeats its (large) walk each round.
            // Deferring it until the libraries quiesce cuts total walk
            // work. The schedule is a function of the dirty set alone, and
            // any fair schedule reaches the same least fixpoint.
            let mut work: Vec<usize> = (1..self.shards.len()).filter(|&i| self.dirty[i]).collect();
            if work.is_empty() && self.dirty[0] {
                work.push(0);
            }
            if work.is_empty() {
                break;
            }
            round += 1;
            assert!(round < 100_000, "analysis fixpoint failed to converge");
            // Freeze this round's world view before any shard moves.
            let snapshots: Vec<Arc<Published>> = self
                .shards
                .iter()
                .map(|s| Arc::clone(&s.published))
                .collect();
            for &i in &work {
                self.dirty[i] = false;
                self.walked[i] = true;
            }
            // Walks read only the frozen view, so the shards move out of
            // `self` for the round while `view` borrows the engine.
            let mut shards = std::mem::take(&mut self.shards);
            let view = self.view(&snapshots);
            let results: Vec<_> = work
                .iter()
                .map(|&i| {
                    (
                        i,
                        transfer::walk_round(Arc::make_mut(&mut shards[i]), &view),
                    )
                })
                .collect();
            self.shards = shards;

            // Barrier, in sorted shard order (`work` is ascending; every
            // effect below is a join, but keep the order fixed anyway).
            let mut republished: Vec<usize> = Vec::new();
            let mut msgs: Vec<Message> = Vec::new();
            for (i, res) in results {
                if res.pub_changed {
                    republished.push(i);
                }
                msgs.extend(res.msgs);
            }
            for msg in msgs {
                self.deliver(msg);
            }
            // Wake every reader of a shard that published a new snapshot —
            // except clean readers of a rebuilt shard whose content is
            // still within the old snapshot they converged against (early
            // cutoff: their cached state already accounts for everything
            // published so far).
            for &i in &republished {
                let dep = self.names[i].clone();
                let grew_past_old = match &self.old_published[i] {
                    Some(old) => !self.shards[i].published.le(old),
                    None => true,
                };
                for j in 0..self.shards.len() {
                    if j != i
                        && !self.dirty[j]
                        && (grew_past_old || !self.clean[j])
                        && self.shards[j].read_deps.contains(&dep)
                    {
                        self.dirty[j] = true;
                    }
                }
            }
        }
    }

    /// Apply one cross-shard message at the barrier. Read-only no-op
    /// pre-checks keep idempotent (re)deliveries from forcing a
    /// copy-on-write clone of a cached shard.
    fn deliver(&mut self, msg: Message) {
        let idx = match msg.target() {
            Some(m) => match self.index.get(&m) {
                Some(&i) => i,
                None => return,
            },
            None => 0,
        };
        let shard = &self.shards[idx];
        match msg {
            Message::ActivateModule(_) => {
                if !shard.active && !shard.failed && shard.program.is_none() {
                    self.materialize(idx);
                }
            }
            Message::ActivateFunc(k) => {
                if !shard.activate_func_is_noop(k)
                    && Arc::make_mut(&mut self.shards[idx]).activate_func(k)
                {
                    self.dirty[idx] = true;
                }
            }
            Message::BindParam(k, p, set) => {
                if !shard.bind_param_is_noop(k, p, &set)
                    && Arc::make_mut(&mut self.shards[idx]).bind_param(k, p, &set)
                {
                    self.dirty[idx] = true;
                }
            }
        }
    }

    /// Parse/resolve an activated module and set up its top scope with all
    /// locally-assigned names pre-bound (the shadowing decision must be
    /// static for the transfer to be monotone — DESIGN.md §9). The name
    /// pre-scan is cached per module *content* in the registry's summary
    /// slot, so repeated runs skip it.
    fn materialize(&mut self, idx: usize) {
        let name = self.names[idx].clone().expect("module shard");
        match self.registry.resolve_module(&name) {
            Err(_) => {
                // Unresolvable module: left opaque, DD handles it.
                Arc::make_mut(&mut self.shards[idx]).failed = true;
            }
            Ok(rprog) => {
                let scan = || {
                    let mut names: BTreeSet<Symbol> = BTreeSet::new();
                    transfer::assigned_names(&rprog.body, &mut names);
                    names
                };
                let names: Arc<BTreeSet<Symbol>> = self
                    .registry
                    .module_summary(&name, scan)
                    .unwrap_or_else(|| Arc::new(scan()));
                let shard = Arc::make_mut(&mut self.shards[idx]);
                shard.scopes.push(Scope {
                    parent: None,
                    env: names.iter().map(|&n| (n, OriginSet::new())).collect(),
                });
                shard.program = Some(rprog);
                shard.active = true;
                shard.units.push(UnitRef::Top);
                self.dirty[idx] = true;
            }
        }
    }

    /// Read-only output pass over every active shard whose cached output is
    /// missing or stale (i.e. the shard was walked this run).
    fn collect(&mut self) {
        let snapshots: Vec<Arc<Published>> = self
            .shards
            .iter()
            .map(|s| Arc::clone(&s.published))
            .collect();
        let mut shards = std::mem::take(&mut self.shards);
        let view = self.view(&snapshots);
        for (i, arc) in shards.iter_mut().enumerate() {
            if arc.active && (self.walked[i] || arc.output.is_none()) {
                let shard = Arc::make_mut(arc);
                let out = transfer::collect_shard(shard, &view);
                shard.output = Some(Arc::new(out));
            }
        }
        self.shards = shards;
    }

    /// Merge shard outputs (app first, then modules in sorted-name order —
    /// the construction order of `shards`) and finalize.
    fn finish(&self, entry: Option<&str>) -> EngineOutput {
        let outputs: Vec<&ShardOutput> = self
            .shards
            .iter()
            .filter(|s| s.active)
            .filter_map(|s| s.output.as_deref())
            .collect();
        merge::finish(outputs, self.registry, entry)
    }
}
