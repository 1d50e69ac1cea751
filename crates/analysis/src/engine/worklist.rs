//! Shard state and cross-shard plumbing for the sharded fixpoint.
//!
//! One [`Shard`] per registry module (plus one for the application). A
//! shard owns everything its module defines: lexical scopes, registered
//! functions, container-literal sites. Other shards never touch that state
//! directly — they read it through an immutable [`Published`] snapshot
//! frozen at the start of each round, and affect it through [`Message`]s
//! applied serially at the round barrier. That is what makes the engine's
//! rounds bulk-synchronous and its results independent of walk order:
//! within a round every walker sees the same frozen world, and barrier
//! effects are pure joins (commutative and idempotent), so the per-round
//! state evolution is a deterministic function of the previous round.

use crate::origin::{FuncKey, OriginSet, ShardName};
use pylite::resolved::{RProgram, RStmt};
use pylite::Symbol;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// One lexical scope. Scope chains never cross shards: module and app top
/// scopes have no parent, function/class scopes chain to their defining
/// scope in the same shard.
#[derive(Debug, Clone, Default)]
pub(crate) struct Scope {
    pub parent: Option<usize>,
    pub env: BTreeMap<Symbol, OriginSet>,
}

/// A function or method registered by its defining shard.
#[derive(Debug, Clone)]
pub(crate) struct FuncInfo {
    /// Interned qualified name (also the key's `qual`).
    pub qual: Symbol,
    /// Positional parameter names.
    pub params: Arc<[Symbol]>,
    /// Body statements (shared with the resolved IR).
    pub body: Arc<[RStmt]>,
    /// The function's local scope (params + local names pre-bound).
    pub scope: usize,
    /// Join of all `return` expressions analyzed so far.
    pub ret: OriginSet,
    /// Whether some executed code possibly calls this function — only then
    /// is its body walked (never-called library bodies stay opaque).
    pub active: bool,
}

/// Published view of a function, for cross-shard callers.
#[derive(Debug, Clone, Default, PartialEq)]
pub(crate) struct FuncPub {
    pub params: Arc<[Symbol]>,
    pub ret: OriginSet,
}

/// The externally visible state of a shard, frozen once per round.
///
/// Invariant: if any published origin set contains `Func(k)` for a function
/// of this shard, then `funcs[k]` is present in the same snapshot — state
/// and function table are published atomically.
#[derive(Debug, Clone, Default)]
pub(crate) struct Published {
    /// Bumped every time the owning shard re-publishes; readers are woken
    /// when a shard they read from publishes a new version.
    pub version: u64,
    /// The module top-level environment.
    pub top_env: BTreeMap<Symbol, OriginSet>,
    /// Registered functions (active or not: binding a name to a function
    /// atom does not require the body to have been walked).
    pub funcs: BTreeMap<FuncKey, FuncPub>,
    /// Tuple/list literal sites owned by this shard.
    pub seq_sites: BTreeMap<crate::origin::SiteKey, Vec<OriginSet>>,
    /// Dict literal sites owned by this shard.
    pub map_sites: BTreeMap<crate::origin::SiteKey, (BTreeMap<Arc<str>, OriginSet>, OriginSet)>,
}

impl Published {
    /// Content partial order: does `other` cover everything in `self`?
    /// Key *presence* counts — a name pre-bound to an empty origin set is
    /// still visible to star-import readers. Used for incremental early
    /// cutoff: a rebuilt shard whose final snapshot satisfies
    /// `old.le(new)` never invalidates readers that converged against
    /// `old` (their cached state is a monotone under-approximation).
    pub fn le(&self, other: &Published) -> bool {
        self.top_env
            .iter()
            .all(|(k, v)| other.top_env.get(k).is_some_and(|o| v.is_subset(o)))
            && self.funcs.iter().all(|(k, f)| {
                other
                    .funcs
                    .get(k)
                    .is_some_and(|o| f.params == o.params && f.ret.is_subset(&o.ret))
            })
            && self.seq_sites.iter().all(|(k, v)| {
                other.seq_sites.get(k).is_some_and(|o| {
                    v.len() == o.len() && v.iter().zip(o.iter()).all(|(a, b)| a.is_subset(b))
                })
            })
            && self.map_sites.iter().all(|(k, (m, rest))| {
                other.map_sites.get(k).is_some_and(|(om, orest)| {
                    rest.is_subset(orest)
                        && m.iter()
                            .all(|(mk, mv)| om.get(mk).is_some_and(|ov| mv.is_subset(ov)))
                })
            })
    }
}

/// A cross-shard effect, buffered during a round and applied at the
/// barrier. All three are joins on the receiving shard's state, so the
/// application order cannot matter.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) enum Message {
    /// `import m` somewhere: run `m`'s top level.
    ActivateModule(Symbol),
    /// A call site possibly reaches this function: walk its body.
    ActivateFunc(FuncKey),
    /// A call site passes `set` to `func`'s parameter `param`.
    BindParam(FuncKey, Symbol, OriginSet),
}

impl Message {
    /// The shard this message must be delivered to.
    pub fn target(&self) -> ShardName {
        match self {
            Message::ActivateModule(m) => Some(*m),
            Message::ActivateFunc(k) | Message::BindParam(k, _, _) => k.shard,
        }
    }
}

/// An analysis unit of one shard: its top level or one active function.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum UnitRef {
    Top,
    Func(FuncKey),
}

/// Per-module (or application) analysis state.
///
/// `Clone` is the incremental-reuse mechanism: cached shards from a
/// previous run are shared via `Arc` and deep-cloned (`Arc::make_mut`) only
/// if the new run actually needs to re-walk them.
#[derive(Debug, Clone)]
pub(crate) struct Shard {
    /// `None` = the application shard.
    pub name: ShardName,
    /// Dotted module name (`None` for the application).
    pub name_str: Option<String>,
    /// Whether the shard's top level is imported/executed.
    pub active: bool,
    /// Resolution failed: the module stays opaque (DD handles it).
    pub failed: bool,
    /// Resolved top-level body (present once materialized).
    pub program: Option<Arc<RProgram>>,
    /// Lexical scopes; index 0 is the top scope once materialized.
    pub scopes: Vec<Scope>,
    /// Class scopes keyed by `(defining scope, class name)`.
    pub class_scopes: BTreeMap<(usize, Symbol), usize>,
    /// Registered functions, keyed by content ([`FuncKey`]).
    pub funcs: BTreeMap<FuncKey, FuncInfo>,
    /// Active units in activation order (top first).
    pub units: Vec<UnitRef>,
    /// Tuple/list literal sites defined in this shard.
    pub seq_sites: BTreeMap<crate::origin::SiteKey, Vec<OriginSet>>,
    /// Dict literal sites defined in this shard.
    pub map_sites: BTreeMap<crate::origin::SiteKey, (BTreeMap<Arc<str>, OriginSet>, OriginSet)>,
    /// `(scope, name)` pairs bound by import statements (rebinding lint).
    pub import_bound: BTreeSet<(usize, Symbol)>,
    /// Param binds / activations that arrived before the function was
    /// registered (only possible when replaying cached messages).
    pub pending_binds: BTreeMap<FuncKey, Vec<(Symbol, OriginSet)>>,
    pub pending_activations: BTreeSet<FuncKey>,
    /// Shards whose published state this shard has read (`None` = the
    /// application shard). The incremental dirty cone is the reverse
    /// closure of the edit over these edges; message-receive edges are
    /// covered by sent-set validation instead (see `incremental_run`).
    pub read_deps: BTreeSet<Option<String>>,
    /// Registry existence probes made by this shard (`contains` answers).
    /// A flipped answer invalidates the shard's cached summary.
    pub probes: BTreeMap<String, bool>,
    /// "Is this module analyzable" probes (`contains` && resolves).
    pub analyzed_probes: BTreeMap<String, bool>,
    /// Every message this shard has ever sent (deduplicated). Replayed on
    /// incremental runs so rebuilt shards receive activations and binds
    /// from shards that were *not* re-walked.
    pub sent: BTreeSet<Message>,
    /// Frozen external view, re-published when publishable state changes.
    pub published: Arc<Published>,
    /// Cached collect-pass output (valid while the shard is not re-walked).
    pub output: Option<Arc<crate::engine::merge::ShardOutput>>,
}

impl Shard {
    /// An empty, unmaterialized shard slot.
    pub fn slot(name: ShardName, name_str: Option<String>) -> Shard {
        Shard {
            name,
            name_str,
            active: false,
            failed: false,
            program: None,
            scopes: Vec::new(),
            class_scopes: BTreeMap::new(),
            funcs: BTreeMap::new(),
            units: Vec::new(),
            seq_sites: BTreeMap::new(),
            map_sites: BTreeMap::new(),
            import_bound: BTreeSet::new(),
            pending_binds: BTreeMap::new(),
            pending_activations: BTreeSet::new(),
            read_deps: BTreeSet::new(),
            probes: BTreeMap::new(),
            analyzed_probes: BTreeMap::new(),
            sent: BTreeSet::new(),
            published: Arc::new(Published::default()),
            output: None,
        }
    }

    pub fn is_app(&self) -> bool {
        self.name.is_none()
    }

    /// Rebuild the published snapshot from current state. Called after a
    /// walk that changed publishable state, never concurrently with readers
    /// of the *new* snapshot (readers hold the previous `Arc`).
    pub fn publish(&mut self) {
        let version = self.published.version + 1;
        self.published = Arc::new(Published {
            version,
            top_env: self
                .scopes
                .first()
                .map(|s| s.env.clone())
                .unwrap_or_default(),
            funcs: self
                .funcs
                .iter()
                .map(|(k, f)| {
                    (
                        *k,
                        FuncPub {
                            params: Arc::clone(&f.params),
                            ret: f.ret.clone(),
                        },
                    )
                })
                .collect(),
            seq_sites: self.seq_sites.clone(),
            map_sites: self.map_sites.clone(),
        });
    }

    /// Register a function if new; returns whether registration happened.
    /// Pre-registered pending binds/activations are drained into it.
    pub fn register_func(&mut self, key: FuncKey, info: FuncInfo) -> bool {
        if self.funcs.contains_key(&key) {
            return false;
        }
        let scope = info.scope;
        self.funcs.insert(key, info);
        if let Some(binds) = self.pending_binds.remove(&key) {
            for (param, set) in binds {
                let slot = self.scopes[scope].env.entry(param).or_default();
                crate::origin::join_into(slot, &set);
            }
        }
        if self.pending_activations.remove(&key) {
            self.activate_func(key);
        }
        true
    }

    /// Mark a function's body as possibly executed; returns true if it was
    /// newly activated (its unit is appended to the walk list).
    pub fn activate_func(&mut self, key: FuncKey) -> bool {
        match self.funcs.get_mut(&key) {
            Some(f) if !f.active => {
                f.active = true;
                self.units.push(UnitRef::Func(key));
                true
            }
            Some(_) => false,
            None => {
                // Replayed activation for a not-yet-registered function.
                self.pending_activations.insert(key)
            }
        }
    }

    /// Apply a parameter bind; returns true if the target set grew (or the
    /// bind had to be buffered for a not-yet-registered function).
    pub fn bind_param(&mut self, key: FuncKey, param: Symbol, set: &OriginSet) -> bool {
        match self.funcs.get(&key) {
            Some(f) => {
                let scope = f.scope;
                let slot = self.scopes[scope].env.entry(param).or_default();
                crate::origin::join_into(slot, set)
            }
            None => {
                self.pending_binds
                    .entry(key)
                    .or_default()
                    .push((param, set.clone()));
                true
            }
        }
    }

    /// Would `bind_param` be a no-op? (Read-only pre-check so idempotent
    /// replays never force a copy-on-write clone of a cached shard.)
    pub fn bind_param_is_noop(&self, key: FuncKey, param: Symbol, set: &OriginSet) -> bool {
        match self.funcs.get(&key) {
            Some(f) => match self.scopes[f.scope].env.get(&param) {
                Some(existing) => set.is_subset(existing),
                None => set.is_empty(),
            },
            None => false,
        }
    }

    /// Would `activate_func` be a no-op?
    pub fn activate_func_is_noop(&self, key: FuncKey) -> bool {
        match self.funcs.get(&key) {
            Some(f) => f.active,
            None => self.pending_activations.contains(&key),
        }
    }

    /// Look a name up through the scope chain (old-engine semantics).
    pub fn lookup(&self, scope: usize, name: Symbol) -> Option<&OriginSet> {
        let mut cur = Some(scope);
        while let Some(id) = cur {
            if let Some(set) = self.scopes[id].env.get(&name) {
                return Some(set);
            }
            cur = self.scopes[id].parent;
        }
        None
    }

    /// The display name used for call-graph nodes of this shard's funcs.
    pub fn func_node(&self, qual: &str) -> crate::callgraph::CgNode {
        match &self.name_str {
            None => crate::callgraph::CgNode::AppFunc(qual.to_owned()),
            Some(m) => crate::callgraph::CgNode::LibFunc(m.clone(), qual.to_owned()),
        }
    }
}

/// Immutable per-round context shared by all walkers: the frozen snapshots
/// plus registry/interner handles and the shard index.
pub(crate) struct RoundView<'a> {
    pub registry: &'a pylite::Registry,
    pub interner: &'a pylite::Interner,
    pub interprocedural: bool,
    /// Shard index by module-name symbol (the app shard is index 0 and is
    /// never the target of a cross-shard read).
    pub index: &'a std::collections::HashMap<Symbol, usize, pylite::SymbolHashBuilder>,
    /// `Published` snapshots frozen at round start, by shard index.
    pub snapshots: &'a [Arc<Published>],
    /// Interned `getattr` / `setattr` / `hasattr`.
    pub dynamic_builtins: [Symbol; 3],
}

impl RoundView<'_> {
    /// The frozen snapshot of a module shard, if the module has one.
    pub fn snapshot_of(&self, module: Symbol) -> Option<&Published> {
        self.index.get(&module).map(|&i| &*self.snapshots[i])
    }
}

/// What one shard walk produced, merged serially at the barrier.
#[derive(Debug, Default)]
pub(crate) struct WalkResult {
    /// New (not previously sent) cross-shard messages.
    pub msgs: Vec<Message>,
    /// The shard re-published (readers must be woken).
    pub pub_changed: bool,
}
