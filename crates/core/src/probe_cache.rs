//! Cross-run memoization of oracle verdicts (§8.3 scalability).
//!
//! A verdict of [`crate::oracle::Probe::passes`] is fully determined by
//! the content of the candidate registry and by the application, oracle
//! spec and expected behavior it is held to. [`ProbeCache`] keys verdicts
//! on exactly that pair: the candidate's incremental content
//! [fingerprint](pylite::Registry::fingerprint), which for a masked
//! overlay mixes in the keep-mask's digest, and the [`app_fingerprint`].
//! DD candidates, seed probes, commit re-verifies and slice probes are all
//! cached, and verdicts are shared
//!
//! * across analysis-mode comparisons (app-only vs interprocedural runs of
//!   the same app probe many identical candidates),
//! * across incremental retrims (an unchanged redeploy asks only questions
//!   already answered; an edited module's candidates have new content), and
//! * across threads (the cache is `Send + Sync`; share it via `Arc`).
//!
//! This sits *above* the per-run subset cache inside `trim-dd`: that one
//! dedupes subsets within a single `ddmin` run, this one survives runs.

use crate::oracle::{Execution, OracleSpec};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

/// The identity of one oracle verdict.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ProbeKey {
    /// Content fingerprint of the candidate registry.
    pub registry_fingerprint: u64,
    /// [`app_fingerprint`] of what the candidate is held to.
    pub app_fingerprint: u64,
}

/// Stable fingerprint of the application source, the oracle specification
/// and the expected behavior — the verdict inputs the registry fingerprint
/// does not cover.
pub fn app_fingerprint(app_source: &str, spec: &OracleSpec, expected: &Execution) -> u64 {
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(PRIME);
        }
        h ^= 0xfe;
        h = h.wrapping_mul(PRIME);
    };
    eat(app_source.as_bytes());
    eat(spec.handler.as_bytes());
    for case in &spec.cases {
        eat(case.event.as_bytes());
        eat(case.context.as_bytes());
    }
    for channel in [&expected.stdout, &expected.extcalls, &expected.results] {
        for line in channel {
            eat(line.as_bytes());
        }
        eat(&[0xff]);
    }
    h
}

/// A thread-safe map from [`ProbeKey`] to oracle verdict, with hit/miss
/// accounting. Share one across pipeline runs via [`ProbeCache::shared`].
#[derive(Default)]
pub struct ProbeCache {
    map: RwLock<HashMap<ProbeKey, bool>>,
    hits: AtomicU64,
    misses: AtomicU64,
    insertions: AtomicU64,
}

impl std::fmt::Debug for ProbeCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ProbeCache")
            .field("entries", &self.len())
            .field("hits", &self.hits())
            .field("misses", &self.misses())
            .field("insertions", &self.insertions())
            .finish()
    }
}

impl ProbeCache {
    /// An empty cache behind an `Arc`, ready to share across runs/threads.
    pub fn shared() -> Arc<ProbeCache> {
        Arc::new(ProbeCache::default())
    }

    /// Cached verdict for `key`, if any. Counts a hit or a miss.
    pub fn get(&self, key: &ProbeKey) -> Option<bool> {
        let v = self
            .map
            .read()
            .expect("probe cache poisoned")
            .get(key)
            .copied();
        match v {
            Some(_) => self.hits.fetch_add(1, Ordering::Relaxed),
            None => self.misses.fetch_add(1, Ordering::Relaxed),
        };
        v
    }

    /// Record a verdict. Counts an insertion even when `key` was already
    /// present — the counter tracks oracle runs whose verdict was stored,
    /// not distinct keys (use [`ProbeCache::len`] for those).
    pub fn insert(&self, key: ProbeKey, verdict: bool) {
        self.insertions.fetch_add(1, Ordering::Relaxed);
        self.map
            .write()
            .expect("probe cache poisoned")
            .insert(key, verdict);
    }

    /// Number of cached verdicts.
    pub fn len(&self) -> usize {
        self.map.read().expect("probe cache poisoned").len()
    }

    /// Whether the cache holds no verdicts.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Lookups answered from the cache.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Lookups that fell through to the oracle.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Verdicts stored via [`ProbeCache::insert`] (including overwrites).
    pub fn insertions(&self) -> u64 {
        self.insertions.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::TestCase;

    #[test]
    fn get_insert_and_accounting() {
        let cache = ProbeCache::shared();
        let key = ProbeKey {
            registry_fingerprint: 1,
            app_fingerprint: 2,
        };
        assert_eq!(cache.get(&key), None);
        cache.insert(key, true);
        assert_eq!(cache.get(&key), Some(true));
        assert_eq!(cache.hits(), 1);
        assert_eq!(cache.misses(), 1);
        assert_eq!(cache.insertions(), 1);
        assert_eq!(cache.len(), 1);
        // Overwriting a verdict counts as an insertion but not a new key.
        cache.insert(key, false);
        assert_eq!(cache.insertions(), 2);
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.get(&key), Some(false));
        assert_eq!(cache.hits(), 2);
    }

    fn execution(results: &[&str]) -> Execution {
        Execution {
            stdout: Vec::new(),
            extcalls: Vec::new(),
            results: results.iter().map(|r| (*r).to_owned()).collect(),
            init_secs: 0.0,
            exec_secs: 0.0,
            mem_mb: 0.0,
        }
    }

    #[test]
    fn app_fingerprint_separates_inputs() {
        let spec = OracleSpec::new(vec![TestCase::event("{}")]);
        let none = execution(&["None"]);
        let a = app_fingerprint("import x\n", &spec, &none);
        let b = app_fingerprint("import y\n", &spec, &none);
        assert_ne!(a, b);
        let spec2 = OracleSpec::new(vec![TestCase::event("{\"n\": 1}")]);
        assert_ne!(a, app_fingerprint("import x\n", &spec2, &none));
        // The same app held to a different baseline behavior.
        assert_ne!(a, app_fingerprint("import x\n", &spec, &execution(&["1"])));
        let mut timed = none.clone();
        timed.init_secs = 9.0;
        assert_eq!(
            a,
            app_fingerprint("import x\n", &spec, &timed),
            "timings are not behavior"
        );
    }

    #[test]
    fn cache_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<ProbeCache>();
    }

    #[test]
    fn cache_hits_are_unaffected_by_symbol_numbering() {
        // Interned symbol ids are an in-memory acceleration detail; two
        // registries with identical module content must produce identical
        // probe keys even when their interners numbered names differently.
        let mut r1 = pylite::Registry::new();
        r1.set_module("m", "alpha = 1\nbeta = 2\n");
        let mut r2 = pylite::Registry::new();
        r2.set_module("m", "alpha = 1\nbeta = 2\n");
        for junk in ["zzz", "gamma", "alpha_skew", "beta"] {
            r2.interner().intern(junk);
        }
        r1.resolve_module("m").unwrap();
        r2.resolve_module("m").unwrap();
        assert_ne!(
            r1.interner().lookup("beta"),
            r2.interner().lookup("beta"),
            "numbering really diverged"
        );

        let spec = OracleSpec::new(vec![TestCase::event("{}")]);
        let app = app_fingerprint("import m\n", &spec, &execution(&["None"]));
        let key = |r: &pylite::Registry| ProbeKey {
            registry_fingerprint: r.fingerprint(),
            app_fingerprint: app,
        };
        let (k1, k2) = (key(&r1), key(&r2));
        assert_eq!(k1, k2, "probe keys stay content-based");

        let cache = ProbeCache::shared();
        cache.insert(k1, true);
        assert_eq!(
            cache.get(&k2),
            Some(true),
            "verdict reused across numberings"
        );
    }
}
