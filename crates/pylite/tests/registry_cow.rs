//! Property tests for the copy-on-write [`Registry`].
//!
//! The COW overlay (`with_module`, which masked probe overlays build on)
//! and the incremental fingerprint are the load-bearing pieces of cheap
//! probe construction in the debloater, so we check them against the
//! obvious reference implementations under randomized
//! module sets and edit sequences. Randomness comes from an inline
//! splitmix64 LCG with fixed seeds — no external crates, fully deterministic.

use pylite::Registry;

/// Deterministic pseudo-random stream (splitmix64).
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// A pool of valid pylite module bodies to draw from.
fn source_pool() -> Vec<String> {
    (0..8)
        .map(|i| {
            format!(
                "def f{i}(x):\n    return x + {i}\ndef g{i}(x):\n    return f{i}(x) * {}\n",
                i + 1
            )
        })
        .collect()
}

fn module_pool() -> Vec<&'static str> {
    vec![
        "alpha",
        "beta",
        "gamma",
        "pkg.core",
        "pkg.util",
        "pkg.sub.deep",
        "delta",
    ]
}

/// Build a registry by applying `edits` (name-index, source-index) in order.
fn build(edits: &[(usize, usize)]) -> Registry {
    let names = module_pool();
    let sources = source_pool();
    let mut reg = Registry::new();
    for &(n, s) in edits {
        reg.set_module(names[n], sources[s].clone());
    }
    reg
}

/// The overlay registry must be observationally equal to rebuilding the whole
/// registry from scratch with the replacement applied.
#[test]
fn overlay_is_observationally_equal_to_deep_rebuild() {
    let names = module_pool();
    let sources = source_pool();
    let mut rng = Rng(0x5eed_0001);

    for _ in 0..50 {
        // Random base registry of 3..=6 modules.
        let mut edits = Vec::new();
        for _ in 0..(3 + rng.below(4)) {
            edits.push((rng.below(names.len()), rng.below(sources.len())));
        }
        let base = build(&edits);

        // Replace one (possibly absent) module via the overlay...
        let target = names[rng.below(names.len())];
        let replacement = sources[rng.below(sources.len())].clone();
        let overlay = base.with_module(target, replacement.clone());

        // ...and by deep rebuild.
        let mut rebuilt = build(&edits);
        rebuilt.set_module(target, replacement);

        assert_eq!(overlay.fingerprint(), rebuilt.fingerprint());
        assert_eq!(overlay.len(), rebuilt.len());
        assert_eq!(overlay.module_names(), rebuilt.module_names());
        for name in overlay.module_names() {
            assert_eq!(overlay.source(&name), rebuilt.source(&name), "{name}");
            assert_eq!(overlay.contains(&name), rebuilt.contains(&name));
            assert_eq!(overlay.submodules(&name), rebuilt.submodules(&name));
            let a = overlay.parse_module(&name).expect("pool sources parse");
            let b = rebuilt.parse_module(&name).expect("pool sources parse");
            assert_eq!(a, b, "{name}: parses must agree");
        }
        // The base must be untouched by the overlay.
        assert_eq!(base.fingerprint(), build(&edits).fingerprint());
    }
}

/// Inserting the same (name, source) pairs in any order yields the same
/// fingerprint; different content yields a different one.
#[test]
fn fingerprint_is_insertion_order_independent() {
    let names = module_pool();
    let sources = source_pool();
    let mut rng = Rng(0x5eed_0002);

    for _ in 0..50 {
        // A fixed final assignment: each chosen module gets one source.
        let mut assignment: Vec<(usize, usize)> = Vec::new();
        for n in 0..names.len() {
            if rng.below(2) == 0 {
                assignment.push((n, rng.below(sources.len())));
            }
        }
        if assignment.len() < 2 {
            continue;
        }

        let reference = build(&assignment);

        // Shuffle (Fisher–Yates) and rebuild: same fingerprint.
        let mut shuffled = assignment.clone();
        for i in (1..shuffled.len()).rev() {
            shuffled.swap(i, rng.below(i + 1));
        }
        assert_eq!(build(&shuffled).fingerprint(), reference.fingerprint());

        // Perturb one source: different fingerprint.
        let mut perturbed = assignment.clone();
        let idx = rng.below(perturbed.len());
        perturbed[idx].1 = (perturbed[idx].1 + 1) % sources.len();
        assert_ne!(build(&perturbed).fingerprint(), reference.fingerprint());
    }
}

/// A random interleaving of set/remove operations keeps the incrementally
/// maintained fingerprint equal to a from-scratch rebuild of the same final
/// state, and equal states always share a fingerprint.
#[test]
fn incremental_fingerprint_matches_from_scratch_rebuild() {
    let names = module_pool();
    let sources = source_pool();
    let mut rng = Rng(0x5eed_0003);

    for _ in 0..30 {
        let mut incremental = Registry::new();
        let mut model: std::collections::BTreeMap<&str, String> = Default::default();

        for _ in 0..40 {
            let name = names[rng.below(names.len())];
            if rng.below(4) == 0 {
                incremental.remove_module(name);
                model.remove(name);
            } else {
                let src = sources[rng.below(sources.len())].clone();
                incremental.set_module(name, src.clone());
                model.insert(name, src);
            }
        }

        let mut from_scratch = Registry::new();
        for (name, src) in &model {
            from_scratch.set_module(*name, src.clone());
        }

        assert_eq!(incremental.fingerprint(), from_scratch.fingerprint());
        assert_eq!(incremental.len(), model.len());
        assert_eq!(incremental, from_scratch);
    }
}

/// Clones and overlays share parse results: parsing a module in the base and
/// then in a clone/overlay returns the same `Arc` allocation.
#[test]
fn clones_and_overlays_share_parsed_programs() {
    let mut base = Registry::new();
    base.set_module("a", "def f(x):\n    return x\n");
    base.set_module("b", "def g(x):\n    return x * 2\n");

    let parsed_a = base.parse_module("a").unwrap();

    let clone = base.clone();
    let overlay = base.with_module("b", "def g(x):\n    return x * 3\n");

    assert!(std::sync::Arc::ptr_eq(
        &parsed_a,
        &clone.parse_module("a").unwrap()
    ));
    assert!(std::sync::Arc::ptr_eq(
        &parsed_a,
        &overlay.parse_module("a").unwrap()
    ));
    // The replaced module must NOT share the stale parse.
    assert_ne!(
        overlay.source("b"),
        base.source("b"),
        "overlay replaces b's source"
    );
}
