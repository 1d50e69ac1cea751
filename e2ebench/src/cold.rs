//! `cold-trim`: trim every corpus app with `trim_app`, each from a registry
//! rebuilt from sources, in a seeded order per pass.
//!
//! Registry clones share parse and compile slots and the init-snapshot
//! store, so reusing a registry would time caches a first-time user never
//! has; every trim therefore starts from a new registry family. Every pass
//! also runs in a process of its own ([`child`]): resident memory grows by
//! about 0.3 GB per corpus pass and later passes in one process run up to
//! 10% slower, so passes sharing a process would not measure the same
//! thing. A child prints one record per line; the parent checks that the
//! deterministic fields repeat across passes and summarizes the times.

use crate::corpus::{
    answers, fallbacks, fresh_registry, shuffled, sources, sources_fingerprint, Answer,
    QualityRatios,
};
use crate::mirror::{self, ProbeCost};
use crate::run::{ms, peak_rss_mb, setup, Outcome, Passes};
use crate::spans::Tracer;
use crate::stats::{geomean, median};
use std::collections::BTreeMap;
use std::process::Command;
use std::time::{Duration, Instant};
use trim_apps::BenchApp;
use trim_core::{trim_app, DebloatOptions};

const SETUP_REPS: usize = 3;
/// Five passes of 21 apps guarantee 105 samples: the tail is p90.
const MIN_PASSES: usize = 5;
/// A traced pass is an untraced pass followed by a mirrored one.
const MIN_TRACED_PASSES: usize = 1;

/// The generated corpus and each original app's held-out answers.
struct Input {
    apps: Vec<BenchApp>,
    originals: Vec<Vec<Answer>>,
}

fn build() -> Input {
    let apps = trim_apps::corpus();
    let originals = apps
        .iter()
        .map(|a| answers(&a.registry, &a.app_source, a))
        .collect();
    Input { apps, originals }
}

/// The fields of one trim that must repeat exactly on every pass.
#[derive(Debug, Clone, PartialEq)]
struct Facts {
    probes: u64,
    removed: usize,
    fingerprint: u64,
    fallbacks: usize,
    ratios: QualityRatios,
}

impl Facts {
    fn to_line(&self) -> String {
        let r = &self.ratios;
        format!(
            "{} {} {:x} {} {:x} {:x} {:x}",
            self.probes,
            self.removed,
            self.fingerprint,
            self.fallbacks,
            r.init.to_bits(),
            r.mem.to_bits(),
            r.cold_cost.to_bits()
        )
    }

    fn parse(fields: &[&str]) -> Option<Facts> {
        let hex = |s: &str| u64::from_str_radix(s, 16).ok();
        let [probes, removed, fingerprint, fallbacks, init, mem, cold_cost] = fields else {
            return None;
        };
        Some(Facts {
            probes: probes.parse().ok()?,
            removed: removed.parse().ok()?,
            fingerprint: hex(fingerprint)?,
            fallbacks: fallbacks.parse().ok()?,
            ratios: QualityRatios {
                init: f64::from_bits(hex(init)?),
                mem: f64::from_bits(hex(mem)?),
                cold_cost: f64::from_bits(hex(cold_cost)?),
            },
        })
    }
}

// ---------------------------------------------------------------- parent --

pub fn run(seed: u64, seconds: u64, trace: bool) -> Outcome {
    let (input, setup_s) = setup(SETUP_REPS, build);
    let mut out = Outcome::default();
    out.set("setup_s", setup_s);
    for (app, original) in input.apps.iter().zip(&input.originals) {
        out.check(original.iter().all(Result::is_ok), || {
            format!(
                "{}: original app fails a held-out request: {original:?}",
                app.name
            )
        });
    }
    let n = input.apps.len();
    let mut reference: Vec<Option<Facts>> = vec![None; n];
    let mut per_app: Vec<Vec<f64>> = vec![Vec::new(); n];
    let mut pass_secs = Vec::new();
    let mut op_ms: Vec<Vec<f64>> = Vec::new();
    let mut rss_mb = Vec::new();
    let mut layers: Vec<BTreeMap<String, f64>> = Vec::new();
    let min_passes = if trace { MIN_TRACED_PASSES } else { MIN_PASSES };
    let mut passes = Passes::new(seconds, min_passes);
    while let Some(pass) = passes.next_pass() {
        let Some(child) = spawn_pass(seed, pass, trace, &mut out) else {
            continue;
        };
        let mut times = Vec::with_capacity(n);
        for (i, took_ms, facts) in child.ops {
            let first = reference[i].get_or_insert_with(|| facts.clone());
            let same = *first == facts;
            out.check(same, || {
                format!(
                    "{}: pass {pass} differs from the first pass ({facts:?} vs {first:?})",
                    input.apps[i].name
                )
            });
            per_app[i].push(took_ms);
            times.push(took_ms);
        }
        op_ms.push(times);
        pass_secs.push(child.pass_ms / 1e3);
        rss_mb.push(child.rss_mb);
        layers.push(child.values);
    }

    if !pass_secs.is_empty() {
        out.set_passes(&pass_secs);
        out.set_ops(&op_ms, min_passes * n);
        out.set("peak_rss_mb", median(&rss_mb));
        note_per_app(&input, &per_app, &mut out);
    }
    if trace && !layers.is_empty() {
        for name in crate::PER_LAYER.iter().map(|(name, _)| *name) {
            let samples: Vec<f64> = layers.iter().filter_map(|v| v.get(name).copied()).collect();
            if !samples.is_empty() {
                out.set(name, median(&samples));
            }
        }
    }
    quality(&reference, &mut out);
    out
}

/// What one pass process reported.
struct ChildReport {
    ops: Vec<(usize, f64, Facts)>,
    pass_ms: f64,
    rss_mb: f64,
    values: BTreeMap<String, f64>,
}

/// Run pass `pass` in a child process and collect its records; a child
/// that fails or prints garbage counts as one failed operation.
fn spawn_pass(seed: u64, pass: usize, trace: bool, out: &mut Outcome) -> Option<ChildReport> {
    let exe = std::env::current_exe().expect("the benchmark knows its own path");
    let output = Command::new(exe)
        .args(["--workload", "cold-trim", "--seed", &seed.to_string()])
        .args([
            "--pass",
            &pass.to_string(),
            "--trace",
            if trace { "1" } else { "0" },
        ])
        .output();
    let stdout = match output {
        Ok(o) if o.status.success() => String::from_utf8_lossy(&o.stdout).into_owned(),
        Ok(o) => {
            out.check(false, || {
                format!("pass {pass}: child exited with {}", o.status)
            });
            return None;
        }
        Err(e) => {
            out.check(false, || format!("pass {pass}: cannot start child: {e}"));
            return None;
        }
    };
    let mut report = ChildReport {
        ops: Vec::new(),
        pass_ms: 0.0,
        rss_mb: 0.0,
        values: BTreeMap::new(),
    };
    for line in stdout.lines() {
        if let Some(note) = line.strip_prefix("note ") {
            // Every pass notes the same per-app findings; keep the first
            // pass's and every failure.
            if pass == 0 || note.starts_with("FAILED") {
                out.note(note.to_owned());
            }
            continue;
        }
        let fields: Vec<&str> = line.split(' ').collect();
        let parsed = match fields.as_slice() {
            ["op", i, took, facts @ ..] => (|| {
                let took_ms: f64 = took.parse().ok()?;
                report.pass_ms += took_ms;
                report
                    .ops
                    .push((i.parse().ok()?, took_ms, Facts::parse(facts)?));
                Some(())
            })(),
            ["checks", attempted, failed] => (|| {
                out.attempted += attempted.parse::<u64>().ok()?;
                out.failed += failed.parse::<u64>().ok()?;
                Some(())
            })(),
            ["rss", mb] => mb.parse().ok().map(|mb| report.rss_mb = mb),
            ["value", name, v] => v.parse().ok().map(|v| {
                report.values.insert((*name).to_owned(), v);
            }),
            _ => None,
        };
        if parsed.is_none() {
            out.check(false, || format!("pass {pass}: unreadable record `{line}`"));
        }
    }
    Some(report)
}

fn note_per_app(input: &Input, per_app: &[Vec<f64>], out: &mut Outcome) {
    let mut medians: Vec<(f64, &str)> = per_app
        .iter()
        .zip(&input.apps)
        .filter(|(t, _)| !t.is_empty())
        .map(|(t, app)| (median(t), app.name.as_str()))
        .collect();
    medians.sort_by(|a, b| a.0.total_cmp(&b.0));
    let listed: Vec<String> = medians.iter().map(|(t, a)| format!("{a} {t:.1}")).collect();
    out.note(format!(
        "median trim time per app (ms): {}",
        listed.join(", ")
    ));
}

/// Quality of the trims, from the first pass's facts.
fn quality(reference: &[Option<Facts>], out: &mut Outcome) {
    let facts: Vec<&Facts> = reference.iter().flatten().collect();
    if facts.is_empty() || facts.len() != reference.len() {
        return;
    }
    let ratios = |f: fn(&QualityRatios) -> f64| -> f64 {
        geomean(&facts.iter().map(|x| f(&x.ratios)).collect::<Vec<_>>())
    };
    let fallback: usize = facts.iter().map(|f| f.fallbacks).sum();
    let requests = 3 * facts.len();
    let probes: u64 = facts.iter().map(|f| f.probes).sum();
    out.set("quality.init_speedup_gmean", ratios(|r| r.init));
    out.set("quality.mem_ratio_gmean", ratios(|r| r.mem));
    out.set("quality.cold_cost_ratio_gmean", ratios(|r| r.cold_cost));
    out.set("quality.fallback_share", fallback as f64 / requests as f64);
    out.note(format!(
        "fallback: {fallback}/{requests} held-out requests; {probes} oracle probes per pass"
    ));
}

// ----------------------------------------------------------------- child --

/// What `trim_app` produced for one app, for the mirror's identity gate.
struct Expected {
    sources: Vec<(String, String)>,
    oracle_invocations: u64,
}

/// Run pass `pass` in this process and print its records: one `op` line per
/// app, `rss`, and with `trace` a mirrored pass's `value` lines. The
/// checks' counts go out as one `checks` line and their findings as `note`
/// lines.
pub fn child(seed: u64, pass: usize, trace: bool) {
    let input = build();
    let n = input.apps.len();
    let mut out = Outcome::default();
    let mut expected: Vec<Option<Expected>> = (0..n).map(|_| None).collect();
    let mut untraced = Duration::ZERO;
    let order = shuffled(seed, pass as u64, n);
    for &i in &order {
        let app = &input.apps[i];
        let registry = fresh_registry(app);
        let t = Instant::now();
        let result = trim_app(
            &registry,
            &app.app_source,
            &app.spec,
            &DebloatOptions::default(),
        );
        let took = t.elapsed();
        untraced += took;
        let report = match result {
            Ok(report) => report,
            Err(e) => {
                out.check(false, || format!("{}: trim failed: {e}", app.name));
                continue;
            }
        };
        let trimmed = answers(&report.trimmed, &app.app_source, app);
        let facts = Facts {
            probes: report.oracle_invocations,
            removed: report.attrs_removed(),
            fingerprint: sources_fingerprint(&report.trimmed),
            fallbacks: fallbacks(&trimmed, &input.originals[i]),
            ratios: QualityRatios::of(app, &report.before, &report.after),
        };
        let equivalent = report.after.behavior_eq(&report.before);
        out.check(equivalent, || {
            format!("{}: trimmed app is not oracle-equivalent", app.name)
        });
        println!("op {i} {} {}", ms(took), facts.to_line());
        if trace {
            expected[i] = Some(Expected {
                sources: sources(&report.trimmed),
                oracle_invocations: report.oracle_invocations,
            });
        }
    }
    println!("rss {}", peak_rss_mb());
    if trace {
        let (mut values, spans) = traced_pass(&input, &order, &expected, &mut out);
        let untraced = untraced.as_secs_f64();
        values.insert("trace.overhead_share", spans.root / untraced - 1.0);
        values.insert("trace.coverage_share", spans.stages / untraced);
        for (name, v) in values {
            println!("value {name} {v}");
        }
    }
    println!("checks {} {}", out.attempted, out.failed);
    for line in &out.notes {
        println!("note {line}");
    }
}

/// Seconds a traced pass spent inside the per-app root spans, and inside
/// their stage spans.
struct SpanTotals {
    root: f64,
    stages: f64,
}

/// One traced pass: mirror every app's trim with stage spans, check it
/// against `trim_app`'s output, then sample one probe per DD'd module.
fn traced_pass(
    input: &Input,
    order: &[usize],
    expected: &[Option<Expected>],
    out: &mut Outcome,
) -> (BTreeMap<&'static str, f64>, SpanTotals) {
    let options = DebloatOptions::default();
    let mut t = Tracer::new();
    let mut probes: Vec<(String, ProbeCost)> = Vec::new();
    for &i in order {
        let app = &input.apps[i];
        let registry = fresh_registry(app);
        let m = match mirror::trim(&registry, &app.app_source, &app.spec, &options, &mut t) {
            Ok(m) => m,
            Err(e) => {
                out.check(false, || format!("{}: mirror failed: {e}", app.name));
                continue;
            }
        };
        let identical = expected[i].as_ref().is_some_and(|e| {
            e.oracle_invocations == m.oracle_invocations && e.sources == sources(&m.trimmed)
        });
        let equivalent = m.after.behavior_eq(&m.before);
        out.check(identical && equivalent, || {
            format!(
                "{}: stage mirror identical to trim_app {identical}, oracle-equivalent {equivalent}",
                app.name
            )
        });
        count_layers(&mut t, &registry, &m);
        for site in &m.sites {
            let cost = mirror::sample_probe(site, &app.app_source, &app.spec, &m.before, &options);
            out.check(cost.passed, || {
                format!("{}: sampled probe of a committed keep set fails", app.name)
            });
            probes.push((app.name.clone(), cost));
        }
    }
    let root = t.total(mirror::ROOT).as_secs_f64();
    let stages: f64 = mirror::STAGES
        .iter()
        .map(|s| t.total(s).as_secs_f64())
        .sum();
    out.check(stages >= 0.95 * root, || {
        format!(
            "stage spans cover {:.1}% of the traced trim time, below 95%",
            100.0 * stages / root
        )
    });
    let values = layer_values(&t, &probes, out);
    (values, SpanTotals { root, stages })
}

fn count_layers(t: &mut Tracer, registry: &pylite::Registry, m: &mirror::Mirror) {
    let snap = registry.snapshot_store().stats();
    let dd = m.modules.iter().map(|r| &r.dd_stats);
    let counts = [
        ("analysis.summary_hits", m.summaries.hits() as f64),
        ("analysis.summary_misses", m.summaries.misses() as f64),
        (
            "analysis.incremental_runs",
            m.summaries.incremental_runs() as f64,
        ),
        ("profiler.targets", m.targets as f64),
        (
            "dd.probes",
            dd.clone().map(|s| s.oracle_invocations as f64).sum(),
        ),
        (
            "dd.iterations",
            dd.clone().map(|s| s.iterations as f64).sum(),
        ),
        ("dd.cache_hits", dd.map(|s| s.cache_hits as f64).sum()),
        (
            "slicer.probes",
            m.slices.iter().map(|s| s.oracle_invocations as f64).sum(),
        ),
        (
            "slicer.stmts_removed",
            m.slices.iter().map(|s| s.stmts_removed() as f64).sum(),
        ),
        ("snapshot.hits", snap.hits as f64),
        ("snapshot.misses", snap.misses as f64),
        ("snapshot.captures", snap.captures as f64),
        ("snapshot.poisons", snap.poisons as f64),
    ];
    for (name, by) in counts {
        t.count(name, by);
    }
}

/// Per-layer values of one traced pass: self time per stage, counters,
/// and the sampled probe cost.
fn layer_values(
    t: &Tracer,
    probes: &[(String, ProbeCost)],
    out: &mut Outcome,
) -> BTreeMap<&'static str, f64> {
    let selfs = t.self_times();
    let self_ms = |name: &str| selfs.get(name).copied().map(ms).unwrap_or(0.0);
    let mut v: BTreeMap<&'static str, f64> = BTreeMap::new();
    for (metric, span) in [
        ("oracle.baseline_ms", "oracle.baseline"),
        ("oracle.verify_ms", "oracle.verify"),
        ("analysis.full_ms", "analysis.full"),
        ("analysis.reanalyze_ms", "analysis.reanalyze"),
        ("profiler.ms", "profiler"),
        ("dd.ms", "dd"),
        ("slicer.ms", "slicer"),
        ("trim.glue_ms", mirror::ROOT),
    ] {
        v.insert(metric, self_ms(span));
    }
    for name in [
        "analysis.summary_hits",
        "analysis.summary_misses",
        "analysis.incremental_runs",
        "profiler.targets",
        "dd.probes",
        "dd.iterations",
        "dd.cache_hits",
        "slicer.probes",
        "slicer.stmts_removed",
        "snapshot.hits",
        "snapshot.misses",
        "snapshot.captures",
        "snapshot.poisons",
    ] {
        v.insert(name, t.counter(name));
    }
    v.insert("dd.probe_ms", v["dd.ms"] / v["dd.probes"].max(1.0));
    let lookups = v["snapshot.hits"] + v["snapshot.misses"];
    v.insert("snapshot.hit_ratio", v["snapshot.hits"] / lookups.max(1.0));

    let sum = |f: fn(&ProbeCost) -> Duration, app: Option<&str>| -> f64 {
        probes
            .iter()
            .filter(|(a, _)| app.is_none_or(|name| a == name))
            .map(|(_, c)| ms(f(c)))
            .sum()
    };
    let share = |app: Option<&str>| {
        let trip = sum(|c| c.rewrite, app) + sum(|c| c.frontend, app);
        trip / (trip + sum(|c| c.run, app))
    };
    let samples = probes.len().max(1) as f64;
    v.insert("probe.rewrite_ms", sum(|c| c.rewrite, None) / samples);
    v.insert("probe.frontend_ms", sum(|c| c.frontend, None) / samples);
    v.insert("probe.run_ms", sum(|c| c.run, None) / samples);
    v.insert("probe.roundtrip_share", share(None));
    v.insert(
        "probe.bytes",
        probes.iter().map(|(_, c)| c.bytes as f64).sum::<f64>() / samples,
    );
    v.insert("probe.samples", probes.len() as f64);
    let mut apps: Vec<&str> = probes.iter().map(|(a, _)| a.as_str()).collect();
    apps.sort_unstable();
    apps.dedup();
    let per_app: Vec<String> = apps
        .iter()
        .map(|a| format!("{a} {:.0}%", 100.0 * share(Some(a))))
        .collect();
    out.note(format!(
        "probe round-trip share per app: {}",
        per_app.join(", ")
    ));
    v
}

/// Whether the stage mirror reproduces `trim_app` on `app`: the gate the
/// traced run applies, exposed for the self-test.
#[cfg(test)]
pub fn mirror_matches(app: &BenchApp) -> bool {
    let options = DebloatOptions::default();
    let report = trim_app(&fresh_registry(app), &app.app_source, &app.spec, &options)
        .expect("corpus app trims");
    let m = mirror::trim(
        &fresh_registry(app),
        &app.app_source,
        &app.spec,
        &options,
        &mut Tracer::new(),
    )
    .expect("corpus app trims under the mirror");
    sources(&report.trimmed) == sources(&m.trimmed)
        && report.oracle_invocations == m.oracle_invocations
        && report.after == m.after
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn facts_round_trip_through_a_record_line() {
        let facts = Facts {
            probes: 223,
            removed: 17,
            fingerprint: 0xdead_beef_0123_4567,
            fallbacks: 1,
            ratios: QualityRatios {
                init: 8.6581,
                mem: 1.0 / 3.0,
                cold_cost: 4.8,
            },
        };
        let line = facts.to_line();
        let fields: Vec<&str> = line.split(' ').collect();
        assert_eq!(Facts::parse(&fields), Some(facts));
        assert_eq!(Facts::parse(&fields[1..]), None);
    }
}
