//! End-to-end benchmark of lambda-trim.
//!
//! ```text
//! cargo run --release --manifest-path e2ebench/Cargo.toml -- \
//!     --workload cold-trim --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Workloads: `cold-trim` (every corpus app trimmed from a fresh registry),
//! `update-retrim` (seeded release chains retrimmed from the previous log)
//! and `fleet-replay` (seeded synthetic fleets stream-replayed through the
//! pool engine). The run prints its findings and every metric it measured
//! by name and unit, then, as its last line, one JSON object with the
//! end-to-end metrics (`--trace 0`) or the per-layer metrics of the traced
//! run (`--trace 1`). See `e2ebench/README.md` for what each metric means.
//!
//! `--pass <n>` runs one cold-trim pass in the calling process and prints
//! its raw records; `cold-trim` starts one such process per pass.

mod cold;
mod corpus;
mod fleet;
mod mirror;
mod retrim;
mod run;
mod spans;
mod stats;

use run::Outcome;
use std::process::ExitCode;

/// Metrics the untraced run reports: what a user of the system sees.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("pass_s", "s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
];

/// Metrics the traced run reports, one layer each. A workload that does
/// not exercise a layer reports 0 for it.
pub const PER_LAYER: [(&str, &str); 48] = [
    ("oracle.baseline_ms", "ms"),
    ("oracle.verify_ms", "ms"),
    ("analysis.full_ms", "ms"),
    ("analysis.reanalyze_ms", "ms"),
    ("analysis.summary_hits", "count"),
    ("analysis.summary_misses", "count"),
    ("analysis.incremental_runs", "count"),
    ("profiler.ms", "ms"),
    ("profiler.targets", "count"),
    ("dd.ms", "ms"),
    ("dd.probes", "count"),
    ("dd.probe_ms", "ms"),
    ("dd.iterations", "count"),
    ("dd.cache_hits", "count"),
    ("trim.glue_ms", "ms"),
    ("probe.rewrite_ms", "ms"),
    ("probe.frontend_ms", "ms"),
    ("probe.run_ms", "ms"),
    ("probe.roundtrip_share", "ratio"),
    ("probe.bytes", "bytes"),
    ("probe.samples", "count"),
    ("snapshot.hits", "count"),
    ("snapshot.misses", "count"),
    ("snapshot.captures", "count"),
    ("snapshot.poisons", "count"),
    ("snapshot.hit_ratio", "ratio"),
    ("slicer.ms", "ms"),
    ("slicer.probes", "count"),
    ("slicer.stmts_removed", "count"),
    ("probe_cache.hits", "count"),
    ("probe_cache.misses", "count"),
    ("probe_cache.hit_ratio", "ratio"),
    ("retrim.ms", "ms"),
    ("retrim.seeded_modules", "count"),
    ("retrim.cold_modules", "count"),
    ("retrim.probes", "count"),
    ("trace.synth_ms", "ms"),
    ("pool.sim_ms", "ms"),
    ("replay.trace_ms", "ms"),
    ("replay.minv_s", "Minv/s"),
    ("pool.invocations", "count"),
    ("pool.cold_starts", "count"),
    ("trace.overhead_share", "ratio"),
    ("trace.coverage_share", "ratio"),
    ("quality.init_speedup_gmean", "x"),
    ("quality.mem_ratio_gmean", "x"),
    ("quality.cold_cost_ratio_gmean", "x"),
    ("quality.fallback_share", "ratio"),
];

const WORKLOADS: [&str; 3] = ["cold-trim", "update-retrim", "fleet-replay"];

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    /// Run only this cold-trim pass, in this process (see [`cold::child`]).
    pass: Option<usize>,
}

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1;
    let mut seconds = 10;
    let mut trace = false;
    let mut pass = None;
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag} takes a whole number, not `{value}`"))
        };
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => workload = Some(value),
            "--workload" => {
                return Err(format!(
                    "unknown workload `{value}` (expected one of {})",
                    WORKLOADS.join(", ")
                ))
            }
            "--seed" => seed = number()?,
            "--seconds" => seconds = number()?,
            "--pass" => pass = Some(number()? as usize),
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not `{value}`")),
                }
            }
            _ => return Err(format!("unknown argument `{flag}`")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if pass.is_some() && workload != "cold-trim" {
        return Err("--pass applies to cold-trim only".to_owned());
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
        pass,
    })
}

/// The result line: `correct`, `attempted`, `failed` and the reported
/// metrics with their units.
fn result_json(out: &Outcome, metrics: &[(&str, &str)]) -> String {
    let fields: Vec<String> = metrics
        .iter()
        .map(|(name, unit)| {
            let value = out.values.get(name).copied().unwrap_or(0.0);
            assert!(value.is_finite(), "{name} is not a finite number: {value}");
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.failed == 0 && out.attempted > 0,
        out.attempted,
        out.failed,
        fields.join(", ")
    )
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            eprintln!(
                "usage: e2ebench --workload <{}> --seed <n> --seconds <n> --trace <0|1>",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    if let Some(pass) = args.pass {
        cold::child(args.seed, pass, args.trace);
        return ExitCode::SUCCESS;
    }
    let out = match args.workload.as_str() {
        "cold-trim" => cold::run(args.seed, args.seconds, args.trace),
        "update-retrim" => retrim::run(args.seed, args.seconds, args.trace),
        _ => fleet::run(args.seed, args.seconds, args.trace),
    };
    let units: std::collections::BTreeMap<&str, &str> =
        END_TO_END.iter().chain(PER_LAYER.iter()).copied().collect();
    for line in &out.notes {
        println!("{line}");
    }
    for (name, value) in &out.values {
        println!(
            "{name} = {value:.6} {}",
            units.get(name).copied().unwrap_or("")
        );
    }
    println!(
        "failed_share = {:.6} ({} of {} operations and checks failed)",
        out.failed as f64 / out.attempted.max(1) as f64,
        out.failed,
        out.attempted
    );
    let metrics: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    if !args.trace {
        for (name, _) in metrics {
            assert!(
                out.values.get(name).is_some_and(|v| *v > 0.0),
                "end-to-end metric {name} was not measured"
            );
        }
    }
    println!("{}", result_json(&out, metrics));
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse_args(list.iter().map(|s| s.to_string()))
    }

    #[test]
    fn parses_the_command_line() {
        let a = args(&[
            "--workload",
            "fleet-replay",
            "--seed",
            "7",
            "--seconds",
            "3",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("fleet-replay", 7, 3, true)
        );
        assert!(args(&["--workload", "nope"]).is_err());
        assert!(args(&["--seed", "1"]).is_err());
        assert!(args(&["--workload", "cold-trim", "--trace", "2"]).is_err());
        assert!(args(&["--workload", "cold-trim", "--bogus", "1"]).is_err());
        assert_eq!(
            args(&["--workload", "cold-trim", "--pass", "4"])
                .unwrap()
                .pass,
            Some(4)
        );
        assert!(args(&["--workload", "fleet-replay", "--pass", "4"]).is_err());
    }

    #[test]
    fn result_line_has_every_metric_with_its_unit() {
        let mut out = Outcome::default();
        out.check(true, String::new);
        out.set("setup_s", 0.25);
        let line = result_json(&out, &END_TO_END);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 1, \"failed\": 0"));
        assert!(line.contains("\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}"));
        for (name, _) in END_TO_END {
            assert!(line.contains(&format!("\"{name}\"")));
        }
    }

    /// The metric names and units here are the ones `BENCHMARK.json`
    /// declares, in the same order.
    #[test]
    fn metrics_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
        let field = |key: &str| -> Vec<String> {
            json.split(&format!("\"{key}\": \""))
                .skip(1)
                .map(|rest| rest.split('"').next().unwrap_or_default().to_owned())
                .collect()
        };
        let names = field("name");
        let workloads = WORKLOADS.len();
        assert_eq!(names[..workloads], WORKLOADS.map(String::from));
        let declared: Vec<(String, String)> = names[workloads..]
            .iter()
            .cloned()
            .zip(field("unit"))
            .collect();
        let ours: Vec<(String, String)> = END_TO_END
            .iter()
            .chain(PER_LAYER.iter())
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(declared, ours);
    }

    /// The stage mirror reproduces `trim_app` byte for byte on the mini
    /// corpus (the gate the traced cold-trim run applies to every app).
    #[test]
    fn mirror_matches_trim_app_on_mini_corpus() {
        for app in trim_apps::mini_corpus() {
            assert!(cold::mirror_matches(&app), "{}", app.name);
        }
    }
}
