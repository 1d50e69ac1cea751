//! The `lambda-trim` command-line tool: debloat, profile, analyze and run
//! pylite serverless applications stored on disk.
//!
//! ```text
//! lambda-trim trim     --app app.py --packages pkgs/ --oracle oracle.txt --out trimmed/
//! lambda-trim profile  --app app.py --packages pkgs/ [--k 20] [--scoring combined]
//! lambda-trim analyze  --app app.py --packages pkgs/
//! lambda-trim run      --app app.py --packages pkgs/ --event '{"n": 3}'
//! lambda-trim simulate --trace trace.csv [--jobs 8] [--out metrics.json]
//! ```

use lambda_trim::cli::{load_registry, parse_oracle_file, parse_scoring, write_registry, Args};
use std::path::Path;
use std::process::ExitCode;
use trim_core::{trim_app, DebloatOptions};

const USAGE: &str = "\
lambda-trim — cost-driven debloating for serverless function initialization

USAGE:
    lambda-trim <COMMAND> [OPTIONS]

COMMANDS:
    trim      Debloat an application and write the trimmed packages
    profile   Rank imported modules by marginal monetary cost
    analyze   Show imported modules and statically-accessed attributes
    run       Execute the application's handler once
    simulate  Replay an invocation trace through the pool simulator

COMMON OPTIONS:
    --app <FILE>        application source (init code + handler)
    --packages <DIR>    directory of .py modules (virtual site-packages)
    --handler <NAME>    handler name                      [default: handler]

trim:
    --oracle <FILE>     oracle spec: one event literal per line,
                        optionally `EVENT || CONTEXT`
    --out <DIR>         output directory for trimmed packages
    --k <N>             modules to debloat                [default: 20]
    --scoring <M>       combined|time|memory|random      [default: combined]
    --algorithm <A>     ddmin|greedy                      [default: ddmin]
    --no-slice          skip statement-level selective-init slicing of kept
                        modules (on by default; every slice is oracle-verified)
    --wrap              append the fallback wrapper to the app output

profile:
    --k <N>             how many rows to print            [default: 20]
    --scoring <M>       ranking method                    [default: combined]

analyze:
    --hazards           print only the hazard report: per-module hazard
                        attributes and the lint(s) that produced them
    --json              with --hazards, emit the report as JSON

run:
    --event <LITERAL>   event payload                     [default: {}]
    --context <LITERAL> context payload                   [default: None]

simulate:
    --trace <FILE>      Azure-schema trace CSV (omit to synthesize)
    --functions <N>     synthetic trace size              [default: 400]
    --window-secs <S>   synthetic window length           [default: 86400]
    --seed <N>          trace/reconstruction seed         [default: 10824387]
    --flat              disable diurnal modulation (synthetic only)
    --keep-alive <LIST> comma-separated seconds           [default: 60,900]
    --modes <LIST>      comma-separated standard|restore  [default: both]
    --max-concurrency <N> per-function concurrency cap    [default: none]
    --provisioned <N>   provisioned instances per function[default: 0]
    --jobs <N>          parallel replay workers           [default: 1]
    --stream            stream synthetic arrivals through the pool with
                        bounded memory (fleet scale; synthetic only)
    --out <FILE>        also write the metrics JSON here
";

fn main() -> ExitCode {
    let args = Args::parse(std::env::args().skip(1));
    let command = args.positional.first().map(String::as_str);
    let result = match command {
        Some("trim") => cmd_trim(&args),
        Some("profile") => cmd_profile(&args),
        Some("analyze") => cmd_analyze(&args),
        Some("run") => cmd_run(&args),
        Some("simulate") => cmd_simulate(&args),
        Some("help") | None => {
            print!("{USAGE}");
            Ok(())
        }
        Some(other) => Err(format!("unknown command `{other}`\n\n{USAGE}")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}

/// Options every app-loading command takes.
const COMMON_OPTIONS: [&str; 3] = ["app", "packages", "handler"];
const TRIM_OPTIONS: [&str; 7] = [
    "oracle",
    "out",
    "k",
    "scoring",
    "algorithm",
    "no-slice",
    "wrap",
];
const PROFILE_OPTIONS: [&str; 2] = ["k", "scoring"];
const ANALYZE_OPTIONS: [&str; 2] = ["hazards", "json"];
const RUN_OPTIONS: [&str; 2] = ["event", "context"];
const SIMULATE_OPTIONS: [&str; 12] = [
    "trace",
    "functions",
    "window-secs",
    "seed",
    "flat",
    "keep-alive",
    "modes",
    "max-concurrency",
    "provisioned",
    "jobs",
    "stream",
    "out",
];

/// Reject options outside `COMMON_OPTIONS` plus `extra` for `command`.
fn check_app_options(args: &Args, command: &str, extra: &[&str]) -> Result<(), String> {
    let known: Vec<&str> = COMMON_OPTIONS.iter().chain(extra).copied().collect();
    args.check_known(command, &known)
}

fn load_inputs(args: &Args) -> Result<(pylite::Registry, String, String), String> {
    let app_path = args.require("app")?;
    let packages = args.require("packages")?;
    let app_source =
        std::fs::read_to_string(app_path).map_err(|e| format!("reading {app_path}: {e}"))?;
    let registry =
        load_registry(Path::new(packages)).map_err(|e| format!("loading {packages}: {e}"))?;
    let handler = args.get("handler").unwrap_or("handler").to_owned();
    Ok((registry, app_source, handler))
}

fn debloat_options(args: &Args) -> Result<DebloatOptions, String> {
    let mut options = DebloatOptions::default();
    if let Some(k) = args.get("k") {
        options.k = k.parse().map_err(|_| format!("bad --k value `{k}`"))?;
    }
    if let Some(s) = args.get("scoring") {
        options.scoring = parse_scoring(s)?;
    }
    if let Some(a) = args.get("algorithm") {
        options.algorithm = match a {
            "ddmin" => trim_core::Algorithm::Ddmin,
            "greedy" => trim_core::Algorithm::Greedy,
            other => {
                return Err(format!(
                    "unknown algorithm `{other}` (expected ddmin|greedy)"
                ))
            }
        };
    }
    if let Some(v) = args.get("no-slice") {
        return Err(format!("--no-slice takes no value (got `{v}`)"));
    }
    if args.has_flag("no-slice") {
        options.slice_init = false;
    }
    Ok(options)
}

fn replay_jobs(args: &Args) -> Result<usize, String> {
    let Some(j) = args.get("jobs") else {
        return Ok(1);
    };
    let jobs: usize = j.parse().map_err(|_| format!("bad --jobs value `{j}`"))?;
    if jobs == 0 {
        return Err(format!("bad --jobs value `{j}` (must be at least 1)"));
    }
    Ok(jobs)
}

fn cmd_trim(args: &Args) -> Result<(), String> {
    check_app_options(args, "trim", &TRIM_OPTIONS)?;
    let (registry, app_source, handler) = load_inputs(args)?;
    let oracle_path = args.require("oracle")?;
    let out_dir = args.require("out")?;
    let oracle_content =
        std::fs::read_to_string(oracle_path).map_err(|e| format!("reading {oracle_path}: {e}"))?;
    let spec =
        parse_oracle_file(&oracle_content, &handler).map_err(|e| format!("{oracle_path}: {e}"))?;
    let options = debloat_options(args)?;

    eprintln!(
        "trimming with K={}, scoring={}, {} oracle case(s)...",
        options.k,
        options.scoring.name(),
        spec.cases.len()
    );
    let report = trim_app(&registry, &app_source, &spec, &options).map_err(|e| e.to_string())?;

    let out = Path::new(out_dir);
    write_registry(&report.trimmed, out).map_err(|e| format!("writing {out_dir}: {e}"))?;
    let app_out = if args.has_flag("wrap") {
        let pkg = trim_core::package(&registry, &app_source, &handler, &report);
        pkg.wrapped_app_source
    } else {
        app_source.clone()
    };
    std::fs::write(out.join("app.py"), app_out).map_err(|e| e.to_string())?;
    let mut report_text = trim_core::render_report(&report);
    report_text.push('\n');
    report_text.push_str(&trim_core::render_removals(&report));
    std::fs::write(out.join("REPORT.txt"), &report_text).map_err(|e| e.to_string())?;

    print!("{report_text}");
    println!("trimmed packages written to {out_dir}/ (app: {out_dir}/app.py, report: {out_dir}/REPORT.txt)");
    Ok(())
}

fn cmd_profile(args: &Args) -> Result<(), String> {
    check_app_options(args, "profile", &PROFILE_OPTIONS)?;
    let (registry, app_source, _) = load_inputs(args)?;
    let options = debloat_options(args)?;
    let profile = trim_profiler::profile_app(&app_source, &registry).map_err(|e| e.to_string())?;
    let ranked = trim_profiler::rank_modules(&profile, options.scoring);
    println!(
        "total init {:.3} s, total memory {:.1} MB — ranking by {}",
        profile.total_time_secs,
        profile.total_mem_mb,
        options.scoring.name()
    );
    println!(
        "{:<30} {:>10} {:>10} {:>14}",
        "module", "time s", "mem MB", "score"
    );
    for r in ranked.iter().take(options.k) {
        let cost = profile.module(&r.module).expect("ranked module profiled");
        println!(
            "{:<30} {:>10.4} {:>10.2} {:>14.4}",
            r.module, cost.time_secs, cost.mem_mb, r.score
        );
    }
    Ok(())
}

fn cmd_analyze(args: &Args) -> Result<(), String> {
    check_app_options(args, "analyze", &ANALYZE_OPTIONS)?;
    let (registry, app_source, handler) = load_inputs(args)?;
    let program = pylite::parse(&app_source).map_err(|e| e.to_string())?;
    check_handler(&program, &handler, args.require("app")?)?;
    let full = trim_analysis::analyze_full(
        &program,
        &registry,
        &trim_analysis::AnalysisOptions {
            entry: Some(handler),
            ..trim_analysis::AnalysisOptions::default()
        },
    );
    if args.has_flag("hazards") {
        print_hazard_report(&full, args.has_flag("json"));
        return Ok(());
    }
    let analysis = &full.analysis;
    println!("imported modules:");
    for m in &analysis.imported_modules {
        let marker = if registry.contains(m) {
            ""
        } else {
            "  (MISSING)"
        };
        println!("  {m}{marker}");
    }
    println!("\ndefinitely-accessed attributes (excluded from DD):");
    for (module, attrs) in &analysis.accessed {
        println!(
            "  {module}: {}",
            attrs.iter().cloned().collect::<Vec<_>>().join(", ")
        );
    }
    println!(
        "\ncall graph ({} edges, {} nodes reachable from the entry, {} function bodies analyzed):",
        full.call_graph.edges.len(),
        full.call_graph.reachable.len(),
        full.reached_functions.len(),
    );
    for (from, to) in &full.call_graph.edges {
        let marker = if full.call_graph.reachable.contains(to) {
            ""
        } else {
            "  (unreachable)"
        };
        println!("  {from} -> {to}{marker}");
    }
    if !full.lints.is_empty() {
        println!("\nlints:");
        for lint in &full.lints {
            println!("  {lint}");
        }
    }
    if !full.hazard_attrs.is_empty() {
        println!("\nhazardous modules (see `analyze --hazards` for details):");
        for (module, bound) in &full.hazard_attrs {
            let route = if bound.is_top() {
                "deployed untrimmed, conservative fallback"
            } else {
                "attributes pinned, module still trimmed"
            };
            println!("  {module}: {bound}  ({route})");
        }
    }
    Ok(())
}

/// Reject a `handler` that is not a top-level function of the app: the
/// call graph would silently treat every app function as unreachable.
fn check_handler(program: &pylite::Program, handler: &str, app_path: &str) -> Result<(), String> {
    let functions: Vec<&str> = program
        .body
        .iter()
        .filter_map(|stmt| match stmt {
            pylite::ast::Stmt::FuncDef(f) => Some(f.name.as_str()),
            _ => None,
        })
        .collect();
    if functions.contains(&handler) {
        return Ok(());
    }
    let listed = if functions.is_empty() {
        "none".to_owned()
    } else {
        functions.join(", ")
    };
    Err(format!(
        "handler `{handler}` is not a top-level function of {app_path} \
         (top-level functions: {listed})"
    ))
}

/// Print the per-module hazard report for `analyze --hazards`: each
/// hazardous module with its attribute bound (pinned set or ⊤) and the
/// hazard lint(s) that produced it. With `json`, the same data as a
/// machine-readable object.
fn print_hazard_report(full: &trim_analysis::FullAnalysis, json: bool) {
    use trim_analysis::lints::Severity;
    let producing_lints = |module: &str| -> Vec<String> {
        full.lints
            .iter()
            .filter(|l| l.severity == Severity::Hazard && l.implicated_module() == Some(module))
            .map(ToString::to_string)
            .collect()
    };
    if json {
        let mut entries = Vec::new();
        for (module, bound) in &full.hazard_attrs {
            let pinned = match bound.attrs() {
                Some(attrs) => {
                    let list: Vec<String> = attrs.iter().map(|a| json_string(a)).collect();
                    format!("[{}]", list.join(", "))
                }
                None => "null".to_owned(),
            };
            let route = if bound.is_top() { "fallback" } else { "pinned" };
            let lints: Vec<String> = producing_lints(module)
                .iter()
                .map(|l| json_string(l))
                .collect();
            entries.push(format!(
                "\n    {{\n      \"module\": {},\n      \"route\": \"{route}\",\n      \"pinned_attrs\": {pinned},\n      \"lints\": [{}]\n    }}",
                json_string(module),
                lints.join(", ")
            ));
        }
        if entries.is_empty() {
            println!("{{\"hazards\": []}}");
        } else {
            println!("{{\n  \"hazards\": [{}\n  ]\n}}", entries.join(","));
        }
        return;
    }
    if full.hazard_attrs.is_empty() {
        println!("no hazards: every module can be trimmed at full attribute granularity");
        return;
    }
    println!("hazardous modules ({}):", full.hazard_attrs.len());
    for (module, bound) in &full.hazard_attrs {
        if bound.is_top() {
            println!("  {module}: {bound} — deployed untrimmed, conservative fallback");
        } else {
            println!("  {module}: pinned attributes {bound} — module still enters delta debugging");
        }
        for lint in producing_lints(module) {
            println!("      {lint}");
        }
    }
}

/// Render `s` as a JSON string literal (quotes, backslashes, control
/// characters escaped).
fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn cmd_run(args: &Args) -> Result<(), String> {
    check_app_options(args, "run", &RUN_OPTIONS)?;
    let (registry, app_source, handler) = load_inputs(args)?;
    let event = args.get("event").unwrap_or("{}").to_owned();
    let context = args.get("context").unwrap_or("None").to_owned();
    let spec = trim_core::OracleSpec {
        handler,
        cases: vec![trim_core::TestCase { event, context }],
    };
    let exec = trim_core::run_app(&registry, &app_source, &spec).map_err(|e| e.to_string())?;
    for line in &exec.stdout {
        println!("{line}");
    }
    println!("=> {}", exec.results[0]);
    eprintln!(
        "init {:.3} s | exec {:.3} s | memory {:.1} MB | extcalls {:?}",
        exec.init_secs, exec.exec_secs, exec.mem_mb, exec.extcalls
    );
    Ok(())
}

fn cmd_simulate(args: &Args) -> Result<(), String> {
    use lambda_sim::trace::replay::render_metrics_json;
    use lambda_sim::{
        DiurnalProfile, Platform, ReplayOptions, StartMode, TraceConfig, TraceSource,
    };
    args.check_known("simulate", &SIMULATE_OPTIONS)?;

    let parse_num = |flag: &str, default: f64| -> Result<f64, String> {
        match args.get(flag) {
            Some(v) => v.parse().map_err(|_| format!("bad --{flag} value `{v}`")),
            None => Ok(default),
        }
    };
    let seed: u64 = match args.get("seed") {
        Some(v) => v.parse().map_err(|_| format!("bad --seed value `{v}`"))?,
        None => 0xA57AC3,
    };
    let synth_config = || -> Result<TraceConfig, String> {
        let config = TraceConfig {
            functions: parse_num("functions", 400.0)? as usize,
            window_secs: parse_num("window-secs", 24.0 * 3600.0)?,
            seed,
            diurnal: if args.has_flag("flat") {
                None
            } else {
                Some(DiurnalProfile::default())
            },
        };
        config.validate().map_err(|e| e.to_string())?;
        Ok(config)
    };
    let stream = args.has_flag("stream");
    if stream && args.get("trace").is_some() {
        return Err("--stream replays a synthetic fleet with bounded memory; \
             it cannot be combined with --trace"
            .to_owned());
    }

    let trace = match (stream, args.get("trace")) {
        (true, _) => None,
        (false, Some(path)) => {
            Some(lambda_sim::load_trace_csv(path, seed).map_err(|e| e.to_string())?)
        }
        (false, None) => Some(lambda_sim::generate_trace(&synth_config()?)),
    };

    let mut options = ReplayOptions {
        jobs: replay_jobs(args)?,
        ..ReplayOptions::default()
    };
    if let Some(list) = args.get("keep-alive") {
        options.keep_alive_secs = list
            .split(',')
            .map(|v| {
                v.trim()
                    .parse()
                    .map_err(|_| format!("bad --keep-alive entry `{v}`"))
            })
            .collect::<Result<_, _>>()?;
    }
    if let Some(list) = args.get("modes") {
        options.modes = list
            .split(',')
            .map(|m| match m.trim() {
                "standard" => Ok(StartMode::Standard),
                "restore" => Ok(StartMode::Restore),
                other => Err(format!(
                    "unknown mode `{other}` (expected standard|restore)"
                )),
            })
            .collect::<Result<_, _>>()?;
    }
    if let Some(cap) = args.get("max-concurrency") {
        options.max_concurrency = Some(
            cap.parse()
                .map_err(|_| format!("bad --max-concurrency value `{cap}`"))?,
        );
    }
    if let Some(p) = args.get("provisioned") {
        options.provisioned = p
            .parse()
            .map_err(|_| format!("bad --provisioned value `{p}`"))?;
    }

    let header = || {
        println!(
            "{:<10} {:>12} {:>12} {:>10} {:>8} {:>10} {:>10} {:>12}",
            "mode", "keep-alive s", "cold ratio", "queued", "p50 s", "p95 s", "p99 s", "total $"
        )
    };
    #[allow(clippy::too_many_arguments)]
    fn variant_row(
        mode: StartMode,
        keep_alive_secs: f64,
        cold_ratio: f64,
        queued: u64,
        p50: f64,
        p95: f64,
        p99: f64,
        total: f64,
        provider_costs: &[(&'static str, f64)],
    ) {
        println!(
            "{:<10} {:>12.0} {:>12.4} {:>10} {:>8.3} {:>10.3} {:>10.3} {:>12.6}",
            mode.name(),
            keep_alive_secs,
            cold_ratio,
            queued,
            p50,
            p95,
            p99,
            total
        );
        for (provider, cost) in provider_costs {
            println!("{:<10} {:>26}: ${cost:.6}", "", provider);
        }
    }

    let Some(trace) = trace else {
        // Fleet streaming path: arrivals never materialize, so the sweep
        // scales to fleet sizes whose traces would not fit in memory.
        let config = synth_config()?;
        eprintln!(
            "streaming synthetic fleet: {} functions over {:.0} s ({} job{})",
            config.functions,
            config.window_secs,
            options.jobs,
            if options.jobs == 1 { "" } else { "s" }
        );
        let report = lambda_sim::replay_fleet(&Platform::default(), &config, &options)
            .map_err(|e| e.to_string())?;
        eprintln!("replayed {} invocations per variant", report.invocations);
        header();
        for v in &report.variants {
            variant_row(
                v.mode,
                v.keep_alive_secs,
                v.cold_ratio(),
                v.queued_requests,
                v.e2e_p50_secs,
                v.e2e_p95_secs,
                v.e2e_p99_secs,
                v.total_cost(),
                &v.provider_costs,
            );
        }
        if let Some(out) = args.get("out") {
            std::fs::write(out, lambda_sim::render_fleet_metrics_json(&report) + "\n")
                .map_err(|e| format!("writing {out}: {e}"))?;
            eprintln!("metrics written to {out}");
        }
        return Ok(());
    };

    let source = match trace.source {
        TraceSource::Loaded { .. } => "loaded",
        TraceSource::Synthetic { .. } => "synthetic",
    };
    eprintln!(
        "replaying {source} trace: {} functions, {} invocations over {:.0} s ({} job{})",
        trace.functions.len(),
        trace.invocations(),
        trace.window_secs,
        options.jobs,
        if options.jobs == 1 { "" } else { "s" }
    );
    let report = lambda_sim::replay_trace(&Platform::default(), &trace, &options);
    header();
    for v in &report.variants {
        variant_row(
            v.mode,
            v.keep_alive_secs,
            v.cold_ratio(),
            v.queued_requests,
            v.e2e_p50_secs,
            v.e2e_p95_secs,
            v.e2e_p99_secs,
            v.total_cost(),
            &v.provider_costs,
        );
    }
    if let Some(out) = args.get("out") {
        std::fs::write(out, render_metrics_json(&report) + "\n")
            .map_err(|e| format!("writing {out}: {e}"))?;
        eprintln!("metrics written to {out}");
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(raw: &[&str]) -> Args {
        Args::parse(raw.iter().map(|s| (*s).to_owned()))
    }

    #[test]
    fn removed_threads_flag_is_rejected() {
        let err = cmd_trim(&args(&["trim", "--app", "a.py", "--threads", "4"]))
            .expect_err("DD is sequential; --threads no longer exists");
        assert!(
            err.contains("unknown option `--threads` for `trim`"),
            "{err}"
        );
        assert!(
            err.contains("--algorithm"),
            "lists the valid options: {err}"
        );
    }

    #[test]
    fn removed_engine_flag_is_rejected() {
        let err = cmd_trim(&args(&["trim", "--app", "a.py", "--engine", "tree"]))
            .expect_err("the VM is the only oracle tier; --engine no longer exists");
        assert!(
            err.contains("unknown option `--engine` for `trim`"),
            "{err}"
        );
    }

    #[test]
    fn removed_ic_stats_flag_is_rejected() {
        let err = cmd_trim(&args(&["trim", "--app", "a.py", "--ic-stats"]))
            .expect_err("the inline-cache counters no longer exist");
        assert!(
            err.contains("unknown option `--ic-stats` for `trim`"),
            "{err}"
        );
    }

    #[test]
    fn greedy_and_ddmin_algorithms_are_accepted() {
        assert!(debloat_options(&args(&["--algorithm", "greedy"])).is_ok());
        assert!(debloat_options(&args(&["--algorithm", "ddmin"])).is_ok());
        let err = debloat_options(&args(&["--algorithm", "bisect"])).expect_err("unknown");
        assert!(err.contains("expected ddmin|greedy"), "{err}");
    }

    #[test]
    fn misspelled_options_are_rejected_per_command() {
        let err = cmd_simulate(&args(&[
            "simulate",
            "--functions",
            "5",
            "--window-secs",
            "600",
            "--keep-alvie",
            "5",
            "--thraeds",
            "9",
        ]))
        .expect_err("a misspelled option must not fall back to its default");
        assert!(err.contains("unknown option `--keep-alvie`"), "{err}");
        assert!(
            err.contains("--keep-alive"),
            "lists the valid options: {err}"
        );
        // Each command checks against its own list: `--stream` belongs to
        // `simulate`, not `analyze`.
        let err = cmd_analyze(&args(&["analyze", "--app", "a.py", "--stream"]))
            .expect_err("simulate-only option");
        assert!(
            err.contains("unknown option `--stream` for `analyze`"),
            "{err}"
        );
        // `--jobs` sets replay workers for `simulate` only: the static
        // analysis and DD run serially.
        let err = cmd_trim(&args(&["trim", "--app", "a.py", "--jobs", "2"]))
            .expect_err("trim takes no --jobs");
        assert!(err.contains("unknown option `--jobs` for `trim`"), "{err}");
        assert!(err.contains("--oracle"), "lists the valid options: {err}");
        let err = cmd_analyze(&args(&["analyze", "--app", "a.py", "--jobs", "2"]))
            .expect_err("analyze takes no --jobs");
        assert!(
            err.contains("unknown option `--jobs` for `analyze`"),
            "{err}"
        );
        assert!(err.contains("--hazards"), "lists the valid options: {err}");
        cmd_simulate(&args(&[
            "simulate",
            "--stream",
            "--functions",
            "4",
            "--window-secs",
            "600",
            "--jobs",
            "2",
        ]))
        .expect("simulate keeps --jobs");
    }

    #[test]
    fn hazard_flags_parse_as_bare_switches() {
        let a = args(&["analyze", "--hazards", "--json", "--app", "a.py"]);
        assert!(a.has_flag("hazards"));
        assert!(a.has_flag("json"));
        assert_eq!(a.get("app"), Some("a.py"));
    }

    #[test]
    fn json_strings_are_escaped() {
        assert_eq!(json_string("plain"), "\"plain\"");
        assert_eq!(json_string("a\"b\\c"), "\"a\\\"b\\\\c\"");
        assert_eq!(
            json_string("line\nbreak\t\u{1}"),
            "\"line\\nbreak\\t\\u0001\""
        );
    }

    #[test]
    fn stream_flag_conflicts_with_trace() {
        let err = cmd_simulate(&args(&["simulate", "--stream", "--trace", "t.csv"]))
            .expect_err("--stream with --trace must be rejected");
        assert!(err.contains("--stream"), "{err}");
        assert!(err.contains("--trace"), "{err}");
    }

    #[test]
    fn stream_simulate_runs_a_small_fleet() {
        let out = std::env::temp_dir().join("lambda_trim_stream_metrics_test.json");
        let out_str = out.to_str().expect("utf8 temp path").to_owned();
        cmd_simulate(&args(&[
            "simulate",
            "--stream",
            "--functions",
            "8",
            "--window-secs",
            "3600",
            "--out",
            &out_str,
        ]))
        .expect("small streamed fleet replays");
        let json = std::fs::read_to_string(&out).expect("metrics written");
        std::fs::remove_file(&out).ok();
        assert!(json.contains("\"variants\""));
        assert!(json.contains("\"functions\": 8"));
    }

    #[test]
    fn jobs_flag_is_parsed_and_validated() {
        assert_eq!(replay_jobs(&args(&[])).unwrap(), 1);
        assert_eq!(replay_jobs(&args(&["--jobs", "8"])).unwrap(), 8);
        let err = replay_jobs(&args(&["--jobs", "0"])).expect_err("zero jobs rejected");
        assert!(err.contains("--jobs"), "{err}");
        let err = replay_jobs(&args(&["--jobs", "lots"])).expect_err("non-numeric rejected");
        assert!(err.contains("--jobs"), "{err}");
    }

    #[test]
    fn analyze_rejects_a_missing_handler() {
        let dir = std::env::temp_dir().join(format!("lambda_trim_handler_{}", std::process::id()));
        let packages = dir.join("packages");
        std::fs::create_dir_all(&packages).unwrap();
        let app = dir.join("app.py");
        std::fs::write(
            &app,
            "def handler(event, context):\n    return 1\ndef helper():\n    return 2\n",
        )
        .unwrap();
        let run = |handler: &str| {
            cmd_analyze(&args(&[
                "analyze",
                "--app",
                app.to_str().unwrap(),
                "--packages",
                packages.to_str().unwrap(),
                "--handler",
                handler,
            ]))
        };
        let missing = run("nosuch");
        let present = run("helper");
        std::fs::remove_dir_all(&dir).ok();
        let err = missing.expect_err("a handler the app does not define");
        assert!(err.contains("handler `nosuch`"), "{err}");
        assert!(
            err.contains("handler, helper"),
            "lists the functions: {err}"
        );
        present.expect("any top-level function can be the handler");
    }

    #[test]
    fn no_slice_flag_disables_slicing_and_takes_no_value() {
        assert!(
            debloat_options(&args(&[])).unwrap().slice_init,
            "slicing defaults on"
        );
        let opts = debloat_options(&args(&["--no-slice"])).unwrap();
        assert!(!opts.slice_init);
        // `--no-slice` followed by a bare token would silently swallow it as
        // a value; reject that instead of mis-parsing the command line.
        let err = debloat_options(&args(&["--no-slice", "yes"])).expect_err("value rejected");
        assert!(err.contains("--no-slice takes no value"), "{err}");
        // Followed by another flag it parses as the boolean it is.
        let opts = debloat_options(&args(&["--no-slice", "--algorithm", "greedy"])).unwrap();
        assert!(!opts.slice_init);
        assert_eq!(opts.algorithm, trim_core::Algorithm::Greedy);
    }
}
