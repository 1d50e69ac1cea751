//! The oracle: run an application against its test cases and compare
//! observable behavior (§5.3).
//!
//! A λ-trim oracle specification is a set of inputs (each an `event` plus a
//! `context`) for which the debloated program must produce the same output
//! as the original. "Output" is the captured standard output, the handler's
//! return values, and the log of external-service calls — the serverless
//! side-effect surface §5.3 identifies (local side effects are ignorable
//! because instances are stateless).
//!
//! Within a trim every oracle run goes through one [`Probe`]: the baseline
//! run, each candidate's verdict and the final check.

use crate::debloater::DebloatOptions;
use crate::probe_cache::{app_fingerprint, ProbeKey};
use crate::TrimError;
use pylite::ast::Expr;
use pylite::{parse_expr, py_repr, Engine, ExcKind, Interpreter, PyErr, Registry, Value};

/// One oracle test case: the JSON-like event and the invocation context.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TestCase {
    /// pylite literal source for the `event` argument, e.g. `{"n": 3}`.
    pub event: String,
    /// pylite literal source for the `context` argument (default `None`).
    pub context: String,
}

impl TestCase {
    /// A test case with the given event literal and a `None` context.
    pub fn event(event: impl Into<String>) -> Self {
        TestCase {
            event: event.into(),
            context: "None".into(),
        }
    }
}

/// The oracle specification: handler name plus test cases (§5, "each test
/// must contain an event and a context").
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OracleSpec {
    /// Name of the lambda handler bound at module top level.
    pub handler: String,
    /// The input test cases (the paper uses 1–3 per application).
    pub cases: Vec<TestCase>,
}

impl OracleSpec {
    /// Spec with the conventional handler name `handler`.
    pub fn new(cases: Vec<TestCase>) -> Self {
        OracleSpec {
            handler: "handler".into(),
            cases,
        }
    }
}

/// The observable behavior of one application run over all test cases,
/// plus the measurements every experiment consumes.
#[derive(Debug, Clone, PartialEq)]
pub struct Execution {
    /// Captured stdout lines (initialization + all handler calls).
    pub stdout: Vec<String>,
    /// External-service call log.
    pub extcalls: Vec<String>,
    /// `repr` of each handler return value, in case order.
    pub results: Vec<String>,
    /// Function Initialization time in virtual seconds.
    pub init_secs: f64,
    /// Mean handler execution time per case in virtual seconds.
    pub exec_secs: f64,
    /// Peak simulated memory in MB.
    pub mem_mb: f64,
}

impl Execution {
    /// Behavioral equivalence: same stdout, external calls and results.
    /// Timings and memory are *not* compared — they are what trimming is
    /// supposed to change.
    pub fn behavior_eq(&self, other: &Execution) -> bool {
        self.behavior_diff(other).is_none()
    }

    /// The first observable channel — `"stdout"`, `"external calls"` or
    /// `"handler results"` — on which the two runs differ, if any.
    pub fn behavior_diff(&self, other: &Execution) -> Option<&'static str> {
        if self.stdout != other.stdout {
            Some("stdout")
        } else if self.extcalls != other.extcalls {
            Some("external calls")
        } else if self.results != other.results {
            Some("handler results")
        } else {
            None
        }
    }
}

/// Evaluate a literal expression (possibly nested containers) to a [`Value`].
///
/// # Errors
///
/// `TypeError` if the expression contains anything but literals.
pub fn eval_literal(e: &Expr) -> Result<Value, PyErr> {
    match e {
        Expr::None => Ok(Value::None),
        Expr::True => Ok(Value::Bool(true)),
        Expr::False => Ok(Value::Bool(false)),
        Expr::Int(v) => Ok(Value::Int(*v)),
        Expr::Float(v) => Ok(Value::Float(*v)),
        Expr::Str(s) => Ok(Value::str(s)),
        Expr::List(items) => Ok(Value::list(
            items.iter().map(eval_literal).collect::<Result<_, _>>()?,
        )),
        Expr::Tuple(items) => Ok(Value::tuple(
            items.iter().map(eval_literal).collect::<Result<_, _>>()?,
        )),
        Expr::Dict(pairs) => {
            let mut out = Vec::with_capacity(pairs.len());
            for (k, v) in pairs {
                out.push((eval_literal(k)?, eval_literal(v)?));
            }
            Ok(Value::dict(out))
        }
        Expr::Unary {
            op: pylite::ast::UnaryOp::Neg,
            operand,
        } => match eval_literal(operand)? {
            Value::Int(i) => Ok(Value::Int(-i)),
            Value::Float(f) => Ok(Value::Float(-f)),
            other => Err(PyErr::type_error(format!(
                "cannot negate literal of type {}",
                other.type_name()
            ))),
        },
        _ => Err(PyErr::type_error(
            "oracle events must be literal expressions",
        )),
    }
}

/// Parse a literal source string to a [`Value`].
///
/// # Errors
///
/// `ValueError` on parse failure, `TypeError` on non-literal content.
pub fn parse_literal(source: &str) -> Result<Value, PyErr> {
    let e = parse_expr(source)
        .map_err(|err| PyErr::new(ExcKind::ValueError, format!("bad literal: {err}")))?;
    eval_literal(&e)
}

/// Run the application (initialization + every oracle case) in a fresh,
/// isolated interpreter on the default execution tier and capture its
/// observable behavior.
///
/// # Errors
///
/// Any pylite exception raised during initialization or by the handler.
pub fn run_app(
    registry: &Registry,
    app_source: &str,
    spec: &OracleSpec,
) -> Result<Execution, PyErr> {
    run_app_opts(registry, app_source, spec, Engine::default(), false)
}

/// Like [`run_app`], on an explicit execution tier — the bytecode VM (the
/// default) or the tree-walking reference interpreter — and with the
/// init-snapshot switch of [`run_app_measured_opts`].
///
/// # Errors
///
/// Any pylite exception raised during initialization or by the handler.
pub fn run_app_opts(
    registry: &Registry,
    app_source: &str,
    spec: &OracleSpec,
    engine: Engine,
    init_snapshots: bool,
) -> Result<Execution, PyErr> {
    run_app_measured_opts(registry, app_source, spec, engine, init_snapshots).0
}

/// [`run_app_opts`] that also returns the virtual time the run consumed
/// regardless of success — the quantity the debloater accumulates into the
/// per-application "debloating time" of Table 3. Both engines meter
/// virtual time identically (the bytecode differential pins this), so the
/// measurement is engine-independent.
///
/// When `init_snapshots` is true, module initializations are recorded into
/// — and replayed from — the registry family's shared
/// [`pylite::SnapshotStore`], so repeated probes over the same import cone
/// skip re-executing module bodies. Replay is byte-identical to live
/// execution (the differential suites pin this), so the returned
/// [`Execution`] and measurement are unaffected by the switch.
pub fn run_app_measured_opts(
    registry: &Registry,
    app_source: &str,
    spec: &OracleSpec,
    engine: Engine,
    init_snapshots: bool,
) -> (Result<Execution, PyErr>, f64) {
    let mut interp = Interpreter::new(registry.clone());
    interp.engine = engine;
    if init_snapshots {
        interp.enable_init_snapshots();
    }
    let result = run_app_inner(&mut interp, app_source, spec);
    let spent = interp.meter.clock_secs();
    (result, spent)
}

fn run_app_inner(
    interp: &mut Interpreter,
    app_source: &str,
    spec: &OracleSpec,
) -> Result<Execution, PyErr> {
    interp.exec_main(app_source)?;
    let init_secs = interp.meter.clock_secs();
    let mut results = Vec::with_capacity(spec.cases.len());
    let exec_start = interp.meter.clock_secs();
    for case in &spec.cases {
        let event = parse_literal(&case.event)?;
        let context = parse_literal(&case.context)?;
        let out = interp.call_handler(&spec.handler, event, context)?;
        results.push(py_repr(&out));
    }
    let exec_total = interp.meter.clock_secs() - exec_start;
    let exec_secs = if spec.cases.is_empty() {
        0.0
    } else {
        exec_total / spec.cases.len() as f64
    };
    Ok(Execution {
        stdout: interp.stdout.clone(),
        extcalls: interp.extcalls.clone(),
        results,
        init_secs,
        exec_secs,
        mem_mb: interp.meter.mem_mb(),
    })
}

/// The oracle of one trim: "does this candidate registry still behave like
/// the unmodified application on every oracle case?" (§5.3).
///
/// Every verdict of a trim goes through [`Probe::passes`]: DD candidates,
/// seed probes, commit re-verifies and slice probes alike. With a
/// [`ProbeCache`](crate::ProbeCache) attached, a verdict is keyed by the candidate's content
/// [fingerprint](Registry::fingerprint) and the [`app_fingerprint`] of the
/// app, spec and expected behavior, so candidates with equal content share
/// one oracle run within a trim and across trims.
#[derive(Debug)]
pub struct Probe<'a> {
    app_source: &'a str,
    spec: &'a OracleSpec,
    options: &'a DebloatOptions,
    expected: Execution,
    app_fp: u64,
    /// Virtual time of the oracle runs behind [`Probe::passes`], in whole
    /// nanoseconds.
    nanos: u64,
    checks: u64,
}

impl<'a> Probe<'a> {
    /// A probe holding candidates to `expected`, with `options`' probe
    /// cache, execution tier and init-snapshot switch.
    pub fn new(
        app_source: &'a str,
        spec: &'a OracleSpec,
        expected: Execution,
        options: &'a DebloatOptions,
    ) -> Self {
        Probe {
            app_fp: app_fingerprint(app_source, spec, &expected),
            app_source,
            spec,
            options,
            expected,
            nanos: 0,
            checks: 0,
        }
    }

    /// Run the unmodified application on `registry` and build the probe
    /// that holds every later candidate to that behavior.
    ///
    /// # Errors
    ///
    /// [`TrimError::Baseline`] if the application fails its own oracle
    /// run: DD requires `O(P) = T` on the unmodified program.
    pub fn baseline(
        registry: &Registry,
        app_source: &'a str,
        spec: &'a OracleSpec,
        options: &'a DebloatOptions,
    ) -> Result<Self, TrimError> {
        let (engine, snapshots) = (options.engine, options.init_snapshots);
        let expected = run_app_opts(registry, app_source, spec, engine, snapshots)
            .map_err(TrimError::Baseline)?;
        Ok(Probe::new(app_source, spec, expected, options))
    }

    fn run(&self, registry: &Registry) -> (Result<Execution, PyErr>, f64) {
        let (engine, snapshots) = (self.options.engine, self.options.init_snapshots);
        run_app_measured_opts(registry, self.app_source, self.spec, engine, snapshots)
    }

    /// Whether `candidate` runs and behaves like the expected execution.
    /// A cached verdict is returned without an oracle run and charges no
    /// virtual time.
    pub fn passes(&mut self, candidate: &Registry) -> bool {
        self.checks += 1;
        let key = ProbeKey {
            registry_fingerprint: candidate.fingerprint(),
            app_fingerprint: self.app_fp,
        };
        let cache = self.options.probe_cache.as_deref();
        if let Some(verdict) = cache.and_then(|cache| cache.get(&key)) {
            return verdict;
        }
        let (result, secs) = self.run(candidate);
        self.nanos += (secs * 1e9) as u64;
        let verdict = matches!(&result, Ok(actual) if actual.behavior_eq(&self.expected));
        if let Some(cache) = cache {
            cache.insert(key, verdict);
        }
        verdict
    }

    /// The final check of a trim: run `trimmed` (never from the cache)
    /// and return its execution if it is oracle-equivalent.
    ///
    /// # Errors
    ///
    /// [`TrimError::Baseline`] if the run raises,
    /// [`TrimError::NotEquivalent`] if its behavior differs.
    pub fn verify(&self, trimmed: &Registry) -> Result<Execution, TrimError> {
        let after = self.run(trimmed).0.map_err(TrimError::Baseline)?;
        match after.behavior_diff(&self.expected) {
            None => Ok(after),
            Some(channel) => Err(TrimError::NotEquivalent(channel)),
        }
    }

    /// The behavior every candidate is held to.
    pub fn expected(&self) -> &Execution {
        &self.expected
    }

    /// Virtual seconds spent in the oracle runs behind [`Probe::passes`]:
    /// the "debloating time" of Table 3. Cache hits add nothing.
    pub fn secs(&self) -> f64 {
        self.nanos as f64 / 1e9
    }

    /// Verdicts asked of [`Probe::passes`], cache hits included.
    pub fn checks(&self) -> u64 {
        self.checks
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ProbeCache;
    use pylite::KeepMask;
    use std::sync::Arc;

    fn registry() -> Registry {
        let mut r = Registry::new();
        r.set_module(
            "mathlib",
            "def double(x):\n    return x * 2\ndef unused():\n    return 999\n",
        );
        r
    }

    const APP: &str =
        "import mathlib\ndef handler(event, context):\n    return mathlib.double(event[\"n\"])\n";

    fn spec() -> OracleSpec {
        OracleSpec::new(vec![
            TestCase::event("{\"n\": 3}"),
            TestCase::event("{\"n\": -5}"),
        ])
    }

    #[test]
    fn run_app_captures_results_and_timing() {
        let e = run_app(&registry(), APP, &spec()).unwrap();
        assert_eq!(e.results, vec!["6", "-10"]);
        assert!(e.init_secs > 0.0);
        assert!(e.exec_secs > 0.0);
        assert!(e.mem_mb > 0.0);
    }

    #[test]
    fn behavior_eq_ignores_timing() {
        let a = run_app(&registry(), APP, &spec()).unwrap();
        let mut b = a.clone();
        b.init_secs = 999.0;
        b.mem_mb = 999.0;
        assert!(a.behavior_eq(&b));
    }

    #[test]
    fn behavior_eq_detects_result_changes() {
        let a = run_app(&registry(), APP, &spec()).unwrap();
        let mut b = a.clone();
        b.results[0] = "7".into();
        assert!(!a.behavior_eq(&b));
    }

    /// Whether `candidate` passes a cache-less probe of [`APP`].
    fn passes(candidate: &Registry) -> bool {
        let (spec, options) = (spec(), DebloatOptions::default());
        let mut probe = Probe::baseline(&registry(), APP, &spec, &options).unwrap();
        probe.passes(candidate)
    }

    #[test]
    fn oracle_passes_on_equivalent_rewrite() {
        let mut trimmed = registry();
        trimmed.set_module("mathlib", "def double(x):\n    return x * 2\n");
        assert!(passes(&trimmed));
    }

    #[test]
    fn oracle_fails_on_behavior_change() {
        let mut broken = registry();
        broken.set_module("mathlib", "def double(x):\n    return x * 3\n");
        assert!(!passes(&broken));
    }

    #[test]
    fn oracle_fails_on_crash() {
        let mut broken = registry();
        broken.set_module("mathlib", "pass\n");
        assert!(!passes(&broken));
    }

    /// A probe of [`APP`] with a fresh probe cache attached.
    fn cached_options() -> (DebloatOptions, std::sync::Arc<ProbeCache>) {
        let cache = ProbeCache::shared();
        let options = DebloatOptions {
            probe_cache: Some(cache.clone()),
            ..DebloatOptions::default()
        };
        (options, cache)
    }

    #[test]
    fn a_cache_hit_charges_no_virtual_time() {
        let (options, cache) = cached_options();
        let spec = spec();
        let mut probe = Probe::baseline(&registry(), APP, &spec, &options).unwrap();
        assert!(probe.passes(&registry()));
        let spent = probe.secs();
        assert!(spent > 0.0, "a miss runs the oracle");
        assert!(probe.passes(&registry()));
        assert_eq!(probe.secs(), spent, "the hit charged nothing");
        assert_eq!(probe.checks(), 2, "hits still count as checks");
        assert_eq!((cache.hits(), cache.misses()), (1, 1));
    }

    #[test]
    fn keep_masks_of_one_module_get_different_keys() {
        let (options, cache) = cached_options();
        let spec = spec();
        let base = registry();
        let mut probe = Probe::baseline(&base, APP, &spec, &options).unwrap();
        // `mathlib` has two statements: drop `unused`, or drop `double`.
        let keep_double = base.with_mask("mathlib", Arc::new(KeepMask::statements(2, &[0])));
        let keep_unused = base.with_mask("mathlib", Arc::new(KeepMask::statements(2, &[1])));
        assert_ne!(keep_double.fingerprint(), keep_unused.fingerprint());
        assert!(probe.passes(&keep_double));
        assert!(
            !probe.passes(&keep_unused),
            "a shared key would reuse the pass"
        );
        assert_eq!((cache.hits(), cache.misses()), (0, 2));
    }

    #[test]
    fn equal_content_in_any_insertion_order_shares_a_key() {
        let (options, cache) = cached_options();
        let spec = spec();
        let mut probe = Probe::baseline(&registry(), APP, &spec, &options).unwrap();
        let helper = "def triple(x):\n    return x * 3\n";
        let mut first = registry();
        first.set_module("helper", helper);
        let mut second = Registry::new();
        second.set_module("helper", helper);
        second.set_module("mathlib", registry().source("mathlib").unwrap());
        assert!(probe.passes(&first));
        assert!(probe.passes(&second));
        assert_eq!((cache.hits(), cache.misses()), (1, 1));
    }

    #[test]
    fn verify_returns_the_run_or_names_the_differing_channel() {
        let spec = spec();
        let options = DebloatOptions::default();
        let probe = Probe::baseline(&registry(), APP, &spec, &options).unwrap();
        let after = probe.verify(&registry()).unwrap();
        assert!(after.behavior_eq(probe.expected()));
        let mut broken = registry();
        broken.set_module("mathlib", "def double(x):\n    return x * 3\n");
        let err = probe.verify(&broken).unwrap_err();
        assert_eq!(err, TrimError::NotEquivalent("handler results"));
        assert!(err.to_string().contains("not oracle-equivalent"), "{err}");
        let mut chatty = registry();
        let source = format!("print(1)\n{}", chatty.source("mathlib").unwrap());
        chatty.set_module("mathlib", source);
        assert_eq!(
            probe.verify(&chatty),
            Err(TrimError::NotEquivalent("stdout"))
        );
        assert_eq!(probe.checks(), 0, "the final check is not a probe");
    }

    #[test]
    fn extcalls_are_part_of_behavior() {
        let mut r = Registry::new();
        r.set_module(
            "svc",
            "def put(x):\n    __lt_extcall__(\"s3\", \"put\", x)\n",
        );
        let app = "import svc\ndef handler(event, context):\n    svc.put(event)\n    return None\n";
        let spec = OracleSpec::new(vec![TestCase::event("\"payload\"")]);
        let expected = run_app(&r, app, &spec).unwrap();
        assert_eq!(expected.extcalls, vec!["s3:put:payload"]);
        let mut silent = r.clone();
        silent.set_module("svc", "def put(x):\n    pass\n");
        let options = DebloatOptions::default();
        let mut probe = Probe::new(app, &spec, expected, &options);
        assert!(
            !probe.passes(&silent),
            "dropping the external call must fail the oracle"
        );
    }

    #[test]
    fn literal_parsing_covers_containers() {
        let v = parse_literal("{\"a\": [1, 2.5, None], \"b\": (True, -3)}").unwrap();
        assert_eq!(py_repr(&v), "{\"a\": [1, 2.5, None], \"b\": (True, -3)}");
    }

    #[test]
    fn literal_rejects_calls() {
        assert!(parse_literal("f(1)").is_err());
        assert!(parse_literal("not a literal ][").is_err());
    }

    #[test]
    fn module_isolation_prevents_cache_pollution() {
        // §7 "Module isolation": measurements must come from a fresh
        // interpreter. A shared interpreter's sys.modules cache makes the
        // second run's import time collapse to ~zero — the exact bug the
        // paper's per-phase process spawning avoids.
        let r = registry();
        let a = run_app(&r, APP, &spec()).unwrap();
        let b = run_app(&r, APP, &spec()).unwrap();
        assert_eq!(a.init_secs, b.init_secs, "fresh runs measure identically");
        let mut shared = pylite::Interpreter::new(r.clone());
        shared.exec_main(APP).unwrap();
        let first = shared.meter.clock_secs();
        // Re-importing inside the same interpreter hits the module cache.
        let before = shared.meter.clock_secs();
        shared.import_module("mathlib").unwrap();
        let cached_cost = shared.meter.clock_secs() - before;
        assert!(
            cached_cost < first / 10.0,
            "cached import is nearly free — shared-interpreter profiling would be wrong"
        );
    }

    #[test]
    fn empty_case_list_is_valid() {
        let spec = OracleSpec::new(vec![]);
        let e = run_app(&registry(), APP, &spec).unwrap();
        assert!(e.results.is_empty());
        assert_eq!(e.exec_secs, 0.0);
    }
}
