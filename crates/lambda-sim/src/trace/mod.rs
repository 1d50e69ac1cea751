//! Invocation traces: synthetic Azure-Functions-shaped generation and real
//! Azure-Functions-dataset CSV loading, unified behind one [`TraceSet`]
//! representation (§8.6, Figures 13–14).
//!
//! The paper replays SnapStart costs over Microsoft's Azure Functions trace
//! (Shahrad et al., ATC'20). The original trace is distributed as
//! per-function per-minute invocation counts plus duration/memory
//! percentile tables; this module provides
//!
//! * [`loader`] — a CSV loader for that schema with typed parse errors;
//! * [`reconstruct`] — deterministic, seeded reconstruction of intra-minute
//!   arrival timestamps from the per-minute counts;
//! * [`synthetic`] — a seeded generator with the published trace *shape*
//!   (heavy-tailed rates, timers, bursts) for when the dataset is absent;
//! * [`diurnal`] — diurnal + day-of-week rate modulation shared by the
//!   synthetic generator and anyone constructing traces programmatically;
//! * [`replay`] — replays every function of a [`TraceSet`] through the
//!   pool across start modes and keep-alive settings, with a deterministic
//!   worker-pool fan-out, exact percentiles and per-function detail;
//! * [`fleet`] — the fleet-scale variant of [`replay`]: streams synthetic
//!   arrivals straight from the generator into the pool with bounded
//!   memory, for 30k+-function / 10⁸+-invocation sweeps. Both drivers run
//!   on one set of helpers (fan-out, pricing, rendering) in `drive.rs`.
//!
//! Everything is fully seeded: the same inputs produce byte-identical
//! traces and replay metrics whatever the worker count.

pub mod diurnal;
mod drive;
pub mod fleet;
pub mod loader;
pub mod reconstruct;
pub mod replay;
pub mod synthetic;

pub use diurnal::DiurnalProfile;
pub use fleet::{render_fleet_metrics_json, replay_fleet, FleetReport, FleetVariantReport};
pub use loader::{load_trace_csv, parse_trace_csv};
pub use reconstruct::ReconstructedArrivals;
pub use replay::{
    render_metrics_json, replay_trace, FunctionReplay, ReplayOptions, ReplayReport, VariantReport,
};
pub use synthetic::{generate_trace, synthesize_function, SyntheticFunction, TraceConfig};

/// The arrival-pattern class of a function.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ArrivalClass {
    /// Timer/cron style: regular period with small jitter.
    Periodic,
    /// Poisson arrivals at a constant rate.
    Poisson,
    /// On/off bursts: quiet gaps, then a burst of closely spaced requests.
    Bursty,
    /// A handful of invocations over the whole window.
    Rare,
}

impl ArrivalClass {
    /// Stable lowercase label (used in reports and JSON).
    pub fn name(self) -> &'static str {
        match self {
            ArrivalClass::Periodic => "periodic",
            ArrivalClass::Poisson => "poisson",
            ArrivalClass::Bursty => "bursty",
            ArrivalClass::Rare => "rare",
        }
    }

    /// Map an Azure-dataset trigger string onto an arrival class: timers
    /// are near-periodic, HTTP traffic is Poisson-like, queue/event
    /// triggers arrive in bursts, everything else is treated as rare.
    pub fn from_trigger(trigger: &str) -> ArrivalClass {
        match trigger.to_ascii_lowercase().as_str() {
            "timer" => ArrivalClass::Periodic,
            "http" => ArrivalClass::Poisson,
            "queue" | "event" | "storage" => ArrivalClass::Bursty,
            _ => ArrivalClass::Rare,
        }
    }
}

/// One function in a trace: resource profile (averages plus the dataset's
/// percentile columns) and reconstructed arrival timestamps.
#[derive(Debug, Clone, PartialEq)]
pub struct FunctionTrace {
    /// Trace-unique numeric identifier (row order for loaded traces).
    pub id: u32,
    /// Function name (the dataset's hash id, or `fn<id>` when synthetic).
    pub name: String,
    /// Arrival class (from the trigger column, or the generator's class).
    pub class: ArrivalClass,
    /// Average memory footprint in MB.
    pub mem_mb: f64,
    /// 99th-percentile memory footprint in MB.
    pub p99_mem_mb: f64,
    /// Average execution duration in milliseconds.
    pub duration_ms: f64,
    /// Median execution duration in milliseconds.
    pub p50_duration_ms: f64,
    /// 99th-percentile execution duration in milliseconds.
    pub p99_duration_ms: f64,
    /// Sorted arrival timestamps in seconds from window start, all within
    /// `[0, window_secs)`.
    pub arrivals: Vec<f64>,
}

impl FunctionTrace {
    /// Number of invocations in the window.
    pub fn invocations(&self) -> usize {
        self.arrivals.len()
    }
}

/// How a trace came to be — kept on the set so reports can label output.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceSource {
    /// Generated by [`synthetic::generate_trace`] with the given seed.
    Synthetic {
        /// Generator seed.
        seed: u64,
    },
    /// Loaded from an Azure-schema CSV, arrivals reconstructed with `seed`.
    Loaded {
        /// Reconstruction seed.
        seed: u64,
    },
}

/// A complete trace: the simulation window plus every function in it. Both
/// the synthetic generator and the CSV loader produce this one shape, so
/// the replay engine and the experiment harnesses are agnostic to where a
/// trace came from.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceSet {
    /// Window length in seconds.
    pub window_secs: f64,
    /// Every function in the trace.
    pub functions: Vec<FunctionTrace>,
    /// Provenance.
    pub source: TraceSource,
}

impl TraceSet {
    /// Total invocations across all functions.
    pub fn invocations(&self) -> usize {
        self.functions.iter().map(FunctionTrace::invocations).sum()
    }
}

/// Typed errors from trace loading, reconstruction and validation.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceError {
    /// The CSV had no rows at all.
    Empty,
    /// The header row is not the expected schema.
    Header {
        /// What a valid header starts with.
        expected: String,
        /// What was found.
        found: String,
    },
    /// A data row has the wrong number of columns.
    ColumnCount {
        /// 1-based line number.
        line: usize,
        /// Columns the header promised.
        expected: usize,
        /// Columns the row has.
        found: usize,
    },
    /// A fixed field failed to parse as a finite non-negative number.
    BadNumber {
        /// 1-based line number.
        line: usize,
        /// Column name.
        field: String,
        /// Raw cell contents.
        value: String,
    },
    /// A per-minute count cell failed to parse as a non-negative integer.
    BadCount {
        /// 1-based line number.
        line: usize,
        /// 0-based minute index.
        minute: usize,
        /// Raw cell contents.
        value: String,
    },
    /// Two rows name the same function.
    DuplicateFunction {
        /// 1-based line number of the second occurrence.
        line: usize,
        /// The duplicated function name.
        name: String,
    },
    /// The header declares no per-minute count columns.
    NoMinuteColumns,
    /// A window length that cannot host arrivals (`window_secs <= 0`,
    /// NaN, or infinite).
    InvalidWindow {
        /// The rejected value.
        window_secs: f64,
    },
    /// A [`DiurnalProfile`] parameter outside its documented range.
    InvalidDiurnal {
        /// Which parameter.
        field: &'static str,
        /// The rejected value.
        value: f64,
    },
    /// An I/O failure reading the trace file.
    Io(String),
}

impl std::fmt::Display for TraceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceError::Empty => write!(f, "trace CSV is empty"),
            TraceError::Header { expected, found } => {
                write!(
                    f,
                    "bad trace header: expected `{expected},...`, found `{found}`"
                )
            }
            TraceError::ColumnCount {
                line,
                expected,
                found,
            } => write!(
                f,
                "line {line}: expected {expected} columns (per the header), found {found}"
            ),
            TraceError::BadNumber { line, field, value } => write!(
                f,
                "line {line}: field `{field}`: `{value}` is not a finite non-negative number"
            ),
            TraceError::BadCount {
                line,
                minute,
                value,
            } => write!(
                f,
                "line {line}: minute {minute}: `{value}` is not a non-negative integer count"
            ),
            TraceError::DuplicateFunction { line, name } => {
                write!(f, "line {line}: duplicate function `{name}`")
            }
            TraceError::NoMinuteColumns => {
                write!(f, "trace header declares no per-minute count columns")
            }
            TraceError::InvalidWindow { window_secs } => {
                write!(
                    f,
                    "invalid trace window: {window_secs} s (must be finite and > 0)"
                )
            }
            TraceError::InvalidDiurnal { field, value } => {
                write!(f, "invalid diurnal profile: {field} = {value}")
            }
            TraceError::Io(msg) => write!(f, "reading trace: {msg}"),
        }
    }
}

impl std::error::Error for TraceError {}

/// Validate a window length: finite and strictly positive.
pub(crate) fn validate_window(window_secs: f64) -> Result<(), TraceError> {
    if window_secs.is_finite() && window_secs > 0.0 {
        Ok(())
    } else {
        Err(TraceError::InvalidWindow { window_secs })
    }
}

/// Find the trace function most similar to `(mem_mb, duration_ms)` under the
/// L2 norm — the paper's §8.6 method for mapping each benchmarked app onto
/// an Azure-trace invocation pattern. Dimensions are normalized by the trace
/// maxima so neither dominates.
pub fn nearest_function(
    trace: &[FunctionTrace],
    mem_mb: f64,
    duration_ms: f64,
) -> Option<&FunctionTrace> {
    let max_mem = trace.iter().map(|f| f.mem_mb).fold(1.0, f64::max);
    let max_dur = trace.iter().map(|f| f.duration_ms).fold(1.0, f64::max);
    trace.iter().min_by(|a, b| {
        let d = |f: &FunctionTrace| {
            let dm = (f.mem_mb - mem_mb) / max_mem;
            let dd = (f.duration_ms - duration_ms) / max_dur;
            dm * dm + dd * dd
        };
        d(a).total_cmp(&d(b))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stub(id: u32, mem_mb: f64, duration_ms: f64) -> FunctionTrace {
        FunctionTrace {
            id,
            name: format!("fn{id}"),
            class: ArrivalClass::Rare,
            mem_mb,
            p99_mem_mb: mem_mb,
            duration_ms,
            p50_duration_ms: duration_ms,
            p99_duration_ms: duration_ms,
            arrivals: vec![],
        }
    }

    #[test]
    fn nearest_function_picks_closest_profile() {
        let trace = vec![stub(0, 100.0, 100.0), stub(1, 1000.0, 10_000.0)];
        assert_eq!(nearest_function(&trace, 120.0, 150.0).unwrap().id, 0);
        assert_eq!(nearest_function(&trace, 900.0, 9_000.0).unwrap().id, 1);
        assert!(nearest_function(&[], 1.0, 1.0).is_none());
    }

    #[test]
    fn trigger_class_mapping() {
        assert_eq!(ArrivalClass::from_trigger("timer"), ArrivalClass::Periodic);
        assert_eq!(ArrivalClass::from_trigger("HTTP"), ArrivalClass::Poisson);
        assert_eq!(ArrivalClass::from_trigger("queue"), ArrivalClass::Bursty);
        assert_eq!(ArrivalClass::from_trigger("other"), ArrivalClass::Rare);
    }

    #[test]
    fn window_validation() {
        assert!(validate_window(60.0).is_ok());
        assert_eq!(
            validate_window(0.0),
            Err(TraceError::InvalidWindow { window_secs: 0.0 })
        );
        assert!(validate_window(-1.0).is_err());
        assert!(validate_window(f64::NAN).is_err());
        assert!(validate_window(f64::INFINITY).is_err());
    }

    #[test]
    fn errors_render_readably() {
        let e = TraceError::BadCount {
            line: 3,
            minute: 7,
            value: "x".into(),
        };
        assert!(e.to_string().contains("line 3"));
        assert!(e.to_string().contains("minute 7"));
    }
}
