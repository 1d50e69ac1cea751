//! # lambda-sim — a serverless platform simulator
//!
//! The AWS-Lambda-like substrate of the λ-trim reproduction. It models the
//! parts of a serverless platform that the paper's evaluation measures:
//!
//! * [`pricing`] — Equation (1) billing with per-platform rounding, the
//!   128 MB minimum threshold, and SnapStart restore/cache pricing;
//! * [`platform`] — cold/warm start lifecycle phases (Figure 1) and
//!   invocation cost/latency accounting;
//! * [`pool`] — the keep-alive instance pool with provisioned concurrency
//!   and concurrency limits, one event-driven streaming engine;
//! * [`snapshot`] — the CRIU/SnapStart checkpoint/restore cost model (§8.6);
//! * [`trace`] — invocation traces (Figures 13–14): a seeded synthetic
//!   Azure-Functions-style generator with diurnal modulation, a loader for
//!   the Azure-dataset CSV schema with deterministic arrival
//!   reconstruction, L2 nearest-function matching, and an event-driven
//!   replay engine across start modes and keep-alive settings;
//! * [`metrics`] — means/medians/percentiles/CDFs for the harnesses.
//!
//! # Example
//!
//! ```
//! use lambda_sim::{AppProfile, Platform, StartMode};
//!
//! let platform = Platform::default();
//! let app = AppProfile::new("resnet", 742.56, 6.30, 5.30, 820.0);
//! let cold = platform.cold_invocation(&app, StartMode::Standard);
//! let warm = platform.warm_invocation(&app);
//! assert!(cold.e2e_secs() > warm.e2e_secs());
//! assert!(cold.cost > warm.cost);
//! ```

#![warn(missing_docs)]

pub mod metrics;
pub mod platform;
pub mod pool;
pub mod pricing;
pub mod providers;
pub mod snapshot;
pub mod trace;

pub use platform::{
    AppProfile, Invocation, PhaseBreakdown, Platform, PlatformConfig, StartKind, StartMode,
};
pub use pool::{simulate_pool_ext_stream_traced, ExtPoolStats, PoolError, PoolEvent, PoolOptions};
pub use pricing::{PricingModel, Rounding, SnapStartPricing};
pub use providers::{min_visible_saving_ms, providers, quote_all, Provider, ProviderQuote};
pub use snapshot::CheckpointModel;
pub use trace::{
    generate_trace, load_trace_csv, nearest_function, parse_trace_csv, render_fleet_metrics_json,
    replay_fleet, replay_trace, synthesize_function, ArrivalClass, DiurnalProfile, FleetReport,
    FleetVariantReport, FunctionReplay, FunctionTrace, ReplayOptions, ReplayReport,
    SyntheticFunction, TraceConfig, TraceError, TraceSet, TraceSource, VariantReport,
};
