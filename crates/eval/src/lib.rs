//! Experiment harness regenerating every table and figure of the paper's
//! evaluation (§5), plus the ablations called out in DESIGN.md.
//!
//! The entry points are the functions in [`experiments`]; each returns a
//! [`Table`] whose rows mirror the series the paper plots. The `repro`
//! binary in `sth-bench` prints them; EXPERIMENTS.md records paper-vs-
//! measured values.
//!
//! Absolute numbers are not expected to match the paper (different data
//! substitutions, hardware, constants) — the *shape* is: who wins, by what
//! rough factor, and how trends move with buckets/dimensionality/training.

#![warn(missing_docs)]

pub mod experiments;
mod loadgen;
mod metrics;
mod registry;
mod runner;
mod serve;
mod spec;
mod table;

pub use loadgen::{render_load_table, run_load_point, sweep_load, LoadGenConfig, LoadPoint};
pub use metrics::{
    average_nae, evaluate_self_tuning, evaluate_static, normalized_absolute_error, EmptyWorkload,
};
pub use registry::{Registry, RouteError, TenantKey};
pub use runner::{run_simulation, sweep, RunConfig, RunOutcome, RunProvenance, Variant};
pub use serve::{
    serve, DurableOutcome, ServeConfig, ServeReport, TenantReport, TenantRuntime, Trainer,
};
// The serving engine and its attribution types moved to `sth-serve`; the
// eval reports keep exposing them under the old paths.
pub use sth_serve::{route_batch, EpochRow, EpochTimeline, ReaderStats, TenantId};
pub use spec::{DatasetSpec, ExperimentCtx, PreparedDataset};
pub use table::Table;

/// The fixed seed ladder behind the freeze-after-training comparisons: one
/// stochastic workload can (rarely) favor the frozen histogram, so tests
/// average over these seeds instead of trusting a single draw.
pub const FREEZE_SEED_LADDER: [u64; 3] = [7, 19, 101];
