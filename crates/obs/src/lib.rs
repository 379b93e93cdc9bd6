//! Observability layer for the FIRES reproduction.
//!
//! The algorithm crates (`fires-core`, `fires-sim`, `fires-atpg`) do the
//! work; this crate makes the work *visible*. It provides four pieces,
//! all dependency-free:
//!
//! * [`RunMetrics`] — a registry of named counters, maxima and
//!   log₂-bucketed histograms, mergeable across threads and runs;
//! * [`PhaseClock`] / [`PhaseTimes`] — wall-clock accounting that splits a
//!   run into named phases while guaranteeing the phase breakdown and the
//!   total can never disagree (both come from the same clock);
//! * a lightweight `tracing`-style facade ([`obs_span!`], [`obs_event!`],
//!   [`set_subscriber`]) that is zero-cost when no subscriber is
//!   installed (one relaxed atomic load);
//! * [`RunReport`] — a schema-versioned, machine-readable JSON report
//!   ([`json::Json`] is a small built-in JSON tree with parser and
//!   printer, used instead of serde because the build environment is
//!   offline).
//!
//! `fires-core` calls this crate directly: it has one build, always
//! instrumented.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::unwrap_used, clippy::expect_used)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

pub mod chrome;
pub mod compare;
pub mod json;
mod metrics;
pub mod names;
mod profile;
mod report;
pub mod series;
mod timer;
mod trace;

pub use chrome::{install_chrome_trace, trace_events_named, ChromeTraceSubscriber, TimedRecord};
pub use compare::{compare_reports, CompareConfig, CompareOutcome, DeltaStatus, MetricDelta};
pub use json::Json;
pub use metrics::{Histogram, RunMetrics};
pub use profile::{ProfileRule, RuleProfile, RuleSteps, StepDist, ALL_RULES};
pub use report::{RunReport, SCHEMA_VERSION};
pub use series::{prom_name, render_prometheus, series};
pub use timer::{PhaseClock, PhaseTimes};
pub use trace::{
    emit_event, set_subscriber, subscriber, tracing_enabled, CollectingSubscriber, FieldValue,
    SpanGuard, Subscriber, TraceRecord,
};
