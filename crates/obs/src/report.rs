//! Schema-versioned, machine-readable run reports.
//!
//! Every bench binary (and any embedding application) can serialize one
//! [`RunReport`] per run. The JSON layout is stable and versioned so perf
//! trajectories (`BENCH_*.json` artifacts) can be compared across
//! commits:
//!
//! ```json
//! {
//!   "schema_version": 4,
//!   "tool": "fires-bench/table2",
//!   "subject": "s838_like",
//!   "total_seconds": 1.234,
//!   "phases": {"implication": 0.9, "validation": 0.3},
//!   "phase_order": ["implication", "validation"],
//!   "metrics": {"counters": {...}, "maxima": {...}, "histograms": {...}},
//!   "extra": { ...free-form experiment payload... },
//!   "profile": { ...optional per-rule hotspot table... }
//! }
//! ```
//!
//! `phases` maps phase name → seconds; `phase_order` preserves execution
//! order (JSON objects here are key-sorted). `extra` carries
//! experiment-specific tables that do not need a cross-run schema.

use std::collections::BTreeMap;

use crate::json::{Json, JsonError};
use crate::metrics::RunMetrics;
use crate::profile::RuleProfile;
use crate::timer::PhaseTimes;

/// Version of the JSON layout written by [`RunReport::to_json`]. Bump on
/// any incompatible change and keep `from_json` accepting old versions
/// where practical.
///
/// Version 2 added the campaign degradation counters
/// (`units_exhausted`, `units_retried`, `retry_events`) to the `extra`
/// payload written by `fires-jobs`. Version 3 added derived quantile
/// summaries (`p50`/`p95`/`p99`) to every serialized [`Histogram`] and
/// the per-stem cost histograms recorded by `fires-core`
/// (`core.stem_*`). Version 4 added the optional engine hotspot
/// `profile` field (a [`RuleProfile`] table) and the deterministic
/// `core.rule.*` per-rule step counters. Every change is additive —
/// quantiles are recomputed from the buckets on read, never parsed, and
/// `profile` is tolerated when absent — so version-1 through version-3
/// documents are still readable and [`RunReport::from_json`] accepts
/// `1..=4`.
///
/// [`Histogram`]: crate::Histogram
pub const SCHEMA_VERSION: u64 = 4;

/// One run's worth of observability output.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RunReport {
    /// Producing tool, conventionally `crate-or-bin[/variant]`.
    pub tool: String,
    /// What was processed (circuit name, suite name, ...).
    pub subject: String,
    /// Total wall-clock seconds of the run.
    pub total_seconds: f64,
    /// Named phase durations in seconds, in execution order.
    pub phases: Vec<(String, f64)>,
    /// Counters, maxima and histograms recorded during the run.
    pub metrics: RunMetrics,
    /// Engine hotspot attribution, when the producing run recorded one
    /// (schema v4; absent in older documents and untraced runs).
    pub profile: Option<RuleProfile>,
    /// Free-form experiment payload (rows of the rendered table etc.).
    pub extra: BTreeMap<String, Json>,
}

impl RunReport {
    /// An empty report for `tool` on `subject`.
    pub fn new(tool: impl Into<String>, subject: impl Into<String>) -> Self {
        RunReport {
            tool: tool.into(),
            subject: subject.into(),
            ..RunReport::default()
        }
    }

    /// Copies a [`PhaseTimes`] breakdown (total + phases) into the report.
    pub fn set_phase_times(&mut self, times: &PhaseTimes) -> &mut Self {
        self.total_seconds = times.total.as_secs_f64();
        self.phases = times
            .phases
            .iter()
            .map(|(n, d)| (n.clone(), d.as_secs_f64()))
            .collect();
        self
    }

    /// Adds one phase duration (kept in insertion order).
    pub fn add_phase(&mut self, name: impl Into<String>, seconds: f64) -> &mut Self {
        self.phases.push((name.into(), seconds));
        self
    }

    /// Stores a free-form payload value under `extra.key`.
    pub fn set_extra(&mut self, key: impl Into<String>, value: impl Into<Json>) -> &mut Self {
        self.extra.insert(key.into(), value.into());
        self
    }

    /// The JSON tree (layout documented at module level).
    pub fn to_json(&self) -> Json {
        let mut phases = Json::object();
        let mut order = Vec::new();
        for (name, secs) in &self.phases {
            phases.set(name.clone(), *secs);
            order.push(Json::Str(name.clone()));
        }
        let mut j = Json::object();
        j.set("schema_version", SCHEMA_VERSION)
            .set("tool", self.tool.clone())
            .set("subject", self.subject.clone())
            .set("total_seconds", self.total_seconds)
            .set("phases", phases)
            .set("phase_order", Json::Arr(order))
            .set("metrics", self.metrics.to_json())
            .set("extra", Json::Obj(self.extra.clone()));
        if let Some(profile) = &self.profile {
            j.set("profile", profile.to_json());
        }
        j
    }

    /// Pretty-printed JSON document.
    pub fn to_json_string(&self) -> String {
        self.to_json().to_pretty()
    }

    /// Parses a report back from its JSON tree.
    pub fn from_json(j: &Json) -> Result<RunReport, JsonError> {
        let field = |name: &str| {
            j.get(name).ok_or_else(|| JsonError {
                message: format!("missing field {name:?}"),
            })
        };
        let version = field("schema_version")?.as_u64().ok_or_else(|| JsonError {
            message: "schema_version is not an integer".into(),
        })?;
        if version == 0 || version > SCHEMA_VERSION {
            return Err(JsonError {
                message: format!(
                    "unsupported schema_version {version} (this build reads 1..={SCHEMA_VERSION})"
                ),
            });
        }
        let phases_obj = field("phases")?.as_obj().ok_or_else(|| JsonError {
            message: "phases is not an object".into(),
        })?;
        let order = field("phase_order")?.as_arr().ok_or_else(|| JsonError {
            message: "phase_order is not an array".into(),
        })?;
        let mut phases = Vec::new();
        for name in order {
            let name = name.as_str().ok_or_else(|| JsonError {
                message: "phase_order entry is not a string".into(),
            })?;
            let secs = phases_obj
                .get(name)
                .and_then(Json::as_f64)
                .ok_or_else(|| JsonError {
                    message: format!("phase {name:?} missing from phases"),
                })?;
            phases.push((name.to_string(), secs));
        }
        let metrics = RunMetrics::from_json(field("metrics")?).ok_or_else(|| JsonError {
            message: "malformed metrics".into(),
        })?;
        // Tolerated when absent (documents up to v3 and untraced runs),
        // rejected when present but malformed.
        let profile = match j.get("profile") {
            None => None,
            Some(p) => Some(RuleProfile::from_json(p).ok_or_else(|| JsonError {
                message: "malformed profile".into(),
            })?),
        };
        Ok(RunReport {
            tool: field("tool")?
                .as_str()
                .ok_or_else(|| JsonError {
                    message: "tool is not a string".into(),
                })?
                .to_string(),
            subject: field("subject")?
                .as_str()
                .ok_or_else(|| JsonError {
                    message: "subject is not a string".into(),
                })?
                .to_string(),
            total_seconds: field("total_seconds")?.as_f64().ok_or_else(|| JsonError {
                message: "total_seconds is not a number".into(),
            })?,
            phases,
            metrics,
            profile,
            extra: field("extra")?
                .as_obj()
                .ok_or_else(|| JsonError {
                    message: "extra is not an object".into(),
                })?
                .clone(),
        })
    }

    /// Parses a report from JSON text.
    pub fn from_json_str(text: &str) -> Result<RunReport, JsonError> {
        RunReport::from_json(&Json::parse(text)?)
    }

    /// Rolls several per-task reports up into one campaign-level report.
    ///
    /// Totals add, phase durations add (first-seen order), metrics merge
    /// (counters add, maxima max, histograms fold). Each child is
    /// summarized — subject, tool, total and its own `extra` payload —
    /// under `extra.tasks`, in the order given, so the campaign report
    /// remains a single self-contained JSON document.
    pub fn aggregate(
        tool: impl Into<String>,
        subject: impl Into<String>,
        children: &[RunReport],
    ) -> RunReport {
        let mut agg = RunReport::new(tool, subject);
        let mut tasks = Vec::with_capacity(children.len());
        for child in children {
            agg.total_seconds += child.total_seconds;
            for (name, secs) in &child.phases {
                match agg.phases.iter_mut().find(|(n, _)| n == name) {
                    Some((_, s)) => *s += secs,
                    None => agg.phases.push((name.clone(), *secs)),
                }
            }
            agg.metrics.merge(&child.metrics);
            if let Some(p) = &child.profile {
                agg.profile.get_or_insert_with(RuleProfile::new).merge(p);
            }
            let mut summary = Json::object();
            summary
                .set("tool", child.tool.clone())
                .set("subject", child.subject.clone())
                .set("total_seconds", child.total_seconds)
                .set("extra", Json::Obj(child.extra.clone()));
            tasks.push(summary);
        }
        agg.set_extra("task_count", children.len() as u64);
        agg.set_extra("tasks", Json::Arr(tasks));
        agg
    }

    /// Writes the pretty JSON document to `path`.
    pub fn write_to_file(&self, path: &std::path::Path) -> std::io::Result<()> {
        std::fs::write(path, self.to_json_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> RunReport {
        let mut r = RunReport::new("fires-bench/test", "s27");
        r.total_seconds = 1.5;
        r.add_phase("implication", 0.9);
        r.add_phase("validation", 0.4);
        r.metrics.incr("core.stems_processed", 3);
        r.metrics.incr("core.marks_created", 120);
        r.metrics.set_max("core.max_frames_used", 5);
        r.metrics.observe("core.blame_set_size", 4);
        r.metrics.observe("core.blame_set_size", 60);
        r.set_extra("note", "unit test");
        r.set_extra("faults", vec![1u64, 2, 3]);
        r
    }

    #[test]
    fn json_round_trip_is_identity() {
        let report = sample();
        let text = report.to_json_string();
        let back = RunReport::from_json_str(&text).unwrap();
        assert_eq!(back, report);
    }

    #[test]
    fn profile_round_trips_and_aggregates() {
        use crate::profile::ProfileRule;
        let mut a = sample();
        let mut pa = RuleProfile::new();
        pa.record_many(ProfileRule::FwdAndBlockedInput, 8);
        a.profile = Some(pa.clone());
        let back = RunReport::from_json_str(&a.to_json_string()).unwrap();
        assert_eq!(back, a);
        // A profile-free child leaves the aggregate's profile equal to
        // the sum of those that have one.
        let b = sample();
        assert!(b.profile.is_none());
        let agg = RunReport::aggregate("t", "s", &[a, b]);
        assert_eq!(agg.profile, Some(pa));
        // Malformed profile is rejected, absent profile tolerated.
        let mut j = sample().to_json();
        j.set("profile", Json::Arr(vec![]));
        assert!(RunReport::from_json(&j).is_err());
    }

    #[test]
    fn schema_version_is_stamped_and_enforced() {
        let report = sample();
        let mut j = report.to_json();
        assert_eq!(
            j.get("schema_version").and_then(Json::as_u64),
            Some(SCHEMA_VERSION)
        );
        j.set("schema_version", 999u64);
        let err = RunReport::from_json(&j).unwrap_err();
        assert!(err.message.contains("schema_version"), "{err}");
        // Older documents stay readable; version 0 never existed.
        j.set("schema_version", 1u64);
        assert!(RunReport::from_json(&j).is_ok());
        j.set("schema_version", 0u64);
        assert!(RunReport::from_json(&j).is_err());
    }

    #[test]
    fn phase_order_survives_sorting() {
        // "validation" sorts before "implication"? No — but "a_late"
        // would sort before "z_early"; the order array must win.
        let mut r = RunReport::new("t", "s");
        r.add_phase("z_first", 1.0);
        r.add_phase("a_second", 2.0);
        let back = RunReport::from_json_str(&r.to_json_string()).unwrap();
        assert_eq!(back.phases[0].0, "z_first");
        assert_eq!(back.phases[1].0, "a_second");
    }

    #[test]
    fn missing_fields_error_cleanly() {
        let j = Json::parse("{\"schema_version\": 1}").unwrap();
        assert!(RunReport::from_json(&j).is_err());
    }

    #[test]
    fn aggregate_sums_and_keeps_child_summaries() {
        let mut a = RunReport::new("fires/table2", "s27");
        a.total_seconds = 1.0;
        a.add_phase("implication", 0.7);
        a.add_phase("validation", 0.3);
        a.metrics.incr("core.marks_created", 10);
        a.metrics.set_max("core.max_frames_used", 4);
        a.set_extra("identified_faults", 2u64);
        let mut b = RunReport::new("fires/table2", "s208_like");
        b.total_seconds = 2.0;
        b.add_phase("implication", 1.5);
        b.add_phase("setup", 0.5);
        b.metrics.incr("core.marks_created", 5);
        b.metrics.set_max("core.max_frames_used", 9);

        let agg = RunReport::aggregate("fires/campaign", "smoke", &[a.clone(), b.clone()]);
        assert_eq!(agg.tool, "fires/campaign");
        assert_eq!(agg.subject, "smoke");
        assert!((agg.total_seconds - 3.0).abs() < 1e-12);
        // Phases add by name, first-seen order preserved.
        assert_eq!(agg.phases[0], ("implication".into(), 2.2));
        assert_eq!(agg.phases[1], ("validation".into(), 0.3));
        assert_eq!(agg.phases[2], ("setup".into(), 0.5));
        assert_eq!(agg.metrics.counter("core.marks_created"), 15);
        assert_eq!(agg.metrics.maximum("core.max_frames_used"), 9);
        assert_eq!(agg.extra.get("task_count").and_then(Json::as_u64), Some(2));
        let tasks = agg.extra.get("tasks").and_then(Json::as_arr).unwrap();
        assert_eq!(tasks.len(), 2);
        assert_eq!(tasks[0].get("subject").and_then(Json::as_str), Some("s27"));
        assert_eq!(
            tasks[0]
                .get("extra")
                .and_then(|e| e.get("identified_faults"))
                .and_then(Json::as_u64),
            Some(2)
        );
        // The aggregate still round-trips through JSON.
        let back = RunReport::from_json_str(&agg.to_json_string()).unwrap();
        assert_eq!(back, agg);
    }

    #[test]
    fn aggregate_of_nothing_is_empty() {
        let agg = RunReport::aggregate("t", "s", &[]);
        assert_eq!(agg.total_seconds, 0.0);
        assert!(agg.phases.is_empty());
        assert!(agg.metrics.is_empty());
        assert_eq!(agg.extra.get("task_count").and_then(Json::as_u64), Some(0));
    }

    #[test]
    fn file_round_trip() {
        let report = sample();
        let dir = std::env::temp_dir();
        let path = dir.join("fires_obs_report_test.json");
        report.write_to_file(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(RunReport::from_json_str(&text).unwrap(), report);
        let _ = std::fs::remove_file(&path);
    }
}
