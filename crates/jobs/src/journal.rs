//! The append-only on-disk campaign journal.
//!
//! One JSON document per line (JSONL). The first line is a header
//! carrying the schema version, the campaign spec and, per task, the
//! circuit's structural content hash and stem count — enough for a later
//! process to prove the journal still indexes the same work units. Every
//! following line is one completed work unit:
//!
//! ```json
//! {"kind":"header","schema":5,"spec":{...},"tasks":[{"circuit":"s27","hash":"93ab...","stems":9}]}
//! {"fault_sets":[[0,-1,"03"],[1,0,"0001"]],"frames":5,"kind":"unit","marks":41,"metrics":{...},"phases":[["implication",0.001]],"retries":0,"seconds":0.002,"status":"ok","stem":3,"task":0}
//! {"attempt":0,"detail":"attempt panicked; caches rebuilt","kind":"event","seq":0,"stem":4,"task":0,"what":"unit-retry"}
//! {"fault_sets":[],"frames":0,"kind":"unit","marks":0,"metrics":{...},"phases":[],"retries":1,"seconds":0.001,"status":"panic","stem":4,"task":0}
//! ```
//!
//! `unit` records are **terminal**: one per `(task, stem)`, whatever its
//! outcome. `event` records narrate retries and degradations on the way
//! there — pure observability, ignored by the canonical merge.
//!
//! Units are journaled as **indices** into the task's canonical stem
//! order ([`Fires::stems`](fires_core::Fires::stems)); fault lines are
//! raw [`LineId`] indices. Both are stable across processes for a
//! structurally identical circuit, which the header hashes verify on
//! resume.
//!
//! A unit's faults are journaled as `fault_sets`: one `[c, frame,
//! "<hex>"]` entry per `(c, frame)` group, ascending by `(c, frame)`.
//! The hex string is a bitset over fault ids `line * 2 + stuck`: byte
//! `i` (two lowercase hex digits) holds ids `8i..8i+7`, bit `j` for id
//! `8i + j`. Trailing zero bytes are dropped and empty groups are not
//! written, so every fault set has exactly one spelling. Above, the
//! first group holds ids 0 and 1 (line 0 at both stuck values) and the
//! second holds id 8 (line 4 stuck-at-0). Journals written before
//! schema 5 spell the same sets as a `faults` array of `[line, stuck,
//! c, frame]` quadruples; [`read`] accepts either form on any unit line
//! and returns the faults in canonical `(c, frame, line, stuck)` order.
//!
//! Every append is flushed before the runner considers the unit done, so
//! a crash loses at most the unit being written. A torn final line (the
//! crash landed mid-write: not complete JSON, no trailing newline) is
//! detected and dropped by [`read`] and physically removed by
//! [`Journal::append_to`] before a resume appends anything after it. A
//! line that *does* parse as complete JSON but is not a well-formed unit
//! record is corruption, not a tear — a hard error wherever it sits.

use std::collections::HashSet;
use std::fs::{File, OpenOptions};
use std::io::{BufWriter, Write};
use std::path::Path;

use fires_core::{ExhaustionReason, IdentifiedFault};
use fires_netlist::{Fault, LineId, StuckValue};
use fires_obs::{Json, RuleProfile, RunMetrics};

use crate::error::JobError;
use crate::spec::{CampaignSpec, ResolvedTask};

/// Version of the journal layout. Bump on any change to the record
/// shapes *or* to anything they index into (the canonical stem order,
/// the content-hash recipe).
///
/// Schema 2 added the `exhausted` unit status, the `retries`/`reason`
/// unit fields, `event` records and the spec's `step_budget` override.
/// Schema 3 added periodic `progress` heartbeat records — pure
/// observability, ignored by the canonical merge — so a live `fires
/// watch` can report throughput and worker occupancy without guessing.
/// Schema-2 journals contain a strict subset of the schema-3 record
/// kinds, so [`read`] accepts both (see [`JOURNAL_SCHEMA_MIN`]); note a
/// schema-2 journal *resumed* by this build gains progress records and
/// is no longer readable by schema-2-only builds.
/// Schema 4 added the monotonic `seq` field on `event` records —
/// assigned by the [`Journal`] at append time and continued across
/// resumes — so interleaved retry events from concurrent workers can be
/// totally ordered on replay. Older journals' events read back with
/// `seq` 0 (see [`EventRecord::seq`]); a resumed older journal gains
/// sequenced events from 1 onward.
/// Schema 5 journals each unit's faults as one hex bitset per `(c,
/// frame)` group (`fault_sets`, see the module docs) instead of a
/// `faults` array with one `[line, stuck, c, frame]` quadruple per
/// fault: the same sets in about a tenth of the bytes, rendered and
/// parsed in one linear pass. [`read`] accepts both forms in journals of
/// every readable schema, so a resumed schema-4 journal keeps its header
/// and gains bitset lines — and, as with the schema 2→3 bump, is no
/// longer readable by schema-4-only builds.
pub const JOURNAL_SCHEMA: u64 = 5;

/// Oldest journal schema [`read`] still accepts.
pub const JOURNAL_SCHEMA_MIN: u64 = 2;

/// Per-task identity facts stored in the header.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TaskFingerprint {
    /// Resolved circuit name.
    pub circuit: String,
    /// Structural content hash of the generated circuit.
    pub hash: u64,
    /// Number of fanout stems, i.e. work units, of this task.
    pub stems: usize,
}

/// The journal's first line.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JournalHeader {
    /// The campaign spec, verbatim, so `fires resume <journal>` needs no
    /// other input.
    pub spec: CampaignSpec,
    /// One fingerprint per task, in spec order.
    pub tasks: Vec<TaskFingerprint>,
}

/// How a work unit ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum UnitStatus {
    /// Completed normally; its faults are merged into the report.
    Ok,
    /// The stem's analysis panicked (after exhausting its retries, if
    /// any); recorded and skipped, the campaign carries on.
    Panic,
    /// The stem overran its wall-clock deadline.
    Timeout,
    /// The stem hit a [`Budget`](fires_core::Budget) limit: its partial
    /// fault sets are journaled for observability but are **non-final**
    /// and excluded from the merged redundancy claims.
    Exhausted,
}

impl UnitStatus {
    fn as_str(self) -> &'static str {
        match self {
            UnitStatus::Ok => "ok",
            UnitStatus::Panic => "panic",
            UnitStatus::Timeout => "timeout",
            UnitStatus::Exhausted => "exhausted",
        }
    }

    fn parse(s: &str) -> Option<UnitStatus> {
        match s {
            "ok" => Some(UnitStatus::Ok),
            "panic" => Some(UnitStatus::Panic),
            "timeout" => Some(UnitStatus::Timeout),
            "exhausted" => Some(UnitStatus::Exhausted),
            _ => None,
        }
    }
}

/// One journaled fault: `(line, stuck-at-one, c, frame)`.
pub type UnitFault = (u32, bool, u32, i32);

/// One journaled work unit: a (task, stem) pair and what it produced.
#[derive(Clone, Debug, PartialEq)]
pub struct UnitRecord {
    /// Index into the header's task list.
    pub task: usize,
    /// Index into the task's canonical stem order.
    pub stem: usize,
    /// Outcome.
    pub status: UnitStatus,
    /// Identified faults as `(line, stuck-at-one, c, frame)`. Empty
    /// unless `status` is `Ok` or `Exhausted`; for `Exhausted` units
    /// these are the *partial*, non-final fault sets — kept for
    /// observability, never merged into redundancy claims. Any order
    /// may be appended; [`read`] returns each unit's faults
    /// deduplicated, in canonical `(c, frame, line, stuck)` order.
    pub faults: Vec<UnitFault>,
    /// Uncontrollability marks the stem's two processes derived.
    pub marks: u64,
    /// Frames spanned by the wider process.
    pub frames: u64,
    /// How many failed attempts preceded this terminal record (0 on the
    /// happy path). Excluded from the canonical report: a retried-then-ok
    /// unit must merge identically to a first-try-ok one.
    pub retries: u64,
    /// Which budget limit stopped the unit; `Some` exactly when `status`
    /// is `Exhausted`.
    pub reason: Option<ExhaustionReason>,
    /// Wall-clock seconds this unit took (observability only; excluded
    /// from the canonical report).
    pub seconds: f64,
    /// Per-phase seconds from the stem's [`PhaseClock`] breakdown
    /// (observability only; excluded from the canonical report).
    ///
    /// [`PhaseClock`]: fires_obs::PhaseClock
    pub phases: Vec<(String, f64)>,
    /// Engine metrics the unit recorded (counters, maxima, histograms).
    /// Deterministic per unit but excluded from the canonical report,
    /// which keeps only the result-bearing fields.
    pub metrics: RunMetrics,
    /// Per-rule engine hotspot profile for this unit. `None` for units
    /// that recorded no engine work, and for journals written before the
    /// profiler existed or by the former untraced `fires-core` build;
    /// observability only, excluded from the canonical report.
    pub profile: Option<RuleProfile>,
}

impl UnitRecord {
    /// The journaled faults as core [`IdentifiedFault`]s, attributed to
    /// `stem` (the unit's stem line).
    pub fn identified(&self, stem: LineId) -> Vec<IdentifiedFault> {
        self.faults
            .iter()
            .map(|&(line, stuck_one, c, frame)| IdentifiedFault {
                fault: Fault::new(LineId::new(line as usize), StuckValue::from_bool(stuck_one)),
                c,
                frame,
                stem,
            })
            .collect()
    }
}

fn header_to_json(header: &JournalHeader) -> Json {
    let mut tasks = Vec::with_capacity(header.tasks.len());
    for t in &header.tasks {
        let mut j = Json::object();
        // The hash is journaled as a hex *string*: Json numbers are f64
        // and would silently round u64 values above 2^53.
        j.set("circuit", t.circuit.clone())
            .set("hash", format!("{:016x}", t.hash))
            .set("stems", t.stems as u64);
        tasks.push(j);
    }
    let mut j = Json::object();
    j.set("kind", "header")
        .set("schema", JOURNAL_SCHEMA)
        .set("spec", header.spec.to_json())
        .set("tasks", Json::Arr(tasks));
    j
}

fn header_from_json(j: &Json) -> Result<JournalHeader, JobError> {
    let schema = j
        .get("schema")
        .and_then(Json::as_u64)
        .ok_or_else(|| JobError::journal("header has no schema version"))?;
    if !(JOURNAL_SCHEMA_MIN..=JOURNAL_SCHEMA).contains(&schema) {
        return Err(JobError::journal(format!(
            "journal schema {schema} unsupported (this build reads \
             {JOURNAL_SCHEMA_MIN}..={JOURNAL_SCHEMA})"
        )));
    }
    let spec = CampaignSpec::from_json(
        j.get("spec")
            .ok_or_else(|| JobError::journal("header has no spec"))?,
    )?;
    let tasks = j
        .get("tasks")
        .and_then(Json::as_arr)
        .ok_or_else(|| JobError::journal("header has no task fingerprints"))?
        .iter()
        .map(|t| {
            let circuit = t
                .get("circuit")
                .and_then(Json::as_str)
                .ok_or_else(|| JobError::journal("fingerprint has no circuit"))?
                .to_string();
            let hash = t
                .get("hash")
                .and_then(Json::as_str)
                .and_then(|h| u64::from_str_radix(h, 16).ok())
                .ok_or_else(|| JobError::journal("fingerprint hash is not hex"))?;
            let stems = t
                .get("stems")
                .and_then(Json::as_u64)
                .ok_or_else(|| JobError::journal("fingerprint has no stem count"))?
                as usize;
            Ok(TaskFingerprint {
                circuit,
                hash,
                stems,
            })
        })
        .collect::<Result<Vec<_>, JobError>>()?;
    Ok(JournalHeader { spec, tasks })
}

/// Lowercase hex digits, indexed by nibble.
const HEX_DIGITS: &[u8; 16] = b"0123456789abcdef";

/// Encodes `faults` as schema-5 `fault_sets` (see the module docs) in
/// one pass over the faults: each sets its bit in its group's bitset,
/// and only the few groups are sorted.
fn fault_sets_to_json(faults: &[UnitFault]) -> Json {
    let mut groups: Vec<((u32, i32), Vec<u8>)> = Vec::new();
    let mut at = 0;
    for &(line, stuck, c, frame) in faults {
        let key = (c, frame);
        // Faults arrive grouped, so the previous fault's group is
        // almost always the right one.
        if groups.get(at).map(|g| g.0) != Some(key) {
            at = match groups.iter().position(|g| g.0 == key) {
                Some(i) => i,
                None => {
                    groups.push((key, Vec::new()));
                    groups.len() - 1
                }
            };
        }
        let id = line as usize * 2 + usize::from(stuck);
        let bits = &mut groups[at].1;
        if bits.len() <= id / 8 {
            bits.resize(id / 8 + 1, 0);
        }
        bits[id / 8] |= 1 << (id % 8);
    }
    groups.sort_unstable_by_key(|g| g.0);
    let sets = groups
        .into_iter()
        .map(|((c, frame), bits)| {
            let mut hex = String::with_capacity(bits.len() * 2);
            for b in bits {
                hex.push(char::from(HEX_DIGITS[usize::from(b >> 4)]));
                hex.push(char::from(HEX_DIGITS[usize::from(b & 0xf)]));
            }
            Json::Arr(vec![
                Json::from(c),
                Json::from(i64::from(frame)),
                Json::Str(hex),
            ])
        })
        .collect();
    Json::Arr(sets)
}

/// Decodes schema-5 `fault_sets`, yielding the faults in canonical
/// `(c, frame, line, stuck)` order. Anything but the one canonical
/// spelling — groups out of order or repeated, an empty, odd-length,
/// non-lowercase-hex or zero-padded bitset — is corruption.
fn fault_sets_from_json(sets: &Json) -> Result<Vec<UnitFault>, JobError> {
    let bad = |what: &str| JobError::journal(format!("fault set {what}"));
    let sets = sets
        .as_arr()
        .ok_or_else(|| JobError::journal("unit fault_sets is not an array"))?;
    let mut faults = Vec::new();
    let mut prev: Option<(u32, i32)> = None;
    for set in sets {
        let set = set
            .as_arr()
            .filter(|s| s.len() == 3)
            .ok_or_else(|| bad("is not a [c, frame, hex] triple"))?;
        let c = set[0]
            .as_u64()
            .and_then(|c| u32::try_from(c).ok())
            .ok_or_else(|| bad("c is not a u32"))?;
        let frame = set[1]
            .as_f64()
            .filter(|f| f.fract() == 0.0 && (f64::from(i32::MIN)..=f64::from(i32::MAX)).contains(f))
            .ok_or_else(|| bad("frame is not an i32"))? as i32;
        if prev.is_some_and(|p| p >= (c, frame)) {
            return Err(bad("groups are not in strictly ascending (c, frame) order"));
        }
        prev = Some((c, frame));
        let hex = set[2]
            .as_str()
            .ok_or_else(|| bad("bitset is not a string"))?
            .as_bytes();
        if hex.is_empty() || hex.len() % 2 != 0 || hex.ends_with(b"00") {
            return Err(bad("bitset is empty, odd-length or zero-padded"));
        }
        let nibble = |d: u8| match d {
            b'0'..=b'9' => Ok(d - b'0'),
            b'a'..=b'f' => Ok(d - b'a' + 10),
            _ => Err(bad("bitset is not lowercase hex")),
        };
        for (i, pair) in hex.chunks_exact(2).enumerate() {
            let mut byte = nibble(pair[0])? << 4 | nibble(pair[1])?;
            while byte != 0 {
                let id = i * 8 + byte.trailing_zeros() as usize;
                let line = u32::try_from(id / 2).map_err(|_| bad("line is not a u32"))?;
                faults.push((line, id % 2 == 1, c, frame));
                byte &= byte - 1;
            }
        }
    }
    Ok(faults)
}

/// Decodes a legacy (schema ≤ 4) `faults` array of `[line, stuck, c,
/// frame]` quadruples into the same canonical order as
/// [`fault_sets_from_json`].
fn faults_from_array(faults: &Json) -> Result<Vec<UnitFault>, JobError> {
    let mut faults = faults
        .as_arr()
        .ok_or_else(|| JobError::journal("unit record has no fault array"))?
        .iter()
        .map(|f| {
            let f = f
                .as_arr()
                .filter(|f| f.len() == 4)
                .ok_or_else(|| JobError::journal("fault entry is not a 4-element array"))?;
            let num = |i: usize| {
                f[i].as_f64()
                    .ok_or_else(|| JobError::journal("fault entry is not numeric"))
            };
            Ok((
                num(0)? as u32,
                num(1)? != 0.0,
                num(2)? as u32,
                num(3)? as i32,
            ))
        })
        .collect::<Result<Vec<_>, JobError>>()?;
    faults.sort_unstable_by_key(|&(line, stuck, c, frame)| (c, frame, line, stuck));
    faults.dedup();
    Ok(faults)
}

fn unit_to_json(u: &UnitRecord) -> Json {
    let phases = u
        .phases
        .iter()
        .map(|(name, secs)| Json::Arr(vec![Json::Str(name.clone()), Json::Num(*secs)]))
        .collect();
    let mut j = Json::object();
    j.set("kind", "unit")
        .set("task", u.task as u64)
        .set("stem", u.stem as u64)
        .set("status", u.status.as_str())
        .set("fault_sets", fault_sets_to_json(&u.faults))
        .set("marks", u.marks)
        .set("frames", u.frames)
        .set("retries", u.retries)
        .set("seconds", u.seconds)
        .set("phases", Json::Arr(phases))
        .set("metrics", u.metrics.to_json());
    if let Some(reason) = u.reason {
        j.set("reason", reason.as_str());
    }
    if let Some(profile) = &u.profile {
        j.set("profile", profile.to_json());
    }
    j
}

fn unit_from_json(j: &Json) -> Result<UnitRecord, JobError> {
    let int = |name: &str| {
        j.get(name)
            .and_then(Json::as_u64)
            .ok_or_else(|| JobError::journal(format!("unit record field {name:?} missing")))
    };
    let status = j
        .get("status")
        .and_then(Json::as_str)
        .and_then(UnitStatus::parse)
        .ok_or_else(|| JobError::journal("unit record has no valid status"))?;
    let faults = match (j.get("fault_sets"), j.get("faults")) {
        (Some(sets), None) => fault_sets_from_json(sets)?,
        (None, Some(array)) => faults_from_array(array)?,
        _ => {
            return Err(JobError::journal(
                "unit record must carry exactly one of \"fault_sets\" and \"faults\"",
            ))
        }
    };
    // Observability extras: tolerated when absent (they carry no result
    // data), rejected when present but malformed.
    let phases = match j.get("phases") {
        None => Vec::new(),
        Some(p) => {
            p.as_arr()
                .ok_or_else(|| JobError::journal("unit phases is not an array"))?
                .iter()
                .map(|e| {
                    let e = e.as_arr().filter(|e| e.len() == 2).ok_or_else(|| {
                        JobError::journal("phase entry is not a [name, secs] pair")
                    })?;
                    let name = e[0]
                        .as_str()
                        .ok_or_else(|| JobError::journal("phase name is not a string"))?;
                    let secs = e[1]
                        .as_f64()
                        .ok_or_else(|| JobError::journal("phase seconds is not numeric"))?;
                    Ok((name.to_string(), secs))
                })
                .collect::<Result<Vec<_>, JobError>>()?
        }
    };
    let metrics = match j.get("metrics") {
        None => RunMetrics::default(),
        Some(m) => RunMetrics::from_json(m)
            .ok_or_else(|| JobError::journal("unit metrics are malformed"))?,
    };
    let profile = match j.get("profile") {
        None => None,
        Some(p) => Some(
            RuleProfile::from_json(p)
                .ok_or_else(|| JobError::journal("unit profile is malformed"))?,
        ),
    };
    let reason = match j.get("reason") {
        None => None,
        Some(r) => Some(
            r.as_str()
                .and_then(ExhaustionReason::parse)
                .ok_or_else(|| JobError::journal("unit reason is not a known budget limit"))?,
        ),
    };
    if (status == UnitStatus::Exhausted) != reason.is_some() {
        return Err(JobError::journal(
            "unit reason must be present exactly for exhausted units",
        ));
    }
    Ok(UnitRecord {
        task: int("task")? as usize,
        stem: int("stem")? as usize,
        status,
        faults,
        marks: int("marks")?,
        frames: int("frames")?,
        retries: j.get("retries").and_then(Json::as_u64).unwrap_or(0),
        reason,
        seconds: j.get("seconds").and_then(Json::as_f64).unwrap_or(0.0),
        phases,
        metrics,
        profile,
    })
}

/// A non-terminal journal line narrating a retry or degradation on the
/// way to a unit's terminal record. Pure observability: the canonical
/// merge ignores events entirely.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EventRecord {
    /// Monotonic per-journal sequence number (schema ≥ 4). Assigned by
    /// [`Journal::append_event`] — the value a caller constructs is
    /// overwritten at append time — and continued across resumes, so
    /// events interleaved by concurrent workers are totally ordered on
    /// replay. Events read from older journals carry 0.
    pub seq: u64,
    /// Index into the header's task list.
    pub task: usize,
    /// Index into the task's canonical stem order.
    pub stem: usize,
    /// Zero-based attempt the event happened on.
    pub attempt: u64,
    /// Machine-readable event kind (`unit-retry`, `journal-retry`, ...).
    pub what: String,
    /// Human-readable context.
    pub detail: String,
}

fn event_to_json(e: &EventRecord) -> Json {
    let mut j = Json::object();
    j.set("kind", "event")
        .set("seq", e.seq)
        .set("task", e.task as u64)
        .set("stem", e.stem as u64)
        .set("attempt", e.attempt)
        .set("what", e.what.clone())
        .set("detail", e.detail.clone());
    j
}

fn event_from_json(j: &Json) -> Result<EventRecord, JobError> {
    let int = |name: &str| {
        j.get(name)
            .and_then(Json::as_u64)
            .ok_or_else(|| JobError::journal(format!("event record field {name:?} missing")))
    };
    let text = |name: &str| {
        j.get(name)
            .and_then(Json::as_str)
            .map(str::to_string)
            .ok_or_else(|| JobError::journal(format!("event record field {name:?} missing")))
    };
    Ok(EventRecord {
        // Absent before schema 4; 0 keeps old journals readable.
        seq: j.get("seq").and_then(Json::as_u64).unwrap_or(0),
        task: int("task")? as usize,
        stem: int("stem")? as usize,
        attempt: int("attempt")?,
        what: text("what")?,
        detail: text("detail")?,
    })
}

/// A periodic heartbeat line describing campaign-wide progress at one
/// instant of one process's run. Pure observability — ignored by the
/// canonical merge, consumed by `fires watch`. Counts are cumulative
/// over the whole journal (a resumed process counts the units already
/// journaled before it started), so a watcher can compute throughput
/// and an ETA from any single record plus the header's unit totals.
#[derive(Clone, Debug, PartialEq)]
pub struct ProgressRecord {
    /// Terminal unit records in the journal at heartbeat time.
    pub done: u64,
    /// Units still to run (header total minus `done`).
    pub pending: u64,
    /// Of `done`: completed normally.
    pub ok: u64,
    /// Of `done`: poisoned (panicked out of retries).
    pub panicked: u64,
    /// Of `done`: overran their deadline.
    pub timed_out: u64,
    /// Of `done`: hit a budget limit.
    pub exhausted: u64,
    /// Retry events observed by this process so far.
    pub retried: u64,
    /// Seconds since this process's run started.
    pub elapsed_seconds: f64,
    /// Units completed by this process divided by `elapsed_seconds`.
    pub units_per_second: f64,
    /// Worker threads in the pool.
    pub workers: u64,
    /// Workers executing a unit at heartbeat time (occupancy).
    pub busy: u64,
}

fn progress_to_json(p: &ProgressRecord) -> Json {
    let mut j = Json::object();
    j.set("kind", "progress")
        .set("done", p.done)
        .set("pending", p.pending)
        .set("ok", p.ok)
        .set("panicked", p.panicked)
        .set("timed_out", p.timed_out)
        .set("exhausted", p.exhausted)
        .set("retried", p.retried)
        .set("elapsed_seconds", p.elapsed_seconds)
        .set("units_per_second", p.units_per_second)
        .set("workers", p.workers)
        .set("busy", p.busy);
    j
}

fn progress_from_json(j: &Json) -> Result<ProgressRecord, JobError> {
    let int = |name: &str| {
        j.get(name)
            .and_then(Json::as_u64)
            .ok_or_else(|| JobError::journal(format!("progress record field {name:?} missing")))
    };
    let num = |name: &str| {
        j.get(name)
            .and_then(Json::as_f64)
            .ok_or_else(|| JobError::journal(format!("progress record field {name:?} missing")))
    };
    Ok(ProgressRecord {
        done: int("done")?,
        pending: int("pending")?,
        ok: int("ok")?,
        panicked: int("panicked")?,
        timed_out: int("timed_out")?,
        exhausted: int("exhausted")?,
        retried: int("retried")?,
        elapsed_seconds: num("elapsed_seconds")?,
        units_per_second: num("units_per_second")?,
        workers: int("workers")?,
        busy: int("busy")?,
    })
}

/// An open journal being appended to.
#[derive(Debug)]
pub struct Journal {
    out: BufWriter<File>,
    path: std::path::PathBuf,
    /// Sequence number the next appended event record receives.
    next_event_seq: u64,
}

impl Journal {
    /// Creates a fresh journal at `path`, writing the header line.
    /// Refuses to overwrite an existing file — resume it instead.
    pub fn create(path: &Path, header: &JournalHeader) -> Result<Journal, JobError> {
        let file = OpenOptions::new()
            .write(true)
            .create_new(true)
            .open(path)
            .map_err(|e| JobError::io(path, e))?;
        let mut j = Journal {
            out: BufWriter::new(file),
            path: path.to_path_buf(),
            next_event_seq: 0,
        };
        j.append_line(&header_to_json(header))?;
        Ok(j)
    }

    /// Re-opens an existing journal for appending more unit records.
    ///
    /// A crash mid-append can leave a partial final line with no
    /// trailing newline; appending straight after it would glue the next
    /// record onto the fragment and corrupt the journal for every later
    /// reader. The tail is repaired first: a final line that is complete
    /// JSON merely lost its newline (the kill landed between the record
    /// bytes and the `'\n'`) and gets one; anything else is a torn
    /// fragment and is truncated away — the same line [`read`] drops.
    pub fn append_to(path: &Path) -> Result<Journal, JobError> {
        repair_torn_tail(path)?;
        let next_event_seq = next_event_seq_of(path)?;
        let file = OpenOptions::new()
            .append(true)
            .open(path)
            .map_err(|e| JobError::io(path, e))?;
        Ok(Journal {
            out: BufWriter::new(file),
            path: path.to_path_buf(),
            next_event_seq,
        })
    }

    /// Appends one unit record and flushes it to the OS. After this
    /// returns the unit will survive a process kill.
    pub fn append(&mut self, unit: &UnitRecord) -> Result<(), JobError> {
        self.append_unit_line(&UnitLine::render(unit))
    }

    /// [`append`](Self::append) for a unit record rendered beforehand,
    /// so a journal shared behind a lock is held only for the write and
    /// the flush.
    pub fn append_unit_line(&mut self, line: &UnitLine) -> Result<(), JobError> {
        self.write_line(&line.0)
    }

    /// Appends one observability event record (see [`EventRecord`]),
    /// stamping its `seq` with this journal's next sequence number —
    /// whatever the caller put there is overwritten, so sequence
    /// assignment has exactly one owner. Returns the assigned number.
    pub fn append_event(&mut self, event: &EventRecord) -> Result<u64, JobError> {
        let seq = self.next_event_seq;
        let stamped = EventRecord {
            seq,
            ..event.clone()
        };
        self.append_line(&event_to_json(&stamped))?;
        self.next_event_seq += 1;
        Ok(seq)
    }

    /// Appends one progress heartbeat (see [`ProgressRecord`]).
    pub fn append_progress(&mut self, progress: &ProgressRecord) -> Result<(), JobError> {
        self.append_line(&progress_to_json(progress))
    }

    /// The journal's on-disk path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Recovers from a failed append so the *next* append starts from
    /// clean state: any half-buffered line is discarded unflushed, a
    /// torn on-disk tail is repaired, and the file handle is reopened.
    ///
    /// Safe to combine with a retried append. If the failed append in
    /// fact reached the disk in full, the retry writes a duplicate
    /// record — harmless, because the merge collapses duplicates; if it
    /// reached the disk partially, the torn tail is truncated here
    /// exactly as a crash tail would be on resume.
    pub fn recover(&mut self) -> Result<(), JobError> {
        repair_torn_tail(&self.path)?;
        let file = OpenOptions::new()
            .append(true)
            .open(&self.path)
            .map_err(|e| JobError::io(&self.path, e))?;
        let stale = std::mem::replace(&mut self.out, BufWriter::new(file));
        // `into_parts` hands the buffer back without flushing it — the
        // whole point: the failed line must not leak after the repair.
        let _ = stale.into_parts();
        Ok(())
    }

    fn append_line(&mut self, j: &Json) -> Result<(), JobError> {
        self.write_line(&j.to_compact())
    }

    fn write_line(&mut self, line: &str) -> Result<(), JobError> {
        debug_assert!(!line.contains('\n'), "compact JSON is single-line");
        writeln!(self.out, "{line}").map_err(|e| JobError::io(&self.path, e))?;
        self.out.flush().map_err(|e| JobError::io(&self.path, e))
    }
}

/// A unit record rendered to its journal line (compact JSON, no
/// newline), ready for [`Journal::append_unit_line`].
#[derive(Clone, Debug)]
pub struct UnitLine(String);

impl UnitLine {
    /// Renders `unit` as the line [`Journal::append`] would write.
    pub fn render(unit: &UnitRecord) -> UnitLine {
        UnitLine(unit_to_json(unit).to_compact())
    }
}

/// Truncates a torn final line (see [`Journal::append_to`]) so the file
/// ends exactly at the last intact record's newline, or writes the
/// missing newline when the final line is a complete record that lost
/// only its terminator.
fn repair_torn_tail(path: &Path) -> Result<(), JobError> {
    use std::io::Seek;

    let bytes = std::fs::read(path).map_err(|e| JobError::io(path, e))?;
    if bytes.is_empty() || bytes.ends_with(b"\n") {
        return Ok(());
    }
    let tail_start = bytes.iter().rposition(|&b| b == b'\n').map_or(0, |i| i + 1);
    let intact = std::str::from_utf8(&bytes[tail_start..])
        .ok()
        .is_some_and(|s| Json::parse(s).is_ok());
    let mut file = OpenOptions::new()
        .write(true)
        .open(path)
        .map_err(|e| JobError::io(path, e))?;
    if intact {
        file.seek(std::io::SeekFrom::End(0))
            .and_then(|_| file.write_all(b"\n"))
            .map_err(|e| JobError::io(path, e))?;
    } else {
        file.set_len(tail_start as u64)
            .map_err(|e| JobError::io(path, e))?;
    }
    Ok(())
}

/// The sequence number the next event appended to `path` should carry:
/// one past the largest already journaled, or 0 for an event-free file.
///
/// Called after [`repair_torn_tail`], so every line parses. Lines are
/// pre-filtered on the raw `"kind":"event"` byte string before the JSON
/// parse — inside a JSON string value those quotes would be escaped, so
/// the filter can only over-match (and the parse then disambiguates),
/// never miss an event line our writer produced.
fn next_event_seq_of(path: &Path) -> Result<u64, JobError> {
    let text = std::fs::read_to_string(path).map_err(|e| JobError::io(path, e))?;
    let mut next = 0u64;
    for line in text.lines() {
        if !line.contains("\"kind\":\"event\"") {
            continue;
        }
        let Ok(j) = Json::parse(line) else { continue };
        if j.get("kind").and_then(Json::as_str) != Some("event") {
            continue;
        }
        let seq = j.get("seq").and_then(Json::as_u64).unwrap_or(0);
        next = next.max(seq + 1);
    }
    Ok(next)
}

/// Everything read back from a journal file.
#[derive(Clone, Debug)]
pub struct JournalContents {
    /// The header line.
    pub header: JournalHeader,
    /// Every intact unit record, in append order.
    pub units: Vec<UnitRecord>,
    /// Every intact event record, in append order (observability only).
    pub events: Vec<EventRecord>,
    /// Every intact progress heartbeat, in append order (observability
    /// only; empty for schema-2 journals).
    pub progress: Vec<ProgressRecord>,
    /// `true` when the final line was torn (a crash mid-write) and was
    /// dropped.
    pub torn: bool,
}

impl JournalContents {
    /// The set of already-completed `(task, stem)` units — work a resumed
    /// run must not repeat.
    pub fn done(&self) -> HashSet<(usize, usize)> {
        self.units.iter().map(|u| (u.task, u.stem)).collect()
    }
}

/// Reads a journal back, tolerating a torn final line.
pub fn read(path: &Path) -> Result<JournalContents, JobError> {
    let text = std::fs::read_to_string(path).map_err(|e| JobError::io(path, e))?;
    let mut lines = text.lines().enumerate();
    let (_, first) = lines
        .next()
        .ok_or_else(|| JobError::journal("journal is empty"))?;
    let header = Json::parse(first)
        .map_err(|e| JobError::journal(format!("header line: {e}")))
        .and_then(|j| header_from_json(&j))?;
    let mut units = Vec::new();
    let mut events = Vec::new();
    let mut progress = Vec::new();
    let mut torn = false;
    let last_index = text.lines().count() - 1;
    // A crash mid-append leaves a *prefix* of "record\n": never valid
    // JSON (a truncated object is unclosed) and never newline-terminated.
    // Only such a line, in final position, is torn; a line that parses as
    // complete JSON but is not a well-formed unit record is corruption —
    // a hard error wherever it sits.
    let ends_with_newline = text.ends_with('\n');
    for (i, line) in lines {
        if line.trim().is_empty() {
            continue;
        }
        let j = match Json::parse(line) {
            Ok(j) => j,
            Err(_) if i == last_index && !ends_with_newline => {
                // The process died mid-append; the journal up to here is
                // intact.
                torn = true;
                continue;
            }
            Err(e) => {
                return Err(JobError::journal(format!(
                    "line {}: malformed record before end of journal ({e})",
                    i + 1
                )));
            }
        };
        let at_line = |e: JobError, i: usize| {
            let msg = match e {
                JobError::Journal { message } => message,
                other => other.to_string(),
            };
            JobError::journal(format!("line {}: {msg}", i + 1))
        };
        match j.get("kind").and_then(Json::as_str) {
            Some("unit") => {
                let u = unit_from_json(&j).map_err(|e| at_line(e, i))?;
                if u.task >= header.tasks.len() || u.stem >= header.tasks[u.task].stems {
                    return Err(JobError::journal(format!(
                        "line {}: unit ({}, {}) is out of range for the header",
                        i + 1,
                        u.task,
                        u.stem
                    )));
                }
                units.push(u);
            }
            Some("event") => {
                events.push(event_from_json(&j).map_err(|e| at_line(e, i))?);
            }
            Some("progress") => {
                progress.push(progress_from_json(&j).map_err(|e| at_line(e, i))?);
            }
            _ => {
                return Err(JobError::journal(format!(
                    "line {}: record kind is not \"unit\", \"event\" or \"progress\"",
                    i + 1
                )));
            }
        }
    }
    Ok(JournalContents {
        header,
        units,
        events,
        progress,
        torn,
    })
}

/// Builds the header for a freshly resolved campaign. `stems` must be the
/// per-task canonical stem counts.
pub fn header_for(spec: &CampaignSpec, tasks: &[ResolvedTask], stems: &[usize]) -> JournalHeader {
    JournalHeader {
        spec: spec.clone(),
        tasks: tasks
            .iter()
            .zip(stems)
            .map(|(t, &stems)| TaskFingerprint {
                circuit: t.name.clone(),
                hash: t.hash,
                stems,
            })
            .collect(),
    }
}

/// Checks a journal header against this build's resolution of its spec.
///
/// # Errors
///
/// [`JobError::Mismatch`] when a circuit's content hash or stem count
/// differs — the journal's unit indices would mean different work.
pub fn verify_header(
    header: &JournalHeader,
    tasks: &[ResolvedTask],
    stems: &[usize],
) -> Result<(), JobError> {
    if header.tasks.len() != tasks.len() {
        return Err(JobError::journal(format!(
            "header lists {} tasks but the spec resolves to {}",
            header.tasks.len(),
            tasks.len()
        )));
    }
    for ((fp, task), &n) in header.tasks.iter().zip(tasks).zip(stems) {
        if fp.circuit != task.name {
            return Err(JobError::Mismatch {
                circuit: fp.circuit.clone(),
                message: format!("resolves to {:?} in this build", task.name),
            });
        }
        if fp.hash != task.hash {
            return Err(JobError::Mismatch {
                circuit: fp.circuit.clone(),
                message: format!(
                    "content hash {:016x} != journal's {:016x}",
                    task.hash, fp.hash
                ),
            });
        }
        if fp.stems != n {
            return Err(JobError::Mismatch {
                circuit: fp.circuit.clone(),
                message: format!("{} stems != journal's {}", n, fp.stems),
            });
        }
    }
    Ok(())
}

#[cfg(test)]
mod reference;

#[cfg(test)]
mod tests {
    use super::*;

    pub(super) fn temp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("fires-jobs-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir.join("job.jsonl")
    }

    pub(super) fn sample_header() -> JournalHeader {
        let spec = CampaignSpec::from_circuits("t", ["s27", "fig3"]);
        let tasks = spec.resolve().unwrap();
        header_for(&spec, &tasks, &[9, 2])
    }

    pub(super) fn sample_unit() -> UnitRecord {
        let mut metrics = RunMetrics::default();
        metrics.incr("core.marks_created", 41);
        UnitRecord {
            task: 0,
            stem: 3,
            status: UnitStatus::Ok,
            faults: vec![(12, true, 0, 0), (7, false, 2, -1)],
            marks: 41,
            frames: 5,
            retries: 0,
            reason: None,
            seconds: 0.002,
            phases: vec![("implication".into(), 0.001), ("validation".into(), 0.001)],
            metrics,
            profile: None,
        }
    }

    #[test]
    fn unit_profiles_round_trip_and_reject_malformation() {
        let path = temp("profile");
        let mut profile = RuleProfile::new();
        profile.record(fires_obs::ALL_RULES[0]);
        profile.record_many(fires_obs::ALL_RULES[3], 7);
        profile.note_unattributed();
        let mut j = Journal::create(&path, &sample_header()).unwrap();
        j.append(&UnitRecord {
            profile: Some(profile.clone()),
            ..sample_unit()
        })
        .unwrap();
        j.append(&sample_unit()).unwrap();
        drop(j);
        let back = read(&path).unwrap();
        assert_eq!(back.units[0].profile.as_ref(), Some(&profile));
        assert_eq!(back.units[1].profile, None);
        // Present-but-malformed is corruption, not a tolerated absence.
        // The rewrite keeps the line valid JSON (the old object survives
        // under a junk key) so the failure is the profile check itself.
        let text = std::fs::read_to_string(&path)
            .unwrap()
            .replace("\"profile\":{", "\"profile\":42,\"junk\":{");
        std::fs::write(&path, text).unwrap();
        assert!(matches!(read(&path), Err(JobError::Journal { .. })));
    }

    #[test]
    fn round_trips_header_and_units() {
        let path = temp("round-trip");
        let header = sample_header();
        let mut j = Journal::create(&path, &header).unwrap();
        let unit = sample_unit();
        j.append(&unit).unwrap();
        j.append(&UnitRecord {
            stem: 4,
            status: UnitStatus::Panic,
            faults: vec![],
            ..unit.clone()
        })
        .unwrap();
        drop(j);
        let back = read(&path).unwrap();
        assert_eq!(back.header, header);
        assert_eq!(back.units.len(), 2);
        assert_eq!(back.units[0], unit);
        assert_eq!(back.units[1].status, UnitStatus::Panic);
        assert!(!back.torn);
        assert!(back.done().contains(&(0, 3)));
    }

    #[test]
    fn exhausted_units_and_events_round_trip() {
        let path = temp("exhausted");
        let mut j = Journal::create(&path, &sample_header()).unwrap();
        j.append_event(&EventRecord {
            seq: 0,
            task: 0,
            stem: 5,
            attempt: 0,
            what: "unit-retry".into(),
            detail: "attempt panicked; caches rebuilt".into(),
        })
        .unwrap();
        j.append(&UnitRecord {
            stem: 5,
            status: UnitStatus::Exhausted,
            retries: 1,
            reason: Some(ExhaustionReason::Steps),
            ..sample_unit()
        })
        .unwrap();
        drop(j);
        let back = read(&path).unwrap();
        assert_eq!(back.units.len(), 1);
        assert_eq!(back.units[0].status, UnitStatus::Exhausted);
        assert_eq!(back.units[0].reason, Some(ExhaustionReason::Steps));
        assert_eq!(back.units[0].retries, 1);
        assert_eq!(back.events.len(), 1);
        assert_eq!(back.events[0].what, "unit-retry");
        // Exhausted units still count as done: resume must not re-run them.
        assert!(back.done().contains(&(0, 5)));
    }

    fn sample_progress() -> ProgressRecord {
        ProgressRecord {
            done: 5,
            pending: 6,
            ok: 3,
            panicked: 1,
            timed_out: 0,
            exhausted: 1,
            retried: 2,
            elapsed_seconds: 1.25,
            units_per_second: 4.0,
            workers: 4,
            busy: 3,
        }
    }

    #[test]
    fn progress_records_round_trip() {
        let path = temp("progress");
        let mut j = Journal::create(&path, &sample_header()).unwrap();
        j.append(&sample_unit()).unwrap();
        j.append_progress(&sample_progress()).unwrap();
        j.append(&UnitRecord {
            stem: 4,
            ..sample_unit()
        })
        .unwrap();
        drop(j);
        let back = read(&path).unwrap();
        assert_eq!(back.units.len(), 2);
        assert_eq!(back.progress.len(), 1);
        assert_eq!(back.progress[0], sample_progress());
        // Heartbeats never mark work as done.
        assert!(!back.done().contains(&(0, 5)));
    }

    #[test]
    fn schema_2_journals_stay_readable() {
        // Rewrite the header as a schema-2 build stamped it; the record
        // kinds it wrote are a strict subset of ours.
        let path = temp("schema2");
        let mut j = Journal::create(&path, &sample_header()).unwrap();
        j.append(&sample_unit()).unwrap();
        drop(j);
        let text = std::fs::read_to_string(&path)
            .unwrap()
            .replace(&format!("\"schema\":{JOURNAL_SCHEMA}"), "\"schema\":2");
        assert!(text.contains("\"schema\":2"), "header must carry schema 2");
        std::fs::write(&path, text).unwrap();
        let back = read(&path).unwrap();
        assert_eq!(back.units.len(), 1);
        assert!(back.progress.is_empty());
        // Schema 1 predates the resumable journal and is refused, as is
        // anything newer than this build.
        let newer = format!("\"schema\":{}", JOURNAL_SCHEMA + 1);
        for bogus in ["\"schema\":1", newer.as_str()] {
            let text = std::fs::read_to_string(&path)
                .unwrap()
                .replace("\"schema\":2", bogus);
            std::fs::write(&path, text).unwrap();
            assert!(
                matches!(read(&path), Err(JobError::Journal { .. })),
                "{bogus}"
            );
            let text = std::fs::read_to_string(&path)
                .unwrap()
                .replace(bogus, "\"schema\":2");
            std::fs::write(&path, text).unwrap();
        }
    }

    #[test]
    fn schema_3_events_without_seq_read_back_as_zero() {
        // A schema-3 build journaled events with no seq field; they must
        // stay readable, carrying 0.
        let path = temp("schema3-events");
        let mut j = Journal::create(&path, &sample_header()).unwrap();
        j.append(&sample_unit()).unwrap();
        drop(j);
        let mut text = std::fs::read_to_string(&path)
            .unwrap()
            .replace(&format!("\"schema\":{JOURNAL_SCHEMA}"), "\"schema\":3");
        assert!(text.contains("\"schema\":3"), "header must carry schema 3");
        text.push_str(
            "{\"kind\":\"event\",\"task\":0,\"stem\":5,\"attempt\":0,\
             \"what\":\"unit-retry\",\"detail\":\"old build\"}\n",
        );
        std::fs::write(&path, text).unwrap();
        let back = read(&path).unwrap();
        assert_eq!(back.events.len(), 1);
        assert_eq!(back.events[0].seq, 0);
        assert_eq!(back.events[0].what, "unit-retry");
    }

    #[test]
    fn event_seqs_are_monotonic_and_survive_resume() {
        let path = temp("event-seq");
        let ev = |what: &str| EventRecord {
            // A deliberately wrong caller-side seq: append_event owns
            // sequence assignment and must overwrite it.
            seq: 999,
            task: 0,
            stem: 1,
            attempt: 0,
            what: what.into(),
            detail: String::new(),
        };
        let mut j = Journal::create(&path, &sample_header()).unwrap();
        assert_eq!(j.append_event(&ev("first")).unwrap(), 0);
        assert_eq!(j.append_event(&ev("second")).unwrap(), 1);
        j.append(&sample_unit()).unwrap();
        drop(j);
        // A resume continues the numbering where the file left off.
        let mut j2 = Journal::append_to(&path).unwrap();
        assert_eq!(j2.append_event(&ev("third")).unwrap(), 2);
        drop(j2);
        let back = read(&path).unwrap();
        let seqs: Vec<u64> = back.events.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![0, 1, 2]);
        assert_eq!(back.events[2].what, "third");
    }

    #[test]
    fn reason_must_match_status() {
        let path = temp("reason-mismatch");
        let mut j = Journal::create(&path, &sample_header()).unwrap();
        j.append(&UnitRecord {
            status: UnitStatus::Ok,
            reason: Some(ExhaustionReason::Steps),
            ..sample_unit()
        })
        .unwrap();
        j.append(&sample_unit()).unwrap();
        drop(j);
        assert!(matches!(read(&path), Err(JobError::Journal { .. })));
        let path = temp("reason-missing");
        let mut j = Journal::create(&path, &sample_header()).unwrap();
        j.append(&UnitRecord {
            status: UnitStatus::Exhausted,
            reason: None,
            ..sample_unit()
        })
        .unwrap();
        j.append(&sample_unit()).unwrap();
        drop(j);
        assert!(matches!(read(&path), Err(JobError::Journal { .. })));
    }

    #[test]
    fn recover_repairs_a_torn_tail_and_keeps_appending() {
        let path = temp("recover");
        let mut j = Journal::create(&path, &sample_header()).unwrap();
        j.append(&sample_unit()).unwrap();
        // Simulate a failed append that reached the disk partially.
        {
            let mut f = OpenOptions::new().append(true).open(&path).unwrap();
            f.write_all(b"{\"kind\":\"unit\",\"task\":0,\"ste").unwrap();
        }
        j.recover().unwrap();
        j.append(&UnitRecord {
            stem: 4,
            ..sample_unit()
        })
        .unwrap();
        drop(j);
        let back = read(&path).unwrap();
        assert!(!back.torn);
        assert_eq!(back.units.len(), 2);
        assert!(back.done().contains(&(0, 4)));
    }

    #[test]
    fn create_refuses_to_overwrite() {
        let path = temp("no-overwrite");
        let header = sample_header();
        Journal::create(&path, &header).unwrap();
        assert!(matches!(
            Journal::create(&path, &header),
            Err(JobError::Io { .. })
        ));
    }

    #[test]
    fn torn_final_line_is_dropped() {
        let path = temp("torn");
        let mut j = Journal::create(&path, &sample_header()).unwrap();
        j.append(&sample_unit()).unwrap();
        drop(j);
        // Simulate a crash mid-append: half a record at the end.
        let mut text = std::fs::read_to_string(&path).unwrap();
        text.push_str("{\"kind\":\"unit\",\"task\":0,\"st");
        std::fs::write(&path, text).unwrap();
        let back = read(&path).unwrap();
        assert!(back.torn);
        assert_eq!(back.units.len(), 1);
    }

    #[test]
    fn append_to_truncates_a_torn_tail() {
        let path = temp("torn-append");
        let mut j = Journal::create(&path, &sample_header()).unwrap();
        j.append(&sample_unit()).unwrap();
        drop(j);
        let before = std::fs::read_to_string(&path).unwrap();
        let mut text = before.clone();
        text.push_str("{\"kind\":\"unit\",\"task\":0,\"st");
        std::fs::write(&path, text).unwrap();
        let mut j2 = Journal::append_to(&path).unwrap();
        j2.append(&UnitRecord {
            stem: 4,
            ..sample_unit()
        })
        .unwrap();
        drop(j2);
        // The fragment is gone and the journal is clean end-to-end.
        assert!(std::fs::read_to_string(&path).unwrap().starts_with(&before));
        let back = read(&path).unwrap();
        assert!(!back.torn);
        assert_eq!(back.units.len(), 2);
        assert!(back.done().contains(&(0, 4)));
    }

    #[test]
    fn append_to_completes_a_record_missing_only_its_newline() {
        let path = temp("no-newline");
        let mut j = Journal::create(&path, &sample_header()).unwrap();
        j.append(&sample_unit()).unwrap();
        drop(j);
        // The kill landed between the record bytes and its '\n'.
        let mut text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text.pop(), Some('\n'));
        std::fs::write(&path, text).unwrap();
        let mut j2 = Journal::append_to(&path).unwrap();
        j2.append(&UnitRecord {
            stem: 4,
            ..sample_unit()
        })
        .unwrap();
        drop(j2);
        let back = read(&path).unwrap();
        assert!(!back.torn);
        assert_eq!(back.units.len(), 2);
        assert_eq!(back.units[0], sample_unit());
    }

    #[test]
    fn complete_json_with_bad_record_is_an_error_even_at_the_end() {
        let path = temp("bad-final");
        let mut j = Journal::create(&path, &sample_header()).unwrap();
        j.append(&sample_unit()).unwrap();
        drop(j);
        for bad in ["{\"kind\":\"unit\",\"task\":0}", "{\"kind\":\"noise\"}"] {
            let mut text = std::fs::read_to_string(&path).unwrap();
            let len = text.len();
            text.push_str(bad);
            std::fs::write(&path, &text).unwrap();
            assert!(
                matches!(read(&path), Err(JobError::Journal { .. })),
                "final line {bad:?} must be corruption, not a tear"
            );
            text.truncate(len);
            std::fs::write(&path, &text).unwrap();
        }
    }

    #[test]
    fn mid_file_corruption_is_an_error() {
        let path = temp("corrupt");
        let mut j = Journal::create(&path, &sample_header()).unwrap();
        j.append(&sample_unit()).unwrap();
        drop(j);
        let mut text = std::fs::read_to_string(&path).unwrap();
        text.push_str("garbage\n");
        let mut j2 = Journal::append_to(&path).unwrap();
        std::fs::write(&path, &text).unwrap();
        j2.append(&sample_unit()).unwrap();
        drop(j2);
        assert!(matches!(read(&path), Err(JobError::Journal { .. })));
    }

    #[test]
    fn out_of_range_units_are_rejected() {
        let path = temp("range");
        let mut j = Journal::create(&path, &sample_header()).unwrap();
        j.append(&UnitRecord {
            stem: 999,
            ..sample_unit()
        })
        .unwrap();
        // A second record so the bad one is not excusable as torn.
        j.append(&sample_unit()).unwrap();
        drop(j);
        assert!(matches!(read(&path), Err(JobError::Journal { .. })));
    }

    #[test]
    fn verify_header_catches_drift() {
        let spec = CampaignSpec::from_circuits("t", ["s27"]);
        let tasks = spec.resolve().unwrap();
        let header = header_for(&spec, &tasks, &[9]);
        assert!(verify_header(&header, &tasks, &[9]).is_ok());
        assert!(matches!(
            verify_header(&header, &tasks, &[8]),
            Err(JobError::Mismatch { .. })
        ));
        let mut drifted = tasks.clone();
        drifted[0].hash ^= 1;
        assert!(matches!(
            verify_header(&header, &drifted, &[9]),
            Err(JobError::Mismatch { .. })
        ));
    }

    /// The sample unit's `fault_sets`: (12, true, 0, 0) is id 25, bit 1
    /// of byte 3; (7, false, 2, -1) is id 14, bit 6 of byte 1.
    const SAMPLE_SETS: &str = "\"fault_sets\":[[0,0,\"00000002\"],[2,-1,\"0040\"]]";

    #[test]
    fn fault_sets_spell_each_group_once() {
        let line = UnitLine::render(&sample_unit()).0;
        assert!(line.contains(SAMPLE_SETS), "{line}");
        assert!(!line.contains("\"faults\""), "{line}");
    }

    #[test]
    fn malformed_fault_sets_mid_file_are_errors() {
        let path = temp("bad-sets");
        let mut j = Journal::create(&path, &sample_header()).unwrap();
        j.append(&sample_unit()).unwrap();
        // A second unit after it, so no damage is excusable as a tear.
        j.append(&UnitRecord {
            stem: 4,
            ..sample_unit()
        })
        .unwrap();
        drop(j);
        let good = std::fs::read_to_string(&path).unwrap();
        assert_eq!(read(&path).unwrap().units.len(), 2);
        let first_unit = good.find(SAMPLE_SETS).unwrap();
        for (what, bad) in [
            ("odd-length hex", "\"fault_sets\":[[0,0,\"0000002\"]]"),
            ("a non-hex digit", "\"fault_sets\":[[0,0,\"0g\"]]"),
            ("an uppercase digit", "\"fault_sets\":[[0,0,\"0A\"]]"),
            ("a trailing zero byte", "\"fault_sets\":[[0,0,\"0200\"]]"),
            ("an empty bitset", "\"fault_sets\":[[0,0,\"\"]]"),
            (
                "a repeated group",
                "\"fault_sets\":[[0,0,\"02\"],[0,0,\"04\"]]",
            ),
            (
                "groups out of order",
                "\"fault_sets\":[[2,-1,\"0040\"],[0,0,\"00000002\"]]",
            ),
            ("a non-integer frame", "\"fault_sets\":[[0,0.5,\"02\"]]"),
            ("both fault fields", "\"fault_sets\":[],\"faults\":[]"),
            ("neither fault field", "\"no_faults\":[]"),
        ] {
            let mut text = good.clone();
            text.replace_range(first_unit..first_unit + SAMPLE_SETS.len(), bad);
            std::fs::write(&path, &text).unwrap();
            assert!(
                matches!(read(&path), Err(JobError::Journal { .. })),
                "{what} must be corruption: {bad}"
            );
        }
    }

    #[test]
    fn a_torn_bitset_line_at_the_tail_is_dropped() {
        let path = temp("torn-sets");
        let mut j = Journal::create(&path, &sample_header()).unwrap();
        j.append(&sample_unit()).unwrap();
        drop(j);
        let before = std::fs::read_to_string(&path).unwrap();
        // The kill landed inside the second unit's first bitset.
        let line = UnitLine::render(&UnitRecord {
            stem: 4,
            ..sample_unit()
        })
        .0;
        let cut = line.find("\"00000002").unwrap() + 5;
        std::fs::write(&path, format!("{before}{}", &line[..cut])).unwrap();
        let back = read(&path).unwrap();
        assert!(back.torn);
        assert_eq!(back.units, vec![sample_unit()]);
        // A resume truncates it before appending.
        let mut j2 = Journal::append_to(&path).unwrap();
        j2.append(&UnitRecord {
            stem: 4,
            ..sample_unit()
        })
        .unwrap();
        drop(j2);
        assert!(std::fs::read_to_string(&path).unwrap().starts_with(&before));
        let back = read(&path).unwrap();
        assert!(!back.torn);
        assert_eq!(back.units.len(), 2);
    }

    #[test]
    fn identified_faults_reconstruct() {
        let u = sample_unit();
        let stem = LineId::new(42);
        let ids = u.identified(stem);
        assert_eq!(ids.len(), 2);
        assert_eq!(ids[0].fault.line, LineId::new(12));
        assert!(ids[0].fault.stuck.as_bool());
        assert_eq!(ids[1].frame, -1);
        assert_eq!(ids[1].stem, stem);
    }
}
