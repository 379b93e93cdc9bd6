//! End-to-end request tracing for the serve daemon.
//!
//! Every submission is minted a *trace id* — the job's content key
//! folded with a per-connection nonce, so two submissions of the same
//! campaign get distinct ids that still reveal their shared job — and
//! the job's whole lifecycle is recorded as one connected Chrome-trace
//! lane: an `accept` span (from `accept` returning to admission: the
//! request line's read and parse), a `submit` span (admission), a
//! `queue_wait` span (enqueue to worker claim), an `engine` span
//! (execution, with one instant per completed unit and per journal
//! append), and a `merge` span (the deterministic report merge). Cache
//! hits and single-flight attaches appear as instants, so a request
//! that never ran still renders; a cache hit's file carries its own
//! `accept` and `submit` spans.
//!
//! When a job reaches a terminal phase the store writes one
//! `<traces>/<trace_id>.trace.json` per attached request — the
//! [`fires_obs::trace_events_named`] document with the request lane
//! labelled by its trace id — and drops the in-memory records. A store
//! with no attached requests records nothing beyond a map lookup, so
//! tracing is ~zero-cost for an idle daemon, and nothing here ever
//! touches journals or canonical reports.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::Instant;

use fires_core::ContentHasher;
use fires_obs::{trace_events_named, FieldValue, TimedRecord, TraceRecord};

/// Domain tag of the trace id ("trc" in ASCII), so trace ids can never
/// collide with job keys or task hashes.
const DOMAIN_TRACE: u64 = 0x74_72_63;

/// Schema tag stamped on every written trace document.
pub const TRACE_SCHEMA: u64 = 1;

/// One request attached to a job's execution.
#[derive(Clone, Debug)]
struct AttachedRequest {
    trace_id: u64,
    tenant: String,
}

/// The in-flight trace of one job: its record stream plus every
/// request that attached to it (the submitter, then any single-flight
/// duplicates).
#[derive(Debug, Default)]
struct JobTrace {
    records: Vec<TimedRecord>,
    requests: Vec<AttachedRequest>,
    /// Names of `B` spans not yet closed, so a job that ends mid-span
    /// (checkpointed by a drain) still renders balanced.
    open: Vec<&'static str>,
}

/// Collects per-job trace records and writes per-request trace files.
#[derive(Debug)]
pub struct TraceStore {
    origin: Instant,
    nonce: AtomicU64,
    jobs: Mutex<HashMap<u64, JobTrace>>,
}

impl Default for TraceStore {
    fn default() -> Self {
        Self::new()
    }
}

impl TraceStore {
    /// An empty store; timestamps count from this moment.
    pub fn new() -> TraceStore {
        TraceStore {
            origin: Instant::now(),
            nonce: AtomicU64::new(0),
            jobs: Mutex::new(HashMap::new()),
        }
    }

    fn lock(&self) -> MutexGuard<'_, HashMap<u64, JobTrace>> {
        self.jobs.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Microseconds since the store was created.
    pub fn now_us(&self) -> u64 {
        self.origin.elapsed().as_micros() as u64
    }

    /// Mints the trace id of one submission: the job key folded with a
    /// store-unique nonce under its own domain tag.
    pub fn mint(&self, key: u64) -> u64 {
        let mut h = ContentHasher::new(DOMAIN_TRACE);
        h.write_u64(key)
            .write_u64(self.nonce.fetch_add(1, Ordering::Relaxed));
        h.finish()
    }

    /// `true` when at least one request is attached to `key` — the
    /// observer's cheap gate before building instant fields.
    pub fn tracing(&self, key: u64) -> bool {
        self.lock().contains_key(&key)
    }

    /// Attaches a request to job `key` (creating its trace on first
    /// attach) and records a `request` instant carrying the trace id
    /// and tenant.
    pub fn attach(&self, key: u64, trace_id: u64, tenant: &str) {
        let ts_us = self.now_us();
        let mut jobs = self.lock();
        let job = jobs.entry(key).or_default();
        job.requests.push(AttachedRequest {
            trace_id,
            tenant: tenant.to_string(),
        });
        job.records.push(TimedRecord {
            ts_us,
            lane: 0,
            record: TraceRecord::Event {
                name: "request",
                fields: vec![
                    ("trace", FieldValue::Str(format!("{trace_id:016x}"))),
                    ("tenant", FieldValue::Str(tenant.to_string())),
                ],
            },
        });
    }

    fn push(&self, key: u64, ts_us: u64, record: TraceRecord) {
        let mut jobs = self.lock();
        let Some(job) = jobs.get_mut(&key) else {
            return;
        };
        match &record {
            TraceRecord::SpanEnter { name, .. } => job.open.push(*name),
            TraceRecord::SpanExit { name, .. } => {
                if job.open.last() == Some(name) {
                    job.open.pop();
                }
            }
            TraceRecord::Event { .. } => {}
        }
        job.records.push(TimedRecord {
            ts_us,
            lane: 0,
            record,
        });
    }

    /// Records the admission chain of a fresh job: an `accept` span
    /// from `accepted_us` (the connection was accepted) to
    /// `submit_ts_us` (admission began), a `submit` span from there to
    /// now, then the opening of the `queue_wait` span. No-op unless a
    /// request is attached.
    pub fn submitted(&self, key: u64, accepted_us: u64, submit_ts_us: u64, job_id: &str) {
        let now = self.now_us();
        for r in accept_span(accepted_us, submit_ts_us) {
            self.push(key, r.ts_us, r.record);
        }
        self.push(
            key,
            submit_ts_us,
            TraceRecord::SpanEnter {
                name: "submit",
                fields: vec![("job", FieldValue::Str(job_id.to_string()))],
            },
        );
        self.push(
            key,
            now,
            TraceRecord::SpanExit {
                name: "submit",
                elapsed: std::time::Duration::from_micros(now.saturating_sub(submit_ts_us)),
            },
        );
        self.push(
            key,
            now,
            TraceRecord::SpanEnter {
                name: "queue_wait",
                fields: Vec::new(),
            },
        );
    }

    /// A worker claimed the job: `queue_wait` closes, `engine` opens.
    pub fn claimed(&self, key: u64) {
        let now = self.now_us();
        self.push(
            key,
            now,
            TraceRecord::SpanExit {
                name: "queue_wait",
                elapsed: std::time::Duration::ZERO,
            },
        );
        self.push(
            key,
            now,
            TraceRecord::SpanEnter {
                name: "engine",
                fields: Vec::new(),
            },
        );
    }

    /// The engine finished (complete or checkpointed): `engine` closes.
    pub fn engine_done(&self, key: u64) {
        let now = self.now_us();
        self.push(
            key,
            now,
            TraceRecord::SpanExit {
                name: "engine",
                elapsed: std::time::Duration::ZERO,
            },
        );
    }

    /// The deterministic merge starts.
    pub fn merge_begin(&self, key: u64) {
        let now = self.now_us();
        self.push(
            key,
            now,
            TraceRecord::SpanEnter {
                name: "merge",
                fields: Vec::new(),
            },
        );
    }

    /// The deterministic merge finished.
    pub fn merge_end(&self, key: u64) {
        let now = self.now_us();
        self.push(
            key,
            now,
            TraceRecord::SpanExit {
                name: "merge",
                elapsed: std::time::Duration::ZERO,
            },
        );
    }

    /// Records a point event (per-unit completion, journal append,
    /// dedup attach, …) on the request lane. No-op unless a request is
    /// attached.
    pub fn instant(&self, key: u64, name: &'static str, fields: Vec<(&'static str, FieldValue)>) {
        let now = self.now_us();
        self.push(key, now, TraceRecord::Event { name, fields });
    }

    /// Finishes job `key`: closes any still-open spans (a drained job
    /// checkpoints mid-`engine`), writes one trace file per attached
    /// request under `dir` and drops the in-memory trace. Returns the
    /// written paths; IO failures skip that file — tracing must never
    /// take down the worker that finished the job.
    pub fn finish(&self, key: u64, dir: &Path) -> Vec<PathBuf> {
        let job = {
            let mut jobs = self.lock();
            match jobs.remove(&key) {
                Some(j) => j,
                None => return Vec::new(),
            }
        };
        let mut records = job.records;
        let close_ts = self.now_us();
        for &name in job.open.iter().rev() {
            records.push(TimedRecord {
                ts_us: close_ts,
                lane: 0,
                record: TraceRecord::SpanExit {
                    name,
                    elapsed: std::time::Duration::ZERO,
                },
            });
        }
        if job.requests.is_empty() || std::fs::create_dir_all(dir).is_err() {
            return Vec::new();
        }
        let mut written = Vec::new();
        for req in &job.requests {
            let label = format!("request {:016x}", req.trace_id);
            let mut doc = trace_events_named(&records, &[(0, &label)]);
            doc.set("schema", TRACE_SCHEMA)
                .set("trace_id", format!("{:016x}", req.trace_id))
                .set("job", format!("{key:016x}"))
                .set("tenant", req.tenant.clone());
            let path = dir.join(format!("{:016x}.trace.json", req.trace_id));
            if std::fs::write(&path, doc.to_pretty()).is_ok() {
                written.push(path);
            }
        }
        written
    }

    /// Writes the short-circuit trace of a cache hit: an `accept` span,
    /// then a `submit` span holding a `cache_hit` instant, in its own
    /// file. A hit never touches a `JobTrace` — the job is long done.
    pub fn write_cache_hit(
        &self,
        dir: &Path,
        trace_id: u64,
        tenant: &str,
        key: u64,
        accepted_us: u64,
        submit_ts_us: u64,
    ) -> Option<PathBuf> {
        let now = self.now_us();
        let mut records = accept_span(accepted_us, submit_ts_us).to_vec();
        records.extend([
            TimedRecord {
                ts_us: submit_ts_us,
                lane: 0,
                record: TraceRecord::SpanEnter {
                    name: "submit",
                    fields: vec![("job", FieldValue::Str(format!("{key:016x}")))],
                },
            },
            TimedRecord {
                ts_us: now,
                lane: 0,
                record: TraceRecord::Event {
                    name: "cache_hit",
                    fields: vec![("tenant", FieldValue::Str(tenant.to_string()))],
                },
            },
            TimedRecord {
                ts_us: now,
                lane: 0,
                record: TraceRecord::SpanExit {
                    name: "submit",
                    elapsed: std::time::Duration::from_micros(now.saturating_sub(submit_ts_us)),
                },
            },
        ]);
        std::fs::create_dir_all(dir).ok()?;
        let label = format!("request {trace_id:016x}");
        let mut doc = trace_events_named(&records, &[(0, &label)]);
        doc.set("schema", TRACE_SCHEMA)
            .set("trace_id", format!("{trace_id:016x}"))
            .set("job", format!("{key:016x}"))
            .set("tenant", tenant.to_string());
        let path = dir.join(format!("{trace_id:016x}.trace.json"));
        std::fs::write(&path, doc.to_pretty()).ok()?;
        Some(path)
    }

    /// Jobs currently holding in-memory traces.
    pub fn pending(&self) -> usize {
        self.lock().len()
    }
}

/// The `accept` span of one request: from the instant `accept`
/// returned to the start of admission.
fn accept_span(accepted_us: u64, submit_ts_us: u64) -> [TimedRecord; 2] {
    [
        TimedRecord {
            ts_us: accepted_us,
            lane: 0,
            record: TraceRecord::SpanEnter {
                name: "accept",
                fields: Vec::new(),
            },
        },
        TimedRecord {
            ts_us: submit_ts_us,
            lane: 0,
            record: TraceRecord::SpanExit {
                name: "accept",
                elapsed: std::time::Duration::from_micros(submit_ts_us.saturating_sub(accepted_us)),
            },
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use fires_obs::Json;

    fn temp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("fires-trace-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn phases(doc: &Json) -> Vec<(String, String)> {
        doc.get("traceEvents")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .filter(|e| e.get("ph").and_then(Json::as_str) != Some("M"))
            .map(|e| {
                (
                    e.get("name").and_then(Json::as_str).unwrap().to_string(),
                    e.get("ph").and_then(Json::as_str).unwrap().to_string(),
                )
            })
            .collect()
    }

    #[test]
    fn trace_ids_are_unique_per_mint_and_depend_on_the_key() {
        let store = TraceStore::new();
        let a = store.mint(7);
        let b = store.mint(7);
        let c = store.mint(8);
        assert_ne!(a, b, "same key, distinct nonces");
        assert_ne!(a, c);
        assert_ne!(b, c);
    }

    #[test]
    fn full_lifecycle_renders_one_connected_lane() {
        let dir = temp("lifecycle");
        let store = TraceStore::new();
        let key = 0xabcd;
        let id = store.mint(key);
        assert!(!store.tracing(key));
        let t0 = store.now_us();
        store.attach(key, id, "ci");
        assert!(store.tracing(key));
        store.submitted(key, t0, store.now_us(), "000000000000abcd");
        store.claimed(key);
        store.instant(key, "unit", vec![("stem", FieldValue::U64(3))]);
        store.engine_done(key);
        store.merge_begin(key);
        store.merge_end(key);
        let written = store.finish(key, &dir);
        assert_eq!(written.len(), 1);
        assert!(!store.tracing(key), "finish drops the in-memory trace");

        let doc = Json::parse(&std::fs::read_to_string(&written[0]).unwrap()).unwrap();
        assert_eq!(doc.get("schema").and_then(Json::as_u64), Some(TRACE_SCHEMA));
        assert_eq!(
            doc.get("trace_id").and_then(Json::as_str),
            Some(format!("{id:016x}").as_str())
        );
        assert_eq!(
            doc.get("job").and_then(Json::as_str),
            Some("000000000000abcd")
        );
        // The lane is named by the trace id.
        let events = doc.get("traceEvents").and_then(Json::as_arr).unwrap();
        let meta = &events[0];
        assert_eq!(
            meta.get("args")
                .and_then(|a| a.get("name"))
                .and_then(Json::as_str),
            Some(format!("request {id:016x}").as_str())
        );
        // The chain is connected: accept → submit → queue_wait → engine
        // (with the unit instant inside) → merge, B/E balanced on one
        // lane.
        let seq = phases(&doc);
        let expect: Vec<(String, String)> = [
            ("request", "i"),
            ("accept", "B"),
            ("accept", "E"),
            ("submit", "B"),
            ("submit", "E"),
            ("queue_wait", "B"),
            ("queue_wait", "E"),
            ("engine", "B"),
            ("unit", "i"),
            ("engine", "E"),
            ("merge", "B"),
            ("merge", "E"),
        ]
        .iter()
        .map(|(n, p)| (n.to_string(), p.to_string()))
        .collect();
        assert_eq!(seq, expect);
        let mut depth = 0i64;
        for (_, ph) in &seq {
            match ph.as_str() {
                "B" => depth += 1,
                "E" => {
                    depth -= 1;
                    assert!(depth >= 0);
                }
                _ => {}
            }
        }
        assert_eq!(depth, 0, "spans balance");
    }

    #[test]
    fn records_without_an_attached_request_are_dropped() {
        let store = TraceStore::new();
        // No attach: every record call is a cheap no-op.
        store.submitted(9, 0, 0, "job");
        store.claimed(9);
        store.instant(9, "unit", Vec::new());
        assert_eq!(store.pending(), 0);
        let dir = temp("unattached");
        assert!(store.finish(9, &dir).is_empty());
        assert!(!dir.exists(), "no files written for unattached jobs");
    }

    #[test]
    fn deduped_requests_each_get_their_own_trace_file() {
        let dir = temp("dedup");
        let store = TraceStore::new();
        let key = 5;
        let t0 = store.now_us();
        let first = store.mint(key);
        store.attach(key, first, "a");
        store.submitted(key, t0, t0, "job");
        let second = store.mint(key);
        store.attach(key, second, "b");
        store.instant(key, "deduped", Vec::new());
        store.claimed(key);
        store.engine_done(key);
        let written = store.finish(key, &dir);
        assert_eq!(written.len(), 2);
        for (path, id) in written.iter().zip([first, second]) {
            let doc = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
            assert_eq!(
                doc.get("trace_id").and_then(Json::as_str),
                Some(format!("{id:016x}").as_str())
            );
        }
    }

    #[test]
    fn open_spans_are_closed_on_finish() {
        // A drain checkpoints a job mid-engine: the written trace must
        // still balance.
        let dir = temp("drain");
        let store = TraceStore::new();
        let key = 11;
        let id = store.mint(key);
        store.attach(key, id, "t");
        let t0 = store.now_us();
        store.submitted(key, t0, t0, "job");
        store.claimed(key); // engine left open
        let written = store.finish(key, &dir);
        assert_eq!(written.len(), 1);
        let doc = Json::parse(&std::fs::read_to_string(&written[0]).unwrap()).unwrap();
        let mut depth = 0i64;
        for (_, ph) in phases(&doc) {
            match ph.as_str() {
                "B" => depth += 1,
                "E" => depth -= 1,
                _ => {}
            }
        }
        assert_eq!(depth, 0);
    }

    #[test]
    fn cache_hits_write_a_short_circuit_trace() {
        let dir = temp("hit");
        let store = TraceStore::new();
        let id = store.mint(3);
        let accepted = store.now_us();
        let path = store
            .write_cache_hit(&dir, id, "acme", 3, accepted, store.now_us())
            .unwrap();
        let doc = Json::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
        let seq = phases(&doc);
        let names: Vec<&str> = seq.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(
            names,
            vec!["accept", "accept", "submit", "cache_hit", "submit"]
        );
        assert_eq!(doc.get("tenant").and_then(Json::as_str), Some("acme"));
        assert_eq!(store.pending(), 0);
    }
}
