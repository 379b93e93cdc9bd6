//! The line-delimited JSON protocol spoken over the `fires serve`
//! socket.
//!
//! One connection carries one request: the client writes a single
//! [`Request`] as a compact JSON object terminated by `\n`, then reads
//! [`Response`] lines until the server closes the connection. Streaming
//! responses (`progress`) arrive as additional lines on the same
//! connection before the terminal `done`/`error` line, so a client
//! never needs to multiplex.
//!
//! Reports travel as opaque strings holding the campaign's *canonical
//! text* (`CampaignReport::canonical_text`), not as re-encoded JSON:
//! byte-identity between a cached and a freshly computed result is the
//! service's core guarantee, and re-encoding would put that at the
//! mercy of the transport.

use fires_obs::Json;

/// Wire form of one `fires submit` invocation.
#[derive(Clone, Debug, PartialEq)]
pub struct SubmitRequest {
    /// Tenant the job is accounted against (admission limits, budget
    /// caps, rejection metrics); the wire accepts `[A-Za-z0-9_.-]+`.
    pub tenant: String,
    /// Suite name (`small`/`table2`); mutually exclusive with
    /// `circuits`.
    pub suite: Option<String>,
    /// Explicit circuit names; mutually exclusive with `suite`.
    pub circuits: Vec<String>,
    /// Frame-budget override applied to every task.
    pub frames: Option<usize>,
    /// Implication-step budget per stem, before the tenant cap.
    pub step_budget: Option<u64>,
    /// Run the Definition-6 validation step.
    pub validate: bool,
    /// Stream progress and the final report on this connection instead
    /// of returning after admission.
    pub wait: bool,
    /// Progress-event interval for `wait` streaming, in milliseconds.
    pub interval_ms: u64,
}

impl Default for SubmitRequest {
    fn default() -> Self {
        SubmitRequest {
            tenant: "default".into(),
            suite: None,
            circuits: Vec::new(),
            frames: None,
            step_budget: None,
            validate: true,
            wait: false,
            interval_ms: 500,
        }
    }
}

/// One client request.
#[derive(Clone, Debug, PartialEq)]
pub enum Request {
    /// Submit a campaign for execution (or a cache lookup).
    Submit(SubmitRequest),
    /// Stream progress of an existing job until it completes.
    Watch {
        /// Job id (16 hex digits, as returned by `accepted`).
        job: String,
        /// Progress-event interval in milliseconds.
        interval_ms: u64,
    },
    /// Fetch server metrics as a `RunReport`-compatible document.
    Status,
    /// Fetch server metrics as a Prometheus text exposition document.
    Metrics,
    /// Dump the flight recorder to `<state-dir>/flight-<ts>.jsonl` and
    /// report the path — the operator's on-demand post-mortem.
    DebugDump,
    /// Liveness probe: a small health document (status, uptime,
    /// watchdog heartbeat age). Answered even while draining.
    Health,
    /// Readiness probe: is the daemon accepting new work right now?
    Ready,
    /// Stop the daemon. With `drain: false` (the default on the wire)
    /// the server exits as soon as the accept loop notices; with
    /// `drain: true` it first stops admission, lets in-flight jobs
    /// checkpoint and flushes subscribers, bounded by the server's
    /// drain timeout.
    Shutdown {
        /// Request a graceful drain instead of an immediate stop.
        drain: bool,
    },
}

/// One server response line.
#[derive(Clone, Debug, PartialEq)]
pub enum Response {
    /// The job was admitted; `job` is its content-addressed id.
    Accepted {
        /// Job id (16 hex digits of the content key).
        job: String,
    },
    /// The result was already cached; `report` is the canonical text.
    Hit {
        /// Job id.
        job: String,
        /// Canonical report text, byte-identical to a cold run's.
        report: String,
    },
    /// A watched or awaited job finished; `report` is the canonical
    /// text.
    Done {
        /// Job id.
        job: String,
        /// Canonical report text.
        report: String,
    },
    /// A `JournalSummary`-shaped progress event (`summary` is its
    /// `to_json` form; `{"waiting": true}` before the journal exists).
    Progress {
        /// Job id.
        job: String,
        /// `JournalSummary::to_json` of the job's journal.
        summary: Json,
        /// Progress frames coalesced away (latest-wins) on this stream
        /// so far; 0 is omitted on the wire, so pre-existing clients
        /// and servers interoperate unchanged.
        coalesced: u64,
    },
    /// Admission control refused the job.
    Rejected {
        /// Human-readable refusal reason.
        reason: String,
    },
    /// The daemon is draining: admission is closed and streams are
    /// being flushed. Distinct from [`Response::Rejected`] so clients
    /// can tell "retry elsewhere/later" (draining is transient — the
    /// daemon is restarting) from a policy refusal.
    Draining {
        /// Human-readable drain notice.
        reason: String,
    },
    /// Server metrics (a `RunReport`-compatible JSON document).
    Status {
        /// The `RunReport` JSON.
        report: Json,
    },
    /// Prometheus text exposition answering [`Request::Metrics`]. The
    /// document travels as an opaque string — exposition format is
    /// line-oriented text, not JSON.
    Metrics {
        /// The full exposition document.
        text: String,
    },
    /// A flight-recorder dump was written, answering
    /// [`Request::DebugDump`].
    Dumped {
        /// Path of the dump file on the server's filesystem.
        path: String,
        /// Events the dump contains.
        events: u64,
    },
    /// Liveness document answering [`Request::Health`].
    Health {
        /// Health JSON: `status` (`"ok"`/`"draining"`),
        /// `uptime_seconds`, `heartbeat_age_ms`, `heartbeat_stale`.
        report: Json,
    },
    /// Readiness verdict answering [`Request::Ready`].
    Ready {
        /// `true` when the daemon is accepting new work.
        ready: bool,
        /// Why not, when `ready` is false (e.g. `"draining"`).
        reason: String,
    },
    /// The request failed.
    Error {
        /// Human-readable failure description.
        message: String,
    },
    /// Acknowledgement with no payload (shutdown).
    Ok,
}

/// Reads an optional `u64` field, failing on a wrong type.
fn opt_u64(j: &Json, key: &str) -> Result<Option<u64>, String> {
    match j.get(key) {
        None => Ok(None),
        Some(v) => v
            .as_u64()
            .map(Some)
            .ok_or_else(|| format!("{key} is not an integer")),
    }
}

fn req_str(j: &Json, key: &str) -> Result<String, String> {
    j.get(key)
        .and_then(Json::as_str)
        .map(str::to_string)
        .ok_or_else(|| format!("missing string field {key:?}"))
}

/// The `tenant` field, restricted to `[A-Za-z0-9_.-]+`. The tenant is
/// spliced into metric names (`serve.rejected.<tenant>`) and label
/// values, so a brace, quote or newline from the wire must never reach
/// the registry or the Prometheus exposition.
fn tenant(j: &Json) -> Result<String, String> {
    let t = req_str(j, "tenant")?;
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    if t.is_empty() || !t.chars().all(ok) {
        return Err(format!("tenant {t:?} must match [A-Za-z0-9_.-]+"));
    }
    Ok(t)
}

impl Request {
    /// Compact single-line JSON form.
    pub fn to_json(&self) -> Json {
        let mut j = Json::object();
        match self {
            Request::Submit(s) => {
                j.set("type", "submit")
                    .set("tenant", s.tenant.clone())
                    .set("validate", s.validate)
                    .set("wait", s.wait)
                    .set("interval_ms", s.interval_ms);
                if let Some(suite) = &s.suite {
                    j.set("suite", suite.clone());
                }
                if !s.circuits.is_empty() {
                    let names: Vec<Json> =
                        s.circuits.iter().map(|c| Json::from(c.clone())).collect();
                    j.set("circuits", Json::Arr(names));
                }
                if let Some(frames) = s.frames {
                    j.set("frames", frames as u64);
                }
                if let Some(steps) = s.step_budget {
                    j.set("step_budget", steps);
                }
            }
            Request::Watch { job, interval_ms } => {
                j.set("type", "watch")
                    .set("job", job.clone())
                    .set("interval_ms", *interval_ms);
            }
            Request::Status => {
                j.set("type", "status");
            }
            Request::Metrics => {
                j.set("type", "metrics");
            }
            Request::DebugDump => {
                j.set("type", "debug-dump");
            }
            Request::Health => {
                j.set("type", "health");
            }
            Request::Ready => {
                j.set("type", "ready");
            }
            Request::Shutdown { drain } => {
                j.set("type", "shutdown");
                if *drain {
                    j.set("drain", true);
                }
            }
        }
        j
    }

    /// Parses one request line.
    pub fn from_json(j: &Json) -> Result<Request, String> {
        match j.get("type").and_then(Json::as_str) {
            Some("submit") => {
                let mut s = SubmitRequest {
                    tenant: tenant(j)?,
                    ..SubmitRequest::default()
                };
                s.suite = j.get("suite").and_then(Json::as_str).map(str::to_string);
                if let Some(arr) = j.get("circuits").and_then(Json::as_arr) {
                    s.circuits = arr
                        .iter()
                        .map(|c| {
                            c.as_str()
                                .map(str::to_string)
                                .ok_or_else(|| "circuits entries must be strings".to_string())
                        })
                        .collect::<Result<_, _>>()?;
                }
                s.frames = opt_u64(j, "frames")?.map(|f| f as usize);
                s.step_budget = opt_u64(j, "step_budget")?;
                if let Some(v) = j.get("validate") {
                    s.validate = v.as_bool().ok_or("validate is not a bool")?;
                }
                if let Some(v) = j.get("wait") {
                    s.wait = v.as_bool().ok_or("wait is not a bool")?;
                }
                if let Some(ms) = opt_u64(j, "interval_ms")? {
                    s.interval_ms = ms;
                }
                Ok(Request::Submit(s))
            }
            Some("watch") => Ok(Request::Watch {
                job: req_str(j, "job")?,
                interval_ms: opt_u64(j, "interval_ms")?.unwrap_or(500),
            }),
            Some("status") => Ok(Request::Status),
            Some("metrics") => Ok(Request::Metrics),
            Some("debug-dump") => Ok(Request::DebugDump),
            Some("health") => Ok(Request::Health),
            Some("ready") => Ok(Request::Ready),
            // `drain` is optional on the wire so pre-drain clients keep
            // working: a bare shutdown stays an immediate stop.
            Some("shutdown") => Ok(Request::Shutdown {
                drain: j
                    .get("drain")
                    .map(|v| v.as_bool().ok_or("drain is not a bool"))
                    .transpose()?
                    .unwrap_or(false),
            }),
            Some(other) => Err(format!("unknown request type {other:?}")),
            None => Err("request has no type".into()),
        }
    }

    /// Parses one request line of text.
    pub fn parse(line: &str) -> Result<Request, String> {
        let j = Json::parse(line).map_err(|e| format!("malformed request: {e}"))?;
        Request::from_json(&j)
    }
}

impl Response {
    /// Compact single-line JSON form.
    pub fn to_json(&self) -> Json {
        let mut j = Json::object();
        match self {
            Response::Accepted { job } => {
                j.set("type", "accepted").set("job", job.clone());
            }
            Response::Hit { job, report } => {
                j.set("type", "hit")
                    .set("job", job.clone())
                    .set("report", report.clone());
            }
            Response::Done { job, report } => {
                j.set("type", "done")
                    .set("job", job.clone())
                    .set("report", report.clone());
            }
            Response::Progress {
                job,
                summary,
                coalesced,
            } => {
                j.set("type", "progress")
                    .set("job", job.clone())
                    .set("summary", summary.clone());
                if *coalesced > 0 {
                    j.set("coalesced", *coalesced);
                }
            }
            Response::Rejected { reason } => {
                j.set("type", "rejected").set("reason", reason.clone());
            }
            Response::Draining { reason } => {
                j.set("type", "draining").set("reason", reason.clone());
            }
            Response::Status { report } => {
                j.set("type", "status").set("report", report.clone());
            }
            Response::Metrics { text } => {
                j.set("type", "metrics").set("text", text.clone());
            }
            Response::Dumped { path, events } => {
                j.set("type", "dumped")
                    .set("path", path.clone())
                    .set("events", *events);
            }
            Response::Health { report } => {
                j.set("type", "health").set("report", report.clone());
            }
            Response::Ready { ready, reason } => {
                j.set("type", "ready").set("ready", *ready);
                if !reason.is_empty() {
                    j.set("reason", reason.clone());
                }
            }
            Response::Error { message } => {
                j.set("type", "error").set("message", message.clone());
            }
            Response::Ok => {
                j.set("type", "ok");
            }
        }
        j
    }

    /// Parses one response line.
    pub fn from_json(j: &Json) -> Result<Response, String> {
        match j.get("type").and_then(Json::as_str) {
            Some("accepted") => Ok(Response::Accepted {
                job: req_str(j, "job")?,
            }),
            Some("hit") => Ok(Response::Hit {
                job: req_str(j, "job")?,
                report: req_str(j, "report")?,
            }),
            Some("done") => Ok(Response::Done {
                job: req_str(j, "job")?,
                report: req_str(j, "report")?,
            }),
            Some("progress") => Ok(Response::Progress {
                job: req_str(j, "job")?,
                summary: j.get("summary").cloned().ok_or("progress has no summary")?,
                coalesced: opt_u64(j, "coalesced")?.unwrap_or(0),
            }),
            Some("rejected") => Ok(Response::Rejected {
                reason: req_str(j, "reason")?,
            }),
            Some("draining") => Ok(Response::Draining {
                reason: req_str(j, "reason")?,
            }),
            Some("status") => Ok(Response::Status {
                report: j.get("report").cloned().ok_or("status has no report")?,
            }),
            Some("metrics") => Ok(Response::Metrics {
                text: req_str(j, "text")?,
            }),
            Some("dumped") => Ok(Response::Dumped {
                path: req_str(j, "path")?,
                events: opt_u64(j, "events")?.unwrap_or(0),
            }),
            Some("health") => Ok(Response::Health {
                report: j.get("report").cloned().ok_or("health has no report")?,
            }),
            Some("ready") => Ok(Response::Ready {
                ready: j
                    .get("ready")
                    .and_then(Json::as_bool)
                    .ok_or("ready has no verdict")?,
                reason: j
                    .get("reason")
                    .and_then(Json::as_str)
                    .unwrap_or("")
                    .to_string(),
            }),
            Some("error") => Ok(Response::Error {
                message: req_str(j, "message")?,
            }),
            Some("ok") => Ok(Response::Ok),
            Some(other) => Err(format!("unknown response type {other:?}")),
            None => Err("response has no type".into()),
        }
    }

    /// Parses one response line of text.
    pub fn parse(line: &str) -> Result<Response, String> {
        let j = Json::parse(line).map_err(|e| format!("malformed response: {e}"))?;
        Response::from_json(&j)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn requests_round_trip() {
        let reqs = vec![
            Request::Submit(SubmitRequest {
                tenant: "ci".into(),
                suite: Some("small".into()),
                wait: true,
                interval_ms: 50,
                ..SubmitRequest::default()
            }),
            Request::Submit(SubmitRequest {
                tenant: "t".into(),
                circuits: vec!["fig3".into(), "s27".into()],
                frames: Some(7),
                step_budget: Some(1000),
                validate: false,
                ..SubmitRequest::default()
            }),
            Request::Watch {
                job: "00ff00ff00ff00ff".into(),
                interval_ms: 250,
            },
            Request::Status,
            Request::Metrics,
            Request::DebugDump,
            Request::Health,
            Request::Ready,
            Request::Shutdown { drain: false },
            Request::Shutdown { drain: true },
        ];
        for r in reqs {
            let line = r.to_json().to_compact();
            assert!(!line.contains('\n'), "{line}");
            assert_eq!(Request::parse(&line).unwrap(), r, "{line}");
        }
    }

    #[test]
    fn responses_round_trip() {
        let mut summary = Json::object();
        summary.set("done", 3u64).set("total", 9u64);
        let resps = vec![
            Response::Accepted { job: "ab".into() },
            Response::Hit {
                job: "ab".into(),
                report: "{\n  \"multi\": \"line\"\n}".into(),
            },
            Response::Done {
                job: "ab".into(),
                report: "text".into(),
            },
            Response::Progress {
                job: "ab".into(),
                summary: summary.clone(),
                coalesced: 0,
            },
            Response::Progress {
                job: "ab".into(),
                summary,
                coalesced: 17,
            },
            Response::Rejected {
                reason: "queue full".into(),
            },
            Response::Metrics {
                text: "# TYPE serve_submissions counter\nserve_submissions 3\n".into(),
            },
            Response::Dumped {
                path: "/state/flight-170.jsonl".into(),
                events: 42,
            },
            Response::Draining {
                reason: "server is draining".into(),
            },
            Response::Health {
                report: {
                    let mut h = Json::object();
                    h.set("status", "ok").set("uptime_seconds", 12u64);
                    h
                },
            },
            Response::Ready {
                ready: true,
                reason: String::new(),
            },
            Response::Ready {
                ready: false,
                reason: "draining".into(),
            },
            Response::Error {
                message: "no such job".into(),
            },
            Response::Ok,
        ];
        for r in resps {
            let line = r.to_json().to_compact();
            assert!(!line.contains('\n'), "embedded newline must be escaped");
            assert_eq!(Response::parse(&line).unwrap(), r);
        }
    }

    #[test]
    fn malformed_lines_are_rejected() {
        assert!(Request::parse("not json").is_err());
        assert!(Request::parse("{\"type\":\"nope\"}").is_err());
        assert!(Request::parse("{}").is_err());
        assert!(Response::parse("{\"type\":\"hit\"}").is_err());
        assert!(Request::parse("{\"type\":\"shutdown\",\"drain\":3}").is_err());
        assert!(Response::parse("{\"type\":\"ready\"}").is_err());
    }

    #[test]
    fn tenants_outside_the_safe_charset_are_rejected() {
        let submit = |tenant: &str| {
            let mut j = Json::object();
            j.set("type", "submit").set("tenant", tenant);
            Request::from_json(&j)
        };
        assert!(submit("acme-1.prod_2").is_ok());
        for bad in ["", "a{b", "x}", "a\"b", "a\nb", "a b", "a=b"] {
            assert!(submit(bad).is_err(), "{bad:?} accepted");
        }
    }

    #[test]
    fn progress_without_coalesced_reads_back_as_zero() {
        // Wire compatibility: a pre-telemetry server's progress line
        // (no `coalesced` field) must parse, and a zero count must not
        // add bytes to every frame.
        let line = "{\"type\":\"progress\",\"job\":\"ab\",\"summary\":{\"done\":1}}";
        match Response::parse(line).unwrap() {
            Response::Progress { coalesced, .. } => assert_eq!(coalesced, 0),
            other => panic!("{other:?}"),
        }
        let zero = Response::Progress {
            job: "ab".into(),
            summary: Json::object(),
            coalesced: 0,
        };
        assert!(!zero.to_json().to_compact().contains("coalesced"));
    }

    #[test]
    fn bare_shutdown_stays_immediate() {
        // Wire compatibility: a pre-drain client's shutdown line must
        // keep meaning "stop now".
        assert_eq!(
            Request::parse("{\"type\":\"shutdown\"}").unwrap(),
            Request::Shutdown { drain: false }
        );
    }
}
