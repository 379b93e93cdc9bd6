//! `serve-hot` and `serve-cold`: an in-process `fires serve` daemon
//! driven through the public client path (connect, send, read,
//! `Response::parse`) by at most two client threads with one
//! connection each.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Barrier, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use fires_jobs::runner::{run_with_tasks, RunnerConfig};
use fires_jobs::{journal, report_with_tasks, CampaignSpec};
use fires_obs::{Json, RunReport};
use fires_serve::{job_key, run_server, Request, Response, ServeConfig, SubmitRequest};

use crate::common::{self, Args, Outcome, Rng, RunDir};
use crate::layers;
use crate::spans::Tracer;
use crate::stats::{self, StageResult};

/// One serve job: suite circuits with overrides.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ServeKey {
    /// Suite circuit names, one task each.
    pub circuits: Vec<&'static str>,
    /// Frame-budget override; `None` keeps the suite's budget.
    pub frames: Option<usize>,
    /// Run Definition-6 validation.
    pub validate: bool,
}

impl ServeKey {
    fn new(circuits: &[&'static str], frames: Option<usize>, validate: bool) -> ServeKey {
        ServeKey {
            circuits: circuits.to_vec(),
            frames,
            validate,
        }
    }

    /// The spec the daemon normalizes this submission to, before it is
    /// named by its content key.
    fn spec(&self) -> CampaignSpec {
        let mut spec = CampaignSpec::from_circuits("job", self.circuits.iter().copied());
        for t in &mut spec.tasks {
            t.frames = self.frames;
            t.validate = self.validate;
        }
        spec
    }

    /// Digest-table label.
    pub fn label(&self) -> String {
        let frames = self.frames.map_or("d".to_string(), |f| f.to_string());
        format!(
            "serve/{}/f{frames}/v{}",
            self.circuits.join("+"),
            u8::from(self.validate)
        )
    }

    fn submit(&self, wait: bool) -> Request {
        Request::Submit(SubmitRequest {
            tenant: "bench".into(),
            circuits: self.circuits.iter().map(|c| c.to_string()).collect(),
            frames: self.frames,
            validate: self.validate,
            wait,
            interval_ms: 5_000,
            ..SubmitRequest::default()
        })
    }

    /// The canonical report the daemon must return for this key,
    /// computed directly: the daemon's own normalization (spec named by
    /// its content key) run through `fires-jobs`.
    pub fn direct_text(&self, dir: &Path) -> Result<String, String> {
        let mut spec = self.spec();
        let tasks = spec.resolve().map_err(|e| e.to_string())?;
        let key = job_key(&tasks);
        spec.name = format!("{key:016x}");
        let path = dir.join(format!("{key:016x}.jsonl"));
        let rc = RunnerConfig {
            threads: common::load_width(),
            ..RunnerConfig::default()
        };
        run_with_tasks(&spec, &tasks, &path, &rc).map_err(|e| e.to_string())?;
        let report = report_with_tasks(&path, &tasks).map_err(|e| e.to_string())?;
        let _ = std::fs::remove_file(&path);
        Ok(report.canonical_text())
    }
}

/// Circuits of the `serve-hot` working set: small-suite circuits up to
/// `s1423_like`, one job each at the suite's own frame budget.
const HOT_CIRCUITS: [&str; 6] = [
    "s27",
    "s208_like",
    "s349_like",
    "s386_like",
    "s1238_like",
    "s1423_like",
];

/// The `serve-hot` working set.
pub fn hot_set() -> Vec<ServeKey> {
    HOT_CIRCUITS
        .iter()
        .map(|c| ServeKey::new(&[c], None, true))
        .collect()
}

/// The job that warms a `serve-cold` daemon (not in the universe).
pub fn cold_warm() -> ServeKey {
    ServeKey::new(&["s27"], Some(3), false)
}

/// Small and mid-size circuits the `serve-cold` jobs pair up.
const COLD_CIRCUITS: [&str; 8] = [
    "s208_like",
    "s349_like",
    "s386_like",
    "s400_like",
    "s420_like",
    "s444_like",
    "s838_like",
    "s1238_like",
];

/// Frame overrides of the `serve-cold` universe.
const COLD_FRAMES: [usize; 3] = [2, 4, 6];

/// Every `(frames, validate)` option of a `serve-cold` job.
fn cold_options() -> Vec<(usize, bool)> {
    COLD_FRAMES
        .iter()
        .flat_map(|&f| [(f, true), (f, false)])
        .collect()
}

/// Every unordered pair of `serve-cold` circuits.
fn cold_pairs() -> Vec<[&'static str; 2]> {
    let mut v = Vec::new();
    for (i, a) in COLD_CIRCUITS.iter().enumerate() {
        for b in &COLD_CIRCUITS[i + 1..] {
            v.push([*a, *b]);
        }
    }
    v
}

/// Every distinct `serve-cold` key: circuit pairs × frames × validate.
pub fn cold_universe() -> Vec<ServeKey> {
    let mut v = Vec::new();
    for pair in cold_pairs() {
        for (frames, validate) in cold_options() {
            v.push(ServeKey::new(&pair, Some(frames), validate));
        }
    }
    v
}

/// Every key with a pinned digest.
pub fn all_keys() -> Vec<ServeKey> {
    let mut v = hot_set();
    v.push(cold_warm());
    v.extend(cold_universe());
    v
}

/// An in-process daemon on a fresh state directory.
struct Daemon {
    dir: RunDir,
    socket: PathBuf,
    handle: Option<JoinHandle<Result<(), String>>>,
    /// Submissions this benchmark sent to it.
    submits: usize,
    /// Trace files the warm-up left, which the timed phase's read-back
    /// skips.
    warm_traces: HashSet<PathBuf>,
}

impl Daemon {
    /// Starts a daemon and waits until it answers `ready`.
    fn start(tag: &str, cache_bytes: Option<usize>) -> Result<Daemon, String> {
        let dir = RunDir::new(tag)?;
        let socket = dir.path().join("s.sock");
        let mut cfg = ServeConfig::new(&socket, dir.path().join("state"));
        if let Some(b) = cache_bytes {
            cfg.cache_bytes = b;
        }
        let handle = std::thread::Builder::new()
            .name("perfbench-daemon".into())
            .spawn(move || run_server(cfg))
            .map_err(|e| e.to_string())?;
        let d = Daemon {
            dir,
            socket,
            handle: Some(handle),
            submits: 0,
            warm_traces: HashSet::new(),
        };
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            if let Ok((Response::Ready { ready: true, .. }, _)) = d.request(&Request::Ready) {
                return Ok(d);
            }
            if Instant::now() > deadline || d.handle.as_ref().is_some_and(|h| h.is_finished()) {
                return Err("daemon did not become ready".into());
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    fn state(&self) -> PathBuf {
        self.dir.path().join("state")
    }

    /// The per-request trace files the daemon has written so far.
    fn trace_files(&self) -> HashSet<PathBuf> {
        std::fs::read_dir(self.state().join("traces"))
            .map(|dir| dir.filter_map(|e| e.ok().map(|e| e.path())).collect())
            .unwrap_or_default()
    }

    /// One request, one response (plus the raw line).
    fn request(&self, req: &Request) -> Result<(Response, String), String> {
        let mut s = UnixStream::connect(&self.socket).map_err(|e| e.to_string())?;
        writeln!(s, "{}", req.to_json().to_compact()).map_err(|e| e.to_string())?;
        let mut line = String::new();
        BufReader::new(s)
            .read_line(&mut line)
            .map_err(|e| e.to_string())?;
        Ok((Response::parse(line.trim())?, line))
    }

    /// The daemon's counters.
    fn status(&self) -> Result<fires_obs::RunMetrics, String> {
        match self.request(&Request::Status)?.0 {
            Response::Status { report } => RunReport::from_json(&report)
                .map(|r| r.metrics)
                .map_err(|e| e.to_string()),
            other => Err(format!("status answered {other:?}")),
        }
    }

    fn stop(&mut self) {
        if let Some(h) = self.handle.take() {
            let _ = self.request(&Request::Shutdown { drain: false });
            let _ = h.join();
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        self.stop();
    }
}

/// What one submission looked like from the client.
#[derive(Clone, Debug, Default)]
struct Sample {
    /// Index into the plan (open loop) or submission order.
    id: usize,
    stage: usize,
    due: Option<Instant>,
    sent: Option<Instant>,
    connected: Option<Instant>,
    first_line: Option<Instant>,
    last_line: Option<Instant>,
    done: Option<Instant>,
    bytes: usize,
    /// Keep the final response line (traced runs decode it again).
    keep_line: bool,
    hit: bool,
    ok: bool,
    error: String,
    line: String,
}

impl Sample {
    /// Latency, ms: from due time (open loop) or send time.
    fn latency_ms(&self) -> f64 {
        let from = self.due.or(self.sent);
        match (from, self.done) {
            (Some(a), Some(b)) => common::ms(b.saturating_duration_since(a)),
            _ => 0.0,
        }
    }
}

/// Submits `key` and reads until the terminal frame, stamping each
/// step and checking the report against its pinned digest in `table`.
fn submit(
    socket: &Path,
    key: &ServeKey,
    wait: bool,
    table: &BTreeMap<String, (String, usize)>,
    s: &mut Sample,
) {
    let sent = Instant::now();
    s.sent = Some(sent);
    let line = key.submit(wait).to_json().to_compact();
    let mut stream = match UnixStream::connect(socket) {
        Ok(st) => st,
        Err(e) => {
            s.error = format!("connect: {e}");
            return;
        }
    };
    s.connected = Some(Instant::now());
    if let Err(e) = writeln!(stream, "{line}") {
        s.error = format!("send: {e}");
        return;
    }
    let mut reader = BufReader::new(stream);
    loop {
        let mut raw = String::new();
        match reader.read_line(&mut raw) {
            Ok(0) => {
                s.error = "connection closed before a terminal frame".into();
                return;
            }
            Ok(_) => {}
            Err(e) => {
                s.error = format!("read: {e}");
                return;
            }
        }
        let now = Instant::now();
        s.first_line.get_or_insert(now);
        s.last_line = Some(now);
        let parsed = Response::parse(raw.trim());
        let decoded = Instant::now();
        let report = match parsed {
            Ok(Response::Accepted { .. }) | Ok(Response::Progress { .. }) => continue,
            Ok(Response::Hit { report, .. }) => {
                s.hit = true;
                report
            }
            Ok(Response::Done { report, .. }) => report,
            Ok(other) => {
                s.error = format!("unexpected response {other:?}");
                s.done = Some(decoded);
                return;
            }
            Err(e) => {
                s.error = format!("undecodable response: {e}");
                return;
            }
        };
        s.done = Some(decoded);
        s.bytes = raw.len();
        match common::check_digest(table, &key.label(), &report) {
            Ok(()) => s.ok = true,
            Err(e) => s.error = e,
        }
        if s.keep_line {
            s.line = raw;
        }
        return;
    }
}

/// Offered rates of the fixed-rate `serve-hot` stages, requests per
/// second.
pub const HOT_RATES: [f64; 3] = [2.0, 4.0, 8.0];

/// Index of the saturation stage that follows them: a fixed batch of
/// requests, all due at once, that keeps both connections busy and
/// measures the throughput the daemon and clients sustain.
const SATURATION: usize = HOT_RATES.len();

/// Hits per second the saturation batch is sized for (what a 2-CPU box
/// sustains).
const SATURATION_SIZING_RPS: f64 = 24.0;

/// Completions per saturation-throughput window (three blocks).
const SATURATION_WINDOW: usize = 3 * HOT_CIRCUITS.len();

/// Share of `--seconds` the fixed-rate stages take together; the
/// saturation batch is sized to take the rest.
const RATE_SHARE: f64 = 0.8;

/// Tail-latency limit a `serve-hot` stage must meet, ms.
pub const HOT_LIMIT_MS: f64 = 2_000.0;

/// Daemon start-ups timed for `setup_s` (the median is reported).
const SETUP_REPS: usize = 3;

/// Starts a daemon and submits `warm` to it, `SETUP_REPS` times; returns
/// the last daemon and sets `setup_s` to the median start-to-warm time.
fn set_up(
    tag: &str,
    cache_bytes: Option<usize>,
    warm: &[ServeKey],
    table: &BTreeMap<String, (String, usize)>,
    out: &mut Outcome,
) -> Result<Daemon, String> {
    let mut times = Vec::new();
    let mut last = None;
    for _ in 0..SETUP_REPS {
        drop(last.take());
        let t = Instant::now();
        let mut d = Daemon::start(tag, cache_bytes)?;
        for key in warm {
            let mut s = Sample::default();
            submit(&d.socket, key, true, table, &mut s);
            d.submits += 1;
            out.attempted += 1;
            if !s.ok {
                out.failed += 1;
                out.mismatch(format!("warm-up {}: {}", key.label(), s.error));
            }
        }
        times.push(t.elapsed().as_secs_f64());
        d.warm_traces = d.trace_files();
        last = Some(d);
    }
    out.set("setup_s", stats::median(&times));
    out.notes
        .push(format!("setup: daemon start + warm-up, {times:?} s"));
    last.ok_or_else(|| "no daemon".into())
}

/// One planned open-loop request.
#[derive(Clone, Copy, Debug)]
struct Planned {
    due: Duration,
    key: usize,
    stage: usize,
}

/// Length of each fixed-rate stage, seconds.
fn hot_stage_len(seconds: f64) -> f64 {
    seconds * RATE_SHARE / HOT_RATES.len() as f64
}

/// The open-loop schedule: per rate stage, about `rate × stage_len`
/// requests (rounded to whole blocks) at jittered even spacing, then the
/// saturation batch, all due at its start. Keys come in seeded blocks
/// that each hold every working-set key once.
fn hot_plan(seed: u64, seconds: f64) -> Vec<Planned> {
    let stage_len = hot_stage_len(seconds);
    let mut rng = Rng::new(seed, 2);
    let mut plan = Vec::new();
    let blocks =
        |n: f64| HOT_CIRCUITS.len() * ((n / HOT_CIRCUITS.len() as f64).round() as usize).max(1);
    for stage in 0..=SATURATION {
        let (n, timed) = match HOT_RATES.get(stage) {
            Some(&rate) => (blocks(rate * stage_len), true),
            None => (
                blocks(SATURATION_SIZING_RPS * seconds * (1.0 - RATE_SHARE)),
                false,
            ),
        };
        let spacing = stage_len / n as f64;
        let mut block: Vec<usize> = Vec::new();
        for i in 0..n {
            if block.is_empty() {
                // The seed orders the small responses; the one large
                // response keeps its place at the end of every block,
                // so large decodes overlap the same way in every run.
                block = (0..HOT_CIRCUITS.len() - 1).collect();
                rng.shuffle(&mut block);
                block.insert(0, HOT_CIRCUITS.len() - 1);
            }
            let jitter = (rng.unit() - 0.5) * 0.2;
            let offset = if timed {
                (i as f64 + 0.5 + jitter) * spacing
            } else {
                0.0
            };
            plan.push(Planned {
                due: Duration::from_secs_f64(stage as f64 * stage_len + offset),
                key: block.pop().unwrap_or(0),
                stage,
            });
        }
    }
    plan.sort_by_key(|p| p.due);
    plan
}

/// Requests due by `t` that had not been sent by `t`.
fn backlog_at(samples: &[&Sample], t: Instant) -> usize {
    samples
        .iter()
        .filter(|s| s.due.is_some_and(|d| d <= t) && s.sent.is_none_or(|x| x > t))
        .count()
}

/// Runs `serve-hot`.
pub fn run_hot(args: &Args) -> Result<Outcome, String> {
    let clients = common::load_width();
    common::check_load_width(clients, clients)?;
    let table = common::expected();
    let tracer = Tracer::new(args.trace);
    let mut out = Outcome::default();
    let hot = Arc::new(hot_set());
    let mut daemon = set_up("hot", None, &hot, &table, &mut out)?;

    let stage_len = hot_stage_len(args.seconds);
    let plan = Arc::new(hot_plan(args.seed, args.seconds));
    let start = Instant::now() + Duration::from_millis(20);
    let trace = args.trace;
    let next = Arc::new(AtomicUsize::new(0));
    let results = Arc::new(Mutex::new(Vec::with_capacity(plan.len())));
    let mut handles = Vec::new();
    for _ in 0..clients {
        let (plan, next, results) = (Arc::clone(&plan), Arc::clone(&next), Arc::clone(&results));
        let hot = Arc::clone(&hot);
        let socket = daemon.socket.clone();
        let table = table.clone();
        handles.push(std::thread::spawn(move || loop {
            let i = next.fetch_add(1, Ordering::SeqCst);
            let Some(p) = plan.get(i) else { break };
            let due = start + p.due;
            // A rate-stage request not started within one extra window
            // is shed: the stage has fallen far behind.
            let shed_at = start + Duration::from_secs_f64((p.stage + 2) as f64 * stage_len);
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
            }
            let mut s = Sample {
                id: i,
                stage: p.stage,
                due: Some(due),
                keep_line: trace,
                ..Sample::default()
            };
            if p.stage == SATURATION || Instant::now() < shed_at {
                submit(&socket, &hot[p.key], false, &table, &mut s);
            }
            results.lock().unwrap_or_else(|e| e.into_inner()).push(s);
        }));
    }
    for h in handles {
        h.join().map_err(|_| "client thread panicked")?;
    }
    let mut samples = Arc::try_unwrap(results)
        .map_err(|_| "results still shared")?
        .into_inner()
        .unwrap_or_else(|e| e.into_inner());
    samples.sort_by_key(|s| s.id);

    let sent: Vec<&Sample> = samples.iter().filter(|s| s.sent.is_some()).collect();
    let shed = samples.len() - sent.len();
    let mut stages = Vec::new();
    for k in 0..HOT_RATES.len() {
        let mine: Vec<&Sample> = samples.iter().filter(|s| s.stage == k).collect();
        let a = start + Duration::from_secs_f64(k as f64 * stage_len);
        let lat: Vec<f64> = mine
            .iter()
            .filter(|s| s.sent.is_some())
            .map(|s| s.latency_ms())
            .collect();
        let st = StageResult {
            offered_rps: mine.len() as f64 / stage_len,
            achieved_rps: mine.iter().filter(|s| s.ok).count() as f64 / stage_len,
            attempted: lat.len(),
            failed: mine.iter().filter(|s| s.sent.is_some() && !s.ok).count(),
            tail_ms: stats::tail(&lat).1,
            backlog_early: backlog_at(&mine, a + Duration::from_secs_f64(stage_len / 4.0)),
            backlog_end: backlog_at(&mine, a + Duration::from_secs_f64(stage_len)),
        };
        out.notes.push(format!(
            "stage {k}: offered {} rps, achieved {:.3} rps, p50 {:.2} ms, tail {:.2} ms, \
             failed {}, backlog {} -> {}, ok {}",
            st.offered_rps,
            st.achieved_rps,
            stats::median(&lat),
            st.tail_ms,
            st.failed,
            st.backlog_early,
            st.backlog_end,
            st.ok(HOT_LIMIT_MS)
        ));
        stages.push(st);
    }
    let best = stats::max_ok_stage(&stages, HOT_LIMIT_MS);
    // Hit latency pools every fixed-rate stage: each holds whole blocks
    // of the working set, so the pool's key mix is the same every run.
    let lat: Vec<f64> = sent
        .iter()
        .filter(|s| s.stage != SATURATION)
        .map(|s| s.latency_ms())
        .collect();
    let (tail_p, tail_v) = stats::tail(&lat);
    out.set("p50_ms", stats::median(&lat));
    out.set("tail_ms", tail_v);
    // Saturation throughput: the median rate over consecutive windows of
    // whole blocks' worth of completions, so a burst of outside load on
    // the machine moves one window, not the figure.
    let batch_start = sent
        .iter()
        .filter(|s| s.stage == SATURATION)
        .filter_map(|s| s.sent)
        .min();
    let mut done: Vec<Instant> = sent
        .iter()
        .filter(|s| s.stage == SATURATION && s.ok)
        .filter_map(|s| s.done)
        .collect();
    done.sort_unstable();
    let saturation_rps = batch_start.map_or(0.0, |a| {
        stats::median(&stats::window_rates(&done, a, SATURATION_WINDOW))
    });
    out.set("ops_per_s", saturation_rps);
    out.set("serve.max_ok_rps", best.map_or(0.0, |b| b.offered_rps));
    out.set("e2e.tail_percentile", tail_p);
    out.set("e2e.samples", lat.len() as f64);
    out.notes.push(format!(
        "serve-hot: {} requests sent, {shed} shed; max_ok_rps {:?}; hit p50 {:.3} ms, \
         tail p{tail_p} {tail_v:.3} ms over {} requests (limit {HOT_LIMIT_MS} ms); \
         saturation {saturation_rps:.3} rps",
        sent.len(),
        best.map(|b| b.offered_rps),
        stats::median(&lat),
        lat.len()
    ));

    check_requests(&sent, &mut out, true);
    daemon.submits += sent.len();
    finish_serve(args, &tracer, &mut daemon, &sent, &hot, &[], &mut out)?;
    Ok(out)
}

/// Counts the requests and records every failed output check.
fn check_requests(sent: &[&Sample], out: &mut Outcome, want_hit: bool) {
    out.attempted += sent.len() as u64;
    for s in sent {
        if !s.ok {
            out.failed += 1;
            out.mismatch(format!("request {}: {}", s.id, s.error));
        } else if want_hit && !s.hit {
            out.failed += 1;
            out.mismatch(format!("request {}: expected a cache hit", s.id));
        }
    }
}

/// Frequency of duplicate rounds in `serve-cold`: every `DUP_EVERY`-th
/// round both clients submit the same new key at once.
const DUP_EVERY: usize = 5;

/// `Sample::stage` of `serve-cold` submissions: a new key, the same new
/// key from both clients at once, an evicted key re-submitted.
const COLD_NEW: usize = 0;
const COLD_DUPLICATE: usize = 1;
const COLD_REMERGE: usize = 2;

/// Share of `--seconds` the cold phase is sized for; the rest
/// re-submits early, evicted keys.
const COLD_SHARE: f64 = 0.85;

/// Wall time one round of cold keys (every circuit pair once) takes on
/// a 2-CPU box; sizes the cold phase from `--seconds`.
const COLD_ROUND_SECONDS: f64 = 4.0;

/// Rounds of cold keys a run submits: a fixed amount of work for a
/// given `--seconds`, so the seed changes only the order.
fn cold_rounds(seconds: f64) -> usize {
    ((seconds * COLD_SHARE / COLD_ROUND_SECONDS).floor() as usize).clamp(1, cold_options().len())
}

/// Early keys each client re-submits after the cold phase.
const REMERGES_PER_CLIENT: usize = 3;

/// The cold key order: seeded rounds, each holding every circuit pair
/// once, with the `(frames, validate)` options rotated Latin-square
/// style so every round mixes them evenly too.
fn cold_order(seed: u64) -> Vec<ServeKey> {
    let mut rng = Rng::new(seed, 3);
    let mut pairs = cold_pairs();
    let mut options = cold_options();
    rng.shuffle(&mut pairs);
    rng.shuffle(&mut options);
    let mut seq = Vec::new();
    for round in 0..options.len() {
        for (i, pair) in pairs.iter().enumerate() {
            let (frames, validate) = options[(i + round) % options.len()];
            seq.push(ServeKey::new(pair, Some(frames), validate));
        }
    }
    seq
}

/// Runs `serve-cold`.
pub fn run_cold(args: &Args) -> Result<Outcome, String> {
    let clients = common::load_width();
    common::check_load_width(clients, clients)?;
    let table = common::expected();
    let tracer = Tracer::new(args.trace);
    let mut out = Outcome::default();
    let universe = cold_universe();
    let total: usize = universe
        .iter()
        .filter_map(|k| table.get(&k.label()).map(|e| e.1))
        .sum();
    let largest = universe
        .iter()
        .filter_map(|k| table.get(&k.label()).map(|e| e.1))
        .max()
        .unwrap_or(0);
    // Below the working set's report bytes, so early keys get evicted.
    let cache_bytes = (total / 8).max(2 * largest);
    let mut daemon = set_up("cold", Some(cache_bytes), &[cold_warm()], &table, &mut out)?;

    let mut order = cold_order(args.seed);
    order.truncate(cold_rounds(args.seconds) * cold_pairs().len());
    let order = Arc::new(order);
    let cursor = Arc::new(AtomicUsize::new(0));
    let dup_slot = Arc::new(Mutex::new(None::<ServeKey>));
    let barrier = Arc::new(Barrier::new(clients));
    let completed = Arc::new(Mutex::new(Vec::<(Instant, ServeKey)>::new()));
    let results = Arc::new(Mutex::new(Vec::new()));
    let start = Instant::now();
    let trace = args.trace;
    let mut handles = Vec::new();
    for c in 0..clients {
        let (order, cursor, dup_slot, barrier) = (
            Arc::clone(&order),
            Arc::clone(&cursor),
            Arc::clone(&dup_slot),
            Arc::clone(&barrier),
        );
        let (completed, results) = (Arc::clone(&completed), Arc::clone(&results));
        let socket = daemon.socket.clone();
        let table = table.clone();
        handles.push(std::thread::spawn(move || {
            let mut mine = Vec::new();
            let mut round = 0usize;
            loop {
                let dup = round % DUP_EVERY == DUP_EVERY - 1;
                let key = if dup {
                    // Both clients meet, the leader draws the next key
                    // and both submit it at once. Once the keys run
                    // out, both see `None` here and stop together.
                    if barrier.wait().is_leader() {
                        let i = cursor.fetch_add(1, Ordering::SeqCst);
                        *dup_slot.lock().unwrap_or_else(|e| e.into_inner()) = order.get(i).cloned();
                    }
                    barrier.wait();
                    let key = dup_slot.lock().unwrap_or_else(|e| e.into_inner()).clone();
                    if key.is_none() {
                        break;
                    }
                    key
                } else {
                    order.get(cursor.fetch_add(1, Ordering::SeqCst)).cloned()
                };
                round += 1;
                let Some(key) = key else { continue };
                let mut s = Sample {
                    id: c * 1_000_000 + round,
                    stage: if dup { COLD_DUPLICATE } else { COLD_NEW },
                    keep_line: trace,
                    ..Sample::default()
                };
                submit(&socket, &key, true, &table, &mut s);
                if s.ok {
                    completed
                        .lock()
                        .unwrap_or_else(|e| e.into_inner())
                        .push((s.done.unwrap_or_else(Instant::now), key.clone()));
                }
                mine.push((key, s));
            }
            // The re-merge tail: early keys, long evicted by now.
            barrier.wait();
            let early: Vec<ServeKey> = {
                let mut done = completed.lock().unwrap_or_else(|e| e.into_inner()).clone();
                done.sort_by_key(|d| d.0);
                let mut keys: Vec<ServeKey> = Vec::new();
                for (_, k) in done {
                    if !keys.contains(&k) {
                        keys.push(k);
                    }
                }
                keys
            };
            for j in 0..REMERGES_PER_CLIENT {
                let Some(key) = early.get(j * 2 + c).cloned() else {
                    break;
                };
                let mut s = Sample {
                    id: c * 1_000_000 + 900_000 + j,
                    stage: COLD_REMERGE,
                    keep_line: trace,
                    ..Sample::default()
                };
                submit(&socket, &key, true, &table, &mut s);
                mine.push((key, s));
            }
            results
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .extend(mine);
        }));
    }
    for h in handles {
        h.join().map_err(|_| "client thread panicked")?;
    }
    let cold_wall = start.elapsed();
    let samples: Vec<(ServeKey, Sample)> = Arc::try_unwrap(results)
        .map_err(|_| "results still shared")?
        .into_inner()
        .unwrap_or_else(|e| e.into_inner());

    let cold: Vec<&Sample> = samples
        .iter()
        .filter(|(_, s)| s.stage != COLD_REMERGE)
        .map(|(_, s)| s)
        .collect();
    let remerge: Vec<&Sample> = samples
        .iter()
        .filter(|(_, s)| s.stage == COLD_REMERGE)
        .map(|(_, s)| s)
        .collect();
    let cold_end = cold.iter().filter_map(|s| s.done).max().unwrap_or(start);
    let mut jobs: Vec<ServeKey> = samples
        .iter()
        .filter(|(_, s)| s.stage != COLD_REMERGE && s.ok)
        .map(|(k, _)| k.clone())
        .collect();
    jobs.sort_by_key(|k| k.label());
    jobs.dedup();
    let lat: Vec<f64> = cold.iter().map(|s| s.latency_ms()).collect();
    let (tail_p, tail_v) = stats::tail(&lat);
    let cold_secs = cold_end.duration_since(start).as_secs_f64();
    out.set("p50_ms", stats::median(&lat));
    out.set("tail_ms", tail_v);
    out.set("ops_per_s", jobs.len() as f64 / cold_secs);
    out.set("e2e.tail_percentile", tail_p);
    out.set("e2e.samples", lat.len() as f64);
    let remerge_ms: Vec<f64> = remerge.iter().map(|s| s.latency_ms()).collect();
    out.set("serve.remerge_ms", stats::mean(&remerge_ms));
    out.notes.push(format!(
        "serve-cold: {} cold submissions ({} in duplicate rounds) over {} distinct jobs in \
         {cold_secs:.3} s; p50 {:.3} ms, tail p{tail_p} {tail_v:.3} ms; {} re-merge \
         submissions, mean {:.3} ms; cache {cache_bytes} B of {total} B; phase {:.3} s",
        cold.len(),
        cold.iter().filter(|s| s.stage == COLD_DUPLICATE).count(),
        jobs.len(),
        stats::median(&lat),
        remerge.len(),
        stats::mean(&remerge_ms),
        cold_wall.as_secs_f64()
    ));
    if jobs.len() != order.len() {
        out.mismatch(format!(
            "serve-cold: {} of {} cold jobs completed",
            jobs.len(),
            order.len()
        ));
    }

    let sent: Vec<&Sample> = samples.iter().map(|(_, s)| s).collect();
    check_requests(&sent, &mut out, false);
    for s in &remerge {
        if s.ok && !s.hit {
            out.failed += 1;
            out.mismatch(format!("re-merge request {}: expected a cache hit", s.id));
        }
    }
    daemon.submits += sent.len();
    finish_serve(args, &tracer, &mut daemon, &sent, &jobs, &jobs, &mut out)?;
    Ok(out)
}

/// Span durations by name in one daemon trace file, µs.
fn trace_spans(doc: &Json) -> Vec<(String, u64)> {
    let mut open: HashMap<String, u64> = HashMap::new();
    let mut out = Vec::new();
    for e in doc.get("traceEvents").and_then(Json::as_arr).unwrap_or(&[]) {
        let name = e
            .get("name")
            .and_then(Json::as_str)
            .unwrap_or("")
            .to_string();
        let ts = e.get("ts").and_then(Json::as_u64).unwrap_or(0);
        match e.get("ph").and_then(Json::as_str) {
            Some("B") => {
                open.insert(name, ts);
            }
            Some("E") => {
                if let Some(b) = open.remove(&name) {
                    out.push((name, ts.saturating_sub(b)));
                }
            }
            _ => {}
        }
    }
    out
}

/// Common end of both serve workloads: the `submissions` check, the
/// daemon shutdown and, in a traced run, the per-layer read-back.
/// `keys` name the circuits the timed phase submitted; `ran` the jobs
/// it executed (read back from their journals and decomposed).
fn finish_serve(
    args: &Args,
    tracer: &Tracer,
    daemon: &mut Daemon,
    sent: &[&Sample],
    keys: &[ServeKey],
    ran: &[ServeKey],
    out: &mut Outcome,
) -> Result<(), String> {
    let counters = daemon.status()?;
    let submissions = counters.counter("serve.submissions") as usize;
    if submissions != daemon.submits {
        out.failed += submissions.abs_diff(daemon.submits) as u64;
        out.mismatch(format!(
            "daemon counted {submissions} submissions, the benchmark sent {}",
            daemon.submits
        ));
    }
    let c = |n: &str| counters.counter(n) as f64;
    out.notes.push(format!(
        "daemon counters: submissions {submissions}, cache_hits {}, cache_misses {}, deduped {}, \
         remerges {}, engine_builds {}",
        c("serve.cache_hits"),
        c("serve.cache_misses"),
        c("serve.deduped"),
        c("serve.remerges"),
        c("serve.engine_builds")
    ));
    if !args.trace {
        return Ok(());
    }
    let subs = submissions as f64;
    out.set("serve.hit_ratio", stats::ratio(c("serve.cache_hits"), subs));
    out.set("serve.dedup_ratio", stats::ratio(c("serve.deduped"), subs));
    out.set("serve.remerges", c("serve.remerges"));
    out.set("serve.engine_builds", c("serve.engine_builds"));

    // Client side, from the timestamps every request carries. Requests
    // of even-numbered blocks of six also become spans, the others do
    // not: the difference in their medians is the tracing overhead.
    let (mut connect, mut first, mut decode, mut kb, mut lag) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let (mut with, mut without) = (Vec::new(), Vec::new());
    let mut lines = Vec::new();
    let mut client_wall_us = 0u64;
    for s in sent {
        let (Some(sent_at), Some(conn), Some(fl), Some(ll), Some(done)) =
            (s.sent, s.connected, s.first_line, s.last_line, s.done)
        else {
            continue;
        };
        connect.push(common::ms(conn - sent_at));
        first.push(common::ms(fl - conn));
        decode.push(common::ms(done - ll));
        kb.push(s.bytes as f64 / 1024.0);
        // The saturation stage runs behind schedule by design, so it
        // counts toward neither generator lag nor tracing overhead.
        let on_schedule = !(s.due.is_some() && s.stage == SATURATION);
        if let (Some(due), true) = (s.due, on_schedule) {
            lag.push(common::ms(sent_at.saturating_duration_since(due)));
        }
        client_wall_us += (done - sent_at).as_micros() as u64;
        lines.push(s.line.clone());
        if (s.id / HOT_CIRCUITS.len()).is_multiple_of(2) {
            if on_schedule {
                with.push(s.latency_ms());
            }
            let lane = 1 + (s.id as u64 % 2);
            let req = tracer.record("serve.request", 0, lane, s.id as u64, sent_at, done);
            tracer.record("serve.connect", req, lane, s.id as u64, sent_at, conn);
            tracer.record("serve.first_line", req, lane, s.id as u64, conn, fl);
            tracer.record("serve.client_decode", req, lane, s.id as u64, ll, done);
        } else if on_schedule {
            without.push(s.latency_ms());
        }
    }
    out.set("serve.connect_ms", stats::mean(&connect));
    out.set("serve.first_line_ms", stats::mean(&first));
    out.set("serve.client_decode_ms", stats::mean(&decode));
    out.set("serve.response_kb", stats::mean(&kb));
    out.set("serve.gen_lag_ms", stats::mean(&lag));
    out.set(
        "trace.overhead_pct",
        stats::overhead_pct(stats::median(&with), stats::median(&without)),
    );

    // Server side, from the daemon's own per-request trace files.
    let mut by_name: HashMap<String, (u64, u64)> = HashMap::new();
    let mut files = 0u64;
    let mut server_us = 0u64;
    for path in daemon.trace_files().difference(&daemon.warm_traces) {
        let text = std::fs::read_to_string(path).map_err(|e| e.to_string())?;
        let doc = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        files += 1;
        for (name, us) in trace_spans(&doc) {
            server_us += us;
            let e = by_name.entry(name).or_default();
            e.0 += 1;
            e.1 += us;
        }
    }
    let per_request =
        |n: &str| stats::ratio(by_name.get(n).map_or(0, |e| e.1) as f64 / 1e3, files as f64);
    out.set("serve.submit_ms", per_request("submit"));
    out.set("serve.queue_wait_ms", per_request("queue_wait"));
    out.set("serve.engine_ms", per_request("engine"));
    out.set("serve.merge_ms", per_request("merge"));
    out.set(
        "serve.span_coverage",
        stats::ratio(server_us as f64, client_wall_us as f64),
    );
    out.notes.push(format!(
        "daemon trace files: {files}; span totals (count, µs) {:?}",
        {
            let mut v: Vec<_> = by_name.iter().collect();
            v.sort();
            v
        }
    ));

    // The jobs the timed phase ran, read back from their journals.
    let jobs_dir = daemon.state().join("jobs");
    let (mut bytes, mut units, mut failed) = (0u64, 0u64, 0u64);
    let (mut read_ms, mut report_ms, mut program_ms) = (Vec::new(), Vec::new(), Vec::new());
    let probe = tracer.open("probe.layers", 0, 0, 0);
    let mut decomposition: Vec<(String, usize)> = Vec::new();
    for key in ran {
        let tasks = key.spec().resolve().map_err(|e| e.to_string())?;
        for t in &tasks {
            let task = (t.name.clone(), t.config.max_frames);
            if !decomposition.contains(&task) {
                decomposition.push(task);
            }
        }
        let path = jobs_dir.join(format!("{:016x}.jsonl", job_key(&tasks)));
        if !path.exists() {
            continue;
        }
        bytes += std::fs::metadata(&path).map(|m| m.len()).unwrap_or(0);
        let span = tracer.open("jobs.journal_read", probe.id(), 0, 0);
        let contents = journal::read(&path).map_err(|e| e.to_string())?;
        read_ms.push(tracer.close(span) * 1e3);
        units += contents.units.len() as u64;
        failed += contents
            .units
            .iter()
            .filter(|u| !matches!(u.status, journal::UnitStatus::Ok))
            .count() as u64;
        program_ms.push(contents.units.iter().map(|u| u.seconds).sum::<f64>() * 1e3);
        let span = tracer.open("jobs.report", probe.id(), 0, 0);
        let text = report_with_tasks(&path, &tasks)
            .map_err(|e| e.to_string())?
            .canonical_text();
        report_ms.push(tracer.close(span) * 1e3);
        std::hint::black_box(text);
    }
    if !read_ms.is_empty() {
        out.set(
            "jobs.journal_bytes_per_unit",
            bytes as f64 / units.max(1) as f64,
        );
        out.set("jobs.journal_read_ms", stats::mean(&read_ms));
        out.set("jobs.report_ms", stats::mean(&report_ms));
        out.set("jobs.program_unit_ms", stats::mean(&program_ms));
        out.set("jobs.units_failed", failed as f64);
    }
    let mut names: Vec<&str> = keys
        .iter()
        .flat_map(|k| k.circuits.iter().copied())
        .collect();
    names.sort_unstable();
    names.dedup();
    out.set(
        "circuits.resolve_ms",
        layers::resolve_ms(&names, 5, tracer, probe.id()),
    );
    out.set(
        "netlist.line_graph_ms",
        layers::line_graph_ms(&names, 5, tracer, probe.id()),
    );
    let (small, large) = layers::json_ns_per_byte(&lines, tracer, probe.id());
    out.set("obs.json_parse_ns_per_byte.small", small);
    out.set("obs.json_parse_ns_per_byte.large", large);
    if !decomposition.is_empty() {
        // The timed phase ran the engine: decompose its distinct tasks.
        layers::decompose(&decomposition, tracer, probe.id(), out)?;
    }
    tracer.close(probe);
    crate::spans::write(&args.workload, args.seed, tracer)?;
    daemon.stop();
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hot_plan_balances_keys_per_stage() {
        let len = hot_stage_len(15.0);
        let plan = hot_plan(9, 15.0);
        for (k, rate) in HOT_RATES.iter().enumerate() {
            let stage: Vec<&Planned> = plan.iter().filter(|p| p.stage == k).collect();
            let whole = HOT_CIRCUITS.len() * ((rate * len / 6.0).round() as usize).max(1);
            assert_eq!(stage.len(), whole);
            let mut counts = [0usize; HOT_CIRCUITS.len()];
            for p in &stage {
                counts[p.key] += 1;
                let t = p.due.as_secs_f64();
                assert!(t >= k as f64 * len && t < (k + 1) as f64 * len);
            }
            let (lo, hi) = (counts.iter().min().unwrap(), counts.iter().max().unwrap());
            assert!(hi - lo <= 1, "{counts:?}");
        }
        assert_ne!(
            hot_plan(9, 15.0).iter().map(|p| p.key).collect::<Vec<_>>(),
            hot_plan(10, 15.0).iter().map(|p| p.key).collect::<Vec<_>>()
        );
    }

    #[test]
    fn cold_order_is_a_seeded_permutation() {
        let mut a = cold_order(1);
        let b = cold_order(2);
        assert_ne!(a, b);
        assert_eq!(a.len(), cold_universe().len());
        a.sort_by_key(|k| k.label());
        let mut u = cold_universe();
        u.sort_by_key(|k| k.label());
        assert_eq!(a, u);
    }

    #[test]
    fn backlog_counts_due_but_unsent() {
        let t0 = Instant::now();
        let at = |ms: u64| Some(t0 + Duration::from_millis(ms));
        let samples = [
            Sample {
                due: at(0),
                sent: at(1),
                ..Sample::default()
            },
            Sample {
                due: at(10),
                sent: at(50),
                ..Sample::default()
            },
            Sample {
                due: at(20),
                sent: None,
                ..Sample::default()
            },
            Sample {
                due: at(100),
                sent: at(100),
                ..Sample::default()
            },
        ];
        let refs: Vec<&Sample> = samples.iter().collect();
        assert_eq!(backlog_at(&refs, t0 + Duration::from_millis(30)), 2);
        assert_eq!(backlog_at(&refs, t0 + Duration::from_millis(60)), 1);
        assert_eq!(backlog_at(&refs, t0 + Duration::from_millis(5)), 0);
    }
}
