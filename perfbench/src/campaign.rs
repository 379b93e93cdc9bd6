//! `campaign`: the paper's batch use. A `run_with_tasks` campaign over
//! four Table-2 circuits, each with validation on and off, from spec
//! resolution to the merged canonical report.

use std::collections::HashMap;
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

use fires_jobs::runner::{run_with_tasks, RunnerConfig, UnitObserver};
use fires_jobs::{journal, report_with_tasks, CampaignReport, CampaignSpec, TaskSpec};

use crate::common::{self, Args, Outcome, Rng, RunDir};
use crate::layers;
use crate::spans::{self, Tracer};
use crate::stats;

/// Digest label of the campaign's canonical report.
pub const LABEL: &str = "campaign";

/// The campaign's circuits, in Table-2 order.
pub const CIRCUITS: [&str; 4] = ["s444_like", "s838_like", "s1423_like", "prolog_like"];

/// Spec resolutions timed for `setup_s` (the median is reported).
const SETUP_REPS: usize = 7;

/// Wall time of one campaign on a 2-CPU box; sizes the run.
const ITERATION_SECONDS: f64 = 5.5;

/// Campaigns a run executes: a fixed amount of work for a given
/// `--seconds`, so every run pools the same number of unit samples.
fn iterations(seconds: f64) -> u64 {
    ((seconds / ITERATION_SECONDS).floor() as u64).max(1)
}

/// The eight tasks in canonical order: each circuit validated, then
/// unvalidated.
fn base_tasks() -> Vec<TaskSpec> {
    CIRCUITS
        .iter()
        .flat_map(|c| {
            [true, false].map(|validate| TaskSpec {
                validate,
                ..TaskSpec::new(*c)
            })
        })
        .collect()
}

/// The campaign spec with its tasks in `order` (indices into the
/// canonical order).
fn spec(order: &[usize]) -> CampaignSpec {
    let base = base_tasks();
    CampaignSpec {
        name: LABEL.into(),
        tasks: order.iter().map(|&i| base[i].clone()).collect(),
    }
}

/// The canonical text with tasks put back in canonical order, so one
/// pinned digest covers every seeded task order.
fn canonical_in_base_order(report: &CampaignReport, order: &[usize]) -> String {
    let mut tasks = report.tasks.clone();
    let mut slots: Vec<_> = order.iter().copied().zip(tasks.drain(..)).collect();
    slots.sort_by_key(|(i, _)| *i);
    CampaignReport {
        campaign: report.campaign.clone(),
        tasks: slots.into_iter().map(|(_, t)| t).collect(),
    }
    .canonical_text()
}

/// The canonical report of one campaign run directly, for the digest
/// table.
pub fn direct_text(dir: &Path) -> Result<String, String> {
    let order: Vec<usize> = (0..base_tasks().len()).collect();
    let spec = spec(&order);
    let tasks = spec.resolve().map_err(|e| e.to_string())?;
    let path = dir.join("campaign.jsonl");
    let rc = RunnerConfig {
        threads: common::load_width(),
        ..RunnerConfig::default()
    };
    run_with_tasks(&spec, &tasks, &path, &rc).map_err(|e| e.to_string())?;
    let report = report_with_tasks(&path, &tasks).map_err(|e| e.to_string())?;
    Ok(report.canonical_text())
}

/// One unit's milestones as the benchmark's observer saw them.
#[derive(Clone, Copy, Debug)]
struct UnitTimes {
    token: u64,
    lane: u64,
    claimed: Instant,
    finished: Instant,
    journaled: Instant,
}

#[derive(Debug, Default)]
struct ClockState {
    open: HashMap<(u64, usize, usize), (Instant, Option<Instant>)>,
    lanes: HashMap<std::thread::ThreadId, u64>,
    done: Vec<UnitTimes>,
}

/// Benchmark-side [`UnitObserver`]: stamps claim, finish and journaled
/// times of every unit.
#[derive(Debug, Default)]
struct UnitClock(Mutex<ClockState>);

impl UnitClock {
    fn lock(&self) -> std::sync::MutexGuard<'_, ClockState> {
        self.0
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Takes the completed units of run `token`.
    fn take(&self, token: u64) -> Vec<UnitTimes> {
        let mut st = self.lock();
        let (mine, rest) = st.done.drain(..).partition(|u| u.token == token);
        st.done = rest;
        mine
    }
}

impl UnitObserver for UnitClock {
    fn unit_claimed(&self, token: u64, task: usize, stem: usize) {
        let now = Instant::now();
        self.lock().open.insert((token, task, stem), (now, None));
    }

    fn unit_finished(&self, token: u64, task: usize, stem: usize, _seconds: f64) {
        let now = Instant::now();
        if let Some(e) = self.lock().open.get_mut(&(token, task, stem)) {
            e.1 = Some(now);
        }
    }

    fn unit_journaled(&self, token: u64, task: usize, stem: usize) {
        let now = Instant::now();
        let mut st = self.lock();
        let n = st.lanes.len() as u64;
        let lane = *st.lanes.entry(std::thread::current().id()).or_insert(n + 1);
        if let Some((claimed, finished)) = st.open.remove(&(token, task, stem)) {
            st.done.push(UnitTimes {
                token,
                lane,
                claimed,
                finished: finished.unwrap_or(now),
                journaled: now,
            });
        }
    }
}

/// Runs the workload.
pub fn run(args: &Args) -> Result<Outcome, String> {
    let threads = common::load_width();
    common::check_load_width(threads, 0)?;
    let tracer = Tracer::new(args.trace);
    let untraced = Tracer::new(false);
    let table = common::expected();
    let mut out = Outcome::default();

    let mut order: Vec<usize> = (0..base_tasks().len()).collect();
    Rng::new(args.seed, 1).shuffle(&mut order);
    let spec = spec(&order);
    out.notes.push(format!(
        "campaign: task order {:?} (seeded), {threads} runner threads",
        order
    ));

    // Set-up: spec resolution, timed several times.
    let mut setups = Vec::with_capacity(SETUP_REPS);
    let mut tasks = Vec::new();
    for _ in 0..SETUP_REPS {
        let span = tracer.open("jobs.resolve_spec", 0, 0, 0);
        tasks = spec.resolve().map_err(|e| e.to_string())?;
        setups.push(tracer.close(span));
    }
    out.set("setup_s", stats::median(&setups));

    let dir = RunDir::new("campaign")?;
    let clock: &'static UnitClock = Box::leak(Box::new(UnitClock::default()));
    let rc = RunnerConfig {
        threads,
        observer: Some(clock),
        ..RunnerConfig::default()
    };

    let (mut walls, mut walls_traced, mut walls_untraced) = (Vec::new(), Vec::new(), Vec::new());
    let mut unit_ms = Vec::new();
    let (mut run_ms, mut busy_ms, mut wait_ms, mut report_ms) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let (mut journal_bytes, mut units_total, mut units_failed) = (0u64, 0u64, 0u64);
    let mut probed = false;
    for i in 0..iterations(args.seconds) {
        // Traced runs alternate traced and untraced iterations; the
        // difference between the two is the tracing overhead.
        let traced = args.trace && i % 2 == 0;
        let t = if traced { &tracer } else { &untraced };
        let journal_path = dir.path().join(format!("c{i}.jsonl"));
        let rc = RunnerConfig {
            trace_token: i,
            ..rc
        };
        let iter_span = t.open("campaign.iteration", 0, 0, i);
        let run_span = t.open("jobs.run_with_tasks", iter_span.id(), 0, i);
        let run_id = run_span.id();
        let summary =
            run_with_tasks(&spec, &tasks, &journal_path, &rc).map_err(|e| e.to_string())?;
        let run_s = t.close(run_span);
        let report_span = t.open("jobs.report", iter_span.id(), 0, i);
        let report = report_with_tasks(&journal_path, &tasks).map_err(|e| e.to_string())?;
        let text = canonical_in_base_order(&report, &order);
        let report_s = t.close(report_span);
        let wall = t.close(iter_span);

        let units = summary.executed as u64;
        let bad = (summary.panicked + summary.timed_out + summary.exhausted) as u64;
        units_total += units;
        units_failed += bad;
        out.attempted += units;
        out.failed += bad;
        if !summary.complete() {
            out.mismatch(format!(
                "iteration {i}: {} units pending",
                summary.remaining
            ));
        }
        if let Err(e) = common::check_digest(&table, LABEL, &text) {
            out.failed += units - bad;
            out.mismatch(format!("iteration {i}: {e}"));
        }

        let samples = clock.take(i);
        if samples.len() as u64 != units {
            out.mismatch(format!(
                "iteration {i}: observer saw {} units, runner executed {units}",
                samples.len()
            ));
        }
        let (mut busy, mut wait) = (0.0, 0.0);
        for u in &samples {
            let b = common::ms(u.finished - u.claimed);
            unit_ms.push(b);
            busy += b;
            wait += common::ms(u.journaled - u.finished);
            if traced {
                t.record("jobs.unit", run_id, u.lane, i, u.claimed, u.finished);
                t.record(
                    "jobs.journal_wait",
                    run_id,
                    u.lane,
                    i,
                    u.finished,
                    u.journaled,
                );
            }
        }
        walls.push(wall);
        if args.trace {
            if traced {
                walls_traced.push(wall);
            } else {
                walls_untraced.push(wall);
            }
            run_ms.push(run_s * 1e3);
            busy_ms.push(busy);
            wait_ms.push(wait);
            report_ms.push(report_s * 1e3);
            journal_bytes += std::fs::metadata(&journal_path)
                .map(|m| m.len())
                .unwrap_or(0);
            if !probed {
                // The program's own time for the same units, beside
                // what the observer measured.
                probed = true;
                let program = probe_journal(&journal_path, &tracer, &mut out)?;
                out.set("jobs.program_unit_ms", program);
                out.set("jobs.unit_time_ratio", stats::ratio(program, busy));
            }
        }
        let _ = std::fs::remove_file(&journal_path);
    }

    let stems_per_campaign = units_total as f64 / walls.len() as f64;
    let campaign_s = stats::median(&walls);
    let (tail_p, tail_v) = stats::tail(&unit_ms);
    out.set("p50_ms", stats::median(&unit_ms));
    out.set("tail_ms", tail_v);
    out.set("ops_per_s", stems_per_campaign / campaign_s);
    out.set("e2e.tail_percentile", tail_p);
    out.set("e2e.samples", unit_ms.len() as f64);
    out.notes.push(format!(
        "campaign: {} iterations, campaign_s median {campaign_s:.4} s, {stems_per_campaign} units each; \
         unit latency p50 {:.3} ms, tail p{tail_p} {tail_v:.3} ms over {} units",
        walls.len(),
        stats::median(&unit_ms),
        unit_ms.len()
    ));

    if args.trace {
        let n = run_ms.len() as f64;
        let run = stats::mean(&run_ms);
        let busy = stats::mean(&busy_ms);
        let wait = stats::mean(&wait_ms);
        for (k, v) in [
            ("jobs.run_ms", run),
            ("jobs.unit_busy_ms", busy),
            ("jobs.journal_wait_ms", wait),
            ("jobs.idle_ms", stats::idle(threads, run, busy, wait)),
            (
                "jobs.journal_bytes_per_unit",
                journal_bytes as f64 / units_total.max(1) as f64,
            ),
            ("jobs.report_ms", stats::mean(&report_ms)),
            ("jobs.units_failed", units_failed as f64 / n),
            (
                "trace.overhead_pct",
                stats::overhead_pct(stats::median(&walls_traced), stats::median(&walls_untraced)),
            ),
        ] {
            out.set(k, v);
        }
        let probe = tracer.open("probe.layers", 0, 0, 0);
        out.set(
            "circuits.resolve_ms",
            layers::resolve_ms(&CIRCUITS, 5, &tracer, probe.id()),
        );
        out.set(
            "netlist.line_graph_ms",
            layers::line_graph_ms(&CIRCUITS, 5, &tracer, probe.id()),
        );
        let decomposition: Vec<(String, usize)> = tasks
            .iter()
            .filter(|t| t.config.validate)
            .map(|t| (t.name.clone(), t.config.max_frames))
            .collect();
        layers::decompose(&decomposition, &tracer, probe.id(), &mut out)?;
        tracer.close(probe);
        spans::write(&args.workload, args.seed, &tracer)?;
    }
    Ok(out)
}

/// Reads one finished journal back: `journal::read` time and the JSON
/// probe over its lines. Returns the program's own per-unit time, ms.
fn probe_journal(path: &Path, tracer: &Tracer, out: &mut Outcome) -> Result<f64, String> {
    let span = tracer.open("jobs.journal_read", 0, 0, 0);
    let contents = journal::read(path).map_err(|e| e.to_string())?;
    out.set("jobs.journal_read_ms", tracer.close(span) * 1e3);
    let secs: f64 = contents.units.iter().map(|u| u.seconds).sum();
    let mut phases: HashMap<&str, f64> = HashMap::new();
    for u in &contents.units {
        for (name, s) in &u.phases {
            *phases.entry(name.as_str()).or_default() += s;
        }
    }
    let mut phases: Vec<_> = phases.into_iter().collect();
    phases.sort_by(|a, b| a.0.cmp(b.0));
    out.notes.push(format!(
        "journal (program's own figures): unit seconds {secs:.4} s, phases {phases:?}"
    ));
    let text = std::fs::read_to_string(path).map_err(|e| e.to_string())?;
    let lines: Vec<String> = text.lines().map(str::to_string).collect();
    let (small, large) = layers::json_ns_per_byte(&lines, tracer, 0);
    out.set("obs.json_parse_ns_per_byte.small", small);
    out.set("obs.json_parse_ns_per_byte.large", large);
    Ok(secs * 1e3)
}
