//! Probes timed from outside around calls into single crates: circuit
//! resolution (`fires-circuits`), line-graph construction
//! (`fires-netlist`), a serial stem decomposition (`fires-core`) and
//! JSON decoding (`fires-obs`).

use std::time::Instant;

use fires_circuits::suite;
use fires_core::{CancelToken, Fires, FiresConfig, RunMetrics, StemCtx};
use fires_netlist::LineGraph;
use fires_obs::Json;

use crate::common::Outcome;
use crate::spans::Tracer;
use crate::stats;

/// Mean ms per `suite::resolve` call over `names`, `reps` rounds.
pub fn resolve_ms(names: &[&str], reps: usize, tracer: &Tracer, parent: u64) -> f64 {
    let mut total = 0.0;
    let mut calls = 0;
    for _ in 0..reps {
        for name in names {
            let span = tracer.open("circuits.resolve", parent, 0, 0);
            let entry = suite::resolve(name);
            total += tracer.close(span) * 1e3;
            calls += 1;
            std::hint::black_box(entry);
        }
    }
    stats::ratio(total, calls as f64)
}

/// Mean ms per `LineGraph::build` over the named circuits.
pub fn line_graph_ms(names: &[&str], reps: usize, tracer: &Tracer, parent: u64) -> f64 {
    let circuits: Vec<_> = names
        .iter()
        .filter_map(|n| suite::resolve(n).map(|e| e.circuit))
        .collect();
    let mut total = 0.0;
    let mut calls = 0;
    for _ in 0..reps {
        for c in &circuits {
            let span = tracer.open("netlist.line_graph", parent, 0, 0);
            let g = LineGraph::build(c);
            total += tracer.close(span) * 1e3;
            calls += 1;
            std::hint::black_box(g);
        }
    }
    stats::ratio(total, calls as f64)
}

/// Lines shorter than this count as small for the JSON probe.
const SMALL_LINE: usize = 4 << 10;
/// Lines longer than this count as large.
const LARGE_LINE: usize = 100 << 10;
/// Large lines the probe decodes at most (decode time grows with line
/// length squared today, so a few are enough).
const LARGE_LINES_MAX: usize = 3;

/// `Json::parse` cost in ns per byte over the workload's own small and
/// large lines; 0 for a class the workload has none of.
pub fn json_ns_per_byte(lines: &[String], tracer: &Tracer, parent: u64) -> (f64, f64) {
    let small: Vec<&String> = lines.iter().filter(|l| l.len() < SMALL_LINE).collect();
    let large: Vec<&String> = lines
        .iter()
        .filter(|l| l.len() > LARGE_LINE)
        .take(LARGE_LINES_MAX)
        .collect();
    let probe = |set: &[&String], name: &'static str| {
        let bytes: usize = set.iter().map(|l| l.len()).sum();
        if bytes == 0 {
            return 0.0;
        }
        let span = tracer.open(name, parent, 0, 0);
        let t = Instant::now();
        for l in set {
            std::hint::black_box(Json::parse(l).is_ok());
        }
        let ns = t.elapsed().as_nanos() as f64;
        tracer.close(span);
        ns / bytes as f64
    };
    (
        probe(&small, "obs.json_parse.small"),
        probe(&large, "obs.json_parse.large"),
    )
}

/// One serial pass over every stem of `tasks` (`(circuit, frames)`),
/// timing the engine, `run_stem` without and with validation, and the
/// report merge; sets the `core.*` per-layer metrics on `out`.
pub fn decompose(
    tasks: &[(String, usize)],
    tracer: &Tracer,
    parent: u64,
    out: &mut Outcome,
) -> Result<(), String> {
    let (mut engine, mut unval, mut val, mut merge) = (0.0, 0.0, 0.0, 0.0);
    let mut stem_times: Vec<f64> = Vec::new();
    let mut metrics = RunMetrics::new();
    let mut program_validation = 0.0;
    let mut identified = 0u64;
    for (name, frames) in tasks {
        let entry = suite::resolve(name).ok_or_else(|| format!("unknown circuit {name}"))?;
        let task_span = tracer.open("core.decompose", parent, 0, 0);
        let mut cfg = FiresConfig::with_max_frames(*frames);
        cfg.validate = false;
        let fires_u = Fires::try_new(&entry.circuit, cfg).map_err(|e| e.to_string())?;
        cfg.validate = true;
        let fires_v = Fires::try_new(&entry.circuit, cfg).map_err(|e| e.to_string())?;
        let (mut ctx_u, mut ctx_v) = (StemCtx::new(), StemCtx::new());
        let cancel = CancelToken::never();
        let (mut found_u, mut found_v) = (Vec::new(), Vec::new());
        for stem in fires_v.stems() {
            let span = tracer.open("core.analyze_stem", task_span.id(), 0, 0);
            std::hint::black_box(fires_v.analyze_stem(stem));
            engine += tracer.close(span);
            for (fires, ctx, sum, found, span_name) in [
                (
                    &fires_u,
                    &mut ctx_u,
                    &mut unval,
                    &mut found_u,
                    "core.run_stem.unvalidated",
                ),
                (
                    &fires_v,
                    &mut ctx_v,
                    &mut val,
                    &mut found_v,
                    "core.run_stem.validated",
                ),
            ] {
                let span = tracer.open(span_name, task_span.id(), 0, 0);
                let outcome = fires
                    .run_stem(stem, ctx, &cancel)
                    .map_err(|e| e.to_string())?;
                let secs = tracer.close(span);
                *sum += secs;
                stem_times.push(secs * 1e3);
                let f = outcome.into_findings();
                metrics.merge(&f.metrics);
                program_validation += f.phase_times.of("validation").as_secs_f64();
                found.push(f);
            }
        }
        for (fires, found) in [(&fires_u, found_u), (&fires_v, found_v)] {
            let span = tracer.open("core.assemble_report", task_span.id(), 0, 0);
            let report = fires.assemble_report(found);
            merge += tracer.close(span);
            identified += report.len() as u64;
        }
        tracer.close(task_span);
    }
    let (assembly, validation) = stats::stem_split(engine, unval, val);
    let stem_sorted = stats::sorted(&stem_times);
    let bench_p95 = stats::percentile(&stem_sorted, 95.0);
    let program_p95 = metrics
        .histogram("core.stem_micros")
        .map(|h| h.p95() as f64 / 1e3)
        .unwrap_or(0.0);
    // The program books assembly under "validation" in both runs; the
    // matching measured span is everything but the engine, twice.
    let measured_non_engine = (unval - engine) + (val - engine);
    let accepts = metrics.counter("core.validation_accepts") as f64;
    let rejects = metrics.counter("core.validation_rejects") as f64;
    let found = metrics.counter("core.faults_found") as f64;
    for (k, v) in [
        ("core.engine_ms", engine * 1e3),
        ("core.stem_ms.validated", val * 1e3),
        ("core.stem_ms.unvalidated", unval * 1e3),
        ("core.assembly_ms", assembly * 1e3),
        ("core.validation_ms", validation * 1e3),
        ("core.stem_p95_ms", bench_p95),
        ("core.stem_p99_ms", stats::percentile(&stem_sorted, 99.0)),
        ("core.merge_ms", merge * 1e3),
        (
            "core.implications_enqueued",
            metrics.counter("core.implications_enqueued") as f64,
        ),
        (
            "core.marks_created",
            metrics.counter("core.marks_created") as f64,
        ),
        ("core.faults_found", found),
        ("core.validation_accepts", accepts),
        ("core.validation_rejects", rejects),
        (
            "core.validation_yield",
            stats::ratio(accepts, accepts + rejects),
        ),
        (
            "core.identified_yield",
            stats::ratio(identified as f64, found),
        ),
        ("core.program_stem_p95_ms", program_p95),
        ("core.stem_p95_ratio", stats::ratio(program_p95, bench_p95)),
        ("core.program_validation_ms", program_validation * 1e3),
        (
            "core.validation_phase_ratio",
            stats::ratio(program_validation, measured_non_engine),
        ),
    ] {
        out.set(k, v);
    }
    out.notes.push(format!(
        "core decomposition over {} stem runs: engine {:.1} ms, assembly {:.1} ms, \
         validation {:.1} ms; the program's own \"validation\" phase books {:.1} ms \
         (assembly and validation together, measured {:.1} ms)",
        stem_times.len(),
        engine * 1e3,
        assembly * 1e3,
        validation * 1e3,
        program_validation * 1e3,
        measured_non_engine * 1e3,
    ));
    Ok(())
}
