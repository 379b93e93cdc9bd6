//! The FIRES benchmark: one batch campaign and two service traffic
//! mixes, measured end to end and per layer.
//!
//! ```text
//! cargo run --release --offline -q --manifest-path perfbench/Cargo.toml -- \
//!     --workload campaign|serve-hot|serve-cold --seed N --seconds S --trace 0|1
//! ```
//!
//! Run from the repository root. The last line of standard output is one
//! JSON object: `correct`, `attempted`, `failed` and `metrics` (the
//! end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`). Lines before it are notes for a human: the benchmark's
//! own start with `#`; the in-process daemon announces its socket.
//! See `perfbench/README.md` for what each workload and metric means.

mod campaign;
mod common;
mod layers;
mod serve;
mod spans;
mod stats;

use std::process::ExitCode;

use common::{Args, Outcome};

/// End-to-end metrics, `(name, unit)`; every workload reports each.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("p50_ms", "ms"),
    ("tail_ms", "ms"),
    ("ops_per_s", "1/s"),
];

/// Per-layer metrics, `(name, unit)`. A workload whose timed phase never
/// reaches a layer reports that layer's metrics as 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("circuits.resolve_ms", "ms"),
    ("netlist.line_graph_ms", "ms"),
    ("core.engine_ms", "ms"),
    ("core.stem_ms.validated", "ms"),
    ("core.stem_ms.unvalidated", "ms"),
    ("core.assembly_ms", "ms"),
    ("core.validation_ms", "ms"),
    ("core.stem_p95_ms", "ms"),
    ("core.stem_p99_ms", "ms"),
    ("core.merge_ms", "ms"),
    ("core.implications_enqueued", "count"),
    ("core.marks_created", "count"),
    ("core.faults_found", "count"),
    ("core.validation_accepts", "count"),
    ("core.validation_rejects", "count"),
    ("core.validation_yield", "ratio"),
    ("core.identified_yield", "ratio"),
    ("core.program_stem_p95_ms", "ms"),
    ("core.stem_p95_ratio", "ratio"),
    ("core.program_validation_ms", "ms"),
    ("core.validation_phase_ratio", "ratio"),
    ("jobs.run_ms", "ms"),
    ("jobs.unit_busy_ms", "ms"),
    ("jobs.journal_wait_ms", "ms"),
    ("jobs.idle_ms", "ms"),
    ("jobs.journal_bytes_per_unit", "bytes"),
    ("jobs.journal_read_ms", "ms"),
    ("jobs.report_ms", "ms"),
    ("jobs.units_failed", "count"),
    ("jobs.program_unit_ms", "ms"),
    ("jobs.unit_time_ratio", "ratio"),
    ("obs.json_parse_ns_per_byte.small", "ns/B"),
    ("obs.json_parse_ns_per_byte.large", "ns/B"),
    ("serve.connect_ms", "ms"),
    ("serve.first_line_ms", "ms"),
    ("serve.client_decode_ms", "ms"),
    ("serve.response_kb", "KB"),
    ("serve.gen_lag_ms", "ms"),
    ("serve.max_ok_rps", "1/s"),
    ("serve.submit_ms", "ms"),
    ("serve.queue_wait_ms", "ms"),
    ("serve.engine_ms", "ms"),
    ("serve.merge_ms", "ms"),
    ("serve.remerge_ms", "ms"),
    ("serve.hit_ratio", "ratio"),
    ("serve.dedup_ratio", "ratio"),
    ("serve.remerges", "count"),
    ("serve.engine_builds", "count"),
    ("serve.span_coverage", "ratio"),
    ("proc.peak_rss_mb", "MB"),
    ("e2e.tail_percentile", "%"),
    ("e2e.samples", "count"),
    ("trace.overhead_pct", "%"),
];

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if args.write_digests {
        return match common::write_digests() {
            Ok(text) => {
                print!("{text}");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("perfbench: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let result = match args.workload.as_str() {
        "campaign" => campaign::run(&args),
        "serve-hot" => serve::run_hot(&args),
        "serve-cold" => serve::run_cold(&args),
        other => Err(format!("unknown workload {other:?}")),
    };
    match result {
        Ok(outcome) => emit(&args, outcome),
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Prints the notes and the result line; a failed output check exits 1.
fn emit(args: &Args, mut outcome: Outcome) -> ExitCode {
    outcome.set("proc.peak_rss_mb", common::peak_rss_mb());
    for note in &outcome.notes {
        println!("# {note}");
    }
    for mismatch in &outcome.mismatches {
        println!("# check failed: {mismatch}");
    }
    for (name, value) in &outcome.values {
        println!("# {name} = {value}");
    }
    let table = if args.trace { PER_LAYER } else { END_TO_END };
    let mut metrics = Vec::new();
    for (name, unit) in table {
        let value = match outcome.get(name) {
            Some(v) => v,
            None if args.trace => 0.0,
            None => {
                eprintln!("perfbench: workload reported no {name}");
                return ExitCode::FAILURE;
            }
        };
        metrics.push(format!(
            "{}:{{\"value\":{},\"unit\":{}}}",
            common::json_str(name),
            common::json_num(value),
            common::json_str(unit)
        ));
    }
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        outcome.correct(),
        outcome.attempted.max(1),
        outcome.failed,
        metrics.join(",")
    );
    if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metric tables here and in `BENCHMARK.json` name the same
    /// metrics with the same units.
    #[test]
    fn tables_match_benchmark_json() {
        let doc = fires_obs::Json::parse(include_str!("../../BENCHMARK.json")).unwrap();
        for (key, table) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let listed: Vec<(String, String)> = doc
                .get(key)
                .and_then(fires_obs::Json::as_arr)
                .unwrap()
                .iter()
                .map(|m| {
                    (
                        m.get("name")
                            .and_then(fires_obs::Json::as_str)
                            .unwrap()
                            .into(),
                        m.get("unit")
                            .and_then(fires_obs::Json::as_str)
                            .unwrap()
                            .into(),
                    )
                })
                .collect();
            let ours: Vec<(String, String)> = table
                .iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect();
            assert_eq!(listed, ours, "{key}");
        }
    }
}
