//! Journals written before schema 5 stay readable and resumable.
//!
//! `fixtures/schema4.jsonl` is a complete schema-4 journal (s27, fig7
//! and s208_like, one thread), whose units spell their faults as
//! `[line, stuck, c, frame]` arrays; `fixtures/schema4.report.json` is
//! what `fires report --json` printed for it when it was written. The
//! canonical report must not depend on which form the faults were
//! journaled in.

use fires_jobs::journal;
use fires_jobs::{report, resume, RunnerConfig};

mod common;
use common::unique_temp_dir;

const JOURNAL: &str = include_str!("fixtures/schema4.jsonl");
const REPORT: &str = include_str!("fixtures/schema4.report.json");

/// Units cut off the fixture before it is resumed.
const CUT_UNITS: usize = 8;

/// `fires report --json` output: the canonical text plus a newline.
fn report_json(path: &std::path::Path) -> String {
    format!("{}\n", report(path).unwrap().canonical_text())
}

fn is_unit(line: &str) -> bool {
    line.contains("\"kind\":\"unit\"")
}

#[test]
fn the_schema_4_fixture_reads_to_its_pinned_report() {
    assert!(JOURNAL.starts_with("{\"kind\":\"header\",\"schema\":4,"));
    let path = unique_temp_dir("schema4-read").join("custom.jsonl");
    std::fs::write(&path, JOURNAL).unwrap();
    assert_eq!(report_json(&path), REPORT);
}

#[test]
fn a_cut_schema_4_fixture_resumes_to_its_pinned_report() {
    let lines: Vec<&str> = JOURNAL.lines().collect();
    let units = lines.iter().filter(|l| is_unit(l)).count();
    // Keep the header and every line before the last CUT_UNITS units.
    let mut kept = 0;
    let cut: String = lines
        .iter()
        .take_while(|l| {
            kept += usize::from(is_unit(l));
            kept <= units - CUT_UNITS
        })
        .map(|l| format!("{l}\n"))
        .collect();
    let path = unique_temp_dir("schema4-resume").join("custom.jsonl");
    std::fs::write(&path, &cut).unwrap();
    let summary = resume(&path, &RunnerConfig::default()).unwrap();
    assert!(summary.complete());
    assert_eq!(summary.executed, CUT_UNITS);
    assert_eq!(report_json(&path), REPORT);

    // The resumed journal keeps its schema-4 header and old lines, and
    // gains schema-5 lines: both fault forms in one file.
    let text = std::fs::read_to_string(&path).unwrap();
    assert!(text.starts_with(&cut));
    let resumed: Vec<&str> = text.lines().filter(|l| is_unit(l)).collect();
    assert_eq!(resumed.len(), units);
    let (old, new) = resumed.split_at(units - CUT_UNITS);
    assert!(old.iter().all(|l| l.contains("\"faults\":[")));
    assert!(new.iter().all(|l| l.contains("\"fault_sets\":[")));
    assert!(new.iter().all(|l| !l.contains("\"faults\":")));
    let contents = journal::read(&path).unwrap();
    assert_eq!(contents.units.len(), units);
}
