//! Prometheus text exposition over the metrics registry.
//!
//! [`RunMetrics`] keeps the canonical dotted names (`serve.cache_hits`)
//! that CI greps out of reports; Prometheus requires `[a-zA-Z0-9_:]`
//! metric names. The mangling therefore happens *here*, at render time
//! — the registry, the reports and the journal never see the mangled
//! form, so canonical outputs stay byte-identical whether or not
//! anything ever scrapes the daemon.
//!
//! One registry feeds the document: counters render as `counter`,
//! maxima as `gauge`, histograms as `summary` (quantiles plus
//! `_sum`/`_count`, the closest native Prometheus shape for a
//! pre-aggregated log₂ histogram). A *labeled* series (`tenant`, `job`)
//! is an ordinary entry whose name is its exposition identity, built by
//! [`series`]: `serve.tenant.submissions{tenant="acme"}`. Per-tenant and
//! per-job attribution is then a PromQL `sum by (tenant)` away; the
//! daemon keeps such entries in a registry of their own so the one that
//! rides inside canonical reports never grows label-dependent names.
//!
//! Rendering is deterministic: within each kind, entries in name order,
//! so the label sets of one name sit together; label keys are sorted
//! within a set. Two scrapes of the same state are byte-identical.

use std::fmt::Write as _;

use crate::metrics::{Histogram, RunMetrics};

/// Mangles a dotted metric name into the Prometheus charset.
///
/// Every byte outside `[a-zA-Z0-9_:]` becomes `_`; a leading digit is
/// prefixed with `_`. `serve.cache_hits` → `serve_cache_hits`.
pub fn prom_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len() + 1);
    for (i, b) in name.bytes().enumerate() {
        let ok = b.is_ascii_alphanumeric() || b == b'_' || b == b':';
        if i == 0 && b.is_ascii_digit() {
            out.push('_');
        }
        out.push(if ok { b as char } else { '_' });
    }
    out
}

/// Escapes a label value per the exposition format: backslash, double
/// quote and newline.
fn escape_label(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// The registry name of a labeled series: `name{k="v",...}` with keys
/// sorted and mangled and values escaped, ready for
/// [`render_prometheus`]. With no labels it is just `name`.
pub fn series(name: &str, labels: &[(&str, &str)]) -> String {
    if labels.is_empty() {
        return name.to_string();
    }
    let mut pairs = labels.to_vec();
    pairs.sort_unstable();
    let parts: Vec<String> = pairs
        .iter()
        .map(|(k, v)| format!("{}=\"{}\"", prom_name(k), escape_label(v)))
        .collect();
    format!("{name}{{{}}}", parts.join(","))
}

/// Splits a registry name at its first `{` into the mangled metric name
/// and the label block (`""` when unlabeled).
fn split_name(name: &str) -> (String, &str) {
    let (base, labels) = name.split_at(name.find('{').unwrap_or(name.len()));
    (prom_name(base), labels)
}

/// Appends `# TYPE` once per metric name as the iteration crosses into
/// a new name.
fn type_line(out: &mut String, last: &mut String, name: &str, kind: &str) {
    if last != name {
        let _ = writeln!(out, "# TYPE {name} {kind}");
        last.clear();
        last.push_str(name);
    }
}

fn render_summary(out: &mut String, name: &str, labels: &str, h: &Histogram) {
    // Inside an existing block `quantile` joins the other pairs.
    let open = match labels.strip_suffix('}') {
        Some(inner) => format!("{inner},"),
        None => "{".to_string(),
    };
    for (q, v) in [("0.5", h.p50()), ("0.95", h.p95()), ("0.99", h.p99())] {
        let _ = writeln!(out, "{name}{open}quantile=\"{q}\"}} {v}");
    }
    let _ = writeln!(out, "{name}_sum{labels} {}", h.sum());
    let _ = writeln!(out, "{name}_count{labels} {}", h.count());
}

/// Renders a registry as one Prometheus text exposition document
/// (version 0.0.4).
///
/// Counters, then gauges, then summaries, each in name order. The
/// output is a pure function of the input — no timestamps — so
/// snapshot files diff cleanly between beats.
pub fn render_prometheus(m: &RunMetrics) -> String {
    let mut out = String::new();
    let mut last = String::new();
    for (name, v) in m.counters() {
        let (name, labels) = split_name(name);
        type_line(&mut out, &mut last, &name, "counter");
        let _ = writeln!(out, "{name}{labels} {v}");
    }
    for (name, v) in m.maxima() {
        let (name, labels) = split_name(name);
        type_line(&mut out, &mut last, &name, "gauge");
        let _ = writeln!(out, "{name}{labels} {v}");
    }
    for (name, h) in m.histograms() {
        let (name, labels) = split_name(name);
        type_line(&mut out, &mut last, &name, "summary");
        render_summary(&mut out, &name, labels, h);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_mangled_into_the_prometheus_charset() {
        assert_eq!(prom_name("serve.cache_hits"), "serve_cache_hits");
        assert_eq!(
            prom_name("serve.degraded.disk_faults"),
            "serve_degraded_disk_faults"
        );
        assert_eq!(prom_name("0weird-name"), "_0weird_name");
        assert_eq!(prom_name("already_fine:ok"), "already_fine:ok");
    }

    #[test]
    fn flat_registry_renders_counters_gauges_and_summaries() {
        let mut m = RunMetrics::new();
        m.incr("serve.submissions", 3);
        m.set_max("serve.queue.depth", 2);
        for v in [1, 2, 3] {
            m.observe("serve.wait_ms", v);
        }
        let text = render_prometheus(&m);
        assert!(text.contains("# TYPE serve_submissions counter\nserve_submissions 3\n"));
        assert!(text.contains("# TYPE serve_queue_depth gauge\nserve_queue_depth 2\n"));
        assert!(text.contains("# TYPE serve_wait_ms summary\n"));
        assert!(text.contains("serve_wait_ms{quantile=\"0.5\"}"));
        assert!(text.contains("serve_wait_ms_sum 6\n"));
        assert!(text.contains("serve_wait_ms_count 3\n"));
    }

    #[test]
    fn labeled_series_render_sorted_label_blocks() {
        let mut m = RunMetrics::new();
        // Insert with unsorted label order; the block must sort keys.
        m.incr(
            &series("serve.tenant.submissions", &[("tenant", "acme")]),
            2,
        );
        m.observe(
            &series(
                "serve.job.wall_ms",
                &[("tenant", "acme"), ("job", "00000000deadbeef")],
            ),
            40,
        );
        m.set_max(
            &series("serve.job.units", &[("job", "00000000deadbeef")]),
            7,
        );
        let text = render_prometheus(&m);
        assert!(
            text.contains("serve_tenant_submissions{tenant=\"acme\"} 2\n"),
            "{text}"
        );
        assert!(
            text.contains(
                "serve_job_wall_ms{job=\"00000000deadbeef\",tenant=\"acme\",quantile=\"0.5\"}"
            ),
            "{text}"
        );
        assert!(
            text.contains("serve_job_wall_ms_count{job=\"00000000deadbeef\",tenant=\"acme\"} 1\n"),
            "{text}"
        );
        assert!(
            text.contains(
                "# TYPE serve_job_units gauge\nserve_job_units{job=\"00000000deadbeef\"} 7\n"
            ),
            "{text}"
        );
    }

    #[test]
    fn label_values_are_escaped() {
        let mut m = RunMetrics::new();
        m.incr(
            &series("serve.tenant.submissions", &[("tenant", "a\"b\\c\nd")]),
            1,
        );
        // A value ending in `}` must not confuse the name split or the
        // quantile label spliced into a labeled summary.
        m.observe(&series("serve.job.wall_ms", &[("tenant", "x}")]), 5);
        let text = render_prometheus(&m);
        assert!(text.contains("tenant=\"a\\\"b\\\\c\\nd\""), "{text}");
        assert!(
            text.contains("serve_job_wall_ms{tenant=\"x}\",quantile=\"0.5\"} "),
            "{text}"
        );
        assert!(
            text.contains("serve_job_wall_ms_sum{tenant=\"x}\"} 5\n"),
            "{text}"
        );
    }

    #[test]
    fn rendering_is_deterministic_and_type_lines_are_unique() {
        let mut m = RunMetrics::new();
        m.incr("serve.b", 1);
        m.incr("serve.a", 1);
        m.incr(&series("serve.t", &[("tenant", "b")]), 1);
        m.incr(&series("serve.t", &[("tenant", "a")]), 1);
        let a = render_prometheus(&m);
        let b = render_prometheus(&m);
        assert_eq!(a, b);
        // One TYPE line per name even with several label sets.
        assert_eq!(a.matches("# TYPE serve_t counter").count(), 1);
        // Name order, then label-set order.
        let ia = a.find("serve_a 1").unwrap();
        let ib = a.find("serve_b 1").unwrap();
        assert!(ia < ib, "{a}");
        let ta = a.find("serve_t{tenant=\"a\"}").unwrap();
        let tb = a.find("serve_t{tenant=\"b\"}").unwrap();
        assert!(ta < tb, "{a}");
    }

    #[test]
    fn counter_accumulates_and_len_counts_kinds() {
        // A labeled series is an ordinary registry entry.
        let mut m = RunMetrics::new();
        let t = series("serve.x", &[("tenant", "t")]);
        m.incr(&t, 1);
        m.incr(&t, 2);
        assert_eq!(m.counter(&t), 3);
        assert_eq!(m.counter(&series("serve.x", &[("tenant", "other")])), 0);
        assert_eq!(
            series("serve.x", &[("tenant", "t"), ("job", "j")]),
            "serve.x{job=\"j\",tenant=\"t\"}"
        );
        m.set_max(&series("serve.g", &[]), 5);
        m.observe("serve.h", 9);
        assert_eq!(m.len(), 3);
        assert_eq!(m.maximum("serve.g"), 5);
    }
}
