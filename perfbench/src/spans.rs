//! In-memory spans recorded by the benchmark around its calls into each
//! layer, written out once at the end of a traced run as a Chrome trace
//! (through `fires-obs`) and as a per-span self-time table.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use fires_obs::{trace_events_named, FieldValue, Json, TimedRecord, TraceRecord};

/// One closed span. Times are microseconds since the tracer started.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// Unique, nonzero.
    pub id: u64,
    /// The span that caused this one; 0 for a root.
    pub parent: u64,
    /// Layer-qualified name, e.g. `jobs.run_with_tasks`.
    pub name: &'static str,
    /// Start, µs.
    pub start: u64,
    /// End, µs.
    pub end: u64,
    /// Track the span renders on (a thread or a client connection).
    pub lane: u64,
    /// Request or unit id shared by the spans of one operation.
    pub req: u64,
}

impl Span {
    /// Duration in µs.
    pub fn dur(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// A span opened but not yet closed.
#[derive(Debug)]
pub struct Open {
    id: u64,
    parent: u64,
    name: &'static str,
    start: Instant,
    lane: u64,
    req: u64,
}

impl Open {
    /// The id children should name as their parent.
    pub fn id(&self) -> u64 {
        self.id
    }
}

/// Span collector; a disabled tracer records nothing.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    next: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// A tracer that records when `enabled`.
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            next: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn us(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_micros() as u64
    }

    /// Opens a span now.
    pub fn open(&self, name: &'static str, parent: u64, lane: u64, req: u64) -> Open {
        let id = if self.enabled {
            self.next.fetch_add(1, Ordering::Relaxed)
        } else {
            0
        };
        Open {
            id,
            parent,
            name,
            start: Instant::now(),
            lane,
            req,
        }
    }

    /// Closes a span now and returns its duration in seconds.
    pub fn close(&self, open: Open) -> f64 {
        let end = Instant::now();
        let secs = end.duration_since(open.start).as_secs_f64();
        if self.enabled {
            self.push(Span {
                id: open.id,
                parent: open.parent,
                name: open.name,
                start: self.us(open.start),
                end: self.us(end),
                lane: open.lane,
                req: open.req,
            });
        }
        secs
    }

    /// Records a span whose endpoints were timed elsewhere; returns its
    /// id (0 when disabled).
    pub fn record(
        &self,
        name: &'static str,
        parent: u64,
        lane: u64,
        req: u64,
        start: Instant,
        end: Instant,
    ) -> u64 {
        if !self.enabled {
            return 0;
        }
        let id = self.next.fetch_add(1, Ordering::Relaxed);
        self.push(Span {
            id,
            parent,
            name,
            start: self.us(start),
            end: self.us(end),
            lane,
            req,
        });
        id
    }

    fn push(&self, span: Span) {
        self.spans
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .push(span);
    }

    /// Every recorded span.
    pub fn spans(&self) -> Vec<Span> {
        self.spans
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .clone()
    }
}

/// Self time of every span, by id: its duration minus the part of its
/// interval covered by the union of its children's intervals.
pub fn self_times(spans: &[Span]) -> BTreeMap<u64, u64> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if s.parent != 0 {
            children.entry(s.parent).or_default().push((s.start, s.end));
        }
    }
    spans
        .iter()
        .map(|s| {
            let mut kids: Vec<(u64, u64)> = children
                .get(&s.id)
                .map(|k| {
                    k.iter()
                        .map(|&(a, b)| (a.max(s.start), b.min(s.end)))
                        .filter(|(a, b)| a < b)
                        .collect()
                })
                .unwrap_or_default();
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start;
            for (a, b) in kids {
                let a = a.max(reach);
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            (s.id, s.dur() - covered)
        })
        .collect()
}

/// Per-name totals: `(count, total µs, self µs)`.
pub fn table(spans: &[Span]) -> BTreeMap<&'static str, (u64, u64, u64)> {
    let selfs = self_times(spans);
    let mut t: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
    for s in spans {
        let e = t.entry(s.name).or_default();
        e.0 += 1;
        e.1 += s.dur();
        e.2 += selfs[&s.id];
    }
    t
}

/// The per-layer table as text, one span name per line.
pub fn render_table(spans: &[Span]) -> String {
    let mut out = format!(
        "{:<32} {:>8} {:>12} {:>12}\n",
        "span", "count", "total_ms", "self_ms"
    );
    for (name, (n, total, own)) in table(spans) {
        out.push_str(&format!(
            "{:<32} {:>8} {:>12.3} {:>12.3}\n",
            name,
            n,
            total as f64 / 1e3,
            own as f64 / 1e3
        ));
    }
    out
}

/// The spans as a Chrome Trace Event document, one track per lane.
/// Begin/end records are ordered so spans on one lane nest: at equal
/// timestamps ends come first, inner spans close before outer ones and
/// outer spans open before inner ones; spans that coincide exactly nest
/// by id (a parent is opened, so numbered, before its children).
pub fn chrome_trace(spans: &[Span]) -> Json {
    let mut events: Vec<(u64, u8, u64, u64, TimedRecord)> = Vec::with_capacity(spans.len() * 2);
    for s in spans {
        let fields = vec![
            ("id", FieldValue::U64(s.id)),
            ("parent", FieldValue::U64(s.parent)),
            ("req", FieldValue::U64(s.req)),
        ];
        events.push((
            s.start,
            1,
            u64::MAX - s.end,
            s.id,
            TimedRecord {
                ts_us: s.start,
                lane: s.lane,
                record: TraceRecord::SpanEnter {
                    name: s.name,
                    fields,
                },
            },
        ));
        events.push((
            s.end,
            0,
            u64::MAX - s.start,
            u64::MAX - s.id,
            TimedRecord {
                ts_us: s.end,
                lane: s.lane,
                record: TraceRecord::SpanExit {
                    name: s.name,
                    elapsed: std::time::Duration::from_micros(s.dur()),
                },
            },
        ));
    }
    events.sort_by_key(|e| (e.0, e.1, e.2, e.3));
    let records: Vec<TimedRecord> = events.into_iter().map(|e| e.4).collect();
    trace_events_named(&records, &[])
}

/// Writes the Chrome trace and the span table of a traced run under
/// `.perfbench/traces/` and prints the table.
pub fn write(workload: &str, seed: u64, tracer: &Tracer) -> Result<(), String> {
    let dir = PathBuf::from(".perfbench").join("traces");
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let all = tracer.spans();
    let trace_path = dir.join(format!("{workload}-seed{seed}.trace.json"));
    std::fs::write(&trace_path, chrome_trace(&all).to_compact())
        .map_err(|e| format!("{}: {e}", trace_path.display()))?;
    let table_path = dir.join(format!("{workload}-seed{seed}.layers.txt"));
    let table = render_table(&all);
    std::fs::write(&table_path, &table).map_err(|e| format!("{}: {e}", table_path.display()))?;
    println!("# chrome trace: {}", trace_path.display());
    println!("# span table: {}", table_path.display());
    for line in table.lines() {
        println!("# {line}");
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            name: "x",
            start,
            end,
            lane: 0,
            req: 0,
        }
    }

    #[test]
    fn self_time_subtracts_union_of_children() {
        let spans = [
            span(1, 0, 0, 100),
            span(2, 1, 10, 30),
            span(3, 1, 20, 50),  // overlaps 2: union 10..50
            span(4, 1, 90, 120), // sticks out: only 90..100 counts
            span(5, 2, 12, 14),  // grandchild: counted against 2 only
        ];
        let st = self_times(&spans);
        assert_eq!(st[&1], 100 - 40 - 10);
        assert_eq!(st[&2], 20 - 2);
        assert_eq!(st[&3], 30);
        assert_eq!(st[&4], 30);
        assert_eq!(st[&5], 2);
    }

    #[test]
    fn table_aggregates_by_name() {
        let mut a = span(1, 0, 0, 10);
        a.name = "outer";
        let mut b = span(2, 1, 2, 6);
        b.name = "inner";
        let mut c = span(3, 1, 6, 8);
        c.name = "inner";
        let t = table(&[a, b, c]);
        assert_eq!(t["outer"], (1, 10, 4));
        assert_eq!(t["inner"], (2, 6, 6));
    }

    #[test]
    fn chrome_trace_nests_equal_timestamps() {
        let mut outer = span(1, 0, 0, 10);
        outer.name = "outer";
        let mut inner = span(2, 1, 0, 10);
        inner.name = "inner";
        let doc = chrome_trace(&[inner, outer]);
        let events = doc.get("traceEvents").and_then(Json::as_arr).unwrap();
        let seq: Vec<(String, String)> = events
            .iter()
            .filter(|e| e.get("ph").and_then(Json::as_str) != Some("M"))
            .map(|e| {
                (
                    e.get("ph").and_then(Json::as_str).unwrap().to_string(),
                    e.get("name").and_then(Json::as_str).unwrap().to_string(),
                )
            })
            .collect();
        let want = [
            ("B", "outer"),
            ("B", "inner"),
            ("E", "inner"),
            ("E", "outer"),
        ];
        assert_eq!(
            seq,
            want.iter()
                .map(|(a, b)| (a.to_string(), b.to_string()))
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new(false);
        let o = t.open("a", 0, 0, 0);
        assert_eq!(o.id(), 0);
        t.close(o);
        let now = Instant::now();
        assert_eq!(t.record("b", 0, 0, 0, now, now), 0);
        assert!(t.spans().is_empty());
    }
}
