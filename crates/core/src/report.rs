//! Result types of a FIRES run.

use std::collections::BTreeMap;
use std::fmt;
use std::time::Duration;

use fires_netlist::{Circuit, Fault, LineGraph, LineId};
use fires_obs::{PhaseTimes, RunMetrics};

use crate::window::Frame;

/// One fault identified by FIRES.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct IdentifiedFault {
    /// The identified stuck-at fault.
    pub fault: Fault,
    /// The paper's `c_f`: clocking the faulty circuit `c` times after
    /// power-up makes it indistinguishable from the fault-free circuit.
    /// Only meaningful when the run validated (otherwise the fault is
    /// guaranteed untestable but not necessarily redundant).
    pub c: u32,
    /// The time frame (relative to the stem assumption) in which the
    /// conflict was found.
    pub frame: Frame,
    /// The stem whose conflict identified this fault.
    pub stem: LineId,
}

impl IdentifiedFault {
    /// The canonical merge order between two identifications of the *same*
    /// fault: smaller `c` wins, ties broken by the earlier stem in the
    /// canonical processing order, then by earlier frame. (Stem before
    /// frame matches the historical serial driver, which folded stems in
    /// canonical order and only replaced an entry on a strict `c`
    /// improvement — so the first stem to report the minimal `c` named
    /// the frame.)
    ///
    /// This is a total order, so folding candidates with `wins_over` is
    /// associative and commutative — every grouping of the work (serial,
    /// any thread count, an interrupted-then-resumed campaign) merges to
    /// the identical survivor. Every merge site (the per-stem fold, the
    /// report assembly and the `fires-jobs` campaign merge) goes through
    /// [`merge_candidate`], which applies this predicate.
    pub fn wins_over(&self, other: &IdentifiedFault) -> bool {
        (self.c, self.stem, self.frame) < (other.c, other.stem, other.frame)
    }
}

/// Folds `cand` into a per-fault best map using
/// [`IdentifiedFault::wins_over`]: the one fault-fold rule every merge
/// site (the core driver and the `fires-jobs` campaign merge) shares.
pub fn merge_candidate(
    best: &mut std::collections::HashMap<Fault, IdentifiedFault>,
    cand: IdentifiedFault,
) {
    best.entry(cand.fault)
        .and_modify(|e| {
            if cand.wins_over(e) {
                *e = cand;
            }
        })
        .or_insert(cand);
}

/// Human-readable record of one implication process, used to reproduce the
/// paper's Table 1.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ProcessTrace {
    /// Uncontrollability indicators per frame: `(frame, line name, value)`.
    pub uncontrollable: Vec<(Frame, String, bool)>,
    /// Unobservable lines per frame: `(frame, line name)`.
    pub unobservable: Vec<(Frame, String)>,
}

/// The complete result of a FIRES run.
#[derive(Clone, Debug)]
pub struct FiresReport<'c> {
    pub(crate) circuit: &'c Circuit,
    pub(crate) lines: LineGraph,
    pub(crate) identified: Vec<IdentifiedFault>,
    pub(crate) validated: bool,
    pub(crate) stems_processed: usize,
    pub(crate) marks_created: usize,
    pub(crate) max_frames_used: usize,
    pub(crate) metrics: RunMetrics,
    pub(crate) phase_times: PhaseTimes,
}

impl<'c> FiresReport<'c> {
    /// The faults FIRES identified, one entry per fault (minimum `c` over
    /// every stem and frame that exposed it).
    pub fn redundant_faults(&self) -> &[IdentifiedFault] {
        &self.identified
    }

    /// Number of identified faults.
    pub fn len(&self) -> usize {
        self.identified.len()
    }

    /// Whether nothing was identified.
    pub fn is_empty(&self) -> bool {
        self.identified.is_empty()
    }

    /// `true` when the run included the validation step, making every
    /// identified fault `c`-cycle *redundant*; `false` when the run only
    /// guarantees untestability.
    pub fn validated(&self) -> bool {
        self.validated
    }

    /// Number of identified faults with `c = 0` (conventional
    /// combinational/sequential redundancies; the paper's `0-cycle`
    /// column).
    pub fn num_zero_cycle(&self) -> usize {
        self.identified.iter().filter(|f| f.c == 0).count()
    }

    /// The largest `c_f` over all identified faults (the paper's `Max. c`
    /// column), or 0 when nothing was identified.
    pub fn max_c(&self) -> u32 {
        self.identified.iter().map(|f| f.c).max().unwrap_or(0)
    }

    /// Histogram of identified faults by `c` value.
    pub fn c_histogram(&self) -> BTreeMap<u32, usize> {
        let mut h = BTreeMap::new();
        for f in &self.identified {
            *h.entry(f.c).or_insert(0) += 1;
        }
        h
    }

    /// The line graph the report's faults refer to.
    pub fn lines(&self) -> &LineGraph {
        &self.lines
    }

    /// Number of fanout stems the run processed.
    pub fn stems_processed(&self) -> usize {
        self.stems_processed
    }

    /// Total uncontrollability marks derived across all processes.
    pub fn marks_created(&self) -> usize {
        self.marks_created
    }

    /// The widest frame window any process used (the paper's `# Fr.`).
    pub fn max_frames_used(&self) -> usize {
        self.max_frames_used
    }

    /// Compute time of the run: the per-stem totals summed plus the merge
    /// (see [`Fires::assemble_report`](crate::Fires::assemble_report)).
    /// Always equals [`phase_times`](Self::phase_times)`.total`, and never
    /// less than the phases it breaks down.
    pub fn elapsed(&self) -> Duration {
        self.phase_times.total
    }

    /// Per-phase wall-clock breakdown of the run (implication,
    /// unobservability, validation), summed over stems.
    pub fn phase_times(&self) -> &PhaseTimes {
        &self.phase_times
    }

    /// Metrics recorded during the run (counters, maxima, histograms).
    pub fn metrics(&self) -> &RunMetrics {
        &self.metrics
    }

    /// Assembles a schema-versioned machine-readable run report: the run
    /// metrics and phase times plus headline results (fault counts, `c`
    /// histogram) under `extra`.
    pub fn run_report(&self, tool: &str, subject: &str) -> fires_obs::RunReport {
        let mut r = fires_obs::RunReport::new(tool, subject);
        r.set_phase_times(&self.phase_times);
        r.metrics = self.metrics.clone();
        r.set_extra("identified_faults", self.len() as u64);
        r.set_extra("zero_cycle", self.num_zero_cycle() as u64);
        r.set_extra("max_c", u64::from(self.max_c()));
        r.set_extra("validated", self.validated);
        r.set_extra("stems_processed", self.stems_processed as u64);
        let mut hist = fires_obs::Json::object();
        for (c, n) in self.c_histogram() {
            hist.set(c.to_string(), n as u64);
        }
        r.set_extra("c_histogram", hist);
        r
    }

    /// Pretty, deterministic listing of the identified faults.
    pub fn display_faults(&self) -> Vec<String> {
        let mut rows: Vec<String> = self
            .identified
            .iter()
            .map(|f| {
                format!(
                    "{} (c = {})",
                    f.fault.display(&self.lines, self.circuit),
                    f.c
                )
            })
            .collect();
        rows.sort();
        rows
    }
}

impl fmt::Display for FiresReport<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "FIRES: {} {} fault(s), 0-cycle {}, max c {}, {} stems, {:.3}s",
            self.len(),
            if self.validated {
                "c-cycle redundant"
            } else {
                "untestable"
            },
            self.num_zero_cycle(),
            self.max_c(),
            self.stems_processed,
            self.phase_times.total.as_secs_f64()
        )
    }
}
