//! The FIRES driver (paper Section 5.3, Figure 6).

use std::collections::HashMap;

use fires_netlist::{Circuit, Fault, LineGraph, LineId, LineKind};
use fires_obs::{obs_span, PhaseClock, PhaseTimes, RuleProfile, RunMetrics};

use crate::cancel::CancelToken;
use crate::engine::{DistCache, EngineScratch, Implications, IndicatorView, MarkId, Unc};
use crate::error::CoreError;
use crate::guard::{Budget, BudgetMeter, ExhaustionReason};
use crate::report::{merge_candidate, FiresReport, IdentifiedFault, ProcessTrace};
use crate::window::Frame;
use crate::FiresConfig;

mod assembly;
#[cfg(test)]
mod reference;

use assembly::{Assembly, SWEEP_CAP};

/// How many validation-loop entries pass between cancellation polls in
/// [`Fires::run_stem`]'s fault-set assembly.
const VALIDATION_POLL_STRIDE: u32 = 256;

/// Phase names used by the driver's [`PhaseClock`]; the same strings
/// appear in `FiresReport::phase_times` and in JSON run reports.
pub(crate) mod phase {
    /// Uncontrollability fixpoint (paper Section 5.1).
    pub const IMPLICATION: &str = "implication";
    /// Unobservability fixpoint (paper Section 5.1).
    pub const UNOBSERVABILITY: &str = "unobservability";
    /// Fault-set assembly and Definition-6 validation (Section 5.2).
    pub const VALIDATION: &str = "validation";
}

/// Reusable per-worker scratch state for stem-granular runs: the shared
/// flip-flop-distance cache, the per-fault forced-line closures, the
/// implication engines' allocation pool ([`EngineScratch`]) and the
/// fault-set assembly bitsets. The caches are circuit-static
/// memoizations and the scratch is pure allocation reuse — sharing one
/// `StemCtx` across many [`Fires::run_stem`] calls of one circuit only
/// changes speed, never results.
///
/// Give each worker thread its own. After catching a panic from
/// `run_stem`, drop the context and start a fresh one — a cache
/// mid-mutation at unwind time must not be reused.
///
/// The context also carries the [`Budget`] applied to each
/// [`Fires::run_stem`] call (unlimited by default). Budgets bound *effort*,
/// not results: two runs of the same stem under the same budget produce
/// identical outcomes, cache and scratch reuse included.
///
/// Construct via [`StemCtx::new`] or [`StemCtx::with_budget`].
#[derive(Default)]
pub struct StemCtx {
    cache: DistCache,
    budget: Budget,
    scratch: EngineScratch,
    assembly: Assembly,
}

impl StemCtx {
    /// Creates an empty context with an unlimited budget.
    pub fn new() -> Self {
        StemCtx::default()
    }

    /// Creates an empty context that applies `budget` to every
    /// [`Fires::run_stem`] call made through it.
    ///
    /// ```
    /// use fires_core::{Budget, StemCtx};
    /// let ctx = StemCtx::with_budget(Budget::unlimited().with_max_steps(10_000));
    /// assert_eq!(ctx.budget().max_steps, Some(10_000));
    /// ```
    pub fn with_budget(budget: Budget) -> Self {
        StemCtx {
            budget,
            ..StemCtx::default()
        }
    }

    /// The budget applied to each stem run through this context.
    pub fn budget(&self) -> Budget {
        self.budget
    }
}

/// Everything one stem's two implication processes produced: the unit of
/// work that `fires-jobs` schedules, journals and merges.
#[derive(Clone, Debug)]
pub struct StemFindings {
    /// The processed fanout stem.
    pub stem: LineId,
    /// Identified faults, one entry per fault (minimum `(c, frame)` for
    /// this stem), sorted by `(line, stuck)` — a deterministic function of
    /// (circuit, config, stem), independent of thread placement or cache
    /// reuse.
    pub faults: Vec<IdentifiedFault>,
    /// Fault-set memberships before per-fault dedup (the paper's `S_0 ∩
    /// S_1` hits; also the `core.faults_found` counter).
    pub faults_found: usize,
    /// Uncontrollability marks derived by the two processes.
    pub marks: usize,
    /// Frames spanned by the wider of the two processes.
    pub frames_used: usize,
    /// Metrics recorded while processing this stem.
    pub metrics: RunMetrics,
    /// Per-phase wall-clock breakdown for this stem.
    pub phase_times: PhaseTimes,
    /// `Some` when a [`Budget`] limit stopped this stem's implication work
    /// early. The faults above are then *partial and non-final*: sound
    /// indicators, but an incomplete fault-set intersection —
    /// [`Fires::assemble_report`] excludes them from the merged redundancy
    /// claims, and so must any other consumer (`fires-jobs` journals such
    /// units as `exhausted`).
    pub exhausted: Option<ExhaustionReason>,
    /// Per-rule hotspot attribution for this stem. Step counts, frame
    /// offsets and blame sizes are deterministic; the apportioned nanos
    /// and distance-cache hit counts depend on timing and cache sharing.
    pub profile: RuleProfile,
}

/// What [`Fires::run_stem`] produced for one stem: either complete
/// findings, or partial findings cut short by the [`Budget`] carried in
/// the [`StemCtx`]. Exhaustion is the graceful-degradation path — unlike
/// [`CoreError::Interrupted`] it is not an error, and unlike a plain
/// truncation the partial faults must not back redundancy claims.
#[derive(Clone, Debug)]
pub enum StemOutcome {
    /// The stem ran to fixpoint within budget; findings are final.
    Complete(StemFindings),
    /// A budget limit tripped. `partial` holds everything derived before
    /// the trip (already flagged via
    /// [`StemFindings::exhausted`]); sound but non-final.
    Exhausted {
        /// The partial findings (kept, flagged non-final).
        partial: StemFindings,
        /// Which limit tripped.
        reason: ExhaustionReason,
    },
}

impl StemOutcome {
    /// The findings, complete or partial.
    pub fn findings(&self) -> &StemFindings {
        match self {
            StemOutcome::Complete(f) => f,
            StemOutcome::Exhausted { partial, .. } => partial,
        }
    }

    /// Consumes the outcome, returning the findings (which still carry
    /// the exhaustion flag when partial).
    pub fn into_findings(self) -> StemFindings {
        match self {
            StemOutcome::Complete(f) => f,
            StemOutcome::Exhausted { partial, .. } => partial,
        }
    }

    /// `true` for [`StemOutcome::Complete`].
    pub fn is_complete(&self) -> bool {
        matches!(self, StemOutcome::Complete(_))
    }

    /// The tripped budget limit, if any.
    pub fn exhaustion(&self) -> Option<ExhaustionReason> {
        match self {
            StemOutcome::Complete(_) => None,
            StemOutcome::Exhausted { reason, .. } => Some(*reason),
        }
    }
}

/// The FIRES algorithm: fault-independent identification of c-cycle
/// sequential redundancies without search.
///
/// ```text
/// FIRES(T_M):
///   for every stem s:
///     sequentially imply s = 0̄  -> fault sets S_0^i
///     sequentially imply s = 1̄  -> fault sets S_1^i
///     every fault in S_0^i ∩ S_1^i is c_f-cycle redundant
/// ```
///
/// # Example
///
/// ```
/// use fires_core::{Fires, FiresConfig};
/// use fires_netlist::bench;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let circuit = bench::parse(
///     "INPUT(a)\nOUTPUT(d)\nOUTPUT(c)\nb = DFF(a)\nc = DFF(a)\nd = AND(b, c)\n",
/// )?;
/// let report = Fires::new(&circuit, FiresConfig::default()).run();
/// // The paper's Example 2 fault (c1 s-a-1) is found as 1-cycle redundant.
/// let c1_sa1 = report
///     .redundant_faults()
///     .iter()
///     .find(|f| f.fault.display(report.lines(), &circuit) == "c->d.1 s-a-1")
///     .expect("Example 2 fault identified");
/// assert_eq!(c1_sa1.c, 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct Fires<'c> {
    circuit: &'c Circuit,
    lines: LineGraph,
    config: FiresConfig,
}

impl<'c> Fires<'c> {
    /// Prepares a FIRES run over `circuit`.
    pub fn new(circuit: &'c Circuit, config: FiresConfig) -> Self {
        Fires {
            circuit,
            lines: LineGraph::build(circuit),
            config,
        }
    }

    /// Like [`new`](Self::new) but rejects degenerate configurations with
    /// a typed error instead of clamping them, so embedders that accept
    /// config from users (the `fires` CLI) can report mistakes properly.
    pub fn try_new(circuit: &'c Circuit, config: FiresConfig) -> Result<Self, CoreError> {
        config.check()?;
        Ok(Fires::new(circuit, config))
    }

    /// The line decomposition used by the run.
    pub fn lines(&self) -> &LineGraph {
        &self.lines
    }

    /// The circuit under analysis.
    pub fn circuit(&self) -> &'c Circuit {
        self.circuit
    }

    /// The fanout stems this run processes, in the engine's canonical
    /// order (ascending node id; see
    /// [`LineGraph::fanout_stems`](fires_netlist::LineGraph::fanout_stems)).
    /// Stable across processes for a structurally identical circuit, which
    /// is what lets `fires-jobs` journal work units as indices into this
    /// sequence and resume them in another process.
    pub fn stems(&self) -> Vec<LineId> {
        self.lines.fanout_stems(self.circuit).collect()
    }

    /// Processes a single fanout stem: the resumable, cancellable,
    /// budget-bounded unit of work underlying campaign orchestration.
    ///
    /// The result is a deterministic function of (circuit, config, stem,
    /// [`StemCtx::budget`]): independent of which thread runs it, of `ctx`
    /// cache reuse, and of any other stem. `cancel` is polled at
    /// fixpoint-loop granularity; when it fires the partial work is
    /// discarded and [`CoreError::Interrupted`] is returned. A tripped
    /// budget, by contrast, is a success value: the partial findings come
    /// back in [`StemOutcome::Exhausted`], kept but flagged non-final.
    ///
    /// # Errors
    ///
    /// [`CoreError::NotAFanoutStem`] if `stem` is not one of
    /// [`stems`](Self::stems); [`CoreError::Interrupted`] if `cancel`
    /// fired mid-run.
    pub fn run_stem(
        &self,
        stem: LineId,
        ctx: &mut StemCtx,
        cancel: &CancelToken,
    ) -> Result<StemOutcome, CoreError> {
        let is_fanout_stem = stem.index() < self.lines.num_lines() && {
            let line = self.lines.line(stem);
            line.is_stem() && !line.branches().is_empty()
        };
        if !is_fanout_stem {
            return Err(CoreError::NotAFanoutStem { line: stem });
        }
        let findings = self.process_stem(stem, ctx, cancel)?;
        Ok(match findings.exhausted {
            None => StemOutcome::Complete(findings),
            Some(reason) => StemOutcome::Exhausted {
                partial: findings,
                reason,
            },
        })
    }

    /// Merges per-stem findings (from [`run_stem`](Self::run_stem), in any
    /// order and from any mix of fresh and replayed work) into a full
    /// [`FiresReport`]. The merge uses [`IdentifiedFault::wins_over`], so
    /// the identified-fault list is byte-identical however the findings
    /// were partitioned — the property `fires-jobs` builds on.
    ///
    /// Findings flagged [`exhausted`](StemFindings::exhausted) contribute
    /// their statistics (marks, frames, metrics) but **never** their
    /// faults: a budget-cut stem's fault sets are non-final and must not
    /// back the report's redundancy claims.
    ///
    /// The report's phase durations are the findings' per-stem phases
    /// summed, and its total is the per-stem totals summed plus the merge
    /// itself: the compute time of the run, whatever its thread placement.
    pub fn assemble_report(&self, findings: Vec<StemFindings>) -> FiresReport<'c> {
        let mut clock = PhaseClock::start();
        let mut metrics = RunMetrics::new();
        let mut best: HashMap<Fault, IdentifiedFault> = HashMap::new();
        let mut marks_total = 0usize;
        let mut max_frames = 1usize;
        let stems_processed = findings.len();
        let mut stem_time = std::time::Duration::ZERO;
        for f in findings {
            marks_total += f.marks;
            max_frames = max_frames.max(f.frames_used);
            metrics.merge(&f.metrics);
            stem_time += f.phase_times.total;
            for (name, d) in &f.phase_times.phases {
                clock.add(name, *d);
            }
            if f.exhausted.is_some() {
                continue; // partial fault sets never enter the claims
            }
            for cand in f.faults {
                merge_candidate(&mut best, cand);
            }
        }
        let mut identified: Vec<IdentifiedFault> = best.into_values().collect();
        identified.sort_by_key(|f| (f.fault.line, f.fault.stuck));
        metrics.incr("core.identified_faults", identified.len() as u64);
        metrics.set_max("core.max_frames_used", max_frames as u64);
        let mut phase_times = clock.finish();
        phase_times.total += stem_time;
        FiresReport {
            circuit: self.circuit,
            lines: self.lines.clone(),
            identified,
            validated: self.config.validate,
            stems_processed,
            marks_created: marks_total,
            max_frames_used: max_frames,
            metrics,
            phase_times,
        }
    }

    /// Runs the algorithm over every fanout stem: [`run_stem`](Self::run_stem)
    /// over [`stems`](Self::stems) through one [`StemCtx`], folded by
    /// [`assemble_report`](Self::assemble_report).
    pub fn run(&self) -> FiresReport<'c> {
        let mut ctx = StemCtx::new();
        let never = CancelToken::never();
        let findings = self
            .stems()
            .into_iter()
            .map(|stem| {
                self.run_stem(stem, &mut ctx, &never)
                    .unwrap_or_else(|e| unreachable!("never-cancelled fanout stem failed: {e}"))
                    .into_findings()
            })
            .collect();
        self.assemble_report(findings)
    }

    /// Runs the two implication processes for one stem and returns them,
    /// for inspection (used to reproduce the paper's Table 1).
    pub fn analyze_stem(&self, stem: LineId) -> (Implications<'_>, Implications<'_>) {
        let mut p0 = Implications::new(self.circuit, &self.lines, self.config);
        p0.assume(stem, Unc::Zero);
        p0.propagate();
        let mut p1 = Implications::new(self.circuit, &self.lines, self.config);
        p1.assume(stem, Unc::One);
        p1.propagate();
        (p0, p1)
    }

    /// Renders an implication process for human inspection.
    pub fn trace(&self, imp: &Implications<'_>) -> ProcessTrace {
        let mut uncontrollable: Vec<(Frame, String, bool)> = imp
            .mark_ids()
            .map(|id| imp.mark(id))
            .filter(|m| !m.axiom)
            .map(|m| {
                (
                    m.frame,
                    self.lines.display_name(m.line, self.circuit),
                    m.unc.value(),
                )
            })
            .collect();
        uncontrollable.sort();
        uncontrollable.dedup();
        let mut unobservable: Vec<(Frame, String)> = imp
            .unobs_iter()
            .map(|(l, f, _)| (f, self.lines.display_name(l, self.circuit)))
            .collect();
        unobservable.sort();
        unobservable.dedup();
        ProcessTrace {
            uncontrollable,
            unobservable,
        }
    }

    /// Runs both implication processes for one stem and intersects their
    /// fault sets into the stem's findings, one entry per fault (folded
    /// with [`merge_candidate`]).
    ///
    /// Interruption discards all partial work for the stem, so a caller
    /// that maps [`CoreError::Interrupted`] to "unit timed out" never sees
    /// half-validated faults. Budget exhaustion is different: the partial
    /// findings come back flagged in [`StemFindings::exhausted`].
    fn process_stem(
        &self,
        stem: LineId,
        ctx: &mut StemCtx,
        cancel: &CancelToken,
    ) -> Result<StemFindings, CoreError> {
        let _span = obs_span!("core.stem", stem = stem.index());
        let interrupted = || CoreError::Interrupted { stem };
        // Upfront check so a token that fired before this unit started
        // (e.g. an already-expired deadline) trips deterministically even
        // on stems too small to reach the in-loop poll strides.
        if cancel.is_cancelled() {
            return Err(interrupted());
        }
        let mut clock = PhaseClock::start();
        let mut metrics = RunMetrics::new();
        let stem_started = std::time::Instant::now();
        let cache_lookups_before = ctx.cache.lookup_stats();
        // One meter travels through all four fixpoints so the cumulative
        // limits (steps, wall clock) span the stem, exactly once.
        let mut meter = BudgetMeter::new(ctx.budget);
        clock.enter(phase::IMPLICATION);
        // Each process recycles its lane of the context's allocation pool;
        // the lanes are reclaimed on the Ok path below. On the error paths
        // the engines are dropped and the pool simply starts over empty —
        // correctness never depends on the reuse.
        let scratch0 = std::mem::take(&mut ctx.scratch.zero);
        let mut p0 = Implications::with_scratch(self.circuit, &self.lines, self.config, scratch0);
        p0.set_cancel(cancel.clone());
        p0.set_meter(meter);
        p0.assume(stem, Unc::Zero);
        p0.run_uncontrollability();
        meter = p0.take_meter();
        let scratch1 = std::mem::take(&mut ctx.scratch.one);
        let mut p1 = Implications::with_scratch(self.circuit, &self.lines, self.config, scratch1);
        p1.set_cancel(cancel.clone());
        p1.set_meter(meter);
        p1.assume(stem, Unc::One);
        p1.run_uncontrollability();
        meter = p1.take_meter();
        if p0.interrupted() || p1.interrupted() {
            return Err(interrupted());
        }
        clock.enter(phase::UNOBSERVABILITY);
        p0.set_meter(meter);
        p0.run_unobservability(&mut ctx.cache);
        meter = p0.take_meter();
        p1.set_meter(meter);
        p1.run_unobservability(&mut ctx.cache);
        meter = p1.take_meter();
        if p0.interrupted() || p1.interrupted() {
            return Err(interrupted());
        }
        // Exhaustion stops *derivation*; the assembly below is linear in
        // the (now bounded) derived indicators, so it always completes.
        let exhausted = p0.exhausted().or_else(|| p1.exhausted());

        clock.enter(phase::VALIDATION);
        let Some((faults, found)) = self.assemble(
            &p0,
            &p1,
            stem,
            &mut ctx.assembly,
            &mut metrics,
            cancel,
            SWEEP_CAP,
        ) else {
            return Err(interrupted());
        };

        let marks = p0.num_marks() + p1.num_marks();
        let frames = p0.window().len().max(p1.window().len());
        metrics.incr("core.stems_processed", 1);
        metrics.incr("core.marks_created", marks as u64);
        metrics.incr(
            "core.truncated_processes",
            u64::from(p0.truncated()) + u64::from(p1.truncated()),
        );
        metrics.incr("core.exhausted_stems", u64::from(exhausted.is_some()));
        metrics.observe("core.stem_marks", marks as u64);
        // Per-stem cost distributions: a handful of pathological stems
        // dominate wall-clock, and these histograms are how they show up
        // in reports. The inputs are counted unconditionally on the hot
        // path (one integer add each); the observations happen once per
        // stem.
        metrics.observe("core.stem_steps", meter.steps());
        metrics.observe("core.stem_frames", frames as u64);
        for stats in [p0.stats(), p1.stats()] {
            metrics.incr(
                "core.blame_cap_rejections",
                stats.blame_cap_rejections as u64,
            );
            metrics.incr("core.window_extensions", stats.window_extensions as u64);
            metrics.incr("core.implications_enqueued", stats.enqueued as u64);
            metrics.set_max("core.max_queue_depth", stats.max_queue_depth as u64);
            metrics.set_max(
                "core.max_unobs_queue_depth",
                stats.max_unobs_queue_depth as u64,
            );
        }
        clock.exit();
        metrics.incr("core.faults_found", found as u64);
        let elapsed = stem_started.elapsed();
        metrics.observe("core.stem_micros", elapsed.as_micros() as u64);
        // Harvest the hotspot profile: merge the two processes' rule
        // tables, fold in this stem's share of distance-cache lookups, and
        // spread the stem's measured wall-clock across rules by step share
        // (no per-step timers ever run on the hot path). The deterministic
        // step counts also become `core.rule.*` counters so regression
        // gates can hold them; timing and cache rates stay profile-only.
        let mut profile = p0.take_profile();
        profile.merge(&p1.take_profile());
        let (hits, misses) = ctx.cache.lookup_stats();
        profile.add_dist_cache(
            hits - cache_lookups_before.0,
            misses - cache_lookups_before.1,
        );
        profile.apportion_nanos(elapsed.as_nanos() as u64);
        profile.export_counters(&mut metrics);
        ctx.scratch.zero = p0.into_scratch();
        ctx.scratch.one = p1.into_scratch();
        Ok(StemFindings {
            stem,
            faults,
            faults_found: found,
            marks,
            frames_used: frames,
            metrics,
            phase_times: clock.finish(),
            exhausted,
            profile,
        })
    }
}

/// Marks derived by an inference that *crosses the faulty line backwards*:
/// from a constraint on the faulty line `m` to a constraint on the logic
/// that drives `m`. The fault disconnects `m` from its driver (the
/// consumer side sees the stuck constant), so the driving gate's function
/// no longer relates the two — every such step is invalid in the faulty
/// circuit, whatever the values involved.
///
/// Concretely these are marks `X` with a parent on `m` where `X` sits on
/// `m`'s driver side: the stem of `m`'s driving node when `m` is a branch,
/// or the driver's input lines when `m` is a stem.
fn cut_edge_marks(fires: &Fires<'_>, imp: &Implications<'_>, fault: Fault) -> Vec<MarkId> {
    let mut cut = Vec::new();
    let window = imp.window();
    let (stem, inputs) = driver_side(fires, fault.line);
    for line in stem.into_iter().chain(inputs.iter().copied()) {
        for frame in window.leftmost()..=window.rightmost() {
            for unc in [Unc::Zero, Unc::One] {
                let Some(id) = imp.unc_mark(line, frame, unc) else {
                    continue;
                };
                if imp
                    .mark(id)
                    .parents
                    .iter()
                    .any(|p| imp.mark(*p).line == fault.line)
                {
                    cut.push(id);
                }
            }
        }
    }
    cut
}

/// The driver side of line `m`: the stem of `m`'s driving node when `m` is
/// a branch, or the driver's input lines when `m` is a stem (none for a
/// primary input or constant).
fn driver_side<'a>(fires: &'a Fires<'_>, m: LineId) -> (Option<LineId>, &'a [LineId]) {
    match fires.lines.line(m).kind() {
        LineKind::Branch { node, .. } => (Some(fires.lines.stem_of(node)), &[]),
        LineKind::Stem { node } => (None, fires.lines.in_lines(node)),
    }
}

/// Whether line `x` is on the [driver side](driver_side) of line `m`.
fn on_driver_side(fires: &Fires<'_>, m: LineId, x: LineId) -> bool {
    let (stem, inputs) = driver_side(fires, m);
    stem == Some(x) || inputs.contains(&x)
}

#[cfg(test)]
mod tests {
    use fires_netlist::bench;

    use super::*;

    #[test]
    fn figure3_identifies_the_branch_fault_as_one_cycle() {
        let circuit =
            bench::parse("INPUT(a)\nOUTPUT(d)\nOUTPUT(c)\nb = DFF(a)\nc = DFF(a)\nd = AND(b, c)\n")
                .unwrap();
        let fires = Fires::new(&circuit, FiresConfig::default());
        let report = fires.run();
        let names = report.display_faults();
        assert!(
            names
                .iter()
                .any(|n| n.contains("s-a-1") && n.contains("(c = 1)")),
            "expected the 1-cycle redundant c1 s-a-1, got {names:?}"
        );
    }

    #[test]
    fn combinational_conflict_is_zero_cycle() {
        // Classic FIRE example: stem a fans out; z needs a=0 and a=1.
        //   n = NOT(a); z = AND(a, n)  => z s-a-1 requires the conflict.
        let circuit = bench::parse("INPUT(a)\nOUTPUT(z)\nn = NOT(a)\nz = AND(a, n)\n").unwrap();
        let report = Fires::new(&circuit, FiresConfig::default()).run();
        assert!(!report.is_empty());
        assert!(report.redundant_faults().iter().all(|f| f.c == 0));
        // z is constant 0, so z s-a-0 has no effect: it must be identified.
        let names = report.display_faults();
        assert!(names.iter().any(|n| n.starts_with("z s-a-0")), "{names:?}");
    }

    #[test]
    fn irredundant_circuit_yields_nothing() {
        let circuit =
            bench::parse("INPUT(a)\nINPUT(b)\nOUTPUT(z)\nOUTPUT(y)\nz = AND(a, b)\ny = OR(a, b)\n")
                .unwrap();
        let report = Fires::new(&circuit, FiresConfig::default()).run();
        assert!(report.is_empty(), "{:?}", report.display_faults());
    }

    #[test]
    fn without_validation_superset_of_with() {
        let circuit =
            bench::parse("INPUT(a)\nOUTPUT(d)\nOUTPUT(c)\nb = DFF(a)\nc = DFF(a)\nd = AND(b, c)\n")
                .unwrap();
        let with = Fires::new(&circuit, FiresConfig::default()).run();
        let without = Fires::new(&circuit, FiresConfig::default().without_validation()).run();
        assert!(without.len() >= with.len());
        let without_set: Vec<_> = without.redundant_faults().iter().map(|f| f.fault).collect();
        for f in with.redundant_faults() {
            assert!(without_set.contains(&f.fault));
        }
    }

    #[test]
    fn validation_cuts_backward_steps_through_the_fault_site() {
        // Regression: ff1 converges to 1 (g6 = ff1 | !ff1), so "g0 cannot
        // be 1" holds from cycle 1 onward — but g0 s-a-0 corrupts the very
        // feedback that forces the convergence (faulty ff1 holds its
        // power-up value forever), so the fault is NOT c-cycle redundant
        // for any c. The derivation that suggested otherwise inferred
        // constraints on ff1 *backwards through the faulted NOT gate*;
        // validation must reject it.
        let circuit = bench::parse(
            "INPUT(pi0)\nOUTPUT(f3_0_c)\nOUTPUT(po0)\nOUTPUT(po1)\n\
             ff1 = DFF(g6)\ng0 = NOT(ff1)\ng6 = OR(ff1, g0)\n\
             g8 = NOT(g0)\ng9 = NOT(g8)\nf3_0_b = DFF(k1)\n\
             f3_0_c = DFF(ff1)\nf3_0_d = AND(f3_0_b, f3_0_c)\n\
             po0 = OR(g0, f3_0_d)\npo1 = BUFF(g9)\nk1 = CONST1()\n",
        )
        .unwrap();
        let report = Fires::new(&circuit, FiresConfig::with_max_frames(5)).run();
        let names = report.display_faults();
        for bad in ["g0 s-a-0", "ff1->g0.0 s-a-1", "g0->g6.1 s-a-0"] {
            assert!(
                !names.iter().any(|n| n.starts_with(bad)),
                "unsound claim {bad} present: {names:?}"
            );
        }
        // The genuinely redundant neighbours must survive the cut.
        for good in ["g8 s-a-1", "g9 s-a-0", "po1 s-a-0"] {
            assert!(
                names.iter().any(|n| n.starts_with(good)),
                "over-rejection: {good} missing from {names:?}"
            );
        }
    }

    /// Runs plane assembly over every stem at sweep cap `cap` and returns
    /// the validation counters it recorded.
    fn assembly_metrics(fires: &Fires<'_>, cap: usize) -> RunMetrics {
        let mut metrics = RunMetrics::new();
        let mut asm = Assembly::default();
        for stem in fires.stems() {
            let (p0, p1) = fires.analyze_stem(stem);
            fires
                .assemble(
                    &p0,
                    &p1,
                    stem,
                    &mut asm,
                    &mut metrics,
                    &CancelToken::never(),
                    cap,
                )
                .expect("never cancelled");
        }
        metrics
    }

    /// `core.validation_cap_drops` counts the rejections the sweep cap
    /// causes: none at the production cap on a small circuit, every
    /// rejection at cap 0, and at cap 1 all but those of the first swept
    /// fault of each process.
    #[test]
    fn sweep_cap_drops_are_counted() {
        let circuit = bench::parse(
            "INPUT(pi0)\nOUTPUT(f3_0_c)\nOUTPUT(po0)\nOUTPUT(po1)\n\
             ff1 = DFF(g6)\ng0 = NOT(ff1)\ng6 = OR(ff1, g0)\n\
             g8 = NOT(g0)\ng9 = NOT(g8)\nf3_0_b = DFF(k1)\n\
             f3_0_c = DFF(ff1)\nf3_0_d = AND(f3_0_b, f3_0_c)\n\
             po0 = OR(g0, f3_0_d)\npo1 = BUFF(g9)\nk1 = CONST1()\n",
        )
        .unwrap();
        let fires = Fires::new(&circuit, FiresConfig::with_max_frames(5));
        let [full, zero, one] = [SWEEP_CAP, 0, 1].map(|cap| assembly_metrics(&fires, cap));
        let count = |m: &RunMetrics, name: &str| m.counter(&format!("core.validation_{name}"));
        for m in [&zero, &one] {
            // A drop turns an accept or a genuine reject into a reject.
            assert_eq!(
                count(m, "accepts") + count(m, "rejects"),
                count(&full, "accepts") + count(&full, "rejects")
            );
            // The swept faults' genuine rejects are the full run's.
            assert!(count(m, "rejects") - count(m, "cap_drops") <= count(&full, "rejects"));
        }
        assert!(
            count(&full, "rejects") > 0,
            "the circuit must reject something"
        );
        assert_eq!(count(&full, "cap_drops"), 0);
        assert_eq!(count(&zero, "cap_drops"), count(&zero, "rejects"));
        assert!(count(&zero, "rejects") > count(&full, "rejects"));
        assert!(0 < count(&one, "cap_drops"));
        assert!(count(&one, "cap_drops") < count(&zero, "cap_drops"));
    }

    /// A fault whose forced closure exceeds 512 lines is rejected
    /// unchecked and counted as a cap drop: stem `a` drives 600 buffers,
    /// so `a s-a-0` and `a s-a-1` each pin over 1,200 lines.
    #[test]
    fn forced_closure_overflow_is_a_counted_drop() {
        let mut text = String::from("INPUT(a)\n");
        for i in 0..600 {
            text.push_str(&format!("OUTPUT(o{i})\no{i} = BUFF(a)\n"));
        }
        let circuit = bench::parse(&text).unwrap();
        let report = Fires::new(&circuit, FiresConfig::default()).run();
        // The stem assumptions "a cannot be 0" and "a cannot be 1" are the
        // only candidates of `a s-a-1` and `a s-a-0`; nothing else is
        // rejected.
        assert_eq!(report.metrics().counter("core.validation_cap_drops"), 2);
        assert_eq!(report.metrics().counter("core.validation_rejects"), 2);
        let unvalidated = Fires::new(&circuit, FiresConfig::default().without_validation()).run();
        assert_eq!(
            unvalidated.metrics().counter("core.validation_cap_drops"),
            0
        );
    }

    /// `core.stem_steps` records each stem's fixpoint steps; with no
    /// budget every enqueued implication is popped once, so each
    /// observation equals the stem's `core.implications_enqueued` — the
    /// value the removed `core.stem_queued` histogram recorded, bucket for
    /// bucket.
    #[test]
    fn stem_steps_equal_enqueued_implications_on_the_small_suite() {
        let never = CancelToken::never();
        for entry in fires_circuits::suite::small_suite() {
            let fires = Fires::new(&entry.circuit, FiresConfig::with_max_frames(entry.frames));
            let mut ctx = StemCtx::new();
            for stem in fires.stems() {
                let f = fires
                    .run_stem(stem, &mut ctx, &never)
                    .unwrap()
                    .into_findings();
                let steps = f.metrics.histogram("core.stem_steps").unwrap();
                assert_eq!(steps.count(), 1);
                assert_eq!(
                    steps.sum(),
                    f.metrics.counter("core.implications_enqueued"),
                    "{} stem {}",
                    entry.name,
                    stem.index()
                );
            }
        }
    }

    #[test]
    fn report_statistics_are_populated() {
        let circuit = bench::parse("INPUT(a)\nOUTPUT(z)\nn = NOT(a)\nz = AND(a, n)\n").unwrap();
        let report = Fires::new(&circuit, FiresConfig::default()).run();
        assert_eq!(report.stems_processed(), 1); // only stem `a` fans out
        assert!(report.marks_created() > 0);
        assert!(report.max_frames_used() >= 1);
        assert!(report.to_string().contains("FIRES"));
    }

    #[test]
    fn example2_has_c1_s_a_1_two_stems_and_nonzero_elapsed() {
        let circuit =
            bench::parse("INPUT(a)\nOUTPUT(d)\nOUTPUT(c)\nb = DFF(a)\nc = DFF(a)\nd = AND(b, c)\n")
                .unwrap();
        let report = Fires::new(&circuit, FiresConfig::default()).run();
        let names = report.display_faults();
        assert!(names
            .iter()
            .any(|n| n.contains("s-a-1") && n.contains("(c = 1)")));
        assert_eq!(report.stems_processed(), 2); // stems `a` and `c` fan out
        assert!(report.elapsed() > std::time::Duration::ZERO);
    }

    #[test]
    fn metrics_agree_with_report_on_example2() {
        let circuit =
            bench::parse("INPUT(a)\nOUTPUT(d)\nOUTPUT(c)\nb = DFF(a)\nc = DFF(a)\nd = AND(b, c)\n")
                .unwrap();
        let report = Fires::new(&circuit, FiresConfig::default()).run();
        let m = report.metrics();
        assert_eq!(
            m.counter("core.stems_processed"),
            report.stems_processed() as u64
        );
        assert_eq!(
            m.counter("core.marks_created"),
            report.marks_created() as u64
        );
        assert_eq!(m.counter("core.identified_faults"), report.len() as u64);
        assert_eq!(
            m.maximum("core.max_frames_used"),
            report.max_frames_used() as u64
        );
        assert!(m.counter("core.validation_accepts") > 0);
        assert!(m.maximum("core.max_queue_depth") > 0);
        let marks = m.histogram("core.stem_marks").expect("per-stem histogram");
        assert_eq!(marks.count(), report.stems_processed() as u64);
        assert_eq!(marks.sum(), report.marks_created() as u64);
        // Per-stem cost histograms: one observation per stem, each.
        let stems = report.stems_processed() as u64;
        for name in ["core.stem_steps", "core.stem_frames", "core.stem_micros"] {
            let h = m
                .histogram(name)
                .unwrap_or_else(|| panic!("{name} missing"));
            assert_eq!(h.count(), stems, "{name}");
        }
        // Steps are real queue pops even with no budget configured, and
        // every enqueued implication is eventually popped (or dropped at
        // trip time — not here, unlimited budget), so the enqueued counter
        // matches the step histogram's mass.
        assert!(m.histogram("core.stem_steps").unwrap().sum() > 0);
        assert_eq!(
            m.counter("core.implications_enqueued"),
            m.histogram("core.stem_steps").unwrap().sum()
        );
        // Phase breakdown: all three phases present, attribution within
        // the total (single clock, serial run).
        let pt = report.phase_times();
        for name in [
            phase::IMPLICATION,
            phase::UNOBSERVABILITY,
            phase::VALIDATION,
        ] {
            assert!(pt.phases.iter().any(|(n, _)| n == name), "{name} missing");
        }
        let named: std::time::Duration = pt.phases.iter().map(|(_, d)| *d).sum();
        assert!(named <= pt.total);
        assert_eq!(report.elapsed(), pt.total);
    }

    #[test]
    fn profile_attributes_steps_to_named_rules() {
        use fires_obs::ALL_RULES;
        let circuit = bench::parse(
            "INPUT(a)\nINPUT(b)\nOUTPUT(d)\nOUTPUT(c)\nOUTPUT(z)\nOUTPUT(x)\n\
             q = DFF(a)\nbq = DFF(a)\nc = DFF(a)\nd = AND(bq, c)\n\
             n = NOT(b)\nz = AND(b, n)\nw = OR(q, z)\nOUTPUT(w)\n\
             x = XOR(b, n)\n",
        )
        .unwrap();
        let fires = Fires::new(&circuit, FiresConfig::default());
        let never = CancelToken::never();
        let mut ctx = StemCtx::new();
        let mut merged = fires_obs::RuleProfile::new();
        for s in fires.stems() {
            let f = fires.run_stem(s, &mut ctx, &never).unwrap().into_findings();
            assert!(!f.profile.is_empty(), "stem profile must not be empty");
            // The exported gate counters are exactly the profile's
            // deterministic step counts, nothing else.
            for rule in ALL_RULES {
                assert_eq!(
                    f.metrics.counter(&format!("core.rule.{}", rule.name())),
                    f.profile.steps(rule),
                    "{}",
                    rule.name()
                );
            }
            assert_eq!(
                f.metrics.counter("core.rule.unattributed"),
                f.profile.unattributed_steps()
            );
            merged.merge(&f.profile);
        }
        let total = merged.total_steps();
        let attributed = merged.attributed_steps();
        assert!(total > 0, "no steps recorded");
        // The acceptance bar: at least 95% of recorded implication steps
        // land in named (rule, gate type, direction) buckets.
        assert!(
            attributed * 100 >= total * 95,
            "only {attributed}/{total} steps attributed"
        );
        // Apportioned wall-clock never exceeds what was measured, and the
        // folded export carries every nonzero bucket.
        assert!(merged.total_nanos() > 0 || merged.entries().count() == 0);
        let folded = merged.folded_lines("stems");
        for line in folded.lines() {
            let (stack, count) = line.rsplit_once(' ').expect("folded shape");
            assert!(stack.starts_with("stems;"), "{line}");
            assert!(count.parse::<u64>().is_ok(), "{line}");
        }
        assert!(folded.lines().count() >= merged.entries().count());
        // The hit rate is undefined until the stem-merge side condition
        // first probes the cache; when defined it is a proper ratio.
        if let Some(rate) = merged.dist_hit_rate() {
            assert!((0.0..=1.0).contains(&rate));
        }
    }

    #[test]
    fn run_report_round_trips_through_json() {
        let circuit = bench::parse("INPUT(a)\nOUTPUT(z)\nn = NOT(a)\nz = AND(a, n)\n").unwrap();
        let report = Fires::new(&circuit, FiresConfig::default()).run();
        let rr = report.run_report("fires-core/test", "fire-example");
        let text = rr.to_json_string();
        let back = fires_obs::RunReport::from_json_str(&text).unwrap();
        assert_eq!(back, rr);
        assert_eq!(
            back.extra
                .get("identified_faults")
                .and_then(fires_obs::Json::as_u64),
            Some(report.len() as u64)
        );
    }

    #[test]
    fn run_stem_assembles_to_the_same_report_as_run() {
        let circuit = bench::parse(
            "INPUT(a)\nINPUT(b)\nOUTPUT(d)\nOUTPUT(c)\nOUTPUT(z)\n\
             q = DFF(a)\nbq = DFF(a)\nc = DFF(a)\nd = AND(bq, c)\n\
             n = NOT(b)\nz = AND(b, n)\nw = OR(q, z)\nOUTPUT(w)\n",
        )
        .unwrap();
        let fires = Fires::new(&circuit, FiresConfig::default());
        let whole = fires.run();
        let never = CancelToken::never();
        // Stem-granular with a shared context, in canonical order.
        let mut ctx = StemCtx::new();
        let findings: Vec<StemFindings> = fires
            .stems()
            .into_iter()
            .map(|s| {
                let outcome = fires.run_stem(s, &mut ctx, &never).unwrap();
                assert!(outcome.is_complete(), "unlimited budget never exhausts");
                outcome.into_findings()
            })
            .collect();
        let report = fires.assemble_report(findings);
        assert_eq!(report.display_faults(), whole.display_faults());
        assert_eq!(report.stems_processed(), whole.stems_processed());
        assert_eq!(report.marks_created(), whole.marks_created());
        assert_eq!(report.max_frames_used(), whole.max_frames_used());
        // Reversed order, fresh context per stem: identical merged result.
        let reversed: Vec<StemFindings> = fires
            .stems()
            .into_iter()
            .rev()
            .map(|s| {
                fires
                    .run_stem(s, &mut StemCtx::new(), &never)
                    .unwrap()
                    .into_findings()
            })
            .collect();
        let report2 = fires.assemble_report(reversed);
        assert_eq!(report2.redundant_faults(), report.redundant_faults());
    }

    #[test]
    fn run_stem_rejects_non_fanout_stems() {
        let circuit = bench::parse("INPUT(a)\nOUTPUT(z)\nn = NOT(a)\nz = AND(a, n)\n").unwrap();
        let fires = Fires::new(&circuit, FiresConfig::default());
        let never = CancelToken::never();
        let mut ctx = StemCtx::new();
        // `z` does not fan out; out-of-range ids are rejected too.
        let z = fires.lines().stem_of(circuit.find("z").unwrap());
        assert!(matches!(
            fires.run_stem(z, &mut ctx, &never),
            Err(crate::CoreError::NotAFanoutStem { .. })
        ));
        let bogus = LineId::new(10_000);
        assert!(matches!(
            fires.run_stem(bogus, &mut ctx, &never),
            Err(crate::CoreError::NotAFanoutStem { .. })
        ));
    }

    #[test]
    fn cancelled_token_interrupts_run_stem() {
        let circuit = bench::parse("INPUT(a)\nOUTPUT(z)\nn = NOT(a)\nz = AND(a, n)\n").unwrap();
        let fires = Fires::new(&circuit, FiresConfig::default());
        let stem = fires.stems()[0];
        let token = CancelToken::new();
        token.cancel();
        match fires.run_stem(stem, &mut StemCtx::new(), &token) {
            Err(crate::CoreError::Interrupted { stem: s }) => assert_eq!(s, stem),
            other => panic!(
                "expected interruption, got {:?}",
                other.map(|o| o.into_findings().faults)
            ),
        }
    }

    #[test]
    fn tiny_budget_exhausts_a_stem_and_keeps_partials() {
        // The counter-style feedback circuit generates enough fixpoint
        // steps to blow a deliberately tiny step budget.
        let circuit = bench::parse(
            "INPUT(en)\nOUTPUT(po)\nq0 = DFF(t0)\nt0 = AND(q0, en)\n\
             n0 = NOT(q0)\nq1 = DFF(t1)\nt1 = AND(q1, n0)\npo = OR(q0, q1)\n",
        )
        .unwrap();
        let fires = Fires::new(&circuit, FiresConfig::with_max_frames(8));
        let stem = fires.stems()[0];
        let never = CancelToken::never();
        let mut ctx = StemCtx::with_budget(Budget::unlimited().with_max_steps(3));
        let outcome = fires.run_stem(stem, &mut ctx, &never).unwrap();
        let StemOutcome::Exhausted { partial, reason } = outcome else {
            panic!("3-step budget must exhaust this stem");
        };
        assert_eq!(reason, ExhaustionReason::Steps);
        assert_eq!(partial.exhausted, Some(ExhaustionReason::Steps));
        assert!(partial.marks >= 2, "the two assumptions survive");
        // Same budget, fresh context: identical partial outcome.
        let mut ctx2 = StemCtx::with_budget(Budget::unlimited().with_max_steps(3));
        let again = fires.run_stem(stem, &mut ctx2, &never).unwrap();
        assert_eq!(again.exhaustion(), Some(ExhaustionReason::Steps));
        assert_eq!(again.findings().marks, partial.marks);
        assert_eq!(again.findings().faults, partial.faults);
        // A generous budget completes and reports no exhaustion.
        let mut ctx3 = StemCtx::with_budget(Budget::unlimited().with_max_steps(1_000_000));
        assert!(fires
            .run_stem(stem, &mut ctx3, &never)
            .unwrap()
            .is_complete());
    }

    #[test]
    fn exhausted_findings_never_contribute_to_the_report() {
        let circuit = bench::parse("INPUT(a)\nOUTPUT(z)\nn = NOT(a)\nz = AND(a, n)\n").unwrap();
        let fires = Fires::new(&circuit, FiresConfig::default());
        let never = CancelToken::never();
        let stem = fires.stems()[0];
        let complete = fires
            .run_stem(stem, &mut StemCtx::new(), &never)
            .unwrap()
            .into_findings();
        assert!(!complete.faults.is_empty(), "test needs identified faults");
        // Forge an exhausted copy of the same findings: the merge must
        // drop its faults but keep its statistics.
        let mut partial = complete.clone();
        partial.exhausted = Some(ExhaustionReason::Steps);
        let report = fires.assemble_report(vec![partial]);
        assert!(report.is_empty(), "{:?}", report.display_faults());
        assert_eq!(report.stems_processed(), 1);
        assert_eq!(report.marks_created(), complete.marks);
        // The complete findings still merge as before.
        let report = fires.assemble_report(vec![complete.clone()]);
        assert_eq!(report.len(), complete.faults.len());
    }

    /// A real budget-exhausted stem counts once in the assembled report:
    /// `process_stem` records it, and the merge only sums.
    #[test]
    fn exhausted_stem_is_counted_once_in_the_report() {
        let circuit = bench::parse(
            "INPUT(en)\nOUTPUT(po)\nq0 = DFF(t0)\nt0 = AND(q0, en)\n\
             n0 = NOT(q0)\nq1 = DFF(t1)\nt1 = AND(q1, n0)\npo = OR(q0, q1)\n",
        )
        .unwrap();
        let fires = Fires::new(&circuit, FiresConfig::with_max_frames(8));
        let mut ctx = StemCtx::with_budget(Budget::unlimited().with_max_steps(3));
        let outcome = fires
            .run_stem(fires.stems()[0], &mut ctx, &CancelToken::never())
            .unwrap();
        assert!(
            !outcome.is_complete(),
            "3-step budget must exhaust this stem"
        );
        let partial = outcome.into_findings();
        assert_eq!(partial.metrics.counter("core.exhausted_stems"), 1);
        let report = fires.assemble_report(vec![partial]);
        assert_eq!(report.metrics().counter("core.exhausted_stems"), 1);
    }

    /// `run().elapsed()` is the run's compute time: the per-stem totals
    /// plus the merge, so it covers every phase the stems recorded and,
    /// on one thread, never exceeds the wall clock around the run.
    #[test]
    fn run_elapsed_covers_the_phase_durations() {
        let circuit = bench::parse(
            "INPUT(a)\nINPUT(b)\nOUTPUT(d)\nOUTPUT(c)\nOUTPUT(z)\n\
             q = DFF(a)\nbq = DFF(a)\nc = DFF(a)\nd = AND(bq, c)\n\
             n = NOT(b)\nz = AND(b, n)\nw = OR(q, z)\nOUTPUT(w)\n",
        )
        .unwrap();
        let fires = Fires::new(&circuit, FiresConfig::default());
        let started = std::time::Instant::now();
        let report = fires.run();
        let wall = started.elapsed();
        let phases: std::time::Duration = report.phase_times().phases.iter().map(|(_, d)| *d).sum();
        assert!(report.elapsed() > std::time::Duration::ZERO);
        assert!(report.elapsed() >= phases, "{:?}", report.phase_times());
        assert!(
            report.elapsed() <= wall,
            "{:?} > {wall:?}",
            report.elapsed()
        );
    }

    #[test]
    fn try_new_rejects_bad_config() {
        let circuit = bench::parse("INPUT(a)\nOUTPUT(z)\nz = NOT(a)\n").unwrap();
        assert!(Fires::try_new(&circuit, FiresConfig::default()).is_ok());
        assert!(matches!(
            Fires::try_new(&circuit, FiresConfig::with_max_frames(0)),
            Err(crate::CoreError::InvalidConfig { .. })
        ));
    }
}
