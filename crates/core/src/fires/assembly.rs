//! Fault-set assembly on the engine's bit planes (paper Section 5.2).
//!
//! For stuck value `s` in frame `f`, a process's candidate set is
//! `unc_bits[f][!s] | unobs_bits[f]`: a mark "this line cannot be `!s`"
//! makes s-a-`s` unactivatable, and an unobservable line hides both stuck
//! values. The two processes' sets `S_0^f ∩ S_1^f` then meet in one word
//! AND per 64 lines, and a candidate's support (`min_unc_frame`) is only
//! looked up at intersection hits.
//!
//! Definition-6 validation is split in two. The fast path decides, per
//! process and fault, whether *any* mark contradicts the fault: one bit
//! test per forced-closure line against the process's "can this line
//! ever be `v`" planes (ORed across frames), plus the cut-edge test. A
//! fault without such a mark accepts all its candidates at once. Only
//! faults with a contradicting mark take the slow path. Their checks are
//! listed in a canonical order (marks by id, then unobservability
//! indicators by `(line, frame)`), which alone decides the faults that get
//! one of the [`SWEEP_CAP`] invalidity sweeps, so which candidates the cap
//! drops is a pure function of the process; the sweeps then run 64 to a
//! word.

use fires_netlist::{Fault, GateKind, LineId, StuckValue};
use fires_obs::RunMetrics;

use super::{cut_edge_marks, on_driver_side, Fires, VALIDATION_POLL_STRIDE};
use crate::cancel::CancelToken;
use crate::engine::{bit_is_set, set_bit, Implications, IndicatorView, MarkId, SetBits, Unc};
use crate::report::IdentifiedFault;
use crate::window::Frame;
use crate::ValidationPolicy;

/// Upper bound on full invalidity sweeps per process. A sweep costs
/// O(marks); on pathological processes where thousands of distinct faults
/// each contradict some indicator, capping keeps the run polynomial —
/// candidates beyond the cap are conservatively rejected (and counted in
/// `core.validation_cap_drops`).
pub(super) const SWEEP_CAP: usize = 512;

/// Upper bound on the lines of one forced-line closure. A fault whose
/// closure is larger is rejected conservatively (also a cap drop).
const FORCED_CAP: usize = 512;

/// The stuck value with index `s` (0 = s-a-0, 1 = s-a-1).
fn stuck(s: usize) -> StuckValue {
    StuckValue::from_bool(s == 1)
}

fn clear_bit(bits: &mut [u64], index: usize) {
    bits[index / 64] &= !(1u64 << (index % 64));
}

/// Zeroes `bits` and sizes it to `words`, keeping its allocation.
fn reset(bits: &mut Vec<u64>, words: usize) {
    bits.clear();
    bits.resize(words, 0);
}

/// Reusable fault-set assembly state, carried in a
/// [`StemCtx`](super::StemCtx): the circuit-static forced-line closures,
/// plus per-process bitsets and sweep buffers that every stem overwrites,
/// so steady-state stems allocate only their findings (and the slow
/// path's per-sweep seed lists).
#[derive(Default)]
pub(super) struct Assembly {
    forced: ForcedCache,
    sets: [FaultSets; 2],
    gate: ValidityGate,
    sweeps: Sweeps,
}

/// One process's accepted candidates, as bitsets over lines per (frame,
/// stuck value). Mark and unobservability candidates are kept apart
/// because a candidate's support combines only the accepted ones.
#[derive(Default)]
struct FaultSets {
    left: Frame,
    right: Frame,
    words: usize,
    /// `mark[(fi * 2 + s) * words..]`: lines whose mark for s-a-`s` in
    /// frame `left + fi` was accepted.
    mark: Vec<u64>,
    /// Same layout: accepted unobservability candidates.
    unobs: Vec<u64>,
}

impl FaultSets {
    fn range(&self, frame: Frame, s: usize) -> std::ops::Range<usize> {
        let start = ((frame - self.left) as usize * 2 + s) * self.words;
        start..start + self.words
    }

    /// Copies the process's planes in as the (not yet validated) candidate
    /// sets; returns `(marks, unobservability indicators)` counted from the
    /// bits.
    fn load(&mut self, imp: &Implications<'_>) -> (u64, u64) {
        let window = imp.window();
        self.left = window.leftmost();
        self.right = window.rightmost();
        self.words = imp.plane_words();
        let len = window.len() * 2 * self.words;
        reset(&mut self.mark, len);
        reset(&mut self.unobs, len);
        let (mut marks, mut unobs) = (0, 0);
        for frame in self.left..=self.right {
            let Some(p) = imp.frame_planes(frame) else {
                continue; // no indicator in this frame: the sets stay 0
            };
            for s in 0..2 {
                let r = self.range(frame, s);
                self.mark[r.clone()].copy_from_slice(p.unc_bits[1 - s]);
                self.unobs[r].copy_from_slice(p.unobs_bits);
            }
            marks += popcount(p.unc_bits[0]) + popcount(p.unc_bits[1]);
            unobs += popcount(p.unobs_bits);
        }
        (marks, unobs)
    }

    /// The support of the accepted candidate `(line, s)` at `frame`: the
    /// larger of its accepted sources' leftmost derivation frames.
    fn support(&self, imp: &Implications<'_>, frame: Frame, s: usize, line: usize) -> Frame {
        let r = self.range(frame, s);
        let id = LineId::new(line);
        let from_mark = bit_is_set(&self.mark[r.clone()], line).then(|| {
            let m = imp
                .unc_mark(id, frame, Unc::cannot_be(s == 0))
                .expect("candidate bit implies a mark");
            imp.min_frame_of(m)
        });
        let from_unobs = bit_is_set(&self.unobs[r], line).then(|| {
            imp.blame(id, frame)
                .iter()
                .map(|&b| imp.min_frame_of(b))
                .min()
                .unwrap_or(frame)
        });
        from_mark
            .into_iter()
            .chain(from_unobs)
            .max()
            .expect("hit implies a candidate")
    }
}

fn popcount(bits: &[u64]) -> u64 {
    bits.iter().map(|w| u64::from(w.count_ones())).sum()
}

/// Per-process "has a contradicting mark" bits, one bitset over lines per
/// stuck value, and the planes they are computed from.
#[derive(Default)]
struct ValidityGate {
    /// `ever[v]`: lines that cannot be `v` in some frame of the window.
    ever: [Vec<u64>; 2],
    /// Lines unobservable in some frame of the window.
    ever_unobs: Vec<u64>,
    /// `slow[s]`: faults `(line, s)` with a contradicting mark.
    slow: [Vec<u64>; 2],
    /// `slow[0] | slow[1]`.
    slow_any: Vec<u64>,
    /// Lines with a cut edge: faults on them contradict a mark whatever
    /// their stuck value.
    cut: Vec<u64>,
    /// `overflow[s]`: faults `(line, s)` whose forced closure overflowed.
    overflow: [Vec<u64>; 2],
}

/// Rejections found by validating one process.
#[derive(Default)]
struct Rejects {
    total: u64,
    /// The subset caused by [`SWEEP_CAP`] or [`FORCED_CAP`].
    cap_drops: u64,
}

impl Rejects {
    fn add(&mut self, verdict: Verdict) {
        self.total += u64::from(verdict != Verdict::Valid);
        self.cap_drops += u64::from(verdict == Verdict::Dropped);
    }
}

impl Fires<'_> {
    /// Intersects the two processes' fault sets into the stem's findings:
    /// one entry per fault (the minimum `(c, stem, frame)`, as
    /// [`merge_candidate`](crate::merge_candidate) folds), sorted by
    /// `(line, stuck)`, plus the number of `S_0 ∩ S_1` hits. Records the
    /// validation counters and the blame-set histogram in `metrics`.
    /// Returns `None` if `cancel` fired.
    ///
    /// `sweep_cap` is [`SWEEP_CAP`] in production; tests lower it to
    /// exercise conservative drops.
    #[allow(clippy::too_many_arguments)]
    pub(super) fn assemble(
        &self,
        p0: &Implications<'_>,
        p1: &Implications<'_>,
        stem: LineId,
        asm: &mut Assembly,
        metrics: &mut RunMetrics,
        cancel: &CancelToken,
        sweep_cap: usize,
    ) -> Option<(Vec<IdentifiedFault>, usize)> {
        for (k, imp) in [p0, p1].into_iter().enumerate() {
            let (marks, unobs) = asm.sets[k].load(imp);
            debug_assert_eq!(marks, imp.num_marks() as u64, "every mark lives in a plane");
            for (_, _, blame) in imp.unobs_iter() {
                metrics.observe("core.blame_set_size", blame.len() as u64);
            }
            let rejects = if self.config.validate {
                self.validate(imp, asm, k, cancel, sweep_cap)?
            } else {
                Rejects::default()
            };
            // Every mark is one candidate, every unobservable line two.
            // A zero count is not recorded: an `incr` creates the counter,
            // and a counter no candidate bumped stays absent from reports.
            let accepts = marks + 2 * unobs - rejects.total;
            for (name, n) in [
                ("core.validation_accepts", accepts),
                ("core.validation_rejects", rejects.total),
                ("core.validation_cap_drops", rejects.cap_drops),
            ] {
                if n > 0 {
                    metrics.incr(name, n);
                }
            }
        }
        intersect(&asm.sets, p0, p1, stem, cancel)
    }

    /// Clears the rejected candidates of process `k` from its fault sets.
    fn validate(
        &self,
        imp: &Implications<'_>,
        asm: &mut Assembly,
        k: usize,
        cancel: &CancelToken,
        sweep_cap: usize,
    ) -> Option<Rejects> {
        let Assembly {
            forced,
            sets,
            gate,
            sweeps,
        } = asm;
        let sets = &mut sets[k];
        let any_slow = self.classify(imp, forced, gate);
        let mut rejects = Rejects::default();
        // An overflowed closure rejects every candidate of its fault that
        // needs a check: all but unobservability candidates with an empty
        // blame set, which are valid unconditionally.
        for s in 0..2 {
            for line in SetBits::new(&gate.overflow[s]) {
                for frame in sets.left..=sets.right {
                    let r = sets.range(frame, s);
                    if bit_is_set(&sets.mark[r.clone()], line) {
                        clear_bit(&mut sets.mark[r.clone()], line);
                        rejects.add(Verdict::Dropped);
                    }
                    if bit_is_set(&sets.unobs[r.clone()], line)
                        && !imp.blame(LineId::new(line), frame).is_empty()
                    {
                        clear_bit(&mut sets.unobs[r], line);
                        rejects.add(Verdict::Dropped);
                    }
                }
            }
        }
        if !any_slow {
            return Some(rejects);
        }
        // The slow candidates in canonical order: marks by id, then
        // unobservability indicators by (line, frame), s-a-0 before s-a-1.
        // That order alone decides which (fault, key frame) pairs get one
        // of the `sweep_cap` sweeps, so it is fixed before any sweep runs.
        sweeps.begin(self, imp, sweep_cap);
        let mut since_poll = 0u32;
        let mut poll = || {
            since_poll += 1;
            if since_poll >= VALIDATION_POLL_STRIDE {
                since_poll = 0;
                return cancel.is_cancelled();
            }
            false
        };
        for id in imp.mark_ids() {
            if poll() {
                return None;
            }
            let m = imp.mark(id);
            let s = usize::from(!m.unc.value());
            if bit_is_set(&gate.slow[s], m.line.index()) {
                sweeps.push(m.line, m.frame, s, Some(id));
            }
        }
        for line in SetBits::new(&gate.slow_any) {
            let id = LineId::new(line);
            for frame in sets.left..=sets.right {
                if poll() {
                    return None;
                }
                // No indicator, or one with an empty blame set, which
                // needs no check: always valid.
                if imp.blame(id, frame).is_empty() {
                    continue;
                }
                for s in 0..2 {
                    if bit_is_set(&gate.slow[s], line) {
                        sweeps.push(id, frame, s, None);
                    }
                }
            }
        }
        sweeps.run(self, imp, forced);
        for cand in &sweeps.cands {
            let verdict = sweeps.verdict(imp, cand);
            if verdict != Verdict::Valid {
                let r = sets.range(cand.frame, cand.s);
                let bits = match cand.root {
                    Some(_) => &mut sets.mark[r],
                    None => &mut sets.unobs[r],
                };
                clear_bit(bits, cand.line.index());
            }
            rejects.add(verdict);
        }
        Some(rejects)
    }

    /// Fills `gate.slow` and `gate.overflow` for every candidate fault of
    /// the process; returns whether any fault is slow.
    fn classify(
        &self,
        imp: &Implications<'_>,
        forced: &mut ForcedCache,
        gate: &mut ValidityGate,
    ) -> bool {
        let words = imp.plane_words();
        for bits in gate
            .ever
            .iter_mut()
            .chain([&mut gate.ever_unobs])
            .chain(gate.slow.iter_mut())
            .chain([&mut gate.slow_any, &mut gate.cut])
            .chain(gate.overflow.iter_mut())
        {
            reset(bits, words);
        }
        let window = imp.window();
        for frame in window.leftmost()..=window.rightmost() {
            let Some(p) = imp.frame_planes(frame) else {
                continue;
            };
            for v in 0..2 {
                for (e, &b) in gate.ever[v].iter_mut().zip(p.unc_bits[v]) {
                    *e |= b;
                }
            }
            for (e, &b) in gate.ever_unobs.iter_mut().zip(p.unobs_bits) {
                *e |= b;
            }
        }
        // Lines a derivation crosses against the signal flow: `m` such
        // that some mark on `m`'s driver side has a parent on `m` (the
        // marks [`cut_edge_marks`] lists).
        for id in imp.mark_ids() {
            let m = imp.mark(id);
            for &p in m.parents {
                let on = imp.mark(p).line;
                if on_driver_side(self, on, m.line) {
                    set_bit(&mut gate.cut, on.index());
                }
            }
        }
        let mut any_slow = false;
        for w in 0..words {
            let unobs = gate.ever_unobs[w];
            // Candidates for s-a-s: marks "cannot be !s" or unobservable.
            let cand = [gate.ever[1][w] | unobs, gate.ever[0][w] | unobs];
            let mut word = cand[0] | cand[1];
            while word != 0 {
                let bit = word.trailing_zeros() as usize;
                word &= word - 1;
                let line = w * 64 + bit;
                let cut = gate.cut[w] >> bit & 1 == 1;
                for (s, cand) in cand.into_iter().enumerate() {
                    if cand >> bit & 1 == 0 {
                        continue;
                    }
                    let fault = Fault::new(LineId::new(line), stuck(s));
                    let Some(closure) = forced.get(self, fault) else {
                        set_bit(&mut gate.overflow[s], line);
                        continue;
                    };
                    let contradicted = cut
                        || closure.iter().any(|&(l, pinned)| {
                            (0..2).any(|v| pinned[v] && bit_is_set(&gate.ever[v], l.index()))
                        });
                    if contradicted {
                        set_bit(&mut gate.slow[s], line);
                        set_bit(&mut gate.slow_any, line);
                        any_slow = true;
                    }
                }
            }
        }
        any_slow
    }
}

/// `S_0 ∩ S_1` over the frames both windows share, folded per fault.
fn intersect(
    sets: &[FaultSets; 2],
    p0: &Implications<'_>,
    p1: &Implications<'_>,
    stem: LineId,
    cancel: &CancelToken,
) -> Option<(Vec<IdentifiedFault>, usize)> {
    let [a, b] = sets;
    let (lo, hi) = (a.left.max(b.left), a.right.min(b.right));
    let mut faults = Vec::new();
    let mut found = 0usize;
    // The best candidate so far per (stuck, bit of the current word).
    let mut best: [[Option<IdentifiedFault>; 64]; 2] = [[None; 64]; 2];
    for w in 0..a.words {
        if w % 64 == 63 && cancel.is_cancelled() {
            return None;
        }
        let mut touched = 0u64;
        for frame in lo..=hi {
            for (s, best) in best.iter_mut().enumerate() {
                let (ra, rb) = (a.range(frame, s), b.range(frame, s));
                let mut hits = (a.mark[ra.start + w] | a.unobs[ra.start + w])
                    & (b.mark[rb.start + w] | b.unobs[rb.start + w]);
                found += hits.count_ones() as usize;
                touched |= hits;
                while hits != 0 {
                    let bit = hits.trailing_zeros() as usize;
                    hits &= hits - 1;
                    let line = w * 64 + bit;
                    let l = a
                        .support(p0, frame, s, line)
                        .min(b.support(p1, frame, s, line));
                    let cand = IdentifiedFault {
                        fault: Fault::new(LineId::new(line), stuck(s)),
                        c: if l < frame { (frame - l) as u32 } else { 0 },
                        frame,
                        stem,
                    };
                    let slot = &mut best[bit];
                    if slot.is_none_or(|e| cand.wins_over(&e)) {
                        *slot = Some(cand);
                    }
                }
            }
        }
        while touched != 0 {
            let bit = touched.trailing_zeros() as usize;
            touched &= touched - 1;
            faults.extend(best.iter_mut().filter_map(|b| b[bit].take()));
        }
    }
    Some((faults, found))
}

/// A validity verdict for one candidate's derivation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Verdict {
    Valid,
    /// A contradicting mark is among the derivation's ancestors.
    Invalid,
    /// Rejected unchecked because a cap was hit.
    Dropped,
}

/// One validity check of the slow path: a candidate of a fault that has
/// a contradicting mark.
struct SlowCand {
    line: LineId,
    frame: Frame,
    s: usize,
    /// The candidate's mark, or `None` for an unobservability candidate
    /// (whose derivation roots are its blame set).
    root: Option<MarkId>,
    /// Index of the sweep that decides it, or `None` when the sweep cap
    /// dropped it.
    sweep: Option<usize>,
}

/// Definition-6 validity for the candidates of faults that have a
/// contradicting mark. A sweep for one (fault, key frame) marks every
/// descendant of the fault's contradicting marks invalid, in one pass
/// over the marks in derivation order; at most `cap` sweeps run per
/// process, given to keys in the order their candidates are checked.
/// The sweeps run 64 to a word: `inv[mark * words + k / 64]` holds bit
/// `k % 64` when `mark` is invalid under sweep `k`.
#[derive(Default)]
struct Sweeps {
    cap: usize,
    earlier_frames: bool,
    left: Frame,
    frames: usize,
    cands: Vec<SlowCand>,
    /// The swept keys in first-check order.
    keys: Vec<(Fault, Frame)>,
    /// Dense key index → sweep index (`usize::MAX`: none yet).
    sweep_of: Vec<usize>,
    /// The `sweep_of` entries to reset before the next process.
    touched: Vec<usize>,
    words: usize,
    inv: Vec<u64>,
}

impl Sweeps {
    fn begin(&mut self, fires: &Fires<'_>, imp: &Implications<'_>, cap: usize) {
        for &i in &self.touched {
            self.sweep_of[i] = usize::MAX;
        }
        self.touched.clear();
        self.cands.clear();
        self.keys.clear();
        self.cap = cap;
        // Under the default AnyFrame policy validity does not depend on
        // the reference frame: the key collapses to the fault, so the
        // sweep runs once per fault.
        self.earlier_frames = fires.config.validation_policy == ValidationPolicy::EarlierFrames;
        self.left = imp.window().leftmost();
        self.frames = if self.earlier_frames {
            imp.window().len()
        } else {
            1
        };
        let len = fires.lines.num_lines() * 2 * self.frames;
        if self.sweep_of.len() < len {
            self.sweep_of.resize(len, usize::MAX);
        }
    }

    /// Queues the check of candidate `(line, s)` at `frame`, giving its key
    /// a sweep if it is new and the cap allows.
    fn push(&mut self, line: LineId, frame: Frame, s: usize, root: Option<MarkId>) {
        let (key_frame, fi) = if self.earlier_frames {
            (frame, (frame - self.left) as usize)
        } else {
            (Frame::MIN, 0)
        };
        let index = (line.index() * 2 + s) * self.frames + fi;
        if self.sweep_of[index] == usize::MAX && self.keys.len() < self.cap {
            self.sweep_of[index] = self.keys.len();
            self.touched.push(index);
            self.keys.push((Fault::new(line, stuck(s)), key_frame));
        }
        let sweep = Some(self.sweep_of[index]).filter(|&k| k != usize::MAX);
        self.cands.push(SlowCand {
            line,
            frame,
            s,
            root,
            sweep,
        });
    }

    /// Runs every queued sweep: seeds each with the marks its fault
    /// contradicts (in frames before the key frame under EarlierFrames)
    /// and the marks derived across the faulty line against the signal
    /// flow, then propagates to descendants in one pass.
    fn run(&mut self, fires: &Fires<'_>, imp: &Implications<'_>, forced: &mut ForcedCache) {
        self.words = self.keys.len().div_ceil(64);
        let words = self.words;
        self.inv.clear();
        self.inv.resize(imp.num_marks() * words, 0);
        for (k, &(fault, key_frame)) in self.keys.iter().enumerate() {
            let closure = forced
                .get(fires, fault)
                .expect("slow faults have a closure");
            for id in bad_marks(imp, closure, key_frame)
                .into_iter()
                .chain(cut_edge_marks(fires, imp, fault))
            {
                self.inv[id.index() * words + k / 64] |= 1u64 << (k % 64);
            }
        }
        if words == 0 {
            return;
        }
        for i in 0..imp.num_marks() {
            for &p in imp.mark(MarkId::from_index(i)).parents {
                for w in 0..words {
                    self.inv[i * words + w] |= self.inv[p.index() * words + w];
                }
            }
        }
    }

    fn invalid(&self, mark: MarkId, sweep: usize) -> bool {
        self.inv[mark.index() * self.words + sweep / 64] >> (sweep % 64) & 1 == 1
    }

    fn verdict(&self, imp: &Implications<'_>, cand: &SlowCand) -> Verdict {
        let Some(k) = cand.sweep else {
            return Verdict::Dropped;
        };
        let invalid = match cand.root {
            Some(id) => self.invalid(id, k),
            None => imp
                .blame(cand.line, cand.frame)
                .iter()
                .any(|&b| self.invalid(b, k)),
        };
        if invalid {
            Verdict::Invalid
        } else {
            Verdict::Valid
        }
    }
}

/// The indicators the fault falsifies: marks claiming a line cannot take
/// the very value the fault pins it to. With `key_frame != Frame::MIN`
/// (EarlierFrames policy) only frames before the reference count.
fn bad_marks(
    imp: &Implications<'_>,
    forced: &[(LineId, [bool; 2])],
    key_frame: Frame,
) -> Vec<MarkId> {
    let window = imp.window();
    let frames = window.leftmost()..=window.rightmost();
    let frames = frames.filter(|&f| key_frame == Frame::MIN || f < key_frame);
    let mut bad = Vec::new();
    for &(line, pinned) in forced {
        for v in [false, true] {
            if pinned[v as usize] {
                bad.extend(
                    frames
                        .clone()
                        .filter_map(|f| imp.unc_mark(line, f, Unc::cannot_be(v))),
                );
            }
        }
    }
    bad
}

/// Per-fault forced-line closures, computed on first use and kept for the
/// context's lifetime (they are circuit-static, so every stem and process
/// shares them).
#[derive(Default)]
struct ForcedCache {
    /// Indexed by `line * 2 + stuck`.
    closures: Vec<Closure>,
    /// Per-line "pinned to 0 / to 1" flag bits while a closure is being
    /// computed; all 0 between computations.
    pinned: Vec<u8>,
}

#[derive(Default)]
enum Closure {
    #[default]
    Unknown,
    /// More than [`FORCED_CAP`] lines: the fault is rejected.
    Overflow,
    /// The lines the fault pins, sorted, each with the value(s) it pins
    /// them to.
    Lines(Vec<(LineId, [bool; 2])>),
}

impl ForcedCache {
    /// The closure of `fault`, or `None` if it overflowed [`FORCED_CAP`].
    fn get(&mut self, fires: &Fires<'_>, fault: Fault) -> Option<&[(LineId, [bool; 2])]> {
        let lines = fires.lines.num_lines();
        if self.closures.len() < lines * 2 {
            self.closures.resize_with(lines * 2, Closure::default);
            self.pinned.resize(lines, 0);
        }
        let slot = fault.line.index() * 2 + usize::from(fault.stuck.as_bool());
        if matches!(self.closures[slot], Closure::Unknown) {
            self.closures[slot] = self.compute(fires, fault);
        }
        match &self.closures[slot] {
            Closure::Lines(lines) => Some(lines),
            _ => None,
        }
    }

    /// The set of lines whose value the fault pins to a constant, found by
    /// closing over same-net copies, single-input gates, controlling-value
    /// domination and flip-flop crossings. Overflowing the cap sacrifices
    /// completeness on pathological fanout but never soundness.
    fn compute(&mut self, fires: &Fires<'_>, fault: Fault) -> Closure {
        let mut touched: Vec<LineId> = Vec::new();
        let mut stack = vec![(fault.line, fault.stuck.as_bool())];
        let mut overflow = false;
        while let Some((l, v)) = stack.pop() {
            if touched.len() >= FORCED_CAP {
                overflow = true;
                break;
            }
            let flags = &mut self.pinned[l.index()];
            if *flags == 0 {
                touched.push(l);
            }
            let bit = 1u8 << u8::from(v);
            if *flags & bit != 0 {
                continue;
            }
            *flags |= bit;
            let line = fires.lines.line(l);
            for &b in line.branches() {
                stack.push((b, v));
            }
            if let Some((sink, _)) = line.sink_pin() {
                let kind = fires.circuit.node(sink).kind();
                let out = fires.lines.stem_of(sink);
                match kind {
                    GateKind::Buf | GateKind::Dff => stack.push((out, v)),
                    GateKind::Not => stack.push((out, !v)),
                    GateKind::And | GateKind::Nand | GateKind::Or | GateKind::Nor
                        if Some(v) == kind.controlling_value() =>
                    {
                        stack.push((out, v ^ kind.is_inverting()));
                    }
                    _ => {}
                }
            }
        }
        touched.sort_unstable();
        let closure = touched
            .iter()
            .map(|&l| {
                let flags = std::mem::take(&mut self.pinned[l.index()]);
                (l, [flags & 1 != 0, flags & 2 != 0])
            })
            .collect();
        if overflow {
            Closure::Overflow
        } else {
            Closure::Lines(closure)
        }
    }
}
