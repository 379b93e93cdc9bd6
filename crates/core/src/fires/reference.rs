//! The `HashMap` fault-set assembly that plane-based assembly replaced,
//! kept as the differential-test oracle for [`super::assembly`].
//!
//! Everything here is the old code path unchanged except for one knob:
//! the sweep cap is a parameter instead of the `SWEEP_CAP` constant, so
//! the oracle can be compared at small caps where conservative drops
//! actually happen. It shares only [`super::cut_edge_marks`] with the
//! production path.

use std::collections::HashMap;

use fires_netlist::{Fault, GateKind, LineId, StuckValue};
use fires_obs::RunMetrics;

use super::{cut_edge_marks, Fires, VALIDATION_POLL_STRIDE};
use crate::cancel::CancelToken;
use crate::engine::{Implications, IndicatorView, MarkId, Unc};
use crate::report::{merge_candidate, IdentifiedFault};
use crate::window::Frame;
use crate::ValidationPolicy;

/// Support info for one fault membership in a per-frame fault set.
#[derive(Clone, Copy, Debug)]
struct Support {
    /// Leftmost frame where uncontrollability must propagate.
    min_unc_frame: Frame,
}

impl Fires<'_> {
    /// The old `process_stem` tail: both processes' fault sets through
    /// [`collect_fault_sets`](Self::collect_fault_sets), intersected by
    /// `HashMap` probe and folded per fault. Returns the stem's faults
    /// sorted by `(line, stuck)` and the intersection size.
    pub(super) fn reference_assemble(
        &self,
        p0: &Implications<'_>,
        p1: &Implications<'_>,
        stem: LineId,
        metrics: &mut RunMetrics,
        sweep_cap: usize,
    ) -> (Vec<IdentifiedFault>, usize) {
        let never = CancelToken::never();
        let mut forced = ForcedCache::default();
        let s0 = self
            .collect_fault_sets(p0, &mut forced, metrics, &never, sweep_cap)
            .expect("never cancelled");
        let s1 = self
            .collect_fault_sets(p1, &mut forced, metrics, &never, sweep_cap)
            .expect("never cancelled");
        let mut best: HashMap<Fault, IdentifiedFault> = HashMap::new();
        let mut found = 0usize;
        for (&(fault, frame), sup0) in &s0 {
            let Some(sup1) = s1.get(&(fault, frame)) else {
                continue;
            };
            let l = sup0.min_unc_frame.min(sup1.min_unc_frame);
            let c = if l < frame { (frame - l) as u32 } else { 0 };
            found += 1;
            // merge_candidate's total order makes the result independent
            // of this HashMap's iteration order.
            merge_candidate(
                &mut best,
                IdentifiedFault {
                    fault,
                    c,
                    frame,
                    stem,
                },
            );
        }
        let mut faults: Vec<IdentifiedFault> = best.into_values().collect();
        faults.sort_by_key(|f| (f.fault.line, f.fault.stuck));
        (faults, found)
    }

    /// Section 5.2: assemble the per-frame fault sets `S_v^i` from the
    /// process's indicators, applying validation if configured. Returns
    /// `None` if `cancel` fired mid-assembly.
    fn collect_fault_sets(
        &self,
        imp: &Implications<'_>,
        forced_cache: &mut ForcedCache,
        metrics: &mut RunMetrics,
        cancel: &CancelToken,
        sweep_cap: usize,
    ) -> Option<HashMap<(Fault, Frame), Support>> {
        let mut sets: HashMap<(Fault, Frame), Support> = HashMap::new();
        let mut validity = ValidityCache {
            cap: sweep_cap,
            ..ValidityCache::default()
        };
        let mut since_poll = 0u32;
        let add = |sets: &mut HashMap<(Fault, Frame), Support>,
                   fault: Fault,
                   frame: Frame,
                   sup: Support| {
            sets.entry((fault, frame))
                .and_modify(|e| e.min_unc_frame = e.min_unc_frame.max(sup.min_unc_frame))
                .or_insert(sup);
        };

        // Uncontrollable faults: a line that can never be v hosts an
        // unactivatable stuck-at: 0-bar -> s-a-1, 1-bar -> s-a-0.
        for id in imp.mark_ids() {
            since_poll += 1;
            if since_poll >= VALIDATION_POLL_STRIDE {
                since_poll = 0;
                if cancel.is_cancelled() {
                    return None;
                }
            }
            let m = imp.mark(id);
            let stuck = match m.unc {
                Unc::Zero => StuckValue::One,
                Unc::One => StuckValue::Zero,
            };
            let fault = Fault::new(m.line, stuck);
            if self.config.validate && !validity.valid(self, imp, forced_cache, fault, m.frame, id)
            {
                metrics.incr("core.validation_rejects", 1);
                continue;
            }
            metrics.incr("core.validation_accepts", 1);
            add(
                &mut sets,
                fault,
                m.frame,
                Support {
                    min_unc_frame: m.min_frame,
                },
            );
        }

        // Unobservable faults: both stuck values, provided every blame
        // indicator survives in the faulty circuit. Iterated in sorted
        // (line, frame) order — the engine yields frame-major order, and
        // the validity cache's sweep cap means iteration order could
        // otherwise decide *which* candidates are conservatively dropped
        // once the cap is hit. Sorting makes the fault sets a pure
        // function of the process, which the deterministic-merge
        // guarantee rests on.
        let mut unobs: Vec<(LineId, Frame, &[MarkId])> = imp.unobs_iter().collect();
        unobs.sort_unstable_by_key(|&(line, frame, _)| (line, frame));
        for (line, frame, blame) in unobs {
            since_poll += 1;
            if since_poll >= VALIDATION_POLL_STRIDE {
                since_poll = 0;
                if cancel.is_cancelled() {
                    return None;
                }
            }
            metrics.observe("core.blame_set_size", blame.len() as u64);
            for stuck in [StuckValue::Zero, StuckValue::One] {
                let fault = Fault::new(line, stuck);
                if self.config.validate
                    && !blame
                        .iter()
                        .all(|&b| validity.valid(self, imp, forced_cache, fault, frame, b))
                {
                    metrics.incr("core.validation_rejects", 1);
                    continue;
                }
                metrics.incr("core.validation_accepts", 1);
                let min_unc_frame = blame
                    .iter()
                    .map(|&b| imp.min_frame_of(b))
                    .min()
                    .unwrap_or(frame);
                add(&mut sets, fault, frame, Support { min_unc_frame });
            }
        }
        Some(sets)
    }

    /// The set of lines whose value the fault pins to a constant, found by
    /// closing over same-net copies, single-input gates, controlling-value
    /// domination and flip-flop crossings. Returns `None` when the closure
    /// exceeds the cap: validation then rejects the fault outright, which
    /// sacrifices completeness on pathological fanout but never soundness.
    fn forced_lines(&self, fault: Fault) -> Option<HashMap<LineId, [bool; 2]>> {
        const CAP: usize = 512;
        let mut forced: HashMap<LineId, [bool; 2]> = HashMap::new();
        let mut stack = vec![(fault.line, fault.stuck.as_bool())];
        while let Some((l, v)) = stack.pop() {
            if forced.len() >= CAP {
                return None;
            }
            let entry = forced.entry(l).or_default();
            if entry[v as usize] {
                continue;
            }
            entry[v as usize] = true;
            let line = self.lines.line(l);
            for &b in line.branches() {
                stack.push((b, v));
            }
            if let Some((sink, _)) = line.sink_pin() {
                let kind = self.circuit.node(sink).kind();
                let out = self.lines.stem_of(sink);
                match kind {
                    GateKind::Buf => stack.push((out, v)),
                    GateKind::Not => stack.push((out, !v)),
                    GateKind::Dff => stack.push((out, v)),
                    GateKind::And | GateKind::Nand | GateKind::Or | GateKind::Nor
                        if Some(v) == kind.controlling_value() =>
                    {
                        stack.push((out, v ^ kind.is_inverting()));
                    }
                    _ => {}
                }
            }
        }
        Some(forced)
    }
}

/// Run-wide cache of per-fault forced-line closures (they are
/// circuit-static, so they can be shared across every stem and process).
/// `None` = the closure overflowed its cap and the fault must be rejected
/// conservatively.
#[derive(Default)]
struct ForcedCache {
    map: HashMap<Fault, Option<ForcedLines>>,
}

/// A fault's forced-line closure: each line maps to the value(s) the fault
/// pins it to.
type ForcedLines = std::rc::Rc<HashMap<LineId, [bool; 2]>>;

impl ForcedCache {
    fn get(&mut self, fires: &Fires<'_>, fault: Fault) -> Option<ForcedLines> {
        self.map
            .entry(fault)
            .or_insert_with(|| fires.forced_lines(fault).map(std::rc::Rc::new))
            .clone()
    }
}

/// Per-process memo of Definition-6 validity.
///
/// Two tiers: a cheap memoized check whether *any* indicator in the
/// process contradicts the fault (almost always "no", making every
/// derivation trivially valid), and — only when one exists — a single
/// linear sweep over the derivation-ordered marks propagating invalidity
/// from the contradicting marks to every descendant.
#[derive(Default)]
struct ValidityCache {
    has_bad: HashMap<Fault, bool>,
    invalid: HashMap<(Fault, Frame), std::rc::Rc<Vec<bool>>>,
    sweeps: usize,
    /// Upper bound on full invalidity sweeps per process (production:
    /// `SWEEP_CAP`).
    cap: usize,
}

impl ValidityCache {
    #[allow(clippy::too_many_arguments)]
    fn valid(
        &mut self,
        fires: &Fires<'_>,
        imp: &Implications<'_>,
        forced_cache: &mut ForcedCache,
        fault: Fault,
        ref_frame: Frame,
        root: MarkId,
    ) -> bool {
        let Some(forced0) = forced_cache.get(fires, fault) else {
            return false; // closure overflow: reject conservatively
        };
        let has_bad = match self.has_bad.get(&fault) {
            Some(&b) => b,
            None => {
                let b = !bad_marks(imp, &forced0, Frame::MIN).is_empty()
                    || !cut_edge_marks(fires, imp, fault).is_empty();
                self.has_bad.insert(fault, b);
                b
            }
        };
        if !has_bad {
            return true;
        }
        // Under the default AnyFrame policy validity does not depend on
        // the reference frame; collapse the key so the sweep runs once per
        // fault.
        let key_frame = match fires.config.validation_policy {
            ValidationPolicy::AnyFrame => Frame::MIN,
            ValidationPolicy::EarlierFrames => ref_frame,
        };
        if !self.invalid.contains_key(&(fault, key_frame)) {
            if self.sweeps >= self.cap {
                return false; // conservative: drop the candidate
            }
            self.sweeps += 1;
            let mut bad = bad_marks(imp, &forced0, key_frame);
            // Derivation steps that cross the faulty line against the
            // signal flow are unsound regardless of frame policy.
            bad.extend(cut_edge_marks(fires, imp, fault));
            let mut invalid = vec![false; imp.num_marks()];
            for id in bad {
                invalid[id.index()] = true;
            }
            for i in 0..invalid.len() {
                if !invalid[i]
                    && imp
                        .mark(MarkId::from_index(i))
                        .parents
                        .iter()
                        .any(|p| invalid[p.index()])
                {
                    invalid[i] = true;
                }
            }
            self.invalid
                .insert((fault, key_frame), std::rc::Rc::new(invalid));
        }
        !self.invalid[&(fault, key_frame)][root.index()]
    }
}

/// The indicators the fault falsifies: marks claiming a line cannot take
/// the very value the fault pins it to. With `key_frame != Frame::MIN`
/// (EarlierFrames policy) only frames before the reference count.
fn bad_marks(
    imp: &Implications<'_>,
    forced: &HashMap<LineId, [bool; 2]>,
    key_frame: Frame,
) -> Vec<MarkId> {
    let mut bad: Vec<MarkId> = Vec::new();
    let window = imp.window();
    // Two equivalent strategies; pick the cheaper one for this process.
    if forced.len() * window.len() * 2 < imp.num_marks() {
        for (&line, flags) in forced {
            for v in [false, true] {
                if !flags[v as usize] {
                    continue;
                }
                for frame in window.leftmost()..=window.rightmost() {
                    if key_frame != Frame::MIN && frame >= key_frame {
                        continue;
                    }
                    if let Some(id) = imp.unc_mark(line, frame, Unc::cannot_be(v)) {
                        bad.push(id);
                    }
                }
            }
        }
    } else {
        for id in imp.mark_ids() {
            let m = imp.mark(id);
            if key_frame != Frame::MIN && m.frame >= key_frame {
                continue;
            }
            if let Some(flags) = forced.get(&m.line) {
                if flags[m.unc.value() as usize] {
                    bad.push(id);
                }
            }
        }
    }
    bad
}

mod tests {
    use fires_circuits::generators::{random_sequential, RandomConfig};
    use fires_circuits::suite::small_suite;
    use fires_netlist::Circuit;
    use proptest::prelude::*;

    use super::super::assembly::{Assembly, SWEEP_CAP};
    use super::*;
    use crate::FiresConfig;

    /// Marks stored in the process's unc planes, counted bit by bit.
    fn plane_marks(imp: &Implications<'_>) -> usize {
        let window = imp.window();
        (window.leftmost()..=window.rightmost())
            .filter_map(|f| imp.frame_planes(f))
            .flat_map(|p| p.unc_bits)
            .flatten()
            .map(|w| w.count_ones() as usize)
            .sum()
    }

    /// Runs plane assembly and the `HashMap` reference on both processes
    /// of every stem of `circuit` (one [`Assembly`] reused throughout, as a
    /// worker does) and requires identical faults, hit counts, validation
    /// counters and blame-set histograms.
    fn assert_matches_reference(
        circuit: &Circuit,
        config: FiresConfig,
        sweep_cap: usize,
    ) -> Result<(), TestCaseError> {
        let fires = Fires::new(circuit, config);
        let never = CancelToken::never();
        let mut asm = Assembly::default();
        for stem in fires.stems() {
            let (p0, p1) = fires.analyze_stem(stem);
            for imp in [&p0, &p1] {
                prop_assert_eq!(
                    plane_marks(imp),
                    imp.num_marks(),
                    "a mark outside the planes"
                );
            }
            let mut got = RunMetrics::new();
            let (faults, found) = fires
                .assemble(&p0, &p1, stem, &mut asm, &mut got, &never, sweep_cap)
                .expect("never cancelled");
            let mut want = RunMetrics::new();
            let (ref_faults, ref_found) =
                fires.reference_assemble(&p0, &p1, stem, &mut want, sweep_cap);
            prop_assert_eq!(faults, ref_faults);
            prop_assert_eq!(found, ref_found);
            for name in ["core.validation_accepts", "core.validation_rejects"] {
                prop_assert_eq!(got.counter(name), want.counter(name), "{}", name);
            }
            prop_assert_eq!(
                got.histogram("core.blame_set_size"),
                want.histogram("core.blame_set_size")
            );
            prop_assert!(
                got.counter("core.validation_cap_drops") <= got.counter("core.validation_rejects")
            );
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 48, .. ProptestConfig::default() })]

        #[test]
        fn plane_assembly_matches_hashmap_reference(
            seed in 0u64..10_000,
            frames in 1usize..6,
            validate in any::<bool>(),
            earlier_frames in any::<bool>(),
            cap_pick in 0usize..4,
        ) {
            let cap = [0, 1, 2, SWEEP_CAP][cap_pick];
            let circuit = random_sequential(&RandomConfig {
                seed,
                inputs: 1 + (seed % 5) as usize,
                gates: 4 + (seed % 29) as usize,
                ffs: (seed % 5) as usize,
                outputs: 1 + (seed % 3) as usize,
                fig3: (seed % 2) as usize,
                chains: ((seed % 2) as usize, 1 + (seed % 3) as usize),
                conflicts: (seed % 2) as usize,
            });
            let mut config = FiresConfig::with_max_frames(frames);
            config.validate = validate;
            if earlier_frames {
                config.validation_policy = ValidationPolicy::EarlierFrames;
            }
            assert_matches_reference(&circuit, config, cap)?;
        }
    }

    /// The small Table-2 suite at its own frame budgets, where the
    /// forced-closure cap really drops candidates.
    #[test]
    fn plane_assembly_matches_hashmap_reference_on_the_small_suite() {
        for entry in small_suite() {
            for cap in [1, SWEEP_CAP] {
                let config = FiresConfig::with_max_frames(entry.frames);
                assert_matches_reference(&entry.circuit, config, cap)
                    .unwrap_or_else(|e| panic!("{} at cap {cap}: {e:?}", entry.name));
            }
        }
    }
}
