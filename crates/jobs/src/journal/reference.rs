//! The `[line, stuck, c, frame]` array codec that schema 5's per-group
//! hex bitsets replaced, kept as the differential-test oracle for them.
//!
//! [`faults_to_json`] and [`faults_from_json`] are the old encoder and
//! decoder, lifted out of `unit_to_json` and `unit_from_json` unchanged
//! but for their signatures: the encoder wrote one quadruple per fault
//! in the order given, and the decoder read them back in journal order,
//! duplicates and all. A fault *set* is what both forms carry, so the
//! tests below compare the bitset round trip with the sorted,
//! deduplicated array round trip, and read journals written in either
//! form through the one production reader.

use fires_obs::Json;

use super::UnitFault;
use crate::error::JobError;

/// The old fault encoder: one `[line, stuck, c, frame]` array per fault.
pub(super) fn faults_to_json(faults: &[UnitFault]) -> Json {
    let faults = faults
        .iter()
        .map(|&(line, stuck, c, frame)| {
            Json::Arr(vec![
                Json::Num(line as f64),
                Json::Num(if stuck { 1.0 } else { 0.0 }),
                Json::Num(c as f64),
                Json::Num(frame as f64),
            ])
        })
        .collect();
    Json::Arr(faults)
}

/// The old fault decoder, reading the `faults` field of unit record `j`.
pub(super) fn faults_from_json(j: &Json) -> Result<Vec<UnitFault>, JobError> {
    let faults = j
        .get("faults")
        .and_then(Json::as_arr)
        .ok_or_else(|| JobError::journal("unit record has no fault array"))?
        .iter()
        .map(|f| {
            let f = f
                .as_arr()
                .filter(|f| f.len() == 4)
                .ok_or_else(|| JobError::journal("fault entry is not a 4-element array"))?;
            let num = |i: usize| {
                f[i].as_f64()
                    .ok_or_else(|| JobError::journal("fault entry is not numeric"))
            };
            Ok((
                num(0)? as u32,
                num(1)? != 0.0,
                num(2)? as u32,
                num(3)? as i32,
            ))
        })
        .collect::<Result<Vec<_>, JobError>>()?;
    Ok(faults)
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;

    use super::super::{fault_sets_from_json, fault_sets_to_json, tests as journal_tests};
    use super::super::{read, unit_to_json, Journal, UnitRecord};
    use super::*;

    /// What the array codec round-trips `faults` to, as a set: sorted
    /// into canonical `(c, frame, line, stuck)` order and deduplicated.
    fn reference_set(faults: &[UnitFault]) -> Vec<UnitFault> {
        let mut unit = Json::object();
        unit.set("faults", faults_to_json(faults));
        let mut set = faults_from_json(&Json::parse(&unit.to_compact()).unwrap()).unwrap();
        set.sort_unstable_by_key(|&(line, stuck, c, frame)| (c, frame, line, stuck));
        set.dedup();
        set
    }

    /// Arbitrary fault lists that reach every corner of both codecs:
    /// line 0 and high line ids, `c = 0` and `u32::MAX`, negative and
    /// extreme frames, few or many `(c, frame)` groups, and duplicates.
    fn arb_faults(r: &mut TestRunner) -> Vec<UnitFault> {
        const CS: [u32; 5] = [0, 1, 2, 4, u32::MAX];
        const FRAMES: [i32; 7] = [-2, -1, 0, 1, 4, i32::MIN, i32::MAX];
        let len = r.below(48) as usize;
        let mut faults: Vec<UnitFault> = Vec::with_capacity(len);
        for _ in 0..len {
            if !faults.is_empty() && r.chance(0.15) {
                faults.push(faults[r.index(faults.len())]);
                continue;
            }
            let line = match r.below(8) {
                0 => 0,
                // High ids, bounded so one bitset stays a few KB.
                1 => r.below(1 << 16) as u32,
                _ => r.below(64) as u32,
            };
            let c = if r.chance(0.1) {
                r.next_u64() as u32
            } else {
                CS[r.index(CS.len())]
            };
            let frame = if r.chance(0.1) {
                r.next_u64() as i32
            } else {
                FRAMES[r.index(FRAMES.len())]
            };
            faults.push((line, r.chance(0.5), c, frame));
        }
        faults
    }

    fn unit_with(faults: Vec<UnitFault>) -> UnitRecord {
        UnitRecord {
            faults,
            ..journal_tests::sample_unit()
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 256, .. ProptestConfig::default() })]

        #[test]
        fn bitset_round_trip_is_the_reference_set(
            faults in BoxedStrategy::from_fn(arb_faults),
        ) {
            let rendered = fault_sets_to_json(&faults).to_compact();
            let back = fault_sets_from_json(&Json::parse(&rendered).unwrap()).unwrap();
            prop_assert_eq!(&back, &reference_set(&faults));
            // One spelling per set: any order or duplication of the same
            // faults renders the same bytes.
            prop_assert_eq!(fault_sets_to_json(&back).to_compact(), rendered);
        }

        #[test]
        fn journals_in_either_form_read_back_the_same_set(
            faults in BoxedStrategy::from_fn(arb_faults),
        ) {
            let path = journal_tests::temp("reference-forms");
            let mut j = Journal::create(&path, &journal_tests::sample_header()).unwrap();
            j.append(&unit_with(faults.clone())).unwrap();
            drop(j);
            // The same unit spelled as a pre-schema-5 build wrote it.
            let mut legacy = unit_to_json(&unit_with(faults.clone()));
            if let Json::Obj(fields) = &mut legacy {
                fields.remove("fault_sets");
            }
            legacy.set("faults", faults_to_json(&faults));
            let mut text = std::fs::read_to_string(&path).unwrap();
            text.push_str(&legacy.to_compact());
            text.push('\n');
            std::fs::write(&path, text).unwrap();
            let back = read(&path).unwrap();
            prop_assert_eq!(back.units.len(), 2);
            let want = unit_with(reference_set(&faults));
            prop_assert_eq!(&back.units[0], &want);
            prop_assert_eq!(&back.units[1], &want);
        }
    }

    #[test]
    fn the_empty_list_writes_no_group() {
        assert_eq!(fault_sets_to_json(&[]).to_compact(), "[]");
        assert_eq!(reference_set(&[]), Vec::new());
        assert_eq!(
            fault_sets_from_json(&Json::parse("[]").unwrap()).unwrap(),
            Vec::new()
        );
    }

    #[test]
    fn bytes_hold_ids_low_bit_first() {
        // Line 0 at both values, line 4 stuck-at-0 (id 8), line 7
        // stuck-at-1 (id 15): bytes 0x03 and 0x81.
        let faults = [
            (4, false, 1, -2),
            (0, true, 1, -2),
            (0, false, 1, -2),
            (7, true, 1, -2),
        ];
        assert_eq!(
            fault_sets_to_json(&faults).to_compact(),
            "[[1,-2,\"0381\"]]"
        );
    }
}
