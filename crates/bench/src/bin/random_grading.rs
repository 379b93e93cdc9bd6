//! Empirical cross-check by fault grading: long random-vector fault
//! simulation never detects any fault FIRES identified, while covering a
//! healthy share of the rest of the universe.
//!
//! Run with `cargo run --release -p fires-bench --bin random_grading
//! [circuit-name] [vectors]`.

use fires_bench::{record_fault_sim, JsonOut, TextTable};
use fires_core::{Fires, FiresConfig};
use fires_netlist::{FaultList, LineGraph};
use fires_sim::{parallel_simulate_faults, random_vectors};

fn main() {
    let (json, args) = JsonOut::from_env();
    let name = args.first().map(String::as_str).unwrap_or("s386_like");
    let n_vectors: usize = args.get(1).and_then(|s| s.parse().ok()).unwrap_or(2_000);
    let entry = fires_circuits::suite::by_name(name).expect("unknown suite circuit");
    let circuit = &entry.circuit;
    let lines = LineGraph::build(circuit);

    let report = Fires::new(
        circuit,
        FiresConfig::with_max_frames(entry.frames).without_validation(),
    )
    .run();
    let identified: FaultList = report.redundant_faults().iter().map(|f| f.fault).collect();

    let universe = FaultList::collapsed(circuit, &lines);
    let vectors = random_vectors(circuit, n_vectors, 0xF1BE5);
    // Bit-parallel: 63 faulty machines per word, bit-exact with the
    // serial simulator.
    let summary = parallel_simulate_faults(circuit, &lines, universe.as_slice(), &vectors);

    let mut detected_identified = 0usize;
    let mut detected_rest = 0usize;
    let mut total_identified = 0usize;
    for (fault, det) in universe.iter().zip(&summary.detections) {
        let is_identified = identified.contains(fault);
        total_identified += usize::from(is_identified);
        if det.is_some() {
            if is_identified {
                detected_identified += 1;
            } else {
                detected_rest += 1;
            }
        }
    }
    let rest = universe.len() - total_identified;

    println!(
        "Random-vector fault grading on {name} ({} vectors, {} collapsed faults)\n",
        n_vectors,
        universe.len()
    );
    let mut t = TextTable::new(["Class", "Faults", "Detected", "Coverage"]);
    t.row([
        "FIRES-identified".to_string(),
        total_identified.to_string(),
        detected_identified.to_string(),
        format!(
            "{:.1}%",
            100.0 * detected_identified as f64 / total_identified.max(1) as f64
        ),
    ]);
    t.row([
        "rest of universe".to_string(),
        rest.to_string(),
        detected_rest.to_string(),
        format!("{:.1}%", 100.0 * detected_rest as f64 / rest.max(1) as f64),
    ]);
    println!("{}", t.render());
    assert_eq!(
        detected_identified, 0,
        "a FIRES-identified fault was detected by simulation — unsound!"
    );
    println!("PASS: no identified fault was ever detected by simulation.");

    let mut rr = report.run_report("random_grading", name);
    record_fault_sim(&mut rr, &summary);
    rr.set_extra("vectors", n_vectors as u64);
    rr.set_extra("identified", total_identified as u64);
    rr.set_extra("detected_identified", detected_identified as u64);
    rr.set_extra("detected_rest", detected_rest as u64);
    json.write(&rr);
}
