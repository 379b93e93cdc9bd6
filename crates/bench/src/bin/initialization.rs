//! Initialization-sequence analysis (paper Section 1 and reference \[11\]):
//! does the circuit have a synchronizing sequence, does each identified
//! fault *preserve* it, and does redundancy removal keep the machine
//! synchronizable?
//!
//! Reference \[11\] deems a fault removable only if the faulty circuit still
//! has an initialization sequence — and the paper criticizes the method
//! because (a) the sequence may have to change and (b) the property is not
//! compositional. This binary measures, on exactly-analyzable circuits,
//! how FIRES' c-cycle redundancies relate to that criterion.
//!
//! Run with `cargo run --release -p fires-bench --bin initialization`.

use fires_bench::{json_row, JsonOut, TextTable};
use fires_core::{remove_redundancies, Fires, FiresConfig};
use fires_netlist::{Circuit, LineGraph};
use fires_obs::{Json, RunReport};
use fires_verify::{is_synchronizable, shortest_synchronizing_sequence, BinMachine};

fn analyze(t: &mut TextTable, rr: &mut RunReport, name: &str, circuit: &Circuit) -> Json {
    let lines = LineGraph::build(circuit);
    let good = BinMachine::good(circuit, &lines);
    let sync_good = is_synchronizable(&good).unwrap_or(false);
    let reset_len = shortest_synchronizing_sequence(&good, 1_000_000)
        .ok()
        .flatten()
        .map(|s| s.len());

    let report = Fires::new(circuit, FiresConfig::default()).run();
    let mut preserved = 0usize;
    let mut broken = 0usize;
    for f in report.redundant_faults() {
        let faulty = BinMachine::faulty(circuit, &lines, f.fault);
        match is_synchronizable(&faulty) {
            Ok(true) => preserved += 1,
            Ok(false) => broken += 1,
            Err(_) => {}
        }
    }
    let after = remove_redundancies(circuit, FiresConfig::default(), 50)
        .ok()
        .map(|o| o.circuit);
    let sync_after = after
        .as_ref()
        .map(|c| {
            let lg = LineGraph::build(c);
            is_synchronizable(&BinMachine::good(c, &lg)).unwrap_or(false)
        })
        .unwrap_or(false);

    t.row([
        name.to_string(),
        if sync_good { "yes" } else { "no" }.to_string(),
        reset_len.map_or("-".to_string(), |l| l.to_string()),
        report.len().to_string(),
        preserved.to_string(),
        broken.to_string(),
        if sync_after { "yes" } else { "no" }.to_string(),
    ]);
    rr.metrics.merge(report.metrics());
    rr.total_seconds += report.elapsed().as_secs_f64();
    json_row([
        ("circuit", Json::from(name)),
        ("synchronizable", Json::from(sync_good)),
        ("reset_length", reset_len.map_or(Json::Null, Json::from)),
        ("identified", Json::from(report.len())),
        ("fault_keeps_sync", Json::from(preserved)),
        ("fault_breaks_sync", Json::from(broken)),
        ("sync_after_removal", Json::from(sync_after)),
    ])
}

fn main() {
    let (json, _) = JsonOut::from_env();
    println!("Initialization analysis: synchronizing sequences vs c-cycle redundancy\n");
    let mut rr = RunReport::new("initialization", "figures+s27+fsm");
    let mut rows = Vec::new();
    let mut t = TextTable::new([
        "Circuit",
        "Sync?",
        "Reset len",
        "Identified",
        "Fault keeps sync",
        "Fault breaks sync",
        "Sync after removal",
    ]);
    rows.push(analyze(
        &mut t,
        &mut rr,
        "figure3",
        &fires_circuits::figures::figure3(),
    ));
    rows.push(analyze(
        &mut t,
        &mut rr,
        "figure7",
        &fires_circuits::figures::figure7(),
    ));
    rows.push(analyze(
        &mut t,
        &mut rr,
        "s27",
        &fires_circuits::iscas::s27(),
    ));
    rows.push(analyze(
        &mut t,
        &mut rr,
        "fsm_one_hot(5)",
        &fires_circuits::generators::fsm_one_hot(5, 2, 3),
    ));
    println!("{}", t.render());
    rr.set_extra("rows", Json::Arr(rows));
    json.write(&rr);
    println!(
        "c-cycle redundancy needs no initialization assumption at all; the\n\
         'fault breaks sync' column shows faults reference [11] would have\n\
         to reject even though removing them is provably safe after max-c\n\
         warm-up clocks."
    );
}
