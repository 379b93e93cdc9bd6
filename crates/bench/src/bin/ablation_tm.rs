//! Ablation: the frame budget `T_M`. Deeper windows find more (and
//! higher-`c`) redundancies at higher cost, saturating once the circuit's
//! sequential depth is covered — exactly why the paper picks `#Fr <= 15`
//! per circuit size.
//!
//! Run with `cargo run --release -p fires-bench --bin ablation_tm
//! [circuit-name]`.

use fires_bench::{json_row, JsonOut, TextTable};
use fires_core::{Fires, FiresConfig};
use fires_obs::{Json, RunReport};

fn main() {
    let (json, args) = JsonOut::from_env();
    let name = args
        .first()
        .cloned()
        .unwrap_or_else(|| "s838_like".to_owned());
    let entry = fires_circuits::suite::by_name(&name).expect("unknown suite circuit");
    println!("Ablation: frame budget T_M on {name}\n");
    let mut rr = RunReport::new("ablation_tm", &name);
    let mut rows = Vec::new();
    let mut t = TextTable::new(["T_M", "# Red.", "0-cycle", "Max. c", "marks", "CPU s"]);
    for tm in [1usize, 2, 3, 5, 7, 9, 11, 13, 15, 20, 25] {
        let report = Fires::new(&entry.circuit, FiresConfig::with_max_frames(tm)).run();
        t.row([
            tm.to_string(),
            report.len().to_string(),
            report.num_zero_cycle().to_string(),
            report.max_c().to_string(),
            report.marks_created().to_string(),
            format!("{:.2}", report.elapsed().as_secs_f64()),
        ]);
        rr.metrics.merge(report.metrics());
        rr.total_seconds += report.elapsed().as_secs_f64();
        rows.push(json_row([
            ("max_frames", Json::from(tm)),
            ("redundant", Json::from(report.len())),
            ("zero_cycle", Json::from(report.num_zero_cycle())),
            ("max_c", Json::from(report.max_c())),
            ("marks", Json::from(report.marks_created())),
            ("seconds", Json::from(report.elapsed().as_secs_f64())),
        ]));
    }
    println!("{}", t.render());
    rr.set_extra("rows", Json::Arr(rows));
    json.write(&rr);
}
