//! The c-value distribution the paper defers to reference \[14\]: for each
//! benchmark circuit, how many identified redundancies need 0, 1, 2, ...
//! warm-up clocks. "The distribution ... varies widely from circuit to
//! circuit" — this binary regenerates it for the suite.
//!
//! Run with `cargo run --release -p fires-bench --bin c_distribution
//! [circuit-names...]`.

use fires_bench::JsonOut;
use fires_core::{Fires, FiresConfig};
use fires_obs::{Json, RunReport};

fn main() {
    let (json, filter) = JsonOut::from_env();
    let mut rr = RunReport::new("c_distribution", "suite");
    let mut dists = Json::object();
    let defaults = [
        "s208_like",
        "s386_like",
        "s400_like",
        "s420_like",
        "s838_like",
        "s1238_like",
    ];
    println!("Distribution of c-cycle redundancies by c\n");
    for entry in fires_circuits::suite::table2_suite() {
        let selected = if filter.is_empty() {
            defaults.contains(&entry.name)
        } else {
            filter.iter().any(|f| f == entry.name)
        };
        if !selected {
            continue;
        }
        let report = Fires::new(&entry.circuit, FiresConfig::with_max_frames(entry.frames)).run();
        let hist = report.c_histogram();
        let total = report.len().max(1);
        println!("{} ({} faults):", entry.name, report.len());
        let mut h = Json::object();
        for (c, count) in &hist {
            let bar = "#".repeat((count * 50).div_ceil(total));
            println!("  c={c:>2}: {count:>6} {bar}");
            h.set(c.to_string(), *count);
        }
        println!();
        rr.metrics.merge(report.metrics());
        rr.total_seconds += report.elapsed().as_secs_f64();
        dists.set(entry.name, h);
    }
    rr.set_extra("c_histograms", dists);
    json.write(&rr);
}
