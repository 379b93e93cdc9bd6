//! Criterion: single-stem sequential implication throughput — the inner
//! loop the paper's polynomial-complexity claim rests on.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use fires_core::{FiresConfig, Implications, IndicatorView, ProcessScratch, Unc};
use fires_netlist::LineGraph;

fn single_stem(c: &mut Criterion) {
    let mut group = c.benchmark_group("implication_single_stem");
    for name in ["s208_like", "s838_like", "s1238_like"] {
        let entry = fires_circuits::suite::by_name(name).expect("suite circuit");
        let lines = LineGraph::build(&entry.circuit);
        // Pick a stem deterministically: the first fanout stem.
        let stem = lines
            .fanout_stems(&entry.circuit)
            .next()
            .expect("has a fanout stem");
        let config = FiresConfig::with_max_frames(entry.frames);
        group.bench_with_input(
            BenchmarkId::from_parameter(name),
            &(&entry.circuit, &lines),
            |b, (circuit, lines)| {
                // Reuse the scratch pool across iterations, exactly as
                // `Fires::run_stem` reuses it across a campaign's stems.
                let mut scratch = ProcessScratch::default();
                b.iter(|| {
                    let mut imp = Implications::with_scratch(
                        circuit,
                        lines,
                        config,
                        std::mem::take(&mut scratch),
                    );
                    imp.assume(stem, Unc::Zero);
                    imp.propagate();
                    let n = imp.num_marks();
                    scratch = imp.into_scratch();
                    n
                });
            },
        );
    }
    group.finish();
}

fn frame_budget_scaling(c: &mut Criterion) {
    let entry = fires_circuits::suite::by_name("s838_like").expect("suite circuit");
    let lines = LineGraph::build(&entry.circuit);
    let stem = lines
        .fanout_stems(&entry.circuit)
        .next()
        .expect("has a fanout stem");
    let mut group = c.benchmark_group("implication_tm_scaling");
    for tm in [1usize, 5, 10, 15] {
        let config = FiresConfig::with_max_frames(tm);
        group.bench_with_input(BenchmarkId::from_parameter(tm), &tm, |b, _| {
            let mut scratch = ProcessScratch::default();
            b.iter(|| {
                let mut imp = Implications::with_scratch(
                    &entry.circuit,
                    &lines,
                    config,
                    std::mem::take(&mut scratch),
                );
                imp.assume(stem, Unc::One);
                imp.propagate();
                let n = imp.num_marks();
                scratch = imp.into_scratch();
                n
            });
        });
    }
    group.finish();
}

fn simulators(c: &mut Criterion) {
    use fires_sim::{random_vectors, SeqSim};
    let entry = fires_circuits::suite::by_name("s1423_like").expect("suite circuit");
    let lines = LineGraph::build(&entry.circuit);
    let vectors = random_vectors(&entry.circuit, 256, 3);
    let mut group = c.benchmark_group("simulators_256_vectors");
    group.bench_function("oblivious", |b| {
        b.iter(|| {
            let mut sim = SeqSim::new(&entry.circuit, &lines);
            vectors
                .iter()
                .map(|v| sim.step(v, None).len())
                .sum::<usize>()
        })
    });
    group.finish();
}

fn fault_simulators(c: &mut Criterion) {
    use fires_netlist::FaultList;
    use fires_sim::{parallel_simulate_faults, random_vectors, simulate_faults};
    let entry = fires_circuits::suite::by_name("s386_like").expect("suite circuit");
    let lines = LineGraph::build(&entry.circuit);
    let faults: Vec<_> = FaultList::collapsed(&entry.circuit, &lines)
        .iter()
        .take(126)
        .collect();
    let vectors = random_vectors(&entry.circuit, 64, 5);
    let mut group = c.benchmark_group("fault_sim_126_faults");
    group.sample_size(10);
    group.bench_function("serial", |b| {
        b.iter(|| simulate_faults(&entry.circuit, &lines, &faults, &vectors).num_detected())
    });
    group.bench_function("bit_parallel", |b| {
        b.iter(|| {
            parallel_simulate_faults(&entry.circuit, &lines, &faults, &vectors).num_detected()
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    single_stem,
    frame_budget_scaling,
    simulators,
    fault_simulators
);
criterion_main!(benches);
