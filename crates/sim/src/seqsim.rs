//! The synchronous 3-valued sequential simulator.

use fires_netlist::{Circuit, Fault, GateKind, LineGraph, NodeId};

use crate::Logic3;

/// A cycle-accurate 3-valued simulator over a [`Circuit`].
///
/// Flip-flops power up at X. Each [`step`](Self::step) applies one input
/// vector, evaluates the combinational core in topological order, samples
/// the primary outputs and then clocks every flip-flop.
///
/// A single stuck-at fault may be injected per step. Faults live on
/// *lines*: a stem fault forces the whole net, while a branch fault forces
/// only the value seen by the one gate pin the branch feeds (the net value
/// observed at a primary output is unaffected by a branch fault).
#[derive(Clone, Debug)]
pub struct SeqSim<'c> {
    circuit: &'c Circuit,
    lines: &'c LineGraph,
    /// Current FF output values, indexed like `circuit.dffs()`.
    ff_state: Vec<Logic3>,
    /// Scratch: value of every node's net this cycle.
    values: Vec<Logic3>,
    /// Gates evaluated over the simulator's lifetime (activity metric).
    evals: u64,
}

impl<'c> SeqSim<'c> {
    /// Creates a simulator with all flip-flops at X.
    pub fn new(circuit: &'c Circuit, lines: &'c LineGraph) -> Self {
        SeqSim {
            circuit,
            lines,
            ff_state: vec![Logic3::X; circuit.num_dffs()],
            values: vec![Logic3::X; circuit.num_nodes()],
            evals: 0,
        }
    }

    /// Number of gate evaluations performed so far. The oblivious
    /// simulator evaluates every logic gate each cycle, so this grows by
    /// the gate count per [`step`](Self::step).
    pub fn gate_evaluations(&self) -> u64 {
        self.evals
    }

    /// Resets every flip-flop to X.
    pub fn reset_to_x(&mut self) {
        self.ff_state.fill(Logic3::X);
    }

    /// Current flip-flop state, indexed like [`Circuit::dffs`].
    pub fn state(&self) -> &[Logic3] {
        &self.ff_state
    }

    /// Overwrites the flip-flop state (e.g. to explore a specific power-up
    /// state).
    ///
    /// # Panics
    ///
    /// Panics if `state.len()` differs from the number of flip-flops.
    pub fn set_state(&mut self, state: &[Logic3]) {
        assert_eq!(state.len(), self.ff_state.len(), "state width mismatch");
        self.ff_state.copy_from_slice(state);
    }

    /// Applies one input vector (optionally under an injected fault),
    /// returns the primary output values, then advances the flip-flops.
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len()` differs from the number of primary inputs.
    pub fn step(&mut self, inputs: &[Logic3], fault: Option<Fault>) -> Vec<Logic3> {
        let outputs = self.evaluate(inputs, fault);
        // Clock: capture D-pin values (as seen through possibly faulty
        // branch lines).
        let mut next = Vec::with_capacity(self.ff_state.len());
        for &ff in self.circuit.dffs() {
            next.push(self.pin_value(ff, 0, fault));
        }
        self.ff_state.copy_from_slice(&next);
        outputs
    }

    /// Evaluates the combinational core for one vector without clocking.
    /// Returns the primary output values.
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len()` differs from the number of primary inputs.
    pub fn evaluate(&mut self, inputs: &[Logic3], fault: Option<Fault>) -> Vec<Logic3> {
        let circuit = self.circuit;
        assert_eq!(inputs.len(), circuit.num_inputs(), "input width mismatch");
        for (&pi, &v) in circuit.inputs().iter().zip(inputs) {
            self.values[pi.index()] = v;
        }
        for (i, &ff) in circuit.dffs().iter().enumerate() {
            self.values[ff.index()] = self.ff_state[i];
        }
        for &id in circuit.topo_order() {
            let kind = circuit.node(id).kind();
            let v = match kind {
                GateKind::Input | GateKind::Dff => self.values[id.index()],
                GateKind::Const0 => Logic3::Zero,
                GateKind::Const1 => Logic3::One,
                _ => {
                    self.evals += 1;
                    let mut pins = Vec::with_capacity(circuit.node(id).fanin().len());
                    for pin in 0..circuit.node(id).fanin().len() {
                        pins.push(self.pin_value(id, pin, fault));
                    }
                    eval_gate(kind, &pins)
                }
            };
            let forced = match fault {
                Some(f) if self.lines.stem_of(id) == f.line => Logic3::from(f.stuck.as_bool()),
                _ => v,
            };
            self.values[id.index()] = forced;
        }
        circuit
            .outputs()
            .iter()
            .map(|&o| self.values[o.index()])
            .collect()
    }

    /// Runs a whole vector sequence from the *current* state, returning the
    /// output response per cycle.
    pub fn run(&mut self, vectors: &[Vec<Logic3>], fault: Option<Fault>) -> Vec<Vec<Logic3>> {
        vectors.iter().map(|v| self.step(v, fault)).collect()
    }

    /// The value of `node`'s net computed in the last evaluation.
    pub fn value(&self, node: NodeId) -> Logic3 {
        self.values[node.index()]
    }

    /// The value arriving at pin `pin` of `node`, honouring a branch fault
    /// on the feeding line.
    fn pin_value(&self, node: NodeId, pin: usize, fault: Option<Fault>) -> Logic3 {
        let src = self.circuit.node(node).fanin()[pin];
        let v = self.values[src.index()];
        match fault {
            Some(f) if self.lines.in_line(node, pin) == f.line => Logic3::from(f.stuck.as_bool()),
            _ => v,
        }
    }
}

/// Evaluates one gate over 3-valued pin values.
///
/// # Panics
///
/// Panics if `kind` is a source, a constant or a flip-flop (those are not
/// combinational gates).
pub(crate) fn eval_gate(kind: GateKind, pins: &[Logic3]) -> Logic3 {
    let core = match kind {
        GateKind::And | GateKind::Nand => pins.iter().copied().fold(Logic3::One, Logic3::and),
        GateKind::Or | GateKind::Nor => pins.iter().copied().fold(Logic3::Zero, Logic3::or),
        GateKind::Xor | GateKind::Xnor => pins.iter().copied().fold(Logic3::Zero, Logic3::xor),
        GateKind::Not | GateKind::Buf => pins[0],
        other => panic!("eval_gate on non-logic kind {other}"),
    };
    if kind.is_inverting() {
        !core
    } else {
        core
    }
}

#[cfg(test)]
mod tests {
    use fires_netlist::{bench, FaultList, LineGraph};

    use super::*;
    use crate::Logic3::{One, Zero, X};

    fn toggle() -> Circuit {
        // q toggles when en=1: q' = en XOR q ... actually q' = en ^ q.
        bench::parse("INPUT(en)\nOUTPUT(q)\nq = DFF(t)\nt = XOR(en, q)\n").unwrap()
    }

    #[test]
    fn ff_powers_up_unknown_and_initializes() {
        let c = bench::parse("INPUT(a)\nOUTPUT(q)\nq = DFF(a)\n").unwrap();
        let lg = LineGraph::build(&c);
        let mut sim = SeqSim::new(&c, &lg);
        assert_eq!(sim.step(&[One], None), vec![X]);
        assert_eq!(sim.step(&[Zero], None), vec![One]);
        assert_eq!(sim.step(&[Zero], None), vec![Zero]);
    }

    #[test]
    fn toggle_ff_stays_unknown_without_reset() {
        let c = toggle();
        let lg = LineGraph::build(&c);
        let mut sim = SeqSim::new(&c, &lg);
        for _ in 0..4 {
            // XOR never resolves an unknown state.
            assert_eq!(sim.step(&[One], None), vec![X]);
        }
        // But from a set state it toggles deterministically.
        sim.set_state(&[Zero]);
        assert_eq!(sim.step(&[One], None), vec![Zero]);
        assert_eq!(sim.step(&[One], None), vec![One]);
        assert_eq!(sim.step(&[Zero], None), vec![Zero]);
    }

    #[test]
    fn gate_eval_matches_truth_tables() {
        use GateKind::*;
        assert_eq!(eval_gate(Nand, &[One, One]), Zero);
        assert_eq!(eval_gate(Nand, &[Zero, X]), One);
        assert_eq!(eval_gate(Nor, &[Zero, Zero]), One);
        assert_eq!(eval_gate(Nor, &[X, One]), Zero);
        assert_eq!(eval_gate(Xnor, &[One, One]), One);
        assert_eq!(eval_gate(Not, &[X]), X);
        assert_eq!(eval_gate(Buf, &[One]), One);
        assert_eq!(eval_gate(And, &[One, One, Zero]), Zero);
        assert_eq!(eval_gate(Or, &[Zero, Zero, One]), One);
    }

    #[test]
    fn stem_fault_forces_whole_net() {
        let c =
            bench::parse("INPUT(a)\nOUTPUT(y)\nOUTPUT(z)\ny = BUFF(s)\nz = NOT(s)\ns = BUFF(a)\n")
                .unwrap();
        let lg = LineGraph::build(&c);
        let s = lg.stem_of(c.find("s").unwrap());
        let mut sim = SeqSim::new(&c, &lg);
        let out = sim.step(&[One], Some(Fault::sa0(s)));
        assert_eq!(out, vec![Zero, One]); // both sinks see the forced 0
    }

    #[test]
    fn branch_fault_forces_only_one_pin() {
        let c =
            bench::parse("INPUT(a)\nOUTPUT(y)\nOUTPUT(z)\ny = BUFF(s)\nz = NOT(s)\ns = BUFF(a)\n")
                .unwrap();
        let lg = LineGraph::build(&c);
        let s = c.find("s").unwrap();
        let stem = lg.stem_of(s);
        // Find the branch feeding `y`.
        let y = c.find("y").unwrap();
        let branch = lg
            .line(stem)
            .branches()
            .iter()
            .copied()
            .find(|&b| lg.line(b).sink_pin().unwrap().0 == y)
            .unwrap();
        let mut sim = SeqSim::new(&c, &lg);
        let out = sim.step(&[One], Some(Fault::sa0(branch)));
        assert_eq!(out, vec![Zero, Zero]); // y corrupted, z healthy
    }

    #[test]
    fn pi_stem_fault_overrides_input() {
        let c = bench::parse("INPUT(a)\nOUTPUT(z)\nz = BUFF(a)\n").unwrap();
        let lg = LineGraph::build(&c);
        let a = lg.stem_of(c.find("a").unwrap());
        let mut sim = SeqSim::new(&c, &lg);
        assert_eq!(sim.step(&[Zero], Some(Fault::sa1(a))), vec![One]);
    }

    #[test]
    fn every_fault_in_universe_can_be_injected() {
        let c = toggle();
        let lg = LineGraph::build(&c);
        let mut sim = SeqSim::new(&c, &lg);
        for f in FaultList::full(&lg).iter() {
            sim.reset_to_x();
            let _ = sim.step(&[One], Some(f));
        }
    }

    #[test]
    #[should_panic(expected = "input width mismatch")]
    fn wrong_input_width_panics() {
        let c = toggle();
        let lg = LineGraph::build(&c);
        let mut sim = SeqSim::new(&c, &lg);
        let _ = sim.step(&[], None);
    }
}
