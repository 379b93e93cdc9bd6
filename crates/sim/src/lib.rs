//! Three-valued sequential logic simulation and serial stuck-at fault
//! simulation for the FIRES reproduction.
//!
//! The simulator implements the classical 3-valued (0, 1, X) synchronous
//! model: all flip-flops share one implicit clock and power up in the
//! unknown state X. Fault simulation is *serial* (one faulty machine at a
//! time) and uses the conservative 3-valued detection criterion: a fault is
//! reported detected only when the good response is binary and the faulty
//! response is the opposite binary value — which guarantees detection for
//! every pair of initial states, matching Definition 1 of the paper.
//!
//! # Example
//!
//! ```
//! use fires_netlist::{bench, LineGraph};
//! use fires_sim::{Logic3, SeqSim};
//!
//! # fn main() -> Result<(), fires_netlist::NetlistError> {
//! let c = bench::parse("INPUT(a)\nOUTPUT(z)\nq = DFF(a)\nz = XOR(a, q)\n")?;
//! let lines = LineGraph::build(&c);
//! let mut sim = SeqSim::new(&c, &lines);
//! let out = sim.step(&[Logic3::One], None);
//! assert_eq!(out, vec![Logic3::X]); // q is still unknown
//! let out = sim.step(&[Logic3::One], None);
//! assert_eq!(out, vec![Logic3::Zero]); // q caught up with a
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod faultsim;
mod logic;
mod parallel;
mod seqsim;
mod vectors;

pub use faultsim::{simulate_fault, simulate_faults, Detection, FaultSimSummary};
pub use logic::Logic3;
pub use parallel::parallel_simulate_faults;
pub use seqsim::SeqSim;
pub use vectors::{all_binary_vectors, random_vectors, VectorSet};
