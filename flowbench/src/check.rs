//! Correctness of every output against its input, outside the timed
//! region: random-simulation refutation always, and a SAT miter under a
//! fixed effort limit where it resolves.

use glsx_core::sweeping::{check_equivalence_with_limits, EquivalenceResult};
use glsx_network::simulation::equivalent_by_random_simulation;
use glsx_network::Network;

/// Rounds of 64 random patterns per output.
const SIMULATION_ROUNDS: usize = 16;
/// Effort limits of one miter.  Most suite circuits resolve well inside
/// them; deep arithmetic stays unresolved, which is not a failure.
const MITER_CONFLICTS: u64 = 2_000;
const MITER_PROPAGATIONS: u64 = 20_000_000;

/// Outcome counts of the correctness checks of one run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Tally {
    /// Outputs checked.
    pub outputs: u64,
    /// Outputs refuted by simulation or by a miter.
    pub wrong: u64,
    /// Outputs a miter proved equivalent.
    pub proven: u64,
    /// Outputs whose miter ran out of effort (simulation still passed).
    pub unresolved: u64,
}

impl Tally {
    pub fn add(&mut self, other: Tally) {
        self.outputs += other.outputs;
        self.wrong += other.wrong;
        self.proven += other.proven;
        self.unresolved += other.unresolved;
    }
}

/// Checks one output against the input it was made from.  `miter`
/// selects whether a SAT proof is attempted after simulation passes.
pub fn check_output<A: Network, B: Network>(
    input: &A,
    output: &B,
    seed: u64,
    miter: bool,
) -> Tally {
    let mut tally = Tally {
        outputs: 1,
        ..Tally::default()
    };
    if input.num_pis() != output.num_pis() || input.num_pos() != output.num_pos() {
        tally.wrong = 1;
        return tally;
    }
    if !equivalent_by_random_simulation(input, output, SIMULATION_ROUNDS, seed) {
        tally.wrong = 1;
        return tally;
    }
    if miter {
        let verdict = check_equivalence_with_limits(
            input,
            output,
            Some(MITER_CONFLICTS),
            Some(MITER_PROPAGATIONS),
        );
        match verdict.result {
            EquivalenceResult::Equivalent => tally.proven = 1,
            EquivalenceResult::Inequivalent(_) => tally.wrong = 1,
            EquivalenceResult::Unknown => tally.unresolved = 1,
        }
    }
    tally
}

#[cfg(test)]
mod tests {
    use super::*;
    use glsx_benchmarks::arithmetic::adder;
    use glsx_network::{Aig, Signal};

    #[test]
    fn a_corrupted_output_is_caught() {
        let input: Aig = adder(4);
        let mut corrupted = input.clone();
        let po = corrupted.po_at(0);
        corrupted.replace_in_outputs(po.node(), Signal::constant(false));
        for miter in [false, true] {
            assert_eq!(check_output(&input, &input.clone(), 7, miter).wrong, 0);
            assert_eq!(check_output(&input, &corrupted, 7, miter).wrong, 1);
        }
        assert_eq!(check_output(&input, &input.clone(), 7, true).proven, 1);
    }
}
