//! The work each workload measures, driven through the program's public
//! entry points by one function: with tracing off for the timed iterations,
//! under a full tracer for the traced run.

use std::time::Instant;

use glsx_core::lut_mapping::{lut_map_traced, lut_map_with_stats, LutMapParams, LutMapStats};
use glsx_core::resubstitution::ResubNetwork;
use glsx_core::sweeping::SweepEngine;
use glsx_flow::{
    compress2rs_script, portfolio_best_luts_traced, run_script_guarded_traced, run_step_traced,
    FlowOptions, FlowScript, FlowStep, GuardOptions, PortfolioResult, VerifyMode,
};
use glsx_io::{read_gbc, write_gbc};
use glsx_network::views::network_depth;
use glsx_network::{
    cleanup_dangling, convert_network, Aig, Budget, BulkTarget, GateBuilder, Klut, Mig, Network,
    Tracer, Xag,
};

use crate::check::{check_output, Tally};
use crate::inputs::{fingerprint, Inputs, Workload};

const LUT_SIZE: usize = 6;

/// An optimised network in whichever representation produced it.
pub enum Optimised {
    Aig(Aig),
    Mig(Mig),
    Xag(Xag),
}

macro_rules! with_network {
    ($optimised:expr, $ntk:ident => $body:expr) => {
        match $optimised {
            Optimised::Aig($ntk) => $body,
            Optimised::Mig($ntk) => $body,
            Optimised::Xag($ntk) => $body,
        }
    };
}

impl Optimised {
    fn gates(&self) -> usize {
        with_network!(self, ntk => ntk.num_gates())
    }

    fn depth(&self) -> u32 {
        with_network!(self, ntk => network_depth(ntk))
    }

    fn gbc(&self) -> Vec<u8> {
        with_network!(self, ntk => encode(ntk))
    }

    fn check(&self, input: &Aig, seed: u64, miter: bool) -> Tally {
        with_network!(self, ntk => check_output(input, ntk, seed, miter))
    }
}

/// One optimised and mapped output.
pub struct Product {
    /// Index of the input circuit.
    pub circuit: usize,
    pub optimised: Optimised,
    pub mapped: Klut,
    pub luts: usize,
    pub lut_depth: u32,
}

/// Everything one iteration produced.
#[derive(Default)]
pub struct Iteration {
    /// Wall time from the first read to the last written output.
    pub seconds: f64,
    /// Per circuit: the AIG product first, then any other representation.
    /// Empty on `portfolio_suite` until [`complete_portfolio`].
    pub products: Vec<Product>,
    /// Per circuit, the index into `products` of the mapped result that
    /// counts: the portfolio's winner, or the only product.
    pub winners: Vec<usize>,
    /// Per circuit, what `portfolio_best_luts` returned (`portfolio_suite`
    /// only).
    pub portfolio: Vec<PortfolioResult>,
    /// Node-storage occupancy of the flows that made the products.
    pub occupancy: Occupancy,
    /// Guarded steps attempted and rolled back (`map_mac500k` only).
    pub guarded_steps: u64,
    pub rollbacks: u64,
    /// Executor counters of the guarded flow (`map_mac500k` only).
    pub guarded_ticks: u64,
}

/// Quality of results of an iteration, summed over the circuits.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Qor {
    /// Reachable gates of the AIG results.
    pub gates_out: u64,
    /// Depth of the AIG results.
    pub depth_out: u64,
    /// LUTs of the winning mapped results.
    pub luts: u64,
    /// LUT depth of the winning mapped results.
    pub lut_depth: u64,
}

impl Iteration {
    pub fn qor(&self) -> Qor {
        let mut qor = Qor::default();
        let mut seen = Vec::new();
        for product in &self.products {
            if !seen.contains(&product.circuit) {
                seen.push(product.circuit);
                qor.gates_out += product.optimised.gates() as u64;
                qor.depth_out += u64::from(product.optimised.depth());
            }
        }
        for &winner in &self.winners {
            qor.luts += self.products[winner].luts as u64;
            qor.lut_depth += u64::from(self.products[winner].lut_depth);
        }
        qor
    }

    /// Fingerprint of every output: the optimised networks byte for byte,
    /// the mapped results' size and depth, and the portfolio's LUT counts.
    pub fn signature(&self) -> u64 {
        let mut bytes = Vec::new();
        for result in &self.portfolio {
            for luts in result.luts_per_representation {
                bytes.extend_from_slice(&(luts as u64).to_le_bytes());
            }
            bytes.extend_from_slice(result.winner.as_bytes());
        }
        for product in &self.products {
            bytes.extend_from_slice(&fingerprint(&product.optimised.gbc()).to_le_bytes());
            bytes.extend_from_slice(&(product.luts as u64).to_le_bytes());
            bytes.extend_from_slice(&u64::from(product.lut_depth).to_le_bytes());
            bytes.extend_from_slice(&(product.mapped.num_gates() as u64).to_le_bytes());
        }
        for &winner in &self.winners {
            bytes.extend_from_slice(&(winner as u64).to_le_bytes());
        }
        fingerprint(&bytes)
    }

    /// Checks every optimised and mapped output against its input.
    pub fn check(&self, inputs: &Inputs, workload: Workload, seed: u64) -> Result<Tally, String> {
        let miter = miter_checks(workload);
        let mut tally = Tally::default();
        let mut decoded: Option<(usize, Aig)> = None;
        for (index, product) in self.products.iter().enumerate() {
            if decoded.as_ref().map(|(c, _)| *c) != Some(product.circuit) {
                decoded = Some((
                    product.circuit,
                    decode(&inputs.circuits[product.circuit].gbc)?,
                ));
            }
            let (_, input) = decoded.as_ref().expect("decoded above");
            let check_seed = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ index as u64;
            tally.add(product.optimised.check(input, check_seed, miter));
            tally.add(check_output(input, &product.mapped, check_seed, miter));
        }
        Ok(tally)
    }
}

/// Whether outputs get a SAT miter after simulation.  The suite's small
/// circuits mostly resolve; the miters of the deep datapaths stay
/// unresolved under the effort limit, so they would cost time and prove
/// nothing.
fn miter_checks(workload: Workload) -> bool {
    workload == Workload::PortfolioSuite
}

fn options() -> FlowOptions {
    FlowOptions::default()
}

fn map_params() -> LutMapParams {
    LutMapParams::with_lut_size(LUT_SIZE)
}

fn script(workload: Workload) -> FlowScript {
    match workload {
        Workload::C2rsMac16k | Workload::PortfolioSuite => compress2rs_script(),
        Workload::MapMac500k => FlowScript::parse("bz").expect("well-formed script"),
        Workload::FraigMac16k => FlowScript::parse("fraig").expect("well-formed script"),
    }
}

fn guard_options() -> GuardOptions {
    GuardOptions {
        verify: VerifyMode::Simulation,
        ..GuardOptions::default()
    }
}

pub fn decode<N: BulkTarget + Network>(gbc: &[u8]) -> Result<N, String> {
    read_gbc::<N>(gbc)
        .map(|(ntk, _)| ntk)
        .map_err(|e| format!("reading GBC: {e}"))
}

fn encode<N: BulkTarget>(ntk: &N) -> Vec<u8> {
    write_gbc(ntk).expect("an in-memory GBC write of a well-formed network cannot fail")
}

/// The program's ingest of one input: read plus derived state.
pub fn ingest(gbc: &[u8]) -> Result<Aig, String> {
    let mut ntk: Aig = decode(gbc)?;
    ntk.ensure_derived_state();
    Ok(ntk)
}

/// One iteration of the workload's work through the program's public
/// entry points, under `tracer`: [`Tracer::off`] for the timed iterations
/// (one branch per hook), a full tracer for the traced run.  The whole
/// iteration runs inside a root span named `flow`, and every public call
/// inside a benchmark span named after its layer.
///
/// On `portfolio_suite` the iteration runs `portfolio_best_luts`, which
/// returns LUT counts only; [`complete_portfolio`] adds the networks.
pub fn run_iteration(
    workload: Workload,
    inputs: &Inputs,
    tracer: &Tracer,
) -> Result<Iteration, String> {
    let script = script(workload);
    let mut iteration = Iteration::default();
    let start = Instant::now();
    let root = tracer.span("flow");
    for (circuit, input) in inputs.circuits.iter().enumerate() {
        let mut ntk: Aig = {
            let _layer = tracer.span("io.read");
            decode(&input.gbc)?
        };
        {
            let _layer = tracer.span("network.derive");
            ntk.ensure_derived_state();
        }
        let (mapped, stats) = match workload {
            Workload::C2rsMac16k | Workload::FraigMac16k => {
                flow_and_map(&mut ntk, &script, tracer, &mut iteration.occupancy)
            }
            Workload::MapMac500k => {
                let report = {
                    let _layer = tracer.span("executor");
                    run_script_guarded_traced(
                        &mut ntk,
                        &script,
                        &options(),
                        &guard_options(),
                        tracer,
                    )
                };
                iteration.guarded_steps += report.steps.len() as u64;
                iteration.rollbacks +=
                    report.rollbacks as u64 + u64::from(report.final_verify == Some(false));
                iteration.guarded_ticks += report.ticks_spent;
                iteration.occupancy.record(&ntk);
                let _layer = tracer.span("lut_mapping");
                lut_map_traced(&ntk, &map_params(), &Budget::unlimited(), tracer)
            }
            Workload::PortfolioSuite => {
                let _layer = tracer.span("portfolio");
                let result = portfolio_best_luts_traced(&ntk, &options(), LUT_SIZE, tracer);
                iteration.portfolio.push(result);
                continue;
            }
        };
        let _layer = tracer.span("io.write");
        std::hint::black_box(encode(&ntk));
        iteration.winners.push(iteration.products.len());
        iteration
            .products
            .push(product(circuit, Optimised::Aig(ntk), mapped, stats));
    }
    drop(root);
    iteration.seconds = start.elapsed().as_secs_f64();
    Ok(iteration)
}

/// What `run_script` followed by `lut_map` does, one public call at a
/// time under a benchmark span named after its layer, recording the
/// storage occupancy before the final compaction.  It is also the job
/// `portfolio_best_luts` runs per representation.  (`run_script_and_map`,
/// which maps before compacting, panics with "leaves precede their root"
/// when the script ends in `bz`, as `compress2rs` does.)
fn flow_and_map<N>(
    ntk: &mut N,
    script: &FlowScript,
    tracer: &Tracer,
    occupancy: &mut Occupancy,
) -> (Klut, LutMapStats)
where
    N: Network + GateBuilder + ResubNetwork,
{
    let options = options();
    let mut engine = SweepEngine::new();
    ntk.ensure_derived_state();
    for step in script.steps() {
        let _layer = tracer.span(step_layer(step));
        run_step_traced(
            ntk,
            step,
            &options,
            &mut engine,
            &Budget::unlimited(),
            tracer,
        );
    }
    occupancy.record(ntk);
    {
        let _layer = tracer.span("network.cleanup");
        *ntk = cleanup_dangling(ntk);
    }
    let _layer = tracer.span("lut_mapping");
    lut_map_traced(ntk, &map_params(), &Budget::unlimited(), tracer)
}

/// Adds the networks `portfolio_best_luts` does not return: every
/// circuit's AIG, MIG and XAG results, made by the same flow outside the
/// timed region, for the correctness check and the QoR.  Fails, after
/// adding them all, unless their LUT counts are the program's; the
/// program's winner counts.
pub fn complete_portfolio(iteration: &mut Iteration, inputs: &Inputs) -> Result<(), String> {
    let script = script(Workload::PortfolioSuite);
    let off = Tracer::off();
    let mut mismatches = Vec::new();
    for (circuit, input) in inputs.circuits.iter().enumerate() {
        let mut aig = ingest(&input.gbc)?;
        let mut mig: Mig = convert_network(&aig);
        let mut xag: Xag = convert_network(&aig);
        let first = iteration.products.len();
        let occupancy = &mut iteration.occupancy;
        let (mapped, stats) = flow_and_map(&mut aig, &script, &off, occupancy);
        let aig = product(circuit, Optimised::Aig(aig), mapped, stats);
        let (mapped, stats) = flow_and_map(&mut mig, &script, &off, occupancy);
        let mig = product(circuit, Optimised::Mig(mig), mapped, stats);
        let (mapped, stats) = flow_and_map(&mut xag, &script, &off, occupancy);
        let xag = product(circuit, Optimised::Xag(xag), mapped, stats);
        let ours = [aig.luts, mig.luts, xag.luts];
        iteration.products.extend([aig, mig, xag]);
        let program = &iteration.portfolio[circuit];
        if ours != program.luts_per_representation {
            mismatches.push(format!(
                "{}: portfolio_best_luts maps to {:?} LUTs, the same flows outside it to {ours:?}",
                input.name, program.luts_per_representation
            ));
        }
        iteration
            .winners
            .push(first + representation_index(program));
    }
    if mismatches.is_empty() {
        Ok(())
    } else {
        Err(mismatches.join("; "))
    }
}

/// Position of the portfolio's winner in the AIG, MIG, XAG order.
pub fn representation_index(result: &PortfolioResult) -> usize {
    match result.winner {
        "AIG" => 0,
        "MIG" => 1,
        _ => 2,
    }
}

fn product(circuit: usize, optimised: Optimised, mapped: Klut, stats: LutMapStats) -> Product {
    Product {
        circuit,
        optimised,
        mapped,
        luts: stats.num_luts,
        lut_depth: stats.depth,
    }
}

/// The bench span around one flow step, named after the layer it runs.
fn step_layer(step: &FlowStep) -> &'static str {
    match step {
        FlowStep::Balance => "balancing",
        FlowStep::Rewrite { .. } => "rewriting",
        FlowStep::Refactor { .. } => "refactoring",
        FlowStep::Resubstitute { .. } => "resubstitution",
        FlowStep::Fraig { .. } => "sweeping",
        FlowStep::LutMap { .. } => "lut_mapping",
    }
}

/// Node-storage occupancy before the final compaction (after it on
/// `map_mac500k`, whose guarded executor compacts internally), summed
/// over the flows of an iteration.
#[derive(Clone, Copy, Debug, Default)]
pub struct Occupancy {
    /// Node slots, dead ones included.
    pub slots: u64,
    /// Gate slots (slots minus the constant and the primary inputs).
    pub gate_slots: u64,
    /// Gates not taken out.
    pub live_gates: u64,
}

impl Occupancy {
    fn record<N: Network>(&mut self, ntk: &N) {
        self.slots += ntk.size() as u64;
        self.gate_slots += (ntk.size() - 1 - ntk.num_pis()) as u64;
        self.live_gates += ntk.num_gates() as u64;
    }
}

/// LUT counts of mapping the inputs directly, without optimisation.
pub fn luts_unoptimised(inputs: &Inputs) -> Result<u64, String> {
    let mut luts = 0;
    for input in &inputs.circuits {
        let ntk = ingest(&input.gbc)?;
        luts += lut_map_with_stats(&ntk, &map_params()).1.num_luts as u64;
    }
    Ok(luts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inputs::{generate, Scale};
    use glsx_network::telemetry::{parse_chrome_trace, spans_well_nested};
    use glsx_network::{Signal, TraceMode};

    fn tiny(workload: Workload) -> Inputs {
        generate(workload, Scale::Tiny).expect("tiny inputs generate")
    }

    #[test]
    fn iterations_repeat_and_tracing_changes_no_output() {
        let off = Tracer::off();
        for workload in Workload::ALL {
            let inputs = tiny(workload);
            let mut first = run_iteration(workload, &inputs, &off).expect("untraced run");
            let second = run_iteration(workload, &inputs, &off).expect("untraced run");
            assert_eq!(first.signature(), second.signature(), "{workload:?}");
            let tracer = Tracer::new(TraceMode::Full);
            let traced = run_iteration(workload, &inputs, &tracer).expect("traced run");
            assert_eq!(traced.signature(), first.signature(), "{workload:?}");
            if workload == Workload::PortfolioSuite {
                complete_portfolio(&mut first, &inputs).expect("the same LUT counts");
            }
            assert_eq!(first.winners.len(), inputs.circuits.len(), "{workload:?}");
            let tally = first.check(&inputs, workload, 5).expect("inputs decode");
            assert_eq!(tally.wrong, 0, "{workload:?}");
            assert_eq!(tally.outputs, 2 * first.products.len() as u64);
        }
    }

    #[test]
    fn the_traced_run_emits_a_well_nested_trace() {
        for workload in Workload::ALL {
            let tracer = Tracer::new(TraceMode::Full);
            run_iteration(workload, &tiny(workload), &tracer).expect("traced run");
            assert!(spans_well_nested(&tracer.events()), "{workload:?}");
            let spans = parse_chrome_trace(&tracer.chrome_trace_json()).expect("trace parses");
            let roots = spans.iter().filter(|s| s.name == "flow").count();
            assert_eq!(roots, 1, "{workload:?}");
            let times = crate::layers::layer_times(&tracer);
            assert!((times.total() - times.inclusive_of("flow")).abs() < 1e-6);
        }
    }

    #[test]
    fn a_corrupted_output_is_caught() {
        let workload = Workload::C2rsMac16k;
        let inputs = tiny(workload);
        let mut iteration = run_iteration(workload, &inputs, &Tracer::off()).expect("untraced run");
        let Optimised::Aig(aig) = &mut iteration.products[0].optimised else {
            panic!("c2rs produces an AIG");
        };
        let po = aig.po_at(0);
        aig.replace_in_outputs(po.node(), Signal::constant(false));
        let tally = iteration
            .check(&inputs, workload, 5)
            .expect("inputs decode");
        assert_eq!((tally.outputs, tally.wrong), (2, 1));
    }
}
