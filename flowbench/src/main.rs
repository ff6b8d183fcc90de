//! `flowbench`: the end-to-end and per-layer benchmark of the glsx flow.
//!
//! ```text
//! cargo run --release --manifest-path flowbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run it from the repository root.  One run generates the workload's
//! inputs in a child process, repeats the timed flow until `--seconds` of
//! flow time are measured, times the program's ingest of the inputs
//! (`setup_s`) between those iterations, checks every output against its
//! input (the seed drives the random patterns of that check), and prints
//! one JSON object as the last line of standard output: the end-to-end
//! metrics, or with `--trace 1` the per-layer metrics of an extra run of
//! the same work under a tracer.
//! Traces, layer tables and the records that make QoR and counters repeat
//! across runs go to `.bench_build/flowbench/`; `README.md` next to this
//! package explains the workloads and metrics.

mod check;
mod inputs;
mod layers;
mod record;
mod sys;
mod workloads;

use std::path::Path;
use std::process::ExitCode;
use std::time::Instant;

use glsx_network::telemetry::spans_well_nested;
use glsx_network::{TraceMode, Tracer};

use crate::inputs::{Inputs, Scale, Workload};
use crate::layers::{exponent, layer_times, COUNTERS, SCALED_LAYERS};
use crate::workloads::{
    complete_portfolio, ingest, representation_index, run_iteration, Iteration,
};

/// Where traces, layer tables, records and the run lock go.
const OUT_DIR: &str = ".bench_build/flowbench";
/// `setup_s` is the median of ingests taken in batches, one before each
/// timed iteration; a batch repeats the ingest for at least this many
/// seconds ...
const SETUP_BATCH_SECONDS: f64 = 0.1;
/// ... and at least this many times.
const SETUP_BATCH_MIN: usize = 2;
/// The traced run fails when more of its wall time than this share falls
/// outside every layer span.
const MAX_UNCOVERED_SHARE: f64 = 0.05;

struct RunArgs {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

enum Mode {
    Run(RunArgs),
    Generate(Workload),
}

fn parse_args(args: &[String]) -> Result<Mode, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut generate = None;
    let mut rest = args.iter();
    while let Some(flag) = rest.next() {
        let value = rest.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let workload_named = |name: &str| {
            Workload::from_name(name).ok_or_else(|| format!("unknown workload {name:?}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(workload_named(value)?),
            "--generate" => generate = Some(workload_named(value)?),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".to_string());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                })
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    if let Some(workload) = generate {
        return Ok(Mode::Generate(workload));
    }
    Ok(Mode::Run(RunArgs {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    }))
}

/// Refuses settings that would make the timings incomparable: the flow
/// must run serially and with the global tracer off.
fn check_environment() -> Result<(), String> {
    match std::env::var("GLSX_THREADS") {
        Err(_) => {}
        Ok(value) if value.trim() == "1" => {}
        Ok(value) => return Err(format!("GLSX_THREADS={value}: unset it or set it to 1")),
    }
    match std::env::var("GLSX_TRACE") {
        Err(_) => {}
        Ok(value) if TraceMode::from_env_value(&value) == TraceMode::Off => {}
        Ok(value) => return Err(format!("GLSX_TRACE={value}: unset it")),
    }
    Ok(())
}

fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Times of the program's ingest of every input (read plus derived
/// state), taken in short batches between the timed iterations, so that
/// their median sees the host over the whole run rather than over its
/// first second.
struct SetupSamples(Vec<f64>);

impl SetupSamples {
    /// Starts with one untimed warm-up ingest.
    fn new(inputs: &Inputs) -> Result<Self, String> {
        ingest_all(inputs)?;
        Ok(Self(Vec::new()))
    }

    fn batch(&mut self, inputs: &Inputs) -> Result<(), String> {
        let start = Instant::now();
        let mut taken = 0;
        while taken < SETUP_BATCH_MIN || start.elapsed().as_secs_f64() < SETUP_BATCH_SECONDS {
            self.0.push(ingest_all(inputs)?);
            taken += 1;
        }
        Ok(())
    }
}

fn ingest_all(inputs: &Inputs) -> Result<f64, String> {
    let start = Instant::now();
    for circuit in &inputs.circuits {
        std::hint::black_box(ingest(&circuit.gbc)?);
    }
    Ok(start.elapsed().as_secs_f64())
}

/// One metric of the result line.
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

fn metric(name: &str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.to_string(),
        value,
        unit,
    }
}

/// What a run found besides its metrics.
struct Verdict {
    attempted: u64,
    failed: u64,
    /// Determinism, trace and cross-check violations.
    problems: Vec<String>,
}

fn result_line(verdict: &Verdict, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        verdict.failed == 0 && verdict.problems.is_empty(),
        verdict.attempted.max(1),
        verdict.failed,
        body.join(", ")
    )
}

/// The per-layer metrics of one traced iteration of the same work.
/// `untraced` is the first timed iteration (completed on
/// `portfolio_suite`) and `signature` its outputs' fingerprint.
fn traced_metrics(
    args: &RunArgs,
    inputs: &Inputs,
    untraced: &Iteration,
    signature: u64,
    untraced_median_s: f64,
    out_dir: &Path,
    verdict: &mut Verdict,
) -> Result<Vec<Metric>, String> {
    let tracer = Tracer::new(TraceMode::Full);
    let traced = run_iteration(args.workload, inputs, &tracer)?;
    if traced.signature() != signature {
        verdict
            .problems
            .push("the traced run's outputs differ from the untraced run's".to_string());
    }
    let events = tracer.events();
    if !spans_well_nested(&events) {
        verdict
            .problems
            .push("the trace is not well nested".to_string());
    }
    let times = layer_times(&tracer);
    let wall = times.inclusive_of("flow");
    let uncovered = times.self_of("uncovered");
    if uncovered > MAX_UNCOVERED_SHARE * wall {
        verdict.problems.push(format!(
            "layer spans cover only {:.1}% of the traced flow",
            100.0 * (1.0 - uncovered / wall)
        ));
    }
    let stem = format!("{}-seed{}", args.workload.name(), args.seed);
    let trace_path = out_dir.join(format!("{stem}.trace.json"));
    let table_path = out_dir.join(format!("{stem}.layers.txt"));
    std::fs::write(&trace_path, tracer.chrome_trace_json())
        .and_then(|()| std::fs::write(&table_path, times.table()))
        .map_err(|e| format!("writing the trace: {e}"))?;
    eprint!("{}", times.table());
    eprintln!("flowbench: trace written to {}", trace_path.display());

    let registry = tracer.metrics();
    let occupancy = untraced.occupancy;
    let mut metrics = vec![
        metric("io.read_s", times.self_of("io.read"), "s"),
        metric("io.write_s", times.self_of("io.write"), "s"),
        metric("network.derive_s", times.self_of("network.derive"), "s"),
        metric("network.cleanup_s", times.self_of("network.cleanup"), "s"),
        metric(
            "network.slots_per_live_gate",
            occupancy.slots as f64 / occupancy.live_gates.max(1) as f64,
            "slots/gate",
        ),
        metric(
            "network.dead_gate_frac",
            1.0 - occupancy.live_gates as f64 / occupancy.gate_slots.max(1) as f64,
            "share",
        ),
        metric("balancing.s", times.self_of("balancing"), "s"),
        metric("rewriting.s", times.self_of("rewriting"), "s"),
        metric("refactoring.s", times.self_of("refactoring"), "s"),
        metric("resubstitution.s", times.self_of("resubstitution"), "s"),
        metric("sweeping.s", times.self_of("sweeping"), "s"),
        metric("lut_mapping.s", times.self_of("lut_mapping"), "s"),
        metric(
            "lut_mapping.luts_unoptimised",
            workloads::luts_unoptimised(inputs)? as f64,
            "count",
        ),
        metric("executor.verify_s", times.self_of("executor.verify"), "s"),
        metric(
            "executor.final_verify_s",
            times.self_of("executor.final_verify"),
            "s",
        ),
        metric(
            "executor.checkpoint_s",
            times.self_of("executor.checkpoint"),
            "s",
        ),
        metric("executor.ticks", traced.guarded_ticks as f64, "count"),
        metric("executor.rollbacks", traced.rollbacks as f64, "count"),
    ];
    for (name, counter) in COUNTERS {
        metrics.push(metric(name, registry.counter(counter) as f64, "count"));
    }
    for representation in ["aig", "mig", "xag"] {
        metrics.push(metric(
            &format!("portfolio.{representation}_s"),
            times.inclusive_of(&format!("portfolio_{representation}")),
            "s",
        ));
    }
    let mut wins = [0u64; 3];
    for result in &traced.portfolio {
        wins[representation_index(result)] += 1;
    }
    for (representation, count) in ["aig", "mig", "xag"].into_iter().zip(wins) {
        metrics.push(metric(
            &format!("portfolio.{representation}_wins"),
            count as f64,
            "count",
        ));
    }
    let mut exponents = [0.0; SCALED_LAYERS.len()];
    if let Some(probe) = &inputs.probe {
        let probe_inputs = Inputs {
            circuits: vec![probe.clone()],
            probe: None,
            fingerprint: 0,
        };
        let probe_tracer = Tracer::new(TraceMode::Full);
        run_iteration(args.workload, &probe_inputs, &probe_tracer)?;
        let probe_times = layer_times(&probe_tracer);
        for (slot, layer) in exponents.iter_mut().zip(SCALED_LAYERS) {
            *slot = exponent(
                probe_times.self_of(layer),
                times.self_of(layer),
                probe.live_gates,
                inputs.live_gates(),
            );
        }
    }
    for (layer, value) in SCALED_LAYERS.into_iter().zip(exponents) {
        metrics.push(metric(&format!("scaling.{layer}_exp"), value, "exponent"));
    }
    metrics.push(metric("trace.wall_s", wall, "s"));
    metrics.push(metric("trace.overhead_s", wall - untraced_median_s, "s"));
    metrics.push(metric("trace.uncovered_s", uncovered, "s"));

    let mut counters: Vec<(String, String)> = COUNTERS
        .iter()
        .map(|(name, counter)| (name.to_string(), registry.counter(counter).to_string()))
        .collect();
    counters.push(("executor.ticks".into(), traced.guarded_ticks.to_string()));
    counters.push(("wins".into(), format!("{wins:?}")));
    record::compare_and_store(
        out_dir,
        args.workload,
        inputs.fingerprint,
        "counters",
        &counters,
    )
    .unwrap_or_else(|problem| verdict.problems.push(problem));
    Ok(metrics)
}

/// One benchmark run; returns the result line.  Full-scale inputs are
/// generated in a child process, tiny ones (the smoke tests') in this one.
fn run(args: &RunArgs, scale: Scale, out_dir: &Path) -> Result<String, String> {
    check_environment()?;
    std::fs::create_dir_all(out_dir).map_err(|e| format!("creating {}: {e}", out_dir.display()))?;
    let _lock = sys::exclusive_run_lock(out_dir)?;

    let inputs = match scale {
        Scale::Full => inputs::generate_in_child(args.workload)?,
        #[cfg(test)]
        Scale::Tiny => inputs::generate(args.workload, scale)?,
    };
    let cpu_before = sys::CpuSample::now()?;
    let mut setup = SetupSamples::new(&inputs)?;
    setup.batch(&inputs)?;

    let off = Tracer::off();
    let mut first = run_iteration(args.workload, &inputs, &off)?;
    let peak_rss_mb = sys::peak_rss_mb()?;
    let signature = first.signature();
    let mut problems = Vec::new();
    if args.workload == Workload::PortfolioSuite {
        complete_portfolio(&mut first, &inputs).unwrap_or_else(|problem| problems.push(problem));
    }
    let qor = first.qor();
    // on `portfolio_suite` this one also covers the completed networks
    let outputs_signature = first.signature();
    let check_start = Instant::now();
    let tally = first.check(&inputs, args.workload, args.seed)?;
    let check_s = check_start.elapsed().as_secs_f64();
    let mut verdict = Verdict {
        attempted: tally.outputs + first.guarded_steps,
        failed: tally.wrong + first.rollbacks,
        problems,
    };
    let mut times = vec![first.seconds];
    while times.iter().sum::<f64>() < args.seconds {
        setup.batch(&inputs)?;
        let again = run_iteration(args.workload, &inputs, &off)?;
        if again.signature() != signature {
            verdict
                .problems
                .push("two iterations of the same run produced different outputs".to_string());
        }
        times.push(again.seconds);
    }
    // The work is identical in every iteration, and other load on the host
    // only ever slows it down, in episodes from seconds to minutes that a
    // median over one run does not outvote; the fastest iteration is the
    // estimate such episodes move least.
    let fastest_s = times.iter().copied().fold(f64::INFINITY, f64::min);
    let median_s = median(&times);
    let setup_s = median(&setup.0);
    let live_gates = inputs.live_gates();

    let metrics = if args.trace {
        traced_metrics(
            args,
            &inputs,
            &first,
            signature,
            median_s,
            out_dir,
            &mut verdict,
        )?
    } else {
        vec![
            metric("live_gates_per_s", live_gates as f64 / fastest_s, "gates/s"),
            metric("setup_s", setup_s, "s"),
            metric("peak_rss_mb", peak_rss_mb, "MiB"),
            metric("gates_out", qor.gates_out as f64, "gates"),
            metric("depth_out", qor.depth_out as f64, "levels"),
            metric("luts", qor.luts as f64, "luts"),
            metric("lut_depth", qor.lut_depth as f64, "levels"),
        ]
    };
    drop(first);
    let outputs = [
        ("signature".to_string(), format!("{outputs_signature:016x}")),
        ("qor".to_string(), format!("{qor:?}")),
    ];
    record::compare_and_store(
        out_dir,
        args.workload,
        inputs.fingerprint,
        "outputs",
        &outputs,
    )
    .unwrap_or_else(|problem| verdict.problems.push(problem));

    let shares = sys::cpu_shares(cpu_before, sys::CpuSample::now()?);
    let mut metrics = metrics;
    if args.trace {
        metrics.push(metric("host.other_cpu_share", shares.other, "share"));
        metrics.push(metric("host.steal_share", shares.steal, "share"));
    }
    eprintln!(
        "flowbench: {} seed {}: {} live gates, {} iterations {:?} s (fastest {:.6}, median {:.6}), \
         setup {:.6} s (median of {} ingests), \
         {} outputs checked in {:.2} s ({} proven, {} unresolved, {} wrong), {} rollbacks, \
         other processes {:.1}% and steal {:.1}% of the CPUs",
        args.workload.name(),
        args.seed,
        live_gates,
        times.len(),
        times,
        fastest_s,
        median_s,
        setup_s,
        setup.0.len(),
        tally.outputs,
        check_s,
        tally.proven,
        tally.unresolved,
        tally.wrong,
        verdict.failed - tally.wrong,
        100.0 * shares.other,
        100.0 * shares.steal,
    );
    for problem in &verdict.problems {
        eprintln!("flowbench: FAILED: {problem}");
    }
    Ok(result_line(&verdict, &metrics))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = parse_args(&args).and_then(|mode| match mode {
        Mode::Generate(workload) => inputs::serve_generate(workload),
        Mode::Run(args) => {
            run(&args, Scale::Full, Path::new(OUT_DIR)).map(|line| println!("{line}"))
        }
    });
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("flowbench: {message}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use glsx_network::telemetry::{parse_json, Json};

    /// A per-test scratch directory next to the test binary.
    fn scratch_dir(name: &str) -> std::path::PathBuf {
        let exe = std::env::current_exe().expect("test binary path");
        exe.parent()
            .expect("test binary directory")
            .join(format!("flowbench-{name}"))
    }

    /// `(name, unit)` of every metric `BENCHMARK.json` lists under `section`.
    fn declared(section: &str) -> Vec<(String, String)> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
        let json = parse_json(&text).expect("BENCHMARK.json parses");
        json.get(section)
            .and_then(Json::as_array)
            .expect("metric list")
            .iter()
            .map(|m| {
                let field = |key| {
                    m.get(key)
                        .and_then(Json::as_str)
                        .expect("string")
                        .to_string()
                };
                (field("name"), field("unit"))
            })
            .collect()
    }

    fn run_tiny(workload: Workload, trace: bool) -> Json {
        let args = RunArgs {
            workload,
            seed: 3,
            seconds: 1e-3,
            trace,
        };
        let dir = scratch_dir(&format!("{}-{trace}", workload.name()));
        let line = run(&args, Scale::Tiny, &dir).expect("a tiny run succeeds");
        parse_json(&line).expect("the result line is JSON")
    }

    #[test]
    fn every_metric_is_printed_with_its_unit() {
        for workload in Workload::ALL {
            for (trace, section) in [(false, "end_to_end"), (true, "per_layer")] {
                let result = run_tiny(workload, trace);
                assert_eq!(
                    result.get("correct"),
                    Some(&Json::Bool(true)),
                    "{workload:?}"
                );
                assert_eq!(result.get("failed").and_then(Json::as_f64), Some(0.0));
                assert!(result.get("attempted").and_then(Json::as_f64) >= Some(1.0));
                let Some(Json::Object(metrics)) = result.get("metrics") else {
                    panic!("no metrics object");
                };
                let printed: Vec<(String, String)> = metrics
                    .iter()
                    .map(|(name, m)| {
                        assert!(m.get("value").and_then(Json::as_f64).is_some(), "{name}");
                        let unit = m.get("unit").and_then(Json::as_str).expect("unit");
                        (name.clone(), unit.to_string())
                    })
                    .collect();
                assert_eq!(printed, declared(section), "{workload:?} trace={trace}");
            }
        }
    }

    #[test]
    fn a_failed_output_makes_the_run_incorrect() {
        let verdict = Verdict {
            attempted: 4,
            failed: 1,
            problems: Vec::new(),
        };
        let json = parse_json(&result_line(&verdict, &[metric("x", 1.0, "s")])).expect("JSON");
        assert_eq!(json.get("correct"), Some(&Json::Bool(false)));
        assert_eq!(json.get("failed").and_then(Json::as_f64), Some(1.0));
    }

    #[test]
    fn arguments_parse_and_bad_ones_are_refused() {
        let words = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let Ok(Mode::Run(args)) = parse_args(&words(
            "--workload fraig_mac16k --seed 9 --seconds 20 --trace 1",
        )) else {
            panic!("a full command line parses");
        };
        assert_eq!(args.workload, Workload::FraigMac16k);
        assert_eq!((args.seed, args.seconds, args.trace), (9, 20.0, true));
        for bad in [
            "--workload nope --seed 1 --seconds 1 --trace 0",
            "--workload c2rs_mac16k --seed 1 --seconds 0 --trace 0",
            "--workload c2rs_mac16k --seed 1 --seconds 1 --trace 2",
            "--workload c2rs_mac16k --seconds 1 --trace 0",
        ] {
            assert!(parse_args(&words(bad)).is_err(), "{bad}");
        }
    }
}
