//! Workload inputs: generation, dead-logic removal, GBC encoding and the
//! fingerprints that pin each workload's input.
//!
//! The circuits do not depend on the run's seed, which drives only the
//! random patterns of the correctness check: with the redundancy of
//! `fraig_mac16k` injected from the run's seed, the SAT effort, and so
//! the workload's throughput, moved by a tenth between seeds.
//!
//! Inputs are generated in a child process (the benchmark binary re-run
//! with `--generate`), so neither the generators' memory peak nor their
//! time reaches the measuring process.

use std::io::Write;
use std::process::{Command, Stdio};

use glsx_benchmarks::arithmetic::mac_datapath;
use glsx_benchmarks::{epfl_like_suite, inject_redundancy, SuiteScale};
use glsx_network::{cleanup_dangling, Aig, Network};

/// Seed of the redundancy injected into `fraig_mac16k`.
const INJECTION_SEED: u64 = 1;

/// FNV-1a fingerprints of the framed input of every workload at full
/// scale.  A generator change that alters an input fails the run instead
/// of silently changing what the workload measures.
const PINS: [(Workload, u64); 4] = [
    (Workload::C2rsMac16k, 0x490e_2fa1_f567_8652),
    (Workload::PortfolioSuite, 0x3ded_25ef_0ca7_1fcb),
    (Workload::MapMac500k, 0x14cf_e3ee_c5a4_5448),
    (Workload::FraigMac16k, 0x2a64_8034_2043_c5a8),
];

/// Stages of the `mac_datapath(16, _)` probe that gives the scaling
/// exponents of `c2rs_mac16k` its small size (about 5k live gates).
const PROBE_STAGES: usize = 4;

/// One benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// `compress2rs` then 6-LUT mapping of a 16k-gate MAC datapath.
    C2rsMac16k,
    /// The AIG/MIG/XAG portfolio over the 19 small suite circuits.
    PortfolioSuite,
    /// Guarded balancing and 6-LUT mapping of a 500k-gate MAC datapath.
    MapMac500k,
    /// SAT sweeping and 6-LUT mapping of a MAC datapath with injected
    /// redundancy.
    FraigMac16k,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::C2rsMac16k,
        Workload::PortfolioSuite,
        Workload::MapMac500k,
        Workload::FraigMac16k,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::C2rsMac16k => "c2rs_mac16k",
            Workload::PortfolioSuite => "portfolio_suite",
            Workload::MapMac500k => "map_mac500k",
            Workload::FraigMac16k => "fraig_mac16k",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Input size: the measured sizes, or tiny ones for the smoke tests.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    Full,
    #[cfg(test)]
    Tiny,
}

/// One input circuit, cleaned of dead logic and encoded as GBC.
#[derive(Clone, Debug)]
pub struct Circuit {
    pub name: String,
    pub gbc: Vec<u8>,
    /// Gates reachable from a primary output (all of them, after cleaning).
    pub live_gates: usize,
}

/// A workload's inputs.
#[derive(Clone, Debug)]
pub struct Inputs {
    pub circuits: Vec<Circuit>,
    /// The smaller circuit the scaling exponents compare against
    /// (`c2rs_mac16k` only).
    pub probe: Option<Circuit>,
    /// Fingerprint of the framed circuits.
    pub fingerprint: u64,
}

impl Inputs {
    pub fn live_gates(&self) -> usize {
        self.circuits.iter().map(|c| c.live_gates).sum()
    }
}

fn generate_networks(workload: Workload, scale: Scale) -> Vec<(String, Aig)> {
    let full = scale == Scale::Full;
    let mac = |stages_full: usize, stages_tiny: usize| -> Aig {
        if full {
            mac_datapath(16, stages_full)
        } else {
            mac_datapath(4, stages_tiny)
        }
    };
    match workload {
        Workload::C2rsMac16k => vec![("mac16k".to_string(), mac(12, 3))],
        Workload::PortfolioSuite => {
            let suite_scale = if full {
                SuiteScale::Small
            } else {
                SuiteScale::Tiny
            };
            let mut suite = epfl_like_suite(suite_scale);
            if !full {
                // the smoke tests need every representation, not every circuit
                suite.truncate(4);
            }
            suite
                .into_iter()
                .map(|b| (b.name.to_string(), b.network))
                .collect()
        }
        Workload::MapMac500k => vec![("mac500k".to_string(), mac(380, 8))],
        Workload::FraigMac16k => {
            // redundancy goes into live logic only, so all of it stays live
            let mut aig = cleanup_dangling(&mac(12, 3));
            inject_redundancy(&mut aig, if full { 300 } else { 12 }, INJECTION_SEED);
            vec![("mac16k_redundant".to_string(), aig)]
        }
    }
}

fn encode_circuit(name: &str, aig: &Aig) -> Result<Circuit, String> {
    let clean = cleanup_dangling(aig);
    let gbc = glsx_io::write_gbc(&clean).map_err(|e| format!("encoding {name}: {e}"))?;
    Ok(Circuit {
        name: name.to_string(),
        gbc,
        live_gates: clean.num_gates(),
    })
}

/// Generates, cleans and encodes a workload's inputs in this process.
pub fn generate(workload: Workload, scale: Scale) -> Result<Inputs, String> {
    let circuits = generate_networks(workload, scale)
        .iter()
        .map(|(name, aig)| encode_circuit(name, aig))
        .collect::<Result<Vec<_>, _>>()?;
    let probe = if workload == Workload::C2rsMac16k {
        let aig: Aig = if scale == Scale::Full {
            mac_datapath(16, PROBE_STAGES)
        } else {
            mac_datapath(4, 1)
        };
        Some(encode_circuit("mac5k", &aig)?)
    } else {
        None
    };
    let fingerprint = fingerprint(&frame(&circuits));
    Ok(Inputs {
        circuits,
        probe,
        fingerprint,
    })
}

/// Fails when the input of `workload` no longer matches its pinned
/// fingerprint.
fn check_pin(workload: Workload, inputs: &Inputs) -> Result<(), String> {
    let pinned = PINS
        .iter()
        .find(|(w, _)| *w == workload)
        .map(|&(_, pin)| pin)
        .expect("every workload is pinned");
    if inputs.fingerprint != pinned {
        return Err(format!(
            "the generated input of {} drifted: fingerprint {:#018x}, pinned {pinned:#018x}",
            workload.name(),
            inputs.fingerprint
        ));
    }
    Ok(())
}

/// FNV-1a, 64 bits.
pub fn fingerprint(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &byte in bytes {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0100_0000_01b3);
    }
    hash
}

/// Length-prefixed framing: per circuit its name, live gate count and GBC
/// bytes.
fn frame(circuits: &[Circuit]) -> Vec<u8> {
    let mut out = Vec::new();
    for circuit in circuits {
        out.extend_from_slice(&(circuit.name.len() as u64).to_le_bytes());
        out.extend_from_slice(circuit.name.as_bytes());
        out.extend_from_slice(&(circuit.live_gates as u64).to_le_bytes());
        out.extend_from_slice(&(circuit.gbc.len() as u64).to_le_bytes());
        out.extend_from_slice(&circuit.gbc);
    }
    out
}

fn unframe(mut bytes: &[u8]) -> Result<Vec<Circuit>, String> {
    fn take<'a>(bytes: &mut &'a [u8], len: u64) -> Result<&'a [u8], String> {
        let len = usize::try_from(len)
            .ok()
            .filter(|&len| len <= bytes.len())
            .ok_or_else(|| "truncated input stream".to_string())?;
        let (head, tail) = bytes.split_at(len);
        *bytes = tail;
        Ok(head)
    }
    fn word(bytes: &mut &[u8]) -> Result<u64, String> {
        Ok(u64::from_le_bytes(
            take(bytes, 8)?.try_into().expect("8 bytes"),
        ))
    }
    let mut circuits = Vec::new();
    while !bytes.is_empty() {
        let name_len = word(&mut bytes)?;
        let name = String::from_utf8(take(&mut bytes, name_len)?.to_vec())
            .map_err(|e| format!("circuit name: {e}"))?;
        let live_gates = usize::try_from(word(&mut bytes)?).map_err(|e| e.to_string())?;
        let gbc_len = word(&mut bytes)?;
        let gbc = take(&mut bytes, gbc_len)?.to_vec();
        circuits.push(Circuit {
            name,
            gbc,
            live_gates,
        });
    }
    Ok(circuits)
}

/// Child-process side of [`generate_in_child`]: generates the full-size
/// inputs, checks their pin and writes the framed circuits (probe last)
/// to standard output.
pub fn serve_generate(workload: Workload) -> Result<(), String> {
    let inputs = generate(workload, Scale::Full)?;
    check_pin(workload, &inputs)?;
    let mut circuits = inputs.circuits;
    let has_probe = inputs.probe.is_some();
    circuits.extend(inputs.probe);
    let mut stdout = std::io::stdout().lock();
    stdout
        .write_all(&[u8::from(has_probe)])
        .and_then(|()| stdout.write_all(&frame(&circuits)))
        .and_then(|()| stdout.flush())
        .map_err(|e| format!("writing generated inputs: {e}"))
}

/// Generates a workload's full-size inputs in a child process and waits
/// for it.
pub fn generate_in_child(workload: Workload) -> Result<Inputs, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating the benchmark binary: {e}"))?;
    let output = Command::new(exe)
        .args(["--generate", workload.name()])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("running the input generator: {e}"))?;
    if !output.status.success() {
        return Err(format!("the input generator failed ({})", output.status));
    }
    let (&has_probe, framed) = output
        .stdout
        .split_first()
        .ok_or_else(|| "the input generator wrote nothing".to_string())?;
    let mut circuits = unframe(framed)?;
    let probe = if has_probe == 1 { circuits.pop() } else { None };
    let fingerprint = fingerprint(&frame(&circuits));
    Ok(Inputs {
        circuits,
        probe,
        fingerprint,
    })
}
