//! Records that make outputs and counters repeat across runs: the first
//! run of a build on an input stores them, every later one must match.

use std::collections::BTreeMap;
use std::fs;
use std::path::Path;
use std::time::UNIX_EPOCH;

use crate::inputs::Workload;

/// Identifies the benchmark binary, so a rebuilt program starts fresh
/// records.
fn build_stamp() -> Result<String, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating the binary: {e}"))?;
    let meta = fs::metadata(&exe).map_err(|e| format!("reading {}: {e}", exe.display()))?;
    let modified = meta
        .modified()
        .ok()
        .and_then(|t| t.duration_since(UNIX_EPOCH).ok())
        .map_or(0, |d| d.as_nanos());
    Ok(format!("{modified:x}-{:x}", meta.len()))
}

/// Compares `entries` with those stored for this build, workload and
/// input under `kind`, then stores the union.  Returns a description of
/// every mismatch.
pub fn compare_and_store(
    dir: &Path,
    workload: Workload,
    input_fingerprint: u64,
    kind: &str,
    entries: &[(String, String)],
) -> Result<(), String> {
    let dir = dir.join("records");
    fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    let path = dir.join(format!(
        "{}-{input_fingerprint:016x}-{}-{kind}.txt",
        workload.name(),
        build_stamp()?
    ));
    let mut stored: BTreeMap<String, String> = fs::read_to_string(&path)
        .unwrap_or_default()
        .lines()
        .filter_map(|line| line.split_once('='))
        .map(|(k, v)| (k.to_string(), v.to_string()))
        .collect();
    let mut mismatches = Vec::new();
    for (key, value) in entries {
        match stored.get(key) {
            Some(previous) if previous != value => {
                mismatches.push(format!("{key} was {previous}, now {value}"));
            }
            Some(_) => {}
            None => {
                stored.insert(key.clone(), value.clone());
            }
        }
    }
    let text: String = stored.iter().map(|(k, v)| format!("{k}={v}\n")).collect();
    fs::write(&path, text).map_err(|e| format!("writing {}: {e}", path.display()))?;
    if mismatches.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "{} differs from an earlier run of this build: {}",
            kind,
            mismatches.join("; ")
        ))
    }
}
