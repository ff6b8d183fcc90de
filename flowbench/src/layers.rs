//! Per-layer accounting of a traced iteration: span self times folded
//! into the repository's layers, and the counters the passes pour into
//! the tracer's metrics registry.

use std::collections::BTreeMap;

use glsx_network::telemetry::build_span_tree;
use glsx_network::{SpanNode, Tracer};

/// The layer a span belongs to, or `None` when it inherits its parent's.
/// The benchmark names its own spans around public calls after their
/// layer; the program's pass, executor and portfolio spans are mapped for
/// the calls that run several layers, where no benchmark span separates
/// them.  Inside a portfolio job, the conversion and the compaction
/// between passes fall to `portfolio`.
fn layer_of(name: &str) -> Option<&str> {
    Some(match name {
        "flow" => "uncovered",
        "balance" => "balancing",
        "rewrite" => "rewriting",
        "refactor" => "refactoring",
        "resub" => "resubstitution",
        "fraig" => "sweeping",
        "lut_map" => "lut_mapping",
        "verify" => "executor.verify",
        "final_verify" => "executor.final_verify",
        "portfolio_aig" | "portfolio_mig" | "portfolio_xag" => "portfolio",
        _ if name.starts_with("step:") => "executor.checkpoint",
        "io.read" | "io.write" | "network.derive" | "network.cleanup" | "balancing"
        | "rewriting" | "refactoring" | "resubstitution" | "sweeping" | "lut_mapping"
        | "executor" | "portfolio" => name,
        _ => return None,
    })
}

/// Self time per layer, in seconds, plus the inclusive time of every span
/// name (for spans whose whole extent matters, like a portfolio job).
#[derive(Clone, Debug, Default)]
pub struct LayerTimes {
    pub self_s: BTreeMap<String, f64>,
    pub inclusive_s: BTreeMap<String, f64>,
}

impl LayerTimes {
    pub fn self_of(&self, layer: &str) -> f64 {
        self.self_s.get(layer).copied().unwrap_or(0.0)
    }

    pub fn inclusive_of(&self, span: &str) -> f64 {
        self.inclusive_s.get(span).copied().unwrap_or(0.0)
    }

    /// Sum of every layer's self time, `uncovered` included: the wall time
    /// of the root spans.
    pub fn total(&self) -> f64 {
        self.self_s.values().sum()
    }

    /// A fixed-width table, layers by descending self time.
    pub fn table(&self) -> String {
        let total = self.total().max(f64::MIN_POSITIVE);
        let mut rows: Vec<(&String, &f64)> = self.self_s.iter().collect();
        rows.sort_by(|a, b| b.1.total_cmp(a.1).then(a.0.cmp(b.0)));
        let mut out = format!("{:<24} {:>12} {:>8}\n", "layer", "self_s", "share");
        for (layer, seconds) in rows {
            out.push_str(&format!(
                "{layer:<24} {seconds:>12.6} {:>7.2}%\n",
                100.0 * seconds / total
            ));
        }
        out.push_str(&format!("{:<24} {total:>12.6} {:>7.2}%\n", "total", 100.0));
        out
    }
}

/// Folds the tracer's spans into per-layer self times.
pub fn layer_times(tracer: &Tracer) -> LayerTimes {
    let mut times = LayerTimes::default();
    for root in build_span_tree(&tracer.events()) {
        visit(&root, "uncovered", &mut times);
    }
    times
}

fn visit(node: &SpanNode, inherited: &str, times: &mut LayerTimes) {
    let layer = layer_of(&node.name).unwrap_or(inherited);
    let children_us: f64 = node.children.iter().map(|c| c.duration_us).sum();
    *times.self_s.entry(layer.to_string()).or_default() +=
        (node.duration_us - children_us).max(0.0) / 1e6;
    *times.inclusive_s.entry(node.name.clone()).or_default() += node.duration_us / 1e6;
    for child in &node.children {
        visit(child, layer, times);
    }
}

/// The registry counters each per-layer count is read from.
pub const COUNTERS: [(&str, &str); 17] = [
    ("balancing.groups", "balance.groups"),
    ("balancing.rebuilt", "balance.rebuilt"),
    ("rewriting.visited", "rewrite.visited"),
    ("rewriting.substitutions", "rewrite.substitutions"),
    ("rewriting.frontier_revisits", "rewrite.frontier_revisits"),
    ("cuts.enumerated_cuts", "rewrite.cuts.enumerated_cuts"),
    ("cuts.invalidated_nodes", "rewrite.cuts.invalidated_nodes"),
    ("cuts.refreshes", "rewrite.cuts.refreshes"),
    ("refactoring.visited", "refactor.visited"),
    ("refactoring.substitutions", "refactor.substitutions"),
    ("resubstitution.visited", "resub.visited"),
    ("resubstitution.substitutions", "resub.substitutions"),
    ("sweeping.candidate_pairs", "fraig.candidate_pairs"),
    ("sweeping.proven", "fraig.proven"),
    ("sweeping.refuted", "fraig.refuted"),
    ("sweeping.skipped", "fraig.skipped"),
    ("sat.conflicts", "fraig.conflicts"),
];

/// Layers whose time exponent `c2rs_mac16k` reports between its probe and
/// its full-size input.
pub const SCALED_LAYERS: [&str; 4] = ["balancing", "rewriting", "refactoring", "resubstitution"];

/// Time exponent `k` of `t ∝ n^k` between two sizes.
pub fn exponent(small_s: f64, large_s: f64, small_n: usize, large_n: usize) -> f64 {
    if small_s <= 0.0 || large_s <= 0.0 || small_n == large_n {
        return 0.0;
    }
    (large_s / small_s).ln() / (large_n as f64 / small_n as f64).ln()
}

#[cfg(test)]
mod tests {
    use super::*;
    use glsx_network::TraceMode;

    #[test]
    fn self_times_partition_the_root() {
        let tracer = Tracer::new(TraceMode::Full);
        {
            let _root = tracer.span("flow");
            {
                let _step = tracer.span("rewriting");
                let _pass = tracer.span("rewrite");
                let _phase = tracer.span("evaluate");
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
            let _write = tracer.span("io.write");
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        let times = layer_times(&tracer);
        let root = times.inclusive_of("flow");
        assert!((times.total() - root).abs() < 1e-9, "{times:?}");
        assert!(times.self_of("rewriting") >= 0.002);
        assert!(times.self_of("io.write") >= 0.001);
        assert_eq!(times.self_s.len(), 3, "{times:?}");
    }

    #[test]
    fn exponents_recover_a_power_law() {
        assert!((exponent(1.0, 8.0, 100, 200) - 3.0).abs() < 1e-12);
        assert_eq!(exponent(0.0, 1.0, 1, 2), 0.0);
    }
}
