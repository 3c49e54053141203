//! What one measured stream records, and the end-to-end metrics made
//! from it.

use crate::layers::LayerAcc;
use crate::stats::{median, tail, Tail};
use adj_service::Trace;

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name, as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit, as listed in `BENCHMARK.json`.
    pub unit: &'static str,
}

impl Metric {
    /// A metric.
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Metric {
        Metric { name, value, unit }
    }
}

/// Closed-loop work of one client thread: how many front-door calls it
/// made, how many bindings they answered, and the summed wall time of the
/// calls themselves (answer checks run between calls, outside it).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ClientRate {
    /// Front-door calls completed.
    pub calls: u64,
    /// Bindings answered (an unbound query answers one).
    pub bindings: u64,
    /// Summed wall seconds of those calls.
    pub busy_s: f64,
}

/// Everything an untraced stream contributes to the end-to-end metrics.
#[derive(Debug, Clone, Default)]
pub struct Measured {
    /// Latencies of the workload's primary operation, in seconds.
    pub latencies: Vec<f64>,
    /// Per-client closed-loop rates.
    pub clients: Vec<ClientRate>,
    /// Summed `ExecutionReport::total_secs()` of each complete pass.
    pub pass_costs: Vec<f64>,
    /// Front-door operations attempted.
    pub attempted: u64,
    /// Operations that failed or returned a wrong answer.
    pub failed: u64,
    /// The percentile `latency_tail_s` reports, in tenths of a percent.
    pub tail_tenths: usize,
}

impl Measured {
    /// Folds another client's stream into this one.
    pub fn merge(&mut self, other: Measured) {
        self.latencies.extend(other.latencies);
        self.clients.extend(other.clients);
        self.pass_costs.extend(other.pass_costs);
        self.attempted += other.attempted;
        self.failed += other.failed;
    }

    /// Calls per second summed over clients: each client's calls over its
    /// own busy time.
    pub fn calls_per_s(&self) -> f64 {
        self.clients.iter().filter(|c| c.busy_s > 0.0).map(|c| c.calls as f64 / c.busy_s).sum()
    }

    /// Bindings per second summed over clients.
    pub fn bindings_per_s(&self) -> f64 {
        self.clients.iter().filter(|c| c.busy_s > 0.0).map(|c| c.bindings as f64 / c.busy_s).sum()
    }

    /// The latency tail at the workload's percentile.
    pub fn tail(&self) -> Tail {
        tail(&self.latencies, self.tail_tenths)
    }

    /// The end-to-end metrics, in `BENCHMARK.json` order.
    pub fn end_to_end(&self, setup_s: &[f64], peak_rss_mb: f64) -> Vec<Metric> {
        vec![
            Metric::new("setup_s", median(setup_s), "s"),
            Metric::new("latency_p50_s", median(&self.latencies), "s"),
            Metric::new("latency_tail_s", self.tail().value, "s"),
            Metric::new("queries_per_s", self.calls_per_s(), "1/s"),
            Metric::new("bindings_per_s", self.bindings_per_s(), "1/s"),
            Metric::new("paper_cost_s", median(&self.pass_costs), "s"),
            Metric::new("peak_rss_mb", peak_rss_mb, "MiB"),
        ]
    }
}

/// One set-up plus measured stream of a workload.
#[derive(Default)]
pub struct Phase {
    /// Wall seconds of each set-up repetition.
    pub setup_s: Vec<f64>,
    /// What the end-to-end metrics are made from.
    pub measured: Measured,
    /// Per-layer sums (filled when the stream ran traced).
    pub layers: LayerAcc,
    /// The timeline of one representative call (traced streams only).
    pub representative: Option<Trace>,
    /// The query texts of the workload (for the parse layer).
    pub texts: Vec<String>,
    /// Workload settings and run facts for the config record, as rendered
    /// JSON values.
    pub notes: Vec<(&'static str, String)>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rates_sum_per_client_busy_time() {
        let mut m = Measured {
            clients: vec![ClientRate { calls: 10, bindings: 10, busy_s: 2.0 }],
            ..Default::default()
        };
        m.merge(Measured {
            clients: vec![ClientRate { calls: 6, bindings: 600, busy_s: 3.0 }],
            ..Default::default()
        });
        assert_eq!(m.calls_per_s(), 5.0 + 2.0);
        assert_eq!(m.bindings_per_s(), 5.0 + 200.0);
    }
}
