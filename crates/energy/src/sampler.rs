//! 1 Hz PDU emulation and energy reports.

use rmc_runtime::{SimTime, Summary};
use serde::Serialize;

/// Emulates the paper's per-machine power distribution units.
///
/// The paper's measurement script polled each PDU over SNMP once per second
/// and later multiplied samples by one second to obtain energy. Real PDUs
/// report a *lagging* average rather than instantaneous power; the sampler
/// models this as a first-order low-pass filter with time constant `tau`.
/// With `tau = 0` samples are instantaneous.
///
/// The lag matters for fidelity: the paper's Section-V runs are only a few
/// seconds long for fast workloads, so their reported averages sit well below
/// steady-state power — an effect this sampler reproduces.
///
/// # Examples
///
/// ```
/// use rmc_energy::PduSampler;
/// use rmc_runtime::SimTime;
///
/// let mut pdu = PduSampler::new(2, 0.0);
/// pdu.sample(0, SimTime::from_secs(1), 100.0);
/// pdu.sample(0, SimTime::from_secs(2), 110.0);
/// assert_eq!(pdu.node_average(0), Some(105.0));
/// ```
#[derive(Debug, Clone)]
pub struct PduSampler {
    tau_secs: f64,
    nodes: Vec<NodePdu>,
}

#[derive(Debug, Clone)]
struct NodePdu {
    summary: Summary,
    energy_joules: f64,
    smoothed: Option<f64>,
    last_sample: Option<SimTime>,
}

impl NodePdu {
    fn new() -> Self {
        NodePdu {
            summary: Summary::new(),
            energy_joules: 0.0,
            smoothed: None,
            last_sample: None,
        }
    }
}

impl PduSampler {
    /// Creates a sampler for `nodes` machines with meter time constant
    /// `tau_secs` (0 disables smoothing).
    ///
    /// # Panics
    ///
    /// Panics if `tau_secs` is negative or not finite.
    pub fn new(nodes: usize, tau_secs: f64) -> Self {
        assert!(
            tau_secs.is_finite() && tau_secs >= 0.0,
            "tau must be finite and non-negative"
        );
        PduSampler {
            tau_secs,
            nodes: (0..nodes).map(|_| NodePdu::new()).collect(),
        }
    }

    /// Records one power sample for `node` at time `t` with instantaneous
    /// model power `watts`; the stored value is the meter-lagged reading.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn sample(&mut self, node: usize, t: SimTime, watts: f64) {
        let pdu = &mut self.nodes[node];
        let dt = match pdu.last_sample {
            Some(prev) => t.saturating_since(prev).as_secs_f64(),
            None => 1.0,
        };
        // A cold meter reads the first sample in full (a real one starts from
        // its pre-run, idle-ish value; the filter catches up within a few
        // tau anyway).
        let reading = match pdu.smoothed {
            Some(prev) if self.tau_secs > 0.0 => {
                let alpha = 1.0 - (-dt / self.tau_secs).exp();
                prev + alpha * (watts - prev)
            }
            _ => watts,
        };
        pdu.smoothed = Some(reading);
        pdu.last_sample = Some(t);
        pdu.summary.record(reading);
        // The paper's method: energy = Σ sample × 1 s (here: × dt).
        pdu.energy_joules += reading * dt;
    }

    /// Average of the recorded samples for `node`, or `None` if none.
    pub fn node_average(&self, node: usize) -> Option<f64> {
        let s = &self.nodes[node].summary;
        if s.count() == 0 {
            None
        } else {
            Some(s.mean())
        }
    }

    /// Average sampled power across all nodes, watts.
    pub fn cluster_average(&self) -> f64 {
        let mut all = Summary::new();
        for n in &self.nodes {
            all.merge(&n.summary);
        }
        all.mean()
    }

    /// Total energy across all nodes, joules.
    pub fn cluster_energy(&self) -> f64 {
        self.nodes.iter().map(|n| n.energy_joules).sum()
    }

    /// Builds the final report.
    pub fn report(&self, requests_served: u64) -> EnergyReport {
        let per_node_avg: Vec<f64> = (0..self.nodes.len())
            .map(|i| self.node_average(i).unwrap_or(0.0))
            .collect();
        EnergyReport {
            per_node_avg_watts: per_node_avg,
            cluster_avg_watts: self.cluster_average(),
            total_energy_joules: self.cluster_energy(),
            requests_served,
        }
    }
}

/// Energy results of one experiment run.
#[derive(Debug, Clone, Serialize)]
pub struct EnergyReport {
    /// Average sampled power of each node, watts.
    pub per_node_avg_watts: Vec<f64>,
    /// Average sampled power across nodes, watts.
    pub cluster_avg_watts: f64,
    /// Total energy across nodes, joules.
    pub total_energy_joules: f64,
    /// Requests completed during the measured window.
    pub requests_served: u64,
}

impl EnergyReport {
    /// The paper's efficiency metric: requests served per joule.
    pub fn ops_per_joule(&self) -> f64 {
        if self.total_energy_joules <= 0.0 {
            0.0
        } else {
            self.requests_served as f64 / self.total_energy_joules
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unsmoothed_sampler_is_exact() {
        let mut pdu = PduSampler::new(1, 0.0);
        for s in 1..=10u64 {
            pdu.sample(0, SimTime::from_secs(s), 100.0);
        }
        assert_eq!(pdu.node_average(0), Some(100.0));
        // First sample charged for 1 s, then 9 × 1 s.
        assert!((pdu.cluster_energy() - 1000.0).abs() < 1e-9);
    }

    /// Samples `node` at second `t`, one second after its previous sample,
    /// and returns the meter's reading: the energy charged for that second.
    fn reading(pdu: &mut PduSampler, node: usize, t: u64, watts: f64) -> f64 {
        let before = pdu.cluster_energy();
        pdu.sample(node, SimTime::from_secs(t), watts);
        pdu.cluster_energy() - before
    }

    #[test]
    fn smoothing_lags_a_step() {
        let mut pdu = PduSampler::new(1, 3.0);
        pdu.sample(0, SimTime::from_secs(1), 75.0);
        let after_step = reading(&mut pdu, 0, 2, 125.0);
        assert!(after_step < 125.0, "meter must lag, read {after_step}");
        assert!(after_step > 75.0);
        // Converges eventually.
        let mut last = after_step;
        for s in 3..=40u64 {
            last = reading(&mut pdu, 0, s, 125.0);
        }
        assert!((last - 125.0).abs() < 1.0, "converged to {last}");
    }

    #[test]
    fn short_run_average_below_steady_state() {
        // The Section-V effect: a 4-second run under smoothing reports less
        // than the steady-state power.
        let mut pdu = PduSampler::new(1, 3.0);
        pdu.sample(0, SimTime::from_secs(1), 80.0); // ramp from near-idle
        for s in 2..=5u64 {
            pdu.sample(0, SimTime::from_secs(s), 125.0);
        }
        let avg = pdu.node_average(0).unwrap();
        assert!(
            avg < 118.0,
            "short-run average {avg} should sit below 125 W"
        );
        assert!(avg > 85.0);
    }

    #[test]
    fn cluster_aggregates() {
        let mut pdu = PduSampler::new(3, 0.0);
        for node in 0..3 {
            for s in 1..=5u64 {
                pdu.sample(node, SimTime::from_secs(s), 100.0 + node as f64 * 10.0);
            }
        }
        assert!((pdu.cluster_average() - 110.0).abs() < 1e-9);
        assert!((pdu.cluster_energy() - (100.0 + 110.0 + 120.0) * 5.0).abs() < 1e-9);
    }

    #[test]
    fn report_efficiency_metric() {
        let mut pdu = PduSampler::new(1, 0.0);
        for s in 1..=10u64 {
            pdu.sample(0, SimTime::from_secs(s), 100.0);
        }
        let report = pdu.report(500_000);
        assert!((report.ops_per_joule() - 500.0).abs() < 1e-9);
        assert_eq!(report.per_node_avg_watts, vec![100.0]);
    }

    #[test]
    fn empty_report_is_sane() {
        let pdu = PduSampler::new(0, 0.0);
        let report = pdu.report(0);
        assert_eq!(report.ops_per_joule(), 0.0);
        assert!(report.per_node_avg_watts.is_empty());
    }

    #[test]
    fn irregular_sampling_intervals_weight_energy() {
        let mut pdu = PduSampler::new(1, 0.0);
        pdu.sample(0, SimTime::from_secs(1), 100.0); // 1 s charge
        pdu.sample(0, SimTime::from_secs(4), 100.0); // 3 s charge
        assert!((pdu.cluster_energy() - 400.0).abs() < 1e-9);
    }
}
