//! Node power model.

use serde::{Deserialize, Serialize};

/// Instantaneous activity of one node, as seen over a sampling window.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct NodeActivity {
    /// Fraction of total CPU capacity busy, in `[0, 1]` (all cores pooled;
    /// 25 % means one of four cores).
    pub cpu: f64,
    /// Fraction of the window the disk was servicing requests, in `[0, 1]`.
    pub disk: f64,
    /// Memory write traffic (log appends, replica staging) in GB/s.
    pub mem_write_gbps: f64,
    /// NIC traffic (both directions) in GB/s.
    pub nic_gbps: f64,
}

impl NodeActivity {
    /// An idle node (OS only; the RAMCloud dispatch thread is *not*
    /// included — that shows up as 25 % CPU).
    pub fn idle() -> Self {
        NodeActivity::default()
    }
}

/// Linear node power model: `P = base + cpu·cpu_full + disk·disk_active +
/// mem·mem_per_gbps + nic·nic_per_gbps` watts.
///
/// # Calibration
///
/// [`PowerProfile::grid5000_nancy`] is fitted to the paper's reported
/// operating points for the Xeon X3440 nodes:
///
/// | paper observation | model point |
/// |---|---|
/// | 1 server, 1 client, 49.8 % CPU → 92 W (Fig 1b) | `59 + 0.498·66 ≈ 91.9 W` |
/// | 1 server, 30 clients, 99.3 % CPU → 122-127 W (Fig 1b) | `59 + 0.993·66 ≈ 124.5 W` |
/// | crash recovery, ~92 % CPU + disk → ~119 W (Fig 9b) | `59 + 0.92·66 + 6·0.3 + mem ≈ 119-122 W` |
/// | idle with polling, 25 % CPU → ~75 W | `59 + 0.25·66 = 75.5 W` |
///
/// The disk/memory/NIC terms are small correction terms; they produce the
/// paper's ordering `read-only < read-heavy < update-heavy` at equal CPU.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PowerProfile {
    /// Profile name for reports.
    pub name: String,
    /// Power at zero activity (fans, DRAM refresh, PSU loss), watts.
    pub base_watts: f64,
    /// Additional watts when every core is busy.
    pub cpu_full_watts: f64,
    /// Additional watts when the disk is continuously active.
    pub disk_active_watts: f64,
    /// Additional watts per GB/s of memory write traffic.
    pub mem_watts_per_gbps: f64,
    /// Additional watts per GB/s of NIC traffic.
    pub nic_watts_per_gbps: f64,
}

impl PowerProfile {
    /// The paper's Grid'5000 Nancy node (1× Xeon X3440, 4 cores, 16 GB RAM,
    /// HDD, Infiniband-20G). See the type-level docs for the fit.
    pub fn grid5000_nancy() -> Self {
        PowerProfile {
            name: "grid5000-nancy-x3440".to_owned(),
            base_watts: 59.0,
            cpu_full_watts: 66.0,
            disk_active_watts: 6.0,
            mem_watts_per_gbps: 2.5,
            nic_watts_per_gbps: 1.5,
        }
    }

    /// Instantaneous node power for the given activity, in watts.
    ///
    /// Activity fractions are clamped into `[0, 1]`, rate terms at zero.
    pub fn power(&self, a: NodeActivity) -> f64 {
        self.base_watts
            + self.cpu_full_watts * a.cpu.clamp(0.0, 1.0)
            + self.disk_active_watts * a.disk.clamp(0.0, 1.0)
            + self.mem_watts_per_gbps * a.mem_write_gbps.max(0.0)
            + self.nic_watts_per_gbps * a.nic_gbps.max(0.0)
    }

    /// Power of a node running only the OS.
    pub fn idle_power(&self) -> f64 {
        self.power(NodeActivity::idle())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn act(cpu: f64) -> NodeActivity {
        NodeActivity {
            cpu,
            ..NodeActivity::idle()
        }
    }

    #[test]
    fn calibration_single_client_point() {
        // Paper Fig 1b: 1 server / 1 client = 92 W at 49.8 % CPU.
        let p = PowerProfile::grid5000_nancy();
        let w = p.power(act(0.498));
        assert!((w - 92.0).abs() < 1.5, "got {w} W, expected ~92 W");
    }

    #[test]
    fn calibration_saturated_point() {
        // Paper Fig 1b: 122-127 W at ~98-99 % CPU.
        let p = PowerProfile::grid5000_nancy();
        let w = p.power(act(0.99));
        assert!((122.0..=127.0).contains(&w), "got {w} W");
    }

    #[test]
    fn calibration_polling_idle_point() {
        // Dispatch polling pins one of four cores even when idle.
        let p = PowerProfile::grid5000_nancy();
        let w = p.power(act(0.25));
        assert!((72.0..=80.0).contains(&w), "got {w} W");
    }

    #[test]
    fn power_monotone_in_each_term() {
        let p = PowerProfile::grid5000_nancy();
        let base = p.power(NodeActivity::idle());
        for a in [
            act(0.5),
            NodeActivity {
                disk: 1.0,
                ..NodeActivity::idle()
            },
            NodeActivity {
                mem_write_gbps: 2.0,
                ..NodeActivity::idle()
            },
            NodeActivity {
                nic_gbps: 2.0,
                ..NodeActivity::idle()
            },
        ] {
            assert!(p.power(a) > base);
        }
    }

    #[test]
    fn activity_clamped() {
        let p = PowerProfile::grid5000_nancy();
        assert_eq!(p.power(act(2.0)), p.power(act(1.0)));
        assert_eq!(p.power(act(-1.0)), p.power(act(0.0)));
    }

    #[test]
    fn update_heavy_costs_more_than_read_only_at_equal_cpu() {
        // The workload-dependent terms produce the paper's ordering.
        let p = PowerProfile::grid5000_nancy();
        let read_only = NodeActivity {
            cpu: 0.9,
            nic_gbps: 0.4,
            ..NodeActivity::idle()
        };
        let update_heavy = NodeActivity {
            cpu: 0.9,
            nic_gbps: 0.8,
            mem_write_gbps: 0.5,
            disk: 0.4,
        };
        assert!(p.power(update_heavy) > p.power(read_only) + 2.0);
    }
}
