//! Shared infrastructure for the experiment drivers.
//!
//! Each paper artifact (Table I/II, Figs 1-13, plus ablations) has a driver
//! in `src/bin/experiments.rs`; this library holds the run-context, CSV
//! output, and table-formatting helpers they share.

pub mod backend;
pub mod chart;
pub mod json;
pub mod report;

use std::fs;
use std::path::PathBuf;

/// Common knobs for every experiment run.
#[derive(Debug, Clone)]
pub struct ExpCtx {
    /// Divisor applied to the paper's per-client request counts. The
    /// workloads are closed-loop and steady-state, so throughput and power
    /// are insensitive to run length; energy totals are reported alongside
    /// the factor. `1` reproduces paper-scale counts.
    pub scale: u64,
    /// RNG seed (the paper averages 5 runs; drivers report mean ± err over
    /// `runs` seeds derived from this one).
    pub seed: u64,
    /// Seeded repetitions per configuration.
    pub runs: u64,
    /// Where CSV outputs land.
    pub out_dir: PathBuf,
}

impl Default for ExpCtx {
    fn default() -> Self {
        ExpCtx {
            scale: 10,
            seed: 42,
            runs: 1,
            out_dir: PathBuf::from("results"),
        }
    }
}

impl ExpCtx {
    /// Scales a paper-scale request count.
    pub fn ops(&self, paper_ops: u64) -> u64 {
        (paper_ops / self.scale).max(200)
    }

    /// Writes rows as CSV under the output directory.
    ///
    /// # Panics
    ///
    /// Panics if the output directory cannot be created or written — the
    /// drivers are command-line tools and fail loudly.
    pub fn write_csv(&self, name: &str, header: &str, rows: &[Vec<String>]) {
        fs::create_dir_all(&self.out_dir).expect("create results dir");
        let mut out = String::from(header);
        out.push('\n');
        for row in rows {
            out.push_str(&row.join(","));
            out.push('\n');
        }
        let path = self.out_dir.join(format!("{name}.csv"));
        fs::write(&path, out).expect("write csv");
        println!("  -> {}", path.display());
    }
}

/// Formats a mean ± stddev pair the way the paper prints error bars.
pub fn mean_err(values: &[f64]) -> (f64, f64) {
    if values.is_empty() {
        return (0.0, 0.0);
    }
    let mean = values.iter().sum::<f64>() / values.len() as f64;
    if values.len() < 2 {
        return (mean, 0.0);
    }
    let var = values.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / values.len() as f64;
    (mean, var.sqrt())
}

/// Renders a numeric throughput like the paper ("372K", "2.0M").
pub fn kops(v: f64) -> String {
    if v >= 1e6 {
        format!("{:.2}M", v / 1e6)
    } else {
        format!("{:.0}K", v / 1e3)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ops_scaling_floors() {
        let ctx = ExpCtx {
            scale: 10,
            ..ExpCtx::default()
        };
        assert_eq!(ctx.ops(100_000), 10_000);
        assert_eq!(ctx.ops(500), 200, "floor keeps runs meaningful");
    }

    #[test]
    fn mean_err_basics() {
        let (m, e) = mean_err(&[2.0, 4.0]);
        assert_eq!(m, 3.0);
        assert_eq!(e, 1.0);
        assert_eq!(mean_err(&[]), (0.0, 0.0));
        assert_eq!(mean_err(&[5.0]), (5.0, 0.0));
    }

    #[test]
    fn kops_formatting() {
        assert_eq!(kops(372_000.0), "372K");
        assert_eq!(kops(2_004_000.0), "2.00M");
    }
}
