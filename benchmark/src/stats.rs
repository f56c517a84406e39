//! Estimators: percentiles over latency samples and the quiet-window
//! throughput estimator.
//!
//! The host is a small shared VM: the hypervisor steals whole scheduler
//! ticks from it, and a run that overlaps a steal burst measures the host,
//! not the program. Every throughput, latency and CPU figure is therefore
//! computed over *quiet windows* — windows of the run whose steal share
//! (from `/proc/stat`) is at most [`QUIET_STEAL`]. Windows are chosen by
//! steal alone, never by what they measured.
//!
//! What `/proc` cannot show — a neighbour on the sibling hyperthread or in
//! the shared cache — slows the program by up to a quarter for seconds at
//! a time. Throughput is therefore the *mean* rate of the quiet windows
//! (their ops over their time), which moves in proportion to the share of
//! slowed windows; a median or any other quantile of the window rates
//! jumps by the whole quarter when that share crosses it (BASELINE.md has
//! the comparison).

use rmc_ycsb::percentile;

/// A window is quiet when at most this share of its CPU capacity was
/// stolen by the hypervisor.
pub const QUIET_STEAL: f64 = 0.02;

/// One measurement window of a run (a fixed slice of wall time on the
/// closed-loop workloads, one engine round on `path_a`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Window {
    /// Window start, ns since the run's origin.
    pub start_ns: u64,
    /// Window end, ns since the run's origin.
    pub end_ns: u64,
    /// Operations completed inside the window.
    pub ops: u64,
    /// Share of the window's CPU capacity the hypervisor stole, `0..=1`.
    pub steal: f64,
}

impl Window {
    /// Completed operations per second inside this window.
    pub fn rate(&self) -> f64 {
        self.ops as f64 * 1e9 / (self.end_ns - self.start_ns).max(1) as f64
    }
}

/// Which windows the estimators use.
#[derive(Debug, Clone, PartialEq)]
pub struct QuietSet {
    /// `true` for every window that counts.
    pub used: Vec<bool>,
    /// Too few windows were quiet; the result carries `host.noisy = 1`.
    pub noisy: bool,
}

impl QuietSet {
    /// Selects the quiet windows. When fewer than a fifth of the windows
    /// (or fewer than six) are quiet, that many of the *least stolen*
    /// windows stand in and the set is flagged noisy.
    pub fn select(windows: &[Window]) -> QuietSet {
        let floor = (windows.len() / 5).max(6).min(windows.len());
        let mut by_steal: Vec<usize> = (0..windows.len()).collect();
        by_steal.sort_by(|&a, &b| windows[a].steal.total_cmp(&windows[b].steal));
        let quiet = windows.iter().filter(|w| w.steal <= QUIET_STEAL).count();
        let mut used = vec![false; windows.len()];
        for &i in &by_steal[..quiet.max(floor)] {
            used[i] = true;
        }
        QuietSet {
            used,
            noisy: quiet < floor,
        }
    }

    /// Number of windows that count.
    pub fn count(&self) -> usize {
        self.used.iter().filter(|&&q| q).count()
    }

    /// Does a sample completed at `at_ns` fall inside a counted window?
    /// `windows` must be the slice this set was selected from, in time
    /// order.
    pub fn covers(&self, windows: &[Window], at_ns: u64) -> bool {
        let i = windows.partition_point(|w| w.end_ns <= at_ns);
        i < windows.len() && windows[i].start_ns <= at_ns && self.used[i]
    }
}

/// Mean rate of the counted windows: their ops over their time, ops/s.
pub fn mean_rate(windows: &[Window], set: &QuietSet) -> f64 {
    let (mut ops, mut ns) = (0u64, 0u64);
    for (w, _) in windows.iter().zip(&set.used).filter(|(_, &used)| used) {
        ops += w.ops;
        ns += w.end_ns - w.start_ns;
    }
    ops as f64 * 1e9 / ns.max(1) as f64
}

/// Interquartile mean of `values` (sorts in place): the mean of the middle
/// half. Unlike a mean it ignores the few windows a burst inflated tenfold;
/// unlike a median it moves in proportion when the windows split into a
/// fast and a slow mode. 0 for an empty slice.
pub fn interquartile_mean(values: &mut [f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let cut = values.len() / 4;
    let middle = &values[cut..values.len() - cut];
    middle.iter().sum::<f64>() / middle.len() as f64
}

/// Median of `values` (sorts in place); 0 for an empty slice.
pub fn median(values: &mut [f64]) -> f64 {
    quantile(values, 50.0)
}

/// Nearest-rank percentile `p` (0–100) of `values` (sorts in place); 0 for
/// an empty slice, so a workload without updates reports 0, not a panic.
pub fn quantile(values: &mut [f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    percentile(values, p)
}

/// Mean steal share over all windows, weighted by window length.
pub fn mean_steal(windows: &[Window]) -> f64 {
    let total: u64 = windows.iter().map(|w| w.end_ns - w.start_ns).sum();
    if total == 0 {
        return 0.0;
    }
    windows
        .iter()
        .map(|w| w.steal * (w.end_ns - w.start_ns) as f64)
        .sum::<f64>()
        / total as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn win(i: u64, ops: u64, steal: f64) -> Window {
        Window {
            start_ns: i * 500_000_000,
            end_ns: (i + 1) * 500_000_000,
            ops,
            steal,
        }
    }

    #[test]
    fn quantile_is_nearest_rank_and_total_on_empty() {
        let mut v: Vec<f64> = (1..=101).rev().map(f64::from).collect();
        assert_eq!(quantile(&mut v, 50.0), 51.0);
        assert_eq!(quantile(&mut v, 99.0), 100.0);
        assert_eq!(quantile(&mut v, 0.0), 1.0);
        assert_eq!(quantile(&mut [], 99.0), 0.0);
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn quiet_windows_drop_stolen_ones() {
        // Two windows hit by steal run at half speed; the estimate must
        // not move.
        let windows: Vec<Window> = (0..10)
            .map(|i| {
                if i == 2 || i == 5 {
                    win(i, 5_000, 0.30)
                } else {
                    win(i, 10_000, 0.0)
                }
            })
            .collect();
        let set = QuietSet::select(&windows);
        assert!(!set.noisy);
        assert_eq!(set.count(), 8);
        assert_eq!(mean_rate(&windows, &set), 20_000.0);
        // Samples are attributed to windows by completion time.
        assert!(set.covers(&windows, 100));
        assert!(!set.covers(&windows, 2 * 500_000_000 + 7));
        assert!(!set.covers(&windows, 10 * 500_000_000));
    }

    #[test]
    fn noisy_host_falls_back_to_the_least_stolen_windows() {
        // One quiet window of thirty: too few, so the six least stolen
        // stand in, whatever they measured.
        let windows: Vec<Window> = (0..30)
            .map(|i| {
                win(
                    i,
                    1_000 + i,
                    if i == 0 { 0.0 } else { 0.5 - i as f64 * 0.01 },
                )
            })
            .collect();
        let set = QuietSet::select(&windows);
        assert!(set.noisy);
        let used: Vec<usize> = (0..30).filter(|&i| set.used[i]).collect();
        assert_eq!(used, [0, 25, 26, 27, 28, 29]);
        let few = QuietSet::select(&windows[..2]);
        assert_eq!((few.count(), few.noisy), (2, true));
        assert!((mean_steal(&windows[..2]) - 0.245).abs() < 1e-9);
    }

    #[test]
    fn mean_rate_moves_in_proportion_to_the_slowed_share() {
        // A quarter-slower mode the host does not report: the mean shifts
        // by the share of slowed windows, not by the whole quarter.
        let rate = |slowed: u64| {
            let windows: Vec<Window> = (0..10)
                .map(|i| win(i, if i < slowed { 7_500 } else { 10_000 }, 0.0))
                .collect();
            mean_rate(&windows, &QuietSet::select(&windows))
        };
        assert_eq!(rate(0), 20_000.0);
        assert_eq!(rate(4), 18_000.0);
        assert_eq!(rate(6), 17_000.0);
    }

    #[test]
    fn interquartile_mean_drops_a_quarter_at_each_end() {
        let mut v = [1_000.0, 4.0, 2.0, 3.0, 5.0, 6.0, 7.0, 0.0];
        assert_eq!(interquartile_mean(&mut v), (3.0 + 4.0 + 5.0 + 6.0) / 4.0);
        assert_eq!(interquartile_mean(&mut [9.0, 1.0, 5.0]), 5.0);
        assert_eq!(interquartile_mean(&mut [8.0]), 8.0);
        assert_eq!(interquartile_mean(&mut []), 0.0);
    }

    #[test]
    fn window_rate_uses_its_own_length() {
        let w = Window {
            start_ns: 0,
            end_ns: 250_000_000,
            ops: 1_000,
            steal: 0.0,
        };
        assert_eq!(w.rate(), 4_000.0);
    }
}
