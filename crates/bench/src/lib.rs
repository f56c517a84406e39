//! Shared infrastructure for the paper artefacts.
//!
//! `src/bin/experiments.rs` holds one table, `ARTEFACTS`: every table and
//! figure of the paper plus the §IX ablations, each with its CSV(s), how its
//! rows come out of simulation reports, the paper's line and its
//! EXPERIMENTS.md claims as predicates. This library is what that table is
//! written in: the one run path ([`ExpCtx::run`], memoised, so a
//! configuration two artefacts ask for is simulated once), the one grid
//! renderer ([`ExpCtx::grid`]), and the [`Artefact`] / [`Finding`] types
//! with the loop that builds, prints, writes and checks one artefact.

#![forbid(unsafe_code)]

pub mod chart;
pub mod json;
pub mod report;

use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::fmt::Display;
use std::fs;
use std::path::PathBuf;
use std::rc::Rc;

use rmc_core::{cost, ClusterConfig, RunReport};
use rmc_sim::{SimDuration, SimTime};

/// The rows of one CSV, formatted: what an artefact writes and prints.
pub type Rows = Vec<Vec<String>>;
/// The same rows as numbers (a label cell is NaN): what a finding reads.
pub type Table = Vec<Vec<f64>>;

/// Everything that determines one deterministic run, so also its memo key.
#[derive(Debug, Clone)]
pub struct Sim {
    /// The cluster, workload and seed.
    pub cfg: ClusterConfig,
    /// Kill this server at this instant.
    pub kill: Option<(SimTime, usize)>,
    /// Keep sampling at least this long (idle and recovery timelines).
    pub min: SimDuration,
}

impl From<ClusterConfig> for Sim {
    fn from(cfg: ClusterConfig) -> Self {
        Sim {
            cfg,
            kill: None,
            min: SimDuration::ZERO,
        }
    }
}

impl Sim {
    /// Samples for at least `secs` simulated seconds.
    pub fn lasting(mut self, secs: u64) -> Self {
        self.min = SimDuration::from_secs(secs);
        self
    }

    /// Runs the protocol cluster of `cfg` under the cost layer, with its
    /// kill, to completion.
    pub fn simulate(&self) -> RunReport {
        cost::run(&self.cfg, self.kill, self.min, false).report
    }
}

/// The scale EXPERIMENTS.md quotes, and the only one the findings'
/// thresholds were read at: a failed finding is an error here and
/// information anywhere else.
pub const DOCUMENTED_SCALE: u64 = 10;

/// Common knobs for every artefact, and the memo of the runs made so far.
#[derive(Debug)]
pub struct ExpCtx {
    /// Divisor applied to the paper's per-client request counts (default
    /// [`DOCUMENTED_SCALE`]; `1` is paper scale). Energy totals are
    /// reported ×scale.
    pub scale: u64,
    /// RNG seed of the first run of every configuration.
    pub seed: u64,
    /// Every grid cell is the mean over this many runs, on seeds derived
    /// from `seed` (the paper averages 5).
    pub runs: u64,
    /// Where CSV outputs land.
    pub out_dir: PathBuf,
    /// What turns a [`Sim`] into its report: [`Sim::simulate`]. Tests put
    /// literal reports here.
    pub simulate: fn(&Sim) -> RunReport,
    memo: RefCell<HashMap<String, Rc<RunReport>>>,
    requests: Cell<u64>,
}

impl Default for ExpCtx {
    fn default() -> Self {
        ExpCtx {
            scale: DOCUMENTED_SCALE,
            seed: 42,
            runs: 1,
            out_dir: PathBuf::from("results"),
            simulate: Sim::simulate,
            memo: RefCell::default(),
            requests: Cell::new(0),
        }
    }
}

/// One value per report, with the decimals it is printed at.
pub type Metric<'a> = (&'a dyn Fn(&RunReport) -> f64, usize);

impl ExpCtx {
    /// Scales a paper-scale request count.
    pub fn ops(&self, paper_ops: u64) -> u64 {
        (paper_ops / self.scale).max(200)
    }

    /// The one run path: the report of `sim`, simulated the first time any
    /// artefact asks for that configuration and shared from then on.
    pub fn run(&self, sim: impl Into<Sim>) -> Rc<RunReport> {
        let sim = sim.into();
        self.requests.set(self.requests.get() + 1);
        let key = format!("{sim:?}");
        if let Some(report) = self.memo.borrow().get(&key) {
            return Rc::clone(report);
        }
        let report = Rc::new((self.simulate)(&sim));
        self.memo.borrow_mut().insert(key, Rc::clone(&report));
        report
    }

    /// How many of the requested runs the memo saved.
    pub fn memo_summary(&self) -> String {
        let simulated = self.memo.borrow().len() as u64;
        let served = self.requests.get() - simulated;
        format!("{simulated} simulated, {served} served from memo")
    }

    /// The one grid renderer: `sim(row, col)` names each cell's run, every
    /// metric of a cell is the mean over `runs` derived seeds.
    pub fn grid<R: Copy, C: Copy, S: Into<Sim>>(
        &self,
        rows: &[R],
        cols: &[C],
        sim: impl Fn(R, C) -> S,
        metrics: &[Metric],
    ) -> Grid<R, C> {
        let cell = |r: R, c: C| -> Vec<f64> {
            let sim: Sim = sim(r, c).into();
            let reports: Vec<Rc<RunReport>> = (0..self.runs)
                .map(|k| {
                    let mut sim = sim.clone();
                    sim.cfg.seed += k * 1000;
                    self.run(sim)
                })
                .collect();
            let mean = |get: &dyn Fn(&RunReport) -> f64| {
                reports.iter().map(|r| get(r)).sum::<f64>() / reports.len() as f64
            };
            metrics.iter().map(|(get, _)| mean(get)).collect()
        };
        Grid {
            rows: rows.to_vec(),
            cols: cols.to_vec(),
            decimals: metrics.iter().map(|m| m.1).collect(),
            cells: rows
                .iter()
                .map(|&r| cols.iter().map(|&c| cell(r, c)).collect())
                .collect(),
        }
    }

    /// Writes rows as CSV under the output directory.
    ///
    /// # Panics
    ///
    /// Panics if the output directory cannot be created or written — the
    /// drivers are command-line tools and fail loudly.
    pub fn write_csv(&self, name: &str, header: &str, rows: &[Vec<String>]) {
        fs::create_dir_all(&self.out_dir).expect("create results dir");
        let body: String = rows.iter().map(|row| row.join(",") + "\n").collect();
        let path = self.out_dir.join(format!("{name}.csv"));
        fs::write(&path, format!("{header}\n{body}")).expect("write csv");
        println!("  -> {}", path.display());
    }
}

/// A row axis × a column axis with `cells[row][col][metric]` measured.
#[derive(Debug)]
pub struct Grid<R, C> {
    /// Row axis values.
    pub rows: Vec<R>,
    /// Column axis values.
    pub cols: Vec<C>,
    /// Measured cells; an artefact may derive its own (Fig 3's factors).
    pub cells: Vec<Vec<Vec<f64>>>,
    decimals: Vec<usize>,
}

impl<R: Display, C> Grid<R, C> {
    fn fmt(&self, cell: &[f64], m: usize) -> String {
        format!("{:.*}", self.decimals[m], cell[m])
    }

    /// One CSV row per grid row: its label, then the chosen `metrics` of
    /// every cell — column by column, or metric by metric.
    pub fn wide(&self, metrics: &[usize], by_metric: bool) -> Rows {
        let columns = 0..self.cols.len();
        let mut order: Vec<(usize, usize)> =
            (columns.flat_map(|c| metrics.iter().map(move |&m| (c, m)))).collect();
        if by_metric {
            // Stable, so columns keep their order within a metric.
            order.sort_by_key(|&(_, m)| metrics.iter().position(|&listed| listed == m));
        }
        let row = |r: usize| {
            let cells = order.iter().map(|&(c, m)| self.fmt(&self.cells[r][c], m));
            std::iter::once(self.rows[r].to_string())
                .chain(cells)
                .collect()
        };
        (0..self.rows.len()).map(row).collect()
    }

    /// One CSV row per cell: row label, column label, every metric.
    pub fn long(&self) -> Rows
    where
        C: Display,
    {
        let metrics = 0..self.decimals.len();
        let cell = |r: usize, c: usize| {
            let labels = [self.rows[r].to_string(), self.cols[c].to_string()];
            let values = metrics.clone().map(|m| self.fmt(&self.cells[r][c], m));
            labels.into_iter().chain(values).collect()
        };
        (0..self.rows.len())
            .flat_map(|r| (0..self.cols.len()).map(move |c| cell(r, c)))
            .collect()
    }

    /// Prints metric 0 as a line chart: one series per column (named
    /// `{col}{unit}`) over the row axis.
    pub fn chart(&self, title: &str, unit: &str)
    where
        R: Copy + Into<f64>,
        C: Display,
    {
        let series: Vec<chart::Series> = (self.cols.iter().enumerate())
            .map(|(c, col)| {
                let points = self.rows.iter().zip(&self.cells);
                let points = points.map(|(&r, row)| (r.into(), row[c][0])).collect();
                chart::Series::new(&format!("{col}{unit}"), points)
            })
            .collect();
        println!("{}", chart::line_chart(title, &series, 48, 10));
    }
}

/// Whether the model reproduces a claim of the paper.
#[derive(Debug, Clone, Copy)]
pub enum Verdict {
    /// The paper's claim, bracketed, holds on the artefact's rows.
    Reproduces,
    /// The model departs from the paper, for this reason; the predicate
    /// pins the departure as measured, so a model change that fixes or
    /// worsens it fails until EXPERIMENTS.md moves with it.
    Diverges(&'static str),
}

/// Whether the predicate held, and the measured values it read.
pub type Check = (bool, String);

/// One EXPERIMENTS.md claim as a predicate over its artefact's own rows.
#[derive(Debug)]
pub struct Finding {
    /// What EXPERIMENTS.md cites, e.g. `fig5.falls`.
    pub id: &'static str,
    /// Reproduction or documented divergence.
    pub verdict: Verdict,
    /// The claim, in words.
    pub claim: &'static str,
    /// The predicate, over the artefact's CSVs in table order.
    pub check: fn(&[Table]) -> Check,
}

impl Finding {
    /// A table entry.
    pub const fn new(
        id: &'static str,
        verdict: Verdict,
        claim: &'static str,
        check: fn(&[Table]) -> Check,
    ) -> Self {
        Finding {
            id,
            verdict,
            claim,
            check,
        }
    }

    /// Evaluates the predicate and prints its line; false when it failed.
    pub fn report(&self, tables: &[Table]) -> bool {
        let (holds, measured) = (self.check)(tables);
        let Finding { id, claim, .. } = self;
        match (self.verdict, holds) {
            (Verdict::Reproduces, true) => println!("✓ {id} — {claim} ({measured})"),
            (Verdict::Reproduces, false) => println!("FAILED {id} — {claim} ({measured})"),
            (Verdict::Diverges(why), true) => {
                println!("✗ {id} — diverges as documented: {claim} ({measured}) — {why}")
            }
            (Verdict::Diverges(_), false) => println!(
                "FAILED {id} — the documented divergence is not what was measured: {claim} ({measured})"
            ),
        }
        holds
    }
}

/// One table or figure of the paper (or a §IX ablation).
#[derive(Debug)]
pub struct Artefact {
    /// Subcommand.
    pub name: &'static str,
    /// What it is, with its parameters.
    pub title: &'static str,
    /// `(stem, header)` of each CSV it writes under `results/`.
    pub csv: &'static [(&'static str, &'static str)],
    /// How its rows — one [`Rows`] per CSV — come out of [`ExpCtx::run`].
    pub build: fn(&ExpCtx) -> Vec<Rows>,
    /// What the paper reports.
    pub paper: &'static str,
    /// Its EXPERIMENTS.md claims.
    pub findings: &'static [Finding],
}

impl Artefact {
    /// Builds the rows, prints and writes them, and evaluates every
    /// finding; returns how many predicates failed.
    pub fn run(&self, ctx: &ExpCtx) -> usize {
        println!("\n=== {} — {} ===", self.name, self.title);
        let built = (self.build)(ctx);
        assert_eq!(
            built.len(),
            self.csv.len(),
            "{}: one Rows per CSV",
            self.name
        );
        for ((stem, header), rows) in self.csv.iter().zip(&built) {
            print_table(header, rows);
            ctx.write_csv(stem, header, rows);
        }
        println!("paper: {}", self.paper);
        let tables: Vec<Table> = built.iter().map(parse_table).collect();
        let failed = |f: &&Finding| !f.report(&tables);
        self.findings.iter().filter(failed).count()
    }
}

/// Formatted rows as numbers; a label parses to NaN.
pub fn parse_table(rows: &Rows) -> Table {
    let num = |cell: &String| cell.parse().unwrap_or(f64::NAN);
    rows.iter().map(|r| r.iter().map(num).collect()).collect()
}

/// Prints rows aligned under their CSV header. Timelines are long and
/// mostly flat: past 20 rows, a row that differs from its predecessor in
/// one column only (the time) is elided.
fn print_table(header: &str, rows: &Rows) {
    let head: Vec<String> = header.split(',').map(String::from).collect();
    let width = |c: usize| {
        rows.iter()
            .chain([&head])
            .map(|r| r[c].chars().count())
            .max()
    };
    let widths: Vec<usize> = (0..head.len()).map(|c| width(c).unwrap_or(0)).collect();
    let print = |row: &Vec<String>| {
        let cells = row.iter().zip(&widths).map(|(v, w)| format!("{v:>w$}"));
        println!("  {}", cells.collect::<Vec<_>>().join("  "));
    };
    print(&head);
    let mut elided = 0;
    for (i, row) in rows.iter().enumerate() {
        let differing = |prev: &Vec<String>| row.iter().zip(prev).filter(|(a, b)| a != b).count();
        if rows.len() > 20 && i > 0 && i + 1 < rows.len() && differing(&rows[i - 1]) <= 1 {
            elided += 1;
            continue;
        }
        if elided > 0 {
            println!("  … {elided} more like the row above");
            elided = 0;
        }
        print(row);
    }
}

/// Column `c` of a table.
pub fn col(t: &Table, c: usize) -> Vec<f64> {
    t.iter().map(|row| row[c]).collect()
}

/// Strictly increasing.
pub fn rising(v: &[f64]) -> bool {
    v.windows(2).all(|w| w[1] > w[0])
}

/// Strictly decreasing.
pub fn falling(v: &[f64]) -> bool {
    v.windows(2).all(|w| w[1] < w[0])
}

/// `lo <= x <= hi`.
pub fn within(x: f64, lo: f64, hi: f64) -> bool {
    (lo..=hi).contains(&x)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ops_scaling_floors() {
        let ctx = ExpCtx::default();
        assert_eq!(ctx.ops(100_000), 10_000);
        assert_eq!(ctx.ops(500), 200, "floor keeps runs meaningful");
    }

    #[test]
    fn labels_parse_to_nan_and_shapes_are_strict() {
        let t = parse_table(&vec![vec!["A".into(), "1.5".into()]]);
        assert!(t[0][0].is_nan() && t[0][1] == 1.5);
        assert!(rising(&[1.0, 2.0]) && !rising(&[1.0, 1.0]) && !falling(&[1.0, 1.0]));
        assert!(within(2.0, 2.0, 3.0) && !within(3.1, 2.0, 3.0));
    }
}
