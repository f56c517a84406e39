//! The table's own tests; none simulates (a full `all` takes 2½ minutes).
//! Runs are replaced by literal reports through `ExpCtx::simulate`, and the
//! findings are fed the committed `results/*.csv`.

use std::collections::BTreeSet;
use std::path::PathBuf;

use rmc_bench::{parse_table, Table, Verdict};
use rmc_energy::EnergyReport;
use rmc_ycsb::ClientStats;

use super::*;

fn repo() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// A report holding `throughput` and nothing else of interest.
fn report(throughput: f64) -> RunReport {
    RunReport {
        duration_secs: 1.0,
        completed_ops: 0,
        throughput_ops: throughput,
        mean_latency_us: 0.0,
        client_stats: ClientStats::new(),
        per_client_latency_timelines: Vec::new(),
        energy: EnergyReport {
            per_node_avg_watts: Vec::new(),
            cluster_avg_watts: 0.0,
            total_energy_joules: 1.0,
            requests_served: 0,
        },
        per_node_cpu: Vec::new(),
        cpu_timeline: Vec::new(),
        power_timeline: Vec::new(),
        disk_timeline: Vec::new(),
        recovery: Some(RecoveryReport {
            crashed_server: 0,
            killed_at_secs: 60.0,
            detected_at_secs: 60.0,
            finished_at_secs: 70.0,
            duration_secs: 10.0,
            replayed_entries: 0,
            replayed_gb: 0.0,
        }),
        timeout_ops: 0,
        crashed: false,
        ops_per_joule: 0.0,
    }
}

/// A context that never simulates and writes under a scratch directory.
fn literal_ctx(simulate: fn(&Sim) -> RunReport, dir: &str) -> ExpCtx {
    let mut ctx = ExpCtx::default();
    ctx.simulate = simulate;
    ctx.out_dir = std::env::temp_dir().join(format!("rmc-bench-{dir}-{}", std::process::id()));
    ctx
}

fn artefact(name: &str) -> &'static Artefact {
    ARTEFACTS.iter().find(|a| a.name == name).expect(name)
}

/// The committed CSV of `stem`, header included, and its rows as numbers.
fn committed(stem: &str) -> (String, Table) {
    let path = repo().join(format!("results/{stem}.csv"));
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path:?}: {e}"));
    let cells = |line: &str| line.split(',').map(String::from).collect();
    let rows: Rows = text.lines().skip(1).map(cells).collect();
    (text, parse_table(&rows))
}

#[test]
fn one_configuration_is_simulated_once() {
    let ctx = literal_ctx(|_| report(1.0), "memo");
    let base = || Sim::from(sec_v(&ctx, 10, 30, A));
    let first = ctx.run(base());
    assert!(std::rc::Rc::ptr_eq(&first, &ctx.run(base())));
    assert_eq!(ctx.memo_summary(), "1 simulated, 1 served from memo");
    // Everything that determines a run is in the key: the seed, the kill
    // plan and the minimum duration each miss.
    ctx.run(sec_v(&ctx, 10, 30, A).with_seed(7));
    ctx.run(base().lasting(5));
    let mut killed = base();
    killed.kill = Some((SimTime::from_secs(60), 3));
    ctx.run(killed.clone());
    killed.kill = Some((SimTime::from_secs(60), 4));
    ctx.run(killed);
    assert_eq!(ctx.memo_summary(), "5 simulated, 1 served from memo");
}

/// What `all` prints last.
#[test]
fn all_asks_for_157_runs_of_103_configurations() {
    let ctx = literal_ctx(|_| report(1.0), "plan");
    for a in &ARTEFACTS {
        assert_eq!((a.build)(&ctx).len(), a.csv.len(), "{}", a.name);
    }
    assert_eq!(ctx.memo_summary(), "103 simulated, 54 served from memo");
}

/// Literal reports in, the committed bytes out — through the whole artefact
/// loop, so its finding is evaluated on them too.
#[test]
fn fig5_renders_to_its_committed_bytes() {
    fn fig5_cell(sim: &Sim) -> RunReport {
        let ops = match (sim.cfg.replication, sim.cfg.clients) {
            (1, 10) => 66317.0,
            (1, 30) => 194312.0,
            (1, 60) => 109290.0,
            (2, 10) => 54438.0,
            (2, 30) => 102545.0,
            (2, 60) => 82778.0,
            (3, 10) => 46151.0,
            (3, 30) => 73951.0,
            (3, 60) => 66770.0,
            (4, 10) => 40076.0,
            (4, 30) => 62714.0,
            (4, 60) => 56790.0,
            other => panic!("fig5 asked for {other:?}"),
        };
        assert_eq!((sim.cfg.servers, sim.cfg.seed), (20, 42));
        report(ops)
    }
    let ctx = literal_ctx(fig5_cell, "fig5");
    assert_eq!(
        artefact("fig5").run(&ctx),
        0,
        "Finding 3 holds on these rows"
    );
    let written = std::fs::read_to_string(ctx.out_dir.join("fig5.csv")).unwrap();
    assert_eq!(written, committed("fig5").0);
    std::fs::remove_dir_all(&ctx.out_dir).unwrap();
}

#[test]
fn runs_average_every_grid_cell_over_derived_seeds() {
    let mut ctx = literal_ctx(|sim| report(sim.cfg.seed as f64), "runs");
    ctx.runs = 2;
    let g = ctx.grid(
        &[1, 2],
        &[10],
        |r, c| sec_v(&ctx, 20, c, A).with_replication(r),
        &[(&THR, 1)],
    );
    // Seeds 42 and 1042 per cell.
    assert_eq!(
        g.wide(&[0], false),
        vec![vec!["1", "542.0"], vec!["2", "542.0"]]
    );
    assert_eq!(ctx.memo_summary(), "4 simulated, 0 served from memo");
}

#[test]
fn grid_layouts() {
    let ctx = literal_ctx(
        |sim| report(f64::from(sim.cfg.replication) + sim.cfg.clients as f64 / 100.0),
        "layout",
    );
    let neg = |r: &RunReport| -r.throughput_ops;
    let g = ctx.grid(
        &[1, 2],
        &[10, 30],
        |r, c| sec_v(&ctx, 20, c, A).with_replication(r),
        &[(&THR, 1), (&neg, 2)],
    );
    assert_eq!(
        g.wide(&[0, 1], false)[0],
        ["1", "1.1", "-1.10", "1.3", "-1.30"]
    );
    assert_eq!(
        g.wide(&[0, 1], true)[1],
        ["2", "2.1", "2.3", "-2.10", "-2.30"]
    );
    assert_eq!(g.wide(&[1], false)[0], ["1", "-1.10", "-1.30"]);
    assert_eq!(g.long()[1], ["1", "30", "1.3", "-1.30"]);
    assert_eq!(g.long().len(), 4);
}

#[test]
fn the_table_is_the_results_directory() {
    let names: BTreeSet<&str> = ARTEFACTS.iter().map(|a| a.name).collect();
    assert_eq!(names.len(), ARTEFACTS.len(), "artefact names are unique");
    let stems: Vec<&str> = ARTEFACTS.iter().flat_map(|a| a.csv).map(|c| c.0).collect();
    let listed: BTreeSet<String> = stems.iter().map(|s| format!("{s}.csv")).collect();
    assert_eq!(listed.len(), stems.len(), "CSV stems are unique");
    let on_disk: BTreeSet<String> = std::fs::read_dir(repo().join("results"))
        .unwrap()
        .map(|entry| entry.unwrap().file_name().into_string().unwrap())
        .filter(|name| name.ends_with(".csv"))
        .collect();
    assert_eq!(listed, on_disk, "no orphan file, no unlisted artefact");
    let ids: Vec<&str> = ARTEFACTS
        .iter()
        .flat_map(|a| a.findings)
        .map(|f| f.id)
        .collect();
    assert_eq!(
        ids.iter().collect::<BTreeSet<_>>().len(),
        ids.len(),
        "finding ids are unique"
    );
    for a in &ARTEFACTS {
        assert!(!a.findings.is_empty(), "{} checks nothing", a.name);
        for (stem, header) in a.csv {
            assert_eq!(
                committed(stem).0.lines().next(),
                Some(*header),
                "{stem} header"
            );
        }
    }
}

/// Per finding, an edit of the committed rows that must flip it: the paper's
/// shape where the model diverges, its absence where the model reproduces.
type Edit = fn(&mut [Table]);
const BREAKERS: [(&str, Edit); 23] = [
    ("fig1.ceiling", |t| t[0][8][2] = 1e6),
    ("fig1.power", |t| t[0][2][2] = t[0][1][2]),
    ("table1.floor", |t| t[0][0][3] = 26.0),
    ("fig2.smallest", |t| t[0][8][2] = t[0][2][2]),
    ("table2.collapse", |t| t[0][4][1] = 2.0 * t[0][1][1]),
    ("table2.b-scales", |t| t[0][4][2] = 844e3),
    ("fig3.degrades", |t| t[0][3][3] = 1.2),
    ("fig4.rises", |t| t[0][4][1] = 90.0),
    ("fig4.energy", |t| t[1][2][1] = 10.0 * t[1][0][1]),
    ("fig4.a-below-c", |t| t[0][4][3] = 130.0),
    ("fig5.falls", |t| t[0][3][1] = t[0][0][1]),
    ("fig6.monotone", |t| t[0][0][7] = 0.0),
    ("fig7.falls", |t| {
        (0..4).for_each(|r| t[0][r][1] = 103.0 + 4.0 * r as f64)
    }),
    ("fig8.more-servers", |t| t[0][0][3] = 0.01),
    ("fig9.baseline", |t| t[0][10][1] = 40.0),
    ("fig9.spike", |t| (70..75).for_each(|r| t[0][r][1] = 50.0)),
    ("fig10.blocked", |t| t[0][10] = vec![0.0, 70.0, 23.16]),
    ("fig10.live", |t| {
        t[0].iter_mut()
            .filter(|row| row[0] == 1.0 && row[1] > 60.0)
            .for_each(|row| row[2] *= 3.0)
    }),
    ("fig11.linear", |t| {
        t[0].iter_mut().for_each(|row| row[1] = 10.0)
    }),
    ("fig12.overlap", |t| {
        (90..100).for_each(|r| t[0][r][1] = 0.0)
    }),
    ("fig12.reads-end-early", |t| {
        (140..150).for_each(|r| t[0][r][1] = 5.0)
    }),
    ("fig13.linear", |t| t[0][2][2] = 20_000.0),
    ("segment.hdd-ssd", |t| t[0][0][1] = t[0][3][1]),
];

#[test]
fn every_finding_holds_on_the_committed_rows_and_fails_on_broken_ones() {
    let mut checked = 0;
    for a in &ARTEFACTS {
        let tables: Vec<Table> = a.csv.iter().map(|c| committed(c.0).1).collect();
        for f in a.findings {
            let (holds, measured) = (f.check)(&tables);
            assert!(holds, "{} does not hold on results/: {measured}", f.id);
            let breaker = BREAKERS.iter().find(|b| b.0 == f.id);
            let (_, edit) = breaker.unwrap_or_else(|| panic!("{} has no breaker", f.id));
            let mut broken = tables.clone();
            edit(&mut broken);
            let (holds, measured) = (f.check)(&broken);
            assert!(
                !holds,
                "{} still holds on the broken rows: {measured}",
                f.id
            );
            assert!(!f.report(&broken));
            checked += 1;
        }
    }
    assert_eq!(checked, BREAKERS.len(), "a breaker names no finding");
}

/// Fig 7's divergence is "falls", so the paper's rising series fails it;
/// Finding 6's is "flat in R", so the earlier model's linear series fails it.
#[test]
fn fig7_fails_on_the_papers_series_and_finding_6_on_a_linear_one() {
    let fig7 = &artefact("fig7").findings[0];
    assert!(matches!(fig7.verdict, Verdict::Diverges(_)));
    let series = |w: [f64; 4]| {
        vec![(1..=4)
            .zip(w)
            .map(|(r, w)| vec![f64::from(r), w])
            .collect::<Vec<_>>()]
    };
    assert!((fig7.check)(&series([114.23, 113.90, 110.79, 107.84])).0);
    assert!(!(fig7.check)(&series([103.0, 107.0, 111.0, 115.0])).0);
    let fig11 = &artefact("fig11").findings[0];
    let rows = |secs: [f64; 5]| {
        vec![(1..=5)
            .zip(secs)
            .map(|(r, s)| vec![f64::from(r), s, 5.4 + 0.1 * f64::from(r), 78.0])
            .collect::<Vec<_>>()]
    };
    assert!((fig11.check)(&rows([71.86, 72.55, 72.37, 72.37, 72.30])).0);
    assert!(!(fig11.check)(&rows([9.5, 16.95, 25.89, 32.76, 40.47])).0);
    assert!(
        !(fig11.check)(&rows([20.0; 5])).0,
        "flat but as fast as the paper's R1"
    );
}

/// EXPERIMENTS.md's Fig/Table/ablation sections: every ✓ or ✗ is followed
/// by the id of the table entry that checks it, and every entry is cited.
#[test]
fn every_mark_in_experiments_md_names_its_table_entry() {
    let text = std::fs::read_to_string(repo().join("EXPERIMENTS.md")).unwrap();
    let from = text.find("## Fig 1a").expect("first artefact section");
    let to = text
        .find("## Checksum cost")
        .expect("first non-model section");
    let findings = || ARTEFACTS.iter().flat_map(|a| a.findings);
    let mut cited = BTreeSet::new();
    for (at, mark) in text[from..to].match_indices(['✓', '✗']) {
        let after = text[from + at + mark.len()..].trim_start();
        let id = after
            .strip_prefix('`')
            .and_then(|rest| rest.split('`').next());
        let found = findings().find(|f| Some(f.id) == id);
        let f = found.unwrap_or_else(|| panic!("{mark} names no table entry: {:.60}", after));
        let diverges = matches!(f.verdict, Verdict::Diverges(_));
        assert_eq!(diverges, mark == "✗", "{} carries the wrong mark", f.id);
        cited.insert(f.id);
    }
    let all: BTreeSet<&str> = findings().map(|f| f.id).collect();
    assert_eq!(cited, all, "a table entry EXPERIMENTS.md never cites");
}
