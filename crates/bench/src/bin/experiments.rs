//! Regenerates every table and figure of *"Characterizing Performance and
//! Energy-Efficiency of the RAMCloud Storage System"* (ICDCS 2017) on the
//! simulated cluster, and checks each against the paper's claim.
//!
//! ```text
//! cargo run --release -p rmc-bench --bin experiments -- [<artefact>... | all] [--scale N] [--seed S] [--runs R]
//! ```
//!
//! [`ARTEFACTS`] is the only list of what can be run (an unknown name prints
//! it). `--scale N` divides the paper's per-client request counts (default
//! 10; `--full` is paper scale), `--runs R` makes every grid cell the mean
//! over `R` derived seeds. Each artefact prints its rows, writes its CSV(s)
//! under `results/` and evaluates its findings; at the documented scale
//! (1/10, where every threshold was read) a failed finding exits 1.

use std::process::ExitCode;

use rmc_bench::chart::{format_quantity as kops, line_chart, Series};
use rmc_bench::Verdict::{Diverges, Reproduces};
use rmc_bench::{
    col, falling, rising, within, Artefact, ExpCtx, Finding, Rows, Sim, DOCUMENTED_SCALE,
};
use rmc_core::{ClientAffinity, ClusterConfig, RecoveryReport, RunReport};
use rmc_sim::{SimDuration, SimTime};
use rmc_ycsb::StandardWorkload::{self, A, B, C};
use rmc_ycsb::WorkloadSpec;

fn main() -> ExitCode {
    let mut ctx = ExpCtx::default();
    let mut names: Vec<String> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut number = || args.next().and_then(|v| v.parse().ok());
        match arg.as_str() {
            "--scale" => ctx.scale = number().expect("--scale N"),
            "--seed" => ctx.seed = number().expect("--seed S"),
            "--runs" => ctx.runs = number().expect("--runs R"),
            "--full" => ctx.scale = 1,
            _ => names.push(arg),
        }
    }
    let all = names.is_empty() || names.iter().any(|n| n == "all");
    let known = |n: &String| n == "all" || ARTEFACTS.iter().any(|a| a.name == n);
    if let Some(unknown) = names.iter().find(|n| !known(n)) {
        eprintln!("unknown artefact `{unknown}`; `all`, or any of:");
        for a in &ARTEFACTS {
            eprintln!("  {:<21} {}", a.name, a.title);
        }
        return ExitCode::from(2);
    }
    println!(
        "# RAMCloud characterization reproduction — scale 1/{}, seed {}, {} run(s) per grid cell",
        ctx.scale, ctx.seed, ctx.runs
    );
    let chosen = ARTEFACTS
        .iter()
        .filter(|a| all || names.iter().any(|n| n == a.name));
    let failed: usize = chosen.map(|a| a.run(&ctx)).sum();
    println!("\n{}; {failed} finding(s) failed", ctx.memo_summary());
    let enforced = ctx.scale == DOCUMENTED_SCALE;
    if failed > 0 && !enforced {
        println!("(informational: the thresholds were read at scale 1/{DOCUMENTED_SCALE})");
    }
    ExitCode::from(u8::from(failed > 0 && enforced))
}

const SERVERS: [u32; 3] = [1, 5, 10];
const CLIENTS: [u32; 5] = [10, 20, 30, 60, 90];
const R14: [u32; 4] = [1, 2, 3, 4];

/// Section IV peak-performance run: read-only, 5 M × 1 KB records, 10 M
/// requests per client (scaled, and /20: 10 M a client is ~4300 s). At
/// reduced scale the record count is trimmed too, never below Section V's
/// 100 K, so load stays proportionate.
fn peak(ctx: &ExpCtx, servers: u32, clients: u32) -> ClusterConfig {
    let workload = WorkloadSpec::peak_read_only()
        .with_record_count((5_000_000 / ctx.scale).max(100_000))
        .with_ops_per_client(ctx.ops(10_000_000) / 20);
    ClusterConfig::new(servers as usize, clients as usize, workload).with_seed(ctx.seed)
}

/// Section V/VI run: 100 K × 1 KB records, 100 K requests per client (scaled).
fn sec_v(ctx: &ExpCtx, servers: u32, clients: u32, w: StandardWorkload) -> ClusterConfig {
    let workload = WorkloadSpec::standard(w).with_ops_per_client(ctx.ops(100_000));
    ClusterConfig::new(servers as usize, clients as usize, workload).with_seed(ctx.seed)
}

/// The Fig 9–12 recovery substrate: `servers` nodes pre-loaded with
/// ~`gb_total` of data, the middle one killed at 60 s. 10 KB nominal values
/// keep entry counts tractable at full data volume (the compact payload
/// keeps real memory modest); entry size is NOT scaled — chunk cadence and
/// disk request sizes drive recovery timing.
fn recovery(ctx: &ExpCtx, servers: u32, gb_total: f64, r: u32, clients: usize, ops: u64) -> Sim {
    let value_bytes = 10 * 1024;
    let mut workload = WorkloadSpec::standard(C)
        .with_record_count((gb_total * 1e9 / value_bytes as f64) as u64)
        .with_ops_per_client(ops);
    workload.value_bytes = value_bytes;
    let cfg = ClusterConfig::new(servers as usize, clients, workload)
        .with_replication(r)
        .with_seed(ctx.seed);
    let kill = Some((SimTime::from_secs(60), servers as usize / 2));
    let min = SimDuration::ZERO;
    Sim { cfg, kill, min }
}

const THR: fn(&RunReport) -> f64 = |r| r.throughput_ops;
const WATTS: fn(&RunReport) -> f64 = |r| r.avg_node_watts();
const OP_PER_J: fn(&RunReport) -> f64 = |r| r.ops_per_joule;
fn recovered(r: &RunReport) -> &RecoveryReport {
    r.recovery.as_ref().expect("recovery must run")
}
fn recovery_secs(r: &RunReport) -> f64 {
    recovered(r).duration_secs
}
/// Mean node power over the recovery window.
fn recovery_watts(r: &RunReport) -> f64 {
    let window = recovered(r).detected_at_secs..recovered(r).finished_at_secs;
    let inside = r.power_timeline.iter().filter(|(t, _)| window.contains(t));
    let watts: Vec<f64> = inside.map(|&(_, w)| w).collect();
    watts.iter().sum::<f64>() / watts.len().max(1) as f64
}

fn print_recovery(report: &RunReport) {
    let rec = recovered(report);
    println!(
        "killed at {:.0}s, detected {:.2}s, finished {:.1}s (recovery {:.1}s, {:.2} GB replayed)",
        rec.killed_at_secs,
        rec.detected_at_secs,
        rec.finished_at_secs,
        rec.duration_secs,
        rec.replayed_gb
    );
}

/// Fig 9: 10 servers, 10 M × 1 KB = 9.7 GB, R4, idle.
fn fig9(ctx: &ExpCtx) -> Vec<Rows> {
    let report = ctx.run(recovery(ctx, 10, 9.7, 4, 1, 0).lasting(140));
    print_recovery(&report);
    let cpu = report.cpu_timeline.iter().map(|&(t, c)| (t, c * 100.0));
    let cpu = Series::new("cpu %", cpu.collect());
    let title = "Fig 9a — cluster CPU % over time";
    println!("{}", line_chart(title, &[cpu], 64, 10));
    let points = report.cpu_timeline.iter().zip(&report.power_timeline);
    let row = |(&(t, cpu), &(_, w)): (&(f64, f64), &(f64, f64))| {
        vec![
            format!("{t}"),
            format!("{:.4}", cpu * 100.0),
            format!("{w:.2}"),
        ]
    };
    vec![points.map(row).collect()]
}

/// Fig 10: two closed-loop read clients with enough requests to span the
/// recovery; client 0 asks only for the victim's data, client 1 never.
fn fig10(ctx: &ExpCtx) -> Vec<Rows> {
    let mut sim = recovery(ctx, 10, 9.7, 4, 2, 4_000_000).lasting(140);
    let victim = sim.kill.expect("planned").1;
    sim.cfg.client_affinity = Some(vec![
        ClientAffinity::On(victim),
        ClientAffinity::NotOn(victim),
    ]);
    let report = ctx.run(sim);
    print_recovery(&report);
    let clients = report.per_client_latency_timelines.iter().enumerate();
    let rows = clients.flat_map(|(c, timeline)| {
        let around = timeline.iter().filter(|(t, _)| (50.0..130.0).contains(t));
        around.map(move |(t, us)| vec![c.to_string(), format!("{t}"), format!("{us:.2}")])
    });
    vec![rows.collect()]
}

/// Fig 12: the disks of Fig 11's R4 run.
fn fig12(ctx: &ExpCtx) -> Vec<Rows> {
    let report = ctx.run(recovery(ctx, 9, 9.765, 4, 1, 0).lasting(150));
    print_recovery(&report);
    let row =
        |&(t, r, w): &(f64, f64, f64)| vec![format!("{t}"), format!("{r:.2}"), format!("{w:.2}")];
    vec![report.disk_timeline.iter().map(row).collect()]
}

/// Longest run of consecutive rows satisfying `hot`.
fn longest_run(t: &[Vec<f64>], hot: impl Fn(&Vec<f64>) -> bool) -> usize {
    let runs = t.split(|row| !hot(row));
    runs.map(<[_]>::len).max().unwrap_or(0)
}

/// Least-squares `(slope, R²)` of `y` over `x`.
fn linear_fit(x: &[f64], y: &[f64]) -> (f64, f64) {
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    let (mx, my) = (mean(x), mean(y));
    let cov = |a: &[f64], ma: f64, b: &[f64], mb: f64| -> f64 {
        a.iter().zip(b).map(|(p, q)| (p - ma) * (q - mb)).sum()
    };
    let (sxy, sxx, syy) = (cov(x, mx, y, my), cov(x, mx, x, mx), cov(y, my, y, my));
    (sxy / sxx, sxy * sxy / (sxx * syy))
}

/// Percent change from `old` to `new`.
fn pct(new: f64, old: f64) -> f64 {
    (new / old - 1.0) * 100.0
}

/// Every table and figure of the paper's evaluation, then the §IX
/// segment-size ablation: the only enumeration of the artefacts. `all` runs
/// it in order; EXPERIMENTS.md cites the findings by `id`. (Laid out by hand,
/// one claim a line: rustfmt leaves an item alone once a string in it cannot
/// be wrapped.)
static ARTEFACTS: [Artefact; 16] = [
    Artefact {
        name: "fig1",
        title: "Fig 1: read-only throughput (a) and power per server (b), servers {1,5,10} × clients {1,10,30}, no replication",
        csv: &[("fig1", "servers,clients,throughput_ops,avg_node_watts")],
        build: |ctx| {
            vec![ctx.grid(&SERVERS, &[1, 10, 30], |s, c| peak(ctx, s, c), &[(&THR, 0), (&WATTS, 2)]).long()]
        },
        paper: "1 srv saturates ~372K at 30 clients; 5 and 10 srv plateau together (client-limited); power ~92 W at 1 client vs 122-127 W loaded at every size",
        findings: &[
            Finding::new("fig1.ceiling", Reproduces, "Fig 1a: one server saturates at its dispatch ceiling; 5 and 10 servers plateau together, client-limited", |t| {
                let x = col(&t[0], 2);
                let together = (x[5] / x[8] - 1.0).abs() <= 0.02 && x[5].min(x[8]) >= 1.7 * x[2];
                let measured = format!("1×30 {}, 5×30 {}, 10×30 {}", kops(x[2]), kops(x[5]), kops(x[8]));
                (within(x[2], 350e3, 420e3) && together, measured + "; paper 372K, ~900K, ~950K")
            }),
            Finding::new("fig1.power", Reproduces, "Finding 1: power is not proportional to load — one server draws the same at 10 and at 30 clients", |t| {
                let (x, w) = (col(&t[0], 2), col(&t[0], 3));
                let loaded = within(w[1], 120.0, 127.0) && within(w[2], 120.0, 127.0) && x[2] >= 1.5 * x[1];
                let measured = format!("1×1 {:.1} W; 1×10 {:.1} W at {} vs 1×30 {:.1} W at {}", w[0], w[1], kops(x[1]), w[2], kops(x[2]));
                (within(w[0], 90.0, 94.0) && loaded, measured + "; paper 92 W, 122-127 W")
            }),
        ],
    },
    Artefact {
        name: "table1",
        title: "Table I: min—max of per-node average CPU %, clients {0..5,10,30} × servers {1,5,10}",
        csv: &[("table1", "clients,cpu1_min,cpu1_max,cpu5_min,cpu5_max,cpu10_min,cpu10_max")],
        build: |ctx| {
            let (lo, hi) = (|r: &RunReport| r.cpu_min_max_pct().0, |r: &RunReport| r.cpu_min_max_pct().1);
            // 0 clients: one client that issues nothing, sampled for 5 s.
            let sim = |clients: u32, servers| {
                let mut cfg = peak(ctx, servers, clients.max(1));
                if clients == 0 {
                    cfg.workload.ops_per_client = 0;
                }
                Sim::from(cfg).lasting(if clients == 0 { 5 } else { 0 })
            };
            vec![ctx.grid(&[0, 1, 2, 3, 4, 5, 10, 30], &SERVERS, sim, &[(&lo, 2), (&hi, 2)]).wide(&[0, 1], false)]
        },
        paper: "25% idle floor (polling); 49.8% at 1 client; 74% at 2; ≳95% from 10 clients",
        findings: &[
            Finding::new("table1.floor", Reproduces, "Finding 1: a polling core pins 25 % CPU on an idle server, and one spinning worker per client adds 25 % each", |t| {
                let (idle, one, two) = (&t[0][0][1..], t[0][1][1], t[0][2][1]);
                let holds = idle.iter().all(|&v| v == 25.0) && within(one, 49.5, 50.5) && within(two, 74.5, 75.5);
                (holds, format!("idle {:.2} %; 1 server {one:.1} % at 1 client, {two:.1} % at 2; paper 25, 49.8, 74.2", idle[0]))
            }),
        ],
    },
    Artefact {
        name: "fig2",
        title: "Fig 2: energy efficiency (op/J) of the Fig 1 sweep",
        csv: &[("fig2", "servers,clients,ops_per_joule")],
        build: |ctx| vec![ctx.grid(&SERVERS, &[1, 10, 30], |s, c| peak(ctx, s, c), &[(&OP_PER_J, 1)]).long()],
        paper: "best ~3000 op/J at 1 server / 30 clients; ~2x lower at 5 servers; ~7.6x lower at 10",
        findings: &[
            Finding::new("fig2.smallest", Reproduces, "Fig 2: the smallest cluster that sustains the load is the most efficient", |t| {
                let e = col(&t[0], 2);
                let holds = within(e[2], 2700.0, 3300.0) && within(e[2] / e[8], 6.0, 9.0);
                (holds, format!("1×30 {:.0} op/J, {:.1}× the 10×30 figure; paper ~3000, 7.6×", e[2], e[2] / e[8]))
            }),
        ],
    },
    Artefact {
        name: "table2",
        title: "Table II: throughput of 10 servers, clients {10..90} × workloads A/B/C",
        csv: &[("table2", "clients,A_ops,B_ops,C_ops")],
        build: |ctx| {
            let g = ctx.grid(&CLIENTS, &[A, B, C], |c, w| sec_v(ctx, 10, c, w), &[(&THR, 0)]);
            g.chart("Table II — throughput vs clients (10 servers)", "");
            vec![g.wide(&[0], false)]
        },
        paper: "A peaks 106K @20 then falls to 64K; B saturates ~844K; C scales to 2004K",
        findings: &[
            Finding::new("table2.collapse", Reproduces, "Finding 2: update-heavy A peaks at 20 clients and collapses while read-only C scales linearly", |t| {
                let (a, c) = (col(&t[0], 1), col(&t[0], 3));
                let holds = a[1] > a[0] && a[2..].iter().all(|&v| v <= 0.85 * a[1]) && c[4] / c[0] >= 8.5;
                let measured = format!("A {} @20 → {} @60; C ×{:.2} from 10 to 90 clients", kops(a[1]), kops(a[3]), c[4] / c[0]);
                (holds, measured + "; paper 106K → 64K, ×8.5")
            }),
            Finding::new("table2.b-scales", Diverges("the concurrent-writer contention input under-penalises B's rare writes at 60-90 clients"), "read-heavy B keeps scaling past 30 clients", |t| {
                let b = col(&t[0], 2);
                (b[4] / b[2] > 2.0, format!("B {} @30 → {} @90; paper 622K → 844K", kops(b[2]), kops(b[4])))
            }),
        ],
    },
    Artefact {
        name: "fig3",
        title: "Fig 3: scalability factor of Table II (baseline = 10 clients)",
        csv: &[("fig3", "clients,read_only_factor,read_heavy_factor,update_heavy_factor,perfect")],
        build: |ctx| {
            let mut g = ctx.grid(&CLIENTS, &[C, B, A], |c, w| sec_v(ctx, 10, c, w), &[(&THR, 2)]);
            let base = g.cells[0].clone();
            for (cell, base) in g.cells.iter_mut().flat_map(|row| row.iter_mut().zip(&base)) {
                cell[0] /= base[0];
            }
            let mut rows = g.wide(&[0], false);
            for (row, clients) in rows.iter_mut().zip(CLIENTS) {
                row.push(format!("{:.1}", f64::from(clients) / 10.0));
            }
            vec![rows]
        },
        paper: "read-only tracks perfect; read-heavy collapses between 30 and 60; update-heavy degrades below 1",
        findings: &[
            Finding::new("fig3.degrades", Reproduces, "Finding 2: adding clients to the update-heavy workload makes it slower than at 10", |t| {
                let (c, a) = (col(&t[0], 1), col(&t[0], 3));
                let measured = format!("update-heavy ×{:.2}/{:.2}/{:.2} at 30/60/90 clients", a[2], a[3], a[4]);
                (a[2..].iter().all(|&f| f < 1.0), format!("{measured}, read-only ×{:.2} of a perfect 9", c[4]))
            }),
        ],
    },
    Artefact {
        name: "fig4",
        title: "Fig 4: power per node of 20 servers vs clients (a), total energy at 90 clients (b), workloads C/B/A",
        csv: &[("fig4a", "clients,C_watts,B_watts,A_watts"), ("fig4b", "workload,total_energy_kj")],
        build: |ctx| {
            let kj = |r: &RunReport| r.total_energy_kj() * ctx.scale as f64;
            let g = ctx.grid(&CLIENTS, &[C, B, A], |c, w| sec_v(ctx, 20, c, w), &[(&WATTS, 2), (&kj, 2)]);
            println!("Fig 4b: total energy at 90 clients, KJ, rescaled ×{} to paper request counts", ctx.scale);
            let at90 = g.cols.iter().zip(&g.cells[4]);
            vec![g.wide(&[0], false), at90.map(|(w, cell)| vec![w.to_string(), format!("{:.2}", cell[1])]).collect()]
        },
        paper: "C ~82→93 W, B ~92→100 W, A ~90→110 W; A consumes 4.92x C's total energy at 90 clients",
        findings: &[
            Finding::new("fig4.rises", Reproduces, "Fig 4a: power per node rises with the number of clients", |t| {
                let (c, b) = (col(&t[0], 1), col(&t[0], 2));
                let measured = format!("C {:.0} → {:.0} W, B {:.0} → {:.0} W", c[0], c[4], b[0], b[4]);
                (rising(&c) && rising(&b), measured + "; paper 82 → 93, 92 → 100")
            }),
            Finding::new("fig4.energy", Reproduces, "Fig 4b: the collapsed update-heavy run costs several times read-only's energy for the same requests", |t| {
                let ratio = t[1][2][1] / t[1][0][1];
                (within(ratio, 4.0, 6.5), format!("A/C {ratio:.2}×; paper 4.92×"))
            }),
            Finding::new("fig4.a-below-c", Diverges("the collapsed update path leaves cores in lock convoys, not busy; the paper's A stays hottest (110 W vs 93 W)"), "update-heavy draws less than read-only at 60 and 90 clients", |t| {
                let (c, a) = (col(&t[0], 1), col(&t[0], 3));
                (a[3] < c[3] && a[4] < c[4], format!("A {:.1}/{:.1} W vs C {:.1}/{:.1} W", a[3], a[4], c[3], c[4]))
            }),
        ],
    },
    Artefact {
        name: "fig5",
        title: "Fig 5: throughput of 20 servers vs replication factor, clients {10,30,60}, workload A",
        csv: &[("fig5", "replication,clients10_ops,clients30_ops,clients60_ops")],
        build: |ctx| {
            let g = ctx.grid(&R14, &[10, 30, 60], |r, c| sec_v(ctx, 20, c, A).with_replication(r), &[(&THR, 0)]);
            g.chart("Fig 5 — throughput vs replication factor (20 servers)", " clients");
            vec![g.wide(&[0], false)]
        },
        paper: "10 clients: 78K@R1 → 43K@R4 (−45%); saturation at higher client counts",
        findings: &[
            Finding::new("fig5.falls", Reproduces, "Finding 3: every Fig 5 column falls with R", |t| {
                let drop = pct(t[0][3][1], t[0][0][1]);
                let holds = (1..4).all(|c| falling(&col(&t[0], c))) && within(drop, -50.0, -35.0);
                (holds, format!("10 clients {drop:.1} %; paper −45 %"))
            }),
        ],
    },
    Artefact {
        name: "fig6",
        title: "Fig 6: throughput (a) and total energy (b) vs replication factor, servers {10..40}, 60 clients, workload A",
        csv: &[("fig6", "replication,srv10_ops,srv10_kj,srv20_ops,srv20_kj,srv30_ops,srv30_kj,srv40_ops,srv40_kj")],
        build: |ctx| {
            let kj = |r: &RunReport| r.total_energy_kj() * ctx.scale as f64;
            let sim = |r, s| sec_v(ctx, s, 60, A).with_replication(r);
            vec![ctx.grid(&R14, &[10, 20, 30, 40], sim, &[(&THR, 0), (&kj, 2)]).wide(&[0, 1], false)]
        },
        paper: "(6a) R1 128K→237K from 10→40 servers, 10-server runs crash for R>2; (6b) 20 servers 81 KJ@R1 → 285 KJ@R4 (+351%)",
        findings: &[
            Finding::new("fig6.monotone", Reproduces, "Finding 3: throughput falls with R at every size and rises with servers at every R; energy rises with R", |t| {
                let by_r = |c: usize| if c % 2 == 1 { falling(&col(&t[0], c)) } else { rising(&col(&t[0], c)) };
                let by_size = |row: &Vec<f64>| rising(&[row[1], row[3], row[5], row[7]]);
                let (r1, r4) = (&t[0][0], &t[0][3]);
                let measured = format!("R1 {} → {} from 10 to 40 servers; 20 servers {:.0} → {:.0} KJ", kops(r1[1]), kops(r1[7]), r1[4], r4[4]);
                ((1..9).all(by_r) && t[0].iter().all(by_size), measured + "; paper 128K → 237K, 81 → 285 KJ")
            }),
        ],
    },
    Artefact {
        name: "fig7",
        title: "Fig 7: power per node of 40 servers vs replication factor, 60 clients, workload A",
        csv: &[("fig7", "replication,avg_node_watts")],
        build: |ctx| vec![ctx.grid(&R14, &[40], |r, s| sec_v(ctx, s, 60, A).with_replication(r), &[(&WATTS, 2)]).wide(&[0], false)],
        paper: "103 W at R1 rising to ~115 W at R4",
        findings: &[
            Finding::new("fig7.falls", Diverges("the Fig 4a mechanism: replication slows the update path into lock convoys, so cores idle where the paper's spin"), "power per node falls as R grows", |t| {
                let w = col(&t[0], 1);
                (falling(&w), format!("{:.1} → {:.1} W; paper 103 → 115 W", w[0], w[3]))
            }),
        ],
    },
    Artefact {
        name: "fig8",
        title: "Fig 8: energy efficiency (Kop/J) vs replication factor, servers {20,30,40}, 60 clients, workload A",
        csv: &[("fig8", "replication,srv20_kop_per_j,srv30_kop_per_j,srv40_kop_per_j")],
        build: |ctx| {
            let kop_per_j = |r: &RunReport| r.ops_per_joule / 1e3;
            let sim = |r, s| sec_v(ctx, s, 60, A).with_replication(r);
            vec![ctx.grid(&R14, &[20, 30, 40], sim, &[(&kop_per_j, 4)]).wide(&[0], false)]
        },
        paper: "with replication, MORE servers are more efficient: 1.5/1.9/2.3 Kop/J at R1 for 20/30/40; gap narrows as R grows",
        findings: &[
            Finding::new("fig8.more-servers", Diverges("Finding 2's writer contention: 60 clients put more concurrent writers on each of 20 servers than of 40, so at R4 the 40-server cluster runs 2.3× as fast as the 20-server one (Fig 6a), not 2×; the earlier model's 10 % rested on its 40-server run ending at 5.03 s and being billed a sixth whole PDU second"), "more servers are more efficient at R1 and the gap narrows as R grows, but at R4 40 servers still lead 20 by 15 % or more", |t| {
                let (r1, r4) = (&t[0][0], &t[0][3]);
                let (gap1, gap4) = (pct(r1[3], r1[1]), pct(r4[3], r4[1]));
                let measured = format!("R1 {:.3}/{:.3}/{:.3} Kop/J for 20/30/40 servers", r1[1], r1[2], r1[3]);
                let holds = r1[3] > r1[2] && r1[2] > r1[1] && gap4 >= 15.0 && gap4 < gap1;
                (holds, format!("{measured}; 40 leads 20 by {gap1:.0} % at R1, {gap4:.0} % at R4"))
            }),
        ],
    },
    Artefact {
        name: "fig9",
        title: "Fig 9: CPU and power timelines of 10 idle servers across a crash at 60 s (R4, 9.7 GB)",
        csv: &[("fig9", "t_s,cpu_pct,watts_per_node")],
        build: fig9,
        paper: "25% CPU idle → 92% spike at crash, decaying over recovery; power ~→119 W",
        findings: &[
            Finding::new("fig9.baseline", Diverges("recovery outlasts the figure: a holder reads the dead master's whole replica set once per recovery master (`FetchSegments` carries no buckets), 73 s in all, until ROADMAP 1(b) partitions at the backup"), "the idle cluster sits at the polling floor before the kill, and its disks are still recovering 30 s before the end", |t| {
                let idle = |row: &Vec<f64>| within(row[1], 24.95, 25.05) && within(row[2], 75.45, 75.55);
                let late: Vec<f64> = t[0].iter().filter(|row| within(row[0], 110.0, 130.0)).map(|row| row[2]).collect();
                let busy = late.len() == 21 && late.iter().all(|&w| w > 76.0);
                let coolest = late.iter().copied().fold(f64::INFINITY, f64::min);
                let measured = format!("{:.1} % CPU, {:.1} W until t = 59; ≥ {coolest:.1} W at t = 110–130, idle is 75.5 W", t[0][0][1], t[0][0][2]);
                (t[0].iter().filter(|row| row[0] < 60.0).all(idle) && busy, measured)
            }),
            Finding::new("fig9.spike", Diverges("replay is one handler per recovery master and the fetches wait on the holders' disks, so the survivors' CPUs stay at the polling floor until ROADMAP 1(c) chunks the replay"), "recovery barely moves the CPU: it stays within 2 points of the 25 % floor, under 90 W", |t| {
                let (cpu, watts) = (col(&t[0], 1), col(&t[0], 2));
                let peak = |v: &[f64]| v.iter().copied().fold(0.0, f64::max);
                let holds = peak(&cpu) <= 27.0 && within(peak(&watts), 77.0, 90.0);
                (holds, format!("peak {:.1} % CPU, {:.0} W; paper 92 %, 119 W", peak(&cpu), peak(&watts)))
            }),
        ],
    },
    Artefact {
        name: "fig10",
        title: "Fig 10: per-second mean latency of a lost-data client (0) and a live-data client (1) across the Fig 9 recovery",
        csv: &[("fig10", "client,t_s,mean_latency_us")],
        build: fig10,
        paper: "lost-data client blocked ~40 s; live-data client latency 15 → 35 µs (1.4-2.4x)",
        findings: &[
            Finding::new("fig10.blocked", Diverges("the lost data stays unavailable past the figure: the 73 s recovery of Fig 9 (every holder ships its whole replica set to every recovery master), then the client's retry backoff"), "the lost-data client completes nothing from the kill to the end of the window", |t| {
                let last = |c: f64| t[0].iter().filter(|r| r[0] == c).map(|r| r[1]).fold(f64::NAN, f64::max);
                let measured = format!("client 0 last completes in t = {}, client 1 in t = {}; paper: blocked ~40 s", last(0.0), last(1.0));
                (within(last(0.0), 58.0, 60.0) && last(1.0) >= 125.0, measured)
            }),
            Finding::new("fig10.live", Diverges("the 73 s recovery of Fig 9 (every holder ships its whole replica set to every recovery master) keeps the client slowed past the window; the masters whose replica targets died image their logs onto the one target each adopted, which stalls no second"), "the live-data client is slowed in the second of the kill but never stalled, then runs slowed by 1.1-2.4× through a recovery that outlasts the figure", |t| {
                let live: Vec<&Vec<f64>> = t[0].iter().filter(|row| row[0] == 1.0).collect();
                let base = live[0][2];
                let mut during: Vec<f64> = live.iter().filter(|row| within(row[1], 65.0, 129.0)).map(|row| row[2] / base).collect();
                during.sort_by(f64::total_cmp);
                let median = during.get(during.len() / 2).copied().unwrap_or(f64::NAN);
                let spike = live.iter().filter(|row| within(row[1], 60.0, 63.0)).map(|row| row[2]).fold(0.0, f64::max);
                let stall = live.windows(2).filter(|w| w[0][1] >= 60.0).map(|w| w[1][1] - w[0][1]).fold(0.0, f64::max);
                let end = live.last().map_or(f64::NAN, |row| row[2] / base);
                let measured = format!("{base:.1} µs before, a second averaging {spike:.0} µs at the kill, then × {median:.2} (median), × {end:.2} in the last second; paper 1.4-2.4×");
                (spike < 1000.0 && stall <= 1.0 && within(median, 1.1, 2.4) && end > 1.1, measured)
            }),
        ],
    },
    Artefact {
        name: "fig11",
        title: "Fig 11: recovery time (a) and single-node energy (b) vs replication factor, 9 nodes, 1.085 GB to recover",
        csv: &[("fig11", "replication,recovery_s,node_energy_kj,avg_node_watts")],
        build: |ctx| {
            let kj = |r: &RunReport| recovery_watts(r) * recovery_secs(r) / 1e3;
            let sim = |r, servers| recovery(ctx, servers, 9.765, r, 1, 0).lasting(150);
            let g = ctx.grid(&[1, 2, 3, 4, 5], &[9], sim, &[(&recovery_secs, 2), (&kj, 3), (&recovery_watts, 1)]);
            g.chart("Fig 11a — recovery time (s) vs replication factor", " nodes");
            vec![g.wide(&[0, 1, 2], false)]
        },
        paper: "10 s at R1 growing ~linearly to 55 s at R5; node energy grows linearly; 114-117 W during recovery",
        findings: &[
            Finding::new("fig11.linear", Diverges("every recovery master fetches the whole replica set from every holder, so a holder reads it once per other survivor (7 times on 9 nodes) whatever R; ROADMAP 1(b) partitions at the backup"), "recovery time does not grow with the replication factor; the node energy it costs rises a few percent", |t| {
                let secs = col(&t[0], 1);
                let (lo, hi) = (secs.iter().copied().fold(f64::INFINITY, f64::min), secs.iter().copied().fold(0.0, f64::max));
                let holds = lo >= 60.0 && hi / lo <= 1.02 && rising(&col(&t[0], 2));
                let (slope, _) = linear_fit(&col(&t[0], 0), &secs);
                (holds, format!("{:.1} → {:.1} s, {slope:.2} s per replica; paper 10 → 55 s", secs[0], secs[4]))
            }),
        ],
    },
    Artefact {
        name: "fig12",
        title: "Fig 12: aggregated disk read/write MB/s during the Fig 11 R4 recovery",
        csv: &[("fig12", "t_s,read_mbps,write_mbps")],
        build: fig12,
        paper: "small read bump after the crash, large write peak (~350 MB/s aggregate), reads and writes overlapping until the end",
        findings: &[
            Finding::new("fig12.overlap", Diverges("the reads last the whole recovery (each holder reads its replica set once per recovery master), the replay waits for the last of them, and a backup acks a re-replication image from memory and writes it to disk after, so the write plateau follows the reads: ROADMAP 1(b) and 1(c)"), "segment reads run from the crash to the end of recovery, and the write plateau comes after them", |t| {
                let reads = longest_run(&t[0], |row| row[1] > 0.0);
                let last_read = t[0].iter().rposition(|row| row[1] > 0.0).unwrap_or(0);
                let late = longest_run(&t[0][last_read..], |row| row[2] >= 120.0);
                let measured = format!("reads for {reads} s from t = 60, to t = {last_read}; then writes ≥ 120 MB/s for {late} s; paper: overlapping, ~350 MB/s peak");
                (reads >= 60 && t[0][60][1] > 0.0 && late >= 10, measured)
            }),
            Finding::new("fig12.reads-end-early", Diverges("`TakeOverDone` waits for every image's ack, but a backup acks once the image is staged in memory and writes it to disk after, as a buffered RAMCloud backup does; the images come only after the replay, which waits for the last fetch, so the writes run past the reads; ROADMAP 1(b) and 1(c)"), "reads finish well before the recovery window does", |t| {
                let last = |c: usize| t[0].iter().rposition(|row| row[c] > 0.0).unwrap_or(0);
                let measured = format!("last read at t = {}, last write at t = {}", last(1), last(2));
                (last(1) + 10 < last(2), measured + "; paper: overlap to the end")
            }),
        ],
    },
    Artefact {
        name: "fig13",
        title: "Fig 13: throughput under client-side throttling {200,500} req/s, 10 servers, R2, clients {10,30,60}, workload A",
        csv: &[("fig13", "clients,rate200_ops,rate500_ops")],
        build: |ctx| {
            // Each run covers ~20 s of paced traffic.
            let sim = |clients: u32, rate: u32| {
                let workload = WorkloadSpec::standard(A).with_ops_per_client(u64::from(rate) * 20);
                let cfg = ClusterConfig::new(10, clients as usize, workload).with_replication(2);
                cfg.with_throttle(f64::from(rate)).with_seed(ctx.seed)
            };
            vec![ctx.grid(&[10, 30, 60], &[200, 500], sim, &[(&THR, 0)]).wide(&[0], false)]
        },
        paper: "linear scaling (clients × rate), no crashes, even at 10 servers with replication",
        findings: &[
            Finding::new("fig13.linear", Reproduces, "Fig 13: throttled clients scale linearly, clients × rate, with replication on", |t| {
                let off = |row: &Vec<f64>, c: usize, rate: f64| (row[c] / (row[0] * rate) - 1.0).abs();
                let worst = t[0].iter().map(|row| off(row, 1, 200.0).max(off(row, 2, 500.0))).fold(0.0, f64::max);
                (worst <= 0.01, format!("every cell within {:.2} % of clients × rate", worst * 100.0))
            }),
        ],
    },
    Artefact {
        name: "ablation-segment",
        title: "§IX: recovery time vs segment size {1..32 MB} on the HDD and an SSD profile (9 nodes, R3, 4 GB)",
        csv: &[("ablation_segment", "segment_mb,hdd_recovery_s,ssd_recovery_s")],
        build: |ctx| {
            let sim = |mb: usize, ssd: bool| {
                let mut sim = recovery(ctx, 9, 4.0, 3, 1, 0).lasting(120);
                sim.cfg.segment_bytes = mb << 20;
                if ssd {
                    sim.cfg.disk = rmc_disk::DiskProfile::commodity_ssd();
                }
                sim
            };
            vec![ctx.grid(&[1, 2, 4, 8, 16, 32], &[false, true], sim, &[(&recovery_secs, 2)]).wide(&[0], false)]
        },
        paper: "8 MB gave the best recovery times on their HDDs; smaller segments pay off only with SSDs",
        findings: &[
            Finding::new("segment.hdd-ssd", Diverges("a holder reads every segment once per recovery master, so an SSD pays its per-request cost 7 times a segment; ROADMAP 1(b)"), "§IX: small segments cost recovery time on HDDs (per-request seeks), and on SSDs still move it by a few tenths of a second", |t| {
                let (hdd, ssd) = (col(&t[0], 1), col(&t[0], 2));
                let spread = ssd.iter().copied().fold(0.0, f64::max) - ssd.iter().copied().fold(f64::MAX, f64::min);
                let measured = format!("HDD {:.1} s at 1 MB vs {:.1} s at 8 MB; SSD within {spread:.2} s", hdd[0], hdd[3]);
                (hdd[0] / hdd[3] >= 1.3 && within(spread, 0.2, 1.0), measured)
            }),
        ],
    },
];

#[cfg(test)]
#[path = "experiments/tests.rs"]
mod tests;
