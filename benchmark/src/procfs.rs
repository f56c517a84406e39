//! Passive readers of `/proc`: host steal time, and per-thread CPU time,
//! run-queue wait and context switches of the harness and of every `rmcd`
//! child — the *measured* side of the CPU and energy figures. Nothing here
//! touches the measured processes; it reads files the kernel already keeps.

use std::collections::BTreeMap;
use std::fs;

/// Aggregate CPU time of the host, in clock ticks, from `/proc/stat`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HostCpu {
    /// All accounted ticks (user … steal).
    pub total: u64,
    /// Ticks the hypervisor ran something else while a vCPU was runnable.
    pub steal: u64,
}

/// Parses the aggregate `cpu` line of `/proc/stat`.
pub fn parse_host_cpu(stat: &str) -> Option<HostCpu> {
    let line = stat.lines().find(|l| l.starts_with("cpu "))?;
    // user nice system idle iowait irq softirq steal [guest guest_nice];
    // the guest columns are already counted inside user and nice.
    let fields: Vec<u64> = line
        .split_whitespace()
        .skip(1)
        .take(8)
        .map(str::parse)
        .collect::<Result<_, _>>()
        .ok()?;
    (fields.len() == 8).then(|| HostCpu {
        total: fields.iter().sum(),
        steal: fields[7],
    })
}

/// Reads the host's aggregate CPU ticks.
pub fn host_cpu() -> HostCpu {
    fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| parse_host_cpu(&s))
        .unwrap_or_default()
}

/// Share of CPU capacity stolen between two readings, `0..=1`.
pub fn steal_share(before: HostCpu, after: HostCpu) -> f64 {
    let total = after.total.saturating_sub(before.total);
    if total == 0 {
        return 0.0;
    }
    after.steal.saturating_sub(before.steal) as f64 / total as f64
}

/// Parses `/proc/<pid>/task/<tid>/schedstat`: `(on-CPU ns, run-queue wait
/// ns)`. The on-CPU figure is the scheduler's own clock, which does not
/// advance while the hypervisor has the vCPU — the reason it, and not
/// utime/stime, backs `cpu_us_per_op`.
pub fn parse_schedstat(text: &str) -> Option<(u64, u64)> {
    let mut it = text.split_whitespace();
    let run = it.next()?.parse().ok()?;
    let wait = it.next()?.parse().ok()?;
    Some((run, wait))
}

/// Parses one `Name:   123 [kB]` field of a `/proc/.../status` file.
pub fn parse_status_field(status: &str, name: &str) -> Option<u64> {
    status.lines().find_map(|line| {
        let rest = line.strip_prefix(name)?.strip_prefix(':')?;
        rest.split_whitespace().next()?.parse().ok()
    })
}

/// Parses `/proc/<pid>/stat` into `(comm, parent pid)`. The comm may
/// itself hold spaces and parentheses, so it is cut at the *last* `)`.
pub fn parse_stat_comm_ppid(stat: &str) -> Option<(&str, u32)> {
    let open = stat.find('(')?;
    let close = stat.rfind(')')?;
    let comm = stat.get(open + 1..close)?;
    // After the comm: state, ppid, ...
    let ppid = stat.get(close + 1..)?.split_whitespace().nth(1)?;
    Some((comm, ppid.parse().ok()?))
}

/// One thread's counters at one instant.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ThreadSample {
    /// Thread name (`comm`, at most 15 bytes).
    pub comm: String,
    /// Nanoseconds spent on a CPU.
    pub run_ns: u64,
    /// Nanoseconds spent runnable but waiting for a CPU.
    pub wait_ns: u64,
    /// Voluntary context switches (the thread blocked).
    pub voluntary_switches: u64,
}

/// Every live thread of one process, keyed by thread id.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ProcSample {
    /// The threads.
    pub threads: BTreeMap<u32, ThreadSample>,
    /// Resident set size, KiB.
    pub rss_kb: u64,
}

/// Samples every thread of `pid` (an empty sample if the process is gone).
pub fn sample_process(pid: u32) -> ProcSample {
    let mut sample = ProcSample::default();
    let Ok(tasks) = fs::read_dir(format!("/proc/{pid}/task")) else {
        return sample;
    };
    for entry in tasks.flatten() {
        let Some(tid) = entry.file_name().to_str().and_then(|s| s.parse().ok()) else {
            continue;
        };
        let dir = entry.path();
        let read = |name: &str| fs::read_to_string(dir.join(name)).ok();
        // A thread may exit between readdir and the reads; skip it.
        let (Some(comm), Some(sched), Some(status)) =
            (read("comm"), read("schedstat"), read("status"))
        else {
            continue;
        };
        let Some((run_ns, wait_ns)) = parse_schedstat(&sched) else {
            continue;
        };
        sample.threads.insert(
            tid,
            ThreadSample {
                comm: comm.trim_end().to_owned(),
                run_ns,
                wait_ns,
                voluntary_switches: parse_status_field(&status, "voluntary_ctxt_switches")
                    .unwrap_or(0),
            },
        );
    }
    sample.rss_kb = fs::read_to_string(format!("/proc/{pid}/status"))
        .ok()
        .and_then(|s| parse_status_field(&s, "VmRSS"))
        .unwrap_or(0);
    sample
}

/// On-CPU nanoseconds of all live threads of `pid` together — the cheap
/// reading taken at every window boundary (one small file per thread).
pub fn run_ns_total(pid: u32) -> u64 {
    let Ok(tasks) = fs::read_dir(format!("/proc/{pid}/task")) else {
        return 0;
    };
    tasks
        .flatten()
        .filter_map(|t| fs::read_to_string(t.path().join("schedstat")).ok())
        .filter_map(|s| parse_schedstat(&s))
        .map(|(run_ns, _)| run_ns)
        .sum()
}

/// What a set of threads did between two samples.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Usage {
    /// On-CPU nanoseconds.
    pub run_ns: u64,
    /// Run-queue wait nanoseconds.
    pub wait_ns: u64,
    /// Voluntary context switches.
    pub voluntary_switches: u64,
}

impl std::ops::AddAssign for Usage {
    fn add_assign(&mut self, o: Usage) {
        self.run_ns += o.run_ns;
        self.wait_ns += o.wait_ns;
        self.voluntary_switches += o.voluntary_switches;
    }
}

/// Usage between `before` and `after` of the threads whose name satisfies
/// `class`. A thread born in between counts in full; one that exited is
/// lost with its counters (the workloads keep their threads alive across
/// both samples).
pub fn usage(before: &ProcSample, after: &ProcSample, class: impl Fn(&str) -> bool) -> Usage {
    let mut total = Usage::default();
    let zero = ThreadSample {
        comm: String::new(),
        run_ns: 0,
        wait_ns: 0,
        voluntary_switches: 0,
    };
    for (tid, end) in &after.threads {
        if !class(&end.comm) {
            continue;
        }
        let start = before.threads.get(tid).unwrap_or(&zero);
        total += Usage {
            run_ns: end.run_ns.saturating_sub(start.run_ns),
            wait_ns: end.wait_ns.saturating_sub(start.wait_ns),
            voluntary_switches: end
                .voluntary_switches
                .saturating_sub(start.voluntary_switches),
        };
    }
    total
}

/// Live `rmcd` children of this process: `(pid, command line)`. Used to
/// find the fleet's processes (the fleet handle keeps its pids private)
/// and, after teardown, to prove none was orphaned.
pub fn rmcd_children() -> Vec<(u32, Vec<String>)> {
    let me = std::process::id();
    let mut out = Vec::new();
    let Ok(procs) = fs::read_dir("/proc") else {
        return out;
    };
    for entry in procs.flatten() {
        let Some(pid) = entry
            .file_name()
            .to_str()
            .and_then(|s| s.parse::<u32>().ok())
        else {
            continue;
        };
        let Ok(stat) = fs::read_to_string(format!("/proc/{pid}/stat")) else {
            continue;
        };
        if parse_stat_comm_ppid(&stat) != Some(("rmcd", me)) {
            continue;
        }
        let args = fs::read(format!("/proc/{pid}/cmdline"))
            .map(|raw| {
                raw.split(|&b| b == 0)
                    .filter(|a| !a.is_empty())
                    .map(|a| String::from_utf8_lossy(a).into_owned())
                    .collect()
            })
            .unwrap_or_default();
        out.push((pid, args));
    }
    out.sort();
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn host_cpu_sums_the_eight_time_columns() {
        let stat = "cpu  349221 0 646708 2265269 59746 0 174693 637639 0 0\n\
                    cpu0 168895 0 334058 1118722 39889 0 81556 317612 0 0\n\
                    intr 1 2 3\n";
        let cpu = parse_host_cpu(stat).unwrap();
        assert_eq!(cpu.steal, 637_639);
        assert_eq!(
            cpu.total,
            349_221 + 646_708 + 2_265_269 + 59_746 + 174_693 + 637_639
        );
        assert_eq!(parse_host_cpu("cpu0 1 2 3\n"), None);
        let later = HostCpu {
            total: cpu.total + 100,
            steal: cpu.steal + 25,
        };
        assert_eq!(steal_share(cpu, later), 0.25);
        assert_eq!(steal_share(cpu, cpu), 0.0);
    }

    #[test]
    fn schedstat_and_status_fields_parse() {
        assert_eq!(parse_schedstat("123456 789 42\n"), Some((123_456, 789)));
        assert_eq!(parse_schedstat("garbage"), None);
        let status = "Name:\trmcd\nVmRSS:\t   12345 kB\nThreads:\t9\n\
                      voluntary_ctxt_switches:\t77\nnonvoluntary_ctxt_switches:\t3\n";
        assert_eq!(parse_status_field(status, "VmRSS"), Some(12_345));
        assert_eq!(
            parse_status_field(status, "voluntary_ctxt_switches"),
            Some(77)
        );
        assert_eq!(parse_status_field(status, "Missing"), None);
    }

    #[test]
    fn stat_comm_survives_spaces_and_parens() {
        let stat = "4242 (wire-read (n1)) S 17 4242 4242 0 -1 4194304 1 0";
        assert_eq!(parse_stat_comm_ppid(stat), Some(("wire-read (n1)", 17)));
        assert_eq!(parse_stat_comm_ppid("no parens"), None);
    }

    #[test]
    fn usage_is_a_per_class_delta() {
        let thread = |comm: &str, run, wait, sw| ThreadSample {
            comm: comm.into(),
            run_ns: run,
            wait_ns: wait,
            voluntary_switches: sw,
        };
        let mut before = ProcSample::default();
        before.threads.insert(1, thread("rmcd", 100, 10, 1));
        before.threads.insert(2, thread("wire-read-n1", 50, 5, 2));
        let mut after = ProcSample::default();
        after.threads.insert(1, thread("rmcd", 400, 30, 4));
        after.threads.insert(2, thread("wire-read-n1", 90, 9, 7));
        // Born between the samples: counts in full.
        after.threads.insert(3, thread("wire-read-n1", 20, 1, 1));
        let readers = usage(&before, &after, |c| c.starts_with("wire-read"));
        assert_eq!(
            readers,
            Usage {
                run_ns: 60,
                wait_ns: 5,
                voluntary_switches: 6
            }
        );
        let all = usage(&before, &after, |_| true);
        assert_eq!(all.run_ns, 360);
    }

    #[test]
    fn own_process_is_sampled_live() {
        let me = sample_process(std::process::id());
        assert!(!me.threads.is_empty());
        assert!(me.rss_kb > 0);
        assert!(rmcd_children().is_empty());
        assert!(run_ns_total(std::process::id()) > 0);
        assert_eq!(run_ns_total(u32::MAX), 0);
    }
}
