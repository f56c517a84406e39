//! Keeping the hypervisor's hands off the run.
//!
//! The workloads pass messages between threads, so the guest's vCPUs go
//! idle for microseconds at a time — and every time a vCPU halts, an
//! over-committed host hands its core to a neighbour and makes the guest
//! wait to get it back. The same binary then measures 4 K or 10 K ops/s
//! depending on the neighbours (`wire_a`, 34 % against 3 % steal).
//!
//! So for the length of a run the harness keeps one *idle-class* spinner
//! process per vCPU: `SCHED_IDLE` tasks run only when nothing else in the
//! guest wants the CPU and are preempted the instant something does, but
//! to the host the vCPU never halts — the user-space twin of booting with
//! `idle=poll`. With them the runs above saw 2–7 % steal and repeated.
//! The price: every wake-up now preempts a task instead of leaving idle,
//! which costs `wire_c` about 15 % of its throughput on a quiet host
//! (25 K → 21.5 K ops/s) — paid equally by both sides of any comparison.
//! The spinners are separate processes, so none of their CPU time is
//! charged to an op (`cpu_us_per_op` counts the harness and the fleet by
//! pid). BASELINE.md has the A/B runs.

use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// The hidden flag that turns this binary into a spinner.
pub const SPINNER_FLAG: &str = "--idle-spinner";

/// Hard stop for a spinner whose parent somehow outlived its run.
const SPINNER_LIFETIME: Duration = Duration::from_secs(300);

/// Puts the calling thread in the `SCHED_IDLE` class.
fn enter_idle_class() -> bool {
    extern "C" {
        // int sched_setscheduler(pid_t, int, const struct sched_param *);
        // struct sched_param is one int, sched_priority.
        fn sched_setscheduler(pid: i32, policy: i32, param: *const i32) -> i32;
    }
    const SCHED_IDLE: i32 = 5;
    let priority = 0i32;
    // SAFETY: the call reads one `int` through the pointer, which points at
    // a live local; pid 0 names the calling thread. libc is already linked
    // by std on Linux.
    unsafe { sched_setscheduler(0, SCHED_IDLE, &priority) == 0 }
}

/// The spinner process: spin in the idle class until the parent is gone
/// (or [`SPINNER_LIFETIME`] is up). Exits 3 if the class cannot be
/// entered — a normal-class spinner would take half of every vCPU.
pub fn spin_until_orphaned() -> ! {
    if !enter_idle_class() {
        std::process::exit(3);
    }
    let parent = std::os::unix::process::parent_id();
    let born = Instant::now();
    let mut x = 0u64;
    loop {
        // A plain ALU loop between parent checks. (`spin_loop()`, i.e.
        // PAUSE, was tried to spare a sibling hyperthread: no difference.)
        for i in 0..2_000_000u64 {
            x = std::hint::black_box(x.wrapping_add(i));
        }
        if std::os::unix::process::parent_id() != parent || born.elapsed() > SPINNER_LIFETIME {
            std::process::exit(0);
        }
    }
}

/// The running spinners; killed and reaped on drop.
#[derive(Debug)]
pub struct IdleSpinners {
    children: Vec<Child>,
}

impl IdleSpinners {
    /// Starts one spinner per vCPU. Where the idle class is refused (or
    /// the binary cannot re-run itself) there are simply none:
    /// [`IdleSpinners::count`] says so in `host.idle_spinners`.
    pub fn start() -> IdleSpinners {
        let cpus = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
        let mut children: Vec<Child> = Vec::new();
        if let Ok(me) = std::env::current_exe() {
            for _ in 0..cpus {
                let spawned = Command::new(&me)
                    .arg(SPINNER_FLAG)
                    .stdin(Stdio::null())
                    .stdout(Stdio::null())
                    .spawn();
                children.extend(spawned);
            }
        }
        // A spinner that was refused the idle class has exited by now.
        std::thread::sleep(Duration::from_millis(50));
        children.retain_mut(|c| matches!(c.try_wait(), Ok(None)));
        IdleSpinners { children }
    }

    /// Spinners running.
    pub fn count(&self) -> usize {
        self.children.len()
    }
}

impl Drop for IdleSpinners {
    fn drop(&mut self) {
        for c in &mut self.children {
            let _ = c.kill();
            let _ = c.wait();
        }
    }
}
