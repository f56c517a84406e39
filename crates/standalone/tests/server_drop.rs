//! A dropped standalone server leaves no thread behind.
//!
//! Until PR 26 a worker whose shutdown marker was lost to a full queue
//! lived on until the last `Client` clone dropped. There are no workers
//! now; the cleaners stop on the flag `Drop` sets. This file holds one test
//! and nothing else so that the process's task list is that server's and
//! no other's.

#![cfg(target_os = "linux")]

use std::time::{Duration, Instant};

use rmc_logstore::TableId;
use rmc_standalone::{ClientError, ServerConfig, StandaloneServer};

/// The `comm` of every thread of this process.
fn thread_names() -> Vec<String> {
    std::fs::read_dir("/proc/self/task")
        .expect("own task list")
        .filter_map(|t| std::fs::read_to_string(t.ok()?.path().join("comm")).ok())
        .map(|comm| comm.trim().to_owned())
        .collect()
}

#[test]
fn a_dropped_server_leaks_no_thread() {
    const T: TableId = TableId(1);
    // Prefixes without their trailing `-`: CI greps the code for the worker
    // thread's name, and this is the one place allowed to spell it.
    let server_threads = || {
        thread_names()
            .into_iter()
            .filter(|n| n.starts_with("rmc-worker") || n.starts_with("rmc-cleaner"))
            .collect::<Vec<_>>()
    };
    let within_a_second = |done: &dyn Fn() -> bool| {
        let deadline = Instant::now() + Duration::from_secs(1);
        while !done() && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        done()
    };
    let srv = StandaloneServer::start(ServerConfig::default());
    let kept = srv.client();
    kept.write(T, b"k", b"v").unwrap();
    // A thread takes its name once it runs, not when it is spawned.
    assert!(
        within_a_second(&|| !server_threads().is_empty()),
        "no cleaner thread to outlive the drop"
    );
    drop(srv);

    assert!(
        within_a_second(&|| server_threads().is_empty()),
        "outlived the drop: {:?}",
        server_threads()
    );
    assert_eq!(kept.write(T, b"k", b"w"), Err(ClientError::ServerStopped));
    assert_eq!(
        kept.read_view(T, b"k").map(|v| v.is_some()),
        Err(ClientError::ServerStopped)
    );
}
