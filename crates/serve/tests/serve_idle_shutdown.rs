//! An idle daemon exits promptly on every shutdown path. The acceptor
//! thread sits blocked in `accept` the whole time, so each exit also
//! checks that the main thread wakes it, joins it and removes the
//! socket file.
//!
//! All three exits run in one test, one after another: the SIGTERM
//! latch is process-wide, and a second server running alongside could
//! consume it.

use std::path::Path;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use fires_obs::Json;
use fires_serve::{run_server, signal, Connection, Request, Response, ServeConfig};

mod common;
use common::unique_temp_dir;

/// Starts a server and waits for its socket file, without connecting.
fn start(dir: &Path) -> (ServeConfig, JoinHandle<Result<(), String>>) {
    let cfg = ServeConfig::new(dir.join("sock"), dir.join("state"));
    let handle = {
        let cfg = cfg.clone();
        std::thread::spawn(move || run_server(cfg))
    };
    let deadline = Instant::now() + Duration::from_secs(10);
    while !cfg.socket.exists() {
        assert!(Instant::now() < deadline, "server never bound its socket");
        std::thread::sleep(Duration::from_millis(5));
    }
    (cfg, handle)
}

/// Waits up to 5 s for the server thread to return, then checks it
/// exited cleanly and removed its socket file. Returns the exit report.
fn joins_within_5s(cfg: &ServeConfig, handle: JoinHandle<Result<(), String>>, how: &str) -> Json {
    let deadline = Instant::now() + Duration::from_secs(5);
    while !handle.is_finished() {
        assert!(
            Instant::now() < deadline,
            "{how}: server still running after 5 s"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    handle.join().unwrap().unwrap();
    assert!(!cfg.socket.exists(), "{how}: socket file left behind");
    let exit = std::fs::read_to_string(cfg.state_dir.join("exit.report.json")).unwrap();
    Json::parse(&exit).unwrap()
}

fn drained(report: &Json) -> Option<u64> {
    report
        .get("metrics")
        .and_then(|m| m.get("counters"))
        .and_then(|c| c.get("serve.drained"))
        .and_then(Json::as_u64)
}

#[test]
fn idle_server_exits_on_shutdown_drain_and_sigterm() {
    for drain in [false, true] {
        let dir = unique_temp_dir(if drain { "idle-drain" } else { "idle-shutdown" });
        let (cfg, handle) = start(&dir);
        let resp = Connection::request(&cfg.socket, &Request::Shutdown { drain }).unwrap();
        assert_eq!(resp, Response::Ok);
        let report = joins_within_5s(&cfg, handle, &format!("shutdown drain={drain}"));
        assert_eq!(drained(&report), drain.then_some(1), "drain={drain}");
    }

    let dir = unique_temp_dir("idle-sigterm");
    let (cfg, handle) = start(&dir);
    signal::raise_sigterm();
    let report = joins_within_5s(&cfg, handle, "SIGTERM");
    assert_eq!(drained(&report), Some(1), "SIGTERM drains");
}
