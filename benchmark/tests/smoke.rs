//! End to end: the real binary, all six workloads at smoke size, every
//! correctness check on. A failing check or a failed operation makes the
//! binary exit non-zero, which fails this test.

use std::process::Command;
use std::time::{Duration, Instant};

const BIN: &str = env!("CARGO_BIN_EXE_pipeline-benchmark");

const WORKLOADS: [&str; 6] = [
    "steady_stream",
    "saturation_simple",
    "saturation_selective",
    "recovery_storm",
    "bridged_durable",
    "central_failover",
];

#[test]
fn smoke_run_of_all_six_workloads_passes_every_check() {
    let started = Instant::now();
    let out = Command::new(BIN).args(["run", "--smoke"]).output().expect("run the benchmark");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "smoke run failed:\n{stdout}\n{stderr}");
    for w in WORKLOADS {
        assert!(stdout.contains(&format!("== {w} ")), "{w} missing from:\n{stdout}");
    }
    for metric in [
        "setup_s",
        "events_per_s",
        "cpu_us_per_event",
        "update_delay_p99_us",
        "peak_rss_mb",
        "edge_delivery_p99_us",
        "request_p99_us",
        "outage_ms",
        "ops_attempted / ops_failed",
        "core.mirrored_ratio",
        "runtime.failover.detect_ms",
    ] {
        assert!(stdout.contains(metric), "{metric} missing from:\n{stdout}");
    }
    assert!(!stdout.contains("FAILED"), "a check failed:\n{stdout}");
    assert_eq!(stdout.matches(" 0 of ").count(), 6, "no workload may fail an operation:\n{stdout}");
    // Budget: about ten seconds optimised; generous here because `cargo
    // test` runs the unoptimised build, possibly beside other tests.
    assert!(started.elapsed() < Duration::from_secs(90), "smoke took {:?}", started.elapsed());
}

#[test]
fn driver_prints_one_contract_line_last() {
    let out = Command::new(BIN)
        .args(["driver", "--workload", "saturation_selective", "--seed", "5"])
        .args(["--seconds", "1", "--trace", "0", "--smoke"])
        .output()
        .expect("run the driver entry");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().expect("a result line");
    assert!(last.starts_with("{\"correct\":true,\"attempted\":"), "{last}");
    for key in ["\"failed\":0", "\"metrics\":{", "\"setup_s\":{\"value\":", "\"unit\":\"1/s\""] {
        assert!(last.contains(key), "{key} missing from {last}");
    }
}

#[test]
fn an_unknown_workload_is_refused_with_a_message() {
    let out = Command::new(BIN).args(["run", "--workload", "nope"]).output().expect("run");
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown workload"));
}
