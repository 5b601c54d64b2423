//! Error paths of the `wire` command line: bad input must end in a clean
//! `error: …` line on stderr and exit status 1, never a panic.
//!
//! Every case here is rejected before any campaign cell runs, so nothing
//! under `results/` is written.

use std::path::PathBuf;
use std::process::Command;

/// Run `wire <args>` and assert it failed cleanly; returns stderr.
fn fails_cleanly(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_wire"))
        .args(args)
        .output()
        .expect("spawn wire");
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    assert_eq!(out.status.code(), Some(1), "wire {args:?}: {stderr}");
    assert!(stderr.starts_with("error: "), "wire {args:?}: {stderr}");
    assert!(!stderr.contains("panicked"), "wire {args:?}: {stderr}");
    stderr
}

#[test]
fn campaign_rejects_unparsable_thread_count() {
    let err = fails_cleanly(&["campaign", "fig2", "--threads", "abc"]);
    assert!(err.contains("--threads"), "{err}");
}

#[test]
fn campaign_rejects_unknown_flag() {
    let err = fails_cleanly(&["campaign", "--bogus"]);
    assert!(err.contains("--bogus"), "{err}");
}

#[test]
fn campaign_needs_a_target() {
    let err = fails_cleanly(&["campaign"]);
    assert!(err.contains("at least one target"), "{err}");
}

#[test]
fn report_rejects_a_malformed_snapshot() {
    // the committed snapshot with the pool_at_plan sketch's min/max inverted
    let good = include_str!("../results/OBS_snapshot.json");
    let start = good
        .find("\"pool_at_plan\":{")
        .expect("pool_at_plan sketch");
    let min_at = start + good[start..].find("\"min\":").expect("min field");
    let buckets_at = start + good[start..].find(",\"buckets\":").expect("buckets field");
    let bad = format!(
        "{}\"min\":99,\"max\":1{}",
        &good[..min_at],
        &good[buckets_at..]
    );
    let path = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("malformed_obs_snapshot.json");
    std::fs::write(&path, bad).expect("write malformed snapshot");
    let err = fails_cleanly(&["report", path.to_str().expect("utf-8 path")]);
    assert!(err.contains("exceeds max"), "{err}");
}

#[test]
fn time_flags_reject_clock_overflow() {
    for (args, flag) in [
        (&["run", "tpch6-s", "--u", "999999999999999"][..], "--u"),
        (
            &["run", "tpch6-s", "--deadline", "999999999999999"][..],
            "--deadline",
        ),
        (
            &["traffic", "--mean-gap-secs", "99999999999999999"][..],
            "--mean-gap-secs",
        ),
    ] {
        let err = fails_cleanly(args);
        assert!(err.contains(flag), "{err}");
    }
}

#[test]
fn traffic_rejects_arrivals_past_the_horizon() {
    // at seed 3 the second gap's arrival times sum past u64::MAX ms
    for gap_secs in ["1000000000", "1800000000000000"] {
        let err = fails_cleanly(&[
            "traffic",
            "--arrivals",
            "10",
            "--mean-gap-secs",
            gap_secs,
            "--seed",
            "3",
        ]);
        assert!(err.contains("horizon"), "{err}");
    }
}
