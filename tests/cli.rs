//! Smoke test of the `qpseeker` binary: the stream path end to end with no
//! model (every request degrades to the classical optimizer), and the
//! flag validation that keeps a typo from being silently ignored.

use std::path::PathBuf;
use std::process::{Command, Output};

fn qpseeker(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_qpseeker")).args(args).output().expect("binary runs")
}

/// A small generated database in a temp dir of its own, removed on drop.
struct Db(PathBuf);

impl Db {
    fn generate(tag: &str) -> Self {
        let dir = std::env::temp_dir().join(format!("qps-cli-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let db = Db(dir);
        let out = qpseeker(&[
            "gen-db",
            "--schema",
            "imdb",
            "--scale",
            "0.02",
            "--seed",
            "1",
            "--out",
            &db.path(),
        ]);
        assert!(out.status.success(), "gen-db: {}", String::from_utf8_lossy(&out.stderr));
        db
    }

    fn path(&self) -> String {
        self.0.join("db.json").to_str().expect("utf-8 temp path").to_string()
    }
}

impl Drop for Db {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// The counter lines a stream run prints: `(label, line)` for every
/// `<label>: isa=… served=…` line.
fn counter_lines(stdout: &str) -> Vec<(&str, &str)> {
    stdout.lines().filter_map(|l| l.split_once(": isa=")).collect()
}

/// The number after `key` in a counter line.
fn field(line: &str, key: &str) -> usize {
    let rest = &line[line.find(key).unwrap_or_else(|| panic!("no {key} in {line}")) + key.len()..];
    rest[..rest.find(|c: char| !c.is_ascii_digit()).unwrap_or(rest.len())].parse().unwrap()
}

/// admitted = neural + classical + failed, and admitted + shed = seen.
fn assert_conserved(line: &str, seen: usize) {
    let served = field(line, " served=");
    let outcomes = field(line, "(neural=") + field(line, " classical=") + field(line, " failed=");
    assert_eq!(served, outcomes, "{line}");
    assert_eq!(served + field(line, " shed="), seen, "{line}");
}

#[test]
fn stream_without_a_model_serves_classically_and_conserves() {
    let db = Db::generate("stream");
    let out = qpseeker(&["serve", "--db", &db.path(), "--stream", "8"]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    let counters = counter_lines(&stdout);
    let labels: Vec<&str> = counters.iter().map(|(l, _)| *l).collect();
    assert_eq!(labels, ["t0", "merged"], "{stdout}");
    for (_, line) in &counters {
        assert_conserved(line, 8);
        assert_eq!(field(line, "(neural="), 0, "no model: nothing serves neurally");
    }
    assert_eq!(stdout.lines().filter(|l| l.starts_with("[t0] query ")).count(), 8, "{stdout}");
}

#[test]
fn tenant_lanes_print_per_tenant_and_merged_counters() {
    let db = Db::generate("tenants");
    let out = qpseeker(&[
        "serve",
        "--db",
        &db.path(),
        "--stream",
        "8",
        "--tenants",
        "2",
        "--cache",
        "16",
    ]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    let counters = counter_lines(&stdout);
    let labels: Vec<&str> = counters.iter().map(|(l, _)| *l).collect();
    assert_eq!(labels, ["t0", "t1", "merged"], "{stdout}");
    let seen = |line: &str| field(line, " served=") + field(line, " shed=");
    assert_conserved(counters[0].1, seen(counters[0].1));
    assert_conserved(counters[1].1, seen(counters[1].1));
    assert_eq!(seen(counters[0].1) + seen(counters[1].1), 8, "{stdout}");
    assert_conserved(counters[2].1, 8);
    assert!(stdout.contains("plan cache: "), "--cache reports its stats: {stdout}");
}

#[test]
fn unread_flags_and_meaningless_combinations_exit_nonzero_with_usage() {
    // Rejected before the database is even read.
    let sql = "SELECT COUNT(*) FROM title";
    for args in [
        &["serve", "--db", "db.json", "--stream", "8", "--worker", "4"][..],
        &["serve", "--db", "db.json", "--tenants", "2", "--online"],
        &["serve", "--db", "db.json", "--sql", sql, "--cache", "64"],
        &["serve", "--db", "db.json", "--sql", sql, "--stream", "8"],
        &["frobnicate"],
    ] {
        let out = qpseeker(args);
        assert_eq!(out.status.code(), Some(1), "{args:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.starts_with("error: "), "{args:?}: {stderr}");
        assert!(stderr.contains("commands:"), "{args:?}: usage text expected: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?}: nothing may be served");
    }
}
