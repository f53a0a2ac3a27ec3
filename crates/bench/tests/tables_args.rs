//! The `tables` binary refuses arguments it does not understand: it
//! prints its usage and exits with status 2, and writes nothing. It
//! once ignored a path after `--bench-json all` (and rewrote the three
//! `BENCH_*.json` files in the working directory) and printed nothing
//! for an unknown table name, exiting 0.

use std::path::PathBuf;
use std::process::{Command, Output};

/// A fresh, empty working directory for one run.
fn scratch_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("tables-args-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn tables(dir: &PathBuf, args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_tables"))
        .args(args)
        .current_dir(dir)
        .output()
        .expect("tables runs")
}

#[test]
fn bad_arguments_print_usage_and_exit_2() {
    let cases: [&[&str]; 6] = [
        &["--bench-json", "all", "elsewhere.json"],
        &["--bench-json", "everything"],
        &["--bench-json", "oracle", "a.json", "b.json"],
        &["table7"],
        &["table2", "--verbose"],
        &["--json", "table3"],
    ];
    for (i, args) in cases.iter().enumerate() {
        let dir = scratch_dir(&i.to_string());
        let out = tables(&dir, args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains("usage: tables"), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?} printed to stdout");
        let written: Vec<_> = std::fs::read_dir(&dir).unwrap().collect();
        assert!(written.is_empty(), "{args:?} wrote {written:?}");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

#[test]
fn a_known_table_name_still_prints_that_table() {
    let dir = scratch_dir("table2");
    let out = tables(&dir, &["table2"]);
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.starts_with("Table 2"), "{stdout}");
    assert!(!stdout.contains("Table 3"));
    std::fs::remove_dir_all(&dir).unwrap();
}
