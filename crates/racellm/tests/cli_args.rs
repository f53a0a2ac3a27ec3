//! `racellm-cli` exit codes and argument checking. A subcommand prints
//! its usage and exits 2 on trailing arguments it does not take, before
//! it does any work: `corpus junk` once listed the corpus and exited 0.
//! `analyze` exits 1 only when a detector sees a race, and 2 on source
//! it cannot parse (it once exited 1 there too).

use std::path::PathBuf;
use std::process::{Command, Output};

fn cli(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_racellm-cli")).args(args).output().expect("racellm-cli runs")
}

/// A C file holding `code`, in a directory of its own.
fn source_file(name: &str, code: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("cli-args-{}-{name}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(format!("{name}.c"));
    std::fs::write(&path, code).unwrap();
    path
}

#[test]
fn trailing_arguments_print_usage_and_exit_2() {
    let cases: [&[&str]; 7] = [
        &["corpus", "junk"],
        &["fix", "--smoke", "junk"],
        &["fix", "--corpus", "junk"],
        &["xcheck", "--smoke", "7", "junk"],
        &["xcheck", "report", "7", "junk"],
        &["xcheck", "sweep"],
        &["analyze"],
    ];
    for args in cases {
        let out = cli(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.starts_with("usage:"), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?} printed to stdout");
    }
}

#[test]
fn corpus_without_arguments_still_lists_every_kernel() {
    let out = cli(&["corpus"]);
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert_eq!(stdout.lines().count(), 201);
    assert!(stdout.starts_with("SRB001-"), "{stdout}");
}

#[test]
fn analyze_exits_2_on_unparseable_source_and_1_on_a_race() {
    let bad = source_file("unparseable", "int main( {");
    let out = cli(&["analyze", bad.to_str().unwrap()]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(stderr.starts_with("parse error:"), "{stderr}");
    assert!(out.stdout.is_empty());

    let racy = source_file(
        "racy",
        "int a[100];\nint main(void) {\n  #pragma omp parallel for\n  for (int i = 0; i < 99; i++)\n    a[i] = a[i + 1] + 1;\n  return 0;\n}\n",
    );
    let out = cli(&["analyze", racy.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(1), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(String::from_utf8(out.stdout).unwrap().contains("static  : race = true"));

    for path in [bad, racy] {
        std::fs::remove_dir_all(path.parent().unwrap()).unwrap();
    }
}
