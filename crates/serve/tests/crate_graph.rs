//! The service builds none of the paper-scoring stack. `serve`,
//! `repair` and `xcheck` detect and repair one kernel at a time; the
//! corpus, the DRB-ML dataset, the table runners and the trainer belong
//! to `racellm`, `tables` and the tests. This guard works out each
//! crate's normal-dependency closure from the workspace `Cargo.toml`
//! files (what `cargo tree -e normal` prints, without running cargo) and
//! fails when a scoring crate is in it.

use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};

const SERVICE: [&str; 3] = ["serve", "repair", "xcheck"];
const SCORING: [&str; 4] = ["drb-gen", "drb-ml", "eval", "finetune"];

fn read(path: &Path) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// The non-blank, non-comment lines of one `[table]` of a manifest.
fn table<'a>(toml: &'a str, name: &str) -> Vec<&'a str> {
    toml.lines()
        .map(str::trim)
        .skip_while(|l| *l != name)
        .skip(1)
        .take_while(|l| !l.starts_with('['))
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .collect()
}

/// Name and manifest directory of one dependency line, in either form
/// the workspace uses: `name.workspace = true` (or `{ workspace = true }`)
/// resolves through the root's `[workspace.dependencies]`, and
/// `name = { path = "…" }` is relative to the declaring manifest.
fn dependency(line: &str, dir: &Path, workspace: &BTreeMap<String, PathBuf>) -> (String, PathBuf) {
    let name = line.split(['=', '.']).next().unwrap().trim().to_string();
    let path = match line.split("path = \"").nth(1) {
        Some(rest) => dir.join(rest.split('"').next().unwrap()),
        None => workspace
            .get(&name)
            .unwrap_or_else(|| panic!("{line}: not a workspace dependency"))
            .clone(),
    };
    (name, path)
}

fn workspace() -> (PathBuf, BTreeMap<String, PathBuf>) {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let toml = read(&root.join("Cargo.toml"));
    let deps = table(&toml, "[workspace.dependencies]")
        .into_iter()
        .map(|l| dependency(l, &root, &BTreeMap::new()))
        .collect();
    (root, deps)
}

/// Every crate reachable from `krate` through `[dependencies]` alone.
fn normal_closure(krate: &str) -> BTreeSet<String> {
    let (root, ws) = workspace();
    let mut seen = BTreeSet::new();
    let mut stack = vec![root.join("crates").join(krate)];
    while let Some(dir) = stack.pop() {
        let toml = read(&dir.join("Cargo.toml"));
        assert!(
            !toml.lines().any(|l| l.starts_with("[target.") || l.starts_with("[dependencies.")),
            "{}: dependency table form this guard does not read",
            dir.display()
        );
        for line in table(&toml, "[dependencies]") {
            let (name, path) = dependency(line, &dir, &ws);
            if seen.insert(name) {
                stack.push(path);
            }
        }
    }
    seen
}

#[test]
fn service_crates_build_no_scoring_crate() {
    for krate in SERVICE {
        let closure = normal_closure(krate);
        let found: Vec<_> = SCORING.iter().filter(|c| closure.contains(**c)).collect();
        assert!(found.is_empty(), "{krate} depends on {found:?} (closure {closure:?})");
    }
}

#[test]
fn the_closure_reaches_through_paths_and_the_workspace_table() {
    // `racellm` owns the corpus; its closure must show the crates the
    // service closures may not, or the guard above proves nothing.
    let closure = normal_closure("racellm");
    for krate in SCORING.iter().chain(&SERVICE) {
        assert!(closure.contains(*krate), "{krate} missing from {closure:?}");
    }
    // drb-gen names `depend` by path, and serde_json reaches serde_derive
    // only through the serde shim.
    assert!(normal_closure("drb-gen").contains("depend"));
    assert!(closure.contains("serde_derive"));
}
