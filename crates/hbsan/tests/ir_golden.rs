//! Golden snapshots of the bytecode disassembly for representative
//! kernels, pinned byte-for-byte under `tests/golden/ir/`. The IR is a
//! compiler artifact: silent drift in lowering (instruction selection,
//! constant pooling, slot assignment, site interning order) is exactly
//! the kind of change that keeps observable equivalence by luck — these
//! snapshots force every such change through review.
//!
//! To bless after an intentional lowering change:
//!
//! ```text
//! RACELLM_BLESS=1 cargo test -p hbsan --test ir_golden
//! ```

use std::path::PathBuf;

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden/ir")
}

/// Compare the kernel's disassembly against `tests/golden/ir/<name>`,
/// or rewrite the snapshot when `RACELLM_BLESS=1`.
fn check(name: &str, code: &str) {
    let unit = minic::parse(code).expect("golden kernels parse");
    let prog = hbsan::lower(&unit);
    let rendered = prog.to_string();

    let path = golden_dir().join(name);
    if std::env::var_os("RACELLM_BLESS").is_some_and(|v| v == "1") {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, &rendered).unwrap();
        eprintln!("blessed {}", path.display());
        return;
    }
    let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden snapshot {} ({e});\nrun `RACELLM_BLESS=1 cargo test -p hbsan --test ir_golden` to create it",
            path.display()
        )
    });
    if golden != rendered {
        let diff: String = golden
            .lines()
            .zip(rendered.lines())
            .enumerate()
            .filter(|(_, (a, b))| a != b)
            .take(20)
            .map(|(i, (a, b))| format!("  line {:3}: -{a}\n  line {:3}: +{b}\n", i + 1, i + 1))
            .collect();
        panic!(
            "{name} drifted from its golden snapshot ({} vs {} lines):\n{diff}\
             If the lowering change is intentional, re-bless with RACELLM_BLESS=1.",
            golden.lines().count(),
            rendered.lines().count(),
        );
    }
}

#[test]
fn stencil_racy() {
    check(
        "stencil_racy.txt",
        "int a[64];\nint main() {\n  int i;\n  #pragma omp parallel for\n  for (i = 0; i < 61; i++) {\n    a[i] = a[i + 1] + 1;\n  }\n  return 0;\n}\n",
    );
}

#[test]
fn stencil_clean() {
    check(
        "stencil_clean.txt",
        "int a[64];\nint main() {\n  int i;\n  #pragma omp parallel for\n  for (i = 0; i < 64; i++) {\n    a[i] = i * 2;\n  }\n  return 0;\n}\n",
    );
}

#[test]
fn atomic_update() {
    check(
        "atomic_update.txt",
        "int a[64];\nint sum;\nint main() {\n  int i;\n  #pragma omp parallel for\n  for (i = 0; i < 64; i++) {\n    #pragma omp atomic\n    sum += a[i];\n  }\n  return sum;\n}\n",
    );
}

#[test]
fn reduction() {
    check(
        "reduction.txt",
        "int a[64];\nint main() {\n  int i;\n  int sum = 0;\n  #pragma omp parallel for reduction(+:sum)\n  for (i = 0; i < 64; i++) {\n    sum += a[i] * a[i];\n  }\n  return sum;\n}\n",
    );
}

#[test]
fn nested_collapse() {
    check(
        "nested_collapse.txt",
        "int a[8][8];\nint main() {\n  int i;\n  int j;\n  #pragma omp parallel for collapse(2)\n  for (i = 0; i < 8; i++) {\n    for (j = 0; j < 8; j++) {\n      a[i][j] = i * 8 + j;\n    }\n  }\n  return 0;\n}\n",
    );
}

#[test]
fn critical_master() {
    check(
        "critical_master.txt",
        "int count;\nint main() {\n  #pragma omp parallel\n  {\n    #pragma omp critical\n    {\n      count = count + 1;\n    }\n    #pragma omp barrier\n    #pragma omp master\n    {\n      count = count * 2;\n    }\n  }\n  return count;\n}\n",
    );
}

#[test]
fn single_sections_task() {
    check(
        "single_sections_task.txt",
        "int x;\nint y;\nint main() {\n  #pragma omp parallel\n  {\n    #pragma omp single\n    {\n      #pragma omp task\n      x = x + 1;\n      #pragma omp taskwait\n    }\n    #pragma omp sections\n    {\n      #pragma omp section\n      y = x;\n      #pragma omp section\n      x = 2;\n    }\n  }\n  return x;\n}\n",
    );
}
