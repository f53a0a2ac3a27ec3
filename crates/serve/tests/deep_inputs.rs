//! Deeply nested kernels against the parser's nesting budget.
//!
//! Each shape below once overflowed a worker's stack (parser, or a pass
//! recursing over the AST) or wedged it (an exponential access walk).
//! At the budget every shape must run through both service bodies on a
//! thread with the standard 2 MiB stack the service's workers get; just
//! past it, and far past it, the parser refuses the kernel with a typed
//! `TooDeep` error, which the service reports as an unparseable kernel.

use minic::{ErrorKind, MAX_DEPTH};

/// A named kernel family, parameterized by nesting count.
struct Shape {
    name: &'static str,
    kernel: fn(usize) -> String,
    /// Nesting count of the original crash report.
    repro: usize,
}

fn main_with(body: &str) -> String {
    format!("int x;\nint main() {{\n  x = 0;\n  {body}\n  return x;\n}}\n")
}

const SHAPES: [Shape; 7] = [
    Shape {
        name: "parentheses",
        kernel: |n| main_with(&format!("x = {}1{};", "(".repeat(n), ")".repeat(n))),
        repro: 1265,
    },
    Shape {
        name: "blocks",
        kernel: |n| main_with(&format!("{}{}", "{".repeat(n), "}".repeat(n))),
        repro: 1147,
    },
    Shape {
        name: "ifs",
        kernel: |n| main_with(&format!("{}x = 1;", "if (x) ".repeat(n))),
        repro: 1460,
    },
    Shape {
        name: "sum-chain",
        kernel: |n| main_with(&format!("x = 1{};", "+1".repeat(n))),
        repro: 20_000,
    },
    Shape {
        name: "else-if-ladder",
        kernel: |n| {
            let arms: Vec<String> = (0..n)
                .map(|i| format!("if (x == {i}) x = {};", i + 1))
                .collect();
            main_with(&arms.join(" else "))
        },
        repro: 2000,
    },
    Shape {
        name: "predecrements",
        kernel: |n| main_with(&format!("x = {}x;", "--".repeat(n))),
        repro: 30,
    },
    Shape {
        name: "compound-assignments",
        kernel: |n| main_with(&format!("{}x{};", "(".repeat(n), " += 1)".repeat(n))),
        repro: 40,
    },
];

fn too_deep(code: &str) -> bool {
    matches!(minic::parse(code), Err(e) if e.kind == ErrorKind::TooDeep)
}

/// The largest nesting count of `shape` the parser accepts.
fn budget(shape: &Shape) -> usize {
    let n = (1..=MAX_DEPTH + 1)
        .find(|&n| minic::parse(&(shape.kernel)(n)).is_err())
        .unwrap_or_else(|| panic!("{}: {} levels still parse", shape.name, MAX_DEPTH + 1));
    n - 1
}

/// Run both service bodies on a thread with the std default stack.
fn serve_on_small_stack(code: String) -> (String, String) {
    std::thread::Builder::new()
        .stack_size(2 << 20)
        .spawn(move || {
            (
                serve::analyze::response_body(&code),
                serve::fixer::fix_body(&code),
            )
        })
        .unwrap()
        .join()
        .expect("service bodies must not overflow a 2 MiB stack")
}

#[test]
fn shapes_at_the_budget_are_served() {
    for shape in &SHAPES {
        let n = budget(shape);
        assert!(
            n + 8 >= MAX_DEPTH,
            "{}: budget {n} is far below {MAX_DEPTH}",
            shape.name
        );
        assert!(
            too_deep(&(shape.kernel)(n + 1)),
            "{}: {} levels must be TooDeep",
            shape.name,
            n + 1
        );
        let (analyze, fix) = serve_on_small_stack((shape.kernel)(n));
        assert!(
            analyze.contains("\"parse_ok\":true"),
            "{}: {analyze}",
            shape.name
        );
        assert!(fix.contains("\"parse_ok\":true"), "{}: {fix}", shape.name);
    }
}

#[test]
fn runaway_recursion_is_a_runtime_error() {
    let code = "int f(int n) { if (n == 0) return 0; return f(n - 1) + 1; }\nint main() { return f(1000000); }\n";
    let (analyze, fix) = serve_on_small_stack(code.to_string());
    assert!(analyze.contains("\"parse_ok\":true"), "{analyze}");
    assert!(analyze.contains("\"dynamic\":null"), "{analyze}");
    assert!(fix.contains("\"parse_ok\":true"), "{fix}");
}

#[test]
fn shapes_past_the_budget_are_unparseable() {
    for shape in &SHAPES {
        let code = (shape.kernel)(shape.repro.max(MAX_DEPTH + 1));
        assert!(too_deep(&code), "{}", shape.name);
        let (analyze, fix) = serve_on_small_stack(code);
        assert!(
            analyze.contains("\"parse_ok\":false"),
            "{}: {analyze}",
            shape.name
        );
        assert!(
            fix.contains("\"outcome\":\"unparseable\""),
            "{}: {fix}",
            shape.name
        );
    }
}
