//! AST-rewrite golden: a digest of every mutant xcheck's mutators and
//! repair edits print, for every corpus kernel plus a fixed sample of
//! generated kernels. The mutators, the shrinker and the repair edits
//! all walk the `minic` tree; a refactor of those walks that changes
//! which node a rewrite reaches first, or in what order, moves a digest
//! here with the kernel's name.
//!
//! Each line is `name  tag  <fxhash64>`, where the hash covers
//! `print_unit` of the mutant, or `-` when the rewrite does not apply.
//! The `repair` line folds every `RepairEdit` over every renameable
//! variable of the kernel into one digest.
//!
//! A second test ties `Stmt::children` to `minic::visit::walk_stmt`, the
//! two definitions of which statements sit under which.
//!
//! To bless a new snapshot after an intentional change:
//!
//! ```text
//! RACELLM_BLESS=1 cargo test -p racellm --test it_ast_rewrites
//! ```

use racellm::minic::ast::{Item, Stmt};
use racellm::minic::visit::{walk_func, walk_stmt, Visitor};
use racellm::{drb_gen, minic, xcheck};
use std::hash::Hasher;
use std::path::PathBuf;
use xcheck::{FlipMutation, RepairEdit, SemMutation};

/// Seed and size of the generated sample pinned beside the corpus.
const GEN_SEED: u64 = 0xA57;
const GEN_COUNT: usize = 64;

const FLIPS: [FlipMutation; 7] = [
    FlipMutation::DropReduction,
    FlipMutation::DropSyncRegion,
    FlipMutation::AddAtomic,
    FlipMutation::DropPrivate,
    FlipMutation::AddPrivate,
    FlipMutation::OffsetZero,
    FlipMutation::OffsetOne,
];

fn fx(text: &str) -> u64 {
    let mut h = par::hash::FxHasher::default();
    h.write(text.as_bytes());
    h.finish()
}

fn digest(mutant: Option<minic::TranslationUnit>) -> String {
    mutant.map_or_else(|| "-".to_string(), |u| format!("{:016x}", fx(&minic::print_unit(&u))))
}

/// Every repair edit over every renameable variable, folded into one
/// digest in enumeration order.
fn repair_digest(unit: &minic::TranslationUnit) -> String {
    let mut edits = vec![RepairEdit::DropNowait, RepairEdit::SerializeBody];
    for var in minic::visit::collect_names(unit) {
        edits.extend([
            RepairEdit::AddReduction { var: var.clone() },
            RepairEdit::WrapAtomic { var: var.clone() },
            RepairEdit::WrapCritical { var: var.clone() },
            RepairEdit::AddPrivate { var },
        ]);
    }
    let mut h = par::hash::FxHasher::default();
    for e in &edits {
        h.write(digest(xcheck::apply_repair(unit, e)).as_bytes());
    }
    format!("{:016x}", h.finish())
}

fn render_kernel(name: &str, code: &str) -> String {
    let Ok(unit) = minic::parse(code) else {
        return format!("{name}  parse  -\n");
    };
    let mut out = String::new();
    for m in SemMutation::ALL {
        out.push_str(&format!("{name}  {}  {}\n", m.tag(), digest(xcheck::apply_sem(&unit, m))));
    }
    for m in FLIPS {
        out.push_str(&format!("{name}  {}  {}\n", m.tag(), digest(xcheck::apply_flip(&unit, m))));
    }
    out.push_str(&format!("{name}  repair  {}\n", repair_digest(&unit)));
    out
}

fn render() -> String {
    let mut inputs: Vec<(String, String)> = drb_gen::corpus()
        .iter()
        .map(|k| (k.name.clone(), k.trimmed_code.clone()))
        .collect();
    inputs.extend(xcheck::generate(GEN_SEED, GEN_COUNT).into_iter().map(|k| (k.name, k.code)));
    par::par_map(&inputs, par::default_workers(), |(name, code)| render_kernel(name, code)).concat()
}

#[test]
fn ast_rewrites_match_golden() {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden/ast_rewrites.txt");
    let rendered = render();
    if std::env::var_os("RACELLM_BLESS").is_some_and(|v| v == "1") {
        std::fs::write(&path, &rendered).unwrap();
        eprintln!("blessed {}", path.display());
        return;
    }
    let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden snapshot {} ({e});\nrun `RACELLM_BLESS=1 cargo test -p racellm --test it_ast_rewrites` to create it",
            path.display()
        )
    });
    let drifted: Vec<String> = golden
        .lines()
        .zip(rendered.lines())
        .filter(|(g, r)| g != r)
        .map(|(g, r)| format!("  -{g}\n  +{r}"))
        .collect();
    assert!(
        drifted.is_empty() && golden.lines().count() == rendered.lines().count(),
        "AST rewrites drifted from tests/golden/ast_rewrites.txt ({} lines differ):\n{}",
        drifted.len(),
        drifted.join("\n")
    );
}

/// Pre-order over `Stmt::children` visits the same statements, in the
/// same order, as a `Visitor` whose `visit_stmt` records each one, for
/// every corpus kernel.
#[test]
fn child_iterators_agree_with_the_visitor() {
    struct Seen(Vec<(minic::Span, *const Stmt)>);
    impl Visitor for Seen {
        fn visit_stmt(&mut self, s: &Stmt) {
            self.0.push((s.span(), s));
            walk_stmt(self, s);
        }
    }
    fn preorder(s: &Stmt, out: &mut Vec<(minic::Span, *const Stmt)>) {
        out.push((s.span(), s));
        s.children().for_each(|c| preorder(c, out));
    }
    let corpus = drb_gen::corpus();
    assert_eq!(corpus.len(), 201);
    for k in corpus {
        let unit = minic::parse(&k.code).unwrap_or_else(|e| panic!("{}: {e:?}", k.name));
        for item in &unit.items {
            let Item::Func(f) = item else { continue };
            let mut visited = Seen(Vec::new());
            walk_func(&mut visited, f);
            let mut iterated = Vec::new();
            f.body.stmts.iter().for_each(|s| preorder(s, &mut iterated));
            assert_eq!(visited.0, iterated, "{}: {}", k.name, f.name);
        }
    }
}
