//! Kernel specifications and ground-truth label resolution.
//!
//! Each corpus kernel declares its racy variable pairs *symbolically*
//! (expression text + operation + occurrence index); the resolver parses
//! the comment-trimmed code and locates the matching accesses, producing
//! the exact `name@line:col:op` labels DRB-ML needs (paper §3.1: line
//! numbers refer to the trimmed code). This removes any hand-counted
//! line numbers from the corpus source — labels cannot drift from code.

use depend::access::{accesses_of_block, Access, AccessKind};
use minic::ast::Item;
use minic::TranslationUnit;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// The longest trimmed code whose AST [`resolve`] keeps on the kernel.
/// A kernel this short has at most this many tokens (a token spans at
/// least one byte), so it fits DRB-ML's 4k-token prompt budget and its
/// view reads the kept AST. The longer kernels are the oversized trio,
/// which the budget drops, so no view reads their 19–22 KB ASTs.
pub const UNIT_MAX_BYTES: usize = 4095;

/// DRB-style pattern taxonomy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
#[allow(missing_docs)]
pub enum Category {
    /// Loop-carried anti-dependence (`a[i] = a[i+1]`).
    AntiDep,
    /// Loop-carried true dependence (`a[i+1] = a[i]`).
    TrueDep,
    /// Loop-carried output dependence.
    OutputDep,
    /// Unprotected shared scalar/array update (missing critical/atomic).
    MissingSync,
    /// Correct use of critical/atomic/locks.
    Sync,
    /// Reduction patterns (correct or missing).
    Reduction,
    /// Data-sharing attribute bugs (missing private etc.).
    Privatization,
    /// `nowait` / barrier structure.
    BarrierStructure,
    /// `sections` constructs.
    Sections,
    /// Explicit tasks.
    Tasks,
    /// SIMD loops.
    Simd,
    /// Indirect (index-array) accesses.
    Indirect,
    /// Stencils and multi-dimensional loops.
    Stencil,
    /// Pointer aliasing patterns.
    Aliasing,
    /// Cross-function (interprocedural) patterns.
    Interprocedural,
    /// Single/master constructs.
    OnceConstructs,
    /// Target/device-style constructs.
    Target,
    /// Input-dependent or symbolic-bound patterns.
    Symbolic,
    /// Miscellaneous control patterns.
    Control,
}

impl Category {
    /// Difficulty weight used by the surrogate LLM (higher = harder for a
    /// pattern-matching model to classify).
    pub fn difficulty(&self) -> f64 {
        match self {
            Category::AntiDep | Category::TrueDep | Category::OutputDep => 0.15,
            Category::MissingSync | Category::Sync => 0.2,
            Category::Reduction => 0.25,
            Category::Privatization => 0.35,
            Category::BarrierStructure => 0.5,
            Category::Sections => 0.3,
            Category::Tasks => 0.55,
            Category::Simd => 0.6,
            Category::Indirect => 0.7,
            Category::Stencil => 0.45,
            Category::Aliasing => 0.75,
            Category::Interprocedural => 0.6,
            Category::OnceConstructs => 0.5,
            Category::Target => 0.55,
            Category::Symbolic => 0.8,
            Category::Control => 0.4,
        }
    }

    /// Stable name for reports.
    pub fn as_str(&self) -> &'static str {
        match self {
            Category::AntiDep => "antidep",
            Category::TrueDep => "truedep",
            Category::OutputDep => "outputdep",
            Category::MissingSync => "missing-sync",
            Category::Sync => "sync",
            Category::Reduction => "reduction",
            Category::Privatization => "privatization",
            Category::BarrierStructure => "barrier-structure",
            Category::Sections => "sections",
            Category::Tasks => "tasks",
            Category::Simd => "simd",
            Category::Indirect => "indirect",
            Category::Stencil => "stencil",
            Category::Aliasing => "aliasing",
            Category::Interprocedural => "interprocedural",
            Category::OnceConstructs => "once-constructs",
            Category::Target => "target",
            Category::Symbolic => "symbolic",
            Category::Control => "control",
        }
    }
}

/// Read/write marker in DRB-ML style.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Op {
    /// Read.
    R,
    /// Write.
    W,
}

impl Op {
    /// DRB-ML letter (`"r"` / `"w"`).
    pub fn letter(&self) -> &'static str {
        match self {
            Op::R => "r",
            Op::W => "w",
        }
    }

    fn kind(&self) -> AccessKind {
        match self {
            Op::R => AccessKind::Read,
            Op::W => AccessKind::Write,
        }
    }
}

/// One side of a pair spec: canonical expression text (as printed by
/// `minic::printer::print_expr`), the operation, and which occurrence of
/// that (text, op) combination in program order (0-based).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SideSpec {
    /// Canonical lvalue text, e.g. `a[i + 1]`.
    pub text: String,
    /// Read or write.
    pub op: Op,
    /// 0-based occurrence index among matching accesses.
    pub occurrence: usize,
}

impl SideSpec {
    /// Convenience constructor for the first occurrence.
    pub fn new(text: impl Into<String>, op: Op) -> Self {
        SideSpec { text: text.into(), op, occurrence: 0 }
    }

    /// Constructor selecting a later occurrence.
    pub fn nth(text: impl Into<String>, op: Op, occurrence: usize) -> Self {
        SideSpec { text: text.into(), op, occurrence }
    }
}

/// A symbolic racy-pair declaration.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PairSpec {
    /// The dependence source side (VAR0 in DRB-ML: the side VAR1 depends
    /// on).
    pub first: SideSpec,
    /// The dependent side.
    pub second: SideSpec,
}

/// A fully-resolved variable pair with trimmed-code coordinates.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct VarPair {
    /// Lvalue texts.
    pub names: (String, String),
    /// 1-based lines in the trimmed code.
    pub lines: (u32, u32),
    /// 1-based columns in the trimmed code.
    pub cols: (u32, u32),
    /// Operations.
    pub ops: (Op, Op),
}

impl VarPair {
    /// DRB-comment style: `a[i+1]@64:10:R vs. a[i]@64:5:W`.
    pub fn describe(&self) -> String {
        format!(
            "{}@{}:{}:{} vs. {}@{}:{}:{}",
            self.names.0,
            self.lines.0,
            self.cols.0,
            self.ops.0.letter().to_uppercase(),
            self.names.1,
            self.lines.1,
            self.cols.1,
            self.ops.1.letter().to_uppercase()
        )
    }
}

/// How a kernel interacts with the detectors (used to build the
/// adversarial subset that keeps the baseline imperfect).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ToolBehavior {
    /// Both static and dynamic analysis get this right.
    Standard,
    /// Static analysis misses the race (false negative by design).
    EvadesStatic,
    /// Static analysis reports a race that is not there (false positive
    /// by design — e.g. runtime-disjoint indirect indices).
    TripsStatic,
    /// The dynamic checker cannot model this kernel faithfully (e.g.
    /// SIMD lane conflicts); exclude it from hbsan ground-truth
    /// validation.
    DynUnmodeled,
}

/// A kernel before label resolution.
#[derive(Debug, Clone)]
pub struct Builder {
    /// Name slug, e.g. `antidep1-orig-yes`.
    pub slug: String,
    /// Pattern category.
    pub category: Category,
    /// One-line description for the header comment.
    pub description: String,
    /// Source code without the header comment.
    pub body: String,
    /// Ground truth: does a data race exist?
    pub race: bool,
    /// Symbolic racy pairs (empty iff `race == false`).
    pub pairs: Vec<PairSpec>,
    /// Detector interaction class.
    pub behavior: ToolBehavior,
}

impl Builder {
    /// Convenience constructor.
    pub fn new(
        slug: &str,
        category: Category,
        description: &str,
        body: &str,
        race: bool,
        pairs: Vec<PairSpec>,
    ) -> Self {
        Builder {
            slug: slug.to_string(),
            category,
            description: description.to_string(),
            body: body.trim_start_matches('\n').to_string(),
            race,
            pairs,
            behavior: ToolBehavior::Standard,
        }
    }

    /// Mark the detector-interaction class.
    pub fn behavior(mut self, b: ToolBehavior) -> Self {
        self.behavior = b;
        self
    }
}

/// A finished corpus kernel.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Kernel {
    /// 1-based corpus index.
    pub id: u32,
    /// Filename-style name, e.g. `SRB001-antidep1-orig-yes.c`.
    pub name: String,
    /// Pattern category.
    pub category: Category,
    /// One-line description.
    pub description: String,
    /// Full source including the DRB-style header comment.
    pub code: String,
    /// Source with comments removed (what DRB-ML labels refer to).
    pub trimmed_code: String,
    /// Ground truth: race present?
    pub race: bool,
    /// Resolved variable pairs (trimmed-code coordinates).
    pub pairs: Vec<VarPair>,
    /// Detector interaction class.
    #[serde(skip, default = "default_behavior")]
    pub behavior: ToolBehavior,
    /// `trimmed_code` parsed, shared with the consumers that would
    /// otherwise parse it again (the DRB-ML views). When present it
    /// equals `minic::parse(&trimmed_code)`. [`resolve`] keeps it only
    /// up to [`UNIT_MAX_BYTES`]; deserialized kernels have none.
    #[serde(skip)]
    pub unit: Option<Arc<TranslationUnit>>,
}

fn default_behavior() -> ToolBehavior {
    ToolBehavior::Standard
}

impl Kernel {
    /// DRB-style race label (`Y1`..`Y7`/`N1`.. buckets collapse to Y/N
    /// plus category).
    pub fn race_label(&self) -> String {
        if self.race {
            format!("Y-{}", self.category.as_str())
        } else {
            format!("N-{}", self.category.as_str())
        }
    }
}

/// Resolve a builder into a kernel: trim, locate pairs, attach header.
pub fn resolve(builder: &Builder, id: u32) -> Result<Kernel, String> {
    let body = builder.body.trim_start().to_string();
    // The body contains no comments by construction, so the trimmed code
    // equals the body (verified here) and all labels refer to it.
    let trimmed = minic::trim_comments(&body);
    let unit = minic::parse(&trimmed.code)
        .map_err(|e| format!("{}: parse error: {e}\n{}", builder.slug, trimmed.code))?;

    // Collect every access in program order, across all functions. A
    // kernel that declares no pairs looks none up, so it skips the walk.
    let mut accesses: Vec<Access> = Vec::new();
    if !builder.pairs.is_empty() {
        for item in &unit.items {
            if let Item::Func(f) = item {
                accesses.extend(accesses_of_block(&f.body));
            }
        }
    }

    let mut pairs = Vec::new();
    for spec in &builder.pairs {
        let a = find_access(&accesses, &spec.first)
            .ok_or_else(|| format!("{}: no access matching {:?}", builder.slug, spec.first))?;
        let b = find_access(&accesses, &spec.second)
            .ok_or_else(|| format!("{}: no access matching {:?}", builder.slug, spec.second))?;
        pairs.push(VarPair {
            names: (a.text.clone(), b.text.clone()),
            lines: (a.span.line(), b.span.line()),
            cols: (a.span.col(), b.span.col()),
            ops: (spec.first.op, spec.second.op),
        });
    }

    if builder.race && pairs.is_empty() {
        return Err(format!("{}: race-yes kernel without pairs", builder.slug));
    }
    if !builder.race && !pairs.is_empty() {
        return Err(format!("{}: race-no kernel with pairs", builder.slug));
    }

    // Header comment in DataRaceBench style. Pair labels in the header
    // use trimmed-code coordinates (the header itself is a comment and
    // does not shift them).
    let mut header = String::new();
    header.push_str("/*\n");
    header.push_str(&format!("{}\n", builder.description));
    if builder.race {
        for p in &pairs {
            header.push_str(&format!("Data race pair: {}\n", p.describe()));
        }
    } else {
        header.push_str("No data race.\n");
    }
    header.push_str("*/\n");
    let code = format!("{header}{body}");

    let name = format!("SRB{id:03}-{}.c", builder.slug);
    let unit = (trimmed.code.len() <= UNIT_MAX_BYTES).then(|| Arc::new(unit));
    Ok(Kernel {
        id,
        name,
        category: builder.category,
        description: builder.description.clone(),
        code,
        trimmed_code: trimmed.code,
        race: builder.race,
        pairs,
        behavior: builder.behavior,
        unit,
    })
}

fn find_access<'a>(accesses: &'a [Access], spec: &SideSpec) -> Option<&'a Access> {
    accesses
        .iter()
        .filter(|a| a.kind == spec.op.kind() && a.text == spec.text)
        .nth(spec.occurrence)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resolves_antidep_pair() {
        let b = Builder::new(
            "antidep-test-yes",
            Category::AntiDep,
            "A loop with loop-carried anti-dependence.",
            r#"
int a[1000];
int main()
{
  int i;
  int len = 1000;
  for (i = 0; i < len; i++)
    a[i] = i;
  #pragma omp parallel for
  for (i = 0; i < len - 1; i++)
    a[i] = a[i + 1] + 1;
  return 0;
}
"#,
            true,
            vec![PairSpec {
                first: SideSpec::new("a[i + 1]", Op::R),
                second: SideSpec::nth("a[i]", Op::W, 1),
            }],
        );
        let k = resolve(&b, 1).unwrap();
        assert_eq!(k.name, "SRB001-antidep-test-yes.c");
        assert_eq!(k.pairs.len(), 1);
        let p = &k.pairs[0];
        assert_eq!(p.names.0, "a[i + 1]");
        assert_eq!(p.names.1, "a[i]");
        // Both on the same line of the trimmed code (line 10).
        assert_eq!(p.lines.0, p.lines.1);
        assert!(k.code.starts_with("/*"));
        assert!(k.code.contains("Data race pair: a[i + 1]@"));
        // Trimmed code contains no comments.
        assert!(!k.trimmed_code.contains("/*"));
    }

    #[test]
    fn rejects_inconsistent_labels() {
        let b = Builder::new(
            "bad",
            Category::AntiDep,
            "desc",
            "int main() { return 0; }",
            true,
            vec![],
        );
        assert!(resolve(&b, 1).is_err());
    }

    #[test]
    fn rejects_missing_access() {
        let b = Builder::new(
            "bad2",
            Category::AntiDep,
            "desc",
            "int main() { return 0; }",
            true,
            vec![PairSpec {
                first: SideSpec::new("zz", Op::R),
                second: SideSpec::new("zz", Op::W),
            }],
        );
        assert!(resolve(&b, 1).is_err());
    }
}
