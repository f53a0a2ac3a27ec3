//! Loop-level dependence analysis.
//!
//! Extracts the induction variable and bounds of a `for` loop, collects
//! the body's memory accesses, and classifies every conflicting pair as
//! a true/anti/output dependence — loop-carried or not. This is the
//! engine behind both the static race detector and the surrogate LLM's
//! "dependence analysis" feature channel (prompt strategy p2/p3 in the
//! paper instructs models to do exactly this analysis).

use crate::access::{Access, AccessKind};
use crate::affine::Affine;
use crate::dtest::{subscripts_test, DepResult, LoopBounds};
use minic::ast::{BinOp, Expr, ForInit, ForStmt, Stmt, UnOp};
use serde::{Deserialize, Serialize};

/// Dependence classification (by access kinds and iteration order).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DepKind {
    /// Write then read (flow / RAW).
    True,
    /// Read then write (WAR).
    Anti,
    /// Write then write (WAW).
    Output,
}

impl DepKind {
    /// Classify from the two access kinds in source order.
    pub fn classify(first: AccessKind, second: AccessKind) -> Option<DepKind> {
        match (first, second) {
            (AccessKind::Write, AccessKind::Read) => Some(DepKind::True),
            (AccessKind::Read, AccessKind::Write) => Some(DepKind::Anti),
            (AccessKind::Write, AccessKind::Write) => Some(DepKind::Output),
            (AccessKind::Read, AccessKind::Read) => None,
        }
    }

    /// Human-readable name.
    pub fn as_str(&self) -> &'static str {
        match self {
            DepKind::True => "true (flow)",
            DepKind::Anti => "anti",
            DepKind::Output => "output",
        }
    }
}

/// Dependence direction under the analyzed loop (classic `<`, `=`, `>`
/// direction-vector component).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Direction {
    /// Source iteration precedes sink (`<`).
    Lt,
    /// Same iteration (`=`).
    Eq,
    /// Source iteration follows sink (`>`).
    Gt,
    /// Unknown (`*`).
    Star,
}

impl Direction {
    /// Classic spelling.
    pub fn as_str(&self) -> &'static str {
        match self {
            Direction::Lt => "<",
            Direction::Eq => "=",
            Direction::Gt => ">",
            Direction::Star => "*",
        }
    }

    /// Derive the direction from a constant distance (sink - source).
    pub fn from_distance(d: Option<i64>) -> Direction {
        match d {
            Some(0) => Direction::Eq,
            Some(d) if d > 0 => Direction::Lt,
            Some(_) => Direction::Gt,
            None => Direction::Star,
        }
    }
}

/// One discovered dependence between two accesses.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Dependence {
    /// The source access (earlier in program order).
    pub src: Access,
    /// The sink access.
    pub dst: Access,
    /// Flow/anti/output.
    pub kind: DepKind,
    /// Whether the dependence crosses iterations of the analyzed loop.
    pub carried: bool,
    /// Constant iteration distance, when the test produced one.
    pub distance: Option<i64>,
    /// `false` when the dependence is only *possible* (opaque subscripts,
    /// symbolic gaps) rather than proven.
    pub certain: bool,
}

impl Dependence {
    /// Direction-vector component for the analyzed loop.
    pub fn direction(&self) -> Direction {
        if !self.carried {
            return Direction::Eq;
        }
        Direction::from_distance(self.distance)
    }
}

impl Dependence {
    /// DRB-style description: `a[i+1]@64:10:R vs. a[i]@64:5:W`.
    pub fn describe(&self) -> String {
        format!("{} vs. {}", self.src.label(), self.dst.label())
    }
}

/// Summary of a loop's dependence structure.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LoopAnalysis {
    /// Induction variable name (None when the loop is not canonical).
    pub induction_var: Option<String>,
    /// Normalized bounds.
    pub bounds: LoopBounds,
    /// All accesses in the loop body (plus header expressions).
    pub accesses: Vec<Access>,
    /// All conflicting dependences found.
    pub dependences: Vec<Dependence>,
}

impl LoopAnalysis {
    /// Dependences carried across iterations (the race-relevant ones for
    /// a worksharing loop).
    pub fn carried(&self) -> impl Iterator<Item = &Dependence> {
        self.dependences.iter().filter(|d| d.carried)
    }

    /// Whether any loop-carried dependence exists.
    pub fn has_carried(&self) -> bool {
        self.dependences.iter().any(|d| d.carried)
    }
}

/// Extract normalized bounds from a canonical loop header.
pub fn loop_bounds(f: &ForStmt) -> LoopBounds {
    let var = f.induction_var();

    // Starting value from init.
    let start = match &f.init {
        ForInit::Decl(d) => d.vars.first().and_then(|v| match &v.init {
            Some(minic::ast::Init::Expr(e)) => e.const_int(),
            _ => None,
        }),
        ForInit::Expr(Expr::Assign { rhs, .. }) => rhs.const_int(),
        _ => None,
    };

    // Step from the increment expression (sign determines direction).
    let step = match (var, &f.step) {
        (Some(var), Some(se)) => step_of(se, var).unwrap_or(1),
        _ => 1,
    };

    // The far end of the range from the condition, normalized to an
    // *exclusive-when-increasing / inclusive-low-when-decreasing* limit.
    let mut limit = None; // (value, inclusive)
    if let (Some(var), Some(Expr::Binary { op, lhs, rhs, .. })) = (var, &f.cond) {
        let lhs_is_var = matches!(lhs.as_ref(), Expr::Ident { name, .. } if name == var);
        let rhs_is_var = matches!(rhs.as_ref(), Expr::Ident { name, .. } if name == var);
        if lhs_is_var {
            limit = match op {
                BinOp::Lt => rhs.const_int().map(|v| (v, false)),
                BinOp::Le => rhs.const_int().map(|v| (v, true)),
                BinOp::Gt => rhs.const_int().map(|v| (v, false)),
                BinOp::Ge => rhs.const_int().map(|v| (v, true)),
                _ => None,
            };
        } else if rhs_is_var {
            // `ub > i` etc., with the variable on the right.
            limit = match op {
                BinOp::Gt => lhs.const_int().map(|v| (v, false)),
                BinOp::Ge => lhs.const_int().map(|v| (v, true)),
                BinOp::Lt => lhs.const_int().map(|v| (v, false)),
                BinOp::Le => lhs.const_int().map(|v| (v, true)),
                _ => None,
            };
        }
    }

    if step >= 0 {
        let ub = limit.map(|(v, incl)| if incl { v + 1 } else { v });
        LoopBounds { lb: start, ub, step }
    } else {
        // Decreasing loop: iteration space is [limit, start], normalized to
        // lb = smallest touched value, ub = start + 1.
        let lb = limit.map(|(v, incl)| if incl { v } else { v + 1 });
        LoopBounds { lb, ub: start.map(|s| s + 1), step }
    }
}

fn step_of(e: &Expr, var: &str) -> Option<i64> {
    match e {
        Expr::IncDec { inc, expr, .. } => {
            if expr.root_var() == Some(var) {
                Some(if *inc { 1 } else { -1 })
            } else {
                None
            }
        }
        Expr::Assign { op, lhs, rhs, .. } if lhs.root_var() == Some(var) => match op {
            minic::ast::AssignOp::Add => rhs.const_int(),
            minic::ast::AssignOp::Sub => rhs.const_int().map(|v| -v),
            minic::ast::AssignOp::Assign => {
                // i = i + k / i = i - k
                if let Expr::Binary { op, lhs: l2, rhs: r2, .. } = rhs.as_ref() {
                    let af = Affine::from_expr(rhs);
                    if af.coeff(var) == 1 && af.coeffs.len() == 1 && !af.opaque {
                        return Some(af.constant);
                    }
                    let _ = (op, l2, r2);
                }
                None
            }
            _ => None,
        },
        _ => None,
    }
}

/// Analyze a `for` loop: collect accesses, test all conflicting pairs.
pub fn analyze_loop(f: &ForStmt) -> LoopAnalysis {
    let var = f.induction_var().map(str::to_string);
    let bounds = loop_bounds(f);
    let accesses = crate::access::accesses_of_stmt(&f.body);
    let dependences = match &var {
        Some(v) => pairwise_dependences(&accesses, v, &bounds, &[]),
        None => pairwise_dependences(&accesses, "", &bounds, &[]),
    };
    LoopAnalysis { induction_var: var, bounds, accesses, dependences }
}

/// Test every conflicting access pair on the same variable.
///
/// `private` lists variables that are private per iteration/thread —
/// accesses to them never form (cross-thread) dependences. The loop
/// induction variable is implicitly private in a worksharing loop, so
/// callers include it when analyzing `omp for`.
pub fn pairwise_dependences(
    accesses: &[Access],
    var: &str,
    bounds: &LoopBounds,
    private: &[String],
) -> Vec<Dependence> {
    let mut out = Vec::new();
    for (idx1, a1) in accesses.iter().enumerate() {
        for a2 in &accesses[idx1..] {
            if a1.var != a2.var || !a1.kind.conflicts(&a2.kind) {
                continue;
            }
            if private.contains(&a1.var) {
                continue;
            }
            let Some(kind) = DepKind::classify(a1.kind, a2.kind) else { continue };
            if a1.is_array() && a2.is_array() {
                match subscripts_test(&a1.subscripts, &a2.subscripts, var, bounds) {
                    DepResult::Independent => {}
                    DepResult::Distance(d) => {
                        // Skip the degenerate self-pair at distance 0 (the
                        // same textual access conflicting with itself in the
                        // same iteration is not a dependence).
                        let same_site = std::ptr::eq(a1, a2);
                        if d == 0 && same_site {
                            continue;
                        }
                        out.push(Dependence {
                            src: a1.clone(),
                            dst: a2.clone(),
                            kind,
                            carried: d != 0,
                            distance: Some(d),
                            certain: true,
                        });
                    }
                    DepResult::Unknown => {
                        out.push(Dependence {
                            src: a1.clone(),
                            dst: a2.clone(),
                            kind,
                            carried: true,
                            distance: None,
                            certain: false,
                        });
                    }
                }
            } else if !a1.is_array() && !a2.is_array() {
                // Scalar conflict: every iteration touches the same cell, so
                // any write makes a carried dependence.
                let same_site = std::ptr::eq(a1, a2);
                out.push(Dependence {
                    src: a1.clone(),
                    dst: a2.clone(),
                    kind,
                    carried: true,
                    distance: if same_site { None } else { Some(0) },
                    certain: true,
                });
            } else {
                // Array/scalar mix on the same name (aliasing through
                // pointers): conservative.
                out.push(Dependence {
                    src: a1.clone(),
                    dst: a2.clone(),
                    kind,
                    carried: true,
                    distance: None,
                    certain: false,
                });
            }
        }
    }
    out
}

/// Find the first `for` statement in a subtree (helper for tests and the
/// detector's directive handling).
pub fn first_for(s: &Stmt) -> Option<&ForStmt> {
    match s {
        Stmt::For(f) => Some(f),
        _ => s.children().find_map(first_for),
    }
}

/// Strip address-of sugar when looking for a loop under unary wrappers.
pub fn unwrap_unary(e: &Expr) -> &Expr {
    match e {
        Expr::Unary { op: UnOp::AddrOf | UnOp::Deref, expr, .. } => unwrap_unary(expr),
        other => other,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use minic::ast::Item;
    use minic::parser::parse;

    fn analyze(src: &str) -> LoopAnalysis {
        let unit = parse(src).unwrap();
        let Item::Func(f) = &unit.items[0] else { panic!() };
        let fs = f
            .body
            .stmts
            .iter()
            .find_map(first_for)
            .expect("no for loop in test source");
        analyze_loop(fs)
    }

    #[test]
    fn antidep_kernel_is_carried() {
        // DRB001-style anti-dependence.
        let la = analyze(
            "void f(int* a, int len) { int i; for (i = 0; i < len - 1; i++) a[i] = a[i+1] + 1; }",
        );
        assert_eq!(la.induction_var.as_deref(), Some("i"));
        assert!(la.has_carried());
        let d = la.carried().next().unwrap();
        assert_eq!(d.kind, DepKind::Anti);
        // The read `a[i+1]` appears first (RHS); the write `a[i]` touches
        // the same element one iteration later → distance +1.
        assert_eq!(d.distance, Some(1));
    }

    #[test]
    fn independent_kernel_has_no_carried_array_dep() {
        let la = analyze("void f(int* a) { int i; for (i = 0; i < 100; i++) a[i] = a[i] * 2; }");
        let arr: Vec<_> = la.carried().filter(|d| d.src.is_array()).collect();
        assert!(arr.is_empty(), "{arr:?}");
    }

    #[test]
    fn bounds_extraction() {
        let la = analyze("void f(int* a) { for (int i = 2; i <= 50; i += 3) a[i] = 1; }");
        assert_eq!(la.bounds, LoopBounds::known(2, 51, 3));
    }

    #[test]
    fn reverse_loop_step() {
        let la = analyze("void f(int* a) { int i; for (i = 99; i >= 0; i--) a[i] = 1; }");
        assert_eq!(la.bounds.step, -1);
        assert_eq!(la.bounds.lb, Some(0));
    }

    #[test]
    fn scalar_write_is_carried_output_dep() {
        let la = analyze("void f(int x) { for (int i = 0; i < 10; i++) x = i; }");
        assert!(la
            .dependences
            .iter()
            .any(|d| d.kind == DepKind::Output && d.src.var == "x" && d.carried));
    }

    #[test]
    fn induction_var_can_be_filtered_as_private() {
        let unit =
            parse("void f(int* a) { int i; for (i = 0; i < 10; i++) a[i] = i; }").unwrap();
        let Item::Func(f) = &unit.items[0] else { panic!() };
        let fs = f.body.stmts.iter().find_map(first_for).unwrap();
        let la = analyze_loop(fs);
        let deps = pairwise_dependences(
            &la.accesses,
            "i",
            &la.bounds,
            &["i".to_string()],
        );
        assert!(deps.iter().all(|d| d.src.var != "i"), "{deps:?}");
    }

    #[test]
    fn indirect_subscript_is_uncertain() {
        let la = analyze(
            "void f(int* a, int* idx) { for (int i = 0; i < 10; i++) a[idx[i]] = i; }",
        );
        let d = la.dependences.iter().find(|d| d.src.var == "a").unwrap();
        assert!(!d.certain);
        assert!(d.carried);
    }

    #[test]
    fn stencil_flow_dependence() {
        // a[i+1] = a[i]: write then read across iterations (flow).
        let la = analyze("void f(int* a) { for (int i = 0; i < 99; i++) a[i+1] = a[i]; }");
        let d = la.carried().next().unwrap();
        // Source order: read a[i] comes first (RHS), then write a[i+1].
        assert_eq!(d.kind, DepKind::Anti);
        assert!(la.has_carried());
    }

    #[test]
    fn describe_mentions_both_sites() {
        let la = analyze("void f(int* a) { for (int i = 0; i < 9; i++) a[i] = a[i+1]; }");
        let d = la.carried().next().unwrap();
        let txt = d.describe();
        assert!(txt.contains("a[i + 1]") && txt.contains("vs."), "{txt}");
    }
}

#[cfg(test)]
mod direction_tests {
    use super::*;
    use minic::ast::Item;
    use minic::parser::parse;

    fn first_dep(src: &str) -> Dependence {
        let unit = parse(src).unwrap();
        let Item::Func(f) = &unit.items[0] else { panic!() };
        let fs = f.body.stmts.iter().find_map(first_for).unwrap();
        analyze_loop(fs).dependences.into_iter().next().unwrap()
    }

    #[test]
    fn forward_distance_is_lt() {
        let d = first_dep("void f(int* a) { for (int i = 0; i < 9; i++) a[i] = a[i+1]; }");
        assert_eq!(d.direction(), Direction::Lt);
        assert_eq!(d.direction().as_str(), "<");
    }

    #[test]
    fn unknown_distance_is_star() {
        let d = first_dep(
            "void f(int* a, int* idx) { for (int i = 0; i < 9; i++) a[idx[i]] = i; }",
        );
        assert_eq!(d.direction(), Direction::Star);
    }

    #[test]
    fn from_distance_mapping() {
        assert_eq!(Direction::from_distance(Some(0)), Direction::Eq);
        assert_eq!(Direction::from_distance(Some(3)), Direction::Lt);
        assert_eq!(Direction::from_distance(Some(-2)), Direction::Gt);
        assert_eq!(Direction::from_distance(None), Direction::Star);
    }
}
