//! Code comprehension features.
//!
//! The surrogate "reads" a kernel the way a language model pattern-
//! matches: surface cues (pragmas, sync keywords, subscript shapes)
//! plus — for deeper profiles — a shallow dependence analysis. The same
//! feature vector feeds the fine-tuning crate.

use crate::profile::{ModelKind, ModelProfile};
use depend::access::{accesses_of_block, AccessKind};
use depend::loopdep::{first_for, analyze_loop};
use minic::ast::{Item, Stmt};
use minic::pragma::{Clause, DirectiveKind};
use minic::visit::collect_directives;
use serde::{Deserialize, Serialize};

/// Uncalibrated yes/no verdict for code outside the calibrated corpus:
/// the feature-based suspicion score at the model's analysis depth,
/// thresholded at 0.5. This is exactly what the decision layer degrades
/// to without a calibration entry; the umbrella `Pipeline` and the
/// `xcheck` differential harness both use it as the uniform LLM verdict
/// adapter for generated (non-corpus) kernels.
pub fn feature_verdict(features: &CodeFeatures, kind: ModelKind) -> bool {
    features.race_suspicion(ModelProfile::of(kind).depth) > 0.5
}

/// Structural features of one kernel.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct CodeFeatures {
    /// Token count of the trimmed code.
    pub tokens: usize,
    /// Number of OpenMP directives.
    pub directives: usize,
    /// Parallel-creating constructs present.
    pub has_parallel: bool,
    /// Worksharing loop present.
    pub has_ws_loop: bool,
    /// `reduction` clause present.
    pub has_reduction: bool,
    /// `private`/`firstprivate`/`lastprivate` present.
    pub has_privatization: bool,
    /// `critical` present.
    pub has_critical: bool,
    /// `atomic` present.
    pub has_atomic: bool,
    /// Explicit `barrier` present.
    pub has_barrier: bool,
    /// `nowait` present.
    pub has_nowait: bool,
    /// Runtime lock API used.
    pub has_locks: bool,
    /// Explicit tasks present.
    pub has_tasks: bool,
    /// `sections` present.
    pub has_sections: bool,
    /// SIMD construct present.
    pub has_simd: bool,
    /// `single`/`master` present.
    pub has_once: bool,
    /// `ordered` construct present.
    pub has_ordered: bool,
    /// Any array subscript with a non-affine (indirect) form.
    pub has_indirect_subscript: bool,
    /// Any subscript of the form `i + c`, `c != 0` (offset access).
    pub has_offset_subscript: bool,
    /// A shared-looking scalar is written inside a loop body.
    pub scalar_write_in_loop: bool,
    /// Pointer assignments (`p = a`) appear (aliasing smell).
    pub pointer_assignment: bool,
    /// A user-defined function is called inside the parallel construct.
    pub has_helper_call: bool,
    /// Deep analysis: a loop-carried dependence was found in some
    /// parallel loop (this is what prompt p2/p3 asks the model to do).
    pub carried_dependence: bool,
    /// Deep analysis: the carried dependence is certain (affine proof).
    pub carried_certain: bool,
}

impl CodeFeatures {
    /// Extract features from trimmed source. Unparseable code yields
    /// surface-only features.
    pub fn extract(trimmed_code: &str) -> CodeFeatures {
        let tokens = crate::tokenizer::count_tokens(trimmed_code);
        CodeFeatures::from_parts(tokens, minic::parse(trimmed_code).ok().as_ref())
    }

    /// Extract features from pre-computed parts: the token count and the
    /// parse result (`None` for unparseable code). This is the single
    /// implementation behind both [`CodeFeatures::extract`] and the
    /// cached [`AnalyzedKernel`](crate::artifact::AnalyzedKernel), so
    /// cached features are equal to a fresh extraction by construction.
    pub fn from_parts(tokens: usize, unit: Option<&minic::TranslationUnit>) -> CodeFeatures {
        let mut f = CodeFeatures { tokens, ..CodeFeatures::default() };
        let Some(unit) = unit else {
            return f;
        };
        // Pointer-typed variables being assigned is the aliasing smell.
        f.pointer_assignment = has_pointer_assignment(unit);

        let dirs = collect_directives(unit);
        f.directives = dirs.len();
        for d in dirs {
            match &d.kind {
                k if k.creates_parallelism() => f.has_parallel = true,
                _ => {}
            }
            if d.kind.is_worksharing_loop() {
                f.has_ws_loop = true;
            }
            match &d.kind {
                DirectiveKind::Critical(_) => f.has_critical = true,
                DirectiveKind::Atomic(_) => f.has_atomic = true,
                DirectiveKind::Barrier => f.has_barrier = true,
                DirectiveKind::Task | DirectiveKind::Taskwait | DirectiveKind::Taskgroup => {
                    f.has_tasks = true
                }
                DirectiveKind::Sections | DirectiveKind::ParallelSections => {
                    f.has_sections = true
                }
                DirectiveKind::Simd
                | DirectiveKind::ForSimd
                | DirectiveKind::ParallelForSimd => f.has_simd = true,
                DirectiveKind::Single | DirectiveKind::Master => f.has_once = true,
                DirectiveKind::Ordered => f.has_ordered = true,
                _ => {}
            }
            for c in &d.clauses {
                match c {
                    Clause::Reduction(..) => f.has_reduction = true,
                    Clause::Private(_) | Clause::Firstprivate(_) | Clause::Lastprivate(_) => {
                        f.has_privatization = true
                    }
                    Clause::Nowait => f.has_nowait = true,
                    _ => {}
                }
            }
        }

        // Access shapes + helper calls.
        let src_text = minic::printer::print_unit(unit);
        if src_text.contains("omp_set_lock") {
            f.has_locks = true;
        }
        for item in &unit.items {
            let Item::Func(func) = item else { continue };
            for a in accesses_of_block(&func.body) {
                if a.is_array() {
                    if a.has_opaque_subscript() {
                        f.has_indirect_subscript = true;
                    }
                    for s in &a.subscripts {
                        if !s.opaque && s.constant != 0 && !s.coeffs.is_empty() {
                            f.has_offset_subscript = true;
                        }
                    }
                } else if a.kind == AccessKind::Write && a.deref > 0 {
                    f.pointer_assignment = true;
                }
            }
            // Helper calls + scalar writes inside parallel constructs.
            func.body.stmts.iter().for_each(|s| scan_parallel(s, &mut f, false));
        }
        // Deep channel: real dependence analysis of the first parallel loop.
        for item in &unit.items {
            let Item::Func(func) = item else { continue };
            for s in &func.body.stmts {
                if let Stmt::Omp { dir, body: Some(b), .. } = s {
                    if dir.kind.is_worksharing_loop() || dir.kind == DirectiveKind::Simd {
                        if let Some(fs) = first_for(b) {
                            let la = analyze_loop(fs);
                            let privates: Vec<String> = dir
                                .privatized()
                                .iter()
                                .map(|s| s.to_string())
                                .chain(dir.reductions().iter().map(|s| s.to_string()))
                                .chain(la.induction_var.clone())
                                .collect();
                            let deps = depend::pairwise_dependences(
                                &la.accesses,
                                la.induction_var.as_deref().unwrap_or(""),
                                &la.bounds,
                                &privates,
                            );
                            for d in deps {
                                if d.carried {
                                    f.carried_dependence = true;
                                    if d.certain {
                                        f.carried_certain = true;
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
        f
    }

    /// How hard this kernel is for a pattern-matching model, in [0, 1].
    /// Combines with the category difficulty from `drb-gen`.
    pub fn surface_difficulty(&self) -> f64 {
        let mut d: f64 = 0.25;
        if self.has_indirect_subscript {
            d += 0.2;
        }
        if self.pointer_assignment {
            d += 0.15;
        }
        if self.has_tasks {
            d += 0.1;
        }
        if self.has_nowait {
            d += 0.1;
        }
        if self.has_helper_call {
            d += 0.1;
        }
        if self.tokens > 600 {
            d += 0.1;
        }
        if self.has_offset_subscript {
            d -= 0.1; // textbook stencil patterns are LLM-friendly
        }
        if self.has_reduction || self.has_critical || self.has_atomic {
            d -= 0.05; // visible sync keywords are strong cues
        }
        d.clamp(0.0, 1.0)
    }

    /// A pattern-matcher's race suspicion score in [0, 1] — the shallow
    /// judgement a model makes from surface cues alone.
    pub fn race_suspicion(&self, depth: f64) -> f64 {
        let mut s: f64 = 0.5;
        if !self.has_parallel && !self.has_simd {
            return 0.05;
        }
        // Shallow cues.
        if self.has_reduction {
            s -= 0.15;
        }
        if self.has_critical || self.has_atomic {
            s -= 0.18;
        }
        if self.has_locks {
            s -= 0.12;
        }
        if self.has_privatization {
            s -= 0.08;
        }
        if self.scalar_write_in_loop {
            s += 0.2;
        }
        if self.has_offset_subscript {
            s += 0.15;
        }
        if self.has_indirect_subscript {
            s += 0.1;
        }
        if self.has_nowait {
            s += 0.1;
        }
        // Deep cues weighted by the profile's analysis depth.
        if self.carried_certain {
            s += 0.35 * depth;
        } else if self.carried_dependence {
            s += 0.2 * depth;
        } else if self.has_ws_loop {
            s -= 0.2 * depth;
        }
        s.clamp(0.0, 1.0)
    }

    /// Dense numeric form for the fine-tuning crate.
    pub fn to_vector(&self) -> Vec<f64> {
        let b = |v: bool| if v { 1.0 } else { 0.0 };
        vec![
            (self.tokens as f64 / 512.0).min(4.0),
            (self.directives as f64 / 4.0).min(4.0),
            b(self.has_parallel),
            b(self.has_ws_loop),
            b(self.has_reduction),
            b(self.has_privatization),
            b(self.has_critical),
            b(self.has_atomic),
            b(self.has_barrier),
            b(self.has_nowait),
            b(self.has_locks),
            b(self.has_tasks),
            b(self.has_sections),
            b(self.has_simd),
            b(self.has_once),
            b(self.has_ordered),
            b(self.has_indirect_subscript),
            b(self.has_offset_subscript),
            b(self.scalar_write_in_loop),
            b(self.pointer_assignment),
            b(self.has_helper_call),
            b(self.carried_dependence),
            b(self.carried_certain),
        ]
    }

    /// Dimension of [`CodeFeatures::to_vector`].
    pub const DIM: usize = 23;
}

/// Does the unit assign to any pointer-typed variable?
fn has_pointer_assignment(unit: &minic::TranslationUnit) -> bool {
    use std::collections::HashSet;
    let mut ptr_vars: HashSet<String> = HashSet::new();
    // Collect pointer-typed declarations (globals and locals).
    fn collect_decl(d: &minic::ast::Decl, out: &mut HashSet<String>) {
        for v in &d.vars {
            if v.ty.pointers > 0 {
                out.insert(v.name.clone());
            }
        }
    }
    fn walk(s: &Stmt, out: &mut HashSet<String>) {
        match s {
            Stmt::Decl(d) => collect_decl(d, out),
            Stmt::For(f) => {
                if let minic::ast::ForInit::Decl(d) = &f.init {
                    collect_decl(d, out);
                }
            }
            _ => {}
        }
        s.children().for_each(|c| walk(c, out));
    }
    for item in &unit.items {
        match item {
            Item::Global(d) => collect_decl(d, &mut ptr_vars),
            Item::Func(f) => f.body.stmts.iter().for_each(|s| walk(s, &mut ptr_vars)),
            _ => {}
        }
    }
    if ptr_vars.is_empty() {
        return false;
    }
    // Any write access whose root var is a pointer variable (scalar
    // assignment to the pointer itself).
    for item in &unit.items {
        if let Item::Func(f) = item {
            for a in accesses_of_block(&f.body) {
                if a.kind == AccessKind::Write && !a.is_array() && a.deref == 0
                    && ptr_vars.contains(&a.var)
                {
                    return true;
                }
            }
        }
    }
    false
}

fn scan_parallel(s: &Stmt, f: &mut CodeFeatures, in_parallel: bool) {
    let mut now = in_parallel;
    match s {
        Stmt::Omp { dir, .. } => now |= dir.kind.creates_parallelism(),
        Stmt::For(fs) if in_parallel => {
            for a in depend::accesses_of_stmt(&fs.body) {
                if !a.is_array() && a.kind == AccessKind::Write {
                    f.scalar_write_in_loop = true;
                }
            }
        }
        Stmt::Expr(minic::ast::Expr::Call { callee, .. })
            if in_parallel && !callee.starts_with("omp_") && callee != "printf" =>
        {
            f.has_helper_call = true;
        }
        _ => {}
    }
    s.children().for_each(|c| scan_parallel(c, f, now));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn detects_sync_features() {
        let f = CodeFeatures::extract(
            "int x; int main() {\n#pragma omp parallel\n{\n#pragma omp critical\n{ x = x + 1; }\n}\n return 0; }",
        );
        assert!(f.has_parallel);
        assert!(f.has_critical);
        assert!(!f.has_reduction);
    }

    #[test]
    fn detects_offset_subscript_and_carried_dep() {
        let f = CodeFeatures::extract(
            "int a[100]; int main() {\n#pragma omp parallel for\nfor (int i=0;i<99;i++) a[i]=a[i+1];\n return 0; }",
        );
        assert!(f.has_ws_loop);
        assert!(f.has_offset_subscript);
        assert!(f.carried_dependence);
        assert!(f.carried_certain);
    }

    #[test]
    fn clean_loop_has_no_carried_dep() {
        let f = CodeFeatures::extract(
            "int a[100]; int main() {\n#pragma omp parallel for\nfor (int i=0;i<100;i++) a[i]=a[i]*2;\n return 0; }",
        );
        assert!(!f.carried_dependence);
    }

    #[test]
    fn suspicion_orders_sensibly() {
        let racy = CodeFeatures::extract(
            "int a[100]; int main() {\n#pragma omp parallel for\nfor (int i=0;i<99;i++) a[i]=a[i+1];\n return 0; }",
        );
        let clean = CodeFeatures::extract(
            "int main() { int s=0;\n#pragma omp parallel for reduction(+: s)\nfor (int i=0;i<100;i++) s += i;\n return 0; }",
        );
        assert!(racy.race_suspicion(0.8) > clean.race_suspicion(0.8));
        // Depth sharpens the judgement.
        assert!(racy.race_suspicion(0.8) >= racy.race_suspicion(0.2));
    }

    #[test]
    fn serial_code_low_suspicion() {
        let f = CodeFeatures::extract("int main() { int x = 1; return x; }");
        assert!(f.race_suspicion(0.5) < 0.1);
    }

    #[test]
    fn vector_has_declared_dim() {
        let f = CodeFeatures::extract("int main() { return 0; }");
        assert_eq!(f.to_vector().len(), CodeFeatures::DIM);
    }

    #[test]
    fn unparseable_code_degrades_gracefully() {
        let f = CodeFeatures::extract("this is not C at all {{{");
        assert_eq!(f.directives, 0);
        assert!(f.tokens > 0);
    }
}
