//! Parallel-access event collection.
//!
//! Walks a translation unit and produces, for every memory access that
//! occurs inside a parallelism-creating construct, an [`Event`] carrying
//! the full synchronization context the detector needs: barrier segment,
//! execution multiplicity (replicated / master / single / section /
//! task / worksharing-loop iteration), mutual-exclusion protections
//! (critical names, atomics, runtime locks, ordered regions), and the
//! data-sharing attributes that privatize variables.

use depend::access::{accesses_of_expr, Access};
use depend::affine::Affine;
use depend::dtest::LoopBounds;
use depend::loopdep::loop_bounds;
use minic::ast::*;
use minic::pragma::*;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeSet, HashSet};

/// Worksharing-loop context attached to events inside `omp (parallel) for`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WsCtx {
    /// Construct instance id (unique per directive occurrence).
    pub construct: usize,
    /// Induction variable (of the associated loop).
    pub var: Option<String>,
    /// Induction variables of `collapse(n)` nested loops (excluding the
    /// outer one); iterations across these also map to different threads.
    pub collapse_vars: Vec<String>,
    /// Normalized loop bounds.
    pub bounds: LoopBounds,
    /// Whether the loop directive carries an `ordered` clause.
    pub ordered: bool,
    /// Whether this is a SIMD-only loop (vector lanes, not threads).
    pub simd_only: bool,
    /// `safelen(n)` when present on a simd loop.
    pub safelen: Option<u32>,
    /// Schedule kind, when specified.
    pub schedule: Option<ScheduleKind>,
}

/// Execution multiplicity of the code containing an access.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ExecCtx {
    /// Plain parallel-region code: every thread executes it.
    Replicated,
    /// `omp master` — always the master thread.
    Master,
    /// `omp single` — exactly one (unspecified) thread; id is the
    /// construct instance.
    Single(usize),
    /// `omp section` — (sections-construct id, section index).
    Section(usize, usize),
    /// `omp task` — task instance id, plus whether the construct sits
    /// lexically inside a loop (one directive, many task instances).
    Task(usize, bool),
    /// Inside a worksharing (or simd) loop.
    WsLoop(WsCtx),
}

/// One access event inside a parallel context.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Event {
    /// The underlying access.
    pub access: Access,
    /// Parallel-region instance id.
    pub region: usize,
    /// Barrier segment within the region (events in different segments
    /// are ordered by a barrier and cannot race).
    pub segment: u32,
    /// Execution multiplicity.
    pub exec: ExecCtx,
    /// Active mutual-exclusion keys (`critical:<name>`, `atomic`,
    /// `lock:<var>`, `ordered:<construct>`).
    pub protection: BTreeSet<String>,
}

/// Result of event collection over a unit.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Collected {
    /// All parallel access events.
    pub events: Vec<Event>,
    /// Number of parallel regions encountered.
    pub regions: usize,
}

/// Collect parallel access events for a whole unit (after inlining).
pub fn collect(unit: &TranslationUnit) -> Collected {
    let mut w = Walker::new(unit);
    if let Some(main) = unit.items.iter().find_map(|i| match i {
        Item::Func(f) if f.name == "main" => Some(f),
        _ => None,
    }) {
        w.walk_block(&main.body);
    } else {
        // No main: walk every function (library-style kernel).
        for item in &unit.items {
            if let Item::Func(f) = item {
                w.walk_block(&f.body);
            }
        }
    }
    Collected { events: w.events, regions: w.region_counter }
}

struct Walker {
    // Static context.
    threadprivate: HashSet<String>,
    // Dynamic context.
    scopes: Vec<HashSet<String>>, // privatized names per scope
    region: Option<usize>,
    region_counter: usize,
    construct_counter: usize,
    task_counter: usize,
    segment: u32,
    exec: ExecCtx,
    protection: BTreeSet<String>,
    loop_depth: u32,
    events: Vec<Event>,
}

impl Walker {
    fn new(unit: &TranslationUnit) -> Self {
        let mut threadprivate = HashSet::new();
        for item in &unit.items {
            if let Item::Pragma(d) = item {
                if let DirectiveKind::Threadprivate(vars) = &d.kind {
                    threadprivate.extend(vars.iter().cloned());
                }
            }
        }
        Walker {
            threadprivate,
            scopes: vec![HashSet::new()],
            region: None,
            region_counter: 0,
            construct_counter: 0,
            task_counter: 0,
            segment: 0,
            exec: ExecCtx::Replicated,
            protection: BTreeSet::new(),
            loop_depth: 0,
            events: Vec::new(),
        }
    }

    fn is_private(&self, name: &str) -> bool {
        self.threadprivate.contains(name)
            || self.scopes.iter().any(|s| s.contains(name))
    }

    fn privatize(&mut self, names: impl IntoIterator<Item = String>) {
        let top = self.scopes.last_mut().expect("scope stack never empty");
        top.extend(names);
    }

    fn push_scope(&mut self) {
        self.scopes.push(HashSet::new());
    }

    fn pop_scope(&mut self) {
        self.scopes.pop();
    }

    fn record_expr(&mut self, e: &Expr) {
        if self.region.is_none() {
            return;
        }
        // Lock API calls toggle protection and produce no accesses.
        if let Expr::Call { callee, args, .. } = e {
            match callee.as_str() {
                "omp_set_lock" | "omp_set_nest_lock" => {
                    if let Some(v) = args.first().and_then(lock_name) {
                        self.protection.insert(format!("lock:{v}"));
                    }
                    return;
                }
                "omp_unset_lock" | "omp_unset_nest_lock" => {
                    if let Some(v) = args.first().and_then(lock_name) {
                        self.protection.remove(&format!("lock:{v}"));
                    }
                    return;
                }
                "omp_init_lock" | "omp_destroy_lock" | "omp_init_nest_lock"
                | "omp_destroy_nest_lock" => return,
                _ => {}
            }
        }
        for access in accesses_of_expr(e) {
            self.record_access(access);
        }
    }

    fn record_access(&mut self, access: Access) {
        let Some(region) = self.region else { return };
        if self.is_private(&access.var) {
            return;
        }
        self.events.push(Event {
            access,
            region,
            segment: self.segment,
            exec: self.exec.clone(),
            protection: self.protection.clone(),
        });
    }

    fn walk_block(&mut self, b: &Block) {
        self.push_scope();
        for s in &b.stmts {
            self.walk_stmt(s);
        }
        self.pop_scope();
    }

    fn walk_stmt(&mut self, s: &Stmt) {
        match s {
            Stmt::Decl(d) => self.walk_decl(d),
            Stmt::Expr(e) => self.record_expr(e),
            Stmt::Empty(_) | Stmt::Break(_) | Stmt::Continue(_) => {}
            Stmt::Block(b) => self.walk_block(b),
            Stmt::If { cond, then, els, .. } => {
                self.record_expr(cond);
                self.walk_stmt(then);
                if let Some(e) = els {
                    self.walk_stmt(e);
                }
            }
            Stmt::For(f) => self.walk_seq_for(f),
            Stmt::While { cond, body, .. } => {
                self.record_expr(cond);
                self.walk_stmt(body);
            }
            Stmt::DoWhile { body, cond, .. } => {
                self.walk_stmt(body);
                self.record_expr(cond);
            }
            Stmt::Return(e, _) => {
                if let Some(e) = e {
                    self.record_expr(e);
                }
            }
            Stmt::Omp { dir, body, .. } => self.walk_directive(dir, body.as_deref()),
        }
    }

    fn walk_decl(&mut self, d: &Decl) {
        // Initializer expressions are evaluated (reads).
        for v in &d.vars {
            match &v.init {
                Some(Init::Expr(e)) => self.record_expr(e),
                Some(Init::List(es)) => {
                    for e in es {
                        self.record_expr(e);
                    }
                }
                None => {}
            }
        }
        // Inside a parallel region, block-scope locals are per-thread.
        if self.region.is_some() {
            self.privatize(d.vars.iter().map(|v| v.name.clone()));
        }
    }

    /// A sequential `for` inside (or outside) a parallel region.
    fn walk_seq_for(&mut self, f: &ForStmt) {
        self.push_scope();
        self.loop_depth += 1;
        match &f.init {
            ForInit::Empty => {}
            ForInit::Decl(d) => self.walk_decl(d),
            ForInit::Expr(e) => self.record_expr(e),
        }
        if let Some(c) = &f.cond {
            self.record_expr(c);
        }
        if let Some(st) = &f.step {
            self.record_expr(st);
        }
        self.walk_stmt(&f.body);
        self.loop_depth -= 1;
        self.pop_scope();
    }

    fn walk_directive(&mut self, dir: &Directive, body: Option<&Stmt>) {
        use DirectiveKind as DK;
        match &dir.kind {
            DK::Barrier => {
                self.segment += 1;
            }
            DK::Taskwait | DK::Taskgroup => {
                // Taskwait orders previously created tasks with what
                // follows (on this thread); model as a segment bump, which
                // is conservative for sibling threads but right for tasks.
                self.segment += 1;
                if let (DK::Taskgroup, Some(b)) = (&dir.kind, body) {
                    self.walk_stmt(b);
                    self.segment += 1;
                }
            }
            DK::Threadprivate(vars) => {
                self.threadprivate.extend(vars.iter().cloned());
            }
            DK::Flush(_) => {}
            DK::Parallel | DK::Target => {
                let Some(b) = body else { return };
                if dir.serial_by_clauses() {
                    self.walk_stmt(b);
                    return;
                }
                self.enter_region(dir, |w| {
                    w.walk_stmt(b);
                });
            }
            DK::ParallelFor | DK::ParallelForSimd | DK::TargetParallelFor => {
                let Some(b) = body else { return };
                if dir.serial_by_clauses() {
                    self.walk_stmt(b);
                    return;
                }
                let simd = matches!(dir.kind, DK::ParallelForSimd);
                self.enter_region(dir, |w| {
                    w.walk_ws_loop(dir, b, simd, false);
                });
                // Combined construct: implicit barrier at region end anyway.
            }
            DK::For | DK::ForSimd => {
                let Some(b) = body else { return };
                let simd = matches!(dir.kind, DK::ForSimd);
                self.apply_sharing_clauses(dir, |w| {
                    w.walk_ws_loop(dir, b, simd, false);
                });
                if !dir.has_nowait() {
                    self.segment += 1;
                }
            }
            DK::Simd => {
                let Some(b) = body else { return };
                // SIMD-only: vector lanes act as the "threads". Model as a
                // region so lane conflicts are detectable, per DRB labels.
                self.apply_sharing_clauses(dir, |w| {
                    if w.region.is_some() {
                        w.walk_ws_loop(dir, b, true, true);
                    } else {
                        w.enter_region(dir, |w2| {
                            w2.walk_ws_loop(dir, b, true, true);
                        });
                    }
                });
            }
            DK::Sections | DK::ParallelSections => {
                let Some(b) = body else { return };
                let creates = matches!(dir.kind, DK::ParallelSections);
                let go = |w: &mut Walker| {
                    w.construct_counter += 1;
                    let construct = w.construct_counter;
                    let outer = w.exec.clone();
                    // Each child `omp section` of the block runs once.
                    if let Stmt::Block(blk) = b {
                        let mut idx = 0usize;
                        w.push_scope();
                        for st in &blk.stmts {
                            if let Stmt::Omp { dir: d2, body: b2, .. } = st {
                                if d2.kind == DK::Section {
                                    w.exec = ExecCtx::Section(construct, idx);
                                    idx += 1;
                                    if let Some(b2) = b2 {
                                        w.walk_stmt(b2);
                                    }
                                    w.exec = outer.clone();
                                    continue;
                                }
                            }
                            // First statement group outside explicit
                            // `section` pragmas forms section 0; rare in
                            // practice, walk as section idx.
                            w.exec = ExecCtx::Section(construct, idx);
                            idx += 1;
                            w.walk_stmt(st);
                            w.exec = outer.clone();
                        }
                        w.pop_scope();
                    } else {
                        w.exec = ExecCtx::Section(construct, 0);
                        w.walk_stmt(b);
                        w.exec = outer;
                    }
                };
                if creates {
                    if dir.serial_by_clauses() {
                        self.walk_stmt(b);
                        return;
                    }
                    self.enter_region(dir, go);
                } else {
                    self.apply_sharing_clauses(dir, go);
                    if !dir.has_nowait() {
                        self.segment += 1;
                    }
                }
            }
            DK::Section => {
                // Orphaned `omp section` outside sections: treat as block.
                if let Some(b) = body {
                    self.walk_stmt(b);
                }
            }
            DK::Single => {
                let Some(b) = body else { return };
                self.construct_counter += 1;
                let construct = self.construct_counter;
                let outer = std::mem::replace(&mut self.exec, ExecCtx::Single(construct));
                self.apply_sharing_clauses(dir, |w| w.walk_stmt(b));
                self.exec = outer;
                if !dir.has_nowait() {
                    self.segment += 1;
                }
            }
            DK::Master => {
                let Some(b) = body else { return };
                let outer = std::mem::replace(&mut self.exec, ExecCtx::Master);
                self.walk_stmt(b);
                self.exec = outer;
                // No implicit barrier after master.
            }
            DK::Critical(name) => {
                let Some(b) = body else { return };
                let key = format!("critical:{}", name.as_deref().unwrap_or("<anon>"));
                let inserted = self.protection.insert(key.clone());
                self.walk_stmt(b);
                if inserted {
                    self.protection.remove(&key);
                }
            }
            DK::Atomic(kind) => {
                let Some(b) = body else { return };
                self.walk_atomic(*kind, b);
            }
            DK::Ordered => {
                let Some(b) = body else { return };
                // Protection key scoped to the enclosing loop construct.
                let key = match &self.exec {
                    ExecCtx::WsLoop(w) => format!("ordered:{}", w.construct),
                    _ => "ordered:<orphan>".to_string(),
                };
                let inserted = self.protection.insert(key.clone());
                self.walk_stmt(b);
                if inserted {
                    self.protection.remove(&key);
                }
            }
            DK::Task => {
                let Some(b) = body else { return };
                self.task_counter += 1;
                let id = self.task_counter;
                let replicated = self.loop_depth > 0;
                let outer =
                    std::mem::replace(&mut self.exec, ExecCtx::Task(id, replicated));
                // firstprivate/private clauses privatize inside the task.
                self.apply_sharing_clauses(dir, |w| w.walk_stmt(b));
                self.exec = outer;
            }
            DK::Other(_) => {
                if let Some(b) = body {
                    self.walk_stmt(b);
                }
            }
        }
    }

    /// Enter a parallelism-creating construct.
    fn enter_region(&mut self, dir: &Directive, f: impl FnOnce(&mut Self)) {
        let outer_region = self.region;
        let outer_segment = self.segment;
        let outer_exec = self.exec.clone();
        if outer_region.is_none() {
            self.region_counter += 1;
            self.region = Some(self.region_counter);
            self.segment = 0;
            self.exec = ExecCtx::Replicated;
        }
        self.apply_sharing_clauses(dir, f);
        if outer_region.is_none() {
            self.region = outer_region;
            self.segment = outer_segment;
            self.exec = outer_exec;
        }
    }

    /// Push a scope holding the directive's privatized/reduction names.
    fn apply_sharing_clauses(&mut self, dir: &Directive, f: impl FnOnce(&mut Self)) {
        self.push_scope();
        self.privatize(dir.privatized().iter().map(|s| s.to_string()));
        // Reduction variables get per-thread copies combined at the end:
        // accesses to them cannot race within the construct.
        self.privatize(dir.reductions().iter().map(|s| s.to_string()));
        f(self);
        self.pop_scope();
    }

    /// Walk the loop associated with a worksharing/simd directive.
    fn walk_ws_loop(&mut self, dir: &Directive, body: &Stmt, simd: bool, simd_only: bool) {
        let Some(fs) = as_for(body) else {
            // Non-loop body after a loop directive: walk it plainly.
            self.walk_stmt(body);
            return;
        };
        self.construct_counter += 1;
        let construct = self.construct_counter;
        let bounds = loop_bounds(fs);
        let var = fs.induction_var().map(str::to_string);
        let safelen = dir.clauses.iter().find_map(|c| match c {
            Clause::Safelen(n) => Some(*n),
            _ => None,
        });
        self.push_scope();
        // The associated loop's induction variable is implicitly private,
        // as are those of `collapse(n)` nested loops.
        if let Some(v) = &var {
            self.privatize([v.clone()]);
        }
        let mut collapse_vars = Vec::new();
        let mut inner: &ForStmt = fs;
        for _ in 1..dir.collapse() {
            if let Some(nf) = as_for(&inner.body) {
                if let Some(v) = nf.induction_var() {
                    self.privatize([v.to_string()]);
                    collapse_vars.push(v.to_string());
                }
                inner = nf;
            }
        }
        let ws = WsCtx {
            construct,
            var: var.clone(),
            collapse_vars,
            bounds,
            ordered: dir.clauses.iter().any(|c| matches!(c, Clause::OrderedClause)),
            simd_only,
            safelen,
            schedule: dir.schedule().map(|(k, _)| *k),
        };
        let _ = simd;

        // Header expressions execute per thread; the condition/step read
        // shared bound variables but those are reads of loop-invariants.
        match &fs.init {
            ForInit::Empty => {}
            ForInit::Decl(d) => self.walk_decl(d),
            ForInit::Expr(e) => self.record_expr(e),
        }
        if let Some(c) = &fs.cond {
            self.record_expr(c);
        }
        if let Some(st) = &fs.step {
            self.record_expr(st);
        }

        let outer = std::mem::replace(&mut self.exec, ExecCtx::WsLoop(ws));
        // Walk the collapsed-loop body (innermost body under collapse).
        let body_to_walk: &Stmt = if dir.collapse() > 1 { &inner.body } else { &fs.body };
        self.walk_stmt(body_to_walk);
        self.exec = outer;
        self.pop_scope();
    }

    /// Atomic statement: the accesses to the atomic target get the
    /// `atomic` protection; all other accesses in the statement do not.
    fn walk_atomic(&mut self, kind: AtomicKind, body: &Stmt) {
        let target = atomic_target(kind, body);
        let before = self.events.len();
        self.walk_stmt(body);
        if let Some(t) = target {
            for ev in &mut self.events[before..] {
                if ev.access.var == t {
                    ev.protection.insert("atomic".to_string());
                }
            }
        }
    }
}

/// Extract the lock variable name from a `&lck`-style argument.
fn lock_name(e: &Expr) -> Option<String> {
    e.root_var().map(str::to_string)
}

/// Convenience: does an access have a constant-only subscript vector?
pub fn constant_subscripts(a: &Access) -> bool {
    a.subscripts.iter().all(Affine::is_constant)
}

#[cfg(test)]
mod tests {
    use super::*;
    use depend::access::AccessKind;
    use minic::parse;

    fn events(src: &str) -> Vec<Event> {
        collect(&parse(src).unwrap()).events
    }

    #[test]
    fn no_events_outside_parallel() {
        let e = events("int x; int main() { x = 1; return 0; }");
        assert!(e.is_empty());
    }

    #[test]
    fn replicated_write_collected() {
        let e = events(
            "int x; int main() {\n#pragma omp parallel\n{ x = 1; }\n return 0; }",
        );
        assert_eq!(e.len(), 1);
        assert_eq!(e[0].exec, ExecCtx::Replicated);
        assert_eq!(e[0].access.kind, AccessKind::Write);
    }

    #[test]
    fn private_clause_filters_events() {
        let e = events(
            "int i; int main() {\n#pragma omp parallel private(i)\n{ i = 1; }\n return 0; }",
        );
        assert!(e.is_empty());
    }

    #[test]
    fn locals_inside_region_are_private() {
        let e = events(
            "int main() {\n#pragma omp parallel\n{ int t; t = 1; }\n return 0; }",
        );
        assert!(e.is_empty());
    }

    #[test]
    fn induction_var_private_in_ws_loop() {
        let e = events(
            "int a[100]; int main() { int i;\n#pragma omp parallel for\nfor (i=0;i<100;i++) a[i] = i;\n return 0; }",
        );
        assert!(e.iter().all(|ev| ev.access.var != "i"), "{e:#?}");
        assert!(e.iter().any(|ev| ev.access.var == "a"));
    }

    #[test]
    fn critical_protection_key() {
        let e = events(
            "int x; int main() {\n#pragma omp parallel\n{\n#pragma omp critical\n{ x = x + 1; } }\n return 0; }",
        );
        assert!(!e.is_empty());
        assert!(e.iter().all(|ev| ev.protection.contains("critical:<anon>")));
    }

    #[test]
    fn named_critical_distinct() {
        let e = events(
            "int x; int main() {\n#pragma omp parallel\n{\n#pragma omp critical (A)\n x = 1;\n#pragma omp critical (B)\n x = 2; }\n return 0; }",
        );
        let keys: Vec<_> = e.iter().map(|ev| ev.protection.iter().next().unwrap().clone()).collect();
        assert!(keys.contains(&"critical:A".to_string()));
        assert!(keys.contains(&"critical:B".to_string()));
    }

    #[test]
    fn atomic_protects_only_target() {
        let e = events(
            "int x, y; int main() {\n#pragma omp parallel\n{\n#pragma omp atomic\n x += y; }\n return 0; }",
        );
        let xw = e.iter().find(|ev| ev.access.var == "x").unwrap();
        assert!(xw.protection.contains("atomic"));
        let yr = e.iter().find(|ev| ev.access.var == "y").unwrap();
        assert!(!yr.protection.contains("atomic"));
    }

    #[test]
    fn barrier_bumps_segment() {
        let e = events(
            "int x; int main() {\n#pragma omp parallel\n{ x = 1;\n#pragma omp barrier\n x = 2; }\n return 0; }",
        );
        assert_eq!(e[0].segment, 0);
        assert_eq!(e[1].segment, 1);
    }

    #[test]
    fn ws_loop_implicit_barrier_separates() {
        let e = events(
            "int a[10]; int b[10]; int main() {\n#pragma omp parallel\n{\n#pragma omp for\nfor (int i=0;i<10;i++) a[i]=1;\n#pragma omp for\nfor (int j=0;j<10;j++) b[j]=a[j];\n}\n return 0; }",
        );
        let a_write = e.iter().find(|ev| ev.access.var == "a" && ev.access.kind == AccessKind::Write).unwrap();
        let a_read = e.iter().find(|ev| ev.access.var == "a" && ev.access.kind == AccessKind::Read).unwrap();
        assert_ne!(a_write.segment, a_read.segment);
    }

    #[test]
    fn nowait_keeps_segment() {
        let e = events(
            "int a[10]; int b[10]; int main() {\n#pragma omp parallel\n{\n#pragma omp for nowait\nfor (int i=0;i<10;i++) a[i]=1;\n#pragma omp for\nfor (int j=0;j<10;j++) b[j]=a[j];\n}\n return 0; }",
        );
        let a_write = e.iter().find(|ev| ev.access.var == "a" && ev.access.kind == AccessKind::Write).unwrap();
        let a_read = e.iter().find(|ev| ev.access.var == "a" && ev.access.kind == AccessKind::Read).unwrap();
        assert_eq!(a_write.segment, a_read.segment);
    }

    #[test]
    fn sections_get_distinct_ids() {
        let e = events(
            "int x; int main() {\n#pragma omp parallel sections\n{\n#pragma omp section\n x = 1;\n#pragma omp section\n x = 2;\n}\n return 0; }",
        );
        assert_eq!(e.len(), 2);
        let (ExecCtx::Section(c1, s1), ExecCtx::Section(c2, s2)) = (&e[0].exec, &e[1].exec)
        else {
            panic!("{e:#?}")
        };
        assert_eq!(c1, c2);
        assert_ne!(s1, s2);
    }

    #[test]
    fn tasks_get_distinct_ids() {
        let e = events(
            "int x; int main() {\n#pragma omp parallel\n{\n#pragma omp single\n{\n#pragma omp task\n x = 1;\n#pragma omp task\n x = 2;\n}\n}\n return 0; }",
        );
        let tasks: Vec<_> = e
            .iter()
            .filter_map(|ev| match ev.exec {
                ExecCtx::Task(t, _) => Some(t),
                _ => None,
            })
            .collect();
        assert_eq!(tasks.len(), 2);
        assert_ne!(tasks[0], tasks[1]);
    }

    #[test]
    fn lock_protection_tracks_set_unset() {
        let e = events(
            "int x; long lck; int main() {\n#pragma omp parallel\n{ omp_set_lock(&lck); x = x + 1; omp_unset_lock(&lck); x = 5; }\n return 0; }",
        );
        let protected: Vec<_> = e.iter().filter(|ev| ev.protection.contains("lock:lck")).collect();
        let unprotected: Vec<_> =
            e.iter().filter(|ev| !ev.protection.contains("lock:lck")).collect();
        assert_eq!(protected.len(), 2); // read + write of x under the lock
        assert_eq!(unprotected.len(), 1); // the final write
    }

    #[test]
    fn num_threads_one_is_serial() {
        let e = events(
            "int x; int main() {\n#pragma omp parallel num_threads(1)\n{ x = 1; }\n return 0; }",
        );
        assert!(e.is_empty());
    }

    #[test]
    fn threadprivate_filtered() {
        let e = events(
            "int counter;\n#pragma omp threadprivate(counter)\nint main() {\n#pragma omp parallel\n{ counter = counter + 1; }\n return 0; }",
        );
        assert!(e.is_empty());
    }

    #[test]
    fn reduction_vars_filtered() {
        let e = events(
            "int main() { int sum = 0; int a[10];\n#pragma omp parallel for reduction(+: sum)\nfor (int i=0;i<10;i++) sum += a[i];\n return 0; }",
        );
        assert!(e.iter().all(|ev| ev.access.var != "sum"), "{e:#?}");
    }

    #[test]
    fn collapse_privatizes_nested_vars() {
        let e = events(
            "double b[10][10]; int main() { int i, j;\n#pragma omp parallel for collapse(2)\nfor (i=0;i<10;i++) for (j=0;j<10;j++) b[i][j] = 1.0;\n return 0; }",
        );
        assert!(e.iter().all(|ev| ev.access.var == "b"), "{e:#?}");
    }

    #[test]
    fn master_context() {
        let e = events(
            "int x; int main() {\n#pragma omp parallel\n{\n#pragma omp master\n x = 1;\n}\n return 0; }",
        );
        assert_eq!(e[0].exec, ExecCtx::Master);
    }

    #[test]
    fn simd_loop_forms_region() {
        let e = events(
            "int a[100]; int main() {\n#pragma omp simd\nfor (int i=0;i<99;i++) a[i] = a[i+1];\n return 0; }",
        );
        assert!(!e.is_empty());
        let ExecCtx::WsLoop(w) = &e[0].exec else { panic!() };
        assert!(w.simd_only);
    }
}
