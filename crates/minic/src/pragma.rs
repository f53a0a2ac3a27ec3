//! OpenMP directive and clause model.
//!
//! DataRaceBench kernels exercise a broad slice of OpenMP 4.5; this
//! module models every construct the corpus generator emits. Directive
//! *parsing* lives in [`crate::parser`] (it reuses the expression
//! parser for clause arguments); this module owns the data model and
//! its semantic helpers.

use crate::ast::{Expr, ForStmt, Stmt};
use crate::span::Span;
use serde::{Deserialize, Serialize};

/// A parsed `#pragma omp …` (or `#pragma …` of another family).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Directive {
    /// Which construct this is.
    pub kind: DirectiveKind,
    /// Clauses in source order.
    pub clauses: Vec<Clause>,
    /// Span of the pragma line.
    pub span: Span,
}

/// OpenMP construct kinds modelled by the subset.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum DirectiveKind {
    /// `omp parallel`
    Parallel,
    /// `omp for`
    For,
    /// `omp parallel for`
    ParallelFor,
    /// `omp simd`
    Simd,
    /// `omp for simd`
    ForSimd,
    /// `omp parallel for simd`
    ParallelForSimd,
    /// `omp sections`
    Sections,
    /// `omp parallel sections`
    ParallelSections,
    /// `omp section`
    Section,
    /// `omp single`
    Single,
    /// `omp master`
    Master,
    /// `omp critical [(name)]`
    Critical(Option<String>),
    /// `omp atomic [read|write|update|capture]`
    Atomic(AtomicKind),
    /// `omp barrier`
    Barrier,
    /// `omp task`
    Task,
    /// `omp taskwait`
    Taskwait,
    /// `omp taskgroup`
    Taskgroup,
    /// `omp ordered`
    Ordered,
    /// `omp threadprivate(list)`
    Threadprivate(Vec<String>),
    /// `omp flush [(list)]`
    Flush(Vec<String>),
    /// `omp target …` (treated as a parallel-capable region)
    Target,
    /// `omp teams distribute parallel for`-style combined target loop.
    TargetParallelFor,
    /// Any non-OpenMP pragma, kept verbatim.
    Other(String),
}

impl DirectiveKind {
    /// Whether the construct forks a thread team.
    pub fn creates_parallelism(&self) -> bool {
        matches!(
            self,
            DirectiveKind::Parallel
                | DirectiveKind::ParallelFor
                | DirectiveKind::ParallelForSimd
                | DirectiveKind::ParallelSections
                | DirectiveKind::Target
                | DirectiveKind::TargetParallelFor
        )
    }

    /// Whether the construct is a worksharing loop (binds iterations to
    /// threads of the enclosing/created team).
    pub fn is_worksharing_loop(&self) -> bool {
        matches!(
            self,
            DirectiveKind::For
                | DirectiveKind::ForSimd
                | DirectiveKind::ParallelFor
                | DirectiveKind::ParallelForSimd
                | DirectiveKind::TargetParallelFor
        )
    }

    /// Whether the construct requires a following statement.
    pub fn takes_body(&self) -> bool {
        !matches!(
            self,
            DirectiveKind::Barrier
                | DirectiveKind::Taskwait
                | DirectiveKind::Threadprivate(_)
                | DirectiveKind::Flush(_)
        )
    }

    /// Whether the construct provides mutual exclusion for its body.
    pub fn is_mutex(&self) -> bool {
        matches!(self, DirectiveKind::Critical(_) | DirectiveKind::Atomic(_))
    }

    /// Canonical directive-name text (without clauses).
    pub fn name(&self) -> String {
        match self {
            DirectiveKind::Parallel => "parallel".into(),
            DirectiveKind::For => "for".into(),
            DirectiveKind::ParallelFor => "parallel for".into(),
            DirectiveKind::Simd => "simd".into(),
            DirectiveKind::ForSimd => "for simd".into(),
            DirectiveKind::ParallelForSimd => "parallel for simd".into(),
            DirectiveKind::Sections => "sections".into(),
            DirectiveKind::ParallelSections => "parallel sections".into(),
            DirectiveKind::Section => "section".into(),
            DirectiveKind::Single => "single".into(),
            DirectiveKind::Master => "master".into(),
            DirectiveKind::Critical(None) => "critical".into(),
            DirectiveKind::Critical(Some(n)) => format!("critical ({n})"),
            DirectiveKind::Atomic(AtomicKind::Update) => "atomic".into(),
            DirectiveKind::Atomic(k) => format!("atomic {}", k.as_str()),
            DirectiveKind::Barrier => "barrier".into(),
            DirectiveKind::Task => "task".into(),
            DirectiveKind::Taskwait => "taskwait".into(),
            DirectiveKind::Taskgroup => "taskgroup".into(),
            DirectiveKind::Ordered => "ordered".into(),
            DirectiveKind::Threadprivate(vs) => format!("threadprivate({})", vs.join(", ")),
            DirectiveKind::Flush(vs) if vs.is_empty() => "flush".into(),
            DirectiveKind::Flush(vs) => format!("flush({})", vs.join(", ")),
            DirectiveKind::Target => "target".into(),
            DirectiveKind::TargetParallelFor => {
                "target teams distribute parallel for".into()
            }
            DirectiveKind::Other(t) => t.clone(),
        }
    }
}

/// `omp atomic` flavours.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
#[allow(missing_docs)]
pub enum AtomicKind {
    Read,
    Write,
    Update,
    Capture,
}

impl AtomicKind {
    /// OpenMP spelling.
    pub fn as_str(&self) -> &'static str {
        match self {
            AtomicKind::Read => "read",
            AtomicKind::Write => "write",
            AtomicKind::Update => "update",
            AtomicKind::Capture => "capture",
        }
    }
}

/// Reduction operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
#[allow(missing_docs)]
pub enum ReductionOp {
    Add,
    Sub,
    Mul,
    Min,
    Max,
    BitAnd,
    BitOr,
    BitXor,
    LogAnd,
    LogOr,
}

impl ReductionOp {
    /// OpenMP spelling of the operator.
    pub fn as_str(&self) -> &'static str {
        match self {
            ReductionOp::Add => "+",
            ReductionOp::Sub => "-",
            ReductionOp::Mul => "*",
            ReductionOp::Min => "min",
            ReductionOp::Max => "max",
            ReductionOp::BitAnd => "&",
            ReductionOp::BitOr => "|",
            ReductionOp::BitXor => "^",
            ReductionOp::LogAnd => "&&",
            ReductionOp::LogOr => "||",
        }
    }

    /// Parse an OpenMP reduction-operator spelling.
    // Option-returning lookup, deliberately not the fallible FromStr.
    #[allow(clippy::should_implement_trait)]
    pub fn from_str(s: &str) -> Option<Self> {
        Some(match s {
            "+" => ReductionOp::Add,
            "-" => ReductionOp::Sub,
            "*" => ReductionOp::Mul,
            "min" => ReductionOp::Min,
            "max" => ReductionOp::Max,
            "&" => ReductionOp::BitAnd,
            "|" => ReductionOp::BitOr,
            "^" => ReductionOp::BitXor,
            "&&" => ReductionOp::LogAnd,
            "||" => ReductionOp::LogOr,
            _ => return None,
        })
    }
}

/// `schedule(...)` kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
#[allow(missing_docs)]
pub enum ScheduleKind {
    Static,
    Dynamic,
    Guided,
    Auto,
    Runtime,
}

impl ScheduleKind {
    /// OpenMP spelling.
    pub fn as_str(&self) -> &'static str {
        match self {
            ScheduleKind::Static => "static",
            ScheduleKind::Dynamic => "dynamic",
            ScheduleKind::Guided => "guided",
            ScheduleKind::Auto => "auto",
            ScheduleKind::Runtime => "runtime",
        }
    }
}

/// `depend(...)` dependence types for tasks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
#[allow(missing_docs)]
pub enum DependType {
    In,
    Out,
    Inout,
}

impl DependType {
    /// OpenMP spelling.
    pub fn as_str(&self) -> &'static str {
        match self {
            DependType::In => "in",
            DependType::Out => "out",
            DependType::Inout => "inout",
        }
    }
}

/// `default(...)` data-sharing kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
#[allow(missing_docs)]
pub enum DefaultKind {
    Shared,
    None,
}

/// An OpenMP clause.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Clause {
    /// `private(list)`
    Private(Vec<String>),
    /// `firstprivate(list)`
    Firstprivate(Vec<String>),
    /// `lastprivate(list)`
    Lastprivate(Vec<String>),
    /// `shared(list)`
    Shared(Vec<String>),
    /// `reduction(op: list)`
    Reduction(ReductionOp, Vec<String>),
    /// `schedule(kind[, chunk])`
    Schedule(ScheduleKind, Option<Expr>),
    /// `num_threads(expr)`
    NumThreads(Expr),
    /// `if(expr)`
    If(Expr),
    /// `collapse(n)`
    Collapse(u32),
    /// `nowait`
    Nowait,
    /// `ordered` (clause form on a loop directive)
    OrderedClause,
    /// `default(shared|none)`
    Default(DefaultKind),
    /// `safelen(n)`
    Safelen(u32),
    /// `linear(list)`
    Linear(Vec<String>),
    /// `depend(type: list)` — items keep their textual form (`a[0]`).
    Depend(DependType, Vec<String>),
    /// `map(...)`, `device(...)`, and other target clauses kept textually.
    Verbatim(String),
}

impl Clause {
    /// Variable names this clause privatizes for the region.
    pub fn privatized_vars(&self) -> &[String] {
        match self {
            Clause::Private(v) | Clause::Firstprivate(v) | Clause::Lastprivate(v) => v,
            Clause::Linear(v) => v,
            _ => &[],
        }
    }

    /// Variable names this clause reduces.
    pub fn reduction_vars(&self) -> &[String] {
        match self {
            Clause::Reduction(_, v) => v,
            _ => &[],
        }
    }
}

impl Directive {
    /// All names privatized by this directive's clauses (private,
    /// firstprivate, lastprivate, linear).
    pub fn privatized(&self) -> Vec<&str> {
        self.clauses
            .iter()
            .flat_map(|c| c.privatized_vars().iter().map(String::as_str))
            .collect()
    }

    /// All reduction variable names.
    pub fn reductions(&self) -> Vec<&str> {
        self.clauses
            .iter()
            .flat_map(|c| c.reduction_vars().iter().map(String::as_str))
            .collect()
    }

    /// All explicitly shared names.
    pub fn shared(&self) -> Vec<&str> {
        self.clauses
            .iter()
            .flat_map(|c| match c {
                Clause::Shared(v) => v.as_slice(),
                _ => &[],
            })
            .map(String::as_str)
            .collect()
    }

    /// Whether the directive carries a `nowait` clause.
    pub fn has_nowait(&self) -> bool {
        self.clauses.iter().any(|c| matches!(c, Clause::Nowait))
    }

    /// The schedule clause, if any.
    pub fn schedule(&self) -> Option<(&ScheduleKind, Option<&Expr>)> {
        self.clauses.iter().find_map(|c| match c {
            Clause::Schedule(k, chunk) => Some((k, chunk.as_ref())),
            _ => None,
        })
    }

    /// The `default(...)` clause kind, if any.
    pub fn default_kind(&self) -> Option<DefaultKind> {
        self.clauses.iter().find_map(|c| match c {
            Clause::Default(k) => Some(*k),
            _ => None,
        })
    }

    /// The `num_threads` expression, if any.
    pub fn num_threads(&self) -> Option<&Expr> {
        self.clauses.iter().find_map(|c| match c {
            Clause::NumThreads(e) => Some(e),
            _ => None,
        })
    }

    /// Whether a clause forces serial execution: `num_threads(1)` or
    /// `if(0)`.
    pub fn serial_by_clauses(&self) -> bool {
        self.clauses.iter().any(|c| match c {
            Clause::NumThreads(e) => e.const_int() == Some(1),
            Clause::If(e) => e.const_int() == Some(0),
            _ => false,
        })
    }

    /// The `collapse(n)` depth, defaulting to 1.
    pub fn collapse(&self) -> u32 {
        self.clauses
            .iter()
            .find_map(|c| match c {
                Clause::Collapse(n) => Some(*n),
                _ => None,
            })
            .unwrap_or(1)
    }
}

/// The variable an `omp atomic` of flavour `kind` protects, read from
/// its body (one expression statement, possibly in a one-statement
/// block): the assigned lvalue's root, or for `read` and capture forms
/// (`v = x++`, `v = x += k`) the root of the right-hand side.
pub fn atomic_target(kind: AtomicKind, body: &Stmt) -> Option<&str> {
    let e = match body {
        Stmt::Expr(e) => e,
        Stmt::Block(b) if b.stmts.len() == 1 => match &b.stmts[0] {
            Stmt::Expr(e) => e,
            _ => return None,
        },
        _ => return None,
    };
    match (kind, e) {
        (AtomicKind::Read, Expr::Assign { rhs, .. }) => rhs.root_var(),
        // Capture `v = x++` / `v = x += k`: the atomic location is x.
        (AtomicKind::Capture, Expr::Assign { rhs, .. })
            if matches!(rhs.as_ref(), Expr::IncDec { .. } | Expr::Assign { .. }) =>
        {
            rhs.root_var()
        }
        (_, Expr::Assign { lhs, .. }) => lhs.root_var(),
        (_, Expr::IncDec { expr, .. }) => expr.root_var(),
        _ => None,
    }
}

/// The loop a loop directive applies to: a `for` statement, possibly
/// wrapped in one-statement blocks.
pub fn as_for(s: &Stmt) -> Option<&ForStmt> {
    match s {
        Stmt::For(f) => Some(f),
        Stmt::Block(b) if b.stmts.len() == 1 => as_for(&b.stmts[0]),
        _ => None,
    }
}
