//! The OpenMP kernel interpreter (trace pass).
//!
//! Executes a `minic` unit under a simulated OpenMP runtime: threads of
//! a parallel region run one after another (a legal schedule),
//! worksharing iterations are distributed by the [`Scheduler`], and
//! every shared-memory access / synchronization operation is appended to
//! a [`Trace`] for the vector-clock analyzer.

use crate::sched::Scheduler;
use crate::trace::{SyncKey, Trace};
use crate::value::Value;
use minic::ast::*;
use minic::pragma::*;
use minic::printer::print_expr;
use std::collections::HashMap;

/// Interpreter configuration.
#[derive(Debug, Clone)]
pub struct Config {
    /// Simulated OpenMP thread count.
    pub threads: usize,
    /// Scheduler seed (vary to explore schedules).
    pub seed: u64,
    /// Execution step budget (guards infinite loops).
    pub fuel: u64,
}

impl Default for Config {
    fn default() -> Self {
        Config { threads: 4, seed: 1, fuel: 4_000_000 }
    }
}

/// Runtime failure.
#[derive(Debug, Clone, PartialEq)]
pub enum RtError {
    /// Out-of-bounds or wild address.
    BadAddress(String),
    /// Unknown variable or function.
    Unknown(String),
    /// Construct the interpreter does not model.
    Unsupported(String),
    /// Step budget exhausted (runaway loop).
    FuelExhausted,
    /// Integer division by zero.
    DivByZero,
    /// A user call nested deeper than [`MAX_CALL_DEPTH`].
    CallTooDeep,
    /// The run asked for more than [`MAX_HEAP_CELLS`] heap cells.
    HeapExhausted,
}

impl std::fmt::Display for RtError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RtError::BadAddress(s) => write!(f, "bad address: {s}"),
            RtError::Unknown(s) => write!(f, "unknown symbol: {s}"),
            RtError::Unsupported(s) => write!(f, "unsupported: {s}"),
            RtError::FuelExhausted => write!(f, "fuel exhausted"),
            RtError::DivByZero => write!(f, "division by zero"),
            RtError::CallTooDeep => write!(f, "call depth exceeds {MAX_CALL_DEPTH}"),
            RtError::HeapExhausted => write!(f, "heap exceeds {MAX_HEAP_CELLS} cells"),
        }
    }
}

impl std::error::Error for RtError {}

pub(crate) type RtResult<T> = Result<T, RtError>;

/// Upper bound on simulated team width; task agent ids start above it.
pub(crate) const MAX_TEAM: usize = 16;

/// Deepest nesting of user calls a run may make, counting each
/// enclosing directive statement as a level too (both engines recurse
/// through those); a call past it raises [`RtError::CallTooDeep`].
/// `return f(n - 1) + 1;` overflows a 2 MiB stack at 105 calls in a
/// debug build of the interpreter (the executor needs far less).
/// Corpus and generated kernels nest at most 2 calls.
pub const MAX_CALL_DEPTH: usize = 64;

/// Most heap cells (16-byte [`Value`]s) one run may allocate; asking for
/// more raises [`RtError::HeapExhausted`] before allocating. Corpus and
/// generated kernels use at most 4,897 cells.
pub const MAX_HEAP_CELLS: usize = 1 << 22;

/// Most iterations a worksharing loop (or collapsed nest) may
/// distribute; more raise [`RtError::FuelExhausted`].
pub(crate) const MAX_ITERATIONS: usize = 4_000_000;

/// Arguments a builtin reads positionally. A call passing fewer raises
/// [`RtError::Unsupported`] before any argument is evaluated, in both
/// engines.
pub(crate) fn builtin_arity(callee: &str) -> Option<usize> {
    Some(match callee {
        "omp_set_num_threads" | "omp_set_lock" | "omp_set_nest_lock" | "omp_unset_lock"
        | "omp_unset_nest_lock" | "omp_test_lock" | "malloc" | "free" | "fabs" | "fabsf"
        | "sqrt" | "sqrtf" | "sin" | "cos" | "exp" | "log" | "abs" | "exit" | "assert"
        | "srand" => 1,
        "calloc" | "pow" | "fmax" | "fmin" => 2,
        _ => return None,
    })
}

/// The error for a builtin call with too few arguments.
pub(crate) fn arity_error(callee: &str, need: usize, got: usize) -> RtError {
    RtError::Unsupported(format!("{callee}() takes {need} argument(s), got {got}"))
}

/// Cells `malloc(bytes)` asks for (one per 8 bytes).
pub(crate) fn malloc_cells(bytes: Value) -> usize {
    bytes.as_int().max(0) as usize / 8
}

/// Cells `calloc(n, size)` asks for; saturating, so a product past the
/// address space fails the heap budget instead of wrapping.
pub(crate) fn calloc_cells(n: Value, size: Value) -> usize {
    (n.as_int().max(0) as usize).saturating_mul(size.as_int().max(1) as usize) / 8
}

/// Cells an array declaration with these (already clamped) extents
/// needs; `None` when the product overflows.
pub(crate) fn array_cells(dims: impl IntoIterator<Item = usize>) -> Option<usize> {
    dims.into_iter().try_fold(1usize, |n, d| n.checked_mul(d))
}

/// A declaration extent as evaluated (at least 1).
pub(crate) fn extent(v: Value) -> usize {
    v.as_int().max(1) as usize
}

/// Append `count` zeroed cells (at least one) to `heap` under the
/// [`MAX_HEAP_CELLS`] budget; returns the first cell's address.
pub(crate) fn alloc_cells(heap: &mut Vec<Value>, count: usize) -> RtResult<usize> {
    let count = count.max(1);
    if count > MAX_HEAP_CELLS - heap.len() {
        return Err(RtError::HeapExhausted);
    }
    let addr = heap.len();
    heap.extend(std::iter::repeat_n(Value::ZERO, count));
    Ok(addr)
}

/// Statement-level control flow.
pub(crate) enum Flow {
    Normal,
    Break,
    Continue,
    Return(Value),
}

/// A variable binding: a heap range plus array shape.
#[derive(Debug, Clone)]
struct Binding {
    addr: usize,
    count: usize,
    dims: Vec<usize>,
}

impl Binding {
    fn is_array(&self) -> bool {
        self.count > 1 || !self.dims.is_empty()
    }
}

/// Outcome of interpreting a program.
#[derive(Debug)]
pub struct RunOutput {
    /// The event trace for the analyzer.
    pub trace: Trace,
    /// Values printed by `printf` (one entry per call, formatted crudely).
    pub printed: Vec<String>,
    /// `main`'s return value, if it returned one.
    pub exit: Option<i64>,
    /// Whether the [`Scheduler`] consulted its RNG during this run. When
    /// false (static/auto scheduling throughout), every seed produces
    /// exactly this trace, so seed sweeps can stop after the first run.
    pub schedule_sensitive: bool,
}

/// Interpret a unit, producing a trace.
pub fn run(unit: &TranslationUnit, cfg: &Config) -> RtResult<RunOutput> {
    let mut interp = Interp::new(unit, cfg)?;
    let exit = interp.run_main()?;
    Ok(interp.finish(exit, cfg))
}

/// [`run`], plus a post-run snapshot of every file-scope variable's
/// final heap contents, in declaration order (the same order
/// [`exec`](crate::exec) numbers global slots in). Variables a kernel
/// declares but [`Interp::new`] never binds (none today) snapshot as
/// empty. The repair certifier compares these snapshots across
/// original/patched runs; see [`obs`](crate::obs).
pub(crate) fn run_with_globals(
    unit: &TranslationUnit,
    cfg: &Config,
) -> RtResult<(RunOutput, Vec<Vec<Value>>)> {
    let mut interp = Interp::new(unit, cfg)?;
    let exit = interp.run_main()?;
    let globals = crate::obs::global_names(unit)
        .iter()
        .map(|name| match interp.frames[0][0].get(name.as_str()) {
            Some(b) => interp.heap[b.addr..b.addr + b.count].to_vec(),
            None => Vec::new(),
        })
        .collect();
    Ok((interp.finish(exit, cfg), globals))
}

struct Interp<'a> {
    funcs: HashMap<&'a str, &'a FuncDef>,
    /// Function names in order of first definition (library-mode order).
    func_order: Vec<&'a str>,
    /// Nesting depth of user calls and directive statements.
    depth: usize,
    cfg: Config,
    sched: Scheduler,
    heap: Vec<Value>,
    // frames[0] is the global frame; lookup: innermost frame scopes, then
    // globals.
    frames: Vec<Vec<HashMap<String, Binding>>>,
    trace: Trace,
    printed: Vec<String>,
    fuel: u64,

    // Parallel-execution state.
    in_region: bool,
    tid: usize,
    agent: usize,
    phase: u32,
    team: usize,
    max_team: usize,
    next_task_agent: usize,
    pending_tasks: Vec<usize>,
    atomic_target: Option<String>,
    suppress_events: bool,
    threadprivate: Vec<String>,
    // Cached per-construct decisions so every simulated thread of a team
    // sees the same answer: key = (pragma byte offset, per-thread
    // occurrence index).
    occ: HashMap<(u32, usize), usize>,
    iter_cache: HashMap<(u32, usize), Vec<usize>>,
    winner_cache: HashMap<(u32, usize), usize>,
    section_cache: HashMap<(u32, usize), Vec<usize>>,
    ordered_counter: HashMap<u32, usize>,
}

impl<'a> Interp<'a> {
    fn new(unit: &'a TranslationUnit, cfg: &Config) -> RtResult<Self> {
        let mut funcs = HashMap::new();
        let mut func_order = Vec::new();
        let mut threadprivate = Vec::new();
        for item in &unit.items {
            match item {
                Item::Func(f) => {
                    if funcs.insert(f.name.as_str(), f).is_none() {
                        func_order.push(f.name.as_str());
                    }
                }
                Item::Pragma(d) => {
                    if let DirectiveKind::Threadprivate(vars) = &d.kind {
                        threadprivate.extend(vars.iter().cloned());
                    }
                }
                Item::Global(_) => {}
            }
        }
        let mut me = Interp {
            funcs,
            func_order,
            depth: 0,
            cfg: cfg.clone(),
            sched: Scheduler::new(cfg.threads, cfg.seed),
            heap: vec![Value::ZERO], // address 0 reserved (null)
            frames: vec![vec![HashMap::new()]],
            trace: Trace::new(),
            printed: Vec::new(),
            fuel: cfg.fuel,
            in_region: false,
            tid: 0,
            agent: 0,
            phase: 0,
            team: 1,
            max_team: 1,
            next_task_agent: MAX_TEAM,
            pending_tasks: Vec::new(),
            atomic_target: None,
            suppress_events: false,
            threadprivate,
            occ: HashMap::new(),
            iter_cache: HashMap::new(),
            winner_cache: HashMap::new(),
            section_cache: HashMap::new(),
            ordered_counter: HashMap::new(),
        };
        // Globals.
        for item in &unit.items {
            if let Item::Global(d) = item {
                me.exec_decl(d, true)?;
            }
        }
        Ok(me)
    }

    // -------------------------------------------------------------
    // Infrastructure
    // -------------------------------------------------------------

    /// Package a completed run into the public [`RunOutput`].
    fn finish(self, exit: Option<i64>, cfg: &Config) -> RunOutput {
        let mut trace = self.trace;
        trace.threads = self.max_team.max(cfg.threads);
        RunOutput {
            trace,
            printed: self.printed,
            exit,
            schedule_sensitive: self.sched.seed_sensitive(),
        }
    }

    fn spend(&mut self) -> RtResult<()> {
        if self.fuel == 0 {
            return Err(RtError::FuelExhausted);
        }
        self.fuel -= 1;
        Ok(())
    }

    fn alloc(&mut self, count: usize) -> RtResult<usize> {
        alloc_cells(&mut self.heap, count)
    }

    fn cur_scope(&mut self) -> &mut HashMap<String, Binding> {
        self.frames.last_mut().unwrap().last_mut().unwrap()
    }

    fn push_scope(&mut self) {
        self.frames.last_mut().unwrap().push(HashMap::new());
    }

    fn pop_scope(&mut self) {
        self.frames.last_mut().unwrap().pop();
    }

    fn lookup(&self, name: &str) -> Option<&Binding> {
        let frame = self.frames.last().unwrap();
        for scope in frame.iter().rev() {
            if let Some(b) = scope.get(name) {
                return Some(b);
            }
        }
        // Globals (frame 0, scope 0) visible from every frame.
        self.frames[0].first().and_then(|g| g.get(name))
    }

    fn load(&self, addr: usize) -> RtResult<Value> {
        self.heap
            .get(addr)
            .copied()
            .ok_or_else(|| RtError::BadAddress(format!("load @{addr}")))
    }

    fn store(&mut self, addr: usize, v: Value) -> RtResult<()> {
        match self.heap.get_mut(addr) {
            Some(slot) => {
                *slot = v;
                Ok(())
            }
            None => Err(RtError::BadAddress(format!("store @{addr}"))),
        }
    }

    /// Record a memory access for lvalue expression `e`. The site is
    /// interned by `(span, direction)` — the root-variable name and the
    /// printed source text are only materialized on the first occurrence,
    /// so the steady-state cost per access is one hash lookup and a flat
    /// push, with zero allocation.
    fn emit_access(&mut self, addr: usize, e: &Expr, write: bool) {
        if self.suppress_events || !self.in_region {
            return;
        }
        let sid = self.trace.intern_site(e.span(), write, || {
            (e.root_var().unwrap_or("<ptr>").to_string(), print_expr(e))
        });
        let atomic = self
            .atomic_target
            .as_deref()
            .is_some_and(|t| t == self.trace.site_var_name(sid));
        self.trace.push_access_flags(self.agent, self.phase, addr, sid, write, atomic);
    }

    fn emit_acquire(&mut self, key: &SyncKey) {
        if !self.in_region {
            return;
        }
        let sid = self.trace.intern_sync(key);
        self.trace.push_acquire(self.agent, self.phase, sid);
    }

    fn emit_release(&mut self, key: &SyncKey) {
        if !self.in_region {
            return;
        }
        let sid = self.trace.intern_sync(key);
        self.trace.push_release(self.agent, self.phase, sid);
    }

    fn emit_task_wait(&mut self, children: &[usize]) {
        if !self.in_region {
            return;
        }
        self.trace.push_task_wait(self.agent, self.phase, children);
    }

    // -------------------------------------------------------------
    // Declarations
    // -------------------------------------------------------------

    fn exec_decl(&mut self, d: &Decl, global: bool) -> RtResult<()> {
        for v in &d.vars {
            let mut dims = Vec::new();
            for dim in &v.ty.dims {
                dims.push(match dim {
                    Some(e) => extent(self.eval(e)?),
                    None => 1,
                });
            }
            let count = array_cells(dims.iter().copied()).ok_or(RtError::HeapExhausted)?;
            let addr = self.alloc(count)?;
            let binding = Binding { addr, count, dims };
            match &v.init {
                Some(Init::Expr(e)) => {
                    let val = self.eval(e)?;
                    let val = coerce(val, d.ty.base, v.ty.pointers > 0);
                    self.store(addr, val)?;
                    // A local initialization writes the fresh cell — it can
                    // never race (the cell is thread-new), so no event.
                }
                Some(Init::List(es)) => {
                    for (i, e) in es.iter().enumerate().take(count) {
                        let val = self.eval(e)?;
                        self.store(addr + i, coerce(val, d.ty.base, false))?;
                    }
                }
                None => {}
            }
            if global {
                self.frames[0][0].insert(v.name.clone(), binding);
            } else {
                self.cur_scope().insert(v.name.clone(), binding);
            }
        }
        Ok(())
    }

    // -------------------------------------------------------------
    // Expressions
    // -------------------------------------------------------------

    /// Resolve an lvalue to a heap address, emitting subscript reads.
    fn resolve_lvalue(&mut self, e: &Expr) -> RtResult<usize> {
        match e {
            Expr::Ident { name, .. } => {
                let b = self
                    .lookup(name)
                    .ok_or_else(|| RtError::Unknown(name.clone()))?;
                Ok(b.addr)
            }
            Expr::Index { .. } => {
                // Unwind the index chain.
                let mut idxs = Vec::new();
                let mut cur = e;
                while let Expr::Index { base, index, .. } = cur {
                    idxs.push(index.as_ref());
                    cur = base;
                }
                idxs.reverse();
                match cur {
                    Expr::Ident { name, span } => {
                        let b = self
                            .lookup(name)
                            .cloned()
                            .ok_or_else(|| RtError::Unknown(name.clone()))?;
                        if b.is_array() {
                            let flat = self.flat_index(&b, &idxs)?;
                            if flat >= b.count {
                                return Err(RtError::BadAddress(format!(
                                    "{name}[{flat}] out of bounds ({} elements) at {}",
                                    b.count, span.pos
                                )));
                            }
                            Ok(b.addr + flat)
                        } else {
                            // Pointer variable: read it, then offset.
                            let pv = self.load(b.addr)?;
                            self.emit_access(b.addr, cur, false);
                            let base_addr = match pv {
                                Value::Ptr(p) => p,
                                other => usize::try_from(other.as_int().max(0)).unwrap_or(0),
                            };
                            let mut addr = base_addr;
                            for idx in &idxs {
                                let off = self.eval(idx)?.as_int();
                                addr = offset_addr(addr, off)?;
                            }
                            if addr == 0 || addr >= self.heap.len() {
                                return Err(RtError::BadAddress(format!(
                                    "*{name} out of bounds at {}",
                                    span.pos
                                )));
                            }
                            Ok(addr)
                        }
                    }
                    other => {
                        // e.g. (p + 1)[i]: evaluate base as pointer value.
                        let pv = self.eval(other)?;
                        let Value::Ptr(mut addr) = pv else {
                            return Err(RtError::BadAddress(format!(
                                "subscript of non-pointer at {}",
                                other.span().pos
                            )));
                        };
                        for idx in &idxs {
                            let off = self.eval(idx)?.as_int();
                            addr = offset_addr(addr, off)?;
                        }
                        Ok(addr)
                    }
                }
            }
            Expr::Unary { op: UnOp::Deref, expr, .. } => {
                let pv = self.eval(expr)?;
                let Value::Ptr(addr) = pv else {
                    return Err(RtError::BadAddress("deref of non-pointer".into()));
                };
                if addr == 0 || addr >= self.heap.len() {
                    return Err(RtError::BadAddress("deref out of bounds".into()));
                }
                Ok(addr)
            }
            Expr::Cast { expr, .. } => self.resolve_lvalue(expr),
            other => Err(RtError::Unsupported(format!(
                "lvalue {} at {}",
                print_expr(other),
                other.span().pos
            ))),
        }
    }

    fn flat_index(&mut self, b: &Binding, idxs: &[&Expr]) -> RtResult<usize> {
        let mut flat: usize = 0;
        let dims = if b.dims.is_empty() { vec![b.count] } else { b.dims.clone() };
        for (k, idx) in idxs.iter().enumerate() {
            let i = self.eval(idx)?.as_int();
            let i = usize::try_from(i.max(0)).unwrap_or(0);
            let stride: usize = dims.get(k + 1..).map(|r| r.iter().product()).unwrap_or(1);
            flat = flat.saturating_add(i.saturating_mul(stride.max(1)));
        }
        Ok(flat)
    }

    fn eval(&mut self, e: &Expr) -> RtResult<Value> {
        self.spend()?;
        match e {
            Expr::IntLit { value, .. } => Ok(Value::Int(*value)),
            Expr::FloatLit { value, .. } => Ok(Value::Float(*value)),
            Expr::CharLit { value, .. } => Ok(Value::Int(*value as i64)),
            Expr::StrLit { .. } => Ok(Value::Ptr(0)),
            Expr::Ident { name, .. } => {
                let b = self
                    .lookup(name)
                    .cloned()
                    .ok_or_else(|| RtError::Unknown(name.clone()))?;
                if b.is_array() {
                    // Array decays to pointer; not a memory access.
                    return Ok(Value::Ptr(b.addr));
                }
                let v = self.load(b.addr)?;
                self.emit_access(b.addr, e, false);
                Ok(v)
            }
            Expr::Index { .. } => {
                let addr = self.resolve_lvalue(e)?;
                let v = self.load(addr)?;
                self.emit_access(addr, e, false);
                Ok(v)
            }
            Expr::Unary { op, expr, .. } => match op {
                UnOp::Neg => {
                    let v = self.eval(expr)?;
                    Ok(match v {
                        Value::Int(i) => Value::Int(i.wrapping_neg()),
                        Value::Float(f) => Value::Float(-f),
                        Value::Ptr(_) => Value::Int(0),
                    })
                }
                UnOp::Not => Ok(Value::Int(i64::from(!self.eval(expr)?.truthy()))),
                UnOp::BitNot => Ok(Value::Int(!self.eval(expr)?.as_int())),
                UnOp::Deref => {
                    let addr = self.resolve_lvalue(e)?;
                    let v = self.load(addr)?;
                    self.emit_access(addr, e, false);
                    Ok(v)
                }
                UnOp::AddrOf => {
                    let addr = self.resolve_lvalue(expr)?;
                    Ok(Value::Ptr(addr))
                }
            },
            Expr::Binary { op, lhs, rhs, .. } => {
                // Short-circuit operators.
                match op {
                    BinOp::And => {
                        if !self.eval(lhs)?.truthy() {
                            return Ok(Value::Int(0));
                        }
                        return Ok(Value::Int(i64::from(self.eval(rhs)?.truthy())));
                    }
                    BinOp::Or => {
                        if self.eval(lhs)?.truthy() {
                            return Ok(Value::Int(1));
                        }
                        return Ok(Value::Int(i64::from(self.eval(rhs)?.truthy())));
                    }
                    _ => {}
                }
                let a = self.eval(lhs)?;
                let b = self.eval(rhs)?;
                bin_op(*op, a, b)
            }
            Expr::Assign { op, lhs, rhs, .. } => {
                let rv = self.eval(rhs)?;
                let addr = self.resolve_lvalue(lhs)?;
                let new = match op.bin_op() {
                    Some(b) => {
                        let old = self.load(addr)?;
                        self.emit_access(addr, lhs, false);
                        bin_op(b, old, rv)?
                    }
                    None => rv,
                };
                self.store(addr, new)?;
                self.emit_access(addr, lhs, true);
                Ok(new)
            }
            Expr::IncDec { inc, prefix, expr, .. } => {
                let addr = self.resolve_lvalue(expr)?;
                let old = self.load(addr)?;
                self.emit_access(addr, expr, false);
                let delta = if *inc { 1 } else { -1 };
                let new = match old {
                    Value::Int(v) => Value::Int(v.wrapping_add(delta)),
                    Value::Float(f) => Value::Float(f + delta as f64),
                    Value::Ptr(p) => Value::Ptr(offset_addr(p, delta)?),
                };
                self.store(addr, new)?;
                self.emit_access(addr, expr, true);
                Ok(if *prefix { new } else { old })
            }
            Expr::Cond { cond, then, els, .. } => {
                if self.eval(cond)?.truthy() {
                    self.eval(then)
                } else {
                    self.eval(els)
                }
            }
            Expr::Cast { ty, expr, .. } => {
                let v = self.eval(expr)?;
                Ok(coerce(v, ty.base, ty.pointers > 0))
            }
            Expr::Call { callee, args, .. } => self.call(callee, args),
        }
    }

    fn call(&mut self, callee: &str, args: &[Expr]) -> RtResult<Value> {
        if let Some(need) = builtin_arity(callee).filter(|&n| args.len() < n) {
            return Err(arity_error(callee, need, args.len()));
        }
        // OpenMP runtime + libc built-ins first.
        match callee {
            "omp_get_thread_num" => return Ok(Value::Int(self.tid as i64)),
            "omp_get_num_threads" => {
                return Ok(Value::Int(if self.in_region { self.team as i64 } else { 1 }))
            }
            "omp_get_max_threads" => return Ok(Value::Int(self.cfg.threads as i64)),
            "omp_set_num_threads" => {
                let _ = self.eval(&args[0])?;
                return Ok(Value::Int(0));
            }
            "omp_get_wtime" => return Ok(Value::Float(0.0)),
            "omp_init_lock" | "omp_destroy_lock" | "omp_init_nest_lock"
            | "omp_destroy_nest_lock" => {
                return Ok(Value::Int(0));
            }
            "omp_set_lock" | "omp_set_nest_lock" => {
                let addr = self.lock_addr(&args[0])?;
                self.emit_acquire(&SyncKey::Lock(addr));
                return Ok(Value::Int(0));
            }
            "omp_unset_lock" | "omp_unset_nest_lock" => {
                let addr = self.lock_addr(&args[0])?;
                self.emit_release(&SyncKey::Lock(addr));
                return Ok(Value::Int(0));
            }
            "omp_test_lock" => {
                let addr = self.lock_addr(&args[0])?;
                self.emit_acquire(&SyncKey::Lock(addr));
                return Ok(Value::Int(1));
            }
            "printf" => {
                let mut parts = Vec::new();
                for a in args.iter().skip(1) {
                    let v = self.eval(a)?;
                    parts.push(match v {
                        Value::Int(i) => i.to_string(),
                        Value::Float(f) => format!("{f:.6}"),
                        Value::Ptr(p) => format!("0x{p:x}"),
                    });
                }
                self.printed.push(parts.join(" "));
                return Ok(Value::Int(0));
            }
            "malloc" => {
                let cells = malloc_cells(self.eval(&args[0])?);
                return Ok(Value::Ptr(self.alloc(cells)?));
            }
            "calloc" => {
                let n = self.eval(&args[0])?;
                let cells = calloc_cells(n, self.eval(&args[1])?);
                return Ok(Value::Ptr(self.alloc(cells)?));
            }
            "free" => {
                let _ = self.eval(&args[0])?;
                return Ok(Value::Int(0));
            }
            "fabs" | "fabsf" => {
                let v = self.eval(&args[0])?.as_float();
                return Ok(Value::Float(v.abs()));
            }
            "sqrt" | "sqrtf" => {
                let v = self.eval(&args[0])?.as_float();
                return Ok(Value::Float(v.sqrt()));
            }
            "sin" => return Ok(Value::Float(self.eval(&args[0])?.as_float().sin())),
            "cos" => return Ok(Value::Float(self.eval(&args[0])?.as_float().cos())),
            "exp" => return Ok(Value::Float(self.eval(&args[0])?.as_float().exp())),
            "log" => return Ok(Value::Float(self.eval(&args[0])?.as_float().ln())),
            "pow" => {
                let a = self.eval(&args[0])?.as_float();
                let b = self.eval(&args[1])?.as_float();
                return Ok(Value::Float(a.powf(b)));
            }
            "fmax" => {
                let a = self.eval(&args[0])?.as_float();
                let b = self.eval(&args[1])?.as_float();
                return Ok(Value::Float(a.max(b)));
            }
            "fmin" => {
                let a = self.eval(&args[0])?.as_float();
                let b = self.eval(&args[1])?.as_float();
                return Ok(Value::Float(a.min(b)));
            }
            "abs" => return Ok(Value::Int(self.eval(&args[0])?.as_int().wrapping_abs())),
            "exit" => {
                let _ = self.eval(&args[0])?;
                return Err(RtError::Unsupported("exit() called".into()));
            }
            "assert" => {
                let _ = self.eval(&args[0])?;
                return Ok(Value::Int(0));
            }
            "rand" => return Ok(Value::Int(42)),
            "srand" => {
                let _ = self.eval(&args[0])?;
                return Ok(Value::Int(0));
            }
            _ => {}
        }
        // User-defined function.
        let Some(f) = self.funcs.get(callee).copied() else {
            // Unknown externs: evaluate args for effects, return 0.
            for a in args {
                let _ = self.eval(a)?;
            }
            return Ok(Value::Int(0));
        };
        let mut bound = Vec::new();
        for (p, a) in f.params.iter().zip(args) {
            let v = self.eval(a)?;
            bound.push((p.name.clone(), v));
        }
        if self.depth >= MAX_CALL_DEPTH {
            return Err(RtError::CallTooDeep);
        }
        self.frames.push(vec![HashMap::new()]);
        for (name, v) in bound {
            let addr = self.alloc(1)?;
            self.heap[addr] = v;
            self.cur_scope().insert(name, Binding { addr, count: 1, dims: Vec::new() });
        }
        self.depth += 1;
        let flow = self.exec_block(&f.body);
        self.depth -= 1;
        self.frames.pop();
        match flow? {
            Flow::Return(v) => Ok(v),
            _ => Ok(Value::Int(0)),
        }
    }

    fn lock_addr(&mut self, arg: &Expr) -> RtResult<usize> {
        match self.eval(arg)? {
            Value::Ptr(p) => Ok(p),
            other => Ok(usize::try_from(other.as_int().max(0)).unwrap_or(0)),
        }
    }

    // -------------------------------------------------------------
    // Statements
    // -------------------------------------------------------------

    fn run_main(&mut self) -> RtResult<Option<i64>> {
        let Some(main) = self.funcs.get("main").copied() else {
            // Library-style kernel: run each function name once, in order
            // of first definition, using the definition that wins the
            // function table.
            let funcs: Vec<&FuncDef> = self.func_order.iter().map(|n| self.funcs[n]).collect();
            for f in funcs {
                self.frames.push(vec![HashMap::new()]);
                for p in &f.params {
                    let addr = self.alloc(64)?; // synthetic buffer arguments
                    self.cur_scope()
                        .insert(p.name.clone(), Binding { addr, count: 64, dims: vec![64] });
                }
                let r = self.exec_block(&f.body);
                self.frames.pop();
                r?;
            }
            return Ok(None);
        };
        self.frames.push(vec![HashMap::new()]);
        // argc/argv defaults.
        for (i, p) in main.params.iter().enumerate() {
            let addr = self.alloc(1)?;
            self.heap[addr] = if i == 0 { Value::Int(1) } else { Value::Ptr(0) };
            self.cur_scope().insert(p.name.clone(), Binding { addr, count: 1, dims: Vec::new() });
        }
        let flow = self.exec_block(&main.body)?;
        self.frames.pop();
        Ok(match flow {
            Flow::Return(v) => Some(v.as_int()),
            _ => None,
        })
    }

    fn exec_block(&mut self, b: &Block) -> RtResult<Flow> {
        self.push_scope();
        let mut flow = Flow::Normal;
        for s in &b.stmts {
            flow = self.exec_stmt(s)?;
            if !matches!(flow, Flow::Normal) {
                break;
            }
        }
        self.pop_scope();
        Ok(flow)
    }

    fn exec_stmt(&mut self, s: &Stmt) -> RtResult<Flow> {
        self.spend()?;
        match s {
            Stmt::Decl(d) => {
                self.exec_decl(d, false)?;
                Ok(Flow::Normal)
            }
            Stmt::Expr(e) => {
                self.eval(e)?;
                Ok(Flow::Normal)
            }
            Stmt::Empty(_) => Ok(Flow::Normal),
            Stmt::Block(b) => self.exec_block(b),
            Stmt::If { cond, then, els, .. } => {
                if self.eval(cond)?.truthy() {
                    self.exec_stmt(then)
                } else if let Some(e) = els {
                    self.exec_stmt(e)
                } else {
                    Ok(Flow::Normal)
                }
            }
            Stmt::For(f) => self.exec_for(f),
            Stmt::While { cond, body, .. } => {
                while self.eval(cond)?.truthy() {
                    match self.exec_stmt(body)? {
                        Flow::Break => break,
                        Flow::Return(v) => return Ok(Flow::Return(v)),
                        _ => {}
                    }
                }
                Ok(Flow::Normal)
            }
            Stmt::DoWhile { body, cond, .. } => {
                loop {
                    match self.exec_stmt(body)? {
                        Flow::Break => break,
                        Flow::Return(v) => return Ok(Flow::Return(v)),
                        _ => {}
                    }
                    if !self.eval(cond)?.truthy() {
                        break;
                    }
                }
                Ok(Flow::Normal)
            }
            Stmt::Return(e, _) => {
                let v = match e {
                    Some(e) => self.eval(e)?,
                    None => Value::Int(0),
                };
                Ok(Flow::Return(v))
            }
            Stmt::Break(_) => Ok(Flow::Break),
            Stmt::Continue(_) => Ok(Flow::Continue),
            Stmt::Omp { dir, body, .. } => {
                self.depth += 1;
                let flow = self.exec_directive(dir, body.as_deref());
                self.depth -= 1;
                flow
            }
        }
    }

    fn exec_for(&mut self, f: &ForStmt) -> RtResult<Flow> {
        self.push_scope();
        match &f.init {
            ForInit::Empty => {}
            ForInit::Decl(d) => self.exec_decl(d, false)?,
            ForInit::Expr(e) => {
                self.eval(e)?;
            }
        }
        loop {
            if let Some(c) = &f.cond {
                if !self.eval(c)?.truthy() {
                    break;
                }
            }
            match self.exec_stmt(&f.body)? {
                Flow::Break => break,
                Flow::Return(v) => {
                    self.pop_scope();
                    return Ok(Flow::Return(v));
                }
                _ => {}
            }
            if let Some(st) = &f.step {
                self.eval(st)?;
            }
        }
        self.pop_scope();
        Ok(Flow::Normal)
    }

    // -------------------------------------------------------------
    // OpenMP directives
    // -------------------------------------------------------------

    fn exec_directive(&mut self, dir: &Directive, body: Option<&Stmt>) -> RtResult<Flow> {
        use DirectiveKind as DK;
        match &dir.kind {
            DK::Barrier => {
                if self.in_region {
                    self.phase += 1;
                }
                Ok(Flow::Normal)
            }
            DK::Taskwait => {
                let children = std::mem::take(&mut self.pending_tasks);
                if !children.is_empty() {
                    self.emit_task_wait(&children);
                }
                Ok(Flow::Normal)
            }
            DK::Taskgroup => {
                let body = body_or_ok(body)?;
                let saved = std::mem::take(&mut self.pending_tasks);
                let flow = self.exec_stmt(body)?;
                let children = std::mem::replace(&mut self.pending_tasks, saved);
                if !children.is_empty() {
                    self.emit_task_wait(&children);
                }
                Ok(flow)
            }
            DK::Threadprivate(vars) => {
                self.threadprivate.extend(vars.iter().cloned());
                Ok(Flow::Normal)
            }
            DK::Flush(_) => Ok(Flow::Normal),
            DK::Parallel | DK::Target => {
                let body = body_or_ok(body)?;
                self.exec_parallel(dir, body, None)
            }
            DK::ParallelFor | DK::ParallelForSimd | DK::TargetParallelFor => {
                let body = body_or_ok(body)?;
                self.exec_parallel(dir, body, Some(dir))
            }
            DK::For | DK::ForSimd | DK::Simd => {
                let body = body_or_ok(body)?;
                if self.in_region {
                    self.exec_ws_loop(dir, body)
                } else {
                    // Orphaned worksharing / simd loop: serial execution.
                    self.exec_stmt(body)
                }
            }
            DK::Sections | DK::ParallelSections => {
                let body = body_or_ok(body)?;
                if matches!(dir.kind, DK::ParallelSections) {
                    self.exec_parallel(dir, body, Some(dir))
                } else if self.in_region {
                    self.exec_sections(dir, body)
                } else {
                    self.exec_stmt(body)
                }
            }
            DK::Section => {
                // Orphaned section: plain block.
                match body {
                    Some(b) => self.exec_stmt(b),
                    None => Ok(Flow::Normal),
                }
            }
            DK::Single => {
                let body = body_or_ok(body)?;
                if !self.in_region {
                    return self.exec_stmt(body);
                }
                // Consistent per-construct decision across the team.
                let key = (dir.span.start, self.next_occ(dir.span.start));
                let winner =
                    *self.winner_cache.entry(key).or_insert_with(|| self.sched.single_winner());
                let flow = if self.tid == winner {
                    self.with_privatized(dir, |me| me.exec_stmt(body))?
                } else {
                    Flow::Normal
                };
                if !dir.has_nowait() {
                    self.phase += 1;
                }
                Ok(flow)
            }
            DK::Master => {
                let body = body_or_ok(body)?;
                if !self.in_region || self.tid == 0 {
                    self.exec_stmt(body)
                } else {
                    Ok(Flow::Normal)
                }
            }
            DK::Critical(name) => {
                let body = body_or_ok(body)?;
                let key = SyncKey::Critical(name.clone().unwrap_or_else(|| "<anon>".into()));
                self.emit_acquire(&key);
                let flow = self.exec_stmt(body)?;
                self.emit_release(&key);
                Ok(flow)
            }
            DK::Atomic(kind) => {
                let body = body_or_ok(body)?;
                let target = atomic_target(*kind, body).map(str::to_string);
                let saved = std::mem::replace(&mut self.atomic_target, target);
                let flow = self.exec_stmt(body)?;
                self.atomic_target = saved;
                Ok(flow)
            }
            DK::Ordered => {
                let body = body_or_ok(body)?;
                // Serialize via an acquire/release chain keyed to the
                // construct; iteration order is approximated by execution
                // order (static scheduling processes iterations in order).
                let cid = dir.span.start;
                let key = SyncKey::Ordered(cid as usize);
                self.emit_acquire(&key);
                let flow = self.exec_stmt(body)?;
                self.emit_release(&key);
                *self.ordered_counter.entry(cid).or_insert(0) += 1;
                Ok(flow)
            }
            DK::Task => {
                let body = body_or_ok(body)?;
                if !self.in_region {
                    return self.exec_stmt(body);
                }
                let child = self.next_task_agent;
                self.next_task_agent += 1;
                self.trace.push_task_spawn(self.agent, self.phase, child);
                self.pending_tasks.push(child);
                let saved_agent = self.agent;
                self.agent = child;
                let flow = self.with_privatized(dir, |me| me.exec_stmt(body))?;
                self.trace.push_task_end(self.agent, self.phase);
                self.agent = saved_agent;
                Ok(flow)
            }
            DK::Other(_) => match body {
                Some(b) => self.exec_stmt(b),
                None => Ok(Flow::Normal),
            },
        }
    }

    /// The next occurrence number of construct `key` on this thread:
    /// with the key, it indexes the team-wide decision caches.
    fn next_occ(&mut self, key: u32) -> usize {
        let e = self.occ.entry((key, self.tid)).or_insert(0);
        *e += 1;
        *e - 1
    }

    /// Run `f` with the directive's private/firstprivate vars rebound to
    /// fresh per-thread cells, handling reduction and lastprivate.
    fn with_privatized<T>(
        &mut self,
        dir: &Directive,
        f: impl FnOnce(&mut Self) -> RtResult<T>,
    ) -> RtResult<T> {
        self.push_scope();
        // private: fresh, uninitialized.
        for c in &dir.clauses {
            match c {
                Clause::Private(vars) | Clause::Lastprivate(vars) => {
                    for v in vars {
                        let shape = self.lookup(v).cloned();
                        let (count, dims) =
                            shape.map(|b| (b.count, b.dims)).unwrap_or((1, Vec::new()));
                        let addr = self.alloc(count)?;
                        self.cur_scope().insert(v.clone(), Binding { addr, count, dims });
                    }
                }
                Clause::Firstprivate(vars) | Clause::Linear(vars) => {
                    for v in vars {
                        let outer = self.lookup(v).cloned();
                        if let Some(b) = outer {
                            let addr = self.alloc(b.count)?;
                            for i in 0..b.count {
                                let val = self.load(b.addr + i)?;
                                self.store(addr + i, val)?;
                            }
                            self.cur_scope().insert(
                                v.clone(),
                                Binding { addr, count: b.count, dims: b.dims.clone() },
                            );
                        }
                    }
                }
                Clause::Reduction(op, vars) => {
                    for v in vars {
                        let addr = self.alloc(1)?;
                        self.heap[addr] = reduction_identity(*op);
                        self.cur_scope()
                            .insert(v.clone(), Binding { addr, count: 1, dims: Vec::new() });
                    }
                }
                _ => {}
            }
        }
        // Threadprivate globals shadowed per thread.
        let tp = self.threadprivate.clone();
        for v in &tp {
            if self.frames[0][0].contains_key(v) && self.lookup_is_global(v) {
                let g = self.frames[0][0].get(v).cloned().unwrap();
                let addr = self.alloc(g.count)?;
                self.cur_scope()
                    .insert(v.clone(), Binding { addr, count: g.count, dims: g.dims });
            }
        }

        let result = f(self);

        // Reduction merge (runtime-synchronized: no events).
        if result.is_ok() {
            for c in &dir.clauses {
                if let Clause::Reduction(op, vars) = c {
                    for v in vars {
                        let private = self.frames.last().unwrap().last().unwrap().get(v).cloned();
                        // Find the outer binding by temporarily removing
                        // the private one.
                        if let Some(pb) = private {
                            let pv = self.load(pb.addr)?;
                            self.cur_scope().remove(v);
                            if let Some(ob) = self.lookup(v).cloned() {
                                let ov = self.load(ob.addr)?;
                                let merged = apply_reduction(*op, ov, pv);
                                self.store(ob.addr, merged)?;
                            }
                        }
                    }
                }
            }
        }
        self.pop_scope();
        result
    }

    fn lookup_is_global(&self, name: &str) -> bool {
        let frame = self.frames.last().unwrap();
        !frame.iter().any(|s| s.contains_key(name))
    }

    /// Fork a team and run `body` once per thread.
    fn exec_parallel(
        &mut self,
        dir: &Directive,
        body: &Stmt,
        loopish: Option<&Directive>,
    ) -> RtResult<Flow> {
        // Serial conditions.
        let serial = self.in_region || dir.serial_by_clauses();
        if serial {
            // Nested or disabled parallelism: run inline (single thread).
            return match loopish {
                Some(d) if d.kind != DirectiveKind::ParallelSections => {
                    if self.in_region {
                        self.exec_ws_loop(d, body)
                    } else {
                        self.exec_stmt(body)
                    }
                }
                _ => self.exec_stmt(body),
            };
        }

        let team = dir
            .num_threads()
            .and_then(|e| e.const_int())
            .and_then(|v| usize::try_from(v).ok())
            .filter(|v| *v > 0)
            .unwrap_or(self.cfg.threads)
            .min(MAX_TEAM);

        self.in_region = true;
        self.team = team;
        self.max_team = self.max_team.max(team);
        // Fork is a sync point: new phase for the region.
        let start_phase = self.phase + 1;
        let mut end_phase = start_phase;
        for tid in 0..team {
            self.tid = tid;
            self.agent = tid;
            self.phase = start_phase;
            let flow = self.with_privatized(dir, |me| match loopish {
                Some(d) if d.kind == DirectiveKind::ParallelSections => {
                    me.exec_sections(d, body)
                }
                Some(d) => me.exec_ws_loop(d, body),
                None => me.exec_stmt(body),
            })?;
            // `return` out of a parallel region is non-conforming; treat
            // as finishing the region.
            let _ = flow;
            end_phase = end_phase.max(self.phase);
        }
        // Implicit end-of-region barrier (also completes pending tasks).
        let children = std::mem::take(&mut self.pending_tasks);
        if !children.is_empty() {
            self.agent = 0;
            self.emit_task_wait(&children);
        }
        self.phase = end_phase + 1;
        self.in_region = false;
        self.tid = 0;
        self.agent = 0;
        self.team = 1;
        Ok(Flow::Normal)
    }

    /// Run the associated loop of a worksharing directive: this thread
    /// executes only its assigned iterations.
    fn exec_ws_loop(&mut self, dir: &Directive, body: &Stmt) -> RtResult<Flow> {
        let Some(fs) = as_for(body) else {
            // Loop directive on a non-loop: execute as-is.
            return self.exec_stmt(body);
        };
        self.push_scope();
        // Evaluate init.
        let ivar = fs.induction_var().map(str::to_string);
        match &fs.init {
            ForInit::Empty => {}
            ForInit::Decl(d) => self.exec_decl(d, false)?,
            ForInit::Expr(e) => {
                // Suppress the init write event: the induction variable is
                // private to each thread in a worksharing loop.
                let saved = self.suppress_events;
                self.suppress_events = true;
                let r = self.eval(e);
                self.suppress_events = saved;
                r?;
            }
        }
        // Rebind the induction variable to a private cell.
        if let Some(v) = &ivar {
            let init_val = match self.lookup(v) {
                Some(b) => self.load(b.addr)?,
                None => Value::Int(0),
            };
            let addr = self.alloc(1)?;
            self.heap[addr] = init_val;
            self.cur_scope().insert(v.clone(), Binding { addr, count: 1, dims: Vec::new() });
        }
        // collapse(n): the nested loops' induction variables are private
        // to each thread as well.
        {
            let mut nested: &ForStmt = fs;
            for _ in 1..dir.collapse() {
                let Some(nf) = as_for(&nested.body) else { break };
                if let Some(v) = nf.induction_var() {
                    let addr = self.alloc(1)?;
                    self.cur_scope()
                        .insert(v.to_string(), Binding { addr, count: 1, dims: Vec::new() });
                }
                nested = nf;
            }
        }

        // Enumerate iterations by repeatedly evaluating cond/step on the
        // private induction cell, recording the induction value sequence.
        let mut iter_vals = Vec::new();
        if let (Some(v), Some(cond)) = (&ivar, &fs.cond) {
            let b = self.lookup(v).cloned().expect("induction var bound above");
            let saved = self.suppress_events;
            self.suppress_events = true;
            loop {
                if iter_vals.len() > MAX_ITERATIONS {
                    self.suppress_events = saved;
                    self.pop_scope();
                    return Err(RtError::FuelExhausted);
                }
                let ok = self.eval(cond)?.truthy();
                if !ok {
                    break;
                }
                iter_vals.push(self.load(b.addr)?);
                if let Some(st) = &fs.step {
                    self.eval(st)?;
                } else {
                    break;
                }
            }
            self.suppress_events = saved;
        }

        // collapse(n): enumerate the nested rectangular loops so the
        // *flattened* iteration space is distributed across threads, as
        // the OpenMP spec requires. Falls back to outer-only distribution
        // when the nest is triangular or non-canonical.
        let mut levels: Vec<(usize, Vec<Value>)> = Vec::new();
        if let Some(v) = &ivar {
            let b = self.lookup(v).cloned().expect("induction var bound above");
            levels.push((b.addr, iter_vals.clone()));
            let collapse = dir.collapse() as usize;
            if collapse > 1 {
                let mut outer_vars = vec![v.clone()];
                let mut cur_for = fs;
                for _ in 1..collapse {
                    let Some(nf) = as_for(&cur_for.body) else { break };
                    let Some(nv) = nf.induction_var().map(str::to_string) else { break };
                    if for_header_mentions(nf, &outer_vars) {
                        break; // triangular nest: not rectangular
                    }
                    match self.enumerate_inner_for(nf, &nv)? {
                        Some(level) => {
                            levels.push(level);
                            outer_vars.push(nv);
                            cur_for = nf;
                        }
                        None => break,
                    }
                }
                if levels.len() != collapse {
                    levels.truncate(1);
                }
            }
        }
        let collapse_depth = levels.len().max(1);
        let innermost_body: &Stmt = {
            let mut b: &Stmt = &fs.body;
            let mut cur = fs;
            for _ in 1..collapse_depth {
                if let Some(nf) = as_for(&cur.body) {
                    b = &nf.body;
                    cur = nf;
                }
            }
            b
        };

        // Assign iterations to threads (cached so the whole team agrees).
        let n = if levels.is_empty() {
            iter_vals.len()
        } else {
            array_cells(levels.iter().map(|(_, v)| v.len()))
                .filter(|&n| n <= MAX_ITERATIONS)
                .ok_or(RtError::FuelExhausted)?
        };
        let cache_key = (dir.span.start, self.next_occ(dir.span.start));
        let assignment = if let Some(a) = self.iter_cache.get(&cache_key) {
            a.clone()
        } else {
            let (kind, chunk) = match dir.schedule() {
                Some((k, ch)) => {
                    let chunk = match ch {
                        Some(e) => {
                            let v = self.eval(e)?.as_int();
                            usize::try_from(v.max(1)).ok()
                        }
                        None => None,
                    };
                    (Some(*k), chunk)
                }
                None => (None, None),
            };
            let a = self.sched.assign_iterations(n, kind, chunk);
            self.iter_cache.insert(cache_key, a.clone());
            a
        };

        // Execute this thread's share of the (possibly collapsed)
        // iteration space.
        let mut flow = Flow::Normal;
        let simd_only = dir.kind == DirectiveKind::Simd;
        let mut last_owned = false;
        if !levels.is_empty() {
            // `flat` also drives the index decomposition below, so iterating
            // over `assignment` instead would not simplify anything.
            #[allow(clippy::needless_range_loop)]
            for flat in 0..n {
                // SIMD-only loops run on one thread; all "lanes" belong to
                // tid 0 in the trace — lane conflicts are surfaced by the
                // static path and by drb-gen labels, not hbsan.
                let owner = if simd_only { self.tid } else { assignment[flat] };
                if owner != self.tid {
                    continue;
                }
                last_owned = flat == n - 1;
                // Row-major decomposition of the flat index into per-level
                // induction values.
                let mut rem = flat;
                for (addr, vals) in levels.iter().rev() {
                    let idx = rem % vals.len();
                    rem /= vals.len();
                    self.heap[*addr] = vals[idx];
                }
                match self.exec_stmt(innermost_body)? {
                    Flow::Break => break,
                    Flow::Return(v) => {
                        flow = Flow::Return(v);
                        break;
                    }
                    _ => {}
                }
            }
        } else {
            // Non-canonical loop (no induction var): run whole loop on
            // thread 0.
            if self.tid == 0 {
                flow = self.exec_for(fs)?;
            }
        }

        // lastprivate writeback by the owner of the last iteration.
        if last_owned {
            for c in &dir.clauses {
                if let Clause::Lastprivate(vars) = c {
                    for v in vars {
                        let inner = self
                            .frames
                            .last()
                            .unwrap()
                            .iter()
                            .rev()
                            .find_map(|s| s.get(v))
                            .cloned();
                        if let Some(ib) = inner {
                            let val = self.load(ib.addr)?;
                            // Outer binding: search below the privatized
                            // scopes (pop name from every scope copy).
                            let outer = self.outer_binding(v);
                            if let Some(ob) = outer {
                                let saved = self.suppress_events;
                                self.suppress_events = true;
                                self.store(ob.addr, val)?;
                                self.suppress_events = saved;
                            }
                        }
                    }
                }
            }
        }

        self.pop_scope();
        // Implicit barrier at the end of the worksharing construct.
        if !dir.has_nowait()
            && !matches!(dir.kind, DirectiveKind::Simd)
            && !dir.kind.creates_parallelism()
        {
            self.phase += 1;
        }
        Ok(flow)
    }

    /// Enumerate an inner collapsed loop's induction values (rectangular
    /// nests only). Returns the private cell address plus the values, or
    /// None when the loop is not canonical.
    fn enumerate_inner_for(
        &mut self,
        nf: &ForStmt,
        var: &str,
    ) -> RtResult<Option<(usize, Vec<Value>)>> {
        let saved = self.suppress_events;
        self.suppress_events = true;
        let result = self.enumerate_inner_for_impl(nf, var);
        self.suppress_events = saved;
        result
    }

    fn enumerate_inner_for_impl(
        &mut self,
        nf: &ForStmt,
        var: &str,
    ) -> RtResult<Option<(usize, Vec<Value>)>> {
        match &nf.init {
            ForInit::Decl(d) => self.exec_decl(d, false)?,
            ForInit::Expr(e) => {
                self.eval(e)?;
            }
            ForInit::Empty => return Ok(None),
        }
        let Some(b) = self.lookup(var).cloned() else { return Ok(None) };
        let Some(cond) = &nf.cond else { return Ok(None) };
        let mut vals = Vec::new();
        loop {
            if vals.len() > MAX_ITERATIONS / 4 {
                return Err(RtError::FuelExhausted);
            }
            if !self.eval(cond)?.truthy() {
                break;
            }
            vals.push(self.load(b.addr)?);
            match &nf.step {
                Some(st) => {
                    self.eval(st)?;
                }
                None => break,
            }
        }
        Ok(Some((b.addr, vals)))
    }

    fn outer_binding(&self, name: &str) -> Option<Binding> {
        let frame = self.frames.last().unwrap();
        let mut found_inner = false;
        for scope in frame.iter().rev() {
            if let Some(b) = scope.get(name) {
                if found_inner {
                    return Some(b.clone());
                }
                found_inner = true;
            }
        }
        self.frames[0][0].get(name).cloned()
    }

    fn exec_sections(&mut self, dir: &Directive, body: &Stmt) -> RtResult<Flow> {
        let Stmt::Block(blk) = body else {
            return self.exec_stmt(body);
        };
        // Stable per-construct section ownership.
        let cache_key = (dir.span.start, self.next_occ(dir.span.start));
        let n_sections = blk
            .stmts
            .iter()
            .filter(|s| matches!(s, Stmt::Omp { dir, .. } if dir.kind == DirectiveKind::Section))
            .count()
            .max(1);
        let owners = self
            .section_cache
            .entry(cache_key)
            .or_insert_with(|| (0..n_sections).map(|i| self.sched.section_owner(i)).collect())
            .clone();

        self.push_scope();
        let mut idx = 0usize;
        let mut flow = Flow::Normal;
        for st in &blk.stmts {
            match st {
                Stmt::Omp { dir: d2, body: b2, .. } if d2.kind == DirectiveKind::Section => {
                    let owner = owners.get(idx).copied().unwrap_or(0);
                    idx += 1;
                    if owner == self.tid {
                        if let Some(b2) = b2 {
                            flow = self.exec_stmt(b2)?;
                        }
                    }
                }
                other => {
                    // Shared non-section statements (declarations).
                    flow = self.exec_stmt(other)?;
                }
            }
            if matches!(flow, Flow::Return(_)) {
                break;
            }
        }
        self.pop_scope();
        if !dir.has_nowait() && !dir.kind.creates_parallelism() {
            self.phase += 1;
        }
        Ok(flow)
    }
}

// -----------------------------------------------------------------
// Helpers
// -----------------------------------------------------------------

fn body_or_ok(body: Option<&Stmt>) -> RtResult<&Stmt> {
    body.ok_or_else(|| RtError::Unsupported("directive requires a body".into()))
}

/// Does the loop header (init/cond/step) reference any of `vars`?
/// Used to detect triangular collapse nests.
pub(crate) fn for_header_mentions(f: &ForStmt, vars: &[String]) -> bool {
    fn expr_mentions(e: &Expr, vars: &[String]) -> bool {
        match e {
            Expr::Ident { name, .. } => vars.iter().any(|v| v == name),
            _ => e.children().any(|c| expr_mentions(c, vars)),
        }
    }
    let init_hit = match &f.init {
        ForInit::Expr(e) => expr_mentions(e, vars),
        ForInit::Decl(d) => d.vars.iter().any(|v| match &v.init {
            Some(Init::Expr(e)) => expr_mentions(e, vars),
            _ => false,
        }),
        ForInit::Empty => false,
    };
    init_hit
        || f.cond.as_ref().is_some_and(|c| expr_mentions(c, vars))
        || f.step.as_ref().is_some_and(|s| expr_mentions(s, vars))
}

pub(crate) fn offset_addr(addr: usize, off: i64) -> RtResult<usize> {
    (addr as i64)
        .checked_add(off)
        .and_then(|a| usize::try_from(a).ok())
        .ok_or_else(|| RtError::BadAddress("negative address".into()))
}

pub(crate) fn coerce(v: Value, base: BaseType, pointer: bool) -> Value {
    if pointer {
        return match v {
            Value::Ptr(p) => Value::Ptr(p),
            other => Value::Ptr(usize::try_from(other.as_int().max(0)).unwrap_or(0)),
        };
    }
    match base {
        BaseType::Float | BaseType::Double => Value::Float(v.as_float()),
        BaseType::Void => v,
        _ => match v {
            Value::Ptr(p) => Value::Ptr(p),
            other => Value::Int(other.as_int()),
        },
    }
}

pub(crate) fn bin_op(op: BinOp, a: Value, b: Value) -> RtResult<Value> {
    use BinOp::*;
    // Pointer arithmetic.
    if let (Value::Ptr(p), Value::Int(i)) = (a, b) {
        match op {
            Add => return Ok(Value::Ptr(offset_addr(p, i)?)),
            Sub => return Ok(Value::Ptr(offset_addr(p, i.wrapping_neg())?)),
            _ => {}
        }
    }
    if let (Value::Int(i), Value::Ptr(p)) = (a, b) {
        if op == Add {
            return Ok(Value::Ptr(offset_addr(p, i)?));
        }
    }
    if let (Value::Ptr(p1), Value::Ptr(p2)) = (a, b) {
        match op {
            Sub => return Ok(Value::Int(p1 as i64 - p2 as i64)),
            Eq => return Ok(Value::Int(i64::from(p1 == p2))),
            Ne => return Ok(Value::Int(i64::from(p1 != p2))),
            Lt => return Ok(Value::Int(i64::from(p1 < p2))),
            Gt => return Ok(Value::Int(i64::from(p1 > p2))),
            Le => return Ok(Value::Int(i64::from(p1 <= p2))),
            Ge => return Ok(Value::Int(i64::from(p1 >= p2))),
            _ => {}
        }
    }
    if a.promotes_to_float(&b) {
        let (x, y) = (a.as_float(), b.as_float());
        return Ok(match op {
            Add => Value::Float(x + y),
            Sub => Value::Float(x - y),
            Mul => Value::Float(x * y),
            Div => Value::Float(x / y),
            Rem => Value::Float(x % y),
            Lt => Value::Int(i64::from(x < y)),
            Gt => Value::Int(i64::from(x > y)),
            Le => Value::Int(i64::from(x <= y)),
            Ge => Value::Int(i64::from(x >= y)),
            Eq => Value::Int(i64::from(x == y)),
            Ne => Value::Int(i64::from(x != y)),
            And => Value::Int(i64::from(x != 0.0 && y != 0.0)),
            Or => Value::Int(i64::from(x != 0.0 || y != 0.0)),
            BitAnd | BitOr | BitXor | Shl | Shr => Value::Int(0),
        });
    }
    let (x, y) = (a.as_int(), b.as_int());
    Ok(match op {
        Add => Value::Int(x.wrapping_add(y)),
        Sub => Value::Int(x.wrapping_sub(y)),
        Mul => Value::Int(x.wrapping_mul(y)),
        Div => {
            if y == 0 {
                return Err(RtError::DivByZero);
            }
            Value::Int(x.wrapping_div(y))
        }
        Rem => {
            if y == 0 {
                return Err(RtError::DivByZero);
            }
            Value::Int(x.wrapping_rem(y))
        }
        Lt => Value::Int(i64::from(x < y)),
        Gt => Value::Int(i64::from(x > y)),
        Le => Value::Int(i64::from(x <= y)),
        Ge => Value::Int(i64::from(x >= y)),
        Eq => Value::Int(i64::from(x == y)),
        Ne => Value::Int(i64::from(x != y)),
        And => Value::Int(i64::from(x != 0 && y != 0)),
        Or => Value::Int(i64::from(x != 0 || y != 0)),
        BitAnd => Value::Int(x & y),
        BitOr => Value::Int(x | y),
        BitXor => Value::Int(x ^ y),
        Shl => Value::Int(x.wrapping_shl(y as u32)),
        Shr => Value::Int(x.wrapping_shr(y as u32)),
    })
}

pub(crate) fn reduction_identity(op: ReductionOp) -> Value {
    match op {
        ReductionOp::Add | ReductionOp::Sub | ReductionOp::BitOr | ReductionOp::BitXor
        | ReductionOp::LogOr => Value::Int(0),
        ReductionOp::Mul | ReductionOp::LogAnd => Value::Int(1),
        ReductionOp::BitAnd => Value::Int(-1),
        ReductionOp::Min => Value::Int(i64::MAX),
        ReductionOp::Max => Value::Int(i64::MIN),
    }
}

pub(crate) fn apply_reduction(op: ReductionOp, a: Value, b: Value) -> Value {
    let float = a.promotes_to_float(&b);
    match op {
        ReductionOp::Add => {
            if float {
                Value::Float(a.as_float() + b.as_float())
            } else {
                Value::Int(a.as_int().wrapping_add(b.as_int()))
            }
        }
        ReductionOp::Sub => {
            if float {
                Value::Float(a.as_float() + b.as_float())
            } else {
                Value::Int(a.as_int().wrapping_add(b.as_int()))
            }
        }
        ReductionOp::Mul => {
            if float {
                Value::Float(a.as_float() * b.as_float())
            } else {
                Value::Int(a.as_int().wrapping_mul(b.as_int()))
            }
        }
        ReductionOp::Min => {
            if float {
                Value::Float(a.as_float().min(b.as_float()))
            } else {
                Value::Int(a.as_int().min(b.as_int()))
            }
        }
        ReductionOp::Max => {
            if float {
                Value::Float(a.as_float().max(b.as_float()))
            } else {
                Value::Int(a.as_int().max(b.as_int()))
            }
        }
        ReductionOp::BitAnd => Value::Int(a.as_int() & b.as_int()),
        ReductionOp::BitOr => Value::Int(a.as_int() | b.as_int()),
        ReductionOp::BitXor => Value::Int(a.as_int() ^ b.as_int()),
        ReductionOp::LogAnd => Value::Int(i64::from(a.truthy() && b.truthy())),
        ReductionOp::LogOr => Value::Int(i64::from(a.truthy() || b.truthy())),
    }
}

