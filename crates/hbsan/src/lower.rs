//! AST → bytecode lowering for the dynamic oracle.
//!
//! Compiles a parsed kernel into an [`ir::Program`] whose replay under
//! [`exec`](crate::exec) is observably identical to the tree
//! interpreter: same events in the same order, same interned site
//! numbering, same printed lines, same exit code, and the same fuel
//! trajectory (every interpreter `spend()` point is mirrored by the
//! per-instruction cost table).
//!
//! # Lowering invariants
//!
//! 1. **Fuel**: the interpreter spends 1 unit per `eval()` entry and 1
//!    per `exec_stmt()` entry, nothing else. The lowerer accumulates
//!    those charges into `pending` and attaches them to the next emitted
//!    instruction; [`Lowerer::bind`] flushes pending charges into a
//!    `Nop` *before* a jump target so back-edges never re-pay a charge
//!    that the interpreter paid once.
//! 2. **Scopes**: variable slots are resolved statically by replaying
//!    the interpreter's insertion-order scoping at lowering time — a
//!    declaration's dims/init are lowered *before* its name is bound,
//!    privatization clauses see earlier clauses' bindings, and
//!    worksharing-loop walks rebind induction variables in the same
//!    order the interpreter does. The one binding decided at run time —
//!    whether a `threadprivate` global is shadowed — gets a slot that
//!    either holds fresh storage or aliases the global.
//! 3. **Totality**: every kernel lowers. A construct the interpreter
//!    fails on at run time lowers to an [`Instr::Trap`] carrying the
//!    interpreter's error at the same point; a call that binds fewer
//!    parameters than its callee declares gets a variant of the callee
//!    compiled with only those parameters bound; and the register file
//!    never holds a list whose length the source controls (call and
//!    `printf` arguments, long declarators) — those go through the
//!    argument stack.

use crate::interp::{arity_error, builtin_arity, for_header_mentions};
use crate::ir::*;
use crate::value::Value;
use crate::RtError;
use minic::ast::*;
use minic::pragma::*;
use minic::printer::print_expr;
use std::collections::HashMap;

/// Constant-pool dedup key (`f64` interned by bit pattern).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum ConstKey {
    Int(i64),
    Float(u64),
    Ptr(usize),
}

/// A statically-resolved variable.
#[derive(Debug, Clone, Copy)]
struct ScopeInfo {
    slot: u32,
    array: bool,
}

/// Where an lvalue lives after lowering.
enum Place {
    /// Direct slot (any `Ident` lvalue; the slot's own address).
    Slot(u32),
    /// Computed address held in a register.
    Addr(u16),
}

/// Which instruction field a fixup patches.
enum Fix {
    To,
    DirBrk,
    DirCont,
}

/// How a compiled function body binds its parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Params {
    /// The first `k` parameters, as scalars (a call binds as many
    /// parameters as it passes arguments, up to the declared count).
    Scalars(usize),
    /// Every parameter as a 64-cell buffer (library-mode entry).
    Buffers,
}

/// Most declarator extents evaluated into registers; longer declarators
/// pass their extents on the argument stack.
const REG_DIMS: usize = u8::MAX as usize;

struct Lowerer<'a> {
    instrs: Vec<Instr>,
    costs: Vec<u32>,
    pending: u32,
    consts: Vec<Value>,
    const_map: HashMap<ConstKey, u32>,
    sites: Vec<SiteDesc>,
    site_map: HashMap<(u64, u64), u32>,
    names: Vec<String>,
    name_map: HashMap<String, u32>,
    dirs: Vec<DirIr>,
    ws: Vec<WsIr>,
    sections: Vec<SectionsIr>,
    errors: Vec<RtError>,
    locs: Vec<(u32, minic::Pos)>,
    defs: Vec<&'a FuncDef>,
    func_idx: HashMap<&'a str, u32>,
    /// Compiled function index per (definition, parameter binding).
    variants: HashMap<(u32, Params), u32>,
    /// Variants requested but not yet compiled, in index order.
    queued: Vec<(u32, Params)>,
    funcs: Vec<FuncIr>,
    /// Every name any `threadprivate` directive lists, first use first.
    tp_names: Vec<&'a str>,
    labels: Vec<u32>,
    fixups: Vec<(u32, Fix, u32)>,
    globals: HashMap<&'a str, ScopeInfo>,
    next_global: u32,
    global_names: Vec<u32>,
    // Current-function frame state.
    scopes: Vec<HashMap<&'a str, ScopeInfo>>,
    next_slot: u32,
    next_reg: u16,
    max_reg: u16,
    loops: Vec<(u32, u32)>, // (break label, continue label)
}

impl<'a> Lowerer<'a> {
    fn new() -> Self {
        Lowerer {
            instrs: Vec::new(),
            costs: Vec::new(),
            pending: 0,
            consts: Vec::new(),
            const_map: HashMap::new(),
            sites: Vec::new(),
            site_map: HashMap::new(),
            names: Vec::new(),
            name_map: HashMap::new(),
            dirs: Vec::new(),
            ws: Vec::new(),
            sections: Vec::new(),
            errors: Vec::new(),
            locs: Vec::new(),
            defs: Vec::new(),
            func_idx: HashMap::new(),
            variants: HashMap::new(),
            queued: Vec::new(),
            funcs: Vec::new(),
            tp_names: Vec::new(),
            labels: Vec::new(),
            fixups: Vec::new(),
            globals: HashMap::new(),
            next_global: 0,
            global_names: Vec::new(),
            scopes: Vec::new(),
            next_slot: 0,
            next_reg: 0,
            max_reg: 0,
            loops: Vec::new(),
        }
    }

    // ---------------------------------------------------------------
    // Emission infrastructure
    // ---------------------------------------------------------------

    /// Accrue fuel charges (one interpreter `spend()` each) onto the
    /// next emitted instruction.
    fn charge(&mut self, n: u32) {
        self.pending += n;
    }

    fn emit(&mut self, i: Instr) {
        self.instrs.push(i);
        self.costs.push(self.pending);
        self.pending = 0;
    }

    /// Fail the run here with the interpreter's error.
    fn trap(&mut self, err: RtError) {
        let id = self.errors.len() as u32;
        self.errors.push(err);
        self.emit(Instr::Trap { err: id });
    }

    /// Record a name and position quoted by an address error.
    fn loc(&mut self, name: &str, pos: minic::Pos) -> u32 {
        let name = self.name_idx(name);
        self.locs.push((name, pos));
        (self.locs.len() - 1) as u32
    }

    fn new_label(&mut self) -> u32 {
        self.labels.push(u32::MAX);
        (self.labels.len() - 1) as u32
    }

    /// Bind a label at the current pc. Pending charges are flushed into
    /// a `Nop` *before* the label so back-edges skip them.
    fn bind(&mut self, l: u32) {
        if self.pending > 0 {
            self.emit(Instr::Nop);
        }
        self.labels[l as usize] = self.instrs.len() as u32;
    }

    fn jmp(&mut self, l: u32) {
        let pc = self.instrs.len() as u32;
        self.emit(Instr::Jmp { to: 0 });
        self.fixups.push((pc, Fix::To, l));
    }

    fn jz(&mut self, cond: u16, l: u32) {
        let pc = self.instrs.len() as u32;
        self.emit(Instr::Jz { cond, to: 0 });
        self.fixups.push((pc, Fix::To, l));
    }

    fn jnz(&mut self, cond: u16, l: u32) {
        let pc = self.instrs.len() as u32;
        self.emit(Instr::Jnz { cond, to: 0 });
        self.fixups.push((pc, Fix::To, l));
    }

    /// Emit a `Dir` instruction routed to the innermost lexical loop of
    /// the *current range* (escaping flows terminate the range).
    fn emit_dir(&mut self, id: u32) {
        let pc = self.instrs.len() as u32;
        self.emit(Instr::Dir { id, brk: u32::MAX, cont: u32::MAX });
        if let Some(&(brk, cont)) = self.loops.last() {
            self.fixups.push((pc, Fix::DirBrk, brk));
            self.fixups.push((pc, Fix::DirCont, cont));
        }
    }

    /// Lower a helper code range: loop context and pending charges do
    /// not leak across the range boundary in either direction.
    fn range(&mut self, f: impl FnOnce(&mut Self)) -> CodeRange {
        let saved_loops = std::mem::take(&mut self.loops);
        let saved_pending = std::mem::take(&mut self.pending);
        let start = self.instrs.len() as u32;
        f(self);
        self.emit(Instr::End);
        let end = self.instrs.len() as u32;
        self.loops = saved_loops;
        self.pending = saved_pending;
        CodeRange { start, end }
    }

    /// A range holding one statement.
    fn stmt_range(&mut self, s: &'a Stmt) -> CodeRange {
        self.range(|me| me.lower_stmt(s))
    }

    // ---------------------------------------------------------------
    // Pools
    // ---------------------------------------------------------------

    fn const_idx(&mut self, v: Value) -> u32 {
        let key = match v {
            Value::Int(i) => ConstKey::Int(i),
            Value::Float(f) => ConstKey::Float(f.to_bits()),
            Value::Ptr(p) => ConstKey::Ptr(p),
        };
        if let Some(&i) = self.const_map.get(&key) {
            return i;
        }
        let i = self.consts.len() as u32;
        self.consts.push(v);
        self.const_map.insert(key, i);
        i
    }

    fn load_const(&mut self, dst: u16, v: Value) {
        let idx = self.const_idx(v);
        self.emit(Instr::Const { dst, idx });
    }

    fn name_idx(&mut self, name: &str) -> u32 {
        if let Some(&i) = self.name_map.get(name) {
            return i;
        }
        let i = self.names.len() as u32;
        self.names.push(name.to_string());
        self.name_map.insert(name.to_string(), i);
        i
    }

    /// Intern an access site, deduplicated exactly like the trace's
    /// `(span, direction)` key so dynamic first-use interning reproduces
    /// the interpreter's site numbering.
    fn site(&mut self, e: &Expr, write: bool) -> u32 {
        let span = e.span();
        let key = (
            ((span.start as u64) << 32) | span.end as u64,
            ((span.pos.line as u64) << 32) | ((span.pos.col as u64) << 1) | write as u64,
        );
        if let Some(&i) = self.site_map.get(&key) {
            return i;
        }
        let var = self.name_idx(e.root_var().unwrap_or("<ptr>"));
        let i = self.sites.len() as u32;
        self.sites.push(SiteDesc { span, write, var, text: print_expr(e) });
        self.site_map.insert(key, i);
        i
    }

    // ---------------------------------------------------------------
    // Registers, slots, scopes
    // ---------------------------------------------------------------

    /// Reserve `n` consecutive registers. Live registers are bounded by
    /// the parser's nesting budget (source-sized lists never occupy the
    /// register file), so the window cannot overflow `u16`.
    fn alloc_regs(&mut self, n: usize) -> u16 {
        let r = self.next_reg;
        self.next_reg = u16::try_from(usize::from(r) + n).expect("register window fits u16");
        self.max_reg = self.max_reg.max(self.next_reg);
        r
    }

    fn alloc_reg(&mut self) -> u16 {
        self.alloc_regs(1)
    }

    fn alloc_slot(&mut self) -> u32 {
        let s = self.next_slot;
        assert!(s < GLOBAL_BIT, "slot ids fit below GLOBAL_BIT");
        self.next_slot += 1;
        s
    }

    fn alloc_global(&mut self, name: &str) -> u32 {
        let s = self.next_global;
        assert!(s < GLOBAL_BIT, "global ids fit below GLOBAL_BIT");
        self.next_global += 1;
        let name = self.name_idx(name);
        self.global_names.push(name);
        s | GLOBAL_BIT
    }

    fn bind_name(&mut self, name: &'a str, info: ScopeInfo) {
        self.scopes
            .last_mut()
            .expect("a scope is always open while lowering statements")
            .insert(name, info);
    }

    /// The interpreter's `lookup`: innermost function scope outward,
    /// then globals.
    fn lookup(&self, name: &str) -> Option<ScopeInfo> {
        self.frame_binding(name).or_else(|| self.globals.get(name).copied())
    }

    /// The interpreter's `outer_binding`: skip the innermost occurrence
    /// in the function scopes, take the next, else the global binding.
    fn outer_binding(&self, name: &str) -> Option<ScopeInfo> {
        let mut found_inner = false;
        for s in self.scopes.iter().rev() {
            if let Some(i) = s.get(name) {
                if found_inner {
                    return Some(*i);
                }
                found_inner = true;
            }
        }
        self.globals.get(name).copied()
    }

    /// Lookup excluding the top (privatization) scope, as the
    /// interpreter's reduction merge does after removing the private
    /// binding.
    fn lookup_below_top(&self, name: &str) -> Option<ScopeInfo> {
        let n = self.scopes.len();
        for s in self.scopes[..n.saturating_sub(1)].iter().rev() {
            if let Some(i) = s.get(name) {
                return Some(*i);
            }
        }
        self.globals.get(name).copied()
    }

    /// Binding in the function scopes only (no globals), innermost
    /// first — the interpreter's lastprivate `inner` lookup.
    fn frame_binding(&self, name: &str) -> Option<ScopeInfo> {
        for s in self.scopes.iter().rev() {
            if let Some(i) = s.get(name) {
                return Some(*i);
            }
        }
        None
    }

    /// The compiled function for `def` with `params` bound, queued for
    /// compilation on first request.
    fn variant(&mut self, def: u32, params: Params) -> u32 {
        if let Some(&f) = self.variants.get(&(def, params)) {
            return f;
        }
        let f = (self.defs.len() + self.queued.len()) as u32;
        self.variants.insert((def, params), f);
        self.queued.push((def, params));
        f
    }

    // ---------------------------------------------------------------
    // Unit entry
    // ---------------------------------------------------------------

    fn lower_unit(mut self, unit: &'a TranslationUnit) -> Program {
        // Pass 1: function table (the interpreter's HashMap insert —
        // later definitions of the same name win) and every name a
        // `threadprivate` directive can add.
        let mut first_defined: Vec<&'a str> = Vec::new();
        let mut threadprivate = Vec::new();
        for item in &unit.items {
            match item {
                Item::Func(f) => {
                    let def = self.defs.len() as u32;
                    if self.func_idx.insert(f.name.as_str(), def).is_none() {
                        first_defined.push(f.name.as_str());
                    }
                    let full = Params::Scalars(f.params.len());
                    self.variants.insert((def, full), def);
                    self.defs.push(f);
                    for st in &f.body.stmts {
                        collect_threadprivate(st, &mut self.tp_names);
                    }
                }
                Item::Pragma(d) => {
                    if let DirectiveKind::Threadprivate(vars) = &d.kind {
                        for v in vars {
                            threadprivate.push(self.name_idx(v));
                            if !self.tp_names.contains(&v.as_str()) {
                                self.tp_names.push(v.as_str());
                            }
                        }
                    }
                }
                Item::Global(_) => {}
            }
        }

        // Globals, run once before main.
        let global_init = self.range(|me| {
            for item in &unit.items {
                if let Item::Global(d) = item {
                    me.lower_decl(d, true);
                }
            }
        });
        let global_regs = self.max_reg;

        // Pass 2: every definition with all its parameters bound, in
        // definition order; then the entry points and the variants
        // calls asked for.
        for def in 0..self.defs.len() as u32 {
            let f = self.lower_func(def, Params::Scalars(self.defs[def as usize].params.len()));
            self.funcs.push(f);
        }
        let main = self.func_idx.get("main").copied();
        let library = match main {
            Some(_) => Vec::new(),
            None => first_defined
                .iter()
                .map(|name| self.variant(self.func_idx[name], Params::Buffers))
                .collect(),
        };
        while self.funcs.len() < self.defs.len() + self.queued.len() {
            let (def, params) = self.queued[self.funcs.len() - self.defs.len()];
            let f = self.lower_func(def, params);
            self.funcs.push(f);
        }

        // Patch jump targets.
        let mut instrs = self.instrs;
        for (pc, fix, l) in &self.fixups {
            let target = self.labels[*l as usize];
            assert_ne!(target, u32::MAX, "every label is bound");
            match (&mut instrs[*pc as usize], fix) {
                (Instr::Jmp { to }, Fix::To)
                | (Instr::Jz { to, .. }, Fix::To)
                | (Instr::Jnz { to, .. }, Fix::To)
                | (Instr::ListGuard { to, .. }, Fix::To) => *to = target,
                (Instr::Dir { brk, .. }, Fix::DirBrk) => *brk = target,
                (Instr::Dir { cont, .. }, Fix::DirCont) => *cont = target,
                _ => unreachable!("fixups only patch jumps and directives"),
            }
        }

        Program {
            instrs,
            costs: self.costs,
            consts: self.consts,
            sites: self.sites,
            names: self.names,
            dirs: self.dirs,
            ws: self.ws,
            sections: self.sections,
            funcs: self.funcs,
            main,
            library,
            threadprivate,
            errors: self.errors,
            locs: self.locs,
            global_init,
            global_names: self.global_names,
            global_regs,
        }
    }

    /// Compile one definition's body with `params` bound.
    fn lower_func(&mut self, def: u32, params: Params) -> FuncIr {
        let f = self.defs[def as usize];
        self.scopes = vec![HashMap::new()];
        self.next_slot = 0;
        self.next_reg = 0;
        self.max_reg = 0;
        self.loops.clear();
        let (bound, array) = match params {
            Params::Scalars(k) => (k, false),
            Params::Buffers => (f.params.len(), true),
        };
        for p in &f.params[..bound] {
            let slot = self.alloc_slot();
            self.bind_name(p.name.as_str(), ScopeInfo { slot, array });
        }
        let entry = self.range(|me| me.lower_block(&f.body));
        self.scopes.clear();
        FuncIr {
            name: f.name.clone(),
            entry,
            n_regs: self.max_reg,
            n_slots: self.next_slot,
            n_params: bound as u32,
        }
    }
}

/// Append every name a statement-level `threadprivate` directive in `s`
/// lists.
fn collect_threadprivate<'a>(s: &'a Stmt, out: &mut Vec<&'a str>) {
    if let Stmt::Omp { dir: Directive { kind: DirectiveKind::Threadprivate(vars), .. }, .. } = s {
        for v in vars {
            if !out.contains(&v.as_str()) {
                out.push(v.as_str());
            }
        }
    }
    s.children().for_each(|c| collect_threadprivate(c, out));
}

// -------------------------------------------------------------------
// Expressions
// -------------------------------------------------------------------

impl<'a> Lowerer<'a> {
    /// Lower `e` into a fresh register.
    fn expr(&mut self, e: &'a Expr) -> u16 {
        let dst = self.alloc_reg();
        self.expr_into(e, dst);
        dst
    }

    /// Lower `e` for its effects only, into a register released at once.
    fn expr_for_effect(&mut self, e: &'a Expr) {
        let t = self.expr(e);
        self.next_reg = t;
    }

    /// Lower `e` and push its value onto the argument stack.
    fn push_arg(&mut self, e: &'a Expr) {
        let t = self.expr(e);
        self.emit(Instr::Arg { src: t });
        self.next_reg = t;
    }

    /// Lower `e` so its value ends in `dst`. Charges the `eval()` entry
    /// spend; temporaries are released before returning.
    fn expr_into(&mut self, e: &'a Expr, dst: u16) {
        let mark = self.next_reg;
        self.charge(1);
        match e {
            Expr::IntLit { value, .. } => self.load_const(dst, Value::Int(*value)),
            Expr::FloatLit { value, .. } => self.load_const(dst, Value::Float(*value)),
            Expr::CharLit { value, .. } => self.load_const(dst, Value::Int(*value as i64)),
            Expr::StrLit { .. } => self.load_const(dst, Value::Ptr(0)),
            Expr::Ident { name, .. } => match self.lookup(name) {
                // Array decays to pointer; not a memory access.
                Some(info) if info.array => self.emit(Instr::SlotAddr { dst, slot: info.slot }),
                Some(info) => {
                    let site = self.site(e, false);
                    self.emit(Instr::LoadScalar { dst, slot: info.slot, site });
                }
                None => self.trap(RtError::Unknown(name.clone())),
            },
            Expr::Index { .. } => {
                let site = self.site(e, false);
                match self.lower_lvalue(e) {
                    Place::Slot(slot) => self.emit(Instr::LoadScalar { dst, slot, site }),
                    Place::Addr(ptr) => self.emit(Instr::LoadInd { dst, ptr, site }),
                }
            }
            Expr::Unary { op, expr, .. } => match op {
                UnOp::Neg => {
                    self.expr_into(expr, dst);
                    self.emit(Instr::Un { op: ArithUn::Neg, dst, src: dst });
                }
                UnOp::Not => {
                    self.expr_into(expr, dst);
                    self.emit(Instr::Un { op: ArithUn::Not, dst, src: dst });
                }
                UnOp::BitNot => {
                    self.expr_into(expr, dst);
                    self.emit(Instr::Un { op: ArithUn::BitNot, dst, src: dst });
                }
                UnOp::Deref => {
                    let site = self.site(e, false);
                    match self.lower_lvalue(e) {
                        Place::Slot(slot) => self.emit(Instr::LoadScalar { dst, slot, site }),
                        Place::Addr(ptr) => self.emit(Instr::LoadInd { dst, ptr, site }),
                    }
                }
                UnOp::AddrOf => match self.lower_lvalue(expr) {
                    Place::Slot(slot) => self.emit(Instr::SlotAddr { dst, slot }),
                    Place::Addr(p) => self.emit(Instr::ToAddr { dst, src: p }),
                },
            },
            Expr::Binary { op, lhs, rhs, .. } => match op {
                BinOp::And => {
                    let l_false = self.new_label();
                    let l_end = self.new_label();
                    self.expr_into(lhs, dst);
                    self.jz(dst, l_false);
                    self.expr_into(rhs, dst);
                    self.emit(Instr::Bool { dst, src: dst });
                    self.jmp(l_end);
                    self.bind(l_false);
                    self.load_const(dst, Value::Int(0));
                    self.bind(l_end);
                }
                BinOp::Or => {
                    let l_true = self.new_label();
                    let l_end = self.new_label();
                    self.expr_into(lhs, dst);
                    self.jnz(dst, l_true);
                    self.expr_into(rhs, dst);
                    self.emit(Instr::Bool { dst, src: dst });
                    self.jmp(l_end);
                    self.bind(l_true);
                    self.load_const(dst, Value::Int(1));
                    self.bind(l_end);
                }
                _ => {
                    self.expr_into(lhs, dst);
                    let b = self.alloc_reg();
                    self.expr_into(rhs, b);
                    self.emit(Instr::Bin { op: *op, dst, a: dst, b });
                }
            },
            Expr::Assign { op, lhs, rhs, .. } => {
                // rhs first, then lvalue resolution (interpreter order).
                self.expr_into(rhs, dst);
                let place = self.lower_lvalue(lhs);
                if let Some(b) = op.bin_op() {
                    let site_r = self.site(lhs, false);
                    let old = self.alloc_reg();
                    match &place {
                        Place::Slot(slot) => {
                            self.emit(Instr::LoadScalar { dst: old, slot: *slot, site: site_r })
                        }
                        Place::Addr(ptr) => {
                            self.emit(Instr::LoadInd { dst: old, ptr: *ptr, site: site_r })
                        }
                    }
                    self.emit(Instr::Bin { op: b, dst, a: old, b: dst });
                }
                let site_w = self.site(lhs, true);
                match place {
                    Place::Slot(slot) => {
                        self.emit(Instr::StoreScalar { src: dst, slot, site: site_w })
                    }
                    Place::Addr(ptr) => self.emit(Instr::StoreInd { src: dst, ptr, site: site_w }),
                }
            }
            Expr::IncDec { inc, prefix, expr, .. } => {
                let site_r = self.site(expr, false);
                let site_w = self.site(expr, true);
                let ptr = match self.lower_lvalue(expr) {
                    Place::Slot(slot) => {
                        let p = self.alloc_reg();
                        self.emit(Instr::SlotAddr { dst: p, slot });
                        p
                    }
                    Place::Addr(p) => p,
                };
                self.emit(Instr::IncDec { dst, ptr, site_r, site_w, inc: *inc, prefix: *prefix });
            }
            Expr::Cond { cond, then, els, .. } => {
                let l_else = self.new_label();
                let l_end = self.new_label();
                let c = self.alloc_reg();
                self.expr_into(cond, c);
                self.jz(c, l_else);
                self.expr_into(then, dst);
                self.jmp(l_end);
                self.bind(l_else);
                self.expr_into(els, dst);
                self.bind(l_end);
            }
            Expr::Cast { ty, expr, .. } => {
                self.expr_into(expr, dst);
                self.emit(Instr::CoerceV { dst, src: dst, base: ty.base, ptr: ty.pointers > 0 });
            }
            Expr::Call { callee, args, .. } => self.lower_call(callee, args, dst),
        }
        self.next_reg = mark;
    }

    /// Resolve an lvalue, mirroring the interpreter's `resolve_lvalue`
    /// (no fuel of its own; subscript evaluations charge inside). A
    /// shape the interpreter cannot resolve traps and yields a register
    /// the trap keeps from ever being read.
    fn lower_lvalue(&mut self, e: &'a Expr) -> Place {
        match e {
            Expr::Ident { name, .. } => match self.lookup(name) {
                Some(info) => Place::Slot(info.slot),
                None => self.fail_lvalue(RtError::Unknown(name.clone())),
            },
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
                        let Some(info) = self.lookup(name) else {
                            return self.fail_lvalue(RtError::Unknown(name.clone()));
                        };
                        if info.array {
                            let idx0 = self.alloc_regs(idxs.len());
                            for (k, idx) in idxs.iter().enumerate() {
                                self.expr_into(idx, idx0 + k as u16);
                            }
                            let dst = self.alloc_reg();
                            let at = self.loc(name, span.pos);
                            self.emit(Instr::IndexAddr {
                                dst,
                                slot: info.slot,
                                idx0,
                                n: idxs.len() as u16,
                                at,
                            });
                            Place::Addr(dst)
                        } else {
                            // Pointer variable: read it, then offset.
                            let site = self.site(cur, false);
                            let pv = self.alloc_reg();
                            self.emit(Instr::LoadScalar { dst: pv, slot: info.slot, site });
                            let dst = self.alloc_reg();
                            self.emit(Instr::ToAddr { dst, src: pv });
                            for idx in &idxs {
                                let off = self.alloc_reg();
                                self.expr_into(idx, off);
                                self.emit(Instr::AddOff { dst, base: dst, off });
                            }
                            let at = self.loc(name, span.pos);
                            self.emit(Instr::CheckAddr { src: dst, at });
                            Place::Addr(dst)
                        }
                    }
                    other => {
                        // e.g. (p + 1)[i]: evaluate base as pointer value.
                        let dst = self.alloc_reg();
                        self.expr_into(other, dst);
                        let at = self.loc("", other.span().pos);
                        self.emit(Instr::AssertPtr { src: dst, at });
                        for idx in &idxs {
                            let off = self.alloc_reg();
                            self.expr_into(idx, off);
                            self.emit(Instr::AddOff { dst, base: dst, off });
                        }
                        Place::Addr(dst)
                    }
                }
            }
            Expr::Unary { op: UnOp::Deref, expr, .. } => {
                let dst = self.alloc_reg();
                self.expr_into(expr, dst);
                self.emit(Instr::AssertPtr { src: dst, at: DEREF });
                self.emit(Instr::CheckAddr { src: dst, at: DEREF });
                Place::Addr(dst)
            }
            Expr::Cast { expr, .. } => self.lower_lvalue(expr),
            other => self.fail_lvalue(RtError::Unsupported(format!(
                "lvalue {} at {}",
                print_expr(other),
                other.span().pos
            ))),
        }
    }

    fn fail_lvalue(&mut self, err: RtError) -> Place {
        self.trap(err);
        Place::Addr(self.alloc_reg())
    }

    fn lower_call(&mut self, callee: &'a str, args: &'a [Expr], dst: u16) {
        if let Some(need) = builtin_arity(callee).filter(|&n| args.len() < n) {
            return self.trap(arity_error(callee, need, args.len()));
        }
        match callee {
            "omp_get_thread_num" => self.emit(Instr::GetTid { dst }),
            "omp_get_num_threads" => self.emit(Instr::GetNumThreads { dst }),
            "omp_get_max_threads" => self.emit(Instr::GetMaxThreads { dst }),
            "omp_set_num_threads" | "free" | "assert" | "srand" => {
                self.expr(&args[0]);
                self.load_const(dst, Value::Int(0));
            }
            "omp_get_wtime" => self.load_const(dst, Value::Float(0.0)),
            "omp_init_lock"
            | "omp_destroy_lock"
            | "omp_init_nest_lock"
            | "omp_destroy_nest_lock" => self.load_const(dst, Value::Int(0)),
            "omp_set_lock" | "omp_set_nest_lock" => {
                let h = self.expr(&args[0]);
                self.emit(Instr::LockAcq { src: h });
                self.load_const(dst, Value::Int(0));
            }
            "omp_unset_lock" | "omp_unset_nest_lock" => {
                let h = self.expr(&args[0]);
                self.emit(Instr::LockRel { src: h });
                self.load_const(dst, Value::Int(0));
            }
            "omp_test_lock" => {
                let h = self.expr(&args[0]);
                self.emit(Instr::LockAcq { src: h });
                self.load_const(dst, Value::Int(1));
            }
            "printf" => {
                for a in args.iter().skip(1) {
                    self.push_arg(a);
                }
                self.emit(Instr::Printf { n: args.len().saturating_sub(1) as u32 });
                self.load_const(dst, Value::Int(0));
            }
            "malloc" => {
                let bytes = self.expr(&args[0]);
                self.emit(Instr::Malloc { dst, bytes });
            }
            "calloc" => {
                let bytes = self.expr(&args[0]);
                let sz = self.expr(&args[1]);
                self.emit(Instr::Calloc { dst, bytes, sz });
            }
            "fabs" | "fabsf" => self.math1(MathFn::Fabs, args, dst),
            "sqrt" | "sqrtf" => self.math1(MathFn::Sqrt, args, dst),
            "sin" => self.math1(MathFn::Sin, args, dst),
            "cos" => self.math1(MathFn::Cos, args, dst),
            "exp" => self.math1(MathFn::Exp, args, dst),
            "log" => self.math1(MathFn::Log, args, dst),
            "abs" => self.math1(MathFn::AbsInt, args, dst),
            "pow" => self.math2(MathFn::Pow, args, dst),
            "fmax" => self.math2(MathFn::Fmax, args, dst),
            "fmin" => self.math2(MathFn::Fmin, args, dst),
            "exit" => {
                self.expr(&args[0]);
                self.trap(RtError::Unsupported("exit() called".into()));
            }
            "rand" => self.load_const(dst, Value::Int(42)),
            _ => match self.func_idx.get(callee) {
                Some(&def) => {
                    // The interpreter zips parameters with arguments:
                    // extra arguments are never evaluated, and a short
                    // call leaves the trailing parameters unbound.
                    let n = args.len().min(self.defs[def as usize].params.len());
                    let func = self.variant(def, Params::Scalars(n));
                    for a in &args[..n] {
                        self.push_arg(a);
                    }
                    self.emit(Instr::CallUser { dst, func, n_args: n as u32 });
                }
                None => {
                    // Unknown extern: evaluate args for effects, return 0.
                    for a in args {
                        self.expr_for_effect(a);
                    }
                    self.load_const(dst, Value::Int(0));
                }
            },
        }
    }

    fn math1(&mut self, f: MathFn, args: &'a [Expr], dst: u16) {
        let src = self.expr(&args[0]);
        self.emit(Instr::Math1 { f, dst, src });
    }

    fn math2(&mut self, f: MathFn, args: &'a [Expr], dst: u16) {
        let a = self.expr(&args[0]);
        let b = self.expr(&args[1]);
        self.emit(Instr::Math2 { f, dst, a, b });
    }
}

// -------------------------------------------------------------------
// Statements and declarations
// -------------------------------------------------------------------

impl<'a> Lowerer<'a> {
    fn lower_block(&mut self, b: &'a Block) {
        self.scopes.push(HashMap::new());
        for s in &b.stmts {
            self.lower_stmt(s);
        }
        self.scopes.pop();
    }

    /// Lower a statement, charging its `exec_stmt()` entry spend.
    fn lower_stmt(&mut self, s: &'a Stmt) {
        let mark = self.next_reg;
        self.charge(1);
        match s {
            Stmt::Decl(d) => self.lower_decl(d, false),
            Stmt::Expr(e) => {
                self.expr(e);
            }
            Stmt::Empty(_) => {}
            Stmt::Block(b) => self.lower_block(b),
            Stmt::If { cond, then, els, .. } => {
                let l_end = self.new_label();
                let c = self.expr(cond);
                match els {
                    Some(e) => {
                        let l_else = self.new_label();
                        self.jz(c, l_else);
                        self.lower_stmt(then);
                        self.jmp(l_end);
                        self.bind(l_else);
                        self.lower_stmt(e);
                    }
                    None => {
                        self.jz(c, l_end);
                        self.lower_stmt(then);
                    }
                }
                self.bind(l_end);
            }
            Stmt::For(f) => self.lower_for_inner(f),
            Stmt::While { cond, body, .. } => {
                let l_cond = self.new_label();
                let l_end = self.new_label();
                self.bind(l_cond);
                let c = self.expr(cond);
                self.jz(c, l_end);
                self.loops.push((l_end, l_cond));
                self.lower_stmt(body);
                self.loops.pop();
                self.jmp(l_cond);
                self.bind(l_end);
            }
            Stmt::DoWhile { body, cond, .. } => {
                let l_body = self.new_label();
                let l_check = self.new_label();
                let l_end = self.new_label();
                self.bind(l_body);
                self.loops.push((l_end, l_check));
                self.lower_stmt(body);
                self.loops.pop();
                self.bind(l_check);
                let c = self.expr(cond);
                self.jnz(c, l_body);
                self.bind(l_end);
            }
            Stmt::Return(e, _) => {
                let src = match e {
                    Some(e) => self.expr(e),
                    None => {
                        let r = self.alloc_reg();
                        self.load_const(r, Value::Int(0));
                        r
                    }
                };
                self.emit(Instr::Ret { src });
            }
            Stmt::Break(_) => match self.loops.last() {
                Some(&(brk, _)) => self.jmp(brk),
                None => self.emit(Instr::FlowBrk),
            },
            Stmt::Continue(_) => match self.loops.last() {
                Some(&(_, cont)) => self.jmp(cont),
                None => self.emit(Instr::FlowCont),
            },
            Stmt::Omp { dir, body, .. } => self.lower_directive(dir, body.as_deref()),
        }
        self.next_reg = mark;
    }

    /// Lower a `for` loop body (no `exec_stmt` entry charge: the
    /// worksharing fallback calls `exec_for` directly).
    fn lower_for_inner(&mut self, f: &'a ForStmt) {
        self.scopes.push(HashMap::new());
        match &f.init {
            ForInit::Empty => {}
            ForInit::Decl(d) => self.lower_decl(d, false),
            ForInit::Expr(e) => {
                self.expr(e);
            }
        }
        let l_cond = self.new_label();
        let l_step = self.new_label();
        let l_end = self.new_label();
        self.bind(l_cond);
        if let Some(c) = &f.cond {
            let r = self.expr(c);
            self.jz(r, l_end);
        }
        self.loops.push((l_end, l_step));
        self.lower_stmt(&f.body);
        self.loops.pop();
        self.bind(l_step);
        if let Some(st) = &f.step {
            self.expr(st);
        }
        self.jmp(l_cond);
        self.bind(l_end);
        self.scopes.pop();
    }

    /// Lower a declaration: dims and init are evaluated *before* the name
    /// binds (mirroring `exec_decl`'s insertion order).
    fn lower_decl(&mut self, d: &'a Decl, global: bool) {
        for v in &d.vars {
            let mark = self.next_reg;
            let dims = &v.ty.dims;
            // Extents go to registers; a declarator too long for the
            // instruction's register count passes them all as arguments.
            let (spill, in_regs) =
                dims.split_at(if dims.len() > REG_DIMS { dims.len() } else { 0 });
            for dim in spill {
                match dim {
                    Some(e) => self.push_arg(e),
                    None => {
                        let t = self.alloc_reg();
                        self.load_const(t, Value::Int(0));
                        self.emit(Instr::Arg { src: t });
                        self.next_reg = t;
                    }
                }
            }
            let dims0 = self.alloc_regs(in_regs.len());
            for (k, dim) in in_regs.iter().enumerate() {
                match dim {
                    Some(e) => self.expr_into(e, dims0 + k as u16),
                    None => self.load_const(dims0 + k as u16, Value::Int(0)),
                }
            }
            let slot = if global { self.alloc_global(&v.name) } else { self.alloc_slot() };
            self.emit(Instr::AllocSlot {
                slot,
                dims0,
                n_dims: in_regs.len() as u8,
                spill: spill.len() as u32,
            });
            match &v.init {
                Some(Init::Expr(e)) => {
                    let t = self.expr(e);
                    self.emit(Instr::CoerceV {
                        dst: t,
                        src: t,
                        base: d.ty.base,
                        ptr: v.ty.pointers > 0,
                    });
                    self.emit(Instr::StoreSlotInit { slot, src: t });
                }
                Some(Init::List(es)) => {
                    let l_end = self.new_label();
                    for (i, e) in es.iter().enumerate() {
                        let pc = self.instrs.len() as u32;
                        self.emit(Instr::ListGuard { slot, i: i as u32, to: 0 });
                        self.fixups.push((pc, Fix::To, l_end));
                        let t = self.expr(e);
                        self.emit(Instr::CoerceV { dst: t, src: t, base: d.ty.base, ptr: false });
                        self.emit(Instr::ListStore { slot, i: i as u32, src: t });
                        self.next_reg = t;
                    }
                    self.bind(l_end);
                }
                None => {}
            }
            let info = ScopeInfo { slot, array: !v.ty.dims.is_empty() };
            if global {
                self.globals.insert(v.name.as_str(), info);
            } else {
                self.bind_name(v.name.as_str(), info);
            }
            self.next_reg = mark;
        }
    }
}

// -------------------------------------------------------------------
// Directives
// -------------------------------------------------------------------

/// What a forking directive's threads run.
#[derive(Clone, Copy, PartialEq, Eq)]
enum ForkKind {
    Plain,
    Loop,
    Sections,
}

impl<'a> Lowerer<'a> {
    /// Append a descriptor and emit the `Dir` instruction referencing it
    /// (carrying whatever fuel charge is pending).
    fn push_dir(&mut self, d: DirIr) {
        let id = self.dirs.len() as u32;
        self.dirs.push(d);
        self.emit_dir(id);
    }

    /// Lower `#pragma omp …` applied to `body`. Descriptor code ranges
    /// are emitted inline, jumped over by the fall-through path; the
    /// statement's entry charge rides on that jump.
    fn lower_directive(&mut self, dir: &'a Directive, body: Option<&'a Stmt>) {
        use DirectiveKind as DK;
        // Rangeless descriptors first (no jump needed).
        match &dir.kind {
            DK::Barrier => return self.push_dir(DirIr::Barrier),
            DK::Flush(_) => return self.push_dir(DirIr::Flush),
            DK::Taskwait => return self.push_dir(DirIr::Taskwait),
            DK::Threadprivate(vars) => {
                let names = vars.iter().map(|v| self.name_idx(v)).collect();
                return self.push_dir(DirIr::Threadprivate(names));
            }
            DK::Section | DK::Other(_) if body.is_none() => {
                return self.push_dir(DirIr::Other { body: None })
            }
            _ => {}
        }
        let Some(body) = body else {
            return self.trap(RtError::Unsupported("directive requires a body".into()));
        };
        let l_dir = self.new_label();
        self.jmp(l_dir);
        let d = match &dir.kind {
            DK::Section | DK::Other(_) => DirIr::Other { body: Some(self.stmt_range(body)) },
            DK::Taskgroup => DirIr::Taskgroup { body: self.stmt_range(body) },
            DK::Master => DirIr::Master { body: self.stmt_range(body) },
            DK::Critical(name) => DirIr::Critical {
                name: name.clone().unwrap_or_else(|| "<anon>".into()),
                body: self.stmt_range(body),
            },
            DK::Atomic(kind) => {
                let target = atomic_target(*kind, body).map(|v| self.name_idx(v));
                DirIr::Atomic { target, body: self.stmt_range(body) }
            }
            DK::Ordered => {
                DirIr::Ordered { key: dir.span.start as usize, body: self.stmt_range(body) }
            }
            DK::For | DK::ForSimd | DK::Simd => match as_for(body) {
                Some(fs) => {
                    let plain = self.stmt_range(body);
                    DirIr::Ws(self.lower_ws(dir, fs, Some(plain)))
                }
                // Loop directive on a non-loop runs the body as-is on
                // both the in-region and orphaned paths.
                None => DirIr::Other { body: Some(self.stmt_range(body)) },
            },
            DK::Parallel | DK::Target => {
                DirIr::Parallel(self.lower_parallel(dir, body, ForkKind::Plain))
            }
            DK::ParallelFor | DK::ParallelForSimd | DK::TargetParallelFor => {
                DirIr::Parallel(self.lower_parallel(dir, body, ForkKind::Loop))
            }
            DK::ParallelSections => {
                DirIr::Parallel(self.lower_parallel(dir, body, ForkKind::Sections))
            }
            DK::Sections => {
                let plain = self.stmt_range(body);
                match body {
                    Stmt::Block(blk) => {
                        DirIr::Sections { sec: self.lower_sections(dir, blk), plain }
                    }
                    // A non-block body runs as-is, in a region or not.
                    _ => DirIr::Other { body: Some(plain) },
                }
            }
            DK::Single => {
                let plain = self.stmt_range(body);
                let (privs, body) = self.privatized(dir, |me| me.stmt_range(body));
                DirIr::Single {
                    key: dir.span.start,
                    phase_end: !dir.has_nowait(),
                    privs,
                    body,
                    plain,
                }
            }
            DK::Task => {
                let plain = self.stmt_range(body);
                let (privs, body) = self.privatized(dir, |me| me.stmt_range(body));
                DirIr::Task { privs, body, plain }
            }
            DK::Barrier | DK::Taskwait | DK::Flush(_) | DK::Threadprivate(_) => {
                unreachable!("handled above")
            }
        };
        self.bind(l_dir);
        self.push_dir(d);
    }

    fn lower_parallel(&mut self, dir: &'a Directive, body: &'a Stmt, kind: ForkKind) -> ParallelIr {
        let serial_const = dir.serial_by_clauses();
        let team = dir
            .num_threads()
            .and_then(|e| e.const_int())
            .and_then(|v| u32::try_from(v).ok())
            .filter(|v| *v > 0);

        // Serial paths carry no privatization.
        let plain_serial = self.stmt_range(body);
        let ws_serial = match (kind, as_for(body)) {
            (ForkKind::Loop, Some(fs)) => Some(self.lower_ws(dir, fs, None)),
            _ => None,
        };

        let (privs, fork) = self.privatized(dir, |me| match (kind, as_for(body), body) {
            (ForkKind::Loop, Some(fs), _) => Work::Ws(me.lower_ws(dir, fs, None)),
            (ForkKind::Sections, _, Stmt::Block(blk)) => {
                Work::Sections(me.lower_sections(dir, blk))
            }
            _ => Work::Plain(me.stmt_range(body)),
        });

        ParallelIr { serial_const, team, privs, fork, ws_serial, plain_serial }
    }

    /// Lower `f` inside the directive's privatization scope (the
    /// interpreter's `with_privatized`): clause bindings in clause order,
    /// then `threadprivate` shadows, then the reduction merges.
    fn privatized<T>(
        &mut self,
        dir: &'a Directive,
        f: impl FnOnce(&mut Self) -> T,
    ) -> (PrivSpec, T) {
        self.scopes.push(HashMap::new());
        let mut ops = Vec::new();
        for c in &dir.clauses {
            match c {
                Clause::Private(vars) | Clause::Lastprivate(vars) => {
                    for v in vars {
                        let outer = self.lookup(v);
                        let slot = self.alloc_slot();
                        ops.push(PrivOp::Fresh { slot, outer: outer.map(|i| i.slot) });
                        let array = outer.is_some_and(|i| i.array);
                        self.bind_name(v.as_str(), ScopeInfo { slot, array });
                    }
                }
                Clause::Firstprivate(vars) | Clause::Linear(vars) => {
                    for v in vars {
                        if let Some(outer) = self.lookup(v) {
                            let slot = self.alloc_slot();
                            ops.push(PrivOp::Copy { slot, outer: outer.slot });
                            self.bind_name(v.as_str(), ScopeInfo { slot, array: outer.array });
                        }
                    }
                }
                Clause::Reduction(op, vars) => {
                    for v in vars {
                        let slot = self.alloc_slot();
                        ops.push(PrivOp::Red { slot, op: *op });
                        self.bind_name(v.as_str(), ScopeInfo { slot, array: false });
                    }
                }
                _ => {}
            }
        }

        // A global that is not rebound in this frame may be declared
        // threadprivate by the time the directive runs.
        let mut tp = Vec::new();
        for k in 0..self.tp_names.len() {
            let v = self.tp_names[k];
            if self.frame_binding(v).is_some() {
                continue;
            }
            let Some(g) = self.globals.get(v).copied() else { continue };
            let slot = self.alloc_slot();
            self.bind_name(v, ScopeInfo { slot, array: g.array });
            tp.push(TpShadow { name: self.name_idx(v), slot, global: g.slot });
        }

        let out = f(self);

        // Reduction merges: first clause's operator, final binding's
        // slot, one merge per variable (the interpreter removes the
        // private binding after merging, so later clauses see nothing).
        let mut merges = Vec::new();
        let mut seen = std::collections::HashSet::new();
        for c in &dir.clauses {
            if let Clause::Reduction(op, vars) = c {
                for v in vars {
                    if !seen.insert(v.as_str()) {
                        continue;
                    }
                    let private = self.scopes.last().expect("privatization scope")[v.as_str()].slot;
                    let outer = self.lookup_below_top(v).map(|i| i.slot);
                    merges.push(RedMerge { op: *op, private, outer });
                }
            }
        }
        self.scopes.pop();
        (PrivSpec { ops, tp, merges }, out)
    }

    /// Lower a `sections` block (the interpreter's `exec_sections`):
    /// one range per statement inside the block's own scope.
    fn lower_sections(&mut self, dir: &'a Directive, blk: &'a Block) -> u32 {
        self.scopes.push(HashMap::new());
        let items: Vec<SecItem> = blk
            .stmts
            .iter()
            .map(|st| match st {
                Stmt::Omp { dir: d2, body, .. } if d2.kind == DirectiveKind::Section => {
                    SecItem::Section(body.as_deref().map(|b| self.stmt_range(b)))
                }
                other => SecItem::Shared(self.stmt_range(other)),
            })
            .collect();
        self.scopes.pop();
        let n_sections = items.iter().filter(|i| matches!(i, SecItem::Section(_))).count().max(1);
        self.sections.push(SectionsIr {
            key: dir.span.start,
            n_sections: n_sections as u32,
            items,
            phase_end: !dir.has_nowait() && !dir.kind.creates_parallelism(),
        });
        (self.sections.len() - 1) as u32
    }

    /// Lower a worksharing loop into a [`WsIr`] descriptor, replaying
    /// the interpreter's scope mutations (init, induction rebind,
    /// collapse prebinds, level-init rebinds) in execution order.
    fn lower_ws(&mut self, dir: &'a Directive, fs: &'a ForStmt, plain: Option<CodeRange>) -> u32 {
        use DirectiveKind as DK;
        self.scopes.push(HashMap::new());
        let ws = self.lower_ws_parts(dir, fs, plain);
        self.scopes.pop();
        let idx = self.ws.len() as u32;
        let phase_end =
            !dir.has_nowait() && !matches!(dir.kind, DK::Simd) && !dir.kind.creates_parallelism();
        self.ws.push(WsIr { phase_end, ..ws });
        idx
    }

    fn lower_ws_parts(
        &mut self,
        dir: &'a Directive,
        fs: &'a ForStmt,
        plain: Option<CodeRange>,
    ) -> WsIr {
        use DirectiveKind as DK;
        let init = match &fs.init {
            ForInit::Empty => WsInit::None,
            ForInit::Decl(d) => WsInit::Decl(self.range(|me| me.lower_decl(d, false))),
            ForInit::Expr(e) => WsInit::Expr(self.range(|me| {
                me.expr(e);
            })),
        };

        // Rebind the induction variable to a fresh per-thread slot; its
        // seed value comes from the post-init binding.
        let ivar_name = fs.induction_var();
        let mut ivar_slot = None;
        if let Some(v) = ivar_name {
            let src = self.lookup(v).map(|i| i.slot);
            let slot = self.alloc_slot();
            self.bind_name(v, ScopeInfo { slot, array: false });
            ivar_slot = Some((slot, src));
        }

        // Pre-bind collapsed inner induction variables.
        let mut prebind = Vec::new();
        {
            let mut nested = fs;
            for _ in 1..dir.collapse() {
                let Some(nf) = as_for(&nested.body) else { break };
                if let Some(v) = nf.induction_var() {
                    let slot = self.alloc_slot();
                    self.bind_name(v, ScopeInfo { slot, array: false });
                    prebind.push(slot);
                }
                nested = nf;
            }
        }

        // Enumeration header (cond/step see the prebind slots).
        let ivar = ivar_slot.map(|(slot, src)| {
            let cond = fs.cond.as_ref().map(|c| self.expr_code(c));
            let step = fs.step.as_ref().map(|st| {
                self.range(|me| {
                    me.expr(st);
                })
            });
            IvarIr { src, slot, cond, step }
        });

        // Collapse walk: enumerable rectangular inner levels.
        let mut levels = Vec::new();
        let mut partial = None;
        let collapse = dir.collapse() as usize;
        if let Some(v) = ivar_name {
            if collapse > 1 {
                let mut outer_vars = vec![v.to_string()];
                let mut cur_for = fs;
                for _ in 1..collapse {
                    let Some(nf) = as_for(&cur_for.body) else { break };
                    let Some(nv) = nf.induction_var() else { break };
                    if for_header_mentions(nf, &outer_vars) {
                        break; // triangular nest
                    }
                    if matches!(nf.init, ForInit::Empty) {
                        break; // enumerate_inner_for bails before running anything
                    }
                    let init_range = self.range(|me| match &nf.init {
                        ForInit::Decl(d) => me.lower_decl(d, false),
                        ForInit::Expr(e) => {
                            me.expr(e);
                        }
                        ForInit::Empty => unreachable!("checked above"),
                    });
                    let (binding, cond) = match (self.lookup(nv), &nf.cond) {
                        (Some(b), Some(c)) => (b, c),
                        _ => {
                            // The init ran (rebinding/allocating), then
                            // the walk aborted: replay just the init.
                            partial = Some(init_range);
                            break;
                        }
                    };
                    let slot = binding.slot;
                    let cond = self.expr_code(cond);
                    let step = nf.step.as_ref().map(|st| {
                        self.range(|me| {
                            me.expr(st);
                        })
                    });
                    levels.push(LevelIr { init: init_range, slot, cond, step });
                    outer_vars.push(nv.to_string());
                    cur_for = nf;
                }
            }
        }
        let use_collapse = ivar.is_some() && 1 + levels.len() == collapse;

        // Innermost body after the collapsed levels.
        let collapse_depth = if use_collapse { 1 + levels.len() } else { 1 };
        let innermost: &Stmt = {
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
        let body = self.stmt_range(innermost);

        // Schedule chunk expression (evaluated on cache miss, events on).
        let sched = dir.schedule().map(|(k, ch)| (*k, ch.as_ref().map(|e| self.expr_code(e))));

        // Non-canonical loops re-run the whole `for` on thread 0.
        let fallback = match ivar {
            None => Some(self.range(|me| me.lower_for_inner(fs))),
            Some(_) => None,
        };

        // lastprivate writebacks (resolved against the fully-built scope).
        let mut lastpriv = Vec::new();
        for c in &dir.clauses {
            if let Clause::Lastprivate(vars) = c {
                for v in vars {
                    let Some(inner) = self.frame_binding(v) else { continue };
                    let outer = self.outer_binding(v);
                    lastpriv.push((inner.slot, outer.map(|i| i.slot)));
                }
            }
        }

        WsIr {
            key: dir.span.start,
            plain,
            init,
            ivar,
            prebind,
            levels,
            partial,
            use_collapse,
            body,
            fallback,
            sched,
            simd_only: dir.kind == DK::Simd,
            phase_end: false, // patched by lower_ws
            lastpriv,
        }
    }

    fn expr_code(&mut self, e: &'a Expr) -> ExprCode {
        let out = self.alloc_reg();
        let range = self.range(|me| me.expr_into(e, out));
        ExprCode { range, out }
    }
}

/// Lower a parsed unit into a bytecode [`Program`]. Total: every parsed
/// kernel lowers, and running the program is observably identical to
/// running the unit on the AST interpreter.
pub fn lower(unit: &TranslationUnit) -> Program {
    Lowerer::new().lower_unit(unit)
}
