//! Bytecode executor: runs a lowered [`Program`] and produces the same
//! [`RunOutput`] the AST interpreter would.
//!
//! The executor is observationally equivalent to [`crate::interp`]:
//! identical trace (event order, interned site ids, raw heap
//! addresses), identical printed lines, identical exit code, and it
//! fails exactly where the interpreter fails, with the same error (the
//! fuel accounting errs at the same points because per-instruction
//! costs replay the interpreter's `spend()` pattern prefix-exactly, so
//! a batch check `fuel < cost` fails iff one of the mirrored spends
//! would have). It is the only engine behind the oracle; the
//! interpreter stays as the reference semantics it is tested against.
//!
//! Heap-address determinism is load-bearing: trace events carry raw
//! addresses and `Ptr` values print as hex, so every allocation here
//! happens in the same order as the interpreter's (declarations,
//! privatization cells, induction cells, per-argument call cells,
//! `malloc`/`calloc`).

use crate::interp::{
    alloc_cells, apply_reduction, array_cells, calloc_cells, extent, malloc_cells, offset_addr,
    reduction_identity, Config, Flow, RtError, RtResult, RunOutput, MAX_CALL_DEPTH, MAX_ITERATIONS,
    MAX_TEAM,
};
use crate::ir::{
    ArithUn, CodeRange, DirIr, ExprCode, FuncIr, Instr, MathFn, OracleRun, ParallelIr, PrivOp,
    PrivSpec, Program, RedMerge, SecItem, Work, WsInit, WsIr, DEREF, GLOBAL_BIT,
};
use crate::sched::Scheduler;
use crate::trace::{SiteId, SyncKey, Trace};
use crate::value::Value;
use minic::ast::TranslationUnit;
use std::collections::HashMap;
use std::rc::Rc;

/// Allocation counters for the `count-ir-allocs` proof: every code path
/// in the executor that allocates (or may reallocate) rings this bell,
/// so a test can show the count stays flat while the event count grows.
#[cfg(feature = "count-ir-allocs")]
pub mod alloc_count {
    use std::sync::atomic::{AtomicU64, Ordering};

    static ALLOCS: AtomicU64 = AtomicU64::new(0);

    /// Record one allocation inside the executor.
    pub fn note() {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
    }

    /// Allocations recorded since the last [`reset`].
    pub fn count() -> u64 {
        ALLOCS.load(Ordering::Relaxed)
    }

    /// Zero the counter.
    pub fn reset() {
        ALLOCS.store(0, Ordering::Relaxed);
    }
}

#[cfg(feature = "count-ir-allocs")]
macro_rules! note_alloc {
    () => {
        crate::exec::alloc_count::note()
    };
}
#[cfg(not(feature = "count-ir-allocs"))]
macro_rules! note_alloc {
    () => {};
}

/// Runtime state of one variable slot: a heap range plus array shape
/// (the bytecode analogue of the interpreter's `Binding`). The shape is
/// stored as the extents that matter to subscripting — those past the
/// first dimension that exceed 1 — as `(position, extent)` pairs in
/// [`Exec::shapes`]: the stride of subscript `k` is the product of the
/// extents at positions above `k`. Their product is at most `count`, so
/// a shape never holds more entries than log2 of its cell count.
#[derive(Debug, Clone, Copy)]
struct SlotState {
    addr: usize,
    count: usize,
    shape: u32,
    n_ext: u32,
}

impl SlotState {
    /// A global whose declaration has not run yet: every access fails.
    const UNBOUND: SlotState = SlotState { addr: usize::MAX, count: 0, shape: 0, n_ext: 0 };

    fn scalar(addr: usize) -> SlotState {
        SlotState { addr, count: 1, shape: 0, n_ext: 0 }
    }
}

struct Exec<'p> {
    prog: &'p Program,
    threads: usize,
    sched: Scheduler,
    heap: Vec<Value>,
    trace: Trace,
    printed: Vec<String>,
    fuel: u64,
    /// Lazily interned trace site ids, indexed by `Program::sites`.
    site_ids: Vec<Option<SiteId>>,
    regs: Vec<Value>,
    slots: Vec<SlotState>,
    reg_base: usize,
    slot_base: usize,
    global_slots: Vec<SlotState>,
    /// Argument stack (`Instr::Arg` pushes; calls, `printf` and long
    /// declarators pop).
    args: Vec<Value>,
    /// Array shapes, referenced by [`SlotState::shape`].
    shapes: Vec<(u32, usize)>,
    /// Nesting depth of user calls and directive statements.
    depth: usize,
    in_region: bool,
    tid: usize,
    agent: usize,
    phase: u32,
    team: usize,
    max_team: usize,
    next_task_agent: usize,
    pending_tasks: Vec<usize>,
    /// Globals declared threadprivate so far (name indices, in order).
    threadprivate: Vec<u32>,
    /// Name index of the variable an enclosing `atomic` protects.
    atomic_target: Option<u32>,
    suppress: bool,
    occ: HashMap<(u32, usize), usize>,
    iter_cache: HashMap<(u32, usize), Rc<Vec<usize>>>,
    winner_cache: HashMap<(u32, usize), usize>,
    section_cache: HashMap<(u32, usize), Rc<Vec<usize>>>,
}

impl<'p> Exec<'p> {
    fn reg(&self, r: u16) -> Value {
        self.regs[self.reg_base + r as usize]
    }

    fn set_reg(&mut self, r: u16, v: Value) {
        let i = self.reg_base + r as usize;
        self.regs[i] = v;
    }

    fn slot(&self, s: u32) -> SlotState {
        if s & GLOBAL_BIT != 0 {
            self.global_slots[(s & !GLOBAL_BIT) as usize]
        } else {
            self.slots[self.slot_base + s as usize]
        }
    }

    fn set_slot(&mut self, s: u32, st: SlotState) {
        if s & GLOBAL_BIT != 0 {
            self.global_slots[(s & !GLOBAL_BIT) as usize] = st;
        } else {
            let i = self.slot_base + s as usize;
            self.slots[i] = st;
        }
    }

    fn alloc(&mut self, count: usize) -> RtResult<usize> {
        note_alloc!();
        alloc_cells(&mut self.heap, count)
    }

    /// Allocate a fresh scalar cell holding `v`.
    fn alloc_scalar(&mut self, v: Value) -> RtResult<SlotState> {
        let addr = self.alloc(1)?;
        self.heap[addr] = v;
        Ok(SlotState::scalar(addr))
    }

    /// Allocate storage shaped like `like`.
    fn alloc_like(&mut self, like: SlotState) -> RtResult<SlotState> {
        Ok(SlotState { addr: self.alloc(like.count)?, ..like })
    }

    /// Allocate a declarator's storage: its extents are the top `spill`
    /// argument-stack values (popped) followed by registers
    /// `dims0..dims0+n_dims`.
    fn alloc_decl(&mut self, dims0: u16, n_dims: u8, spill: u32) -> RtResult<SlotState> {
        let spill = spill as usize;
        let spilled = self.args.len() - spill;
        let total = spill + n_dims as usize;
        let extent_at = |me: &Self, k: usize| {
            extent(if k < spill {
                me.args[spilled + k]
            } else {
                me.reg(dims0 + (k - spill) as u16)
            })
        };
        let count =
            array_cells((0..total).map(|k| extent_at(self, k))).ok_or(RtError::HeapExhausted)?;
        let addr = self.alloc(count)?;
        let shape = self.shapes.len();
        for k in 1..total {
            let d = extent_at(self, k);
            if d > 1 {
                self.shapes.push((k as u32, d));
            }
        }
        self.args.truncate(spilled);
        Ok(SlotState {
            addr,
            count,
            shape: shape as u32,
            n_ext: (self.shapes.len() - shape) as u32,
        })
    }

    /// The interpreter's error when `slot` is a global whose declaration
    /// has not run yet (only a function called from a global
    /// initializer can reach one).
    fn unbound(&self, slot: u32) -> Option<RtError> {
        let g = (slot & !GLOBAL_BIT) as usize;
        (slot & GLOBAL_BIT != 0 && self.global_slots[g].count == 0)
            .then(|| RtError::Unknown(self.prog.names[self.prog.global_names[g] as usize].clone()))
    }

    /// `err`, unless `slot` is an unbound global.
    fn unbound_or(&self, slot: u32, err: RtError) -> RtError {
        self.unbound(slot).unwrap_or(err)
    }

    fn load(&self, addr: usize) -> RtResult<Value> {
        self.heap.get(addr).copied().ok_or_else(|| RtError::BadAddress(format!("load @{addr}")))
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

    fn addr_of(&self, v: Value) -> usize {
        match v {
            Value::Ptr(p) => p,
            other => other.as_int().max(0) as usize,
        }
    }

    /// The address in register `r`, which lowering guarantees is a
    /// `Ptr` (it was produced by an address instruction).
    fn ptr_of(&self, r: u16) -> usize {
        match self.reg(r) {
            Value::Ptr(p) => p,
            other => unreachable!("address register holds {other:?}"),
        }
    }

    /// Pop the top `n` argument-stack values.
    fn pop_args(&mut self, n: usize) -> std::vec::Drain<'_, Value> {
        let base = self.args.len() - n;
        self.args.drain(base..)
    }

    fn emit_access(&mut self, addr: usize, site: u32) {
        if self.suppress || !self.in_region {
            return;
        }
        let prog = self.prog;
        let d = &prog.sites[site as usize];
        let sid = match self.site_ids[site as usize] {
            Some(id) => id,
            None => {
                note_alloc!();
                let id = self.trace.intern_site(d.span, d.write, || {
                    (prog.names[d.var as usize].clone(), d.text.clone())
                });
                self.site_ids[site as usize] = Some(id);
                id
            }
        };
        let atomic = self.atomic_target == Some(d.var);
        self.trace.push_access_flags(self.agent, self.phase, addr, sid, d.write, atomic);
    }

    fn emit_acquire(&mut self, key: &SyncKey) {
        if !self.in_region {
            return;
        }
        let id = self.trace.intern_sync(key);
        self.trace.push_acquire(self.agent, self.phase, id);
    }

    fn emit_release(&mut self, key: &SyncKey) {
        if !self.in_region {
            return;
        }
        let id = self.trace.intern_sync(key);
        self.trace.push_release(self.agent, self.phase, id);
    }

    fn emit_task_wait(&mut self, children: &[usize]) {
        if !children.is_empty() && self.in_region {
            self.trace.push_task_wait(self.agent, self.phase, children);
        }
    }

    /// The next occurrence number of construct `key` on this thread.
    fn next_occ(&mut self, key: u32) -> usize {
        let e = self.occ.entry((key, self.tid)).or_insert(0);
        *e += 1;
        *e - 1
    }

    // ------------------------------------------------------------------
    // Instruction dispatch
    // ------------------------------------------------------------------

    fn run_range(&mut self, range: CodeRange) -> RtResult<Flow> {
        let prog = self.prog;
        let mut pc = range.start as usize;
        loop {
            let cost = prog.costs[pc] as u64;
            if self.fuel < cost {
                return Err(RtError::FuelExhausted);
            }
            self.fuel -= cost;
            match prog.instrs[pc] {
                Instr::Nop => {}
                Instr::Const { dst, idx } => self.set_reg(dst, prog.consts[idx as usize]),
                Instr::SlotAddr { dst, slot } => {
                    let st = self.slot(slot);
                    if st.count == 0 {
                        return Err(
                            self.unbound_or(slot, RtError::BadAddress("unbound slot".into()))
                        );
                    }
                    self.set_reg(dst, Value::Ptr(st.addr));
                }
                Instr::LoadScalar { dst, slot, site } => {
                    let st = self.slot(slot);
                    let v = self.load(st.addr).map_err(|e| self.unbound_or(slot, e))?;
                    self.emit_access(st.addr, site);
                    self.set_reg(dst, v);
                }
                Instr::StoreScalar { src, slot, site } => {
                    let st = self.slot(slot);
                    let v = self.reg(src);
                    self.store(st.addr, v).map_err(|e| self.unbound_or(slot, e))?;
                    self.emit_access(st.addr, site);
                }
                Instr::IndexAddr { dst, slot, idx0, n, at } => {
                    let st = self.slot(slot);
                    let shape = &self.shapes[st.shape as usize..(st.shape + st.n_ext) as usize];
                    let mut flat = 0usize;
                    for k in 0..n as usize {
                        let i = self.reg(idx0 + k as u16).as_int().max(0) as usize;
                        let stride: usize = shape
                            .iter()
                            .filter(|&&(p, _)| p as usize > k)
                            .map(|&(_, d)| d)
                            .product();
                        flat = flat.saturating_add(i.saturating_mul(stride));
                    }
                    if flat >= st.count {
                        if let Some(e) = self.unbound(slot) {
                            return Err(e);
                        }
                        let (name, pos) = prog.locs[at as usize];
                        return Err(RtError::BadAddress(format!(
                            "{}[{flat}] out of bounds ({} elements) at {pos}",
                            prog.names[name as usize], st.count
                        )));
                    }
                    self.set_reg(dst, Value::Ptr(st.addr + flat));
                }
                Instr::ToAddr { dst, src } => {
                    let a = self.addr_of(self.reg(src));
                    self.set_reg(dst, Value::Ptr(a));
                }
                Instr::AddOff { dst, base, off } => {
                    let a = offset_addr(self.ptr_of(base), self.reg(off).as_int())?;
                    self.set_reg(dst, Value::Ptr(a));
                }
                Instr::AssertPtr { src, at } => {
                    if !matches!(self.reg(src), Value::Ptr(_)) {
                        return Err(RtError::BadAddress(match at {
                            DEREF => "deref of non-pointer".into(),
                            at => {
                                format!("subscript of non-pointer at {}", prog.locs[at as usize].1)
                            }
                        }));
                    }
                }
                Instr::CheckAddr { src, at } => {
                    let p = self.ptr_of(src);
                    if p == 0 || p >= self.heap.len() {
                        return Err(RtError::BadAddress(match at {
                            DEREF => "deref out of bounds".into(),
                            at => {
                                let (name, pos) = prog.locs[at as usize];
                                format!("*{} out of bounds at {pos}", prog.names[name as usize])
                            }
                        }));
                    }
                }
                Instr::LoadInd { dst, ptr, site } => {
                    let p = self.ptr_of(ptr);
                    let v = self.load(p)?;
                    self.emit_access(p, site);
                    self.set_reg(dst, v);
                }
                Instr::StoreInd { src, ptr, site } => {
                    let p = self.ptr_of(ptr);
                    let v = self.reg(src);
                    self.store(p, v)?;
                    self.emit_access(p, site);
                }
                Instr::IncDec { dst, ptr, site_r, site_w, inc, prefix } => {
                    let p = self.ptr_of(ptr);
                    let old = self.load(p)?;
                    self.emit_access(p, site_r);
                    let delta: i64 = if inc { 1 } else { -1 };
                    let new = match old {
                        Value::Int(v) => Value::Int(v.wrapping_add(delta)),
                        Value::Float(f) => Value::Float(f + delta as f64),
                        Value::Ptr(q) => Value::Ptr(offset_addr(q, delta)?),
                    };
                    self.store(p, new)?;
                    self.emit_access(p, site_w);
                    self.set_reg(dst, if prefix { new } else { old });
                }
                Instr::Un { op, dst, src } => {
                    let v = self.reg(src);
                    let r = match op {
                        ArithUn::Neg => match v {
                            Value::Int(i) => Value::Int(i.wrapping_neg()),
                            Value::Float(f) => Value::Float(-f),
                            Value::Ptr(_) => Value::Int(0),
                        },
                        ArithUn::Not => Value::Int(i64::from(!v.truthy())),
                        ArithUn::BitNot => Value::Int(!v.as_int()),
                    };
                    self.set_reg(dst, r);
                }
                Instr::Bin { op, dst, a, b } => {
                    let r = crate::interp::bin_op(op, self.reg(a), self.reg(b))?;
                    self.set_reg(dst, r);
                }
                Instr::Bool { dst, src } => {
                    let v = Value::Int(i64::from(self.reg(src).truthy()));
                    self.set_reg(dst, v);
                }
                Instr::CoerceV { dst, src, base, ptr } => {
                    let v = crate::interp::coerce(self.reg(src), base, ptr);
                    self.set_reg(dst, v);
                }
                Instr::Jmp { to } => {
                    pc = to as usize;
                    continue;
                }
                Instr::Jz { cond, to } => {
                    if !self.reg(cond).truthy() {
                        pc = to as usize;
                        continue;
                    }
                }
                Instr::Jnz { cond, to } => {
                    if self.reg(cond).truthy() {
                        pc = to as usize;
                        continue;
                    }
                }
                Instr::Arg { src } => {
                    note_alloc!();
                    let v = self.reg(src);
                    self.args.push(v);
                }
                Instr::AllocSlot { slot, dims0, n_dims, spill } => {
                    let st = self.alloc_decl(dims0, n_dims, spill)?;
                    self.set_slot(slot, st);
                }
                Instr::StoreSlotInit { slot, src } => {
                    let st = self.slot(slot);
                    let v = self.reg(src);
                    self.store(st.addr, v)?;
                }
                Instr::ListGuard { slot, i, to } => {
                    let st = self.slot(slot);
                    if i as usize >= st.count {
                        pc = to as usize;
                        continue;
                    }
                }
                Instr::ListStore { slot, i, src } => {
                    let st = self.slot(slot);
                    let v = self.reg(src);
                    self.store(st.addr + i as usize, v)?;
                }
                Instr::CallUser { dst, func, n_args } => {
                    let v = self.call_user(&prog.funcs[func as usize], n_args as usize)?;
                    self.set_reg(dst, v);
                }
                Instr::GetTid { dst } => self.set_reg(dst, Value::Int(self.tid as i64)),
                Instr::GetNumThreads { dst } => {
                    let n = if self.in_region { self.team as i64 } else { 1 };
                    self.set_reg(dst, Value::Int(n));
                }
                Instr::GetMaxThreads { dst } => {
                    self.set_reg(dst, Value::Int(self.threads as i64));
                }
                Instr::Printf { n } => {
                    note_alloc!();
                    let parts: Vec<String> = self
                        .pop_args(n as usize)
                        .map(|v| match v {
                            Value::Int(i) => i.to_string(),
                            Value::Float(f) => format!("{f:.6}"),
                            Value::Ptr(p) => format!("0x{p:x}"),
                        })
                        .collect();
                    self.printed.push(parts.join(" "));
                }
                Instr::Malloc { dst, bytes } => {
                    let addr = self.alloc(malloc_cells(self.reg(bytes)))?;
                    self.set_reg(dst, Value::Ptr(addr));
                }
                Instr::Calloc { dst, bytes, sz } => {
                    let addr = self.alloc(calloc_cells(self.reg(bytes), self.reg(sz)))?;
                    self.set_reg(dst, Value::Ptr(addr));
                }
                Instr::LockAcq { src } => {
                    let addr = self.addr_of(self.reg(src));
                    self.emit_acquire(&SyncKey::Lock(addr));
                }
                Instr::LockRel { src } => {
                    let addr = self.addr_of(self.reg(src));
                    self.emit_release(&SyncKey::Lock(addr));
                }
                Instr::Math1 { f, dst, src } => {
                    let v = self.reg(src);
                    let r = match f {
                        MathFn::Fabs => Value::Float(v.as_float().abs()),
                        MathFn::Sqrt => Value::Float(v.as_float().sqrt()),
                        MathFn::Sin => Value::Float(v.as_float().sin()),
                        MathFn::Cos => Value::Float(v.as_float().cos()),
                        MathFn::Exp => Value::Float(v.as_float().exp()),
                        MathFn::Log => Value::Float(v.as_float().ln()),
                        MathFn::AbsInt => Value::Int(v.as_int().wrapping_abs()),
                        MathFn::Pow | MathFn::Fmax | MathFn::Fmin => {
                            unreachable!("two-operand functions lower to Math2")
                        }
                    };
                    self.set_reg(dst, r);
                }
                Instr::Math2 { f, dst, a, b } => {
                    let x = self.reg(a).as_float();
                    let y = self.reg(b).as_float();
                    let r = match f {
                        MathFn::Pow => x.powf(y),
                        MathFn::Fmax => x.max(y),
                        MathFn::Fmin => x.min(y),
                        _ => unreachable!("one-operand functions lower to Math1"),
                    };
                    self.set_reg(dst, Value::Float(r));
                }
                Instr::Dir { id, brk, cont } => match self.run_nested_dir(id)? {
                    Flow::Normal => {}
                    Flow::Break => {
                        if brk != u32::MAX {
                            pc = brk as usize;
                            continue;
                        }
                        return Ok(Flow::Break);
                    }
                    Flow::Continue => {
                        if cont != u32::MAX {
                            pc = cont as usize;
                            continue;
                        }
                        return Ok(Flow::Continue);
                    }
                    Flow::Return(v) => return Ok(Flow::Return(v)),
                },
                Instr::End => return Ok(Flow::Normal),
                Instr::FlowBrk => return Ok(Flow::Break),
                Instr::FlowCont => return Ok(Flow::Continue),
                Instr::Ret { src } => return Ok(Flow::Return(self.reg(src))),
                Instr::Trap { err } => return Err(prog.errors[err as usize].clone()),
            }
            pc += 1;
        }
    }

    /// Run `f` in a fresh register/slot window, with `init` setting up
    /// the new frame's slots first.
    fn in_frame(
        &mut self,
        f: &FuncIr,
        init: impl FnOnce(&mut Self) -> RtResult<()>,
    ) -> RtResult<Flow> {
        let caller_rb = self.reg_base;
        let caller_sb = self.slot_base;
        let new_rb = self.regs.len();
        let new_sb = self.slots.len();
        note_alloc!();
        self.regs.resize(new_rb + f.n_regs as usize, Value::ZERO);
        self.slots.resize(new_sb + f.n_slots as usize, SlotState::scalar(0));
        self.reg_base = new_rb;
        self.slot_base = new_sb;
        let flow = init(self).and_then(|()| self.run_range(f.entry));
        self.reg_base = caller_rb;
        self.slot_base = caller_sb;
        self.regs.truncate(new_rb);
        self.slots.truncate(new_sb);
        flow
    }

    fn call_user(&mut self, f: &FuncIr, n_args: usize) -> RtResult<Value> {
        if self.depth >= MAX_CALL_DEPTH {
            return Err(RtError::CallTooDeep);
        }
        self.depth += 1;
        let flow = self.in_frame(f, |me| {
            let base = me.args.len() - n_args;
            for k in 0..n_args {
                let st = me.alloc_scalar(me.args[base + k])?;
                me.slots[me.slot_base + k] = st;
            }
            me.args.truncate(base);
            Ok(())
        });
        self.depth -= 1;
        match flow? {
            Flow::Return(v) => Ok(v),
            _ => Ok(Value::Int(0)),
        }
    }

    // ------------------------------------------------------------------
    // Directives
    // ------------------------------------------------------------------

    /// Run a directive, one level deeper (calls inside it count it).
    fn run_nested_dir(&mut self, id: u32) -> RtResult<Flow> {
        self.depth += 1;
        let flow = self.run_dir(id);
        self.depth -= 1;
        flow
    }

    fn run_dir(&mut self, id: u32) -> RtResult<Flow> {
        let prog = self.prog;
        match &prog.dirs[id as usize] {
            DirIr::Barrier => {
                if self.in_region {
                    self.phase += 1;
                }
                Ok(Flow::Normal)
            }
            DirIr::Flush => Ok(Flow::Normal),
            DirIr::Parallel(p) => self.run_parallel(p),
            DirIr::Ws(w) => {
                if self.in_region {
                    self.run_ws(*w)
                } else {
                    let plain = prog.ws[*w as usize].plain;
                    self.run_range(plain.expect("standalone worksharing loops keep a plain body"))
                }
            }
            DirIr::Master { body } => {
                if !self.in_region || self.tid == 0 {
                    self.run_range(*body)
                } else {
                    Ok(Flow::Normal)
                }
            }
            DirIr::Critical { name, body } => {
                let key = SyncKey::Critical(name.clone());
                self.emit_acquire(&key);
                let flow = self.run_range(*body)?;
                self.emit_release(&key);
                Ok(flow)
            }
            DirIr::Atomic { target, body } => {
                let saved = std::mem::replace(&mut self.atomic_target, *target);
                let flow = self.run_range(*body)?;
                self.atomic_target = saved;
                Ok(flow)
            }
            DirIr::Ordered { key, body } => {
                let k = SyncKey::Ordered(*key);
                self.emit_acquire(&k);
                let flow = self.run_range(*body)?;
                self.emit_release(&k);
                Ok(flow)
            }
            DirIr::Other { body } => match body {
                Some(r) => self.run_range(*r),
                None => Ok(Flow::Normal),
            },
            DirIr::Single { key, phase_end, privs, body, plain } => {
                if !self.in_region {
                    return self.run_range(*plain);
                }
                let cache_key = (*key, self.next_occ(*key));
                let winner = match self.winner_cache.get(&cache_key) {
                    Some(&w) => w,
                    None => {
                        let w = self.sched.single_winner();
                        self.winner_cache.insert(cache_key, w);
                        w
                    }
                };
                let flow = if self.tid == winner {
                    self.privatized(privs, |me| me.run_range(*body))?
                } else {
                    Flow::Normal
                };
                if *phase_end {
                    self.phase += 1;
                }
                Ok(flow)
            }
            DirIr::Sections { sec, plain } => {
                if self.in_region {
                    self.run_sections(*sec)
                } else {
                    self.run_range(*plain)
                }
            }
            DirIr::Task { privs, body, plain } => {
                if !self.in_region {
                    return self.run_range(*plain);
                }
                let child = self.next_task_agent;
                self.next_task_agent += 1;
                self.trace.push_task_spawn(self.agent, self.phase, child);
                self.pending_tasks.push(child);
                let parent = std::mem::replace(&mut self.agent, child);
                let flow = self.privatized(privs, |me| me.run_range(*body))?;
                self.trace.push_task_end(self.agent, self.phase);
                self.agent = parent;
                Ok(flow)
            }
            DirIr::Taskwait => {
                let children = std::mem::take(&mut self.pending_tasks);
                self.emit_task_wait(&children);
                Ok(Flow::Normal)
            }
            DirIr::Taskgroup { body } => {
                let outer = std::mem::take(&mut self.pending_tasks);
                let flow = self.run_range(*body)?;
                let children = std::mem::replace(&mut self.pending_tasks, outer);
                self.emit_task_wait(&children);
                Ok(flow)
            }
            DirIr::Threadprivate(names) => {
                self.threadprivate.extend_from_slice(names);
                Ok(Flow::Normal)
            }
        }
    }

    fn run_parallel(&mut self, p: &ParallelIr) -> RtResult<Flow> {
        // Nested parallelism runs inline on the current thread.
        if self.in_region {
            return match p.ws_serial {
                Some(w) => self.run_ws(w),
                None => self.run_range(p.plain_serial),
            };
        }
        if p.serial_const {
            return self.run_range(p.plain_serial);
        }
        let team = p.team.map(|t| t as usize).unwrap_or(self.threads).min(MAX_TEAM);
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
            // `return` out of a parallel region is non-conforming; treat
            // as finishing the region.
            self.privatized(&p.privs, |me| match p.fork {
                Work::Plain(r) => me.run_range(r),
                Work::Ws(w) => me.run_ws(w),
                Work::Sections(s) => me.run_sections(s),
            })?;
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

    /// Run `body` with the privatization plan set up around it (the
    /// interpreter's `with_privatized`); an error skips the merges.
    fn privatized(
        &mut self,
        spec: &PrivSpec,
        body: impl FnOnce(&mut Self) -> RtResult<Flow>,
    ) -> RtResult<Flow> {
        for &op in &spec.ops {
            let (slot, st) = match op {
                PrivOp::Fresh { slot, outer: Some(o) } => (slot, self.alloc_like(self.slot(o))?),
                PrivOp::Fresh { slot, outer: None } => (slot, self.alloc_scalar(Value::ZERO)?),
                // A global not yet declared stays unbound, as it does in
                // the interpreter (which then finds no outer binding).
                PrivOp::Copy { slot, outer } if self.slot(outer).count == 0 => {
                    (slot, self.slot(outer))
                }
                PrivOp::Copy { slot, outer } => {
                    let from = self.slot(outer);
                    let st = self.alloc_like(from)?;
                    self.heap.copy_within(from.addr..from.addr + from.count, st.addr);
                    (slot, st)
                }
                PrivOp::Red { slot, op } => (slot, self.alloc_scalar(reduction_identity(op))?),
            };
            self.set_slot(slot, st);
        }
        // Shadows alias their globals until declared threadprivate; then
        // each gets fresh storage, in declaration order, once.
        for t in &spec.tp {
            self.set_slot(t.slot, self.slot(t.global));
        }
        for i in 0..self.threadprivate.len() {
            let name = self.threadprivate[i];
            let Some(t) = spec.tp.iter().find(|t| t.name == name) else { continue };
            let global = self.slot(t.global);
            if global.count == 0 || self.slot(t.slot).addr != global.addr {
                continue; // not yet declared, or already shadowed
            }
            let st = self.alloc_like(global)?;
            self.set_slot(t.slot, st);
        }
        let flow = body(self)?;
        self.run_merges(&spec.merges)?;
        Ok(flow)
    }

    fn run_merges(&mut self, merges: &[RedMerge]) -> RtResult<()> {
        for &m in merges {
            let pv = self.load(self.slot(m.private).addr)?;
            if let Some(o) = m.outer {
                let ost = self.slot(o);
                let ov = self.load(ost.addr)?;
                self.store(ost.addr, apply_reduction(m.op, ov, pv))?;
            }
        }
        Ok(())
    }

    /// Run a sections block on the current thread: shared statements
    /// always, each section only on its owner (drawn once per
    /// occurrence, so the whole team agrees).
    fn run_sections(&mut self, sec: u32) -> RtResult<Flow> {
        let prog = self.prog;
        let s = &prog.sections[sec as usize];
        let cache_key = (s.key, self.next_occ(s.key));
        let owners = match self.section_cache.get(&cache_key) {
            Some(o) => Rc::clone(o),
            None => {
                note_alloc!();
                let o: Rc<Vec<usize>> = Rc::new(
                    (0..s.n_sections as usize).map(|i| self.sched.section_owner(i)).collect(),
                );
                self.section_cache.insert(cache_key, Rc::clone(&o));
                o
            }
        };
        let mut idx = 0;
        let mut flow = Flow::Normal;
        for item in &s.items {
            match *item {
                SecItem::Section(body) => {
                    let owner = owners[idx];
                    idx += 1;
                    if let Some(r) = body.filter(|_| owner == self.tid) {
                        flow = self.run_range(r)?;
                    }
                }
                SecItem::Shared(r) => flow = self.run_range(r)?,
            }
            if matches!(flow, Flow::Return(_)) {
                break;
            }
        }
        if s.phase_end {
            self.phase += 1;
        }
        Ok(flow)
    }

    // ------------------------------------------------------------------
    // Worksharing loops
    // ------------------------------------------------------------------

    fn run_ws(&mut self, wi: u32) -> RtResult<Flow> {
        let prog = self.prog;
        let ws = &prog.ws[wi as usize];
        // Init: a declaration's write stays visible, an expression's
        // write is suppressed (the induction variable is private).
        match ws.init {
            WsInit::None => {}
            WsInit::Decl(r) => {
                self.run_range(r)?;
            }
            WsInit::Expr(r) => {
                let saved = self.suppress;
                self.suppress = true;
                let res = self.run_range(r);
                self.suppress = saved;
                res?;
            }
        }
        // Rebind the induction variable to a private cell.
        let mut ivar_addr = 0usize;
        if let Some(iv) = ws.ivar {
            let init_val = match iv.src {
                Some(s) => {
                    let st = self.slot(s);
                    self.load(st.addr)?
                }
                None => Value::Int(0),
            };
            let st = self.alloc_scalar(init_val)?;
            self.set_slot(iv.slot, st);
            ivar_addr = st.addr;
        }
        // collapse(n): nested induction variables get private cells too.
        for &s in &ws.prebind {
            let st = self.alloc_scalar(Value::ZERO)?;
            self.set_slot(s, st);
        }
        // Enumerate the outer iteration space on the private cell.
        let mut outer_vals: Vec<Value> = Vec::new();
        if let Some(iv) = ws.ivar {
            if let Some(cond) = iv.cond {
                let saved = self.suppress;
                self.suppress = true;
                let res = self.enumerate_outer(cond, iv.step, ivar_addr);
                self.suppress = saved;
                outer_vals = res?;
            }
        }
        // Enumerate collapsed inner levels (side effects persist even
        // when the nest turns out non-rectangular, like the interpreter).
        let level_vals = {
            let saved = self.suppress;
            self.suppress = true;
            let res = self.enumerate_levels(ws);
            self.suppress = saved;
            res?
        };
        let n = if ws.ivar.is_none() {
            0
        } else if ws.use_collapse {
            array_cells(
                std::iter::once(outer_vals.len()).chain(level_vals.iter().map(|(_, v)| v.len())),
            )
            .filter(|&n| n <= MAX_ITERATIONS)
            .ok_or(RtError::FuelExhausted)?
        } else {
            outer_vals.len()
        };
        // Assign iterations to threads (cached so the whole team agrees).
        let cache_key = (ws.key, self.next_occ(ws.key));
        let assignment = if let Some(a) = self.iter_cache.get(&cache_key) {
            Rc::clone(a)
        } else {
            let (kind, chunk) = match ws.sched {
                Some((k, ch)) => {
                    let chunk = match ch {
                        Some(ec) => {
                            self.run_range(ec.range)?;
                            let v = self.reg(ec.out).as_int();
                            usize::try_from(v.max(1)).ok()
                        }
                        None => None,
                    };
                    (Some(k), chunk)
                }
                None => (None, None),
            };
            note_alloc!();
            let a = Rc::new(self.sched.assign_iterations(n, kind, chunk));
            self.iter_cache.insert(cache_key, Rc::clone(&a));
            a
        };
        // Execute this thread's share of the flattened iteration space.
        let mut flow = Flow::Normal;
        let mut last_owned = false;
        if ws.ivar.is_some() {
            for flat in 0..n {
                let owner = if ws.simd_only { self.tid } else { assignment[flat] };
                if owner != self.tid {
                    continue;
                }
                last_owned = flat == n - 1;
                // Row-major decomposition of the flat index.
                let mut rem = flat;
                if ws.use_collapse {
                    for (addr, vals) in level_vals.iter().rev() {
                        let idx = rem % vals.len();
                        rem /= vals.len();
                        self.heap[*addr] = vals[idx];
                    }
                    self.heap[ivar_addr] = outer_vals[rem % outer_vals.len()];
                } else {
                    self.heap[ivar_addr] = outer_vals[flat];
                }
                match self.run_range(ws.body)? {
                    Flow::Break => break,
                    Flow::Return(v) => {
                        flow = Flow::Return(v);
                        break;
                    }
                    _ => {}
                }
            }
        } else if self.tid == 0 {
            // Non-canonical loop: run whole loop on thread 0.
            if let Some(fb) = ws.fallback {
                flow = self.run_range(fb)?;
            }
        }
        // lastprivate writeback by the owner of the last iteration.
        if last_owned {
            for &(inner, outer) in &ws.lastpriv {
                let val = self.load(self.slot(inner).addr)?;
                if let Some(o) = outer {
                    let oaddr = self.slot(o).addr;
                    self.store(oaddr, val)?;
                }
            }
        }
        // Implicit barrier at the end of the worksharing construct.
        if ws.phase_end {
            self.phase += 1;
        }
        Ok(flow)
    }

    fn enumerate_outer(
        &mut self,
        cond: ExprCode,
        step: Option<CodeRange>,
        addr: usize,
    ) -> RtResult<Vec<Value>> {
        let mut vals = Vec::new();
        loop {
            if vals.len() > MAX_ITERATIONS {
                return Err(RtError::FuelExhausted);
            }
            self.run_range(cond.range)?;
            if !self.reg(cond.out).truthy() {
                return Ok(vals);
            }
            vals.push(self.load(addr)?);
            match step {
                Some(st) => {
                    self.run_range(st)?;
                }
                None => return Ok(vals),
            }
        }
    }

    fn enumerate_levels(&mut self, ws: &WsIr) -> RtResult<Vec<(usize, Vec<Value>)>> {
        let mut out = Vec::new();
        for lv in &ws.levels {
            self.run_range(lv.init)?;
            let addr = self.slot(lv.slot).addr;
            let mut vals = Vec::new();
            loop {
                if vals.len() > MAX_ITERATIONS / 4 {
                    return Err(RtError::FuelExhausted);
                }
                self.run_range(lv.cond.range)?;
                if !self.reg(lv.cond.out).truthy() {
                    break;
                }
                vals.push(self.load(addr)?);
                match lv.step {
                    Some(st) => {
                        self.run_range(st)?;
                    }
                    None => break,
                }
            }
            out.push((addr, vals));
        }
        // A level that ran its init before proving non-canonical leaves
        // those side effects behind, exactly like the interpreter.
        if let Some(p) = ws.partial {
            self.run_range(p)?;
        }
        Ok(out)
    }
}

/// Execute a lowered program, producing the same [`RunOutput`] the AST
/// interpreter yields for the source unit.
pub fn run_program(prog: &Program, cfg: &Config) -> RtResult<RunOutput> {
    let (ex, exit) = exec_program(prog, cfg)?;
    Ok(finish(ex, exit, cfg))
}

/// [`run_program`], plus a post-run snapshot of every global slot's
/// final heap contents, in slot order. The lowerer numbers global slots
/// per declarator in declaration order, so slot `i` is the `i`-th
/// file-scope variable — the same order
/// [`obs::global_names`](crate::obs::global_names) reports.
pub(crate) fn run_program_with_globals(
    prog: &Program,
    cfg: &Config,
) -> RtResult<(RunOutput, Vec<Vec<Value>>)> {
    let (ex, exit) = exec_program(prog, cfg)?;
    let globals =
        ex.global_slots.iter().map(|s| ex.heap[s.addr..s.addr + s.count].to_vec()).collect();
    Ok((finish(ex, exit, cfg), globals))
}

fn finish(ex: Exec<'_>, exit: Option<i64>, cfg: &Config) -> RunOutput {
    let mut trace = ex.trace;
    trace.threads = ex.max_team.max(cfg.threads);
    RunOutput { trace, printed: ex.printed, exit, schedule_sensitive: ex.sched.seed_sensitive() }
}

/// Drive a lowered program to completion, returning the executor (for
/// post-run state inspection) and `main`'s return value.
fn exec_program<'p>(prog: &'p Program, cfg: &Config) -> RtResult<(Exec<'p>, Option<i64>)> {
    let mut ex = Exec {
        prog,
        threads: cfg.threads,
        sched: Scheduler::new(cfg.threads, cfg.seed),
        heap: vec![Value::ZERO], // address 0 reserved (null)
        trace: Trace::new(),
        printed: Vec::new(),
        fuel: cfg.fuel,
        site_ids: vec![None; prog.sites.len()],
        regs: vec![Value::ZERO; prog.global_regs as usize],
        slots: Vec::new(),
        reg_base: 0,
        slot_base: 0,
        global_slots: vec![SlotState::UNBOUND; prog.global_names.len()],
        args: Vec::new(),
        shapes: Vec::new(),
        depth: 0,
        in_region: false,
        tid: 0,
        agent: 0,
        phase: 0,
        team: 1,
        max_team: 1,
        next_task_agent: MAX_TEAM,
        pending_tasks: Vec::new(),
        threadprivate: prog.threadprivate.clone(),
        atomic_target: None,
        suppress: false,
        occ: HashMap::new(),
        iter_cache: HashMap::new(),
        winner_cache: HashMap::new(),
        section_cache: HashMap::new(),
    };
    ex.run_range(prog.global_init)?;
    ex.regs.clear();
    let Some(main) = prog.main else {
        // Library-style kernel: every entry runs with synthetic 64-cell
        // buffer arguments.
        for &f in &prog.library {
            let f = &prog.funcs[f as usize];
            ex.in_frame(f, |me| {
                for k in 0..f.n_params as usize {
                    let addr = me.alloc(64)?;
                    me.slots[k] = SlotState { addr, count: 64, shape: 0, n_ext: 0 };
                }
                Ok(())
            })?;
        }
        return Ok((ex, None));
    };
    // argc/argv defaults.
    let main = &prog.funcs[main as usize];
    let flow = ex.in_frame(main, |me| {
        for k in 0..main.n_params as usize {
            me.slots[k] = me.alloc_scalar(if k == 0 { Value::Int(1) } else { Value::Ptr(0) })?;
        }
        Ok(())
    })?;
    let exit = match flow {
        Flow::Return(v) => Some(v.as_int()),
        _ => None,
    };
    Ok((ex, exit))
}

/// Run one seed on the bytecode executor, lowering `unit` first when no
/// program is supplied.
pub fn run_oracle(unit: &TranslationUnit, prog: Option<&Program>, cfg: &Config) -> OracleRun {
    let output = match prog {
        Some(p) => run_program(p, cfg),
        None => run_program(&crate::lower(unit), cfg),
    };
    OracleRun { output }
}
