//! Flat register-bytecode IR for the dynamic oracle.
//!
//! [`lower`](crate::lower) compiles a parsed kernel **once** into a
//! [`Program`]; [`exec`](crate::exec) then replays it under any number
//! of schedule seeds without touching the AST again. The design goals,
//! in order:
//!
//! 1. **Observable equivalence.** A successful bytecode run must produce
//!    a [`RunOutput`](crate::RunOutput) byte-identical to the tree
//!    interpreter's: same trace (event order, site numbering, interned
//!    strings), same printed lines, same exit code, same
//!    `schedule_sensitive` flag, and the same remaining-fuel trajectory
//!    (fuel is charged by a per-instruction cost side-table that mirrors
//!    the interpreter's `spend()` calls exactly).
//! 2. **Totality.** Every parsed kernel lowers. Where the interpreter
//!    would fail at run time (an unresolvable name, a non-lvalue
//!    assignment target, a builtin called with too few arguments, a
//!    directive missing its body), lowering plants an [`Instr::Trap`]
//!    that raises the same [`RtError`] at the same point, so the two
//!    engines agree on success, on the trace, and on failure.
//! 3. **Allocation-free events.** The executor hot loop (loads, stores,
//!    arithmetic, jumps) performs no heap allocation per event; strings
//!    are materialized only on first use of a site, exactly like the
//!    interpreter's interning slow path.
//!
//! Code is a single flat `Vec<Instr>` shared by every function,
//! directive body and helper range; a [`CodeRange`] names a slice of it.
//! Cold, structurally complex constructs (parallel regions, worksharing
//! loops) stay as data — [`DirIr`] / [`WsIr`] descriptors interpreted by
//! Rust handlers that call back into bytecode ranges for the hot parts.

use crate::interp::{RtError, RunOutput};
use crate::value::Value;
use minic::ast::{BaseType, BinOp};
use minic::pragma::{ReductionOp, ScheduleKind};
use minic::{Pos, Span};

/// Version of the IR format. Cached programs are keyed by this so a
/// format change can never replay stale bytecode.
pub const FORMAT_VERSION: u32 = 1;

/// Bit set in a slot id when the slot lives in the global frame.
pub const GLOBAL_BIT: u32 = 1 << 31;

/// [`Instr::CheckAddr`] / [`Instr::AssertPtr`] location for a
/// dereference (`*p`), whose error messages carry no source location.
pub const DEREF: u32 = u32::MAX;

/// A half-open range `[start, end)` of instruction indices. Every range
/// ends in a terminator (`End`, `Ret`, `FlowBrk`, `FlowCont`), so `end`
/// is only used by the disassembler.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CodeRange {
    /// First instruction index.
    pub start: u32,
    /// One past the last instruction index.
    pub end: u32,
}

/// A compiled expression: a code range plus the register its value is
/// left in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExprCode {
    /// The instructions computing the expression.
    pub range: CodeRange,
    /// Register holding the result after the range completes.
    pub out: u16,
}

/// Math builtins with dedicated instructions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[allow(missing_docs)]
pub enum MathFn {
    Fabs,
    Sqrt,
    Sin,
    Cos,
    Exp,
    Log,
    AbsInt,
    Pow,
    Fmax,
    Fmin,
}

/// Unary arithmetic ops (the lvalue-forming `*`/`&` lower structurally).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[allow(missing_docs)]
pub enum ArithUn {
    Neg,
    Not,
    BitNot,
}

/// One bytecode instruction. Register operands (`u16`) are indices into
/// the current frame's register window; slot operands (`u32`) index the
/// current frame's slot window unless [`GLOBAL_BIT`] is set.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Instr {
    /// No-op (carries accumulated fuel cost before a jump target).
    Nop,
    /// `dst = consts[idx]`.
    Const {
        /// Destination register.
        dst: u16,
        /// Constant-pool index.
        idx: u32,
    },
    /// `dst = Ptr(slot.addr)` — array decay / `&ident`.
    SlotAddr {
        /// Destination register.
        dst: u16,
        /// Source slot.
        slot: u32,
    },
    /// Load a scalar slot and record a read event.
    LoadScalar {
        /// Destination register.
        dst: u16,
        /// Source slot.
        slot: u32,
        /// Site of the read.
        site: u32,
    },
    /// Store to a scalar slot and record a write event.
    StoreScalar {
        /// Source register.
        src: u16,
        /// Destination slot.
        slot: u32,
        /// Site of the write.
        site: u32,
    },
    /// `dst = Ptr(slot.addr + flat)` where `flat` is the row-major flat
    /// index of `n` subscripts held in registers `idx0..idx0+n`
    /// (bounds-checked against the slot's element count).
    IndexAddr {
        /// Destination register.
        dst: u16,
        /// Array slot.
        slot: u32,
        /// First subscript register.
        idx0: u16,
        /// Number of subscripts.
        n: u16,
        /// Array name and position for the bounds error
        /// (index into [`Program::locs`]).
        at: u32,
    },
    /// `dst = Ptr(base)` from an arbitrary value (`Ptr(p)` → `p`,
    /// otherwise the integer clamped at 0) — pointer-base subscripting.
    ToAddr {
        /// Destination register.
        dst: u16,
        /// Source register.
        src: u16,
    },
    /// `dst = Ptr(base + off)`; errors on a negative resulting address.
    AddOff {
        /// Destination register.
        dst: u16,
        /// Base address register (holds a `Ptr`).
        base: u16,
        /// Offset register (interpreted as an integer).
        off: u16,
    },
    /// Error unless `src` holds a `Ptr` (dereference or subscript of a
    /// non-pointer).
    AssertPtr {
        /// Checked register.
        src: u16,
        /// Subscript position ([`Program::locs`]), or [`DEREF`].
        at: u32,
    },
    /// Error when the address in `src` is null or past the heap end.
    CheckAddr {
        /// Checked register (holds a `Ptr`).
        src: u16,
        /// Pointer name and position ([`Program::locs`]), or [`DEREF`].
        at: u32,
    },
    /// Load through an address register and record a read event.
    LoadInd {
        /// Destination register.
        dst: u16,
        /// Address register.
        ptr: u16,
        /// Site of the read.
        site: u32,
    },
    /// Store through an address register and record a write event.
    StoreInd {
        /// Source register.
        src: u16,
        /// Address register.
        ptr: u16,
        /// Site of the write.
        site: u32,
    },
    /// `++`/`--` on a resolved address: load (read event), bump, store
    /// (write event); `dst` gets the new (prefix) or old (postfix) value.
    IncDec {
        /// Result register.
        dst: u16,
        /// Address register.
        ptr: u16,
        /// Read-direction site.
        site_r: u32,
        /// Write-direction site.
        site_w: u32,
        /// `true` for `++`.
        inc: bool,
        /// `true` for prefix form.
        prefix: bool,
    },
    /// Unary arithmetic.
    Un {
        /// Operator.
        op: ArithUn,
        /// Destination register.
        dst: u16,
        /// Operand register.
        src: u16,
    },
    /// Binary arithmetic (the interpreter's `bin_op` table).
    Bin {
        /// Operator.
        op: BinOp,
        /// Destination register.
        dst: u16,
        /// Left operand register.
        a: u16,
        /// Right operand register.
        b: u16,
    },
    /// `dst = Int(src.truthy())` — joins `&&`/`||` lowering.
    Bool {
        /// Destination register.
        dst: u16,
        /// Source register.
        src: u16,
    },
    /// Type coercion (cast / declaration initializer).
    CoerceV {
        /// Destination register.
        dst: u16,
        /// Source register.
        src: u16,
        /// Target base type.
        base: BaseType,
        /// Whether the target is a pointer type.
        ptr: bool,
    },
    /// Unconditional jump.
    Jmp {
        /// Target instruction index.
        to: u32,
    },
    /// Jump when the register is falsy.
    Jz {
        /// Condition register.
        cond: u16,
        /// Target instruction index.
        to: u32,
    },
    /// Jump when the register is truthy.
    Jnz {
        /// Condition register.
        cond: u16,
        /// Target instruction index.
        to: u32,
    },
    /// Terminate the range with `Flow::Normal`.
    End,
    /// Terminate the range with `Flow::Break` (no lexical loop encloses
    /// the `break` in this range).
    FlowBrk,
    /// Terminate the range with `Flow::Continue`.
    FlowCont,
    /// Terminate the range with `Flow::Return(regs[src])`.
    Ret {
        /// Register holding the return value.
        src: u16,
    },
    /// Fail the run with [`Program::errors`]`[err]` — the error the
    /// interpreter raises at this point.
    Trap {
        /// Index into [`Program::errors`].
        err: u32,
    },
    /// Push a register onto the argument stack (call arguments, `printf`
    /// values, and the extents of very long declarators).
    Arg {
        /// Pushed register.
        src: u16,
    },
    /// Allocate heap cells for a declarator and set the slot's state.
    /// Dimension extents are the top `spill` argument-stack values (popped)
    /// followed by registers `dims0..dims0+n_dims`, each clamped to at
    /// least 1; zero dims allocate a single cell.
    AllocSlot {
        /// Destination slot.
        slot: u32,
        /// First dimension register.
        dims0: u16,
        /// Number of register dimensions.
        n_dims: u8,
        /// Number of leading dimensions on the argument stack.
        spill: u32,
    },
    /// Initializing store to a slot's first cell (no event).
    StoreSlotInit {
        /// Destination slot.
        slot: u32,
        /// Source register.
        src: u16,
    },
    /// Skip to `to` when initializer element `i` is outside the slot's
    /// element count.
    ListGuard {
        /// Initialized slot.
        slot: u32,
        /// Element index.
        i: u32,
        /// Jump target when out of range.
        to: u32,
    },
    /// Initializing store of list element `i` (no event).
    ListStore {
        /// Initialized slot.
        slot: u32,
        /// Element index.
        i: u32,
        /// Source register.
        src: u16,
    },
    /// Call a user function with the top `n_args` argument-stack values
    /// (popped) as its parameters.
    CallUser {
        /// Result register.
        dst: u16,
        /// Callee index into [`Program::funcs`].
        func: u32,
        /// Argument count.
        n_args: u32,
    },
    /// `dst = Int(current thread id)`.
    GetTid {
        /// Destination register.
        dst: u16,
    },
    /// `dst = Int(team size)` inside a region, else `Int(1)`.
    GetNumThreads {
        /// Destination register.
        dst: u16,
    },
    /// `dst = Int(configured thread count)`.
    GetMaxThreads {
        /// Destination register.
        dst: u16,
    },
    /// Record a printed line from the top `n` argument-stack values
    /// (popped), formatted.
    Printf {
        /// Value count.
        n: u32,
    },
    /// `dst = Ptr(alloc(max(1, bytes/8)))` with `bytes` from a register.
    Malloc {
        /// Destination register.
        dst: u16,
        /// Byte-count register.
        bytes: u16,
    },
    /// `calloc`: `dst = Ptr(alloc(max(1, bytes*sz/8)))`.
    Calloc {
        /// Destination register.
        dst: u16,
        /// Byte-count register.
        bytes: u16,
        /// Element-size register.
        sz: u16,
    },
    /// Acquire the lock named by the value in `src`.
    LockAcq {
        /// Lock-handle register.
        src: u16,
    },
    /// Release the lock named by the value in `src`.
    LockRel {
        /// Lock-handle register.
        src: u16,
    },
    /// One-argument math builtin.
    Math1 {
        /// Function.
        f: MathFn,
        /// Destination register.
        dst: u16,
        /// Operand register.
        src: u16,
    },
    /// Two-argument math builtin.
    Math2 {
        /// Function.
        f: MathFn,
        /// Destination register.
        dst: u16,
        /// First operand register.
        a: u16,
        /// Second operand register.
        b: u16,
    },
    /// Execute directive descriptor `id`. `brk`/`cont` are in-range jump
    /// targets for `Break`/`Continue` flow escaping the directive body
    /// (`u32::MAX` propagates the flow out of this range).
    Dir {
        /// Index into [`Program::dirs`].
        id: u32,
        /// Jump target on `Flow::Break`.
        brk: u32,
        /// Jump target on `Flow::Continue`.
        cont: u32,
    },
}

/// Static description of an access site; interned into the trace (in
/// dynamic first-use order, mirroring the interpreter) on first emission.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SiteDesc {
    /// Source span of the access expression.
    pub span: Span,
    /// Access direction.
    pub write: bool,
    /// Root variable, as an index into [`Program::names`].
    pub var: u32,
    /// Pre-rendered source text of the expression.
    pub text: String,
}

/// One privatization action, in clause order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PrivOp {
    /// `private`/`lastprivate`: fresh storage shaped like the outer
    /// binding (scalar when there is none).
    Fresh {
        /// The private slot.
        slot: u32,
        /// Outer slot supplying the shape, if any.
        outer: Option<u32>,
    },
    /// `firstprivate`/`linear`: fresh storage initialized by copying the
    /// outer binding cell-for-cell.
    Copy {
        /// The private slot.
        slot: u32,
        /// Outer slot copied from.
        outer: u32,
    },
    /// `reduction`: fresh scalar initialized to the operator identity.
    Red {
        /// The private slot.
        slot: u32,
        /// Reduction operator.
        op: ReductionOp,
    },
}

/// One reduction merge performed after the region body succeeds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RedMerge {
    /// Reduction operator.
    pub op: ReductionOp,
    /// The private slot merged from.
    pub private: u32,
    /// The outer slot merged into (skipped when the variable has no
    /// binding outside the privatization scope).
    pub outer: Option<u32>,
}

/// Per-thread shadow of a `threadprivate` global at one privatization
/// point. The slot gets fresh storage shaped like the global when the
/// variable has been declared threadprivate by the time the point runs;
/// otherwise it aliases the global.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TpShadow {
    /// Variable name (index into [`Program::names`]).
    pub name: u32,
    /// The shadow slot.
    pub slot: u32,
    /// The global slot shadowed.
    pub global: u32,
}

/// Privatization plan for one directive (`parallel`, `single`, `task`).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct PrivSpec {
    /// Per-variable setup actions, in clause order.
    pub ops: Vec<PrivOp>,
    /// `threadprivate` shadows, set up after the clause actions.
    pub tp: Vec<TpShadow>,
    /// Reduction merges, deduplicated per variable.
    pub merges: Vec<RedMerge>,
}

/// The loop-init clause of a worksharing loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WsInit {
    /// `for (; …)`.
    None,
    /// Declaration init, executed with events on.
    Decl(CodeRange),
    /// Expression init, executed with events suppressed.
    Expr(CodeRange),
}

/// Induction-variable rebinding + enumeration header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IvarIr {
    /// Slot whose current value seeds the rebound variable (`Int(0)`
    /// when the variable was unbound).
    pub src: Option<u32>,
    /// The fresh per-loop slot the variable is rebound to.
    pub slot: u32,
    /// Loop condition (enumeration stops when falsy).
    pub cond: Option<ExprCode>,
    /// Step expression (enumeration stops when absent).
    pub step: Option<CodeRange>,
}

/// One fully-enumerable collapsed inner loop level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LevelIr {
    /// Level init, run with events suppressed.
    pub init: CodeRange,
    /// The level's induction slot.
    pub slot: u32,
    /// Level condition.
    pub cond: ExprCode,
    /// Level step (enumeration stops after one value when absent).
    pub step: Option<CodeRange>,
}

/// A worksharing loop (`for` / `for simd` / `simd`, standalone or fused
/// into a parallel directive).
#[derive(Debug, Clone, PartialEq)]
pub struct WsIr {
    /// Cache key: the directive's pragma byte offset (shared with the
    /// interpreter's per-construct decision caches).
    pub key: u32,
    /// The body as a plain statement, for the not-in-region path of a
    /// standalone worksharing directive.
    pub plain: Option<CodeRange>,
    /// Loop init clause.
    pub init: WsInit,
    /// Induction variable, when the loop is in canonical form.
    pub ivar: Option<IvarIr>,
    /// Fresh slots pre-bound for collapsed inner induction variables.
    pub prebind: Vec<u32>,
    /// Fully-enumerable collapsed inner levels, in nesting order.
    pub levels: Vec<LevelIr>,
    /// Init range of a level whose walk aborted after running the init.
    pub partial: Option<CodeRange>,
    /// Whether the collapse walk covered every requested level (when
    /// false, only the outer level drives iteration decomposition).
    pub use_collapse: bool,
    /// The innermost loop body (one statement, charge included).
    pub body: CodeRange,
    /// Non-canonical loops: the whole `for` re-run serially by thread 0.
    pub fallback: Option<CodeRange>,
    /// `schedule(kind[, chunk])` clause.
    pub sched: Option<(ScheduleKind, Option<ExprCode>)>,
    /// `simd` (every thread owns every iteration).
    pub simd_only: bool,
    /// Whether the loop ends with an implicit barrier (phase bump).
    pub phase_end: bool,
    /// `lastprivate` writebacks: `(inner slot, outer slot)`.
    pub lastpriv: Vec<(u32, Option<u32>)>,
}

/// What each thread of a forked team runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Work {
    /// The body as a plain statement.
    Plain(CodeRange),
    /// A worksharing loop: index into [`Program::ws`].
    Ws(u32),
    /// A sections block: index into [`Program::sections`].
    Sections(u32),
}

/// One statement of a `sections` block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SecItem {
    /// A `section`, run by its owner thread only (the body is absent for
    /// a bodiless `section`).
    Section(Option<CodeRange>),
    /// Any other statement, run by every thread.
    Shared(CodeRange),
}

/// A `sections` block run inside a parallel region.
#[derive(Debug, Clone, PartialEq)]
pub struct SectionsIr {
    /// Cache key: the directive's pragma byte offset.
    pub key: u32,
    /// Owners drawn per occurrence (the `section` count, at least 1).
    pub n_sections: u32,
    /// The block's statements, in order.
    pub items: Vec<SecItem>,
    /// Whether the construct ends with an implicit barrier.
    pub phase_end: bool,
}

/// A parallel-region directive (`parallel`, `target`, `parallel
/// sections`, and the combined loop forms).
#[derive(Debug, Clone, PartialEq)]
pub struct ParallelIr {
    /// Statically serial (`num_threads(1)` / `if(0)`).
    pub serial_const: bool,
    /// Constant team size from `num_threads`, if positive.
    pub team: Option<u32>,
    /// Privatization plan (fork path only).
    pub privs: PrivSpec,
    /// What each team thread runs.
    pub fork: Work,
    /// Worksharing descriptor for the serial-but-in-region path.
    pub ws_serial: Option<u32>,
    /// The body as a plain statement (serial paths).
    pub plain_serial: CodeRange,
}

/// A directive descriptor, executed by a Rust handler.
#[derive(Debug, Clone, PartialEq)]
pub enum DirIr {
    /// `barrier`: bump the phase inside a region.
    Barrier,
    /// `flush`: no-op.
    Flush,
    /// Parallel region.
    Parallel(ParallelIr),
    /// Standalone worksharing loop: index into [`Program::ws`].
    Ws(u32),
    /// `master`: body runs when outside a region or on thread 0.
    Master {
        /// Body range.
        body: CodeRange,
    },
    /// `critical`: lock around the body.
    Critical {
        /// Lock name (`<anon>` for the unnamed lock).
        name: String,
        /// Body range.
        body: CodeRange,
    },
    /// `atomic`: mark accesses to the target variable atomic.
    Atomic {
        /// Target variable (index into [`Program::names`]), when the
        /// body shape reveals one.
        target: Option<u32>,
        /// Body range.
        body: CodeRange,
    },
    /// `ordered`: per-construct lock around the body.
    Ordered {
        /// Sync key (the directive's span start).
        key: usize,
        /// Body range.
        body: CodeRange,
    },
    /// Non-OpenMP pragma / passthrough: run the body, if any.
    Other {
        /// Body range.
        body: Option<CodeRange>,
    },
    /// `single`: inside a region one thread (drawn once per occurrence)
    /// runs the privatized body; outside, the plain body runs.
    Single {
        /// Cache key: the directive's pragma byte offset.
        key: u32,
        /// Whether the construct ends with an implicit barrier.
        phase_end: bool,
        /// Privatization plan of the winner's body.
        privs: PrivSpec,
        /// The winner's body.
        body: CodeRange,
        /// The body outside a region.
        plain: CodeRange,
    },
    /// `sections` standalone: inside a region, the sections block;
    /// outside, the plain body.
    Sections {
        /// Index into [`Program::sections`].
        sec: u32,
        /// The body outside a region.
        plain: CodeRange,
    },
    /// `task`: inside a region, spawn a task agent that runs the
    /// privatized body at once; outside, the plain body runs.
    Task {
        /// Privatization plan of the task body.
        privs: PrivSpec,
        /// The task body.
        body: CodeRange,
        /// The body outside a region.
        plain: CodeRange,
    },
    /// `taskwait`: join every pending task.
    Taskwait,
    /// `taskgroup`: run the body, then join the tasks it spawned.
    Taskgroup {
        /// Body range.
        body: CodeRange,
    },
    /// `threadprivate` as a statement: declare the named globals
    /// threadprivate from here on (indices into [`Program::names`]).
    Threadprivate(Vec<u32>),
}

/// A compiled function.
#[derive(Debug, Clone, PartialEq)]
pub struct FuncIr {
    /// Function name.
    pub name: String,
    /// Body range (terminates with `End` or `Ret`).
    pub entry: CodeRange,
    /// Register-window size.
    pub n_regs: u16,
    /// Slot-window size.
    pub n_slots: u32,
    /// Parameter count (parameters occupy slots `0..n_params`).
    pub n_params: u32,
}

/// A fully lowered kernel.
#[derive(Debug, Clone, PartialEq)]
pub struct Program {
    /// All instructions (every range indexes into this).
    pub instrs: Vec<Instr>,
    /// Per-instruction fuel cost, mirroring the interpreter's `spend()`
    /// call pattern prefix-exactly.
    pub costs: Vec<u32>,
    /// Constant pool.
    pub consts: Vec<Value>,
    /// Access sites (interned into the trace on first dynamic use).
    pub sites: Vec<SiteDesc>,
    /// Interned variable names (site roots and atomic targets).
    pub names: Vec<String>,
    /// Directive descriptors.
    pub dirs: Vec<DirIr>,
    /// Worksharing-loop descriptors.
    pub ws: Vec<WsIr>,
    /// Sections blocks.
    pub sections: Vec<SectionsIr>,
    /// Compiled functions: one per definition, in definition order, then
    /// the variants of calls that bind fewer parameters and the
    /// library-mode entries.
    pub funcs: Vec<FuncIr>,
    /// Index of `main` in `funcs`.
    pub main: Option<u32>,
    /// Without `main`: the functions run one after another, each with a
    /// 64-cell buffer per parameter (one per function name, in order of
    /// first definition).
    pub library: Vec<u32>,
    /// Globals named by file-scope `threadprivate` pragmas, in order.
    pub threadprivate: Vec<u32>,
    /// Errors raised by [`Instr::Trap`].
    pub errors: Vec<RtError>,
    /// Names ([`Program::names`] indices) and positions quoted by
    /// address errors.
    pub locs: Vec<(u32, Pos)>,
    /// Global declarations, run once before `main`.
    pub global_init: CodeRange,
    /// Name of each global slot ([`Program::names`] indices).
    pub global_names: Vec<u32>,
    /// Register-window size of the global-init range.
    pub global_regs: u16,
}

impl Program {
    /// The executor's expected per-event trace footprint: number of
    /// distinct sites the program can ever intern.
    pub fn num_sites(&self) -> usize {
        self.sites.len()
    }
}

fn slot_name(slot: u32) -> String {
    if slot & GLOBAL_BIT != 0 {
        format!("g{}", slot & !GLOBAL_BIT)
    } else {
        format!("s{}", slot & !GLOBAL_BIT)
    }
}

fn range_name(r: CodeRange) -> String {
    format!("[{}..{})", r.start, r.end)
}

impl std::fmt::Display for Instr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        use Instr::*;
        match *self {
            Nop => write!(f, "nop"),
            Const { dst, idx } => write!(f, "r{dst} = const c{idx}"),
            SlotAddr { dst, slot } => write!(f, "r{dst} = addr {}", slot_name(slot)),
            LoadScalar { dst, slot, site } => {
                write!(f, "r{dst} = load {} !site{site}", slot_name(slot))
            }
            StoreScalar { src, slot, site } => {
                write!(f, "store {} = r{src} !site{site}", slot_name(slot))
            }
            IndexAddr { dst, slot, idx0, n, .. } => {
                write!(f, "r{dst} = index {} [r{idx0}; {n}]", slot_name(slot))
            }
            ToAddr { dst, src } => write!(f, "r{dst} = toaddr r{src}"),
            AddOff { dst, base, off } => write!(f, "r{dst} = addoff r{base} + r{off}"),
            AssertPtr { src, .. } => write!(f, "assert_ptr r{src}"),
            CheckAddr { src, .. } => write!(f, "check_addr r{src}"),
            LoadInd { dst, ptr, site } => write!(f, "r{dst} = load [r{ptr}] !site{site}"),
            StoreInd { src, ptr, site } => write!(f, "store [r{ptr}] = r{src} !site{site}"),
            IncDec { dst, ptr, site_r, site_w, inc, prefix } => write!(
                f,
                "r{dst} = {}{} [r{ptr}] !site{site_r}/!site{site_w}",
                if prefix { "pre" } else { "post" },
                if inc { "inc" } else { "dec" },
            ),
            Un { op, dst, src } => write!(f, "r{dst} = {op:?} r{src}"),
            Bin { op, dst, a, b } => write!(f, "r{dst} = r{a} {} r{b}", op.as_str()),
            Bool { dst, src } => write!(f, "r{dst} = bool r{src}"),
            CoerceV { dst, src, base, ptr } => {
                write!(f, "r{dst} = coerce r{src} as {}{}", base.as_str(), if ptr { "*" } else { "" })
            }
            Jmp { to } => write!(f, "jmp {to}"),
            Jz { cond, to } => write!(f, "jz r{cond} -> {to}"),
            Jnz { cond, to } => write!(f, "jnz r{cond} -> {to}"),
            End => write!(f, "end"),
            FlowBrk => write!(f, "flow break"),
            FlowCont => write!(f, "flow continue"),
            Ret { src } => write!(f, "ret r{src}"),
            Trap { err } => write!(f, "trap e{err}"),
            Arg { src } => write!(f, "arg r{src}"),
            AllocSlot { slot, dims0, n_dims, spill } => {
                write!(f, "alloc {} dims[r{dims0}; {n_dims}]", slot_name(slot))?;
                if spill > 0 {
                    write!(f, " after {spill} args")?;
                }
                Ok(())
            }
            StoreSlotInit { slot, src } => write!(f, "init {} = r{src}", slot_name(slot)),
            ListGuard { slot, i, to } => write!(f, "guard {}[{i}] -> {to}", slot_name(slot)),
            ListStore { slot, i, src } => write!(f, "init {}[{i}] = r{src}", slot_name(slot)),
            CallUser { dst, func, n_args } => write!(f, "r{dst} = call f{func} ({n_args} args)"),
            GetTid { dst } => write!(f, "r{dst} = tid"),
            GetNumThreads { dst } => write!(f, "r{dst} = num_threads"),
            GetMaxThreads { dst } => write!(f, "r{dst} = max_threads"),
            Printf { n } => write!(f, "printf ({n} args)"),
            Malloc { dst, bytes } => write!(f, "r{dst} = malloc r{bytes}"),
            Calloc { dst, bytes, sz } => write!(f, "r{dst} = calloc r{bytes} * r{sz}"),
            LockAcq { src } => write!(f, "lock_acquire r{src}"),
            LockRel { src } => write!(f, "lock_release r{src}"),
            Math1 { f: mf, dst, src } => write!(f, "r{dst} = {mf:?} r{src}"),
            Math2 { f: mf, dst, a, b } => write!(f, "r{dst} = {mf:?} r{a}, r{b}"),
            Dir { id, brk, cont } => {
                write!(f, "dir d{id}")?;
                if brk != u32::MAX {
                    write!(f, " brk->{brk}")?;
                }
                if cont != u32::MAX {
                    write!(f, " cont->{cont}")?;
                }
                Ok(())
            }
        }
    }
}

impl std::fmt::Display for Program {
    /// Human-reviewable disassembly, used by the golden snapshot tests.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "; bytecode v{FORMAT_VERSION}")?;
        writeln!(
            f,
            "; {} instrs, {} consts, {} sites, {} dirs, {} ws, {} globals",
            self.instrs.len(),
            self.consts.len(),
            self.sites.len(),
            self.dirs.len(),
            self.ws.len(),
            self.global_names.len(),
        )?;
        writeln!(f, "\nconsts:")?;
        for (i, c) in self.consts.iter().enumerate() {
            writeln!(f, "  c{i} = {c:?}")?;
        }
        writeln!(f, "\nsites:")?;
        for (i, s) in self.sites.iter().enumerate() {
            writeln!(
                f,
                "  site{i} = {} {:?} ({}) @{}:{}",
                if s.write { "W" } else { "R" },
                s.text,
                self.names[s.var as usize],
                s.span.line(),
                s.span.col(),
            )?;
        }
        writeln!(f, "\ndirs:")?;
        for (i, d) in self.dirs.iter().enumerate() {
            write!(f, "  d{i} = ")?;
            match d {
                DirIr::Barrier => writeln!(f, "barrier")?,
                DirIr::Flush => writeln!(f, "flush")?,
                DirIr::Taskwait => writeln!(f, "taskwait")?,
                DirIr::Taskgroup { body } => writeln!(f, "taskgroup {}", range_name(*body))?,
                DirIr::Threadprivate(names) => {
                    let names: Vec<&str> =
                        names.iter().map(|n| self.names[*n as usize].as_str()).collect();
                    writeln!(f, "threadprivate({})", names.join(", "))?
                }
                DirIr::Single { key, phase_end, privs, body, plain } => {
                    writeln!(
                        f,
                        "single(@{key}) phase_end={phase_end} plain={} body={}",
                        range_name(*plain),
                        range_name(*body),
                    )?;
                    self.fmt_privs(f, privs)?;
                }
                DirIr::Task { privs, body, plain } => {
                    writeln!(f, "task plain={} body={}", range_name(*plain), range_name(*body))?;
                    self.fmt_privs(f, privs)?;
                }
                DirIr::Sections { sec, plain } => {
                    writeln!(f, "sections s{sec} plain={}", range_name(*plain))?
                }
                DirIr::Ws(w) => writeln!(f, "ws w{w}")?,
                DirIr::Master { body } => writeln!(f, "master {}", range_name(*body))?,
                DirIr::Critical { name, body } => {
                    writeln!(f, "critical({name}) {}", range_name(*body))?
                }
                DirIr::Atomic { target, body } => {
                    let t = target
                        .map(|t| self.names[t as usize].as_str())
                        .unwrap_or("<none>");
                    writeln!(f, "atomic({t}) {}", range_name(*body))?
                }
                DirIr::Ordered { key, body } => {
                    writeln!(f, "ordered(@{key}) {}", range_name(*body))?
                }
                DirIr::Other { body } => {
                    writeln!(
                        f,
                        "other {}",
                        body.map(range_name).unwrap_or_else(|| "-".into())
                    )?
                }
                DirIr::Parallel(p) => {
                    write!(
                        f,
                        "parallel serial={} team={:?} plain={}",
                        p.serial_const,
                        p.team,
                        range_name(p.plain_serial),
                    )?;
                    match p.fork {
                        Work::Ws(w) => write!(f, " fork=w{w}")?,
                        Work::Plain(r) => write!(f, " fork={}", range_name(r))?,
                        Work::Sections(s) => write!(f, " fork=s{s}")?,
                    }
                    if let Some(w) = p.ws_serial {
                        write!(f, " serial-ws=w{w}")?;
                    }
                    writeln!(f)?;
                    self.fmt_privs(f, &p.privs)?;
                }
            }
        }
        if !self.sections.is_empty() {
            writeln!(f, "\nsections:")?;
            for (i, sec) in self.sections.iter().enumerate() {
                writeln!(
                    f,
                    "  s{i} = key=@{} sections={} phase_end={}",
                    sec.key, sec.n_sections, sec.phase_end,
                )?;
                for item in &sec.items {
                    match item {
                        SecItem::Section(r) => writeln!(
                            f,
                            "       section {}",
                            r.map(range_name).unwrap_or_else(|| "-".into()),
                        )?,
                        SecItem::Shared(r) => writeln!(f, "       shared {}", range_name(*r))?,
                    }
                }
            }
        }
        writeln!(f, "\nws:")?;
        for (i, w) in self.ws.iter().enumerate() {
            writeln!(
                f,
                "  w{i} = key=@{} collapse_ok={} simd={} phase_end={}",
                w.key, w.use_collapse, w.simd_only, w.phase_end,
            )?;
            match w.init {
                WsInit::None => {}
                WsInit::Decl(r) => writeln!(f, "       init decl {}", range_name(r))?,
                WsInit::Expr(r) => writeln!(f, "       init expr {}", range_name(r))?,
            }
            if let Some(iv) = &w.ivar {
                writeln!(
                    f,
                    "       ivar {} from {} cond={} step={}",
                    slot_name(iv.slot),
                    iv.src.map(slot_name).unwrap_or_else(|| "0".into()),
                    iv.cond
                        .map(|c| format!("{} r{}", range_name(c.range), c.out))
                        .unwrap_or_else(|| "-".into()),
                    iv.step.map(range_name).unwrap_or_else(|| "-".into()),
                )?;
            }
            for s in &w.prebind {
                writeln!(f, "       prebind {}", slot_name(*s))?;
            }
            for l in &w.levels {
                writeln!(
                    f,
                    "       level {} init={} cond={} r{} step={}",
                    slot_name(l.slot),
                    range_name(l.init),
                    range_name(l.cond.range),
                    l.cond.out,
                    l.step.map(range_name).unwrap_or_else(|| "-".into()),
                )?;
            }
            if let Some(p) = w.partial {
                writeln!(f, "       partial-level init={}", range_name(p))?;
            }
            writeln!(f, "       body {}", range_name(w.body))?;
            if let Some(r) = w.fallback {
                writeln!(f, "       fallback {}", range_name(r))?;
            }
            if let Some(r) = w.plain {
                writeln!(f, "       plain {}", range_name(r))?;
            }
            if let Some((k, chunk)) = &w.sched {
                writeln!(
                    f,
                    "       schedule({}{})",
                    k.as_str(),
                    chunk
                        .map(|c| format!(", {} r{}", range_name(c.range), c.out))
                        .unwrap_or_default(),
                )?;
            }
            for (inner, outer) in &w.lastpriv {
                writeln!(
                    f,
                    "       lastprivate {} -> {}",
                    slot_name(*inner),
                    outer.map(slot_name).unwrap_or_else(|| "-".into()),
                )?;
            }
        }
        writeln!(f, "\nfuncs:")?;
        for (i, fun) in self.funcs.iter().enumerate() {
            let i = i as u32;
            writeln!(
                f,
                "  f{i} = {} {} regs={} slots={} params={}{}",
                fun.name,
                range_name(fun.entry),
                fun.n_regs,
                fun.n_slots,
                fun.n_params,
                if self.main == Some(i) {
                    "  ; main"
                } else if self.library.contains(&i) {
                    "  ; library entry"
                } else {
                    ""
                },
            )?;
        }
        if !self.threadprivate.is_empty() {
            let names: Vec<&str> =
                self.threadprivate.iter().map(|n| self.names[*n as usize].as_str()).collect();
            writeln!(f, "\nthreadprivate: {}", names.join(", "))?;
        }
        if !self.errors.is_empty() {
            writeln!(f, "\nerrors:")?;
            for (i, e) in self.errors.iter().enumerate() {
                writeln!(f, "  e{i} = {e}")?;
            }
        }
        writeln!(
            f,
            "\nglobals: {} regs={} slots={}",
            range_name(self.global_init),
            self.global_regs,
            self.global_names.len(),
        )?;
        writeln!(f, "\ncode:")?;
        for (pc, ins) in self.instrs.iter().enumerate() {
            let cost = self.costs[pc];
            if cost > 0 {
                writeln!(f, "  {pc:4} [+{cost}] {ins}")?;
            } else {
                writeln!(f, "  {pc:4}      {ins}")?;
            }
        }
        Ok(())
    }
}

impl Program {
    fn fmt_privs(&self, f: &mut std::fmt::Formatter<'_>, p: &PrivSpec) -> std::fmt::Result {
        for op in &p.ops {
            match op {
                PrivOp::Fresh { slot, outer } => writeln!(
                    f,
                    "       priv fresh {} shape={}",
                    slot_name(*slot),
                    outer.map(slot_name).unwrap_or_else(|| "-".into()),
                )?,
                PrivOp::Copy { slot, outer } => writeln!(
                    f,
                    "       priv copy {} from {}",
                    slot_name(*slot),
                    slot_name(*outer),
                )?,
                PrivOp::Red { slot, op } => {
                    writeln!(f, "       priv red({}) {}", op.as_str(), slot_name(*slot))?
                }
            }
        }
        for t in &p.tp {
            writeln!(
                f,
                "       threadprivate {} shadows {} ({})",
                slot_name(t.slot),
                slot_name(t.global),
                self.names[t.name as usize],
            )?;
        }
        for m in &p.merges {
            writeln!(
                f,
                "       merge({}) {} -> {}",
                m.op.as_str(),
                slot_name(m.private),
                m.outer.map(slot_name).unwrap_or_else(|| "-".into()),
            )?;
        }
        Ok(())
    }
}

/// One seed's run on the bytecode executor.
#[derive(Debug)]
pub struct OracleRun {
    /// The run result.
    pub output: Result<RunOutput, RtError>,
}
