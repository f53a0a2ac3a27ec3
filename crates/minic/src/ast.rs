//! Abstract syntax tree for the C subset + OpenMP pragmas.
//!
//! The tree is deliberately simple: DataRaceBench-style kernels use a
//! narrow slice of C (scalar and array declarations, `for`/`while`/`if`,
//! assignments, calls) decorated with OpenMP directives. Every node that
//! can appear in a race report carries a [`Span`].

use crate::pragma::{Clause, Directive};
use crate::span::Span;
use serde::{Deserialize, Serialize};

/// A whole parsed file.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TranslationUnit {
    /// Preprocessor lines that are not pragmas (`#include`, `#define`).
    pub preprocessor: Vec<PpLine>,
    /// Top-level items in source order.
    pub items: Vec<Item>,
}

impl TranslationUnit {
    /// Reset every span in the tree to [`Span::DUMMY`].
    ///
    /// The derived `PartialEq` compares spans, so two parses of the same
    /// program laid out differently never compare equal. AST-mutation
    /// consumers need *structural* equality — parse → print → re-parse
    /// must be the identity — which is `==` after `strip_spans` on both
    /// sides.
    pub fn strip_spans(&mut self) {
        for pp in &mut self.preprocessor {
            pp.span = Span::DUMMY;
        }
        for item in &mut self.items {
            match item {
                Item::Func(f) => strip_func(f),
                Item::Global(d) => strip_decl(d),
                Item::Pragma(d) => strip_directive(d),
            }
        }
    }
}

fn strip_func(f: &mut FuncDef) {
    f.span = Span::DUMMY;
    strip_type(&mut f.ret);
    for p in &mut f.params {
        p.span = Span::DUMMY;
        strip_type(&mut p.ty);
    }
    strip_block(&mut f.body);
}

fn strip_type(t: &mut Type) {
    for dim in t.dims.iter_mut().flatten() {
        strip_expr(dim);
    }
}

fn strip_decl(d: &mut Decl) {
    d.span = Span::DUMMY;
    strip_type(&mut d.ty);
    for v in &mut d.vars {
        v.span = Span::DUMMY;
        strip_type(&mut v.ty);
        match &mut v.init {
            Some(Init::Expr(e)) => strip_expr(e),
            Some(Init::List(es)) => es.iter_mut().for_each(strip_expr),
            None => {}
        }
    }
}

fn strip_block(b: &mut Block) {
    b.span = Span::DUMMY;
    for s in &mut b.stmts {
        strip_stmt(s);
    }
}

fn strip_stmt(s: &mut Stmt) {
    match s {
        Stmt::Decl(d) => strip_decl(d),
        Stmt::Expr(e) => strip_expr(e),
        Stmt::Empty(sp) | Stmt::Break(sp) | Stmt::Continue(sp) => *sp = Span::DUMMY,
        Stmt::Block(b) => strip_block(b),
        Stmt::If { cond, then, els, span } => {
            *span = Span::DUMMY;
            strip_expr(cond);
            strip_stmt(then);
            if let Some(e) = els {
                strip_stmt(e);
            }
        }
        Stmt::For(f) => {
            f.span = Span::DUMMY;
            match &mut f.init {
                ForInit::Decl(d) => strip_decl(d),
                ForInit::Expr(e) => strip_expr(e),
                ForInit::Empty => {}
            }
            if let Some(c) = &mut f.cond {
                strip_expr(c);
            }
            if let Some(st) = &mut f.step {
                strip_expr(st);
            }
            strip_stmt(&mut f.body);
        }
        Stmt::While { cond, body, span } => {
            *span = Span::DUMMY;
            strip_expr(cond);
            strip_stmt(body);
        }
        Stmt::DoWhile { body, cond, span } => {
            *span = Span::DUMMY;
            strip_stmt(body);
            strip_expr(cond);
        }
        Stmt::Return(e, sp) => {
            *sp = Span::DUMMY;
            if let Some(e) = e {
                strip_expr(e);
            }
        }
        Stmt::Omp { dir, body, span } => {
            *span = Span::DUMMY;
            strip_directive(dir);
            if let Some(b) = body {
                strip_stmt(b);
            }
        }
    }
}

fn strip_directive(d: &mut Directive) {
    d.span = Span::DUMMY;
    for c in &mut d.clauses {
        match c {
            Clause::Schedule(_, Some(e)) | Clause::NumThreads(e) | Clause::If(e) => strip_expr(e),
            _ => {}
        }
    }
}

fn strip_expr(e: &mut Expr) {
    let (Expr::IntLit { span, .. }
    | Expr::FloatLit { span, .. }
    | Expr::StrLit { span, .. }
    | Expr::CharLit { span, .. }
    | Expr::Ident { span, .. }
    | Expr::Index { span, .. }
    | Expr::Call { span, .. }
    | Expr::Unary { span, .. }
    | Expr::Binary { span, .. }
    | Expr::Assign { span, .. }
    | Expr::IncDec { span, .. }
    | Expr::Cond { span, .. }
    | Expr::Cast { span, .. }) = e;
    *span = Span::DUMMY;
    if let Expr::Cast { ty, .. } = e {
        strip_type(ty);
    }
    e.children_mut().for_each(strip_expr);
}

/// A retained (non-pragma) preprocessor line.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PpLine {
    /// Text after `#`, e.g. `include <stdio.h>`.
    pub text: String,
    /// Source location.
    pub span: Span,
}

/// A top-level item.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Item {
    /// A function definition.
    Func(FuncDef),
    /// A file-scope declaration (globals shared across threads).
    Global(Decl),
    /// A free-standing pragma at file scope (e.g. `omp threadprivate`).
    Pragma(Directive),
}

/// A function definition.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FuncDef {
    /// Return type.
    pub ret: Type,
    /// Function name.
    pub name: String,
    /// Parameters in order.
    pub params: Vec<Param>,
    /// Body.
    pub body: Block,
    /// Span of the signature.
    pub span: Span,
}

/// A function parameter.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Param {
    /// Parameter type.
    pub ty: Type,
    /// Parameter name (empty for unnamed, e.g. `void`).
    pub name: String,
    /// Source location.
    pub span: Span,
}

/// Scalar base types of the subset.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
#[allow(missing_docs)]
pub enum BaseType {
    Void,
    Char,
    Short,
    Int,
    Long,
    Float,
    Double,
}

impl BaseType {
    /// C spelling of the base type.
    pub fn as_str(&self) -> &'static str {
        match self {
            BaseType::Void => "void",
            BaseType::Char => "char",
            BaseType::Short => "short",
            BaseType::Int => "int",
            BaseType::Long => "long",
            BaseType::Float => "float",
            BaseType::Double => "double",
        }
    }

    /// Whether the type is a floating-point type.
    pub fn is_float(&self) -> bool {
        matches!(self, BaseType::Float | BaseType::Double)
    }
}

/// A (possibly derived) type.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Type {
    /// Underlying scalar type.
    pub base: BaseType,
    /// Pointer indirection depth (`int*` → 1).
    pub pointers: u8,
    /// Whether `unsigned` was written.
    pub unsigned: bool,
    /// Whether `const` was written.
    pub is_const: bool,
    /// Array dimensions, outermost first; `None` for `[]`.
    pub dims: Vec<Option<Expr>>,
}

impl Type {
    /// A plain scalar type.
    pub fn scalar(base: BaseType) -> Self {
        Type { base, pointers: 0, unsigned: false, is_const: false, dims: Vec::new() }
    }

    /// Whether this is an array type.
    pub fn is_array(&self) -> bool {
        !self.dims.is_empty()
    }

    /// Whether this is a pointer type.
    pub fn is_pointer(&self) -> bool {
        self.pointers > 0
    }
}

/// A declaration of one or more variables with a common base type.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Decl {
    /// Declared base type (per-declarator dims/pointers live in `Declarator`).
    pub ty: Type,
    /// Whether `static` was written.
    pub is_static: bool,
    /// The declarators.
    pub vars: Vec<Declarator>,
    /// Span of the whole declaration.
    pub span: Span,
}

/// One declared variable.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Declarator {
    /// Variable name.
    pub name: String,
    /// Full type of this declarator (base + its own dims/pointers).
    pub ty: Type,
    /// Optional initializer.
    pub init: Option<Init>,
    /// Source location of the name.
    pub span: Span,
}

/// An initializer.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Init {
    /// `= expr`
    Expr(Expr),
    /// `= { e0, e1, … }`
    List(Vec<Expr>),
}

/// A block `{ … }` of statements.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Block {
    /// Statements in order.
    pub stmts: Vec<Stmt>,
    /// Span of the braces.
    pub span: Span,
}

/// A statement.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Stmt {
    /// A local declaration.
    Decl(Decl),
    /// An expression statement `expr;`.
    Expr(Expr),
    /// An empty statement `;`.
    Empty(Span),
    /// A nested block.
    Block(Block),
    /// `if (cond) then [else els]`
    If {
        /// Condition.
        cond: Expr,
        /// Then branch.
        then: Box<Stmt>,
        /// Optional else branch.
        els: Option<Box<Stmt>>,
        /// Span of the `if` keyword.
        span: Span,
    },
    /// A canonical `for` loop.
    For(Box<ForStmt>),
    /// `while (cond) body`
    While {
        /// Condition.
        cond: Expr,
        /// Body.
        body: Box<Stmt>,
        /// Span of the `while` keyword.
        span: Span,
    },
    /// `do body while (cond);`
    DoWhile {
        /// Body.
        body: Box<Stmt>,
        /// Condition.
        cond: Expr,
        /// Span of the `do` keyword.
        span: Span,
    },
    /// `return [expr];`
    Return(Option<Expr>, Span),
    /// `break;`
    Break(Span),
    /// `continue;`
    Continue(Span),
    /// An OpenMP (or other) pragma applied to the following statement.
    ///
    /// Stand-alone directives (`barrier`, `taskwait`, `flush`) have
    /// `body: None`.
    Omp {
        /// The parsed directive.
        dir: Directive,
        /// The statement the directive applies to, if any.
        body: Option<Box<Stmt>>,
        /// Span of the pragma line.
        span: Span,
    },
}

impl Stmt {
    /// The span of the statement's head.
    pub fn span(&self) -> Span {
        match self {
            Stmt::Decl(d) => d.span,
            Stmt::Expr(e) => e.span(),
            Stmt::Empty(s) => *s,
            Stmt::Block(b) => b.span,
            Stmt::If { span, .. } => *span,
            Stmt::For(f) => f.span,
            Stmt::While { span, .. } => *span,
            Stmt::DoWhile { span, .. } => *span,
            Stmt::Return(_, s) => *s,
            Stmt::Break(s) => *s,
            Stmt::Continue(s) => *s,
            Stmt::Omp { span, .. } => *span,
        }
    }

    /// The statements directly under this one, in source order: a
    /// block's statements; `then` then `els`; a loop's body; a
    /// directive's body. Expressions, declarations and `for` headers are
    /// not statements and are not yielded.
    pub fn children(&self) -> impl Iterator<Item = &Stmt> {
        let (list, a, b): (&[Stmt], Option<&Stmt>, Option<&Stmt>) = match self {
            Stmt::Block(b) => (&b.stmts, None, None),
            Stmt::If { then, els, .. } => (&[], Some(then), els.as_deref()),
            Stmt::For(f) => (&[], Some(&f.body), None),
            Stmt::While { body, .. } | Stmt::DoWhile { body, .. } => (&[], Some(body), None),
            Stmt::Omp { body, .. } => (&[], body.as_deref(), None),
            _ => (&[], None, None),
        };
        list.iter().chain(a).chain(b)
    }

    /// [`Stmt::children`], mutably.
    pub fn children_mut(&mut self) -> impl Iterator<Item = &mut Stmt> {
        let (list, a, b): (&mut [Stmt], Option<&mut Stmt>, Option<&mut Stmt>) = match self {
            Stmt::Block(b) => (&mut b.stmts, None, None),
            Stmt::If { then, els, .. } => (&mut [], Some(then), els.as_deref_mut()),
            Stmt::For(f) => (&mut [], Some(&mut f.body), None),
            Stmt::While { body, .. } | Stmt::DoWhile { body, .. } => (&mut [], Some(body), None),
            Stmt::Omp { body, .. } => (&mut [], body.as_deref_mut(), None),
            _ => (&mut [], None, None),
        };
        list.iter_mut().chain(a).chain(b)
    }
}

/// A `for` loop, kept structured so OpenMP canonical-form analysis is easy.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ForStmt {
    /// Init clause: either a declaration (`int i = 0`) or an expression.
    pub init: ForInit,
    /// Loop condition (`i < n`), if present.
    pub cond: Option<Expr>,
    /// Step expression (`i++`), if present.
    pub step: Option<Expr>,
    /// Loop body.
    pub body: Stmt,
    /// Span of the `for` keyword.
    pub span: Span,
}

/// The init part of a `for`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ForInit {
    /// No init (`for (; …)`).
    Empty,
    /// A declaration init (`for (int i = 0; …)`).
    Decl(Decl),
    /// An expression init (`for (i = 0; …)`).
    Expr(Expr),
}

impl ForStmt {
    /// The loop induction variable name, if the loop is in OpenMP
    /// canonical form (`i = lb` init, `i <cmp> ub` cond, `i++`-style step).
    pub fn induction_var(&self) -> Option<&str> {
        match &self.init {
            ForInit::Decl(d) => d.vars.first().map(|v| v.name.as_str()),
            ForInit::Expr(e) => match e {
                Expr::Assign { lhs, .. } => match lhs.as_ref() {
                    Expr::Ident { name, .. } => Some(name.as_str()),
                    _ => None,
                },
                _ => None,
            },
            ForInit::Empty => None,
        }
    }
}

/// Binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
#[allow(missing_docs)]
pub enum BinOp {
    Add,
    Sub,
    Mul,
    Div,
    Rem,
    Lt,
    Gt,
    Le,
    Ge,
    Eq,
    Ne,
    And,
    Or,
    BitAnd,
    BitOr,
    BitXor,
    Shl,
    Shr,
}

impl BinOp {
    /// C spelling of the operator.
    pub fn as_str(&self) -> &'static str {
        use BinOp::*;
        match self {
            Add => "+",
            Sub => "-",
            Mul => "*",
            Div => "/",
            Rem => "%",
            Lt => "<",
            Gt => ">",
            Le => "<=",
            Ge => ">=",
            Eq => "==",
            Ne => "!=",
            And => "&&",
            Or => "||",
            BitAnd => "&",
            BitOr => "|",
            BitXor => "^",
            Shl => "<<",
            Shr => ">>",
        }
    }
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
#[allow(missing_docs)]
pub enum UnOp {
    Neg,
    Not,
    BitNot,
    Deref,
    AddrOf,
}

impl UnOp {
    /// C spelling of the operator.
    pub fn as_str(&self) -> &'static str {
        match self {
            UnOp::Neg => "-",
            UnOp::Not => "!",
            UnOp::BitNot => "~",
            UnOp::Deref => "*",
            UnOp::AddrOf => "&",
        }
    }
}

/// Compound-assignment operators (`lhs op= rhs`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
#[allow(missing_docs)]
pub enum AssignOp {
    /// Plain `=`.
    Assign,
    Add,
    Sub,
    Mul,
    Div,
    Rem,
    BitAnd,
    BitOr,
    BitXor,
    Shl,
    Shr,
}

impl AssignOp {
    /// C spelling of the operator.
    pub fn as_str(&self) -> &'static str {
        use AssignOp::*;
        match self {
            Assign => "=",
            Add => "+=",
            Sub => "-=",
            Mul => "*=",
            Div => "/=",
            Rem => "%=",
            BitAnd => "&=",
            BitOr => "|=",
            BitXor => "^=",
            Shl => "<<=",
            Shr => ">>=",
        }
    }

    /// The underlying binary operator for compound assignments.
    pub fn bin_op(&self) -> Option<BinOp> {
        use AssignOp::*;
        Some(match self {
            Assign => return None,
            Add => BinOp::Add,
            Sub => BinOp::Sub,
            Mul => BinOp::Mul,
            Div => BinOp::Div,
            Rem => BinOp::Rem,
            BitAnd => BinOp::BitAnd,
            BitOr => BinOp::BitOr,
            BitXor => BinOp::BitXor,
            Shl => BinOp::Shl,
            Shr => BinOp::Shr,
        })
    }
}

/// An expression.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Expr {
    /// Integer literal.
    IntLit {
        /// Value.
        value: i64,
        /// Source location.
        span: Span,
    },
    /// Floating literal.
    FloatLit {
        /// Value.
        value: f64,
        /// Source location.
        span: Span,
    },
    /// String literal.
    StrLit {
        /// Decoded contents.
        value: String,
        /// Source location.
        span: Span,
    },
    /// Character literal.
    CharLit {
        /// Decoded character.
        value: char,
        /// Source location.
        span: Span,
    },
    /// Variable reference.
    Ident {
        /// Variable name.
        name: String,
        /// Source location.
        span: Span,
    },
    /// Array subscript `base[index]` (possibly nested for 2D).
    Index {
        /// The indexed expression.
        base: Box<Expr>,
        /// The subscript.
        index: Box<Expr>,
        /// Span of the whole subscript expression.
        span: Span,
    },
    /// Function call.
    Call {
        /// Callee name.
        callee: String,
        /// Arguments.
        args: Vec<Expr>,
        /// Span of the whole call.
        span: Span,
    },
    /// Unary operation.
    Unary {
        /// Operator.
        op: UnOp,
        /// Operand.
        expr: Box<Expr>,
        /// Span.
        span: Span,
    },
    /// Binary operation.
    Binary {
        /// Operator.
        op: BinOp,
        /// Left operand.
        lhs: Box<Expr>,
        /// Right operand.
        rhs: Box<Expr>,
        /// Span.
        span: Span,
    },
    /// Assignment (possibly compound).
    Assign {
        /// Operator (`=`, `+=`, …).
        op: AssignOp,
        /// Target lvalue.
        lhs: Box<Expr>,
        /// Value.
        rhs: Box<Expr>,
        /// Span.
        span: Span,
    },
    /// Pre/post increment/decrement.
    IncDec {
        /// `+1` or `-1`.
        inc: bool,
        /// Prefix (`++i`) vs postfix (`i++`).
        prefix: bool,
        /// Target lvalue.
        expr: Box<Expr>,
        /// Span.
        span: Span,
    },
    /// Ternary conditional.
    Cond {
        /// Condition.
        cond: Box<Expr>,
        /// Value if true.
        then: Box<Expr>,
        /// Value if false.
        els: Box<Expr>,
        /// Span.
        span: Span,
    },
    /// C cast `(type) expr`.
    Cast {
        /// Target type.
        ty: Type,
        /// Operand.
        expr: Box<Expr>,
        /// Span.
        span: Span,
    },
}

impl Expr {
    /// The expression's span.
    pub fn span(&self) -> Span {
        match self {
            Expr::IntLit { span, .. }
            | Expr::FloatLit { span, .. }
            | Expr::StrLit { span, .. }
            | Expr::CharLit { span, .. }
            | Expr::Ident { span, .. }
            | Expr::Index { span, .. }
            | Expr::Call { span, .. }
            | Expr::Unary { span, .. }
            | Expr::Binary { span, .. }
            | Expr::Assign { span, .. }
            | Expr::IncDec { span, .. }
            | Expr::Cond { span, .. }
            | Expr::Cast { span, .. } => *span,
        }
    }

    /// The operands directly under this expression, in source order:
    /// `Index` base then index; `Call` arguments; the `Unary`/`Cast`/
    /// `IncDec` operand; `Binary`/`Assign` lhs then rhs; `Cond` cond,
    /// then, els. A cast's target type is not an operand.
    pub fn children(&self) -> impl Iterator<Item = &Expr> {
        let (list, a, b, c): (&[Expr], Option<&Expr>, Option<&Expr>, Option<&Expr>) = match self {
            Expr::Index { base, index, .. } => (&[], Some(base), Some(index), None),
            Expr::Call { args, .. } => (args, None, None, None),
            Expr::Unary { expr, .. } | Expr::Cast { expr, .. } | Expr::IncDec { expr, .. } => {
                (&[], Some(expr), None, None)
            }
            Expr::Binary { lhs, rhs, .. } | Expr::Assign { lhs, rhs, .. } => {
                (&[], Some(lhs), Some(rhs), None)
            }
            Expr::Cond { cond, then, els, .. } => (&[], Some(cond), Some(then), Some(els)),
            _ => (&[], None, None, None),
        };
        list.iter().chain(a).chain(b).chain(c)
    }

    /// [`Expr::children`], mutably.
    pub fn children_mut(&mut self) -> impl Iterator<Item = &mut Expr> {
        let (list, a, b, c): (&mut [Expr], Option<&mut Expr>, Option<&mut Expr>, Option<&mut Expr>) =
            match self {
                Expr::Index { base, index, .. } => (&mut [], Some(base), Some(index), None),
                Expr::Call { args, .. } => (args, None, None, None),
                Expr::Unary { expr, .. } | Expr::Cast { expr, .. } | Expr::IncDec { expr, .. } => {
                    (&mut [], Some(expr), None, None)
                }
                Expr::Binary { lhs, rhs, .. } | Expr::Assign { lhs, rhs, .. } => {
                    (&mut [], Some(lhs), Some(rhs), None)
                }
                Expr::Cond { cond, then, els, .. } => (&mut [], Some(cond), Some(then), Some(els)),
                _ => (&mut [], None, None, None),
            };
        list.iter_mut().chain(a).chain(b).chain(c)
    }

    /// If this is an lvalue rooted at a named variable, return the root
    /// variable name (`a[i+1]` → `a`, `*p` → `p`, `x` → `x`).
    pub fn root_var(&self) -> Option<&str> {
        match self {
            Expr::Ident { name, .. } => Some(name),
            Expr::Index { base, .. } => base.root_var(),
            Expr::Unary { op: UnOp::Deref, expr, .. } => expr.root_var(),
            Expr::Unary { op: UnOp::AddrOf, expr, .. } => expr.root_var(),
            Expr::Cast { expr, .. } => expr.root_var(),
            // `x++` / `x += k` root at the mutated lvalue.
            Expr::IncDec { expr, .. } => expr.root_var(),
            Expr::Assign { lhs, .. } => lhs.root_var(),
            _ => None,
        }
    }

    /// Whether the expression is a constant literal.
    pub fn is_literal(&self) -> bool {
        matches!(
            self,
            Expr::IntLit { .. } | Expr::FloatLit { .. } | Expr::StrLit { .. } | Expr::CharLit { .. }
        )
    }

    /// Evaluate a compile-time integer constant, if possible.
    pub fn const_int(&self) -> Option<i64> {
        match self {
            Expr::IntLit { value, .. } => Some(*value),
            Expr::Unary { op: UnOp::Neg, expr, .. } => expr.const_int().map(|v| -v),
            Expr::Binary { op, lhs, rhs, .. } => {
                let (a, b) = (lhs.const_int()?, rhs.const_int()?);
                Some(match op {
                    BinOp::Add => a.checked_add(b)?,
                    BinOp::Sub => a.checked_sub(b)?,
                    BinOp::Mul => a.checked_mul(b)?,
                    BinOp::Div => a.checked_div(b)?,
                    BinOp::Rem => a.checked_rem(b)?,
                    BinOp::Shl => a.checked_shl(u32::try_from(b).ok()?)?,
                    BinOp::Shr => a.checked_shr(u32::try_from(b).ok()?)?,
                    BinOp::BitAnd => a & b,
                    BinOp::BitOr => a | b,
                    BinOp::BitXor => a ^ b,
                    _ => return None,
                })
            }
            Expr::Cast { expr, .. } => expr.const_int(),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::printer::{print_expr, print_stmt};

    /// The statements of `void f() { <src> }`.
    fn stmts(src: &str) -> Vec<Stmt> {
        let u = crate::parse(&format!("void f() {{\n{src}\n}}\n")).unwrap();
        let Item::Func(f) = &u.items[0] else { panic!("not a function") };
        f.body.stmts.clone()
    }

    fn expr(src: &str) -> Expr {
        match stmts(&format!("{src};")).remove(0) {
            Stmt::Expr(e) => e,
            s => panic!("not an expression statement: {s:?}"),
        }
    }

    #[test]
    fn stmt_children_come_in_source_order() {
        let cases: [(&str, &[&str]); 10] = [
            ("{ a = 1; b = 2; c = 3; }", &["a = 1;", "b = 2;", "c = 3;"]),
            ("if (x) a = 1; else b = 2;", &["a = 1;", "b = 2;"]),
            ("if (x) a = 1;", &["a = 1;"]),
            ("for (i = 0; i < n; i++) a = i;", &["a = i;"]),
            ("while (x) a = 1;", &["a = 1;"]),
            ("do a = 1; while (x);", &["a = 1;"]),
            ("#pragma omp parallel\na = 1;", &["a = 1;"]),
            ("#pragma omp barrier", &[]),
            ("a = b;", &[]),
            ("int y = 2;", &[]),
        ];
        for (src, want) in cases {
            let s = &stmts(src)[0];
            let got: Vec<String> = s.children().map(|c| print_stmt(c).trim().to_string()).collect();
            assert_eq!(got, want, "{src}");
        }
    }

    #[test]
    fn expr_children_come_in_source_order() {
        let cases: [(&str, &[&str]); 11] = [
            ("a[i + 1]", &["a", "i + 1"]),
            ("f(x, y + 1, 3)", &["x", "y + 1", "3"]),
            ("-x", &["x"]),
            ("(int) x", &["x"]),
            ("x++", &["x"]),
            ("x + y * 2", &["x", "y * 2"]),
            ("x += y", &["x", "y"]),
            ("c ? a : b", &["c", "a", "b"]),
            ("x", &[]),
            ("1", &[]),
            ("f()", &[]),
        ];
        for (src, want) in cases {
            let e = expr(src);
            let got: Vec<String> = e.children().map(print_expr).collect();
            assert_eq!(got, want, "{src}");
        }
    }

    /// `children_mut` yields the very nodes `children` does, in order,
    /// at every statement and expression of the tree.
    #[test]
    fn children_mut_matches_children() {
        fn check_expr(e: &mut Expr) {
            let shared: Vec<*const Expr> = e.children().map(|c| c as *const Expr).collect();
            let unique: Vec<*const Expr> = e.children_mut().map(|c| c as *const Expr).collect();
            assert_eq!(shared, unique, "{}", print_expr(e));
            e.children_mut().for_each(check_expr);
        }
        fn check_stmt(s: &mut Stmt) {
            let shared: Vec<*const Stmt> = s.children().map(|c| c as *const Stmt).collect();
            let unique: Vec<*const Stmt> = s.children_mut().map(|c| c as *const Stmt).collect();
            assert_eq!(shared, unique, "{}", print_stmt(s));
            if let Stmt::Expr(e) = s {
                check_expr(e);
            }
            s.children_mut().for_each(check_stmt);
        }
        let mut body = stmts(
            "a[i] = f(x, -y, (int) z) + (c ? p++ : q);\n\
             { b += 1; if (x) { a = 1; } else ; }\n\
             #pragma omp parallel for\n\
             for (i = 0; i < n; i++) { while (x) x--; do y++; while (y < 3); }\n\
             #pragma omp barrier\n\
             int w = 3;",
        );
        assert_eq!(body.len(), 5);
        body.iter_mut().for_each(check_stmt);
    }
}
