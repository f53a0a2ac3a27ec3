//! Recursive-descent parser for the C subset + OpenMP pragma grammar.

use crate::ast::*;
use crate::error::{ParseError, Result};
use crate::lexer::Lexer;
use crate::pragma::*;
use crate::span::Span;
use crate::token::{Keyword, Punct, TokKind, Token};

/// Number of `parse` calls so far in this process (testing hook for the
/// once-per-kernel artifact cache).
#[cfg(feature = "count-parses")]
pub fn parse_count() -> u64 {
    counter::PARSE_COUNT.load(std::sync::atomic::Ordering::Relaxed)
}

/// Reset the `parse` call counter.
#[cfg(feature = "count-parses")]
pub fn reset_parse_count() {
    counter::PARSE_COUNT.store(0, std::sync::atomic::Ordering::Relaxed);
}

#[cfg(feature = "count-parses")]
mod counter {
    pub static PARSE_COUNT: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
}

/// Deepest AST nesting the parser accepts. Every statement, operator,
/// and parenthesized group is one level; a left-deep chain such as
/// `1 + 1 + … + 1` nests one level per operator even though no
/// parenthesis is written. Deeper input is refused with
/// [`ErrorKind::TooDeep`](crate::ErrorKind::TooDeep), so every pass
/// that recurses over the AST runs in bounded stack. C11 §5.2.4.1 asks
/// for at least 63 nested parentheses and 127 nested blocks.
pub const MAX_DEPTH: usize = 256;

/// Parse a complete source file.
pub fn parse(src: &str) -> Result<TranslationUnit> {
    #[cfg(feature = "count-parses")]
    counter::PARSE_COUNT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    let toks = Lexer::tokenize(src)?;
    Parser::new(toks).parse_unit()
}

/// Parse a single `#pragma …` line body (text after `#`).
pub fn parse_pragma_text(text: &str, span: Span) -> Result<Directive> {
    Parser::parse_directive_text(text, span)
}

/// The parser state: a token buffer, a cursor, and the nesting budget.
pub struct Parser {
    toks: Vec<Token>,
    idx: usize,
    /// Nesting level of the construct being parsed.
    depth: usize,
    /// Deepest level reached by the construct under construction; an
    /// iteratively built chain shifts it as it wraps (see
    /// [`Parser::wrap`]).
    deepest: usize,
}

impl Parser {
    /// Create a parser over a token stream (must end with `Eof`).
    pub fn new(toks: Vec<Token>) -> Self {
        Parser { toks, idx: 0, depth: 0, deepest: 0 }
    }

    /// Note that the tree reaches nesting level `level`, refusing input
    /// past [`MAX_DEPTH`].
    fn reach(&mut self, level: usize) -> Result<()> {
        if level > MAX_DEPTH {
            return Err(ParseError::too_deep(self.peek().span));
        }
        self.deepest = self.deepest.max(level);
        Ok(())
    }

    /// Run `f` one nesting level deeper. (A plain `fn`, not a closure:
    /// every frame on the recursive path counts against the stack the
    /// budget protects.)
    fn nested<T>(&mut self, f: fn(&mut Self) -> Result<T>) -> Result<T> {
        self.reach(self.depth + 1)?;
        self.depth += 1;
        let r = f(self);
        self.depth -= 1;
        r
    }

    /// Start a left-deep chain (binary operators, subscripts, postfix
    /// `++`/`--`) built by a loop rather than recursion. Each wrap
    /// pushes every node built so far one level down, which the
    /// recursion depth never sees, so the chain tracks the deepest level
    /// it reached ([`Parser::wrap`]). Returns the enclosing chain's
    /// mark for [`Parser::end_chain`].
    fn start_chain(&mut self) -> usize {
        std::mem::replace(&mut self.deepest, self.depth)
    }

    /// The chain wraps its operands in one more node.
    fn wrap(&mut self) -> Result<()> {
        self.reach(self.deepest + 1)
    }

    /// Close a chain opened by [`Parser::start_chain`].
    fn end_chain(&mut self, outer: usize) {
        self.deepest = self.deepest.max(outer);
    }

    fn peek(&self) -> &Token {
        &self.toks[self.idx.min(self.toks.len() - 1)]
    }

    fn peek_at(&self, n: usize) -> &Token {
        &self.toks[(self.idx + n).min(self.toks.len() - 1)]
    }

    fn bump(&mut self) -> Token {
        let t = self.toks[self.idx.min(self.toks.len() - 1)].clone();
        if self.idx < self.toks.len() - 1 {
            self.idx += 1;
        }
        t
    }

    fn at_punct(&self, p: Punct) -> bool {
        self.peek().kind == TokKind::Punct(p)
    }

    fn at_kw(&self, k: Keyword) -> bool {
        self.peek().kind == TokKind::Keyword(k)
    }

    fn eat_punct(&mut self, p: Punct) -> bool {
        if self.at_punct(p) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect_punct(&mut self, p: Punct) -> Result<Span> {
        if self.at_punct(p) {
            Ok(self.bump().span)
        } else {
            Err(self.err(format!("expected `{}`, found `{}`", p.as_str(), self.peek().kind)))
        }
    }

    fn expect_ident(&mut self) -> Result<(String, Span)> {
        match &self.peek().kind {
            TokKind::Ident(_) => {
                let t = self.bump();
                match t.kind {
                    TokKind::Ident(s) => Ok((s, t.span)),
                    _ => unreachable!(),
                }
            }
            other => Err(self.err(format!("expected identifier, found `{other}`"))),
        }
    }

    fn err(&self, msg: impl Into<String>) -> ParseError {
        ParseError::new(msg, self.peek().span)
    }

    fn at_eof(&self) -> bool {
        self.peek().kind == TokKind::Eof
    }

    // ---------------------------------------------------------------
    // Translation unit
    // ---------------------------------------------------------------

    /// Parse the token stream as a full translation unit.
    pub fn parse_unit(&mut self) -> Result<TranslationUnit> {
        let mut unit = TranslationUnit { preprocessor: Vec::new(), items: Vec::new() };
        while !self.at_eof() {
            match &self.peek().kind {
                TokKind::PpDirective(_) => {
                    let t = self.bump();
                    if let TokKind::PpDirective(text) = t.kind {
                        unit.preprocessor.push(PpLine { text, span: t.span });
                    }
                }
                TokKind::Pragma(_) => {
                    let t = self.bump();
                    let TokKind::Pragma(text) = t.kind else { unreachable!() };
                    let dir = Self::parse_directive_text(&text, t.span)?;
                    unit.items.push(Item::Pragma(dir));
                }
                _ => {
                    let item = self.parse_item()?;
                    unit.items.push(item);
                }
            }
        }
        Ok(unit)
    }

    fn parse_item(&mut self) -> Result<Item> {
        // Both functions and globals start with a type; disambiguate by
        // looking for `ident (` after the declarator prefix.
        let save = self.idx;
        let is_static = self.eat_static_extern();
        let ty = self.parse_type()?;
        let (name, name_span) = self.expect_ident()?;
        if self.at_punct(Punct::LParen) {
            // Function definition.
            self.bump();
            let mut params = Vec::new();
            if !self.at_punct(Punct::RParen) {
                loop {
                    if self.at_kw(Keyword::Void) && self.peek_at(1).kind == TokKind::Punct(Punct::RParen)
                    {
                        self.bump();
                        break;
                    }
                    let p = self.parse_param()?;
                    params.push(p);
                    if !self.eat_punct(Punct::Comma) {
                        break;
                    }
                }
            }
            self.expect_punct(Punct::RParen)?;
            let body = self.parse_block()?;
            Ok(Item::Func(FuncDef { ret: ty, name, params, body, span: name_span }))
        } else {
            // Global declaration: rewind and reparse as a declaration.
            self.idx = save;
            let mut decl = self.parse_decl()?;
            decl.is_static = decl.is_static || is_static;
            Ok(Item::Global(decl))
        }
    }

    fn eat_static_extern(&mut self) -> bool {
        let mut is_static = false;
        loop {
            if self.at_kw(Keyword::Static) {
                self.bump();
                is_static = true;
            } else if self.at_kw(Keyword::Extern) || self.at_kw(Keyword::Volatile) {
                self.bump();
            } else {
                return is_static;
            }
        }
    }

    fn parse_param(&mut self) -> Result<Param> {
        let ty = self.parse_type()?;
        let mut ty = ty;
        let (name, span) = if matches!(self.peek().kind, TokKind::Ident(_)) {
            self.expect_ident()?
        } else {
            (String::new(), self.peek().span)
        };
        // Array suffix on parameter (decays to pointer, but keep dims).
        while self.at_punct(Punct::LBracket) {
            self.bump();
            if self.at_punct(Punct::RBracket) {
                self.bump();
                ty.dims.push(None);
            } else {
                let e = self.parse_expr()?;
                self.expect_punct(Punct::RBracket)?;
                ty.dims.push(Some(e));
            }
        }
        Ok(Param { ty, name, span })
    }

    // ---------------------------------------------------------------
    // Types and declarations
    // ---------------------------------------------------------------

    fn at_type_start(&self) -> bool {
        matches!(
            self.peek().kind,
            TokKind::Keyword(
                Keyword::Int
                    | Keyword::Long
                    | Keyword::Short
                    | Keyword::Char
                    | Keyword::Float
                    | Keyword::Double
                    | Keyword::Void
                    | Keyword::Unsigned
                    | Keyword::Signed
                    | Keyword::Const
                    | Keyword::Static
                    | Keyword::Volatile
                    | Keyword::Extern
            )
        ) || matches!(self.peek().kind, TokKind::Ident(ref s) if s == "omp_lock_t" || s == "size_t" || s == "uintptr_t")
    }

    fn parse_type(&mut self) -> Result<Type> {
        let mut unsigned = false;
        let mut is_const = false;
        let mut base: Option<BaseType> = None;
        let mut long_count = 0u8;
        loop {
            match &self.peek().kind {
                TokKind::Keyword(Keyword::Const) => {
                    is_const = true;
                    self.bump();
                }
                TokKind::Keyword(Keyword::Volatile) => {
                    self.bump();
                }
                TokKind::Keyword(Keyword::Unsigned) => {
                    unsigned = true;
                    self.bump();
                }
                TokKind::Keyword(Keyword::Signed) => {
                    self.bump();
                }
                TokKind::Keyword(Keyword::Int) => {
                    if base.is_none() {
                        base = Some(BaseType::Int);
                    }
                    self.bump();
                }
                TokKind::Keyword(Keyword::Long) => {
                    long_count += 1;
                    base = Some(BaseType::Long);
                    self.bump();
                }
                TokKind::Keyword(Keyword::Short) => {
                    base = Some(BaseType::Short);
                    self.bump();
                }
                TokKind::Keyword(Keyword::Char) => {
                    base = Some(BaseType::Char);
                    self.bump();
                }
                TokKind::Keyword(Keyword::Float) => {
                    base = Some(BaseType::Float);
                    self.bump();
                }
                TokKind::Keyword(Keyword::Double) => {
                    base = Some(BaseType::Double);
                    self.bump();
                }
                TokKind::Keyword(Keyword::Void) => {
                    base = Some(BaseType::Void);
                    self.bump();
                }
                // Named opaque types used by the corpus (locks, size_t).
                TokKind::Ident(s) if base.is_none() && (s == "omp_lock_t" || s == "size_t" || s == "uintptr_t") =>
                {
                    // All three opaque types lower to a word-sized integer.
                    base = Some(BaseType::Long);
                    self.bump();
                }
                _ => break,
            }
        }
        let _ = long_count;
        let Some(base) = base else {
            return Err(self.err("expected type"));
        };
        let mut pointers = 0u8;
        while self.at_punct(Punct::Star) {
            pointers = self.one_more_star(pointers)?;
        }
        Ok(Type { base, pointers, unsigned, is_const, dims: Vec::new() })
    }

    /// Consume a `*` of a declarator; pointer levels are nesting too.
    fn one_more_star(&mut self, pointers: u8) -> Result<u8> {
        let span = self.bump().span;
        pointers.checked_add(1).ok_or_else(|| ParseError::too_deep(span))
    }

    fn parse_decl(&mut self) -> Result<Decl> {
        let start = self.peek().span;
        let is_static = self.eat_static_extern();
        let base_ty = self.parse_type()?;
        let mut vars = Vec::new();
        loop {
            let mut ty = base_ty.clone();
            // Additional per-declarator stars (`int *p, x`).
            while self.at_punct(Punct::Star) {
                ty.pointers = self.one_more_star(ty.pointers)?;
            }
            let (name, span) = self.expect_ident()?;
            while self.at_punct(Punct::LBracket) {
                self.bump();
                if self.at_punct(Punct::RBracket) {
                    self.bump();
                    ty.dims.push(None);
                } else {
                    let e = self.parse_expr()?;
                    self.expect_punct(Punct::RBracket)?;
                    ty.dims.push(Some(e));
                }
            }
            let init = if self.eat_punct(Punct::Assign) {
                if self.at_punct(Punct::LBrace) {
                    self.bump();
                    let mut items = Vec::new();
                    if !self.at_punct(Punct::RBrace) {
                        loop {
                            items.push(self.parse_assign_expr()?);
                            if !self.eat_punct(Punct::Comma) {
                                break;
                            }
                        }
                    }
                    self.expect_punct(Punct::RBrace)?;
                    Some(Init::List(items))
                } else {
                    Some(Init::Expr(self.parse_assign_expr()?))
                }
            } else {
                None
            };
            vars.push(Declarator { name, ty, init, span });
            if !self.eat_punct(Punct::Comma) {
                break;
            }
        }
        let end = self.expect_punct(Punct::Semi)?;
        Ok(Decl { ty: base_ty, is_static, vars, span: start.to(end) })
    }

    // ---------------------------------------------------------------
    // Statements
    // ---------------------------------------------------------------

    fn parse_block(&mut self) -> Result<Block> {
        let open = self.expect_punct(Punct::LBrace)?;
        let mut stmts = Vec::new();
        while !self.at_punct(Punct::RBrace) {
            if self.at_eof() {
                return Err(self.err("unterminated block"));
            }
            stmts.push(self.parse_stmt()?);
        }
        let close = self.expect_punct(Punct::RBrace)?;
        Ok(Block { stmts, span: open.to(close) })
    }

    /// Parse a single statement (public for directive-body reuse in tests).
    pub fn parse_stmt(&mut self) -> Result<Stmt> {
        // #include inside a body: skip it.
        while matches!(self.peek().kind, TokKind::PpDirective(_)) {
            self.bump();
        }
        self.nested(Self::parse_stmt_here)
    }

    // Statement and expression parsers keep one small function per
    // construct: in unoptimized builds a frame holds every local of
    // every match arm, and these frames repeat once per nesting level.
    fn parse_stmt_here(&mut self) -> Result<Stmt> {
        match &self.peek().kind {
            TokKind::Pragma(_) => self.parse_omp_stmt(),
            TokKind::Punct(Punct::LBrace) => self.parse_block().map(Stmt::Block),
            TokKind::Punct(Punct::Semi) => Ok(Stmt::Empty(self.bump().span)),
            TokKind::Keyword(Keyword::If) => self.parse_if(),
            TokKind::Keyword(Keyword::For) => self.parse_for(),
            TokKind::Keyword(Keyword::While) => self.parse_while(),
            TokKind::Keyword(Keyword::Do) => self.parse_do_while(),
            TokKind::Keyword(Keyword::Return) => self.parse_return(),
            TokKind::Keyword(Keyword::Break) => self.parse_jump(Stmt::Break),
            TokKind::Keyword(Keyword::Continue) => self.parse_jump(Stmt::Continue),
            _ if self.at_type_start() => self.parse_decl().map(Stmt::Decl),
            _ => {
                let e = self.parse_expr()?;
                self.expect_punct(Punct::Semi)?;
                Ok(Stmt::Expr(e))
            }
        }
    }

    fn parse_omp_stmt(&mut self) -> Result<Stmt> {
        let t = self.bump();
        let TokKind::Pragma(text) = t.kind else { unreachable!() };
        let dir = Self::parse_directive_text(&text, t.span)?;
        let body = if dir.kind.takes_body() { Some(Box::new(self.parse_stmt()?)) } else { None };
        Ok(Stmt::Omp { dir, body, span: t.span })
    }

    fn parse_if(&mut self) -> Result<Stmt> {
        let span = self.bump().span;
        let cond = self.parse_paren_cond()?;
        let then = Box::new(self.parse_stmt()?);
        let els = if self.at_kw(Keyword::Else) {
            self.bump();
            Some(Box::new(self.parse_stmt()?))
        } else {
            None
        };
        Ok(Stmt::If { cond, then, els, span })
    }

    fn parse_for(&mut self) -> Result<Stmt> {
        let span = self.bump().span;
        self.expect_punct(Punct::LParen)?;
        let init = if self.at_punct(Punct::Semi) {
            self.bump();
            ForInit::Empty
        } else if self.at_type_start() {
            ForInit::Decl(self.parse_decl()?)
        } else {
            let e = self.parse_expr()?;
            self.expect_punct(Punct::Semi)?;
            ForInit::Expr(e)
        };
        let cond = if self.at_punct(Punct::Semi) { None } else { Some(self.parse_expr()?) };
        self.expect_punct(Punct::Semi)?;
        let step = if self.at_punct(Punct::RParen) { None } else { Some(self.parse_expr()?) };
        self.expect_punct(Punct::RParen)?;
        let body = self.parse_stmt()?;
        Ok(Stmt::For(Box::new(ForStmt { init, cond, step, body, span })))
    }

    fn parse_while(&mut self) -> Result<Stmt> {
        let span = self.bump().span;
        let cond = self.parse_paren_cond()?;
        let body = Box::new(self.parse_stmt()?);
        Ok(Stmt::While { cond, body, span })
    }

    fn parse_do_while(&mut self) -> Result<Stmt> {
        let span = self.bump().span;
        let body = Box::new(self.parse_stmt()?);
        if !self.at_kw(Keyword::While) {
            return Err(self.err("expected `while` after `do` body"));
        }
        self.bump();
        let cond = self.parse_paren_cond()?;
        self.expect_punct(Punct::Semi)?;
        Ok(Stmt::DoWhile { body, cond, span })
    }

    fn parse_return(&mut self) -> Result<Stmt> {
        let span = self.bump().span;
        let e = if self.at_punct(Punct::Semi) { None } else { Some(self.parse_expr()?) };
        self.expect_punct(Punct::Semi)?;
        Ok(Stmt::Return(e, span))
    }

    fn parse_jump(&mut self, make: fn(Span) -> Stmt) -> Result<Stmt> {
        let span = self.bump().span;
        self.expect_punct(Punct::Semi)?;
        Ok(make(span))
    }

    /// `( expr )` after `if` / `while`.
    fn parse_paren_cond(&mut self) -> Result<Expr> {
        self.expect_punct(Punct::LParen)?;
        let cond = self.parse_expr()?;
        self.expect_punct(Punct::RParen)?;
        Ok(cond)
    }

    // ---------------------------------------------------------------
    // Expressions (precedence climbing)
    // ---------------------------------------------------------------

    /// Parse a full (comma-free) expression.
    pub fn parse_expr(&mut self) -> Result<Expr> {
        self.parse_assign_expr()
    }

    fn parse_assign_expr(&mut self) -> Result<Expr> {
        self.parse_cond_expr().and_then(|lhs| self.parse_assign_tail(lhs))
    }

    fn parse_assign_tail(&mut self, lhs: Expr) -> Result<Expr> {
        let op = match self.peek().kind {
            TokKind::Punct(Punct::Assign) => AssignOp::Assign,
            TokKind::Punct(Punct::PlusAssign) => AssignOp::Add,
            TokKind::Punct(Punct::MinusAssign) => AssignOp::Sub,
            TokKind::Punct(Punct::StarAssign) => AssignOp::Mul,
            TokKind::Punct(Punct::SlashAssign) => AssignOp::Div,
            TokKind::Punct(Punct::PercentAssign) => AssignOp::Rem,
            TokKind::Punct(Punct::AmpAssign) => AssignOp::BitAnd,
            TokKind::Punct(Punct::PipeAssign) => AssignOp::BitOr,
            TokKind::Punct(Punct::CaretAssign) => AssignOp::BitXor,
            TokKind::Punct(Punct::ShlAssign) => AssignOp::Shl,
            TokKind::Punct(Punct::ShrAssign) => AssignOp::Shr,
            _ => return Ok(lhs),
        };
        self.parse_assign_rhs(lhs, op)
    }

    fn parse_assign_rhs(&mut self, lhs: Expr, op: AssignOp) -> Result<Expr> {
        self.bump();
        let rhs = self.nested(Self::parse_assign_expr)?;
        let span = lhs.span().to(rhs.span());
        Ok(Expr::Assign { op, lhs: Box::new(lhs), rhs: Box::new(rhs), span })
    }

    fn parse_cond_expr(&mut self) -> Result<Expr> {
        self.parse_bin_expr(0).and_then(|cond| {
            if self.at_punct(Punct::Question) {
                self.parse_ternary(cond)
            } else {
                Ok(cond)
            }
        })
    }

    fn parse_ternary(&mut self, cond: Expr) -> Result<Expr> {
        self.bump();
        let then = self.nested(Self::parse_assign_expr)?;
        self.expect_punct(Punct::Colon)?;
        let els = self.nested(Self::parse_cond_expr)?;
        let span = cond.span().to(els.span());
        Ok(Expr::Cond { cond: Box::new(cond), then: Box::new(then), els: Box::new(els), span })
    }

    fn bin_op_prec(&self) -> Option<(BinOp, u8)> {
        let op = match self.peek().kind {
            TokKind::Punct(Punct::OrOr) => (BinOp::Or, 1),
            TokKind::Punct(Punct::AndAnd) => (BinOp::And, 2),
            TokKind::Punct(Punct::Pipe) => (BinOp::BitOr, 3),
            TokKind::Punct(Punct::Caret) => (BinOp::BitXor, 4),
            TokKind::Punct(Punct::Amp) => (BinOp::BitAnd, 5),
            TokKind::Punct(Punct::EqEq) => (BinOp::Eq, 6),
            TokKind::Punct(Punct::NotEq) => (BinOp::Ne, 6),
            TokKind::Punct(Punct::Lt) => (BinOp::Lt, 7),
            TokKind::Punct(Punct::Gt) => (BinOp::Gt, 7),
            TokKind::Punct(Punct::Le) => (BinOp::Le, 7),
            TokKind::Punct(Punct::Ge) => (BinOp::Ge, 7),
            TokKind::Punct(Punct::Shl) => (BinOp::Shl, 8),
            TokKind::Punct(Punct::Shr) => (BinOp::Shr, 8),
            TokKind::Punct(Punct::Plus) => (BinOp::Add, 9),
            TokKind::Punct(Punct::Minus) => (BinOp::Sub, 9),
            TokKind::Punct(Punct::Star) => (BinOp::Mul, 10),
            TokKind::Punct(Punct::Slash) => (BinOp::Div, 10),
            TokKind::Punct(Punct::Percent) => (BinOp::Rem, 10),
            _ => return None,
        };
        Some(op)
    }

    fn parse_bin_expr(&mut self, min_prec: u8) -> Result<Expr> {
        let outer = self.start_chain();
        let e = self.parse_unary_expr().and_then(|lhs| self.parse_bin_ops(lhs, min_prec));
        self.end_chain(outer);
        e
    }

    fn parse_bin_ops(&mut self, mut lhs: Expr, min_prec: u8) -> Result<Expr> {
        while let Some((op, prec)) = self.bin_op_prec() {
            if prec < min_prec {
                break;
            }
            lhs = self.parse_bin_rhs(lhs, op, prec)?;
        }
        Ok(lhs)
    }

    fn parse_bin_rhs(&mut self, lhs: Expr, op: BinOp, prec: u8) -> Result<Expr> {
        self.bump();
        self.wrap()?;
        let rhs = self.parse_bin_expr(prec + 1)?;
        let span = lhs.span().to(rhs.span());
        Ok(Expr::Binary { op, lhs: Box::new(lhs), rhs: Box::new(rhs), span })
    }

    fn parse_unary_expr(&mut self) -> Result<Expr> {
        self.nested(Self::parse_unary_here)
    }

    fn parse_unary_here(&mut self) -> Result<Expr> {
        let build: fn(Box<Expr>, Span) -> Expr = match self.peek().kind {
            TokKind::Punct(Punct::Minus) => |expr, span| Expr::Unary { op: UnOp::Neg, expr, span },
            TokKind::Punct(Punct::Bang) => |expr, span| Expr::Unary { op: UnOp::Not, expr, span },
            TokKind::Punct(Punct::Tilde) => {
                |expr, span| Expr::Unary { op: UnOp::BitNot, expr, span }
            }
            TokKind::Punct(Punct::Star) => |expr, span| Expr::Unary { op: UnOp::Deref, expr, span },
            TokKind::Punct(Punct::Amp) => {
                |expr, span| Expr::Unary { op: UnOp::AddrOf, expr, span }
            }
            TokKind::Punct(Punct::PlusPlus) => {
                |expr, span| Expr::IncDec { inc: true, prefix: true, expr, span }
            }
            TokKind::Punct(Punct::MinusMinus) => {
                |expr, span| Expr::IncDec { inc: false, prefix: true, expr, span }
            }
            TokKind::Punct(Punct::Plus) => {
                self.bump();
                return self.parse_unary_expr();
            }
            TokKind::Keyword(Keyword::Sizeof) => return self.parse_sizeof(),
            _ => return self.parse_postfix_expr(),
        };
        self.parse_prefix(build)
    }

    fn parse_prefix(&mut self, build: fn(Box<Expr>, Span) -> Expr) -> Result<Expr> {
        let start = self.bump().span;
        let e = self.parse_unary_expr()?;
        let span = start.to(e.span());
        Ok(build(Box::new(e), span))
    }

    /// `sizeof(type)` or `sizeof expr` — both fold to `IntLit 8`.
    fn parse_sizeof(&mut self) -> Result<Expr> {
        let span = self.bump().span;
        if self.at_punct(Punct::LParen) {
            self.bump();
            if self.at_type_start() {
                let _ = self.parse_type()?;
            } else {
                let _ = self.parse_expr()?;
            }
            let end = self.expect_punct(Punct::RParen)?;
            Ok(Expr::IntLit { value: 8, span: span.to(end) })
        } else {
            let e = self.parse_unary_expr()?;
            Ok(Expr::IntLit { value: 8, span: span.to(e.span()) })
        }
    }

    fn parse_postfix_expr(&mut self) -> Result<Expr> {
        let outer = self.start_chain();
        let e = self.parse_primary_expr().and_then(|e| self.parse_postfix_ops(e));
        self.end_chain(outer);
        e
    }

    fn parse_postfix_ops(&mut self, mut e: Expr) -> Result<Expr> {
        loop {
            e = match self.peek().kind {
                TokKind::Punct(Punct::LBracket) => self.parse_index(e)?,
                TokKind::Punct(Punct::PlusPlus) => self.parse_postfix_incdec(e, true)?,
                TokKind::Punct(Punct::MinusMinus) => self.parse_postfix_incdec(e, false)?,
                _ => return Ok(e),
            };
        }
    }

    fn parse_index(&mut self, base: Expr) -> Result<Expr> {
        self.bump();
        self.wrap()?;
        let idx = self.parse_expr()?;
        let end = self.expect_punct(Punct::RBracket)?;
        let span = base.span().to(end);
        Ok(Expr::Index { base: Box::new(base), index: Box::new(idx), span })
    }

    fn parse_postfix_incdec(&mut self, e: Expr, inc: bool) -> Result<Expr> {
        let end = self.bump().span;
        self.wrap()?;
        let span = e.span().to(end);
        Ok(Expr::IncDec { inc, prefix: false, expr: Box::new(e), span })
    }

    fn parse_primary_expr(&mut self) -> Result<Expr> {
        if self.at_punct(Punct::LParen) {
            let start = self.peek().span;
            return self.parse_paren_or_cast(start);
        }
        self.parse_atom()
    }

    fn parse_atom(&mut self) -> Result<Expr> {
        let span = self.peek().span;
        let e = match &self.peek().kind {
            TokKind::IntLit(v) => Expr::IntLit { value: *v, span },
            TokKind::FloatLit(v) => Expr::FloatLit { value: *v, span },
            TokKind::StrLit(s) => Expr::StrLit { value: s.clone(), span },
            TokKind::CharLit(c) => Expr::CharLit { value: *c, span },
            TokKind::Ident(name) if self.peek_at(1).kind == TokKind::Punct(Punct::LParen) => {
                let callee = name.clone();
                return self.parse_call(callee, span);
            }
            TokKind::Ident(name) => Expr::Ident { name: name.clone(), span },
            other => return Err(ParseError::new(format!("expected expression, found `{other}`"), span)),
        };
        self.bump();
        Ok(e)
    }

    fn parse_call(&mut self, callee: String, start: Span) -> Result<Expr> {
        self.bump();
        self.bump();
        let mut args = Vec::new();
        if !self.at_punct(Punct::RParen) {
            loop {
                args.push(self.parse_assign_expr()?);
                if !self.eat_punct(Punct::Comma) {
                    break;
                }
            }
        }
        let end = self.expect_punct(Punct::RParen)?;
        Ok(Expr::Call { callee, args, span: start.to(end) })
    }

    fn parse_paren_or_cast(&mut self, start: Span) -> Result<Expr> {
        self.bump();
        if self.at_type_start() {
            return self.parse_cast(start);
        }
        self.parse_assign_expr().and_then(|e| self.expect_punct(Punct::RParen).map(|_| e))
    }

    fn parse_cast(&mut self, start: Span) -> Result<Expr> {
        let ty = self.parse_type()?;
        self.expect_punct(Punct::RParen)?;
        let e = self.parse_unary_expr()?;
        let span = start.to(e.span());
        Ok(Expr::Cast { ty, expr: Box::new(e), span })
    }

    // ---------------------------------------------------------------
    // Pragma / directive parsing
    // ---------------------------------------------------------------

    /// Parse the text of a pragma line (without the `#`).
    pub fn parse_directive_text(text: &str, span: Span) -> Result<Directive> {
        // `text` is like `pragma omp parallel for private(i)`.
        let rest = text.strip_prefix("pragma").unwrap_or(text).trim_start();
        if !rest.starts_with("omp") {
            return Ok(Directive {
                kind: DirectiveKind::Other(rest.to_string()),
                clauses: Vec::new(),
                span,
            });
        }
        let body = rest["omp".len()..].trim_start();
        let toks = Lexer::tokenize(body).map_err(|e| ParseError::new(e.msg, span))?;
        let mut p = Parser::new(toks);
        p.parse_omp_directive(span).map_err(|e| ParseError {
            msg: format!("in `#pragma omp`: {}", e.msg),
            span,
            kind: e.kind,
        })
    }

    fn eat_word(&mut self, w: &str) -> bool {
        let is = match &self.peek().kind {
            TokKind::Ident(s) => s == w,
            TokKind::Keyword(k) => k.as_str() == w,
            _ => false,
        };
        if is {
            self.bump();
        }
        is
    }

    fn peek_word(&self) -> Option<String> {
        match &self.peek().kind {
            TokKind::Ident(s) => Some(s.clone()),
            TokKind::Keyword(k) => Some(k.as_str().to_string()),
            _ => None,
        }
    }

    fn parse_omp_directive(&mut self, span: Span) -> Result<Directive> {
        let kind = if self.eat_word("parallel") {
            if self.eat_word("for") {
                if self.eat_word("simd") {
                    DirectiveKind::ParallelForSimd
                } else {
                    DirectiveKind::ParallelFor
                }
            } else if self.eat_word("sections") {
                DirectiveKind::ParallelSections
            } else {
                DirectiveKind::Parallel
            }
        } else if self.eat_word("for") {
            if self.eat_word("simd") {
                DirectiveKind::ForSimd
            } else {
                DirectiveKind::For
            }
        } else if self.eat_word("simd") {
            DirectiveKind::Simd
        } else if self.eat_word("sections") {
            DirectiveKind::Sections
        } else if self.eat_word("section") {
            DirectiveKind::Section
        } else if self.eat_word("single") {
            DirectiveKind::Single
        } else if self.eat_word("master") || self.eat_word("masked") {
            DirectiveKind::Master
        } else if self.eat_word("critical") {
            let name = if self.eat_punct(Punct::LParen) {
                let (n, _) = self.expect_ident()?;
                self.expect_punct(Punct::RParen)?;
                Some(n)
            } else {
                None
            };
            DirectiveKind::Critical(name)
        } else if self.eat_word("atomic") {
            let kind = if self.eat_word("read") {
                AtomicKind::Read
            } else if self.eat_word("write") {
                AtomicKind::Write
            } else if self.eat_word("update") {
                AtomicKind::Update
            } else if self.eat_word("capture") {
                AtomicKind::Capture
            } else {
                AtomicKind::Update
            };
            DirectiveKind::Atomic(kind)
        } else if self.eat_word("barrier") {
            DirectiveKind::Barrier
        } else if self.eat_word("taskwait") {
            DirectiveKind::Taskwait
        } else if self.eat_word("taskgroup") {
            DirectiveKind::Taskgroup
        } else if self.eat_word("task") {
            DirectiveKind::Task
        } else if self.eat_word("ordered") {
            DirectiveKind::Ordered
        } else if self.eat_word("threadprivate") {
            self.expect_punct(Punct::LParen)?;
            let list = self.parse_name_list()?;
            self.expect_punct(Punct::RParen)?;
            DirectiveKind::Threadprivate(list)
        } else if self.eat_word("flush") {
            let list = if self.eat_punct(Punct::LParen) {
                let l = self.parse_name_list()?;
                self.expect_punct(Punct::RParen)?;
                l
            } else {
                Vec::new()
            };
            DirectiveKind::Flush(list)
        } else if self.eat_word("target") {
            // Accept combined target constructs; model the loop form when
            // `parallel for` (optionally behind teams/distribute) follows.
            let mut saw_loop = false;
            while let Some(w) = self.peek_word() {
                match w.as_str() {
                    "teams" | "distribute" | "parallel" => {
                        self.bump();
                    }
                    "for" => {
                        self.bump();
                        let _ = self.eat_word("simd");
                        saw_loop = true;
                        break;
                    }
                    "data" | "enter" | "exit" | "update" => {
                        self.bump();
                    }
                    _ => break,
                }
            }
            if saw_loop {
                DirectiveKind::TargetParallelFor
            } else {
                DirectiveKind::Target
            }
        } else {
            // Unknown omp directive: keep text.
            let mut rest = String::new();
            while !self.at_eof() {
                let t = self.bump();
                rest.push_str(&t.kind.to_string());
                rest.push(' ');
            }
            return Ok(Directive {
                kind: DirectiveKind::Other(format!("omp {}", rest.trim())),
                clauses: Vec::new(),
                span,
            });
        };

        let mut clauses = Vec::new();
        while !self.at_eof() {
            // Clause separators (commas) are optional in OpenMP.
            if self.eat_punct(Punct::Comma) {
                continue;
            }
            clauses.push(self.parse_clause()?);
        }
        Ok(Directive { kind, clauses, span })
    }

    fn parse_name_list(&mut self) -> Result<Vec<String>> {
        let mut names = Vec::new();
        loop {
            let (mut n, _) = self.expect_ident()?;
            // Array-section syntax `a[0:n]` or element `a[0]`: keep textual.
            if self.at_punct(Punct::LBracket) {
                let mut depth = 0;
                loop {
                    let t = self.bump();
                    match t.kind {
                        TokKind::Punct(Punct::LBracket) => {
                            depth += 1;
                            n.push('[');
                        }
                        TokKind::Punct(Punct::RBracket) => {
                            depth -= 1;
                            n.push(']');
                            if depth == 0 && !self.at_punct(Punct::LBracket) {
                                break;
                            }
                        }
                        other => n.push_str(&other.to_string()),
                    }
                    if self.at_eof() {
                        break;
                    }
                }
            }
            names.push(n);
            if !self.eat_punct(Punct::Comma) {
                break;
            }
        }
        Ok(names)
    }

    fn parse_clause(&mut self) -> Result<Clause> {
        let Some(word) = self.peek_word() else {
            return Err(self.err(format!("expected clause, found `{}`", self.peek().kind)));
        };
        self.bump();
        let clause = match word.as_str() {
            "private" => {
                self.expect_punct(Punct::LParen)?;
                let l = self.parse_name_list()?;
                self.expect_punct(Punct::RParen)?;
                Clause::Private(l)
            }
            "firstprivate" => {
                self.expect_punct(Punct::LParen)?;
                let l = self.parse_name_list()?;
                self.expect_punct(Punct::RParen)?;
                Clause::Firstprivate(l)
            }
            "lastprivate" => {
                self.expect_punct(Punct::LParen)?;
                let l = self.parse_name_list()?;
                self.expect_punct(Punct::RParen)?;
                Clause::Lastprivate(l)
            }
            "shared" => {
                self.expect_punct(Punct::LParen)?;
                let l = self.parse_name_list()?;
                self.expect_punct(Punct::RParen)?;
                Clause::Shared(l)
            }
            "linear" => {
                self.expect_punct(Punct::LParen)?;
                let l = self.parse_name_list()?;
                self.expect_punct(Punct::RParen)?;
                Clause::Linear(l)
            }
            "reduction" => {
                self.expect_punct(Punct::LParen)?;
                let op = self.parse_reduction_op()?;
                self.expect_punct(Punct::Colon)?;
                let l = self.parse_name_list()?;
                self.expect_punct(Punct::RParen)?;
                Clause::Reduction(op, l)
            }
            "schedule" => {
                self.expect_punct(Punct::LParen)?;
                let kind = match self.peek_word().as_deref() {
                    Some("static") => ScheduleKind::Static,
                    Some("dynamic") => ScheduleKind::Dynamic,
                    Some("guided") => ScheduleKind::Guided,
                    Some("auto") => ScheduleKind::Auto,
                    Some("runtime") => ScheduleKind::Runtime,
                    other => {
                        return Err(self.err(format!("unknown schedule kind {other:?}")));
                    }
                };
                self.bump();
                let chunk = if self.eat_punct(Punct::Comma) {
                    Some(self.parse_expr()?)
                } else {
                    None
                };
                self.expect_punct(Punct::RParen)?;
                Clause::Schedule(kind, chunk)
            }
            "num_threads" => {
                self.expect_punct(Punct::LParen)?;
                let e = self.parse_expr()?;
                self.expect_punct(Punct::RParen)?;
                Clause::NumThreads(e)
            }
            "if" => {
                self.expect_punct(Punct::LParen)?;
                let e = self.parse_expr()?;
                self.expect_punct(Punct::RParen)?;
                Clause::If(e)
            }
            "collapse" => {
                self.expect_punct(Punct::LParen)?;
                let e = self.parse_expr()?;
                self.expect_punct(Punct::RParen)?;
                let n = e
                    .const_int()
                    .and_then(|v| u32::try_from(v).ok())
                    .ok_or_else(|| self.err("collapse depth must be a constant"))?;
                Clause::Collapse(n)
            }
            "safelen" => {
                self.expect_punct(Punct::LParen)?;
                let e = self.parse_expr()?;
                self.expect_punct(Punct::RParen)?;
                let n = e
                    .const_int()
                    .and_then(|v| u32::try_from(v).ok())
                    .ok_or_else(|| self.err("safelen must be a constant"))?;
                Clause::Safelen(n)
            }
            "nowait" => Clause::Nowait,
            "ordered" => Clause::OrderedClause,
            "default" => {
                self.expect_punct(Punct::LParen)?;
                let kind = match self.peek_word().as_deref() {
                    Some("shared") => DefaultKind::Shared,
                    Some("none") => DefaultKind::None,
                    other => return Err(self.err(format!("unknown default kind {other:?}"))),
                };
                self.bump();
                self.expect_punct(Punct::RParen)?;
                Clause::Default(kind)
            }
            "depend" => {
                self.expect_punct(Punct::LParen)?;
                let ty = match self.peek_word().as_deref() {
                    Some("in") => DependType::In,
                    Some("out") => DependType::Out,
                    Some("inout") => DependType::Inout,
                    other => return Err(self.err(format!("unknown depend type {other:?}"))),
                };
                self.bump();
                self.expect_punct(Punct::Colon)?;
                let l = self.parse_name_list()?;
                self.expect_punct(Punct::RParen)?;
                Clause::Depend(ty, l)
            }
            // Target-family clauses we keep verbatim.
            "map" | "device" | "to" | "from" | "defaultmap" | "proc_bind" => {
                let mut text = word.clone();
                if self.at_punct(Punct::LParen) {
                    text.push('(');
                    self.bump();
                    let mut depth = 1;
                    while depth > 0 && !self.at_eof() {
                        let t = self.bump();
                        match t.kind {
                            TokKind::Punct(Punct::LParen) => {
                                depth += 1;
                                text.push('(');
                            }
                            TokKind::Punct(Punct::RParen) => {
                                depth -= 1;
                                if depth > 0 {
                                    text.push(')');
                                }
                            }
                            other => {
                                text.push_str(&other.to_string());
                                text.push(' ');
                            }
                        }
                    }
                    text = text.trim_end().to_string();
                    text.push(')');
                }
                Clause::Verbatim(text)
            }
            other => return Err(self.err(format!("unknown clause `{other}`"))),
        };
        Ok(clause)
    }

    fn parse_reduction_op(&mut self) -> Result<ReductionOp> {
        let op = match &self.peek().kind {
            TokKind::Punct(Punct::Plus) => ReductionOp::Add,
            TokKind::Punct(Punct::Minus) => ReductionOp::Sub,
            TokKind::Punct(Punct::Star) => ReductionOp::Mul,
            TokKind::Punct(Punct::Amp) => ReductionOp::BitAnd,
            TokKind::Punct(Punct::Pipe) => ReductionOp::BitOr,
            TokKind::Punct(Punct::Caret) => ReductionOp::BitXor,
            TokKind::Punct(Punct::AndAnd) => ReductionOp::LogAnd,
            TokKind::Punct(Punct::OrOr) => ReductionOp::LogOr,
            TokKind::Ident(s) if s == "min" => ReductionOp::Min,
            TokKind::Ident(s) if s == "max" => ReductionOp::Max,
            other => return Err(self.err(format!("unknown reduction operator `{other}`"))),
        };
        self.bump();
        Ok(op)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_ok(src: &str) -> TranslationUnit {
        match parse(src) {
            Ok(u) => u,
            Err(e) => panic!("parse error: {e}\nsource:\n{src}"),
        }
    }

    #[test]
    fn parses_minimal_main() {
        let u = parse_ok("int main() { return 0; }");
        assert_eq!(u.items.len(), 1);
        let Item::Func(f) = &u.items[0] else { panic!() };
        assert_eq!(f.name, "main");
        assert_eq!(f.body.stmts.len(), 1);
    }

    #[test]
    fn parses_drb001_style_kernel() {
        let src = r#"
#include <stdio.h>
int main(int argc, char* argv[])
{
  int len = 1000;
  int a[1000];
  int i;
  for (i=0; i<len; i++)
    a[i] = i;
  #pragma omp parallel for
  for (i=0; i<len-1; i++)
    a[i] = a[i+1] + 1;
  printf("a[500]=%d\n", a[500]);
  return 0;
}
"#;
        let u = parse_ok(src);
        assert_eq!(u.preprocessor.len(), 1);
        let Item::Func(f) = &u.items[0] else { panic!() };
        let has_omp = f
            .body
            .stmts
            .iter()
            .any(|s| matches!(s, Stmt::Omp { dir, .. } if dir.kind == DirectiveKind::ParallelFor));
        assert!(has_omp);
    }

    #[test]
    fn parses_clauses() {
        let d = Parser::parse_directive_text(
            "pragma omp parallel for private(i, j) reduction(+: sum) schedule(dynamic, 4) num_threads(8) nowait",
            Span::DUMMY,
        )
        .unwrap();
        assert_eq!(d.kind, DirectiveKind::ParallelFor);
        assert_eq!(d.privatized(), vec!["i", "j"]);
        assert_eq!(d.reductions(), vec!["sum"]);
        assert!(d.has_nowait());
        let (k, chunk) = d.schedule().unwrap();
        assert_eq!(*k, ScheduleKind::Dynamic);
        assert_eq!(chunk.unwrap().const_int(), Some(4));
        assert!(d.num_threads().is_some());
    }

    #[test]
    fn parses_critical_with_name() {
        let d = Parser::parse_directive_text("pragma omp critical (lock1)", Span::DUMMY).unwrap();
        assert_eq!(d.kind, DirectiveKind::Critical(Some("lock1".into())));
    }

    #[test]
    fn parses_atomic_kinds() {
        for (txt, k) in [
            ("pragma omp atomic", AtomicKind::Update),
            ("pragma omp atomic read", AtomicKind::Read),
            ("pragma omp atomic write", AtomicKind::Write),
            ("pragma omp atomic capture", AtomicKind::Capture),
        ] {
            let d = Parser::parse_directive_text(txt, Span::DUMMY).unwrap();
            assert_eq!(d.kind, DirectiveKind::Atomic(k), "{txt}");
        }
    }

    #[test]
    fn barrier_takes_no_body() {
        let src = "void f() { int x; \n#pragma omp barrier\n x = 1; }";
        let u = parse_ok(src);
        let Item::Func(f) = &u.items[0] else { panic!() };
        assert_eq!(f.body.stmts.len(), 3); // decl, barrier, assignment
    }

    #[test]
    fn parses_sections() {
        let src = r#"
void f() {
  #pragma omp parallel sections
  {
    #pragma omp section
    { int x = 1; }
    #pragma omp section
    { int y = 2; }
  }
}
"#;
        let u = parse_ok(src);
        let Item::Func(f) = &u.items[0] else { panic!() };
        let Stmt::Omp { dir, body, .. } = &f.body.stmts[0] else { panic!() };
        assert_eq!(dir.kind, DirectiveKind::ParallelSections);
        let Stmt::Block(b) = body.as_deref().unwrap() else { panic!() };
        assert_eq!(b.stmts.len(), 2);
    }

    #[test]
    fn parses_task_with_depend() {
        let d = Parser::parse_directive_text(
            "pragma omp task depend(out: a) depend(in: b) firstprivate(i)",
            Span::DUMMY,
        )
        .unwrap();
        assert_eq!(d.kind, DirectiveKind::Task);
        assert_eq!(d.clauses.len(), 3);
    }

    #[test]
    fn parses_threadprivate_at_file_scope() {
        let u = parse_ok("int counter;\n#pragma omp threadprivate(counter)\nint main() { return 0; }");
        assert!(u
            .items
            .iter()
            .any(|i| matches!(i, Item::Pragma(d) if matches!(&d.kind, DirectiveKind::Threadprivate(v) if v == &vec!["counter".to_string()]))));
    }

    #[test]
    fn parses_target_combined() {
        let d = Parser::parse_directive_text(
            "pragma omp target teams distribute parallel for map(tofrom: a)",
            Span::DUMMY,
        )
        .unwrap();
        assert_eq!(d.kind, DirectiveKind::TargetParallelFor);
    }

    #[test]
    fn parses_expressions_with_precedence() {
        let u = parse_ok("void f() { int x; x = 1 + 2 * 3 - 4 % 2; }");
        let Item::Func(f) = &u.items[0] else { panic!() };
        let Stmt::Expr(Expr::Assign { rhs, .. }) = &f.body.stmts[1] else { panic!() };
        assert_eq!(rhs.const_int(), Some(7));
    }

    #[test]
    fn parses_ternary_and_calls() {
        parse_ok("void f() { int x = g(1, 2) > 0 ? h() : 0; }");
    }

    #[test]
    fn parses_2d_arrays() {
        let u = parse_ok("void f() { double b[20][20]; b[1][2] = b[2][1] + 1.0; }");
        let Item::Func(f) = &u.items[0] else { panic!() };
        let Stmt::Decl(d) = &f.body.stmts[0] else { panic!() };
        assert_eq!(d.vars[0].ty.dims.len(), 2);
    }

    #[test]
    fn parses_pointers_and_deref() {
        parse_ok("void f(int* p) { *p = *p + 1; int** q; }");
    }

    #[test]
    fn parses_do_while() {
        parse_ok("void f() { int i = 0; do { i++; } while (i < 10); }");
    }

    #[test]
    fn parses_lock_api() {
        parse_ok(
            "omp_lock_t lck;\nvoid f() { omp_init_lock(&lck); omp_set_lock(&lck); omp_unset_lock(&lck); }",
        );
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse("int main() { @@@ }").is_err());
        assert!(parse("int main() { return 0;").is_err());
    }

    /// The largest `n` for which `kernel(n)` parses, and the error one
    /// level further.
    fn budget(kernel: impl Fn(usize) -> String) -> (usize, ParseError) {
        let n = (1..=MAX_DEPTH + 1).find(|&n| parse(&kernel(n)).is_err()).expect("budget applies");
        (n - 1, parse(&kernel(n)).unwrap_err())
    }

    #[test]
    fn nesting_budget_counts_tree_depth() {
        use crate::ErrorKind;
        let parens = |n: usize| format!("int main() {{ return {}1{}; }}", "(".repeat(n), ")".repeat(n));
        // A left-deep chain: no parenthesis, yet one level per operator.
        let chain = |n: usize| format!("int main() {{ return 1{}; }}", "+1".repeat(n));
        let blocks = |n: usize| format!("int main() {{ {}{} }}", "{".repeat(n), "}".repeat(n));
        for (n, err) in [budget(parens), budget(chain), budget(blocks)] {
            assert!(n + 4 >= MAX_DEPTH, "budget {n}");
            assert_eq!(err.kind, ErrorKind::TooDeep);
        }
        // A `u8` pointer count cannot wrap.
        let stars = format!("int {}p; int main() {{ return 0; }}", "*".repeat(300));
        assert_eq!(parse(&stars).unwrap_err().kind, ErrorKind::TooDeep);
        // Syntax errors stay syntax errors.
        assert_eq!(parse("int main() { @@@ }").unwrap_err().kind, ErrorKind::Syntax);
    }

    #[test]
    fn for_induction_var() {
        let u = parse_ok("void f() { int i; for (i = 0; i < 10; i++) ; for (int j = 0; j < 5; j++) ; }");
        let Item::Func(f) = &u.items[0] else { panic!() };
        let Stmt::For(f1) = &f.body.stmts[1] else { panic!() };
        assert_eq!(f1.induction_var(), Some("i"));
        let Stmt::For(f2) = &f.body.stmts[2] else { panic!() };
        assert_eq!(f2.induction_var(), Some("j"));
    }

    #[test]
    fn collapse_clause_constant() {
        let d = Parser::parse_directive_text("pragma omp parallel for collapse(2)", Span::DUMMY)
            .unwrap();
        assert_eq!(d.collapse(), 2);
    }

    #[test]
    fn sizeof_folds() {
        let u = parse_ok("void f() { int x = sizeof(int); }");
        let Item::Func(f) = &u.items[0] else { panic!() };
        let Stmt::Decl(d) = &f.body.stmts[0] else { panic!() };
        let Some(Init::Expr(e)) = &d.vars[0].init else { panic!() };
        assert_eq!(e.const_int(), Some(8));
    }
}
