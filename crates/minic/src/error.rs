//! Frontend diagnostics.

use crate::span::Span;
use std::fmt;

/// What kind of input a [`ParseError`] refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorKind {
    /// Malformed or unsupported syntax.
    Syntax,
    /// Nesting deeper than [`MAX_DEPTH`](crate::parser::MAX_DEPTH), or
    /// more pointer levels in one declarator than a `u8` counts.
    TooDeep,
}

/// A lexing or parsing error, with the span where it was detected.
#[derive(Debug, Clone, PartialEq)]
pub struct ParseError {
    /// Human-readable description.
    pub msg: String,
    /// Where the error occurred.
    pub span: Span,
    /// What was refused.
    pub kind: ErrorKind,
}

impl ParseError {
    /// Create a syntax error at `span`.
    pub fn new(msg: impl Into<String>, span: Span) -> Self {
        ParseError { msg: msg.into(), span, kind: ErrorKind::Syntax }
    }

    /// Create a nesting-budget error at `span`.
    pub fn too_deep(span: Span) -> Self {
        ParseError {
            msg: format!("nesting deeper than {} levels", crate::parser::MAX_DEPTH),
            span,
            kind: ErrorKind::TooDeep,
        }
    }
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.span.pos, self.msg)
    }
}

impl std::error::Error for ParseError {}

/// Result alias for frontend operations.
pub type Result<T> = std::result::Result<T, ParseError>;
