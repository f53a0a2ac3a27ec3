//! `minic` — a C-subset + OpenMP frontend.
//!
//! This crate is the language substrate for the `racellm` reproduction of
//! *Data Race Detection Using Large Language Models* (Correctness @ SC'23).
//! DataRaceBench kernels are OpenMP C microbenchmarks; everything else in
//! the workspace (the static detector, the dynamic happens-before checker,
//! the corpus generator, the surrogate LLM's feature extractors) consumes
//! the AST produced here.
//!
//! # Quick start
//!
//! ```
//! let src = r#"
//! int a[100];
//! int main() {
//!   int i;
//!   #pragma omp parallel for
//!   for (i = 0; i < 99; i++)
//!     a[i] = a[i + 1];
//!   return 0;
//! }
//! "#;
//! let unit = minic::parse(src).unwrap();
//! let dirs = minic::visit::collect_directives(&unit);
//! assert_eq!(dirs.len(), 1);
//! assert!(dirs[0].kind.is_worksharing_loop());
//! ```

#![warn(missing_docs)]

pub mod ast;
pub mod cfg;
pub mod diff;
pub mod error;
pub mod lexer;
pub mod parser;
pub mod pragma;
pub mod printer;
pub mod span;
pub mod token;
pub mod trim;
pub mod visit;

pub use ast::TranslationUnit;
pub use diff::{diff_size, unified_diff};
pub use error::{ErrorKind, ParseError, Result};
pub use parser::{parse, MAX_DEPTH};
#[cfg(feature = "count-parses")]
pub use parser::{parse_count, reset_parse_count};
pub use printer::print_unit;
pub use span::{Pos, Span};
pub use trim::{trim_comments, Trimmed};
