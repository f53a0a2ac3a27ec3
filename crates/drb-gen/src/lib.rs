//! `drb-gen` — a DataRaceBench-style OpenMP microbenchmark corpus.
//!
//! The paper derives DRB-ML from DataRaceBench v1.4.1: 201 C/OpenMP
//! microbenchmarks labeled race-yes/race-no, with per-variable-pair
//! line/column/operation labels (§3.1, Table 1). DataRaceBench itself is
//! synthetic; this crate regenerates the same pattern taxonomy from
//! scratch — every kernel is honest C that parses with `minic`, runs
//! under `hbsan`, and carries machine-resolved ground-truth labels
//! (see [`spec::resolve`]: pair positions are located by re-analyzing
//! the trimmed code, never hand-counted).
//!
//! ```
//! let kernels = drb_gen::corpus();
//! assert_eq!(kernels.len(), 201);
//! let k = &kernels[0];
//! assert!(k.name.starts_with("SRB001-"));
//! assert_eq!(k.race, !k.pairs.is_empty());
//! ```

#![warn(missing_docs)]

pub mod augment;
pub mod corpus;
pub mod spec;
// Template modules build kernel lists by sequential `push` so each kernel
// can carry its own comment block; silence the vec![]-style suggestion.
#[allow(clippy::vec_init_then_push)]
pub mod templates;

pub use augment::{augment, mutate, Mutation};
pub use corpus::{build, corpus, CORPUS_SIZE, NO_COUNT, YES_COUNT};
pub use spec::{Builder, Category, Kernel, Op, PairSpec, SideSpec, ToolBehavior, VarPair};
