//! Label-preserving corpus augmentation (paper §5: "expanding DRB-ML to
//! include more data items using data scraping and augmentation
//! techniques").
//!
//! Three mutators, all verified label-preserving:
//!
//! * **α-rename** — consistently rename every program variable; racy
//!   pairs are remapped by access-index correspondence (the AST shape is
//!   unchanged, so access *k* of the mutant is access *k* of the
//!   original).
//! * **reformat** — re-print the AST through the canonical printer
//!   (whitespace/layout changes); labels re-resolved the same way.
//! * **comment noise** — inject decoy comments into the raw code; the
//!   trimmed code (which labels refer to) is untouched.

use crate::spec::{Kernel, VarPair};
use minic::ast::Item;
use minic::visit::{collect_names, rename_unit};
use minic::TranslationUnit;
use std::collections::HashMap;
use std::sync::Arc;

// Deterministic mixer for augmentation choices — the shared
// implementation is stream-identical to the inline one it replaced, so
// augmented corpora regenerate byte-for-byte.
use par::rng::mix;

/// The kernel's AST: the one it carries, else its trimmed code parsed.
fn unit_of(k: &Kernel) -> Option<Arc<TranslationUnit>> {
    k.unit.clone().or_else(|| minic::parse(&k.trimmed_code).ok().map(Arc::new))
}

/// Remap the kernel's racy pairs onto a structurally-identical mutant by
/// access-index correspondence.
fn remap_pairs(
    orig: &TranslationUnit,
    orig_pairs: &[VarPair],
    new: &TranslationUnit,
) -> Option<Vec<VarPair>> {
    let collect = |u: &TranslationUnit| -> Vec<depend::Access> {
        let mut out = Vec::new();
        for item in &u.items {
            if let Item::Func(f) = item {
                out.extend(depend::accesses_of_block(&f.body));
            }
        }
        out
    };
    let old = collect(orig);
    let new = collect(new);
    if old.len() != new.len() {
        return None;
    }
    let index_of = |text: &str, line: u32, col: u32| {
        old.iter()
            .position(|a| a.text == text && a.span.line() == line && a.span.col() == col)
    };
    let mut pairs = Vec::with_capacity(orig_pairs.len());
    for p in orig_pairs {
        let i0 = index_of(&p.names.0, p.lines.0, p.cols.0)?;
        let i1 = index_of(&p.names.1, p.lines.1, p.cols.1)?;
        let (a, b) = (&new[i0], &new[i1]);
        pairs.push(VarPair {
            names: (a.text.clone(), b.text.clone()),
            lines: (a.span.line(), b.span.line()),
            cols: (a.span.col(), b.span.col()),
            ops: p.ops,
        });
    }
    Some(pairs)
}

/// One augmentation flavour.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mutation {
    /// α-rename every variable.
    Rename,
    /// Re-print through the canonical printer.
    Reformat,
    /// Inject decoy comments into the raw code (trimmed code untouched).
    CommentNoise,
}

impl Mutation {
    /// All flavours.
    pub const ALL: [Mutation; 3] = [Mutation::Rename, Mutation::Reformat, Mutation::CommentNoise];
}

/// Apply one mutation, producing a new kernel with remapped labels, or
/// `None` when the mutation cannot preserve labels for this kernel.
pub fn mutate(k: &Kernel, m: Mutation, seed: u64) -> Option<Kernel> {
    match m {
        Mutation::CommentNoise => {
            let decoys = [
                "// TODO: tune the chunk size",
                "/* reviewed: looks fine */",
                "// NB: hot loop",
                "/* do not reorder */",
            ];
            let mut out = String::new();
            for (i, line) in k.code.lines().enumerate() {
                out.push_str(line);
                out.push('\n');
                if mix(seed, i as u64).is_multiple_of(5) {
                    out.push_str(decoys[(mix(seed, i as u64 + 1000) % 4) as usize]);
                    out.push('\n');
                }
            }
            let trimmed = minic::trim_comments(&out);
            // Labels refer to trimmed code, which must be unchanged.
            if trimmed.code != k.trimmed_code {
                return None;
            }
            Some(Kernel {
                name: k.name.replace(".c", "-aug-comments.c"),
                code: out,
                ..k.clone()
            })
        }
        Mutation::Reformat => {
            let orig = unit_of(k)?;
            let printed = minic::print_unit(&orig);
            let trimmed = minic::trim_comments(&printed);
            let unit = minic::parse(&trimmed.code).ok()?;
            let pairs = remap_pairs(&orig, &k.pairs, &unit)?;
            Some(Kernel {
                name: k.name.replace(".c", "-aug-reformat.c"),
                code: printed.clone(),
                trimmed_code: trimmed.code,
                pairs,
                unit: Some(Arc::new(unit)),
                ..k.clone()
            })
        }
        Mutation::Rename => {
            let orig = unit_of(k)?;
            let mut renamed = TranslationUnit::clone(&orig);
            let names = collect_names(&renamed);
            let map: HashMap<String, String> = names
                .iter()
                .enumerate()
                .map(|(i, n)| {
                    (n.clone(), format!("v{}_{n}", mix(seed, i as u64) % 97))
                })
                .collect();
            rename_unit(&mut renamed, &map);
            let printed = minic::print_unit(&renamed);
            let trimmed = minic::trim_comments(&printed);
            // Reparse to be sure the mutant is still valid.
            let unit = minic::parse(&trimmed.code).ok()?;
            let pairs = remap_pairs(&orig, &k.pairs, &unit)?;
            Some(Kernel {
                name: k.name.replace(".c", "-aug-rename.c"),
                code: printed.clone(),
                trimmed_code: trimmed.code,
                pairs,
                unit: Some(Arc::new(unit)),
                ..k.clone()
            })
        }
    }
}

/// Expand a kernel into up to three label-preserving variants.
pub fn augment(k: &Kernel, seed: u64) -> Vec<Kernel> {
    Mutation::ALL.iter().filter_map(|m| mutate(k, *m, seed)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus;

    #[test]
    fn rename_preserves_race_and_remaps_pairs() {
        let k = corpus::corpus().iter().find(|k| k.race).unwrap();
        let m = mutate(k, Mutation::Rename, 42).expect("renameable");
        assert_ne!(m.trimmed_code, k.trimmed_code);
        assert_eq!(m.pairs.len(), k.pairs.len());
        // The renamed pair text exists in the mutant code.
        let root: String = m.pairs[0]
            .names
            .0
            .chars()
            .take_while(|c| c.is_alphanumeric() || *c == '_')
            .collect();
        assert!(m.trimmed_code.contains(&root), "{root} not in mutant");
    }

    #[test]
    fn comment_noise_keeps_trimmed_code() {
        let k = &corpus::corpus()[0];
        let m = mutate(k, Mutation::CommentNoise, 7).expect("comment noise applies");
        assert_eq!(m.trimmed_code, k.trimmed_code);
        assert_ne!(m.code, k.code);
        assert_eq!(m.pairs, k.pairs);
    }

    #[test]
    fn reformat_reresolves_lines() {
        let k = corpus::corpus().iter().find(|k| k.race).unwrap();
        let m = mutate(k, Mutation::Reformat, 1).expect("reformat applies");
        // Pair lines point into the reformatted text.
        let lines: Vec<&str> = m.trimmed_code.lines().collect();
        for p in &m.pairs {
            assert!((p.lines.0 as usize) <= lines.len());
        }
    }

    /// A carried AST is always the kernel's own trimmed code parsed:
    /// a reformatted or renamed mutant never inherits the original's.
    #[test]
    fn carried_units_match_the_trimmed_code() {
        let check = |k: &Kernel| {
            if let Some(u) = &k.unit {
                assert_eq!(**u, minic::parse(&k.trimmed_code).unwrap(), "{}", k.name);
            }
        };
        let mut mutants = 0;
        for k in corpus::corpus() {
            check(k);
            for m in augment(k, 5) {
                assert!(m.unit.is_some() || m.trimmed_code == k.trimmed_code, "{}", m.name);
                check(&m);
                mutants += 1;
            }
        }
        assert!(mutants >= 2 * corpus::CORPUS_SIZE, "{mutants}");
    }

    #[test]
    fn augmentation_is_deterministic() {
        let k = &corpus::corpus()[2];
        let a = augment(k, 9);
        let b = augment(k, 9);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.trimmed_code, y.trimmed_code);
        }
    }

    #[test]
    fn corpus_augments_broadly() {
        let mut produced = 0;
        for k in corpus::corpus().iter().step_by(7) {
            produced += augment(k, 13).len();
        }
        // At least two mutants per sampled kernel on average.
        assert!(produced >= corpus::corpus().iter().step_by(7).count() * 2, "{produced}");
    }
}
