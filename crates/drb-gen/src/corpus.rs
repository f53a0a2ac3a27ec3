//! Corpus assembly: 201 kernels, DataRaceBench-style.
//!
//! The full corpus splits 101 race-yes / 100 race-no; the DRB-ML token
//! filter (applied downstream in `drb-ml`) drops the three oversized
//! kernels (1 yes, 2 no), leaving the paper's 198-entry subset at
//! 100 / 98 (§3.2, §3.5).

use crate::spec::{resolve, Builder, Kernel};
use crate::templates;
use std::sync::OnceLock;

/// Expected total corpus size.
pub const CORPUS_SIZE: usize = 201;
/// Expected race-yes count in the full corpus.
pub const YES_COUNT: usize = 101;
/// Expected race-no count in the full corpus.
pub const NO_COUNT: usize = 100;

/// Build (or fetch the cached) full corpus.
pub fn corpus() -> &'static [Kernel] {
    static CORPUS: OnceLock<Vec<Kernel>> = OnceLock::new();
    CORPUS.get_or_init(|| build().expect("corpus must assemble"))
}

/// Assemble and resolve the corpus from its builders.
pub fn build() -> Result<Vec<Kernel>, String> {
    let builders = templates::all_builders();
    resolve_all(&in_id_order(&builders)?, par::default_workers())
}

/// The builders in corpus id order: yes/no interleaved in a stable
/// pattern so consecutive ids mix both labels, like DRB's numbering.
fn in_id_order(builders: &[Builder]) -> Result<Vec<&Builder>, String> {
    let yes: Vec<&Builder> = builders.iter().filter(|b| b.race).collect();
    let no: Vec<&Builder> = builders.iter().filter(|b| !b.race).collect();
    if yes.len() != YES_COUNT {
        return Err(format!("expected {YES_COUNT} race-yes builders, found {}", yes.len()));
    }
    if no.len() != NO_COUNT {
        return Err(format!("expected {NO_COUNT} race-no builders, found {}", no.len()));
    }

    let mut ordered: Vec<&Builder> = Vec::with_capacity(CORPUS_SIZE);
    let (mut yi, mut ni) = (0usize, 0usize);
    for i in 0..CORPUS_SIZE {
        let take_yes = if yi >= yes.len() {
            false
        } else if ni >= no.len() {
            true
        } else {
            i % 2 == 0
        };
        if take_yes {
            ordered.push(yes[yi]);
            yi += 1;
        } else {
            ordered.push(no[ni]);
            ni += 1;
        }
    }
    Ok(ordered)
}

/// Resolve `ordered[i]` as kernel `i + 1`, for every `i`, in one fan-out
/// over `workers` threads. Builders go longest body first: the
/// oversized trio costs about half of the corpus's parse time and sits
/// at the end of the id order, where a plain fan-out would hand all
/// three to the last worker still running. The error is the one a
/// serial pass in id order meets first: a builder's duplicate slug
/// before its own resolve error, and the lowest id's error among many.
fn resolve_all(ordered: &[&Builder], workers: usize) -> Result<Vec<Kernel>, String> {
    let mut longest_first: Vec<usize> = (0..ordered.len()).collect();
    longest_first.sort_by_key(|&i| std::cmp::Reverse(ordered[i].body.len()));
    let resolved = par::par_map(&longest_first, workers, |&i| resolve(ordered[i], i as u32 + 1));
    let mut by_id: Vec<(usize, Result<Kernel, String>)> =
        longest_first.into_iter().zip(resolved).collect();
    by_id.sort_unstable_by_key(|&(i, _)| i);
    let mut seen_slugs = std::collections::HashSet::new();
    by_id
        .into_iter()
        .zip(ordered)
        .map(|((_, r), b)| {
            if !seen_slugs.insert(b.slug.as_str()) {
                return Err(format!("duplicate kernel slug: {}", b.slug));
            }
            r
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::ToolBehavior;

    #[test]
    fn corpus_has_paper_counts() {
        let c = corpus();
        assert_eq!(c.len(), CORPUS_SIZE);
        assert_eq!(c.iter().filter(|k| k.race).count(), YES_COUNT);
        assert_eq!(c.iter().filter(|k| !k.race).count(), NO_COUNT);
    }

    #[test]
    fn ids_are_dense_and_names_unique() {
        let c = corpus();
        let mut names = std::collections::HashSet::new();
        for (i, k) in c.iter().enumerate() {
            assert_eq!(k.id as usize, i + 1);
            assert!(names.insert(k.name.clone()), "duplicate {}", k.name);
            assert!(k.name.starts_with(&format!("SRB{:03}-", k.id)));
            assert!(k.name.ends_with(".c"));
        }
    }

    #[test]
    fn every_kernel_parses_and_labels_are_consistent() {
        for k in corpus() {
            let unit = minic::parse(&k.trimmed_code)
                .unwrap_or_else(|e| panic!("{}: {e}", k.name));
            assert!(!unit.items.is_empty());
            assert_eq!(k.race, !k.pairs.is_empty(), "{}", k.name);
            // Header pairs match the resolved ones.
            if k.race {
                assert!(k.code.contains("Data race pair:"), "{}", k.name);
            } else {
                assert!(k.code.contains("No data race."), "{}", k.name);
            }
        }
    }

    #[test]
    fn pair_lines_point_at_real_code() {
        for k in corpus() {
            let lines: Vec<&str> = k.trimmed_code.lines().collect();
            for p in &k.pairs {
                for (line, _col) in [(p.lines.0, p.cols.0), (p.lines.1, p.cols.1)] {
                    let l = lines
                        .get(line as usize - 1)
                        .unwrap_or_else(|| panic!("{}: line {line} out of range", k.name));
                    // The named root variable appears on that line.
                    let root: String = p
                        .names
                        .0
                        .chars()
                        .take_while(|c| c.is_alphanumeric() || *c == '_')
                        .collect();
                    let root2: String = p
                        .names
                        .1
                        .chars()
                        .take_while(|c| c.is_alphanumeric() || *c == '_')
                        .collect();
                    assert!(
                        l.contains(root.as_str()) || l.contains(root2.as_str()),
                        "{}: line {line} = {l:?} lacks {root}/{root2}",
                        k.name
                    );
                }
            }
        }
    }

    #[test]
    fn oversized_kernels_present() {
        let c = corpus();
        let big: Vec<_> = c.iter().filter(|k| k.name.contains("oversized")).collect();
        assert_eq!(big.len(), 3);
        assert_eq!(big.iter().filter(|k| k.race).count(), 1);
    }

    #[test]
    fn category_spread_is_wide() {
        let c = corpus();
        let cats: std::collections::HashSet<_> = c.iter().map(|k| k.category).collect();
        assert!(cats.len() >= 15, "only {} categories", cats.len());
    }

    /// The reference: one builder after another, in id order.
    fn resolve_serially(ordered: &[&Builder]) -> Result<Vec<Kernel>, String> {
        let mut seen = std::collections::HashSet::new();
        let mut out = Vec::new();
        for (i, b) in ordered.iter().enumerate() {
            if !seen.insert(b.slug.clone()) {
                return Err(format!("duplicate kernel slug: {}", b.slug));
            }
            out.push(resolve(b, i as u32 + 1)?);
        }
        Ok(out)
    }

    #[test]
    fn fan_out_reports_the_serial_passes_first_error() {
        use crate::spec::Category;
        let ok = |slug: &str| {
            Builder::new(slug, Category::Control, "d", "int main() { return 0; }", false, vec![])
        };
        // Race-yes without pairs: `resolve` refuses it. The padding makes
        // later bad builders the longest, so they resolve first.
        let bad = |slug: &str, pad: usize| {
            let body = format!("int main() {{ {}return 0; }}", "; ".repeat(pad));
            Builder::new(slug, Category::Control, "d", &body, true, vec![])
        };
        let cases: Vec<Vec<Builder>> = vec![
            vec![ok("a"), bad("b", 1), ok("a"), bad("c", 50)],
            vec![ok("a"), ok("a"), bad("b", 50)],
            vec![ok("a"), bad("b", 1), bad("c", 9), bad("d", 90)],
            vec![ok("a"), bad("b", 1), bad("b", 90)],
            vec![ok("a"), ok("b"), ok("c")],
        ];
        let names = |r: Result<Vec<Kernel>, String>| {
            r.map(|ks| ks.into_iter().map(|k| k.name).collect::<Vec<_>>())
        };
        for builders in &cases {
            let ordered: Vec<&Builder> = builders.iter().collect();
            let serial = names(resolve_serially(&ordered));
            for workers in [1, 2, 4] {
                assert_eq!(names(resolve_all(&ordered, workers)), serial, "{workers} workers");
            }
        }
    }

    #[test]
    fn behavior_classes_represented() {
        let c = corpus();
        assert!(c.iter().any(|k| k.behavior == ToolBehavior::EvadesStatic));
        assert!(c.iter().any(|k| k.behavior == ToolBehavior::TripsStatic));
        assert!(c.iter().any(|k| k.behavior == ToolBehavior::DynUnmodeled));
    }
}
