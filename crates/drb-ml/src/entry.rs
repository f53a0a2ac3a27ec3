//! The DRB-ML entry schema (paper Table 1).
//!
//! One JSON object per microbenchmark, with keys exactly as the paper
//! lists them: `ID`, `name`, `DRB_code`, `trimmed_code`, `code_len`,
//! `data_race`, `data_race_label`, `var_pairs`, and per-pair `name`,
//! `line`, `col`, `operation` arrays (two entries each — one per side
//! of the pair; `operation` is `"w"` or `"r"`).

use drb_gen::{Kernel, Op};
use llm::{AnalyzedKernel, KernelView, PairView};
use minic::TranslationUnit;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// One variable pair, serialized as in Listing 2.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct VarPairJson {
    /// Variable names (`["a[i]", "a[i+1]"]`).
    pub name: Vec<String>,
    /// 1-based line numbers in the trimmed code.
    pub line: Vec<u32>,
    /// 1-based column numbers in the trimmed code.
    pub col: Vec<u32>,
    /// Operations: `"w"` or `"r"` per side.
    pub operation: Vec<String>,
}

/// One DRB-ML dataset entry (paper Table 1).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DrbMlEntry {
    /// A unique index number starting from 1.
    #[serde(rename = "ID")]
    pub id: u32,
    /// The original filename of the benchmark.
    pub name: String,
    /// The original code, header comment included.
    #[serde(rename = "DRB_code")]
    pub drb_code: String,
    /// The code with all comments removed.
    pub trimmed_code: String,
    /// String length of the trimmed code.
    pub code_len: usize,
    /// 1 when a data race is present, 0 otherwise.
    pub data_race: u8,
    /// The race-label bucket DRB marks (`Y…`/`N…`).
    pub data_race_label: String,
    /// Pairs of variables associated with a data race (empty when
    /// `data_race` is 0).
    pub var_pairs: Vec<VarPairJson>,
}

impl DrbMlEntry {
    /// Build an entry from a corpus kernel (step 1 of §3.1).
    pub fn from_kernel(k: &Kernel) -> DrbMlEntry {
        let var_pairs = k
            .pairs
            .iter()
            .map(|p| VarPairJson {
                name: vec![p.names.0.clone(), p.names.1.clone()],
                line: vec![p.lines.0, p.lines.1],
                col: vec![p.cols.0, p.cols.1],
                operation: vec![p.ops.0.letter().to_string(), p.ops.1.letter().to_string()],
            })
            .collect();
        DrbMlEntry {
            id: k.id,
            name: k.name.clone(),
            drb_code: k.code.clone(),
            trimmed_code: k.trimmed_code.clone(),
            code_len: k.trimmed_code.len(),
            data_race: u8::from(k.race),
            data_race_label: k.race_label(),
            var_pairs,
        }
    }

    /// Token count of the trimmed code (for the 4k filter).
    pub fn token_count(&self) -> usize {
        llm::count_tokens(&self.trimmed_code)
    }

    /// Whether this entry survives the paper's 4k-token filter.
    pub fn fits_prompt_budget(&self) -> bool {
        llm::fits_prompt_budget(&self.trimmed_code)
    }

    /// Bridge to the surrogate's view, with the combined difficulty
    /// (category + surface features). The analysis artifact (AST,
    /// tokens, features) is computed here — once — and travels with the
    /// view, so no downstream stage re-derives it.
    pub fn to_view(&self, category_difficulty: f64) -> KernelView {
        self.view_of(category_difficulty, AnalyzedKernel::analyze(&self.trimmed_code))
    }

    /// [`to_view`](Self::to_view) around `unit`, this entry's trimmed
    /// code already parsed (its corpus kernel's shared AST), so building
    /// the view parses nothing.
    pub fn to_view_parsed(&self, category_difficulty: f64, unit: Arc<TranslationUnit>) -> KernelView {
        let artifact = AnalyzedKernel::from_shared(&self.trimmed_code, Some(unit));
        self.view_of(category_difficulty, artifact)
    }

    fn view_of(&self, category_difficulty: f64, artifact: AnalyzedKernel) -> KernelView {
        let difficulty = 0.6 * category_difficulty + 0.4 * artifact.surface_difficulty;
        let pairs = self
            .var_pairs
            .iter()
            .map(|p| PairView {
                names: (p.name[0].clone(), p.name[1].clone()),
                lines: (p.line[0], p.line[1]),
                ops: (
                    op_word(&p.operation[0]).to_string(),
                    op_word(&p.operation[1]).to_string(),
                ),
            })
            .collect();
        KernelView::with_artifact(
            self.id,
            self.trimmed_code.clone(),
            self.data_race == 1,
            pairs,
            difficulty,
            artifact,
        )
    }
}

fn op_word(letter: &str) -> &'static str {
    if letter.eq_ignore_ascii_case("w") {
        "write"
    } else {
        "read"
    }
}

/// Op re-export helper for tests.
pub fn op_letter(op: Op) -> &'static str {
    op.letter()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn entry_from_first_kernel() {
        let k = &drb_gen::corpus()[0];
        let e = DrbMlEntry::from_kernel(k);
        assert_eq!(e.id, 1);
        assert_eq!(e.code_len, k.trimmed_code.len());
        assert_eq!(e.data_race == 1, k.race);
        if k.race {
            assert!(!e.var_pairs.is_empty());
            let p = &e.var_pairs[0];
            assert_eq!(p.name.len(), 2);
            assert_eq!(p.line.len(), 2);
            assert_eq!(p.col.len(), 2);
            assert!(p.operation.iter().all(|o| o == "r" || o == "w"));
        }
    }

    #[test]
    fn json_round_trip() {
        let k = &drb_gen::corpus()[0];
        let e = DrbMlEntry::from_kernel(k);
        let json = serde_json::to_string_pretty(&e).unwrap();
        assert!(json.contains("\"ID\""));
        assert!(json.contains("\"DRB_code\""));
        let back: DrbMlEntry = serde_json::from_str(&json).unwrap();
        assert_eq!(e, back);
    }

    #[test]
    fn view_bridges_pairs() {
        let k = drb_gen::corpus().iter().find(|k| k.race).unwrap();
        let e = DrbMlEntry::from_kernel(k);
        let v = e.to_view(k.category.difficulty());
        assert!(v.race);
        assert_eq!(v.pairs.len(), e.var_pairs.len());
        assert!(v.pairs[0].ops.0 == "write" || v.pairs[0].ops.0 == "read");
        assert!(v.difficulty >= 0.0 && v.difficulty <= 1.0);
    }
}
