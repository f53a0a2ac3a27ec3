//! The kernel → JSON-verdict engine behind `POST /v1/analyze`.
//!
//! One deterministic pure function ([`response_body`]) produces the
//! response for a kernel, so the cache can store serialized bytes and a
//! hit is guaranteed byte-identical to a fresh computation. The
//! analysis itself is the stack the rest of the workspace uses: one
//! [`llm::AnalyzedKernel`] per kernel (parse/tokenize/feature-pass
//! exactly once) and [`xcheck::detect`]'s evidence, rendered here
//! into the wire shape.

use llm::{feature_verdict, AnalyzedKernel, ModelKind};
use serde::{Deserialize, Serialize};
use xcheck::{detect, Verdicts};

/// Wire request: `{"code": "..."}`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AnalyzeRequest {
    /// The C/OpenMP kernel source to analyze.
    pub code: String,
}

/// Per-model surrogate verdict.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct WireModel {
    /// Model short name (`GPT3`/`GPT4`/`SC`/`LM`).
    pub model: String,
    /// Feature-based race verdict at that model's analysis depth.
    pub verdict: bool,
}

/// The three-detector verdict block.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct WireVerdicts {
    /// `racecheck` static verdict (`null` when the kernel fails to parse).
    #[serde(rename = "static")]
    pub static_verdict: Option<bool>,
    /// `hbsan` dynamic verdict (`null` on parse or runtime error).
    pub dynamic: Option<bool>,
    /// Surrogate-LLM verdict at GPT-4 depth (always available — the
    /// feature extractor degrades gracefully on unparseable code).
    pub llm: bool,
    /// Unanimous verdict, when all three detectors agree.
    pub consensus: Option<bool>,
}

impl From<Verdicts> for WireVerdicts {
    fn from(v: Verdicts) -> Self {
        WireVerdicts {
            static_verdict: Some(v.stat),
            dynamic: v.dynv,
            llm: v.llm,
            consensus: v.consensus(),
        }
    }
}

/// Racing variable pair in the paper's variable-identification wire
/// shape (the same keys the evaluation harness, `eval::parse_pairs`,
/// reads from LLM responses).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct WirePairs {
    /// Root variable names of the two conflicting accesses.
    pub variable_names: Vec<String>,
    /// Source lines of the two accesses.
    pub line_numbers: Vec<u32>,
    /// `"read"` / `"write"` per access.
    pub operations: Vec<String>,
}

/// Full `POST /v1/analyze` response.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AnalyzeResponse {
    /// Token count of the trimmed kernel (the paper's 4k-filter count).
    pub tokens: usize,
    /// Whether the kernel parsed.
    pub parse_ok: bool,
    /// Parse error message when `parse_ok` is false.
    pub parse_error: Option<String>,
    /// Three-detector verdict block.
    pub verdicts: WireVerdicts,
    /// Static race descriptions (`a[i+1]@3:18:R vs. a[i]@3:13:W`).
    pub static_races: Vec<String>,
    /// Dynamic race descriptions (capped at 5, like `Pipeline::analyze`).
    pub dynamic_races: Vec<String>,
    /// Per-model surrogate verdicts, Table-3 order.
    pub models: Vec<WireModel>,
    /// First racing variable pair (static detector), if any.
    pub var_pairs: Option<WirePairs>,
}

fn op_word(kind: depend::AccessKind) -> &'static str {
    match kind {
        depend::AccessKind::Read => "read",
        depend::AccessKind::Write => "write",
    }
}

/// Analyze one kernel with every detector in the workspace.
///
/// Deterministic: same source ⇒ same response, regardless of worker
/// count or timing (hbsan's sweep is seed-deterministic by PR 2's
/// equivalence suite).
pub fn analyze_code(source: &str) -> AnalyzeResponse {
    let trimmed = minic::trim_comments(source);
    let (ast, parse_error) = match minic::parse(&trimmed.code) {
        Ok(unit) => (Some(unit), None),
        Err(e) => (None, Some(e.to_string())),
    };
    let artifact = AnalyzedKernel::from_parsed(&trimmed.code, ast);

    let models: Vec<WireModel> = ModelKind::ALL
        .iter()
        .map(|k| WireModel {
            model: k.short().to_string(),
            verdict: feature_verdict(&artifact.features, *k),
        })
        .collect();

    let (verdicts, static_races, dynamic_races, var_pairs) = match detect(&artifact) {
        Some(ev) => {
            let dynamic_races = ev.dynamic.map_or_else(Vec::new, |rep| {
                rep.races.iter().take(5).map(hbsan::DynRace::describe).collect()
            });
            let pairs = ev.stat.races.first().map(|r| WirePairs {
                variable_names: vec![r.first.var.clone(), r.second.var.clone()],
                line_numbers: vec![r.first.span.line(), r.second.span.line()],
                operations: vec![op_word(r.first.kind).into(), op_word(r.second.kind).into()],
            });
            let races = ev.stat.races.iter().map(racecheck::Race::describe).collect();
            (ev.verdicts.into(), races, dynamic_races, pairs)
        }
        None => (
            WireVerdicts {
                static_verdict: None,
                dynamic: None,
                // The feature extractor degrades gracefully on
                // unparseable code, so the GPT-4 model verdict stands.
                llm: models.iter().any(|m| m.model == ModelKind::Gpt4.short() && m.verdict),
                consensus: None,
            },
            Vec::new(),
            Vec::new(),
            None,
        ),
    };

    AnalyzeResponse {
        tokens: artifact.tokens.len(),
        parse_ok: parse_error.is_none(),
        parse_error,
        verdicts,
        static_races,
        dynamic_races,
        models,
        var_pairs,
    }
}

/// The canonical serialized response for a kernel — exactly the bytes
/// the server caches and ships (compact JSON, stable field order).
pub fn response_body(source: &str) -> String {
    serde_json::to_string(&analyze_code(source)).expect("response serialization is infallible")
}

#[cfg(test)]
mod tests {
    use super::*;

    const RACY: &str = "int a[64];\nint main() {\n  int i;\n  #pragma omp parallel for\n  for (i = 0; i < 61; i++) {\n    a[i] = a[i + 1] + 1;\n  }\n  return 0;\n}\n";
    const CLEAN: &str = "int a[64];\nint main() {\n  int i;\n  #pragma omp parallel for\n  for (i = 0; i < 64; i++) {\n    a[i] = i * 2;\n  }\n  return 0;\n}\n";

    #[test]
    fn racy_kernel_is_unanimous() {
        let r = analyze_code(RACY);
        assert!(r.parse_ok);
        assert_eq!(r.verdicts.static_verdict, Some(true));
        assert_eq!(r.verdicts.dynamic, Some(true));
        assert!(r.verdicts.llm);
        assert_eq!(r.verdicts.consensus, Some(true));
        assert!(!r.static_races.is_empty());
        let pairs = r.var_pairs.expect("static race yields a pair");
        assert_eq!(pairs.variable_names, vec!["a", "a"]);
        assert_eq!(pairs.variable_names.len(), pairs.line_numbers.len());
        assert_eq!(pairs.operations.len(), 2);
        assert_eq!(r.models.len(), 4);
    }

    #[test]
    fn clean_kernel_is_clean() {
        let r = analyze_code(CLEAN);
        assert_eq!(r.verdicts.consensus, Some(false));
        assert!(r.static_races.is_empty());
        assert!(r.var_pairs.is_none());
    }

    #[test]
    fn unparseable_code_degrades() {
        let r = analyze_code("int main() { this is not C");
        assert!(!r.parse_ok);
        assert!(r.parse_error.is_some());
        assert_eq!(r.verdicts.static_verdict, None);
        assert_eq!(r.verdicts.dynamic, None);
        assert_eq!(r.models.len(), 4);
    }

    #[test]
    fn body_is_deterministic_and_round_trips() {
        let a = response_body(RACY);
        let b = response_body(RACY);
        assert_eq!(a, b);
        let back: AnalyzeResponse = serde_json::from_str(&a).unwrap();
        assert_eq!(back, analyze_code(RACY));
    }

    #[test]
    fn matches_verdict_adapter() {
        for code in [RACY, CLEAN] {
            let r = analyze_code(code);
            let v = xcheck::verdicts_of_code(code).unwrap();
            assert_eq!(r.verdicts.static_verdict, Some(v.stat));
            assert_eq!(r.verdicts.dynamic, v.dynv);
            assert_eq!(r.verdicts.llm, v.llm);
            assert_eq!(r.verdicts.consensus, v.consensus());
        }
    }
}
