//! The kernel → certified-patch engine behind `POST /v1/fix`.
//!
//! Same contract as [`crate::analyze`]: one deterministic pure function
//! ([`fix_body`]) produces the response bytes for a kernel, so the
//! response cache can store them and a hit is guaranteed byte-identical
//! to a fresh computation. The repair itself is `repair::fix` — the
//! full detect → candidate → certify → minimize loop — and the wire
//! response carries the machine-checkable certificate verbatim.

use crate::analyze::WireVerdicts;
use serde::{Deserialize, Serialize};

/// Wire request: `{"code": "..."}` (same shape as `/v1/analyze`).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FixRequest {
    /// The C/OpenMP kernel source to repair.
    pub code: String,
}

/// The certificate attached to a fixed kernel, as shipped on the wire.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct WireCertificate {
    /// `racecheck` reports zero races on the patched kernel.
    pub racecheck_clean: bool,
    /// Seeds the adversarial happens-before sweep verified race-free.
    pub hbsan_seeds: Vec<u64>,
    /// Seeds with byte-identical observable output vs the original.
    pub equivalent_seeds: Vec<u64>,
    /// Globals excluded from the output comparison (privatized by the
    /// patch).
    pub scratch: Vec<String>,
    /// Surrogate-LLM verdict on the patched kernel (evidence, not a
    /// gate).
    pub surrogate_clean: bool,
}

/// A certified patch on the wire.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct WireFix {
    /// Edit labels, e.g. `["add-reduction(sum)"]`.
    pub edits: Vec<String>,
    /// The patched kernel, canonically printed.
    pub patched_code: String,
    /// Unified diff from the (canonically printed) original.
    pub patch: String,
    /// Added-plus-removed line count of `patch`.
    pub patch_lines: usize,
    /// The evidence.
    pub certificate: WireCertificate,
}

/// Full `POST /v1/fix` response.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FixResponse {
    /// Whether the kernel parsed.
    pub parse_ok: bool,
    /// `clean` / `fixed` / `unfixed` / `unparseable`.
    pub outcome: String,
    /// The original kernel's three-detector verdict block (`null` when
    /// it does not parse).
    pub verdicts: Option<WireVerdicts>,
    /// Candidates that reached certification.
    pub candidates_tried: usize,
    /// The certified patch, when `outcome` is `fixed`.
    pub fix: Option<WireFix>,
}

/// Run the repair loop on one kernel.
///
/// Deterministic: same source ⇒ same response (the repair loop's
/// candidate order, certification seeds, and minimizer are all fixed).
pub fn fix_code(source: &str) -> FixResponse {
    fix_code_traced(source).0
}

/// [`fix_code`] plus a side channel that never affects the response
/// bytes: whether a certified fix was produced *by this computation*
/// (feeds `racellm_fix_certified_total`; cache hits replay the body
/// without re-certifying, so they do not move that counter).
pub fn fix_code_traced(source: &str) -> (FixResponse, bool) {
    let trimmed = minic::trim_comments(source);
    let report = repair::fix(&trimmed.code);

    let verdicts = report.verdicts.map(WireVerdicts::from);
    let fix = report.fix().map(|f| WireFix {
        edits: f.edits.iter().map(repair::edit_label).collect(),
        patched_code: f.patched_code.clone(),
        patch: f.patch.clone(),
        patch_lines: f.patch_lines,
        certificate: WireCertificate {
            racecheck_clean: f.certificate.racecheck_clean,
            hbsan_seeds: f.certificate.hbsan_seeds.clone(),
            equivalent_seeds: f.certificate.equivalent_seeds.clone(),
            scratch: f.certificate.scratch.clone(),
            surrogate_clean: f.certificate.surrogate_clean,
        },
    });
    let certified = fix.is_some();
    let resp = FixResponse {
        parse_ok: report.verdicts.is_some(),
        outcome: report.outcome.tag().to_string(),
        verdicts,
        candidates_tried: report.candidates_tried,
        fix,
    };
    (resp, certified)
}

/// The canonical serialized response for a kernel — exactly the bytes
/// the server caches and ships.
pub fn fix_body(source: &str) -> String {
    fix_body_traced(source).0
}

/// [`fix_body`] plus the certified flag (see [`fix_code_traced`]).
pub fn fix_body_traced(source: &str) -> (String, bool) {
    let (resp, certified) = fix_code_traced(source);
    (serde_json::to_string(&resp).expect("response serialization is infallible"), certified)
}

#[cfg(test)]
mod tests {
    use super::*;

    const RACY_SUM: &str = "int sum;\nint main() {\n  #pragma omp parallel for\n  for (int i = 0; i < 64; i++) sum += i;\n  return sum;\n}\n";
    const CLEAN: &str = "int a[64];\nint main() {\n  #pragma omp parallel for\n  for (int i = 0; i < 64; i++) a[i] = i * 2;\n  return 0;\n}\n";

    #[test]
    fn racy_kernel_gets_a_certified_wire_fix() {
        let (r, certified) = fix_code_traced(RACY_SUM);
        assert!(r.parse_ok);
        assert_eq!(r.outcome, "fixed");
        assert!(certified);
        let f = r.fix.expect("fix present");
        assert_eq!(f.edits, vec!["add-reduction(sum)"]);
        assert!(f.patch.contains("reduction(+: sum)"));
        assert!(f.certificate.racecheck_clean);
        assert_eq!(f.certificate.hbsan_seeds, f.certificate.equivalent_seeds);
    }

    #[test]
    fn clean_kernel_reports_clean() {
        let (r, certified) = fix_code_traced(CLEAN);
        assert_eq!(r.outcome, "clean");
        assert!(!certified);
        assert!(r.fix.is_none());
        assert_eq!(r.verdicts.unwrap().consensus, Some(false));
    }

    #[test]
    fn unparseable_kernel_degrades() {
        let (r, certified) = fix_code_traced("int main() {");
        assert_eq!(r.outcome, "unparseable");
        assert!(!r.parse_ok && !certified);
        assert!(r.verdicts.is_none());
    }

    #[test]
    fn body_is_deterministic_and_round_trips() {
        let a = fix_body(RACY_SUM);
        assert_eq!(a, fix_body(RACY_SUM));
        let back: FixResponse = serde_json::from_str(&a).unwrap();
        assert_eq!(back, fix_code(RACY_SUM));
    }

    #[test]
    fn comments_do_not_change_the_verdict() {
        let commented = format!("/* racy reduction */\n{RACY_SUM}");
        assert_eq!(fix_code(&commented).outcome, "fixed");
    }
}
