//! Patch minimization: 1-minimal delta debugging over the edit list.
//!
//! The winning candidate may carry edits that contribute nothing (a
//! combo rung protecting a variable the real fix already covers).
//! Greedy drop-one with restart: remove each edit in turn, re-certify
//! the remainder, and keep any smaller list that still certifies. The
//! result is 1-minimal — no single edit can be removed without losing
//! the certificate.

use crate::certify::{apply_edits, certify, Certified};
use hbsan::Observation;
use minic::TranslationUnit;
use xcheck::RepairEdit;

pub(crate) fn minimize(
    original: &TranslationUnit,
    mut edits: Vec<RepairEdit>,
    mut cert: Certified,
    base: &[Observation],
    tried: &mut usize,
) -> (Vec<RepairEdit>, Certified) {
    let mut i = 0;
    while edits.len() > 1 && i < edits.len() {
        let mut smaller = edits.clone();
        smaller.remove(i);
        if let Some(patched) = apply_edits(original, &smaller) {
            *tried += 1;
            if let Some(c) = certify(base, &smaller, patched) {
                edits = smaller;
                cert = c;
                i = 0; // restart: earlier edits may now be droppable too
                continue;
            }
        }
        i += 1;
    }
    (edits, cert)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::certify::tests::setup;

    #[test]
    fn redundant_combo_edit_is_dropped() {
        // The reduction alone fixes the kernel; the extra critical wrap
        // on the (non-racy) array is dead weight the minimizer removes.
        let code = "int sum; int a[64];\nint main() {\n  #pragma omp parallel for\n  for (int i = 0; i < 64; i++) { a[i] = i; sum += i; }\n  return sum;\n}\n";
        let (unit, base) = setup(code);
        let edits = vec![
            RepairEdit::AddReduction { var: "sum".into() },
            RepairEdit::WrapCritical { var: "a".into() },
        ];
        let patched = apply_edits(&unit, &edits).unwrap();
        let cert = certify(&base, &edits, patched).expect("combo certifies");
        let mut tried = 0;
        let (min_edits, min_cert) =
            minimize(&unit, edits, cert, &base, &mut tried);
        assert_eq!(min_edits, vec![RepairEdit::AddReduction { var: "sum".into() }]);
        assert!(min_cert.certificate.certified());
        assert!(tried >= 1);
    }

    #[test]
    fn single_edit_is_already_minimal() {
        let code = "int sum;\nint main() {\n  #pragma omp parallel for\n  for (int i = 0; i < 64; i++) sum += i;\n  return sum;\n}\n";
        let (unit, base) = setup(code);
        let edits = vec![RepairEdit::AddReduction { var: "sum".into() }];
        let patched = apply_edits(&unit, &edits).unwrap();
        let cert = certify(&base, &edits, patched).unwrap();
        let mut tried = 0;
        let (min_edits, _) =
            minimize(&unit, edits.clone(), cert, &base, &mut tried);
        assert_eq!(min_edits, edits);
        assert_eq!(tried, 0, "nothing to drop, nothing re-certified");
    }
}
