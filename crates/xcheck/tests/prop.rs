//! Property tests of the agreement matrix: pairwise counts are
//! symmetric and bounded, and record order does not matter.

use proptest::prelude::*;
use xcheck::Agreement;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn agreement_matrix_invariants(rows in proptest::collection::vec((any::<bool>(), any::<bool>(), any::<bool>()), 0..150)) {
        let mut a = Agreement::new(&["x", "y", "z"]);
        for &(x, y, z) in &rows {
            a.record(&[x, y, z]);
        }
        prop_assert_eq!(a.total() as usize, rows.len());
        for i in 0..3 {
            // Self-agreement is total, and the matrix is symmetric.
            prop_assert_eq!(a.count(i, i), a.total());
            for j in 0..3 {
                prop_assert_eq!(a.count(i, j), a.count(j, i));
                prop_assert!(a.count(i, j) <= a.total());
                let r = a.rate(i, j);
                prop_assert!((0.0..=1.0).contains(&r), "{r}");
            }
        }
    }

    #[test]
    fn agreement_record_order_is_irrelevant(rows in proptest::collection::vec((any::<bool>(), any::<bool>()), 1..100)) {
        let (mut fwd, mut rev) = (Agreement::new(&["a", "b"]), Agreement::new(&["a", "b"]));
        for &(x, y) in &rows {
            fwd.record(&[x, y]);
        }
        for &(x, y) in rows.iter().rev() {
            rev.record(&[x, y]);
        }
        prop_assert_eq!(fwd, rev);
    }
}
