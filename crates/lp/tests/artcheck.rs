//! Rows appended to a solved session exactly at the current point must stay
//! enforced: their basic slack or artificial sits at zero and must not be
//! allowed to re-grow.

use cma_lp::{Cmp, LpBackend, LpProblem, SimplexBackend};

#[test]
fn eq_row_added_at_satisfied_point_stays_enforced() {
    let mut lp = LpProblem::new();
    let x = lp.add_var("x", false);
    let y = lp.add_var("y", false);
    lp.add_constraint(vec![(x, 1.0), (y, 1.0)], Cmp::Le, 4.0);
    let mut s = SimplexBackend.open(&lp);
    let a = s.minimize(&[(x, -1.0), (y, -2.0)]);
    assert!(a.is_optimal());
    assert!((a.value(y) - 4.0).abs() < 1e-6, "y = {}", a.value(y));
    // Add y = 4, exactly satisfied by the current optimal point.
    s.add_constraint(&[(y, 1.0)], Cmp::Eq, 4.0);
    // Now minimize +y: the equality pins y = 4.
    let b = s.minimize(&[(y, 1.0)]);
    assert!(b.is_optimal(), "status {:?}", b.status);
    assert!(
        (b.value(y) - 4.0).abs() < 1e-6,
        "equality row violated: y = {} (expected 4)",
        b.value(y)
    );
}

#[test]
fn ge_row_added_at_satisfied_point_stays_enforced() {
    let mut lp = LpProblem::new();
    let x = lp.add_var("x", false);
    lp.add_constraint(vec![(x, 1.0)], Cmp::Le, 5.0);
    let mut s = SimplexBackend.open(&lp);
    let a = s.minimize(&[(x, -1.0)]);
    assert!((a.value(x) - 5.0).abs() < 1e-6);
    // x >= 5, satisfied with equality at the current point.
    s.add_constraint(&[(x, 1.0)], Cmp::Ge, 5.0);
    let b = s.minimize(&[(x, 1.0)]);
    assert!(b.is_optimal(), "status {:?}", b.status);
    assert!(
        (b.value(x) - 5.0).abs() < 1e-6,
        "ge row violated: x = {} (expected 5)",
        b.value(x)
    );
}
