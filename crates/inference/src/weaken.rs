//! The weakening rule `Γ ⊨ Q ⊒ Q'` discharged by rewrite-function
//! certificates (§3.4).
//!
//! To ensure a polynomial inequality `P ≥ 0` holds wherever the logical
//! context `Γ = {e₁ ≥ 0, …, e_n ≥ 0}` holds, we require that `P` be a conical
//! combination of products of the `eᵢ` (a Handelman certificate): fresh
//! non-negative multipliers `λ` are introduced and coefficients are equated
//! per monomial, which yields linear constraints over the LP unknowns.
//!
//! A containment is a *recipe* of the builder's
//! [`DerivationPlan`](crate::plan::DerivationPlan): a degree-escalation
//! replay skips the components whose rows are already in the builder, which
//! the plan knows from the restriction level the containment is visited at.

use cma_logic::Context;
use cma_semiring::poly::Polynomial;

use crate::builder::ConstraintBuilder;
use crate::template::{LinCoef, SymMoment, TemplatePoly};

/// Emits constraints forcing `bigger ≥ smaller` (as functions of the program
/// variables) wherever every polynomial in `products` is non-negative.
///
/// `products` must contain the constant polynomial `1` so that constant slack
/// is available; [`Context::certificate_products`] always includes it.
pub fn require_poly_geq(
    builder: &mut ConstraintBuilder,
    products: &[Polynomial],
    bigger: &TemplatePoly,
    smaller: &TemplatePoly,
) {
    // difference = bigger - smaller - Σ λ_i · products_i  must be 0 per monomial.
    // Each λ_i is fresh, so its entry in every monomial is exactly `-c`.
    let mut difference = bigger.sub(smaller);
    for product in products {
        let lambda = LinCoef::var(builder.fresh_multiplier());
        for (m, c) in product.terms() {
            difference.add_scaled_term(m, &lambda, -c);
        }
    }
    builder.constrain_zero_poly(&difference);
}

/// Emits constraints for the moment-annotation containment `outer ⊒ inner`
/// under the logical context `ctx`:
/// for every component `k`, `outer.lo_k ≤ inner.lo_k` and
/// `inner.hi_k ≤ outer.hi_k` wherever `ctx` holds.
///
/// `level` is the restriction level of the walk that visits the
/// containment: when the plan replays it (degree escalation), components
/// whose rows are already in the builder are skipped instead of re-emitted.
pub fn require_contains(
    builder: &mut ConstraintBuilder,
    ctx: &Context,
    outer: &SymMoment,
    inner: &SymMoment,
    poly_degree: u32,
    level: usize,
) {
    assert_eq!(outer.degree(), inner.degree(), "degree mismatch in ⊒");
    let emit_from = builder.recipe_gate(level, outer.degree());
    // Components of equal certificate degree share one product set (k = 0
    // and k = 1 both use degree 1 at poly degree 1).  The degree never
    // falls as k grows, so keeping the last set computes each degree once;
    // it is at least 1, so the empty start never matches.
    let mut products: (u32, Vec<Polynomial>) = (0, Vec::new());
    for k in emit_from..=outer.degree() {
        let degree = (k as u32 * poly_degree).max(1);
        if products.0 != degree {
            products = (degree, ctx.certificate_products(degree));
        }
        let products = &products.1;
        // Upper ends: outer.hi ≥ inner.hi.
        require_poly_geq(
            builder,
            products,
            &outer.component(k).hi,
            &inner.component(k).hi,
        );
        // Lower ends: inner.lo ≥ outer.lo, i.e. outer.lo ≤ inner.lo.
        require_poly_geq(
            builder,
            products,
            &inner.component(k).lo,
            &outer.component(k).lo,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::template::reference;
    use cma_appl::build::*;
    use cma_lp::Cmp;
    use cma_semiring::poly::{Monomial, Var};
    use proptest::prelude::*;

    fn x() -> Var {
        Var::new("x")
    }

    #[test]
    fn constant_slack_certificate() {
        // Find the least constant c with c ≥ 3 using products = {1}.
        let mut b = ConstraintBuilder::new();
        let template = b.fresh_poly(&[], 0);
        let products = vec![Polynomial::constant(1.0)];
        require_poly_geq(&mut b, &products, &template, &TemplatePoly::constant(3.0));
        b.add_objective(&template.eval_vars(&|_| 0.0), 1.0);
        let sol = b.solve();
        assert!(sol.is_optimal());
        let c = template.resolve(&|v| sol.value(v));
        assert!((c.as_constant().unwrap() - 3.0).abs() < 1e-6);
    }

    #[test]
    fn contextual_certificate_uses_guard() {
        // Under Γ = {x ≥ 0, 10 - x ≥ 0}, the least constant c with c ≥ 2x is 20.
        let mut b = ConstraintBuilder::new();
        let ctx = Context::from_conditions(&[ge(v("x"), cst(0.0)), le(v("x"), cst(10.0))]);
        let products = ctx.certificate_products(1);
        let template = b.fresh_poly(&[], 0);
        let two_x = TemplatePoly::from_concrete(&Polynomial::var(x()).scale(2.0));
        require_poly_geq(&mut b, &products, &template, &two_x);
        b.add_objective(&template.eval_vars(&|_| 0.0), 1.0);
        let sol = b.solve();
        assert!(sol.is_optimal());
        let c = template.resolve(&|v| sol.value(v)).as_constant().unwrap();
        assert!((c - 20.0).abs() < 1e-5, "got {c}");
    }

    #[test]
    fn quadratic_certificate_bounds_a_square() {
        // Under Γ = {x ≥ 0, 4 - x ≥ 0}, find least constant c ≥ x².
        // Handelman degree 2 gives c = 16 via x² ≤ 4x ≤ 16.
        let mut b = ConstraintBuilder::new();
        let ctx = Context::from_conditions(&[ge(v("x"), cst(0.0)), le(v("x"), cst(4.0))]);
        let products = ctx.certificate_products(2);
        let template = b.fresh_poly(&[], 0);
        let square = TemplatePoly::from_concrete(&Polynomial::var(x()).pow(2));
        require_poly_geq(&mut b, &products, &template, &square);
        b.add_objective(&template.eval_vars(&|_| 0.0), 1.0);
        let sol = b.solve();
        assert!(sol.is_optimal());
        let c = template.resolve(&|v| sol.value(v)).as_constant().unwrap();
        assert!((16.0 - 1e-5..=16.0 + 1e-5).contains(&c), "got {c}");
    }

    #[test]
    fn infeasible_when_no_certificate_exists() {
        // A constant cannot dominate x on an unbounded context.
        let mut b = ConstraintBuilder::new();
        let ctx = Context::from_conditions(&[ge(v("x"), cst(0.0))]);
        let products = ctx.certificate_products(1);
        let template = TemplatePoly::constant(100.0);
        let xx = TemplatePoly::from_concrete(&Polynomial::var(x()));
        require_poly_geq(&mut b, &products, &template, &xx);
        assert!(!b.solve().is_optimal());
    }

    #[test]
    fn containment_of_moment_annotations() {
        // outer must contain inner = ⟨[1,1],[x, 2x+3]⟩ under Γ = {x ≥ 0, 5 - x ≥ 0};
        // minimizing outer's width at x = 5 recovers the inner bounds exactly.
        let mut b = ConstraintBuilder::new();
        let ctx = Context::from_conditions(&[ge(v("x"), cst(0.0)), le(v("x"), cst(5.0))]);
        let inner = SymMoment::from_components(vec![
            crate::template::SymInterval::point(1.0),
            crate::template::SymInterval {
                lo: TemplatePoly::from_concrete(&Polynomial::var(x())),
                hi: TemplatePoly::from_concrete(
                    &Polynomial::var(x())
                        .scale(2.0)
                        .add(&Polynomial::constant(3.0)),
                ),
            },
        ]);
        let outer = b.planned_moment(&[x()], 1, 1, 0);
        require_contains(&mut b, &ctx, &outer, &inner, 1, 0);
        for k in 0..=1 {
            b.add_objective(&outer.component(k).hi.eval_vars(&|_| 5.0), 1.0);
            b.add_objective(&outer.component(k).lo.eval_vars(&|_| 5.0), -1.0);
        }
        let sol = b.solve();
        assert!(sol.is_optimal());
        let resolved = outer.resolve(&|v| sol.value(v));
        // Component 1 upper bound at x = 5 must be at least 13, lower at most 5.
        let hi_at_5 = resolved[1].1.eval(&|_| 5.0);
        let lo_at_5 = resolved[1].0.eval(&|_| 5.0);
        assert!(hi_at_5 >= 13.0 - 1e-5);
        assert!(lo_at_5 <= 5.0 + 1e-5);
        // Objective pushed them to be tight.
        assert!(hi_at_5 <= 13.0 + 1e-4);
        assert!(lo_at_5 >= 5.0 - 1e-4);
    }

    /// `require_poly_geq` as it was before the in-place primitive: the
    /// difference built by clone-based sums, one `from_terms` polynomial per
    /// certificate product, and rows emitted per cloned monomial.
    fn reference_require_poly_geq(
        builder: &mut ConstraintBuilder,
        products: &[Polynomial],
        bigger: &TemplatePoly,
        smaller: &TemplatePoly,
    ) {
        let mut difference = reference::poly_add(bigger, &smaller.scale(-1.0));
        for product in products {
            let lambda = builder.fresh_multiplier();
            let mut scaled = TemplatePoly::zero();
            for (m, c) in product.terms() {
                reference::add_term(&mut scaled, m.clone(), LinCoef::var(lambda).scale(c));
            }
            difference = reference::poly_add(&difference, &scaled.scale(-1.0));
        }
        let monomials: Vec<Monomial> = difference.monomials().cloned().collect();
        for m in monomials {
            builder.constrain_zero_coef(&difference.coefficient(&m));
        }
    }

    /// The variable count and every row of a builder, coefficients and
    /// right-hand sides as bits.
    type Rows = (usize, Vec<(Vec<(usize, u64)>, Cmp, u64)>);

    fn rows(builder: &ConstraintBuilder) -> Rows {
        let lp = builder.to_problem();
        let rows = (0..lp.num_constraints())
            .map(|i| {
                let terms = lp
                    .constraint_terms(i)
                    .map(|(v, c)| (v.index(), c.to_bits()))
                    .collect();
                (terms, lp.cmp(i), lp.rhs(i).to_bits())
            })
            .collect();
        (lp.num_vars(), rows)
    }

    /// Template constants as derivation produces them: never `-0.0`.  A rule
    /// starts every sum from `+0.0` and scales templates only by
    /// probabilities, so no `-0.0` constant reaches a weakening.  (On one,
    /// the zero addend `0.0 · (-c)` of a negative-`c` product term would
    /// leave `+0.0` where the clone-based `-0.0` addend left `-0.0`.)
    const CONSTANTS: [f64; 10] = [-2.0, -1.0, -0.5, 0.5, 1.0, 2.0, 3.0, 0.0, 1e-200, -1e-200];

    /// A concrete certificate product over `x` and `y`, its coefficients
    /// drawn from the seven nonzero [`CONSTANTS`].
    fn product() -> impl Strategy<Value = Polynomial> {
        proptest::collection::vec((0usize..5, 0usize..7), 1..4).prop_map(|terms| {
            let mut p = Polynomial::zero();
            for (m, k) in terms {
                p.add_term(reference::monomial(m), CONSTANTS[k]);
            }
            p
        })
    }

    proptest::proptest! {
        /// The in-place certificate emits the clone-based rows bit for bit.
        #[test]
        fn prop_certificate_rows_match_clone_based_rows(
            bigger in reference::poly(&CONSTANTS),
            smaller in reference::poly(&CONSTANTS),
            products in proptest::collection::vec(product(), 0..4),
        ) {
            let products: Vec<Polynomial> = std::iter::once(Polynomial::constant(1.0))
                .chain(products)
                .collect();
            let mut got = ConstraintBuilder::new();
            let mut want = ConstraintBuilder::new();
            for builder in [&mut got, &mut want] {
                // The template unknowns the random coefficients refer to.
                for _ in 0..4 {
                    builder.fresh_poly(&[], 0);
                }
            }
            require_poly_geq(&mut got, &products, &bigger, &smaller);
            reference_require_poly_geq(&mut want, &products, &bigger, &smaller);
            prop_assert_eq!(rows(&got), rows(&want));
        }
    }
}
