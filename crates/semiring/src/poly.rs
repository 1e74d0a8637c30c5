//! Multivariate polynomials over program variables.
//!
//! Potential-function templates in the paper are vectors of intervals whose
//! ends are polynomials in `ℝ[VID]` (§3.3).  This module provides the concrete
//! polynomial arithmetic: the symbolic-coefficient variant used during LP
//! constraint generation lives in `cma-inference::template` and re-uses the
//! [`Monomial`] type defined here.

use std::cmp::Ordering;
use std::collections::btree_map::Entry;
use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

use crate::semiring::{PartialOrderedSemiring, Semiring};

/// A program variable identifier.
///
/// Cheap to clone (reference counted) and totally ordered so it can key
/// B-tree maps deterministically.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Var(Arc<str>);

impl Var {
    /// Creates a variable with the given name.
    pub fn new(name: impl AsRef<str>) -> Self {
        Var(Arc::from(name.as_ref()))
    }

    /// The variable's name.
    pub fn name(&self) -> &str {
        &self.0
    }
}

impl fmt::Display for Var {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl From<&str> for Var {
    fn from(s: &str) -> Self {
        Var::new(s)
    }
}

impl From<String> for Var {
    fn from(s: String) -> Self {
        Var::new(s)
    }
}

/// A monomial: a finite map from variables to positive exponents.
///
/// The exponents are `(variable, exponent)` pairs sorted by variable, with
/// no zero exponent, so each monomial has exactly one representation.  The
/// derived order compares those pairs lexicographically, a prefix first:
/// the order of a `BTreeMap<Var, u32>` holding the same pairs.  Maps keyed by
/// monomials (polynomials and templates) iterate in that order, which fixes
/// the order in which the derivation emits LP rows and columns.
///
/// The empty monomial is the constant `1`.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Monomial {
    exps: Vec<(Var, u32)>,
}

impl Monomial {
    /// The unit monomial (constant `1`).
    pub fn unit() -> Self {
        Monomial::default()
    }

    /// The monomial `v¹`.
    pub fn var(v: Var) -> Self {
        Monomial { exps: vec![(v, 1)] }
    }

    /// The monomial `v^k`; `k = 0` yields the unit monomial.
    pub fn var_pow(v: Var, k: u32) -> Self {
        if k == 0 {
            return Monomial::unit();
        }
        Monomial { exps: vec![(v, k)] }
    }

    /// Total degree (sum of exponents).
    pub fn degree(&self) -> u32 {
        self.exps.iter().map(|&(_, e)| e).sum()
    }

    /// Where `v` is, or would be inserted, in the sorted pairs.
    fn position(&self, v: &Var) -> Result<usize, usize> {
        self.exps.binary_search_by(|(w, _)| w.cmp(v))
    }

    /// Exponent of `v` in this monomial (0 if absent).
    pub fn exponent(&self, v: &Var) -> u32 {
        self.position(v).map_or(0, |i| self.exps[i].1)
    }

    /// Whether the monomial mentions `v`.
    pub fn mentions(&self, v: &Var) -> bool {
        self.position(v).is_ok()
    }

    /// Whether this is the unit monomial.
    pub fn is_unit(&self) -> bool {
        self.exps.is_empty()
    }

    /// Iterates over `(variable, exponent)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (&Var, u32)> {
        self.exps.iter().map(|(v, e)| (v, *e))
    }

    /// The variables mentioned by the monomial.
    pub fn vars(&self) -> impl Iterator<Item = &Var> {
        self.exps.iter().map(|(v, _)| v)
    }

    /// Product of two monomials (exponents add): a merge of the two sorted
    /// lists.
    pub fn mul(&self, other: &Monomial) -> Monomial {
        let (a, b) = (&self.exps, &other.exps);
        let mut exps = Vec::with_capacity(a.len() + b.len());
        let (mut i, mut j) = (0, 0);
        while i < a.len() && j < b.len() {
            match a[i].0.cmp(&b[j].0) {
                Ordering::Less => {
                    exps.push(a[i].clone());
                    i += 1;
                }
                Ordering::Greater => {
                    exps.push(b[j].clone());
                    j += 1;
                }
                Ordering::Equal => {
                    exps.push((a[i].0.clone(), a[i].1 + b[j].1));
                    i += 1;
                    j += 1;
                }
            }
        }
        exps.extend_from_slice(&a[i..]);
        exps.extend_from_slice(&b[j..]);
        Monomial { exps }
    }

    /// Removes `v` from the monomial, returning the removed exponent and the
    /// remaining monomial.
    pub fn split_var(&self, v: &Var) -> (u32, Monomial) {
        let mut rest = self.clone();
        let e = match self.position(v) {
            Ok(i) => rest.exps.remove(i).1,
            Err(_) => 0,
        };
        (e, rest)
    }

    /// Evaluates the monomial under a valuation; missing variables default
    /// to 0 (so any positive exponent of an unbound variable yields 0).
    pub fn eval(&self, valuation: &dyn Fn(&Var) -> f64) -> f64 {
        self.exps
            .iter()
            .map(|(v, e)| valuation(v).powi(*e as i32))
            .product()
    }

    /// Enumerates all monomials over `vars` of total degree at most `max_degree`.
    pub fn all_up_to_degree(vars: &[Var], max_degree: u32) -> Vec<Monomial> {
        let mut result = vec![Monomial::unit()];
        if max_degree == 0 || vars.is_empty() {
            return result;
        }
        // Iteratively extend by one variable at a time.
        for v in vars {
            let mut extended = Vec::new();
            for m in &result {
                let base_deg = m.degree();
                for e in 1..=(max_degree.saturating_sub(base_deg)) {
                    extended.push(m.mul(&Monomial::var_pow(v.clone(), e)));
                }
            }
            result.extend(extended);
        }
        result.sort();
        result.dedup();
        result
    }
}

impl fmt::Display for Monomial {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_unit() {
            return write!(f, "1");
        }
        let mut first = true;
        for (v, e) in self.iter() {
            if !first {
                write!(f, "*")?;
            }
            first = false;
            if e == 1 {
                write!(f, "{v}")?;
            } else {
                write!(f, "{v}^{e}")?;
            }
        }
        Ok(())
    }
}

/// A multivariate polynomial with `f64` coefficients.
///
/// ```
/// use cma_semiring::poly::{Polynomial, Var};
/// let x = Var::new("x");
/// let d = Var::new("d");
/// // 2*(d - x) + 4
/// let p = Polynomial::var(d.clone()).sub(&Polynomial::var(x.clone())).scale(2.0)
///     .add(&Polynomial::constant(4.0));
/// assert_eq!(p.eval(&|v| if *v == x { 1.0 } else { 3.0 }), 8.0);
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Polynomial {
    /// Coefficients keyed by monomial; zero coefficients are never stored.
    terms: BTreeMap<Monomial, f64>,
}

impl Polynomial {
    /// The zero polynomial.
    pub fn zero() -> Self {
        Polynomial::default()
    }

    /// The constant polynomial `c`.
    pub fn constant(c: f64) -> Self {
        let mut p = Polynomial::zero();
        p.add_term(Monomial::unit(), c);
        p
    }

    /// The polynomial `v`.
    pub fn var(v: Var) -> Self {
        let mut p = Polynomial::zero();
        p.add_term(Monomial::var(v), 1.0);
        p
    }

    /// Builds a polynomial from `(monomial, coefficient)` pairs.
    pub fn from_terms(terms: impl IntoIterator<Item = (Monomial, f64)>) -> Self {
        let mut p = Polynomial::zero();
        for (m, c) in terms {
            p.add_term(m, c);
        }
        p
    }

    /// Adds `c · m` to the polynomial in place.
    pub fn add_term(&mut self, m: Monomial, c: f64) {
        if c == 0.0 {
            return;
        }
        match self.terms.entry(m) {
            Entry::Vacant(slot) => {
                slot.insert(c);
            }
            Entry::Occupied(mut slot) => {
                *slot.get_mut() += c;
                // Keep the representation canonical: a cancelled term goes.
                if *slot.get() == 0.0 {
                    slot.remove();
                }
            }
        }
    }

    /// Iterates over `(monomial, coefficient)` pairs.
    pub fn terms(&self) -> impl Iterator<Item = (&Monomial, f64)> {
        self.terms.iter().map(|(m, &c)| (m, c))
    }

    /// The coefficient of a monomial (0 if absent).
    pub fn coefficient(&self, m: &Monomial) -> f64 {
        self.terms.get(m).copied().unwrap_or(0.0)
    }

    /// Whether this is the zero polynomial.
    pub fn is_zero(&self) -> bool {
        self.terms.is_empty()
    }

    /// Whether the polynomial is a constant, returning the constant if so.
    pub fn as_constant(&self) -> Option<f64> {
        if self.terms.is_empty() {
            return Some(0.0);
        }
        if self.terms.len() == 1 {
            if let Some(c) = self.terms.get(&Monomial::unit()) {
                return Some(*c);
            }
        }
        None
    }

    /// Total degree of the polynomial (0 for the zero polynomial).
    pub fn degree(&self) -> u32 {
        self.terms.keys().map(Monomial::degree).max().unwrap_or(0)
    }

    /// The set of variables mentioned.
    pub fn vars(&self) -> Vec<Var> {
        let mut vars: Vec<Var> = self
            .terms
            .keys()
            .flat_map(|m| m.vars().cloned().collect::<Vec<_>>())
            .collect();
        vars.sort();
        vars.dedup();
        vars
    }

    /// Polynomial addition.
    pub fn add(&self, other: &Polynomial) -> Polynomial {
        let mut result = self.clone();
        for (m, c) in other.terms() {
            result.add_term(m.clone(), c);
        }
        result
    }

    /// Polynomial subtraction.
    pub fn sub(&self, other: &Polynomial) -> Polynomial {
        self.add(&other.scale(-1.0))
    }

    /// Scales every coefficient by `c`.
    pub fn scale(&self, c: f64) -> Polynomial {
        if c == 0.0 {
            return Polynomial::zero();
        }
        Polynomial {
            terms: self.terms.iter().map(|(m, k)| (m.clone(), k * c)).collect(),
        }
    }

    /// Polynomial multiplication.
    pub fn mul(&self, other: &Polynomial) -> Polynomial {
        let mut result = Polynomial::zero();
        for (m1, c1) in self.terms() {
            for (m2, c2) in other.terms() {
                result.add_term(m1.mul(m2), c1 * c2);
            }
        }
        result
    }

    /// `k`-th power of the polynomial.
    pub fn pow(&self, k: u32) -> Polynomial {
        let mut result = Polynomial::constant(1.0);
        for _ in 0..k {
            result = result.mul(self);
        }
        result
    }

    /// Substitutes `v := replacement` throughout the polynomial.
    pub fn substitute(&self, v: &Var, replacement: &Polynomial) -> Polynomial {
        let mut result = Polynomial::zero();
        for (m, c) in self.terms() {
            let (e, rest) = m.split_var(v);
            let mut term = Polynomial::from_terms([(rest, c)]);
            if e > 0 {
                term = term.mul(&replacement.pow(e));
            }
            result = result.add(&term);
        }
        result
    }

    /// Evaluates the polynomial under a valuation.
    pub fn eval(&self, valuation: &dyn Fn(&Var) -> f64) -> f64 {
        self.terms().map(|(m, c)| c * m.eval(valuation)).sum()
    }

    /// Evaluates over an interval box: each variable ranges over an interval.
    ///
    /// Returns an interval guaranteed to contain the range of the polynomial
    /// over the box (standard interval arithmetic, not necessarily tight).
    pub fn eval_interval(&self, valuation: &dyn Fn(&Var) -> crate::Interval) -> crate::Interval {
        let mut acc = crate::Interval::point(0.0);
        for (m, c) in self.terms() {
            let mut term = crate::Interval::point(1.0);
            for (v, e) in m.iter() {
                term = term.mul(valuation(v).powi(e));
            }
            acc = acc.add(term.scale(c));
        }
        acc
    }
}

impl fmt::Display for Polynomial {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_zero() {
            return write!(f, "0");
        }
        // Display highest-degree terms first for readability.
        let mut terms: Vec<(&Monomial, f64)> = self.terms().collect();
        terms.sort_by(|a, b| b.0.degree().cmp(&a.0.degree()).then(a.0.cmp(b.0)));
        let mut first = true;
        for (m, c) in terms {
            let (sign, mag) = if c < 0.0 { ("-", -c) } else { ("+", c) };
            if first {
                if sign == "-" {
                    write!(f, "-")?;
                }
                first = false;
            } else {
                write!(f, " {sign} ")?;
            }
            if m.is_unit() {
                write!(f, "{mag}")?;
            } else if (mag - 1.0).abs() < 1e-12 {
                write!(f, "{m}")?;
            } else {
                write!(f, "{mag}*{m}")?;
            }
        }
        Ok(())
    }
}

impl Semiring for Polynomial {
    fn zero() -> Self {
        Polynomial::zero()
    }

    fn one() -> Self {
        Polynomial::constant(1.0)
    }

    fn add(&self, other: &Self) -> Self {
        Polynomial::add(self, other)
    }

    fn mul(&self, other: &Self) -> Self {
        Polynomial::mul(self, other)
    }

    fn scale_nat(&self, n: f64) -> Self {
        self.scale(n)
    }

    fn is_zero(&self) -> bool {
        Polynomial::is_zero(self)
    }
}

impl PartialOrderedSemiring for Polynomial {
    /// Coefficient-wise comparison: a *sufficient* (not complete) check used
    /// only in tests; the analysis itself compares polynomials under a logical
    /// context via certificates.
    fn leq(&self, other: &Self) -> bool {
        let mut monomials: Vec<Monomial> = self.terms.keys().cloned().collect();
        monomials.extend(other.terms.keys().cloned());
        monomials.sort();
        monomials.dedup();
        monomials
            .iter()
            .all(|m| self.coefficient(m) <= other.coefficient(m))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn x() -> Var {
        Var::new("x")
    }
    fn y() -> Var {
        Var::new("y")
    }

    #[test]
    fn var_display_and_eq() {
        assert_eq!(Var::new("foo").to_string(), "foo");
        assert_eq!(Var::new("a"), Var::from("a"));
        assert!(Var::new("a") < Var::new("b"));
    }

    #[test]
    fn monomial_basics() {
        let m = Monomial::var_pow(x(), 2).mul(&Monomial::var(y()));
        assert_eq!(m.degree(), 3);
        assert_eq!(m.exponent(&x()), 2);
        assert_eq!(m.exponent(&y()), 1);
        assert!(m.mentions(&x()));
        assert!(!m.mentions(&Var::new("z")));
        assert_eq!(m.to_string(), "x^2*y");
        assert_eq!(Monomial::unit().to_string(), "1");
        assert_eq!(Monomial::var_pow(x(), 0), Monomial::unit());
    }

    #[test]
    fn monomial_split_and_eval() {
        let m = Monomial::var_pow(x(), 2).mul(&Monomial::var(y()));
        let (e, rest) = m.split_var(&x());
        assert_eq!(e, 2);
        assert_eq!(rest, Monomial::var(y()));
        let val = |v: &Var| if *v == x() { 3.0 } else { 2.0 };
        assert_eq!(m.eval(&val), 18.0);
    }

    #[test]
    fn monomials_up_to_degree() {
        let ms = Monomial::all_up_to_degree(&[x(), y()], 2);
        // 1, x, x^2, y, y^2, x*y
        assert_eq!(ms.len(), 6);
        assert!(ms.contains(&Monomial::unit()));
        assert!(ms.contains(&Monomial::var(x()).mul(&Monomial::var(y()))));
        assert!(ms.iter().all(|m| m.degree() <= 2));
    }

    #[test]
    fn polynomial_construction_and_eval() {
        // p = 2x^2 - 3xy + 4
        let p = Polynomial::var(x())
            .pow(2)
            .scale(2.0)
            .sub(&Polynomial::var(x()).mul(&Polynomial::var(y())).scale(3.0))
            .add(&Polynomial::constant(4.0));
        assert_eq!(p.degree(), 2);
        let val = |v: &Var| if *v == x() { 2.0 } else { 1.0 };
        assert_eq!(p.eval(&val), 2.0 * 4.0 - 3.0 * 2.0 + 4.0);
        assert_eq!(p.coefficient(&Monomial::unit()), 4.0);
    }

    #[test]
    fn zero_coefficients_are_dropped() {
        let p = Polynomial::var(x()).sub(&Polynomial::var(x()));
        assert!(p.is_zero());
        assert_eq!(p.as_constant(), Some(0.0));
        assert_eq!(p.to_string(), "0");
    }

    #[test]
    fn as_constant() {
        assert_eq!(Polynomial::constant(3.0).as_constant(), Some(3.0));
        assert_eq!(Polynomial::var(x()).as_constant(), None);
    }

    #[test]
    fn substitution_matches_manual_expansion() {
        // p = x^2 + y ; substitute x := y + 1  =>  y^2 + 2y + 1 + y = y^2 + 3y + 1
        let p = Polynomial::var(x()).pow(2).add(&Polynomial::var(y()));
        let repl = Polynomial::var(y()).add(&Polynomial::constant(1.0));
        let q = p.substitute(&x(), &repl);
        let expected = Polynomial::var(y())
            .pow(2)
            .add(&Polynomial::var(y()).scale(3.0))
            .add(&Polynomial::constant(1.0));
        assert_eq!(q, expected);
    }

    #[test]
    fn substitution_of_absent_variable_is_identity() {
        let p = Polynomial::var(x())
            .scale(5.0)
            .add(&Polynomial::constant(1.0));
        let q = p.substitute(&Var::new("z"), &Polynomial::constant(77.0));
        assert_eq!(p, q);
    }

    #[test]
    fn interval_evaluation_contains_point_evaluations() {
        let p = Polynomial::var(x())
            .pow(2)
            .sub(&Polynomial::var(x()).scale(3.0));
        let box_val = |_: &Var| crate::Interval::new(-1.0, 2.0);
        let range = p.eval_interval(&box_val);
        for t in [-1.0, -0.5, 0.0, 1.0, 1.5, 2.0] {
            let v = p.eval(&|_| t);
            assert!(range.contains(v), "{v} not in {range}");
        }
    }

    #[test]
    fn display_is_readable() {
        let p = Polynomial::var(x())
            .pow(2)
            .scale(4.0)
            .add(&Polynomial::var(x()).scale(-22.0))
            .add(&Polynomial::constant(28.0));
        let s = p.to_string();
        assert!(s.contains("x^2"));
        assert!(s.contains("28"));
    }

    #[test]
    fn display_negative_leading_coefficient() {
        let p = Polynomial::var(x()).scale(-1.5);
        assert_eq!(p.to_string(), "-1.5*x");
    }

    #[test]
    fn coefficient_wise_order() {
        let p = Polynomial::var(x()).scale(2.0);
        let q = Polynomial::var(x())
            .scale(3.0)
            .add(&Polynomial::constant(1.0));
        assert!(p.leq(&q));
        assert!(!q.leq(&p));
    }

    fn arb_poly() -> impl Strategy<Value = Polynomial> {
        proptest::collection::vec((0u32..3, 0u32..3, -5.0f64..5.0), 0..6).prop_map(|terms| {
            Polynomial::from_terms(terms.into_iter().map(|(ex, ey, c)| {
                (
                    Monomial::var_pow(Var::new("x"), ex).mul(&Monomial::var_pow(Var::new("y"), ey)),
                    c,
                )
            }))
        })
    }

    /// The monomial as it was kept before the sorted-vector layout: a
    /// `BTreeMap` from variables to positive exponents, the reference the
    /// layout must agree with.
    #[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Default)]
    struct RefMonomial(BTreeMap<Var, u32>);

    impl RefMonomial {
        fn var_pow(v: Var, k: u32) -> Self {
            let mut exps = BTreeMap::new();
            if k > 0 {
                exps.insert(v, k);
            }
            RefMonomial(exps)
        }

        fn degree(&self) -> u32 {
            self.0.values().sum()
        }

        fn exponent(&self, v: &Var) -> u32 {
            self.0.get(v).copied().unwrap_or(0)
        }

        fn mul(&self, other: &RefMonomial) -> RefMonomial {
            let mut exps = self.0.clone();
            for (v, e) in &other.0 {
                *exps.entry(v.clone()).or_insert(0) += e;
            }
            RefMonomial(exps)
        }

        fn split_var(&self, v: &Var) -> (u32, RefMonomial) {
            let mut exps = self.0.clone();
            let e = exps.remove(v).unwrap_or(0);
            (e, RefMonomial(exps))
        }

        fn all_up_to_degree(vars: &[Var], max_degree: u32) -> Vec<RefMonomial> {
            let mut result = vec![RefMonomial::default()];
            if max_degree == 0 || vars.is_empty() {
                return result;
            }
            for v in vars {
                let mut extended = Vec::new();
                for m in &result {
                    let base_deg = m.degree();
                    for e in 1..=(max_degree.saturating_sub(base_deg)) {
                        extended.push(m.mul(&RefMonomial::var_pow(v.clone(), e)));
                    }
                }
                result.extend(extended);
            }
            result.sort();
            result.dedup();
            result
        }
    }

    fn pool() -> Vec<Var> {
        ["a", "b", "n", "x"].into_iter().map(Var::new).collect()
    }

    /// A random monomial over a 4-variable pool, exponents 0–3, built by
    /// multiplying random powers (so a variable may be hit twice): the
    /// layout under test and the reference side by side.
    fn arb_monomial() -> impl Strategy<Value = (Monomial, RefMonomial)> {
        proptest::collection::vec((0usize..4, 0u32..4), 0..5).prop_map(|factors| {
            let vars = pool();
            factors.into_iter().fold(
                (Monomial::unit(), RefMonomial::default()),
                |(m, r), (i, e)| {
                    (
                        m.mul(&Monomial::var_pow(vars[i].clone(), e)),
                        r.mul(&RefMonomial::var_pow(vars[i].clone(), e)),
                    )
                },
            )
        })
    }

    fn pairs(m: &Monomial) -> Vec<(Var, u32)> {
        m.iter().map(|(v, e)| (v.clone(), e)).collect()
    }

    fn ref_pairs(r: &RefMonomial) -> Vec<(Var, u32)> {
        r.0.iter().map(|(v, &e)| (v.clone(), e)).collect()
    }

    #[test]
    fn all_up_to_degree_matches_the_btree_reference() {
        let vars = pool();
        for n in 0..=vars.len() {
            for d in 0..=3 {
                let got: Vec<_> = Monomial::all_up_to_degree(&vars[..n], d)
                    .iter()
                    .map(pairs)
                    .collect();
                let want: Vec<_> = RefMonomial::all_up_to_degree(&vars[..n], d)
                    .iter()
                    .map(ref_pairs)
                    .collect();
                assert_eq!(got, want, "{n} variables, degree {d}");
            }
        }
    }

    proptest! {
        #[test]
        fn prop_monomial_agrees_with_btree_reference(
            left in arb_monomial(),
            right in arb_monomial(),
            k in 0usize..4,
        ) {
            let ((m, rm), (o, ro)) = (left, right);
            let v = &pool()[k];
            prop_assert_eq!(pairs(&m), ref_pairs(&rm));
            prop_assert!(m.iter().all(|(_, e)| e > 0));
            prop_assert_eq!(m.cmp(&o), rm.cmp(&ro));
            prop_assert_eq!(m == o, rm == ro);
            prop_assert_eq!(pairs(&m.mul(&o)), ref_pairs(&rm.mul(&ro)));
            let ((e, rest), (re, rrest)) = (m.split_var(v), rm.split_var(v));
            prop_assert_eq!(e, re);
            prop_assert_eq!(pairs(&rest), ref_pairs(&rrest));
            prop_assert_eq!(m.exponent(v), rm.exponent(v));
            prop_assert_eq!(m.mentions(v), rm.exponent(v) > 0);
            prop_assert_eq!(m.degree(), rm.degree());
        }

        #[test]
        fn prop_sorted_monomials_follow_the_btree_order(
            drawn in proptest::collection::vec(arb_monomial(), 0..12),
        ) {
            let (mut ms, mut rs): (Vec<_>, Vec<_>) = drawn.into_iter().unzip();
            ms.sort();
            rs.sort();
            let got: Vec<_> = ms.iter().map(pairs).collect();
            let want: Vec<_> = rs.iter().map(ref_pairs).collect();
            prop_assert_eq!(got, want);
        }
    }

    proptest! {
        #[test]
        fn prop_add_commutes(p in arb_poly(), q in arb_poly()) {
            prop_assert_eq!(p.add(&q), q.add(&p));
        }

        #[test]
        fn prop_mul_distributes_over_add(p in arb_poly(), q in arb_poly(), r in arb_poly(),
                                         vx in -3.0f64..3.0, vy in -3.0f64..3.0) {
            let lhs = p.mul(&q.add(&r));
            let rhs = p.mul(&q).add(&p.mul(&r));
            let val = |v: &Var| if v.name() == "x" { vx } else { vy };
            prop_assert!((lhs.eval(&val) - rhs.eval(&val)).abs() < 1e-6);
        }

        #[test]
        fn prop_eval_homomorphism(p in arb_poly(), q in arb_poly(),
                                  vx in -3.0f64..3.0, vy in -3.0f64..3.0) {
            let val = |v: &Var| if v.name() == "x" { vx } else { vy };
            prop_assert!((p.add(&q).eval(&val) - (p.eval(&val) + q.eval(&val))).abs() < 1e-7);
            prop_assert!((p.mul(&q).eval(&val) - (p.eval(&val) * q.eval(&val))).abs() < 1e-5);
        }

        #[test]
        fn prop_substitute_then_eval(p in arb_poly(), vx in -2.0f64..2.0, vy in -2.0f64..2.0) {
            // Substituting x := y^2 then evaluating equals evaluating with x = vy^2.
            let repl = Polynomial::var(Var::new("y")).pow(2);
            let substituted = p.substitute(&Var::new("x"), &repl);
            let val_sub = |v: &Var| if v.name() == "x" { vx } else { vy };
            let val_direct = |v: &Var| if v.name() == "x" { vy * vy } else { vy };
            prop_assert!((substituted.eval(&val_sub) - p.eval(&val_direct)).abs() < 1e-6);
        }
    }
}
