//! Symbolic templates: polynomials, intervals, and moment vectors whose
//! coefficients are *linear expressions over LP unknowns*.
//!
//! Every inference rule of the paper transforms potential annotations in ways
//! that are linear in the template coefficients (the composition operator `⊗`
//! is only ever applied with a concrete left operand), which is exactly what
//! makes the reduction to linear programming possible (§3.4).
//!
//! # Arithmetic in place
//!
//! Every sum the derivation forms goes through one primitive,
//! `add_scaled_assign(&mut self, other, c)` on [`LinCoef`], [`TemplatePoly`]
//! and [`SymInterval`] (plus [`TemplatePoly::add_scaled_term`] for a single
//! monomial): it accumulates `c · other` into `self`, where the clone-based
//! sums copied `self` and a scaled copy of `other` every time.  It performs
//! exactly the floating-point operations of the clone-based
//! `self.add(&other.scale(c))`, in the same order, so the LPs the rules emit
//! are bit for bit what they were before the primitive existed:
//!
//! * `c == 0.0` adds nothing, except that a [`LinCoef`] still adds `0.0` to
//!   its constant (which turns a `-0.0` constant into `0.0`);
//! * an LP-variable term that reaches `0.0` is removed, and a monomial whose
//!   coefficient becomes zero is dropped;
//! * a monomial whose scaled coefficient would be zero is skipped without
//!   being inserted;
//! * a [`SymInterval`] swaps `other`'s ends when `c < 0`, as
//!   [`SymInterval::scale`] does;
//! * products are `k * c` and sums `x + k * c`: no fused multiply-add and no
//!   reordering.
//!
//! `add`, `sub` and [`TemplatePoly::add_term`] are thin wrappers (clone once,
//! then accumulate).  A property test pins the primitive to `#[cfg(test)]`
//! copies of the clone-based bodies by the bits of every constant and
//! coefficient, and `tests/fixtures/suite_lp.txt` pins the suite's LPs.

use std::collections::btree_map::Entry;
use std::collections::BTreeMap;

use cma_lp::LpVarId;
use cma_semiring::binomial;
use cma_semiring::poly::{Monomial, Polynomial, Var};

/// An affine expression `c₀ + Σ cᵢ·vᵢ` over LP unknowns.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct LinCoef {
    constant: f64,
    terms: BTreeMap<LpVarId, f64>,
}

impl LinCoef {
    /// The zero coefficient.
    pub fn zero() -> Self {
        LinCoef::default()
    }

    /// A constant coefficient.
    pub fn constant(c: f64) -> Self {
        LinCoef {
            constant: c,
            terms: BTreeMap::new(),
        }
    }

    /// The coefficient consisting of a single LP unknown.
    pub fn var(v: LpVarId) -> Self {
        let mut terms = BTreeMap::new();
        terms.insert(v, 1.0);
        LinCoef {
            constant: 0.0,
            terms,
        }
    }

    /// The constant part.
    pub fn constant_part(&self) -> f64 {
        self.constant
    }

    /// The LP-variable terms.
    pub fn terms(&self) -> impl Iterator<Item = (LpVarId, f64)> + '_ {
        self.terms.iter().map(|(v, c)| (*v, *c))
    }

    /// Whether the coefficient is syntactically zero.
    pub fn is_zero(&self) -> bool {
        self.constant == 0.0 && self.terms.is_empty()
    }

    /// Whether the coefficient involves no LP unknowns.
    pub fn is_constant(&self) -> bool {
        self.terms.is_empty()
    }

    /// Sum of two coefficients.
    pub fn add(&self, other: &LinCoef) -> LinCoef {
        let mut result = self.clone();
        result.add_scaled_assign(other, 1.0);
        result
    }

    /// Difference of two coefficients.
    pub fn sub(&self, other: &LinCoef) -> LinCoef {
        let mut result = self.clone();
        result.add_scaled_assign(other, -1.0);
        result
    }

    /// Accumulates `c · other` in place, with exactly the floating-point
    /// operations of `*self = self.add(&other.scale(c))` (see the
    /// [module docs](self)).
    pub fn add_scaled_assign(&mut self, other: &LinCoef, c: f64) {
        if c == 0.0 {
            // `other.scale(0.0)` is the zero coefficient, whose constant
            // `add` still adds.
            self.constant += 0.0;
            return;
        }
        self.constant += other.constant * c;
        for (v, k) in &other.terms {
            let term = k * c;
            match self.terms.entry(*v) {
                Entry::Occupied(mut entry) => {
                    *entry.get_mut() += term;
                    if *entry.get() == 0.0 {
                        entry.remove();
                    }
                }
                // `0.0 + term` is `term` unless `term` is a zero, which
                // `add` would insert and remove again.
                Entry::Vacant(entry) => {
                    if term != 0.0 {
                        entry.insert(term);
                    }
                }
            }
        }
    }

    /// Scales the coefficient by a real constant.
    pub fn scale(&self, c: f64) -> LinCoef {
        if c == 0.0 {
            return LinCoef::zero();
        }
        LinCoef {
            constant: self.constant * c,
            terms: self.terms.iter().map(|(v, k)| (*v, k * c)).collect(),
        }
    }

    /// Evaluates the coefficient under an assignment of the LP unknowns.
    pub fn eval(&self, values: &dyn Fn(LpVarId) -> f64) -> f64 {
        self.constant + self.terms.iter().map(|(v, c)| c * values(*v)).sum::<f64>()
    }
}

/// A polynomial over program variables whose coefficients are [`LinCoef`]s.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TemplatePoly {
    terms: BTreeMap<Monomial, LinCoef>,
}

impl TemplatePoly {
    /// The zero polynomial.
    pub fn zero() -> Self {
        TemplatePoly::default()
    }

    /// A concrete constant polynomial.
    pub fn constant(c: f64) -> Self {
        TemplatePoly::from_concrete(&Polynomial::constant(c))
    }

    /// Lifts a concrete polynomial into a template with constant coefficients.
    pub fn from_concrete(p: &Polynomial) -> Self {
        let mut terms = BTreeMap::new();
        for (m, c) in p.terms() {
            terms.insert(m.clone(), LinCoef::constant(c));
        }
        TemplatePoly { terms }
    }

    /// Builds a template from `(monomial, coefficient)` pairs.
    pub fn from_terms(terms: impl IntoIterator<Item = (Monomial, LinCoef)>) -> Self {
        let mut result = TemplatePoly::zero();
        for (m, c) in terms {
            result.add_term(m, c);
        }
        result
    }

    /// Adds `coef · monomial` to the polynomial.
    pub fn add_term(&mut self, m: Monomial, coef: LinCoef) {
        self.add_scaled_term(&m, &coef, 1.0);
    }

    /// Adds `c · coef · monomial` in place, with exactly the floating-point
    /// operations of `self.add_term(m.clone(), coef.scale(c))`: a zero scaled
    /// coefficient is skipped, and a coefficient that cancels to zero drops
    /// its monomial.  The monomial is cloned only when it is new.
    pub fn add_scaled_term(&mut self, m: &Monomial, coef: &LinCoef, c: f64) {
        if c == 0.0 || (coef.constant * c == 0.0 && coef.terms.is_empty()) {
            return;
        }
        let cancelled = match self.terms.get_mut(m) {
            Some(entry) => {
                entry.add_scaled_assign(coef, c);
                entry.is_zero()
            }
            None => {
                let mut entry = LinCoef::zero();
                entry.add_scaled_assign(coef, c);
                if !entry.is_zero() {
                    self.terms.insert(m.clone(), entry);
                }
                false
            }
        };
        if cancelled {
            self.terms.remove(m);
        }
    }

    /// Iterates over the `(monomial, coefficient)` pairs.
    pub fn terms(&self) -> impl Iterator<Item = (&Monomial, &LinCoef)> {
        self.terms.iter()
    }

    /// The coefficient of a monomial (zero if absent).
    pub fn coefficient(&self, m: &Monomial) -> LinCoef {
        self.terms.get(m).cloned().unwrap_or_else(LinCoef::zero)
    }

    /// The monomials with non-zero coefficients.
    pub fn monomials(&self) -> impl Iterator<Item = &Monomial> {
        self.terms.keys()
    }

    /// Whether the polynomial is syntactically zero.
    pub fn is_zero(&self) -> bool {
        self.terms.is_empty()
    }

    /// Sum of two template polynomials.
    pub fn add(&self, other: &TemplatePoly) -> TemplatePoly {
        let mut result = self.clone();
        result.add_scaled_assign(other, 1.0);
        result
    }

    /// Difference of two template polynomials.
    pub fn sub(&self, other: &TemplatePoly) -> TemplatePoly {
        let mut result = self.clone();
        result.add_scaled_assign(other, -1.0);
        result
    }

    /// Accumulates `c · other` in place, with exactly the floating-point
    /// operations of `*self = self.add(&other.scale(c))` (see the
    /// [module docs](self)).
    pub fn add_scaled_assign(&mut self, other: &TemplatePoly, c: f64) {
        for (m, coef) in &other.terms {
            self.add_scaled_term(m, coef, c);
        }
    }

    /// Scales every coefficient by a real constant.
    pub fn scale(&self, c: f64) -> TemplatePoly {
        if c == 0.0 {
            return TemplatePoly::zero();
        }
        TemplatePoly {
            terms: self
                .terms
                .iter()
                .map(|(m, k)| (m.clone(), k.scale(c)))
                .collect(),
        }
    }

    /// Substitutes a program variable by a concrete polynomial
    /// (the `Q-Assign` rule).
    pub fn substitute(&self, v: &Var, replacement: &Polynomial) -> TemplatePoly {
        let mut result = TemplatePoly::zero();
        for (m, coef) in self.terms() {
            let (e, rest) = m.split_var(v);
            if e == 0 {
                result.add_scaled_term(&rest, coef, 1.0);
            } else {
                let expanded = replacement.pow(e);
                for (m2, c) in expanded.terms() {
                    result.add_scaled_term(&rest.mul(m2), coef, c);
                }
            }
        }
        result
    }

    /// Replaces every power `v^j` by the constant `moments[j]`
    /// (the expectation computation of the `Q-Sample` rule).
    ///
    /// # Panics
    ///
    /// Panics if a power of `v` exceeds the supplied moments.
    pub fn expect_powers(&self, v: &Var, moments: &[f64]) -> TemplatePoly {
        let mut result = TemplatePoly::zero();
        for (m, coef) in self.terms() {
            let (e, rest) = m.split_var(v);
            let factor = moments[e as usize];
            result.add_scaled_term(&rest, coef, factor);
        }
        result
    }

    /// The highest power of `v` appearing in the polynomial.
    pub fn max_power(&self, v: &Var) -> u32 {
        self.terms.keys().map(|m| m.exponent(v)).max().unwrap_or(0)
    }

    /// Evaluates the program variables at a concrete valuation, leaving an
    /// affine expression over the LP unknowns (used for objectives).
    pub fn eval_vars(&self, valuation: &dyn Fn(&Var) -> f64) -> LinCoef {
        let mut acc = LinCoef::zero();
        for (m, coef) in self.terms() {
            acc.add_scaled_assign(coef, m.eval(valuation));
        }
        acc
    }

    /// Resolves the LP unknowns with a solution, yielding a concrete
    /// polynomial (tiny coefficients are rounded away for readability).
    pub fn resolve(&self, values: &dyn Fn(LpVarId) -> f64) -> Polynomial {
        let mut p = Polynomial::zero();
        for (m, coef) in self.terms() {
            let mut c = coef.eval(values);
            if c.abs() < 1e-9 {
                c = 0.0;
            }
            p.add_term(m.clone(), c);
        }
        p
    }
}

/// A symbolic interval `[lo, hi]` whose ends are template polynomials.
#[derive(Debug, Clone, PartialEq)]
pub struct SymInterval {
    /// Lower-bound polynomial.
    pub lo: TemplatePoly,
    /// Upper-bound polynomial.
    pub hi: TemplatePoly,
}

impl SymInterval {
    /// The zero interval `[0, 0]`.
    pub fn zero() -> Self {
        SymInterval {
            lo: TemplatePoly::zero(),
            hi: TemplatePoly::zero(),
        }
    }

    /// The point interval `[c, c]`.
    pub fn point(c: f64) -> Self {
        SymInterval {
            lo: TemplatePoly::constant(c),
            hi: TemplatePoly::constant(c),
        }
    }

    /// The point interval with both ends the given concrete polynomial.
    pub fn point_poly(p: &Polynomial) -> Self {
        SymInterval {
            lo: TemplatePoly::from_concrete(p),
            hi: TemplatePoly::from_concrete(p),
        }
    }

    /// Interval addition (ends add pointwise).
    pub fn add(&self, other: &SymInterval) -> SymInterval {
        let mut result = self.clone();
        result.add_scaled_assign(other, 1.0);
        result
    }

    /// Accumulates `c · other` in place, with exactly the floating-point
    /// operations of `*self = self.add(&other.scale(c))`: `other`'s ends
    /// swap when `c < 0`, as in [`scale`](Self::scale).
    pub fn add_scaled_assign(&mut self, other: &SymInterval, c: f64) {
        let (lo, hi) = if c >= 0.0 {
            (&other.lo, &other.hi)
        } else {
            (&other.hi, &other.lo)
        };
        self.lo.add_scaled_assign(lo, c);
        self.hi.add_scaled_assign(hi, c);
    }

    /// Scales by a real constant, flipping the ends when negative.
    pub fn scale(&self, c: f64) -> SymInterval {
        if c >= 0.0 {
            SymInterval {
                lo: self.lo.scale(c),
                hi: self.hi.scale(c),
            }
        } else {
            SymInterval {
                lo: self.hi.scale(c),
                hi: self.lo.scale(c),
            }
        }
    }

    /// Whether both ends are syntactically zero.
    pub fn is_zero(&self) -> bool {
        self.lo.is_zero() && self.hi.is_zero()
    }

    /// Applies a transformation to both ends.
    pub fn map(&self, f: impl Fn(&TemplatePoly) -> TemplatePoly) -> SymInterval {
        SymInterval {
            lo: f(&self.lo),
            hi: f(&self.hi),
        }
    }
}

/// A symbolic moment annotation `Q ∈ M(m)_PI`: an `(m+1)`-vector of symbolic
/// intervals.  This is the quantity transformed by the derivation rules.
#[derive(Debug, Clone, PartialEq)]
pub struct SymMoment {
    components: Vec<SymInterval>,
}

impl SymMoment {
    /// The identity annotation `1 = ⟨[1,1],[0,0],…⟩` of degree `m`.
    pub fn one(degree: usize) -> Self {
        let mut components = vec![SymInterval::zero(); degree + 1];
        components[0] = SymInterval::point(1.0);
        SymMoment { components }
    }

    /// The all-zero annotation of degree `m`.
    pub fn zero(degree: usize) -> Self {
        SymMoment {
            components: vec![SymInterval::zero(); degree + 1],
        }
    }

    /// Builds an annotation from its components.
    ///
    /// # Panics
    ///
    /// Panics if `components` is empty.
    pub fn from_components(components: Vec<SymInterval>) -> Self {
        assert!(!components.is_empty());
        SymMoment { components }
    }

    /// The degree `m`.
    pub fn degree(&self) -> usize {
        self.components.len() - 1
    }

    /// The `k`-th component.
    pub fn component(&self, k: usize) -> &SymInterval {
        &self.components[k]
    }

    /// All components.
    pub fn components(&self) -> &[SymInterval] {
        &self.components
    }

    /// Mutable access to the `k`-th component.
    pub fn component_mut(&mut self, k: usize) -> &mut SymInterval {
        &mut self.components[k]
    }

    /// The combination operator `⊕` (pointwise interval addition).
    pub fn combine(&self, other: &SymMoment) -> SymMoment {
        assert_eq!(self.degree(), other.degree(), "degree mismatch in ⊕");
        SymMoment {
            components: self
                .components
                .iter()
                .zip(&other.components)
                .map(|(a, b)| a.add(b))
                .collect(),
        }
    }

    /// Prepends a deterministic cost `c`:
    /// `⟨[c⁰,c⁰],…,[c^m,c^m]⟩ ⊗ self` (the `Q-Tick` rule).
    pub fn prepend_cost(&self, c: f64) -> SymMoment {
        let m = self.degree();
        let mut components = Vec::with_capacity(m + 1);
        for k in 0..=m {
            let mut acc = SymInterval::zero();
            for i in 0..=k {
                let factor = binomial(k, i) * c.powi(i as i32);
                acc.add_scaled_assign(&self.components[k - i], factor);
            }
            components.push(acc);
        }
        SymMoment { components }
    }

    /// Scales every component by a probability `p ∈ [0, 1]`
    /// (`⟨[p,p],[0,0],…⟩ ⊗ self`, used by the `Q-Prob` rule).
    pub fn scale_probability(&self, p: f64) -> SymMoment {
        SymMoment {
            components: self.components.iter().map(|c| c.scale(p)).collect(),
        }
    }

    /// Substitutes a program variable by a concrete polynomial in every end
    /// (the `Q-Assign` rule).
    pub fn substitute(&self, v: &Var, replacement: &Polynomial) -> SymMoment {
        SymMoment {
            components: self
                .components
                .iter()
                .map(|c| c.map(|p| p.substitute(v, replacement)))
                .collect(),
        }
    }

    /// Takes the expectation over a sampled variable whose raw moments are
    /// `moments[j] = E[v^j]` (the `Q-Sample` rule).
    pub fn expect_over(&self, v: &Var, moments: &[f64]) -> SymMoment {
        SymMoment {
            components: self
                .components
                .iter()
                .map(|c| c.map(|p| p.expect_powers(v, moments)))
                .collect(),
        }
    }

    /// The highest power of `v` appearing anywhere in the annotation.
    pub fn max_power(&self, v: &Var) -> u32 {
        self.components
            .iter()
            .flat_map(|c| [c.lo.max_power(v), c.hi.max_power(v)])
            .max()
            .unwrap_or(0)
    }

    /// Resolves all LP unknowns, producing concrete interval polynomials
    /// `(lower, upper)` per component.
    pub fn resolve(&self, values: &dyn Fn(LpVarId) -> f64) -> Vec<(Polynomial, Polynomial)> {
        self.components
            .iter()
            .map(|c| (c.lo.resolve(values), c.hi.resolve(values)))
            .collect()
    }
}

/// The clone-based sums the in-place primitive replaced, verbatim, and random
/// inputs that reach their corner cases: the references the primitive is
/// pinned to bit for bit.
#[cfg(test)]
pub(crate) mod reference {
    use super::*;
    use proptest::prelude::*;

    /// `LinCoef::add` before the primitive.
    pub(crate) fn lin_add(a: &LinCoef, other: &LinCoef) -> LinCoef {
        let mut result = a.clone();
        result.constant += other.constant;
        for (v, c) in &other.terms {
            let entry = result.terms.entry(*v).or_insert(0.0);
            *entry += c;
            if *entry == 0.0 {
                result.terms.remove(v);
            }
        }
        result
    }

    /// `TemplatePoly::add_term` before the primitive.
    pub(crate) fn add_term(p: &mut TemplatePoly, m: Monomial, coef: LinCoef) {
        if coef.is_zero() {
            return;
        }
        let entry = p.terms.entry(m.clone()).or_insert_with(LinCoef::zero);
        *entry = lin_add(entry, &coef);
        if entry.is_zero() {
            p.terms.remove(&m);
        }
    }

    /// `TemplatePoly::add` before the primitive.
    pub(crate) fn poly_add(a: &TemplatePoly, other: &TemplatePoly) -> TemplatePoly {
        let mut result = a.clone();
        for (m, c) in other.terms() {
            add_term(&mut result, m.clone(), c.clone());
        }
        result
    }

    /// `SymInterval::add` before the primitive.
    pub(crate) fn interval_add(a: &SymInterval, other: &SymInterval) -> SymInterval {
        SymInterval {
            lo: poly_add(&a.lo, &other.lo),
            hi: poly_add(&a.hi, &other.hi),
        }
    }

    /// Coefficients: values that cancel each other exactly under the
    /// [`SCALES`], zeros of both signs, and magnitudes whose products with a
    /// tiny scale underflow.
    pub(crate) const VALUES: [f64; 11] = [
        -2.0, -1.0, -0.5, 0.5, 1.0, 2.0, 3.0, 0.0, -0.0, 1e-200, -1e-200,
    ];

    /// Scales: zeros of both signs, negative, positive, and tiny enough that
    /// `1e-200 · c` underflows to a zero.
    pub(crate) const SCALES: [f64; 8] = [0.0, -0.0, -1.0, -0.5, 0.5, 2.0, 1e-200, -1e-300];

    /// A coefficient over four LP unknowns whose constant is drawn from
    /// `constants` and whose terms may hold zeros (as `scale` can leave).
    pub(crate) fn lin(constants: &'static [f64]) -> impl Strategy<Value = LinCoef> {
        (
            0..constants.len(),
            proptest::collection::vec((0usize..4, 0..VALUES.len()), 0..4),
        )
            .prop_map(move |(c, terms)| LinCoef {
                constant: constants[c],
                terms: terms
                    .into_iter()
                    .map(|(v, k)| (LpVarId::from_index(v), VALUES[k]))
                    .collect(),
            })
    }

    /// One of five monomials over `x` and `y`.
    pub(crate) fn monomial(i: usize) -> Monomial {
        let (x, y) = (Var::new("x"), Var::new("y"));
        match i {
            0 => Monomial::unit(),
            1 => Monomial::var(x),
            2 => Monomial::var(y),
            3 => Monomial::var_pow(x, 2),
            _ => Monomial::var(x).mul(&Monomial::var(y)),
        }
    }

    /// A template polynomial whose coefficients come from [`lin`] (and so
    /// may be zero, as `scale` can leave them).
    pub(crate) fn poly(constants: &'static [f64]) -> impl Strategy<Value = TemplatePoly> {
        proptest::collection::vec((0usize..5, lin(constants)), 0..5).prop_map(|terms| {
            TemplatePoly {
                terms: terms.into_iter().map(|(m, c)| (monomial(m), c)).collect(),
            }
        })
    }

    /// Asserts equal key sets and equal bits of every constant and
    /// coefficient.
    pub(crate) fn assert_lin_bits(got: &LinCoef, want: &LinCoef, what: &str) {
        assert_eq!(
            got.constant.to_bits(),
            want.constant.to_bits(),
            "{what}: constant {:?} vs {:?}",
            got.constant,
            want.constant
        );
        let bits = |c: &LinCoef| -> Vec<(LpVarId, u64)> {
            c.terms.iter().map(|(v, k)| (*v, k.to_bits())).collect()
        };
        assert_eq!(bits(got), bits(want), "{what}: terms {got:?} vs {want:?}");
    }

    /// [`assert_lin_bits`] for every monomial of two polynomials.
    pub(crate) fn assert_poly_bits(got: &TemplatePoly, want: &TemplatePoly, what: &str) {
        assert_eq!(
            got.terms.keys().collect::<Vec<_>>(),
            want.terms.keys().collect::<Vec<_>>(),
            "{what}: monomials"
        );
        for ((m, g), w) in got.terms.iter().zip(want.terms.values()) {
            assert_lin_bits(g, w, &format!("{what} at {m:?}"));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cma_semiring::{Interval, MomentVec};

    fn x() -> Var {
        Var::new("x")
    }
    fn lp_var(i: usize) -> LpVarId {
        // LpVarId construction goes through an LpProblem in production code;
        // for unit tests we mint ids from a scratch problem.
        let mut lp = cma_lp::LpProblem::new();
        let mut id = None;
        for j in 0..=i {
            id = Some(lp.add_var(format!("v{j}"), true));
        }
        id.unwrap()
    }

    #[test]
    fn lincoef_arithmetic() {
        let a = LinCoef::constant(2.0).add(&LinCoef::var(lp_var(0)).scale(3.0));
        assert_eq!(a.constant_part(), 2.0);
        assert!(!a.is_constant());
        let b = a.sub(&LinCoef::var(lp_var(0)).scale(3.0));
        assert!(b.is_constant());
        assert_eq!(b.constant_part(), 2.0);
        assert!(LinCoef::zero().is_zero());
        let vals = |_: LpVarId| 5.0;
        assert_eq!(a.eval(&vals), 17.0);
    }

    proptest::proptest! {
        /// `LinCoef::add_scaled_assign` and its wrappers perform the
        /// clone-based arithmetic bit for bit, including the `0.0` a zero
        /// scale still adds to a `-0.0` constant.
        #[test]
        fn prop_lincoef_primitive_matches_clone_based_sums(
            a in reference::lin(&reference::VALUES),
            b in reference::lin(&reference::VALUES),
        ) {
            for c in reference::SCALES {
                let mut got = a.clone();
                got.add_scaled_assign(&b, c);
                let want = reference::lin_add(&a, &b.scale(c));
                reference::assert_lin_bits(&got, &want, &format!("{a:?} + {c:e}·{b:?}"));
            }
            reference::assert_lin_bits(&a.add(&b), &reference::lin_add(&a, &b), "add");
            reference::assert_lin_bits(
                &a.sub(&b),
                &reference::lin_add(&a, &b.scale(-1.0)),
                "sub",
            );
            reference::assert_lin_bits(
                &a.sub(&a),
                &reference::lin_add(&a, &a.scale(-1.0)),
                "a - a",
            );
        }

        /// `TemplatePoly::add_scaled_assign`, `add_scaled_term` and their
        /// wrappers perform the clone-based arithmetic bit for bit.
        #[test]
        fn prop_template_primitive_matches_clone_based_sums(
            a in reference::poly(&reference::VALUES),
            b in reference::poly(&reference::VALUES),
        ) {
            for c in reference::SCALES {
                let mut got = a.clone();
                got.add_scaled_assign(&b, c);
                let want = reference::poly_add(&a, &b.scale(c));
                reference::assert_poly_bits(&got, &want, &format!("a + {c:e}·b"));
                for (m, coef) in b.terms() {
                    let mut got = a.clone();
                    got.add_scaled_term(m, coef, c);
                    let mut want = a.clone();
                    reference::add_term(&mut want, m.clone(), coef.scale(c));
                    reference::assert_poly_bits(&got, &want, &format!("add_scaled_term {c:e}"));
                }
            }
            reference::assert_poly_bits(&a.add(&b), &reference::poly_add(&a, &b), "add");
            reference::assert_poly_bits(
                &a.sub(&b),
                &reference::poly_add(&a, &b.scale(-1.0)),
                "sub",
            );
            let cancelled = a.sub(&a);
            reference::assert_poly_bits(
                &cancelled,
                &reference::poly_add(&a, &a.scale(-1.0)),
                "a - a",
            );
            let mut built = TemplatePoly::zero();
            let mut want = TemplatePoly::zero();
            for (m, coef) in a.terms().chain(b.terms()) {
                built.add_term(m.clone(), coef.clone());
                reference::add_term(&mut want, m.clone(), coef.clone());
            }
            reference::assert_poly_bits(&built, &want, "add_term");
        }

        /// `SymInterval::add_scaled_assign` swaps `other`'s ends for a
        /// negative scale and otherwise performs the clone-based arithmetic
        /// bit for bit.
        #[test]
        fn prop_interval_primitive_matches_clone_based_sums(
            a in (reference::poly(&reference::VALUES), reference::poly(&reference::VALUES)),
            b in (reference::poly(&reference::VALUES), reference::poly(&reference::VALUES)),
        ) {
            let a = SymInterval { lo: a.0, hi: a.1 };
            let b = SymInterval { lo: b.0, hi: b.1 };
            for c in reference::SCALES {
                let mut got = a.clone();
                got.add_scaled_assign(&b, c);
                let want = reference::interval_add(&a, &b.scale(c));
                reference::assert_poly_bits(&got.lo, &want.lo, &format!("lo, c = {c:e}"));
                reference::assert_poly_bits(&got.hi, &want.hi, &format!("hi, c = {c:e}"));
            }
            let sum = a.add(&b);
            let want = reference::interval_add(&a, &b);
            reference::assert_poly_bits(&sum.lo, &want.lo, "add lo");
            reference::assert_poly_bits(&sum.hi, &want.hi, "add hi");
        }
    }

    #[test]
    fn template_from_concrete_and_resolve_roundtrip() {
        let p = Polynomial::var(x())
            .scale(2.0)
            .add(&Polynomial::constant(4.0));
        let t = TemplatePoly::from_concrete(&p);
        let back = t.resolve(&|_| 0.0);
        assert_eq!(back, p);
        assert!(t.coefficient(&Monomial::var(x())).is_constant());
    }

    #[test]
    fn template_add_sub_scale() {
        let v0 = lp_var(0);
        let t = TemplatePoly::from_terms([(Monomial::var(x()), LinCoef::var(v0))]);
        let u = t.add(&TemplatePoly::constant(1.0)).scale(2.0);
        let resolved = u.resolve(&|_| 3.0);
        // 2*(3x + 1) = 6x + 2
        assert_eq!(resolved.coefficient(&Monomial::var(x())), 6.0);
        assert_eq!(resolved.coefficient(&Monomial::unit()), 2.0);
        assert!(u.sub(&u).is_zero());
    }

    #[test]
    fn substitution_matches_concrete_polynomials() {
        // t = x^2 + 3; substitute x := y + 1.
        let t = TemplatePoly::from_concrete(
            &Polynomial::var(x()).pow(2).add(&Polynomial::constant(3.0)),
        );
        let replacement = Polynomial::var(Var::new("y")).add(&Polynomial::constant(1.0));
        let s = t.substitute(&x(), &replacement).resolve(&|_| 0.0);
        let expected = Polynomial::var(x())
            .pow(2)
            .add(&Polynomial::constant(3.0))
            .substitute(&x(), &replacement);
        assert_eq!(s, expected);
    }

    #[test]
    fn expectation_replaces_powers_by_moments() {
        // t = x^2*y + 2x + 5; with E[x]=0.5, E[x^2]=1 → y + 1 + 5 + ... = y + 6.
        let y = Var::new("y");
        let t = TemplatePoly::from_concrete(
            &Polynomial::var(x())
                .pow(2)
                .mul(&Polynomial::var(y.clone()))
                .add(&Polynomial::var(x()).scale(2.0))
                .add(&Polynomial::constant(5.0)),
        );
        let moments = [1.0, 0.5, 1.0];
        let e = t.expect_powers(&x(), &moments).resolve(&|_| 0.0);
        assert_eq!(e.coefficient(&Monomial::var(y.clone())), 1.0);
        assert_eq!(e.coefficient(&Monomial::unit()), 6.0);
        assert_eq!(t.max_power(&x()), 2);
    }

    #[test]
    fn eval_vars_leaves_lp_unknowns() {
        let v0 = lp_var(0);
        let t = TemplatePoly::from_terms([
            (Monomial::var(x()), LinCoef::var(v0)),
            (Monomial::unit(), LinCoef::constant(1.0)),
        ]);
        let coef = t.eval_vars(&|_| 4.0);
        // value = 4*v0 + 1
        assert_eq!(coef.constant_part(), 1.0);
        assert_eq!(coef.eval(&|_| 2.0), 9.0);
    }

    #[test]
    fn interval_scale_flips_on_negative() {
        let i = SymInterval {
            lo: TemplatePoly::constant(1.0),
            hi: TemplatePoly::constant(2.0),
        };
        let s = i.scale(-3.0);
        assert_eq!(s.lo.resolve(&|_| 0.0).as_constant(), Some(-6.0));
        assert_eq!(s.hi.resolve(&|_| 0.0).as_constant(), Some(-3.0));
        assert!(SymInterval::zero().is_zero());
    }

    #[test]
    fn prepend_cost_matches_moment_semiring() {
        // post = ⟨1, 0, 0⟩, cost 1  → ⟨1, 1, 1⟩ (Ex. 2.3, tick(1)).
        let post = SymMoment::one(2);
        let pre = post.prepend_cost(1.0);
        for k in 0..=2 {
            assert_eq!(
                pre.component(k).hi.resolve(&|_| 0.0).as_constant(),
                Some(1.0)
            );
            assert_eq!(
                pre.component(k).lo.resolve(&|_| 0.0).as_constant(),
                Some(1.0)
            );
        }
        // Negative costs flip nothing structurally but produce signed powers:
        // cost -1 on ⟨1,0,0⟩ gives ⟨1,-1,1⟩.
        let neg = post.prepend_cost(-1.0);
        assert_eq!(
            neg.component(1).hi.resolve(&|_| 0.0).as_constant(),
            Some(-1.0)
        );
        assert_eq!(
            neg.component(2).hi.resolve(&|_| 0.0).as_constant(),
            Some(1.0)
        );
    }

    #[test]
    fn prepend_cost_uses_binomial_cross_terms() {
        // post with first moment r and second moment s (concrete): cost c.
        // New second component must be c² + 2c·r + s.
        let post = SymMoment::from_components(vec![
            SymInterval::point(1.0),
            SymInterval::point(3.0),
            SymInterval::point(11.0),
        ]);
        let pre = post.prepend_cost(2.0);
        assert_eq!(
            pre.component(1).hi.resolve(&|_| 0.0).as_constant(),
            Some(5.0)
        );
        assert_eq!(
            pre.component(2).hi.resolve(&|_| 0.0).as_constant(),
            Some(4.0 + 2.0 * 2.0 * 3.0 + 11.0)
        );
    }

    #[test]
    fn combine_and_scale_probability() {
        let a = SymMoment::from_components(vec![SymInterval::point(1.0), SymInterval::point(2.0)]);
        let b = SymMoment::from_components(vec![SymInterval::point(1.0), SymInterval::point(6.0)]);
        let mix = a
            .scale_probability(0.25)
            .combine(&b.scale_probability(0.75));
        assert_eq!(
            mix.component(0).hi.resolve(&|_| 0.0).as_constant(),
            Some(1.0)
        );
        assert_eq!(
            mix.component(1).hi.resolve(&|_| 0.0).as_constant(),
            Some(5.0)
        );
    }

    #[test]
    fn symmoment_substitute_and_expect() {
        // ⟨1, x, x²⟩ after x := x + t, then expectation over t ~ uniform(-1,2).
        let comp = |p: Polynomial| SymInterval::point_poly(&p);
        let q = SymMoment::from_components(vec![
            comp(Polynomial::constant(1.0)),
            comp(Polynomial::var(x())),
            comp(Polynomial::var(x()).pow(2)),
        ]);
        let t = Var::new("t");
        let after_assign =
            q.substitute(&x(), &Polynomial::var(x()).add(&Polynomial::var(t.clone())));
        // E[t] = 1/2, E[t²] = 1.
        let after_sample = after_assign.expect_over(&t, &[1.0, 0.5, 1.0]);
        let second = after_sample.component(2).hi.resolve(&|_| 0.0);
        // E[(x+t)²] = x² + 2x·E[t] + E[t²] = x² + x + 1.
        assert_eq!(second.coefficient(&Monomial::var_pow(x(), 2)), 1.0);
        assert_eq!(second.coefficient(&Monomial::var(x())), 1.0);
        assert_eq!(second.coefficient(&Monomial::unit()), 1.0);
        assert_eq!(after_assign.max_power(&t), 2);
    }

    #[test]
    fn one_and_zero_have_expected_shape() {
        let one = SymMoment::one(3);
        assert_eq!(one.degree(), 3);
        assert_eq!(
            one.component(0).hi.resolve(&|_| 0.0).as_constant(),
            Some(1.0)
        );
        assert!(one.component(1).is_zero());
        let zero = SymMoment::zero(2);
        assert!(zero.components().iter().all(SymInterval::is_zero));
    }

    /// The first `m + 1` drawn end pairs as a constant annotation, both
    /// symbolic and as the reference `MomentVec` of Definition 3.1.
    fn annotation(ends: &[(f64, f64)], m: usize) -> (SymMoment, MomentVec<Interval>) {
        let intervals: Vec<Interval> = ends[..=m]
            .iter()
            .map(|&(a, b)| Interval::hull(a, b))
            .collect();
        let sym = intervals
            .iter()
            .map(|i| SymInterval {
                lo: TemplatePoly::constant(i.lo()),
                hi: TemplatePoly::constant(i.hi()),
            })
            .collect();
        (
            SymMoment::from_components(sym),
            MomentVec::from_raw(intervals),
        )
    }

    fn assert_matches(sym: &SymMoment, reference: &MomentVec<Interval>, rule: &str) {
        for (k, (lo, hi)) in sym.resolve(&|_| 0.0).iter().enumerate() {
            let want = reference.component(k);
            for (got, want) in [(lo, want.lo()), (hi, want.hi())] {
                let got = got.as_constant().expect("constant annotation");
                assert!(
                    (got - want).abs() <= 1e-9 * (1.0 + want.abs()),
                    "{rule}: component {k} is {got}, reference {want}"
                );
            }
        }
    }

    proptest::proptest! {
        /// The symbolic `Q-Tick` and `Q-Prob` transformers agree with the
        /// interval moment semiring's `⊗` and `⊕` on constant annotations.
        /// Negative costs exercise the swap of interval ends.
        #[test]
        fn prop_sym_moment_rules_match_moment_semiring(
            v_ends in proptest::collection::vec((-5.0f64..5.0, -5.0f64..5.0), 5..6),
            w_ends in proptest::collection::vec((-5.0f64..5.0, -5.0f64..5.0), 5..6),
            m in 1usize..5,
            c in -3.0f64..3.0,
            p in 0.0f64..1.0,
        ) {
            let (a, v) = annotation(&v_ends, m);
            let (b, w) = annotation(&w_ends, m);
            let tick = MomentVec::<Interval>::of_cost(c, m).compose(&v);
            assert_matches(&a.prepend_cost(c), &tick, "Q-Tick");
            let weight = |q: f64| {
                let mut u = MomentVec::<Interval>::zero(m);
                *u.component_mut(0) = Interval::point(q);
                u
            };
            let mix = weight(p).compose(&v).combine(&weight(1.0 - p).compose(&w));
            let sym_mix = a
                .scale_probability(p)
                .combine(&b.scale_probability(1.0 - p));
            assert_matches(&sym_mix, &mix, "Q-Prob");
        }
    }
}
