//! Polynomial constraint atoms.
//!
//! An [`Atom`] is a single polynomial (in)equation `p ◇ 0` with
//! `◇ ∈ {≤, <, =}` over program variables, primed variables, and symbolic
//! constants (such as the hypothetical bounding functions `b_k(h)` of Alg. 2).
//! Conjunctions of atoms form a [`crate::Polyhedron`]; bounded disjunctions
//! of polyhedra form a [`crate::TransitionFormula`].

use chora_expr::{LinearExpr, Monomial, Polynomial, Symbol};
use chora_numeric::{BigInt, BigRational, Sign};
use std::cmp::Ordering;
use std::collections::BTreeSet;
use std::fmt;

/// The comparison kind of an [`Atom`] (always against zero).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum AtomKind {
    /// `p ≤ 0`
    Le,
    /// `p < 0` (used internally for negations during entailment checking)
    Lt,
    /// `p = 0`
    Eq,
}

impl AtomKind {
    /// Whether `c ◇ 0` holds for the constant `c`.
    pub(crate) fn holds(self, c: &BigRational) -> bool {
        self.holds_at(c.sign().cmp(&Sign::Zero))
    }

    /// Whether `c ◇ 0` holds for a constant `c` that compares to zero as
    /// `sign`.
    pub(crate) fn holds_at(self, sign: Ordering) -> bool {
        match self {
            AtomKind::Le => sign != Ordering::Greater,
            AtomKind::Lt => sign == Ordering::Less,
            AtomKind::Eq => sign == Ordering::Equal,
        }
    }
}

/// A polynomial constraint `p ◇ 0`.
///
/// ```
/// use chora_logic::Atom;
/// use chora_expr::{Polynomial, Symbol};
/// let x = Polynomial::var(Symbol::new("x"));
/// let a = Atom::le(x.clone(), Polynomial::constant(chora_numeric::rat(5)));
/// assert_eq!(a.to_string(), "x - 5 ≤ 0");
/// ```
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Atom {
    /// The polynomial `p` constrained against zero.
    pub poly: Polynomial,
    /// The comparison kind.
    pub kind: AtomKind,
}

impl Atom {
    /// The atom `p ≤ 0`.
    pub fn le_zero(p: Polynomial) -> Atom {
        Atom {
            poly: p,
            kind: AtomKind::Le,
        }
    }

    /// The atom `p < 0`.
    pub fn lt_zero(p: Polynomial) -> Atom {
        Atom {
            poly: p,
            kind: AtomKind::Lt,
        }
    }

    /// The atom `p = 0`.
    pub fn eq_zero(p: Polynomial) -> Atom {
        Atom {
            poly: p,
            kind: AtomKind::Eq,
        }
    }

    /// The atom `lhs ≤ rhs`.
    pub fn le(lhs: Polynomial, rhs: Polynomial) -> Atom {
        Atom::le_zero(&lhs - &rhs)
    }

    /// The atom `lhs < rhs`.
    pub fn lt(lhs: Polynomial, rhs: Polynomial) -> Atom {
        Atom::lt_zero(&lhs - &rhs)
    }

    /// The atom `lhs ≥ rhs`.
    pub fn ge(lhs: Polynomial, rhs: Polynomial) -> Atom {
        Atom::le_zero(&rhs - &lhs)
    }

    /// The atom `lhs > rhs`.
    pub fn gt(lhs: Polynomial, rhs: Polynomial) -> Atom {
        Atom::lt_zero(&rhs - &lhs)
    }

    /// The atom `lhs = rhs`.
    pub fn eq(lhs: Polynomial, rhs: Polynomial) -> Atom {
        Atom::eq_zero(&lhs - &rhs)
    }

    /// The symbols mentioned by the atom.
    pub fn symbols(&self) -> BTreeSet<Symbol> {
        self.poly.symbols()
    }

    /// The canonical representative of the atom's scaling class: denominators
    /// cleared and the integer coefficients divided by their gcd, so any two
    /// positive scalar multiples of the same constraint become the same atom
    /// (`2x ≤ 10` and `x ≤ 5` both canonicalize to `x - 5 ≤ 0`).  The sign
    /// of an equation is preserved — downstream bound extraction reads the
    /// orientation of `p = 0`, so `-p = 0` is deduped against it only inside
    /// the projection engine's hash keys, never rewritten here.
    pub fn canonical(&self) -> Atom {
        self.clone().into_canonical()
    }

    /// [`Atom::canonical`] by value.  An atom that already is canonical —
    /// integer coefficients with gcd 1, which covers every atom read back
    /// from a projection — is returned as is, without rebuilding its
    /// polynomial.
    pub(crate) fn into_canonical(self) -> Atom {
        if self.poly.is_constant() {
            return self;
        }
        let mut gcd = BigInt::zero();
        let integral = self.poly.terms().all(|(_, c)| {
            if !gcd.is_one() {
                gcd = gcd.gcd(c.numer());
            }
            c.denom().is_one()
        });
        if integral && gcd.is_one() {
            return self;
        }
        let (_, cleared) = self.poly.clear_denominators();
        let mut gcd = BigInt::zero();
        for (_, c) in cleared.terms() {
            gcd = gcd.gcd(c.numer());
        }
        let scale = BigRational::from_integer(gcd).recip();
        Atom {
            poly: cleared.scale(&scale),
            kind: self.kind,
        }
    }

    /// Whether the constraint holds trivially (e.g. `-1 ≤ 0`).
    ///
    /// Returns `None` when the polynomial is not a constant.
    pub fn trivial_truth(&self) -> Option<bool> {
        let c = self.poly.as_constant()?;
        Some(self.kind.holds(&c))
    }

    /// The negation of this atom as one or more atoms whose *disjunction* is
    /// the negation (an equality negates to two strict inequalities).
    pub fn negate(&self) -> Vec<Atom> {
        match self.kind {
            AtomKind::Le => vec![Atom::lt_zero(-&self.poly)],
            AtomKind::Lt => vec![Atom::le_zero(-&self.poly)],
            AtomKind::Eq => vec![Atom::lt_zero(self.poly.clone()), Atom::lt_zero(-&self.poly)],
        }
    }

    /// Renames symbols throughout the atom.
    pub fn rename(&self, f: &mut impl FnMut(&Symbol) -> Symbol) -> Atom {
        Atom {
            poly: self.poly.rename(f),
            kind: self.kind,
        }
    }

    /// Substitutes a polynomial for a symbol.
    pub fn substitute(&self, s: &Symbol, replacement: &Polynomial) -> Atom {
        Atom {
            poly: self.poly.substitute(s, replacement),
            kind: self.kind,
        }
    }

    /// If the atom is linear, returns its linear expression.
    pub fn as_linear(&self) -> Option<LinearExpr> {
        self.poly.as_linear()
    }

    /// Whether the atom's polynomial is linear in its symbols.
    pub fn is_linear(&self) -> bool {
        self.poly.is_linear()
    }

    /// Whether the atom is an upper bound on the given symbol, i.e. has the
    /// form `c·s + rest ≤ 0` with `c > 0` and `s` not occurring in `rest`.
    /// Returns the bound `rest / -c` (so `s ≤ bound`) when it is.
    pub fn upper_bound_on(&self, s: &Symbol) -> Option<Polynomial> {
        let lin_coeff = self.linear_coefficient_of(s)?;
        if !lin_coeff.is_positive() {
            return None;
        }
        // Build the single term directly rather than scaling a fresh
        // one-term polynomial (one allocation instead of two per bound probe
        // — this runs once per atom × candidate symbol during height-bound
        // extraction).
        let var_part = Polynomial::term(lin_coeff.clone(), Monomial::var(*s));
        let rest = &self.poly - &var_part;
        if rest.symbols().contains(s) {
            return None;
        }
        Some(rest.scale(&(-lin_coeff.recip())))
    }

    /// Whether the atom is a lower bound on the given symbol, i.e. has the
    /// form `-c·s + rest ≤ 0` with `c > 0` and `s` not occurring in `rest`.
    /// Returns the bound `rest / c` (so `s ≥ bound`) when it is.
    pub fn lower_bound_on(&self, s: &Symbol) -> Option<Polynomial> {
        let lin_coeff = self.linear_coefficient_of(s)?;
        if !lin_coeff.is_negative() {
            return None;
        }
        let var_part = Polynomial::term(lin_coeff.clone(), Monomial::var(*s));
        let rest = &self.poly - &var_part;
        if rest.symbols().contains(s) {
            return None;
        }
        Some(rest.scale(&(-lin_coeff).recip()))
    }

    /// The coefficient of `s` as a *linear* occurrence; `None` if `s` occurs
    /// inside a non-linear monomial.
    fn linear_coefficient_of(&self, s: &Symbol) -> Option<BigRational> {
        let mut coeff = BigRational::zero();
        for (m, c) in self.poly.terms() {
            let e = m.exponent(s);
            if e == 0 {
                continue;
            }
            if e > 1 || m.degree() > 1 {
                return None;
            }
            coeff = c.clone();
        }
        Some(coeff)
    }
}

impl fmt::Display for Atom {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let op = match self.kind {
            AtomKind::Le => "≤",
            AtomKind::Lt => "<",
            AtomKind::Eq => "=",
        };
        write!(f, "{} {} 0", self.poly, op)
    }
}

impl fmt::Debug for Atom {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chora_numeric::rat;

    fn x() -> Polynomial {
        Polynomial::var(Symbol::new("x"))
    }
    fn c(v: i64) -> Polynomial {
        Polynomial::constant(rat(v))
    }

    #[test]
    fn constructors_and_display() {
        assert_eq!(Atom::le(x(), c(5)).to_string(), "x - 5 ≤ 0");
        assert_eq!(Atom::ge(x(), c(5)).to_string(), "-x + 5 ≤ 0");
        assert_eq!(Atom::eq(x(), c(5)).to_string(), "x - 5 = 0");
        assert_eq!(Atom::gt(x(), c(0)).to_string(), "-x < 0");
    }

    #[test]
    fn trivial_truth() {
        assert_eq!(Atom::le(c(3), c(5)).trivial_truth(), Some(true));
        assert_eq!(Atom::le(c(7), c(5)).trivial_truth(), Some(false));
        assert_eq!(Atom::lt(c(5), c(5)).trivial_truth(), Some(false));
        assert_eq!(Atom::eq(c(5), c(5)).trivial_truth(), Some(true));
        assert_eq!(Atom::le(x(), c(5)).trivial_truth(), None);
    }

    #[test]
    fn negation() {
        let a = Atom::le(x(), c(5)); // x <= 5
        let negs = a.negate(); // x > 5
        assert_eq!(negs.len(), 1);
        assert_eq!(negs[0].to_string(), "-x + 5 < 0");
        let e = Atom::eq(x(), c(0));
        assert_eq!(e.negate().len(), 2);
    }

    #[test]
    fn upper_bound_extraction() {
        // 2x - y - 4 <= 0   =>   x <= (y + 4)/2
        let y = Polynomial::var(Symbol::new("y"));
        let a = Atom::le_zero(&(&x().scale(&rat(2)) - &y) - &c(4));
        let ub = a.upper_bound_on(&Symbol::new("x")).unwrap();
        assert_eq!(ub.to_string(), "1/2·y + 2");
        // No upper bound when coefficient is negative.
        assert!(Atom::le_zero(&-&x() + &c(1))
            .upper_bound_on(&Symbol::new("x"))
            .is_none());
        // Nonlinear occurrence is rejected.
        let nl = Atom::le_zero(&(&x() * &x()) - &c(1));
        assert!(nl.upper_bound_on(&Symbol::new("x")).is_none());
    }

    #[test]
    fn rename_and_substitute() {
        let a = Atom::le(x(), c(0));
        let renamed = a.rename(&mut |s| s.primed());
        assert_eq!(renamed.to_string(), "x' ≤ 0");
        let substituted = a.substitute(&Symbol::new("x"), &c(3));
        assert_eq!(substituted.trivial_truth(), Some(false));
    }
}
