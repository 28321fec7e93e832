//! Solving stratified systems of polynomial recurrences (Defn. 3.2).
//!
//! The input is a system of equations
//!
//! ```text
//!     b_k(h+1) = p_k( b_1(h), ..., b_n(h) )
//! ```
//!
//! where each `p_k` is a polynomial with rational coefficients, the
//! dependency structure is *stratified* (non-linear dependencies point
//! strictly downwards), and initial values `b_k(1)` are given.  The output is
//! an exponential-polynomial closed form for each `b_k`.
//!
//! The solver processes strongly connected components of the dependency
//! graph bottom-up.  Each SCC is a linear system `b(h+1) = M·b(h) + g(h)`
//! whose inhomogeneous part `g` is an exponential-polynomial (obtained by
//! substituting the closed forms of lower strata).  The closed form of such a
//! system lies in the span of `{ h^j · λ^h }` where `λ` ranges over the
//! eigenvalues of `M` and the bases of `g` (with degree bumps for repeated
//! eigenvalues and resonance), so the solver:
//!
//! 1. computes the characteristic polynomial of `M` and its rational roots,
//! 2. forms that basis,
//! 3. iterates the recurrence to obtain exact sample values,
//! 4. solves for the basis coefficients by exact linear algebra, and
//! 5. verifies the fit on additional sample points.
//!
//! When the characteristic polynomial does not split over ℚ the solver falls
//! back to a sound scalar majorant (`‖M‖_∞` as the base), which preserves the
//! upper-bound role the closed forms play in CHORA.

use chora_expr::{strongly_connected_components, ExpPoly, Monomial, Polynomial, Symbol};
use chora_numeric::linalg::{rational_roots, Matrix};
use chora_numeric::BigRational;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// One recurrence equation `b_index(h+1) = rhs`, where `rhs` is a polynomial
/// over the symbols `Symbol::bound_at_h(j)`.
#[derive(Clone, Debug)]
pub struct RecEquation {
    /// The index `k` of the bounding function being defined.
    pub index: usize,
    /// The right-hand side over `{ b_j(h) }`.
    pub rhs: Polynomial,
}

/// A stratified system of polynomial recurrences plus initial values.
#[derive(Clone, Debug, Default)]
pub struct RecurrenceSystem {
    equations: Vec<RecEquation>,
    initial: BTreeMap<usize, BigRational>,
}

/// A solved bounding function.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SolvedBound {
    /// The index `k` of the bounding function.
    pub index: usize,
    /// Closed form for `b_k(h)`, valid for all `h ≥ 1`.
    pub closed_form: ExpPoly,
    /// `true` when the closed form is the exact solution of the recurrence;
    /// `false` when it is a sound upper bound (fallback paths).
    pub exact: bool,
}

/// Why the solver could not produce closed forms.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SolveError {
    /// A bounding function is used but never defined (stratification
    /// criterion 2 violated).
    UndefinedBound(usize),
    /// A bounding function is defined more than once (criterion 1 violated).
    DuplicateDefinition(usize),
    /// A non-linear dependency within a strongly connected component
    /// (criterion 3 violated).
    NonStratified(usize),
    /// The closed-form fit could not be verified (should not happen for
    /// well-formed stratified systems; reported rather than returning an
    /// unsound result).
    FitFailed(usize),
}

impl fmt::Display for SolveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SolveError::UndefinedBound(k) => {
                write!(f, "bounding function b_{k} is used but never defined")
            }
            SolveError::DuplicateDefinition(k) => {
                write!(f, "bounding function b_{k} is defined twice")
            }
            SolveError::NonStratified(k) => {
                write!(f, "non-linear dependency on b_{k} within its own stratum")
            }
            SolveError::FitFailed(k) => write!(f, "could not verify a closed form for b_{k}"),
        }
    }
}

impl std::error::Error for SolveError {}

impl RecurrenceSystem {
    /// Creates an empty system.
    pub fn new() -> RecurrenceSystem {
        RecurrenceSystem::default()
    }

    /// Adds the equation `b_index(h+1) = rhs`.
    pub fn add_equation(&mut self, index: usize, rhs: Polynomial) {
        self.equations.push(RecEquation { index, rhs });
    }

    /// Sets the initial value `b_index(1)` (defaults to zero, the value used
    /// by height-based recurrence analysis).
    pub fn set_initial(&mut self, index: usize, value: BigRational) {
        self.initial.insert(index, value);
    }

    /// The equations of the system.
    pub fn equations(&self) -> &[RecEquation] {
        &self.equations
    }

    /// Number of equations.
    pub fn len(&self) -> usize {
        self.equations.len()
    }

    /// Whether the system has no equations.
    pub fn is_empty(&self) -> bool {
        self.equations.is_empty()
    }

    fn initial_value(&self, k: usize) -> BigRational {
        self.initial
            .get(&k)
            .cloned()
            .unwrap_or_else(BigRational::zero)
    }

    /// Solves the system, producing a closed form for every defined bounding
    /// function.
    ///
    /// # Errors
    ///
    /// Returns a [`SolveError`] when the system is not stratified or a closed
    /// form cannot be verified.
    pub fn solve(&self) -> Result<Vec<SolvedBound>, SolveError> {
        let _span = chora_telemetry::trace::span("solve", "recurrence_solve");
        let h = Symbol::height();
        // Index the equations and validate criteria 1 and 2.
        let mut eq_of: BTreeMap<usize, &RecEquation> = BTreeMap::new();
        for eq in &self.equations {
            if eq_of.insert(eq.index, eq).is_some() {
                return Err(SolveError::DuplicateDefinition(eq.index));
            }
        }
        let mut used: BTreeSet<usize> = BTreeSet::new();
        for eq in &self.equations {
            for s in eq.rhs.symbols() {
                if let Some(j) = s.as_bound_at_h() {
                    used.insert(j);
                }
            }
        }
        for j in &used {
            if !eq_of.contains_key(j) {
                return Err(SolveError::UndefinedBound(*j));
            }
        }
        // Dependency graph on equation indices.
        let indices: Vec<usize> = eq_of.keys().copied().collect();
        let deps: BTreeMap<usize, BTreeSet<usize>> = indices
            .iter()
            .map(|&k| {
                let mut d = BTreeSet::new();
                for s in eq_of[&k].rhs.symbols() {
                    if let Some(j) = s.as_bound_at_h() {
                        d.insert(j);
                    }
                }
                (k, d)
            })
            .collect();
        let sccs = strongly_connected_components(&indices, &deps);
        // Process SCCs bottom-up (they come out in reverse topological order
        // of the dependency graph: dependencies first).
        let mut solved: BTreeMap<usize, ExpPoly> = BTreeMap::new();
        let mut results: Vec<SolvedBound> = Vec::new();
        for scc in sccs {
            let bounds = self.solve_scc(&scc, &eq_of, &solved, &h)?;
            for b in bounds {
                solved.insert(b.index, b.closed_form.clone());
                results.push(b);
            }
        }
        results.sort_by_key(|b| b.index);
        Ok(results)
    }

    /// Solves one strongly connected component given the closed forms of all
    /// lower strata.
    fn solve_scc(
        &self,
        scc: &[usize],
        eq_of: &BTreeMap<usize, &RecEquation>,
        solved: &BTreeMap<usize, ExpPoly>,
        h: &Symbol,
    ) -> Result<Vec<SolvedBound>, SolveError> {
        let members: BTreeSet<usize> = scc.iter().copied().collect();
        // Split each RHS into: linear part over SCC members (matrix row) and
        // the remainder (which may mention lower-strata bounds, possibly
        // non-linearly) which becomes the inhomogeneous part.
        let n = scc.len();
        let mut matrix = Matrix::zero(n, n);
        let mut inhomogeneous: Vec<ExpPoly> = Vec::with_capacity(n);
        for (row, &k) in scc.iter().enumerate() {
            let rhs = &eq_of[&k].rhs;
            let mut rest = Polynomial::zero();
            for (m, c) in rhs.terms() {
                // Does this monomial mention an SCC member?
                let scc_vars: Vec<usize> = m
                    .symbols()
                    .iter()
                    .filter_map(|s| s.as_bound_at_h())
                    .filter(|j| members.contains(j))
                    .collect();
                if scc_vars.is_empty() {
                    rest = &rest + &Polynomial::term(c.clone(), m.clone());
                    continue;
                }
                // Linear occurrence of exactly one member, to the first power,
                // with no other bound symbols in the monomial.
                if m.degree() != 1 {
                    return Err(SolveError::NonStratified(k));
                }
                let j = scc_vars[0];
                let col = scc.iter().position(|&x| x == j).expect("member of scc");
                let updated = &matrix[(row, col)] + c;
                matrix[(row, col)] = updated;
            }
            // Substitute lower-strata closed forms into the remainder.
            inhomogeneous.push(substitute_closed_forms(&rest, solved, h)?);
        }
        let initial: Vec<BigRational> = scc.iter().map(|&k| self.initial_value(k)).collect();
        let closed = solve_linear_system(&matrix, &inhomogeneous, &initial, h)
            .ok_or(SolveError::FitFailed(scc[0]))?;
        Ok(scc
            .iter()
            .zip(closed)
            .map(|(&k, (cf, exact))| SolvedBound {
                index: k,
                closed_form: cf,
                exact,
            })
            .collect())
    }
}

/// Substitutes already-solved closed forms for `b_j(h)` symbols in `p`
/// (products of closed forms handle the polynomial dependencies on lower
/// strata), leaving a function of `h` only.
fn substitute_closed_forms(
    p: &Polynomial,
    solved: &BTreeMap<usize, ExpPoly>,
    h: &Symbol,
) -> Result<ExpPoly, SolveError> {
    let mut out = ExpPoly::zero(h);
    for (m, c) in p.terms() {
        let mut factor = ExpPoly::constant(c.clone(), h);
        for (s, e) in m.powers() {
            let base = if let Some(j) = s.as_bound_at_h() {
                solved
                    .get(&j)
                    .cloned()
                    .ok_or(SolveError::UndefinedBound(j))?
            } else if s == h {
                ExpPoly::param_var(h)
            } else {
                // A foreign symbol (e.g. a program variable) cannot appear in
                // a well-formed recurrence right-hand side.
                return Err(SolveError::UndefinedBound(usize::MAX));
            };
            for _ in 0..e {
                factor = factor.mul(&base);
            }
        }
        out = out.add(&factor);
    }
    Ok(out)
}

/// Solves `b(h+1) = M·b(h) + g(h)`, `b(1) = initial`, returning for each
/// component a closed form valid for `h ≥ 1` and an exactness flag.
fn solve_linear_system(
    m: &Matrix,
    g: &[ExpPoly],
    initial: &[BigRational],
    h: &Symbol,
) -> Option<Vec<(ExpPoly, bool)>> {
    let n = m.rows();
    // Eigenvalue basis.
    let char_coeffs = m.char_poly();
    let (roots, fully_factored) = rational_roots(&char_coeffs);
    if !fully_factored {
        return solve_by_majorant(m, g, initial, h);
    }
    // base -> maximum polynomial degree needed
    let mut degrees: BTreeMap<BigRational, u32> = BTreeMap::new();
    let bump = |map: &mut BTreeMap<BigRational, u32>, base: &BigRational, deg: u32| {
        let e = map.entry(base.clone()).or_insert(0);
        *e = (*e).max(deg);
    };
    // Roots of multiplicity m contribute h^0..h^(m-1); count multiplicities.
    let mut mult: BTreeMap<BigRational, u32> = BTreeMap::new();
    for r in &roots {
        if r.is_zero() {
            continue; // nilpotent part: transient, handled by sampling h ≥ n
        }
        *mult.entry(r.clone()).or_insert(0) += 1;
    }
    for (r, k) in &mult {
        bump(&mut degrees, r, k - 1);
    }
    // Inhomogeneous bases: degree + multiplicity-of-that-base-as-eigenvalue
    // (+1 safety margin is unnecessary: resonance is covered by adding the
    // multiplicity).
    for gi in g {
        for (base, poly) in gi.terms() {
            let extra = mult.get(base).copied().unwrap_or(0);
            bump(&mut degrees, base, poly.degree() + extra);
        }
    }
    // Always include the constant function so initial transients can be
    // absorbed when possible.
    bump(&mut degrees, &BigRational::one(), 0);
    // Basis functions (base, power).
    let mut basis: Vec<(BigRational, u32)> = Vec::new();
    for (base, maxdeg) in &degrees {
        for k in 0..=*maxdeg {
            basis.push((base.clone(), k));
        }
    }
    let b_len = basis.len();
    // Sample the recurrence: values b(1), b(2), ... exactly.
    // Fit on points h = n+1 .. n+b_len (past any nilpotent transient),
    // verify on the next few, and separately check the early points.
    let fit_start = (n as i64) + 1;
    let needed = fit_start as usize + b_len + 4;
    let samples = iterate_system(m, g, initial, needed);
    let eval_basis = |base: &BigRational, pow: u32, at: i64| -> BigRational {
        let hp = BigRational::from(at).pow(pow as i32);
        &hp * &base.pow(at as i32)
    };
    let mut out = Vec::with_capacity(n);
    #[allow(clippy::needless_range_loop)] // `comp` indexes the inner dimension of `samples`
    for comp in 0..n {
        // Build the fit system.
        let rows: Vec<Vec<BigRational>> = (0..b_len)
            .map(|i| {
                let at = fit_start + i as i64;
                basis.iter().map(|(b, p)| eval_basis(b, *p, at)).collect()
            })
            .collect();
        let rhs: Vec<BigRational> = (0..b_len)
            .map(|i| samples[(fit_start + i as i64 - 1) as usize][comp].clone())
            .collect();
        let coeffs = Matrix::from_rows(rows).solve(&rhs)?;
        let mut cf = ExpPoly::zero(h);
        for ((base, pow), c) in basis.iter().zip(&coeffs) {
            if c.is_zero() {
                continue;
            }
            let poly = Polynomial::term(c.clone(), Monomial::from_powers([(*h, *pow)]));
            cf = cf.add(&ExpPoly::exp_poly_term(base.clone(), poly, h));
        }
        // Verify on later samples.
        let mut exact = true;
        for at in fit_start + b_len as i64..(needed as i64) {
            if cf.eval_int(at) != samples[(at - 1) as usize][comp] {
                exact = false;
                break;
            }
        }
        if !exact {
            return solve_by_majorant(m, g, initial, h);
        }
        // Check the early (possibly transient) points: exact or at least an
        // upper bound.
        for at in 1..fit_start {
            let predicted = cf.eval_int(at);
            let actual = &samples[(at - 1) as usize][comp];
            if &predicted < actual {
                // Not even an upper bound: lift the whole closed form by the
                // worst shortfall so it dominates the early points.
                let shortfall = actual - &predicted;
                cf = cf.add(&ExpPoly::constant(shortfall, h));
                exact = false;
            } else if &predicted != actual {
                exact = false;
            }
        }
        out.push((cf, exact));
    }
    Some(out)
}

/// Sound fallback when the characteristic polynomial does not split over ℚ:
/// majorize the vector recurrence by the scalar recurrence
/// `s(h+1) = ‖M‖_∞ · s(h) + max_i ĝ_i(h)` with non-negative envelopes.
fn solve_by_majorant(
    m: &Matrix,
    g: &[ExpPoly],
    initial: &[BigRational],
    h: &Symbol,
) -> Option<Vec<(ExpPoly, bool)>> {
    let n = m.rows();
    // ‖M‖_∞ over absolute values.
    let mut norm = BigRational::zero();
    for i in 0..n {
        let mut row = BigRational::zero();
        for j in 0..n {
            row += &m[(i, j)].abs();
        }
        norm = norm.max(row);
    }
    // Envelope of the inhomogeneous parts, summed (a coarse but sound
    // majorant of the per-component maximum).
    let mut g_env = ExpPoly::zero(h);
    for gi in g {
        g_env = g_env.add(&gi.upper_envelope());
    }
    let init_max = initial
        .iter()
        .map(|v| v.abs())
        .fold(BigRational::zero(), |a, b| a.max(b));
    if norm.is_zero() {
        // s(h+1) = ĝ(h): bound by ĝ(h) + ĝ(h-1)-style shift; the envelope is
        // non-decreasing in its syntactic form, so ĝ(h) + init is sound.
        let cf = g_env.add(&ExpPoly::constant(init_max, h));
        return Some(vec![(cf, false); n]);
    }
    // Solve the scalar majorant exactly (1x1 system with rational eigenvalue).
    let scalar_m = Matrix::from_rows(vec![vec![norm]]);
    let scalar = solve_linear_system(&scalar_m, std::slice::from_ref(&g_env), &[init_max], h)?;
    let (cf, _) = scalar.into_iter().next()?;
    Some(vec![(cf, false); n])
}

/// Iterates `b(h+1) = M·b(h) + g(h)` from `b(1) = initial`, returning
/// `[b(1), b(2), ..., b(count)]`.
fn iterate_system(
    m: &Matrix,
    g: &[ExpPoly],
    initial: &[BigRational],
    count: usize,
) -> Vec<Vec<BigRational>> {
    let mut out = Vec::with_capacity(count);
    let mut current: Vec<BigRational> = initial.to_vec();
    out.push(current.clone());
    for step in 1..count {
        let at = step as i64; // current height h
        let mut next = m.mul_vec(&current);
        for (i, gi) in g.iter().enumerate() {
            next[i] += &gi.eval_int(at);
        }
        current = next;
        out.push(current.clone());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use chora_numeric::{rat, ratio};

    fn b_at_h(k: usize) -> Polynomial {
        Polynomial::var(Symbol::bound_at_h(k))
    }
    fn c(v: i64) -> Polynomial {
        Polynomial::constant(rat(v))
    }

    /// Brute-force iteration of a system for comparison.
    fn iterate(sys: &RecurrenceSystem, upto: i64) -> BTreeMap<usize, Vec<BigRational>> {
        let mut values: BTreeMap<usize, Vec<BigRational>> = BTreeMap::new();
        let indices: Vec<usize> = sys.equations().iter().map(|e| e.index).collect();
        for &k in &indices {
            values.insert(
                k,
                vec![sys
                    .initial
                    .get(&k)
                    .cloned()
                    .unwrap_or_else(BigRational::zero)],
            );
        }
        for step in 1..upto {
            let mut env = BTreeMap::new();
            for &k in &indices {
                env.insert(
                    Symbol::bound_at_h(k),
                    values[&k][(step - 1) as usize].clone(),
                );
            }
            for eq in sys.equations() {
                let next = eq.rhs.eval(&env).expect("all bound symbols in env");
                values.get_mut(&eq.index).unwrap().push(next);
            }
        }
        values
    }

    fn check_against_iteration(sys: &RecurrenceSystem, upto: i64) {
        let solved = sys.solve().expect("solvable");
        let reference = iterate(sys, upto);
        for s in &solved {
            for h in 1..upto {
                let actual = &reference[&s.index][(h - 1) as usize];
                let predicted = s.closed_form.eval_int(h);
                if s.exact {
                    assert_eq!(&predicted, actual, "b_{} at h={} (exact)", s.index, h);
                } else {
                    assert!(
                        &predicted >= actual,
                        "b_{} at h={}: {} < {}",
                        s.index,
                        h,
                        predicted,
                        actual
                    );
                }
            }
        }
    }

    #[test]
    fn hanoi_recurrence() {
        // b(h+1) = 2 b(h) + 1, b(1) = 0  =>  b(h) = 2^(h-1) - 1
        let mut sys = RecurrenceSystem::new();
        sys.add_equation(1, &b_at_h(1).scale(&rat(2)) + &c(1));
        let solved = sys.solve().unwrap();
        assert_eq!(solved.len(), 1);
        assert!(solved[0].exact);
        assert_eq!(solved[0].closed_form.eval_int(1), rat(0));
        assert_eq!(solved[0].closed_form.eval_int(5), rat(15));
        assert_eq!(solved[0].closed_form.dominant_base_abs(), Some(rat(2)));
        check_against_iteration(&sys, 12);
    }

    #[test]
    fn subset_sum_recurrence() {
        // The paper's §2 recurrence: b2(h+1) = 2 b2(h) + 2, b2(1) = 0
        // =>  b2(h) = 2^h - 2, i.e. nTicks' - nTicks - 1 ≤ 2^h - 2.
        let mut sys = RecurrenceSystem::new();
        sys.add_equation(2, &b_at_h(2).scale(&rat(2)) + &c(2));
        let solved = sys.solve().unwrap();
        assert_eq!(solved[0].closed_form.eval_int(3), rat(6));
        assert_eq!(solved[0].closed_form.eval_int(10), rat(1022));
        check_against_iteration(&sys, 12);
    }

    #[test]
    fn linear_growth() {
        // b(h+1) = b(h) + 1, b(1) = 0  =>  b(h) = h - 1
        let mut sys = RecurrenceSystem::new();
        sys.add_equation(1, &b_at_h(1) + &c(1));
        let solved = sys.solve().unwrap();
        assert!(solved[0].exact);
        assert_eq!(solved[0].closed_form.eval_int(7), rat(6));
        assert!(solved[0].closed_form.as_polynomial().is_some());
        check_against_iteration(&sys, 10);
    }

    #[test]
    fn quadratic_growth_stratified() {
        // b1(h+1) = b1(h) + 1          => b1(h) = h - 1
        // b2(h+1) = b2(h) + b1(h)      => b2(h) = (h-1)(h-2)/2
        let mut sys = RecurrenceSystem::new();
        sys.add_equation(1, &b_at_h(1) + &c(1));
        sys.add_equation(2, &b_at_h(2) + &b_at_h(1));
        let solved = sys.solve().unwrap();
        let b2 = solved.iter().find(|s| s.index == 2).unwrap();
        assert!(b2.exact);
        assert_eq!(b2.closed_form.eval_int(5), rat(6));
        assert_eq!(b2.closed_form.eval_int(10), rat(36));
        check_against_iteration(&sys, 12);
    }

    #[test]
    fn mergesort_resonance() {
        // b_cost(h+1) = 2 b_cost(h) + 2^h  (linear work at each level)
        // => b_cost(h) = (h-1)·2^(h-1)
        let mut sys = RecurrenceSystem::new();
        // Model the 2^h inhomogeneous part through a lower-stratum bound:
        // b1(h+1) = 2 b1(h) + 1, b1(1) = 1  => b1(h) = 2^(h-1)... use init.
        sys.add_equation(1, b_at_h(1).scale(&rat(2)));
        sys.set_initial(1, rat(1)); // b1(h) = 2^(h-1)
        sys.add_equation(2, &b_at_h(2).scale(&rat(2)) + &b_at_h(1));
        let solved = sys.solve().unwrap();
        let b2 = solved.iter().find(|s| s.index == 2).unwrap();
        // b2: 0, 1, 4, 12, 32 ... = (h-1)·2^(h-2)
        assert_eq!(b2.closed_form.eval_int(2), rat(1));
        assert_eq!(b2.closed_form.eval_int(3), rat(4));
        assert_eq!(b2.closed_form.eval_int(5), rat(32));
        assert!(b2.exact);
        // dominant term h·2^h with degree 1
        assert_eq!(b2.closed_form.dominant_base_abs(), Some(rat(2)));
        assert_eq!(b2.closed_form.dominant_degree(), 1);
        check_against_iteration(&sys, 14);
    }

    #[test]
    fn strassen_like() {
        // b2(h+1) = 7 b2(h) + 4^h ;   4^h modelled by b1(h+1) = 4 b1(h), b1(1)=4
        let mut sys = RecurrenceSystem::new();
        sys.add_equation(1, b_at_h(1).scale(&rat(4)));
        sys.set_initial(1, rat(4));
        sys.add_equation(2, &b_at_h(2).scale(&rat(7)) + &b_at_h(1));
        let solved = sys.solve().unwrap();
        let b2 = solved.iter().find(|s| s.index == 2).unwrap();
        assert_eq!(b2.closed_form.dominant_base_abs(), Some(rat(7)));
        check_against_iteration(&sys, 10);
    }

    #[test]
    fn mutual_recursion_matrix() {
        // Ex. 4.1: [b1; b2](h+1) = [[0,18],[2,0]]·[b1; b2](h) + [17; 1]
        let mut sys = RecurrenceSystem::new();
        sys.add_equation(1, &b_at_h(2).scale(&rat(18)) + &c(17));
        sys.add_equation(2, &b_at_h(1).scale(&rat(2)) + &c(1));
        let solved = sys.solve().unwrap();
        assert_eq!(solved.len(), 2);
        for s in &solved {
            // Eigenvalues ±6: dominant base magnitude 6.
            assert_eq!(
                s.closed_form.dominant_base_abs().map(|b| b.abs()),
                Some(rat(6))
            );
        }
        check_against_iteration(&sys, 10);
    }

    #[test]
    fn fractional_decay() {
        // b(h+1) = b(h)/2 + 1, b(1)=0 => converges to 2: b(h) = 2 - 2^(2-h)
        let mut sys = RecurrenceSystem::new();
        sys.add_equation(1, &b_at_h(1).scale(&ratio(1, 2)) + &c(1));
        let solved = sys.solve().unwrap();
        assert!(solved[0].exact);
        assert_eq!(solved[0].closed_form.eval_int(3), ratio(3, 2));
        check_against_iteration(&sys, 10);
    }

    #[test]
    fn paper_example_3_3_strata() {
        // A two-strata system in the spirit of Ex. 3.3:
        //   x(h+1) = 2 x(h),            x(1) = 1
        //   w(h+1) = w(h) + 13 x(h) + 1, w(1) = 0
        //   y(h+1) = y(h) + x(h)^2 + 1,  y(1) = 0   (non-linear in lower stratum)
        let mut sys = RecurrenceSystem::new();
        sys.add_equation(1, b_at_h(1).scale(&rat(2)));
        sys.set_initial(1, rat(1));
        sys.add_equation(2, &(&b_at_h(2) + &b_at_h(1).scale(&rat(13))) + &c(1));
        sys.add_equation(3, &(&b_at_h(3) + &(&b_at_h(1) * &b_at_h(1))) + &c(1));
        check_against_iteration(&sys, 12);
        let solved = sys.solve().unwrap();
        let y = solved.iter().find(|s| s.index == 3).unwrap();
        // x(h)^2 = 4^(h-1): y grows like 4^h/3.
        assert_eq!(y.closed_form.dominant_base_abs(), Some(rat(4)));
    }

    #[test]
    fn non_stratified_rejected() {
        // b1(h+1) = b1(h)^2 is not C-finite: the solver must reject it.
        let mut sys = RecurrenceSystem::new();
        sys.add_equation(1, &b_at_h(1) * &b_at_h(1));
        assert_eq!(sys.solve(), Err(SolveError::NonStratified(1)));
    }

    #[test]
    fn undefined_bound_rejected() {
        let mut sys = RecurrenceSystem::new();
        sys.add_equation(1, &b_at_h(1) + &b_at_h(9));
        assert_eq!(sys.solve(), Err(SolveError::UndefinedBound(9)));
    }

    #[test]
    fn duplicate_definition_rejected() {
        let mut sys = RecurrenceSystem::new();
        sys.add_equation(1, c(1));
        sys.add_equation(1, c(2));
        assert_eq!(sys.solve(), Err(SolveError::DuplicateDefinition(1)));
    }

    #[test]
    fn irrational_eigenvalues_fall_back_to_majorant() {
        // [[1,2],[1,1]] has eigenvalues 1 ± sqrt(2): not rational.
        let mut sys = RecurrenceSystem::new();
        sys.add_equation(1, &(&b_at_h(1) + &b_at_h(2).scale(&rat(2))) + &c(1));
        sys.add_equation(2, &(&b_at_h(1) + &b_at_h(2)) + &c(1));
        let solved = sys.solve().unwrap();
        assert!(solved.iter().all(|s| !s.exact));
        // Still a sound upper bound.
        check_against_iteration(&sys, 9);
    }

    #[test]
    fn constant_only_recurrence() {
        // b(h+1) = 5 (no self-dependency), b(1) = 0.
        let mut sys = RecurrenceSystem::new();
        sys.add_equation(1, c(5));
        let solved = sys.solve().unwrap();
        check_against_iteration(&sys, 8);
        assert!(solved[0].closed_form.eval_int(4) >= rat(5));
    }

    #[test]
    fn scc_helper_orders_dependencies_first() {
        let nodes = vec![1, 2, 3];
        let mut deps: BTreeMap<usize, BTreeSet<usize>> = BTreeMap::new();
        deps.insert(1, [2].into_iter().collect());
        deps.insert(2, [3].into_iter().collect());
        deps.insert(3, BTreeSet::new());
        let sccs = strongly_connected_components(&nodes, &deps);
        assert_eq!(sccs, vec![vec![3], vec![2], vec![1]]);
    }
}
