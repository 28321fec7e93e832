//! Transition formulas: guarded-DNF relations between pre- and post-states.
//!
//! A [`TransitionFormula`] is a bounded disjunction of [`Polyhedron`]s over
//! the vocabulary `Var ∪ Var' ∪ SymConst`, where `Var` are pre-state program
//! variables, `Var'` their post-state (primed) copies, and `SymConst` rigid
//! symbolic constants such as the hypothetical bounding functions `b_k(h)` of
//! Alg. 2.  This realizes the paper's transition-formula algebra without an
//! external SMT solver: because the DNF is explicit, the lazy model-driven
//! enumeration of Alg. 1 degenerates to a fold of polyhedral joins, which is
//! exactly the output that algorithm computes.

use crate::atom::Atom;
use crate::polyhedron::Polyhedron;
use chora_expr::{Polynomial, Symbol};
use std::collections::BTreeSet;
use std::fmt;

/// Default maximum number of disjuncts kept before eagerly joining.
pub const DEFAULT_DISJUNCT_CAP: usize = 12;

/// A transition formula in guarded disjunctive normal form.
///
/// ```
/// use chora_logic::TransitionFormula;
/// use chora_expr::{Polynomial, Symbol};
/// use chora_numeric::rat;
/// let vars = vec![Symbol::new("x")];
/// // x' = x + 1 ; x' = x + 1   composes to   x' = x + 2
/// let inc = TransitionFormula::assign(
///     &Symbol::new("x"),
///     &(&Polynomial::var(Symbol::new("x")) + &Polynomial::constant(rat(1))),
///     &vars,
/// );
/// let two = inc.sequence(&inc, &vars);
/// let expect = chora_logic::Atom::eq(
///     Polynomial::var(Symbol::post("x")),
///     &Polynomial::var(Symbol::new("x")) + &Polynomial::constant(rat(2)),
/// );
/// assert!(two.implies_atom(&expect));
/// ```
#[derive(Clone, PartialEq, Eq)]
pub struct TransitionFormula {
    disjuncts: Vec<Polyhedron>,
    cap: usize,
}

impl TransitionFormula {
    /// The unsatisfiable transition formula `false` (no behaviours).
    pub fn bottom() -> TransitionFormula {
        TransitionFormula {
            disjuncts: Vec::new(),
            cap: DEFAULT_DISJUNCT_CAP,
        }
    }

    /// The single-disjunct formula `true` — everything (including all primed
    /// variables) is unconstrained, i.e. a havoc of the entire state.
    pub fn top() -> TransitionFormula {
        TransitionFormula::from_polyhedron(Polyhedron::universe())
    }

    /// A formula with a single disjunct.
    pub fn from_polyhedron(p: Polyhedron) -> TransitionFormula {
        TransitionFormula {
            disjuncts: vec![p],
            cap: DEFAULT_DISJUNCT_CAP,
        }
    }

    /// A formula from explicit disjuncts.
    pub fn from_disjuncts(disjuncts: Vec<Polyhedron>) -> TransitionFormula {
        let mut f = TransitionFormula::bottom();
        for d in disjuncts {
            f.push_disjunct(d);
        }
        f
    }

    /// Restores a formula from a previously-observed `(disjuncts(), cap())`
    /// pair **verbatim** — no empty/subsumption filtering and no cap
    /// enforcement is applied, so the result is bit-identical to the
    /// formula the pair was read from.
    ///
    /// This is the summary-cache deserialization constructor: live formulas
    /// reach their final shape through operations that bypass
    /// `push_disjunct` (`conjoin`, `project_onto`, `simplify`, ...), so
    /// re-filtering on restore could drop semantically subsumed disjuncts
    /// the original value still carried and make a warm run diverge from a
    /// cold one.  Only feed this pairs obtained from an actual formula.
    pub fn from_parts(disjuncts: Vec<Polyhedron>, cap: usize) -> TransitionFormula {
        TransitionFormula {
            disjuncts,
            cap: cap.max(1),
        }
    }

    /// The frame equality `v' = v` (with the inline term storage this builds
    /// no heap rows, so stamping frames onto every statement is cheap).
    fn frame_atom(v: &Symbol) -> Atom {
        Atom::eq(Polynomial::var(v.primed()), Polynomial::var(*v))
    }

    /// The identity (skip) transition over the given variables: `v' = v`.
    pub fn identity(vars: &[Symbol]) -> TransitionFormula {
        let atoms = vars.iter().map(Self::frame_atom).collect();
        TransitionFormula::from_polyhedron(Polyhedron::from_atoms(atoms))
    }

    /// Assignment `var := rhs` (rhs over pre-state variables); all other
    /// variables keep their values.
    pub fn assign(var: &Symbol, rhs: &Polynomial, vars: &[Symbol]) -> TransitionFormula {
        let mut atoms = vec![Atom::eq(Polynomial::var(var.primed()), rhs.clone())];
        for v in vars {
            if v != var {
                atoms.push(Self::frame_atom(v));
            }
        }
        TransitionFormula::from_polyhedron(Polyhedron::from_atoms(atoms))
    }

    /// Non-deterministic assignment `var := *`; all other variables keep
    /// their values.
    pub fn havoc(havocked: &[Symbol], vars: &[Symbol]) -> TransitionFormula {
        let atoms = vars
            .iter()
            .filter(|v| !havocked.contains(v))
            .map(Self::frame_atom)
            .collect();
        TransitionFormula::from_polyhedron(Polyhedron::from_atoms(atoms))
    }

    /// `assume(cond)`: the guard atoms hold of the pre-state and the state is
    /// unchanged.
    pub fn assume(guards: Vec<Atom>, vars: &[Symbol]) -> TransitionFormula {
        let mut atoms = guards;
        for v in vars {
            atoms.push(Self::frame_atom(v));
        }
        TransitionFormula::from_polyhedron(Polyhedron::from_atoms(atoms))
    }

    /// Sets the disjunct cap (used when unioning).
    pub fn with_cap(mut self, cap: usize) -> TransitionFormula {
        self.cap = cap.max(1);
        self
    }

    /// The disjuncts.
    pub fn disjuncts(&self) -> &[Polyhedron] {
        &self.disjuncts
    }

    /// The disjunct cap (see [`TransitionFormula::with_cap`]).
    pub fn cap(&self) -> usize {
        self.cap
    }

    /// Whether the formula has no satisfiable disjunct.
    pub fn is_bottom(&self) -> bool {
        self.disjuncts.iter().all(|d| d.is_empty_set())
    }

    /// All symbols mentioned.
    pub fn symbols(&self) -> BTreeSet<Symbol> {
        let mut out = BTreeSet::new();
        for d in &self.disjuncts {
            out.extend(d.symbols());
        }
        out
    }

    fn push_disjunct(&mut self, p: Polyhedron) {
        if p.is_empty_set() {
            return;
        }
        // Skip disjuncts subsumed by an existing one.
        if self.disjuncts.iter().any(|d| p.is_subset_of(d)) {
            return;
        }
        self.disjuncts.push(p);
        if self.disjuncts.len() > self.cap {
            // Join the first two (oldest) disjuncts to stay within the cap.
            let a = self.disjuncts.remove(0);
            let b = self.disjuncts.remove(0);
            let joined = a.join(&b);
            self.disjuncts.insert(0, joined);
        }
    }

    /// Disjunction (choice) of two formulas.
    pub fn union(&self, other: &TransitionFormula) -> TransitionFormula {
        let mut out = self.clone();
        for d in &other.disjuncts {
            out.push_disjunct(d.clone());
        }
        out
    }

    /// Conjoins a polyhedron onto every disjunct.
    pub fn conjoin(&self, p: &Polyhedron) -> TransitionFormula {
        let disjuncts = self
            .disjuncts
            .iter()
            .map(|d| d.conjoin(p))
            .filter(|d| !d.is_empty_set())
            .collect();
        TransitionFormula {
            disjuncts,
            cap: self.cap,
        }
    }

    /// Conjoins a single atom onto every disjunct.
    pub fn conjoin_atom(&self, a: &Atom) -> TransitionFormula {
        self.conjoin(&Polyhedron::from_atoms(vec![a.clone()]))
    }

    /// Relational composition `self ; other` over the given program
    /// variables: `other`'s pre-state is identified with `self`'s post-state
    /// and the intermediate state is projected away.  Symbols not in `vars`
    /// (symbolic constants such as `b_k(h)`) are left untouched.
    pub fn sequence(&self, other: &TransitionFormula, vars: &[Symbol]) -> TransitionFormula {
        let mut out = TransitionFormula::bottom();
        out.cap = self.cap.max(other.cap);
        if self.disjuncts.is_empty() || other.disjuncts.is_empty() {
            return out;
        }
        // Scratch intermediate names, one per variable.  Scratch symbols are
        // operation-local (neither operand can contain one — every polyhedral
        // operation eliminates its scratch symbols before returning), so
        // indexing by variable position is collision-free and deterministic.
        let mids: Vec<(Symbol, Symbol, Symbol)> = vars
            .iter()
            .enumerate()
            .map(|(i, v)| (*v, v.primed(), Symbol::scratch(i as u32)))
            .collect();
        let drop: BTreeSet<Symbol> = mids.iter().map(|(_, _, m)| *m).collect();
        for left in &self.disjuncts {
            let left_renamed = left.rename(&mut |s| {
                for (_, post, mid) in &mids {
                    if s == post {
                        return *mid;
                    }
                }
                *s
            });
            for right in &other.disjuncts {
                let right_renamed = right.rename(&mut |s| {
                    for (pre, _, mid) in &mids {
                        if s == pre {
                            return *mid;
                        }
                    }
                    *s
                });
                let combined = left_renamed.conjoin(&right_renamed);
                if combined.is_empty_set() {
                    continue;
                }
                let projected = combined.eliminate(&drop);
                out.push_disjunct(projected);
            }
        }
        out
    }

    /// Projects every disjunct onto the given symbols (dropping constraints
    /// that mention anything else).
    pub fn project_onto(&self, keep: &BTreeSet<Symbol>) -> TransitionFormula {
        let disjuncts = self
            .disjuncts
            .iter()
            .map(|d| d.project_onto(keep))
            .collect();
        TransitionFormula {
            disjuncts,
            cap: self.cap,
        }
    }

    /// Eliminates the given symbols from every disjunct.
    pub fn eliminate(&self, drop: &BTreeSet<Symbol>) -> TransitionFormula {
        let disjuncts = self.disjuncts.iter().map(|d| d.eliminate(drop)).collect();
        TransitionFormula {
            disjuncts,
            cap: self.cap,
        }
    }

    /// `Abstract(φ, V)` (Alg. 1 / [25, Alg. 3]): the convex hull of the
    /// formula projected onto the symbols `keep`, returned as a single
    /// conjunction of polynomial inequations.
    pub fn abstract_hull(&self, keep: &BTreeSet<Symbol>) -> Polyhedron {
        let mut result: Option<Polyhedron> = None;
        for d in &self.disjuncts {
            if d.is_empty_set() {
                continue;
            }
            let projected = d.project_onto(keep);
            result = Some(match result {
                None => projected,
                Some(acc) => acc.join(&projected),
            });
        }
        result.unwrap_or_else(Polyhedron::contradiction)
    }

    /// Whether every behaviour of the formula satisfies the atom.
    pub fn implies_atom(&self, atom: &Atom) -> bool {
        self.disjuncts.iter().all(|d| d.implies_atom(atom))
    }

    /// Renames symbols throughout.
    pub fn rename(&self, f: &mut impl FnMut(&Symbol) -> Symbol) -> TransitionFormula {
        TransitionFormula {
            disjuncts: self.disjuncts.iter().map(|d| d.rename(f)).collect(),
            cap: self.cap,
        }
    }

    /// Substitutes a polynomial for a symbol throughout.
    pub fn substitute(&self, s: &Symbol, replacement: &Polynomial) -> TransitionFormula {
        TransitionFormula {
            disjuncts: self
                .disjuncts
                .iter()
                .map(|d| d.substitute(s, replacement))
                .collect(),
            cap: self.cap,
        }
    }

    /// Drops unsatisfiable disjuncts and simplifies the rest.
    pub fn simplify(&self) -> TransitionFormula {
        let disjuncts = self
            .disjuncts
            .iter()
            .filter(|d| !d.is_empty_set())
            .map(|d| d.simplify())
            .collect();
        TransitionFormula {
            disjuncts,
            cap: self.cap,
        }
    }
}

impl fmt::Display for TransitionFormula {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.disjuncts.is_empty() {
            return write!(f, "false");
        }
        for (i, d) in self.disjuncts.iter().enumerate() {
            if i > 0 {
                write!(f, "  ∨  ")?;
            }
            write!(f, "({d})")?;
        }
        Ok(())
    }
}

impl fmt::Debug for TransitionFormula {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chora_numeric::rat;

    fn x() -> Symbol {
        Symbol::new("x")
    }
    fn y() -> Symbol {
        Symbol::new("y")
    }
    fn pvar(s: &Symbol) -> Polynomial {
        Polynomial::var(*s)
    }
    fn c(v: i64) -> Polynomial {
        Polynomial::constant(rat(v))
    }

    #[test]
    fn identity_and_assign_compose() {
        let vars = vec![x(), y()];
        let skip = TransitionFormula::identity(&vars);
        let inc = TransitionFormula::assign(&x(), &(&pvar(&x()) + &c(1)), &vars);
        let seq = skip.sequence(&inc, &vars);
        assert!(seq.implies_atom(&Atom::eq(pvar(&x().primed()), &pvar(&x()) + &c(1))));
        assert!(seq.implies_atom(&Atom::eq(pvar(&y().primed()), pvar(&y()))));
    }

    #[test]
    fn composition_accumulates() {
        let vars = vec![x()];
        let inc = TransitionFormula::assign(&x(), &(&pvar(&x()) + &c(1)), &vars);
        let mut acc = TransitionFormula::identity(&vars);
        for _ in 0..5 {
            acc = acc.sequence(&inc, &vars);
        }
        assert!(acc.implies_atom(&Atom::eq(pvar(&x().primed()), &pvar(&x()) + &c(5))));
    }

    #[test]
    fn havoc_forgets() {
        let vars = vec![x(), y()];
        let h = TransitionFormula::havoc(&[x()], &vars);
        assert!(!h.implies_atom(&Atom::eq(pvar(&x().primed()), pvar(&x()))));
        assert!(h.implies_atom(&Atom::eq(pvar(&y().primed()), pvar(&y()))));
    }

    #[test]
    fn assume_guards_filter_behaviours() {
        let vars = vec![x()];
        // assume(x >= 3); then x := x - 1   implies x' >= 2
        let guard = TransitionFormula::assume(vec![Atom::ge(pvar(&x()), c(3))], &vars);
        let dec = TransitionFormula::assign(&x(), &(&pvar(&x()) - &c(1)), &vars);
        let seq = guard.sequence(&dec, &vars);
        assert!(seq.implies_atom(&Atom::ge(pvar(&x().primed()), c(2))));
        assert!(!seq.implies_atom(&Atom::ge(pvar(&x().primed()), c(3))));
    }

    #[test]
    fn union_keeps_both_behaviours() {
        let vars = vec![x()];
        let set1 = TransitionFormula::assign(&x(), &c(1), &vars);
        let set2 = TransitionFormula::assign(&x(), &c(5), &vars);
        let either = set1.union(&set2);
        assert_eq!(either.disjuncts().len(), 2);
        assert!(!either.implies_atom(&Atom::eq(pvar(&x().primed()), c(1))));
        assert!(either.implies_atom(&Atom::ge(pvar(&x().primed()), c(1))));
        assert!(either.implies_atom(&Atom::le(pvar(&x().primed()), c(5))));
    }

    #[test]
    fn union_respects_cap_soundly() {
        let vars = vec![x()];
        let mut f = TransitionFormula::bottom().with_cap(3);
        for i in 0..8 {
            f = f.union(&TransitionFormula::assign(&x(), &c(i), &vars));
        }
        assert!(f.disjuncts().len() <= 3);
        // Hull still bounds the range soundly.
        assert!(f.implies_atom(&Atom::ge(pvar(&x().primed()), c(0))));
        assert!(f.implies_atom(&Atom::le(pvar(&x().primed()), c(7))));
    }

    #[test]
    fn bottom_behaviour() {
        let vars = vec![x()];
        let inc = TransitionFormula::assign(&x(), &(&pvar(&x()) + &c(1)), &vars);
        let bot = TransitionFormula::bottom();
        assert!(bot.is_bottom());
        assert!(bot.sequence(&inc, &vars).is_bottom());
        assert!(inc.sequence(&bot, &vars).is_bottom());
        assert_eq!(bot.union(&inc).disjuncts().len(), 1);
        // bottom implies anything
        assert!(bot.implies_atom(&Atom::eq(pvar(&x()), c(42))));
    }

    #[test]
    fn subsumed_disjuncts_are_dropped() {
        let vars = vec![x()];
        let narrow = TransitionFormula::assume(vec![Atom::eq(pvar(&x()), c(2))], &vars);
        let wide = TransitionFormula::assume(
            vec![Atom::ge(pvar(&x()), c(0)), Atom::le(pvar(&x()), c(5))],
            &vars,
        );
        let u = wide.union(&narrow);
        assert_eq!(u.disjuncts().len(), 1);
    }

    #[test]
    fn abstract_hull_over_branches() {
        // Two branches: x' = x + 1 and x' = x + 3; the hull over {x, x'}
        // should contain x + 1 <= x' <= x + 3.
        let vars = vec![x()];
        let b1 = TransitionFormula::assign(&x(), &(&pvar(&x()) + &c(1)), &vars);
        let b2 = TransitionFormula::assign(&x(), &(&pvar(&x()) + &c(3)), &vars);
        let both = b1.union(&b2);
        let keep: BTreeSet<Symbol> = [x(), x().primed()].into_iter().collect();
        let hull = both.abstract_hull(&keep);
        assert!(hull.implies_atom(&Atom::ge(pvar(&x().primed()), &pvar(&x()) + &c(1))));
        assert!(hull.implies_atom(&Atom::le(pvar(&x().primed()), &pvar(&x()) + &c(3))));
    }

    #[test]
    fn sequence_preserves_rigid_symbols() {
        // A symbolic constant (not in vars) must not be renamed or projected.
        let vars = vec![x()];
        let b = Symbol::bound_at_h(1);
        let call = TransitionFormula::from_polyhedron(Polyhedron::from_atoms(vec![Atom::le(
            pvar(&x().primed()),
            &pvar(&x()) + &pvar(&b),
        )]));
        let inc = TransitionFormula::assign(&x(), &(&pvar(&x()) + &c(1)), &vars);
        let seq = inc.sequence(&call, &vars);
        // x' <= x + 1 + b1(h)
        let expect = Atom::le(pvar(&x().primed()), &(&pvar(&x()) + &c(1)) + &pvar(&b));
        assert!(seq.implies_atom(&expect));
        assert!(seq.symbols().contains(&b));
    }

    #[test]
    fn project_and_eliminate() {
        let vars = vec![x(), y()];
        let f = TransitionFormula::assign(&x(), &(&pvar(&y()) + &c(2)), &vars);
        let keep: BTreeSet<Symbol> = [y(), x().primed()].into_iter().collect();
        let proj = f.project_onto(&keep);
        assert!(proj.implies_atom(&Atom::eq(pvar(&x().primed()), &pvar(&y()) + &c(2))));
        let drop: BTreeSet<Symbol> = [y()].into_iter().collect();
        let elim = f.eliminate(&drop);
        assert!(!elim.symbols().contains(&y()));
    }

    #[test]
    fn substitute_symbolic_constant() {
        let b = Symbol::bound_at_h(1);
        let f = TransitionFormula::from_polyhedron(Polyhedron::from_atoms(vec![Atom::le(
            pvar(&x().primed()),
            pvar(&b),
        )]));
        let g = f.substitute(&b, &c(7));
        assert!(g.implies_atom(&Atom::le(pvar(&x().primed()), c(7))));
    }

    #[test]
    fn display_formats() {
        assert_eq!(TransitionFormula::bottom().to_string(), "false");
        let vars = vec![x()];
        let f = TransitionFormula::identity(&vars);
        assert!(f.to_string().contains("x'"));
    }
}
