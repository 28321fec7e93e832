//! Conjunctions of polynomial constraints, viewed as convex polyhedra over a
//! linearized dimension space.
//!
//! Following [25, Alg. 3] (and §3 of the CHORA paper), non-linear monomials
//! are treated as *additional dimensions*: the quadratic atom `x² − y ≤ 0`
//! becomes the linear atom `d_{x²} − y ≤ 0` over the dimension `d_{x²}`.
//! All domain operations — satisfiability, Fourier–Motzkin projection,
//! convex-hull join (Balas' extended formulation), entailment — are carried
//! out on the linearized view and mapped back to polynomial atoms.

use crate::atom::{Atom, AtomKind};
use crate::memo;
use crate::stats::{fm_stat, FmStats};
use crate::witness;
use chora_expr::{Fingerprint, FingerprintBuilder, LinearExpr, Monomial, Polynomial, Symbol};
use chora_numeric::{BigInt, BigRational, Sign};
use std::cmp::Ordering;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::fmt;
use std::hash::{BuildHasherDefault, Hash, Hasher};

/// Safety valve of every Fourier–Motzkin pass, hull joins included: a
/// pos×neg step whose combinations, with the rows it leaves alone, could
/// exceed this many rows drops every row that mentions its dimension
/// instead — a sound but less precise result (see [`eliminate_rows`]).  No
/// step grows a system past the budget, so [`Polyhedron::join`] falls back
/// to the weak join only when its Balas system alone is larger.  On one
/// jobs-1 pass over the paper's suites the budget drops rows 24 times, all
/// inside hull eliminations (16 on ackermann, 8 on Ackermann01), and no
/// join falls back; `chora_logic::stats` counts the drops as
/// `budget_drops`.
const FM_CONSTRAINT_BUDGET: usize = 600;

/// A conjunction of polynomial constraint [`Atom`]s.
///
/// ```
/// use chora_logic::{Atom, Polyhedron};
/// use chora_expr::{Polynomial, Symbol};
/// use chora_numeric::rat;
/// let x = Polynomial::var(Symbol::new("x"));
/// let p = Polyhedron::from_atoms(vec![
///     Atom::ge(x.clone(), Polynomial::constant(rat(0))),
///     Atom::le(x.clone(), Polynomial::constant(rat(5))),
/// ]);
/// assert!(!p.is_empty_set());
/// assert!(p.implies_atom(&Atom::le(x, Polynomial::constant(rat(7)))));
/// ```
#[derive(Clone, PartialEq, Eq)]
pub struct Polyhedron {
    atoms: Vec<Atom>,
}

impl Polyhedron {
    /// The universal polyhedron (no constraints).
    pub fn universe() -> Polyhedron {
        Polyhedron { atoms: Vec::new() }
    }

    /// A polyhedron from a list of constraint atoms.
    pub fn from_atoms(atoms: Vec<Atom>) -> Polyhedron {
        let mut p = Polyhedron::universe();
        for a in atoms {
            p.add_atom(a);
        }
        p
    }

    /// A polyhedron of exactly these atoms, **verbatim** — no dedup,
    /// trivial-truth filtering or canonicalization — for lists that already
    /// are in the form [`Polyhedron::from_atoms`] would give them.  It
    /// restores a previously observed `atoms()` list bit-identically (the
    /// summary-cache deserialization constructor; see
    /// [`crate::TransitionFormula::from_parts`]), and turns the rows a
    /// projection or hull leaves back into atoms.
    pub fn from_parts(atoms: Vec<Atom>) -> Polyhedron {
        Polyhedron { atoms }
    }

    /// An explicitly unsatisfiable polyhedron.
    pub fn contradiction() -> Polyhedron {
        Polyhedron::from_atoms(vec![Atom::le_zero(Polynomial::one())])
    }

    /// Adds a constraint (drops trivially true constraints).  The atom is
    /// stored in its canonical scaling form ([`Atom::canonical`]), so two
    /// constraints that differ only by a positive scalar multiple dedup here
    /// instead of surviving as distinct atoms.
    pub fn add_atom(&mut self, atom: Atom) {
        if atom.trivial_truth() == Some(true) {
            return;
        }
        let atom = atom.into_canonical();
        if !self.atoms.contains(&atom) {
            self.atoms.push(atom);
        }
    }

    /// The constraint atoms.
    pub fn atoms(&self) -> &[Atom] {
        &self.atoms
    }

    /// Number of constraints.
    pub fn len(&self) -> usize {
        self.atoms.len()
    }

    /// Whether there are no constraints (the universal polyhedron).
    pub fn is_empty(&self) -> bool {
        self.atoms.is_empty()
    }

    /// All symbols mentioned.
    pub fn symbols(&self) -> BTreeSet<Symbol> {
        let mut out = BTreeSet::new();
        for a in &self.atoms {
            out.extend(a.symbols());
        }
        out
    }

    /// Conjunction of two polyhedra.
    pub fn conjoin(&self, other: &Polyhedron) -> Polyhedron {
        let mut out = self.clone();
        for a in &other.atoms {
            out.add_atom(a.clone());
        }
        out
    }

    /// Renames symbols throughout.
    pub fn rename(&self, f: &mut impl FnMut(&Symbol) -> Symbol) -> Polyhedron {
        Polyhedron {
            atoms: self.atoms.iter().map(|a| a.rename(f)).collect(),
        }
    }

    /// Substitutes a polynomial for a symbol throughout.
    pub fn substitute(&self, s: &Symbol, replacement: &Polynomial) -> Polyhedron {
        Polyhedron::from_atoms(
            self.atoms
                .iter()
                .map(|a| a.substitute(s, replacement))
                .collect(),
        )
    }

    /// Whether the polyhedron is unsatisfiable over the rationals.
    ///
    /// Answered from the thread's open memo ([`crate::EmptinessMemo`]) when
    /// the same atom list was decided before in the run.  Otherwise a
    /// simplex search for a point satisfying the linearized rows answers
    /// "non-empty" when it finds one, and Fourier–Motzkin elimination of
    /// every dimension decides the rest; a witness never contradicts the
    /// elimination, so the answer is the elimination's own (see
    /// `witness.rs`).
    pub fn is_empty_set(&self) -> bool {
        memo::decide_empty(
            || emptiness_key(&self.atoms, None),
            || match Linearized::new(&self.atoms) {
                None => true,
                Some(sys) if witness::has_witness(sys.constraints()) => {
                    fm_stat!(EMPTINESS_WITNESSES);
                    false
                }
                Some(sys) => sys.is_unsat(),
            },
        )
    }

    /// Whether every point of the polyhedron satisfies the atom.
    pub fn implies_atom(&self, atom: &Atom) -> bool {
        if atom.trivial_truth() == Some(true) {
            return true;
        }
        // P ⊨ a  iff  P ∧ ¬a is unsatisfiable, for every disjunct of ¬a.
        // Each check is the emptiness of the list `atoms ++ [¬a]`, keyed
        // without building it, so a memo hit clones nothing.
        atom.negate().iter().all(|neg| {
            memo::decide_empty(
                || emptiness_key(&self.atoms, Some(neg)),
                || {
                    let mut with_neg = self.atoms.clone();
                    with_neg.push(neg.clone());
                    atoms_unsat(&with_neg)
                },
            )
        })
    }

    /// Whether this polyhedron is contained in `other`.
    pub fn is_subset_of(&self, other: &Polyhedron) -> bool {
        other.atoms.iter().all(|a| self.implies_atom(a))
    }

    /// Whether every point of the polyhedron satisfies *all* of the atoms —
    /// a batched `goals.iter().all(|a| self.implies_atom(a))`: the
    /// polyhedron is linearized once and the dimensions that no goal
    /// mentions are eliminated by a single shared Fourier–Motzkin pass,
    /// after which each goal is checked against the much smaller residual
    /// system (one FM run per atom over the full system was the dominant
    /// cost of assertion checking on conjunction-heavy assertions).
    ///
    /// In the exact (budget-free) case the batched check decides the same
    /// linear relaxation as the per-atom checks.  When an elimination falls
    /// back to the `FM_CONSTRAINT_BUDGET` over-approximation, the shared
    /// pass may drop constraints the per-atom order would have kept, so any
    /// goal the residual system cannot prove is re-checked individually
    /// before being reported unprovable — the batched result is therefore
    /// never less precise than the per-atom one.
    ///
    /// The emptiness decisions on atom lists (ground-false goals and the
    /// per-atom re-checks) go through the memo ([`crate::EmptinessMemo`]);
    /// the residual checks decide a projected linear system and always run.
    pub fn implies_all(&self, goals: &[Atom]) -> bool {
        let mut pending: Vec<&Atom> = Vec::new();
        for g in goals {
            match g.trivial_truth() {
                Some(true) => continue,
                // A ground-false goal is implied only by an empty polyhedron.
                Some(false) => {
                    if !self.is_empty_set() {
                        return false;
                    }
                }
                None => pending.push(g),
            }
        }
        if pending.is_empty() {
            return true;
        }
        // A dimension table covering the polyhedron and every goal, so both
        // sides agree on the symbol of each non-linear monomial.
        let table = Linearized::dim_table(self.atoms.iter().chain(pending.iter().copied()));
        let Some(sys) = Linearized::new_with_dims(&self.atoms, table.clone()) else {
            return true; // unsatisfiable implies everything
        };
        // Linear-space symbols (base symbols and dimension symbols) the goals
        // mention; everything else is projected away once, up front.
        let mut goal_syms: BTreeSet<Symbol> = BTreeSet::new();
        for g in &pending {
            for (m, _) in g.poly.terms() {
                if m.is_one() {
                    continue;
                }
                if m.degree() == 1 {
                    let (s, _) = m.powers().next().expect("degree-1 monomial has a symbol");
                    goal_syms.insert(*s);
                } else {
                    goal_syms.insert(table[m]);
                }
            }
        }
        let mut reduced = sys;
        let drop_dims: Vec<Symbol> = reduced
            .dims()
            .into_iter()
            .filter(|d| !goal_syms.contains(d))
            .collect();
        reduced.project(&drop_dims, None);
        if reduced.unsat {
            return true;
        }
        for g in pending {
            let implied = g.negate().iter().all(|neg| {
                let Some(neg_sys) =
                    Linearized::new_with_dims(std::slice::from_ref(neg), table.clone())
                else {
                    return true; // ¬g ground-false: g trivially holds
                };
                let mut constraints = reduced.constraints.clone();
                constraints.extend(neg_sys.constraints.iter().cloned());
                reduced.with_constraints(constraints, &neg_sys).is_unsat()
            });
            if !implied && !self.implies_atom(g) {
                return false;
            }
        }
        true
    }

    /// Projects onto the given symbols: the result mentions only symbols in
    /// `keep` (non-linear monomials are kept only if all their factors are
    /// kept) and over-approximates the original polyhedron.
    pub fn project_onto(&self, keep: &BTreeSet<Symbol>) -> Polyhedron {
        let _span = chora_telemetry::trace::span("fm", "fm_project");
        let pre = self.substitute_defined_symbols(|s| !keep.contains(s));
        match Linearized::new(&pre.atoms) {
            None => Polyhedron::contradiction(),
            Some(sys) => sys
                .project_keeping(|base_syms| base_syms.iter().all(|s| keep.contains(s)))
                .to_polyhedron(),
        }
    }

    /// Eliminates the given symbols (existential quantification), keeping
    /// everything else.
    pub fn eliminate(&self, drop: &BTreeSet<Symbol>) -> Polyhedron {
        let _span = chora_telemetry::trace::span("fm", "fm_eliminate");
        let pre = self.substitute_defined_symbols(|s| drop.contains(s));
        match Linearized::new(&pre.atoms) {
            None => Polyhedron::contradiction(),
            Some(sys) => sys
                .project_keeping(|base_syms| !base_syms.iter().any(|s| drop.contains(s)))
                .to_polyhedron(),
        }
    }

    /// Pre-pass used by projection: a symbol scheduled for elimination that
    /// is *defined* by a linear equality (`x = p`, `x` not in `p`) is
    /// substituted away at the polynomial level.  Unlike Fourier–Motzkin on
    /// the linearized view, substitution also reaches occurrences of the
    /// symbol inside non-linear monomials, so relations such as `i·b ≤ c`
    /// survive the elimination of `i` when `i` is fixed by an equality.
    fn substitute_defined_symbols(&self, should_eliminate: impl Fn(&Symbol) -> bool) -> Polyhedron {
        let mut atoms = self.atoms.clone();
        loop {
            let mut substitution: Option<(usize, Symbol, Polynomial)> = None;
            'search: for (i, a) in atoms.iter().enumerate() {
                if a.kind != AtomKind::Eq {
                    continue;
                }
                for s in a.symbols() {
                    if !should_eliminate(&s) {
                        continue;
                    }
                    // Needs a linear occurrence: coefficient of the monomial
                    // `s` with `s` absent from every other monomial non-linearly.
                    let m = chora_expr::Monomial::var(s);
                    let coeff = a.poly.coefficient(&m);
                    if coeff.is_zero() {
                        continue;
                    }
                    let rest = &a.poly - &Polynomial::term(coeff.clone(), m);
                    if rest.symbols().contains(&s) {
                        continue;
                    }
                    let replacement = rest.scale(&(-coeff).recip());
                    substitution = Some((i, s, replacement));
                    break 'search;
                }
            }
            match substitution {
                None => break,
                Some((i, s, replacement)) => {
                    atoms.remove(i);
                    // Atoms without `s` would come out of the rewrite
                    // unchanged; only the ones that mention it are rebuilt.
                    for a in &mut atoms {
                        if a.poly.degree_in(&s) > 0 {
                            *a = a.substitute(&s, &replacement);
                        }
                    }
                }
            }
        }
        Polyhedron::from_atoms(atoms)
    }

    /// Convex-hull join (the ⊔ of Alg. 1).
    ///
    /// Uses Balas' extended formulation projected by Fourier–Motzkin.  As in
    /// every projection, a step that would exceed the constraint budget
    /// drops the rows of its dimension, so the hull may be weaker than the
    /// exact one.  The join falls back to the sound *weak join* (mutually
    /// implied constraints) only when the operands span more than 24
    /// dimensions or the Balas system alone has more rows than the budget
    /// (`FM_CONSTRAINT_BUDGET`, 600).
    pub fn join(&self, other: &Polyhedron) -> Polyhedron {
        if self.is_empty_set() {
            return other.clone();
        }
        if other.is_empty_set() {
            return self.clone();
        }
        if let Some(hull) = self.try_exact_join(other) {
            return hull;
        }
        self.weak_join(other)
    }

    fn try_exact_join(&self, other: &Polyhedron) -> Option<Polyhedron> {
        // Both operands must agree on the dimension symbol of every shared
        // non-linear monomial, so a joint dimension table is built up front.
        let dim_table = Linearized::dim_table(self.atoms.iter().chain(other.atoms.iter()));
        let left = Linearized::new_with_dims(&self.atoms, dim_table.clone())?;
        let right = Linearized::new_with_dims(&other.atoms, dim_table)?;
        // Collect the union of dimensions.
        let mut dims: BTreeSet<Symbol> = BTreeSet::new();
        dims.extend(left.dims());
        dims.extend(right.dims());
        if dims.len() > 24 {
            return None;
        }
        // Operation-local scratch symbols: `λ` and one copy `z_d` per
        // dimension, all eliminated before this function returns.  Scratch
        // ids are assigned in dimension order, so the construction is fully
        // deterministic (the former implementation drew from the global
        // fresh-symbol counter).
        let lambda = Symbol::scratch(0);
        let mut z_names: BTreeMap<Symbol, Symbol> = BTreeMap::new();
        for (i, d) in dims.iter().enumerate() {
            z_names.insert(*d, Symbol::scratch(1 + i as u32));
        }
        let mut constraints: Vec<(LinearExpr, AtomKind)> = Vec::new();
        // P1 constraints on y = x - z, scaled by λ:  Σ aᵢ(xᵢ - zᵢ) + c·λ ◇ 0
        for (expr, kind) in left.constraints() {
            let mut e = LinearExpr::constant(BigRational::zero());
            for (s, c) in expr.coefficients() {
                e.add_coefficient(*s, c.clone());
                e.add_coefficient(z_names[s], -c.clone());
            }
            e.add_coefficient(lambda, expr.constant_term().clone());
            constraints.push((e, *kind));
        }
        // P2 constraints on z, scaled by (1-λ):  Σ bᵢ zᵢ + c·(1-λ) ◇ 0
        for (expr, kind) in right.constraints() {
            let mut e = LinearExpr::constant(expr.constant_term().clone());
            for (s, c) in expr.coefficients() {
                e.add_coefficient(z_names[s], c.clone());
            }
            e.add_coefficient(lambda, -expr.constant_term().clone());
            constraints.push((e, *kind));
        }
        // 0 ≤ λ ≤ 1
        constraints.push((
            LinearExpr::var(lambda).scale(&-BigRational::one()),
            AtomKind::Le,
        ));
        constraints.push((
            LinearExpr::var(lambda) + LinearExpr::constant(-BigRational::one()),
            AtomKind::Le,
        ));
        // Eliminate z's and λ; abort to the weak join if the system is over
        // the budget after a step, which only a Balas system larger than the
        // budget can be (a step drops rows rather than outgrow it).
        let mut to_drop: Vec<Symbol> = z_names.values().cloned().collect();
        to_drop.push(lambda);
        let mut sys = left.with_constraints(constraints, &right);
        if !sys.project(&to_drop, Some(FM_CONSTRAINT_BUDGET)) {
            return None;
        }
        Some(sys.to_polyhedron())
    }

    /// Weak join: constraints of either operand that are implied by the other.
    pub fn weak_join(&self, other: &Polyhedron) -> Polyhedron {
        let mut out = Polyhedron::universe();
        for a in &self.atoms {
            if other.implies_atom(a) {
                out.add_atom(a.clone());
            } else if a.kind == AtomKind::Eq {
                // An equality may weaken to a one-sided inequality.
                let le = Atom::le_zero(a.poly.clone());
                let ge = Atom::le_zero(-&a.poly);
                if other.implies_atom(&le) {
                    out.add_atom(le);
                }
                if other.implies_atom(&ge) {
                    out.add_atom(ge);
                }
            }
        }
        for a in &other.atoms {
            if self.implies_atom(a) {
                out.add_atom(a.clone());
            } else if a.kind == AtomKind::Eq {
                let le = Atom::le_zero(a.poly.clone());
                let ge = Atom::le_zero(-&a.poly);
                if self.implies_atom(&le) {
                    out.add_atom(le);
                }
                if self.implies_atom(&ge) {
                    out.add_atom(ge);
                }
            }
        }
        out
    }

    /// All upper bounds the polyhedron places on the symbol `s`
    /// (constraints of the form `s ≤ p` with `s` not occurring in `p`).
    pub fn upper_bounds_on(&self, s: &Symbol) -> Vec<Polynomial> {
        let mut out = Vec::new();
        for a in &self.atoms {
            match a.kind {
                AtomKind::Le | AtomKind::Lt => {
                    if let Some(b) = a.upper_bound_on(s) {
                        out.push(b);
                    }
                }
                AtomKind::Eq => {
                    if let Some(b) = Atom::le_zero(a.poly.clone()).upper_bound_on(s) {
                        out.push(b);
                    } else if let Some(b) = Atom::le_zero(-&a.poly).upper_bound_on(s) {
                        out.push(b);
                    }
                }
            }
        }
        out
    }

    /// Normalizes the constraint list: removes duplicates, trivially-true
    /// atoms, and inequalities subsumed by a tighter parallel inequality.
    pub fn simplify(&self) -> Polyhedron {
        match Linearized::new(&self.atoms) {
            None => Polyhedron::contradiction(),
            Some(sys) => sys.to_polyhedron(),
        }
    }

    /// The pre-optimization projection baseline: fixed elimination order, no
    /// canonical-row hashing, no domination pruning, no Imbert acceleration.
    /// Kept as the differential-testing oracle and the benchmark baseline;
    /// not part of the public API.
    #[doc(hidden)]
    pub fn project_onto_naive(&self, keep: &BTreeSet<Symbol>) -> Polyhedron {
        let pre = self.substitute_defined_symbols(|s| !keep.contains(s));
        match Linearized::new(&pre.atoms) {
            None => Polyhedron::contradiction(),
            Some(sys) => sys
                .naive_project(|base_syms| base_syms.iter().all(|s| keep.contains(s)))
                .to_polyhedron(),
        }
    }

    /// Baseline satisfiability via fixed-order elimination (see
    /// [`Polyhedron::project_onto_naive`]).
    #[doc(hidden)]
    pub fn is_empty_set_naive(&self) -> bool {
        match Linearized::new(&self.atoms) {
            None => true,
            Some(sys) => sys.naive_is_unsat(),
        }
    }

    /// Baseline entailment via [`Polyhedron::is_empty_set_naive`].
    #[doc(hidden)]
    pub fn implies_atom_naive(&self, atom: &Atom) -> bool {
        if atom.trivial_truth() == Some(true) {
            return true;
        }
        atom.negate().iter().all(|neg| {
            let mut with_neg = self.clone();
            with_neg.atoms.push(neg.clone());
            with_neg.is_empty_set_naive()
        })
    }
}

/// The memo key of the atom list `atoms ++ extra`: the derived `Hash` of
/// that `[Atom]` (length prefix, then each atom) fed to FNV-1a-128,
/// computed without materializing the list.
fn emptiness_key(atoms: &[Atom], extra: Option<&Atom>) -> Fingerprint {
    let mut h = FingerprintBuilder::new();
    (atoms.len() + usize::from(extra.is_some())).hash(&mut h);
    for a in atoms.iter().chain(extra) {
        a.hash(&mut h);
    }
    h.finish()
}

/// Satisfiability of an atom list by full Fourier–Motzkin elimination.
fn atoms_unsat(atoms: &[Atom]) -> bool {
    match Linearized::new(atoms) {
        None => true,
        Some(sys) => sys.is_unsat(),
    }
}

impl fmt::Display for Polyhedron {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.atoms.is_empty() {
            return write!(f, "true");
        }
        for (i, a) in self.atoms.iter().enumerate() {
            if i > 0 {
                write!(f, " ∧ ")?;
            }
            write!(f, "{a}")?;
        }
        Ok(())
    }
}

impl fmt::Debug for Polyhedron {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self}")
    }
}

/// A linearized constraint system: polynomial atoms become linear constraints
/// over base symbols plus one dimension symbol per non-linear monomial.
///
/// Dimension symbols are *operation-local*: every entry point collects the
/// non-linear monomials of its input atoms and assigns [`Symbol::dimension`]
/// ids in monomial order, so the mapping is a deterministic function of the
/// inputs (the former implementation interned a rendered `$dim[m]` name per
/// monomial, paying a string allocation and a global interner lookup per
/// non-linear term).
struct Linearized {
    /// dimension symbol -> the non-linear monomial it represents
    mono_dims: BTreeMap<Symbol, Monomial>,
    /// the non-linear monomial -> its dimension symbol
    dim_of: BTreeMap<Monomial, Symbol>,
    /// linear constraints `expr ◇ 0`
    constraints: Vec<(LinearExpr, AtomKind)>,
    /// marker set when a trivially-false constraint is encountered
    unsat: bool,
}

/// Reusable buffers for [`Linearized::naive_eliminate_dim`], the
/// fixed-order oracle (the production engine is [`Linearized::project`]).
///
/// One scratch lives for a whole naive elimination pass (`naive_project` or
/// `naive_is_unsat`), so the pos/neg partition and the output row list keep
/// their allocations across dimensions instead of being rebuilt per
/// dimension.  The third tuple field is the (positive) coefficient the
/// combination step multiplies the opposite row by; the rows themselves are
/// stored with the eliminated dimension already stripped.
#[derive(Default)]
struct FmScratch {
    pos: Vec<(LinearExpr, AtomKind, BigRational)>,
    neg: Vec<(LinearExpr, AtomKind, BigRational)>,
    out: Vec<(LinearExpr, AtomKind)>,
}

/// Imbert ancestor set of a derived row: which of the pass's input rows it
/// is a nonnegative combination of.  Exact for the first 128 input rows;
/// beyond that `overflow` makes [`Ancestors::at_least`] a lower bound, which
/// only ever *weakens* the pruning (a combination is skipped only when even
/// the known part of its history already exceeds Imbert's bound).
#[derive(Clone, Copy, Default)]
struct Ancestors {
    bits: u128,
    overflow: bool,
}

impl Ancestors {
    fn origin(i: usize) -> Ancestors {
        if i < 128 {
            Ancestors {
                bits: 1u128 << i,
                overflow: false,
            }
        } else {
            Ancestors {
                bits: 0,
                overflow: true,
            }
        }
    }

    fn union(a: Ancestors, b: Ancestors) -> Ancestors {
        Ancestors {
            bits: a.bits | b.bits,
            overflow: a.overflow || b.overflow,
        }
    }

    /// A lower bound on the cardinality of the ancestor set.
    fn at_least(self) -> usize {
        self.bits.count_ones() as usize + self.overflow as usize
    }
}

/// Certified `a ⊆ b`: both sets must be exact, because an overflowed side
/// hides members the bit view cannot compare.  This is the test the
/// slot-collision rules use — Kohler completeness composes through row
/// replacement only when the survivor's ancestor *set* is contained in the
/// dying row's (`|A ∪ C| ≤ |A' ∪ C|` needs `A ⊆ A'`; a mere cardinality
/// comparison does not survive the union with a sibling's history).
fn anc_subset(a: Ancestors, b: Ancestors) -> bool {
    !a.overflow && !b.overflow && a.bits & !b.bits == 0
}

/// The set of dimensions a derived row has lost along its derivation —
/// eliminated explicitly by the pass *or* cancelled accidentally by a
/// combination step.  Kohler's redundancy criterion compares the ancestor
/// count against `1 + |gone|` **per row**; the explicit elimination count
/// alone under-states `|gone|` whenever a cancellation happens, which is why
/// this is tracked exactly.  The direction of safety is the opposite of
/// [`Ancestors`]: `overflow` here means the count is *unknown*, so the
/// pruning test must be declined rather than approximated.
#[derive(Clone, Copy, Default)]
struct GoneDims {
    bits: u128,
    overflow: bool,
}

impl GoneDims {
    fn union(a: GoneDims, b: GoneDims) -> GoneDims {
        GoneDims {
            bits: a.bits | b.bits,
            overflow: a.overflow || b.overflow,
        }
    }

    /// Marks one dimension (by its pass-wide bit index) as gone; `None`
    /// (a dimension past the 128-bit window) poisons the set.
    fn insert(&mut self, bit: Option<usize>) {
        match bit {
            Some(i) if i < 128 => self.bits |= 1u128 << i,
            _ => self.overflow = true,
        }
    }

    /// The exact cardinality, or `None` when the set overflowed and only a
    /// lower bound is known (unusable for Kohler's test).
    fn exact(self) -> Option<usize> {
        (!self.overflow).then(|| self.bits.count_ones() as usize)
    }
}

/// One live constraint of a projection pass: a canonical row plus its
/// derivation certificate — the Imbert ancestor set and gone-dimension set.
///
/// **Certificate poisoning.**  Kohler's skip is only complete if, for every
/// facet of the projection, some surviving lineage keeps a within-bound
/// history: the textbook argument threads facets through extreme-ray
/// derivations whose histories stay under the bound at every step, and that
/// argument composes through row replacement only when the survivor's
/// ancestor set is a *subset* of the dying row's ([`anc_subset`]).
/// Constant-domination freely violates this — it keeps one row per
/// coefficient vector and drops looser parallel rows whose distinct
/// histories a later contradiction may need (pure Fourier–Motzkin keeps
/// both, which is why the counting criteria are usually stated without
/// domination).  So at every slot collision where the surviving
/// certificate is not certifiably contained in the dying one — or either
/// side is already tainted — the survivor's `gone` set is poisoned
/// (`overflow = true`): its descendants are exempt from the counting skip,
/// while every other pruning layer still applies.  Poison is sticky (it
/// propagates through [`GoneDims::union`] and is inherited across
/// replacements), which keeps the skip sound at the price of firing less
/// often on domination-heavy systems.
struct FmRow<E> {
    expr: E,
    kind: AtomKind,
    anc: Ancestors,
    gone: GoneDims,
}

/// A value a machine-integer row cannot hold (see [`IntRow`]): the pass
/// that meets one reruns on rational rows, which never raise it.
#[derive(Debug)]
struct Overflow;

/// The outcome of an arithmetic step on a pass's rows.
type Fit<T> = Result<T, Overflow>;

/// The linear part and constant of a projection-pass row.
///
/// Two types implement it: [`LinearExpr`], the exact rational rows the
/// rest of the crate uses, and [`IntRow`], a dense machine-integer row
/// local to one pass.  The row store, the elimination step and the pass
/// loop are generic over it, so their dedup, domination, certificate and
/// budget rules are written once and a row type supplies only arithmetic
/// and comparisons.  Both types hold the same rational values and visit
/// dimensions in the same (symbol) order, so a pass that finishes on
/// integer rows leaves the rows, in the same order, and the counts it
/// would leave on rational rows.
trait RowExpr: Sized {
    /// A dimension of the row space: a symbol, or a pass-local column.
    type Dim: Copy + Ord;
    /// A coefficient.
    type Coef;
    /// An equation prepared to substitute away one of its dimensions.
    type Subst;

    /// Whether every coefficient is zero.
    fn is_constant(&self) -> bool;
    /// How the constant term compares to zero.
    fn constant_sign(&self) -> Ordering;
    /// Scales the row to the coprime-integer representative of its ray,
    /// the constant possibly fractional.  The caller guarantees the row is
    /// not constant.
    fn canonicalize(&mut self) -> Fit<()>;
    /// Whether the coefficient of the least dimension is negative.
    fn leads_negative(&self) -> bool;
    /// A hash of the coefficient vector, read negated when `flip` is set
    /// (the constant left out).  Equal vectors hash equal.
    fn coefficients_hash(&self, flip: bool) -> u64;
    /// Whether the coefficient vectors are equal, `other`'s read negated
    /// when `flip` is set.
    fn same_coefficients(&self, other: &Self, flip: bool) -> bool;
    /// Compares the constant terms, each read negated when its flag is set.
    fn cmp_constants(&self, flip: bool, other: &Self, other_flip: bool) -> Ordering;
    /// How the coefficient of `d` compares to zero.
    fn sign_of(&self, d: Self::Dim) -> Ordering;
    /// Calls `f` with each dimension whose coefficient is non-zero, in
    /// dimension order, and whether that coefficient is positive.
    fn for_each_term(&self, f: impl FnMut(Self::Dim, bool));
    /// Removes the term of `d` and returns its coefficient's magnitude.
    fn take_abs(&mut self, d: Self::Dim) -> Self::Coef;
    /// The pos×neg combination `pc·n_rest + n_abs·p_rest`.
    fn combine(n_rest: &Self, pc: &Self::Coef, p_rest: &Self, n_abs: &Self::Coef) -> Fit<Self>;
    /// Calls `f` with each dimension of `p_rest` or `n_rest` whose
    /// coefficient cancelled in their combination `combined`.
    fn for_each_cancelled(p_rest: &Self, n_rest: &Self, combined: &Self, f: impl FnMut(Self::Dim));
    /// Prepares the equation `eq = 0` to substitute away `d`.
    fn substitution(eq: Self, d: Self::Dim) -> Self::Subst;
    /// The row with `d` substituted away, up to a positive scale (which the
    /// store's canonicalization removes).
    fn substituted(&self, d: Self::Dim, by: &Self::Subst) -> Fit<Self>;
}

/// Scales a row so its coefficient vector is the unique coprime-integer
/// representative of its ray (the constant term may stay rational).
/// Positive scalar multiples of the same constraint thereby become identical
/// rows, which is what lets [`RowStore`] dedup and dominate them by hashing.
/// Equations are deliberately *not* sign-flipped here — downstream bound
/// extraction reads their orientation — the sign convention lives in the
/// store's key instead (see [`key_hash`] and [`same_key`]).  The caller
/// guarantees the row is not constant.
fn canonicalize_row(expr: &mut LinearExpr) {
    let mut lcm = BigInt::one();
    for (_, c) in expr.coefficients() {
        lcm = lcm.lcm(c.denom());
    }
    if !lcm.is_one() {
        *expr = expr.scale(&BigRational::from_integer(lcm));
    }
    let mut gcd = BigInt::zero();
    for (_, c) in expr.coefficients() {
        gcd = gcd.gcd(c.numer());
    }
    let k = BigRational::from_integer(gcd).recip();
    if !k.is_one() {
        *expr = expr.scale(&k);
    }
}

/// How a rational compares to zero.
fn rational_sign(c: &BigRational) -> Ordering {
    c.sign().cmp(&Sign::Zero)
}

/// Rational rows: the representation every pass falls back to.
impl RowExpr for LinearExpr {
    type Dim = Symbol;
    type Coef = BigRational;
    /// The expression the eliminated symbol equals.
    type Subst = LinearExpr;

    fn is_constant(&self) -> bool {
        self.num_terms() == 0
    }

    fn constant_sign(&self) -> Ordering {
        rational_sign(self.constant_term())
    }

    fn canonicalize(&mut self) -> Fit<()> {
        canonicalize_row(self);
        Ok(())
    }

    fn leads_negative(&self) -> bool {
        self.coefficients()
            .next()
            .is_some_and(|(_, c)| c.is_negative())
    }

    /// Hashes symbol ids and coefficient values.  A coefficient whose value
    /// (read as flipped) lies outside `(i64::MIN, i64::MAX]` hashes as
    /// `i64::MIN`, a value no fitting coefficient produces.
    fn coefficients_hash(&self, flip: bool) -> u64 {
        let mut h = WordHasher::default();
        for (s, c) in self.coefficients() {
            s.hash(&mut h);
            let word = match c.numer().to_i64() {
                Some(v) if v != i64::MIN => {
                    if flip {
                        -v
                    } else {
                        v
                    }
                }
                _ => i64::MIN,
            };
            h.add(word as u64);
        }
        h.finish()
    }

    fn same_coefficients(&self, other: &Self, flip: bool) -> bool {
        self.num_terms() == other.num_terms()
            && self
                .coefficients()
                .zip(other.coefficients())
                .all(|((sa, ca), (sb, cb))| sa == sb && if flip { *ca == -cb } else { ca == cb })
    }

    fn cmp_constants(&self, flip: bool, other: &Self, other_flip: bool) -> Ordering {
        let read = |c: &BigRational, flip: bool| if flip { -c } else { c.clone() };
        read(self.constant_term(), flip).cmp(&read(other.constant_term(), other_flip))
    }

    fn sign_of(&self, d: Symbol) -> Ordering {
        rational_sign(&self.coefficient(&d))
    }

    fn for_each_term(&self, mut f: impl FnMut(Symbol, bool)) {
        for (s, c) in self.coefficients() {
            f(*s, c.is_positive());
        }
    }

    fn take_abs(&mut self, d: Symbol) -> BigRational {
        let c = self.coefficient(&d);
        self.add_coefficient(d, -c.clone());
        c.abs()
    }

    fn combine(n_rest: &Self, pc: &BigRational, p_rest: &Self, n_abs: &BigRational) -> Fit<Self> {
        Ok(n_rest.scaled_sum(pc, p_rest, n_abs))
    }

    fn for_each_cancelled(
        p_rest: &Self,
        n_rest: &Self,
        combined: &Self,
        mut f: impl FnMut(Symbol),
    ) {
        for (s, _) in p_rest.coefficients().chain(n_rest.coefficients()) {
            if combined.coefficient(s).is_zero() {
                f(*s);
            }
        }
    }

    fn substitution(eq: Self, d: Symbol) -> LinearExpr {
        let coeff = eq.coefficient(&d);
        let mut rest = eq;
        rest.add_coefficient(d, -coeff.clone());
        rest.scale(&(-coeff.recip()))
    }

    fn substituted(&self, d: Symbol, by: &LinearExpr) -> Fit<Self> {
        Ok(self.substitute(&d, by))
    }
}

/// A row of a machine-integer pass: `Σ coefs[j]·col_j + num/den`, with one
/// `i64` coefficient per column of the pass (see [`int_pass`]) and the
/// constant a reduced fraction, `den > 0`.  Every value is checked: no
/// stored value is `i64::MIN`, so reading one negated in key orientation
/// cannot overflow, and a result outside `(i64::MIN, i64::MAX]` is an
/// [`Overflow`].  The arithmetic runs on machine words and never touches
/// `chora_numeric`, whose counters therefore do not see it.
struct IntRow {
    coefs: Vec<i64>,
    num: i64,
    den: i64,
}

/// `v` as a value an [`IntRow`] may hold.
fn fit(v: i128) -> Fit<i64> {
    match i64::try_from(v) {
        Ok(v) if v != i64::MIN => Ok(v),
        _ => Err(Overflow),
    }
}

/// The binary gcd of two magnitudes (`gcd(0, b) = b`).
fn gcd(mut a: u64, mut b: u64) -> u64 {
    if a == 0 || b == 0 {
        return a | b;
    }
    let shift = (a | b).trailing_zeros();
    a >>= a.trailing_zeros();
    loop {
        b >>= b.trailing_zeros();
        if a > b {
            std::mem::swap(&mut a, &mut b);
        }
        b -= a;
        if b == 0 {
            return a << shift;
        }
    }
}

/// `num/den` in lowest terms, `den > 0`, if both parts fit an [`IntRow`].
fn reduced(num: i128, den: i128) -> Fit<(i64, i64)> {
    let (mut a, mut b) = (num.unsigned_abs(), den.unsigned_abs());
    while b != 0 {
        (a, b) = (b, a % b);
    }
    let g = a as i128;
    Ok((fit(num / g)?, fit(den / g)?))
}

/// `BigInt`'s inline value, if it is held inline and fits an [`IntRow`].
/// Heap-held values do not convert even when they would fit, so a
/// forced-heap run keeps exercising rational arithmetic.
fn inline(n: &BigInt) -> Fit<i64> {
    match n.as_small() {
        Some(v) if v != i64::MIN => Ok(v),
        _ => Err(Overflow),
    }
}

impl IntRow {
    /// The row of `expr` over `cols`, which hold its symbols in order.  A
    /// fractional coefficient does not fit either, though the canonical
    /// rows a pass starts from have none.
    fn from_linear(expr: &LinearExpr, cols: &[Symbol]) -> Fit<IntRow> {
        let mut coefs = vec![0; cols.len()];
        let mut j = 0;
        for (s, c) in expr.coefficients() {
            while cols[j] != *s {
                j += 1;
            }
            if !c.denom().is_one() {
                return Err(Overflow);
            }
            coefs[j] = inline(c.numer())?;
        }
        let c = expr.constant_term();
        Ok(IntRow {
            coefs,
            num: inline(c.numer())?,
            den: inline(c.denom())?,
        })
    }

    /// The rational row over `cols`.
    fn to_linear(&self, cols: &[Symbol]) -> LinearExpr {
        let constant = if self.den == 1 {
            BigRational::from(self.num)
        } else {
            BigRational::new(BigInt::from(self.num), BigInt::from(self.den))
        };
        LinearExpr::from_parts(
            cols.iter()
                .zip(&self.coefs)
                .filter(|(_, c)| **c != 0)
                .map(|(s, c)| (*s, BigRational::from(*c))),
            constant,
        )
    }

    /// `ka·a + kb·b`, for `ka > 0`.
    fn scaled_sum(a: &IntRow, ka: i64, b: &IntRow, kb: i64) -> Fit<IntRow> {
        let mut coefs = Vec::with_capacity(a.coefs.len());
        for (&x, &y) in a.coefs.iter().zip(&b.coefs) {
            coefs.push(fit(x as i128 * ka as i128 + y as i128 * kb as i128)?);
        }
        let (num, den) = if a.den == 1 && b.den == 1 {
            (
                fit(a.num as i128 * ka as i128 + b.num as i128 * kb as i128)?,
                1,
            )
        } else {
            let g = gcd(a.den as u64, b.den as u64) as i128;
            let (ad, bd) = (a.den as i128, b.den as i128);
            let num = (a.num as i128 * ka as i128)
                .checked_mul(bd / g)
                .zip((b.num as i128 * kb as i128).checked_mul(ad / g))
                .and_then(|(x, y)| x.checked_add(y))
                .ok_or(Overflow)?;
            reduced(num, ad / g * bd)?
        };
        Ok(IntRow { coefs, num, den })
    }
}

/// Machine-integer rows: the representation every pass tries first.
impl RowExpr for IntRow {
    /// A column of the pass.
    type Dim = usize;
    type Coef = i64;
    /// The equation itself.
    type Subst = IntRow;

    fn is_constant(&self) -> bool {
        self.coefs.iter().all(|&c| c == 0)
    }

    fn constant_sign(&self) -> Ordering {
        self.num.cmp(&0)
    }

    /// Divides by the gcd of the coefficients, stopping once it reaches 1.
    fn canonicalize(&mut self) -> Fit<()> {
        let mut g = 0;
        for &c in &self.coefs {
            g = gcd(g, c.unsigned_abs());
            if g == 1 {
                return Ok(());
            }
        }
        let g = g as i64;
        for c in &mut self.coefs {
            *c /= g;
        }
        // `num/den` is reduced, so `gcd(num, den·g) = gcd(num, g)`.
        let h = gcd(self.num.unsigned_abs(), g as u64) as i64;
        self.num /= h;
        self.den = fit(self.den as i128 * (g / h) as i128)?;
        Ok(())
    }

    fn leads_negative(&self) -> bool {
        self.coefs.iter().find(|&&c| c != 0).is_some_and(|&c| c < 0)
    }

    /// Hashes column indices and coefficient values.
    fn coefficients_hash(&self, flip: bool) -> u64 {
        let mut h = WordHasher::default();
        for (j, &c) in self.coefs.iter().enumerate() {
            if c != 0 {
                h.add(j as u64);
                h.add((if flip { -c } else { c }) as u64);
            }
        }
        h.finish()
    }

    fn same_coefficients(&self, other: &Self, flip: bool) -> bool {
        if flip {
            self.coefs.iter().zip(&other.coefs).all(|(&a, &b)| a == -b)
        } else {
            self.coefs == other.coefs
        }
    }

    fn cmp_constants(&self, flip: bool, other: &Self, other_flip: bool) -> Ordering {
        let read = |num: i64, flip: bool| (if flip { -num } else { num }) as i128;
        (read(self.num, flip) * other.den as i128)
            .cmp(&(read(other.num, other_flip) * self.den as i128))
    }

    fn sign_of(&self, d: usize) -> Ordering {
        self.coefs[d].cmp(&0)
    }

    fn for_each_term(&self, mut f: impl FnMut(usize, bool)) {
        for (j, &c) in self.coefs.iter().enumerate() {
            if c != 0 {
                f(j, c > 0);
            }
        }
    }

    fn take_abs(&mut self, d: usize) -> i64 {
        std::mem::take(&mut self.coefs[d]).abs()
    }

    fn combine(n_rest: &Self, pc: &i64, p_rest: &Self, n_abs: &i64) -> Fit<Self> {
        IntRow::scaled_sum(n_rest, *pc, p_rest, *n_abs)
    }

    fn for_each_cancelled(p_rest: &Self, n_rest: &Self, combined: &Self, mut f: impl FnMut(usize)) {
        for (j, ((&p, &n), &c)) in p_rest
            .coefs
            .iter()
            .zip(&n_rest.coefs)
            .zip(&combined.coefs)
            .enumerate()
        {
            if (p != 0 || n != 0) && c == 0 {
                f(j);
            }
        }
    }

    fn substitution(eq: Self, _: usize) -> IntRow {
        eq
    }

    /// `|c_eq|·row − c_row·sign(c_eq)·eq`: the rational substitution
    /// `row − (c_row / c_eq)·eq` scaled by `|c_eq|` instead of divided.
    fn substituted(&self, d: usize, eq: &IntRow) -> Fit<Self> {
        let c = eq.coefs[d];
        IntRow::scaled_sum(self, c.abs(), eq, -self.coefs[d] * c.signum())
    }
}

/// Whether an equation's stored orientation is flipped relative to its
/// canonical key orientation (least symbol's coefficient positive).
/// `p = 0` and `-p = 0` are the same constraint, so both must land in the
/// same [`RowStore`] slot; inequalities never flip.
fn eq_key_flipped<E: RowExpr>(row: &FmRow<E>) -> bool {
    row.kind == AtomKind::Eq && row.expr.leads_negative()
}

/// Compares the constant terms of two rows read in key orientation
/// (negated for flipped equations), so parallel rows compare on a common
/// orientation.
fn cmp_oriented<E: RowExpr>(a: &FmRow<E>, b: &FmRow<E>) -> Ordering {
    a.expr
        .cmp_constants(eq_key_flipped(a), &b.expr, eq_key_flipped(b))
}

/// A multiply–rotate word hash (the FxHash construction): each word is
/// folded in with one rotate, xor and multiply, and `finish` rotates the
/// well-mixed high bits down.  It hashes row keys (see [`key_hash`]) and
/// serves as the [`RowStore`] index's hasher over those already-mixed
/// hashes.  Unlike SipHash it does not resist keys crafted to collide, and
/// needs not: every match is confirmed by comparing coefficients, so a
/// collision costs one comparison and never merges two rows, and a chain
/// holds only the live rows of one store — a crafted program can slow an
/// analysis far more through the elimination itself.
#[derive(Clone, Copy, Default)]
struct WordHasher(u64);

impl WordHasher {
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0xf135_7aea_2e62_a9c5);
    }
}

impl Hasher for WordHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.add(u64::from(b));
        }
    }

    fn write_u32(&mut self, word: u32) {
        self.add(u64::from(word));
    }

    fn write_u64(&mut self, word: u64) {
        self.add(word);
    }

    fn finish(&self) -> u64 {
        self.0.rotate_left(26)
    }
}

#[cfg(test)]
thread_local! {
    /// Test seam: [`key_hash`] masks every hash with this, so a test can
    /// force unrelated rows into one chain.
    static KEY_HASH_MASK: std::cell::Cell<u64> = const { std::cell::Cell::new(u64::MAX) };
}

/// The hash of a row's key: its canonical linear part in key orientation
/// (flipped equations negated, the constant left out).
fn key_hash<E: RowExpr>(row: &FmRow<E>) -> u64 {
    let hash = row.expr.coefficients_hash(eq_key_flipped(row));
    #[cfg(test)]
    let hash = hash & KEY_HASH_MASK.with(std::cell::Cell::get);
    hash
}

/// Whether two rows have the same key: equal coefficient vectors once both
/// are read in key orientation.
fn same_key<E: RowExpr>(a: &FmRow<E>, b: &FmRow<E>) -> bool {
    a.expr
        .same_coefficients(&b.expr, eq_key_flipped(a) != eq_key_flipped(b))
}

/// One row of a [`RowStore`] with its key hash, computed once when the row
/// first entered a store and carried along when it moves to another.
struct Slot<E> {
    row: FmRow<E>,
    hash: u64,
    /// The next older live slot whose key has the same hash.
    next: Option<usize>,
}

/// The redundancy-controlled constraint set of a projection pass (and of
/// [`Linearized::normalize`]), over either row type: a pass's store holds
/// [`IntRow`]s unless the pass reruns on rational rows, and `normalize`'s
/// holds [`LinearExpr`]s.
///
/// Every inserted row is brought to canonical form first (coprime integer
/// coefficients, see [`RowExpr::canonicalize`]), so rows that are positive
/// scalar multiples of one another collide.  The store then keeps at most
/// one row per linear part: syntactic duplicates are dropped
/// (hash-consing), parallel inequalities keep only the tighter constant
/// (quasi-syntactic domination), an equation absorbs the parallel
/// inequalities it implies, and contradictory parallel rows flip the store
/// to `unsat` — the early exit that `implies_atom` and `implies_all` rely
/// on.
///
/// Rows are found by their key hash ([`key_hash`]), computed once per row:
/// `index` maps each hash to the newest live slot carrying it, and older
/// ones follow the slots' `next` links.  A chain can hold rows with
/// different keys, so a lookup confirms each candidate with [`same_key`].
/// The index is never iterated: surviving rows are read back in insertion
/// order, so every result is deterministic.
///
/// The store counts the rows it drops into `stats` rather than into the
/// process-wide counters; its owner publishes them when its pass is kept.
struct RowStore<E> {
    /// Slots in insertion order; `None` marks a killed or removed row.
    rows: Vec<Option<Slot<E>>>,
    /// Number of live rows.
    live: usize,
    /// Key hash -> newest live slot with that hash.
    index: HashMap<u64, usize, BuildHasherDefault<WordHasher>>,
    /// Set when two parallel rows contradict or a ground-false row arrives.
    unsat: bool,
    /// The counter increments of the store's pass so far.
    stats: FmStats,
}

impl<E: RowExpr> RowStore<E> {
    fn with_capacity(n: usize) -> RowStore<E> {
        RowStore {
            rows: Vec::with_capacity(n),
            live: 0,
            index: HashMap::with_capacity_and_hasher(n, BuildHasherDefault::default()),
            unsat: false,
            stats: FmStats::default(),
        }
    }

    /// The live rows, in insertion order.
    fn live_rows(&self) -> impl Iterator<Item = &FmRow<E>> {
        self.rows.iter().flatten().map(|slot| &slot.row)
    }

    /// The live slot holding `row`'s key, if any.
    fn find(&self, row: &FmRow<E>, hash: u64) -> Option<usize> {
        let mut at = self.index.get(&hash).copied();
        while let Some(id) = at {
            let slot = self.rows[id].as_ref().expect("chains link live slots");
            if same_key(&slot.row, row) {
                return Some(id);
            }
            at = slot.next;
        }
        None
    }

    /// Appends a row as the newest slot of its hash's chain.
    fn push(&mut self, row: FmRow<E>, hash: u64) {
        let id = self.rows.len();
        let next = self.index.insert(hash, id);
        self.rows.push(Some(Slot { row, hash, next }));
        self.live += 1;
    }

    /// Takes a live row out of the store, unlinking it from its chain.
    fn remove(&mut self, id: usize) -> FmRow<E> {
        let slot = self.rows[id].take().expect("removing a live slot");
        self.live -= 1;
        let head = *self
            .index
            .get(&slot.hash)
            .expect("a live slot's hash is indexed");
        if head == id {
            match slot.next {
                Some(next) => {
                    self.index.insert(slot.hash, next);
                }
                None => {
                    self.index.remove(&slot.hash);
                }
            }
        } else {
            let mut at = head;
            loop {
                let prev = self.rows[at].as_mut().expect("chains link live slots");
                if prev.next == Some(id) {
                    prev.next = slot.next;
                    break;
                }
                at = prev.next.expect("a live slot is on its hash's chain");
            }
        }
        slot.row
    }

    /// Empties the store for a rebuild, keeping its counts, and returns its
    /// slots.
    fn take_slots(&mut self) -> Vec<Option<Slot<E>>> {
        self.index.clear();
        self.live = 0;
        std::mem::take(&mut self.rows)
    }

    /// Resolves a slot's certificate after an exact duplicate arrived: the
    /// same constraint now has two derivations and either certificate is
    /// valid for it, so keep whichever ancestor set is contained in the
    /// other.  Incomparable sets, or taint on either side, poison the slot
    /// (see the note on [`FmRow`]).
    fn dedup_cert(kept: &mut FmRow<E>, dup: &FmRow<E>) {
        let tainted = kept.gone.overflow || dup.gone.overflow;
        if anc_subset(dup.anc, kept.anc) {
            kept.anc = dup.anc;
            kept.gone = dup.gone;
        } else if !anc_subset(kept.anc, dup.anc) {
            kept.gone.overflow = true;
        }
        kept.gone.overflow |= tainted;
    }

    /// Poisons the surviving row of a domination kill unless its ancestor
    /// set is certifiably contained in the dying row's untainted one —
    /// the only case in which Kohler completeness survives the kill (see
    /// the note on [`FmRow`]).
    fn domination_cert(survivor: &mut FmRow<E>, dying: &FmRow<E>) {
        if !anc_subset(survivor.anc, dying.anc) || dying.gone.overflow {
            survivor.gone.overflow = true;
        }
    }

    /// Inserts a row, resolving it against the store's row with the same
    /// linear part (if any).  `canonical` says the expression is already in
    /// canonical form and need not be re-scaled.
    fn insert(&mut self, mut row: FmRow<E>, canonical: bool) -> Fit<()> {
        if self.unsat {
            return Ok(());
        }
        if row.expr.is_constant() {
            if !row.kind.holds_at(row.expr.constant_sign()) {
                self.unsat = true;
            }
            return Ok(());
        }
        if !canonical {
            row.expr.canonicalize()?;
        }
        let hash = key_hash(&row);
        self.insert_hashed(row, hash);
        Ok(())
    }

    /// Inserts a canonical, non-constant row whose key hash is known — the
    /// rest of [`RowStore::insert`], which rows moving between stores enter
    /// directly.
    fn insert_hashed(&mut self, mut row: FmRow<E>, hash: u64) {
        let Some(id) = self.find(&row, hash) else {
            self.push(row, hash);
            return;
        };
        let prev = &self.rows[id].as_ref().expect("find returns live slots").row;
        match (prev.kind, row.kind) {
            (AtomKind::Eq, AtomKind::Eq) => {
                // `p = 0` and `-p = 0` share a slot; compare the constants
                // in key orientation.
                if cmp_oriented(prev, &row) == Ordering::Equal {
                    Self::dedup_cert(self.row_mut(id), &row);
                    self.stats.rows_deduped += 1;
                } else {
                    self.unsat = true;
                }
            }
            (AtomKind::Eq, _) => {
                // prev: L + a = 0, new: L + b ◇ 0  ⇒  b − a ◇ 0
                // (both read in key orientation).
                if row.kind.holds_at(cmp_oriented(&row, prev)) {
                    self.stats.rows_dominated += 1;
                    Self::domination_cert(self.row_mut(id), &row);
                } else {
                    self.unsat = true;
                }
            }
            (_, AtomKind::Eq) => {
                if prev.kind.holds_at(cmp_oriented(prev, &row)) {
                    self.stats.rows_dominated += 1;
                    Self::domination_cert(&mut row, prev);
                    self.remove(id);
                    self.push(row, hash);
                } else {
                    self.unsat = true;
                }
            }
            (pk, nk) => {
                // Parallel inequalities: the larger constant is tighter; on
                // ties a strict inequality beats a non-strict one (as the
                // old `normalize` ruled).
                let order = cmp_oriented(prev, &row);
                let same_constant = order == Ordering::Equal;
                let prev_at_least_as_tight = order == Ordering::Greater
                    || (same_constant && (pk == AtomKind::Lt || nk == AtomKind::Le));
                if prev_at_least_as_tight {
                    if same_constant && pk == nk {
                        Self::dedup_cert(self.row_mut(id), &row);
                        self.stats.rows_deduped += 1;
                    } else {
                        self.stats.rows_dominated += 1;
                        Self::domination_cert(self.row_mut(id), &row);
                    }
                } else {
                    self.stats.rows_dominated += 1;
                    Self::domination_cert(&mut row, prev);
                    self.remove(id);
                    self.push(row, hash);
                }
            }
        }
    }

    fn row_mut(&mut self, id: usize) -> &mut FmRow<E> {
        &mut self.rows[id].as_mut().expect("live slot").row
    }

    /// The live rows as constraint pairs, in insertion order.
    fn into_pairs(self) -> Vec<(E, AtomKind)> {
        self.rows
            .into_iter()
            .flatten()
            .map(|slot| (slot.row.expr, slot.row.kind))
            .collect()
    }
}

/// The greedy elimination choice: any dimension an equation mentions comes
/// first (substitution strictly shrinks the system), otherwise the minimizer
/// of Chvátal's growth estimate `pos·neg − (pos + neg)`; ties break toward
/// the smallest dimension, so the order is deterministic.  `occ` holds each
/// candidate's positive and negative inequality occurrences and whether an
/// equation mentions it.
fn choose_dim<D: Copy + Ord>(occ: &[(D, (i64, i64, bool))]) -> Option<D> {
    let mut best: Option<(bool, i64, D)> = None;
    for (s, (pos, neg, eq)) in occ {
        let cand = if *eq {
            (false, 0, *s)
        } else {
            (true, pos * neg - pos - neg, *s)
        };
        let better = match best {
            None => true,
            Some(b) => cand < b,
        };
        if better {
            best = Some(cand);
        }
    }
    best.map(|(_, _, s)| s)
}

/// Eliminates `d` from the store: by substitution through an equation when
/// one mentions `d`, otherwise by pos×neg Fourier–Motzkin combination.
/// `imbert` maps every dimension of the system, sorted, to its bit in the
/// per-row [`GoneDims`] set (`None` once equality substitution has mixed
/// Gaussian steps into the ancestor accounting); a combined row is dropped when
/// Kohler's criterion — more than `1 + |gone|` ancestors — proves it
/// redundant.  Returns whether the step substituted.
///
/// A pos×neg step whose combinations, with the rows it leaves alone, could
/// exceed [`FM_CONSTRAINT_BUDGET`] drops every row that mentions `d`
/// instead (a sound over-approximation).  So a step never *grows* the
/// store past the budget, and an `abort_over` limit of the budget fires
/// only when a pass's input alone exceeds it.
///
/// A pos×neg step works in place: it removes the rows that mention `d` and
/// appends the combinations, which meet the unchanged rows exactly as they
/// would in a fresh store filled in slot order.  A substitution step does
/// rebuild, because a substituted row can share its key with an unchanged
/// row in a *later* slot: rewriting in place would make the substituted row
/// the kept one of that collision instead of the arriving one.  The rebuild
/// moves unchanged rows over with their stored hashes.
fn eliminate_rows<E: RowExpr>(
    store: &mut RowStore<E>,
    d: E::Dim,
    imbert: Option<&[(E::Dim, usize)]>,
) -> Fit<bool> {
    if let Some(eq_id) = store.rows.iter().position(|slot| {
        slot.as_ref()
            .is_some_and(|s| s.row.kind == AtomKind::Eq && s.row.expr.sign_of(d) != Ordering::Equal)
    }) {
        let mut slots = store.take_slots();
        let eq = slots[eq_id].take().expect("position found a live slot").row;
        let (eq_anc, eq_gone) = (eq.anc, eq.gone);
        let by = E::substitution(eq.expr, d);
        // The surviving rows keep their insertion order.
        for Slot { row: r, hash, .. } in slots.into_iter().flatten() {
            if r.expr.sign_of(d) == Ordering::Equal {
                store.insert_hashed(r, hash);
            } else {
                store.stats.rows_generated += 1;
                let expr = r.expr.substituted(d, &by)?;
                store.insert(
                    FmRow {
                        expr,
                        kind: r.kind,
                        anc: Ancestors::union(r.anc, eq_anc),
                        // Substitution disables Imbert pruning for the rest
                        // of the pass, so the gone set is carried but unread.
                        gone: GoneDims::union(r.gone, eq_gone),
                    },
                    false,
                )?;
            }
            if store.unsat {
                break;
            }
        }
        return Ok(true);
    }
    let mut pos: Vec<(FmRow<E>, E::Coef)> = Vec::new();
    let mut neg: Vec<(FmRow<E>, E::Coef)> = Vec::new();
    for id in 0..store.rows.len() {
        let sign = match &store.rows[id] {
            Some(slot) => slot.row.expr.sign_of(d),
            None => continue,
        };
        if sign == Ordering::Equal {
            continue;
        }
        let mut r = store.remove(id);
        let c = r.expr.take_abs(d);
        if sign == Ordering::Greater {
            pos.push((r, c));
        } else {
            neg.push((r, c));
        }
    }
    if pos.len() * neg.len() + store.live > FM_CONSTRAINT_BUDGET {
        // Over-approximate: drop every row involving d (the pre-existing
        // budget fallback).
        store.stats.budget_drops += 1;
        return Ok(false);
    }
    'combine: for (p, pc) in &pos {
        for (n, n_abs) in &neg {
            let anc = Ancestors::union(p.anc, n.anc);
            let combined = E::combine(&n.expr, pc, &p.expr, n_abs)?;
            // The combined row loses `d` plus any dimension the two parents
            // mention that cancelled accidentally in the sum; Kohler's
            // criterion needs both kinds counted, so the gone set is only
            // known after the row is materialized.
            let mut gone = GoneDims::union(p.gone, n.gone);
            if let Some(dims) = imbert {
                let bit = |s: E::Dim| {
                    dims.binary_search_by(|(t, _)| t.cmp(&s))
                        .ok()
                        .map(|i| dims[i].1)
                };
                gone.insert(bit(d));
                E::for_each_cancelled(&p.expr, &n.expr, &combined, |s| gone.insert(bit(s)));
                // Kohler: a row derived from more than `1 + |gone|` original
                // rows is a nonnegative combination of rows with smaller
                // histories, hence redundant.  The test is stated for
                // non-strict systems, so it only fires on an all-`Le`
                // derivation (`Lt` is sticky through combination), and an
                // overflowed gone set declines rather than guesses.
                if let Some(count) = gone.exact() {
                    if (p.kind, n.kind) == (AtomKind::Le, AtomKind::Le)
                        && anc.at_least() > 1 + count
                    {
                        store.stats.imbert_skipped += 1;
                        continue;
                    }
                }
            }
            store.stats.rows_generated += 1;
            let kind = match (p.kind, n.kind) {
                (AtomKind::Lt, _) | (_, AtomKind::Lt) => AtomKind::Lt,
                _ => AtomKind::Le,
            };
            store.insert(
                FmRow {
                    expr: combined,
                    kind,
                    anc,
                    gone,
                },
                false,
            )?;
            if store.unsat {
                break 'combine;
            }
        }
    }
    Ok(false)
}

/// What one projection pass leaves behind.
struct Pass<E> {
    /// The surviving rows in store order; empty after a contradiction.
    rows: Vec<(E, AtomKind)>,
    /// Whether the pass derived a contradiction.
    unsat: bool,
    /// Whether the pass ran to its end rather than stopping at `abort_over`.
    finished: bool,
    /// The counter increments the pass made, published when it is kept.
    stats: FmStats,
}

/// The Fourier–Motzkin pass loop, over either row type: eliminates every
/// dimension in `drop` from `rows`, greedily (see [`choose_dim`]), and
/// stops early at a contradiction or once more than `abort_over` rows are
/// live after a step.  `rows` are canonical and pairwise distinct, as
/// [`Linearized::normalize`] leaves them.
fn run_pass<E: RowExpr>(
    rows: Vec<(E, AtomKind)>,
    drop: impl IntoIterator<Item = E::Dim>,
    abort_over: Option<usize>,
) -> Fit<Pass<E>> {
    let mut store = RowStore::with_capacity(rows.len());
    for (i, (expr, kind)) in rows.into_iter().enumerate() {
        store.insert(
            FmRow {
                expr,
                kind,
                anc: Ancestors::origin(i),
                gone: GoneDims::default(),
            },
            true,
        )?;
    }
    // Every dimension of the system gets one bit in the per-row gone
    // sets, in order of first occurrence; combinations only ever cancel
    // dimensions, so the map never needs to grow mid-pass.  Maps and sets
    // of dimensions are sorted vectors: a pass has few dimensions.
    let mut dim_bits: Vec<(E::Dim, usize)> = Vec::new();
    for row in store.live_rows() {
        row.expr.for_each_term(|s, _| {
            if let Err(i) = dim_bits.binary_search_by(|(t, _)| t.cmp(&s)) {
                dim_bits.insert(i, (s, dim_bits.len()));
            }
        });
    }
    let mut remaining: Vec<E::Dim> = drop.into_iter().collect();
    remaining.sort_unstable();
    remaining.dedup();
    // Kohler's criterion is stated for pure pos×neg elimination; once a
    // step substitutes through an equation the ancestor accounting mixes
    // Gaussian steps in, so pruning is switched off for the rest of the
    // pass rather than argued about.
    let mut imbert_ok = true;
    while !store.unsat && !remaining.is_empty() {
        // One scan counting, per still-to-eliminate dimension, its
        // positive/negative inequality occurrences and whether an
        // equation mentions it.
        let mut occ: Vec<(E::Dim, (i64, i64, bool))> =
            remaining.iter().map(|&s| (s, (0, 0, false))).collect();
        for row in store.live_rows() {
            for (s, e) in &mut occ {
                match row.expr.sign_of(*s) {
                    Ordering::Equal => {}
                    _ if row.kind == AtomKind::Eq => e.2 = true,
                    Ordering::Greater => e.0 += 1,
                    Ordering::Less => e.1 += 1,
                }
            }
        }
        // Dimensions no row mentions are already (vacuously) eliminated.
        occ.retain(|(_, counts)| *counts != (0, 0, false));
        let Some(d) = choose_dim(&occ) else { break };
        remaining = occ.iter().map(|(s, _)| *s).filter(|s| *s != d).collect();
        let imbert = if imbert_ok { Some(&dim_bits[..]) } else { None };
        if eliminate_rows(&mut store, d, imbert)? {
            imbert_ok = false;
        }
        store.stats.max_width = store.stats.max_width.max(store.live as u64);
        if abort_over.is_some_and(|limit| store.live > limit) {
            let stats = store.stats;
            return Ok(Pass {
                rows: store.into_pairs(),
                unsat: false,
                finished: false,
                stats,
            });
        }
    }
    if store.unsat && !remaining.is_empty() {
        store.stats.early_unsat_exits += 1;
    }
    let (unsat, stats) = (store.unsat, store.stats);
    Ok(Pass {
        rows: if unsat {
            Vec::new()
        } else {
            store.into_pairs()
        },
        unsat,
        finished: true,
        stats,
    })
}

/// Runs one pass on machine-integer rows: the symbols of `constraints`
/// become the pass's columns in symbol order, so dimensions are visited,
/// tie-broken and oriented as on rational rows.  Fails at the first value
/// that does not fit, in the input or mid-pass, leaving `constraints` as
/// they were.
fn int_pass(
    constraints: &[(LinearExpr, AtomKind)],
    drop: &[Symbol],
    abort_over: Option<usize>,
) -> Fit<Pass<LinearExpr>> {
    let mut cols: Vec<Symbol> = Vec::new();
    for (e, _) in constraints {
        for (s, _) in e.coefficients() {
            if let Err(i) = cols.binary_search(s) {
                cols.insert(i, *s);
            }
        }
    }
    let mut rows = Vec::with_capacity(constraints.len());
    for (e, kind) in constraints {
        rows.push((IntRow::from_linear(e, &cols)?, *kind));
    }
    // A symbol no row mentions is vacuously eliminated.
    let drop = drop.iter().filter_map(|s| cols.binary_search(s).ok());
    let pass = run_pass(rows, drop, abort_over)?;
    Ok(Pass {
        rows: pass
            .rows
            .iter()
            .map(|(row, kind)| (row.to_linear(&cols), *kind))
            .collect(),
        unsat: pass.unsat,
        finished: pass.finished,
        stats: pass.stats,
    })
}

impl Linearized {
    /// Assigns a dimension symbol to every non-linear monomial occurring in
    /// the atoms, in monomial order.
    fn dim_table<'a>(atoms: impl Iterator<Item = &'a Atom>) -> BTreeMap<Monomial, Symbol> {
        let mut monomials: BTreeSet<Monomial> = BTreeSet::new();
        for a in atoms {
            for (m, _) in a.poly.terms() {
                if m.degree() > 1 {
                    monomials.insert(m.clone());
                }
            }
        }
        monomials
            .into_iter()
            .enumerate()
            .map(|(i, m)| (m, Symbol::dimension(i as u32)))
            .collect()
    }

    /// Builds the linearized view; returns `None` if a trivially false ground
    /// atom is present (caller should treat the system as unsatisfiable).
    fn new(atoms: &[Atom]) -> Option<Linearized> {
        Linearized::new_with_dims(atoms, Linearized::dim_table(atoms.iter()))
    }

    /// Builds the linearized view with a pre-assigned dimension table (used
    /// by joins, where both operands must share dimension symbols).
    fn new_with_dims(atoms: &[Atom], dim_of: BTreeMap<Monomial, Symbol>) -> Option<Linearized> {
        let mut sys = Linearized {
            mono_dims: dim_of.iter().map(|(m, d)| (*d, m.clone())).collect(),
            dim_of,
            constraints: Vec::new(),
            unsat: false,
        };
        for a in atoms {
            match a.trivial_truth() {
                Some(true) => continue,
                Some(false) => return None,
                None => {}
            }
            let expr = sys.linearize_poly(&a.poly);
            sys.constraints.push((expr, a.kind));
        }
        sys.normalize();
        if sys.unsat {
            None
        } else {
            Some(sys)
        }
    }

    fn linearize_poly(&mut self, p: &Polynomial) -> LinearExpr {
        let mut out = LinearExpr::constant(BigRational::zero());
        for (m, c) in p.terms() {
            if m.is_one() {
                out.add_constant(c);
            } else if m.degree() == 1 {
                let (s, _) = m.powers().next().expect("degree-1 monomial has a symbol");
                out.add_coefficient(*s, c.clone());
            } else {
                let dim = *self
                    .dim_of
                    .get(m)
                    .expect("dimension table covers every non-linear monomial");
                out.add_coefficient(dim, c.clone());
            }
        }
        out
    }

    fn delinearize(&self, expr: &LinearExpr) -> Polynomial {
        let terms = expr.coefficients().map(|(s, c)| {
            let m = match self.mono_dims.get(s) {
                Some(m) => m.clone(),
                None => Monomial::var(*s),
            };
            (c.clone(), m)
        });
        let constant = (expr.constant_term().clone(), Monomial::one());
        Polynomial::from_terms(std::iter::once(constant).chain(terms))
    }

    fn dims(&self) -> BTreeSet<Symbol> {
        let mut out = BTreeSet::new();
        for (e, _) in &self.constraints {
            out.extend(e.symbols());
        }
        out
    }

    fn constraints(&self) -> &[(LinearExpr, AtomKind)] {
        &self.constraints
    }

    /// Builds a new system sharing the monomial-dimension tables of `self`
    /// and `other`, with the given constraints.
    fn with_constraints(
        &self,
        constraints: Vec<(LinearExpr, AtomKind)>,
        other: &Linearized,
    ) -> Linearized {
        let mut mono_dims = self.mono_dims.clone();
        mono_dims.extend(other.mono_dims.clone());
        let mut dim_of = self.dim_of.clone();
        dim_of.extend(other.dim_of.clone());
        let mut sys = Linearized {
            mono_dims,
            dim_of,
            constraints,
            unsat: false,
        };
        sys.normalize();
        sys
    }

    /// The base (program-level) symbols a dimension depends on.
    fn base_symbols(&self, dim: &Symbol) -> Vec<Symbol> {
        match self.mono_dims.get(dim) {
            Some(m) => m.symbols().into_iter().collect(),
            None => vec![*dim],
        }
    }

    /// Canonicalizes every row and removes duplicates, trivial constraints,
    /// and parallel rows dominated by a tighter constant; detects ground and
    /// parallel contradictions (the early-unsat entry of the projection
    /// pipeline).
    fn normalize(&mut self) {
        if self.unsat {
            return;
        }
        let mut store = RowStore::with_capacity(self.constraints.len());
        for (i, (expr, kind)) in std::mem::take(&mut self.constraints)
            .into_iter()
            .enumerate()
        {
            store
                .insert(
                    FmRow {
                        expr,
                        kind,
                        anc: Ancestors::origin(i),
                        gone: GoneDims::default(),
                    },
                    false,
                )
                .expect("rational rows do not overflow");
        }
        crate::stats::publish(&store.stats);
        if store.unsat {
            self.unsat = true;
            return;
        }
        self.constraints = store.into_pairs();
    }

    /// The pre-optimization `normalize`: duplicate / trivial / parallel-
    /// subsumption filtering without canonical scaling, exactly as the fixed-
    /// order baseline ran it.  Used only by the `naive_*` oracle path.
    fn naive_normalize(&mut self) {
        // Keyed by the normalized coefficient vector (without constant).
        let mut kept: Vec<(LinearExpr, AtomKind)> = Vec::new();
        for (expr, kind) in std::mem::take(&mut self.constraints) {
            if expr.is_constant() {
                let c = expr.constant_term();
                let holds = match kind {
                    AtomKind::Le => !c.is_positive(),
                    AtomKind::Lt => c.is_negative(),
                    AtomKind::Eq => c.is_zero(),
                };
                if !holds {
                    self.unsat = true;
                    return;
                }
                continue;
            }
            kept.push((expr, kind));
        }
        // Subsumption between parallel inequalities with identical linear part.
        let mut result: Vec<(LinearExpr, AtomKind)> = Vec::new();
        'outer: for (expr, kind) in kept {
            let mut i = 0;
            while i < result.len() {
                let (prev_expr, prev_kind) = &result[i];
                if Self::same_linear_part(prev_expr, &expr) {
                    match (prev_kind, kind) {
                        (AtomKind::Eq, _) | (_, AtomKind::Eq) => {
                            // Keep both unless identical; equality handling is
                            // precision-sensitive so do not subsume.
                            if prev_expr == &expr && *prev_kind == kind {
                                continue 'outer;
                            }
                        }
                        _ => {
                            // expr + c ≤/< 0 : larger constant is tighter;
                            // on ties a strict inequality is tighter than a
                            // non-strict one.
                            let prev_c = prev_expr.constant_term();
                            let new_c = expr.constant_term();
                            let prev_at_least_as_tight = prev_c > new_c
                                || (prev_c == new_c
                                    && (*prev_kind == AtomKind::Lt || kind == AtomKind::Le));
                            if prev_at_least_as_tight {
                                continue 'outer;
                            }
                            result.remove(i);
                            continue;
                        }
                    }
                }
                i += 1;
            }
            result.push((expr, kind));
        }
        self.constraints = result;
    }

    fn same_linear_part(a: &LinearExpr, b: &LinearExpr) -> bool {
        let za = a - &LinearExpr::constant(a.constant_term().clone());
        let zb = b - &LinearExpr::constant(b.constant_term().clone());
        za == zb
    }

    /// Fixed-order Fourier–Motzkin elimination of a single dimension — the
    /// pre-optimization implementation, kept verbatim as the `naive_*`
    /// oracle.  The production path is [`Linearized::project`].
    ///
    /// When the intermediate system would exceed the constraint budget, the
    /// constraints involving the dimension are dropped instead (a sound
    /// over-approximation).
    ///
    /// `scratch` holds the pos/neg partition and output buffers; reusing one
    /// [`FmScratch`] across a whole elimination pass means the partition
    /// vectors are allocated once per pass instead of once per dimension,
    /// and each dimension's coefficient is stripped from its row exactly
    /// once (outside the pos×neg combination loop).
    fn naive_eliminate_dim(&mut self, d: &Symbol, scratch: &mut FmScratch) {
        if self.unsat {
            return;
        }
        // Prefer substitution through an equality involving d.
        if let Some(idx) = self
            .constraints
            .iter()
            .position(|(e, k)| *k == AtomKind::Eq && !e.coefficient(d).is_zero())
        {
            let (eq_expr, _) = self.constraints.remove(idx);
            let coeff = eq_expr.coefficient(d);
            // d = -(rest)/coeff
            let mut rest = eq_expr;
            rest.add_coefficient(*d, -coeff.clone());
            let replacement = rest.scale(&(-coeff.recip()));
            for (e, _) in self.constraints.iter_mut() {
                if !e.coefficient(d).is_zero() {
                    *e = e.substitute(d, &replacement);
                }
            }
            self.naive_normalize();
            return;
        }
        scratch.pos.clear();
        scratch.neg.clear();
        scratch.out.clear();
        for (mut e, k) in self.constraints.drain(..) {
            let c = e.coefficient(d);
            if c.is_zero() {
                scratch.out.push((e, k));
            } else if c.is_positive() {
                // Strip d here, once, so the stored row IS the p_rest of the
                // combination formula below.
                e.add_coefficient(*d, -c.clone());
                scratch.pos.push((e, k, c));
            } else {
                e.add_coefficient(*d, -c.clone());
                // Store |c| (= -c > 0), the factor the combination needs.
                scratch.neg.push((e, k, -c));
            }
        }
        if scratch.pos.len() * scratch.neg.len() + scratch.out.len() > FM_CONSTRAINT_BUDGET {
            // Over-approximate: drop every constraint involving d.
            std::mem::swap(&mut self.constraints, &mut scratch.out);
            self.naive_normalize();
            return;
        }
        for (p_rest, pk, pc) in &scratch.pos {
            for (n_rest, nk, n_abs) in &scratch.neg {
                // pos: pc·d + p_rest ◇ 0  (pc > 0)  =>  d ≤ -p_rest/pc (for ◇ = ≤)
                // neg: nc·d + n_rest ◇ 0  (nc < 0)  =>  d ≥ n_rest/(-nc)
                // combined:  n_rest/(-nc) ≤ -p_rest/pc
                //            pc·n_rest + (-nc)·p_rest ≤ 0
                let combined = n_rest.scaled_sum(pc, p_rest, n_abs);
                let kind = match (pk, nk) {
                    (AtomKind::Lt, _) | (_, AtomKind::Lt) => AtomKind::Lt,
                    _ => AtomKind::Le,
                };
                scratch.out.push((combined, kind));
            }
        }
        std::mem::swap(&mut self.constraints, &mut scratch.out);
        self.naive_normalize();
    }

    /// The single Fourier–Motzkin entry point: eliminates every symbol in
    /// `drop`, greedily picking at each step a dimension an equation fixes
    /// (substitution strictly shrinks the system) or, failing that, the one
    /// minimizing Chvátal's `pos·neg − pos − neg` growth estimate over the
    /// current rows.  Rows flow through a [`RowStore`] — canonical form,
    /// hash-cons dedup, domination pruning, Imbert's acceleration — and the
    /// pass stops as soon as a contradiction surfaces (`self.unsat`), which
    /// is what lets `implies_atom`/`implies_all` return early.  The pass
    /// runs on machine-integer rows and reruns on the rational rows when a
    /// value does not fit ([`Linearized::pass`]); both leave the same rows.
    ///
    /// A step that could generate more than [`FM_CONSTRAINT_BUDGET`] rows
    /// drops the rows of its dimension instead, so the result may be weaker
    /// than the exact projection.  With `abort_over` set, returns `false`
    /// when more than that many rows are live after a step.  The hull join
    /// passes the budget, so this fires only when its Balas system alone is
    /// larger: no step grows a system past the budget.  Otherwise returns
    /// `true`.
    fn project(&mut self, drop: &[Symbol], abort_over: Option<usize>) -> bool {
        if self.unsat || drop.is_empty() || self.constraints.is_empty() {
            return true;
        }
        let pass = self.pass(drop, abort_over);
        crate::stats::publish(&pass.stats);
        self.unsat = pass.unsat;
        self.constraints = pass.rows;
        pass.finished
    }

    /// The pass of [`Linearized::project`], which takes the system's rows:
    /// run on machine-integer rows ([`int_pass`]), and rerun from the
    /// unchanged rational rows when a value does not fit.  A rerun pass
    /// counts its rows once, and once in `overflow_restarts`.
    fn pass(&mut self, drop: &[Symbol], abort_over: Option<usize>) -> Pass<LinearExpr> {
        match int_pass(&self.constraints, drop, abort_over) {
            Ok(pass) => pass,
            Err(Overflow) => {
                let rows = std::mem::take(&mut self.constraints);
                let mut pass = run_pass(rows, drop.iter().copied(), abort_over)
                    .expect("rational rows do not overflow");
                pass.stats.overflow_restarts += 1;
                pass
            }
        }
    }

    /// Projects onto the dimensions whose base symbols all satisfy `keep`,
    /// routing through [`Linearized::project`].
    fn project_keeping(mut self, keep: impl Fn(&[Symbol]) -> bool) -> Linearized {
        let drop: Vec<Symbol> = self
            .dims()
            .into_iter()
            .filter(|d| !keep(&self.base_symbols(d)))
            .collect();
        self.project(&drop, None);
        self
    }

    #[allow(clippy::wrong_self_convention)] // consumes self: elimination destroys the system
    fn is_unsat(mut self) -> bool {
        let dims: Vec<Symbol> = self.dims().into_iter().collect();
        self.project(&dims, None);
        self.unsat
    }

    /// Fixed-order projection — the pre-optimization oracle.
    fn naive_project(mut self, keep: impl Fn(&[Symbol]) -> bool) -> Linearized {
        let dims = self.dims();
        let mut scratch = FmScratch::default();
        for d in dims {
            let bases = self.base_symbols(&d);
            if keep(&bases) {
                continue;
            }
            self.naive_eliminate_dim(&d, &mut scratch);
            if self.unsat {
                break;
            }
        }
        self
    }

    /// Fixed-order satisfiability — the pre-optimization oracle.
    #[allow(clippy::wrong_self_convention)] // consumes self: elimination destroys the system
    fn naive_is_unsat(mut self) -> bool {
        let dims = self.dims();
        let mut scratch = FmScratch::default();
        for d in dims {
            self.naive_eliminate_dim(&d, &mut scratch);
            if self.unsat {
                return true;
            }
        }
        self.unsat
    }

    fn to_polyhedron(&self) -> Polyhedron {
        if self.unsat {
            return Polyhedron::contradiction();
        }
        // The rows are the live rows of a store: non-constant, canonical
        // and of pairwise distinct keys, so their integral atoms are
        // canonical, non-trivial and distinct, and need no filtering.
        let atoms = self
            .constraints
            .iter()
            .map(|(e, kind)| Atom {
                poly: self.delinearize(&e.normalize_gcd()),
                kind: *kind,
            })
            .collect();
        Polyhedron::from_parts(atoms)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chora_numeric::rat;

    fn var(name: &str) -> Polynomial {
        Polynomial::var(Symbol::new(name))
    }
    fn c(v: i64) -> Polynomial {
        Polynomial::constant(rat(v))
    }

    #[test]
    fn satisfiability_basic() {
        let p = Polyhedron::from_atoms(vec![Atom::ge(var("x"), c(0)), Atom::le(var("x"), c(5))]);
        assert!(!p.is_empty_set());
        let q = Polyhedron::from_atoms(vec![Atom::ge(var("x"), c(6)), Atom::le(var("x"), c(5))]);
        assert!(q.is_empty_set());
        assert!(Polyhedron::contradiction().is_empty_set());
        assert!(!Polyhedron::universe().is_empty_set());
    }

    #[test]
    fn satisfiability_strict() {
        let p = Polyhedron::from_atoms(vec![Atom::gt(var("x"), c(5)), Atom::lt(var("x"), c(6))]);
        // Rational satisfiable (5 < x < 6).
        assert!(!p.is_empty_set());
        let q = Polyhedron::from_atoms(vec![Atom::gt(var("x"), c(5)), Atom::lt(var("x"), c(5))]);
        assert!(q.is_empty_set());
        let r = Polyhedron::from_atoms(vec![Atom::ge(var("x"), c(5)), Atom::lt(var("x"), c(5))]);
        assert!(r.is_empty_set());
    }

    #[test]
    fn satisfiability_chained() {
        // x <= y, y <= z, z <= x - 1 is unsat
        let p = Polyhedron::from_atoms(vec![
            Atom::le(var("x"), var("y")),
            Atom::le(var("y"), var("z")),
            Atom::le(var("z"), &var("x") - &c(1)),
        ]);
        assert!(p.is_empty_set());
        // ... but z <= x + 1 is fine
        let q = Polyhedron::from_atoms(vec![
            Atom::le(var("x"), var("y")),
            Atom::le(var("y"), var("z")),
            Atom::le(var("z"), &var("x") + &c(1)),
        ]);
        assert!(!q.is_empty_set());
    }

    #[test]
    fn implication() {
        let p =
            Polyhedron::from_atoms(vec![Atom::ge(var("x"), c(1)), Atom::le(var("x"), var("y"))]);
        assert!(p.implies_atom(&Atom::ge(var("y"), c(1))));
        assert!(p.implies_atom(&Atom::ge(var("y"), var("x"))));
        assert!(!p.implies_atom(&Atom::ge(var("x"), c(2))));
        assert!(p.implies_atom(&Atom::gt(var("y"), c(0))));
    }

    #[test]
    fn implication_with_equalities() {
        let p = Polyhedron::from_atoms(vec![
            Atom::eq(var("x"), &var("y") + &c(1)),
            Atom::eq(var("y"), c(3)),
        ]);
        assert!(p.implies_atom(&Atom::eq(var("x"), c(4))));
        assert!(!p.implies_atom(&Atom::eq(var("x"), c(5))));
    }

    #[test]
    fn projection_transitive_bound() {
        // x <= y, y <= 5  projected onto {x}  =>  x <= 5
        let p =
            Polyhedron::from_atoms(vec![Atom::le(var("x"), var("y")), Atom::le(var("y"), c(5))]);
        let keep: BTreeSet<Symbol> = [Symbol::new("x")].into_iter().collect();
        let proj = p.project_onto(&keep);
        assert!(proj.implies_atom(&Atom::le(var("x"), c(5))));
        assert!(proj.symbols().iter().all(|s| s == &Symbol::new("x")));
    }

    #[test]
    fn projection_keeps_nonlinear_dims_over_kept_symbols() {
        // x^2 <= y, y <= 9 : the x^2 dimension survives projection because
        // its only base symbol is x.
        let x2 = &var("x") * &var("x");
        let p = Polyhedron::from_atoms(vec![
            Atom::le(x2.clone(), var("y")),
            Atom::le(var("y"), c(9)),
        ]);
        let keep_xy: BTreeSet<Symbol> = [Symbol::new("x"), Symbol::new("y")].into_iter().collect();
        let proj = p.project_onto(&keep_xy);
        assert!(proj.implies_atom(&Atom::le(x2.clone(), c(9))));
        let keep_x: BTreeSet<Symbol> = [Symbol::new("x")].into_iter().collect();
        let proj_x = p.project_onto(&keep_x);
        assert!(proj_x.implies_atom(&Atom::le(x2, c(9))));
    }

    #[test]
    fn eliminate_single_symbol() {
        let p = Polyhedron::from_atoms(vec![
            Atom::eq(var("mid"), &var("x") + &c(1)),
            Atom::eq(var("y"), &var("mid") + &c(1)),
        ]);
        let drop: BTreeSet<Symbol> = [Symbol::new("mid")].into_iter().collect();
        let out = p.eliminate(&drop);
        assert!(out.implies_atom(&Atom::eq(var("y"), &var("x") + &c(2))));
        assert!(!out.symbols().contains(&Symbol::new("mid")));
    }

    #[test]
    fn join_intervals() {
        // hull of [0,1] and [3,4] is [0,4]
        let a = Polyhedron::from_atoms(vec![Atom::ge(var("x"), c(0)), Atom::le(var("x"), c(1))]);
        let b = Polyhedron::from_atoms(vec![Atom::ge(var("x"), c(3)), Atom::le(var("x"), c(4))]);
        let hull = a.join(&b);
        assert!(hull.implies_atom(&Atom::ge(var("x"), c(0))));
        assert!(hull.implies_atom(&Atom::le(var("x"), c(4))));
        assert!(!hull.implies_atom(&Atom::le(var("x"), c(3))));
    }

    #[test]
    fn join_points_recovers_line() {
        // hull of {x=0, y=0} and {x=1, y=1} implies x = y
        let a = Polyhedron::from_atoms(vec![Atom::eq(var("x"), c(0)), Atom::eq(var("y"), c(0))]);
        let b = Polyhedron::from_atoms(vec![Atom::eq(var("x"), c(1)), Atom::eq(var("y"), c(1))]);
        let hull = a.join(&b);
        assert!(hull.implies_atom(&Atom::eq(var("x"), var("y"))));
        assert!(hull.implies_atom(&Atom::ge(var("x"), c(0))));
        assert!(hull.implies_atom(&Atom::le(var("x"), c(1))));
    }

    #[test]
    fn join_with_empty_operand() {
        let a = Polyhedron::from_atoms(vec![Atom::eq(var("x"), c(7))]);
        let empty = Polyhedron::contradiction();
        assert_eq!(a.join(&empty).atoms().len(), a.atoms().len());
        assert_eq!(empty.join(&a).atoms().len(), a.atoms().len());
    }

    #[test]
    fn join_unbounded() {
        // hull of {x >= 0} and {x >= 2, y = 0} should still imply x >= 0.
        let a = Polyhedron::from_atoms(vec![Atom::ge(var("x"), c(0))]);
        let b = Polyhedron::from_atoms(vec![Atom::ge(var("x"), c(2)), Atom::eq(var("y"), c(0))]);
        let hull = a.join(&b);
        assert!(hull.implies_atom(&Atom::ge(var("x"), c(0))));
        assert!(!hull.implies_atom(&Atom::ge(var("x"), c(2))));
    }

    #[test]
    fn weak_join_is_sound() {
        let a = Polyhedron::from_atoms(vec![Atom::eq(var("x"), c(0))]);
        let b = Polyhedron::from_atoms(vec![Atom::eq(var("x"), c(1))]);
        let wj = a.weak_join(&b);
        // 0 <= x <= 1 must be implied (equalities weaken to inequalities).
        assert!(wj.implies_atom(&Atom::ge(var("x"), c(0))));
        assert!(wj.implies_atom(&Atom::le(var("x"), c(1))));
    }

    #[test]
    fn subset_check() {
        let small =
            Polyhedron::from_atoms(vec![Atom::ge(var("x"), c(1)), Atom::le(var("x"), c(2))]);
        let big = Polyhedron::from_atoms(vec![Atom::ge(var("x"), c(0)), Atom::le(var("x"), c(5))]);
        assert!(small.is_subset_of(&big));
        assert!(!big.is_subset_of(&small));
    }

    #[test]
    fn upper_bounds() {
        let p = Polyhedron::from_atoms(vec![
            Atom::le(var("x"), &var("n") + &c(1)),
            Atom::le(var("x").scale(&rat(2)), c(10)),
            Atom::ge(var("x"), c(0)),
        ]);
        let ubs = p.upper_bounds_on(&Symbol::new("x"));
        assert_eq!(ubs.len(), 2);
        assert!(ubs.iter().any(|b| b.to_string() == "n + 1"));
        assert!(ubs.iter().any(|b| b.to_string() == "5"));
    }

    #[test]
    fn simplify_removes_redundant_parallel_constraints() {
        let p = Polyhedron::from_atoms(vec![
            Atom::le(var("x"), c(5)),
            Atom::le(var("x"), c(9)),
            Atom::le(c(0), c(1)),
        ]);
        let s = p.simplify();
        assert_eq!(s.len(), 1);
        assert!(s.implies_atom(&Atom::le(var("x"), c(5))));
    }

    #[test]
    fn simplify_round_trips_a_canonical_nonlinear_atom() {
        // 1/2·x² - 3/2·x·y + y - 5/2 ≤ 0 canonicalizes to
        // x² - 3·x·y + 2·y - 5 ≤ 0.  Linearized, the dimension symbols of
        // x² and x·y sort after both variables, while as monomials x·y sorts
        // between x and y: the row → polynomial conversion must restore
        // monomial order and leave the atom as it was.
        let (x2, xy) = (&var("x") * &var("x"), &var("x") * &var("y"));
        let half = chora_numeric::ratio(1, 2);
        let poly = &(&(&x2.scale(&half) - &xy.scale(&chora_numeric::ratio(3, 2))) + &var("y"))
            - &Polynomial::constant(chora_numeric::ratio(5, 2));
        let atom = Atom::le_zero(poly).canonical();
        let integral = &(&(&x2 - &xy.scale(&rat(3))) + &var("y").scale(&rat(2))) - &c(5);
        assert_eq!(atom, Atom::le_zero(integral));
        assert_eq!(atom.canonical(), atom);
        let p = Polyhedron::from_atoms(vec![atom.clone()]);
        assert_eq!(p.atoms(), std::slice::from_ref(&atom));
        assert_eq!(p.simplify().atoms(), std::slice::from_ref(&atom));
    }

    #[test]
    fn implies_all_matches_per_atom_checks() {
        let x2 = &var("x") * &var("x");
        let p = Polyhedron::from_atoms(vec![
            Atom::ge(var("x"), c(1)),
            Atom::le(var("x"), var("y")),
            Atom::le(x2.clone(), c(9)),
            Atom::eq(var("z"), &var("y") + &c(1)),
        ]);
        let goal_sets: Vec<Vec<Atom>> = vec![
            vec![Atom::ge(var("y"), c(1)), Atom::gt(var("z"), var("y"))],
            vec![Atom::le(x2.clone(), c(10)), Atom::ge(var("x"), c(1))],
            vec![Atom::ge(var("y"), c(1)), Atom::ge(var("x"), c(2))], // second fails
            vec![Atom::le(c(0), c(1))],                               // trivially true
            vec![Atom::le(c(1), c(0))],                               // trivially false
            vec![Atom::eq(var("z"), &var("y") + &c(1))],
        ];
        for goals in &goal_sets {
            let expected = goals.iter().all(|a| p.implies_atom(a));
            assert_eq!(
                p.implies_all(goals),
                expected,
                "batched and per-atom entailment disagree on {goals:?}"
            );
        }
        // An unsatisfiable polyhedron implies everything, including false.
        let empty = Polyhedron::contradiction();
        assert!(empty.implies_all(&[Atom::le(c(1), c(0))]));
        assert!(empty.implies_all(&[Atom::ge(var("q"), c(5))]));
    }

    #[test]
    fn substitution_detects_contradiction() {
        let p = Polyhedron::from_atoms(vec![Atom::le(var("x"), c(3))]);
        let q = p.substitute(&Symbol::new("x"), &c(10));
        assert!(q.is_empty_set());
    }

    #[test]
    fn emptiness_key_is_the_hash_of_the_extended_atom_list() {
        let p =
            Polyhedron::from_atoms(vec![Atom::ge(var("x"), c(1)), Atom::le(var("x"), var("y"))]);
        let neg = Atom::lt(var("y"), c(1));
        let mut extended = p.atoms().to_vec();
        extended.push(neg.clone());
        let mut h = FingerprintBuilder::new();
        extended.hash(&mut h);
        // `implies_atom` keys `atoms ++ [¬a]` exactly as `is_empty_set`
        // keys that list, so the two share memo entries.
        assert_eq!(emptiness_key(p.atoms(), Some(&neg)), h.finish());
        assert_eq!(emptiness_key(&extended, None), h.finish());
        assert_ne!(emptiness_key(p.atoms(), None), h.finish());
    }

    /// A store row `Σ coeffs + constant ◇ 0` with an empty certificate.
    fn fm_row(coeffs: &[(&str, i64)], constant: i64, kind: AtomKind) -> FmRow<LinearExpr> {
        FmRow {
            expr: LinearExpr::from_parts(
                coeffs.iter().map(|(s, k)| (Symbol::new(s), rat(*k))),
                rat(constant),
            ),
            kind,
            anc: Ancestors::default(),
            gone: GoneDims::default(),
        }
    }

    fn live(store: &RowStore<LinearExpr>) -> Vec<(String, AtomKind)> {
        store
            .live_rows()
            .map(|r| (r.expr.to_string(), r.kind))
            .collect()
    }

    fn rows(rows: &[(&str, AtomKind)]) -> Vec<(String, AtomKind)> {
        rows.iter().map(|(e, k)| (e.to_string(), *k)).collect()
    }

    #[test]
    fn row_store_keeps_distinct_rows_that_share_a_hash() {
        use AtomKind::Le;
        // Mask every key hash to zero: all rows land in one chain.
        KEY_HASH_MASK.with(|mask| mask.set(0));
        let mut store = RowStore::with_capacity(0);
        for name in ["x", "y", "z"] {
            store.insert(fm_row(&[(name, 1)], -1, Le), false).unwrap();
        }
        assert_eq!(store.live, 3);
        assert_eq!(store.index.len(), 1);
        // A duplicate of the oldest row is found behind the two newer ones.
        store.insert(fm_row(&[("x", 1)], -1, Le), false).unwrap();
        assert_eq!(store.rows.len(), 3);
        // Removing the middle of the chain leaves both ends findable.
        let y = store
            .find(&fm_row(&[("y", 1)], 0, Le), 0)
            .expect("y is live");
        store.remove(y);
        assert!(store.find(&fm_row(&[("y", 1)], 0, Le), 0).is_none());
        assert!(store.find(&fm_row(&[("x", 1)], 0, Le), 0).is_some());
        assert!(store.find(&fm_row(&[("z", 1)], 0, Le), 0).is_some());
        // A tighter `z` row replaces the chain's head; `x` stays findable.
        store.insert(fm_row(&[("z", 1)], 1, Le), false).unwrap();
        assert!(store.find(&fm_row(&[("x", 1)], 0, Le), 0).is_some());
        assert_eq!(live(&store), rows(&[("x - 1", Le), ("z + 1", Le)]));
        KEY_HASH_MASK.with(|mask| mask.set(u64::MAX));
    }

    #[test]
    fn projection_does_not_depend_on_hash_collisions() {
        let x = |i: usize| var(&format!("x{i}"));
        let mut atoms = Vec::new();
        for i in 0..5 {
            atoms.push(Atom::le(x(i + 1), &x(i).scale(&rat(2)) + &c(i as i64 + 1)));
            atoms.push(Atom::ge(x(i + 1).scale(&rat(3)), &x(i) - &c(2)));
            atoms.push(Atom::le(&x(i + 1) - &x(i), c(4)));
            atoms.push(Atom::le(&x(i + 1) - &x(i), c(6)));
        }
        atoms.push(Atom::eq(var("y"), &x(0) + &x(3)));
        atoms.push(Atom::eq(
            var("z").scale(&rat(2)),
            &(&var("y") - &x(5)) + &c(1),
        ));
        atoms.push(Atom::ge(var("y"), c(0)));
        atoms.push(Atom::le(var("z"), c(10)));
        let drop: Vec<Symbol> = ["x1", "x2", "x3", "x4", "y", "z"]
            .iter()
            .map(|s| Symbol::new(s))
            .collect();
        let project = || {
            let mut sys = Linearized::new(&atoms).expect("satisfiable");
            sys.project(&drop, None);
            (sys.unsat, sys.constraints)
        };
        let exact = project();
        // Two hash values for every row: chains mix many different keys.
        KEY_HASH_MASK.with(|mask| mask.set(1));
        let colliding = project();
        KEY_HASH_MASK.with(|mask| mask.set(u64::MAX));
        assert!(!exact.0 && !exact.1.is_empty());
        assert_eq!(exact, colliding);
    }

    #[test]
    fn row_store_folds_equation_orientations_only() {
        use AtomKind::{Eq, Le};
        let p = fm_row(&[("x", 1), ("y", -1)], 0, Eq);
        let minus_p = fm_row(&[("x", -1), ("y", 1)], 0, Eq);
        assert_eq!(key_hash(&p), key_hash(&minus_p));
        // `p = 0` and `−p = 0` share a slot: the second is a duplicate...
        let mut store = RowStore::with_capacity(0);
        store.insert(p, false).unwrap();
        store.insert(minus_p, false).unwrap();
        assert_eq!(store.live, 1);
        // ... and `−p + 1 = 0` contradicts `p = 0` in that slot.
        store
            .insert(fm_row(&[("x", -1), ("y", 1)], 1, Eq), false)
            .unwrap();
        assert!(store.unsat);
        // `p ≤ 0` and `−p ≤ 0` are different constraints.
        let mut store = RowStore::with_capacity(0);
        store
            .insert(fm_row(&[("x", 1), ("y", -1)], 0, Le), false)
            .unwrap();
        store
            .insert(fm_row(&[("x", -1), ("y", 1)], 0, Le), false)
            .unwrap();
        assert_eq!(store.live, 2);
    }

    #[test]
    fn pos_neg_step_keeps_unchanged_rows_in_order_ahead_of_combinations() {
        use AtomKind::Le;
        let mut store = RowStore::with_capacity(0);
        store
            .insert(fm_row(&[("x", 1), ("d", -1)], 0, Le), false)
            .unwrap(); // x ≤ d
        store.insert(fm_row(&[("y", 1)], -1, Le), false).unwrap();
        store.insert(fm_row(&[("d", 1)], -5, Le), false).unwrap(); // d ≤ 5
        store.insert(fm_row(&[("z", 1)], -2, Le), false).unwrap();
        assert!(!eliminate_rows(&mut store, Symbol::new("d"), None).unwrap());
        assert_eq!(
            live(&store),
            rows(&[("y - 1", Le), ("z - 2", Le), ("x - 5", Le)])
        );
    }

    #[test]
    fn substitution_step_keeps_surviving_rows_in_insertion_order() {
        use AtomKind::{Eq, Le};
        let mut store = RowStore::with_capacity(0);
        store.insert(fm_row(&[("y", 1)], -1, Le), false).unwrap();
        store
            .insert(fm_row(&[("d", 1), ("x", -1)], 0, Eq), false)
            .unwrap(); // d = x
        store.insert(fm_row(&[("z", 1)], -2, Le), false).unwrap();
        store.insert(fm_row(&[("w", 1)], -3, Le), false).unwrap();
        store.insert(fm_row(&[("d", 1)], -5, Le), false).unwrap(); // d ≤ 5
        assert!(eliminate_rows(&mut store, Symbol::new("d"), None).unwrap());
        assert_eq!(
            live(&store),
            rows(&[("y - 1", Le), ("z - 2", Le), ("w - 3", Le), ("x - 5", Le)])
        );
    }

    #[test]
    fn rename_polyhedron() {
        let p = Polyhedron::from_atoms(vec![Atom::le(var("x"), c(3))]);
        let r = p.rename(&mut |s| s.primed());
        assert!(r.symbols().contains(&Symbol::new("x'")));
    }

    /// `Σ coeffs + constant ◇ 0` as an atom.
    fn lin_atom(coeffs: &[(&str, i64)], constant: i64, kind: AtomKind) -> Atom {
        let mut poly = c(constant);
        for (s, k) in coeffs {
            poly = &poly + &var(s).scale(&rat(*k));
        }
        Atom { poly, kind }
    }

    fn syms(names: &[&str]) -> Vec<Symbol> {
        names.iter().map(|s| Symbol::new(s)).collect()
    }

    /// One projection pass over the linearized `atoms`, once as `project`
    /// runs it (machine-integer rows first) and once on rational rows only.
    fn pass_both_ways(
        atoms: &[Atom],
        drop: &[Symbol],
        abort_over: Option<usize>,
    ) -> (Pass<LinearExpr>, Pass<LinearExpr>) {
        let mut sys = Linearized::new(atoms).expect("no ground-false atom");
        let rational = run_pass(sys.constraints.clone(), drop.iter().copied(), abort_over)
            .expect("rational rows do not overflow");
        (sys.pass(drop, abort_over), rational)
    }

    /// Requires the two passes to leave the same rows, verdicts and counts,
    /// and returns how many restarts the first one counted.
    fn same_pass(int_first: &Pass<LinearExpr>, rational: &Pass<LinearExpr>) -> u64 {
        assert_eq!(int_first.rows, rational.rows);
        assert_eq!(int_first.unsat, rational.unsat);
        assert_eq!(int_first.finished, rational.finished);
        let restarts = int_first.stats.overflow_restarts;
        assert_eq!(
            FmStats {
                overflow_restarts: 0,
                ..int_first.stats
            },
            rational.stats
        );
        restarts
    }

    #[test]
    fn integer_pass_that_overflows_after_generating_rows_restarts_and_counts_once() {
        use AtomKind::Le;
        let drop = syms(&["ov_t", "ov_a"]);
        let (h, k, g, l) = ((1 << 40) + 1, (1 << 40) - 1, (1 << 41) + 1, (1 << 41) - 1);
        // `ov_t` goes first (growth −1 against +1) and breeds `ov_a − 1 ≤ 0`
        // from small rows; eliminating `ov_a` then multiplies ~2^40 by ~2^41.
        let atoms = [
            lin_atom(&[("ov_a", 1), ("ov_t", -1)], 0, Le),
            lin_atom(&[("ov_t", 1)], -1, Le),
            lin_atom(&[("ov_a", h), ("ov_b", k)], 0, Le),
            lin_atom(&[("ov_a", -g), ("ov_b", l)], -1, Le),
            lin_atom(&[("ov_a", 1), ("ov_b", 1)], -5, Le),
            lin_atom(&[("ov_a", -1), ("ov_b", -1)], 0, Le),
        ];
        let sys = Linearized::new(&atoms).expect("satisfiable");
        assert!(int_pass(&sys.constraints, &drop, None).is_err());
        assert!(int_pass(&sys.constraints, &drop[..1], None).is_ok());
        let (int_first, rational) = pass_both_ways(&atoms, &drop, None);
        assert!(rational.stats.rows_generated > 1);
        assert_eq!(same_pass(&int_first, &rational), 1);
    }

    #[test]
    fn integer_rows_never_hold_i64_min() {
        use AtomKind::Le;
        // In the input: the pass never starts on integer rows.
        let atoms = [
            lin_atom(&[("mn_x", i64::MIN), ("mn_y", 1)], 0, Le),
            lin_atom(&[("mn_x", 1)], -4, Le),
            lin_atom(&[("mn_x", -1), ("mn_y", 3)], 0, Le),
        ];
        let drop = syms(&["mn_x"]);
        let sys = Linearized::new(&atoms).expect("satisfiable");
        assert!(int_pass(&sys.constraints, &drop, None).is_err());
        let (int_first, rational) = pass_both_ways(&atoms, &drop, None);
        assert_eq!(same_pass(&int_first, &rational), 1);
        // Derived: `−2^62·y` doubled is exactly `i64::MIN`.
        let atoms = [
            lin_atom(&[("mn_d", 2), ("mn_z", 1)], 0, Le),
            lin_atom(&[("mn_d", -1), ("mn_y", -(1 << 62))], 0, Le),
        ];
        let drop = syms(&["mn_d"]);
        let sys = Linearized::new(&atoms).expect("satisfiable");
        assert!(int_pass(&sys.constraints, &drop, None).is_err());
        let (int_first, rational) = pass_both_ways(&atoms, &drop, None);
        assert_eq!(same_pass(&int_first, &rational), 1);
    }

    #[test]
    fn integer_pass_breaks_growth_ties_toward_the_least_symbol() {
        use AtomKind::Le;
        // `tb_a` sorts before `tb_b` but occurs after it; both have growth
        // −1, so the tie decides which goes first.
        let drop = syms(&["tb_a", "tb_b", "tb_d"]);
        let atoms = [
            lin_atom(&[("tb_b", 1), ("tb_d", 1)], 0, Le),
            lin_atom(&[("tb_b", -1)], 0, Le),
            lin_atom(&[("tb_a", 1), ("tb_d", -1)], 0, Le),
            lin_atom(&[("tb_a", -1)], -1, Le),
        ];
        let (int_first, rational) = pass_both_ways(&atoms, &drop[..2], None);
        assert_eq!(same_pass(&int_first, &rational), 0);
        // `tb_a` went first, so its combination is the older row.
        assert_eq!(
            rational.rows,
            vec![
                (LinearExpr::from_parts([(drop[2], rat(-1))], rat(-1)), Le),
                (LinearExpr::var(drop[2]), Le),
            ]
        );
    }

    /// The Kohler regression system of `prop_fm.rs` over `a`, `b`, `c`.
    fn kohler_rows(a: &str, b: &str, c: &str) -> Vec<Atom> {
        [
            [1, 0, 2, 2],
            [1, -3, -2, 8],
            [-3, 3, -1, -2],
            [1, 1, -2, -6],
            [-3, 3, 1, 7],
            [-2, -2, 0, -1],
        ]
        .iter()
        .map(|&[x, y, z, k]| lin_atom(&[(a, x), (b, y), (c, z)], k, AtomKind::Le))
        .collect()
    }

    #[test]
    fn integer_pass_keeps_first_occurrence_dimension_bits_past_128_dimensions() {
        // The core symbols sort first, but a first row over 130 symbols of
        // its own occurs before them, so the core dimensions take gone-set
        // bits past 128 and Kohler's skip is declined for their
        // descendants (the rows themselves keep exact ancestor bits).
        let core = syms(&["wide_a", "wide_b", "wide_c"]);
        let fillers: Vec<String> = (0..130).map(|i| format!("wide_f{i}")).collect();
        let wide_row: Vec<(&str, i64)> = fillers.iter().map(|f| (f.as_str(), 1)).collect();
        let mut atoms = vec![lin_atom(&wide_row, -1, AtomKind::Le)];
        atoms.extend(kohler_rows("wide_a", "wide_b", "wide_c"));
        let drop = &core[..2];
        let (narrow_int, narrow) = pass_both_ways(&atoms[1..], drop, None);
        assert_eq!(same_pass(&narrow_int, &narrow), 0);
        assert!(narrow.stats.imbert_skipped > 0);
        let (wide_int, wide) = pass_both_ways(&atoms, drop, None);
        assert_eq!(same_pass(&wide_int, &wide), 0);
        assert_eq!(wide.stats.imbert_skipped, 0);
    }

    #[test]
    fn integer_pass_substitutes_like_the_rational_pass() {
        use AtomKind::{Eq, Le, Lt};
        let atoms = [
            lin_atom(&[("su_d", 3), ("su_x", -1)], 1, Eq),
            lin_atom(&[("su_e", -2), ("su_x", 1), ("su_y", 1)], 0, Eq),
            lin_atom(&[("su_d", 1)], -5, Le),
            lin_atom(&[("su_x", 1), ("su_d", -2)], -3, Lt),
            lin_atom(&[("su_e", 2), ("su_y", 3), ("su_d", 1)], 7, Le),
            lin_atom(&[("su_e", -4), ("su_y", 2)], 1, Le),
            lin_atom(&[("su_x", 2), ("su_y", 2), ("su_e", 1)], 1, Le),
        ];
        let drop = syms(&["su_d", "su_e", "su_x"]);
        let (int_first, rational) = pass_both_ways(&atoms, &drop, None);
        assert_eq!(same_pass(&int_first, &rational), 0);
        assert!(!rational.rows.is_empty());
        // A fractional constant survives into the result.
        assert!(rational
            .rows
            .iter()
            .any(|(e, _)| !e.constant_term().is_integer()));
    }

    #[test]
    fn integer_pass_stops_at_abort_over_like_the_rational_pass() {
        let x = |i: usize| format!("ab_x{i}");
        let mut atoms = Vec::new();
        for i in 0..4 {
            let (lo, hi) = (x(i), x(i + 1));
            atoms.push(lin_atom(&[(&lo, 1), (&hi, -2)], 1, AtomKind::Le));
            atoms.push(lin_atom(&[(&lo, -3), (&hi, 1)], -2, AtomKind::Le));
        }
        let drop = syms(&["ab_x1", "ab_x2", "ab_x3"]);
        let (int_first, rational) = pass_both_ways(&atoms, &drop, Some(4));
        assert_eq!(same_pass(&int_first, &rational), 0);
        assert!(!rational.finished);
        let (int_first, rational) = pass_both_ways(&atoms, &drop, None);
        assert_eq!(same_pass(&int_first, &rational), 0);
        assert!(rational.finished);
    }
}
