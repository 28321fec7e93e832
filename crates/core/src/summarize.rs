//! Intra-procedural summarization (the `Summary(P, φ)` / `PathSummary`
//! primitives of §3), realized over the structured IR.
//!
//! A statement is summarized bottom-up into a [`TransitionFormula`]; loops
//! are summarized by Compositional-Recurrence-Analysis-style extraction of
//! per-variable difference recurrences, closed under an explicit iteration
//! counter, and bounded by syntactic ranking candidates.  Calls are replaced
//! by the summary supplied for the callee (the *hypothetical summary*
//! `φ_call` of Alg. 2 for calls within the strongly connected component
//! under analysis, the already-computed summary otherwise).
//!
//! [`Summarizer::walk`] is the one forward pass over a body: it carries the
//! formula reaching each statement and hands every `assert` and every call
//! to a visitor, which is how assertions are checked and how the depth
//! analysis collects its descents.  The visitor can stop the walk, and
//! both of them do so right after the last statement they read, so no
//! formula is built past it.

use crate::lower::{lower_cond, lower_cond_negated, lower_expr};
use chora_expr::{FreshSource, Polynomial, Symbol};
use chora_ir::{Cond, Expr, Procedure, Program, Stmt};
use chora_logic::{Atom, Polyhedron, TransitionFormula};
use chora_numeric::BigRational;
use std::collections::{BTreeMap, BTreeSet};
use std::ops::ControlFlow;
use std::sync::RwLock;

/// The summary of a statement: behaviours that fall through plus behaviours
/// that exit the enclosing procedure through a `return`.
#[derive(Clone, Debug)]
pub struct StmtSummary {
    /// Behaviours that reach the statement's sequential successor.
    pub fall_through: TransitionFormula,
    /// Behaviours that execute `return` somewhere inside the statement.
    pub returned: TransitionFormula,
}

/// A statement at which [`Summarizer::walk`] calls its visitor.
#[derive(Clone, Copy, Debug)]
pub enum Visit<'s> {
    /// `assert(cond)` with its label.
    Assert(&'s Cond, &'s str),
    /// A call, with the callee's name and the actual arguments.
    Call(&'s str, &'s [Expr]),
}

/// The local variable used to carry a procedure's return value; its primed
/// version is the `return'` symbol of the paper.
pub fn return_variable() -> Symbol {
    Symbol::new("ret")
}

/// Intra-procedural summarizer.
///
/// The summary table sits behind an [`RwLock`] so that a single `Summarizer`
/// can be shared by reference across the concurrently-summarized components
/// of one call-graph level (reads vastly outnumber the one write per
/// component); every summarization method takes the analysis task's
/// [`FreshSource`] so that fresh existential symbols are deterministic per
/// task rather than drawn from global mutable state.
pub struct Summarizer<'a> {
    program: &'a Program,
    /// Summaries of procedures outside the SCC currently being analysed,
    /// expressed over `globals ∪ params (pre)` and `globals' ∪ ret'`.
    summaries: RwLock<BTreeMap<String, TransitionFormula>>,
}

impl<'a> Summarizer<'a> {
    /// Creates a summarizer for a program.
    pub fn new(program: &'a Program) -> Summarizer<'a> {
        Summarizer {
            program,
            summaries: RwLock::new(BTreeMap::new()),
        }
    }

    /// The program being analysed.
    pub fn program(&self) -> &Program {
        self.program
    }

    /// Records the finished summary of a procedure.
    pub fn insert_summary(&self, name: impl Into<String>, formula: TransitionFormula) {
        self.summaries
            .write()
            .expect("summary table lock")
            .insert(name.into(), formula);
    }

    /// The already-computed summary of a procedure, if any.
    pub fn summary_of(&self, name: &str) -> Option<TransitionFormula> {
        self.summaries
            .read()
            .expect("summary table lock")
            .get(name)
            .cloned()
    }

    /// The full variable vocabulary of a procedure: globals, parameters,
    /// locals, every assigned temporary, and the return carrier.
    pub fn proc_vars(&self, proc: &Procedure) -> Vec<Symbol> {
        let mut vars: Vec<Symbol> = self.program.globals.clone();
        for p in &proc.params {
            if !vars.contains(p) {
                vars.push(*p);
            }
        }
        for l in &proc.locals {
            if !vars.contains(l) {
                vars.push(*l);
            }
        }
        for v in proc.body.assigned_variables() {
            if !vars.contains(&v) {
                vars.push(v);
            }
        }
        let ret = return_variable();
        if !vars.contains(&ret) {
            vars.push(ret);
        }
        vars
    }

    /// The externally visible vocabulary of a procedure summary:
    /// `globals ∪ params` (pre-state) and `globals' ∪ ret'` (post-state).
    pub fn summary_vocabulary(&self, proc: &Procedure) -> BTreeSet<Symbol> {
        let mut keep: BTreeSet<Symbol> = BTreeSet::new();
        for g in &self.program.globals {
            keep.insert(*g);
            keep.insert(g.primed());
        }
        for p in &proc.params {
            keep.insert(*p);
        }
        keep.insert(return_variable().primed());
        keep
    }

    /// `Summary(P, φ)`: summarizes the whole procedure, interpreting calls to
    /// procedures in `scc_override` by the given formulas (e.g. `false` for
    /// the base-case summary β, or the hypothetical summary `φ_call`), and
    /// all other calls by their already-computed summaries.
    ///
    /// The result is expressed over the summary vocabulary (locals and
    /// parameters' post-state are projected away) and additionally keeps any
    /// rigid symbols (such as `b_k(h)`) introduced by `scc_override`.
    pub fn summarize_procedure(
        &self,
        proc: &Procedure,
        scc_override: &BTreeMap<String, TransitionFormula>,
        fresh: &FreshSource,
    ) -> TransitionFormula {
        let vars = self.proc_vars(proc);
        let body = self.summarize_stmt(&proc.body, &vars, scc_override, fresh);
        let total = body.fall_through.union(&body.returned);
        let keep = self.summary_vocabulary(proc);
        // Keep rigid symbols (anything that is not a program variable of this
        // procedure, primed or not).
        let mut keep_with_rigid = keep.clone();
        for s in total.symbols() {
            let base = s.unprimed();
            if !vars.contains(&base) {
                keep_with_rigid.insert(s);
            }
        }
        total.project_onto(&keep_with_rigid).simplify()
    }

    /// Summarizes a statement over the given variable vocabulary.
    pub fn summarize_stmt(
        &self,
        stmt: &Stmt,
        vars: &[Symbol],
        scc_override: &BTreeMap<String, TransitionFormula>,
        fresh: &FreshSource,
    ) -> StmtSummary {
        match stmt {
            Stmt::Skip | Stmt::Assert(_, _) => StmtSummary {
                fall_through: TransitionFormula::identity(vars),
                returned: TransitionFormula::bottom(),
            },
            Stmt::Assign(v, e) => {
                let lowered = lower_expr(e, fresh);
                let mut atoms = vec![Atom::eq(Polynomial::var(v.primed()), lowered.value.clone())];
                atoms.extend(lowered.constraints.clone());
                for w in vars {
                    if w != v {
                        atoms.push(Atom::eq(Polynomial::var(w.primed()), Polynomial::var(*w)));
                    }
                }
                let mut tf = TransitionFormula::from_polyhedron(Polyhedron::from_atoms(atoms));
                if !lowered.fresh.is_empty() {
                    let drop: BTreeSet<Symbol> = lowered.fresh.into_iter().collect();
                    tf = tf.eliminate(&drop);
                }
                StmtSummary {
                    fall_through: tf,
                    returned: TransitionFormula::bottom(),
                }
            }
            Stmt::Havoc(v) => StmtSummary {
                fall_through: TransitionFormula::havoc(std::slice::from_ref(v), vars),
                returned: TransitionFormula::bottom(),
            },
            Stmt::Assume(c) => StmtSummary {
                fall_through: assume(lower_cond(c, fresh), vars),
                returned: TransitionFormula::bottom(),
            },
            Stmt::Seq(stmts) => {
                let mut fall = TransitionFormula::identity(vars);
                let mut returned = TransitionFormula::bottom();
                for s in stmts {
                    let sub = self.summarize_stmt(s, vars, scc_override, fresh);
                    returned = returned.union(&fall.sequence(&sub.returned, vars));
                    fall = fall.sequence(&sub.fall_through, vars);
                    if fall.is_bottom() && returned.is_bottom() {
                        break;
                    }
                }
                StmtSummary {
                    fall_through: fall,
                    returned,
                }
            }
            Stmt::If(c, then_branch, else_branch) => {
                let then_sum = self.summarize_stmt(then_branch, vars, scc_override, fresh);
                let else_sum = self.summarize_stmt(else_branch, vars, scc_override, fresh);
                let (guard_t, guard_f) = guards(c, vars, fresh);
                StmtSummary {
                    fall_through: guard_t
                        .sequence(&then_sum.fall_through, vars)
                        .union(&guard_f.sequence(&else_sum.fall_through, vars)),
                    returned: guard_t
                        .sequence(&then_sum.returned, vars)
                        .union(&guard_f.sequence(&else_sum.returned, vars)),
                }
            }
            Stmt::While(c, body) => {
                let body_sum = self.summarize_stmt(body, vars, scc_override, fresh);
                let (guard_t, guard_f) = guards(c, vars, fresh);
                let one_iteration = guard_t.sequence(&body_sum.fall_through, vars);
                let iterations = self.loop_summary(&one_iteration, vars, fresh);
                StmtSummary {
                    fall_through: iterations.sequence(&guard_f, vars),
                    returned: iterations
                        .sequence(&guard_t, vars)
                        .sequence(&body_sum.returned, vars),
                }
            }
            Stmt::Return(e) => {
                let assign = match e {
                    None => TransitionFormula::identity(vars),
                    Some(expr) => {
                        let sub = self.summarize_stmt(
                            &Stmt::Assign(return_variable(), expr.clone()),
                            vars,
                            scc_override,
                            fresh,
                        );
                        sub.fall_through
                    }
                };
                StmtSummary {
                    fall_through: TransitionFormula::bottom(),
                    returned: assign,
                }
            }
            Stmt::Call { callee, args, ret } => {
                let callee_summary = match scc_override.get(callee) {
                    Some(f) => f.clone(),
                    None => self
                        .summary_of(callee)
                        .unwrap_or_else(|| self.unknown_call_summary()),
                };
                let tf = self.apply_call(&callee_summary, callee, args, ret.as_ref(), vars, fresh);
                StmtSummary {
                    fall_through: tf,
                    returned: TransitionFormula::bottom(),
                }
            }
        }
    }

    /// The forward walk over `stmt`: carries the formula reaching each
    /// statement, starting from `prefix`, and passes every `assert` and
    /// every call, with the formula reaching it, to `visit`.  Returns the
    /// formula reaching the statement's sequential successor.
    ///
    /// Other statements are stepped over by their summaries under
    /// `scc_override` (as in [`Summarizer::summarize_stmt`]); a loop body is
    /// walked under the loop's closure followed by its guard, and `return`
    /// ends the path.
    ///
    /// The visitor stops the walk by returning [`ControlFlow::Break`]: the
    /// walk then returns `Break` at once, without sequencing anything after
    /// that visit (the rest of a sequence, the else branch of an `if` whose
    /// then branch broke, a loop's exit).  Everything before it runs as in a
    /// full walk, so each visit sees the same reaching formula and the same
    /// fresh symbols whether or not a later visit breaks.
    pub fn walk(
        &self,
        stmt: &Stmt,
        vars: &[Symbol],
        scc_override: &BTreeMap<String, TransitionFormula>,
        prefix: TransitionFormula,
        fresh: &FreshSource,
        visit: &mut dyn FnMut(Visit<'_>, &TransitionFormula) -> ControlFlow<()>,
    ) -> ControlFlow<(), TransitionFormula> {
        match stmt {
            Stmt::Assert(cond, label) => {
                visit(Visit::Assert(cond, label), &prefix)?;
                ControlFlow::Continue(prefix)
            }
            Stmt::Seq(stmts) => stmts.iter().try_fold(prefix, |current, s| {
                self.walk(s, vars, scc_override, current, fresh, visit)
            }),
            Stmt::If(c, then_branch, else_branch) => {
                let (guard_t, guard_f) = guards(c, vars, fresh);
                let then_prefix = prefix.sequence(&guard_t, vars);
                let after_then =
                    self.walk(then_branch, vars, scc_override, then_prefix, fresh, visit)?;
                let else_prefix = prefix.sequence(&guard_f, vars);
                let after_else =
                    self.walk(else_branch, vars, scc_override, else_prefix, fresh, visit)?;
                ControlFlow::Continue(after_then.union(&after_else))
            }
            Stmt::While(c, body) => {
                let body_sum = self.summarize_stmt(body, vars, scc_override, fresh);
                let (guard_t, guard_f) = guards(c, vars, fresh);
                let one_iteration = guard_t.sequence(&body_sum.fall_through, vars);
                let iterations = self.loop_summary(&one_iteration, vars, fresh);
                let looped = prefix.sequence(&iterations, vars);
                let in_loop = looped.sequence(&guard_t, vars);
                self.walk(body, vars, scc_override, in_loop, fresh, visit)?;
                ControlFlow::Continue(looped.sequence(&guard_f, vars))
            }
            Stmt::Return(_) => ControlFlow::Continue(TransitionFormula::bottom()),
            other => {
                if let Stmt::Call { callee, args, .. } = other {
                    visit(Visit::Call(callee, args), &prefix)?;
                }
                let summary = self.summarize_stmt(other, vars, scc_override, fresh);
                ControlFlow::Continue(prefix.sequence(&summary.fall_through, vars))
            }
        }
    }

    /// Summary used for calls to procedures with no known summary (undefined
    /// externals): globals and the return value are havocked.
    fn unknown_call_summary(&self) -> TransitionFormula {
        TransitionFormula::top()
    }

    /// Binds a callee summary at a call site.
    fn apply_call(
        &self,
        callee_summary: &TransitionFormula,
        callee: &str,
        args: &[chora_ir::Expr],
        ret: Option<&Symbol>,
        vars: &[Symbol],
        fresh: &FreshSource,
    ) -> TransitionFormula {
        let formals: Vec<Symbol> = self
            .program
            .procedure(callee)
            .map(|p| p.params.clone())
            .unwrap_or_default();
        // Fresh names for formals and for the callee's return value.
        let arg_syms: Vec<Symbol> = formals.iter().map(|_| fresh.fresh()).collect();
        let rv = fresh.fresh();
        let renamed = callee_summary.rename(&mut |s| {
            if let Some(pos) = formals.iter().position(|f| f == s) {
                return arg_syms[pos];
            }
            if *s == return_variable().primed() {
                return rv;
            }
            *s
        });
        // Argument bindings and the caller-side frame.
        let mut atoms: Vec<Atom> = Vec::new();
        let mut to_drop: BTreeSet<Symbol> = arg_syms.iter().cloned().collect();
        to_drop.insert(rv);
        for (i, a) in args.iter().enumerate() {
            if i >= arg_syms.len() {
                break;
            }
            let lowered = lower_expr(a, fresh);
            atoms.push(Atom::eq(
                Polynomial::var(arg_syms[i]),
                lowered.value.clone(),
            ));
            atoms.extend(lowered.constraints);
            to_drop.extend(lowered.fresh);
        }
        if let Some(r) = ret {
            atoms.push(Atom::eq(Polynomial::var(r.primed()), Polynomial::var(rv)));
        }
        let globals: BTreeSet<Symbol> = self.program.globals.iter().cloned().collect();
        for v in vars {
            let is_written = globals.contains(v) || Some(v) == ret;
            if !is_written {
                atoms.push(Atom::eq(Polynomial::var(v.primed()), Polynomial::var(*v)));
            }
        }
        let bindings = Polyhedron::from_atoms(atoms);
        renamed.conjoin(&bindings).eliminate(&to_drop)
    }

    /// Summarizes `body^k` for `k ≥ 0`: the reflexive-transitive closure of a
    /// loop body, via difference-recurrence extraction plus a ranking-based
    /// bound on the number of iterations.
    pub fn loop_summary(
        &self,
        body: &TransitionFormula,
        vars: &[Symbol],
        fresh: &FreshSource,
    ) -> TransitionFormula {
        if body.is_bottom() {
            return TransitionFormula::identity(vars);
        }
        let mut keep: BTreeSet<Symbol> = BTreeSet::new();
        for v in vars {
            keep.insert(*v);
            keep.insert(v.primed());
        }
        for s in body.symbols() {
            let base = s.unprimed();
            if !vars.contains(&base) {
                keep.insert(s);
            }
        }
        let hull = body.abstract_hull(&keep);
        let k = fresh.fresh();
        let kp = Polynomial::var(k);
        let mut atoms: Vec<Atom> = vec![Atom::ge(kp.clone(), Polynomial::zero())];
        // Invariant pre-state symbols (unchanged program variables plus rigid
        // symbols).
        let invariant: BTreeSet<Symbol> = {
            let mut inv: BTreeSet<Symbol> = body
                .symbols()
                .iter()
                .filter(|s| !s.is_post() && !vars.contains(&s.unprimed()))
                .cloned()
                .collect();
            for v in vars {
                let eq = Atom::eq(Polynomial::var(v.primed()), Polynomial::var(*v));
                if hull.implies_atom(&eq) {
                    inv.insert(*v);
                }
            }
            inv
        };
        // The bound on the iteration count, if a ranking candidate is found.
        let k_bound = self.iteration_bound(&hull, vars);
        if let Some(bound) = &k_bound {
            atoms.push(Atom::le(kp.clone(), bound.clone()));
        }
        // Case splits on the sign of a symbolic per-iteration increment: for
        // `v' ≤ v + e·k` with non-constant `e`, the iterated bound
        // `v' ≤ v + e·kbound` is only sound when `e ≥ 0`, so a disjunctive
        // split on the sign of `e` is generated (capped to keep the number of
        // disjuncts small).
        let mut splits: Vec<(Polynomial, Polynomial, Symbol)> = Vec::new();
        for v in vars {
            let vp = Polynomial::var(v.primed());
            let v0 = Polynomial::var(*v);
            if hull.implies_atom(&Atom::eq(vp.clone(), v0.clone())) {
                atoms.push(Atom::eq(vp, v0));
                continue;
            }
            // Additive difference bounds: v' ≤ v + e·k and v' ≥ v + e·k.
            // Equalities are examined in both orientations.
            let mut oriented: Vec<Atom> = Vec::new();
            for atom in hull.atoms() {
                match atom.kind {
                    chora_logic::AtomKind::Eq => {
                        oriented.push(Atom::le_zero(atom.poly.clone()));
                        oriented.push(Atom::le_zero(-&atom.poly));
                    }
                    _ => oriented.push(atom.clone()),
                }
            }
            for atom in &oriented {
                if let Some(ub) = atom.upper_bound_on(&v.primed()) {
                    if let Some(delta) = invariant_difference(&ub, &v0, &invariant) {
                        atoms.push(Atom::le(vp.clone(), &v0 + &(&delta * &kp)));
                        if let Some(bound) = &k_bound {
                            if hull.implies_atom(&Atom::ge(delta.clone(), Polynomial::zero()))
                                || delta
                                    .as_constant()
                                    .map(|c| !c.is_negative())
                                    .unwrap_or(false)
                            {
                                // e ≥ 0 and k ≤ bound  ⇒  v' ≤ v + e·bound.
                                atoms.push(Atom::le(vp.clone(), &v0 + &(&delta * bound)));
                            } else if !delta.is_constant() && splits.len() < 2 {
                                splits.push((delta.clone(), bound.clone(), *v));
                            }
                        }
                    }
                }
                if let Some(lb) = atom.lower_bound_on(&v.primed()) {
                    if let Some(delta) = invariant_difference(&lb, &v0, &invariant) {
                        atoms.push(Atom::ge(vp.clone(), &v0 + &(&delta * &kp)));
                    }
                }
            }
        }
        // Expand the sign splits into disjuncts.
        let mut disjunct_atom_sets: Vec<Vec<Atom>> = vec![atoms];
        for (delta, bound, v) in &splits {
            let mut expanded = Vec::new();
            for base in &disjunct_atom_sets {
                let vp = Polynomial::var(v.primed());
                let v0 = Polynomial::var(*v);
                let mut pos = base.clone();
                pos.push(Atom::ge(delta.clone(), Polynomial::zero()));
                pos.push(Atom::le(vp.clone(), &v0 + &(delta * bound)));
                let mut neg = base.clone();
                neg.push(Atom::le(delta.clone(), Polynomial::zero()));
                neg.push(Atom::le(vp, v0));
                expanded.push(pos);
                expanded.push(neg);
            }
            disjunct_atom_sets = expanded;
        }
        let closure = TransitionFormula::from_disjuncts(
            disjunct_atom_sets
                .into_iter()
                .map(Polyhedron::from_atoms)
                .collect(),
        );
        let drop: BTreeSet<Symbol> = [k].into_iter().collect();
        let closure = closure.eliminate(&drop);
        // k = 0 is included (identity), so the closure alone over-approximates
        // any number of iterations; union with identity keeps precision for
        // the common zero-iteration exit.
        closure.union(&TransitionFormula::identity(vars)).simplify()
    }

    /// Finds a syntactic ranking bound on the number of loop iterations: a
    /// pre-state expression `r` such that each iteration decreases `r` by at
    /// least one and requires `r ≥ lo`; the iteration count is then at most
    /// `r − lo + 1`.
    fn iteration_bound(&self, hull: &Polyhedron, vars: &[Symbol]) -> Option<Polynomial> {
        let mut candidates: Vec<Polynomial> = Vec::new();
        for v in vars {
            candidates.push(Polynomial::var(*v));
            for w in vars {
                if v != w {
                    candidates.push(&Polynomial::var(*v) - &Polynomial::var(*w));
                }
            }
            // Constant-bounded counters (`for (i = ..; i < 18; i++)`): the
            // quantity `c - i` decreases and stays non-negative.
            for atom in hull.atoms() {
                if let Some(ub) = atom.upper_bound_on(v) {
                    if ub.is_constant() {
                        candidates.push(&ub - &Polynomial::var(*v));
                    }
                }
            }
        }
        for r in candidates {
            let r_post = r.rename(&mut |s| {
                if vars.contains(s) {
                    s.primed()
                } else {
                    *s
                }
            });
            let decreases = hull.implies_atom(&Atom::le(r_post.clone(), &r - &Polynomial::one()));
            if !decreases {
                continue;
            }
            for lo in [1i64, 0] {
                let lo_poly = Polynomial::constant(BigRational::from(lo));
                if hull.implies_atom(&Atom::ge(r.clone(), lo_poly.clone())) {
                    // k ≤ r − lo + 1
                    return Some(&(&r - &lo_poly) + &Polynomial::one());
                }
            }
        }
        None
    }
}

/// `assume` of a lowered condition: the union of one assumption per
/// disjunct.
fn assume(disjuncts: Vec<Vec<Atom>>, vars: &[Symbol]) -> TransitionFormula {
    disjuncts
        .into_iter()
        .fold(TransitionFormula::bottom(), |out, conj| {
            out.union(&TransitionFormula::assume(conj, vars))
        })
}

/// The guards of a branch or loop on `c`: `assume(c)` and `assume(¬c)`.
fn guards(
    c: &Cond,
    vars: &[Symbol],
    fresh: &FreshSource,
) -> (TransitionFormula, TransitionFormula) {
    (
        assume(lower_cond(c, fresh), vars),
        assume(lower_cond_negated(c, fresh), vars),
    )
}

/// If `bound − base` is a polynomial over invariant symbols only (and does
/// not mention `base`'s variable), returns that difference.
fn invariant_difference(
    bound: &Polynomial,
    base: &Polynomial,
    invariant: &BTreeSet<Symbol>,
) -> Option<Polynomial> {
    let delta = bound - base;
    if delta.symbols().iter().all(|s| invariant.contains(s)) {
        Some(delta)
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chora_ir::{Expr, Procedure};
    use chora_numeric::rat;

    fn pvar(name: &str) -> Polynomial {
        Polynomial::var(Symbol::new(name))
    }
    fn fs() -> FreshSource {
        FreshSource::new(0)
    }
    fn c(v: i64) -> Polynomial {
        Polynomial::constant(rat(v))
    }

    #[test]
    fn straight_line_procedure() {
        let mut prog = Program::new();
        prog.add_global("g");
        prog.add_procedure(Procedure::new(
            "bump",
            &["x"],
            &[],
            Stmt::seq(vec![
                Stmt::assign("g", Expr::var("g").add(Expr::var("x"))),
                Stmt::Return(Some(Expr::var("x").add(Expr::int(1)))),
            ]),
        ));
        let summarizer = Summarizer::new(&prog);
        let proc = prog.procedure("bump").unwrap();
        let summary = summarizer.summarize_procedure(proc, &BTreeMap::new(), &fs());
        assert!(summary.implies_atom(&Atom::eq(pvar("g'"), &pvar("g") + &pvar("x"))));
        assert!(summary.implies_atom(&Atom::eq(pvar("ret'"), &pvar("x") + &c(1))));
    }

    #[test]
    fn branches_join() {
        let mut prog = Program::new();
        prog.add_procedure(Procedure::new(
            "absolute",
            &["x"],
            &[],
            Stmt::if_else(
                Cond::ge(Expr::var("x"), Expr::int(0)),
                Stmt::Return(Some(Expr::var("x"))),
                Stmt::Return(Some(Expr::int(0).sub(Expr::var("x")))),
            ),
        ));
        let summarizer = Summarizer::new(&prog);
        let proc = prog.procedure("absolute").unwrap();
        let summary = summarizer.summarize_procedure(proc, &BTreeMap::new(), &fs());
        assert!(summary.implies_atom(&Atom::ge(pvar("ret'"), Polynomial::zero())));
        assert!(summary.implies_atom(&Atom::ge(pvar("ret'"), pvar("x"))));
    }

    #[test]
    fn counting_loop() {
        // i := 0; cost := 0; while (i < n) { i := i + 1; cost := cost + 1 }
        let mut prog = Program::new();
        prog.add_global("cost");
        prog.add_procedure(Procedure::new(
            "count",
            &["n"],
            &["i"],
            Stmt::seq(vec![
                Stmt::Assume(Cond::ge(Expr::var("n"), Expr::int(0))),
                Stmt::assign("i", Expr::int(0)),
                Stmt::assign("cost", Expr::int(0)),
                Stmt::while_loop(
                    Cond::lt(Expr::var("i"), Expr::var("n")),
                    Stmt::seq(vec![
                        Stmt::assign("i", Expr::var("i").add(Expr::int(1))),
                        Stmt::assign("cost", Expr::var("cost").add(Expr::int(1))),
                    ]),
                ),
            ]),
        ));
        let summarizer = Summarizer::new(&prog);
        let proc = prog.procedure("count").unwrap();
        let summary = summarizer.summarize_procedure(proc, &BTreeMap::new(), &fs());
        // cost' ≤ n  (and cost' ≤ n + 1 certainly)
        assert!(summary.implies_atom(&Atom::le(pvar("cost'"), &pvar("n") + &c(1))));
        assert!(summary.implies_atom(&Atom::ge(pvar("cost'"), Polynomial::zero())));
    }

    #[test]
    fn call_binds_arguments_and_return() {
        let mut prog = Program::new();
        prog.add_global("g");
        prog.add_procedure(Procedure::new(
            "callee",
            &["a"],
            &[],
            Stmt::seq(vec![
                Stmt::assign("g", Expr::var("g").add(Expr::var("a"))),
                Stmt::Return(Some(Expr::var("a").mul(Expr::int(2)))),
            ]),
        ));
        prog.add_procedure(Procedure::new(
            "caller",
            &["n"],
            &["r"],
            Stmt::seq(vec![
                Stmt::call_assign("r", "callee", vec![Expr::var("n").add(Expr::int(3))]),
                Stmt::Return(Some(Expr::var("r"))),
            ]),
        ));
        let summarizer = Summarizer::new(&prog);
        let callee_summary = summarizer.summarize_procedure(
            prog.procedure("callee").unwrap(),
            &BTreeMap::new(),
            &fs(),
        );
        summarizer.insert_summary("callee", callee_summary);
        let caller_summary = summarizer.summarize_procedure(
            prog.procedure("caller").unwrap(),
            &BTreeMap::new(),
            &fs(),
        );
        // ret' = 2n + 6, g' = g + n + 3
        assert!(
            caller_summary.implies_atom(&Atom::eq(pvar("ret'"), &pvar("n").scale(&rat(2)) + &c(6)))
        );
        assert!(
            caller_summary.implies_atom(&Atom::eq(pvar("g'"), &(&pvar("g") + &pvar("n")) + &c(3)))
        );
    }

    #[test]
    fn loop_with_symbolic_increment() {
        // Ex. 4.1 shape: for (i = 0; i < 18; i++) { g := g + w; }  with w a
        // loop-invariant parameter (standing for the callee contribution).
        let mut prog = Program::new();
        prog.add_global("g");
        prog.add_procedure(Procedure::new(
            "rep",
            &["w"],
            &["i"],
            Stmt::seq(vec![
                Stmt::Assume(Cond::ge(Expr::var("w"), Expr::int(0))),
                Stmt::assign("i", Expr::int(0)),
                Stmt::while_loop(
                    Cond::lt(Expr::var("i"), Expr::int(18)),
                    Stmt::seq(vec![
                        Stmt::assign("g", Expr::var("g").add(Expr::var("w"))),
                        Stmt::assign("i", Expr::var("i").add(Expr::int(1))),
                    ]),
                ),
            ]),
        ));
        let summarizer = Summarizer::new(&prog);
        let proc = prog.procedure("rep").unwrap();
        let summary = summarizer.summarize_procedure(proc, &BTreeMap::new(), &fs());
        // g' ≤ g + 19·w  (the ranking bound k ≤ 18 − i + 1 instantiated at i = 0).
        let bound = &pvar("g") + &pvar("w").scale(&rat(19));
        assert!(summary.implies_atom(&Atom::le(pvar("g'"), bound)));
    }

    #[test]
    fn returns_inside_branches_terminate_paths() {
        let mut prog = Program::new();
        prog.add_procedure(Procedure::new(
            "early",
            &["x"],
            &[],
            Stmt::seq(vec![
                Stmt::if_then(
                    Cond::le(Expr::var("x"), Expr::int(0)),
                    Stmt::Return(Some(Expr::int(0))),
                ),
                Stmt::Return(Some(Expr::int(1))),
            ]),
        ));
        let summarizer = Summarizer::new(&prog);
        let summary = summarizer.summarize_procedure(
            prog.procedure("early").unwrap(),
            &BTreeMap::new(),
            &fs(),
        );
        assert!(summary.implies_atom(&Atom::ge(pvar("ret'"), Polynomial::zero())));
        assert!(summary.implies_atom(&Atom::le(pvar("ret'"), Polynomial::one())));
    }

    /// Walks `body` with a visitor that breaks at its first visit: the
    /// labels of the asserts it saw, and whether the walk broke.
    fn walk_to_first_visit(body: Stmt) -> (Vec<String>, bool) {
        let mut prog = Program::new();
        prog.add_procedure(Procedure::new("p", &["x"], &[], body));
        let summarizer = Summarizer::new(&prog);
        let proc = prog.procedure("p").unwrap();
        let vars = summarizer.proc_vars(proc);
        let mut seen = Vec::new();
        let flow = summarizer.walk(
            &proc.body,
            &vars,
            &BTreeMap::new(),
            TransitionFormula::identity(&vars),
            &fs(),
            &mut |visit, _| {
                if let Visit::Assert(_, label) = visit {
                    seen.push(label.to_string());
                }
                ControlFlow::Break(())
            },
        );
        (seen, flow.is_break())
    }

    #[test]
    fn a_breaking_visitor_stops_the_walk() {
        let check =
            |label: &str| Stmt::Assert(Cond::ge(Expr::var("x"), Expr::int(0)), label.into());
        let x_positive = || Cond::gt(Expr::var("x"), Expr::int(0));
        // The rest of a sequence.
        let body = Stmt::seq(vec![
            check("first"),
            Stmt::assign("x", Expr::var("x").add(Expr::int(1))),
            check("second"),
        ]);
        assert_eq!(walk_to_first_visit(body), (vec!["first".to_string()], true));
        // The else branch of an `if` whose then branch broke.
        let body = Stmt::if_else(x_positive(), check("then"), check("else"));
        assert_eq!(walk_to_first_visit(body), (vec!["then".to_string()], true));
        // What follows a loop whose body broke.
        let body = Stmt::seq(vec![
            Stmt::while_loop(x_positive(), check("body")),
            check("after"),
        ]);
        assert_eq!(walk_to_first_visit(body), (vec!["body".to_string()], true));
    }
}
