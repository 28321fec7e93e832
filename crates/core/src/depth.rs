//! Depth-bound analysis (§4.2, Alg. 4): bounding the maximum recursion depth
//! `H` as a function of the pre-state of the initial call.
//!
//! Alg. 4 builds a depth-bounding model in which descending into a recursive
//! call increments an auxiliary counter `D` and non-descending calls are
//! skipped, and then applies intra-procedural analysis.  Over the structured
//! IR this reproduction computes the same information directly from the
//! *descent relation* — the relation between a procedure's entry state and
//! the arguments of any recursive call it may perform — and recognizes the
//! two descent patterns that drive every benchmark in the paper's
//! evaluation: decrement-by-a-constant (linear depth) and
//! division-by-a-constant (logarithmic depth).  The relation is collected
//! by a visitor of the summarizer's forward walk
//! ([`Summarizer::walk`](crate::summarize::Summarizer::walk)), which binds
//! the formals of each call to an SCC member and stops the walk after the
//! last such call.

use crate::lower::lower_expr;
use crate::summarize::{decreasing_ranking, Summarizer, Visit};
use chora_expr::{FreshSource, Polynomial, Symbol, Term};
use chora_ir::{Procedure, Stmt};
use chora_logic::{Atom, Polyhedron, TransitionFormula};
use chora_numeric::BigRational;
use std::collections::{BTreeMap, BTreeSet};
use std::ops::ControlFlow;

/// An upper bound on the recursion depth `H` of a procedure, as a function of
/// its parameters and the globals (§4.2's `ζ_P`).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DepthBound {
    /// `H ≤ max(1, term)` — typical of decrement-style recursion.
    Linear(Term),
    /// `H ≤ log2(max(1, term)) + 2` — typical of divide-and-conquer.
    Logarithmic(Term),
}

impl DepthBound {
    /// The depth bound as a [`Term`] over the procedure's parameters.
    pub fn to_term(&self) -> Term {
        match self {
            DepthBound::Linear(t) => Term::max(vec![Term::one(), t.clone()]),
            DepthBound::Logarithmic(t) => Term::add(vec![
                Term::log2(Term::max(vec![Term::one(), t.clone()])),
                Term::int(2),
            ]),
        }
    }

    /// Whether this is a logarithmic bound.
    pub fn is_logarithmic(&self) -> bool {
        matches!(self, DepthBound::Logarithmic(_))
    }
}

/// Computes a depth bound for `proc`, a member of the recursive strongly
/// connected component `members`.
///
/// Returns `None` when no decreasing descent pattern can be established
/// (e.g. Ackermann-style recursion).
pub fn depth_bound(
    summarizer: &Summarizer<'_>,
    proc: &Procedure,
    members: &[String],
    fresh: &FreshSource,
) -> Option<DepthBound> {
    let descent = descent_relation(summarizer, proc, members, fresh);
    if descent.is_bottom() {
        // No recursive call is reachable: depth 1.
        return Some(DepthBound::Linear(Term::one()));
    }
    let params: Vec<Symbol> = proc.params.clone();
    let mut keep: BTreeSet<Symbol> = BTreeSet::new();
    for p in &params {
        keep.insert(*p);
        keep.insert(p.primed());
    }
    let hull = descent.abstract_hull(&keep);
    // Ranking candidates: parameters and pairwise differences.
    let mut candidates: Vec<Polynomial> = Vec::new();
    for p in &params {
        candidates.push(Polynomial::var(*p));
        for q in &params {
            if p != q {
                candidates.push(&Polynomial::var(*p) - &Polynomial::var(*q));
            }
        }
    }
    // Division-by-constant descent first (tighter bound).
    for r in &candidates {
        let r_post = r.rename(&mut |s| if params.contains(s) { s.primed() } else { *s });
        let halves = hull.implies_atom(&Atom::le(r_post.scale(&BigRational::from(2)), r.clone()));
        let stays_large = hull.implies_atom(&Atom::ge(r.clone(), Polynomial::one()));
        if halves && stays_large {
            return Some(DepthBound::Logarithmic(polynomial_to_term(r)));
        }
    }
    // Decrement-by-constant descent: H ≤ r(σ) − lo + 2.
    let (r, lo) = decreasing_ranking(&hull, &params, &candidates)?;
    let bound = Term::add(vec![polynomial_to_term(r), Term::int(2 - lo)]);
    Some(DepthBound::Linear(bound))
}

/// The descent relation of a procedure: the union, over every reachable call
/// to a member of the SCC, of the relation between the procedure's entry
/// state (pre) and the callee's parameters at that call (post, under the
/// callee's parameter names).  The forward walk steps over recursive calls
/// by havocking globals and their results, mirroring the "skip" edges of
/// Alg. 4, and stops right after the last such call: nothing after it can
/// add a descent.
pub fn descent_relation(
    summarizer: &Summarizer<'_>,
    proc: &Procedure,
    members: &[String],
    fresh: &FreshSource,
) -> TransitionFormula {
    let program = summarizer.program();
    let vars = summarizer.proc_vars(proc);
    let skip: BTreeMap<String, TransitionFormula> = members
        .iter()
        .map(|m| (m.clone(), TransitionFormula::top()))
        .collect();
    // The SCC member a call binds, if any.
    let member = |callee: &str| {
        program
            .procedure(callee)
            .filter(|_| skip.contains_key(callee))
    };
    let mut remaining = 0usize;
    proc.body.visit(&mut |s| {
        if let Stmt::Call { callee, .. } = s {
            remaining += member(callee).is_some() as usize;
        }
    });
    if remaining == 0 {
        return TransitionFormula::bottom();
    }
    let mut reached = TransitionFormula::bottom();
    let prefix = TransitionFormula::identity(&vars);
    let flow = summarizer.walk(
        &proc.body,
        &vars,
        &skip,
        prefix,
        fresh,
        &mut |visit, prefix| {
            let Visit::Call(callee, args) = visit else {
                return ControlFlow::Continue(());
            };
            let Some(callee_proc) = member(callee) else {
                return ControlFlow::Continue(());
            };
            // Bind the callee's formals (as post-state) to the actuals, which
            // are over the pre-state at the call site.
            let mut atoms = Vec::new();
            let mut to_drop: BTreeSet<Symbol> = BTreeSet::new();
            for (formal, arg) in callee_proc.params.iter().zip(args) {
                let lowered = lower_expr(arg, fresh);
                atoms.push(Atom::eq(Polynomial::var(formal.primed()), lowered.value));
                atoms.extend(lowered.constraints);
                to_drop.extend(lowered.fresh);
            }
            let binding = TransitionFormula::from_polyhedron(Polyhedron::from_atoms(atoms))
                .eliminate(&to_drop);
            reached = reached.union(&prefix.sequence(&binding, &vars));
            remaining -= 1;
            if remaining == 0 {
                ControlFlow::Break(())
            } else {
                ControlFlow::Continue(())
            }
        },
    );
    debug_assert!(flow.is_break(), "the walk must reach every recursive call");
    // Project onto the procedure parameters (pre) and the callee parameter
    // names (post).  For self/mutual recursion in the benchmark suite the
    // callee parameter names coincide positionally with the caller's.
    let mut keep: BTreeSet<Symbol> = BTreeSet::new();
    for p in &proc.params {
        keep.insert(*p);
        keep.insert(p.primed());
    }
    for g in &program.globals {
        keep.insert(*g);
        keep.insert(g.primed());
    }
    reached.project_onto(&keep).simplify()
}

/// Converts a polynomial over program variables to a [`Term`].
pub fn polynomial_to_term(p: &Polynomial) -> Term {
    let mut summands = Vec::new();
    for (m, c) in p.terms() {
        let mut factors = vec![Term::constant(c.clone())];
        for (s, e) in m.powers() {
            for _ in 0..e {
                factors.push(Term::var(*s));
            }
        }
        summands.push(Term::mul(factors));
    }
    Term::add(summands)
}

#[cfg(test)]
mod tests {
    use super::*;
    use chora_ir::{Cond, Expr, Procedure, Program, Stmt};

    fn summarizer_for(prog: &Program) -> Summarizer<'_> {
        Summarizer::new(prog)
    }

    #[test]
    fn decrement_recursion_gets_linear_bound() {
        // subsetSumAux-style: recurse on i+1 while i < n.
        let mut prog = Program::new();
        prog.add_global("nTicks");
        prog.add_procedure(Procedure::new(
            "aux",
            &["i", "n"],
            &[],
            Stmt::seq(vec![
                Stmt::assign("nTicks", Expr::var("nTicks").add(Expr::int(1))),
                Stmt::if_then(
                    Cond::lt(Expr::var("i"), Expr::var("n")),
                    Stmt::seq(vec![
                        Stmt::call(
                            "aux",
                            vec![Expr::var("i").add(Expr::int(1)), Expr::var("n")],
                        ),
                        Stmt::call(
                            "aux",
                            vec![Expr::var("i").add(Expr::int(1)), Expr::var("n")],
                        ),
                    ]),
                ),
            ]),
        ));
        let s = summarizer_for(&prog);
        let proc = prog.procedure("aux").unwrap();
        let bound =
            depth_bound(&s, proc, &["aux".to_string()], &FreshSource::new(0)).expect("depth bound");
        match &bound {
            DepthBound::Linear(t) => {
                // H ≤ (n - i) + 1
                let rendered = t.to_string();
                assert!(
                    rendered.contains('n') && rendered.contains('i'),
                    "bound {rendered}"
                );
            }
            other => panic!("expected linear bound, got {other:?}"),
        }
        assert!(!bound.is_logarithmic());
    }

    #[test]
    fn halving_recursion_gets_logarithmic_bound() {
        // mergesort-style: recurse on n/2 while n > 1.
        let mut prog = Program::new();
        prog.add_global("cost");
        prog.add_procedure(Procedure::new(
            "msort",
            &["n"],
            &[],
            Stmt::if_then(
                Cond::gt(Expr::var("n"), Expr::int(1)),
                Stmt::seq(vec![
                    Stmt::call("msort", vec![Expr::var("n").div(2)]),
                    Stmt::call("msort", vec![Expr::var("n").div(2)]),
                    Stmt::assign("cost", Expr::var("cost").add(Expr::var("n"))),
                ]),
            ),
        ));
        let s = summarizer_for(&prog);
        let proc = prog.procedure("msort").unwrap();
        let bound = depth_bound(&s, proc, &["msort".to_string()], &FreshSource::new(0))
            .expect("depth bound");
        assert!(
            bound.is_logarithmic(),
            "expected logarithmic bound, got {bound:?}"
        );
    }

    #[test]
    fn calls_outside_the_component_are_not_descents() {
        // Recurse on n - 1, then call a procedure outside the component.
        let mut prog = Program::new();
        prog.add_global("cost");
        prog.add_procedure(Procedure::new(
            "tick",
            &["k"],
            &[],
            Stmt::assign("cost", Expr::var("cost").add(Expr::var("k"))),
        ));
        prog.add_procedure(Procedure::new(
            "down",
            &["n"],
            &[],
            Stmt::if_then(
                Cond::gt(Expr::var("n"), Expr::int(0)),
                Stmt::seq(vec![
                    Stmt::call("down", vec![Expr::var("n").sub(Expr::int(1))]),
                    Stmt::call("tick", vec![Expr::var("n")]),
                ]),
            ),
        ));
        let s = summarizer_for(&prog);
        let proc = prog.procedure("down").unwrap();
        let bound = depth_bound(&s, proc, &["down".to_string()], &FreshSource::new(0))
            .expect("depth bound");
        assert!(
            !bound.is_logarithmic(),
            "expected linear bound, got {bound:?}"
        );
    }

    #[test]
    fn non_recursive_body_gets_unit_depth() {
        let mut prog = Program::new();
        prog.add_procedure(Procedure::new("leaf", &["n"], &[], Stmt::Skip));
        let s = summarizer_for(&prog);
        let proc = prog.procedure("leaf").unwrap();
        let bound = depth_bound(&s, proc, &["leaf".to_string()], &FreshSource::new(0)).unwrap();
        assert_eq!(bound, DepthBound::Linear(Term::one()));
    }

    #[test]
    fn ackermann_style_recursion_has_no_bound() {
        // ackermann(m, n): the second argument can grow, so neither pattern
        // applies to the pair of parameters as a whole.
        let mut prog = Program::new();
        prog.add_procedure(Procedure::new(
            "ack",
            &["m", "n"],
            &["t"],
            Stmt::if_else(
                Cond::eq(Expr::var("m"), Expr::int(0)),
                Stmt::Return(Some(Expr::var("n").add(Expr::int(1)))),
                Stmt::if_else(
                    Cond::eq(Expr::var("n"), Expr::int(0)),
                    Stmt::seq(vec![Stmt::call_assign(
                        "t",
                        "ack",
                        vec![Expr::var("m").sub(Expr::int(1)), Expr::int(1)],
                    )]),
                    Stmt::seq(vec![
                        Stmt::call_assign(
                            "t",
                            "ack",
                            vec![Expr::var("m"), Expr::var("n").sub(Expr::int(1))],
                        ),
                        Stmt::call_assign(
                            "t",
                            "ack",
                            vec![Expr::var("m").sub(Expr::int(1)), Expr::var("t")],
                        ),
                    ]),
                ),
            ),
        ));
        let s = summarizer_for(&prog);
        let proc = prog.procedure("ack").unwrap();
        assert_eq!(
            depth_bound(&s, proc, &["ack".to_string()], &FreshSource::new(0)),
            None
        );
    }
}
