//! Property tests for the polyhedra / transition-formula substrate.
//!
//! The key soundness properties exercised here:
//! * projection over-approximates: any point of P restricted to the kept
//!   dimensions satisfies the projection;
//! * join over-approximates both operands;
//! * entailment agrees with point evaluation on random rational points;
//! * relational composition agrees with composing concrete updates;
//! * a polyhedron stores each atom in its canonical scaling form.

use chora_expr::{Polynomial, Symbol};
use chora_logic::{Atom, Polyhedron, TransitionFormula};
use chora_numeric::{rat, ratio, BigInt, BigRational};
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};

fn sym(name: &str) -> Symbol {
    Symbol::new(name)
}

fn var(name: &str) -> Polynomial {
    Polynomial::var(sym(name))
}

fn c(v: i64) -> Polynomial {
    Polynomial::constant(rat(v))
}

/// Builds a random small polyhedron over x, y from interval + relational
/// constraints, guaranteed to contain the point (px, py).
fn containing_polyhedron(px: i64, py: i64, slack: (i64, i64, i64)) -> Polyhedron {
    let (a, b, d) = slack;
    Polyhedron::from_atoms(vec![
        Atom::ge(var("x"), c(px - a.abs())),
        Atom::le(var("x"), c(px + b.abs())),
        Atom::ge(var("y"), c(py - b.abs())),
        Atom::le(var("y"), c(py + a.abs())),
        // a relational constraint that the point satisfies by construction
        Atom::le(&var("x") - &var("y"), c(px - py + d.abs())),
    ])
}

fn point_env(px: i64, py: i64) -> BTreeMap<Symbol, BigRational> {
    let mut env = BTreeMap::new();
    env.insert(sym("x"), rat(px));
    env.insert(sym("y"), rat(py));
    env
}

/// A random atom over x, y: rational coefficients on linear and non-linear
/// monomials plus a rational constant, all multiplied by a common positive
/// factor.  Negative coefficients give negative leading terms.
fn random_atom(
    terms: &[(i64, i64, usize)],
    constant: (i64, i64),
    factor: (i64, i64),
    kind: usize,
) -> Atom {
    let monomials = [
        var("x"),
        var("y"),
        &var("x") * &var("y"),
        &var("x") * &var("x"),
    ];
    let mut poly = Polynomial::constant(ratio(constant.0, constant.1));
    for &(n, d, m) in terms {
        poly = &poly + &monomials[m].scale(&ratio(n, d));
    }
    let poly = poly.scale(&ratio(factor.0, factor.1));
    match kind {
        0 => Atom::le_zero(poly),
        1 => Atom::lt_zero(poly),
        _ => Atom::eq_zero(poly),
    }
}

fn satisfies(p: &Polyhedron, env: &BTreeMap<Symbol, BigRational>) -> bool {
    p.atoms().iter().all(|a| {
        let v = a.poly.eval(env).expect("point covers all symbols");
        match a.kind {
            chora_logic::AtomKind::Le => !v.is_positive(),
            chora_logic::AtomKind::Lt => v.is_negative(),
            chora_logic::AtomKind::Eq => v.is_zero(),
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn polyhedron_containing_point_is_satisfiable(
        px in -20i64..20, py in -20i64..20,
        slack in (0i64..5, 0i64..5, 0i64..5),
    ) {
        let p = containing_polyhedron(px, py, slack);
        prop_assert!(satisfies(&p, &point_env(px, py)));
        prop_assert!(!p.is_empty_set());
    }

    #[test]
    fn join_over_approximates_both_operands(
        p1 in (-10i64..10, -10i64..10, (0i64..4, 0i64..4, 0i64..4)),
        p2 in (-10i64..10, -10i64..10, (0i64..4, 0i64..4, 0i64..4)),
    ) {
        let a = containing_polyhedron(p1.0, p1.1, p1.2);
        let b = containing_polyhedron(p2.0, p2.1, p2.2);
        let hull = a.join(&b);
        // The witness points of both operands satisfy the hull.
        prop_assert!(satisfies(&hull, &point_env(p1.0, p1.1)));
        prop_assert!(satisfies(&hull, &point_env(p2.0, p2.1)));
        // And the hull is implied by neither being tighter than the operands:
        // every constraint of the hull is entailed by each operand.
        for atom in hull.atoms() {
            prop_assert!(a.implies_atom(atom), "hull constraint {atom} not implied by left operand");
            prop_assert!(b.implies_atom(atom), "hull constraint {atom} not implied by right operand");
        }
    }

    #[test]
    fn projection_over_approximates(
        px in -10i64..10, py in -10i64..10,
        slack in (0i64..4, 0i64..4, 0i64..4),
    ) {
        let p = containing_polyhedron(px, py, slack);
        let keep: BTreeSet<Symbol> = [sym("x")].into_iter().collect();
        let proj = p.project_onto(&keep);
        // The x-component of the witness point satisfies the projection.
        let mut env = BTreeMap::new();
        env.insert(sym("x"), rat(px));
        prop_assert!(proj.atoms().iter().all(|a| a.symbols().iter().all(|s| s == &sym("x"))));
        prop_assert!(satisfies(&proj, &env));
    }

    #[test]
    fn implication_agrees_with_point_evaluation(
        px in -10i64..10, py in -10i64..10,
        slack in (0i64..4, 0i64..4, 0i64..4),
        bound in -30i64..30,
    ) {
        let p = containing_polyhedron(px, py, slack);
        let atom = Atom::le(var("x"), c(bound));
        if p.implies_atom(&atom) {
            // then in particular the witness point satisfies it
            prop_assert!(px <= bound);
        }
        // and conversely if the witness point violates it, implication must fail
        if px > bound {
            prop_assert!(!p.implies_atom(&atom));
        }
    }

    #[test]
    fn polyhedron_stores_the_canonical_atom(
        terms in prop::collection::vec((-6i64..7, 1i64..5, 0usize..4), 0..5),
        constant in (-9i64..10, 1i64..4),
        factor in (1i64..7, 1i64..4),
        kind in 0usize..3,
    ) {
        let a = random_atom(&terms, constant, factor, kind);
        let canon = a.canonical();
        prop_assert_eq!(canon.canonical(), canon.clone(), "canonical must be idempotent");
        let stored = Polyhedron::from_atoms(vec![a.clone()]);
        if a.trivial_truth() == Some(true) {
            prop_assert!(stored.atoms().is_empty());
        } else {
            prop_assert_eq!(stored.atoms(), std::slice::from_ref(&canon));
        }
        // The canonical form is a positive multiple of the atom with coprime
        // integer coefficients (constants are kept as they are).
        prop_assert_eq!(canon.kind, a.kind);
        let leading = a.poly.terms().find(|(m, _)| !m.is_one()).map(|(m, c)| (m.clone(), c.clone()));
        if let Some((m, c)) = leading {
            let k = &canon.poly.coefficient(&m) / &c;
            prop_assert!(k.is_positive());
            prop_assert_eq!(&canon.poly, &a.poly.scale(&k));
            let mut gcd = BigInt::zero();
            for (_, c) in canon.poly.terms() {
                prop_assert!(c.denom().is_one());
                gcd = gcd.gcd(c.numer());
            }
            prop_assert!(gcd.is_one());
        } else {
            prop_assert_eq!(&canon, &a);
        }
    }

    #[test]
    fn composition_matches_concrete_updates(a1 in -5i64..5, a2 in -5i64..5, x0 in -10i64..10) {
        // x := x + a1 ; x := x + a2  ==  x := x + (a1 + a2)
        let vars = vec![sym("x")];
        let f1 = TransitionFormula::assign(&sym("x"), &(&var("x") + &c(a1)), &vars);
        let f2 = TransitionFormula::assign(&sym("x"), &(&var("x") + &c(a2)), &vars);
        let seq = f1.sequence(&f2, &vars);
        let expected = Atom::eq(Polynomial::var(sym("x").primed()), &var("x") + &c(a1 + a2));
        prop_assert!(seq.implies_atom(&expected));
        // Spot-check with a concrete pre-state.
        let mut env = BTreeMap::new();
        env.insert(sym("x"), rat(x0));
        env.insert(sym("x").primed(), rat(x0 + a1 + a2));
        for d in seq.disjuncts() {
            prop_assert!(satisfies(d, &env));
        }
    }

    #[test]
    fn union_is_upper_bound(v1 in -10i64..10, v2 in -10i64..10) {
        let vars = vec![sym("x")];
        let f1 = TransitionFormula::assign(&sym("x"), &c(v1), &vars);
        let f2 = TransitionFormula::assign(&sym("x"), &c(v2), &vars);
        let u = f1.union(&f2);
        let lo = v1.min(v2);
        let hi = v1.max(v2);
        prop_assert!(u.implies_atom(&Atom::ge(Polynomial::var(sym("x").primed()), c(lo))));
        prop_assert!(u.implies_atom(&Atom::le(Polynomial::var(sym("x").primed()), c(hi))));
    }

    #[test]
    fn abstract_hull_entails_interval(vals in prop::collection::vec(-10i64..10, 1..5)) {
        let vars = vec![sym("x")];
        let mut f = TransitionFormula::bottom();
        for v in &vals {
            f = f.union(&TransitionFormula::assign(&sym("x"), &c(*v), &vars));
        }
        let keep: BTreeSet<Symbol> = [sym("x").primed()].into_iter().collect();
        let hull = f.abstract_hull(&keep);
        let lo = *vals.iter().min().unwrap();
        let hi = *vals.iter().max().unwrap();
        prop_assert!(hull.implies_atom(&Atom::ge(Polynomial::var(sym("x").primed()), c(lo))));
        prop_assert!(hull.implies_atom(&Atom::le(Polynomial::var(sym("x").primed()), c(hi))));
    }
}
