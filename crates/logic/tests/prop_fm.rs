//! Differential property tests for the algorithmic Fourier–Motzkin engine.
//!
//! The optimized projection pass (greedy elimination order, canonical-row
//! hash-consing, domination pruning, Imbert's acceleration, early-unsat
//! exit) is checked against the preserved fixed-order naive path
//! (`project_onto_naive` / `is_empty_set_naive` / `implies_atom_naive`) on
//! random small linear systems, where the constraint budget is never hit
//! and the two engines must therefore decide exactly the same linear
//! relaxation:
//!
//! * the two projections entail each other atom-for-atom (each engine's
//!   output is verified with the *other* engine, so a shared bug cannot
//!   vouch for itself),
//! * satisfiability verdicts agree, including on contradictory systems and
//!   on systems with the origin on their boundary (where the simplex
//!   witness `is_empty_set` tries first must honour strict rows),
//! * single-atom and batched (`implies_all`, with its early-unsat exit)
//!   entailment agree with the naive oracle.
//!
//! Each property also draws a system whose coefficients and constants run
//! up to 2^62 in size.  Combining two such rows overflows the
//! machine-integer rows a pass starts on, so these systems exercise the
//! rerun on rational rows against the oracle.
//!
//! The per-run emptiness memo is checked for transparency on the same
//! systems: answers inside an [`EmptinessMemo`] scope, first and repeated,
//! equal the memo-free answers and the naive oracle's, and the scopes nest
//! and close as documented.

use chora_expr::{Polynomial, Symbol};
use chora_logic::{stats, Atom, EmptinessMemo, Polyhedron};
use chora_numeric::rat;
use proptest::prelude::*;
use std::collections::BTreeSet;
use std::sync::{Mutex, MutexGuard};

/// Serializes the tests that open memo scopes: the hit counter is
/// process-wide, and only code inside a scope can advance it, so holding
/// this lock makes every hit observed by a test its own.
fn memo_lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

fn memo_hits() -> u64 {
    stats::snapshot().emptiness_memo_hits
}

const VARS: [&str; 3] = ["x", "y", "z"];

fn sym(name: &str) -> Symbol {
    Symbol::new(name)
}

/// `a·x + b·y + c·z + d`.
fn linear(a: i64, b: i64, c: i64, d: i64) -> Polynomial {
    let mut poly = Polynomial::constant(rat(d));
    for (coeff, name) in [(a, VARS[0]), (b, VARS[1]), (c, VARS[2])] {
        poly = &poly + &Polynomial::var(sym(name)).scale(&rat(coeff));
    }
    poly
}

/// One random linear atom `a·x + b·y + c·z + d ◇ 0` with small integer
/// coefficients; equations are rare enough that systems stay mostly
/// full-dimensional but the equality-substitution path is still exercised.
fn atom_strategy() -> impl Strategy<Value = Atom> {
    // kind weights: 0..=3 → Le, 4 → Lt, 5 → Eq.
    (-3i64..=3, -3i64..=3, -3i64..=3, -8i64..=8, 0i64..6).prop_map(|(a, b, c, d, kind)| {
        let poly = linear(a, b, c, d);
        match kind {
            0..=3 => Atom::le_zero(poly),
            4 => Atom::lt_zero(poly),
            _ => Atom::eq_zero(poly),
        }
    })
}

fn polyhedron_strategy() -> impl Strategy<Value = Polyhedron> {
    prop::collection::vec(atom_strategy(), 1..8).prop_map(Polyhedron::from_atoms)
}

/// A coefficient of up to 2^62 in size half the time, a small one
/// otherwise, so some eliminations overflow an `i64` and others do not.
fn large_value_strategy() -> impl Strategy<Value = i64> {
    (any::<bool>(), -3i64..=3, -(1i64 << 62)..=1i64 << 62)
        .prop_map(|(large, small, big)| if large { big } else { small })
}

/// One random linear atom as [`atom_strategy`] draws it, with coefficients
/// and constant from [`large_value_strategy`].
fn large_atom_strategy() -> impl Strategy<Value = Atom> {
    (
        large_value_strategy(),
        large_value_strategy(),
        large_value_strategy(),
        large_value_strategy(),
        0i64..6,
    )
        .prop_map(|(a, b, c, d, kind)| {
            let poly = linear(a, b, c, d);
            match kind {
                0..=3 => Atom::le_zero(poly),
                4 => Atom::lt_zero(poly),
                _ => Atom::eq_zero(poly),
            }
        })
}

/// At most six atoms: large coefficients leave the naive oracle no parallel
/// rows to merge, and six rows plus a negated goal over three variables
/// combine into at most 12, 36 and 324 rows, under its 600-row budget, so
/// the oracle stays exact.
fn large_polyhedron_strategy() -> impl Strategy<Value = Polyhedron> {
    prop::collection::vec(large_atom_strategy(), 1..7).prop_map(Polyhedron::from_atoms)
}

/// A linear atom `a·x + b·y + d ◇ 0` whose constant is −1, 0 or 1 (0 half
/// the time), strict about half the time: the origin lies on the boundary
/// of most systems built from these, which is where a witness search that
/// lets a strict row hold with equality answers "non-empty" wrongly.  Two
/// variables make strict rows through the origin that no point satisfies
/// together (such as `x < 0 ∧ −x < 0`) common enough to turn up in every
/// run.
fn boundary_atom_strategy() -> impl Strategy<Value = Atom> {
    // kind weights: 0..=1 → Le, 2..=4 → Lt, 5 → Eq.
    (-3i64..=3, -3i64..=3, 0usize..4, 0i64..6).prop_map(|(a, b, d, kind)| {
        let poly = linear(a, b, 0, [-1, 0, 0, 1][d]);
        match kind {
            0..=1 => Atom::le_zero(poly),
            2..=4 => Atom::lt_zero(poly),
            _ => Atom::eq_zero(poly),
        }
    })
}

/// Regression: an unsatisfiable all-`Le` system on which a naive counting
/// version of Kohler's criterion (global eliminated count, or per-row
/// counts without the subset-or-poison certificate rules at slot
/// collisions) skips the lineage carrying the contradiction and answers
/// "satisfiable".  Found by `satisfiability_agrees_with_naive`.
#[test]
fn kohler_pruning_keeps_contradiction_lineage() {
    let rows: [[i64; 4]; 6] = [
        [1, 0, 2, 2],
        [1, -3, -2, 8],
        [-3, 3, -1, -2],
        [1, 1, -2, -6],
        [-3, 3, 1, 7],
        [-2, -2, 0, -1],
    ];
    let p = Polyhedron::from_atoms(
        rows.map(|[a, b, c, d]| Atom::le_zero(linear(a, b, c, d)))
            .to_vec(),
    );
    assert!(p.is_empty_set_naive(), "oracle: system is unsatisfiable");
    assert!(p.is_empty_set(), "pruned engine must agree on {}", &p);
}

fn xy_box(hi: i64) -> Polyhedron {
    let x = Polynomial::var(sym("x"));
    let y = Polynomial::var(sym("y"));
    Polyhedron::from_atoms(vec![
        Atom::ge(x.clone(), Polynomial::constant(rat(0))),
        Atom::le(x.clone(), y),
        Atom::le(x, Polynomial::constant(rat(hi))),
    ])
}

#[test]
fn nested_memo_starts_empty_and_restores_the_outer_one() {
    let _lock = memo_lock();
    let p = xy_box(4);
    let outer = EmptinessMemo::open();
    assert!(!p.is_empty_set());
    let hits = memo_hits();
    assert!(!p.is_empty_set());
    assert_eq!(memo_hits(), hits + 1, "a repeat in the same scope hits");
    {
        let _inner = EmptinessMemo::open();
        assert!(!p.is_empty_set());
        assert_eq!(memo_hits(), hits + 1, "a nested scope starts empty");
        assert!(!p.is_empty_set());
        assert_eq!(memo_hits(), hits + 2);
    }
    assert!(EmptinessMemo::is_open(), "the outer scope is back");
    assert!(!p.is_empty_set());
    assert_eq!(memo_hits(), hits + 3, "the outer scope kept its entries");
    drop(outer);
    assert!(!EmptinessMemo::is_open());
}

#[test]
fn closed_memo_answers_no_more_queries() {
    let _lock = memo_lock();
    let p = xy_box(2);
    let goal = Atom::le(Polynomial::var(sym("x")), Polynomial::constant(rat(3)));
    {
        let _memo = EmptinessMemo::open();
        assert!(p.implies_atom(&goal));
        assert!(p.implies_all(std::slice::from_ref(&goal)));
        assert!(!p.is_empty_set());
    }
    let hits = memo_hits();
    assert!(p.implies_atom(&goal));
    assert!(p.implies_all(std::slice::from_ref(&goal)));
    assert!(!p.is_empty_set());
    assert_eq!(memo_hits(), hits, "re-queries after the scope ends compute");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// `is_empty_set` answers "non-empty" from a simplex witness when it
    /// finds one; the boundary systems check that the witness honours
    /// strict rows where the origin only just fails them.
    #[test]
    fn satisfiability_agrees_with_naive(
        p in polyhedron_strategy(),
        boundary in prop::collection::vec(boundary_atom_strategy(), 1..7)
            .prop_map(Polyhedron::from_atoms),
        large in large_polyhedron_strategy(),
    ) {
        for p in [&p, &boundary, &large] {
            prop_assert_eq!(p.is_empty_set(), p.is_empty_set_naive(), "p = {}", p);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn projection_is_entailment_equivalent_to_naive(
        p in polyhedron_strategy(),
        large in large_polyhedron_strategy(),
        keep_mask in 1u8..7,
    ) {
        let keep: BTreeSet<Symbol> = VARS
            .iter()
            .enumerate()
            .filter(|(i, _)| keep_mask & (1 << i) != 0)
            .map(|(_, name)| sym(name))
            .collect();
        for p in [&p, &large] {
            let pruned = p.project_onto(&keep);
            let naive = p.project_onto_naive(&keep);
            prop_assert_eq!(
                pruned.is_empty_set(),
                naive.is_empty_set_naive(),
                "projections disagree on emptiness: pruned {} vs naive {}",
                &pruned,
                &naive
            );
            // Each engine's result is checked by the other engine: the pruned
            // projection must not be weaker than the naive one, nor stronger.
            for atom in pruned.atoms() {
                prop_assert!(
                    naive.implies_atom_naive(atom),
                    "pruned constraint {} not entailed by naive projection {}",
                    atom,
                    &naive
                );
            }
            for atom in naive.atoms() {
                prop_assert!(
                    pruned.implies_atom(atom),
                    "naive constraint {} not entailed by pruned projection {}",
                    atom,
                    &pruned
                );
            }
        }
    }

    #[test]
    fn single_entailment_agrees_with_naive(
        p in polyhedron_strategy(),
        goal in atom_strategy(),
        large in large_polyhedron_strategy(),
        large_goal in large_atom_strategy(),
    ) {
        for (p, goal) in [(&p, &goal), (&large, &large_goal), (&large, &goal)] {
            prop_assert_eq!(p.implies_atom(goal), p.implies_atom_naive(goal), "p = {}", p);
        }
    }

    #[test]
    fn batched_entailment_agrees_with_naive_per_atom(
        p in polyhedron_strategy(),
        goals in prop::collection::vec(atom_strategy(), 1..5),
        large in large_polyhedron_strategy(),
        large_goals in prop::collection::vec(large_atom_strategy(), 1..5),
    ) {
        // `implies_all` shares one elimination pass across the goals and
        // exits early on a derived contradiction; the naive oracle runs one
        // fixed-order check per goal.  On budget-free systems they must
        // agree — in particular for unsatisfiable `p`, where the early-unsat
        // exit answers for every goal at once.
        for (p, goals) in [(&p, &goals), (&large, &large_goals)] {
            let batched = p.implies_all(goals);
            let oracle = goals.iter().all(|g| p.implies_atom_naive(g));
            prop_assert_eq!(batched, oracle, "p = {}", p);
        }
    }

    #[test]
    fn memoized_answers_equal_direct_and_naive_answers(
        p in polyhedron_strategy(),
        goals in prop::collection::vec(atom_strategy(), 1..5),
        large in large_polyhedron_strategy(),
        large_goals in prop::collection::vec(large_atom_strategy(), 1..5),
    ) {
        let _lock = memo_lock();
        for (p, goals) in [(&p, &goals), (&large, &large_goals)] {
            let direct = (
                p.is_empty_set(),
                goals.iter().map(|g| p.implies_atom(g)).collect::<Vec<_>>(),
                p.implies_all(goals),
            );
            prop_assert_eq!(direct.0, p.is_empty_set_naive(), "p = {}", p);
            for (g, implied) in goals.iter().zip(&direct.1) {
                prop_assert_eq!(*implied, p.implies_atom_naive(g), "p = {}, goal = {}", p, g);
            }
            prop_assert_eq!(direct.2, direct.1.iter().all(|&b| b), "p = {}", p);
            let _memo = EmptinessMemo::open();
            // First answers fill the memo; repeats are answered from it.
            for round in 0..2 {
                let hits = memo_hits();
                let memoized = (
                    p.is_empty_set(),
                    goals.iter().map(|g| p.implies_atom(g)).collect::<Vec<_>>(),
                    p.implies_all(goals),
                );
                prop_assert_eq!(&memoized, &direct, "round {}: p = {}", round, p);
                if round == 1 {
                    prop_assert!(memo_hits() > hits, "repeats must hit the memo");
                }
            }
        }
    }
}
