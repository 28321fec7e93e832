//! A Fourier–Motzkin pass that overflows its machine-integer rows reruns on
//! rational rows, and the counters see the rerun pass once.
//!
//! The reference is the same projection with `set_force_heap(true)`:
//! heap-held values never enter machine-integer rows, so that pass runs on
//! rational rows from the start.  Both count one restart and the same rows.
//! The counters and the forced-heap switch are process-wide, so this binary
//! holds a single test.

use chora_expr::{Polynomial, Symbol};
use chora_logic::stats::{self, FmStats};
use chora_logic::{Atom, Polyhedron};
use chora_numeric::rat;
use std::collections::BTreeSet;

/// `Σ coeffs + constant ≤ 0`.
fn le(coeffs: &[(&str, i64)], constant: i64) -> Atom {
    let mut poly = Polynomial::constant(rat(constant));
    for (s, k) in coeffs {
        poly = &poly + &Polynomial::var(Symbol::new(s)).scale(&rat(*k));
    }
    Atom::le_zero(poly)
}

/// The counter increments between two snapshots (`max_width` is a maximum,
/// not a count, and is left out).
fn delta(before: FmStats, after: FmStats) -> FmStats {
    FmStats {
        rows_generated: after.rows_generated - before.rows_generated,
        rows_deduped: after.rows_deduped - before.rows_deduped,
        rows_dominated: after.rows_dominated - before.rows_dominated,
        imbert_skipped: after.imbert_skipped - before.imbert_skipped,
        early_unsat_exits: after.early_unsat_exits - before.early_unsat_exits,
        max_width: 0,
        emptiness_checks: after.emptiness_checks - before.emptiness_checks,
        emptiness_memo_hits: after.emptiness_memo_hits - before.emptiness_memo_hits,
        emptiness_witnesses: after.emptiness_witnesses - before.emptiness_witnesses,
        overflow_restarts: after.overflow_restarts - before.overflow_restarts,
        budget_drops: after.budget_drops - before.budget_drops,
    }
}

#[test]
fn a_pass_rerun_after_an_overflow_counts_its_rows_once() {
    let (h, k, g, l) = ((1 << 40) + 1, (1 << 40) - 1, (1 << 41) + 1, (1 << 41) - 1);
    let keep: BTreeSet<Symbol> = [Symbol::new("b")].into_iter().collect();
    // Eliminating `t` first (growth −1 against +1) breeds `a − 1 ≤ 0` from
    // small rows; eliminating `a` then multiplies ~2^40 by ~2^41.
    let project = || {
        let p = Polyhedron::from_atoms(vec![
            le(&[("a", 1), ("t", -1)], 0),
            le(&[("t", 1)], -1),
            le(&[("a", h), ("b", k)], 0),
            le(&[("a", -g), ("b", l)], -1),
            le(&[("a", 1), ("b", 1)], -5),
            le(&[("a", -1), ("b", -1)], 0),
        ]);
        let before = stats::snapshot();
        let projected = p.project_onto(&keep);
        (projected, delta(before, stats::snapshot()))
    };
    let (rerun, counted) = project();
    chora_numeric::stats::set_force_heap(true);
    let (rational, reference) = project();
    chora_numeric::stats::set_force_heap(false);
    assert_eq!(rerun, rational);
    assert_eq!(counted, reference);
    assert_eq!(counted.overflow_restarts, 1);
    assert!(counted.rows_generated > 1, "{counted:?}");
}
