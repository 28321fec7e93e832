//! Instrumentation for the Fourier–Motzkin projection engine.
//!
//! Always compiled (the former `stats` cargo feature is gone): the
//! projection pass in [`crate::Polyhedron`] counts every combined row it
//! produces and every row the redundancy-control layers discard —
//! hash-cons dedup, quasi-syntactic domination, Imbert's acceleration —
//! plus the early-unsat exits, the widest intermediate system any
//! elimination step produced, the passes rerun on rational rows because a
//! value did not fit a machine-integer row, and how many emptiness
//! decisions were made, how many of them the per-run memo
//! ([`crate::EmptinessMemo`]) answered, and how many a simplex witness
//! answered "non-empty" — the last two without eliminating.  A pass
//! buffers its row counts and publishes them when it ends, so a pass that
//! reruns counts its rows once.  One counter is a precision loss rather
//! than work: `budget_drops`, the elimination steps whose pos×neg
//! combinations would have passed the constraint budget, so they dropped
//! every row of their dimension instead (a sound over-approximation).  The
//! counters are process-wide relaxed atomics, mirroring
//! `chora_numeric::stats`, and [`register_metrics`] publishes the same
//! cells into the [`chora_telemetry::metrics`] registry as `chora_fm_*`
//! series for the `/v1/metrics` scrape.
//!
//! The elimination arithmetic itself runs on machine-integer rows and does
//! not show in `chora_numeric::stats`: only a rerun pass, and the
//! conversions between atoms and rows, use `BigInt`/`BigRational`.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Once;

/// A snapshot of the Fourier–Motzkin counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FmStats {
    /// Rows produced by pos×neg combination or equality substitution.
    pub rows_generated: u64,
    /// Produced rows dropped because an identical row was already kept.
    pub rows_deduped: u64,
    /// Rows dropped (or replaced) by a parallel row with a tighter constant.
    pub rows_dominated: u64,
    /// Combinations dropped by Kohler's ancestor/gone-set bound before the
    /// row was stored or bred from.
    pub imbert_skipped: u64,
    /// Projection passes abandoned early on a derived contradiction.
    pub early_unsat_exits: u64,
    /// The largest live constraint count any elimination step produced.
    pub max_width: u64,
    /// Emptiness decisions (`is_empty_set`, and each negated disjunct of
    /// `implies_atom`), memoized or not.
    pub emptiness_checks: u64,
    /// Emptiness decisions answered from an open [`crate::EmptinessMemo`]
    /// instead of a Fourier–Motzkin run.
    pub emptiness_memo_hits: u64,
    /// `is_empty_set` decisions answered "non-empty" by a simplex witness
    /// instead of a Fourier–Motzkin run.
    pub emptiness_witnesses: u64,
    /// Projection passes rerun on rational rows because a value did not
    /// fit a machine-integer row (found in the input or mid-pass).
    pub overflow_restarts: u64,
    /// Elimination steps that dropped every row of their dimension because
    /// the pos×neg combinations, with the rows left alone, would have
    /// passed the constraint budget: each one may lose facts.
    pub budget_drops: u64,
}

pub(crate) static ROWS_GENERATED: AtomicU64 = AtomicU64::new(0);
pub(crate) static ROWS_DEDUPED: AtomicU64 = AtomicU64::new(0);
pub(crate) static ROWS_DOMINATED: AtomicU64 = AtomicU64::new(0);
pub(crate) static IMBERT_SKIPPED: AtomicU64 = AtomicU64::new(0);
pub(crate) static EARLY_UNSAT_EXITS: AtomicU64 = AtomicU64::new(0);
pub(crate) static MAX_WIDTH: AtomicU64 = AtomicU64::new(0);
pub(crate) static EMPTINESS_CHECKS: AtomicU64 = AtomicU64::new(0);
pub(crate) static EMPTINESS_MEMO_HITS: AtomicU64 = AtomicU64::new(0);
pub(crate) static EMPTINESS_WITNESSES: AtomicU64 = AtomicU64::new(0);
pub(crate) static OVERFLOW_RESTARTS: AtomicU64 = AtomicU64::new(0);
pub(crate) static BUDGET_DROPS: AtomicU64 = AtomicU64::new(0);

/// Reads the current counter values.
pub fn snapshot() -> FmStats {
    FmStats {
        rows_generated: ROWS_GENERATED.load(Ordering::Relaxed),
        rows_deduped: ROWS_DEDUPED.load(Ordering::Relaxed),
        rows_dominated: ROWS_DOMINATED.load(Ordering::Relaxed),
        imbert_skipped: IMBERT_SKIPPED.load(Ordering::Relaxed),
        early_unsat_exits: EARLY_UNSAT_EXITS.load(Ordering::Relaxed),
        max_width: MAX_WIDTH.load(Ordering::Relaxed),
        emptiness_checks: EMPTINESS_CHECKS.load(Ordering::Relaxed),
        emptiness_memo_hits: EMPTINESS_MEMO_HITS.load(Ordering::Relaxed),
        emptiness_witnesses: EMPTINESS_WITNESSES.load(Ordering::Relaxed),
        overflow_restarts: OVERFLOW_RESTARTS.load(Ordering::Relaxed),
        budget_drops: BUDGET_DROPS.load(Ordering::Relaxed),
    }
}

/// Zeroes all counters.
pub fn reset() {
    ROWS_GENERATED.store(0, Ordering::Relaxed);
    ROWS_DEDUPED.store(0, Ordering::Relaxed);
    ROWS_DOMINATED.store(0, Ordering::Relaxed);
    IMBERT_SKIPPED.store(0, Ordering::Relaxed);
    EARLY_UNSAT_EXITS.store(0, Ordering::Relaxed);
    MAX_WIDTH.store(0, Ordering::Relaxed);
    EMPTINESS_CHECKS.store(0, Ordering::Relaxed);
    EMPTINESS_MEMO_HITS.store(0, Ordering::Relaxed);
    EMPTINESS_WITNESSES.store(0, Ordering::Relaxed);
    OVERFLOW_RESTARTS.store(0, Ordering::Relaxed);
    BUDGET_DROPS.store(0, Ordering::Relaxed);
}

/// Adds a pass's buffered increments to the counters (`max_width` as a
/// maximum).
pub(crate) fn publish(delta: &FmStats) {
    let FmStats {
        rows_generated,
        rows_deduped,
        rows_dominated,
        imbert_skipped,
        early_unsat_exits,
        max_width,
        emptiness_checks,
        emptiness_memo_hits,
        emptiness_witnesses,
        overflow_restarts,
        budget_drops,
    } = *delta;
    for (counter, n) in [
        (&ROWS_GENERATED, rows_generated),
        (&ROWS_DEDUPED, rows_deduped),
        (&ROWS_DOMINATED, rows_dominated),
        (&IMBERT_SKIPPED, imbert_skipped),
        (&EARLY_UNSAT_EXITS, early_unsat_exits),
        (&EMPTINESS_CHECKS, emptiness_checks),
        (&EMPTINESS_MEMO_HITS, emptiness_memo_hits),
        (&EMPTINESS_WITNESSES, emptiness_witnesses),
        (&OVERFLOW_RESTARTS, overflow_restarts),
        (&BUDGET_DROPS, budget_drops),
    ] {
        if n != 0 {
            counter.fetch_add(n, Ordering::Relaxed);
        }
    }
    if max_width != 0 {
        MAX_WIDTH.fetch_max(max_width, Ordering::Relaxed);
    }
}

#[inline]
pub(crate) fn bump(counter: &AtomicU64) {
    counter.fetch_add(1, Ordering::Relaxed);
}

/// Publishes the counters into the process-wide metrics registry as
/// `chora_fm_*` series.  Idempotent.
pub fn register_metrics() {
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        let registry = chora_telemetry::metrics::registry();
        registry.register_counter_static(
            "chora_fm_rows_generated_total",
            "FM rows produced by pos/neg combination or equality substitution.",
            &ROWS_GENERATED,
        );
        registry.register_counter_static(
            "chora_fm_rows_deduped_total",
            "FM rows dropped because an identical row was already kept.",
            &ROWS_DEDUPED,
        );
        registry.register_counter_static(
            "chora_fm_rows_dominated_total",
            "FM rows dropped or replaced by a parallel row with a tighter constant.",
            &ROWS_DOMINATED,
        );
        registry.register_counter_static(
            "chora_fm_imbert_skipped_total",
            "FM combinations dropped by Kohler's ancestor/gone-set bound.",
            &IMBERT_SKIPPED,
        );
        registry.register_counter_static(
            "chora_fm_early_unsat_exits_total",
            "FM projection passes abandoned early on a derived contradiction.",
            &EARLY_UNSAT_EXITS,
        );
        registry.register_counter_static(
            "chora_fm_emptiness_checks_total",
            "FM emptiness decisions (is_empty_set and negated implies_atom disjuncts).",
            &EMPTINESS_CHECKS,
        );
        registry.register_counter_static(
            "chora_fm_emptiness_memo_hits_total",
            "FM emptiness decisions answered from the per-run memo.",
            &EMPTINESS_MEMO_HITS,
        );
        registry.register_counter_static(
            "chora_fm_emptiness_witnesses_total",
            "FM emptiness decisions answered non-empty by a simplex witness.",
            &EMPTINESS_WITNESSES,
        );
        registry.register_counter_static(
            "chora_fm_overflow_restarts_total",
            "FM projection passes rerun on rational rows after a machine-integer overflow.",
            &OVERFLOW_RESTARTS,
        );
        registry.register_counter_static(
            "chora_fm_budget_drops_total",
            "FM elimination steps that dropped a dimension's rows to stay within the constraint budget.",
            &BUDGET_DROPS,
        );
        registry.register_gauge_static(
            "chora_fm_max_width",
            "Largest live constraint count any FM elimination step produced.",
            &MAX_WIDTH,
        );
    });
}

macro_rules! fm_stat {
    ($counter:ident) => {
        $crate::stats::bump(&$crate::stats::$counter);
    };
}
pub(crate) use fm_stat;
