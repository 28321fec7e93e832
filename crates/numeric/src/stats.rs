//! Small-path instrumentation for the numeric tower.
//!
//! Always compiled (the former `stats` cargo feature is gone): every
//! [`crate::BigInt`] operation bumps a relaxed atomic counter recording
//! whether it ran on the inline `i64` fast path or fell through to the
//! limb-vector heap path, and the promote/demote transitions between the
//! two representations are counted.  A relaxed `fetch_add` on an
//! uncontended cache line is the entire cost — the micro_substrates bench
//! records the tracing-layer overhead on the same workload and the
//! counters themselves are below measurement noise (≤1%).
//!
//! The counters are the crate's own statics (the hot path never goes
//! through a lookup); [`register_metrics`] publishes the same cells into
//! the process-wide [`chora_telemetry::metrics`] registry so a
//! `/v1/metrics` scrape renders them as `chora_numeric_*` series.
//!
//! They count arithmetic on these types only.  `chora_logic`'s
//! Fourier–Motzkin passes eliminate on machine-integer rows of their own,
//! so elimination shows here only when a pass reruns on rational rows
//! after an overflow, or when forced-heap mode keeps values off the
//! machine-integer rows; the conversions between atoms and rows still
//! count.
//!
//! [`set_force_heap`] is a process-wide switch that makes every
//! constructor produce the heap representation and disables demotion —
//! this is how the FM micro-benchmark measures the pre-fast-path
//! ("everything heap-allocates") baseline on the *same* binary.  The flag
//! is read on construction paths only; arithmetic dispatches on the
//! operand representation, so heap-built values stay on the heap path
//! throughout.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Once;

/// A snapshot of the numeric-tower counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NumericStats {
    /// `BigInt` operations completed entirely on the inline `i64` path.
    pub small_ops: u64,
    /// `BigInt` operations that ran limb-vector code.
    pub heap_ops: u64,
    /// Small-path operations whose result overflowed `i64` and promoted.
    pub promotions: u64,
    /// Heap-path results that fit `i64` and demoted back to the inline form.
    pub demotions: u64,
    /// `BigRational` operations served by the eager `i64` gcd fast path.
    pub rational_small_ops: u64,
    /// `BigRational` operations that fell back to `BigInt` arithmetic.
    pub rational_heap_ops: u64,
}

pub(crate) static SMALL_OPS: AtomicU64 = AtomicU64::new(0);
pub(crate) static HEAP_OPS: AtomicU64 = AtomicU64::new(0);
pub(crate) static PROMOTIONS: AtomicU64 = AtomicU64::new(0);
pub(crate) static DEMOTIONS: AtomicU64 = AtomicU64::new(0);
pub(crate) static RATIONAL_SMALL_OPS: AtomicU64 = AtomicU64::new(0);
pub(crate) static RATIONAL_HEAP_OPS: AtomicU64 = AtomicU64::new(0);
static FORCE_HEAP: AtomicBool = AtomicBool::new(false);

/// Reads the current counter values.
pub fn snapshot() -> NumericStats {
    NumericStats {
        small_ops: SMALL_OPS.load(Ordering::Relaxed),
        heap_ops: HEAP_OPS.load(Ordering::Relaxed),
        promotions: PROMOTIONS.load(Ordering::Relaxed),
        demotions: DEMOTIONS.load(Ordering::Relaxed),
        rational_small_ops: RATIONAL_SMALL_OPS.load(Ordering::Relaxed),
        rational_heap_ops: RATIONAL_HEAP_OPS.load(Ordering::Relaxed),
    }
}

/// Zeroes all counters.
pub fn reset() {
    SMALL_OPS.store(0, Ordering::Relaxed);
    HEAP_OPS.store(0, Ordering::Relaxed);
    PROMOTIONS.store(0, Ordering::Relaxed);
    DEMOTIONS.store(0, Ordering::Relaxed);
    RATIONAL_SMALL_OPS.store(0, Ordering::Relaxed);
    RATIONAL_HEAP_OPS.store(0, Ordering::Relaxed);
}

/// When `true`, constructors produce the heap representation and results
/// never demote — the benchmarking baseline.  Affects newly constructed
/// values only.
pub fn set_force_heap(on: bool) {
    FORCE_HEAP.store(on, Ordering::Relaxed);
}

#[inline]
pub(crate) fn force_heap() -> bool {
    FORCE_HEAP.load(Ordering::Relaxed)
}

#[inline]
pub(crate) fn bump(counter: &AtomicU64) {
    counter.fetch_add(1, Ordering::Relaxed);
}

/// Publishes the counters into the process-wide metrics registry as
/// `chora_numeric_*` series.  Idempotent; the hot paths keep bumping the
/// same statics whether or not anyone ever scrapes them.
pub fn register_metrics() {
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        let registry = chora_telemetry::metrics::registry();
        registry.register_counter_static(
            "chora_numeric_small_ops_total",
            "BigInt operations completed on the inline i64 fast path.",
            &SMALL_OPS,
        );
        registry.register_counter_static(
            "chora_numeric_heap_ops_total",
            "BigInt operations that ran limb-vector code.",
            &HEAP_OPS,
        );
        registry.register_counter_static(
            "chora_numeric_promotions_total",
            "Small-path results that overflowed i64 and promoted to the heap form.",
            &PROMOTIONS,
        );
        registry.register_counter_static(
            "chora_numeric_demotions_total",
            "Heap-path results that fit i64 and demoted to the inline form.",
            &DEMOTIONS,
        );
        registry.register_counter_static(
            "chora_numeric_rational_small_ops_total",
            "BigRational operations served by the eager i64 gcd fast path.",
            &RATIONAL_SMALL_OPS,
        );
        registry.register_counter_static(
            "chora_numeric_rational_heap_ops_total",
            "BigRational operations that fell back to BigInt arithmetic.",
            &RATIONAL_HEAP_OPS,
        );
    });
}

macro_rules! numeric_stat {
    ($counter:ident) => {
        $crate::stats::bump(&$crate::stats::$counter);
    };
}
pub(crate) use numeric_stat;
