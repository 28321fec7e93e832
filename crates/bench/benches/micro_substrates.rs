//! Micro-benchmarks of the substrate layers: exact arithmetic, polyhedral
//! operations, recurrence solving — and the two headline deltas of the
//! interned-symbol refactor:
//!
//! * **string-vs-interned**: the same polynomial workload over the legacy
//!   `Arc<str>`-keyed `BTreeMap` representation (re-implemented locally as
//!   the baseline) and over the interned sorted-`Vec` representation,
//! * **sequential-vs-parallel**: a whole-program analysis with many
//!   independent recursive components, run with `jobs = 1` and `jobs = N`,
//! * **small-vs-heap numeric tower**: the same Fourier–Motzkin elimination
//!   workload on the inline `Small(i64)` fast path and with
//!   `chora_numeric::stats::set_force_heap(true)` (every value limb-vector
//!   allocated — the pre-fast-path baseline), plus the small-path hit /
//!   promotion counters from the `stats` feature,
//! * **algorithmic-vs-naive Fourier–Motzkin**: the same chain projection
//!   through the greedy-ordered, redundancy-pruned engine and through the
//!   preserved fixed-order naive path, plus the dedup / domination / Imbert
//!   counters from `chora_logic`'s `stats` feature.
//!
//! All deltas are measured in wall-clock time and recorded in
//! `target/micro_substrates.json` so CI (the `bench-smoke` job) and humans
//! can track regressions.  Passing `--smoke` runs a single iteration of
//! everything — fast enough to gate every push.

use chora_core::{AnalysisConfig, Analyzer};
use chora_expr::{Monomial, Polynomial, Symbol};
use chora_ir::{Cond, Expr, Procedure, Program, Stmt};
use chora_logic::{Atom, Polyhedron};
use chora_numeric::{rat, BigInt, BigRational};
use chora_recurrence::RecurrenceSystem;
use criterion::{criterion_group, criterion_main, Criterion};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;
use std::time::Instant;

// ---------------------------------------------------------------------------
// The legacy representation, reconstructed as a baseline: symbols are shared
// strings compared lexicographically, monomials and polynomials are B-trees
// keyed by them (this is exactly what `chora_expr` looked like before the
// interner).
// ---------------------------------------------------------------------------

#[derive(Clone, PartialEq, Eq, PartialOrd, Ord)]
struct StrSymbol(Arc<str>);

type StrMonomial = BTreeMap<StrSymbol, u32>;
type StrPolynomial = BTreeMap<StrMonomial, BigRational>;

fn str_add_term(p: &mut StrPolynomial, c: &BigRational, m: &StrMonomial) {
    if c.is_zero() {
        return;
    }
    let entry = p.entry(m.clone()).or_insert_with(BigRational::zero);
    *entry += c;
    if entry.is_zero() {
        p.remove(m);
    }
}

fn str_mul(a: &StrPolynomial, b: &StrPolynomial) -> StrPolynomial {
    let mut out = StrPolynomial::new();
    for (m1, c1) in a {
        for (m2, c2) in b {
            let mut m = m1.clone();
            for (s, e) in m2 {
                *m.entry(s.clone()).or_insert(0) += e;
            }
            str_add_term(&mut out, &(c1 * c2), &m);
        }
    }
    out
}

/// The shared workload shape: two dense-ish polynomials over `n` variables,
/// multiplied, then folded into a running sum.  Returns a term count so the
/// optimizer cannot discard the work.
fn string_poly_workload(syms: &[StrSymbol]) -> usize {
    let mut p = StrPolynomial::new();
    let mut q = StrPolynomial::new();
    for (i, s) in syms.iter().enumerate() {
        let mut lin = StrMonomial::new();
        lin.insert(s.clone(), 1);
        str_add_term(&mut p, &rat(i as i64 + 1), &lin);
        let mut quad = StrMonomial::new();
        quad.insert(s.clone(), 1);
        quad.insert(syms[(i + 1) % syms.len()].clone(), 1);
        str_add_term(&mut q, &rat(i as i64 - 3), &quad);
    }
    let prod = str_mul(&p, &q);
    let mut acc = StrPolynomial::new();
    for _ in 0..4 {
        for (m, c) in &prod {
            str_add_term(&mut acc, c, m);
        }
    }
    acc.len()
}

/// The identical workload over the interned sorted-`Vec` representation.
fn interned_poly_workload(syms: &[Symbol]) -> usize {
    let mut p = Polynomial::zero();
    let mut q = Polynomial::zero();
    for (i, s) in syms.iter().enumerate() {
        p = &p + &Polynomial::term(rat(i as i64 + 1), Monomial::var(*s));
        q = &q
            + &Polynomial::term(
                rat(i as i64 - 3),
                Monomial::from_powers([(*s, 1), (syms[(i + 1) % syms.len()], 1)]),
            );
    }
    let prod = &p * &q;
    let mut acc = Polynomial::zero();
    for _ in 0..4 {
        acc = &acc + &prod;
    }
    acc.len()
}

// ---------------------------------------------------------------------------
// Sequential vs. level-parallel driver: many independent recursive SCCs.
// ---------------------------------------------------------------------------

/// A program with `k` independent hanoi-shaped procedures plus a `main`
/// calling all of them: one call-graph level with `k` mutually independent
/// recursive components — the best case for the level scheduler.
fn independent_sccs_program(k: usize) -> Program {
    let mut prog = Program::new();
    prog.add_global("cost");
    let mut main_body = Vec::new();
    for i in 0..k {
        let name = format!("work{i}");
        prog.add_procedure(Procedure::new(
            &name,
            &["n"],
            &[],
            Stmt::seq(vec![
                Stmt::assign("cost", Expr::var("cost").add(Expr::int(1))),
                Stmt::if_then(
                    Cond::gt(Expr::var("n"), Expr::int(0)),
                    Stmt::seq(vec![
                        Stmt::call(&name, vec![Expr::var("n").sub(Expr::int(1))]),
                        Stmt::call(&name, vec![Expr::var("n").sub(Expr::int(1))]),
                    ]),
                ),
            ]),
        ));
        main_body.push(Stmt::call(&name, vec![Expr::var("n")]));
    }
    prog.add_procedure(Procedure::new("main", &["n"], &[], Stmt::seq(main_body)));
    prog
}

fn analyze_with_jobs(program: &Program, jobs: usize) -> usize {
    let analyzer = Analyzer::with_config(AnalysisConfig {
        jobs,
        ..AnalysisConfig::default()
    });
    analyzer.analyze(program).summaries.len()
}

// ---------------------------------------------------------------------------
// Small-vs-heap numeric tower: Fourier–Motzkin chain elimination.
// ---------------------------------------------------------------------------

/// A chain where every variable is bounded above and below (twice each, with
/// distinct slopes) in terms of its predecessor; projecting onto the two
/// endpoints runs Fourier–Motzkin over all the middle variables, composing
/// the bounds.  Coefficients start small and stay small-integer rationals
/// throughout — exactly the regime the inline `Small(i64)` fast path targets.
/// Returns the surviving constraint count so the optimizer cannot discard
/// the work.
fn fm_chain_atoms(syms: &[Symbol]) -> Vec<Atom> {
    let var = |i: usize| Polynomial::var(syms[i]);
    let cst = |v: i64| Polynomial::constant(rat(v));
    let mut atoms = Vec::new();
    for i in 0..syms.len() - 1 {
        let step = i as i64 + 1;
        atoms.push(Atom::le(
            var(i + 1).scale(&rat(3)),
            &var(i).scale(&rat(2)) + &cst(step + 6),
        ));
        atoms.push(Atom::le(
            var(i + 1).scale(&rat(5)),
            &var(i).scale(&rat(4)) + &cst(11),
        ));
        atoms.push(Atom::ge(
            var(i + 1).scale(&rat(2)),
            &var(i) - &cst(step + 2),
        ));
        atoms.push(Atom::ge(
            var(i + 1).scale(&rat(7)),
            &var(i).scale(&rat(3)) - &cst(5),
        ));
    }
    atoms
}

fn fm_chain_workload(syms: &[Symbol]) -> usize {
    let p = Polyhedron::from_atoms(fm_chain_atoms(syms));
    let keep: BTreeSet<Symbol> = [syms[0], syms[syms.len() - 1]].into_iter().collect();
    p.project_onto(&keep).len()
}

/// The same chain projection through the preserved fixed-order,
/// no-redundancy-control Fourier–Motzkin path — the pre-algorithmic
/// baseline the `fm_projection` section compares against.
fn fm_chain_workload_naive(syms: &[Symbol]) -> usize {
    let p = Polyhedron::from_atoms(fm_chain_atoms(syms));
    let keep: BTreeSet<Symbol> = [syms[0], syms[syms.len() - 1]].into_iter().collect();
    p.project_onto_naive(&keep).len()
}

// ---------------------------------------------------------------------------
// Timing + JSON recording
// ---------------------------------------------------------------------------

fn smoke() -> bool {
    std::env::args().any(|a| a == "--smoke")
}

/// Mean wall-clock seconds of `iters` runs of `f` (after one warm-up).
fn time_secs<O>(iters: usize, mut f: impl FnMut() -> O) -> f64 {
    std::hint::black_box(f());
    let start = Instant::now();
    for _ in 0..iters {
        std::hint::black_box(f());
    }
    start.elapsed().as_secs_f64() / iters as f64
}

fn representation_and_parallelism_deltas() {
    let smoke = smoke();
    let poly_iters = if smoke { 1 } else { 200 };
    let analysis_iters = if smoke { 1 } else { 5 };

    // String vs. interned representation.  Symbols for both sides are built
    // *outside* the timed region, so only the representations themselves are
    // compared (not one-off Arc/interner construction cost).
    let names: Vec<String> = (0..24).map(|i| format!("var_sym_{i}")).collect();
    let str_syms: Vec<StrSymbol> = names
        .iter()
        .map(|n| StrSymbol(Arc::from(n.as_str())))
        .collect();
    let syms: Vec<Symbol> = names.iter().map(|n| Symbol::new(n)).collect();
    let expected = string_poly_workload(&str_syms);
    assert_eq!(
        expected,
        interned_poly_workload(&syms),
        "both representations must compute the same polynomial"
    );
    let string_ns = time_secs(poly_iters, || string_poly_workload(&str_syms)) * 1e9;
    let interned_ns = time_secs(poly_iters, || interned_poly_workload(&syms)) * 1e9;

    // Sequential vs. level-parallel analysis.  On a single-core machine the
    // honest measurement is jobs = 1 (the scheduler then takes the
    // zero-overhead sequential path, and the recorded speedup is ~1.0).
    let jobs = std::thread::available_parallelism()
        .map(|n| n.get().min(4))
        .unwrap_or(1);
    let program = independent_sccs_program(8);
    let seq_ms = time_secs(analysis_iters, || analyze_with_jobs(&program, 1)) * 1e3;
    let par_ms = time_secs(analysis_iters, || analyze_with_jobs(&program, jobs)) * 1e3;

    // Per-phase breakdown (summarize / solve / check) of one sequential run,
    // and the summary-cache cold-vs-warm delta: the cold run populates a
    // fresh store, the warm runs are then pure cache hits — the headline
    // number of the content-addressed cache.
    let analyzer = Analyzer::with_config(AnalysisConfig {
        jobs: 1,
        ..AnalysisConfig::default()
    });
    let store = chora_core::TieredStore::new(
        None,
        chora_core::TieredConfig {
            cap_bytes: None,
            ..chora_core::TieredConfig::default()
        },
    );
    let cold_started = Instant::now();
    let cold_result = analyzer.analyze_with_store(&program, Some(&store));
    let cache_cold_ms = cold_started.elapsed().as_secs_f64() * 1e3;
    let phases = cold_result.timings;
    // The hit counter is captured inside the timed closure (identical for
    // every warm iteration) instead of paying one more full analysis.
    let mut warm_hits = 0;
    let warm_ms = time_secs(analysis_iters, || {
        let result = analyzer.analyze_with_store(&program, Some(&store));
        warm_hits = result.cache.hits;
        result.summaries.len()
    }) * 1e3;

    // Small(i64) fast path vs forced-heap baseline on the FM chain.  The
    // counters are captured over one instrumented run (reset → run →
    // snapshot) so they describe a single workload execution; the forced-heap
    // switch is flipped only around the baseline so everything after it runs
    // on the normal path again.
    let fm_iters = if smoke { 1 } else { 40 };
    let fm_syms: Vec<Symbol> = (0..10).map(|i| Symbol::new(&format!("fm_x{i}"))).collect();
    chora_numeric::stats::reset();
    let fm_constraints = fm_chain_workload(&fm_syms);
    let fm_stats = chora_numeric::stats::snapshot();
    let fm_small_ms = time_secs(fm_iters, || fm_chain_workload(&fm_syms)) * 1e3;
    chora_numeric::stats::set_force_heap(true);
    assert_eq!(
        fm_constraints,
        fm_chain_workload(&fm_syms),
        "both representations must project to the same polyhedron"
    );
    let fm_heap_ms = time_secs(fm_iters, || fm_chain_workload(&fm_syms)) * 1e3;
    chora_numeric::stats::set_force_heap(false);

    // Algorithmic FM (greedy elimination order + dedup / domination /
    // Imbert pruning) vs the preserved fixed-order naive path on the same
    // chain.  The counters are captured over one instrumented pruned run.
    chora_logic::stats::reset();
    let fm_pruned_constraints = fm_chain_workload(&fm_syms);
    let fm_logic_stats = chora_logic::stats::snapshot();
    let fm_naive_constraints = fm_chain_workload_naive(&fm_syms);
    let fm_pruned_ms = time_secs(fm_iters, || fm_chain_workload(&fm_syms)) * 1e3;
    let fm_naive_ms = time_secs(fm_iters, || fm_chain_workload_naive(&fm_syms)) * 1e3;

    // Telemetry overhead on the same FM chain: spans with no session active
    // (one relaxed atomic load each — the always-on cost every analysis now
    // pays, registry counters included) vs under a live recording session
    // (two clock reads plus a mutex push per span).  The first number is
    // the evidence that de-gating the stats counters is free; the second is
    // what `--trace-out` costs while it records.
    let telemetry_off_ms = time_secs(fm_iters, || fm_chain_workload(&fm_syms)) * 1e3;
    let telemetry_session =
        chora_telemetry::trace::start().expect("no other trace session records during the bench");
    let telemetry_on_ms = time_secs(fm_iters, || fm_chain_workload(&fm_syms)) * 1e3;
    let telemetry_spans = telemetry_session.finish().events.len();
    let telemetry_overhead_pct = (telemetry_on_ms / telemetry_off_ms - 1.0) * 100.0;

    let report = format!(
        "{{\n  \"smoke\": {smoke},\n  \"poly_workload\": {{\n    \"string_ns\": {string_ns:.0},\n    \"interned_ns\": {interned_ns:.0},\n    \"interned_speedup\": {:.3}\n  }},\n  \"level_parallel\": {{\n    \"jobs\": {jobs},\n    \"seq_ms\": {seq_ms:.3},\n    \"par_ms\": {par_ms:.3},\n    \"parallel_speedup\": {:.3}\n  }},\n  \"phases\": {{\n    \"summarize_ms\": {:.3},\n    \"solve_ms\": {:.3},\n    \"check_ms\": {:.3}\n  }},\n  \"summary_cache\": {{\n    \"cold_ms\": {cache_cold_ms:.3},\n    \"warm_ms\": {warm_ms:.3},\n    \"warm_speedup\": {:.3},\n    \"warm_hits\": {warm_hits}\n  }},\n  \"numeric\": {{\n    \"fm_constraints\": {fm_constraints},\n    \"fm_small_ms\": {fm_small_ms:.3},\n    \"fm_forced_heap_ms\": {fm_heap_ms:.3},\n    \"fm_small_speedup\": {:.3},\n    \"small_ops\": {},\n    \"heap_ops\": {},\n    \"promotions\": {},\n    \"demotions\": {},\n    \"rational_small_ops\": {},\n    \"rational_heap_ops\": {}\n  }},\n  \"fm_projection\": {{\n    \"pruned_constraints\": {fm_pruned_constraints},\n    \"naive_constraints\": {fm_naive_constraints},\n    \"pruned_ms\": {fm_pruned_ms:.3},\n    \"naive_ms\": {fm_naive_ms:.3},\n    \"algorithmic_speedup\": {:.3},\n    \"rows_generated\": {},\n    \"rows_deduped\": {},\n    \"rows_dominated\": {},\n    \"imbert_skipped\": {},\n    \"early_unsat_exits\": {},\n    \"max_width\": {}\n  }},\n  \"telemetry\": {{\n    \"trace_off_ms\": {telemetry_off_ms:.3},\n    \"trace_on_ms\": {telemetry_on_ms:.3},\n    \"overhead_pct\": {telemetry_overhead_pct:.2},\n    \"spans_recorded\": {telemetry_spans}\n  }}\n}}\n",
        string_ns / interned_ns,
        seq_ms / par_ms,
        phases.summarize_ms,
        phases.solve_ms,
        phases.check_ms,
        cache_cold_ms / warm_ms,
        fm_heap_ms / fm_small_ms,
        fm_stats.small_ops,
        fm_stats.heap_ops,
        fm_stats.promotions,
        fm_stats.demotions,
        fm_stats.rational_small_ops,
        fm_stats.rational_heap_ops,
        fm_naive_ms / fm_pruned_ms,
        fm_logic_stats.rows_generated,
        fm_logic_stats.rows_deduped,
        fm_logic_stats.rows_dominated,
        fm_logic_stats.imbert_skipped,
        fm_logic_stats.early_unsat_exits,
        fm_logic_stats.max_width
    );
    println!("substrate-deltas\n{report}");
    let target = std::env::var("CARGO_TARGET_DIR")
        .unwrap_or_else(|_| format!("{}/../../target", env!("CARGO_MANIFEST_DIR")));
    let path = std::path::Path::new(&target).join("micro_substrates.json");
    if let Err(e) = std::fs::write(&path, &report) {
        eprintln!(
            "warning: could not record bench JSON at {}: {e}",
            path.display()
        );
    } else {
        println!("recorded {}", path.display());
    }
}

fn micro(c: &mut Criterion) {
    representation_and_parallelism_deltas();
    if smoke() {
        // --smoke: the deltas above already ran one iteration of everything;
        // skip the repeated-sample criterion cases.
        return;
    }
    c.bench_function("bigint/mul-256bit", |b| {
        let x: BigInt =
            "123456789012345678901234567890123456789012345678901234567890123456789012345"
                .parse()
                .unwrap();
        b.iter(|| std::hint::black_box(&x) * std::hint::black_box(&x))
    });
    c.bench_function("bigrational/sum-1000", |b| {
        b.iter(|| {
            let mut acc = BigRational::zero();
            for i in 1..1000i64 {
                acc += &BigRational::new(BigInt::from(1), BigInt::from(i));
            }
            acc
        })
    });
    c.bench_function("polyhedron/hull-join", |b| {
        let x = Polynomial::var(Symbol::new("x"));
        let y = Polynomial::var(Symbol::new("y"));
        let p1 = Polyhedron::from_atoms(vec![
            Atom::ge(x.clone(), Polynomial::constant(rat(0))),
            Atom::le(x.clone(), Polynomial::constant(rat(1))),
            Atom::eq(y.clone(), x.clone()),
        ]);
        let p2 = Polyhedron::from_atoms(vec![
            Atom::ge(x.clone(), Polynomial::constant(rat(5))),
            Atom::le(x.clone(), Polynomial::constant(rat(9))),
            Atom::le(y.clone(), Polynomial::constant(rat(2))),
        ]);
        b.iter(|| std::hint::black_box(&p1).join(std::hint::black_box(&p2)))
    });
    c.bench_function("recurrence/hanoi-solve", |b| {
        b.iter(|| {
            let mut sys = RecurrenceSystem::new();
            let bh = Polynomial::var(Symbol::bound_at_h(1));
            sys.add_equation(1, &bh.scale(&rat(2)) + &Polynomial::constant(rat(1)));
            sys.solve().unwrap()
        })
    });
    c.bench_function("recurrence/mutual-6x6", |b| {
        b.iter(|| {
            let mut sys = RecurrenceSystem::new();
            let b1 = Polynomial::var(Symbol::bound_at_h(1));
            let b2 = Polynomial::var(Symbol::bound_at_h(2));
            sys.add_equation(1, &b2.scale(&rat(18)) + &Polynomial::constant(rat(17)));
            sys.add_equation(2, &b1.scale(&rat(2)) + &Polynomial::constant(rat(1)));
            sys.solve().unwrap()
        })
    });
}

criterion_group!(benches, micro);
criterion_main!(benches);
