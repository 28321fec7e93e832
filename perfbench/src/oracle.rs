//! The soundness oracle: replays the analyzer's claims on the concrete
//! interpreter, independently of the analysis.
//!
//! * Every proved assertion is executed from its procedure's entry with
//!   seeded small arguments, globals, and nondeterministic choices; a run
//!   that fails a proved assertion is a violation.  (Assertions are checked
//!   context-insensitively by the analysis, so any entry state is fair.)
//! * Every Table 1 bound must dominate the cost the interpreter measures at
//!   small sizes, with the other parameters and globals at zero, as
//!   `complexity::eval_bound_at` evaluates it.
//!
//! Every suite assertion is true, so an unproved one is imprecision, not an
//! error; only a wrong claim counts.

use crate::stats::Rng;
use crate::suite::{Bench, Verdict};
use chora_core::complexity;
use chora_expr::Symbol;
use chora_ir::{ExecError, Interpreter, Program};

/// Interpreter steps per run; runs that exhaust it are skipped.
const FUEL: u64 = 200_000;
/// Random entry states per procedure holding a proved assertion.
const ASSERT_TRIALS: usize = 48;
/// Largest size at which Table 1 bounds are compared with measured cost.
const MAX_SIZE: i64 = 8;
/// Nondeterministic resolutions per size.
const COST_TRIALS: usize = 3;

/// The oracle's tally: runs that completed, and the claims they refuted.
#[derive(Debug, Default)]
pub struct Tally {
    pub checks: u64,
    pub violations: Vec<String>,
}

pub fn check(benches: &[Bench], verdicts: &[Verdict], rng: &mut Rng) -> Tally {
    let mut tally = Tally::default();
    for (bench, verdict) in benches.iter().zip(verdicts) {
        match bench {
            Bench::Assertion(b) => replay_assertions(b.name, &b.program, verdict, rng, &mut tally),
            Bench::Complexity(b) => {
                let Some(bound) = &verdict.bound else {
                    continue;
                };
                let size = Symbol::new(b.size_param);
                let cost = Symbol::new(b.cost_var);
                let params = &b
                    .program
                    .procedure(b.procedure)
                    .expect("a Table 1 row names a procedure of its program")
                    .params;
                for n in 0..=MAX_SIZE {
                    let args: Vec<i128> = params
                        .iter()
                        .map(|p| if *p == size { n as i128 } else { 0 })
                        .collect();
                    for _ in 0..COST_TRIALS {
                        let Ok(run) = interpreter(&b.program, rng).run(b.procedure, &args) else {
                            continue;
                        };
                        let measured = run.globals.get(&cost).copied().unwrap_or(0) as f64;
                        tally.checks += 1;
                        match complexity::eval_bound_at(bound, &size, n) {
                            Some(predicted) if predicted + 1e-6 >= measured => {}
                            predicted => tally.violations.push(format!(
                                "{}: bound {bound} evaluates to {predicted:?} < measured cost {measured} at {size} = {n}",
                                b.name
                            )),
                        }
                    }
                }
            }
        }
    }
    tally
}

fn replay_assertions(
    name: &str,
    program: &Program,
    verdict: &Verdict,
    rng: &mut Rng,
    tally: &mut Tally,
) {
    let mut entries: Vec<&str> = verdict
        .asserts
        .iter()
        .filter(|a| a.2)
        .map(|a| a.0.as_str())
        .collect();
    entries.sort_unstable();
    entries.dedup();
    for entry in entries {
        let arity = program
            .procedure(entry)
            .expect("a verdict names a procedure of its program")
            .params
            .len();
        for _ in 0..ASSERT_TRIALS {
            let args: Vec<i128> = (0..arity).map(|_| rng.range(-2, 6) as i128).collect();
            let mut interp = interpreter(program, rng);
            for g in &program.globals {
                interp = interp.with_global(&g.to_string(), rng.range(-2, 6) as i128);
            }
            match interp.run(entry, &args) {
                Err(ExecError::AssertionFailed(label))
                    if verdict
                        .asserts
                        .iter()
                        .any(|a| a.2 && a.0 == entry && a.1 == label) =>
                {
                    tally.checks += 1;
                    tally.violations.push(format!(
                        "{name}: proved assertion `{label}` fails from {entry}{args:?}"
                    ));
                }
                Ok(_) | Err(ExecError::AssertionFailed(_)) => tally.checks += 1,
                // Infeasible (assume) or too long: no verdict either way.
                Err(_) => {}
            }
        }
    }
}

/// An interpreter whose nondeterministic choices come from `rng`.
fn interpreter<'p>(program: &'p Program, rng: &mut Rng) -> Interpreter<'p> {
    let mut bools = Rng::new(rng.next_u64());
    let mut ints = Rng::new(rng.next_u64());
    Interpreter::new(program)
        .with_fuel(FUEL)
        .with_nondet_bool(move || bools.chance(0.5))
        .with_nondet_int(move || ints.range(-3, 8) as i128)
}
