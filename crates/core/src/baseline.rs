//! An ICRA-style baseline analyzer.
//!
//! ICRA \[24\] lifts Compositional Recurrence Analysis to linearly recursive
//! procedures but "resorts to Kleene iteration in the case of non-linear
//! recursion" (§5).  This baseline reproduces that behaviour on the CHORA
//! analyzer's own driver: non-recursive components and assertions are
//! handled exactly as CHORA handles them, and only the step for a recursive
//! component differs.  It is a bounded Kleene iteration of `Summary(P, φ)`
//! starting from ⊥, falling back to a havoc summary when the iteration has
//! not stabilized — which is what makes it unable to bound the cost of
//! non-linearly recursive procedures (the "n.b." column of Table 1).

use crate::analysis::{AnalysisResult, Analyzer, ProcedureSummary};
use crate::summarize::Summarizer;
use chora_expr::FreshSource;
use chora_ir::Program;
use chora_logic::TransitionFormula;
use std::collections::BTreeMap;

/// Number of Kleene iterations attempted for a recursive component before
/// widening to a havoc summary.
const MAX_KLEENE_ITERATIONS: usize = 3;

/// The ICRA-style baseline analyzer.
#[derive(Clone, Debug, Default)]
pub struct BaselineAnalyzer;

impl BaselineAnalyzer {
    /// Creates the baseline analyzer.
    pub fn new() -> BaselineAnalyzer {
        BaselineAnalyzer
    }

    /// Analyses a program with the baseline strategy: the driver of the
    /// default [`Analyzer`] (one worker, no summary store) with Kleene
    /// iteration as its step for recursive components.
    pub fn analyze(&self, program: &Program) -> AnalysisResult {
        Analyzer::new()
            .drive(&[program], None, &kleene)
            .pop()
            .expect("a batch of one yields one result")
    }
}

/// Summarizes a recursive component by Kleene iteration from ⊥: each round
/// summarizes every member with the previous round's summaries for the
/// calls inside the component.
fn kleene(
    summarizer: &Summarizer<'_>,
    members: &[String],
    fresh: &FreshSource,
) -> Vec<ProcedureSummary> {
    let program = summarizer.program();
    let mut current: BTreeMap<String, TransitionFormula> = members
        .iter()
        .map(|m| (m.clone(), TransitionFormula::bottom()))
        .collect();
    let mut stabilized = false;
    for _ in 0..MAX_KLEENE_ITERATIONS {
        let mut next = BTreeMap::new();
        for name in members {
            let Some(proc) = program.procedure(name) else {
                continue;
            };
            next.insert(
                name.clone(),
                summarizer.summarize_procedure(proc, &current, fresh),
            );
        }
        stabilized = members
            .iter()
            .all(|m| formulas_equivalent(&current[m], &next[m]));
        current = next;
        if stabilized {
            break;
        }
    }
    members
        .iter()
        .map(|name| ProcedureSummary {
            name: name.clone(),
            // Widen: nothing is known about the effect of the recursion
            // (globals and the return value are havocked).
            formula: if stabilized {
                current[name].clone()
            } else {
                TransitionFormula::top()
            },
            bound_facts: Vec::new(),
            depth: None,
            recursive: true,
        })
        .collect()
}

/// A cheap structural equivalence check used as the Kleene-iteration
/// convergence test (mutual subsumption of the disjunct lists).
fn formulas_equivalent(a: &TransitionFormula, b: &TransitionFormula) -> bool {
    let sub = |x: &TransitionFormula, y: &TransitionFormula| {
        x.disjuncts()
            .iter()
            .all(|dx| y.disjuncts().iter().any(|dy| dx.is_subset_of(dy)))
    };
    sub(a, b) && sub(b, a)
}

#[cfg(test)]
mod tests {
    use super::*;
    use chora_ir::{Cond, Expr, Procedure, Stmt};

    #[test]
    fn baseline_fails_to_bound_nonlinear_recursion() {
        let mut prog = Program::new();
        prog.add_global("cost");
        prog.add_procedure(Procedure::new(
            "hanoi",
            &["n"],
            &[],
            Stmt::seq(vec![
                Stmt::assign("cost", Expr::var("cost").add(Expr::int(1))),
                Stmt::if_then(
                    Cond::gt(Expr::var("n"), Expr::int(0)),
                    Stmt::seq(vec![
                        Stmt::call("hanoi", vec![Expr::var("n").sub(Expr::int(1))]),
                        Stmt::call("hanoi", vec![Expr::var("n").sub(Expr::int(1))]),
                    ]),
                ),
            ]),
        ));
        let result = BaselineAnalyzer::new().analyze(&prog);
        let summary = result.summary("hanoi").unwrap();
        let bound = crate::complexity::cost_bound(summary, &chora_expr::Symbol::new("cost"));
        assert!(
            bound.is_none(),
            "the Kleene baseline should not find a cost bound"
        );
    }

    #[test]
    fn baseline_handles_non_recursive_procedures() {
        let mut prog = Program::new();
        prog.add_procedure(Procedure::new(
            "id",
            &["x"],
            &[],
            Stmt::Return(Some(Expr::var("x"))),
        ));
        let result = BaselineAnalyzer::new().analyze(&prog);
        assert!(result.summary("id").is_some());
        assert!(!result.summary("id").unwrap().recursive);
    }
}
