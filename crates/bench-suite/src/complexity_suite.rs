//! The twelve complexity-analysis benchmarks of Table 1, expressed in the
//! `chora-ir` language, together with the bounds reported in the paper.
//!
//! Each benchmark is a working cost-instrumented implementation (not a cost
//! model), mirroring the paper's statement that "our implementations of
//! divide-and-conquer algorithms are working implementations rather than cost
//! models" as closely as the integer IR allows: data-structure contents are
//! abstracted, but the recursion/loop structure and the cost accounting are
//! faithful.

use chora_core::{complexity, AnalysisResult, ComplexityClass};
use chora_expr::{Symbol, Term};
use chora_ir::{Cond, Expr, Procedure, Program, Stmt};

/// One row of Table 1.
#[derive(Clone, Debug)]
pub struct ComplexityBenchmark {
    /// Benchmark name (matching the paper's table).
    pub name: &'static str,
    /// The program.
    pub program: Program,
    /// The recursive procedure whose cost is bounded.
    pub procedure: &'static str,
    /// The cost counter global variable.
    pub cost_var: &'static str,
    /// The size parameter used for asymptotic classification.
    pub size_param: &'static str,
    /// The true asymptotic bound (column "Actual").
    pub actual: &'static str,
    /// The bound reported for CHORA in the paper (column 3).
    pub paper_chora: &'static str,
    /// The bound reported for ICRA in the paper (column 4).
    pub paper_icra: &'static str,
    /// The bound reported for the best other tool (column 5).
    pub paper_other: &'static str,
}

impl ComplexityBenchmark {
    /// This benchmark's Table 1 row in an analysis of its program: the cost
    /// bound of [`Self::procedure`] and its asymptotic class, or no bound
    /// when the analysis has no summary for the procedure.
    pub fn table1_row(&self, result: &AnalysisResult) -> (Option<Term>, ComplexityClass) {
        match result.summary(self.procedure) {
            Some(summary) => complexity::table1_row(
                summary,
                &Symbol::new(self.cost_var),
                &Symbol::new(self.size_param),
            ),
            None => (None, ComplexityClass::NoBound),
        }
    }
}

fn v(name: &str) -> Expr {
    Expr::var(name)
}
fn i(x: i64) -> Expr {
    Expr::int(x)
}
fn tick(counter: &str, amount: i64) -> Stmt {
    Stmt::assign(counter, Expr::var(counter).add(Expr::int(amount)))
}

/// All twelve Table 1 benchmarks.
pub fn all() -> Vec<ComplexityBenchmark> {
    vec![
        fibonacci(),
        hanoi(),
        subset_sum(),
        bst_copy(),
        ball_bins3(),
        karatsuba(),
        mergesort(),
        strassen(),
        qsort_calls(),
        qsort_steps(),
        closest_pair(),
        ackermann(),
    ]
}

/// Looks up a benchmark by name.
pub fn by_name(name: &str) -> Option<ComplexityBenchmark> {
    all().into_iter().find(|b| b.name == name)
}

/// `fibonacci`: two recursive calls on `n-1` / `n-2`, constant work per call.
pub fn fibonacci() -> ComplexityBenchmark {
    let mut program = Program::new();
    program.add_global("cost");
    program.add_procedure(Procedure::new(
        "fib",
        &["n"],
        &[],
        Stmt::seq(vec![
            tick("cost", 1),
            Stmt::if_then(
                Cond::ge(v("n"), i(2)),
                Stmt::seq(vec![
                    Stmt::call("fib", vec![v("n").sub(i(1))]),
                    Stmt::call("fib", vec![v("n").sub(i(2))]),
                ]),
            ),
        ]),
    ));
    ComplexityBenchmark {
        name: "fibonacci",
        program,
        procedure: "fib",
        cost_var: "cost",
        size_param: "n",
        actual: "O(phi^n)",
        paper_chora: "O(2^n)",
        paper_icra: "n.b.",
        paper_other: "PUBS: O(2^n)",
    }
}

/// `hanoi`: the Tower-of-Hanoi move count.
pub fn hanoi() -> ComplexityBenchmark {
    let mut program = Program::new();
    program.add_global("cost");
    program.add_procedure(Procedure::new(
        "hanoi",
        &["n"],
        &[],
        Stmt::seq(vec![
            tick("cost", 1),
            Stmt::if_then(
                Cond::gt(v("n"), i(0)),
                Stmt::seq(vec![
                    Stmt::call("hanoi", vec![v("n").sub(i(1))]),
                    Stmt::call("hanoi", vec![v("n").sub(i(1))]),
                ]),
            ),
        ]),
    ));
    ComplexityBenchmark {
        name: "hanoi",
        program,
        procedure: "hanoi",
        cost_var: "cost",
        size_param: "n",
        actual: "O(2^n)",
        paper_chora: "O(2^n)",
        paper_icra: "n.b.",
        paper_other: "PUBS: O(2^n)",
    }
}

/// `subset_sum`: the brute-force subset-sum search of §2 (Fig. 1), with the
/// `nTicks` counter and the accumulating `found`/return-value logic.
pub fn subset_sum() -> ComplexityBenchmark {
    let mut program = Program::new();
    program.add_global("nTicks");
    program.add_global("found");
    program.add_procedure(Procedure::new(
        "subsetSumAux",
        &["i", "n", "sum"],
        &["size"],
        Stmt::seq(vec![
            tick("nTicks", 1),
            Stmt::if_else(
                Cond::ge(v("i"), v("n")),
                Stmt::seq(vec![
                    Stmt::if_then(Cond::eq(v("sum"), i(0)), Stmt::assign("found", i(1))),
                    Stmt::Return(Some(i(0))),
                ]),
                Stmt::seq(vec![
                    // First call considers including element i (the element's
                    // value is abstracted by a non-deterministic delta).
                    Stmt::Havoc(chora_expr::Symbol::new("delta")),
                    Stmt::call_assign(
                        "size",
                        "subsetSumAux",
                        vec![v("i").add(i(1)), v("n"), v("sum").add(v("delta"))],
                    ),
                    Stmt::if_then(
                        Cond::eq(v("found"), i(1)),
                        Stmt::Return(Some(v("size").add(i(1)))),
                    ),
                    Stmt::call_assign(
                        "size",
                        "subsetSumAux",
                        vec![v("i").add(i(1)), v("n"), v("sum")],
                    ),
                    Stmt::Return(Some(v("size"))),
                ]),
            ),
        ]),
    ));
    program.add_procedure(Procedure::new(
        "subsetSum",
        &["n"],
        &["r"],
        Stmt::seq(vec![
            Stmt::assign("found", i(0)),
            Stmt::call_assign("r", "subsetSumAux", vec![i(0), v("n"), i(0)]),
            Stmt::Return(Some(v("r"))),
        ]),
    ));
    ComplexityBenchmark {
        name: "subset_sum",
        program,
        procedure: "subsetSumAux",
        cost_var: "nTicks",
        size_param: "n",
        actual: "O(2^n)",
        paper_chora: "O(2^n)",
        paper_icra: "n.b.",
        paper_other: "RAML(exp): O(2^n)",
    }
}

/// `bst_copy`: copying a perfectly balanced binary search tree of height `n`.
pub fn bst_copy() -> ComplexityBenchmark {
    let mut program = Program::new();
    program.add_global("cost");
    program.add_procedure(Procedure::new(
        "bst_copy",
        &["n"],
        &[],
        Stmt::seq(vec![
            tick("cost", 1),
            Stmt::if_then(
                Cond::gt(v("n"), i(0)),
                Stmt::seq(vec![
                    Stmt::call("bst_copy", vec![v("n").sub(i(1))]),
                    Stmt::call("bst_copy", vec![v("n").sub(i(1))]),
                ]),
            ),
        ]),
    ));
    ComplexityBenchmark {
        name: "bst_copy",
        program,
        procedure: "bst_copy",
        cost_var: "cost",
        size_param: "n",
        actual: "O(2^n)",
        paper_chora: "O(2^n)",
        paper_icra: "n.b.",
        paper_other: "PUBS: O(2^n)",
    }
}

/// `ball_bins3`: three-way recursion (balls into bins), `3^n` behaviour.
pub fn ball_bins3() -> ComplexityBenchmark {
    let mut program = Program::new();
    program.add_global("cost");
    program.add_procedure(Procedure::new(
        "balls",
        &["n"],
        &[],
        Stmt::seq(vec![
            tick("cost", 1),
            Stmt::if_then(
                Cond::gt(v("n"), i(0)),
                Stmt::seq(vec![
                    Stmt::call("balls", vec![v("n").sub(i(1))]),
                    Stmt::call("balls", vec![v("n").sub(i(1))]),
                    Stmt::call("balls", vec![v("n").sub(i(1))]),
                ]),
            ),
        ]),
    ));
    ComplexityBenchmark {
        name: "ball_bins3",
        program,
        procedure: "balls",
        cost_var: "cost",
        size_param: "n",
        actual: "O(3^n)",
        paper_chora: "O(3^n)",
        paper_icra: "n.b.",
        paper_other: "RAML(exp): O(3^n)",
    }
}

/// `karatsuba`: three recursive calls on `n/2` plus linear combine work.
pub fn karatsuba() -> ComplexityBenchmark {
    let mut program = Program::new();
    program.add_global("cost");
    program.add_procedure(Procedure::new(
        "karatsuba",
        &["n"],
        &["i"],
        Stmt::if_else(
            Cond::le(v("n"), i(1)),
            tick("cost", 1),
            Stmt::seq(vec![
                Stmt::assign("i", i(0)),
                Stmt::while_loop(
                    Cond::lt(v("i"), v("n")),
                    Stmt::seq(vec![tick("cost", 1), Stmt::assign("i", v("i").add(i(1)))]),
                ),
                Stmt::call("karatsuba", vec![v("n").div(2)]),
                Stmt::call("karatsuba", vec![v("n").div(2)]),
                Stmt::call("karatsuba", vec![v("n").div(2)]),
            ]),
        ),
    ));
    ComplexityBenchmark {
        name: "karatsuba",
        program,
        procedure: "karatsuba",
        cost_var: "cost",
        size_param: "n",
        actual: "O(n^log2(3))",
        paper_chora: "O(n^log2(3))",
        paper_icra: "n.b.",
        paper_other: "Chatterjee et al.: O(n^1.6)",
    }
}

/// `mergesort`: two recursive calls on `n/2` plus a linear merge loop.
pub fn mergesort() -> ComplexityBenchmark {
    let mut program = Program::new();
    program.add_global("cost");
    program.add_procedure(Procedure::new(
        "mergesort",
        &["n"],
        &["i"],
        Stmt::if_then(
            Cond::gt(v("n"), i(1)),
            Stmt::seq(vec![
                Stmt::call("mergesort", vec![v("n").div(2)]),
                Stmt::call("mergesort", vec![v("n").div(2)]),
                Stmt::assign("i", i(0)),
                Stmt::while_loop(
                    Cond::lt(v("i"), v("n")),
                    Stmt::seq(vec![tick("cost", 1), Stmt::assign("i", v("i").add(i(1)))]),
                ),
            ]),
        ),
    ));
    ComplexityBenchmark {
        name: "mergesort",
        program,
        procedure: "mergesort",
        cost_var: "cost",
        size_param: "n",
        actual: "O(n log n)",
        paper_chora: "O(n log n)",
        paper_icra: "n.b.",
        paper_other: "PUBS: O(n log n)",
    }
}

/// `strassen`: seven recursive calls on `n/2` plus quadratic combine work.
pub fn strassen() -> ComplexityBenchmark {
    let mut program = Program::new();
    program.add_global("cost");
    let combine = Stmt::seq(vec![
        Stmt::assign("i", i(0)),
        Stmt::while_loop(
            Cond::lt(v("i"), v("n")),
            Stmt::seq(vec![
                Stmt::assign("j", i(0)),
                Stmt::while_loop(
                    Cond::lt(v("j"), v("n")),
                    Stmt::seq(vec![tick("cost", 1), Stmt::assign("j", v("j").add(i(1)))]),
                ),
                Stmt::assign("i", v("i").add(i(1))),
            ]),
        ),
    ]);
    let calls: Vec<Stmt> = (0..7)
        .map(|_| Stmt::call("strassen", vec![v("n").div(2)]))
        .collect();
    let mut body = vec![combine];
    body.extend(calls);
    program.add_procedure(Procedure::new(
        "strassen",
        &["n"],
        &["i", "j"],
        Stmt::if_else(Cond::le(v("n"), i(1)), tick("cost", 1), Stmt::seq(body)),
    ));
    ComplexityBenchmark {
        name: "strassen",
        program,
        procedure: "strassen",
        cost_var: "cost",
        size_param: "n",
        actual: "O(n^log2(7))",
        paper_chora: "O(n^log2(7))",
        paper_icra: "n.b.",
        paper_other: "Chatterjee et al.: O(n^2.9)",
    }
}

/// `qsort_calls`: quicksort counting the number of calls; the paper's CHORA
/// (like PUBS) over-approximates the linear call count as `O(2^n)`.
pub fn qsort_calls() -> ComplexityBenchmark {
    let mut program = Program::new();
    program.add_global("cost");
    program.add_procedure(Procedure::new(
        "qsort",
        &["n"],
        &["k"],
        Stmt::seq(vec![
            tick("cost", 1),
            Stmt::if_then(
                Cond::ge(v("n"), i(1)),
                Stmt::seq(vec![
                    Stmt::Havoc(chora_expr::Symbol::new("k")),
                    Stmt::Assume(Cond::ge(v("k"), i(0)).and(Cond::lt(v("k"), v("n")))),
                    Stmt::call("qsort", vec![v("k")]),
                    Stmt::call("qsort", vec![v("n").sub(v("k")).sub(i(1))]),
                ]),
            ),
        ]),
    ));
    ComplexityBenchmark {
        name: "qsort_calls",
        program,
        procedure: "qsort",
        cost_var: "cost",
        size_param: "n",
        actual: "O(n)",
        paper_chora: "O(2^n)",
        paper_icra: "O(n)",
        paper_other: "Carbonneaux et al.: O(n)",
    }
}

/// `qsort_steps`: quicksort counting instructions (linear partition work per
/// call); the paper's CHORA reports `O(n·2^n)`.
pub fn qsort_steps() -> ComplexityBenchmark {
    let mut program = Program::new();
    program.add_global("cost");
    program.add_procedure(Procedure::new(
        "qsort_steps",
        &["n"],
        &["k", "i"],
        Stmt::if_then(
            Cond::ge(v("n"), i(1)),
            Stmt::seq(vec![
                Stmt::assign("i", i(0)),
                Stmt::while_loop(
                    Cond::lt(v("i"), v("n")),
                    Stmt::seq(vec![tick("cost", 1), Stmt::assign("i", v("i").add(i(1)))]),
                ),
                Stmt::Havoc(chora_expr::Symbol::new("k")),
                Stmt::Assume(Cond::ge(v("k"), i(0)).and(Cond::lt(v("k"), v("n")))),
                Stmt::call("qsort_steps", vec![v("k")]),
                Stmt::call("qsort_steps", vec![v("n").sub(v("k")).sub(i(1))]),
            ]),
        ),
    ));
    ComplexityBenchmark {
        name: "qsort_steps",
        program,
        procedure: "qsort_steps",
        cost_var: "cost",
        size_param: "n",
        actual: "O(n^2)",
        paper_chora: "O(n·2^n)",
        paper_icra: "n.b.",
        paper_other: "Chatterjee et al.: O(n^2)",
    }
}

/// `closest_pair`: divide-and-conquer closest pair with a pre-sort; the paper
/// reports that CHORA finds no bound.
pub fn closest_pair() -> ComplexityBenchmark {
    let mut program = Program::new();
    program.add_global("cost");
    // A quadratic comparison sort used before the divide-and-conquer phase.
    program.add_procedure(Procedure::new(
        "sort_points",
        &["n"],
        &["i", "j"],
        Stmt::seq(vec![
            Stmt::assign("i", i(0)),
            Stmt::while_loop(
                Cond::lt(v("i"), v("n")),
                Stmt::seq(vec![
                    Stmt::assign("j", v("i").add(i(1))),
                    Stmt::while_loop(
                        Cond::lt(v("j"), v("n")),
                        Stmt::seq(vec![tick("cost", 1), Stmt::assign("j", v("j").add(i(1)))]),
                    ),
                    Stmt::assign("i", v("i").add(i(1))),
                ]),
            ),
        ]),
    ));
    // The recursive phase: the strip examination loop runs a
    // non-deterministically chosen number of times bounded only by the
    // amount of un-sorted structure, which is what defeats the analysis.
    program.add_procedure(Procedure::new(
        "closest_rec",
        &["lo", "hi"],
        &["mid", "s"],
        Stmt::if_then(
            Cond::gt(v("hi").sub(v("lo")), i(3)),
            Stmt::seq(vec![
                Stmt::assign("mid", v("lo").add(v("hi")).div(2)),
                Stmt::call("closest_rec", vec![v("lo"), v("mid")]),
                Stmt::call("closest_rec", vec![v("mid"), v("hi")]),
                Stmt::Havoc(chora_expr::Symbol::new("s")),
                Stmt::while_loop(
                    Cond::gt(v("s"), i(0)),
                    Stmt::seq(vec![tick("cost", 1), Stmt::assign("s", v("s").sub(i(1)))]),
                ),
            ]),
        ),
    ));
    program.add_procedure(Procedure::new(
        "closest_pair",
        &["n"],
        &[],
        Stmt::seq(vec![
            Stmt::call("sort_points", vec![v("n")]),
            Stmt::call("closest_rec", vec![i(0), v("n")]),
        ]),
    ));
    ComplexityBenchmark {
        name: "closest_pair",
        program,
        procedure: "closest_rec",
        cost_var: "cost",
        size_param: "n",
        actual: "O(n log n)",
        paper_chora: "n.b.",
        paper_icra: "n.b.",
        paper_other: "Chatterjee et al.: O(n log n)",
    }
}

/// `ackermann`: the Ackermann function's cost; no elementary bound exists and
/// the paper reports that no tool finds one.
pub fn ackermann() -> ComplexityBenchmark {
    let mut program = Program::new();
    program.add_global("cost");
    program.add_procedure(Procedure::new(
        "ackermann",
        &["m", "n"],
        &["t"],
        Stmt::seq(vec![
            tick("cost", 1),
            Stmt::if_else(
                Cond::eq(v("m"), i(0)),
                Stmt::Return(Some(v("n").add(i(1)))),
                Stmt::if_else(
                    Cond::eq(v("n"), i(0)),
                    Stmt::seq(vec![
                        Stmt::call_assign("t", "ackermann", vec![v("m").sub(i(1)), i(1)]),
                        Stmt::Return(Some(v("t"))),
                    ]),
                    Stmt::seq(vec![
                        Stmt::call_assign("t", "ackermann", vec![v("m"), v("n").sub(i(1))]),
                        Stmt::call_assign("t", "ackermann", vec![v("m").sub(i(1)), v("t")]),
                        Stmt::Return(Some(v("t"))),
                    ]),
                ),
            ),
        ]),
    ));
    ComplexityBenchmark {
        name: "ackermann",
        program,
        procedure: "ackermann",
        cost_var: "cost",
        size_param: "n",
        actual: "Ack(n)",
        paper_chora: "n.b.",
        paper_icra: "n.b.",
        paper_other: "PUBS: n.b.",
    }
}
