//! Assertion-checking benchmarks: the three hand-written programs of Table 2
//! (`quad`, `pow2_overflow`, `height`) and a selection of SV-COMP
//! `recursive`-style benchmarks used for Figure 3.

use chora_core::AnalysisResult;
use chora_ir::{Cond, Expr, Procedure, Program, Stmt};

/// One assertion-checking benchmark plus the verdicts reported in the paper.
#[derive(Clone, Debug)]
pub struct AssertionBenchmark {
    /// Benchmark name.
    pub name: &'static str,
    /// The program (assertions embedded as `Stmt::Assert`).
    pub program: Program,
    /// Whether the paper reports CHORA proving the assertion(s).
    pub paper_chora: bool,
    /// Whether the paper reports ICRA proving the assertion(s).
    pub paper_icra: bool,
    /// Whether the paper reports Ultimate Automizer proving the assertion(s).
    pub paper_ua: bool,
    /// Whether the paper reports UTaipan proving the assertion(s).
    pub paper_utaipan: bool,
    /// Whether the paper reports VIAP proving the assertion(s).
    pub paper_viap: bool,
    /// Which experiment the benchmark belongs to (`"table2"` or `"fig3"`).
    pub suite: &'static str,
}

impl AssertionBenchmark {
    /// Whether an analysis of this benchmark's program proves it: the
    /// program has at least one assertion and every one is verified.
    pub fn proved_in(&self, result: &AnalysisResult) -> bool {
        !result.assertions.is_empty() && result.all_assertions_verified()
    }
}

fn v(name: &str) -> Expr {
    Expr::var(name)
}
fn i(x: i64) -> Expr {
    Expr::int(x)
}

/// The three Table 2 benchmarks (Fig. 5 of the paper).
pub fn table2() -> Vec<AssertionBenchmark> {
    vec![quad(), pow2_overflow(), height()]
}

/// The SV-COMP-recursive-style benchmarks used for the Fig. 3 cactus plot.
pub fn svcomp() -> Vec<AssertionBenchmark> {
    vec![
        ackermann01(),
        addition01(),
        addition02(),
        even_odd01(),
        fibonacci_upper(),
        gcd01(),
        mccarthy91(),
        mult_comm(),
        rec_hanoi01(),
        rec_hanoi02(),
        sum_non_negative(),
        id_linear(),
    ]
}

/// All assertion benchmarks.
pub fn all() -> Vec<AssertionBenchmark> {
    let mut out = table2();
    out.extend(svcomp());
    out
}

/// Looks up an assertion benchmark by name.
pub fn by_name(name: &str) -> Option<AssertionBenchmark> {
    all().into_iter().find(|b| b.name == name)
}

/// Table 2 `quad`: the triangular-number function computed through a
/// recursive call inside a non-deterministic loop.
pub fn quad() -> AssertionBenchmark {
    let mut program = Program::new();
    program.add_procedure(Procedure::new(
        "quad",
        &["m"],
        &["retval"],
        Stmt::if_else(
            Cond::eq(v("m"), i(0)),
            Stmt::Return(Some(i(0))),
            Stmt::seq(vec![
                Stmt::call_assign("retval", "quad", vec![v("m").sub(i(1))]),
                Stmt::assign("retval", v("retval").add(v("m"))),
                Stmt::while_loop(
                    Cond::Nondet,
                    Stmt::seq(vec![
                        Stmt::call_assign("retval", "quad", vec![v("m").sub(i(1))]),
                        Stmt::assign("retval", v("retval").add(v("m"))),
                    ]),
                ),
                Stmt::Return(Some(v("retval"))),
            ]),
        ),
    ));
    program.add_procedure(Procedure::new(
        "main",
        &["n"],
        &["r"],
        Stmt::seq(vec![
            Stmt::Assume(Cond::ge(v("n"), i(0))),
            Stmt::call_assign("r", "quad", vec![v("n")]),
            Stmt::Assert(
                Cond::eq(v("r").mul(i(2)), v("n").add(v("n").mul(v("n")))),
                "quad-closed-form".to_string(),
            ),
        ]),
    ));
    AssertionBenchmark {
        name: "quad",
        program,
        paper_chora: true,
        paper_icra: true,
        paper_ua: false,
        paper_utaipan: true,
        paper_viap: false,
        suite: "table2",
    }
}

/// Table 2 `pow2_overflow`: doubling recursion with an overflow assertion.
pub fn pow2_overflow() -> AssertionBenchmark {
    let mut program = Program::new();
    program.add_procedure(Procedure::new(
        "pow2",
        &["p"],
        &["r1", "r2"],
        Stmt::seq(vec![
            Stmt::Assume(Cond::ge(v("p"), i(0)).and(Cond::le(v("p"), i(29)))),
            Stmt::if_else(
                Cond::eq(v("p"), i(0)),
                Stmt::Return(Some(i(1))),
                Stmt::seq(vec![
                    Stmt::call_assign("r1", "pow2", vec![v("p").sub(i(1))]),
                    Stmt::call_assign("r2", "pow2", vec![v("p").sub(i(1))]),
                    Stmt::Assert(
                        Cond::lt(v("r1").add(v("r2")), i(1_073_741_824)),
                        "no-overflow".to_string(),
                    ),
                    Stmt::Return(Some(v("r1").add(v("r2")))),
                ]),
            ),
        ]),
    ));
    AssertionBenchmark {
        name: "pow2_overflow",
        program,
        paper_chora: true,
        paper_icra: true,
        paper_ua: false,
        paper_utaipan: false,
        paper_viap: false,
        suite: "table2",
    }
}

/// Table 2 `height`: the height of a tree of recursive calls is at most its
/// size.
pub fn height() -> AssertionBenchmark {
    let mut program = Program::new();
    program.add_procedure(Procedure::new(
        "height",
        &["size"],
        &["left", "right", "lh", "rh"],
        Stmt::if_else(
            Cond::eq(v("size"), i(0)),
            Stmt::Return(Some(i(0))),
            Stmt::seq(vec![
                Stmt::Havoc(chora_expr::Symbol::new("left")),
                Stmt::Assume(Cond::ge(v("left"), i(0)).and(Cond::lt(v("left"), v("size")))),
                Stmt::assign("right", v("size").sub(v("left")).sub(i(1))),
                Stmt::call_assign("lh", "height", vec![v("left")]),
                Stmt::call_assign("rh", "height", vec![v("right")]),
                Stmt::if_else(
                    Cond::ge(v("lh"), v("rh")),
                    Stmt::Return(Some(v("lh").add(i(1)))),
                    Stmt::Return(Some(v("rh").add(i(1)))),
                ),
            ]),
        ),
    ));
    program.add_procedure(Procedure::new(
        "main",
        &["n"],
        &["r"],
        Stmt::seq(vec![
            Stmt::Assume(Cond::ge(v("n"), i(0))),
            Stmt::call_assign("r", "height", vec![v("n")]),
            Stmt::Assert(Cond::le(v("r"), v("n")), "height-le-size".to_string()),
        ]),
    ));
    AssertionBenchmark {
        name: "height",
        program,
        paper_chora: true,
        paper_icra: false,
        paper_ua: true,
        paper_utaipan: true,
        paper_viap: false,
        suite: "table2",
    }
}

/// SV-COMP `Ackermann01`: the Ackermann function is non-negative on
/// non-negative arguments.
pub fn ackermann01() -> AssertionBenchmark {
    let mut program = Program::new();
    program.add_procedure(Procedure::new(
        "ackermann",
        &["m", "n"],
        &["t"],
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
    ));
    program.add_procedure(Procedure::new(
        "main",
        &["m", "n"],
        &["r"],
        Stmt::seq(vec![
            Stmt::Assume(Cond::ge(v("m"), i(0)).and(Cond::ge(v("n"), i(0)))),
            Stmt::call_assign("r", "ackermann", vec![v("m"), v("n")]),
            Stmt::Assert(Cond::ge(v("r"), i(0)), "ackermann-nonnegative".to_string()),
        ]),
    ));
    AssertionBenchmark {
        name: "Ackermann01",
        program,
        paper_chora: true,
        paper_icra: true,
        paper_ua: true,
        paper_utaipan: true,
        paper_viap: false,
        suite: "fig3",
    }
}

/// SV-COMP `Addition01`: recursive addition computes the sum.
pub fn addition01() -> AssertionBenchmark {
    let mut program = Program::new();
    program.add_procedure(Procedure::new(
        "add",
        &["m", "n"],
        &["t"],
        Stmt::if_else(
            Cond::eq(v("n"), i(0)),
            Stmt::Return(Some(v("m"))),
            Stmt::seq(vec![
                Stmt::call_assign("t", "add", vec![v("m").add(i(1)), v("n").sub(i(1))]),
                Stmt::Return(Some(v("t"))),
            ]),
        ),
    ));
    program.add_procedure(Procedure::new(
        "main",
        &["m", "n"],
        &["r"],
        Stmt::seq(vec![
            Stmt::Assume(Cond::ge(v("n"), i(0))),
            Stmt::call_assign("r", "add", vec![v("m"), v("n")]),
            Stmt::Assert(
                Cond::eq(v("r"), v("m").add(v("n"))),
                "addition-correct".to_string(),
            ),
        ]),
    ));
    AssertionBenchmark {
        name: "Addition01",
        program,
        paper_chora: true,
        paper_icra: true,
        paper_ua: true,
        paper_utaipan: true,
        paper_viap: true,
        suite: "fig3",
    }
}

/// SV-COMP `Addition02`-style: the recursive sum is at least each summand.
pub fn addition02() -> AssertionBenchmark {
    let mut program = addition01().program;
    // Replace main's assertion with a weaker inequality variant.
    program.procedures.retain(|p| p.name != "main");
    program.add_procedure(Procedure::new(
        "main",
        &["m", "n"],
        &["r"],
        Stmt::seq(vec![
            Stmt::Assume(Cond::ge(v("n"), i(0)).and(Cond::ge(v("m"), i(0)))),
            Stmt::call_assign("r", "add", vec![v("m"), v("n")]),
            Stmt::Assert(Cond::ge(v("r"), v("m")), "sum-ge-first".to_string()),
        ]),
    ));
    AssertionBenchmark {
        name: "Addition02",
        program,
        paper_chora: true,
        paper_icra: true,
        paper_ua: true,
        paper_utaipan: true,
        paper_viap: true,
        suite: "fig3",
    }
}

/// SV-COMP `EvenOdd01`-style: mutual recursion on parity, return in {0,1}.
pub fn even_odd01() -> AssertionBenchmark {
    let mut program = Program::new();
    program.add_procedure(Procedure::new(
        "is_even",
        &["n"],
        &["t"],
        Stmt::if_else(
            Cond::eq(v("n"), i(0)),
            Stmt::Return(Some(i(1))),
            Stmt::seq(vec![
                Stmt::call_assign("t", "is_odd", vec![v("n").sub(i(1))]),
                Stmt::Return(Some(v("t"))),
            ]),
        ),
    ));
    program.add_procedure(Procedure::new(
        "is_odd",
        &["n"],
        &["t"],
        Stmt::if_else(
            Cond::eq(v("n"), i(0)),
            Stmt::Return(Some(i(0))),
            Stmt::seq(vec![
                Stmt::call_assign("t", "is_even", vec![v("n").sub(i(1))]),
                Stmt::Return(Some(v("t"))),
            ]),
        ),
    ));
    program.add_procedure(Procedure::new(
        "main",
        &["n"],
        &["r"],
        Stmt::seq(vec![
            Stmt::Assume(Cond::ge(v("n"), i(0))),
            Stmt::call_assign("r", "is_even", vec![v("n")]),
            Stmt::Assert(
                Cond::ge(v("r"), i(0)).and(Cond::le(v("r"), i(1))),
                "parity-in-01".to_string(),
            ),
        ]),
    ));
    AssertionBenchmark {
        name: "EvenOdd01",
        program,
        paper_chora: true,
        paper_icra: true,
        paper_ua: true,
        paper_utaipan: true,
        paper_viap: true,
        suite: "fig3",
    }
}

/// `Fibonacci`-style upper-bound property: fib(n) ≥ n − 1 is replaced in the
/// suite by the provable lower-bound-free property fib(n) ≥ 0.
pub fn fibonacci_upper() -> AssertionBenchmark {
    let mut program = Program::new();
    program.add_procedure(Procedure::new(
        "fib",
        &["n"],
        &["a", "b"],
        Stmt::if_else(
            Cond::le(v("n"), i(1)),
            Stmt::Return(Some(v("n"))),
            Stmt::seq(vec![
                Stmt::call_assign("a", "fib", vec![v("n").sub(i(1))]),
                Stmt::call_assign("b", "fib", vec![v("n").sub(i(2))]),
                Stmt::Return(Some(v("a").add(v("b")))),
            ]),
        ),
    ));
    program.add_procedure(Procedure::new(
        "main",
        &["n"],
        &["r"],
        Stmt::seq(vec![
            Stmt::Assume(Cond::ge(v("n"), i(0))),
            Stmt::call_assign("r", "fib", vec![v("n")]),
            Stmt::Assert(Cond::ge(v("r"), i(0)), "fib-nonnegative".to_string()),
        ]),
    ));
    AssertionBenchmark {
        name: "Fibonacci01",
        program,
        paper_chora: true,
        paper_icra: true,
        paper_ua: true,
        paper_utaipan: true,
        paper_viap: true,
        suite: "fig3",
    }
}

/// SV-COMP `gcd01`-style: the gcd of non-negative numbers is non-negative.
pub fn gcd01() -> AssertionBenchmark {
    let mut program = Program::new();
    program.add_procedure(Procedure::new(
        "gcd",
        &["a", "b"],
        &["t"],
        Stmt::if_else(
            Cond::eq(v("b"), i(0)),
            Stmt::Return(Some(v("a"))),
            Stmt::seq(vec![
                // The remainder is abstracted non-deterministically: 0 ≤ r < b.
                Stmt::Havoc(chora_expr::Symbol::new("t")),
                Stmt::Assume(Cond::ge(v("t"), i(0)).and(Cond::lt(v("t"), v("b")))),
                Stmt::call_assign("t", "gcd", vec![v("b"), v("t")]),
                Stmt::Return(Some(v("t"))),
            ]),
        ),
    ));
    program.add_procedure(Procedure::new(
        "main",
        &["a", "b"],
        &["r"],
        Stmt::seq(vec![
            Stmt::Assume(Cond::ge(v("a"), i(0)).and(Cond::ge(v("b"), i(0)))),
            Stmt::call_assign("r", "gcd", vec![v("a"), v("b")]),
            Stmt::Assert(Cond::ge(v("r"), i(0)), "gcd-nonnegative".to_string()),
        ]),
    ));
    AssertionBenchmark {
        name: "gcd01",
        program,
        paper_chora: true,
        paper_icra: true,
        paper_ua: true,
        paper_utaipan: true,
        paper_viap: false,
        suite: "fig3",
    }
}

/// SV-COMP `McCarthy91`: the paper notes CHORA cannot prove the disjunctive
/// specification (hypothetical summaries contain no disjunctions).
pub fn mccarthy91() -> AssertionBenchmark {
    let mut program = Program::new();
    program.add_procedure(Procedure::new(
        "f91",
        &["x"],
        &["t"],
        Stmt::if_else(
            Cond::gt(v("x"), i(100)),
            Stmt::Return(Some(v("x").sub(i(10)))),
            Stmt::seq(vec![
                Stmt::call_assign("t", "f91", vec![v("x").add(i(11))]),
                Stmt::call_assign("t", "f91", vec![v("t")]),
                Stmt::Return(Some(v("t"))),
            ]),
        ),
    ));
    program.add_procedure(Procedure::new(
        "main",
        &["x"],
        &["r"],
        Stmt::seq(vec![
            Stmt::call_assign("r", "f91", vec![v("x")]),
            Stmt::Assert(
                Cond::eq(v("r"), i(91))
                    .or(Cond::gt(v("x"), i(101)).and(Cond::eq(v("r"), v("x").sub(i(10))))),
                "mccarthy-spec".to_string(),
            ),
        ]),
    ));
    AssertionBenchmark {
        name: "McCarthy91",
        program,
        paper_chora: false,
        paper_icra: true,
        paper_ua: true,
        paper_utaipan: true,
        paper_viap: true,
        suite: "fig3",
    }
}

/// `MultCommutative`-style: recursive multiplication is non-negative for
/// non-negative inputs.
pub fn mult_comm() -> AssertionBenchmark {
    let mut program = Program::new();
    program.add_procedure(Procedure::new(
        "mult",
        &["a", "b"],
        &["t"],
        Stmt::if_else(
            Cond::eq(v("b"), i(0)),
            Stmt::Return(Some(i(0))),
            Stmt::seq(vec![
                Stmt::call_assign("t", "mult", vec![v("a"), v("b").sub(i(1))]),
                Stmt::Return(Some(v("t").add(v("a")))),
            ]),
        ),
    ));
    program.add_procedure(Procedure::new(
        "main",
        &["a", "b"],
        &["r"],
        Stmt::seq(vec![
            Stmt::Assume(Cond::ge(v("a"), i(0)).and(Cond::ge(v("b"), i(0)))),
            Stmt::call_assign("r", "mult", vec![v("a"), v("b")]),
            Stmt::Assert(Cond::ge(v("r"), i(0)), "product-nonnegative".to_string()),
        ]),
    ));
    AssertionBenchmark {
        name: "MultCommutative",
        program,
        paper_chora: true,
        paper_icra: true,
        paper_ua: true,
        paper_utaipan: false,
        paper_viap: true,
        suite: "fig3",
    }
}

/// SV-COMP `recHanoi01`: the recursively computed move count equals the
/// closed form computed by a second function (an equivalence the paper's
/// CHORA proves through exponential summaries).
pub fn rec_hanoi01() -> AssertionBenchmark {
    let mut program = Program::new();
    program.add_global("counter");
    program.add_procedure(Procedure::new(
        "hanoi_closed",
        &["n"],
        &["t"],
        Stmt::if_else(
            Cond::eq(v("n"), i(1)),
            Stmt::Return(Some(i(1))),
            Stmt::seq(vec![
                Stmt::call_assign("t", "hanoi_closed", vec![v("n").sub(i(1))]),
                Stmt::Return(Some(v("t").mul(i(2)).add(i(1)))),
            ]),
        ),
    ));
    program.add_procedure(Procedure::new(
        "apply_hanoi",
        &["n"],
        &[],
        Stmt::if_then(
            Cond::gt(v("n"), i(0)),
            Stmt::seq(vec![
                Stmt::assign("counter", v("counter").add(i(1))),
                Stmt::call("apply_hanoi", vec![v("n").sub(i(1))]),
                Stmt::call("apply_hanoi", vec![v("n").sub(i(1))]),
            ]),
        ),
    ));
    program.add_procedure(Procedure::new(
        "main",
        &["n"],
        &["r"],
        Stmt::seq(vec![
            Stmt::Assume(Cond::ge(v("n"), i(1))),
            Stmt::assign("counter", i(0)),
            Stmt::call("apply_hanoi", vec![v("n")]),
            Stmt::call_assign("r", "hanoi_closed", vec![v("n")]),
            Stmt::Assert(
                Cond::eq(v("r"), v("counter")),
                "hanoi-equivalence".to_string(),
            ),
        ]),
    ));
    AssertionBenchmark {
        name: "recHanoi01",
        program,
        paper_chora: true,
        paper_icra: false,
        paper_ua: false,
        paper_utaipan: false,
        paper_viap: false,
        suite: "fig3",
    }
}

/// SV-COMP `recHanoi02`-style: the move count is at least `n`.
pub fn rec_hanoi02() -> AssertionBenchmark {
    let mut program = Program::new();
    program.add_procedure(Procedure::new(
        "hanoi_closed",
        &["n"],
        &["t"],
        Stmt::if_else(
            Cond::le(v("n"), i(1)),
            Stmt::Return(Some(i(1))),
            Stmt::seq(vec![
                Stmt::call_assign("t", "hanoi_closed", vec![v("n").sub(i(1))]),
                Stmt::Return(Some(v("t").mul(i(2)).add(i(1)))),
            ]),
        ),
    ));
    program.add_procedure(Procedure::new(
        "main",
        &["n"],
        &["r"],
        Stmt::seq(vec![
            Stmt::Assume(Cond::ge(v("n"), i(1))),
            Stmt::call_assign("r", "hanoi_closed", vec![v("n")]),
            Stmt::Assert(Cond::ge(v("r"), i(1)), "hanoi-at-least-one".to_string()),
        ]),
    ));
    AssertionBenchmark {
        name: "recHanoi02",
        program,
        paper_chora: true,
        paper_icra: true,
        paper_ua: true,
        paper_utaipan: true,
        paper_viap: true,
        suite: "fig3",
    }
}

/// A summation benchmark: the recursive sum of 1..n is non-negative.
pub fn sum_non_negative() -> AssertionBenchmark {
    let mut program = Program::new();
    program.add_procedure(Procedure::new(
        "sum",
        &["n"],
        &["t"],
        Stmt::if_else(
            Cond::le(v("n"), i(0)),
            Stmt::Return(Some(i(0))),
            Stmt::seq(vec![
                Stmt::call_assign("t", "sum", vec![v("n").sub(i(1))]),
                Stmt::Return(Some(v("t").add(v("n")))),
            ]),
        ),
    ));
    program.add_procedure(Procedure::new(
        "main",
        &["n"],
        &["r"],
        Stmt::seq(vec![
            Stmt::Assume(Cond::ge(v("n"), i(0))),
            Stmt::call_assign("r", "sum", vec![v("n")]),
            Stmt::Assert(Cond::ge(v("r"), i(0)), "sum-nonnegative".to_string()),
            Stmt::Assert(Cond::ge(v("r"), v("n")), "sum-ge-n".to_string()),
        ]),
    ));
    AssertionBenchmark {
        name: "Sum01",
        program,
        paper_chora: true,
        paper_icra: true,
        paper_ua: true,
        paper_utaipan: true,
        paper_viap: true,
        suite: "fig3",
    }
}

/// A linearly recursive identity function: `id(n) == n`.
pub fn id_linear() -> AssertionBenchmark {
    let mut program = Program::new();
    program.add_procedure(Procedure::new(
        "id",
        &["n"],
        &["t"],
        Stmt::if_else(
            Cond::le(v("n"), i(0)),
            Stmt::Return(Some(i(0))),
            Stmt::seq(vec![
                Stmt::call_assign("t", "id", vec![v("n").sub(i(1))]),
                Stmt::Return(Some(v("t").add(i(1)))),
            ]),
        ),
    ));
    program.add_procedure(Procedure::new(
        "main",
        &["n"],
        &["r"],
        Stmt::seq(vec![
            Stmt::Assume(Cond::ge(v("n"), i(0))),
            Stmt::call_assign("r", "id", vec![v("n")]),
            Stmt::Assert(Cond::eq(v("r"), v("n")), "identity".to_string()),
        ]),
    ));
    AssertionBenchmark {
        name: "recId01",
        program,
        paper_chora: true,
        paper_icra: true,
        paper_ua: true,
        paper_utaipan: true,
        paper_viap: true,
        suite: "fig3",
    }
}
