//! The paper's evaluation as benchmark input: the twelve Table 1
//! complexity programs and the fifteen Table 2 / Fig. 3 assertion programs,
//! their verdicts, and the `suite-cold` workload that analyzes them.

use crate::stats::Rng;
use crate::{Sample, Window};
use chora_bench_suite::{
    assertion_suite, complexity_suite, AssertionBenchmark, ComplexityBenchmark,
};
use chora_core::{complexity, AnalysisConfig, AnalysisResult, Analyzer, ComplexityClass};
use chora_expr::{Symbol, Term};
use chora_ir::Program;
use chora_telemetry::trace;
use std::time::Instant;

/// `peak_rss_mb` is read after this many passes (see `Window::peak_rss_mb`).
const RSS_PASSES: u32 = 8;

/// One program of the paper's evaluation.
pub enum Bench {
    Complexity(ComplexityBenchmark),
    Assertion(AssertionBenchmark),
}

impl Bench {
    pub fn name(&self) -> &'static str {
        match self {
            Bench::Complexity(b) => b.name,
            Bench::Assertion(b) => b.name,
        }
    }

    pub fn program(&self) -> &Program {
        match self {
            Bench::Complexity(b) => &b.program,
            Bench::Assertion(b) => &b.program,
        }
    }
}

/// Every suite program: Table 1 rows first, then the assertion programs.
pub fn all() -> Vec<Bench> {
    let mut out: Vec<Bench> = complexity_suite::all()
        .into_iter()
        .map(Bench::Complexity)
        .collect();
    out.extend(assertion_suite::all().into_iter().map(Bench::Assertion));
    out
}

/// What the analyzer concluded about one suite program: the Table 1 bound
/// and class, or the assertion verdicts `(procedure, label, verified)`.
#[derive(Clone, Debug, PartialEq)]
pub struct Verdict {
    pub bound: Option<Term>,
    pub class: String,
    pub asserts: Vec<(String, String, bool)>,
}

/// The analyzer every workload's reference uses: sequential, no store.
pub fn analyzer() -> Analyzer {
    Analyzer::with_config(AnalysisConfig {
        jobs: 1,
        ..AnalysisConfig::default()
    })
}

pub fn verdict(bench: &Bench, result: &AnalysisResult) -> Verdict {
    match bench {
        Bench::Complexity(b) => {
            let (bound, class) = match result.summary(b.procedure) {
                Some(summary) => complexity::table1_row(
                    summary,
                    &Symbol::new(b.cost_var),
                    &Symbol::new(b.size_param),
                ),
                None => (None, ComplexityClass::NoBound),
            };
            Verdict {
                bound,
                class: class.to_string(),
                asserts: Vec::new(),
            }
        }
        Bench::Assertion(_) => Verdict {
            bound: None,
            class: String::new(),
            asserts: result
                .assertions
                .iter()
                .map(|a| (a.procedure.clone(), a.label.clone(), a.verified))
                .collect(),
        },
    }
}

/// Store-less verdicts of every program, in suite order.
pub fn reference(benches: &[Bench]) -> Vec<Verdict> {
    let analyzer = analyzer();
    benches
        .iter()
        .map(|b| verdict(b, &analyzer.analyze(b.program())))
        .collect()
}

/// `(assertions proved, Table 1 classes equal to the paper's CHORA column)`.
pub fn fidelity(benches: &[Bench], verdicts: &[Verdict]) -> (u64, u64) {
    let mut proved = 0;
    let mut matches = 0;
    for (bench, v) in benches.iter().zip(verdicts) {
        match bench {
            Bench::Complexity(b) => matches += u64::from(v.class == b.paper_chora),
            Bench::Assertion(_) => proved += v.asserts.iter().filter(|a| a.2).count() as u64,
        }
    }
    (proved, matches)
}

/// `suite-cold`: whole passes over the suite in a seeded order, one
/// program per operation and one round per pass, until the deadline.  Each result must equal the
/// set-up pass's verdict for that program.
fn run_window(benches: &[Bench], reference: &[Verdict], rng: &mut Rng, seconds: f64) -> Window {
    let analyzer = analyzer();
    let started = Instant::now();
    let mut samples = Vec::new();
    let mut order: Vec<usize> = (0..benches.len()).collect();
    let mut pass = 0;
    let mut peak_rss_mb = None;
    let mut slowdown = Vec::new();
    while started.elapsed().as_secs_f64() < seconds {
        slowdown.push(crate::stats::slowdown(1));
        rng.shuffle(&mut order);
        for &i in &order {
            let bench = &benches[i];
            let op_started = Instant::now();
            let got = {
                let _op = trace::span("bench", "program");
                verdict(bench, &analyzer.analyze(bench.program()))
            };
            samples.push(Sample {
                latency_ms: op_started.elapsed().as_secs_f64() * 1e3,
                programs: 1,
                ok: got == reference[i],
                round: pass,
                end_s: started.elapsed().as_secs_f64(),
                ..Sample::default()
            });
        }
        pass += 1;
        if pass == RSS_PASSES {
            peak_rss_mb = crate::stats::peak_rss_mb().ok();
        }
    }
    Window {
        samples,
        elapsed_s: started.elapsed().as_secs_f64(),
        peak_rss_mb,
        slowdown,
    }
}

/// The `suite-cold` workload, set up and ready to measure.
pub struct ColdRun {
    pub benches: Vec<Bench>,
    pub reference: Vec<Verdict>,
    pub rng: Rng,
}

impl crate::Harness for ColdRun {
    fn window(&mut self, seconds: f64, _stream: u64) -> Window {
        run_window(&self.benches, &self.reference, &mut self.rng, seconds)
    }

    fn snapshot(&mut self) -> Result<crate::layers::Snapshot, String> {
        Ok(crate::layers::snapshot(None, (0, 0.0)))
    }

    fn capacity(&self) -> usize {
        1
    }
}
