//! Ablation study (this reproduction's addition): how the analysis degrades
//! when individual CHORA ingredients are disabled — depth-bound analysis
//! (§4.2) and the polynomial-fact strengthening of summaries — measured on a
//! representative subset of Table 1.

use chora_bench_suite::complexity_suite;
use chora_core::{AnalysisConfig, Analyzer};
use criterion::{criterion_group, criterion_main, Criterion};

fn class_with(config: AnalysisConfig, bench: &chora_bench_suite::ComplexityBenchmark) -> String {
    let result = Analyzer::with_config(config).analyze(&bench.program);
    bench.table1_row(&result).1.to_string()
}

fn ablations(c: &mut Criterion) {
    println!("\n=== Ablations: effect of disabling analysis ingredients ===");
    println!(
        "{:<14} {:<16} {:<18} {:<18}",
        "benchmark", "full", "no depth bounds", "no poly facts"
    );
    let subset = ["hanoi", "subset_sum", "mergesort", "karatsuba"];
    let mut group = c.benchmark_group("ablations");
    group.sample_size(10);
    for name in subset {
        let bench = complexity_suite::by_name(name).unwrap();
        let full = class_with(AnalysisConfig::default(), &bench);
        let no_depth = class_with(
            AnalysisConfig {
                enable_depth_bounds: false,
                ..AnalysisConfig::default()
            },
            &bench,
        );
        let no_poly = class_with(
            AnalysisConfig {
                enable_polynomial_facts: false,
                ..AnalysisConfig::default()
            },
            &bench,
        );
        println!("{:<14} {:<16} {:<18} {:<18}", name, full, no_depth, no_poly);
        group.bench_function(format!("{name}/full"), |b| {
            b.iter(|| Analyzer::new().analyze(std::hint::black_box(&bench.program)))
        });
        group.bench_function(format!("{name}/no-depth"), |b| {
            b.iter(|| {
                Analyzer::with_config(AnalysisConfig {
                    enable_depth_bounds: false,
                    ..AnalysisConfig::default()
                })
                .analyze(std::hint::black_box(&bench.program))
            })
        });
    }
    group.finish();
}

criterion_group!(benches, ablations);
criterion_main!(benches);
