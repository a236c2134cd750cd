//! Ablation benchmarks for the design choices DESIGN.md calls out:
//! the §4.5 quick tests, the exact-formula fallback for disjunctive
//! implications, and the refinement-widening extension.
//!
//! Runs on the in-repo `harness` bench runner; under `cargo test` (no
//! `--bench` arg) it performs a quick smoke run only.

use depend::{analyze_program, Config};
use harness::bench::Bench;

fn configs() -> Vec<(&'static str, Config)> {
    vec![
        ("full", Config::extended()),
        (
            "no_quick_tests",
            Config {
                quick_tests: false,
                ..Config::extended()
            },
        ),
        (
            "no_formula_fallback",
            Config {
                formula_fallback: false,
                ..Config::extended()
            },
        ),
        (
            "no_widening",
            Config {
                widen_refinement: false,
                ..Config::extended()
            },
        ),
        (
            "kills_only",
            Config {
                refine: false,
                cover: false,
                ..Config::extended()
            },
        ),
    ]
}

fn bench_ablations(b: &mut Bench) {
    let entry = tiny::corpus::by_name("cholsky").unwrap();
    let program = tiny::Program::parse(entry.source).unwrap();
    let info = tiny::analyze(&program).unwrap();
    for (name, cfg) in configs() {
        b.bench(&format!("ablation/cholsky/{name}"), || {
            analyze_program(&info, &cfg).unwrap()
        });
    }
}

fn bench_solver_ablations(b: &mut Bench) {
    use omega::{Budget, LinExpr, Problem, SolverOptions, VarKind};
    // An inexact, splinter-prone problem family where the dark shadow is
    // the fast path the paper's §3 motivates.
    let mut p = Problem::new();
    let x = p.add_var("x", VarKind::Input);
    let y = p.add_var("y", VarKind::Input);
    let z = p.add_var("z", VarKind::Input);
    p.add_geq(LinExpr::term(5, x).plus_term(-3, y).plus_const(2));
    p.add_geq(LinExpr::term(-5, x).plus_term(3, y).plus_const(4));
    p.add_geq(LinExpr::term(7, y).plus_term(-4, z).plus_const(1));
    p.add_geq(LinExpr::term(-7, y).plus_term(4, z).plus_const(9));
    p.add_geq(LinExpr::var(z).plus_const(-1));
    p.add_geq(LinExpr::term(-1, z).plus_const(500));

    b.bench("ablation/omega/sat_with_dark_shadow", || {
        p.is_satisfiable().unwrap()
    });
    b.bench("ablation/omega/sat_without_dark_shadow", || {
        let mut budget = Budget::new(omega::DEFAULT_BUDGET).with_options(SolverOptions {
            dark_shadow: false,
            ..SolverOptions::default()
        });
        p.is_satisfiable_with(&mut budget).unwrap()
    });
}

fn bench_tableau_vs_rows(b: &mut Bench) {
    use omega::{Budget, LinExpr, Problem, SolverOptions, VarKind};

    // Solver-level comparison: the same satisfiability and projection
    // queries on the dense scratch tableau vs the interned-row pipeline.
    // The verdicts, budget spends, and outputs are identical; only the
    // constant factor differs.
    let mut p = Problem::new();
    let i = p.add_var("i", VarKind::Input);
    let j = p.add_var("j", VarKind::Input);
    let k = p.add_var("k", VarKind::Input);
    let n = p.add_var("n", VarKind::Symbolic);
    // A triangular loop nest with an equality coupling, the shape
    // dependence analysis produces constantly.
    p.add_geq(LinExpr::var(i).plus_const(-1));
    p.add_geq(LinExpr::var(n).plus_term(-1, i));
    p.add_geq(LinExpr::var(j).plus_term(-1, i));
    p.add_geq(LinExpr::var(n).plus_term(-1, j));
    p.add_geq(LinExpr::var(k).plus_term(-1, j));
    p.add_geq(LinExpr::var(n).plus_term(-1, k));
    p.add_eq(LinExpr::term(2, i).plus_term(-1, k).plus_const(3));
    let rows_options = SolverOptions {
        dense_kernel: false,
        ..SolverOptions::default()
    };
    b.bench("ablation/tableau_vs_rows/sat_dense", || {
        p.is_satisfiable_with(&mut Budget::default()).unwrap()
    });
    b.bench("ablation/tableau_vs_rows/sat_rows", || {
        let mut budget = Budget::default().with_options(rows_options);
        p.is_satisfiable_with(&mut budget).unwrap()
    });
    b.bench("ablation/tableau_vs_rows/project_dense", || {
        p.project_with(&[i, n], &mut Budget::default()).unwrap()
    });
    b.bench("ablation/tableau_vs_rows/project_rows", || {
        let mut budget = Budget::default().with_options(rows_options);
        p.project_with(&[i, n], &mut budget).unwrap()
    });

    // Whole-program comparison on the headline workload.
    let entry = tiny::corpus::by_name("cholsky").unwrap();
    let program = tiny::Program::parse(entry.source).unwrap();
    let info = tiny::analyze(&program).unwrap();
    let dense_cfg = Config::extended();
    let rows_cfg = Config {
        dense_kernel: false,
        ..Config::extended()
    };
    b.bench("ablation/tableau_vs_rows/cholsky_dense", || {
        analyze_program(&info, &dense_cfg).unwrap()
    });
    b.bench("ablation/tableau_vs_rows/cholsky_rows", || {
        analyze_program(&info, &rows_cfg).unwrap()
    });
}

fn main() {
    // Whole-program ablations are slow; mirror the old `sample_size(10)`.
    let mut b = Bench::from_env().default_samples(10);
    bench_ablations(&mut b);
    bench_solver_ablations(&mut b);
    bench_tableau_vs_rows(&mut b);
}
