//! Property tests for the Presburger formula layer: random
//! quantifier-free formulas — linear and (non-)divisibility atoms under
//! `∧` of up to six conjuncts, `∨` and `¬` — and single-level bounded
//! quantifiers are checked against a direct brute-force evaluator, on the
//! in-repo `harness` property framework.

use harness::prop::{check_value, check_with, Config, Shrink};
use harness::{prop_assert_eq, Rng};
use omega::{Constraint, Formula, LinExpr, Problem, VarId, VarKind};

const BOX: i64 = 3;

fn space2() -> (Problem, VarId, VarId) {
    let mut s = Problem::new();
    let x = s.add_var("x", VarKind::Input);
    let y = s.add_var("y", VarKind::Input);
    (s, x, y)
}

/// A random linear atom over (x, y).
#[derive(Debug, Clone)]
struct AtomSpec {
    a: i64,
    b: i64,
    c: i64,
    eq: bool,
}

/// A random divisibility atom `g | a·x + b·y + c` (negated: `g ∤ …`).
#[derive(Debug, Clone)]
struct DivSpec {
    g: i64,
    a: i64,
    b: i64,
    c: i64,
    neg: bool,
}

/// A random quantifier-free formula tree (as a serializable spec).
#[derive(Debug, Clone)]
enum Spec {
    Atom(AtomSpec),
    Div(DivSpec),
    And(Vec<Spec>),
    Or(Vec<Spec>),
    Not(Box<Spec>),
}

fn gen_atom(rng: &mut Rng) -> AtomSpec {
    AtomSpec {
        a: rng.gen_range_i64(-3..=3),
        b: rng.gen_range_i64(-3..=3),
        c: rng.gen_range_i64(-5..=5),
        eq: rng.gen_bool(0.25),
    }
}

fn gen_div(rng: &mut Rng) -> DivSpec {
    DivSpec {
        g: rng.gen_range_i64(0..=4),
        a: rng.gen_range_i64(-3..=3),
        b: rng.gen_range_i64(-3..=3),
        c: rng.gen_range_i64(-5..=5),
        neg: rng.gen_bool(0.5),
    }
}

/// At most 3 levels of connectives above the atoms (the old
/// `prop_recursive(3, …)` shape). A quarter of the atoms are
/// (non-)divisibility atoms, each bringing existentials of its own, and
/// half the conjunctions have 3–6 conjuncts, so existentials of sibling
/// conjuncts meet in one branch of the search.
fn gen_spec(rng: &mut Rng, depth: u32) -> Spec {
    if depth == 0 || rng.gen_bool(0.4) {
        return if rng.gen_bool(0.25) {
            Spec::Div(gen_div(rng))
        } else {
            Spec::Atom(gen_atom(rng))
        };
    }
    let n = rng.gen_range_usize(1..=2);
    match rng.gen_range_usize(0..=2) {
        0 => {
            let n = if rng.gen_bool(0.5) { rng.gen_range_usize(3..=6) } else { n };
            Spec::And((0..n).map(|_| gen_spec(rng, depth - 1)).collect())
        }
        1 => Spec::Or((0..n).map(|_| gen_spec(rng, depth - 1)).collect()),
        _ => Spec::Not(Box::new(gen_spec(rng, depth - 1))),
    }
}

/// A flat conjunction of 3–6 atoms, half of them (non-)divisibility
/// atoms: the shape where the existentials of sibling conjuncts must not
/// share a column.
fn gen_conjunction(rng: &mut Rng) -> Spec {
    let n = rng.gen_range_usize(3..=6);
    Spec::And(
        (0..n)
            .map(|_| {
                if rng.gen_bool(0.5) {
                    Spec::Div(gen_div(rng))
                } else {
                    Spec::Atom(gen_atom(rng))
                }
            })
            .collect(),
    )
}

fn shrink_spec(spec: &Spec) -> Vec<Spec> {
    match spec {
        Spec::Atom(a) => (a.a, a.b, a.c, a.eq)
            .shrink()
            .into_iter()
            .map(|(a, b, c, eq)| Spec::Atom(AtomSpec { a, b, c, eq }))
            .collect(),
        Spec::Div(d) => (d.g, d.a, d.b, d.c, d.neg)
            .shrink()
            .into_iter()
            .filter(|&(g, ..)| g >= 0)
            .map(|(g, a, b, c, neg)| Spec::Div(DivSpec { g, a, b, c, neg }))
            .collect(),
        Spec::And(fs) => {
            let mut out = fs.clone();
            out.extend(
                harness::prop::shrink_vec(fs, shrink_spec, 1)
                    .into_iter()
                    .map(Spec::And),
            );
            out
        }
        Spec::Or(fs) => {
            let mut out = fs.clone();
            out.extend(
                harness::prop::shrink_vec(fs, shrink_spec, 1)
                    .into_iter()
                    .map(Spec::Or),
            );
            out
        }
        Spec::Not(f) => {
            let mut out = vec![(**f).clone()];
            out.extend(
                shrink_spec(f)
                    .into_iter()
                    .map(|s| Spec::Not(Box::new(s))),
            );
            out
        }
    }
}

fn build(spec: &Spec, x: VarId, y: VarId) -> Formula {
    match spec {
        Spec::Atom(a) => {
            let e = LinExpr::term(a.a, x).plus_term(a.b, y).plus_const(a.c);
            if a.eq {
                Formula::Atom(Constraint::eq(e))
            } else {
                Formula::Atom(Constraint::geq(e))
            }
        }
        Spec::Div(d) => {
            let e = LinExpr::term(d.a, x).plus_term(d.b, y).plus_const(d.c);
            if d.neg {
                Formula::NotDivides(d.g, e)
            } else {
                Formula::Divides(d.g, e)
            }
        }
        Spec::And(fs) => Formula::and(fs.iter().map(|f| build(f, x, y)).collect()),
        Spec::Or(fs) => Formula::or(fs.iter().map(|f| build(f, x, y)).collect()),
        Spec::Not(f) => Formula::not(build(f, x, y)),
    }
}

fn eval(spec: &Spec, xv: i64, yv: i64) -> bool {
    match spec {
        Spec::Atom(a) => {
            let v = a.a * xv + a.b * yv + a.c;
            if a.eq {
                v == 0
            } else {
                v >= 0
            }
        }
        Spec::Div(d) => {
            let v = d.a * xv + d.b * yv + d.c;
            let divides = if d.g == 0 { v == 0 } else { v.rem_euclid(d.g) == 0 };
            divides != d.neg
        }
        Spec::And(fs) => fs.iter().all(|f| eval(f, xv, yv)),
        Spec::Or(fs) => fs.iter().any(|f| eval(f, xv, yv)),
        Spec::Not(f) => !eval(f, xv, yv),
    }
}

/// The formula `lo <= v <= hi` as atoms.
fn bounds(v: VarId, lo: i64, hi: i64) -> Formula {
    Formula::and(vec![
        Formula::geq0(LinExpr::var(v).plus_const(-lo)),
        Formula::geq0(LinExpr::term(-1, v).plus_const(hi)),
    ])
}

// ---- the properties, as replayable functions ----

/// Satisfiability of a box-bounded quantifier-free formula agrees with
/// brute force.
fn prop_quantifier_free_sat(spec: &Spec) -> Result<(), String> {
    let (s, x, y) = space2();
    let f = Formula::and(vec![
        bounds(x, -BOX, BOX),
        bounds(y, -BOX, BOX),
        build(spec, x, y),
    ]);
    let mut budget = omega::Budget::default();
    let solved = f.is_satisfiable(&s, &mut budget).unwrap();
    let brute = (-BOX..=BOX).any(|xv| (-BOX..=BOX).any(|yv| eval(spec, xv, yv)));
    prop_assert_eq!(solved, brute, "{:?}", spec);
    Ok(())
}

/// `∃y (bounded). f` agrees with brute force over x.
fn prop_bounded_existential(spec: &Spec) -> Result<(), String> {
    let (s, x, y) = space2();
    let f = Formula::and(vec![
        bounds(x, -BOX, BOX),
        Formula::exists(
            vec![y],
            Formula::and(vec![bounds(y, -BOX, BOX), build(spec, x, y)]),
        ),
    ]);
    let mut budget = omega::Budget::default();
    let solved = f.is_satisfiable(&s, &mut budget).unwrap();
    let brute = (-BOX..=BOX).any(|xv| (-BOX..=BOX).any(|yv| eval(spec, xv, yv)));
    prop_assert_eq!(solved, brute, "{:?}", spec);
    Ok(())
}

/// `∀x (bounded). ∃y (bounded). f` — the paper's query shape — agrees
/// with brute force.
fn prop_forall_exists_shape(spec: &Spec) -> Result<(), String> {
    let (s, x, y) = space2();
    let inner = Formula::exists(
        vec![y],
        Formula::and(vec![bounds(y, -BOX, BOX), build(spec, x, y)]),
    );
    // ∀x. (-BOX <= x <= BOX) ⇒ inner
    let f = Formula::forall(vec![x], bounds(x, -BOX, BOX).implies(inner));
    let mut budget = omega::Budget::default();
    // Deeply alternating formulas may hit the documented complexity or
    // nesting-depth guard (negating a union whose pieces share wildcards
    // needs full Presburger QE); those conservative failures are skipped.
    let solved = match f.is_valid(&s, &mut budget) {
        Ok(v) => v,
        Err(omega::Error::TooComplex { .. } | omega::Error::TooDeep { .. }) => return Ok(()),
        Err(e) => return Err(format!("{e}")),
    };
    let brute = (-BOX..=BOX).all(|xv| (-BOX..=BOX).any(|yv| eval(spec, xv, yv)));
    prop_assert_eq!(solved, brute, "{:?}", spec);
    Ok(())
}

/// Validity is the dual of the negation's satisfiability.
fn prop_valid_iff_negation_unsat(spec: &Spec) -> Result<(), String> {
    let (s, x, y) = space2();
    let body = bounds(x, -BOX, BOX).implies(bounds(y, -BOX, BOX).implies(build(spec, x, y)));
    let mut budget = omega::Budget::default();
    let valid = body.is_valid(&s, &mut budget).unwrap();
    let neg_sat = Formula::not(body).is_satisfiable(&s, &mut budget).unwrap();
    prop_assert_eq!(valid, !neg_sat);
    Ok(())
}

// ---- random-case drivers ----

fn run(property: impl Fn(&Spec) -> Result<(), String>) {
    check_with(
        &Config::with_cases(192),
        |rng| gen_spec(rng, 3),
        shrink_spec,
        property,
    );
}

#[test]
fn quantifier_free_sat() {
    run(prop_quantifier_free_sat);
}

#[test]
fn divisibility_conjunctions_sat() {
    check_with(
        &Config::with_cases(192),
        gen_conjunction,
        shrink_spec,
        |spec| {
            prop_quantifier_free_sat(spec)?;
            prop_valid_iff_negation_unsat(spec)
        },
    );
}

#[test]
fn bounded_existential() {
    run(prop_bounded_existential);
}

#[test]
fn forall_exists_shape() {
    run(prop_forall_exists_shape);
}

#[test]
fn valid_iff_negation_unsat() {
    run(prop_valid_iff_negation_unsat);
}

// ---- named regressions, ported from the historical proptest seed
// files (`formula_prop.proptest-regressions`) before they were deleted.
// Each recorded minimal witness is replayed through all four
// properties. ----

fn all_props(spec: &Spec) -> Result<(), String> {
    prop_quantifier_free_sat(spec)?;
    prop_bounded_existential(spec)?;
    prop_forall_exists_shape(spec)?;
    prop_valid_iff_negation_unsat(spec)
}

/// `cc a89ac490…`: shrank to `And([Atom { a: 1, b: 2, c: 0, eq: true }])`.
#[test]
fn regression_single_eq_atom_conjunction() {
    let spec = Spec::And(vec![Spec::Atom(AtomSpec {
        a: 1,
        b: 2,
        c: 0,
        eq: true,
    })]);
    check_value(&spec, all_props);
}

/// `cc 29fa8e06…`: shrank to `And([Atom { a: -3, b: -2, c: 0, eq: true }])`.
#[test]
fn regression_negative_coefficient_eq_atom() {
    let spec = Spec::And(vec![Spec::Atom(AtomSpec {
        a: -3,
        b: -2,
        c: 0,
        eq: true,
    })]);
    check_value(&spec, all_props);
}
