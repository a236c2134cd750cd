//! Property test: the exact fallback of [`depend::logic::implies_union`]
//! agrees with brute force. Random premises `p` (a box plus up to three
//! linear atoms over `x`, `y`) and unions of one to four disjuncts (each
//! up to three atoms, half with a stride `g | a·x + b·y + c` carried by
//! an existential column) are decided both ways: `p ⇒ q₁ ∨ … ∨ qₙ` holds
//! exactly when no point of the box satisfies `p ∧ ¬q₁ ∧ … ∧ ¬qₙ`.

use harness::prop::{check_with, shrink_vec, Config, Shrink};
use harness::{prop_assert_eq, Rng};

use depend::logic::implies_union;
use omega::{Budget, LinExpr, Problem, VarId, VarKind};

const BOX: i64 = 3;

/// `a·x + b·y + c = 0` (or `>= 0`).
#[derive(Debug, Clone)]
struct AtomSpec {
    a: i64,
    b: i64,
    c: i64,
    eq: bool,
}

/// A conjunction of atoms, optionally with `g | a·x + b·y + c`.
#[derive(Debug, Clone)]
struct DisjunctSpec {
    atoms: Vec<AtomSpec>,
    stride: Option<(i64, i64, i64, i64)>,
}

#[derive(Debug, Clone)]
struct Case {
    premise: Vec<AtomSpec>,
    disjuncts: Vec<DisjunctSpec>,
}

fn gen_atom(rng: &mut Rng, eq: f64) -> AtomSpec {
    AtomSpec {
        a: rng.gen_range_i64(-2..=2),
        b: rng.gen_range_i64(-2..=2),
        c: rng.gen_range_i64(-3..=3),
        eq: rng.gen_bool(eq),
    }
}

/// Premise equalities are common (they pin points, where the negated
/// strides of different disjuncts must stay independent), and half the
/// disjuncts carry a stride, some with no other atom.
fn gen_case(rng: &mut Rng) -> Case {
    let premise = (0..rng.gen_range_usize(0..=3))
        .map(|_| gen_atom(rng, 0.4))
        .collect();
    let disjuncts = (0..rng.gen_range_usize(1..=4))
        .map(|_| DisjunctSpec {
            atoms: (0..rng.gen_range_usize(0..=3))
                .map(|_| gen_atom(rng, 0.2))
                .collect(),
            stride: rng.gen_bool(0.5).then(|| {
                (
                    rng.gen_range_i64(2..=3),
                    rng.gen_range_i64(-2..=2),
                    rng.gen_range_i64(-2..=2),
                    rng.gen_range_i64(-2..=2),
                )
            }),
        })
        .collect();
    Case { premise, disjuncts }
}

fn shrink_atom(a: &AtomSpec) -> Vec<AtomSpec> {
    (a.a, a.b, a.c, a.eq)
        .shrink()
        .into_iter()
        .map(|(a, b, c, eq)| AtomSpec { a, b, c, eq })
        .collect()
}

fn shrink_disjunct(d: &DisjunctSpec) -> Vec<DisjunctSpec> {
    let mut out: Vec<DisjunctSpec> = shrink_vec(&d.atoms, shrink_atom, 0)
        .into_iter()
        .map(|atoms| DisjunctSpec {
            atoms,
            stride: d.stride,
        })
        .collect();
    if d.stride.is_some() {
        out.push(DisjunctSpec {
            atoms: d.atoms.clone(),
            stride: None,
        });
    }
    out
}

fn shrink_case(c: &Case) -> Vec<Case> {
    let mut out: Vec<Case> = shrink_vec(&c.premise, shrink_atom, 0)
        .into_iter()
        .map(|premise| Case {
            premise,
            disjuncts: c.disjuncts.clone(),
        })
        .collect();
    out.extend(
        shrink_vec(&c.disjuncts, shrink_disjunct, 1)
            .into_iter()
            .map(|disjuncts| Case {
                premise: c.premise.clone(),
                disjuncts,
            }),
    );
    out
}

fn expr(a: i64, b: i64, c: i64, x: VarId, y: VarId) -> LinExpr {
    LinExpr::term(a, x).plus_term(b, y).plus_const(c)
}

fn add_atom(p: &mut Problem, atom: &AtomSpec, x: VarId, y: VarId) {
    let e = expr(atom.a, atom.b, atom.c, x, y);
    if atom.eq {
        p.add_eq(e);
    } else {
        p.add_geq(e);
    }
}

fn holds(atom: &AtomSpec, xv: i64, yv: i64) -> bool {
    let v = atom.a * xv + atom.b * yv + atom.c;
    if atom.eq {
        v == 0
    } else {
        v >= 0
    }
}

fn prop_fallback_matches_brute_force(case: &Case) -> Result<(), String> {
    let mut space = Problem::new();
    let x = space.add_var("x", VarKind::Input);
    let y = space.add_var("y", VarKind::Input);
    let mut p = space.clone();
    for (v, _) in [(x, 0), (y, 1)] {
        p.add_geq(LinExpr::var(v).plus_const(BOX));
        p.add_geq(LinExpr::term(-1, v).plus_const(BOX));
    }
    for atom in &case.premise {
        add_atom(&mut p, atom, x, y);
    }
    let qs: Vec<Problem> = case
        .disjuncts
        .iter()
        .map(|d| {
            let mut q = space.clone();
            for atom in &d.atoms {
                add_atom(&mut q, atom, x, y);
            }
            if let Some((g, a, b, c)) = d.stride {
                // ∃α. a·x + b·y + c = g·α
                let alpha = q.add_var("alpha", VarKind::Wildcard);
                q.add_eq(expr(a, b, c, x, y).plus_term(-g, alpha));
            }
            q
        })
        .collect();
    let disjunct_holds = |d: &DisjunctSpec, xv: i64, yv: i64| {
        d.atoms.iter().all(|atom| holds(atom, xv, yv))
            && d.stride
                .is_none_or(|(g, a, b, c)| (a * xv + b * yv + c).rem_euclid(g) == 0)
    };
    let brute = (-BOX..=BOX).all(|xv| {
        (-BOX..=BOX).all(|yv| {
            !case.premise.iter().all(|atom| holds(atom, xv, yv))
                || case.disjuncts.iter().any(|d| disjunct_holds(d, xv, yv))
        })
    });
    let mut budget = Budget::default();
    let decided = implies_union(&p, &qs, true, &mut budget).map_err(|e| e.to_string())?;
    prop_assert_eq!(budget.formula_stats().give_ups, 0, "{:?}", case);
    prop_assert_eq!(decided, brute, "{:?}", case);
    Ok(())
}

#[test]
fn fallback_matches_brute_force() {
    check_with(
        &Config::with_cases(256),
        gen_case,
        shrink_case,
        prop_fallback_matches_brute_force,
    );
}
