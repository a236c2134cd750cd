//! Shared logical machinery for the §4 tests: implications whose
//! right-hand side is a union of conjunctions (the `∃` over several
//! execution-order cases), with the exact Presburger-formula fallback.

use omega::{Budget, Formula, Problem, VarKind};

use crate::error::Result;

/// Decides `p ⇒ q₁ ∨ … ∨ qₙ`.
///
/// Strategy straight from §3.2/§4: first try each disjunct alone (the
/// sufficient test the paper's implementation uses — fast and usually
/// enough). If that fails and `formula_fallback` is set, run the exact
/// check: is `p ∧ ¬q₁ ∧ … ∧ ¬qₙ` satisfiable? Each `qᵢ` is first cut to
/// its gist given `p` (§3.3) — the same conjunction under `p`, with only
/// the constraints `p` does not already imply — and dropped when `p`
/// makes it infeasible. The Presburger layer then searches the negated
/// disjuncts depth-first, one alternative at a time, pruning every
/// unsatisfiable partial conjunction. A search that exceeds its budget
/// or nesting guard gives up conservatively ("not implied"); the
/// budget's [`omega::FormulaStats`] counts the calls, branches and
/// give-ups.
///
/// # Errors
///
/// Propagates solver errors.
pub fn implies_union(
    p: &Problem,
    qs: &[Problem],
    formula_fallback: bool,
    budget: &mut Budget,
) -> Result<bool> {
    if !p.is_satisfiable_with(budget)? {
        return Ok(true);
    }
    for q in qs {
        if omega::implies_with(p, q, budget)? {
            return Ok(true);
        }
    }
    if !formula_fallback || qs.is_empty() || qs.len() > 12 {
        return Ok(false);
    }
    // With one existential-free disjunct the test above was already
    // exact: every constraint of q was checked against p.
    if let [q] = qs {
        if existential_columns(q).next().is_none() {
            return Ok(false);
        }
    }
    // Exact: ¬(p ⇒ ∨qᵢ) ≡ p ∧ ∧¬qᵢ satisfiable. The witness problems may
    // carry projection wildcards beyond p's table, so the formula space is
    // p's table extended to cover every operand.
    let mut space = p.clone();
    for q in qs {
        space.extend_space_to(q)?;
    }
    let mut parts = vec![Formula::from_problem(p)];
    for q in qs {
        // Both cuts conjoin q with p column by column, so they are made
        // only when no existential of either is a column of the other.
        let q = if shares_existential(p, q) {
            q.clone()
        } else {
            let mut both = p.clone();
            both.and(q)?;
            if !both.is_satisfiable_with(budget)? {
                // Under p, ¬q is true: the disjunct drops out.
                continue;
            }
            omega::gist_with(q, p, budget)?
        };
        parts.push(Formula::not(Formula::from_problem(&q)));
    }
    let sat = match Formula::and(parts).is_satisfiable(&space, budget) {
        Ok(s) => s,
        // The exact fallback is best-effort: on blow-up, stay conservative.
        Err(omega::Error::TooComplex { .. } | omega::Error::TooDeep { .. }) => true,
        Err(e) => return Err(e.into()),
    };
    Ok(!sat)
}

/// The wildcard columns `q`'s constraints mention.
fn existential_columns(q: &Problem) -> impl Iterator<Item = omega::VarId> + '_ {
    q.eqs()
        .iter()
        .chain(q.geqs())
        .flat_map(|c| c.expr().terms().map(|(v, _)| v))
        .filter(move |&v| v.index() >= q.num_vars() || q.var_info(v).kind() == VarKind::Wildcard)
}

/// Whether a column is an existential of `p` or `q` and occurs in both.
fn shares_existential(p: &Problem, q: &Problem) -> bool {
    let mentions = |r: &Problem, v: omega::VarId| {
        r.eqs()
            .iter()
            .chain(r.geqs())
            .any(|c| c.expr().coef(v) != 0)
    };
    existential_columns(q).any(|v| mentions(p, v)) || existential_columns(p).any(|v| mentions(q, v))
}

#[cfg(test)]
mod tests {
    use super::*;
    use omega::{LinExpr, VarKind};

    #[test]
    fn single_disjunct_path() {
        let mut s = Problem::new();
        let x = s.add_var("x", VarKind::Input);
        let mut p = s.clone();
        p.add_geq(LinExpr::var(x).plus_const(-5)); // x >= 5
        let mut q = s.clone();
        q.add_geq(LinExpr::var(x).plus_const(-1)); // x >= 1
        let mut b = Budget::default();
        assert!(implies_union(&p, &[q], false, &mut b).unwrap());
    }

    #[test]
    fn union_needed() {
        // 0 <= x <= 10  ⇒  x <= 5 ∨ x >= 4: true, but neither disjunct
        // alone suffices.
        let mut s = Problem::new();
        let x = s.add_var("x", VarKind::Input);
        let mut p = s.clone();
        p.add_geq(LinExpr::var(x));
        p.add_geq(LinExpr::term(-1, x).plus_const(10));
        let mut q1 = s.clone();
        q1.add_geq(LinExpr::term(-1, x).plus_const(5));
        let mut q2 = s.clone();
        q2.add_geq(LinExpr::var(x).plus_const(-4));
        let mut b = Budget::default();
        assert!(
            !implies_union(&p, &[q1.clone(), q2.clone()], false, &mut b).unwrap(),
            "case-by-case must fail"
        );
        assert!(
            implies_union(&p, &[q1, q2], true, &mut b).unwrap(),
            "formula fallback must succeed"
        );
    }

    #[test]
    fn one_existential_free_disjunct_skips_the_fallback() {
        // 0 <= x <= 10 ⇒ x <= 5: the single-disjunct test is exact, so
        // the fallback does not run again.
        let mut s = Problem::new();
        let x = s.add_var("x", VarKind::Input);
        let mut p = s.clone();
        p.add_geq(LinExpr::var(x));
        p.add_geq(LinExpr::term(-1, x).plus_const(10));
        let mut q = s.clone();
        q.add_geq(LinExpr::term(-1, x).plus_const(5));
        let mut b = Budget::default();
        assert!(!implies_union(&p, &[q], true, &mut b).unwrap());
        assert_eq!(b.formula_stats().searches, 0);
    }

    #[test]
    fn one_disjunct_with_an_existential_reaches_the_fallback() {
        // x = 2y ⇒ ∃α. x = 2α. The single-disjunct test reads α as a free
        // variable and cannot prove it; the fallback must.
        let mut s = Problem::new();
        let x = s.add_var("x", VarKind::Input);
        let y = s.add_var("y", VarKind::Input);
        let mut p = s.clone();
        p.add_eq(LinExpr::var(x).plus_term(-2, y));
        let mut q = s.clone();
        let alpha = q.add_var("alpha", VarKind::Wildcard);
        q.add_eq(LinExpr::var(x).plus_term(-2, alpha));
        let mut b = Budget::default();
        assert!(!implies_union(&p, &[q.clone()], false, &mut b).unwrap());
        assert!(implies_union(&p, &[q], true, &mut b).unwrap());
        assert_eq!(b.formula_stats().searches, 1);
    }

    #[test]
    fn disjuncts_infeasible_under_the_premise_drop_out() {
        // 0 <= x <= 10 ⇒ x >= 20 ∨ x <= -1 ∨ x >= 3: false at x = 0; the
        // first two disjuncts cannot meet p and leave only ¬(x >= 3) to
        // search.
        let mut s = Problem::new();
        let x = s.add_var("x", VarKind::Input);
        let mut p = s.clone();
        p.add_geq(LinExpr::var(x));
        p.add_geq(LinExpr::term(-1, x).plus_const(10));
        let bound = |e: LinExpr| {
            let mut q = s.clone();
            q.add_geq(e);
            q
        };
        let qs = [
            bound(LinExpr::var(x).plus_const(-20)),
            bound(LinExpr::term(-1, x).plus_const(-1)),
            bound(LinExpr::var(x).plus_const(-3)),
        ];
        let mut b = Budget::default();
        assert!(!implies_union(&p, &qs, true, &mut b).unwrap());
        assert_eq!(
            b.formula_stats().branches,
            0,
            "one negated bound, no disjunction"
        );
    }

    #[test]
    fn union_that_really_fails() {
        // 0 <= x <= 10 ⇒ x <= 3 ∨ x >= 6 is false (x = 4).
        let mut s = Problem::new();
        let x = s.add_var("x", VarKind::Input);
        let mut p = s.clone();
        p.add_geq(LinExpr::var(x));
        p.add_geq(LinExpr::term(-1, x).plus_const(10));
        let mut q1 = s.clone();
        q1.add_geq(LinExpr::term(-1, x).plus_const(3));
        let mut q2 = s.clone();
        q2.add_geq(LinExpr::var(x).plus_const(-6));
        let mut b = Budget::default();
        assert!(!implies_union(&p, &[q1, q2], true, &mut b).unwrap());
    }

    #[test]
    fn vacuous_premise() {
        let mut s = Problem::new();
        let x = s.add_var("x", VarKind::Input);
        let mut p = s.clone();
        p.add_geq(LinExpr::var(x).plus_const(-5));
        p.add_geq(LinExpr::term(-1, x));
        let mut b = Budget::default();
        assert!(implies_union(&p, &[], true, &mut b).unwrap());
    }
}
