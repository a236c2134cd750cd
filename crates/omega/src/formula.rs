//! A Presburger-formula layer on top of conjunctions (§3.2).
//!
//! Formulas are built from linear atoms over a shared variable space with
//! `∧`, `∨`, `¬`, `∃` and `∀`. Satisfiability is decided by a lazy
//! depth-first search over the formula's negation normal form: an `∧` is
//! worked through one conjunct at a time, each `∨` contributes one
//! alternative to a running conjunction, and a branch is pruned as soon as
//! that conjunction has no integer solution. The search stops at the first
//! satisfiable leaf, so the disjunctive normal form — the product of every
//! conjunct's alternatives — is never built.
//!
//! Every existential a branch takes on (the `α` of a [`Formula::Divides`]
//! atom, the bound variables of a positive `∃`, the leftover existentials
//! of a projection piece) gets fresh columns of that branch, so two
//! conjuncts' existentials never alias. A universal `∀x. f` is decided as
//! `¬∃x. ¬f`: the body is searched exhaustively, each satisfiable leaf is
//! projected with the Omega test (splinters become extra pieces), and the
//! negation of every piece joins the branch.
//!
//! The paper deliberately does not characterize the subclass it decides
//! efficiently; the same is true here. Negating a projection piece that
//! keeps existentials nests another `∀`, which can regress without bound:
//! the search gives up with [`Error::TooDeep`](crate::Error::TooDeep) past
//! a fixed nesting depth and with
//! [`Error::TooComplex`](crate::Error::TooComplex) when the budget (one
//! step per branch, plus the solver work of each pruning check) runs out.

use std::ops::ControlFlow;

use crate::linexpr::{Constraint, LinExpr, Relation};
use crate::problem::{Budget, Problem};
use crate::redundant::negate_geq;
use crate::var::{VarId, VarKind};
use crate::{Error, Result};

/// A formula of Presburger arithmetic over a fixed variable space.
///
/// The space is supplied when the formula is evaluated (see
/// [`Formula::dnf`]); atoms carry constraints whose variable ids refer to
/// that space.
#[derive(Debug, Clone)]
pub enum Formula {
    /// The true formula.
    True,
    /// The false formula.
    False,
    /// A single linear constraint.
    Atom(Constraint),
    /// Divisibility: `g | expr` (equivalently `∃α. expr = g·α`).
    ///
    /// First-class so that negation stays decidable:
    /// `¬(g | e) ≡ ∃α,ρ. e = g·α + ρ ∧ 1 ≤ ρ ≤ g−1`.
    Divides(crate::int::Coef, LinExpr),
    /// Non-divisibility: `g ∤ expr`.
    NotDivides(crate::int::Coef, LinExpr),
    /// Conjunction.
    And(Vec<Formula>),
    /// Disjunction.
    Or(Vec<Formula>),
    /// Negation.
    Not(Box<Formula>),
    /// Existential quantification of the listed variables.
    Exists(Vec<VarId>, Box<Formula>),
    /// Universal quantification of the listed variables.
    Forall(Vec<VarId>, Box<Formula>),
}

impl Formula {
    /// The atom `expr == 0`.
    pub fn eq0(expr: LinExpr) -> Formula {
        Formula::Atom(Constraint::eq(expr))
    }

    /// The atom `expr >= 0`.
    pub fn geq0(expr: LinExpr) -> Formula {
        Formula::Atom(Constraint::geq(expr))
    }

    /// Conjunction of the given formulas.
    pub fn and(fs: Vec<Formula>) -> Formula {
        Formula::And(fs)
    }

    /// Disjunction of the given formulas.
    pub fn or(fs: Vec<Formula>) -> Formula {
        Formula::Or(fs)
    }

    /// Negation.
    #[allow(clippy::should_implement_trait)]
    pub fn not(f: Formula) -> Formula {
        Formula::Not(Box::new(f))
    }

    /// `∃ vars. f`
    pub fn exists(vars: Vec<VarId>, f: Formula) -> Formula {
        Formula::Exists(vars, Box::new(f))
    }

    /// `∀ vars. f`
    pub fn forall(vars: Vec<VarId>, f: Formula) -> Formula {
        Formula::Forall(vars, Box::new(f))
    }

    /// `self ⇒ other`
    pub fn implies(self, other: Formula) -> Formula {
        Formula::Or(vec![Formula::not(self), other])
    }

    /// Converts a whole problem into a conjunction of atoms.
    ///
    /// A wildcard that appears exactly once, in a single equality, encodes
    /// a stride; such equalities become [`Formula::Divides`] atoms (keeping
    /// negation decidable). Remaining wildcards are wrapped in an
    /// existential.
    pub fn from_problem(p: &Problem) -> Formula {
        Formula::from_problem_bound(p, |v| p.var_info(v).kind() == VarKind::Wildcard)
    }

    /// [`Formula::from_problem`] with the existential columns named by
    /// `bound` instead of by their wildcard kind.
    fn from_problem_bound(p: &Problem, bound: impl Fn(VarId) -> bool) -> Formula {
        if p.is_known_infeasible() {
            return Formula::False;
        }
        // Count bound-variable occurrences across all constraints.
        let mut occurrences = vec![0usize; p.num_vars()];
        for c in p.eqs().iter().chain(p.geqs()) {
            for (v, _) in c.expr().terms() {
                if v.index() >= occurrences.len() {
                    occurrences.resize(v.index() + 1, 0);
                }
                occurrences[v.index()] += 1;
            }
        }
        let mut atoms: Vec<Formula> = Vec::new();
        let mut leftover: std::collections::BTreeSet<VarId> = std::collections::BTreeSet::new();
        for c in p.eqs() {
            // Stride pattern: exactly one lone bound variable in an equality.
            let wilds: Vec<(VarId, crate::int::Coef)> =
                c.expr().terms().filter(|&(v, _)| bound(v)).collect();
            if wilds.len() == 1 && occurrences[wilds[0].0.index()] == 1 {
                let (w, g) = wilds[0];
                let mut rest = c.expr().clone();
                rest.set_coef(w, 0);
                atoms.push(Formula::Divides(g.abs(), rest));
                continue;
            }
            leftover.extend(wilds.iter().map(|&(v, _)| v));
            atoms.push(Formula::Atom(c.clone()));
        }
        for c in p.geqs() {
            leftover.extend(c.expr().terms().map(|(v, _)| v).filter(|&v| bound(v)));
            atoms.push(Formula::Atom(c.clone()));
        }
        let body = Formula::And(atoms);
        if leftover.is_empty() {
            body
        } else {
            Formula::Exists(leftover.into_iter().collect(), Box::new(body))
        }
    }

    /// Every satisfiable leaf of the search: a union of conjunctions whose
    /// integer points, projected onto `space`'s columns, are exactly the
    /// formula's models. Columns past `space` are existentials (of
    /// divisibility atoms, positive `∃`s and projection pieces).
    ///
    /// # Errors
    ///
    /// Propagates solver errors; [`Error::TooComplex`] when `budget` runs
    /// out and [`Error::TooDeep`] past the nesting-depth guard.
    pub fn dnf(&self, space: &Problem, budget: &mut Budget) -> Result<Vec<Problem>> {
        let nnf = self.to_nnf(false);
        leaves(&nnf, empty_over(space, nnf.width()), 0, budget)
    }

    /// Satisfiability over the free variables: the depth-first search
    /// returns on the first satisfiable leaf. The search's work is counted
    /// in `budget`'s [`FormulaStats`](crate::FormulaStats).
    ///
    /// # Errors
    ///
    /// Propagates solver errors; [`Error::TooComplex`] when `budget` runs
    /// out and [`Error::TooDeep`] past the nesting-depth guard (both also
    /// counted as give-ups).
    pub fn is_satisfiable(&self, space: &Problem, budget: &mut Budget) -> Result<bool> {
        budget.formula.searches += 1;
        let nnf = self.to_nnf(false);
        let start = Branch::new(empty_over(space, nnf.width()));
        let found = search(&nnf, 0, None, start, budget, &mut |_, _| {
            Ok(ControlFlow::Break(()))
        });
        if let Err(Error::TooComplex { .. } | Error::TooDeep { .. }) = found {
            budget.formula.give_ups += 1;
        }
        Ok(found?.is_break())
    }

    /// Validity: true for **all** integer values of the free variables.
    ///
    /// # Errors
    ///
    /// Propagates solver errors.
    pub fn is_valid(&self, space: &Problem, budget: &mut Budget) -> Result<bool> {
        Ok(!Formula::not(self.clone()).is_satisfiable(space, budget)?)
    }

    /// Negation normal form. `negate` tracks an odd number of enclosing
    /// negations.
    fn to_nnf(&self, negate: bool) -> Formula {
        match self {
            Formula::True => {
                if negate {
                    Formula::False
                } else {
                    Formula::True
                }
            }
            Formula::False => {
                if negate {
                    Formula::True
                } else {
                    Formula::False
                }
            }
            Formula::Atom(c) => {
                if !negate {
                    Formula::Atom(c.clone())
                } else {
                    match c.relation() {
                        // ¬(e >= 0)  ≡  -e - 1 >= 0
                        Relation::NonNegative => {
                            Formula::Atom(Constraint::geq(negate_geq(c.expr())))
                        }
                        // ¬(e == 0)  ≡  e - 1 >= 0  ∨  -e - 1 >= 0
                        Relation::Zero => {
                            let mut pos = c.expr().clone();
                            pos.add_constant(-1).expect("overflow");
                            Formula::Or(vec![
                                Formula::Atom(Constraint::geq(pos)),
                                Formula::Atom(Constraint::geq(negate_geq(c.expr()))),
                            ])
                        }
                    }
                }
            }
            Formula::Divides(g, e) => {
                if negate {
                    Formula::NotDivides(*g, e.clone())
                } else {
                    Formula::Divides(*g, e.clone())
                }
            }
            Formula::NotDivides(g, e) => {
                if negate {
                    Formula::Divides(*g, e.clone())
                } else {
                    Formula::NotDivides(*g, e.clone())
                }
            }
            Formula::And(fs) => {
                let inner = fs.iter().map(|f| f.to_nnf(negate)).collect();
                if negate {
                    Formula::Or(inner)
                } else {
                    Formula::And(inner)
                }
            }
            Formula::Or(fs) => {
                let inner = fs.iter().map(|f| f.to_nnf(negate)).collect();
                if negate {
                    Formula::And(inner)
                } else {
                    Formula::Or(inner)
                }
            }
            Formula::Not(f) => f.to_nnf(!negate),
            Formula::Exists(vs, f) => {
                let inner = Box::new(f.to_nnf(negate));
                if negate {
                    Formula::Forall(vs.clone(), inner)
                } else {
                    Formula::Exists(vs.clone(), inner)
                }
            }
            Formula::Forall(vs, f) => {
                let inner = Box::new(f.to_nnf(negate));
                if negate {
                    Formula::Exists(vs.clone(), inner)
                } else {
                    Formula::Forall(vs.clone(), inner)
                }
            }
        }
    }

    /// One past the highest column the formula mentions.
    fn width(&self) -> usize {
        match self {
            Formula::True | Formula::False => 0,
            Formula::Atom(c) => c.expr().coeffs().len(),
            Formula::Divides(_, e) | Formula::NotDivides(_, e) => e.coeffs().len(),
            Formula::And(fs) | Formula::Or(fs) => fs.iter().map(Formula::width).max().unwrap_or(0),
            Formula::Not(f) => f.width(),
            Formula::Exists(vs, f) | Formula::Forall(vs, f) => vs
                .iter()
                .map(|v| v.index() + 1)
                .max()
                .unwrap_or(0)
                .max(f.width()),
        }
    }

    /// The formula with every free occurrence of a `from` column replaced
    /// by its `to` column (the `to` columns must not occur in it).
    fn renamed(&self, map: &[(VarId, VarId)]) -> Formula {
        let expr = |e: &LinExpr| {
            let mut out = LinExpr::constant_expr(e.constant());
            for (v, c) in e.terms() {
                let v = map
                    .iter()
                    .find(|&&(from, _)| from == v)
                    .map_or(v, |&(_, to)| to);
                out.set_coef(v, c);
            }
            out
        };
        let scoped = |vs: &[VarId]| -> Vec<(VarId, VarId)> {
            map.iter()
                .copied()
                .filter(|(from, _)| !vs.contains(from))
                .collect()
        };
        match self {
            Formula::True => Formula::True,
            Formula::False => Formula::False,
            Formula::Atom(c) => {
                let e = expr(c.expr());
                let atom = match c.relation() {
                    Relation::Zero => Constraint::eq(e),
                    Relation::NonNegative => Constraint::geq(e),
                };
                Formula::Atom(atom.with_color(c.color()))
            }
            Formula::Divides(g, e) => Formula::Divides(*g, expr(e)),
            Formula::NotDivides(g, e) => Formula::NotDivides(*g, expr(e)),
            Formula::And(fs) => Formula::And(fs.iter().map(|f| f.renamed(map)).collect()),
            Formula::Or(fs) => Formula::Or(fs.iter().map(|f| f.renamed(map)).collect()),
            Formula::Not(f) => Formula::not(f.renamed(map)),
            Formula::Exists(vs, f) => Formula::exists(vs.clone(), f.renamed(&scoped(vs))),
            Formula::Forall(vs, f) => Formula::forall(vs.clone(), f.renamed(&scoped(vs))),
        }
    }
}

/// Recursion guard: the connective and quantifier nesting the search
/// follows before giving up with [`Error::TooDeep`].
const MAX_FORMULA_DEPTH: usize = 64;

/// What the search does with a satisfiable leaf: go on or stop.
type Visit<'v> = dyn FnMut(Problem, &mut Budget) -> Result<ControlFlow<()>> + 'v;

/// The conjuncts still to add on the current branch: a stack of sibling
/// slices, innermost first, each at its nesting depth.
struct Rest<'a> {
    items: &'a [Formula],
    depth: usize,
    next: Option<&'a Rest<'a>>,
}

/// One branch of the search: the conjunction of the alternatives chosen
/// so far.
#[derive(Clone)]
struct Branch {
    p: Problem,
    /// `p` passed a satisfiability check and has not grown since.
    checked: bool,
}

impl Branch {
    fn new(p: Problem) -> Self {
        Branch { p, checked: false }
    }

    fn add(&mut self, c: Constraint) {
        self.p.add_constraint(c);
        self.checked = false;
    }

    /// Whether the conjunction so far has an integer solution. A branch
    /// without one is pruned: adding conjuncts cannot revive it.
    fn alive(&mut self, budget: &mut Budget) -> Result<bool> {
        if !self.checked {
            self.checked = self.p.is_satisfiable_with(budget)?;
        }
        Ok(self.checked)
    }
}

/// Conjoins `f` (in NNF, at nesting `depth`) to `branch`, then the
/// pending conjuncts of `rest`.
fn search(
    f: &Formula,
    depth: usize,
    rest: Option<&Rest<'_>>,
    mut branch: Branch,
    budget: &mut Budget,
    visit: &mut Visit<'_>,
) -> Result<ControlFlow<()>> {
    if depth > MAX_FORMULA_DEPTH {
        return Err(Error::TooDeep {
            depth: MAX_FORMULA_DEPTH,
        });
    }
    match f {
        Formula::True => {}
        Formula::False => return Ok(ControlFlow::Continue(())),
        Formula::Atom(c) => branch.add(c.clone()),
        Formula::Divides(g, e) => match g.abs() {
            // 0 | e ≡ e = 0.
            0 => branch.add(Constraint::eq(e.clone())),
            1 => {}
            g => {
                // ∃α. e − g·α = 0
                let alpha = branch.p.add_wildcard();
                let mut eq = e.clone();
                eq.set_coef(alpha, -g);
                branch.add(Constraint::eq(eq));
            }
        },
        Formula::NotDivides(g, e) => match g.abs() {
            // 0 ∤ e ≡ e ≠ 0.
            0 => {
                let ne = Formula::eq0(e.clone()).to_nnf(true);
                return search(&ne, depth + 1, rest, branch, budget, visit);
            }
            // 1 divides everything.
            1 => return Ok(ControlFlow::Continue(())),
            g => {
                // ∃α,ρ. e = g·α + ρ ∧ 1 ≤ ρ ≤ g−1
                let alpha = branch.p.add_wildcard();
                let rho = branch.p.add_wildcard();
                let mut eq = e.clone();
                eq.set_coef(alpha, -g);
                eq.set_coef(rho, -1);
                branch.add(Constraint::eq(eq));
                branch.add(Constraint::geq(LinExpr::var(rho).plus_const(-1)));
                branch.add(Constraint::geq(LinExpr::term(-1, rho).plus_const(g - 1)));
            }
        },
        // The search runs on NNF, which has no bare negation; one that
        // appears anyway is renormalized.
        Formula::Not(g) => return search(&g.to_nnf(true), depth + 1, rest, branch, budget, visit),
        Formula::And(fs) => {
            let inner = Rest {
                items: fs,
                depth: depth + 1,
                next: rest,
            };
            return resume(Some(&inner), branch, budget, visit);
        }
        // A lone alternative is no choice.
        Formula::Or(fs) if fs.len() == 1 => {
            return search(&fs[0], depth + 1, rest, branch, budget, visit)
        }
        Formula::Or(fs) => {
            if !branch.alive(budget)? {
                return Ok(ControlFlow::Continue(()));
            }
            for alt in fs {
                budget.spend(1)?;
                budget.formula.branches += 1;
                if search(alt, depth + 1, rest, branch.clone(), budget, visit)?.is_break() {
                    return Ok(ControlFlow::Break(()));
                }
            }
            return Ok(ControlFlow::Continue(()));
        }
        Formula::Exists(vs, body) => {
            // The bound variables become fresh columns of this branch.
            let map: Vec<(VarId, VarId)> =
                vs.iter().map(|&v| (v, branch.p.add_wildcard())).collect();
            return search(&body.renamed(&map), depth + 1, rest, branch, budget, visit);
        }
        Formula::Forall(vs, body) => {
            if !branch.alive(budget)? {
                return Ok(ControlFlow::Continue(()));
            }
            // ∀x.f ≡ ¬∃x.¬f: the branch takes on the negation of every
            // projected piece of ∃x.¬f. A piece's columns outside the
            // kept ones are its own existentials.
            let width = branch.p.num_vars();
            let pieces = exists_pieces(vs, &body.to_nnf(true), &branch.p, depth + 1, budget)?;
            let negation = Formula::And(
                pieces
                    .iter()
                    .map(|p| {
                        Formula::from_problem_bound(p, |v| v.index() >= width || vs.contains(&v))
                            .to_nnf(true)
                    })
                    .collect(),
            );
            return search(&negation, depth + 1, rest, branch, budget, visit);
        }
    }
    resume(rest, branch, budget, visit)
}

/// Conjoins the next pending conjunct of `rest`, or hands a complete
/// branch to `visit` once nothing is pending.
fn resume(
    mut rest: Option<&Rest<'_>>,
    mut branch: Branch,
    budget: &mut Budget,
    visit: &mut Visit<'_>,
) -> Result<ControlFlow<()>> {
    while let Some(r) = rest {
        if let Some((first, items)) = r.items.split_first() {
            let tail = Rest {
                items,
                depth: r.depth,
                next: r.next,
            };
            return search(first, r.depth, Some(&tail), branch, budget, visit);
        }
        rest = r.next;
    }
    if branch.alive(budget)? {
        visit(branch.p, budget)
    } else {
        Ok(ControlFlow::Continue(()))
    }
}

/// The projected pieces of `∃vs. body` (`body` in NNF) over `base`'s
/// table: an exhaustive search of the body from an empty conjunction,
/// each satisfiable leaf projected onto `base`'s live columns outside
/// `vs` (splinters become extra pieces).
fn exists_pieces(
    vs: &[VarId],
    body: &Formula,
    base: &Problem,
    depth: usize,
    budget: &mut Budget,
) -> Result<Vec<Problem>> {
    let keep: Vec<VarId> = base
        .var_ids()
        .filter(|v| !vs.contains(v) && !base.is_dead(*v))
        .collect();
    let leaves = leaves(body, empty_over(base, body.width()), depth, budget)?;
    let mut pieces = Vec::new();
    for leaf in leaves {
        for piece in leaf.project_with(&keep, budget)?.into_problems() {
            if !piece.is_known_infeasible() {
                pieces.push(piece);
            }
        }
    }
    Ok(pieces)
}

/// Every satisfiable leaf of the search of `f` (in NNF, at nesting
/// `depth`) from the conjunction `start`.
fn leaves(f: &Formula, start: Problem, depth: usize, budget: &mut Budget) -> Result<Vec<Problem>> {
    let mut out = Vec::new();
    // The visitor never stops the search, so it always runs to the end.
    let _ = search(
        f,
        depth,
        None,
        Branch::new(start),
        budget,
        &mut |leaf, _| {
            out.push(leaf);
            Ok(ControlFlow::Continue(()))
        },
    )?;
    Ok(out)
}

/// An empty conjunction over `space`'s table, widened with wildcards to
/// at least `width` columns. A search starts from one as wide as its
/// formula, so the fresh columns a branch adds land past every column a
/// formula in it names: free columns are below the start's width, and a
/// `∀`'s bound columns live only in the sub-search that projects them
/// away.
fn empty_over(space: &Problem, width: usize) -> Problem {
    let mut p = space.clone();
    p.eqs.clear();
    p.geqs.clear();
    p.known_infeasible = false;
    if width > 0 {
        p.ensure_var(VarId::from_index(width - 1));
    }
    p
}

#[cfg(test)]
mod tests {
    use super::*;

    fn space_xy() -> (Problem, VarId, VarId) {
        let mut s = Problem::new();
        let x = s.add_var("x", VarKind::Input);
        let y = s.add_var("y", VarKind::Input);
        (s, x, y)
    }

    #[test]
    fn tautology_or() {
        // x >= 0 ∨ x <= 5 is valid.
        let (s, x, _) = space_xy();
        let f = Formula::or(vec![
            Formula::geq0(LinExpr::var(x)),
            Formula::geq0(LinExpr::term(-1, x).plus_const(5)),
        ]);
        let mut b = Budget::default();
        assert!(f.is_valid(&s, &mut b).unwrap());
    }

    #[test]
    fn non_tautology() {
        let (s, x, _) = space_xy();
        let f = Formula::geq0(LinExpr::var(x));
        let mut b = Budget::default();
        assert!(!f.is_valid(&s, &mut b).unwrap());
        assert!(f.is_satisfiable(&s, &mut b).unwrap());
    }

    #[test]
    fn negated_equality_splits() {
        // ¬(x == y) is satisfiable but not valid.
        let (s, x, y) = space_xy();
        let f = Formula::not(Formula::eq0(LinExpr::var(x).plus_term(-1, y)));
        let mut b = Budget::default();
        assert!(f.is_satisfiable(&s, &mut b).unwrap());
        assert!(!f.is_valid(&s, &mut b).unwrap());
    }

    #[test]
    fn exists_projection() {
        // ∃y. (x = 2y): x even. Satisfiable; not valid.
        let (s, x, y) = space_xy();
        let f = Formula::exists(
            vec![y],
            Formula::eq0(LinExpr::var(x).plus_term(-2, y)),
        );
        let mut b = Budget::default();
        assert!(f.is_satisfiable(&s, &mut b).unwrap());
        assert!(!f.is_valid(&s, &mut b).unwrap());
        // ∃y. x = 2y ∨ x = 2y + 1 is valid.
        let g = Formula::exists(
            vec![y],
            Formula::or(vec![
                Formula::eq0(LinExpr::var(x).plus_term(-2, y)),
                Formula::eq0(LinExpr::var(x).plus_term(-2, y).plus_const(-1)),
            ]),
        );
        assert!(g.is_valid(&s, &mut b).unwrap());
    }

    #[test]
    fn forall_exists_shape_from_paper() {
        // ∀x. (∃y. x = y): trivially valid.
        let (s, x, y) = space_xy();
        let f = Formula::forall(
            vec![x],
            Formula::exists(vec![y], Formula::eq0(LinExpr::var(x).plus_term(-1, y))),
        );
        let mut b = Budget::default();
        assert!(f.is_valid(&s, &mut b).unwrap());
    }

    #[test]
    fn implication_shape() {
        // ∀x. (x >= 5 ⇒ x >= 1) valid; converse invalid.
        let (s, x, _) = space_xy();
        let mut b = Budget::default();
        let f = Formula::geq0(LinExpr::var(x).plus_const(-5))
            .implies(Formula::geq0(LinExpr::var(x).plus_const(-1)));
        assert!(f.is_valid(&s, &mut b).unwrap());
        let g = Formula::geq0(LinExpr::var(x).plus_const(-1))
            .implies(Formula::geq0(LinExpr::var(x).plus_const(-5)));
        assert!(!g.is_valid(&s, &mut b).unwrap());
    }

    #[test]
    fn exists_implies_exists() {
        // ∀x. (∃y. 2y = x) ⇒ (∃z. 4z = x ∨ 4z + 2 = x): even numbers are
        // 0 or 2 mod 4 — valid.
        let mut s = Problem::new();
        let x = s.add_var("x", VarKind::Input);
        let y = s.add_var("y", VarKind::Input);
        let z = s.add_var("z", VarKind::Input);
        let even = Formula::exists(vec![y], Formula::eq0(LinExpr::var(x).plus_term(-2, y)));
        let mod4 = Formula::exists(
            vec![z],
            Formula::or(vec![
                Formula::eq0(LinExpr::var(x).plus_term(-4, z)),
                Formula::eq0(LinExpr::var(x).plus_term(-4, z).plus_const(-2)),
            ]),
        );
        let mut b = Budget::default();
        assert!(even.implies(mod4).is_valid(&s, &mut b).unwrap());
    }

    #[test]
    fn divisibility_existentials_get_their_own_columns() {
        // 2 | x ∧ 3 | y ∧ x = 2 ∧ y = 6 holds at (2, 6). Sharing one α
        // between the two atoms would demand x = 2α ∧ y = 3α: no solution.
        let (s, x, y) = space_xy();
        let f = Formula::and(vec![
            Formula::Divides(2, LinExpr::var(x)),
            Formula::Divides(3, LinExpr::var(y)),
            Formula::eq0(LinExpr::var(x).plus_const(-2)),
            Formula::eq0(LinExpr::var(y).plus_const(-6)),
        ]);
        assert!(f.is_satisfiable(&s, &mut Budget::default()).unwrap());
    }

    #[test]
    fn non_divisibility_existentials_get_their_own_columns() {
        // ¬(2 | x) ∧ ¬(4 | y) ∧ x = 1 ∧ y = 2 holds at (1, 2). Sharing α
        // and ρ would demand 1 = 2α + ρ ∧ 2 = 4α + ρ: no solution.
        let (s, x, y) = space_xy();
        let f = Formula::and(vec![
            Formula::not(Formula::Divides(2, LinExpr::var(x))),
            Formula::not(Formula::Divides(4, LinExpr::var(y))),
            Formula::eq0(LinExpr::var(x).plus_const(-1)),
            Formula::eq0(LinExpr::var(y).plus_const(-2)),
        ]);
        assert!(f.is_satisfiable(&s, &mut Budget::default()).unwrap());
    }

    #[test]
    fn search_counts_branches_and_stops_at_the_first_model() {
        // (x <= 0 ∨ x >= 5) ∧ (y <= 0 ∨ y >= 5): the first branch of each
        // disjunction is satisfiable, so two branches suffice.
        let (s, x, y) = space_xy();
        let split = |v| {
            Formula::or(vec![
                Formula::geq0(LinExpr::term(-1, v)),
                Formula::geq0(LinExpr::var(v).plus_const(-5)),
            ])
        };
        let mut b = Budget::default();
        assert!(Formula::and(vec![split(x), split(y)])
            .is_satisfiable(&s, &mut b)
            .unwrap());
        let stats = b.formula_stats();
        assert_eq!((stats.searches, stats.branches, stats.give_ups), (1, 2, 0));
    }

    #[test]
    fn nesting_guard_names_the_depth() {
        let (s, x, _) = space_xy();
        let mut f = Formula::geq0(LinExpr::var(x));
        for _ in 0..=MAX_FORMULA_DEPTH {
            f = Formula::and(vec![f]);
        }
        let mut b = Budget::default();
        let err = f.is_satisfiable(&s, &mut b).unwrap_err();
        assert_eq!(
            err,
            crate::Error::TooDeep {
                depth: MAX_FORMULA_DEPTH
            }
        );
        assert!(err.to_string().contains("nesting depth"));
        assert_eq!(b.formula_stats().give_ups, 1);
    }

    #[test]
    fn from_problem_roundtrip() {
        let (s, x, y) = space_xy();
        let mut p = s.clone();
        p.add_geq(LinExpr::var(x).plus_term(-1, y));
        p.add_eq(LinExpr::var(y).plus_const(-3));
        let f = Formula::from_problem(&p);
        let mut b = Budget::default();
        let dnf = f.dnf(&s, &mut b).unwrap();
        assert_eq!(dnf.len(), 1);
        for xv in 0..6 {
            for yv in 0..6 {
                assert_eq!(dnf[0].satisfies(&[xv, yv]), p.satisfies(&[xv, yv]));
            }
        }
    }
}

impl Formula {
    /// Renders the formula with variable names drawn from `space`.
    ///
    /// # Examples
    ///
    /// ```
    /// use omega::{Formula, LinExpr, Problem, VarKind};
    /// let mut s = Problem::new();
    /// let x = s.add_var("x", VarKind::Input);
    /// let y = s.add_var("y", VarKind::Input);
    /// let f = Formula::exists(vec![y], Formula::eq0(LinExpr::var(x).plus_term(-2, y)));
    /// assert_eq!(f.display(&s), "exists y: x - 2y = 0");
    /// ```
    pub fn display(&self, space: &Problem) -> String {
        match self {
            Formula::True => "TRUE".to_string(),
            Formula::False => "FALSE".to_string(),
            Formula::Atom(c) => space.constraint_to_string(c),
            Formula::Divides(g, e) => format!("{g} | ({})", space.expr_to_string(e)),
            Formula::NotDivides(g, e) => {
                format!("not {g} | ({})", space.expr_to_string(e))
            }
            Formula::And(fs) => join_with(fs, space, " and "),
            Formula::Or(fs) => join_with(fs, space, " or "),
            Formula::Not(f) => format!("not ({})", f.display(space)),
            Formula::Exists(vs, f) => {
                format!("exists {}: {}", var_list(vs, space), f.display(space))
            }
            Formula::Forall(vs, f) => {
                format!("forall {}: {}", var_list(vs, space), f.display(space))
            }
        }
    }
}

fn join_with(fs: &[Formula], space: &Problem, sep: &str) -> String {
    if fs.is_empty() {
        return "TRUE".to_string();
    }
    fs.iter()
        .map(|f| {
            let s = f.display(space);
            if matches!(f, Formula::And(_) | Formula::Or(_)) {
                format!("({s})")
            } else {
                s
            }
        })
        .collect::<Vec<_>>()
        .join(sep)
}

fn var_list(vs: &[VarId], space: &Problem) -> String {
    vs.iter()
        .map(|&v| space.var_info(v).name().to_string())
        .collect::<Vec<_>>()
        .join(",")
}

#[cfg(test)]
mod display_tests {
    use super::*;

    #[test]
    fn renders_nested_formulas() {
        let mut s = Problem::new();
        let x = s.add_var("x", VarKind::Input);
        let y = s.add_var("y", VarKind::Input);
        let f = Formula::forall(
            vec![x],
            Formula::or(vec![
                Formula::geq0(LinExpr::var(x)),
                Formula::exists(vec![y], Formula::eq0(LinExpr::var(x).plus_term(-3, y))),
            ]),
        );
        assert_eq!(
            f.display(&s),
            "forall x: x >= 0 or exists y: x - 3y = 0"
        );
        let d = Formula::Divides(4, LinExpr::var(x).plus_const(1));
        assert_eq!(d.display(&s), "4 | (x + 1)");
    }
}
