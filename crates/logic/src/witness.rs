//! Witness search for emptiness checks: an exact general simplex.
//!
//! [`has_witness`] looks for a rational point satisfying every row of a
//! linearized constraint system (`expr ◇ 0`, as [`crate::Polyhedron`]'s
//! `Linearized` view holds them).  It is the arithmetic core of Dutertre &
//! de Moura's "A Fast Linear-Arithmetic Solver for DPLL(T)" (CAV 2006), the
//! procedure Z3 — and so the original CHORA — decides linear arithmetic
//! with:
//!
//! * every dimension is a free variable, and each row `L + c ◇ 0` gets a
//!   slack `s = L` bounded by its constant: `≤` sets `s ≤ −c`, `<` sets
//!   `s ≤ −c − δ`, and `=` sets both `s ≥ −c` and `s ≤ −c`;
//! * values are delta-rationals `c + k·δ`, δ a positive infinitesimal,
//!   compared lexicographically, so strict bounds need no special case;
//! * the tableau is sparse: each basic variable's row is a vector of
//!   `(variable, coefficient)` pairs sorted by variable;
//! * Bland's rule — repair the least basic variable outside its bounds,
//!   pivoting with the least nonbasic variable that can move it — makes
//!   the search terminate without a pivot cap.
//!
//! Before building a tableau the search tries the origin, which answers a
//! good share of the questions with no allocation.
//!
//! **Why the caller stays exact.**  A point found here satisfies every row,
//! so the linear relaxation is non-empty.  Fourier–Motzkin elimination only
//! ever derives nonnegative combinations of the rows, and its budget and
//! pruning only ever drop rows, so every row it holds is satisfied by the
//! same point and it can never report that system empty.  Answering
//! "non-empty" on a witness therefore gives the elimination's own answer.
//! The converse does not hold — a budget-relaxed elimination may find a
//! system non-empty that has no witness — so the search never answers
//! "empty": without a witness the caller runs the elimination as before.

use crate::atom::AtomKind;
use chora_expr::{LinearExpr, Symbol};
use chora_numeric::BigRational;

/// A delta-rational `c + k·δ`.  The derived order compares `c` first, then
/// `k`: the order of the values for every small enough positive δ.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord)]
struct Delta {
    c: BigRational,
    k: BigRational,
}

impl Delta {
    fn zero() -> Delta {
        Delta {
            c: BigRational::zero(),
            k: BigRational::zero(),
        }
    }

    /// `self += other · by`.
    fn add_scaled(&mut self, other: &Delta, by: &BigRational) {
        self.c += &(&other.c * by);
        self.k += &(&other.k * by);
    }
}

/// A sparse linear combination of tableau variables, sorted by variable.
type Row = Vec<(usize, BigRational)>;

/// The simplex state: `basic[r] = Σ rows[r]`, over the nonbasic variables.
/// Variables `0..n` are the system's dimensions (free), `n..n + m` the
/// slacks of its `m` rows (bounded).  Every nonbasic variable stays within
/// its bounds; basic ones are repaired by pivoting.
struct Tableau {
    rows: Vec<Row>,
    basic: Vec<usize>,
    value: Vec<Delta>,
    lower: Vec<Option<Delta>>,
    upper: Vec<Option<Delta>>,
}

/// Whether some rational point satisfies every `expr ◇ 0` row.  `false`
/// means no point does (the search is complete over the rationals), but
/// callers answer "empty" only from Fourier–Motzkin (see the module doc).
pub(crate) fn has_witness(rows: &[(LinearExpr, AtomKind)]) -> bool {
    // With every dimension at zero, a row `L + c ◇ 0` reads `c ◇ 0`.
    if rows.iter().all(|(e, kind)| kind.holds(e.constant_term())) {
        return true;
    }
    Tableau::new(rows).feasible()
}

impl Tableau {
    fn new(system: &[(LinearExpr, AtomKind)]) -> Tableau {
        let mut dims: Vec<Symbol> = system
            .iter()
            .flat_map(|(e, _)| e.coefficients().map(|(s, _)| *s))
            .collect();
        dims.sort_unstable();
        dims.dedup();
        let n = dims.len();
        let vars = n + system.len();
        let mut tableau = Tableau {
            rows: Vec::with_capacity(system.len()),
            basic: Vec::with_capacity(system.len()),
            value: vec![Delta::zero(); vars],
            lower: vec![None; vars],
            upper: vec![None; vars],
        };
        for (r, (expr, kind)) in system.iter().enumerate() {
            // Coefficients come sorted by symbol and `dims` is sorted, so
            // the mapped row is sorted by variable.
            let row: Row = expr
                .coefficients()
                .map(|(s, a)| {
                    let x = dims.binary_search(s).expect("dims lists every symbol");
                    (x, a.clone())
                })
                .collect();
            let slack = n + r;
            let bound = Delta {
                c: -expr.constant_term().clone(),
                k: if *kind == AtomKind::Lt {
                    -BigRational::one()
                } else {
                    BigRational::zero()
                },
            };
            if *kind == AtomKind::Eq {
                tableau.lower[slack] = Some(bound.clone());
            }
            tableau.upper[slack] = Some(bound);
            tableau.rows.push(row);
            tableau.basic.push(slack);
        }
        tableau
    }

    fn below_lower(&self, x: usize) -> bool {
        self.lower[x].as_ref().is_some_and(|l| self.value[x] < *l)
    }

    fn above_upper(&self, x: usize) -> bool {
        self.upper[x].as_ref().is_some_and(|u| self.value[x] > *u)
    }

    /// Runs the check loop to a verdict: `true` when every variable sits
    /// within its bounds, `false` when a violated row admits no pivot.
    fn feasible(&mut self) -> bool {
        loop {
            // The least basic variable outside its bounds (Bland).
            let mut pick: Option<(usize, usize, bool)> = None;
            for (r, &b) in self.basic.iter().enumerate() {
                if pick.is_some_and(|(least, _, _)| least < b) {
                    continue;
                }
                let below = self.below_lower(b);
                if below || self.above_upper(b) {
                    pick = Some((b, r, below));
                }
            }
            let Some((b, r, below)) = pick else {
                return true;
            };
            // The least nonbasic variable that can move `b` toward the
            // violated bound: raise it when its coefficient's sign agrees
            // with the direction `b` must go, lower it otherwise.
            let entering = self.rows[r].iter().find(|(x, a)| {
                if a.is_positive() == below {
                    self.upper[*x].as_ref().is_none_or(|u| self.value[*x] < *u)
                } else {
                    self.lower[*x].as_ref().is_none_or(|l| self.value[*x] > *l)
                }
            });
            let Some((e, a)) = entering else {
                return false;
            };
            let (e, a) = (*e, a.clone());
            let target = if below {
                &self.lower[b]
            } else {
                &self.upper[b]
            }
            .clone()
            .expect("a violated bound exists");
            self.pivot_and_update(r, e, &a, target);
        }
    }

    /// Moves basic variable `basic[r]` to `target` by changing nonbasic `e`
    /// (its coefficient in row `r` is `a`), then swaps the two: `e` becomes
    /// basic in row `r`.
    fn pivot_and_update(&mut self, r: usize, e: usize, a: &BigRational, target: Delta) {
        let b = self.basic[r];
        let inv = a.recip();
        // θ = (target − value[b]) / a
        let theta = Delta {
            c: &(&target.c - &self.value[b].c) * &inv,
            k: &(&target.k - &self.value[b].k) * &inv,
        };
        self.value[b] = target;
        self.value[e].add_scaled(&theta, &BigRational::one());
        // b = a·e + Σ cₓ·x  ⇒  e = b/a − Σ (cₓ/a)·x
        let neg_inv = -inv.clone();
        let mut solved: Row = std::mem::take(&mut self.rows[r])
            .into_iter()
            .filter(|(x, _)| *x != e)
            .map(|(x, c)| (x, &c * &neg_inv))
            .collect();
        solved.push((b, inv));
        solved.sort_unstable_by_key(|(x, _)| *x);
        for r2 in 0..self.rows.len() {
            if r2 == r {
                continue;
            }
            let Ok(at) = self.rows[r2].binary_search_by_key(&e, |(x, _)| *x) else {
                continue;
            };
            let a2 = self.rows[r2][at].1.clone();
            self.value[self.basic[r2]].add_scaled(&theta, &a2);
            self.rows[r2] = substitute(&self.rows[r2], e, &solved, &a2);
        }
        self.rows[r] = solved;
        self.basic[r] = e;
    }
}

/// `row` with variable `e` (coefficient `a`) replaced by `a · solved`:
/// a linear merge of two sorted rows that drops zero coefficients.
fn substitute(row: &Row, e: usize, solved: &Row, a: &BigRational) -> Row {
    let mut out: Row = Vec::with_capacity(row.len() + solved.len());
    let mut rest = row.iter().filter(|(x, _)| *x != e).peekable();
    let mut add = solved.iter().peekable();
    loop {
        match (rest.peek(), add.peek()) {
            (Some((x, c)), Some((y, d))) if x == y => {
                let sum = c + &(d * a);
                if !sum.is_zero() {
                    out.push((*x, sum));
                }
                rest.next();
                add.next();
            }
            (Some((x, c)), Some((y, _))) if x < y => {
                out.push((*x, c.clone()));
                rest.next();
            }
            (Some((x, c)), None) => {
                out.push((*x, c.clone()));
                rest.next();
            }
            (_, Some((y, d))) => {
                out.push((*y, d * a));
                add.next();
            }
            (None, None) => return out,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chora_numeric::rat;

    fn row(coeffs: &[(&str, i64)], constant: i64, kind: AtomKind) -> (LinearExpr, AtomKind) {
        let expr = LinearExpr::from_parts(
            coeffs.iter().map(|(s, c)| (Symbol::new(s), rat(*c))),
            rat(constant),
        );
        (expr, kind)
    }

    #[test]
    fn strict_rows_that_meet_only_at_the_origin_have_no_witness() {
        // x < 0 ∧ x > 0, i.e. x < 0 ∧ −x < 0
        let rows = [
            row(&[("x", 1)], 0, AtomKind::Lt),
            row(&[("x", -1)], 0, AtomKind::Lt),
        ];
        assert!(!has_witness(&rows));
    }

    #[test]
    fn open_interval_has_a_witness() {
        // x > 0 ∧ x < 1: the origin fails the first row, so the tableau
        // must place x strictly inside the interval.
        let rows = [
            row(&[("x", -1)], 0, AtomKind::Lt),
            row(&[("x", 1)], -1, AtomKind::Lt),
        ];
        assert!(has_witness(&rows));
    }

    #[test]
    fn strict_sum_at_its_lower_corner_has_no_witness() {
        // x + y < 2 ∧ x ≥ 1 ∧ y ≥ 1: the only candidate x = y = 1 sits on
        // the strict row's boundary.
        let rows = [
            row(&[("x", 1), ("y", 1)], -2, AtomKind::Lt),
            row(&[("x", -1)], 1, AtomKind::Le),
            row(&[("y", -1)], 1, AtomKind::Le),
        ];
        assert!(!has_witness(&rows));
        // Relaxed to x + y ≤ 2 the corner is a witness.
        let relaxed = [
            row(&[("x", 1), ("y", 1)], -2, AtomKind::Le),
            rows[1].clone(),
            rows[2].clone(),
        ];
        assert!(has_witness(&relaxed));
    }

    #[test]
    fn infeasible_chain_of_equations_has_no_witness() {
        // x = y + 1 ∧ y = z + 1 ∧ z = x + 1
        let rows = [
            row(&[("x", 1), ("y", -1)], -1, AtomKind::Eq),
            row(&[("y", 1), ("z", -1)], -1, AtomKind::Eq),
            row(&[("z", 1), ("x", -1)], -1, AtomKind::Eq),
        ];
        assert!(!has_witness(&rows));
        // Closing the chain with z = x − 2 makes it consistent.
        let consistent = [
            rows[0].clone(),
            rows[1].clone(),
            row(&[("z", 1), ("x", -1)], 2, AtomKind::Eq),
        ];
        assert!(has_witness(&consistent));
    }

    #[test]
    fn origin_answers_without_a_tableau() {
        assert!(has_witness(&[]));
        assert!(has_witness(&[
            row(&[("x", 1)], 0, AtomKind::Le),
            row(&[("x", 1), ("y", 2)], -3, AtomKind::Lt),
            row(&[("y", 1)], 0, AtomKind::Eq),
        ]));
    }
}
