//! # chora-logic
//!
//! The symbolic-abstraction substrate of the CHORA analysis:
//!
//! * [`Atom`] — polynomial (in)equations `p ◇ 0`,
//! * [`Polyhedron`] — conjunctions of atoms with exact-rational domain
//!   operations (satisfiability, Fourier–Motzkin projection, convex-hull
//!   join, entailment), with non-linear monomials handled by linearization
//!   into extra dimensions as in [25, Alg. 3]; emptiness is answered by a
//!   simplex search for a witness point, with Fourier–Motzkin elimination
//!   deciding every system that has none,
//! * [`TransitionFormula`] — bounded-DNF relations between pre-state and
//!   post-state, the representation on which procedure summaries, the
//!   hypothetical summaries of Alg. 2, and the depth-bounding model of
//!   Alg. 4 are all built,
//! * [`EmptinessMemo`] — a per-run, per-thread memo of emptiness decisions
//!   that an analysis run opens so repeated Fourier–Motzkin checks of the
//!   same atom list are answered once.
//!
//! In the original CHORA implementation these roles are played by Z3 plus the
//! SRK/duet wedge domain; here they are built from scratch on exact rational
//! arithmetic.  The substitution keeps every answer sound and may only lose
//! precision:
//!
//! * emptiness and entailment are decided over the rationals, a relaxation
//!   of the programs' integer semantics: a conjunction with no rational
//!   point has no integer point, so "empty" and "implied" stay true, while
//!   some facts that hold only over the integers go unproved;
//! * a non-linear monomial becomes a dimension of its own, so each
//!   polyhedron over-approximates the polynomial set it stands for; what is
//!   given up is the wedge domain's non-linear reasoning (for instance
//!   `x² ≥ 0`);
//! * projection and convex hull are exact over the linearized space, except
//!   where the Fourier–Motzkin constraint budget drops constraints, which
//!   again only weakens the result.
//!
//! ```
//! use chora_logic::{Atom, TransitionFormula};
//! use chora_expr::{Polynomial, Symbol};
//! use chora_numeric::rat;
//!
//! // nTicks' = nTicks + 1  composed with  nTicks' = nTicks + 1
//! let n = Symbol::new("nTicks");
//! let vars = vec![n.clone()];
//! let tick = TransitionFormula::assign(
//!     &n,
//!     &(&Polynomial::var(n.clone()) + &Polynomial::constant(rat(1))),
//!     &vars,
//! );
//! let two_ticks = tick.sequence(&tick, &vars);
//! assert!(two_ticks.implies_atom(&Atom::eq(
//!     Polynomial::var(n.primed()),
//!     &Polynomial::var(n.clone()) + &Polynomial::constant(rat(2)),
//! )));
//! ```

mod atom;
mod memo;
mod polyhedron;
pub mod stats;
mod transition;
mod witness;

pub use atom::{Atom, AtomKind};
pub use memo::EmptinessMemo;
pub use polyhedron::Polyhedron;
pub use transition::{TransitionFormula, DEFAULT_DISJUNCT_CAP};
