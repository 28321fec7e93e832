//! # chora-recurrence
//!
//! The recurrence-solving substrate of CHORA: C-finite recurrences and
//! *stratified systems of polynomial recurrences* (Defn. 3.2 of the paper),
//! solved into exponential-polynomial closed forms ([`chora_expr::ExpPoly`]).
//!
//! Height-based recurrence analysis (§4.1) extracts inequations of the form
//! `b_k(h+1) ≤ p_k(b_1(h), ..., b_n(h))`; after Alg. 3 selects a stratified
//! subset and takes the maximal solution, the resulting equation system is
//! handed to [`RecurrenceSystem::solve`], which returns the bounding
//! functions `b_k(h)` in closed form.
//!
//! ```
//! use chora_recurrence::RecurrenceSystem;
//! use chora_expr::{Polynomial, Symbol};
//! use chora_numeric::rat;
//!
//! // The Tower-of-Hanoi cost recurrence b(h+1) = 2·b(h) + 1 with b(1) = 0.
//! let mut sys = RecurrenceSystem::new();
//! let b_h = Polynomial::var(Symbol::bound_at_h(1));
//! sys.add_equation(1, &b_h.scale(&rat(2)) + &Polynomial::constant(rat(1)));
//! let solved = sys.solve().unwrap();
//! // b(h) = 2^(h-1) - 1
//! assert_eq!(solved[0].closed_form.eval_int(5), rat(15));
//! ```

mod solver;
mod symbolic;

pub use solver::{RecEquation, RecurrenceSystem, SolveError, SolvedBound};
pub use symbolic::{height_symbol, SymbolicInitialSolution};
