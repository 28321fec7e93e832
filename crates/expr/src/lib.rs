//! # chora-expr
//!
//! Symbolic expression substrate for the CHORA analysis stack:
//!
//! * [`Symbol`] — interned `u32` identifiers with the pre/post-state and
//!   bounding-function conventions encoded structurally in the id space
//!   (see [`SymbolKind`]); fresh temporaries come from a per-analysis
//!   [`FreshSource`],
//! * [`LinearExpr`] — affine expressions over ℚ (the constraint language of
//!   the polyhedra domain),
//! * [`Polynomial`] / [`Monomial`] — multivariate polynomials over ℚ (the
//!   paper's *relational expressions*, §3),
//! * [`ExpPoly`] — exponential-polynomial closed forms of one parameter (the
//!   solution class of C-finite recurrences, §3),
//! * [`Term`] — a small symbolic bound language with `pow`, `log2`, and
//!   `max`, used for final procedure summaries and complexity reports,
//! * [`Fingerprint`] / [`FingerprintBuilder`] — the stable 128-bit FNV-1a
//!   content hash behind the summary-cache keys.
//!
//! ```
//! use chora_expr::{ExpPoly, Symbol, Term};
//! use chora_numeric::rat;
//!
//! // The Tower-of-Hanoi bounding function b(h) = 2^h - 1 ...
//! let h = Symbol::height();
//! let b = ExpPoly::exponential(rat(2), &h).add(&ExpPoly::constant(rat(-1), &h));
//! // ... instantiated with the depth bound h = n gives the familiar 2^n - 1.
//! let bound = b.to_term_with_param(&Term::var(Symbol::new("n")));
//! assert_eq!(bound.to_string(), "2^n - 1");
//! ```

mod exppoly;
pub mod fingerprint;
mod linear;
mod merge;
mod polynomial;
mod scc;
mod symbol;
mod term;

pub use exppoly::ExpPoly;
pub use fingerprint::{Fingerprint, FingerprintBuilder};
pub use linear::LinearExpr;
pub use polynomial::{Monomial, Polynomial};
pub use scc::strongly_connected_components;
pub use symbol::{
    FreshSource, Symbol, SymbolKind, MAX_FRESH_SCOPE, MAX_FRESH_SERIAL, MAX_SYMBOL_PAYLOAD,
};
pub use term::Term;
