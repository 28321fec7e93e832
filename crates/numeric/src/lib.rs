//! # chora-numeric
//!
//! Exact arbitrary-precision arithmetic used throughout the CHORA analysis
//! stack: [`BigInt`] (sign–magnitude big integers) and [`BigRational`]
//! (always-normalized rationals).
//!
//! The original CHORA implementation relies on OCaml's `Zarith`; the paper's
//! polyhedra, recurrence solving, and abstraction algorithms all assume exact
//! rational arithmetic.  The Rust symbolic-math ecosystem is thin, and the
//! allowed dependency set does not include a bignum crate, so this crate
//! provides the substrate from scratch.
//!
//! ```
//! use chora_numeric::{BigInt, BigRational};
//!
//! let a = BigInt::from(1u64 << 40) * BigInt::from(1u64 << 40);
//! assert_eq!(a.to_string(), "1208925819614629174706176");
//!
//! let half = BigRational::new(BigInt::from(1), BigInt::from(2));
//! let third = BigRational::new(BigInt::from(1), BigInt::from(3));
//! assert_eq!((half + third).to_string(), "5/6");
//! ```

//! [`BigInt`] keeps small values (anything fitting an `i64`) in an inline
//! machine-word representation and only falls back to heap-allocated limb
//! vectors on overflow; see `bigint.rs` for the representation-independence
//! contract and [`stats`] for the (feature-gated) fast-path counters.

mod bigint;
pub mod linalg;
mod rational;
mod smallvec;
pub mod stats;

pub use bigint::{BigInt, ParseBigIntError, Sign};
pub use rational::BigRational;
pub use smallvec::SmallVec;

/// Convenience constructor: the rational `n/1`.
pub fn rat(n: i64) -> BigRational {
    BigRational::from_integer(BigInt::from(n))
}

/// Convenience constructor: the rational `n/d`.
///
/// # Panics
///
/// Panics if `d == 0`.
pub fn ratio(n: i64, d: i64) -> BigRational {
    BigRational::new(BigInt::from(n), BigInt::from(d))
}

/// Convenience constructor: the big integer `n`.
pub fn int(n: i64) -> BigInt {
    BigInt::from(n)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn helper_constructors() {
        assert_eq!(rat(3).to_string(), "3");
        assert_eq!(ratio(6, 4).to_string(), "3/2");
        assert_eq!(int(-7).to_string(), "-7");
    }

    /// Every coefficient row, polynomial term and atom embeds these types,
    /// and Fourier–Motzkin moves rows at every step: the boxed heap form
    /// keeps a `BigInt` two words wide and a `BigRational` four.
    #[test]
    fn layout_is_two_and_four_words() {
        assert_eq!(std::mem::size_of::<BigInt>(), 16);
        assert_eq!(std::mem::size_of::<BigRational>(), 32);
    }
}
