//! Sign–magnitude arbitrary-precision integers with an inline small form.
//!
//! A [`BigInt`] is either `Small(i64)` — a machine word, no allocation — or a
//! boxed heap form: a little-endian vector of 32-bit limbs with no trailing
//! zero limbs plus a [`Sign`] (zero is the empty limb vector with
//! [`Sign::Zero`]).  Boxing the heap form keeps a `BigInt` two words wide
//! (16 bytes, a `BigRational` 32), so the coefficient rows the analysis
//! moves around stay small; the rare overflow value pays one pointer hop.
//! Almost every coefficient the CHORA analysis manipulates fits in a word,
//! so all arithmetic first tries a checked-`i64` fast path, *promotes* to the
//! heap form only when a result overflows, and *demotes* heap results that
//! fit back into the inline form.
//!
//! **Representation independence:** a value reachable as both `Small` and
//! heap (e.g. via [`BigInt::forced_heap`]) compares (`Eq`/`Ord`) and hashes
//! identically in either form.  Summaries are content-fingerprinted and
//! cached on disk, so this invariant is load-bearing — it is enforced by
//! value-based `PartialEq`/`Ord` impls and a `Hash` impl over the canonical
//! `(sign, limbs)` pair, and checked by differential property tests.

use crate::stats::numeric_stat;
use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::{Add, AddAssign, Div, Mul, MulAssign, Neg, Rem, Sub, SubAssign};
use std::str::FromStr;

/// Sign of a [`BigInt`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Sign {
    /// Strictly negative.
    Negative,
    /// Exactly zero.
    Zero,
    /// Strictly positive.
    Positive,
}

impl Sign {
    fn flip(self) -> Sign {
        match self {
            Sign::Negative => Sign::Positive,
            Sign::Zero => Sign::Zero,
            Sign::Positive => Sign::Negative,
        }
    }

    fn of_i64(v: i64) -> Sign {
        match v.cmp(&0) {
            Ordering::Less => Sign::Negative,
            Ordering::Equal => Sign::Zero,
            Ordering::Greater => Sign::Positive,
        }
    }
}

/// An arbitrary-precision signed integer.
///
/// ```
/// use chora_numeric::BigInt;
/// let a: BigInt = "123456789012345678901234567890".parse().unwrap();
/// let b = BigInt::from(3);
/// assert_eq!((&a * &b).to_string(), "370370367037037036703703703670");
/// ```
#[derive(Clone)]
pub struct BigInt {
    repr: Repr,
}

#[derive(Clone)]
enum Repr {
    /// Inline machine-word form; the common case, never allocates.
    Small(i64),
    /// The overflow form, boxed so the enum stays two words wide.
    Heap(Box<HeapInt>),
}

/// Sign–magnitude limbs of a heap-form [`BigInt`].
#[derive(Clone)]
struct HeapInt {
    /// `Sign::Zero` iff `mag` is empty.
    sign: Sign,
    /// Little-endian 32-bit limbs, no trailing zeros.
    mag: Vec<u32>,
}

/// The (at most two) limbs of an `i64` magnitude, stack-allocated.
#[derive(Clone, Copy)]
struct SmallLimbs {
    buf: [u32; 2],
    len: usize,
}

impl SmallLimbs {
    #[inline]
    fn of(v: i64) -> SmallLimbs {
        let u = v.unsigned_abs();
        SmallLimbs {
            buf: [u as u32, (u >> 32) as u32],
            len: if u == 0 {
                0
            } else if u >> 32 == 0 {
                1
            } else {
                2
            },
        }
    }

    #[inline]
    fn as_slice(&self) -> &[u32] {
        &self.buf[..self.len]
    }
}

/// A borrowed or inline view of a magnitude, so heap algorithms can run on
/// either representation without allocating.
enum LimbView<'a> {
    Inline(SmallLimbs),
    Slice(&'a [u32]),
}

impl LimbView<'_> {
    #[inline]
    fn as_slice(&self) -> &[u32] {
        match self {
            LimbView::Inline(s) => s.as_slice(),
            LimbView::Slice(s) => s,
        }
    }
}

impl BigInt {
    /// The integer zero (allocation-free).
    #[inline]
    pub fn zero() -> BigInt {
        BigInt::make_small(0)
    }

    /// The integer one (allocation-free).
    #[inline]
    pub fn one() -> BigInt {
        BigInt::make_small(1)
    }

    /// Builds the heap form from already-trimmed limbs (no demotion).
    #[inline]
    fn heap(sign: Sign, mag: Vec<u32>) -> BigInt {
        BigInt {
            repr: Repr::Heap(Box::new(HeapInt { sign, mag })),
        }
    }

    /// The heap form of an `i64`, however small.
    fn heap_of_i64(v: i64) -> BigInt {
        BigInt::heap(Sign::of_i64(v), SmallLimbs::of(v).as_slice().to_vec())
    }

    /// Builds the inline form — or, under the benchmarking forced-heap mode,
    /// the equivalent heap form.
    #[inline]
    fn make_small(v: i64) -> BigInt {
        if crate::stats::force_heap() {
            return BigInt::heap_of_i64(v);
        }
        BigInt {
            repr: Repr::Small(v),
        }
    }

    /// The inline value, if this integer is in the inline representation.
    /// (Heap-held values return `None` even when they would fit — dispatch
    /// is by representation, conversion is [`BigInt::to_i64`].)  Callers
    /// with a machine-word path of their own take values through this, so
    /// [`crate::stats::set_force_heap`] still sends them to heap arithmetic.
    #[inline]
    pub fn as_small(&self) -> Option<i64> {
        match self.repr {
            Repr::Small(v) => Some(v),
            Repr::Heap(..) => None,
        }
    }

    /// A copy of this value in the heap representation, even when it fits
    /// inline.  Exposed for the differential representation-independence
    /// tests; arithmetic on the result exercises the limb paths (results
    /// still demote as usual).
    pub fn forced_heap(&self) -> BigInt {
        match &self.repr {
            Repr::Small(v) => BigInt::heap_of_i64(*v),
            Repr::Heap(..) => self.clone(),
        }
    }

    /// Returns `true` iff `self == 0`.
    #[inline]
    pub fn is_zero(&self) -> bool {
        match &self.repr {
            Repr::Small(v) => *v == 0,
            Repr::Heap(h) => h.sign == Sign::Zero,
        }
    }

    /// Returns `true` iff `self == 1`.
    #[inline]
    pub fn is_one(&self) -> bool {
        match &self.repr {
            Repr::Small(v) => *v == 1,
            Repr::Heap(h) => h.sign == Sign::Positive && h.mag == [1],
        }
    }

    /// Returns the sign of the integer.
    #[inline]
    pub fn sign(&self) -> Sign {
        match &self.repr {
            Repr::Small(v) => Sign::of_i64(*v),
            Repr::Heap(h) => h.sign,
        }
    }

    /// Returns `true` iff `self > 0`.
    #[inline]
    pub fn is_positive(&self) -> bool {
        self.sign() == Sign::Positive
    }

    /// Returns `true` iff `self < 0`.
    #[inline]
    pub fn is_negative(&self) -> bool {
        self.sign() == Sign::Negative
    }

    /// Absolute value.
    #[inline]
    pub fn abs(&self) -> BigInt {
        match &self.repr {
            Repr::Small(v) => match v.checked_abs() {
                Some(a) => BigInt::make_small(a),
                // |i64::MIN| = 2^63 does not fit in i64.
                None => BigInt::from_i128(-(i64::MIN as i128)),
            },
            Repr::Heap(h) => BigInt::heap(
                if h.sign == Sign::Negative {
                    Sign::Positive
                } else {
                    h.sign
                },
                h.mag.clone(),
            ),
        }
    }

    /// The canonical `(sign, limbs)` view of either representation.
    #[inline]
    fn parts(&self) -> (Sign, LimbView<'_>) {
        match &self.repr {
            Repr::Small(v) => (Sign::of_i64(*v), LimbView::Inline(SmallLimbs::of(*v))),
            Repr::Heap(h) => (h.sign, LimbView::Slice(&h.mag)),
        }
    }

    /// Builds from a (possibly untrimmed) limb vector, demoting to the inline
    /// form when the value fits in an `i64`.
    fn from_mag(sign: Sign, mut mag: Vec<u32>) -> BigInt {
        while let Some(&0) = mag.last() {
            mag.pop();
        }
        if !crate::stats::force_heap() {
            if let Some(v) = small_from_parts(sign, &mag) {
                if !mag.is_empty() {
                    numeric_stat!(DEMOTIONS);
                }
                return BigInt {
                    repr: Repr::Small(v),
                };
            }
        }
        let sign = if mag.is_empty() { Sign::Zero } else { sign };
        BigInt::heap(sign, mag)
    }

    /// Builds from an `i128` (covers every possible overflow of an
    /// `i64 ± / × i64` fast path).
    pub(crate) fn from_i128(v: i128) -> BigInt {
        if let Ok(small) = i64::try_from(v) {
            return BigInt::make_small(small);
        }
        let sign = if v < 0 {
            Sign::Negative
        } else {
            Sign::Positive
        };
        let mut u = v.unsigned_abs();
        let mut mag = Vec::with_capacity(4);
        while u != 0 {
            mag.push(u as u32);
            u >>= 32;
        }
        BigInt::from_mag(sign, mag)
    }

    fn from_u128(v: u128) -> BigInt {
        if let Ok(small) = i64::try_from(v) {
            return BigInt::make_small(small);
        }
        let mut u = v;
        let mut mag = Vec::with_capacity(4);
        while u != 0 {
            mag.push(u as u32);
            u >>= 32;
        }
        BigInt::from_mag(Sign::Positive, mag)
    }

    /// Number of significant bits in the magnitude (`0` for zero).
    pub fn bit_len(&self) -> usize {
        match &self.repr {
            Repr::Small(v) => (64 - v.unsigned_abs().leading_zeros()) as usize,
            Repr::Heap(h) => match h.mag.last() {
                None => 0,
                Some(&top) => (h.mag.len() - 1) * 32 + (32 - top.leading_zeros() as usize),
            },
        }
    }

    fn mag_cmp(a: &[u32], b: &[u32]) -> Ordering {
        if a.len() != b.len() {
            return a.len().cmp(&b.len());
        }
        for i in (0..a.len()).rev() {
            match a[i].cmp(&b[i]) {
                Ordering::Equal => continue,
                o => return o,
            }
        }
        Ordering::Equal
    }

    fn mag_add(a: &[u32], b: &[u32]) -> Vec<u32> {
        let (long, short) = if a.len() >= b.len() { (a, b) } else { (b, a) };
        let mut out = Vec::with_capacity(long.len() + 1);
        let mut carry: u64 = 0;
        for (i, &digit) in long.iter().enumerate() {
            let s = digit as u64 + short.get(i).copied().unwrap_or(0) as u64 + carry;
            out.push(s as u32);
            carry = s >> 32;
        }
        if carry != 0 {
            out.push(carry as u32);
        }
        out
    }

    /// Requires `a >= b` (by magnitude).
    fn mag_sub(a: &[u32], b: &[u32]) -> Vec<u32> {
        debug_assert!(Self::mag_cmp(a, b) != Ordering::Less);
        let mut out = Vec::with_capacity(a.len());
        let mut borrow: i64 = 0;
        for (i, &digit) in a.iter().enumerate() {
            let d = digit as i64 - b.get(i).copied().unwrap_or(0) as i64 - borrow;
            if d < 0 {
                out.push((d + (1i64 << 32)) as u32);
                borrow = 1;
            } else {
                out.push(d as u32);
                borrow = 0;
            }
        }
        debug_assert_eq!(borrow, 0);
        while let Some(&0) = out.last() {
            out.pop();
        }
        out
    }

    fn mag_mul(a: &[u32], b: &[u32]) -> Vec<u32> {
        if a.is_empty() || b.is_empty() {
            return Vec::new();
        }
        let mut out = vec![0u32; a.len() + b.len()];
        for (i, &ai) in a.iter().enumerate() {
            if ai == 0 {
                continue;
            }
            let mut carry: u64 = 0;
            for (j, &bj) in b.iter().enumerate() {
                let cur = out[i + j] as u64 + ai as u64 * bj as u64 + carry;
                out[i + j] = cur as u32;
                carry = cur >> 32;
            }
            let mut k = i + b.len();
            while carry != 0 {
                let cur = out[k] as u64 + carry;
                out[k] = cur as u32;
                carry = cur >> 32;
                k += 1;
            }
        }
        while let Some(&0) = out.last() {
            out.pop();
        }
        out
    }

    /// Shift magnitude left by `bits` bits.
    fn mag_shl(a: &[u32], bits: usize) -> Vec<u32> {
        if a.is_empty() {
            return Vec::new();
        }
        let limb_shift = bits / 32;
        let bit_shift = bits % 32;
        let mut out = vec![0u32; limb_shift];
        if bit_shift == 0 {
            out.extend_from_slice(a);
        } else {
            let mut carry = 0u32;
            for &x in a {
                out.push((x << bit_shift) | carry);
                carry = x >> (32 - bit_shift);
            }
            if carry != 0 {
                out.push(carry);
            }
        }
        while let Some(&0) = out.last() {
            out.pop();
        }
        out
    }

    /// Long division of magnitudes: returns `(quotient, remainder)`.
    ///
    /// Uses a fast path for single-limb divisors and bit-by-bit schoolbook
    /// division otherwise; operand sizes in the analysis are small enough
    /// that the simpler algorithm is preferable to Knuth's Algorithm D.
    fn mag_divmod(a: &[u32], b: &[u32]) -> (Vec<u32>, Vec<u32>) {
        assert!(!b.is_empty(), "division by zero");
        if Self::mag_cmp(a, b) == Ordering::Less {
            return (Vec::new(), a.to_vec());
        }
        if b.len() == 1 {
            let d = b[0] as u64;
            let mut q = vec![0u32; a.len()];
            let mut rem: u64 = 0;
            for i in (0..a.len()).rev() {
                let cur = (rem << 32) | a[i] as u64;
                q[i] = (cur / d) as u32;
                rem = cur % d;
            }
            while let Some(&0) = q.last() {
                q.pop();
            }
            let r = if rem == 0 {
                Vec::new()
            } else {
                vec![rem as u32]
            };
            return (q, r);
        }
        // Bit-by-bit long division.
        let a_bits = (a.len() - 1) * 32 + (32 - a.last().unwrap().leading_zeros() as usize);
        let b_bits = (b.len() - 1) * 32 + (32 - b.last().unwrap().leading_zeros() as usize);
        let mut rem: Vec<u32> = Vec::new();
        let mut quot = vec![0u32; a.len()];
        let mut shift = a_bits - b_bits;
        let mut shifted = Self::mag_shl(b, shift);
        // Initialize remainder to a.
        rem.extend_from_slice(a);
        while let Some(&0) = rem.last() {
            rem.pop();
        }
        loop {
            if Self::mag_cmp(&rem, &shifted) != Ordering::Less {
                rem = Self::mag_sub(&rem, &shifted);
                quot[shift / 32] |= 1 << (shift % 32);
            }
            if shift == 0 {
                break;
            }
            shift -= 1;
            shifted = Self::mag_shl(b, shift);
        }
        while let Some(&0) = quot.last() {
            quot.pop();
        }
        (quot, rem)
    }

    /// Truncating division with remainder: `self = q * other + r` where
    /// `|r| < |other|` and `r` has the sign of `self` (C-style semantics).
    ///
    /// # Panics
    ///
    /// Panics if `other == 0`.
    pub fn div_rem(&self, other: &BigInt) -> (BigInt, BigInt) {
        if let (Some(a), Some(b)) = (self.as_small(), other.as_small()) {
            assert!(b != 0, "division by zero");
            numeric_stat!(SMALL_OPS);
            // The only overflowing case is i64::MIN / -1.
            return match a.checked_div(b) {
                Some(q) => (BigInt::make_small(q), BigInt::make_small(a % b)),
                None => (BigInt::from_i128(-(i64::MIN as i128)), BigInt::zero()),
            };
        }
        numeric_stat!(HEAP_OPS);
        assert!(!other.is_zero(), "division by zero");
        let (sa, la) = self.parts();
        let (sb, lb) = other.parts();
        let (qm, rm) = Self::mag_divmod(la.as_slice(), lb.as_slice());
        let q_sign = if qm.is_empty() {
            Sign::Zero
        } else if sa == sb {
            Sign::Positive
        } else {
            Sign::Negative
        };
        let r_sign = if rm.is_empty() { Sign::Zero } else { sa };
        (BigInt::from_mag(q_sign, qm), BigInt::from_mag(r_sign, rm))
    }

    /// Euclidean division: floor division for the quotient.
    pub fn div_floor(&self, other: &BigInt) -> BigInt {
        let (q, r) = self.div_rem(other);
        if !r.is_zero() && (r.is_negative() != other.is_negative()) {
            q - BigInt::one()
        } else {
            q
        }
    }

    /// Greatest common divisor (always non-negative).
    pub fn gcd(&self, other: &BigInt) -> BigInt {
        if let (Some(a), Some(b)) = (self.as_small(), other.as_small()) {
            numeric_stat!(SMALL_OPS);
            let g = gcd_u64(a.unsigned_abs(), b.unsigned_abs());
            return BigInt::from_u128(g as u128);
        }
        numeric_stat!(HEAP_OPS);
        let mut a = self.abs();
        let mut b = other.abs();
        while !b.is_zero() {
            // Drop to the machine-word loop as soon as both fit.
            if let (Some(x), Some(y)) = (a.as_small(), b.as_small()) {
                let g = gcd_u64(x.unsigned_abs(), y.unsigned_abs());
                return BigInt::from_u128(g as u128);
            }
            let r = a.div_rem(&b).1.abs();
            a = b;
            b = r;
        }
        a
    }

    /// Least common multiple (always non-negative); `lcm(0, x) = 0`.
    pub fn lcm(&self, other: &BigInt) -> BigInt {
        if self.is_zero() || other.is_zero() {
            return BigInt::zero();
        }
        if let (Some(a), Some(b)) = (self.as_small(), other.as_small()) {
            numeric_stat!(SMALL_OPS);
            let (ua, ub) = (a.unsigned_abs(), b.unsigned_abs());
            let g = gcd_u64(ua, ub);
            // (ua / g) * ub ≤ 2^63 · 2^63 = 2^126: always fits u128.
            return BigInt::from_u128((ua / g) as u128 * ub as u128);
        }
        let g = self.gcd(other);
        (self.abs() / g) * other.abs()
    }

    /// Raises `self` to the power `exp`.
    pub fn pow(&self, exp: u32) -> BigInt {
        let mut base = self.clone();
        let mut exp = exp;
        let mut acc = BigInt::one();
        while exp > 0 {
            if exp & 1 == 1 {
                acc = &acc * &base;
            }
            base = &base * &base;
            exp >>= 1;
        }
        acc
    }

    /// Converts to `i64` if the value fits.
    pub fn to_i64(&self) -> Option<i64> {
        match &self.repr {
            Repr::Small(v) => Some(*v),
            Repr::Heap(h) => {
                if h.mag.len() > 2 {
                    return None;
                }
                let mut v: u64 = 0;
                for (i, &limb) in h.mag.iter().enumerate() {
                    v |= (limb as u64) << (32 * i);
                }
                match h.sign {
                    Sign::Zero => Some(0),
                    Sign::Positive => {
                        if v <= i64::MAX as u64 {
                            Some(v as i64)
                        } else {
                            None
                        }
                    }
                    Sign::Negative => {
                        if v <= i64::MAX as u64 + 1 {
                            Some((-(v as i128)) as i64)
                        } else {
                            None
                        }
                    }
                }
            }
        }
    }

    /// Converts to `f64` (lossy; used only for reporting).
    pub fn to_f64(&self) -> f64 {
        match &self.repr {
            Repr::Small(v) => *v as f64,
            Repr::Heap(h) => {
                let mut v = 0.0f64;
                for &limb in h.mag.iter().rev() {
                    v = v * 4294967296.0 + limb as f64;
                }
                if h.sign == Sign::Negative {
                    -v
                } else {
                    v
                }
            }
        }
    }
}

/// Whether `(sign, mag)` fits in an `i64`, and the value if so.
#[inline]
fn small_from_parts(sign: Sign, mag: &[u32]) -> Option<i64> {
    match mag.len() {
        0 => Some(0),
        1 | 2 => {
            let mut v: u64 = mag[0] as u64;
            if mag.len() == 2 {
                v |= (mag[1] as u64) << 32;
            }
            match sign {
                Sign::Zero => Some(0),
                Sign::Positive => (v <= i64::MAX as u64).then_some(v as i64),
                Sign::Negative => {
                    (v <= i64::MAX as u64 + 1).then(|| (v as i128).wrapping_neg() as i64)
                }
            }
        }
        _ => None,
    }
}

/// Binary-free Euclidean gcd on unsigned words; `gcd(0, x) = x`.
#[inline]
pub(crate) fn gcd_u64(mut a: u64, mut b: u64) -> u64 {
    while b != 0 {
        let r = a % b;
        a = b;
        b = r;
    }
    a
}

/// Euclidean gcd on `u128` (cross-multiplied `i64` products reach 2^126);
/// `gcd(0, x) = x`.
#[inline]
pub(crate) fn gcd_u128(mut a: u128, mut b: u128) -> u128 {
    while b != 0 {
        let r = a % b;
        a = b;
        b = r;
    }
    a
}

impl Default for BigInt {
    fn default() -> Self {
        BigInt::zero()
    }
}

impl From<i64> for BigInt {
    #[inline]
    fn from(v: i64) -> Self {
        BigInt::make_small(v)
    }
}

impl From<i32> for BigInt {
    #[inline]
    fn from(v: i32) -> Self {
        BigInt::make_small(v as i64)
    }
}

impl From<u64> for BigInt {
    #[inline]
    fn from(v: u64) -> Self {
        BigInt::from_u128(v as u128)
    }
}

impl From<usize> for BigInt {
    #[inline]
    fn from(v: usize) -> Self {
        BigInt::from(v as u64)
    }
}

impl FromStr for BigInt {
    type Err = ParseBigIntError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let s = s.trim();
        if s.is_empty() {
            return Err(ParseBigIntError);
        }
        let (neg, digits) = match s.strip_prefix('-') {
            Some(rest) => (true, rest),
            None => (false, s.strip_prefix('+').unwrap_or(s)),
        };
        if digits.is_empty() {
            return Err(ParseBigIntError);
        }
        let mut acc = BigInt::zero();
        let ten = BigInt::from(10);
        for c in digits.chars() {
            let d = c.to_digit(10).ok_or(ParseBigIntError)?;
            acc = &acc * &ten + BigInt::from(d as i64);
        }
        if neg {
            acc = -acc;
        }
        Ok(acc)
    }
}

/// Error returned when parsing a [`BigInt`] from a malformed string.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseBigIntError;

impl fmt::Display for ParseBigIntError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid big integer syntax")
    }
}

impl std::error::Error for ParseBigIntError {}

impl fmt::Display for BigInt {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (sign, mag) = match &self.repr {
            Repr::Small(v) => return write!(f, "{v}"),
            Repr::Heap(h) => (h.sign, &h.mag),
        };
        if mag.is_empty() {
            return write!(f, "0");
        }
        let mut digits = Vec::new();
        let mut mag = mag.clone();
        let billion: u64 = 1_000_000_000;
        while !mag.is_empty() {
            // Divide mag by 10^9, collecting the remainder.
            let mut rem: u64 = 0;
            for i in (0..mag.len()).rev() {
                let cur = (rem << 32) | mag[i] as u64;
                mag[i] = (cur / billion) as u32;
                rem = cur % billion;
            }
            while let Some(&0) = mag.last() {
                mag.pop();
            }
            digits.push(rem);
        }
        let mut s = String::new();
        if sign == Sign::Negative {
            s.push('-');
        }
        s.push_str(&digits.last().unwrap().to_string());
        for chunk in digits.iter().rev().skip(1) {
            s.push_str(&format!("{:09}", chunk));
        }
        write!(f, "{}", s)
    }
}

impl fmt::Debug for BigInt {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "BigInt({})", self)
    }
}

impl PartialEq for BigInt {
    #[inline]
    fn eq(&self, other: &Self) -> bool {
        match (&self.repr, &other.repr) {
            (Repr::Small(a), Repr::Small(b)) => a == b,
            _ => {
                let (sa, la) = self.parts();
                let (sb, lb) = other.parts();
                sa == sb && la.as_slice() == lb.as_slice()
            }
        }
    }
}

impl Eq for BigInt {}

impl Hash for BigInt {
    /// Hashes the canonical `(sign, limbs)` pair, so the inline and heap
    /// forms of the same value hash identically (mixed-representation
    /// `HashMap` lookups must hit).
    fn hash<H: Hasher>(&self, state: &mut H) {
        let (sign, limbs) = self.parts();
        sign.hash(state);
        limbs.as_slice().hash(state);
    }
}

impl PartialOrd for BigInt {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for BigInt {
    fn cmp(&self, other: &Self) -> Ordering {
        if let (Some(a), Some(b)) = (self.as_small(), other.as_small()) {
            return a.cmp(&b);
        }
        let (sa, la) = self.parts();
        let (sb, lb) = other.parts();
        match (sa, sb) {
            (a, b) if a != b => a.cmp(&b),
            (Sign::Zero, Sign::Zero) => Ordering::Equal,
            (Sign::Positive, Sign::Positive) => Self::mag_cmp(la.as_slice(), lb.as_slice()),
            (Sign::Negative, Sign::Negative) => Self::mag_cmp(lb.as_slice(), la.as_slice()),
            _ => unreachable!(),
        }
    }
}

impl Neg for BigInt {
    type Output = BigInt;
    #[inline]
    fn neg(self) -> BigInt {
        match self.repr {
            Repr::Small(v) => match v.checked_neg() {
                Some(n) => BigInt::make_small(n),
                None => BigInt::from_i128(-(i64::MIN as i128)),
            },
            Repr::Heap(mut h) => {
                h.sign = h.sign.flip();
                BigInt {
                    repr: Repr::Heap(h),
                }
            }
        }
    }
}

impl Neg for &BigInt {
    type Output = BigInt;
    #[inline]
    fn neg(self) -> BigInt {
        self.clone().neg()
    }
}

impl Add for &BigInt {
    type Output = BigInt;
    #[inline]
    fn add(self, other: &BigInt) -> BigInt {
        if let (Some(a), Some(b)) = (self.as_small(), other.as_small()) {
            return match a.checked_add(b) {
                Some(s) => {
                    numeric_stat!(SMALL_OPS);
                    BigInt::make_small(s)
                }
                None => {
                    numeric_stat!(PROMOTIONS);
                    BigInt::from_i128(a as i128 + b as i128)
                }
            };
        }
        numeric_stat!(HEAP_OPS);
        let (sa, la) = self.parts();
        let (sb, lb) = other.parts();
        match (sa, sb) {
            (Sign::Zero, _) => other.clone(),
            (_, Sign::Zero) => self.clone(),
            (a, b) if a == b => BigInt::from_mag(a, BigInt::mag_add(la.as_slice(), lb.as_slice())),
            _ => {
                // Opposite signs: subtract the smaller magnitude from the larger.
                match BigInt::mag_cmp(la.as_slice(), lb.as_slice()) {
                    Ordering::Equal => BigInt::zero(),
                    Ordering::Greater => {
                        BigInt::from_mag(sa, BigInt::mag_sub(la.as_slice(), lb.as_slice()))
                    }
                    Ordering::Less => {
                        BigInt::from_mag(sb, BigInt::mag_sub(lb.as_slice(), la.as_slice()))
                    }
                }
            }
        }
    }
}

impl Add for BigInt {
    type Output = BigInt;
    fn add(self, other: BigInt) -> BigInt {
        &self + &other
    }
}

impl Add<&BigInt> for BigInt {
    type Output = BigInt;
    fn add(self, other: &BigInt) -> BigInt {
        &self + other
    }
}

impl AddAssign<&BigInt> for BigInt {
    fn add_assign(&mut self, other: &BigInt) {
        *self = &*self + other;
    }
}

impl Sub for &BigInt {
    type Output = BigInt;
    #[inline]
    fn sub(self, other: &BigInt) -> BigInt {
        if let (Some(a), Some(b)) = (self.as_small(), other.as_small()) {
            return match a.checked_sub(b) {
                Some(s) => {
                    numeric_stat!(SMALL_OPS);
                    BigInt::make_small(s)
                }
                None => {
                    numeric_stat!(PROMOTIONS);
                    BigInt::from_i128(a as i128 - b as i128)
                }
            };
        }
        self + &(-other.clone())
    }
}

impl Sub for BigInt {
    type Output = BigInt;
    fn sub(self, other: BigInt) -> BigInt {
        &self - &other
    }
}

impl SubAssign<&BigInt> for BigInt {
    fn sub_assign(&mut self, other: &BigInt) {
        *self = &*self - other;
    }
}

impl Mul for &BigInt {
    type Output = BigInt;
    #[inline]
    fn mul(self, other: &BigInt) -> BigInt {
        if let (Some(a), Some(b)) = (self.as_small(), other.as_small()) {
            return match a.checked_mul(b) {
                Some(p) => {
                    numeric_stat!(SMALL_OPS);
                    BigInt::make_small(p)
                }
                None => {
                    numeric_stat!(PROMOTIONS);
                    BigInt::from_i128(a as i128 * b as i128)
                }
            };
        }
        numeric_stat!(HEAP_OPS);
        if self.is_zero() || other.is_zero() {
            return BigInt::zero();
        }
        let (sa, la) = self.parts();
        let (sb, lb) = other.parts();
        let sign = if sa == sb {
            Sign::Positive
        } else {
            Sign::Negative
        };
        BigInt::from_mag(sign, BigInt::mag_mul(la.as_slice(), lb.as_slice()))
    }
}

impl Mul for BigInt {
    type Output = BigInt;
    fn mul(self, other: BigInt) -> BigInt {
        &self * &other
    }
}

impl Mul<&BigInt> for BigInt {
    type Output = BigInt;
    fn mul(self, other: &BigInt) -> BigInt {
        &self * other
    }
}

impl MulAssign<&BigInt> for BigInt {
    fn mul_assign(&mut self, other: &BigInt) {
        *self = &*self * other;
    }
}

impl Div for &BigInt {
    type Output = BigInt;
    fn div(self, other: &BigInt) -> BigInt {
        self.div_rem(other).0
    }
}

impl Div for BigInt {
    type Output = BigInt;
    fn div(self, other: BigInt) -> BigInt {
        &self / &other
    }
}

impl Rem for &BigInt {
    type Output = BigInt;
    fn rem(self, other: &BigInt) -> BigInt {
        self.div_rem(other).1
    }
}

impl Rem for BigInt {
    type Output = BigInt;
    fn rem(self, other: BigInt) -> BigInt {
        &self % &other
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::hash_map::DefaultHasher;

    fn b(v: i64) -> BigInt {
        BigInt::from(v)
    }

    fn hash_of(v: &BigInt) -> u64 {
        let mut h = DefaultHasher::new();
        v.hash(&mut h);
        h.finish()
    }

    #[test]
    fn zero_and_one() {
        assert!(BigInt::zero().is_zero());
        assert!(BigInt::one().is_one());
        assert_eq!(BigInt::zero().to_string(), "0");
        assert_eq!(BigInt::default(), BigInt::zero());
    }

    #[test]
    fn small_arithmetic() {
        assert_eq!(b(2) + b(3), b(5));
        assert_eq!(b(2) - b(3), b(-1));
        assert_eq!(b(-2) * b(3), b(-6));
        assert_eq!(b(-2) + b(2), b(0));
        assert_eq!(b(7) / b(2), b(3));
        assert_eq!(b(7) % b(2), b(1));
        assert_eq!(b(-7) / b(2), b(-3));
        assert_eq!(b(-7) % b(2), b(-1));
    }

    #[test]
    fn overflow_promotes_and_round_trips() {
        let max = b(i64::MAX);
        let sum = &max + &max;
        assert_eq!(sum.to_string(), "18446744073709551614");
        assert_eq!((&sum - &max), max);
        let min = b(i64::MIN);
        assert_eq!((&min + &min).to_string(), "-18446744073709551616");
        assert_eq!((&min * &b(-1)).to_string(), "9223372036854775808");
        assert_eq!(min.div_rem(&b(-1)).0.to_string(), "9223372036854775808");
        assert_eq!((-min.clone()).to_string(), "9223372036854775808");
        assert_eq!(min.abs().to_string(), "9223372036854775808");
    }

    #[test]
    fn heap_results_demote_to_small() {
        // A computation that leaves the i64 range and comes back must end in
        // the inline representation (the canonical form).
        let max = b(i64::MAX);
        let back = &(&max + &max) - &max;
        assert!(back.as_small().is_some());
        assert_eq!(back, max);
    }

    #[test]
    fn representation_independent_eq_ord_hash() {
        for v in [0i64, 1, -1, 42, -42, i64::MAX, i64::MIN, 1 << 40] {
            let small = b(v);
            let heap = small.forced_heap();
            assert!(heap.as_small().is_none() || v == 0 && heap.as_small().is_none());
            assert_eq!(small, heap, "Eq must ignore representation for {v}");
            assert_eq!(
                small.cmp(&heap),
                Ordering::Equal,
                "Ord must ignore representation for {v}"
            );
            assert_eq!(
                hash_of(&small),
                hash_of(&heap),
                "Hash must ignore representation for {v}"
            );
            assert_eq!(small.to_string(), heap.to_string());
            assert_eq!(small.sign(), heap.sign());
            assert_eq!(small.bit_len(), heap.bit_len());
        }
    }

    #[test]
    fn mixed_representation_hashmap_lookups_hit() {
        use std::collections::HashMap;
        let mut map = HashMap::new();
        for v in [-3i64, 0, 7, i64::MAX] {
            map.insert(b(v), v);
        }
        for v in [-3i64, 0, 7, i64::MAX] {
            assert_eq!(map.get(&b(v).forced_heap()), Some(&v));
        }
    }

    #[test]
    fn forced_heap_arithmetic_agrees() {
        for (a, c) in [(3i64, 4i64), (-7, 2), (i64::MAX, i64::MAX), (0, -5)] {
            let (sa, sb) = (b(a), b(c));
            let (ha, hb) = (sa.forced_heap(), sb.forced_heap());
            assert_eq!(&sa + &sb, &ha + &hb);
            assert_eq!(&sa - &sb, &ha - &hb);
            assert_eq!(&sa * &sb, &ha * &hb);
            if c != 0 {
                assert_eq!(sa.div_rem(&sb), ha.div_rem(&hb));
            }
            assert_eq!(sa.gcd(&sb), ha.gcd(&hb));
        }
    }

    #[test]
    fn display_round_trip() {
        for s in [
            "0",
            "1",
            "-1",
            "4294967296",
            "-123456789012345678901234567890",
        ] {
            let v: BigInt = s.parse().unwrap();
            assert_eq!(v.to_string(), s);
        }
    }

    #[test]
    fn parse_errors() {
        assert!("".parse::<BigInt>().is_err());
        assert!("abc".parse::<BigInt>().is_err());
        assert!("-".parse::<BigInt>().is_err());
        assert!("12x".parse::<BigInt>().is_err());
    }

    #[test]
    fn large_multiplication() {
        let a: BigInt = "123456789012345678901234567890".parse().unwrap();
        let sq = &a * &a;
        assert_eq!(
            sq.to_string(),
            "15241578753238836750495351562536198787501905199875019052100"
        );
    }

    #[test]
    fn large_division() {
        let a: BigInt = "15241578753238836750495351562536198787501905199875019052100"
            .parse()
            .unwrap();
        let b_: BigInt = "123456789012345678901234567890".parse().unwrap();
        let (q, r) = a.div_rem(&b_);
        assert_eq!(q, b_);
        assert!(r.is_zero());
        let (q2, r2) = (&a + &BigInt::from(7)).div_rem(&b_);
        assert_eq!(q2, b_);
        assert_eq!(r2, BigInt::from(7));
    }

    #[test]
    fn division_signs() {
        // Truncating division semantics.
        assert_eq!(b(7).div_rem(&b(-2)), (b(-3), b(1)));
        assert_eq!(b(-7).div_rem(&b(-2)), (b(3), b(-1)));
        assert_eq!(b(-7).div_floor(&b(2)), b(-4));
        assert_eq!(b(7).div_floor(&b(2)), b(3));
        assert_eq!(b(-8).div_floor(&b(2)), b(-4));
    }

    #[test]
    #[should_panic(expected = "division by zero")]
    fn division_by_zero_panics() {
        let _ = b(5).div_rem(&b(0));
    }

    #[test]
    #[should_panic(expected = "division by zero")]
    fn heap_division_by_zero_panics() {
        let big: BigInt = "99999999999999999999".parse().unwrap();
        let _ = big.div_rem(&b(0));
    }

    #[test]
    fn gcd_lcm() {
        assert_eq!(b(12).gcd(&b(18)), b(6));
        assert_eq!(b(-12).gcd(&b(18)), b(6));
        assert_eq!(b(0).gcd(&b(5)), b(5));
        assert_eq!(b(12).lcm(&b(18)), b(36));
        assert_eq!(b(0).lcm(&b(5)), b(0));
        // gcd(i64::MIN, 0) = 2^63 doesn't fit in i64 — must promote cleanly.
        assert_eq!(b(i64::MIN).gcd(&b(0)).to_string(), "9223372036854775808");
        // Mixed small/heap gcd converges through the word-size loop.
        let big: BigInt = "36893488147419103232".parse().unwrap(); // 2^65
        assert_eq!(big.gcd(&b(48)), b(16));
    }

    #[test]
    fn pow() {
        assert_eq!(b(2).pow(10), b(1024));
        assert_eq!(b(3).pow(0), b(1));
        assert_eq!(b(-2).pow(3), b(-8));
        assert_eq!(b(10).pow(20).to_string(), "100000000000000000000");
    }

    #[test]
    fn ordering() {
        assert!(b(-5) < b(3));
        assert!(b(3) < b(5));
        assert!(b(-3) > b(-5));
        let big: BigInt = "99999999999999999999".parse().unwrap();
        assert!(big > b(i64::MAX));
        assert!(-&big < b(i64::MIN));
    }

    #[test]
    fn to_i64_conversion() {
        assert_eq!(b(42).to_i64(), Some(42));
        assert_eq!(b(-42).to_i64(), Some(-42));
        assert_eq!(b(i64::MAX).to_i64(), Some(i64::MAX));
        assert_eq!(b(i64::MIN).to_i64(), Some(i64::MIN));
        assert_eq!(b(i64::MIN).forced_heap().to_i64(), Some(i64::MIN));
        let big: BigInt = "99999999999999999999".parse().unwrap();
        assert_eq!(big.to_i64(), None);
    }

    #[test]
    fn to_f64_conversion() {
        assert_eq!(b(1024).to_f64(), 1024.0);
        assert_eq!(b(-3).to_f64(), -3.0);
        let big = b(2).pow(64);
        assert_eq!(big.to_f64(), 18446744073709551616.0);
    }

    #[test]
    fn bit_len() {
        assert_eq!(b(0).bit_len(), 0);
        assert_eq!(b(1).bit_len(), 1);
        assert_eq!(b(255).bit_len(), 8);
        assert_eq!(b(256).bit_len(), 9);
        assert_eq!(b(2).pow(100).bit_len(), 101);
        assert_eq!(b(i64::MIN).bit_len(), 64);
    }

    #[test]
    fn min_max() {
        assert_eq!(b(3).max(b(5)), b(5));
        assert_eq!(b(3).min(b(-5)), b(-5));
    }
}
