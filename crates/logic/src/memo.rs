//! Per-run memo of emptiness decisions.
//!
//! One analysis run asks "is this conjunction empty?" about the same atom
//! list many times over: height summarizes each recursive procedure twice,
//! depth walks the body again up to its last recursive call, the assertion
//! pass re-summarizes the guards and loops before a body's last `assert`,
//! and `abstract_hull` runs once per candidate term over the same
//! disjuncts.  Each question costs a linearization plus either a simplex
//! witness search or a full Fourier–Motzkin elimination: `is_empty_set`
//! tries the witness first and eliminates only when it finds none, and
//! each negated disjunct of `implies_atom` always eliminates.
//!
//! An [`EmptinessMemo`] guard opens a memo on the current thread.  While it
//! is open, every emptiness decision — [`crate::Polyhedron::is_empty_set`]
//! and each negated disjunct of [`crate::Polyhedron::implies_atom`], and so
//! every caller of the two — is keyed by the 128-bit FNV-1a fingerprint of
//! its atom list ([`chora_expr::FingerprintBuilder`] fed the derived `Hash`)
//! and answered from the memo when the same list was decided before.
//! Emptiness is a pure function of the atom list, so answers are the ones
//! a direct computation gives.  The memo holds one `bool` per key and dies
//! with its guard: nothing is shared across threads or runs, so memory is
//! bounded by one run's distinct questions without a cap or eviction.
//!
//! Without an open guard, decisions are computed directly.

use crate::stats::fm_stat;
use chora_expr::Fingerprint;
use std::cell::RefCell;
use std::collections::HashMap;
use std::marker::PhantomData;

type Memo = HashMap<Fingerprint, bool>;

thread_local! {
    static MEMO: RefCell<Option<Memo>> = const { RefCell::new(None) };
}

/// An open emptiness memo on the current thread; dropping it restores the
/// memo that was open before (none, at top level).
///
/// Restoring happens in `Drop`, so a panic unwinding through the guard's
/// frame leaves no memo behind on a long-lived thread.  A nested guard
/// starts empty and hands the outer memo back when it drops.  The guard is
/// tied to the thread that opened it (it is neither `Send` nor `Sync`).
///
/// ```
/// use chora_logic::{Atom, EmptinessMemo, Polyhedron};
/// use chora_expr::{Polynomial, Symbol};
/// use chora_numeric::rat;
/// let x = Polynomial::var(Symbol::new("x"));
/// let p = Polyhedron::from_atoms(vec![Atom::ge(x, Polynomial::constant(rat(0)))]);
/// assert!(!EmptinessMemo::is_open());
/// {
///     let _memo = EmptinessMemo::open();
///     assert!(!p.is_empty_set()); // decided by a witness point (x = 0)
///     assert!(!p.is_empty_set()); // answered from the memo
/// }
/// assert!(!EmptinessMemo::is_open());
/// ```
#[must_use = "the memo closes as soon as the guard is dropped"]
pub struct EmptinessMemo {
    outer: Option<Memo>,
    _thread_bound: PhantomData<*const ()>,
}

impl EmptinessMemo {
    /// Opens an empty memo on the current thread until the guard drops.
    pub fn open() -> EmptinessMemo {
        let outer = MEMO.with(|m| m.replace(Some(Memo::new())));
        EmptinessMemo {
            outer,
            _thread_bound: PhantomData,
        }
    }

    /// Whether the current thread has an open memo.
    pub fn is_open() -> bool {
        MEMO.with(|m| m.borrow().is_some())
    }
}

impl Drop for EmptinessMemo {
    fn drop(&mut self) {
        let outer = self.outer.take();
        MEMO.with(|m| *m.borrow_mut() = outer);
    }
}

/// One emptiness decision: answered from the open memo under `key` when it
/// holds one, otherwise computed by `decide` (and recorded if a memo is
/// open).  `key` is only evaluated while a memo is open.
pub(crate) fn decide_empty(
    key: impl FnOnce() -> Fingerprint,
    decide: impl FnOnce() -> bool,
) -> bool {
    fm_stat!(EMPTINESS_CHECKS);
    let lookup = MEMO.with(|m| {
        m.borrow().as_ref().map(|memo| {
            let key = key();
            (key, memo.get(&key).copied())
        })
    });
    match lookup {
        None => decide(),
        Some((_, Some(known))) => {
            fm_stat!(EMPTINESS_MEMO_HITS);
            known
        }
        Some((key, None)) => {
            // Decided with no borrow held: the memo never sees reentrancy.
            let empty = decide();
            MEMO.with(|m| {
                if let Some(memo) = m.borrow_mut().as_mut() {
                    memo.insert(key, empty);
                }
            });
            empty
        }
    }
}
