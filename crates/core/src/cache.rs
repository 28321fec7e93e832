//! Stable (de)serialization of component entries for the persistent
//! summary cache.
//!
//! An entry ([`ComponentEntry`]) holds, for each member of one call-graph
//! component, its [`ProcedureSummary`] and, next to it, the verdicts of the
//! asserts in its body (format v3).  A warm run therefore neither
//! summarizes a hit component nor walks any of its members' bodies: the
//! verdicts depend only on what the component key hashes, every `assert`
//! (label and condition) and the keys of the whole callee cone.
//!
//! The encoding is a one-line JSON document, built and rendered
//! ([`Json::compact`]) with [`chora_telemetry::json`], and designed for
//! *exact* round-trips: decoding an encoded [`ProcedureSummary`] reproduces
//! the original value bit-for-bit, including the internal order of
//! polyhedron atoms and transition-formula disjuncts, so a cache hit leaves
//! no observable trace in the analysis output.
//!
//! Symbols are serialized **by name and kind**, never by interner index
//! (indices depend on process history); on load they are re-interned
//! through [`Symbol::new`] and friends.  Rationals are serialized as
//! `"num"` / `"num/den"` strings so no precision is lost.  Every decoder is
//! fallible: a corrupted or version-mismatched document yields `None` and
//! the caller discards the cache entry — corruption is never fatal.
//!
//! # Decoding straight from the bytes
//!
//! Every tier reads entries as text (memory keeps them serialized, disks
//! and peers exchange them), so a hit decodes one.  [`decode_entry`] reads
//! the document with the pull [`Reader`] and builds symbols, rationals,
//! polynomials, atoms and terms as the tokens arrive; it builds no [`Json`]
//! tree.  It accepts exactly the documents [`encode_entry`] writes: the
//! fields in the encoder's order, with whitespace allowed between tokens.
//! A reordered, missing or unknown field, trailing data after the document,
//! or any value outside what the encoder writes is corruption:
//!
//! - the format tag, the version ([`CACHE_VERSION`]) and the key must match,
//!   and the scopes table must hold hex component keys;
//! - a symbol's payload, canonical scope index and serial must be in range,
//!   and its rescope must succeed ([`Symbol::try_fresh_at`]);
//! - a monomial names each symbol once, with an exponent that fits `u32`;
//! - a formula's cap is in `1..=1_000_000`, an atom's kind is 0, 1 or 2, and
//!   a closed form's terms have non-zero bases and polynomials only in its
//!   parameter (the `ExpPoly` invariants);
//! - each member carries its verdict list.
//!
//! Terms nest one array per level, so the reader's
//! [`MAX_DEPTH`](chora_telemetry::json::MAX_DEPTH) bound on nesting also
//! bounds the decoder's recursion.  [`entry_key`] reads the same envelope
//! and checks that the members are well-formed JSON without decoding them.
//!
//! # Scope-independent entries and rescope-on-load
//!
//! Fresh existential symbols carry a `(scope, serial)` pair where the scope
//! is the component's index in the driver's bottom-up schedule — a number
//! that shifts whenever a procedure is inserted or reordered, even though
//! the component's content is untouched.  To keep cache entries (and their
//! keys) independent of that schedule, fresh symbols are stored under
//! **canonical scope indices**: the entry carries a `"scopes"` table mapping
//! each canonical index to the *component key* that owned the scope, and
//! the serialized symbols say `f:<canonical>:<serial>`.  On load, the
//! decoder asks a [`ScopeResolver`] (built by the driver from this run's
//! schedule) which scope each of those component keys was assigned *this*
//! run and re-homes every fresh symbol accordingly — so a hit restores
//! summaries bit-compatible with a cold run of the current program, no
//! matter how the components moved around.  A rescope that cannot be
//! performed (unknown component key, packed-ceiling overflow) makes the
//! decoder return `None`, which the stores count as a corruption eviction.

use crate::analysis::{AssertionResult, BoundFact, ProcedureSummary};
use crate::depth::DepthBound;
use crate::store::ComponentEntry;
use chora_expr::{ExpPoly, Monomial, Polynomial, Symbol, SymbolKind, Term};
use chora_ir::{Fingerprint, FingerprintBuilder};
use chora_logic::{Atom, AtomKind, Polyhedron, TransitionFormula};
use chora_numeric::{BigRational, SmallVec};
use chora_telemetry::json::{Json, Reader};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};

/// Format tag and version of the cache entry layout.  Bump the version on
/// any change to the encoding; readers ignore entries from other versions.
pub const CACHE_FORMAT: &str = "chora-summary-cache";
/// Current version of the on-disk encoding.  v2 made entries independent of
/// the bottom-up component order: fresh symbols are stored under canonical
/// scope indices plus a component-key table and rescoped on load.  v3 stores
/// each member's assertion verdicts next to its summary.
pub const CACHE_VERSION: i64 = 3;

// ---------------------------------------------------------------------------
// Scope translation.
// ---------------------------------------------------------------------------

/// Two-way mapping between fresh-symbol scopes and the component keys that
/// own them, for one analysis run.
///
/// The driver assigns every call-graph component a deterministic scope (its
/// index in the flattened bottom-up level order); the codec uses this trait
/// to translate those run-local scope numbers into run-independent component
/// keys when writing an entry, and back when restoring one.
pub trait ScopeResolver: Sync {
    /// The scope this run assigned to the component with the given key.
    fn scope_of(&self, key: &Fingerprint) -> Option<u32>;
    /// The key of the component that owns `scope` in this run.
    fn key_of(&self, scope: u32) -> Option<Fingerprint>;

    /// The single-flight group of the analysis run behind this resolver.
    ///
    /// All store probes of one driver batch share a nonzero group (see
    /// [`next_flight_group`]); a `SingleFlight` store never blocks a probe
    /// on a lease held by the *same* group, because the leaseholder's
    /// result is only published at the batch's fold — waiting on a sibling
    /// task would stall until the wait timed out.  Group `0` (the default)
    /// means "no group": always eligible to wait.
    fn flight_group(&self) -> u64 {
        0
    }

    /// A content identity for the *source program* behind this run, stable
    /// across machines (a digest of all component keys).  Remote stores
    /// attach it to GET/PUT traffic so a summary server can count hits
    /// whose key was first published by a different program — the
    /// cross-program dedup the content-only keys enable.
    fn source_tag(&self) -> Option<Fingerprint> {
        None
    }
}

/// Hands out process-unique nonzero single-flight groups, one per driver
/// batch (see [`ScopeResolver::flight_group`]).
pub fn next_flight_group() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    NEXT.fetch_add(1, Ordering::Relaxed)
}

/// A resolver that knows no scopes at all.  Sufficient for summaries that
/// contain no fresh symbols (encoding fails, and decoding evicts, anything
/// that does) — useful for tests and tools that handle synthetic entries.
pub struct NullScopes;

impl ScopeResolver for NullScopes {
    fn scope_of(&self, _key: &Fingerprint) -> Option<u32> {
        None
    }

    fn key_of(&self, _scope: u32) -> Option<Fingerprint> {
        None
    }
}

/// The driver's scope assignment for one run: component `i` of the
/// flattened bottom-up level order gets scope `i`.
///
/// Component keys are unique within a program (each key hashes its member
/// names), so the mapping is bijective.
pub struct ComponentScopes {
    by_scope: Vec<Fingerprint>,
    by_key: HashMap<Fingerprint, u32>,
    flight_group: u64,
    source_tag: Option<Fingerprint>,
}

impl ComponentScopes {
    /// Builds the assignment from per-level component keys (the output of
    /// [`chora_ir::fingerprint::level_keys`]), flattened in level order —
    /// exactly the order in which the driver hands out scopes.  Also
    /// derives the run's [`source tag`](ScopeResolver::source_tag): a
    /// digest of every component key, i.e. a content identity of the whole
    /// program.
    pub fn from_level_keys(levels: &[Vec<Fingerprint>]) -> ComponentScopes {
        let by_scope: Vec<Fingerprint> = levels.iter().flatten().copied().collect();
        let by_key = by_scope
            .iter()
            .enumerate()
            .map(|(scope, key)| (*key, scope as u32))
            .collect();
        let mut tag = FingerprintBuilder::new();
        tag.write_str("chora-source-tag-v1");
        for key in &by_scope {
            tag.write_fingerprint(*key);
        }
        ComponentScopes {
            by_scope,
            by_key,
            flight_group: 0,
            source_tag: Some(tag.finish()),
        }
    }

    /// Stamps the resolver with a driver batch's single-flight group.
    pub fn with_flight_group(mut self, group: u64) -> ComponentScopes {
        self.flight_group = group;
        self
    }
}

impl ScopeResolver for ComponentScopes {
    fn scope_of(&self, key: &Fingerprint) -> Option<u32> {
        self.by_key.get(key).copied()
    }

    fn key_of(&self, scope: u32) -> Option<Fingerprint> {
        self.by_scope.get(scope as usize).copied()
    }

    fn flight_group(&self) -> u64 {
        self.flight_group
    }

    fn source_tag(&self) -> Option<Fingerprint> {
        self.source_tag
    }
}

// ---------------------------------------------------------------------------
// Symbol / rational / polynomial codecs.
// ---------------------------------------------------------------------------

/// Bit-field ceilings re-exported from `chora_expr` so the decode guards
/// track the real `Symbol` layout (a widened layout widens these with it).
const MAX_PAYLOAD: u64 = chora_expr::MAX_SYMBOL_PAYLOAD as u64;
const MAX_FRESH_SERIAL: u64 = chora_expr::MAX_FRESH_SERIAL as u64;

/// Encode-side scope canonicalizer: assigns fresh scopes canonical indices
/// in first-encounter order (a deterministic walk, so two runs that produce
/// the same summaries up to scope renaming emit identical bytes) and
/// remembers the component key behind each.
struct ScopeEncoder<'a> {
    resolver: &'a dyn ScopeResolver,
    /// Canonical index -> owning component key (the entry's `"scopes"`).
    table: Vec<Fingerprint>,
    /// Run scope -> canonical index.
    canonical: HashMap<u32, u32>,
    /// Set when a scope has no component key: the entry cannot be made
    /// order-independent, so it is not written at all.
    failed: bool,
}

impl<'a> ScopeEncoder<'a> {
    fn new(resolver: &'a dyn ScopeResolver) -> ScopeEncoder<'a> {
        ScopeEncoder {
            resolver,
            table: Vec::new(),
            canonical: HashMap::new(),
            failed: false,
        }
    }

    fn canonical_scope(&mut self, scope: u32) -> u32 {
        if let Some(&c) = self.canonical.get(&scope) {
            return c;
        }
        match self.resolver.key_of(scope) {
            Some(key) => {
                let c = self.table.len() as u32;
                self.table.push(key);
                self.canonical.insert(scope, c);
                c
            }
            None => {
                self.failed = true;
                0
            }
        }
    }
}

/// Decode-side rescoper: translates the entry's canonical scope indices,
/// through its component-key table, into the scopes this run assigned.
struct ScopeDecoder<'a> {
    resolver: &'a dyn ScopeResolver,
    /// The entry's `"scopes"` table (canonical index -> component key).
    table: Vec<Fingerprint>,
}

impl ScopeDecoder<'_> {
    /// `None` when the canonical index is out of table range, the component
    /// key is unknown to this run, or the rescoped pair overflows the
    /// packed symbol ceilings — the caller evicts the entry.
    fn rescope(&self, canonical: u64, serial: u64) -> Option<Symbol> {
        let key = self.table.get(usize::try_from(canonical).ok()?)?;
        let scope = self.resolver.scope_of(key)?;
        if serial > MAX_FRESH_SERIAL {
            return None;
        }
        Symbol::try_fresh_at(scope, serial as u32)
    }
}

fn encode_symbol(s: &Symbol, enc: &mut ScopeEncoder<'_>) -> Json {
    let text = match s.kind() {
        SymbolKind::Named => format!("n:{s}"),
        SymbolKind::Post => format!("p:{}", s.unprimed()),
        SymbolKind::BoundAtH(k) => format!("b:{k}"),
        SymbolKind::BoundAtH1(k) => format!("B:{k}"),
        SymbolKind::Height => "h".to_string(),
        SymbolKind::Depth => "D".to_string(),
        SymbolKind::Fresh { scope, serial } => {
            format!("f:{}:{serial}", enc.canonical_scope(scope))
        }
        SymbolKind::Dimension(i) => format!("d:{i}"),
        SymbolKind::Scratch(i) => format!("a:{i}"),
    };
    Json::Str(text)
}

/// The symbol an entry writes as `text`.
fn parse_symbol(text: &str, dec: &ScopeDecoder<'_>) -> Option<Symbol> {
    match text {
        "h" => return Some(Symbol::height()),
        "D" => return Some(Symbol::depth()),
        _ => {}
    }
    let (tag, rest) = text.split_once(':')?;
    match tag {
        "n" => Some(Symbol::new(rest)),
        "p" => Some(Symbol::new(rest).primed()),
        "b" => {
            let k: u64 = rest.parse().ok()?;
            (k <= MAX_PAYLOAD).then(|| Symbol::bound_at_h(k as usize))
        }
        "B" => {
            let k: u64 = rest.parse().ok()?;
            (k <= MAX_PAYLOAD).then(|| Symbol::bound_at_h1(k as usize))
        }
        "f" => {
            let (canonical, serial) = rest.split_once(':')?;
            dec.rescope(canonical.parse().ok()?, serial.parse().ok()?)
        }
        "d" => {
            let i: u64 = rest.parse().ok()?;
            (i <= MAX_PAYLOAD).then(|| Symbol::dimension(i as u32))
        }
        "a" => {
            let i: u64 = rest.parse().ok()?;
            (i <= MAX_PAYLOAD).then(|| Symbol::scratch(i as u32))
        }
        _ => None,
    }
}

fn decode_symbol(r: &mut Reader<'_>, dec: &ScopeDecoder<'_>) -> Result<Symbol, String> {
    let text = r.string()?;
    parse_symbol(&text, dec).ok_or_else(|| format!("invalid symbol `{text}`"))
}

fn encode_rational(r: &BigRational) -> Json {
    Json::Str(r.to_string())
}

fn decode_rational(r: &mut Reader<'_>) -> Result<BigRational, String> {
    let text = r.string()?;
    text.parse()
        .map_err(|_| format!("invalid rational `{text}`"))
}

fn encode_monomial(m: &Monomial, enc: &mut ScopeEncoder<'_>) -> Json {
    Json::Array(
        m.powers()
            .map(|(s, e)| Json::Array(vec![encode_symbol(s, enc), Json::Int(i64::from(e))]))
            .collect(),
    )
}

/// A monomial names each symbol once: `Monomial::from_powers` would add
/// the exponents of a repeated one, which no encoded monomial has.
fn decode_monomial(r: &mut Reader<'_>, dec: &ScopeDecoder<'_>) -> Result<Monomial, String> {
    let mut powers: SmallVec<(Symbol, u32), 3> = SmallVec::new();
    r.begin_array()?;
    while r.next_item()? {
        let (sym, exp) = pair(r, |r| decode_symbol(r, dec), Reader::int)?;
        let exp = u32::try_from(exp).map_err(|_| format!("exponent {exp} out of range"))?;
        if powers.iter().any(|(s, _)| *s == sym) {
            return Err(format!("symbol `{sym}` repeated in a monomial"));
        }
        powers.push((sym, exp));
    }
    Ok(Monomial::from_powers(powers))
}

fn encode_polynomial(p: &Polynomial, enc: &mut ScopeEncoder<'_>) -> Json {
    Json::Array(
        p.terms()
            .map(|(m, c)| Json::Array(vec![encode_rational(c), encode_monomial(m, enc)]))
            .collect(),
    )
}

fn decode_polynomial(r: &mut Reader<'_>, dec: &ScopeDecoder<'_>) -> Result<Polynomial, String> {
    let terms = list(r, |r| pair(r, decode_rational, |r| decode_monomial(r, dec)))?;
    Ok(Polynomial::from_terms(terms))
}

fn encode_exppoly(e: &ExpPoly, enc: &mut ScopeEncoder<'_>) -> Json {
    Json::object()
        .field("param", encode_symbol(e.param(), enc))
        .field(
            "terms",
            Json::Array(
                e.terms()
                    .map(|(base, poly)| {
                        Json::Array(vec![encode_rational(base), encode_polynomial(poly, enc)])
                    })
                    .collect(),
            ),
        )
}

fn decode_exppoly(r: &mut Reader<'_>, dec: &ScopeDecoder<'_>) -> Result<ExpPoly, String> {
    r.begin_object()?;
    r.field("param")?;
    let param = decode_symbol(r, dec)?;
    r.field("terms")?;
    let mut out = ExpPoly::zero(&param);
    r.begin_array()?;
    while r.next_item()? {
        let (base, poly) = pair(r, decode_rational, |r| decode_polynomial(r, dec))?;
        // Guard the constructor invariants (they panic on violation).
        if base.is_zero() || poly.symbols().iter().any(|s| s != &param) {
            return Err("closed-form term breaks the ExpPoly invariants".to_string());
        }
        out = out.add(&ExpPoly::exp_poly_term(base, poly, &param));
    }
    r.end_object()?;
    Ok(out)
}

fn encode_term(t: &Term, enc: &mut ScopeEncoder<'_>) -> Json {
    match t {
        Term::Const(c) => Json::Array(vec![Json::Str("c".into()), encode_rational(c)]),
        Term::Var(s) => Json::Array(vec![Json::Str("v".into()), encode_symbol(s, enc)]),
        Term::Add(ts) => encode_term_list("+", ts, enc),
        Term::Mul(ts) => encode_term_list("*", ts, enc),
        Term::Pow(b, e) => Json::Array(vec![
            Json::Str("^".into()),
            encode_term(b, enc),
            encode_term(e, enc),
        ]),
        Term::Log2(x) => Json::Array(vec![Json::Str("log2".into()), encode_term(x, enc)]),
        Term::Max(ts) => encode_term_list("max", ts, enc),
        Term::Min(ts) => encode_term_list("min", ts, enc),
    }
}

fn encode_term_list(tag: &str, ts: &[Term], enc: &mut ScopeEncoder<'_>) -> Json {
    let mut items = vec![Json::Str(tag.into())];
    items.extend(ts.iter().map(|t| encode_term(t, enc)));
    Json::Array(items)
}

/// Each level of a term is an array, so the reader's [`MAX_DEPTH`] bound
/// on nesting bounds this recursion too.
///
/// [`MAX_DEPTH`]: chora_telemetry::json::MAX_DEPTH
fn decode_term(r: &mut Reader<'_>, dec: &ScopeDecoder<'_>) -> Result<Term, String> {
    r.begin_array()?;
    r.item()?;
    let tag = r.string()?;
    // The rest of the array as terms, through its `]`.
    let terms = |r: &mut Reader<'_>| -> Result<Vec<Term>, String> {
        let mut terms = Vec::new();
        while r.next_item()? {
            terms.push(decode_term(r, dec)?);
        }
        Ok(terms)
    };
    Ok(match &*tag {
        "c" => Term::Const(last(r, decode_rational)?),
        "v" => Term::Var(last(r, |r| decode_symbol(r, dec))?),
        "+" => Term::Add(terms(r)?),
        "*" => Term::Mul(terms(r)?),
        "^" => {
            let [b, e] = exactly(&tag, terms(r)?)?;
            Term::Pow(Box::new(b), Box::new(e))
        }
        "log2" => {
            let [x] = exactly(&tag, terms(r)?)?;
            Term::Log2(Box::new(x))
        }
        "max" => Term::Max(terms(r)?),
        "min" => Term::Min(terms(r)?),
        _ => return Err(format!("unknown term `{tag}`")),
    })
}

/// The operands of `tag`, which takes exactly `N`.
fn exactly<const N: usize>(tag: &str, terms: Vec<Term>) -> Result<[Term; N], String> {
    let n = terms.len();
    terms
        .try_into()
        .map_err(|_| format!("`{tag}` takes {N} terms, not {n}"))
}

// ---------------------------------------------------------------------------
// Logic codecs.
// ---------------------------------------------------------------------------

fn encode_atom(a: &Atom, enc: &mut ScopeEncoder<'_>) -> Json {
    let kind = match a.kind {
        AtomKind::Le => 0,
        AtomKind::Lt => 1,
        AtomKind::Eq => 2,
    };
    Json::Array(vec![Json::Int(kind), encode_polynomial(&a.poly, enc)])
}

fn decode_atom(r: &mut Reader<'_>, dec: &ScopeDecoder<'_>) -> Result<Atom, String> {
    let (kind, poly) = pair(r, Reader::int, |r| decode_polynomial(r, dec))?;
    Ok(match kind {
        0 => Atom::le_zero(poly),
        1 => Atom::lt_zero(poly),
        2 => Atom::eq_zero(poly),
        _ => return Err(format!("invalid atom kind {kind}")),
    })
}

fn encode_polyhedron(p: &Polyhedron, enc: &mut ScopeEncoder<'_>) -> Json {
    Json::Array(p.atoms().iter().map(|a| encode_atom(a, enc)).collect())
}

fn decode_polyhedron(r: &mut Reader<'_>, dec: &ScopeDecoder<'_>) -> Result<Polyhedron, String> {
    Ok(Polyhedron::from_parts(list(r, |r| decode_atom(r, dec))?))
}

fn encode_formula(f: &TransitionFormula, enc: &mut ScopeEncoder<'_>) -> Json {
    Json::object()
        .field("cap", Json::Int(f.cap() as i64))
        .field(
            "disjuncts",
            Json::Array(
                f.disjuncts()
                    .iter()
                    .map(|d| encode_polyhedron(d, enc))
                    .collect(),
            ),
        )
}

fn decode_formula(r: &mut Reader<'_>, dec: &ScopeDecoder<'_>) -> Result<TransitionFormula, String> {
    r.begin_object()?;
    r.field("cap")?;
    let cap = r.int()?;
    if !(1..=1_000_000).contains(&cap) {
        return Err(format!("formula cap {cap} out of range"));
    }
    r.field("disjuncts")?;
    let disjuncts = list(r, |r| decode_polyhedron(r, dec))?;
    r.end_object()?;
    Ok(TransitionFormula::from_parts(disjuncts, cap as usize))
}

// ---------------------------------------------------------------------------
// Summary codecs.
// ---------------------------------------------------------------------------

fn encode_depth(d: &DepthBound, enc: &mut ScopeEncoder<'_>) -> Json {
    let (tag, t) = match d {
        DepthBound::Linear(t) => ("lin", t),
        DepthBound::Logarithmic(t) => ("log", t),
    };
    Json::Array(vec![Json::Str(tag.into()), encode_term(t, enc)])
}

fn decode_depth(r: &mut Reader<'_>, dec: &ScopeDecoder<'_>) -> Result<DepthBound, String> {
    let (tag, t) = pair(r, Reader::string, |r| decode_term(r, dec))?;
    match &*tag {
        "lin" => Ok(DepthBound::Linear(t)),
        "log" => Ok(DepthBound::Logarithmic(t)),
        _ => Err(format!("unknown depth bound `{tag}`")),
    }
}

fn encode_bound_fact(f: &BoundFact, enc: &mut ScopeEncoder<'_>) -> Json {
    Json::object()
        .field("term", encode_polynomial(&f.term, enc))
        .field("closed_form", encode_exppoly(&f.closed_form, enc))
        .field(
            "bound",
            match &f.bound {
                Some(b) => encode_term(b, enc),
                None => Json::Null,
            },
        )
        .field("exact", Json::Bool(f.exact))
}

fn decode_bound_fact(r: &mut Reader<'_>, dec: &ScopeDecoder<'_>) -> Result<BoundFact, String> {
    r.begin_object()?;
    r.field("term")?;
    let term = decode_polynomial(r, dec)?;
    r.field("closed_form")?;
    let closed_form = decode_exppoly(r, dec)?;
    r.field("bound")?;
    let bound = if r.null()? {
        None
    } else {
        Some(decode_term(r, dec)?)
    };
    r.field("exact")?;
    let exact = r.bool()?;
    r.end_object()?;
    Ok(BoundFact {
        term,
        closed_form,
        bound,
        exact,
    })
}

fn encode_summary(s: &ProcedureSummary, enc: &mut ScopeEncoder<'_>) -> Json {
    Json::object()
        .field("name", Json::str(&s.name))
        .field("recursive", Json::Bool(s.recursive))
        .field("formula", encode_formula(&s.formula, enc))
        .field(
            "bound_facts",
            Json::Array(
                s.bound_facts
                    .iter()
                    .map(|f| encode_bound_fact(f, enc))
                    .collect(),
            ),
        )
        .field(
            "depth",
            match &s.depth {
                Some(d) => encode_depth(d, enc),
                None => Json::Null,
            },
        )
}

/// Decodes one member: its summary, and the verdicts of its asserts into
/// `assertions`.
fn decode_member(
    r: &mut Reader<'_>,
    dec: &ScopeDecoder<'_>,
    assertions: &mut Vec<AssertionResult>,
) -> Result<ProcedureSummary, String> {
    r.begin_object()?;
    r.field("name")?;
    let name = r.string()?.into_owned();
    r.field("recursive")?;
    let recursive = r.bool()?;
    r.field("formula")?;
    let formula = decode_formula(r, dec)?;
    r.field("bound_facts")?;
    let bound_facts = list(r, |r| decode_bound_fact(r, dec))?;
    r.field("depth")?;
    let depth = if r.null()? {
        None
    } else {
        Some(decode_depth(r, dec)?)
    };
    r.field("assertions")?;
    r.begin_array()?;
    while r.next_item()? {
        assertions.push(decode_verdict(r, &name)?);
    }
    r.end_object()?;
    Ok(ProcedureSummary {
        name,
        formula,
        bound_facts,
        depth,
        recursive,
    })
}

/// One verdict as `[label, verified]`; its procedure is the member whose
/// `"assertions"` list holds it.
fn encode_verdict(a: &AssertionResult) -> Json {
    Json::Array(vec![Json::str(&a.label), Json::Bool(a.verified)])
}

fn decode_verdict(r: &mut Reader<'_>, procedure: &str) -> Result<AssertionResult, String> {
    let (label, verified) = pair(r, Reader::string, Reader::bool)?;
    Ok(AssertionResult {
        procedure: procedure.to_string(),
        label: label.into_owned(),
        verified,
    })
}

/// Reads an array, each item through `item`.
fn list<'a, T>(
    r: &mut Reader<'a>,
    mut item: impl FnMut(&mut Reader<'a>) -> Result<T, String>,
) -> Result<Vec<T>, String> {
    let mut items = Vec::new();
    r.begin_array()?;
    while r.next_item()? {
        items.push(item(r)?);
    }
    Ok(items)
}

/// Reads the two-item array `[first, second]`.
fn pair<'a, A, B>(
    r: &mut Reader<'a>,
    first: impl FnOnce(&mut Reader<'a>) -> Result<A, String>,
    second: impl FnOnce(&mut Reader<'a>) -> Result<B, String>,
) -> Result<(A, B), String> {
    r.begin_array()?;
    r.item()?;
    let a = first(r)?;
    Ok((a, last(r, second)?))
}

/// Reads the array's one remaining item through `item`, and its `]`.
fn last<'a, T>(
    r: &mut Reader<'a>,
    item: impl FnOnce(&mut Reader<'a>) -> Result<T, String>,
) -> Result<T, String> {
    r.item()?;
    let value = item(r)?;
    r.end_array()?;
    Ok(value)
}

// ---------------------------------------------------------------------------
// Cache-entry envelope.
// ---------------------------------------------------------------------------

/// Encodes the entry of one call-graph component under its transitive key
/// as a single-line JSON document: each member's summary, with the
/// verdicts of that member's asserts under `"assertions"`.
///
/// Fresh-symbol scopes are replaced by canonical indices into the entry's
/// `"scopes"` table of owning component keys (looked up through `scopes`),
/// so the document is independent of the bottom-up component order — two
/// runs that place the component at different schedule positions write
/// identical bytes.  Returns `None` when a fresh scope has no component
/// key, or a verdict belongs to no member (the entry would not be
/// restorable); callers simply skip caching.
pub fn encode_entry(
    key: &Fingerprint,
    entry: &ComponentEntry,
    scopes: &dyn ScopeResolver,
) -> Option<String> {
    let mut enc = ScopeEncoder::new(scopes);
    let mut placed = 0;
    let encoded: Vec<Json> = entry
        .summaries
        .iter()
        .map(|s| {
            let verdicts: Vec<Json> = entry
                .assertions
                .iter()
                .filter(|a| a.procedure == s.name)
                .map(encode_verdict)
                .collect();
            placed += verdicts.len();
            encode_summary(s, &mut enc).field("assertions", Json::Array(verdicts))
        })
        .collect();
    if enc.failed || placed != entry.assertions.len() {
        return None;
    }
    let doc = Json::object()
        .field("format", Json::str(CACHE_FORMAT))
        .field("version", Json::Int(CACHE_VERSION))
        .field("key", Json::str(key.to_hex()))
        .field(
            "scopes",
            Json::Array(enc.table.iter().map(|k| Json::str(k.to_hex())).collect()),
        )
        .field("summaries", Json::Array(encoded));
    Some(doc.compact())
}

/// Decodes a cache entry, verifying the format tag, version, and key, and
/// rescoping every fresh symbol into the scope this run assigned to its
/// owning component (resolved through `scopes` via the entry's component-key
/// table).  Returns `None` (never panics) on any mismatch, corruption, or
/// impossible rescope — including scopes/serials beyond the packed symbol
/// ceilings; the stores treat that as a corruption eviction.
pub fn decode_entry(
    text: &str,
    expected_key: &Fingerprint,
    scopes: &dyn ScopeResolver,
) -> Option<ComponentEntry> {
    read_entry(text, expected_key, scopes).ok()
}

/// [`decode_entry`], with the reason an entry is refused.
fn read_entry(
    text: &str,
    expected_key: &Fingerprint,
    scopes: &dyn ScopeResolver,
) -> Result<ComponentEntry, String> {
    let mut r = Reader::new(text);
    let (key, table) = read_envelope(&mut r)?;
    if key != *expected_key {
        return Err(format!("entry is keyed {key}"));
    }
    let dec = ScopeDecoder {
        resolver: scopes,
        table,
    };
    let mut entry = ComponentEntry::default();
    while r.next_item()? {
        let summary = decode_member(&mut r, &dec, &mut entry.assertions)?;
        entry.summaries.push(summary);
    }
    close_envelope(r)?;
    Ok(entry)
}

/// Checks a cache entry's *envelope* — format tag, version, embedded key
/// and scopes table — and that the rest is well-formed JSON, and returns
/// the key, without decoding (or rescoping) the summaries themselves.
/// This is the plausibility gate a summary server applies to
/// `PUT /v1/summaries/{key}` bodies and to entries it serves: full decoding
/// needs the *consumer's* scope assignment, which only the analyzing peer
/// has.
pub fn entry_key(text: &str) -> Option<Fingerprint> {
    let mut r = Reader::new(text);
    let (key, _) = read_envelope(&mut r).ok()?;
    while r.next_item().ok()? {
        r.skip().ok()?;
    }
    close_envelope(r).ok()?;
    Some(key)
}

/// Reads an entry up to its members: the format tag and version, which
/// must be this build's, then the embedded key and the scopes table, which
/// it returns, and the `[` of the `"summaries"` array.
fn read_envelope(r: &mut Reader<'_>) -> Result<(Fingerprint, Vec<Fingerprint>), String> {
    r.begin_object()?;
    r.field("format")?;
    if r.string()? != CACHE_FORMAT {
        return Err("not a summary-cache entry".to_string());
    }
    r.field("version")?;
    let version = r.int()?;
    if version != CACHE_VERSION {
        return Err(format!("entry has version {version}"));
    }
    r.field("key")?;
    let key = decode_key(r)?;
    r.field("scopes")?;
    let table = list(r, decode_key)?;
    r.field("summaries")?;
    r.begin_array()?;
    Ok((key, table))
}

/// After the `]` of the members: the end of the entry and of the input.
fn close_envelope(mut r: Reader<'_>) -> Result<(), String> {
    r.end_object()?;
    r.finish()
}

fn decode_key(r: &mut Reader<'_>) -> Result<Fingerprint, String> {
    let text = r.string()?;
    Fingerprint::from_hex(&text).ok_or_else(|| format!("invalid key `{text}`"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use chora_expr::FreshSource;
    use chora_numeric::{rat, ratio};

    fn pvar(name: &str) -> Polynomial {
        Polynomial::var(Symbol::new(name))
    }

    /// A bijective test assignment: scope `s` is owned by the synthetic
    /// component key `BASE + s`, shifted by `offset` — so decoding with a
    /// different offset than encoding mimics a program whose components
    /// moved to new schedule positions.
    struct ShiftScopes(u32);

    const KEY_BASE: u128 = 0xfeed_0000;

    impl ScopeResolver for ShiftScopes {
        fn scope_of(&self, key: &Fingerprint) -> Option<u32> {
            let raw = key.0.checked_sub(KEY_BASE)?;
            u32::try_from(raw).ok()?.checked_add(self.0)
        }

        fn key_of(&self, scope: u32) -> Option<Fingerprint> {
            Some(Fingerprint(
                KEY_BASE + u128::from(scope.checked_sub(self.0)?),
            ))
        }
    }

    /// The identity assignment (offset zero).
    fn same_scopes() -> ShiftScopes {
        ShiftScopes(0)
    }

    fn sample_summary() -> ProcedureSummary {
        let h = Symbol::height();
        let fresh = FreshSource::new(6);
        let t0 = fresh.fresh();
        let formula = TransitionFormula::from_disjuncts(vec![
            Polyhedron::from_atoms(vec![
                Atom::le(pvar("cost'"), &pvar("cost") + &pvar("n")),
                Atom::eq(&pvar("x") * &pvar("x"), pvar("y")),
                Atom::ge(Polynomial::var(t0), Polynomial::constant(ratio(-7, 3))),
            ]),
            Polyhedron::from_atoms(vec![Atom::lt(pvar("n"), Polynomial::zero())]),
        ])
        .with_cap(9);
        let closed_form = ExpPoly::exponential(rat(2), &h).add(&ExpPoly::constant(rat(-1), &h));
        let bound = Term::add(vec![
            Term::pow(Term::int(2), Term::var(Symbol::new("n"))),
            Term::log2(Term::max(vec![Term::one(), Term::var(Symbol::new("n"))])),
            Term::Min(vec![Term::var(Symbol::new("n")), Term::int(5)]),
        ]);
        ProcedureSummary {
            name: "p".to_string(),
            formula,
            bound_facts: vec![BoundFact {
                term: &pvar("cost'") - &pvar("cost"),
                closed_form,
                bound: Some(bound),
                exact: true,
            }],
            depth: Some(DepthBound::Logarithmic(Term::var(Symbol::new("n")))),
            recursive: true,
        }
    }

    /// The sample summary as a one-member entry, with two verdicts.
    fn sample_entry() -> ComponentEntry {
        ComponentEntry {
            summaries: vec![sample_summary()],
            assertions: [("proved", true), ("open", false)]
                .map(|(label, verified)| AssertionResult {
                    procedure: "p".to_string(),
                    label: label.to_string(),
                    verified,
                })
                .to_vec(),
        }
    }

    /// A one-member entry without verdicts.
    fn entry_of(summary: ProcedureSummary) -> ComponentEntry {
        ComponentEntry {
            summaries: vec![summary],
            assertions: Vec::new(),
        }
    }

    #[test]
    fn entry_round_trip_is_exact() {
        let key = Fingerprint(0x1234_5678_9abc_def0_1111_2222_3333_4444);
        let entry = sample_entry();
        let summary = &entry.summaries[0];
        let encoded = encode_entry(&key, &entry, &same_scopes()).expect("encodes");
        let decoded = decode_entry(&encoded, &key, &same_scopes()).expect("decodes");
        assert_eq!(decoded.summaries.len(), 1);
        assert_eq!(decoded.assertions, entry.assertions);
        let d = &decoded.summaries[0];
        assert_eq!(d.name, summary.name);
        assert_eq!(d.recursive, summary.recursive);
        assert_eq!(d.formula, summary.formula);
        assert_eq!(d.formula.cap(), 9);
        assert_eq!(d.depth, summary.depth);
        assert_eq!(d.bound_facts.len(), 1);
        assert_eq!(d.bound_facts[0].term, summary.bound_facts[0].term);
        assert_eq!(
            d.bound_facts[0].closed_form,
            summary.bound_facts[0].closed_form
        );
        assert_eq!(d.bound_facts[0].bound, summary.bound_facts[0].bound);
        assert_eq!(d.bound_facts[0].exact, summary.bound_facts[0].exact);
        // Encoding the decoded value reproduces the exact document.
        assert_eq!(
            encode_entry(&key, &decoded, &same_scopes()).expect("re-encodes"),
            encoded
        );
        // A verdict of a procedure that is not a member has no place in the
        // entry.
        let mut stray = entry.clone();
        stray.assertions[0].procedure = "q".to_string();
        assert!(encode_entry(&key, &stray, &same_scopes()).is_none());
    }

    #[test]
    fn v3_entry_bytes_are_pinned() {
        // Disk caches and the peers of a mixed-version fleet exchange these
        // bytes: changing them needs a `CACHE_VERSION` bump.
        let key = Fingerprint(0x1234_5678_9abc_def0_1111_2222_3333_4444);
        let encoded = encode_entry(&key, &sample_entry(), &same_scopes()).expect("encodes");
        let pinned = concat!(
            r#"{"format":"chora-summary-cache","version":3,"key":"123456789abcdef01111222233334444","#,
            r#""scopes":["000000000000000000000000feed0006"],"summaries":[{"name":"p","recursive":true,"#,
            r#""formula":{"cap":9,"disjuncts":[[[0,[["-1",[["n:cost",1]]],["-1",[["n:n",1]]],"#,
            r#"["1",[["p:cost",1]]]]],[2,[["1",[["n:x",2]]],["-1",[["n:y",1]]]]],"#,
            r#"[0,[["-7",[]],["-3",[["f:0:0",1]]]]]],[[1,[["1",[["n:n",1]]]]]]]},"#,
            r#""bound_facts":[{"term":[["-1",[["n:cost",1]]],["1",[["p:cost",1]]]],"#,
            r#""closed_form":{"param":"h","terms":[["1",[["-1",[]]]],["2",[["1",[]]]]]},"#,
            r#""bound":["+",["^",["c","2"],["v","n:n"]],["log2",["max",["v","n:n"],["c","1"]]],"#,
            r#"["min",["v","n:n"],["c","5"]]],"exact":true}],"depth":["log",["v","n:n"]],"#,
            r#""assertions":[["proved",true],["open",false]]}]}"#,
        );
        assert_eq!(encoded, pinned);
    }

    #[test]
    fn entries_rescope_fresh_symbols_into_the_current_schedule() {
        // The summary was produced by a run where its component sat at
        // scope 6; this run placed the same component (same key) at scope
        // 16.  The restored summary must mention scope-16 symbols.
        let key = Fingerprint(77);
        let encoded = encode_entry(&key, &sample_entry(), &same_scopes()).expect("encodes");
        let restored = decode_entry(&encoded, &key, &ShiftScopes(10)).expect("decodes");
        let shifted_symbol = Symbol::fresh_at(16, 0);
        let mentions_shifted = restored.summaries[0]
            .formula
            .symbols()
            .iter()
            .any(|s| s == &shifted_symbol);
        assert!(
            mentions_shifted,
            "fresh symbols must be rescoped 6 -> 16: {:?}",
            restored.summaries[0].formula.symbols()
        );
        // ... and the document itself is scope-independent: re-encoding the
        // shifted summaries under the shifted schedule reproduces the exact
        // bytes the original run wrote.
        assert_eq!(
            encode_entry(&key, &restored, &ShiftScopes(10)).expect("re-encodes"),
            encoded,
            "serialized form must not depend on the component order"
        );
    }

    #[test]
    fn unrescopable_entries_are_rejected_not_fatal() {
        let key = Fingerprint(78);
        let entry = sample_entry();
        let encoded = encode_entry(&key, &entry, &same_scopes()).expect("encodes");
        // This run has no component with the recorded key at all.
        assert!(
            decode_entry(&encoded, &key, &NullScopes).is_none(),
            "unknown component keys must reject the entry"
        );
        // The component exists but its scope would exceed the packed
        // 14-bit ceiling: reject, never panic (the old fresh_at asserted).
        struct HugeScopes;
        impl ScopeResolver for HugeScopes {
            fn scope_of(&self, _key: &Fingerprint) -> Option<u32> {
                Some(chora_expr::MAX_FRESH_SCOPE + 1)
            }
            fn key_of(&self, scope: u32) -> Option<Fingerprint> {
                Some(Fingerprint(KEY_BASE + u128::from(scope)))
            }
        }
        assert!(
            decode_entry(&encoded, &key, &HugeScopes).is_none(),
            "over-ceiling rescopes must reject the entry"
        );
        // A canonical index pointing past the scopes table is corruption.
        let past_table = encoded.replace("\"f:0:0\"", "\"f:1:0\"");
        assert_ne!(past_table, encoded);
        let refused =
            read_entry(&past_table, &key, &same_scopes()).expect_err("index past the table");
        assert!(refused.contains("invalid symbol `f:1:0`"), "{refused}");
        // Encoding is equally careful: with no key for the scope, the
        // entry is not produced at all (the store just skips caching).
        assert!(encode_entry(&key, &entry, &NullScopes).is_none());
    }

    #[test]
    fn summaries_without_fresh_symbols_need_no_scope_table() {
        let key = Fingerprint(79);
        let summary = ProcedureSummary {
            name: "plain".to_string(),
            formula: TransitionFormula::from_polyhedron(Polyhedron::from_atoms(vec![Atom::le(
                pvar("cost'"),
                &pvar("cost") + &pvar("n"),
            )])),
            bound_facts: Vec::new(),
            depth: None,
            recursive: false,
        };
        let encoded = encode_entry(&key, &entry_of(summary.clone()), &NullScopes)
            .expect("no fresh symbols, no scope lookups");
        assert!(encoded.contains("\"scopes\":[]"));
        let decoded = decode_entry(&encoded, &key, &NullScopes).expect("decodes");
        assert_eq!(decoded.summaries[0].formula, summary.formula);
    }

    #[test]
    fn subsumed_disjuncts_survive_the_round_trip() {
        // Live formulas can carry semantically subsumed disjuncts (conjoin,
        // project_onto, and simplify bypass push_disjunct's filter); the
        // restore path must reproduce them verbatim, not re-filter.
        let wide = Polyhedron::from_atoms(vec![
            Atom::ge(pvar("x"), Polynomial::zero()),
            Atom::le(pvar("x"), Polynomial::constant(rat(5))),
        ]);
        let narrow =
            Polyhedron::from_atoms(vec![Atom::eq(pvar("x"), Polynomial::constant(rat(2)))]);
        let formula = TransitionFormula::from_parts(vec![wide, narrow], 12);
        assert_eq!(formula.disjuncts().len(), 2);
        let summary = ProcedureSummary {
            name: "p".to_string(),
            formula: formula.clone(),
            bound_facts: Vec::new(),
            depth: None,
            recursive: false,
        };
        let key = Fingerprint(5);
        let encoded = encode_entry(&key, &entry_of(summary), &NullScopes).expect("encodes");
        let decoded = decode_entry(&encoded, &key, &NullScopes).expect("decodes");
        assert_eq!(decoded.summaries[0].formula, formula);
        assert_eq!(decoded.summaries[0].formula.disjuncts().len(), 2);
    }

    #[test]
    fn corrupted_entries_are_rejected_not_fatal() {
        let key = Fingerprint(42);
        let good = encode_entry(&key, &sample_entry(), &same_scopes()).expect("encodes");
        let scopes = same_scopes();
        assert!(decode_entry(&good, &key, &scopes).is_some());
        // Wrong key.
        assert!(decode_entry(&good, &Fingerprint(43), &scopes).is_none());
        // Truncation, garbage, wrong version.
        assert!(decode_entry(&good[..good.len() / 2], &key, &scopes).is_none());
        assert!(decode_entry("not json at all", &key, &scopes).is_none());
        assert!(decode_entry("", &key, &scopes).is_none());
        let versioned = good.replace("\"version\":3", "\"version\":999");
        assert!(decode_entry(&versioned, &key, &scopes).is_none());
        // Entries from earlier format versions are ignored wholesale: v1
        // was scope-dependent, and a v2 entry carries no verdicts.
        for old in ["\"version\":1", "\"version\":2"] {
            let old_version = good.replace("\"version\":3", old);
            assert!(decode_entry(&old_version, &key, &scopes).is_none());
            assert!(entry_key(&old_version).is_none());
        }
        // A member without its verdicts, or with a malformed one.
        let no_verdicts = good.replace(",\"assertions\":[[\"proved\",true],[\"open\",false]]", "");
        assert!(decode_entry(&no_verdicts, &key, &scopes).is_none());
        let bad_verdict = good.replace("[\"open\",false]", "[\"open\",\"no\"]");
        assert!(decode_entry(&bad_verdict, &key, &scopes).is_none());
        let wrong_format = good.replace(CACHE_FORMAT, "other-format");
        assert!(decode_entry(&wrong_format, &key, &scopes).is_none());
        // Structurally valid JSON with a malformed symbol.
        let bad_sym = good.replace("n:cost", "zz:cost");
        assert!(decode_entry(&bad_sym, &key, &scopes).is_none());
        // A scopes table with a malformed key.
        let bad_table = good.replacen("\"scopes\":[\"", "\"scopes\":[\"zz", 1);
        assert!(decode_entry(&bad_table, &key, &scopes).is_none());
        // Nesting far past the parser's depth bound: an error, not a stack
        // overflow.
        assert!(decode_entry(&"[".repeat(200_000), &key, &scopes).is_none());
        // The same for a term inside an entry: the reader's depth bound
        // also bounds the term decoder's recursion.
        let deep = format!(
            "{}[\"v\",\"n:n\"]{}",
            "[\"log2\",".repeat(200_000),
            "]".repeat(200_000)
        );
        let deep_term = good.replace("[\"log\",[\"v\",\"n:n\"]]", &format!("[\"log\",{deep}]"));
        assert_ne!(deep_term, good);
        let refused = read_entry(&deep_term, &key, &scopes).expect_err("too deep");
        assert!(refused.contains("nesting deeper"), "{refused}");
        assert!(entry_key(&deep_term).is_none());
    }

    #[test]
    fn a_monomial_that_repeats_a_symbol_is_refused() {
        // `Monomial::from_powers` adds the exponents of a repeated symbol:
        // these two overflow `u32` (a panic in a debug build, `x^0` in a
        // release build).  No encoder writes such a monomial.
        let key = Fingerprint(44);
        let good = encode_entry(&key, &sample_entry(), &same_scopes()).expect("encodes");
        let repeated = good.replace("[[\"n:x\",2]]", "[[\"n:x\",4294967295],[\"n:x\",1]]");
        assert_ne!(repeated, good);
        let refused = read_entry(&repeated, &key, &same_scopes()).expect_err("repeated symbol");
        assert!(refused.contains("repeated"), "{refused}");
        // Its envelope is intact, so a peer would accept it on `PUT`; the
        // decoder is what keeps it out of an analysis.
        assert_eq!(entry_key(&repeated), Some(key));
    }

    #[test]
    fn entries_are_read_in_encoder_order_with_any_whitespace() {
        let key = Fingerprint(45);
        let entry = sample_entry();
        let good = encode_entry(&key, &entry, &same_scopes()).expect("encodes");
        // Whitespace between tokens is allowed.
        let pretty = Json::parse(&good).expect("well-formed").pretty();
        assert_eq!(decode_entry(&pretty, &key, &same_scopes()), Some(entry));
        assert_eq!(entry_key(&pretty), Some(key));
        // Fields in another order, or one the encoder does not write, are
        // corruption.  `entry_key` reads the envelope the same way.
        for changed in [
            good.replacen(
                "\"format\":\"chora-summary-cache\",\"version\":3",
                "\"version\":3,\"format\":\"chora-summary-cache\"",
                1,
            ),
            good.replacen("\"scopes\":[", "\"extra\":1,\"scopes\":[", 1),
            format!("{}{}", &good[..good.len() - 1], ",\"extra\":1}"),
        ] {
            assert_ne!(changed, good);
            assert!(
                decode_entry(&changed, &key, &same_scopes()).is_none(),
                "{changed}"
            );
            assert!(entry_key(&changed).is_none(), "{changed}");
        }
        // Inside a member, which `entry_key` only checks for well-formed JSON.
        for changed in [
            good.replacen(
                "{\"name\":\"p\",\"recursive\":true",
                "{\"recursive\":true,\"name\":\"p\"",
                1,
            ),
            good.replacen("\"exact\":true}", "\"exact\":true,\"extra\":null}", 1),
        ] {
            assert_ne!(changed, good);
            assert!(
                decode_entry(&changed, &key, &same_scopes()).is_none(),
                "{changed}"
            );
            assert_eq!(entry_key(&changed), Some(key));
        }
        // Trailing data after the document.
        assert!(decode_entry(&format!("{good} {{}}"), &key, &same_scopes()).is_none());
        assert!(entry_key(&format!("{good}x")).is_none());
    }

    #[test]
    fn entry_key_checks_the_envelope_and_that_the_rest_is_json() {
        let key = Fingerprint(46);
        let good = encode_entry(&key, &sample_entry(), &same_scopes()).expect("encodes");
        assert_eq!(entry_key(&good), Some(key));
        // A member that is well-formed JSON passes the envelope check (only
        // the analyzing peer can decode it); one that is not is refused.
        let odd_member = good.replacen("\"summaries\":[{", "\"summaries\":[[1,\"a\\\"b\"],{", 1);
        assert_eq!(entry_key(&odd_member), Some(key));
        assert!(decode_entry(&odd_member, &key, &same_scopes()).is_none());
        for broken in [
            good.replacen("\"exact\":true", "\"exact\":tru", 1),
            good.replacen("\"n:cost\"", "\"n:cost", 1),
            good.replacen("[\"proved\",true]", "[\"proved\" true]", 1),
            good.replacen("\"cap\":9,", "\"cap\":9-,", 1),
            good.replacen("\"scopes\":[\"", "\"scopes\":[\"zz", 1),
        ] {
            assert_ne!(broken, good);
            assert!(entry_key(&broken).is_none(), "{broken}");
        }
    }

    /// Builds entries from a word stream (zeros once it runs out): every
    /// symbol kind, with fresh ones at scopes `SCOPE_BASE..SCOPE_BASE + 4`,
    /// rationals inside and past `i64`, terms nested up to four deep, and
    /// names and labels with quotes, backslashes, control characters and
    /// non-ASCII text.
    struct EntryGen<I: Iterator<Item = u64>>(I);

    const SCOPE_BASE: u32 = 20;

    impl<I: Iterator<Item = u64>> EntryGen<I> {
        fn word(&mut self) -> u64 {
            self.0.next().unwrap_or(0)
        }

        fn below(&mut self, n: u64) -> u64 {
            self.word() % n
        }

        fn text(&mut self, prefix: &str) -> String {
            const POOL: [char; 9] = ['"', '\\', '\n', '\u{1}', 'a', ' ', 'é', '😀', ':'];
            let len = self.below(5);
            let mut out = prefix.to_string();
            out.extend((0..len).map(|_| POOL[self.below(POOL.len() as u64) as usize]));
            out
        }

        fn symbol(&mut self) -> Symbol {
            const NAMES: [&str; 5] = ["x", "n", "cost", "ret", "é:2"];
            let w = self.word();
            let name = NAMES[(w >> 8) as usize % NAMES.len()];
            let k = (w >> 16) as u32;
            match w % 10 {
                0 => Symbol::new(name),
                1 => Symbol::post(name),
                2 => Symbol::bound_at_h((k % 8) as usize),
                3 => Symbol::bound_at_h1((k & chora_expr::MAX_SYMBOL_PAYLOAD) as usize),
                4 => Symbol::height(),
                5 => Symbol::depth(),
                6 | 7 => {
                    Symbol::fresh_at(SCOPE_BASE + k % 4, (k >> 2) & chora_expr::MAX_FRESH_SERIAL)
                }
                8 => Symbol::dimension(k & chora_expr::MAX_SYMBOL_PAYLOAD),
                _ => Symbol::scratch(k % 8),
            }
        }

        fn rational(&mut self) -> BigRational {
            let w = self.word();
            let sign = if w & 1 == 0 { "" } else { "-" };
            let num = match (w >> 1) % 3 {
                0 => ((w >> 8) % 10).to_string(),
                1 => (w >> 8).to_string(),
                // Past `i64`.
                _ => format!(
                    "{}{:019}",
                    (w >> 8) % 1000 + 1,
                    self.word() % 10_u64.pow(19)
                ),
            };
            let den = 1 + (w >> 40) % 12;
            format!("{sign}{num}/{den}").parse().expect("a rational")
        }

        fn nonzero(&mut self) -> BigRational {
            let r = self.rational();
            if r.is_zero() {
                BigRational::one()
            } else {
                r
            }
        }

        fn monomial(&mut self) -> Monomial {
            let mut powers: Vec<(Symbol, u32)> = Vec::new();
            for _ in 0..self.below(3) {
                let s = self.symbol();
                let e = match self.below(8) {
                    0 => u32::MAX,
                    e => e as u32 % 3 + 1,
                };
                if powers.iter().all(|(t, _)| *t != s) {
                    powers.push((s, e));
                }
            }
            Monomial::from_powers(powers)
        }

        fn polynomial(&mut self) -> Polynomial {
            let len = self.below(4);
            Polynomial::from_terms(
                (0..len)
                    .map(|_| (self.rational(), self.monomial()))
                    .collect::<Vec<_>>(),
            )
        }

        fn exppoly(&mut self) -> ExpPoly {
            let param = if self.below(2) == 0 {
                Symbol::height()
            } else {
                self.symbol()
            };
            let mut out = ExpPoly::zero(&param);
            for _ in 0..self.below(3) {
                let base = self.nonzero();
                let len = self.below(3);
                let poly = Polynomial::from_terms(
                    (0..len)
                        .map(|_| {
                            let e = self.below(3) as u32;
                            (self.rational(), Monomial::from_powers([(param, e)]))
                        })
                        .collect::<Vec<_>>(),
                );
                out = out.add(&ExpPoly::exp_poly_term(base, poly, &param));
            }
            out
        }

        fn term(&mut self, depth: usize) -> Term {
            let w = self.word();
            let len = (w >> 8) % 3;
            let terms = |g: &mut Self| (0..len).map(|_| g.term(depth + 1)).collect();
            match w % if depth == 4 { 2 } else { 8 } {
                0 => Term::Const(self.rational()),
                1 => Term::Var(self.symbol()),
                2 => Term::Add(terms(self)),
                3 => Term::Mul(terms(self)),
                4 => Term::Pow(
                    Box::new(self.term(depth + 1)),
                    Box::new(self.term(depth + 1)),
                ),
                5 => Term::Log2(Box::new(self.term(depth + 1))),
                6 => Term::Max(terms(self)),
                _ => Term::Min(terms(self)),
            }
        }

        fn formula(&mut self) -> TransitionFormula {
            let cap = 1 + self.below(1_000_000) as usize;
            let disjuncts = (0..self.below(3))
                .map(|_| {
                    let atoms = (0..self.below(3))
                        .map(|_| match self.below(3) {
                            0 => Atom::le_zero(self.polynomial()),
                            1 => Atom::lt_zero(self.polynomial()),
                            _ => Atom::eq_zero(self.polynomial()),
                        })
                        .collect();
                    Polyhedron::from_parts(atoms)
                })
                .collect();
            TransitionFormula::from_parts(disjuncts, cap)
        }

        fn entry(&mut self) -> ComponentEntry {
            let mut entry = ComponentEntry::default();
            for i in 0..1 + self.below(2) {
                let name = self.text(&format!("p{i}"));
                let bound_facts = (0..self.below(3))
                    .map(|_| BoundFact {
                        term: self.polynomial(),
                        closed_form: self.exppoly(),
                        bound: (self.below(3) != 0).then(|| self.term(0)),
                        exact: self.below(2) == 0,
                    })
                    .collect();
                let depth = match self.below(3) {
                    0 => None,
                    1 => Some(DepthBound::Linear(self.term(0))),
                    _ => Some(DepthBound::Logarithmic(self.term(0))),
                };
                entry.summaries.push(ProcedureSummary {
                    name: name.clone(),
                    formula: self.formula(),
                    bound_facts,
                    depth,
                    recursive: self.below(2) == 0,
                });
                for _ in 0..self.below(3) {
                    entry.assertions.push(AssertionResult {
                        procedure: name.clone(),
                        label: self.text(""),
                        verified: self.below(2) == 0,
                    });
                }
            }
            entry
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(96))]

        #[test]
        fn entries_round_trip_and_damaged_ones_are_refused_without_panics(
            words in proptest::collection::vec(proptest::prelude::any::<u64>(), 1..160),
            edits in proptest::collection::vec(proptest::prelude::any::<u64>(), 12)
        ) {
            let entry = EntryGen(words.into_iter()).entry();
            let key = Fingerprint(0xabcd);
            let text = encode_entry(&key, &entry, &same_scopes()).expect("encodes");
            let decoded = decode_entry(&text, &key, &same_scopes());
            proptest::prop_assert_eq!(decoded.as_ref(), Some(&entry), "{}", text);
            proptest::prop_assert_eq!(
                encode_entry(&key, &entry, &same_scopes()).as_deref(),
                Some(text.as_str())
            );
            // Under a schedule that moved every component nine scopes on,
            // the fresh symbols move with them and the bytes stay.
            let moved = decode_entry(&text, &key, &ShiftScopes(9)).expect("rescopes");
            proptest::prop_assert_eq!(
                encode_entry(&key, &moved, &ShiftScopes(9)).as_deref(),
                Some(text.as_str())
            );
            proptest::prop_assert_eq!(moved == entry, !text.contains("\"f:"));
            proptest::prop_assert_eq!(entry_key(&text), Some(key));
            // No proper prefix is an entry.
            for cut in (0..text.len()).filter(|&cut| text.is_char_boundary(cut)) {
                let prefix = &text[..cut];
                proptest::prop_assert!(decode_entry(prefix, &key, &same_scopes()).is_none(), "{}", prefix);
                proptest::prop_assert!(entry_key(prefix).is_none(), "{}", prefix);
            }
            // Single-byte edits decode to something or nothing, never a
            // panic.
            const BYTES: &[u8] = b"{}[],:\"\\ -.0129enpfhv";
            for edit in edits {
                let mut bytes = text.clone().into_bytes();
                let at = (edit % bytes.len() as u64) as usize;
                let byte = BYTES[((edit >> 32) % BYTES.len() as u64) as usize];
                match (edit >> 16) % 3 {
                    0 => bytes[at] = byte,
                    1 => {
                        bytes.remove(at);
                    }
                    _ => bytes.insert(at, byte),
                }
                if let Ok(edited) = String::from_utf8(bytes) {
                    let _ = decode_entry(&edited, &key, &same_scopes());
                    let _ = entry_key(&edited);
                }
            }
        }
    }

    #[test]
    fn symbol_codec_covers_every_kind() {
        let fresh = FreshSource::new(11);
        let syms = vec![
            Symbol::new("x"),
            Symbol::post("x"),
            Symbol::new("ret").primed(),
            Symbol::bound_at_h(3),
            Symbol::bound_at_h1(4),
            Symbol::height(),
            Symbol::depth(),
            fresh.fresh(),
            fresh.fresh(),
            Symbol::dimension(7),
            Symbol::scratch(8),
        ];
        let scopes = same_scopes();
        let mut enc = ScopeEncoder::new(&scopes);
        let encoded: Vec<Json> = syms.iter().map(|s| encode_symbol(s, &mut enc)).collect();
        assert!(!enc.failed);
        let dec = ScopeDecoder {
            resolver: &scopes,
            table: enc.table.clone(),
        };
        for (s, v) in syms.iter().zip(&encoded) {
            let decoded = parse_symbol(v.as_str().expect("a string"), &dec).expect("round-trips");
            assert_eq!(&decoded, s, "symbol {s} must round-trip");
        }
    }

    #[test]
    fn out_of_range_symbols_are_rejected() {
        let scopes = same_scopes();
        let dec = ScopeDecoder {
            resolver: &scopes,
            table: vec![Fingerprint(KEY_BASE)],
        };
        for text in [
            "f:99999:0",   // canonical index beyond the scopes table
            "f:0:99999",   // serial beyond 15 bits
            "b:536870912", // beyond 29-bit payload
            "d:536870912",
            "q:1",
            "f:1",
        ] {
            assert!(
                parse_symbol(text, &dec).is_none(),
                "{text} must be rejected"
            );
        }
        // In range: canonical index 0 resolves through the table.
        assert_eq!(parse_symbol("f:0:3", &dec), Some(Symbol::fresh_at(0, 3)));
    }
}
