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
//! The encoding is a one-line JSON document, built, rendered
//! ([`Json::compact`]) and parsed with [`chora_telemetry::json`], and
//! designed for *exact* round-trips:
//! decoding an encoded [`ProcedureSummary`] reproduces the original value
//! bit-for-bit, including the internal order of polyhedron atoms and
//! transition-formula disjuncts, so a cache hit leaves no observable trace
//! in the analysis output.
//!
//! Symbols are serialized **by name and kind**, never by interner index
//! (indices depend on process history); on load they are re-interned
//! through [`Symbol::new`] and friends.  Rationals are serialized as
//! `"num"` / `"num/den"` strings so no precision is lost.  Every decoder is
//! fallible: a corrupted or version-mismatched document yields `None` and
//! the caller discards the cache entry — corruption is never fatal.
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
use chora_numeric::BigRational;
use chora_telemetry::json::Json;
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

fn decode_symbol(v: &Json, dec: &ScopeDecoder<'_>) -> Option<Symbol> {
    let text = v.as_str()?;
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

fn encode_rational(r: &BigRational) -> Json {
    Json::Str(r.to_string())
}

fn decode_rational(v: &Json) -> Option<BigRational> {
    v.as_str()?.parse().ok()
}

fn encode_monomial(m: &Monomial, enc: &mut ScopeEncoder<'_>) -> Json {
    Json::Array(
        m.powers()
            .map(|(s, e)| Json::Array(vec![encode_symbol(s, enc), Json::Int(i64::from(e))]))
            .collect(),
    )
}

fn decode_monomial(v: &Json, dec: &ScopeDecoder<'_>) -> Option<Monomial> {
    let mut powers = Vec::new();
    for item in v.as_array()? {
        let [sym, exp] = item.as_array()? else {
            return None;
        };
        let e = exp.as_int()?;
        if !(0..=i64::from(u32::MAX)).contains(&e) {
            return None;
        }
        powers.push((decode_symbol(sym, dec)?, e as u32));
    }
    Some(Monomial::from_powers(powers))
}

fn encode_polynomial(p: &Polynomial, enc: &mut ScopeEncoder<'_>) -> Json {
    Json::Array(
        p.terms()
            .map(|(m, c)| Json::Array(vec![encode_rational(c), encode_monomial(m, enc)]))
            .collect(),
    )
}

fn decode_polynomial(v: &Json, dec: &ScopeDecoder<'_>) -> Option<Polynomial> {
    let mut terms = Vec::new();
    for item in v.as_array()? {
        let [coeff, mono] = item.as_array()? else {
            return None;
        };
        terms.push((decode_rational(coeff)?, decode_monomial(mono, dec)?));
    }
    Some(Polynomial::from_terms(terms))
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

fn decode_exppoly(v: &Json, dec: &ScopeDecoder<'_>) -> Option<ExpPoly> {
    let param = decode_symbol(v.get("param")?, dec)?;
    let mut out = ExpPoly::zero(&param);
    for item in v.get("terms")?.as_array()? {
        let [base, poly] = item.as_array()? else {
            return None;
        };
        let base = decode_rational(base)?;
        let poly = decode_polynomial(poly, dec)?;
        // Guard the constructor invariants (they panic on violation).
        if base.is_zero() || poly.symbols().iter().any(|s| s != &param) {
            return None;
        }
        out = out.add(&ExpPoly::exp_poly_term(base, poly, &param));
    }
    Some(out)
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

fn decode_term(v: &Json, dec: &ScopeDecoder<'_>) -> Option<Term> {
    let items = v.as_array()?;
    let (tag, rest) = items.split_first()?;
    let tag = tag.as_str()?;
    let list =
        |rest: &[Json]| -> Option<Vec<Term>> { rest.iter().map(|t| decode_term(t, dec)).collect() };
    match (tag, rest) {
        ("c", [c]) => Some(Term::Const(decode_rational(c)?)),
        ("v", [s]) => Some(Term::Var(decode_symbol(s, dec)?)),
        ("+", _) => Some(Term::Add(list(rest)?)),
        ("*", _) => Some(Term::Mul(list(rest)?)),
        ("^", [b, e]) => Some(Term::Pow(
            Box::new(decode_term(b, dec)?),
            Box::new(decode_term(e, dec)?),
        )),
        ("log2", [x]) => Some(Term::Log2(Box::new(decode_term(x, dec)?))),
        ("max", _) => Some(Term::Max(list(rest)?)),
        ("min", _) => Some(Term::Min(list(rest)?)),
        _ => None,
    }
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

fn decode_atom(v: &Json, dec: &ScopeDecoder<'_>) -> Option<Atom> {
    let [kind, poly] = v.as_array()? else {
        return None;
    };
    let poly = decode_polynomial(poly, dec)?;
    Some(match kind.as_int()? {
        0 => Atom::le_zero(poly),
        1 => Atom::lt_zero(poly),
        2 => Atom::eq_zero(poly),
        _ => return None,
    })
}

fn encode_polyhedron(p: &Polyhedron, enc: &mut ScopeEncoder<'_>) -> Json {
    Json::Array(p.atoms().iter().map(|a| encode_atom(a, enc)).collect())
}

fn decode_polyhedron(v: &Json, dec: &ScopeDecoder<'_>) -> Option<Polyhedron> {
    let atoms: Option<Vec<Atom>> = v.as_array()?.iter().map(|a| decode_atom(a, dec)).collect();
    Some(Polyhedron::from_parts(atoms?))
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

fn decode_formula(v: &Json, dec: &ScopeDecoder<'_>) -> Option<TransitionFormula> {
    let cap = v.get("cap")?.as_int()?;
    if !(1..=1_000_000).contains(&cap) {
        return None;
    }
    let disjuncts: Option<Vec<Polyhedron>> = v
        .get("disjuncts")?
        .as_array()?
        .iter()
        .map(|d| decode_polyhedron(d, dec))
        .collect();
    Some(TransitionFormula::from_parts(disjuncts?, cap as usize))
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

fn decode_depth(v: &Json, dec: &ScopeDecoder<'_>) -> Option<DepthBound> {
    let [tag, t] = v.as_array()? else {
        return None;
    };
    let t = decode_term(t, dec)?;
    match tag.as_str()? {
        "lin" => Some(DepthBound::Linear(t)),
        "log" => Some(DepthBound::Logarithmic(t)),
        _ => None,
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

fn decode_bound_fact(v: &Json, dec: &ScopeDecoder<'_>) -> Option<BoundFact> {
    Some(BoundFact {
        term: decode_polynomial(v.get("term")?, dec)?,
        closed_form: decode_exppoly(v.get("closed_form")?, dec)?,
        bound: match v.get("bound")? {
            Json::Null => None,
            b => Some(decode_term(b, dec)?),
        },
        exact: v.get("exact")?.as_bool()?,
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

fn decode_summary(v: &Json, dec: &ScopeDecoder<'_>) -> Option<ProcedureSummary> {
    let bound_facts: Option<Vec<BoundFact>> = v
        .get("bound_facts")?
        .as_array()?
        .iter()
        .map(|f| decode_bound_fact(f, dec))
        .collect();
    Some(ProcedureSummary {
        name: v.get("name")?.as_str()?.to_string(),
        formula: decode_formula(v.get("formula")?, dec)?,
        bound_facts: bound_facts?,
        depth: match v.get("depth")? {
            Json::Null => None,
            d => Some(decode_depth(d, dec)?),
        },
        recursive: v.get("recursive")?.as_bool()?,
    })
}

/// One verdict as `[label, verified]`; its procedure is the member whose
/// `"assertions"` list holds it.
fn encode_verdict(a: &AssertionResult) -> Json {
    Json::Array(vec![Json::str(&a.label), Json::Bool(a.verified)])
}

fn decode_verdict(v: &Json, procedure: &str) -> Option<AssertionResult> {
    let [label, verified] = v.as_array()? else {
        return None;
    };
    Some(AssertionResult {
        procedure: procedure.to_string(),
        label: label.as_str()?.to_string(),
        verified: verified.as_bool()?,
    })
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
    let doc = Json::parse(text).ok()?;
    if doc.get("format")?.as_str()? != CACHE_FORMAT {
        return None;
    }
    if doc.get("version")?.as_int()? != CACHE_VERSION {
        return None;
    }
    if Fingerprint::from_hex(doc.get("key")?.as_str()?)? != *expected_key {
        return None;
    }
    let table: Option<Vec<Fingerprint>> = doc
        .get("scopes")?
        .as_array()?
        .iter()
        .map(|v| Fingerprint::from_hex(v.as_str()?))
        .collect();
    let dec = ScopeDecoder {
        resolver: scopes,
        table: table?,
    };
    let mut entry = ComponentEntry::default();
    for member in doc.get("summaries")?.as_array()? {
        let summary = decode_summary(member, &dec)?;
        for verdict in member.get("assertions")?.as_array()? {
            entry
                .assertions
                .push(decode_verdict(verdict, &summary.name)?);
        }
        entry.summaries.push(summary);
    }
    Some(entry)
}

/// Checks a cache entry's *envelope* — format tag, version, and embedded
/// key — and returns the key, without decoding (or rescoping) the
/// summaries themselves.  This is the plausibility gate a summary server
/// applies to `PUT /v1/summaries/{key}` bodies and to entries it serves:
/// full decoding needs the *consumer's* scope assignment, which only the
/// analyzing peer has.
pub fn entry_key(text: &str) -> Option<Fingerprint> {
    let doc = Json::parse(text).ok()?;
    if doc.get("format")?.as_str()? != CACHE_FORMAT {
        return None;
    }
    if doc.get("version")?.as_int()? != CACHE_VERSION {
        return None;
    }
    doc.get("summaries")?.as_array()?;
    Fingerprint::from_hex(doc.get("key")?.as_str()?)
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
        let truncated_table = encoded.replace("\"scopes\":[\"", "\"scopes\":[], \"unused\":[\"");
        assert!(decode_entry(&truncated_table, &key, &same_scopes()).is_none());
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
            let decoded = decode_symbol(v, &dec).expect("round-trips");
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
                decode_symbol(&Json::Str(text.into()), &dec).is_none(),
                "{text} must be rejected"
            );
        }
        // In range: canonical index 0 resolves through the table.
        assert_eq!(
            decode_symbol(&Json::Str("f:0:3".into()), &dec),
            Some(Symbol::fresh_at(0, 3))
        );
    }
}
