//! Content-addressed structural fingerprints of procedures and call-graph
//! components.
//!
//! A summary computed by the bottom-up driver depends on exactly three
//! things: the procedure's own body, the summaries of its callees, and the
//! analysis configuration.  This module turns that dependency cone into a
//! stable 128-bit key:
//!
//! * [`procedure_fingerprint`] hashes one [`Procedure`] *structurally* — a
//!   tagged pre-order walk of the AST in which named symbols are resolved
//!   through their interned **names** (never their interner indices, which
//!   depend on process history) and fresh/scratch/dimension symbols are
//!   numbered by first occurrence, so the hash is alpha-invariant in them;
//! * [`level_keys`] lifts the per-procedure hashes to transitive component
//!   keys over the call graph's SCC levels:
//!   `K(C) = H(salt ‖ member hashes ‖ sorted callee keys)` —
//!   one key identifies a component *and its entire callee cone*, and
//!   nothing else: in particular it is independent of where the component
//!   sits in the bottom-up schedule, so inserting or reordering unrelated
//!   procedures never changes the key of an unchanged cone.  (Restored
//!   summaries are made bit-compatible with a cold run by rescoping their
//!   fresh symbols on load — see `chora_core::cache`.);
//! * [`procedure_keys`] exposes the same information keyed by procedure
//!   name, which is what tests and tooling want.
//!
//! The hash is the 128-bit FNV-1a of [`chora_expr::fingerprint`],
//! re-exported here so `chora_ir::fingerprint::{Fingerprint,
//! FingerprintBuilder}` keep naming it.

use crate::ast::{Cond, Expr, Procedure, Program, Stmt};
use crate::callgraph::{CallGraph, Component};
pub use chora_expr::fingerprint::{Fingerprint, FingerprintBuilder};
use chora_expr::{Symbol, SymbolKind};
use std::collections::BTreeMap;

/// The structural walk: hashes symbols through resolved names and numbers
/// anonymous (fresh/dimension/scratch) symbols by first occurrence.
struct StructuralHasher {
    out: FingerprintBuilder,
    /// De-Bruijn-style numbering of anonymous symbols: the hash of two
    /// procedures that differ only in a variable-order-preserving renaming
    /// of their fresh/scratch symbols is identical.
    anon: BTreeMap<Symbol, u64>,
}

impl StructuralHasher {
    fn new() -> StructuralHasher {
        StructuralHasher {
            out: FingerprintBuilder::new(),
            anon: BTreeMap::new(),
        }
    }

    fn symbol(&mut self, s: &Symbol) {
        match s.kind() {
            SymbolKind::Named => {
                self.out.write_tag(0x01).write_str(&s.to_string());
            }
            SymbolKind::Post => {
                self.out
                    .write_tag(0x02)
                    .write_str(&s.unprimed().to_string());
            }
            SymbolKind::BoundAtH(k) => {
                self.out.write_tag(0x03).write_u64(k as u64);
            }
            SymbolKind::BoundAtH1(k) => {
                self.out.write_tag(0x04).write_u64(k as u64);
            }
            SymbolKind::Height => {
                self.out.write_tag(0x05);
            }
            SymbolKind::Depth => {
                self.out.write_tag(0x06);
            }
            // Anonymous kinds: alpha-invariant first-occurrence numbering.
            SymbolKind::Fresh { .. } | SymbolKind::Dimension(_) | SymbolKind::Scratch(_) => {
                let next = self.anon.len() as u64;
                let id = *self.anon.entry(*s).or_insert(next);
                self.out.write_tag(0x07).write_u64(id);
            }
        }
    }

    fn expr(&mut self, e: &Expr) {
        match e {
            Expr::Const(v) => {
                self.out.write_tag(0x10).write_i64(*v);
            }
            Expr::Var(s) => {
                self.out.write_tag(0x11);
                self.symbol(s);
            }
            Expr::Add(a, b) => {
                self.out.write_tag(0x12);
                self.expr(a);
                self.expr(b);
            }
            Expr::Sub(a, b) => {
                self.out.write_tag(0x13);
                self.expr(a);
                self.expr(b);
            }
            Expr::Mul(a, b) => {
                self.out.write_tag(0x14);
                self.expr(a);
                self.expr(b);
            }
            Expr::DivConst(a, c) => {
                self.out.write_tag(0x15);
                self.expr(a);
                self.out.write_i64(*c);
            }
        }
    }

    fn cond(&mut self, c: &Cond) {
        match c {
            Cond::Cmp(a, op, b) => {
                self.out.write_tag(0x20).write_tag(*op as u8);
                self.expr(a);
                self.expr(b);
            }
            Cond::And(a, b) => {
                self.out.write_tag(0x21);
                self.cond(a);
                self.cond(b);
            }
            Cond::Or(a, b) => {
                self.out.write_tag(0x22);
                self.cond(a);
                self.cond(b);
            }
            Cond::Not(a) => {
                self.out.write_tag(0x23);
                self.cond(a);
            }
            Cond::Nondet => {
                self.out.write_tag(0x24);
            }
        }
    }

    fn stmt(&mut self, s: &Stmt) {
        match s {
            Stmt::Skip => {
                self.out.write_tag(0x30);
            }
            Stmt::Assign(v, e) => {
                self.out.write_tag(0x31);
                self.symbol(v);
                self.expr(e);
            }
            Stmt::Havoc(v) => {
                self.out.write_tag(0x32);
                self.symbol(v);
            }
            Stmt::Assume(c) => {
                self.out.write_tag(0x33);
                self.cond(c);
            }
            Stmt::Assert(c, label) => {
                self.out.write_tag(0x34).write_str(label);
                self.cond(c);
            }
            Stmt::Seq(stmts) => {
                self.out.write_tag(0x35).write_u64(stmts.len() as u64);
                for s in stmts {
                    self.stmt(s);
                }
            }
            Stmt::If(c, a, b) => {
                self.out.write_tag(0x36);
                self.cond(c);
                self.stmt(a);
                self.stmt(b);
            }
            Stmt::While(c, b) => {
                self.out.write_tag(0x37);
                self.cond(c);
                self.stmt(b);
            }
            Stmt::Call { callee, args, ret } => {
                self.out.write_tag(0x38).write_str(callee);
                self.out.write_u64(args.len() as u64);
                for a in args {
                    self.expr(a);
                }
                match ret {
                    Some(v) => {
                        self.out.write_tag(0x01);
                        self.symbol(v);
                    }
                    None => {
                        self.out.write_tag(0x00);
                    }
                }
            }
            Stmt::Return(e) => {
                self.out.write_tag(0x39);
                match e {
                    Some(e) => {
                        self.out.write_tag(0x01);
                        self.expr(e);
                    }
                    None => {
                        self.out.write_tag(0x00);
                    }
                }
            }
        }
    }
}

/// The structural fingerprint of one procedure: name, parameters, locals (in
/// declaration order — they determine the summarizer's variable vocabulary
/// order), and the body AST.
pub fn procedure_fingerprint(proc: &Procedure) -> Fingerprint {
    let mut h = StructuralHasher::new();
    h.out.write_str(&proc.name);
    h.out.write_u64(proc.params.len() as u64);
    for p in &proc.params {
        h.symbol(p);
    }
    h.out.write_u64(proc.locals.len() as u64);
    for l in &proc.locals {
        h.symbol(l);
    }
    h.stmt(&proc.body);
    h.out.finish()
}

/// Transitive cache keys for every component of `levels` (the output of
/// [`CallGraph::component_levels`]), mirroring the driver's schedule.
///
/// The key of a component mixes the caller-provided `salt` (analysis
/// configuration, global-variable vocabulary, cache-format version), the
/// member fingerprints in member order, and the sorted keys of all callee
/// components — so a key equality certifies that the whole callee cone is
/// unchanged.  Deliberately **not** mixed in: the component's position in
/// the bottom-up schedule (its fresh-symbol scope).  Scope used to be part
/// of the key, which made inserting one procedure early in a program shift
/// every later component's scope and spuriously evict summaries whose cone
/// was byte-for-byte unchanged; instead, restored summaries are rescoped
/// into the current schedule on load (`chora_core::cache`).
pub fn level_keys(
    program: &Program,
    callgraph: &CallGraph,
    levels: &[Vec<Component>],
    salt: Fingerprint,
) -> Vec<Vec<Fingerprint>> {
    let mut key_of: BTreeMap<&str, Fingerprint> = BTreeMap::new();
    let mut out: Vec<Vec<Fingerprint>> = Vec::with_capacity(levels.len());
    for level in levels {
        let mut level_out = Vec::with_capacity(level.len());
        for component in level {
            let mut b = FingerprintBuilder::new();
            b.write_fingerprint(salt);
            b.write_bool(component.recursive);
            b.write_u64(component.members.len() as u64);
            for member in &component.members {
                b.write_str(member);
                if let Some(proc) = program.procedure(member) {
                    b.write_fingerprint(procedure_fingerprint(proc));
                }
            }
            // Sorted, deduplicated keys of callee components outside this one.
            let mut callee_keys: Vec<Fingerprint> = component
                .members
                .iter()
                .flat_map(|m| callgraph.callees(m))
                .filter(|callee| !component.members.contains(callee))
                .filter_map(|callee| key_of.get(callee.as_str()).copied())
                .collect();
            callee_keys.sort_unstable();
            callee_keys.dedup();
            b.write_u64(callee_keys.len() as u64);
            for k in callee_keys {
                b.write_fingerprint(k);
            }
            let key = b.finish();
            for member in &component.members {
                key_of.insert(member.as_str(), key);
            }
            level_out.push(key);
        }
        out.push(level_out);
    }
    out
}

/// Per-procedure transitive keys: the key of the procedure's component
/// (see [`level_keys`]) mixed with the procedure name.
pub fn procedure_keys(program: &Program, salt: Fingerprint) -> BTreeMap<String, Fingerprint> {
    let callgraph = CallGraph::build(program);
    let levels = callgraph.component_levels();
    let keys = level_keys(program, &callgraph, &levels, salt);
    let mut out = BTreeMap::new();
    for (level, level_keys) in levels.iter().zip(keys.iter()) {
        for (component, key) in level.iter().zip(level_keys.iter()) {
            for member in &component.members {
                let mut b = FingerprintBuilder::new();
                b.write_fingerprint(*key);
                b.write_str(member);
                out.insert(member.clone(), b.finish());
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use chora_expr::FreshSource;

    fn leaf(name: &str, k: i64) -> Procedure {
        Procedure::new(
            name,
            &["n"],
            &[],
            Stmt::seq(vec![
                Stmt::assign("cost", Expr::var("cost").add(Expr::int(k))),
                Stmt::Return(Some(Expr::var("n"))),
            ]),
        )
    }

    fn caller(name: &str, callee: &str) -> Procedure {
        Procedure::new(
            name,
            &["n"],
            &["r"],
            Stmt::call_assign("r", callee, vec![Expr::var("n")]),
        )
    }

    fn program(procs: Vec<Procedure>) -> Program {
        let mut prog = Program::new();
        prog.add_global("cost");
        for p in procs {
            prog.add_procedure(p);
        }
        prog
    }

    #[test]
    fn fingerprint_is_deterministic_and_body_sensitive() {
        let a = procedure_fingerprint(&leaf("f", 1));
        let b = procedure_fingerprint(&leaf("f", 1));
        assert_eq!(a, b);
        assert_ne!(a, procedure_fingerprint(&leaf("f", 2)));
        assert_ne!(a, procedure_fingerprint(&leaf("g", 1)));
    }

    #[test]
    fn fingerprint_is_alpha_invariant_in_fresh_symbols() {
        // Two bodies identical up to the identity of their fresh temporaries
        // (different scopes, different serial offsets) hash identically.
        let s1 = FreshSource::new(3);
        let s2 = FreshSource::new(9);
        let _ = s2.fresh(); // shift serials
        let body = |a: Symbol, b: Symbol| {
            Stmt::seq(vec![
                Stmt::Assign(a, Expr::var("n")),
                Stmt::Assign(b, Expr::Var(a).add(Expr::int(1))),
            ])
        };
        let p1 = Procedure {
            name: "p".to_string(),
            params: vec![Symbol::new("n")],
            locals: vec![],
            body: body(s1.fresh(), s1.fresh()),
        };
        let p2 = Procedure {
            name: "p".to_string(),
            params: vec![Symbol::new("n")],
            locals: vec![],
            body: body(s2.fresh(), s2.fresh()),
        };
        assert_eq!(procedure_fingerprint(&p1), procedure_fingerprint(&p2));
        // ... but swapping the two temporaries' roles changes the hash.
        let t1 = FreshSource::new(4).fresh();
        let t2 = FreshSource::new(5).fresh();
        let p3 = Procedure {
            name: "p".to_string(),
            params: vec![Symbol::new("n")],
            locals: vec![],
            body: Stmt::seq(vec![
                Stmt::Assign(t2, Expr::var("n")),
                Stmt::Assign(t1, Expr::Var(t2).add(Expr::int(1))),
            ]),
        };
        assert_eq!(procedure_fingerprint(&p1), procedure_fingerprint(&p3));
    }

    #[test]
    fn edit_changes_only_the_dirty_cone() {
        let salt = Fingerprint(1);
        let original = program(vec![
            leaf("leaf", 1),
            leaf("other", 5),
            caller("mid", "leaf"),
            caller("main", "mid"),
        ]);
        let edited = program(vec![
            leaf("leaf", 2), // single-statement edit
            leaf("other", 5),
            caller("mid", "leaf"),
            caller("main", "mid"),
        ]);
        let before = procedure_keys(&original, salt);
        let after = procedure_keys(&edited, salt);
        assert_ne!(before["leaf"], after["leaf"]);
        assert_ne!(before["mid"], after["mid"]);
        assert_ne!(before["main"], after["main"]);
        assert_eq!(before["other"], after["other"]);
    }

    #[test]
    fn keys_are_independent_of_component_order() {
        let salt = Fingerprint(9);
        let original = program(vec![
            leaf("leaf", 1),
            caller("mid", "leaf"),
            caller("main", "mid"),
        ]);
        // Prepending an unrelated procedure shifts every component's
        // bottom-up scope, but must not change a single preexisting key.
        let prepended = program(vec![
            leaf("unrelated", 3),
            leaf("leaf", 1),
            caller("mid", "leaf"),
            caller("main", "mid"),
        ]);
        // Reordering independent procedures must not either.
        let reordered = program(vec![
            caller("main", "mid"),
            caller("mid", "leaf"),
            leaf("unrelated", 3),
            leaf("leaf", 1),
        ]);
        let before = procedure_keys(&original, salt);
        let with_pad = procedure_keys(&prepended, salt);
        let shuffled = procedure_keys(&reordered, salt);
        for name in ["leaf", "mid", "main"] {
            assert_eq!(
                before[name], with_pad[name],
                "`{name}` key must survive a prepend"
            );
            assert_eq!(
                with_pad[name], shuffled[name],
                "`{name}` key must survive a reorder"
            );
        }
        assert!(!before.contains_key("unrelated"));
        assert_eq!(with_pad["unrelated"], shuffled["unrelated"]);
    }

    #[test]
    fn salt_reaches_every_key() {
        let prog = program(vec![leaf("leaf", 1), caller("main", "leaf")]);
        let a = procedure_keys(&prog, Fingerprint(1));
        let b = procedure_keys(&prog, Fingerprint(2));
        for name in ["leaf", "main"] {
            assert_ne!(a[name], b[name]);
        }
    }

    #[test]
    fn hex_round_trip() {
        let fp = procedure_fingerprint(&leaf("f", 1));
        assert_eq!(Fingerprint::from_hex(&fp.to_hex()), Some(fp));
        assert_eq!(fp.to_hex().len(), 32);
        assert!(Fingerprint::from_hex("xyz").is_none());
    }
}
