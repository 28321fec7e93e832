//! The interprocedural CHORA driver.
//!
//! Procedures are analysed bottom-up over the strongly connected components
//! of the call graph (§4).  Non-recursive components are summarized directly
//! by the intra-procedural analysis; recursive components go through
//! height-based recurrence analysis (§4.1 / §4.4) and depth-bound analysis
//! (§4.2), and their summaries combine the solved bounding functions with the
//! depth bound as in Eqn. (4).  Once a component's summaries are published,
//! its members' bodies are re-analysed with them to discharge their
//! assertions; a component that hits the summary store takes its summaries
//! and verdicts from the store entry instead.
//!
//! Scheduling is a dependency-counted ready queue over one merged task graph
//! (one task per component, across every program of a batch): a task becomes
//! runnable the moment its callee components finish, with no barrier between
//! topological levels, and results are folded back in a fixed canonical
//! order so the output is byte-identical for every worker count.

use crate::cache::ComponentScopes;
use crate::complexity::term_to_polynomial;
use crate::depth::{depth_bound, polynomial_to_term, DepthBound};
use crate::height::{analyze_scc, HeightAnalysis};
use crate::lower::lower_cond_post;
use crate::store::{CacheStats, ComponentEntry, SummaryStore};
use crate::summarize::{Summarizer, Visit};
use chora_expr::{ExpPoly, FreshSource, Polynomial, Symbol, Term};
use chora_ir::{
    fingerprint::level_keys, CallGraph, Component, Cond, Fingerprint, FingerprintBuilder,
    Procedure, Program, Stmt,
};
use chora_logic::{Atom, EmptinessMemo, Polyhedron, TransitionFormula};
use chora_telemetry::trace;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::ops::ControlFlow;
use std::sync::OnceLock;

/// Analysis configuration (used for ablation experiments).
#[derive(Clone, Debug)]
pub struct AnalysisConfig {
    /// Whether depth-bound analysis (§4.2) is applied; without it the
    /// height-indexed bounds cannot be related to the pre-state.
    pub enable_depth_bounds: bool,
    /// Whether polynomial closed forms are pushed back into the polyhedral
    /// summary formula (improves assertion checking).
    pub enable_polynomial_facts: bool,
    /// Number of worker threads pulling analysis tasks (one per component:
    /// summarize it, then check its members' asserts) off the shared ready
    /// queue; a task is enqueued as soon as the components it calls into
    /// have finished.  `1` means fully sequential; `0` means one
    /// worker per available core.  The analysis result is identical for
    /// every value — scheduling only affects wall-clock time.
    pub jobs: usize,
}

impl Default for AnalysisConfig {
    fn default() -> Self {
        AnalysisConfig {
            enable_depth_bounds: true,
            enable_polynomial_facts: true,
            jobs: 1,
        }
    }
}

/// A solved bound fact `τ ≤ bound` of a recursive procedure.
#[derive(Clone, Debug, PartialEq)]
pub struct BoundFact {
    /// The relational expression `τ` over `Var ∪ Var'`.
    pub term: Polynomial,
    /// The closed-form bounding function `b(h)`.
    pub closed_form: ExpPoly,
    /// The bound with the depth bound substituted for `h` (over pre-state
    /// variables), when a depth bound is available.
    pub bound: Option<Term>,
    /// Whether the closed form solves the extracted recurrence exactly.
    pub exact: bool,
}

/// The summary computed for one procedure.
#[derive(Clone, Debug, PartialEq)]
pub struct ProcedureSummary {
    /// Procedure name.
    pub name: String,
    /// Sound polyhedral transition formula over `globals ∪ params` (pre) and
    /// `globals' ∪ ret'`.
    pub formula: TransitionFormula,
    /// Height-indexed bound facts (recursive procedures only).
    pub bound_facts: Vec<BoundFact>,
    /// Depth bound `ζ_P` (recursive procedures only).
    pub depth: Option<DepthBound>,
    /// Whether the procedure belongs to a recursive SCC.
    pub recursive: bool,
}

/// The verdict for one assertion.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AssertionResult {
    /// The procedure containing the assertion.
    pub procedure: String,
    /// The assertion label.
    pub label: String,
    /// Whether the analysis proved the assertion.
    pub verified: bool,
}

/// Cumulative per-phase wall-clock of one analysis run.
///
/// Durations are summed across worker tasks (so with `--jobs N` they read
/// as CPU time, not elapsed time); `parse` is not included because parsing
/// happens in the front end, before the analyzer runs.  Each column is the
/// sum of its trace spans' durations (`summarize` spans for the first two,
/// `check` spans for the third), read off the same clock.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct PhaseTimings {
    /// Intra-procedural summarization of the non-recursive components
    /// (formula construction, loop closure).
    pub summarize_ms: f64,
    /// The recursive components: height-based recurrence extraction and
    /// solving, depth-bound analysis and the summaries built from them.
    pub solve_ms: f64,
    /// Assertion checking: one `check` span per summarized component, which
    /// checks the asserts of all its members (zero for the components whose
    /// verdicts a store hit restored).
    pub check_ms: f64,
}

/// The result of analysing a whole program.
#[derive(Clone, Debug, Default)]
pub struct AnalysisResult {
    /// Per-procedure summaries.
    pub summaries: BTreeMap<String, ProcedureSummary>,
    /// Assertion verdicts, in program order.
    pub assertions: Vec<AssertionResult>,
    /// Summary-cache counters (all zero when no store was supplied).
    pub cache: CacheStats,
    /// Per-phase timings.
    pub timings: PhaseTimings,
}

impl AnalysisResult {
    /// Convenience: whether every assertion in the program was proved.
    pub fn all_assertions_verified(&self) -> bool {
        self.assertions.iter().all(|a| a.verified)
    }

    /// Convenience: the summary of a procedure.
    pub fn summary(&self, name: &str) -> Option<&ProcedureSummary> {
        self.summaries.get(name)
    }
}

/// The CHORA analyzer.
#[derive(Clone, Debug, Default)]
pub struct Analyzer {
    /// Configuration knobs.
    pub config: AnalysisConfig,
}

impl Analyzer {
    /// Creates an analyzer with the default configuration.
    pub fn new() -> Analyzer {
        Analyzer::default()
    }

    /// Creates an analyzer with a custom configuration.
    pub fn with_config(config: AnalysisConfig) -> Analyzer {
        Analyzer { config }
    }

    /// The number of worker threads the configuration resolves to.
    pub fn effective_jobs(&self) -> usize {
        if self.config.jobs == 0 {
            std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1)
        } else {
            self.config.jobs
        }
    }

    /// Analyses a program: computes procedure summaries bottom-up over the
    /// call graph's strongly connected components and checks every assertion.
    ///
    /// Components are scheduled through a dependency-counted *ready queue*:
    /// each component counts the distinct components it calls into, becomes
    /// runnable the instant that count drains to zero, and is pulled by one
    /// of [`AnalysisConfig::jobs`] scoped worker threads — no level barrier,
    /// so a deep dependency chain overlaps with whatever else is runnable.
    /// Workers publish finished summaries into the shared summary table
    /// (behind the summarizer's `RwLock`) before releasing dependents.
    /// Every task draws its existential symbols from an own deterministic
    /// [`FreshSource`] keyed by the component's position in the bottom-up
    /// schedule, and outputs are folded back in that fixed order, so the
    /// result — down to the byte — is independent of the schedule.
    pub fn analyze(&self, program: &Program) -> AnalysisResult {
        self.analyze_with_store(program, None)
    }

    /// [`Analyzer::analyze`] backed by a summary cache.
    ///
    /// Before summarizing, each component's transitive fingerprint (see
    /// [`chora_ir::fingerprint`]) is looked up in `store`: a hit restores
    /// the cached summaries and the members' assertion verdicts — skipping
    /// intra-procedural summarization, height/depth/recurrence solving and
    /// the members' assertion walks entirely.  Only the dirty cone
    /// (components whose own body, callee cone, or analysis configuration
    /// changed) is re-summarized, re-checked and re-stored; in particular a
    /// component's *position* in the bottom-up schedule is not part of its
    /// key — prepending or reordering unrelated procedures keeps every
    /// unchanged cone warm.  Restored summaries are rescoped on load: the
    /// per-component fresh-symbol scope the driver assigned *this* run is
    /// threaded to the store through a [`ComponentScopes`] resolver, so
    /// hits are bit-compatible with a cold run of the current program.
    /// The analysis result, including every byte of the derived reports,
    /// is identical with and without a store.
    pub fn analyze_with_store(
        &self,
        program: &Program,
        store: Option<&dyn SummaryStore>,
    ) -> AnalysisResult {
        self.analyze_batch_with_store(&[program], store)
            .pop()
            .expect("a batch of one yields one result")
    }

    /// Analyses several programs as **one scheduling problem**: the task of
    /// every component of every program goes into a single
    /// dependency-counted ready queue drained by [`AnalysisConfig::jobs`]
    /// workers.  A task's dependencies are exactly the callee components it
    /// needs summaries from — for its summaries and for its members'
    /// assertion checks alike — so workers flow across program and level
    /// boundaries: one program's slow deep-chain component no longer holds
    /// up another's independent work, and a component's asserts are checked
    /// while unrelated components are still summarizing.  That is what
    /// makes `/v1/batch` faster than N independent runs.
    ///
    /// Per-program scope assignment, summary-table fold order, and cache
    /// keys are exactly those of [`Analyzer::analyze_with_store`] run on
    /// that program alone (each program gets its own [`Summarizer`] and its
    /// own scope counter), so every element of the returned vector is
    /// identical — byte for byte in all derived reports — to its
    /// single-program run.  The one exception: the eviction counters are
    /// deltas over the whole batch (the store is shared), reported
    /// identically on every element.
    pub fn analyze_batch_with_store(
        &self,
        programs: &[&Program],
        store: Option<&dyn SummaryStore>,
    ) -> Vec<AnalysisResult> {
        self.drive(programs, store, &|summarizer, members, fresh| {
            self.summarize_recursive(summarizer, members, fresh)
        })
    }

    /// The ready-queue driver behind [`Analyzer::analyze_batch_with_store`],
    /// with `recursive` as the step that summarizes each recursive
    /// component.  Everything else (non-recursive components, cache
    /// probes and writes, assertion checks, scope assignment and the fold)
    /// is the same for every step.
    ///
    /// There is one task per component, and its output is the
    /// [`ComponentEntry`] the fold stores.  It probes the store first: a
    /// hit's output is the stored entry, unchanged, with zero phase times.
    /// On a miss it summarizes the component, publishes the members'
    /// summaries, and then checks every member's asserts in program order.
    /// The fold runs in task-id order and then sorts each program's
    /// verdicts back into program order.
    pub(crate) fn drive(
        &self,
        programs: &[&Program],
        store: Option<&dyn SummaryStore>,
        recursive: &RecursiveStep<'_>,
    ) -> Vec<AnalysisResult> {
        // The set-up — call graphs, keys, scopes and the task graph — is
        // traced as `plan`, the fold after the queue as `fold`.
        let plan_span = trace::span("phase", "plan");
        // Store eviction counters run over the store's lifetime; report
        // only this batch's deltas (stores are reused across bench runs
        // and live for a whole `chora serve` process).
        let (evictions_before, gc_evictions_before) = store.map_or((0, 0), |s| s.eviction_totals());
        // One flight group per batch: a single-flight store layer must
        // treat this run's own in-progress computations as plain misses
        // (their stores happen in the fold below), while still letting
        // other runs' misses coalesce onto ours.
        let flight_group = crate::cache::next_flight_group();
        let jobs = self.effective_jobs();
        // Scopes are assigned per program, by bottom-up component order
        // (then by procedure order for the assertion checks), identically
        // for every schedule — and independently of cache hits and of the
        // other batch members, so each program's symbols are exactly the
        // ones a solo run would have created.
        let mut runs: Vec<ProgramRun<'_>> = programs
            .iter()
            .map(|&program| {
                let callgraph = CallGraph::build(program);
                let levels = callgraph.component_levels();
                let keys = store.map(|_| {
                    let _span = trace::span("phase", "fingerprint");
                    level_keys(program, &callgraph, &levels, self.cache_salt(program))
                });
                // This run's component-key <-> scope assignment, in the same
                // flattened bottom-up order in which scopes are handed out
                // below.  Loads use it to rescope restored fresh symbols into
                // the current schedule; stores write scope-canonical entries.
                let run_scopes = keys
                    .as_ref()
                    .map(|k| ComponentScopes::from_level_keys(k).with_flight_group(flight_group));
                let mut level_scope_base = Vec::with_capacity(levels.len());
                let mut next_scope: u32 = 0;
                for level in &levels {
                    level_scope_base.push(next_scope);
                    next_scope += level.len() as u32;
                }
                ProgramRun {
                    program,
                    callgraph,
                    levels,
                    keys,
                    run_scopes,
                    summarizer: Summarizer::new(program),
                    level_scope_base,
                    assert_scope_base: next_scope,
                    result: AnalysisResult::default(),
                }
            })
            .collect();
        // The merged task graph, one task per component.  Task ids follow
        // the canonical fold order — level-major, then program-major (the
        // order the old level-barrier scheduler folded in).  That order is
        // topological (a component's callees sit at strictly lower
        // levels), which is what lets the sequential `jobs == 1` path
        // simply run tasks in id order.
        let rounds = runs.iter().map(|r| r.levels.len()).max().unwrap_or(0);
        let mut tasks: Vec<Task> = Vec::new();
        for level in 0..rounds {
            for (p, run) in runs.iter().enumerate() {
                let n = run.levels.get(level).map_or(0, Vec::len);
                tasks.extend((0..n).map(|index| Task { p, level, index }));
            }
        }
        // Per program: which task owns each procedure.
        let mut comp_task: Vec<HashMap<&str, usize>> =
            runs.iter().map(|_| HashMap::new()).collect();
        for (t, task) in tasks.iter().enumerate() {
            for member in &runs[task.p].component(task).members {
                comp_task[task.p].insert(member.as_str(), t);
            }
        }
        // Dependency edges: a component waits for the components its members
        // call into (self-calls excluded — recursion is resolved inside the
        // component).  Their completion covers the whole callee cone that
        // the members' summaries and assertion checks can look up.
        let mut dependents: Vec<Vec<usize>> = vec![Vec::new(); tasks.len()];
        let mut dep_count: Vec<usize> = vec![0; tasks.len()];
        for (t, task) in tasks.iter().enumerate() {
            let run = &runs[task.p];
            let deps: BTreeSet<usize> = run
                .component(task)
                .members
                .iter()
                .flat_map(|m| run.callgraph.callees(m))
                .filter_map(|callee| comp_task[task.p].get(callee.as_str()).copied())
                .filter(|&d| d != t)
                .collect();
            dep_count[t] = deps.len();
            for d in deps {
                debug_assert!(d < t, "task ids must be topologically ordered");
                dependents[d].push(t);
            }
        }
        drop(plan_span);
        // Drain the graph.  Workers probe the store (loads — disk read,
        // decode, rescope, re-intern — run concurrently too), summarize on a
        // miss, publish summaries into the program's shared table and check
        // the members' asserts, all before the scheduler releases any
        // dependent task.  Store writes are
        // deferred to the fold: probes therefore see exactly the entries the
        // run started with, independent of scheduling (a task could never
        // hit a same-run store anyway — an identical component has an
        // identical cone, hence the same level and a same-round probe).
        let runs_ref = &runs;
        let outputs = run_ready_queue(jobs, &dependents, dep_count, |t| {
            let task = &tasks[t];
            let run = &runs_ref[task.p];
            let component = run.component(task);
            let _task_span = trace::span_with("task", || match component.members.as_slice() {
                [one] => format!("component {one}"),
                members => format!("component {} (+{})", members[0], members.len() - 1),
            });
            if let Some(entry) = run.load(store, task) {
                run.publish(&entry.summaries);
                return ComponentOutput {
                    entry,
                    timings: PhaseTimings::default(),
                    cache_hit: true,
                };
            }
            let scope = run.level_scope_base[task.level] + task.index as u32;
            let (summaries, mut timings) =
                summarize_component(&run.summarizer, component, scope, recursive);
            // A member's asserts may call any member, so every summary is
            // published before the first check.
            run.publish(&summaries);
            let check = trace::timed("phase", "check");
            let assertions = run
                .program
                .procedures
                .iter()
                .enumerate()
                .filter(|(_, proc)| component.members.contains(&proc.name))
                .flat_map(|(i, proc)| {
                    let fresh = FreshSource::new(run.assert_scope_base + i as u32);
                    check_asserts(&run.summarizer, proc, &fresh)
                })
                .collect();
            timings.check_ms = check.end().as_secs_f64() * 1e3;
            ComponentOutput {
                entry: ComponentEntry {
                    summaries,
                    assertions,
                },
                timings,
                cache_hit: false,
            }
        });
        let _fold_span = trace::span("phase", "fold");
        // Fold the outputs back in task-id order, which per program is
        // bottom-up component order, so counters, timing sums and store
        // writes come out exactly as a solo sequential run would produce
        // them.
        for (task, output) in tasks.iter().zip(outputs) {
            let run = &mut runs[task.p];
            if output.cache_hit {
                run.result.cache.hits += 1;
            } else if let (Some(store), Some(keys), Some(run_scopes)) =
                (store, &run.keys, &run.run_scopes)
            {
                run.result.cache.misses += 1;
                let _store_span = trace::span("cache", "cache_store");
                store.store(&keys[task.level][task.index], &output.entry, run_scopes);
            }
            let timings = &mut run.result.timings;
            timings.summarize_ms += output.timings.summarize_ms;
            timings.solve_ms += output.timings.solve_ms;
            timings.check_ms += output.timings.check_ms;
            run.result.assertions.extend(output.entry.assertions);
            for summary in output.entry.summaries {
                run.result.summaries.insert(summary.name.clone(), summary);
            }
        }
        let metrics = analysis_metrics();
        metrics.analyses.add(runs.len() as u64);
        for run in &runs {
            metrics.cache_hits.add(run.result.cache.hits);
            metrics.cache_misses.add(run.result.cache.misses);
        }
        let (evictions_after, gc_evictions_after) = store.map_or((0, 0), |s| s.eviction_totals());
        let evictions = evictions_after.saturating_sub(evictions_before);
        let gc_evictions = gc_evictions_after.saturating_sub(gc_evictions_before);
        runs.into_iter()
            .map(|mut run| {
                // The fold left a callee's verdicts before its callers'; the
                // stable sort restores program order and keeps each
                // procedure's body order.
                let procedures = &run.program.procedures;
                run.result
                    .assertions
                    .sort_by_cached_key(|a| procedures.iter().position(|p| p.name == a.procedure));
                if store.is_some() {
                    run.result.cache.evictions = evictions;
                    run.result.cache.gc_evictions = gc_evictions;
                }
                run.result
            })
            .collect()
    }

    /// The fingerprint salt capturing everything outside the procedure
    /// bodies that a summary depends on: the key-derivation generation
    /// (v3 canonicalizes constraint rows inside the projection engine,
    /// changing summary bytes; v2 dropped the bottom-up scope from
    /// component keys), the analysis knobs (except `jobs`, which never
    /// changes the result), the transition formulas' disjunct cap, and the
    /// global-variable vocabulary in declaration order (it fixes the
    /// summarizer's variable order).
    fn cache_salt(&self, program: &Program) -> Fingerprint {
        let mut b = FingerprintBuilder::new();
        b.write_str("chora-analysis-salt-v3");
        b.write_bool(self.config.enable_depth_bounds);
        b.write_bool(self.config.enable_polynomial_facts);
        b.write_u64(chora_logic::DEFAULT_DISJUNCT_CAP as u64);
        b.write_u64(program.globals.len() as u64);
        for g in &program.globals {
            b.write_str(&g.to_string());
        }
        b.finish()
    }

    /// CHORA's step for a recursive component: height-based recurrence
    /// analysis of the whole component, then each member's depth bound and
    /// summary (Eqn. (4)).
    fn summarize_recursive(
        &self,
        summarizer: &Summarizer<'_>,
        members: &[String],
        fresh: &FreshSource,
    ) -> Vec<ProcedureSummary> {
        let height = {
            let _span = trace::span("phase", "height");
            analyze_scc(summarizer, members, fresh)
        };
        let program = summarizer.program();
        members
            .iter()
            .filter_map(|name| program.procedure(name))
            .map(|proc| {
                let depth = if self.config.enable_depth_bounds {
                    let _span = trace::span("phase", "depth");
                    depth_bound(summarizer, proc, members, fresh)
                } else {
                    None
                };
                self.assemble_recursive_summary(proc, &height, &depth)
            })
            .collect()
    }

    /// Builds the final summary of a recursive procedure from the solved
    /// bounding functions and the depth bound (Eqn. (4)).
    fn assemble_recursive_summary(
        &self,
        proc: &Procedure,
        height: &HeightAnalysis,
        depth: &Option<DepthBound>,
    ) -> ProcedureSummary {
        let depth_term = depth.as_ref().map(|d| d.to_term());
        let mut facts = Vec::new();
        for (tau, closed_form, exact) in height.solved_terms(&proc.name) {
            let bound = depth_term
                .as_ref()
                .map(|dt| closed_form.to_term_with_param(dt));
            facts.push(BoundFact {
                term: tau,
                closed_form,
                bound,
                exact,
            });
        }
        // Polyhedral part: polynomial closed forms substituted with the depth
        // bound, guarded on the sign of the depth argument.  Every execution
        // has height H ≤ max(1, e), and each closed form b_k(h) bounds τ_k on
        // every execution of height at most h.  `max` is not polynomial, so
        // the formula splits the integers on e: e ≥ 1 gives H ≤ e, hence
        // τ_k ≤ b_k(e); e ≤ 0 gives H ≤ 1, the base case alone, whose hull
        // supplied each τ_k as an atom τ_k ≤ 0 (`height::analyze_scc`).
        let formula = if self.config.enable_polynomial_facts {
            self.polynomial_summary_formula(&facts, depth)
        } else {
            TransitionFormula::top()
        };
        ProcedureSummary {
            name: proc.name.clone(),
            formula,
            bound_facts: facts,
            depth: depth.clone(),
            recursive: true,
        }
    }

    /// Turns polynomial-in-`h` closed forms plus a linear depth bound into
    /// polyhedral atoms:
    ///
    /// * disjunct 1: `e ≥ 1  ∧  τ_k ≤ b_k(e)` for every polynomial fact,
    /// * disjunct 2: `e ≤ 0  ∧  τ_k ≤ 0` (only the base case is reachable),
    ///
    /// where `e` is the raw (un-maxed) depth expression.  Constant closed
    /// forms are added unconditionally.
    fn polynomial_summary_formula(
        &self,
        facts: &[BoundFact],
        depth: &Option<DepthBound>,
    ) -> TransitionFormula {
        let mut unconditional: Vec<Atom> = Vec::new();
        for f in facts {
            if let Some(c) = f.closed_form.as_constant() {
                unconditional.push(Atom::le(f.term.clone(), Polynomial::constant(c)));
            }
        }
        let depth_poly = match depth {
            Some(DepthBound::Linear(t)) => term_to_polynomial(t),
            _ => None,
        };
        let Some(depth_expr) = depth_poly else {
            return TransitionFormula::from_polyhedron(Polyhedron::from_atoms(unconditional));
        };
        let h = Symbol::height();
        let mut deep_atoms = unconditional.clone();
        deep_atoms.push(Atom::ge(depth_expr.clone(), Polynomial::one()));
        let mut shallow_atoms = unconditional;
        shallow_atoms.push(Atom::le(depth_expr.clone(), Polynomial::zero()));
        for f in facts {
            if f.closed_form.as_constant().is_some() {
                continue;
            }
            if let Some(poly_in_h) = f.closed_form.as_polynomial() {
                let substituted = poly_in_h.substitute(&h, &depth_expr);
                deep_atoms.push(Atom::le(f.term.clone(), substituted));
                shallow_atoms.push(Atom::le(f.term.clone(), Polynomial::zero()));
            }
        }
        TransitionFormula::from_disjuncts(vec![
            Polyhedron::from_atoms(deep_atoms),
            Polyhedron::from_atoms(shallow_atoms),
        ])
    }
}

/// The step that summarizes one recursive component, given the summarizer
/// holding its callees' summaries, the component's members and its
/// fresh-symbol source: CHORA's height and depth analysis for [`Analyzer`],
/// Kleene iteration for [`crate::BaselineAnalyzer`].
pub(crate) type RecursiveStep<'s> =
    dyn Fn(&Summarizer<'_>, &[String], &FreshSource) -> Vec<ProcedureSummary> + Sync + 's;

/// Summarizes one strongly connected component (the first step of its
/// task): each member of a non-recursive component directly, a recursive
/// component by `recursive`, whose time counts as the solve phase.  Both
/// are timed by the component's `summarize` span.
fn summarize_component(
    summarizer: &Summarizer<'_>,
    component: &Component,
    scope: u32,
    recursive: &RecursiveStep<'_>,
) -> (Vec<ProcedureSummary>, PhaseTimings) {
    let span = trace::timed("phase", "summarize");
    let fresh = FreshSource::new(scope);
    if component.recursive {
        let summaries = recursive(summarizer, &component.members, &fresh);
        let timings = PhaseTimings {
            solve_ms: span.end().as_secs_f64() * 1e3,
            ..PhaseTimings::default()
        };
        return (summaries, timings);
    }
    let program = summarizer.program();
    let summaries = component
        .members
        .iter()
        .filter_map(|name| program.procedure(name))
        .map(|proc| ProcedureSummary {
            name: proc.name.clone(),
            formula: summarizer.summarize_procedure(proc, &BTreeMap::new(), &fresh),
            bound_facts: Vec::new(),
            depth: None,
            recursive: false,
        })
        .collect();
    let timings = PhaseTimings {
        summarize_ms: span.end().as_secs_f64() * 1e3,
        ..PhaseTimings::default()
    };
    (summaries, timings)
}

/// Checks every assertion of `proc` against the formula reaching it, with
/// the finished summaries of its callees in `summarizer`.
///
/// The forward walk runs only as far as the last `assert`: a body without
/// one is not walked at all, and the walk stops right after the last one,
/// since nothing after it is checked.
fn check_asserts(
    summarizer: &Summarizer<'_>,
    proc: &Procedure,
    fresh: &FreshSource,
) -> Vec<AssertionResult> {
    let mut remaining = 0usize;
    proc.body.visit(&mut |s| {
        if let Stmt::Assert(..) = s {
            remaining += 1;
        }
    });
    if remaining == 0 {
        return Vec::new();
    }
    let vars = summarizer.proc_vars(proc);
    let mut asserts = Vec::new();
    let prefix = TransitionFormula::identity(&vars);
    let flow = summarizer.walk(
        &proc.body,
        &vars,
        &BTreeMap::new(),
        prefix,
        fresh,
        &mut |visit, reaching| {
            let Visit::Assert(cond, label) = visit else {
                return ControlFlow::Continue(());
            };
            asserts.push(AssertionResult {
                procedure: proc.name.clone(),
                label: label.to_string(),
                verified: prove(reaching, cond, &vars, fresh),
            });
            remaining -= 1;
            if remaining == 0 {
                ControlFlow::Break(())
            } else {
                ControlFlow::Continue(())
            }
        },
    );
    debug_assert!(flow.is_break(), "the walk must reach every assert");
    asserts
}

/// Proves `prefix ⊨ cond` where `cond` refers to the current (post) values
/// of the program variables.
///
/// The atoms of each goal disjunct are checked with one batched
/// [`Polyhedron::implies_all`] entailment (a single shared
/// linearization/elimination pass) instead of one Fourier–Motzkin run per
/// atom.
fn prove(prefix: &TransitionFormula, cond: &Cond, vars: &[Symbol], fresh: &FreshSource) -> bool {
    let post_disjuncts = lower_cond_post(cond, vars, fresh);
    prefix.disjuncts().iter().all(|reach| {
        post_disjuncts
            .iter()
            .any(|goal| reach.implies_all(goal.atoms()))
    })
}

/// The per-program state of one batch member: its own schedule, cache
/// keys, summary table, and scope bases — everything a solo
/// [`Analyzer::analyze_with_store`] run would hold, so merging the level
/// rounds across programs cannot change any program's result.
struct ProgramRun<'p> {
    program: &'p Program,
    /// Retained for dependency edges: a component task waits on the
    /// components its members call into.
    callgraph: CallGraph,
    levels: Vec<Vec<Component>>,
    keys: Option<Vec<Vec<Fingerprint>>>,
    run_scopes: Option<ComponentScopes>,
    summarizer: Summarizer<'p>,
    /// Scope of component `i` of level `l` is `level_scope_base[l] + i` —
    /// the value a solo run's running `next_scope` counter would assign.
    level_scope_base: Vec<u32>,
    /// Scope of the assertion checks of procedure `i` is
    /// `assert_scope_base + i`; the base is the program's component count.
    assert_scope_base: u32,
    result: AnalysisResult,
}

impl ProgramRun<'_> {
    /// The component `task` summarizes.
    fn component(&self, task: &Task) -> &Component {
        &self.levels[task.level][task.index]
    }

    /// The store's entry for `task`'s component, if it has one whose
    /// summaries name the component's members in order.
    fn load(&self, store: Option<&dyn SummaryStore>, task: &Task) -> Option<ComponentEntry> {
        let (Some(store), Some(keys), Some(run_scopes)) = (store, &self.keys, &self.run_scopes)
        else {
            return None;
        };
        let _load_span = trace::span("cache", "cache_load");
        let members = &self.component(task).members;
        store
            .load(&keys[task.level][task.index], run_scopes)
            .filter(|entry| {
                entry.summaries.len() == members.len()
                    && entry
                        .summaries
                        .iter()
                        .zip(members)
                        .all(|(s, m)| &s.name == m)
            })
    }

    /// Publishes summaries into the shared table, where dependent tasks and
    /// the component's own assertion checks look them up.
    fn publish(&self, summaries: &[ProcedureSummary]) {
        for summary in summaries {
            self.summarizer
                .insert_summary(summary.name.clone(), summary.formula.clone());
        }
    }
}

/// The output of one component task: the store entry of the component
/// (restored by a hit, or computed), its phase times (zero on a hit), and
/// whether it was a hit.
struct ComponentOutput {
    entry: ComponentEntry,
    timings: PhaseTimings,
    cache_hit: bool,
}

/// One schedulable unit of the merged batch: component `index` of level
/// `level` of program `p`.
struct Task {
    p: usize,
    level: usize,
    index: usize,
}

/// Process-wide analysis/scheduler metrics, registered with the telemetry
/// registry on first use.  These are *global* cumulative counters (the
/// per-run numbers stay on [`AnalysisResult`]); bumps happen once per task
/// or per run, far off any hot path.
struct AnalysisMetrics {
    analyses: &'static chora_telemetry::metrics::Counter,
    cache_hits: &'static chora_telemetry::metrics::Counter,
    cache_misses: &'static chora_telemetry::metrics::Counter,
    tasks: &'static chora_telemetry::metrics::Counter,
    queue_wait: &'static chora_telemetry::metrics::Histogram,
}

fn analysis_metrics() -> &'static AnalysisMetrics {
    static METRICS: OnceLock<AnalysisMetrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        let registry = chora_telemetry::metrics::registry();
        AnalysisMetrics {
            analyses: registry.counter("chora_analyses_total", "Programs analyzed."),
            cache_hits: registry.counter(
                "chora_analysis_cache_hits_total",
                "Components restored from the summary cache.",
            ),
            cache_misses: registry.counter(
                "chora_analysis_cache_misses_total",
                "Components summarized from scratch against a configured store.",
            ),
            tasks: registry.counter(
                "chora_scheduler_tasks_total",
                "Scheduler tasks executed (one per component of each analyzed program).",
            ),
            queue_wait: registry.histogram(
                "chora_scheduler_queue_wait_ms",
                "Time tasks spent in the ready queue before a worker picked them up.",
            ),
        }
    })
}

/// Runs tasks `0..dep_count.len()` on up to `jobs` scoped worker threads,
/// releasing each task only after all its dependencies finished, and returns
/// the results in task-id order.
///
/// `dependents[d]` lists the tasks waiting on `d`; `dep_count[t]` is the
/// number of distinct tasks `t` waits on.  Tasks with a zero count seed the
/// ready queue (in id order); when a worker finishes a task it decrements
/// each dependent's count and enqueues the ones that drain to zero.  Workers
/// block on a condvar while the queue is empty and work remains — there is
/// no spinning and no level barrier: the only idle time is a genuinely empty
/// ready queue.  The caller re-assembles results by task id, so the output
/// is independent of scheduling.  `jobs <= 1` (or a single task) degrades to
/// a plain sequential loop in id order, which the caller guarantees is
/// topological.
///
/// Every task decides Fourier–Motzkin emptiness against an
/// [`EmptinessMemo`] that lives exactly as long as this call: one for the
/// sequential path, one per worker thread for the parallel path.  The
/// guards restore the thread's previous state on drop, panics included.
///
/// A panicking task marks the run poisoned and wakes every worker (so none
/// deadlocks waiting for tasks that will never arrive) before propagating
/// the panic through the scope join.
fn run_ready_queue<T, F>(
    jobs: usize,
    dependents: &[Vec<usize>],
    dep_count: Vec<usize>,
    f: F,
) -> Vec<T>
where
    T: Send + Sync,
    F: Fn(usize) -> T + Sync,
{
    use std::collections::VecDeque;
    use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
    use std::sync::{Condvar, Mutex};

    let n = dep_count.len();
    let metrics = analysis_metrics();
    metrics.tasks.add(n as u64);
    if jobs <= 1 || n <= 1 {
        // Sequential: the caller's thread is the only lane; tasks never
        // wait in a queue.
        let _memo = EmptinessMemo::open();
        return (0..n)
            .map(|t| {
                let _task = trace::task_scope(t as u64, 0);
                f(t)
            })
            .collect();
    }
    let workers = jobs.min(n);
    let slots: Vec<OnceLock<T>> = (0..n).map(|_| OnceLock::new()).collect();
    let counts: Vec<AtomicUsize> = dep_count.into_iter().map(AtomicUsize::new).collect();
    // When each task entered the ready queue (trace-epoch ns), so the pop
    // side can report queue-wait per task — to the `queue_wait` histogram
    // always, and onto the task's trace span when a session is recording.
    let enqueue_ns: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(0)).collect();
    let seeds: VecDeque<usize> = counts
        .iter()
        .enumerate()
        .filter(|(_, c)| c.load(Ordering::Relaxed) == 0)
        .map(|(t, _)| t)
        .collect();
    let seed_ns = trace::now_ns();
    for &t in &seeds {
        enqueue_ns[t].store(seed_ns, Ordering::Relaxed);
    }
    let ready: Mutex<VecDeque<usize>> = Mutex::new(seeds);
    let available = Condvar::new();
    let done = AtomicUsize::new(0);
    let poisoned = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let slots = &slots;
        let counts = &counts;
        let enqueue_ns = &enqueue_ns;
        let ready = &ready;
        let available = &available;
        let done = &done;
        let poisoned = &poisoned;
        let f = &f;
        for w in 0..workers {
            scope.spawn(move || {
                trace::claim_lane(&format!("worker-{w}"));
                let _memo = EmptinessMemo::open();
                loop {
                    let task = {
                        let mut queue = ready.lock().expect("scheduler queue lock");
                        loop {
                            if poisoned.load(Ordering::Relaxed) {
                                break None;
                            }
                            if let Some(t) = queue.pop_front() {
                                break Some(t);
                            }
                            if done.load(Ordering::Acquire) == n {
                                break None;
                            }
                            queue = available.wait(queue).expect("scheduler queue lock");
                        }
                    };
                    let Some(t) = task else { return };
                    let wait_ns =
                        trace::now_ns().saturating_sub(enqueue_ns[t].load(Ordering::Relaxed));
                    metrics.queue_wait.observe_ms(wait_ns as f64 / 1e6);
                    let value = match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        let _task = trace::task_scope(t as u64, wait_ns);
                        f(t)
                    })) {
                        Ok(value) => value,
                        Err(payload) => {
                            poisoned.store(true, Ordering::Relaxed);
                            drop(ready.lock());
                            available.notify_all();
                            std::panic::resume_unwind(payload);
                        }
                    };
                    let _ = slots[t].set(value);
                    let newly_ready: Vec<usize> = dependents[t]
                        .iter()
                        .filter(|&&d| counts[d].fetch_sub(1, Ordering::AcqRel) == 1)
                        .copied()
                        .collect();
                    if !newly_ready.is_empty() {
                        let now = trace::now_ns();
                        for &d in &newly_ready {
                            enqueue_ns[d].store(now, Ordering::Relaxed);
                        }
                    }
                    // Publish under the lock so a worker between its
                    // queue/done check and its `wait` cannot miss the
                    // wake-up.
                    let mut queue = ready.lock().expect("scheduler queue lock");
                    queue.extend(newly_ready.iter().copied());
                    let finished = done.fetch_add(1, Ordering::AcqRel) + 1 == n;
                    drop(queue);
                    if finished || !newly_ready.is_empty() {
                        available.notify_all();
                    }
                }
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| slot.into_inner().expect("every task completed"))
        .collect()
}

/// Extracts, from a recursive procedure's summary, an upper bound (as a
/// [`Term`] over pre-state variables) on the final value of `var'` — the
/// primary interface used for resource-bound extraction (Table 1).
pub fn upper_bound_on_post(summary: &ProcedureSummary, var: &Symbol) -> Option<Term> {
    let primed = var.primed();
    let mut best: Option<Term> = None;
    // Prefer height-indexed bound facts (they capture the recursion).
    for fact in &summary.bound_facts {
        let Some(bound) = &fact.bound else { continue };
        // τ must be of the form  var' + rest  with `rest` over pre-state vars.
        let coeff = fact.term.coefficient(&chora_expr::Monomial::var(primed));
        if !coeff.is_one() {
            continue;
        }
        let rest = &fact.term - &Polynomial::var(primed);
        if rest.symbols().iter().any(|s| s.is_post()) {
            continue;
        }
        // var' ≤ bound − rest
        let bound_term = Term::add(vec![bound.clone(), polynomial_to_term(&(-&rest))]);
        best = Some(match best {
            None => bound_term,
            Some(existing) => existing.min_estimate(bound_term),
        });
    }
    if best.is_some() {
        return best;
    }
    // Fall back to the polyhedral summary (non-recursive procedures).
    let mut keep: BTreeSet<Symbol> = summary
        .formula
        .symbols()
        .into_iter()
        .filter(|s| !s.is_post() || s == &primed)
        .collect();
    keep.insert(primed);
    let hull = summary.formula.abstract_hull(&keep);
    hull.upper_bounds_on(&primed)
        .first()
        .map(polynomial_to_term)
}

/// A small helper trait to pick the "smaller-looking" of two bound terms
/// (used only to prefer tighter bounds for reporting; soundness does not
/// depend on the choice).
trait MinEstimate {
    fn min_estimate(self, other: Term) -> Term;
}

impl MinEstimate for Term {
    fn min_estimate(self, other: Term) -> Term {
        // Prefer the syntactically smaller term as a heuristic.
        if format!("{other}").len() < format!("{self}").len() {
            other
        } else {
            self
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::testutil::memory_store;
    use crate::store::{TieredConfig, TieredStore};
    use chora_ir::{Expr, Stmt};

    /// hanoi-shaped recursive cost model plus a non-recursive helper chain.
    fn cached_program(leaf_increment: i64) -> Program {
        let mut prog = Program::new();
        prog.add_global("cost");
        prog.add_procedure(Procedure::new(
            "leaf",
            &["n"],
            &[],
            Stmt::assign("cost", Expr::var("cost").add(Expr::int(leaf_increment))),
        ));
        prog.add_procedure(Procedure::new(
            "hanoi",
            &["n"],
            &[],
            Stmt::seq(vec![
                Stmt::assign("cost", Expr::var("cost").add(Expr::int(1))),
                Stmt::if_then(
                    Cond::gt(Expr::var("n"), Expr::int(0)),
                    Stmt::seq(vec![
                        Stmt::call("hanoi", vec![Expr::var("n").sub(Expr::int(1))]),
                        Stmt::call("hanoi", vec![Expr::var("n").sub(Expr::int(1))]),
                    ]),
                ),
            ]),
        ));
        prog.add_procedure(Procedure::new(
            "main",
            &["n"],
            &[],
            Stmt::seq(vec![
                Stmt::call("leaf", vec![Expr::var("n")]),
                Stmt::call("hanoi", vec![Expr::var("n")]),
                Stmt::Assert(
                    Cond::ge(Expr::var("cost"), Expr::int(0)).or(Cond::Nondet),
                    "trivial".to_string(),
                ),
            ]),
        ));
        prog
    }

    fn same_analysis(a: &AnalysisResult, b: &AnalysisResult) {
        assert_eq!(a.summaries, b.summaries);
        assert_eq!(a.assertions, b.assertions);
    }

    #[test]
    fn verdicts_stay_in_program_order_across_components() {
        // `main` is declared first and calls `helper`, so `helper`'s
        // component is summarized, and its assert checked, first.
        let trivial = |label: &str| {
            Stmt::Assert(
                Cond::ge(Expr::var("cost"), Expr::int(0)).or(Cond::Nondet),
                label.to_string(),
            )
        };
        let mut program = Program::new();
        program.add_global("cost");
        program.add_procedure(Procedure::new(
            "main",
            &["n"],
            &[],
            Stmt::seq(vec![
                trivial("main-1"),
                Stmt::call("helper", vec![Expr::var("n")]),
                trivial("main-2"),
            ]),
        ));
        program.add_procedure(Procedure::new(
            "helper",
            &["n"],
            &[],
            Stmt::seq(vec![
                Stmt::assign("cost", Expr::var("cost").add(Expr::int(1))),
                trivial("helper-1"),
            ]),
        ));
        let mut runs = Vec::new();
        for jobs in [1, 4] {
            let analyzer = Analyzer::with_config(AnalysisConfig {
                jobs,
                ..AnalysisConfig::default()
            });
            let store = memory_store();
            runs.push(analyzer.analyze(&program));
            runs.push(analyzer.analyze_with_store(&program, Some(&store)));
            let warm = analyzer.analyze_with_store(&program, Some(&store));
            assert_eq!(warm.cache.hits, 2, "jobs={jobs}: {}", warm.cache);
            runs.push(warm);
        }
        let order: Vec<(&str, &str)> = runs[0]
            .assertions
            .iter()
            .map(|a| (a.procedure.as_str(), a.label.as_str()))
            .collect();
        assert_eq!(
            order,
            [
                ("main", "main-1"),
                ("main", "main-2"),
                ("helper", "helper-1")
            ]
        );
        for run in &runs[1..] {
            same_analysis(run, &runs[0]);
        }
    }

    #[test]
    fn warm_run_hits_every_component_and_matches_cold() {
        let program = cached_program(1);
        let analyzer = Analyzer::new();
        let plain = analyzer.analyze(&program);
        let store = memory_store();
        let cold = analyzer.analyze_with_store(&program, Some(&store));
        assert_eq!(cold.cache.hits, 0);
        assert_eq!(cold.cache.misses, 3);
        same_analysis(&plain, &cold);
        let warm = analyzer.analyze_with_store(&program, Some(&store));
        assert_eq!(warm.cache.hits, 3, "second run must be 100% hits");
        assert_eq!(warm.cache.misses, 0);
        assert_eq!(warm.cache.evictions, 0);
        same_analysis(&plain, &warm);
        // A cache hit skips the summarize, solve and check phases entirely.
        assert_eq!(warm.timings.summarize_ms, 0.0);
        assert_eq!(warm.timings.solve_ms, 0.0);
        assert_eq!(warm.timings.check_ms, 0.0);
    }

    #[test]
    fn a_hit_returns_the_verdicts_of_its_entry_unwalked() {
        let program = cached_program(1);
        let analyzer = Analyzer::new();
        let store = memory_store();
        let cold = analyzer.analyze_with_store(&program, Some(&store));
        assert!(cold.all_assertions_verified());
        // Flip the stored verdict of `main`'s one assert: a warm run that
        // walked the body would prove it again.
        let callgraph = CallGraph::build(&program);
        let levels = callgraph.component_levels();
        let keys = level_keys(&program, &callgraph, &levels, analyzer.cache_salt(&program));
        let main_key = levels
            .iter()
            .flatten()
            .zip(keys.iter().flatten())
            .find(|(c, _)| c.members == ["main"])
            .map(|(_, k)| *k)
            .expect("main has a component");
        let text = store.load_local_text(&main_key).expect("main's entry");
        let forged = text.replace(r#"["trivial",true]"#, r#"["trivial",false]"#);
        assert_ne!(forged, text, "the entry carries main's verdict");
        store.store_local_text(&main_key, &forged);
        let warm = analyzer.analyze_with_store(&program, Some(&store));
        assert_eq!(warm.cache.hits, 3);
        assert_eq!(
            warm.assertions,
            vec![AssertionResult {
                procedure: "main".to_string(),
                label: "trivial".to_string(),
                verified: false,
            }]
        );
    }

    #[test]
    fn editing_a_leaf_resummarizes_only_the_dirty_cone() {
        let analyzer = Analyzer::new();
        let store = memory_store();
        let _ = analyzer.analyze_with_store(&cached_program(1), Some(&store));
        // Edit `leaf` (a single constant): `leaf` and its caller `main` are
        // dirty, the independent `hanoi` component stays cached.
        let edited = cached_program(2);
        let warm = analyzer.analyze_with_store(&edited, Some(&store));
        assert_eq!(warm.cache.hits, 1, "hanoi must be restored from cache");
        assert_eq!(warm.cache.misses, 2, "leaf and main must be re-summarized");
        same_analysis(&warm, &analyzer.analyze(&edited));
    }

    #[test]
    fn prepending_a_procedure_keeps_every_existing_component_warm() {
        let analyzer = Analyzer::new();
        let store = memory_store();
        let cold = analyzer.analyze_with_store(&cached_program(1), Some(&store));
        assert_eq!(cold.cache.misses, 3);
        // The same three procedures, with an unrelated one slotted in
        // first: every preexisting component shifts one scope down the
        // bottom-up schedule, but their cones are unchanged — all three
        // must hit, and only the newcomer is summarized.
        let mut shifted = Program::new();
        shifted.add_global("cost");
        shifted.add_procedure(Procedure::new(
            "newcomer",
            &["n"],
            &[],
            Stmt::assign("cost", Expr::var("cost").add(Expr::int(9))),
        ));
        for proc in cached_program(1).procedures {
            shifted.add_procedure(proc);
        }
        let warm = analyzer.analyze_with_store(&shifted, Some(&store));
        assert_eq!(
            warm.cache.hits, 3,
            "order shift must not evict unchanged cones: {}",
            warm.cache
        );
        assert_eq!(warm.cache.misses, 1, "only `newcomer` is new");
        assert_eq!(warm.cache.evictions, 0);
        same_analysis(&warm, &analyzer.analyze(&shifted));
    }

    #[test]
    fn restored_fresh_symbols_are_rescoped_into_the_new_schedule() {
        // Division inside an `assume` leaves a fresh quotient symbol in the
        // callee's summary, which leaks into its callers' summaries — the
        // case where restored entries genuinely mention foreign scopes and
        // rescope-on-load must translate them component by component.
        let build = |prepend: bool| {
            let mut prog = Program::new();
            prog.add_global("cost");
            if prepend {
                prog.add_procedure(Procedure::new(
                    "pad",
                    &["n"],
                    &[],
                    Stmt::assign("cost", Expr::var("cost").add(Expr::int(1))),
                ));
            }
            prog.add_procedure(Procedure::new(
                "halver",
                &["n"],
                &[],
                Stmt::seq(vec![
                    Stmt::Assume(Cond::gt(Expr::var("n").div(2), Expr::int(0))),
                    Stmt::assign("cost", Expr::var("cost").add(Expr::var("n"))),
                ]),
            ));
            prog.add_procedure(Procedure::new(
                "caller",
                &["n"],
                &[],
                Stmt::call("halver", vec![Expr::var("n")]),
            ));
            prog.add_procedure(Procedure::new(
                "main",
                &["n"],
                &[],
                Stmt::seq(vec![
                    Stmt::call("caller", vec![Expr::var("n")]),
                    Stmt::Assert(
                        Cond::ge(Expr::var("cost"), Expr::int(0)).or(Cond::Nondet),
                        "trivial".to_string(),
                    ),
                ]),
            ));
            prog
        };
        let analyzer = Analyzer::new();
        let store = memory_store();
        let cold = analyzer.analyze_with_store(&build(false), Some(&store));
        assert_eq!(cold.cache.misses, 3);
        // The summaries really do carry fresh symbols (the quotient), or
        // this test would not exercise the rescope path at all.
        assert!(
            cold.summaries["caller"]
                .formula
                .symbols()
                .iter()
                .any(|s| matches!(s.kind(), chora_expr::SymbolKind::Fresh { .. })),
            "expected a leaked fresh quotient symbol in caller's summary"
        );
        let warm = analyzer.analyze_with_store(&build(true), Some(&store));
        assert_eq!(warm.cache.hits, 3, "shifted cones must stay warm");
        assert_eq!(warm.cache.misses, 1);
        assert_eq!(warm.cache.evictions, 0);
        // Bit-compatible with a cold run of the shifted program — including
        // the rescoped fresh symbols inside the restored summaries.
        same_analysis(&warm, &analyzer.analyze(&build(true)));
    }

    #[test]
    fn a_batch_reproduces_each_solo_run_exactly() {
        let analyzer = Analyzer::with_config(AnalysisConfig {
            jobs: 4,
            ..AnalysisConfig::default()
        });
        let a = cached_program(1);
        let b = cached_program(7);
        // A third program with a different shape (extra level) so the
        // merged rounds are ragged.
        let mut c = cached_program(3);
        c.add_procedure(Procedure::new(
            "outer",
            &["n"],
            &[],
            Stmt::call("main", vec![Expr::var("n")]),
        ));
        let solo: Vec<AnalysisResult> = [&a, &b, &c].iter().map(|p| analyzer.analyze(p)).collect();
        let batch = analyzer.analyze_batch_with_store(&[&a, &b, &c], None);
        assert_eq!(batch.len(), 3);
        for (s, t) in solo.iter().zip(&batch) {
            same_analysis(s, t);
        }
        assert!(analyzer.analyze_batch_with_store(&[], None).is_empty());
    }

    #[test]
    fn a_batch_shares_the_store_across_its_members() {
        let analyzer = Analyzer::new();
        let store = memory_store();
        let a = cached_program(1);
        let b = cached_program(5);
        // Cold batch: all probes of a round happen before the round's
        // stores land, so even `hanoi` (byte-identical in both programs,
        // same level) is computed twice — per-member counters stay exactly
        // those of solo runs against an empty store.
        let cold = analyzer.analyze_batch_with_store(&[&a, &b], Some(&store));
        assert_eq!(cold[0].cache.hits, 0);
        assert_eq!(cold[0].cache.misses, 3);
        assert_eq!(cold[1].cache.hits, 0);
        assert_eq!(cold[1].cache.misses, 3);
        same_analysis(&cold[0], &analyzer.analyze(&a));
        same_analysis(&cold[1], &analyzer.analyze(&b));
        // Warm batch: every component of every member restores.
        let warm = analyzer.analyze_batch_with_store(&[&a, &b], Some(&store));
        assert_eq!(warm[0].cache.hits, 3);
        assert_eq!(warm[1].cache.hits, 3);
        same_analysis(&warm[0], &cold[0]);
        same_analysis(&warm[1], &cold[1]);
    }

    #[test]
    fn a_batch_reports_the_lru_evictions_of_its_fold() {
        let analyzer = Analyzer::new();
        let one_shard = |cap_bytes| {
            TieredStore::new(
                None,
                None,
                TieredConfig {
                    cap_bytes,
                    max_age: None,
                    shards: 1,
                },
            )
        };
        let (a, b) = (cached_program(1), cached_program(5));
        let uncapped = one_shard(None);
        analyzer.analyze_batch_with_store(&[&a, &b], Some(&uncapped));
        // A cap one byte under the batch's footprint: the fold's own
        // stores push the shard over it and evict by LRU.
        let store = one_shard(Some(uncapped.counters().mem_bytes - 1));
        let (c, d) = (cached_program(2), cached_program(7));
        for batch in [[&a, &b], [&c, &d]] {
            let before = store.counters().lru_evictions;
            let results = analyzer.analyze_batch_with_store(&batch, Some(&store));
            let evicted = store.counters().lru_evictions - before;
            assert!(evicted > 0, "the cap must force LRU evictions");
            for result in &results {
                assert_eq!(result.cache.gc_evictions, evicted, "{}", result.cache);
                assert_eq!(result.cache.evictions, 0);
            }
        }
    }

    #[test]
    fn config_change_invalidates_the_cache() {
        let program = cached_program(1);
        let store = memory_store();
        let _ = Analyzer::new().analyze_with_store(&program, Some(&store));
        let ablated = Analyzer::with_config(AnalysisConfig {
            enable_depth_bounds: false,
            ..AnalysisConfig::default()
        });
        let run = ablated.analyze_with_store(&program, Some(&store));
        assert_eq!(run.cache.hits, 0, "different knobs must never hit");
        // ... while a jobs-only change hits fully (jobs does not affect
        // the result).
        let parallel = Analyzer::with_config(AnalysisConfig {
            jobs: 4,
            ..AnalysisConfig::default()
        });
        let par = parallel.analyze_with_store(&program, Some(&store));
        assert_eq!(par.cache.hits, 3);
    }

    #[test]
    fn a_panicking_task_leaves_no_memo_on_the_thread() {
        // Two independent tasks; the second panics mid-run.
        let dependents = vec![Vec::new(), Vec::new()];
        let run = |jobs: usize| {
            std::panic::catch_unwind(|| {
                run_ready_queue(jobs, &dependents, vec![0, 0], |t| {
                    assert!(EmptinessMemo::is_open(), "tasks run inside a memo");
                    assert!(t != 1, "task 1 fails");
                    t
                })
            })
        };
        for jobs in [1, 2] {
            assert!(run(jobs).is_err(), "jobs={jobs}: the panic propagates");
            assert!(
                !EmptinessMemo::is_open(),
                "jobs={jobs}: the run's memo must not outlive it"
            );
        }
        // A run nested in an open memo hands the outer one back.
        let outer = EmptinessMemo::open();
        assert!(run(1).is_err());
        assert!(EmptinessMemo::is_open(), "the outer memo is restored");
        drop(outer);
        assert!(!EmptinessMemo::is_open());
    }
}
