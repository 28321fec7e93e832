//! Call graphs, strongly connected components, and the bottom-up analysis
//! order used by CHORA (§4: "collapse the strongly connected components of
//! the call graph ... and topologically sort the collapsed graph").

use crate::ast::Program;
use chora_expr::strongly_connected_components;
use std::collections::{BTreeMap, BTreeSet};

/// The call graph of a program.
#[derive(Clone, Debug)]
pub struct CallGraph {
    /// procedure name -> set of callee names (only those defined in the program)
    edges: BTreeMap<String, BTreeSet<String>>,
}

/// One strongly connected component of the call graph, in analysis order.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Component {
    /// Procedure names in the component.
    pub members: Vec<String>,
    /// Whether the component is recursive (more than one member, or a single
    /// member that calls itself).
    pub recursive: bool,
}

impl CallGraph {
    /// Builds the call graph of a program (calls to undefined procedures are
    /// ignored).
    pub fn build(program: &Program) -> CallGraph {
        let defined: BTreeSet<String> = program.procedure_names().into_iter().collect();
        let mut edges = BTreeMap::new();
        for p in &program.procedures {
            let callees: BTreeSet<String> = p
                .callees()
                .into_iter()
                .filter(|c| defined.contains(c))
                .collect();
            edges.insert(p.name.clone(), callees);
        }
        CallGraph { edges }
    }

    /// Direct callees of a procedure.
    pub fn callees(&self, name: &str) -> BTreeSet<String> {
        self.edges.get(name).cloned().unwrap_or_default()
    }

    /// Whether `caller` (possibly transitively) calls `callee`.
    pub fn calls_transitively(&self, caller: &str, callee: &str) -> bool {
        let mut seen = BTreeSet::new();
        let mut stack = vec![caller.to_string()];
        while let Some(p) = stack.pop() {
            if !seen.insert(p.clone()) {
                continue;
            }
            for c in self.callees(&p) {
                if c == callee {
                    return true;
                }
                stack.push(c);
            }
        }
        false
    }

    /// Strongly connected components in bottom-up (reverse topological)
    /// order: every callee component precedes its callers.
    pub fn components_bottom_up(&self) -> Vec<Component> {
        // Map names to indices and reuse the generic SCC routine.
        let names: Vec<String> = self.edges.keys().cloned().collect();
        let index_of: BTreeMap<&str, usize> = names
            .iter()
            .enumerate()
            .map(|(i, n)| (n.as_str(), i))
            .collect();
        let nodes: Vec<usize> = (0..names.len()).collect();
        let deps: BTreeMap<usize, BTreeSet<usize>> = names
            .iter()
            .enumerate()
            .map(|(i, n)| {
                let callees = self.edges[n]
                    .iter()
                    .filter_map(|c| index_of.get(c.as_str()).copied())
                    .collect();
                (i, callees)
            })
            .collect();
        let sccs = strongly_connected_components(&nodes, &deps);
        sccs.into_iter()
            .map(|scc| {
                let members: Vec<String> = scc.iter().map(|&i| names[i].clone()).collect();
                let recursive =
                    members.len() > 1 || members.iter().any(|m| self.callees(m).contains(m));
                Component { members, recursive }
            })
            .collect()
    }

    /// Strongly connected components grouped into topological *levels*:
    /// every component in level `L` only calls components in levels `< L`.
    /// Components within one level are mutually independent and can be
    /// summarized concurrently; iterating levels in order is a valid
    /// bottom-up analysis schedule (every callee component is visited
    /// before its callers).
    ///
    /// Within each level, components keep their relative
    /// [`CallGraph::components_bottom_up`] order, making the level
    /// decomposition — and hence any scope numbering derived from it —
    /// deterministic.  The *flattened* sequence is generally not identical
    /// to `components_bottom_up()` (a call-free component may be pulled
    /// down to level 0 past earlier-listed dependent chains); it is only
    /// guaranteed to be *some* valid bottom-up order.
    pub fn component_levels(&self) -> Vec<Vec<Component>> {
        let comps = self.components_bottom_up();
        // Procedure -> index of its component.
        let comp_of: BTreeMap<&str, usize> = comps
            .iter()
            .enumerate()
            .flat_map(|(i, c)| c.members.iter().map(move |m| (m.as_str(), i)))
            .collect();
        // Bottom-up order guarantees callees come first, so one pass suffices.
        let mut level_of: Vec<usize> = vec![0; comps.len()];
        for (i, comp) in comps.iter().enumerate() {
            let mut level = 0;
            for member in &comp.members {
                for callee in self.callees(member) {
                    let Some(&j) = comp_of.get(callee.as_str()) else {
                        continue;
                    };
                    if j != i {
                        level = level.max(level_of[j] + 1);
                    }
                }
            }
            level_of[i] = level;
        }
        let depth = level_of.iter().max().map_or(0, |m| m + 1);
        let mut levels: Vec<Vec<Component>> = vec![Vec::new(); depth];
        for (comp, &level) in comps.into_iter().zip(level_of.iter()) {
            levels[level].push(comp);
        }
        levels
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::{Expr, Procedure, Stmt};

    fn program_with_calls(spec: &[(&str, &[&str])]) -> Program {
        let mut prog = Program::new();
        for (name, callees) in spec {
            let body = Stmt::seq(
                callees
                    .iter()
                    .map(|c| Stmt::call(c, vec![Expr::int(0)]))
                    .collect(),
            );
            prog.add_procedure(Procedure::new(name, &["n"], &[], body));
        }
        prog
    }

    #[test]
    fn simple_chain_is_bottom_up() {
        let prog = program_with_calls(&[("main", &["mid"]), ("mid", &["leaf"]), ("leaf", &[])]);
        let cg = CallGraph::build(&prog);
        let comps = cg.components_bottom_up();
        let order: Vec<&str> = comps.iter().map(|c| c.members[0].as_str()).collect();
        assert_eq!(order, vec!["leaf", "mid", "main"]);
        assert!(comps.iter().all(|c| !c.recursive));
    }

    #[test]
    fn self_recursion_detected() {
        let prog = program_with_calls(&[("fib", &["fib"]), ("main", &["fib"])]);
        let cg = CallGraph::build(&prog);
        let comps = cg.components_bottom_up();
        assert_eq!(comps[0].members, vec!["fib".to_string()]);
        assert!(comps[0].recursive);
        assert!(!comps[1].recursive);
        assert!(cg.calls_transitively("main", "fib"));
        assert!(!cg.calls_transitively("fib", "main"));
    }

    #[test]
    fn mutual_recursion_grouped() {
        let prog = program_with_calls(&[("p1", &["p2"]), ("p2", &["p1"]), ("main", &["p1"])]);
        let cg = CallGraph::build(&prog);
        let comps = cg.components_bottom_up();
        assert_eq!(comps[0].members, vec!["p1".to_string(), "p2".to_string()]);
        assert!(comps[0].recursive);
        assert_eq!(comps[1].members, vec!["main".to_string()]);
    }

    #[test]
    fn levels_group_independent_components() {
        // main -> {a, b}; a -> leaf; b -> leaf.  Levels: [leaf], [a, b], [main].
        let prog = program_with_calls(&[
            ("main", &["a", "b"]),
            ("a", &["leaf"]),
            ("b", &["leaf"]),
            ("leaf", &[]),
        ]);
        let cg = CallGraph::build(&prog);
        let levels = cg.component_levels();
        assert_eq!(levels.len(), 3);
        assert_eq!(levels[0].len(), 1);
        assert_eq!(levels[0][0].members, vec!["leaf".to_string()]);
        let mid: Vec<&str> = levels[1].iter().map(|c| c.members[0].as_str()).collect();
        assert_eq!(mid, vec!["a", "b"]);
        assert_eq!(levels[2][0].members, vec!["main".to_string()]);
        // The flattened level order is a valid bottom-up schedule: every
        // callee appears before its callers.
        let flat: Vec<String> = levels
            .iter()
            .flat_map(|l| l.iter().map(|c| c.members[0].clone()))
            .collect();
        for (i, name) in flat.iter().enumerate() {
            for callee in cg.callees(name) {
                let callee_pos = flat.iter().position(|n| n == &callee).unwrap();
                assert!(callee_pos < i, "{callee} must precede {name}");
            }
        }
    }

    #[test]
    fn levels_pull_call_free_components_to_level_zero() {
        // `b` has no callees, so it lands in level 0 even though the
        // bottom-up enumeration lists it after the leaf/a chain.
        let prog = program_with_calls(&[
            ("main", &["a", "b"]),
            ("a", &["leaf"]),
            ("b", &[]),
            ("leaf", &[]),
        ]);
        let cg = CallGraph::build(&prog);
        let levels = cg.component_levels();
        assert_eq!(levels.len(), 3);
        // Within a level, components keep their relative bottom-up order
        // (`leaf` is enumerated before `b` by the Tarjan pass).
        let ground: Vec<&str> = levels[0].iter().map(|c| c.members[0].as_str()).collect();
        assert_eq!(ground, vec!["leaf", "b"]);
        assert_eq!(levels[1][0].members, vec!["a".to_string()]);
        assert_eq!(levels[2][0].members, vec!["main".to_string()]);
    }

    #[test]
    fn levels_keep_mutual_recursion_together() {
        let prog = program_with_calls(&[("p1", &["p2"]), ("p2", &["p1"]), ("main", &["p1"])]);
        let cg = CallGraph::build(&prog);
        let levels = cg.component_levels();
        assert_eq!(levels.len(), 2);
        assert_eq!(
            levels[0][0].members,
            vec!["p1".to_string(), "p2".to_string()]
        );
        assert!(levels[0][0].recursive);
    }

    #[test]
    fn undefined_callees_ignored() {
        let prog = program_with_calls(&[("main", &["undefined_external"])]);
        let cg = CallGraph::build(&prog);
        assert!(cg.callees("main").is_empty());
    }
}
