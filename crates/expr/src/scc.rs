//! The one strongly-connected-components routine of the workspace, shared by
//! the call graph (§4: the bottom-up order of procedure components) and the
//! recurrence solver (the strata of a stratified system).

use std::collections::{BTreeMap, BTreeSet};

/// Tarjan-style strongly connected components, returned in reverse
/// topological order (callees/dependencies before callers/dependents).
///
/// Each component's members are sorted.  Successors with no `deps` entry
/// are not nodes of the graph and are skipped.
pub fn strongly_connected_components(
    nodes: &[usize],
    deps: &BTreeMap<usize, BTreeSet<usize>>,
) -> Vec<Vec<usize>> {
    struct State<'a> {
        deps: &'a BTreeMap<usize, BTreeSet<usize>>,
        index: BTreeMap<usize, usize>,
        lowlink: BTreeMap<usize, usize>,
        on_stack: BTreeSet<usize>,
        stack: Vec<usize>,
        counter: usize,
        output: Vec<Vec<usize>>,
    }
    fn visit(v: usize, st: &mut State<'_>) {
        st.index.insert(v, st.counter);
        st.lowlink.insert(v, st.counter);
        st.counter += 1;
        st.stack.push(v);
        st.on_stack.insert(v);
        let successors: Vec<usize> = st
            .deps
            .get(&v)
            .map(|s| s.iter().copied().collect())
            .unwrap_or_default();
        for w in successors {
            if !st.deps.contains_key(&w) {
                continue;
            }
            if !st.index.contains_key(&w) {
                visit(w, st);
                let wl = st.lowlink[&w];
                let vl = st.lowlink[&v];
                st.lowlink.insert(v, vl.min(wl));
            } else if st.on_stack.contains(&w) {
                let wi = st.index[&w];
                let vl = st.lowlink[&v];
                st.lowlink.insert(v, vl.min(wi));
            }
        }
        if st.lowlink[&v] == st.index[&v] {
            let mut comp = Vec::new();
            while let Some(w) = st.stack.pop() {
                st.on_stack.remove(&w);
                comp.push(w);
                if w == v {
                    break;
                }
            }
            comp.sort_unstable();
            st.output.push(comp);
        }
    }
    let mut st = State {
        deps,
        index: BTreeMap::new(),
        lowlink: BTreeMap::new(),
        on_stack: BTreeSet::new(),
        stack: Vec::new(),
        counter: 0,
        output: Vec::new(),
    };
    for &v in nodes {
        if !st.index.contains_key(&v) {
            visit(v, &mut st);
        }
    }
    st.output
}
