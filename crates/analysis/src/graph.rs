//! What the two rule-graph passes share: a resource index and one SCC
//! routine.
//!
//! Both the triggering graph ([`crate::triggering`]) and the cascade graph
//! ([`crate::batchsafety`]) have an edge `a → b` whenever rule `a` writes a
//! [`Resource`] rule `b` reads — its [`ReadSet`](crate::ReadSet), the one
//! type every consumer of a rule's reads shares. Neither graph stores those
//! edges: rules hang off the resources they touch ([`ResourceIndex`]), so
//! the graph costs O(Σ|reads| + |writes|) and a rule's neighbours are found
//! by walking its own sets — the shape `tdb-core`'s read-set index uses for
//! dispatch.

use std::collections::{BTreeMap, HashMap};

use crate::readset::Resource;

/// Resource → the rules that write it and the rules that read it, by
/// rule index in insertion order. Resources are interned to dense ids so a
/// graph can keep per-resource side tables.
#[derive(Debug, Clone, Default)]
pub(crate) struct ResourceIndex {
    ids: HashMap<Resource, usize>,
    names: Vec<Resource>,
    writers: Vec<Vec<usize>>,
    readers: Vec<Vec<usize>>,
}

impl ResourceIndex {
    /// The id of `res`, allocated on first sight.
    pub(crate) fn intern(&mut self, res: &Resource) -> usize {
        if let Some(&id) = self.ids.get(res) {
            return id;
        }
        let id = self.names.len();
        self.ids.insert(res.clone(), id);
        self.names.push(res.clone());
        self.writers.push(Vec::new());
        self.readers.push(Vec::new());
        id
    }

    pub(crate) fn name(&self, res: usize) -> &Resource {
        &self.names[res]
    }

    pub(crate) fn add_writer(&mut self, res: usize, rule: usize) {
        self.writers[res].push(rule);
    }

    pub(crate) fn add_reader(&mut self, res: usize, rule: usize) {
        self.readers[res].push(rule);
    }

    pub(crate) fn writers_of(&self, res: usize) -> &[usize] {
        &self.writers[res]
    }

    pub(crate) fn readers_of(&self, res: usize) -> &[usize] {
        &self.readers[res]
    }
}

/// Strongly connected components with at least two nodes, as sorted name
/// groups in sorted order — iterative Kosaraju over index adjacency lists.
/// Self-loops are ignored (both callers report them separately); parallel
/// edges are harmless.
pub(crate) fn cycles(names: &[&str], fwd: &[Vec<usize>]) -> Vec<Vec<String>> {
    let n = names.len();
    let mut rev: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (f, outs) in fwd.iter().enumerate() {
        for &t in outs {
            rev[t].push(f);
        }
    }

    // Pass 1: finish order on the forward graph.
    let mut order = Vec::with_capacity(n);
    let mut seen = vec![false; n];
    for start in 0..n {
        if seen[start] {
            continue;
        }
        let mut stack = vec![(start, 0usize)];
        seen[start] = true;
        while let Some(&mut (v, ref mut next)) = stack.last_mut() {
            if *next < fwd[v].len() {
                let w = fwd[v][*next];
                *next += 1;
                if !seen[w] {
                    seen[w] = true;
                    stack.push((w, 0));
                }
            } else {
                order.push(v);
                stack.pop();
            }
        }
    }

    // Pass 2: components on the reverse graph in reverse finish order.
    let mut comp = vec![usize::MAX; n];
    let mut ncomp = 0;
    for &start in order.iter().rev() {
        if comp[start] != usize::MAX {
            continue;
        }
        let mut stack = vec![start];
        comp[start] = ncomp;
        while let Some(v) = stack.pop() {
            for &w in &rev[v] {
                if comp[w] == usize::MAX {
                    comp[w] = ncomp;
                    stack.push(w);
                }
            }
        }
        ncomp += 1;
    }

    let mut groups: BTreeMap<usize, Vec<String>> = BTreeMap::new();
    for (i, name) in names.iter().enumerate() {
        groups.entry(comp[i]).or_default().push(name.to_string());
    }
    let mut cycles: Vec<Vec<String>> = groups
        .into_values()
        .filter(|g| g.len() >= 2)
        .map(|mut g| {
            g.sort();
            g
        })
        .collect();
    cycles.sort();
    cycles
}
