//! Triggering-graph analysis: termination and confluence.
//!
//! Each rule contributes a node. Rule `A` *may trigger* rule `B` when `A`'s
//! write set intersects `B`'s read set — executing `A`'s action can change
//! the truth of `B`'s condition. Cycles in this graph mean a transaction's
//! rule cascade may never quiesce (potential non-termination, TDB010);
//! a self-loop is the degenerate case (TDB011). Two rules with no ordering
//! between them whose write sets collide — or where one writes what the
//! other reads — may produce different final states depending on dispatch
//! order (confluence hazard, TDB012).
//!
//! Read and write sets are typed: a rule's reads are the [`ReadSet`] the
//! lint, the cascade graph and `tdb-core`'s dispatch share, its writes the
//! [`Resource`]s its action changes (`item:X`, `relation:R`, `event:E`, or
//! `query:Q` in a rule file, which has no schema). Each rule enters as the
//! [`BatchRule`] the cascade graph takes.
//!
//! [`ReadSet`]: crate::ReadSet

use std::collections::{BTreeMap, BTreeSet};

use crate::batchsafety::BatchRule;
use crate::graph::{self, ResourceIndex};
use crate::readset::Resource;

/// A directed edge `from` → `to`: firing `from` may trigger `to`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TriggerEdge {
    pub from: String,
    pub to: String,
    /// The resources `from` writes and `to` reads.
    pub via: BTreeSet<Resource>,
}

/// An unordered pair of rules whose combined effect depends on order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfluencePair {
    pub a: String,
    pub b: String,
    /// The conflicting resources.
    pub via: BTreeSet<Resource>,
}

/// The triggering graph and its findings.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TriggerGraph {
    pub edges: Vec<TriggerEdge>,
    /// Strongly connected components with more than one rule (or a
    /// self-loop), i.e. potential non-termination. Rule names, sorted.
    pub cycles: Vec<Vec<String>>,
    /// Rules whose own action writes what their condition reads.
    pub self_triggers: Vec<TriggerEdge>,
    pub confluence_hazards: Vec<ConfluencePair>,
}

/// Builds the triggering graph for a rule set and extracts cycles,
/// self-loops and confluence hazards. Neighbours are found through a
/// resource index (who writes / reads each resource), not by intersecting
/// every pair of rules.
pub fn analyze_triggering(rules: &[BatchRule]) -> TriggerGraph {
    let mut index = ResourceIndex::default();
    // Per rule: the ids of what it writes and of what it reads.
    let mut sets: Vec<(Vec<usize>, Vec<usize>)> = Vec::with_capacity(rules.len());
    for (i, r) in rules.iter().enumerate() {
        let writes: Vec<usize> = r.writes.iter().map(|w| index.intern(w)).collect();
        let reads: Vec<usize> = r.reads.iter().map(|w| index.intern(w)).collect();
        for &w in &writes {
            index.add_writer(w, i);
        }
        for &r in &reads {
            index.add_reader(r, i);
        }
        sets.push((writes, reads));
    }

    let mut edges = Vec::new();
    let mut self_triggers = Vec::new();
    let mut confluence_hazards = Vec::new();
    let mut fwd: Vec<Vec<usize>> = vec![Vec::new(); rules.len()];
    for (a, (writes, reads)) in sets.iter().enumerate() {
        // b → the resources `a` writes and `b` reads.
        let mut triggered: BTreeMap<usize, BTreeSet<Resource>> = BTreeMap::new();
        // b > a → the resources the unordered pair conflicts on.
        let mut conflicts: BTreeMap<usize, BTreeSet<Resource>> = BTreeMap::new();
        let mut conflict = |b: usize, res: usize| {
            if b > a {
                let via = conflicts.entry(b).or_default();
                via.insert(index.name(res).clone());
            }
        };
        for &w in writes {
            for &b in index.readers_of(w) {
                let via = triggered.entry(b).or_default();
                via.insert(index.name(w).clone());
                conflict(b, w);
            }
            for &b in index.writers_of(w) {
                conflict(b, w);
            }
        }
        for &r in reads {
            for &b in index.writers_of(r) {
                conflict(b, r);
            }
        }

        for (b, via) in triggered {
            let edge = TriggerEdge {
                from: rules[a].name.clone(),
                to: rules[b].name.clone(),
                via,
            };
            if rules[a].name == rules[b].name {
                self_triggers.push(edge);
            } else {
                fwd[a].push(b);
                edges.push(edge);
            }
        }
        for (b, via) in conflicts {
            confluence_hazards.push(ConfluencePair {
                a: rules[a].name.clone(),
                b: rules[b].name.clone(),
                via,
            });
        }
    }

    // Components of size ≥ 2 are cycles; self-loops are reported
    // separately (TDB011), not duplicated there.
    let names: Vec<&str> = rules.iter().map(|r| r.name.as_str()).collect();
    let cycles = graph::cycles(&names, &fwd);

    TriggerGraph {
        edges,
        cycles,
        self_triggers,
        confluence_hazards,
    }
}

#[cfg(test)]
#[allow(clippy::disallowed_methods)] // tests may unwrap
mod tests {
    use super::*;

    fn item(name: &str) -> Resource {
        Resource::Item(name.into())
    }

    fn spec(name: &str, reads: &[&str], writes: &[&str]) -> BatchRule {
        BatchRule {
            name: name.into(),
            reads: reads.iter().map(|s| item(s)).collect(),
            writes: writes.iter().map(|s| item(s)).collect(),
            ..BatchRule::default()
        }
    }

    #[test]
    fn mutual_trigger_is_a_cycle() {
        let g = analyze_triggering(&[spec("a", &["x"], &["y"]), spec("b", &["y"], &["x"])]);
        assert_eq!(g.cycles, vec![vec!["a".to_string(), "b".to_string()]]);
        assert_eq!(g.edges.len(), 2);
        assert!(g.self_triggers.is_empty());
    }

    #[test]
    fn chain_is_acyclic() {
        let g = analyze_triggering(&[
            spec("a", &["x"], &["y"]),
            spec("b", &["y"], &["z"]),
            spec("c", &["z"], &[]),
        ]);
        assert!(g.cycles.is_empty());
        assert_eq!(g.edges.len(), 2);
    }

    #[test]
    fn self_trigger_detected() {
        let g = analyze_triggering(&[spec("a", &["x"], &["x"])]);
        assert_eq!(g.self_triggers.len(), 1);
        assert!(g.cycles.is_empty());
        assert_eq!(g.self_triggers[0].via, [item("x")].into_iter().collect());
    }

    #[test]
    fn confluence_pairs_on_shared_writes_and_read_write() {
        let g = analyze_triggering(&[
            spec("a", &["p"], &["w"]),
            spec("b", &["q"], &["w"]),
            spec("c", &["w"], &["v"]),
        ]);
        // a/b share a write; a/c and b/c conflict via write-vs-read on w.
        assert_eq!(g.confluence_hazards.len(), 3);
    }

    #[test]
    fn disjoint_rules_are_silent() {
        let g = analyze_triggering(&[spec("a", &["x"], &["y"]), spec("b", &["p"], &["q"])]);
        assert!(g.edges.is_empty());
        assert!(g.cycles.is_empty());
        assert!(g.self_triggers.is_empty());
        assert!(g.confluence_hazards.is_empty());
    }

    #[test]
    fn three_cycle_found() {
        let g = analyze_triggering(&[
            spec("a", &["z"], &["x"]),
            spec("b", &["x"], &["y"]),
            spec("c", &["y"], &["z"]),
            spec("d", &["x"], &[]),
        ]);
        assert_eq!(
            g.cycles,
            vec![vec!["a".to_string(), "b".to_string(), "c".to_string()]]
        );
    }
}
