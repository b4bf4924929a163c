//! Batch-safety certification: when is fused slice evaluation exact?
//!
//! `commit_batch` appends every state of a batch first and dispatches once
//! over the whole slice (PR 7's `dispatch_slice`). A rule whose action
//! writes data appends its write *after* the slice — a legal Section 8
//! *delayed* schedule, but not the per-op *immediate* schedule, so
//! downstream firings can shift. This pass classifies a rule set by how
//! much of the fused fast path can be kept while still guaranteeing
//! byte-identical firings:
//!
//! * [`BatchCertificate::Exact`] — no rule writes anything: the fused
//!   slice appends exactly the states the per-op schedule would, so fused
//!   dispatch is already byte-identical.
//! * [`BatchCertificate::Stratified`] — there are writers, but the
//!   write-cascade graph is acyclic with `k` strata: the runtime fences
//!   the slice at ops that can fire a writer, draining the cascade there
//!   (write states land at their per-op positions), and fuses everything
//!   in between.
//! * [`BatchCertificate::CascadeRequired`] — a write-cascade cycle: exact
//!   semantics needs mid-batch re-entry after every state-producing op.
//!
//! Why *any* writer demotes `Exact`: a fired action appends a write state,
//! and appending consumes a clock tick (the engine auto-bumps so state
//! timestamps stay unique). Under the delayed schedule the write state
//! lands after the batch, so every in-batch state after the firing carries
//! a timestamp one lower than its per-op twin — and firing records include
//! the state's timestamp. Fence-draining at the ops that can fire the
//! writer (the `Stratified` execution) appends the write state at its
//! per-op position, which restores byte-identity even though nobody reads
//! the written data.
//!
//! The cascade *graph* is subtler than `writes ∩ reads = ∅`. An inserted
//! write state shifts *state adjacency* even when nobody reads the written
//! data: event atoms are false at non-op states (a false gap between two
//! op states changes edge detection), `lasttime` looks at the immediate
//! predecessor state, aggregate terms sample the inserted state too, and
//! clock reads see the inserted state's timestamp.
//! Conditions containing any of these are **order-sensitive**; the pass
//! models the hazard with the synthetic [`Resource::Order`] that every
//! data-writing action writes and every order-sensitive condition reads
//! (its [`ReadSet`] holds it) — a writer with an order-sensitive condition
//! therefore self-cycles into `CascadeRequired`. Actions whose *value terms* read database state
//! (queries, aggregates, the clock) are recorded as **impure**: their
//! materialized values depend on the evaluation point, which the
//! stratified fences pin to the per-op schedule.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

use crate::graph::{self, ResourceIndex};
use crate::readset::{ReadSet, Resource};

/// One rule's interface to the rule-graph passes (this one and
/// [`crate::triggering`]).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BatchRule {
    pub name: String,
    /// Resources whose change can affect the rule's condition, with
    /// [`Resource::Order`] when its firing depends on state adjacency: an
    /// order-sensitive condition (event atoms, `lasttime`, aggregate terms,
    /// clock reads), or a level-triggered rule, which fires at every
    /// satisfying state — an inserted write state included.
    pub reads: ReadSet,
    /// Resources the rule's action writes. Non-empty means firing this
    /// rule appends at least one state to the history.
    pub writes: BTreeSet<Resource>,
    /// The action's value terms read database state (queries, aggregates,
    /// the clock) at materialization time, so a delayed schedule can
    /// materialize different values.
    pub impure_action_values: bool,
}

/// The certificate lattice: `Exact` ⊑ `Stratified(k)` ⊑ `CascadeRequired`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum BatchCertificate {
    /// Fused slice dispatch is byte-identical to the per-op schedule.
    #[default]
    Exact,
    /// Acyclic write-cascades of depth `strata`; exact under fence-drained
    /// sub-slice execution.
    Stratified { strata: usize },
    /// A write-cascade cycle; exact only with mid-batch re-entry after
    /// every state-producing op.
    CascadeRequired,
}

impl BatchCertificate {
    /// The stable name used in JSON/SARIF output and wire encodings.
    pub fn as_str(&self) -> &'static str {
        match self {
            BatchCertificate::Exact => "exact",
            BatchCertificate::Stratified { .. } => "stratified",
            BatchCertificate::CascadeRequired => "cascade-required",
        }
    }

    /// Scalar encoding for gauges and wire stats: `Exact` is 0,
    /// `Stratified(k)` is `k` (always ≥ 1), `CascadeRequired` is -1.
    pub fn gauge_value(&self) -> i64 {
        match self {
            BatchCertificate::Exact => 0,
            BatchCertificate::Stratified { strata } => i64::try_from(*strata).unwrap_or(i64::MAX),
            BatchCertificate::CascadeRequired => -1,
        }
    }
}

impl fmt::Display for BatchCertificate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BatchCertificate::Exact => write!(f, "exact"),
            BatchCertificate::Stratified { strata } => write!(f, "stratified({strata})"),
            BatchCertificate::CascadeRequired => write!(f, "cascade-required"),
        }
    }
}

/// A directed hazard edge: `writer`'s action can influence `reader`'s
/// condition inside a batch, via the listed resources.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CascadeEdge {
    pub writer: String,
    pub reader: String,
    /// The resources `writer` writes and `reader` reads
    /// ([`Resource::Order`] when the hazard is state adjacency rather than
    /// data).
    pub via: BTreeSet<Resource>,
}

/// The full result of the pass: the certificate plus everything needed to
/// explain it (edges for TDB013, cycles for TDB014, impure writers for
/// TDB015, and the stratification itself).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BatchSafety {
    pub certificate: BatchCertificate,
    /// All write→read hazard edges, writer-major order.
    pub edges: Vec<CascadeEdge>,
    /// Cyclic groups of rules (including self-cycles as singletons).
    pub cycles: Vec<Vec<String>>,
    /// Data-writing rules whose action value terms read database state.
    pub impure: Vec<String>,
    /// Rules grouped by cascade depth (stratum 0 first). Populated only
    /// for `Stratified`.
    pub strata: Vec<Vec<String>>,
}

/// Certifies a rule set for batched evaluation from scratch: a fresh
/// [`CascadeGraph`] with every rule added in order, explained. See the
/// module docs for the classification rules.
pub fn certify_batch_safety(rules: &[BatchRule]) -> BatchSafety {
    let mut graph = CascadeGraph::new();
    for rule in rules {
        graph.add(rule.clone());
    }
    graph.explain()
}

/// The resource every data-writing rule writes and every order-sensitive
/// rule reads: [`Resource::Order`], always the index's first entry.
const ORDER: usize = 0;

/// One rule of the cascade graph: its facts plus the graph's view of them.
#[derive(Debug, Clone)]
struct Node {
    facts: BatchRule,
    /// Resource ids of `facts.writes`, plus [`ORDER`] once the rule is a
    /// writer.
    writes: Vec<usize>,
    /// Longest write→read chain ending here, in edges. Maintained only
    /// while the graph is acyclic.
    depth: usize,
}

impl Node {
    fn is_writer(&self) -> bool {
        !self.facts.writes.is_empty()
    }
}

/// The write-cascade graph of a rule set that only grows, with its
/// certificate kept current.
///
/// Rules are nodes; `a → b` whenever `a`'s action writes a resource `b`'s
/// condition reads. The edges are never materialised: rules hang off the
/// resources they touch, with [`Resource::Order`] as one more ordinary
/// resource, so the graph costs O(Σ|reads| + |writes|).
///
/// Why maintaining the certificate is cheap:
///
/// * the rule set only grows, so the lattice `Exact ⊑ Stratified(k) ⊑
///   CascadeRequired` only climbs. Once `CascadeRequired`, [`add`] and
///   [`promote`] just file the rule's facts — O(its own sets);
/// * a step only adds edges at one node (the rule added, or the rule whose
///   write set grew), so a new cycle or a longer chain must pass through
///   it. Depths are raised along that node's out-edges, stopping wherever
///   a depth already suffices; meeting the node again is the new cycle.
///   A rule that writes nothing costs its read set.
///
/// The explanation ([`explain`]) is built on demand; no commit reads it.
///
/// [`add`]: CascadeGraph::add
/// [`promote`]: CascadeGraph::promote
/// [`explain`]: CascadeGraph::explain
#[derive(Debug, Clone)]
pub struct CascadeGraph {
    nodes: Vec<Node>,
    index: ResourceIndex,
    /// Per resource: the depth of its deepest writer, `None` while nobody
    /// writes it. Same validity as [`Node::depth`].
    writer_depth: Vec<Option<usize>>,
    writers: usize,
    max_depth: usize,
    /// A cycle was seen; final.
    cascade_required: bool,
}

impl Default for CascadeGraph {
    fn default() -> CascadeGraph {
        CascadeGraph::new()
    }
}

impl CascadeGraph {
    pub fn new() -> CascadeGraph {
        let mut index = ResourceIndex::default();
        let order = index.intern(&Resource::Order);
        debug_assert_eq!(order, ORDER);
        CascadeGraph {
            nodes: Vec::new(),
            index,
            writer_depth: vec![None],
            writers: 0,
            max_depth: 0,
            cascade_required: false,
        }
    }

    /// Whether rule `rule`'s action writes anything (so firing it appends
    /// a state).
    pub fn is_writer(&self, rule: usize) -> bool {
        self.nodes[rule].is_writer()
    }

    /// The certificate of the rules added so far.
    pub fn certificate(&self) -> BatchCertificate {
        if self.cascade_required {
            BatchCertificate::CascadeRequired
        } else if self.writers == 0 {
            BatchCertificate::Exact
        } else {
            // Any writer demotes Exact: its write state consumes a clock
            // tick, so fusing past the firing op would shift every later
            // in-batch timestamp off the per-op schedule (module docs).
            BatchCertificate::Stratified {
                strata: self.max_depth + 1,
            }
        }
    }

    /// Adds the next rule and returns its index.
    pub fn add(&mut self, mut facts: BatchRule) -> usize {
        let id = self.nodes.len();
        let mut depth = 0;
        let reads: Vec<usize> = facts.reads.iter().map(|r| self.intern(r)).collect();
        for res in reads {
            self.index.add_reader(res, id);
            if let Some(d) = self.writer_depth[res] {
                depth = depth.max(d + 1);
            }
        }
        self.max_depth = self.max_depth.max(depth);
        // The write side goes through the same door as a later promotion.
        let writes = std::mem::take(&mut facts.writes);
        self.nodes.push(Node {
            facts,
            writes: Vec::new(),
            depth,
        });
        self.grow_writes(id, writes);
        id
    }

    /// Rule `rule` now also writes `writes` — a later `executed(rule, …)`
    /// reference turned it into a recorder. Returns whether that made it a
    /// writer (it wrote nothing before).
    pub fn promote(&mut self, rule: usize, writes: impl IntoIterator<Item = Resource>) -> bool {
        let was_writer = self.nodes[rule].is_writer();
        self.grow_writes(rule, writes);
        !was_writer && self.nodes[rule].is_writer()
    }

    fn intern(&mut self, res: &Resource) -> usize {
        let id = self.index.intern(res);
        if id == self.writer_depth.len() {
            self.writer_depth.push(None);
        }
        id
    }

    /// Extends `rule`'s write set, files it under the new resources and
    /// brings the certificate up to date.
    fn grow_writes(&mut self, rule: usize, writes: impl IntoIterator<Item = Resource>) {
        let mut fresh = Vec::new();
        let was_writer = !self.nodes[rule].writes.is_empty();
        for w in writes {
            if !self.nodes[rule].facts.writes.contains(&w) {
                fresh.push(self.intern(&w));
                self.nodes[rule].facts.writes.insert(w);
            }
        }
        if !was_writer && self.nodes[rule].is_writer() {
            self.writers += 1;
            fresh.push(ORDER);
        }
        for &res in &fresh {
            self.index.add_writer(res, rule);
        }
        self.nodes[rule].writes.extend(&fresh);
        if !self.cascade_required {
            self.cascade_required = self.raise_from(rule, fresh);
        }
    }

    /// Restores the depth invariants after `origin` started writing
    /// `fresh`: a resource is at least as deep as each writer, a reader one
    /// deeper than each written resource it reads. Depths only rise, and
    /// only where forced, so they stay the exact longest chains. Returns
    /// whether the walk met `origin` again — a cycle, through `origin` as
    /// every new cycle must be.
    fn raise_from(&mut self, origin: usize, fresh: Vec<usize>) -> bool {
        // (writer depth, resources to lift to it)
        let mut work = vec![(self.nodes[origin].depth, fresh)];
        while let Some((depth, resources)) = work.pop() {
            for res in resources {
                if self.writer_depth[res] >= Some(depth) {
                    continue;
                }
                self.writer_depth[res] = Some(depth);
                for &reader in self.index.readers_of(res) {
                    if reader == origin {
                        return true;
                    }
                    let node = &mut self.nodes[reader];
                    if node.depth <= depth {
                        node.depth = depth + 1;
                        self.max_depth = self.max_depth.max(node.depth);
                        if !node.writes.is_empty() {
                            work.push((node.depth, node.writes.clone()));
                        }
                    }
                }
            }
        }
        false
    }

    /// The certificate plus everything needed to explain it, built from
    /// the graph as it stands.
    pub fn explain(&self) -> BatchSafety {
        let n = self.nodes.len();
        let mut edges = Vec::new();
        let mut fwd: Vec<Vec<usize>> = vec![Vec::new(); n];
        let mut cycles = Vec::new();
        for (a, writer) in self.nodes.iter().enumerate() {
            // reader → the resources it observes `writer` through.
            let mut reached: BTreeMap<usize, BTreeSet<Resource>> = BTreeMap::new();
            for &res in &writer.writes {
                for &b in self.index.readers_of(res) {
                    let via = reached.entry(b).or_default();
                    via.insert(self.index.name(res).clone());
                }
            }
            for (b, via) in reached {
                if a == b {
                    cycles.push(vec![writer.facts.name.clone()]);
                } else {
                    fwd[a].push(b);
                }
                edges.push(CascadeEdge {
                    writer: writer.facts.name.clone(),
                    reader: self.nodes[b].facts.name.clone(),
                    via,
                });
            }
        }

        let names: Vec<&str> = self.nodes.iter().map(|r| r.facts.name.as_str()).collect();
        cycles.extend(graph::cycles(&names, &fwd));
        cycles.sort();
        cycles.dedup();

        let certificate = self.certificate();
        let mut strata = Vec::new();
        if let BatchCertificate::Stratified { strata: k } = certificate {
            strata.resize(k, Vec::new());
            for r in &self.nodes {
                strata[r.depth].push(r.facts.name.clone());
            }
        }
        BatchSafety {
            certificate,
            edges,
            cycles,
            impure: self
                .nodes
                .iter()
                .filter(|r| r.is_writer() && r.facts.impure_action_values)
                .map(|r| r.facts.name.clone())
                .collect(),
            strata,
        }
    }
}

#[cfg(test)]
#[allow(clippy::disallowed_methods)] // tests may unwrap
mod tests {
    use super::*;

    fn item(name: &str) -> Resource {
        Resource::Item(name.into())
    }

    fn rule(name: &str, reads: &[&str], writes: &[&str]) -> BatchRule {
        BatchRule {
            name: name.into(),
            reads: reads.iter().map(|s| item(s)).collect(),
            writes: writes.iter().map(|s| item(s)).collect(),
            ..BatchRule::default()
        }
    }

    #[test]
    fn notify_only_is_exact() {
        let s = certify_batch_safety(&[rule("a", &["x"], &[]), rule("b", &["y"], &[])]);
        assert_eq!(s.certificate, BatchCertificate::Exact);
        assert!(s.edges.is_empty());
    }

    #[test]
    fn unread_pure_write_is_stratified_not_exact() {
        // Even an unread pure write demotes Exact: the write state consumes
        // a clock tick, shifting later in-batch timestamps unless fenced.
        let s = certify_batch_safety(&[rule("w", &["x"], &["sink"]), rule("r", &["y"], &[])]);
        assert_eq!(s.certificate, BatchCertificate::Stratified { strata: 1 });
        assert!(s.edges.is_empty());
        assert_eq!(s.strata, vec![vec!["w".to_string(), "r".to_string()]]);
    }

    #[test]
    fn write_read_chain_stratifies() {
        let s = certify_batch_safety(&[
            rule("a", &["x"], &["mid"]),
            rule("b", &["mid"], &["out"]),
            rule("c", &["out"], &[]),
        ]);
        assert_eq!(s.certificate, BatchCertificate::Stratified { strata: 3 });
        assert_eq!(s.edges.len(), 2);
        assert_eq!(s.strata.len(), 3);
        assert_eq!(s.strata[0], vec!["a".to_string()]);
        assert_eq!(s.strata[1], vec!["b".to_string()]);
        assert_eq!(s.strata[2], vec!["c".to_string()]);
    }

    #[test]
    fn order_sensitive_reader_sees_any_writer() {
        let reader = BatchRule {
            name: "r".into(),
            reads: [Resource::Event("tick".into()), Resource::Order]
                .into_iter()
                .collect(),
            ..BatchRule::default()
        };
        let s = certify_batch_safety(&[rule("w", &["x"], &["sink"]), reader]);
        assert_eq!(s.certificate, BatchCertificate::Stratified { strata: 2 });
        assert_eq!(s.edges.len(), 1);
        assert!(s.edges[0].via.contains(&Resource::Order));
    }

    #[test]
    fn impure_writer_demotes_exact_to_stratified() {
        let mut w = rule("w", &["x"], &["sink"]);
        w.impure_action_values = true;
        let s = certify_batch_safety(&[w, rule("r", &["y"], &[])]);
        assert_eq!(s.certificate, BatchCertificate::Stratified { strata: 1 });
        assert_eq!(s.impure, vec!["w".to_string()]);
    }

    #[test]
    fn mutual_writes_require_cascade() {
        let s = certify_batch_safety(&[rule("a", &["y"], &["x"]), rule("b", &["x"], &["y"])]);
        assert_eq!(s.certificate, BatchCertificate::CascadeRequired);
        assert_eq!(s.cycles, vec![vec!["a".to_string(), "b".to_string()]]);
    }

    #[test]
    fn self_write_is_a_cycle() {
        let s = certify_batch_safety(&[rule("a", &["x"], &["x"])]);
        assert_eq!(s.certificate, BatchCertificate::CascadeRequired);
        assert_eq!(s.cycles, vec![vec!["a".to_string()]]);
    }

    #[test]
    fn empty_rule_set_is_exact() {
        let s = certify_batch_safety(&[]);
        assert_eq!(s.certificate, BatchCertificate::Exact);
    }
}
