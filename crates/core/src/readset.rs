//! Read-set index for delta-driven dispatch.
//!
//! At registration every rule contributes its [`ReadSet`] — the events its
//! condition references, the items and relations its queries depend on,
//! and whether it reads the clock (the `time` term, or the `time` item
//! through a query: one resource) — the very set the triggering and cascade
//! graphs of [`tdb_analysis`] use for their edges, and that the advance
//! kernel keeps per atom. The index inverts the event and data names:
//! name → rule ids. Consulting it against a state's [`Delta`] costs
//! O(|delta| + affected rules) instead of O(all rules), which is the
//! discrimination-network sparsity argument: an update that touches
//! relations `{R}` and raises events `{E}` concerns only the rules whose
//! read set intersects them.
//!
//! A rule the delta does *not* reach is still advanced every state (unlike
//! Section 8 relevance filtering, nothing is skipped and semantics are
//! unchanged), but it keeps every atom the delta misses — the advance
//! kernel in [`incremental`](crate::incremental) applies the same test one
//! level down, per atom, so its recurrences degenerate to pointer copies —
//! and a rule idle at its fixpoint is not advanced at all. The clock is no
//! name here: every state moves it, so the kernel re-evaluates a clock
//! reader's clock atoms on that sparse step, and a rule whose formula
//! states absorbed the clock sits at its fixpoint like any other.

use std::collections::HashMap;

use tdb_analysis::{ReadSet, Resource};
use tdb_relation::Delta;

/// Inverted read-set index: names → rule ids (registration order).
#[derive(Debug, Clone, Default)]
pub struct ReadSetIndex {
    /// Event name → rules whose condition references that event.
    by_event: HashMap<String, Vec<usize>>,
    /// Catalog name (relation or item) → rules whose queries read it.
    by_data: HashMap<String, Vec<usize>>,
    /// Total rules indexed.
    len: usize,
}

impl ReadSetIndex {
    pub fn new() -> ReadSetIndex {
        ReadSetIndex::default()
    }

    /// Number of rules indexed.
    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Indexes the next rule (ids must be appended in registration order)
    /// under the events and data it reads. Reading the clock files it under
    /// nothing: a clock-only state reaches a clock reader as a sparse step,
    /// which re-evaluates its clock atoms, or as a fixpoint skip once its
    /// formula states absorbed the clock.
    pub fn insert(&mut self, id: usize, reads: &ReadSet) {
        debug_assert_eq!(id, self.len, "rules must be indexed in order");
        self.len = self.len.max(id + 1);
        for r in reads.iter() {
            let (map, name) = match r {
                Resource::Event(e) => (&mut self.by_event, e),
                Resource::Item(d) | Resource::Relation(d) => (&mut self.by_data, d),
                Resource::Clock | Resource::Query(_) | Resource::Order => continue,
            };
            map.entry(name.clone()).or_default().push(id);
        }
    }

    /// Marks, into `affected` (resized and cleared here), every rule whose
    /// read set intersects the delta. Unmarked rules provably see no
    /// relevant change at this state.
    pub fn affected(&self, delta: &Delta, affected: &mut Vec<bool>) {
        affected.clear();
        affected.resize(self.len, false);
        for e in &delta.raised_events {
            for &id in self.by_event.get(e).into_iter().flatten() {
                affected[id] = true;
            }
        }
        for t in &delta.touched_relations {
            for &id in self.by_data.get(t).into_iter().flatten() {
                affected[id] = true;
            }
        }
        if tdb_obs::enabled() {
            let fanout = affected.iter().filter(|&&b| b).count() as u64;
            let (marks, hist) = readset_metrics();
            marks.add(fanout);
            hist.observe(fanout);
        }
    }
}

/// Registry handles for the delta fan-out instrumentation, resolved once
/// per process. Touched only while [`tdb_obs::enabled`].
fn readset_metrics() -> &'static (tdb_obs::Counter, std::sync::Arc<tdb_obs::Histogram>) {
    static METRICS: std::sync::OnceLock<(tdb_obs::Counter, std::sync::Arc<tdb_obs::Histogram>)> =
        std::sync::OnceLock::new();
    METRICS.get_or_init(|| {
        let r = tdb_obs::global();
        (
            r.counter("tdb_readset_affected_marks_total"),
            r.histogram("tdb_readset_delta_fanout"),
        )
    })
}

#[cfg(test)]
#[allow(clippy::disallowed_methods)] // tests may unwrap
mod tests {
    use super::*;

    fn set(reads: &[Resource]) -> ReadSet {
        reads.iter().cloned().collect()
    }

    fn relation(name: &str) -> Resource {
        Resource::Relation(name.into())
    }

    fn event(name: &str) -> Resource {
        Resource::Event(name.into())
    }

    fn delta(touched: &[&str], raised: &[&str]) -> Delta {
        Delta::new(
            touched.iter().map(|s| s.to_string()).collect(),
            raised.iter().map(|s| s.to_string()).collect(),
        )
    }

    fn index() -> ReadSetIndex {
        let mut ix = ReadSetIndex::new();
        ix.insert(0, &set(&[relation("STOCK")])); // data reader
        ix.insert(1, &set(&[event("login"), Resource::Order])); // event reader
        ix.insert(2, &set(&[Resource::Clock, Resource::Order])); // clock reader
                                                                 // Reads the `time` item through the query `now`: the clock.
        ix.insert(3, &set(&[Resource::Query("now".into()), Resource::Clock]));
        ix.insert(
            4,
            &set(&[
                event("login"),
                relation("STOCK"),
                Resource::Item("B".into()),
            ]),
        ); // both
        ix
    }

    #[test]
    fn lookups_route_by_name() {
        let ix = index();
        assert_eq!(ix.len(), 5);
        assert_eq!(ix.by_data["STOCK"], [0, 4]);
        assert_eq!(ix.by_event["login"], [1, 4]);
        assert!(!ix.by_data.contains_key("nope"));
    }

    #[test]
    fn affected_marks_readers_only() {
        let ix = index();
        let mut hit = Vec::new();
        ix.affected(
            &delta(&["STOCK"], &["update", "transaction_commit"]),
            &mut hit,
        );
        assert_eq!(hit, vec![true, false, false, false, true]);

        ix.affected(&delta(&[], &["login"]), &mut hit);
        assert_eq!(hit, vec![false, true, false, false, true]);

        // Nothing relevant: the clock moved, and that marks no rule.
        ix.affected(&delta(&["B2"], &["other"]), &mut hit);
        assert_eq!(hit, vec![false; 5]);
    }
}
