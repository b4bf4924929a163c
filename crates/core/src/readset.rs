//! Read-set index for delta-driven dispatch.
//!
//! At registration every rule contributes its read set — the event names
//! its condition references, the catalog names (base relations + items) its
//! queries depend on, and whether it reads the clock — in exactly the
//! vocabulary the triggering-graph analysis
//! ([`tdb_analysis::triggering`]) uses for `may-trigger` edges. The index
//! inverts those sets: relation/event name → rule ids. Consulting it
//! against a state's [`Delta`](tdb_relation::Delta) costs
//! O(|delta| + affected rules) instead of O(all rules), which is the
//! discrimination-network sparsity argument: an update that touches
//! relations `{R}` and raises events `{E}` concerns only the rules whose
//! read set intersects them.
//!
//! A rule the delta does *not* reach is still advanced every state (unlike
//! Section 8 relevance filtering, nothing is skipped and semantics are
//! unchanged), but it keeps every atom — the advance kernel in
//! [`incremental`](crate::incremental) applies the same test one level
//! down, per atom, so its recurrences degenerate to pointer copies — and a
//! rule idle at its fixpoint is not advanced at all.

use std::collections::{BTreeSet, HashMap};

use tdb_engine::TIME_ITEM;
use tdb_relation::Delta;

/// Inverted read-set index: names → rule ids (registration order).
#[derive(Debug, Clone, Default)]
pub struct ReadSetIndex {
    /// Event name → rules whose condition references that event.
    by_event: HashMap<String, Vec<usize>>,
    /// Catalog name (relation or item) → rules whose queries read it.
    by_data: HashMap<String, Vec<usize>>,
    /// Rules affected by every state: clock readers (the clock advances
    /// with each state) and degenerate conditions with no inputs at all.
    always: Vec<usize>,
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

    /// Indexes the next rule (ids must be appended in registration order).
    /// `uses_time` marks clock readers; they are always affected because
    /// `time` changes at every state (this keeps §5 time-clause pruning
    /// exact for bounded-window conditions).
    pub fn insert(
        &mut self,
        id: usize,
        events: &BTreeSet<String>,
        data: &BTreeSet<String>,
        uses_time: bool,
    ) {
        debug_assert_eq!(id, self.len, "rules must be indexed in order");
        self.len = self.len.max(id + 1);
        // The `time` pseudo-item is rewritten into every state's snapshot,
        // so reading it through a query is reading the clock.
        let reads_clock = uses_time || data.contains(TIME_ITEM);
        if reads_clock {
            self.always.push(id);
        }
        for e in events {
            self.by_event.entry(e.clone()).or_default().push(id);
        }
        for d in data {
            if d == TIME_ITEM {
                continue; // covered by `always`
            }
            self.by_data.entry(d.clone()).or_default().push(id);
        }
    }

    /// Marks, into `affected` (resized and cleared here), every rule whose
    /// read set intersects the delta. Unmarked rules provably see no
    /// relevant change at this state.
    pub fn affected(&self, delta: &Delta, affected: &mut Vec<bool>) {
        affected.clear();
        affected.resize(self.len, false);
        for &id in &self.always {
            affected[id] = true;
        }
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

    fn set(names: &[&str]) -> BTreeSet<String> {
        names.iter().map(|s| s.to_string()).collect()
    }

    fn delta(touched: &[&str], raised: &[&str]) -> Delta {
        Delta::new(
            touched.iter().map(|s| s.to_string()).collect(),
            raised.iter().map(|s| s.to_string()).collect(),
        )
    }

    fn index() -> ReadSetIndex {
        let mut ix = ReadSetIndex::new();
        ix.insert(0, &set(&[]), &set(&["STOCK"]), false); // data reader
        ix.insert(1, &set(&["login"]), &set(&[]), false); // event reader
        ix.insert(2, &set(&[]), &set(&[]), true); // clock reader
        ix.insert(3, &set(&[]), &set(&["time"]), false); // reads `time` item
        ix.insert(4, &set(&["login"]), &set(&["STOCK", "B"]), false); // both
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
    fn affected_marks_readers_and_always_rules() {
        let ix = index();
        let mut hit = Vec::new();
        ix.affected(
            &delta(&["STOCK"], &["update", "transaction_commit"]),
            &mut hit,
        );
        assert_eq!(hit, vec![true, false, true, true, true]);

        ix.affected(&delta(&[], &["login"]), &mut hit);
        assert_eq!(hit, vec![false, true, true, true, true]);

        // Nothing relevant: only clock readers are touched.
        ix.affected(&delta(&["B2"], &["other"]), &mut hit);
        assert_eq!(hit, vec![false, false, true, true, false]);
    }
}
