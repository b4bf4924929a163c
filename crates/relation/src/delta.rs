//! Per-commit change summaries.
//!
//! A [`Delta`] names what one system state changed relative to its
//! predecessor: the catalog entries (relations and scalar items) the
//! committing transaction wrote, and the events the state raised. It is the
//! input to delta-driven rule dispatch — an update that touches relations
//! `{R}` and raises events `{E}` should cost O(affected rules), not O(all
//! rules) — and is deliberately tiny: two sorted name vectors, no tuples.
//!
//! Deltas are *derived* data. The same summary can be reconstructed from a
//! state's event set (commit states carry one `update(target)` event per
//! touched catalog name), which is why checkpoints never persist them.

/// Registry handles for the per-commit change-summary counters, resolved
/// once per process. Touched only while [`tdb_obs::enabled`].
fn delta_counters() -> &'static (tdb_obs::Counter, tdb_obs::Counter) {
    static COUNTERS: std::sync::OnceLock<(tdb_obs::Counter, tdb_obs::Counter)> =
        std::sync::OnceLock::new();
    COUNTERS.get_or_init(|| {
        let r = tdb_obs::global();
        (
            r.counter("tdb_delta_touched_names_total"),
            r.counter("tdb_delta_raised_events_total"),
        )
    })
}

/// What changed at one system state: touched catalog names + raised events.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Delta {
    /// Catalog names (base relations and scalar items) written by the
    /// transaction that produced this state. Sorted, deduplicated. Empty
    /// for non-commit states (event emissions, clock ticks).
    pub touched_relations: Vec<String>,
    /// Names of every event raised at this state (including the engine's
    /// lifecycle events). Sorted, deduplicated.
    pub raised_events: Vec<String>,
}

impl Delta {
    /// A delta from pre-collected parts; both vectors are sorted and
    /// deduplicated here so callers can pass raw collections.
    pub fn new(mut touched_relations: Vec<String>, mut raised_events: Vec<String>) -> Delta {
        touched_relations.sort();
        touched_relations.dedup();
        raised_events.sort();
        raised_events.dedup();
        if tdb_obs::enabled() {
            let (touched, raised) = delta_counters();
            touched.add(touched_relations.len() as u64);
            raised.add(raised_events.len() as u64);
        }
        Delta {
            touched_relations,
            raised_events,
        }
    }

    /// An empty delta (nothing touched, nothing raised).
    pub fn empty() -> Delta {
        Delta::default()
    }

    /// Whether the state changed no data and raised no events.
    pub fn is_empty(&self) -> bool {
        self.touched_relations.is_empty() && self.raised_events.is_empty()
    }

    /// Whether `name` (a relation or item) was written.
    pub fn touches(&self, name: &str) -> bool {
        self.touched_relations
            .binary_search_by(|t| t.as_str().cmp(name))
            .is_ok()
    }

    /// Whether an event named `name` was raised.
    pub fn raises(&self, name: &str) -> bool {
        self.raised_events
            .binary_search_by(|t| t.as_str().cmp(name))
            .is_ok()
    }
}

#[cfg(test)]
#[allow(clippy::disallowed_methods)] // tests may unwrap
mod tests {
    use super::*;

    #[test]
    fn new_sorts_and_dedups() {
        let d = Delta::new(
            vec!["b".into(), "a".into(), "b".into()],
            vec!["y".into(), "x".into(), "x".into()],
        );
        assert_eq!(d.touched_relations, vec!["a".to_string(), "b".to_string()]);
        assert_eq!(d.raised_events, vec!["x".to_string(), "y".to_string()]);
        assert!(d.touches("a") && d.touches("b") && !d.touches("c"));
        assert!(d.raises("x") && !d.raises("z"));
    }

    #[test]
    fn empty_delta() {
        let d = Delta::empty();
        assert!(d.is_empty());
        assert!(!d.touches("a"));
        assert!(!d.raises("x"));
    }
}
