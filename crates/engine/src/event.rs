//! Instantaneous, parameterized events (the paper's set `U`).
//!
//! "Transaction-begin, Transaction-commit, Rule-execute, Insert-tuple etc.,
//! are some of the events. Many of these events may be parameterized."
//! An [`Event`] is a name plus a list of parameter values; an [`EventSet`]
//! is the (possibly simultaneous) set of events of one system state.

use std::collections::BTreeSet;
use std::fmt;
use std::sync::Arc;

use tdb_relation::Value;

use crate::txn::TxnId;

/// Well-known event names used by the engine itself. User events may use any
/// other name.
pub mod names {
    pub const TXN_BEGIN: &str = "transaction_begin";
    pub const TXN_COMMIT: &str = "transaction_commit";
    pub const TXN_ABORT: &str = "transaction_abort";
    pub const ATTEMPTS_TO_COMMIT: &str = "attempts_to_commit";
    pub const INSERT_TUPLE: &str = "insert_tuple";
    pub const DELETE_TUPLE: &str = "delete_tuple";
    pub const SET_ITEM: &str = "set_item";
    pub const RULE_EXECUTE: &str = "rule_execute";
    pub const UPDATE: &str = "update";
    pub const CLOCK_TICK: &str = "clock_tick";
}

/// A single instantaneous event occurrence.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Event {
    name: Arc<str>,
    args: Vec<Value>,
}

impl Event {
    pub fn new(name: impl Into<Arc<str>>, args: Vec<Value>) -> Event {
        Event {
            name: name.into(),
            args,
        }
    }

    /// A parameterless event.
    pub fn simple(name: impl Into<Arc<str>>) -> Event {
        Event::new(name, Vec::new())
    }

    pub fn name(&self) -> &str {
        &self.name
    }

    pub fn args(&self) -> &[Value] {
        &self.args
    }

    // -- engine-generated events ------------------------------------------

    pub fn txn_begin(t: TxnId) -> Event {
        Event::new(names::TXN_BEGIN, vec![Value::Int(t.0 as i64)])
    }

    pub fn txn_commit(t: TxnId) -> Event {
        Event::new(names::TXN_COMMIT, vec![Value::Int(t.0 as i64)])
    }

    pub fn txn_abort(t: TxnId) -> Event {
        Event::new(names::TXN_ABORT, vec![Value::Int(t.0 as i64)])
    }

    pub fn attempts_to_commit(t: TxnId) -> Event {
        Event::new(names::ATTEMPTS_TO_COMMIT, vec![Value::Int(t.0 as i64)])
    }

    /// An update event on a named relation or item.
    pub fn update(target: &str) -> Event {
        Event::new(names::UPDATE, vec![Value::str(target)])
    }

    /// The rule-execution event backing the `executed` predicate.
    pub fn rule_execute(rule: &str, params: &[Value]) -> Event {
        let mut args = vec![Value::str(rule)];
        args.extend_from_slice(params);
        Event::new(names::RULE_EXECUTE, args)
    }

    /// True if this is a `transaction_commit` event (of any transaction).
    pub fn is_commit(&self) -> bool {
        self.name() == names::TXN_COMMIT
    }

    /// The transaction id if this is a transaction lifecycle event.
    pub fn txn_id(&self) -> Option<TxnId> {
        match self.name() {
            names::TXN_BEGIN | names::TXN_COMMIT | names::TXN_ABORT | names::ATTEMPTS_TO_COMMIT => {
                self.args
                    .first()
                    .and_then(Value::as_i64)
                    .map(|i| TxnId(i as u64))
            }
            _ => None,
        }
    }
}

impl fmt::Display for Event {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}(", self.name)?;
        for (i, a) in self.args.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{a}")?;
        }
        write!(f, ")")
    }
}

/// The set of events of one system state.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EventSet {
    events: BTreeSet<Event>,
}

impl EventSet {
    pub fn new() -> EventSet {
        EventSet::default()
    }

    pub fn of(events: impl IntoIterator<Item = Event>) -> EventSet {
        EventSet {
            events: events.into_iter().collect(),
        }
    }

    pub fn insert(&mut self, e: Event) {
        self.events.insert(e);
    }

    pub fn iter(&self) -> impl Iterator<Item = &Event> {
        self.events.iter()
    }

    pub fn len(&self) -> usize {
        self.events.len()
    }

    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    pub fn contains(&self, e: &Event) -> bool {
        self.events.contains(e)
    }

    /// True if any event has the given name.
    pub fn has_named(&self, name: &str) -> bool {
        self.events.iter().any(|e| e.name() == name)
    }

    /// Events with the given name.
    pub fn named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Event> {
        self.events.iter().filter(move |e| e.name() == name)
    }

    /// Number of `transaction_commit` events (the model allows at most one).
    pub fn commit_count(&self) -> usize {
        self.events.iter().filter(|e| e.is_commit()).count()
    }

    pub fn union_with(&mut self, other: &EventSet) {
        self.events.extend(other.events.iter().cloned());
    }
}

impl FromIterator<Event> for EventSet {
    fn from_iter<T: IntoIterator<Item = Event>>(iter: T) -> Self {
        EventSet::of(iter)
    }
}

impl fmt::Display for EventSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, e) in self.events.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{e}")?;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
#[allow(clippy::disallowed_methods)] // tests may unwrap
mod tests {
    use super::*;

    #[test]
    fn parameterized_events_are_distinct() {
        let a = Event::new("login", vec![Value::str("alice")]);
        let b = Event::new("login", vec![Value::str("bob")]);
        assert_ne!(a, b);
        let set = EventSet::of([a.clone(), b, a.clone()]);
        assert_eq!(set.len(), 2);
        assert!(set.contains(&a));
        assert!(set.has_named("login"));
        assert_eq!(set.named("login").count(), 2);
    }

    #[test]
    fn txn_events_roundtrip_id() {
        let e = Event::txn_commit(TxnId(30));
        assert!(e.is_commit());
        assert_eq!(e.txn_id(), Some(TxnId(30)));
        assert_eq!(e.to_string(), "transaction_commit(30)");
        assert_eq!(Event::simple("tick").txn_id(), None);
    }

    #[test]
    fn commit_count() {
        let set = EventSet::of([
            Event::txn_commit(TxnId(1)),
            Event::txn_begin(TxnId(2)),
            Event::update("STOCK"),
        ]);
        assert_eq!(set.commit_count(), 1);
    }

    #[test]
    fn union_merges() {
        let mut a = EventSet::of([Event::simple("x")]);
        a.union_with(&EventSet::of([Event::simple("y"), Event::simple("x")]));
        assert_eq!(a.len(), 2);
    }
}
