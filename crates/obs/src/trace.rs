//! Structured tracing spans and the slow-rule log.
//!
//! A [`Span`] is a drop-guard: created via the [`span!`](crate::span!)
//! macro, it measures wall-clock from construction to drop and records a
//! [`SpanRecord`] into a process-wide ring buffer. Recording happens only
//! while the global flag ([`crate::enabled`]) is on — an inactive span is
//! a no-op shell that never touches the clock or the ring.
//!
//! The slow-rule log is a second, smaller ring fed by the rule manager:
//! full evaluations slower than `ObsConfig::slow_rule_ns` are appended as
//! [`SlowRule`] entries for post-hoc inspection.

use std::collections::VecDeque;
use std::sync::{Mutex, PoisonError};
use std::time::Instant;

const DEFAULT_SPAN_CAPACITY: usize = 256;
const SLOW_RULE_CAPACITY: usize = 128;

/// A completed span: name, formatted `key=value` fields, duration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    pub name: &'static str,
    /// `key=value` pairs captured at span creation.
    pub fields: Vec<(&'static str, String)>,
    /// Wall-clock nanoseconds from creation to drop (0 under miri, where
    /// the clock is unavailable).
    pub duration_ns: u64,
}

/// One slow full evaluation, as recorded by the rule manager.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SlowRule {
    pub rule: String,
    pub duration_ns: u64,
    /// Nanosecond threshold that was exceeded.
    pub threshold_ns: u64,
}

#[derive(Debug)]
struct Ring<T> {
    buf: VecDeque<T>,
    capacity: usize,
}

impl<T> Ring<T> {
    fn new(capacity: usize) -> Ring<T> {
        Ring {
            buf: VecDeque::new(),
            capacity,
        }
    }

    fn push(&mut self, item: T) {
        if self.capacity == 0 {
            return;
        }
        while self.buf.len() >= self.capacity {
            self.buf.pop_front();
        }
        self.buf.push_back(item);
    }
}

static SPANS: Mutex<Option<Ring<SpanRecord>>> = Mutex::new(None);
static SLOW_RULES: Mutex<Option<Ring<SlowRule>>> = Mutex::new(None);

fn with_spans<R>(f: impl FnOnce(&mut Ring<SpanRecord>) -> R) -> R {
    let mut guard = SPANS.lock().unwrap_or_else(PoisonError::into_inner);
    f(guard.get_or_insert_with(|| Ring::new(DEFAULT_SPAN_CAPACITY)))
}

fn with_slow<R>(f: impl FnOnce(&mut Ring<SlowRule>) -> R) -> R {
    let mut guard = SLOW_RULES.lock().unwrap_or_else(PoisonError::into_inner);
    f(guard.get_or_insert_with(|| Ring::new(SLOW_RULE_CAPACITY)))
}

/// Resizes the span ring buffer (oldest records drop first when shrinking;
/// capacity 0 disables recording entirely).
pub fn set_trace_capacity(capacity: usize) {
    with_spans(|r| {
        r.capacity = capacity;
        while r.buf.len() > capacity {
            r.buf.pop_front();
        }
    });
}

/// The most recent spans, oldest first.
pub fn recent_spans() -> Vec<SpanRecord> {
    with_spans(|r| r.buf.iter().cloned().collect())
}

/// Empties the span ring buffer.
pub fn clear_spans() {
    with_spans(|r| r.buf.clear());
}

/// Appends to the slow-rule log (called by the rule manager when a full
/// evaluation exceeds the configured threshold).
pub fn record_slow_rule(rule: &str, duration_ns: u64, threshold_ns: u64) {
    with_slow(|r| {
        r.push(SlowRule {
            rule: rule.to_string(),
            duration_ns,
            threshold_ns,
        })
    });
}

/// The most recent slow-rule entries, oldest first.
pub fn slow_rules() -> Vec<SlowRule> {
    with_slow(|r| r.buf.iter().cloned().collect())
}

/// Empties the slow-rule log.
pub fn clear_slow_rules() {
    with_slow(|r| r.buf.clear());
}

/// An in-flight span. Create with [`span!`](crate::span!); the record is
/// written when the guard drops. Inactive spans (created while the global
/// flag is off) carry no data and do nothing on drop.
#[derive(Debug)]
#[must_use = "a span measures until it is dropped"]
pub struct Span {
    active: Option<SpanBody>,
}

#[derive(Debug)]
struct SpanBody {
    name: &'static str,
    fields: Vec<(&'static str, String)>,
    start: Option<Instant>,
}

impl Span {
    /// A disabled span (no clock read, no record on drop).
    pub fn inactive() -> Span {
        Span { active: None }
    }

    /// An enabled span; prefer the [`span!`](crate::span!) macro, which
    /// checks the global flag first.
    pub fn start(name: &'static str, fields: Vec<(&'static str, String)>) -> Span {
        Span {
            active: Some(SpanBody {
                name,
                fields,
                start: crate::now(),
            }),
        }
    }

    /// Whether this span will record on drop.
    pub fn is_active(&self) -> bool {
        self.active.is_some()
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some(body) = self.active.take() {
            let record = SpanRecord {
                name: body.name,
                fields: body.fields,
                duration_ns: crate::elapsed_ns(body.start),
            };
            with_spans(|r| r.push(record));
        }
    }
}

/// Opens a [`Span`]: `span!("dispatch")` or
/// `span!("dispatch", rule = name, states = n)`. Field values are captured
/// with `format!("{}", value)` at creation. When the global flag is off the
/// expansion is one relaxed load plus an inert guard — field expressions
/// are not evaluated.
#[macro_export]
macro_rules! span {
    ($name:expr $(, $key:ident = $value:expr)* $(,)?) => {
        if $crate::enabled() {
            $crate::trace::Span::start(
                $name,
                vec![$((stringify!($key), format!("{}", $value))),*],
            )
        } else {
            $crate::trace::Span::inactive()
        }
    };
}

#[cfg(test)]
#[allow(clippy::disallowed_methods)] // tests may unwrap
mod tests {
    use super::*;

    // The span/slow-rule rings are process-global; tests in this module
    // serialize on this lock so they do not interleave.
    static SERIAL: Mutex<()> = Mutex::new(());

    #[test]
    fn span_records_on_drop() {
        let _serial = SERIAL.lock().unwrap();
        clear_spans();
        {
            let s = Span::start("dispatch", vec![("rule", "doubled".to_string())]);
            assert!(s.is_active());
        }
        let spans = recent_spans();
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].name, "dispatch");
        assert_eq!(spans[0].fields, vec![("rule", "doubled".to_string())]);
        clear_spans();
    }

    #[test]
    fn inactive_span_records_nothing() {
        let _serial = SERIAL.lock().unwrap();
        clear_spans();
        {
            let s = Span::inactive();
            assert!(!s.is_active());
        }
        assert!(recent_spans().is_empty());
    }

    #[test]
    fn span_macro_follows_global_flag() {
        let _serial = SERIAL.lock().unwrap();
        clear_spans();
        crate::set_enabled(false);
        {
            let _s = span!("gate", rule = "r1");
        }
        assert!(recent_spans().is_empty(), "flag off: no record");
        crate::set_enabled(true);
        {
            let _s = span!("gate", rule = "r1", states = 2 + 3);
        }
        crate::set_enabled(false);
        let spans = recent_spans();
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].name, "gate");
        assert_eq!(
            spans[0].fields,
            vec![("rule", "r1".to_string()), ("states", "5".to_string())]
        );
        clear_spans();
    }

    #[test]
    fn ring_drops_oldest() {
        let _serial = SERIAL.lock().unwrap();
        clear_spans();
        set_trace_capacity(2);
        for i in 0..4 {
            drop(Span::start("s", vec![("i", i.to_string())]));
        }
        let spans = recent_spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].fields[0].1, "2");
        assert_eq!(spans[1].fields[0].1, "3");
        set_trace_capacity(DEFAULT_SPAN_CAPACITY);
        clear_spans();
    }

    #[test]
    fn slow_rule_log_round_trips() {
        let _serial = SERIAL.lock().unwrap();
        clear_slow_rules();
        record_slow_rule("doubled", 5_000, 1_000);
        let slow = slow_rules();
        assert_eq!(
            slow,
            vec![SlowRule {
                rule: "doubled".to_string(),
                duration_ns: 5_000,
                threshold_ns: 1_000,
            }]
        );
        clear_slow_rules();
        assert!(slow_rules().is_empty());
    }
}
