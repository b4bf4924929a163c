//! # tdb-baseline
//!
//! Comparator implementations for the experiments:
//!
//! * [`NaiveDetector`] — re-evaluates a PTL condition from scratch over the
//!   full history on every update (the strawman Theorem 1 improves on;
//!   experiment E1);
//! * [`eventexpr`] — the event-expression formalism of Gehani, Jagadish &
//!   Shmueli compared against in Section 10: regular expressions over the
//!   event alphabet with intersection and complement, compiled through a
//!   Thompson NFA and subset construction to a DFA, exhibiting the
//!   (super)exponential state blowup PTL avoids (experiment E5);
//! * [`AuxEvaluator`] — the Section 5 auxiliary-relation strategy of the
//!   paper's Sybase prototype, evaluating decomposable conditions over
//!   timestamped query histories (experiment E10);
//! * [`naive_firings`] — the rule manager's firing semantics replayed over a
//!   history with one [`NaiveDetector`] per rule, the oracle the dispatch
//!   tests compare against.

#![forbid(unsafe_code)]
#![warn(missing_debug_implementations)]

pub mod auxrel;
pub mod eventexpr;
mod naive;

pub use auxrel::AuxEvaluator;
pub use eventexpr::{parse_event_expr, Dfa, EventExpr, Matcher, Nfa, Sym};
pub use naive::{naive_firings, NaiveDetector};
