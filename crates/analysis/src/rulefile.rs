//! A small textual rule-file format for `tdb-lint`.
//!
//! ```text
//! -- comments run to end of line
//! rule double_drop {
//!     when [t := time] [x := price("IBM")]
//!          previously(price("IBM") <= 0.5 * x and time >= t - 10);
//!     then signal alert;
//! }
//! ```
//!
//! Grammar:
//!
//! ```text
//! file   := rule*
//! rule   := "rule" IDENT "{" "when" formula ";" "then" action ("," action)* ";" "}"
//! action := "set" IDENT ":=" term
//!         | "insert" IDENT "(" term ("," term)* ")"
//!         | "delete" IDENT "(" term ("," term)* ")"
//!         | "signal" IDENT
//!         | "notify" | "abort"
//! ```
//!
//! Write-set mapping (rule files have no schema, so items and the
//! same-named queries that read them share a name): `set`/`insert`/`delete
//! X` writes `query:X`; `signal E` writes `event:E`; `notify`/`abort` write
//! nothing. Every rule additionally writes its own executed relation
//! `query:__executed_<name>`, so `executed("other", …)` atoms create
//! triggering edges.
//!
//! The whole file is lexed once with the shared [`Cursor`], so the spans
//! threaded into each rule's formula are **file-relative** — diagnostics
//! point into the original source.

use std::collections::BTreeSet;

use tdb_ptl::{
    executed_query_name, parse_formula_cursor, parse_term_cursor, PtlError, Result, Term,
};
use tdb_relation::lexer::{Cursor, Tok};

use crate::batchsafety::BatchRule;
use crate::readset::{ReadSet, Resource};
use crate::ruleset::RuleInput;

/// A parsed rule file.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RuleFile {
    pub rules: Vec<RuleInput>,
}

/// One action of a rule, structurally. The verifier only needs the write
/// *set* (see [`BatchRule::writes`]); consumers that execute rules — the
/// network server registers rules shipped as rule-file text — need the
/// terms themselves, so the parser keeps both.
#[derive(Debug, Clone, PartialEq)]
pub enum ParsedAction {
    /// `set ITEM := term`.
    Set { item: String, value: Term },
    /// `insert REL(term, …)`.
    Insert { relation: String, tuple: Vec<Term> },
    /// `delete REL(term, …)`.
    Delete { relation: String, tuple: Vec<Term> },
    /// `signal EVENT` — raise an event (write-set only; execution backends
    /// may not support it).
    Signal { event: String },
    /// `notify`.
    Notify,
    /// `abort` — the rule is an integrity constraint.
    Abort,
}

/// A rule with both its verifier input and its structured actions.
#[derive(Debug, Clone, PartialEq)]
pub struct ParsedRule {
    pub input: RuleInput,
    pub actions: Vec<ParsedAction>,
}

/// A rule file parsed with full action structure.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ParsedRuleFile {
    pub rules: Vec<ParsedRule>,
}

/// Parses a rule file into verifier inputs. Spans inside each rule's
/// condition index into `src` itself.
pub fn parse_rule_file(src: &str) -> Result<RuleFile> {
    Ok(RuleFile {
        rules: parse_rule_file_full(src)?
            .rules
            .into_iter()
            .map(|r| r.input)
            .collect(),
    })
}

/// Parses a rule file keeping the structured actions alongside each rule's
/// verifier input.
pub fn parse_rule_file_full(src: &str) -> Result<ParsedRuleFile> {
    let mut c = Cursor::new(src)?;
    let mut rules = Vec::new();
    while !c.at_end() {
        rules.push(parse_rule(&mut c)?);
    }
    Ok(ParsedRuleFile { rules })
}

fn err_here(c: &Cursor, msg: impl Into<String>) -> PtlError {
    PtlError::ParseAt {
        msg: msg.into(),
        offset: c.offset(),
    }
}

fn parse_rule(c: &mut Cursor) -> Result<ParsedRule> {
    if !c.eat_kw("rule") {
        return Err(err_here(c, "expected `rule`"));
    }
    let name = match c.next_tok() {
        Some(Tok::Ident(s)) => s,
        _ => return Err(err_here(c, "expected rule name")),
    };
    if !c.eat_punct("{") {
        return Err(err_here(c, "expected `{` after rule name"));
    }
    if !c.eat_kw("when") {
        return Err(err_here(c, "expected `when`"));
    }
    let (condition, spans) = parse_formula_cursor(c)?;
    if !c.eat_punct(";") {
        return Err(err_here(c, "expected `;` after condition"));
    }
    if !c.eat_kw("then") {
        return Err(err_here(c, "expected `then`"));
    }
    let mut actions = Vec::new();
    loop {
        actions.push(parse_action(c)?);
        if !c.eat_punct(",") {
            break;
        }
    }
    if !c.eat_punct(";") {
        return Err(err_here(c, "expected `;` after actions"));
    }
    if !c.eat_punct("}") {
        return Err(err_here(c, "expected `}` to close rule"));
    }

    let mut writes = BTreeSet::new();
    let mut impure_action_values = false;
    let mut impure = |t: &Term| impure_action_values |= !ReadSet::of_term(t).is_empty();
    for a in &actions {
        match a {
            ParsedAction::Set { item, value } => {
                writes.insert(Resource::Query(item.clone()));
                impure(value);
            }
            ParsedAction::Insert { relation, tuple } | ParsedAction::Delete { relation, tuple } => {
                writes.insert(Resource::Query(relation.clone()));
                tuple.iter().for_each(&mut impure);
            }
            ParsedAction::Signal { event } => {
                writes.insert(Resource::Event(event.clone()));
            }
            ParsedAction::Notify | ParsedAction::Abort => {}
        }
    }
    writes.insert(Resource::Query(executed_query_name(&name)));
    Ok(ParsedRule {
        input: RuleInput {
            facts: BatchRule {
                name,
                reads: ReadSet::of(&condition),
                writes,
                impure_action_values,
            },
            condition,
            spans: Some(spans),
        },
        actions,
    })
}

fn parse_action(c: &mut Cursor) -> Result<ParsedAction> {
    if c.eat_kw("set") {
        let item = c.expect_ident()?;
        if !c.eat_punct(":=") {
            return Err(err_here(c, "expected `:=` in `set`"));
        }
        let value = parse_term_cursor(c)?;
        return Ok(ParsedAction::Set { item, value });
    }
    let insert = c.eat_kw("insert");
    if insert || c.eat_kw("delete") {
        let rel = c.expect_ident()?;
        if !c.eat_punct("(") {
            return Err(err_here(c, "expected `(` after relation name"));
        }
        let mut tuple = Vec::new();
        if !c.eat_punct(")") {
            loop {
                tuple.push(parse_term_cursor(c)?);
                if !c.eat_punct(",") {
                    break;
                }
            }
            if !c.eat_punct(")") {
                return Err(err_here(c, "expected `)` after tuple"));
            }
        }
        return Ok(if insert {
            ParsedAction::Insert {
                relation: rel,
                tuple,
            }
        } else {
            ParsedAction::Delete {
                relation: rel,
                tuple,
            }
        });
    }
    if c.eat_kw("signal") {
        let ev = c.expect_ident()?;
        return Ok(ParsedAction::Signal { event: ev });
    }
    if c.eat_kw("notify") {
        return Ok(ParsedAction::Notify);
    }
    if c.eat_kw("abort") {
        return Ok(ParsedAction::Abort);
    }
    Err(err_here(
        c,
        "expected an action: `set`, `insert`, `delete`, `signal`, `notify`, or `abort`",
    ))
}

#[cfg(test)]
#[allow(clippy::disallowed_methods)] // tests may unwrap
mod tests {
    use super::*;

    #[test]
    fn parses_rules_with_file_relative_spans() {
        let src = "-- demo\n\
                   rule audit {\n\
                   \x20   when @pulse and once @login(u);\n\
                   \x20   then notify;\n\
                   }\n";
        let file = parse_rule_file(src).unwrap();
        assert_eq!(file.rules.len(), 1);
        let rule = &file.rules[0];
        assert_eq!(rule.facts.name, "audit");
        // The `once …` subformula's span must point into the file source.
        let spans = rule.spans.as_ref().unwrap();
        let once = spans.child(1).unwrap();
        assert_eq!(once.span.slice(src).unwrap(), "once @login(u)");
        let executed = Resource::Query(executed_query_name("audit"));
        assert!(rule.facts.writes.contains(&executed));
    }

    #[test]
    fn actions_map_to_write_resources() {
        let src = "rule r {\n\
                   \x20 when price(\"IBM\") > 10;\n\
                   \x20 then set alarm := 1, insert log(time, \"hi\"), signal beep;\n\
                   }\n";
        let file = parse_rule_file(src).unwrap();
        let r = &file.rules[0];
        let printed: Vec<String> = r.facts.writes.iter().map(ToString::to_string).collect();
        assert_eq!(
            printed,
            [
                "event:beep",
                "query:__executed_r",
                "query:alarm",
                "query:log"
            ]
        );
        assert!(
            r.facts.impure_action_values,
            "`insert log(time, …)` reads the clock"
        );
        // A rule is data: there is no host-program action.
        let err = parse_rule_file("rule p { when @beep; then program handler; }").unwrap_err();
        match err {
            PtlError::ParseAt { msg, .. } => {
                assert!(msg.contains("`signal`, `notify`, or `abort`"), "{msg}");
                assert!(!msg.contains("program"), "{msg}");
            }
            other => panic!("expected positioned error, got {other}"),
        }
    }

    #[test]
    fn errors_carry_file_offsets() {
        let src = "rule r { when true then notify; }";
        let err = parse_rule_file(src).unwrap_err();
        match err {
            PtlError::ParseAt { msg, offset } => {
                assert!(msg.contains("expected `;` after condition"), "{msg}");
                assert_eq!(offset, src.find("then").unwrap());
            }
            other => panic!("expected positioned error, got {other}"),
        }
    }

    #[test]
    fn empty_insert_tuple_allowed() {
        let src = "rule r { when true; then insert marks(); }";
        let file = parse_rule_file(src).unwrap();
        assert!(file.rules[0]
            .facts
            .writes
            .contains(&Resource::Query("marks".into())));
    }
}
