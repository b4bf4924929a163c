//! Surface syntax for PTL.
//!
//! ```text
//! formula  := "[" IDENT ":=" term "]" formula            -- assignment
//!           | orF
//! orF      := andF ("or" andF)*
//! andF     := sinceF ("and" sinceF)*
//! sinceF   := notF ("since" notF)*                       -- left-assoc
//! notF     := "not" notF | unaryF
//! unaryF   := ("lasttime" | "previously" | "once"
//!              | "throughout_past" | "historically") unaryF
//!           | primary
//! primary  := "true" | "false"
//!           | "(" formula ")"
//!           | "@" IDENT ("(" termlist ")")?              -- event atom
//!           | "executed" "(" IDENT ("," term)* ")"       -- executed sugar
//!           | "(" termlist ")" "in" IDENT "(" termlist ")"  -- tuple member
//!           | term "in" IDENT "(" termlist ")"           -- member
//!           | term CMP term
//! term     := arithmetic over: NUMBER | STRING | "time" | IDENT
//!           | IDENT "(" termlist ")"                     -- named query
//!           | AGG "(" term ";" formula ";" formula ")"   -- temporal aggregate
//! ```
//!
//! Parsing also produces a [`SpanNode`] tree mirroring the formula (see
//! [`parse_formula_spanned`]) so static analyses can point diagnostics at the
//! byte range of any subformula, and every parse error carries the byte
//! offset of the offending token ([`PtlError::ParseAt`]).
//!
//! Examples from the paper:
//!
//! ```
//! use tdb_ptl::parse_formula;
//! // "the price of IBM stock doubled in 10 units of time"
//! let f = parse_formula(
//!     "[t := time] [x := price(\"IBM\")] \
//!      previously(price(\"IBM\") <= 0.5 * x and time >= t - 10)",
//! ).unwrap();
//! assert!(f.is_closed());
//!
//! // "the value of A remains positive while user X is logged in"
//! let g = parse_formula(
//!     "a() > 0 or not (not @logout(\"X\") since @login(\"X\"))",
//! ).unwrap();
//! assert!(g.is_temporal());
//! ```

use tdb_relation::lexer::{Cursor, Tok};
use tdb_relation::{AggFunc, ArithOp, CmpOp, Value};

use crate::error::{PtlError, Result};
use crate::formula::{Formula, QueryRef};
use crate::span::{Span, SpanNode};
use crate::term::Term;

/// The name of the auto-maintained query exposing the `executed` relation of
/// a rule (see Section 7); `executed(r, …)` desugars to a membership atom
/// over it.
pub fn executed_query_name(rule: &str) -> String {
    format!("__executed_{rule}")
}

/// Parses a complete PTL formula.
pub fn parse_formula(src: &str) -> Result<Formula> {
    parse_formula_spanned(src).map(|(f, _)| f)
}

/// Parses a complete PTL formula along with a [`SpanNode`] tree mirroring
/// its shape, for diagnostics that point into the source text.
pub fn parse_formula_spanned(src: &str) -> Result<(Formula, SpanNode)> {
    let mut c = Cursor::new(src).map_err(rel_parse)?;
    let fs = formula(&mut c)?;
    if !c.at_end() {
        return Err(err_here(&c, "expected end of input"));
    }
    Ok(fs)
}

/// Parses one formula starting at the current cursor position, leaving the
/// cursor just past it. Spans are offsets into the cursor's source, so a
/// host language embedding PTL formulas (e.g. a rule file) gets
/// file-relative positions for free.
pub fn parse_formula_cursor(c: &mut Cursor) -> Result<(Formula, SpanNode)> {
    formula(c)
}

/// Parses one term starting at the current cursor position, leaving the
/// cursor just past it (for host languages embedding PTL terms).
pub fn parse_term_cursor(c: &mut Cursor) -> Result<Term> {
    term(c)
}

/// Parses a complete PTL term.
pub fn parse_term(src: &str) -> Result<Term> {
    let mut c = Cursor::new(src).map_err(rel_parse)?;
    let t = term(&mut c)?;
    if !c.at_end() {
        return Err(err_here(&c, "expected end of input"));
    }
    Ok(t)
}

fn rel_parse(e: tdb_relation::RelError) -> PtlError {
    PtlError::Parse(e.to_string())
}

/// A parse error naming the current token and its byte offset.
fn err_here(c: &Cursor, msg: &str) -> PtlError {
    let found = match c.peek() {
        Some(t) => t.describe(),
        None => "end of input".to_string(),
    };
    PtlError::ParseAt {
        msg: format!("{msg}, found {found}"),
        offset: c.offset(),
    }
}

fn expect_punct(c: &mut Cursor, p: &str) -> Result<()> {
    if c.eat_punct(p) {
        Ok(())
    } else {
        Err(err_here(c, &format!("expected `{p}`")))
    }
}

fn expect_ident(c: &mut Cursor) -> Result<String> {
    match c.peek() {
        Some(Tok::Ident(s)) => {
            let s = s.clone();
            c.next_tok();
            Ok(s)
        }
        _ => Err(err_here(c, "expected identifier")),
    }
}

fn formula(c: &mut Cursor) -> Result<(Formula, SpanNode)> {
    c.nested(assign_f)
}

fn assign_f(c: &mut Cursor) -> Result<(Formula, SpanNode)> {
    let start = c.offset();
    if c.eat_punct("[") {
        let var = expect_ident(c)?;
        expect_punct(c, ":=")?;
        let t = term(c)?;
        expect_punct(c, "]")?;
        let (body, bspan) = formula(c)?;
        let span = Span::new(start, bspan.span.end);
        return Ok((
            Formula::assign(var, t, body),
            SpanNode {
                span,
                children: vec![bspan],
            },
        ));
    }
    or_f(c)
}

/// Joins n-ary connective parts: a single part passes through unchanged
/// (mirroring `Formula::and`/`Formula::or` collapsing), otherwise the span
/// node gets one child per part.
fn nary(
    mut parts: Vec<(Formula, SpanNode)>,
    build: fn(Vec<Formula>) -> Formula,
) -> (Formula, SpanNode) {
    if parts.len() < 2 {
        return parts
            .pop()
            .unwrap_or_else(|| (build(Vec::new()), SpanNode::leaf(0, 0)));
    }
    let span = Span::new(parts[0].1.span.start, parts[parts.len() - 1].1.span.end);
    let (fs, children): (Vec<_>, Vec<_>) = parts.into_iter().unzip();
    (build(fs), SpanNode { span, children })
}

fn or_f(c: &mut Cursor) -> Result<(Formula, SpanNode)> {
    let mut parts = vec![and_f(c)?];
    while c.eat_kw("or") || c.eat_punct("||") {
        parts.push(and_f(c)?);
    }
    Ok(nary(parts, Formula::or))
}

fn and_f(c: &mut Cursor) -> Result<(Formula, SpanNode)> {
    let mut parts = vec![since_f(c)?];
    while c.eat_kw("and") || c.eat_punct("&&") {
        parts.push(since_f(c)?);
    }
    Ok(nary(parts, Formula::and))
}

// `not` binds tighter than `since`: `not @logout since @login` reads as
// `(not @logout) since @login`, matching the paper's examples.
fn since_f(c: &mut Cursor) -> Result<(Formula, SpanNode)> {
    c.chain(|c| {
        let (mut lf, mut ls) = not_f(c)?;
        while c.eat_kw("since") {
            c.deeper()?;
            let (rf, rs) = not_f(c)?;
            let span = Span::new(ls.span.start, rs.span.end);
            lf = Formula::since(lf, rf);
            ls = SpanNode {
                span,
                children: vec![ls, rs],
            };
        }
        Ok((lf, ls))
    })
}

fn not_f(c: &mut Cursor) -> Result<(Formula, SpanNode)> {
    let start = c.offset();
    if c.eat_kw("not") || c.eat_punct("!") {
        let (f, s) = c.nested(not_f)?;
        let span = Span::new(start, s.span.end);
        Ok((
            Formula::not(f),
            SpanNode {
                span,
                children: vec![s],
            },
        ))
    } else {
        unary_f(c)
    }
}

fn unary_f(c: &mut Cursor) -> Result<(Formula, SpanNode)> {
    let start = c.offset();
    let build: fn(Formula) -> Formula = if c.eat_kw("lasttime") {
        Formula::lasttime
    } else if c.eat_kw("previously") || c.eat_kw("once") {
        Formula::previously
    } else if c.eat_kw("throughout_past") || c.eat_kw("historically") {
        Formula::throughout_past
    } else {
        return primary(c);
    };
    let (f, s) = c.nested(unary_f)?;
    let span = Span::new(start, s.span.end);
    Ok((
        build(f),
        SpanNode {
            span,
            children: vec![s],
        },
    ))
}

fn primary(c: &mut Cursor) -> Result<(Formula, SpanNode)> {
    let start = c.offset();
    if c.eat_kw("true") {
        return Ok((Formula::True, SpanNode::leaf(start, c.prev_end())));
    }
    if c.eat_kw("false") {
        return Ok((Formula::False, SpanNode::leaf(start, c.prev_end())));
    }
    // Assignments may also appear nested under connectives.
    if matches!(c.peek(), Some(Tok::Punct("["))) {
        return formula(c);
    }
    // Event atom.
    if c.eat_punct("@") {
        let name = expect_ident(c)?;
        let mut pattern = Vec::new();
        if c.eat_punct("(") && !c.eat_punct(")") {
            loop {
                pattern.push(term(c)?);
                if !c.eat_punct(",") {
                    break;
                }
            }
            expect_punct(c, ")")?;
        }
        return Ok((
            Formula::Event { name, pattern },
            SpanNode::leaf(start, c.prev_end()),
        ));
    }
    // `executed(rule, args…)` sugar.
    if c.peek().is_some_and(|t| t.is_kw("executed"))
        && matches!(c.peek_at(1), Some(Tok::Punct("(")))
    {
        c.next_tok();
        expect_punct(c, "(")?;
        let rule = match c.peek() {
            Some(Tok::Ident(s)) | Some(Tok::Str(s)) => s.clone(),
            _ => return Err(err_here(c, "expected rule name in executed(...)")),
        };
        c.next_tok();
        let mut pattern = Vec::new();
        while c.eat_punct(",") {
            pattern.push(term(c)?);
        }
        expect_punct(c, ")")?;
        return Ok((
            Formula::Member {
                source: QueryRef::new(executed_query_name(&rule), vec![]),
                pattern,
            },
            SpanNode::leaf(start, c.prev_end()),
        ));
    }
    // Parenthesized formula (backtrack to term forms on failure).
    if matches!(c.peek(), Some(Tok::Punct("("))) {
        let save = c.pos();
        c.next_tok();
        if let Ok(mut f) = formula(c) {
            if c.eat_punct(")") {
                // Widen the node's span to include the parentheses.
                f.1.span = Span::new(start, c.prev_end());
                return Ok(f);
            }
        }
        c.set_pos(save);
        // Tuple membership: "(" termlist ")" "in" qref.
        if let Some(f) = try_tuple_member(c, start)? {
            return Ok(f);
        }
        c.set_pos(save);
    }
    // term CMP term | term "in" qref.
    let left = term(c)?;
    if c.eat_kw("in") {
        let source = query_ref(c)?;
        return Ok((
            Formula::Member {
                source,
                pattern: vec![left],
            },
            SpanNode::leaf(start, c.prev_end()),
        ));
    }
    let op = cmp_op(c).ok_or_else(|| err_here(c, "expected comparison or `in` after term"))?;
    let right = term(c)?;
    Ok((
        Formula::Cmp(op, left, right),
        SpanNode::leaf(start, c.prev_end()),
    ))
}

fn try_tuple_member(c: &mut Cursor, start: usize) -> Result<Option<(Formula, SpanNode)>> {
    if !c.eat_punct("(") {
        return Ok(None);
    }
    let mut pattern = Vec::new();
    loop {
        match term(c) {
            Ok(t) => pattern.push(t),
            Err(_) => return Ok(None),
        }
        if c.eat_punct(",") {
            continue;
        }
        break;
    }
    if !c.eat_punct(")") || !c.eat_kw("in") {
        return Ok(None);
    }
    let source = query_ref(c)?;
    Ok(Some((
        Formula::Member { source, pattern },
        SpanNode::leaf(start, c.prev_end()),
    )))
}

fn query_ref(c: &mut Cursor) -> Result<QueryRef> {
    let name = expect_ident(c)?;
    let mut args = Vec::new();
    expect_punct(c, "(")?;
    if !c.eat_punct(")") {
        loop {
            args.push(term(c)?);
            if !c.eat_punct(",") {
                break;
            }
        }
        expect_punct(c, ")")?;
    }
    Ok(QueryRef { name, args })
}

fn cmp_op(c: &mut Cursor) -> Option<CmpOp> {
    let op = match c.peek() {
        Some(Tok::Punct("<")) => CmpOp::Lt,
        Some(Tok::Punct("<=")) => CmpOp::Le,
        Some(Tok::Punct("=")) | Some(Tok::Punct("==")) => CmpOp::Eq,
        Some(Tok::Punct("!=")) | Some(Tok::Punct("<>")) => CmpOp::Ne,
        Some(Tok::Punct(">=")) => CmpOp::Ge,
        Some(Tok::Punct(">")) => CmpOp::Gt,
        _ => return None,
    };
    c.next_tok();
    Some(op)
}

// ---- terms ---------------------------------------------------------------

fn term(c: &mut Cursor) -> Result<Term> {
    c.nested(add_term)
}

fn add_term(c: &mut Cursor) -> Result<Term> {
    c.chain(|c| {
        let mut left = mul_term(c)?;
        loop {
            let op = if c.eat_punct("+") {
                ArithOp::Add
            } else if c.eat_punct("-") {
                ArithOp::Sub
            } else {
                return Ok(left);
            };
            c.deeper()?;
            left = Term::arith(op, left, mul_term(c)?);
        }
    })
}

fn mul_term(c: &mut Cursor) -> Result<Term> {
    c.chain(|c| {
        let mut left = unary_term(c)?;
        loop {
            let op = if c.eat_punct("*") {
                ArithOp::Mul
            } else if c.eat_punct("/") {
                ArithOp::Div
            } else if c.eat_punct("%") || c.eat_kw("mod") {
                ArithOp::Mod
            } else {
                return Ok(left);
            };
            c.deeper()?;
            left = Term::arith(op, left, unary_term(c)?);
        }
    })
}

fn unary_term(c: &mut Cursor) -> Result<Term> {
    if c.eat_punct("-") {
        let t = c.nested(unary_term)?;
        // Fold negative literals so `-1` round-trips as a constant.
        return Ok(match t {
            Term::Const(Value::Int(i)) => Term::lit(-i),
            Term::Const(Value::Float(f)) => Term::lit(-f),
            other => Term::Neg(Box::new(other)),
        });
    }
    atom_term(c)
}

fn atom_term(c: &mut Cursor) -> Result<Term> {
    if c.at_end() {
        return Err(err_here(c, "expected term"));
    }
    let off = c.offset();
    match c.next_tok() {
        Some(Tok::Int(i)) => Ok(Term::lit(i)),
        Some(Tok::Float(f)) => Ok(Term::lit(f)),
        Some(Tok::Str(s)) => Ok(Term::Const(Value::str(s))),
        Some(Tok::Punct("(")) => {
            let t = term(c)?;
            expect_punct(c, ")")?;
            Ok(t)
        }
        Some(Tok::Ident(name)) => {
            if name.eq_ignore_ascii_case("time") {
                return Ok(Term::Time);
            }
            if name.eq_ignore_ascii_case("abs") && c.eat_punct("(") {
                let t = term(c)?;
                expect_punct(c, ")")?;
                return Ok(Term::Abs(Box::new(t)));
            }
            // Aggregate call: AGG(term; formula; formula).
            if let Some(func) = AggFunc::parse(&name) {
                if matches!(c.peek(), Some(Tok::Punct("("))) {
                    let save = c.pos();
                    c.next_tok();
                    let q = term(c)?;
                    if c.eat_punct(";") {
                        let (start, _) = formula(c)?;
                        expect_punct(c, ";")?;
                        let (sample, _) = formula(c)?;
                        expect_punct(c, ")")?;
                        return Ok(Term::agg(func, q, start, sample));
                    }
                    // Not an aggregate after all — fall through to a query
                    // call named like an aggregate (e.g. a query `last(x)`).
                    c.set_pos(save);
                }
            }
            if c.eat_punct("(") {
                let mut args = Vec::new();
                if !c.eat_punct(")") {
                    loop {
                        args.push(term(c)?);
                        if !c.eat_punct(",") {
                            break;
                        }
                    }
                    expect_punct(c, ")")?;
                }
                return Ok(Term::Query { name, args });
            }
            Ok(Term::var(name))
        }
        Some(t) => Err(PtlError::ParseAt {
            msg: format!("unexpected {}", t.describe()),
            offset: off,
        }),
        None => Err(err_here(c, "expected term")),
    }
}

#[cfg(test)]
#[allow(clippy::disallowed_methods)] // tests may unwrap
mod tests {
    use super::*;

    #[test]
    fn ibm_doubling_example_parses() {
        let f = parse_formula(
            "[t := time] [x := price(\"IBM\")] \
             previously(price(\"IBM\") <= 0.5 * x and time >= t - 10)",
        )
        .unwrap();
        assert!(f.is_closed());
        assert_eq!(f.assigned_vars(), vec!["t".to_string(), "x".into()]);
        assert!(crate::analysis::time_vars(&f).contains("t"));
    }

    #[test]
    fn login_session_example_parses() {
        // "the value of A remains positive while user X is logged in"
        let f = parse_formula("a() > 0 or not (not @logout(\"X\") since @login(\"X\"))").unwrap();
        assert!(matches!(f, Formula::Or(_)));
        assert_eq!(f.event_names(), vec!["logout".to_string(), "login".into()]);
    }

    #[test]
    fn since_is_left_associative() {
        let f = parse_formula("@a since @b since @c").unwrap();
        // ((a since b) since c)
        match f {
            Formula::Since(left, right) => {
                assert!(matches!(*left, Formula::Since(..)));
                assert!(matches!(*right, Formula::Event { .. }));
            }
            other => panic!("expected since, got {other}"),
        }
    }

    #[test]
    fn operator_precedence_not_binds_tighter_than_and() {
        let f = parse_formula("not @a and @b").unwrap();
        match f {
            Formula::And(parts) => {
                assert!(matches!(parts[0], Formula::Not(_)));
                assert!(matches!(parts[1], Formula::Event { .. }));
            }
            other => panic!("expected and, got {other}"),
        }
    }

    #[test]
    fn membership_atom() {
        let f = parse_formula("x in overpriced()").unwrap();
        match &f {
            Formula::Member { source, pattern } => {
                assert_eq!(source.name, "overpriced");
                assert_eq!(pattern, &vec![Term::var("x")]);
            }
            other => panic!("expected member, got {other}"),
        }
        assert_eq!(f.free_vars(), vec!["x".to_string()]);
    }

    #[test]
    fn tuple_membership_atom() {
        let f = parse_formula("(x, 72) in stock_rows()").unwrap();
        match f {
            Formula::Member { pattern, .. } => assert_eq!(pattern.len(), 2),
            other => panic!("expected tuple member, got {other}"),
        }
    }

    #[test]
    fn executed_sugar_desugars_to_member() {
        let f = parse_formula("executed(r1, x, t) and time = t + 10").unwrap();
        match &f {
            Formula::And(parts) => match &parts[0] {
                Formula::Member { source, pattern } => {
                    assert_eq!(source.name, executed_query_name("r1"));
                    assert_eq!(pattern.len(), 2);
                }
                other => panic!("expected member, got {other}"),
            },
            other => panic!("expected and, got {other}"),
        }
    }

    #[test]
    fn aggregate_syntax() {
        // Hourly average of IBM since 9AM, sampled at update_stocks events.
        let f =
            parse_formula("avg(price(\"IBM\"); time = 540; @update_stocks) > 70 since time = 540")
                .unwrap();
        assert!(matches!(f, Formula::Since(..)));
        let mut has_agg = false;
        f.visit(&mut |g| {
            if let Formula::Cmp(_, Term::Agg(_), _) = g {
                has_agg = true;
            }
        });
        assert!(has_agg);
    }

    #[test]
    fn nested_assignment_in_connective() {
        let f = parse_formula("@boot or [x := a()] (a() > x)").unwrap();
        assert!(matches!(f, Formula::Or(_)));
    }

    #[test]
    fn once_and_historically_synonyms() {
        assert_eq!(
            parse_formula("once @e").unwrap(),
            parse_formula("previously @e").unwrap()
        );
        assert_eq!(
            parse_formula("historically @e").unwrap(),
            parse_formula("throughout_past @e").unwrap()
        );
    }

    #[test]
    fn parenthesized_term_comparison() {
        let f = parse_formula("(x + 1) * 2 >= y and x in names()").unwrap();
        assert_eq!(f.free_vars(), vec!["x".to_string(), "y".into()]);
    }

    #[test]
    fn bad_input_rejected() {
        assert!(parse_formula("since @a").is_err());
        assert!(parse_formula("@a since").is_err());
        assert!(
            parse_formula("price(\"IBM\")").is_err(),
            "bare term is not a formula"
        );
        assert!(
            parse_formula("[x = 3] true").is_err(),
            "assignment needs :="
        );
        assert!(parse_formula("x in ").is_err());
    }

    #[test]
    fn parse_errors_carry_byte_offsets() {
        // `since` with no right operand: error points at end of input.
        let src = "@a since";
        match parse_formula(src).unwrap_err() {
            PtlError::ParseAt { offset, .. } => assert_eq!(offset, src.len()),
            other => panic!("expected positioned error, got {other:?}"),
        }
        // A bare term followed by garbage points at the garbage token.
        let src = "price(\"IBM\") ; true";
        match parse_formula(src).unwrap_err() {
            PtlError::ParseAt { offset, msg } => {
                assert_eq!(offset, 13);
                assert!(msg.contains("expected comparison or `in`"), "{msg}");
            }
            other => panic!("expected positioned error, got {other:?}"),
        }
        // Errors render the position.
        let err = parse_formula("@a since").unwrap_err().to_string();
        assert!(err.contains("at byte 8"), "{err}");
    }

    #[test]
    fn spanned_parse_mirrors_formula_shape() {
        let src = "[t := time] previously(@login(u) and time >= t - 10)";
        let (f, spans) = parse_formula_spanned(src).unwrap();
        // Assign -> Previously -> And -> [Event, Cmp].
        assert_eq!(spans.span, Span::new(0, src.len()));
        let prev = spans.child(0).unwrap();
        match &f {
            Formula::Assign { body, .. } => assert!(matches!(**body, Formula::Previously(_))),
            other => panic!("expected assign, got {other}"),
        }
        assert_eq!(prev.span.slice(src).unwrap(), &src[12..]);
        let and = prev.child(0).unwrap();
        assert_eq!(and.children.len(), 2);
        assert_eq!(and.child(0).unwrap().span.slice(src).unwrap(), "@login(u)");
        assert_eq!(
            and.child(1).unwrap().span.slice(src).unwrap(),
            "time >= t - 10"
        );
    }

    #[test]
    fn spanned_parse_since_children() {
        let src = "not @logout since @login";
        let (_, spans) = parse_formula_spanned(src).unwrap();
        assert_eq!(spans.children.len(), 2);
        assert_eq!(
            spans.child(0).unwrap().span.slice(src).unwrap(),
            "not @logout"
        );
        assert_eq!(spans.child(1).unwrap().span.slice(src).unwrap(), "@login");
    }

    #[test]
    fn term_parser_roundtrip() {
        let t = parse_term("0.5 * x + abs(price(\"IBM\") - 3)").unwrap();
        assert_eq!(t.vars(), vec!["x".to_string()]);
    }

    #[test]
    fn event_without_args() {
        let f = parse_formula("@update_stocks").unwrap();
        assert_eq!(f, Formula::event("update_stocks", vec![]));
    }
}
