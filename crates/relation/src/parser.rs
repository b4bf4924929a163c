//! Textual surface syntax for the query language.
//!
//! ```text
//! query    := setexpr
//! setexpr  := primary (("union" | "except" | "intersect") primary)*
//! primary  := select | "item" IDENT | IDENT | "(" query ")"
//! select   := "select" items "from" source ("where" expr)?
//!             ("group" "by" IDENT ("," IDENT)*)?
//! items    := "*" | item ("," item)*
//! item     := AGG "(" ("*" | expr) ")" ("as" IDENT)?
//!           | expr ("as" IDENT)?
//! source   := srcatom ("," srcatom)*              -- cross product
//! srcatom  := IDENT | "(" query ")"
//! expr     := standard precedence: or < and < not < cmp < add < mul < unary
//! atom     := NUMBER | STRING | "true" | "false" | "null"
//!           | "$" INT | "abs" "(" expr ")" | IDENT | "(" expr ")"
//! ```
//!
//! Example (the paper's OVERPRICED query):
//!
//! ```
//! use tdb_relation::parse_query;
//! let q = parse_query(
//!     "select name from STOCK_FOR_SALE where price >= 300",
//! ).unwrap();
//! assert_eq!(q.dependencies(), vec!["STOCK_FOR_SALE".to_string()]);
//! ```

use crate::aggregate::AggFunc;
use crate::error::{RelError, Result};
use crate::expr::{ArithOp, CmpOp, ScalarExpr};
use crate::lexer::{Cursor, Tok};
use crate::query::{AggItem, ProjItem, Query};

/// Parses a complete query string.
pub fn parse_query(src: &str) -> Result<Query> {
    let mut c = Cursor::new(src)?;
    let q = query(&mut c)?;
    c.expect_end()?;
    Ok(q)
}

/// Parses a complete scalar expression string (used by tests and by the PTL
/// parser for embedded predicates).
pub fn parse_expr(src: &str) -> Result<ScalarExpr> {
    let mut c = Cursor::new(src)?;
    let e = expr(&mut c)?;
    c.expect_end()?;
    Ok(e)
}

fn query(c: &mut Cursor) -> Result<Query> {
    c.nested(set_expr)
}

fn set_expr(c: &mut Cursor) -> Result<Query> {
    c.chain(|c| {
        let mut left = primary(c)?;
        loop {
            let op: fn(Query, Query) -> Query = if c.eat_kw("union") {
                Query::union
            } else if c.eat_kw("except") {
                Query::difference
            } else if c.eat_kw("intersect") {
                Query::intersect
            } else {
                return Ok(left);
            };
            c.deeper()?;
            left = op(left, primary(c)?);
        }
    })
}

fn primary(c: &mut Cursor) -> Result<Query> {
    if c.peek().is_some_and(|t| t.is_kw("select")) {
        return select(c);
    }
    if c.eat_kw("item") {
        return Ok(Query::item(c.expect_ident()?));
    }
    if c.eat_punct("(") {
        let q = query(c)?;
        c.expect_punct(")")?;
        return Ok(q);
    }
    Ok(Query::table(c.expect_ident()?))
}

fn select(c: &mut Cursor) -> Result<Query> {
    c.expect_kw("select")?;

    // Projection / aggregation list.
    let mut star = false;
    let mut projs: Vec<ProjItem> = Vec::new();
    let mut aggs: Vec<AggItem> = Vec::new();
    if c.eat_punct("*") {
        star = true;
    } else {
        loop {
            parse_item(c, &mut projs, &mut aggs)?;
            if !c.eat_punct(",") {
                break;
            }
        }
    }

    c.expect_kw("from")?;
    let mut src = srcatom(c)?;
    while c.eat_punct(",") {
        src = src.join(srcatom(c)?);
    }

    if c.eat_kw("where") {
        src = src.select(expr(c)?);
    }

    let mut group_keys: Vec<String> = Vec::new();
    if c.eat_kw("group") {
        c.expect_kw("by")?;
        loop {
            group_keys.push(c.expect_ident()?);
            if !c.eat_punct(",") {
                break;
            }
        }
    }

    if !aggs.is_empty() || !group_keys.is_empty() {
        if !projs
            .iter()
            .all(|p| matches!(&p.expr, ScalarExpr::Col(n) if group_keys.contains(n)))
        {
            return Err(RelError::Parse(
                "non-aggregate select items must be group-by columns".into(),
            ));
        }
        if star {
            return Err(RelError::Parse(
                "`*` cannot be combined with aggregation".into(),
            ));
        }
        let keys: Vec<&str> = group_keys.iter().map(String::as_str).collect();
        return Ok(src.group_by(&keys, aggs));
    }

    if star {
        Ok(src)
    } else {
        Ok(src.project(projs))
    }
}

fn parse_item(c: &mut Cursor, projs: &mut Vec<ProjItem>, aggs: &mut Vec<AggItem>) -> Result<()> {
    // Aggregate call? IDENT must be an aggregate name followed by `(`.
    if let Some(Tok::Ident(name)) = c.peek() {
        if let Some(func) = AggFunc::parse(name) {
            if matches!(c.peek_at(1), Some(Tok::Punct("("))) {
                c.next_tok();
                c.expect_punct("(")?;
                let arg = if c.eat_punct("*") {
                    None
                } else {
                    Some(expr(c)?)
                };
                c.expect_punct(")")?;
                let name = if c.eat_kw("as") {
                    c.expect_ident()?
                } else {
                    format!("{}_{}", func.name(), aggs.len())
                };
                aggs.push(AggItem { func, arg, name });
                return Ok(());
            }
        }
    }
    let e = expr(c)?;
    let name = if c.eat_kw("as") {
        c.expect_ident()?
    } else if let ScalarExpr::Col(n) = &e {
        n.clone()
    } else {
        format!("col_{}", projs.len())
    };
    projs.push(ProjItem::new(e, name));
    Ok(())
}

fn srcatom(c: &mut Cursor) -> Result<Query> {
    if c.eat_punct("(") {
        let q = query(c)?;
        c.expect_punct(")")?;
        Ok(q)
    } else if c.eat_kw("item") {
        Ok(Query::item(c.expect_ident()?))
    } else {
        Ok(Query::table(c.expect_ident()?))
    }
}

// ---- expression parsing with precedence ---------------------------------

pub(crate) fn expr(c: &mut Cursor) -> Result<ScalarExpr> {
    c.nested(or_expr)
}

fn or_expr(c: &mut Cursor) -> Result<ScalarExpr> {
    c.chain(|c| {
        let mut left = and_expr(c)?;
        while c.eat_kw("or") || c.eat_punct("||") {
            c.deeper()?;
            left = ScalarExpr::or(left, and_expr(c)?);
        }
        Ok(left)
    })
}

fn and_expr(c: &mut Cursor) -> Result<ScalarExpr> {
    c.chain(|c| {
        let mut left = not_expr(c)?;
        while c.eat_kw("and") || c.eat_punct("&&") {
            c.deeper()?;
            left = ScalarExpr::and(left, not_expr(c)?);
        }
        Ok(left)
    })
}

fn not_expr(c: &mut Cursor) -> Result<ScalarExpr> {
    if c.eat_kw("not") || c.eat_punct("!") {
        Ok(ScalarExpr::not(c.nested(not_expr)?))
    } else {
        cmp_expr(c)
    }
}

fn cmp_expr(c: &mut Cursor) -> Result<ScalarExpr> {
    let left = add_expr(c)?;
    let op = match c.peek() {
        Some(Tok::Punct("<")) => Some(CmpOp::Lt),
        Some(Tok::Punct("<=")) => Some(CmpOp::Le),
        Some(Tok::Punct("=")) | Some(Tok::Punct("==")) => Some(CmpOp::Eq),
        Some(Tok::Punct("!=")) | Some(Tok::Punct("<>")) => Some(CmpOp::Ne),
        Some(Tok::Punct(">=")) => Some(CmpOp::Ge),
        Some(Tok::Punct(">")) => Some(CmpOp::Gt),
        _ => None,
    };
    if let Some(op) = op {
        c.next_tok();
        let right = add_expr(c)?;
        Ok(ScalarExpr::cmp(op, left, right))
    } else {
        Ok(left)
    }
}

fn add_expr(c: &mut Cursor) -> Result<ScalarExpr> {
    c.chain(|c| {
        let mut left = mul_expr(c)?;
        loop {
            let op = if c.eat_punct("+") {
                ArithOp::Add
            } else if c.eat_punct("-") {
                ArithOp::Sub
            } else {
                return Ok(left);
            };
            c.deeper()?;
            left = ScalarExpr::arith(op, left, mul_expr(c)?);
        }
    })
}

fn mul_expr(c: &mut Cursor) -> Result<ScalarExpr> {
    c.chain(|c| {
        let mut left = unary_expr(c)?;
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
            left = ScalarExpr::arith(op, left, unary_expr(c)?);
        }
    })
}

fn unary_expr(c: &mut Cursor) -> Result<ScalarExpr> {
    if c.eat_punct("-") {
        return Ok(ScalarExpr::Neg(Box::new(c.nested(unary_expr)?)));
    }
    atom(c)
}

fn atom(c: &mut Cursor) -> Result<ScalarExpr> {
    match c.next_tok() {
        Some(Tok::Int(i)) => Ok(ScalarExpr::lit(i)),
        Some(Tok::Float(f)) => Ok(ScalarExpr::lit(f)),
        Some(Tok::Str(s)) => Ok(ScalarExpr::lit(s)),
        Some(Tok::Punct("$")) => match c.next_tok() {
            Some(Tok::Int(i)) if i >= 0 => Ok(ScalarExpr::Param(i as usize)),
            _ => Err(RelError::Parse("expected parameter index after `$`".into())),
        },
        Some(Tok::Punct("(")) => {
            let e = expr(c)?;
            c.expect_punct(")")?;
            Ok(e)
        }
        Some(Tok::Ident(name)) => {
            if name.eq_ignore_ascii_case("true") {
                Ok(ScalarExpr::lit(true))
            } else if name.eq_ignore_ascii_case("false") {
                Ok(ScalarExpr::lit(false))
            } else if name.eq_ignore_ascii_case("null") {
                Ok(ScalarExpr::Const(crate::value::Value::Null))
            } else if name.eq_ignore_ascii_case("abs") && c.eat_punct("(") {
                let e = expr(c)?;
                c.expect_punct(")")?;
                Ok(ScalarExpr::Abs(Box::new(e)))
            } else {
                // Dotted column references (`STOCK.price`) flatten to the
                // bare column name; our schemas are flat.
                let mut full = name;
                while c.eat_punct(".") {
                    full = c.expect_ident()?;
                }
                Ok(ScalarExpr::col(full))
            }
        }
        Some(t) => Err(RelError::Parse(format!("unexpected {}", t.describe()))),
        None => Err(RelError::Parse("unexpected end of input".into())),
    }
}

#[cfg(test)]
#[allow(clippy::disallowed_methods)] // tests may unwrap
mod tests {
    use super::*;
    use crate::database::Database;
    use crate::relation::Relation;
    use crate::schema::{DType, Schema};
    use crate::tuple;
    use crate::value::Value;

    fn db() -> Database {
        let mut db = Database::new();
        db.create_relation(
            "STOCK_FOR_SALE",
            Relation::from_rows(
                Schema::of(&[
                    ("name", DType::Str),
                    ("price", DType::Int),
                    ("company", DType::Str),
                    ("category", DType::Str),
                ]),
                vec![
                    tuple!["IBM", 350i64, "IBM Corp", "tech"],
                    tuple!["DEC", 45i64, "Digital", "tech"],
                    tuple!["XOM", 310i64, "Exxon", "energy"],
                ],
            )
            .unwrap(),
        )
        .unwrap();
        db.set_item("F", Value::Int(7));
        db
    }

    #[test]
    fn overpriced_text_query() {
        let q = parse_query(
            "select STOCK_FOR_SALE.name from STOCK_FOR_SALE where STOCK_FOR_SALE.price >= 300",
        )
        .unwrap();
        let r = q.eval(&db(), &[]).unwrap();
        assert_eq!(r.len(), 2);
    }

    #[test]
    fn parameterized_query() {
        let q = parse_query("select price from STOCK_FOR_SALE where name = $0").unwrap();
        assert_eq!(
            q.eval_scalar(&db(), &[Value::str("DEC")]).unwrap(),
            Value::Int(45)
        );
    }

    #[test]
    fn star_select() {
        let q = parse_query("select * from STOCK_FOR_SALE where price < 100").unwrap();
        let r = q.eval(&db(), &[]).unwrap();
        assert_eq!(r.len(), 1);
        assert_eq!(r.schema().arity(), 4);
    }

    #[test]
    fn group_by_text() {
        let q = parse_query(
            "select category, count(*) as n, avg(price) as p \
             from STOCK_FOR_SALE group by category",
        )
        .unwrap();
        let r = q.eval(&db(), &[]).unwrap();
        assert!(r.contains(&tuple!["tech", 2i64, 197.5]));
    }

    #[test]
    fn global_aggregate_text() {
        let q = parse_query("select max(price) as m from STOCK_FOR_SALE").unwrap();
        assert_eq!(q.eval_scalar(&db(), &[]).unwrap(), Value::Int(350));
    }

    #[test]
    fn set_operations_text() {
        let q = parse_query(
            "(select name from STOCK_FOR_SALE where category = 'tech') \
             except (select name from STOCK_FOR_SALE where price < 100)",
        )
        .unwrap();
        let r = q.eval(&db(), &[]).unwrap();
        assert_eq!(r.len(), 1);
        assert!(r.contains(&tuple!["IBM"]));
    }

    #[test]
    fn item_query_text() {
        let q = parse_query("item F").unwrap();
        assert_eq!(q.eval_scalar(&db(), &[]).unwrap(), Value::Int(7));
    }

    #[test]
    fn cross_product_from_list() {
        let q = parse_query(
            "select a.name from (select name from STOCK_FOR_SALE) , \
             (select category from STOCK_FOR_SALE) where true",
        );
        // `a.name` flattens to `name`, which exists in the cross product.
        assert!(q.is_ok());
    }

    #[test]
    fn expression_precedence() {
        let e = parse_expr("1 + 2 * 3 >= 7 and not false").unwrap();
        let s = Schema::empty();
        let row = crate::tuple::Tuple::unit();
        assert_eq!(e.eval(&s, &row, &[]).unwrap(), Value::Bool(true));
    }

    #[test]
    fn mixed_projection_and_agg_rejected() {
        let err = parse_query("select price, count(*) as n from STOCK_FOR_SALE").unwrap_err();
        assert!(err.to_string().contains("group-by"));
    }

    #[test]
    fn trailing_garbage_rejected() {
        assert!(parse_query("select * from T extra").is_err());
    }

    #[test]
    fn modulo_keyword_and_symbol() {
        let e = parse_expr("10 mod 3 = 10 % 3").unwrap();
        assert_eq!(
            e.eval(&Schema::empty(), &crate::tuple::Tuple::unit(), &[])
                .unwrap(),
            Value::Bool(true)
        );
    }
}
