//! The relational query language.
//!
//! PTL is "a regular query language augmented with temporal operators"; this
//! module is that regular query language — a small relational algebra with
//! selection, generalized projection, joins, set operations, grouping and
//! aggregation, plus positional parameters so that queries can serve as the
//! paper's n-ary *function symbols* (e.g. `price(x)` =
//! `select price from STOCK where name = $0`).

use std::fmt;

use crate::aggregate::AggFunc;
use crate::database::Database;
use crate::error::Result;
use crate::expr::ScalarExpr;
use crate::relation::Relation;
use crate::schema::{Column, DType, Schema};
use crate::tuple::Tuple;
use crate::value::Value;

/// One output column of a generalized projection: an expression plus a name.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ProjItem {
    pub expr: ScalarExpr,
    pub name: String,
}

impl ProjItem {
    pub fn new(expr: ScalarExpr, name: impl Into<String>) -> ProjItem {
        ProjItem {
            expr,
            name: name.into(),
        }
    }
}

/// One aggregate output of a grouping query.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct AggItem {
    pub func: AggFunc,
    /// The aggregated expression; `None` means `count(*)`.
    pub arg: Option<ScalarExpr>,
    pub name: String,
}

/// A relational algebra query.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Query {
    /// A base relation from the catalog.
    Table(String),
    /// A scalar data item from the catalog, embedded as a 1x1 relation.
    Item(String),
    /// A literal relation (used by tests and by the parser for `values`).
    Values(Relation),
    /// σ — keep rows satisfying the predicate.
    Select {
        input: Box<Query>,
        pred: ScalarExpr,
    },
    /// π — generalized projection (expressions, renames, reorders).
    /// Produces a set (duplicates collapse).
    Project {
        input: Box<Query>,
        items: Vec<ProjItem>,
    },
    /// Cross product (θ-joins are `Select` over `Join`).
    Join {
        left: Box<Query>,
        right: Box<Query>,
    },
    Union {
        left: Box<Query>,
        right: Box<Query>,
    },
    Difference {
        left: Box<Query>,
        right: Box<Query>,
    },
    Intersect {
        left: Box<Query>,
        right: Box<Query>,
    },
    /// ρ — rename all columns.
    Rename {
        input: Box<Query>,
        names: Vec<String>,
    },
    /// γ — group by columns and aggregate.
    GroupBy {
        input: Box<Query>,
        keys: Vec<String>,
        aggs: Vec<AggItem>,
    },
}

impl Query {
    /// How deep the query nests, one level per query and per expression
    /// node: what a log decoder counts.
    pub fn depth(&self) -> usize {
        1 + match self {
            Query::Table(_) | Query::Item(_) | Query::Values(_) => 0,
            Query::Select { input, pred } => input.depth().max(pred.depth()),
            Query::Project { input, items } => {
                (items.iter().map(|i| i.expr.depth())).fold(input.depth(), usize::max)
            }
            Query::Join { left, right }
            | Query::Union { left, right }
            | Query::Difference { left, right }
            | Query::Intersect { left, right } => left.depth().max(right.depth()),
            Query::Rename { input, .. } => input.depth(),
            Query::GroupBy { input, aggs, .. } => (aggs.iter().filter_map(|a| a.arg.as_ref()))
                .map(ScalarExpr::depth)
                .fold(input.depth(), usize::max),
        }
    }

    pub fn table(name: impl Into<String>) -> Query {
        Query::Table(name.into())
    }

    pub fn item(name: impl Into<String>) -> Query {
        Query::Item(name.into())
    }

    pub fn select(self, pred: ScalarExpr) -> Query {
        Query::Select {
            input: Box::new(self),
            pred,
        }
    }

    pub fn project(self, items: Vec<ProjItem>) -> Query {
        Query::Project {
            input: Box::new(self),
            items,
        }
    }

    /// Projection onto plain columns, keeping their names.
    pub fn project_cols(self, cols: &[&str]) -> Query {
        let items = cols
            .iter()
            .map(|c| ProjItem::new(ScalarExpr::col(*c), (*c).to_string()))
            .collect();
        self.project(items)
    }

    pub fn join(self, other: Query) -> Query {
        Query::Join {
            left: Box::new(self),
            right: Box::new(other),
        }
    }

    pub fn union(self, other: Query) -> Query {
        Query::Union {
            left: Box::new(self),
            right: Box::new(other),
        }
    }

    pub fn difference(self, other: Query) -> Query {
        Query::Difference {
            left: Box::new(self),
            right: Box::new(other),
        }
    }

    pub fn intersect(self, other: Query) -> Query {
        Query::Intersect {
            left: Box::new(self),
            right: Box::new(other),
        }
    }

    pub fn rename(self, names: &[&str]) -> Query {
        Query::Rename {
            input: Box::new(self),
            names: names.iter().map(|s| (*s).to_string()).collect(),
        }
    }

    pub fn group_by(self, keys: &[&str], aggs: Vec<AggItem>) -> Query {
        Query::GroupBy {
            input: Box::new(self),
            keys: keys.iter().map(|s| (*s).to_string()).collect(),
            aggs,
        }
    }

    /// Evaluates the query against a database snapshot, with `$i` parameters
    /// bound from `params`.
    pub fn eval(&self, db: &Database, params: &[Value]) -> Result<Relation> {
        match self {
            Query::Table(name) => db.relation(name).cloned(),
            Query::Item(name) => Ok(Relation::scalar(db.item(name)?)),
            Query::Values(rel) => Ok(rel.clone()),
            Query::Select { input, pred } => {
                let rel = input.eval(db, params)?;
                let schema = rel.schema().clone();
                let mut out = Relation::empty(schema.clone());
                for t in rel.iter() {
                    if pred.eval_bool(&schema, t, params)? {
                        out.insert(t.clone())?;
                    }
                }
                Ok(out)
            }
            Query::Project { input, items } => {
                let rel = input.eval(db, params)?;
                let in_schema = rel.schema().clone();
                let schema = Schema::new(
                    items
                        .iter()
                        .map(|p| Column::new(p.name.clone(), DType::Any))
                        .collect(),
                )?;
                let mut out = Relation::empty(schema);
                for t in rel.iter() {
                    let row: Vec<Value> = items
                        .iter()
                        .map(|p| p.expr.eval(&in_schema, t, params))
                        .collect::<Result<_>>()?;
                    out.insert(Tuple::new(row))?;
                }
                Ok(out)
            }
            Query::Join { left, right } => left.eval(db, params)?.cross(&right.eval(db, params)?),
            Query::Union { left, right } => left.eval(db, params)?.union(&right.eval(db, params)?),
            Query::Difference { left, right } => {
                left.eval(db, params)?.difference(&right.eval(db, params)?)
            }
            Query::Intersect { left, right } => left
                .eval(db, params)?
                .intersection(&right.eval(db, params)?),
            Query::Rename { input, names } => input.eval(db, params)?.rename(names),
            Query::GroupBy { input, keys, aggs } => {
                eval_group_by(&input.eval(db, params)?, keys, aggs, params)
            }
        }
    }

    /// Evaluates and extracts a scalar. A query yielding a single 1-column
    /// row is a scalar; a 1-column empty result is `Null` (SQL convention,
    /// and what the paper's `price(IBM)` yields before IBM is listed).
    pub fn eval_scalar(&self, db: &Database, params: &[Value]) -> Result<Value> {
        let rel = self.eval(db, params)?;
        if rel.schema().arity() == 1 && rel.is_empty() {
            return Ok(Value::Null);
        }
        rel.scalar_value()
    }

    /// Names of every base relation and scalar item the query reads — the
    /// *relevance set* used by the rule manager to skip rules whose inputs
    /// did not change (Section 8 optimization).
    pub fn dependencies(&self) -> Vec<String> {
        let mut out = Vec::new();
        self.collect_deps(&mut out);
        out.sort();
        out.dedup();
        out
    }

    fn collect_deps(&self, out: &mut Vec<String>) {
        match self {
            Query::Table(n) | Query::Item(n) => out.push(n.clone()),
            Query::Values(_) => {}
            Query::Select { input, .. }
            | Query::Project { input, .. }
            | Query::Rename { input, .. }
            | Query::GroupBy { input, .. } => input.collect_deps(out),
            Query::Join { left, right }
            | Query::Union { left, right }
            | Query::Difference { left, right }
            | Query::Intersect { left, right } => {
                left.collect_deps(out);
                right.collect_deps(out);
            }
        }
    }
}

fn eval_group_by(
    rel: &Relation,
    keys: &[String],
    aggs: &[AggItem],
    params: &[Value],
) -> Result<Relation> {
    let in_schema = rel.schema().clone();
    let key_idx: Vec<usize> = keys
        .iter()
        .map(|k| in_schema.index_of(k))
        .collect::<Result<_>>()?;

    // Deterministic grouping: BTreeMap keyed by the group tuple.
    let mut groups: std::collections::BTreeMap<Tuple, Vec<crate::aggregate::Accumulator>> =
        std::collections::BTreeMap::new();
    for t in rel.iter() {
        let key = t.project(&key_idx);
        let accs = groups.entry(key).or_insert_with(|| {
            aggs.iter()
                .map(|a| crate::aggregate::Accumulator::new(a.func))
                .collect()
        });
        for (acc, item) in accs.iter_mut().zip(aggs) {
            let v = match &item.arg {
                Some(e) => e.eval(&in_schema, t, params)?,
                None => Value::Int(1),
            };
            acc.push(&v)?;
        }
    }

    let mut cols: Vec<Column> = key_idx
        .iter()
        .map(|&i| in_schema.columns()[i].clone())
        .collect();
    for a in aggs {
        cols.push(Column::new(a.name.clone(), DType::Any));
    }
    let schema = Schema::new(cols)?;

    let mut out = Relation::empty(schema);
    if groups.is_empty() && keys.is_empty() {
        // Global aggregation of an empty input still yields one row.
        let row: Vec<Value> = aggs
            .iter()
            .map(|a| crate::aggregate::Accumulator::new(a.func).current())
            .collect();
        out.insert(Tuple::new(row))?;
        return Ok(out);
    }
    for (key, accs) in groups {
        let extra: Vec<Value> = accs.iter().map(|a| a.current()).collect();
        out.insert(key.extended(&extra))?;
    }
    Ok(out)
}

impl fmt::Display for Query {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Query::Table(n) => write!(f, "{n}"),
            Query::Item(n) => write!(f, "item({n})"),
            Query::Values(r) => write!(f, "values<{} rows>", r.len()),
            Query::Select { input, pred } => write!(f, "σ[{pred}]({input})"),
            Query::Project { input, items } => {
                write!(f, "π[")?;
                for (i, p) in items.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{} as {}", p.expr, p.name)?;
                }
                write!(f, "]({input})")
            }
            Query::Join { left, right } => write!(f, "({left} ⨯ {right})"),
            Query::Union { left, right } => write!(f, "({left} ∪ {right})"),
            Query::Difference { left, right } => write!(f, "({left} - {right})"),
            Query::Intersect { left, right } => write!(f, "({left} ∩ {right})"),
            Query::Rename { input, names } => write!(f, "ρ[{}]({input})", names.join(", ")),
            Query::GroupBy { input, keys, aggs } => {
                write!(f, "γ[{};", keys.join(", "))?;
                for (i, a) in aggs.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    match &a.arg {
                        Some(e) => write!(f, " {}({e}) as {}", a.func, a.name)?,
                        None => write!(f, " {}(*) as {}", a.func, a.name)?,
                    }
                }
                write!(f, "]({input})")
            }
        }
    }
}

#[cfg(test)]
#[allow(clippy::disallowed_methods)] // tests may unwrap
mod tests {
    use super::*;
    use crate::error::RelError;
    use crate::expr::CmpOp;
    use crate::tuple;

    fn db() -> Database {
        let mut db = Database::new();
        let schema = Schema::of(&[
            ("name", DType::Str),
            ("price", DType::Int),
            ("company", DType::Str),
            ("category", DType::Str),
        ]);
        db.create_relation(
            "STOCK_FOR_SALE",
            Relation::from_rows(
                schema,
                vec![
                    tuple!["IBM", 350i64, "IBM Corp", "tech"],
                    tuple!["DEC", 45i64, "Digital", "tech"],
                    tuple!["XOM", 310i64, "Exxon", "energy"],
                ],
            )
            .unwrap(),
        )
        .unwrap();
        db
    }

    /// The paper's OVERPRICED query: names of stocks priced above 300.
    #[test]
    fn overpriced_query_from_paper() {
        let q = Query::table("STOCK_FOR_SALE")
            .select(ScalarExpr::cmp(
                CmpOp::Ge,
                ScalarExpr::col("price"),
                ScalarExpr::lit(300i64),
            ))
            .project_cols(&["name"]);
        let r = q.eval(&db(), &[]).unwrap();
        assert_eq!(r.len(), 2);
        assert!(r.contains(&tuple!["IBM"]));
        assert!(r.contains(&tuple!["XOM"]));
    }

    #[test]
    fn parameterized_scalar_query() {
        // price(x) = select price from STOCK_FOR_SALE where name = $0
        let q = Query::table("STOCK_FOR_SALE")
            .select(ScalarExpr::cmp(
                CmpOp::Eq,
                ScalarExpr::col("name"),
                ScalarExpr::Param(0),
            ))
            .project_cols(&["price"]);
        assert_eq!(
            q.eval_scalar(&db(), &[Value::str("IBM")]).unwrap(),
            Value::Int(350)
        );
        assert_eq!(
            q.eval_scalar(&db(), &[Value::str("NONE")]).unwrap(),
            Value::Null
        );
    }

    #[test]
    fn group_by_aggregates() {
        let q = Query::table("STOCK_FOR_SALE").group_by(
            &["category"],
            vec![
                AggItem {
                    func: AggFunc::Count,
                    arg: None,
                    name: "n".into(),
                },
                AggItem {
                    func: AggFunc::Sum,
                    arg: Some(ScalarExpr::col("price")),
                    name: "total".into(),
                },
            ],
        );
        let r = q.eval(&db(), &[]).unwrap();
        assert!(r.contains(&tuple!["tech", 2i64, 395i64]));
        assert!(r.contains(&tuple!["energy", 1i64, 310i64]));
    }

    #[test]
    fn global_aggregate_on_empty_input() {
        let q = Query::table("STOCK_FOR_SALE")
            .select(ScalarExpr::lit(false))
            .group_by(
                &[],
                vec![AggItem {
                    func: AggFunc::Count,
                    arg: None,
                    name: "n".into(),
                }],
            );
        let r = q.eval(&db(), &[]).unwrap();
        assert_eq!(r.scalar_value().unwrap(), Value::Int(0));
    }

    #[test]
    fn set_operations() {
        let tech = Query::table("STOCK_FOR_SALE")
            .select(ScalarExpr::cmp(
                CmpOp::Eq,
                ScalarExpr::col("category"),
                ScalarExpr::lit("tech"),
            ))
            .project_cols(&["name"]);
        let cheap = Query::table("STOCK_FOR_SALE")
            .select(ScalarExpr::cmp(
                CmpOp::Lt,
                ScalarExpr::col("price"),
                ScalarExpr::lit(100i64),
            ))
            .project_cols(&["name"]);
        assert_eq!(
            tech.clone()
                .union(cheap.clone())
                .eval(&db(), &[])
                .unwrap()
                .len(),
            2
        );
        assert_eq!(
            tech.clone()
                .difference(cheap.clone())
                .eval(&db(), &[])
                .unwrap()
                .len(),
            1
        );
        assert_eq!(tech.intersect(cheap).eval(&db(), &[]).unwrap().len(), 1);
    }

    #[test]
    fn dependencies_are_collected() {
        let q = Query::table("A").join(Query::table("B").union(Query::item("F")));
        assert_eq!(
            q.dependencies(),
            vec!["A".to_string(), "B".into(), "F".into()]
        );
    }

    #[test]
    fn unknown_table_errors() {
        let q = Query::table("NOPE");
        assert_eq!(
            q.eval(&db(), &[]).unwrap_err(),
            RelError::UnknownTable("NOPE".into())
        );
    }
}
