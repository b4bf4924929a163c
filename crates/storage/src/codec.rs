//! The hand-rolled binary codec for every value that crosses the
//! durability boundary: relational values, databases, logical WAL ops, and
//! the Theorem-1 [`SystemSnapshot`].
//!
//! Format conventions: little-endian fixed-width integers, `u64` length
//! prefixes for strings and sequences, one tag byte per enum variant.
//! Decoding is fully defensive — every length is bounds-checked against the
//! remaining input before allocation, and unknown tags become
//! [`StorageError::Decode`] rather than panics.
//!
//! Residual formulas may embed whole database snapshots
//! ([`PTerm::QuerySnap`] carries the state a deferred query must run
//! against). Snapshots are identified by their system-state index, so the
//! encoder writes each distinct snapshot **once** in a table and the
//! residual tree refers to it by id; decoding rebuilds the sharing
//! (`Arc`-identical snapshots stay shared).

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

use tdb_core::residual::{Constraint, PTerm, Residual, Snapshot};
use tdb_core::rules::{Action, ActionOp, FiringRecord, Rule, RuleKind, MAX_NESTING};
use tdb_core::storage::{LogicalOp, SystemSnapshot};
use tdb_core::{CoreError, EvaluatorState, ManagerStats, RuleState};
use tdb_engine::{Event, EventSet, SystemState, TxnId, WriteOp};
use tdb_ptl::{Formula, QueryRef, TemporalAgg, Term};
use tdb_relation::{
    Accumulator, AggFunc, AggItem, ArithOp, CmpOp, Column, DType, Database, ProjItem, Query,
    QueryDef, Relation, ScalarExpr, Schema, Timestamp, Tuple, Value,
};

use crate::{Result, StorageError};

// ---- primitive writer / reader ---------------------------------------------

/// An append-only byte buffer with fixed-width little-endian primitives.
#[derive(Debug, Default)]
pub struct Enc {
    buf: Vec<u8>,
}

impl Enc {
    pub fn new() -> Enc {
        Enc::default()
    }

    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn f64(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_bits().to_le_bytes());
    }

    pub fn boolean(&mut self, v: bool) {
        self.u8(v as u8);
    }

    pub fn len(&mut self, v: usize) {
        self.u64(v as u64);
    }

    pub fn str(&mut self, s: &str) {
        self.len(s.len());
        self.buf.extend_from_slice(s.as_bytes());
    }

    pub fn raw(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }
}

/// The first `N` bytes of `s` as a fixed-size array. Callers have already
/// length-checked the slice; this replaces `try_into().expect(…)` at the
/// little-endian decode sites so production code stays panic-message-free.
pub fn first_n<const N: usize>(s: &[u8]) -> [u8; N] {
    let mut a = [0u8; N];
    a.copy_from_slice(&s[..N]);
    a
}

/// A bounds-checked cursor over encoded bytes.
#[derive(Debug)]
pub struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
    /// How many formulas, terms, queries and scalar expressions enclose
    /// the cursor.
    depth: usize,
}

impl<'a> Dec<'a> {
    pub fn new(buf: &'a [u8]) -> Dec<'a> {
        Dec {
            buf,
            pos: 0,
            depth: 0,
        }
    }

    /// Runs `get` one nesting level deeper, refusing input nested deeper
    /// than [`MAX_NESTING`].
    fn nested<T>(&mut self, what: &str, get: fn(&mut Self) -> Result<T>) -> Result<T> {
        if self.depth == MAX_NESTING {
            return Err(StorageError::Decode(format!(
                "{what} nested deeper than {MAX_NESTING}"
            )));
        }
        self.depth += 1;
        let out = get(self);
        self.depth -= 1;
        out
    }

    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize, what: &str) -> Result<&'a [u8]> {
        if self.remaining() < n {
            return Err(StorageError::Decode(format!(
                "unexpected end of input reading {what}: need {n} bytes, have {}",
                self.remaining()
            )));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    pub fn u8(&mut self, what: &str) -> Result<u8> {
        Ok(self.take(1, what)?[0])
    }

    pub fn u32(&mut self, what: &str) -> Result<u32> {
        Ok(u32::from_le_bytes(first_n(self.take(4, what)?)))
    }

    pub fn u64(&mut self, what: &str) -> Result<u64> {
        Ok(u64::from_le_bytes(first_n(self.take(8, what)?)))
    }

    pub fn i64(&mut self, what: &str) -> Result<i64> {
        Ok(i64::from_le_bytes(first_n(self.take(8, what)?)))
    }

    pub fn f64(&mut self, what: &str) -> Result<f64> {
        Ok(f64::from_bits(self.u64(what)?))
    }

    pub fn boolean(&mut self, what: &str) -> Result<bool> {
        match self.u8(what)? {
            0 => Ok(false),
            1 => Ok(true),
            n => Err(StorageError::Decode(format!("bad boolean {n} in {what}"))),
        }
    }

    /// Reads a length prefix and sanity-checks it against the remaining
    /// input (`min_elem_size` bytes per element) so corrupt lengths cannot
    /// trigger huge allocations.
    pub fn seq_len(&mut self, what: &str, min_elem_size: usize) -> Result<usize> {
        let n = self.u64(what)?;
        let n: usize = n
            .try_into()
            .map_err(|_| StorageError::Decode(format!("length {n} overflows usize in {what}")))?;
        if n.saturating_mul(min_elem_size.max(1)) > self.remaining() {
            return Err(StorageError::Decode(format!(
                "implausible length {n} in {what} ({} bytes remain)",
                self.remaining()
            )));
        }
        Ok(n)
    }

    /// Reads a bare `usize` counter (no plausibility check — these are
    /// quantities like a cascade limit, not allocation sizes).
    pub fn usize_val(&mut self, what: &str) -> Result<usize> {
        let n = self.u64(what)?;
        n.try_into()
            .map_err(|_| StorageError::Decode(format!("value {n} overflows usize in {what}")))
    }

    pub fn str(&mut self, what: &str) -> Result<String> {
        let n = self.seq_len(what, 1)?;
        let bytes = self.take(n, what)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| StorageError::Decode(format!("invalid utf-8 in {what}")))
    }

    pub fn finish(&self, what: &str) -> Result<()> {
        if self.remaining() != 0 {
            return Err(StorageError::Decode(format!(
                "{} trailing bytes after {what}",
                self.remaining()
            )));
        }
        Ok(())
    }
}

fn bad_tag(what: &str, tag: u8) -> StorageError {
    StorageError::Decode(format!("unknown tag {tag} for {what}"))
}

// ---- relational values ------------------------------------------------------

pub fn put_timestamp(e: &mut Enc, t: Timestamp) {
    e.i64(t.0);
}

pub fn get_timestamp(d: &mut Dec) -> Result<Timestamp> {
    Ok(Timestamp(d.i64("timestamp")?))
}

pub fn put_value(e: &mut Enc, v: &Value) {
    match v {
        Value::Null => e.u8(0),
        Value::Bool(b) => {
            e.u8(1);
            e.boolean(*b);
        }
        Value::Int(i) => {
            e.u8(2);
            e.i64(*i);
        }
        Value::Float(f) => {
            e.u8(3);
            e.f64(*f);
        }
        Value::Str(s) => {
            e.u8(4);
            e.str(s);
        }
        Value::Time(t) => {
            e.u8(5);
            put_timestamp(e, *t);
        }
        Value::Rel(r) => {
            e.u8(6);
            put_relation(e, r);
        }
    }
}

pub fn get_value(d: &mut Dec) -> Result<Value> {
    match d.u8("value tag")? {
        0 => Ok(Value::Null),
        1 => Ok(Value::Bool(d.boolean("bool value")?)),
        2 => Ok(Value::Int(d.i64("int value")?)),
        3 => Ok(Value::float(d.f64("float value")?)),
        4 => Ok(Value::str(d.str("str value")?)),
        5 => Ok(Value::Time(get_timestamp(d)?)),
        6 => Ok(Value::Rel(Arc::new(get_relation(d)?))),
        t => Err(bad_tag("value", t)),
    }
}

pub fn put_tuple(e: &mut Enc, t: &Tuple) {
    e.len(t.arity());
    for v in t.values() {
        put_value(e, v);
    }
}

pub fn get_tuple(d: &mut Dec) -> Result<Tuple> {
    let n = d.seq_len("tuple arity", 1)?;
    let mut vals = Vec::with_capacity(n);
    for _ in 0..n {
        vals.push(get_value(d)?);
    }
    Ok(Tuple::new(vals))
}

fn dtype_tag(t: DType) -> u8 {
    match t {
        DType::Any => 0,
        DType::Bool => 1,
        DType::Int => 2,
        DType::Float => 3,
        DType::Str => 4,
        DType::Time => 5,
    }
}

fn dtype_from(tag: u8) -> Result<DType> {
    Ok(match tag {
        0 => DType::Any,
        1 => DType::Bool,
        2 => DType::Int,
        3 => DType::Float,
        4 => DType::Str,
        5 => DType::Time,
        t => return Err(bad_tag("dtype", t)),
    })
}

pub fn put_schema(e: &mut Enc, s: &Schema) {
    e.len(s.arity());
    for c in s.columns() {
        e.str(&c.name);
        e.u8(dtype_tag(c.dtype));
    }
}

pub fn get_schema(d: &mut Dec) -> Result<Schema> {
    let n = d.seq_len("schema arity", 2)?;
    let mut cols = Vec::with_capacity(n);
    for _ in 0..n {
        let name = d.str("column name")?;
        let dtype = dtype_from(d.u8("column dtype")?)?;
        cols.push(Column::new(name, dtype));
    }
    Schema::new(cols).map_err(|e| StorageError::Decode(format!("invalid schema: {e}")))
}

pub fn put_relation(e: &mut Enc, r: &Relation) {
    put_schema(e, r.schema());
    e.len(r.len());
    for t in r.iter() {
        put_tuple(e, t);
    }
}

pub fn get_relation(d: &mut Dec) -> Result<Relation> {
    let schema = get_schema(d)?;
    let n = d.seq_len("relation rows", 8)?;
    let mut rows = Vec::with_capacity(n);
    for _ in 0..n {
        rows.push(get_tuple(d)?);
    }
    Relation::from_rows(schema, rows)
        .map_err(|e| StorageError::Decode(format!("invalid relation: {e}")))
}

// ---- query language ---------------------------------------------------------

fn arith_tag(op: ArithOp) -> u8 {
    match op {
        ArithOp::Add => 0,
        ArithOp::Sub => 1,
        ArithOp::Mul => 2,
        ArithOp::Div => 3,
        ArithOp::Mod => 4,
    }
}

fn arith_from(tag: u8) -> Result<ArithOp> {
    Ok(match tag {
        0 => ArithOp::Add,
        1 => ArithOp::Sub,
        2 => ArithOp::Mul,
        3 => ArithOp::Div,
        4 => ArithOp::Mod,
        t => return Err(bad_tag("arith op", t)),
    })
}

fn cmp_tag(op: CmpOp) -> u8 {
    match op {
        CmpOp::Lt => 0,
        CmpOp::Le => 1,
        CmpOp::Eq => 2,
        CmpOp::Ne => 3,
        CmpOp::Ge => 4,
        CmpOp::Gt => 5,
    }
}

fn cmp_from(tag: u8) -> Result<CmpOp> {
    Ok(match tag {
        0 => CmpOp::Lt,
        1 => CmpOp::Le,
        2 => CmpOp::Eq,
        3 => CmpOp::Ne,
        4 => CmpOp::Ge,
        5 => CmpOp::Gt,
        t => return Err(bad_tag("cmp op", t)),
    })
}

fn agg_tag(f: AggFunc) -> u8 {
    match f {
        AggFunc::Count => 0,
        AggFunc::Sum => 1,
        AggFunc::Avg => 2,
        AggFunc::Min => 3,
        AggFunc::Max => 4,
        AggFunc::Last => 5,
    }
}

fn agg_from(tag: u8) -> Result<AggFunc> {
    Ok(match tag {
        0 => AggFunc::Count,
        1 => AggFunc::Sum,
        2 => AggFunc::Avg,
        3 => AggFunc::Min,
        4 => AggFunc::Max,
        5 => AggFunc::Last,
        t => return Err(bad_tag("agg func", t)),
    })
}

pub fn put_scalar_expr(e: &mut Enc, x: &ScalarExpr) {
    match x {
        ScalarExpr::Const(v) => {
            e.u8(0);
            put_value(e, v);
        }
        ScalarExpr::Col(c) => {
            e.u8(1);
            e.str(c);
        }
        ScalarExpr::Param(i) => {
            e.u8(2);
            e.len(*i);
        }
        ScalarExpr::Arith(op, a, b) => {
            e.u8(3);
            e.u8(arith_tag(*op));
            put_scalar_expr(e, a);
            put_scalar_expr(e, b);
        }
        ScalarExpr::Cmp(op, a, b) => {
            e.u8(4);
            e.u8(cmp_tag(*op));
            put_scalar_expr(e, a);
            put_scalar_expr(e, b);
        }
        ScalarExpr::And(a, b) => {
            e.u8(5);
            put_scalar_expr(e, a);
            put_scalar_expr(e, b);
        }
        ScalarExpr::Or(a, b) => {
            e.u8(6);
            put_scalar_expr(e, a);
            put_scalar_expr(e, b);
        }
        ScalarExpr::Not(a) => {
            e.u8(7);
            put_scalar_expr(e, a);
        }
        ScalarExpr::Neg(a) => {
            e.u8(8);
            put_scalar_expr(e, a);
        }
        ScalarExpr::Abs(a) => {
            e.u8(9);
            put_scalar_expr(e, a);
        }
    }
}

pub fn get_scalar_expr(d: &mut Dec) -> Result<ScalarExpr> {
    d.nested("scalar expression", nested_scalar_expr)
}

fn nested_scalar_expr(d: &mut Dec) -> Result<ScalarExpr> {
    Ok(match d.u8("scalar expr tag")? {
        0 => ScalarExpr::Const(get_value(d)?),
        1 => ScalarExpr::Col(d.str("column ref")?),
        2 => ScalarExpr::Param(d.usize_val("param index")?),
        3 => {
            let op = arith_from(d.u8("arith tag")?)?;
            ScalarExpr::Arith(
                op,
                Box::new(get_scalar_expr(d)?),
                Box::new(get_scalar_expr(d)?),
            )
        }
        4 => {
            let op = cmp_from(d.u8("cmp tag")?)?;
            ScalarExpr::Cmp(
                op,
                Box::new(get_scalar_expr(d)?),
                Box::new(get_scalar_expr(d)?),
            )
        }
        5 => ScalarExpr::And(Box::new(get_scalar_expr(d)?), Box::new(get_scalar_expr(d)?)),
        6 => ScalarExpr::Or(Box::new(get_scalar_expr(d)?), Box::new(get_scalar_expr(d)?)),
        7 => ScalarExpr::Not(Box::new(get_scalar_expr(d)?)),
        8 => ScalarExpr::Neg(Box::new(get_scalar_expr(d)?)),
        9 => ScalarExpr::Abs(Box::new(get_scalar_expr(d)?)),
        t => return Err(bad_tag("scalar expr", t)),
    })
}

pub fn put_query(e: &mut Enc, q: &Query) {
    match q {
        Query::Table(n) => {
            e.u8(0);
            e.str(n);
        }
        Query::Item(n) => {
            e.u8(1);
            e.str(n);
        }
        Query::Values(r) => {
            e.u8(2);
            put_relation(e, r);
        }
        Query::Select { input, pred } => {
            e.u8(3);
            put_query(e, input);
            put_scalar_expr(e, pred);
        }
        Query::Project { input, items } => {
            e.u8(4);
            put_query(e, input);
            e.len(items.len());
            for it in items {
                put_scalar_expr(e, &it.expr);
                e.str(&it.name);
            }
        }
        Query::Join { left, right } => {
            e.u8(5);
            put_query(e, left);
            put_query(e, right);
        }
        Query::Union { left, right } => {
            e.u8(6);
            put_query(e, left);
            put_query(e, right);
        }
        Query::Difference { left, right } => {
            e.u8(7);
            put_query(e, left);
            put_query(e, right);
        }
        Query::Intersect { left, right } => {
            e.u8(8);
            put_query(e, left);
            put_query(e, right);
        }
        Query::Rename { input, names } => {
            e.u8(9);
            put_query(e, input);
            e.len(names.len());
            for n in names {
                e.str(n);
            }
        }
        Query::GroupBy { input, keys, aggs } => {
            e.u8(10);
            put_query(e, input);
            e.len(keys.len());
            for k in keys {
                e.str(k);
            }
            e.len(aggs.len());
            for a in aggs {
                e.u8(agg_tag(a.func));
                match &a.arg {
                    Some(x) => {
                        e.boolean(true);
                        put_scalar_expr(e, x);
                    }
                    None => e.boolean(false),
                }
                e.str(&a.name);
            }
        }
    }
}

pub fn get_query(d: &mut Dec) -> Result<Query> {
    d.nested("query", nested_query)
}

fn nested_query(d: &mut Dec) -> Result<Query> {
    Ok(match d.u8("query tag")? {
        0 => Query::Table(d.str("table name")?),
        1 => Query::Item(d.str("item name")?),
        2 => Query::Values(get_relation(d)?),
        3 => {
            let input = Box::new(get_query(d)?);
            Query::Select {
                input,
                pred: get_scalar_expr(d)?,
            }
        }
        4 => {
            let input = Box::new(get_query(d)?);
            let n = d.seq_len("projection items", 2)?;
            let mut items = Vec::with_capacity(n);
            for _ in 0..n {
                let expr = get_scalar_expr(d)?;
                items.push(ProjItem::new(expr, d.str("projection name")?));
            }
            Query::Project { input, items }
        }
        5 => Query::Join {
            left: Box::new(get_query(d)?),
            right: Box::new(get_query(d)?),
        },
        6 => Query::Union {
            left: Box::new(get_query(d)?),
            right: Box::new(get_query(d)?),
        },
        7 => Query::Difference {
            left: Box::new(get_query(d)?),
            right: Box::new(get_query(d)?),
        },
        8 => Query::Intersect {
            left: Box::new(get_query(d)?),
            right: Box::new(get_query(d)?),
        },
        9 => {
            let input = Box::new(get_query(d)?);
            let n = d.seq_len("rename names", 8)?;
            let mut names = Vec::with_capacity(n);
            for _ in 0..n {
                names.push(d.str("rename name")?);
            }
            Query::Rename { input, names }
        }
        10 => {
            let input = Box::new(get_query(d)?);
            let nk = d.seq_len("group keys", 8)?;
            let mut keys = Vec::with_capacity(nk);
            for _ in 0..nk {
                keys.push(d.str("group key")?);
            }
            let na = d.seq_len("aggregates", 2)?;
            let mut aggs = Vec::with_capacity(na);
            for _ in 0..na {
                let func = agg_from(d.u8("agg func tag")?)?;
                let arg = if d.boolean("agg arg present")? {
                    Some(get_scalar_expr(d)?)
                } else {
                    None
                };
                let name = d.str("agg name")?;
                aggs.push(AggItem { func, arg, name });
            }
            Query::GroupBy { input, keys, aggs }
        }
        t => return Err(bad_tag("query", t)),
    })
}

pub fn put_query_def(e: &mut Enc, q: &QueryDef) {
    e.len(q.arity);
    put_query(e, &q.body);
}

pub fn get_query_def(d: &mut Dec) -> Result<QueryDef> {
    let arity = d.usize_val("query arity")?;
    Ok(QueryDef::new(arity, get_query(d)?))
}

pub fn put_database(e: &mut Enc, db: &Database) {
    // Pair every name with its object before writing the count, so the
    // encoded length can never disagree with the entries that follow.
    let rels: Vec<_> = db
        .relation_names()
        .filter_map(|n| db.relation(n).ok().map(|r| (n, r)))
        .collect();
    e.len(rels.len());
    for (n, r) in rels {
        e.str(n);
        put_relation(e, r);
    }
    let items: Vec<_> = db
        .item_names()
        .filter_map(|n| db.item(n).ok().map(|v| (n, v)))
        .collect();
    e.len(items.len());
    for (n, v) in items {
        e.str(n);
        put_value(e, &v);
    }
    let queries: Vec<_> = db
        .query_names()
        .filter_map(|n| db.query_def(n).ok().map(|q| (n, q)))
        .collect();
    e.len(queries.len());
    for (n, q) in queries {
        e.str(n);
        put_query_def(e, q);
    }
}

pub fn get_database(d: &mut Dec) -> Result<Database> {
    let mut db = Database::new();
    let nr = d.seq_len("relations", 2)?;
    for _ in 0..nr {
        let name = d.str("relation name")?;
        let rel = get_relation(d)?;
        db.create_relation(name, rel)
            .map_err(|e| StorageError::Decode(format!("duplicate relation: {e}")))?;
    }
    let ni = d.seq_len("items", 2)?;
    for _ in 0..ni {
        let name = d.str("item name")?;
        let v = get_value(d)?;
        db.set_item(name, v);
    }
    let nq = d.seq_len("queries", 2)?;
    for _ in 0..nq {
        let name = d.str("query name")?;
        let def = get_query_def(d)?;
        db.define_query(name, def);
    }
    Ok(db)
}

// ---- engine values ----------------------------------------------------------

pub fn put_event(e: &mut Enc, ev: &Event) {
    e.str(ev.name());
    e.len(ev.args().len());
    for a in ev.args() {
        put_value(e, a);
    }
}

pub fn get_event(d: &mut Dec) -> Result<Event> {
    let name = d.str("event name")?;
    let n = d.seq_len("event args", 1)?;
    let mut args = Vec::with_capacity(n);
    for _ in 0..n {
        args.push(get_value(d)?);
    }
    Ok(Event::new(name, args))
}

pub fn put_event_set(e: &mut Enc, evs: &EventSet) {
    let all: Vec<&Event> = evs.iter().collect();
    e.len(all.len());
    for ev in all {
        put_event(e, ev);
    }
}

pub fn get_event_set(d: &mut Dec) -> Result<EventSet> {
    let n = d.seq_len("event set", 8)?;
    let mut events = Vec::with_capacity(n);
    for _ in 0..n {
        events.push(get_event(d)?);
    }
    Ok(EventSet::of(events))
}

pub fn put_write_op(e: &mut Enc, op: &WriteOp) {
    match op {
        WriteOp::Insert { relation, tuple } => {
            e.u8(0);
            e.str(relation);
            put_tuple(e, tuple);
        }
        WriteOp::Delete { relation, tuple } => {
            e.u8(1);
            e.str(relation);
            put_tuple(e, tuple);
        }
        WriteOp::SetItem { item, value } => {
            e.u8(2);
            e.str(item);
            put_value(e, value);
        }
    }
}

pub fn get_write_op(d: &mut Dec) -> Result<WriteOp> {
    Ok(match d.u8("write op tag")? {
        0 => WriteOp::Insert {
            relation: d.str("relation")?,
            tuple: get_tuple(d)?,
        },
        1 => WriteOp::Delete {
            relation: d.str("relation")?,
            tuple: get_tuple(d)?,
        },
        2 => WriteOp::SetItem {
            item: d.str("item")?,
            value: get_value(d)?,
        },
        t => return Err(bad_tag("write op", t)),
    })
}

// ---- core values ------------------------------------------------------------

type Env = BTreeMap<String, Value>;

pub fn put_env(e: &mut Enc, env: &Env) {
    e.len(env.len());
    for (k, v) in env {
        e.str(k);
        put_value(e, v);
    }
}

pub fn get_env(d: &mut Dec) -> Result<Env> {
    let n = d.seq_len("env", 2)?;
    let mut env = Env::new();
    for _ in 0..n {
        let k = d.str("env key")?;
        env.insert(k, get_value(d)?);
    }
    Ok(env)
}

pub fn put_firing(e: &mut Enc, f: &FiringRecord) {
    e.str(&f.rule);
    e.len(f.state_index);
    put_timestamp(e, f.time);
    put_env(e, &f.env);
}

pub fn get_firing(d: &mut Dec) -> Result<FiringRecord> {
    Ok(FiringRecord {
        rule: d.str("firing rule")?,
        state_index: d.usize_val("firing state index")?,
        time: get_timestamp(d)?,
        env: get_env(d)?,
    })
}

/// The stats block keeps the `TDBCKPT3` layout. Three of its slots belonged
/// to the worker pool `RuleManager` no longer has — two counters and a
/// per-worker vector: they are written as zero and empty, and skipped when
/// read, so checkpoints move between builds in both directions.
pub fn put_stats(e: &mut Enc, s: &ManagerStats) {
    e.u64(s.evaluations);
    e.u64(s.skips);
    e.u64(s.firings);
    e.u64(0);
    e.u64(s.sparse_advances);
    e.u64(0);
    e.len(0);
}

pub fn get_stats(d: &mut Dec) -> Result<ManagerStats> {
    let evaluations = d.u64("evaluations")?;
    let skips = d.u64("skips")?;
    let firings = d.u64("firings")?;
    d.u64("retired counter")?;
    let sparse_advances = d.u64("sparse advances")?;
    d.u64("retired counter")?;
    for _ in 0..d.seq_len("retired per-worker counters", 8)? {
        d.u64("retired per-worker counter")?;
    }
    Ok(ManagerStats {
        evaluations,
        skips,
        firings,
        sparse_advances,
        ..ManagerStats::default()
    })
}

// ---- residual formulas (with snapshot dedup) --------------------------------

/// Collects each distinct [`Snapshot`] (by id) exactly once during
/// encoding; the residual tree refers to snapshots by id.
#[derive(Debug, Default)]
pub struct SnapTable {
    order: Vec<(u64, Arc<Database>)>,
}

impl SnapTable {
    fn intern(&mut self, s: &Snapshot) {
        if !self.order.iter().any(|(id, _)| *id == s.id) {
            self.order.push((s.id, s.db.clone()));
        }
    }

    fn encode(&self, e: &mut Enc) {
        e.len(self.order.len());
        for (id, db) in &self.order {
            e.u64(*id);
            put_database(e, db);
        }
    }

    fn decode(d: &mut Dec) -> Result<BTreeMap<u64, Arc<Database>>> {
        let n = d.seq_len("snapshot table", 8)?;
        let mut map = BTreeMap::new();
        for _ in 0..n {
            let id = d.u64("snapshot id")?;
            map.insert(id, Arc::new(get_database(d)?));
        }
        Ok(map)
    }
}

fn put_pterm(e: &mut Enc, t: &PTerm, table: &mut SnapTable) {
    match t {
        PTerm::Val(v) => {
            e.u8(0);
            put_value(e, v);
        }
        PTerm::Var(v) => {
            e.u8(1);
            e.str(v);
        }
        PTerm::Arith(op, a, b) => {
            e.u8(2);
            e.u8(arith_tag(*op));
            put_pterm(e, a, table);
            put_pterm(e, b, table);
        }
        PTerm::Neg(a) => {
            e.u8(3);
            put_pterm(e, a, table);
        }
        PTerm::Abs(a) => {
            e.u8(4);
            put_pterm(e, a, table);
        }
        PTerm::QuerySnap { name, args, snap } => {
            table.intern(snap);
            e.u8(5);
            e.str(name);
            e.len(args.len());
            for a in args {
                put_pterm(e, a, table);
            }
            e.u64(snap.id);
        }
    }
}

fn get_pterm(d: &mut Dec, snaps: &BTreeMap<u64, Arc<Database>>) -> Result<Arc<PTerm>> {
    Ok(Arc::new(match d.u8("pterm tag")? {
        0 => PTerm::Val(get_value(d)?),
        1 => PTerm::Var(d.str("pterm var")?),
        2 => {
            let op = arith_from(d.u8("pterm arith tag")?)?;
            PTerm::Arith(op, get_pterm(d, snaps)?, get_pterm(d, snaps)?)
        }
        3 => PTerm::Neg(get_pterm(d, snaps)?),
        4 => PTerm::Abs(get_pterm(d, snaps)?),
        5 => {
            let name = d.str("query snap name")?;
            let n = d.seq_len("query snap args", 1)?;
            let mut args = Vec::with_capacity(n);
            for _ in 0..n {
                args.push(get_pterm(d, snaps)?);
            }
            let id = d.u64("snapshot ref")?;
            let db = snaps.get(&id).cloned().ok_or_else(|| {
                StorageError::Decode(format!("residual refers to unknown snapshot {id}"))
            })?;
            PTerm::QuerySnap {
                name,
                args,
                snap: Snapshot { id, db },
            }
        }
        t => return Err(bad_tag("pterm", t)),
    }))
}

/// Pointer-identity dedup for residual nodes across one snapshot's rule
/// section. Residuals are hash-consed in memory, so shared subtrees are
/// `Arc`-identical; each distinct node is encoded once, and every later
/// occurrence is a backref (tag 7) to its index in emission order. Nodes
/// are indexed in *completion* order (children before parents), which the
/// decoder reproduces naturally.
#[derive(Debug, Default)]
struct ResDedup {
    seen: HashMap<usize, u64>,
    next: u64,
}

/// Decoded residual nodes in completion order; backrefs resolve here, so
/// the decoded DAG shares structure exactly like the live one it
/// checkpoints. It belongs to no tenant yet — `import_state` interns it
/// into the restoring tenant's own context.
type ResNodes = Vec<Arc<Residual>>;

const RES_BACKREF: u8 = 7;

fn put_residual(e: &mut Enc, r: &Arc<Residual>, table: &mut SnapTable, dedup: &mut ResDedup) {
    let ptr = Arc::as_ptr(r) as usize;
    if let Some(&idx) = dedup.seen.get(&ptr) {
        e.u8(RES_BACKREF);
        e.u64(idx);
        return;
    }
    match &**r {
        Residual::True => e.u8(0),
        Residual::False => e.u8(1),
        Residual::Constraint(c) => {
            e.u8(2);
            e.str(&c.var);
            e.u8(cmp_tag(c.op));
            put_value(e, &c.value);
        }
        Residual::Cmp(op, a, b) => {
            e.u8(3);
            e.u8(cmp_tag(*op));
            put_pterm(e, a, table);
            put_pterm(e, b, table);
        }
        Residual::Not(a) => {
            e.u8(4);
            put_residual(e, a, table, dedup);
        }
        Residual::And(xs) => {
            e.u8(5);
            e.len(xs.len());
            for x in xs {
                put_residual(e, x, table, dedup);
            }
        }
        Residual::Or(xs) => {
            e.u8(6);
            e.len(xs.len());
            for x in xs {
                put_residual(e, x, table, dedup);
            }
        }
    }
    dedup.seen.insert(ptr, dedup.next);
    dedup.next += 1;
}

fn get_residual(
    d: &mut Dec,
    snaps: &BTreeMap<u64, Arc<Database>>,
    nodes: &mut ResNodes,
) -> Result<Arc<Residual>> {
    let tag = d.u8("residual tag")?;
    if tag == RES_BACKREF {
        let idx = d.usize_val("residual backref")?;
        return nodes.get(idx).cloned().ok_or_else(|| {
            StorageError::Decode(format!(
                "residual backref {idx} out of range ({} nodes decoded)",
                nodes.len()
            ))
        });
    }
    let node = match tag {
        0 => Residual::True,
        1 => Residual::False,
        2 => {
            let var = d.str("constraint var")?;
            let op = cmp_from(d.u8("constraint cmp")?)?;
            Residual::Constraint(Constraint {
                var,
                op,
                value: get_value(d)?,
            })
        }
        3 => {
            let op = cmp_from(d.u8("residual cmp")?)?;
            Residual::Cmp(op, get_pterm(d, snaps)?, get_pterm(d, snaps)?)
        }
        4 => Residual::Not(get_residual(d, snaps, nodes)?),
        5 => {
            let n = d.seq_len("residual and", 1)?;
            let mut xs = Vec::with_capacity(n);
            for _ in 0..n {
                xs.push(get_residual(d, snaps, nodes)?);
            }
            Residual::And(xs)
        }
        6 => {
            let n = d.seq_len("residual or", 1)?;
            let mut xs = Vec::with_capacity(n);
            for _ in 0..n {
                xs.push(get_residual(d, snaps, nodes)?);
            }
            Residual::Or(xs)
        }
        t => return Err(bad_tag("residual", t)),
    };
    let arc = Arc::new(node);
    nodes.push(arc.clone());
    Ok(arc)
}

fn put_evaluator_state(
    e: &mut Enc,
    st: &EvaluatorState,
    table: &mut SnapTable,
    dedup: &mut ResDedup,
) {
    e.len(st.prev.len());
    for r in &st.prev {
        put_residual(e, r, table, dedup);
    }
    e.boolean(st.started);
    e.len(st.states_seen);
    e.len(st.slots.len());
    for acc in &st.slots {
        e.boolean(acc.is_some());
        if let Some(acc) = acc {
            let (n, value) = acc.parts();
            e.u8(agg_tag(acc.func()));
            e.u64(n);
            e.boolean(value.is_some());
            value.into_iter().for_each(|v| put_value(e, v));
        }
    }
}

/// `slots`: the payload carries aggregate slots (`TDBCKPT3` ones do not).
fn get_evaluator_state(
    d: &mut Dec,
    snaps: &BTreeMap<u64, Arc<Database>>,
    nodes: &mut ResNodes,
    slots: bool,
) -> Result<EvaluatorState> {
    let n = d.seq_len("evaluator nodes", 1)?;
    let mut prev = Vec::with_capacity(n);
    for _ in 0..n {
        prev.push(get_residual(d, snaps, nodes)?);
    }
    let started = d.boolean("evaluator started")?;
    let states_seen = d.usize_val("states seen")?;
    let n = slots.then(|| d.seq_len("aggregate slots", 1)).transpose()?;
    let n = n.unwrap_or(0);
    let mut accs = Vec::with_capacity(n);
    for _ in 0..n {
        accs.push(if d.boolean("slot open")? {
            let func = agg_from(d.u8("slot func")?)?;
            let n = d.u64("slot count")?;
            let value = d.boolean("slot value")?.then(|| get_value(d)).transpose()?;
            Some(Accumulator::from_parts(func, n, value))
        } else {
            None
        });
    }
    Ok(EvaluatorState {
        prev,
        slots: accs,
        started,
        states_seen,
    })
}

fn put_rule_state(e: &mut Enc, rs: &RuleState, table: &mut SnapTable, dedup: &mut ResDedup) {
    e.str(&rs.name);
    put_evaluator_state(e, &rs.evaluator, table, dedup);
    e.len(rs.last_envs.len());
    for env in &rs.last_envs {
        put_env(e, env);
    }
}

fn get_rule_state(
    d: &mut Dec,
    snaps: &BTreeMap<u64, Arc<Database>>,
    nodes: &mut ResNodes,
    slots: bool,
) -> Result<RuleState> {
    let name = d.str("rule name")?;
    let evaluator = get_evaluator_state(d, snaps, nodes, slots)?;
    let n = d.seq_len("last envs", 8)?;
    let mut last_envs = Vec::with_capacity(n);
    for _ in 0..n {
        last_envs.push(get_env(d)?);
    }
    last_envs.sort();
    last_envs.dedup();
    Ok(RuleState {
        name,
        evaluator,
        last_envs,
    })
}

// ---- rule definitions -------------------------------------------------------

fn put_seq<T>(e: &mut Enc, xs: &[T], put: impl Fn(&mut Enc, &T)) {
    e.len(xs.len());
    xs.iter().for_each(|x| put(e, x));
}

/// A length-prefixed sequence, its length checked as [`Dec::seq_len`] does.
fn get_seq<T>(
    d: &mut Dec,
    what: &str,
    min_elem_size: usize,
    mut get: impl FnMut(&mut Dec) -> Result<T>,
) -> Result<Vec<T>> {
    let n = d.seq_len(what, min_elem_size)?;
    (0..n).map(|_| get(d)).collect()
}

pub fn put_term(e: &mut Enc, t: &Term) {
    match t {
        Term::Const(v) => {
            e.u8(0);
            put_value(e, v);
        }
        Term::Var(x) => {
            e.u8(1);
            e.str(x);
        }
        Term::Time => e.u8(2),
        Term::Arith(op, a, b) => {
            e.u8(3);
            e.u8(arith_tag(*op));
            put_term(e, a);
            put_term(e, b);
        }
        Term::Neg(a) => {
            e.u8(4);
            put_term(e, a);
        }
        Term::Abs(a) => {
            e.u8(5);
            put_term(e, a);
        }
        Term::Query { name, args } => {
            e.u8(6);
            e.str(name);
            put_seq(e, args, put_term);
        }
        Term::Agg(a) => {
            e.u8(7);
            e.u8(agg_tag(a.func));
            put_term(e, &a.query);
            put_formula(e, &a.start);
            put_formula(e, &a.sample);
        }
    }
}

pub fn get_term(d: &mut Dec) -> Result<Term> {
    d.nested("term", nested_term)
}

fn nested_term(d: &mut Dec) -> Result<Term> {
    let term = |d: &mut Dec| get_term(d).map(Box::new);
    Ok(match d.u8("term tag")? {
        0 => Term::Const(get_value(d)?),
        1 => Term::Var(d.str("term variable")?),
        2 => Term::Time,
        3 => {
            let op = arith_from(d.u8("arith tag")?)?;
            Term::Arith(op, term(d)?, term(d)?)
        }
        4 => Term::Neg(term(d)?),
        5 => Term::Abs(term(d)?),
        6 => Term::Query {
            name: d.str("term query")?,
            args: get_seq(d, "query args", 1, get_term)?,
        },
        7 => Term::Agg(Box::new(TemporalAgg {
            func: agg_from(d.u8("agg func tag")?)?,
            query: get_term(d)?,
            start: get_formula(d)?,
            sample: get_formula(d)?,
        })),
        t => return Err(bad_tag("term", t)),
    })
}

pub fn put_formula(e: &mut Enc, f: &Formula) {
    match f {
        Formula::True => e.u8(0),
        Formula::False => e.u8(1),
        Formula::Cmp(op, a, b) => {
            e.u8(2);
            e.u8(cmp_tag(*op));
            put_term(e, a);
            put_term(e, b);
        }
        Formula::Member { source, pattern } => {
            e.u8(3);
            e.str(&source.name);
            put_seq(e, &source.args, put_term);
            put_seq(e, pattern, put_term);
        }
        Formula::Event { name, pattern } => {
            e.u8(4);
            e.str(name);
            put_seq(e, pattern, put_term);
        }
        Formula::Not(g) => {
            e.u8(5);
            put_formula(e, g);
        }
        Formula::And(gs) => {
            e.u8(6);
            put_seq(e, gs, put_formula);
        }
        Formula::Or(gs) => {
            e.u8(7);
            put_seq(e, gs, put_formula);
        }
        Formula::Since(g, h) => {
            e.u8(8);
            put_formula(e, g);
            put_formula(e, h);
        }
        Formula::Lasttime(g) => {
            e.u8(9);
            put_formula(e, g);
        }
        Formula::Previously(g) => {
            e.u8(10);
            put_formula(e, g);
        }
        Formula::ThroughoutPast(g) => {
            e.u8(11);
            put_formula(e, g);
        }
        Formula::Assign { var, term, body } => {
            e.u8(12);
            e.str(var);
            put_term(e, term);
            put_formula(e, body);
        }
    }
}

pub fn get_formula(d: &mut Dec) -> Result<Formula> {
    d.nested("formula", nested_formula)
}

fn nested_formula(d: &mut Dec) -> Result<Formula> {
    let formula = |d: &mut Dec| get_formula(d).map(Box::new);
    let terms = |d: &mut Dec| get_seq(d, "terms", 1, get_term);
    Ok(match d.u8("formula tag")? {
        0 => Formula::True,
        1 => Formula::False,
        2 => {
            let op = cmp_from(d.u8("cmp tag")?)?;
            Formula::Cmp(op, get_term(d)?, get_term(d)?)
        }
        3 => {
            let source = QueryRef::new(d.str("member query")?, terms(d)?);
            Formula::Member {
                source,
                pattern: terms(d)?,
            }
        }
        4 => Formula::Event {
            name: d.str("event name")?,
            pattern: terms(d)?,
        },
        5 => Formula::Not(formula(d)?),
        6 => Formula::And(get_seq(d, "conjuncts", 1, get_formula)?),
        7 => Formula::Or(get_seq(d, "disjuncts", 1, get_formula)?),
        8 => Formula::Since(formula(d)?, formula(d)?),
        9 => Formula::Lasttime(formula(d)?),
        10 => Formula::Previously(formula(d)?),
        11 => Formula::ThroughoutPast(formula(d)?),
        12 => Formula::Assign {
            var: d.str("assigned variable")?,
            term: get_term(d)?,
            body: formula(d)?,
        },
        t => return Err(bad_tag("formula", t)),
    })
}

/// One rule's whole definition, so a registration record or a checkpoint
/// reinstalls exactly the rule that registered.
pub fn put_rule(e: &mut Enc, r: &Rule) {
    e.str(&r.name);
    put_formula(e, &r.condition);
    put_seq(e, &r.params, |e, p| e.str(p));
    match &r.action {
        Action::Notify => e.u8(0),
        Action::AbortTxn => e.u8(1),
        Action::DbOps(ops) => {
            e.u8(2);
            put_seq(e, ops, |e, op| match op {
                ActionOp::SetItem { item, value } => {
                    e.u8(0);
                    e.str(item);
                    put_term(e, value);
                }
                ActionOp::Insert { relation, tuple } => {
                    e.u8(1);
                    e.str(relation);
                    put_seq(e, tuple, put_term);
                }
                ActionOp::Delete { relation, tuple } => {
                    e.u8(2);
                    e.str(relation);
                    put_seq(e, tuple, put_term);
                }
            });
        }
    }
    e.boolean(r.kind == RuleKind::Constraint);
    e.boolean(r.record_executed);
    e.boolean(r.edge_triggered);
}

pub fn get_rule(d: &mut Dec) -> Result<Rule> {
    let name = d.str("rule name")?;
    let condition = get_formula(d)?;
    let params = get_seq(d, "rule params", 8, |d| d.str("rule param"))?;
    let action = match d.u8("action tag")? {
        0 => Action::Notify,
        1 => Action::AbortTxn,
        2 => Action::DbOps(get_seq(d, "action ops", 9, |d| {
            let (tag, target) = (d.u8("action op tag")?, d.str("action target")?);
            let tuple = |d: &mut Dec| get_seq(d, "action tuple", 1, get_term);
            Ok(match tag {
                0 => ActionOp::SetItem {
                    item: target,
                    value: get_term(d)?,
                },
                1 => ActionOp::Insert {
                    relation: target,
                    tuple: tuple(d)?,
                },
                2 => ActionOp::Delete {
                    relation: target,
                    tuple: tuple(d)?,
                },
                t => return Err(bad_tag("action op", t)),
            })
        })?),
        t => return Err(bad_tag("action", t)),
    };
    let kind = match d.boolean("constraint")? {
        true => RuleKind::Constraint,
        false => RuleKind::Trigger,
    };
    Ok(Rule {
        name,
        condition,
        params,
        action,
        kind,
        record_executed: d.boolean("record executed")?,
        edge_triggered: d.boolean("edge triggered")?,
    })
}

// ---- legacy rule names ------------------------------------------------------

/// The rule a directory written before registrations carried definitions
/// names `name` by: its last definition in `catalog`, since a rule-source
/// store kept refused attempts ahead of the one that registered.
pub fn legacy_rule<'a>(catalog: &'a [Rule], name: &str) -> Result<&'a Rule> {
    let rule = catalog.iter().rfind(|r| r.name == name);
    Ok(rule.ok_or_else(|| CoreError::NoSuchRule(name.to_string()))?)
}

/// `op`, or — for a legacy `AddRule { name }` record, which the system
/// wrote once the rule had registered — the one-rule registration it
/// stands for, its definition from `catalog` ([`legacy_rule`]). A batch
/// member `AddRule` is left as it is: only a client sent one, it failed
/// in the run that logged it, and the op interpreter refuses it on replay
/// too.
pub fn define_legacy(op: LogicalOp, catalog: &[Rule]) -> Result<LogicalOp> {
    Ok(match op {
        LogicalOp::AddRule { name } => LogicalOp::RegisterRules {
            rules: vec![legacy_rule(catalog, &name)?.clone()],
        },
        op => op,
    })
}

// ---- logical ops ------------------------------------------------------------

/// Encodes one WAL record payload.
pub fn encode_logical_op(op: &LogicalOp) -> Vec<u8> {
    let mut e = Enc::new();
    put_logical_op(&mut e, op);
    e.into_bytes()
}

/// Encodes a group commit: byte-identical to
/// `encode_logical_op(&LogicalOp::Batch { ops })` without materializing the
/// wrapper, so the WAL writer can frame a borrowed slice directly.
pub fn encode_logical_op_batch(ops: &[LogicalOp]) -> Vec<u8> {
    let mut e = Enc::new();
    e.u8(17);
    e.len(ops.len());
    for op in ops {
        put_logical_op(&mut e, op);
    }
    e.into_bytes()
}

fn put_logical_op(e: &mut Enc, op: &LogicalOp) {
    match op {
        LogicalOp::CreateRelation { name, relation } => {
            e.u8(0);
            e.str(name);
            put_relation(e, relation);
        }
        LogicalOp::DefineQuery { name, def } => {
            e.u8(1);
            e.str(name);
            put_query_def(e, def);
        }
        LogicalOp::SetItem { name, value } => {
            e.u8(2);
            e.str(name);
            put_value(e, value);
        }
        LogicalOp::AddRule { name } => {
            e.u8(3);
            e.str(name);
        }
        LogicalOp::SetBatch { n } => {
            e.u8(4);
            e.len(*n);
        }
        LogicalOp::SetCascadeLimit { n } => {
            e.u8(5);
            e.len(*n);
        }
        LogicalOp::AdvanceClock { delta } => {
            e.u8(6);
            e.i64(*delta);
        }
        LogicalOp::AdvanceClockTo { t } => {
            e.u8(7);
            put_timestamp(e, *t);
        }
        LogicalOp::Tick => e.u8(8),
        LogicalOp::Emit { events } => {
            e.u8(9);
            put_event_set(e, events);
        }
        LogicalOp::Update { ops } => {
            e.u8(10);
            e.len(ops.len());
            for op in ops {
                put_write_op(e, op);
            }
        }
        LogicalOp::Begin => e.u8(11),
        LogicalOp::Write { txn, op } => {
            e.u8(12);
            e.u64(txn.0);
            put_write_op(e, op);
        }
        LogicalOp::Commit { txn } => {
            e.u8(13);
            e.u64(txn.0);
        }
        LogicalOp::Abort { txn } => {
            e.u8(14);
            e.u64(txn.0);
        }
        LogicalOp::Flush => e.u8(15),
        LogicalOp::Firing { record } => {
            e.u8(16);
            put_firing(e, record);
        }
        LogicalOp::Batch { ops } => {
            debug_assert!(
                ops.iter().all(|o| !matches!(o, LogicalOp::Batch { .. })),
                "batches never nest"
            );
            e.u8(17);
            e.len(ops.len());
            for op in ops {
                put_logical_op(e, op);
            }
        }
        LogicalOp::CommitAt { valid, ops } => {
            e.u8(18);
            put_timestamp(e, *valid);
            e.len(ops.len());
            for op in ops {
                put_write_op(e, op);
            }
        }
        LogicalOp::RegisterRules { rules } => {
            e.u8(19);
            put_seq(e, rules, put_rule);
        }
    }
}

/// Decodes one WAL record payload.
pub fn decode_logical_op(bytes: &[u8]) -> Result<LogicalOp> {
    let mut d = Dec::new(bytes);
    let op = get_logical_op(&mut d, true)?;
    d.finish("logical op")?;
    Ok(op)
}

/// `allow_batch` is false for batch members: group commits are one level
/// deep by construction, and bounding the decoder the same way keeps
/// recursion depth (and thus stack use on adversarial input) at one.
fn get_logical_op(d: &mut Dec, allow_batch: bool) -> Result<LogicalOp> {
    let op = match d.u8("logical op tag")? {
        0 => LogicalOp::CreateRelation {
            name: d.str("relation name")?,
            relation: get_relation(d)?,
        },
        1 => LogicalOp::DefineQuery {
            name: d.str("query name")?,
            def: get_query_def(d)?,
        },
        2 => LogicalOp::SetItem {
            name: d.str("item name")?,
            value: get_value(d)?,
        },
        3 => LogicalOp::AddRule {
            name: d.str("rule name")?,
        },
        4 => LogicalOp::SetBatch {
            n: d.usize_val("batch")?,
        },
        5 => LogicalOp::SetCascadeLimit {
            n: d.usize_val("cascade limit")?,
        },
        6 => LogicalOp::AdvanceClock {
            delta: d.i64("clock delta")?,
        },
        7 => LogicalOp::AdvanceClockTo {
            t: get_timestamp(d)?,
        },
        8 => LogicalOp::Tick,
        9 => LogicalOp::Emit {
            events: get_event_set(d)?,
        },
        10 => {
            let n = d.seq_len("update ops", 2)?;
            let mut ops = Vec::with_capacity(n);
            for _ in 0..n {
                ops.push(get_write_op(d)?);
            }
            LogicalOp::Update { ops }
        }
        11 => LogicalOp::Begin,
        12 => LogicalOp::Write {
            txn: TxnId(d.u64("txn id")?),
            op: get_write_op(d)?,
        },
        13 => LogicalOp::Commit {
            txn: TxnId(d.u64("txn id")?),
        },
        14 => LogicalOp::Abort {
            txn: TxnId(d.u64("txn id")?),
        },
        15 => LogicalOp::Flush,
        16 => LogicalOp::Firing {
            record: get_firing(d)?,
        },
        17 if allow_batch => {
            let n = d.seq_len("batch ops", 1)?;
            let mut ops = Vec::with_capacity(n);
            for _ in 0..n {
                ops.push(get_logical_op(d, false)?);
            }
            LogicalOp::Batch { ops }
        }
        18 => {
            let valid = get_timestamp(d)?;
            let n = d.seq_len("commit-at ops", 2)?;
            let mut ops = Vec::with_capacity(n);
            for _ in 0..n {
                ops.push(get_write_op(d)?);
            }
            LogicalOp::CommitAt { valid, ops }
        }
        19 => LogicalOp::RegisterRules {
            rules: get_seq(d, "registered rules", 8, get_rule)?,
        },
        t => return Err(bad_tag("logical op", t)),
    };
    Ok(op)
}

// ---- the Theorem-1 snapshot -------------------------------------------------

/// Tags of a carried history state's database (`TDBCKPT5`): written out,
/// or a reference to the snapshot's own database.
const STATE_DB_INLINE: u8 = 0;
const STATE_DB_SNAPSHOT: u8 = 1;

/// One carried history state. Its database is written only when it differs
/// from the snapshot's: the newest carried state's usually equals it, and
/// that copy was about a third of a server tenant's checkpoint.
fn put_carried_state(e: &mut Enc, s: &SystemState, snapshot_db: &Database) {
    if s.db() == snapshot_db {
        e.u8(STATE_DB_SNAPSHOT);
    } else {
        e.u8(STATE_DB_INLINE);
        put_database(e, s.db());
    }
    put_event_set(e, s.events());
    put_timestamp(e, s.time());
}

/// Reads what [`put_carried_state`] wrote; a back-reference shares the
/// snapshot database's catalogs. Untagged (`TDBCKPT3`/`4`) states always
/// carry their database inline.
fn get_carried_state(d: &mut Dec, snapshot_db: &Database, tagged: bool) -> Result<SystemState> {
    let tag = if tagged {
        d.u8("state database tag")?
    } else {
        STATE_DB_INLINE
    };
    let db = match tag {
        STATE_DB_INLINE => get_database(d)?,
        STATE_DB_SNAPSHOT => snapshot_db.clone(),
        t => return Err(bad_tag("state database", t)),
    };
    let events = get_event_set(d)?;
    let time = get_timestamp(d)?;
    Ok(SystemState::new(db, events, time))
}

/// Encodes a checkpoint payload. The rule section is encoded first (into a
/// scratch buffer) so the snapshot table it populates can be written ahead
/// of it for one-pass decoding.
pub fn encode_snapshot(s: &SystemSnapshot) -> Vec<u8> {
    let mut rules_buf = Enc::new();
    let mut table = SnapTable::default();
    let mut dedup = ResDedup::default();
    rules_buf.len(s.rules.len());
    for rs in &s.rules {
        put_rule_state(&mut rules_buf, rs, &mut table, &mut dedup);
    }

    let mut e = Enc::new();
    put_database(&mut e, &s.db);
    put_timestamp(&mut e, s.now);
    e.len(s.history_offset);
    e.len(s.states.len());
    for st in &s.states {
        put_carried_state(&mut e, st, &s.db);
    }
    // The retired history cap: `TDBCKPT3` keeps its slot, always absent.
    e.boolean(false);
    e.u64(s.next_txn);
    e.boolean(s.auto_tick);
    put_seq(&mut e, &s.registered, |e, r| put_rule(e, r));
    table.encode(&mut e);
    e.raw(&rules_buf.into_bytes());
    put_stats(&mut e, &s.stats);
    e.len(s.firing_log.len());
    for f in &s.firing_log {
        put_firing(&mut e, f);
    }
    e.len(s.next_dispatch);
    e.len(s.gated.len());
    for g in &s.gated {
        e.len(*g);
    }
    e.len(s.batch);
    e.len(s.cascade_limit);
    e.into_bytes()
}

/// Decodes a checkpoint payload in the current (`TDBCKPT6`) layout.
pub fn decode_snapshot(bytes: &[u8]) -> Result<SystemSnapshot> {
    decode_snapshot_with(bytes, 6, &[])
}

/// Decodes a checkpoint payload of layout `version`: from 4 on, evaluator
/// states carry aggregate slots (`TDBCKPT3` ones have none); from 5 on, a
/// carried state's database is tagged inline or a reference to the
/// snapshot's own ([`put_carried_state`]); from 6 on, the registered rules
/// are definitions ([`put_rule`]). Before 6 they are names, defined by
/// `catalog` ([`legacy_rule`]).
pub(crate) fn decode_snapshot_with(
    bytes: &[u8],
    version: u8,
    catalog: &[Rule],
) -> Result<SystemSnapshot> {
    let slots = version >= 4;
    let mut d = Dec::new(bytes);
    let db = get_database(&mut d)?;
    let now = get_timestamp(&mut d)?;
    let history_offset = d.usize_val("history offset")?;
    let ns = d.seq_len("history states", 8)?;
    let mut states = Vec::with_capacity(ns);
    for _ in 0..ns {
        states.push(get_carried_state(&mut d, &db, version >= 5)?);
    }
    // A cap written before the cap was retired is read and ignored: the
    // snapshot carries exactly the states a restore needs either way.
    if d.boolean("history cap present")? {
        d.usize_val("history cap")?;
    }
    let next_txn = d.u64("next txn")?;
    let auto_tick = d.boolean("auto tick")?;
    let nreg = d.seq_len("registered rules", 2)?;
    let mut registered = Vec::with_capacity(nreg);
    for _ in 0..nreg {
        registered.push(Arc::new(match version {
            6.. => get_rule(&mut d)?,
            _ => legacy_rule(catalog, &d.str("registered rule name")?)?.clone(),
        }));
    }
    let snaps = SnapTable::decode(&mut d)?;
    let nr = d.seq_len("rule states", 2)?;
    let mut rules = Vec::with_capacity(nr);
    let mut nodes = ResNodes::new();
    for _ in 0..nr {
        rules.push(get_rule_state(&mut d, &snaps, &mut nodes, slots)?);
    }
    let stats = get_stats(&mut d)?;
    let nf = d.seq_len("firing log", 8)?;
    let mut firing_log = Vec::with_capacity(nf);
    for _ in 0..nf {
        firing_log.push(get_firing(&mut d)?);
    }
    let next_dispatch = d.usize_val("next dispatch")?;
    let ng = d.seq_len("gated", 8)?;
    let mut gated = Vec::with_capacity(ng);
    for _ in 0..ng {
        gated.push(d.usize_val("gated index")?);
    }
    let batch = d.usize_val("batch")?;
    let cascade_limit = d.usize_val("cascade limit")?;
    d.finish("snapshot")?;
    Ok(SystemSnapshot {
        db,
        now,
        history_offset,
        states,
        next_txn,
        auto_tick,
        registered,
        rules,
        stats,
        firing_log,
        next_dispatch,
        gated,
        batch,
        cascade_limit,
    })
}

#[cfg(test)]
#[allow(clippy::disallowed_methods)] // tests may unwrap
mod tests {
    use super::*;

    fn v_roundtrip(v: &Value) -> Value {
        let mut e = Enc::new();
        put_value(&mut e, v);
        let bytes = e.into_bytes();
        let mut d = Dec::new(&bytes);
        let back = get_value(&mut d).expect("decode");
        d.finish("value").expect("no trailing bytes");
        back
    }

    #[test]
    fn value_roundtrips() {
        let rel = Relation::from_rows(
            Schema::new(vec![
                Column::new("n", DType::Int),
                Column::new("s", DType::Str),
            ])
            .unwrap(),
            vec![
                Tuple::new(vec![Value::Int(1), Value::str("one")]),
                Tuple::new(vec![Value::Int(-2), Value::str("two")]),
            ],
        )
        .unwrap();
        for v in [
            Value::Null,
            Value::Bool(true),
            Value::Int(i64::MIN),
            Value::float(-0.5),
            Value::str(""),
            Value::str("snowman ☃"),
            Value::Time(Timestamp(-77)),
            Value::Rel(Arc::new(rel)),
        ] {
            assert_eq!(v_roundtrip(&v), v);
        }
    }

    #[test]
    fn query_roundtrips_structurally() {
        let q = Query::GroupBy {
            input: Box::new(Query::Select {
                input: Box::new(Query::Join {
                    left: Box::new(Query::Table("emp".into())),
                    right: Box::new(Query::Rename {
                        input: Box::new(Query::Table("dept".into())),
                        names: vec!["d".into(), "head".into()],
                    }),
                }),
                pred: ScalarExpr::Cmp(
                    CmpOp::Gt,
                    Box::new(ScalarExpr::Col("salary".into())),
                    Box::new(ScalarExpr::Param(0)),
                ),
            }),
            keys: vec!["d".into()],
            aggs: vec![
                AggItem {
                    func: AggFunc::Count,
                    arg: None,
                    name: "n".into(),
                },
                AggItem {
                    func: AggFunc::Avg,
                    arg: Some(ScalarExpr::Col("salary".into())),
                    name: "avg_sal".into(),
                },
            ],
        };
        let mut e = Enc::new();
        put_query(&mut e, &q);
        let bytes = e.into_bytes();
        let mut d = Dec::new(&bytes);
        assert_eq!(get_query(&mut d).unwrap(), q);
        d.finish("query").unwrap();
    }

    #[test]
    fn logical_op_roundtrips() {
        let ops = vec![
            LogicalOp::SetItem {
                name: "x".into(),
                value: Value::Int(9),
            },
            LogicalOp::Update {
                ops: vec![
                    WriteOp::Insert {
                        relation: "r".into(),
                        tuple: Tuple::new(vec![Value::Int(1)]),
                    },
                    WriteOp::SetItem {
                        item: "x".into(),
                        value: Value::Null,
                    },
                ],
            },
            LogicalOp::Write {
                txn: TxnId(42),
                op: WriteOp::Delete {
                    relation: "r".into(),
                    tuple: Tuple::new(vec![]),
                },
            },
            LogicalOp::Emit {
                events: EventSet::of([Event::new("deposit", vec![Value::Int(100)])]),
            },
            LogicalOp::AdvanceClockTo { t: Timestamp(1000) },
            LogicalOp::Firing {
                record: FiringRecord {
                    rule: "watch".into(),
                    state_index: 3,
                    time: Timestamp(7),
                    env: [("x".to_string(), Value::Int(5))].into_iter().collect(),
                },
            },
            LogicalOp::CommitAt {
                valid: Timestamp(93),
                ops: vec![WriteOp::SetItem {
                    item: "level".into(),
                    value: Value::Int(12),
                }],
            },
        ];
        for op in ops {
            let bytes = encode_logical_op(&op);
            assert_eq!(decode_logical_op(&bytes).unwrap(), op);
        }
    }

    fn watch() -> Rule {
        let f = tdb_ptl::parse_formula("[x := n()] previously(n() > x + 2)").unwrap();
        let inc = tdb_ptl::parse_term("count(n(); time = 0; true) + 1").unwrap();
        let set = ActionOp::SetItem {
            item: "m".into(),
            value: inc,
        };
        Rule::trigger("watch", f, Action::DbOps(vec![set]))
            .with_params(vec!["x".into()])
            .recording_executed()
            .level_triggered()
    }

    #[test]
    fn registration_record_roundtrips_every_constant() {
        // Constants PTL text does not spell back: a timestamp, a quote, a
        // backslash, non-ASCII text.
        let odd = [
            Value::Time(Timestamp(5)),
            Value::str("O\"Brien"),
            Value::str("a\\b"),
            Value::str("Zürich"),
        ]
        .map(|v| Formula::cmp(CmpOp::Ne, Term::query("city", vec![]), Term::Const(v)));
        let odd = Rule::trigger("odd", Formula::and(odd), Action::Notify);
        let row = ActionOp::Insert {
            relation: "seen".into(),
            tuple: vec![Term::Time, Term::Const(Value::str("☃\"\\"))],
        };
        let log = Rule::trigger("log", Formula::True, Action::DbOps(vec![row]));
        let cap = Rule::constraint("cap", tdb_ptl::parse_formula("n() <= 10").unwrap());
        let op = LogicalOp::RegisterRules {
            rules: vec![watch(), cap, odd, log],
        };
        let bytes = encode_logical_op(&op);
        assert_eq!(decode_logical_op(&bytes).unwrap(), op);
        for cut in 0..bytes.len() {
            assert!(decode_logical_op(&bytes[..cut]).is_err());
        }
    }

    #[test]
    fn formulas_nested_too_deep_are_refused_before_the_stack_overflows() {
        // A condition `depth` formulas deep: what registration accepts up
        // to `MAX_NESTING` decodes, one more level does not.
        let register = |depth: usize| {
            let mut not = Formula::True;
            for _ in 1..depth {
                not = Formula::not(not);
            }
            assert_eq!(not.depth(), depth);
            let rule = Rule::constraint("deep", not);
            encode_logical_op(&LogicalOp::RegisterRules { rules: vec![rule] })
        };
        // On a thread with the stack a server worker gets.
        let decode = |bytes: Vec<u8>| {
            let run = move || decode_logical_op(&bytes).map(drop);
            let thread = std::thread::Builder::new().stack_size(2 << 20);
            thread.spawn(run).unwrap().join().unwrap()
        };
        decode(register(MAX_NESTING)).unwrap();
        let err = decode(register(MAX_NESTING + 1)).unwrap_err().to_string();
        assert!(err.contains("nested deeper"), "{err}");
        // A frame of a million `not` tags ahead of the condition's `true`,
        // which 8 bytes of params, the action tag and 3 flags follow.
        let mut evil = register(1);
        let at = evil.len() - 13;
        assert_eq!(evil[at], 0);
        evil.splice(at..at, std::iter::repeat_n(5, 1 << 20));
        let err = decode(evil).unwrap_err().to_string();
        assert!(err.contains("nested deeper"), "{err}");
    }

    #[test]
    fn snapshot_carries_definitions() {
        let mut snap = ticked_snapshot();
        snap.registered = vec![Arc::new(watch())];
        assert_eq!(decode_snapshot(&encode_snapshot(&snap)).unwrap(), snap);
    }

    #[test]
    fn legacy_names_resolve_to_their_last_definition() {
        let refused = Rule::constraint("watch", Formula::False);
        let catalog = [refused, watch()];
        let named = || LogicalOp::AddRule {
            name: "watch".into(),
        };
        let defined = LogicalOp::RegisterRules {
            rules: vec![watch()],
        };
        assert_eq!(define_legacy(named(), &catalog).unwrap(), defined);
        let batch = LogicalOp::Batch {
            ops: vec![LogicalOp::Tick, named()],
        };
        assert_eq!(define_legacy(batch.clone(), &catalog).unwrap(), batch);
        assert_eq!(
            define_legacy(LogicalOp::Tick, &[]).unwrap(),
            LogicalOp::Tick
        );
        assert!(matches!(
            define_legacy(named(), &[]),
            Err(StorageError::Core(CoreError::NoSuchRule(n))) if n == "watch"
        ));
    }

    #[test]
    fn stats_block_written_by_a_worker_pool_build_still_decodes() {
        // What `put_stats` wrote while `ManagerStats` still carried the
        // pool's counters: 5 parallel batches, 2 demotions, 3 workers.
        let mut old = Enc::new();
        for v in [11, 22, 33, 5, 44, 2] {
            old.u64(v);
        }
        old.len(3);
        for w in [7, 3, 1] {
            old.u64(w);
        }
        let bytes = old.into_bytes();
        let mut d = Dec::new(&bytes);
        let stats = get_stats(&mut d).unwrap();
        d.finish("stats").unwrap();
        assert_eq!(
            stats,
            ManagerStats {
                evaluations: 11,
                skips: 22,
                firings: 33,
                sparse_advances: 44,
                ..ManagerStats::default()
            }
        );

        // Written back, the retired slots are zero and the rest survives.
        let mut e = Enc::new();
        put_stats(&mut e, &stats);
        let bytes = e.into_bytes();
        let mut d = Dec::new(&bytes);
        assert_eq!(get_stats(&mut d).unwrap(), stats);
        d.finish("stats").unwrap();
    }

    #[test]
    fn snapshot_written_with_a_history_cap_still_decodes() {
        let mut adb = tdb_core::ActiveDatabase::new(Database::new());
        adb.tick().unwrap();
        let snap = adb.snapshot().unwrap();
        let bytes = encode_snapshot(&snap);
        // Everything ahead of the cap slot, as `encode_snapshot` lays it out.
        let mut head = Enc::new();
        put_database(&mut head, &snap.db);
        put_timestamp(&mut head, snap.now);
        head.len(snap.history_offset);
        head.len(snap.states.len());
        for st in &snap.states {
            put_carried_state(&mut head, st, &snap.db);
        }
        let at = head.buf.len();
        assert_eq!(bytes[..at], head.buf[..]);
        assert_eq!(bytes[at], 0, "the cap slot is written absent");
        // What a build that still had the cap wrote: present, 64.
        head.boolean(true);
        head.len(64);
        head.raw(&bytes[at + 1..]);
        assert_eq!(decode_snapshot(&head.into_bytes()).unwrap(), snap);
    }

    /// A system whose carried state's database equals its own: a relation
    /// written after a clock tick, as a server tenant's commits are.
    fn ticked_snapshot() -> SystemSnapshot {
        let mut db = Database::new();
        let rel = Relation::empty(Schema::untyped(&["v"]));
        db.create_relation("r", rel).unwrap();
        let mut adb = tdb_core::ActiveDatabase::new(db);
        adb.advance_clock(1).unwrap();
        adb.update([WriteOp::Insert {
            relation: "r".into(),
            tuple: Tuple::new(vec![Value::Int(7)]),
        }])
        .unwrap();
        adb.snapshot().unwrap()
    }

    /// Where the first carried state's database tag sits in a payload.
    fn first_state_tag_at(snap: &SystemSnapshot) -> usize {
        let mut head = Enc::new();
        put_database(&mut head, &snap.db);
        put_timestamp(&mut head, snap.now);
        head.len(snap.history_offset);
        head.len(snap.states.len());
        head.buf.len()
    }

    #[test]
    fn carried_state_equal_to_the_snapshot_is_a_back_reference() {
        let snap = ticked_snapshot();
        let carried = snap.states.last().unwrap();
        assert_eq!(carried.db(), &snap.db);
        let bytes = encode_snapshot(&snap);
        assert_eq!(bytes[first_state_tag_at(&snap)], STATE_DB_SNAPSHOT);

        let back = decode_snapshot(&bytes).unwrap();
        assert_eq!(back, snap);
        let state = back.states.last().unwrap();
        assert_eq!(state.db(), &back.db);
        // Decoded as a clone of the snapshot's database: the relation is
        // the same allocation, not an equal copy.
        assert!(std::ptr::eq(
            state.db().relation("r").unwrap(),
            back.db.relation("r").unwrap()
        ));
    }

    #[test]
    fn bad_state_database_tag_is_a_decode_error() {
        let snap = ticked_snapshot();
        let mut bytes = encode_snapshot(&snap);
        bytes[first_state_tag_at(&snap)] = 9;
        assert!(matches!(
            decode_snapshot(&bytes),
            Err(StorageError::Decode(why)) if why.contains("state database")
        ));
    }

    #[test]
    fn corrupt_bytes_surface_as_decode_errors() {
        // Unknown tag.
        assert!(matches!(
            decode_logical_op(&[200]),
            Err(StorageError::Decode(_))
        ));
        // Truncated payload.
        let bytes = encode_logical_op(&LogicalOp::SetItem {
            name: "item".into(),
            value: Value::str("value"),
        });
        for cut in 0..bytes.len() {
            assert!(
                decode_logical_op(&bytes[..cut]).is_err(),
                "prefix of {cut} bytes decoded"
            );
        }
        // Trailing garbage.
        let mut long = bytes.clone();
        long.push(0);
        assert!(matches!(
            decode_logical_op(&long),
            Err(StorageError::Decode(_))
        ));
        // Implausible length never allocates: claim 2^60 env entries.
        let mut evil = Enc::new();
        evil.u8(16); // Firing tag
        evil.str("r");
        evil.len(0);
        evil.i64(0);
        evil.u64(1 << 60); // env length
        assert!(matches!(
            decode_logical_op(&evil.into_bytes()),
            Err(StorageError::Decode(_))
        ));
    }
}
