//! Transactions: buffered write sets applied atomically at commit.
//!
//! In the transaction-time model "the database states of two consecutive
//! system states are identical, unless the event set contains the commit of
//! a transaction" — so writes are buffered in the transaction and applied to
//! the database in one step when (and only when) the commit is allowed.

use std::fmt;

use tdb_relation::{Database, Timestamp, Tuple, Value};

use crate::error::Result;

/// A transaction identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TxnId(pub u64);

impl fmt::Display for TxnId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "T{}", self.0)
    }
}

/// One buffered write; it takes effect at commit time.
#[derive(Debug, Clone, PartialEq)]
pub struct Write {
    pub op: WriteOp,
}

/// The kinds of buffered writes.
#[derive(Debug, Clone, PartialEq)]
pub enum WriteOp {
    Insert { relation: String, tuple: Tuple },
    Delete { relation: String, tuple: Tuple },
    SetItem { item: String, value: Value },
}

impl WriteOp {
    /// The catalog name this write touches (for update events and relevance
    /// filtering).
    pub fn target(&self) -> &str {
        match self {
            WriteOp::Insert { relation, .. } | WriteOp::Delete { relation, .. } => relation,
            WriteOp::SetItem { item, .. } => item,
        }
    }

    /// Applies the write to a database state.
    pub fn apply(&self, db: &mut Database) -> Result<()> {
        match self {
            WriteOp::Insert { relation, tuple } => {
                db.insert_tuple(relation, tuple.clone())?;
            }
            WriteOp::Delete { relation, tuple } => {
                db.delete_tuple(relation, tuple)?;
            }
            WriteOp::SetItem { item, value } => {
                db.set_item(item.clone(), value.clone());
            }
        }
        Ok(())
    }

    /// Applies the *inverse* of the write (used when stripping uncommitted
    /// updates out of a valid-time committed history). Insert/delete are
    /// inverses of each other; `SetItem` needs the previous value, which the
    /// caller must have recorded.
    pub fn undo(&self, db: &mut Database, prev_item: Option<&Value>) -> Result<()> {
        match self {
            WriteOp::Insert { relation, tuple } => {
                db.delete_tuple(relation, tuple)?;
            }
            WriteOp::Delete { relation, tuple } => {
                db.insert_tuple(relation, tuple.clone())?;
            }
            WriteOp::SetItem { item, .. } => {
                if let Some(v) = prev_item {
                    db.set_item(item.clone(), v.clone());
                }
            }
        }
        Ok(())
    }
}

impl fmt::Display for WriteOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WriteOp::Insert { relation, tuple } => write!(f, "insert {tuple} into {relation}"),
            WriteOp::Delete { relation, tuple } => write!(f, "delete {tuple} from {relation}"),
            WriteOp::SetItem { item, value } => write!(f, "set {item} := {value}"),
        }
    }
}

/// The lifecycle status of a transaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TxnStatus {
    Active,
    Committed,
    Aborted,
}

/// An open transaction: an id, a begin time and a buffered write set.
#[derive(Debug, Clone)]
pub struct Transaction {
    id: TxnId,
    begin_time: Timestamp,
    writes: Vec<Write>,
    status: TxnStatus,
}

impl Transaction {
    pub fn new(id: TxnId, begin_time: Timestamp) -> Transaction {
        Transaction {
            id,
            begin_time,
            writes: Vec::new(),
            status: TxnStatus::Active,
        }
    }

    pub fn id(&self) -> TxnId {
        self.id
    }

    pub fn begin_time(&self) -> Timestamp {
        self.begin_time
    }

    pub fn status(&self) -> TxnStatus {
        self.status
    }

    pub fn writes(&self) -> &[Write] {
        &self.writes
    }

    /// Buffers a write effective at commit time (transaction-time model).
    pub fn push_write(&mut self, op: WriteOp) {
        debug_assert_eq!(self.status, TxnStatus::Active);
        self.writes.push(Write { op });
    }

    /// Applies the whole write set to `db` (commit in the transaction-time
    /// model). Individual write errors (e.g. unknown relation) abort the
    /// application midway, so callers apply to a scratch copy first.
    pub fn apply_all(&self, db: &mut Database) -> Result<()> {
        for w in &self.writes {
            w.op.apply(db)?;
        }
        Ok(())
    }

    /// Distinct catalog names touched by the write set, sorted.
    pub fn touched(&self) -> Vec<String> {
        let mut t: Vec<String> = self
            .writes
            .iter()
            .map(|w| w.op.target().to_string())
            .collect();
        t.sort();
        t.dedup();
        t
    }

    pub(crate) fn mark_committed(&mut self) {
        self.status = TxnStatus::Committed;
    }

    pub(crate) fn mark_aborted(&mut self) {
        self.status = TxnStatus::Aborted;
    }
}

#[cfg(test)]
#[allow(clippy::disallowed_methods)] // tests may unwrap
mod tests {
    use super::*;
    use tdb_relation::{tuple, Relation, Schema};

    fn db() -> Database {
        let mut db = Database::new();
        db.create_relation("S", Relation::empty(Schema::untyped(&["name", "price"])))
            .unwrap();
        db
    }

    #[test]
    fn writes_are_buffered_not_applied() {
        let mut t = Transaction::new(TxnId(1), Timestamp(0));
        t.push_write(WriteOp::Insert {
            relation: "S".into(),
            tuple: tuple!["IBM", 72i64],
        });
        let d = db();
        assert!(
            d.relation("S").unwrap().is_empty(),
            "no effect before apply"
        );
        let mut d2 = d.clone();
        t.apply_all(&mut d2).unwrap();
        assert_eq!(d2.relation("S").unwrap().len(), 1);
    }

    #[test]
    fn apply_order_is_preserved() {
        let mut t = Transaction::new(TxnId(1), Timestamp(0));
        t.push_write(WriteOp::SetItem {
            item: "x".into(),
            value: Value::Int(1),
        });
        t.push_write(WriteOp::SetItem {
            item: "x".into(),
            value: Value::Int(2),
        });
        let mut d = db();
        t.apply_all(&mut d).unwrap();
        assert_eq!(d.item("x").unwrap(), Value::Int(2));
    }

    #[test]
    fn undo_inverts_insert_and_delete() {
        let mut d = db();
        let ins = WriteOp::Insert {
            relation: "S".into(),
            tuple: tuple!["IBM", 72i64],
        };
        ins.apply(&mut d).unwrap();
        ins.undo(&mut d, None).unwrap();
        assert!(d.relation("S").unwrap().is_empty());

        let del = WriteOp::Delete {
            relation: "S".into(),
            tuple: tuple!["IBM", 72i64],
        };
        ins.apply(&mut d).unwrap();
        del.apply(&mut d).unwrap();
        del.undo(&mut d, None).unwrap();
        assert_eq!(d.relation("S").unwrap().len(), 1);
    }

    #[test]
    fn touched_deduplicates() {
        let mut t = Transaction::new(TxnId(1), Timestamp(0));
        t.push_write(WriteOp::Insert {
            relation: "S".into(),
            tuple: tuple!["a", 1i64],
        });
        t.push_write(WriteOp::Delete {
            relation: "S".into(),
            tuple: tuple!["a", 1i64],
        });
        t.push_write(WriteOp::SetItem {
            item: "F".into(),
            value: Value::Int(0),
        });
        assert_eq!(t.touched(), vec!["F".to_string(), "S".into()]);
    }

    #[test]
    fn unknown_relation_fails_apply() {
        let mut t = Transaction::new(TxnId(1), Timestamp(0));
        t.push_write(WriteOp::Insert {
            relation: "NOPE".into(),
            tuple: tuple![1i64],
        });
        assert!(t.apply_all(&mut db()).is_err());
    }
}
