//! Residual formulas — the paper's formula states `F_{g,i}`.
//!
//! After the i-th update, the incremental algorithm keeps, for every
//! subformula `g`, a *formula over the free variables* whose truth (under
//! any substitution) equals `g`'s truth at state `i`. Ground parts are
//! evaluated away immediately; what remains are constraints over variables
//! that will be bound later — by an enclosing assignment operator at some
//! future evaluation instant, or by the firing machinery extracting
//! parameter bindings.
//!
//! The representation is an `Arc`-shared tree built exclusively through
//! smart constructors — methods of the owning tenant's [`EvalContext`],
//! which holds the hash-consing arena the nodes are interned in — that:
//!
//! * constant-fold (`and(False, …) = False`, ground comparisons evaluate);
//! * flatten and deduplicate n-ary `and`/`or` (so revisiting identical
//!   states does not grow the state — the paper's and-or-graph);
//! * canonicalize single-variable comparisons into [`Constraint`]s and merge
//!   them into intervals (`x ≥ 20 ∧ x ≥ 22 → x ≥ 22`, `t ≤ 11 ∧ t ≥ 20 →
//!   false`);
//! * never push negation through comparisons (comparisons involving `Null`
//!   are false, so `¬(x ≤ 5)` and `x > 5` differ when `x` is `Null`).
//!
//! [`EvalContext::prune_time`] implements the Section 5 optimization: for a variable
//! known to be assigned the (strictly increasing) clock, clauses that no
//! future substitution can satisfy collapse to `false`, and clauses every
//! future substitution satisfies collapse to `true` — this is what keeps
//! the retained state bounded for bounded temporal operators.

use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

use tdb_relation::{eval_arith, ArithOp, CmpOp, Database, Timestamp, Value};

use crate::context::{locked, EvalContext};
use crate::error::{CoreError, Result};

/// A variable binding environment (same shape as `tdb_ptl::Env`).
pub type Env = BTreeMap<String, Value>;

/// A database snapshot captured by a partially evaluated query term.
/// Equality/ordering is by snapshot id (one snapshot per system state), so
/// residual deduplication never compares whole databases. The interning
/// arena uses a stricter identity — id *plus* database pointer — so that
/// same-index states of different engines never unify (see
/// [`EvalContext::intern_arc`]).
#[derive(Debug, Clone)]
pub struct Snapshot {
    pub id: u64,
    pub db: Arc<Database>,
}

impl PartialEq for Snapshot {
    fn eq(&self, other: &Self) -> bool {
        self.id == other.id
    }
}
impl Eq for Snapshot {}
impl PartialOrd for Snapshot {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Snapshot {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.id.cmp(&other.id)
    }
}

/// A partially evaluated term: ground subterms are already values; query
/// applications whose arguments are still symbolic carry the database
/// snapshot they must eventually be evaluated against.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub enum PTerm {
    Val(Value),
    Var(String),
    Arith(ArithOp, Arc<PTerm>, Arc<PTerm>),
    Neg(Arc<PTerm>),
    Abs(Arc<PTerm>),
    /// A named query whose arguments were not all ground at partial
    /// evaluation time; it is evaluated against `snap` once they are.
    QuerySnap {
        name: String,
        args: Vec<Arc<PTerm>>,
        snap: Snapshot,
    },
}

impl PTerm {
    pub fn val(v: impl Into<Value>) -> Arc<PTerm> {
        Arc::new(PTerm::Val(v.into()))
    }

    pub fn var(name: impl Into<String>) -> Arc<PTerm> {
        Arc::new(PTerm::Var(name.into()))
    }

    /// Builds an arithmetic node, folding if both sides are ground.
    pub fn arith(op: ArithOp, a: Arc<PTerm>, b: Arc<PTerm>) -> Result<Arc<PTerm>> {
        if let (PTerm::Val(x), PTerm::Val(y)) = (&*a, &*b) {
            return Ok(PTerm::val(eval_arith(op, x, y)?));
        }
        Ok(Arc::new(PTerm::Arith(op, a, b)))
    }

    pub fn is_ground(&self) -> bool {
        match self {
            PTerm::Val(_) => true,
            PTerm::Var(_) => false,
            PTerm::Arith(_, a, b) => a.is_ground() && b.is_ground(),
            PTerm::Neg(a) | PTerm::Abs(a) => a.is_ground(),
            PTerm::QuerySnap { args, .. } => args.iter().all(|a| a.is_ground()),
        }
    }

    pub fn collect_vars(&self, out: &mut BTreeSet<String>) {
        match self {
            PTerm::Val(_) => {}
            PTerm::Var(v) => {
                out.insert(v.clone());
            }
            PTerm::Arith(_, a, b) => {
                a.collect_vars(out);
                b.collect_vars(out);
            }
            PTerm::Neg(a) | PTerm::Abs(a) => a.collect_vars(out),
            PTerm::QuerySnap { args, .. } => {
                for a in args {
                    a.collect_vars(out);
                }
            }
        }
    }

    /// Evaluates a ground partial term to a value.
    pub fn eval_ground(&self) -> Result<Value> {
        match self {
            PTerm::Val(v) => Ok(v.clone()),
            PTerm::Var(v) => Err(CoreError::UnsolvableResidual(v.clone())),
            PTerm::Arith(op, a, b) => Ok(eval_arith(*op, &a.eval_ground()?, &b.eval_ground()?)?),
            PTerm::Neg(a) => match a.eval_ground()? {
                Value::Null => Ok(Value::Null),
                Value::Int(i) => Ok(Value::Int(-i)),
                Value::Float(f) => Ok(Value::float(-f)),
                v => Err(CoreError::Rel(tdb_relation::RelError::TypeError {
                    op: "neg",
                    value: v.to_string(),
                })),
            },
            PTerm::Abs(a) => match a.eval_ground()? {
                Value::Null => Ok(Value::Null),
                Value::Int(i) => Ok(Value::Int(i.abs())),
                Value::Float(f) => Ok(Value::float(f.abs())),
                v => Err(CoreError::Rel(tdb_relation::RelError::TypeError {
                    op: "abs",
                    value: v.to_string(),
                })),
            },
            PTerm::QuerySnap { name, args, snap } => {
                let args: Vec<Value> = args
                    .iter()
                    .map(|a| a.eval_ground())
                    .collect::<Result<_>>()?;
                let rel = snap.db.eval_named(name, &args)?;
                Ok(tdb_ptl::relation_to_value(rel))
            }
        }
    }

    /// Substitutes `var` by `value`, folding any subterm that becomes
    /// ground. Query snapshots whose arguments become ground are evaluated
    /// against their captured snapshot (the paper's auxiliary relation
    /// lookup by timestamp).
    pub fn subst(self: &Arc<PTerm>, var: &str, value: &Value) -> Result<Arc<PTerm>> {
        match &**self {
            PTerm::Val(_) => Ok(self.clone()),
            PTerm::Var(v) => {
                if v == var {
                    Ok(PTerm::val(value.clone()))
                } else {
                    Ok(self.clone())
                }
            }
            PTerm::Arith(op, a, b) => PTerm::arith(*op, a.subst(var, value)?, b.subst(var, value)?),
            PTerm::Neg(a) => {
                let a = a.subst(var, value)?;
                if a.is_ground() {
                    let t = PTerm::Neg(a);
                    Ok(PTerm::val(t.eval_ground()?))
                } else {
                    Ok(Arc::new(PTerm::Neg(a)))
                }
            }
            PTerm::Abs(a) => {
                let a = a.subst(var, value)?;
                if a.is_ground() {
                    let t = PTerm::Abs(a);
                    Ok(PTerm::val(t.eval_ground()?))
                } else {
                    Ok(Arc::new(PTerm::Abs(a)))
                }
            }
            PTerm::QuerySnap { name, args, snap } => {
                let args: Vec<Arc<PTerm>> = args
                    .iter()
                    .map(|a| a.subst(var, value))
                    .collect::<Result<_>>()?;
                let node = PTerm::QuerySnap {
                    name: name.clone(),
                    args,
                    snap: snap.clone(),
                };
                if node.is_ground() {
                    Ok(PTerm::val(node.eval_ground()?))
                } else {
                    Ok(Arc::new(node))
                }
            }
        }
    }
}

impl fmt::Display for PTerm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PTerm::Val(v) => write!(f, "{v}"),
            PTerm::Var(v) => write!(f, "{v}"),
            PTerm::Arith(op, a, b) => write!(f, "({a} {} {b})", op.symbol()),
            PTerm::Neg(a) => write!(f, "(-{a})"),
            PTerm::Abs(a) => write!(f, "abs({a})"),
            PTerm::QuerySnap { name, args, snap } => {
                write!(f, "{name}@s{}(", snap.id)?;
                for (i, a) in args.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{a}")?;
                }
                write!(f, ")")
            }
        }
    }
}

/// A canonical single-variable constraint `var op value` (value non-null).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Constraint {
    pub var: String,
    pub op: CmpOp,
    pub value: Value,
}

impl fmt::Display for Constraint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {} {}", self.var, self.op.symbol(), self.value)
    }
}

/// A residual formula node.
///
/// Ordering and equality are structural, exactly as the derived
/// implementations would be (`True < False < Constraint < Cmp < Not < And <
/// Or`), but implemented manually with a pointer-equality fast path on
/// shared children: interned nodes compare in O(1) per shared subtree.
#[derive(Debug, Clone)]
pub enum Residual {
    True,
    False,
    Constraint(Constraint),
    /// Opaque comparison that did not canonicalize (multi-variable, modulo,
    /// query-dependent, …).
    Cmp(CmpOp, Arc<PTerm>, Arc<PTerm>),
    Not(Arc<Residual>),
    And(Vec<Arc<Residual>>),
    Or(Vec<Arc<Residual>>),
}

impl Residual {
    /// Variant rank, matching the declaration (and former derived) order.
    fn rank(&self) -> u8 {
        match self {
            Residual::True => 0,
            Residual::False => 1,
            Residual::Constraint(_) => 2,
            Residual::Cmp(..) => 3,
            Residual::Not(_) => 4,
            Residual::And(_) => 5,
            Residual::Or(_) => 6,
        }
    }
}

fn arc_res_eq(a: &Arc<Residual>, b: &Arc<Residual>) -> bool {
    Arc::ptr_eq(a, b) || **a == **b
}

fn arc_res_cmp(a: &Arc<Residual>, b: &Arc<Residual>) -> std::cmp::Ordering {
    if Arc::ptr_eq(a, b) {
        std::cmp::Ordering::Equal
    } else {
        (**a).cmp(&**b)
    }
}

fn children_cmp(a: &[Arc<Residual>], b: &[Arc<Residual>]) -> std::cmp::Ordering {
    // Lexicographic, then by length — the slice ordering `derive` would use.
    for (x, y) in a.iter().zip(b) {
        match arc_res_cmp(x, y) {
            std::cmp::Ordering::Equal => {}
            other => return other,
        }
    }
    a.len().cmp(&b.len())
}

fn arc_pt_eq(a: &Arc<PTerm>, b: &Arc<PTerm>) -> bool {
    Arc::ptr_eq(a, b) || **a == **b
}

fn arc_pt_cmp(a: &Arc<PTerm>, b: &Arc<PTerm>) -> std::cmp::Ordering {
    if Arc::ptr_eq(a, b) {
        std::cmp::Ordering::Equal
    } else {
        (**a).cmp(&**b)
    }
}

impl PartialEq for Residual {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (Residual::True, Residual::True) | (Residual::False, Residual::False) => true,
            (Residual::Constraint(a), Residual::Constraint(b)) => a == b,
            (Residual::Cmp(o1, a1, b1), Residual::Cmp(o2, a2, b2)) => {
                o1 == o2 && arc_pt_eq(a1, a2) && arc_pt_eq(b1, b2)
            }
            (Residual::Not(a), Residual::Not(b)) => arc_res_eq(a, b),
            (Residual::And(a), Residual::And(b)) | (Residual::Or(a), Residual::Or(b)) => {
                a.len() == b.len() && a.iter().zip(b).all(|(x, y)| arc_res_eq(x, y))
            }
            _ => false,
        }
    }
}

impl Eq for Residual {}

impl PartialOrd for Residual {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Residual {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        match (self, other) {
            (Residual::True, Residual::True) | (Residual::False, Residual::False) => {
                std::cmp::Ordering::Equal
            }
            (Residual::Constraint(a), Residual::Constraint(b)) => a.cmp(b),
            (Residual::Cmp(o1, a1, b1), Residual::Cmp(o2, a2, b2)) => o1
                .cmp(o2)
                .then_with(|| arc_pt_cmp(a1, a2))
                .then_with(|| arc_pt_cmp(b1, b2)),
            (Residual::Not(a), Residual::Not(b)) => arc_res_cmp(a, b),
            (Residual::And(a), Residual::And(b)) | (Residual::Or(a), Residual::Or(b)) => {
                children_cmp(a, b)
            }
            _ => self.rank().cmp(&other.rank()),
        }
    }
}

// ---------------------------------------------------------------------------
// Hash-consing arena.
//
// Every residual built through the smart constructors is *interned*:
// structurally equal nodes share one `Arc` allocation with a precomputed
// 64-bit hash. This makes the `F_{g,i}` recurrences cheap to build and
// dedupe (pointer comparisons), keeps the aggregate retained state across
// a tenant's rules compact, and lets checkpoints encode each distinct node
// once.
//
// The arena identity is *stricter* than public equality in one spot:
// snapshots unify only when their `id` AND database pointer agree, so two
// engines whose histories share a state index never share residual nodes
// (public equality compares snapshots by id alone).
//
// Structure: one arena per `EvalContext` (i.e. per tenant), behind the
// context's arena lock — a table keyed by node hash plus a side table
// mapping canonical node pointers to their hash, so a parent's hash is
// computed from its children's in O(#children). Both live under the one
// lock, and `Arena`'s methods cannot reach it, so no path re-enters.
// Arena references are strong; the arena sweeps nodes whose only owner is
// itself once it grows past a watermark (holding the lock makes the
// `strong_count == 1` test sound: a node with no outside owner can only be
// handed out by the locked arena itself). Dropping the context drops the
// arena and with it every node no evaluator still holds.
// ---------------------------------------------------------------------------

const ARENA_MIN_WATERMARK: usize = 1 << 12;

pub(crate) struct Arena {
    table: HashMap<u64, Vec<Arc<Residual>>>,
    /// Canonical node address → its hash.
    hashes: HashMap<usize, u64>,
    entries: usize,
    watermark: usize,
    /// Nodes ever inserted (sweeps do not subtract).
    interned: u64,
}

impl Default for Arena {
    fn default() -> Arena {
        Arena {
            table: HashMap::new(),
            hashes: HashMap::new(),
            entries: 0,
            watermark: ARENA_MIN_WATERMARK,
            interned: 0,
        }
    }
}

impl Arena {
    pub(crate) fn interned(&self) -> u64 {
        self.interned
    }

    pub(crate) fn resident(&self) -> usize {
        self.entries
    }

    fn is_canonical(&self, r: &Arc<Residual>) -> bool {
        self.hashes.contains_key(&(Arc::as_ptr(r) as usize))
    }

    /// The arena hash of a possibly-foreign node: canonical children are
    /// looked up in the side table, foreign ones recomputed recursively.
    fn node_hash(&self, r: &Arc<Residual>) -> u64 {
        match self.hashes.get(&(Arc::as_ptr(r) as usize)) {
            Some(&h) => h,
            None => self.shallow_hash(r),
        }
    }

    fn shallow_hash(&self, node: &Residual) -> u64 {
        let mut h = DefaultHasher::new();
        match node {
            Residual::True => 0u8.hash(&mut h),
            Residual::False => 1u8.hash(&mut h),
            Residual::Constraint(c) => {
                2u8.hash(&mut h);
                c.var.hash(&mut h);
                c.op.hash(&mut h);
                c.value.hash(&mut h);
            }
            Residual::Cmp(op, a, b) => {
                3u8.hash(&mut h);
                op.hash(&mut h);
                pterm_hash(a, &mut h);
                pterm_hash(b, &mut h);
            }
            Residual::Not(g) => {
                4u8.hash(&mut h);
                self.node_hash(g).hash(&mut h);
            }
            Residual::And(gs) => {
                5u8.hash(&mut h);
                gs.len().hash(&mut h);
                for g in gs {
                    self.node_hash(g).hash(&mut h);
                }
            }
            Residual::Or(gs) => {
                6u8.hash(&mut h);
                gs.len().hash(&mut h);
                for g in gs {
                    self.node_hash(g).hash(&mut h);
                }
            }
        }
        h.finish()
    }

    /// Interns a node whose residual children are already canonical.
    pub(crate) fn intern(&mut self, node: Residual) -> Arc<Residual> {
        let h = self.shallow_hash(&node);
        if let Some(bucket) = self.table.get(&h) {
            if let Some(existing) = bucket.iter().find(|e| arena_eq(e, &node)) {
                return existing.clone();
            }
        }
        let arc = Arc::new(node);
        // Table first: the side table must only ever name addresses the
        // table keeps alive.
        self.table.entry(h).or_default().push(arc.clone());
        self.hashes.insert(Arc::as_ptr(&arc) as usize, h);
        self.entries += 1;
        self.interned += 1;
        if self.entries > self.watermark {
            self.sweep();
        }
        arc
    }

    /// Drops nodes whose only remaining owner is the arena itself. The
    /// hash side-table entry is removed *before* the `Arc` is dropped, so
    /// the side table never refers to freed (and possibly reused)
    /// addresses.
    fn sweep(&mut self) {
        let hashes = &mut self.hashes;
        let mut removed = 0usize;
        self.table.retain(|_, bucket| {
            bucket.retain(|arc| {
                if Arc::strong_count(arc) == 1 {
                    hashes.remove(&(Arc::as_ptr(arc) as usize));
                    removed += 1;
                    false
                } else {
                    true
                }
            });
            !bucket.is_empty()
        });
        self.entries -= removed;
        self.watermark = (self.entries * 2).max(ARENA_MIN_WATERMARK);
    }

    /// The canonical node for `r`, rebuilding foreign subtrees bottom-up.
    /// `adopted` maps the foreign nodes already rebuilt in this pass to
    /// their canonical twins, so a foreign DAG (a snapshot exported by
    /// another context shares subtrees freely) costs its node count, not
    /// its path count.
    fn intern_arc(
        &mut self,
        r: &Arc<Residual>,
        adopted: &mut HashMap<usize, Arc<Residual>>,
    ) -> Arc<Residual> {
        if self.is_canonical(r) {
            return r.clone();
        }
        let key = Arc::as_ptr(r) as usize;
        if let Some(done) = adopted.get(&key) {
            return done.clone();
        }
        let node = match &**r {
            Residual::True => Residual::True,
            Residual::False => Residual::False,
            Residual::Constraint(c) => Residual::Constraint(c.clone()),
            Residual::Cmp(op, a, b) => Residual::Cmp(*op, a.clone(), b.clone()),
            Residual::Not(g) => Residual::Not(self.intern_arc(g, adopted)),
            Residual::And(gs) => {
                Residual::And(gs.iter().map(|g| self.intern_arc(g, adopted)).collect())
            }
            Residual::Or(gs) => {
                Residual::Or(gs.iter().map(|g| self.intern_arc(g, adopted)).collect())
            }
        };
        let canon = self.intern(node);
        adopted.insert(key, canon.clone());
        canon
    }

    fn constraint(&mut self, var: &str, op: CmpOp, value: &Value) -> Arc<Residual> {
        self.intern(Residual::Constraint(Constraint {
            var: var.to_string(),
            op,
            value: value.clone(),
        }))
    }
}

fn pterm_hash<H: Hasher>(t: &PTerm, h: &mut H) {
    match t {
        PTerm::Val(v) => {
            0u8.hash(h);
            v.hash(h);
        }
        PTerm::Var(v) => {
            1u8.hash(h);
            v.hash(h);
        }
        PTerm::Arith(op, a, b) => {
            2u8.hash(h);
            op.hash(h);
            pterm_hash(a, h);
            pterm_hash(b, h);
        }
        PTerm::Neg(a) => {
            3u8.hash(h);
            pterm_hash(a, h);
        }
        PTerm::Abs(a) => {
            4u8.hash(h);
            pterm_hash(a, h);
        }
        PTerm::QuerySnap { name, args, snap } => {
            5u8.hash(h);
            name.hash(h);
            args.len().hash(h);
            for a in args {
                pterm_hash(a, h);
            }
            snap.id.hash(h);
            (Arc::as_ptr(&snap.db) as usize).hash(h);
        }
    }
}

/// Arena identity of two nodes whose residual children are both canonical:
/// children compare by pointer, snapshots by id *and* database pointer.
fn arena_eq(a: &Residual, b: &Residual) -> bool {
    match (a, b) {
        (Residual::True, Residual::True) | (Residual::False, Residual::False) => true,
        (Residual::Constraint(x), Residual::Constraint(y)) => x == y,
        (Residual::Cmp(o1, a1, b1), Residual::Cmp(o2, a2, b2)) => {
            o1 == o2 && pterm_arena_eq(a1, a2) && pterm_arena_eq(b1, b2)
        }
        (Residual::Not(x), Residual::Not(y)) => Arc::ptr_eq(x, y),
        (Residual::And(x), Residual::And(y)) | (Residual::Or(x), Residual::Or(y)) => {
            x.len() == y.len() && x.iter().zip(y).all(|(p, q)| Arc::ptr_eq(p, q))
        }
        _ => false,
    }
}

fn pterm_arena_eq(a: &Arc<PTerm>, b: &Arc<PTerm>) -> bool {
    if Arc::ptr_eq(a, b) {
        return true;
    }
    match (&**a, &**b) {
        (PTerm::Val(x), PTerm::Val(y)) => x == y,
        (PTerm::Var(x), PTerm::Var(y)) => x == y,
        (PTerm::Arith(o1, a1, b1), PTerm::Arith(o2, a2, b2)) => {
            o1 == o2 && pterm_arena_eq(a1, a2) && pterm_arena_eq(b1, b2)
        }
        (PTerm::Neg(x), PTerm::Neg(y)) | (PTerm::Abs(x), PTerm::Abs(y)) => pterm_arena_eq(x, y),
        (
            PTerm::QuerySnap {
                name: n1,
                args: a1,
                snap: s1,
            },
            PTerm::QuerySnap {
                name: n2,
                args: a2,
                snap: s2,
            },
        ) => {
            n1 == n2
                && s1.id == s2.id
                && Arc::ptr_eq(&s1.db, &s2.db)
                && a1.len() == a2.len()
                && a1.iter().zip(a2).all(|(x, y)| pterm_arena_eq(x, y))
        }
        _ => false,
    }
}

/// Interval state for one variable while merging a conjunction.
#[derive(Debug, Default, Clone)]
struct Interval {
    lower: Option<(Value, bool)>, // (bound, strict)
    upper: Option<(Value, bool)>,
    eq: Option<Value>,
    ne: BTreeSet<Value>,
}

impl Interval {
    /// Adds a constraint; returns false on contradiction.
    fn add(&mut self, op: CmpOp, v: &Value) -> bool {
        match op {
            CmpOp::Eq => match &self.eq {
                Some(e) if e != v => return false,
                _ => self.eq = Some(v.clone()),
            },
            CmpOp::Ne => {
                self.ne.insert(v.clone());
            }
            CmpOp::Ge | CmpOp::Gt => {
                let strict = op == CmpOp::Gt;
                let replace = match &self.lower {
                    Some((b, s)) => v > b || (v == b && strict && !s),
                    None => true,
                };
                if replace {
                    self.lower = Some((v.clone(), strict));
                }
            }
            CmpOp::Le | CmpOp::Lt => {
                let strict = op == CmpOp::Lt;
                let replace = match &self.upper {
                    Some((b, s)) => v < b || (v == b && strict && !s),
                    None => true,
                };
                if replace {
                    self.upper = Some((v.clone(), strict));
                }
            }
        }
        self.consistent()
    }

    fn consistent(&self) -> bool {
        if let Some(e) = &self.eq {
            if self.ne.contains(e) {
                return false;
            }
            if let Some((b, s)) = &self.lower {
                if e < b || (e == b && *s) {
                    return false;
                }
            }
            if let Some((b, s)) = &self.upper {
                if e > b || (e == b && *s) {
                    return false;
                }
            }
        }
        if let (Some((lo, ls)), Some((hi, hs))) = (&self.lower, &self.upper) {
            if lo > hi || (lo == hi && (*ls || *hs)) {
                return false;
            }
        }
        true
    }

    /// Reconstructs the minimal constraint list for `var`.
    fn emit(&self, var: &str, arena: &mut Arena, out: &mut Vec<Arc<Residual>>) {
        if let Some(e) = &self.eq {
            // Equality subsumes the bounds (consistency already checked).
            out.push(arena.constraint(var, CmpOp::Eq, e));
            return;
        }
        if let Some((b, s)) = &self.lower {
            out.push(arena.constraint(var, if *s { CmpOp::Gt } else { CmpOp::Ge }, b));
        }
        if let Some((b, s)) = &self.upper {
            out.push(arena.constraint(var, if *s { CmpOp::Lt } else { CmpOp::Le }, b));
        }
        for v in &self.ne {
            // Drop ≠ constraints already implied by the bounds.
            let implied_low = self
                .lower
                .as_ref()
                .is_some_and(|(b, s)| v < b || (v == b && *s));
            let implied_high = self
                .upper
                .as_ref()
                .is_some_and(|(b, s)| v > b || (v == b && *s));
            if !implied_low && !implied_high {
                out.push(arena.constraint(var, CmpOp::Ne, v));
            }
        }
    }
}

/// The smart constructors. Each takes the arena lock at most once and
/// never while calling another constructor.
impl EvalContext {
    /// This context's canonical `true`.
    pub fn rtrue(&self) -> Arc<Residual> {
        self.rtrue.clone()
    }

    /// This context's canonical `false`.
    pub fn rfalse(&self) -> Arc<Residual> {
        self.rfalse.clone()
    }

    /// Returns the canonical (interned) node for `r`, rebuilding foreign
    /// subtrees bottom-up. Already-canonical inputs return in O(1).
    /// Imported checkpoints, nodes built by another context and hand-built
    /// test residuals go through here; everything produced by this
    /// context's smart constructors is canonical from birth.
    pub fn intern_arc(&self, r: &Arc<Residual>) -> Arc<Residual> {
        locked(&self.arena).intern_arc(r, &mut HashMap::new())
    }

    /// [`EvalContext::intern_arc`] over a whole slice in place, under one
    /// lock and one foreign-node memo (the slots of an imported evaluator
    /// state share most of their subtrees).
    pub(crate) fn intern_all(&self, rs: &mut [Arc<Residual>]) {
        let mut arena = locked(&self.arena);
        let mut adopted = HashMap::new();
        for r in rs {
            *r = arena.intern_arc(r, &mut adopted);
        }
    }

    /// Builds a comparison, folding ground sides and canonicalizing
    /// single-variable linear shapes.
    pub fn rcmp(&self, op: CmpOp, a: Arc<PTerm>, b: Arc<PTerm>) -> Result<Arc<Residual>> {
        if a.is_ground() && b.is_ground() {
            let av = a.eval_ground()?;
            let bv = b.eval_ground()?;
            return Ok(if op.eval(&av, &bv) {
                self.rtrue()
            } else {
                self.rfalse()
            });
        }
        // Try to isolate a single variable on one side.
        if let Some(r) = self.try_linearize(op, &a, &b)? {
            return Ok(r);
        }
        if let Some(r) = self.try_linearize(op.flip(), &b, &a)? {
            return Ok(r);
        }
        Ok(locked(&self.arena).intern(Residual::Cmp(op, a, b)))
    }

    /// Attempts to rewrite `sym op ground` into a canonical constraint by
    /// inverting the arithmetic around a single variable occurrence.
    fn try_linearize(
        &self,
        mut op: CmpOp,
        sym: &Arc<PTerm>,
        ground: &Arc<PTerm>,
    ) -> Result<Option<Arc<Residual>>> {
        if !ground.is_ground() || sym.is_ground() {
            return Ok(None);
        }
        let mut value = ground.eval_ground()?;
        let mut cur = sym.clone();
        loop {
            match &*cur {
                PTerm::Var(v) => {
                    if matches!(value, Value::Null) {
                        // `x op Null` is never satisfied.
                        return Ok(Some(self.rfalse()));
                    }
                    return Ok(Some(locked(&self.arena).constraint(v, op, &value)));
                }
                PTerm::Arith(ArithOp::Add, a, b) => {
                    if b.is_ground() {
                        value = eval_arith(ArithOp::Sub, &value, &b.eval_ground()?)?;
                        cur = a.clone();
                    } else if a.is_ground() {
                        value = eval_arith(ArithOp::Sub, &value, &a.eval_ground()?)?;
                        cur = b.clone();
                    } else {
                        return Ok(None);
                    }
                }
                PTerm::Arith(ArithOp::Sub, a, b) => {
                    if b.is_ground() {
                        // s - c op v  ⇒  s op v + c
                        value = eval_arith(ArithOp::Add, &value, &b.eval_ground()?)?;
                        cur = a.clone();
                    } else if a.is_ground() {
                        // c - s op v  ⇒  s flip(op) c - v
                        value = eval_arith(ArithOp::Sub, &a.eval_ground()?, &value)?;
                        op = op.flip();
                        cur = b.clone();
                    } else {
                        return Ok(None);
                    }
                }
                PTerm::Arith(ArithOp::Mul, a, b) => {
                    let (c, s) = if b.is_ground() {
                        (b.eval_ground()?, a.clone())
                    } else if a.is_ground() {
                        (a.eval_ground()?, b.clone())
                    } else {
                        return Ok(None);
                    };
                    let Some(cf) = c.as_f64() else {
                        return Ok(None);
                    };
                    if cf == 0.0 {
                        return Ok(None);
                    }
                    let Some(vf) = value.as_f64() else {
                        if matches!(value, Value::Null) {
                            return Ok(Some(self.rfalse()));
                        }
                        return Ok(None);
                    };
                    value = Value::float(vf / cf);
                    if cf < 0.0 {
                        op = op.flip();
                    }
                    cur = s;
                }
                PTerm::Arith(ArithOp::Div, a, b) => {
                    if !b.is_ground() {
                        return Ok(None);
                    }
                    let c = b.eval_ground()?;
                    let Some(cf) = c.as_f64() else {
                        return Ok(None);
                    };
                    if cf == 0.0 {
                        return Ok(None);
                    }
                    let Some(vf) = value.as_f64() else {
                        if matches!(value, Value::Null) {
                            return Ok(Some(self.rfalse()));
                        }
                        return Ok(None);
                    };
                    value = Value::float(vf * cf);
                    if cf < 0.0 {
                        op = op.flip();
                    }
                    cur = a.clone();
                }
                PTerm::Neg(a) => {
                    let Some(vf) = value.as_f64() else {
                        if matches!(value, Value::Null) {
                            return Ok(Some(self.rfalse()));
                        }
                        return Ok(None);
                    };
                    value = Value::float(-vf);
                    op = op.flip();
                    cur = a.clone();
                }
                _ => return Ok(None),
            }
        }
    }

    /// Negation: double negations cancel; constants flip. Negation is *not*
    /// pushed through comparisons (see the module docs on `Null`).
    pub fn rnot(&self, r: Arc<Residual>) -> Arc<Residual> {
        match &*r {
            Residual::True => self.rfalse(),
            Residual::False => self.rtrue(),
            Residual::Not(inner) => inner.clone(),
            _ => {
                let mut arena = locked(&self.arena);
                let inner = arena.intern_arc(&r, &mut HashMap::new());
                arena.intern(Residual::Not(inner))
            }
        }
    }

    /// Conjunction with flattening, deduplication and interval merging.
    pub fn rand(&self, children: impl IntoIterator<Item = Arc<Residual>>) -> Arc<Residual> {
        let mut intervals: BTreeMap<String, Interval> = BTreeMap::new();
        // Ordered set: deduplication must not degenerate to a linear scan
        // with deep equality (that makes a growing conjunction quadratic
        // per state).
        let mut rest: BTreeSet<Arc<Residual>> = BTreeSet::new();
        let mut stack: Vec<Arc<Residual>> = children.into_iter().collect();
        stack.reverse();
        let mut arena = locked(&self.arena);
        let mut adopted = HashMap::new();
        while let Some(c) = stack.pop() {
            match &*c {
                Residual::True => {}
                Residual::False => return self.rfalse(),
                Residual::And(inner) => {
                    for x in inner.iter().rev() {
                        stack.push(x.clone());
                    }
                }
                Residual::Constraint(con) => {
                    let iv = intervals.entry(con.var.clone()).or_default();
                    if !iv.add(con.op, &con.value) {
                        return self.rfalse();
                    }
                }
                _ => {
                    rest.insert(arena.intern_arc(&c, &mut adopted));
                }
            }
        }
        let mut out: Vec<Arc<Residual>> = Vec::new();
        for (var, iv) in &intervals {
            iv.emit(var, &mut arena, &mut out);
        }
        out.extend(rest);
        out.sort();
        out.dedup();
        if out.len() > 1 {
            return arena.intern(Residual::And(out));
        }
        out.pop().unwrap_or_else(|| self.rtrue())
    }

    /// Disjunction with flattening, deduplication and weakest-bound merging
    /// of single-variable constraints (this is what bounds the growth of
    /// `F_{Since}` on repetitive histories). Merging never produces `true`
    /// (that would be wrong for `Null` substitutions).
    pub fn ror(&self, children: impl IntoIterator<Item = Arc<Residual>>) -> Arc<Residual> {
        #[derive(Default)]
        struct Weakest {
            lower: Option<(Value, bool)>, // weakest: minimum bound
            upper: Option<(Value, bool)>,
            eqs: BTreeSet<Value>,
            nes: BTreeSet<Value>,
        }
        let mut per_var: BTreeMap<String, Weakest> = BTreeMap::new();
        // Ordered set for the same reason as in `rand`: a disjunction that
        // grows with the history (unpruned `Since`) must dedup in O(log n).
        let mut rest: BTreeSet<Arc<Residual>> = BTreeSet::new();
        let mut stack: Vec<Arc<Residual>> = children.into_iter().collect();
        stack.reverse();
        let mut arena = locked(&self.arena);
        let mut adopted = HashMap::new();
        while let Some(c) = stack.pop() {
            match &*c {
                Residual::False => {}
                Residual::True => return self.rtrue(),
                Residual::Or(inner) => {
                    for x in inner.iter().rev() {
                        stack.push(x.clone());
                    }
                }
                Residual::Constraint(con) => {
                    let w = per_var.entry(con.var.clone()).or_default();
                    match con.op {
                        CmpOp::Eq => {
                            w.eqs.insert(con.value.clone());
                        }
                        CmpOp::Ne => {
                            w.nes.insert(con.value.clone());
                        }
                        CmpOp::Ge | CmpOp::Gt => {
                            let strict = con.op == CmpOp::Gt;
                            let replace = match &w.lower {
                                Some((b, s)) => {
                                    con.value < *b || (con.value == *b && *s && !strict)
                                }
                                None => true,
                            };
                            if replace {
                                w.lower = Some((con.value.clone(), strict));
                            }
                        }
                        CmpOp::Le | CmpOp::Lt => {
                            let strict = con.op == CmpOp::Lt;
                            let replace = match &w.upper {
                                Some((b, s)) => {
                                    con.value > *b || (con.value == *b && *s && !strict)
                                }
                                None => true,
                            };
                            if replace {
                                w.upper = Some((con.value.clone(), strict));
                            }
                        }
                    }
                }
                _ => {
                    rest.insert(arena.intern_arc(&c, &mut adopted));
                }
            }
        }
        let mut out: Vec<Arc<Residual>> = Vec::new();
        for (var, w) in &per_var {
            if let Some((b, s)) = &w.lower {
                out.push(arena.constraint(var, if *s { CmpOp::Gt } else { CmpOp::Ge }, b));
            }
            if let Some((b, s)) = &w.upper {
                out.push(arena.constraint(var, if *s { CmpOp::Lt } else { CmpOp::Le }, b));
            }
            for v in &w.eqs {
                // Absorb equalities implied by a kept bound.
                let absorbed = w
                    .lower
                    .as_ref()
                    .is_some_and(|(b, s)| v > b || (v == b && !*s))
                    || w.upper
                        .as_ref()
                        .is_some_and(|(b, s)| v < b || (v == b && !*s));
                if !absorbed {
                    out.push(arena.constraint(var, CmpOp::Eq, v));
                }
            }
            for v in &w.nes {
                out.push(arena.constraint(var, CmpOp::Ne, v));
            }
        }
        out.extend(rest);
        out.sort();
        out.dedup();
        if out.len() > 1 {
            return arena.intern(Residual::Or(out));
        }
        out.pop().unwrap_or_else(|| self.rfalse())
    }

    /// Substitutes `var := value` and re-simplifies bottom-up.
    pub fn subst(&self, r: &Arc<Residual>, var: &str, value: &Value) -> Result<Arc<Residual>> {
        match &**r {
            Residual::True | Residual::False => Ok(r.clone()),
            Residual::Constraint(c) => {
                if c.var == var {
                    Ok(if c.op.eval(value, &c.value) {
                        self.rtrue()
                    } else {
                        self.rfalse()
                    })
                } else {
                    Ok(r.clone())
                }
            }
            Residual::Cmp(op, a, b) => self.rcmp(*op, a.subst(var, value)?, b.subst(var, value)?),
            Residual::Not(g) => Ok(self.rnot(self.subst(g, var, value)?)),
            Residual::And(gs) => {
                let gs: Vec<Arc<Residual>> = gs
                    .iter()
                    .map(|g| self.subst(g, var, value))
                    .collect::<Result<_>>()?;
                Ok(self.rand(gs))
            }
            Residual::Or(gs) => {
                let gs: Vec<Arc<Residual>> = gs
                    .iter()
                    .map(|g| self.subst(g, var, value))
                    .collect::<Result<_>>()?;
                Ok(self.ror(gs))
            }
        }
    }

    /// Substitutes an entire environment.
    pub fn subst_env(&self, r: &Arc<Residual>, env: &Env) -> Result<Arc<Residual>> {
        let mut cur = r.clone();
        for (var, value) in env {
            cur = self.subst(&cur, var, value)?;
        }
        Ok(cur)
    }

    /// The Section 5 optimization. `now` is the timestamp of the state just
    /// processed; every future substitution of a variable in `time_vars` is
    /// a strictly larger timestamp, so:
    ///
    /// * `t ≤ c`, `t < c`, `t = c` with `c ≤ now` → `false`
    /// * `t ≥ c`, `t > c`, `t ≠ c` with `c ≤ now` → `true`
    ///
    /// Clock substitutions are never `Null`, so here (and only here)
    /// negation may be pushed through a time constraint.
    pub fn prune_time(
        &self,
        r: &Arc<Residual>,
        now: Timestamp,
        time_vars: &BTreeSet<String>,
    ) -> Arc<Residual> {
        if time_vars.is_empty() {
            return r.clone();
        }
        self.prune_rec(r, now, time_vars)
    }

    fn prune_rec(&self, r: &Arc<Residual>, now: Timestamp, tv: &BTreeSet<String>) -> Arc<Residual> {
        fn prune_constraint(c: &Constraint, now: Timestamp) -> Option<bool> {
            let now = Value::Time(now);
            if c.value > now {
                return None;
            }
            match c.op {
                CmpOp::Le | CmpOp::Lt | CmpOp::Eq => Some(false),
                CmpOp::Ge | CmpOp::Gt | CmpOp::Ne => Some(true),
            }
        }
        let constant = |verdict: Option<bool>| match verdict {
            Some(true) => self.rtrue(),
            Some(false) => self.rfalse(),
            None => r.clone(),
        };
        match &**r {
            Residual::True | Residual::False | Residual::Cmp(..) => r.clone(),
            Residual::Constraint(c) => {
                if tv.contains(&c.var) {
                    constant(prune_constraint(c, now))
                } else {
                    r.clone()
                }
            }
            Residual::Not(g) => {
                // Push through time constraints only (clock values are
                // never Null).
                if let Residual::Constraint(c) = &**g {
                    if tv.contains(&c.var) {
                        let negated = Constraint {
                            var: c.var.clone(),
                            op: c.op.negate(),
                            value: c.value.clone(),
                        };
                        return constant(prune_constraint(&negated, now));
                    }
                }
                self.rnot(self.prune_rec(g, now, tv))
            }
            Residual::And(gs) => self.rand(gs.iter().map(|g| self.prune_rec(g, now, tv))),
            Residual::Or(gs) => self.ror(gs.iter().map(|g| self.prune_rec(g, now, tv))),
        }
    }
}

/// Number of nodes in the residual tree, counting shared nodes once.
pub fn residual_size(r: &Arc<Residual>) -> usize {
    fn go(r: &Arc<Residual>, seen: &mut BTreeSet<usize>) -> usize {
        let ptr = Arc::as_ptr(r) as usize;
        if !seen.insert(ptr) {
            return 0;
        }
        1 + match &**r {
            Residual::True | Residual::False | Residual::Constraint(_) | Residual::Cmp(..) => 0,
            Residual::Not(g) => go(g, seen),
            Residual::And(gs) | Residual::Or(gs) => gs.iter().map(|g| go(g, seen)).sum(),
        }
    }
    go(r, &mut BTreeSet::new())
}

impl EvalContext {
    /// Extracts every satisfying assignment of the residual's variables.
    ///
    /// Equality constraints (produced by generator atoms) drive the
    /// enumeration; a variable that never receives an equality constraint
    /// in some branch makes that branch unsolvable (unsafe at runtime). A
    /// `true` residual yields the single empty binding.
    pub fn solve(&self, r: &Arc<Residual>) -> Result<Vec<Env>> {
        let mut out: BTreeSet<Env> = BTreeSet::new();
        self.solve_rec(r.clone(), Env::new(), &mut out)?;
        Ok(out.into_iter().collect())
    }

    fn solve_rec(&self, r: Arc<Residual>, env: Env, out: &mut BTreeSet<Env>) -> Result<()> {
        match &*r {
            Residual::True => {
                out.insert(env);
                Ok(())
            }
            Residual::False => Ok(()),
            Residual::Constraint(c) if c.op == CmpOp::Eq => {
                let mut env2 = env;
                env2.insert(c.var.clone(), c.value.clone());
                out.insert(env2);
                Ok(())
            }
            Residual::Constraint(c) => Err(CoreError::UnsolvableResidual(c.var.clone())),
            Residual::Cmp(_, a, b) => {
                let mut vars = BTreeSet::new();
                a.collect_vars(&mut vars);
                b.collect_vars(&mut vars);
                Err(CoreError::UnsolvableResidual(
                    vars.into_iter().next().unwrap_or_default(),
                ))
            }
            Residual::Not(g) => {
                let mut vars = BTreeSet::new();
                collect_residual_vars(g, &mut vars);
                Err(CoreError::UnsolvableResidual(
                    vars.into_iter().next().unwrap_or_default(),
                ))
            }
            Residual::Or(gs) => {
                for g in gs {
                    self.solve_rec(g.clone(), env.clone(), out)?;
                }
                Ok(())
            }
            Residual::And(gs) => {
                // Bind through an equality constraint first.
                if let Some(c) = gs.iter().find_map(|g| match &**g {
                    Residual::Constraint(c) if c.op == CmpOp::Eq => Some(c.clone()),
                    _ => None,
                }) {
                    let rest = self.subst(&r, &c.var, &c.value)?;
                    let mut env2 = env;
                    env2.insert(c.var.clone(), c.value.clone());
                    return self.solve_rec(rest, env2, out);
                }
                // Otherwise distribute over an Or child.
                if let Some((k, or_child)) = gs.iter().enumerate().find_map(|(k, g)| match &**g {
                    Residual::Or(branches) => Some((k, branches.clone())),
                    _ => None,
                }) {
                    for branch in or_child {
                        let mut parts: Vec<Arc<Residual>> = Vec::with_capacity(gs.len());
                        for (j, g) in gs.iter().enumerate() {
                            if j == k {
                                parts.push(branch.clone());
                            } else {
                                parts.push(g.clone());
                            }
                        }
                        self.solve_rec(self.rand(parts), env.clone(), out)?;
                    }
                    return Ok(());
                }
                let mut vars = BTreeSet::new();
                collect_residual_vars(&r, &mut vars);
                Err(CoreError::UnsolvableResidual(
                    vars.into_iter().next().unwrap_or_default(),
                ))
            }
        }
    }
}

/// Collects every variable mentioned anywhere in the residual.
pub fn collect_residual_vars(r: &Arc<Residual>, out: &mut BTreeSet<String>) {
    match &**r {
        Residual::True | Residual::False => {}
        Residual::Constraint(c) => {
            out.insert(c.var.clone());
        }
        Residual::Cmp(_, a, b) => {
            a.collect_vars(out);
            b.collect_vars(out);
        }
        Residual::Not(g) => collect_residual_vars(g, out),
        Residual::And(gs) | Residual::Or(gs) => {
            for g in gs {
                collect_residual_vars(g, out);
            }
        }
    }
}

impl fmt::Display for Residual {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Residual::True => write!(f, "true"),
            Residual::False => write!(f, "false"),
            Residual::Constraint(c) => write!(f, "{c}"),
            Residual::Cmp(op, a, b) => write!(f, "{a} {} {b}", op.symbol()),
            Residual::Not(g) => write!(f, "not ({g})"),
            Residual::And(gs) => {
                write!(f, "(")?;
                for (i, g) in gs.iter().enumerate() {
                    if i > 0 {
                        write!(f, " and ")?;
                    }
                    write!(f, "{g}")?;
                }
                write!(f, ")")
            }
            Residual::Or(gs) => {
                write!(f, "(")?;
                for (i, g) in gs.iter().enumerate() {
                    if i > 0 {
                        write!(f, " or ")?;
                    }
                    write!(f, "{g}")?;
                }
                write!(f, ")")
            }
        }
    }
}

#[cfg(test)]
#[allow(clippy::disallowed_methods)] // tests may unwrap
mod tests {
    use super::*;

    fn ctx() -> EvalContext {
        EvalContext::new()
    }

    fn con(var: &str, op: CmpOp, v: i64) -> Arc<Residual> {
        Arc::new(Residual::Constraint(Constraint {
            var: var.into(),
            op,
            value: Value::Int(v),
        }))
    }

    #[test]
    fn ground_comparisons_fold() {
        let cx = ctx();
        let r = cx
            .rcmp(CmpOp::Lt, PTerm::val(3i64), PTerm::val(5i64))
            .unwrap();
        assert_eq!(*r, Residual::True);
        let r = cx
            .rcmp(CmpOp::Eq, PTerm::val("a"), PTerm::val("b"))
            .unwrap();
        assert_eq!(*r, Residual::False);
    }

    #[test]
    fn linearization_of_paper_shapes() {
        let cx = ctx();
        // price <= 0.5 * x  with price = 10  ⇒  x >= 20.
        let r = cx
            .rcmp(
                CmpOp::Le,
                PTerm::val(10i64),
                PTerm::arith(ArithOp::Mul, PTerm::val(0.5), PTerm::var("x")).unwrap(),
            )
            .unwrap();
        assert_eq!(
            *r,
            Residual::Constraint(Constraint {
                var: "x".into(),
                op: CmpOp::Ge,
                value: Value::float(20.0)
            })
        );
        // time <= t - 10 with time = 1  ⇒  t >= 11.
        let r = cx
            .rcmp(
                CmpOp::Le,
                PTerm::val(Value::Time(Timestamp(1))),
                PTerm::arith(ArithOp::Sub, PTerm::var("t"), PTerm::val(10i64)).unwrap(),
            )
            .unwrap();
        assert_eq!(
            *r,
            Residual::Constraint(Constraint {
                var: "t".into(),
                op: CmpOp::Ge,
                value: Value::Time(Timestamp(11))
            })
        );
    }

    #[test]
    fn negative_multiplier_flips() {
        let cx = ctx();
        // -2 * x < 6  ⇒  x > -3.
        let r = cx
            .rcmp(
                CmpOp::Lt,
                PTerm::arith(ArithOp::Mul, PTerm::val(-2i64), PTerm::var("x")).unwrap(),
                PTerm::val(6i64),
            )
            .unwrap();
        assert_eq!(
            *r,
            Residual::Constraint(Constraint {
                var: "x".into(),
                op: CmpOp::Gt,
                value: Value::float(-3.0)
            })
        );
    }

    #[test]
    fn and_merges_intervals() {
        let cx = ctx();
        let r = cx.rand([con("x", CmpOp::Ge, 20), con("x", CmpOp::Ge, 22)]);
        assert_eq!(*r, *con("x", CmpOp::Ge, 22));
        let r = cx.rand([con("x", CmpOp::Ge, 20), con("x", CmpOp::Le, 11)]);
        assert_eq!(*r, Residual::False);
        let r = cx.rand([con("x", CmpOp::Eq, 5), con("x", CmpOp::Ge, 1)]);
        assert_eq!(*r, *con("x", CmpOp::Eq, 5));
        let r = cx.rand([con("x", CmpOp::Eq, 5), con("x", CmpOp::Ne, 5)]);
        assert_eq!(*r, Residual::False);
    }

    #[test]
    fn or_keeps_weakest_bounds_and_dedups() {
        let cx = ctx();
        let r = cx.ror([con("x", CmpOp::Ge, 20), con("x", CmpOp::Ge, 22)]);
        assert_eq!(*r, *con("x", CmpOp::Ge, 20));
        // Repeating the same disjunct does not grow the residual.
        let a = cx.rand([con("x", CmpOp::Ge, 20), con("t", CmpOp::Le, 11)]);
        let r1 = cx.ror([a.clone(), a.clone()]);
        let r2 = cx.ror([a.clone()]);
        assert_eq!(r1, r2);
        // Eq absorbed by a weaker bound.
        let r = cx.ror([con("x", CmpOp::Ge, 5), con("x", CmpOp::Eq, 9)]);
        assert_eq!(*r, *con("x", CmpOp::Ge, 5));
    }

    #[test]
    fn or_never_collapses_to_true() {
        let cx = ctx();
        // x <= 3 or x >= 1 covers every non-null x but must stay symbolic.
        let r = cx.ror([con("x", CmpOp::Le, 3), con("x", CmpOp::Ge, 1)]);
        assert!(!matches!(*r, Residual::True));
    }

    #[test]
    fn substitution_grounds_and_folds() {
        let cx = ctx();
        let body = cx.rand([con("x", CmpOp::Ge, 20), con("t", CmpOp::Ge, 11)]);
        let r = cx.subst(&body, "x", &Value::Int(25)).unwrap();
        assert_eq!(*r, *con("t", CmpOp::Ge, 11));
        let r = cx.subst(&r, "t", &Value::Int(8)).unwrap();
        assert_eq!(*r, Residual::False);
    }

    #[test]
    fn null_substitution_respects_sql_semantics() {
        let cx = ctx();
        // not (x <= 5) with x = Null must be TRUE (x <= 5 is false).
        let r = cx.rnot(con("x", CmpOp::Le, 5));
        let s = cx.subst(&r, "x", &Value::Null).unwrap();
        assert_eq!(*s, Residual::True);
        // x <= 5 with Null must be FALSE.
        let s = cx
            .subst(&con("x", CmpOp::Le, 5), "x", &Value::Null)
            .unwrap();
        assert_eq!(*s, Residual::False);
    }

    #[test]
    fn prune_time_matches_paper_example() {
        let cx = ctx();
        // F_{h,1} = (x >= 20 and t <= 11): at now = 20 the t-clause can
        // never be satisfied by a future (larger) time ⇒ false.
        let tv: BTreeSet<String> = ["t".to_string()].into();
        let f_h1 = cx.rand([con("x", CmpOp::Ge, 20), con("t", CmpOp::Le, 11)]);
        let pruned = cx.prune_time(&f_h1, Timestamp(20), &tv);
        assert_eq!(*pruned, Residual::False);
        // t >= 11 at now = 20 is satisfied by every future time ⇒ true.
        let pruned = cx.prune_time(&con("t", CmpOp::Ge, 11), Timestamp(20), &tv);
        assert_eq!(*pruned, Residual::True);
        // t <= 30 at now = 20 must be kept.
        let keep = cx.rand([con("x", CmpOp::Ge, 22), con("t", CmpOp::Le, 30)]);
        let pruned = cx.prune_time(&keep, Timestamp(20), &tv);
        assert_eq!(pruned, keep);
        // Non-time variables are untouched.
        let pruned = cx.prune_time(&con("x", CmpOp::Le, 11), Timestamp(20), &tv);
        assert_eq!(*pruned, *con("x", CmpOp::Le, 11));
    }

    #[test]
    fn prune_pushes_not_through_time_constraints() {
        let cx = ctx();
        let tv: BTreeSet<String> = ["t".to_string()].into();
        // not (t >= 5): future t always >= 5 when now >= 5 ⇒ whole thing false.
        let r = cx.rnot(con("t", CmpOp::Ge, 5));
        assert_eq!(*cx.prune_time(&r, Timestamp(20), &tv), Residual::False);
    }

    #[test]
    fn solve_extracts_bindings() {
        let cx = ctx();
        // (x = "IBM" and t >= 1 missing) — solvable: x = IBM only branch.
        let r = cx.ror([
            cx.rand([con("x", CmpOp::Eq, 3), con("y", CmpOp::Eq, 4)]),
            con("x", CmpOp::Eq, 7),
        ]);
        let sols = cx.solve(&r).unwrap();
        assert_eq!(sols.len(), 2);
        assert_eq!(sols[0]["x"], Value::Int(3));
        assert_eq!(sols[0]["y"], Value::Int(4));
        assert_eq!(sols[1]["x"], Value::Int(7));
    }

    #[test]
    fn solve_checks_residual_constraints_on_bound_vars() {
        let cx = ctx();
        // x = 3 and x >= 5 → contradiction folded by rand already.
        let r = cx.rand([con("x", CmpOp::Eq, 3), con("x", CmpOp::Ge, 5)]);
        assert_eq!(*r, Residual::False);
        // x = 3 and (x*2 opaque vs y = ...) — binding propagates.
        let opaque = Arc::new(Residual::Cmp(
            CmpOp::Gt,
            PTerm::arith(ArithOp::Mul, PTerm::var("x"), PTerm::val(2i64)).unwrap(),
            PTerm::val(5i64),
        ));
        let r = cx.rand([con("x", CmpOp::Eq, 3), opaque]);
        let sols = cx.solve(&r).unwrap();
        assert_eq!(sols.len(), 1);
        assert_eq!(sols[0]["x"], Value::Int(3));
    }

    #[test]
    fn solve_true_and_false() {
        let cx = ctx();
        assert_eq!(cx.solve(&cx.rtrue()).unwrap(), vec![Env::new()]);
        assert!(cx.solve(&cx.rfalse()).unwrap().is_empty());
    }

    #[test]
    fn solve_unsafe_residual_errors() {
        let cx = ctx();
        let r = con("x", CmpOp::Ge, 1);
        assert!(matches!(
            cx.solve(&r),
            Err(CoreError::UnsolvableResidual(_))
        ));
    }

    #[test]
    fn solve_distributes_over_or_inside_and() {
        let cx = ctx();
        let gen = cx.ror([con("x", CmpOp::Eq, 1), con("x", CmpOp::Eq, 2)]);
        // Opaque filter keeps rand from folding: x*1 >= 2.
        let filt = Arc::new(Residual::Cmp(
            CmpOp::Ge,
            PTerm::arith(ArithOp::Mul, PTerm::var("x"), PTerm::val(1i64)).unwrap(),
            PTerm::val(2i64),
        ));
        let r = cx.rand([gen, filt]);
        let sols = cx.solve(&r).unwrap();
        assert_eq!(sols.len(), 1);
        assert_eq!(sols[0]["x"], Value::Int(2));
    }

    #[test]
    fn residual_size_counts_shared_once() {
        let shared = con("x", CmpOp::Ge, 1);
        let r = Arc::new(Residual::Or(vec![shared.clone(), shared.clone()]));
        // Or node + one shared constraint.
        assert_eq!(residual_size(&r), 2);
    }

    #[test]
    fn pterm_subst_evaluates_query_snapshots() {
        use tdb_relation::{parse_query, QueryDef};
        let mut db = Database::new();
        db.set_item("reg", Value::Int(42));
        db.define_query("reg_q", QueryDef::new(0, parse_query("item reg").unwrap()));
        let snap = Snapshot {
            id: 1,
            db: Arc::new(db),
        };
        // A query term with a symbolic arg count of zero is ground and would
        // have been folded at parteval; simulate a symbolic arg instead.
        let qt = Arc::new(PTerm::QuerySnap {
            name: "reg_q".into(),
            args: vec![],
            snap,
        });
        assert_eq!(qt.eval_ground().unwrap(), Value::Int(42));
    }
}
