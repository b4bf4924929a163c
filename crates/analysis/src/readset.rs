//! What a rule reads, as one typed set.
//!
//! Section 8's relevance filtering, Theorem 1's per-atom recurrences, the
//! triggering and cascade graphs and the batch fences all rest on one fact:
//! what a condition reads. [`ReadSet::of`] derives it from a formula in one
//! walk — the queries and events it names, whether it reads the clock,
//! whether it observes state order, and whether it applies a query to a
//! non-ground argument — and [`ReadSet::resolve`] adds, through a catalog,
//! the items and relations behind each query. Every consumer reads that one
//! set (the shape of a query's typed dependency list).

use std::fmt;

use tdb_engine::TIME_ITEM;
use tdb_ptl::{Formula, Term};
use tdb_relation::{Database, Delta};

/// Something a rule reads or writes. Apart from the clock, resources sort
/// the way their printed names do.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Resource {
    Event(String),
    /// A scalar item of the catalog.
    Item(String),
    /// The clock: the `time` term, or the `time` item, which every state
    /// rewrites. [`ReadSet::of`] and [`ReadSet::resolve`] read
    /// [`Resource::Order`] beside it: an inserted state moves the
    /// timestamps after it.
    Clock,
    /// The position of states in the history. Every data-writing action
    /// writes it (its firing inserts a state); every order-sensitive
    /// condition reads it (see [`crate::batchsafety`]).
    Order,
    /// A named query, as a condition mentions it.
    Query(String),
    /// A base relation of the catalog.
    Relation(String),
}

impl fmt::Display for Resource {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Resource::Event(e) => write!(f, "event:{e}"),
            Resource::Item(x) => write!(f, "item:{x}"),
            Resource::Clock => write!(f, "item:{TIME_ITEM}"),
            Resource::Order => write!(f, "order:states"),
            Resource::Query(q) => write!(f, "query:{q}"),
            Resource::Relation(r) => write!(f, "relation:{r}"),
        }
    }
}

/// What a formula, a term, an atom or a whole rule reads: a sorted set of
/// [`Resource`]s, plus whether some query is applied to a non-ground
/// argument (partially evaluating such an atom leaves a residual that names
/// the state).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ReadSet {
    /// Sorted, without duplicates.
    resources: Vec<Resource>,
    snapshot: bool,
}

impl ReadSet {
    /// What `f` reads: its queries (through membership atoms, query terms
    /// and aggregates), its events, the clock, and state order — which
    /// event atoms (false at inserted states), `lasttime` (the immediate
    /// predecessor), temporal aggregates (they sample inserted states) and
    /// clock reads observe.
    pub fn of(f: &Formula) -> ReadSet {
        let mut set = ReadSet::default();
        set.formula(f);
        set.normalized()
    }

    /// What evaluating `t` reads. Empty exactly when `t` is built from
    /// constants and variables alone.
    pub fn of_term(t: &Term) -> ReadSet {
        let mut set = ReadSet::default();
        set.term(t);
        set.normalized()
    }

    /// This set with the catalog names behind each query added: items and
    /// relations as `db` defines them, and the `time` item — which every
    /// state rewrites — as the clock. Fails on an undefined query.
    pub fn resolve(&self, db: &Database) -> tdb_relation::Result<ReadSet> {
        let mut set = self.clone();
        for r in &self.resources {
            let Resource::Query(q) = r else { continue };
            for name in db.query_def(q)?.body.dependencies() {
                if name == TIME_ITEM {
                    set.resources.extend([Resource::Clock, Resource::Order]);
                } else if db.has_item(&name) {
                    set.resources.push(Resource::Item(name));
                } else {
                    set.resources.push(Resource::Relation(name));
                }
            }
        }
        Ok(set.normalized())
    }

    pub fn iter(&self) -> std::slice::Iter<'_, Resource> {
        self.resources.iter()
    }

    pub fn is_empty(&self) -> bool {
        self.resources.is_empty()
    }

    pub fn contains(&self, r: &Resource) -> bool {
        self.resources.binary_search(r).is_ok()
    }

    /// Adds everything `other` reads.
    pub fn union(&mut self, other: &ReadSet) {
        self.resources.extend(other.resources.iter().cloned());
        self.snapshot |= other.snapshot;
        *self = std::mem::take(self).normalized();
    }

    pub fn reads_event(&self, name: &str) -> bool {
        self.iter()
            .any(|r| matches!(r, Resource::Event(e) if e == name))
    }

    /// Whether the catalog name `name` — an item or a relation — is read.
    pub fn reads_data(&self, name: &str) -> bool {
        (self.iter()).any(|r| matches!(r, Resource::Item(d) | Resource::Relation(d) if d == name))
    }

    /// Some query is applied to a non-ground argument.
    pub fn snapshot(&self) -> bool {
        self.snapshot
    }

    /// Whether a state with this delta can change what is read: it moves the
    /// clock (every state does), raises a read event, or writes a read item
    /// or relation. Allocation-free, O(|reads|): the advance kernel asks it
    /// per atom.
    pub fn touched_by(&self, delta: &Delta) -> bool {
        self.touches(delta, true)
    }

    /// [`ReadSet::touched_by`] with the clock left out: whether the delta
    /// raises a read event or writes a read item or relation.
    pub fn touched_by_data(&self, delta: &Delta) -> bool {
        self.touches(delta, false)
    }

    fn touches(&self, delta: &Delta, clock: bool) -> bool {
        self.resources.iter().any(|r| match r {
            Resource::Clock => clock,
            Resource::Event(e) => delta.raises(e),
            Resource::Item(n) | Resource::Relation(n) => delta.touches(n),
            Resource::Query(_) | Resource::Order => false,
        })
    }

    fn normalized(mut self) -> ReadSet {
        self.resources.sort();
        self.resources.dedup();
        self
    }

    fn formula(&mut self, f: &Formula) {
        match f {
            Formula::True | Formula::False => {}
            Formula::Cmp(_, a, b) => {
                self.term(a);
                self.term(b);
            }
            Formula::Member { source, pattern } => {
                self.resources.push(Resource::Query(source.name.clone()));
                // Generator arguments are statically ground: no snapshot.
                let snapshot = self.snapshot;
                source.args.iter().for_each(|t| self.term(t));
                self.snapshot = snapshot;
                pattern.iter().for_each(|t| self.term(t));
            }
            Formula::Event { name, pattern } => {
                self.resources.push(Resource::Event(name.clone()));
                self.resources.push(Resource::Order);
                pattern.iter().for_each(|t| self.term(t));
            }
            Formula::Lasttime(g) => {
                self.resources.push(Resource::Order);
                self.formula(g);
            }
            Formula::Not(g) | Formula::Previously(g) | Formula::ThroughoutPast(g) => {
                self.formula(g)
            }
            Formula::And(gs) | Formula::Or(gs) => gs.iter().for_each(|g| self.formula(g)),
            Formula::Since(g, h) => {
                self.formula(g);
                self.formula(h);
            }
            Formula::Assign { term, body, .. } => {
                self.term(term);
                self.formula(body);
            }
        }
    }

    fn term(&mut self, t: &Term) {
        match t {
            Term::Time => self.resources.extend([Resource::Clock, Resource::Order]),
            Term::Query { name, args } => {
                self.resources.push(Resource::Query(name.clone()));
                self.snapshot |= args.iter().any(|a| !a.is_ground());
                args.iter().for_each(|a| self.term(a));
            }
            Term::Agg(agg) => {
                self.resources.push(Resource::Order);
                self.term(&agg.query);
                self.formula(&agg.start);
                self.formula(&agg.sample);
            }
            Term::Arith(_, a, b) => {
                self.term(a);
                self.term(b);
            }
            Term::Neg(a) | Term::Abs(a) => self.term(a),
            Term::Const(_) | Term::Var(_) => {}
        }
    }
}

impl FromIterator<Resource> for ReadSet {
    fn from_iter<I: IntoIterator<Item = Resource>>(iter: I) -> ReadSet {
        let resources = iter.into_iter().collect();
        ReadSet {
            resources,
            snapshot: false,
        }
        .normalized()
    }
}

#[cfg(test)]
#[allow(clippy::disallowed_methods)] // tests may unwrap
mod tests {
    use super::*;
    use tdb_ptl::{parse_formula, parse_term};
    use tdb_relation::{parse_query, QueryDef, Relation, Schema, Value};

    fn of(src: &str) -> ReadSet {
        ReadSet::of(&parse_formula(src).unwrap())
    }

    /// Lint output lists resources in set order; apart from the clock, which
    /// no action writes, that is the order of their printed names.
    #[test]
    fn resources_print_and_sort_as_their_names() {
        let all = [
            Resource::Relation("STOCK".into()),
            Resource::Query("price".into()),
            Resource::Item("zeta".into()),
            Resource::Order,
            Resource::Item("alpha".into()),
            Resource::Event("tick".into()),
        ];
        let set: ReadSet = all.iter().cloned().collect();
        let printed: Vec<String> = set.iter().map(ToString::to_string).collect();
        assert_eq!(
            printed,
            [
                "event:tick",
                "item:alpha",
                "item:zeta",
                "order:states",
                "query:price",
                "relation:STOCK"
            ]
        );
        assert_eq!(Resource::Clock.to_string(), "item:time");
    }

    #[test]
    fn one_walk_finds_order_and_snapshots() {
        assert!(!of("a() > 0").contains(&Resource::Order));
        for src in [
            "@e",
            "lasttime a() > 0",
            "time > 3",
            "count(1; true; true) > 2",
        ] {
            assert!(of(src).contains(&Resource::Order), "{src}");
        }
        assert!(of("x in names() and price(x) > 1").snapshot());
        assert!(!of("x in prices(\"IBM\") and x > 1").snapshot());
        let term = |src: &str| ReadSet::of_term(&parse_term(src).unwrap());
        assert!(term("x + 1").is_empty());
        assert!(!term("a() + 1").is_empty() && !term("time").is_empty());
    }

    #[test]
    fn resolution_sorts_items_relations_and_the_clock() {
        let mut db = Database::new();
        db.set_item("A", Value::Int(1));
        db.create_relation("R", Relation::empty(Schema::untyped(&["v"])))
            .unwrap();
        db.define_query("a", QueryDef::new(0, parse_query("item A").unwrap()));
        db.define_query(
            "r",
            QueryDef::new(0, parse_query("select v from R").unwrap()),
        );
        db.define_query("now", QueryDef::new(0, parse_query("item time").unwrap()));
        let reads = of("a() > r() and @e").resolve(&db).unwrap();
        assert!(reads.reads_data("A") && reads.reads_data("R"));
        assert!(reads.contains(&Resource::Item("A".into())));
        assert!(reads.contains(&Resource::Relation("R".into())));
        assert!(reads.contains(&Resource::Query("a".into())) && reads.reads_event("e"));
        assert!(!reads.contains(&Resource::Clock));

        // The `time` item through a query is the clock, as the term is.
        let through = of("now() > 3").resolve(&db).unwrap();
        let term = of("time > 3").resolve(&db).unwrap();
        let catalog_reads = |s: &ReadSet| -> Vec<Resource> {
            s.iter()
                .filter(|r| !matches!(r, Resource::Query(_)))
                .cloned()
                .collect()
        };
        assert_eq!(catalog_reads(&through), [Resource::Clock, Resource::Order]);
        assert_eq!(catalog_reads(&through), catalog_reads(&term));
        assert!(of("nope() > 1").resolve(&db).is_err());
    }
}
