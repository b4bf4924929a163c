//! Seeded generators for the four workloads: schema seed ops, rule
//! catalogs (rule-file text, as it crosses the wire) and the endless
//! request stream of one tenant.
//!
//! Everything is a pure function of `(workload, seed, tenant index)`: the
//! server only ever sees what these generators emit, so two runs with the
//! same seed send byte-identical frames (pinned by the tests below). The
//! step generator keeps its state in fixed arrays plus a Δ-bounded heap
//! and fills a reused [`Request`] in place; the only per-request
//! allocations are the `Arc`-backed row tuples of the relation workload,
//! which the public types do not let us reuse.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use tdb_core::LogicalOp;
use tdb_engine::WriteOp;
use tdb_relation::{parse_query, QueryDef, Relation, Schema, Timestamp, Tuple, Value};
use tdb_server::Request;

/// Tenants (= connections = driver threads) per run: the host has 2 cores.
pub const TENANTS: usize = 2;

/// Most value slots (items or relations) any workload uses.
const MAX_SLOTS: usize = 64;

/// Which request the workload sends.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    /// `Commit { AdvanceClock{1}, Update{SetItem} }` — one state per frame.
    Commit,
    /// `CommitBatch` of `batch` states, each `AdvanceClock{1}` + a
    /// delete/insert row replacement.
    Batch,
    /// `CommitAt` on a valid-time tenant.
    CommitAt,
}

/// One workload's fixed shape. `why` is the sentence `BENCHMARK.json`
/// carries for it.
#[derive(Debug)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub shape: Shape,
    pub durable: bool,
    /// Requests kept in flight per connection.
    pub depth: usize,
    /// Items (`w<j>`) or single-row relations (`W<j>`) the stream writes.
    pub slots: usize,
    /// Trigger rules in the catalog (the durable item workload adds one
    /// never-violated constraint on top).
    pub rules: usize,
    /// Database states per request.
    pub batch: usize,
    /// Disorder bound Δ (valid-time workload only).
    pub max_delay: i64,
    /// Mean advance of a slot's triangle wave per update of that slot: its
    /// value sweeps 0 → 100 → 0 once every `200 / step` updates, crossing
    /// each rule threshold upwards exactly once per sweep. Small steps keep
    /// firings the rare events triggers are meant for.
    pub step: i64,
    /// `peak_rss_mb` is read when each tenant has acked this many states —
    /// a fixed age, roughly half of what a run reaches — so a faster
    /// server is not charged for the older tenants it ends the run with.
    pub rss_at_states: usize,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "commit_durable",
        why: "durable single-state Commit at depth 4, 64 edge rules over 16 items + 1 constraint: \
              WAL append+fsync and the poll/queue/coalescer hop dominate, rule evaluation is small",
        shape: Shape::Commit,
        durable: true,
        depth: 4,
        slots: 16,
        rules: 64,
        batch: 1,
        max_delay: 0,
        step: 2,
        rss_at_states: 12_800,
    },
    Workload {
        name: "eval_fanout",
        why: "volatile Commit at depth 1, 256 mixed temporal rules over 4 items (64 affected per \
              commit): incremental rule evaluation dominates, storage is bypassed entirely",
        shape: Shape::Commit,
        durable: false,
        depth: 1,
        slots: 4,
        rules: 256,
        batch: 1,
        max_delay: 0,
        step: 1,
        rss_at_states: 6_400,
    },
    Workload {
        name: "batch_durable",
        why:
            "durable CommitBatch of 64 relation-delta states at depth 1, 256 rules over 32 \
              relations: one record+fsync per 64 states, large CRC-bound frames, bulk-skip dispatch",
        shape: Shape::Batch,
        durable: true,
        depth: 1,
        slots: 32,
        rules: 256,
        batch: 64,
        max_delay: 0,
        step: 1,
        rss_at_states: 25_600,
    },
    Workload {
        name: "vt_stream",
        why:
            "volatile valid-time CommitAt at depth 4, delta 32, 20% of events late: the section-9 \
              watermark path, bypassing the WAL, the batch path and the plain facade",
        shape: Shape::CommitAt,
        durable: false,
        depth: 4,
        slots: 1,
        rules: 8,
        batch: 1,
        max_delay: 32,
        step: 2,
        rss_at_states: 25_600,
    },
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// splitmix64 (Steele, Lea, Flood): tiny, seedable, no dependency.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n` is small; modulo bias is irrelevant here).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

// ---- schema and rules -------------------------------------------------------

fn slot_name(w: &Workload, j: usize) -> String {
    match w.shape {
        Shape::Commit => format!("w{j}"),
        Shape::Batch => format!("W{j}"),
        Shape::CommitAt => "n".to_string(),
    }
}

fn query_name(w: &Workload, j: usize) -> String {
    match w.shape {
        Shape::Commit => format!("q{j}"),
        Shape::Batch => format!("r{j}_q"),
        Shape::CommitAt => "n".to_string(),
    }
}

/// Value every slot is seeded with.
const START: i64 = 50;

/// Slot values sweep `0..=RANGE`.
const RANGE: i64 = 100;

/// The ops that create the workload's schema; sent as one plain `Commit`
/// before the rules are registered (registration lints against the live
/// catalog).
pub fn seed_ops(w: &Workload) -> Vec<LogicalOp> {
    let mut ops = Vec::with_capacity(2 * w.slots);
    for j in 0..w.slots {
        let (slot, query) = (slot_name(w, j), query_name(w, j));
        match w.shape {
            Shape::Commit | Shape::CommitAt => {
                ops.push(LogicalOp::SetItem {
                    name: slot.clone(),
                    value: Value::Int(START),
                });
                ops.push(LogicalOp::DefineQuery {
                    name: query,
                    def: QueryDef::new(0, tdb_relation::Query::item(slot)),
                });
            }
            Shape::Batch => {
                let rows = vec![Tuple::new(vec![Value::Int(START)])];
                ops.push(LogicalOp::CreateRelation {
                    name: slot.clone(),
                    relation: Relation::from_rows(Schema::untyped(&["v"]), rows)
                        .expect("one row fits the one-column schema"),
                });
                ops.push(LogicalOp::DefineQuery {
                    name: query,
                    def: QueryDef::new(
                        0,
                        parse_query(&format!("select v from {slot}")).expect("static query"),
                    ),
                });
            }
        }
    }
    ops
}

/// The workload's rule catalog as rule-file text.
pub fn rule_source(w: &Workload) -> String {
    use std::fmt::Write as _;
    let mut src = String::new();
    let per_slot = w.rules / w.slots;
    for j in 0..w.slots {
        let q = query_name(w, j);
        for k in 0..per_slot {
            let cond = match w.name {
                // Mixed temporal operators, 16 threshold levels per form.
                "eval_fanout" => {
                    let th = 5 + (k as i64 / 4) * 6;
                    if k + 1 == per_slot {
                        format!("avg({q}(); time = 0; {q}() >= 0) > {th}")
                    } else {
                        match k % 4 {
                            0 => format!("{q}() > {th} and previously({q}() <= {th})"),
                            1 => format!("({q}() > {th}) since ({q}() > {})", th + 4),
                            2 => format!("{q}() > {th} and lasttime({q}() <= {th})"),
                            _ => format!("[t := time] previously({q}() >= {th} and time >= t - 8)"),
                        }
                    }
                }
                // Rising edges only: a level rule fires at every state it
                // holds in, which would turn the run into a push benchmark.
                "vt_stream" => {
                    let th = 15 + k as i64 * 10;
                    format!("{q}() >= {th} and lasttime({q}() < {th})")
                }
                // Rising-edge thresholds spread over the value range.
                _ => {
                    let th = (k as i64 + 1) * 100 / (per_slot as i64 + 1);
                    format!("{q}() > {th} and previously({q}() <= {th})")
                }
            };
            let _ = writeln!(src, "rule r{j}_{k} {{ when {cond}; then notify; }}");
        }
    }
    if w.name == "commit_durable" {
        // Never violated; its presence makes every update take the gate path.
        let _ = writeln!(src, "rule cap {{ when q0() <= 1000000; then abort; }}");
    }
    src
}

// ---- the request stream -----------------------------------------------------

/// One generated database state, before it is dressed as a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Step {
    pub slot: usize,
    /// The slot's value before this step (the row a relation delta deletes).
    pub old: i64,
    pub value: i64,
    /// Valid-time workload: the instant the event is about, and when it
    /// reaches the server (`arrival - valid <= Δ`). Equal elsewhere.
    pub valid: i64,
    pub arrival: i64,
}

/// The endless step sequence of one tenant.
#[derive(Debug)]
pub struct Steps {
    w: &'static Workload,
    values: Rng,
    /// Lateness draws come from their own stream, so the value history does
    /// not depend on the disorder settings.
    lateness: Rng,
    /// Position of each slot on its triangle wave, in `0..2 * RANGE`.
    phase: [i64; MAX_SLOTS],
    vals: [i64; MAX_SLOTS],
    /// Next valid instant to generate.
    next_valid: i64,
    /// Generated valid-time events not yet emitted, ordered by
    /// `(arrival, valid)`; holds at most Δ + 1 entries.
    pending: BinaryHeap<Reverse<(i64, i64, i64)>>,
}

impl Steps {
    pub fn new(w: &'static Workload, seed: u64, tenant: usize) -> Steps {
        let s = seed ^ (tenant as u64 + 1).wrapping_mul(0xD1B5_4A32_D192_ED03);
        let mut values = Rng::new(s);
        let mut phase = [0; MAX_SLOTS];
        for p in phase.iter_mut().take(w.slots) {
            *p = values.below(2 * RANGE as u64) as i64;
        }
        Steps {
            w,
            values,
            lateness: Rng::new(s ^ 0x9E37_79B9_7F4A_7C15),
            phase,
            vals: [START; MAX_SLOTS],
            next_valid: 1,
            pending: BinaryHeap::with_capacity(w.max_delay as usize + 2),
        }
    }

    fn draw(&mut self) -> Step {
        let slot = self.values.below(self.w.slots as u64) as usize;
        let old = self.vals[slot];
        // The seed picks the slot and jitters the advance (0..=2·step, never
        // backwards), so every seed does the same amount of rule work per
        // sweep and only the interleaving differs.
        let advance = self.values.below(2 * self.w.step as u64 + 1) as i64;
        let p = (self.phase[slot] + advance) % (2 * RANGE);
        self.phase[slot] = p;
        let value = if p < RANGE { p } else { 2 * RANGE - p };
        self.vals[slot] = value;
        let valid = self.next_valid;
        self.next_valid += 1;
        Step {
            slot,
            old,
            value,
            valid,
            arrival: valid,
        }
    }

    pub fn next_step(&mut self) -> Step {
        if self.w.shape != Shape::CommitAt {
            return self.draw();
        }
        // Emit in arrival order: an event still to be drawn arrives no
        // earlier than its own valid instant, so everything pending with
        // `arrival <= next_valid` is safe to release.
        loop {
            if let Some(&Reverse((arrival, valid, value))) = self.pending.peek() {
                if arrival <= self.next_valid {
                    self.pending.pop();
                    return Step {
                        slot: 0,
                        old: 0,
                        value,
                        valid,
                        arrival,
                    };
                }
            }
            let s = self.draw();
            let late = self.lateness.below(1000) < 200;
            let delay = if late {
                1 + self.lateness.below(self.w.max_delay as u64) as i64
            } else {
                0
            };
            self.pending
                .push(Reverse((s.valid + delay, s.valid, s.value)));
        }
    }
}

/// One tenant's request stream: [`Steps`] dressed as wire requests, built
/// in place in a reused [`Request`].
#[derive(Debug)]
pub struct Requests {
    steps: Steps,
    names: Vec<String>,
    req: Request,
}

impl Requests {
    pub fn new(w: &'static Workload, seed: u64, tenant: usize, tenant_name: &str) -> Requests {
        let set = || WriteOp::SetItem {
            item: String::new(),
            value: Value::Null,
        };
        let tenant_name = tenant_name.to_string();
        let req = match w.shape {
            Shape::Commit => Request::Commit {
                tenant: tenant_name,
                ops: vec![
                    LogicalOp::AdvanceClock { delta: 1 },
                    LogicalOp::Update { ops: vec![set()] },
                ],
            },
            Shape::Batch => Request::CommitBatch {
                tenant: tenant_name,
                ops: Vec::with_capacity(2 * w.batch),
            },
            Shape::CommitAt => Request::CommitAt {
                tenant: tenant_name,
                arrival: Timestamp(0),
                valid: Timestamp(0),
                ops: vec![set()],
            },
        };
        Requests {
            steps: Steps::new(w, seed, tenant),
            names: (0..w.slots).map(|j| slot_name(w, j)).collect(),
            req,
        }
    }

    /// Overwrites the reused request with the next one in the stream.
    pub fn next_request(&mut self) -> &Request {
        let (steps, names) = (&mut self.steps, &self.names);
        match &mut self.req {
            Request::Commit { ops, .. } => {
                let s = steps.next_step();
                if let Some(LogicalOp::Update { ops }) = ops.last_mut() {
                    fill_set(&mut ops[0], &names[s.slot], s.value);
                }
            }
            Request::CommitBatch { ops, .. } => {
                ops.clear();
                for _ in 0..steps.w.batch {
                    let s = steps.next_step();
                    let row = |v: i64| Tuple::new(vec![Value::Int(v)]);
                    ops.push(LogicalOp::AdvanceClock { delta: 1 });
                    ops.push(LogicalOp::Update {
                        ops: vec![
                            WriteOp::Delete {
                                relation: names[s.slot].clone(),
                                tuple: row(s.old),
                            },
                            WriteOp::Insert {
                                relation: names[s.slot].clone(),
                                tuple: row(s.value),
                            },
                        ],
                    });
                }
            }
            Request::CommitAt {
                arrival,
                valid,
                ops,
                ..
            } => {
                let s = steps.next_step();
                *arrival = Timestamp(s.arrival);
                *valid = Timestamp(s.valid);
                fill_set(&mut ops[0], &names[0], s.value);
            }
            _ => unreachable!("Requests::new builds one of the three commit shapes"),
        }
        &self.req
    }
}

fn fill_set(op: &mut WriteOp, name: &str, v: i64) {
    if let WriteOp::SetItem { item, value } = op {
        item.clear();
        item.push_str(name);
        *value = Value::Int(v);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tdb_server::wire::encode_request;

    fn frames(w: &'static Workload, seed: u64, n: usize) -> Vec<u8> {
        let mut out = Vec::new();
        for tenant in 0..TENANTS {
            let mut reqs = Requests::new(w, seed, tenant, "t");
            for id in 0..n {
                out.extend(encode_request(id as u64, reqs.next_request()));
            }
        }
        out
    }

    #[test]
    fn same_seed_same_frames_other_seed_other_frames() {
        for w in &WORKLOADS {
            let a = frames(w, 7, 200);
            assert_eq!(a, frames(w, 7, 200), "{}: seed 7 twice", w.name);
            assert_ne!(a, frames(w, 8, 200), "{}: seed 7 vs 8", w.name);
        }
    }

    #[test]
    fn tenants_get_different_streams() {
        let w = workload("commit_durable").unwrap();
        let a: Vec<Step> = {
            let mut s = Steps::new(w, 1, 0);
            (0..50).map(|_| s.next_step()).collect()
        };
        let mut s = Steps::new(w, 1, 1);
        let b: Vec<Step> = (0..50).map(|_| s.next_step()).collect();
        assert_ne!(a, b);
    }

    #[test]
    fn vt_stream_is_arrival_ordered_delta_bounded_and_complete() {
        let w = workload("vt_stream").unwrap();
        let mut s = Steps::new(w, 3, 0);
        let steps: Vec<Step> = (0..5000).map(|_| s.next_step()).collect();
        let mut valids: Vec<i64> = steps.iter().map(|s| s.valid).collect();
        let mut last = i64::MIN;
        let mut late = 0;
        for s in &steps {
            assert!(s.arrival >= last, "arrival order");
            last = s.arrival;
            let delay = s.arrival - s.valid;
            assert!((0..=w.max_delay).contains(&delay));
            late += usize::from(delay > 0);
        }
        // About a fifth of the events are late, and none is lost: every
        // valid instant up to the oldest one still pending was emitted.
        assert!((800..1200).contains(&late), "late events: {late}");
        valids.sort_unstable();
        valids.dedup();
        assert_eq!(valids.len(), steps.len(), "valid instants are unique");
        let complete = valids
            .iter()
            .zip(1..)
            .take_while(|(v, i)| **v == *i)
            .count();
        assert!(complete + w.max_delay as usize + 1 >= steps.len());
    }

    #[test]
    fn catalogs_have_the_stated_rule_counts_and_parse() {
        for w in &WORKLOADS {
            let rules = tdb_server::tenant::rules_from_source(&rule_source(w))
                .unwrap_or_else(|e| panic!("{}: {e}", w.name));
            let extra = usize::from(w.name == "commit_durable");
            assert_eq!(rules.len(), w.rules + extra, "{}", w.name);
        }
    }
}
