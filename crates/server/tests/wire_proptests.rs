//! Property tests for the wire codec (satellite: protocol fuzzing).
//!
//! Three families:
//!
//! 1. **Roundtrip** — every request/response shape survives
//!    encode → frame → unframe → decode bit-for-bit;
//! 2. **Corruption** — any single bit flip in a framed message is caught
//!    (checksum or header validation), never mis-decoded, never a panic;
//! 3. **Garbage** — random bytes and truncations of valid frames produce
//!    typed [`ProtocolError`]s; the decoder never panics or hangs.

#![allow(clippy::disallowed_methods)] // tests may unwrap

use proptest::prelude::*;

use tdb_core::rules::{Action, FiringRecord, Rule};
use tdb_core::storage::LogicalOp;
use tdb_ptl::Formula;
use tdb_relation::{Relation, Schema, Timestamp, Tuple, Value};
use tdb_server::wire::{
    decode_request, decode_response, encode_request, encode_response, read_frame, write_frame,
    ErrorCode, MetricsFormat, ProtocolError, Request, Response, MAX_FRAME,
};

fn value_strategy() -> BoxedStrategy<Value> {
    prop_oneof![
        Just(Value::Null),
        any::<bool>().prop_map(Value::Bool),
        any::<i64>().prop_map(Value::Int),
        (-1000i64..1000).prop_map(|n| Value::Float(n as f64 / 8.0)),
        "[a-z0-9 ]{0,12}".prop_map(Value::str),
        any::<i64>().prop_map(|t| Value::Time(Timestamp(t))),
    ]
    .boxed()
}

fn op_strategy() -> BoxedStrategy<LogicalOp> {
    let name = "[a-z][a-z0-9_]{0,8}";
    prop_oneof![
        (name, value_strategy()).prop_map(|(name, value)| LogicalOp::SetItem { name, value }),
        name.prop_map(|name| LogicalOp::AddRule { name }),
        name.prop_map(|name| LogicalOp::RegisterRules {
            rules: vec![Rule::trigger(name, Formula::True, Action::Notify).recording_executed()],
        }),
        (1i64..50).prop_map(|delta| LogicalOp::AdvanceClock { delta }),
        any::<i64>().prop_map(|t| LogicalOp::AdvanceClockTo { t: Timestamp(t) }),
        Just(LogicalOp::Tick),
        Just(LogicalOp::Begin),
        Just(LogicalOp::Flush),
        (1usize..64).prop_map(|n| LogicalOp::SetBatch { n }),
    ]
    .boxed()
}

fn firing_strategy() -> BoxedStrategy<FiringRecord> {
    (
        "[a-z][a-z0-9_]{0,8}",
        0usize..10_000,
        any::<i64>(),
        collection::vec(("[a-z]{1,4}", value_strategy()), 0..4),
    )
        .prop_map(|(rule, state_index, t, env)| FiringRecord {
            rule,
            state_index,
            time: Timestamp(t),
            env: env.into_iter().collect(),
        })
        .boxed()
}

fn request_strategy() -> BoxedStrategy<Request> {
    let name = "[a-z][a-z0-9_-]{0,10}";
    prop_oneof![
        any::<u32>().prop_map(|version| Request::Hello { version }),
        (name, any::<bool>()).prop_map(|(name, durable)| Request::CreateTenant { name, durable }),
        Just(Request::ListTenants),
        (name, "[ -~]{0,40}").prop_map(|(tenant, source)| Request::RegisterRule { tenant, source }),
        (name, collection::vec(op_strategy(), 0..6))
            .prop_map(|(tenant, ops)| Request::Commit { tenant, ops }),
        (name, "[ -~]{0,20}", collection::vec(value_strategy(), 0..3)).prop_map(
            |(tenant, text, params)| Request::Query {
                tenant,
                text,
                params
            }
        ),
        name.prop_map(|tenant| Request::Snapshot { tenant }),
        (name, any::<u64>()).prop_map(|(tenant, from)| Request::Firings { tenant, from }),
        name.prop_map(|tenant| Request::SubscribeFirings { tenant }),
        name.prop_map(|tenant| Request::TenantStats { tenant }),
        Just(Request::Metrics {
            format: MetricsFormat::Prometheus
        }),
        Just(Request::Metrics {
            format: MetricsFormat::Json
        }),
        Just(Request::Shutdown),
    ]
    .boxed()
}

fn response_strategy() -> BoxedStrategy<Response> {
    let name = "[a-z][a-z0-9_-]{0,10}";
    let outcome = prop_oneof![Just(Ok(())), "[ -~]{0,24}".prop_map(Err::<(), String>),];
    prop_oneof![
        any::<u32>().prop_map(|version| Response::HelloOk { version }),
        Just(Response::TenantCreated),
        collection::vec(name, 0..5).prop_map(|names| Response::Tenants { names }),
        (
            collection::vec(name, 0..3),
            collection::vec("[ -~]{0,30}", 0..3)
        )
            .prop_map(|(registered, findings)| Response::RulesRegistered {
                registered,
                findings
            }),
        (
            collection::vec(outcome, 0..5),
            collection::vec(firing_strategy(), 0..3)
        )
            .prop_map(|(outcomes, firings)| Response::Committed { outcomes, firings }),
        collection::vec(value_strategy(), 0..6).prop_map(|vals| Response::Rows {
            relation: {
                let mut r = Relation::empty(Schema::untyped(&["value"]));
                for v in vals {
                    let _ = r.insert(Tuple::new(vec![v]));
                }
                r
            }
        }),
        collection::vec(any::<u8>(), 0..64).prop_map(|bytes| Response::SnapshotData { bytes }),
        (any::<u64>(), collection::vec(firing_strategy(), 0..4))
            .prop_map(|(from, records)| Response::FiringsList { from, records }),
        Just(Response::Subscribed),
        firing_strategy().prop_map(|record| Response::Firing { record }),
        (
            any::<u64>(),
            any::<u64>(),
            any::<u64>(),
            any::<u64>(),
            any::<i64>()
        )
            .prop_map(|(states, rules, firings, retained, t)| Response::Stats {
                states,
                rules,
                firings,
                retained,
                now: Timestamp(t),
                wal_bytes: retained ^ states,
                batch_safety: t.wrapping_rem(5) - 1,
            }),
        "[ -~]{0,60}".prop_map(|text| Response::MetricsText { text }),
        Just(Response::ShuttingDown),
        ("[ -~]{0,30}").prop_map(|message| Response::Error {
            code: ErrorCode::Internal,
            message
        }),
    ]
    .boxed()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(300))]

    #[test]
    fn request_roundtrips_through_frame(id in any::<u64>(), req in request_strategy()) {
        let payload = encode_request(id, &req);
        let mut framed = Vec::new();
        write_frame(&mut framed, &payload).unwrap();
        let got = read_frame(&mut &framed[..]).unwrap();
        let (rid, rreq) = decode_request(&got).unwrap();
        prop_assert_eq!(rid, id);
        prop_assert_eq!(rreq, req);
    }

    #[test]
    fn response_roundtrips_through_frame(id in any::<u64>(), resp in response_strategy()) {
        let payload = encode_response(id, &resp);
        let mut framed = Vec::new();
        write_frame(&mut framed, &payload).unwrap();
        let got = read_frame(&mut &framed[..]).unwrap();
        let (rid, rresp) = decode_response(&got).unwrap();
        prop_assert_eq!(rid, id);
        prop_assert_eq!(rresp, resp);
    }

    /// Any single bit flip anywhere in the framed bytes must surface as a
    /// typed error or (for flips inside the length header) an incomplete
    /// read — never a silent mis-decode of the payload, never a panic.
    #[test]
    fn bit_flips_never_misdecode(req in request_strategy(), flip in any::<u32>()) {
        let payload = encode_request(9, &req);
        let mut framed = Vec::new();
        write_frame(&mut framed, &payload).unwrap();
        let bit = flip as usize % (framed.len() * 8);
        framed[bit / 8] ^= 1 << (bit % 8);

        match read_frame(&mut &framed[..]) {
            // Flips in the length field usually truncate or oversize.
            Err(ProtocolError::Truncated { .. })
            | Err(ProtocolError::Oversized { .. })
            | Err(ProtocolError::Checksum)
            | Err(ProtocolError::Closed) => {}
            Err(e) => panic!("unexpected error class: {e}"),
            Ok(got) => {
                // A length flip can shorten the frame so that the checksum
                // (recomputed over fewer bytes) still matches only if the
                // payload truly survived; decoding must then still agree
                // with the original or fail typed.
                if let Ok((_, rreq)) = decode_request(&got) {
                    prop_assert_eq!(rreq, req);
                }
            }
        }
    }

    /// Truncating a valid frame at any point yields `Closed` (cut at the
    /// boundary), `Truncated`, or—if the cut lands inside the header—an
    /// oversized/short read. Never a panic or a hang.
    #[test]
    fn truncations_are_typed(req in request_strategy(), cut in any::<u32>()) {
        let payload = encode_request(3, &req);
        let mut framed = Vec::new();
        write_frame(&mut framed, &payload).unwrap();
        let cut = cut as usize % framed.len();
        let r = read_frame(&mut &framed[..cut]);
        match r {
            Err(ProtocolError::Closed) => prop_assert_eq!(cut, 0),
            Err(ProtocolError::Truncated { .. }) | Err(ProtocolError::Oversized { .. }) => {}
            other => panic!("truncation at {cut} gave {other:?}"),
        }
    }

    /// Random garbage: the frame reader and both decoders return typed
    /// errors (or, vanishingly rarely, a valid tiny frame) without
    /// panicking, and never allocate more than the declared cap.
    #[test]
    fn garbage_never_panics(bytes in collection::vec(any::<u8>(), 0..64)) {
        match read_frame(&mut &bytes[..]) {
            Ok(payload) => {
                // Checksum happened to validate: decoding must stay typed.
                let _ = decode_request(&payload);
                let _ = decode_response(&payload);
            }
            Err(ProtocolError::Oversized { len }) => prop_assert!(len > MAX_FRAME),
            Err(_) => {}
        }
        let _ = decode_request(&bytes);
        let _ = decode_response(&bytes);
    }
}

/// A payload that decodes as one tag but carries another tag's body shape
/// must fail typed, not panic: exhaustively cross-pair real bodies with
/// every possible tag byte.
#[test]
fn tag_confusion_is_typed() {
    let reqs = [
        encode_request(1, &Request::ListTenants),
        encode_request(2, &Request::Hello { version: 1 }),
        encode_request(
            3,
            &Request::Commit {
                tenant: "t".into(),
                ops: vec![LogicalOp::Tick],
            },
        ),
    ];
    for payload in &reqs {
        for tag in 0u8..=255 {
            let mut p = payload.clone();
            p[8] = tag; // tag byte sits after the u64 id
            let _ = decode_request(&p);
            let _ = decode_response(&p);
        }
    }
}

/// The declared-length cap is enforced before allocation: a header
/// claiming u32::MAX bytes fails fast on a tiny input.
#[test]
fn huge_declared_length_fails_fast() {
    let mut framed = Vec::new();
    framed.extend_from_slice(&u32::MAX.to_le_bytes());
    framed.extend_from_slice(&0u32.to_le_bytes());
    let t0 = std::time::Instant::now();
    assert!(matches!(
        read_frame(&mut &framed[..]),
        Err(ProtocolError::Oversized { len: u32::MAX })
    ));
    assert!(t0.elapsed() < std::time::Duration::from_secs(1));
}
