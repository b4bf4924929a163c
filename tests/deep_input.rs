//! Input nested 100 000 levels deep — a client's `DefineQuery` frame, a
//! rule source, a query text — is refused with an error on a thread with
//! the stack a server worker gets, instead of overflowing it; every rule
//! within registration's nesting bound still reads back from its text; and
//! a query definition is refused unless its log record reads back.

use temporal_adb::core::rules::MAX_NESTING;
use temporal_adb::prelude::*;
use temporal_adb::relation::lexer::MAX_PARSE_DEPTH;
use temporal_adb::relation::CmpOp;
use temporal_adb::storage::codec::{get_query, get_scalar_expr, Dec};

const DEEP: usize = 100_000;

/// Runs `f` on a thread with `mib` MiB of stack.
fn on_stack<T: Send + 'static>(mib: usize, f: impl FnOnce() -> T + Send + 'static) -> T {
    let thread = std::thread::Builder::new().stack_size(mib << 20);
    thread.spawn(f).unwrap().join().unwrap()
}

/// The stack a server worker gets, in an optimised build. A level of a
/// decoded query, or of a parenthesis (it nests through the parser's whole
/// precedence chain), takes several times the stack unoptimised.
fn worker_stack_mib() -> usize {
    if cfg!(debug_assertions) {
        16
    } else {
        2
    }
}

#[test]
fn deeply_nested_input_is_refused_before_the_stack_overflows() {
    // The codec: a query whose selections nest, and a scalar expression
    // of nested `not`s.
    let err = on_stack(worker_stack_mib(), || {
        get_query(&mut Dec::new(&[3; DEEP])).map(drop)
    });
    assert!(err.unwrap_err().to_string().contains("nested deeper"));
    let err = on_stack(2, || get_scalar_expr(&mut Dec::new(&[7; DEEP])).map(drop));
    assert!(err.unwrap_err().to_string().contains("nested deeper"));

    // The PTL parser, through each operator that recurses, and each
    // left-associative chain (parsed in a loop, but `Formula::depth`,
    // `Display` and `Drop` recurse over what it builds).
    let prefixed = |prefix: &str, rest: &str| format!("{}{rest}", prefix.repeat(DEEP));
    for src in [
        prefixed("not ", "true"),
        prefixed("lasttime ", "true"),
        prefixed("- ", "1 > 0"),
        prefixed("true since ", "true"),
        format!("a() > {}", prefixed("1 + ", "1")),
        format!("a() > {}", prefixed("2 * ", "1")),
    ] {
        let err = on_stack(2, move || parse_formula(&src).map(drop)).unwrap_err();
        assert!(err.to_string().contains("nested deeper"), "{err}");
    }
    // The query parser.
    let select = |pred: String| format!("select a from R where {pred}");
    for src in [
        select(prefixed("not ", "true")),
        select(prefixed("- ", "a > 0")),
        select(prefixed("a > 0 or ", "true")),
        select(prefixed("a + ", "a > 0")),
        prefixed("R union ", "R"),
    ] {
        let err = on_stack(2, move || parse_query(&src).map(drop)).unwrap_err();
        assert!(err.to_string().contains("nested deeper"), "{err}");
    }
    // Parentheses, in both.
    let parens = |inner: &str| format!("{}{inner}{}", "(".repeat(DEEP), ")".repeat(DEEP));
    let (formula, term) = (parens("true"), format!("a() > {}", parens("1")));
    let query = format!("select * from {}", parens("R"));
    let errs = on_stack(worker_stack_mib(), move || {
        [
            parse_formula(&formula).map(drop).map_err(|e| e.to_string()),
            parse_formula(&term).map(drop).map_err(|e| e.to_string()),
            parse_query(&query).map(drop).map_err(|e| e.to_string()),
        ]
    });
    for err in errs {
        assert!(err.unwrap_err().contains("nested deeper"));
    }
}

#[test]
fn every_rule_within_the_nesting_bound_reads_back_from_its_text() {
    // The costliest shape per level: `not (lasttime (not (…)))` around a
    // comparison of negations, `MAX_NESTING` levels in all.
    let mut t = Term::query("a", vec![]);
    for _ in 0..MAX_NESTING / 2 {
        t = Term::Neg(Box::new(t));
    }
    let mut f = Formula::cmp(CmpOp::Gt, t, Term::lit(0));
    for i in 0..MAX_NESTING - f.depth() {
        f = if i % 2 == 0 {
            Formula::not(f)
        } else {
            Formula::lasttime(f)
        };
    }
    assert_eq!(f.depth(), MAX_NESTING);
    const { assert!(MAX_PARSE_DEPTH >= 2 * MAX_NESTING) };
    let text = f.to_string();
    let back = on_stack(worker_stack_mib(), move || parse_formula(&text).unwrap());
    assert_eq!(back, f);
}

#[test]
fn a_query_definition_reads_back_from_the_log_or_is_refused() {
    use temporal_adb::core::storage::LogicalOp;
    use temporal_adb::core::CoreError;
    use temporal_adb::relation::ScalarExpr;
    use temporal_adb::storage::codec::{decode_logical_op, encode_logical_op};
    let nested = |depth: usize| {
        let q = (1..depth).fold(Query::table("R"), |q, _| q.select(ScalarExpr::lit(true)));
        assert_eq!(q.depth(), depth);
        QueryDef::new(0, q)
    };
    let round_trip = |def: QueryDef| {
        let op = LogicalOp::DefineQuery {
            name: "q".into(),
            def,
        };
        let bytes = encode_logical_op(&op);
        on_stack(worker_stack_mib(), move || {
            decode_logical_op(&bytes).map(drop)
        })
    };
    let mut adb = ActiveDatabase::new(Database::new());
    round_trip(nested(MAX_NESTING)).unwrap();
    adb.define_query("q", nested(MAX_NESTING)).unwrap();
    assert!(round_trip(nested(MAX_NESTING + 1)).is_err());
    assert_eq!(
        adb.define_query("q", nested(MAX_NESTING + 1)),
        Err(CoreError::QueryNestedTooDeep {
            query: "q".into(),
            depth: MAX_NESTING + 1
        })
    );
}
