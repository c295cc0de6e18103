//! Regression tests for group/DISTINCT key semantics.
//!
//! The projection stage used to fingerprint rows by joining rendered
//! values with a `\u{1}` separator, which conflated values that render
//! identically (`1` vs `"1"`) and rows whose strings embed the
//! separator itself. Keys are now structural ([`iyp_cypher::GroupKey`]);
//! these tests pin the corrected behaviour at the query level.

use iyp_cypher::{Params, RtVal, Statement};
use iyp_graph::{Graph, Value};

fn run(q: &str) -> Vec<Vec<RtVal>> {
    run_with(q, &Params::new())
}

fn run_with(q: &str, params: &Params) -> Vec<Vec<RtVal>> {
    let g = Graph::new();
    Statement::prepare(q)
        .and_then(|s| s.params(params).run(&g))
        .expect(q)
        .rows
}

fn ints(rows: &[Vec<RtVal>], col: usize) -> Vec<i64> {
    rows.iter()
        .map(|r| match &r[col] {
            RtVal::Scalar(Value::Int(i)) => *i,
            other => panic!("expected int, got {other:?}"),
        })
        .collect()
}

#[test]
fn distinct_keeps_int_and_string_apart_but_merges_int_and_float() {
    // 1 and 1.0 are the same value (Cypher numeric equivalence);
    // '1' is a different value even though it renders identically.
    let rows = run("UNWIND [1, 1.0, '1', 1] AS x RETURN DISTINCT x");
    assert_eq!(rows.len(), 2, "{rows:?}");
    assert_eq!(rows[0][0], RtVal::Scalar(Value::Int(1)));
    assert_eq!(rows[1][0], RtVal::Scalar(Value::Str("1".into())));
}

#[test]
fn grouping_keeps_int_and_string_apart_but_merges_int_and_float() {
    let rows = run("UNWIND [1, 1.0, '1', 1] AS x RETURN x, count(*)");
    assert_eq!(rows.len(), 2, "{rows:?}");
    // Groups appear in first-occurrence order.
    assert_eq!(rows[0][0], RtVal::Scalar(Value::Int(1)));
    assert_eq!(ints(&rows, 1), vec![3, 1]);
}

#[test]
fn aggregate_distinct_uses_structural_keys() {
    let rows = run("UNWIND [1, 1.0, '1', '1', 2] AS x RETURN count(DISTINCT x)");
    assert_eq!(ints(&rows, 0), vec![3]); // 1/1.0, '1', 2
}

#[test]
fn strings_embedding_the_old_separator_do_not_collide() {
    // Under the old scheme both rows fingerprinted to "a\u{1}\u{1}b":
    // ("a\u{1}", "b") and ("a", "\u{1}b") joined with a \u{1} separator
    // are indistinguishable. Structurally they are four distinct rows.
    let mut params = Params::new();
    params.insert(
        "xs".into(),
        Value::List(vec![Value::Str("a\u{1}".into()), Value::Str("a".into())]),
    );
    params.insert(
        "ys".into(),
        Value::List(vec![Value::Str("b".into()), Value::Str("\u{1}b".into())]),
    );
    let rows = run_with(
        "UNWIND $xs AS x UNWIND $ys AS y RETURN DISTINCT x, y",
        &params,
    );
    assert_eq!(rows.len(), 4, "{rows:?}");

    // Same shape through grouped aggregation: four groups of one.
    let rows = run_with(
        "UNWIND $xs AS x UNWIND $ys AS y RETURN x, y, count(*)",
        &params,
    );
    assert_eq!(rows.len(), 4, "{rows:?}");
    assert_eq!(ints(&rows, 2), vec![1, 1, 1, 1]);
}

#[test]
fn lists_of_mixed_types_group_structurally() {
    // [1, 2] and ['1', '2'] render alike but are different lists;
    // a repeated [1, 2] (even spelled [1.0, 2]) is the same list.
    let rows = run("UNWIND [[1, 2], ['1', '2'], [1.0, 2], [1, '2']] AS x \
                    RETURN x, count(*)");
    assert_eq!(rows.len(), 3, "{rows:?}");
    assert_eq!(ints(&rows, 1), vec![2, 1, 1]);
}

#[test]
fn distinct_on_collected_lists_matches_scalar_lists() {
    // collect() produces an RtVal list; a literal list is a scalar
    // list. Equal element values must produce equal keys regardless.
    let rows = run("UNWIND [1, 1] AS x WITH collect(x) AS c \
         UNWIND [c, [1, 1]] AS l RETURN DISTINCT l");
    assert_eq!(rows.len(), 1, "{rows:?}");
}

#[test]
fn null_boolean_and_zero_keep_separate_groups() {
    let rows = run("UNWIND [null, false, 0, ''] AS x RETURN x, count(*)");
    assert_eq!(rows.len(), 4, "{rows:?}");
    assert_eq!(ints(&rows, 1), vec![1, 1, 1, 1]);
}

#[test]
fn negative_zero_and_nan_group_deterministically() {
    // -0.0 groups with 0; NaN is one group (not one per occurrence).
    let rows = run("UNWIND [0, -0.0, 0.0/0.0, 0.0/0.0] AS x RETURN x, count(*)");
    assert_eq!(rows.len(), 2, "{rows:?}");
    assert_eq!(ints(&rows, 1), vec![2, 2]);
}
