//! Loader acceptance tests for the text trace format: the committed
//! fixture must load and replay, and every malformed input must produce a
//! clear, line-numbered error — never a panic.

use lapses_sim::Cycle;
use lapses_traffic::{Trace, TraceError, Workload};
use std::sync::Arc;

fn fixture_path() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("fixtures")
        .join("small.trace")
}

#[test]
fn committed_fixture_loads_and_replays() {
    let trace = Trace::load(fixture_path(), 16).expect("fixture must parse");
    assert_eq!(trace.len(), 16);
    assert_eq!(trace.node_count(), 16);

    let mut w = Workload::trace(Arc::new(trace.clone()));
    assert_eq!(w.node_count(), 16);
    let mut out = Vec::new();
    for node in 0..16 {
        w.poll(node, Cycle::new(1_000), &mut out);
    }
    assert_eq!(out.len(), 16);
    // All nodes exhausted after full replay.
    for node in 0..16 {
        assert_eq!(w.next_due_cycle(node), u64::MAX);
    }
    // Replayed messages reproduce the recorded events, just grouped by node.
    let mut replayed: Vec<(u32, u32, u32)> =
        out.iter().map(|m| (m.src.0, m.dest.0, m.length)).collect();
    let mut recorded: Vec<(u32, u32, u32)> = trace
        .events()
        .iter()
        .map(|e| (e.src, e.dest, e.length))
        .collect();
    replayed.sort_unstable();
    recorded.sort_unstable();
    assert_eq!(replayed, recorded);
}

#[test]
fn fixture_round_trips_through_format() {
    let trace = Trace::load(fixture_path(), 16).unwrap();
    let again = Trace::parse(&trace.format(), 16).unwrap();
    assert_eq!(trace, again);
}

#[test]
fn malformed_field_count_is_reported_with_line() {
    let err = Trace::parse("0 0 1 5\n3 2 9\n", 16).unwrap_err();
    assert_eq!(err, TraceError::FieldCount { line: 2, found: 3 });
    let msg = err.to_string();
    assert!(msg.contains("line 2") && msg.contains("4 fields"), "{msg}");
}

#[test]
fn non_numeric_field_is_reported() {
    let err = Trace::parse("0 0 one 5\n", 16).unwrap_err();
    assert!(
        matches!(
            &err,
            TraceError::BadNumber {
                line: 1,
                field: "dst",
                ..
            }
        ),
        "{err:?}"
    );
    assert!(err.to_string().contains("\"one\""));
}

#[test]
fn negative_cycle_is_a_bad_number_not_a_panic() {
    let err = Trace::parse("-3 0 1 5\n", 16).unwrap_err();
    assert!(
        matches!(&err, TraceError::BadNumber { field: "cycle", .. }),
        "{err:?}"
    );
}

#[test]
fn out_of_range_nodes_are_reported() {
    let err = Trace::parse("0 16 1 5\n", 16).unwrap_err();
    assert_eq!(
        err,
        TraceError::NodeOutOfRange {
            line: 1,
            field: "src",
            node: 16,
            node_count: 16
        }
    );
    let err = Trace::parse("0 0 1 5\n1 2 99 5\n", 16).unwrap_err();
    assert!(
        matches!(
            &err,
            TraceError::NodeOutOfRange {
                line: 2,
                field: "dst",
                node: 99,
                ..
            }
        ),
        "{err:?}"
    );
    assert!(err.to_string().contains("outside 0..16"));
}

#[test]
fn self_targets_are_rejected() {
    let err = Trace::parse("0 7 7 5\n", 16).unwrap_err();
    assert_eq!(err, TraceError::SelfTarget { line: 1, node: 7 });
}

#[test]
fn zero_length_messages_are_rejected() {
    let err = Trace::parse("0 0 1 0\n", 16).unwrap_err();
    assert_eq!(err, TraceError::ZeroLength { line: 1 });
}

#[test]
fn non_monotonic_cycles_are_rejected() {
    let err = Trace::parse("5 0 1 5\n3 1 0 5\n", 16).unwrap_err();
    assert_eq!(
        err,
        TraceError::NonMonotonic {
            line: 2,
            cycle: 3,
            previous: 5
        }
    );
    assert!(err.to_string().contains("goes backwards"));
}

#[test]
fn empty_and_comment_only_traces_are_rejected() {
    assert_eq!(Trace::parse("", 16).unwrap_err(), TraceError::Empty);
    assert_eq!(
        Trace::parse("# nothing\n\n", 16).unwrap_err(),
        TraceError::Empty
    );
}

#[test]
fn final_line_without_trailing_newline_parses() {
    let t = Trace::parse("0 0 1 5\n4 1 0 20", 16).unwrap();
    assert_eq!(t.len(), 2);
    assert_eq!(t.events()[1].cycle, 4);
    assert_eq!(t.events()[1].length, 20);
}

#[test]
fn crlf_line_endings_parse() {
    let t = Trace::parse("# exported on Windows\r\n0 0 1 5\r\n4 1 0 20\r\n", 16).unwrap();
    assert_eq!(t.len(), 2);
    // CRLF with the final LF missing: the dangling \r must not corrupt
    // the last field.
    let t = Trace::parse("0 0 1 5\r\n4 1 0 20\r", 16).unwrap();
    assert_eq!(t.len(), 2);
    assert_eq!(t.events()[1].length, 20);
    // CRLF + inline comments compose.
    let t = Trace::parse("0 0 1 5 # first\r\n4 1 0 20\r\n", 16).unwrap();
    assert_eq!(t.len(), 2);
}

#[test]
fn crlf_and_lf_parse_identically() {
    let lf = "0 0 1 5\n4 1 0 20\n9 2 3 1\n";
    let crlf = lf.replace('\n', "\r\n");
    assert_eq!(
        Trace::parse(lf, 16).unwrap(),
        Trace::parse(&crlf, 16).unwrap()
    );
    // And the no-final-newline variants of both.
    assert_eq!(
        Trace::parse(lf.trim_end(), 16).unwrap(),
        Trace::parse(crlf.trim_end(), 16).unwrap()
    );
}

#[test]
fn from_events_round_trips_and_validates() {
    use lapses_traffic::TraceEvent;
    let parsed = Trace::parse("0 0 1 5\n4 1 0 20\n", 16).unwrap();
    let built = Trace::from_events(16, parsed.events().to_vec()).unwrap();
    assert_eq!(parsed, built);

    let bad = |events: Vec<TraceEvent>| Trace::from_events(16, events).unwrap_err();
    assert_eq!(bad(Vec::new()), TraceError::Empty);
    let ev = |cycle, src, dest, length| TraceEvent {
        cycle,
        src,
        dest,
        length,
    };
    assert_eq!(
        bad(vec![ev(0, 7, 7, 5)]),
        TraceError::SelfTarget { line: 1, node: 7 }
    );
    assert_eq!(
        bad(vec![ev(0, 0, 1, 0)]),
        TraceError::ZeroLength { line: 1 }
    );
    assert_eq!(
        bad(vec![ev(5, 0, 1, 5), ev(3, 1, 0, 5)]),
        TraceError::NonMonotonic {
            line: 2,
            cycle: 3,
            previous: 5
        }
    );
    assert!(matches!(
        bad(vec![ev(0, 99, 1, 5)]),
        TraceError::NodeOutOfRange {
            line: 1,
            field: "src",
            ..
        }
    ));
}

#[test]
fn missing_file_is_an_io_error() {
    let err = Trace::load("/nonexistent/definitely-not-here.trace", 16).unwrap_err();
    assert!(matches!(&err, TraceError::Io { .. }), "{err:?}");
    assert!(err.to_string().contains("cannot read trace"));
}
