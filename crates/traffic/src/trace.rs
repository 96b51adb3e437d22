//! Trace-driven traffic: a text trace format and its loader. A loaded
//! [`Trace`] is replayed by [`Workload::trace`](crate::Workload::trace).
//!
//! # Format
//!
//! One injection per line, whitespace-separated:
//!
//! ```text
//! # comment lines and blank lines are ignored
//! cycle src dst len
//! 0     3   12  20
//! 4     0   15  5
//! ```
//!
//! * `cycle` — injection cycle; must be non-decreasing down the file, the
//!   order the simulator offers messages in;
//! * `src`, `dst` — node ids in `0..node_count`, `src != dst`;
//! * `len` — message length in flits, at least 1.
//!
//! [`Trace::parse`] validates everything up front and reports the first
//! problem with its line number; replay itself can then never fail.

use std::fmt;

/// One recorded injection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Injection cycle.
    pub cycle: u64,
    /// Injecting node.
    pub src: u32,
    /// Destination node.
    pub dest: u32,
    /// Message length in flits.
    pub length: u32,
}

/// A validated, replayable trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Trace {
    node_count: u32,
    events: Vec<TraceEvent>,
}

/// Why a trace failed to load. Every variant carries the 1-based line
/// number of the offending record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceError {
    /// The line does not have exactly four whitespace-separated fields.
    FieldCount {
        /// 1-based line number.
        line: usize,
        /// Fields found.
        found: usize,
    },
    /// A field is not a non-negative integer.
    BadNumber {
        /// 1-based line number.
        line: usize,
        /// Field name ("cycle", "src", "dst", "len").
        field: &'static str,
        /// The raw text of the field.
        text: String,
    },
    /// A node id is outside `0..node_count`.
    NodeOutOfRange {
        /// 1-based line number.
        line: usize,
        /// Field name ("src" or "dst").
        field: &'static str,
        /// The offending node id.
        node: u64,
        /// The topology's node count.
        node_count: u32,
    },
    /// Source and destination are the same node.
    SelfTarget {
        /// 1-based line number.
        line: usize,
        /// The node id.
        node: u32,
    },
    /// A zero-length message.
    ZeroLength {
        /// 1-based line number.
        line: usize,
    },
    /// Cycles must be non-decreasing down the file.
    NonMonotonic {
        /// 1-based line number.
        line: usize,
        /// This record's cycle.
        cycle: u64,
        /// The previous record's cycle.
        previous: u64,
    },
    /// The trace has no events at all.
    Empty,
    /// The trace file could not be read.
    Io {
        /// The path that failed.
        path: String,
        /// The OS error message.
        message: String,
    },
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceError::FieldCount { line, found } => write!(
                f,
                "trace line {line}: expected 4 fields `cycle src dst len`, found {found}"
            ),
            TraceError::BadNumber { line, field, text } => write!(
                f,
                "trace line {line}: {field} {text:?} is not a non-negative integer"
            ),
            TraceError::NodeOutOfRange {
                line,
                field,
                node,
                node_count,
            } => write!(
                f,
                "trace line {line}: {field} node {node} is outside 0..{node_count}"
            ),
            TraceError::SelfTarget { line, node } => {
                write!(f, "trace line {line}: node {node} sends to itself")
            }
            TraceError::ZeroLength { line } => {
                write!(f, "trace line {line}: message length must be at least 1 flit")
            }
            TraceError::NonMonotonic {
                line,
                cycle,
                previous,
            } => write!(
                f,
                "trace line {line}: cycle {cycle} goes backwards (previous record was at {previous})"
            ),
            TraceError::Empty => write!(f, "trace contains no events"),
            TraceError::Io { path, message } => {
                write!(f, "cannot read trace {path}: {message}")
            }
        }
    }
}

impl std::error::Error for TraceError {}

impl Trace {
    /// Parses and validates trace text against a topology of `node_count`
    /// nodes. Returns the first problem found, with its line number.
    ///
    /// Line endings are forgiving: LF and CRLF both work (including a
    /// carriage return left dangling at end-of-file), and the final line
    /// needs no trailing newline — traces edited on any platform load.
    pub fn parse(text: &str, node_count: u32) -> Result<Trace, TraceError> {
        let mut events = Vec::new();
        let mut previous = 0u64;
        for (idx, raw) in text.lines().enumerate() {
            let line = idx + 1;
            // `str::lines` strips `\r\n` pairs but keeps a bare trailing
            // `\r` (a CRLF file truncated before its final LF); drop it
            // explicitly so it can never leak into the last field.
            let raw = raw.strip_suffix('\r').unwrap_or(raw);
            let body = raw.split('#').next().unwrap_or("").trim();
            if body.is_empty() {
                continue;
            }
            let fields: Vec<&str> = body.split_whitespace().collect();
            if fields.len() != 4 {
                return Err(TraceError::FieldCount {
                    line,
                    found: fields.len(),
                });
            }
            let number = |field: &'static str, text: &str| -> Result<u64, TraceError> {
                text.parse::<u64>().map_err(|_| TraceError::BadNumber {
                    line,
                    field,
                    text: text.to_string(),
                })
            };
            let cycle = number("cycle", fields[0])?;
            let src = number("src", fields[1])?;
            let dest = number("dst", fields[2])?;
            let length = number("len", fields[3])?;
            validate_record(line, node_count, previous, cycle, src, dest, length)?;
            previous = cycle;
            events.push(TraceEvent {
                cycle,
                src: src as u32,
                dest: dest as u32,
                length: length as u32,
            });
        }
        if events.is_empty() {
            return Err(TraceError::Empty);
        }
        Ok(Trace { node_count, events })
    }

    /// Builds a validated trace directly from recorded events — the
    /// capture-sink path, enforcing the same invariants as
    /// [`Trace::parse`] (shared via `validate_record`). Error "line"
    /// numbers are 1-based event indices.
    pub fn from_events(node_count: u32, events: Vec<TraceEvent>) -> Result<Trace, TraceError> {
        let mut previous = 0u64;
        for (idx, e) in events.iter().enumerate() {
            validate_record(
                idx + 1,
                node_count,
                previous,
                e.cycle,
                e.src as u64,
                e.dest as u64,
                e.length as u64,
            )?;
            previous = e.cycle;
        }
        if events.is_empty() {
            return Err(TraceError::Empty);
        }
        Ok(Trace { node_count, events })
    }

    /// Reads and parses a trace file.
    pub fn load(path: impl AsRef<std::path::Path>, node_count: u32) -> Result<Trace, TraceError> {
        let path = path.as_ref();
        let text = std::fs::read_to_string(path).map_err(|e| TraceError::Io {
            path: path.display().to_string(),
            message: e.to_string(),
        })?;
        Trace::parse(&text, node_count)
    }

    /// The node count the trace was validated against.
    pub fn node_count(&self) -> u32 {
        self.node_count
    }

    /// The events in file (= injection) order.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Number of recorded injections.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the trace has no events (never true for a parsed trace).
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Renders the trace back to its text format.
    pub fn format(&self) -> String {
        let mut out = String::from("# cycle src dst len\n");
        for e in &self.events {
            out.push_str(&format!("{} {} {} {}\n", e.cycle, e.src, e.dest, e.length));
        }
        out
    }
}

/// The per-record invariants shared by [`Trace::parse`] and
/// [`Trace::from_events`] — one source of truth so the text loader and
/// the capture sink can never drift. Node ids stay `u64` so the loader
/// reports out-of-range values exactly as written (no silent `u32` wrap).
fn validate_record(
    line: usize,
    node_count: u32,
    previous: u64,
    cycle: u64,
    src: u64,
    dest: u64,
    length: u64,
) -> Result<(), TraceError> {
    for (field, node) in [("src", src), ("dst", dest)] {
        if node >= node_count as u64 {
            return Err(TraceError::NodeOutOfRange {
                line,
                field,
                node,
                node_count,
            });
        }
    }
    if src == dest {
        return Err(TraceError::SelfTarget {
            line,
            node: src as u32,
        });
    }
    if length == 0 {
        return Err(TraceError::ZeroLength { line });
    }
    if cycle < previous {
        return Err(TraceError::NonMonotonic {
            line,
            cycle,
            previous,
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Workload;
    use lapses_sim::Cycle;
    use std::sync::Arc;

    const GOOD: &str = "# demo\n0 0 1 5\n0 2 3 5\n4 1 0 20\n\n9 0 2 1\n";

    #[test]
    fn parse_round_trips_through_format() {
        let t = Trace::parse(GOOD, 4).unwrap();
        assert_eq!(t.len(), 4);
        let again = Trace::parse(&t.format(), 4).unwrap();
        assert_eq!(t, again);
    }

    #[test]
    fn replay_respects_due_cycles() {
        let t = Arc::new(Trace::parse(GOOD, 4).unwrap());
        let mut w = Workload::trace(t);
        assert_eq!(w.next_due_cycle(0), 0);
        assert_eq!(w.next_due_cycle(1), 4);
        assert_eq!(w.next_due_cycle(3), u64::MAX);

        let mut out = Vec::new();
        w.poll(0, Cycle::new(0), &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(w.next_due_cycle(0), 9);
        w.poll(0, Cycle::new(100), &mut out);
        assert_eq!(out.len(), 2);
        assert_eq!(w.next_due_cycle(0), u64::MAX);
    }

    #[test]
    fn inline_comments_and_blanks_are_ignored() {
        let t = Trace::parse("0 0 1 5  # inline\n\n   \n1 1 0 5\n", 2).unwrap();
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn errors_carry_line_numbers() {
        let e = Trace::parse("0 0 1 5\n1 0 1\n", 4).unwrap_err();
        assert_eq!(e, TraceError::FieldCount { line: 2, found: 3 });
        assert!(e.to_string().contains("line 2"));
    }
}
