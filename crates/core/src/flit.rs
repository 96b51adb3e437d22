//! Messages and flits.
//!
//! A message is injected as a sequence of flits — a head flit carrying the
//! routing information, body flits, and a tail flit that releases the
//! virtual channels the message holds (wormhole switching). Under
//! look-ahead routing the head flit additionally carries the candidate-port
//! information for the router it is entering, pre-fetched by the previous
//! router (§3.2, Fig. 4(b)).
//!
//! # The lean hot path
//!
//! Flits are the unit the simulator copies most: every hop moves one
//! through an input buffer, a staging buffer and a link pipeline.
//! [`Flit`] is therefore a 16-byte `Copy` POD holding only
//! what the router datapath reads — position, destination, the head's
//! look-ahead routing state, and the [`MsgRef`] handle the ejection
//! statistics need. Everything the *statistics* need beyond that (source
//! node, generation and injection timestamps, the measurement flag) lives
//! in a single per-message record owned by the network layer and reached
//! through that handle. No stage needs a message number or a flit index:
//! wormhole switching keeps a message's flits in order on one VC, so a
//! flit's position is fully described by its [`FlitKind`].
//!
//! # Structure-of-arrays buffering
//!
//! On the wire a flit travels as one [`Flit`] value, but *inside a
//! router* the buffers hold it split three ways ([`Flit::split`] /
//! [`Flit::assemble`]):
//!
//! * the **hot** part is just the [`FlitKind`] — the one field every
//!   pipeline stage branches on (is this a head? a tail?). The router
//!   keeps these in a dense one-byte-per-slot array, so the per-cycle
//!   stage walk reads 1 byte per occupancy check;
//! * the **cold** part ([`ColdFlit`]) is the 8-byte `(rec, dest)` pair
//!   every flit carries, in a parallel side array that head decoding
//!   (routing reads `dest`), launches and ejections touch;
//! * the **look-ahead** entry lives in a third side array that only heads
//!   in LA-PROUD routers write or read (§3.2, Fig. 4(b): only the header
//!   carries routing state). Body and tail flits never carry one.
//!
//! A body or tail hop therefore moves 9 bytes. The split is lossless
//! (`assemble(split(f)) == f`, enforced by a round-trip test below), and
//! the router drops a look-ahead only where it is always `None` (non-head
//! flits, and every flit in a PROUD router); that is what lets the router
//! arenas change layout without changing a single simulated bit.

use crate::tables::RouteEntry;
use lapses_topology::NodeId;
use std::fmt;

/// Handle to the owning network's per-message record (source, timestamps,
/// measurement flag). The network layer allocates one per message at offer
/// time and retires it when the tail ejects; the router datapath carries it
/// opaquely.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MsgRef(pub u32);

/// Position of a flit within its message.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FlitKind {
    /// First flit: carries routing information, allocates channels.
    Head,
    /// Middle flit: follows the path the head set up.
    Body,
    /// Last flit: releases channels as it passes.
    Tail,
    /// Single-flit message: head and tail at once.
    HeadTail,
}

impl FlitKind {
    /// The role of flit `seq` (head = 0) in a `length`-flit message.
    #[inline]
    pub fn at(seq: u32, length: u32) -> FlitKind {
        debug_assert!(seq < length, "flit index past the message");
        match (seq, length) {
            (0, 1) => FlitKind::HeadTail,
            (0, _) => FlitKind::Head,
            (s, l) if s + 1 == l => FlitKind::Tail,
            _ => FlitKind::Body,
        }
    }

    /// Whether this flit performs routing (head of a message).
    #[inline]
    pub fn is_head(self) -> bool {
        matches!(self, FlitKind::Head | FlitKind::HeadTail)
    }

    /// Whether this flit releases channels (tail of a message).
    #[inline]
    pub fn is_tail(self) -> bool {
        matches!(self, FlitKind::Tail | FlitKind::HeadTail)
    }
}

/// One flow-control unit traversing the network — a 16-byte `Copy` value.
///
/// Flits are moved by value between buffers; the head flit's
/// [`lookahead`](Flit::lookahead) field is rewritten at each hop by
/// look-ahead routers (the Fig. 4(b) "new header generation"). Only head
/// flits carry meaningful routing state (`dest`, `lookahead`); body and
/// tail flits follow the wormhole path the head reserved, and their
/// statistics ride in the per-message record behind [`Flit::rec`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Flit {
    /// Handle to the per-message record (source, timestamps, measured).
    pub rec: MsgRef,
    /// Destination node of the message (read by head-flit routing only).
    pub dest: NodeId,
    /// Head / body / tail role.
    pub kind: FlitKind,
    /// Look-ahead routing information for the router this flit is entering:
    /// the candidate ports (and escape route) *at that router*, computed by
    /// the previous router concurrently with its own arbitration. `None` on
    /// body/tail flits and in non-look-ahead (PROUD) routers.
    pub lookahead: Option<RouteEntry>,
}

/// The cold part of a flit in a structure-of-arrays buffer: the 8 bytes
/// every flit carries besides its [`FlitKind`]. Read by head decoding
/// (routing needs `dest`) and when a launch reassembles the full
/// [`Flit`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ColdFlit {
    /// Handle to the per-message record.
    pub rec: MsgRef,
    /// Destination node of the message.
    pub dest: NodeId,
}

impl Flit {
    /// Splits a flit into its hot ([`FlitKind`]), cold and look-ahead parts
    /// for structure-of-arrays storage.
    #[inline]
    pub fn split(self) -> (FlitKind, ColdFlit, Option<RouteEntry>) {
        (
            self.kind,
            ColdFlit {
                rec: self.rec,
                dest: self.dest,
            },
            self.lookahead,
        )
    }

    /// Reassembles a flit from its parts (inverse of [`Flit::split`]).
    #[inline]
    pub fn assemble(kind: FlitKind, cold: ColdFlit, lookahead: Option<RouteEntry>) -> Flit {
        Flit {
            rec: cold.rec,
            dest: cold.dest,
            kind,
            lookahead,
        }
    }

    /// Builds the flits of a message, in injection order, none carrying
    /// look-ahead information.
    ///
    /// `rec` is the per-message record handle the network layer allocated
    /// for the message's bookkeeping (every flit carries it).
    ///
    /// # Panics
    ///
    /// Panics if `length` is zero.
    pub fn message(rec: MsgRef, dest: NodeId, length: u32) -> Vec<Flit> {
        assert!(length > 0, "messages need at least one flit");
        (0..length)
            .map(|seq| Flit {
                rec,
                dest,
                kind: FlitKind::at(seq, length),
                lookahead: None,
            })
            .collect()
    }
}

impl fmt::Display for Flit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "#{} {:?} ->{}", self.rec.0, self.kind, self.dest)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn message_flit_roles() {
        let flits = Flit::message(MsgRef(0), NodeId(5), 4);
        assert_eq!(flits.len(), 4);
        assert_eq!(flits[0].kind, FlitKind::Head);
        assert_eq!(flits[1].kind, FlitKind::Body);
        assert_eq!(flits[2].kind, FlitKind::Body);
        assert_eq!(flits[3].kind, FlitKind::Tail);
        assert!(flits
            .iter()
            .enumerate()
            .all(|(i, f)| f.kind == FlitKind::at(i as u32, 4)));
        assert!(flits
            .iter()
            .all(|f| f.rec == MsgRef(0) && f.dest == NodeId(5) && f.lookahead.is_none()));
    }

    #[test]
    fn single_flit_message_is_headtail() {
        let flits = Flit::message(MsgRef(7), NodeId(2), 1);
        assert_eq!(flits.len(), 1);
        assert_eq!(flits[0].kind, FlitKind::HeadTail);
        assert!(flits[0].kind.is_head());
        assert!(flits[0].kind.is_tail());
    }

    #[test]
    fn head_and_tail_predicates() {
        assert!(FlitKind::Head.is_head());
        assert!(!FlitKind::Head.is_tail());
        assert!(FlitKind::Tail.is_tail());
        assert!(!FlitKind::Tail.is_head());
        assert!(!FlitKind::Body.is_head());
        assert!(!FlitKind::Body.is_tail());
    }

    #[test]
    fn flit_stays_a_small_pod() {
        // The whole point of the lean hot path: a flit must stay two
        // machine words so buffer moves are cheap memcpys. The budget is
        // 16 bytes (rec + dest + kind + compact look-ahead), and a body or
        // tail router slot is the kind byte plus the 8-byte cold part.
        assert!(
            std::mem::size_of::<Flit>() <= 16,
            "Flit grew to {} bytes — keep bookkeeping in the message record",
            std::mem::size_of::<Flit>()
        );
        assert_eq!(std::mem::size_of::<ColdFlit>(), 8);
        assert_eq!(std::mem::size_of::<FlitKind>(), 1);
    }

    #[test]
    fn split_assemble_round_trips() {
        use crate::tables::RouteEntry;
        let mut flits = Flit::message(MsgRef(9), NodeId(6), 3);
        flits[0].lookahead = Some(RouteEntry::local());
        for f in flits {
            let (kind, cold, lookahead) = f.split();
            assert_eq!(Flit::assemble(kind, cold, lookahead), f);
        }
    }

    #[test]
    #[should_panic(expected = "at least one flit")]
    fn zero_length_rejected() {
        let _ = Flit::message(MsgRef(0), NodeId(1), 0);
    }

    #[test]
    fn display_is_compact() {
        let flits = Flit::message(MsgRef(7), NodeId(9), 2);
        assert_eq!(flits[0].to_string(), "#7 Head ->n9");
    }
}
