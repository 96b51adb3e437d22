//! Messages and flits.
//!
//! A message is injected as a sequence of flits — a head flit carrying the
//! routing information, body flits, and a tail flit that releases the
//! virtual channels the message holds (wormhole switching). Under
//! look-ahead routing the hardware head flit additionally carries the
//! candidate-port information for the router it is entering, pre-fetched
//! by the previous router (§3.2, Fig. 4(b)). The model carries none: the
//! table program is static, so that entry is what the receiving router's
//! own table returns, and an LA-PROUD router reads it there at SY (see the
//! `router` module docs).
//!
//! # The lean hot path
//!
//! Flits are the unit the simulator hands around most: a NIC builds one
//! per injected flit, and every hop hands one from a router's crossbar to
//! the network, which files it into the next router.
//! [`Flit`] is therefore a 12-byte `Copy` POD holding only
//! what the router datapath reads — position, destination, and the
//! [`MsgRef`] handle the ejection statistics need. Everything the *statistics* need beyond that (source
//! node, generation and injection timestamps, the measurement flag) lives
//! in a single per-message record owned by the network layer and reached
//! through that handle. No stage needs a message number or a flit index:
//! wormhole switching keeps a message's flits in order on one VC, so a
//! flit's position is fully described by its [`FlitKind`].
//!
//! # Header-only routing state
//!
//! On the wire and at the router's sink and NIC boundaries a flit travels
//! as one [`Flit`] value, but *inside a router* it is stored in two parts
//! (see the `router` module docs):
//!
//! * the [`FlitKind`] — the one field every pipeline stage branches on (is
//!   this a head? a tail?) — is the only per-slot storage: a dense
//!   one-byte-per-slot ring per virtual channel;
//! * the routing state — `rec` and `dest` — is
//!   stored **once per message, with its head** (§3.2, Fig. 4(b): only
//!   the header carries routing state). Body and tail flits follow the
//!   path the head reserved, so a router rebuilds them from the record of
//!   the message streaming through their virtual channel.
//!
//! A body or tail hop therefore moves one byte. Rebuilding is lossless:
//! every flit of a message carries the same `rec` and `dest`; that is what
//! lets the router storage change layout without changing a single
//! simulated bit.

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

/// One flow-control unit traversing the network — a 12-byte `Copy` value.
///
/// Flits are moved by value between buffers and never rewritten on the
/// way: a look-ahead router decodes the head from its own table instead of
/// from a carried entry (see the module docs). Only head flits carry
/// meaningful routing state (`dest`); body and tail flits follow the
/// wormhole path the head reserved, and their statistics ride in the
/// per-message record behind [`Flit::rec`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Flit {
    /// Handle to the per-message record (source, timestamps, measured).
    pub rec: MsgRef,
    /// Destination node of the message (read by head-flit routing only).
    pub dest: NodeId,
    /// Head / body / tail role.
    pub kind: FlitKind,
}

impl Flit {
    /// Builds the flits of a message, in injection order.
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
            .all(|f| f.rec == MsgRef(0) && f.dest == NodeId(5)));
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
        // The whole point of the lean hot path: a flit must stay within
        // two machine words so sink and NIC hand-offs are cheap memcpys.
        // The budget is 12 bytes (rec + dest + kind), and a router slot is
        // the kind byte alone.
        assert!(
            std::mem::size_of::<Flit>() <= 12,
            "Flit grew to {} bytes — keep bookkeeping in the message record",
            std::mem::size_of::<Flit>()
        );
        assert_eq!(std::mem::size_of::<FlitKind>(), 1);
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
