//! Network interfaces: injection queues and ejection sinks.

use lapses_core::{Flit, FlitKind, MsgRef};
use lapses_topology::NodeId;
use std::collections::VecDeque;

/// An offered message: everything its flits are made of, plus the source
/// NIC it is queued at (which picks the shard that owns it). The NIC
/// synthesizes each flit when it injects it, so queueing a message
/// allocates nothing per message.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Message {
    /// Handle to the network's per-message record.
    pub rec: MsgRef,
    /// Source node.
    pub src: NodeId,
    /// Destination node.
    pub dest: NodeId,
    /// Flits in the message (at least one).
    pub length: u32,
}

impl Message {
    /// Flit `seq` of the message (head = 0).
    #[inline]
    fn flit(&self, seq: u32) -> Flit {
        Flit {
            rec: self.rec,
            dest: self.dest,
            kind: FlitKind::at(seq, self.length),
        }
    }
}

/// One injection virtual channel: the message currently streaming into
/// the router on this VC plus its credit pool, kept together so the
/// per-cycle injection scan touches one contiguous record per VC instead
/// of parallel arrays in separate allocations.
#[derive(Debug)]
struct InjectVc {
    /// The streaming message; its flits are sent front-to-back via `sent`.
    msg: Message,
    /// Flits already handed to the router.
    sent: u32,
    /// Credits for the router's local input buffer on this VC.
    credits: u32,
}

impl InjectVc {
    /// Whether the previous message has fully streamed (VC free to bind).
    #[inline]
    fn is_drained(&self) -> bool {
        self.sent == self.msg.length
    }
}

/// The per-node network interface.
///
/// Holds an unbounded source queue of generated messages (source queueing
/// time is measured separately from network latency), streams message flits
/// into the router's local input port — at most one flit per cycle, the
/// injection channel's bandwidth — and tracks per-VC credits for the local
/// input buffers exactly like an upstream router would.
///
/// The NIC is a pure flit pump: it queues one compact [`Message`] per
/// message and builds each flit from it as the flit is injected.
/// Injection timestamps and measurement flags live in the network's
/// per-message records, stamped by the network when the head flit
/// actually enters the router.
///
/// # Activity
///
/// [`Nic::has_injectable`] tells the scheduler whether polling the NIC
/// could do anything. NIC state changes only through [`Nic::enqueue`],
/// [`Nic::credit`] and [`Nic::inject`] itself, so a NIC that reports no
/// injectable work stays frozen until a new message or credit arrives —
/// skipping its poll is exactly equivalent to polling it.
#[derive(Debug)]
pub(crate) struct Nic {
    /// Messages waiting for a free injection VC.
    source_queue: VecDeque<Message>,
    /// Per-VC streaming state and credits.
    lanes: Vec<InjectVc>,
    /// Round-robin pointers for VC assignment and injection.
    assign_next: usize,
    inject_next: usize,
}

impl Nic {
    /// Creates a NIC with `vcs` injection VCs, each with `buffer_depth`
    /// credits (the router's local input buffer depth).
    pub fn new(vcs: usize, buffer_depth: usize) -> Nic {
        assert!(vcs > 0, "NIC needs at least one VC");
        Nic {
            source_queue: VecDeque::new(),
            lanes: (0..vcs)
                .map(|_| InjectVc {
                    msg: Message {
                        rec: MsgRef(u32::MAX),
                        src: NodeId(u32::MAX),
                        dest: NodeId(u32::MAX),
                        length: 0,
                    },
                    sent: 0,
                    credits: buffer_depth as u32,
                })
                .collect(),
            assign_next: 0,
            inject_next: 0,
        }
    }

    /// Queues a message for injection.
    ///
    /// # Panics
    ///
    /// Panics if the message is empty.
    pub fn enqueue(&mut self, msg: Message) {
        assert!(msg.length > 0, "empty message");
        self.source_queue.push_back(msg);
    }

    /// Produces at most one flit to hand to the router's local input port
    /// this cycle, with the VC it enters.
    ///
    /// A waiting message is first bound to a free VC (one whose previous
    /// message has fully streamed), then one flit across all VCs is
    /// released, subject to credits.
    pub fn inject(&mut self) -> Option<(usize, Flit)> {
        let vcs = self.lanes.len();
        // Bind the next waiting message to a free VC.
        if !self.source_queue.is_empty() {
            let mut vc = self.assign_next;
            for _ in 0..vcs {
                if self.lanes[vc].is_drained() {
                    let msg = self.source_queue.pop_front().expect("non-empty");
                    let lane = &mut self.lanes[vc];
                    lane.msg = msg;
                    lane.sent = 0;
                    self.assign_next = vc + 1;
                    if self.assign_next == vcs {
                        self.assign_next = 0;
                    }
                    break;
                }
                vc += 1;
                if vc == vcs {
                    vc = 0;
                }
            }
        }
        // One flit per cycle across all VCs, subject to credits.
        let mut vc = self.inject_next;
        for _ in 0..vcs {
            let lane = &mut self.lanes[vc];
            if lane.credits > 0 && !lane.is_drained() {
                let flit = lane.msg.flit(lane.sent);
                lane.sent += 1;
                lane.credits -= 1;
                self.inject_next = vc + 1;
                if self.inject_next == vcs {
                    self.inject_next = 0;
                }
                return Some((vc, flit));
            }
            vc += 1;
            if vc == vcs {
                vc = 0;
            }
        }
        None
    }

    /// Credit returned by the router for local input VC `vc`.
    pub fn credit(&mut self, vc: usize) {
        self.lanes[vc].credits += 1;
    }

    /// Whether a call to [`Nic::inject`] could make progress: either a
    /// waiting message can be bound to a free VC, or some streaming VC
    /// holds flits and credits. When this is false the NIC is frozen until
    /// the next [`Nic::enqueue`] or [`Nic::credit`].
    pub fn has_injectable(&self) -> bool {
        if !self.source_queue.is_empty() && self.lanes.iter().any(InjectVc::is_drained) {
            return true;
        }
        self.lanes
            .iter()
            .any(|lane| lane.credits > 0 && !lane.is_drained())
    }

    /// Messages generated but not yet fully streamed into the router
    /// (the ground truth behind the network's O(1) backlog counter).
    #[cfg(test)]
    pub fn backlog(&self) -> usize {
        self.source_queue.len() + self.lanes.iter().filter(|l| !l.is_drained()).count()
    }

    /// Whether the NIC holds no pending traffic.
    pub fn is_idle(&self) -> bool {
        self.source_queue.is_empty() && self.lanes.iter().all(InjectVc::is_drained)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn msg(id: u32, len: u32) -> Message {
        Message {
            rec: MsgRef(id),
            src: NodeId(0),
            dest: NodeId(3),
            length: len,
        }
    }

    /// Injects every flit of a lone message through a one-VC NIC.
    fn stream(m: Message) -> Vec<Flit> {
        let mut nic = Nic::new(1, 32);
        nic.enqueue(m);
        let flits: Vec<Flit> = std::iter::from_fn(|| nic.inject().map(|(_, f)| f)).collect();
        assert!(nic.is_idle());
        flits
    }

    #[test]
    fn synthesized_flits_have_message_order() {
        for (len, kinds) in [
            (1, vec![FlitKind::HeadTail]),
            (2, vec![FlitKind::Head, FlitKind::Tail]),
            (
                20,
                std::iter::once(FlitKind::Head)
                    .chain(std::iter::repeat_n(FlitKind::Body, 18))
                    .chain(std::iter::once(FlitKind::Tail))
                    .collect(),
            ),
        ] {
            let flits = stream(msg(7, len));
            let got: Vec<FlitKind> = flits.iter().map(|f| f.kind).collect();
            assert_eq!(got, kinds, "length {len}");
            // The NIC streams exactly `Flit::message`.
            assert_eq!(flits, Flit::message(MsgRef(7), NodeId(3), len));
        }
    }

    #[test]
    fn one_flit_per_cycle() {
        let mut nic = Nic::new(4, 20);
        nic.enqueue(msg(1, 3));
        let mut count = 0;
        for _ in 0..10 {
            if nic.inject().is_some() {
                count += 1;
            }
        }
        assert_eq!(count, 3);
        assert!(nic.is_idle());
    }

    #[test]
    fn message_stays_on_one_vc() {
        let mut nic = Nic::new(4, 20);
        nic.enqueue(msg(1, 3));
        let mut vcs = Vec::new();
        for _ in 0..3 {
            let (vc, _) = nic.inject().expect("flit available");
            vcs.push(vc);
        }
        assert!(vcs.windows(2).all(|w| w[0] == w[1]), "message changed VC");
    }

    #[test]
    fn credits_gate_injection() {
        let mut nic = Nic::new(1, 2);
        nic.enqueue(msg(1, 4));
        assert!(nic.inject().is_some());
        assert!(nic.inject().is_some());
        // Credits exhausted.
        assert!(nic.inject().is_none());
        nic.credit(0);
        assert!(nic.inject().is_some());
    }

    #[test]
    fn concurrent_messages_use_distinct_vcs() {
        let mut nic = Nic::new(2, 20);
        nic.enqueue(msg(1, 10));
        nic.enqueue(msg(2, 10));
        let (vc_a, flit_a) = nic.inject().expect("flit");
        let (vc_b, flit_b) = nic.inject().expect("flit");
        assert_ne!(vc_a, vc_b);
        assert_ne!(flit_a.rec, flit_b.rec);
        assert_eq!(nic.backlog(), 2); // both still streaming
    }

    #[test]
    fn backlog_counts_waiting_and_streaming() {
        let mut nic = Nic::new(1, 20);
        nic.enqueue(msg(1, 2));
        nic.enqueue(msg(2, 2));
        nic.enqueue(msg(3, 2));
        assert_eq!(nic.backlog(), 3);
        let _ = nic.inject();
        // msg 1 streaming, msgs 2 and 3 waiting.
        assert_eq!(nic.backlog(), 3);
        let _ = nic.inject(); // tail of msg 1
        assert_eq!(nic.backlog(), 2);
    }

    #[test]
    fn injectability_tracks_credits_and_queue() {
        let mut nic = Nic::new(1, 1);
        assert!(!nic.has_injectable(), "fresh NIC has nothing to do");
        nic.enqueue(msg(1, 2));
        assert!(nic.has_injectable(), "waiting message binds to a free VC");
        let _ = nic.inject(); // head consumes the single credit
        assert!(
            !nic.has_injectable(),
            "credit-starved NIC must report frozen"
        );
        nic.credit(0);
        assert!(nic.has_injectable(), "credit return unfreezes the NIC");
        let _ = nic.inject(); // tail
        assert!(!nic.has_injectable());
        assert!(nic.is_idle());
    }

    #[test]
    fn binding_backlogged_message_reports_injectable() {
        // Two messages on one VC: while the first streams the second
        // cannot bind, so injectability is driven by credits alone.
        let mut nic = Nic::new(1, 20);
        nic.enqueue(msg(1, 2));
        nic.enqueue(msg(2, 2));
        let _ = nic.inject();
        assert!(nic.has_injectable(), "first message still streaming");
        let _ = nic.inject(); // tail of msg 1 frees the VC
        assert!(nic.has_injectable(), "second message can now bind");
    }
}
