//! The network's wires: one fixed-delay ring type, [`DelayRing`], carries
//! arrival events, ejections and credits.

use lapses_core::{Flit, FlitKind, MsgRef};
use lapses_sim::Cycle;
use lapses_topology::{NodeId, Port};

/// A [`WireAddr`] holds the node in its low `NODE_BITS` bits, the port
/// in the next `PORT_BITS` and the VC from `VC_SHIFT` up (6 bits).
pub(crate) const NODE_BITS: u32 = 22;
const PORT_BITS: u32 = 4;
const VC_SHIFT: u32 = NODE_BITS + PORT_BITS;

/// A `(node, port, vc)` address packed into one u32 — the payload of the
/// credit and arrival-event rings, which carry a couple of hundred
/// records per cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct WireAddr(u32);

impl WireAddr {
    #[inline]
    pub fn new(node: NodeId, port: Port, vc: u8) -> WireAddr {
        let addr =
            WireAddr(node.0 | (port.index() as u32) << NODE_BITS | u32::from(vc) << VC_SHIFT);
        debug_assert_eq!(
            (addr.node(), addr.port(), addr.vc()),
            (node.index(), port, vc.into())
        );
        addr
    }

    #[inline]
    pub fn node(self) -> usize {
        (self.0 & ((1 << NODE_BITS) - 1)) as usize
    }

    #[inline]
    pub fn port(self) -> Port {
        Port::from_index((self.0 >> NODE_BITS & ((1 << PORT_BITS) - 1)) as usize)
    }

    #[inline]
    pub fn vc(self) -> usize {
        (self.0 >> VC_SHIFT) as usize
    }
}

/// An ejection in flight toward a NIC sink. The latency statistics only
/// need the message-record handle and the flit's position, so an
/// ejection ships 8 bytes instead of the whole flit.
#[derive(Debug, Clone, Copy)]
pub(crate) struct EjectRecord {
    pub rec: MsgRef,
    pub kind: FlitKind,
}

/// The traffic one shard of the network launches toward another during
/// one cycle (see the `network` module docs): payloads reserved in the
/// other shard's input rings, arrival events and credits. The receiving
/// shard applies it at the start of its next cycle, scheduling the events
/// and credits as if they had been sent during `launched`.
#[derive(Debug)]
pub(crate) struct Outbox {
    /// `StepSink::transfer` payloads, addressed to an input `(node, port,
    /// vc)` of the receiving shard, in reservation order.
    pub reserves: Vec<(WireAddr, Flit)>,
    pub events: Vec<WireAddr>,
    pub credits: Vec<WireAddr>,
    /// The cycle this traffic was launched in.
    pub launched: Cycle,
}

impl Outbox {
    /// An empty outbox with room for `n` records of each kind, so the
    /// thread filling it never allocates.
    pub fn with_capacity(n: usize) -> Outbox {
        Outbox {
            reserves: Vec::with_capacity(n),
            events: Vec::with_capacity(n),
            credits: Vec::with_capacity(n),
            launched: Cycle::ZERO,
        }
    }

    pub fn is_empty(&self) -> bool {
        self.reserves.is_empty() && self.events.is_empty() && self.credits.is_empty()
    }

    /// Empties the outbox, keeping its capacity.
    pub fn clear(&mut self) {
        self.reserves.clear();
        self.events.clear();
        self.credits.clear();
    }
}

/// A fixed-delay wire: what is sent during cycle `t` comes out of
/// [`DelayRing::swap`] at cycle `t + delay`.
///
/// The ring holds `delay + 1` per-cycle buckets: scheduling is O(1) and
/// each cycle's records pop out in FIFO (launch) order, which keeps
/// simulation results independent of router iteration order. Buckets are
/// plain `Vec`s so the network layer can index a cycle's arrivals when it
/// batches them by destination router.
#[derive(Debug)]
pub(crate) struct DelayRing<T> {
    buckets: Vec<Vec<T>>,
    delay: usize,
    /// The cycle whose bucket is `buckets[slot]`, advanced incrementally
    /// so the hot path never computes a modulo. Accesses must be monotone
    /// in time.
    now: u64,
    slot: usize,
    in_flight: usize,
}

impl<T> DelayRing<T> {
    /// A ring delivering `delay` cycles after the send, every bucket
    /// pre-sized for `per_cycle` records.
    ///
    /// # Panics
    ///
    /// Panics if `delay` is zero (same-cycle delivery would break the
    /// stage ordering).
    pub fn new(delay: u64, per_cycle: usize) -> DelayRing<T> {
        assert!(delay >= 1, "wires need at least one cycle of delay");
        DelayRing {
            buckets: (0..=delay).map(|_| Vec::with_capacity(per_cycle)).collect(),
            delay: delay as usize,
            now: 0,
            slot: 0,
            in_flight: 0,
        }
    }

    /// Advances the cursor to `now`: one wrapping increment per cycle.
    ///
    /// # Panics
    ///
    /// Panics if `now` is before the cursor, in release builds too: a
    /// record stamped earlier would silently land late.
    #[inline]
    fn slot_at(&mut self, now: u64) -> usize {
        assert!(now >= self.now, "delivery time went backwards");
        while self.now < now {
            self.now += 1;
            self.slot += 1;
            if self.slot == self.buckets.len() {
                self.slot = 0;
            }
        }
        self.slot
    }

    /// Schedules `value`, sent during `now`, for cycle `now + delay`.
    #[inline]
    pub fn send(&mut self, now: Cycle, value: T) {
        let mut slot = self.slot_at(now.as_u64()) + self.delay;
        if slot >= self.buckets.len() {
            slot -= self.buckets.len();
        }
        self.buckets[slot].push(value);
        self.in_flight += 1;
    }

    /// Swaps the bucket due at `now` with `buf` (which must be empty): the
    /// caller gets the records without copying them, and the bucket
    /// inherits `buf`'s capacity for reuse.
    #[inline]
    pub fn swap(&mut self, now: Cycle, buf: &mut Vec<T>) {
        debug_assert!(buf.is_empty(), "swap target must be empty");
        let slot = self.slot_at(now.as_u64());
        std::mem::swap(&mut self.buckets[slot], buf);
        self.in_flight -= buf.len();
    }

    /// Records sent but not yet swapped out.
    pub fn in_flight(&self) -> usize {
        self.in_flight
    }
}

/// One shard's wires: arrivals toward its routers and ejections toward
/// its NIC sinks, both `link_delay + 1` cycles long, and credits toward
/// its routers' outputs, one cycle long.
#[derive(Debug)]
pub(crate) struct DeliveryQueues {
    /// Arrival events for flits already filed into the input `(node,
    /// port, vc)` at reservation time (`Router::reserve_flit`): the wire
    /// carries a 4-byte address per flit, never the flit itself.
    pub events: DelayRing<WireAddr>,
    pub ejects: DelayRing<EjectRecord>,
    /// Credits toward the upstream router output `(node, port, vc)`.
    pub credits: DelayRing<WireAddr>,
}

impl DeliveryQueues {
    /// Wires whose flits land `flit_delay` cycles after their launch,
    /// every bucket pre-sized for `per_cycle` records.
    pub fn new(flit_delay: u64, per_cycle: usize) -> DeliveryQueues {
        DeliveryQueues {
            events: DelayRing::new(flit_delay, per_cycle),
            ejects: DelayRing::new(flit_delay, per_cycle),
            credits: DelayRing::new(1, per_cycle),
        }
    }

    /// Flits currently on the wire.
    pub fn in_flight(&self) -> usize {
        self.events.in_flight() + self.ejects.in_flight()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::MAX_NODES;
    use lapses_topology::MAX_DIMS;

    fn event(vc: u8) -> WireAddr {
        WireAddr::new(NodeId(2), Port::from_index(1), vc)
    }

    fn arrivals(ring: &mut DelayRing<WireAddr>, now: u64) -> Vec<WireAddr> {
        let mut buf = Vec::new();
        ring.swap(Cycle::new(now), &mut buf);
        buf
    }

    #[test]
    fn wire_addresses_round_trip_at_the_field_edges() {
        let top_port = Port::from_index(2 * MAX_DIMS);
        for (node, port, vc) in [
            (0, Port::LOCAL, 0),
            (MAX_NODES as u32 - 1, top_port, 63),
            (MAX_NODES as u32 - 1, Port::LOCAL, 0),
            (0, top_port, 63),
        ] {
            let addr = WireAddr::new(NodeId(node), port, vc);
            assert_eq!(addr.node(), node as usize);
            assert_eq!(addr.port(), port);
            assert_eq!(addr.vc(), vc as usize);
        }
        assert_eq!(32 - VC_SHIFT, 6, "the VC field holds 64 VCs");
    }

    #[test]
    fn flits_arrive_after_the_link_delay() {
        let mut q = DeliveryQueues::new(1, 0);
        q.events.send(Cycle::new(5), event(0));
        q.ejects.send(
            Cycle::new(5),
            EjectRecord {
                rec: MsgRef(7),
                kind: FlitKind::Tail,
            },
        );
        q.credits
            .send(Cycle::new(5), WireAddr::new(NodeId(0), Port::LOCAL, 1));
        assert_eq!(q.in_flight(), 2, "credits are not flits");
        assert!(arrivals(&mut q.events, 5).is_empty());
        let arrived = arrivals(&mut q.events, 6);
        assert_eq!(arrived, vec![event(0)]);
        assert_eq!(arrived[0].node(), 2);
        let mut ejects = Vec::new();
        q.ejects.swap(Cycle::new(6), &mut ejects);
        assert_eq!(ejects.len(), 1);
        assert_eq!(ejects[0].rec, MsgRef(7));
        assert_eq!(q.in_flight(), 0);
        assert_eq!(q.credits.in_flight(), 1);
        assert_eq!(arrivals(&mut q.credits, 6).len(), 1);
        assert_eq!(q.credits.in_flight(), 0);
    }

    #[test]
    fn longer_delays_are_honored() {
        let mut ring = DelayRing::new(3, 0);
        ring.send(Cycle::new(10), event(1));
        ring.send(Cycle::new(11), event(2));
        assert!(arrivals(&mut ring, 12).is_empty());
        assert_eq!(arrivals(&mut ring, 13), vec![event(1)]);
        assert_eq!(ring.in_flight(), 1);
        assert_eq!(arrivals(&mut ring, 14), vec![event(2)]);
        // The ring wraps: a send long after the first lap still waits
        // exactly `delay` cycles.
        ring.send(Cycle::new(40), event(3));
        assert!(arrivals(&mut ring, 42).is_empty());
        assert_eq!(arrivals(&mut ring, 43), vec![event(3)]);
        assert_eq!(ring.in_flight(), 0);
    }

    #[test]
    fn same_cycle_deliveries_keep_fifo_order() {
        let mut ring = DelayRing::new(1, 0);
        for vc in 0..3 {
            ring.send(Cycle::new(0), event(vc));
        }
        let vcs: Vec<usize> = arrivals(&mut ring, 1).iter().map(|e| e.vc()).collect();
        assert_eq!(vcs, vec![0, 1, 2]);
    }

    #[test]
    fn swap_reuses_the_buffer_capacity() {
        let mut ring = DelayRing::new(1, 0);
        // The bucket due at cycle 0 inherits the empty buffer's capacity...
        let mut buf = Vec::with_capacity(100);
        ring.swap(Cycle::new(0), &mut buf);
        assert!(buf.is_empty());
        // ...and hands it back, filled, when it comes round at cycle 2 (a
        // delay-1 ring has two buckets).
        for vc in 0..4 {
            ring.send(Cycle::new(1), event(vc));
        }
        ring.swap(Cycle::new(1), &mut buf);
        assert!(buf.is_empty());
        let mut arrived = Vec::new();
        ring.swap(Cycle::new(2), &mut arrived);
        assert_eq!(arrived.len(), 4);
        assert!(arrived.capacity() >= 100);
        assert_eq!(ring.in_flight(), 0);
    }

    #[test]
    #[should_panic(expected = "delivery time went backwards")]
    fn event_stamped_before_the_cursor_panics() {
        let mut ring = DelayRing::new(2, 0);
        let _ = arrivals(&mut ring, 7);
        ring.send(Cycle::new(6), event(0));
    }

    #[test]
    #[should_panic(expected = "delivery time went backwards")]
    fn credit_stamped_before_the_cursor_panics() {
        let mut q = DeliveryQueues::new(1, 0);
        let _ = arrivals(&mut q.credits, 4);
        q.credits
            .send(Cycle::new(3), WireAddr::new(NodeId(0), Port::LOCAL, 0));
    }

    #[test]
    #[should_panic(expected = "at least one cycle")]
    fn zero_delay_rejected() {
        let _ = DelayRing::<WireAddr>::new(0, 0);
    }
}
