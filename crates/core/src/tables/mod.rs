//! Routing-table storage schemes (§5 of the paper).
//!
//! Table-based routers store, per destination, the set of crossbar output
//! ports a message may take. The paper compares three ways of organizing
//! that storage — and this module implements all of them, plus interval
//! routing for the Table 5 comparison:
//!
//! * [`FullTable`] — one entry per destination node (`N` entries/router);
//!   complete flexibility, poor scalability. (Cray T3D/T3E, S3.mp.)
//! * [`MetaTable`] — two-level hierarchical routing over a cluster labeling
//!   (`N/m + m` entries); loses adaptivity at cluster boundaries, which §5.2.2
//!   shows is disastrous for 2-D meshes.
//! * [`EconomicalTable`] — the paper's proposal: index by the per-dimension
//!   *sign* of the destination-relative coordinates, needing only `3ⁿ`
//!   entries (9 for 2-D, 27 for 3-D) with **zero** loss of routing
//!   flexibility for source-relative algorithms.
//! * [`IntervalTable`] — one interval per output port (Transputer C-104);
//!   smallest possible but deterministic and labeling-sensitive.
//!
//! A scheme is a *program*: it answers [`TableScheme::entry`] for every
//! (router, destination) pair, exactly as the per-router hardware tables
//! would after being configured for a routing algorithm. A program is a
//! function of the topology and the relation alone: dead links reach a
//! table only through a relation that routes around them (up*/down*),
//! which checks its own routes against the surviving links. Every router
//! shares the program and reads only its own entries; under look-ahead
//! routing (§3.2) the entry an upstream router fetches for a neighbor is
//! that neighbor's own entry, so the router model reads it there.

use lapses_routing::RoutingAlgorithm;
use lapses_topology::{Mesh, NodeId, Port, PortSet};
use std::fmt;

mod cost;
mod economical;
mod full;
mod interval;
mod meta;

pub use cost::{scheme_comparison, SchemeCost, StorageCost};
pub use economical::EconomicalTable;
pub use full::FullTable;
pub use interval::IntervalTable;
pub use meta::MetaTable;

/// One routing-table entry: the route options for one destination (or
/// destination class) at one router.
///
/// `candidates` is the adaptive candidate-port set ("up to two output-port
/// choices" for 2-D minimal routing); `escape` is the deterministic escape
/// route used by Duato-style escape virtual channels, always a member of
/// `candidates`; `escape_subclass` selects the dateline class on tori.
///
/// At the destination router the entry is [`RouteEntry::local`]: the single
/// candidate is the local exit port.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RouteEntry {
    /// Adaptive candidate output ports.
    pub candidates: PortSet,
    /// Deterministic escape route (`None` only in unprogrammed entries).
    pub escape: Option<Port>,
    /// Escape virtual-channel subclass (dateline class; 0 on meshes).
    pub escape_subclass: u8,
}

impl RouteEntry {
    /// The entry used when the message has arrived: exit via the local port.
    pub fn local() -> RouteEntry {
        RouteEntry {
            candidates: PortSet::single(Port::LOCAL),
            escape: Some(Port::LOCAL),
            escape_subclass: 0,
        }
    }

    /// An unprogrammed entry (used for sign combinations that cannot occur
    /// at a given router, e.g. `(-,-)` at the mesh origin).
    pub fn unprogrammed() -> RouteEntry {
        RouteEntry {
            candidates: PortSet::EMPTY,
            escape: None,
            escape_subclass: 0,
        }
    }

    /// The entry `algo` programs at `node` for `dest`: [`RouteEntry::local`]
    /// at the destination, else the algorithm's
    /// [`route`](RoutingAlgorithm::route).
    pub(crate) fn compile(
        algo: &dyn RoutingAlgorithm,
        mesh: &Mesh,
        node: NodeId,
        dest: NodeId,
    ) -> RouteEntry {
        if node == dest {
            return RouteEntry::local();
        }
        let (candidates, escape, escape_subclass) = algo.route(mesh, node, dest);
        RouteEntry {
            candidates,
            escape,
            escape_subclass: escape_subclass as u8,
        }
    }

    /// Whether this entry routes to the local exit port.
    pub fn is_local(&self) -> bool {
        self.candidates == PortSet::single(Port::LOCAL)
    }
}

impl fmt::Display for RouteEntry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.candidates)?;
        if let Some(e) = self.escape {
            write!(f, " esc {e}")?;
            if self.escape_subclass != 0 {
                write!(f, ".{}", self.escape_subclass)?;
            }
        }
        Ok(())
    }
}

/// A programmed routing-table scheme covering every router of a topology.
///
/// Conceptually each router holds its own table; the program owns all of
/// them (hardware would flash each router separately, a simulator shares
/// the storage). All queries are total over valid node pairs.
pub trait TableScheme: fmt::Debug + Send + Sync {
    /// A short name for reports ("full", "meta", "economical", "interval").
    fn name(&self) -> &'static str;

    /// The topology this program was compiled for.
    fn mesh(&self) -> &Mesh;

    /// The table entry consulted by router `node` for destination `dest`.
    ///
    /// Returns [`RouteEntry::local`] when `node == dest`.
    fn entry(&self, node: NodeId, dest: NodeId) -> RouteEntry;

    /// Hardware storage cost of one router's table under this scheme.
    fn storage(&self) -> StorageCost;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn local_entry_shape() {
        let e = RouteEntry::local();
        assert!(e.is_local());
        assert_eq!(e.escape, Some(Port::LOCAL));
        assert_eq!(e.to_string(), "{local} esc local");
    }

    #[test]
    fn unprogrammed_entry_is_empty() {
        let e = RouteEntry::unprogrammed();
        assert!(e.candidates.is_empty());
        assert_eq!(e.escape, None);
        assert!(!e.is_local());
    }
}
