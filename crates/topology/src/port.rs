//! Router ports, directions and candidate-port sets.
//!
//! A router in a k-ary n-mesh has `2n + 1` ports: the *local* port (the
//! paper's "port 0 to exit the interconnection network") plus a ±
//! direction pair per dimension. Adaptive routing functions return a *set*
//! of candidate ports; [`PortSet`] is the compact bitset the routing tables
//! store and the path-selection heuristics consume.

use crate::coord::MAX_DIMS;
use std::fmt;

/// Sign of a destination-relative coordinate component.
///
/// Together with the other dimensions this forms the 3ⁿ-way index of the
/// economical-storage routing table (§5.2.1: `s = sign(d - i)` with
/// `s ∈ {+, -, 0}`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Sign {
    /// Destination component is below the current one.
    Minus,
    /// Destination component matches the current one.
    Zero,
    /// Destination component is above the current one.
    Plus,
}

impl Sign {
    /// Sign of a signed integer difference.
    #[inline]
    pub fn of(delta: i32) -> Sign {
        match delta.cmp(&0) {
            std::cmp::Ordering::Less => Sign::Minus,
            std::cmp::Ordering::Equal => Sign::Zero,
            std::cmp::Ordering::Greater => Sign::Plus,
        }
    }

    /// Ternary digit used when composing the economical-storage table index:
    /// `Zero → 0`, `Plus → 1`, `Minus → 2`.
    #[inline]
    pub fn digit(self) -> usize {
        match self {
            Sign::Zero => 0,
            Sign::Plus => 1,
            Sign::Minus => 2,
        }
    }

    /// The opposite sign; `Zero` is its own opposite.
    #[inline]
    pub fn flipped(self) -> Sign {
        match self {
            Sign::Minus => Sign::Plus,
            Sign::Zero => Sign::Zero,
            Sign::Plus => Sign::Minus,
        }
    }
}

impl fmt::Display for Sign {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Sign::Minus => "-",
            Sign::Zero => "0",
            Sign::Plus => "+",
        })
    }
}

/// A signed axis of travel: dimension plus polarity, e.g. `+X` or `-Y`.
///
/// # Example
///
/// ```
/// use lapses_topology::Direction;
///
/// let east = Direction::plus(0);
/// assert_eq!(east.opposite(), Direction::minus(0));
/// assert_eq!(east.to_string(), "+d0");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Direction {
    dim: u8,
    positive: bool,
}

impl Direction {
    /// The positive direction along `dim`.
    ///
    /// # Panics
    ///
    /// Panics if `dim >= MAX_DIMS`.
    pub fn plus(dim: usize) -> Direction {
        assert!(dim < MAX_DIMS, "dimension {dim} out of range");
        Direction {
            dim: dim as u8,
            positive: true,
        }
    }

    /// The negative direction along `dim`.
    ///
    /// # Panics
    ///
    /// Panics if `dim >= MAX_DIMS`.
    pub fn minus(dim: usize) -> Direction {
        assert!(dim < MAX_DIMS, "dimension {dim} out of range");
        Direction {
            dim: dim as u8,
            positive: false,
        }
    }

    /// The dimension this direction travels along.
    #[inline]
    pub fn dim(self) -> usize {
        self.dim as usize
    }

    /// Whether this is the positive direction of its dimension.
    #[inline]
    pub fn is_positive(self) -> bool {
        self.positive
    }

    /// The sign of travel: `Plus` or `Minus`, never `Zero`.
    #[inline]
    pub fn sign(self) -> Sign {
        if self.positive {
            Sign::Plus
        } else {
            Sign::Minus
        }
    }

    /// The reverse direction.
    #[inline]
    pub fn opposite(self) -> Direction {
        Direction {
            dim: self.dim,
            positive: !self.positive,
        }
    }
}

impl fmt::Display for Direction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}d{}", if self.positive { "+" } else { "-" }, self.dim)
    }
}

/// A router port: the local (exit) port or a mesh direction.
///
/// Ports have a dense index used throughout the simulator for table and
/// arbiter state: index 0 is the local port, and dimension `d` contributes
/// `+d` at index `2d + 1` and `-d` at index `2d + 2`. This ordering makes
/// "lowest port index first" coincide with the paper's STATIC-XY selection
/// preference (X before Y, positive before negative).
///
/// # Example
///
/// ```
/// use lapses_topology::{Direction, Port};
///
/// assert_eq!(Port::LOCAL.index(), 0);
/// let px = Port::from(Direction::plus(0));
/// assert_eq!(px.index(), 1);
/// assert_eq!(px.direction(), Some(Direction::plus(0)));
/// assert_eq!(Port::LOCAL.direction(), None);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Port(u8);

/// Largest number of ports any router can have (`2 * MAX_DIMS + 1`).
pub(crate) const MAX_PORTS: usize = 2 * MAX_DIMS + 1;

impl Port {
    /// The local / network-exit port (the paper's "port 0").
    pub const LOCAL: Port = Port(0);

    /// Reconstructs a port from its dense index.
    ///
    /// # Panics
    ///
    /// Panics if `index >= 2 * MAX_DIMS + 1`.
    pub fn from_index(index: usize) -> Port {
        assert!(index < MAX_PORTS, "port index {index} out of range");
        Port(index as u8)
    }

    /// Dense index of this port.
    #[inline]
    pub const fn index(self) -> usize {
        self.0 as usize
    }

    /// The direction this port faces, or `None` for the local port.
    #[inline]
    pub fn direction(self) -> Option<Direction> {
        if self.0 == 0 {
            return None;
        }
        let i = (self.0 - 1) as usize;
        Some(Direction {
            dim: (i / 2) as u8,
            positive: i.is_multiple_of(2),
        })
    }

    /// Whether this is the local port.
    #[inline]
    pub fn is_local(self) -> bool {
        self.0 == 0
    }
}

impl From<Direction> for Port {
    #[inline]
    fn from(d: Direction) -> Port {
        Port(1 + 2 * d.dim + if d.positive { 0 } else { 1 })
    }
}

impl fmt::Display for Port {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.direction() {
            None => f.write_str("local"),
            Some(d) => d.fmt(f),
        }
    }
}

/// A set of router ports, stored as a bitmask.
///
/// This is the value type of every routing-table entry in the study: a
/// deterministic table stores singleton sets, an adaptive table stores "up
/// to two output-port choices" per entry (for minimal routing in a mesh).
///
/// Iteration order is ascending port index, which equals the STATIC-XY
/// preference order.
///
/// # Example
///
/// ```
/// use lapses_topology::{Direction, Port, PortSet};
///
/// let mut s = PortSet::EMPTY;
/// s.insert(Port::from(Direction::plus(1)));
/// s.insert(Port::from(Direction::plus(0)));
/// assert_eq!(s.len(), 2);
/// let first = s.iter().next().unwrap(); // X preferred over Y
/// assert_eq!(first, Port::from(Direction::plus(0)));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct PortSet(u16);

impl PortSet {
    /// The empty set.
    pub const EMPTY: PortSet = PortSet(0);

    /// A set containing only `port`.
    #[inline]
    pub fn single(port: Port) -> PortSet {
        PortSet(1 << port.index())
    }

    /// Adds a port; returns whether it was newly inserted.
    #[inline]
    pub fn insert(&mut self, port: Port) -> bool {
        let bit = 1 << port.index();
        let fresh = self.0 & bit == 0;
        self.0 |= bit;
        fresh
    }

    /// Removes a port; returns whether it was present.
    #[inline]
    pub fn remove(&mut self, port: Port) -> bool {
        let bit = 1 << port.index();
        let present = self.0 & bit != 0;
        self.0 &= !bit;
        present
    }

    /// Membership test.
    #[inline]
    pub fn contains(self, port: Port) -> bool {
        self.0 & (1 << port.index()) != 0
    }

    /// Number of ports in the set.
    #[inline]
    pub fn len(self) -> usize {
        self.0.count_ones() as usize
    }

    /// Whether the set is empty.
    #[inline]
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// Set union.
    #[inline]
    pub fn union(self, other: PortSet) -> PortSet {
        PortSet(self.0 | other.0)
    }

    /// Set intersection.
    #[inline]
    pub fn intersection(self, other: PortSet) -> PortSet {
        PortSet(self.0 & other.0)
    }

    /// Ports in `self` but not in `other`.
    #[inline]
    pub fn difference(self, other: PortSet) -> PortSet {
        PortSet(self.0 & !other.0)
    }

    /// Whether every port of `self` is in `other`.
    #[inline]
    pub fn is_subset(self, other: PortSet) -> bool {
        self.0 & !other.0 == 0
    }

    /// The lowest-index port, or `None` when empty. Under the port
    /// numbering this is the STATIC-XY choice.
    #[inline]
    pub fn first(self) -> Option<Port> {
        if self.0 == 0 {
            None
        } else {
            Some(Port(self.0.trailing_zeros() as u8))
        }
    }

    /// Iterates ports in ascending index order.
    pub fn iter(self) -> Iter {
        Iter(self.0)
    }

    /// The set whose raw bitmask is `bits` — the inverse of
    /// [`PortSet::bits`], for compact per-pair stores.
    ///
    /// # Panics
    ///
    /// Panics if a set bit names no port (index `2 * MAX_DIMS + 1` or
    /// above).
    #[inline]
    pub fn from_bits(bits: u16) -> PortSet {
        assert!(
            bits >> MAX_PORTS == 0,
            "port bitmask {bits:#x} out of range"
        );
        PortSet(bits)
    }

    /// Raw bitmask (bit *i* set ⇔ port with index *i* present). Exposed for
    /// storage-cost accounting in the table-size analysis.
    #[inline]
    pub fn bits(self) -> u16 {
        self.0
    }
}

impl FromIterator<Port> for PortSet {
    fn from_iter<T: IntoIterator<Item = Port>>(iter: T) -> Self {
        let mut s = PortSet::EMPTY;
        for p in iter {
            s.insert(p);
        }
        s
    }
}

impl Extend<Port> for PortSet {
    fn extend<T: IntoIterator<Item = Port>>(&mut self, iter: T) {
        for p in iter {
            self.insert(p);
        }
    }
}

impl IntoIterator for PortSet {
    type Item = Port;
    type IntoIter = Iter;

    fn into_iter(self) -> Iter {
        self.iter()
    }
}

impl fmt::Display for PortSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, p) in self.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{p}")?;
        }
        write!(f, "}}")
    }
}

/// Iterator over the ports of a [`PortSet`] in ascending index order.
#[derive(Debug, Clone)]
pub struct Iter(u16);

impl Iterator for Iter {
    type Item = Port;

    fn next(&mut self) -> Option<Port> {
        if self.0 == 0 {
            return None;
        }
        let idx = self.0.trailing_zeros();
        self.0 &= self.0 - 1;
        Some(Port(idx as u8))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = self.0.count_ones() as usize;
        (n, Some(n))
    }
}

impl ExactSizeIterator for Iter {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sign_of_matches_ordering() {
        assert_eq!(Sign::of(-3), Sign::Minus);
        assert_eq!(Sign::of(0), Sign::Zero);
        assert_eq!(Sign::of(9), Sign::Plus);
    }

    #[test]
    fn sign_digits_are_distinct() {
        let digits = [Sign::Zero.digit(), Sign::Plus.digit(), Sign::Minus.digit()];
        assert_eq!(digits, [0, 1, 2]);
        assert_eq!(Sign::Plus.flipped(), Sign::Minus);
        assert_eq!(Sign::Zero.flipped(), Sign::Zero);
    }

    #[test]
    fn direction_roundtrips_through_port() {
        for dim in 0..MAX_DIMS {
            for d in [Direction::plus(dim), Direction::minus(dim)] {
                let p = Port::from(d);
                assert_eq!(p.direction(), Some(d));
                assert!(!p.is_local());
                assert_eq!(Port::from_index(p.index()), p);
            }
        }
        assert_eq!(Port::LOCAL.direction(), None);
        assert!(Port::LOCAL.is_local());
    }

    #[test]
    fn port_indices_are_dense_and_distinct() {
        let mut seen = std::collections::HashSet::new();
        seen.insert(Port::LOCAL.index());
        for dim in 0..MAX_DIMS {
            seen.insert(Port::from(Direction::plus(dim)).index());
            seen.insert(Port::from(Direction::minus(dim)).index());
        }
        assert_eq!(seen.len(), MAX_PORTS);
        assert_eq!(*seen.iter().max().unwrap(), MAX_PORTS - 1);
    }

    #[test]
    fn x_ports_precede_y_ports() {
        // STATIC-XY relies on this ordering.
        assert!(Port::from(Direction::plus(0)).index() < Port::from(Direction::plus(1)).index());
        assert!(Port::from(Direction::minus(0)).index() < Port::from(Direction::plus(1)).index());
    }

    #[test]
    fn portset_basic_operations() {
        let mut s = PortSet::EMPTY;
        assert!(s.is_empty());
        let px = Port::from(Direction::plus(0));
        let py = Port::from(Direction::plus(1));
        assert!(s.insert(px));
        assert!(!s.insert(px)); // duplicate
        s.insert(py);
        assert_eq!(s.len(), 2);
        assert!(s.contains(px));
        assert!(!s.contains(Port::LOCAL));
        assert!(s.remove(py));
        assert!(!s.remove(py));
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn portset_iterates_in_static_xy_order() {
        let py = Port::from(Direction::minus(1));
        let px = Port::from(Direction::plus(0));
        let s: PortSet = [py, px].into_iter().collect();
        let order: Vec<Port> = s.iter().collect();
        assert_eq!(order, vec![px, py]);
        assert_eq!(s.first(), Some(px));
    }

    #[test]
    fn portset_algebra() {
        let px = Port::from(Direction::plus(0));
        let py = Port::from(Direction::plus(1));
        let a = PortSet::single(px);
        let b = PortSet::single(py);
        let u = a.union(b);
        assert_eq!(u.len(), 2);
        assert_eq!(u.intersection(a), a);
        assert_eq!(u.difference(a), b);
        assert!(a.is_subset(u));
        assert!(!u.is_subset(a));
    }

    #[test]
    fn empty_portset_first_is_none() {
        assert_eq!(PortSet::EMPTY.first(), None);
        assert_eq!(PortSet::EMPTY.iter().count(), 0);
    }

    #[test]
    fn display_forms() {
        let px = Port::from(Direction::plus(0));
        assert_eq!(px.to_string(), "+d0");
        assert_eq!(Port::LOCAL.to_string(), "local");
        let s: PortSet = [Port::LOCAL, px].into_iter().collect();
        assert_eq!(s.to_string(), "{local,+d0}");
        assert_eq!(Sign::Minus.to_string(), "-");
    }

    #[test]
    fn iter_size_hint_is_exact() {
        let s: PortSet = [Port::LOCAL, Port::from(Direction::minus(1))]
            .into_iter()
            .collect();
        let it = s.iter();
        assert_eq!(it.size_hint(), (2, Some(2)));
        assert_eq!(it.len(), 2);
    }
}
