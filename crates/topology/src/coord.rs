//! n-dimensional coordinates.

use std::fmt;

/// Maximum supported dimensionality.
///
/// The paper's economical-storage argument targets "implementation concerns
/// usually restrict mesh interconnects to small n (typically 2 or 3)"; four
/// dimensions leaves headroom for hypercube-style experiments while keeping
/// [`Coord`] a cheap `Copy` type.
pub const MAX_DIMS: usize = 4;

/// A coordinate in an n-dimensional grid, `n ≤ MAX_DIMS`.
///
/// Stored inline so coordinates stay `Copy` and allocation-free on the
/// simulator's hot path.
///
/// # Example
///
/// ```
/// use lapses_topology::Coord;
///
/// let c = Coord::new(&[3, 5]);
/// assert_eq!(c.dims(), 2);
/// assert_eq!(c[0], 3);
/// assert_eq!(c[1], 5);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Coord {
    pub(crate) dims: u8,
    pub(crate) c: [u16; MAX_DIMS],
}

impl Coord {
    /// Creates a coordinate from per-dimension components.
    ///
    /// # Panics
    ///
    /// Panics if `components` is empty or has more than [`MAX_DIMS`] entries.
    pub fn new(components: &[u16]) -> Self {
        assert!(
            !components.is_empty() && components.len() <= MAX_DIMS,
            "coordinate dimensionality must be 1..={MAX_DIMS}"
        );
        let mut c = [0u16; MAX_DIMS];
        c[..components.len()].copy_from_slice(components);
        Coord {
            dims: components.len() as u8,
            c,
        }
    }

    /// Origin of a `dims`-dimensional grid.
    ///
    /// # Panics
    ///
    /// Panics if `dims` is zero or exceeds [`MAX_DIMS`].
    pub fn origin(dims: usize) -> Self {
        assert!(
            (1..=MAX_DIMS).contains(&dims),
            "coordinate dimensionality must be 1..={MAX_DIMS}"
        );
        Coord {
            dims: dims as u8,
            c: [0; MAX_DIMS],
        }
    }

    /// Number of dimensions.
    #[inline]
    pub fn dims(&self) -> usize {
        self.dims as usize
    }

    /// The components as a slice.
    #[inline]
    pub fn components(&self) -> &[u16] {
        &self.c[..self.dims as usize]
    }

    /// Returns a copy with dimension `dim` set to `value`.
    ///
    /// # Panics
    ///
    /// Panics if `dim` is out of range.
    pub fn with(&self, dim: usize, value: u16) -> Coord {
        assert!(dim < self.dims(), "dimension {dim} out of range");
        let mut out = *self;
        out.c[dim] = value;
        out
    }

    /// Per-dimension signed difference `self - other`.
    ///
    /// # Panics
    ///
    /// Panics if dimensionalities differ.
    pub fn delta(&self, other: &Coord) -> [i32; MAX_DIMS] {
        assert_eq!(self.dims, other.dims, "coordinate dimensionality mismatch");
        let mut d = [0i32; MAX_DIMS];
        for (i, slot) in d.iter_mut().enumerate().take(self.dims()) {
            *slot = self.c[i] as i32 - other.c[i] as i32;
        }
        d
    }
}

impl std::ops::Index<usize> for Coord {
    type Output = u16;

    fn index(&self, dim: usize) -> &u16 {
        assert!(dim < self.dims(), "dimension {dim} out of range");
        &self.c[dim]
    }
}

impl fmt::Debug for Coord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Coord{:?}", self.components())
    }
}

impl fmt::Display for Coord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, v) in self.components().iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{v}")?;
        }
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_access() {
        let c = Coord::new(&[1, 2, 3]);
        assert_eq!(c.dims(), 3);
        assert_eq!(c.components(), &[1, 2, 3]);
        assert_eq!(c[2], 3);
    }

    #[test]
    fn origin_is_all_zero() {
        let o = Coord::origin(2);
        assert_eq!(o.components(), &[0, 0]);
    }

    #[test]
    fn with_replaces_one_dimension() {
        let c = Coord::new(&[4, 7]);
        let c2 = c.with(1, 9);
        assert_eq!(c2.components(), &[4, 9]);
        assert_eq!(c.components(), &[4, 7]); // original untouched
    }

    #[test]
    fn delta_is_signed() {
        let a = Coord::new(&[1, 9]);
        let b = Coord::new(&[5, 2]);
        let d = a.delta(&b);
        assert_eq!(&d[..2], &[-4, 7]);
    }

    #[test]
    #[should_panic(expected = "dimensionality")]
    fn empty_coord_rejected() {
        let _ = Coord::new(&[]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn index_out_of_range_panics() {
        let c = Coord::new(&[1, 2]);
        let _ = c[2];
    }

    #[test]
    fn display_formats_tuple() {
        assert_eq!(Coord::new(&[3, 5]).to_string(), "(3,5)");
    }
}
