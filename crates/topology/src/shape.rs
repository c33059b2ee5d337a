//! Slice shapes and the paper's twistability classification.

use crate::{Coord3, Dim, TopologyError};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Twistability of a slice shape, per §2.8–§2.9 of the paper.
///
/// Only shapes of the form `n×n×2n` or `n×2n×2n` can be rewired into a
/// twisted torus; production additionally requires `n ≥ 4` because the OCS
/// fabric stitches 4³ building blocks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Twistability {
    /// `n×n×2n` — the symmetric twistable family (e.g. 4×4×8).
    SquareDoubled {
        /// The short-dimension size `n`.
        n: u32,
    },
    /// `n×2n×2n` — the rectangular twistable family (e.g. 4×8×8).
    DoubledDoubled {
        /// The short-dimension size `n`.
        n: u32,
    },
    /// The shape cannot be twisted.
    NotTwistable,
}

/// The geometry of a TPU slice: chips along x, y and z.
///
/// The software scheduler in the paper requires `x ≤ y ≤ z`
/// ([`SliceShape::to_canonical`]); the topology layer itself accepts any
/// ordering. All dimensions must be nonzero.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct SliceShape {
    x: u32,
    y: u32,
    z: u32,
}

impl SliceShape {
    /// Creates a shape.
    ///
    /// # Errors
    ///
    /// Returns [`TopologyError::ZeroDimension`] if any dimension is zero.
    pub fn new(x: u32, y: u32, z: u32) -> Result<SliceShape, TopologyError> {
        if x == 0 || y == 0 || z == 0 {
            return Err(TopologyError::ZeroDimension);
        }
        Ok(SliceShape { x, y, z })
    }

    /// The symmetric cube `k×k×k`.
    ///
    /// # Errors
    ///
    /// Returns [`TopologyError::ZeroDimension`] if `k` is zero.
    pub fn cube(k: u32) -> Result<SliceShape, TopologyError> {
        SliceShape::new(k, k, k)
    }

    /// Size along x.
    pub fn x(self) -> u32 {
        self.x
    }

    /// Size along y.
    pub fn y(self) -> u32 {
        self.y
    }

    /// Size along z.
    pub fn z(self) -> u32 {
        self.z
    }

    /// Size along the given dimension.
    pub fn extent(self, dim: Dim) -> u32 {
        match dim {
            Dim::X => self.x,
            Dim::Y => self.y,
            Dim::Z => self.z,
        }
    }

    /// Number of chips in the slice.
    pub fn volume(self) -> u64 {
        u64::from(self.x) * u64::from(self.y) * u64::from(self.z)
    }

    /// Returns the same extents sorted so that `x ≤ y ≤ z`.
    pub fn to_canonical(self) -> SliceShape {
        let mut dims = [self.x, self.y, self.z];
        dims.sort_unstable();
        SliceShape {
            x: dims[0],
            y: dims[1],
            z: dims[2],
        }
    }

    /// Whether every dimension is a multiple of 4, i.e. the shape can be
    /// assembled from the 4³ building blocks of §2.1.
    pub fn is_block_aligned(self) -> bool {
        self.x.is_multiple_of(4) && self.y.is_multiple_of(4) && self.z.is_multiple_of(4)
    }

    /// Shape measured in 4³ blocks rather than chips.
    ///
    /// Returns `None` when the shape is not block aligned.
    pub fn in_blocks(self) -> Option<SliceShape> {
        if self.is_block_aligned() {
            Some(SliceShape {
                x: self.x / 4,
                y: self.y / 4,
                z: self.z / 4,
            })
        } else {
            None
        }
    }

    /// Geometric twistability classification (any `n ≥ 1`).
    ///
    /// Canonicalizes the shape first, so `8×4×4` classifies like `4×4×8`.
    pub fn twistability(self) -> Twistability {
        let c = self.to_canonical();
        if c.y == c.x && c.z == 2 * c.x {
            Twistability::SquareDoubled { n: c.x }
        } else if c.y == 2 * c.x && c.z == 2 * c.x {
            Twistability::DoubledDoubled { n: c.x }
        } else {
            Twistability::NotTwistable
        }
    }

    /// Production twistability rule from §2.9: twistable geometry **and**
    /// `n ≥ 4` (the slice is made of whole 4³ blocks).
    pub fn is_production_twistable(self) -> bool {
        match self.twistability() {
            Twistability::SquareDoubled { n } | Twistability::DoubledDoubled { n } => n >= 4,
            Twistability::NotTwistable => false,
        }
    }

    /// Linear node index of a coordinate (x innermost).
    ///
    /// # Panics
    ///
    /// Panics in debug builds if the coordinate is outside the shape.
    pub fn index_of(self, c: Coord3) -> u32 {
        debug_assert!(c.x < self.x && c.y < self.y && c.z < self.z);
        c.x + self.x * (c.y + self.y * c.z)
    }

    /// Coordinate of a linear node index.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `index ≥ volume()`.
    pub fn coord_of(self, index: u32) -> Coord3 {
        debug_assert!(u64::from(index) < self.volume());
        let x = index % self.x;
        let y = (index / self.x) % self.y;
        let z = index / (self.x * self.y);
        Coord3 { x, y, z }
    }

    /// Iterates over every coordinate in the shape in index order.
    pub fn coords(self) -> impl Iterator<Item = Coord3> {
        let shape = self;
        (0..shape.volume() as u32).map(move |i| shape.coord_of(i))
    }
}

impl fmt::Display for SliceShape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}x{}x{}", self.x, self.y, self.z)
    }
}

/// The most cubic `x×y×z` factorization of `n` (minimal `z − x` over all
/// `x ≤ y ≤ z` with `x·y·z = n`): how a fleet of `n` blocks is arranged
/// into a block grid (64 → 4×4×4), and how a slice of `n` blocks is
/// boxed for contiguous placement on a statically-cabled machine.
///
/// Returns `(1, 1, 0)` shaped degenerately for `n == 0` — callers pass
/// positive counts.
pub fn most_cubic_box(n: u32) -> (u32, u32, u32) {
    let mut best = (1, 1, n);
    let mut spread = u32::MAX;
    for x in 1..=n {
        if x * x * x > n {
            break;
        }
        if !n.is_multiple_of(x) {
            continue;
        }
        let rest = n / x;
        for y in x..=rest {
            if y * y > rest {
                break;
            }
            if !rest.is_multiple_of(y) {
                continue;
            }
            let z = rest / y;
            if z - x < spread {
                spread = z - x;
                best = (x, y, z);
            }
        }
    }
    best
}

impl TryFrom<(u32, u32, u32)> for SliceShape {
    type Error = TopologyError;

    fn try_from((x, y, z): (u32, u32, u32)) -> Result<SliceShape, TopologyError> {
        SliceShape::new(x, y, z)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_zero_dimension() {
        assert_eq!(
            SliceShape::new(0, 4, 4).unwrap_err(),
            TopologyError::ZeroDimension
        );
        assert_eq!(
            SliceShape::new(4, 0, 4).unwrap_err(),
            TopologyError::ZeroDimension
        );
        assert_eq!(
            SliceShape::new(4, 4, 0).unwrap_err(),
            TopologyError::ZeroDimension
        );
    }

    #[test]
    fn volume_and_extents() {
        let s = SliceShape::new(4, 8, 16).unwrap();
        assert_eq!(s.volume(), 512);
        assert_eq!(s.extent(Dim::X), 4);
        assert_eq!(s.extent(Dim::Y), 8);
        assert_eq!(s.extent(Dim::Z), 16);
    }

    #[test]
    fn canonical_ordering() {
        let s = SliceShape::new(16, 4, 8).unwrap();
        assert!(!(s.x <= s.y && s.y <= s.z));
        let c = s.to_canonical();
        assert_eq!(c, SliceShape::new(4, 8, 16).unwrap());
        assert!(c.x <= c.y && c.y <= c.z);
    }

    #[test]
    fn index_coord_roundtrip() {
        let s = SliceShape::new(3, 5, 7).unwrap();
        for i in 0..s.volume() as u32 {
            assert_eq!(s.index_of(s.coord_of(i)), i);
        }
    }

    #[test]
    fn coords_iterator_covers_all_nodes_once() {
        let s = SliceShape::new(4, 4, 8).unwrap();
        let coords: Vec<_> = s.coords().collect();
        assert_eq!(coords.len() as u64, s.volume());
        let mut seen = std::collections::HashSet::new();
        for c in coords {
            assert!(seen.insert(c));
        }
    }

    #[test]
    fn twistability_families_match_paper_examples() {
        // Table 2 twisted shapes.
        assert_eq!(
            SliceShape::new(4, 4, 8).unwrap().twistability(),
            Twistability::SquareDoubled { n: 4 }
        );
        assert_eq!(
            SliceShape::new(4, 8, 8).unwrap().twistability(),
            Twistability::DoubledDoubled { n: 4 }
        );
        assert_eq!(
            SliceShape::new(8, 8, 16).unwrap().twistability(),
            Twistability::SquareDoubled { n: 8 }
        );
        assert_eq!(
            SliceShape::new(8, 16, 16).unwrap().twistability(),
            Twistability::DoubledDoubled { n: 8 }
        );
        // Regular tori from Table 2 that must not classify as twistable.
        for (x, y, z) in [
            (4u32, 4, 4),
            (8, 8, 8),
            (4, 4, 12),
            (4, 8, 12),
            (12, 16, 16),
        ] {
            assert_eq!(
                SliceShape::new(x, y, z).unwrap().twistability(),
                Twistability::NotTwistable,
                "{x}x{y}x{z}"
            );
        }
    }

    #[test]
    fn production_twistable_requires_n_at_least_4() {
        assert!(SliceShape::new(4, 4, 8).unwrap().is_production_twistable());
        assert!(!SliceShape::new(2, 2, 4).unwrap().is_production_twistable());
        assert!(!SliceShape::new(1, 2, 2).unwrap().is_production_twistable());
    }

    #[test]
    fn block_alignment() {
        let s = SliceShape::new(4, 8, 16).unwrap();
        assert!(s.is_block_aligned());
        assert_eq!(s.in_blocks(), Some(SliceShape::new(1, 2, 4).unwrap()));
        let t = SliceShape::new(2, 2, 4).unwrap();
        assert!(!t.is_block_aligned());
        assert_eq!(t.in_blocks(), None);
    }

    #[test]
    fn display_and_tryfrom() {
        let s: SliceShape = (4, 4, 8).try_into().unwrap();
        assert_eq!(s.to_string(), "4x4x8");
        let bad: Result<SliceShape, _> = (0, 1, 1).try_into();
        assert!(bad.is_err());
    }

    #[test]
    fn canonicalized_twistability() {
        // 8x4x4 is 4x4x8 reordered.
        assert_eq!(
            SliceShape::new(8, 4, 4).unwrap().twistability(),
            Twistability::SquareDoubled { n: 4 }
        );
    }
}
