//! Coordinates, dimensions and directions in a 3D slice.

use std::fmt;

/// One of the three torus dimensions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Dim {
    /// The x dimension (innermost in node numbering).
    X,
    /// The y dimension.
    Y,
    /// The z dimension (outermost; the "long" dimension of twistable shapes).
    Z,
}

impl Dim {
    /// All three dimensions, in x, y, z order.
    pub const ALL: [Dim; 3] = [Dim::X, Dim::Y, Dim::Z];

    /// Index of this dimension: x → 0, y → 1, z → 2.
    pub fn index(self) -> usize {
        match self {
            Dim::X => 0,
            Dim::Y => 1,
            Dim::Z => 2,
        }
    }

    /// Dimension with the given index.
    ///
    /// # Panics
    ///
    /// Panics if `index > 2`.
    pub fn from_index(index: usize) -> Dim {
        match index {
            0 => Dim::X,
            1 => Dim::Y,
            2 => Dim::Z,
            _ => panic!("dimension index {index} out of range"), // tpu-lint: allow(panic-policy) -- documented panic: Dim has exactly three axes
        }
    }
}

impl fmt::Display for Dim {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Dim::X => write!(f, "x"),
            Dim::Y => write!(f, "y"),
            Dim::Z => write!(f, "z"),
        }
    }
}

/// Direction of travel along a dimension.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Direction {
    /// Increasing coordinate ("+" face in Figure 1 of the paper).
    Plus,
    /// Decreasing coordinate ("−" face in Figure 1 of the paper).
    Minus,
}

impl Direction {
    /// Both directions.
    pub const ALL: [Direction; 2] = [Direction::Plus, Direction::Minus];

    /// The opposite direction.
    pub fn opposite(self) -> Direction {
        match self {
            Direction::Plus => Direction::Minus,
            Direction::Minus => Direction::Plus,
        }
    }
}

impl fmt::Display for Direction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Direction::Plus => write!(f, "+"),
            Direction::Minus => write!(f, "-"),
        }
    }
}

/// A chip coordinate inside a slice.
///
/// Coordinates are always interpreted relative to a [`SliceShape`]; the
/// shape defines the modulus for wraparound arithmetic.
///
/// [`SliceShape`]: crate::SliceShape
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Coord3 {
    /// Position along x.
    pub x: u32,
    /// Position along y.
    pub y: u32,
    /// Position along z.
    pub z: u32,
}

impl Coord3 {
    /// Creates a coordinate.
    pub fn new(x: u32, y: u32, z: u32) -> Coord3 {
        Coord3 { x, y, z }
    }

    /// Component along the given dimension.
    pub fn get(self, dim: Dim) -> u32 {
        match dim {
            Dim::X => self.x,
            Dim::Y => self.y,
            Dim::Z => self.z,
        }
    }

    /// Returns a copy with the component along `dim` replaced by `value`.
    pub fn with(self, dim: Dim, value: u32) -> Coord3 {
        let mut c = self;
        match dim {
            Dim::X => c.x = value,
            Dim::Y => c.y = value,
            Dim::Z => c.z = value,
        }
        c
    }
}

impl std::ops::Add for Coord3 {
    type Output = Coord3;

    /// Component-wise addition (no wrapping; callers handle moduli).
    fn add(self, rhs: Coord3) -> Coord3 {
        Coord3::new(self.x + rhs.x, self.y + rhs.y, self.z + rhs.z)
    }
}

impl From<(u32, u32, u32)> for Coord3 {
    fn from((x, y, z): (u32, u32, u32)) -> Coord3 {
        Coord3 { x, y, z }
    }
}

impl fmt::Display for Coord3 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({},{},{})", self.x, self.y, self.z)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dim_index_roundtrip() {
        for dim in Dim::ALL {
            assert_eq!(Dim::from_index(dim.index()), dim);
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn dim_from_bad_index_panics() {
        let _ = Dim::from_index(3);
    }

    #[test]
    fn direction_opposite_is_involution() {
        for dir in Direction::ALL {
            assert_eq!(dir.opposite().opposite(), dir);
            assert_ne!(dir.opposite(), dir);
        }
    }

    #[test]
    fn coord_get_with_roundtrip() {
        let c = Coord3::new(1, 2, 3);
        for dim in Dim::ALL {
            let replaced = c.with(dim, 9);
            assert_eq!(replaced.get(dim), 9);
            for other in Dim::ALL {
                if other != dim {
                    assert_eq!(replaced.get(other), c.get(other));
                }
            }
        }
    }

    #[test]
    fn coord_from_tuple() {
        let c: Coord3 = (4, 5, 6).into();
        assert_eq!(c, Coord3::new(4, 5, 6));
    }

    #[test]
    fn display_formats() {
        assert_eq!(Coord3::new(0, 1, 2).to_string(), "(0,1,2)");
        assert_eq!(Dim::X.to_string(), "x");
        assert_eq!(Direction::Plus.to_string(), "+");
        assert_eq!(Direction::Minus.to_string(), "-");
    }
}
