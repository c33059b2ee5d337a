//! Embedding tables: dense lookup tables over categorical vocabularies.

use serde::{Deserialize, Serialize};

/// One embedding table (§3.2: "a table with 80,000 rows (one per word) of
/// width 100").
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct EmbeddingTable {
    name: String,
    rows: u64,
    dim: u32,
    bytes_per_element: u32,
}

impl EmbeddingTable {
    /// Creates a table.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero.
    pub fn new(
        name: impl Into<String>,
        rows: u64,
        dim: u32,
        bytes_per_element: u32,
    ) -> EmbeddingTable {
        assert!(rows > 0 && dim > 0 && bytes_per_element > 0, "empty table");
        EmbeddingTable {
            name: name.into(),
            rows,
            dim,
            bytes_per_element,
        }
    }

    /// Table name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Vocabulary size (rows).
    pub fn rows(&self) -> u64 {
        self.rows
    }

    /// Embedding width.
    pub fn dim(&self) -> u32 {
        self.dim
    }

    /// Bytes per element (4 for f32; production embeddings in Figure 17
    /// are counted at 4 bytes each).
    pub fn bytes_per_element(&self) -> u32 {
        self.bytes_per_element
    }

    /// Parameters in the table.
    pub fn param_count(&self) -> u64 {
        self.rows * u64::from(self.dim)
    }

    /// Bytes of one row.
    pub fn row_bytes(&self) -> u64 {
        u64::from(self.dim) * u64::from(self.bytes_per_element)
    }

    /// Total size in bytes.
    pub fn size_bytes(&self) -> u64 {
        self.param_count() * u64::from(self.bytes_per_element)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_size_range() {
        // §3.3: tables "range in size from O(10 MiB) to O(100 GiB)".
        let small = EmbeddingTable::new("small", 100_000, 32, 4);
        assert!(small.size_bytes() > 10 << 20);
        let large = EmbeddingTable::new("large", 500_000_000, 64, 4);
        assert!(large.size_bytes() > 100 << 30);
    }

    #[test]
    #[should_panic(expected = "empty table")]
    fn zero_rows_rejected() {
        let _ = EmbeddingTable::new("bad", 0, 8, 4);
    }

    #[test]
    fn accessors() {
        let t = EmbeddingTable::new("t", 10, 4, 2);
        assert_eq!(t.name(), "t");
        assert_eq!(t.rows(), 10);
        assert_eq!(t.dim(), 4);
        assert_eq!(t.bytes_per_element(), 2);
    }
}
