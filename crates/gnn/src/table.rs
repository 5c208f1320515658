//! One graph version's table of node-local first-layer rows.
//!
//! A GCN prepared for [`ExecMode::Spectral`](blockgnn_nn::ExecMode)
//! runs its first layer transform-first, `ReLU(Â·T + b₁)` with
//! `T = X·W₁` (see [`crate::models::gcn`]). Row `u` of `T` depends only
//! on node `u`'s feature row, so while the features stay what they are —
//! one graph version — it is the same in every request that reads it. A
//! [`RowTable`] keeps those rows for one version, node-indexed, each
//! filled the first time a request reads it and tracked by a presence
//! bitmap; the serving engine holds one per graph epoch, shared by every
//! replica that serves it, and a new version (or a cleared cache) starts
//! an empty one. The engine passes it into each sampled batch's model
//! call ([`crate::GnnModel::forward_at_indexed`]), whose staged pass fills
//! the rows its stage-0 list lacks and lists none once the table is full;
//! the stage above reads the rows in place. A full-graph pass takes no
//! table: it transforms every row anyway, into a stage matrix of its own.
//! A version whose table would pass [`ROW_TABLE_BYTES`] gets none, and
//! its batches compute the rows they read.
//!
//! This is GNNIE's graph-specific caching (PAPERS.md), applied where it
//! is exact: a kept row holds the bits the computing path would produce.
//! The paper's accelerator keeps no such table, so the CirCore cost model
//! charges every request as before.

use blockgnn_linalg::Matrix;
use std::sync::{PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};

/// The most a [`RowTable`] may take, in bytes (128 MiB). A graph version
/// whose whole table would be larger gets none, and every request
/// computes the rows it reads through the same kernel, so the answers
/// are the same bits. Reddit (232 965 nodes) fits at hidden 64 (119 MB);
/// at the paper's hidden 512 its table would take
/// 232 965 × 512 × 8 B ≈ 0.95 GB, so it is served without one. Keeping a
/// part of a larger table pays only if requests keep reading that part;
/// no workload here measures which part that would be.
pub const ROW_TABLE_BYTES: usize = 128 << 20;

/// Node-local rows of one graph version, filled on first touch and
/// shared across threads (see the module docs). Readers hold a read lock
/// while they read rows in place, at most one block of destination rows
/// at a time; a request that finds rows missing computes them outside
/// the lock and writes them under a short write lock. A row, once
/// present, never changes.
#[derive(Debug)]
pub struct RowTable {
    nodes: usize,
    width: usize,
    slab: RwLock<Slab>,
}

/// A [`RowTable`]'s storage: `nodes × width` rows, node-indexed, and one
/// presence bit per node. Both are allocated on the first write, so a
/// table nobody fills costs nothing, and kept by [`RowTable::emptied`].
#[derive(Debug, Default)]
pub(crate) struct Slab {
    present: Vec<u64>,
    /// How many presence bits are set.
    count: usize,
    rows: Matrix,
}

impl RowTable {
    /// An empty table for a graph of `nodes` nodes with `width`-wide rows,
    /// or `None` when the whole table would take more than
    /// [`ROW_TABLE_BYTES`].
    #[must_use]
    pub fn new(nodes: usize, width: usize) -> Option<Self> {
        let bytes = nodes.checked_mul(width)?.checked_mul(8)?;
        (bytes <= ROW_TABLE_BYTES).then(|| Self { nodes, width, slab: RwLock::default() })
    }

    /// This table with no row present, for a graph of `nodes` nodes,
    /// keeping its storage: the next graph version's table reuses its
    /// predecessor's pages instead of faulting in fresh ones. `None` when
    /// the grown graph's table would pass [`ROW_TABLE_BYTES`].
    #[must_use]
    pub fn emptied(self, nodes: usize) -> Option<Self> {
        let emptied = Self::new(nodes, self.width)?;
        let mut slab = self.slab.into_inner().unwrap_or_else(PoisonError::into_inner);
        slab.present.clear();
        slab.count = 0;
        Some(Self { slab: RwLock::new(slab), ..emptied })
    }

    /// Node count of the graph version the table belongs to.
    #[must_use]
    pub fn nodes(&self) -> usize {
        self.nodes
    }

    /// Width of every row.
    #[must_use]
    pub fn width(&self) -> usize {
        self.width
    }

    /// How many rows are present.
    #[must_use]
    pub fn rows_present(&self) -> usize {
        self.read().rows_present()
    }

    /// The storage, to read rows in place. A panic under the write lock
    /// leaves at most a row written without its presence bit, so a
    /// poisoned lock is recovered.
    pub(crate) fn read(&self) -> RwLockReadGuard<'_, Slab> {
        self.slab.read().unwrap_or_else(PoisonError::into_inner)
    }

    /// The storage, to write rows: allocated on first use, or sized from
    /// the storage [`RowTable::emptied`] kept.
    pub(crate) fn write(&self) -> RwLockWriteGuard<'_, Slab> {
        let mut slab = self.slab.write().unwrap_or_else(PoisonError::into_inner);
        if slab.present.is_empty() && self.nodes > 0 {
            slab.present.resize(self.nodes.div_ceil(64), 0);
            if slab.rows.is_empty() {
                slab.rows = Matrix::zeros(self.nodes, self.width);
            } else {
                slab.rows.resize(self.nodes, self.width);
            }
        }
        slab
    }

    /// Fills every row that is not present with NaN, so a test can show
    /// that no reader reads one.
    #[cfg(test)]
    pub(crate) fn poison_absent_rows(&self) {
        let mut slab = self.write();
        for node in 0..self.nodes {
            if !slab.has(node) {
                slab.rows.row_mut(node).fill(f64::NAN);
            }
        }
    }
}

impl Slab {
    /// Whether node `node`'s row is present.
    pub(crate) fn has(&self, node: usize) -> bool {
        self.present.get(node / 64).is_some_and(|word| word >> (node % 64) & 1 == 1)
    }

    /// How many rows are present: the table's node count once every
    /// row is, which a reader checks instead of walking its rows.
    pub(crate) fn rows_present(&self) -> usize {
        self.count
    }

    /// The node-indexed rows: row `node` is valid where
    /// [`Slab::has`]`(node)`.
    pub(crate) fn rows(&self) -> &Matrix {
        &self.rows
    }

    /// Stores node `node`'s row and marks it present. A present row is
    /// left as it is: every writer computes the same bits.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range or `row` has the wrong width.
    pub(crate) fn put(&mut self, node: usize, row: &[f64]) {
        if !self.has(node) {
            self.rows.row_mut(node).copy_from_slice(row);
            self.present[node / 64] |= 1 << (node % 64);
            self.count += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_table_allocates_on_first_write_and_keeps_its_storage_when_emptied() {
        let table = RowTable::new(10, 4).expect("fits");
        assert_eq!(table.rows_present(), 0);
        assert!(table.read().rows().is_empty(), "nothing is allocated before a write");
        table.write().put(2, &[1.0, 2.0, 3.0, 4.0]);
        table.write().put(2, &[9.0; 4]);
        let slab = table.read();
        assert!(slab.has(2) && !slab.has(1) && !slab.has(3) && !slab.has(70));
        assert_eq!(slab.rows().row(2), &[1.0, 2.0, 3.0, 4.0], "a present row never changes");
        drop(slab);
        assert_eq!(table.rows_present(), 1);
        assert_eq!(table.read().rows().shape(), (10, 4), "a slot per node");
        // Emptied for the next version: no row present, the storage kept.
        let storage = table.read().rows().as_slice().as_ptr();
        let table = table.emptied(10).expect("fits");
        assert_eq!((table.nodes(), table.rows_present()), (10, 0));
        assert!(!table.read().has(2));
        table.write().put(1, &[5.0; 4]);
        assert_eq!(table.read().rows().as_slice().as_ptr(), storage, "the same pages");
        // Emptied for a grown graph: a slot for the new node.
        let table = table.emptied(11).expect("fits");
        table.write().put(10, &[6.0; 4]);
        assert_eq!((table.nodes(), table.width(), table.rows_present()), (11, 4, 1));
        assert_eq!(table.read().rows().shape(), (11, 4));
    }

    #[test]
    fn a_graph_whose_table_passes_the_cap_gets_none() {
        // 8-wide rows take 64 B a node: the cap holds this many nodes.
        let most = ROW_TABLE_BYTES / 64;
        assert!(RowTable::new(most, 8).is_some());
        assert!(RowTable::new(most + 1, 8).is_none());
        assert!(RowTable::new(usize::MAX / 4, 8).is_none(), "no overflow");
        let table = RowTable::new(most, 8).expect("fits");
        assert!(table.emptied(most + 1).is_none(), "a node append past the cap");
    }
}
