//! The one coarse spatial index of this crate: a uniform grid from cell
//! to the items registered over it. The rule engine keys it by trigger
//! group (`usize`, DESIGN.md §14), the region-query occupancy snapshot
//! by snapshot-local object id (`u32`, DESIGN.md §10).

use mw_geometry::Rect;

use crate::rules::FastMap;

/// Side length of one grid cell in building units. Roughly one large
/// room: small enough that an ingest's evidence window touches a handful
/// of cells, large enough that a typical watched region does not
/// explode into many cells.
const INTEREST_CELL: f64 = 50.0;

/// A rect spanning more cells than this is tracked in the `always`
/// bucket instead of being enumerated cell by cell (64 × 64 cells).
const MAX_RECT_CELLS: i64 = 4096;

/// Coarse uniform grid over rects.
///
/// Replaces the R-tree used by the first DAG iteration: with 10k+
/// near-identical region rules the tree's rebalancing and per-query
/// descent dominated registration and ingest. The grid buckets each
/// rect into fixed 50-unit cells; a query touches only the cells its
/// window overlaps, so its cost tracks the window size, not the item
/// count. Hits are *coarse* — a superset of the items whose rect
/// intersects the window, possibly with repeats; callers re-check or
/// evaluate exactly.
#[derive(Debug)]
pub(crate) struct InterestGrid<T> {
    cells: FastMap<(i64, i64), Vec<T>>,
    /// Items returned for every window: rects too large to enumerate,
    /// and whatever the owner registers through
    /// [`insert_always`](InterestGrid::insert_always).
    always: Vec<T>,
}

impl<T> Default for InterestGrid<T> {
    fn default() -> Self {
        InterestGrid {
            cells: FastMap::default(),
            always: Vec::new(),
        }
    }
}

/// Inclusive cell range covered by `rect`. Float-to-int casts saturate,
/// so degenerate coordinates clamp instead of wrapping.
#[allow(clippy::cast_possible_truncation)]
fn cell_range(rect: &Rect) -> (i64, i64, i64, i64) {
    (
        (rect.min().x / INTEREST_CELL).floor() as i64,
        (rect.min().y / INTEREST_CELL).floor() as i64,
        (rect.max().x / INTEREST_CELL).floor() as i64,
        (rect.max().y / INTEREST_CELL).floor() as i64,
    )
}

/// Whether `range` has too many cells to enumerate one by one.
fn oversized(range: (i64, i64, i64, i64)) -> bool {
    let (x0, y0, x1, y1) = range;
    (x1 - x0 + 1).saturating_mul(y1 - y0 + 1) > MAX_RECT_CELLS
}

impl<T: Copy + PartialEq> InterestGrid<T> {
    pub(crate) fn insert(&mut self, rect: &Rect, item: T) {
        let range = cell_range(rect);
        if oversized(range) {
            self.always.push(item);
            return;
        }
        let (x0, y0, x1, y1) = range;
        for cx in x0..=x1 {
            for cy in y0..=y1 {
                self.cells.entry((cx, cy)).or_default().push(item);
            }
        }
    }

    /// Registers `item` for every window, whatever its extent.
    pub(crate) fn insert_always(&mut self, item: T) {
        self.always.push(item);
    }

    /// Removes one occurrence of `item` per cell `rect` covers —
    /// mirrors `insert`, so an item registered under several rects
    /// sharing a cell stays present until each rect is removed.
    pub(crate) fn remove(&mut self, rect: &Rect, item: T) {
        let range = cell_range(rect);
        if oversized(range) {
            if let Some(pos) = self.always.iter().position(|i| *i == item) {
                self.always.swap_remove(pos);
            }
            return;
        }
        let (x0, y0, x1, y1) = range;
        for cx in x0..=x1 {
            for cy in y0..=y1 {
                if let Some(cell) = self.cells.get_mut(&(cx, cy)) {
                    if let Some(pos) = cell.iter().position(|i| *i == item) {
                        cell.swap_remove(pos);
                    }
                    if cell.is_empty() {
                        self.cells.remove(&(cx, cy));
                    }
                }
            }
        }
    }

    /// Appends the items registered in every cell `window` overlaps,
    /// then the `always` bucket.
    pub(crate) fn query_window(&self, window: &Rect, out: &mut Vec<T>) {
        let range = cell_range(window);
        if oversized(range) {
            // A window this large overlaps most of the grid anyway;
            // scanning all occupied cells keeps the cost bounded.
            for cell in self.cells.values() {
                out.extend_from_slice(cell);
            }
        } else {
            let (x0, y0, x1, y1) = range;
            for cx in x0..=x1 {
                for cy in y0..=y1 {
                    if let Some(cell) = self.cells.get(&(cx, cy)) {
                        out.extend_from_slice(cell);
                    }
                }
            }
        }
        out.extend_from_slice(&self.always);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mw_geometry::Point;

    fn rect(x0: f64, y0: f64, x1: f64, y1: f64) -> Rect {
        Rect::new(Point::new(x0, y0), Point::new(x1, y1))
    }

    fn hits(grid: &InterestGrid<u32>, window: &Rect) -> Vec<u32> {
        let mut out = Vec::new();
        grid.query_window(window, &mut out);
        out.sort_unstable();
        out.dedup();
        out
    }

    #[test]
    fn window_sees_only_shared_cells_plus_always() {
        let mut grid = InterestGrid::default();
        grid.insert(&rect(0.0, 0.0, 10.0, 10.0), 1u32);
        grid.insert(&rect(40.0, 0.0, 60.0, 10.0), 2); // cells 0 and 1
        grid.insert(&rect(500.0, 500.0, 510.0, 510.0), 3);
        grid.insert_always(4);
        assert_eq!(hits(&grid, &rect(20.0, 20.0, 30.0, 30.0)), vec![1, 2, 4]);
        assert_eq!(hits(&grid, &rect(70.0, 0.0, 80.0, 10.0)), vec![2, 4]);
        assert_eq!(hits(&grid, &rect(-90.0, -90.0, -80.0, -80.0)), vec![4]);
        // Cell ranges are inclusive, so rects that merely touch share a cell.
        grid.insert(&rect(100.0, 100.0, 150.0, 110.0), 5);
        assert_eq!(hits(&grid, &rect(150.0, 100.0, 160.0, 110.0)), vec![4, 5]);
    }

    #[test]
    fn oversized_rects_match_every_window_and_remove_mirrors_insert() {
        let mut grid = InterestGrid::default();
        let huge = rect(0.0, 0.0, 65.0 * INTEREST_CELL, 65.0 * INTEREST_CELL);
        grid.insert(&huge, 7u32);
        assert!(grid.cells.is_empty());
        assert_eq!(hits(&grid, &rect(1e6, 1e6, 1e6 + 1.0, 1e6 + 1.0)), vec![7]);
        grid.remove(&huge, 7);
        assert!(grid.always.is_empty());

        let small = rect(10.0, 10.0, 20.0, 20.0);
        grid.insert(&small, 8);
        grid.insert(&small, 8);
        grid.remove(&small, 8);
        assert_eq!(hits(&grid, &small), vec![8]);
        grid.remove(&small, 8);
        assert!(grid.cells.is_empty());
        // An oversized window scans every occupied cell.
        grid.insert(&small, 9);
        assert_eq!(hits(&grid, &huge), vec![9]);
    }
}
