//! Product-PE state (paper Section III-B).
//!
//! A Product-PE streams DRAM rows of packed non-zeros from its local bank
//! into a cyclic PE queue (scratchpad), scans queue entries at one element
//! per `L_p` cycles, checks the input-vector value in the register file /
//! L1 CAM, issues non-blocking remote requests on misses, and accumulates
//! partial `Y_i` results that are flushed when a matrix row completes.
//!
//! The PE queue is read in place. Loaded DRAM rows are a prefix of the PE's
//! packed row list, so the entries loaded but not yet scanned are exactly
//! those between a scan cursor and the end of the last arrived row: the
//! control unit reads them where they lie instead of copying them into a
//! staging queue. Everything downstream of the scan — response-satisfied
//! entries and L1 load-queue waiters — names an entry by its DRAM row id
//! alone, because the row carries everything compute needs (its matrix row
//! and that row's slot in the remaining-count table).
//!
//! These structures are passive: the event handlers in
//! [`machine`](crate::machine) drive them.

use std::collections::VecDeque;

/// One packed matrix DRAM row: a row-index header plus the column indices
/// of up to `nnz_per_dram_row` non-zeros of a single matrix row (Section
/// III-B's alignment rule).
///
/// The non-zero values are not carried: the simulator models when each
/// multiply happens, and the output is reduced from the CSR in canonical
/// order when a matrix row completes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DramRowSpec {
    /// The matrix row index all entries in this DRAM row belong to.
    pub matrix_row: u32,
    /// Position of `matrix_row` among the PE's non-empty rows in packing
    /// order: its slot in [`ProductPe::row_remaining`].
    pub row_ix: u32,
    /// The packed column indices (at most `nnz_per_dram_row`, never empty).
    pub cols: Vec<u32>,
}

/// Packs the CSR rows assigned to one PE into DRAM rows.
///
/// Rows are laid out in assignment order; a matrix row longer than one DRAM
/// row spans several consecutive DRAM rows, each carrying the same header.
/// Empty matrix rows occupy no DRAM space.
pub fn pack_rows(
    csr: &spacea_matrix::Csr,
    assigned_rows: &[u32],
    nnz_per_dram_row: usize,
) -> Vec<DramRowSpec> {
    assert!(nnz_per_dram_row > 0, "DRAM row must hold at least one non-zero");
    let mut out = Vec::new();
    let mut row_ix = 0;
    for &r in assigned_rows {
        let cols = csr.row_cols(r as usize);
        if cols.is_empty() {
            continue;
        }
        for chunk in cols.chunks(nnz_per_dram_row) {
            out.push(DramRowSpec { matrix_row: r, row_ix, cols: chunk.to_vec() });
        }
        row_ix += 1;
    }
    out
}

/// A DRAM row resident in the PE queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LoadedRow {
    /// Per-PE sequence id.
    pub id: u32,
    /// Entries not yet processed.
    pub remaining: usize,
}

/// Full state of one Product-PE.
#[derive(Debug, Clone, Default)]
pub struct ProductPe {
    /// Packed DRAM rows to stream, in order; a row's id is its index here.
    pub dram_rows: Vec<DramRowSpec>,
    /// Next DRAM row index to load.
    pub next_load: usize,
    /// Whether a row load is outstanding at the bank.
    pub load_in_flight: bool,
    /// Rows resident in the PE queue (front pops first, paper's cyclic
    /// queue at DRAM-row granularity).
    pub queue: VecDeque<LoadedRow>,
    /// Scan cursor: the next unscanned entry is
    /// `dram_rows[scan_row].cols[scan_col]`. Every entry before it has been
    /// scanned; it never passes the last arrived row.
    pub scan_row: usize,
    /// Column position of the scan cursor within `dram_rows[scan_row]`.
    pub scan_col: usize,
    /// DRAM row ids of entries whose X value arrived (response-satisfied),
    /// in arrival order.
    pub ready: VecDeque<u32>,
    /// Entries waiting on an outstanding X request.
    pub pending: usize,
    /// Non-zeros of each owned matrix row not yet multiplied, indexed by
    /// [`DramRowSpec::row_ix`]. A whole matrix row belongs to exactly one
    /// PE, so when a count reaches zero the machine flushes that row's dot
    /// product, computed in canonical CSR entry order — which makes the
    /// result independent of the arrival order of X responses and
    /// bitwise-identical to the software oracle.
    pub row_remaining: Vec<usize>,
    /// Whether a `PeStep` event is scheduled.
    pub step_scheduled: bool,
    /// Non-zeros processed so far (workload metric).
    pub work: u64,
    /// Control-unit scan steps executed (busy-time metric; each step
    /// occupies the PE for `L_p` cycles).
    pub steps: u64,
}

impl ProductPe {
    /// Creates a PE with its packed work list.
    pub fn new(dram_rows: Vec<DramRowSpec>) -> Self {
        // `pack_rows` numbers rows in packing order, so each row's total
        // lands in the next table slot or the current one.
        let mut row_remaining: Vec<usize> = Vec::new();
        for spec in &dram_rows {
            let ix = spec.row_ix as usize;
            if ix == row_remaining.len() {
                row_remaining.push(0);
            }
            row_remaining[ix] += spec.cols.len();
        }
        ProductPe { dram_rows, row_remaining, ..Default::default() }
    }

    /// Total non-zeros this PE must process.
    pub fn total_nnz(&self) -> usize {
        self.dram_rows.iter().map(|r| r.cols.len()).sum()
    }

    /// Whether a loaded entry is still waiting for its first scan. Row ids
    /// are handed out in order with at most one load in flight, so the rows
    /// that have arrived are the prefix before `next_load`, less the one in
    /// flight.
    fn has_fresh(&self) -> bool {
        self.scan_row < self.next_load - usize::from(self.load_in_flight)
    }

    /// Takes the entry under the scan cursor, returning its DRAM row id and
    /// column, and moves the cursor on (across a row boundary when the row
    /// is used up). `None` when every loaded entry has been scanned.
    pub fn next_fresh(&mut self) -> Option<(u32, u32)> {
        if !self.has_fresh() {
            return None;
        }
        let row_id = self.scan_row as u32;
        let cols = &self.dram_rows[self.scan_row].cols;
        let col = cols[self.scan_col];
        self.scan_col += 1;
        if self.scan_col == cols.len() {
            self.scan_row += 1;
            self.scan_col = 0;
        }
        Some((row_id, col))
    }

    /// Whether the PE has scan work available right now.
    pub fn has_work(&self) -> bool {
        self.has_fresh() || !self.ready.is_empty()
    }

    /// Whether everything is processed and streamed.
    pub fn finished(&self) -> bool {
        self.next_load >= self.dram_rows.len()
            && !self.load_in_flight
            && self.queue.is_empty()
            && !self.has_fresh()
            && self.ready.is_empty()
            && self.pending == 0
    }

    /// Marks one entry of loaded row `row_id` complete; pops finished rows
    /// from the queue front and returns how many were popped, or `None`
    /// when the row is not resident (a completion for a row the queue never
    /// loaded — the caller decides whether that is an invariant breach).
    ///
    /// O(1): resident row ids are consecutive (`next_load` hands them out
    /// in order, one load in flight at a time, and rows pop only from the
    /// front), so `row_id` sits at `row_id - front.id`.
    pub fn complete_entry(&mut self, row_id: u32) -> Option<usize> {
        let front = self.queue.front()?.id;
        let ix = row_id.checked_sub(front)? as usize;
        let row = self.queue.get_mut(ix).filter(|r| r.id == row_id)?;
        debug_assert!(row.remaining > 0);
        row.remaining -= 1;
        self.work += 1;
        let mut popped = 0;
        while self.queue.front().is_some_and(|r| r.remaining == 0) {
            self.queue.pop_front();
            popped += 1;
        }
        Some(popped)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spacea_matrix::Csr;

    fn csr() -> Csr {
        // row 0: 3 nnz; row 1: 0 nnz; row 2: 2 nnz
        Csr::from_parts(3, 5, vec![0, 3, 3, 5], vec![0, 1, 2, 3, 4], vec![1.0; 5]).unwrap()
    }

    #[test]
    fn pack_respects_row_capacity() {
        let rows = pack_rows(&csr(), &[0, 2], 2);
        // row 0 (3 nnz) → 2 DRAM rows; row 2 (2 nnz) → 1 DRAM row.
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[0].matrix_row, 0);
        assert_eq!(rows[0].cols.len(), 2);
        assert_eq!(rows[1].matrix_row, 0);
        assert_eq!(rows[1].cols.len(), 1);
        assert_eq!(rows[2].matrix_row, 2);
        // Both DRAM rows of matrix row 0 share its table slot.
        let ixs: Vec<u32> = rows.iter().map(|r| r.row_ix).collect();
        assert_eq!(ixs, vec![0, 0, 1]);
    }

    #[test]
    fn pack_skips_empty_rows() {
        let rows = pack_rows(&csr(), &[1], 4);
        assert!(rows.is_empty());
    }

    #[test]
    fn pack_preserves_columns() {
        let rows = pack_rows(&csr(), &[2], 4);
        assert_eq!(rows[0].cols, vec![3, 4]);
    }

    #[test]
    fn total_nnz_sums_entries() {
        let pe = ProductPe::new(pack_rows(&csr(), &[0, 2], 2));
        assert_eq!(pe.total_nnz(), 5);
    }

    #[test]
    fn scan_cursor_crosses_rows_in_packing_order() {
        // DRAM rows: [0, 1] and [2] of matrix row 0, then [3, 4] of row 2.
        let mut pe = ProductPe::new(pack_rows(&csr(), &[0, 2], 2));
        assert_eq!(pe.row_remaining, vec![3, 2]);
        assert!(!pe.has_work() && !pe.finished(), "nothing loaded yet");
        pe.next_load = 1;
        pe.load_in_flight = true;
        assert!(!pe.has_work(), "a row still in flight is not scannable");
        assert_eq!(pe.next_fresh(), None);
        pe.load_in_flight = false;
        assert!(pe.has_work());
        assert_eq!(pe.next_fresh(), Some((0, 0)));
        assert_eq!(pe.next_fresh(), Some((0, 1)));
        assert!(!pe.has_work(), "row 0 is scanned and row 1 has not arrived");
        pe.next_load = 3;
        let rest: Vec<(u32, u32)> = std::iter::from_fn(|| pe.next_fresh()).collect();
        assert_eq!(rest, vec![(1, 2), (2, 3), (2, 4)]);
        assert!(!pe.has_work());
        // Response-satisfied entries are work too, and hold off `finished`.
        pe.ready.push_back(2);
        assert!(pe.has_work() && !pe.finished());
        pe.ready.pop_front();
        assert!(pe.finished());
        pe.pending = 1;
        assert!(!pe.has_work() && !pe.finished());
    }

    #[test]
    fn complete_entry_pops_front_rows_in_order() {
        let mut pe = ProductPe::default();
        pe.queue.push_back(LoadedRow { id: 0, remaining: 1 });
        pe.queue.push_back(LoadedRow { id: 1, remaining: 1 });
        // Completing the *second* row first must not pop anything.
        assert_eq!(pe.complete_entry(1), Some(0));
        assert_eq!(pe.queue.len(), 2);
        // Completing the front row pops both (cascade).
        assert_eq!(pe.complete_entry(0), Some(2));
        assert!(pe.queue.is_empty());
        assert_eq!(pe.work, 2);
        // A completion for a row the queue never loaded is reported, not
        // silently counted.
        assert_eq!(pe.complete_entry(7), None);
        assert_eq!(pe.work, 2);
    }

    #[test]
    fn finished_requires_everything_drained() {
        let mut pe = ProductPe::new(vec![]);
        assert!(pe.finished());
        pe.pending = 1;
        assert!(!pe.finished());
    }
}
