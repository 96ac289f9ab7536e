package relstore

import (
	"bytes"
	"fmt"
	"slices"
)

// RowBatch is a set of rows encoded for Table.InsertBatch: each row's record
// and its key in every index of the table, packed end to end into one arena
// that Reset keeps, so that loading many rows allocates no tuple, record or
// key per row. A batch belongs to the table that made it (Table.NewBatch) but
// touches none of the table's pages or counters until InsertBatch: it may be
// filled, sorted and edited without whatever lock serializes the table, and
// only the InsertBatch call needs it.
//
// A row is added either whole — Add, which takes each key from the index's
// key function, as Table.Insert does — or as AddRecord followed by one Key
// call per index, in the order the indexes were added to the table, which
// encodes the keys straight into the arena.
type RowBatch struct {
	tb    *Table
	nkeys int // keys per row: the table's index count when the first row was added
	arena []byte
	// ends holds 1+nkeys arena offsets per row: where its record ends, then
	// where each of its keys ends. A piece begins where the one before ends.
	ends []int
	skip []bool
	// order[k] lists the rows ascending by their key in index k (equal keys
	// in row order); valid while sorted is set.
	order  [][]int32
	sorted bool
	// rids[r] is where InsertBatch stored row r; live is the same without
	// the skipped rows, as the heap fills it.
	rids, live []RID

	// What InsertBatch hands the heap and the trees: views into the arena.
	pieces, vals [][]byte
	ridBytes     []byte
}

// NewBatch returns an empty batch of rows for tb.
func (tb *Table) NewBatch() *RowBatch { return &RowBatch{tb: tb} }

// Reset empties the batch, keeping its memory.
func (b *RowBatch) Reset() {
	b.arena, b.ends, b.skip, b.rids = b.arena[:0], b.ends[:0], b.skip[:0], b.rids[:0]
	b.sorted = false
}

// AddRecord starts a new row with t's record. The row's keys follow, one Key
// call per index of the table.
func (b *RowBatch) AddRecord(t Tuple) error {
	if len(b.skip) == 0 {
		b.nkeys = len(b.tb.indexes)
	}
	arena, err := EncodeTuple(b.arena, b.tb.Schema, t)
	if err != nil {
		return err
	}
	if len(arena)-len(b.arena) > MaxRecordLen {
		return fmt.Errorf("relstore: record too large (%d bytes)", len(arena)-len(b.arena))
	}
	b.arena = arena
	b.ends = append(b.ends, len(arena))
	b.skip = append(b.skip, false)
	b.sorted = false
	return nil
}

// Key appends the next key of the row AddRecord started: AppendKey's
// encoding of vals.
func (b *RowBatch) Key(vals ...Value) {
	b.arena = AppendKey(b.arena, vals...)
	b.ends = append(b.ends, len(b.arena))
}

// Add appends the row t with the keys the table's index key functions give it.
func (b *RowBatch) Add(t Tuple) error {
	if err := b.AddRecord(t); err != nil {
		return err
	}
	for _, ix := range b.tb.indexes {
		b.arena = append(b.arena, ix.Key(t)...)
		b.ends = append(b.ends, len(b.arena))
	}
	return nil
}

// piece returns piece j of row r: its record (j = 0) or its key in index j-1.
func (b *RowBatch) piece(r, j int) []byte {
	at := r*(1+b.nkeys) + j
	from := 0
	if at > 0 {
		from = b.ends[at-1]
	}
	return b.arena[from:b.ends[at]:b.ends[at]]
}

// KeyOf returns row r's key in the table's k-th index, a slice of the arena:
// valid until the next row is added, and not to be modified.
func (b *RowBatch) KeyOf(r, k int) []byte { return b.piece(r, 1+k) }

// Sort works out, for every index, the order in which the rows' keys ascend.
// InsertBatch needs it and calls it when the caller has not; a caller that
// prepares a batch outside the table's lock calls it there. It fails when a
// row is short of a key or has one too many.
func (b *RowBatch) Sort() error {
	if len(b.ends) != len(b.skip)*(1+b.nkeys) {
		return fmt.Errorf("relstore: batch for %s: %d rows of %d keys each hold %d pieces", b.tb.Name, len(b.skip), b.nkeys, len(b.ends))
	}
	for len(b.order) < b.nkeys {
		b.order = append(b.order, nil)
	}
	for k := 0; k < b.nkeys; k++ {
		ord := b.order[k][:0]
		for r := range b.skip {
			ord = append(ord, int32(r))
		}
		slices.SortFunc(ord, func(x, y int32) int {
			if c := bytes.Compare(b.KeyOf(int(x), k), b.KeyOf(int(y), k)); c != 0 {
				return c
			}
			return int(x - y)
		})
		b.order[k] = ord
	}
	b.sorted = true
	return nil
}

// Skip leaves row r out of the insert.
func (b *RowBatch) Skip(r int) { b.skip[r] = true }

// Skipped reports whether Skip(r) was called.
func (b *RowBatch) Skipped(r int) bool { return b.skip[r] }

// SetCol overwrites fixed-width column col of row r's record. The row's keys
// are not recomputed: col must not be part of any index key.
func (b *RowBatch) SetCol(r, col int, v Value) error {
	at, err := b.tb.Schema.fixedCol(b.piece(r, 0), col)
	if err != nil {
		return err
	}
	return putFixedValue(b.tb.Schema.Cols[col], at, v)
}

// RID returns where InsertBatch stored row r (the zero RID for a skipped
// row).
func (b *RowBatch) RID(r int) RID { return b.rids[r] }

// InsertBatch inserts the batch's rows, skipped ones excepted: the records go
// to the heap in the order they were added — one pin of the tail page for as
// many as it takes (HeapFile.InsertRun) — and each index receives its keys as
// one ascending run (BTree.InsertRun), so keys that are neighbours in an
// index share a descent. The stored rows and index contents are those a loop
// of Insert over the same rows leaves. b must have been made by tb.NewBatch
// and stays filled; Reset it before reuse.
func (tb *Table) InsertBatch(b *RowBatch) error {
	if b.tb != tb {
		return fmt.Errorf("relstore: batch for %s inserted into %s", b.tb.Name, tb.Name)
	}
	if len(b.skip) == 0 {
		return nil
	}
	if b.nkeys != len(tb.indexes) {
		return fmt.Errorf("relstore: batch for %s carries %d keys per row, the table has %d indexes", tb.Name, b.nkeys, len(tb.indexes))
	}
	if !b.sorted {
		if err := b.Sort(); err != nil {
			return err
		}
	}
	n := len(b.skip)
	b.pieces = b.pieces[:0]
	for r := 0; r < n; r++ {
		if !b.skip[r] {
			b.pieces = append(b.pieces, b.piece(r, 0))
		}
	}
	b.live = append(b.live[:0], make([]RID, len(b.pieces))...)
	if err := tb.heap.InsertRun(b.pieces, b.live); err != nil {
		return err
	}
	b.rids = b.rids[:0]
	for r, i := 0, 0; r < n; r++ {
		if b.skip[r] {
			b.rids = append(b.rids, RID{})
		} else {
			b.rids = append(b.rids, b.live[i])
			i++
		}
	}
	if b.nkeys == 0 {
		return nil
	}
	if cap(b.ridBytes) < 6*n {
		b.ridBytes = make([]byte, 6*n)
	}
	for k, ix := range tb.indexes {
		b.pieces, b.vals = b.pieces[:0], b.vals[:0]
		for i, r := range b.order[k] {
			if b.skip[r] {
				continue
			}
			val := b.ridBytes[6*i : 6*i+6 : 6*i+6]
			putRID(val, b.rids[r])
			b.pieces = append(b.pieces, b.KeyOf(int(r), k))
			b.vals = append(b.vals, val)
		}
		if err := ix.Tree.InsertRun(b.pieces, b.vals); err != nil {
			return err
		}
	}
	return nil
}
