package relstore

import (
	"bytes"
	"fmt"
)

// Index is a secondary B+tree mapping Key(tuple) -> RID. Keys must be unique
// per table (include a unique column such as the row's oid in the key).
type Index struct {
	Name string
	Key  func(Tuple) []byte
	Tree *BTree
}

// Lookup returns the RID stored for key.
func (ix *Index) Lookup(key []byte) (RID, bool, error) {
	f, v, ok, err := ix.Tree.find(key)
	if err != nil {
		return RID{}, false, err
	}
	var rid RID
	if ok {
		rid, err = DecodeRID(v)
	}
	ix.Tree.bp.Unpin(f, false)
	return rid, ok, err
}

// ScanRange visits index entries with key in [from, to). The key passed to
// fn is a slice of the pinned index leaf, valid during that call only, and
// fn must not modify the index it is scanning (see BTree.Scan).
func (ix *Index) ScanRange(from, to []byte, fn func(key []byte, rid RID) (bool, error)) error {
	return ix.Tree.Scan(from, to, func(k, v []byte) (bool, error) {
		rid, err := DecodeRID(v)
		if err != nil {
			return true, err
		}
		return fn(k, rid)
	})
}

// ScanPrefix visits index entries whose key starts with prefix, under
// ScanRange's callback rules.
func (ix *Index) ScanPrefix(prefix []byte, fn func(key []byte, rid RID) (bool, error)) error {
	return ix.ScanRange(prefix, PrefixSuccessor(prefix), fn)
}

// First returns the smallest index entry; the key is the caller's own copy.
func (ix *Index) First() (key []byte, rid RID, ok bool, err error) {
	k, v, ok, err := ix.Tree.First()
	if err != nil || !ok {
		return nil, RID{}, ok, err
	}
	rid, err = DecodeRID(v)
	return k, rid, true, err
}

// Table is a heap file plus schema plus any number of indexes.
type Table struct {
	Name    string
	Schema  *Schema
	db      *DB
	heap    *HeapFile
	indexes []*Index
	own     *RowBatch // Batch's, reused
	rec     []byte    // UpdateFrom's encode buffer, reused
}

// Heap exposes the underlying heap file (for diagnostics and experiments).
func (tb *Table) Heap() *HeapFile { return tb.heap }

// Rows returns the row count.
func (tb *Table) Rows() int64 { return tb.heap.Rows() }

// AddIndex creates an index and populates it from existing rows.
func (tb *Table) AddIndex(name string, key func(Tuple) []byte) (*Index, error) {
	for _, ix := range tb.indexes {
		if ix.Name == name {
			return nil, fmt.Errorf("relstore: index %s already exists on %s", name, tb.Name)
		}
	}
	tree, err := NewBTree(tb.db.pool)
	if err != nil {
		return nil, err
	}
	ix := &Index{Name: name, Key: key, Tree: tree}
	err = tb.Scan(func(rid RID, t Tuple) (bool, error) {
		return false, tree.Insert(key(t), EncodeRID(rid))
	})
	if err != nil {
		return nil, err
	}
	tb.indexes = append(tb.indexes, ix)
	return ix, nil
}

// Index returns the named index or nil.
func (tb *Table) Index(name string) *Index {
	for _, ix := range tb.indexes {
		if ix.Name == name {
			return ix
		}
	}
	return nil
}

// Insert adds a row, maintaining all indexes. It is the batch of one.
func (tb *Table) Insert(t Tuple) (RID, error) {
	b := tb.Batch()
	if err := b.Add(t); err != nil {
		return RID{}, err
	}
	if err := tb.InsertBatch(b); err != nil {
		return RID{}, err
	}
	return b.RID(0), nil
}

// Batch returns the table's own batch, emptied — the one Insert goes through.
// It serves a caller that holds whatever serializes the table from filling
// the batch to inserting it, and so needs no batch of its own (NewBatch); the
// next Insert or Batch call on the table takes it over.
func (tb *Table) Batch() *RowBatch {
	if tb.own == nil {
		tb.own = tb.NewBatch()
	}
	tb.own.Reset()
	return tb.own
}

// Get decodes the row at rid.
func (tb *Table) Get(rid RID) (Tuple, error) {
	var t Tuple
	err := tb.heap.view(rid, false, func(rec []byte) (err error) {
		t, err = DecodeTuple(tb.Schema, rec)
		return err
	})
	return t, err
}

// ReadCols decodes the given fixed-width columns of the row at rid into out,
// out[i] receiving column cols[i], straight from the pinned heap page:
// nothing is copied and no other column is decoded.
func (tb *Table) ReadCols(rid RID, cols []int, out []Value) error {
	return tb.heap.view(rid, false, func(rec []byte) error {
		for i, col := range cols {
			at, err := tb.Schema.fixedCol(rec, col)
			if err != nil {
				return err
			}
			out[i] = fixedValue(tb.Schema.Cols[col].Kind, at)
		}
		return nil
	})
}

// SetCol overwrites fixed-width column col of the row at rid where it lies
// on the heap page. No index is touched, so col must not be part of any index
// key — the table cannot check that, key functions being opaque. A column
// that is goes through Update.
func (tb *Table) SetCol(rid RID, col int, v Value) error {
	return tb.heap.view(rid, true, func(rec []byte) error {
		at, err := tb.Schema.fixedCol(rec, col)
		if err != nil {
			return err
		}
		return putFixedValue(tb.Schema.Cols[col], at, v)
	})
}

// Update replaces the row at rid, maintaining indexes whose keys changed.
// The encoded row must not grow (variable-width columns must be unchanged).
// It reads the stored row first; a caller that holds it uses UpdateFrom.
func (tb *Table) Update(rid RID, t Tuple) error {
	old, err := tb.Get(rid)
	if err != nil {
		return err
	}
	return tb.UpdateFrom(rid, old, t)
}

// UpdateFrom is Update for a caller that already holds the stored row: old
// must be the row at rid as it is now (what Get would return), t what it
// becomes. old is read only for the index keys it had.
func (tb *Table) UpdateFrom(rid RID, old, t Tuple) error {
	rec, err := EncodeTuple(tb.rec[:0], tb.Schema, t)
	if err != nil {
		return err
	}
	tb.rec = rec
	if err := tb.heap.Update(rid, rec); err != nil {
		return err
	}
	for _, ix := range tb.indexes {
		ok, nk := ix.Key(old), ix.Key(t)
		if !bytes.Equal(ok, nk) {
			if _, err := ix.Tree.Delete(ok); err != nil {
				return err
			}
			if err := ix.Tree.Insert(nk, EncodeRID(rid)); err != nil {
				return err
			}
		}
	}
	return nil
}

// Truncate removes every row (SQL DELETE FROM t). Indexes are rebuilt
// empty; the old heap chain and index trees go to the free list.
func (tb *Table) Truncate() error {
	if err := tb.heap.Truncate(); err != nil {
		return err
	}
	for _, ix := range tb.indexes {
		if err := ix.Tree.FreePages(); err != nil {
			return err
		}
		tree, err := NewBTree(tb.db.pool)
		if err != nil {
			return err
		}
		ix.Tree = tree
	}
	return nil
}

// ScanCols visits every row with the given fixed-width columns decoded as
// ReadCols decodes them, vals[i] holding column cols[i]. vals is reused from
// row to row, so a scan that reads a few columns allocates nothing per row.
func (tb *Table) ScanCols(cols []int, fn func(rid RID, vals []Value) (bool, error)) error {
	vals := make([]Value, len(cols))
	return tb.heap.Scan(func(rid RID, rec []byte) (bool, error) {
		for i, col := range cols {
			at, err := tb.Schema.fixedCol(rec, col)
			if err != nil {
				return true, err
			}
			vals[i] = fixedValue(tb.Schema.Cols[col].Kind, at)
		}
		return fn(rid, vals)
	})
}

// Scan visits every row with its RID.
func (tb *Table) Scan(fn func(rid RID, t Tuple) (bool, error)) error {
	return tb.heap.Scan(func(rid RID, rec []byte) (bool, error) {
		t, err := DecodeTuple(tb.Schema, rec)
		if err != nil {
			return true, err
		}
		return fn(rid, t)
	})
}

// ScanShared is Scan with one Tuple reused from row to row: fn must not
// keep t (Clone what it keeps), so the scan allocates nothing per row but
// its strings.
func (tb *Table) ScanShared(fn func(rid RID, t Tuple) (bool, error)) error {
	t := make(Tuple, len(tb.Schema.Cols))
	return tb.heap.Scan(func(rid RID, rec []byte) (bool, error) {
		if err := decodeInto(tb.Schema, rec, t); err != nil {
			return true, err
		}
		return fn(rid, t)
	})
}

type tableIter struct {
	rows []Tuple
	i    int
}

// Iter returns a sequential-scan iterator over the table. The scan walks
// heap pages through the buffer pool up front (so page reads are counted)
// and then streams decoded rows.
func (tb *Table) Iter() (Iterator, error) {
	it := &tableIter{}
	err := tb.Scan(func(_ RID, t Tuple) (bool, error) {
		it.rows = append(it.rows, t)
		return false, nil
	})
	if err != nil {
		return nil, err
	}
	return it, nil
}

func (it *tableIter) Next() (Tuple, bool, error) {
	if it.i >= len(it.rows) {
		return nil, false, nil
	}
	t := it.rows[it.i]
	it.i++
	return t, true, nil
}

// DB is a catalog of tables sharing one buffer pool and disk.
type DB struct {
	disk    DiskManager
	pool    *BufferPool
	tables  map[string]*Table
	durable *durableState // nil unless opened via OpenDurable/CreateFile/OpenFile
}

// Options configures Open.
type Options struct {
	// Disk defaults to a fresh MemDisk.
	Disk DiskManager
	// Frames is the most 4 KiB frames the buffer pool will hold (default
	// 2048 = 8 MiB); a frame's memory is allocated when it is first used.
	Frames int
}

// Open creates a database instance.
func Open(o Options) *DB {
	if o.Disk == nil {
		o.Disk = NewMemDisk()
	}
	if o.Frames == 0 {
		o.Frames = 2048
	}
	return &DB{
		disk:   o.Disk,
		pool:   NewBufferPool(o.Disk, o.Frames),
		tables: make(map[string]*Table),
	}
}

// Pool returns the shared buffer pool.
func (db *DB) Pool() *BufferPool { return db.pool }

// Disk returns the underlying disk manager.
func (db *DB) Disk() DiskManager { return db.disk }

// CreateTable registers a new empty table.
func (db *DB) CreateTable(name string, schema *Schema) (*Table, error) {
	if _, dup := db.tables[name]; dup {
		return nil, fmt.Errorf("relstore: table %s already exists", name)
	}
	heap, err := NewHeapFile(db.pool)
	if err != nil {
		return nil, err
	}
	tb := &Table{Name: name, Schema: schema, db: db, heap: heap}
	db.tables[name] = tb
	return tb, nil
}

// DropTable removes a table from the catalog and returns its heap and
// index pages to the disk manager's free list, so drop/recreate cycles
// (the crawler's Tables() refresh) reuse the same pages instead of
// growing the disk. Any previously returned handle to the table becomes
// invalid: reads of its freed pages fail.
func (db *DB) DropTable(name string) error {
	tb, ok := db.tables[name]
	if !ok {
		return nil
	}
	delete(db.tables, name)
	if err := tb.heap.FreePages(); err != nil {
		return err
	}
	for _, ix := range tb.indexes {
		if err := ix.Tree.FreePages(); err != nil {
			return err
		}
	}
	tb.indexes = nil
	return nil
}

// Table returns the named table or nil.
func (db *DB) Table(name string) *Table { return db.tables[name] }

// Close flushes the pool and closes the disk. A durable DB checkpoints
// instead of merely flushing: a flush without a manifest write would put
// newer data pages under an older catalog, which is exactly the torn state
// recovery guards against.
func (db *DB) Close() error {
	if db.durable != nil {
		if err := db.Checkpoint(); err != nil {
			db.disk.Close()
			return err
		}
		return db.disk.Close()
	}
	if err := db.pool.FlushAll(); err != nil {
		return err
	}
	return db.disk.Close()
}
