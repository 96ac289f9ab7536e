// Package relstore is a small page-based relational storage engine. It plays
// the role that IBM DB2/UDB plays in Chakrabarti, van den Berg and Dom,
// "Distributed Hypertext Resource Discovery Through Examples" (VLDB 1999):
// it is not merely a row store but the machine on which the classifier and
// distiller are expressed as database computations.
//
// The engine provides:
//
//   - a DiskManager abstraction (in-memory or file-backed) that counts page
//     reads and writes, so experiments can report I/O rather than only wall
//     time;
//   - a BufferPool of at most a configurable number of 4 KiB frames (a
//     frame's image is allocated when the frame is first used) with clock
//     replacement; the frame count is the setting the paper's Figure 8(b)
//     varies;
//   - slotted-page HeapFiles for table rows;
//   - a B+tree over order-preserving byte-encoded composite keys, used by
//     Figure 8's access paths — the materialized classifier's BLOB and
//     STAT_c0 probes, the index walk's oid lookups — and by no table the
//     crawl keeps; every operation searches and edits the pinned page's
//     bytes in place (no node is decoded), costs exactly one Fetch per node
//     it visits, and reports a damaged page as ErrCorruptNode;
//   - set-oriented writes (see "Writing in sets" below): BTree.InsertRun,
//     HeapFile.InsertRun and Table.InsertBatch over a RowBatch, and in-place
//     access to fixed-width columns (Table.ReadCols, Table.SetCol);
//   - query operators: sequential scan, index scan, external merge sort,
//     sort-merge inner and left outer joins, and streaming group-by
//     aggregation — enough to express the bulk classification plan of the
//     paper's Figure 3.
//     The distillation plan of Figure 4 reads its relations through Scan
//     and compiles its joins in memory (distiller.RunJoin).
//
// # Writing in sets
//
// The write path has one body per structure, and the single-row call is the
// set of one:
//
//   - BTree.InsertRun(keys, vals) stores the pairs in slice order, each as
//     Insert would — the tree ends up exactly as a loop of Insert leaves it.
//     What it saves is descents: once a key has gone into the pinned leaf,
//     the next goes into the same leaf when it is not below that key and
//     either a key already in the leaf is greater or the leaf is the last of
//     the chain. The leaf's usage (live bytes, lowest cell) is computed once
//     per descent and carried along, never stored on the page. Ascending
//     runs therefore cost one descent per leaf touched; any other order is
//     still correct, one descent per key. Insert is InsertRun of one.
//   - HeapFile.InsertRun appends records under one pin of the tail page for
//     as many as it takes. Insert is the run of one.
//   - A RowBatch (Table.NewBatch, or the table's own reusable Table.Batch)
//     holds rows already encoded — record and one key per index — in one
//     arena that survives Reset. Rows are added whole (Add: keys from the
//     indexes' key functions) or as AddRecord plus one Key call per index,
//     in index order, which allocates nothing per row. A batch reads and
//     writes nothing of the table until InsertBatch, so it can be filled,
//     sorted (Sort), have rows dropped (Skip) and fixed-width columns
//     patched (SetCol) outside the table's lock. Table.InsertBatch then puts
//     the records on the heap in row order and feeds each index its keys as
//     one ascending run. Table.Insert is the batch of one.
//
// Fixed-width columns (INT, BIGINT, DOUBLE) can be read and overwritten
// where they lie on the pinned heap page: Table.ReadCols decodes just the
// columns asked for, Table.SetCol overwrites one. Neither copies the record
// or decodes the rest of the row, and SetCol touches no index — so the rule
// is: SetCol only a column that no index key contains (the table cannot
// check this; key functions are opaque). A column that is part of a key is
// changed through Update, or through UpdateFrom when the caller already
// holds the stored row and Update's re-read would be wasted.
//
// # Concurrency contract
//
// The engine distinguishes three levels of thread-safety, which the sharded
// crawler frontier relies on:
//
//   - DiskManager implementations (MemDisk, FileDisk) and the BufferPool
//     are fully thread-safe: Fetch, NewPage, Unpin, and Allocate may be
//     called from any number of goroutines. Eviction only ever claims
//     unpinned frames, so a frame's page image is stable for as long as a
//     caller holds a pin. The pool has one latch, and a miss performs its
//     disk read *outside* it. Concurrent fetchers of the same cold page
//     single-flight onto one read: a Fetch that returns never exposes a
//     partially loaded frame, and the page
//     image it pins is exactly the on-disk image (or the image a
//     concurrent writer published under the pin-and-own rules below).
//     Dirty evictions write back before the frame is reused, and a
//     re-fetch of a page whose write-back is still in flight waits for it
//     — callers never observe stale on-disk bytes through the pool.
//
//   - Page *contents* follow a pin-and-own discipline: concurrent pinners
//     of the same frame may all read, but writers of a page must be
//     externally serialized with every other accessor of that page.
//     Distinct tables (and their B+trees and heap files) occupy disjoint
//     pages, so concurrent operations on *different* tables over one
//     shared pool are safe without further locking — this is how the
//     crawler's frontier shards run in parallel.
//
//   - Tables, HeapFiles, BTrees, and Indexes are single-writer and
//     non-reentrant per structure: all access to any one of them (reads
//     included, since reads traverse pages a concurrent writer may be
//     splitting) must be serialized by the caller, as the crawler does
//     with one mutex per frontier shard and the linkgraph store does with
//     one mutex per LINK stripe. Iterators must be drained or abandoned
//     before the underlying table is mutated.
//
// Scan callbacks follow from the same two rules. HeapFile.Scan, BTree.Scan
// and Index.ScanRange/ScanPrefix hand their callback slices of the page they
// hold pinned: the bytes are valid during that call only (copy what must
// outlive it; BTree.Get, BTree.First and Index.First return copies), must
// not be written, and the callback must not insert into or delete from the
// structure being scanned — collect first, mutate after the scan returns.
// It may freely read or write other structures.
//
// The DB catalog (CreateTable/DropTable/Table) is also single-writer;
// callers that create tables while other goroutines run must hold whatever
// lock serializes those goroutines (the crawler materializes its CRAWL
// snapshot only under its stop-the-world barrier).
//
// # Caller lock ordering over partitioned relations
//
// When one logical relation is partitioned into several tables with one
// caller mutex each (frontier shards, link stripes), the per-structure
// contract above is satisfied stripe by stripe, but the callers must also
// agree on an acquisition order across the partition mutexes and any
// coarser locks. The crawler's tower, bottom up, is: the epoch mutex
// (epochMu, which serializes distillation epochs and checkpoints) < link
// stripe mutexes (ascending id) < frontier shard mutex. Cross-partition
// operations (consistent snapshots, the distillation barrier) take the
// partition locks in ascending id order; single-partition operations may
// nest a higher-ranked lock (a stripe holder may take a shard lock) but
// never a lower-ranked one. See DESIGN.md ("Locking and ordering contract") and
// the linkgraph package doc for the rationale on each edge of that order.
//
// # Durability contract
//
// A DB opened with CreateFile, OpenFile, or OpenDurable (over any
// DurableDisk — FileDisk, or MemDisk/FaultDisk in tests) is durable:
// DB.Checkpoint commits the current state, and reopening after a crash
// recovers exactly the last completed checkpoint. The design is a write-back
// guard plus a rollback journal plus ping-pong manifest roots (see
// manifest.go for the full crash-consistency argument):
//
//   - Between checkpoints a dirty page is written back only if the last
//     committed manifest does not reference it (it lies beyond that
//     manifest's page count or on its free list — recovery discards such a
//     page), so every page the last checkpoint references keeps that
//     checkpoint's image on disk. What binds callers is the rest: a page
//     that was live at the last checkpoint and has been dirtied since stays
//     in the pool until the next one. BufferPool.HeldDirty counts those
//     pages; a caller that checkpoints before they fill the pool (the
//     crawler does at half of NumFrames) lives within any Options.Frames
//     that holds the dirty pages of the operations running at once, and only
//     a pool smaller than that fails a fetch with ErrPoolExhausted.
//   - The device model: a write is durable once a later Sync returns;
//     until then a crash may keep any subset of the writes since the last
//     Sync, in any order, and tear a page at a sector boundary. So
//     Checkpoint orders its writes in up to three sync windows: the prior
//     images of live pages it will overwrite, each CRC'd in the journal
//     root written beside them; the flush of the dirty set; the commit, a
//     generation-stamped, CRC-guarded manifest in the alternate root page.
//     The manifest carries the catalog (schemas, heap
//     chains, row counts, B+tree roots) and the allocator's ordered free
//     list, so recovery restores both the data and the allocation order —
//     a resumed run's physical page layout is deterministic.
//   - OpenFile/OpenDurable recover by picking the newest valid root,
//     replaying the journal if a later checkpoint tore mid-write, and
//     restoring the free list. A disk with pages but no valid manifest is
//     rejected with ErrNoManifest; Checkpoint on a non-durable DB returns
//     ErrNotDurable.
//
// Index key functions are closures and cannot be persisted: a reopened
// table's indexes have their trees intact but Key nil, and the owner must
// re-bind them by name (Table.BindIndexKey) before any index operation, or
// drop them (Table.DropIndex), as the crawler's Resume does with the trees
// older files carry: none of its tables keeps an index.
// Checkpoint is single-writer like the catalog: the caller must hold
// whatever serializes all table access (the crawler checkpoints under its
// barrier). DurableDisk adds Sync, FreeList, and Restore to
// DiskManager; Stats() exposes physical read/write counters either way.
package relstore
