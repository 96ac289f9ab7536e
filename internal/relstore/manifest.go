package relstore

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"slices"
	"sort"
)

// Durable mode. A durable DB reserves three metadata pages — two manifest
// roots (pages 1, 2) and a journal root (page 3) — and persists its catalog
// (every table's schema, heap-chain endpoints and row count, every index's
// B+tree root) together with the disk allocator state (page count and the
// ordered free-page stack) as a checkpoint manifest.
//
// The crash-consistency argument has three legs:
//
//  1. A write-back guard (BufferPool.held = durableState.liveAtLast):
//     between checkpoints a dirty page is written back only if the last
//     committed manifest does not reference it — it lies beyond that
//     manifest's page count or on its free list, and recovery discards it
//     (Restore truncates to the page count and re-imposes the free list).
//     Every page the last checkpoint references thus keeps that checkpoint's
//     image on disk; a crash mid-epoch loses only work done since. A page
//     live at the last checkpoint — freed and re-allocated since included —
//     stays resident-dirty until the next, counted by BufferPool.HeldDirty
//     so the caller can checkpoint before such pages fill the pool.
//  2. A rollback journal: a checkpoint's FlushAll overwrites, in place,
//     pages the previous checkpoint still references. Before flushing, the
//     old images of exactly those pages are copied to freshly allocated
//     journal pages and the journal root, which carries each image's
//     CRC-32, is written; one Sync covers them all. Recovery replays the
//     journal only if every image checks: a failing one means that Sync
//     never returned, so no page had been overwritten yet.
//  3. Ping-pong manifest roots: checkpoints alternate between the two
//     roots, each carrying a generation number and a CRC over its payload.
//     The flushed pages are synced before the root is written, and the
//     commit point is the root-page write followed by a Sync. The
//     newest valid root wins recovery, so a torn newer manifest is simply
//     ignored and the journal rolls the data pages back to the older one.
//
// Manifest and journal pages are written and read directly against the
// DiskManager, never through the buffer pool: they describe the pool's
// contents and must not be subject to its eviction timing.
//
// What the manifest cannot carry is code: index key functions are closures.
// A reopened table's indexes come back with their trees intact but their
// Key functions nil; the owning subsystem re-binds them by well-known name
// (Table.BindIndexKey) before use.
//
// The file has one layout, named by manifestVersion in every framed page.
// A layer that changes what it writes — a frame, the manifest, a heap or
// B+tree page, or the tables and records a crawl keeps in the catalog —
// bumps manifestVersion, and a file of another version is refused with
// ErrLayoutVersion, naming both versions. Nothing migrates: a file is
// recovered by the release that wrote it.

// Framed metadata page layout (manifest roots and the journal root):
//
//	[0:4)   magic
//	[4:8)   layout version (u32)
//	[8:16)  generation (u64)
//	[16:20) payload length (u32)
//	[20:24) CRC-32 (IEEE) of the whole payload
//	[24:28) next chain page (u32, 0 = none)
//	[28:)   payload prefix
//
// Chain page layout: [0:4) next chain page, [4:) payload continuation.
const (
	manifestMagic   = 0x4D434F46 // "FOCM" little-endian
	journalMagic    = 0x4B434F46 // "FOCK": image CRCs in the payload
	manifestVersion = 5          // the file's layout version (see above)
	manifestHdr     = 28
	chainHdr        = 4
	manifestRootA   = PageID(1)
	manifestRootB   = PageID(2)
	journalRoot     = PageID(3)
)

// ErrNotDurable reports a Checkpoint on a DB opened without durable mode.
var ErrNotDurable = errors.New("relstore: checkpoint on a non-durable DB")

// ErrNoManifest reports an OpenFile/OpenDurable of a disk that holds pages
// but no valid manifest — a corrupt file, or one never created by
// CreateFile/OpenDurable.
var ErrNoManifest = errors.New("relstore: no valid manifest (corrupt or foreign file)")

// ErrLayoutVersion reports an OpenFile/OpenDurable of a file whose framed
// pages carry another layout version than this release writes: no manifest
// root is valid, and one is well framed at another version.
var ErrLayoutVersion = errors.New("relstore: file layout version")

// manifest is the serialized checkpoint state (JSON inside the page set).
type manifest struct {
	Gen      uint64 `json:"gen"`
	NumPages int64  `json:"num_pages"`
	// Free is the allocator's free-page stack in order (Allocate pops the
	// end); restoring the order keeps post-resume page allocation — and so
	// the resumed run's physical layout — deterministic. It includes the
	// checkpoint's own scratch pages (journal pages, set-aside allocations),
	// which are freed in this order right after the commit.
	Free   []PageID        `json:"free"`
	Chains [2][]PageID     `json:"chains"` // both roots' overflow chains
	Tables []tableManifest `json:"tables"`
}

type tableManifest struct {
	Name      string          `json:"name"`
	Cols      []columnState   `json:"cols"`
	HeapFirst PageID          `json:"heap_first"`
	HeapLast  PageID          `json:"heap_last"`
	Rows      int64           `json:"rows"`
	Indexes   []indexManifest `json:"indexes"`
}

type columnState struct {
	Name string `json:"name"`
	Kind Kind   `json:"kind"`
}

type indexManifest struct {
	Name   string `json:"name"`
	Root   PageID `json:"root"`
	Height int    `json:"height"`
	Size   int64  `json:"size"`
}

// durableState is the DB's in-memory view of its manifest page set.
type durableState struct {
	disk   DurableDisk
	gen    uint64
	slot   int         // root slot the NEXT checkpoint writes (0 = page 1)
	chains [2][]PageID // overflow chain pages owned by each root
	// Allocator state as of the last committed checkpoint: a page is "live
	// at the last checkpoint" iff pid <= lastNumPages and not in
	// lastFreeSet. Live pages must be journaled before an in-place
	// overwrite, must never host checkpoint scratch data, and are never
	// written back between checkpoints.
	lastNumPages int64
	lastFreeSet  map[PageID]struct{}
}

// liveAtLast is also the pool's write-back guard, called under the poollatch
// leaf and from Unpin: it must stay non-blocking. It takes no lock because its
// two fields change only in noteCommitted — inside DB.Checkpoint, whose caller
// has quiesced all table access, and in OpenDurable before the DB is shared.
func (ds *durableState) liveAtLast(pid PageID) bool {
	if int64(pid) > ds.lastNumPages {
		return false
	}
	_, freed := ds.lastFreeSet[pid]
	return !freed
}

// Durable reports whether the DB persists a manifest (Checkpoint works).
func (db *DB) Durable() bool { return db.durable != nil }

// CreateFile creates a fresh durable DB in a new (truncated) file at path.
func CreateFile(path string, o Options) (*DB, error) {
	disk, err := OpenFileDisk(path)
	if err != nil {
		return nil, err
	}
	db, err := OpenDurable(disk, o)
	if err != nil {
		disk.Close()
		return nil, err
	}
	return db, nil
}

// OpenFile reopens an existing durable DB file at path, recovering the
// newest committed checkpoint; it returns an error (never panics) if the
// file is absent, truncated, or corrupt. Create a durable file with
// CreateFile first.
func OpenFile(path string, o Options) (*DB, error) {
	if _, err := os.Stat(path); err != nil {
		return nil, err
	}
	disk, err := OpenFileDiskAt(path)
	if err != nil {
		return nil, err
	}
	if disk.NumPages() == 0 {
		disk.Close()
		return nil, fmt.Errorf("%w: %s is empty", ErrNoManifest, path)
	}
	db, err := OpenDurable(disk, o)
	if err != nil {
		disk.Close()
		return nil, err
	}
	return db, nil
}

// OpenDurable opens a durable DB over any DurableDisk. An empty disk is
// initialized (metadata pages reserved, generation 1 committed); a
// non-empty disk is recovered from its newest committed checkpoint, with an
// error — not a panic — when none survives. The crash-injection tests run
// this over a MemDisk: the "crash" is discarding the buffer pool, the
// "reboot" is another OpenDurable over the same disk.
func OpenDurable(d DurableDisk, o Options) (*DB, error) {
	o.Disk = d
	db := Open(o)
	db.durable = &durableState{disk: d}
	// Between checkpoints no dirty page may overwrite an image the last
	// manifest references: leg 1 of the crash-consistency argument above.
	db.pool.held = db.durable.liveAtLast
	if d.NumPages() == 0 {
		for _, want := range []PageID{manifestRootA, manifestRootB, journalRoot} {
			pid, err := d.Allocate()
			if err != nil {
				return nil, err
			}
			if pid != want {
				return nil, fmt.Errorf("relstore: durable init allocated page %d, want %d", pid, want)
			}
		}
		// Generation 1 into slot 0; slot 1 stays invalid until the first
		// checkpoint. Nothing predates gen 1, so no journal is needed.
		if err := db.Checkpoint(); err != nil {
			return nil, err
		}
		return db, nil
	}
	m, slot, err := readNewestManifest(d)
	if err != nil {
		return nil, err
	}
	if err := m.validate(); err != nil {
		return nil, err
	}
	// The journal must be read before Restore (its pages may lie beyond the
	// manifest's page count) and replayed after (its targets are live pages
	// of the recovered generation).
	images, err := readJournal(d, m.Gen)
	if err != nil {
		return nil, err
	}
	if err := d.Restore(m.NumPages, m.Free); err != nil {
		return nil, err
	}
	for _, im := range images {
		if err := d.WritePage(im.pid, im.data); err != nil {
			return nil, fmt.Errorf("relstore: journal replay of page %d: %w", im.pid, err)
		}
	}
	if len(images) > 0 {
		if err := d.Sync(); err != nil {
			return nil, err
		}
	}
	db.durable.gen = m.Gen
	db.durable.slot = 1 - slot // next checkpoint goes to the other root
	db.durable.chains = m.Chains
	db.durable.noteCommitted(m)
	if err := db.attachCatalog(m); err != nil {
		return nil, err
	}
	return db, nil
}

// validate checks what a recovered manifest claims before OpenDurable acts
// on any of it. The CRC proves only that the payload is the one written; a
// payload written wrong must still come back as an error, not as an
// allocator that hands a page out twice, one page with two owners (free and
// live, a manifest chain and a table), a schema that cannot be built or a
// tree walk that never ends. The pages inside a heap chain or a tree are
// checked by the reads that reach them.
func (m *manifest) validate() error {
	if m.NumPages < int64(journalRoot) {
		return fmt.Errorf("relstore: manifest page count %d leaves no room for the metadata pages", m.NumPages)
	}
	pages := slices.Concat(m.Free, m.Chains[0], m.Chains[1])
	for _, tm := range m.Tables {
		cols := make(map[string]bool, len(tm.Cols))
		for _, c := range tm.Cols {
			if cols[c.Name] {
				return fmt.Errorf("relstore: manifest: table %s lists column %s twice", tm.Name, c.Name)
			}
			cols[c.Name] = true
		}
		if tm.Rows < 0 || tm.Rows/(PageSize/heapSlotLen) > m.NumPages {
			return fmt.Errorf("relstore: manifest: table %s claims %d rows", tm.Name, tm.Rows)
		}
		pages = append(pages, tm.HeapFirst)
		if tm.HeapLast != tm.HeapFirst {
			pages = append(pages, tm.HeapLast)
		}
		for _, im := range tm.Indexes {
			// Every node has two children or one key: 2^32 pages stack no
			// tree higher than 33.
			if im.Height < 1 || im.Height > 33 || im.Size < 0 {
				return fmt.Errorf("relstore: manifest: index %s.%s has height %d, size %d", tm.Name, im.Name, im.Height, im.Size)
			}
			pages = append(pages, im.Root)
		}
	}
	owned := make(map[PageID]bool, len(pages))
	for _, pid := range pages {
		if pid <= journalRoot || int64(pid) > m.NumPages || owned[pid] {
			return fmt.Errorf("relstore: manifest: page %d out of range or listed twice", pid)
		}
		owned[pid] = true
	}
	return nil
}

func (ds *durableState) noteCommitted(m *manifest) {
	ds.lastNumPages = m.NumPages
	ds.lastFreeSet = make(map[PageID]struct{}, len(m.Free))
	for _, pid := range m.Free {
		ds.lastFreeSet[pid] = struct{}{}
	}
}

// Checkpoint atomically persists the DB's current state: it journals the
// old images of live pages about to be overwritten, flushes every dirty
// buffer-pool frame, serializes the catalog and allocator into the inactive
// manifest root (and its overflow chain), and syncs the disk. The caller
// must have quiesced all table access for the duration — in the crawler
// that is the epoch mutex and the stop-the-world barrier (see
// crawler.Checkpoint). On any error or
// crash the previous checkpoint remains recoverable; on success the new
// generation is the one recovery will choose.
func (db *DB) Checkpoint() error {
	ds := db.durable
	if ds == nil {
		return ErrNotDurable
	}
	// Scratch pages (journal copies, manifest chain growth) are allocated
	// with safeAllocate so they never land on a page the previous
	// checkpoint still references: writing one directly would bypass the
	// journal. Unusable pops are set aside and released with the journal
	// pages after the commit.
	var setAside, journalPages []PageID
	safeAllocate := func() (PageID, error) {
		for {
			pid, err := db.disk.Allocate()
			if err != nil {
				return InvalidPage, err
			}
			if ds.liveAtLast(pid) {
				setAside = append(setAside, pid)
				continue
			}
			return pid, nil
		}
	}

	// Journal: copy the current on-disk image (which is the previous
	// checkpoint's, by the guard) of every dirty live page to scratch pages,
	// then commit the journal root. Ordered before FlushAll — this is the
	// barrier that makes the in-place flush safe.
	dirty := db.pool.DirtyPages()
	var pairs []journalPair
	buf := make([]byte, PageSize)
	for _, pid := range dirty {
		if !ds.liveAtLast(pid) {
			continue
		}
		if err := db.disk.ReadPage(pid, buf); err != nil {
			return err
		}
		jp, err := safeAllocate()
		if err != nil {
			return err
		}
		if err := db.disk.WritePage(jp, buf); err != nil {
			return err
		}
		journalPages = append(journalPages, jp)
		pairs = append(pairs, journalPair{orig: pid, copy: jp, crc: crc32.ChecksumIEEE(buf)})
	}
	if len(pairs) > 0 {
		jpayload := encodeJournal(pairs)
		var jchain []PageID
		for len(jchain) < chainPagesFor(len(jpayload)) {
			pid, err := safeAllocate()
			if err != nil {
				return err
			}
			jchain = append(jchain, pid)
		}
		journalPages = append(journalPages, jchain...)
		// The images, the chain and the root share one sync window: the
		// images' CRCs in the root tell recovery whether it closed.
		if err := writeFramed(ds.disk, journalRoot, jchain, journalMagic, ds.gen, jpayload); err != nil {
			return err
		}
		if err := ds.disk.Sync(); err != nil {
			return err
		}
	}

	// A device may persist a sync window's writes in any order, so the
	// flushed pages are made durable before the root that references them.
	if err := db.pool.FlushAll(); err != nil {
		return err
	}
	if len(dirty) > 0 {
		if err := ds.disk.Sync(); err != nil {
			return err
		}
	}

	slot := ds.slot
	gen := ds.gen + 1
	// Serialize-and-grow loop: extending this root's overflow chain
	// allocates pages, which mutates the very allocator state (free list,
	// page count) the payload captures — so re-serialize until the payload
	// fits the chain it describes. Each iteration grows the chain by one
	// page while the payload grows by a few dozen bytes, so it converges.
	var payload []byte
	for {
		m := db.buildManifest(gen, setAside, journalPages)
		var err error
		payload, err = json.Marshal(m)
		if err != nil {
			return err
		}
		if chainPagesFor(len(payload)) <= len(ds.chains[slot]) {
			break
		}
		pid, err := safeAllocate()
		if err != nil {
			return err
		}
		ds.chains[slot] = append(ds.chains[slot], pid)
	}
	if err := writeFramed(ds.disk, rootFor(slot), ds.chains[slot], manifestMagic, gen, payload); err != nil {
		return err
	}
	// The root write above is the commit point once this Sync returns.
	if err := ds.disk.Sync(); err != nil {
		return err
	}
	ds.gen = gen
	ds.slot = 1 - slot
	// Release the scratch pages in exactly the order the manifest recorded
	// them as free, so the in-memory allocator matches what a recovery of
	// this very checkpoint would rebuild.
	for _, pid := range setAside {
		if err := db.disk.Free(pid); err != nil {
			return err
		}
	}
	for _, pid := range journalPages {
		if err := db.disk.Free(pid); err != nil {
			return err
		}
	}
	m := db.buildManifest(gen, nil, nil) // post-free state for the live set
	ds.noteCommitted(m)
	return nil
}

func rootFor(slot int) PageID {
	if slot == 0 {
		return manifestRootA
	}
	return manifestRootB
}

// chainPagesFor returns how many overflow chain pages a payload needs
// beyond the root page's own payload area.
func chainPagesFor(payloadLen int) int {
	rest := payloadLen - (PageSize - manifestHdr)
	if rest <= 0 {
		return 0
	}
	per := PageSize - chainHdr
	return (rest + per - 1) / per
}

// buildManifest captures the catalog and allocator state. Tables are
// emitted in name order so the payload is stable for a given state.
// toFree are scratch pages still allocated at build time but released
// immediately after the commit; the manifest lists them as free so
// recovery and continuation agree on the allocator.
func (db *DB) buildManifest(gen uint64, setAside, journalPages []PageID) *manifest {
	m := &manifest{
		Gen:      gen,
		NumPages: db.disk.NumPages(),
		Free:     db.durable.disk.FreeList(),
		Chains:   db.durable.chains,
	}
	m.Free = append(m.Free, setAside...)
	m.Free = append(m.Free, journalPages...)
	names := make([]string, 0, len(db.tables))
	for name := range db.tables {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		tb := db.tables[name]
		tm := tableManifest{
			Name:      tb.Name,
			HeapFirst: tb.heap.first,
			HeapLast:  tb.heap.last,
			Rows:      tb.heap.rows,
		}
		for _, col := range tb.Schema.Cols {
			tm.Cols = append(tm.Cols, columnState{Name: col.Name, Kind: col.Kind})
		}
		for _, ix := range tb.indexes {
			tm.Indexes = append(tm.Indexes, indexManifest{
				Name: ix.Name, Root: ix.Tree.root,
				Height: ix.Tree.height, Size: ix.Tree.size,
			})
		}
		m.Tables = append(m.Tables, tm)
	}
	return m
}

// writeFramed writes the payload across the chain pages first, then the
// root page last — the root carries the CRC and generation, so a crash
// before the root write leaves the previous occupant's root untouched.
func writeFramed(d DurableDisk, root PageID, chain []PageID, magic uint32, gen uint64, payload []byte) error {
	crc := crc32.ChecksumIEEE(payload)
	rootPart := payload
	if len(rootPart) > PageSize-manifestHdr {
		rootPart = rootPart[:PageSize-manifestHdr]
	}
	rest := payload[len(rootPart):]
	var page [PageSize]byte
	for i := 0; i < len(chain) && len(rest) > 0; i++ {
		for j := range page {
			page[j] = 0
		}
		part := rest
		if len(part) > PageSize-chainHdr {
			part = part[:PageSize-chainHdr]
		}
		rest = rest[len(part):]
		next := InvalidPage
		if len(rest) > 0 && i+1 < len(chain) {
			next = chain[i+1]
		}
		binary.LittleEndian.PutUint32(page[0:], uint32(next))
		copy(page[chainHdr:], part)
		if err := d.WritePage(chain[i], page[:]); err != nil {
			return err
		}
	}
	if len(rest) > 0 {
		return fmt.Errorf("relstore: framed payload overflows its chain (%d bytes left)", len(rest))
	}
	for j := range page {
		page[j] = 0
	}
	binary.LittleEndian.PutUint32(page[0:], magic)
	binary.LittleEndian.PutUint32(page[4:], manifestVersion)
	binary.LittleEndian.PutUint64(page[8:], gen)
	binary.LittleEndian.PutUint32(page[16:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(page[20:], crc)
	next := InvalidPage
	if len(payload) > PageSize-manifestHdr {
		next = chain[0]
	}
	binary.LittleEndian.PutUint32(page[24:], uint32(next))
	copy(page[manifestHdr:], rootPart)
	return d.WritePage(root, page[:])
}

// readFramed parses a framed payload rooted at the given page, following
// its chain and verifying magic, length, and CRC.
func readFramed(d DiskManager, root PageID, magic uint32) (uint64, []byte, error) {
	var page [PageSize]byte
	if err := d.ReadPage(root, page[:]); err != nil {
		return 0, nil, err
	}
	if binary.LittleEndian.Uint32(page[0:]) != magic {
		return 0, nil, fmt.Errorf("relstore: page %d: bad frame magic", root)
	}
	if v := binary.LittleEndian.Uint32(page[4:]); v != manifestVersion {
		return 0, nil, fmt.Errorf("%w: page %d is layout version %d, this release reads %d; recover the file with the release that wrote it",
			ErrLayoutVersion, root, v, manifestVersion)
	}
	gen := binary.LittleEndian.Uint64(page[8:])
	plen := int(binary.LittleEndian.Uint32(page[16:]))
	crc := binary.LittleEndian.Uint32(page[20:])
	next := PageID(binary.LittleEndian.Uint32(page[24:]))
	if plen < 0 || plen > 64<<20 {
		return 0, nil, fmt.Errorf("relstore: page %d: implausible frame length %d", root, plen)
	}
	payload := make([]byte, 0, plen)
	part := page[manifestHdr:]
	if len(part) > plen {
		part = part[:plen]
	}
	payload = append(payload, part...)
	for len(payload) < plen {
		if next == InvalidPage {
			return 0, nil, fmt.Errorf("relstore: page %d: frame chain truncated (%d/%d bytes)", root, len(payload), plen)
		}
		if err := d.ReadPage(next, page[:]); err != nil {
			return 0, nil, err
		}
		next = PageID(binary.LittleEndian.Uint32(page[0:]))
		part = page[chainHdr:]
		if rem := plen - len(payload); len(part) > rem {
			part = part[:rem]
		}
		payload = append(payload, part...)
	}
	if crc32.ChecksumIEEE(payload) != crc {
		return 0, nil, fmt.Errorf("relstore: page %d: frame checksum mismatch", root)
	}
	return gen, payload, nil
}

// readManifestAt parses and validates the manifest rooted at root.
func readManifestAt(d DiskManager, root PageID) (*manifest, error) {
	gen, payload, err := readFramed(d, root, manifestMagic)
	if err != nil {
		return nil, err
	}
	m := &manifest{}
	if err := json.Unmarshal(payload, m); err != nil {
		return nil, fmt.Errorf("relstore: page %d: manifest decode: %w", root, err)
	}
	if m.Gen != gen {
		return nil, fmt.Errorf("relstore: page %d: manifest generation mismatch (header %d, payload %d)", root, gen, m.Gen)
	}
	return m, nil
}

// readNewestManifest tries both roots and returns the valid manifest with
// the highest generation and the slot it was read from. With neither valid,
// a root of another layout version makes the error ErrLayoutVersion.
func readNewestManifest(d DiskManager) (*manifest, int, error) {
	var best *manifest
	slot := -1
	var firstErr, versionErr error
	for s, root := range []PageID{manifestRootA, manifestRootB} {
		m, err := readManifestAt(d, root)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			if versionErr == nil && errors.Is(err, ErrLayoutVersion) {
				versionErr = err
			}
			continue
		}
		if best == nil || m.Gen > best.Gen {
			best, slot = m, s
		}
	}
	switch {
	case best != nil:
		return best, slot, nil
	case versionErr != nil:
		return nil, -1, versionErr
	}
	return nil, -1, fmt.Errorf("%w: %w", ErrNoManifest, firstErr)
}

// journalPair records one journaled page: orig is the live page about to be
// overwritten, copy holds its previous-checkpoint image, whose CRC-32 is crc.
type journalPair struct {
	orig, copy PageID
	crc        uint32
}

func encodeJournal(pairs []journalPair) []byte {
	out := make([]byte, 12*len(pairs))
	for i, p := range pairs {
		binary.LittleEndian.PutUint32(out[12*i:], uint32(p.orig))
		binary.LittleEndian.PutUint32(out[12*i+4:], uint32(p.copy))
		binary.LittleEndian.PutUint32(out[12*i+8:], p.crc)
	}
	return out
}

type journalImage struct {
	pid  PageID
	data []byte
}

// readJournal reads the rollback journal and, when it protects exactly the
// generation being recovered (bestGen — meaning the checkpoint after it
// never committed), loads the saved images. Any invalid, torn, or stale
// journal, or an image failing its CRC, means no rollback is needed: the
// interrupted checkpoint never got to its in-place flush, or it committed.
func readJournal(d DiskManager, bestGen uint64) ([]journalImage, error) {
	gen, payload, err := readFramed(d, journalRoot, journalMagic)
	if err != nil || gen != bestGen || len(payload)%12 != 0 {
		return nil, nil
	}
	images := make([]journalImage, 0, len(payload)/12)
	for off := 0; off < len(payload); off += 12 {
		cp := PageID(binary.LittleEndian.Uint32(payload[off+4:]))
		img := journalImage{pid: PageID(binary.LittleEndian.Uint32(payload[off:])), data: make([]byte, PageSize)}
		if err := d.ReadPage(cp, img.data); err != nil {
			return nil, fmt.Errorf("relstore: journal page %d unreadable: %w", cp, err)
		}
		if crc32.ChecksumIEEE(img.data) != binary.LittleEndian.Uint32(payload[off+8:]) {
			return nil, nil
		}
		images = append(images, img)
	}
	return images, nil
}

// attachCatalog rebuilds the in-memory catalog from a recovered manifest:
// tables with their heaps re-pointed at the persisted chains, indexes with
// their trees re-rooted. Index Key functions come back nil; owners re-bind
// them (BindIndexKey) before any index write or lookup.
func (db *DB) attachCatalog(m *manifest) error {
	for _, tm := range m.Tables {
		if _, dup := db.tables[tm.Name]; dup {
			return fmt.Errorf("relstore: manifest lists table %s twice", tm.Name)
		}
		cols := make([]Column, len(tm.Cols))
		for i, c := range tm.Cols {
			cols[i] = Column{Name: c.Name, Kind: c.Kind}
		}
		tb := &Table{
			Name:   tm.Name,
			Schema: NewSchema(cols...),
			db:     db,
			heap:   &HeapFile{bp: db.pool, first: tm.HeapFirst, last: tm.HeapLast, rows: tm.Rows},
		}
		for _, im := range tm.Indexes {
			tb.indexes = append(tb.indexes, &Index{
				Name: im.Name,
				Tree: &BTree{bp: db.pool, root: im.Root, height: im.Height, size: im.Size},
			})
		}
		db.tables[tm.Name] = tb
	}
	return nil
}

// BindIndexKey re-binds a reopened index's key function. Manifests persist
// index structure but not code (key functions are closures), so the
// subsystem that owns a table must re-attach the same key function — by the
// index's well-known name — before using it after OpenFile/OpenDurable.
// Binding a different function than the one that built the tree silently
// corrupts lookups, so callers keep key functions versioned with the index
// name (the crawler refuses to resume under a different checkout policy for
// exactly this reason).
func (tb *Table) BindIndexKey(name string, key func(Tuple) []byte) error {
	ix := tb.Index(name)
	if ix == nil {
		return fmt.Errorf("relstore: table %s has no index %s to bind", tb.Name, name)
	}
	ix.Key = key
	return nil
}
