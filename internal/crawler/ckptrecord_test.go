package crawler

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"focus/internal/relstore"
)

// TestCheckpointRecordsSpanRows: a state and an extra blob larger than one
// heap record each travel as one record split across rows. A CheckpointExtra
// of three records' worth and a state holding more than a record of
// NotBefore times round-trip byte for byte through Checkpoint, reopen and
// ReadCheckpoint, and Resume restores every retry time.
func TestCheckpointRecordsSpanRows(t *testing.T) {
	f := genSite(5, 60, 4, 0)
	_, m := tinyModel(t)
	disk := relstore.NewMemDisk()
	opts := relstore.Options{Frames: 1024}
	db, err := relstore.OpenDurable(disk, opts)
	if err != nil {
		t.Fatal(err)
	}
	extra := make([]byte, 3*relstore.MaxRecordLen)
	rand.New(rand.NewSource(1)).Read(extra)
	cfg := Config{Workers: 2, MaxFetches: 40, CheckpointExtra: func() ([]byte, error) { return extra, nil }}
	c, err := New(db, m, f, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Seed(seedURLs(f, 4)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Run(); err != nil {
		t.Fatal(err)
	}
	// Retry times an hour out, so none lapses before the checkpoint reads
	// them: far more than a record's worth of JSON.
	const planted = 400
	now := time.Now()
	for i := 0; i < planted; i++ {
		c.shards[i%len(c.shards)].notBefore[1e15+int64(i)] = now.Add(time.Hour + time.Duration(i)*time.Millisecond)
	}
	if err := c.Checkpoint(); err != nil {
		t.Fatal(err)
	}

	db2, err := relstore.OpenDurable(disk, opts)
	if err != nil {
		t.Fatal(err)
	}
	rows := map[string]int{}
	err = db2.Table(ckptTable).Scan(func(_ relstore.RID, tp relstore.Tuple) (bool, error) {
		name, _, _ := strings.Cut(tp[0].S, "#")
		rows[name]++
		return false, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if rows["state"] < 2 || rows["extra"] < 4 {
		t.Fatalf("CKPT rows by record %v: the state should span two rows or more and the extra four", rows)
	}
	st, err := ReadCheckpoint(db2)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(st.Extra, extra) {
		t.Fatalf("extra blob came back as %d bytes, not the %d written", len(st.Extra), len(extra))
	}
	recs, err := readRecords(db2.Table(ckptTable))
	if err != nil {
		t.Fatal(err)
	}
	again, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	if state := recs[recState].payload; len(state) <= relstore.MaxRecordLen || !bytes.Equal(state, again) {
		t.Fatalf("state record of %d bytes does not re-encode to itself (%d bytes)", len(state), len(again))
	}
	var got int
	for _, sh := range st.Shards {
		for oid, d := range sh.NotBefore {
			if oid < 1e15 {
				continue
			}
			got++
			if planted := time.Hour + time.Duration(oid-1e15)*time.Millisecond; d > planted || d < planted-time.Minute {
				t.Fatalf("oid %d: %v to wait, planted %v", oid, d, planted)
			}
		}
	}
	if got != planted {
		t.Fatalf("%d retry times came back, %d planted", got, planted)
	}
	c2, err := Resume(db2, m, f, cfg)
	if err != nil {
		t.Fatal(err)
	}
	got = 0
	for _, sh := range c2.shards {
		for oid := range sh.notBefore {
			if oid >= 1e15 {
				got++
			}
		}
	}
	if got != planted {
		t.Fatalf("Resume restored %d retry times, %d planted", got, planted)
	}
}

// pageWrites wraps a durable disk and records which pages were written.
type pageWrites struct {
	relstore.DurableDisk
	mu      sync.Mutex
	written map[relstore.PageID]bool
}

func (d *pageWrites) WritePage(pid relstore.PageID, b []byte) error {
	d.mu.Lock()
	d.written[pid] = true
	d.mu.Unlock()
	return d.DurableDisk.WritePage(pid, b)
}

// pagesOf lists the pages holding tab's rows.
func pagesOf(t *testing.T, tab *relstore.Table) []relstore.PageID {
	t.Helper()
	var pages []relstore.PageID
	err := tab.Scan(func(rid relstore.RID, _ relstore.Tuple) (bool, error) {
		if !slices.Contains(pages, rid.Page) {
			pages = append(pages, rid.Page)
		}
		return false, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return pages
}

// TestCheckpointRewritesScoresOnlyAfterAnEpoch: the score record is written
// by the first checkpoint after an epoch publishes and by no other, so a
// checkpoint with no epoch since the previous one writes no score page.
// Resume publishes exactly the scores of the last epoch.
func TestCheckpointRewritesScoresOnlyAfterAnEpoch(t *testing.T) {
	f := genSite(7, 600, 12, 0)
	_, m := tinyModel(t)
	disk := &pageWrites{DurableDisk: relstore.NewMemDisk(), written: map[relstore.PageID]bool{}}
	opts := relstore.Options{Frames: 2048}
	db, err := relstore.OpenDurable(disk, opts)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Workers: 1, MaxFetches: 300, DistillEvery: 100}
	c, err := New(db, m, f, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Seed(seedURLs(f, 4)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Run(); err != nil {
		t.Fatal(err)
	}
	checkpoint := func() {
		t.Helper()
		disk.mu.Lock()
		clear(disk.written)
		disk.mu.Unlock()
		if err := c.Checkpoint(); err != nil {
			t.Fatal(err)
		}
	}
	checkpoint()
	pages := pagesOf(t, db.Table(ckptScoresTable))
	if len(pages) < 2 {
		t.Fatalf("the score record of %d hubs and %d authorities fills %d pages: too few for this test to mean anything",
			len(c.pub.Load().hubs), len(c.pub.Load().auth), len(pages))
	}
	checkpoint()
	for _, p := range pages {
		if disk.written[p] {
			t.Fatalf("a checkpoint with no epoch since the last one wrote score page %d", p)
		}
	}
	if len(disk.written) == 0 {
		t.Fatal("the second checkpoint wrote no page at all")
	}

	if err := c.distill(); err != nil {
		t.Fatal(err)
	}
	checkpoint()
	for _, p := range pagesOf(t, db.Table(ckptScoresTable)) {
		if !disk.written[p] {
			t.Fatalf("the checkpoint after an epoch left score page %d unwritten", p)
		}
	}
	want := c.pub.Load()

	db2, err := relstore.OpenDurable(disk, opts)
	if err != nil {
		t.Fatal(err)
	}
	c2, err := Resume(db2, m, f, cfg)
	if err != nil {
		t.Fatal(err)
	}
	got := c2.pub.Load()
	if got.epoch != want.epoch || !slices.Equal(got.hubs, want.hubs) || !slices.Equal(got.auth, want.auth) {
		t.Fatalf("resumed epoch %d with %d hubs and %d authorities, checkpointed epoch %d with %d and %d (or the scores differ)",
			got.epoch, len(got.hubs), len(got.auth), want.epoch, len(want.hubs), len(want.auth))
	}
}

// TestResumeRefusesScoreRecordOfAnotherEpoch: Resume refuses, by name, a
// score record stamped with another epoch than the state's, and a file at a
// nonzero epoch with no score record (which reads as epoch 0's).
func TestResumeRefusesScoreRecordOfAnotherEpoch(t *testing.T) {
	f := genSite(9, 80, 4, 0)
	_, m := tinyModel(t)
	disk := relstore.NewMemDisk()
	opts := relstore.Options{Frames: 1024}
	db, err := relstore.OpenDurable(disk, opts)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Workers: 1, MaxFetches: 50, DistillEvery: 20}
	c, err := New(db, m, f, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Seed(seedURLs(f, 4)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Run(); err != nil {
		t.Fatal(err)
	}
	if err := c.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	pub := c.pub.Load()
	if pub.epoch == 0 {
		t.Fatal("no epoch published: nothing for this test to check")
	}
	for _, tc := range []struct {
		name    string
		record  bool
		epoch   int64
		refusal string
	}{
		{"stale record", true, pub.epoch - 1, "score record is epoch"},
		{"no record", false, 0, "score record is epoch 0"},
	} {
		sc := db.Table(ckptScoresTable)
		if err := sc.Truncate(); err != nil {
			t.Fatal(err)
		}
		if tc.record {
			if err := writeRecord(sc, recScores, tc.epoch, encodeScores(pub)); err != nil {
				t.Fatal(err)
			}
		}
		if err := db.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		db2, err := relstore.OpenDurable(disk, opts)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := Resume(db2, m, f, cfg); err == nil || !strings.Contains(err.Error(), tc.refusal) {
			t.Errorf("%s: Resume returned %v, want a refusal naming %q", tc.name, err, tc.refusal)
		}
	}
}

// TestResumeRefusesOtherLayouts: Resume refuses by name what only another
// layout of the file holds — a state in unframed rows, a state with shard
// records for another shard count, no score table, and a CRAWL heap row in
// flight — and a state whose mode is outside the three, which names no
// checkout order, even resumed under that mode; each refusal leaves the file
// resumable.
func TestResumeRefusesOtherLayouts(t *testing.T) {
	f := genSite(29, 120, 8, 0)
	_, m := tinyModel(t)
	disk := relstore.NewMemDisk()
	opts := relstore.Options{Frames: 1024}
	db, err := relstore.OpenDurable(disk, opts)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Workers: 3, MaxFetches: 50, DistillEvery: 20}
	c, err := New(db, m, f, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Seed(seedURLs(f, 4)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Run(); err != nil {
		t.Fatal(err)
	}
	if err := c.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	st, err := ReadCheckpoint(db)
	if err != nil {
		t.Fatal(err)
	}
	state, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	short := *st
	short.Shards = short.Shards[1:]
	shortState, err := json.Marshal(&short)
	if err != nil {
		t.Fatal(err)
	}
	unknown := *st
	unknown.Mode = 7
	unknownState, err := json.Marshal(&unknown)
	if err != nil {
		t.Fatal(err)
	}
	// setState replaces the state record with rows written by write.
	setState := func(db *relstore.DB, write func(*relstore.Table) error) {
		t.Helper()
		ck := db.Table(ckptTable)
		if err := ck.Truncate(); err != nil {
			t.Fatal(err)
		}
		if err := write(ck); err != nil {
			t.Fatal(err)
		}
	}
	for _, tc := range []struct {
		name    string
		edit    func(*relstore.DB)
		refusal string
		mode    Mode
	}{
		{"unframed state", func(db *relstore.DB) {
			setState(db, func(ck *relstore.Table) error {
				_, err := ck.Insert(relstore.Tuple{relstore.Str("state"), relstore.Str(string(state))})
				return err
			})
		}, `row "state" names no record chunk`, 0},
		{"short shard records", func(db *relstore.DB) {
			setState(db, func(ck *relstore.Table) error { return writeRecord(ck, recState, st.Epoch, shortState) })
		}, "2 shard records for 3 frontier shards", 0},
		{"no score table", func(db *relstore.DB) {
			if err := db.DropTable(ckptScoresTable); err != nil {
				t.Fatal(err)
			}
		}, "has no " + ckptScoresTable, 0},
		{"heap row in flight", func(db *relstore.DB) {
			tab := db.Table("CRAWL#0")
			err := tab.Scan(func(rid relstore.RID, row relstore.Tuple) (bool, error) {
				inflight := row.Clone()
				inflight[CStatus] = relstore.I32(StatusInflight)
				return true, tab.UpdateFrom(rid, row, inflight)
			})
			if err != nil {
				t.Fatal(err)
			}
		}, "is in flight", 0},
		{"unknown mode", func(db *relstore.DB) {
			setState(db, func(ck *relstore.Table) error { return writeRecord(ck, recState, st.Epoch, unknownState) })
		}, "unknown mode 7", 7},
	} {
		db2, err := relstore.OpenDurable(disk, opts)
		if err != nil {
			t.Fatal(err)
		}
		tc.edit(db2)
		under := cfg
		under.Mode = tc.mode
		if _, err := Resume(db2, m, f, under); err == nil || !strings.Contains(err.Error(), tc.refusal) {
			t.Errorf("%s: Resume returned %v, want a refusal naming %q", tc.name, err, tc.refusal)
		}
		// Nothing was checkpointed: the file as written still resumes.
		db3, err := relstore.OpenDurable(disk, opts)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := Resume(db3, m, f, cfg); err != nil {
			t.Fatalf("after the %s refusal: %v", tc.name, err)
		}
	}
}

// ckptRow is one fuzzed checkpoint row: which of the two tables it goes in,
// its key and its value.
type ckptRow struct {
	scores     bool
	key, value string
}

// encodeCkptRows packs rows as FuzzCheckpointRecord reads them: per row a
// table byte, a key length byte, the key, a little-endian uint16 value
// length and the value.
func encodeCkptRows(rows []ckptRow) []byte {
	var b []byte
	for _, r := range rows {
		var tab byte
		if r.scores {
			tab = 1
		}
		b = append(b, tab, byte(len(r.key)))
		b = append(b, r.key...)
		b = binary.LittleEndian.AppendUint16(b, uint16(len(r.value)))
		b = append(b, r.value...)
	}
	return b
}

// decodeCkptRows is encodeCkptRows' inverse; a truncated tail is dropped.
func decodeCkptRows(b []byte) []ckptRow {
	var rows []ckptRow
	for len(b) >= 2 {
		r := ckptRow{scores: b[0]&1 == 1}
		kn := int(b[1])
		b = b[2:]
		if len(b) < kn+2 {
			break
		}
		r.key = string(b[:kn])
		vn := int(binary.LittleEndian.Uint16(b[kn:]))
		b = b[kn+2:]
		if len(b) < vn {
			break
		}
		r.value = string(b[:vn])
		b = b[vn:]
		rows = append(rows, r)
	}
	return rows
}

// realCkptRows are the two checkpoint tables' rows after a small durable
// crawl with distillation and an extra blob: a state, an extra and a score
// record, the extra spanning several rows.
func realCkptRows(tb testing.TB) []ckptRow {
	f := genSite(13, 60, 4, 0)
	_, m := tinyModel(tb)
	disk := relstore.NewMemDisk()
	ddb, err := relstore.OpenDurable(disk, relstore.Options{Frames: 1024})
	if err != nil {
		tb.Fatal(err)
	}
	extra := bytes.Repeat([]byte("fetch-state "), relstore.MaxRecordLen/6)
	c, err := New(ddb, m, f, Config{
		Workers: 1, MaxFetches: 40, DistillEvery: 15,
		CheckpointExtra: func() ([]byte, error) { return extra, nil },
	})
	if err != nil {
		tb.Fatal(err)
	}
	if err := c.Seed(seedURLs(f, 4)); err != nil {
		tb.Fatal(err)
	}
	if _, err := c.Run(); err != nil {
		tb.Fatal(err)
	}
	if err := c.Checkpoint(); err != nil {
		tb.Fatal(err)
	}
	var rows []ckptRow
	for _, name := range []string{ckptTable, ckptScoresTable} {
		err := ddb.Table(name).Scan(func(_ relstore.RID, tp relstore.Tuple) (bool, error) {
			rows = append(rows, ckptRow{name == ckptScoresTable, tp[0].S, tp[1].S})
			return false, nil
		})
		if err != nil {
			tb.Fatal(err)
		}
	}
	return rows
}

// FuzzCheckpointRecord loads arbitrary rows — keys, chunk order, lengths,
// headers and CRCs — into the two checkpoint tables. ReadCheckpoint and the
// score record's decode must each end in a result or an error: no panic, no
// hang, and nothing decoded larger than the bytes the rows hold.
func FuzzCheckpointRecord(f *testing.F) {
	real := realCkptRows(f)
	f.Add(encodeCkptRows(real))
	reversed := slices.Clone(real)
	slices.Reverse(reversed)
	f.Add(encodeCkptRows(reversed))
	for i := range real {
		damaged := slices.Clone(real)
		v := []byte(damaged[i].value)
		switch i % 4 {
		case 0: // a flipped byte: the CRC or the header no longer holds
			v[len(v)/2] ^= 0x40
		case 1: // a chunk cut short
			v = v[:len(v)/2]
		case 2: // a chunk dropped
			damaged = slices.Delete(damaged, i, i+1)
		case 3: // a chunk given twice
			damaged = slices.Insert(damaged, i, damaged[i])
		}
		if i%4 <= 1 {
			damaged[i].value = string(v)
		}
		f.Add(encodeCkptRows(damaged))
	}
	// A header claiming 4 GiB over a few bytes, and unframed rows, which
	// are refused.
	huge := make([]byte, recordHdr)
	huge[0] = recScores
	binary.LittleEndian.PutUint32(huge[9:], 1<<32-1)
	f.Add(encodeCkptRows([]ckptRow{{true, "scores#0", string(huge)}}))
	f.Add(encodeCkptRows([]ckptRow{{false, "state", `{"frontier_shards":1,"link_stripes":1}`}, {false, "extra", "x"}}))

	f.Fuzz(func(t *testing.T, data []byte) {
		db := relstore.Open(relstore.Options{Frames: 64})
		var tabs [2]*relstore.Table
		for i, name := range []string{ckptTable, ckptScoresTable} {
			tab, err := db.CreateTable(name, ckptSchema())
			if err != nil {
				t.Fatal(err)
			}
			tabs[i] = tab
		}
		present := 0
		for _, r := range decodeCkptRows(data) {
			tab := tabs[0]
			if r.scores {
				tab = tabs[1]
			}
			if _, err := tab.Insert(relstore.Tuple{relstore.Str(r.key), relstore.Str(r.value)}); err == nil {
				present += len(r.value)
			}
		}
		if st, err := ReadCheckpoint(db); err == nil && len(st.Extra) > present {
			t.Fatalf("decoded a %d-byte extra blob from %d bytes of rows", len(st.Extra), present)
		}
		if r, err := readScoreRecord(db); err == nil && 16*(len(r.hubs)+len(r.auth)) > present {
			t.Fatalf("decoded %d scores from %d bytes of rows", len(r.hubs)+len(r.auth), present)
		}
	})
}
