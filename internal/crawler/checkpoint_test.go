package crawler

import (
	"encoding/json"
	"errors"
	"fmt"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"focus/internal/relstore"
)

// TestCheckpointReportsDistillError pins the liveness of a failed epoch:
// its error returns through the triggering worker's visit, so Run reports
// it, and a checkpoint queued behind the epoch on epochMu goes ahead once
// the epoch gives the mutex up instead of hanging. When epoch 1 fails, a
// Checkpoint started from inside it is (in all likelihood) waiting on
// epochMu; it must finish, and no goroutine may outlive the crawl.
func TestCheckpointReportsDistillError(t *testing.T) {
	f := genSite(11, 120, 8, 0)
	_, m := tinyModel(t)
	db, err := relstore.CreateFile(filepath.Join(t.TempDir(), "crawl.db"), relstore.Options{Frames: 2048})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	c, err := New(db, m, f, Config{
		Workers: 2, MaxFetches: 200, DistillEvery: 20, CheckpointEvery: 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	boom := errors.New("injected distill failure")
	ckpt := make(chan error, 1)
	c.distillFault = func(epoch int64) error {
		if epoch != 1 {
			return nil
		}
		go func() { ckpt <- c.Checkpoint() }()
		time.Sleep(20 * time.Millisecond) // let the checkpoint park on epochMu
		return boom
	}
	if err := c.Seed(seedURLs(f, 4)); err != nil {
		t.Fatal(err)
	}

	before := runtime.NumGoroutine()
	done := make(chan error, 1)
	go func() {
		_, err := c.Run()
		done <- err
	}()
	select {
	case err := <-done:
		if !errors.Is(err, boom) {
			t.Fatalf("Run error = %v, want the injected distill failure", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Run did not return after its epoch failed")
	}
	select {
	case err := <-ckpt:
		if err != nil {
			t.Fatalf("checkpoint behind the failed epoch: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("a checkpoint waiting on the failed epoch's mutex hung")
	}
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines alive after Run returned, %d before it started",
				runtime.NumGoroutine(), before)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestCheckpointInflightCountStress holds the per-shard in-flight counters,
// kept where the status column is written, to the CRAWL scan they replaced:
// inside every checkpoint of a four-worker crawl over a site with flaky
// pages (so requeues and dead rows move the counters too), the sum over
// shards must equal the number of StatusInflight rows — which is not
// c.inflight, raised for the checkpointing worker's own finished visit — and
// a resumed crawl, whose stranded rows flipped back, starts from zero.
func TestCheckpointInflightCountStress(t *testing.T) {
	f := genSite(13, 400, 8, 5)
	_, m := tinyModel(t)
	path := filepath.Join(t.TempDir(), "crawl.db")
	db, err := relstore.CreateFile(path, relstore.Options{Frames: 2048})
	if err != nil {
		t.Fatal(err)
	}
	var c *Crawler
	var checked, rowsSeen int64
	scanInflight := func() (int64, error) {
		var n int64
		for _, sh := range c.shards {
			err := sh.crawl.ScanCols([]int{CStatus}, func(_ relstore.RID, v []relstore.Value) (bool, error) {
				if int32(v[0].Int()) == StatusInflight {
					n++
				}
				return false, nil
			})
			if err != nil {
				return 0, err
			}
		}
		return n, nil
	}
	cfg := Config{Workers: 4, MaxFetches: 400, DistillEvery: 40, CheckpointEvery: 10}
	// CheckpointExtra runs inside the checkpoint's quiesce, under the barrier.
	cfg.CheckpointExtra = func() ([]byte, error) {
		scan, err := scanInflight()
		if err != nil {
			return nil, err
		}
		var sum int64
		for _, sh := range c.shards {
			sum += sh.inflightRows
		}
		if sum != scan {
			return nil, fmt.Errorf("shards count %d rows in flight, a scan of CRAWL finds %d (c.inflight = %d)",
				sum, scan, c.inflight.Load())
		}
		checked++
		rowsSeen += scan
		return nil, nil
	}
	// A fetch that takes a moment keeps the other workers' rows checked out
	// when one of them reaches a checkpoint.
	slow := &slowFetcher{inner: f, delay: 300 * time.Microsecond}
	if c, err = New(db, m, slow, cfg); err != nil {
		t.Fatal(err)
	}
	if err := c.Seed(seedURLs(f, 8)); err != nil {
		t.Fatal(err)
	}
	res, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	if checked == 0 || checked != res.Checkpoints {
		t.Fatalf("hook ran in %d of %d checkpoints", checked, res.Checkpoints)
	}
	if rowsSeen == 0 {
		t.Fatal("no checkpoint caught a row in flight: the comparison never saw a non-zero count")
	}
	if err := c.CheckDirectory(); err != nil {
		t.Fatal(err)
	}
	if err := c.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db2, err := relstore.OpenFile(path, relstore.Options{Frames: 2048})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	cfg.CheckpointExtra = nil
	if c, err = Resume(db2, m, f, cfg); err != nil {
		t.Fatal(err)
	}
	c.lockAll()
	scan, err := scanInflight()
	c.unlockAll()
	if err != nil {
		t.Fatal(err)
	}
	for _, sh := range c.shards {
		if sh.inflightRows != 0 {
			t.Fatalf("shard %d resumes with %d rows counted in flight", sh.id, sh.inflightRows)
		}
	}
	if scan != 0 {
		t.Fatalf("%d rows still in flight after Resume flipped them back", scan)
	}
	if err := c.CheckDirectory(); err != nil {
		t.Fatal(err)
	}
}

// TestResumeParentStateRecord reopens a file whose state record carries the
// two fields an older crawler also wrote — "visit", the visit number that
// always equalled Visited, and "since_dist", now derived from it — as that
// crawler framed it. Resume must rebuild an equal harvest log, pass the
// directory checks, and number the next visits on from Visited.
func TestResumeParentStateRecord(t *testing.T) {
	f := genSite(29, 160, 8, 0)
	_, m := tinyModel(t)
	disk := relstore.NewMemDisk()
	opts := relstore.Options{Frames: 2048}
	db, err := relstore.OpenDurable(disk, opts)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Workers: 3, MaxFetches: 70, DistillEvery: 25}
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
	older := struct {
		*CheckpointState
		Visit     int64 `json:"visit"`
		SinceDist int64 `json:"since_dist"`
	}{st, st.Visited, st.Visited % cfg.DistillEvery}
	blob, err := json.Marshal(older)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(blob), `"visit":`) || !strings.Contains(string(blob), `"since_dist":`) {
		t.Fatalf("the older state record lacks its fields: %s", blob)
	}
	ck := db.Table(ckptTable)
	if err := ck.Truncate(); err != nil {
		t.Fatal(err)
	}
	if err := writeRecord(ck, recState, st.Epoch, blob); err != nil {
		t.Fatal(err)
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// Crash: the pool is dropped without Close.

	db2, err := relstore.OpenDurable(disk, opts)
	if err != nil {
		t.Fatal(err)
	}
	c2, err := Resume(db2, m, f, cfg)
	if err != nil {
		t.Fatal(err)
	}
	want, got := c.HarvestLog(), c2.HarvestLog()
	if st.Visited < 50 || int64(len(want)) != st.Visited || !slices.Equal(got, want) {
		t.Fatalf("resumed harvest log of %d points differs from the %d the crawl logged", len(got), len(want))
	}
	if err := c2.CheckDirectory(); err != nil {
		t.Fatal(err)
	}
	c2.cfg.MaxFetches += 30
	res, err := c2.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Visited <= st.Visited {
		t.Fatalf("the resumed crawl visited nothing: %d visits, %d at the checkpoint", res.Visited, st.Visited)
	}
	if err := c2.CheckDirectory(); err != nil {
		t.Fatal(err)
	}
}
