package crawler

import (
	"errors"
	"fmt"
	"path/filepath"
	"runtime"
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
// kept where a row is checked out and written, to the oid directories:
// inside every checkpoint of a four-worker crawl over a site with flaky
// pages (so requeues and dead rows move the counters too), the sum over
// shards must equal the number of directory entries in flight — which is
// not c.inflight, raised for the checkpointing worker's own finished visit —
// no heap row may hold StatusInflight, the fetch counter less that sum must
// equal the visits and failures, and a resumed crawl starts from zero.
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
	// inflight counts the directory entries in flight and the heap rows at
	// StatusInflight; the barrier must be held.
	inflight := func() (entries, heapRows int64, err error) {
		for _, sh := range c.shards {
			for _, d := range sh.rids {
				if int32(d.status) == StatusInflight {
					entries++
				}
			}
			err = sh.crawl.ScanCols([]int{CStatus}, func(_ relstore.RID, v []relstore.Value) (bool, error) {
				if int32(v[0].Int()) == StatusInflight {
					heapRows++
				}
				return false, nil
			})
			if err != nil {
				return 0, 0, err
			}
		}
		return entries, heapRows, nil
	}
	cfg := Config{Workers: 4, MaxFetches: 400, DistillEvery: 40, CheckpointEvery: 10}
	// CheckpointExtra runs inside the checkpoint's quiesce, under the barrier.
	cfg.CheckpointExtra = func() ([]byte, error) {
		entries, heapRows, err := inflight()
		if err != nil {
			return nil, err
		}
		if heapRows != 0 {
			return nil, fmt.Errorf("%d heap rows hold StatusInflight", heapRows)
		}
		var sum int64
		for _, sh := range c.shards {
			sum += sh.inflightRows
		}
		if sum != entries {
			return nil, fmt.Errorf("shards count %d rows in flight, the directories hold %d (c.inflight = %d)",
				sum, entries, c.inflight.Load())
		}
		// The state records the fetch count net of the rows in flight:
		// exactly the fetches that have completed.
		if net, done := c.fetches.Load()-sum, c.visited.Load()+c.failed.Load(); net != done {
			return nil, fmt.Errorf("%d fetches net of %d rows in flight, but %d visited + %d failed",
				net, sum, c.visited.Load(), c.failed.Load())
		}
		checked++
		rowsSeen += entries
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
	entries, heapRows, err := inflight()
	c.unlockAll()
	if err != nil {
		t.Fatal(err)
	}
	for _, sh := range c.shards {
		if sh.inflightRows != 0 {
			t.Fatalf("shard %d resumes with %d rows counted in flight", sh.id, sh.inflightRows)
		}
	}
	if entries != 0 || heapRows != 0 {
		t.Fatalf("%d directory entries and %d heap rows in flight after Resume", entries, heapRows)
	}
	if err := c.CheckDirectory(); err != nil {
		t.Fatal(err)
	}
}
