package crawler

import (
	"errors"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"focus/internal/relstore"
)

// TestCheckpointReportsDistillError pins the liveness half of the
// checkpoint barrier: Checkpoint waits for the concurrent distillation
// pipeline to publish every snapshotted epoch, and a failed epoch never
// publishes — so the wait must end with that epoch's error, not spin. The
// visit that queues epoch 1 is the visit that checkpoints, so the worker
// is inside Checkpoint when the epoch fails.
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
	c.distillFault = func(epoch int64) error {
		if epoch == 1 {
			return boom
		}
		return nil
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
		t.Fatal("Run did not return: Checkpoint is waiting on an epoch that failed")
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
