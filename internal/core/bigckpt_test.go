package core_test

import (
	"path/filepath"
	"testing"

	"focus/internal/core"
	"focus/internal/crawler"
	"focus/internal/eval"
	"focus/internal/relstore"
)

// TestPoliteHostileCrawlCheckpointsAndResumes: a polite crawl of a hostile
// web checkpoints per-host politeness state and retry times, and the web's
// fetch-state blob, each larger than one heap record on a 6 000-page web
// with the generator's default 100 servers. Each travels as one record split
// across rows, so the crawl checkpoints, and the file resumes and crawls on.
func TestPoliteHostileCrawlCheckpointsAndResumes(t *testing.T) {
	web := eval.HostileWeb(7, 6000, 1)
	web.NumServers = 0 // the generator's default
	cfg := core.Config{
		Web:        web,
		GoodTopics: []string{"cycling"},
		DBPath:     filepath.Join(t.TempDir(), "crawl.db"),
		Crawl:      crawler.Config{Workers: 8, MaxFetches: 900, CheckpointEvery: 200, Polite: true},
	}
	sys, err := core.NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.SeedTopic("cycling", 20); err != nil {
		t.Fatal(err)
	}
	res, err := sys.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Checkpoints < 1 {
		t.Fatalf("the crawl took %d checkpoints", res.Checkpoints)
	}
	if err := sys.Close(); err != nil {
		t.Fatal(err)
	}

	cfg.Crawl.MaxFetches = 1000
	resumed, err := core.ResumeSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	st, err := crawler.ReadCheckpoint(resumed.DB)
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Extra) <= relstore.MaxRecordLen {
		t.Fatalf("the fetch-state blob is %d bytes, within one record: this test no longer checks what it says", len(st.Extra))
	}
	if st.Visited != res.Visited {
		t.Fatalf("the closed crawl visited %d pages, its checkpoint says %d", res.Visited, st.Visited)
	}
	res2, err := resumed.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res2.Fetches <= res.Fetches {
		t.Fatalf("the resumed crawl spent no fetch: %d before, %d after", res.Fetches, res2.Fetches)
	}
	if err := resumed.Close(); err != nil {
		t.Fatal(err)
	}
}
