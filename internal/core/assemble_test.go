package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"focus/internal/classifier"
	"focus/internal/crawler"
	"focus/internal/relstore"
	"focus/internal/webgraph"
)

// TestConcurrentBuildMatchesSerialProperty: NewSystem builds the web's
// pages and links on one goroutine while another trains the classifier from
// the vocabulary. Neither half may see the other's work, so the web must
// equal webgraph.Generate's page for page, fetch state included, and the
// model must score held-out documents bit for bit as a model trained
// serially on that generated web does. The webs are small copies of the
// standard, link-heavy and doc-heavy shapes, over several seeds.
func TestConcurrentBuildMatchesSerialProperty(t *testing.T) {
	shapes := map[string]webgraph.Config{
		"standard": {NumPages: 800},
		"linkheavy": {NumPages: 800,
			HubFrac: 0.25, HubOutDegree: 60, OutDegreeMean: 30},
		"docheavy": {NumPages: 400,
			DocLenMean: 600, BackgroundVocab: 6000, TopicVocab: 240,
			OutDegreeMean: 3, HubFrac: 0.02, NavLinksMean: 0.25},
	}
	const examples, heldOut = 4, 2
	for name, web := range shapes {
		for _, seed := range []int64{1, 7, 1999} {
			web.Seed = seed
			cfg := Config{Web: web, GoodTopics: []string{"cycling"}, ExamplesPerTopic: examples}
			sys, err := NewSystem(cfg)
			if err != nil {
				t.Fatal(err)
			}
			ref, err := webgraph.Generate(web)
			if err != nil {
				t.Fatal(err)
			}
			if err := sameWeb(sys.Web, ref); err != "" {
				t.Fatalf("%s seed %d: %s", name, seed, err)
			}
			serial, err := NewSystemOnWeb(ref, cfg)
			if err != nil {
				t.Fatal(err)
			}
			for _, leaf := range ref.Cfg.Tree.Leaves() {
				docs := ref.ExampleDocs(leaf.ID, examples+heldOut)[examples:]
				for i, doc := range docs {
					got, want := sys.Model.Classify(doc), serial.Model.Classify(doc)
					if err := samePosterior(got, want); err != "" {
						t.Fatalf("%s seed %d: held-out document %d of %s: %s", name, seed, i, leaf.Name, err)
					}
				}
			}
		}
	}
}

// sameWeb compares two webs' pages field by field and their fetch state
// byte for byte, and describes the first difference.
func sameWeb(got, want *webgraph.Web) string {
	if len(got.Pages) != len(want.Pages) {
		return "page counts differ"
	}
	for i, g := range got.Pages {
		w := want.Pages[i]
		if g.Topic != w.Topic || g.Server != w.Server || g.ServerID != w.ServerID ||
			g.URL != w.URL || g.IsHub != w.IsHub || g.Dead != w.Dead ||
			g.InDegree != w.InDegree || !slices.Equal(g.Links, w.Links) {
			return "page " + w.URL + " differs"
		}
	}
	gs, err := got.ExportFetchState()
	if err != nil {
		return err.Error()
	}
	ws, err := want.ExportFetchState()
	if err != nil {
		return err.Error()
	}
	if !slices.Equal(gs, ws) {
		return "fetch state differs"
	}
	return ""
}

// samePosterior compares two posteriors bit for bit.
func samePosterior(got, want classifier.Posterior) string {
	if len(got) != len(want) {
		return "posteriors cover different nodes"
	}
	for id, w := range want {
		if g, ok := got[id]; !ok || math.Float64bits(g) != math.Float64bits(w) {
			return "posteriors differ"
		}
	}
	return ""
}

// durableCrawl runs a small checkpointed crawl into a file under t's
// temporary directory, closes it, and returns its config.
func durableCrawl(t *testing.T) Config {
	t.Helper()
	cfg := Config{
		Web:        webgraph.Config{Seed: 5, NumPages: 1500},
		GoodTopics: []string{"cycling"},
		DBPath:     filepath.Join(t.TempDir(), "crawl.db"),
		Crawl:      crawler.Config{Workers: 1, MaxFetches: 60, CheckpointEvery: 30},
	}
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.SeedTopic("cycling", 5); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	if err := sys.Close(); err != nil {
		t.Fatal(err)
	}
	return cfg
}

// processResources returns a check that the process's open descriptors
// and goroutines are back to the counts they have now. It skips t where
// there is no /proc/self/fd to count descriptors in.
func processResources(t *testing.T) func(after string) {
	t.Helper()
	if _, err := os.Stat("/proc/self/fd"); err != nil {
		t.Skip("no /proc/self/fd to count descriptors in")
	}
	openFDs := func() int {
		ents, err := os.ReadDir("/proc/self/fd")
		if err != nil {
			t.Fatal(err)
		}
		return len(ents)
	}
	fds, goroutines := openFDs(), runtime.NumGoroutine()
	return func(after string) {
		t.Helper()
		if got := openFDs(); got != fds {
			t.Fatalf("%d open descriptors after %s, %d before", got, after, fds)
		}
		// A joined goroutine may still be on its way out: give it a moment.
		for deadline := time.Now().Add(2 * time.Second); runtime.NumGoroutine() > goroutines; {
			if time.Now().After(deadline) {
				t.Fatalf("%d goroutines after %s, %d before", runtime.NumGoroutine(), after, goroutines)
			}
			time.Sleep(time.Millisecond)
		}
	}
}

// TestFailedResumeReleasesFileAndGoroutine: a resume that fails after the
// file is open — here crawler.Resume refusing a Crawl.Mode other than the
// checkpoint's — closes the file and joins the goroutine that builds the
// web, leaving the process's open descriptors and goroutines as they were.
func TestFailedResumeReleasesFileAndGoroutine(t *testing.T) {
	cfg := durableCrawl(t)
	released := processResources(t)
	cfg.Crawl.Mode = crawler.ModeHardFocus
	if _, err := ResumeSystem(cfg); err == nil || !strings.Contains(err.Error(), "mode") {
		t.Fatalf("ResumeSystem with a mismatched mode: err = %v, want the mode refusal", err)
	}
	released("the failed resume")

	// The refusal committed nothing: the file still resumes under its mode.
	cfg.Crawl.Mode = crawler.ModeSoftFocus
	resumed, err := ResumeSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := resumed.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestResumeRefusesAnotherWeb: the checkpoint's fetch state names the web
// it was taken on, so a resume that regenerates another one — here a
// different page count, whose pages differ under the same URLs — is
// refused by name, and the file still resumes on its own web.
func TestResumeRefusesAnotherWeb(t *testing.T) {
	cfg := durableCrawl(t)
	other := cfg
	other.Web.NumPages = 1600
	if _, err := ResumeSystem(other); err == nil || !strings.Contains(err.Error(), "web config") {
		t.Fatalf("ResumeSystem on a %d-page web of a %d-page crawl: err = %v, want the web config refusal",
			other.Web.NumPages, cfg.Web.NumPages, err)
	}
	resumed, err := ResumeSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := resumed.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestResumeRefusesOlderLayout: ResumeSystem over a file whose manifest
// roots carry an older layout version — 1, 2, whose CRAWL heaps could hold
// rows in flight, 3, whose state record names a checkout policy, or 4, whose
// fetch state's web digest hashes generator settings that are now
// constants — returns relstore.ErrLayoutVersion, releases the file
// and the build goroutine, and leaves the file's bytes as they were.
func TestResumeRefusesOlderLayout(t *testing.T) {
	cfg := durableCrawl(t)
	for _, v := range []uint32{1, 2, 3, 4} {
		b, err := os.ReadFile(cfg.DBPath)
		if err != nil {
			t.Fatal(err)
		}
		// Both roots (pages 1 and 2, at file offsets 0 and PageSize)
		// restamped with layout version v in their frame headers' bytes 4-8.
		for root := range 2 {
			binary.LittleEndian.PutUint32(b[root*relstore.PageSize+4:], v)
		}
		if err := os.WriteFile(cfg.DBPath, b, 0o644); err != nil {
			t.Fatal(err)
		}
		released := processResources(t)
		if _, err := ResumeSystem(cfg); !errors.Is(err, relstore.ErrLayoutVersion) {
			t.Fatalf("ResumeSystem of a version-%d file: err = %v, want relstore.ErrLayoutVersion", v, err)
		}
		released("the refused resume")
		if after, err := os.ReadFile(cfg.DBPath); err != nil || !bytes.Equal(after, b) {
			t.Fatalf("the refused resume of a version-%d file changed it (%v)", v, err)
		}
	}
}
