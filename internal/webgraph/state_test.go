package webgraph

import (
	"errors"
	"strings"
	"testing"
	"time"
)

// fetchOutcome compresses a Fetch result for comparison.
func fetchOutcome(res *FetchResult, err error) string {
	switch {
	case err == nil:
		return "ok:" + res.URL
	case errors.Is(err, ErrRateLimited):
		return "limited"
	case errors.Is(err, ErrTimeout):
		return "timeout"
	case errors.Is(err, ErrNotFound):
		return "notfound"
	default:
		return "err"
	}
}

// TestFetchStateRoundTrip drives a hostile web partway, exports its state,
// rebuilds the web from scratch, imports, and checks the continuation
// produces the same outcome sequence as an uninterrupted control run.
func TestFetchStateRoundTrip(t *testing.T) {
	cfg := Config{
		Seed:           7,
		NumPages:       400,
		TimeoutRate:    0.15,
		ServerCapacity: 5,
		ServerWindow:   time.Hour, // windows never roll over mid-test
	}
	control, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	resumed, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	urls := make([]string, 0, 200)
	for i := 0; i < 200; i++ {
		urls = append(urls, control.Pages[(i*13)%len(control.Pages)].URL)
	}
	// Phase 1: both webs fetch the same prefix.
	for _, u := range urls[:80] {
		fetchOutcome(control.Fetch(u))
		fetchOutcome(resumed.Fetch(u))
	}
	blob, err := resumed.ExportFetchState()
	if err != nil {
		t.Fatal(err)
	}
	if resumed.Fetches() != control.Fetches() {
		t.Fatalf("prefix diverged: %d vs %d fetches", resumed.Fetches(), control.Fetches())
	}

	// "Restart": a brand-new web from the same config, state imported.
	fresh, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := fresh.ImportFetchState(blob); err != nil {
		t.Fatal(err)
	}
	if fresh.Fetches() != control.Fetches() {
		t.Fatalf("imported fetches = %d, want %d", fresh.Fetches(), control.Fetches())
	}

	// Phase 2: the imported web must replay the control's exact outcomes —
	// same timeout rolls, same rate-limit windows.
	for i, u := range urls[80:] {
		want := fetchOutcome(control.Fetch(u))
		got := fetchOutcome(fresh.Fetch(u))
		if got != want {
			t.Fatalf("fetch %d of %s: outcome %q, want %q", i, u, got, want)
		}
	}
	if fresh.Timeouts() != control.Timeouts() || fresh.RateLimited() != control.RateLimited() {
		t.Fatalf("counters diverged: timeouts %d/%d, limited %d/%d",
			fresh.Timeouts(), control.Timeouts(), fresh.RateLimited(), control.RateLimited())
	}
}

// TestFetchStateSeedMismatch pins the import guard: a state exported by a
// web of another seed, or of the same seed and another config (here another
// page count, so other pages under the same URLs), is refused by name, and
// a web of the same config accepts it.
func TestFetchStateSeedMismatch(t *testing.T) {
	a, err := Generate(Config{Seed: 1, NumPages: 150})
	if err != nil {
		t.Fatal(err)
	}
	blob, err := a.ExportFetchState()
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		cfg     Config
		refusal string
	}{
		{Config{Seed: 2, NumPages: 150}, "seed"},
		{Config{Seed: 1, NumPages: 160}, "web config"},
		{Config{Seed: 1, NumPages: 150}, ""},
	} {
		b, err := Generate(c.cfg)
		if err != nil {
			t.Fatal(err)
		}
		err = b.ImportFetchState(blob)
		if c.refusal == "" && err != nil || c.refusal != "" && (err == nil || !strings.Contains(err.Error(), c.refusal)) {
			t.Errorf("import into a web of seed %d, %d pages: %v, want a refusal naming %q (none if empty)",
				c.cfg.Seed, c.cfg.NumPages, err, c.refusal)
		}
	}
}
