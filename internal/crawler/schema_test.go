package crawler

import (
	"bytes"
	"testing"

	"focus/internal/relstore"
)

func TestOIDAndSIDHashing(t *testing.T) {
	u1 := "http://s001.web.test/p000001"
	u2 := "http://s001.web.test/p000002"
	u3 := "http://s002.web.test/p000003"
	if OIDOf(u1) == OIDOf(u2) {
		t.Fatal("oid collision on distinct URLs")
	}
	if OIDOf(u1) != OIDOf(u1) {
		t.Fatal("oid not deterministic")
	}
	if SIDOf(u1) != SIDOf(u2) {
		t.Fatal("same server must share sid")
	}
	if SIDOf(u1) == SIDOf(u3) {
		t.Fatal("distinct servers share sid")
	}
}

func TestHostOf(t *testing.T) {
	for in, want := range map[string]string{
		"http://a.b.c/path/x":  "a.b.c",
		"https://host/":        "host",
		"http://bare":          "bare",
		"nohttp.example/thing": "nohttp.example",
	} {
		if got := HostOf(in); got != want {
			t.Fatalf("HostOf(%q) = %q, want %q", in, got, want)
		}
	}
}

func crawlRow(oid int64, rel float64, tries, load int32, status int32, seq int64) relstore.Tuple {
	return relstore.Tuple{
		relstore.I64(oid), relstore.Str("u"), relstore.F64(rel),
		relstore.I32(tries), relstore.I32(load), relstore.I64(0),
		relstore.I32(0), relstore.I32(status), relstore.I64(seq),
	}
}

func TestAggressiveDiscoveryOrder(t *testing.T) {
	key := AggressiveDiscovery().Key
	// Fewer tries beats higher relevance.
	a := key(crawlRow(1, 0.2, 0, 5, StatusFrontier, 1))
	b := key(crawlRow(2, 0.9, 1, 5, StatusFrontier, 2))
	if bytes.Compare(a, b) >= 0 {
		t.Fatal("numtries should dominate")
	}
	// Same tries: higher relevance first.
	c := key(crawlRow(3, 0.9, 0, 5, StatusFrontier, 3))
	if bytes.Compare(c, a) >= 0 {
		t.Fatal("relevance should order within equal tries")
	}
	// Same tries and relevance: lower server load first.
	d := key(crawlRow(4, 0.2, 0, 2, StatusFrontier, 4))
	if bytes.Compare(d, a) >= 0 {
		t.Fatal("serverload should break relevance ties")
	}
	// Visited rows sort after all frontier rows.
	e := key(crawlRow(5, 1.0, 0, 0, StatusVisited, 5))
	for _, k := range [][]byte{a, b, c, d} {
		if bytes.Compare(e, k) <= 0 {
			t.Fatal("visited row sorted into the frontier prefix")
		}
	}
}

func TestFIFOOrder(t *testing.T) {
	key := FIFO().Key
	a := key(crawlRow(1, 0.0, 0, 0, StatusFrontier, 10))
	b := key(crawlRow(2, 0.99, 3, 0, StatusFrontier, 11))
	if bytes.Compare(a, b) >= 0 {
		t.Fatal("FIFO must order by sequence only")
	}
}

// TestPolicyKeysFitFrontierSet: both checkout orders encode, for any row,
// a key of one fixed width that leads with the row's status, ends in its oid
// and fits the frontier set once the status is dropped — what frontierKeyOf
// assumes without checking.
func TestPolicyKeysFitFrontierSet(t *testing.T) {
	rows := []relstore.Tuple{
		crawlRow(1, 0, 0, 0, StatusFrontier, 0),
		crawlRow(-1<<63, 1, 1<<31-1, 1<<31-1, StatusVisited, 1<<62),
		crawlRow(42, -0.5, 2, 3, StatusDead, 7),
		crawlRow(1<<63-1, 0.25, 1, 9, StatusInflight, 3),
	}
	for _, p := range []Policy{AggressiveDiscovery(), FIFO()} {
		width := -1
		for _, row := range rows {
			key := p.Key(row)
			status := relstore.EncodeKey(row[CStatus])
			if !bytes.HasPrefix(key, status) {
				t.Errorf("%s: key %x does not lead with status %d", p.Name, key, row[CStatus].Int())
			}
			if !bytes.HasSuffix(key, relstore.EncodeKey(row[COID])) {
				t.Errorf("%s: key %x does not end in oid %d", p.Name, key, row[COID].Int())
			}
			if n := len(key) - len(status); n > frontierKeyWidth {
				t.Errorf("%s: %d key bytes after the status, the frontier set holds %d", p.Name, n, frontierKeyWidth)
			}
			if width >= 0 && len(key) != width {
				t.Errorf("%s: keys of %d and %d bytes: not fixed-width", p.Name, width, len(key))
			}
			width = len(key)
		}
	}
}
