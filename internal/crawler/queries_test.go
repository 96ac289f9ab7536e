package crawler

import "testing"

// crawlQuerySite builds a small site exercising the §1 query shapes:
// alpha pages citing beta pages and one beta page cited by two alphas.
func crawlQuerySite(t *testing.T) *Crawler {
	t.Helper()
	f := &stubFetcher{pages: map[string]*Fetch{
		"http://a1.test/p": page("http://a1.test/p", "alpha",
			"http://b1.test/p", "http://a2.test/p"),
		"http://a2.test/p": page("http://a2.test/p", "alpha",
			"http://b1.test/p", "http://b2.test/p"),
		"http://b1.test/p": page("http://b1.test/p", "beta"),
		"http://b2.test/p": page("http://b2.test/p", "beta", "http://a1.test/p"),
	}}
	c, _ := newTestCrawler(t, f, Config{Workers: 1, MaxFetches: 20})
	if err := c.Seed([]string{"http://a1.test/p"}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Run(); err != nil {
		t.Fatal(err)
	}
	return c
}

func TestCrossTopicCitations(t *testing.T) {
	c := crawlQuerySite(t)
	alpha := c.model.Tree.ByName("alpha").ID
	beta := c.model.Tree.ByName("beta").ID
	// alpha -> beta links: a1->b1, a2->b1, a2->b2.
	n, err := c.CrossTopicCitations(alpha, beta)
	if err != nil {
		t.Fatal(err)
	}
	if n != 3 {
		t.Fatalf("alpha->beta citations = %d, want 3", n)
	}
	// beta -> alpha: b2->a1.
	n, err = c.CrossTopicCitations(beta, alpha)
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("beta->alpha citations = %d, want 1", n)
	}
	// An internal node (the root) covers everything.
	n, err = c.CrossTopicCitations(c.model.Tree.Root.ID, c.model.Tree.Root.ID)
	if err != nil {
		t.Fatal(err)
	}
	if n != 5 {
		t.Fatalf("root->root citations = %d, want 5", n)
	}
}

func TestSpamSuspects(t *testing.T) {
	c := crawlQuerySite(t)
	alpha := c.model.Tree.ByName("alpha").ID
	beta := c.model.Tree.ByName("beta").ID
	// b1 is cited by two distinct alpha pages, b2 by one.
	suspects, err := c.SpamSuspects(beta, alpha, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(suspects) != 1 || suspects[0].URL != "http://b1.test/p" || suspects[0].Citers != 2 {
		t.Fatalf("suspects = %v", suspects)
	}
	// With threshold 1, both beta pages qualify, best-cited first.
	suspects, err = c.SpamSuspects(beta, alpha, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(suspects) != 2 || suspects[0].Citers < suspects[1].Citers {
		t.Fatalf("suspects = %v", suspects)
	}
	// Threshold 3: nothing qualifies.
	suspects, err = c.SpamSuspects(beta, alpha, 3)
	if err != nil || len(suspects) != 0 {
		t.Fatalf("suspects = %v, err = %v", suspects, err)
	}
}

func TestNeighborhoodCensus(t *testing.T) {
	c := crawlQuerySite(t)
	alpha := c.model.Tree.ByName("alpha").ID
	beta := c.model.Tree.ByName("beta").ID
	census, err := c.NeighborhoodCensus(alpha)
	if err != nil {
		t.Fatal(err)
	}
	// Targets of alpha pages: b1 (x2), a2, b2.
	if census[beta] != 3 || census[alpha] != 1 {
		t.Fatalf("census = %v", census)
	}
}
