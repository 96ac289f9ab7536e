package focus

import (
	"reflect"
	"testing"

	"focus/internal/classifier"
	"focus/internal/crawler"
	"focus/internal/webgraph"
)

// TestConfigKnobBudget holds the crawl's and the simulator's settable
// surface to a budget. Each field names what sets it outside the tests; a
// field that only tests or nothing set says why it stays. A new field needs
// an entry here, and raising a bound is a reviewed change, as CI's "Barrier
// callers" count is: a value no program varies belongs in a constant.
func TestConfigKnobBudget(t *testing.T) {
	for _, c := range []struct {
		typ     reflect.Type
		max     int
		setters map[string]string
	}{
		{reflect.TypeOf(crawler.Config{}), 10, map[string]string{
			"Workers":          "focuscrawl -workers",
			"MaxFetches":       "focuscrawl -budget",
			"Mode":             "focuscrawl -mode",
			"Polite":           "focuscrawl -polite; eval.RunHostile's polite runs",
			"DistillEvery":     "focuscrawl -distill",
			"Distill":          "no program; the benchmark's replay and post-crawl RunJoin read it",
			"HubNeighborBoost": "no program; TestGoldenConcurrentDistillEquivalence turns the boost off, and its capture depends on that",
			"SkipDocuments":    "the benchmark's workload table (a no-op)",
			"CheckpointEvery":  "focuscrawl -checkpointevery",
			"CheckpointExtra":  "core.NewSystem and core.ResumeSystem (the web's fetch state)",
		}},
		{reflect.TypeOf(webgraph.Config{}), 21, map[string]string{
			"Seed":            "focuscrawl -seed",
			"Tree":            "no program; every web is DefaultTree's",
			"NumPages":        "focuscrawl -pages",
			"NumServers":      "eval.HostileWeb",
			"TopicWeights":    "focuscrawl -topic and -weight",
			"DocLenMean":      "Figure 8's fixture (BigVocab); the benchmark's doc-heavy web",
			"TopicVocab":      "Figure 8's fixture (BigVocab); the benchmark's doc-heavy web",
			"BackgroundVocab": "Figure 8's fixture (BigVocab); the benchmark's doc-heavy web",
			"OutDegreeMean":   "the benchmark's link-heavy and doc-heavy webs",
			"LocalityWindow":  "focusexp -fig 7",
			"ShortcutProb":    "focusexp -fig 7",
			"HubFrac":         "the benchmark's link-heavy and doc-heavy webs",
			"HubOutDegree":    "the benchmark's link-heavy web",
			"NavLinksMean":    "the benchmark's doc-heavy web",
			"DeadLinkRate":    "no program; the generator's tests vary it",
			"TimeoutRate":     "eval.HostileWeb",
			"FetchLatency":    "eval.HostileWeb",
			"ServerCapacity":  "eval.HostileWeb",
			"ServerWindow":    "eval.HostileWeb",
			"OutageRate":      "eval.HostileWeb",
			"OutageLength":    "eval.HostileWeb",
		}},
		{reflect.TypeOf(classifier.TrainConfig{}), 1, map[string]string{
			"FeaturesPerNode": "Figure 8's fixture (BigVocab)",
		}},
	} {
		if n := c.typ.NumField(); n > c.max {
			t.Errorf("%v has %d fields, the budget is %d", c.typ, n, c.max)
		}
		for i := range c.typ.NumField() {
			if name := c.typ.Field(i).Name; c.setters[name] == "" {
				t.Errorf("%v.%s: no setter named in this test", c.typ, name)
			}
		}
		for name := range c.setters {
			if _, ok := c.typ.FieldByName(name); !ok {
				t.Errorf("%v has no field %s: drop its entry", c.typ, name)
			}
		}
	}
}
