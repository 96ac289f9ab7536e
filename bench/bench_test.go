package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"testing"
)

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestDeclarations holds the harness's lists to the benchmark contract and
// BENCHMARK.json to the harness.
func TestDeclarations(t *testing.T) {
	if n := len(workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2 to 8", n)
	}
	if n := len(endToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1 to 16", n)
	}
	if n := len(perLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1 to 128", n)
	}
	seen := map[string]bool{}
	name := func(n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("name %q does not match %v", n, nameRE)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	for _, w := range workloads {
		name(w.Name)
		if len(w.Why) == 0 || len(w.Why) > 200 {
			t.Errorf("workload %s: why has %d characters, want 1 to 200", w.Name, len(w.Why))
		}
	}
	setup := false
	for _, m := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		name(m.Name)
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("metric %s: unit %q does not match %v", m.Name, m.Unit, unitRE)
		}
		if m.Better != "higher" && m.Better != "lower" {
			t.Errorf("metric %s: better is %q", m.Name, m.Better)
		}
		if m.Bound < 0 || m.Bound > 0.25 {
			t.Errorf("metric %s: bound %v outside [0, 0.25]", m.Name, m.Bound)
		}
		setup = setup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower" && m.Bound > 0)
	}
	if !setup {
		t.Error("no end-to-end metric setup_s in s, lower is better")
	}

	// BENCHMARK.json sits at the root of the repository, one level up.
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var got, want any
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatal(err)
	}
	spec, err := json.Marshal(benchmarkSpec())
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(spec, &want); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Error("BENCHMARK.json differs from the harness's declarations; regenerate it with -spec")
	}
}

// TestSmoke runs one traced unit of every workload at a tiny budget in this
// process and checks that the outputs verify, that every declared metric
// comes out finite with its unit, and that the trace is well-formed.
func TestSmoke(t *testing.T) {
	traces := t.TempDir()
	for _, w := range workloads {
		t.Run(w.Name, func(t *testing.T) {
			w := w.tiny()
			u, err := runUnit(w, 7, true, t.TempDir(), traces)
			if err != nil {
				t.Fatal(err)
			}
			for _, v := range u.Violations {
				t.Error(v)
			}
			if u.Attempted < 1 || u.Failed != 0 && len(u.Violations) == 0 {
				t.Errorf("attempted %d, failed %d", u.Attempted, u.Failed)
			}
			// A traced unit measures the end-to-end metrics too; a run
			// only does not report them.
			units := []*unitResult{u}
			for _, traced := range []bool{false, true} {
				rep := &workloadReport{Correct: true, MachineSpeed: 1}
				rep.summarize(units, units, traced)
				defs := endToEnd
				if traced {
					defs = perLayer
				}
				got := rep.metrics(traced)
				if len(got) != len(defs) {
					t.Errorf("traced=%v: %d metrics, want %d", traced, len(got), len(defs))
				}
				for _, m := range defs {
					s, ok := got[m.Name]
					switch {
					case !ok:
						t.Errorf("metric %s is not emitted", m.Name)
					case math.IsNaN(s.Value) || math.IsInf(s.Value, 0):
						t.Errorf("metric %s = %v", m.Name, s.Value)
					case s.Unit != m.Unit:
						t.Errorf("metric %s has unit %q, want %q", m.Name, s.Unit, m.Unit)
					case !traced && s.Value <= 0:
						t.Errorf("end-to-end metric %s = %v, want > 0", m.Name, s.Value)
					}
				}
			}
			checkTrace(t, filepath.Join(traces, "trace-"+w.Name+".json"))
		})
	}
}

// checkTrace reads a trace file back: every span ends after it starts,
// every child lies inside its parent and shares its visit.
func checkTrace(t *testing.T, path string) {
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var tr struct {
		Crawl  []span `json:"crawl_spans"`
		Replay []span `json:"replay_spans"`
	}
	if err := json.Unmarshal(data, &tr); err != nil {
		t.Fatal(err)
	}
	if len(tr.Crawl) == 0 || len(tr.Replay) == 0 {
		t.Fatalf("trace has %d crawl spans and %d replay spans", len(tr.Crawl), len(tr.Replay))
	}
	roots := 0
	for i, s := range tr.Replay {
		if s.End < s.Start {
			t.Fatalf("span %d (%s) ends before it starts", i, s.Name)
		}
		if s.Parent < 0 {
			roots++
			continue
		}
		p := tr.Replay[s.Parent]
		if int(s.Parent) >= i || s.Visit != p.Visit || s.Start < p.Start || s.End > p.End {
			t.Fatalf("span %d (%s, visit %d, %d..%d) is not inside its parent %d (%s, visit %d, %d..%d)",
				i, s.Name, s.Visit, s.Start, s.End, s.Parent, p.Name, p.Visit, p.Start, p.End)
		}
	}
	if roots == 0 {
		t.Error("no root span")
	}
}
