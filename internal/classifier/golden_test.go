package classifier

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"slices"
	"testing"

	"focus/internal/taxonomy"
	"focus/internal/webgraph"
)

// modelDigest is an FNV-64a hash of every bit a trained model carries: each
// child's logprior and logdenom in ascending node id, each internal node's
// feature terms with their (kcid, logtheta) entries, the flat prior and
// denom rows, and the term-major index in ascending tid.
func modelDigest(m *Model) uint64 {
	h := fnv.New64a()
	var b [8]byte
	num := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	flt := func(f float64) { num(math.Float64bits(f)) }
	for _, byID := range []map[taxonomy.NodeID]float64{m.logPrior, m.logDenom} {
		ids := make([]taxonomy.NodeID, 0, len(byID))
		for id := range byID {
			ids = append(ids, id)
		}
		slices.Sort(ids)
		num(uint64(len(ids)))
		for _, id := range ids {
			num(uint64(id))
			flt(byID[id])
		}
	}
	for _, n := range m.nodes {
		num(uint64(n.id))
		num(uint64(n.off))
		num(uint64(m.NumFeatures(n.id)))
		for _, f := range n.feats {
			num(uint64(f.tid))
			num(uint64(len(f.thetas)))
			for _, e := range f.thetas {
				num(uint64(e.kcid))
				flt(e.logTheta)
			}
		}
	}
	num(uint64(len(m.prior)))
	for i := range m.prior {
		flt(m.prior[i])
		flt(m.denom[i])
	}
	tids := make([]uint32, 0, len(m.termIdx))
	for tid := range m.termIdx {
		tids = append(tids, tid)
	}
	slices.Sort(tids)
	for _, tid := range tids {
		num(uint64(tid))
		for _, nt := range m.termIdx[tid] {
			num(uint64(nt.lo))
			num(uint64(nt.hi))
			num(uint64(len(nt.kids)))
			for _, k := range nt.kids {
				num(uint64(k.slot))
				flt(k.w)
			}
		}
	}
	return h.Sum64()
}

// trainAsCrawl trains a model on cfg's web as core and the benchmark do:
// 25 examples per leaf topic, default TrainConfig.
func trainAsCrawl(tb testing.TB, cfg webgraph.Config) *Model {
	tb.Helper()
	w, err := webgraph.Generate(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	m, err := Train(nil, w.Cfg.Tree, crawlExamples(w), TrainConfig{})
	if err != nil {
		tb.Fatal(err)
	}
	return m
}

// crawlExamples is the crawl's training set on w: 25 examples per leaf.
func crawlExamples(w *webgraph.Web) Examples {
	ex := Examples{}
	for _, leaf := range w.Cfg.Tree.Leaves() {
		ex[leaf.ID] = w.ExampleDocs(leaf.ID, 25)
	}
	return ex
}

// goldenWebs are the default web at seed 1 and the benchmark's link-heavy
// and doc-heavy shapes at seed 7, their values copied from
// bench/workloads.go (a separate module).
var goldenWebs = []struct {
	name string
	cfg  webgraph.Config
}{
	{"default", webgraph.Config{Seed: 1}},
	{"linkheavy", benchShape(webgraph.Config{HubFrac: 0.25, HubOutDegree: 60, OutDegreeMean: 30})},
	{"docheavy", benchShape(webgraph.Config{
		DocLenMean: 2400, BackgroundVocab: 20000, TopicVocab: 240,
		OutDegreeMean: 3, HubFrac: 0.02, NavLinksMean: 0.25,
	})},
}

func benchShape(c webgraph.Config) webgraph.Config {
	c.Seed, c.NumPages = 7, 20000
	c.TopicWeights = map[string]float64{"cycling": 3}
	return c
}

// TestTrainedModelGolden pins the crawl's trained model bit for bit on
// three webs: feature selection, Eq. (1)'s estimates and the term-major
// index. Training must be a pure function of its examples; a change to how
// it counts or selects that moves any bit of any parameter fails here.
//
// To re-capture after an intended change to the model, set the digests to
// 0 and copy the values the failures report.
func TestTrainedModelGolden(t *testing.T) {
	want := map[string]uint64{
		"default":   0xfdc79903e0b87995,
		"linkheavy": 0xfec25f2190beded9,
		"docheavy":  0x24073317ed168ba3,
	}
	for _, gw := range goldenWebs {
		if got := modelDigest(trainAsCrawl(t, gw.cfg)); got != want[gw.name] {
			t.Errorf("%s web: model digest %#x, want %#x", gw.name, got, want[gw.name])
		}
	}
}
