package webgraph

import (
	"encoding/binary"
	"hash/fnv"
	"testing"
)

// webDigest is an FNV-64a hash of a generated web: every page's URL, server,
// topic, hub flag, links and dead-link count, then the outcome of a fixed
// sample of fetches, in order — the tokens and outlinks of a page served, the
// error of one that failed (the failure stream is part of the web too).
func webDigest(w *Web) uint64 {
	h := fnv.New64a()
	var b [8]byte
	num := func(v int64) {
		binary.LittleEndian.PutUint64(b[:], uint64(v))
		h.Write(b[:])
	}
	str := func(s string) {
		num(int64(len(s)))
		h.Write([]byte(s))
	}
	for _, p := range w.Pages {
		str(p.URL)
		str(p.Server)
		num(int64(p.ServerID))
		num(int64(p.Topic))
		if p.IsHub {
			num(1)
		} else {
			num(0)
		}
		num(int64(len(p.Links)))
		for _, dst := range p.Links {
			num(int64(dst))
		}
		num(int64(p.Dead))
	}
	const samples = 64
	for i := range samples {
		res, err := w.Fetch(w.Pages[i*len(w.Pages)/samples].URL)
		if err != nil {
			str(err.Error())
			continue
		}
		num(int64(len(res.Tokens)))
		for _, tok := range res.Tokens {
			str(tok)
		}
		num(int64(len(res.Outlinks)))
		for _, u := range res.Outlinks {
			str(u)
		}
	}
	return h.Sum64()
}

// TestGeneratedWebGolden pins the generator's calibration: the default web
// at seed 1 (whose "general" subtree carries the general page-mass weight)
// and the benchmark's link-heavy and doc-heavy shapes, their values copied
// from bench/workloads.go (a separate module). Every draw of generation and
// of a page's text reads the calibration constants, so a constant that
// changes value, or a draw that moves, changes a digest. The core goldens
// cover the constants only for the webs they crawl.
//
// To re-capture after an intended change to the generated web, set the
// digests to 0 and copy the values the failures report.
func TestGeneratedWebGolden(t *testing.T) {
	bench := func(c Config) Config {
		c.NumPages = 20000
		c.TopicWeights = map[string]float64{"cycling": 3}
		return c
	}
	for _, c := range []struct {
		name string
		cfg  Config
		want uint64
	}{
		{"default", Config{Seed: 1}, 0x3fb4c2375525b802},
		{"linkheavy", bench(Config{HubFrac: 0.25, HubOutDegree: 60, OutDegreeMean: 30}), 0xb869c174c0f20338},
		{"docheavy", bench(Config{
			DocLenMean: 2400, BackgroundVocab: 20000, TopicVocab: 240,
			OutDegreeMean: 3, HubFrac: 0.02, NavLinksMean: 0.25,
		}), 0xab78d2cafe1be8cc},
	} {
		w, err := Generate(c.cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got := webDigest(w); got != c.want {
			t.Errorf("%s web: digest %#x, want %#x", c.name, got, c.want)
		}
	}
}
