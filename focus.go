// Package focus is a from-scratch Go reproduction of "Distributed Hypertext
// Resource Discovery Through Examples" (Chakrabarti, van den Berg, Dom —
// VLDB 1999): an example-driven, goal-directed web resource discovery
// system built around a relational storage engine.
//
// The system couples three components over shared relations:
//
//   - a hierarchical naive Bayes classifier trained from per-topic example
//     documents, whose soft-focus relevance R(d) = Σ_{good c} Pr[c|d]
//     drives crawl priorities, classifying each page inline in the fetch
//     worker that fetched it (the set-oriented two-joins-per-node plan of
//     §2.1.2 is reproduced as Figure 8(a)'s bulk classifier);
//   - a distiller (relevance-weighted HITS with nepotism filtering) that
//     finds hub pages and periodically boosts their unvisited neighbors,
//     running beside the crawl: the visit that triggers an epoch snapshots
//     the link graph under a short barrier, then computes HITS and
//     publishes its HUBS/AUTH score tables with an atomic buffer swap while
//     the other workers keep crawling (with one worker the visit order is a
//     pure function of seed and config);
//   - a multi-threaded crawler whose frontier is host-sharded: the CRAWL
//     relation is partitioned by server hash into per-worker shards, each
//     with its own in-memory frontier set checked out in (numtries ASC,
//     relevance DESC, serverload ASC) order, with work stealing between
//     shards; the LINK relation is striped by source and append-only, each
//     edge's forward weight resolved when it is read against a log of
//     visited pages' relevance, so a visit rewrites no LINK page; monitors
//     read the
//     latest published distillation epoch — without stopping the crawl —
//     which may trail it by the epoch still computing.
//
// Quick start:
//
//	sys, err := focus.New(focus.Config{
//	    Web:        webgraph.Config{Seed: 1, NumPages: 20000},
//	    GoodTopics: []string{"cycling"},
//	    Crawl:      crawler.Config{MaxFetches: 3000, DistillEvery: 500},
//	})
//	...
//	sys.SeedTopic("cycling", 25)
//	res, err := sys.Run()
//	hubs, _ := sys.Crawler.TopHubURLs(10)
//
// The live 1999 Web is simulated by internal/webgraph, a synthetic
// hypertext graph calibrated to the radius-1 and radius-2 citation rules
// the paper's architecture exploits; everything else (storage engine,
// classifier, distiller, crawler) is implemented as the paper describes.
// See DESIGN.md for the full system inventory and the shard architecture;
// cmd/focusexp and `go test -bench .` regenerate the per-figure results —
// Figures 5, 6, 7 and 8a–d, plus the hostile-web study; speed and
// durability are judged by bench/ (bash bench/run.sh).
// Concurrency and determinism contracts (lock ordering, off-latch I/O,
// golden-pinned RNG streams) are machine-checked by cmd/focuslint — see
// DESIGN.md "Statically checked invariants".
package focus

import (
	"focus/internal/core"
	"focus/internal/crawler"
)

// Config assembles a complete Focus system; see core.Config.
type Config = core.Config

// System is a ready-to-run Focus instance; see core.System.
type System = core.System

// Result summarizes a finished crawl.
type Result = crawler.Result

// Crawl modes (re-exported for convenience).
const (
	ModeSoftFocus = crawler.ModeSoftFocus
	ModeHardFocus = crawler.ModeHardFocus
	ModeUnfocused = crawler.ModeUnfocused
)

// New builds a system: generates the synthetic web, trains the classifier
// on examples of every leaf topic, marks the good topics, and prepares the
// crawler.
func New(cfg Config) (*System, error) { return core.NewSystem(cfg) }
