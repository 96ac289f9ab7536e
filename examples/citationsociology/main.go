// Citation sociology (§1): "Find a topic (other than bicycling) within one
// link of bicycling pages that is much more frequent than on the web at
// large. The answer found by the system described in this paper is first
// aid."
//
// This example runs a focused cycling crawl, then issues the query through
// Crawler.NeighborhoodCensus: for every visited page classified as cycling,
// census the best-leaf classes of its visited link targets, and compare
// each class's share in that 1-link neighborhood against its share on the
// generated web at large.
//
//	go run ./examples/citationsociology
package main

import (
	"fmt"
	"log"
	"sort"

	"focus"
	"focus/internal/crawler"
	"focus/internal/taxonomy"
	"focus/internal/webgraph"
)

func main() {
	sys, err := focus.New(focus.Config{
		Web: webgraph.Config{
			Seed:         1999,
			NumPages:     15000,
			TopicWeights: map[string]float64{"cycling": 3},
		},
		GoodTopics: []string{"cycling"},
		Crawl:      crawler.Config{Workers: 8, MaxFetches: 1800},
	})
	if err != nil {
		log.Fatal(err)
	}
	if err := sys.SeedTopic("cycling", 20); err != nil {
		log.Fatal(err)
	}
	if _, err := sys.Run(); err != nil {
		log.Fatal(err)
	}

	cyc := sys.Tree.ByName("cycling").ID

	// "The web at large": the global topic distribution. A production
	// system would estimate this from a reference corpus (the paper knew
	// Yahoo!-wide base rates); here the generator's ground truth serves.
	overall := map[taxonomy.NodeID]float64{}
	for _, leaf := range sys.Tree.Leaves() {
		overall[leaf.ID] = float64(len(sys.Web.TopicPages(leaf.ID))) /
			float64(len(sys.Web.Pages))
	}

	// Class shares within one link of cycling pages, cycling itself aside.
	near, err := sys.Crawler.NeighborhoodCensus(cyc)
	if err != nil {
		log.Fatal(err)
	}
	delete(near, cyc)
	var nearTotal float64
	for _, n := range near {
		nearTotal += float64(n)
	}

	type liftRow struct {
		name         string
		nearShare    float64
		overallShare float64
		lift         float64
	}
	var rows []liftRow
	for c, n := range near {
		share := float64(n) / nearTotal
		base := overall[c]
		if base == 0 || n < 10 {
			continue
		}
		rows = append(rows, liftRow{
			name:         sys.Tree.Node(c).Name,
			nearShare:    share,
			overallShare: base,
			lift:         share / base,
		})
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].lift > rows[j].lift })

	fmt.Println("topics within one link of cycling pages, by lift over the crawl at large:")
	fmt.Printf("%-16s %12s %12s %8s\n", "topic", "near share", "base share", "lift")
	for i, r := range rows {
		if i >= 6 {
			break
		}
		fmt.Printf("%-16s %11.1f%% %11.1f%% %7.1fx\n",
			r.name, 100*r.nearShare, 100*r.overallShare, r.lift)
	}
	if len(rows) > 0 {
		fmt.Printf("\nanswer: %q", rows[0].name)
		if rows[0].name == "firstaid" || rows[0].name == "running" {
			fmt.Printf(" — the paper's finding for this query was \"first aid\"")
		}
		fmt.Println()
	}
}
