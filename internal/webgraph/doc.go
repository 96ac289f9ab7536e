// Package webgraph is the synthetic distributed hypertext graph that stands
// in for the 1999 Web the paper crawled. The crawler only ever sees it
// through Fetch(url), which simulates network cost (latency, dead links,
// timeouts), so the rest of the system is oblivious to the substitution.
//
// The generator is calibrated to the two statistical properties the paper's
// whole architecture rests on (§2):
//
//   - Radius-1 rule: a relevant page is much more likely than a random page
//     to cite another relevant page. Pages here link to same-topic pages
//     with probability pSameTopic, to "related" topics (an affinity list,
//     e.g. cycling→first aid, which also powers the paper's citation
//     sociology example) with probability pRelated, and uniformly otherwise.
//   - Radius-2 rule: pages that point to one page of a topic are likely to
//     point to more (the paper measures ~45% on Yahoo!). Same-topic links
//     here come in bursts, and a fraction of pages are explicit hubs with
//     long topic-concentrated link lists.
//
// Two further properties matter for the evaluation:
//
//   - Locality: each topic's pages form a community chain — same-topic
//     links mostly land within a window of the page's position in the
//     topic, with a small long-range shortcut probability. Seed sets are
//     drawn from the "popular core" at the head of the chain (what keyword
//     search + topic distillation would return), so good resources really
//     are many links away from the seeds, as in the paper's Figure 7.
//   - Server structure: pages live on topic-affine servers plus shared
//     mega-servers, and a fraction of links are same-server navigation
//     links, giving the distiller's nepotism filter something to filter.
//
// Page text is not materialized: tokens are regenerated deterministically
// from the page's seed on every Fetch, so multi-ten-thousand-page webs stay
// cheap. Ground-truth accessors (true topic, true graph) exist for
// evaluation only; the crawler must not use them.
//
// The package's RNG streams are golden-pinned: with every hostility feature
// off, a run must consume bit-identical random sequences to the goldens.
// focuslint's gatedrng analyzer enforces that (see the marker below) —
// every draw outside the baseline generators must be dominated by a
// feature-flag guard.
//
//focuslint:rng-package
package webgraph
