package webgraph

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"time"

	"focus/internal/taxonomy"
)

// FetchState is the serializable snapshot of a Web's mutable fetch-side
// state: the failure RNG's stream position, the fetch counters, and the
// per-host fault windows. The page graph itself is not exported — it is a
// pure function of Config, so a restart regenerates it and then imports
// this snapshot to put the simulated network back exactly where it was.
// Host times are stored relative to the export instant and rebased on
// import; under the deterministic (hostility-off) configurations the
// bit-identical resume golds are pinned to, no host state exists at all.
type FetchState struct {
	// Draws is the number of state advances consumed from the failure RNG
	// since seeding. Import re-seeds from Config.Seed and burns this many
	// draws, reproducing the stream position exactly.
	Draws    int64 `json:"draws"`
	Fetches  int64 `json:"fetches"`
	Timeouts int64 `json:"timeouts"`
	NotFound int64 `json:"not_found"`
	Limited  int64 `json:"limited"`
	Outages  int64 `json:"outages"`
	// Seed echoes Config.Seed so a mismatched import fails loudly instead
	// of silently replaying a different stream.
	Seed int64 `json:"seed"`
	// Config is the exporting web's config digest: a web generated from
	// another config (another page count, say) holds other pages under the
	// same URLs, and its import is refused.
	Config string               `json:"config"`
	Hosts  map[string]HostFault `json:"hosts,omitempty"`
}

// configDigest fingerprints a defaulted Config: the taxonomy as its node
// names in tree order, then every other field. Maps print in key order and
// floats in their shortest exact form, so equal configs digest equally.
func configDigest(c Config) string {
	h := sha256.New()
	var walk func(n *taxonomy.Node)
	walk = func(n *taxonomy.Node) {
		fmt.Fprintf(h, "%q(", n.Name)
		for _, ch := range n.Children {
			walk(ch)
		}
		fmt.Fprint(h, ")")
	}
	walk(c.Tree.Root)
	c.Tree = nil
	fmt.Fprintf(h, "%+v", c)
	return hex.EncodeToString(h.Sum(nil)[:8])
}

// HostFault is one server's exported fault state, times relative to the
// export instant (negative or zero means expired).
type HostFault struct {
	WinElapsed time.Duration `json:"win_elapsed"`
	WinUsed    int           `json:"win_used"`
	DarkRemain time.Duration `json:"dark_remain"`
}

// ExportFetchState captures the Web's mutable network-simulation state for
// a checkpoint. The caller must have quiesced fetching (the crawler's
// checkpoint barrier does).
func (w *Web) ExportFetchState() ([]byte, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	now := time.Now()
	st := FetchState{
		Draws:    w.failSrc.n,
		Fetches:  w.fetches.Load(),
		Timeouts: w.timeouts.Load(),
		NotFound: w.notFound.Load(),
		Limited:  w.limited.Load(),
		Outages:  w.outages.Load(),
		Seed:     w.Cfg.Seed,
		Config:   w.digest,
	}
	if len(w.hosts) > 0 {
		st.Hosts = make(map[string]HostFault, len(w.hosts))
		for host, h := range w.hosts {
			st.Hosts[host] = HostFault{
				WinElapsed: now.Sub(h.winStart),
				WinUsed:    h.winUsed,
				DarkRemain: h.darkUntil.Sub(now),
			}
		}
	}
	return json.Marshal(st)
}

// ImportFetchState restores state captured by ExportFetchState onto a
// freshly Generated Web with the same Config, refusing by name a state
// exported by a web of another seed or config: the failure RNG is re-seeded
// and fast-forwarded to the exported stream position, counters are set, and
// host fault windows are rebased to the import instant.
func (w *Web) ImportFetchState(data []byte) error {
	var st FetchState
	if err := json.Unmarshal(data, &st); err != nil {
		return fmt.Errorf("webgraph: fetch state decode: %w", err)
	}
	if st.Seed != w.Cfg.Seed {
		return fmt.Errorf("webgraph: fetch state for seed %d imported into web with seed %d", st.Seed, w.Cfg.Seed)
	}
	if st.Config != w.digest {
		return fmt.Errorf("webgraph: fetch state for web config %s imported into web with config %s (another page count or generator setting)",
			st.Config, w.digest)
	}
	if st.Draws < 0 {
		return fmt.Errorf("webgraph: fetch state has negative draw count %d", st.Draws)
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	w.fetchState.init(w.Cfg)
	for i := int64(0); i < st.Draws; i++ {
		// Advance the raw source, not the Rand: one call is one state step
		// regardless of which Rand method originally consumed it.
		//focuslint:ignore gatedrng replays the persisted draw count to reposition the golden-captured fault stream
		w.failSrc.src.Uint64()
	}
	w.failSrc.n = st.Draws
	w.fetches.Store(st.Fetches)
	w.timeouts.Store(st.Timeouts)
	w.notFound.Store(st.NotFound)
	w.limited.Store(st.Limited)
	w.outages.Store(st.Outages)
	now := time.Now()
	for host, h := range st.Hosts {
		w.hosts[host] = &hostFault{
			winStart:  now.Add(-h.WinElapsed),
			winUsed:   h.WinUsed,
			darkUntil: now.Add(h.DarkRemain),
		}
	}
	return nil
}
