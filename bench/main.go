// Command bench is the repository's one end-to-end crawl benchmark: six
// workloads, seven end-to-end metrics measured untraced, and a per-layer
// stage budget from a traced run. See README.md.
//
//	bash bench/run.sh --workload standard --seed 7 --seconds 17 --trace 0
//	bash bench/run.sh --all --seed 7 --out bench/BASELINE.json
//	bash bench/run.sh --compare a.json b.json
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"
)

// runSeconds is BENCHMARK.json's run_seconds: how long one run measures.
const runSeconds = 17

func main() {
	var (
		name    = flag.String("workload", "", "workload to run (one run, as the driver makes it)")
		seed    = flag.Int64("seed", 7, "seed the webs and B+tree keys are made from")
		seconds = flag.Float64("seconds", runSeconds, "how long a run measures")
		trace   = flag.Int("trace", 0, "1: traced run, prints the per-layer metrics; 0: untraced, prints the end-to-end metrics")
		all     = flag.Bool("all", false, "run every workload, untraced then traced, and print every metric")
		out     = flag.String("out", "", "with -all: write the report to this file")
		compare = flag.Bool("compare", false, "compare two -all reports: -compare a.json b.json")
		spec    = flag.Bool("spec", false, "print BENCHMARK.json as the harness declares it")
		outDir  = flag.String("outdir", "out", "directory for traces, hang dumps and scratch files")
		unit    = flag.Bool("unit", false, "internal: run one unit in this process and print its result")
		dir     = flag.String("dir", "", "internal: the unit's scratch directory")
	)
	flag.Parse()
	var err error
	switch {
	case *spec:
		err = printJSON(os.Stdout, benchmarkSpec(), true)
	case *compare && flag.NArg() != 2:
		err = errors.New("-compare needs two report files")
	case *compare:
		err = compareReports(flag.Arg(0), flag.Arg(1))
	case *all:
		err = runAll(*seed, *seconds, *out, *outDir)
	default:
		w, ok := workloadByName(*name)
		switch {
		case !ok:
			err = fmt.Errorf("unknown workload %q", *name)
		case *unit:
			var u *unitResult
			if u, err = runUnit(w, *seed, *trace != 0, *dir, *outDir); err == nil {
				err = printJSON(os.Stdout, u, false)
			}
		default:
			err = runOnce(w, *seed, *seconds, *trace != 0, *outDir)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// errIncorrect is returned after the result has been printed: the run
// finished but its outputs failed verification.
var errIncorrect = errors.New("verification failed")

// runOnce makes one run and prints the driver's line: exactly the keys
// correct, attempted, failed and metrics, each metric a value and a unit.
func runOnce(w workload, seed int64, seconds float64, traced bool, outDir string) error {
	rep, err := runWorkload(w, seed, seconds, traced, outDir)
	if err != nil {
		return err
	}
	for _, v := range rep.Violations {
		fmt.Fprintln(os.Stderr, "bench:", v)
	}
	fmt.Fprintf(os.Stderr, "bench: %s seed %d: %d units, machine speed %.3f\n", w.Name, seed, rep.Units, rep.MachineSpeed)
	line := struct {
		Correct   bool                `json:"correct"`
		Attempted int64               `json:"attempted"`
		Failed    int64               `json:"failed"`
		Metrics   map[string]driverKV `json:"metrics"`
	}{rep.Correct, rep.Attempted, rep.Failed, map[string]driverKV{}}
	for name, s := range rep.metrics(traced) {
		line.Metrics[name] = driverKV{s.Value, s.Unit}
	}
	if err := printJSON(os.Stdout, line, false); err != nil {
		return err
	}
	if !rep.Correct {
		return errIncorrect
	}
	return nil
}

type driverKV struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func printJSON(f *os.File, v any, indent bool) error {
	enc := json.NewEncoder(f)
	if indent {
		enc.SetIndent("", "  ")
	}
	return enc.Encode(v)
}

// stat is one metric of one workload: the median over the run's units,
// with the spread and the sample count it came from.
type stat struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	Min   float64 `json:"min"`
	Q1    float64 `json:"q1"`
	Q3    float64 `json:"q3"`
	Max   float64 `json:"max"`
	N     int     `json:"n"`
}

func newStat(vs []float64, unit string) stat {
	return stat{median(vs), unit, quantile(vs, 0), quantile(vs, 0.25), quantile(vs, 0.75), quantile(vs, 1), len(vs)}
}

// spread is the distance between the quartiles as a share of the median.
func (s stat) spread() float64 { return ratio(s.Q3-s.Q1, s.Value) }

func (s stat) scaled(f float64) stat {
	s.Value, s.Min, s.Q1, s.Q3, s.Max = s.Value*f, s.Min*f, s.Q1*f, s.Q3*f, s.Max*f
	return s
}

// workloadReport is one workload's part of a report: the end-to-end
// metrics of an untraced run and the per-layer metrics of a traced one.
type workloadReport struct {
	// MachineSpeed is the machine's speed during the run relative to the
	// nominal machine, by the reference kernel.
	MachineSpeed float64         `json:"machine_speed"`
	Correct      bool            `json:"correct"`
	Attempted    int64           `json:"attempted"`
	Failed       int64           `json:"failed"`
	Units        int             `json:"units"`
	Violations   []string        `json:"violations,omitempty"`
	EndToEnd     map[string]stat `json:"end_to_end,omitempty"`
	PerLayer     map[string]stat `json:"per_layer,omitempty"`
}

func (r *workloadReport) metrics(traced bool) map[string]stat {
	if traced {
		return r.PerLayer
	}
	return r.EndToEnd
}

// runWorkload makes one run: it repeats units of w, each in a fresh child
// process so that RSS, GC state and the web's fetch RNG start clean, on
// webs derived from seed, until the time is spent, and reports the median
// of each metric over the units. An untraced run measures the end-to-end
// metrics. A traced run alternates an untraced and a traced unit on the
// same web: the traced units give the per-layer metrics, and the pair's
// difference in pages/s is the tracing overhead. Between units the run
// times the reference kernel, which says how fast the machine is.
func runWorkload(w workload, seed int64, seconds float64, traced bool, outDir string) (*workloadReport, error) {
	start := time.Now()
	rep := &workloadReport{Correct: true}
	var plain, withTrace []*unitResult
	var longest time.Duration
	refs := refSamples(nil)
	minUnits, modes := 3, []bool{false}
	if traced {
		minUnits, modes = 1, []bool{false, true}
	}
	for i := 0; ; i++ {
		t := time.Now()
		var batch []*unitResult
		for _, tr := range modes {
			u, err := execUnit(w, unitSeed(seed, i), tr, outDir)
			if err != nil {
				// A unit that errors or hangs counts all its operations failed.
				rep.Correct = false
				rep.Attempted += w.Crawl.MaxFetches
				rep.Failed += w.Crawl.MaxFetches
				rep.Violations = append(rep.Violations, err.Error())
				break
			}
			batch = append(batch, u)
		}
		if !rep.Correct {
			break
		}
		plain = append(plain, batch[0])
		if traced {
			withTrace = append(withTrace, batch[1])
		}
		refs = refSamples(refs)
		longest = max(longest, time.Since(t))
		spent := time.Since(start)
		if i+1 >= minUnits && spent+longest > time.Duration(seconds*float64(time.Second)) {
			break
		}
	}
	if len(plain) == 0 {
		return nil, fmt.Errorf("%s: no unit completed: %s", w.Name, strings.Join(rep.Violations, "; "))
	}
	rep.MachineSpeed = ms(refNominal) / median(refs)
	rep.summarize(plain, withTrace, traced)
	return rep, nil
}

// summarize folds a run's units into its report: the median of each metric
// over the units that measured it, the end-to-end timings scaled to the
// nominal machine by rep.MachineSpeed (see calib.go).
func (rep *workloadReport) summarize(plain, withTrace []*unitResult, traced bool) {
	units, defs := plain, endToEnd
	if traced {
		units, defs = withTrace, perLayer
	}
	rep.Units = len(units)
	for _, u := range units {
		rep.Attempted += u.Attempted
		rep.Failed += u.Failed
		for _, v := range u.Violations {
			rep.Correct = false
			rep.Violations = append(rep.Violations, fmt.Sprintf("%s seed %d: %s", u.Workload, u.Seed, v))
		}
	}
	stats := make(map[string]stat, len(defs))
	for _, m := range defs {
		var vs []float64
		for _, u := range units {
			vs = append(vs, u.Values[m.Name])
		}
		stats[m.Name] = newStat(vs, m.Unit).scaled(math.Pow(rep.MachineSpeed, float64(m.Scale)))
	}
	if traced {
		pps := func(us []*unitResult) float64 {
			var vs []float64
			for _, u := range us {
				vs = append(vs, u.Values["pages_per_s"])
			}
			return median(vs)
		}
		overhead := 100 * (1 - ratio(pps(withTrace), pps(plain)))
		stats["bench.trace_overhead_pct"] = newStat([]float64{overhead}, "%")
		stats["bench.machine_speed"] = newStat([]float64{rep.MachineSpeed}, "ratio")
		rep.PerLayer = stats
		return
	}
	rep.EndToEnd = stats
}

// unitSeed derives the i-th unit's web seed from the run's seed: distinct
// webs within a run, and distinct runs share none for nearby seeds.
func unitSeed(seed int64, i int) int64 { return seed*1009 + int64(i) }

// execUnit runs one unit in a child process of this binary under the
// watchdog: a child that takes five times what its workload is expected to
// is sent SIGQUIT — the Go runtime then writes every goroutine's stack to
// standard error and exits — its dump is saved under outDir, and the unit
// is reported failed. A hang is an outcome the benchmark reports, not one
// it shares.
func execUnit(w workload, seed int64, traced bool, outDir string) (*unitResult, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(outDir, "unit-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	trace := "0"
	if traced {
		trace = "1"
	}
	cmd := exec.Command(self, "-unit", "-workload", w.Name, "-seed", fmt.Sprint(seed),
		"-trace", trace, "-dir", dir, "-outdir", outDir)
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	limit := time.Duration(5 * w.ExpectS * float64(time.Second))
	if traced {
		limit = limit * 5 / 2 // the replay and the B+tree timing ride along
	}
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()
	watchdog := time.NewTimer(limit)
	defer watchdog.Stop()
	select {
	case err = <-done:
	case <-watchdog.C:
		_ = cmd.Process.Signal(syscall.SIGQUIT) // the kill below covers a failed signal
		kill := time.NewTimer(10 * time.Second)
		defer kill.Stop()
		select {
		case <-done:
		case <-kill.C:
			_ = cmd.Process.Kill() // fails only if the child has just exited
			<-done
		}
		dump := filepath.Join(outDir, fmt.Sprintf("hang-%s-%d.txt", w.Name, seed))
		if werr := os.WriteFile(dump, stderr.Bytes(), 0o644); werr != nil {
			dump = "(not saved: " + werr.Error() + ")"
		}
		return nil, fmt.Errorf("%s seed %d: unit still running after %v, killed; goroutine dump in %s", w.Name, seed, limit, dump)
	}
	if err != nil {
		return nil, fmt.Errorf("%s seed %d: unit failed: %w: %s", w.Name, seed, err, lastLine(stderr.String()))
	}
	u := &unitResult{}
	if err := json.Unmarshal(stdout.Bytes(), u); err != nil {
		return nil, fmt.Errorf("%s seed %d: unit result: %w", w.Name, seed, err)
	}
	return u, nil
}

func lastLine(s string) string {
	s = strings.TrimSpace(s)
	return s[strings.LastIndexByte(s, '\n')+1:]
}

// report is what -all writes and -compare reads.
type report struct {
	Seed      int64                      `json:"seed"`
	Seconds   float64                    `json:"seconds"`
	GoVersion string                     `json:"go"`
	NumCPU    int                        `json:"nproc"`
	Workloads map[string]*workloadReport `json:"workloads"`
}

// runAll runs every workload, untraced then traced, prints every metric by
// name with its unit, and writes the report.
func runAll(seed int64, seconds float64, out, outDir string) error {
	rep := report{Seed: seed, Seconds: seconds, GoVersion: runtime.Version(), NumCPU: runtime.NumCPU(),
		Workloads: map[string]*workloadReport{}}
	correct := true
	for _, w := range workloads {
		e2e, err := runWorkload(w, seed, seconds, false, outDir)
		if err != nil {
			return err
		}
		layers, err := runWorkload(w, seed, seconds, true, outDir)
		if err != nil {
			return err
		}
		e2e.PerLayer = layers.PerLayer
		e2e.Correct = e2e.Correct && layers.Correct
		e2e.Violations = append(e2e.Violations, layers.Violations...)
		rep.Workloads[w.Name] = e2e
		correct = correct && e2e.Correct

		fmt.Printf("%s: %d units, %d operations, %d failed, correct=%v\n", w.Name, e2e.Units, e2e.Attempted, e2e.Failed, e2e.Correct)
		for _, v := range e2e.Violations {
			fmt.Printf("  VIOLATION %s\n", v)
		}
		for _, m := range endToEnd {
			s := e2e.EndToEnd[m.Name]
			fmt.Printf("  %-40s %14.4f %-16s [%.4f .. %.4f] n=%d\n", m.Name, s.Value, s.Unit, s.Min, s.Max, s.N)
		}
		for _, m := range perLayer {
			s := e2e.PerLayer[m.Name]
			fmt.Printf("  %-40s %14.4f %s\n", m.Name, s.Value, s.Unit)
		}
	}
	if out != "" {
		f, err := os.Create(out)
		if err != nil {
			return err
		}
		if err := printJSON(f, rep, true); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	if !correct {
		return errIncorrect
	}
	return nil
}

// benchmarkSpec is BENCHMARK.json: the contract between this harness and
// whatever drives it.
func benchmarkSpec() map[string]any {
	type why struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	var ws []why
	for _, w := range workloads {
		ws = append(ws, why{w.Name, w.Why})
	}
	return map[string]any{
		"command":     []string{"bash", "bench/run.sh"},
		"paths":       []string{"bench"},
		"run_seconds": runSeconds,
		"workloads":   ws,
		"end_to_end":  endToEnd,
		"per_layer":   perLayer,
	}
}
