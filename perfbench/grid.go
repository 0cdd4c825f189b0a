package main

import (
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"sort"
	"time"

	"polystyrene/internal/experiments"
	"polystyrene/internal/runner"
	"polystyrene/internal/scenario"
)

// grid-800: the paper grid of scripts/paper/experiments.json (paper,
// churn, flash-crowd, rolling-partition, rack-failure, weibull) cut to
// 40x20, K=4, perfect detector, one repeat, over exchange parallelism
// {0,1,2}: 18 short cache-resident cells whose cost is set-up, planning
// and observers, run two at a time with engine pooling and audited for
// determinism. It also drives the sequential engine (w=0 cells), the
// schedule generators and the runner fan-out.
const (
	gridSpecPath = "scripts/paper/experiments.json"
	gridCells    = 2 // concurrent cells
	// A grid set-up takes a few tens of milliseconds, so it is repeated
	// more than the others for a steady median.
	gridSetupRepeats = 20
)

// gridStack is one paper cell of the grid (40x20, K=4, one exchange
// worker) that the traced run analyses layer by layer.
var gridStack = stack{label: "grid-800/paper-cell", w: 40, h: 20, k: 4, workers: 1,
	phaseRounds: 20, setups: 20, repeats: scaleRepeats}

// gridSpec loads the paper grid and narrows its axes to the workload.
func gridSpec(seed uint64) (*experiments.Spec, []byte, error) {
	spec, data, err := experiments.ParseFile(gridSpecPath)
	if err != nil {
		return nil, nil, err
	}
	spec.Seed = seed
	spec.Repeats = 1
	spec.Sizes = [][2]int{{40, 20}}
	spec.Ks = []int{4}
	spec.Detectors = []string{"perfect"}
	spec.ExchangeParallelism = []int{0, 1, 2}
	if err := spec.Validate(filepath.Dir(gridSpecPath)); err != nil {
		return nil, nil, err
	}
	return spec, data, nil
}

// gridSetup is the set-up every cell of the grid pays before its first
// round: its availability schedule and its wired scenario.
func gridSetup(spec *experiments.Spec) error {
	cells := spec.Expand()
	if len(cells) != 18 {
		return fmt.Errorf("grid expands to %d cells, want 18", len(cells))
	}
	for _, c := range cells {
		if c.Scenario.Name != "paper" {
			if _, err := experiments.BuildSchedule(c); err != nil {
				return err
			}
		}
		sc, err := scenario.New(scenario.Config{Seed: c.Seed, W: c.W, H: c.H, Polystyrene: true, K: c.K, ExchangeParallelism: c.Exchange})
		if err != nil {
			return err
		}
		sc.Close()
	}
	return nil
}

func runGrid(cfg runConfig, res *result) error {
	var setups []float64
	var spec *experiments.Spec
	var data []byte
	// One untimed pass first: the process's first allocations fault in
	// fresh memory, which no later grid set-up pays.
	if s, _, err := gridSpec(cfg.seed); res.op(err) != nil {
		return err
	} else if err := res.op(gridSetup(s)); err != nil {
		return err
	}
	for i := 0; i < gridSetupRepeats; i++ {
		t0 := time.Now()
		s, d, err := gridSpec(cfg.seed)
		if err == nil {
			err = gridSetup(s)
		}
		setups = append(setups, seconds(time.Since(t0)))
		if res.op(err) != nil {
			return err
		}
		spec, data = s, d
	}

	runUntraced := func(r *result) (time.Duration, int, error) {
		t0 := time.Now()
		results, err := experiments.Run(spec, experiments.RunOpts{Parallelism: gridCells, PoolEngines: true})
		if r.op(err) != nil {
			return 0, 0, err
		}
		err = gridFinish(cfg, nil, -1, r, spec, data, results)
		return time.Since(t0), gridRounds(results), err
	}
	if !cfg.trace {
		wall, rounds, err := runUntraced(res)
		if err != nil {
			return err
		}
		// The grid is what a user of the pipeline waits on: its rounds
		// per second, and its wall-clock as the one operation of the run.
		res.set("setup_s", "s", median(setups))
		res.set("rounds_per_s", "1/s", float64(rounds)/wall.Seconds())
		res.set("op_p50_ms", "ms", ms(wall))
		note("grid_s", "s", seconds(wall))
		rss, err := peakRSSMB("self")
		if res.op(err) != nil {
			return err
		}
		res.set("peak_rss_mb", "MB", rss)
		return nil
	}

	ref, _, err := runUntraced(newResult())
	if err != nil {
		return err
	}
	tr := newTracer(cfg.seed)
	before := sampleRuntime()
	t0 := time.Now()
	root := tr.begin("grid", -1)
	results, err := gridTraced(spec, tr, root)
	if res.op(err) != nil {
		return err
	}
	err = gridFinish(cfg, tr, root, res, spec, data, results)
	tr.end(root)
	wall := time.Since(t0)
	after := sampleRuntime()
	if err != nil {
		return err
	}
	res.set("trace.overhead_ms", "ms", ms(wall-ref))

	var cells []float64
	var sum float64
	for _, d := range tr.durations("experiments.cell") {
		cells = append(cells, seconds(d))
		sum += seconds(d)
	}
	sort.Float64s(cells)
	note("experiments.cell_s.p50", "s", median(cells))
	note("experiments.cell_s.max", "s", cells[len(cells)-1])
	note("runner.busy_frac", "ratio", sum/(seconds(wall)*gridCells))

	if err := stackTraced(cfg, gridStack, tr, res, nil); err != nil {
		return err
	}
	// The runtime figures of the whole grid replace the paper cell's.
	var rounds, points float64
	for _, r := range results {
		for _, v := range r.Series.DataPoints {
			points += v
		}
	}
	rounds = float64(gridRounds(results))
	res.set("core.points_per_node", "points", points/rounds)
	res.set("go.gc_cpu_frac", "ratio", after.gcCPU(before))
	res.set("go.alloc_mb_per_round", "MB", float64(after.allocBytes-before.allocBytes)/(1<<20)/rounds)
	setGC(res, after.minus(before))
	_, err = tr.write(filepath.Join(buildDir, "traces"), cfg.name, cfg.seed)
	return err
}

// gridRounds counts the rounds every cell of the grid recorded.
func gridRounds(results []experiments.CellResult) int {
	n := 0
	for _, r := range results {
		n += len(r.Series.DataPoints)
	}
	return n
}

// gridTraced is experiments.Run replayed from its public parts — the
// same cell expansion, engine pool, runner fan-out and RunCell — with
// one span per cell.
func gridTraced(spec *experiments.Spec, tr *tracer, root int) ([]experiments.CellResult, error) {
	cells := spec.Expand()
	results := make([]experiments.CellResult, len(cells))
	pool := scenario.NewEnginePool()
	defer pool.Drain()
	err := runner.Map(gridCells, len(cells), func(i int) error {
		sp := tr.begin("experiments.cell", root)
		r, err := experiments.RunCell(cells[i], pool)
		tr.end(sp)
		if err != nil {
			return fmt.Errorf("cell %s: %w", cells[i].ID(), err)
		}
		results[i] = r
		return nil
	})
	return results, err
}

// gridFinish audits determinism, prints the per-cell fingerprints and
// writes the results folder, as a grid run does.
func gridFinish(cfg runConfig, tr *tracer, root int, res *result, spec *experiments.Spec, data []byte, results []experiments.CellResult) error {
	for range results {
		res.op(nil)
	}
	sp := tr.begin("experiments.audit", root)
	err := checkGridAudit(results, len(spec.Scenarios))
	tr.end(sp)
	if res.op(err) != nil {
		return err
	}
	h := fnv.New64a()
	for _, r := range results {
		fmt.Printf("# cell %s fp=%016x h=%.6f rel=%.2f%%\n", r.Cell.ID(), r.Fingerprint, r.FinalHomogeneity, r.ReliabilityPct)
		fmt.Fprintf(h, "%016x", r.Fingerprint)
	}
	fmt.Printf("# fingerprint %s %016x\n", cfg.name, h.Sum64())

	sp = tr.begin("experiments.write_results", root)
	dir, err := os.MkdirTemp(buildDir, "grid-")
	if err == nil {
		err = experiments.WriteResults(dir, data, results)
		os.RemoveAll(dir)
	}
	tr.end(sp)
	return res.op(err)
}

// checkGridAudit holds when AuditDeterminism passes and checked one
// identity group per scenario (its w=1 and w=2 cells).
func checkGridAudit(results []experiments.CellResult, scenarios int) error {
	groups, err := experiments.AuditDeterminism(results)
	if err != nil {
		return err
	}
	if groups != scenarios {
		return fmt.Errorf("determinism audit checked %d identity groups, want %d", groups, scenarios)
	}
	return nil
}
