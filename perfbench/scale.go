package main

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"time"

	"polystyrene/internal/ckpt"
	"polystyrene/internal/experiments"
	bmetrics "polystyrene/internal/metrics"
	"polystyrene/internal/scenario"
	"polystyrene/internal/space"
	"polystyrene/internal/xrand"
)

// scale-51k: the paper's largest torus (Fig. 10a), 320x160 = 51,200
// nodes, Polystyrene over T-Man with K=4 on the batched engine at two
// workers, per-round metrics on. The working set is far larger than L2,
// and after the half-torus crash the homogeneity metric falls back to a
// full scan for every orphaned point.
const (
	scaleW, scaleH = 320, 160
	scaleWorkers   = 2
	// scaleRoundEstimate sizes the phases from --seconds. It is a fixed
	// planning figure, not a measurement, so one --seconds value always
	// runs the same rounds.
	scaleRoundEstimate = 3 * time.Second
	// repeats of set-up, checkpoint save and checkpoint restore; their
	// medians are reported.
	scaleRepeats = 5
	setupRepeats = 21
)

var stackLayers = []string{"rps", "tman", "polystyrene"}

// layerMetric maps an engine layer name to its metric prefix.
var layerMetric = map[string]string{"rps": "rps", "tman": "tman", "polystyrene": "core"}

// stack is one Polystyrene-over-T-Man torus run through the paper's
// story: set-up, calm rounds, FailRightHalf, recovery rounds, then a
// durable checkpoint saved and restored. scale-51k is one; the traced
// runs of the other workloads run a small one of their own size, so
// that every workload reports every per-layer metric on its own state.
type stack struct {
	label       string
	w, h, k     int
	workers     int // exchange parallelism of the measured rounds
	phaseRounds int // calm rounds, and again recovery rounds
	setups      int // scenario.New repeats
	repeats     int // checkpoint save and restore repeats
}

func (s stack) config(seed uint64, workers int) scenario.Config {
	return scenario.Config{Seed: seed, W: s.w, H: s.h, Polystyrene: true, K: s.k, ExchangeParallelism: workers}
}

func scaleStack(secs int) stack {
	return stack{label: "scale-51k", w: scaleW, h: scaleH, k: 4, workers: scaleWorkers,
		phaseRounds: scalePhaseRounds(secs), setups: setupRepeats, repeats: scaleRepeats}
}

func scalePhaseRounds(secs int) int {
	n := int(math.Round(float64(secs) * float64(time.Second) / 2 / float64(scaleRoundEstimate)))
	return max(n, 2)
}

// phaseOut is one phase's rounds.
type phaseOut struct {
	nodeRound int // live nodes summed over the rounds
	wall      time.Duration
	times     []float64 // seconds per round
}

// scaleOut is what one pass over the workload body produced.
type scaleOut struct {
	sc                *scenario.Scenario
	roundsWall        time.Duration // set-up + calm + crash + recovery
	calm, recovery    phaseOut
	calmSnap          []byte // state at the end of the calm phase (traced body only)
	recoverySnap      []byte // the checkpoint the body saved (traced body only)
	saves, restores   []float64
	firstRound        int
	rounds            int
	goBefore, goAfter runtimeSample
}

func runScale(cfg runConfig, res *result) error {
	s := scaleStack(cfg.seconds)
	if !cfg.trace {
		out, err := scaleBody(cfg, s, nil, res)
		if out.sc != nil {
			out.sc.Close()
		}
		if err != nil {
			return err
		}
		// A round or a checkpoint is what a user of a 51,200-node
		// deployment waits on: a calm and a recovery round, each the
		// median of its phase, and the median save-then-restore of the
		// durable checkpoint.
		res.set("rounds_per_s", "1/s", 2/(median(out.calm.times)+median(out.recovery.times)))
		var trips []float64
		for i := range out.saves {
			trips = append(trips, 1000*(out.saves[i]+out.restores[i]))
		}
		res.set("op_p50_ms", "ms", median(trips))
		note("node_rounds_per_s.calm", "1/s", float64(out.calm.nodeRound)/out.calm.wall.Seconds())
		note("node_rounds_per_s.recovery", "1/s", float64(out.recovery.nodeRound)/out.recovery.wall.Seconds())
		note("ckpt_save_s", "s", median(out.saves))
		note("ckpt_restore_s", "s", median(out.restores))
		return nil
	}
	// Traced run: the round phases once untraced, as the reference for
	// the tracing overhead, then the whole body traced, then the layer
	// analysis on the states the traced body left behind.
	ref, err := scaleRounds(cfg, s, nil, newResult(), false)
	if ref.sc != nil {
		ref.sc.Close()
	}
	if err != nil {
		return err
	}
	refWall := ref.roundsWall
	ref = scaleOut{}
	runtime.GC()

	tr := newTracer(cfg.seed)
	if err := stackTraced(cfg, s, tr, res, func(out scaleOut) {
		res.set("trace.overhead_ms", "ms", ms(out.roundsWall-refWall))
	}); err != nil {
		return err
	}
	_, err = tr.write(filepath.Join(buildDir, "traces"), cfg.name, cfg.seed)
	return err
}

// stackTraced runs the stack's body traced and then the layer analysis
// on the states it left behind; between, when set, sees the body's
// result before the analysis runs.
func stackTraced(cfg runConfig, s stack, tr *tracer, res *result, between func(scaleOut)) error {
	out, err := scaleBody(cfg, s, tr, res)
	if out.sc != nil {
		out.sc.Close()
		out.sc = nil
	}
	if err != nil {
		return err
	}
	if between != nil {
		between(out)
	}
	return scaleLayers(cfg, s, tr, res, out)
}

// scaleRounds runs set-up, the calm phase, the crash and the recovery
// phase, reporting setup_s.
func scaleRounds(cfg runConfig, s stack, tr *tracer, res *result, keepCalm bool) (scaleOut, error) {
	var out scaleOut
	start := time.Now()

	var setups []float64
	for i := 0; i < s.setups; i++ {
		// Every set-up starts on a collected heap holding no scenario, as
		// in a fresh process, so no set-up pays for another's garbage.
		if out.sc != nil {
			out.sc.Close()
			out.sc = nil
		}
		runtime.GC()
		sp := tr.begin("scenario.new", -1)
		t0 := time.Now()
		sc, err := scenario.New(s.config(cfg.seed, s.workers))
		setups = append(setups, seconds(time.Since(t0)))
		tr.end(sp)
		if res.op(err) != nil {
			return out, err
		}
		out.sc = sc
	}
	res.set("setup_s", "s", median(setups))
	fmt.Printf("# setup %s setups_s=%.3f\n", s.label, setups)
	sc := out.sc

	if tr != nil {
		out.goBefore = sampleRuntime()
	}
	out.firstRound = sc.Engine.Round()
	runPhase := func(name string) phaseOut {
		// Each phase starts on a collected heap, so where the collector
		// lands inside it follows from the phase's own allocations.
		runtime.GC()
		ph := tr.begin("phase."+name, -1)
		var p phaseOut
		t0 := time.Now()
		for i := 0; i < s.phaseRounds; i++ {
			p.nodeRound += sc.Engine.NumLive()
			sp := tr.begin("sim.round."+name, ph)
			r0 := time.Now()
			sc.Run(1)
			p.times = append(p.times, seconds(time.Since(r0)))
			tr.end(sp)
			res.op(nil)
		}
		p.wall = time.Since(t0)
		fmt.Printf("# phase %s %s rounds_s=%.3f\n", s.label, name, p.times)
		tr.end(ph)
		return p
	}
	out.calm = runPhase("calm")
	var capture runtimeSample
	if keepCalm {
		// Outside the timed phases, and taken out of the runtime figures:
		// the analysis replays from this state.
		before := sampleRuntime()
		sp := tr.begin("capture.calm", -1)
		var buf bytes.Buffer
		if err := res.op(sc.SnapshotTo(&buf)); err != nil {
			return out, err
		}
		out.calmSnap = buf.Bytes()
		tr.end(sp)
		capture = sampleRuntime().minus(before)
	}
	sp := tr.begin("scenario.fail_right_half", -1)
	killed := sc.FailRightHalf()
	tr.end(sp)
	if err := res.op(checkCrash(killed, s.w*s.h)); err != nil {
		return out, err
	}
	out.recovery = runPhase("recovery")
	out.rounds = sc.Engine.Round() - out.firstRound
	if tr != nil {
		out.goAfter = sampleRuntime().minus(capture)
	}
	out.roundsWall = time.Since(start)
	if keepCalm {
		out.roundsWall -= tr.durations("capture.calm")[0]
	}
	return out, nil
}

// checkCrash holds when FailRightHalf took out roughly half the torus.
func checkCrash(killed, total int) error {
	if killed < total/4 || killed > 3*total/4 {
		return fmt.Errorf("FailRightHalf killed %d of %d nodes", killed, total)
	}
	return nil
}

// scaleBody is the whole stack body: the round phases, then a durable
// checkpoint saved through ckpt.Manager and restored into a fresh
// scenario, and the resume-identity check. It reports setup_s and
// peak_rss_mb and returns the save and restore times.
func scaleBody(cfg runConfig, s stack, tr *tracer, res *result) (scaleOut, error) {
	out, err := scaleRounds(cfg, s, tr, res, tr != nil)
	if err != nil {
		return out, err
	}
	sc := out.sc
	printSeries(s.label, sc.Result())
	if tr != nil {
		meterLayers(res, sc, out)
	}

	dir, err := os.MkdirTemp(buildDir, "ckpt-")
	if err != nil {
		return out, res.op(err)
	}
	defer os.RemoveAll(dir)
	mgr, err := ckpt.NewManager(ckpt.Options{Dir: dir, Kind: scenario.SnapshotKind, Keep: 2})
	if res.op(err) != nil {
		return out, err
	}

	var snapBytes int
	for i := 0; i < s.repeats; i++ {
		var allocBefore uint64
		if tr != nil {
			allocBefore = totalAlloc()
		}
		t0 := time.Now()
		sp := tr.begin("snap.encode", -1)
		var buf bytes.Buffer
		err := sc.SnapshotTo(&buf)
		tr.end(sp)
		if tr != nil {
			res.set("snap.alloc_mb.save", "MB", float64(totalAlloc()-allocBefore)/(1<<20))
		}
		if res.op(err) != nil {
			return out, err
		}
		sp = tr.begin("ckpt.write", -1)
		// Each repeat saves the same state as the next generation, so
		// every save writes and rotates like a periodic checkpoint.
		_, err = mgr.Save(sc.Engine.Round()+i, func(w io.Writer) error {
			_, err := w.Write(buf.Bytes())
			return err
		})
		tr.end(sp)
		out.saves = append(out.saves, seconds(time.Since(t0)))
		if res.op(err) != nil {
			return out, err
		}
		snapBytes = buf.Len()
	}

	// The resume-identity reference: the original's state one round after
	// the checkpoint. The original is then dropped, so restores run with
	// one scenario in memory, as a fresh process would.
	sp := tr.begin("check.resume_reference", -1)
	want, err := oneMoreRound(sc)
	tr.end(sp)
	if res.op(err) != nil {
		return out, err
	}
	sc.Close()
	out.sc, sc = nil, nil

	var restored *scenario.Scenario
	for i := 0; i < s.repeats; i++ {
		if restored != nil {
			restored.Close()
			restored = nil
		}
		runtime.GC()
		t0 := time.Now()
		sp := tr.begin("ckpt.open", -1)
		_, data, err := mgr.OpenLatestGood()
		tr.end(sp)
		if res.op(err) != nil {
			return out, err
		}
		var allocBefore uint64
		if tr != nil {
			allocBefore = totalAlloc()
		}
		sp = tr.begin("snap.decode", -1)
		restored, err = restoreScenario(s.config(cfg.seed, s.workers), data)
		tr.end(sp)
		out.restores = append(out.restores, seconds(time.Since(t0)))
		if tr != nil {
			res.set("snap.alloc_mb.restore", "MB", float64(totalAlloc()-allocBefore)/(1<<20))
			out.recoverySnap = data
		}
		if res.op(err) != nil {
			return out, err
		}
	}
	if tr != nil {
		res.set("snap.bytes", "bytes", float64(snapBytes))
	}

	sp = tr.begin("check.resume_identity", -1)
	err = resumeIdentical(want, restored)
	restored.Close()
	tr.end(sp)
	if res.op(err) != nil {
		return out, err
	}
	rss, err := peakRSSMB("self")
	if res.op(err) != nil {
		return out, err
	}
	res.set("peak_rss_mb", "MB", rss)
	return out, nil
}

// restoreScenario wires a fresh scenario from cfg and restores a
// checkpoint envelope into it.
func restoreScenario(cfg scenario.Config, data []byte) (*scenario.Scenario, error) {
	sc, err := scenario.New(cfg)
	if err != nil {
		return nil, err
	}
	if err := sc.Restore(bytes.NewReader(data)); err != nil {
		sc.Close()
		return nil, err
	}
	return sc, nil
}

// oneMoreRound runs one round and returns the snapshot after it.
func oneMoreRound(sc *scenario.Scenario) ([]byte, error) {
	sc.Run(1)
	var buf bytes.Buffer
	err := sc.SnapshotTo(&buf)
	return buf.Bytes(), err
}

// resumeIdentical runs one more round on the restored scenario and
// requires the snapshot after it to equal want, the original's snapshot
// one round after the checkpoint.
func resumeIdentical(want []byte, restored *scenario.Scenario) error {
	got, err := oneMoreRound(restored)
	if err != nil {
		return err
	}
	if !bytes.Equal(want, got) {
		return fmt.Errorf("resume identity: restored scenario diverged one round after restore (%d vs %d snapshot bytes)", len(want), len(got))
	}
	return nil
}

// printSeries prints the per-round metric record and its fingerprint, so
// a trajectory change between commits shows in the run's output.
func printSeries(name string, r *scenario.Result) {
	for i := range r.Homogeneity {
		fmt.Printf("# round %s %d live=%d h=%.6f prox=%.6f dp=%.4f cost=%.3f\n",
			name, i, r.LiveNodes[i], r.Homogeneity[i], r.Proximity[i], r.DataPoints[i], r.MsgCost[i])
	}
	fmt.Printf("# fingerprint %s %016x\n", name, experiments.Fingerprint(r))
}

// meterLayers reports message cost, load and Go runtime figures of the
// traced body's own rounds.
func meterLayers(res *result, sc *scenario.Scenario, out scaleOut) {
	var live float64
	for _, n := range sc.Result().LiveNodes {
		live += float64(n)
	}
	// Peer sampling is not charged by sim.Meter (the paper's cost model
	// counts T-Man and Polystyrene traffic), so rps has no units.
	for _, layer := range stackLayers[1:] {
		var units float64
		for r := out.firstRound; r < out.firstRound+out.rounds; r++ {
			units += float64(sc.Engine.Meter().RoundCost(layer, r))
		}
		res.set(layerMetric[layer]+".units_per_node", "units", units/live)
	}
	dp := sc.Result().DataPoints
	var sum float64
	for _, v := range dp {
		sum += v
	}
	res.set("core.points_per_node", "points", sum/float64(len(dp)))
	res.set("go.gc_cpu_frac", "ratio", out.goAfter.gcCPU(out.goBefore))
	res.set("go.alloc_mb_per_round", "MB", float64(out.goAfter.allocBytes-out.goBefore.allocBytes)/(1<<20)/float64(out.rounds))
	setGC(res, out.goAfter.minus(out.goBefore))
}

// setGC reports the collections of a runtime-counter interval d: how
// many ran and the 99th percentile of their stop-the-world pauses.
func setGC(res *result, d runtimeSample) {
	res.set("go.gc_cycles", "count", float64(d.gcCycles))
	res.set("go.gc_pause_p99_ms", "ms", 1000*d.pauseQuantile(0.99))
}

// scaleLayers is the traced run's analysis. Each layer's public Step is
// replayed over the live set in the sequential engine's order, on
// states restored from the traced body's snapshots, and timed from
// here; the observers' metric calls are timed the same way, and one
// sequential round of the same state shows what the parts add up to.
func scaleLayers(cfg runConfig, s stack, tr *tracer, res *result, out scaleOut) error {
	roundMedian := func(name string) float64 {
		var xs []float64
		for _, d := range tr.durations(name) {
			xs = append(xs, ms(d))
		}
		return median(xs)
	}
	res.set("sim.round_ms.calm", "ms", roundMedian("sim.round.calm"))
	res.set("sim.round_ms.recovery", "ms", roundMedian("sim.round.recovery"))
	res.set("snap.encode_ms", "ms", roundMedian("snap.encode"))
	res.set("snap.decode_ms", "ms", roundMedian("snap.decode"))
	res.set("ckpt.write_ms", "ms", roundMedian("ckpt.write"))
	res.set("ckpt.open_ms", "ms", roundMedian("ckpt.open"))
	res.set("scenario.new_ms", "ms", roundMedian("scenario.new"))

	scfg := s.config(cfg.seed, s.workers)
	calm, err := analyzeState(tr, res, scfg, out.calmSnap, "calm")
	if err != nil {
		return err
	}
	if _, err := analyzeState(tr, res, scfg, out.recoverySnap, "recovery"); err != nil {
		return err
	}

	// Engine-mode rounds on one restored calm state.
	roundAt := func(workers int) (float64, error) {
		sc, err := restoreScenario(s.config(cfg.seed, workers), out.calmSnap)
		if res.op(err) != nil {
			return 0, err
		}
		defer sc.Close()
		runtime.GC()
		sp := tr.begin(fmt.Sprintf("sim.round.w%d", workers), -1)
		sc.Run(1)
		return ms(tr.end(sp)), nil
	}
	w0, err := roundAt(0)
	if err != nil {
		return err
	}
	w1, err := roundAt(1)
	if err != nil {
		return err
	}
	w2, err := roundAt(2)
	if err != nil {
		return err
	}
	res.set("sim.batch_speedup", "ratio", w0/w2)
	res.set("sim.plan_overhead", "ratio", w1/w0)
	fmt.Printf("# accounting %s calm: layer passes + observers %.1f ms vs sequential round %.1f ms (%.3f)\n",
		s.label, calm, w0, calm/w0)
	return serveLayers(cfg, tr, res, scfg, [][]byte{out.calmSnap, out.recoverySnap})
}

// analyzeState restores data, replays one sequential round's layer
// passes and then its observer calls, each timed, and returns their sum
// in milliseconds.
func analyzeState(tr *tracer, res *result, cfg scenario.Config, data []byte, phase string) (float64, error) {
	sc, err := restoreScenario(cfg, data)
	if res.op(err) != nil {
		return 0, err
	}
	defer sc.Close()
	sc.Engine.SetExchangeParallelism(0)
	e := sc.Engine
	runtime.GC()

	if phase == "recovery" {
		res.set("metrics.orphan_points", "points", float64(orphanPoints(sc)))
		res.set("space.distance_ns", "ns", distanceNS(sc, e.Round()))
	}

	root := tr.begin("replay."+phase, -1)
	order := e.AppendLiveIDs(nil)
	e.Rand().Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
	var total float64
	for _, name := range stackLayers {
		layer := e.Layer(name)
		sp := tr.begin(layerMetric[name]+".pass", root)
		for _, id := range order {
			if e.Alive(id) {
				layer.Step(e, id)
			}
		}
		d := ms(tr.end(sp))
		total += d
		res.set(layerMetric[name]+".pass_ms."+phase, "ms", d)
	}
	obs := func(name string, f func()) float64 {
		sp := tr.begin(name, root)
		f()
		d := ms(tr.end(sp))
		total += d
		return d
	}
	sys := sc.System()
	h := obs("metrics.homogeneity", func() { sc.Homogeneity() })
	res.set("metrics.homogeneity_ms."+phase, "ms", h)
	prox := obs("metrics.proximity", func() { bmetrics.Proximity(sys, sc.Cfg.NeighborK) })
	dps := obs("metrics.datapoints", func() { bmetrics.DataPointsPerNode(sys) })
	obs("metrics.msgcost", func() { bmetrics.MessageCostPerNode(e, e.Round()) })
	tr.end(root)
	if phase == "calm" {
		res.set("metrics.proximity_ms", "ms", prox)
		res.set("metrics.datapoints_ms", "ms", dps)
		// Reliability is not a per-round observer; it is timed apart.
		sp := tr.begin("metrics.reliability", -1)
		sc.Reliability()
		res.set("metrics.reliability_ms", "ms", ms(tr.end(sp)))
	}

	// The same state's real sequential round, for the accounting line.
	if phase == "recovery" {
		sc2, err := restoreScenario(cfg, data)
		if res.op(err) != nil {
			return 0, err
		}
		defer sc2.Close()
		sc2.Engine.SetExchangeParallelism(0)
		runtime.GC()
		sp := tr.begin("sim.round.w0.recovery", -1)
		sc2.Run(1)
		w0 := ms(tr.end(sp))
		fmt.Printf("# accounting %dx%d recovery: layer passes + observers %.1f ms vs sequential round %.1f ms (%.3f)\n",
			cfg.W, cfg.H, total, w0, total/w0)
	}
	return total, nil
}

// orphanPoints counts original data points with no live holder: the
// input size of the homogeneity metric's full-scan fallback.
func orphanPoints(sc *scenario.Scenario) int {
	n := 0
	for _, pid := range sc.PointIDs {
		hosted := false
		for _, id := range sc.Poly().HoldersOf(pid) {
			if sc.Engine.Alive(id) {
				hosted = true
				break
			}
		}
		if !hosted {
			n++
		}
	}
	return n
}

// distanceNS times Torus.Distance on pairs of live node positions, the
// pairs T-Man ranks.
func distanceNS(sc *scenario.Scenario, salt int) float64 {
	live := sc.Engine.LiveIDs()
	rng := xrand.New(sc.Cfg.Seed ^ uint64(salt))
	const pairs = 1 << 12
	a := make([]space.Point, pairs)
	b := make([]space.Point, pairs)
	for i := range a {
		a[i] = sc.Poly().Position(live[rng.Intn(len(live))])
		b[i] = sc.Poly().Position(live[rng.Intn(len(live))])
	}
	var reps []float64
	var sink float64
	for r := 0; r < 5; r++ {
		t0 := time.Now()
		for k := 0; k < 64; k++ {
			for i := range a {
				sink += sc.Space.Distance(a[i], b[i])
			}
		}
		reps = append(reps, float64(time.Since(t0).Nanoseconds())/(64*pairs))
	}
	if math.IsNaN(sink) {
		return math.NaN()
	}
	return median(reps)
}

// runtimeSample is a reading of the Go runtime's cumulative counters.
type runtimeSample struct {
	gcCPUSec, totalCPUSec float64
	allocBytes            uint64
	gcCycles              uint64
	pauseCounts           []uint64  // GC stop-the-world pauses per bucket
	pauseBuckets          []float64 // bucket boundaries, seconds
}

func sampleRuntime() runtimeSample {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/cycles/total:gc-cycles"},
		{Name: "/sched/pauses/total/gc:seconds"},
	}
	metrics.Read(s)
	h := s[4].Value.Float64Histogram()
	return runtimeSample{s[0].Value.Float64(), s[1].Value.Float64(), s[2].Value.Uint64(), s[3].Value.Uint64(),
		append([]uint64(nil), h.Counts...), h.Buckets}
}

// minus returns a with the counter increments of d taken out.
func (a runtimeSample) minus(d runtimeSample) runtimeSample {
	counts := append([]uint64(nil), a.pauseCounts...)
	for i := range d.pauseCounts {
		counts[i] -= d.pauseCounts[i]
	}
	return runtimeSample{a.gcCPUSec - d.gcCPUSec, a.totalCPUSec - d.totalCPUSec, a.allocBytes - d.allocBytes,
		a.gcCycles - d.gcCycles, counts, a.pauseBuckets}
}

// gcCPU returns the share of CPU time spent in GC since before. The
// runtime brings its CPU classes up to date at the end of each GC cycle,
// so an interval no cycle ended in reads as 0.
func (a runtimeSample) gcCPU(before runtimeSample) float64 {
	total := a.totalCPUSec - before.totalCPUSec
	if total <= 0 {
		return 0
	}
	return (a.gcCPUSec - before.gcCPUSec) / total
}

// pauseQuantile returns the upper edge of the pause bucket holding the
// q-quantile of an interval's pauses, in seconds (0 with no pauses).
func (a runtimeSample) pauseQuantile(q float64) float64 {
	var n uint64
	for _, c := range a.pauseCounts {
		n += c
	}
	if n == 0 {
		return 0
	}
	rank := uint64(math.Ceil(q * float64(n)))
	var seen uint64
	for i, c := range a.pauseCounts {
		seen += c
		if seen >= rank {
			if hi := a.pauseBuckets[i+1]; !math.IsInf(hi, 1) {
				return hi
			}
			return a.pauseBuckets[i]
		}
	}
	return a.pauseBuckets[len(a.pauseBuckets)-1]
}

func totalAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}
