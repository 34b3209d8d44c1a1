package main

import (
	"fmt"
	"runtime"
	"slices"
	"time"

	"tokenarbiter/internal/core"
	"tokenarbiter/internal/dme"
	"tokenarbiter/internal/reqtrace"
	"tokenarbiter/internal/sim"
	"tokenarbiter/internal/workload"
)

// simConfig is the paper's evaluation set-up at arrival rate lambda per
// node; the seed drives both the kernel and every node's arrival stream.
func simConfig(seed uint64, lambda float64, requests uint64) dme.Config {
	return dme.Config{
		N:              simNodes,
		Seed:           seed,
		Delay:          sim.ConstantDelay{D: simDelay},
		Texec:          simTexec,
		TotalRequests:  requests,
		MaxVirtualTime: 1e12,
		Gen: func(node int) dme.GeneratorFunc {
			return workload.Stream(workload.Poisson{Lambda: lambda}, seed, node)
		},
	}
}

func simAlgo(observer func(core.Event)) dme.Algorithm {
	return core.New(core.Options{RetransmitTimeout: simRetransmit, Observer: observer})
}

// simRep is one timed replication.
type simRep struct {
	met     *dme.Metrics
	wall    time.Duration
	cpu     time.Duration
	mallocs uint64
	gcCPU   float64
	steal   uint64 // hypervisor steal ticks while it ran
}

func timeSim(algo dme.Algorithm, cfg dme.Config) (simRep, error) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	mallocs, cpu := ms.Mallocs, processCPU()
	gc, _, _ := runtimeSample()
	steal := stealTicks()
	start := time.Now()
	met, err := dme.Run(algo, cfg)
	wall := time.Since(start)
	if err != nil {
		return simRep{}, err
	}
	runtime.ReadMemStats(&ms)
	gcAfter, _, _ := runtimeSample()
	return simRep{
		met: met, wall: wall, cpu: processCPU() - cpu, mallocs: ms.Mallocs - mallocs,
		gcCPU: gcAfter - gc, steal: stealTicks() - steal,
	}, nil
}

func (r simRep) cs() float64 { return float64(r.met.CSCompleted) }

// simWaits replays the workload's first requests with the simulation's
// trace hook attached and returns every request's wait, arrival to CS
// entry, in simulated nanoseconds, sorted, plus the number of trace
// events per CS. It is exact under one seed.
func simWaits(seed uint64, requests uint64) (waits []int64, eventsPerCS float64, err error) {
	pending := make([][]float64, simNodes)
	var events uint64
	cfg := simConfig(seed, simLambda, requests)
	cfg.Trace = func(ev dme.TraceEvent) {
		events++
		switch ev.Kind {
		case dme.TraceRequest:
			pending[ev.From] = append(pending[ev.From], ev.Time)
		case dme.TraceEnterCS:
			q := pending[ev.From]
			waits = append(waits, int64((ev.Time-q[0])*1e9))
			pending[ev.From] = q[1:]
		}
	}
	met, err := dme.Run(simAlgo(nil), cfg)
	if err != nil {
		return nil, 0, err
	}
	slices.Sort(waits)
	return waits, ratio(float64(events), float64(met.CSCompleted)), nil
}

// simTraced runs the workload with the program's whole request-tracing
// pipeline attached: a SimTracer on the trace hook and a CoreObserver on
// the protocol's observer hook, recording into one collector.
func simTraced(seed uint64, requests uint64) (simRep, error) {
	collector := reqtrace.NewCollector(reqtrace.DefaultDepth)
	tracer := reqtrace.NewSimTracer(collector, "", simNodes)
	// The simulation is single-goroutine, so the last trace-event time
	// doubles as the observer's clock.
	var clock float64
	cfg := simConfig(seed, simLambda, requests)
	cfg.Trace = func(ev dme.TraceEvent) {
		clock = ev.Time
		tracer.Trace(ev)
	}
	rep, err := timeSim(simAlgo(reqtrace.CoreObserver(collector, "", func() float64 { return clock })), cfg)
	if err != nil {
		return simRep{}, err
	}
	if completed, _, _ := collector.Totals(); completed == 0 {
		return simRep{}, fmt.Errorf("tracing pipeline recorded no completed traces")
	}
	return rep, nil
}

// runSim measures sim_paper. Replications are fixed-size and repeated
// until the window is used up (at least three when their medians are the
// result); wall-clock metrics are medians over replications, counts are
// those of any one.
func runSim(p plan) (*workloadResult, error) {
	res := &workloadResult{}
	var setups []int64
	for i := 0; i < p.setups; i++ {
		// Set-up is building the configuration and one short run that
		// grows the heap and fills the kernel's pools.
		t0 := time.Now()
		if _, err := dme.Run(simAlgo(nil), simConfig(p.seed, simLambda, simWarmReqs)); err != nil {
			return nil, err
		}
		setups = append(setups, int64(time.Since(t0)))
	}
	minReps := 3
	if p.traced {
		minReps = 1 // the plain pass is only the reference here
	}
	var reps []simRep
	for start := time.Now(); len(reps) < minReps || time.Since(start) < p.window; {
		rep, err := timeSim(simAlgo(nil), simConfig(p.seed, simLambda, p.simRequests))
		if err != nil {
			return nil, err
		}
		reps = append(reps, rep)
	}
	lat, eventsPerCS, err := simWaits(p.seed, p.simRequests/simSideShare)
	if err != nil {
		return nil, err
	}
	// Wall-clock metrics are medians over the replications. Five or six
	// points are too few to fit against steal, and most of what moves a
	// single-threaded replication on a shared host (±15% with no steal at
	// all) is not steal.
	over := func(f func(simRep) float64) float64 {
		v := make([]float64, len(reps))
		for i, r := range reps {
			v[i] = f(r)
		}
		return median(v)
	}
	first := reps[0].met
	for _, r := range reps {
		res.Attempted += int(p.simRequests)
		res.Failed += int(p.simRequests - r.met.CSCompleted)
		if r.met.TotalMessages != first.TotalMessages || r.met.CSCompleted != first.CSCompleted {
			res.Invalid = "simulation counts differ between replications of one seed"
		}
	}

	e := newMetricSet(endToEndDefs)
	cs := int(first.CSCompleted)
	e.set("setup_s", setupTime(setups), len(setups))
	e.set("cs_per_s", over(func(r simRep) float64 { return r.cs() / r.wall.Seconds() }), len(reps))
	// Simulated time reads in seconds, as the live runtime reads the same
	// protocol options.
	e.set("acquire_p50_us", percentile(lat, .5)/1e3, len(lat))
	e.set("cpu_us_per_cs", over(func(r simRep) float64 { return float64(r.cpu.Nanoseconds()) / 1e3 / r.cs() }), len(reps))
	e.set("allocs_per_cs", over(func(r simRep) float64 { return float64(r.mallocs) / r.cs() }), len(reps))
	e.set("msgs_per_cs", first.MessagesPerCS(), cs)
	res.EndToEnd = e.values

	if !p.traced {
		return res, nil
	}
	l := newMetricSet(perLayerDefs)
	if err := isoSimKernel(l, p.isoEach); err != nil {
		return nil, err
	}
	l.set("acquire_p90_us", percentile(lat, .9)/1e3, len(lat))
	l.set("acquire_p99_us", percentile(lat, .99)/1e3, len(lat))
	l.set("blocked_p90_ms", waitWeighted(lat, .9)/1e6, len(lat))
	l.set("sim.events_per_cs", eventsPerCS, len(lat))
	l.set("sim.mean_wait", first.Waiting.Mean(), cs)
	for _, side := range []struct {
		name   string
		lambda float64
	}{{"sim.msgs_per_cs_light", simLightLam}, {"sim.msgs_per_cs_heavy", simHeavyLam}} {
		met, err := dme.Run(simAlgo(nil), simConfig(p.seed, side.lambda, p.simRequests/simSideShare))
		if err != nil {
			return nil, err
		}
		l.set(side.name, met.MessagesPerCS(), int(met.CSCompleted))
	}
	var ratios, tracedAllocs []float64
	for start := time.Now(); len(ratios) < 1 || time.Since(start) < p.spanWindow; {
		plain, err := timeSim(simAlgo(nil), simConfig(p.seed, simLambda, p.simRequests/simPairShare))
		if err != nil {
			return nil, err
		}
		traced, err := simTraced(p.seed, p.simRequests/simPairShare)
		if err != nil {
			return nil, err
		}
		ratios = append(ratios, traced.wall.Seconds()/plain.wall.Seconds())
		tracedAllocs = append(tracedAllocs, float64(traced.mallocs)/traced.cs())
	}
	l.set("reqtrace.sim_overhead_ratio", median(ratios), len(ratios))
	l.set("reqtrace.sim_allocs_per_cs", median(tracedAllocs), len(ratios))
	l.set("runtime.gc_cpu_share", over(func(r simRep) float64 { return ratio(r.gcCPU, r.cpu.Seconds()) }), len(reps))
	var stolen, wall float64
	for _, r := range reps {
		stolen += float64(r.steal) / clockTicksPerSecond
		wall += r.wall.Seconds()
	}
	l.set("host.steal_share", ratio(stolen, wall*float64(runtime.NumCPU())), 0)
	_, heap, _ := runtimeSample()
	l.set("runtime.heap_mb", float64(heap)/(1<<20), 0)
	res.PerLayer = l.complete()
	return res, nil
}
