package main

import (
	"fmt"
	"runtime"
	"time"

	pgfmu "repro"
	"repro/internal/dataset"
	"repro/internal/timeseries"
)

// Set-up and the measured window. setup_s is taken from batches of set-ups:
// the first batch builds the fixture the workload measures, the others
// build a fixture and drop it. Those others run inside the measured window,
// spread evenly over it, so that setup_s samples the host over the same
// stretch of time as the operations do: on a shared host the speed of a
// CPU drifts over tens of seconds, and set-ups bunched at the start saw
// only one moment of it. The window pauses while they run.

// setupPhases times the parts of one set-up that per-layer metrics report.
type setupPhases struct {
	generate time.Duration
	loadRows int
	load     time.Duration
	reopen   time.Duration
}

// gen times one call into the dataset generators.
func (ph *setupPhases) gen(tr *tracer, name string, gen func() (*timeseries.Frame, error)) (*timeseries.Frame, error) {
	var f *timeseries.Frame
	t := time.Now()
	err := tr.call("dataset", name, func() (err error) { f, err = gen(); return err })
	ph.generate += time.Since(t)
	return f, err
}

// loadFrame times dataset.LoadFrame of one frame.
func (ph *setupPhases) loadFrame(tr *tracer, db *pgfmu.DB, table string, f *timeseries.Frame) error {
	t := time.Now()
	err := tr.call("dataset", "LoadFrame", func() error { return dataset.LoadFrame(db.SQL(), table, f) })
	ph.load += time.Since(t)
	ph.loadRows += len(f.Times)
	return err
}

// fixture is what a workload's set-up builds.
type fixture interface {
	times() setupPhases
	drop() // releases the fixture and whatever it holds on disk
}

// setUpBatch runs n set-ups, each after a garbage collection, and records
// their times and phases in rep. It keeps the last fixture and drops the
// others.
func setUpBatch[F fixture](rep *report, n int, build func() (F, error)) (F, error) {
	var fx F
	for i := 0; i < n; i++ {
		runtime.GC()
		t := time.Now()
		next, err := build()
		if err != nil {
			if i > 0 {
				fx.drop()
			}
			return fx, fmt.Errorf("set-up: %w", err)
		}
		rep.setups = append(rep.setups, time.Since(t))
		rep.phases = append(rep.phases, next.times())
		if i > 0 {
			fx.drop()
		}
		fx = next
	}
	return fx, nil
}

// window is a run's measured window. It holds the set-up batches still to
// run inside it: batch k of n starts at the first chance after k/(n+1) of
// the window.
type window struct {
	length  time.Duration
	start   time.Time
	paused  time.Duration
	batches int // set-up batches not yet run
	slots   int
	extra   func() error // runs one batch and drops its fixture
	err     error
}

func newWindow(seconds float64, batches int, extra func() error) *window {
	return &window{length: time.Duration(seconds * float64(time.Second)),
		batches: batches, slots: batches + 1, extra: extra}
}

// begin opens the window.
func (w *window) begin() { w.start = time.Now() }

// elapsed is the time spent in the window, pauses excluded.
func (w *window) elapsed() time.Duration { return time.Since(w.start) - w.paused }

func (w *window) open() bool { return w.err == nil && w.elapsed() < w.length }

// due reports whether a set-up batch should run now.
func (w *window) due() bool {
	k := w.slots - w.batches
	return w.batches > 0 && w.elapsed() >= w.length*time.Duration(k)/time.Duration(w.slots)
}

// between runs a set-up batch, outside the window, if one is due. Callers
// call it between operations, when no operation is in flight. A nil window
// runs nothing.
func (w *window) between() {
	if w != nil && w.err == nil && w.due() {
		t := time.Now()
		w.err = w.extra()
		w.batches--
		runtime.GC() // the operations resume on a heap without the batch's garbage
		w.paused += time.Since(t)
	}
}

// close ends the window and returns its length. Batches the window ended
// before run now, so that every run makes the same number of set-ups.
func (w *window) close() (time.Duration, error) {
	d := w.elapsed()
	for w.err == nil && w.batches > 0 {
		w.err = w.extra()
		w.batches--
	}
	return d, w.err
}

// setUp builds a workload's fixture: one batch of set-ups before the
// window, and a window, not yet begun, that runs the remaining batches
// inside it. The batches inside the window are not traced, so that the
// spans of the window are the operations'.
func setUp[F fixture](cfg config, rep *report, workload string, build func(tr *tracer) (F, error)) (F, *window, error) {
	n := cfg.scale.setupBatch[workload]
	var tr *tracer
	if len(rep.tracers) > 0 {
		tr = rep.tracers[0]
	}
	fx, err := setUpBatch(rep, n, func() (F, error) { return build(tr) })
	if err != nil {
		return fx, nil, err
	}
	extra := func() error {
		f, err := setUpBatch(rep, n, func() (F, error) { return build(nil) })
		if err == nil {
			f.drop()
		}
		return err
	}
	return fx, newWindow(cfg.seconds, cfg.scale.setups[workload]/n-1, extra), nil
}

// setupLayers fills the per-layer metrics measured inside set-up.
func setupLayers(rep *report) {
	var gen, reopen []float64
	rows, load := 0, time.Duration(0)
	for _, ph := range rep.phases {
		gen = append(gen, ms(ph.generate))
		reopen = append(reopen, ms(ph.reopen))
		rows += ph.loadRows
		load += ph.load
	}
	rep.layer["dataset.generate_ms"] = median(gen)
	rep.layer["sqldb.reopen_ms"] = median(reopen)
	if load > 0 {
		rep.layer["sqldb.load_rows_per_s"] = float64(rows) / load.Seconds()
	}
}
