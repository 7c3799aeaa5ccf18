package main

import (
	"fmt"
	"math"
	"runtime"
	"time"

	pgfmu "repro"
	"repro/internal/dataset"
	"repro/internal/estimate"
	"repro/internal/fmu"
	"repro/internal/solver"
	"repro/internal/timeseries"
)

// prober times the benchmark's own calls into single modules after a traced
// run, on the workload's data, and stores the per-layer metrics. A probe
// that fails records the error as a failed check, since it calls the same
// public functions the workload relies on.
type prober struct {
	db    *pgfmu.DB
	n     int
	tr    *tracer
	layer map[string]float64
	errs  []error
}

func (p *prober) fail(what string, err error) {
	p.errs = append(p.errs, fmt.Errorf("probe %s: %w", what, err))
}

// timeN runs fn n times inside spans and returns each call's duration.
func (p *prober) timeN(layer, name string, fn func() error) ([]float64, error) {
	out := make([]float64, 0, p.n)
	for i := 0; i < p.n; i++ {
		t := time.Now()
		if err := p.tr.call(layer, name, fn); err != nil {
			return nil, err
		}
		out = append(out, ms(time.Since(t)))
	}
	return out, nil
}

// simTarget is one model instance with its inputs over a window.
type simTarget struct {
	source   string
	params   map[string]float64
	inputs   map[string]*timeseries.Series
	measured map[string]*timeseries.Series
	t0, t1   float64
}

func series(f *timeseries.Frame, col string) *timeseries.Series {
	s, err := f.Series(col)
	if err != nil {
		panic(err) // the frames are the benchmark's own; a missing column is a bug
	}
	return s
}

func hp1Target(f *timeseries.Frame, params map[string]float64) simTarget {
	return simTarget{source: dataset.HP1Source, params: params,
		inputs:   map[string]*timeseries.Series{"u": series(f, "u")},
		measured: map[string]*timeseries.Series{"x": series(f, "x")},
		t0:       f.Times[0], t1: f.Times[len(f.Times)-1]}
}

func classroomTarget(f *timeseries.Frame, params map[string]float64) simTarget {
	in := map[string]*timeseries.Series{}
	for _, c := range []string{"solrad", "tout", "occ", "dpos", "vpos"} {
		in[c] = series(f, c)
	}
	return simTarget{source: dataset.ClassroomSource, params: params, inputs: in,
		measured: map[string]*timeseries.Series{"t": series(f, "t")},
		t0:       f.Times[0], t1: f.Times[len(f.Times)-1]}
}

func (t simTarget) instance() (*fmu.Instance, error) {
	unit, err := fmu.CompileModelica(t.source)
	if err != nil {
		return nil, err
	}
	inst := unit.Instantiate("probe")
	if err := inst.SetParameters(t.params); err != nil {
		return nil, err
	}
	return inst, nil
}

// compile times fmu.CompileModelica of the workload's model sources.
func (p *prober) compile(sources ...string) {
	d, err := p.timeN("fmu", "CompileModelica", func() error {
		for _, src := range sources {
			if _, err := fmu.CompileModelica(src); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		p.fail("compile", err)
		return
	}
	p.layer["fmu.compile_ms"] = median(d)
}

// simulate times Instance.Simulate over each target's window with solver
// steps as output (OutputStep 0), counting steps and heap allocations.
func (p *prober) simulate(targets []simTarget) {
	var total time.Duration
	steps, sims := 0, 0
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for _, tg := range targets {
		inst, err := tg.instance()
		if err != nil {
			p.fail("simulate", err)
			return
		}
		for i := 0; i < p.n; i++ {
			t := time.Now()
			var res *fmu.SimResult
			err := p.tr.call("fmu", "Simulate", func() (err error) {
				res, err = inst.Simulate(tg.inputs, tg.t0, tg.t1, &fmu.SimOptions{})
				return err
			})
			total += time.Since(t)
			if err != nil {
				p.fail("simulate", err)
				return
			}
			steps += len(res.Frame.Times) - 1
			sims++
		}
	}
	runtime.ReadMemStats(&m1)
	p.layer["fmu.simulate_ms"] = ms(total) / float64(sims)
	p.layer["solver.steps"] = float64(steps) / float64(sims)
	p.layer["fmu.ns_per_step"] = float64(total.Nanoseconds()) / float64(steps)
	p.layer["fmu.allocs_per_simulate"] = float64(m1.Mallocs-m0.Mallocs) / float64(sims)
}

// native times solver.DormandPrince on the HP1 right-hand side coded in Go,
// with the engine's default simulation tolerances: the floor under
// fmu.ns_per_step, which pays for evaluating the model's expressions.
func (p *prober) native(f *timeseries.Frame) {
	m := hp1Ref{Cp: dataset.TruthHP1["Cp"], R: dataset.TruthHP1["R"]}
	u := signal{f.Times, f.Data["u"]}
	rhs := func(t float64, x, dxdt []float64) error {
		dxdt[0] = -(1/(m.R*m.Cp))*x[0] + (hp1P*hp1Eta/m.Cp)*u.at(t) + hp1ThetaA/(m.R*m.Cp)
		return nil
	}
	dp := solver.NewDormandPrince(1e-6, 1e-8)
	var total time.Duration
	steps := 0
	for i := 0; i < p.n; i++ {
		t := time.Now()
		var res *solver.Result
		err := p.tr.call("solver", "DormandPrince.Integrate", func() (err error) {
			res, err = dp.Integrate(rhs, f.Times[0], f.Times[len(f.Times)-1], []float64{hp1X0})
			return err
		})
		total += time.Since(t)
		if err != nil {
			p.fail("native", err)
			return
		}
		steps += len(res.Times) - 1
	}
	p.layer["solver.native_ns_per_step"] = float64(total.Nanoseconds()) / float64(steps)
}

// costEval times estimate.Problem.Cost at the fitted parameters of each
// target.
func (p *prober) costEval(targets []simTarget) {
	var total time.Duration
	calls := 0
	for _, tg := range targets {
		inst, err := tg.instance()
		if err != nil {
			p.fail("cost", err)
			return
		}
		prob := &estimate.Problem{Instance: inst, Inputs: tg.inputs, Measured: tg.measured}
		var vals []float64
		for name, v := range tg.params {
			w := 1 + math.Abs(v) // any range around v will do: Cost does not search
			prob.Params = append(prob.Params, estimate.ParamSpec{Name: name, Lo: v - w, Hi: v + w})
			vals = append(vals, v)
		}
		if err := prob.Validate(); err != nil {
			p.fail("cost", err)
			return
		}
		for i := 0; i < p.n; i++ {
			t := time.Now()
			err := p.tr.call("estimate", "Problem.Cost", func() error { _, err := prob.Cost(vals); return err })
			total += time.Since(t)
			if err != nil {
				p.fail("cost", err)
				return
			}
			calls++
		}
	}
	p.layer["estimate.cost_eval_ms"] = ms(total) / float64(calls)
}

// inputFetch times the input SELECT of a simulation, alone.
func (p *prober) inputFetch(sql string) {
	d, err := p.timeN("sqldb", "Query", func() error { _, err := p.db.Query(sql); return err })
	if err != nil {
		p.fail("input fetch", err)
		return
	}
	p.layer["sqldb.input_fetch_ms"] = median(d)
}

// planExec times Prepare plus planning with the plan cache off, then the
// execution of the prepared statement.
func (p *prober) planExec(sql string, args ...any) {
	p.db.SQL().EnablePlanCache(false)
	var stmt *pgfmu.Stmt
	plan, err := p.timeN("sqldb", "Prepare", func() (err error) {
		if stmt, err = p.db.Prepare(sql); err != nil {
			return err
		}
		return stmt.Plan()
	})
	p.db.SQL().EnablePlanCache(true)
	if err != nil {
		p.fail("plan", err)
		return
	}
	exec, err := p.timeN("sqldb", "Stmt.Query", func() error { _, err := stmt.Query(args...); return err })
	if err != nil {
		p.fail("exec", err)
		return
	}
	p.layer["sqldb.plan_us"] = median(plan) * 1000
	p.layer["sqldb.exec_ms"] = median(exec)
}

// catalogueUpdate times the modelinstancevalues UPDATE that every
// fmu_simulate issues for each state, run alone with the current value.
func (p *prober) catalogueUpdate(id, state string) {
	cur, _, _, err := p.db.Get(id, state)
	if err != nil {
		p.fail("catalogue update", err)
		return
	}
	v, err := cur.AsFloat()
	if err != nil {
		p.fail("catalogue update", err)
		return
	}
	d, err := p.timeN("sqldb", "Exec", func() error {
		_, err := p.db.Exec(`UPDATE modelinstancevalues SET value = $1 WHERE instanceid = $2 AND varname = $3`, v, id, state)
		return err
	})
	if err != nil {
		p.fail("catalogue update", err)
		return
	}
	p.layer["sqldb.catalogue_update_ms"] = median(d)
}

// core times the typed simulation API on a copy of an instance: warm calls
// that the simulation cache answers, and calls after fmu_set_initial to a
// value not used before, which it cannot.
func (p *prober) core(from, inputSQL string) {
	id := "probe_" + from
	if _, err := p.db.CopyInstance(from, id); err != nil {
		p.fail("core", err)
		return
	}
	req := pgfmu.SimulateOptions{InstanceID: id, InputSQL: inputSQL}
	if _, err := p.db.Simulate(req); err != nil {
		p.fail("core", err)
		return
	}
	hit, err := p.timeN("core", "Simulate", func() error { _, err := p.db.Simulate(req); return err })
	if err != nil {
		p.fail("core hit", err)
		return
	}
	var set, miss []float64
	for i := 0; i < p.n; i++ {
		cp := 1.0 + float64(i+1)/float64(4*p.n)
		t := time.Now()
		if err := p.tr.call("core", "SetInitial", func() error { return p.db.SetInitial(id, "Cp", cp) }); err != nil {
			p.fail("core set", err)
			return
		}
		set = append(set, ms(time.Since(t)))
		t = time.Now()
		if err := p.tr.call("core", "Simulate", func() error { _, err := p.db.Simulate(req); return err }); err != nil {
			p.fail("core miss", err)
			return
		}
		miss = append(miss, ms(time.Since(t)))
	}
	p.layer["core.simulate_hit_ms"] = median(hit)
	p.layer["core.simulate_miss_ms"] = median(miss)
	p.layer["core.set_initial_ms"] = median(set)
}
