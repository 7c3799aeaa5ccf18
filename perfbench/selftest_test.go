package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strings"
	"testing"

	pgfmu "repro"
)

// These tests run every workload at tiny size and show that each output
// check passes on the engine's real output and rejects a perturbed copy.
// Run them from this directory with: go test .

func tinyConfig(t *testing.T, trace bool) config {
	return config{seed: 7, seconds: 0.2, trace: trace, data: t.TempDir(), scale: tinyScale, log: io.Discard}
}

// benchmarkJSON reads the metric names the benchmark declares.
func benchmarkJSON(t *testing.T) (e2e, layer map[string]string) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	e2e, layer = map[string]string{}, map[string]string{}
	for _, m := range spec.EndToEnd {
		e2e[m.Name] = m.Unit
	}
	for _, m := range spec.PerLayer {
		layer[m.Name] = m.Unit
	}
	return e2e, layer
}

func TestWorkloadsTiny(t *testing.T) {
	e2e, layer := benchmarkJSON(t)
	for _, name := range []string{"calibrate", "analytics", "serve"} {
		for _, trace := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/trace=%v", name, trace), func(t *testing.T) {
				cfg := tinyConfig(t, trace)
				rep, err := workloads[name](cfg)
				if err != nil {
					t.Fatal(err)
				}
				var out bytes.Buffer
				res := finish(name, cfg, rep, &out)
				if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
					t.Fatalf("result %+v, checks %v", res, rep.checks)
				}
				if len(rep.setups) != cfg.scale.setups[name] {
					t.Errorf("%d set-ups, want %d", len(rep.setups), cfg.scale.setups[name])
				}
				lines := strings.Split(strings.TrimSpace(out.String()), "\n")
				var parsed resultOut
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &parsed); err != nil {
					t.Fatal(err)
				}
				want := e2e
				if trace {
					want = layer
				}
				if len(parsed.Metrics) != len(want) {
					t.Fatalf("%d metrics, BENCHMARK.json lists %d", len(parsed.Metrics), len(want))
				}
				for k, m := range parsed.Metrics {
					if want[k] != m.Unit {
						t.Errorf("metric %s unit %q, BENCHMARK.json says %q", k, m.Unit, want[k])
					}
				}
			})
		}
	}
}

func TestCalibrateChecksRejectPerturbed(t *testing.T) {
	cfg := tinyConfig(t, false)
	fx, err := setupCalibrate(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer fx.db.Close()
	r, failed := fx.round(nil, newLatencies("fleet", "single"), nil)
	if failed != 0 {
		t.Fatal("round failed")
	}
	if errs := checkCalibration(fx, []calibRound{r, r}); len(errs) != 0 {
		t.Fatal(errs)
	}
	perturb := func(f func(*calibRound)) calibRound {
		cp := func(res pgfmu.CalibrationResult) pgfmu.CalibrationResult {
			c := res
			c.Params = map[string]float64{}
			for k, v := range res.Params {
				c.Params[k] = v
			}
			return c
		}
		var p calibRound
		for _, fl := range r.fleets {
			var out []pgfmu.CalibrationResult
			for _, res := range fl {
				out = append(out, cp(res))
			}
			p.fleets = append(p.fleets, out)
		}
		for _, res := range r.rooms {
			p.rooms = append(p.rooms, cp(res))
		}
		f(&p)
		return p
	}
	for name, p := range map[string]calibRound{
		"fleet RMSE":       perturb(func(p *calibRound) { p.fleets[0][1].RMSE *= 1.01 }),
		"fleet parameter":  perturb(func(p *calibRound) { p.fleets[0][1].Params["R"] *= 1.05 }),
		"classroom RMSE":   perturb(func(p *calibRound) { p.rooms[0].RMSE *= 1.01 }),
		"classroom tmass":  perturb(func(p *calibRound) { p.rooms[0].Params["tmass"] *= 1.05 }),
		"δ = 1 house fit":  perturb(func(p *calibRound) { p.fleets[0][0].Params["Cp"] *= 1.3 }),
		"missing instance": perturb(func(p *calibRound) { p.fleets[0] = p.fleets[0][:1] }),
	} {
		if errs := checkCalibration(fx, []calibRound{p}); len(errs) == 0 {
			t.Errorf("%s: perturbed output passed", name)
		}
	}
	changed := perturb(func(p *calibRound) { p.fleets[0][0].Params["Cp"] += 1e-12 })
	if errs := checkCalibration(fx, []calibRound{r, changed}); len(errs) == 0 {
		t.Error("a round differing from the first passed")
	}
	partial := calibRound{fleets: changed.fleets[:1], rooms: changed.rooms[:1]}
	if errs := checkCalibration(fx, []calibRound{r, partial}); len(errs) == 0 {
		t.Error("a repeat differing from the first round passed")
	}
	if err := checkTruth(map[string]float64{"Cp": 1.49, "R": 1.2}, map[string]float64{"Cp": 1.49, "R": 1.481}); err == nil {
		t.Error("R 19% off the truth passed")
	}
}

func TestAnalyticsChecksRejectPerturbed(t *testing.T) {
	cfg := tinyConfig(t, false)
	fx, err := setupAnalytics(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer fx.db.Close()
	mix := newMixer(cfg.seed, cfg.scale.deck)
	ops := map[string]aop{}
	for _, kind := range []string{"predict", "fleet", "whatif", "history"} {
		op := fx.next(mix, kind)
		if err := fx.run(nil, &op); err != nil {
			t.Fatal(err)
		}
		ops[kind] = op
	}
	list := func(m map[string]aop) []aop {
		var out []aop
		for _, op := range m {
			out = append(out, op)
		}
		return out
	}
	if errs := checkAnalytics(fx, list(ops)); len(errs) != 0 {
		t.Fatal(errs)
	}
	copyAggs := func(a map[string]agg) map[string]agg {
		out := map[string]agg{}
		for k, v := range a {
			out[k] = v
		}
		return out
	}
	cases := map[string]func(op *aop){
		"predict x mean": func(op *aop) { a := op.aggs["x"]; a.mean += 0.5; op.aggs["x"] = a },
		"predict y max":  func(op *aop) { a := op.aggs["y"]; a.max *= 1 + 1e-6; op.aggs["y"] = a },
		"predict rows":   func(op *aop) { a := op.aggs["x"]; a.n--; op.aggs["x"] = a },
		"whatif x min":   func(op *aop) { a := op.aggs["x"]; a.min -= 0.5; op.aggs["x"] = a },
		"fleet x max":    func(op *aop) { a := op.aggs[fx.houses[0].id]; a.max += 0.5; op.aggs[fx.houses[0].id] = a },
		"fleet instance": func(op *aop) { delete(op.aggs, fx.houses[0].id) },
		"history window": func(op *aop) { op.rows[0][3] *= 1 + 1e-6 },
		"history group":  func(op *aop) { op.rows = op.rows[1:] },
	}
	for name, f := range cases {
		kind := strings.Fields(name)[0]
		op := ops[kind]
		op.aggs = copyAggs(op.aggs)
		op.rows = nil
		for _, r := range ops[kind].rows {
			op.rows = append(op.rows, append([]float64(nil), r...))
		}
		f(&op)
		if errs := checkAnalytics(fx, []aop{op}); len(errs) == 0 {
			t.Errorf("%s: perturbed output passed", name)
		}
	}
}

func TestServeChecksRejectPerturbed(t *testing.T) {
	cfg := tinyConfig(t, false)
	fx, err := setupServe(cfg, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fx.db.Exec(serveInsSQL, 0, 1, 0.5); err != nil {
		t.Fatal(err)
	}
	if err := fx.db.Close(); err != nil {
		t.Fatal(err)
	}
	rows := len(fx.history.Times)
	if err := checkReopen(fx.dir, map[int][2]int{0: {1, 1}, 1: {0, 0}}, rows); err != nil {
		t.Fatal(err)
	}
	for name, committed := range map[string]map[int][2]int{
		"lost row":      {0: {2, 3}},
		"wrong seq":     {0: {1, 2}},
		"unknown owner": {1: {1, 1}},
	} {
		if checkReopen(fx.dir, committed, rows) == nil {
			t.Errorf("reopen %s: passed", name)
		}
	}
	if checkReopen(fx.dir, map[int][2]int{0: {1, 1}}, rows+1) == nil {
		t.Error("reopen with a history row missing passed")
	}

	if readMatches([][]any{{3.0, 6.0}}, 3, 6) != nil {
		t.Fatal("read check rejects a matching read")
	}
	if readMatches([][]any{{2.0, 3.0}}, 3, 6) == nil || readMatches([][]any{{3.0, 7.0}}, 3, 6) == nil {
		t.Error("stale read passed")
	}

	var sim [][]any
	for h := 0; h <= serveSimHours; h++ {
		sim = append(sim, []any{float64(h), "x", 21.0}, []any{float64(h), "y", 3.0})
	}
	if simMatches(sim, 21.0) != nil {
		t.Fatal("simulation check rejects a matching result")
	}
	if simMatches(sim[1:], 21.0) == nil || simMatches(sim, 22.0) == nil {
		t.Error("wrong simulation passed")
	}

	n := cfg.scale.rangeRows
	var rng [][]any
	for i := 5; i < 5+n; i++ {
		rng = append(rng, []any{fx.history.Times[i], fx.history.Data["x"][i], fx.history.Data["u"][i]})
	}
	if rangeMatches(rng, fx.history, 5, n) != nil {
		t.Fatal("range check rejects a matching read")
	}
	if rangeMatches(rng[1:], fx.history, 5, n) == nil {
		t.Error("short range read passed")
	}
	rng[3] = []any{rng[3][0], rng[3][1].(float64) + 0.01, rng[3][2]}
	if rangeMatches(rng, fx.history, 5, n) == nil {
		t.Error("wrong range value passed")
	}
}
