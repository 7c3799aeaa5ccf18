package main

import (
	"fmt"
	"time"

	pgfmu "repro"
	"repro/internal/dataset"
	"repro/internal/timeseries"
)

// The calibrate workload: one client repeats rounds on an in-memory
// database. A round calibrates several independently generated data sets of
// each kind: per HP1 fleet, fmu_reset of its houses and one multi-instance
// fmu_parest over them (MI optimisation on, the engine default); per
// classroom, fmu_reset and one single-instance fmu_parest. The resets make
// every round do the same work. Several data sets per round average out how
// much the optimiser's path, and so its cost, depends on the data.

var (
	hp1Pars       = []string{"Cp", "R"}
	classroomPars = []string{"shgc", "tmass", "RExt", "occheff"}
)

// calibParamTol is the stated tolerance of the δ = 1 house's fitted Cp and
// R against the generator's true values, as a share of the true value.
const calibParamTol = 0.15

// rmseTol is the share by which an RMSE the engine reports may differ from
// the benchmark's recomputation with the same fitted parameters.
const rmseTol = 2e-3

type calibFixture struct {
	db     *pgfmu.DB
	fleets []*hp1Fleet
	rooms  []*classroomSet
	phases setupPhases
}

func (fx *calibFixture) times() setupPhases { return fx.phases }
func (fx *calibFixture) drop()              { fx.db.Close() }

// hp1Fleet is δ-scaled copies of one generated HP1 data set, one per house.
type hp1Fleet struct {
	ids    []string // ids[0] has δ = 1
	sqls   []string
	frames []*timeseries.Frame
}

type classroomSet struct {
	id, sql string
	frame   *timeseries.Frame
}

func setupCalibrate(cfg config, tr *tracer) (*calibFixture, error) {
	db, err := pgfmu.Open("")
	if err != nil {
		return nil, err
	}
	fx := &calibFixture{db: db}
	sc := cfg.scale
	for f := 0; f < sc.datasets; f++ {
		fl := &hp1Fleet{}
		for i, d := range dataset.MIDeltas(sc.fleet) {
			frame, err := fx.phases.gen(tr, "GenerateHP1", func() (*timeseries.Frame, error) {
				return dataset.GenerateHP1(dataset.Config{Hours: sc.calibHours, Seed: subSeed(cfg.seed, 100+f), Delta: d})
			})
			if err != nil {
				return nil, err
			}
			table := fmt.Sprintf("hp1_f%d_house%d", f, i)
			if err := fx.phases.loadFrame(tr, db, table, frame); err != nil {
				return nil, err
			}
			id := fmt.Sprintf("f%d_house%d", f, i)
			if err := tr.call("core", "CreateModel", func() error {
				_, err := db.CreateModel(dataset.HP1Source, id)
				return err
			}); err != nil {
				return nil, err
			}
			sql, _ := dataset.TrainSQL("hp1", table)
			fl.ids = append(fl.ids, id)
			fl.sqls = append(fl.sqls, sql)
			fl.frames = append(fl.frames, frame)
		}
		fx.fleets = append(fx.fleets, fl)
	}
	for c := 0; c < sc.datasets; c++ {
		frame, err := fx.phases.gen(tr, "GenerateClassroom", func() (*timeseries.Frame, error) {
			return dataset.GenerateClassroom(dataset.Config{Hours: sc.calibHours, Seed: subSeed(cfg.seed, 200+c)})
		})
		if err != nil {
			return nil, err
		}
		table := fmt.Sprintf("classroom%d_meas", c)
		if err := fx.phases.loadFrame(tr, db, table, frame); err != nil {
			return nil, err
		}
		room := &classroomSet{id: fmt.Sprintf("classroom%d", c), frame: frame}
		if err := tr.call("core", "CreateModel", func() error {
			_, err := db.CreateModel(dataset.ClassroomSource, room.id)
			return err
		}); err != nil {
			return nil, err
		}
		room.sql, _ = dataset.TrainSQL("classroom", table)
		fx.rooms = append(fx.rooms, room)
	}
	return fx, nil
}

// calibRound holds one round's outputs.
type calibRound struct {
	fleets [][]pgfmu.CalibrationResult
	rooms  []pgfmu.CalibrationResult
}

// calibrateOp resets the instances and runs one fmu_parest over them,
// recording its latency under kind.
func (fx *calibFixture) calibrateOp(tr *tracer, lat *latencies, kind string, ids, sqls, pars []string) ([]pgfmu.CalibrationResult, error) {
	root := tr.begin("bench", kind)
	defer tr.end(root)
	for _, id := range ids {
		if err := tr.call("core", "ResetInstance", func() error { return fx.db.ResetInstance(id) }); err != nil {
			return nil, err
		}
	}
	var res []pgfmu.CalibrationResult
	t := time.Now()
	err := tr.call("core", "Calibrate", func() (err error) {
		res, err = fx.db.Calibrate(ids, sqls, pars)
		return err
	})
	if err == nil {
		lat.add(kind, time.Since(t))
	}
	return res, err
}

// round runs one round, alternating fleets and classrooms so that both
// kinds sample the host over the whole round, and giving w a chance to run
// a set-up batch after each operation. It returns how many of its
// operations failed.
func (fx *calibFixture) round(tr *tracer, lat *latencies, w *window) (calibRound, int) {
	var r calibRound
	failed := 0
	for i := 0; i < max(len(fx.fleets), len(fx.rooms)); i++ {
		if i < len(fx.fleets) {
			fl := fx.fleets[i]
			res, err := fx.calibrateOp(tr, lat, "fleet", fl.ids, fl.sqls, hp1Pars)
			if err != nil {
				failed++
			}
			r.fleets = append(r.fleets, res)
			w.between()
		}
		if i < len(fx.rooms) {
			room := fx.rooms[i]
			res, err := fx.calibrateOp(tr, lat, "single", []string{room.id}, []string{room.sql}, classroomPars)
			if err != nil || len(res) != 1 {
				failed++
				res = []pgfmu.CalibrationResult{{}}
			}
			r.rooms = append(r.rooms, res[0])
			w.between()
		}
	}
	return r, failed
}

func (fx *calibFixture) ops() int { return len(fx.fleets) + len(fx.rooms) }

// repeatFirst runs the first fleet's and the first classroom's operation
// once more, outside the window, as a partial round for checkCalibration:
// every operation starts from fmu_reset, so it must return what it did in
// the first round, however many rounds the window held.
func (fx *calibFixture) repeatFirst() (calibRound, error) {
	lat := newLatencies("fleet", "single")
	fl, room := fx.fleets[0], fx.rooms[0]
	f, err := fx.calibrateOp(nil, lat, "fleet", fl.ids, fl.sqls, hp1Pars)
	if err != nil {
		return calibRound{}, fmt.Errorf("calibrate: repeat: %w", err)
	}
	r, err := fx.calibrateOp(nil, lat, "single", []string{room.id}, []string{room.sql}, classroomPars)
	if err != nil {
		return calibRound{}, fmt.Errorf("calibrate: repeat: %w", err)
	}
	return calibRound{fleets: [][]pgfmu.CalibrationResult{f}, rooms: r}, nil
}

func runCalibrate(cfg config) (*report, error) {
	rep := &report{layer: map[string]float64{}}
	var tr *tracer
	if cfg.trace {
		tr = newTracer(time.Now())
		rep.tracers = []*tracer{tr}
	}
	fx, w, err := setUp(cfg, rep, "calibrate", func(tr *tracer) (*calibFixture, error) { return setupCalibrate(cfg, tr) })
	if err != nil {
		return nil, err
	}
	defer fx.db.Close()

	rep.ops = newLatencies("fleet", "single")
	var rounds []calibRound
	stats0, cache0 := fx.db.EngineStats(), fx.db.SimCacheStats()
	w.begin()
	for n := 0; n == 0 || w.open(); n++ {
		r, failed := fx.round(tr, rep.ops, w)
		rep.ops.endRound()
		rep.attempted += fx.ops()
		rep.failed += failed
		if failed == 0 {
			rounds = append(rounds, r)
		}
	}
	if rep.elapsed, err = w.close(); err != nil {
		return nil, err
	}
	stats1, cache1 := fx.db.EngineStats(), fx.db.SimCacheStats()

	rep.name("fleet_calib_s", rep.ops.kindMs("fleet")/1000, "s")
	rep.name("si_calib_s", rep.ops.kindMs("single")/1000, "s")
	rep.name("rounds", float64(len(rounds)), "count")
	if len(rounds) > 0 {
		repeat, err := fx.repeatFirst()
		rep.check(err)
		rounds = append(rounds, repeat)
	}
	for _, err := range checkCalibration(fx, rounds) {
		rep.check(err)
	}
	if !cfg.trace {
		return rep, nil
	}

	evals, warm := 0, 0
	if len(rounds) > 0 {
		for _, res := range rounds[0].all() {
			evals += res.CostEvals
			if res.UsedWarmStart {
				warm++
			}
		}
	}
	rep.layer["estimate.cost_evals"] = float64(evals)
	rep.layer["estimate.warm_starts"] = float64(warm)
	rep.layer["sqldb.commits_per_op"] = float64(stats1.Commits-stats0.Commits) / float64(rep.attempted)
	rep.layer["core.simcache_hits"] = float64(cache1.Hits - cache0.Hits)
	rep.layer["core.simcache_misses"] = float64(cache1.Misses - cache0.Misses)
	setupLayers(rep)

	if len(rounds) == 0 {
		return rep, nil
	}
	fl, room, fit := fx.fleets[0], fx.rooms[0], rounds[0]
	targets := []simTarget{
		hp1Target(fl.frames[0], fit.fleets[0][0].Params),
		classroomTarget(room.frame, fit.rooms[0].Params),
	}
	p := &prober{db: fx.db, n: cfg.scale.probes, tr: tr, layer: rep.layer}
	p.compile(dataset.HP1Source, dataset.ClassroomSource)
	p.simulate(targets)
	p.native(fl.frames[0])
	p.costEval(targets)
	p.inputFetch(fl.sqls[0])
	p.planExec(fl.sqls[0])
	p.catalogueUpdate(fl.ids[0], "x")
	p.core(fl.ids[0], fl.sqls[0])
	for _, err := range p.errs {
		rep.check(err)
	}
	return rep, nil
}

// checkCalibration checks every round, partial rounds included, against the
// first (each operation starts from fmu_reset, so they must agree exactly), every reported RMSE against
// the benchmark's recomputation with the fitted parameters, and each δ = 1
// house's fit against the generator's true parameters.
func checkCalibration(fx *calibFixture, rounds []calibRound) []error {
	if len(rounds) == 0 {
		return []error{fmt.Errorf("calibrate: no round completed")}
	}
	var errs []error
	first := rounds[0]
	for i, r := range rounds[1:] {
		if err := sameRound(first, r); err != nil {
			errs = append(errs, fmt.Errorf("calibrate: round %d differs from round 1: %w", i+2, err))
		}
	}
	if len(first.fleets) != len(fx.fleets) || len(first.rooms) != len(fx.rooms) {
		return append(errs, fmt.Errorf("calibrate: round has %d fleets and %d classrooms, want %d and %d",
			len(first.fleets), len(first.rooms), len(fx.fleets), len(fx.rooms)))
	}
	for f, fl := range fx.fleets {
		res := first.fleets[f]
		if len(res) != len(fl.ids) {
			errs = append(errs, fmt.Errorf("calibrate: fleet fmu_parest returned %d results for %d instances", len(res), len(fl.ids)))
			continue
		}
		for i := range res {
			if err := checkHP1Fit(fl.frames[i], res[i]); err != nil {
				errs = append(errs, err)
			}
		}
		if err := checkTruth(res[0].Params, dataset.TruthHP1); err != nil {
			errs = append(errs, fmt.Errorf("%s: %w", res[0].InstanceID, err))
		}
	}
	for c, room := range fx.rooms {
		if err := checkClassroomFit(room.frame, first.rooms[c]); err != nil {
			errs = append(errs, err)
		}
	}
	return errs
}

func (r calibRound) all() []pgfmu.CalibrationResult {
	var out []pgfmu.CalibrationResult
	for _, f := range r.fleets {
		out = append(out, f...)
	}
	return append(out, r.rooms...)
}

// sameRound compares every result of b with the result of a for the same
// instance.
func sameRound(a, b calibRound) error {
	first := map[string]pgfmu.CalibrationResult{}
	for _, res := range a.all() {
		first[res.InstanceID] = res
	}
	for _, res := range b.all() {
		want, ok := first[res.InstanceID]
		if !ok {
			return fmt.Errorf("%s: not calibrated in the first round", res.InstanceID)
		}
		if res.RMSE != want.RMSE {
			return fmt.Errorf("%s: RMSE %v, first round %v", res.InstanceID, res.RMSE, want.RMSE)
		}
		for k, v := range want.Params {
			if res.Params[k] != v {
				return fmt.Errorf("%s: %s = %v, first round %v", res.InstanceID, k, res.Params[k], v)
			}
		}
	}
	return nil
}

// checkHP1Fit recomputes an HP1 fit's RMSE: the reference model with the
// fitted Cp and R, started from the first measured temperature, against the
// measured temperatures.
func checkHP1Fit(f *timeseries.Frame, res pgfmu.CalibrationResult) error {
	m := hp1Ref{Cp: res.Params["Cp"], R: res.Params["R"]}
	x := f.Data["x"]
	sim, _ := m.simulate(signal{f.Times, f.Data["u"]}, x[0], f.Times)
	want := rmse(x, sim)
	if !near(res.RMSE, want, rmseTol, 0) {
		return fmt.Errorf("calibrate: %s RMSE %.6g with Cp=%.6g R=%.6g, recomputed %.6g",
			res.InstanceID, res.RMSE, m.Cp, m.R, want)
	}
	return nil
}

// checkClassroomFit recomputes the classroom fit's RMSE the same way.
func checkClassroomFit(f *timeseries.Frame, res pgfmu.CalibrationResult) error {
	m := classroomRef{shgc: res.Params["shgc"], tmass: res.Params["tmass"],
		RExt: res.Params["RExt"], occheff: res.Params["occheff"]}
	sig := func(c string) signal { return signal{f.Times, f.Data[c]} }
	in := classroomInputs{solrad: sig("solrad"), tout: sig("tout"), occ: sig("occ"), dpos: sig("dpos"), vpos: sig("vpos")}
	t := f.Data["t"]
	want := rmse(t, m.simulate(in, t[0], f.Times))
	if !near(res.RMSE, want, rmseTol, 0) {
		return fmt.Errorf("calibrate: %s RMSE %.6g with %v, recomputed %.6g", res.InstanceID, res.RMSE, res.Params, want)
	}
	return nil
}

// checkTruth compares fitted parameters with the generator's true values.
func checkTruth(fit, truth map[string]float64) error {
	for _, k := range hp1Pars {
		if !near(fit[k], truth[k], calibParamTol, 0) {
			return fmt.Errorf("calibrate: fitted %s = %.4g, true value %.4g (tolerance %.0f%%)",
				k, fit[k], truth[k], calibParamTol*100)
		}
	}
	return nil
}
