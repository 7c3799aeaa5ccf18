package main

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"

	pgfmu "repro"
	"repro/internal/dataset"
	"repro/internal/timeseries"
)

// The analytics workload: one client issues a seeded mix of queries against
// an in-memory database holding a fleet of houses with a month of hourly
// measurements each, plus a long history table.
//
//   - predict: a single-house fmu_simulate with GROUP BY (a simulation cache
//     hit after warm-up: far fewer houses than cache entries);
//   - fleet: the paper's LATERAL multi-instance fmu_simulate with
//     per-instance aggregates (cache hits too);
//   - whatif: fmu_set_initial of Cp to a value never used before, then a
//     simulation (always a cache miss and a catalogue write);
//   - history: pure-SQL GROUP BY over a window function on the history
//     table.

const (
	historyMonth = 720 // hours per GROUP BY bucket of the history query
	// simTol bounds the difference, in °C, between a simulated temperature
	// (an aggregate, or one output point) and the reference integrator's.
	// The engine's output points deviate from the fine-step solution by up
	// to about 0.11 °C on a 720-hour HP1 run (see README.md), so the bound
	// leaves room for that; a 5% error in R moves them by about 0.8 °C.
	simTol = 0.3
	// exactTol is the relative tolerance of figures the engine computes
	// from the same numbers as the reference, in another order.
	exactTol = 1e-9
)

const (
	predictSQL = `SELECT varName, count(*), avg(value), min(value), max(value)
	FROM fmu_simulate('%s', 'SELECT time, u FROM %s') GROUP BY varName`
	fleetSQL = `SELECT f.instanceId, count(*), avg(f.value), min(f.value), max(f.value)
	FROM generate_series(0, %d) AS id,
	     LATERAL fmu_simulate('house' || id::text, 'SELECT time, u FROM meas' || id::text) AS f
	WHERE f.varName = 'x' GROUP BY f.instanceId`
	historySQL = `SELECT floor(time / 720) AS month, count(*), avg(x), max(ma), sum(u)
	FROM (SELECT time, x, u, avg(x) OVER (ORDER BY time ROWS BETWEEN 23 PRECEDING AND CURRENT ROW) AS ma
	      FROM history WHERE time >= $1 AND time < $2) AS w
	GROUP BY floor(time / 720) ORDER BY month`
)

type house struct {
	id, table string
	frame     *timeseries.Frame
	cp, r     float64
}

type analyticsFixture struct {
	db      *pgfmu.DB
	houses  []house
	whatifs []string // whatifs[k] starts as a copy of houses[k]
	history *timeseries.Frame
	phases  setupPhases
}

func (fx *analyticsFixture) times() setupPhases { return fx.phases }
func (fx *analyticsFixture) drop()              { fx.db.Close() }

// historyFrame tiles one generated year into the history table: year k is
// the generated year scaled by the k-th of dataset.MIDeltas, which is what
// dataset.GenerateHP1 returns for that δ with the same seed.
func historyFrame(year *timeseries.Frame, years, yearHours int) (*timeseries.Frame, error) {
	out := timeseries.NewFrame("x", "y", "u")
	for k, d := range dataset.MIDeltas(years) {
		for i := 0; i < yearHours; i++ {
			if err := out.AppendRow(year.Times[i]+float64(k*yearHours),
				year.Data["x"][i]*d, year.Data["y"][i]*d, year.Data["u"][i]*d); err != nil {
				return nil, err
			}
		}
	}
	return out, nil
}

func setupAnalytics(cfg config, tr *tracer) (*analyticsFixture, error) {
	db, err := pgfmu.Open("")
	if err != nil {
		return nil, err
	}
	sc := cfg.scale
	fx := &analyticsFixture{db: db}
	for i := 0; i < sc.houses; i++ {
		f, err := fx.phases.gen(tr, "GenerateHP1", func() (*timeseries.Frame, error) {
			return dataset.GenerateHP1(dataset.Config{Hours: sc.monthHours, Seed: subSeed(cfg.seed, 10+i)})
		})
		if err != nil {
			return nil, err
		}
		h := house{id: fmt.Sprintf("house%d", i), table: fmt.Sprintf("meas%d", i), frame: f,
			cp: dataset.TruthHP1["Cp"] * (0.8 + 0.4*float64(i)/float64(sc.houses)),
			r:  dataset.TruthHP1["R"] * (1.2 - 0.4*float64(i)/float64(sc.houses))}
		if err := fx.phases.loadFrame(tr, db, h.table, f); err != nil {
			return nil, err
		}
		if err := tr.call("core", "CreateModel", func() error {
			_, err := db.CreateModel(dataset.HP1Source, h.id)
			return err
		}); err != nil {
			return nil, err
		}
		for _, kv := range []struct {
			name string
			v    float64
		}{{"Cp", h.cp}, {"R", h.r}} {
			if err := tr.call("core", "SetInitial", func() error { return db.SetInitial(h.id, kv.name, kv.v) }); err != nil {
				return nil, err
			}
		}
		fx.houses = append(fx.houses, h)
	}
	for k := 0; k < sc.whatifs; k++ {
		id := fmt.Sprintf("whatif%d", k)
		if err := tr.call("core", "CopyInstance", func() error {
			_, err := db.CopyInstance(fx.houses[k].id, id)
			return err
		}); err != nil {
			return nil, err
		}
		fx.whatifs = append(fx.whatifs, id)
	}
	year, err := fx.phases.gen(tr, "GenerateHP1", func() (*timeseries.Frame, error) {
		return dataset.GenerateHP1(dataset.Config{Hours: sc.yearHours, Seed: subSeed(cfg.seed, 1)})
	})
	if err != nil {
		return nil, err
	}
	if fx.history, err = historyFrame(year, sc.years, sc.yearHours); err != nil {
		return nil, err
	}
	if err := fx.phases.loadFrame(tr, db, "history", fx.history); err != nil {
		return nil, err
	}
	return fx, nil
}

// aop is one analytics operation and its output.
type aop struct {
	kind     string
	house    int     // predict, whatif
	cp       float64 // whatif
	from, to float64 // history
	aggs     map[string]agg
	rows     [][]float64 // history
}

// whatifCp is the n-th what-if value of Cp: a golden-ratio sequence, so no
// value repeats.
func whatifCp(n int) float64 {
	_, frac := math.Modf(float64(n+1) * 0.6180339887498949)
	return 0.8 + 2*frac
}

// mixer deals the query kinds of each round of the mix in a seeded order.
type mixer struct {
	rng    *rand.Rand
	deck   []string
	whatif int
}

func newMixer(seed int64, counts map[string]int) *mixer {
	var kinds []string
	for k := range counts {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	m := &mixer{rng: rand.New(rand.NewSource(seed))}
	for _, k := range kinds {
		for i := 0; i < counts[k]; i++ {
			m.deck = append(m.deck, k)
		}
	}
	return m
}

func (m *mixer) round() []string {
	out := append([]string(nil), m.deck...)
	m.rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// next draws the arguments of an operation of the given kind.
func (fx *analyticsFixture) next(m *mixer, kind string) aop {
	op := aop{kind: kind}
	switch kind {
	case "predict":
		op.house = m.rng.Intn(len(fx.houses))
	case "whatif":
		op.house = m.whatif % len(fx.whatifs)
		op.cp = whatifCp(m.whatif)
		m.whatif++
	case "history":
		months := len(fx.history.Times) / historyMonth
		op.from = float64(historyMonth * m.rng.Intn(months-1))
		op.to = op.from + 2*historyMonth
	}
	return op
}

// run executes one operation, filling its output.
func (fx *analyticsFixture) run(tr *tracer, op *aop) error {
	query := func(sql string, args ...any) (*pgfmu.Rows, error) {
		var rs *pgfmu.Rows
		err := tr.call("sqldb", "Query", func() (err error) { rs, err = fx.db.Query(sql, args...); return err })
		return rs, err
	}
	var rs *pgfmu.Rows
	var err error
	switch op.kind {
	case "predict":
		h := fx.houses[op.house]
		rs, err = query(fmt.Sprintf(predictSQL, h.id, h.table))
	case "fleet":
		rs, err = query(fmt.Sprintf(fleetSQL, len(fx.houses)-1))
	case "whatif":
		id := fx.whatifs[op.house]
		if _, err = query(`SELECT fmu_set_initial($1, 'Cp', $2)`, id, op.cp); err != nil {
			return err
		}
		rs, err = query(fmt.Sprintf(predictSQL, id, fx.houses[op.house].table))
	case "history":
		rs, err = query(historySQL, op.from, op.to)
	}
	if err != nil {
		return err
	}
	if op.kind == "history" {
		op.rows, err = floatRows(rs, 0)
		return err
	}
	op.aggs, err = aggRows(rs)
	return err
}

// aggRows reads (key, count, avg, min, max) rows.
func aggRows(rs *pgfmu.Rows) (map[string]agg, error) {
	vals, err := floatRows(rs, 1)
	if err != nil {
		return nil, err
	}
	out := make(map[string]agg, len(vals))
	for i, v := range vals {
		if len(v) != 4 {
			return nil, fmt.Errorf("aggregate row has %d numeric columns, want 4", len(v))
		}
		out[rs.Rows[i][0].AsText()] = agg{n: v[0], mean: v[1], min: v[2], max: v[3]}
	}
	return out, nil
}

// floatRows converts every column from skip on to float64.
func floatRows(rs *pgfmu.Rows, skip int) ([][]float64, error) {
	out := make([][]float64, len(rs.Rows))
	for i, row := range rs.Rows {
		for _, v := range row[skip:] {
			f, err := v.AsFloat()
			if err != nil {
				return nil, err
			}
			out[i] = append(out[i], f)
		}
	}
	return out, nil
}

func runAnalytics(cfg config) (*report, error) {
	rep := &report{layer: map[string]float64{}}
	var tr *tracer
	if cfg.trace {
		tr = newTracer(time.Now())
		rep.tracers = []*tracer{tr}
	}
	fx, w, err := setUp(cfg, rep, "analytics", func(tr *tracer) (*analyticsFixture, error) { return setupAnalytics(cfg, tr) })
	if err != nil {
		return nil, err
	}
	defer fx.db.Close()

	mix := newMixer(cfg.seed, cfg.scale.deck)
	var done []aop
	// One untimed round warms the simulation cache and the plan cache.
	for _, kind := range mix.round() {
		op := fx.next(mix, kind)
		if err := fx.run(nil, &op); err != nil {
			return nil, fmt.Errorf("warm-up %s: %w", kind, err)
		}
		done = append(done, op)
	}

	rep.ops = newLatencies("predict", "fleet", "whatif", "history")
	stats0, cache0 := fx.db.EngineStats(), fx.db.SimCacheStats()
	w.begin()
	for w.open() {
		for _, kind := range mix.round() {
			op := fx.next(mix, kind)
			root := tr.begin("bench", kind)
			t := time.Now()
			err := fx.run(tr, &op)
			d := time.Since(t)
			tr.end(root)
			rep.attempted++
			if err != nil {
				rep.failed++
				fmt.Fprintf(cfg.log, "analytics %s: %v\n", kind, err)
				continue
			}
			rep.ops.add(kind, d)
			done = append(done, op)
		}
		rep.ops.endRound()
		w.between()
	}
	if rep.elapsed, err = w.close(); err != nil {
		return nil, err
	}
	stats1, cache1 := fx.db.EngineStats(), fx.db.SimCacheStats()

	rep.name("queries_per_s", float64(rep.ops.count())/rep.elapsed.Seconds(), "1/s")
	for _, k := range rep.ops.kinds {
		rep.name(k+"_ms", rep.ops.kindMs(k), "ms")
	}
	rep.name("p99_ms", percentile(rep.ops.all(), 99), "ms")
	hits, misses := cache1.Hits-cache0.Hits, cache1.Misses-cache0.Misses
	rep.name("simcache_hit_rate", float64(hits)/float64(hits+misses), "share")
	for _, err := range checkAnalytics(fx, done) {
		rep.check(err)
	}
	if !cfg.trace {
		return rep, nil
	}
	rep.layer["core.simcache_hits"] = float64(hits)
	rep.layer["core.simcache_misses"] = float64(misses)
	rep.layer["sqldb.commits_per_op"] = float64(stats1.Commits-stats0.Commits) / float64(rep.attempted)
	setupLayers(rep)

	h := fx.houses[0]
	input := fmt.Sprintf("SELECT time, u FROM %s", h.table)
	p := &prober{db: fx.db, n: cfg.scale.probes, tr: tr, layer: rep.layer}
	p.compile(dataset.HP1Source)
	p.simulate([]simTarget{hp1Target(h.frame, map[string]float64{"Cp": h.cp, "R": h.r})})
	p.native(h.frame)
	p.inputFetch(input)
	p.planExec(historySQL, 0.0, float64(2*historyMonth))
	p.catalogueUpdate(h.id, "x")
	p.core(h.id, input)
	for _, err := range p.errs {
		rep.check(err)
	}
	return rep, nil
}

// houseRef simulates a house with the reference model over its month, from
// the model's start temperature, on the hourly output grid fmu_simulate
// uses for hourly inputs.
func houseRef(h house, cp float64) map[string]agg {
	x, y := hp1Ref{Cp: cp, R: h.r}.simulate(signal{h.frame.Times, h.frame.Data["u"]}, hp1X0, h.frame.Times)
	return map[string]agg{"x": aggregate(x), "y": aggregate(y)}
}

// historyRef recomputes the history query from the generated frame.
func historyRef(f *timeseries.Frame, from, to float64) [][]float64 {
	var times, xs, us []float64
	for i, t := range f.Times {
		if t >= from && t < to {
			times = append(times, t)
			xs = append(xs, f.Data["x"][i])
			us = append(us, f.Data["u"][i])
		}
	}
	var out [][]float64
	for i := 0; i < len(times); {
		month := math.Floor(times[i] / historyMonth)
		n, sumX, maxMA, sumU := 0.0, 0.0, math.Inf(-1), 0.0
		for ; i < len(times) && math.Floor(times[i]/historyMonth) == month; i++ {
			lo := i - 23
			if lo < 0 {
				lo = 0
			}
			ma := 0.0
			for _, x := range xs[lo : i+1] {
				ma += x
			}
			ma /= float64(i + 1 - lo)
			n++
			sumX += xs[i]
			maxMA = math.Max(maxMA, ma)
			sumU += us[i]
		}
		out = append(out, []float64{month, n, sumX / n, maxMA, sumU})
	}
	return out
}

// checkAnalytics checks every operation's output against the reference.
func checkAnalytics(fx *analyticsFixture, ops []aop) []error {
	var errs []error
	refs := make([]map[string]agg, len(fx.houses))
	for i, h := range fx.houses {
		refs[i] = houseRef(h, h.cp)
	}
	for _, op := range ops {
		var err error
		switch op.kind {
		case "predict":
			err = checkSimAggs(fmt.Sprintf("predict %s", fx.houses[op.house].id), op.aggs, refs[op.house])
		case "whatif":
			h := fx.houses[op.house]
			err = checkSimAggs(fmt.Sprintf("whatif %s Cp=%.6g", fx.whatifs[op.house], op.cp), op.aggs, houseRef(h, op.cp))
		case "fleet":
			err = checkFleet(fx, op.aggs, refs)
		case "history":
			err = checkHistory(op.rows, historyRef(fx.history, op.from, op.to))
		}
		if err != nil {
			errs = append(errs, fmt.Errorf("analytics: %w", err))
			if len(errs) >= 10 {
				break
			}
		}
	}
	return errs
}

// checkSimAggs compares the x (simulated) and y (P·u) aggregates.
func checkSimAggs(what string, got, want map[string]agg) error {
	if len(got) != 2 {
		return fmt.Errorf("%s: %d variables, want x and y", what, len(got))
	}
	if err := checkAgg(what+" x", got["x"], want["x"], simTol); err != nil {
		return err
	}
	y := want["y"]
	return checkAgg(what+" y", got["y"], y, exactTol*math.Abs(y.max))
}

func checkFleet(fx *analyticsFixture, got map[string]agg, refs []map[string]agg) error {
	if len(got) != len(fx.houses) {
		return fmt.Errorf("fleet: %d instances, want %d", len(got), len(fx.houses))
	}
	for i, h := range fx.houses {
		if err := checkAgg("fleet "+h.id, got[h.id], refs[i]["x"], simTol); err != nil {
			return err
		}
	}
	return nil
}

func checkHistory(got, want [][]float64) error {
	if len(got) != len(want) {
		return fmt.Errorf("history: %d groups, want %d", len(got), len(want))
	}
	for i := range want {
		if len(got[i]) != len(want[i]) {
			return fmt.Errorf("history group %d: %d columns, want %d", i, len(got[i]), len(want[i]))
		}
		for j := range want[i] {
			if !near(got[i][j], want[i][j], exactTol, exactTol) {
				return fmt.Errorf("history group %d column %d: %.10g, recomputed %.10g", i, j, got[i][j], want[i][j])
			}
		}
	}
	return nil
}
