package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"log/slog"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	pgfmu "repro"
	"repro/internal/dataset"
	"repro/internal/server"
	"repro/internal/server/client"
	"repro/internal/server/wire"
	"repro/internal/timeseries"
)

// The serve workload: nproc-1 client sessions run a closed loop against an
// in-process pgfmu-server over loopback, backed by a durable database with
// the group commit of the shipped deployment (serveSyncEvery) and the
// default checkpoint policy. The mix
// is the server load test's (loadtest.DefaultMix with TxEvery 4): each
// client reads back its own writes, inserts rows, every serveTxEvery-th
// write as a transaction of two inserts, and runs short fmu_simulate calls
// on its own instance. To that the workload adds streamed range reads of a
// few thousand history rows, so that result encoding is real work.

const (
	serveReadSQL  = `SELECT count(*), sum(seq) FROM srv_kv WHERE seq > $1 AND seq <= $2`
	serveInsSQL   = `INSERT INTO srv_kv VALUES ($1, $2, $3)`
	serveSimSQL   = `SELECT simulationTime, varName, value FROM fmu_simulate('%s', 'SELECT time, u FROM srv_meas')`
	serveRangeSQL = `SELECT time, x, u FROM history WHERE time >= $1 AND time < $2`
	serveSimHours = 24 // srv_meas holds the first 25 hourly rows of the history
	maxRetries    = 10
	// serveTxEvery makes every n-th write a BEGIN, two INSERTs and COMMIT.
	serveTxEvery = 4
	// readWindow is how many of its latest committed rows a client reads
	// back. A fixed window keeps the cost of a read from growing with the
	// table, so the workload's throughput does not drift over a run.
	readWindow = 64
	// seqBase spaces the clients' seq values apart, so that a range of seq
	// holds one client's rows only.
	seqBase = 1_000_000_000
	// serveSyncEvery is the group commit of docker-compose.yml
	// (-wal-sync-every 8): the WAL is fsynced once every 8 commits. With
	// an fsync at every commit, the write and simulate latencies followed
	// the shared disk of the host, and spread by 33-48 % between runs of
	// the same code while read and range stayed inside 25 %.
	serveSyncEvery = 8
)

// openServe opens the durable directory as the serve workload runs it.
func openServe(dir string) (*pgfmu.DB, error) {
	return pgfmu.Open(dir, pgfmu.WithWALSyncEvery(serveSyncEvery))
}

type serveFixture struct {
	db      *pgfmu.DB
	dir     string
	history *timeseries.Frame
	simX    float64 // reference indoor temperature at the end of the short simulation
	clients int
	phases  setupPhases
}

func (fx *serveFixture) times() setupPhases { return fx.phases }
func (fx *serveFixture) drop() {
	fx.db.Close()
	os.RemoveAll(fx.dir)
}

// serveClients is the number of sessions: one fewer than the CPUs, so that
// the in-process server, the garbage collector and the host keep a CPU's
// worth of room. With every CPU busy, the figures followed the time the
// hypervisor stole from the VM (ten-seed spreads of 21% and 26% on 2 vCPUs).
func serveClients() int {
	return max(1, runtime.NumCPU()-1)
}

func serveDir(cfg config, k int) string {
	return filepath.Join(cfg.data, fmt.Sprintf("serve-%d-%d", os.Getpid(), k))
}

// setupServe builds the durable database, closes it and reopens it.
func setupServe(cfg config, tr *tracer, k int) (*serveFixture, error) {
	sc := cfg.scale
	fx := &serveFixture{dir: serveDir(cfg, k), clients: serveClients()}
	if err := os.RemoveAll(fx.dir); err != nil {
		return nil, err
	}
	db, err := openServe(fx.dir)
	if err != nil {
		return nil, err
	}
	year, err := fx.phases.gen(tr, "GenerateHP1", func() (*timeseries.Frame, error) {
		return dataset.GenerateHP1(dataset.Config{Hours: sc.serveHours, Seed: subSeed(cfg.seed, 2)})
	})
	if err != nil {
		db.Close()
		return nil, err
	}
	fx.history = year
	exec := func(sql string, args ...any) error {
		return tr.call("sqldb", "Exec", func() error { _, err := db.Exec(sql, args...); return err })
	}
	err = func() error {
		if err := exec(`BEGIN`); err != nil {
			return err
		}
		if err := fx.phases.loadFrame(tr, db, "history", year); err != nil {
			return err
		}
		if err := exec(`COMMIT`); err != nil {
			return err
		}
		for _, sql := range []string{
			`CREATE INDEX history_time ON history (time)`,
			`CREATE TABLE srv_kv (client integer, seq integer, val float)`,
			`CREATE INDEX srv_kv_seq ON srv_kv (seq)`,
			`CREATE TABLE srv_meas (time float, u float)`,
			`CREATE TABLE srv_probe (client integer, seq integer, val float)`,
			`BEGIN`,
		} {
			if err := exec(sql); err != nil {
				return err
			}
		}
		for i := 0; i <= serveSimHours; i++ {
			if err := exec(`INSERT INTO srv_meas VALUES ($1, $2)`, year.Times[i], year.Data["u"][i]); err != nil {
				return err
			}
		}
		if err := exec(`COMMIT`); err != nil {
			return err
		}
		if err := tr.call("core", "CreateModel", func() error {
			_, err := db.CreateModel(dataset.HP1Source, "srv_base")
			return err
		}); err != nil {
			return err
		}
		for _, p := range hp1Pars {
			if err := tr.call("core", "SetInitial", func() error { return db.SetInitial("srv_base", p, dataset.TruthHP1[p]) }); err != nil {
				return err
			}
		}
		for i := 0; i < fx.clients; i++ {
			if err := tr.call("core", "CopyInstance", func() error {
				_, err := db.CopyInstance("srv_base", fmt.Sprintf("srv_m%d", i))
				return err
			}); err != nil {
				return err
			}
		}
		return nil
	}()
	if cerr := db.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	t := time.Now()
	err = tr.call("sqldb", "Open", func() (err error) { fx.db, err = openServe(fx.dir); return err })
	fx.phases.reopen = time.Since(t)
	if err != nil {
		return nil, err
	}
	grid := year.Times[:serveSimHours+1]
	x, _ := hp1Ref{Cp: dataset.TruthHP1["Cp"], R: dataset.TruthHP1["R"]}.simulate(
		signal{grid, year.Data["u"][:serveSimHours+1]}, hp1X0, grid)
	fx.simX = x[serveSimHours]
	return fx, nil
}

// serveClient is one closed-loop session with its own tally of what it has
// committed.
type serveClient struct {
	id        int
	s         *client.Session
	rng       *rand.Rand
	mix       *mixer
	tr        *tracer
	lat       *latencies
	seq       int   // last seq used; starts at id × seqBase
	committed []int // seq of every row of srv_kv this client has committed
	seqSum    int   // sum of committed
	writes    int   // writes issued, which decides the next one's form
	attempted int
	failed    int
	conflicts int
	errs      []error
}

func isConflict(err error) bool {
	var we *wire.Error
	return errors.As(err, &we) && we.Code == wire.CodeConflict
}

// fetch runs a statement in the session and collects its rows.
func (c *serveClient) fetch(ctx context.Context, sql string, args ...any) ([][]any, error) {
	var out [][]any
	err := c.tr.call("server", "Session.Query", func() error {
		rows, err := c.s.Query(ctx, sql, args...)
		if err != nil {
			return err
		}
		defer rows.Close()
		for rows.Next() {
			out = append(out, rows.Row())
		}
		return rows.Err()
	})
	return out, err
}

// retry runs fn until it succeeds or fails with anything but a write
// conflict; conflicts are counted, not failed.
func (c *serveClient) retry(fn func() error) error {
	var err error
	for attempt := 0; attempt < maxRetries; attempt++ {
		if err = fn(); err == nil || !isConflict(err) {
			return err
		}
		c.conflicts++
	}
	return err
}

func num(v any) float64 {
	f, _ := v.(float64)
	return f
}

func (c *serveClient) op(ctx context.Context, fx *serveFixture, kind string, sc scale) error {
	switch kind {
	case "read":
		lo, n, sum := c.id*seqBase, 0, 0
		if k := len(c.committed); k > readWindow {
			lo = c.committed[k-readWindow-1]
		}
		for i := len(c.committed) - 1; i >= 0 && c.committed[i] > lo; i-- {
			n++
			sum += c.committed[i]
		}
		rows, err := c.fetch(ctx, serveReadSQL, lo, c.seq)
		if err != nil {
			return err
		}
		c.fail(readMatches(rows, n, sum))
	case "write":
		c.writes++
		if c.writes%serveTxEvery == 0 {
			return c.retry(func() error { return c.txInsert(ctx) })
		}
		return c.retry(func() error { return c.insert(ctx) })
	case "simulate":
		var rows [][]any
		err := c.retry(func() (err error) {
			rows, err = c.fetch(ctx, fmt.Sprintf(serveSimSQL, fmt.Sprintf("srv_m%d", c.id)))
			return err
		})
		if err != nil {
			return err
		}
		c.fail(simMatches(rows, fx.simX))
	case "range":
		from := float64(c.rng.Intn(len(fx.history.Times) - sc.rangeRows))
		rows, err := c.fetch(ctx, serveRangeSQL, from, from+float64(sc.rangeRows))
		if err != nil {
			return err
		}
		c.fail(rangeMatches(rows, fx.history, from, sc.rangeRows))
	}
	return nil
}

// insert commits one row of srv_kv.
func (c *serveClient) insert(ctx context.Context) error {
	c.seq++
	if _, err := c.fetch(ctx, serveInsSQL, c.id, c.seq, c.rng.Float64()); err != nil {
		return err
	}
	c.committed = append(c.committed, c.seq)
	c.seqSum += c.seq
	return nil
}

// txInsert commits two rows of srv_kv in one transaction.
func (c *serveClient) txInsert(ctx context.Context) error {
	if _, err := c.fetch(ctx, `BEGIN`); err != nil {
		return err
	}
	a, b := c.seq+1, c.seq+2
	c.seq += 2
	for _, s := range []int{a, b} {
		if _, err := c.fetch(ctx, serveInsSQL, c.id, s, c.rng.Float64()); err != nil {
			c.fetch(ctx, `ROLLBACK`)
			return err
		}
	}
	if _, err := c.fetch(ctx, `COMMIT`); err != nil {
		return err
	}
	c.committed = append(c.committed, a, b)
	c.seqSum += a + b
	return nil
}

// fail records a failed output check (at most ten per client).
func (c *serveClient) fail(err error) {
	if err != nil && len(c.errs) < 10 {
		c.errs = append(c.errs, fmt.Errorf("serve client %d: %w", c.id, err))
	}
}

// readMatches compares a read of the client's latest rows with its own
// tally of them.
func readMatches(rows [][]any, committed, seqSum int) error {
	if len(rows) != 1 || len(rows[0]) != 2 {
		return fmt.Errorf("read returned %v", rows)
	}
	n, sum := num(rows[0][0]), num(rows[0][1])
	if n != float64(committed) || sum != float64(seqSum) {
		return fmt.Errorf("read sees %v rows with seq sum %v, client committed %d with sum %d", n, sum, committed, seqSum)
	}
	return nil
}

// simMatches checks the row count of the short simulation (25 hourly points
// of x and y) and its final indoor temperature.
func simMatches(rows [][]any, wantX float64) error {
	if len(rows) != 2*(serveSimHours+1) {
		return fmt.Errorf("simulation returned %d rows, want %d", len(rows), 2*(serveSimHours+1))
	}
	for _, r := range rows {
		if len(r) == 3 && num(r[0]) == serveSimHours && r[1] == "x" {
			if !near(num(r[2]), wantX, 0, simTol) {
				return fmt.Errorf("simulated x(%d) = %.6g, reference %.6g", serveSimHours, num(r[2]), wantX)
			}
			return nil
		}
	}
	return fmt.Errorf("simulation has no x at t=%d", serveSimHours)
}

// rangeMatches checks a range read's row count and sums against the
// generated frame.
func rangeMatches(rows [][]any, f *timeseries.Frame, from float64, n int) error {
	if len(rows) != n {
		return fmt.Errorf("range read from %v returned %d rows, want %d", from, len(rows), n)
	}
	i0 := int(from) // hourly frame starting at 0
	var gotX, wantX, gotT, wantT float64
	for i, r := range rows {
		if len(r) != 3 {
			return fmt.Errorf("range row has %d columns", len(r))
		}
		gotT += num(r[0])
		gotX += num(r[1])
		wantT += f.Times[i0+i]
		wantX += f.Data["x"][i0+i]
	}
	if gotT != wantT || !near(gotX, wantX, exactTol, 0) {
		return fmt.Errorf("range read from %v: time sum %v x sum %.10g, want %v and %.10g", from, gotT, gotX, wantT, wantX)
	}
	return nil
}

func runServe(cfg config) (*report, error) {
	rep := &report{layer: map[string]float64{}}
	var setupTr *tracer
	if cfg.trace {
		setupTr = newTracer(time.Now())
		rep.tracers = []*tracer{setupTr}
	}
	dirs := 0 // serveDir(cfg, k) for k < dirs may exist
	defer func() {
		for k := 0; k < dirs; k++ {
			os.RemoveAll(serveDir(cfg, k))
		}
	}()
	fx, w, err := setUp(cfg, rep, "serve", func(tr *tracer) (*serveFixture, error) {
		dirs++
		return setupServe(cfg, tr, dirs-1)
	})
	if err != nil {
		return nil, err
	}
	defer fx.db.Close()

	srv := server.New(fx.db, server.Config{Logger: slog.New(slog.NewTextHandler(io.Discard, nil))})
	addr, err := srv.Listen()
	if err != nil {
		return nil, err
	}
	served := make(chan error, 1)
	go func() { served <- srv.Serve() }()
	stopped := false
	stop := func() error {
		if stopped {
			return nil
		}
		stopped = true
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		err := srv.Shutdown(ctx)
		if serr := <-served; err == nil {
			err = serr
		}
		return err
	}
	defer stop()
	cl := client.New("http://"+addr.String(), "")
	ctx := context.Background()

	kinds := []string{"read", "write", "simulate", "range"}
	clients := make([]*serveClient, fx.clients)
	for i := range clients {
		s, err := cl.NewSession(ctx)
		if err != nil {
			return nil, err
		}
		defer s.Close(ctx)
		c := &serveClient{id: i, seq: i * seqBase, s: s, rng: rand.New(rand.NewSource(subSeed(cfg.seed, 100+i))),
			mix: newMixer(subSeed(cfg.seed, 200+i), cfg.scale.serveDeck), lat: newOpLatencies(kinds...)}
		if cfg.trace {
			c.tr = newTracer(time.Now())
			rep.tracers = append(rep.tracers, c.tr)
		}
		clients[i] = c
	}
	// Warm-up, untimed: every client runs each kind once, and as many
	// writes as make one transactional.
	for _, c := range clients {
		for _, kind := range kinds {
			n := 1
			if kind == "write" {
				n = serveTxEvery
			}
			for i := 0; i < n; i++ {
				if err := c.op(ctx, fx, kind, cfg.scale); err != nil {
					return nil, fmt.Errorf("warm-up %s: %w", kind, err)
				}
			}
		}
	}

	stats0, cache0 := fx.db.EngineStats(), fx.db.SimCacheStats()
	// The clients run in segments; between two, with no operation in
	// flight, the window may run a set-up batch.
	w.begin()
	for w.open() {
		var wg sync.WaitGroup
		for _, c := range clients {
			wg.Add(1)
			go func(c *serveClient) {
				defer wg.Done()
				for w.open() && !w.due() {
					for _, kind := range c.mix.round() {
						root := c.tr.begin("bench", kind)
						t := time.Now()
						err := c.op(ctx, fx, kind, cfg.scale)
						d := time.Since(t)
						c.tr.end(root)
						c.attempted++
						if err != nil {
							c.failed++
							fmt.Fprintf(cfg.log, "serve client %d %s: %v\n", c.id, kind, err)
							continue
						}
						c.lat.add(kind, d)
					}
				}
			}(c)
		}
		wg.Wait()
		w.between()
	}
	if rep.elapsed, err = w.close(); err != nil {
		return nil, err
	}
	stats1, cache1 := fx.db.EngineStats(), fx.db.SimCacheStats()

	rep.ops = newOpLatencies(kinds...)
	conflicts := 0
	committed := map[int][2]int{}
	for _, c := range clients {
		rep.ops.merge(c.lat)
		rep.attempted += c.attempted
		rep.failed += c.failed
		conflicts += c.conflicts
		for _, err := range c.errs {
			rep.check(err)
		}
		committed[c.id] = [2]int{len(c.committed), c.seqSum}
	}
	all := rep.ops.all()
	rep.name("serve_ops_per_s", float64(len(all))/rep.elapsed.Seconds(), "1/s")
	rep.name("serve_p50_ms", median(all), "ms")
	rep.name("serve_p99_ms", percentile(all, 99), "ms")
	for _, k := range kinds {
		rep.name(k+"_ms", rep.ops.kindMs(k), "ms")
	}
	rep.name("conflict_retries", float64(conflicts), "count")
	rep.name("clients", float64(fx.clients), "count")

	if cfg.trace {
		p := &prober{db: fx.db, n: cfg.scale.probes, tr: setupTr, layer: rep.layer}
		httpOverhead(ctx, p, cl, fx, cfg.scale)
		meas := &timeseries.Frame{Times: fx.history.Times[:serveSimHours+1], Columns: []string{"x", "u"},
			Data: map[string][]float64{"x": fx.history.Data["x"][:serveSimHours+1], "u": fx.history.Data["u"][:serveSimHours+1]}}
		truth := map[string]float64{"Cp": dataset.TruthHP1["Cp"], "R": dataset.TruthHP1["R"]}
		p.compile(dataset.HP1Source)
		p.simulate([]simTarget{hp1Target(meas, truth)})
		p.native(meas)
		p.inputFetch(`SELECT time, u FROM srv_meas`)
		p.planExec(serveRangeSQL, 0.0, float64(cfg.scale.rangeRows))
		p.catalogueUpdate("srv_base", "x")
		p.core("srv_base", `SELECT time, u FROM srv_meas`)
		for _, err := range p.errs {
			rep.check(err)
		}
		ops := float64(rep.attempted)
		rep.layer["sqldb.commits_per_op"] = float64(stats1.Commits-stats0.Commits) / ops
		rep.layer["sqldb.wal_records_per_op"] = float64(stats1.WALRecords-stats0.WALRecords) / ops
		rep.layer["sqldb.checkpoints"] = float64(stats1.Checkpoints - stats0.Checkpoints)
		rep.layer["core.simcache_hits"] = float64(cache1.Hits - cache0.Hits)
		rep.layer["core.simcache_misses"] = float64(cache1.Misses - cache0.Misses)
		rep.layer["server.conflict_retries"] = float64(conflicts)
		setupLayers(rep)
		t := time.Now()
		if err := fx.db.Checkpoint(); err != nil {
			rep.check(fmt.Errorf("serve: checkpoint: %w", err))
		}
		rep.layer["sqldb.checkpoint_ms"] = ms(time.Since(t))
	}
	if err := stop(); err != nil {
		rep.check(fmt.Errorf("serve: shutdown: %w", err))
	}
	kvRows := 0
	for _, c := range committed {
		kvRows += c[0]
	}
	if cfg.trace {
		size, err := dirSize(fx.dir)
		if err != nil {
			return nil, err
		}
		rep.layer["sqldb.disk_bytes_per_row"] = float64(size) / float64(len(fx.history.Times)+kvRows)
	}
	if err := fx.db.Close(); err != nil {
		rep.check(fmt.Errorf("serve: close: %w", err))
	}
	rep.check(checkReopen(fx.dir, committed, len(fx.history.Times)))
	return rep, nil
}

// checkReopen reopens the directory and compares every client's rows with
// what the client committed.
func checkReopen(dir string, committed map[int][2]int, historyRows int) error {
	db, err := openServe(dir)
	if err != nil {
		return fmt.Errorf("serve: reopen: %w", err)
	}
	defer db.Close()
	rs, err := db.Query(`SELECT client, count(*), sum(seq) FROM srv_kv GROUP BY client`)
	if err != nil {
		return fmt.Errorf("serve: reopen: %w", err)
	}
	got := map[int][2]int{}
	for _, row := range rs.Rows {
		var v [3]float64
		for i := range v {
			if v[i], err = row[i].AsFloat(); err != nil {
				return fmt.Errorf("serve: reopen: %w", err)
			}
		}
		got[int(v[0])] = [2]int{int(v[1]), int(v[2])}
	}
	for id, want := range committed {
		if want[0] > 0 && got[id] != want {
			return fmt.Errorf("serve: after reopen client %d has %d rows with seq sum %d, committed %d with sum %d",
				id, got[id][0], got[id][1], want[0], want[1])
		}
		delete(got, id)
	}
	if len(got) > 0 {
		return fmt.Errorf("serve: after reopen srv_kv holds rows of unknown clients %v", got)
	}
	rs, err = db.Query(`SELECT count(*) FROM history`)
	if err != nil {
		return fmt.Errorf("serve: reopen: %w", err)
	}
	if n, _ := rs.Rows[0][0].AsFloat(); int(n) != historyRows {
		return fmt.Errorf("serve: after reopen history has %v rows, want %d", n, historyRows)
	}
	return nil
}

// httpOverhead times each operation kind over HTTP and in process, one at a
// time on an idle server, and records the difference of the medians.
func httpOverhead(ctx context.Context, p *prober, cl *client.Client, fx *serveFixture, sc scale) {
	s, err := cl.NewSession(ctx)
	if err != nil {
		p.fail("http overhead", err)
		return
	}
	defer s.Close(ctx)
	c := &serveClient{s: s, tr: p.tr}
	sim := fmt.Sprintf(serveSimSQL, "srv_base")
	for _, k := range []struct {
		kind string
		sql  string
		args []any
	}{
		{"read", serveReadSQL, []any{-2, -1}},
		{"insert", `INSERT INTO srv_probe VALUES ($1, $2, $3)`, []any{-1, 0, 0.5}},
		{"simulate", sim, nil},
		{"range", serveRangeSQL, []any{0.0, float64(sc.rangeRows)}},
	} {
		remote, err := p.timeN("server", "Session.Query", func() error { _, err := c.fetch(ctx, k.sql, k.args...); return err })
		if err != nil {
			p.fail("http overhead "+k.kind, err)
			return
		}
		local, err := p.timeN("sqldb", "Query", func() error { _, err := fx.db.Query(k.sql, k.args...); return err })
		if err != nil {
			p.fail("http overhead "+k.kind, err)
			return
		}
		p.layer["server.http_overhead_us."+k.kind] = (median(remote) - median(local)) * 1000
	}
}

func dirSize(dir string) (int64, error) {
	var size int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.Type().IsRegular() {
			info, err := d.Info()
			if err != nil {
				return err
			}
			size += info.Size()
		}
		return nil
	})
	return size, err
}
