package main

import (
	"fmt"
	"math"
	"sort"
)

// This file is the benchmark's own model of what the engine must compute,
// written apart from the engine: the HP1 and classroom equations coded by
// hand, integrated with fixed-step RK4, and inputs read with linear
// interpolation between samples, clamped outside them (the engine's
// documented input semantics for fmu_simulate and fmu_parest).

// signal is a sampled input series.
type signal struct{ t, v []float64 }

// at reads the signal at time t.
func (s signal) at(t float64) float64 {
	n := len(s.t)
	if t <= s.t[0] {
		return s.v[0]
	}
	if t >= s.t[n-1] {
		return s.v[n-1]
	}
	hi := sort.SearchFloat64s(s.t, t)
	if s.t[hi] == t {
		return s.v[hi]
	}
	lo := hi - 1
	w := (t - s.t[lo]) / (s.t[hi] - s.t[lo])
	return s.v[lo] + w*(s.v[hi]-s.v[lo])
}

// refSubsteps is the number of RK4 steps per grid interval. Grids are the
// input sampling grids, so every step lies between two input samples where
// the right-hand side is smooth, and RK4's error at this step is far below
// the check tolerances.
const refSubsteps = 32

// integrate solves the scalar ODE x' = f(t, x) from x0 at grid[0] and
// returns x at every grid point.
func integrate(f func(t, x float64) float64, x0 float64, grid []float64) []float64 {
	out := make([]float64, len(grid))
	out[0] = x0
	x := x0
	for i := 1; i < len(grid); i++ {
		h := (grid[i] - grid[i-1]) / refSubsteps
		t := grid[i-1]
		for k := 0; k < refSubsteps; k++ {
			k1 := f(t, x)
			k2 := f(t+h/2, x+h/2*k1)
			k3 := f(t+h/2, x+h/2*k2)
			k4 := f(t+h, x+h*k3)
			x += h / 6 * (k1 + 2*k2 + 2*k3 + k4)
			t += h
		}
		out[i] = x
	}
	return out
}

// HP1 constants, from the model text (paper Fig. 2).
const (
	hp1P      = 7.8
	hp1Eta    = 2.65
	hp1ThetaA = -10.0
	hp1X0     = 20.0 // start value of the indoor temperature x
)

// hp1Ref is the HP1 heat-pump model: der(x) = -(1/(R*Cp))*x +
// (P*eta/Cp)*u + thetaA/(R*Cp), y = P*u.
type hp1Ref struct{ Cp, R float64 }

func (m hp1Ref) simulate(u signal, x0 float64, grid []float64) (x, y []float64) {
	f := func(t, x float64) float64 {
		return -(1/(m.R*m.Cp))*x + (hp1P*hp1Eta/m.Cp)*u.at(t) + hp1ThetaA/(m.R*m.Cp)
	}
	x = integrate(f, x0, grid)
	y = make([]float64, len(grid))
	for i, t := range grid {
		y[i] = hp1P * u.at(t)
	}
	return x, y
}

// classroomRef is the classroom thermal network (Table 5).
type classroomRef struct{ shgc, tmass, RExt, occheff float64 }

type classroomInputs struct{ solrad, tout, occ, dpos, vpos signal }

func (m classroomRef) simulate(in classroomInputs, t0 float64, grid []float64) []float64 {
	f := func(tm, t float64) float64 {
		tout := in.tout.at(tm)
		return (m.shgc*in.solrad.at(tm)/1000 + m.occheff*in.occ.at(tm)*0.1 + (tout-t)/m.RExt +
			8*in.vpos.at(tm)/100 - 12*in.dpos.at(tm)/100*(t-tout)/10) / m.tmass * 10
	}
	return integrate(f, t0, grid)
}

// rmse is the root-mean-square difference of two equally long series.
func rmse(a, b []float64) float64 {
	sum := 0.0
	for i := range a {
		d := a[i] - b[i]
		sum += d * d
	}
	return math.Sqrt(sum / float64(len(a)))
}

// agg is the count, mean, minimum and maximum of a series — what the
// workloads' GROUP BY queries return per variable.
type agg struct{ n, mean, min, max float64 }

func aggregate(xs []float64) agg {
	a := agg{n: float64(len(xs)), min: math.Inf(1), max: math.Inf(-1)}
	for _, x := range xs {
		a.mean += x
		a.min = math.Min(a.min, x)
		a.max = math.Max(a.max, x)
	}
	a.mean /= a.n
	return a
}

// near reports whether got is within rel·|want| + abs of want.
func near(got, want, rel, abs float64) bool {
	return math.Abs(got-want) <= rel*math.Abs(want)+abs
}

// checkAgg compares an aggregate row from the engine with the reference.
// Simulated temperatures are checked to simTol °C, which bounds the
// engine's adaptive-solver error with a wide margin and is still far below
// any wrong parameter or input the checks must catch.
func checkAgg(what string, got, want agg, tol float64) error {
	if got.n != want.n {
		return fmt.Errorf("%s: %v rows, want %v", what, got.n, want.n)
	}
	for _, c := range []struct {
		name      string
		got, want float64
	}{{"avg", got.mean, want.mean}, {"min", got.min, want.min}, {"max", got.max, want.max}} {
		if !near(c.got, c.want, 0, tol) {
			return fmt.Errorf("%s: %s = %.6g, reference %.6g", what, c.name, c.got, c.want)
		}
	}
	return nil
}
