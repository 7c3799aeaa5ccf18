package main

// scale sets the sizes of the generated inputs. defaultScale is the
// benchmark; the self-test runs tinyScale.
type scale struct {
	setups     map[string]int // set-ups per run by workload
	setupBatch map[string]int // setup_s is the median over batches of this many set-ups of their mean

	// calibrate
	calibHours int // length of every calibration data set, hours
	datasets   int // HP1 fleets, and classrooms, calibrated per round
	fleet      int // HP1 houses calibrated by one fleet fmu_parest

	// analytics
	houses     int // HP1 houses, each with its own month of measurements
	monthHours int
	whatifs    int // instances the what-if queries re-parameterise
	years      int // the history table holds years × yearHours rows
	yearHours  int
	deck       map[string]int // query kinds per round of the mix

	// serve
	serveHours int            // rows of the served history table
	rangeRows  int            // rows of one streamed range read
	serveDeck  map[string]int // operation kinds per round of one client; "write" a multiple of serveTxEvery

	probes int // repetitions of each per-layer probe
}

var defaultScale = scale{
	setups:     map[string]int{"calibrate": 90, "analytics": 5, "serve": 5},
	setupBatch: map[string]int{"calibrate": 10, "analytics": 1, "serve": 1},
	calibHours: 24,
	datasets:   6,
	fleet:      5,
	houses:     8,
	monthHours: 720,
	whatifs:    4,
	years:      12,
	yearHours:  8760,
	deck:       map[string]int{"predict": 8, "fleet": 4, "whatif": 4, "history": 4},
	serveHours: 8760,
	rangeRows:  3000,
	serveDeck:  map[string]int{"read": 24, "write": 12, "simulate": 4, "range": 1},
	probes:     20,
}

var tinyScale = scale{
	setups:     map[string]int{"calibrate": 4, "analytics": 2, "serve": 2},
	setupBatch: map[string]int{"calibrate": 2, "analytics": 1, "serve": 1},
	calibHours: 12,
	datasets:   1,
	fleet:      2,
	houses:     2,
	monthHours: 48,
	whatifs:    2,
	years:      2,
	yearHours:  800,
	deck:       map[string]int{"predict": 2, "fleet": 1, "whatif": 1, "history": 1},
	serveHours: 400,
	rangeRows:  100,
	serveDeck:  map[string]int{"read": 2, "write": serveTxEvery, "simulate": 1, "range": 1},
	probes:     2,
}

// subSeed derives the seed of the k-th generated dataset from the run seed,
// so that every dataset differs and none gets the generator's 0 default.
func subSeed(seed int64, k int) int64 {
	s := seed*1_000_003 + int64(k) + 1
	if s == 0 {
		s = 1
	}
	return s
}
