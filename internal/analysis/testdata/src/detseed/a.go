// Package seedfix exercises the detseed pass.
package seedfix

import (
	"os"
	"runtime"
	"time"

	"rtmlab/internal/rng"
)

type config struct{ Seed uint64 }

func fromConfigOK(c config) *rng.Rand { return rng.New(c.Seed) }

func fromParamOK(seed uint64) *rng.Rand { return rng.New(seed) }

func fromLiteralOK() *rng.Rand { return rng.New(42) }

func derivedOK(parent *rng.Rand) *rng.Rand { return rng.New(parent.Uint64()) }

func fromClock() *rng.Rand {
	return rng.New(uint64(time.Now().UnixNano())) // want `time\.Now`
}

func fromPid(r *rng.Rand) {
	r.Seed(uint64(os.Getpid())) // want `os\.Getpid`
}

func fromEnv() *rng.Rand {
	if v := os.Getenv("SEED"); v != "" {
		_ = v
	}
	return rng.New(uint64(len(os.Getenv("SEED")))) // want `os\.Getenv`
}

func fromHost() *rng.Rand {
	return rng.New(uint64(runtime.NumCPU())) // want `runtime\.NumCPU`
}

func suppressedOK() *rng.Rand {
	//rtmvet:ignore interactive demo; reproducibility intentionally not needed
	return rng.New(uint64(time.Now().UnixNano()))
}
