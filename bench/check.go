package main

import (
	"bytes"
	"fmt"
	"io"
	"strings"

	"rtmlab/internal/harness"
	"rtmlab/internal/stamp"
)

// wantClaims is the number of headline claims harness.Claims checks.
const wantClaims = 11

// checkClaims is the benchmark's check phase: it runs the paper's
// headline-claim check once at Test scale on two workers and requires
// every claim to be reproduced.
func checkClaims(w io.Writer) error {
	var buf bytes.Buffer
	harness.Claims(&buf, harness.Options{Scale: stamp.Test, Seeds: 1, Jobs: 2})
	if _, err := w.Write(buf.Bytes()); err != nil {
		return err
	}
	ok, rows := 0, 0
	for _, line := range strings.Split(buf.String(), "\n") {
		switch {
		case strings.Contains(line, "REPRODUCED"):
			ok++
			rows++
		case strings.Contains(line, "DEVIATES"):
			rows++
		}
	}
	fmt.Fprintf(w, "claims: %d/%d REPRODUCED\n", ok, rows)
	if ok != wantClaims || rows != wantClaims {
		return fmt.Errorf("check phase: %d of %d claims reproduced, want %d of %d", ok, rows, wantClaims, wantClaims)
	}
	return nil
}
