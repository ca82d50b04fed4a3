package main

import (
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/service"
)

// TestSmoke runs the -smoke drive under the default auto oracle, so
// `go test ./...` fails whenever a routing change moves one of its
// requests or breaks one of its exact counter contracts.
func TestSmoke(t *testing.T) {
	reg := obs.NewRegistry()
	core.SetObserver(reg)
	defer core.SetObserver(nil)
	if err := runSmoke(service.Config{Oracle: "auto", Obs: reg}, reg); err != nil {
		t.Fatal(err)
	}
}
