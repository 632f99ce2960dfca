package place_test

import (
	"context"
	"errors"
	"testing"
	"time"

	"agingfp/internal/arch"
	"agingfp/internal/bench"
	"agingfp/internal/place"
)

// TestPlaceContextCanceled cancels a placement that needs the annealing
// repair, 100 ms in, and requires context.Canceled back promptly rather
// than after the walk finishes.
func TestPlaceContextCanceled(t *testing.T) {
	d, err := bench.Synthesize(bench.Spec{
		Name: "slowpoke", Contexts: 8, Fabric: arch.Fabric{W: 12, H: 12},
		TotalOps: 900, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	time.AfterFunc(100*time.Millisecond, cancel)
	start := time.Now()
	_, err = place.PlaceContext(ctx, d, place.DefaultConfig())
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("PlaceContext after cancel: err = %v, want context.Canceled", err)
	}
	if late := time.Since(start) - 100*time.Millisecond; late > time.Second {
		t.Fatalf("PlaceContext returned %v after the cancel", late)
	}
	t.Logf("returned %v after the cancel", time.Since(start)-100*time.Millisecond)
}
