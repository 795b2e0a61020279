package kernels

import (
	"math/rand"
	"testing"
)

// TestGatherRunMatchesPortable drives the run gather directly against
// its portable reference for every run width, several chunk widths and
// image offsets, and tables that name the stage's first and last
// elements. Both write into a destination pre-filled with a marker, so
// a store wider than the run's 2·run bytes per tap pair shows up as a
// clobbered marker.
func TestGatherRunMatchesPortable(t *testing.T) {
	rng := rand.New(rand.NewSource(67))
	stage := new(GatherStage)
	for i := range stage {
		stage[i] = uint8(rng.Intn(256))
	}
	for run := 1; run <= 16; run++ {
		for _, b := range []int{run, run + 3, 64} {
			for _, kq := range []int{1, 2, 7} {
				j := rng.Intn(b - run + 1)
				src := (gatherSlots / b) - 1 // largest element index with (src+1)·b in the stage
				tab := make([]uint16, kq*32)
				for i := range tab {
					tab[i] = uint16(rng.Intn(src + 1))
				}
				tab[0], tab[len(tab)-31] = 0, uint16(src)
				want := make([]uint8, kq*32)
				got := make([]uint8, kq*32)
				for i := range want {
					want[i], got[i] = 0xAA, 0xAA
				}
				gatherRunGo(want, tab, stage, kq, b, j, run)
				gatherRun(got, tab, stage, kq, b, j, run)
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("run=%d b=%d kq=%d j=%d: byte %d: got %d, want %d",
							run, b, kq, j, i, got[i], want[i])
					}
				}
			}
		}
	}
}
