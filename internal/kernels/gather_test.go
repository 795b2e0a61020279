package kernels

import (
	"math/rand"
	"testing"
)

// TestGatherRunMatchesPortable drives the run gather directly against
// its portable reference: every segment start column of a panel, every
// run width that fits after it, with and without the panel's pad
// columns, odd and even tap counts (an odd one ends in the pad tap), and
// tap offsets that name the stage's first byte and the last byte of a
// full stage. Both write into a destination pre-filled with a marker and
// one tap pair longer than the routine's kq·32 bytes, so a store past
// the 2·cols bytes of a tap pair shows up as a clobbered marker.
func TestGatherRunMatchesPortable(t *testing.T) {
	rng := rand.New(rand.NewSource(67))
	stage := new(GatherStage)
	for i := range stage {
		stage[i] = uint8(rng.Intn(256))
	}
	for _, k := range []int{1, 2, 3, 8, 13} {
		kq := (k + 1) / 2
		want := make([]uint8, (kq+1)*32)
		got := make([]uint8, len(want))
		for _, b := range []int{1, 3, 64} {
			for c := 0; c < 16; c++ {
				for w := 1; w <= 16-c; w++ {
					for _, cols := range []int{w, 16 - c} {
						for _, lastByte := range []bool{false, true} {
							// A run of w bytes ending at the full stage's last
							// byte starts at top = MaxGatherSrc − w.
							top := MaxGatherSrc - w
							base := 0
							if lastByte {
								base = top % b
							}
							taps := make([]int32, k)
							for i := range taps {
								taps[i] = int32(rng.Intn((top-base)/b + 1))
							}
							if lastByte {
								taps[k-1] = int32((top - base) / b)
							} else {
								taps[0] = 0
							}
							for i := range want {
								want[i], got[i] = 0xAA, 0xAA
							}
							gatherRunGo(want[:kq*32], stage, taps, b, base, w, cols)
							gatherRun(got[:kq*32], stage, taps, b, base, w, cols)
							for i := range want {
								if got[i] != want[i] {
									t.Fatalf("k=%d b=%d col=%d w=%d cols=%d last=%v: byte %d: got %d, want %d",
										k, b, c, w, cols, lastByte, i, got[i], want[i])
								}
							}
						}
					}
				}
			}
		}
	}
}
