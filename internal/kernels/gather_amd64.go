//go:build amd64 && !noasm

package kernels

// Implemented in gather_amd64.s. The routines are SSE2 only, which
// every amd64 CPU has, so none needs a CPU gate.

// gatherRun writes one run segment of a conv's packed B panels (see
// ConvGather.Pack and gatherRunGo, its reference): for every tap pair
// q, cols 2-byte column slots at d[32q:] interleaving the w staged bytes
// at base + taps[2q]·b and base + taps[2q+1]·b, with 128 in the slots
// past w and in the pad tap of an odd len(taps). Each run segment is
// read as one 16-byte load, which is why GatherStage carries 16 bytes
// of slack past its MaxGatherSrc bytes.
//
//go:noescape
func gatherRun(d []uint8, stage *GatherStage, taps []int32, b, base, w, cols int)

// offsetRows is the stage fill and OffsetU8's loop (see offsetRowsGo,
// its reference): c·h rows of n codes converted to offset-u8 bytes, 16
// at a time, with the 128 borders written in the same pass. c, h ≥ 1.
//
//go:noescape
func offsetRows(d []uint8, src []int32, c, h, n, side, top int)

// offsetPhase is the strided stage fill (see offsetPhaseGo, its
// reference): rows of px pixels of b codes, each pixel converted to b
// offset-u8 bytes by packed SSE2 conversions, with a branch-free pixel
// loop for each width up to 8.
//
//go:noescape
func offsetPhase(d []uint8, src []int32, rows, px, b, step, dstRow, srcRow int)
