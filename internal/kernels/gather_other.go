//go:build !amd64 || noasm

package kernels

// gatherRun is the portable sibling of the SSE2 run gather.
func gatherRun(d []uint8, stage *GatherStage, taps []int32, b, base, w, cols int) {
	gatherRunGo(d, stage, taps, b, base, w, cols)
}

// offsetRows is the portable sibling of the SSE2 stage fill.
func offsetRows(d []uint8, src []int32, c, h, n, side, top int) {
	offsetRowsGo(d, src, c, h, n, side, top)
}

// offsetPhase is the portable sibling of the strided stage fill.
func offsetPhase(d []uint8, src []int32, rows, px, b, step, dstRow, srcRow int) {
	offsetPhaseGo(d, src, rows, px, b, step, dstRow, srcRow)
}
