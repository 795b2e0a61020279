//go:build !amd64 || noasm

package kernels

// gatherRun is the portable sibling of the SSE2 run gather.
func gatherRun(d []uint8, t []uint16, stage *GatherStage, kq, b, j, run int) {
	gatherRunGo(d, t, stage, kq, b, j, run)
}
