//go:build amd64 && !noasm

package kernels

// Implemented in gather_amd64.s.

// gatherRun writes one pixel's run of batched columns (see
// ConvGather.Pack): for every tap pair q < kq, the run bytes staged for
// the element t[32q] names (images j … j+run−1, contiguous on the
// stage) and the run bytes for t[32q+1] are interleaved into the
// 2-byte column slots d[32q : 32q+2·run]. 1 ≤ run ≤ 16. Each run is
// read as one 16-byte load, which is why GatherStage carries 16 bytes
// of slack past its slots. SSE2 only, which every amd64 CPU has.
//
//go:noescape
func gatherRun(d []uint8, t []uint16, stage *GatherStage, kq, b, j, run int)
