package kernels

import "repro/internal/obs"

// Dispatch counters for the kernels with hardware-specific twins:
// GemvF64 either enters the AVX2+FMA microkernel or stays on the
// portable scalar loop, and Gemm8Rows likewise splits between the AVX2
// tile kernel and gemm8tileGo. The handles are package-global (the
// kernels are free functions, there is no per-plan state to hang them
// off) and nil until SetObs wires them, so the disabled path costs one
// predictable nil-check per kernel call — never per element.
var (
	gemvF64ASM      *obs.Counter
	gemvF64Portable *obs.Counter
	gemm8ASM        *obs.Counter
	gemm8Portable   *obs.Counter
)

// SetObs wires (or, with nil, unwires) the package's dispatch counters
// to a registry. Process-global, like the kernels themselves; call it
// once at startup, before inference traffic.
func SetObs(r *obs.Registry) {
	if r == nil {
		gemvF64ASM, gemvF64Portable = nil, nil
		gemm8ASM, gemm8Portable = nil, nil
		return
	}
	r.Help("trq_kernels_gemvf64_dispatch_total", "GemvF64 calls by kernel implementation")
	gemvF64ASM = r.Counter("trq_kernels_gemvf64_dispatch_total", "path", "asm")
	gemvF64Portable = r.Counter("trq_kernels_gemvf64_dispatch_total", "path", "portable")
	r.Help("trq_kernels_gemm8_dispatch_total", "Gemm8Rows calls by kernel implementation")
	gemm8ASM = r.Counter("trq_kernels_gemm8_dispatch_total", "path", "asm")
	gemm8Portable = r.Counter("trq_kernels_gemm8_dispatch_total", "path", "portable")
}

// Features lists the CPU capabilities the kernel dispatchers detected
// at startup, in stable order — the attribution stamp bench reports
// embed next to the git revision. It names only features some kernel
// dispatches on.
func Features() []string {
	var fs []string
	if haveFMA {
		fs = append(fs, "avx2", "fma")
	}
	return fs
}
