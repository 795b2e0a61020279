// Fixture: feature-detection probes (CPUID/XGETBV declarations like
// cpuHasAVX2FMA in the kernels package) carry no //go:noescape
// directive and are exempt from the parity invariant — they have no
// portable twin to compare against; the build-tag seam supplies a
// constant on other platforms instead.
package b

func cpuHasVNNI() bool
