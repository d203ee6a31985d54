// Runtime CPU feature detection used to pick the widest usable SIMD path.
#pragma once

#include <string>

namespace sf {

/// Instruction-set level a kernel is implemented for.
enum class Isa { Scalar, Avx2, Avx512, Auto };

/// True if the running CPU supports AVX2 + FMA.
bool cpu_has_avx2();

/// True if the running CPU supports AVX-512F (and DQ, which our kernels use).
bool cpu_has_avx512();

/// Resolves Isa::Auto to the widest supported level; passes others through.
Isa resolve_isa(Isa requested);

/// SIMD width in doubles for an ISA level: Scalar 1, Avx2 4, Avx512 8.
/// Vector kernels exist at widths 4 and 8 only; Scalar holds just naive.
int isa_width(Isa isa);

const char* isa_name(Isa isa);

/// Number of hardware threads (OpenMP max threads).
int hardware_threads();

/// Last-level cache size in bytes: SF_LLC_BYTES if set, else the OS-reported
/// L3 (falling back to L2, then to the paper machine's 24.75 MB LLC when the
/// OS reports nothing, as in containers). The Tiling::Auto cost model
/// compares grid working sets against this.
long llc_bytes();

}  // namespace sf
