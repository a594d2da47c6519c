// compiled_detail.hpp — internal detail header for CompiledPiecewise's
// vector Horner runs (poly/compiled.cpp), shared with the SIMD-specialized
// translation units (compiled_simd_avx2.cpp / compiled_simd_avx512.cpp).
//
// `rows` is the plan's replicated-coefficient layout: coefficient i of the
// piece lives at rows[i · util::simd::kCoeffLanes], replicated across all
// kCoeffLanes slots, so a W-wide unaligned load from the row start yields
// the broadcast [c_i, …, c_i] without a gather or a per-iteration broadcast
// shuffle. Lanes run ACROSS GRID POINTS of one piece-run: lane l executes
// `r = r * x_l + c_i` in exactly the scalar Horner order (no FMA — the wide
// TUs compile with -ffp-contract=off), so every output is bitwise identical
// to CompiledPiecewise::eval and the certificate's γ_{2d} Horner-roundoff
// term covers the vector evaluation order verbatim (docs/performance.md §4).
// The n % W trailing points run the pinned scalar tail loop.
//
// The template sits in an anonymous namespace ON PURPOSE: each
// differently-flagged translation unit (baseline, -mavx2, -mavx512f) must
// keep its own internal-linkage instantiations. With external linkage the
// linker could merge e.g. the Pack<2> instantiation across TUs and keep the
// AVX-compiled copy, executing AVX instructions on the scalar dispatch path
// and crashing pre-AVX hosts.
#pragma once

#include <cstddef>

#include "util/simd.hpp"

namespace ddm::poly::detail {

#if defined(DDM_SIMD_COMPILED_AVX2)
/// horner_run_pack<Pack<4>>, instantiated in compiled_simd_avx2.cpp
/// (compiled with -mavx2 -ffp-contract=off). Call only when
/// util::simd::dispatch_width() says the host executes AVX2.
void horner_run_avx2(const double* rows, std::size_t coeff_count, const double* xs,
                     double* out, std::size_t n);
#endif
#if defined(DDM_SIMD_COMPILED_AVX512)
/// horner_run_pack<Pack<8>>, instantiated in compiled_simd_avx512.cpp
/// (compiled with -mavx512f -ffp-contract=off).
void horner_run_avx512(const double* rows, std::size_t coeff_count, const double* xs,
                       double* out, std::size_t n);
#endif

namespace {

/// Horner-evaluates one piece's replicated coefficient rows at the `n`
/// points `xs`, W lanes at a time, writing out[p] bitwise equal to the
/// scalar horner(coeffs, x) of poly/compiled.cpp.
template <class P>
void horner_run_pack(const double* rows, std::size_t coeff_count, const double* xs,
                     double* out, std::size_t n) {
  constexpr std::size_t W = P::width;
  const std::size_t vec = n - n % W;
  for (std::size_t p = 0; p < vec; p += W) {
    const P x = P::load(xs + p);
    P r = P::broadcast(0.0);
    for (std::size_t i = coeff_count; i-- > 0;) {
      r = r * x + P::load(rows + i * util::simd::kCoeffLanes);
    }
    r.store(out + p);
  }
  for (std::size_t p = vec; p < n; ++p) {
    const double x = xs[p];
    double r = 0.0;
    for (std::size_t i = coeff_count; i-- > 0;) {
      r = r * x + rows[i * util::simd::kCoeffLanes];
    }
    out[p] = r;
  }
}

}  // namespace

}  // namespace ddm::poly::detail
