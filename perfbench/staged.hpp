// The codec re-run as its public steps, one span per layer call.
//
// staged_compress drives pfpl::plan_header, the quantizer classes of
// core/quantizers.hpp, bits::delta_negabinary_encode, bits::bitshuffle,
// bits::zerobyte_encode (with the raw-chunk fallback of core/pipeline.hpp)
// and pfpl::assemble_stream; staged_decompress drives the inverse steps. The
// traced run checks that the staged stream equals pfpl::compress's output,
// so the per-layer times are times of the code that produced those bytes.
#pragma once

#include <vector>

#include "common/types.hpp"
#include "core/pfpl.hpp"
#include "trace.hpp"

namespace pb {

/// Counts gathered by the staged runs.
struct StagedCounts {
  u64 chunks = 0;        ///< chunks encoded
  u64 raw_chunks = 0;    ///< chunks stored raw (did not shrink)
  u64 in_bytes = 0;      ///< raw scalar bytes compressed
  u64 out_bytes = 0;     ///< raw scalar bytes decompressed
  double moved_bytes = 0;  ///< computed bytes read + written by the kernels
};

/// Span names of the staged layers, in pipeline order.
inline constexpr const char* kSpanPlan = "core.plan";
inline constexpr const char* kSpanQuantizeAbs = "core.quantize_abs";
inline constexpr const char* kSpanQuantizeRel = "core.quantize_rel";
inline constexpr const char* kSpanQuantizeNoa = "core.quantize_noa";
inline constexpr const char* kSpanDeltaNb = "bits.delta_nb";
inline constexpr const char* kSpanBitshuffle = "bits.bitshuffle";
inline constexpr const char* kSpanZerobyteEnc = "bits.zerobyte_enc";
inline constexpr const char* kSpanRawFallback = "core.raw_fallback";
inline constexpr const char* kSpanAssemble = "core.assemble";
inline constexpr const char* kSpanZerobyteDec = "bits.zerobyte_dec";
inline constexpr const char* kSpanBitshuffleDec = "bits.bitshuffle_dec";
inline constexpr const char* kSpanDeltaNbDec = "bits.delta_nb_dec";
inline constexpr const char* kSpanDequantize = "core.dequantize";

/// Compress `in` under `p` (Serial) step by step; the result equals
/// pfpl::compress(in, p) byte for byte.
repro::Bytes staged_compress(const repro::Field& in, const repro::pfpl::Params& p, Tracer& tr,
                             StagedCounts& counts);

/// Decompress a PFPL stream step by step; the result equals
/// pfpl::decompress(stream). Throws repro::CompressionError on a malformed
/// stream.
std::vector<repro::u8> staged_decompress(const repro::Bytes& stream, Tracer& tr,
                                         StagedCounts& counts);

}  // namespace pb
