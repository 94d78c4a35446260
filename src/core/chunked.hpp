// Chunk-level compression primitives.
//
// PFPL's chunks are fully independent (paper Section III-E): once the header
// is planned — which fixes the quantizer constants, including the NOA range
// reduction — every chunk can be encoded by any thread in any order and the
// assembled stream is byte-identical to the one-shot pfpl::compress(). These
// three functions are that decomposition; perfbench and the tests drive them
// directly, and any scheduler can run the loop through
// compress(in, p, for_each) instead of re-implementing it:
//
//   Header h = plan_header(field, params);          // sequential, cheap
//   for each chunk c (any order, any thread):
//     sizes[c] = encode_chunk(field, h, c, exec, payloads[c]);
//   Bytes out = assemble_stream(h, sizes, payloads, exec);
//
// pfpl::compress() runs exactly this loop, with the executor's (or the
// caller's) for_each as the "for each chunk".
#pragma once

#include <vector>

#include "common/types.hpp"
#include "core/format.hpp"
#include "core/pfpl.hpp"

namespace repro::pfpl {

/// Scalars covered by one chunk of this dtype (4096 for f32, 2048 for f64).
std::size_t chunk_values(DType dtype);

/// Plan a compression job: validate the bound, resolve recon_param (for NOA
/// this runs the sequential finite-range reduction over the whole field) and
/// fill value_count/chunk_count. Throws CompressionError on invalid bounds.
Header plan_header(const Field& in, const Params& p);

/// Encode chunk `c` (in [0, h.chunk_count)) of `in` under plan `h`: quantize
/// the chunk's slice and run the lossless pipeline, appending the payload to
/// `out`. Returns the chunk-table size word (kRawChunkFlag set when the chunk
/// is stored raw). Thread-safe for distinct `out` buffers.
u32 encode_chunk(const Field& in, const Header& h, std::size_t c, Executor exec,
                 std::vector<u8>& out);

/// Concatenate header, chunk table, and payloads into the final stream —
/// byte-identical to one-shot compress() for the same plan and chunk order.
Bytes assemble_stream(const Header& h, const std::vector<u32>& sizes,
                      const std::vector<Bytes>& payloads, Executor exec);

}  // namespace repro::pfpl
