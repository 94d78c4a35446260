// Per-chunk lossless pipeline (paper Section III-D/E).
//
// The input stream of quantized words is split into 16 KiB chunks (4096 u32
// words or 2048 u64 words). Each chunk independently runs the fused pipeline
//   delta -> negabinary -> tile bit-shuffle -> zero-byte elimination
// so chunks can be compressed by different threads / thread blocks and the
// result is identical regardless of the execution order. A chunk whose
// compressed form would not shrink is stored raw and flagged, capping the
// worst-case expansion (paper: "the original chunk data is emitted and the
// chunk is flagged as uncompressed").
#pragma once

#include <algorithm>
#include <cstring>
#include <memory>
#include <vector>

#include "bits/bitshuffle.hpp"
#include "bits/delta.hpp"
#include "bits/zerobyte.hpp"
#include "common/types.hpp"
#include "obs/kernels.hpp"
#include "obs/trace.hpp"

namespace repro::pfpl {

/// Chunk size in bytes (paper Section III-E: "16 kB chunks").
inline constexpr std::size_t kChunkBytes = 16 * 1024;

template <typename U>
inline constexpr std::size_t chunk_words() {
  return kChunkBytes / sizeof(U);
}

/// Bit-shuffle tile size: 32 words for u32, 64 for u64 (warp granularity in
/// the CUDA code, Section III-E).
template <typename U>
inline constexpr std::size_t tile_words() {
  return sizeof(U) * 8;
}

template <typename U>
inline constexpr std::size_t padded_words(std::size_t k) {
  constexpr std::size_t t = tile_words<U>();
  return (k + t - 1) / t * t;
}

/// One thread's working memory for one chunk of word type U: the quantized
/// words, the transform buffer, and the zero-byte output. chunk_encode and
/// chunk_decode use `buf` and `out`; their callers may quantize into or
/// dequantize from `words`. Allocated once per thread on first use, so the
/// chunk path makes no heap allocation per chunk.
template <typename U>
struct ChunkScratch {
  alignas(64) U words[chunk_words<U>()];
  alignas(64) U buf[chunk_words<U>()];  // holds padded_words(k) for any k <= chunk_words
  alignas(64) u8 out[bits::zerobyte_bound(kChunkBytes)];
};

template <typename U>
ChunkScratch<U>& chunk_scratch() {
  thread_local const std::unique_ptr<ChunkScratch<U>> s = std::make_unique<ChunkScratch<U>>();
  return *s;
}

/// Compress `k` quantized words (k <= chunk_words<U>()) into `out`
/// (appended). Returns true if the chunk was stored compressed, false if
/// stored raw (caller records the flag in the chunk-size table).
template <typename U>
bool chunk_encode(const U* words, std::size_t k, std::vector<u8>& out) {
  if (k > chunk_words<U>()) throw CompressionError("chunk_encode: more words than one chunk");
  ChunkScratch<U>& s = chunk_scratch<U>();
  const std::size_t padded = padded_words<U>(k);
  // Kernel attribution charges each stage the logical chunk bytes (k words),
  // not the tile-padded footprint, so per-kernel MB/s is comparable across
  // stages and sums against core.bytes_in.
  const std::size_t kbytes = k * sizeof(U);
  {
    OBS_SPAN("pfpl.delta_nb");
    obs::KernelTimer kt(obs::Kernel::DeltaNb, kbytes);
    // The tile padding holds zero words: its first delta is -words[k-1],
    // the rest are 0 (negabinary 0 is 0).
    bits::delta_negabinary_encode(words, s.buf, k);
    std::fill(s.buf + k, s.buf + padded, U{0});
    if (k != 0 && k < padded)
      s.buf[k] = bits::to_negabinary<U>(static_cast<U>(U{0} - words[k - 1]));
  }
  {
    OBS_SPAN("pfpl.bitshuffle");
    obs::KernelTimer kt(obs::Kernel::Bitshuffle, kbytes);
    bits::bitshuffle(s.buf, padded);
  }
  std::size_t used;
  {
    OBS_SPAN("pfpl.zerobyte");
    obs::KernelTimer kt(obs::Kernel::Zerobyte, kbytes);
    used = bits::zerobyte_encode(reinterpret_cast<const u8*>(s.buf), padded * sizeof(U), s.out);
  }
  // Incompressible: store the raw words instead.
  const bool compressed = used < kbytes;
  const u8* src = compressed ? s.out : reinterpret_cast<const u8*>(words);
  out.insert(out.end(), src, src + (compressed ? used : kbytes));
  return compressed;
}

/// Decompress one chunk of `k` words (k <= chunk_words<U>()) from `in`
/// (`in_size` bytes available, `compressed` from the chunk-size-table flag).
/// Returns bytes consumed.
template <typename U>
std::size_t chunk_decode(const u8* in, std::size_t in_size, bool compressed, U* words,
                         std::size_t k) {
  if (k > chunk_words<U>()) throw CompressionError("chunk_decode: more words than one chunk");
  if (!compressed) {
    if (in_size < k * sizeof(U)) throw CompressionError("chunk_decode: truncated raw chunk");
    std::memcpy(words, in, k * sizeof(U));
    return k * sizeof(U);
  }
  U* buf = chunk_scratch<U>().buf;
  const std::size_t padded = padded_words<U>(k);
  const std::size_t kbytes = k * sizeof(U);
  std::size_t used;
  {
    obs::KernelTimer kt(obs::Kernel::ZerobyteDec, kbytes);
    used = bits::zerobyte_decode(in, in_size, reinterpret_cast<u8*>(buf), padded * sizeof(U));
  }
  {
    obs::KernelTimer kt(obs::Kernel::BitshuffleDec, kbytes);
    bits::bitshuffle(buf, padded);
  }
  {
    // Causal: the first k words decode without the padding.
    obs::KernelTimer kt(obs::Kernel::DeltaNbDec, kbytes);
    bits::delta_negabinary_decode(buf, words, k);
  }
  return used;
}

}  // namespace repro::pfpl
