#include "staged.hpp"

#include <algorithm>
#include <cstring>

#include "bits/bitshuffle.hpp"
#include "bits/delta.hpp"
#include "bits/zerobyte.hpp"
#include "core/chunked.hpp"
#include "core/pipeline.hpp"
#include "core/quantizers.hpp"

namespace pb {
namespace {

using repro::Bytes;
using repro::EbType;
using repro::u32;
using repro::u8;
namespace pfpl = repro::pfpl;

template <typename T, typename Q>
void encode_chunks(const T* data, const pfpl::Header& h, const Q& q, const char* qspan,
                   Tracer& tr, StagedCounts& cnt, std::vector<u32>& sizes,
                   std::vector<Bytes>& payloads) {
  using Bits = typename repro::fpmath::FloatTraits<T>::Bits;
  constexpr std::size_t cw = pfpl::chunk_words<Bits>();
  std::vector<Bits> words(cw);
  std::vector<Bits> buf(pfpl::padded_words<Bits>(cw));
  for (std::size_t c = 0; c < h.chunk_count; ++c) {
    const std::size_t beg = c * cw;
    const std::size_t k = std::min<std::size_t>(cw, h.value_count - beg);
    const std::size_t padded = pfpl::padded_words<Bits>(k);
    const std::size_t kb = k * sizeof(Bits), pb = padded * sizeof(Bits);
    {
      Tracer::Scope s(tr, qspan);
      for (std::size_t i = 0; i < k; ++i) words[i] = q.encode(data[beg + i]);
    }
    std::copy(words.begin(), words.begin() + static_cast<std::ptrdiff_t>(k), buf.begin());
    std::fill(buf.begin() + static_cast<std::ptrdiff_t>(k),
              buf.begin() + static_cast<std::ptrdiff_t>(padded), Bits{0});
    {
      Tracer::Scope s(tr, kSpanDeltaNb);
      repro::bits::delta_negabinary_encode(buf.data(), padded);
    }
    {
      Tracer::Scope s(tr, kSpanBitshuffle);
      repro::bits::bitshuffle(buf.data(), padded);
    }
    Bytes& out = payloads[c];
    {
      Tracer::Scope s(tr, kSpanZerobyteEnc);
      repro::bits::zerobyte_encode(reinterpret_cast<const u8*>(buf.data()), pb, out);
    }
    cnt.moved_bytes += 2.0 * kb + 4.0 * pb + pb + static_cast<double>(out.size());
    const bool compressed = out.size() < kb;
    if (!compressed) {
      Tracer::Scope s(tr, kSpanRawFallback);
      const u8* w = reinterpret_cast<const u8*>(words.data());
      out.assign(w, w + kb);
      cnt.moved_bytes += 2.0 * kb;
      ++cnt.raw_chunks;
    }
    ++cnt.chunks;
    sizes[c] = static_cast<u32>(out.size()) | (compressed ? 0u : pfpl::kRawChunkFlag);
  }
  cnt.in_bytes += h.value_count * sizeof(T);
}

template <typename T>
Bytes compress_typed(const repro::Field& in, const pfpl::Params& p, Tracer& tr,
                     StagedCounts& cnt) {
  pfpl::Header h;
  {
    Tracer::Scope s(tr, kSpanPlan);
    h = pfpl::plan_header(in, p);
  }
  std::vector<u32> sizes(h.chunk_count, 0);
  std::vector<Bytes> payloads(h.chunk_count);
  const T* data = static_cast<const T*>(in.data);
  if (h.eb_type == EbType::REL) {
    pfpl::RelQuantizer<T> q(h.eps, h.recon_param);
    encode_chunks(data, h, q, kSpanQuantizeRel, tr, cnt, sizes, payloads);
  } else {
    pfpl::AbsQuantizer<T> q(h.recon_param);
    encode_chunks(data, h, q, h.eb_type == EbType::NOA ? kSpanQuantizeNoa : kSpanQuantizeAbs,
                  tr, cnt, sizes, payloads);
  }
  Tracer::Scope s(tr, kSpanAssemble);
  return pfpl::assemble_stream(h, sizes, payloads, pfpl::Executor::Serial);
}

template <typename T, typename Q>
std::vector<u8> decompress_typed(const Bytes& in, const pfpl::Header& h, const Q& q,
                                 Tracer& tr, StagedCounts& cnt) {
  using Bits = typename repro::fpmath::FloatTraits<T>::Bits;
  constexpr std::size_t cw = pfpl::chunk_words<Bits>();
  const std::size_t n = h.value_count, nchunks = h.chunk_count;
  if (n / cw + (n % cw != 0 ? 1 : 0) != nchunks)
    throw repro::CompressionError("staged: header value/chunk count mismatch");
  const std::size_t table = sizeof(pfpl::Header);
  if (in.size() < table + nchunks * sizeof(u32))
    throw repro::CompressionError("staged: truncated chunk table");
  std::vector<u32> sizes(nchunks);
  std::memcpy(sizes.data(), in.data() + table, nchunks * sizeof(u32));
  std::vector<u8> out(n * sizeof(T));
  T* values = reinterpret_cast<T*>(out.data());
  std::vector<Bits> buf(pfpl::padded_words<Bits>(cw));
  std::size_t off = table + nchunks * sizeof(u32);
  for (std::size_t c = 0; c < nchunks; ++c) {
    const std::size_t beg = c * cw;
    const std::size_t k = std::min(cw, n - beg);
    const std::size_t padded = pfpl::padded_words<Bits>(k);
    const std::size_t kb = k * sizeof(Bits), pb = padded * sizeof(Bits);
    const std::size_t csize = sizes[c] & ~pfpl::kRawChunkFlag;
    if (off + csize > in.size()) throw repro::CompressionError("staged: truncated chunk");
    if (sizes[c] & pfpl::kRawChunkFlag) {
      if (csize < kb) throw repro::CompressionError("staged: truncated raw chunk");
      std::memcpy(buf.data(), in.data() + off, kb);
      cnt.moved_bytes += 2.0 * kb;
    } else {
      {
        Tracer::Scope s(tr, kSpanZerobyteDec);
        repro::bits::zerobyte_decode(in.data() + off, csize, reinterpret_cast<u8*>(buf.data()),
                                     pb);
      }
      {
        Tracer::Scope s(tr, kSpanBitshuffleDec);
        repro::bits::bitshuffle(buf.data(), padded);
      }
      {
        Tracer::Scope s(tr, kSpanDeltaNbDec);
        repro::bits::delta_negabinary_decode(buf.data(), padded);
      }
      cnt.moved_bytes += static_cast<double>(csize) + 5.0 * pb;
    }
    {
      Tracer::Scope s(tr, kSpanDequantize);
      for (std::size_t i = 0; i < k; ++i) values[beg + i] = q.decode(buf[i]);
    }
    cnt.moved_bytes += 2.0 * kb;
    off += csize;
  }
  cnt.out_bytes += out.size();
  return out;
}

template <typename T>
std::vector<u8> decompress_eb(const Bytes& in, const pfpl::Header& h, Tracer& tr,
                              StagedCounts& cnt) {
  if (h.eb_type == EbType::REL) {
    pfpl::RelQuantizer<T> q(h.eps, h.recon_param);
    return decompress_typed<T>(in, h, q, tr, cnt);
  }
  pfpl::AbsQuantizer<T> q(h.recon_param);
  return decompress_typed<T>(in, h, q, tr, cnt);
}

}  // namespace

Bytes staged_compress(const repro::Field& in, const pfpl::Params& p, Tracer& tr,
                      StagedCounts& counts) {
  if (in.dtype == repro::DType::F32) return compress_typed<float>(in, p, tr, counts);
  return compress_typed<double>(in, p, tr, counts);
}

std::vector<u8> staged_decompress(const Bytes& stream, Tracer& tr, StagedCounts& counts) {
  const pfpl::Header h = pfpl::peek_header(stream);
  if (h.dtype == repro::DType::F32) return decompress_eb<float>(stream, h, tr, counts);
  return decompress_eb<double>(stream, h, tr, counts);
}

}  // namespace pb
