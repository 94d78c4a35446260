// Word-wise difference coding (delta modulation) — first lossless stage.
//
// Each word is replaced by itself minus the previous word (the first word is
// kept, i.e. differenced against 0), with wraparound arithmetic so the
// transform is a bijection regardless of the word values. Combined with
// negabinary conversion this turns slowly varying bin-number sequences into
// words with long runs of leading zero bits (paper Figure 3).
#pragma once

#include <cstddef>

#include "bits/negabinary.hpp"
#include "common/types.hpp"

namespace repro::bits {

/// In-place forward delta + negabinary over `n` words.
template <typename U>
inline void delta_negabinary_encode(U* w, std::size_t n) {
  U prev = 0;
  for (std::size_t i = 0; i < n; ++i) {
    U cur = w[i];
    w[i] = to_negabinary<U>(static_cast<U>(cur - prev));
    prev = cur;
  }
}

/// Forward delta + negabinary of `n` words from `in` to a distinct `out`.
/// Each word depends only on its input and its predecessor, so the loop
/// vectorizes.
template <typename U>
inline void delta_negabinary_encode(const U* in, U* out, std::size_t n) {
  if (n == 0) return;
  out[0] = to_negabinary<U>(in[0]);
  for (std::size_t i = 1; i < n; ++i) out[i] = to_negabinary<U>(static_cast<U>(in[i] - in[i - 1]));
}

/// Inverse, `in` to `out` (which may be the same buffer): negabinary decode
/// + prefix-sum reconstruction. Causal, so decoding a prefix of the words
/// yields that prefix of the values.
template <typename U>
inline void delta_negabinary_decode(const U* in, U* out, std::size_t n) {
  U prev = 0;
  for (std::size_t i = 0; i < n; ++i) {
    prev = static_cast<U>(prev + from_negabinary<U>(in[i]));
    out[i] = prev;
  }
}

/// In-place inverse.
template <typename U>
inline void delta_negabinary_decode(U* w, std::size_t n) {
  delta_negabinary_decode(w, w, n);
}

}  // namespace repro::bits
