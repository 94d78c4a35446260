// CRC-32 (IEEE 802.3: polynomial 0xEDB88320 reflected, init and xorout
// 0xFFFFFFFF) — the one integrity checksum of the repository. It guards
// PFPA archive entries and index (src/svc), PFPN frame payloads (src/net),
// PFPS chunk frames and manifests (src/store), PFPV headers, records and
// index (src/temporal) and PFSM shard maps (src/cluster).
//
// Two kernel tiers (bits/simd.hpp) give the same value for every input:
//   * scalar: one table lookup per byte;
//   * avx512: 128-bit PCLMULQDQ folds four 16-byte lanes, 64 bytes per step,
//     then reduces them to 32 bits (Barrett); inputs under 64 bytes and the
//     last n % 16 bytes go through the table loop.
#pragma once

#include <cstddef>

#include "common/types.hpp"

namespace repro::bits {

/// CRC-32 of data[0, n). Incremental form: pass the previous return value
/// as `seed` to continue, so crc32(b, nb, crc32(a, na)) is the CRC of a
/// followed by b.
u32 crc32(const void* data, std::size_t n, u32 seed = 0);

/// The tiers behind crc32, callable directly for differential tests. The
/// avx512 one may run only when simd_tier() == Tier::Avx512.
namespace scalar {
u32 crc32(const void* data, std::size_t n, u32 seed = 0);
}  // namespace scalar
namespace avx512 {
u32 crc32(const void* data, std::size_t n, u32 seed = 0);
}  // namespace avx512

}  // namespace repro::bits
