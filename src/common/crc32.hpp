// CRC-32 (IEEE 802.3 / zlib polynomial 0xEDB88320).
//
// Integrity checksum for the WCSI v2 trace format and the wimi_serve wire
// records: every header, frame and record carries a CRC so a flipped bit
// or torn write is detected at read time instead of propagating garbage
// into the pipeline. The value matches zlib's crc32() and
// `python -c "import zlib; zlib.crc32(b'...')"`, so traces can be checked
// by external tooling.
//
// The CRC sits on the request path, not only on disk: a kPredictSeries
// request is checksummed twice on each side of the socket (the record,
// then every WCSI frame inside it). A byte-at-a-time table loop ran at
// ~330 MB/s and was about 80% of that series codec, so this is portable
// slicing-by-8 (eight 256-entry tables, eight bytes per step): ~1.7 GB/s
// on a 4-vCPU Xeon VM with the stock SSE2 build, no ISA dispatch.
#pragma once

#include <cstddef>
#include <cstdint>

namespace wimi {

/// One-shot CRC-32 of `size` bytes at `data` (initial value 0, standard
/// reflected polynomial, final XOR — identical to zlib's crc32()).
std::uint32_t crc32(const void* data, std::size_t size) noexcept;

}  // namespace wimi
