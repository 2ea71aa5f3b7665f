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

/// Incremental CRC-32 for streamed data.
///
///   Crc32 crc;
///   crc.update(header, header_size);
///   crc.update(payload, payload_size);
///   std::uint32_t checksum = crc.value();
class Crc32 {
public:
    /// Folds `size` bytes at `data` into the running checksum.
    void update(const void* data, std::size_t size) noexcept;

    /// Checksum of all bytes seen so far.
    std::uint32_t value() const noexcept { return state_ ^ 0xFFFFFFFFu; }

    /// Returns to the empty-input state.
    void reset() noexcept { state_ = 0xFFFFFFFFu; }

private:
    std::uint32_t state_ = 0xFFFFFFFFu;
};

}  // namespace wimi
