// Allocation bounds on the two per-record input paths: a wire record read
// from a socket and a frame pushed into the stream's ring. This executable
// replaces operator new with a counting one (alloc_counter.hpp), so each
// bound is an exact count or size that holds on any machine.
#include <gtest/gtest.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstddef>
#include <cstdint>
#include <vector>

#include "alloc_counter.hpp"
#include "common/error.hpp"
#include "csi/frame.hpp"
#include "csi/ring.hpp"
#include "serve/wire.hpp"

namespace wimi {
namespace {

using testutil::allocations;

// A 28-byte header that claims the largest body the protocol allows,
// then 10 bytes and a hangup: the reader's memory must follow the bytes
// that arrived, not the claim.
TEST(IoAllocations, StalledOversizeClaimCommitsNoMoreThanItReceives) {
    serve::wire::Request ping;
    ping.type = serve::wire::MessageType::kPing;
    std::vector<std::uint8_t> header = serve::wire::encode_request(ping);
    header.resize(serve::wire::kWireHeaderBytes);
    for (std::size_t i = 0; i < 8; ++i) {  // u64 body_bytes at offset 20
        header[20 + i] =
            static_cast<std::uint8_t>(serve::wire::kMaxBodyBytes >> (8 * i));
    }
    const std::vector<std::uint8_t> body(10, 0x5a);

    int fds[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    serve::wire::write_record(fds[0], header);
    serve::wire::write_record(fds[0], body);
    ::close(fds[0]);

    testutil::reset_largest_allocation();
    EXPECT_THROW(serve::wire::read_record(fds[1], "WSRQ"), Error);
    EXPECT_LE(testutil::largest_allocation(), std::size_t{1} << 20);
    ::close(fds[1]);
}

// Once every slot holds a frame of the ring's geometry, a push of a
// matching frame copies into the slot's buffer and allocates nothing:
// the error text for a mismatch is built only on a mismatch.
TEST(IoAllocations, WarmRingPushOfAMatchingFrameAllocatesNothing) {
    csi::FrameRing ring(4);
    const csi::CsiFrame frame(3, 30);
    for (int i = 0; i < 4; ++i) {
        ring.push(frame);
    }
    const std::size_t before = allocations();
    for (int i = 0; i < 16; ++i) {
        ring.push(frame);
    }
    EXPECT_EQ(allocations() - before, 0u);
    EXPECT_THROW(ring.push(csi::CsiFrame(2, 30)), Error);
}

}  // namespace
}  // namespace wimi
