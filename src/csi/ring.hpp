// Fixed-capacity CSI frame ring buffer — the memory bound of the
// streaming pipeline.
//
// A FrameRing holds the last `capacity` frames of an unbounded stream.
// Pushing into a full ring evicts the oldest frame; storage is allocated
// once up front and frame payload buffers are recycled in place, so a
// stream of any length runs in O(capacity) memory with no steady-state
// allocation (after every slot has been touched once at each frame
// geometry).
//
// The ring is dimension-sticky: the first accepted frame pins
// (antenna_count, subcarrier_count), and every later push must match —
// a stream that changes geometry mid-flight is a broken capture, not a
// window boundary.
//
// window_into() materializes the newest `count` frames, oldest first,
// into a caller-owned CsiSeries whose frame vector is reused across
// calls — the adapter the windowed pipeline uses to hand a window to the
// batch feature path (and from there to CsiSoa) without per-window
// container churn.
#pragma once

#include <cstddef>
#include <cstdint>

#include "csi/frame.hpp"

namespace wimi::csi {

class FrameRing {
public:
    /// Ring with room for `capacity` frames (>= 1).
    explicit FrameRing(std::size_t capacity);

    std::size_t capacity() const { return slots_.size(); }

    /// Frames currently held: min(total_pushed, capacity).
    std::size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }
    bool full() const { return size_ == slots_.size(); }

    /// Frames ever pushed, including those since evicted.
    std::uint64_t total_pushed() const { return total_pushed_; }

    /// Frames evicted to make room: total_pushed() - size().
    std::uint64_t evicted() const { return total_pushed_ - size_; }

    /// Antenna/subcarrier geometry pinned by the first push (0 before).
    std::size_t antenna_count() const { return antennas_; }
    std::size_t subcarrier_count() const { return subcarriers_; }

    /// Appends one frame, evicting the oldest when full. Throws
    /// wimi::Error when the frame's dimensions do not match the pinned
    /// geometry (or are zero).
    void push(const CsiFrame& frame);

    /// The i-th held frame, 0 = oldest, size()-1 = newest. Bounds are
    /// checked.
    const CsiFrame& at(std::size_t i) const;

    /// Copies the newest `count` frames (<= size()) into `out.frames`,
    /// oldest first. `out` is resized and its existing frame buffers are
    /// reused when shapes match. Throws when count > size().
    void window_into(std::size_t count, CsiSeries& out) const;

    /// Convenience: freshly allocated window of the newest `count` frames.
    CsiSeries window(std::size_t count) const;

    /// Forgets all held frames (geometry pin and counters survive).
    void clear();

private:
    std::vector<CsiFrame> slots_;
    std::size_t head_ = 0;  // slot of the oldest held frame
    std::size_t size_ = 0;
    std::uint64_t total_pushed_ = 0;
    std::size_t antennas_ = 0;
    std::size_t subcarriers_ = 0;
};

}  // namespace wimi::csi
