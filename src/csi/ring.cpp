#include "csi/ring.hpp"

#include <string>

#include "common/error.hpp"

namespace wimi::csi {

FrameRing::FrameRing(std::size_t capacity) {
    ensure(capacity >= 1, "FrameRing: capacity must be >= 1");
    slots_.resize(capacity);
}

void FrameRing::push(const CsiFrame& frame) {
    ensure(frame.antenna_count() >= 1 && frame.subcarrier_count() >= 1,
           "FrameRing::push: empty frame");
    if (antennas_ == 0) {
        antennas_ = frame.antenna_count();
        subcarriers_ = frame.subcarrier_count();
    } else {
        ensure(frame.antenna_count() == antennas_ &&
                   frame.subcarrier_count() == subcarriers_,
               "FrameRing::push: frame geometry " +
                   std::to_string(frame.antenna_count()) + "x" +
                   std::to_string(frame.subcarrier_count()) +
                   " does not match ring geometry " +
                   std::to_string(antennas_) + "x" +
                   std::to_string(subcarriers_));
    }
    const std::size_t capacity = slots_.size();
    if (size_ == capacity) {
        // Overwrite the oldest slot in place; copy-assignment reuses the
        // slot's payload vector when shapes match.
        slots_[head_] = frame;
        head_ = (head_ + 1) % capacity;
    } else {
        slots_[(head_ + size_) % capacity] = frame;
        ++size_;
    }
    ++total_pushed_;
}

const CsiFrame& FrameRing::at(std::size_t i) const {
    ensure(i < size_, "FrameRing::at: index out of range");
    return slots_[(head_ + i) % slots_.size()];
}

void FrameRing::window_into(std::size_t count, CsiSeries& out) const {
    ensure(count <= size_,
           "FrameRing::window_into: window larger than held frames");
    out.frames.resize(count);
    const std::size_t first = size_ - count;  // newest `count` frames
    for (std::size_t i = 0; i < count; ++i) {
        out.frames[i] = at(first + i);
    }
}

CsiSeries FrameRing::window(std::size_t count) const {
    CsiSeries out;
    window_into(count, out);
    return out;
}

void FrameRing::clear() {
    head_ = 0;
    size_ = 0;
}

}  // namespace wimi::csi
