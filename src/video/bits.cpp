#include "video/bits.hpp"

namespace video {

void BitWriter::put_bits(std::uint64_t value, int count) {
  while (count > 0) {
    // Fill the current byte with as many of the remaining bits as fit.
    const int take = count < 8 - nbits_ ? count : 8 - nbits_;
    count -= take;
    const auto chunk =
        static_cast<unsigned>(value >> count) & ((1u << take) - 1u);
    cur_ = static_cast<std::uint8_t>((cur_ << take) | chunk);
    nbits_ += take;
    if (nbits_ == 8) {
      bytes_.push_back(cur_);
      cur_ = 0;
      nbits_ = 0;
    }
  }
}

void BitWriter::put_ue(std::uint32_t v) {
  // The code is len zeros followed by v + 1 in len + 1 bits.
  const std::uint64_t code = static_cast<std::uint64_t>(v) + 1;
  const int len = std::bit_width(code) - 1;
  if (2 * len + 1 <= 64) {
    put_bits(code, 2 * len + 1);
  } else {
    put_bits(0, len);
    put_bits(code, len + 1);
  }
}

void BitWriter::put_se(std::int32_t v) {
  // In 64 bits: 2 * v overflows an int32 for |v| > 2^30.
  const std::int64_t wide = v;
  put_ue(static_cast<std::uint32_t>(wide > 0 ? 2 * wide - 1 : -2 * wide));
}

std::vector<std::uint8_t> BitWriter::finish() {
  if (nbits_ > 0) {
    cur_ = static_cast<std::uint8_t>(cur_ << (8 - nbits_));
    bytes_.push_back(cur_);
    cur_ = 0;
    nbits_ = 0;
  }
  return std::move(bytes_);
}

void BitReader::refill_tail() {
  while (avail_ <= 56 && next_ < size_) {
    cache_ |= std::uint64_t{data_[next_++]} << (56 - avail_);
    avail_ += 8;
  }
}

void BitReader::throw_past_end() {
  next_ = size_;
  cache_ = 0;
  avail_ = 0;
  throw std::out_of_range("BitReader: past end of stream");
}

void BitReader::throw_bad_prefix() {
  // The prefix runs off the end of the stream before 33 zeros: that is a
  // truncation, not a malformed code.
  if (avail_ <= 32) throw_past_end();
  consume(33);
  throw std::out_of_range("BitReader: malformed ue code");
}

} // namespace video
