// bits.hpp — MSB-first bit I/O and Exp-Golomb coding.
//
// The entropy layer of the synthetic H.264-shaped codec: unsigned (ue) and
// signed (se) Exp-Golomb codes over an MSB-first bit stream, exactly the
// syntax-element coding family H.264 uses outside CABAC.  The entropy-decode
// pipeline stage spends its time here, so neither side loops over single
// bits: the writer packs chunks into the current byte, and the reader serves
// every read from a 64-bit cache.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <vector>

namespace video {

class BitWriter {
 public:
  /// Appends the lowest `count` bits of `value`, MSB first.
  /// `count` must be in [0, 64].
  void put_bits(std::uint64_t value, int count);

  /// Unsigned Exp-Golomb, covering the whole uint32 range (ue(2^32-1) is
  /// the 65-bit code 0^32 1 0^32).
  void put_ue(std::uint32_t v);

  /// Signed Exp-Golomb (H.264 mapping: 1, -1, 2, -2, ...).
  void put_se(std::int32_t v);

  /// Flushes partial bits (zero padding) and returns the byte stream.
  [[nodiscard]] std::vector<std::uint8_t> finish();

  /// Bits written so far (before padding).
  [[nodiscard]] std::size_t bit_count() const {
    return bytes_.size() * 8 + static_cast<std::size_t>(nbits_);
  }

 private:
  std::vector<std::uint8_t> bytes_;
  std::uint8_t cur_ = 0; ///< the partial byte, right-aligned
  int nbits_ = 0;        ///< bits in `cur_`, always < 8
};

/// Reads an MSB-first stream through a 64-bit cache.
///
/// Contract:
///   * get_bits(count) takes `count` in [0, 32]; get_bits(0) returns 0 and
///     never throws.
///   * A read that runs past the end throws std::out_of_range and leaves
///     the reader at the end of the stream (bit_position() == 8 * size).
///   * get_ue() throws std::out_of_range on a prefix of more than 32 zeros,
///     after consuming 33 of them.  A 32-zero prefix decodes modulo 2^32,
///     which is how ue(2^32-1) round-trips.
///   * bit_position() counts the bits consumed; exhausted() is true once
///     every bit of the stream has been consumed.
class BitReader {
 public:
  BitReader(const std::uint8_t* data, std::size_t size)
      : data_(data), size_(size) {}

  explicit BitReader(const std::vector<std::uint8_t>& bytes)
      : BitReader(bytes.data(), bytes.size()) {}

  /// The reader only borrows the bytes; binding a temporary would dangle.
  explicit BitReader(std::vector<std::uint8_t>&&) = delete;

  /// Reads `count` bits MSB-first.
  std::uint32_t get_bits(int count) {
    if (count > avail_) {
      refill();
      if (count > avail_) throw_past_end();
    }
    // Two shifts so that count == 0 yields 0 without a 64-bit shift.
    const auto v = static_cast<std::uint32_t>((cache_ >> (63 - count)) >> 1);
    consume(count);
    return v;
  }

  /// Unsigned Exp-Golomb.
  std::uint32_t get_ue() {
    if (avail_ <= 32) refill();
    // Bits past `avail_` are zero or the stream's next bits, so a set bit is
    // always a real stop bit; fewer than 33 cached bits after the refill
    // means the stream ends.
    const int zeros = std::countl_zero(cache_);
    if (zeros > 32) throw_bad_prefix();
    const int len = 2 * zeros + 1;
    if (len <= avail_) {
      // The whole code is cached: its value is code_num + 1.
      const std::uint64_t code = cache_ >> (64 - len);
      consume(len);
      return static_cast<std::uint32_t>(code - 1);
    }
    consume(zeros + 1);
    const std::uint64_t code = (std::uint64_t{1} << zeros) | get_bits(zeros);
    return static_cast<std::uint32_t>(code - 1);
  }

  /// Signed Exp-Golomb.
  std::int32_t get_se() {
    const std::uint32_t k = get_ue();
    if (k & 1u) return static_cast<std::int32_t>((k + 1) / 2);
    return -static_cast<std::int32_t>(k / 2);
  }

  /// Bits consumed so far.
  [[nodiscard]] std::size_t bit_position() const {
    return next_ * 8 - static_cast<std::size_t>(avail_);
  }

  [[nodiscard]] bool exhausted() const { return avail_ == 0 && next_ >= size_; }

 private:
  void consume(int count) {
    cache_ <<= count; // count <= 63 on every path
    avail_ -= count;
  }

  /// Tops the cache up to at least 57 bits, or to the end of the stream.
  /// Called only with fewer than 33 bits cached.
  void refill() {
    if (size_ - next_ < 8) {
      refill_tail();
      return;
    }
    // Load 8 bytes big-endian and count the whole bytes that fit; bits of a
    // partial byte stay behind the valid ones and are loaded again next time.
    std::uint64_t word;
    std::memcpy(&word, data_ + next_, sizeof word);
    if constexpr (std::endian::native == std::endian::little) {
      word = __builtin_bswap64(word);
    }
    cache_ |= word >> avail_;
    const int bytes = (64 - avail_) >> 3;
    next_ += static_cast<std::size_t>(bytes);
    avail_ += bytes * 8;
  }
  /// Byte-at-a-time refill for the last 7 bytes of the stream.
  void refill_tail();
  [[noreturn]] void throw_past_end();
  [[noreturn]] void throw_bad_prefix();

  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t next_ = 0;    ///< next byte to load into the cache
  /// Unread bits, MSB-aligned; the bits past `avail_` are zero or the
  /// stream's next bits.
  std::uint64_t cache_ = 0;
  int avail_ = 0;           ///< valid bits in `cache_`
};

} // namespace video
