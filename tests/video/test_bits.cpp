#include "video/bits.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <random>
#include <stdexcept>
#include <vector>

namespace {

using video::BitReader;
using video::BitWriter;

// Bit-at-a-time reference reader and writer: the straightforward encoding
// of the contract, kept as the oracle for the word-level implementations.
class RefReader {
 public:
  RefReader(const std::uint8_t* data, std::size_t size) : data_(data), size_(size) {}
  std::uint32_t get_bits(int count) {
    std::uint32_t v = 0;
    for (int i = 0; i < count; ++i) {
      if (pos_ >= size_ * 8) throw std::out_of_range("past end");
      v = (v << 1) | ((data_[pos_ >> 3] >> (7 - (pos_ & 7))) & 1u);
      ++pos_;
    }
    return v;
  }
  std::uint32_t get_ue() {
    int zeros = 0;
    while (get_bits(1) == 0) {
      if (++zeros > 32) throw std::out_of_range("malformed ue");
    }
    std::uint32_t v = 1;
    for (int i = 0; i < zeros; ++i) v = (v << 1) | get_bits(1);
    return v - 1;
  }
  std::int32_t get_se() {
    const std::uint32_t k = get_ue();
    return (k & 1u) ? static_cast<std::int32_t>((k + 1) / 2)
                    : -static_cast<std::int32_t>(k / 2);
  }
  std::size_t bit_position() const { return pos_; }

 private:
  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
};

struct RefWriter {
  std::vector<std::uint8_t> bytes;
  std::uint8_t cur = 0;
  int nbits = 0;
  void put_bits(std::uint32_t value, int count) {
    for (int i = count - 1; i >= 0; --i) {
      cur = static_cast<std::uint8_t>((cur << 1) | ((value >> i) & 1u));
      if (++nbits == 8) {
        bytes.push_back(cur);
        cur = 0;
        nbits = 0;
      }
    }
  }
  void put_ue(std::uint32_t v) {
    const std::uint64_t code = static_cast<std::uint64_t>(v) + 1;
    int len = 0;
    while ((code >> len) > 1) ++len;
    put_bits(0, len);
    for (int i = len; i >= 0; --i) put_bits(static_cast<std::uint32_t>((code >> i) & 1u), 1);
  }
  void put_se(std::int32_t v) {
    const std::int64_t wide = v;
    put_ue(static_cast<std::uint32_t>(wide > 0 ? 2 * wide - 1 : -2 * wide));
  }
  std::size_t bit_count() const { return bytes.size() * 8 + static_cast<std::size_t>(nbits); }
  std::vector<std::uint8_t> finish() {
    if (nbits > 0) bytes.push_back(static_cast<std::uint8_t>(cur << (8 - nbits)));
    return bytes;
  }
};

TEST(Bits, RawBitsRoundTrip) {
  BitWriter bw;
  bw.put_bits(0b101, 3);
  bw.put_bits(0xFF, 8);
  bw.put_bits(0, 5);
  const auto bytes = bw.finish();
  BitReader br(bytes);
  EXPECT_EQ(br.get_bits(3), 0b101u);
  EXPECT_EQ(br.get_bits(8), 0xFFu);
  EXPECT_EQ(br.get_bits(5), 0u);
}

TEST(Bits, UeKnownCodes) {
  // ue(0)=1, ue(1)=010, ue(2)=011, ue(3)=00100...
  BitWriter bw;
  bw.put_ue(0);
  bw.put_ue(1);
  bw.put_ue(2);
  bw.put_ue(3);
  EXPECT_EQ(bw.bit_count(), 1u + 3 + 3 + 5);
  const auto bytes = bw.finish();
  BitReader br(bytes);
  EXPECT_EQ(br.get_ue(), 0u);
  EXPECT_EQ(br.get_ue(), 1u);
  EXPECT_EQ(br.get_ue(), 2u);
  EXPECT_EQ(br.get_ue(), 3u);
}

TEST(Bits, SeMappingOrder) {
  // H.264 mapping: 0, 1, -1, 2, -2, ...
  BitWriter bw;
  for (int v : {0, 1, -1, 2, -2, 7, -7}) bw.put_se(v);
  const auto bytes = bw.finish();
  BitReader br(bytes);
  for (int v : {0, 1, -1, 2, -2, 7, -7}) EXPECT_EQ(br.get_se(), v);
}

TEST(Bits, RandomUeSeRoundTrip) {
  std::mt19937 rng(99);
  std::vector<std::uint32_t> ues;
  std::vector<std::int32_t> ses;
  BitWriter bw;
  for (int i = 0; i < 2000; ++i) {
    const std::uint32_t u = rng() % 100000;
    const std::int32_t s = static_cast<std::int32_t>(rng() % 20001) - 10000;
    ues.push_back(u);
    ses.push_back(s);
    bw.put_ue(u);
    bw.put_se(s);
  }
  const auto bytes = bw.finish();
  BitReader br(bytes);
  for (int i = 0; i < 2000; ++i) {
    EXPECT_EQ(br.get_ue(), ues[static_cast<std::size_t>(i)]);
    EXPECT_EQ(br.get_se(), ses[static_cast<std::size_t>(i)]);
  }
}

TEST(Bits, ReaderThrowsPastEnd) {
  BitWriter bw;
  bw.put_bits(0b1, 1);
  const auto bytes = bw.finish(); // 1 byte after padding
  BitReader br(bytes);
  br.get_bits(8);
  EXPECT_THROW(br.get_bits(1), std::out_of_range);
}

TEST(Bits, MalformedUeThrows) {
  // 40 zero bits: longer than any legal ue prefix.
  std::vector<std::uint8_t> zeros(5, 0);
  BitReader br(zeros);
  EXPECT_THROW(br.get_ue(), std::out_of_range);
}

TEST(Bits, BitPositionTracksConsumption) {
  BitWriter bw;
  bw.put_bits(0xABCD, 16);
  const auto bytes = bw.finish();
  BitReader br_bytes(bytes);
  EXPECT_EQ(br_bytes.bit_position(), 0u);
  br_bytes.get_bits(5);
  EXPECT_EQ(br_bytes.bit_position(), 5u);
}

/// Outcome of one read: the value, or which exception it threw.
struct ReadResult {
  std::int64_t value = 0;
  int thrown = 0; ///< 0 none, 1 std::out_of_range, 2 anything else
  bool operator==(const ReadResult&) const = default;
};

template <typename F>
ReadResult outcome(F&& read) {
  ReadResult r;
  try {
    r.value = read();
  } catch (const std::out_of_range&) {
    r.thrown = 1;
  } catch (...) {
    r.thrown = 2;
  }
  return r;
}

TEST(Bits, ReaderMatchesReferenceOnRandomStreams) {
  // Empty, all-zero, sparse (long ue prefixes, malformed codes) and dense
  // streams, each truncated at every length from 0 to 16 bytes, read by a
  // random mix of get_bits(0..32), get_ue and get_se.
  constexpr std::size_t kMaxBytes = 16;
  constexpr int kStreams = 1200;
  constexpr int kOpsPerStream = 24;
  std::mt19937 rng(20240917);
  std::size_t reads = 0;
  for (int s = 0; s < kStreams; ++s) {
    std::vector<std::uint8_t> stream(kMaxBytes, 0);
    const int kind = s % 4;
    for (auto& byte : stream) {
      if (kind == 2) {
        for (int bit = 0; bit < 8; ++bit) {
          if (rng() % 37 == 0) byte |= static_cast<std::uint8_t>(1u << bit);
        }
      } else if (kind == 3) {
        byte = static_cast<std::uint8_t>(rng());
      }
    }
    for (std::size_t len = 0; len <= kMaxBytes; ++len) {
      if (kind == 0 && len > 0) break; // the empty stream
      BitReader br(stream.data(), len);
      RefReader ref(stream.data(), len);
      for (int op = 0; op < kOpsPerStream; ++op) {
        const unsigned pick = rng() % 3;
        const int count = static_cast<int>(rng() % 33);
        ReadResult got, want;
        if (pick == 0) {
          got = outcome([&] { return br.get_bits(count); });
          want = outcome([&] { return ref.get_bits(count); });
        } else if (pick == 1) {
          got = outcome([&] { return br.get_ue(); });
          want = outcome([&] { return ref.get_ue(); });
        } else {
          got = outcome([&] { return br.get_se(); });
          want = outcome([&] { return ref.get_se(); });
        }
        ++reads;
        ASSERT_EQ(got, want) << "stream " << s << " len " << len << " op " << op
                             << " pick " << pick << " count " << count;
        ASSERT_EQ(br.bit_position(), ref.bit_position())
            << "stream " << s << " len " << len << " op " << op;
        ASSERT_EQ(br.exhausted(), ref.bit_position() >= len * 8);
      }
    }
  }
  EXPECT_GT(reads, 200000u);
}

TEST(Bits, WriterMatchesReference) {
  std::mt19937 rng(77);
  for (int trial = 0; trial < 400; ++trial) {
    BitWriter bw;
    RefWriter ref;
    const int ops = 1 + static_cast<int>(rng() % 64);
    for (int op = 0; op < ops; ++op) {
      // Magnitudes spread over every code length, not just small values.
      const std::uint32_t wide = rng() >> (rng() % 32);
      switch (rng() % 3) {
        case 0: {
          const int count = static_cast<int>(rng() % 33);
          bw.put_bits(wide, count);
          ref.put_bits(wide, count);
          break;
        }
        case 1:
          bw.put_ue(wide);
          ref.put_ue(wide);
          break;
        default: {
          const auto v = static_cast<std::int32_t>(wide >> 1) * (rng() % 2 ? 1 : -1);
          bw.put_se(v);
          ref.put_se(v);
          break;
        }
      }
      ASSERT_EQ(bw.bit_count(), ref.bit_count()) << "trial " << trial << " op " << op;
    }
    ASSERT_EQ(bw.finish(), ref.finish()) << "trial " << trial;
  }
}

TEST(Bits, UeBoundaryValuesRoundTrip) {
  std::vector<std::uint32_t> values{0};
  for (int k = 1; k <= 32; ++k) {
    const std::uint64_t pow = std::uint64_t{1} << k;
    values.push_back(static_cast<std::uint32_t>(pow - 2));
    values.push_back(static_cast<std::uint32_t>(pow - 1));
  }
  BitWriter all;
  for (const std::uint32_t v : values) {
    BitWriter one;
    one.put_ue(v);
    const auto floor_log2 = std::bit_width(std::uint64_t{v} + 1) - 1;
    EXPECT_EQ(one.bit_count(), static_cast<std::size_t>(2 * floor_log2 + 1)) << v;
    const auto bytes = one.finish();
    BitReader br(bytes);
    EXPECT_EQ(br.get_ue(), v);
    all.put_ue(v);
  }
  // Back to back, so codes straddle the reader's cache refills.
  const auto bytes = all.finish();
  BitReader br(bytes);
  for (const std::uint32_t v : values) EXPECT_EQ(br.get_ue(), v);
}

} // namespace
