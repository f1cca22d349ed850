// Decoder robustness: corrupted or truncated bitstreams must raise
// exceptions, never crash or loop forever.
#include "video/video.hpp"

#include <gtest/gtest.h>

#include <random>

namespace {

using namespace video;

EncodedVideo small_stream() {
  EncoderConfig cfg;
  cfg.width = 48;
  cfg.height = 32;
  cfg.frames = 3;
  cfg.gop = 2;
  cfg.qp = 10;
  return encode_video(cfg).video;
}

TEST(Robustness, TruncatedPayloadThrows) {
  EncodedVideo v = small_stream();
  for (std::size_t keep : {std::size_t{1}, std::size_t{4},
                           v.frames[0].payload.size() / 2}) {
    EncodedVideo cut = v;
    cut.frames[0].payload.resize(keep);
    EXPECT_THROW(decode_video_seq(cut), std::exception) << "keep=" << keep;
  }
}

TEST(Robustness, BitFlippedPayloadsNeverCrash) {
  const EncodedVideo v = small_stream();
  std::mt19937 rng(5);
  for (int trial = 0; trial < 60; ++trial) {
    EncodedVideo mutated = v;
    auto& payload =
        mutated.frames[rng() % mutated.frames.size()].payload;
    if (payload.empty()) continue;
    // Flip 1-4 random bits in the entropy-coded body (leave the few header
    // bytes intact so dimensions stay bounded and decode cost stays small).
    const std::size_t body_start = payload.size() / 4 + 1;
    if (body_start >= payload.size()) continue;
    const int flips = 1 + static_cast<int>(rng() % 4);
    for (int f = 0; f < flips; ++f) {
      payload[body_start + rng() % (payload.size() - body_start)] ^=
          static_cast<std::uint8_t>(1u << (rng() % 8));
    }
    // Either decodes to *something* or throws; both are acceptable.
    try {
      const auto checksums = decode_video_seq(mutated);
      EXPECT_EQ(checksums.size(), mutated.frames.size());
    } catch (const std::exception&) {
      // fine: corruption detected
    }
  }
}

TEST(Robustness, EmptyStreamDecodesToNothing) {
  EncodedVideo empty;
  empty.width = 48;
  empty.height = 32;
  EXPECT_TRUE(decode_video_seq(empty).empty());
}

TEST(Robustness, HeaderDimensionLimitsEnforced) {
  // Hand-craft a header with an absurd mb_w.
  BitWriter bw;
  bw.put_ue(0);    // frame_num
  bw.put_ue(0);    // type I
  bw.put_ue(20);   // qp
  bw.put_ue(5000); // mb_w: over the 1024 sanity limit
  bw.put_ue(4);    // mb_h
  const auto bytes = bw.finish();
  BitReader br(bytes);
  EXPECT_THROW(parse_frame_header(br), std::runtime_error);
}

TEST(Robustness, PFrameWithoutReferenceThrows) {
  // A stream cut so that it starts with a P frame has nothing to predict
  // from: decoding must fail cleanly instead of reading an empty frame.
  EncodedVideo v = small_stream();
  ASSERT_GE(v.frames.size(), 2u);
  v.frames.erase(v.frames.begin());
  EXPECT_THROW(decode_video_seq(v), std::runtime_error);

  BitReader br(v.frames[0].payload);
  const FrameHeader hdr = parse_frame_header(br);
  ASSERT_EQ(hdr.type, FrameType::P);
  std::vector<MbSyntax> mbs(hdr.mb_count());
  entropy_decode_frame(br, hdr, mbs.data());
  VideoFrame cur(hdr.width(), hdr.height());
  EXPECT_THROW(reconstruct_mb(hdr, mbs.data(), 0, 0, cur, nullptr),
               std::runtime_error);
  const VideoFrame empty;
  EXPECT_THROW(reconstruct_mb(hdr, mbs.data(), 1, 1, cur, &empty),
               std::runtime_error);
}

} // namespace
