// Encoder/decoder integration: header parsing, entropy round-trip, decoder
// equality with the encoder's reconstruction loop, and quality sanity.
#include "video/video.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <stdexcept>
#include <utility>

#include "apps/h264dec/h264dec_app.hpp"

namespace {

using namespace video;

EncoderConfig small_cfg() {
  EncoderConfig cfg;
  cfg.width = 64;
  cfg.height = 48;
  cfg.frames = 6;
  cfg.gop = 3;
  cfg.qp = 12;
  cfg.search_range = 3;
  return cfg;
}

TEST(Codec, EncodeProducesNonEmptyPayloads) {
  const EncodeResult enc = encode_video(small_cfg());
  ASSERT_EQ(enc.video.frames.size(), 6u);
  for (const auto& f : enc.video.frames) EXPECT_GT(f.payload.size(), 10u);
  EXPECT_EQ(enc.recon_checksums.size(), 6u);
  EXPECT_GT(enc.video.total_bytes(), 0u);
}

TEST(Codec, HeaderRoundTrip) {
  const EncodeResult enc = encode_video(small_cfg());
  BitReader br(enc.video.frames[0].payload);
  const FrameHeader hdr = parse_frame_header(br);
  EXPECT_EQ(hdr.frame_num, 0u);
  EXPECT_EQ(hdr.type, FrameType::I);
  EXPECT_EQ(hdr.qp, 12);
  EXPECT_EQ(hdr.mb_w, 4);
  EXPECT_EQ(hdr.mb_h, 3);
  EXPECT_EQ(hdr.width(), 64);
  EXPECT_EQ(hdr.height(), 48);
  EXPECT_EQ(hdr.mb_count(), 12u);

  // Second frame of a gop=3 stream is a P frame.
  BitReader br2(enc.video.frames[1].payload);
  EXPECT_EQ(parse_frame_header(br2).type, FrameType::P);
}

TEST(Codec, DecoderMatchesEncoderReconstructionExactly) {
  const EncodeResult enc = encode_video(small_cfg());
  const auto checksums = decode_video_seq(enc.video);
  EXPECT_EQ(checksums, enc.recon_checksums);
}

TEST(Codec, DecoderMatchesAcrossQps) {
  for (int qp : {0, 8, 20, 30}) {
    EncoderConfig cfg = small_cfg();
    cfg.qp = qp;
    const EncodeResult enc = encode_video(cfg);
    EXPECT_EQ(decode_video_seq(enc.video), enc.recon_checksums) << "qp=" << qp;
  }
}

TEST(Codec, LowQpReconstructionIsHighQuality) {
  EncoderConfig cfg = small_cfg();
  cfg.qp = 0; // step 1: near-lossless
  cfg.frames = 2;
  const EncodeResult enc = encode_video(cfg);

  // Decode and compare to the original source frame.
  BitReader br(enc.video.frames[0].payload);
  const FrameHeader hdr = parse_frame_header(br);
  std::vector<MbSyntax> mbs(hdr.mb_count());
  entropy_decode_frame(br, hdr, mbs.data());
  VideoFrame cur(hdr.width(), hdr.height());
  reconstruct_frame(hdr, mbs.data(), cur, nullptr);

  const VideoFrame src = synth_source_frame(0, cfg.width, cfg.height);
  long worst = 0;
  for (std::size_t i = 0; i < src.y.size(); ++i) {
    worst = std::max<long>(worst, std::abs(int(src.y[i]) - int(cur.y[i])));
  }
  EXPECT_LE(worst, 2) << "step-1 quantization must be near-lossless";
}

TEST(Codec, HigherQpShrinksBitstream) {
  EncoderConfig low = small_cfg(), high = small_cfg();
  low.qp = 4;
  high.qp = 28;
  EXPECT_GT(encode_video(low).video.total_bytes(),
            encode_video(high).video.total_bytes() * 2);
}

TEST(Codec, PFramesAreSmallerThanIFrames) {
  // Temporal prediction must pay off on this mildly-moving content.
  const EncodeResult enc = encode_video(small_cfg());
  const std::size_t i_size = enc.video.frames[0].payload.size();
  const std::size_t p_size = enc.video.frames[1].payload.size();
  EXPECT_LT(p_size, i_size);
}

TEST(Codec, IntraDcPredictionUsesAvailableNeighbors) {
  VideoFrame f(32, 32);
  for (auto& p : f.y) p = 100;
  EXPECT_EQ(intra_dc_prediction(f, 0, 0), 128); // no neighbors
  EXPECT_EQ(intra_dc_prediction(f, 1, 0), 100); // left only
  EXPECT_EQ(intra_dc_prediction(f, 0, 1), 100); // top only
  EXPECT_EQ(intra_dc_prediction(f, 1, 1), 100); // both
}

TEST(Codec, RejectsBadDimensions) {
  EncoderConfig cfg = small_cfg();
  cfg.width = 60; // not a multiple of 16
  EXPECT_THROW(encode_video(cfg), std::invalid_argument);
  cfg = small_cfg();
  cfg.frames = 0;
  EXPECT_THROW(encode_video(cfg), std::invalid_argument);
}

TEST(Codec, ParseRejectsGarbage) {
  std::vector<std::uint8_t> junk{0x00, 0x00, 0x00, 0x00, 0x00};
  BitReader br(junk);
  EXPECT_THROW(parse_frame_header(br), std::exception);
}

TEST(Codec, ChecksumDiscriminatesFrames) {
  const VideoFrame a = synth_source_frame(0, 64, 48);
  const VideoFrame b = synth_source_frame(1, 64, 48);
  EXPECT_NE(a.checksum(), b.checksum());
  EXPECT_EQ(a.checksum(), synth_source_frame(0, 64, 48).checksum());
}

TEST(Codec, WavefrontOrderIsRasterEquivalent) {
  // Reconstructing an I frame in an explicit wavefront order must produce
  // the same picture as raster order (validates the dependency claim the
  // parallel variants rely on).
  const EncodeResult enc = encode_video(small_cfg());
  BitReader br(enc.video.frames[0].payload);
  const FrameHeader hdr = parse_frame_header(br);
  std::vector<MbSyntax> mbs(hdr.mb_count());
  entropy_decode_frame(br, hdr, mbs.data());

  VideoFrame raster(hdr.width(), hdr.height());
  reconstruct_frame(hdr, mbs.data(), raster, nullptr);

  VideoFrame wave(hdr.width(), hdr.height());
  // Anti-diagonal wavefront: all MBs with x+y == d, increasing d.
  for (int d = 0; d <= hdr.mb_w + hdr.mb_h - 2; ++d) {
    for (int y = 0; y < hdr.mb_h; ++y) {
      const int x = d - y;
      if (x < 0 || x >= hdr.mb_w) continue;
      reconstruct_mb(hdr, mbs.data(), x, y, wave, nullptr);
    }
  }
  EXPECT_EQ(raster.y, wave.y);
}

/// FNV-1a over every payload byte and every reconstruction checksum.
std::uint64_t encoder_output_hash(const EncodedVideo& video,
                                  const std::vector<std::uint64_t>& recon) {
  std::uint64_t h = 1469598103934665603ull;
  const auto mix = [&h](std::uint8_t byte) {
    h ^= byte;
    h *= 1099511628211ull;
  };
  for (const auto& f : video.frames) {
    for (const std::uint8_t b : f.payload) mix(b);
  }
  for (const std::uint64_t c : recon) {
    for (int i = 0; i < 8; ++i) mix(static_cast<std::uint8_t>(c >> (8 * i)));
  }
  return h;
}

TEST(Codec, EncoderOutputPinned) {
  // Constants recorded from the bit-at-a-time reader/writer and the
  // all-clamped motion search: the word-level bit I/O and the in-bounds
  // fast paths must not change a single output byte.
  for (const auto& [scale, pinned] :
       {std::pair{benchcore::Scale::Tiny, 0xab65dc1de8eb75baull},
        std::pair{benchcore::Scale::Small, 0x65bfc57ef6c50ac0ull}}) {
    const auto w = apps::H264Workload::make(scale);
    EXPECT_EQ(encoder_output_hash(w.video, w.expected_checksums), pinned)
        << "scale " << static_cast<int>(scale);
  }

  // 3×2 macroblocks: every block is an edge block, and a search range of 4
  // sends most candidates past an edge.
  EncoderConfig edge;
  edge.width = 48;
  edge.height = 32;
  edge.frames = 8;
  edge.gop = 4;
  edge.qp = 16;
  edge.search_range = 4;
  const EncodeResult enc = encode_video(edge);
  EXPECT_EQ(encoder_output_hash(enc.video, enc.recon_checksums), 0x9e0629b11c6478d8ull);
}

TEST(Codec, FastPathsMatchClampedReference) {
  // With zero levels a P macroblock reconstructs to its prediction, so
  // every motion vector in [-6, 6]^2 at border and interior macroblocks
  // must give the clamped displaced reference block.
  std::mt19937 rng(31);
  VideoFrame ref(64, 48);
  for (auto& p : ref.y) p = static_cast<std::uint8_t>(rng());
  FrameHeader hdr;
  hdr.type = FrameType::P;
  hdr.mb_w = 4;
  hdr.mb_h = 3;
  std::vector<MbSyntax> mbs(hdr.mb_count());
  VideoFrame cur(64, 48);
  for (int mvy = -6; mvy <= 6; ++mvy) {
    for (int mvx = -6; mvx <= 6; ++mvx) {
      for (auto& mb : mbs) {
        mb.mvx = static_cast<std::int16_t>(mvx);
        mb.mvy = static_cast<std::int16_t>(mvy);
      }
      for (auto& p : cur.y) p = static_cast<std::uint8_t>(rng());
      for (int mby = 0; mby < hdr.mb_h; ++mby) {
        for (int mbx = 0; mbx < hdr.mb_w; ++mbx) {
          reconstruct_mb(hdr, mbs.data(), mbx, mby, cur, &ref);
        }
      }
      for (int y = 0; y < cur.height; ++y) {
        for (int x = 0; x < cur.width; ++x) {
          const int cx = std::clamp(x + mvx, 0, ref.width - 1);
          const int cy = std::clamp(y + mvy, 0, ref.height - 1);
          ASSERT_EQ(cur.at(x, y), ref.at(cx, cy))
              << "mv (" << mvx << "," << mvy << ") pixel (" << x << "," << y << ")";
        }
      }
    }
  }
}

} // namespace
