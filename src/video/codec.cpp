#include "video/codec.hpp"

#include <cstdlib>
#include <cstring>
#include <stdexcept>

#include "video/source.hpp"
#include "video/transform.hpp"

namespace video {

namespace {

std::uint8_t clamp_pixel(int v) {
  return static_cast<std::uint8_t>(v < 0 ? 0 : (v > 255 ? 255 : v));
}

/// True when the 16×16 block at (x, y) lies entirely inside `f`, so it can
/// be read row by row with no edge clamping.
bool block_inside(const VideoFrame& f, int x, int y) {
  return x >= 0 && y >= 0 && x + kMbSize <= f.width && y + kMbSize <= f.height;
}

/// Sum of absolute differences between a 16×16 source block and a
/// (clamped) reference block displaced by (mvx, mvy).
long sad16(const VideoFrame& src, const VideoFrame& ref, int px, int py,
           int mvx, int mvy) {
  long sad = 0;
  if (block_inside(ref, px + mvx, py + mvy)) {
    const std::uint8_t* s = &src.y[static_cast<std::size_t>(py) * src.width + px];
    const std::uint8_t* r =
        &ref.y[static_cast<std::size_t>(py + mvy) * ref.width + px + mvx];
    for (int y = 0; y < kMbSize; ++y, s += src.width, r += ref.width) {
      int row = 0;
      for (int x = 0; x < kMbSize; ++x) row += std::abs(int{s[x]} - int{r[x]});
      sad += row;
    }
    return sad;
  }
  for (int y = 0; y < kMbSize; ++y) {
    for (int x = 0; x < kMbSize; ++x) {
      const int rx = px + x + mvx;
      const int ry = py + y + mvy;
      const int cx = rx < 0 ? 0 : (rx >= ref.width ? ref.width - 1 : rx);
      const int cy = ry < 0 ? 0 : (ry >= ref.height ? ref.height - 1 : ry);
      sad += std::abs(static_cast<int>(src.at(px + x, py + y)) -
                      static_cast<int>(ref.at(cx, cy)));
    }
  }
  return sad;
}

/// Writes the prediction for one macroblock into `pred` (16×16 row-major).
void predict_mb(const FrameHeader& hdr, const MbSyntax& mb, int mbx, int mby,
                const VideoFrame& cur, const VideoFrame* ref,
                std::uint8_t pred[kMbSize * kMbSize]) {
  const int px = mbx * kMbSize;
  const int py = mby * kMbSize;
  if (hdr.type == FrameType::I) {
    const int dc = intra_dc_prediction(cur, mbx, mby);
    for (int i = 0; i < kMbSize * kMbSize; ++i) pred[i] = static_cast<std::uint8_t>(dc);
    return;
  }
  if (ref == nullptr || ref->y.empty()) {
    throw std::runtime_error("predict_mb: P frame without a reference frame");
  }
  const int rx0 = px + mb.mvx;
  const int ry0 = py + mb.mvy;
  if (block_inside(*ref, rx0, ry0)) {
    const std::uint8_t* r =
        &ref->y[static_cast<std::size_t>(ry0) * ref->width + rx0];
    for (int y = 0; y < kMbSize; ++y, r += ref->width) {
      std::memcpy(pred + y * kMbSize, r, kMbSize);
    }
    return;
  }
  for (int y = 0; y < kMbSize; ++y) {
    for (int x = 0; x < kMbSize; ++x) {
      const int rx = rx0 + x;
      const int ry = ry0 + y;
      const int cx = rx < 0 ? 0 : (rx >= ref->width ? ref->width - 1 : rx);
      const int cy = ry < 0 ? 0 : (ry >= ref->height ? ref->height - 1 : ry);
      pred[y * kMbSize + x] = ref->at(cx, cy);
    }
  }
}

/// True when every level of a 4×4 block is zero.
bool all_zero(const std::int16_t levels[16]) {
  std::int16_t any = 0;
  for (int i = 0; i < 16; ++i) any |= levels[i];
  return any == 0;
}

/// Applies residual levels on top of a prediction and writes the
/// reconstructed macroblock into `cur` — the shared encoder/decoder loop.
/// A block with no levels has a zero residual (the inverse transform of
/// zeros is zero), so it reconstructs to its prediction unchanged.
void reconstruct_from_levels(const FrameHeader& hdr, const MbSyntax& mb,
                             int mbx, int mby,
                             const std::uint8_t pred[kMbSize * kMbSize],
                             VideoFrame& cur) {
  const int step = qp_to_step(hdr.qp);
  std::uint8_t* const out =
      &cur.y[static_cast<std::size_t>(mby) * kMbSize * cur.width +
             static_cast<std::size_t>(mbx) * kMbSize];
  for (int b = 0; b < kBlocksPerMb; ++b) {
    const int bx = (b % 4) * 4;
    const int by = (b / 4) * 4;
    const std::uint8_t* p = pred + by * kMbSize + bx;
    std::uint8_t* o = out + static_cast<std::size_t>(by) * cur.width + bx;
    if (all_zero(mb.levels[b])) {
      for (int y = 0; y < 4; ++y, p += kMbSize, o += cur.width) {
        std::memcpy(o, p, 4);
      }
      continue;
    }
    std::int32_t coeffs[16];
    std::int16_t residual[16];
    dequantize4x4(mb.levels[b], coeffs, step);
    inverse_transform4x4(coeffs, residual);
    for (int y = 0; y < 4; ++y, p += kMbSize, o += cur.width) {
      for (int x = 0; x < 4; ++x) o[x] = clamp_pixel(p[x] + residual[y * 4 + x]);
    }
  }
}

/// Encodes one macroblock's syntax into the bit stream.
void write_mb(BitWriter& bw, const FrameHeader& hdr, const MbSyntax& mb) {
  if (hdr.type == FrameType::P) {
    bw.put_se(mb.mvx);
    bw.put_se(mb.mvy);
  }
  for (int b = 0; b < kBlocksPerMb; ++b) {
    // Zigzag run/level coding.
    int nnz = 0;
    for (int i = 0; i < 16; ++i) {
      if (mb.levels[b][kZigzag4x4[i]] != 0) ++nnz;
    }
    bw.put_ue(static_cast<std::uint32_t>(nnz));
    int run = 0;
    for (int i = 0; i < 16 && nnz > 0; ++i) {
      const std::int16_t lvl = mb.levels[b][kZigzag4x4[i]];
      if (lvl == 0) {
        ++run;
      } else {
        bw.put_ue(static_cast<std::uint32_t>(run));
        bw.put_se(lvl);
        run = 0;
        --nnz;
      }
    }
  }
}

/// Computes residual levels for a macroblock given its prediction.
void encode_residual(const FrameHeader& hdr, const VideoFrame& src, int mbx,
                     int mby, const std::uint8_t pred[kMbSize * kMbSize],
                     MbSyntax& mb) {
  const int step = qp_to_step(hdr.qp);
  const int px = mbx * kMbSize;
  const int py = mby * kMbSize;
  for (int b = 0; b < kBlocksPerMb; ++b) {
    const int bx = (b % 4) * 4;
    const int by = (b / 4) * 4;
    std::int16_t residual[16];
    for (int y = 0; y < 4; ++y) {
      for (int x = 0; x < 4; ++x) {
        residual[y * 4 + x] = static_cast<std::int16_t>(
            static_cast<int>(src.at(px + bx + x, py + by + y)) -
            static_cast<int>(pred[(by + y) * kMbSize + bx + x]));
      }
    }
    std::int32_t coeffs[16];
    forward_transform4x4(residual, coeffs);
    quantize4x4(coeffs, mb.levels[b], step);
  }
}

} // namespace

int intra_dc_prediction(const VideoFrame& cur, int mbx, int mby) {
  const int px = mbx * kMbSize;
  const int py = mby * kMbSize;
  long sum = 0;
  int n = 0;
  if (mby > 0) {
    for (int x = 0; x < kMbSize; ++x) {
      sum += cur.at(px + x, py - 1);
      ++n;
    }
  }
  if (mbx > 0) {
    for (int y = 0; y < kMbSize; ++y) {
      sum += cur.at(px - 1, py + y);
      ++n;
    }
  }
  return n == 0 ? 128 : static_cast<int>((sum + n / 2) / n);
}

EncodeResult encode_video(const EncoderConfig& cfg) {
  if (cfg.width % kMbSize != 0 || cfg.height % kMbSize != 0 || cfg.width <= 0 ||
      cfg.height <= 0) {
    throw std::invalid_argument("encode_video: dimensions must be positive multiples of 16");
  }
  if (cfg.frames <= 0 || cfg.gop <= 0) {
    throw std::invalid_argument("encode_video: frames and gop must be positive");
  }

  EncodeResult result;
  result.video.width = cfg.width;
  result.video.height = cfg.height;

  VideoFrame recon_prev; // reference for P frames
  for (int f = 0; f < cfg.frames; ++f) {
    const VideoFrame src = synth_source_frame(f, cfg.width, cfg.height);

    FrameHeader hdr;
    hdr.frame_num = static_cast<std::uint32_t>(f);
    hdr.type = (f % cfg.gop == 0) ? FrameType::I : FrameType::P;
    hdr.qp = cfg.qp;
    hdr.mb_w = cfg.width / kMbSize;
    hdr.mb_h = cfg.height / kMbSize;

    BitWriter bw;
    bw.put_ue(hdr.frame_num);
    bw.put_ue(static_cast<std::uint32_t>(hdr.type));
    bw.put_ue(static_cast<std::uint32_t>(hdr.qp));
    bw.put_ue(static_cast<std::uint32_t>(hdr.mb_w));
    bw.put_ue(static_cast<std::uint32_t>(hdr.mb_h));

    VideoFrame recon(cfg.width, cfg.height);
    for (int mby = 0; mby < hdr.mb_h; ++mby) {
      for (int mbx = 0; mbx < hdr.mb_w; ++mbx) {
        MbSyntax mb;
        if (hdr.type == FrameType::P) {
          // Full-pel motion search around (0,0).
          const int px = mbx * kMbSize;
          const int py = mby * kMbSize;
          long best = sad16(src, recon_prev, px, py, 0, 0);
          for (int dy = -cfg.search_range; dy <= cfg.search_range; ++dy) {
            for (int dx = -cfg.search_range; dx <= cfg.search_range; ++dx) {
              if (dx == 0 && dy == 0) continue;
              const long s = sad16(src, recon_prev, px, py, dx, dy);
              if (s < best) {
                best = s;
                mb.mvx = static_cast<std::int16_t>(dx);
                mb.mvy = static_cast<std::int16_t>(dy);
              }
            }
          }
        }
        std::uint8_t pred[kMbSize * kMbSize];
        // Prediction must come from the *reconstruction* (decoder parity).
        predict_mb(hdr, mb, mbx, mby, recon, &recon_prev, pred);
        encode_residual(hdr, src, mbx, mby, pred, mb);
        write_mb(bw, hdr, mb);
        reconstruct_from_levels(hdr, mb, mbx, mby, pred, recon);
      }
    }

    result.video.frames.push_back(EncodedFrame{bw.finish()});
    result.recon_checksums.push_back(recon.checksum());
    recon_prev = std::move(recon);
  }
  return result;
}

FrameHeader parse_frame_header(BitReader& br) {
  FrameHeader hdr;
  hdr.frame_num = br.get_ue();
  const std::uint32_t type = br.get_ue();
  if (type > 1) throw std::runtime_error("parse_frame_header: bad frame type");
  hdr.type = static_cast<FrameType>(type);
  hdr.qp = static_cast<int>(br.get_ue());
  hdr.mb_w = static_cast<int>(br.get_ue());
  hdr.mb_h = static_cast<int>(br.get_ue());
  if (hdr.mb_w <= 0 || hdr.mb_h <= 0 || hdr.mb_w > 1024 || hdr.mb_h > 1024) {
    throw std::runtime_error("parse_frame_header: implausible dimensions");
  }
  return hdr;
}

void entropy_decode_frame(BitReader& br, const FrameHeader& hdr, MbSyntax* mbs) {
  for (std::size_t m = 0; m < hdr.mb_count(); ++m) {
    MbSyntax& mb = mbs[m];
    mb = MbSyntax{};
    if (hdr.type == FrameType::P) {
      mb.mvx = static_cast<std::int16_t>(br.get_se());
      mb.mvy = static_cast<std::int16_t>(br.get_se());
    }
    for (int b = 0; b < kBlocksPerMb; ++b) {
      const std::uint32_t nnz = br.get_ue();
      if (nnz > 16) throw std::runtime_error("entropy_decode: bad block");
      int zig = 0;
      for (std::uint32_t i = 0; i < nnz; ++i) {
        const std::uint32_t run = br.get_ue();
        zig += static_cast<int>(run);
        if (zig >= 16) throw std::runtime_error("entropy_decode: run overflow");
        mb.levels[b][kZigzag4x4[zig]] = static_cast<std::int16_t>(br.get_se());
        ++zig;
      }
    }
  }
}

void reconstruct_mb(const FrameHeader& hdr, const MbSyntax* mbs, int mbx,
                    int mby, VideoFrame& cur, const VideoFrame* ref) {
  const MbSyntax& mb = mbs[static_cast<std::size_t>(mby) * hdr.mb_w + mbx];
  std::uint8_t pred[kMbSize * kMbSize];
  predict_mb(hdr, mb, mbx, mby, cur, ref, pred);
  reconstruct_from_levels(hdr, mb, mbx, mby, pred, cur);
}

void reconstruct_frame(const FrameHeader& hdr, const MbSyntax* mbs,
                       VideoFrame& cur, const VideoFrame* ref) {
  for (int mby = 0; mby < hdr.mb_h; ++mby) {
    for (int mbx = 0; mbx < hdr.mb_w; ++mbx) {
      reconstruct_mb(hdr, mbs, mbx, mby, cur, ref);
    }
  }
}

std::vector<std::uint64_t> decode_video_seq(const EncodedVideo& video) {
  std::vector<std::uint64_t> checksums;
  checksums.reserve(video.frames.size());
  VideoFrame prev;
  for (const EncodedFrame& ef : video.frames) {
    BitReader br(ef.payload);
    const FrameHeader hdr = parse_frame_header(br);
    std::vector<MbSyntax> mbs(hdr.mb_count());
    entropy_decode_frame(br, hdr, mbs.data());
    VideoFrame cur(hdr.width(), hdr.height());
    reconstruct_frame(hdr, mbs.data(), cur, &prev);
    checksums.push_back(cur.checksum());
    prev = std::move(cur);
  }
  return checksums;
}

} // namespace video
