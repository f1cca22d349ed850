// codec.hpp — the synthetic H.264-shaped encoder and decoder stages.
//
// Encoder (test-input producer): I frames use 16×16 DC intra prediction from
// reconstructed neighbors, P frames use full-pel motion compensation from
// the previous reconstructed frame; residuals go through the 4×4 integer
// transform, flat quantization, and Exp-Golomb run/level coding.  The
// encoder maintains the same reconstruction loop as the decoder, so decoded
// frames are bit-exact with the encoder's reconstructions — that equality is
// the decoder's correctness oracle in the tests.
//
// Decoder: split into the paper's pipeline stages (§3):
//   parse_frame_header  — the "parse" stage
//   entropy_decode_frame — the "ED" stage (all Exp-Golomb work)
//   reconstruct_mb / reconstruct_frame — the "MB reconstruction" stage
// The read and output stages live with the benchmark variants (they are
// I/O + buffer management, not codec math).
//
// Dependency structure relevant to parallel reconstruction: an intra MB
// needs its *top* and *left* reconstructed neighbors (DC prediction); an
// inter MB needs only the reference frame.  Raster order satisfies both;
// the Pthreads line-decoding variant exploits the wavefront.
#pragma once

#include "video/bits.hpp"
#include "video/frame.hpp"

namespace video {

struct EncoderConfig {
  int width = 320;   ///< must be a multiple of 16
  int height = 192;  ///< must be a multiple of 16
  int frames = 16;
  int gop = 8;          ///< I-frame period
  int qp = 20;          ///< quantizer (0..51-ish; higher = smaller stream)
  int search_range = 4; ///< full-pel motion search radius
};

struct EncodeResult {
  EncodedVideo video;
  /// Checksums of the encoder's reconstructed frames, in decode order —
  /// the oracle a correct decoder must reproduce exactly.
  std::vector<std::uint64_t> recon_checksums;
};

/// Encodes `cfg.frames` frames of the synthetic source sequence.
/// Throws std::invalid_argument for non-multiple-of-16 dimensions.
EncodeResult encode_video(const EncoderConfig& cfg);

// --- decoder stages ---------------------------------------------------------

/// Parse stage: header of one frame payload.
FrameHeader parse_frame_header(BitReader& br);

/// ED stage: decodes all macroblock syntax (motion vectors + residual
/// levels) following the header.  `mbs` must have hdr.mb_count() entries.
void entropy_decode_frame(BitReader& br, const FrameHeader& hdr, MbSyntax* mbs);

/// Reconstruction of one macroblock.  For FrameType::I the macroblocks at
/// (mbx-1, mby) and (mbx, mby-1) must already be reconstructed in `cur`;
/// for FrameType::P `ref` must be the fully reconstructed previous frame,
/// and a null or empty `ref` throws std::runtime_error.
///
/// Fast paths, each bit-exact with the general loop: a P macroblock whose
/// whole 16×16 displaced block lies inside `ref` is predicted by copying
/// rows (only a block that reaches past an edge needs per-pixel clamping),
/// and a 4×4 block whose levels are all zero skips dequantisation and the
/// inverse transform, since it reconstructs to its prediction.  The
/// encoder's motion search uses the same in-bounds test for its SAD.
void reconstruct_mb(const FrameHeader& hdr, const MbSyntax* mbs, int mbx,
                    int mby, VideoFrame& cur, const VideoFrame* ref);

/// Sequential whole-frame reconstruction (raster order).
void reconstruct_frame(const FrameHeader& hdr, const MbSyntax* mbs,
                       VideoFrame& cur, const VideoFrame* ref);

/// DC intra predictor shared by encoder and decoder (mean of the
/// reconstructed row above and column left of the macroblock; 128 if
/// neither exists).
int intra_dc_prediction(const VideoFrame& cur, int mbx, int mby);

/// Fully sequential decode of a whole sequence; returns per-frame checksums
/// (reference implementation used by tests and the seq benchmark variant).
std::vector<std::uint64_t> decode_video_seq(const EncodedVideo& video);

} // namespace video
