// bm_h264dec — google-benchmark for the h264dec row of Table 1: the
// sequential decoder, the Pthreads line-decoding (wavefront) decoder, and
// the OmpSs Listing-1 pipeline decoder.  The Stage rows time the codec's
// sequential stages alone over the Medium clip, so a kernel regression
// shows here without the runtime in the way (no gate, no baseline).
#include <benchmark/benchmark.h>

#include <vector>

#include "apps/apps.hpp"

namespace {

using benchcore::Scale;

const apps::H264Workload& h264_w() {
  static const auto w = apps::H264Workload::make(Scale::Tiny);
  return w;
}

// Force workload construction before main() so input generation
// (scene/bitstream synthesis) never lands inside a timed region.
const auto& warm_h264_w = h264_w();

void BM_h264dec_seq(benchmark::State& state) {
  for (auto _ : state) benchmark::DoNotOptimize(apps::h264dec_seq(h264_w()));
}
void BM_h264dec_pthreads(benchmark::State& state) {
  for (auto _ : state)
    benchmark::DoNotOptimize(apps::h264dec_pthreads(
        h264_w(), static_cast<std::size_t>(state.range(0))));
}
void BM_h264dec_pthreads_pipeline(benchmark::State& state) {
  for (auto _ : state)
    benchmark::DoNotOptimize(apps::h264dec_pthreads_pipeline(
        h264_w(), static_cast<std::size_t>(state.range(0))));
}
void BM_h264dec_ompss(benchmark::State& state) {
  for (auto _ : state)
    benchmark::DoNotOptimize(apps::h264dec_ompss(
        h264_w(), static_cast<std::size_t>(state.range(0))));
}

// --- codec stages over the Medium clip (built on first use, untimed) -------

const apps::H264Workload& medium_w() {
  static const auto w = apps::H264Workload::make(Scale::Medium);
  return w;
}

/// Every frame's header and macroblock syntax, decoded once up front.
struct ParsedClip {
  std::vector<video::FrameHeader> headers;
  std::vector<std::vector<video::MbSyntax>> mbs;
};

const ParsedClip& medium_parsed() {
  static const ParsedClip clip = [] {
    ParsedClip c;
    for (const auto& ef : medium_w().video.frames) {
      video::BitReader br(ef.payload);
      c.headers.push_back(video::parse_frame_header(br));
      c.mbs.emplace_back(c.headers.back().mb_count());
      video::entropy_decode_frame(br, c.headers.back(), c.mbs.back().data());
    }
    return c;
  }();
  return clip;
}

void BM_stage_entropy_decode_frame(benchmark::State& state) {
  const auto& frames = medium_w().video.frames;
  std::vector<video::MbSyntax> mbs;
  for (auto _ : state) {
    for (const auto& ef : frames) {
      video::BitReader br(ef.payload);
      const video::FrameHeader hdr = video::parse_frame_header(br);
      mbs.resize(hdr.mb_count());
      video::entropy_decode_frame(br, hdr, mbs.data());
      benchmark::DoNotOptimize(mbs.data());
    }
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(frames.size()));
}

void BM_stage_reconstruct_frame(benchmark::State& state) {
  const ParsedClip& clip = medium_parsed();
  const auto& first = clip.headers.front();
  video::VideoFrame frames[2] = {video::VideoFrame(first.width(), first.height()),
                                 video::VideoFrame(first.width(), first.height())};
  for (auto _ : state) {
    for (std::size_t f = 0; f < clip.headers.size(); ++f) {
      video::reconstruct_frame(clip.headers[f], clip.mbs[f].data(), frames[f % 2],
                               &frames[(f + 1) % 2]);
    }
    benchmark::DoNotOptimize(frames[0].y.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(clip.headers.size()));
}

void BM_stage_encode_video(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(apps::H264Workload::make(Scale::Medium));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(medium_w().video.frames.size()));
}

constexpr int kIters = 3;

BENCHMARK(BM_h264dec_seq)->Iterations(kIters);
BENCHMARK(BM_h264dec_pthreads)->Arg(1)->Arg(2)->Arg(4)->Iterations(kIters);
BENCHMARK(BM_h264dec_pthreads_pipeline)->Arg(2)->Arg(4)->Iterations(kIters);
BENCHMARK(BM_h264dec_ompss)->Arg(1)->Arg(2)->Arg(4)->Iterations(kIters);

BENCHMARK(BM_stage_entropy_decode_frame)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_stage_reconstruct_frame)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_stage_encode_video)->Unit(benchmark::kMillisecond)->Iterations(kIters);

} // namespace

BENCHMARK_MAIN();
