#include "video/source.hpp"

namespace video {

VideoFrame synth_source_frame(int t, int width, int height) {
  VideoFrame f(width, height);
  // Moving disc over a diagonal gradient with a textured band.
  const int cx = (width / 4 + 3 * t) % width;
  const int cy = height / 2 + static_cast<int>((height / 6) *
                                               ((t % 20) - 10) / 10.0);
  const int r = height / 5;
  const int r2 = r * r;

  for (int y = 0; y < height; ++y) {
    for (int x = 0; x < width; ++x) {
      int v = (x + 2 * y + t) & 0xFF; // drifting gradient
      const int dx = x - cx;
      const int dy = y - cy;
      if (dx * dx + dy * dy < r2) {
        v = 230 - ((dx * dx + dy * dy) * 80 / r2); // shaded disc
      } else if (y > height * 3 / 4) {
        // Texture band: deterministic hash noise (hard to predict → big
        // residuals, like film grain).  Unsigned arithmetic: the products
        // wrap by design, and signed int overflow would be undefined.
        std::uint32_t h = static_cast<std::uint32_t>(x) * 374761393u +
                          static_cast<std::uint32_t>(y) * 668265263u +
                          static_cast<std::uint32_t>(t) * 2654435761u;
        h ^= h >> 13;
        h *= 1274126177u;
        v = (v + static_cast<int>(h & 63u)) & 0xFF;
      }
      f.at(x, y) = static_cast<std::uint8_t>(v);
    }
  }
  return f;
}

} // namespace video
