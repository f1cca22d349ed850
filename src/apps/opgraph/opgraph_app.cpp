#include "apps/opgraph/opgraph_app.hpp"

#include <cstddef>
#include <string>
#include <vector>

#include "ompss/ompss.hpp"

namespace apps {
namespace {

constexpr std::uint64_t kSeed = 0x9e3779b97f4a7c15ull;

inline std::uint64_t rotl64(std::uint64_t v, int s) noexcept {
  return (v << s) | (v >> (64 - s));
}

/// Which of the four operator kernels runs at (layer, column) — fixed per
/// position, so the graph is heterogeneous but deterministic.
inline int op_kind(int l, int j) noexcept { return (l * 31 + j) & 3; }

/// Column of the second input read by op (l, j): a layer-dependent neighbor,
/// never the own column (width > 3 at every scale).
inline int neighbor(int l, int j, int width) noexcept {
  return (j + 1 + (l % 3)) % width;
}

/// One operator: reads two n-element inputs, writes its own n-element
/// output.  Exact integer arithmetic — parallel and sequential runs are
/// bit-identical.
void run_op(int kind, const std::uint64_t* a, const std::uint64_t* b,
            std::uint64_t* out, int n) noexcept {
  switch (kind) {
    case 0:
      for (int e = 0; e < n; ++e) out[e] = a[e] + 3 * b[e] + 1;
      break;
    case 1:
      for (int e = 0; e < n; ++e) out[e] = (a[e] ^ b[e]) * 0x100000001b3ull;
      break;
    case 2:
      for (int e = 0; e < n; ++e) out[e] = rotl64(a[e], 7) + (b[e] >> 3);
      break;
    default:
      for (int e = 0; e < n; ++e) out[e] = (a[e] >> 1) + (b[e] << 1) + kSeed;
      break;
  }
}

/// All the buffers of one run: the evolving input row plus one output row
/// per layer.  Rows are flat (width * elems) so op j's region is the
/// contiguous slice [j*elems, (j+1)*elems) — what the tasks declare.
struct State {
  std::vector<std::uint64_t> input;
  std::vector<std::vector<std::uint64_t>> layer; // [l][width * elems]

  explicit State(const OpGraphWorkload& w) {
    const std::size_t row =
        static_cast<std::size_t>(w.width) * static_cast<std::size_t>(w.elems);
    input.resize(row);
    for (std::size_t x = 0; x < row; ++x) {
      input[x] = (static_cast<std::uint64_t>(x) + 1) * kSeed;
    }
    layer.assign(static_cast<std::size_t>(w.layers),
                 std::vector<std::uint64_t>(row, 0));
  }

  /// Source row for layer `l`'s reads.
  [[nodiscard]] const std::uint64_t* src(int l) const noexcept {
    return l == 0 ? input.data() : layer[static_cast<std::size_t>(l) - 1].data();
  }
  [[nodiscard]] std::uint64_t* dst(int l) noexcept {
    return layer[static_cast<std::size_t>(l)].data();
  }

  /// Post-iteration step, always on the controlling thread at a quiescent
  /// point: folds the final layer into the checksum and feeds it back as
  /// the next iteration's input (so every iteration computes on new data).
  std::uint64_t fold_and_advance(std::uint64_t sum) {
    const std::vector<std::uint64_t>& last = layer.back();
    for (std::size_t x = 0; x < last.size(); ++x) {
      sum = rotl64(sum, 1) ^ last[x];
      input[x] = rotl64(last[x], 11) + kSeed;
    }
    return sum;
  }
};

const char* label_of(int kind) noexcept {
  switch (kind) {
    case 0: return "op_add";
    case 1: return "op_xmul";
    case 2: return "op_rot";
    default: return "op_shift";
  }
}

/// Spawns one full iteration through the builder (the fresh-resolution
/// path; also the capture iteration of the replay variant).  `.in(p, n)`
/// takes an element count: each op declares exactly its three n-element
/// columns.
void spawn_iteration(oss::Runtime& rt, const OpGraphWorkload& w, State& s) {
  const int n = w.elems;
  const auto count = static_cast<std::size_t>(n);
  for (int l = 0; l < w.layers; ++l) {
    const std::uint64_t* src = s.src(l);
    std::uint64_t* dst = s.dst(l);
    for (int j = 0; j < w.width; ++j) {
      const int kind = op_kind(l, j);
      const std::uint64_t* a = src + static_cast<std::size_t>(j) * n;
      const std::uint64_t* b =
          src + static_cast<std::size_t>(neighbor(l, j, w.width)) * n;
      std::uint64_t* out = dst + static_cast<std::size_t>(j) * n;
      rt.task(label_of(kind))
          .in(a, count)
          .in(b, count)
          .out(out, count)
          .spawn([kind, a, b, out, n] { run_op(kind, a, b, out, n); });
    }
  }
}

} // namespace

OpGraphWorkload OpGraphWorkload::make(benchcore::Scale scale) {
  OpGraphWorkload w;
  w.width = benchcore::by_scale(scale, 8, 48, 64, 96);
  w.layers = benchcore::by_scale(scale, 6, 42, 64, 84);
  w.elems = benchcore::by_scale(scale, 16, 32, 48, 64);
  w.iters = benchcore::by_scale(scale, 3, 6, 8, 10);
  return w;
}

std::uint64_t opgraph_seq(const OpGraphWorkload& w) {
  State s(w);
  std::uint64_t sum = 0;
  for (int it = 0; it < w.iters; ++it) {
    for (int l = 0; l < w.layers; ++l) {
      const std::uint64_t* src = s.src(l);
      std::uint64_t* dst = s.dst(l);
      for (int j = 0; j < w.width; ++j) {
        run_op(op_kind(l, j), src + static_cast<std::size_t>(j) * w.elems,
               src + static_cast<std::size_t>(neighbor(l, j, w.width)) * w.elems,
               dst + static_cast<std::size_t>(j) * w.elems, w.elems);
      }
    }
    sum = s.fold_and_advance(sum);
  }
  return sum;
}

std::uint64_t opgraph_ompss(const OpGraphWorkload& w, std::size_t threads,
                            oss::StatsSnapshot* stats) {
  oss::Runtime rt(threads);
  State s(w);
  std::uint64_t sum = 0;
  for (int it = 0; it < w.iters; ++it) {
    spawn_iteration(rt, w, s);
    rt.barrier();
    sum = s.fold_and_advance(sum);
  }
  if (stats) *stats = rt.stats();
  return sum;
}

std::uint64_t opgraph_replay(const OpGraphWorkload& w, std::size_t threads,
                             oss::StatsSnapshot* stats) {
  oss::Runtime rt(threads);
  State s(w);
  std::uint64_t sum = 0;

  // Iteration 0: spawn through the builder inside a capture scope — the
  // tasks are recorded (and held until finish()), then run normally.
  oss::ReplayGraph graph;
  {
    oss::GraphCapture cap(rt);
    spawn_iteration(rt, w, s);
    graph = cap.finish();
  }
  rt.barrier();
  sum = s.fold_and_advance(sum);

  // The binder rebuilds the body for capture index i = l*width + j.  The
  // buffer pointers are fixed for the life of the run — only the *data*
  // changes between iterations (fold_and_advance rewrites the input row).
  const int n = w.elems;
  const auto binder = [&](std::size_t i) -> oss::Task::Fn {
    const int l = static_cast<int>(i) / w.width;
    const int j = static_cast<int>(i) % w.width;
    const int kind = op_kind(l, j);
    const std::uint64_t* a = s.src(l) + static_cast<std::size_t>(j) * n;
    const std::uint64_t* b =
        s.src(l) + static_cast<std::size_t>(neighbor(l, j, w.width)) * n;
    std::uint64_t* out = s.dst(l) + static_cast<std::size_t>(j) * n;
    return [kind, a, b, out, n] { run_op(kind, a, b, out, n); };
  };

  for (int it = 1; it < w.iters; ++it) {
    rt.replay(graph, binder);
    rt.barrier();
    sum = s.fold_and_advance(sum);
  }
  if (stats) *stats = rt.stats();
  return sum;
}

} // namespace apps
