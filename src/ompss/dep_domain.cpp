#include "ompss/dep_domain.hpp"

#include <unordered_set>

#include "ompss/trace.hpp"

namespace oss {

const char* to_string(DepKind k) noexcept {
  switch (k) {
    case DepKind::Raw: return "RAW";
    case DepKind::War: return "WAR";
    case DepKind::Waw: return "WAW";
    case DepKind::Explicit: return "EXPLICIT";
  }
  return "?";
}

bool add_explicit_edge(const TaskPtr& producer, const TaskPtr& consumer,
                       const EdgeSink& sink, TraceSystem* trace) {
  if (!producer || producer.get() == consumer.get()) return false;
  // Chain affinity inheritance: a handle edge donates its producer's home
  // only when the region edges donated nothing — the max-bytes vote
  // (register_task) weighs overlap bytes, which an explicit edge lacks.
  if (consumer->inherited_node() < 0 && producer->home_node() >= 0) {
    consumer->set_inherited_node(producer->home_node());
  }
  if (!producer->add_successor_edge(consumer)) {
    return false; // already retired: no edge needed
  }
  if (sink) sink(producer, consumer, DepKind::Explicit);
  if (trace) {
    trace->emit_edge(producer->id(), consumer->id(),
                     static_cast<std::uint8_t>(DepKind::Explicit));
  }
  return true;
}

namespace {

/// splitmix64 finalizer: spreads consecutive stripe indices across shards
/// so regularly-strided app partitions don't all collide on one lock.
std::uint64_t mix_stripe(std::uint64_t x) noexcept {
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

std::size_t round_up_pow2(std::size_t n) {
  std::size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

} // namespace

/// Per-registration state shared across all shards a task touches: edge
/// dedup per (producer, consumer) pair, and the byte-weighted home-node
/// vote for chain affinity inheritance.
///
/// Both containers are inline-first: typical tasks see a handful of
/// producers and one or two home nodes, and RegCtx sits on the spawn fast
/// path — the spill containers only materialize for pathological fan-ins,
/// so a steady-state registration allocates nothing.  The dedup stays
/// *exact* in both regimes (the inline scan checks every recorded pointer,
/// the spill set is authoritative beyond that), which the OSS_POOL=off
/// parity guarantee depends on.
///
/// Producer pointers are compared, never dereferenced, after add_edge —
/// and no producer can retire *and be recycled into a new task visible to
/// this registration* while it runs: every shard the registration touches
/// stays locked for its whole duration, so no concurrent registration can
/// install a recycled task into an entry this one will visit.
struct DepDomain::RegCtx {
  RegCtx(const TaskPtr& t, const EdgeSink& s, TraceSystem* tr)
      : task(t), sink(s), trace(tr) {}

  const TaskPtr& task;
  const EdgeSink& sink;
  TraceSystem* trace;

  /// A new task may overlap many sub-intervals (possibly in different
  /// shards) with the same producer; only one edge is needed.
  static constexpr std::size_t kInlineSeen = 32;
  const Task* seen_inline[kInlineSeen];
  std::size_t seen_n = 0;
  std::unordered_set<const Task*> seen_spill;

  /// True when `p` was not recorded yet (and records it).
  bool seen_insert(const Task* p) {
    for (std::size_t i = 0; i < seen_n; ++i) {
      if (seen_inline[i] == p) return false;
    }
    if (seen_n < kInlineSeen) {
      seen_inline[seen_n++] = p;
      return true;
    }
    return seen_spill.insert(p).second;
  }

  /// Home-node votes: every discovered hazard whose producer has a
  /// resolved home donates that node, weighted by the overlap bytes of the
  /// entry the hazard was found on.  Finished producers vote too — the
  /// data the chain streams through still lives on their node.  The node
  /// with the largest byte total wins (first seen wins ties).
  static constexpr std::size_t kInlineVotes = 8;
  std::pair<int, std::uint64_t> votes_inline[kInlineVotes];
  std::size_t votes_n = 0;
  std::vector<std::pair<int, std::uint64_t>> votes_spill;

  void vote(int node, std::uint64_t bytes) {
    if (node < 0) return;
    for (std::size_t i = 0; i < votes_n; ++i) {
      if (votes_inline[i].first == node) {
        votes_inline[i].second += bytes;
        return;
      }
    }
    for (auto& [n, b] : votes_spill) {
      if (n == node) {
        b += bytes;
        return;
      }
    }
    if (votes_n < kInlineVotes) {
      votes_inline[votes_n++] = {node, bytes};
    } else {
      votes_spill.emplace_back(node, bytes);
    }
  }

  void add_edge(const TaskPtr& producer, DepKind kind, std::uint64_t bytes) {
    if (!producer || producer.get() == task.get()) return;
    vote(producer->home_node(), bytes);
    // A retired producer needs no edge and can never need one later in
    // this registration (finished is monotonic), so it skips the dedup
    // scan and the successor lock.  It has voted above: the edge set and
    // the inherited home both come out as if it had been recorded.
    if (producer->finished()) return;
    if (!seen_insert(producer.get())) return;
    if (!producer->add_successor_edge(task)) {
      return; // already retired: no edge needed
    }
    if (sink) sink(producer, task, kind);
    if (trace) {
      trace->emit_edge(producer->id(), task->id(),
                       static_cast<std::uint8_t>(kind));
    }
  }

  /// Applies the vote: the max-bytes node becomes the task's inherited
  /// home (consulted at spawn-time resolution when the task carries no
  /// hint of its own).  First seen wins ties — inline votes precede spill
  /// votes in recording order, so the scan preserves that.
  void finalize_inheritance() const {
    if (votes_n == 0) return;
    int best = votes_inline[0].first;
    std::uint64_t best_bytes = votes_inline[0].second;
    for (std::size_t i = 1; i < votes_n; ++i) {
      if (votes_inline[i].second > best_bytes) {
        best = votes_inline[i].first;
        best_bytes = votes_inline[i].second;
      }
    }
    for (const auto& [n, b] : votes_spill) {
      if (b > best_bytes) {
        best = n;
        best_bytes = b;
      }
    }
    task->set_inherited_node(best);
  }
};

DepDomain::DepDomain(std::size_t shards, bool pooled) {
  // Clamp BEFORE rounding: rounding first would loop forever for counts
  // above 2^63 (p doubles past the top bit and wraps to 0).
  std::size_t n = shards == 0 ? 1 : shards;
  if (n > 256) n = 256;
  n = round_up_pow2(n);
  shards_.reserve(n);
  for (std::size_t i = 0; i < n; ++i)
    shards_.push_back(std::make_unique<Shard>(pooled));
  mask_ = n - 1;
}

DepDomain::~DepDomain() = default;

std::size_t DepDomain::shard_of(std::uintptr_t addr) const noexcept {
  if (mask_ == 0) return 0;
  return static_cast<std::size_t>(
             mix_stripe(static_cast<std::uint64_t>(addr >> kStripeShift))) &
         mask_;
}

DepDomain::Map::iterator DepDomain::split(Map& map, Map::iterator it,
                                          std::uintptr_t at) {
  // [s, end) with s < at < end  becomes  [s, at) + [at, end), both carrying
  // the same history (shared comm_lock keeps group exclusion intact).
  Entry right = it->second; // copy history
  it->second.end = at;
  auto [nit, inserted] = map.emplace(at, std::move(right));
  (void)inserted;
  return nit;
}

void DepDomain::register_range(Map& map, std::uintptr_t begin,
                               std::uintptr_t end, Mode mode, RegCtx& ctx) {
  const TaskPtr& task = ctx.task;

  // Edges from the entry's current writer set (last writer or group).
  auto writer_set_edges = [&](Entry& e, DepKind kind, std::uint64_t bytes) {
    ctx.add_edge(e.last_writer, kind, bytes);
    for (const TaskPtr& g : e.group) ctx.add_edge(g, kind, bytes);
  };

  // Applies the access mode to one fully-covered entry [entry_begin, e.end).
  auto apply = [&](Entry& e, std::uintptr_t entry_begin) {
    const std::uint64_t bytes = e.end - entry_begin;
    switch (mode) {
      case Mode::In:
        writer_set_edges(e, DepKind::Raw, bytes);
        e.readers.push_back(task);
        e.group_open = false; // readers close groups (group stays as writer)
        e.epoch_writers.clear(); // no more joiners: release the epoch refs
        e.epoch_readers.clear();
        break;

      case Mode::Out:
      case Mode::InOut:
        writer_set_edges(e, DepKind::Waw, bytes);
        for (const TaskPtr& r : e.readers) ctx.add_edge(r, DepKind::War, bytes);
        e.last_writer = task;
        e.group.clear();
        e.group_open = false;
        e.comm_lock.reset();
        e.readers.clear();
        e.epoch_writers.clear();
        e.epoch_readers.clear();
        break;

      case Mode::Commutative:
      case Mode::Concurrent:
        if (e.group_open && e.group_mode == mode) {
          // Join the open group: unordered among members, but ordered after
          // the epoch that preceded the group — replay the starter's edges.
          for (const TaskPtr& w : e.epoch_writers)
            ctx.add_edge(w, DepKind::Waw, bytes);
          for (const TaskPtr& r : e.epoch_readers)
            ctx.add_edge(r, DepKind::War, bytes);
          e.group.push_back(task);
        } else {
          // Start a new group ordered after the previous epoch; snapshot
          // that epoch so later joiners take the same edges.  The epoch
          // vectors are rebuilt in place (clear + swap, not move-assign)
          // so the entry's buffers keep their capacity across epochs —
          // steady-state group churn stays allocation-free.
          e.epoch_writers.clear();
          if (e.last_writer) e.epoch_writers.push_back(e.last_writer);
          for (const TaskPtr& g : e.group) e.epoch_writers.push_back(g);
          writer_set_edges(e, DepKind::Waw, bytes);
          for (const TaskPtr& r : e.readers) ctx.add_edge(r, DepKind::War, bytes);
          e.epoch_readers.swap(e.readers);
          e.last_writer.reset();
          e.group.clear();
          e.group.push_back(task);
          e.group_mode = mode;
          e.group_open = true;
          e.readers.clear();
          e.comm_lock.reset();
        }
        if (mode == Mode::Commutative) {
          if (!e.comm_lock) e.comm_lock = std::make_shared<std::mutex>();
          task->add_exclusion_lock(e.comm_lock);
        }
        break;
    }
  };

  std::uintptr_t cursor = begin;

  // Locate the first entry that could overlap [begin, end).
  auto it = map.lower_bound(begin);
  if (it != map.begin()) {
    auto prev = std::prev(it);
    if (prev->second.end > begin) it = prev;
  }

  while (cursor < end) {
    if (it == map.end() || it->first >= end) {
      // Tail gap [cursor, end): no history — first touch.
      Entry fresh;
      fresh.end = end;
      it = map.emplace_hint(it, cursor, std::move(fresh));
      apply(it->second, cursor);
      cursor = end;
      break;
    }

    if (it->first > cursor) {
      // Gap [cursor, it->first): first touch for this sub-range.
      Entry fresh;
      fresh.end = it->first;
      auto git = map.emplace_hint(it, cursor, std::move(fresh));
      apply(git->second, cursor);
      cursor = it->first;
      continue;
    }

    // Here it->first <= cursor and the entry overlaps the access.
    if (it->first < cursor) it = split(map, it, cursor);
    if (it->second.end > end) split(map, it, end);
    // Now [it->first, it->second.end) lies fully inside the access.
    apply(it->second, it->first);
    cursor = it->second.end;
    ++it;
  }
}

RegisterReceipt DepDomain::register_task(const TaskPtr& task,
                                         const EdgeSink& sink,
                                         TraceSystem* trace) {
  RegCtx ctx{task, sink, trace};
  RegisterReceipt receipt;

  // Access-free tasks (pure .after() chains, fire-and-forget bodies) have
  // nothing to register: take no lock at all — on either path — so
  // dependency-free spawn spam never serializes on shard 0 and the
  // receipt (shards_touched = 0) reads the same under every shard count.
  bool any_access = false;
  for (const Access& acc : task->accesses()) {
    if (!acc.empty()) {
      any_access = true;
      break;
    }
  }
  if (!any_access) return receipt;

  if (shards_.size() == 1) {
    // Classic single-lock domain: no stripe splitting, one lock, the exact
    // entry layout (and edge discovery order) of the pre-sharding runtime.
    Shard& sh = *shards_.front();
    if (!sh.mu.try_lock()) {
      receipt.contended = true;
      sh.mu.lock();
    }
    receipt.shards_touched = 1;
    try {
      for (const Access& acc : task->accesses()) {
        if (acc.empty()) continue;
        register_range(sh.map, acc.begin, acc.end, acc.mode, ctx);
      }
      ctx.finalize_inheritance();
    } catch (...) {
      // bad_alloc in the map or a throwing sink must not leak the shard
      // lock — that would wedge every later spawn touching it.
      sh.mu.unlock();
      throw;
    }
    sh.mu.unlock();
    if (trace && receipt.contended) trace->emit_dep_contended(task->id());
    return receipt;
  }

  // Sharded path.  Split each access at stripe boundaries into per-shard
  // pieces (coalescing runs of consecutive stripes that hash alike), then
  // lock the touched shard set in ascending shard-id order so concurrent
  // registrations cannot deadlock and the whole registration is atomic —
  // two tasks racing over two shards can never observe opposite orders
  // (which would put a cycle in the graph and hang both).
  //
  // The piece list lives on the stack for typical tasks (a handful of
  // sub-stripe regions) and the touched-shard set is a 256-bit bitmap —
  // ascending-bit iteration doubles as the sorted lock order — so the
  // common case adds no allocation to the spawn path.
  struct Piece {
    std::uint16_t shard;
    Mode mode;
    std::uintptr_t begin;
    std::uintptr_t end;
  };
  constexpr std::size_t kInlinePieces = 24;
  Piece inline_pieces[kInlinePieces];
  std::vector<Piece> spill; // only for pathologically fragmented accesses
  std::size_t n_pieces = 0;
  auto append_piece = [&](std::uint16_t sh, std::uintptr_t b, std::uintptr_t e,
                          Mode m) {
    if (n_pieces < kInlinePieces) {
      inline_pieces[n_pieces] = Piece{sh, m, b, e};
    } else {
      if (spill.empty()) spill.assign(inline_pieces, inline_pieces + n_pieces);
      spill.push_back(Piece{sh, m, b, e});
    }
    ++n_pieces;
  };
  std::uint64_t shard_bits[4] = {0, 0, 0, 0};

  for (const Access& acc : task->accesses()) {
    if (acc.empty()) continue;
    std::uintptr_t cursor = acc.begin;
    while (cursor < acc.end) {
      const std::size_t sh = shard_of(cursor);
      // Advance to the end of the run of stripes mapping to this shard.
      std::uintptr_t piece_end = acc.end;
      std::uintptr_t stripe_end =
          ((cursor >> kStripeShift) + 1) << kStripeShift;
      while (stripe_end < acc.end && stripe_end > cursor) {
        if (shard_of(stripe_end) != sh) {
          piece_end = stripe_end;
          break;
        }
        stripe_end += (std::uintptr_t{1} << kStripeShift);
      }
      append_piece(static_cast<std::uint16_t>(sh), cursor, piece_end,
                   acc.mode);
      shard_bits[sh >> 6] |= std::uint64_t{1} << (sh & 63);
      cursor = piece_end;
    }
  }

  // Lock in ascending shard-id order (bitmap scan), counting contention.
  for (std::size_t word = 0; word < 4; ++word) {
    std::uint64_t bits = shard_bits[word];
    while (bits != 0) {
      const auto bit = static_cast<unsigned>(__builtin_ctzll(bits));
      bits &= bits - 1;
      Shard& sh = *shards_[(word << 6) | bit];
      if (!sh.mu.try_lock()) {
        receipt.contended = true;
        sh.mu.lock();
      }
      ++receipt.shards_touched;
    }
  }

  // Unlock in descending order (reverse bitmap scan); also the exception
  // path — bad_alloc in a map or a throwing sink must not leak the locks.
  auto unlock_all = [&] {
    for (std::size_t word = 4; word-- > 0;) {
      std::uint64_t bits = shard_bits[word];
      while (bits != 0) {
        const auto top = static_cast<unsigned>(63 - __builtin_clzll(bits));
        bits &= ~(std::uint64_t{1} << top);
        shards_[(word << 6) | top]->mu.unlock();
      }
    }
  };

  // Pieces run in declaration order (mode sequences against the same
  // region must replay exactly as the unsharded domain would).
  try {
    const Piece* pieces = spill.empty() ? inline_pieces : spill.data();
    for (std::size_t i = 0; i < n_pieces; ++i) {
      const Piece& p = pieces[i];
      register_range(shards_[p.shard]->map, p.begin, p.end, p.mode, ctx);
    }
    ctx.finalize_inheritance();
  } catch (...) {
    unlock_all();
    throw;
  }

  unlock_all();
  if (trace && receipt.contended) trace->emit_dep_contended(task->id());
  return receipt;
}

void DepDomain::collect_overlapping(std::uintptr_t begin, std::uintptr_t end,
                                    std::vector<TaskPtr>& out) const {
  if (begin >= end) return;
  // Entries for any byte of [begin, end) can only live in the shards its
  // stripes hash to, but scanning every shard for the range is simpler and
  // the wait set is not a hot path.  Shards are locked one at a time: the
  // wait-set contract only covers previously spawned siblings, so no
  // cross-shard atomicity is needed.
  for (const auto& shard : shards_) {
    std::lock_guard lock(shard->mu);
    const Map& map = shard->map;
    auto it = map.lower_bound(begin);
    if (it != map.begin()) {
      auto prev = std::prev(it);
      if (prev->second.end > begin) it = prev;
    }
    for (; it != map.end() && it->first < end; ++it) {
      const Entry& e = it->second;
      if (e.last_writer && !e.last_writer->finished())
        out.push_back(e.last_writer);
      for (const TaskPtr& g : e.group) {
        if (g && !g->finished()) out.push_back(g);
      }
      for (const TaskPtr& r : e.readers) {
        if (r && !r->finished()) out.push_back(r);
      }
    }
  }
}

std::size_t DepDomain::entry_count() const {
  std::size_t n = 0;
  for (const auto& shard : shards_) {
    std::lock_guard lock(shard->mu);
    n += shard->map.size();
  }
  return n;
}

} // namespace oss
