#include "ompss/dep_domain.hpp"

#include <algorithm>
#include <iterator>
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
/// Producers are plain pointers out of current-generation entries, so each
/// is alive: the shard that names it retains it, and every shard the
/// registration touches stays locked for its whole duration — no quiesce
/// or sweep can release a producer this registration will visit.
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

  void add_edge(Task* producer, DepKind kind, std::uint64_t bytes) {
    if (producer == nullptr || producer == task.get()) return;
    vote(producer->home_node(), bytes);
    // A retired producer needs no edge and can never need one later in
    // this registration (finished is monotonic), so it skips the dedup
    // scan and the successor lock.  It has voted above: the edge set and
    // the inherited home both come out as if it had been recorded.
    if (producer->finished()) return;
    if (!seen_insert(producer)) return;
    if (!producer->add_successor_edge(task)) {
      return; // already retired: no edge needed
    }
    if (sink) sink(TaskPtr::share(producer), task, kind);
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

DepDomain::DepDomain(std::size_t shards, std::size_t sweep_floor)
    : sweep_floor_(sweep_floor) {
  // Clamp BEFORE rounding: rounding first would loop forever for counts
  // above 2^63 (p doubles past the top bit and wraps to 0).
  std::size_t n = shards == 0 ? 1 : shards;
  if (n > 256) n = 256;
  n = round_up_pow2(n);
  shards_.reserve(n);
  for (std::size_t i = 0; i < n; ++i)
    shards_.push_back(std::make_unique<Shard>());
  mask_ = n - 1;
}

DepDomain::~DepDomain() = default;

std::size_t DepDomain::shard_of(std::uintptr_t addr) const noexcept {
  if (mask_ == 0) return 0;
  return static_cast<std::size_t>(
             mix_stripe(static_cast<std::uint64_t>(addr >> kStripeShift))) &
         mask_;
}

void DepDomain::Entry::forget(std::uint64_t g) noexcept {
  gen = g;
  last_writer = nullptr;
  group_mode = Mode::In;
  group_open = false;
  group.clear();
  comm_lock.reset();
  readers.clear();
  epoch_writers.clear();
  epoch_readers.clear();
}

// ---------------------------------------------------------------------------
// Store
// ---------------------------------------------------------------------------

DepDomain::Store::Pos DepDomain::Store::find(
    std::uintptr_t begin) const noexcept {
  // The last leaf starting at or before `begin`, then its last entry
  // starting at or before `begin`: that entry holds `begin` if any does.
  const auto top = std::upper_bound(firsts_.begin(), firsts_.end(), begin);
  if (top == firsts_.begin()) return {0, 0}; // empty, or all keys above
  const std::size_t leaf = static_cast<std::size_t>(top - firsts_.begin()) - 1;
  const std::vector<std::uintptr_t>& keys = leaves_[leaf].keys;
  const std::size_t slot = static_cast<std::size_t>(
      std::upper_bound(keys.begin(), keys.end(), begin) - keys.begin() - 1);
  const Pos p{leaf, slot};
  return at(p).end > begin ? p : next(p);
}

DepDomain::Store::Pos DepDomain::Store::prev(Pos p) const noexcept {
  if (p.slot > 0) return {p.leaf, p.slot - 1};
  return {p.leaf - 1, leaves_[p.leaf - 1].keys.size() - 1};
}

DepDomain::Store::Pos DepDomain::Store::insert(Pos p, std::uintptr_t key,
                                               Entry&& e) {
  // Every allocation happens before the first mutation, so a bad_alloc
  // leaves the store as it was.
  if (leaves_.empty()) {
    firsts_.reserve(1);
    leaves_.reserve(1);
    Leaf first;
    first.keys.push_back(key);
    first.vals.push_back(std::move(e));
    firsts_.push_back(key);
    leaves_.push_back(std::move(first));
    size_ = 1;
    return {0, 0};
  }
  // Past the end, the key appends to the last leaf.  Between two leaves,
  // the left one takes it while it has room, so ascending inserts append
  // and the leaf index needs no update.
  if (is_end(p)) {
    p = {leaves_.size() - 1, leaves_.back().keys.size()};
  } else if (p.slot == 0 && p.leaf > 0 &&
             leaves_[p.leaf - 1].keys.size() < kLeafCap) {
    p = {p.leaf - 1, leaves_[p.leaf - 1].keys.size()};
  }
  if (leaves_[p.leaf].keys.size() == kLeafCap) {
    // Split the full leaf in halves.
    constexpr std::size_t kHalf = kLeafCap / 2;
    leaves_.reserve(leaves_.size() + 1);
    firsts_.reserve(firsts_.size() + 1);
    Leaf& full = leaves_[p.leaf];
    Leaf right;
    right.keys.reserve(kLeafCap);
    right.vals.reserve(kLeafCap);
    right.keys.assign(full.keys.begin() + kHalf, full.keys.end());
    right.vals.assign(std::make_move_iterator(full.vals.begin() + kHalf),
                      std::make_move_iterator(full.vals.end()));
    full.keys.resize(kHalf);
    full.vals.erase(full.vals.begin() + kHalf, full.vals.end());
    firsts_.insert(firsts_.begin() + static_cast<std::ptrdiff_t>(p.leaf) + 1,
                   right.keys.front());
    leaves_.insert(leaves_.begin() + static_cast<std::ptrdiff_t>(p.leaf) + 1,
                   std::move(right));
    if (p.slot > kHalf) p = {p.leaf + 1, p.slot - kHalf};
  }
  Leaf& leaf = leaves_[p.leaf];
  const auto at = static_cast<std::ptrdiff_t>(p.slot);
  leaf.keys.insert(leaf.keys.begin() + at, key);
  try {
    leaf.vals.insert(leaf.vals.begin() + at, std::move(e));
  } catch (...) {
    leaf.keys.erase(leaf.keys.begin() + at);
    throw;
  }
  if (p.slot == 0) firsts_[p.leaf] = key;
  ++size_;
  return p;
}

DepDomain::Store::Pos DepDomain::split(Store& st, Store::Pos p,
                                       std::uintptr_t at) {
  // [s, end) with s < at < end  becomes  [s, at) + [at, end), both carrying
  // the same history (shared comm_lock keeps group exclusion intact).  The
  // left piece shrinks only once the right one is in.
  Entry right = st.at(p); // copy history
  const Store::Pos r = st.insert(st.next(p), at, std::move(right));
  st.at(st.prev(r)).end = at;
  return r;
}

// ---------------------------------------------------------------------------
// Registration
// ---------------------------------------------------------------------------

void DepDomain::register_range(Shard& sh, std::uintptr_t begin,
                               std::uintptr_t end, Mode mode, RegCtx& ctx) {
  Store& st = sh.store;
  const std::uint64_t gen = sh.gen;
  Task* const task = ctx.task.get();

  // Edges from the entry's current writer set (last writer or group).
  auto writer_set_edges = [&](Entry& e, DepKind kind, std::uint64_t bytes) {
    ctx.add_edge(e.last_writer, kind, bytes);
    for (Task* g : e.group) ctx.add_edge(g, kind, bytes);
  };

  // Applies the access mode to one fully-covered entry [entry_begin, e.end).
  auto apply = [&](Entry& e, std::uintptr_t entry_begin) {
    if (e.gen != gen) e.forget(gen); // history of a forgotten generation
    const std::uint64_t bytes = e.end - entry_begin;
    switch (mode) {
      case Mode::In:
        writer_set_edges(e, DepKind::Raw, bytes);
        e.readers.push_back(task);
        e.group_open = false; // readers close groups (group stays as writer)
        e.epoch_writers.clear(); // no more joiners: drop the epoch
        e.epoch_readers.clear();
        break;

      case Mode::Out:
      case Mode::InOut:
        writer_set_edges(e, DepKind::Waw, bytes);
        for (Task* r : e.readers) ctx.add_edge(r, DepKind::War, bytes);
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
          for (Task* w : e.epoch_writers) ctx.add_edge(w, DepKind::Waw, bytes);
          for (Task* r : e.epoch_readers) ctx.add_edge(r, DepKind::War, bytes);
          e.group.push_back(task);
        } else {
          // Start a new group ordered after the previous epoch; snapshot
          // that epoch so later joiners take the same edges.  The epoch
          // vectors are rebuilt in place (clear + swap, not move-assign)
          // so the entry's buffers keep their capacity across epochs —
          // steady-state group churn stays allocation-free.
          e.epoch_writers.clear();
          if (e.last_writer) e.epoch_writers.push_back(e.last_writer);
          for (Task* g : e.group) e.epoch_writers.push_back(g);
          writer_set_edges(e, DepKind::Waw, bytes);
          for (Task* r : e.readers) ctx.add_edge(r, DepKind::War, bytes);
          e.epoch_readers.swap(e.readers);
          e.last_writer = nullptr;
          e.group.clear();
          e.group.push_back(task);
          e.group_mode = mode;
          e.group_open = true;
          e.readers.clear();
          e.comm_lock.reset();
        }
        if (mode == Mode::Commutative) {
          if (!e.comm_lock) e.comm_lock = std::make_shared<std::mutex>();
          ctx.task->add_exclusion_lock(e.comm_lock);
        }
        break;
    }
  };

  // A first touch of [from, to): a fresh entry of the current generation.
  auto fresh = [&](Store::Pos before, std::uintptr_t from, std::uintptr_t to) {
    Entry e;
    e.end = to;
    e.gen = gen;
    const Store::Pos p = st.insert(before, from, std::move(e));
    apply(st.at(p), from);
    return p;
  };

  std::uintptr_t cursor = begin;
  Store::Pos p = st.find(begin);
  while (cursor < end) {
    if (st.is_end(p) || st.key(p) >= end) {
      fresh(p, cursor, end); // tail gap: no history
      break;
    }
    const std::uintptr_t key = st.key(p);
    if (key > cursor) {
      // Gap [cursor, key): first touch for this sub-range.
      p = st.next(fresh(p, cursor, key));
      cursor = key;
      continue;
    }
    // Here key <= cursor and the entry overlaps the access.
    if (key < cursor) p = split(st, p, cursor);
    if (st.at(p).end > end) p = st.prev(split(st, p, end));
    // Now the entry at p lies fully inside the access.
    Entry& e = st.at(p);
    apply(e, cursor);
    cursor = e.end;
    p = st.next(p);
  }
}

void DepDomain::after_register(Shard& sh) {
  const std::size_t threshold =
      std::max({sweep_floor_, 2 * sh.store.size(), sh.sweep_at});
  if (sh.retained.size() > threshold) sweep(sh);
}

void DepDomain::sweep(Shard& sh) {
  // A finished producer without a home can add no edge and cast no vote:
  // dropping it from an entry changes nothing a later registration sees.
  const auto keep = [](const Task* t) {
    return t->home_node() >= 0 || !t->finished();
  };
  std::vector<const Task*>& named = sh.named;
  named.clear();
  const auto prune = [&](std::vector<Task*>& v) {
    v.erase(std::remove_if(v.begin(), v.end(),
                           [&](const Task* t) { return !keep(t); }),
            v.end());
    named.insert(named.end(), v.begin(), v.end());
  };
  const std::uint64_t gen = sh.gen;
  sh.store.for_each([&](Entry& e) {
    if (e.gen != gen) return;
    if (e.last_writer != nullptr) {
      if (keep(e.last_writer)) {
        named.push_back(e.last_writer);
      } else {
        e.last_writer = nullptr;
      }
    }
    prune(e.group);
    prune(e.readers);
    prune(e.epoch_writers);
    prune(e.epoch_readers);
  });
  std::sort(named.begin(), named.end());
  named.erase(std::unique(named.begin(), named.end()), named.end());

  // Release, in place, every retained task no entry names.
  std::size_t kept = 0;
  for (TaskPtr& t : sh.retained) {
    if (std::binary_search(named.begin(), named.end(), t.get())) {
      if (&sh.retained[kept] != &t) sh.retained[kept] = std::move(t);
      ++kept;
    } else {
      t.reset();
    }
  }
  sh.retained.resize(kept);
  // Survivors are live or homed: sweep again only once the list doubled,
  // so a domain full of unfinished tasks does not sweep per registration.
  sh.sweep_at = 2 * kept;
}

void DepDomain::quiesce(const std::function<bool()>& quiescent,
                        bool keep_homed) {
  for (const auto& shard : shards_) {
    Shard& sh = *shard;
    std::lock_guard lock(sh.mu);
    if (sh.retained.empty()) continue; // nothing registered since
    // Re-checked under the lock: a spawner that got in after the caller's
    // check has counted its task before registering it here.
    if (!quiescent()) return;
    const bool homed =
        keep_homed && std::any_of(sh.retained.begin(), sh.retained.end(),
                                  [](const TaskPtr& t) {
                                    return t->home_node() >= 0;
                                  });
    if (homed) {
      sweep(sh); // every producer finished: keeps only the homed ones
      continue;
    }
    ++sh.gen;              // every entry now reads as empty history
    sh.retained.clear();   // in place: the capacity serves the next round
    sh.sweep_at = 0;
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
      // Retained before any entry names it: every task a current entry
      // names is kept alive by this shard.
      sh.retained.push_back(task);
      for (const Access& acc : task->accesses()) {
        if (acc.empty()) continue;
        register_range(sh, acc.begin, acc.end, acc.mode, ctx);
      }
      ctx.finalize_inheritance();
      after_register(sh);
    } catch (...) {
      // bad_alloc in the store or a throwing sink must not leak the shard
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

  // The touched shards in ascending shard-id order (bitmap scan).
  auto for_each_touched = [&](auto&& f) {
    for (std::size_t word = 0; word < 4; ++word) {
      for (std::uint64_t bits = shard_bits[word]; bits != 0; bits &= bits - 1) {
        f(*shards_[(word << 6) | static_cast<unsigned>(__builtin_ctzll(bits))]);
      }
    }
  };

  // Lock in ascending shard-id order, counting contention.
  for_each_touched([&](Shard& sh) {
    if (!sh.mu.try_lock()) {
      receipt.contended = true;
      sh.mu.lock();
    }
    ++receipt.shards_touched;
  });

  // Unlock in descending order (reverse bitmap scan); also the exception
  // path — bad_alloc in a store or a throwing sink must not leak the locks.
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
    for_each_touched([&](Shard& sh) { sh.retained.push_back(task); });
    const Piece* pieces = spill.empty() ? inline_pieces : spill.data();
    for (std::size_t i = 0; i < n_pieces; ++i) {
      const Piece& p = pieces[i];
      register_range(*shards_[p.shard], p.begin, p.end, p.mode, ctx);
    }
    ctx.finalize_inheritance();
    for_each_touched([&](Shard& sh) { after_register(sh); });
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
  // cross-shard atomicity is needed.  Only current-generation entries are
  // read; their tasks are retained by the locked shard.
  const auto add = [&](Task* t) {
    if (t != nullptr && !t->finished()) out.push_back(TaskPtr::share(t));
  };
  for (const auto& shard : shards_) {
    std::lock_guard lock(shard->mu);
    const Store& st = shard->store;
    for (Store::Pos p = st.find(begin); !st.is_end(p) && st.key(p) < end;
         p = st.next(p)) {
      const Entry& e = st.at(p);
      if (e.gen != shard->gen) continue;
      add(e.last_writer);
      for (Task* g : e.group) add(g);
      for (Task* r : e.readers) add(r);
    }
  }
}

std::size_t DepDomain::entry_count() const {
  std::size_t n = 0;
  for (const auto& shard : shards_) {
    std::lock_guard lock(shard->mu);
    n += shard->store.size();
  }
  return n;
}

std::size_t DepDomain::retained_count() const {
  std::size_t n = 0;
  for (const auto& shard : shards_) {
    std::lock_guard lock(shard->mu);
    n += shard->retained.size();
  }
  return n;
}

} // namespace oss
