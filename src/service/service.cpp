#include "service/service.hpp"

#include <algorithm>
#include <cstdlib>

namespace oss::service {

const char* reject_name(Reject r) noexcept {
  switch (r) {
    case Reject::None: return "none";
    case Reject::Capacity: return "capacity";
    case Reject::Closed: return "closed";
  }
  return "?";
}

Config Config::from_env() {
  Config c;
  if (const char* v = std::getenv("OSS_SERVICE_MAX_STREAMS")) {
    c.max_streams = parse_env_size("OSS_SERVICE_MAX_STREAMS", v);
  }
  if (const char* v = std::getenv("OSS_SERVICE_WINDOW")) {
    c.window = parse_env_size("OSS_SERVICE_WINDOW", v);
  }
  c.max_streams = std::max<std::size_t>(c.max_streams, 1);
  c.window = std::max<std::size_t>(c.window, 1);
  return c;
}

// --- Window -----------------------------------------------------------------

bool Window::acquire(Submit policy) {
  std::unique_lock lock(mu_);
  if (closed_) return false;
  if (in_flight_ >= depth_) {
    if (policy == Submit::FailFast) {
      ++rejected_;
      return false;
    }
    ++blocked_;
    cv_.wait(lock, [this] { return closed_ || in_flight_ < depth_; });
    if (closed_) return false;
  }
  ++in_flight_;
  peak_ = std::max(peak_, in_flight_);
  return true;
}

void Window::release() {
  {
    std::lock_guard lock(mu_);
    if (in_flight_ == 0) {
      // Release without acquire is a caller bug; tolerate it rather than
      // underflow (the counters are diagnostics, not ownership).
      return;
    }
    --in_flight_;
  }
  cv_.notify_one();
}

void Window::close() {
  {
    std::lock_guard lock(mu_);
    closed_ = true;
  }
  cv_.notify_all();
}

bool Window::closed() const {
  std::lock_guard lock(mu_);
  return closed_;
}

std::size_t Window::in_flight() const {
  std::lock_guard lock(mu_);
  return in_flight_;
}

std::size_t Window::peak() const {
  std::lock_guard lock(mu_);
  return peak_;
}

std::uint64_t Window::blocked() const {
  std::lock_guard lock(mu_);
  return blocked_;
}

std::uint64_t Window::rejected() const {
  std::lock_guard lock(mu_);
  return rejected_;
}

// --- Stream -----------------------------------------------------------------

Stream::Stream(Service& svc, oss::Runtime& rt, std::string name,
               std::uint64_t id, int node, std::size_t window_depth)
    : svc_(&svc),
      rt_(&rt),
      name_(std::move(name)),
      id_(id),
      node_(node),
      window_(window_depth) {
  group_.emplace(rt);
}

Stream::~Stream() {
  try {
    close();
  } catch (...) {
    // A child-task exception surfacing in the drain has nowhere to go from
    // a destructor; explicit close() is the path that propagates it.
  }
}

oss::TaskBuilder Stream::task(std::string label) {
  std::lock_guard lock(mu_);
  if (!open_) {
    throw std::logic_error("oss::service::Stream::task: stream '" + name_ +
                           "' is closed");
  }
  return group_->task(std::move(label));
}

void Stream::drain() {
  std::lock_guard lock(mu_);
  if (group_) group_->wait();
}

void Stream::close() {
  {
    std::lock_guard lock(mu_);
    if (!open_) return;
    open_ = false;
  }
  // Wake blocked submitters first — a submitter stuck in acquire() would
  // otherwise never free the window slot the drain below could need.
  window_.close();
  {
    std::lock_guard lock(mu_);
    if (group_) {
      group_->wait(); // drain: admitted work completes, nothing is cancelled
      group_.reset();
    }
  }
  svc_->on_stream_closed();
}

bool Stream::open() const {
  std::lock_guard lock(mu_);
  return open_;
}

std::size_t Stream::pending() const {
  std::lock_guard lock(mu_);
  return group_ ? group_->pending() : 0;
}

// --- Service ----------------------------------------------------------------

Service::Service(oss::Runtime& rt, Config cfg)
    : rt_(&rt), cfg_(cfg), num_nodes_(rt.topology().num_nodes()) {
  cfg_.max_streams = std::max<std::size_t>(cfg_.max_streams, 1);
  cfg_.window = std::max<std::size_t>(cfg_.window, 1);
  lent_slot0_ = rt.lend_slot0();
}

Service::~Service() {
  try {
    close();
  } catch (...) {
    // see ~Stream
  }
  if (lent_slot0_) rt_->reclaim_slot0();
}

StreamPtr Service::open(std::string name, Reject* why) {
  std::uint64_t id = 0;
  int node = -1;
  {
    std::lock_guard lock(mu_);
    if (closed_) {
      ++rejected_closed_;
      if (why) *why = Reject::Closed;
      return nullptr;
    }
    if (active_ >= cfg_.max_streams) {
      ++rejected_capacity_;
      if (why) *why = Reject::Capacity;
      return nullptr;
    }
    ++active_;
    ++opened_;
    id = next_id_++;
    // Round-robin stream→node placement; single-node boxes get -1 (no
    // binding, no registration — plain allocation downstream).
    node = num_nodes_ > 1 ? static_cast<int>(id % num_nodes_) : -1;
  }
  StreamPtr s(new Stream(*this, *rt_, std::move(name), id, node, cfg_.window));
  {
    std::lock_guard lock(mu_);
    streams_.erase(std::remove_if(streams_.begin(), streams_.end(),
                                  [](const std::weak_ptr<Stream>& w) {
                                    return w.expired();
                                  }),
                   streams_.end());
    streams_.push_back(s);
  }
  if (why) *why = Reject::None;
  return s;
}

void Service::close() {
  std::vector<std::weak_ptr<Stream>> to_close;
  {
    std::lock_guard lock(mu_);
    closed_ = true;
    to_close = streams_;
  }
  for (auto& w : to_close) {
    if (StreamPtr s = w.lock()) s->close();
  }
}

void Service::on_stream_closed() {
  std::lock_guard lock(mu_);
  if (active_ > 0) --active_;
  ++closed_streams_;
}

Service::Stats Service::stats() const {
  std::lock_guard lock(mu_);
  Stats s;
  s.opened = opened_;
  s.closed = closed_streams_;
  s.rejected_capacity = rejected_capacity_;
  s.rejected_closed = rejected_closed_;
  s.active = active_;
  return s;
}

} // namespace oss::service
