#include "trace.hpp"

#include <algorithm>
#include <atomic>
#include <fstream>
#include <unordered_map>

#include "stats.hpp"
#include "util/error.hpp"

namespace vizcache::perfbench {

namespace {

std::atomic<u64> g_next_generation{1};

/// Which tracer generation this thread's cached buffer belongs to.
struct ThreadCache {
  u64 generation = 0;
  void* buffer = nullptr;
};
thread_local ThreadCache t_cache;

}  // namespace

std::string span_layer(const std::string& name) {
  return name.substr(0, name.find('.'));
}

std::map<std::string, double> self_seconds_by_layer(
    const std::vector<Span>& spans) {
  std::unordered_map<u64, std::vector<const Span*>> children;
  for (const Span& s : spans) {
    if (s.parent != 0) children[s.parent].push_back(&s);
  }
  std::map<std::string, double> out;
  for (const Span& s : spans) {
    double covered = 0.0;
    auto it = children.find(s.id);
    if (it != children.end()) {
      std::vector<std::pair<double, double>> iv;
      for (const Span* c : it->second) {
        const double lo = std::max(c->start_s, s.start_s);
        const double hi = std::min(c->end_s, s.end_s);
        if (hi > lo) iv.emplace_back(lo, hi);
      }
      std::sort(iv.begin(), iv.end());
      double cur_lo = 0.0;
      double cur_hi = -1.0;
      for (const auto& [lo, hi] : iv) {
        if (lo > cur_hi) {
          if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
          cur_lo = lo;
          cur_hi = hi;
        } else {
          cur_hi = std::max(cur_hi, hi);
        }
      }
      if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
    }
    out[span_layer(s.name)] += (s.end_s - s.start_s) - covered;
  }
  return out;
}

Tracer::Tracer() : generation_(g_next_generation.fetch_add(1)) {}

Tracer::~Tracer() = default;

Tracer::Buffer& Tracer::local() {
  if (t_cache.generation == generation_) {
    return *static_cast<Buffer*>(t_cache.buffer);
  }
  MutexLock lock(mutex_);
  auto buffer = std::make_unique<Buffer>();
  buffer->slot = buffers_.size() + 1;
  buffer->spans.reserve(1 << 16);
  Buffer* raw = buffer.get();
  buffers_.push_back(std::move(buffer));
  t_cache = {generation_, raw};
  return *raw;
}

std::vector<Span> Tracer::spans() const {
  MutexLock lock(mutex_);
  std::vector<Span> all;
  for (const auto& b : buffers_) {
    all.insert(all.end(), b->spans.begin(), b->spans.end());
  }
  return all;
}

void Tracer::write_json(const std::string& path) const {
  const std::vector<Span> all = spans();
  double origin = all.empty() ? 0.0 : all.front().start_s;
  for (const Span& s : all) origin = std::min(origin, s.start_s);
  std::ofstream out(path);
  if (!out) throw IoError("cannot write trace file " + path);
  out << "[\n";
  for (usize i = 0; i < all.size(); ++i) {
    const Span& s = all[i];
    out << "  {\"name\": \"" << s.name << "\", \"id\": " << s.id
        << ", \"parent\": " << s.parent << ", \"request\": " << s.request
        << ", \"start_us\": " << (s.start_s - origin) * 1e6
        << ", \"end_us\": " << (s.end_s - origin) * 1e6 << "}"
        << (i + 1 < all.size() ? ",\n" : "\n");
  }
  out << "]\n";
  if (!out) throw IoError("short write to trace file " + path);
}

ScopedSpan::ScopedSpan(Tracer* tracer, const char* name, u64 request) {
  if (tracer == nullptr) return;
  buffer_ = &tracer->local();
  Span s;
  s.name = name;
  s.id = (buffer_->slot << 40) | buffer_->next_seq++;
  s.parent = buffer_->open.empty() ? 0 : buffer_->open.back();
  s.request = request;
  index_ = buffer_->spans.size();
  buffer_->open.push_back(s.id);
  s.start_s = now_s();
  buffer_->spans.push_back(s);
}

ScopedSpan::~ScopedSpan() {
  if (buffer_ == nullptr) return;
  buffer_->spans[index_].end_s = now_s();
  buffer_->open.pop_back();
}

}  // namespace vizcache::perfbench
