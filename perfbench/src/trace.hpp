#pragma once

// In-memory span recorder for the traced benchmark run. Spans are recorded
// by the benchmark's own code around each call into a vizcache layer, kept
// in per-thread buffers (no lock on the recording path), and written out
// once the run ends.

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "util/annotated_mutex.hpp"
#include "util/types.hpp"

namespace vizcache::perfbench {

/// One timed call. `name` is "<layer>.<operation>" (a string literal);
/// `parent` is the id of the enclosing span on the same thread, 0 for a
/// root. Spans of one request (a frame, a step or a wire round) share
/// `request`.
struct Span {
  const char* name = "";
  u64 id = 0;
  u64 parent = 0;
  u64 request = 0;
  double start_s = 0.0;
  double end_s = 0.0;
};

/// Layer of a span name: the text before the first '.', or the whole name.
std::string span_layer(const std::string& name);

/// Self time of every span, summed per layer: a span's duration minus the
/// part of its interval covered by its children (overlapping children are
/// counted once; parts outside the parent are ignored).
std::map<std::string, double> self_seconds_by_layer(
    const std::vector<Span>& spans);

/// Collects spans from any number of threads. Untraced code passes a null
/// tracer, which costs one branch per span.
class Tracer {
 public:
  Tracer();
  ~Tracer();
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Every span recorded so far. Call after the recording threads joined.
  std::vector<Span> spans() const EXCLUDES(mutex_);

  /// Write spans() as a JSON array (times in microseconds from the first
  /// span's start). Throws IoError when the file cannot be written.
  void write_json(const std::string& path) const;

 private:
  friend class ScopedSpan;
  struct Buffer {
    u64 slot = 0;
    u64 next_seq = 1;
    std::vector<Span> spans;
    std::vector<u64> open;  ///< ids of the spans open on this thread
  };
  /// This thread's buffer, registered on first use.
  Buffer& local() EXCLUDES(mutex_);

  const u64 generation_;
  mutable Mutex mutex_;
  std::vector<std::unique_ptr<Buffer>> buffers_ GUARDED_BY(mutex_);
};

/// RAII span: records [construction, destruction) into `tracer`'s buffer
/// for this thread. A null `tracer` records nothing.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name, u64 request);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer::Buffer* buffer_ = nullptr;
  usize index_ = 0;
};

}  // namespace vizcache::perfbench
