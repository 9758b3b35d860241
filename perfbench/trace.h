// Span tracer for the benchmark's traced mode.
//
// Spans are recorded only at boundaries the benchmark itself calls into
// (a source pull, a result-sink call, a broadcaster publish, a
// checkpoint, a client socket write, a hierarchy build, one reference
// processUnit). Each span carries a name "<layer>.<what>", its start and
// end on the steady clock, the recording thread and the span that caused
// it. Spans stay in per-thread memory buffers until the run ends; then the
// benchmark computes self time per layer (a span's duration minus the part
// of it its children cover) and writes the spans out as a Chrome trace.
//
// A disabled tracer records nothing: every call is one branch. A process
// holds at most one tracer (each thread caches its buffer of it).
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

std::int64_t nowNs();

struct Span {
  std::uint32_t id = 0;
  std::uint32_t parent = 0;  // 0 = no parent
  const char* name = "";     // "<layer>.<what>", a string literal
  std::int64_t startNs = 0;
  std::int64_t endNs = 0;
  std::uint32_t thread = 0;
};

class Tracer {
 public:
  explicit Tracer(bool enabled);
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  bool enabled() const { return enabled_; }

  /// Span ids are allocated when a span opens, so children recorded on
  /// other threads can name it as their parent while it is still open.
  std::uint32_t newId() { return nextId_.fetch_add(1) + 1; }
  void record(const Span& span);

  /// The span that caused work on threads the benchmark does not own
  /// (engine workers and ingest threads call back into the benchmark's
  /// sink and source decorator under it).
  void setRoot(std::uint32_t id) { root_.store(id); }
  std::uint32_t root() const { return root_.load(); }

  /// Every span recorded so far (call after all recording threads ended).
  std::vector<Span> spans() const;

  /// Chrome trace-event JSON ("X" events, microseconds).
  bool writeChromeTrace(const std::string& path) const;

 private:
  struct ThreadBuffer {
    std::uint32_t thread = 0;
    std::vector<Span> spans;
  };
  ThreadBuffer& buffer();

  bool enabled_;
  std::atomic<std::uint32_t> nextId_{0};
  std::atomic<std::uint32_t> root_{0};
  mutable std::mutex mu_;  // guards buffers_ (the list, not the contents)
  std::vector<std::unique_ptr<ThreadBuffer>> buffers_;
};

/// RAII span. With a disabled tracer (or none) it records nothing.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name, std::uint32_t parent);
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  ~ScopedSpan() { finish(); }

  /// Ends the span early (idempotent).
  void finish();

  std::uint32_t id() const { return span_.id; }

 private:
  Tracer* tracer_;
  Span span_;
};

/// Self time per layer: for each span, its duration minus the union of its
/// children's intervals clipped to it, summed by layer (the name up to the
/// first '.'). Seconds.
std::map<std::string, double> selfSecondsByLayer(const std::vector<Span>& spans);

}  // namespace perfbench
