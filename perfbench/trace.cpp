#include "trace.h"

#include <algorithm>
#include <cstdio>
#include <unordered_map>

#include "common/timer.h"

namespace perfbench {

std::int64_t nowNs() { return tiresias::monotonicNanos(); }

Tracer::Tracer(bool enabled) : enabled_(enabled) {}

Tracer::ThreadBuffer& Tracer::buffer() {
  // The calling thread's buffer. A run creates one tracer, so a plain
  // per-thread pointer is enough.
  thread_local ThreadBuffer* mine = nullptr;
  if (mine != nullptr) return *mine;
  std::lock_guard lk(mu_);
  auto buf = std::make_unique<ThreadBuffer>();
  buf->thread = static_cast<std::uint32_t>(buffers_.size());
  buf->spans.reserve(1024);
  mine = buf.get();
  buffers_.push_back(std::move(buf));
  return *mine;
}

void Tracer::record(const Span& span) {
  ThreadBuffer& buf = buffer();
  Span s = span;
  s.thread = buf.thread;
  buf.spans.push_back(s);
}

std::vector<Span> Tracer::spans() const {
  std::lock_guard lk(mu_);
  std::vector<Span> out;
  for (const auto& buf : buffers_) {
    out.insert(out.end(), buf->spans.begin(), buf->spans.end());
  }
  return out;
}

bool Tracer::writeChromeTrace(const std::string& path) const {
  const std::vector<Span> all = spans();
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::int64_t origin = 0;
  for (const Span& s : all) {
    if (origin == 0 || s.startNs < origin) origin = s.startNs;
  }
  std::fprintf(f, "{\"traceEvents\":[\n");
  for (std::size_t i = 0; i < all.size(); ++i) {
    const Span& s = all[i];
    std::fprintf(f,
                 "{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%u,"
                 "\"parent\":%u}}%s\n",
                 s.name, s.thread,
                 static_cast<double>(s.startNs - origin) / 1e3,
                 static_cast<double>(s.endNs - s.startNs) / 1e3, s.id,
                 s.parent, i + 1 < all.size() ? "," : "");
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

ScopedSpan::ScopedSpan(Tracer* tracer, const char* name,
                       std::uint32_t parent)
    : tracer_(tracer != nullptr && tracer->enabled() ? tracer : nullptr) {
  if (tracer_ == nullptr) return;
  span_.id = tracer_->newId();
  span_.parent = parent;
  span_.name = name;
  span_.startNs = nowNs();
}

void ScopedSpan::finish() {
  if (tracer_ == nullptr) return;
  span_.endNs = nowNs();
  tracer_->record(span_);
  tracer_ = nullptr;
}

std::map<std::string, double> selfSecondsByLayer(
    const std::vector<Span>& spans) {
  std::unordered_map<std::uint32_t, std::vector<const Span*>> children;
  for (const Span& s : spans) {
    if (s.parent != 0) children[s.parent].push_back(&s);
  }
  std::map<std::string, double> out;
  std::vector<std::pair<std::int64_t, std::int64_t>> cover;
  for (const Span& s : spans) {
    std::int64_t covered = 0;
    const auto it = children.find(s.id);
    if (it != children.end()) {
      cover.clear();
      for (const Span* c : it->second) {
        const std::int64_t a = std::max(c->startNs, s.startNs);
        const std::int64_t b = std::min(c->endNs, s.endNs);
        if (b > a) cover.emplace_back(a, b);
      }
      std::sort(cover.begin(), cover.end());
      std::int64_t runStart = 0, runEnd = -1;
      for (const auto& [a, b] : cover) {
        if (runEnd < a) {
          if (runEnd > runStart) covered += runEnd - runStart;
          runStart = a;
          runEnd = b;
        } else {
          runEnd = std::max(runEnd, b);
        }
      }
      if (runEnd > runStart) covered += runEnd - runStart;
    }
    const std::string name(s.name);
    const std::string layer = name.substr(0, name.find('.'));
    out[layer] += static_cast<double>(s.endNs - s.startNs - covered) / 1e9;
  }
  return out;
}

}  // namespace perfbench
