// The repository benchmark: one binary, four workloads, end-to-end
// metrics by default and per-layer metrics with --trace 1.
//
//   perfbench --workload <ccd_fleet|stb_paper|served_paced|fleet_hibernate>
//             --seed N --seconds S --trace 0|1 [--workdir DIR]
//             [--tiny] [--corrupt none|anomaly|drop]
//
// Inputs are generated from --seed before timing starts. The timed part
// repeats the workload (a fresh engine each repetition) until --seconds
// have passed; figures are medians over repetitions. Afterwards a
// single-threaded reference pass over the same inputs gives the expected
// result of every unit, and every repetition's results are checked
// against it (see inputs.h). The last stdout line is one JSON object:
//   {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}
// where attempted/failed count units (failed: result missing, different
// from the reference, or refused; on served_paced also every paced unit of
// a session whose backlog grew, which then reports no latency). --tiny
// shrinks a workload to seconds for the self-test; --corrupt makes the
// result sink tamper with one result of stream 0 so the self-test can
// prove the check catches it.
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "engine/engine.h"
#include "inputs.h"
#include "net/tcp.h"
#include "report/concurrent_store.h"
#include "serve/serving.h"
#include "stream/socket_source.h"
#include "stream/stream_router.h"
#include "trace.h"
#include "workload/generator.h"

namespace perfbench {
namespace {

using namespace tiresias;
using tiresias::workload::Scale;
using tiresias::workload::WorkloadSpec;

// ---------------------------------------------------------------- config

/// Detector window (units): two days of 15-minute units, enough for the
/// Step-3 analysis to see the daily season twice.
constexpr std::size_t kWindow = 192;
constexpr std::size_t kTinyWindow = 32;
/// Units after warm-up whose latency is not counted: the warm-up build
/// processes a whole window at once, and the queues it backs up take this
/// long to clear.
constexpr TimeUnit kSettleUnits = 64;
/// Set-up is timed at least kMinSetups times per run, and after the timed
/// repetitions further set-ups (torn down without running) are added until
/// kSetupSeconds have gone into them or kMaxSetups are reached: a
/// sub-millisecond set-up needs many samples for a steady median.
constexpr std::size_t kMinSetups = 11;
constexpr std::size_t kMaxSetups = 201;
constexpr double kSetupSeconds = 1.0;
/// Share of injected spike events the reference must detect.
constexpr double kRecallFloor = 0.8;

struct Workload {
  const char* name;
  std::vector<Preset> presets;  // stream i uses presets[i % size]
  std::size_t streams;
  TimeUnit units;  // per stream; served: derived from rate and seconds
  std::size_t workers;
  std::size_t ingestThreads;
  std::size_t maxResident = 0;   // 0 = no hibernation
  std::size_t checkpoints = 0;   // checkpoint() calls per repetition
  double unitsPerSecond = 0.0;   // > 0: served open-loop at this rate
};

Workload lookupWorkload(const std::string& name, bool tiny) {
  if (name == "ccd_fleet") {
    return {"ccd_fleet", {Preset::kCcdNet, Preset::kCcdTrouble}, 8,
            tiny ? 120 : 2400, 3, 1};
  }
  if (name == "stb_paper") {
    return {"stb_paper", {Preset::kScd}, 1, tiny ? 120 : 384, 1, 1};
  }
  if (name == "served_paced") {
    return {"served_paced", {Preset::kCcdNet}, 3, 0, 2, 1, 0, 0, 200.0};
  }
  if (name == "fleet_hibernate") {
    return {"fleet_hibernate", {Preset::kCcdTrouble},
            tiny ? std::size_t{16} : std::size_t{128}, tiny ? 120 : 400, 3, 1,
            tiny ? std::size_t{4} : std::size_t{16}, 2};
  }
  throw std::invalid_argument("unknown workload '" + name + "'");
}

/// Self-test hook: the result sink tampers with one result of stream 0.
enum class Corruption { kNone, kAnomaly, kDrop };

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string workdir = ".bench_build/perfbench/work";
  bool tiny = false;
  Corruption corrupt = Corruption::kNone;
};

// --------------------------------------------------------------- helpers

double toSeconds(const timeval& t) {
  return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) / 1e6;
}

/// Process CPU time (user + system), seconds.
double cpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return toSeconds(ru.ru_utime) + toSeconds(ru.ru_stime);
}

double systemCpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return toSeconds(ru.ru_stime);
}

double peakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// Linear-interpolation quantile; 0 for an empty sample.
double quantileOf(std::vector<double> xs, double q) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const double pos = q * static_cast<double>(xs.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, xs.size() - 1);
  return xs[lo] + (xs[hi] - xs[lo]) * (pos - static_cast<double>(lo));
}

double median(const std::vector<double>& xs) { return quantileOf(xs, 0.5); }

double seconds(std::int64_t ns) { return static_cast<double>(ns) / 1e9; }

// ------------------------------------------------------- observed results

/// What one repetition observed for one stream. Written from the engine
/// worker that owns the stream at the time (the engine advances a stream
/// on one worker at a time, handing it over through the scheduler's
/// queue), and by that stream's single ingest thread for the pull
/// counters and close stamps; read after drain() joined every thread.
struct StreamObs {
  std::vector<std::uint64_t> got;  // per unit: result digest, 0 = none
  std::size_t extra = 0;           // duplicate or out-of-range results
  /// Per unit: when the input that closes it was handed over (ns). Replay:
  /// stamped by BenchSource as the ingest thread pulls it. Served: the
  /// closing frame's due time as an offset from the schedule start.
  /// -1 = unknown (not counted).
  std::vector<std::int64_t> closeNs;
  std::vector<double> latencyMs;
  std::size_t pulls = 0, pullRecords = 0, idlePulls = 0;
  bool tampered = false;  // --corrupt applied (stream 0 only)
};

struct Observed {
  std::vector<StreamObs> streams;
  std::unordered_map<std::string, std::size_t> index;
  TimeUnit latencyFrom = 0;
  /// Served: schedule start, published before the first frame is sent.
  std::atomic<std::int64_t> t0{0};
  std::atomic<std::size_t> published{0};

  explicit Observed(const std::vector<StreamInput>& inputs,
                    TimeUnit latencyFromUnit)
      : streams(inputs.size()), latencyFrom(latencyFromUnit) {
    for (std::size_t i = 0; i < inputs.size(); ++i) {
      index.emplace(inputs[i].name, i);
      streams[i].got.assign(static_cast<std::size_t>(inputs[i].units), 0);
      streams[i].closeNs.assign(static_cast<std::size_t>(inputs[i].units),
                                -1);
    }
  }
};

/// Replay source over a stream's pre-generated records. It reads the
/// shared input in place, so a repetition adds no second copy of the
/// records to the process (peak_rss_mb stays the engine's memory plus the
/// one input every repetition shares).
class InputSource final : public RecordSource {
 public:
  explicit InputSource(const std::vector<Record>& records)
      : records_(records) {}

  std::optional<Record> next() override {
    if (pos_ >= records_.size()) return std::nullopt;
    return records_[pos_++];
  }

  std::size_t nextBatch(std::vector<Record>& out, std::size_t max) override {
    const std::size_t take = std::min(max, records_.size() - pos_);
    out.assign(records_.begin() + static_cast<std::ptrdiff_t>(pos_),
               records_.begin() + static_cast<std::ptrdiff_t>(pos_ + take));
    pos_ += take;
    return take;
  }

 private:
  const std::vector<Record>& records_;
  std::size_t pos_ = 0;
};

/// Benchmark-owned RecordSource decorator: counts and (traced) times every
/// pull and, given the stream's input, stamps the time each unit's closing
/// record was handed over.
class BenchSource final : public RecordSource {
 public:
  BenchSource(std::unique_ptr<RecordSource> inner, Tracer* tracer,
              StreamObs& obs, const StreamInput* input)
      : inner_(std::move(inner)), tracer_(tracer), obs_(obs), input_(input) {}

  std::optional<Record> next() override { return inner_->next(); }

  std::size_t nextBatch(std::vector<Record>& out, std::size_t max) override {
    std::size_t n = 0;
    {
      ScopedSpan span(tracer_, "stream.pull",
                      tracer_ != nullptr ? tracer_->root() : 0);
      n = inner_->nextBatch(out, max);
    }
    ++obs_.pulls;
    obs_.pullRecords += n;
    const bool idle = n == 0 && inner_->idle();
    if (idle) ++obs_.idlePulls;
    if (input_ != nullptr && !idle) {
      // Records arrive in time order, so the batch's last record holds its
      // latest unit; every unit closed by it or an earlier one is closed
      // now. n == 0: end of stream, which closes every unit still open.
      const std::vector<TimeUnit>& closing = input_->closingUnit;
      const TimeUnit latest =
          n == 0 ? input_->units : timeUnitOf(out.back().time, input_->delta);
      const std::int64_t now = nowNs();
      while (nextClose_ < closing.size() && closing[nextClose_] <= latest) {
        obs_.closeNs[nextClose_++] = now;
      }
    }
    return n;
  }

  std::size_t skippedRecords() const override {
    return inner_->skippedRecords();
  }
  bool idle() const override { return inner_->idle(); }
  void noteResumePoint(Timestamp time) override {
    inner_->noteResumePoint(time);
  }

 private:
  std::unique_ptr<RecordSource> inner_;
  Tracer* tracer_;
  StreamObs& obs_;
  const StreamInput* input_;
  std::size_t nextClose_ = 0;
};

/// The engine's result sink: the report layer's store, the digest and
/// latency bookkeeping, and (served) one broadcaster line per anomaly.
engine::DetectionEngine::ResultSink makeSink(
    Observed& obs, report::ConcurrentAnomalyStore& store, Tracer* tracer,
    serve::JsonLineBroadcaster* broadcaster, const Hierarchy* hierarchy,
    Corruption corrupt) {
  return [&obs, &store, tracer, broadcaster, hierarchy, corrupt](
             const std::string& name, const InstanceResult& result) {
    ScopedSpan span(tracer, "report.sink",
                    tracer != nullptr ? tracer->root() : 0);
    const std::int64_t arrived = nowNs();
    store.add(name, result);
    const std::size_t id = obs.index.at(name);
    StreamObs& s = obs.streams[id];
    const auto u = static_cast<std::size_t>(result.unit);
    if (result.unit < 0 || u >= s.got.size() || s.got[u] != 0) {
      ++s.extra;
    } else {
      std::uint64_t digest = digestResult(result);
      if (id == 0 && !s.tampered && corrupt == Corruption::kDrop) {
        s.tampered = true;  // this result is lost
        digest = 0;
      } else if (id == 0 && !s.tampered && corrupt == Corruption::kAnomaly &&
                 !result.anomalies.empty()) {
        s.tampered = true;
        InstanceResult bad = result;
        bad.anomalies[0].actual = std::nextafter(
            bad.anomalies[0].actual, bad.anomalies[0].actual + 1.0);
        digest = digestResult(bad);
      }
      s.got[u] = digest;
      const std::int64_t base = broadcaster != nullptr ? obs.t0.load() : 0;
      if (digest != 0 && result.unit >= obs.latencyFrom && s.closeNs[u] >= 0) {
        s.latencyMs.push_back(
            static_cast<double>(arrived - base - s.closeNs[u]) / 1e6);
      }
    }
    if (broadcaster == nullptr) return;
    for (const Anomaly& a : result.anomalies) {
      const std::string line = serve::anomalyJsonLine(
          name, hierarchy->path(a.node), hierarchy->depth(a.node), a);
      ScopedSpan publish(tracer, "serve.publish", span.id());
      broadcaster->publish(line);
      obs.published.fetch_add(1, std::memory_order_relaxed);
    }
  };
}

/// Polls the engine's queue lag while a repetition runs.
class BacklogMonitor {
 public:
  explicit BacklogMonitor(const engine::DetectionEngine& eng)
      : thread_([this, &eng] {
          while (!stop_.load()) {
            const std::size_t lag = eng.stats().queueLagUnits();
            {
              std::lock_guard lk(mu_);
              samples_.emplace_back(nowNs(), lag);
            }
            std::this_thread::sleep_for(std::chrono::milliseconds(10));
          }
        }) {}
  BacklogMonitor(const BacklogMonitor&) = delete;
  BacklogMonitor& operator=(const BacklogMonitor&) = delete;
  ~BacklogMonitor() { stop(); }

  void stop() {
    stop_.store(true);
    if (thread_.joinable()) thread_.join();
  }
  /// Largest lag sampled in [from, to) (ns); all samples when to == 0.
  std::size_t maxLag(std::int64_t from = 0, std::int64_t to = 0) const {
    std::lock_guard lk(mu_);
    std::size_t best = 0;
    for (const auto& [t, lag] : samples_) {
      if (t >= from && (to == 0 || t < to)) best = std::max(best, lag);
    }
    return best;
  }
  /// Mean lag sampled in [from, to) (ns); 0 without samples.
  double meanLag(std::int64_t from, std::int64_t to) const {
    std::lock_guard lk(mu_);
    double sum = 0.0;
    std::size_t n = 0;
    for (const auto& [t, lag] : samples_) {
      if (t >= from && t < to) {
        sum += static_cast<double>(lag);
        ++n;
      }
    }
    return n > 0 ? sum / static_cast<double>(n) : 0.0;
  }

 private:
  std::atomic<bool> stop_{false};
  mutable std::mutex mu_;
  std::vector<std::pair<std::int64_t, std::size_t>> samples_;
  std::thread thread_;  // last: started after the members it uses
};

// ----------------------------------------------------------- repetitions

struct Rep {
  bool traced = false;
  bool setupOnly = false;
  double setupS = 0.0;
  double wallS = 0.0;
  double cpuS = 0.0;
  double sysS = 0.0;  // the system-time part of cpuS
  std::size_t records = 0;
  std::vector<std::vector<std::uint64_t>> got;  // per stream, per unit
  std::size_t extra = 0;
  std::size_t refusedUnits = 0;  // units of streams the server refused
  std::size_t backlogFailedUnits = 0;
  std::vector<double> latencyMs;
  std::size_t backlogMax = 0;
  std::map<std::string, double> layer;  // traced repetitions only
};

std::shared_ptr<const WorkloadSpec> buildSpec(Preset preset, Scale scale,
                                              Tracer* tracer,
                                              std::uint32_t parent) {
  ScopedSpan span(tracer, "hierarchy.build", parent);
  return std::make_shared<const WorkloadSpec>(makeSpec(preset, scale));
}

std::vector<double> spanDurationsUs(const std::vector<Span>& spans,
                                    const char* name) {
  std::vector<double> out;
  for (const Span& s : spans) {
    if (std::strcmp(s.name, name) == 0) {
      out.push_back(static_cast<double>(s.endNs - s.startNs) / 1e3);
    }
  }
  return out;
}

double sumOf(const std::vector<double>& xs) {
  double t = 0.0;
  for (double x : xs) t += x;
  return t;
}

/// Spans recorded under `root` (transitively).
std::vector<Span> spansUnder(const std::vector<Span>& all,
                             std::uint32_t root) {
  std::unordered_map<std::uint32_t, std::uint32_t> parent;
  for (const Span& s : all) parent[s.id] = s.parent;
  std::vector<Span> out;
  for (const Span& s : all) {
    std::uint32_t p = s.id;
    while (p != 0 && p != root) {
      const auto it = parent.find(p);
      p = it == parent.end() ? 0 : it->second;
    }
    if (p == root) out.push_back(s);
  }
  return out;
}

/// The waterfall: worker thread-seconds (wall x workers) split by layer.
/// core = detector steps, persist = hibernation wakes, report = sink calls
/// (less their serve children), serve = broadcaster publishes, engine =
/// the rest of each worker claim (scheduling, workspace lending, warm-up
/// buffering and Step 3, evictions), engine idle = workers waiting for a
/// ready stream. What remains is reported as unattributed.
constexpr const char* kWaterfall[] = {"core.self_s",   "persist.self_s",
                                      "report.self_s", "serve.self_s",
                                      "engine.self_s", "engine.idle_s"};

/// Per-layer figures of one traced repetition: the benchmark's spans, its
/// counters and the engine's own MetricsSnapshot folded into one map.
void fillLayers(Rep& rep, const Workload& w, const engine::EngineStats& st,
                const Observed& obs, const std::vector<Span>& repSpans,
                const std::vector<Span>& setupSpans, std::size_t anomalies) {
  auto& m = rep.layer;
  const auto stageTotal = [&](obs::Stage s) {
    const obs::StageStats* row = st.metrics.stage(s);
    return row != nullptr ? row->totalSeconds : 0.0;
  };
  const auto stageUs = [&](obs::Stage s, bool p99) {
    const obs::StageStats* row = st.metrics.stage(s);
    if (row == nullptr) return 0.0;
    return (p99 ? row->p99 : row->p50) * 1e6;
  };
  const std::map<std::string, double> self = selfSecondsByLayer(repSpans);
  const auto selfOf = [&](const char* layer) {
    const auto it = self.find(layer);
    return it != self.end() ? it->second : 0.0;
  };

  // stream
  const auto pullUs = spanDurationsUs(repSpans, "stream.pull");
  m["stream.pull_s"] = sumOf(pullUs) / 1e6;
  double pulls = 0, records = 0, idle = 0, skipped = 0;
  for (const StreamObs& s : obs.streams) {
    pulls += static_cast<double>(s.pulls);
    records += static_cast<double>(s.pullRecords);
    idle += static_cast<double>(s.idlePulls);
  }
  for (const auto& ps : st.perStream) {
    skipped += static_cast<double>(ps.junkRowsSkipped);
  }
  m["stream.pulls"] = pulls;
  m["stream.records"] = records;
  m["stream.idle_pulls"] = idle;
  m["stream.skipped"] = skipped;

  // engine
  const double observeS = stageTotal(obs::Stage::kAdaObserve);
  const double wakeS = stageTotal(obs::Stage::kHibernateRestore);
  const double sinkS = sumOf(spanDurationsUs(repSpans, "report.sink")) / 1e6;
  const double runSliceS = stageTotal(obs::Stage::kRunSlice);
  const double dispatchS = stageTotal(obs::Stage::kDispatchWait);
  m["engine.claims"] = static_cast<double>(st.scheduler.claims);
  m["engine.requeues"] = static_cast<double>(st.scheduler.requeues);
  m["engine.backpressure_waits"] = static_cast<double>(st.backpressureWaits);
  m["engine.max_queue_depth"] = static_cast<double>(st.maxQueueDepth);
  m["engine.backlog_max_units"] = static_cast<double>(rep.backlogMax);
  m["engine.busiest_stream_share"] = st.busiestStreamShare;
  m["engine.dispatch_wait_us_p50"] = stageUs(obs::Stage::kDispatchWait, false);
  m["engine.dispatch_wait_us_p99"] = stageUs(obs::Stage::kDispatchWait, true);
  m["engine.run_slice_us_p50"] = stageUs(obs::Stage::kRunSlice, false);
  m["engine.run_slice_us_p99"] = stageUs(obs::Stage::kRunSlice, true);
  m["engine.self_s"] = std::max(0.0, runSliceS - observeS - wakeS - sinkS);
  m["engine.idle_s"] = dispatchS;

  // core (the detector step inside the engine; the per-unit timings come
  // from the reference pass and are added by the caller)
  m["core.self_s"] = observeS;

  // persist
  const auto ckptUs = spanDurationsUs(repSpans, "persist.checkpoint");
  m["persist.checkpoint_ms_p50"] = quantileOf(ckptUs, 0.5) / 1e3;
  m["persist.checkpoint_ms_max"] =
      ckptUs.empty() ? 0.0 : *std::max_element(ckptUs.begin(), ckptUs.end()) / 1e3;
  m["persist.checkpoint_bytes"] = static_cast<double>(st.checkpoint.lastBytes);
  m["persist.hibernate_evictions"] = static_cast<double>(st.hibernateEvictions);
  m["persist.hibernate_wakes"] = static_cast<double>(st.hibernateWakes);
  m["persist.wake_us_p50"] = stageUs(obs::Stage::kHibernateRestore, false);
  m["persist.self_s"] = wakeS;

  // serve and report
  const auto publishUs = spanDurationsUs(repSpans, "serve.publish");
  m["serve.publish_us_p50"] = quantileOf(publishUs, 0.5);
  m["serve.publish_us_p99"] = quantileOf(publishUs, 0.99);
  m["serve.lines_published"] = static_cast<double>(obs.published.load());
  m["serve.self_s"] = selfOf("serve");
  m["report.sink_us_p50"] =
      quantileOf(spanDurationsUs(repSpans, "report.sink"), 0.5);
  m["report.anomalies"] = static_cast<double>(anomalies);
  m["report.self_s"] = selfOf("report");

  // net (client side; zero on the replay workloads)
  const auto writeUs = spanDurationsUs(repSpans, "net.write");
  m["net.write_us_p50"] = quantileOf(writeUs, 0.5);
  m["net.write_us_p99"] = quantileOf(writeUs, 0.99);
  m["net.self_s"] = selfOf("net");

  m["hierarchy.build_s"] =
      sumOf(spanDurationsUs(setupSpans, "hierarchy.build")) / 1e6;

  const double budget = rep.wallS * static_cast<double>(w.workers);
  double attributed = 0.0;
  for (const char* key : kWaterfall) attributed += m[key];
  m["trace.budget_s"] = budget;
  m["trace.unattributed_s"] = budget - attributed;
  m["trace.spans"] = static_cast<double>(repSpans.size() + setupSpans.size());
}

struct RunContext {
  const Workload& w;
  const Options& opt;
  Scale scale;
  std::size_t window;
  const std::vector<StreamInput>& inputs;
  Tracer& tracer;  // enabled only in --trace 1 runs
};

engine::EngineConfig engineConfig(const Workload& w, bool traced) {
  engine::EngineConfig cfg;
  cfg.workers = w.workers;
  cfg.ingestThreads = w.ingestThreads;
  cfg.maxResidentStreams = w.maxResident;
  cfg.metrics = traced;
  return cfg;
}

/// One replay repetition: pre-generated records through InputSources into
/// a fresh engine, saturating (ccd_fleet, stb_paper, fleet_hibernate).
Rep runReplay(RunContext& ctx, bool traced, bool setupOnly) {
  const Workload& w = ctx.w;
  Tracer* tracer = traced ? &ctx.tracer : nullptr;
  Rep rep;
  rep.traced = traced;
  rep.setupOnly = setupOnly;
  Observed obs(ctx.inputs, static_cast<TimeUnit>(ctx.window) + kSettleUnits);
  report::ConcurrentAnomalyStore store;
  std::vector<std::unique_ptr<RecordSource>> sources;
  for (std::size_t i = 0; i < ctx.inputs.size(); ++i) {
    sources.push_back(std::make_unique<BenchSource>(
        std::make_unique<InputSource>(ctx.inputs[i].records), tracer,
        obs.streams[i], &ctx.inputs[i]));
  }

  ScopedSpan setupSpan(tracer, "bench.setup", 0);
  const std::int64_t setup0 = nowNs();
  std::map<Preset, std::shared_ptr<const WorkloadSpec>> specs;
  for (const StreamInput& in : ctx.inputs) {
    auto& spec = specs[in.preset];
    if (!spec) spec = buildSpec(in.preset, ctx.scale, tracer, setupSpan.id());
    store.registerStream(in.name, spec->hierarchy);
  }
  engine::DetectionEngine eng(
      engineConfig(w, traced),
      makeSink(obs, store, tracer, nullptr, nullptr, ctx.opt.corrupt));
  for (std::size_t i = 0; i < ctx.inputs.size(); ++i) {
    const auto& spec = specs[ctx.inputs[i].preset];
    eng.addStream(ctx.inputs[i].name, workload::sharedHierarchy(spec),
                  pipelineConfig(*spec, ctx.window), std::move(sources[i]));
  }
  ScopedSpan repSpan(tracer, "bench.rep", 0);
  if (tracer != nullptr) tracer->setRoot(repSpan.id());
  const std::int64_t start0 = nowNs();
  const double cpu0 = cpuSeconds();
  const double sys0 = systemCpuSeconds();
  eng.start();
  rep.setupS = seconds(nowNs() - setup0);
  setupSpan.finish();
  if (setupOnly) {
    eng.stop();
    return rep;
  }

  std::optional<BacklogMonitor> monitor;
  if (traced) monitor.emplace(eng);
  if (w.checkpoints > 0) {
    std::size_t total = 0;
    for (const StreamInput& in : ctx.inputs) total += static_cast<std::size_t>(in.units);
    const std::string path = ctx.opt.workdir + "/checkpoint.tsnap";
    for (std::size_t k = 1; k <= w.checkpoints; ++k) {
      const std::size_t due = total * k / (w.checkpoints + 1);
      while (eng.stats().unitsProcessed < due) {
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
      }
      ScopedSpan span(tracer, "persist.checkpoint", repSpan.id());
      eng.checkpoint(path);
    }
  }
  const engine::EngineStats st = eng.drain();
  rep.wallS = seconds(nowNs() - start0);
  rep.cpuS = cpuSeconds() - cpu0;
  rep.sysS = systemCpuSeconds() - sys0;
  repSpan.finish();
  if (monitor) {
    monitor->stop();
    rep.backlogMax = monitor->maxLag();
  }
  rep.records = st.recordsProcessed;
  for (StreamObs& s : obs.streams) {
    rep.got.push_back(std::move(s.got));
    rep.extra += s.extra;
    rep.latencyMs.insert(rep.latencyMs.end(), s.latencyMs.begin(),
                         s.latencyMs.end());
  }
  if (traced) {
    const std::vector<Span> all = ctx.tracer.spans();
    fillLayers(rep, w, st, obs, spansUnder(all, repSpan.id()),
               spansUnder(all, setupSpan.id()), store.totalSize());
    rep.layer["serve.lines_received"] = 0.0;
    rep.layer["net.bytes_sent"] = 0.0;
    rep.layer["net.protocol_errors"] = 0.0;
    rep.layer["net.reconnects"] = 0.0;
    rep.layer["net.client_late_ms_p99"] = 0.0;
  }
  return rep;
}

// ------------------------------------------------------------ served_paced

/// The open-loop schedule of one served session, built before set-up:
/// every unit's frame is encoded up front and due at a fixed rate per
/// stream, the streams evenly staggered.
struct ServedPlan {
  TimeUnit units = 0;
  std::vector<std::vector<std::uint8_t>> handshakes;           // [s]
  std::vector<std::vector<std::vector<std::uint8_t>>> frames;  // [s][u]
  struct Send {
    std::int64_t offsetNs;
    std::size_t stream;
    TimeUnit unit;
  };
  std::vector<Send> schedule;  // by due time
  /// [s][u]: due offset of the frame that closes unit u, -1 if only the
  /// end of the stream closes it.
  std::vector<std::vector<std::int64_t>> closeOffsetNs;
  std::int64_t pacedEndNs = 0;  // offset of the last frame
};

ServedPlan planServed(const std::vector<StreamInput>& inputs,
                      const Hierarchy& hierarchy, double unitsPerSecond) {
  ServedPlan plan;
  const std::size_t streams = inputs.size();
  const double period = 1e9 / unitsPerSecond;
  const auto offsetOf = [&](std::size_t s, TimeUnit u) {
    return static_cast<std::int64_t>(
        static_cast<double>(u) * period +
        static_cast<double>(s) * period / static_cast<double>(streams));
  };
  // Records travel as file-ids: index into a path table in NodeId order.
  std::vector<std::string> paths;
  paths.reserve(hierarchy.size());
  for (std::size_t n = 0; n < hierarchy.size(); ++n) {
    paths.push_back(hierarchy.path(static_cast<NodeId>(n)));
  }
  plan.frames.resize(streams);
  plan.closeOffsetNs.resize(streams);
  for (std::size_t s = 0; s < streams; ++s) {
    const StreamInput& in = inputs[s];
    plan.units = in.units;
    plan.handshakes.push_back(encodeSocketHandshakeV2(paths, in.name, s + 1));
    plan.frames[s].resize(static_cast<std::size_t>(in.units));
    plan.closeOffsetNs[s].assign(static_cast<std::size_t>(in.units), -1);
    std::size_t at = 0;
    for (TimeUnit u = 0; u < in.units; ++u) {
      std::size_t end = at;
      while (end < in.records.size() &&
             timeUnitOf(in.records[end].time, in.delta) == u) {
        ++end;
      }
      if (end > at) {
        appendSocketFrame(plan.frames[s][static_cast<std::size_t>(u)],
                          in.records.data() + at, end - at);
        plan.schedule.push_back({offsetOf(s, u), s, u});
      }
      at = end;
      const TimeUnit closer = in.closingUnit[static_cast<std::size_t>(u)];
      if (closer < in.units) {
        plan.closeOffsetNs[s][static_cast<std::size_t>(u)] =
            offsetOf(s, closer);
      }
    }
  }
  std::sort(plan.schedule.begin(), plan.schedule.end(),
            [](const ServedPlan::Send& a, const ServedPlan::Send& b) {
              return a.offsetNs < b.offsetNs;
            });
  plan.pacedEndNs = plan.schedule.empty() ? 0 : plan.schedule.back().offsetNs;
  return plan;
}

/// One served session: three named TSRS-v2 streams over loopback, one
/// open-loop client thread, one anomaly subscriber.
Rep runServed(RunContext& ctx, const ServedPlan& plan, bool traced,
              bool setupOnly) {
  const Workload& w = ctx.w;
  Tracer* tracer = traced ? &ctx.tracer : nullptr;
  const std::size_t streams = ctx.inputs.size();
  Rep rep;
  rep.traced = traced;
  rep.setupOnly = setupOnly;
  Observed obs(ctx.inputs, static_cast<TimeUnit>(ctx.window) + kSettleUnits);
  for (std::size_t s = 0; s < streams; ++s) {
    obs.streams[s].closeNs = plan.closeOffsetNs[s];
  }
  report::ConcurrentAnomalyStore store;
  net::ignoreSigpipe();

  ScopedSpan setupSpan(tracer, "bench.setup", 0);
  const std::int64_t setup0 = nowNs();
  const auto spec = buildSpec(ctx.inputs[0].preset, ctx.scale, tracer,
                              setupSpan.id());
  for (const StreamInput& in : ctx.inputs) {
    store.registerStream(in.name, spec->hierarchy);
  }
  auto listener = std::make_shared<net::TcpListener>();
  if (!listener->listen(0, /*loopbackOnly=*/true)) {
    throw std::runtime_error("ingest listen failed: " + listener->lastError());
  }
  StreamRouter::Options ropt;
  ropt.format = SocketSourceOptions::Format::kBinary;
  auto router = std::make_shared<StreamRouter>(listener, ropt);
  serve::JsonLineBroadcaster broadcaster;
  if (!broadcaster.start(0, /*loopbackOnly=*/true)) {
    throw std::runtime_error("anomaly listen failed: " + broadcaster.error());
  }
  engine::DetectionEngine eng(
      engineConfig(w, traced),
      makeSink(obs, store, tracer, &broadcaster, &spec->hierarchy,
               ctx.opt.corrupt));
  std::vector<const SocketSource*> sockets;
  for (std::size_t s = 0; s < streams; ++s) {
    SocketSourceOptions so;
    so.format = SocketSourceOptions::Format::kBinary;
    so.streamName = ctx.inputs[s].name;
    so.unitDelta = spec->unit;
    so.readTimeoutMs = 10'000;
    auto src = std::make_unique<SocketSource>(
        router, router->addNamedSlot(ctx.inputs[s].name), spec->hierarchy, so);
    sockets.push_back(src.get());
    eng.addStream(ctx.inputs[s].name, workload::sharedHierarchy(spec),
                  pipelineConfig(*spec, ctx.window),
                  std::make_unique<BenchSource>(std::move(src), tracer,
                                                obs.streams[s], nullptr));
  }
  router->start();
  ScopedSpan repSpan(tracer, "bench.rep", 0);
  if (tracer != nullptr) tracer->setRoot(repSpan.id());
  const std::int64_t start0 = nowNs();
  const double cpu0 = cpuSeconds();
  const double sys0 = systemCpuSeconds();
  eng.start();
  rep.setupS = seconds(nowNs() - setup0);
  setupSpan.finish();
  if (setupOnly) {
    router->stop();
    eng.stop();
    broadcaster.stop();
    return rep;
  }

  // Anomaly subscriber: counts the lines it receives until EOF.
  std::atomic<std::size_t> linesReceived{0};
  std::thread subscriber([port = broadcaster.port(), &linesReceived] {
    net::TcpConn conn = net::connectLoopback(port, 5'000);
    char buf[16384];
    std::size_t got = 0;
    while (conn.valid() &&
           conn.readSome(buf, sizeof buf, got, 30'000) == net::IoStatus::kOk) {
      linesReceived.fetch_add(
          static_cast<std::size_t>(std::count(buf, buf + got, '\n')));
    }
  });
  for (int i = 0; i < 5'000 && broadcaster.subscribers() == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  // Client connections: v2 handshake per named stream. A stream the
  // server refuses counts all its units as failed.
  std::vector<net::TcpConn> conns(streams);
  std::vector<bool> accepted(streams, false);
  for (std::size_t s = 0; s < streams; ++s) {
    conns[s] = net::connectLoopback(listener->port(), 5'000);
    const std::vector<std::uint8_t>& hs = plan.handshakes[s];
    SocketResumeReply reply;
    accepted[s] = conns[s].valid() &&
                  conns[s].writeAll(hs.data(), hs.size(), 5'000) &&
                  readSocketResumeReply(conns[s], 5'000, reply) &&
                  reply.status == kSocketResumeOk;
    if (!accepted[s]) rep.refusedUnits += static_cast<std::size_t>(plan.units);
  }

  BacklogMonitor monitor(eng);
  const std::int64_t t0 = nowNs() + 20'000'000;
  obs.t0.store(t0);
  std::vector<double> lateMs;
  std::vector<std::int64_t> lateAtNs;  // due offset of each lateMs entry
  std::size_t bytesSent = 0;
  std::thread client([&] {
    lateMs.reserve(plan.schedule.size());
    lateAtNs.reserve(plan.schedule.size());
    for (const ServedPlan::Send& send : plan.schedule) {
      if (!accepted[send.stream]) continue;
      const std::int64_t due = t0 + send.offsetNs;
      std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
          std::chrono::nanoseconds(due)));
      lateMs.push_back(static_cast<double>(nowNs() - due) / 1e6);
      lateAtNs.push_back(send.offsetNs);
      const auto& frame =
          plan.frames[send.stream][static_cast<std::size_t>(send.unit)];
      ScopedSpan span(tracer, "net.write", repSpan.id());
      if (conns[send.stream].writeAll(frame.data(), frame.size(), 10'000)) {
        bytesSent += frame.size();
      }
    }
    for (std::size_t s = 0; s < streams; ++s) {
      if (!accepted[s]) continue;
      std::vector<std::uint8_t> eos;
      appendSocketEndOfStream(eos);
      conns[s].writeAll(eos.data(), eos.size(), 10'000);
      conns[s].shutdownWrite();
    }
  });
  const engine::EngineStats st = eng.drain();
  rep.wallS = seconds(nowNs() - start0);
  rep.cpuS = cpuSeconds() - cpu0;
  rep.sysS = systemCpuSeconds() - sys0;
  repSpan.finish();
  client.join();
  monitor.stop();
  broadcaster.stop();
  subscriber.join();
  router->stop();

  // Open-loop backlog, in units: units queued in the engine (the sampled
  // lag) plus frames the client is behind its schedule (its lateness x
  // the send rate; when the engine pushes back, the client falls behind).
  // If the last fifth of the paced phase holds more backlog than the
  // middle fifth, by more than a quarter second of arrivals, the backlog
  // grows: the rate is not sustainable, every paced unit of the session
  // counts as failed (without changing the output check's verdict), and
  // the session's latency is not reported.
  const double rate = w.unitsPerSecond * static_cast<double>(streams);
  const auto backlogIn = [&](std::int64_t fifth) {
    const std::int64_t from = plan.pacedEndNs * fifth / 5;
    const std::int64_t to = plan.pacedEndNs * (fifth + 1) / 5;
    double late = 0.0;
    std::size_t n = 0;
    for (std::size_t i = 0; i < lateMs.size(); ++i) {
      if (lateAtNs[i] >= from && lateAtNs[i] < to) {
        late += lateMs[i];
        ++n;
      }
    }
    const double behind =
        n > 0 ? late / static_cast<double>(n) / 1e3 * rate : 0.0;
    return monitor.meanLag(t0 + from, t0 + to) + behind;
  };
  const double middle = backlogIn(2), tail = backlogIn(4);
  rep.backlogMax = monitor.maxLag(t0, t0 + plan.pacedEndNs);
  if (tail - middle > std::max(16.0, 0.25 * rate)) {
    rep.backlogFailedUnits =
        static_cast<std::size_t>(plan.units) * streams;
    std::printf("  backlog grew from %.1f to %.1f units: %.0f units/s is not "
                "sustained\n", middle, tail, rate);
  }

  rep.records = st.recordsProcessed;
  for (StreamObs& s : obs.streams) {
    rep.got.push_back(std::move(s.got));
    rep.extra += s.extra;
    rep.latencyMs.insert(rep.latencyMs.end(), s.latencyMs.begin(),
                         s.latencyMs.end());
  }
  if (traced) {
    const std::vector<Span> all = ctx.tracer.spans();
    fillLayers(rep, w, st, obs, spansUnder(all, repSpan.id()),
               spansUnder(all, setupSpan.id()), store.totalSize());
    std::size_t protocolErrors = 0, reconnects = 0;
    for (const SocketSource* s : sockets) {
      protocolErrors += s->protocolErrors();
      reconnects += s->reconnects();
    }
    rep.layer["serve.lines_received"] =
        static_cast<double>(linesReceived.load());
    rep.layer["net.bytes_sent"] = static_cast<double>(bytesSent);
    rep.layer["net.protocol_errors"] = static_cast<double>(protocolErrors);
    rep.layer["net.reconnects"] = static_cast<double>(reconnects);
    rep.layer["net.client_late_ms_p99"] = quantileOf(lateMs, 0.99);
  }
  std::printf(
      "  session: %zu frames, client late p99 %.3f ms, backlog max %zu "
      "units, anomaly lines %zu published / %zu received\n",
      lateMs.size(), quantileOf(lateMs, 0.99), rep.backlogMax,
      obs.published.load(), linesReceived.load());
  return rep;
}

// ------------------------------------------------------------------ main

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

void printJson(bool correct, std::size_t attempted, std::size_t failed,
               const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": {",
              correct ? "true" : "false", attempted, failed);
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i > 0 ? ", " : "", metrics[i].name.c_str(), v, metrics[i].unit);
  }
  std::printf("}}\n");
}

const char* layerUnit(const std::string& name) {
  const auto ends = [&](const char* suffix) {
    const std::size_t n = std::strlen(suffix);
    return name.size() >= n && name.compare(name.size() - n, n, suffix) == 0;
  };
  if (ends("_s")) return "s";
  if (ends("_ms") || name.find("_ms_") != std::string::npos) return "ms";
  if (name.find("_us_") != std::string::npos) return "us";
  if (name.find("bytes") != std::string::npos) return "bytes";
  if (ends("_share")) return "ratio";
  if (ends("_pct")) return "%";
  return "count";
}

int run(const Options& opt) {
  const Workload w = lookupWorkload(opt.workload, opt.tiny);
  const Scale scale = opt.tiny ? Scale::kTest : Scale::kPaper;
  const std::size_t window = opt.tiny ? kTinyWindow : kWindow;
  std::filesystem::create_directories(opt.workdir);
  const bool served = w.unitsPerSecond > 0.0;
  // Served sessions run at a fixed rate, so their length is the measured
  // time; a traced run splits it into an untraced and a traced session.
  TimeUnit units = w.units;
  if (served) {
    const double perSession = opt.trace ? opt.seconds / 2.0 : opt.seconds;
    units = std::max<TimeUnit>(
        static_cast<TimeUnit>(window) + kSettleUnits + 32,
        static_cast<TimeUnit>(w.unitsPerSecond * perSession));
  }

  const std::int64_t gen0 = nowNs();
  const std::vector<StreamInput> inputs =
      generateInputs(w.presets, w.streams, units, window, scale, opt.seed);
  std::size_t inputRecords = 0;
  for (const StreamInput& in : inputs) inputRecords += in.records.size();
  std::printf("workload %s: %zu streams x %lld units, %zu records, seed %llu "
              "(generated in %.2f s)\n",
              w.name, inputs.size(), static_cast<long long>(units),
              inputRecords, static_cast<unsigned long long>(opt.seed),
              seconds(nowNs() - gen0));

  Tracer tracer(opt.trace);
  RunContext ctx{w, opt, scale, window, inputs, tracer};
  std::optional<ServedPlan> plan;
  if (served) {
    const WorkloadSpec spec = makeSpec(inputs[0].preset, scale);
    plan = planServed(inputs, spec.hierarchy, w.unitsPerSecond);
  }
  const auto once = [&](bool traced, bool setupOnly) {
    return served ? runServed(ctx, *plan, traced, setupOnly)
                  : runReplay(ctx, traced, setupOnly);
  };

  // Timed repetitions: until --seconds have passed, at least one of each
  // kind (a traced run alternates untraced and traced repetitions).
  std::vector<Rep> reps;
  const std::int64_t deadline =
      nowNs() + static_cast<std::int64_t>(opt.seconds * 1e9);
  std::size_t untracedReps = 0, tracedReps = 0;
  // Peak RSS through the first repetition: input generation plus one
  // complete run of the workload (later repetitions only reuse memory).
  double peakRss = 0.0;
  for (;;) {
    const bool traced = opt.trace && tracedReps < untracedReps;
    reps.push_back(once(traced, false));
    if (reps.size() == 1) peakRss = peakRssMb();
    (traced ? tracedReps : untracedReps) += 1;
    std::printf("  rep %zu%s: %.3f s wall, %.3f s cpu (%.3f s system), %zu "
                "records, setup %.4f s, latency p50 %.3f ms p99 %.3f ms\n",
                reps.size(), traced ? " (traced)" : "", reps.back().wallS,
                reps.back().cpuS, reps.back().sysS, reps.back().records,
                reps.back().setupS, quantileOf(reps.back().latencyMs, 0.5),
                quantileOf(reps.back().latencyMs, 0.99));
    const bool enough = untracedReps > 0 && (!opt.trace || tracedReps > 0);
    if (served ? enough : (enough && nowNs() >= deadline)) break;
  }
  const std::int64_t setupEnd =
      nowNs() + static_cast<std::int64_t>(kSetupSeconds * 1e9);
  for (std::size_t setups = reps.size();
       setups < kMinSetups || (setups < kMaxSetups && nowNs() < setupEnd);
       ++setups) {
    reps.push_back(once(false, true));
  }

  // Reference pass and the output check.
  const std::int64_t ref0 = nowNs();
  const Reference ref =
      runReference(inputs, scale, window, opt.trace ? &tracer : nullptr);
  std::printf("reference pass: %.2f s, %zu/%zu spike events detected\n",
              seconds(nowNs() - ref0), ref.spikesDetected, ref.spikesInjected);
  std::size_t attempted = 0, failed = 0, mismatched = 0;
  for (const Rep& rep : reps) {
    if (rep.setupOnly) continue;
    std::size_t bad = rep.extra + rep.refusedUnits;
    for (std::size_t s = 0; s < rep.got.size(); ++s) {
      for (std::size_t u = 0; u < rep.got[s].size(); ++u) {
        if (rep.got[s][u] != ref.digests[s][u]) ++bad;
      }
      attempted += rep.got[s].size();
    }
    mismatched += bad;
    failed += std::max(bad, rep.backlogFailedUnits);
  }
  const double recall =
      ref.spikesInjected > 0 ? static_cast<double>(ref.spikesDetected) /
                                   static_cast<double>(ref.spikesInjected)
                             : 1.0;
  const bool correct = mismatched == 0 && recall >= kRecallFloor;
  std::printf("output check: %zu units attempted, %zu mismatched or missing, "
              "%zu failed, failed_frac %.6f, spike recall %.3f (floor %.2f) "
              "-> %s\n",
              attempted, mismatched, failed,
              attempted > 0 ? static_cast<double>(failed) /
                                  static_cast<double>(attempted)
                            : 0.0,
              recall, kRecallFloor, correct ? "correct" : "INCORRECT");

  // End-to-end figures: medians over the untraced repetitions.
  std::vector<double> setupS, rps, cpuUs, tracedCpuUs, latP50, latP99;
  std::size_t latencySamples = 0;
  bool backlogGrew = false;
  for (const Rep& rep : reps) {
    setupS.push_back(rep.setupS);
    if (rep.setupOnly) continue;
    const double perRecord =
        rep.records > 0 ? rep.cpuS * 1e6 / static_cast<double>(rep.records)
                        : 0.0;
    if (rep.traced) {
      tracedCpuUs.push_back(perRecord);
      continue;
    }
    rps.push_back(static_cast<double>(rep.records) / rep.wallS);
    cpuUs.push_back(perRecord);
    latP50.push_back(quantileOf(rep.latencyMs, 0.5));
    latP99.push_back(quantileOf(rep.latencyMs, 0.99));
    latencySamples += rep.latencyMs.size();
    backlogGrew |= rep.backlogFailedUnits > 0;
  }
  // Latency percentiles are taken per repetition and their median reported,
  // so one disturbed repetition cannot own the tail of the whole run. A
  // session whose backlog grew has failed at its rate; its latency would
  // only measure how long it ran, so none is reported.
  if (backlogGrew) {
    std::printf("unit latency: not reported, the backlog grew (the run "
                "failed at its rate)\n");
  } else {
    std::printf("unit latency: %zu samples over %zu repetitions (units >= "
                "window + %lld), median of per-repetition p50 %.3f ms, p99 "
                "%.3f ms\n",
                latencySamples, latP50.size(),
                static_cast<long long>(kSettleUnits), median(latP50),
                median(latP99));
  }

  std::printf("set-up: timed %zu times, median %.6f s\n", setupS.size(),
              median(setupS));

  std::vector<Metric> metrics;
  if (!opt.trace) {
    metrics.push_back({"setup_s", median(setupS), "s"});
    metrics.push_back({"records_per_s", median(rps), "rec/s"});
    metrics.push_back({"cpu_us_per_record", median(cpuUs), "us"});
    if (!backlogGrew) {
      metrics.push_back({"unit_latency_p50_ms", median(latP50), "ms"});
      metrics.push_back({"unit_latency_p99_ms", median(latP99), "ms"});
    }
    metrics.push_back({"peak_rss_mb", peakRss, "MB"});
  } else {
    std::map<std::string, std::vector<double>> layer;
    for (const Rep& rep : reps) {
      for (const auto& [k, v] : rep.layer) layer[k].push_back(v);
    }
    std::map<std::string, double> m;
    for (const auto& [k, vs] : layer) m[k] = median(vs);
    m["core.process_unit_us_p50"] = quantileOf(ref.processUnitUs, 0.5);
    m["core.process_unit_us_p99"] = quantileOf(ref.processUnitUs, 0.99);
    m["core.detector_build_ms"] = ref.detectorBuildMs;
    m["core.update_hierarchies_s"] = ref.updateHierarchiesS;
    m["core.create_series_s"] = ref.createSeriesS;
    m["core.judge_anomalies_s"] = ref.judgeAnomaliesS;
    m["core.shhh_mean"] = ref.shhhMean;
    m["core.memory_bytes"] = ref.memoryBytes;
    m["core.workspace_bytes"] = ref.workspaceBytes;
    m["obs.trace_overhead_pct"] =
        median(cpuUs) > 0 ? (median(tracedCpuUs) / median(cpuUs) - 1.0) * 100.0
                          : 0.0;
    const double budget = m["trace.budget_s"];
    const auto share = [&](double v) {
      return budget > 0 ? 100.0 * v / budget : 0.0;
    };
    std::printf("waterfall (median traced repetition, worker thread-seconds "
                "= wall x %zu workers = %.4f s):\n",
                w.workers, budget);
    for (const char* key : kWaterfall) {
      std::printf("  %-16s %10.4f s  %5.1f%%\n", key, m[key], share(m[key]));
    }
    std::printf("  %-16s %10.4f s  %5.1f%%\n", "unattributed",
                m["trace.unattributed_s"], share(m["trace.unattributed_s"]));
    std::printf("  off the worker budget: stream pulls (ingest thread) %.4f "
                "s, net writes (client thread) %.4f s, checkpoints (caller) "
                "p50 %.3f ms, hierarchy build %.4f s\n",
                m["stream.pull_s"], m["net.self_s"],
                m["persist.checkpoint_ms_p50"], m["hierarchy.build_s"]);
    for (const auto& [k, v] : m) metrics.push_back({k, v, layerUnit(k)});
    const std::string tracePath = opt.workdir + "/trace-" + w.name + "-seed" +
                                  std::to_string(opt.seed) + ".json";
    if (tracer.writeChromeTrace(tracePath)) {
      std::printf("spans written to %s\n", tracePath.c_str());
    }
  }
  for (const Metric& m : metrics) {
    std::printf("  %-32s %16.6f %s\n", m.name.c_str(), m.value, m.unit);
  }
  printJson(correct, attempted, failed, metrics);
  return 0;
}

bool parseArgs(int argc, char** argv, Options& opt) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument(arg + " needs a value");
      return argv[++i];
    };
    if (arg == "--workload") {
      opt.workload = value();
    } else if (arg == "--seed") {
      opt.seed = std::stoull(value());
    } else if (arg == "--seconds") {
      opt.seconds = std::stod(value());
    } else if (arg == "--trace") {
      opt.trace = value() != "0";
    } else if (arg == "--workdir") {
      opt.workdir = value();
    } else if (arg == "--tiny") {
      opt.tiny = true;
    } else if (arg == "--corrupt") {
      const std::string mode = value();
      if (mode == "none") {
        opt.corrupt = Corruption::kNone;
      } else if (mode == "anomaly") {
        opt.corrupt = Corruption::kAnomaly;
      } else if (mode == "drop") {
        opt.corrupt = Corruption::kDrop;
      } else {
        throw std::invalid_argument("--corrupt must be none|anomaly|drop");
      }
    } else {
      throw std::invalid_argument("unknown option " + arg);
    }
  }
  return !opt.workload.empty() && opt.seconds > 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Options opt;
  try {
    if (!perfbench::parseArgs(argc, argv, opt)) {
      std::fprintf(stderr,
                   "usage: perfbench --workload NAME --seed N --seconds S "
                   "--trace 0|1 [--workdir DIR] [--tiny] "
                   "[--corrupt none|anomaly|drop]\n");
      return 2;
    }
    return perfbench::run(opt);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
