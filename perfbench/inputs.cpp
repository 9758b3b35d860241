#include "inputs.h"

#include <bit>
#include <cstring>
#include <map>

#include "common/rng.h"
#include "trace.h"
#include "workload/generator.h"
#include "workload/scd.h"

namespace perfbench {

using namespace tiresias;
using namespace tiresias::workload;

namespace {

/// Spike size, in expected extra records per unit: far above the count of
/// the nodes it lands on (depth height-1 or height-2), so every preset's
/// detector should flag it once the window is warm.
constexpr double kSpikeExtraPerUnit = 80.0;
/// Spike events start every this many units after warm-up and last two
/// units each. Only the spiked node depends on the seed: how much a spike
/// grows the detector's state depends on where it lands in the tree, so a
/// fixed schedule keeps the work per run alike across seeds.
constexpr TimeUnit kSpikeSpacing = 96;

std::uint64_t mix(std::uint64_t h, std::uint64_t v) {
  // FNV-1a over the 8 bytes of v.
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xffU;
    h *= 0x100000001b3ULL;
  }
  return h;
}

GroundTruthLedger makeLedger(const Hierarchy& h, TimeUnit units,
                             std::size_t window, Rng& rng) {
  GroundTruthLedger ledger;
  int k = 0;
  for (TimeUnit at = static_cast<TimeUnit>(window) + 16; at + 4 < units;
       at += kSpikeSpacing, ++k) {
    const NodeIdRange level = h.nodesAtDepth(h.height() - 1 - k % 2);
    SpikeSpec spike;
    spike.node = level.first + static_cast<NodeId>(rng.below(level.size()));
    spike.startUnit = at;
    spike.durationUnits = 2;
    spike.extraPerUnit = kSpikeExtraPerUnit;
    ledger.add(spike);
  }
  return ledger;
}

}  // namespace

const char* presetName(Preset preset) {
  switch (preset) {
    case Preset::kCcdNet:
      return "ccd-net";
    case Preset::kCcdTrouble:
      return "ccd-trouble";
    case Preset::kScd:
      return "scd";
  }
  return "?";
}

WorkloadSpec makeSpec(Preset preset, Scale scale) {
  switch (preset) {
    case Preset::kCcdNet:
      return ccdNetworkWorkload(scale);
    case Preset::kCcdTrouble:
      return ccdTroubleWorkload(scale);
    case Preset::kScd:
      return scdNetworkWorkload(scale);
  }
  return ccdNetworkWorkload(scale);
}

PipelineConfig pipelineConfig(const WorkloadSpec& spec, std::size_t window) {
  PipelineConfig cfg;
  cfg.delta = spec.unit;
  cfg.detector.theta = 5.0;
  cfg.detector.windowLength = window;
  cfg.candidatePeriods = {96, 672};
  return cfg;
}

std::vector<StreamInput> generateInputs(const std::vector<Preset>& presets,
                                        std::size_t streams, TimeUnit units,
                                        std::size_t window, Scale scale,
                                        std::uint64_t seed) {
  std::map<Preset, std::shared_ptr<const WorkloadSpec>> specs;
  std::vector<StreamInput> out(streams);
  SplitMix64 seeds(seed);
  for (std::size_t i = 0; i < streams; ++i) {
    StreamInput& in = out[i];
    in.preset = presets[i % presets.size()];
    in.name = std::string(presetName(in.preset)) + "-" + std::to_string(i);
    in.units = units;
    auto& spec = specs[in.preset];
    if (!spec) spec = std::make_shared<const WorkloadSpec>(makeSpec(in.preset, scale));
    Rng rng(seeds.next());
    in.delta = spec->unit;
    in.ledger = makeLedger(spec->hierarchy, units, window, rng);
    auto injector =
        std::make_shared<const AnomalyInjector>(spec->hierarchy, in.ledger);
    GeneratorSource gen(*spec, 0, units, rng.next(), injector);
    std::vector<Record> chunk;
    while (gen.nextBatch(chunk, 8192) > 0) {
      in.records.insert(in.records.end(), chunk.begin(), chunk.end());
    }
    in.closingUnit.assign(static_cast<std::size_t>(units), units);
    // Walk backwards: unit u is closed by the nearest later unit that has
    // a record.
    std::size_t r = in.records.size();
    TimeUnit nextUnit = units;
    for (TimeUnit u = units - 1; u >= 0; --u) {
      in.closingUnit[static_cast<std::size_t>(u)] = nextUnit;
      const Timestamp begin = unitStart(u, spec->unit);
      std::size_t first = r;
      while (first > 0 && in.records[first - 1].time >= begin) --first;
      if (first < r) nextUnit = u;
      r = first;
    }
  }
  return out;
}

std::uint64_t digestResult(const InstanceResult& result) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  h = mix(h, static_cast<std::uint64_t>(result.unit));
  h = mix(h, result.shhh.size());
  for (NodeId n : result.shhh) h = mix(h, n);
  h = mix(h, result.anomalies.size());
  for (const Anomaly& a : result.anomalies) {
    h = mix(h, a.node);
    h = mix(h, static_cast<std::uint64_t>(a.unit));
    h = mix(h, std::bit_cast<std::uint64_t>(a.actual));
    h = mix(h, std::bit_cast<std::uint64_t>(a.forecast));
  }
  return h | 1;
}

Reference runReference(const std::vector<StreamInput>& inputs, Scale scale,
                       std::size_t window, Tracer* tracer) {
  Reference ref;
  ScopedSpan root(tracer, "bench.reference", 0);
  std::map<Preset, std::shared_ptr<const WorkloadSpec>> specs;
  std::size_t results = 0, shhhTotal = 0;
  for (const StreamInput& in : inputs) {
    auto& spec = specs[in.preset];
    if (!spec) spec = std::make_shared<const WorkloadSpec>(makeSpec(in.preset, scale));
    std::vector<std::uint64_t> digests(static_cast<std::size_t>(in.units), 0);
    std::vector<std::vector<NodeId>> anomalous(digests.size());
    TiresiasPipeline pipeline(sharedHierarchy(spec),
                              pipelineConfig(*spec, window));
    VectorSource source(in.records);
    TimeUnitBatcher batcher(source, spec->unit, 0);
    RunSummary summary;
    TimeUnitBatch batch;
    const auto onResult = [&](const InstanceResult& r) {
      const auto u = static_cast<std::size_t>(r.unit);
      if (u < digests.size()) {
        digests[u] = digestResult(r);
        for (const Anomaly& a : r.anomalies) anomalous[u].push_back(a.node);
      }
      ++results;
      shhhTotal += r.shhh.size();
    };
    for (;;) {
      TimeUnitBatcher::Pull pull;
      {
        ScopedSpan span(tracer, "stream.batcher_pull", root.id());
        pull = batcher.pull(batch);
      }
      if (pull != TimeUnitBatcher::Pull::kUnit) break;
      const bool building = pipeline.detector() == nullptr;
      ScopedSpan span(tracer, "core.process_unit", root.id());
      const std::int64_t t0 = nowNs();
      pipeline.processUnit(batch, onResult, summary);
      const double us = static_cast<double>(nowNs() - t0) / 1e3;
      if (building && pipeline.detector() != nullptr) {
        ref.detectorBuildMs += us / 1e3;
      } else if (!building) {
        ref.processUnitUs.push_back(us);
      }
    }
    if (const Detector* det = pipeline.detector()) {
      ref.updateHierarchiesS +=
          det->stages().totalSeconds(kStageUpdateHierarchies);
      ref.createSeriesS += det->stages().totalSeconds(kStageCreateSeries);
      ref.judgeAnomaliesS += det->stages().totalSeconds(kStageDetect);
      const MemoryStats mem = det->memoryStats();
      ref.memoryBytes += static_cast<double>(mem.bytesEstimate);
      ref.workspaceBytes += static_cast<double>(mem.workspaceBytes);
    }
    // Recall over spike events, from the reference's own anomalies.
    const Hierarchy& h = spec->hierarchy;
    for (const SpikeSpec& spike : in.ledger.specs()) {
      GroundTruthLedger one;
      one.add(spike);
      bool hit = false;
      for (std::size_t d = 0; d < spike.durationUnits && !hit; ++d) {
        const auto u = static_cast<std::size_t>(spike.startUnit) + d;
        if (u >= anomalous.size()) break;
        for (NodeId n : anomalous[u]) {
          if (one.matches(h, n, static_cast<TimeUnit>(u))) {
            hit = true;
            break;
          }
        }
      }
      ++ref.spikesInjected;
      if (hit) ++ref.spikesDetected;
    }
    ref.digests.push_back(std::move(digests));
  }
  ref.shhhMean = results > 0 ? static_cast<double>(shhhTotal) /
                                   static_cast<double>(results)
                             : 0.0;
  return ref;
}

}  // namespace perfbench
