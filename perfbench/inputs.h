// Benchmark inputs and the deterministic output check.
//
// Inputs are generated from the workload seed before any timing starts
// and reused by every repetition: per stream, the paper-scale preset's
// records with spikes injected from a GroundTruthLedger. The output check
// digests every InstanceResult (unit, SHHH ids, and each anomaly's node,
// unit and the bit patterns of its actual and forecast values) and
// compares the digests unit by unit with a single-threaded reference pass
// (TimeUnitBatcher::pull -> TiresiasPipeline::processUnit) over the same
// records. Nothing that depends on timing enters the check.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/pipeline.h"
#include "workload/ccd.h"
#include "workload/injector.h"

namespace perfbench {

using tiresias::TimeUnit;

enum class Preset { kCcdNet, kCcdTrouble, kScd };
const char* presetName(Preset preset);
tiresias::workload::WorkloadSpec makeSpec(Preset preset,
                                          tiresias::workload::Scale scale);

/// Detector settings shared by every workload: 15-minute units, the
/// window below, theta = 5, and the Holt-Winters forecaster the pipeline
/// derives in Step 3 from the first window (day/week candidates).
tiresias::PipelineConfig pipelineConfig(const tiresias::workload::WorkloadSpec& spec,
                                        std::size_t window);

struct StreamInput {
  std::string name;
  Preset preset = Preset::kCcdNet;
  TimeUnit units = 0;  // the stream covers timeunits [0, units)
  tiresias::Duration delta = 0;  // timeunit width
  std::vector<tiresias::Record> records;
  /// Per unit u: the first later unit holding a record (== units when
  /// none). The batcher closes u when that unit's first record arrives; a
  /// unit with no records is closed by the next non-empty one.
  std::vector<TimeUnit> closingUnit;
  tiresias::workload::GroundTruthLedger ledger;
};

/// Generate `streams` streams of `units` timeunits each. Stream i uses
/// presets[i % presets.size()]; its records and spikes depend only on
/// (seed, i).
std::vector<StreamInput> generateInputs(
    const std::vector<Preset>& presets, std::size_t streams, TimeUnit units,
    std::size_t window, tiresias::workload::Scale scale, std::uint64_t seed);

/// Order-sensitive digest of one detection instance. Never 0 (0 marks
/// "no result" in a digest table).
std::uint64_t digestResult(const tiresias::InstanceResult& result);

/// What the single-threaded reference pass over one workload produced.
struct Reference {
  /// Per stream, per unit: the result digest, 0 where no result is due.
  std::vector<std::vector<std::uint64_t>> digests;
  /// Spike events detected / injected (an event counts as detected when
  /// an anomaly in one of its active units matches it in the ledger).
  std::size_t spikesInjected = 0;
  std::size_t spikesDetected = 0;
  // Core-layer figures (the per-unit timings of the reference pass).
  std::vector<double> processUnitUs;  // post-warm-up units
  double detectorBuildMs = 0.0;       // the units that end warm-up, summed
  double updateHierarchiesS = 0.0;    // Table III stage totals
  double createSeriesS = 0.0;
  double judgeAnomaliesS = 0.0;
  double shhhMean = 0.0;
  double memoryBytes = 0.0;     // MemoryStats::bytesEstimate, summed
  double workspaceBytes = 0.0;  // MemoryStats::workspaceBytes, summed
};

class Tracer;
Reference runReference(const std::vector<StreamInput>& inputs,
                       tiresias::workload::Scale scale, std::size_t window,
                       Tracer* tracer);

}  // namespace perfbench
