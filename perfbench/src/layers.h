// The traced run's in-process layer probes: timed calls into each layer's
// public functions on the workload's own data, recorded as spans. They run
// in a forked child (harness.h RunInChild) after the HTTP phases are over.

#ifndef PERFBENCH_LAYERS_H_
#define PERFBENCH_LAYERS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "reptile/reptile.h"

namespace perfbench {

/// What the probes need to know about one workload.
struct LayerShape {
  std::string csv;  // the uploaded CSV
  reptile::CsvSpec spec;
  std::vector<reptile::HierarchySchema> hierarchies;
  // The complaint whose drill keys and filter the group-by probe uses, and
  // the deepest recommend the workload issues (after `deep_commits`).
  reptile::ComplaintSpec complaint;
  std::vector<std::string> deep_commits;
  // true: every deep recommend trains (drill_cross); false: it is served
  // from the fitted-model cache after one warm-up call.
  bool deep_is_cold = false;
  std::string append_csv;  // the workload's append delta
  // Full-depth shape of the model/fmatrix probes: `synth_hierarchies`
  // single-attribute hierarchies of `synth_cardinality` values each.
  int synth_hierarchies = 2;
  int64_t synth_cardinality = 10;
};

/// Runs every probe and returns the encoded result (metrics and spans).
std::string RunLayerProbes(const LayerShape& shape);

/// Decodes RunLayerProbes' output into `values` (metric name -> value) and
/// appends its spans to `spans_jsonl`.
bool DecodeLayerProbes(const std::string& encoded, std::map<std::string, double>* values,
                       std::string* spans_jsonl);

}  // namespace perfbench

#endif  // PERFBENCH_LAYERS_H_
