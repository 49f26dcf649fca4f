// Figure 12 (Section 5.2.3): complaint ablation — Reptile vs Outlier when
// several groups are corrupted but only some in the complaint's direction.
// Two groups carry the true error, a third is corrupted the opposite way
// (false positive). Outlier ranks by |observed - predicted| and cannot tell
// the three apart, capping its top-1 accuracy near 2/3; Reptile uses the
// complaint direction to reject the false positive.

#include <cstdio>
#include <vector>

#include "baselines/outlier.h"
#include "common/env.h"
#include "common/rng.h"
#include "core/engine.h"
#include "datagen/accuracy_gen.h"

namespace reptile {
namespace {

// Returns (reptile_top, outlier_top) group codes for one instance. The
// engine is run once with a large top_k; the outlier pick is OutlierRank's
// first group (the largest |observed - repaired| complaint statistic),
// reusing the same model predictions (Section 5.2.3 compares exactly this
// ablation).
std::pair<int32_t, int32_t> RunBoth(const AccuracyInstance& inst) {
  EngineOptions options;
  options.top_k = 1000;
  Engine engine(&inst.dataset, options);
  auto register_aux = [&](const char* name, const Table& table) {
    AuxiliarySpec spec;
    spec.name = name;
    spec.table = &table;
    spec.join_attrs = {"group"};
    spec.measure = "aux";
    engine.RegisterAuxiliary(std::move(spec));
  };
  // One auxiliary table per complained statistic (Section 5.2.1): COUNT and
  // MEAN complaints use their own table; SUM decomposes into both.
  switch (inst.complaint.agg) {
    case AggFn::kCount:
      register_aux("aux_count", inst.aux_count);
      break;
    case AggFn::kMean:
      register_aux("aux_mean", inst.aux_mean);
      break;
    case AggFn::kStd:
    case AggFn::kVar:
      register_aux("aux_std", inst.aux_std);
      break;
    case AggFn::kSum:
      register_aux("aux_count", inst.aux_count);
      register_aux("aux_mean", inst.aux_mean);
      break;
  }
  Recommendation rec = engine.RecommendDrillDown(inst.complaint);
  if (rec.best_index < 0 || rec.best().top_groups.empty()) return {-1, -1};
  // The Outlier baseline over the engine's groups, in rank order, with the
  // engine's predictions: its stable sort keeps the first largest deviation.
  GroupByResult siblings;
  GroupPredictions predictions;
  for (const GroupRecommendation& g : rec.best().top_groups) {
    siblings.mutable_stats(siblings.GetOrAddGroup(g.key)) = g.observed;
    predictions.push_back(g.predicted);
  }
  const std::vector<ScoredGroup> outlier =
      OutlierRank(siblings, predictions, inst.complaint.agg);
  return {rec.best().top_groups[0].key[0], outlier[0].key[0]};
}

bool IsHit(int32_t top, const std::vector<int32_t>& truth) {
  for (int32_t t : truth) {
    if (top == t) return true;
  }
  return false;
}

}  // namespace
}  // namespace reptile

int main() {
  using namespace reptile;
  int reps = static_cast<int>(EnvInt("REPTILE_FIG12_REPS", 60));
  std::vector<double> rhos = {0.6, 0.7, 0.8, 0.9, 1.0};
  std::vector<AblationCondition> conditions = {AblationCondition::kMissingPlusDup,
                                               AblationCondition::kDecreasePlusIncrease,
                                               AblationCondition::kAll};
  std::printf("Figure 12: top-1 accuracy with 2 true errors + 1 false positive "
              "(%d datasets per cell)\n\n",
              reps);
  std::printf("%-32s %5s %9s %9s\n", "condition", "rho", "Reptile", "Outlier");
  Rng rng(321);
  for (AblationCondition condition : conditions) {
    for (double rho : rhos) {
      int reptile_hits = 0, outlier_hits = 0;
      for (int rep = 0; rep < reps; ++rep) {
        AccuracyOptions options;
        AccuracyInstance inst = MakeAblationInstance(options, condition, rho, &rng);
        auto [reptile_top, outlier_top] = RunBoth(inst);
        reptile_hits += IsHit(reptile_top, inst.true_errors);
        outlier_hits += IsHit(outlier_top, inst.true_errors);
      }
      std::printf("%-32s %5.2f %9.2f %9.2f\n", AblationConditionName(condition).c_str(), rho,
                  reptile_hits / static_cast<double>(reps),
                  outlier_hits / static_cast<double>(reps));
    }
    std::printf("\n");
  }
  std::printf("Expected shape (paper): Outlier hovers at 50-70%% (bounded by 2/3: it\n"
              "cannot distinguish the false positive); Reptile is well above it.\n");
  return 0;
}
