// Figure 13 + Tables 1-2 (Section 5.3, Appendix L): the COVID-19 case
// study. Thirty reproduced data issues are injected one at a time; for each,
// a SUM complaint is filed at the national/global level for the issue day,
// and Reptile, Sensitivity and Support each recommend the drill-down
// location. A method scores when its top pick is the ground-truth location.
//
// Paper shape: Reptile ~70% (21/30) at ~0.5 s per complaint; Sensitivity
// 6.6% (2/30); Support 3.3% (1/30). Prevalent errors (starred) and sub-noise
// errors stay undetected.

#include <cstdio>
#include <string>
#include <vector>

#include "baselines/sensitivity.h"
#include "baselines/support.h"
#include "common/timer.h"
#include "core/engine.h"
#include "datagen/covid_gen.h"

namespace reptile {
namespace {

struct MethodResult {
  bool reptile = false;
  bool sensitivity = false;
  bool support = false;
  double reptile_seconds = 0.0;
  double baseline_seconds = 0.0;
};

MethodResult RunIssue(bool global, const CovidIssueSpec& issue) {
  CovidPanelConfig config;
  config.global = global;
  Dataset panel = MakeCorruptedPanel(config, issue);
  const Table& table = panel.table();
  std::string loc_attr = CovidLocationAttr(global);
  int loc_col = table.ColumnIndex(loc_attr);
  int day_col = table.ColumnIndex("day");
  int measure = table.ColumnIndex(issue.measure);

  // Lag features are built from the observed (corrupted) panel, as a real
  // deployment would.
  Table lag1 = MakeCovidLagTable(panel, issue.measure, 1);
  Table lag7 = MakeCovidLagTable(panel, issue.measure, 7);

  RowFilter filter;
  char day_name[16];
  std::snprintf(day_name, sizeof(day_name), "d%03d", issue.day);
  filter.Add(day_col, *table.dict(day_col).Find(day_name));
  Complaint complaint;
  complaint.agg = AggFn::kSum;
  complaint.measure_column = measure;
  complaint.filter = filter;
  complaint.direction = issue.direction;

  MethodResult result;
  {
    Timer timer;
    // Multi-level with per-day clusters and random effects on all features
    // except the location main effect: the day clusters adapt the lag
    // coefficients (the paper's "systematic variation between parent
    // groups"), which the multiplicative epidemic curves require.
    EngineOptions options;
    options.model.AllRandomEffects();
    Engine engine(&panel, options);
    engine.ExcludeFromRandomEffects(loc_attr);
    for (const auto& [name, lag] : {std::make_pair("lag1", &lag1),
                                    std::make_pair("lag7", &lag7)}) {
      AuxiliarySpec spec;
      spec.name = name;
      spec.table = lag;
      spec.join_attrs = {loc_attr, "day"};
      spec.measure = lag->column_name(2);
      engine.RegisterAuxiliary(std::move(spec));
    }
    engine.CommitDrillDown(1);  // the user has already drilled time to days
    Recommendation rec = engine.RecommendDrillDown(complaint);
    result.reptile_seconds = timer.Seconds();
    if (rec.best_index >= 0 && !rec.best().top_groups.empty()) {
      int32_t top_loc = rec.best().top_groups[0].key.back();  // day key, then loc?
      // Key columns are [day, location] (time committed first, geo drilled
      // last); the location is the second key position.
      top_loc = rec.best().top_groups[0].key[1];
      result.reptile = table.dict(loc_col).name(top_loc) == issue.location;
    }
  }
  {
    Timer timer;
    GroupByResult siblings = GroupBy(table, {day_col, loc_col}, measure, filter);
    std::vector<ScoredGroup> sens = SensitivityRank(siblings, complaint);
    if (!sens.empty()) {
      result.sensitivity = table.dict(loc_col).name(sens[0].key[1]) == issue.location;
    }
    std::vector<ScoredGroup> supp = SupportRank(siblings);
    if (!supp.empty()) {
      result.support = table.dict(loc_col).name(supp[0].key[1]) == issue.location;
    }
    result.baseline_seconds = timer.Seconds();
  }
  return result;
}

void RunSuite(bool global, const std::vector<CovidIssueSpec>& issues, int* rp, int* st,
              int* sp, int* total, double* rp_seconds, double* base_seconds) {
  std::printf("%s issues (%s = prevalent error)\n", global ? "Global" : "US", "*");
  std::printf("%-6s %-44s %4s %4s %4s   %s\n", "id", "issue", "RP", "ST", "SP", "paper RP");
  for (const CovidIssueSpec& issue : issues) {
    MethodResult result = RunIssue(global, issue);
    std::printf("%-6d %s%-43s %4s %4s %4s   %s\n", issue.id, issue.prevalent ? "*" : " ",
                issue.name.c_str(), result.reptile ? "Y" : ".",
                result.sensitivity ? "Y" : ".", result.support ? "Y" : ".",
                issue.paper_reptile_detects ? "Y" : ".");
    *rp += result.reptile;
    *st += result.sensitivity;
    *sp += result.support;
    *total += 1;
    *rp_seconds += result.reptile_seconds;
    *base_seconds += result.baseline_seconds;
  }
  std::printf("\n");
}

}  // namespace
}  // namespace reptile

int main() {
  using namespace reptile;
  std::printf("Figure 13 + Tables 1-2: COVID-19 case study (simulated JHU panels)\n\n");
  int rp = 0, st = 0, sp = 0, total = 0;
  double rp_seconds = 0.0, base_seconds = 0.0;
  RunSuite(false, UsIssueList(), &rp, &st, &sp, &total, &rp_seconds, &base_seconds);
  RunSuite(true, GlobalIssueList(), &rp, &st, &sp, &total, &rp_seconds, &base_seconds);
  std::printf("Figure 13a — correct rate: Reptile %.3f (%d/%d), Sensitivity %.3f (%d/%d), "
              "Support %.3f (%d/%d)\n",
              rp / static_cast<double>(total), rp, total, st / static_cast<double>(total), st,
              total, sp / static_cast<double>(total), sp, total);
  std::printf("Figure 13b — average runtime per complaint: Reptile %.3f s, baselines %.4f s\n",
              rp_seconds / total, base_seconds / total);
  std::printf("\nPaper: Reptile 21/30 (70%%), Sensitivity 2/30, Support 1/30; Reptile ~0.5 s.\n");
  return 0;
}
