// COVID-19 exploration (paper Section 5.3) on the public Session facade: a
// simulated JHU-style daily panel with an injected data error (Texas's
// reports mostly missing on one day). The analyst complains that the
// national total for that day is too low; Reptile recommends the state to
// investigate, the session commits the drill-down, and a second complaint
// narrows to the counties.
//
// Demonstrates: iterative drill-down sessions, multi-attribute (location,
// day) lag features as auxiliary datasets, and SUM complaints — all through
// name-based requests and Status-based error handling.

#include <cstdio>
#include <cstdlib>

#include "datagen/covid_gen.h"
#include "example_util.h"
#include "reptile/reptile.h"

using namespace reptile;

int main() {
  // Build the corrupted panel for the Texas missing-reports issue.
  CovidPanelConfig config;
  CovidIssueSpec issue = UsIssueList()[0];
  std::printf("Injected issue: %s (day %d)\n\n", issue.name.c_str(), issue.day);
  Dataset panel = MakeCorruptedPanel(config, issue);

  // 1-day and 7-day lag features, built from the observed data.
  Table lag1 = MakeCovidLagTable(panel, issue.measure, 1);
  Table lag7 = MakeCovidLagTable(panel, issue.measure, 7);

  Result<Session> session = Session::Create(
      std::move(panel), ExploreRequest().Model(ModelSpec().AllRandomEffects()));
  ExitOnError(session.status());
  ExitOnError(session->ExcludeFromRandomEffects("state"));
  for (auto& [name, lag] : {std::make_pair("lag1", &lag1), std::make_pair("lag7", &lag7)}) {
    AuxiliaryRequest aux;
    aux.name = name;
    aux.table = std::move(*lag);
    aux.join_attributes = {"state", "day"};
    aux.measure = aux.table.column_name(2);
    ExitOnError(session->RegisterAuxiliary(std::move(aux)));
  }
  ExitOnError(session->Commit("time"));  // the analyst is already on daily totals

  // --- Complaint 1: the US total on the issue day is too low. ---
  char day_name[16];
  std::snprintf(day_name, sizeof(day_name), "d%03d", issue.day);
  ComplaintSpec complaint =
      issue.direction == ComplaintDirection::kTooLow
          ? ComplaintSpec::TooLow("sum", issue.measure).Where("day", day_name)
          : ComplaintSpec::TooHigh("sum", issue.measure).Where("day", day_name);
  std::printf("Complaint 1: national %s on %s — %s\n", issue.measure.c_str(), day_name,
              complaint.Describe().c_str());

  Result<ExploreResponse> response = session->Recommend(complaint);
  ExitOnError(response.status());
  const HierarchyResponse* best = response->best();
  if (best == nullptr) {
    std::printf("No drill-down recommendation available.\n");
    return 1;
  }
  std::printf("Reptile recommends drilling down to: %s\n", best->attribute.c_str());
  for (const GroupResponse& g : best->groups) {
    std::printf("  %-36s observed sum %9.1f, predicted mean %8.2f, score %12.2f\n",
                g.description.c_str(), g.observed.at("sum"), g.predicted.at("mean"), g.score);
  }

  // --- Commit and drill into the flagged state's counties. ---
  ExitOnError(session->Commit(best->hierarchy));
  ComplaintSpec complaint2 = complaint;
  complaint2.Where("state", issue.location);
  std::printf("\nComplaint 2: %s's %s on %s is too low — drilling further\n",
              issue.location.c_str(), issue.measure.c_str(), day_name);
  Result<ExploreResponse> response2 = session->Recommend(complaint2);
  ExitOnError(response2.status());
  const HierarchyResponse* best2 = response2->best();
  if (best2 == nullptr) {
    std::printf("No further drill-down available.\n");
    return 1;
  }
  std::printf("Reptile recommends drilling down to: %s\n", best2->attribute.c_str());
  for (const GroupResponse& g : best2->groups) {
    std::printf("  %-56s observed sum %8.1f, score %12.2f\n", g.description.c_str(),
                g.observed.at("sum"), g.score);
  }
  std::printf("\nEvery county under-reports on the missing day, so all of %s's counties\n"
              "surface with similar repair scores — the signature of a state-wide feed\n"
              "outage rather than a single bad county.\n",
              issue.location.c_str());
  return 0;
}
