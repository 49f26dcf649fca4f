#include "api/response.h"

#include <sstream>

#include "common/json_util.h"

namespace reptile {
namespace {

// Minimal JSON writer: enough for the flat response structures here. String
// escaping and number formatting are shared with the server's parser/writer
// (common/json_util.h), which keeps every dataset/attribute name — quotes,
// backslashes, control characters included — parseable on the wire; the
// round-trip tests in tests/json_test.cpp hold the two sides together.
void AppendJsonString(std::ostringstream& os, const std::string& s) {
  os << '"' << JsonEscape(s) << '"';
}

void AppendJsonNumber(std::ostringstream& os, double value) { os << JsonNumber(value); }

void AppendStatMap(std::ostringstream& os, const std::map<std::string, double>& stats) {
  os << '{';
  bool first = true;
  for (const auto& [name, value] : stats) {
    if (!first) os << ',';
    first = false;
    AppendJsonString(os, name);
    os << ':';
    AppendJsonNumber(os, value);
  }
  os << '}';
}

void AppendKeyPairs(std::ostringstream& os,
                    const std::vector<std::pair<std::string, std::string>>& key) {
  os << '{';
  for (size_t i = 0; i < key.size(); ++i) {
    if (i > 0) os << ',';
    AppendJsonString(os, key[i].first);
    os << ':';
    AppendJsonString(os, key[i].second);
  }
  os << '}';
}

void AppendGroup(std::ostringstream& os, const GroupResponse& group) {
  os << "{\"description\":";
  AppendJsonString(os, group.description);
  os << ",\"key\":";
  AppendKeyPairs(os, group.key);
  os << ",\"observed\":";
  AppendStatMap(os, group.observed);
  os << ",\"predicted\":";
  AppendStatMap(os, group.predicted);
  os << ",\"repaired\":";
  AppendStatMap(os, group.repaired);
  os << ",\"repaired_complaint_value\":";
  AppendJsonNumber(os, group.repaired_complaint_value);
  os << ",\"score\":";
  AppendJsonNumber(os, group.score);
  os << '}';
}

void AppendHierarchy(std::ostringstream& os, const HierarchyResponse& candidate) {
  os << "{\"hierarchy\":";
  AppendJsonString(os, candidate.hierarchy);
  os << ",\"attribute\":";
  AppendJsonString(os, candidate.attribute);
  os << ",\"best_score\":";
  AppendJsonNumber(os, candidate.best_score);
  os << ",\"model_rows\":" << candidate.model_rows
     << ",\"model_clusters\":" << candidate.model_clusters << ",\"train_seconds\":";
  AppendJsonNumber(os, candidate.train_seconds);
  os << ",\"total_seconds\":";
  AppendJsonNumber(os, candidate.total_seconds);
  os << ",\"groups\":[";
  for (size_t i = 0; i < candidate.groups.size(); ++i) {
    if (i > 0) os << ',';
    AppendGroup(os, candidate.groups[i]);
  }
  os << "]}";
}

void AppendModel(std::ostringstream& os, const ModelResponse& model) {
  os << "{\"kind\":";
  AppendJsonString(os, model.kind);
  os << ",\"backend\":";
  AppendJsonString(os, model.backend);
  os << ",\"random_effects\":";
  AppendJsonString(os, model.random_effects);
  os << ",\"em_iterations\":" << model.em_iterations
     << ",\"em_iterations_run\":" << model.em_iterations_run << ",\"em_tolerance\":";
  AppendJsonNumber(os, model.em_tolerance);
  os << ",\"fit_cache\":" << (model.fit_cache ? "true" : "false")
     << ",\"extra_repair_stats\":[";
  for (size_t i = 0; i < model.extra_repair_stats.size(); ++i) {
    if (i > 0) os << ',';
    AppendJsonString(os, model.extra_repair_stats[i]);
  }
  os << "]}";
}

void AppendExplore(std::ostringstream& os, const ExploreResponse& response) {
  os << "{\"complaint\":";
  AppendJsonString(os, response.complaint);
  os << ",\"model\":";
  AppendModel(os, response.model);
  os << ",\"best_index\":" << response.best_index << ",\"candidates\":[";
  for (size_t i = 0; i < response.candidates.size(); ++i) {
    if (i > 0) os << ',';
    AppendHierarchy(os, response.candidates[i]);
  }
  os << "]}";
}

}  // namespace

const HierarchyResponse* ExploreResponse::best() const {
  if (best_index < 0 || best_index >= static_cast<int>(candidates.size())) return nullptr;
  return &candidates[static_cast<size_t>(best_index)];
}

std::string ExploreResponse::ToJson() const {
  std::ostringstream os;
  AppendExplore(os, *this);
  return os.str();
}

std::string BatchExploreResponse::ToJson() const {
  std::ostringstream os;
  os << "{\"models_trained\":" << models_trained
     << ",\"fit_cache_hits\":" << fit_cache_hits << ",\"train_seconds\":";
  AppendJsonNumber(os, train_seconds);
  os << ",\"wall_seconds\":";
  AppendJsonNumber(os, wall_seconds);
  os << ",\"responses\":[";
  for (size_t i = 0; i < responses.size(); ++i) {
    if (i > 0) os << ',';
    AppendExplore(os, responses[i]);
  }
  os << "]}";
  return os.str();
}

std::string ViewResponse::ToJson() const {
  std::ostringstream os;
  os << "{\"group_by\":[";
  for (size_t i = 0; i < group_by.size(); ++i) {
    if (i > 0) os << ',';
    AppendJsonString(os, group_by[i]);
  }
  os << "],\"rows\":[";
  for (size_t i = 0; i < rows.size(); ++i) {
    if (i > 0) os << ',';
    os << "{\"key\":";
    AppendKeyPairs(os, rows[i].key);
    os << ",\"stats\":";
    AppendStatMap(os, rows[i].stats);
    os << '}';
  }
  os << "],\"total\":";
  AppendStatMap(os, total);
  os << '}';
  return os.str();
}

}  // namespace reptile
