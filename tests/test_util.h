// Shared helpers for the reptile test suite: random factorised matrices with
// feature columns, naive reference implementations to compare against, and
// a reader for the server's /healthz metrics.

#ifndef REPTILE_TESTS_TEST_UTIL_H_
#define REPTILE_TESTS_TEST_UTIL_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "factor/decomposed.h"
#include "factor/frep.h"
#include "factor/ftree.h"
#include "server/json.h"

namespace reptile {
namespace testutil {

/// Owns trees + locals + the matrix view over them.
struct RandomMatrix {
  std::vector<std::unique_ptr<FTree>> trees;
  std::vector<std::unique_ptr<LocalAggregates>> locals;
  FactorizedMatrix fm;

  std::vector<const LocalAggregates*> LocalPtrs() const {
    std::vector<const LocalAggregates*> out;
    for (const auto& l : locals) out.push_back(l.get());
    return out;
  }
};

/// Builds a random forest (intercept first) with random single-attribute
/// feature columns on every attribute (including the intercept), optionally
/// plus `num_multi` random multi-attribute columns.
inline RandomMatrix MakeRandomMatrix(Rng* rng, int num_hierarchies, int max_depth = 3,
                                     int max_card = 4, int num_multi = 0) {
  RandomMatrix out;
  out.trees.push_back(std::make_unique<FTree>(FTree::Singleton()));
  for (int h = 0; h < num_hierarchies; ++h) {
    int depth = static_cast<int>(rng->UniformInt(1, max_depth));
    int paths = static_cast<int>(rng->UniformInt(1, 2 * max_card));
    std::vector<std::vector<int32_t>> ps;
    for (int p = 0; p < paths; ++p) {
      std::vector<int32_t> path(depth);
      for (int l = 0; l < depth; ++l) {
        path[l] = static_cast<int32_t>(rng->UniformInt(0, max_card - 1));
      }
      ps.push_back(path);
    }
    out.trees.push_back(std::make_unique<FTree>(FTree::FromPaths(ps, depth)));
  }
  for (const auto& t : out.trees) out.fm.AddTree(t.get());
  for (const auto& t : out.trees) {
    out.locals.push_back(std::make_unique<LocalAggregates>(t.get()));
  }

  // One feature column per attribute with random value maps.
  for (int flat = 0; flat < out.fm.num_attrs(); ++flat) {
    AttrId attr = out.fm.FlatAttr(flat);
    FeatureColumn col;
    col.name = "f" + std::to_string(flat);
    col.attr = attr;
    col.value_map.resize(static_cast<size_t>(max_card) + 2);
    for (double& v : col.value_map) v = rng->Normal(0.0, 1.0);
    out.fm.AddColumn(std::move(col));
  }
  // Multi-attribute columns over random attribute pairs.
  for (int m = 0; m < num_multi && out.fm.num_attrs() >= 2; ++m) {
    FeatureColumn col;
    col.name = "multi" + std::to_string(m);
    col.is_multi = true;
    int a = static_cast<int>(rng->UniformInt(0, out.fm.num_attrs() - 1));
    int b = static_cast<int>(rng->UniformInt(0, out.fm.num_attrs() - 1));
    if (a == b) b = (b + 1) % out.fm.num_attrs();
    if (a > b) std::swap(a, b);
    col.attrs = {out.fm.FlatAttr(a), out.fm.FlatAttr(b)};
    for (int32_t va = 0; va < max_card + 1; ++va) {
      for (int32_t vb = 0; vb < max_card + 1; ++vb) {
        if (rng->Bernoulli(0.7)) col.multi_map[{va, vb}] = rng->Normal(0.0, 1.0);
      }
    }
    col.missing_value = rng->Normal(0.0, 0.3);
    out.fm.AddColumn(std::move(col));
  }
  return out;
}

/// Random dense vector of length n.
inline std::vector<double> RandomVector(Rng* rng, int64_t n) {
  std::vector<double> v(static_cast<size_t>(n));
  for (double& x : v) x = rng->Normal(0.0, 1.0);
  return v;
}

/// The value of the unlabelled counter or gauge `family` in a /healthz
/// body's "metrics" object; -1 when the body does not parse or lacks it.
inline int64_t HealthzMetric(const std::string& healthz, const std::string& family) {
  Result<JsonValue> parsed = ParseJson(healthz);
  const JsonValue* metrics = parsed.ok() ? parsed->Find("metrics") : nullptr;
  const JsonValue* series = metrics != nullptr ? metrics->Find(family) : nullptr;
  if (series == nullptr || !series->is_array() || series->array_items().size() != 1) return -1;
  const JsonValue* value = series->array_items()[0].Find("value");
  return value != nullptr && value->IsInteger() ? value->IntValue() : -1;
}

}  // namespace testutil
}  // namespace reptile

#endif  // REPTILE_TESTS_TEST_UTIL_H_
