#include "layers.h"

#include <cstdio>
#include <cstdlib>
#include <functional>
#include <sstream>
#include <utility>

#include "bench_util.h"
#include "common/rng.h"
#include "data/group_by.h"
#include "datagen/synthetic.h"
#include "factor/decomposed.h"
#include "factor/frep.h"
#include "factor/ftree.h"
#include "fmatrix/gram.h"
#include "fmatrix/left_mult.h"
#include "fmatrix/right_mult.h"
#include "model/multilevel.h"
#include "obs/trace.h"
#include "version/append.h"

namespace perfbench {

namespace {

using reptile::Result;

constexpr int kReps = 3;

// Spans and metrics of the probe run, all hanging off one root span.
class ProbeRecorder {
 public:
  ProbeRecorder() : log_(uint64_t{1} << 56), root_start_(NowNs()) {}

  // Runs `fn` kReps times (or `reps`), recording each call as a span under
  // the root, and returns the median wall time in seconds.
  double Time(const std::string& span, const std::function<void()>& fn, int reps = kReps) {
    std::vector<double> seconds;
    for (int i = 0; i < reps; ++i) {
      const int64_t start = NowNs();
      fn();
      const int64_t end = NowNs();
      log_.Add(span, kRootId, ++trace_, start, end);
      seconds.push_back(static_cast<double>(end - start) * 1e-9);
    }
    return Median(seconds);
  }

  // Records an in-process recommend and its engine stage spans as children;
  // returns the recommend's self time (wall minus stage spans) in ms.
  double Recommend(const std::string& span, int64_t start, int64_t end,
                   const reptile::TraceContext& trace, int64_t trace_epoch_ns) {
    const uint64_t id = log_.Add(span, kRootId, ++trace_, start, end);
    for (const reptile::TraceSpan& stage : trace.Spans()) {
      const int64_t s = trace_epoch_ns + static_cast<int64_t>(stage.start_seconds * 1e9);
      log_.Add("stage." + stage.name, id, trace_, s,
               s + static_cast<int64_t>(stage.duration_seconds * 1e9));
    }
    for (const Span& s : log_.spans()) {
      if (s.id == id) return static_cast<double>(SelfTimeNs(s, log_.spans())) * 1e-6;
    }
    return 0.0;
  }

  void Metric(const std::string& name, double value) { metrics_[name] = value; }

  std::string Encode() {
    SpanLog all(0);
    all.Add("layers", 0, 0, root_start_, NowNs());  // id 1 == kRootId
    all.Append(log_);
    std::string text;
    char buf[64];
    for (const auto& [name, value] : metrics_) {
      std::snprintf(buf, sizeof(buf), "%.17g", value);
      text += name + "\t" + buf + "\n";
    }
    return EncodeStrings({text, all.ToJsonLines()});
  }

 private:
  static constexpr uint64_t kRootId = 1;
  SpanLog log_;
  int64_t root_start_;
  uint64_t trace_ = 0;
  std::map<std::string, double> metrics_;
};

template <typename T>
T Must(Result<T> result, const char* what) {
  if (!result.ok()) {
    std::fprintf(stderr, "layer probe %s failed: %s\n", what, result.status().ToString().c_str());
    std::_Exit(1);
  }
  return std::move(result).value();
}

void MustOk(const reptile::Status& status, const char* what) {
  if (!status.ok()) {
    std::fprintf(stderr, "layer probe %s failed: %s\n", what, status.ToString().c_str());
    std::_Exit(1);
  }
}

}  // namespace

std::string RunLayerProbes(const LayerShape& shape) {
  ProbeRecorder rec;

  // data: CSV parse (kept tables feed the prepare probe).
  std::vector<reptile::Table> tables;
  rec.Metric("data.csv_parse_s", rec.Time("data.csv_parse", [&] {
    tables.push_back(Must(reptile::LoadCsvText(shape.csv, shape.spec), "LoadCsvText"));
  }));

  // api: Dataset::Make + PreparedDataset::Prepare.
  std::vector<reptile::DatasetHandle> handles;
  rec.Metric("api.prepare_ms", 1e3 * rec.Time("api.prepare", [&] {
    reptile::Dataset dataset = Must(
        reptile::Dataset::Make(std::move(tables.back()), shape.hierarchies), "Dataset::Make");
    tables.pop_back();
    handles.push_back(Must(reptile::PreparedDataset::Prepare(std::move(dataset)), "Prepare"));
  }));
  const reptile::DatasetHandle handle = handles.front();
  const reptile::Dataset& dataset = handle->data();
  const reptile::Table& table = dataset.table();

  // data: group-by over the complaint's full-depth drill keys and filter.
  reptile::Complaint complaint = Must(shape.complaint.Resolve(dataset), "complaint");
  std::vector<std::vector<int>> tree_columns = {{}};
  std::vector<int> keys;
  for (int h = 0; h < dataset.num_hierarchies(); ++h) {
    std::vector<int> cols =
        dataset.HierarchyColumns(h, static_cast<int>(dataset.hierarchy(h).attributes.size()));
    keys.insert(keys.end(), cols.begin(), cols.end());
    tree_columns.push_back(std::move(cols));
  }
  rec.Metric("data.group_by_ms", 1e3 * rec.Time("data.group_by", [&] {
    reptile::GroupByResult groups =
        reptile::GroupBy(table, keys, complaint.measure_column, complaint.filter);
    if (groups.num_groups() == 0) std::_Exit(1);
  }));

  // factor: f-trees and group moments at full drill depth.
  std::vector<reptile::FTree> trees;
  rec.Metric("factor.ftree_build_ms", 1e3 * rec.Time("factor.ftree_build", [&] {
    trees.clear();
    trees.push_back(reptile::FTree::Singleton());
    for (size_t k = 1; k < tree_columns.size(); ++k) {
      trees.push_back(reptile::FTree::FromTable(table, tree_columns[k]));
    }
  }));
  reptile::FactorizedMatrix layout;
  for (const reptile::FTree& tree : trees) layout.AddTree(&tree);
  rec.Metric("factor.group_moments_ms", 1e3 * rec.Time("factor.group_moments", [&] {
    std::vector<reptile::Moments> y = reptile::BuildGroupMoments(
        layout, table, tree_columns, complaint.measure_column);
    if (static_cast<int64_t>(y.size()) != layout.num_rows()) std::_Exit(1);
  }));

  // api + parallel: the deepest recommend, traced, then at one thread and at
  // the default width.
  reptile::Session session = Must(reptile::Session::Open(handle), "Session::Open");
  for (const std::string& h : shape.deep_commits) MustOk(session.Commit(h), "commit");
  auto deep_options = [&](int threads) {
    reptile::BatchOptions options;
    options.Threads(threads);
    if (shape.deep_is_cold) options.Model(reptile::ModelSpec().FitCache(false));
    return options;
  };
  Must(session.Recommend(shape.complaint, deep_options(0)), "warm-up recommend");
  {
    reptile::TraceContext trace("probe");
    const int64_t epoch = NowNs();
    reptile::BatchOptions options = deep_options(0);
    options.WithTrace(&trace);
    const int64_t start = NowNs();
    reptile::ExploreResponse response =
        Must(session.Recommend(shape.complaint, options), "traced recommend");
    const int64_t end = NowNs();
    rec.Metric("api.recommend_self_ms", rec.Recommend("api.recommend", start, end, trace, epoch));
    double train = 0.0;
    for (const reptile::HierarchyResponse& c : response.candidates) train += c.train_seconds;
    rec.Metric("model.train_s", train);
  }
  const double serial = rec.Time("parallel.recommend_threads_1", [&] {
    Must(session.Recommend(shape.complaint, deep_options(1)), "serial recommend");
  }, 1);
  const double wide = rec.Time("parallel.recommend_threads_default", [&] {
    Must(session.Recommend(shape.complaint, deep_options(0)), "parallel recommend");
  }, 1);
  rec.Metric("parallel.speedup_deep", wide > 0.0 ? serial / wide : 0.0);

  // model + fmatrix: one EM fit and the factorised operators at the
  // workload's full-depth shape.
  {
    reptile::SyntheticOptions options;
    options.num_hierarchies = shape.synth_hierarchies;
    options.attrs_per_hierarchy = 1;
    options.cardinality = shape.synth_cardinality;
    options.seed = 7;
    reptile::SyntheticMatrix sm = reptile::MakeSyntheticMatrix(options);
    reptile::DecomposedAggregates agg(&sm.fm, sm.LocalPtrs());
    reptile::FactorizedEmBackend backend(&sm.fm, &agg, {0});
    reptile::Rng rng(11);
    std::vector<double> y(static_cast<size_t>(sm.fm.num_rows()));
    for (double& v : y) v = rng.Normal(100.0, 20.0);
    int iterations = 0;
    const double fit = rec.Time("model.em_fit", [&] {
      reptile::MultiLevelModel model = reptile::TrainMultiLevel(&backend, y);
      iterations = model.iterations_run;
    });
    rec.Metric("model.em_fit_ms", 1e3 * fit);
    rec.Metric("model.em_iter_ms", iterations > 0 ? 1e3 * fit / iterations : 0.0);
    rec.Metric("fmatrix.gram_ms", 1e3 * rec.Time("fmatrix.gram", [&] {
      reptile::Matrix gram = reptile::FactorizedGram(sm.fm, agg);
      if (gram.rows() == 0) std::_Exit(1);
    }));
    std::vector<double> beta(static_cast<size_t>(sm.fm.num_cols()), 0.5);
    rec.Metric("fmatrix.left_mult_ms", 1e3 * rec.Time("fmatrix.left_mult", [&] {
      std::vector<double> out = reptile::FactorizedVecLeftMultiply(sm.fm, y);
      if (out.empty()) std::_Exit(1);
    }));
    rec.Metric("fmatrix.right_mult_ms", 1e3 * rec.Time("fmatrix.right_mult", [&] {
      std::vector<double> out = reptile::FactorizedVecRightMultiply(sm.fm, beta);
      if (out.empty()) std::_Exit(1);
    }));
  }

  // version: the workload's append delta on the warmed dataset.
  reptile::AppendResult appended;
  rec.Metric("version.append_ms", 1e3 * rec.Time("version.append", [&] {
    appended = Must(reptile::AppendRowsCsv(handle, shape.append_csv), "AppendRowsCsv");
  }));
  rec.Metric("version.invalidated_entries", static_cast<double>(appended.invalidated_entries));
  rec.Metric("version.shared_entries", static_cast<double>(appended.shared_entries));
  return rec.Encode();
}

bool DecodeLayerProbes(const std::string& encoded, std::map<std::string, double>* values,
                       std::string* spans_jsonl) {
  std::vector<std::string> parts;
  if (!DecodeStrings(encoded, &parts) || parts.size() != 2) return false;
  std::istringstream lines(parts[0]);
  std::string line;
  while (std::getline(lines, line)) {
    size_t tab = line.find('\t');
    if (tab == std::string::npos) return false;
    (*values)[line.substr(0, tab)] = std::strtod(line.c_str() + tab + 1, nullptr);
  }
  *spans_jsonl += parts[1];
  return true;
}

}  // namespace perfbench
