// Figure 15 (Appendix F): per-cluster matrix operations — cluster gram,
// cluster left multiplication and cluster right multiplication — factorised
// (incremental, Algorithms 5-7) vs a LAPACK-style implementation that
// slices each cluster out of the materialised matrix and runs dense kernels
// on it (the per-cluster call pattern of the paper's baseline).
//
// Setup: d = 1..REPTILE_FIG15_MAX_D hierarchies x 3 attributes, w = 10;
// X is 10^d x (3d + 1) with 10^(d-1) clusters of ~10 rows. Paper shape at
// d = 7: 3x (gram), 5.8x (left), 6.9x (right) in Reptile's favour.

#include <map>

#include "benchmark/benchmark.h"
#include "common/env.h"
#include "common/rng.h"
#include "datagen/synthetic.h"
#include "fmatrix/cluster_ops.h"
#include "fmatrix/left_mult.h"
#include "fmatrix/materialize.h"
#include "model/multilevel.h"

namespace reptile {
namespace {

struct Workload {
  SyntheticMatrix sm;
  Matrix dense;
  std::vector<int64_t> cluster_begin;
  std::vector<int> cols;
  std::vector<double> r;
  Matrix b;  // G x q coefficients for the right multiplication
  // The factorised side's per-fit precomputation (Appendix D), built once as
  // an EM fit does before its first iteration.
  ClusterTable table;
};

const Workload& WorkloadFor(int d) {
  static std::map<int, Workload>& cache = *new std::map<int, Workload>();
  auto it = cache.find(d);
  if (it == cache.end()) {
    SyntheticOptions options;
    options.num_hierarchies = d;
    options.attrs_per_hierarchy = 3;
    options.cardinality = 10;
    options.fan_leaves = true;  // Appendix F: clusters of shape 10 x (3d+1)
    Workload w;
    w.sm = MakeSyntheticMatrix(options);
    w.dense = MaterializeMatrix(w.sm.fm);
    w.cluster_begin = ClusterBeginsOf(w.sm.fm);
    for (int c = 0; c < w.sm.fm.num_cols(); ++c) w.cols.push_back(c);
    Rng rng(5);
    w.r.resize(static_cast<size_t>(w.sm.fm.num_rows()));
    for (double& v : w.r) v = rng.Normal(0.0, 1.0);
    w.b = Matrix(static_cast<size_t>(w.sm.fm.num_clusters()), w.cols.size());
    for (size_t i = 0; i < w.b.size(); ++i) w.b.mutable_data()[i] = rng.Normal(0.0, 1.0);
    w.table = BuildClusterTable(w.sm.fm, w.cols);
    it = cache.emplace(d, std::move(w)).first;
  }
  return it->second;
}

// Slices cluster g's rows out of the materialised matrix (the LAPACK-style
// baseline materialises per-cluster operands before each kernel call).
Matrix SliceCluster(const Workload& w, size_t g) {
  int64_t begin = w.cluster_begin[g];
  int64_t end = w.cluster_begin[g + 1];
  Matrix xi(static_cast<size_t>(end - begin), w.cols.size());
  for (int64_t row = begin; row < end; ++row) {
    const double* src_row = w.dense.RowPtr(static_cast<size_t>(row));
    double* dst = xi.RowPtr(static_cast<size_t>(row - begin));
    for (size_t c = 0; c < w.cols.size(); ++c) dst[c] = src_row[w.cols[c]];
  }
  return xi;
}

void BM_ClusterGram_Dense(benchmark::State& state) {
  const Workload& w = WorkloadFor(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    double sink = 0.0;
    for (size_t g = 0; g + 1 < w.cluster_begin.size(); ++g) {
      Matrix xi = SliceCluster(w, g);
      Matrix ztz = xi.Transposed().Multiply(xi);
      sink += ztz(0, 0);
    }
    benchmark::DoNotOptimize(sink);
  }
}

void BM_ClusterGram_Factorized(benchmark::State& state) {
  const Workload& w = WorkloadFor(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    double sink = 0.0;
    ForEachClusterGram(w.sm.fm, w.cols,
                       [&](const ClusterData& data) { sink += (*data.gram)(0, 0); });
    benchmark::DoNotOptimize(sink);
  }
}

// Cluster left multiplication D_i · X_i: streamed as Z_i^T r_i.
void BM_ClusterLeft_Dense(benchmark::State& state) {
  const Workload& w = WorkloadFor(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    double sink = 0.0;
    for (size_t g = 0; g + 1 < w.cluster_begin.size(); ++g) {
      Matrix xi = SliceCluster(w, g);
      std::vector<double> ri(w.r.begin() + w.cluster_begin[g],
                             w.r.begin() + w.cluster_begin[g + 1]);
      Matrix ztr = Matrix::RowVector(ri).Multiply(xi);
      sink += ztr(0, 0);
    }
    benchmark::DoNotOptimize(sink);
  }
}

// Factorised: r's running prefix, then every cluster's Z_i^T r_i off the
// table — the per-iteration work of the EM's E-step.
void BM_ClusterLeft_Factorized(benchmark::State& state) {
  const Workload& w = WorkloadFor(static_cast<int>(state.range(0)));
  std::vector<double> prefix;
  Matrix ztr(static_cast<size_t>(w.table.num_clusters()), w.cols.size());
  for (auto _ : state) {
    RunningPrefix(w.r, &prefix);
    ClusterLeftMultiply(w.sm.fm, w.table, w.r, prefix, &ztr);
    benchmark::DoNotOptimize(ztr.mutable_data().data());
    benchmark::ClobberMemory();
  }
}

void BM_ClusterRight_Dense(benchmark::State& state) {
  const Workload& w = WorkloadFor(static_cast<int>(state.range(0)));
  std::vector<double> out(static_cast<size_t>(w.sm.fm.num_rows()));
  for (auto _ : state) {
    for (size_t g = 0; g + 1 < w.cluster_begin.size(); ++g) {
      Matrix xi = SliceCluster(w, g);
      Matrix bi(w.cols.size(), 1);
      for (size_t c = 0; c < w.cols.size(); ++c) bi(c, 0) = w.b(g, c);
      Matrix product = xi.Multiply(bi);
      for (size_t i = 0; i < product.rows(); ++i) {
        out[static_cast<size_t>(w.cluster_begin[g]) + i] = product(i, 0);
      }
    }
    benchmark::DoNotOptimize(out);
  }
}

void BM_ClusterRight_Factorized(benchmark::State& state) {
  const Workload& w = WorkloadFor(static_cast<int>(state.range(0)));
  std::vector<double> out(static_cast<size_t>(w.sm.fm.num_rows()));
  for (auto _ : state) {
    ClusterRightMultiply(w.sm.fm, w.table, w.b, &out);
    benchmark::DoNotOptimize(out);
  }
}

void RegisterAll() {
  int max_d = static_cast<int>(EnvInt("REPTILE_FIG15_MAX_D", 5));
  auto add = [&](const char* name, void (*fn)(benchmark::State&)) {
    benchmark::RegisterBenchmark(name, fn)
        ->DenseRange(1, max_d)
        ->Unit(benchmark::kMillisecond)
        ->MinTime(0.05);
  };
  add("Fig15/ClusterGram/Dense", BM_ClusterGram_Dense);
  add("Fig15/ClusterGram/Factorized", BM_ClusterGram_Factorized);
  add("Fig15/ClusterLeft/Dense", BM_ClusterLeft_Dense);
  add("Fig15/ClusterLeft/Factorized", BM_ClusterLeft_Factorized);
  add("Fig15/ClusterRight/Dense", BM_ClusterRight_Dense);
  add("Fig15/ClusterRight/Factorized", BM_ClusterRight_Factorized);
}

}  // namespace
}  // namespace reptile

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  reptile::RegisterAll();
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
