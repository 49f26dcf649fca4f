#include "api/model_spec.h"

#include <cmath>
#include <sstream>

namespace reptile {

ModelSpec& ModelSpec::With(Kind k) {
  kind = k;
  return *this;
}

ModelSpec& ModelSpec::With(Backend b) {
  backend = b;
  return *this;
}

ModelSpec& ModelSpec::With(RandomPolicy p) {
  random_effects = p;
  return *this;
}

ModelSpec& ModelSpec::EmIterations(int iters) {
  em_iterations = iters;
  return *this;
}

ModelSpec& ModelSpec::EmTolerance(double tolerance) {
  em_tolerance = tolerance;
  return *this;
}

ModelSpec& ModelSpec::FitCache(bool use) {
  fit_cache = use;
  return *this;
}

ModelSpec& ModelSpec::RepairAlso(AggFn statistic) {
  extra_repair_stats.push_back(statistic);
  return *this;
}

Status ModelSpec::Validate() const {
  if (em_iterations <= 0) {
    return Status::InvalidArgument("model em_iterations must be positive, got " +
                                   std::to_string(em_iterations));
  }
  if (!(em_tolerance >= 0.0) || !std::isfinite(em_tolerance)) {
    return Status::InvalidArgument("model em_tolerance must be finite and >= 0");
  }
  return Status::Ok();
}

std::string ModelSpec::CacheKey() const {
  // hexfloat is an exact (lossless) double encoding: two tolerances collide
  // on a key only when they are the same value. The format only has to be
  // deterministic, not pretty — keys never leave the process.
  std::ostringstream os;
  os << KindName(kind) << ',' << BackendName(backend) << ",re"
     << RandomPolicyName(random_effects) << ",it" << em_iterations << ",tol"
     << std::hexfloat << em_tolerance;
  return os.str();
}

const char* ModelSpec::KindName(Kind kind) {
  switch (kind) {
    case Kind::kMultiLevel:
      return "multilevel";
    case Kind::kLinear:
      return "linear";
  }
  return "multilevel";
}

const char* ModelSpec::BackendName(Backend backend) {
  switch (backend) {
    case Backend::kAuto:
      return "auto";
    case Backend::kFactorized:
      return "factorized";
    case Backend::kDense:
      return "dense";
  }
  return "auto";
}

const char* ModelSpec::RandomPolicyName(RandomPolicy policy) {
  switch (policy) {
    case RandomPolicy::kIntercepts:
      return "intercepts";
    case RandomPolicy::kAll:
      return "all";
  }
  return "intercepts";
}

std::optional<ModelSpec::Kind> ModelSpec::ParseKind(const std::string& name) {
  if (name == "multilevel") return Kind::kMultiLevel;
  if (name == "linear") return Kind::kLinear;
  return std::nullopt;
}

std::optional<ModelSpec::Backend> ModelSpec::ParseBackend(const std::string& name) {
  if (name == "auto") return Backend::kAuto;
  if (name == "factorized") return Backend::kFactorized;
  if (name == "dense") return Backend::kDense;
  return std::nullopt;
}

std::optional<ModelSpec::RandomPolicy> ModelSpec::ParseRandomPolicy(const std::string& name) {
  if (name == "intercepts") return RandomPolicy::kIntercepts;
  if (name == "all") return RandomPolicy::kAll;
  return std::nullopt;
}

}  // namespace reptile
