#include "api/request.h"

#include <sstream>
#include <utility>

#include "core/engine.h"

namespace reptile {
namespace {

Status UnknownOption(const std::string& knob, const std::string& value,
                     const std::string& expected) {
  return Status::InvalidArgument("unknown " + knob + " '" + value + "' (expected one of " +
                                 expected + ")");
}

}  // namespace

ComplaintSpec ComplaintSpec::TooHigh(std::string aggregate, std::string measure) {
  ComplaintSpec spec;
  spec.aggregate = std::move(aggregate);
  spec.measure = std::move(measure);
  spec.direction = "too_high";
  return spec;
}

ComplaintSpec ComplaintSpec::TooLow(std::string aggregate, std::string measure) {
  ComplaintSpec spec = TooHigh(std::move(aggregate), std::move(measure));
  spec.direction = "too_low";
  return spec;
}

ComplaintSpec ComplaintSpec::Equals(std::string aggregate, std::string measure, double target) {
  ComplaintSpec spec = TooHigh(std::move(aggregate), std::move(measure));
  spec.direction = "equals";
  spec.target = target;
  return spec;
}

ComplaintSpec& ComplaintSpec::Where(std::string column, std::string value) {
  where.push_back(NamedPredicate{std::move(column), std::move(value)});
  return *this;
}

Result<Complaint> ComplaintSpec::Resolve(const Dataset& dataset) const {
  ComplaintDirection dir;
  if (direction == "too_high") {
    dir = ComplaintDirection::kTooHigh;
  } else if (direction == "too_low") {
    dir = ComplaintDirection::kTooLow;
  } else if (direction == "equals") {
    dir = ComplaintDirection::kEquals;
  } else {
    return UnknownOption("complaint direction", direction, "too_high, too_low, equals");
  }
  return ResolveComplaint(dataset, aggregate, measure, where, dir, target);
}

std::string ComplaintSpec::Describe() const {
  std::ostringstream os;
  os << aggregate;
  if (!measure.empty()) os << "(" << measure << ")";
  if (!where.empty()) {
    os << " where ";
    for (size_t i = 0; i < where.size(); ++i) {
      if (i > 0) os << ", ";
      os << where[i].column << "=" << where[i].value;
    }
  }
  if (direction == "too_high") {
    os << " is too high";
  } else if (direction == "too_low") {
    os << " is too low";
  } else if (direction == "equals") {
    os << " should be " << target;
  } else {
    os << " (invalid direction '" << direction << "')";
  }
  return os.str();
}

ViewRequest& ViewRequest::GroupBy(std::string column) {
  group_by.push_back(std::move(column));
  return *this;
}

ViewRequest& ViewRequest::Measure(std::string column) {
  measure = std::move(column);
  return *this;
}

ViewRequest& ViewRequest::Where(std::string column, std::string value) {
  where.push_back(NamedPredicate{std::move(column), std::move(value)});
  return *this;
}

ExploreRequest& ExploreRequest::TopK(int k) {
  top_k = k;
  return *this;
}

ExploreRequest& ExploreRequest::Model(ModelSpec spec) {
  model = std::move(spec);
  return *this;
}

ExploreRequest& ExploreRequest::Threads(int n) {
  num_threads = n;
  return *this;
}

BatchOptions& BatchOptions::Threads(int n) {
  num_threads = n;
  return *this;
}

BatchOptions& BatchOptions::TopK(int k) {
  top_k = k;
  return *this;
}

BatchOptions& BatchOptions::Model(ModelSpec spec) {
  model = std::move(spec);
  return *this;
}

BatchOptions& BatchOptions::WithTrace(TraceContext* t) {
  trace = t;
  return *this;
}

Result<EngineOptions> ExploreRequest::Resolve() const {
  if (top_k <= 0) {
    return Status::InvalidArgument("top_k must be positive, got " + std::to_string(top_k));
  }
  REPTILE_RETURN_IF_ERROR(model.Validate());
  if (num_threads < 0) {
    return Status::InvalidArgument("num_threads must be >= 0 (0 = hardware concurrency), got " +
                                   std::to_string(num_threads));
  }
  EngineOptions options;
  options.top_k = top_k;
  options.model = model;
  options.num_threads = num_threads;
  return options;
}

}  // namespace reptile
