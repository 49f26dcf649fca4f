// Declarative, name-based request model of the public API.
//
// Clients describe what they want — a complaint over column *names*, a view,
// an auxiliary dataset, session-level exploration options — with fluent
// builders; the session validates every name and value and resolves the
// request to the internal Complaint / EngineOptions types. Nothing here
// aborts: all invalid input comes back as a non-OK Status.

#ifndef REPTILE_API_REQUEST_H_
#define REPTILE_API_REQUEST_H_

#include <optional>
#include <string>
#include <vector>

#include "api/model_spec.h"
#include "api/status.h"
#include "core/complaint.h"
#include "data/table.h"

namespace reptile {

struct EngineOptions;  // core/engine.h; resolved type, completed in request.cpp
class TraceContext;    // obs/trace.h; per-request stage-span recorder

/// A complaint built from names: "the MEAN of severity where district=Ofla
/// and year=1986 is too high". Resolved and validated against the session's
/// dataset by Resolve().
struct ComplaintSpec {
  std::string aggregate;               // "count" | "sum" | "mean" | "std" | "var"
  std::string measure;                 // measure column name; empty for pure COUNT
  std::vector<NamedPredicate> where;   // complaint tuple coordinates, by name
  std::string direction = "too_high";  // "too_high" | "too_low" | "equals"
  double target = 0.0;                 // expected value, for "equals"

  static ComplaintSpec TooHigh(std::string aggregate, std::string measure = std::string());
  static ComplaintSpec TooLow(std::string aggregate, std::string measure = std::string());
  static ComplaintSpec Equals(std::string aggregate, std::string measure, double target);

  /// Adds an equality predicate; returns *this for chaining.
  ComplaintSpec& Where(std::string column, std::string value);

  /// Validates every name/value against the dataset and resolves to the
  /// internal complaint. Unknown columns or values, mistyped columns, an
  /// unknown aggregate or direction, and a non-finite EQUALS target all
  /// return a non-OK Status.
  Result<Complaint> Resolve(const Dataset& dataset) const;

  /// One-line human-readable description, e.g.
  /// "MEAN(severity) where district=Ofla, year=1986 is too high".
  std::string Describe() const;
};

/// An aggregate view request: group-by columns, an optional measure, and a
/// conjunctive filter, all by name.
struct ViewRequest {
  std::vector<std::string> group_by;
  std::string measure;                // empty = COUNT only
  std::vector<NamedPredicate> where;

  ViewRequest& GroupBy(std::string column);
  ViewRequest& Measure(std::string column);
  ViewRequest& Where(std::string column, std::string value);
};

/// Registration of an auxiliary dataset (paper §3.3.2): the session copies
/// the table in and keeps it alive, exposing `measure` as a feature once
/// every join attribute is part of the drill-down.
struct AuxiliaryRequest {
  std::string name;
  Table table;
  std::vector<std::string> join_attributes;  // hierarchy attribute names
  std::string measure;                       // measure column in `table`
  bool normalize = true;
};

/// Session-level exploration options; resolved to the internal
/// EngineOptions when the session is created.
struct ExploreRequest {
  int top_k = 5;
  // How the session's models are trained: family, backend, random-effect
  // policy, EM caps, extra repair primitives and the fit-cache opt-out.
  ModelSpec model;
  // Worker threads for each Recommend/RecommendAll call: 0 = hardware
  // concurrency, 1 = sequential. Every width above 1 runs on the
  // process-wide shared compute pool, so no value starts threads of its
  // own. Recommendations are identical at every setting; only timings
  // change.
  int num_threads = 0;

  ExploreRequest& TopK(int k);
  ExploreRequest& Model(ModelSpec spec);
  ExploreRequest& Threads(int n);

  /// Validates every knob and resolves to the internal engine options.
  Result<EngineOptions> Resolve() const;
};

/// Per-call overrides for one Recommend/RecommendAll invocation, distinct
/// from the session-construction ExploreRequest: zero-valued fields inherit
/// the session's options. Overrides apply to that call only and never alter
/// the session state.
struct BatchOptions {
  int num_threads = 0;  // 0 = session option; 1 = force sequential
  int top_k = 0;        // 0 = session option
  // Complete per-call model configuration (the wire's `options.model`):
  // disengaged inherits the session's; engaged REPLACES it wholesale for
  // this call, every field included.
  std::optional<ModelSpec> model;
  // Per-request trace (obs/trace.h): when set, this call records
  // validate/plan/fit/rank stage spans onto it — the HTTP layer threads the
  // request's TraceContext through here. Borrowed for the call; nullptr
  // (the default) records nothing.
  TraceContext* trace = nullptr;

  BatchOptions& Threads(int n);
  BatchOptions& TopK(int k);
  BatchOptions& Model(ModelSpec spec);
  /// Attaches the per-request trace context (see the field comment).
  BatchOptions& WithTrace(TraceContext* t);
};

}  // namespace reptile

#endif  // REPTILE_API_REQUEST_H_
