#include "sim/workload.h"

#include <memory>
#include <utility>

#include "common/check.h"
#include "common/hashing.h"
#include "sim/event_queue.h"

namespace reptile {

ScenarioSpec SteadyScenario() {
  ScenarioSpec spec;
  spec.name = "steady";
  spec.arrivals = ScenarioSpec::Arrivals::kPoisson;
  spec.poisson_rate_per_second = 6.0;
  spec.arrival_window_seconds = 2.0;
  spec.session.min_ops = 2;
  spec.session.max_ops = 5;
  spec.session.mean_think_seconds = 0.15;
  spec.session.max_commits = 1;
  return spec;
}

ScenarioSpec BurstScenario() {
  ScenarioSpec spec;
  spec.name = "burst";
  spec.arrivals = ScenarioSpec::Arrivals::kMmpp;
  spec.mmpp.calm_rate_per_second = 5.0;
  spec.mmpp.burst_rate_per_second = 400.0;
  spec.mmpp.mean_calm_seconds = 0.5;
  spec.mmpp.mean_burst_seconds = 0.6;
  spec.arrival_window_seconds = 2.0;
  spec.max_sessions = 600;  // bound the worst-case burst draw
  // Stateless storms: no commits, no think time to speak of — the point is
  // to slam the admission layer, not to model a considerate analyst.
  spec.session.min_ops = 1;
  spec.session.max_ops = 3;
  spec.session.mean_think_seconds = 0.002;
  spec.session.max_commits = 0;
  // A deliberately heavy panel (~123k rows vs the steady default's ~2k):
  // per-request service time has to be able to outrun --queue-deadline-ms,
  // or the shed path could never engage no matter how hard arrivals burst.
  // Warm recommends read cached group statistics, not rows, so the requests
  // that outrun it are the views, which group the rows they filter.
  spec.panel.villages_per_district = 24;
  spec.panel.rows_per_group = 64;
  return spec;
}

ScenarioSpec ChurnScenario() {
  ScenarioSpec spec;
  spec.name = "churn";
  spec.arrivals = ScenarioSpec::Arrivals::kPoisson;
  spec.poisson_rate_per_second = 4.0;
  spec.arrival_window_seconds = 2.0;
  spec.session.min_ops = 2;
  spec.session.max_ops = 4;
  spec.session.mean_think_seconds = 0.15;
  spec.session.max_commits = 1;
  // Every analyst pins version 1 explicitly: the run proves appends move the
  // head without moving anyone's session. The feeder itself probes each new
  // head with its own short-lived sessions.
  spec.session.dataset_ref = "@DS@@v1";
  spec.feeder_appends = 2;
  return spec;
}

std::vector<ScheduledOp> BuildSchedule(const ScenarioSpec& spec, uint64_t seed) {
  REPTILE_CHECK(spec.arrival_window_seconds > 0.0)
      << "scenario wants a positive arrival window";
  Rng root(seed);
  std::unique_ptr<ArrivalProcess> arrivals;
  if (spec.arrivals == ScenarioSpec::Arrivals::kPoisson) {
    arrivals = std::make_unique<PoissonArrivals>(spec.poisson_rate_per_second,
                                                 root.Stream(1));
  } else {
    arrivals = std::make_unique<MmppArrivals>(spec.mmpp, root.Stream(2),
                                              root.Stream(1));
  }

  const int64_t window_ns =
      static_cast<int64_t>(spec.arrival_window_seconds * 1e9);
  SimEventQueue<SimOp> queue;
  int session_index = 0;
  if (spec.feeder_appends > 0) {
    // Session 0 is the deterministic append feeder; it draws no Rng streams,
    // so analyst chains (index >= 1) keep their usual sub-streams and adding
    // the feeder never re-times anyone.
    FeederParams feeder;
    feeder.appends = spec.feeder_appends;
    feeder.window_ns = window_ns;
    feeder.top_k = spec.session.top_k;
    SessionChain chain = BuildFeederChain(feeder);
    for (size_t i = 0; i < chain.ops.size(); ++i) {
      queue.Push(chain.offsets_ns[i], std::move(chain.ops[i]));
    }
    session_index = 1;
  }
  for (;;) {
    if (spec.max_sessions > 0 && session_index >= spec.max_sessions) break;
    int64_t arrival_ns = arrivals->NextNs();
    if (arrival_ns > window_ns) break;
    SessionChain chain = BuildSessionChain(root, session_index, spec.session);
    for (size_t i = 0; i < chain.ops.size(); ++i) {
      queue.Push(arrival_ns + chain.offsets_ns[i], std::move(chain.ops[i]));
    }
    ++session_index;
  }

  std::vector<ScheduledOp> schedule;
  schedule.reserve(queue.size());
  while (!queue.empty()) {
    auto event = queue.Pop();
    schedule.push_back(ScheduledOp{event.time_ns, event.seq, std::move(event.payload)});
  }
  return schedule;
}

std::string DumpSchedule(const ScenarioSpec& spec, uint64_t seed,
                         const std::vector<ScheduledOp>& schedule) {
  int sessions = 0;
  for (const ScheduledOp& item : schedule) {
    if (item.op.session_index + 1 > sessions) sessions = item.op.session_index + 1;
  }
  std::string out = "# reptile workload schedule\n";
  out += "# scenario=" + spec.name + " seed=" + std::to_string(seed) +
         " ops=" + std::to_string(schedule.size()) +
         " sessions=" + std::to_string(sessions) + "\n";
  out += "# time_ns\tseq\tsession\tkind\tmethod\tpath\tbody\n";
  for (const ScheduledOp& item : schedule) {
    out += std::to_string(item.time_ns);
    out += '\t';
    out += std::to_string(item.seq);
    out += '\t';
    out += std::to_string(item.op.session_index);
    out += '\t';
    out += SimOpKindName(item.op.kind);
    out += '\t';
    out += item.op.method;
    out += '\t';
    out += item.op.path;
    out += '\t';
    out += item.op.body;  // single-line JSON; never contains a tab or newline
    out += '\n';
  }
  return out;
}

std::string ScheduleDigest(const ScenarioSpec& spec, uint64_t seed,
                           const std::vector<ScheduledOp>& schedule) {
  Fnv1aHasher hasher;
  hasher.MixString(DumpSchedule(spec, seed, schedule));
  return hasher.Hex();
}

}  // namespace reptile
