// Tests for the workload simulator (src/sim/): discrete-event queue
// ordering, seeded arrival processes (Poisson, MMPP), session-chain
// generation on decoupled Rng streams, schedule determinism (the
// same-seed-same-bytes contract check.sh re-proves end to end), the
// byte-golden oracle, the admission token bucket on a manual clock, and an
// in-process open-loop replay of the steady scenario that must validate
// every response byte.

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "common/rng.h"
#include "data/csv.h"
#include "datagen/panel_gen.h"
#include "gtest/gtest.h"
#include "net/reactor_server.h"
#include "net/token_bucket.h"
#include "server/service.h"
#include "sim/arrival.h"
#include "sim/event_queue.h"
#include "sim/open_loop_runner.h"
#include "sim/oracle.h"
#include "sim/session_model.h"
#include "sim/workload.h"

namespace reptile {
namespace {

// --- Event queue ------------------------------------------------------------

TEST(SimEventQueueTest, PopsByTimeThenInsertionOrder) {
  SimEventQueue<int> queue;
  queue.Push(30, 0);
  queue.Push(10, 1);
  queue.Push(20, 2);
  queue.Push(10, 3);  // same instant as payload 1, inserted later
  queue.Push(10, 4);

  std::vector<int> order;
  std::vector<int64_t> times;
  while (!queue.empty()) {
    auto event = queue.Pop();
    order.push_back(event.payload);
    times.push_back(event.time_ns);
  }
  EXPECT_EQ(order, (std::vector<int>{1, 3, 4, 2, 0}));
  EXPECT_TRUE(std::is_sorted(times.begin(), times.end()));
}

// --- Exponential draws ------------------------------------------------------

TEST(RngExponentialTest, DeterministicPositiveAndRoughlyMean) {
  Rng a(7, 3), b(7, 3);
  double sum = 0.0;
  for (int i = 0; i < 4000; ++i) {
    double draw = a.Exponential(0.25);
    EXPECT_GT(draw, 0.0);
    EXPECT_EQ(draw, b.Exponential(0.25));
    sum += draw;
  }
  // Loose 3-sigma-ish band: the point is "right distribution", not a
  // statistical test.
  EXPECT_NEAR(sum / 4000.0, 0.25, 0.05);
}

// --- Arrival processes ------------------------------------------------------

TEST(ArrivalTest, PoissonSameSeedSameSchedule) {
  Rng root(99);
  PoissonArrivals a(20.0, root.Stream(1));
  PoissonArrivals b(20.0, root.Stream(1));
  int64_t last = 0;
  for (int i = 0; i < 200; ++i) {
    int64_t next = a.NextNs();
    EXPECT_EQ(next, b.NextNs());
    EXPECT_GT(next, last);  // strictly increasing, never a zero gap
    last = next;
  }
}

TEST(ArrivalTest, PoissonDifferentStreamsDecorrelated) {
  Rng root(99);
  PoissonArrivals a(20.0, root.Stream(1));
  PoissonArrivals b(20.0, root.Stream(5));
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.NextNs() == b.NextNs()) ++same;
  }
  EXPECT_LT(same, 5);
}

TEST(ArrivalTest, MmppDeterministicIncreasingAndVisitsBothStates) {
  MmppArrivals::Params params;
  params.calm_rate_per_second = 5.0;
  params.burst_rate_per_second = 400.0;
  params.mean_calm_seconds = 0.5;
  params.mean_burst_seconds = 0.5;
  Rng root(1234);
  MmppArrivals a(params, root.Stream(2), root.Stream(1));
  MmppArrivals b(params, root.Stream(2), root.Stream(1));
  bool saw_calm = false, saw_burst = false;
  int64_t last = 0;
  for (int i = 0; i < 2000; ++i) {
    int64_t next = a.NextNs();
    EXPECT_EQ(next, b.NextNs());
    EXPECT_GT(next, last);
    last = next;
    (a.in_burst() ? saw_burst : saw_calm) = true;
  }
  EXPECT_TRUE(saw_calm);
  EXPECT_TRUE(saw_burst);
  // 2000 arrivals at a 5/400 blend should take well under a minute of
  // virtual time — sanity that rates are interpreted as per-second.
  EXPECT_LT(last, int64_t{60} * 1000000000);
}

// --- Session chains ---------------------------------------------------------

TEST(SessionModelTest, ChainShapeAndDeterminism) {
  Rng root(42);
  SessionModelParams params;
  SessionChain chain = BuildSessionChain(root, 3, params);
  SessionChain again = BuildSessionChain(root, 3, params);

  ASSERT_EQ(chain.ops.size(), again.ops.size());
  ASSERT_EQ(chain.ops.size(), chain.offsets_ns.size());
  ASSERT_GE(chain.ops.size(), static_cast<size_t>(2 + params.min_ops));
  EXPECT_EQ(chain.ops.front().kind, SimOpKind::kSessionCreate);
  EXPECT_EQ(chain.ops.back().kind, SimOpKind::kSessionDelete);
  EXPECT_EQ(chain.ops[chain.ops.size() - 2].kind, SimOpKind::kSessionGet);
  for (size_t i = 0; i < chain.ops.size(); ++i) {
    EXPECT_EQ(chain.ops[i].session_index, 3);
    EXPECT_EQ(chain.ops[i].body, again.ops[i].body);
    EXPECT_EQ(chain.offsets_ns[i], again.offsets_ns[i]);
    if (i > 0) {
      EXPECT_GT(chain.offsets_ns[i], chain.offsets_ns[i - 1]);
    }
  }
}

TEST(SessionModelTest, ThinkTimeStreamDoesNotRetimeTheOpMix) {
  // Think-time and op-mix draws live on separate sub-streams: changing the
  // think-time parameter must shift WHEN ops fire but never WHICH ops they
  // are — the decorrelation that makes scenario tuning safe.
  Rng root(42);
  SessionModelParams slow, fast;
  slow.mean_think_seconds = 1.0;
  fast.mean_think_seconds = 0.001;
  SessionChain a = BuildSessionChain(root, 0, slow);
  SessionChain b = BuildSessionChain(root, 0, fast);
  ASSERT_EQ(a.ops.size(), b.ops.size());
  for (size_t i = 0; i < a.ops.size(); ++i) {
    EXPECT_EQ(a.ops[i].kind, b.ops[i].kind);
    EXPECT_EQ(a.ops[i].body, b.ops[i].body);
  }
  EXPECT_GT(a.offsets_ns.back(), b.offsets_ns.back());
}

TEST(SessionModelTest, MaxCommitsZeroMeansNoCommits) {
  Rng root(7);
  SessionModelParams params;
  params.max_commits = 0;
  params.min_ops = 8;
  params.max_ops = 8;
  for (int session = 0; session < 20; ++session) {
    SessionChain chain = BuildSessionChain(root, session, params);
    for (const SimOp& op : chain.ops) {
      EXPECT_NE(op.kind, SimOpKind::kCommit);
    }
  }
}

// --- Schedules --------------------------------------------------------------

TEST(WorkloadTest, SameSeedByteIdenticalScheduleDump) {
  for (const ScenarioSpec& spec : {SteadyScenario(), BurstScenario(), ChurnScenario()}) {
    std::vector<ScheduledOp> a = BuildSchedule(spec, 42);
    std::vector<ScheduledOp> b = BuildSchedule(spec, 42);
    ASSERT_FALSE(a.empty());
    EXPECT_EQ(DumpSchedule(spec, 42, a), DumpSchedule(spec, 42, b));
    EXPECT_EQ(ScheduleDigest(spec, 42, a), ScheduleDigest(spec, 42, b));
    EXPECT_EQ(ScheduleDigest(spec, 42, a).size(), size_t{16});

    std::vector<ScheduledOp> other = BuildSchedule(spec, 43);
    EXPECT_NE(DumpSchedule(spec, 42, a), DumpSchedule(spec, 43, other));
  }
}

TEST(WorkloadTest, ScheduleGloballyOrderedAndPerSessionInChainOrder) {
  ScenarioSpec spec = SteadyScenario();
  std::vector<ScheduledOp> schedule = BuildSchedule(spec, 7);
  ASSERT_FALSE(schedule.empty());

  std::map<int, std::vector<SimOpKind>> per_session;
  for (size_t i = 0; i < schedule.size(); ++i) {
    if (i > 0) {
      const ScheduledOp& prev = schedule[i - 1];
      EXPECT_TRUE(prev.time_ns < schedule[i].time_ns ||
                  (prev.time_ns == schedule[i].time_ns && prev.seq < schedule[i].seq));
    }
    per_session[schedule[i].op.session_index].push_back(schedule[i].op.kind);
  }
  for (const auto& [session, kinds] : per_session) {
    EXPECT_EQ(kinds.front(), SimOpKind::kSessionCreate) << "session " << session;
    EXPECT_EQ(kinds.back(), SimOpKind::kSessionDelete) << "session " << session;
    EXPECT_EQ(std::count(kinds.begin(), kinds.end(), SimOpKind::kSessionCreate), 1);
    EXPECT_EQ(std::count(kinds.begin(), kinds.end(), SimOpKind::kSessionDelete), 1);
  }
}

TEST(WorkloadTest, ChurnScheduleInterleavesFeederWritesWithPinnedAnalysts) {
  ScenarioSpec spec = ChurnScenario();
  std::vector<ScheduledOp> schedule = BuildSchedule(spec, 42);
  ASSERT_FALSE(schedule.empty());

  int appends = 0;
  std::vector<int64_t> feeder_pins;
  bool analyst_seen = false;
  for (const ScheduledOp& item : schedule) {
    const SimOp& op = item.op;
    if (op.kind == SimOpKind::kAppend) {
      ++appends;
      EXPECT_EQ(op.session_index, 0);
      EXPECT_EQ(op.method, "POST");
      EXPECT_EQ(op.path, "/v1/datasets/@DS@/rows");
      EXPECT_NE(op.body.find("\"csv\":"), std::string::npos);
      EXPECT_NE(op.append_csv.find("district,village,year,severity\n"),
                std::string::npos);
    } else if (op.kind == SimOpKind::kSessionCreate) {
      if (op.session_index == 0) {
        feeder_pins.push_back(op.pin_version);
      } else {
        analyst_seen = true;
        // Every analyst pins version 1 — the isolation half of the scenario.
        EXPECT_EQ(op.pin_version, 1);
        EXPECT_NE(op.body.find("\"dataset\":\"@DS@@v1\""), std::string::npos);
      }
    }
  }
  EXPECT_EQ(appends, spec.feeder_appends);
  // The feeder pins v1 (the guard), then each new head as it creates it.
  ASSERT_EQ(feeder_pins.size(), static_cast<size_t>(1 + spec.feeder_appends));
  EXPECT_EQ(feeder_pins[0], 1);
  for (int k = 1; k <= spec.feeder_appends; ++k) {
    EXPECT_EQ(feeder_pins[static_cast<size_t>(k)], k + 1);
  }
  EXPECT_TRUE(analyst_seen);
}

TEST(WorkloadTest, BurstScenarioRespectsSessionCap) {
  ScenarioSpec spec = BurstScenario();
  spec.max_sessions = 10;
  std::vector<ScheduledOp> schedule = BuildSchedule(spec, 42);
  std::set<int> sessions;
  for (const ScheduledOp& item : schedule) sessions.insert(item.op.session_index);
  EXPECT_LE(sessions.size(), size_t{10});
}

// --- Oracle -----------------------------------------------------------------

TEST(OracleTest, RenderTableCsvRoundTripsBitExactly) {
  PanelSpec panel;
  panel.districts = 3;
  panel.villages_per_district = 2;
  panel.years = 3;
  panel.rows_per_group = 2;
  Dataset dataset = MakeSeverityPanel(panel);
  const Table& table = dataset.table();

  CsvSpec spec;
  spec.dimension_columns = {"district", "village", "year"};
  spec.measure_columns = {"severity"};
  CsvStreamParser parser(spec, "inline csv");
  ASSERT_TRUE(parser.Feed(RenderTableCsv(table)));
  Result<Table> parsed = parser.Finish();
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();

  ASSERT_EQ(parsed->num_rows(), table.num_rows());
  ASSERT_EQ(parsed->num_columns(), table.num_columns());
  for (int c = 0; c < table.num_columns(); ++c) {
    for (size_t row = 0; row < table.num_rows(); ++row) {
      if (table.is_dimension(c)) {
        EXPECT_EQ(parsed->dict(c).name(parsed->dim_codes(c)[row]),
                  table.dict(c).name(table.dim_codes(c)[row]));
      } else {
        // Bit-exact: %.17g + strtod round-trips every finite double.
        EXPECT_EQ(parsed->measure(c)[row], table.measure(c)[row]);
      }
    }
  }
}

TEST(OracleTest, ExpectedResponsesDeterministicAndShaped) {
  ScenarioSpec spec = SteadyScenario();
  spec.arrival_window_seconds = 0.5;
  std::vector<ScheduledOp> schedule = BuildSchedule(spec, 11);
  ASSERT_FALSE(schedule.empty());

  WorkloadOracle a{SimDatasetSpec{}};
  WorkloadOracle b{SimDatasetSpec{}};
  EXPECT_EQ(a.upload_body(), b.upload_body());
  EXPECT_EQ(a.upload_response(), b.upload_response());

  std::vector<ExpectedResponse> ea = a.ExpectedResponses(schedule);
  std::vector<ExpectedResponse> eb = b.ExpectedResponses(schedule);
  ASSERT_EQ(ea.size(), schedule.size());
  ASSERT_EQ(ea.size(), eb.size());
  for (size_t i = 0; i < ea.size(); ++i) {
    EXPECT_EQ(ea[i].status, eb[i].status);
    EXPECT_EQ(ea[i].body, eb[i].body);
    if (schedule[i].op.kind == SimOpKind::kSessionCreate) {
      EXPECT_EQ(ea[i].status, 201);
      EXPECT_NE(ea[i].body.find("\"session\":\"@SID@\""), std::string::npos);
    } else {
      EXPECT_EQ(ea[i].status, 200);
    }
  }
}

// --- Token bucket (manual clock) --------------------------------------------

TEST(TokenBucketTest, BurstThenSustainedRate) {
  TokenBucket bucket(/*rate_per_second=*/1.0, /*burst=*/3.0);
  double retry_after = -1.0;
  // The bucket starts full: the whole burst is admitted back-to-back.
  for (int i = 0; i < 3; ++i) {
    EXPECT_TRUE(bucket.TryAcquireAt(0.0, &retry_after));
    EXPECT_EQ(retry_after, 0.0);
  }
  // Empty now; the refusal quotes the time until one token exists.
  EXPECT_FALSE(bucket.TryAcquireAt(0.0, &retry_after));
  EXPECT_NEAR(retry_after, 1.0, 1e-9);
  // Half a token at +0.5s: still refused, retry halves.
  EXPECT_FALSE(bucket.TryAcquireAt(0.5, &retry_after));
  EXPECT_NEAR(retry_after, 0.5, 1e-9);
  // A full second after the drain, exactly one request fits.
  EXPECT_TRUE(bucket.TryAcquireAt(1.0, &retry_after));
  EXPECT_FALSE(bucket.TryAcquireAt(1.0, &retry_after));
}

TEST(TokenBucketTest, RefillCapsAtBurstAndTimeNeverRunsBackwards) {
  TokenBucket bucket(/*rate_per_second=*/10.0, /*burst=*/2.0);
  double retry_after = 0.0;
  EXPECT_TRUE(bucket.TryAcquireAt(0.0, &retry_after));
  // A long idle stretch refills to the cap, not beyond it.
  EXPECT_TRUE(bucket.TryAcquireAt(100.0, &retry_after));
  EXPECT_TRUE(bucket.TryAcquireAt(100.0, &retry_after));
  EXPECT_FALSE(bucket.TryAcquireAt(100.0, &retry_after));
  // An out-of-order (earlier) timestamp must not mint tokens.
  EXPECT_FALSE(bucket.TryAcquireAt(99.0, &retry_after));
}

TEST(TokenBucketTest, DefaultBurstIsAtLeastOne) {
  TokenBucket bucket(/*rate_per_second=*/0.5, /*burst=*/0.0);
  EXPECT_GE(bucket.burst(), 1.0);
  double retry_after = 0.0;
  EXPECT_TRUE(bucket.TryAcquireAt(0.0, &retry_after));
  EXPECT_FALSE(bucket.TryAcquireAt(0.0, &retry_after));
}

// --- End-to-end open-loop replay -------------------------------------------

TEST(OpenLoopTest, SteadyScenarioValidatesEveryByteInProcess) {
  ReptileService service{ServiceOptions()};
  ReactorServerOptions options;
  options.num_threads = 4;
  ReactorServer server(options, [&service](const HttpRequest& request) {
    return service.Handle(request);
  });
  ASSERT_TRUE(server.Start().ok());

  ScenarioSpec spec = SteadyScenario();
  spec.arrival_window_seconds = 0.6;  // keep the replay's wall time test-sized
  const uint64_t seed = 5;
  std::vector<ScheduledOp> schedule = BuildSchedule(spec, seed);
  ASSERT_FALSE(schedule.empty());

  SimDatasetSpec dataset;
  dataset.name = "sim_steady_test";
  dataset.panel = spec.panel;
  WorkloadOracle oracle(dataset);
  std::vector<ExpectedResponse> expected = oracle.ExpectedResponses(schedule);

  RunnerOptions runner;
  runner.port = server.port();
  runner.workers = 4;
  ScenarioReport report = RunOpenLoop(runner, oracle, schedule, expected);
  server.Stop();

  EXPECT_EQ(report.scheduled_ops, static_cast<int64_t>(schedule.size()));
  EXPECT_EQ(report.sent, report.scheduled_ops);
  EXPECT_EQ(report.ok, report.scheduled_ops);
  EXPECT_EQ(report.mismatches, 0);
  EXPECT_EQ(report.failures, 0);
  EXPECT_EQ(report.timeouts, 0);
  EXPECT_EQ(report.skipped, 0);
  EXPECT_GT(report.wall_seconds, 0.0);
  EXPECT_GT(report.rps, 0.0);
  std::string json = report.ToJson();
  EXPECT_NE(json.find("\"p50_ms\":"), std::string::npos);
  EXPECT_NE(json.find("\"p999_ms\":"), std::string::npos);
  EXPECT_NE(json.find("\"mismatches\":0"), std::string::npos);
}

TEST(OpenLoopTest, ChurnScenarioAppendsMidRunAndStillValidatesEveryByte) {
  ReptileService service{ServiceOptions()};
  ReactorServerOptions options;
  options.num_threads = 4;
  ReactorServer server(options, [&service](const HttpRequest& request) {
    return service.Handle(request);
  });
  ASSERT_TRUE(server.Start().ok());

  ScenarioSpec spec = ChurnScenario();
  spec.arrival_window_seconds = 0.6;  // shrinks the feeder spacing too
  const uint64_t seed = 9;
  std::vector<ScheduledOp> schedule = BuildSchedule(spec, seed);
  ASSERT_FALSE(schedule.empty());
  int appends = 0;
  for (const ScheduledOp& item : schedule) {
    if (item.op.kind == SimOpKind::kAppend) ++appends;
  }
  ASSERT_EQ(appends, spec.feeder_appends);

  SimDatasetSpec dataset;
  dataset.name = "sim_churn_test";
  dataset.panel = spec.panel;
  WorkloadOracle oracle(dataset);
  std::vector<ExpectedResponse> expected = oracle.ExpectedResponses(schedule);

  RunnerOptions runner;
  runner.port = server.port();
  runner.workers = 4;
  ScenarioReport report = RunOpenLoop(runner, oracle, schedule, expected);
  server.Stop();

  // The hard part of this replay: two appends land mid-run, yet every
  // response — pinned-@v1 analysts AND the feeder's probes of v2/v3 — must
  // match the oracle byte for byte. A flushy cache, a moved session, or any
  // incremental-vs-cold build divergence all surface here as mismatches.
  EXPECT_EQ(report.sent, static_cast<int64_t>(schedule.size()));
  EXPECT_EQ(report.ok, report.sent);
  EXPECT_EQ(report.mismatches, 0);
  EXPECT_EQ(report.failures, 0);
  EXPECT_EQ(report.timeouts, 0);
  EXPECT_EQ(report.skipped, 0);
}

}  // namespace
}  // namespace reptile
