#include "sim/open_loop_runner.h"

#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <deque>
#include <map>
#include <mutex>
#include <thread>
#include <utility>

#include "common/check.h"
#include "obs/metrics.h"
#include "server/http_client.h"

namespace reptile {
namespace {

using Clock = std::chrono::steady_clock;

// Replaces every occurrence of `token` in `text`.
std::string Substitute(std::string text, const std::string& token,
                       const std::string& value) {
  size_t pos = 0;
  while ((pos = text.find(token, pos)) != std::string::npos) {
    text.replace(pos, token.size(), value);
    pos += value.size();
  }
  return text;
}

// Pulls the server-assigned id out of a session-create response
// ({"session":"s-N",...}); empty on malformed bodies.
std::string ExtractSessionId(const std::string& body) {
  constexpr const char kKey[] = "\"session\":\"";
  size_t pos = body.find(kKey);
  if (pos == std::string::npos) return std::string();
  pos += sizeof(kKey) - 1;
  size_t end = body.find('"', pos);
  if (end == std::string::npos) return std::string();
  return body.substr(pos, end - pos);
}

struct SessionState {
  std::deque<size_t> pending;  // schedule indices, in order
  std::string sid;
  bool busy = false;      // queued for or held by a worker
  bool skip = false;      // session create refused: drop the rest
  bool validate = true;   // false once server state diverged from the oracle
};

// Shared replay state: the dispatcher enqueues eligible ops per session,
// workers drain one session-op at a time.
struct Replay {
  std::mutex mu;
  std::condition_variable ready_cv;
  std::deque<int> ready;  // session indices with work and no op in flight
  std::map<int, SessionState> sessions;
  bool dispatch_done = false;
  int64_t outstanding = 0;  // enqueued but not finished

  // Counters (under mu).
  int64_t sent = 0, ok = 0, mismatches = 0, failures = 0;
  int64_t rate_limited = 0, shed = 0, timeouts = 0, skipped = 0;
  Clock::time_point last_completion;
  Histogram latency;
};

void FinishOp(Replay* replay, SessionState* state, int session_index) {
  state->pending.pop_front();
  if (!state->pending.empty()) {
    replay->ready.push_back(session_index);
    replay->ready_cv.notify_one();
  } else {
    state->busy = false;
  }
  --replay->outstanding;
  if (replay->outstanding == 0) replay->ready_cv.notify_all();
}

void WorkerLoop(const RunnerOptions& options, const WorkloadOracle& oracle,
                const std::vector<ScheduledOp>& schedule,
                const std::vector<ExpectedResponse>& expected,
                Clock::time_point start, Replay* replay) {
  HttpClient persistent(options.host, options.port);
  persistent.SetTimeoutMs(options.timeout_ms);
  std::unique_lock<std::mutex> lock(replay->mu);
  for (;;) {
    replay->ready_cv.wait(lock, [replay] {
      return !replay->ready.empty() ||
             (replay->dispatch_done && replay->outstanding == 0);
    });
    if (replay->ready.empty()) return;
    int session_index = replay->ready.front();
    replay->ready.pop_front();
    SessionState& state = replay->sessions[session_index];
    REPTILE_CHECK(!state.pending.empty());
    size_t index = state.pending.front();

    if (state.skip) {
      ++replay->skipped;
      FinishOp(replay, &state, session_index);
      continue;
    }

    const SimOp& op = schedule[index].op;
    std::string path = Substitute(
        Substitute(op.path, "@SID@", state.sid), "@DS@", oracle.dataset_name());
    std::string body = Substitute(
        Substitute(op.body, "@SID@", state.sid), "@DS@", oracle.dataset_name());
    lock.unlock();

    auto send = [&](HttpClient& client) -> Result<HttpClientResponse> {
      if (op.method == "GET") return client.Get(path);
      if (op.method == "DELETE") return client.Delete(path);
      return client.Post(path, body);
    };
    Result<HttpClientResponse> response =
        options.keep_alive ? send(persistent) : [&] {
          HttpClient one_shot(options.host, options.port);
          one_shot.SetTimeoutMs(options.timeout_ms);
          return send(one_shot);
        }();
    const Clock::time_point now = Clock::now();
    const double latency_seconds =
        std::chrono::duration<double>(
            now - (start + std::chrono::nanoseconds(schedule[index].time_ns)))
            .count();

    lock.lock();
    ++replay->sent;
    if (now > replay->last_completion) replay->last_completion = now;
    const bool mutates = op.kind == SimOpKind::kSessionCreate ||
                         op.kind == SimOpKind::kCommit ||
                         op.kind == SimOpKind::kSessionDelete ||
                         op.kind == SimOpKind::kAppend;
    if (!response.ok()) {
      if (response.status().code() == StatusCode::kDeadlineExceeded) {
        ++replay->timeouts;
      } else {
        ++replay->failures;
      }
      if (op.kind == SimOpKind::kSessionCreate) {
        state.skip = true;
      } else if (mutates) {
        // The op may or may not have applied server-side; either way the
        // oracle's replica can no longer be trusted for this session.
        state.validate = false;
      }
    } else if (response->status == 429 || response->status == 503) {
      replay->latency.Observe(latency_seconds);
      if (response->status == 429) {
        ++replay->rate_limited;
      } else {
        ++replay->shed;
      }
      // A refused op never applied: creates can't continue (no id), other
      // mutating refusals desync the oracle.
      if (op.kind == SimOpKind::kSessionCreate) {
        state.skip = true;
      } else if (mutates) {
        state.validate = false;
      }
    } else {
      replay->latency.Observe(latency_seconds);
      if (op.kind == SimOpKind::kSessionCreate) {
        state.sid = ExtractSessionId(response->body);
        if (state.sid.empty()) {
          ++replay->mismatches;
          state.skip = true;
          FinishOp(replay, &state, session_index);
          continue;
        }
      }
      const ExpectedResponse& golden = expected[index];
      bool matches = response->status == golden.status;
      if (matches && golden.validate_body && state.validate) {
        matches = response->body == Substitute(golden.body, "@SID@", state.sid);
      }
      if (matches) {
        ++replay->ok;
      } else {
        ++replay->mismatches;
      }
    }
    FinishOp(replay, &state, session_index);
  }
}

std::string JsonDouble(double value, const char* format) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), format, value);
  return buffer;
}

}  // namespace

std::string ScenarioReport::ToJson() const {
  std::string out = "{\"scenario\":\"" + scenario + "\"";
  out += ",\"seed\":" + std::to_string(seed);
  out += ",\"schedule_digest\":\"" + schedule_digest + "\"";
  out += ",\"scheduled_ops\":" + std::to_string(scheduled_ops);
  out += ",\"sent\":" + std::to_string(sent);
  out += ",\"ok\":" + std::to_string(ok);
  out += ",\"mismatches\":" + std::to_string(mismatches);
  out += ",\"failures\":" + std::to_string(failures);
  out += ",\"rate_limited_429\":" + std::to_string(rate_limited_429);
  out += ",\"shed_503\":" + std::to_string(shed_503);
  out += ",\"timeouts\":" + std::to_string(timeouts);
  out += ",\"skipped\":" + std::to_string(skipped);
  out += ",\"wall_seconds\":" + JsonDouble(wall_seconds, "%.3f");
  out += ",\"rps\":" + JsonDouble(rps, "%.1f");
  out += ",\"p50_ms\":" + JsonDouble(p50_ms, "%.3f");
  out += ",\"p90_ms\":" + JsonDouble(p90_ms, "%.3f");
  out += ",\"p99_ms\":" + JsonDouble(p99_ms, "%.3f");
  out += ",\"p999_ms\":" + JsonDouble(p999_ms, "%.3f");
  out += "}";
  return out;
}

ScenarioReport RunOpenLoop(const RunnerOptions& options, const WorkloadOracle& oracle,
                           const std::vector<ScheduledOp>& schedule,
                           const std::vector<ExpectedResponse>& expected) {
  REPTILE_CHECK(schedule.size() == expected.size())
      << "schedule and golden responses must be index-aligned";
  ScenarioReport report;
  report.scheduled_ops = static_cast<int64_t>(schedule.size());

  // Setup traffic (dataset upload) runs closed-loop on a short-lived client
  // — scoped so its connection never pins a server thread during the replay
  // — and is not part of the measured schedule. A server with a tight queue
  // deadline can shed even this first request (a 503 whose answer asks the
  // client to retry), so a shed upload is retried a few times.
  Result<HttpClientResponse> uploaded = [&] {
    HttpClient setup(options.host, options.port);
    setup.SetTimeoutMs(options.timeout_ms);
    Result<HttpClientResponse> response = setup.Post("/v1/datasets", oracle.upload_body());
    for (int retry = 0; retry < 3 && response.ok() && response->status == 503; ++retry) {
      response = setup.Post("/v1/datasets", oracle.upload_body());
    }
    return response;
  }();
  if (!uploaded.ok() || uploaded->status != 201) {
    std::fprintf(stderr, "workload dataset upload failed: %s\n",
                 uploaded.ok() ? ("HTTP " + std::to_string(uploaded->status) + " " +
                                  uploaded->body)
                                     .c_str()
                               : uploaded.status().ToString().c_str());
    report.failures = report.scheduled_ops;
    return report;
  }
  if (uploaded->body != oracle.upload_response()) ++report.mismatches;

  Replay replay;
  {
    std::lock_guard<std::mutex> lock(replay.mu);
    for (const ScheduledOp& item : schedule) {
      replay.sessions[item.op.session_index];  // materialize states up front
    }
  }

  const Clock::time_point start = Clock::now();
  {
    std::lock_guard<std::mutex> lock(replay.mu);
    replay.last_completion = start;
  }
  int workers = options.workers < 1 ? 1 : options.workers;
  std::vector<std::thread> pool;
  pool.reserve(static_cast<size_t>(workers));
  for (int w = 0; w < workers; ++w) {
    pool.emplace_back([&] {
      WorkerLoop(options, oracle, schedule, expected, start, &replay);
    });
  }

  // The open loop: each op becomes eligible at its scheduled instant, full
  // stop. If the server (or every worker) is busy, the op waits visibly in
  // its session's queue and the wait lands in its measured latency.
  for (size_t i = 0; i < schedule.size(); ++i) {
    std::this_thread::sleep_until(start +
                                  std::chrono::nanoseconds(schedule[i].time_ns));
    std::lock_guard<std::mutex> lock(replay.mu);
    SessionState& state = replay.sessions[schedule[i].op.session_index];
    state.pending.push_back(i);
    ++replay.outstanding;
    if (!state.busy) {
      state.busy = true;
      replay.ready.push_back(schedule[i].op.session_index);
      replay.ready_cv.notify_one();
    }
  }
  {
    std::lock_guard<std::mutex> lock(replay.mu);
    replay.dispatch_done = true;
    replay.ready_cv.notify_all();
  }
  for (std::thread& worker : pool) worker.join();

  Result<HttpClientResponse> deleted = [&] {
    HttpClient teardown(options.host, options.port);
    teardown.SetTimeoutMs(options.timeout_ms);
    return teardown.Delete("/v1/datasets/" + oracle.dataset_name());
  }();
  if (!deleted.ok() || deleted->status != 200 ||
      deleted->body != oracle.delete_response()) {
    ++report.failures;
  }

  report.sent = replay.sent;
  report.ok = replay.ok;
  report.mismatches += replay.mismatches;
  report.failures += replay.failures;
  report.rate_limited_429 = replay.rate_limited;
  report.shed_503 = replay.shed;
  report.timeouts = replay.timeouts;
  report.skipped = replay.skipped;
  report.wall_seconds =
      std::chrono::duration<double>(replay.last_completion - start).count();
  report.rps = report.wall_seconds > 0.0
                   ? static_cast<double>(report.sent) / report.wall_seconds
                   : 0.0;
  report.p50_ms = replay.latency.Quantile(0.50) * 1000.0;
  report.p90_ms = replay.latency.Quantile(0.90) * 1000.0;
  report.p99_ms = replay.latency.Quantile(0.99) * 1000.0;
  report.p999_ms = replay.latency.Quantile(0.999) * 1000.0;
  return report;
}

}  // namespace reptile
