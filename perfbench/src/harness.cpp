#include "harness.h"

#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <thread>
#include <utility>

namespace perfbench {

namespace {

constexpr size_t kMaxErrorsKept = 8;

bool WriteAll(int fd, const std::string& bytes) {
  size_t done = 0;
  while (done < bytes.size()) {
    ssize_t n = ::write(fd, bytes.data() + done, bytes.size() - done);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    done += static_cast<size_t>(n);
  }
  return true;
}

}  // namespace

std::unique_ptr<ServerProcess> ServerProcess::Launch(const std::string& path,
                                                     std::string* error) {
  int pipe_fds[2];
  if (::pipe(pipe_fds) != 0) {
    *error = std::string("pipe: ") + std::strerror(errno);
    return nullptr;
  }
  std::fflush(stdout);
  std::fflush(stderr);
  pid_t pid = ::fork();
  if (pid < 0) {
    *error = std::string("fork: ") + std::strerror(errno);
    ::close(pipe_fds[0]);
    ::close(pipe_fds[1]);
    return nullptr;
  }
  if (pid == 0) {
    // The server must not outlive the benchmark, however the benchmark ends.
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    ::dup2(pipe_fds[1], STDOUT_FILENO);
    ::close(pipe_fds[0]);
    ::close(pipe_fds[1]);
    const char* argv[] = {path.c_str(), "--demo", "--port", "0", nullptr};
    ::execv(path.c_str(), const_cast<char* const*>(argv));
    std::fprintf(stderr, "cannot exec %s: %s\n", path.c_str(), std::strerror(errno));
    ::_exit(127);
  }
  ::close(pipe_fds[1]);
  std::unique_ptr<ServerProcess> server(new ServerProcess());
  server->pid_ = pid;
  server->stdout_fd_ = pipe_fds[0];

  std::string seen;
  const int64_t deadline = NowNs() + 30'000'000'000LL;
  const std::string marker = "listening on 127.0.0.1:";
  while (NowNs() < deadline) {
    pollfd pfd{server->stdout_fd_, POLLIN, 0};
    int ready = ::poll(&pfd, 1, 100);
    if (ready < 0 && errno != EINTR) break;
    if (ready <= 0) continue;
    char buf[512];
    ssize_t n = ::read(server->stdout_fd_, buf, sizeof(buf));
    if (n <= 0) break;
    seen.append(buf, static_cast<size_t>(n));
    size_t at = seen.find(marker);
    if (at != std::string::npos && seen.find('\n', at) != std::string::npos) {
      server->port_ = std::atoi(seen.c_str() + at + marker.size());
      return server;
    }
  }
  *error = "reptile_serve did not report a listening port; output: " + seen;
  return nullptr;  // the destructor stops the child
}

ServerProcess::~ServerProcess() { Stop(); }

double ServerProcess::PeakRssMb() const {
  std::ifstream status("/proc/" + std::to_string(pid_) + "/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB -> MB
    }
  }
  return 0.0;
}

bool ServerProcess::Stop() {
  if (pid_ <= 0) return true;
  ::kill(pid_, SIGTERM);
  int status = 0;
  bool exited = false;
  const int64_t deadline = NowNs() + 20'000'000'000LL;
  char drain[512];
  while (NowNs() < deadline) {
    pid_t r = ::waitpid(pid_, &status, WNOHANG);
    if (r == pid_) {
      exited = true;
      break;
    }
    // Keep the stdout pipe drained so the server's shutdown line never blocks.
    pollfd pfd{stdout_fd_, POLLIN, 0};
    if (::poll(&pfd, 1, 20) > 0) {
      if (::read(stdout_fd_, drain, sizeof(drain)) <= 0) ::usleep(10000);
    }
  }
  if (!exited) {
    ::kill(pid_, SIGKILL);
    ::waitpid(pid_, &status, 0);
  }
  if (stdout_fd_ >= 0) ::close(stdout_fd_);
  stdout_fd_ = -1;
  pid_ = -1;
  return exited && WIFEXITED(status) && WEXITSTATUS(status) == 0;
}

bool RunInChild(const std::function<std::string()>& fn, std::string* out, std::string* error) {
  int pipe_fds[2];
  if (::pipe(pipe_fds) != 0) {
    *error = std::string("pipe: ") + std::strerror(errno);
    return false;
  }
  std::fflush(stdout);
  std::fflush(stderr);
  pid_t pid = ::fork();
  if (pid < 0) {
    *error = std::string("fork: ") + std::strerror(errno);
    return false;
  }
  if (pid == 0) {
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    ::close(pipe_fds[0]);
    std::string result = fn();
    ::_exit(WriteAll(pipe_fds[1], result) ? 0 : 1);
  }
  ::close(pipe_fds[1]);
  out->clear();
  char buf[1 << 16];
  while (true) {
    ssize_t n = ::read(pipe_fds[0], buf, sizeof(buf));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    out->append(buf, static_cast<size_t>(n));
  }
  ::close(pipe_fds[0]);
  int status = 0;
  while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    *error = "in-process child failed (status " + std::to_string(status) + ")";
    return false;
  }
  return true;
}

void Tally::Merge(const Tally& other) {
  attempted += other.attempted;
  failed += other.failed;
  exchanges.insert(exchanges.end(), other.exchanges.begin(), other.exchanges.end());
  for (const std::string& e : other.errors) {
    if (errors.size() < kMaxErrorsKept) errors.push_back(e);
  }
}

void Tally::Fail(const std::string& what) {
  ++failed;
  if (errors.size() < kMaxErrorsKept) errors.push_back(what);
}

std::vector<double> Tally::Latencies(const std::string& kind) const {
  std::vector<double> out;
  for (const Exchange& e : exchanges) {
    if (e.ok && e.kind == kind) out.push_back(e.LatencyMs());
  }
  return out;
}

Client::Client(int port) : http_("127.0.0.1", port) { http_.SetTimeoutMs(120000); }

bool Client::Send(const std::string& kind, const std::string& method, const std::string& path,
                  const std::string& body, int expect_status, const std::string* expect_body,
                  std::string* response_body, const std::string& content_type) {
  static const std::string kZeroTimings = ",\"options\":{\"zero_timings\":true}";
  const bool live = live_timings_ && body.find(kZeroTimings) != std::string::npos;
  std::string stripped;
  if (live) stripped = ReplaceAll(body, kZeroTimings, "");
  const std::string& sent = live ? stripped : body;
  Exchange ex;
  ex.kind = kind;
  ++tally_.attempted;
  ex.send_ns = NowNs();
  reptile::Result<reptile::HttpClientResponse> response =
      method == "GET"      ? http_.Get(path)
      : method == "DELETE" ? http_.Delete(path)
                           : http_.Post(path, sent, content_type);
  ex.done_ns = NowNs();
  std::string what;
  if (!response.ok()) {
    what = kind + " " + path + ": " + response.status().ToString();
  } else {
    ex.status = response->status;
    if (const std::string* timing = response->FindHeader("server-timing")) {
      ex.timing = ParseServerTiming(*timing);
    }
    if (response->status != expect_status) {
      what = kind + " " + path + ": HTTP " + std::to_string(response->status) + " " +
             response->body.substr(0, 300);
    } else if (expect_body != nullptr &&
               (live ? ZeroTimingFields(response->body) != ZeroTimingFields(*expect_body)
                     : response->body != *expect_body)) {
      what = kind + " " + path + ": body differs from the oracle (got " +
             std::to_string(response->body.size()) + " bytes, want " +
             std::to_string(expect_body->size()) + ")";
    }
    if (kind.rfind("recommend", 0) == 0) {
      std::vector<int64_t> runs = JsonIntFields(response->body, "em_iterations_run");
      if (!runs.empty()) ex.em_iterations = static_cast<int>(runs.front());
    }
    if (response_body != nullptr) *response_body = std::move(response->body);
  }
  ex.ok = what.empty();
  if (!ex.ok) tally_.Fail(what);
  tally_.exchanges.push_back(std::move(ex));
  return tally_.exchanges.back().ok;
}

void Client::Reject(const std::string& what) {
  if (!tally_.exchanges.empty() && tally_.exchanges.back().ok) {
    tally_.exchanges.back().ok = false;
    tally_.Fail(what);
  }
}

std::string Client::Scrape() {
  std::string body;
  Send("metricsz", "GET", "/metricsz", "", 200, nullptr, &body);
  tally_.exchanges.pop_back();
  return body;
}

double ClosedLoopRps(int port, int clients, const std::function<void(int, Client&)>& body,
                     Report* report) {
  std::vector<Tally> tallies(static_cast<size_t>(clients));
  const int64_t start = NowNs();
  std::vector<std::thread> threads;
  for (int t = 0; t < clients; ++t) {
    threads.emplace_back([&, t] {
      Client c(port);
      body(t, c);
      tallies[static_cast<size_t>(t)] = c.tally();
    });
  }
  for (std::thread& t : threads) t.join();
  const double seconds = static_cast<double>(NowNs() - start) * 1e-9;
  int64_t completed = 0;
  for (const Tally& t : tallies) {
    report->Count(t);
    for (const Exchange& x : t.exchanges) completed += x.ok ? 1 : 0;
  }
  return static_cast<double>(completed) / seconds;
}

void AddExchangeSpans(const std::vector<Exchange>& exchanges, SpanLog* log) {
  uint64_t trace = 0;
  for (const Exchange& ex : exchanges) {
    ++trace;
    const uint64_t root = log->Add("http." + ex.kind, 0, trace, ex.send_ns, ex.done_ns);
    const double total_ms = TimingMs(ex.timing, "total");
    if (total_ms <= 0.0) continue;
    const int64_t total_ns = static_cast<int64_t>(total_ms * 1e6);
    const int64_t slack = (ex.done_ns - ex.send_ns) - total_ns;
    const int64_t server_start = ex.send_ns + (slack > 0 ? slack / 2 : 0);
    const uint64_t server = log->Add("server", root, trace, server_start, server_start + total_ns);
    int64_t at = server_start;
    for (const TimingEntry& entry : ex.timing) {
      if (entry.name == "total") continue;
      const int64_t dur = static_cast<int64_t>(entry.dur_ms * 1e6);
      log->Add("stage." + entry.name, server, trace, at, at + dur);
      at += dur;
    }
  }
}

void Report::Note(const std::string& line) {
  std::printf("# %s\n", line.c_str());
  std::fflush(stdout);
}

void Report::Metric(const std::string& name, double value, const std::string& unit) {
  std::printf("%-28s %.6g %s\n", name.c_str(), value, unit.c_str());
  std::fflush(stdout);
  if (!std::isfinite(value)) Invalidate(name + " has no samples");
  metrics_.push_back({name, value, unit});
}

void Report::Count(const Tally& tally) {
  attempted_ += tally.attempted;
  failed_ += tally.failed;
  for (const std::string& e : tally.errors) std::fprintf(stderr, "failed: %s\n", e.c_str());
}

void Report::Invalidate(const std::string& why) {
  correct_ = false;
  std::fprintf(stderr, "run invalid: %s\n", why.c_str());
}

int Report::Finish() {
  const bool ok = correct();
  std::string json = "{\"correct\":" + std::string(ok ? "true" : "false") +
                     ",\"attempted\":" + std::to_string(attempted_) +
                     ",\"failed\":" + std::to_string(failed_) + ",\"metrics\":{";
  char buf[64];
  for (size_t i = 0; i < metrics_.size(); ++i) {
    if (i > 0) json += ",";
    double v = std::isfinite(metrics_[i].value) ? metrics_[i].value : 0.0;
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    json += "\"" + metrics_[i].name + "\":{\"value\":" + buf + ",\"unit\":\"" +
            metrics_[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return ok ? 0 : 1;
}

std::string DescribeSamples(const std::string& what, const std::vector<double>& samples,
                            const std::string& unit) {
  char buf[256];
  std::snprintf(buf, sizeof(buf), "%s: n=%zu p50=%.4f p90=%.4f %s", what.c_str(),
                samples.size(), Percentile(samples, 0.5), Percentile(samples, 0.9),
                unit.c_str());
  return buf;
}

}  // namespace perfbench
