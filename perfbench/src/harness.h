// Process and wire plumbing shared by the workloads: launching
// reptile_serve, the checked HTTP exchange every workload issues, running
// in-process work in a forked child, and the run report whose last line is
// the benchmark's JSON result.

#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <sys/types.h>

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"
#include "server/http_client.h"

namespace perfbench {

struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string server_path;  // the reptile_serve binary
  std::string trace_out;    // where the traced run writes its spans
};

/// A reptile_serve child process started with its default flags plus
/// --demo (it needs a dataset to start) and an ephemeral port.
class ServerProcess {
 public:
  /// Starts the server and waits for its "listening" line. nullptr (with
  /// `error` set) when it does not come up within 30 s.
  static std::unique_ptr<ServerProcess> Launch(const std::string& path, std::string* error);
  ~ServerProcess();

  int port() const { return port_; }
  pid_t pid() const { return pid_; }

  /// VmHWM of the server process in MB (2^20 bytes); 0 when unreadable.
  double PeakRssMb() const;

  /// SIGTERM, then waits for the exit (SIGKILL after 20 s). True when the
  /// server exited with status 0.
  bool Stop();

 private:
  ServerProcess() = default;
  pid_t pid_ = -1;
  int port_ = 0;
  int stdout_fd_ = -1;
};

/// Runs `fn` in a forked child and returns the bytes it produced. The engine
/// work the benchmark needs in-process (the byte oracles and the traced
/// run's layer probes) runs there, so the measuring process never starts the
/// engine's worker pool and stays within its thread budget. Call only while
/// the calling process has a single thread.
bool RunInChild(const std::function<std::string()>& fn, std::string* out, std::string* error);

/// One HTTP request as the benchmark saw it.
struct Exchange {
  std::string kind;     // "recommend", "commit", "upload", ...
  int64_t send_ns = 0;
  int64_t done_ns = 0;
  int status = 0;
  bool ok = false;      // no transport error, expected status, expected bytes
  std::vector<TimingEntry> timing;  // the response's Server-Timing entries
  int em_iterations = -1;  // recommends: the first em_iterations_run in the body

  double LatencyMs() const { return static_cast<double>(done_ns - send_ns) * 1e-6; }
};

/// Counts and keeps every exchange of one client thread; merged after join.
struct Tally {
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<Exchange> exchanges;
  std::vector<std::string> errors;  // the first few failures, for stderr

  void Merge(const Tally& other);
  void Fail(const std::string& what);
  std::vector<double> Latencies(const std::string& kind) const;
};

/// A keep-alive connection that checks every response it gets.
class Client {
 public:
  explicit Client(int port);

  /// Sends one request. The exchange fails on a transport error, on a status
  /// other than `expect_status`, or — when `expect_body` is given — on any
  /// byte difference.
  bool Send(const std::string& kind, const std::string& method, const std::string& path,
            const std::string& body, int expect_status, const std::string* expect_body,
            std::string* response_body = nullptr,
            const std::string& content_type = "application/json");

  /// Marks the last exchange failed — for checks that need the response
  /// first (a body that embeds the server-assigned session id).
  void Reject(const std::string& what);

  /// GET /metricsz (kept out of the tally's samples, still counted).
  std::string Scrape();

  Tally& tally() { return tally_; }

  /// Traced runs: every client drops the zero_timings option from the
  /// bodies it sends, so Server-Timing carries real stage durations (the
  /// option zeroes them too), and compares bodies through ZeroTimingFields.
  /// Set once, before any client thread starts.
  static void UseLiveTimings(bool live) { live_timings_ = live; }

 private:
  static inline bool live_timings_ = false;
  reptile::HttpClient http_;
  Tally tally_;
};

class Report;

/// Runs `body(index, client)` on `clients` threads at once, each with its
/// own connection, counts their exchanges into `report`, and returns the
/// requests completed per second of wall time.
double ClosedLoopRps(int port, int clients, const std::function<void(int, Client&)>& body,
                     Report* report);

/// Builds the traced run's request spans: per exchange a client span
/// "http.<kind>", a child "server" span of the Server-Timing total placed
/// in the middle of it, and the server's stage entries laid end to end as
/// the server span's children.
void AddExchangeSpans(const std::vector<Exchange>& exchanges, SpanLog* log);

/// The run's result: human-readable lines on stdout as it goes, and the
/// JSON result object ({"correct","attempted","failed","metrics"}) as the
/// very last line.
class Report {
 public:
  /// A line of context (inputs, sample counts, predictions).
  void Note(const std::string& line);
  void Metric(const std::string& name, double value, const std::string& unit);
  void Count(const Tally& tally);
  void Invalidate(const std::string& why);

  bool correct() const { return correct_ && failed_ == 0 && attempted_ > 0; }
  /// Prints the JSON line; returns the process exit code.
  int Finish();

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Entry> metrics_;
  int64_t attempted_ = 0;
  int64_t failed_ = 0;
  bool correct_ = true;
};

/// Exact p50/p90 of `samples` as a note with the sample count.
std::string DescribeSamples(const std::string& what, const std::vector<double>& samples,
                            const std::string& unit);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
