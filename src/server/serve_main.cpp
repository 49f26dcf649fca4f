// reptile_serve — serve one or more Reptile sessions over HTTP/JSON.
//
//   reptile_serve --demo --port 8080
//   reptile_serve --csv data.csv --name drought
//       --dimensions district,village,year --measures severity
//       --hierarchy geo=district,village --hierarchy time=year
//       --commit time --port 8080
//
// The front end is the epoll reactor (net/reactor_server.h): one event
// thread owns every connection, --http-threads compute workers run the
// handlers, and an idle or slow client costs a few KB of state, not a thread.
//
// Flags (every numeric value is parsed strictly: trailing junk, a negative
// count, size or duration, a non-finite number or a value outside the
// flag's type exits 2 with the usage text):
//   --csv PATH            load the dataset from a CSV file (header row; see
//                         data/csv.h for the format contract)
//   --name NAME           dataset name on the wire (default "default")
//   --dimensions a,b,c    dimension columns of the CSV (required with --csv)
//   --measures x,y        measure columns of the CSV (required with --csv)
//   --hierarchy n=a,b     hierarchy schema, repeatable (required with --csv)
//   --separator C         CSV separator (default ',')
//   --commit NAME         pre-commit a drill-down, repeatable
//   --demo                serve a built-in synthetic district/village/year
//                         severity panel as dataset "demo" ("time" is
//                         pre-committed, so year-scoped complaints work
//                         out of the box)
//   --port N              listen port (default 8080; 0 = ephemeral, printed)
//   --http-threads N      handler (compute) workers (default 4)
//   --engine-threads N    per-call engine fan-out (default 0 = hardware)
//   --top-k N             groups returned per candidate (default 5)
//   --max-body-bytes N    request body cap (default 8 MiB)
//   --session-ttl N       evict per-client sessions idle > N seconds
//                         (default 0 = never; default sessions are exempt)
//   --dataset-root DIR    allow POST /v1/datasets {"path"|"snapshot": ...}
//                         server-side loads and POST
//                         /v1/datasets/{name}/snapshot writes, confined to
//                         DIR (default: disabled — inline "csv" uploads are
//                         always available)
//   --snapshot-dir DIR    warm start: load every *.snap binary snapshot in
//                         DIR at boot (api/dataset_snapshot.h), registering
//                         each under its file stem with caches pre-warmed —
//                         the first recommend after a restart is
//                         byte-identical to the process that wrote the
//                         snapshot, with zero builds and zero fits
//   --cache-budget-mb N   per-dataset cache memory target in MiB, split
//                         between the shared aggregate cache and the
//                         fitted-model cache; past it, least-recently-used
//                         entries are evicted (default 0 = unlimited)
//   --max-requests-per-connection N
//                         close a keep-alive connection (with
//                         "Connection: close") after N responses
//                         (default 0 = unlimited)
//   --max-sessions N      cap on live per-client sessions (default 1024,
//                         0 = unlimited; exceeding it is HTTP 409)
//   --max-datasets N      cap on registered datasets (default 64, same deal)
//   --auth-token T        require "Authorization: Bearer T" on the gated
//                         routes: every write (dataset create, delete,
//                         snapshot and row append; session create and
//                         delete; commit) and GET /v1/debug/requests; the
//                         other reads, /healthz and /metricsz stay open.
//                         Default: no auth.
//   --max-connections N   503 new connections past N open
//                         (default 0 = unlimited)
//   --rate-limit-rps R    admission token bucket: past R requests/second
//                         (sustained) API requests get 429 RATE_LIMITED with
//                         Retry-After; /healthz, /metricsz and streamed csv
//                         uploads are exempt (default 0 = unlimited)
//   --rate-limit-burst B  bucket depth for --rate-limit-rps: up to B
//                         requests are admitted back-to-back before the
//                         sustained rate applies (default 2*R)
//   --queue-deadline-ms N shed a request that waited > N ms in the handler
//                         queue with 503 OVERLOADED instead of serving it
//                         late; the connection stays open (default 0 =
//                         never shed)
//   --idle-timeout S      drop connections idle > S seconds (slow-loris
//                         bound; default 30, 0 = never)
//   --write-stall S       drop clients whose reads make no progress for S
//                         seconds (default 10, 0 = never)
//   --log-level L         structured-log threshold: debug|info|warn|error|off
//                         (default info; debug logs one JSON line per
//                         request). Lines are JSON objects, one per line,
//                         carrying the request's trace id — see obs/log.h
//   --log-file PATH       append log lines to PATH instead of stderr
//   --slow-request-ms N   warn-log any request slower than N ms with its
//                         stage spans (default 0 = off)
//   --debug-requests N    retain the last N request traces, served at
//                         GET /v1/debug/requests (bearer-gated when
//                         --auth-token is set; default 0 = route disabled)
//
// POST /v1/datasets accepts a streamed text/csv body (typing in the query
// string — see server/service.h) fed incrementally through CsvStreamParser,
// and /metricsz (and /healthz's "metrics") carry the reactor's transport
// counters as reptile_transport_* series.
//
// Datasets loaded at startup (--demo / --csv) are registered in the shared
// DatasetRegistry with a default session each (the deprecated
// {"dataset": name} alias target); clients may upload more datasets via
// POST /v1/datasets and open isolated per-client sessions via
// POST /v1/sessions at runtime.
//
// On SIGINT/SIGTERM the server stops accepting, finishes in-flight
// requests, and exits 0 — scripts/check.sh's smoke stage asserts that.

#include <cerrno>
#include <charconv>
#include <cmath>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <type_traits>
#include <vector>

#include <unistd.h>

#include <algorithm>
#include <filesystem>

#include "api/dataset_snapshot.h"
#include "datagen/panel_gen.h"
#include "net/reactor_server.h"
#include "obs/build_info.h"
#include "obs/log.h"
#include "reptile/reptile.h"
#include "server/service.h"

namespace reptile {
namespace {

// Written by the signal handler, read by main's shutdown wait.
int g_signal_pipe[2] = {-1, -1};

void HandleSignal(int) {
  char byte = 1;
  // write() is async-signal-safe; best-effort (the pipe never fills).
  [[maybe_unused]] ssize_t n = ::write(g_signal_pipe[1], &byte, 1);
}

// The --demo dataset: the datagen severity panel (the shape the fig08
// benchmark explores), small enough to build instantly.
Dataset MakeDemoPanel() {
  PanelSpec spec;
  spec.districts = 8;
  spec.villages_per_district = 6;
  spec.years = 10;
  spec.rows_per_group = 4;
  spec.seed = 17;
  return MakeSeverityPanel(spec);
}

struct Args {
  std::string csv;
  std::string name = "default";
  std::vector<std::string> dimensions;
  std::vector<std::string> measures;
  std::vector<HierarchySchema> hierarchies;
  std::vector<std::string> commits;
  char separator = ',';
  bool demo = false;
  int port = 8080;
  int http_threads = 4;
  int engine_threads = 0;
  int top_k = 5;
  int session_ttl = 0;
  std::string dataset_root;
  std::string snapshot_dir;
  size_t cache_budget_mb = 0;
  int64_t max_requests_per_connection = 0;
  int64_t max_sessions = 1024;
  int64_t max_datasets = 64;
  size_t max_body_bytes = 8 * 1024 * 1024;
  std::string auth_token;
  int64_t max_connections = 0;
  double rate_limit_rps = 0.0;
  double rate_limit_burst = 0.0;
  int queue_deadline_ms = 0;
  int idle_timeout = 30;
  double write_stall = 10.0;
  std::string log_level = "info";
  std::string log_file;
  double slow_request_ms = 0.0;
  int64_t debug_requests = 0;
};

[[noreturn]] void Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s (--demo | --csv PATH --dimensions a,b --measures x "
               "--hierarchy name=a,b [...]) [--name N] [--commit H]... "
               "[--port P] [--http-threads N] [--engine-threads N] [--top-k K] "
               "[--session-ttl S] [--dataset-root DIR] [--max-sessions N] "
               "[--max-datasets N] [--max-body-bytes N] [--separator C] "
               "[--auth-token T] [--max-connections N] [--rate-limit-rps R] "
               "[--rate-limit-burst B] [--queue-deadline-ms N] "
               "[--idle-timeout S] [--write-stall S] [--snapshot-dir DIR] "
               "[--cache-budget-mb N] [--max-requests-per-connection N] "
               "[--log-level L] [--log-file PATH] [--slow-request-ms N] "
               "[--debug-requests N]\n",
               argv0);
  std::exit(2);
}

// Strict parse of a numeric flag value: the whole string must be a T (an
// integer for integral T; no sign for unsigned T) that is finite and lies in
// [lo, hi], or the process prints what the flag wants and exits 2 with the
// usage text. An atoi-style parse would read a typo as 0, which several
// flags define as "unlimited".
template <typename T>
T NumberFlag(const char* argv0, const std::string& flag, const std::string& value, T lo,
             T hi) {
  T parsed{};
  const char* end = value.data() + value.size();
  auto [stop, error] = std::from_chars(value.data(), end, parsed);
  bool ok = error == std::errc() && stop == end && parsed >= lo && parsed <= hi;
  if constexpr (std::is_floating_point_v<T>) ok = ok && std::isfinite(parsed);
  if (!ok) {
    if constexpr (std::is_floating_point_v<T>) {
      std::fprintf(stderr, "%s wants a finite number >= %g, got '%s'\n", flag.c_str(),
                   static_cast<double>(lo), value.c_str());
    } else {
      std::fprintf(stderr, "%s wants an integer in [%s, %s], got '%s'\n", flag.c_str(),
                   std::to_string(lo).c_str(), std::to_string(hi).c_str(), value.c_str());
    }
    Usage(argv0);
  }
  return parsed;
}

Args ParseArgs(int argc, char** argv) {
  Args args;
  auto value_of = [&](int& i) -> std::string {
    if (i + 1 >= argc) {
      std::fprintf(stderr, "flag %s needs a value\n", argv[i]);
      Usage(argv[0]);
    }
    return argv[++i];
  };
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    // The value of a numeric flag, strictly parsed (see NumberFlag). Every
    // count, size and duration flag is non-negative, hence the default
    // lower bound.
    auto number = [&]<typename T>(T* out, T lo = T{0},
                                  T hi = std::numeric_limits<T>::max()) {
      *out = NumberFlag<T>(argv[0], flag, value_of(i), lo, hi);
    };
    if (flag == "--demo") {
      args.demo = true;
    } else if (flag == "--csv") {
      args.csv = value_of(i);
    } else if (flag == "--name") {
      args.name = value_of(i);
    } else if (flag == "--dimensions") {
      args.dimensions = SplitCommaList(value_of(i));
    } else if (flag == "--measures") {
      args.measures = SplitCommaList(value_of(i));
    } else if (flag == "--hierarchy") {
      std::string spec = value_of(i);
      size_t eq = spec.find('=');
      if (eq == std::string::npos || eq == 0 || eq + 1 >= spec.size()) {
        std::fprintf(stderr, "--hierarchy wants NAME=attr1,attr2 but got '%s'\n",
                     spec.c_str());
        Usage(argv[0]);
      }
      args.hierarchies.push_back(
          HierarchySchema{spec.substr(0, eq), SplitCommaList(spec.substr(eq + 1))});
    } else if (flag == "--commit") {
      args.commits.push_back(value_of(i));
    } else if (flag == "--separator") {
      std::string s = value_of(i);
      if (s.size() != 1) {
        std::fprintf(stderr, "--separator wants a single character\n");
        Usage(argv[0]);
      }
      args.separator = s[0];
    } else if (flag == "--port") {
      // The socket layer truncates the port through uint16_t, so an
      // out-of-range value would silently bind a different port.
      number(&args.port, 0, 65535);
    } else if (flag == "--http-threads") {
      number(&args.http_threads);
    } else if (flag == "--engine-threads") {
      number(&args.engine_threads);
    } else if (flag == "--top-k") {
      number(&args.top_k);
    } else if (flag == "--session-ttl") {
      number(&args.session_ttl);
    } else if (flag == "--dataset-root") {
      args.dataset_root = value_of(i);
    } else if (flag == "--snapshot-dir") {
      args.snapshot_dir = value_of(i);
    } else if (flag == "--cache-budget-mb") {
      // Bounded so that the MiB-to-bytes conversion below cannot wrap.
      number(&args.cache_budget_mb, size_t{0}, SIZE_MAX >> 20);
    } else if (flag == "--max-requests-per-connection") {
      number(&args.max_requests_per_connection);
    } else if (flag == "--max-sessions") {
      number(&args.max_sessions);
    } else if (flag == "--max-datasets") {
      number(&args.max_datasets);
    } else if (flag == "--max-body-bytes") {
      number(&args.max_body_bytes);
    } else if (flag == "--auth-token") {
      args.auth_token = value_of(i);
    } else if (flag == "--max-connections") {
      number(&args.max_connections);
    } else if (flag == "--rate-limit-rps") {
      number(&args.rate_limit_rps);
    } else if (flag == "--rate-limit-burst") {
      number(&args.rate_limit_burst);
    } else if (flag == "--queue-deadline-ms") {
      number(&args.queue_deadline_ms);
    } else if (flag == "--idle-timeout") {
      number(&args.idle_timeout);
    } else if (flag == "--write-stall") {
      number(&args.write_stall);
    } else if (flag == "--log-level") {
      args.log_level = value_of(i);
      if (!ParseLogLevel(args.log_level).has_value()) {
        std::fprintf(stderr, "--log-level wants debug|info|warn|error|off, got '%s'\n",
                     args.log_level.c_str());
        Usage(argv[0]);
      }
    } else if (flag == "--log-file") {
      args.log_file = value_of(i);
    } else if (flag == "--slow-request-ms") {
      number(&args.slow_request_ms);
    } else if (flag == "--debug-requests") {
      number(&args.debug_requests);
    } else {
      std::fprintf(stderr, "unknown flag '%s'\n", flag.c_str());
      Usage(argv[0]);
    }
  }
  if (!args.demo && args.csv.empty() && args.snapshot_dir.empty()) Usage(argv[0]);
  return args;
}

int Main(int argc, char** argv) {
  Args args = ParseArgs(argc, argv);

  // Logger first: everything after this line may log. ParseArgs already
  // validated the level string.
  if (!Logger::Global().Configure(*ParseLogLevel(args.log_level), args.log_file)) {
    std::fprintf(stderr, "cannot open --log-file %s\n", args.log_file.c_str());
    return 1;
  }

  // Declared before the service so that the service, whose metrics read the
  // front end's counters, is destroyed first.
  std::unique_ptr<ReactorServer> server;

  ServiceOptions service_options;
  service_options.session_defaults.TopK(args.top_k).Threads(args.engine_threads);
  service_options.session_ttl_seconds = args.session_ttl;
  service_options.dataset_path_root = args.dataset_root;
  service_options.max_sessions = args.max_sessions;
  service_options.max_datasets = args.max_datasets;
  service_options.auth_token = args.auth_token;
  service_options.cache_budget_bytes = args.cache_budget_mb * 1024 * 1024;
  service_options.slow_request_ms = args.slow_request_ms;
  service_options.debug_request_ring =
      args.debug_requests > 0 ? static_cast<size_t>(args.debug_requests) : 0;

  ReptileService service(service_options);
  if (args.demo) {
    // --name applies to the CSV dataset when both are served; a lone --demo
    // honors --name, defaulting to "demo".
    std::string name = args.csv.empty() ? (args.name == "default" ? "demo" : args.name)
                                        : "demo";
    Status added = service.AddDataset(name, MakeDemoPanel(), {"time"});
    if (!added.ok()) {
      std::fprintf(stderr, "demo dataset failed: %s\n", added.ToString().c_str());
      return 1;
    }
    std::printf("loaded dataset '%s' (demo panel, hierarchy 'time' committed)\n",
                name.c_str());
  }
  if (!args.csv.empty()) {
    CsvSpec spec;
    spec.dimension_columns = args.dimensions;
    spec.measure_columns = args.measures;
    spec.separator = args.separator;
    Result<Table> table = LoadCsv(args.csv, spec);
    if (!table.ok()) {
      std::fprintf(stderr, "loading %s failed: %s\n", args.csv.c_str(),
                   table.status().ToString().c_str());
      return 1;
    }
    Result<Dataset> dataset = Dataset::Make(std::move(table).value(), args.hierarchies);
    if (!dataset.ok()) {
      std::fprintf(stderr, "loading %s failed: %s\n", args.csv.c_str(),
                   dataset.status().ToString().c_str());
      return 1;
    }
    Status added = service.AddDataset(args.name, std::move(dataset).value(), args.commits);
    if (!added.ok()) {
      std::fprintf(stderr, "%s\n", added.ToString().c_str());
      return 1;
    }
    std::printf("loaded dataset '%s' from %s\n", args.name.c_str(), args.csv.c_str());
  }
  if (!args.snapshot_dir.empty()) {
    // Warm start: every *.snap in the directory becomes a dataset named
    // after its file stem, caches pre-warmed. Deterministic order (sorted)
    // so duplicate-name failures are reproducible.
    std::error_code ec;
    std::vector<std::filesystem::path> snapshots;
    for (const auto& entry : std::filesystem::directory_iterator(args.snapshot_dir, ec)) {
      if (entry.path().extension() == ".snap") snapshots.push_back(entry.path());
    }
    if (ec) {
      std::fprintf(stderr, "cannot read --snapshot-dir %s: %s\n",
                   args.snapshot_dir.c_str(), ec.message().c_str());
      return 1;
    }
    std::sort(snapshots.begin(), snapshots.end());
    for (const std::filesystem::path& snapshot : snapshots) {
      Result<DatasetHandle> handle = LoadPreparedDataset(snapshot.string());
      if (!handle.ok()) {
        std::fprintf(stderr, "loading snapshot %s failed: %s\n", snapshot.c_str(),
                     handle.status().ToString().c_str());
        return 1;
      }
      std::string name = snapshot.stem().string();
      // --commit applies here too: the snapshot carries fitted models keyed
      // by committed-depth state, so re-committing the same drill-downs is
      // what makes the first recommend warm.
      Status added = service.AddPreparedDataset(name, std::move(handle).value(), args.commits);
      if (!added.ok()) {
        std::fprintf(stderr, "registering snapshot %s failed: %s\n", snapshot.c_str(),
                     added.ToString().c_str());
        return 1;
      }
      std::printf("loaded dataset '%s' from snapshot %s (caches warm)\n", name.c_str(),
                  snapshot.c_str());
    }
  }

  ReactorServerOptions server_options;
  server_options.port = args.port;
  server_options.num_threads = args.http_threads;
  server_options.max_body_bytes = args.max_body_bytes;
  server_options.max_connections = args.max_connections;
  server_options.idle_timeout_seconds = args.idle_timeout;
  server_options.write_stall_seconds = args.write_stall;
  server_options.max_requests_per_connection = args.max_requests_per_connection;
  server_options.rate_limit_rps = args.rate_limit_rps;
  // --rate-limit-burst defaults to two seconds of sustained rate: deep
  // enough that an interactive client's click-burst is admitted, shallow
  // enough that a flood hits the 429s within a second.
  server_options.rate_limit_burst =
      args.rate_limit_burst > 0.0 ? args.rate_limit_burst : 2.0 * args.rate_limit_rps;
  server_options.queue_deadline_ms = args.queue_deadline_ms;
  server_options.stream_factory = [&service](const HttpRequest& head) {
    return service.StartStreamingBody(head);
  };
  server = std::make_unique<ReactorServer>(
      std::move(server_options),
      [&service](const HttpRequest& request) { return service.Handle(request); });
  server->RegisterMetrics(&service.metrics());
  Status started = server->Start();
  if (!started.ok()) {
    std::fprintf(stderr, "%s\n", started.ToString().c_str());
    return 1;
  }
  const int port = server->port();
  std::printf("reptile_serve listening on 127.0.0.1:%d\n", port);
  std::fflush(stdout);
  LogEvent(LogLevel::kInfo, "server_started",
           {LogField::Int("port", port),
            LogField::Int("pid", static_cast<int64_t>(::getpid())),
            LogField::Raw("build", BuildInfoJson())});

  // Block until SIGINT/SIGTERM, then stop cleanly (in-flight requests finish).
  if (::pipe(g_signal_pipe) != 0) {
    std::fprintf(stderr, "pipe() failed: %s\n", std::strerror(errno));
    return 1;
  }
  std::signal(SIGINT, HandleSignal);
  std::signal(SIGTERM, HandleSignal);
  char byte;
  ssize_t n;
  do {
    n = ::read(g_signal_pipe[0], &byte, 1);
  } while (n < 0 && errno == EINTR);
  std::printf("shutting down\n");
  std::fflush(stdout);
  LogEvent(LogLevel::kInfo, "server_stopping", {LogField::Int("port", port)});
  server->Stop();
  return 0;
}

}  // namespace
}  // namespace reptile

int main(int argc, char** argv) { return reptile::Main(argc, argv); }
