// bce_bench: the repo benchmark (perfbench/README.md).
//
//   bce_bench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//             [--smoke] [--digests FILE] [--commit ID]
//   bce_bench --print-digests
//
// Run from the repo root (perfbench/run.py builds it and does so).
// Workloads: paper_matrix, long_horizon, fleet_faulty. With --trace 0 the
// workload's end-to-end operation is repeated for --seconds and the
// end-to-end metrics are reported as medians over the iterations, in
// reference-host seconds (see host_slowdown()). With --trace 1 the traced
// run replays every emulation of the workload through the public seams (EmulationOptions::trace and the checkpoint hook) and
// reports the per-layer metrics. The last stdout line is one JSON object:
// {"correct", "attempted", "failed", "metrics"}. The exit code is 0 only
// when every output matched its reference.
//
// Everything is measured from outside the library: the benchmark times its
// own calls into public APIs and never edits the emulator.

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/bce.hpp"
#include "fleet/shard.hpp"
#include "fleet/shard_worker.hpp"
#include "fleet/supervisor.hpp"
#include "sim/state_io.hpp"
#include "sim/thread_pool.hpp"

namespace {

using namespace bce;
using Clock = std::chrono::steady_clock;

/// Threads for run_batch and the traced passes, and worker subprocesses for
/// run_sharded. Fixed so that every host runs the same workload; 4 is the
/// core count of the host the bounds were set on. Recorded in every output.
constexpr unsigned kThreads = 4;
constexpr unsigned kWorkers = 4;

constexpr std::uint64_t kDefaultSeed = 1;
/// After the measured loop, when the process is warm, set-up is repeated
/// for this long (and at least kSetupMinReps times); setup_s is the median.
/// A window as long as a few calibration kernels averages out the host's
/// short stalls, which single sub-millisecond set-ups cannot.
constexpr double kSetupWindow_s = 0.25;
constexpr std::size_t kSetupMinReps = 15;
/// Stamp-buffer entries per traced emulation before an in-place flush.
constexpr std::size_t kStampCapacity = std::size_t{1} << 18;
/// Allowed |sum of layer self times - traced wall| as a share of the wall.
constexpr double kAttributionTolerance = 0.02;

const char* const kWorkloads[] = {"paper_matrix", "long_horizon",
                                  "fleet_faulty"};

// ---- small helpers --------------------------------------------------------

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

double tv_seconds(const timeval& t) {
  return static_cast<double>(t.tv_sec) + 1e-6 * static_cast<double>(t.tv_usec);
}

/// User+sys CPU of this process and every reaped child (worker
/// subprocesses are reaped by run_sharded before it returns).
double process_cpu_s() {
  rusage self{};
  rusage kids{};
  getrusage(RUSAGE_SELF, &self);
  getrusage(RUSAGE_CHILDREN, &kids);
  return tv_seconds(self.ru_utime) + tv_seconds(self.ru_stime) +
         tv_seconds(kids.ru_utime) + tv_seconds(kids.ru_stime);
}

/// Peak RSS of this process or of its largest reaped child, MiB.
double peak_rss_mib() {
  rusage self{};
  rusage kids{};
  getrusage(RUSAGE_SELF, &self);
  getrusage(RUSAGE_CHILDREN, &kids);
  return static_cast<double>(std::max(self.ru_maxrss, kids.ru_maxrss)) /
         1024.0;
}

double thread_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank percentile, q in (0, 1].
double percentile(std::vector<float>& v, double q) {
  if (v.empty()) return 0.0;
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  const std::size_t k = std::min(v.size() - 1, rank == 0 ? 0 : rank - 1);
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(k),
                   v.end());
  return static_cast<double>(v[k]);
}

double sum(const std::vector<double>& v) {
  double s = 0.0;
  for (const double x : v) s += x;
  return s;
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Figures-of-merit digest: FNV-1a 64 over the bit-exact wire form of the
/// Metrics, with the per-category trace-event counts zeroed so a traced
/// emulation digests like its untraced twin.
std::uint64_t metrics_digest(Metrics m) {
  m.trace_events.fill(0);
  StateWriter w;
  save_metrics(w, m);
  return fnv1a64_bytes(w.payload().data(), w.payload().size());
}

std::string hex(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016" PRIx64, v);
  return buf;
}

std::string num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

// ---- host-speed calibration -----------------------------------------------

/// Kernel wall time that defines a reference-speed host. Other tenants of a
/// shared host slow its cores by up to 2x for seconds at a time, which
/// swamps the differences the benchmark must resolve. So each time is
/// scaled by kNominalCalibration_s / the kernel's time measured right
/// around it (perfbench/README.md, "Host-speed normalisation").
constexpr double kNominalCalibration_s = 0.05;

/// A fixed CPU and memory kernel that shares no code with the emulator, so
/// it follows the host's speed and never the code under test: 20M
/// pseudo-random reads of a 1 MiB table mixed with floating-point work.
double calibration_kernel(const std::vector<std::uint64_t>& table,
                          std::uint64_t x) {
  std::uint64_t acc = 0;
  double f = 1.0;
  for (int i = 0; i < 20'000'000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    acc += table[x & (table.size() - 1)];
    f = f * 1.0000001 + static_cast<double>(acc & 7);
  }
  return f + static_cast<double>(acc);
}

/// Seconds the calibration kernel takes on the calling thread.
double time_kernel(std::uint64_t seed) {
  static const std::vector<std::uint64_t> table = [] {
    std::vector<std::uint64_t> t(std::size_t{1} << 17);
    for (std::size_t i = 0; i < t.size(); ++i) t[i] = i * 0x9e3779b97f4a7c15ull;
    return t;
  }();
  const auto t0 = Clock::now();
  volatile double keep = calibration_kernel(table, seed);
  (void)keep;
  return seconds_since(t0);
}

/// The host's current slowdown against the reference host: the mean time
/// of the calibration kernel run on \p threads threads at once (the
/// parallelism of the operation being normalised), ÷ kNominalCalibration_s.
/// A serial operation is calibrated on its own thread, so on its own core.
double host_slowdown(unsigned threads) {
  constexpr std::uint64_t kSeed = 88172645463325252ull;
  if (threads == 1) return time_kernel(kSeed) / kNominalCalibration_s;
  std::vector<double> seconds(threads);
  std::vector<std::thread> crew;
  for (unsigned t = 0; t < threads; ++t) {
    crew.emplace_back([&seconds, t] { seconds[t] = time_kernel(kSeed + t); });
  }
  for (std::thread& th : crew) th.join();
  return sum(seconds) / threads / kNominalCalibration_s;
}

/// Set-up is string formatting, parsing and allocation, and on the
/// reference host it slows by up to 2x for a whole process while the
/// compute kernel above does not. So setup_s has its own kernel of that kind
/// of work, again sharing no code with the emulator, and this reference time.
constexpr double kNominalSetupCalibration_s = 0.02;

/// Slowdown of libc-heavy work against the reference host: 40 rounds of
/// formatting 1000 doubles into strings and parsing them back.
double setup_slowdown() {
  const auto t0 = Clock::now();
  double acc = 0.0;
  char buf[32];
  for (int round = 0; round < 40; ++round) {
    std::vector<std::string> texts;
    for (int i = 0; i < 1000; ++i) {
      std::snprintf(buf, sizeof buf, "%.17g", 1.0 / (i + 3) + round);
      texts.emplace_back(buf);
    }
    for (const std::string& t : texts) acc += std::strtod(t.c_str(), nullptr);
  }
  volatile double keep = acc;
  (void)keep;
  return seconds_since(t0) / kNominalSetupCalibration_s;
}

// ---- command line ---------------------------------------------------------

struct Options {
  std::string workload;
  std::uint64_t seed = kDefaultSeed;
  double seconds = 10.0;
  bool trace = false;
  bool smoke = false;
  bool print_digests = false;
  std::string digests = "perfbench/digests.txt";
  std::string commit = "unknown";
};

[[noreturn]] void usage_error(const std::string& what) {
  std::fprintf(stderr,
               "bce_bench: %s\nusage: bce_bench --workload "
               "paper_matrix|long_horizon|fleet_faulty [--seed N] "
               "[--seconds S] [--trace 0|1] [--smoke] [--digests FILE] "
               "[--commit ID]\n       bce_bench --print-digests\n",
               what.c_str());
  std::exit(2);
}

Options parse_args(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage_error("missing value for " + a);
      return argv[++i];
    };
    if (a == "--workload") {
      o.workload = value();
    } else if (a == "--seed") {
      o.seed = std::stoull(value());
    } else if (a == "--seconds") {
      o.seconds = std::stod(value());
    } else if (a == "--trace") {
      o.trace = value() != "0";
    } else if (a == "--smoke") {
      o.smoke = true;
    } else if (a == "--print-digests") {
      o.print_digests = true;
    } else if (a == "--digests") {
      o.digests = value();
    } else if (a == "--commit") {
      o.commit = value();
    } else {
      usage_error("unknown argument " + a);
    }
  }
  if (!o.print_digests &&
      std::find(std::begin(kWorkloads), std::end(kWorkloads), o.workload) ==
          std::end(kWorkloads)) {
    usage_error("unknown workload '" + o.workload + "'");
  }
  return o;
}

// ---- committed digests ----------------------------------------------------

/// Expected digests for the default seed, keyed "workload mode label"
/// (mode = full | smoke). File lines: `workload mode label hex`.
std::map<std::string, std::uint64_t> load_digests(const std::string& path) {
  std::map<std::string, std::uint64_t> out;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream ls(line);
    std::string w, mode, label, h;
    if (ls >> w >> mode >> label >> h) {
      out[w + " " + mode + " " + label] = std::stoull(h, nullptr, 16);
    }
  }
  return out;
}

// ---- workloads ------------------------------------------------------------

/// One emulation of a workload, as the traced run replays it.
struct Item {
  std::string label;
  Scenario scenario;
  EmulationOptions options;
  /// Savestate capture period for the untraced replay (fleet_faulty: the
  /// workers' mid-host checkpoint period); 0 = no captures.
  double capture_period = 0.0;
};

/// Inputs built by set-up; the measured section only runs them.
struct Inputs {
  std::vector<RunSpec> specs;          // paper_matrix, long_horizon
  std::unique_ptr<Emulator> emulator;  // long_horizon
  std::vector<ShardTask> tasks;        // fleet_faulty
  std::string checkpoint_dir;          // fleet_faulty
  double host_days = 0.0;
  std::size_t ops = 0;  ///< operations per iteration
};

/// A figures-of-merit digest and the operations it covers.
struct Digest {
  std::string label;
  std::uint64_t value = 0;
  std::size_t ops = 1;
};

struct Outcome {
  std::vector<Digest> digests;
  std::size_t ops = 0;
  std::size_t failed = 0;  ///< threw or was lost
  std::vector<std::string> problems;
  ShardedResult sharded;  // fleet_faulty
};

/// Smoke runs shrink every horizon by this factor.
constexpr double kSmokeScale = 20.0;

std::vector<RunSpec> paper_matrix_specs(const Options& o) {
  std::vector<RunSpec> specs;
  const Scenario scenarios[] = {paper_scenario1(), paper_scenario2(),
                                paper_scenario3(), paper_scenario4()};
  for (std::size_t k = 0; k < 4; ++k) {
    Scenario sc = scenarios[k];
    sc.seed = o.seed;
    if (o.smoke) sc.duration /= kSmokeScale;
    for (RunSpec& s : policy_matrix_specs(sc)) {
      s.label = "s" + std::to_string(k + 1) + "/" + s.label;
      specs.push_back(std::move(s));
    }
  }
  return specs;
}

RunSpec long_horizon_spec(const Options& o) {
  RunSpec s;
  s.scenario = paper_scenario4();
  s.scenario.seed = o.seed;
  if (o.smoke) s.scenario.duration /= kSmokeScale;
  s.options.policy.sched_by_name = "JS_GLOBAL";
  s.options.policy.fetch_by_name = "JF_HYSTERESIS";
  s.label = "s4/JS_GLOBAL+JF_HYSTERESIS";
  return s;
}

struct FleetShape {
  std::uint64_t hosts;
  std::uint64_t hosts_per_shard;
  double days;
  double checkpoint_days;
};

FleetShape fleet_shape(const Options& o) {
  return o.smoke ? FleetShape{8, 4, 0.5, 0.125} : FleetShape{64, 4, 10.0, 1.0};
}

Scenario fleet_scenario(const Options& o) {
  Scenario sc = load_scenario_file("scenarios/faulty.txt");
  sc.seed = o.seed;
  sc.duration = fleet_shape(o).days * kSecondsPerDay;
  return sc;
}

std::string fleet_checkpoint_dir() {
  return ".bench_build/run/fleet-" + std::to_string(::getpid());
}

Inputs setup(const Options& o) {
  Inputs in;
  if (o.workload == "paper_matrix") {
    in.specs = paper_matrix_specs(o);
    for (const RunSpec& s : in.specs) {
      in.host_days += s.scenario.duration / kSecondsPerDay;
    }
    in.ops = in.specs.size();
    // Thread-pool first touch: spawn the helpers outside the measured
    // section. Later set-ups find them parked and skip the handshake.
    static bool pool_touched = false;
    if (!pool_touched) {
      ThreadPool::shared().parallel_for(kThreads, kThreads,
                                        [](std::size_t) {});
      pool_touched = true;
    }
  } else if (o.workload == "long_horizon") {
    in.specs = {long_horizon_spec(o)};
    in.emulator = std::make_unique<Emulator>(in.specs[0].scenario,
                                             in.specs[0].options);
    in.host_days = in.specs[0].scenario.duration / kSecondsPerDay;
    in.ops = 1;
  } else {
    const FleetShape shape = fleet_shape(o);
    const Scenario sc = fleet_scenario(o);
    in.tasks = make_replicated_shard_tasks(sc, PolicyConfig{}, shape.hosts,
                                           shape.hosts_per_shard);
    for (ShardTask& t : in.tasks) {
      t.checkpoint_sim_period = shape.checkpoint_days * kSecondsPerDay;
    }
    in.checkpoint_dir = fleet_checkpoint_dir();
    std::filesystem::create_directories(in.checkpoint_dir);
    in.host_days = static_cast<double>(shape.hosts) * shape.days;
    in.ops = shape.hosts;
  }
  return in;
}

SupervisorConfig fleet_supervisor(const std::string& checkpoint_dir) {
  SupervisorConfig cfg;
  cfg.n_workers = kWorkers;
  cfg.checkpoint_dir = checkpoint_dir;
  return cfg;
}

/// The workload's end-to-end operation: what --trace 0 times.
Outcome run_operation(const Options& o, Inputs& in) {
  Outcome out;
  out.ops = in.ops;
  try {
    if (o.workload == "paper_matrix") {
      const std::vector<RunResult> res = run_batch(in.specs, kThreads);
      for (const RunResult& r : res) {
        out.digests.push_back({r.label, metrics_digest(r.result.metrics), 1});
      }
    } else if (o.workload == "long_horizon") {
      const EmulationResult res = in.emulator->run();
      out.digests.push_back(
          {in.specs[0].label, metrics_digest(res.metrics), 1});
    } else {
      out.sharded = run_sharded(in.tasks, fleet_supervisor(in.checkpoint_dir));
      out.failed = out.sharded.hosts_lost;
      for (const ShardReport& r : out.sharded.shards) {
        if (r.state != ShardState::kDone) {
          out.problems.push_back("shard " + std::to_string(r.index) + " " +
                                 shard_state_name(r.state) + ": " + r.error);
        }
      }
      out.digests.push_back({"merged", metrics_digest(out.sharded.merged),
                             out.sharded.hosts_done});
    }
  } catch (const std::exception& e) {
    out.failed = out.ops;
    out.digests.clear();
    out.problems.push_back(std::string("operation threw: ") + e.what());
  }
  return out;
}

/// Compare \p got against the committed digests (default seed only) and
/// against \p reference (an earlier run of the same inputs); returns the
/// operations whose digest mismatched.
std::size_t check_digests(const Options& o, const std::vector<Digest>& got,
                          const std::vector<Digest>* reference,
                          const std::map<std::string, std::uint64_t>& committed,
                          std::vector<std::string>& problems) {
  std::size_t bad = 0;
  const std::string prefix =
      o.workload + (o.smoke ? " smoke " : " full ");
  for (std::size_t i = 0; i < got.size(); ++i) {
    const Digest& d = got[i];
    bool ok = true;
    if (o.seed == kDefaultSeed) {
      const auto it = committed.find(prefix + d.label);
      if (it == committed.end()) {
        problems.push_back("no committed digest for " + d.label);
        ok = false;
      } else if (it->second != d.value) {
        problems.push_back("digest mismatch for " + d.label + ": got " +
                           hex(d.value) + ", committed " + hex(it->second));
        ok = false;
      }
    }
    if (reference != nullptr) {
      if (i >= reference->size() || (*reference)[i].label != d.label ||
          (*reference)[i].value != d.value) {
        problems.push_back("digest differs between runs for " + d.label);
        ok = false;
      }
    }
    if (!ok) bad += d.ops;
  }
  return bad;
}

// ---- run record and output ------------------------------------------------

#ifdef __clang__
constexpr const char* kCompiler = "clang " __clang_version__;
#else
constexpr const char* kCompiler = "gcc " __VERSION__;
#endif

struct MetricOut {
  std::string name;
  double value;
  std::string unit;
};

void print_record(const Options& o, std::size_t samples) {
  std::printf(
      "record: {\"workload\": \"%s\", \"trace\": %d, \"smoke\": %s, "
      "\"seed\": %" PRIu64 ", \"samples\": %zu, \"seconds\": %s, "
      "\"nproc\": %ld, \"threads\": %u, \"workers\": %u, "
      "\"build_type\": \"%s\", \"compiler\": \"%s\", \"commit\": \"%s\"}\n",
      o.workload.c_str(), o.trace ? 1 : 0, o.smoke ? "true" : "false",
      o.seed, samples, num(o.seconds).c_str(), sysconf(_SC_NPROCESSORS_ONLN),
      kThreads, kWorkers, BCE_BENCH_BUILD_TYPE, kCompiler, o.commit.c_str());
}

void print_problems(std::vector<std::string> problems) {
  std::sort(problems.begin(), problems.end());
  problems.erase(std::unique(problems.begin(), problems.end()), problems.end());
  const std::size_t shown = std::min<std::size_t>(problems.size(), 20);
  for (std::size_t i = 0; i < shown; ++i) {
    std::printf("problem: %s\n", problems[i].c_str());
  }
  if (problems.size() > shown) {
    std::printf("problem: ... and %zu more\n", problems.size() - shown);
  }
}

/// Human-readable table, then the result object as the last line.
int finish(const Options& o, std::size_t attempted, std::size_t failed,
           const std::vector<std::string>& problems,
           const std::vector<MetricOut>& table,
           const std::vector<MetricOut>& json_metrics) {
  print_problems(problems);
  for (const MetricOut& m : table) {
    std::printf("%-14s %-40s %18.6f %s\n", o.workload.c_str(), m.name.c_str(),
                m.value, m.unit.c_str());
  }
  const bool correct = failed == 0 && problems.empty() && attempted > 0;
  std::string js = std::string("{\"correct\": ") +
                   (correct ? "true" : "false") +
                   ", \"attempted\": " + std::to_string(attempted) +
                   ", \"failed\": " + std::to_string(failed) +
                   ", \"metrics\": {";
  for (std::size_t i = 0; i < json_metrics.size(); ++i) {
    const MetricOut& m = json_metrics[i];
    js += (i ? ", " : "") + std::string("\"") + m.name + "\": {\"value\": " +
          num(m.value) + ", \"unit\": \"" + m.unit + "\"}";
  }
  js += "}}";
  std::printf("%s\n", js.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

// ---- --trace 0: end-to-end metrics ---------------------------------------

int run_end_to_end(const Options& o) {
  const auto committed = load_digests(o.digests);
  std::vector<double> setup_s;
  std::vector<double> makespan_s;
  std::vector<double> cpu_s;
  std::vector<double> days_per_s;
  std::vector<double> host_speed;
  std::vector<std::string> problems;
  std::vector<Digest> first;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  const unsigned parallelism = o.workload == "long_horizon" ? 1 : kThreads;

  Inputs in;
  const auto loop_start = Clock::now();
  for (std::size_t it = 0;; ++it) {
    in = setup(o);
    const double before = host_slowdown(parallelism);
    const double cpu0 = process_cpu_s();
    const auto t0 = Clock::now();
    Outcome out = run_operation(o, in);
    const double wall = seconds_since(t0);
    const double cpu = process_cpu_s() - cpu0;
    const double slowdown = 0.5 * (before + host_slowdown(parallelism));

    host_speed.push_back(1.0 / slowdown);
    makespan_s.push_back(wall / slowdown);
    cpu_s.push_back(cpu / slowdown);
    days_per_s.push_back(in.host_days * slowdown / wall);
    attempted += out.ops;
    std::size_t bad = out.failed;
    bad += check_digests(o, out.digests, it == 0 ? nullptr : &first,
                         committed, out.problems);
    failed += std::min(bad, out.ops);
    problems.insert(problems.end(), out.problems.begin(), out.problems.end());
    if (it == 0) first = out.digests;
    if (seconds_since(loop_start) >= o.seconds || it >= 999) break;
  }
  const double setup_before = setup_slowdown();
  const auto setup_start = Clock::now();
  while (setup_s.size() < kSetupMinReps ||
         seconds_since(setup_start) < kSetupWindow_s) {
    const auto t0 = Clock::now();
    in = setup(o);
    setup_s.push_back(seconds_since(t0));
  }
  const double setup_scale = 0.5 * (setup_before + setup_slowdown());
  if (!in.checkpoint_dir.empty()) {
    std::filesystem::remove_all(in.checkpoint_dir);
  }

  print_record(o, makespan_s.size());
  const double failed_frac =
      static_cast<double>(failed) / static_cast<double>(attempted);
  const std::vector<MetricOut> metrics = {
      {"setup_s", median(setup_s) / setup_scale, "s"},
      {"makespan_s", median(makespan_s), "s"},
      {"sim_days_per_s", median(days_per_s), "host-days/s"},
      {"cpu_s", median(cpu_s), "s"},
      {"peak_rss_mb", peak_rss_mib(), "MiB"},
  };
  std::vector<MetricOut> table = metrics;
  table.push_back({"failed_frac", failed_frac, "ratio"});
  table.push_back({"host_speed", median(host_speed), "x"});
  return finish(o, attempted, failed, problems, table, metrics);
}

// ---- --trace 1: per-layer attribution --------------------------------------

/// Layers the traced run charges time to (module names of the repo).
enum Layer : std::uint8_t {
  kRrSimLayer,
  kJobSchedulerLayer,
  kWorkFetchLayer,
  kTransferLayer,
  kDispatchLayer,
  kLoopLayer,
  kNumLayers,
};

/// Marker -> layer table (README.md, "Attribution"): the layer an event
/// kind closes an interval for.
Layer layer_of(TraceKind k) {
  switch (k) {
    case TraceKind::kRrSimType:
    case TraceKind::kRrSimEndangered:
      return kRrSimLayer;
    case TraceKind::kJobSkippedRam:
    case TraceKind::kJobSkippedCoproc:
    case TraceKind::kSchedulePass:
      return kJobSchedulerLayer;
    case TraceKind::kFetchRequest:
    case TraceKind::kFetchReplyLost:
    case TraceKind::kFetchProjectDown:
    case TraceKind::kFetchBackoff:
      return kWorkFetchLayer;
    case TraceKind::kJobDownloaded:
    case TraceKind::kJobUploaded:
      return kTransferLayer;
    case TraceKind::kServerSent:
    case TraceKind::kServerDown:
    case TraceKind::kServerRefused:
    case TraceKind::kRpcRoundTrip:
    case TraceKind::kRpcReplyLost:
      return kDispatchLayer;
    default:
      return kLoopLayer;
  }
}

/// Exact counts the traced run rebuilds from the event stream.
struct TraceCounts {
  std::array<std::int64_t, kNumTraceKinds> kind{};
  std::int64_t candidates = 0;  ///< sum of schedule_pass.n
  std::int64_t rr_runs = 0;     ///< RR-sim runs seen as marker groups
  std::int64_t queue_sum = 0;   ///< queue length summed over those runs

  void add(const TraceCounts& c) {
    for (std::size_t i = 0; i < kind.size(); ++i) kind[i] += c.kind[i];
    candidates += c.candidates;
    rr_runs += c.rr_runs;
    queue_sum += c.queue_sum;
  }
  [[nodiscard]] std::int64_t of(TraceKind k) const {
    return kind[static_cast<std::size_t>(k)];
  }
};

/// Stamps each event's kind with the steady clock into a preallocated
/// buffer; the checkpoint hook adds step marks. When the buffer fills, the
/// stamps are attributed in place; the flush time is charged to no layer,
/// which is the gap the attribution check bounds.
class StampSink final : public TraceSink {
 public:
  StampSink() { buf_.reserve(kStampCapacity); }

  void begin() { prev_ns_ = begin_ns_ = now_ns(); }
  void on_event(const TraceEvent& ev) override {
    count(ev);
    push(static_cast<std::uint8_t>(ev.kind));
  }
  void mark_step() {
    last_kind_ = TraceKind::kCount_;
    push(kStepMark);
  }
  void end() {
    end_ns_ = now_ns();
    buf_.push_back({end_ns_, kEndMark});  // push() keeps a free slot
    attribute();
  }

  /// Traced wall time from begin() to end().
  [[nodiscard]] double wall_s() const {
    return 1e-9 * static_cast<double>(end_ns_ - begin_ns_);
  }
  [[nodiscard]] const std::array<double, kNumLayers>& self_s() const {
    return self_s_;
  }
  [[nodiscard]] const TraceCounts& counts() const { return counts_; }

 private:
  static constexpr std::uint8_t kStepMark = 0xfe;
  static constexpr std::uint8_t kEndMark = 0xff;

  struct Stamp {
    std::int64_t ns;
    std::uint8_t code;
  };

  void count(const TraceEvent& ev) {
    ++counts_.kind[static_cast<std::size_t>(ev.kind)];
    switch (ev.kind) {
      case TraceKind::kSchedulePass:
        counts_.candidates += ev.n;
        break;
      case TraceKind::kRpcRoundTrip:
        queue_ += ev.m;
        break;
      case TraceKind::kJobCompleted:
      case TraceKind::kJobFaulted:
        --queue_;
        break;
      case TraceKind::kRrSimType:
        if (last_kind_ != TraceKind::kRrSimType) {
          ++counts_.rr_runs;
          counts_.queue_sum += queue_;
        }
        break;
      default:
        break;
    }
    last_kind_ = ev.kind;
  }

  void push(std::uint8_t code) {
    buf_.push_back({now_ns(), code});
    if (buf_.size() == buf_.capacity()) {
      attribute();
      prev_ns_ = now_ns();
    }
  }

  /// Charge each interval to the layer whose stamp closes it. A step mark
  /// closes the step's tail: work fetch when the step scheduled but made
  /// no RPC (work_fetch_pass is all that is left), the loop otherwise.
  void attribute() {
    for (const Stamp& s : buf_) {
      Layer layer = kLoopLayer;
      if (s.code == kStepMark) {
        layer = step_rpc_ || !step_sched_ ? kLoopLayer : kWorkFetchLayer;
        step_rpc_ = step_sched_ = false;
      } else if (s.code != kEndMark) {
        layer = layer_of(static_cast<TraceKind>(s.code));
        if (layer == kDispatchLayer) step_rpc_ = true;
        if (layer == kRrSimLayer || layer == kJobSchedulerLayer) {
          step_sched_ = true;
        }
      }
      self_s_[layer] += 1e-9 * static_cast<double>(s.ns - prev_ns_);
      prev_ns_ = s.ns;
    }
    buf_.clear();
  }

  std::vector<Stamp> buf_;
  std::int64_t begin_ns_ = 0;
  std::int64_t end_ns_ = 0;
  std::int64_t prev_ns_ = 0;
  bool step_rpc_ = false;
  bool step_sched_ = false;
  std::array<double, kNumLayers> self_s_{};
  TraceCounts counts_;
  TraceKind last_kind_ = TraceKind::kCount_;
  std::int64_t queue_ = 0;
};

/// What one replayed emulation reports (untraced or traced).
struct Observation {
  std::uint64_t digest = 0;
  Metrics metrics;
  RrSim::CacheStats rr;
  std::uint64_t jobs = 0;
  std::uint64_t steps = 0;
  double construct_s = 0.0;
  double run_s = 0.0;
  // untraced replay
  std::vector<float> step_us;
  std::uint64_t captures = 0;
  double capture_s = 0.0;
  double frame_bytes = 0.0;
  // traced replay
  std::array<double, kNumLayers> self_s{};
  TraceCounts counts;
};

void record_result(Observation& ob, const EmulationResult& res) {
  ob.digest = metrics_digest(res.metrics);
  ob.metrics = res.metrics;
  ob.rr = res.rr_cache;
  ob.jobs = res.jobs.size();
}

/// How a replay observes its emulation.
enum class Replay : std::uint8_t {
  kPlain,    ///< untraced; times construction, run and every step
  kCapture,  ///< untraced; also captures savestates at the item's period
  kTraced,   ///< every trace category into a StampSink
};

/// Untraced replay: times construction and run, and every step from hook
/// to hook. With \p capture, savestates are captured at the item's period
/// inside the hook, and the capture time is kept out of the step spans and
/// the run time.
Observation replay_untraced(const Item& item, bool capture) {
  Observation ob;
  const auto t0 = Clock::now();
  Emulator em(item.scenario, item.options);
  ob.construct_s = seconds_since(t0);
  double next_mark = item.capture_period;
  std::int64_t last = now_ns();
  em.set_checkpoint_hook([&](Emulator& e) {
    const std::int64_t enter = now_ns();
    ob.step_us.push_back(static_cast<float>(1e-3 * static_cast<double>(enter - last)));
    ++ob.steps;
    if (capture && item.capture_period > 0.0) {
      while (e.now() + kFpEpsilon >= next_mark) {
        next_mark += item.capture_period;
        const auto c0 = Clock::now();
        const std::vector<std::uint8_t> frame = capture_savestate(e);
        ob.capture_s += seconds_since(c0);
        ob.frame_bytes += static_cast<double>(frame.size());
        ++ob.captures;
      }
    }
    last = now_ns();
  });
  const auto t1 = Clock::now();
  const EmulationResult res = em.run();
  ob.run_s = seconds_since(t1) - ob.capture_s;
  record_result(ob, res);
  return ob;
}

/// Traced replay: every category enabled into a StampSink, step marks from
/// the checkpoint hook.
Observation replay_traced(const Item& item) {
  Observation ob;
  StampSink sink;
  Trace trace;
  trace.enable_all();
  trace.add_sink(&sink);
  EmulationOptions opt = item.options;
  opt.trace = &trace;
  const auto t0 = Clock::now();
  Emulator em(item.scenario, opt);
  ob.construct_s = seconds_since(t0);
  em.set_checkpoint_hook([&](Emulator&) {
    ++ob.steps;
    sink.mark_step();
  });
  sink.begin();
  const EmulationResult res = em.run();
  sink.end();
  ob.run_s = sink.wall_s();
  record_result(ob, res);
  ob.self_s = sink.self_s();
  ob.counts = sink.counts();
  return ob;
}

std::vector<Observation> replay_all(const std::vector<Item>& items,
                                    Replay mode) {
  std::vector<Observation> obs(items.size());
  ThreadPool::shared().parallel_for(
      items.size(), kThreads, [&](std::size_t i) {
        obs[i] = mode == Replay::kTraced
                     ? replay_traced(items[i])
                     : replay_untraced(items[i], mode == Replay::kCapture);
      });
  return obs;
}

/// Counts every replay reports, traced or not.
std::vector<std::int64_t> common_counts(const Observation& ob) {
  const Metrics& m = ob.metrics;
  return {static_cast<std::int64_t>(ob.rr.hits),
          static_cast<std::int64_t>(ob.rr.misses),
          static_cast<std::int64_t>(ob.steps),
          static_cast<std::int64_t>(ob.jobs),
          m.n_sched_passes,
          m.n_rpcs,
          m.n_rpcs_lost,
          m.n_jobs_fetched,
          m.n_transfer_retries};
}

/// Counts only a traced replay reports.
std::vector<std::int64_t> trace_counts(const Observation& ob) {
  std::vector<std::int64_t> v(ob.counts.kind.begin(), ob.counts.kind.end());
  v.push_back(ob.counts.candidates);
  v.push_back(ob.counts.rr_runs);
  v.push_back(ob.counts.queue_sum);
  for (const std::int64_t e : ob.metrics.trace_events) v.push_back(e);
  return v;
}

std::vector<Item> items_of(const Options& o, const Inputs& in) {
  std::vector<Item> items;
  if (o.workload != "fleet_faulty") {
    for (const RunSpec& s : in.specs) {
      items.push_back({s.label, s.scenario, s.options, 0.0});
    }
    return items;
  }
  for (const ShardTask& t : in.tasks) {
    for (std::size_t h = 0; h < t.scenario_texts.size(); ++h) {
      EmulationOptions opt;
      opt.policy = t.policy;
      items.push_back({t.label + "#" + std::to_string(h),
                       parse_scenario(t.scenario_texts[h]), opt,
                       t.checkpoint_sim_period});
    }
  }
  return items;
}

/// Fold per-host metrics the way run_shard and the supervisor do: hosts in
/// order within a shard, shards in index order.
Metrics fold_hosts(const std::vector<ShardTask>& tasks,
                   const std::vector<Observation>& obs) {
  Metrics total;
  std::size_t h = 0;
  for (const ShardTask& t : tasks) {
    Metrics shard;
    for (std::size_t i = 0; i < t.scenario_texts.size(); ++i, ++h) {
      Metrics m = obs[h].metrics;
      m.trace_events.fill(0);
      shard.merge(m);
    }
    total.merge(shard);
  }
  return total;
}

/// In-process run_shard of every task on kThreads threads: per-shard wall
/// span, thread CPU and checkpoints written.
struct ShardProbe {
  std::vector<double> wall_s;
  std::vector<double> cpu_s;
  std::uint64_t checkpoints = 0;
  Metrics merged;
};

ShardProbe probe_shards(std::vector<ShardTask> tasks, const std::string& dir) {
  ShardProbe p;
  p.wall_s.assign(tasks.size(), 0.0);
  p.cpu_s.assign(tasks.size(), 0.0);
  std::vector<ShardOutput> outs(tasks.size());
  for (ShardTask& t : tasks) {
    t.checkpoint_path = dir.empty() ? std::string()
                                    : dir + "/inproc-" +
                                          std::to_string(t.shard_index) +
                                          ".bcsp";
  }
  ThreadPool::shared().parallel_for(
      tasks.size(), kThreads, [&](std::size_t i) {
        const double c0 = thread_cpu_s();
        const auto t0 = Clock::now();
        outs[i] = run_shard(tasks[i]);
        p.wall_s[i] = seconds_since(t0);
        p.cpu_s[i] = thread_cpu_s() - c0;
      });
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    p.checkpoints += outs[i].checkpoints_written;
    p.merged.merge(outs[i].merged);
  }
  return p;
}

/// Supervised fan-out over trivial tasks: what spawning kWorkers workers
/// and collecting their results costs with next to no emulation in them.
double probe_spawn_ms(const Options& o, const std::string& dir) {
  Scenario sc = fleet_scenario(o);
  sc.duration = 60.0;
  std::vector<double> ms;
  for (int r = 0; r < 3; ++r) {
    const auto t0 = Clock::now();
    (void)run_sharded(make_replicated_shard_tasks(sc, PolicyConfig{}, kWorkers, 1),
                      fleet_supervisor(dir));
    ms.push_back(1e3 * seconds_since(t0));
  }
  return median(ms);
}

int run_traced(const Options& o) {
  const auto committed = load_digests(o.digests);
  std::vector<std::string> problems;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  const auto fail = [&](const std::string& what) {
    ++failed;
    problems.push_back(what);
  };

  // 1. One end-to-end operation, untraced: the reference outputs and the
  //    makespan/CPU the pool and supervisor metrics are derived from.
  Inputs in = setup(o);
  const std::vector<Item> items = items_of(o, in);
  const double cpu0 = process_cpu_s();
  const auto t0 = Clock::now();
  Outcome op = run_operation(o, in);
  const double makespan = seconds_since(t0);
  const double op_cpu = process_cpu_s() - cpu0;
  attempted += op.ops;
  failed += std::min(op.ops, op.failed + check_digests(o, op.digests, nullptr,
                                                       committed, op.problems));
  problems.insert(problems.end(), op.problems.begin(), op.problems.end());

  // 2. Replays, untraced and traced interleaved so that drift in the
  //    host's speed lands on both sides of the tracing-overhead ratio.
  const bool fleet = o.workload == "fleet_faulty";
  const std::vector<Observation> plain = replay_all(items, Replay::kPlain);
  const std::vector<Observation> traced = replay_all(items, Replay::kTraced);
  const std::vector<Observation> plain2 = replay_all(items, Replay::kPlain);
  const std::vector<Observation> again = replay_all(items, Replay::kTraced);
  const std::vector<Observation> captured =
      fleet ? replay_all(items, Replay::kCapture) : std::vector<Observation>{};
  attempted += 4 * items.size();

  double self_sum = 0.0;
  double attributed_wall = 0.0;
  for (std::size_t i = 0; i < items.size(); ++i) {
    const std::string& label = items[i].label;
    if (o.workload != "fleet_faulty" &&
        (i >= op.digests.size() || plain[i].digest != op.digests[i].value)) {
      fail("replay digest differs from run_batch/run() for " + label);
    }
    if (traced[i].digest != plain[i].digest) {
      fail("traced digest differs from untraced for " + label);
    }
    if (plain2[i].digest != plain[i].digest ||
        common_counts(plain2[i]) != common_counts(plain[i])) {
      fail("two untraced replays differ for " + label);
    }
    if (again[i].digest != plain[i].digest) {
      fail("second traced digest differs from untraced for " + label);
    }
    if (common_counts(traced[i]) != common_counts(plain[i])) {
      fail("traced and untraced counts differ for " + label);
    }
    if (common_counts(again[i]) != common_counts(traced[i]) ||
        trace_counts(again[i]) != trace_counts(traced[i])) {
      fail("counts differ between the two traced runs for " + label);
    }
    double s = 0.0;
    for (const double x : traced[i].self_s) s += x;
    if (std::fabs(s - traced[i].run_s) >
        kAttributionTolerance * traced[i].run_s) {
      fail("layer self times (" + num(s) + " s) do not add up to the "
              "traced wall time (" + num(traced[i].run_s) + " s) for " + label);
    }
    self_sum += s;
    attributed_wall += traced[i].run_s;
  }

  // 3. fleet_faulty: shard-level probes and the in-process reference fold.
  double shard_wall_p50 = 0.0, shard_wall_max = 0.0, checkpoint_ms = 0.0;
  double supervisor_overhead = 0.0, spawn_ms = 0.0;
  double fleet_attempts = 0.0, fleet_checkpoints = 0.0;
  if (fleet) {
    const std::uint64_t want = metrics_digest(op.sharded.merged);
    attempted += 4;
    if (metrics_digest(fold_hosts(in.tasks, plain)) != want ||
        metrics_digest(fold_hosts(in.tasks, captured)) != want) {
      fail("per-host replay fold differs from the subprocess fold");
    }
    SupervisorConfig inline_cfg;
    inline_cfg.n_workers = 0;
    if (metrics_digest(run_sharded(in.tasks, inline_cfg).merged) != want) {
      fail("run_sharded with n_workers = 0 differs from the subprocess fold");
    }
    const ShardProbe with_cp = probe_shards(in.tasks, in.checkpoint_dir);
    const ShardProbe without_cp = probe_shards(in.tasks, "");
    if (metrics_digest(with_cp.merged) != want) {
      fail("in-process run_shard fold (checkpointing) differs");
    }
    if (metrics_digest(without_cp.merged) != want) {
      fail("in-process run_shard fold (no checkpoints) differs");
    }
    spawn_ms = probe_spawn_ms(o, in.checkpoint_dir);
    for (const ShardReport& r : op.sharded.shards) {
      fleet_attempts += r.attempts;
      fleet_checkpoints += static_cast<double>(r.checkpoints);
    }
    shard_wall_p50 = median(with_cp.wall_s);
    shard_wall_max = *std::max_element(with_cp.wall_s.begin(), with_cp.wall_s.end());
    checkpoint_ms = 1e3 * ratio(sum(with_cp.cpu_s) - sum(without_cp.cpu_s),
                                static_cast<double>(with_cp.checkpoints));
    supervisor_overhead =
        makespan - std::max(sum(with_cp.wall_s) / kWorkers, shard_wall_max);
  }
  if (!in.checkpoint_dir.empty()) {
    std::filesystem::remove_all(in.checkpoint_dir);
  }

  // 4. Aggregate.
  std::array<double, kNumLayers> self{};
  TraceCounts counts;
  Metrics m;  // counters summed over the traced replays
  std::uint64_t rr_hits = 0, rr_misses = 0, steps = 0, jobs = 0;
  std::int64_t trace_events = 0;
  for (const Observation& ob : traced) {
    for (std::size_t l = 0; l < kNumLayers; ++l) self[l] += ob.self_s[l];
    counts.add(ob.counts);
    rr_hits += ob.rr.hits;
    rr_misses += ob.rr.misses;
    steps += ob.steps;
    jobs += ob.jobs;
    m.n_sched_passes += ob.metrics.n_sched_passes;
    m.n_rpcs += ob.metrics.n_rpcs;
    m.n_rpcs_lost += ob.metrics.n_rpcs_lost;
    m.n_jobs_fetched += ob.metrics.n_jobs_fetched;
    m.n_transfer_retries += ob.metrics.n_transfer_retries;
    for (const std::int64_t e : ob.metrics.trace_events) trace_events += e;
  }
  std::vector<float> step_us;
  std::vector<double> construct_ms;
  std::vector<double> item_s;  // mean of the two untraced replays
  double plain_wall = 0.0, traced_wall = 0.0;
  for (std::size_t i = 0; i < items.size(); ++i) {
    for (const Observation* ob : {&plain[i], &plain2[i]}) {
      step_us.insert(step_us.end(), ob->step_us.begin(), ob->step_us.end());
      construct_ms.push_back(1e3 * ob->construct_s);
      plain_wall += ob->run_s;
    }
    item_s.push_back(0.5 * (plain[i].construct_s + plain[i].run_s +
                            plain2[i].construct_s + plain2[i].run_s));
    traced_wall += traced[i].run_s + again[i].run_s;
  }
  double captures = 0.0, capture_s = 0.0, frame_bytes = 0.0;
  for (const Observation& ob : captured) {
    captures += static_cast<double>(ob.captures);
    capture_s += ob.capture_s;
    frame_bytes += ob.frame_bytes;
  }
  const bool pool = o.workload == "paper_matrix";
  const double critical = pool ? *std::max_element(item_s.begin(), item_s.end()) : 0.0;
  const double ideal = pool ? sum(item_s) / kThreads : 0.0;
  const double skips = static_cast<double>(counts.of(TraceKind::kJobSkippedRam) +
                                           counts.of(TraceKind::kJobSkippedCoproc));
  const auto cnt = [](auto v) { return static_cast<double>(v); };

  const std::vector<MetricOut> metrics = {
      {"client.rr_sim.runs", cnt(rr_misses), "count"},
      {"client.rr_sim.cache_hit_ratio", ratio(cnt(rr_hits), cnt(rr_hits + rr_misses)), "ratio"},
      {"client.rr_sim.queue_mean", ratio(cnt(counts.queue_sum), cnt(counts.rr_runs)), "jobs"},
      {"client.rr_sim.self_s", self[kRrSimLayer], "s"},
      {"client.rr_sim.us_per_run", 1e6 * ratio(self[kRrSimLayer], cnt(rr_misses)), "us"},
      {"client.job_scheduler.passes", cnt(m.n_sched_passes), "count"},
      {"client.job_scheduler.candidates_per_pass",
       ratio(cnt(counts.candidates), cnt(counts.of(TraceKind::kSchedulePass))), "jobs"},
      {"client.job_scheduler.skip_ratio", ratio(skips, cnt(counts.candidates)), "ratio"},
      {"client.job_scheduler.self_s", self[kJobSchedulerLayer], "s"},
      {"client.work_fetch.requests", cnt(counts.of(TraceKind::kFetchRequest)), "count"},
      {"client.work_fetch.backoffs",
       cnt(counts.of(TraceKind::kFetchBackoff) + counts.of(TraceKind::kFetchProjectDown) +
           counts.of(TraceKind::kFetchReplyLost)),
       "count"},
      {"client.work_fetch.self_s", self[kWorkFetchLayer], "s"},
      {"client.transfer.downloads", cnt(counts.of(TraceKind::kJobDownloaded)), "count"},
      {"client.transfer.retries", cnt(m.n_transfer_retries), "count"},
      {"client.transfer.self_s", self[kTransferLayer], "s"},
      {"server.dispatch.rpcs", cnt(m.n_rpcs), "count"},
      {"server.dispatch.jobs_per_rpc", ratio(cnt(m.n_jobs_fetched), cnt(m.n_rpcs)), "jobs"},
      {"server.dispatch.rpcs_lost", cnt(m.n_rpcs_lost), "count"},
      {"server.dispatch.self_s", self[kDispatchLayer], "s"},
      {"core.emulator.steps", cnt(steps), "count"},
      {"core.emulator.step_p50_us", percentile(step_us, 0.50), "us"},
      {"core.emulator.step_p99_us", percentile(step_us, 0.99), "us"},
      {"core.emulator.loop_self_s", self[kLoopLayer], "s"},
      {"core.emulator.jobs_retained", cnt(jobs), "count"},
      {"core.emulator.construct_ms", median(construct_ms), "ms"},
      {"sim.thread_pool.util", pool ? op_cpu / (makespan * kThreads) : 0.0, "ratio"},
      {"sim.thread_pool.critical_item_s", critical, "s"},
      {"sim.thread_pool.ideal_s", ideal, "s"},
      {"sim.thread_pool.balance_loss_s", pool ? makespan - std::max(ideal, critical) : 0.0, "s"},
      {"core.savestate.frame_bytes", ratio(frame_bytes, captures), "B"},
      {"core.savestate.capture_ms", 1e3 * ratio(capture_s, captures), "ms"},
      {"fleet.shard.checkpoints", fleet_checkpoints, "count"},
      {"fleet.shard.checkpoint_ms", checkpoint_ms, "ms"},
      {"fleet.shard.wall_p50_s", shard_wall_p50, "s"},
      {"fleet.shard.wall_max_s", shard_wall_max, "s"},
      {"fleet.supervisor.attempts", fleet_attempts, "count"},
      {"fleet.supervisor.spawn_ms", spawn_ms, "ms"},
      {"fleet.supervisor.overhead_s", supervisor_overhead, "s"},
      {"sim.trace.events", cnt(trace_events), "count"},
      {"sim.trace.overhead_frac", ratio(traced_wall, plain_wall) - 1.0, "ratio"},
  };

  print_record(o, items.size());
  std::printf("attribution: layer self times sum to %.6f s of %.6f s traced "
              "wall (tolerance %.0f%% per emulation)\n",
              self_sum, attributed_wall, 100.0 * kAttributionTolerance);
  return finish(o, attempted, failed, problems, metrics, metrics);
}

// ---- --print-digests ------------------------------------------------------

int print_digests(Options o) {
  std::printf("# Figures-of-merit digests for the default seed (%" PRIu64
              "): workload mode label fnv1a64.\n"
              "# Regenerate with: python3 perfbench/run.py --print-digests\n",
              kDefaultSeed);
  for (const bool smoke : {false, true}) {
    o.smoke = smoke;
    o.seed = kDefaultSeed;
    for (const char* w : kWorkloads) {
      o.workload = w;
      Inputs in = setup(o);
      const Outcome out = run_operation(o, in);
      if (!in.checkpoint_dir.empty()) {
        std::filesystem::remove_all(in.checkpoint_dir);
      }
      if (out.failed != 0) {
        print_problems(out.problems);
        return 1;
      }
      for (const Digest& d : out.digests) {
        std::printf("%s %s %s %s\n", w, smoke ? "smoke" : "full",
                    d.label.c_str(), hex(d.value).c_str());
      }
    }
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  // run_sharded re-executes this binary as its worker subprocess.
  if (const std::optional<int> rc = bce::maybe_run_shard_worker(argc, argv)) {
    return *rc;
  }
  const Options o = parse_args(argc, argv);
#ifndef NDEBUG
  std::fprintf(stderr, "bce_bench: refusing to measure a build with assertions "
                       "enabled (build type %s); configure Release\n",
               BCE_BENCH_BUILD_TYPE);
  return 2;
#endif
  if (std::string(BCE_BENCH_BUILD_TYPE) != "Release") {
    std::fprintf(stderr, "bce_bench: refusing a %s build; configure Release\n",
                 BCE_BENCH_BUILD_TYPE);
    return 2;
  }
  try {
    if (o.print_digests) return print_digests(o);
    return o.trace ? run_traced(o) : run_end_to_end(o);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bce_bench: %s\n", e.what());
    return 1;
  }
}
