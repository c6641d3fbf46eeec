// perfbench_kite: runs one fleet workload for a host-time budget and writes
// its measurements as JSON (perfbench/run.py turns them into the benchmark's
// result line).
//
//   perfbench_kite --workload udp_bulk --seed 1 --seconds 10 --out r.json [--traced]
//
// A run is a sequence of rounds. Each round builds a fresh system from a
// seed derived from --seed, sets it up (timed on the host wall clock,
// warm-up included), then runs the workload's fixed timed window (host CPU
// time of this process). Rounds repeat until the budget is spent. A round
// that repeats an earlier round's seed must give the same simulated results;
// one that differs fails the run.
//
// --traced turns on the accounting-only instruments (CPU ledgers, TCP
// counters, the benchmark's own spans) and reads the per-layer metrics. In a
// -pg build, gprof records only inside the timed windows.
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <cstdio>
#include <map>
#include <vector>

#include "perfbench/bench.h"
#include "perfbench/layers.h"

#ifdef PERFBENCH_GPROF
// glibc's profiling switch (exported by libc, not declared in <sys/gmon.h>):
// stops and restarts both PC sampling and call-arc counting.
extern "C" void moncontrol(int mode);
#endif

namespace perfbench {
namespace {

void Profile(bool on) {
#ifdef PERFBENCH_GPROF
  moncontrol(on ? 1 : 0);
#else
  (void)on;
#endif
}

int64_t ProcessCpuNs() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

// Host-clock metrics are scaled to a reference machine speed. On a shared
// host the CPU speed one process gets drifts as neighbours come and go (by up
// to a quarter within minutes on a 4-core virtual machine). Timing a fixed
// CPU workload owned by the benchmark (tree updates, allocation, copies) next
// to each measurement and scaling by kReferenceCalibrationNs / its time
// cancels that drift; a change to the program cannot change the calibration
// workload.
constexpr double kReferenceCalibrationNs = 25e6;

// CPU time of one pass of the calibration workload.
double CalibrationPassNs() {
  const int64_t t0 = ProcessCpuNs();
  std::map<uint64_t, std::vector<uint8_t>> table;
  SeededRng rng(42);
  uint64_t sum = 0;
  for (int i = 0; i < 40000; ++i) {
    const uint64_t key = rng.Below(4096);
    std::vector<uint8_t>& v = table[key];
    v.assign(256 + (key % 16) * 256, static_cast<uint8_t>(i));
    const std::vector<uint8_t> copy = v;
    sum += copy[key % copy.size()];
    if (i % 3 == 0) {
      table.erase(rng.Below(4096));
    }
  }
  const int64_t t1 = ProcessCpuNs();
  volatile uint64_t sink = sum;  // Keeps the work observable.
  (void)sink;
  return static_cast<double>(t1 - t0);
}

// The faster of two passes, which discounts a hiccup inside one pass.
double CalibrationNs() { return std::min(CalibrationPassNs(), CalibrationPassNs()); }

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool traced = false;
  std::string out;
};

using Metrics = std::map<std::string, double>;

// The simulated metrics pool this many rounds, each with its own seed derived
// from --seed, so that every workload has enough samples for its p99 (one
// churn round is only 300 lifecycles). Later rounds repeat the same seeds.
constexpr int kSeedRounds = 4;

uint64_t RoundSeed(uint64_t seed, int round) {
  return Mix64(seed * 0x9e3779b97f4a7c15ULL + static_cast<uint64_t>(round % kSeedRounds));
}

struct Round {
  // Raw host measurements, and the calibration times just before set-up and
  // just after teardown (while no system is alive, so the calibration's
  // memory does not add to the peak RSS).
  double setup_s = 0;
  double host_ns_per_op = 0;
  int64_t window_cpu_ns = 0;
  double calib_before_ns = 0;
  double calib_after_ns = 0;
  WindowResult result;
  uint64_t steps = 0;
  Metrics exact;  // Simulated metrics of this round alone: repeat exactly.
  Metrics host;   // Set-up costs read in the traced run.
};

// Nearest-rank percentile of sorted samples; sets *beyond to the number of
// samples strictly above the returned rank.
int64_t Percentile(const std::vector<int64_t>& sorted, double p, uint64_t* beyond) {
  const size_t n = sorted.size();
  size_t rank = static_cast<size_t>(std::ceil(p / 100.0 * static_cast<double>(n)));
  rank = std::clamp<size_t>(rank, 1, n);
  if (beyond != nullptr) {
    *beyond = n - rank;
  }
  return sorted[rank - 1];
}

// The end-to-end simulated metrics of a set of windows, pooled.
Metrics SimMetrics(const std::vector<const Round*>& rounds, uint64_t* p99_beyond) {
  std::vector<int64_t> lat;
  double sim_ns = 0;
  double busy_ns = 0;
  double attempted = 0;
  double failed = 0;
  double steps = 0;
  for (const Round* r : rounds) {
    lat.insert(lat.end(), r->result.latency_ns.begin(), r->result.latency_ns.end());
    sim_ns += static_cast<double>(r->result.sim_end_ns - r->result.sim_start_ns);
    busy_ns += static_cast<double>(r->result.driver_busy_ns);
    attempted += static_cast<double>(r->result.attempted);
    failed += static_cast<double>(r->result.failed);
    steps += static_cast<double>(r->steps);
  }
  std::sort(lat.begin(), lat.end());
  const double ops = static_cast<double>(lat.size());
  Metrics m;
  m["sim_ops_per_s"] = ops / (sim_ns / 1e9);
  m["sim_p50_us"] = static_cast<double>(Percentile(lat, 50, nullptr)) / 1000.0;
  m["sim_p99_us"] = static_cast<double>(Percentile(lat, 99, p99_beyond)) / 1000.0;
  m["sim_driver_cpu_ns_per_op"] = busy_ns / ops;
  m["ok_ratio"] = (attempted - failed) / attempted;
  m["sim.events_per_op"] = steps / ops;
  return m;
}

Round RunRound(const Options& opt, int index, Spans* spans, LayerProbe* probe) {
  WorkloadConfig config;
  config.seed = RoundSeed(opt.seed, index);
  config.traced = opt.traced;
  config.spans = spans;
  std::unique_ptr<Workload> (*make)(const WorkloadConfig&) = nullptr;
  if (opt.workload == "udp_bulk") {
    make = MakeUdpBulk;
  } else if (opt.workload == "kv_fleet") {
    make = MakeKvFleet;
  } else if (opt.workload == "blk_mixed") {
    make = MakeBlkMixed;
  } else if (opt.workload == "guest_churn") {
    make = MakeGuestChurn;
  } else {
    Fatal("unknown workload " + opt.workload);
  }

  Round r;
  r.calib_before_ns = CalibrationNs();
  const int64_t setup_start = HostNowNs();
  std::unique_ptr<Workload> w = make(config);
  w->Setup();
  r.setup_s = static_cast<double>(HostNowNs() - setup_start) / 1e9;

  if (probe != nullptr) {
    probe->Begin(*w);
  }
  const uint64_t steps0 = w->sys().executor().steps_executed();
  const int64_t cpu0 = ProcessCpuNs();
  Profile(true);
  w->RunWindow();
  Profile(false);
  const int64_t cpu1 = ProcessCpuNs();
  r.steps = w->sys().executor().steps_executed() - steps0;
  r.result = w->result();
  const uint64_t done = r.result.latency_ns.size();
  if (done == 0) {
    Fatal("no op of the window completed");
  }
  r.window_cpu_ns = cpu1 - cpu0;
  r.host_ns_per_op = static_cast<double>(cpu1 - cpu0) / static_cast<double>(done);
  r.exact = SimMetrics({&r}, nullptr);
  if (probe != nullptr) {
    probe->End(*w, done);
    if (w->vifs_attached > 0) {
      r.host["netdrv.rss_kb_per_vif"] =
          static_cast<double>(w->vif_rss_kb) / w->vifs_attached;
    }
    if (w->vbds_attached > 0) {
      r.host["blkdrv.rss_kb_per_vbd"] =
          static_cast<double>(w->vbd_rss_kb) / w->vbds_attached;
    }
    r.host["core.setup_bringup_ms_per_guest"] =
        static_cast<double>(w->bringup_host_ns) / 1e6 / w->guests_brought_up;
  }
  w.reset();
  r.calib_after_ns = CalibrationNs();
  return r;
}

// Compares a round's exact metrics with those of the earlier round that had
// the same seed; returns a description of the first difference.
std::string CompareExact(const Metrics& first, const Metrics& later, int first_round,
                         int later_round) {
  for (const auto& [name, value] : first) {
    auto it = later.find(name);
    if (it == later.end() || it->second != value) {
      char buf[256];
      std::snprintf(buf, sizeof(buf), "%s is %.17g in round %d but %.17g in round %d",
                    name.c_str(), value, first_round + 1,
                    it == later.end() ? 0.0 : it->second, later_round + 1);
      return buf;
    }
  }
  return "";
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

void WriteMetrics(FILE* f, const char* key, const Metrics& m) {
  std::fprintf(f, "  \"%s\": {", key);
  const char* sep = "";
  for (const auto& [name, value] : m) {
    std::fprintf(f, "%s\n    %s: %.17g", sep, JsonString(name).c_str(), value);
    sep = ",";
  }
  std::fprintf(f, "\n  },\n");
}

void WriteList(FILE* f, const char* key, const std::vector<double>& values) {
  std::fprintf(f, "  \"%s\": [", key);
  for (size_t i = 0; i < values.size(); ++i) {
    std::fprintf(f, "%s%.17g", i == 0 ? "" : ", ", values[i]);
  }
  std::fprintf(f, "],\n");
}

int Main(const Options& opt) {
  Profile(false);  // gprof records only inside timed windows.
  Spans spans(opt.traced);
  LayerProbe probe;
  std::vector<Round> rounds;
  std::string determinism_error;
  const int64_t start = HostNowNs();
  const int64_t budget = static_cast<int64_t>(opt.seconds * 1e9);
  int64_t last_round_ns = 0;
  // The traced run profiles exactly the seed rounds, so its per-op counts
  // cover the same windows as the pooled simulated metrics.
  while (static_cast<int>(rounds.size()) < kSeedRounds ||
         (!opt.traced && HostNowNs() - start + last_round_ns <= budget)) {
    const int index = static_cast<int>(rounds.size());
    const int64_t round_start = HostNowNs();
    rounds.push_back(RunRound(opt, index, &spans, opt.traced ? &probe : nullptr));
    last_round_ns = HostNowNs() - round_start;
    if (index >= kSeedRounds && determinism_error.empty()) {
      determinism_error = CompareExact(rounds[index % kSeedRounds].exact,
                                       rounds.back().exact, index % kSeedRounds, index);
    }
  }

  std::vector<const Round*> seed_rounds;
  for (int i = 0; i < kSeedRounds; ++i) {
    seed_rounds.push_back(&rounds[i]);
  }
  uint64_t p99_beyond = 0;
  Metrics sim = SimMetrics(seed_rounds, &p99_beyond);
  uint64_t samples = 0;
  int64_t seed_window_cpu_ns = 0;
  for (const Round* r : seed_rounds) {
    samples += r->result.latency_ns.size();
    seed_window_cpu_ns += r->window_cpu_ns;
  }
  Metrics counts;
  counts["sim.events_per_op"] = sim["sim.events_per_op"];
  sim.erase("sim.events_per_op");
  if (opt.traced) {
    for (const auto& [name, value] : probe.Report()) {
      counts[name] = value;
    }
  }

  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t mismatches = 0;
  std::string first_mismatch;
  // Host-clock values, raw and scaled to the reference speed. The first
  // round also pays the process's own warm-up (heap growth, lazy binding), so
  // the medians run.py takes skip it.
  std::vector<double> setup_s;
  std::vector<double> host_ns_per_op;
  std::vector<double> raw_setup_s;
  std::vector<double> raw_host_ns_per_op;
  for (const Round& r : rounds) {
    attempted += r.result.attempted;
    failed += r.result.failed;
    mismatches += r.result.mismatches;
    if (first_mismatch.empty()) {
      first_mismatch = r.result.first_mismatch;
    }
    const double window_speed =
        2 * kReferenceCalibrationNs / (r.calib_before_ns + r.calib_after_ns);
    setup_s.push_back(r.setup_s * kReferenceCalibrationNs / r.calib_before_ns);
    host_ns_per_op.push_back(r.host_ns_per_op * window_speed);
    raw_setup_s.push_back(r.setup_s);
    raw_host_ns_per_op.push_back(r.host_ns_per_op);
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);

  // RSS deltas come from the first round, which allocates fresh memory.
  Metrics host = rounds[0].host;
  for (const auto& [name, s] : spans.all()) {
    if (s.calls > 0) {
      host[name + "_ns"] = static_cast<double>(s.host_ns) / static_cast<double>(s.calls);
      host[name + "_sim_ns"] = static_cast<double>(s.sim_ns) / static_cast<double>(s.calls);
    }
  }

  FILE* f = std::fopen(opt.out.c_str(), "w");
  if (f == nullptr) {
    Fatal("cannot write " + opt.out);
  }
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"workload\": %s,\n", JsonString(opt.workload).c_str());
  std::fprintf(f, "  \"seed\": %llu,\n", static_cast<unsigned long long>(opt.seed));
  std::fprintf(f, "  \"traced\": %s,\n", opt.traced ? "true" : "false");
  std::fprintf(f, "  \"rounds\": %zu,\n", rounds.size());
  std::fprintf(f, "  \"samples\": %llu,\n", static_cast<unsigned long long>(samples));
  std::fprintf(f, "  \"p99_beyond\": %llu,\n", static_cast<unsigned long long>(p99_beyond));
  std::fprintf(f, "  \"seed_window_cpu_s\": %.17g,\n",
               static_cast<double>(seed_window_cpu_ns) / 1e9);
  std::fprintf(f, "  \"attempted\": %llu,\n", static_cast<unsigned long long>(attempted));
  std::fprintf(f, "  \"failed\": %llu,\n", static_cast<unsigned long long>(failed));
  std::fprintf(f, "  \"mismatches\": %llu,\n", static_cast<unsigned long long>(mismatches));
  std::fprintf(f, "  \"first_mismatch\": %s,\n", JsonString(first_mismatch).c_str());
  std::fprintf(f, "  \"determinism_error\": %s,\n", JsonString(determinism_error).c_str());
  std::fprintf(f, "  \"peak_rss_mb\": %.17g,\n", static_cast<double>(usage.ru_maxrss) / 1024.0);
  WriteList(f, "setup_s", setup_s);
  WriteList(f, "host_ns_per_op", host_ns_per_op);
  WriteList(f, "raw_setup_s", raw_setup_s);
  WriteList(f, "raw_host_ns_per_op", raw_host_ns_per_op);
  WriteMetrics(f, "sim", sim);
  WriteMetrics(f, "counts", counts);
  WriteMetrics(f, "host", host);
  std::fprintf(f, "  \"end\": true\n}\n");
  std::fclose(f);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) {
        perfbench::Fatal("missing value for " + arg);
      }
      return argv[++i];
    };
    if (arg == "--workload") {
      opt.workload = value();
    } else if (arg == "--seed") {
      opt.seed = std::stoull(value());
    } else if (arg == "--seconds") {
      opt.seconds = std::stod(value());
    } else if (arg == "--out") {
      opt.out = value();
    } else if (arg == "--traced") {
      opt.traced = true;
    } else {
      perfbench::Fatal("unknown argument " + arg);
    }
  }
  if (opt.workload.empty() || opt.out.empty()) {
    perfbench::Fatal("usage: perfbench_kite --workload W --seed N --seconds S --out FILE "
                     "[--traced]");
  }
  return perfbench::Main(opt);
}
