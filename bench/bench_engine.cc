// Event-engine throughput: the timer-wheel executor vs the pre-PR binary
// heap, measured in the same binary so BENCH_engine.json always records the
// speedup against a live baseline (bench/legacy_executor.h), not a number
// remembered from an older commit.
//
// Micro workloads (both engines, timed over the dispatch loop only):
//   timers      — self-reposting timers with pseudo-random delays; the
//                 32-byte callback forces a heap allocation per event on the
//                 legacy std::function path and stays inline on the new one.
//   burst       — same-timestamp bursts (one wheel slot per round): isolates
//                 batched dispatch; the tiny callback fits inline in both
//                 engines, so allocation plays no part.
//   coro        — coroutine sleep/resume chains (the driver-thread pattern),
//                 each sleeper resumed from a posted callback, which is the
//                 shape of a BMK wake.
//   mixed       — timers + bursts + a bounded daemon probe + far-future
//                 events that exercise the overflow heap.
//   scale       — the headline: the paper-scale profile (ROADMAP item 4) of
//                 a multi-thousand-guest run — millions of parked timeouts
//                 (idle guests' watchdogs and timers) under 4k active timers.
//                 Every legacy push/pop sifts through the whole cold heap;
//                 the wheel never touches parked events until they are due.
// Telemetry workload (new engine only): the timer shape again but bumping
// registry counters through tagged sites, run with the dispatch profiler +
// 1 ms MetricSampler on and off — `telemetry_overhead_percent` is the price
// of turning continuous telemetry on (CI bounds it at 10%).
// Macro workload (new engine only): a fig06-style multi-guest ping sweep
// through the full hypervisor/driver-domain stack (profiled; its top-site
// table prints after the run), reported as events/sec.
//
// Flags: --events=N (per micro workload), --parked=N (scale workload),
//        --guests=N --pings=N (macro), --skip-macro.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <coroutine>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench/common.h"
#include "bench/legacy_executor.h"
#include "src/obs/metrics.h"
#include "src/obs/profile.h"
#include "src/obs/sampler.h"
#include "src/sim/cpu.h"
#include "src/sim/executor.h"

namespace kite {
namespace {

struct BenchConfig {
  uint64_t events = 2000000;
  uint64_t parked = 4000000;
};

double DrainSeconds(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

// --- Micro workloads, templated over the engine. -------------------------

// 32-byte self-reposting functor: above the 16-byte std::function SBO
// threshold (heap per post on the legacy engine), inside the 64-byte inline
// slot of the new one — the size class of real driver callbacks.
template <typename E>
struct TimerCb {
  E* ex;
  uint64_t* fired;
  uint64_t limit;
  uint64_t state;
  void operator()() {
    if (++*fired >= limit) {
      return;
    }
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    ex->PostAfter(Nanos(100 + static_cast<int64_t>((state >> 33) % 10000)), *this);
  }
};

struct CountCb {  // 8 bytes: inline in both engines.
  uint64_t* fired;
  void operator()() { ++*fired; }
};

// 32-byte parked timeout that never fires during the measured window.
struct ParkedCb {
  uint64_t pad[4] = {};
  void operator()() {}
};

template <typename E>
double RunTimers(const BenchConfig& cfg) {
  E ex;
  uint64_t fired = 0;
  for (int i = 0; i < 512; ++i) {
    ex.PostAfter(Nanos(100 + i),
                 TimerCb<E>{&ex, &fired, cfg.events, 0x9e3779b97f4a7c15ULL * (i + 1)});
  }
  const auto t0 = std::chrono::steady_clock::now();
  while (fired < cfg.events) {
    ex.Step();
  }
  return static_cast<double>(fired) / DrainSeconds(t0);
}

template <typename E>
double RunScale(const BenchConfig& cfg) {
  E ex;
  uint64_t fired = 0;
  // Parked population: timeouts far in the future, seeded before timing.
  for (uint64_t i = 0; i < cfg.parked; ++i) {
    ex.PostAfter(Seconds(100) + Nanos(static_cast<int64_t>(i)), ParkedCb{});
  }
  for (int i = 0; i < 4096; ++i) {
    ex.PostAfter(Nanos(100 + i),
                 TimerCb<E>{&ex, &fired, cfg.events, 0x9e3779b97f4a7c15ULL * (i + 1)});
  }
  const auto t0 = std::chrono::steady_clock::now();
  while (fired < cfg.events) {
    ex.Step();
  }
  return static_cast<double>(fired) / DrainSeconds(t0);
}

template <typename E>
struct BurstDriver {
  E* ex;
  uint64_t* fired;
  uint64_t rounds;
  int width;
  void operator()() {
    if (rounds-- == 0) {
      return;
    }
    const SimTime t = ex->Now() + Micros(1);
    for (int i = 0; i < width; ++i) {
      ex->PostAt(t, CountCb{fired});
    }
    ex->PostAt(t, *this);  // Runs after the burst it just posted (FIFO).
  }
};

template <typename E>
double RunBurst(const BenchConfig& cfg) {
  E ex;
  uint64_t fired = 0;
  const int kWidth = 256;
  ex.Post(BurstDriver<E>{&ex, &fired, cfg.events / kWidth, kWidth});
  const auto t0 = std::chrono::steady_clock::now();
  ex.RunUntilIdle();
  return static_cast<double>(fired) / DrainSeconds(t0);
}

struct MiniTask {
  struct promise_type {
    MiniTask get_return_object() { return {}; }
    std::suspend_never initial_suspend() { return {}; }
    std::suspend_never final_suspend() noexcept { return {}; }
    void return_void() {}
    void unhandled_exception() { std::abort(); }
  };
};

template <typename E>
struct SleepAwaiter {
  E* ex;
  SimDuration d;
  bool await_ready() const { return false; }
  void await_suspend(std::coroutine_handle<> h) {
    ex->PostAfter(d, [h] { h.resume(); });
  }
  void await_resume() const {}
};

template <typename E>
MiniTask Sleeper(E* ex, uint64_t hops, uint64_t seed, uint64_t* resumed) {
  uint64_t state = seed;
  for (uint64_t i = 0; i < hops; ++i) {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    co_await SleepAwaiter<E>{ex, Nanos(50 + static_cast<int64_t>((state >> 40) % 5000))};
    ++*resumed;
  }
}

template <typename E>
double RunCoro(const BenchConfig& cfg) {
  E ex;
  uint64_t resumed = 0;
  const int kCoros = 256;
  for (int i = 0; i < kCoros; ++i) {
    Sleeper<E>(&ex, cfg.events / kCoros, 0x2545f4914f6cdd1dULL * (i + 1), &resumed);
  }
  const auto t0 = std::chrono::steady_clock::now();
  ex.RunUntilIdle();
  return static_cast<double>(resumed) / DrainSeconds(t0);
}

template <typename E>
struct DaemonCb {
  E* ex;
  uint64_t* fired;
  uint64_t remaining;
  void operator()() {
    ++*fired;
    if (--remaining > 0) {
      ex->PostDaemonAfter(Micros(10), *this);
    }
  }
};

template <typename E>
double RunMixed(const BenchConfig& cfg) {
  E ex;
  uint64_t fired = 0;
  const uint64_t events = cfg.events;
  ex.PostDaemonAfter(Micros(10), DaemonCb<E>{&ex, &fired, events / 20});
  for (int i = 0; i < 256; ++i) {
    ex.PostAfter(Nanos(100 + i),
                 TimerCb<E>{&ex, &fired, events / 2, 0x9e3779b97f4a7c15ULL * (i + 1)});
    // Far-future events: past the 2^42 ns wheel horizon (overflow heap).
    ex.PostAfter(Seconds(5000 + i), CountCb{&fired});
  }
  ex.Post(BurstDriver<E>{&ex, &fired, events / 2 / 256, 256});
  const auto t0 = std::chrono::steady_clock::now();
  ex.RunUntilIdle();  // Drains through the far-future tail via promotion.
  return static_cast<double>(fired) / DrainSeconds(t0);
}

// --- Telemetry overhead: the same timer workload, instrumented. -----------

// 40-byte self-reposting timer that bumps a registry counter each firing and
// reposts through a tagged site — the shape of an instrumented driver
// callback. New engine only (the legacy one has no sites or profiler).
struct TelemetryCb {
  Executor* ex;
  uint64_t* fired;
  uint64_t limit;
  uint64_t state;
  Counter* counter;
  void operator()() {
    counter->Inc();
    if (++*fired >= limit) {
      return;
    }
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    ex->PostAfter(Nanos(100 + static_cast<int64_t>((state >> 33) % 10000)),
                  KITE_POST_SITE("bench/telemetry-timer"), *this);
  }
};

// With `enabled` the dispatch profiler runs at its default sampling rate and
// a MetricSampler ticks every simulated millisecond; without, both stay at
// their pointer-test-disabled cost. Everything else — sites registered,
// counters bumped, identical schedule — is shared, so the rate difference is
// the price of turning telemetry on (CI keeps it loose: within 10%).
double RunTelemetry(const BenchConfig& cfg, bool enabled) {
  Executor ex;
  MetricRegistry metrics;
  SamplerParams sp;
  sp.period = Millis(1);
  MetricSampler sampler(&ex, &metrics, sp);
  if (enabled) {
    ex.EnableDispatchProfiler();
    sampler.Start();
  }
  uint64_t fired = 0;
  for (int i = 0; i < 512; ++i) {
    ex.PostAfter(Nanos(100 + i),
                 TelemetryCb{&ex, &fired, cfg.events, 0x9e3779b97f4a7c15ULL * (i + 1),
                             metrics.counter("bench", "telemetry",
                                             "c" + std::to_string(i % 8))});
  }
  const auto t0 = std::chrono::steady_clock::now();
  while (fired < cfg.events) {
    ex.Step();
  }
  const double rate = static_cast<double>(fired) / DrainSeconds(t0);
  if (enabled) {
    sampler.Stop();
  }
  return rate;
}

// --- Attribution overhead: the same timer shape, charging a vCPU. ---------

// Self-reposting timer that bumps a registry counter and charges a vCPU
// inside a CpuScope each firing — TelemetryCb's instrumented-driver-callback
// shape once CPU attribution (DESIGN.md §16) is in the Charge path. Run with
// the ledger on vs off; the off cost is Charge's single pointer test.
struct AttributionCb {
  Executor* ex;
  Vcpu* cpu;
  uint64_t* fired;
  uint64_t limit;
  uint64_t state;
  Counter* counter;
  void operator()() {
    static const CpuCategory* const kCats[4] = {
        KITE_CPU_CATEGORY("bench/attr-a"), KITE_CPU_CATEGORY("bench/attr-b"),
        KITE_CPU_CATEGORY("bench/attr-c"), KITE_CPU_CATEGORY("bench/attr-d")};
    counter->Inc();
    {
      // ~2 ns of work per ~10 ns of aggregate timer spacing: the vCPU has
      // headroom, so charges take the ledger's uncontended (zero-wait) path
      // — the overwhelmingly common case in real runs.
      CpuScope scope(kCats[state & 3]);
      cpu->Charge(Nanos(2));
    }
    if (++*fired >= limit) {
      return;
    }
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    ex->PostAfter(Nanos(100 + static_cast<int64_t>((state >> 33) % 10000)),
                  KITE_POST_SITE("bench/attr-timer"), *this);
  }
};

double RunAttribution(const BenchConfig& cfg, bool enabled) {
  Executor ex;
  MetricRegistry metrics;
  Vcpu cpu(&ex);
  if (enabled) {
    cpu.EnableAttribution();
  }
  uint64_t fired = 0;
  for (int i = 0; i < 512; ++i) {
    ex.PostAfter(Nanos(100 + i),
                 KITE_POST_SITE("bench/attr-seed"),
                 AttributionCb{&ex, &cpu, &fired, cfg.events,
                               0x9e3779b97f4a7c15ULL * (i + 1),
                               metrics.counter("bench", "attr",
                                               "c" + std::to_string(i % 8))});
  }
  const auto t0 = std::chrono::steady_clock::now();
  while (fired < cfg.events) {
    ex.Step();
  }
  return static_cast<double>(fired) / DrainSeconds(t0);
}

// --- Macro: fig06-style multi-guest sweep on the real stack. --------------

double RunMacro(int guests, int pings_per_guest, uint64_t* steps_out,
                std::string* profile_table) {
  KiteSystem sys;
  // The macro runs profiled: its dispatch-time table shows where a full-stack
  // run spends its time, and the sampling profiler's cost is part of the
  // honest events/sec number.
  sys.executor().EnableDispatchProfiler();
  DriverDomainConfig config;
  config.os = OsKind::kKiteRumprun;
  NetworkDomain* netdom = sys.CreateNetworkDomain(config);
  std::vector<Ipv4Addr> ips;
  const auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < guests; ++i) {
    GuestVm* guest = sys.CreateGuest(StrFormat("guest-%d", i));
    const Ipv4Addr ip =
        Ipv4Addr::FromOctets(10, 0, static_cast<uint8_t>(1 + i / 250),
                             static_cast<uint8_t>(1 + i % 250));
    sys.AttachVif(guest, netdom, ip);
    if (!sys.WaitConnected(guest)) {
      std::fprintf(stderr, "FATAL: guest %d failed to connect\n", i);
      std::abort();
    }
    ips.push_back(ip);
  }
  int done = 0;
  const int total = guests * pings_per_guest;
  for (int round = 0; round < pings_per_guest; ++round) {
    for (const Ipv4Addr& ip : ips) {
      sys.client()->stack()->Ping(ip, 56, [&done](bool, SimDuration) { ++done; });
    }
    sys.WaitUntil([&] { return done == (round + 1) * guests; }, Seconds(30));
  }
  if (done != total) {
    std::fprintf(stderr, "FATAL: macro pings incomplete (%d/%d)\n", done, total);
    std::abort();
  }
  *steps_out = sys.executor().steps_executed();
  *profile_table = FormatDispatchProfile(sys.executor());
  return static_cast<double>(*steps_out) / DrainSeconds(t0);
}

// One legacy + one wheel pass back-to-back, three rounds, keep the round
// with the median speedup: pairing makes machine-load drift hit both
// engines alike instead of skewing whichever ran during the slow phase.
struct Measured {
  double legacy;
  double wheel;
  double speedup() const { return wheel / legacy; }
};

Measured MedianRound(double (*legacy)(const BenchConfig&),
                     double (*wheel)(const BenchConfig&), const BenchConfig& cfg) {
  Measured r[3];
  for (Measured& m : r) {
    m.legacy = legacy(cfg);
    m.wheel = wheel(cfg);
  }
  if (r[0].speedup() > r[1].speedup()) std::swap(r[0], r[1]);
  if (r[1].speedup() > r[2].speedup()) std::swap(r[1], r[2]);
  if (r[0].speedup() > r[1].speedup()) std::swap(r[0], r[1]);
  return r[1];
}

// What turning an instrument on costs a workload, in percent of its
// disabled throughput, with the throughputs of the pair that measured it.
struct Overhead {
  double off;
  double on;
  double percent;
};

// The median of the per-pair overheads over interleaved off/on pairs, the
// side that runs first alternating from pair to pair. Pairing makes load
// drift hit both sides alike, alternation cancels any edge of running
// second, and the median drops the pairs a load spike or a descheduling
// split; both CI guards (10%) read this estimator.
Overhead MedianPairedOverhead(double (*run)(const BenchConfig&, bool), const BenchConfig& cfg) {
  constexpr int kPairs = 15;
  BenchConfig warm = cfg;
  warm.events = cfg.events / 10;
  (void)run(warm, false);
  (void)run(warm, true);
  std::vector<Overhead> pairs(kPairs);
  for (int i = 0; i < kPairs; ++i) {
    Overhead& p = pairs[i];
    if (i % 2 == 0) {
      p.off = run(cfg, false);
      p.on = run(cfg, true);
    } else {
      p.on = run(cfg, true);
      p.off = run(cfg, false);
    }
    p.percent = (p.off / p.on - 1.0) * 100.0;
  }
  std::nth_element(pairs.begin(), pairs.begin() + kPairs / 2, pairs.end(),
                   [](const Overhead& a, const Overhead& b) { return a.percent < b.percent; });
  return pairs[kPairs / 2];
}

int64_t FlagValue(int argc, char** argv, const char* name, int64_t def) {
  const std::string prefix = std::string("--") + name + "=";
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], prefix.c_str(), prefix.size()) == 0) {
      return std::atoll(argv[i] + prefix.size());
    }
  }
  return def;
}

bool HasFlag(int argc, char** argv, const char* name) {
  const std::string flag = std::string("--") + name;
  for (int i = 1; i < argc; ++i) {
    if (flag == argv[i]) {
      return true;
    }
  }
  return false;
}

int Main(int argc, char** argv) {
  BenchConfig cfg;
  cfg.events = static_cast<uint64_t>(FlagValue(argc, argv, "events", 2000000));
  cfg.parked = static_cast<uint64_t>(FlagValue(argc, argv, "parked", 4000000));
  const int guests = static_cast<int>(FlagValue(argc, argv, "guests", 64));
  const int pings = static_cast<int>(FlagValue(argc, argv, "pings", 5));
  const bool skip_macro = HasFlag(argc, argv, "skip-macro");

  PrintHeader("engine", "event-engine throughput (timer wheel vs legacy binary heap)");
  BenchReport report("engine", "event-engine throughput");
  report.Param("events_per_workload", static_cast<double>(cfg.events));
  report.Param("scale_parked_events", static_cast<double>(cfg.parked));
  report.Param("macro_guests", static_cast<double>(guests));
  report.Param("macro_pings_per_guest", static_cast<double>(pings));

  struct Workload {
    const char* name;
    double (*legacy)(const BenchConfig&);
    double (*wheel)(const BenchConfig&);
  };
  const Workload workloads[] = {
      {"scale", RunScale<bench::LegacyExecutor>, RunScale<Executor>},
      {"timers", RunTimers<bench::LegacyExecutor>, RunTimers<Executor>},
      {"burst", RunBurst<bench::LegacyExecutor>, RunBurst<Executor>},
      {"coro", RunCoro<bench::LegacyExecutor>, RunCoro<Executor>},
      {"mixed", RunMixed<bench::LegacyExecutor>, RunMixed<Executor>},
  };

  std::printf("%-8s %15s %15s %9s\n", "workload", "legacy ev/s", "wheel ev/s", "speedup");
  double geo = 1.0;
  for (const Workload& w : workloads) {
    // Warm up each engine, then time three paired rounds and keep the
    // median-speedup round: a single pass is at the mercy of cache and
    // machine-load luck at these sizes.
    BenchConfig warm = cfg;
    warm.events = cfg.events / 10;
    warm.parked = cfg.parked / 10;
    (void)w.legacy(warm);
    (void)w.wheel(warm);
    const Measured m = MedianRound(w.legacy, w.wheel, cfg);
    const double legacy = m.legacy;
    const double wheel = m.wheel;
    const double speedup = wheel / legacy;
    geo *= speedup;
    std::printf("%-8s %15.0f %15.0f %8.2fx\n", w.name, legacy, wheel, speedup);
    report.Value("events_per_sec", std::string("legacy:") + w.name, legacy);
    report.Value("events_per_sec", std::string("wheel:") + w.name, wheel);
    report.Value("speedup", w.name, speedup);
  }
  geo = std::pow(geo, 1.0 / std::size(workloads));
  std::printf("geometric-mean speedup: %.2fx\n", geo);
  report.Value("speedup", "geomean", geo);

  // Telemetry overhead: the timer workload with the sampling profiler and a
  // 1 ms MetricSampler on vs off.
  {
    const Overhead o = MedianPairedOverhead(RunTelemetry, cfg);
    std::printf("telemetry on/off: %15.0f %15.0f ev/s — overhead %+.1f%%\n", o.on, o.off,
                o.percent);
    report.Value("events_per_sec", "telemetry:off", o.off);
    report.Value("events_per_sec", "telemetry:on", o.on);
    report.Value("telemetry_overhead_percent", "timers", o.percent);
  }

  // CPU-attribution overhead: the vCPU-charging timer workload with the
  // per-category ledgers on vs off.
  {
    const Overhead o = MedianPairedOverhead(RunAttribution, cfg);
    std::printf("attribution on/off: %13.0f %15.0f ev/s — overhead %+.1f%%\n", o.on, o.off,
                o.percent);
    report.Value("events_per_sec", "attribution:off", o.off);
    report.Value("events_per_sec", "attribution:on", o.on);
    report.Value("attribution_overhead_percent", "charge", o.percent);
  }

  if (!skip_macro) {
    uint64_t steps = 0;
    std::string profile_table;
    const double macro = RunMacro(guests, pings, &steps, &profile_table);
    std::printf("macro: %d guests x %d pings — %.0f events/s (%llu events)\n", guests,
                pings, macro, static_cast<unsigned long long>(steps));
    std::printf("\n---- macro dispatch profile (top 10 sites) ----\n%s",
                profile_table.c_str());
    report.Value("events_per_sec", "wheel:macro", macro);
    report.Value("macro_events", "wheel:macro", static_cast<double>(steps));
  }

  report.Write();
  return 0;
}

}  // namespace
}  // namespace kite

int main(int argc, char** argv) { return kite::Main(argc, argv); }
