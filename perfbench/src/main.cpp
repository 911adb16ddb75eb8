// perfbench: the hpcpower benchmark program.
//
//   perfbench --workload study|site|archive --seed N --seconds S --trace 0|1
//             [--work-dir DIR] [--smoke] [--inject-failure]
//
// Sets the workload up three times (setup_s is the median), then repeats it
// for S seconds at the host's processor count. With --trace 0 it prints the
// end-to-end metrics; with --trace 1 it alternates untraced and traced
// repetitions and prints the per-layer metrics. Every median is taken over
// the clean samples only: those during which the hypervisor stole at most 2%
// of the processors' time (see measure() and kept()). The last line of
// stdout is one JSON object: {"correct", "attempted", "failed", "metrics"}.
// Lines before it give the host fingerprint and each metric in words.
//
// --smoke shrinks every input and runs one repetition (the benchmark's own
// tests use it); --inject-failure corrupts one reference output so the
// failure shows in failed_ratio.

#include <malloc.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench.hpp"
#include "host.hpp"
#include "util/logging.hpp"
#include "util/thread_pool.hpp"

namespace fs = std::filesystem;
using namespace perfbench;

namespace {

struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
};

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

double ms(std::int64_t ns) { return static_cast<double>(ns) * 1e-6; }

/// Highest percentile with at least ten samples beyond it (nearest rank).
struct Tail {
  double percentile = 0.0;
  double value = 0.0;
  std::size_t beyond = 0;
};

Tail tail_of(std::vector<double> v) {
  Tail t;
  if (v.empty()) return t;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  for (const double p : {99.9, 99.0, 95.0, 90.0, 75.0, 50.0}) {
    const auto rank = static_cast<std::size_t>(std::ceil(p / 100.0 * static_cast<double>(n)));
    const std::size_t beyond = n - std::max<std::size_t>(rank, 1);
    if (beyond >= 10 || p == 50.0) {
      t.percentile = p;
      t.value = v[std::max<std::size_t>(rank, 1) - 1];
      t.beyond = beyond;
      return t;
    }
  }
  return t;
}

/// The per-layer metrics of one traced repetition, in BENCHMARK.json order
/// (the run-level ones are filled in by the caller).
std::vector<Metric> layer_metrics(const Layers& L) {
  return {
      {"workload.generate_ms", "ms", ms(L.workload_generate_ns)},
      {"workload.jobs", "count", static_cast<double>(L.workload_jobs)},
      {"sched.self_ms", "ms", ms(L.sched_self_ns)},
      {"sched.minutes", "count", static_cast<double>(L.sched_minutes)},
      {"sched.jobs_started", "count", static_cast<double>(L.sched_jobs_started)},
      {"telemetry.tick_ms", "ms", ms(L.telemetry_tick_ns)},
      {"telemetry.samples", "count", static_cast<double>(L.telemetry_samples)},
      {"telemetry.ns_per_sample", "ns",
       ratio(static_cast<double>(L.telemetry_tick_ns), static_cast<double>(L.telemetry_samples))},
      {"telemetry.job_start_ms", "ms", ms(L.telemetry_job_start_ns)},
      {"telemetry.job_end_ms", "ms", ms(L.telemetry_job_end_ns)},
      {"power.self_ms", "ms", ms(L.power_self_ns)},
      {"power.admission_ms", "ms", ms(L.power_admission_ns)},
      {"power.jobs_granted", "count", static_cast<double>(L.power_jobs_granted)},
      {"stream.deliver_ms", "ms", ms(L.stream_deliver_ns)},
      {"stream.offer_accept_ratio", "1",
       ratio(static_cast<double>(L.stream_accepted), static_cast<double>(L.stream_offered))},
      {"stream.peak_pending", "count", static_cast<double>(L.stream_peak_pending)},
      {"stream.rows_applied", "count", static_cast<double>(L.stream_rows_applied)},
      {"stream.wal_bytes", "bytes", static_cast<double>(L.stream_wal_bytes)},
      {"stream.replay_records", "count", static_cast<double>(L.stream_replay_records)},
      {"ml.evaluate_ms", "ms", ms(L.ml_evaluate_ns)},
      {"ml.rows", "count", static_cast<double>(L.ml_rows)},
      {"core.analyze_ms", "ms", ms(L.core_analyze_ns)},
      {"core.report_ms", "ms", ms(L.core_report_ns)},
      {"core.records", "count", static_cast<double>(L.core_records)},
      {"storage.load_ms", "ms", ms(L.storage_load_ns)},
      {"storage.bytes_read", "bytes", static_cast<double>(L.storage_bytes_read)},
      {"storage.scan_ms", "ms", ms(L.storage_scan_ns)},
      {"storage.block_skip_ratio", "1",
       ratio(static_cast<double>(L.storage_blocks_pruned),
             static_cast<double>(L.storage_blocks_total))},
  };
}

/// Per-name median over the traced repetitions.
std::vector<Metric> median_layers(const std::vector<Layers>& reps) {
  std::vector<Metric> out = layer_metrics(Layers{});
  for (std::size_t i = 0; i < out.size(); ++i) {
    std::vector<double> values;
    for (const Layers& l : reps) values.push_back(layer_metrics(l)[i].value);
    out[i].value = median(values);
  }
  return out;
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

struct Args {
  std::string workload;
  Params params;
  int seconds = 10;
  bool trace = false;
  bool inject_failure = false;
};

Args parse_args(int argc, char** argv) {
  Args a;
  a.params.work_dir = ".bench_build/work";
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument(flag + " needs a value");
      return argv[++i];
    };
    if (flag == "--workload") {
      a.workload = value();
    } else if (flag == "--seed") {
      a.params.seed = std::stoull(value());
      have_seed = true;
    } else if (flag == "--seconds") {
      a.seconds = std::stoi(value());
    } else if (flag == "--trace") {
      const std::string t = value();
      if (t != "0" && t != "1") throw std::invalid_argument("--trace must be 0 or 1");
      a.trace = t == "1";
    } else if (flag == "--work-dir") {
      a.params.work_dir = value();
    } else if (flag == "--smoke") {
      a.params.smoke = true;
    } else if (flag == "--inject-failure") {
      a.inject_failure = true;
    } else {
      throw std::invalid_argument("unknown argument " + flag);
    }
  }
  if (a.workload != "study" && a.workload != "site" && a.workload != "archive")
    throw std::invalid_argument("--workload must be study, site or archive");
  if (!have_seed) throw std::invalid_argument("--seed is required");
  if (a.seconds < 1) throw std::invalid_argument("--seconds must be at least 1");
  return a;
}

/// One measured call: a setup or a repetition.
struct Sample {
  double wall_s = 0.0;
  double cpu_s = 0.0;
  double rss_mb = 0.0;
  double steal_s = 0.0;
  bool clean = true;
  RepOutput out;
};

/// Times `body`. A sample is clean when the hypervisor took at most 2% of
/// the processors' time while it ran (two clock ticks are always tolerated):
/// on a shared virtual machine, stolen time stretches a parallel run far
/// more than the work it displaces.
template <class Body>
Sample measure(std::size_t cpus, Body&& body) {
  Sample s;
  // Hand memory freed by earlier samples back to the system, so the peak
  // measures this sample rather than the allocator's leftovers.
  malloc_trim(0);
  reset_peak_rss();
  const double cpu0 = process_cpu_s();
  const double steal0 = host_steal_s();
  const std::int64_t t0 = now_ns();
  body(s.out);
  s.wall_s = static_cast<double>(now_ns() - t0) * 1e-9;
  s.cpu_s = process_cpu_s() - cpu0;
  s.rss_mb = peak_rss_mb();
  s.steal_s = host_steal_s() - steal0;
  s.clean = s.steal_s <= std::max(2.0 * clock_tick_s(),
                                  0.02 * s.wall_s * static_cast<double>(cpus));
  return s;
}

std::size_t count_clean(const std::vector<Sample>& samples) {
  return static_cast<std::size_t>(
      std::count_if(samples.begin(), samples.end(), [](const Sample& s) { return s.clean; }));
}

/// The clean samples or, when none is clean, the half with the least steal.
std::vector<const Sample*> kept(const std::vector<Sample>& samples) {
  std::vector<const Sample*> out;
  for (const Sample& s : samples) out.push_back(&s);
  if (count_clean(samples) > 0) {
    std::erase_if(out, [](const Sample* s) { return !s->clean; });
  } else {
    std::stable_sort(out.begin(), out.end(), [](const Sample* a, const Sample* b) {
      return a->steal_s < b->steal_s;
    });
    out.resize((out.size() + 1) / 2);
  }
  return out;
}

template <class Field>
double median_of(const std::vector<Sample>& samples, Field field) {
  std::vector<double> values;
  for (const Sample* s : kept(samples)) values.push_back(field(*s));
  return median(std::move(values));
}

int run(const Args& args) {
  namespace hp = hpcpower;
  hp::util::set_log_level(hp::util::LogLevel::kWarn);
  const std::size_t cpus = available_cpus();
  hp::util::set_global_thread_count(cpus);
  const fs::path work_dir = args.params.work_dir / (args.workload + "-" + std::to_string(
                                                        args.params.seed));
  fs::remove_all(work_dir);
  fs::create_directories(work_dir);
  Params params = args.params;
  params.work_dir = work_dir;
  const double load_start = load_average();
  const double steal_start = host_steal_s();

  std::unique_ptr<Workload> workload = args.workload == "study"  ? make_study(params)
                                       : args.workload == "site" ? make_site(params)
                                                                 : make_archive(params);
  // Three clean set-ups, or one attempt more.
  const std::size_t setups_wanted = args.params.smoke ? 1 : 3;
  std::vector<Sample> setups;
  while (count_clean(setups) < setups_wanted && setups.size() <= setups_wanted)
    setups.push_back(measure(cpus, [&](RepOutput&) { workload->setup(); }));
  if (args.inject_failure) workload->inject_failure();

  // Repeat for --seconds. While fewer than half the repetitions are clean,
  // keep going, for at most half as long again.
  Checks checks;
  std::vector<Sample> plain, traced;
  const bool peak_reset = reset_peak_rss();
  const std::size_t min_reps = args.params.smoke ? 1 : 3;
  const std::int64_t seconds = args.params.smoke ? 0 : args.seconds;
  const std::int64_t deadline = now_ns() + seconds * 1'000'000'000;
  const std::int64_t hard_deadline = deadline + seconds * 500'000'000;
  const auto enough_clean = [&] {
    return 2 * count_clean(plain) >= plain.size() &&
           2 * count_clean(traced) >= traced.size();
  };
  do {
    plain.push_back(measure(cpus, [&](RepOutput& out) { workload->run(false, checks, out); }));
    if (args.trace)
      traced.push_back(measure(cpus, [&](RepOutput& out) { workload->run(true, checks, out); }));
  } while (now_ns() < deadline || plain.size() < min_reps ||
           (!enough_clean() && now_ns() < hard_deadline));
  const double load_end = load_average();
  const double steal_run = host_steal_s() - steal_start;
  fs::remove_all(work_dir);

  std::vector<double> query_ms;
  for (const Sample* s : kept(plain))
    query_ms.insert(query_ms.end(), s->out.query_ms.begin(), s->out.query_ms.end());
  const Tail tail = tail_of(query_ms);
  const double failed_ratio = ratio(static_cast<double>(checks.failed),
                                    static_cast<double>(checks.attempted));
  const auto wall = [](const Sample& s) { return s.wall_s; };
  std::vector<Metric> metrics;
  if (!args.trace) {
    metrics = {
        {"setup_s", "s", median_of(setups, wall)},
        {"wall_s", "s", median_of(plain, wall)},
        {"cpu_s", "s", median_of(plain, [](const Sample& s) { return s.cpu_s; })},
        {"peak_rss_mb", "MB", median_of(plain, [](const Sample& s) { return s.rss_mb; })},
    };
  } else {
    std::vector<Layers> layers;
    for (const Sample* s : kept(traced)) layers.push_back(s->out.layers);
    metrics = median_layers(layers);
    metrics.push_back({"obs.trace_overhead_pct", "%",
                       100.0 * (ratio(median_of(traced, wall), median_of(plain, wall)) - 1.0)});
    metrics.push_back(
        {"recover_s", "s", median_of(plain, [](const Sample& s) { return s.out.recover_s; })});
    metrics.push_back({"query_p50_ms", "ms", median(query_ms)});
    metrics.push_back({"query_tail_ms", "ms", tail.value});
    metrics.push_back({"failed_ratio", "1", failed_ratio});
  }

  std::printf("perfbench: workload=%s seed=%llu threads=%zu seconds=%d trace=%d "
              "setups=%zu (clean %zu) repetitions=%zu (clean %zu) traced=%zu (clean %zu)%s\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.params.seed),
              hp::util::global_thread_count(), args.seconds, args.trace ? 1 : 0,
              setups.size(), count_clean(setups), plain.size(), count_clean(plain),
              traced.size(), count_clean(traced), args.params.smoke ? " (smoke)" : "");
  std::printf("host: {\"nproc\": %zu, \"threads\": %zu, \"load_start\": %.2f, "
              "\"load_end\": %.2f, \"steal_s\": %.2f, \"build_type\": \"%s\", "
              "\"compiler\": \"%s\", \"wal_fs\": \"%s\", \"peak_rss_reset\": %s}\n",
              cpus, hp::util::global_thread_count(), load_start, load_end, steal_run,
              json_escape(build_type()).c_str(), json_escape(compiler()).c_str(),
              json_escape(filesystem_type(args.params.work_dir)).c_str(),
              peak_reset ? "true" : "false");
  std::printf("samples (wall_s/steal_s, * = clean):");
  for (const Sample& s : plain)
    std::printf(" %.4f/%.2f%s", s.wall_s, s.steal_s, s.clean ? "*" : "");
  std::printf("\n");
  for (const std::string& f : checks.failures) std::printf("check failed: %s\n", f.c_str());
  std::printf("checks: %llu attempted, %llu failed, failed_ratio %.6g\n",
              static_cast<unsigned long long>(checks.attempted),
              static_cast<unsigned long long>(checks.failed), failed_ratio);
  if (args.workload == "site")
    std::printf("recover_s: %.6f s\n",
                median_of(plain, [](const Sample& s) { return s.out.recover_s; }));
  if (args.workload == "archive") {
    std::printf("query_p50_ms: %.6f ms (%zu queries)\n", median(query_ms), query_ms.size());
    std::printf("query_tail_ms: %.6f ms (p%g, %zu of %zu samples beyond)\n", tail.value,
                tail.percentile, tail.beyond, query_ms.size());
  }
  for (const Metric& m : metrics)
    std::printf("metric %s = %.9g %s\n", m.name.c_str(), m.value, m.unit.c_str());

  std::string json = "{\"correct\": ";
  json += checks.failed == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(checks.attempted);
  json += ", \"failed\": " + std::to_string(checks.failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g",
                  std::isfinite(metrics[i].value) ? metrics[i].value : 0.0);
    json += (i ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " + value +
            ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  hp::util::shutdown_global_pool();
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  try {
    args = parse_args(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
  try {
    return run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
