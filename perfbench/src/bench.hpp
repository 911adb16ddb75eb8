#pragma once
// Shared pieces of the perfbench program: the workload interface, output
// checks, and the per-layer accumulators a traced repetition fills.
//
// A workload is set up (inputs plus the reference outputs its checks compare
// against), then run repeatedly. Untraced repetitions give the end-to-end
// metrics. Traced repetitions compose the same work from the layers' public
// entry points with a timer around each call (layers.hpp) and give the
// per-layer metrics; their outputs must equal the untraced ones.

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

namespace perfbench {

[[nodiscard]] inline std::int64_t now_ns() noexcept {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Adds the lifetime of the scope to `total_ns`.
class ScopedTimer {
 public:
  explicit ScopedTimer(std::int64_t& total_ns) noexcept
      : total_ns_(total_ns), start_ns_(now_ns()) {}
  ~ScopedTimer() { total_ns_ += now_ns() - start_ns_; }
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

 private:
  std::int64_t& total_ns_;
  std::int64_t start_ns_;
};

/// Output checks of a run; failed / attempted is the `failed_ratio` metric.
struct Checks {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;  ///< first few failure messages

  void expect(bool ok, const std::string& what) {
    ++attempted;
    if (ok) return;
    ++failed;
    if (failures.size() < 8) failures.push_back(what);
  }
};

/// Per-layer totals of one traced repetition. A time is the sum of the
/// durations of the wrapped calls into the layer, over every thread that
/// made them; a self time excludes the calls it makes into other layers.
struct Layers {
  std::int64_t workload_generate_ns = 0;
  std::uint64_t workload_jobs = 0;

  std::int64_t sched_self_ns = 0;  ///< CampaignSimulator::run minus its hooks
  std::uint64_t sched_minutes = 0;
  std::uint64_t sched_jobs_started = 0;

  std::int64_t telemetry_tick_ns = 0;  ///< pipeline per-minute hook, self
  std::int64_t telemetry_job_start_ns = 0;
  std::int64_t telemetry_job_end_ns = 0;
  std::uint64_t telemetry_samples = 0;  ///< running jobs' nodes, per tick

  std::int64_t power_self_ns = 0;  ///< managed hooks minus pipeline hooks
  std::int64_t power_admission_ns = 0;
  std::uint64_t power_jobs_granted = 0;

  std::int64_t stream_deliver_ns = 0;  ///< driver, daemon and WAL calls
  std::uint64_t stream_offered = 0;
  std::uint64_t stream_accepted = 0;
  std::uint64_t stream_peak_pending = 0;
  std::uint64_t stream_rows_applied = 0;
  std::uint64_t stream_wal_bytes = 0;
  std::uint64_t stream_replay_records = 0;

  std::int64_t ml_evaluate_ns = 0;
  std::uint64_t ml_rows = 0;

  std::int64_t core_analyze_ns = 0;
  std::int64_t core_report_ns = 0;  ///< render_markdown_report, self
  std::uint64_t core_records = 0;

  std::int64_t storage_load_ns = 0;
  std::uint64_t storage_bytes_read = 0;
  std::int64_t storage_scan_ns = 0;
  std::uint64_t storage_blocks_total = 0;
  std::uint64_t storage_blocks_pruned = 0;

  Layers& operator+=(const Layers& other);
};

/// What one repetition reports besides its wall and CPU time.
struct RepOutput {
  double recover_s = 0.0;         ///< site: fresh daemon's recover()
  std::vector<double> query_ms;   ///< archive: one entry per window query
  Layers layers;                  ///< traced repetitions only
};

struct Params {
  std::uint64_t seed = 1;
  bool smoke = false;  ///< tiny inputs, for the benchmark's own tests
  std::filesystem::path work_dir;  ///< scratch space inside the checkout
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// Builds the inputs and the reference outputs. Called several times; each
  /// call replaces the previous inputs.
  virtual void setup() = 0;
  /// One repetition: does the work, checks its output against the reference.
  virtual void run(bool traced, Checks& checks, RepOutput& out) = 0;
  /// Corrupts a reference output so every later check of it fails.
  virtual void inject_failure() = 0;
};

[[nodiscard]] std::unique_ptr<Workload> make_study(const Params& params);
[[nodiscard]] std::unique_ptr<Workload> make_site(const Params& params);
[[nodiscard]] std::unique_ptr<Workload> make_archive(const Params& params);

}  // namespace perfbench
