// archive: re-analysis of a stored campaign, the paper's open-data path.
//
// Set-up simulates Emmy and Meggie and writes each system's job table (its
// first records_per_system_ records, so the stored campaign, and the ML work
// that grows with it, has the same size for every seed) and system series, plus a detailed per-node sample
// table of one day of Emmy, as .hpcb files. Each repetition then loads the tables, rebuilds each
// CampaignData, renders the full report (ML included), and answers a fixed
// sequence of time-window queries over the sample table with zone-map scans,
// one after another from a single client (closed loop). Checks: the report
// equals the one rendered from the in-memory records, and every pruned scan
// equals filtering the fully decoded table.

#include <algorithm>
#include <cctype>
#include <cstdint>
#include <cstring>
#include <optional>

#include "bench.hpp"
#include "layers.hpp"
#include "trace/format.hpp"
#include "trace/job_table.hpp"
#include "trace/sample_table.hpp"
#include "trace/system_series.hpp"
#include "util/thread_pool.hpp"
#include "workload/calibration.hpp"
#include "workload/generator.hpp"

namespace perfbench {

namespace hp = hpcpower;
namespace fs = std::filesystem;

namespace {

/// Order-sensitive FNV-1a digest of a sample-table slice.
std::uint64_t digest(const std::vector<hp::trace::PowerSampleRow>& rows) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto mix = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xFFU;
      h *= 0x100000001b3ULL;
    }
  };
  const auto bits = [](double d) {
    std::uint64_t u = 0;
    std::memcpy(&u, &d, sizeof(u));
    return u;
  };
  mix(rows.size());
  for (const auto& r : rows) {
    mix(r.job_id);
    mix(static_cast<std::uint64_t>(r.minute));
    mix(r.node_index);
    mix(bits(r.pkg_w));
    mix(bits(r.dram_w));
  }
  return h;
}

/// SplitMix64: a fixed, platform-independent stream for the query sequence.
std::uint64_t next_random(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

struct SystemFiles {
  hp::cluster::SystemSpec spec;
  fs::path jobs;
  fs::path series;
};

class Archive final : public Workload {
 public:
  explicit Archive(const Params& params) : dir_(params.work_dir / "archive") {
    config_.seed = params.seed;
    config_.days = params.smoke ? 0.5 : 16.0;
    config_.warmup_days = params.smoke ? 0.25 : 1.0;
    config_.instrument_begin_day = 0.0;
    config_.instrument_end_day = config_.days;
    records_per_system_ = params.smoke ? 100 : 2500;
    sample_minutes_ = params.smoke ? 120 : 1440;
    query_count_ = params.smoke ? 8 : 12;
    for (const auto& spec : hp::cluster::studied_systems()) {
      std::string name = spec.name;
      for (char& ch : name) ch = static_cast<char>(std::tolower(ch));
      systems_.push_back({spec, dir_ / (name + "_jobs.hpcb"), dir_ / (name + "_series.hpcb")});
    }
    samples_path_ = dir_ / "emmy_samples.hpcb";
  }

  void setup() override {
    fs::create_directories(dir_);
    const std::int64_t first = hp::util::MinuteTime::from_days(config_.warmup_days).minutes();
    const std::int64_t last = first + sample_minutes_ - 1;

    // Emmy carries the sample tap; the tap runs on its simulation thread. A
    // seed whose users submit few jobs gets a longer campaign, sized from the
    // submissions its workload generator makes, so every system stores
    // records_per_system_ records and set-up cost grows smoothly with it.
    std::vector<hp::trace::PowerSampleRow> samples;
    const auto simulate = [&](std::size_t i) {
      hp::core::StudyConfig config = config_;
      const hp::util::MinuteTime warmup = hp::util::MinuteTime::from_days(config.warmup_days);
      hp::workload::GeneratorConfig gcfg;
      gcfg.seed = config.seed;
      gcfg.duration = warmup + hp::util::MinuteTime::from_days(config.days);
      const auto jobs = hp::workload::WorkloadGenerator(
                            systems_[i].spec,
                            hp::workload::calibration_for(systems_[i].spec.id), gcfg)
                            .generate();
      const auto submitted = static_cast<double>(std::count_if(
          jobs.begin(), jobs.end(), [&](const auto& j) { return j.submit >= warmup; }));
      const double wanted = 1.2 * static_cast<double>(records_per_system_);
      if (submitted < wanted) config.days *= wanted / std::max(submitted, 1.0);
      if (i == 0) {
        config.tap.on_tick = [&](hp::telemetry::TapTick&& tick) {
          if (tick.minute < first || tick.minute > last) return;
          std::uint64_t job = 0;
          std::uint32_t local = 0;
          for (const auto& row : tick.rows) {
            local = row.job_id == job ? local + 1 : 0;
            job = row.job_id;
            samples.push_back({row.job_id, tick.minute, local, row.watts, 0.0});
          }
        };
      }
      for (;; config.days *= 2.0) {
        config.instrument_end_day = config.days;
        if (i == 0) samples.clear();
        auto data = hp::core::run_campaign(systems_[i].spec, config);
        if (data.records.size() >= records_per_system_ || config.days >= 16.0 * config_.days)
          return data;
      }
    };
    std::vector<hp::core::CampaignData> campaigns(systems_.size());
    if (hp::util::global_thread_count() < 2) {
      campaigns[1] = simulate(1);
      campaigns[0] = simulate(0);
    } else {
      auto meggie = hp::util::global_pool().submit([&] { campaigns[1] = simulate(1); });
      campaigns[0] = simulate(0);
      meggie.get();
    }

    std::vector<hp::core::CampaignData> stored(systems_.size());
    for (std::size_t i = 0; i < systems_.size(); ++i) {
      auto& records = campaigns[i].records;
      records.resize(std::min(records.size(), records_per_system_));
      hp::trace::save_job_table(systems_[i].jobs.string(), campaigns[i].records,
                                hp::trace::TraceFormat::kHpcb);
      hp::trace::save_system_series(systems_[i].series.string(), campaigns[i].series,
                                    hp::trace::TraceFormat::kHpcb);
      stored[i].spec = systems_[i].spec;
      stored[i].records = std::move(campaigns[i].records);
      stored[i].series = std::move(campaigns[i].series);
    }
    hp::trace::save_sample_table(samples_path_.string(), samples,
                                 hp::trace::TraceFormat::kHpcb);
    reference_ = hp::core::render_markdown_report(stored, {});

    // The query sequence and, per query, the digest of filtering a full decode.
    const auto decoded = hp::trace::load_sample_table(samples_path_.string());
    std::uint64_t max_job = 0;
    std::uint64_t min_job = UINT64_MAX;
    for (const auto& r : decoded) {
      max_job = std::max(max_job, r.job_id);
      min_job = std::min(min_job, r.job_id);
    }
    std::uint64_t state = config_.seed;
    queries_.clear();
    expected_.clear();
    for (std::size_t q = 0; q < query_count_; ++q) {
      const auto width = static_cast<std::int64_t>(5 + next_random(state) % 31);
      const auto span = static_cast<std::uint64_t>(sample_minutes_ - width + 1);
      hp::trace::SampleRange range;
      range.min_minute = first + static_cast<std::int64_t>(next_random(state) % span);
      range.max_minute = *range.min_minute + width - 1;
      if (q % 4 == 3 && max_job > min_job) {
        // Every fourth query also narrows to a band of job ids.
        const std::uint64_t lo = min_job + next_random(state) % (max_job - min_job);
        range.min_job_id = static_cast<std::int64_t>(lo);
        range.max_job_id = static_cast<std::int64_t>(lo + (max_job - min_job) / 4);
      }
      std::vector<hp::trace::PowerSampleRow> match;
      for (const auto& r : decoded)
        if (range.contains(r)) match.push_back(r);
      queries_.push_back(range);
      expected_.push_back(digest(match));
    }
  }

  void run(bool traced, Checks& checks, RepOutput& out) override {
    Layers& L = out.layers;
    std::vector<hp::core::CampaignData> campaigns(systems_.size());
    std::string report;
    {
      std::optional<TracedScope> scope;
      if (traced) scope.emplace();
      const std::int64_t t0 = now_ns();
      for (std::size_t i = 0; i < systems_.size(); ++i) {
        campaigns[i].spec = systems_[i].spec;
        campaigns[i].records = hp::trace::load_job_table(systems_[i].jobs.string());
        campaigns[i].series = hp::trace::load_system_series(systems_[i].series.string());
      }
      if (traced) {
        L.storage_load_ns += now_ns() - t0;
        report = traced_render(campaigns, {}, L);
      } else {
        report = hp::core::render_markdown_report(campaigns, {});
      }
    }
    checks.expect(report == reference_,
                  "archive: report from the stored files differs from the in-memory one");

    for (std::size_t q = 0; q < queries_.size(); ++q) {
      hp::storage::ScanStats stats;
      const std::int64_t t0 = now_ns();
      const auto rows = hp::trace::load_sample_table_range(samples_path_.string(),
                                                           queries_[q], false, &stats);
      const std::int64_t dt = now_ns() - t0;
      out.query_ms.push_back(static_cast<double>(dt) * 1e-6);
      checks.expect(digest(rows) == expected_[q],
                    "archive: pruned scan differs from filtering a full decode");
      if (traced) {
        L.storage_scan_ns += dt;
        L.storage_blocks_total += stats.blocks_total;
        L.storage_blocks_pruned += stats.blocks_pruned;
      }
    }
    if (traced) {
      for (const auto& s : systems_)
        L.storage_bytes_read += fs::file_size(s.jobs) + fs::file_size(s.series);
      count_analysis_work(campaigns, true, L);
    }
  }

  void inject_failure() override { reference_ += "!"; }

 private:
  fs::path dir_;
  hp::core::StudyConfig config_;
  std::size_t records_per_system_ = 0;
  std::int64_t sample_minutes_ = 0;
  std::size_t query_count_ = 0;
  std::vector<SystemFiles> systems_;
  fs::path samples_path_;
  std::string reference_;
  std::vector<hp::trace::SampleRange> queries_;
  std::vector<std::uint64_t> expected_;
};

}  // namespace

std::unique_ptr<Workload> make_archive(const Params& params) {
  return std::make_unique<Archive>(params);
}

}  // namespace perfbench
