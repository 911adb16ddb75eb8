#include "layers.hpp"

#include <algorithm>
#include <optional>
#include <stdexcept>
#include <string_view>
#include <utility>

#include "core/prediction.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "power/hooks.hpp"
#include "power/manager.hpp"
#include "power/predictor.hpp"
#include "sched/simulator.hpp"
#include "telemetry/pipeline.hpp"
#include "workload/calibration.hpp"
#include "workload/generator.hpp"

namespace perfbench {

namespace hp = hpcpower;

Layers& Layers::operator+=(const Layers& o) {
  workload_generate_ns += o.workload_generate_ns;
  workload_jobs += o.workload_jobs;
  sched_self_ns += o.sched_self_ns;
  sched_minutes += o.sched_minutes;
  sched_jobs_started += o.sched_jobs_started;
  telemetry_tick_ns += o.telemetry_tick_ns;
  telemetry_job_start_ns += o.telemetry_job_start_ns;
  telemetry_job_end_ns += o.telemetry_job_end_ns;
  telemetry_samples += o.telemetry_samples;
  power_self_ns += o.power_self_ns;
  power_admission_ns += o.power_admission_ns;
  power_jobs_granted += o.power_jobs_granted;
  stream_deliver_ns += o.stream_deliver_ns;
  stream_offered += o.stream_offered;
  stream_accepted += o.stream_accepted;
  stream_peak_pending = std::max(stream_peak_pending, o.stream_peak_pending);
  stream_rows_applied += o.stream_rows_applied;
  stream_wal_bytes += o.stream_wal_bytes;
  stream_replay_records += o.stream_replay_records;
  ml_evaluate_ns += o.ml_evaluate_ns;
  ml_rows += o.ml_rows;
  core_analyze_ns += o.core_analyze_ns;
  core_report_ns += o.core_report_ns;
  core_records += o.core_records;
  storage_load_ns += o.storage_load_ns;
  storage_bytes_read += o.storage_bytes_read;
  storage_scan_ns += o.storage_scan_ns;
  storage_blocks_total += o.storage_blocks_total;
  storage_blocks_pruned += o.storage_blocks_pruned;
  return *this;
}

namespace {

/// Time spent in hooks, split so each layer's self time can be derived.
struct HookTimes {
  std::int64_t inner_ns = 0;  ///< pipeline hooks, stream tap included
  std::int64_t outer_ns = 0;  ///< everything the simulator called
};

/// Times the pipeline's hooks. Stream time spent inside them (the tap) is
/// taken out, so telemetry times are self times.
hp::sched::SimulationHooks timed_pipeline_hooks(hp::sched::SimulationHooks inner,
                                                Layers& L, HookTimes& T) {
  hp::sched::SimulationHooks hooks;
  hooks.on_start = [&L, &T, f = std::move(inner.on_start)](
                       const hp::sched::RunningJob& job) {
    const std::int64_t t0 = now_ns();
    f(job);
    const std::int64_t dt = now_ns() - t0;
    T.inner_ns += dt;
    L.telemetry_job_start_ns += dt;
  };
  hooks.on_end = [&L, &T, f = std::move(inner.on_end)](
                     const hp::sched::RunningJob& job,
                     const hp::sched::JobAccountingRecord& rec) {
    const std::int64_t stream0 = L.stream_deliver_ns;
    const std::int64_t t0 = now_ns();
    f(job, rec);
    const std::int64_t dt = now_ns() - t0;
    T.inner_ns += dt;
    L.telemetry_job_end_ns += dt - (L.stream_deliver_ns - stream0);
  };
  hooks.per_minute = [&L, &T, f = std::move(inner.per_minute)](
                         hp::util::MinuteTime now,
                         const std::vector<const hp::sched::RunningJob*>& running,
                         std::uint32_t down_nodes) {
    const std::int64_t stream0 = L.stream_deliver_ns;
    const std::int64_t t0 = now_ns();
    f(now, running, down_nodes);
    const std::int64_t dt = now_ns() - t0;
    T.inner_ns += dt;
    L.telemetry_tick_ns += dt - (L.stream_deliver_ns - stream0);
  };
  return hooks;
}

/// Times everything the simulator calls and counts the work it hands over.
hp::sched::SimulationHooks timed_outer_hooks(hp::sched::SimulationHooks inner,
                                             Layers& L, HookTimes& T) {
  hp::sched::SimulationHooks hooks = std::move(inner);
  hooks.on_start = [&L, &T, f = std::move(hooks.on_start)](
                       const hp::sched::RunningJob& job) {
    ScopedTimer timer(T.outer_ns);
    ++L.sched_jobs_started;
    f(job);
  };
  hooks.on_end = [&T, f = std::move(hooks.on_end)](
                     const hp::sched::RunningJob& job,
                     const hp::sched::JobAccountingRecord& rec) {
    ScopedTimer timer(T.outer_ns);
    f(job, rec);
  };
  hooks.per_minute = [&L, &T, f = std::move(hooks.per_minute)](
                         hp::util::MinuteTime now,
                         const std::vector<const hp::sched::RunningJob*>& running,
                         std::uint32_t down_nodes) {
    ScopedTimer timer(T.outer_ns);
    ++L.sched_minutes;
    for (const auto* job : running) L.telemetry_samples += job->nodes.size();
    f(now, running, down_nodes);
  };
  return hooks;
}

}  // namespace

hp::core::CampaignData traced_campaign(const hp::cluster::SystemSpec& spec,
                                       const hp::core::StudyConfig& config,
                                       Layers& L) {
  if (config.monitor != nullptr)
    throw std::invalid_argument("traced_campaign: self-monitoring is not traced");
  const hp::util::MinuteTime warmup = hp::util::MinuteTime::from_days(config.warmup_days);
  const bool managed = config.power_manager.enabled;

  hp::workload::GeneratorConfig gcfg;
  gcfg.seed = config.seed;
  gcfg.duration = warmup + hp::util::MinuteTime::from_days(config.days);
  gcfg.load_scale = config.load_scale;
  std::vector<hp::workload::JobRequest> jobs;
  {
    ScopedTimer timer(L.workload_generate_ns);
    hp::workload::WorkloadGenerator generator(spec, hp::workload::calibration_for(spec.id),
                                              gcfg);
    jobs = generator.generate();
  }
  L.workload_jobs += jobs.size();

  std::optional<hp::power::ClusterPowerManager> manager;
  if (managed) {
    ScopedTimer timer(L.power_admission_ns);
    std::shared_ptr<const hp::power::NodePowerPredictor> predictor =
        std::make_shared<hp::power::EstimatePredictor>(spec.node_tdp_watts);
    if (config.power_manager.predictor_error_sigma > 0.0) {
      predictor = std::make_shared<hp::power::NoisyPredictor>(
          std::move(predictor), config.power_manager.predictor_error_sigma, config.seed);
    }
    manager.emplace(spec, config.power_manager, predictor, config.seed);
    for (auto& job : jobs) job.estimated_node_power_w = manager->admission_estimate_w(job);
  }

  hp::telemetry::PipelineConfig pcfg;
  pcfg.seed = config.seed;
  pcfg.instrument_begin = warmup + hp::util::MinuteTime::from_days(config.instrument_begin_day);
  pcfg.instrument_end = warmup + hp::util::MinuteTime::from_days(config.instrument_end_day);
  pcfg.node_power_cap_w = config.node_power_cap_w;
  pcfg.faults = config.faults;
  pcfg.cleaning = config.cleaning;
  pcfg.tap = config.tap;
  if (managed) {
    pcfg.job_node_cap_w = [&m = *manager](hp::workload::JobId id) {
      return m.node_cap_w(id);
    };
  }
  hp::telemetry::MonitoringPipeline pipeline(spec, pcfg);

  hp::sched::PowerBudget budget = config.power_budget;
  if (managed) {
    budget.watts = manager->pool_w();
    budget.fallback_node_power_w = spec.node_tdp_watts;
  }
  if (budget.enabled() && budget.fallback_node_power_w <= 0.0)
    budget.fallback_node_power_w = spec.node_tdp_watts;
  hp::sched::CampaignSimulator simulator(spec.node_count, gcfg.duration,
                                         config.scheduler_policy, budget,
                                         config.node_failures, config.seed);
  HookTimes T;
  hp::sched::SimulationHooks hooks = timed_pipeline_hooks(pipeline.hooks(), L, T);
  if (managed) {
    hooks = hp::power::managed_hooks(*manager, std::move(hooks), [&pipeline]() {
      return pipeline.system_series().total_power_w.back();
    });
  }
  hooks = timed_outer_hooks(std::move(hooks), L, T);

  const std::int64_t t0 = now_ns();
  const auto sim_result = simulator.run(jobs, hooks);
  L.sched_self_ns += now_ns() - t0 - T.outer_ns;
  if (managed) L.power_self_ns += T.outer_ns - T.inner_ns;

  hp::core::CampaignData data;
  data.spec = spec;
  data.records = std::move(pipeline.records());
  data.series = pipeline.system_series();
  data.scheduler = sim_result.scheduler;
  data.availability = sim_result.availability;
  data.throttled_samples = pipeline.throttled_samples();
  data.quality = pipeline.quality_report();
  if (managed) {
    data.power = manager->report();
    L.power_jobs_granted += data.power->jobs_granted;
  }

  // Discard warm-up telemetry, exactly as run_campaign does.
  if (warmup.minutes() > 0) {
    const auto w = static_cast<std::size_t>(
        std::min<std::int64_t>(warmup.minutes(),
                               static_cast<std::int64_t>(data.series.total_power_w.size())));
    data.series.total_power_w.erase(data.series.total_power_w.begin(),
                                    data.series.total_power_w.begin() +
                                        static_cast<std::ptrdiff_t>(w));
    data.series.busy_nodes.erase(data.series.busy_nodes.begin(),
                                 data.series.busy_nodes.begin() +
                                     static_cast<std::ptrdiff_t>(w));
    std::erase_if(data.records, [&](const hp::telemetry::JobRecord& r) {
      return r.end <= warmup;
    });
  }
  return data;
}

hp::stream::StreamedCampaignResult traced_streamed_campaign(
    const hp::cluster::SystemSpec& spec, const hp::core::StudyConfig& config,
    hp::stream::IngestDaemon& daemon, hp::stream::StreamDriver& driver, Layers& L) {
  using hp::stream::BatchKind;
  using hp::stream::StreamBatch;
  const std::int64_t warmup_minutes =
      hp::util::MinuteTime::from_days(config.warmup_days).minutes();

  std::uint64_t next_seq = 0;
  std::uint64_t tick_index = 0;
  std::vector<hp::telemetry::TapJobEnd> pending_ends;

  const auto ensure_hello = [&] {
    if (next_seq != 0) return;
    StreamBatch hello;
    hello.seq = next_seq++;
    hello.kind = BatchKind::kHello;
    hello.hello.node_count = spec.node_count;
    hello.hello.warmup_minutes = warmup_minutes;
    hello.hello.seed = config.seed;
    hello.hello.faults_enabled = config.faults.enabled;
    driver.submit(std::move(hello));
  };

  hp::core::StudyConfig streamed_config = config;
  streamed_config.tap.on_job_end = [&](hp::telemetry::TapJobEnd&& end) {
    ScopedTimer timer(L.stream_deliver_ns);
    pending_ends.push_back(std::move(end));
  };
  streamed_config.tap.on_tick = [&](hp::telemetry::TapTick&& tick) {
    ScopedTimer timer(L.stream_deliver_ns);
    ensure_hello();
    StreamBatch b;
    b.seq = next_seq++;
    b.kind = BatchKind::kTick;
    b.in_campaign = tick_index >= static_cast<std::uint64_t>(warmup_minutes);
    ++tick_index;
    b.tick = std::move(tick);
    if (!b.in_campaign) b.tick.rows.clear();
    b.job_ends = std::move(pending_ends);
    pending_ends.clear();
    driver.submit(std::move(b));
    driver.step();
  };

  hp::stream::StreamedCampaignResult result;
  result.batch = traced_campaign(spec, streamed_config, L);

  ScopedTimer timer(L.stream_deliver_ns);
  ensure_hello();
  StreamBatch end;
  end.seq = next_seq++;
  end.kind = BatchKind::kEnd;
  end.job_ends = std::move(pending_ends);
  end.end.scheduler = result.batch.scheduler;
  end.end.availability = result.batch.availability;
  end.end.has_power = result.batch.power.has_value();
  if (result.batch.power) end.end.power = *result.batch.power;
  driver.submit(std::move(end));
  driver.flush();

  result.streamed = daemon.finalize();
  result.apply = daemon.apply_stats();
  result.transit = daemon.transit_stats();
  result.ledger = driver.ledger();
  result.batches_emitted = next_seq;
  return result;
}

std::string traced_render(const std::vector<hp::core::CampaignData>& campaigns,
                          const hp::core::ReportOptions& options, Layers& L) {
  const std::int64_t t0 = now_ns();
  std::string report = hp::core::render_markdown_report(campaigns, options);
  const std::int64_t render_ns = now_ns() - t0;

  std::int64_t analyze_ns = 0;
  std::int64_t prediction_ns = 0;
  for (const auto& timer : hp::obs::metrics().snapshot().timers) {
    const std::string_view name = timer.name;
    if (name == "analyze.prediction") {
      prediction_ns += timer.total_ns;
    } else if (name.starts_with("analyze.")) {
      analyze_ns += timer.total_ns;
    }
  }
  L.ml_evaluate_ns += prediction_ns;
  L.core_analyze_ns += analyze_ns;
  L.core_report_ns += render_ns - prediction_ns - analyze_ns;
  return report;
}

void count_analysis_work(const std::vector<hp::core::CampaignData>& campaigns,
                         bool prediction, Layers& L) {
  for (const auto& c : campaigns) {
    L.core_records += c.records.size();
    if (prediction) L.ml_rows += hp::core::build_prediction_dataset(c).size();
  }
}

TracedScope::TracedScope() {
  hp::obs::metrics().reset();
  hp::obs::clear_recorded();
  hp::obs::set_recording(true);
}

TracedScope::~TracedScope() {
  hp::obs::set_recording(false);
  hp::obs::clear_recorded();
}

}  // namespace perfbench
