// site: one system (Emmy) run as a live, power-capped site.
//
// The closed-loop power manager runs with a site cap, a noisy admission
// predictor and a faulty site meter. Telemetry streams through the
// fault-injecting StreamDriver into a WAL-backed IngestDaemon that writes a
// checkpoint every 2000 batches (one batch per simulated minute). Afterwards
// a fresh daemon recover()s from the directory the live run left behind: it
// loads the last checkpoint and replays the WAL records after it. Checks:
// the streamed report equals the plain batch report built in set-up, the
// recovered daemon's summary equals the live one, the power ledger
// reconciles, and the site cap is never exceeded.

#include "bench.hpp"
#include "layers.hpp"

namespace perfbench {

namespace hp = hpcpower;
namespace fs = std::filesystem;

namespace {

std::uint64_t directory_bytes(const fs::path& dir) {
  std::uint64_t bytes = 0;
  for (const auto& entry : fs::directory_iterator(dir))
    if (entry.is_regular_file()) bytes += entry.file_size();
  return bytes;
}

class Site final : public Workload {
 public:
  explicit Site(const Params& params)
      : spec_(hp::cluster::emmy_spec()) {
    config_.seed = params.seed;
    config_.days = params.smoke ? 0.5 : 3.0;
    config_.warmup_days = params.smoke ? 0.25 : 1.0;
    config_.instrument_begin_day = 0.0;
    config_.instrument_end_day = config_.days;
    config_.power_manager.enabled = true;
    config_.power_manager.site_cap_fraction = 0.70;
    config_.power_manager.predictor_error_sigma = 0.25;
    config_.power_manager.meter_fault_rate = 0.02;

    ingest_.wal_dir = (params.work_dir / "site-wal").string();
    ingest_.checkpoint_every = 2000;
    // Deeper than the reordering this fault mix produces (at most 115
    // batches over twelve seeds). With the default 64, about one seed in
    // five falls into a backpressure retry storm (one offer in 250 accepted)
    // and the stream layer's cost follows the seed instead of the code.
    ingest_.pending_capacity = 256;

    faults_.enabled = true;
    faults_.seed = params.seed + 1;
    faults_.drop_p = 0.10;
    faults_.dup_p = 0.08;
    faults_.delay_p = 0.15;
    report_options_.include_prediction = false;
  }

  void setup() override {
    reference_ = hp::core::render_markdown_report(
        {hp::core::run_campaign(spec_, config_)}, report_options_);
  }

  void run(bool traced, Checks& checks, RepOutput& out) override {
    fs::remove_all(ingest_.wal_dir);
    fs::create_directories(ingest_.wal_dir);

    hp::stream::StreamedCampaignResult result;
    std::string live_summary;
    std::string report;
    {
      hp::stream::IngestDaemon daemon(spec_, ingest_);
      hp::stream::StreamDriver driver(daemon, faults_);
      if (!traced) {
        result = hp::stream::run_streamed_campaign(spec_, config_, daemon, driver);
        report = hp::core::render_markdown_report({result.streamed}, report_options_);
      } else {
        TracedScope scope;
        result = traced_streamed_campaign(spec_, config_, daemon, driver, out.layers);
        report = traced_render({result.streamed}, report_options_, out.layers);
      }
      live_summary = daemon.render_summary();
    }
    checks.expect(report == reference_, "site: streamed report differs from the batch report");

    const hp::power::PowerReport& power = *result.batch.power;
    checks.expect(power.ledger_reconciles, "site: power ledger does not reconcile");
    checks.expect(power.max_true_site_w <= power.site_cap_w &&
                      power.cap_violation_minutes == 0,
                  "site: site power exceeded the cap");

    const std::uint64_t wal_bytes = directory_bytes(ingest_.wal_dir);
    hp::stream::IngestDaemon recovered(spec_, ingest_);
    const std::int64_t t0 = now_ns();
    recovered.recover();
    out.recover_s = static_cast<double>(now_ns() - t0) * 1e-9;
    checks.expect(recovered.render_summary() == live_summary,
                  "site: recovered daemon summary differs from the live daemon");

    if (traced) {
      Layers& L = out.layers;
      L.stream_offered += result.transit.offered;
      L.stream_accepted += result.transit.accepted;
      L.stream_peak_pending = result.transit.peak_pending;
      L.stream_rows_applied += result.apply.rows_applied;
      L.stream_wal_bytes += wal_bytes;
      L.stream_replay_records += recovered.recovery_stats().records_replayed;
      count_analysis_work({result.streamed}, false, L);
    }
  }

  void inject_failure() override { reference_ += "!"; }

 private:
  hp::cluster::SystemSpec spec_;
  hp::core::StudyConfig config_;
  hp::stream::IngestConfig ingest_;
  hp::stream::TransitFaultConfig faults_;
  hp::core::ReportOptions report_options_;
  std::string reference_;
};

}  // namespace

std::unique_ptr<Workload> make_site(const Params& params) {
  return std::make_unique<Site>(params);
}

}  // namespace perfbench
