// study: the paper reproduction as operators run it (generate_report).
//
// Simulates Emmy and Meggie with clean telemetry over the full
// instrumentation window, concurrently on the pool, then renders the full
// markdown report, every analyzer and the ML evaluation included. Check: the
// report at the benchmark's thread count equals the serial (1-thread)
// reference report built in set-up.

#include <exception>
#include <future>

#include "bench.hpp"
#include "layers.hpp"
#include "util/thread_pool.hpp"

namespace perfbench {

namespace hp = hpcpower;

namespace {

class Study final : public Workload {
 public:
  explicit Study(const Params& params) {
    config_.seed = params.seed;
    config_.days = params.smoke ? 0.5 : 6.0;
    config_.warmup_days = params.smoke ? 0.25 : 3.0;
    config_.instrument_begin_day = 0.0;
    config_.instrument_end_day = config_.days;
  }

  void setup() override {
    const std::size_t threads = hp::util::global_thread_count();
    hp::util::set_global_thread_count(1);
    reference_ = hp::core::render_markdown_report(hp::core::run_both_systems(config_), {});
    hp::util::set_global_thread_count(threads);
  }

  void run(bool traced, Checks& checks, RepOutput& out) override {
    std::string report;
    if (!traced) {
      report = hp::core::render_markdown_report(hp::core::run_both_systems(config_), {});
    } else {
      std::vector<hp::core::CampaignData> campaigns;
      {
        TracedScope scope;
        campaigns = traced_both_systems(out.layers);
        report = traced_render(campaigns, {}, out.layers);
      }
      count_analysis_work(campaigns, true, out.layers);
    }
    checks.expect(report == reference_,
                  "study: report differs from the 1-thread reference");
  }

  void inject_failure() override { reference_ += "!"; }

 private:
  /// core::run_both_systems over traced campaigns: the second system runs on
  /// the pool while the caller runs the first.
  std::vector<hp::core::CampaignData> traced_both_systems(Layers& layers) {
    const auto specs = hp::cluster::studied_systems();
    std::vector<hp::core::CampaignData> out(specs.size());
    std::vector<Layers> per(specs.size());
    if (hp::util::global_thread_count() < 2) {
      for (std::size_t i = 0; i < specs.size(); ++i)
        out[i] = traced_campaign(specs[i], config_, per[i]);
    } else {
      std::vector<std::future<void>> pending;
      for (std::size_t i = 1; i < specs.size(); ++i) {
        pending.push_back(hp::util::global_pool().submit(
            [&, i] { out[i] = traced_campaign(specs[i], config_, per[i]); }));
      }
      std::exception_ptr error;
      try {
        out[0] = traced_campaign(specs[0], config_, per[0]);
      } catch (...) {
        error = std::current_exception();
      }
      for (auto& f : pending) {
        try {
          f.get();
        } catch (...) {
          if (!error) error = std::current_exception();
        }
      }
      if (error) std::rethrow_exception(error);
    }
    for (const Layers& l : per) layers += l;
    return out;
  }

  hp::core::StudyConfig config_;
  std::string reference_;
};

}  // namespace

std::unique_ptr<Workload> make_study(const Params& params) {
  return std::make_unique<Study>(params);
}

}  // namespace perfbench
