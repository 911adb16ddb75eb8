#pragma once
// Traced compositions: the library's entry points rebuilt from their layers'
// public functions, with a timer around every call into a layer.
//
// traced_campaign() is core::run_campaign, traced_streamed_campaign() is
// stream::run_streamed_campaign, and traced_render() is
// core::render_markdown_report. Each produces the same bytes as the function
// it mirrors; a traced repetition checks that against its untraced twin.

#include <vector>

#include "bench.hpp"
#include "core/report.hpp"
#include "core/study.hpp"
#include "stream/daemon.hpp"
#include "stream/driver.hpp"
#include "stream/source.hpp"

namespace perfbench {

/// core::run_campaign, timed per layer. `config.monitor` must be null.
[[nodiscard]] hpcpower::core::CampaignData traced_campaign(
    const hpcpower::cluster::SystemSpec& spec,
    const hpcpower::core::StudyConfig& config, Layers& layers);

/// stream::run_streamed_campaign, timed per layer; the driver, daemon and WAL
/// calls count as the stream layer.
[[nodiscard]] hpcpower::stream::StreamedCampaignResult traced_streamed_campaign(
    const hpcpower::cluster::SystemSpec& spec,
    const hpcpower::core::StudyConfig& config,
    hpcpower::stream::IngestDaemon& daemon, hpcpower::stream::StreamDriver& driver,
    Layers& layers);

/// core::render_markdown_report, timed. The report runs its analyzers
/// internally, so their times come from the library's own spans
/// ("analyze.*"), which a traced repetition records (see TracedScope).
[[nodiscard]] std::string traced_render(
    const std::vector<hpcpower::core::CampaignData>& campaigns,
    const hpcpower::core::ReportOptions& options, Layers& layers);

/// Work counts of the ml and core layers for `campaigns`.
void count_analysis_work(const std::vector<hpcpower::core::CampaignData>& campaigns,
                         bool prediction, Layers& layers);

/// Turns on the library's span recording for the lifetime of the scope and
/// starts it from empty timers, so traced_render() reads this repetition's.
class TracedScope {
 public:
  TracedScope();
  ~TracedScope();
  TracedScope(const TracedScope&) = delete;
  TracedScope& operator=(const TracedScope&) = delete;
};

}  // namespace perfbench
