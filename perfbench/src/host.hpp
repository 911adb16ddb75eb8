#pragma once
// Process and host probes: CPU time, peak resident memory, and the host
// fingerprint printed with every result set.

#include <cstddef>
#include <filesystem>
#include <string>

namespace perfbench {

/// User + system CPU seconds of the whole process, all threads.
[[nodiscard]] double process_cpu_s();

/// Restarts the peak-RSS high-water mark at the current resident size.
/// Returns false where the kernel does not support it; peak_rss_mb() then
/// reports the peak since process start.
bool reset_peak_rss();

/// Peak resident memory in MiB since the last reset_peak_rss().
[[nodiscard]] double peak_rss_mb();

/// Processors this process may run on, as `nproc` prints it.
[[nodiscard]] std::size_t available_cpus();

/// CPU time the hypervisor took from this host's processors since boot, in
/// seconds summed over processors (the "steal" column of /proc/stat; 0 on
/// bare metal).
[[nodiscard]] double host_steal_s();

/// Length of one kernel clock tick, the resolution of host_steal_s().
[[nodiscard]] double clock_tick_s();

/// The 1-minute load average.
[[nodiscard]] double load_average();

/// Filesystem type name of `path` ("xfs", "tmpfs", ...; hex magic if unknown).
[[nodiscard]] std::string filesystem_type(const std::filesystem::path& path);

/// Build type and compiler of this binary.
[[nodiscard]] std::string build_type();
[[nodiscard]] std::string compiler();

}  // namespace perfbench
