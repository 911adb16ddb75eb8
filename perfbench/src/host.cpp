#include "host.hpp"

#include <sched.h>
#include <sys/resource.h>
#include <sys/statfs.h>
#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <string>

namespace perfbench {

double process_cpu_s() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

bool reset_peak_rss() {
  // Writing 5 to clear_refs resets VmHWM to the current RSS (Linux >= 4.0).
  std::ofstream out("/proc/self/clear_refs");
  out << "5";
  out.flush();
  return static_cast<bool>(out);
}

double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

std::size_t available_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    const int n = CPU_COUNT(&set);
    if (n > 0) return static_cast<std::size_t>(n);
  }
  return 1;
}

double host_steal_s() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  unsigned long long user = 0, nice = 0, system = 0, idle = 0, iowait = 0, irq = 0,
                     softirq = 0, steal = 0;
  in >> cpu >> user >> nice >> system >> idle >> iowait >> irq >> softirq >> steal;
  if (!in || cpu != "cpu") return 0.0;
  return static_cast<double>(steal) * clock_tick_s();
}

double clock_tick_s() { return 1.0 / static_cast<double>(sysconf(_SC_CLK_TCK)); }

double load_average() {
  std::ifstream in("/proc/loadavg");
  double one = 0.0;
  in >> one;
  return one;
}

std::string filesystem_type(const std::filesystem::path& path) {
  struct statfs info{};
  if (statfs(path.c_str(), &info) != 0) return "unknown";
  switch (static_cast<unsigned long>(info.f_type)) {
    case 0xEF53UL: return "ext2/3/4";
    case 0x01021994UL: return "tmpfs";
    case 0x794C7630UL: return "overlayfs";
    case 0x58465342UL: return "xfs";
    case 0x9123683EUL: return "btrfs";
    case 0x2FC12FC1UL: return "zfs";
    case 0x6969UL: return "nfs";
    case 0x01021997UL: return "9p";
    case 0x65735546UL: return "fuse";
    default: break;
  }
  char hex[32];
  std::snprintf(hex, sizeof(hex), "0x%lx", static_cast<unsigned long>(info.f_type));
  return hex;
}

std::string build_type() { return PERFBENCH_BUILD_TYPE; }
std::string compiler() { return PERFBENCH_COMPILER; }

}  // namespace perfbench
