// Where and how a result was measured, so that a change of host or build
// cannot pass for a regression.
#include <sys/utsname.h>
#include <unistd.h>

#include <fstream>
#include <sstream>
#include <string>

#include "bench.hpp"

#ifndef PB_BUILD_TYPE
#define PB_BUILD_TYPE "unknown"
#endif
#ifndef PB_CXX_FLAGS
#define PB_CXX_FLAGS "unknown"
#endif

namespace pb {
namespace {

std::string first_line(const std::string& path) {
  std::ifstream f(path);
  std::string s;
  std::getline(f, s);
  return s;
}

std::string cpu_model() {
  std::ifstream f("/proc/cpuinfo");
  for (std::string line; std::getline(f, line);)
    if (line.rfind("model name", 0) == 0) {
      const std::size_t c = line.find(':');
      return c == std::string::npos ? line : line.substr(line.find_first_not_of(' ', c + 1));
    }
  return "unknown";
}

/// Size of the cpu0 cache at `level` ("2" or "3") as the kernel prints it.
std::string cache_size(const char* level) {
  for (int i = 0; i < 8; ++i) {
    const std::string dir = "/sys/devices/system/cpu/cpu0/cache/index" + std::to_string(i);
    if (first_line(dir + "/level") == level && first_line(dir + "/type") != "Instruction")
      return first_line(dir + "/size");
  }
  return "unknown";
}

}  // namespace

std::string json_escape(const std::string& s) {
  std::string o;
  for (char c : s) {
    if (c == '"' || c == '\\') o += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) o += c;
  }
  return o;
}

unsigned cpu_count() {
  const long n = sysconf(_SC_NPROCESSORS_ONLN);
  return n > 0 ? static_cast<unsigned>(n) : 1u;
}

double peak_rss_mb() {
  std::ifstream f("/proc/self/status");
  for (std::string line; std::getline(f, line);)
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
  return 0;
}

std::string provenance_json(const Config& cfg) {
  __builtin_cpu_init();
  utsname u{};
  uname(&u);
  std::ostringstream o;
  o << "{\"cpu\":\"" << json_escape(cpu_model()) << "\",\"nproc\":" << cpu_count()
    << ",\"avx2\":" << (__builtin_cpu_supports("avx2") ? "true" : "false")
    << ",\"avx512f\":" << (__builtin_cpu_supports("avx512f") ? "true" : "false")
    << ",\"avx512vbmi2\":" << (__builtin_cpu_supports("avx512vbmi2") ? "true" : "false")
    << ",\"l2\":\"" << cache_size("2") << "\",\"llc\":\"" << cache_size("3") << "\""
    << ",\"kernel\":\"" << json_escape(u.release) << "\""
    << ",\"compiler\":\"" << json_escape(__VERSION__) << "\""
    << ",\"flags\":\"" << json_escape(PB_CXX_FLAGS) << "\""
    << ",\"build_type\":\"" << PB_BUILD_TYPE << "\""
    << ",\"git_sha\":\"" << json_escape(cfg.git_sha) << "\""
    << ",\"source_digest\":\"" << json_escape(cfg.source_digest) << "\""
    << ",\"workload\":\"" << json_escape(cfg.workload) << "\",\"seed\":" << cfg.seed
    << ",\"seconds\":" << cfg.seconds << ",\"trace\":" << (cfg.trace ? 1 : 0) << "}";
  return o.str();
}

}  // namespace pb
