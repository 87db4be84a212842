#include "host.h"

#include <pthread.h>
#include <sched.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

namespace perfbench {

CpuPlan PlanCpus() {
  CpuPlan plan;
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &set)) plan.all_cpus.push_back(c);
    }
  }
  if (plan.all_cpus.empty()) plan.all_cpus.push_back(0);
  const int n = static_cast<int>(plan.all_cpus.size());
  plan.gen_cpu = plan.all_cpus.back();
  plan.server_cpus.assign(plan.all_cpus.begin(),
                          plan.all_cpus.end() - (n > 1 ? 1 : 0));
  plan.server_workers = std::max(1, n - 2);
  return plan;
}

void PinCurrentThread(const std::vector<int>& cpus) {
  cpu_set_t set;
  CPU_ZERO(&set);
  for (int c : cpus) CPU_SET(c, &set);
  if (pthread_setaffinity_np(pthread_self(), sizeof(set), &set) != 0) {
    std::fprintf(stderr, "perfbench: pthread_setaffinity_np failed\n");
    std::exit(1);
  }
}

double StealMs(const std::vector<int>& cpus) {
  std::ifstream in("/proc/stat");
  std::string line;
  int64_t ticks = 0;
  while (std::getline(in, line)) {
    if (line.compare(0, 3, "cpu") != 0 || line.size() < 4 ||
        line[3] < '0' || line[3] > '9') {
      continue;
    }
    std::istringstream fields(line.substr(3));
    int cpu = -1;
    fields >> cpu;
    if (std::find(cpus.begin(), cpus.end(), cpu) == cpus.end()) continue;
    // user nice system idle iowait irq softirq steal
    int64_t v[8] = {0, 0, 0, 0, 0, 0, 0, 0};
    for (int64_t& x : v) fields >> x;
    ticks += v[7];
  }
  return 1000.0 * static_cast<double>(ticks) /
         static_cast<double>(sysconf(_SC_CLK_TCK));
}

double ThreadCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

double PeakRssMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return static_cast<double>(std::atoll(line.c_str() + 6)) / 1024.0;
    }
  }
  return 0;
}

std::string CpuListString(const std::vector<int>& cpus) {
  std::string out;
  for (int c : cpus) {
    if (!out.empty()) out += ",";
    out += std::to_string(c);
  }
  return out;
}

}  // namespace perfbench
