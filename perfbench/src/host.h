#ifndef PERFBENCH_HOST_H_
#define PERFBENCH_HOST_H_

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// The CPU split of one run: the server (reactor, workers, batch pool)
/// is pinned to `server_cpus`, the single generator thread to `gen_cpu`.
/// On hosts with fewer than two usable CPUs both share the one CPU.
struct CpuPlan {
  std::vector<int> all_cpus;     // the process's affinity mask at start
  std::vector<int> server_cpus;  // all but the last
  int gen_cpu = 0;               // the last
  int server_workers = 1;        // nproc - 2, at least 1
};

CpuPlan PlanCpus();

/// Pins the calling thread (threads it creates later inherit the mask).
void PinCurrentThread(const std::vector<int>& cpus);

/// Summed steal time of `cpus` from /proc/stat, in milliseconds.
double StealMs(const std::vector<int>& cpus);

/// CPU time of the calling thread, in seconds.
double ThreadCpuSeconds();

/// Peak resident set size of the process (VmHWM), in MiB.
double PeakRssMb();

std::string CpuListString(const std::vector<int>& cpus);

}  // namespace perfbench

#endif  // PERFBENCH_HOST_H_
