// perfbench_keep_awake: keeps every CPU of the benchmark's machine from
// going idle while a workload runs.
//
//   perfbench_keep_awake MAX_SECONDS
//
// Starts one SCHED_IDLE thread per CPU in its affinity mask, each pinned
// to its CPU and spinning on a pause instruction, prints "ready" and runs
// until it is killed, its parent exits or MAX_SECONDS pass.
//
// On a virtual machine whose host runs other guests, a vCPU that goes
// idle is descheduled by the host, and the next thread woken onto it
// waits for the host to schedule the vCPU again. The workloads park and
// wake bound threads thousands of times a second, so without this their
// wall times measure the host's scheduler (per run, 4-22% of CPU time
// went to steal on the 4-vCPU reference VM; 0-1% with it). A SCHED_IDLE
// thread yields its CPU at once to any normal thread woken there, so the
// workload sees an idle CPU that wakes like one on a dedicated machine.
// It is a separate process, so the workload's getrusage() CPU time does
// not include it.
#include <pthread.h>
#include <sched.h>
#include <sys/prctl.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <thread>
#include <vector>

namespace {

inline void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield");
#endif
}

/// Spins on `cpu` until `stop`. A thread that cannot be pinned or made
/// SCHED_IDLE does not spin: at normal priority it would take CPU time
/// from the workload instead of only filling idle time.
void spin_on(int cpu, const std::atomic<bool>& stop) {
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  const sched_param param{};
  if (pthread_setaffinity_np(pthread_self(), sizeof set, &set) != 0 ||
      pthread_setschedparam(pthread_self(), SCHED_IDLE, &param) != 0) {
    std::fprintf(stderr, "perfbench_keep_awake: CPU %d left idle\n", cpu);
    return;
  }
  while (!stop.load(std::memory_order_relaxed)) {
    for (int i = 0; i < 1024; ++i) cpu_relax();
  }
}

}  // namespace

int main(int argc, char** argv) {
  const double max_seconds = argc == 2 ? std::atof(argv[1]) : 0;
  if (!(max_seconds > 0)) {
    std::fprintf(stderr, "usage: perfbench_keep_awake MAX_SECONDS\n");
    return 2;
  }
  // Die with the parent, even if it is killed before it can stop us.
  const pid_t parent = getppid();
  prctl(PR_SET_PDEATHSIG, SIGKILL);
  if (getppid() != parent) return 0;

  cpu_set_t mask;
  CPU_ZERO(&mask);
  if (sched_getaffinity(0, sizeof mask, &mask) != 0) return 2;
  std::atomic<bool> stop{false};
  std::vector<std::thread> spinners;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &mask)) {
      spinners.emplace_back(spin_on, cpu, std::cref(stop));
    }
  }
  std::printf("ready\n");
  std::fflush(stdout);
  std::this_thread::sleep_for(std::chrono::duration<double>(max_seconds));
  stop.store(true);
  for (std::thread& t : spinners) t.join();
  return 0;
}
