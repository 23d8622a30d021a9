#include "common/affinity.hpp"

#include <pthread.h>

#include <thread>

namespace glto::common {

int hardware_concurrency() {
  int n = static_cast<int>(std::thread::hardware_concurrency());
  return n > 0 ? n : 1;
}

SavedMask save_self_mask() {
  SavedMask m;
  CPU_ZERO(&m.set);
  m.ok = pthread_getaffinity_np(pthread_self(), sizeof(m.set), &m.set) == 0;
  return m;
}

void restore_self_mask(const SavedMask& m) {
  if (m.ok) (void)pthread_setaffinity_np(pthread_self(), sizeof(m.set), &m.set);
}

void place_self(int rank, bool pin) {
  if (rank < 0) return;
  cpu_set_t one;
  CPU_ZERO(&one);
  if (pin) {
    CPU_SET(static_cast<unsigned>(rank % hardware_concurrency()), &one);
    (void)pthread_setaffinity_np(pthread_self(), sizeof(one), &one);
    return;
  }
  const SavedMask inherited = save_self_mask();
  const int count = inherited.ok ? CPU_COUNT(&inherited.set) : 0;
  if (count <= 1) return;
  int skip = rank % count;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &inherited.set) && skip-- == 0) {
      CPU_SET(cpu, &one);
      break;
    }
  }
  // Pinning to one CPU migrates the thread there before the call returns;
  // restoring the mask leaves it there until the load balancer moves it.
  if (pthread_setaffinity_np(pthread_self(), sizeof(one), &one) == 0) {
    restore_self_mask(inherited);
  }
}

}  // namespace glto::common
