#include "tensor/parallel.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <thread>
#include <vector>

#include "support/sync.h"
#include "support/thread_annotations.h"
#include "tensor/status.h"

namespace adaptraj {
namespace parallel {

namespace {

thread_local bool g_in_worker = false;

/// Workers sleep on a condition variable between jobs; a job is a shared
/// atomic chunk counter the main thread also drains (so one "extra" thread of
/// useful work comes for free).
///
/// Each Run gets its own heap-allocated Job whose counters are never reset:
/// a straggler worker that captured a finished job sees next >= total and
/// exits without touching the (long gone) chunk function, and the shared_ptr
/// keeps the counters alive for it. Completion is signalled while holding
/// mu_, so the waiter in Run can never miss the final notification.
class Pool {
 public:
  explicit Pool(int threads) : requested_threads_(threads) {
    for (int i = 0; i + 1 < threads; ++i) {
      workers_.emplace_back([this] { WorkerLoop(); });
    }
  }

  ~Pool() { Shutdown(); }

  int num_threads() const { return requested_threads_; }

  void Run(int64_t num_chunks, const std::function<void(int64_t)>& chunk_fn) {
    if (num_chunks <= 0) return;
    if (workers_.empty() || num_chunks == 1) {
      for (int64_t c = 0; c < num_chunks; ++c) chunk_fn(c);
      return;
    }
    auto job = std::make_shared<Job>();
    job->fn = &chunk_fn;
    job->total = num_chunks;
    {
      support::MutexLock lock(mu_);
      current_job_ = job;
      ++job_id_;
    }
    // Wake only as many workers as there are chunks beyond the caller's own
    // share. Small jobs (2-chunk ranges, short task groups) are common;
    // notify_all would stampede every idle worker through the mutex for a
    // 2-chunk job they mostly cannot help with. A worker that is busy
    // (not waiting) when notified picks the job up anyway on its next
    // predicate check, so targeted wakeups never strand work — and chunk
    // RESULTS never depend on which thread claims them (see file comment).
    const size_t wake = std::min(workers_.size(), static_cast<size_t>(num_chunks - 1));
    if (wake == workers_.size()) {
      cv_.NotifyAll();
    } else {
      for (size_t i = 0; i < wake; ++i) cv_.NotifyOne();
    }
    // The calling thread participates in the drain.
    DrainChunks(*job);
    // Wait for stragglers still inside chunk_fn on worker threads. chunk_fn
    // must stay alive until done == total, i.e. until this wait returns.
    support::MutexLock lock(mu_);
    while (job->done.load(std::memory_order_acquire) < job->total) {
      done_cv_.Wait(lock);
    }
    if (current_job_ == job) current_job_.reset();
  }

  void Shutdown() {
    {
      support::MutexLock lock(mu_);
      shutdown_ = true;
      ++job_id_;
    }
    cv_.NotifyAll();
    for (auto& w : workers_) {
      if (w.joinable()) w.join();
    }
    workers_.clear();
  }

 private:
  struct Job {
    const std::function<void(int64_t)>* fn = nullptr;
    std::atomic<int64_t> next{0};
    std::atomic<int64_t> done{0};
    int64_t total = 0;
  };

  void DrainChunks(Job& job) {
    for (;;) {
      int64_t c = job.next.fetch_add(1, std::memory_order_relaxed);
      if (c >= job.total) return;
      (*job.fn)(c);
      if (job.done.fetch_add(1, std::memory_order_acq_rel) + 1 >= job.total) {
        // Notify under the mutex: the waiter either hasn't evaluated its
        // predicate yet (and will now see done == total), or is blocked in
        // wait and receives this notification — no lost wakeup.
        support::MutexLock lock(mu_);
        done_cv_.NotifyAll();
      }
    }
  }

  void WorkerLoop() {
    g_in_worker = true;
    uint64_t seen_job = 0;
    for (;;) {
      std::shared_ptr<Job> job;
      {
        support::MutexLock lock(mu_);
        while (!shutdown_ && job_id_ == seen_job) cv_.Wait(lock);
        if (shutdown_) return;
        seen_job = job_id_;
        job = current_job_;
      }
      if (job != nullptr) DrainChunks(*job);
    }
  }

  const int requested_threads_;
  std::vector<std::thread> workers_;
  support::Mutex mu_;
  support::CondVar cv_;
  support::CondVar done_cv_;
  std::shared_ptr<Job> current_job_ ADAPTRAJ_GUARDED_BY(mu_);
  uint64_t job_id_ ADAPTRAJ_GUARDED_BY(mu_) = 0;
  bool shutdown_ ADAPTRAJ_GUARDED_BY(mu_) = false;
};

int EnvThreads(const char* name) {
  if (const char* env = std::getenv(name)) {
    int n = std::atoi(env);
    if (n >= 1) return n;
  }
  unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

int DefaultThreads() { return EnvThreads("ADAPTRAJ_NUM_THREADS"); }

support::Mutex g_pool_mu;
Pool* g_pool ADAPTRAJ_GUARDED_BY(g_pool_mu) = nullptr;

Pool& GetPool() {
  support::MutexLock lock(g_pool_mu);
  if (g_pool == nullptr) g_pool = new Pool(DefaultThreads());
  return *g_pool;
}

// The training pool is a second Pool instance: same dynamic chunk claiming,
// but a "chunk" is a whole micro-batch task. Kept separate from the kernel
// pool so a task group can run while kernels stay available to a
// single-worker caller. The no-env default is capped: a task group carries
// at most TrainConfig::accum_steps (default 4) tasks, so on a many-core
// host uncapped hardware concurrency would only buy idle threads woken by
// every group's notify_all. An explicit ADAPTRAJ_TRAIN_WORKERS value is
// taken as-is.
constexpr int kDefaultTrainWorkerCap = 8;

support::Mutex g_train_pool_mu;
Pool* g_train_pool ADAPTRAJ_GUARDED_BY(g_train_pool_mu) = nullptr;

Pool& GetTrainPool() {
  support::MutexLock lock(g_train_pool_mu);
  if (g_train_pool == nullptr) {
    // Only a valid explicit count (>= 1) escapes the cap; unset, zero, or
    // garbage values all take the capped hardware default.
    int n = 0;
    if (const char* env = std::getenv("ADAPTRAJ_TRAIN_WORKERS")) {
      n = std::atoi(env);
    }
    if (n < 1) {
      unsigned hw = std::thread::hardware_concurrency();
      n = hw == 0 ? 1 : std::min(static_cast<int>(hw), kDefaultTrainWorkerCap);
    }
    g_train_pool = new Pool(n);
  }
  return *g_train_pool;
}

}  // namespace

int NumThreads() { return GetPool().num_threads(); }

void Configure(int n) {
  ADAPTRAJ_CHECK_MSG(n >= 1, "thread pool needs at least one thread; got " << n);
  support::MutexLock lock(g_pool_mu);
  delete g_pool;
  g_pool = new Pool(n);
}

bool InWorkerThread() { return g_in_worker; }

int NumTrainWorkers() { return GetTrainPool().num_threads(); }

void ConfigureTrainWorkers(int n) {
  ADAPTRAJ_CHECK_MSG(n >= 1, "training pool needs at least one worker; got " << n);
  support::MutexLock lock(g_train_pool_mu);
  delete g_train_pool;
  g_train_pool = new Pool(n);
}

void RunTaskGroup(const std::vector<std::function<void()>>& tasks) {
  if (tasks.empty()) return;
  // Nested groups (a task spawning a group) and single-task groups run
  // inline; so does the whole group when the pool is serial, which leaves
  // the kernel pool fully available to the one training thread.
  Pool& pool = GetTrainPool();
  if (InWorkerThread() || pool.num_threads() == 1 || tasks.size() == 1) {
    for (const auto& task : tasks) task();
    return;
  }
  pool.Run(static_cast<int64_t>(tasks.size()), [&tasks](int64_t i) {
    // Tasks claimed by the calling thread must also run their kernels
    // inline, like the pool workers do, so the worker x kernel-thread
    // product stays bounded by the configured worker count.
    InlineKernelsScope inline_kernels;
    tasks[static_cast<size_t>(i)]();
  });
}

InlineKernelsScope::InlineKernelsScope() : saved_(g_in_worker) { g_in_worker = true; }

InlineKernelsScope::~InlineKernelsScope() { g_in_worker = saved_; }

void ParallelForSlow(int64_t begin, int64_t end, int64_t grain,
                     const std::function<void(int64_t, int64_t)>& body) {
  // The template fast path already handled empty and single-chunk ranges.
  const int64_t num_chunks = (end - begin + grain - 1) / grain;
  Pool& pool = GetPool();
  if (pool.num_threads() == 1) {
    body(begin, end);
    return;
  }
  pool.Run(num_chunks, [&](int64_t c) {
    const int64_t lo = begin + c * grain;
    const int64_t hi = std::min(end, lo + grain);
    body(lo, hi);
  });
}

}  // namespace parallel
}  // namespace adaptraj
