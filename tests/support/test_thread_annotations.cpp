// Tests for support/thread_annotations.h + support/sync.h.
//
// Two obligations, split by compiler:
//   * On NON-Clang compilers the annotation macros must expand to NOTHING —
//     they are GNU attributes only Clang's -Wthread-safety understands, and
//     a stray expansion under GCC would be a hard syntax error in every
//     annotated header. Verified below by stringizing the macros: an empty
//     expansion stringizes to "" (sizeof == 1), checked at compile time.
//   * Everywhere, the annotated support::Mutex / MutexLock / CondVar
//     wrappers must behave exactly like the std primitives they wrap — the
//     smoke tests exercise lock exclusion, the mid-scope Unlock/Lock used by
//     the serving workers' loop, and a condvar handoff, so the wrappers can never
//     drift into annotation-only stubs.
//
// The Clang side of the contract (annotations actually DETECTED misuse) is
// compile-time by nature and lives in CI: the static-analysis job builds
// with -Werror=thread-safety, where e.g. removing an ADAPTRAJ_GUARDED_BY
// from EncodeCache fails the build.

#include "support/thread_annotations.h"

#include <chrono>
#include <condition_variable>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "support/sync.h"

#ifndef __clang__
// Double indirection so the macro is expanded BEFORE stringization.
#define ADAPTRAJ_TEST_STR_INNER(x) #x
#define ADAPTRAJ_TEST_STR(x) ADAPTRAJ_TEST_STR_INNER(x)

namespace {
adaptraj::support::Mutex test_mu;  // a real capability to name in the macros
}  // namespace

static_assert(sizeof(ADAPTRAJ_TEST_STR(ADAPTRAJ_CAPABILITY("mutex"))) == 1,
              "ADAPTRAJ_CAPABILITY must expand to nothing on non-Clang");
static_assert(sizeof(ADAPTRAJ_TEST_STR(ADAPTRAJ_SCOPED_CAPABILITY)) == 1,
              "ADAPTRAJ_SCOPED_CAPABILITY must expand to nothing on non-Clang");
static_assert(sizeof(ADAPTRAJ_TEST_STR(ADAPTRAJ_GUARDED_BY(test_mu))) == 1,
              "ADAPTRAJ_GUARDED_BY must expand to nothing on non-Clang");
static_assert(sizeof(ADAPTRAJ_TEST_STR(ADAPTRAJ_PT_GUARDED_BY(test_mu))) == 1,
              "ADAPTRAJ_PT_GUARDED_BY must expand to nothing on non-Clang");
static_assert(sizeof(ADAPTRAJ_TEST_STR(ADAPTRAJ_REQUIRES(test_mu))) == 1,
              "ADAPTRAJ_REQUIRES must expand to nothing on non-Clang");
static_assert(sizeof(ADAPTRAJ_TEST_STR(ADAPTRAJ_REQUIRES_SHARED(test_mu))) == 1,
              "ADAPTRAJ_REQUIRES_SHARED must expand to nothing on non-Clang");
static_assert(sizeof(ADAPTRAJ_TEST_STR(ADAPTRAJ_ACQUIRE(test_mu))) == 1,
              "ADAPTRAJ_ACQUIRE must expand to nothing on non-Clang");
static_assert(sizeof(ADAPTRAJ_TEST_STR(ADAPTRAJ_RELEASE(test_mu))) == 1,
              "ADAPTRAJ_RELEASE must expand to nothing on non-Clang");
static_assert(sizeof(ADAPTRAJ_TEST_STR(ADAPTRAJ_TRY_ACQUIRE(true, test_mu))) == 1,
              "ADAPTRAJ_TRY_ACQUIRE must expand to nothing on non-Clang");
static_assert(sizeof(ADAPTRAJ_TEST_STR(ADAPTRAJ_EXCLUDES(test_mu))) == 1,
              "ADAPTRAJ_EXCLUDES must expand to nothing on non-Clang");
static_assert(sizeof(ADAPTRAJ_TEST_STR(ADAPTRAJ_ACQUIRED_BEFORE(test_mu))) == 1,
              "ADAPTRAJ_ACQUIRED_BEFORE must expand to nothing on non-Clang");
static_assert(sizeof(ADAPTRAJ_TEST_STR(ADAPTRAJ_ACQUIRED_AFTER(test_mu))) == 1,
              "ADAPTRAJ_ACQUIRED_AFTER must expand to nothing on non-Clang");
static_assert(sizeof(ADAPTRAJ_TEST_STR(ADAPTRAJ_RETURN_CAPABILITY(test_mu))) == 1,
              "ADAPTRAJ_RETURN_CAPABILITY must expand to nothing on non-Clang");
static_assert(sizeof(ADAPTRAJ_TEST_STR(ADAPTRAJ_ASSERT_CAPABILITY(test_mu))) == 1,
              "ADAPTRAJ_ASSERT_CAPABILITY must expand to nothing on non-Clang");
static_assert(
    sizeof(ADAPTRAJ_TEST_STR(ADAPTRAJ_NO_THREAD_SAFETY_ANALYSIS)) == 1,
    "ADAPTRAJ_NO_THREAD_SAFETY_ANALYSIS must expand to nothing on non-Clang");

#undef ADAPTRAJ_TEST_STR
#undef ADAPTRAJ_TEST_STR_INNER
#endif  // !__clang__

namespace adaptraj {
namespace {

TEST(SyncTest, MutexLockExcludesConcurrentCriticalSections) {
  support::Mutex mu;
  int counter = 0;  // guarded by mu (by convention here; no annotation needed
                    // in a test-local scope)
  constexpr int kThreads = 4;
  constexpr int kIters = 2000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&mu, &counter] {
      for (int i = 0; i < kIters; ++i) {
        support::MutexLock lock(mu);
        ++counter;
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(counter, kThreads * kIters);
}

TEST(SyncTest, MidScopeUnlockRelockMatchesDispatcherUsage) {
  // A serving worker's loop shape: hold, unlock to run work, relock to update
  // shared state. The relocked section must again exclude other holders.
  support::Mutex mu;
  int stage = 0;
  support::MutexLock lock(mu);
  stage = 1;
  lock.Unlock();
  std::thread other([&mu, &stage] {
    support::MutexLock inner(mu);
    if (stage == 1) stage = 2;
  });
  other.join();
  lock.Lock();
  EXPECT_EQ(stage, 2);
  stage = 3;
  // Scope exit releases the relocked mutex; a fresh acquisition must succeed.
  lock.Unlock();
  {
    support::MutexLock again(mu);
    EXPECT_EQ(stage, 3);
  }
}

TEST(SyncTest, CondVarHandsOffThroughExplicitWaitLoop) {
  // The repo's convention: explicit `while (!cond) cv.Wait(lock);` loops
  // (the predicate-lambda overload is not annotation-friendly). This is a
  // producer/consumer handoff through that exact shape.
  support::Mutex mu;
  support::CondVar cv;
  bool ready = false;
  int delivered = 0;
  std::thread consumer([&] {
    support::MutexLock lock(mu);
    while (!ready) cv.Wait(lock);
    delivered = 42;
  });
  {
    support::MutexLock lock(mu);
    ready = true;
  }
  cv.NotifyAll();
  consumer.join();
  support::MutexLock lock(mu);
  EXPECT_EQ(delivered, 42);
}

TEST(SyncTest, CondVarWaitUntilTimesOut) {
  support::Mutex mu;
  support::CondVar cv;
  support::MutexLock lock(mu);
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(5);
  // Nothing ever notifies: the wait must come back with a timeout verdict
  // and the lock held (we can still touch guarded state below).
  EXPECT_EQ(cv.WaitUntil(lock, deadline), std::cv_status::timeout);
}

}  // namespace
}  // namespace adaptraj
