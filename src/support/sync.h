// Annotated synchronization primitives: std::mutex / std::condition_variable
// wrappers carrying Clang thread-safety capabilities.
//
// Clang's analysis tracks capabilities through ANNOTATED types only; the
// libstdc++ std::mutex has no annotations, so code locking it directly is
// invisible to -Wthread-safety. Every mutex-guarded structure in this repo
// therefore holds a support::Mutex and scopes its critical sections with
// support::MutexLock — drop-in equivalents (one std::mutex / one
// std::unique_lock inside, zero added state) whose lock/unlock transitions
// the analysis can see.
//
// Condition variables: CondVar wraps std::condition_variable and waits on a
// MutexLock. The analysis does not model wait's unlock/relock (the capability
// reads as continuously held across Wait, which is sound for guarded-access
// checking because wait reacquires before returning). Predicate waits are
// written as explicit `while (!cond) cv.Wait(lock);` loops rather than the
// lambda-predicate overload: the lambda's body would be analyzed as an
// un-annotated function and every guarded read inside it would (correctly,
// but uselessly) warn. The loop form keeps the guarded reads in the
// enclosing function where the capability is visibly held — and is exactly
// what the predicate overload expands to, so behavior is identical.

#ifndef ADAPTRAJ_SUPPORT_SYNC_H_
#define ADAPTRAJ_SUPPORT_SYNC_H_

#include <chrono>
#include <condition_variable>
#include <mutex>

#include "support/thread_annotations.h"

namespace adaptraj {
namespace support {

/// std::mutex with a thread-safety capability. Prefer MutexLock for
/// scoping; Lock/Unlock exist for the rare manual protocol.
class ADAPTRAJ_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock() ADAPTRAJ_ACQUIRE() { mu_.lock(); }
  void Unlock() ADAPTRAJ_RELEASE() { mu_.unlock(); }

  /// The wrapped mutex, for interop with std types (CondVar uses it).
  std::mutex& native() { return mu_; }

 private:
  std::mutex mu_;
};

/// RAII critical section over a Mutex (std::unique_lock inside, so CondVar
/// can wait on it and long-running sections can Unlock()/Lock() around work
/// that must not hold the mutex — e.g. a serving worker running its batch).
class ADAPTRAJ_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) ADAPTRAJ_ACQUIRE(mu) : lock_(mu.native()) {}
  ~MutexLock() ADAPTRAJ_RELEASE() = default;

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

  /// Temporarily exits the critical section (e.g. around user callbacks).
  void Unlock() ADAPTRAJ_RELEASE() { lock_.unlock(); }
  /// Re-enters after Unlock().
  void Lock() ADAPTRAJ_ACQUIRE() { lock_.lock(); }

  /// The wrapped lock, for CondVar only.
  std::unique_lock<std::mutex>& native() { return lock_; }

 private:
  std::unique_lock<std::mutex> lock_;
};

/// Condition variable waiting on a MutexLock. Wait/WaitUntil must be called
/// with the lock held (see the file comment for why this is a convention,
/// not an enforced annotation). Notify* never requires the lock.
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  void Wait(MutexLock& lock) { cv_.wait(lock.native()); }

  template <typename Clock, typename Duration>
  std::cv_status WaitUntil(MutexLock& lock,
                           const std::chrono::time_point<Clock, Duration>& tp) {
    return cv_.wait_until(lock.native(), tp);
  }

  void NotifyOne() { cv_.notify_one(); }
  void NotifyAll() { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
};

}  // namespace support
}  // namespace adaptraj

#endif  // ADAPTRAJ_SUPPORT_SYNC_H_
