#include "serve/inference_engine.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/parallel_trainer.h"
#include "tensor/ops.h"
#include "tensor/parallel.h"

namespace adaptraj {
namespace serve {

namespace {

using Clock = std::chrono::steady_clock;

double Seconds(Clock::time_point start, Clock::time_point end) {
  return std::chrono::duration<double>(end - start).count();
}

void ValidateOptions(const InferenceEngineOptions& options) {
  ADAPTRAJ_CHECK_MSG(options.batch_size >= 1,
                     "InferenceEngine batch_size must be >= 1; got "
                         << options.batch_size);
  ADAPTRAJ_CHECK_MSG(options.max_batch_delay_ms >= 0,
                     "InferenceEngine max_batch_delay_ms must be >= 0");
  ADAPTRAJ_CHECK_MSG(options.num_replicas >= 0,
                     "InferenceEngine num_replicas must be >= 0");
  ADAPTRAJ_CHECK_MSG(options.max_queued_requests >= 0,
                     "InferenceEngine max_queued_requests must be >= 0");
  ADAPTRAJ_CHECK_MSG(options.stuck_batch_warn_ms >= 0,
                     "InferenceEngine stuck_batch_warn_ms must be >= 0");
  ADAPTRAJ_CHECK_MSG(options.encode_cache_bytes > 0,
                     "InferenceEngine encode_cache_bytes must be > 0; got "
                         << options.encode_cache_bytes);
}

/// Why data::MakeBatch would reject `scene` under `seq` (its length checks
/// abort), or "" when the scene fits.
std::string SceneShapeError(const data::TrajectorySequence& scene,
                            const data::SequenceConfig& seq) {
  const size_t track_len = static_cast<size_t>(seq.total_len());
  if (scene.focal.size() != track_len) {
    return "invalid request: focal track has " + std::to_string(scene.focal.size()) +
           " points; the engine's sequence config needs obs_len + pred_len = " +
           std::to_string(track_len);
  }
  const size_t window_len = static_cast<size_t>(seq.obs_len);
  for (size_t m = 0; m < scene.neighbors.size(); ++m) {
    if (scene.neighbors[m].size() != window_len) {
      return "invalid request: neighbor " + std::to_string(m) + " window has " +
             std::to_string(scene.neighbors[m].size()) +
             " points; the engine's sequence config needs obs_len = " +
             std::to_string(window_len);
    }
  }
  return "";
}

/// Why the engine refuses `scene`'s observed window — the focal track's
/// first obs_len points and every neighbor window — for holding a NaN or
/// Inf coordinate, or "" when all of it is finite. Only the losses read the
/// future, so a non-finite future is left alone. Call once SceneShapeError
/// passed.
std::string NonFiniteObservationError(const data::TrajectorySequence& scene,
                                      const data::SequenceConfig& seq) {
  const auto finite = [](const sim::Vec2& p) {
    return std::isfinite(p.x) && std::isfinite(p.y);
  };
  for (int t = 0; t < seq.obs_len; ++t) {
    if (!finite(scene.focal[static_cast<size_t>(t)])) {
      return "invalid request: observed focal point " + std::to_string(t) +
             " is not finite";
    }
  }
  for (size_t m = 0; m < scene.neighbors.size(); ++m) {
    for (size_t t = 0; t < scene.neighbors[m].size(); ++t) {
      if (!finite(scene.neighbors[m][t])) {
        return "invalid request: neighbor " + std::to_string(m) + " point " +
               std::to_string(t) + " is not finite";
      }
    }
  }
  return "";
}

/// Resolves the engine's tri-state cache switch to on/off.
bool EncodeCacheResolvedOn(EncodeCacheMode mode) {
  switch (mode) {
    case EncodeCacheMode::kOn: return true;
    case EncodeCacheMode::kOff: return false;
    case EncodeCacheMode::kAuto: return EncodeCacheEnabledByEnv();
  }
  return false;
}

}  // namespace

InferenceEngine::InferenceEngine(const core::Method* method,
                                 const InferenceEngineOptions& options)
    : method_(method), options_(options) {
  ADAPTRAJ_CHECK_MSG(method != nullptr, "InferenceEngine over null method");
  ValidateOptions(options_);
  {
    // Uncontended (the service threads start below); taken so the guarded
    // members are initialized under their capability like everywhere else.
    support::MutexLock lock(mu_);
    replicas_ = MakeReplicaPool(method_, options_.num_replicas > 0
                                             ? options_.num_replicas
                                             : parallel::NumTrainWorkers());
    // Reentrant methods share the master, so any worker count is safe; a
    // non-reentrant one gets exactly one worker per private instance.
    if (method_->reentrant_predict()) {
      num_workers_ = parallel::NumTrainWorkers();
    } else {
      num_workers_ = replicas_ != nullptr ? replicas_->size() : 1;
    }
    if (EncodeCacheResolvedOn(options_.encode_cache) &&
        method_->predict_encode_width() > 0) {
      EncodeCacheOptions cache_options;
      cache_options.max_bytes = options_.encode_cache_bytes;
      cache_options.identity = method_->name() + ":" +
                               std::to_string(method_->predict_encode_width());
      encode_cache_ = std::make_unique<EncodeCache>(cache_options);
    }
  }
  workers_.reserve(static_cast<size_t>(num_workers_));
  for (int w = 0; w < num_workers_; ++w) {
    workers_.emplace_back([this, w] {
      if (num_workers_ == 1) return WorkerLoop(w);
      // Parallelism comes from the workers: each runs its kernels inline.
      parallel::InlineKernelsScope inline_kernels;
      WorkerLoop(w);
    });
  }
  watchdog_ = std::thread([this] { WatchdogLoop(); });
}

InferenceEngine::InferenceEngine(std::unique_ptr<core::Method> method,
                                 const InferenceEngineOptions& options)
    : InferenceEngine(method.get(), options) {
  support::MutexLock lock(mu_);
  owned_method_ = std::move(method);
}

InferenceEngine::~InferenceEngine() {
  Shutdown();
  {
    // Blocked Drain/Submit/SwapWeights callers woke at Shutdown; wait for
    // the last of them to leave our condition variables before tearing the
    // synchronization primitives down.
    support::MutexLock lock(mu_);
    while (blocked_callers_ != 0) idle_cv_.Wait(lock);
  }
  for (std::thread& worker : workers_) worker.join();
  if (watchdog_.joinable()) watchdog_.join();
}

void InferenceEngine::Shutdown() {
  {
    support::MutexLock lock(mu_);
    if (!shutdown_) {
      shutdown_ = true;
      // Lossless error delivery even on teardown: queued requests that never
      // executed fail with a typed, descriptive error instead of a broken
      // promise. Batches in flight (already moved out of pending_) still
      // deliver their results before their workers exit.
      for (auto& entry : pending_) {
        if (entry.second.expired) continue;  // already failed by its deadline
        ++stats_.stopped_requests;
        entry.second.promise.set_exception(std::make_exception_ptr(EngineStoppedError(
            "InferenceEngine shut down or destroyed before the request at slot " +
            std::to_string(entry.first) +
            " executed; call Drain() before stopping")));
      }
      pending_.clear();
      armed_deadlines_ = 0;
    }
  }
  work_cv_.NotifyAll();
  head_cv_.NotifyAll();
  watchdog_cv_.NotifyAll();
  space_cv_.NotifyAll();
  drained_cv_.NotifyAll();
}

std::unique_ptr<ReplicaPool> InferenceEngine::MakeReplicaPool(const core::Method* method,
                                                              int slots) {
  if (method->reentrant_predict() || slots <= 1) return nullptr;
  return std::make_unique<ReplicaPool>(method, slots);
}

int InferenceEngine::num_replica_slots() const {
  // Under mu_: SwapWeights replaces the pool at the flip (the unlocked read
  // this used to do was benign only while no caller overlapped a swap —
  // surfaced by -Wthread-safety, fixed by locking).
  support::MutexLock lock(mu_);
  return replicas_ != nullptr ? replicas_->size() : 1;
}

InferenceEngineStats InferenceEngine::stats() const {
  support::MutexLock lock(mu_);
  InferenceEngineStats snapshot = stats_;
  // method_/replicas_ are stable under mu_ (SwapWeights flips them under the
  // same lock); replica slot 0 aliases method_, so start the sum at slot 1.
  snapshot.plan = method_->plan_stats();
  if (replicas_ != nullptr) {
    for (int slot = 1; slot < replicas_->size(); ++slot) {
      snapshot.plan += replicas_->method(slot)->plan_stats();
    }
  }
  if (encode_cache_ != nullptr) snapshot.encode_cache = encode_cache_->stats();
  return snapshot;
}

std::future<Tensor> InferenceEngine::FailedFuture(std::exception_ptr error) {
  std::promise<Tensor> promise;
  promise.set_exception(std::move(error));
  return promise.get_future();
}

std::future<Tensor> InferenceEngine::RejectLocked(const std::string& message) {
  return RejectLocked(std::make_exception_ptr(ServeError(message)));
}

std::future<Tensor> InferenceEngine::RejectLocked(std::exception_ptr error) {
  ++stats_.requests;
  ++stats_.rejected_requests;
  return FailedFuture(std::move(error));
}

std::future<Tensor> InferenceEngine::Submit(const data::TrajectorySequence& scene) {
  return SubmitImpl(/*has_explicit_id=*/false, 0, scene, SubmitOptions());
}

std::future<Tensor> InferenceEngine::Submit(const data::TrajectorySequence& scene,
                                            const SubmitOptions& submit_options) {
  return SubmitImpl(/*has_explicit_id=*/false, 0, scene, submit_options);
}

std::future<Tensor> InferenceEngine::Submit(uint64_t request_id,
                                            const data::TrajectorySequence& scene) {
  return SubmitImpl(/*has_explicit_id=*/true, request_id, scene, SubmitOptions());
}

std::future<Tensor> InferenceEngine::Submit(uint64_t request_id,
                                            const data::TrajectorySequence& scene,
                                            const SubmitOptions& submit_options) {
  return SubmitImpl(/*has_explicit_id=*/true, request_id, scene, submit_options);
}

std::future<Tensor> InferenceEngine::SubmitImpl(bool has_explicit_id,
                                                uint64_t request_id,
                                                const data::TrajectorySequence& scene,
                                                const SubmitOptions& submit_options) {
  // data::MakeBatch aborts on a length mismatch, so a scene that would fail
  // its checks is refused here, before it can reach a serving worker; so is
  // a non-finite observation, which would come back as a garbage result.
  // The checks read only the immutable options, so they run outside mu_.
  std::string input_error = SceneShapeError(scene, options_.sequence);
  if (input_error.empty()) {
    input_error = NonFiniteObservationError(scene, options_.sequence);
  }
  if (!input_error.empty()) {
    support::MutexLock lock(mu_);
    return RejectLocked(std::make_exception_ptr(InvalidRequestError(input_error)));
  }
  std::future<Tensor> future;
  support::CondVar* wake = nullptr;
  {
    support::MutexLock lock(mu_);
    if (submit_options.timeout_ms < 0) {
      return RejectLocked("Submit timeout_ms must be >= 0; got " +
                          std::to_string(submit_options.timeout_ms));
    }
    const size_t bound = static_cast<size_t>(options_.max_queued_requests);
    if (!shutdown_ && bound > 0 && pending_.size() >= bound) {
      if (options_.overflow_policy == OverflowPolicy::kShed) {
        // Admission control: fail fast, never enqueue. The caller branches
        // on OverloadedError (retry with backoff, divert to another shard).
        ++stats_.requests;
        ++stats_.shed_requests;
        return FailedFuture(std::make_exception_ptr(OverloadedError(
            "request shed: the engine queue already holds " +
            std::to_string(pending_.size()) + " requests (max_queued_requests=" +
            std::to_string(options_.max_queued_requests) + ")")));
      }
      // Backpressure: park the producer until a worker retires queue
      // entries — or shutdown turns the wait into a typed failure.
      ++blocked_callers_;
      while (!shutdown_ && pending_.size() >= bound) space_cv_.Wait(lock);
      --blocked_callers_;
      idle_cv_.NotifyAll();
    }
    if (shutdown_) {
      return RejectLocked(std::make_exception_ptr(
          EngineStoppedError("Submit on a stopped InferenceEngine")));
    }
    future = SubmitLocked(has_explicit_id ? request_id : next_auto_id_, scene,
                          submit_options, &wake);
  }
  if (wake != nullptr) wake->NotifyOne();
  if (submit_options.timeout_ms > 0) watchdog_cv_.NotifyOne();
  return future;
}

std::future<Tensor> InferenceEngine::SubmitLocked(uint64_t request_id,
                                                  const data::TrajectorySequence& scene,
                                                  const SubmitOptions& submit_options,
                                                  support::CondVar** wake) {
  const uint64_t batch_size = static_cast<uint64_t>(options_.batch_size);
  const uint64_t first_slot = next_batch_ * batch_size;
  if (request_id < first_slot) {
    // A client-controlled id must never abort the server. With the deadline
    // enabled this is usually an operational race — an idle worker or an
    // expired deadline retired the slot space at a moment the producer
    // cannot observe.
    if (options_.max_batch_delay_ms > 0) {
      return RejectLocked(
          "request id " + std::to_string(request_id) +
          " arrived after its batch was already flushed (an idle-engine flush "
          "before the max_batch_delay_ms deadline, the deadline flush itself, or "
          "a concurrent Drain retired its slot range)");
    }
    return RejectLocked("request id " + std::to_string(request_id) +
                        " belongs to batch " + std::to_string(request_id / batch_size) +
                        ", which already executed (a duplicate or late id)");
  }
  const auto inserted = pending_.try_emplace(request_id);
  if (!inserted.second) {
    return RejectLocked("duplicate request id " + std::to_string(request_id) +
                        ": that slot is already pending");
  }
  PendingRequest& stored = inserted.first->second;
  stored.scene = scene;
  stored.enqueue_time = Clock::now();
  if (submit_options.timeout_ms > 0) {
    stored.has_deadline = true;
    stored.deadline =
        stored.enqueue_time + std::chrono::milliseconds(submit_options.timeout_ms);
    ++armed_deadlines_;
  }
  std::future<Tensor> future = stored.promise.get_future();
  next_auto_id_ = std::max(next_auto_id_, request_id + 1);
  ++stats_.requests;
  stats_.peak_queue_depth = std::max(stats_.peak_queue_depth,
                                     static_cast<int64_t>(pending_.size()));

  if (request_id != run_end_) return future;  // the run did not grow
  const uint64_t run_before = run_end_ - first_slot;
  ExtendRunLocked();
  if ((run_end_ - first_slot) / batch_size > run_before / batch_size) {
    // This submission completed a batch (for an out-of-order id, by filling
    // the hole that held one back).
    *wake = TakeWakeLocked();
  } else if (run_before == 0) {
    // This submission became the head: a Drain may already cover it, or it
    // starts the delay deadline someone must watch.
    Clock::time_point head_deadline = Clock::time_point::max();
    if (NextTakeLocked(stored.enqueue_time, &head_deadline) != Take::kNone) {
      *wake = TakeWakeLocked();
    } else if (head_deadline != Clock::time_point::max()) {
      *wake = HeadWatchWakeLocked(head_deadline);
    }
  }
  return future;
}

void InferenceEngine::ExtendRunLocked() {
  for (auto it = pending_.find(run_end_); it != pending_.end() && it->first == run_end_;
       ++it) {
    ++run_end_;
  }
}

void InferenceEngine::ExpireOverdueLocked(Clock::time_point now) {
  if (armed_deadlines_ <= 0) return;
  for (auto& entry : pending_) {
    PendingRequest& req = entry.second;
    if (!req.has_deadline || req.expired || req.deadline > now) continue;
    // Fail the future now, but keep the slot as a tombstone: removing the
    // entry would shift every later request's slot->batch mapping. The
    // tombstone pads away when its batch is collected; its scene is
    // released immediately so an expired backlog cannot pin memory.
    ++stats_.expired_requests;
    --armed_deadlines_;
    req.promise.set_exception(std::make_exception_ptr(DeadlineExceededError(
        "request at slot " + std::to_string(entry.first) +
        " spent longer than its timeout_ms queued and was expired before "
        "batch formation")));
    req.expired = true;
    req.scene = data::TrajectorySequence();
  }
}

Clock::time_point InferenceEngine::NextRequestDeadlineLocked() const {
  Clock::time_point next = Clock::time_point::max();
  if (armed_deadlines_ <= 0) return next;
  for (const auto& entry : pending_) {
    const PendingRequest& req = entry.second;
    if (req.has_deadline && !req.expired) next = std::min(next, req.deadline);
  }
  return next;
}

void InferenceEngine::Drain() {
  support::MutexLock lock(mu_);
  if (shutdown_) {
    throw EngineStoppedError("Drain on a stopped InferenceEngine");
  }
  const uint64_t batch_size = static_cast<uint64_t>(options_.batch_size);
  if (!pending_.empty()) {
    // Out-of-order streams must be complete before the tail can be padded:
    // a hole would silently shift every later request one slot. (Expired
    // tombstones still hold their slots and count here.)
    // Thrown before drain_until_slot_ moves, so the engine is left as it
    // was and a later Drain succeeds once the hole is filled.
    const uint64_t first = next_batch_ * batch_size;
    const uint64_t last = pending_.rbegin()->first;
    if (pending_.size() != last - first + 1) {
      throw ServeError("Drain with missing request ids: have " +
                       std::to_string(pending_.size()) + " pending in slot range [" +
                       std::to_string(first) + ", " + std::to_string(last) + "]");
    }
  }
  // Every slot submitted so far lies below next_auto_id_, so the batches to
  // wait for are exactly those below target_batch — whether still pending or
  // already executing. Later submissions land in later batches and are not
  // waited for, which keeps a Drain from starving under sustained traffic.
  const uint64_t target_batch = (next_auto_id_ + batch_size - 1) / batch_size;
  drain_until_slot_ = std::max(drain_until_slot_, next_auto_id_);
  Clock::time_point head_deadline = Clock::time_point::max();
  if (NextTakeLocked(Clock::now(), &head_deadline) != Take::kNone) {
    if (support::CondVar* wake = TakeWakeLocked()) wake->NotifyOne();
  }
  ++blocked_callers_;
  while (!shutdown_ && !CompletedBelowLocked(target_batch)) drained_cv_.Wait(lock);
  --blocked_callers_;
  idle_cv_.NotifyAll();
  if (!CompletedBelowLocked(target_batch)) {
    // Only reachable via shutdown: the engine stopped under the drainer.
    throw EngineStoppedError(
        "InferenceEngine shut down or destroyed while a Drain was waiting");
  }
}

bool InferenceEngine::CompletedBelowLocked(uint64_t batch) const {
  return next_batch_ >= batch && (inflight_.empty() || inflight_.begin()->first >= batch);
}

void InferenceEngine::SwapWeights(const core::Method& source) {
  // Warm standby, built entirely outside the engine lock: traffic keeps
  // flowing while the clone and its replica pool are constructed. A
  // non-reentrant standby needs one private instance per worker.
  std::unique_ptr<core::Method> standby = source.CloneForServing();
  if (standby == nullptr) {
    throw ServeError("SwapWeights source method is not clonable "
                     "(CloneForServing returned nullptr)");
  }
  std::unique_ptr<ReplicaPool> standby_pool = MakeReplicaPool(standby.get(), num_workers_);
  if (!standby->reentrant_predict() && num_workers_ > 1 &&
      standby_pool->size() < num_workers_) {
    throw ServeError("SwapWeights source method could not be cloned into one "
                     "replica per serving worker (" +
                     std::to_string(num_workers_) + ")");
  }

  std::unique_ptr<core::Method> retired_method;
  std::unique_ptr<ReplicaPool> retired_pool;
  {
    support::MutexLock lock(mu_);
    // Flip at a batch boundary: (1) pause collection — one swap at a time —
    // (2) wait for the batches in flight, (3) flip under mu_ and invalidate
    // the cache, (4) resume. Workers capture method_/replicas_ under mu_
    // when they collect, so no batch straddles the flip, and no old-weights
    // batch is still running to insert into the cache after it. Queued
    // requests are untouched.
    ++blocked_callers_;
    while (!shutdown_ && swapping_) drained_cv_.Wait(lock);
    if (!shutdown_) {
      swapping_ = true;
      while (!shutdown_ && !inflight_.empty()) drained_cv_.Wait(lock);
    }
    --blocked_callers_;
    idle_cv_.NotifyAll();
    if (shutdown_) {
      // No worker collects after shutdown, so the pause needs no undoing.
      throw EngineStoppedError("SwapWeights on a stopped InferenceEngine");
    }
    retired_method = std::move(owned_method_);
    retired_pool = std::move(replicas_);
    method_ = standby.get();
    owned_method_ = std::move(standby);
    replicas_ = std::move(standby_pool);
    if (encode_cache_ != nullptr) encode_cache_->Invalidate();
    ++stats_.weight_swaps;
    swapping_ = false;
  }
  // Resume: work may have queued up during the pause.
  work_cv_.NotifyAll();
  head_cv_.NotifyAll();
  drained_cv_.NotifyAll();
  // The retired method and pool are destroyed here, outside the lock.
}

InferenceEngine::Take InferenceEngine::NextTakeLocked(Clock::time_point now,
                                                      Clock::time_point* head_deadline) const {
  if (shutdown_ || swapping_) return Take::kNone;
  const uint64_t batch_size = static_cast<uint64_t>(options_.batch_size);
  const uint64_t first_slot = next_batch_ * batch_size;
  const uint64_t run = run_end_ - first_slot;
  if (run >= batch_size) return Take::kFull;
  if (run == 0) return Take::kNone;
  if (drain_until_slot_ > first_slot) return Take::kDrain;
  if (options_.max_batch_delay_ms > 0) {
    // The deadline measures the age of the request at the head of the queue
    // (the first slot of the run — for an out-of-order stream, the arrival
    // that unblocked the head).
    const Clock::time_point deadline =
        pending_.begin()->second.enqueue_time +
        std::chrono::milliseconds(options_.max_batch_delay_ms);
    if (now >= deadline) return Take::kDelay;
    // Work-conserving: with nothing in flight, waiting out the deadline only
    // leaves every worker idle, so the run goes now. Gating on an empty
    // engine (not on a load estimate) keeps at most one underfull early
    // batch running; while any batch runs, the deadline stays the bound.
    if (inflight_.empty()) return Take::kIdle;
    *head_deadline = deadline;
  }
  return Take::kNone;
}

support::CondVar* InferenceEngine::TakeWakeLocked() {
  if (idle_workers_ > 0) return &work_cv_;
  // Every other worker is busy: the head watcher takes the work instead of
  // sleeping out its deadline.
  return head_watcher_ ? &head_cv_ : nullptr;
}

support::CondVar* InferenceEngine::HeadWatchWakeLocked(Clock::time_point head_deadline) {
  if (head_watcher_) {
    // Re-arm only when the new head expires before what is being watched.
    return head_deadline < head_watch_until_ ? &head_cv_ : nullptr;
  }
  return idle_workers_ > 0 ? &work_cv_ : nullptr;
}

void InferenceEngine::WaitForWorkLocked(support::MutexLock* lock,
                                        Clock::time_point head_deadline) {
  if (head_deadline != Clock::time_point::max() && !head_watcher_) {
    head_watcher_ = true;
    head_watch_until_ = head_deadline;
    head_cv_.WaitUntil(*lock, head_deadline);
    head_watcher_ = false;
  } else {
    ++idle_workers_;
    work_cv_.Wait(*lock);
    --idle_workers_;
  }
}

InferenceEngine::ReadyBatch InferenceEngine::CollectBatchLocked() {
  const uint64_t batch_size = static_cast<uint64_t>(options_.batch_size);
  uint64_t slot = next_batch_ * batch_size;
  const uint64_t rows = std::min(run_end_ - slot, batch_size);
  const Clock::time_point now = Clock::now();

  ReadyBatch rb;
  rb.index = next_batch_;
  rb.scenes.reserve(rows);
  rb.promises.reserve(rows);
  rb.expired.reserve(rows);
  for (uint64_t r = 0; r < rows; ++r, ++slot) {
    auto it = pending_.find(slot);
    PendingRequest& req = it->second;
    rb.scenes.push_back(std::move(req.scene));
    rb.promises.push_back(std::move(req.promise));
    rb.expired.push_back(req.expired ? 1 : 0);
    if (!req.expired) {
      ++rb.live_rows;
      stats_.queue_wait.Record(Seconds(req.enqueue_time, now));
      if (req.has_deadline) --armed_deadlines_;
    }
    pending_.erase(it);
  }
  ++next_batch_;
  // A padded tail consumes its whole batch of the slot space: implicit
  // submissions after a flush continue at the next batch boundary.
  const uint64_t boundary = next_batch_ * batch_size;
  next_auto_id_ = std::max(next_auto_id_, boundary);
  if (rows == batch_size) return rb;  // run_end_ still bounds the run
  // An idle or deadline flush can pad past a slot hole in an out-of-order
  // stream, retiring the batch of a request still pending BEHIND the hole.
  // That request can never execute in its assigned slot: reject it through
  // its future now, or it would hang forever (and, as pending_.begin(),
  // anchor every future deadline at its stale enqueue time). Only those
  // flushes can strand: Drain refuses holes up front.
  while (!pending_.empty() && pending_.begin()->first < boundary) {
    auto it = pending_.begin();
    if (!it->second.expired) {
      if (it->second.has_deadline) --armed_deadlines_;
      ++stats_.rejected_requests;
      it->second.promise.set_exception(std::make_exception_ptr(ServeError(
          "request id " + std::to_string(it->first) +
          " was stranded behind a slot hole when an idle-engine or "
          "max_batch_delay_ms deadline flush retired its batch")));
    }
    pending_.erase(it);
  }
  run_end_ = boundary;
  ExtendRunLocked();
  return rb;
}

void InferenceEngine::RunOneBatch(ReadyBatch* rb, const core::Method* method,
                                  const core::Method* master) const {
  const Clock::time_point t0 = Clock::now();
  try {
    NoGradGuard no_grad;
    const size_t rows = rb->scenes.size();
    const size_t width = static_cast<size_t>(options_.batch_size);
    // Rows keep their slot position; expired tombstone rows (and the padded
    // tail beyond `rows`) are filled by cycling the LIVE scenes, computed,
    // and discarded — exactly the property partial-tail padding has always
    // relied on: each row's result depends only on its own scene, its row
    // index, and the batch's noise stream.
    std::vector<size_t> live;
    live.reserve(rb->live_rows);
    for (size_t r = 0; r < rows; ++r) {
      if (!rb->expired[r]) live.push_back(r);
    }
    if (live.empty()) {
      // Every row expired before execution; promises already failed. The
      // batch retires without computing anything.
      rb->exec_seconds = Seconds(t0, Clock::now());
      return;
    }
    std::vector<const data::TrajectorySequence*> slots;
    slots.reserve(width);
    size_t pad_cursor = 0;
    for (size_t r = 0; r < width; ++r) {
      if (r < rows && !rb->expired[r]) {
        slots.push_back(&rb->scenes[r]);
      } else {
        slots.push_back(&rb->scenes[live[pad_cursor++ % live.size()]]);
      }
    }
    // One neighbor-slot width for every batch, whatever its fill: rows are
    // byte-identical at any M, and a fixed M keeps the plan cache and the
    // encoder-cache keys independent of which scenes share a batch. A scene
    // with more neighbors than the config keeps still widens its batch.
    data::Batch batch =
        data::MakeBatch(slots, options_.sequence, options_.sequence.max_neighbors);
    Rng rng(core::TaskSeed(options_.seed, rb->index));
    Tensor pred = PredictThroughCache(batch, slots, method, master, &rng);
    rb->results.assign(rows, Tensor());
    for (size_t r : live) {
      // Slice copies the row into fresh storage, and under no-grad attaches
      // no graph edge back to `pred`: a caller that keeps this tensor alive
      // retains pred_len*2 floats, never the whole batch buffer (asserted by
      // PerRequestResultsAreIndependentStorage).
      rb->results[r] = ops::Slice(pred, 0, static_cast<int64_t>(r),
                                  static_cast<int64_t>(r) + 1);
    }
  } catch (...) {
    // Deliver the original error through the batch's futures instead of
    // abandoning the promises (which would surface as an opaque
    // broken_promise at every future.get()).
    rb->results.clear();
    rb->error = std::current_exception();
  }
  rb->exec_seconds = Seconds(t0, Clock::now());
}

Tensor InferenceEngine::PredictThroughCache(
    const data::Batch& batch,
    const std::vector<const data::TrajectorySequence*>& slots,
    const core::Method* method, const core::Method* master, Rng* rng) const {
  if (encode_cache_ == nullptr || batch.batch_size == 0) {
    return method->Predict(batch, rng, options_.sample);
  }
  // Version of the served MASTER, not the per-worker replica: replicas are
  // structural clones whose counter stays 0, while an in-place Train() on a
  // live served method — the staleness this guards against — bumps the
  // master's. Concurrent batches pass the same value; the first clears.
  // `master` is the worker's under-mu_ capture of method_, stable for the
  // whole batch (SwapWeights flips only while no batch is in flight).
  encode_cache_->InvalidateIfVersionChanged(master->weights_version());

  const int64_t width = method->predict_encode_width();
  const int64_t rows = batch.batch_size;
  const bool with_neighbors = method->encode_reads_neighbors();
  const std::string& identity = encode_cache_->options().identity;
  Tensor enc_rows = Tensor::Zeros({rows, width});

  // One key per row; duplicate keys (padding cycles the live scenes, and
  // identical scenes can land in one batch) are resolved to a single
  // representative row so each distinct encoder input is looked up — and on
  // a miss, encoded — exactly once per batch.
  std::vector<std::string> keys(static_cast<size_t>(rows));
  std::unordered_map<std::string, int64_t> first_of_key;
  first_of_key.reserve(static_cast<size_t>(rows));
  std::vector<std::pair<int64_t, int64_t>> aliases;  // (row, representative)
  std::vector<int64_t> miss_rows;                    // representatives to encode
  int64_t hit_count = 0;
  for (int64_t r = 0; r < rows; ++r) {
    keys[r] = SceneEncodeKey(identity, batch, r, with_neighbors);
    auto inserted = first_of_key.emplace(keys[r], r);
    if (!inserted.second) {
      aliases.emplace_back(r, inserted.first->second);
      continue;
    }
    if (encode_cache_->Lookup(keys[r], enc_rows.data() + r * width, width)) {
      ++hit_count;
    } else {
      miss_rows.push_back(r);
    }
  }

  if (!miss_rows.empty()) {
    if (hit_count == 0 && aliases.empty()) {
      // Nothing cached and every row distinct: encode the original batch
      // directly — the cold-traffic path costs no re-batching over an
      // uncached engine.
      enc_rows = method->PredictEncode(batch);
    } else {
      // Re-batch only the unseen scenes, padded to the full batch's
      // neighbor-slot width so each sub-batch row is byte-identical to its
      // key (row r of Encode(sub-batch) == row r of Encode(full batch) at
      // equal bytes and equal M — the per-row purity contract).
      std::vector<const data::TrajectorySequence*> miss_slots;
      miss_slots.reserve(miss_rows.size());
      for (int64_t r : miss_rows) {
        miss_slots.push_back(slots[static_cast<size_t>(r)]);
      }
      data::Batch miss_batch = data::MakeBatch(miss_slots, options_.sequence,
                                               batch.max_neighbors);
      Tensor packed = method->PredictEncode(miss_batch);
      for (size_t i = 0; i < miss_rows.size(); ++i) {
        std::memcpy(enc_rows.data() + miss_rows[i] * width,
                    packed.data() + static_cast<int64_t>(i) * width,
                    static_cast<size_t>(width) * sizeof(float));
      }
    }
    for (int64_t r : miss_rows) {
      encode_cache_->Insert(keys[static_cast<size_t>(r)],
                            enc_rows.data() + r * width, width);
    }
  }
  for (const auto& alias : aliases) {
    std::memcpy(enc_rows.data() + alias.first * width,
                enc_rows.data() + alias.second * width,
                static_cast<size_t>(width) * sizeof(float));
  }
  return method->PredictDecode(batch, enc_rows, rng, options_.sample);
}

void InferenceEngine::WorkerLoop(int worker) {
  support::MutexLock lock(mu_);
  while (!shutdown_) {
    // Expire BEFORE batch formation: a request whose deadline has passed
    // must never enter a batch. (The watchdog covers the windows where every
    // worker is inside a batch.)
    const Clock::time_point now = Clock::now();
    ExpireOverdueLocked(now);
    Clock::time_point head_deadline = Clock::time_point::max();
    const Take take = NextTakeLocked(now, &head_deadline);
    if (take == Take::kNone) {
      WaitForWorkLocked(&lock, head_deadline);
      continue;  // re-evaluate everything after any wakeup
    }

    ReadyBatch rb = CollectBatchLocked();
    inflight_.emplace(rb.index, InFlightBatch{Clock::now(), false});
    stats_.inflight_batches = static_cast<int64_t>(inflight_.size());
    // Capture the served instance while still under mu_: SwapWeights flips
    // method_/replicas_ only while no batch is in flight, so these stay
    // valid for the whole batch, and the execution path below never reads
    // the guarded fields unlocked. Worker w always runs on replica slot w.
    const core::Method* master = method_;
    const core::Method* instance =
        replicas_ != nullptr ? replicas_->method(worker) : master;
    // Hand the rest of the queue on: one more idle worker if work remains,
    // or a watcher for the new head's delay deadline.
    Clock::time_point next_deadline = Clock::time_point::max();
    support::CondVar* wake = nullptr;
    if (NextTakeLocked(now, &next_deadline) != Take::kNone) {
      wake = TakeWakeLocked();
    } else if (next_deadline != Clock::time_point::max()) {
      wake = HeadWatchWakeLocked(next_deadline);
    }
    lock.Unlock();
    if (wake != nullptr) wake->NotifyOne();
    // Collection retired queue entries: admit blocked producers, and arm
    // the watchdog's stuck-batch timer.
    if (options_.max_queued_requests > 0) space_cv_.NotifyAll();
    if (options_.stuck_batch_warn_ms > 0) watchdog_cv_.NotifyOne();
    RunOneBatch(&rb, instance, master);
    lock.Lock();
    // Count first, fulfil second, both under mu_: a caller that wakes on a
    // ready future (or returns from Drain) observes counters that already
    // include its batch. A fully-expired batch retired without executing
    // counts nowhere — its promises were already failed by the deadline.
    if (rb.live_rows > 0) {
      ++stats_.batches;
      if (take == Take::kDelay) ++stats_.deadline_flushes;
      if (take == Take::kIdle) ++stats_.idle_flushes;
      stats_.batch_exec.Record(rb.exec_seconds);
      if (rb.error != nullptr) {
        ++stats_.failed_batches;
      } else {
        stats_.padded_rows += options_.batch_size - static_cast<int64_t>(rb.live_rows);
      }
    }
    // A failed batch delivers its exception to exactly its own live futures
    // — other batches are unaffected, and expired tombstone rows already
    // carry DeadlineExceededError.
    for (size_t r = 0; r < rb.promises.size(); ++r) {
      if (rb.expired[r]) continue;
      if (rb.error != nullptr) {
        rb.promises[r].set_exception(rb.error);
      } else {
        rb.promises[r].set_value(std::move(rb.results[r]));
      }
    }
    inflight_.erase(rb.index);
    stats_.inflight_batches = static_cast<int64_t>(inflight_.size());
    drained_cv_.NotifyAll();
  }
}

void InferenceEngine::WatchdogLoop() {
  const auto warn = std::chrono::milliseconds(options_.stuck_batch_warn_ms);
  const bool detect_stuck = options_.stuck_batch_warn_ms > 0;
  support::MutexLock lock(mu_);
  while (!shutdown_) {
    const Clock::time_point now = Clock::now();
    // Deadline expiry must make progress even while every worker is inside
    // a batch — queued requests behind a wedged batch are exactly the ones
    // that need their deadline honored.
    ExpireOverdueLocked(now);
    Clock::time_point wake = NextRequestDeadlineLocked();
    bool reported = false;
    for (auto& entry : inflight_) {
      if (!detect_stuck || entry.second.stuck_reported) continue;
      if (now < entry.second.start + warn) {
        wake = std::min(wake, entry.second.start + warn);
        continue;
      }
      entry.second.stuck_reported = true;
      ++stats_.stuck_batches;
      reported = true;
      if (options_.on_stuck_batch) {
        const int64_t elapsed_ms =
            std::chrono::duration_cast<std::chrono::milliseconds>(now - entry.second.start)
                .count();
        // Mutex released around user code: the callback may call stats(),
        // Submit, or anything else on this engine.
        auto callback = options_.on_stuck_batch;
        lock.Unlock();
        callback(elapsed_ms);
        lock.Lock();
      }
      break;  // inflight_ may have changed while unlocked: rescan
    }
    if (reported) continue;
    if (wake == Clock::time_point::max()) {
      watchdog_cv_.Wait(lock);
    } else {
      watchdog_cv_.WaitUntil(lock, wake);
    }
  }
}

}  // namespace serve
}  // namespace adaptraj
