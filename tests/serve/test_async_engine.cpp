// Tests for the async engine machinery added on top of the PR-4 batching
// semantics: thread-safe non-blocking Submit (no execution on the caller
// thread), lossless error delivery (Predict exceptions reach exactly the
// failed batch's futures; destruction fails — not breaks — pending
// promises; malformed submissions are rejected through their futures), the
// max_batch_delay_ms idle and deadline flushes, multi-producer bit-identity, the
// serving-worker count and per-worker replicas for non-reentrant methods,
// and the per-request result-storage audit.

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <future>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/adaptraj_method.h"
#include "core/baselines.h"
#include "core/parallel_trainer.h"
#include "data/multi_domain.h"
#include "serve/errors.h"
#include "serve/inference_engine.h"
#include "serve/replica_pool.h"
#include "tensor/parallel.h"
#include "non_reentrant_method.h"

namespace adaptraj {
namespace serve {
namespace {

models::BackboneConfig TinyBackbone() {
  models::BackboneConfig c;
  c.embed_dim = 8;
  c.hidden_dim = 16;
  c.social_dim = 16;
  c.latent_dim = 4;
  c.langevin_steps = 2;
  return c;
}

const data::DomainGeneralizationData& TestData() {
  static const data::DomainGeneralizationData* dgd = [] {
    data::CorpusConfig cfg;
    cfg.num_scenes = 2;
    cfg.steps_per_scene = 45;
    cfg.seed = 909;
    return new data::DomainGeneralizationData(data::BuildDomainGeneralizationData(
        {sim::Domain::kEthUcy, sim::Domain::kLcas}, sim::Domain::kSdd, cfg));
  }();
  return *dgd;
}

std::vector<data::TrajectorySequence> Scenes(size_t n) {
  const auto& test = TestData().target.test.sequences;
  std::vector<data::TrajectorySequence> scenes;
  for (size_t i = 0; i < n; ++i) scenes.push_back(test[i % test.size()]);
  return scenes;
}

InferenceEngineOptions Options(int batch_size, uint64_t seed = 42) {
  InferenceEngineOptions o;
  o.batch_size = batch_size;
  o.sample = true;
  o.seed = seed;
  return o;
}

std::vector<std::vector<float>> Collect(std::vector<std::future<Tensor>>* futures) {
  std::vector<std::vector<float>> out;
  for (auto& f : *futures) {
    Tensor t = f.get();
    out.emplace_back(t.data(), t.data() + t.size());
  }
  return out;
}

std::vector<std::vector<float>> Serve(const core::Method& method,
                                      const std::vector<data::TrajectorySequence>& scenes,
                                      const InferenceEngineOptions& options) {
  InferenceEngine engine(&method, options);
  std::vector<std::future<Tensor>> futures;
  for (const auto& s : scenes) futures.push_back(engine.Submit(s));
  engine.Drain();
  return Collect(&futures);
}

void ExpectAllEqual(const std::vector<std::vector<float>>& a,
                    const std::vector<std::vector<float>>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i].size(), b[i].size()) << "request " << i;
    EXPECT_EQ(std::memcmp(a[i].data(), b[i].data(), a[i].size() * sizeof(float)), 0)
        << "request " << i;
  }
}

// --- Instrumented mock method ------------------------------------------------

/// Shared across a mock and its serving clones: concurrency accounting, the
/// block/release latch, and the executing-thread record.
struct MockState {
  std::mutex mu;
  std::condition_variable cv;
  int active = 0;           // Predict calls currently in flight (all instances)
  int entered = 0;          // Predict calls ever started (monotonic)
  int max_concurrent = 0;
  bool released = true;     // block_until_released waits for this
  int instance_overlap = 0; // same-instance concurrent entries (must stay 0)
  std::set<std::thread::id> predict_threads;
  /// Which threads ran Predict on which instance.
  std::map<const core::Method*, std::set<std::thread::id>> threads_by_instance;
};

/// Configurable Method: returns obs_flat (so results are deterministic per
/// scene), can throw on poisoned scenes, block until released, rendezvous
/// with a concurrent peer, and report itself non-reentrant/clonable.
class MockMethod : public core::Method {
 public:
  MockMethod(std::shared_ptr<MockState> state, bool reentrant, bool clonable)
      : state_(std::move(state)), reentrant_(reentrant), clonable_(clonable) {}

  std::string name() const override { return "mock"; }
  void Train(const data::DomainGeneralizationData&, const core::TrainConfig&) override {}
  bool reentrant_predict() const override { return reentrant_; }

  std::unique_ptr<core::Method> CloneForServing() const override {
    if (!clonable_) return nullptr;
    auto clone = std::make_unique<MockMethod>(state_, reentrant_, clonable_);
    clone->wait_for_peer_ = wait_for_peer_;
    clone->block_until_released_ = block_until_released_;
    return clone;
  }

  Tensor Predict(const data::Batch& batch, Rng*, bool) const override {
    const int self_entries = ++active_on_this_instance_;
    {
      std::unique_lock<std::mutex> lock(state_->mu);
      if (self_entries > 1) ++state_->instance_overlap;
      state_->predict_threads.insert(std::this_thread::get_id());
      state_->threads_by_instance[this].insert(std::this_thread::get_id());
      ++state_->active;
      ++state_->entered;
      state_->max_concurrent = std::max(state_->max_concurrent, state_->active);
      state_->cv.notify_all();
      if (wait_for_peer_) {
        // Rendezvous on the monotonic entered-count: the first call cannot
        // leave Predict until a second one has started, so success proves
        // two calls overlapped in time. Bounded wait: if batches are
        // serialized the first call times out, the second enters alone, and
        // the max_concurrent assertion reports the serialization.
        state_->cv.wait_for(lock, std::chrono::seconds(2),
                            [this] { return state_->entered >= 2; });
      }
      if (block_until_released_) {
        state_->cv.wait(lock, [this] { return state_->released; });
      }
      --state_->active;
    }
    --active_on_this_instance_;
    const float* row = batch.obs_flat.data();
    const int64_t n = batch.obs_flat.size();
    for (int64_t i = 0; i < n; ++i) {
      if (row[i] > 1e5f || row[i] < -1e5f) {
        throw std::runtime_error("mock Predict failure: poisoned scene");
      }
    }
    return batch.obs_flat;
  }

  void set_wait_for_peer(bool v) { wait_for_peer_ = v; }
  void set_block_until_released(bool v) { block_until_released_ = v; }

 private:
  std::shared_ptr<MockState> state_;
  bool reentrant_;
  bool clonable_;
  bool wait_for_peer_ = false;
  bool block_until_released_ = false;
  mutable std::atomic<int> active_on_this_instance_{0};
};

// --- Wedged real method ------------------------------------------------------

/// Gate shared by a WedgedVanilla and its test: the first `held_calls`
/// decode calls wait until `released`.
struct Gate {
  std::mutex mu;
  std::condition_variable cv;
  int entered = 0;
  int held_calls = 1;
  bool released = false;
};

/// A reentrant VanillaMethod whose first decode call blocks until the gate
/// opens: it holds one batch in flight on one worker — the engine is busy —
/// while the other workers stay free to serve. Every served row keeps its
/// real bytes.
class WedgedVanilla : public core::VanillaMethod {
 public:
  explicit WedgedVanilla(std::shared_ptr<Gate> gate)
      : VanillaMethod(models::BackboneKind::kSeq2Seq, TinyBackbone(), 5),
        gate_(std::move(gate)) {}

  Tensor PredictDecode(const data::Batch& batch, const Tensor& enc_rows, Rng* rng,
                       bool sample) const override {
    {
      std::unique_lock<std::mutex> lock(gate_->mu);
      const bool held = gate_->entered++ < gate_->held_calls;
      gate_->cv.notify_all();
      if (held) gate_->cv.wait(lock, [this] { return gate_->released; });
    }
    return VanillaMethod::PredictDecode(batch, enc_rows, rng, sample);
  }

 private:
  std::shared_ptr<Gate> gate_;
};

void AwaitEntered(Gate* gate, int n) {
  std::unique_lock<std::mutex> lock(gate->mu);
  ASSERT_TRUE(gate->cv.wait_for(lock, std::chrono::seconds(10),
                                [gate, n] { return gate->entered >= n; }))
      << "the wedged batch never started";
}

void Release(Gate* gate) {
  {
    std::lock_guard<std::mutex> lock(gate->mu);
    gate->released = true;
  }
  gate->cv.notify_all();
}

/// Serving-worker count for one test: reentrant methods get one worker per
/// training worker, so two workers let one batch wedge while another runs.
class ScopedTrainWorkers {
 public:
  explicit ScopedTrainWorkers(int n) { parallel::ConfigureTrainWorkers(n); }
  ~ScopedTrainWorkers() { parallel::ConfigureTrainWorkers(1); }
};

/// A scene whose first observed displacement is absurd; MockMethod throws on
/// any batch containing one.
data::TrajectorySequence PoisonedScene() {
  data::TrajectorySequence s = Scenes(1)[0];
  s.focal[1].x += 1e6f;
  return s;
}

// --- Error delivery ----------------------------------------------------------

TEST(AsyncEngineErrorTest, PredictExceptionReachesExactlyTheFailedBatch) {
  auto state = std::make_shared<MockState>();
  MockMethod method(state, /*reentrant=*/true, /*clonable=*/false);
  auto options = Options(/*batch_size=*/4);

  InferenceEngine engine(&method, options);
  std::vector<std::future<Tensor>> futures;
  // Batch 0: all poisoned. Batch 1: clean.
  data::TrajectorySequence poison = PoisonedScene();
  auto clean = Scenes(8);
  for (int i = 0; i < 4; ++i) futures.push_back(engine.Submit(poison));
  for (int i = 0; i < 4; ++i) futures.push_back(engine.Submit(clean[i]));
  engine.Drain();

  // The failed batch's futures rethrow the ORIGINAL exception — never a
  // context-free broken_promise.
  for (int i = 0; i < 4; ++i) {
    try {
      futures[i].get();
      FAIL() << "future " << i << " should have thrown";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("poisoned scene"), std::string::npos);
    } catch (const std::future_error&) {
      FAIL() << "future " << i << " died with broken_promise";
    }
  }
  // The later batch is unaffected.
  for (int i = 4; i < 8; ++i) {
    Tensor t = futures[i].get();
    EXPECT_EQ(t.shape()[0], 1);
  }
  auto stats = engine.stats();
  EXPECT_EQ(stats.batches, 2);
  EXPECT_EQ(stats.failed_batches, 1);

  // The failed batch's slots are retired: the engine keeps serving.
  std::vector<std::future<Tensor>> more;
  for (int i = 0; i < 4; ++i) more.push_back(engine.Submit(clean[4 + i % 4]));
  engine.Drain();
  for (auto& f : more) EXPECT_EQ(f.get().shape()[0], 1);
  EXPECT_EQ(engine.stats().batches, 3);
}

TEST(AsyncEngineErrorTest, DestructionFailsPendingFuturesDescriptively) {
  auto state = std::make_shared<MockState>();
  auto scenes = Scenes(2);
  std::future<Tensor> orphan;
  {
    MockMethod method(state, /*reentrant=*/true, /*clonable=*/false);
    InferenceEngine engine(&method, Options(/*batch_size=*/8));
    orphan = engine.Submit(scenes[0]);  // underfull batch, never drained
  }
  try {
    orphan.get();
    FAIL() << "future should have thrown";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("destroyed"), std::string::npos);
  } catch (const std::future_error&) {
    FAIL() << "destruction must fail promises, not break them";
  }
}

TEST(AsyncEngineErrorTest, LateExplicitIdAfterDeadlineFlushRejectedViaFuture) {
  ScopedTrainWorkers two_workers(2);
  auto gate = std::make_shared<Gate>();
  WedgedVanilla method(gate);
  auto options = Options(/*batch_size=*/2);
  options.max_batch_delay_ms = 5;
  InferenceEngine engine(&method, options);
  ASSERT_EQ(engine.num_workers(), 2);
  auto scenes = Scenes(2);

  // Batch 0 is full and wedged in flight: the engine is busy, so no idle
  // flush fires and the second worker waits out the deadline. (Its head
  // slot goes last, so an idle flush cannot take the run before it is
  // whole.)
  std::future<Tensor> w1 = engine.Submit(1, scenes[1]);
  std::future<Tensor> w0 = engine.Submit(0, scenes[0]);
  AwaitEntered(gate.get(), 1);

  // A lone request at slot 2; the deadline flush pads batch 1 and thereby
  // consumes slot 3 on a timer the producer cannot observe.
  std::future<Tensor> f2 = engine.Submit(2, scenes[0]);
  ASSERT_EQ(f2.wait_for(std::chrono::seconds(10)), std::future_status::ready);
  EXPECT_EQ(engine.stats().deadline_flushes, 1);
  // The id that lost the race is rejected through its future — an
  // operational error, not the process abort the deadline-less engine
  // reserves for caller bugs. The message names both early flush points.
  std::future<Tensor> f3 = engine.Submit(3, scenes[1]);
  try {
    f3.get();
    FAIL() << "late id should have been rejected";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("deadline"), std::string::npos) << e.what();
    EXPECT_NE(std::string(e.what()).find("idle"), std::string::npos) << e.what();
  }
  EXPECT_EQ(engine.stats().rejected_requests, 1);

  // The engine keeps serving: implicit submissions continue at the next
  // batch boundary.
  Release(gate.get());
  std::future<Tensor> f4 = engine.Submit(scenes[1]);
  engine.Drain();
  EXPECT_EQ(f4.get().shape()[0], 1);
  EXPECT_EQ(w0.get().shape()[0], 1);
  EXPECT_EQ(w1.get().shape()[0], 1);
}

TEST(AsyncEngineErrorTest, PendingIdStrandedByDeadlineFlushRejectedViaFuture) {
  ScopedTrainWorkers two_workers(2);
  auto gate = std::make_shared<Gate>();
  WedgedVanilla method(gate);
  auto options = Options(/*batch_size=*/4);
  options.max_batch_delay_ms = 10;
  InferenceEngine engine(&method, options);
  ASSERT_EQ(engine.num_workers(), 2);
  auto scenes = Scenes(4);

  // Batch 0 (slots 0-3) is full and wedged in flight, so the engine is
  // busy. Its head slot goes last, so the run forms whole.
  std::vector<std::future<Tensor>> wedged;
  for (uint64_t id = 4; id-- > 0;) wedged.push_back(engine.Submit(id, scenes[id]));
  AwaitEntered(gate.get(), 1);

  // Slots 6 and then 4 arrive; slot 5 never does. The deadline flush pads
  // batch 1 from the contiguous head (slot 4 alone) and retires slots
  // [4, 8) — the request already pending at slot 6 can then never execute
  // in its batch and must be rejected, not left hanging (nor allowed to
  // anchor future deadlines at its stale enqueue time). Slot 6 goes first
  // so that it is pending before the head's deadline can start.
  std::future<Tensor> f6 = engine.Submit(6, scenes[1]);
  std::future<Tensor> f4 = engine.Submit(4, scenes[0]);
  ASSERT_EQ(f4.wait_for(std::chrono::seconds(10)), std::future_status::ready);
  ASSERT_EQ(f6.wait_for(std::chrono::seconds(10)), std::future_status::ready);
  EXPECT_EQ(f4.get().shape()[0], 1);
  try {
    f6.get();
    FAIL() << "stranded request should have been rejected";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("stranded"), std::string::npos);
  }
  auto stats = engine.stats();
  EXPECT_EQ(stats.rejected_requests, 1);
  EXPECT_EQ(stats.deadline_flushes, 1);

  // No orphan left behind: Drain must not trip its completeness check, and
  // the engine keeps serving.
  Release(gate.get());
  std::future<Tensor> f8 = engine.Submit(scenes[0]);
  engine.Drain();
  EXPECT_EQ(f8.get().shape()[0], 1);
  for (auto& f : wedged) EXPECT_EQ(f.get().shape()[0], 1);
}

TEST(AsyncEngineErrorTest, NegativeTimeoutRejectedViaFuture) {
  core::VanillaMethod method(models::BackboneKind::kSeq2Seq, TinyBackbone(), 5);
  InferenceEngine engine(&method, Options(/*batch_size=*/2));
  auto scenes = Scenes(2);
  SubmitOptions bad;
  bad.timeout_ms = -5;
  // A client-supplied option must never abort the server.
  std::future<Tensor> rejected = engine.Submit(scenes[0], bad);
  ASSERT_EQ(rejected.wait_for(std::chrono::seconds(0)), std::future_status::ready);
  try {
    rejected.get();
    FAIL() << "negative timeout should have been rejected";
  } catch (const ServeError& e) {
    EXPECT_NE(std::string(e.what()).find("timeout_ms"), std::string::npos);
  }
  // Nothing was enqueued: the next request takes slot 0 and serves.
  std::future<Tensor> ok = engine.Submit(scenes[1]);
  engine.Drain();
  EXPECT_EQ(ok.get().shape()[0], 1);
  const auto stats = engine.stats();
  EXPECT_EQ(stats.requests, 2);
  EXPECT_EQ(stats.rejected_requests, 1);
  EXPECT_EQ(stats.batches, 1);
}

TEST(AsyncEngineErrorTest, DuplicateExplicitIdRejectedViaFuture) {
  core::VanillaMethod method(models::BackboneKind::kSeq2Seq, TinyBackbone(), 5);
  InferenceEngine engine(&method, Options(/*batch_size=*/4));
  auto scenes = Scenes(4);
  std::future<Tensor> first = engine.Submit(3, scenes[0]);
  std::future<Tensor> dup = engine.Submit(3, scenes[1]);
  ASSERT_EQ(dup.wait_for(std::chrono::seconds(0)), std::future_status::ready);
  try {
    dup.get();
    FAIL() << "duplicate id should have been rejected";
  } catch (const ServeError& e) {
    EXPECT_NE(std::string(e.what()).find("duplicate request id 3"), std::string::npos);
  }
  // The original request keeps its slot and still serves once its batch
  // (slots 0..3) is complete.
  for (uint64_t id = 0; id < 3; ++id) (void)engine.Submit(id, scenes[id + 1]);
  engine.Drain();
  EXPECT_EQ(first.get().shape()[0], 1);
  // A resend of an id whose batch already executed is rejected the same way.
  std::future<Tensor> late = engine.Submit(1, scenes[2]);
  EXPECT_THROW(late.get(), ServeError);
  EXPECT_EQ(engine.stats().rejected_requests, 2);
}

TEST(AsyncEngineErrorTest, MisshapenSceneRejectedViaFutureAndBatchMatesKeepTheirBytes) {
  core::VanillaMethod method(models::BackboneKind::kSeq2Seq, TinyBackbone(), 5);
  auto scenes = Scenes(8);
  auto options = Options(/*batch_size=*/4);
  auto reference = Serve(method, scenes, options);

  // Each of these would abort data::MakeBatch if it reached a worker.
  std::vector<data::TrajectorySequence> bad(3, scenes[0]);
  bad[0].focal.pop_back();                                       // truncated track
  bad[1].focal.push_back(bad[1].focal.back());                   // extended track
  bad[2].neighbors.push_back(std::vector<sim::Vec2>(3, {0, 0}));  // short window

  InferenceEngine engine(&method, options);
  std::vector<std::future<Tensor>> valid;
  std::vector<std::future<Tensor>> rejected;
  for (size_t i = 0; i < scenes.size(); ++i) {
    valid.push_back(engine.Submit(scenes[i]));
    if (i < bad.size()) rejected.push_back(engine.Submit(bad[i]));  // into batch 0
  }
  engine.Drain();
  for (auto& f : rejected) {
    ASSERT_EQ(f.wait_for(std::chrono::seconds(0)), std::future_status::ready);
    try {
      f.get();
      FAIL() << "a misshapen scene should have been rejected";
    } catch (const InvalidRequestError& e) {
      EXPECT_NE(std::string(e.what()).find("invalid request"), std::string::npos);
    }
  }
  // The rejected scenes took no slot: their batch mates are byte-identical
  // to a run that never saw them.
  ExpectAllEqual(reference, Collect(&valid));

  // An explicit id refused for its shape stays free for a valid resend.
  std::future<Tensor> bad_id = engine.Submit(8, bad[0]);
  EXPECT_THROW(bad_id.get(), InvalidRequestError);
  std::future<Tensor> good_id = engine.Submit(8, scenes[0]);
  engine.Drain();
  EXPECT_EQ(good_id.get().shape()[0], 1);

  const auto stats = engine.stats();
  EXPECT_EQ(stats.requests, 13);
  EXPECT_EQ(stats.rejected_requests, 4);
  EXPECT_EQ(stats.batches, 3);
}

TEST(AsyncEngineErrorTest, NonFiniteObservationRejectedViaFuture) {
  core::VanillaMethod method(models::BackboneKind::kSeq2Seq, TinyBackbone(), 5);
  auto scenes = Scenes(8);
  auto options = Options(/*batch_size=*/4);
  auto reference = Serve(method, scenes, options);

  // NaN or Inf anywhere in the observed window: the focal track's first
  // obs_len points, or any neighbor window.
  const data::SequenceConfig seq;
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float inf = std::numeric_limits<float>::infinity();
  std::vector<data::TrajectorySequence> bad(3, scenes[0]);
  bad[0].focal[0].x = nan;
  bad[1].focal[static_cast<size_t>(seq.obs_len) - 1].y = -inf;
  bad[2].neighbors.push_back(std::vector<sim::Vec2>(
      static_cast<size_t>(seq.obs_len), bad[2].focal[0]));
  bad[2].neighbors.back()[3].x = inf;

  InferenceEngine engine(&method, options);
  std::vector<std::future<Tensor>> valid;
  std::vector<std::future<Tensor>> rejected;
  for (size_t i = 0; i < scenes.size(); ++i) {
    valid.push_back(engine.Submit(scenes[i]));
    if (i < bad.size()) rejected.push_back(engine.Submit(bad[i]));  // into batch 0
  }
  engine.Drain();
  for (auto& f : rejected) {
    ASSERT_EQ(f.wait_for(std::chrono::seconds(0)), std::future_status::ready);
    try {
      f.get();
      FAIL() << "a non-finite observation should have been rejected";
    } catch (const InvalidRequestError& e) {
      EXPECT_NE(std::string(e.what()).find("not finite"), std::string::npos) << e.what();
    }
  }
  // The rejected scenes took no slot: their batch mates keep their bytes.
  ExpectAllEqual(reference, Collect(&valid));
  const auto stats = engine.stats();
  EXPECT_EQ(stats.requests, 11);
  EXPECT_EQ(stats.rejected_requests, 3);
  EXPECT_EQ(stats.batches, 2);
}

TEST(AsyncEngineTest, NonFiniteFutureStaysServable) {
  // Only the losses read the future window, so a NaN there changes no
  // served byte.
  const data::SequenceConfig seq;
  auto scenes = Scenes(3);
  std::vector<data::TrajectorySequence> poisoned = scenes;
  poisoned[1].focal[static_cast<size_t>(seq.obs_len) + 2].x =
      std::numeric_limits<float>::quiet_NaN();
  poisoned[2].focal.back().y = std::numeric_limits<float>::infinity();
  for (auto kind : {models::BackboneKind::kSeq2Seq, models::BackboneKind::kPecnet,
                    models::BackboneKind::kLbebm}) {
    core::VanillaMethod method(kind, TinyBackbone(), 5);
    auto options = Options(/*batch_size=*/4);
    auto clean = Serve(method, scenes, options);
    InferenceEngine engine(&method, options);
    std::vector<std::future<Tensor>> futures;
    for (const auto& s : poisoned) futures.push_back(engine.Submit(s));
    engine.Drain();
    ExpectAllEqual(clean, Collect(&futures));
    EXPECT_EQ(engine.stats().rejected_requests, 0);
  }
}

// --- Async dispatch ----------------------------------------------------------

TEST(AsyncEngineTest, SubmitNeverExecutesOnTheCallerThread) {
  auto state = std::make_shared<MockState>();
  MockMethod method(state, /*reentrant=*/true, /*clonable=*/false);
  method.set_block_until_released(true);
  {
    std::lock_guard<std::mutex> lock(state->mu);
    state->released = false;
  }
  auto options = Options(/*batch_size=*/4);

  InferenceEngine engine(&method, options);
  auto scenes = Scenes(4);
  std::vector<std::future<Tensor>> futures;
  // With Predict blocked, a blocking Submit (the PR-4 behaviour) would hang
  // here; the async engine returns at once.
  for (const auto& s : scenes) futures.push_back(engine.Submit(s));
  EXPECT_EQ(futures[0].wait_for(std::chrono::milliseconds(50)),
            std::future_status::timeout);
  {
    std::lock_guard<std::mutex> lock(state->mu);
    state->released = true;
  }
  state->cv.notify_all();
  engine.Drain();
  for (auto& f : futures) EXPECT_EQ(f.get().shape()[0], 1);

  std::lock_guard<std::mutex> lock(state->mu);
  EXPECT_EQ(state->predict_threads.count(std::this_thread::get_id()), 0u)
      << "Predict ran on the submitting thread";
}

TEST(AsyncEngineTest, DeadlineFlushServesALoneRequestWithoutDrain) {
  ScopedTrainWorkers two_workers(2);
  auto gate = std::make_shared<Gate>();
  WedgedVanilla method(gate);
  auto scenes = Scenes(2);
  auto options = Options(/*batch_size=*/8);
  options.max_batch_delay_ms = 10;

  InferenceEngine engine(&method, options);
  ASSERT_EQ(engine.num_workers(), 2);
  // The first request finds the engine idle and is flushed at once; its
  // batch wedges in flight, so the engine stays busy.
  std::future<Tensor> wedged = engine.Submit(scenes[1]);
  AwaitEntered(gate.get(), 1);
  // The lone request behind it waits for its deadline on the free worker.
  const auto submitted = std::chrono::steady_clock::now();
  std::future<Tensor> future = engine.Submit(scenes[0]);
  ASSERT_EQ(future.wait_for(std::chrono::seconds(10)), std::future_status::ready)
      << "deadline flush never fired";
  EXPECT_GE(std::chrono::steady_clock::now() - submitted,
            std::chrono::milliseconds(options.max_batch_delay_ms))
      << "flushed before its deadline while a batch was in flight";
  Tensor served = future.get();
  EXPECT_EQ(engine.stats().deadline_flushes, 1);
  Release(gate.get());
  engine.Drain();
  EXPECT_EQ(wedged.get().shape()[0], 1);
  auto stats = engine.stats();
  EXPECT_EQ(stats.idle_flushes, 1);
  EXPECT_EQ(stats.deadline_flushes, 1);

  // Byte-identical to a Drain flush at the same point: the deadline decides
  // the same batch composition (scene cycled to the fixed width, batch 1
  // noise stream).
  InferenceEngine reference(&method, Options(/*batch_size=*/8));
  (void)reference.Submit(scenes[1]);
  reference.Drain();
  std::future<Tensor> drained = reference.Submit(scenes[0]);
  reference.Drain();
  Tensor expected = drained.get();
  ASSERT_EQ(served.size(), expected.size());
  EXPECT_EQ(std::memcmp(served.data(), expected.data(),
                        static_cast<size_t>(expected.size()) * sizeof(float)),
            0);
}

TEST(AsyncEngineTest, IdleEngineServesALoneRequestLongBeforeItsDeadline) {
  core::VanillaMethod method(models::BackboneKind::kSeq2Seq, TinyBackbone(), 5);
  auto scenes = Scenes(1);
  auto options = Options(/*batch_size=*/8);
  options.max_batch_delay_ms = 60000;

  InferenceEngine engine(&method, options);
  std::future<Tensor> future = engine.Submit(scenes[0]);
  // Nothing is in flight, so waiting out the minute-long deadline would only
  // leave the workers idle: the request is flushed at once.
  ASSERT_EQ(future.wait_for(std::chrono::seconds(10)), std::future_status::ready)
      << "an idle engine waited for the deadline";
  Tensor served = future.get();
  const auto stats = engine.stats();
  EXPECT_EQ(stats.idle_flushes, 1);
  EXPECT_EQ(stats.deadline_flushes, 0);
  EXPECT_EQ(stats.batches, 1);
  EXPECT_EQ(stats.padded_rows, 7);

  // The same batch composition as a Drain flush at the same point.
  auto drained = Serve(method, scenes, Options(/*batch_size=*/8));
  ASSERT_EQ(static_cast<size_t>(served.size()), drained[0].size());
  EXPECT_EQ(std::memcmp(served.data(), drained[0].data(),
                        drained[0].size() * sizeof(float)),
            0);
}

TEST(AsyncEngineTest, PartialRunBehindAWedgedBatchIsNotFlushedEarly) {
  ScopedTrainWorkers two_workers(2);
  auto gate = std::make_shared<Gate>();
  WedgedVanilla method(gate);
  auto scenes = Scenes(5);
  auto options = Options(/*batch_size=*/4);
  options.max_batch_delay_ms = 60000;

  InferenceEngine engine(&method, options);
  ASSERT_EQ(engine.num_workers(), 2);
  // A full batch wedges in flight on one worker; the other stays free. Its
  // head slot goes last, so an idle flush cannot take a partial run of it.
  std::vector<std::future<Tensor>> futures(4);
  for (uint64_t id = 4; id-- > 0;) futures[id] = engine.Submit(id, scenes[id]);
  AwaitEntered(gate.get(), 1);

  // The partial run behind it has a free worker but a busy engine: it must
  // keep coalescing until its deadline, not flush early.
  futures.push_back(engine.Submit(scenes[4]));
  EXPECT_EQ(futures[4].wait_for(std::chrono::milliseconds(100)),
            std::future_status::timeout)
      << "a partial run was flushed before its deadline while a batch ran";
  auto stats = engine.stats();
  EXPECT_EQ(stats.idle_flushes, 0);
  EXPECT_EQ(stats.deadline_flushes, 0);
  EXPECT_EQ(stats.batches, 0);

  // Once the wedged batch completes the engine is idle, and the run goes at
  // once — long before the deadline.
  Release(gate.get());
  ASSERT_EQ(futures[4].wait_for(std::chrono::seconds(10)), std::future_status::ready);
  for (auto& f : futures) EXPECT_EQ(f.get().shape()[0], 1);
  stats = engine.stats();
  EXPECT_EQ(stats.batches, 2);
  EXPECT_EQ(stats.idle_flushes, 1);
  EXPECT_EQ(stats.deadline_flushes, 0);
}

TEST(AsyncEngineTest, MultiProducerBitIdenticalAcrossProducersAndWorkers) {
  core::VanillaMethod method(models::BackboneKind::kSeq2Seq, TinyBackbone(), 5);
  const size_t n = 40;  // 5 batches of 8
  auto scenes = Scenes(n);
  auto options = Options(/*batch_size=*/8);
  auto reference = Serve(method, scenes, options);

  for (int workers : {1, 2, 4}) {
    parallel::ConfigureTrainWorkers(workers);
    for (int producers : {1, 4}) {
      InferenceEngine engine(&method, options);
      std::vector<std::future<Tensor>> futures(n);
      std::vector<std::thread> threads;
      for (int p = 0; p < producers; ++p) {
        threads.emplace_back([&, p] {
          // Explicit slot ids make the slot->batch mapping independent of
          // producer interleaving.
          for (size_t i = static_cast<size_t>(p); i < n;
               i += static_cast<size_t>(producers)) {
            futures[i] = engine.Submit(static_cast<uint64_t>(i), scenes[i]);
            if (i % 7 == 0) (void)engine.stats();  // exercise snapshot reads
          }
        });
      }
      for (auto& t : threads) t.join();
      engine.Drain();
      auto got = Collect(&futures);
      ExpectAllEqual(reference, got);
      EXPECT_EQ(engine.stats().requests, static_cast<int64_t>(n));
    }
  }
  parallel::ConfigureTrainWorkers(1);
}

// --- Replica pool ------------------------------------------------------------

TEST(ReplicaPoolTest, ClonesMatchMasterAndAreIndependentStorage) {
  core::VanillaMethod method(models::BackboneKind::kSeq2Seq, TinyBackbone(), 5);
  std::unique_ptr<core::Method> clone = method.CloneForServing();
  ASSERT_NE(clone, nullptr);
  auto* vanilla_clone = dynamic_cast<core::VanillaMethod*>(clone.get());
  ASSERT_NE(vanilla_clone, nullptr);
  EXPECT_EQ(vanilla_clone->backbone().ParameterSnapshot(),
            method.backbone().ParameterSnapshot());
  // Distinct storage: perturbing the clone leaves the master untouched.
  auto before = method.backbone().ParameterSnapshot();
  vanilla_clone->backbone().Parameters()[0].data()[0] += 1.0f;
  EXPECT_EQ(method.backbone().ParameterSnapshot(), before);
  EXPECT_NE(vanilla_clone->backbone().ParameterSnapshot(), before);
}

TEST(ReplicaPoolTest, DistinctSlotsAndCapsAtMasterWhenNotClonable) {
  core::VanillaMethod method(models::BackboneKind::kLbebm, TinyBackbone(), 5);
  ReplicaPool pool(&method, 4);
  EXPECT_EQ(pool.size(), 4);
  EXPECT_EQ(pool.method(0), &method);
  std::set<const core::Method*> instances;
  for (int slot = 0; slot < pool.size(); ++slot) instances.insert(pool.method(slot));
  EXPECT_EQ(instances.size(), 4u) << "two slots share one instance";

  auto state = std::make_shared<MockState>();
  MockMethod unclonable(state, /*reentrant=*/false, /*clonable=*/false);
  ReplicaPool capped(&unclonable, 4);
  EXPECT_EQ(capped.size(), 1);
}

TEST(AsyncEngineReplicaTest, WorkerCountFollowsTheMethod) {
  parallel::ConfigureTrainWorkers(3);
  auto state = std::make_shared<MockState>();
  MockMethod reentrant(state, /*reentrant=*/true, /*clonable=*/false);
  MockMethod pooled(state, /*reentrant=*/false, /*clonable=*/true);
  MockMethod unclonable(state, /*reentrant=*/false, /*clonable=*/false);
  auto options = Options(/*batch_size=*/2);
  EXPECT_EQ(InferenceEngine(&reentrant, options).num_workers(), 3);
  EXPECT_EQ(InferenceEngine(&pooled, options).num_workers(), 3);
  EXPECT_EQ(InferenceEngine(&unclonable, options).num_workers(), 1);
  options.num_replicas = 2;
  EXPECT_EQ(InferenceEngine(&pooled, options).num_workers(), 2);
  options.num_replicas = 1;
  EXPECT_EQ(InferenceEngine(&pooled, options).num_workers(), 1);
  parallel::ConfigureTrainWorkers(1);
}

TEST(AsyncEngineReplicaTest, EachWorkerKeepsItsOwnReplica) {
  auto state = std::make_shared<MockState>();
  MockMethod method(state, /*reentrant=*/false, /*clonable=*/true);
  auto options = Options(/*batch_size=*/2);
  options.num_replicas = 3;

  InferenceEngine engine(&method, options);
  ASSERT_EQ(engine.num_workers(), 3);
  // Four producers keep several batches ready at once, so the workers take
  // batches concurrently, many times each.
  auto scenes = Scenes(240);
  std::vector<std::future<Tensor>> futures(scenes.size());
  std::vector<std::thread> producers;
  for (size_t p = 0; p < 4; ++p) {
    producers.emplace_back([&, p] {
      for (size_t i = p; i < scenes.size(); i += 4) {
        futures[i] = engine.Submit(static_cast<uint64_t>(i), scenes[i]);
      }
    });
  }
  for (auto& t : producers) t.join();
  engine.Drain();
  for (auto& f : futures) EXPECT_EQ(f.get().shape()[0], 1);

  std::lock_guard<std::mutex> lock(state->mu);
  EXPECT_EQ(state->instance_overlap, 0) << "one replica ran two batches at once";
  std::set<std::thread::id> owners;
  for (const auto& entry : state->threads_by_instance) {
    // One thread per instance: a worker never borrows another's replica...
    EXPECT_EQ(entry.second.size(), 1u) << "a replica ran on several workers";
    owners.insert(entry.second.begin(), entry.second.end());
  }
  // ...and one instance per thread: a worker never switches replica.
  EXPECT_EQ(owners.size(), state->threads_by_instance.size())
      << "a worker ran on several replicas";
  EXPECT_LE(state->threads_by_instance.size(), 3u);
}

TEST(AsyncEngineReplicaTest, NonReentrantBatchesRunConcurrentlyOnClones) {
  parallel::ConfigureTrainWorkers(2);
  auto state = std::make_shared<MockState>();
  MockMethod method(state, /*reentrant=*/false, /*clonable=*/true);
  method.set_wait_for_peer(true);
  auto options = Options(/*batch_size=*/2);
  options.num_replicas = 2;

  InferenceEngine engine(&method, options);
  EXPECT_EQ(engine.num_replica_slots(), 2);
  auto scenes = Scenes(4);  // two full batches, one per worker
  std::vector<std::future<Tensor>> futures;
  for (const auto& s : scenes) futures.push_back(engine.Submit(s));
  engine.Drain();
  for (auto& f : futures) EXPECT_EQ(f.get().shape()[0], 1);

  std::lock_guard<std::mutex> lock(state->mu);
  EXPECT_GE(state->max_concurrent, 2)
      << "non-reentrant batches were serialized despite the replica pool";
  EXPECT_EQ(state->instance_overlap, 0)
      << "one replica instance ran two batches concurrently";
  parallel::ConfigureTrainWorkers(1);
}

TEST(AsyncEngineReplicaTest, NonReentrantConcurrentReplicasBitIdenticalToSerialized) {
  NonReentrantMethod method(models::BackboneKind::kPecnet, TinyBackbone(), 5);
  ASSERT_FALSE(method.reentrant_predict());
  auto scenes = Scenes(10);  // 2 full batches of 4 + padded tail
  auto options = Options(/*batch_size=*/4);

  // Serialized: no replicas, one batch at a time (the PR-4 schedule).
  auto serial_options = options;
  serial_options.num_replicas = 1;
  auto serialized = Serve(method, scenes, serial_options);

  // Concurrent: >= 2 replica slots on >= 2 workers.
  parallel::ConfigureTrainWorkers(4);
  auto replica_options = options;
  replica_options.num_replicas = 3;
  InferenceEngine engine(&method, replica_options);
  EXPECT_EQ(engine.num_replica_slots(), 3);
  std::vector<std::future<Tensor>> futures;
  for (const auto& s : scenes) futures.push_back(engine.Submit(s));
  engine.Drain();
  auto concurrent = Collect(&futures);
  parallel::ConfigureTrainWorkers(1);

  ExpectAllEqual(serialized, concurrent);
}

// --- Result storage audit ----------------------------------------------------

TEST(AsyncEngineTest, PerRequestResultsAreIndependentStorage) {
  core::VanillaMethod method(models::BackboneKind::kSeq2Seq, TinyBackbone(), 5);
  auto scenes = Scenes(8);
  InferenceEngine engine(&method, Options(/*batch_size=*/8));
  std::vector<std::future<Tensor>> futures;
  for (const auto& s : scenes) futures.push_back(engine.Submit(s));
  engine.Drain();
  data::SequenceConfig seq_cfg;
  for (auto& f : futures) {
    Tensor t = f.get();
    // The tensor a caller may retain holds exactly its own row: ops::Slice
    // copies into fresh storage (TensorImpl owns its buffer; there are no
    // views) and under no-grad no graph edge links back to the [B, cols]
    // batch output, so one retained future cannot pin the batch buffer.
    ASSERT_EQ(t.dim(), 2);
    EXPECT_EQ(t.shape()[0], 1);
    EXPECT_EQ(t.size(), static_cast<int64_t>(seq_cfg.pred_len) * 2);
    EXPECT_FALSE(t.needs_grad());
  }
}

}  // namespace
}  // namespace serve
}  // namespace adaptraj
