// Cross-request encoder caching (serve/encode_cache.h + the engine's
// PredictThroughCache path): the headline contract is that cached serving is
// BIT-IDENTICAL to uncached serving — for every method, backbone, thread
// count, and across Train()/SwapWeights invalidation boundaries — because
// the cache stores exact encoder outputs keyed by exact encoder inputs.
// Unit tests pin the collision-safety byte compare and the LRU byte budget;
// engine tests drive real multi-producer traffic.

#include <cstring>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/adaptraj_method.h"
#include "core/baselines.h"
#include "data/multi_domain.h"
#include "serve/encode_cache.h"
#include "serve/inference_engine.h"
#include "tensor/parallel.h"

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
    cfg.seed = 606;
    return new data::DomainGeneralizationData(data::BuildDomainGeneralizationData(
        {sim::Domain::kEthUcy, sim::Domain::kLcas}, sim::Domain::kSdd, cfg));
  }();
  return *dgd;
}

/// n scenes cycling the target test set — a repeat-heavy request stream.
std::vector<data::TrajectorySequence> Scenes(size_t n) {
  const auto& test = TestData().target.test.sequences;
  std::vector<data::TrajectorySequence> scenes;
  for (size_t i = 0; i < n; ++i) scenes.push_back(test[i % test.size()]);
  return scenes;
}

InferenceEngineOptions Options(int batch_size, EncodeCacheMode cache,
                               uint64_t seed = 42) {
  InferenceEngineOptions o;
  o.batch_size = batch_size;
  o.sample = true;
  o.seed = seed;
  o.encode_cache = cache;
  return o;
}

std::vector<std::vector<float>> Serve(const core::Method& method,
                                      const std::vector<data::TrajectorySequence>& scenes,
                                      const InferenceEngineOptions& options) {
  InferenceEngine engine(&method, options);
  std::vector<std::future<Tensor>> futures;
  for (const auto& s : scenes) futures.push_back(engine.Submit(s));
  engine.Drain();
  std::vector<std::vector<float>> out;
  for (auto& f : futures) {
    Tensor t = f.get();
    out.emplace_back(t.data(), t.data() + t.size());
  }
  return out;
}

void ExpectAllEqual(const std::vector<std::vector<float>>& a,
                    const std::vector<std::vector<float>>& b,
                    const std::string& label) {
  ASSERT_EQ(a.size(), b.size()) << label;
  for (size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i].size(), b[i].size()) << label << " request " << i;
    EXPECT_EQ(std::memcmp(a[i].data(), b[i].data(), a[i].size() * sizeof(float)), 0)
        << label << " request " << i;
  }
}

// --- EncodeCache unit tests --------------------------------------------------

TEST(EncodeCacheUnit, ForcedHashCollisionFallsBackToByteCompare) {
  EncodeCacheOptions opts;
  opts.identity = "test";
  EncodeCache cache(opts);
  // Every key hashes to the same bucket: correctness must come entirely from
  // the full-key byte compare.
  cache.set_hasher_for_test([](const std::string&) { return 42ull; });

  const std::vector<float> va = {1.0f, 2.0f, 3.0f};
  const std::vector<float> vb = {-7.0f, 8.0f, 9.5f};
  cache.Insert("scene-a", va.data(), 3);
  cache.Insert("scene-b", vb.data(), 3);

  std::vector<float> out(3, 0.0f);
  ASSERT_TRUE(cache.Lookup("scene-a", out.data(), 3));
  EXPECT_EQ(std::memcmp(out.data(), va.data(), 3 * sizeof(float)), 0);
  ASSERT_TRUE(cache.Lookup("scene-b", out.data(), 3));
  EXPECT_EQ(std::memcmp(out.data(), vb.data(), 3 * sizeof(float)), 0);
  EXPECT_FALSE(cache.Lookup("scene-c", out.data(), 3));

  EncodeCacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits, 2);
  EXPECT_EQ(stats.misses, 1);
  // Colliding probes were byte-compared and skipped, never served.
  EXPECT_GT(stats.hash_conflicts, 0);
  EXPECT_EQ(stats.entries, 2);
}

TEST(EncodeCacheUnit, LruEvictionUnderTinyByteBudget) {
  // Entry cost = key bytes + value bytes + 128 overhead. One-char keys with
  // width-4 values cost 1 + 16 + 128 = 145; a 300-byte budget holds two.
  EncodeCacheOptions opts;
  opts.max_bytes = 300;
  EncodeCache cache(opts);
  const std::vector<float> v = {1.0f, 2.0f, 3.0f, 4.0f};
  std::vector<float> out(4);

  cache.Insert("a", v.data(), 4);
  cache.Insert("b", v.data(), 4);
  EXPECT_EQ(cache.stats().entries, 2);
  cache.Insert("c", v.data(), 4);  // evicts "a" (least recent)
  EXPECT_EQ(cache.stats().entries, 2);
  EXPECT_EQ(cache.stats().evictions, 1);
  EXPECT_FALSE(cache.Lookup("a", out.data(), 4));
  EXPECT_TRUE(cache.Lookup("b", out.data(), 4));  // touch: b is now MRU
  EXPECT_TRUE(cache.Lookup("c", out.data(), 4));  // touch: c is now MRU
  EXPECT_TRUE(cache.Lookup("b", out.data(), 4));  // touch: b is MRU, c LRU
  cache.Insert("d", v.data(), 4);                 // evicts "c", keeps "b"
  EXPECT_TRUE(cache.Lookup("b", out.data(), 4));
  EXPECT_FALSE(cache.Lookup("c", out.data(), 4));
  EXPECT_TRUE(cache.Lookup("d", out.data(), 4));
  EXPECT_EQ(cache.stats().evictions, 2);
  EXPECT_LE(cache.stats().bytes, 300);

  // An entry larger than the whole budget is never admitted.
  const std::vector<float> huge(128, 0.5f);  // 512 + 128 + key > 300
  cache.Insert("huge", huge.data(), static_cast<int64_t>(huge.size()));
  EXPECT_FALSE(cache.Lookup("huge", out.data(), 4));
  EXPECT_EQ(cache.stats().entries, 2);
}

TEST(EncodeCacheUnit, SceneKeysSeparateRowsAndNeighborWidths) {
  auto scenes = Scenes(2);
  data::SequenceConfig cfg;
  std::vector<const data::TrajectorySequence*> ptrs = {&scenes[0], &scenes[1]};
  data::Batch batch = data::MakeBatch(ptrs, cfg);
  // Distinct scenes yield distinct keys; the same scene yields the same key.
  const std::string k0 = SceneEncodeKey("id", batch, 0, true);
  const std::string k1 = SceneEncodeKey("id", batch, 1, true);
  EXPECT_NE(k0, k1);
  data::Batch again = data::MakeBatch(ptrs, cfg);
  EXPECT_EQ(k0, SceneEncodeKey("id", again, 0, true));
  // A wider padded batch changes the key content (M is part of the key) —
  // conservative, never wrong.
  data::Batch wide = data::MakeBatch(ptrs, cfg, batch.max_neighbors + 3);
  EXPECT_NE(k0, SceneEncodeKey("id", wide, 0, true));
  // Without neighbors, padding width is irrelevant to the key.
  EXPECT_EQ(SceneEncodeKey("id", batch, 0, false),
            SceneEncodeKey("id", wide, 0, false));
}

// --- Method-level split contract --------------------------------------------

void ExpectSameBytes(const Tensor& got, const Tensor& want, const std::string& what) {
  ASSERT_EQ(got.shape(), want.shape()) << what;
  EXPECT_EQ(std::memcmp(got.data(), want.data(),
                        static_cast<size_t>(want.size()) * sizeof(float)),
            0)
      << what;
}

/// Predict and PredictEncode against each method's recipe spelled out on
/// its backbone: Encode then Predict, on the counterfactual batch for
/// Counter, conditioned on the label -1 features (variant applied) for
/// AdapTraj.
TEST(EncodeSplit, PredictMatchesBackboneRecipeBitExactly) {
  auto scenes = Scenes(6);
  data::SequenceConfig cfg;
  std::vector<const data::TrajectorySequence*> ptrs;
  for (const auto& s : scenes) ptrs.push_back(&s);
  const data::Batch batch = data::MakeBatch(ptrs, cfg);
  core::AdapTrajConfig acfg;
  acfg.feature_dim = 8;
  acfg.fused_dim = 8;
  acfg.num_source_domains = 2;

  for (auto kind : {models::BackboneKind::kSeq2Seq, models::BackboneKind::kPecnet,
                    models::BackboneKind::kLbebm}) {
    core::VanillaMethod vanilla(kind, TinyBackbone(), 5);
    core::CounterMethod counter(kind, TinyBackbone(), 5);
    core::CausalMotionMethod causal(kind, TinyBackbone(), 5);
    core::AdapTrajMethod adaptraj(kind, TinyBackbone(), acfg, 5);
    core::AdapTrajMethod no_specific(kind, TinyBackbone(), acfg, 5,
                                     core::AdapTrajVariant::kNoSpecific);
    core::AdapTrajMethod no_invariant(kind, TinyBackbone(), acfg, 5,
                                      core::AdapTrajVariant::kNoInvariant);
    const data::Batch counterfactual = core::CounterfactualBatch(batch);
    struct Case {
      core::BackboneMethod* method;
      const data::Batch* backbone_input;
      core::AdapTrajMethod* adaptraj;  // null: no conditioning
      core::AdapTrajVariant variant;
    };
    const std::vector<Case> cases = {
        {&vanilla, &batch, nullptr, core::AdapTrajVariant::kFull},
        {&counter, &counterfactual, nullptr, core::AdapTrajVariant::kFull},
        {&causal, &batch, nullptr, core::AdapTrajVariant::kFull},
        {&adaptraj, &batch, &adaptraj, core::AdapTrajVariant::kFull},
        {&no_specific, &batch, &no_specific, core::AdapTrajVariant::kNoSpecific},
        {&no_invariant, &batch, &no_invariant, core::AdapTrajVariant::kNoInvariant},
    };
    for (const Case& c : cases) {
      const models::Backbone& bb = c.method->backbone();
      NoGradGuard no_grad;
      const models::EncodeResult enc = bb.Encode(*c.backbone_input);
      Tensor extra;
      if (c.adaptraj != nullptr) {
        core::AdapTrajFeatures f = c.adaptraj->model().ExtractFeatures(
            enc, std::vector<int>(batch.batch_size, -1));
        if (c.variant == core::AdapTrajVariant::kNoSpecific) {
          f.spec = Tensor::Zeros(f.spec.shape());
        } else if (c.variant == core::AdapTrajVariant::kNoInvariant) {
          f.inv = Tensor::Zeros(f.inv.shape());
        }
        extra = f.Extra();
      }
      std::string label = c.method->name() + "/" + models::BackboneKindName(kind);
      if (c.adaptraj != nullptr) label += "/" + core::AdapTrajVariantName(c.variant);
      ASSERT_EQ(c.method->predict_encode_width(), bb.config().hidden_dim +
                                                      bb.config().social_dim)
          << label;
      ExpectSameBytes(c.method->PredictEncode(batch),
                      ops::Concat({enc.h_focal, enc.pooled}, 1), label + " encode");
      for (bool sample : {false, true}) {
        Rng method_rng(99);
        Rng backbone_rng(99);
        ExpectSameBytes(
            c.method->Predict(batch, &method_rng, sample),
            bb.Predict(*c.backbone_input, enc, extra, &backbone_rng, sample),
            label + (sample ? " sample" : " mean"));
      }
    }
  }
}

// --- Engine integration -----------------------------------------------------

struct MethodCase {
  std::string label;
  std::unique_ptr<core::Method> method;
};

std::vector<MethodCase> AllMethodCases() {
  std::vector<MethodCase> cases;
  for (auto kind : {models::BackboneKind::kSeq2Seq, models::BackboneKind::kPecnet,
                    models::BackboneKind::kLbebm}) {
    cases.push_back({"vanilla/" + models::BackboneKindName(kind),
                     std::make_unique<core::VanillaMethod>(kind, TinyBackbone(), 5)});
  }
  cases.push_back({"Counter/Seq2Seq", std::make_unique<core::CounterMethod>(
                                          models::BackboneKind::kSeq2Seq,
                                          TinyBackbone(), 5)});
  cases.push_back({"CausalMotion/PECNet",
                   std::make_unique<core::CausalMotionMethod>(
                       models::BackboneKind::kPecnet, TinyBackbone(), 5)});
  core::AdapTrajConfig acfg;
  acfg.feature_dim = 8;
  acfg.fused_dim = 8;
  acfg.num_source_domains = 2;
  cases.push_back({"AdapTraj/Seq2Seq",
                   std::make_unique<core::AdapTrajMethod>(
                       models::BackboneKind::kSeq2Seq, TinyBackbone(), acfg, 5)});
  return cases;
}

TEST(EncodeCacheServing, CacheOnBitIdenticalToCacheOffAcrossMethods) {
  // 24 requests: the same 12 scenes served twice — a repeat-heavy stream.
  // The reference serves the WHOLE doubled schedule uncached through one
  // engine, so batch indices (and their noise streams) line up with the
  // cached runs.
  auto scenes = Scenes(12);
  auto full_schedule = scenes;
  full_schedule.insert(full_schedule.end(), scenes.begin(), scenes.end());
  for (auto& c : AllMethodCases()) {
    auto off = Serve(*c.method, full_schedule, Options(4, EncodeCacheMode::kOff));
    auto off_prefix = std::vector<std::vector<float>>(
        off.begin(), off.begin() + scenes.size());
    auto cold = Serve(*c.method, scenes, Options(4, EncodeCacheMode::kOn));
    ExpectAllEqual(off_prefix, cold, c.label + " cold");

    // A warm engine (entries populated by the first pass's batches) must
    // still serve the same bytes, now mostly from the cache. The mid-stream
    // Drain lands on a batch boundary, so batch composition matches the
    // reference's single-drain schedule.
    InferenceEngine engine(c.method.get(), Options(4, EncodeCacheMode::kOn));
    std::vector<std::future<Tensor>> futures;
    for (const auto& s : scenes) futures.push_back(engine.Submit(s));
    engine.Drain();
    for (const auto& s : scenes) futures.push_back(engine.Submit(s));
    engine.Drain();
    std::vector<std::vector<float>> warm;
    for (auto& f : futures) {
      Tensor t = f.get();
      warm.emplace_back(t.data(), t.data() + t.size());
    }
    ExpectAllEqual(off, warm, c.label + " warm");
    EncodeCacheStats stats = engine.stats().encode_cache;
    EXPECT_GT(stats.hits, 0) << c.label;
    EXPECT_GT(stats.insertions, 0) << c.label;
  }
}

TEST(EncodeCacheServing, CacheOnBitIdenticalAcrossThreadCounts) {
  auto scenes = Scenes(16);
  core::VanillaMethod method(models::BackboneKind::kSeq2Seq, TinyBackbone(), 5);
  parallel::ConfigureTrainWorkers(1);
  auto reference = Serve(method, scenes, Options(4, EncodeCacheMode::kOff));
  for (int workers : {2, 4}) {
    parallel::ConfigureTrainWorkers(workers);
    auto cached = Serve(method, scenes, Options(4, EncodeCacheMode::kOn));
    ExpectAllEqual(reference, cached, "workers=" + std::to_string(workers));
  }
}

TEST(EncodeCacheServing, MethodWithoutSplitServesThroughCombinedPredict) {
  // A method that keeps the default predict_encode_width() == 0 must serve
  // unchanged — the engine silently skips cache construction.
  class OpaqueMethod : public core::VanillaMethod {
   public:
    using VanillaMethod::VanillaMethod;
    int64_t predict_encode_width() const override { return 0; }
  };
  auto scenes = Scenes(8);
  OpaqueMethod opaque(models::BackboneKind::kSeq2Seq, TinyBackbone(), 5);
  core::VanillaMethod plain(models::BackboneKind::kSeq2Seq, TinyBackbone(), 5);
  auto got = Serve(opaque, scenes, Options(4, EncodeCacheMode::kOn));
  auto want = Serve(plain, scenes, Options(4, EncodeCacheMode::kOff));
  ExpectAllEqual(want, got, "opaque");
  InferenceEngine engine(&opaque, Options(4, EncodeCacheMode::kOn));
  EXPECT_EQ(engine.stats().encode_cache.lookups, 0);
}

TEST(EncodeCacheServing, EmptyAndSingleAgentEdgeBatches) {
  core::VanillaMethod method(models::BackboneKind::kSeq2Seq, TinyBackbone(), 5);

  // Drain with nothing pending: no batch forms, the cache stays untouched.
  {
    InferenceEngine engine(&method, Options(4, EncodeCacheMode::kOn));
    engine.Drain();
    EXPECT_EQ(engine.stats().batches, 0);
    EXPECT_EQ(engine.stats().encode_cache.lookups, 0);
  }

  // A single request in a width-4 engine: the padded rows cycle the one live
  // scene, so the batch holds 4 identical rows — the alias-dedup path must
  // encode the scene exactly once. A neighbor-free scene doubles as the
  // single-agent edge (M stays at the minimum 1 masked slot).
  data::TrajectorySequence lonely = Scenes(1)[0];
  lonely.neighbors.clear();
  for (int batch_size : {1, 4}) {
    auto off = Options(batch_size, EncodeCacheMode::kOff);
    auto on = Options(batch_size, EncodeCacheMode::kOn);
    auto want = Serve(method, {lonely}, off);
    InferenceEngine engine(&method, on);
    auto f = engine.Submit(lonely);
    engine.Drain();
    Tensor t = f.get();
    std::vector<std::vector<float>> got = {{t.data(), t.data() + t.size()}};
    ExpectAllEqual(want, got, "single-agent batch_size=" +
                                  std::to_string(batch_size));
    EncodeCacheStats stats = engine.stats().encode_cache;
    // One distinct key per batch, regardless of padding duplication.
    EXPECT_EQ(stats.lookups, 1);
    EXPECT_EQ(stats.insertions, 1);
  }
}

TEST(EncodeCacheServing, InPlaceTrainInvalidatesBetweenProducerWaves) {
  // The staleness hazard: a method trained IN PLACE while an engine serves
  // it. Cached encoder rows computed under the old weights must never decode
  // under the new ones. Reference: an identical method served through an
  // identical two-phase schedule with the cache OFF — training is
  // deterministic, so the weights match phase for phase.
  const int kProducers = 4;
  const int kPerProducer = 8;
  const int kPhaseSlots = kProducers * kPerProducer;
  auto scenes = Scenes(4);

  core::TrainConfig tcfg;
  tcfg.epochs = 1;
  tcfg.max_batches_per_epoch = 2;
  tcfg.batch_size = 8;

  core::VanillaMethod cached_method(models::BackboneKind::kSeq2Seq, TinyBackbone(), 5);
  core::VanillaMethod plain_method(models::BackboneKind::kSeq2Seq, TinyBackbone(), 5);
  InferenceEngine cached(&cached_method, Options(4, EncodeCacheMode::kOn));
  InferenceEngine plain(&plain_method, Options(4, EncodeCacheMode::kOff));

  auto run_phase = [&](InferenceEngine* engine, uint64_t base_slot) {
    std::vector<std::future<Tensor>> futures(kPhaseSlots);
    std::vector<std::thread> producers;
    for (int p = 0; p < kProducers; ++p) {
      producers.emplace_back([&, p] {
        for (int i = 0; i < kPerProducer; ++i) {
          const uint64_t slot = static_cast<uint64_t>(p + i * kProducers);
          futures[slot] = engine->Submit(base_slot + slot,
                                         scenes[(base_slot + slot) % scenes.size()]);
        }
      });
    }
    for (auto& t : producers) t.join();
    engine->Drain();
    std::vector<std::vector<float>> out;
    for (auto& f : futures) {
      Tensor t = f.get();
      out.emplace_back(t.data(), t.data() + t.size());
    }
    return out;
  };

  auto cached_phase1 = run_phase(&cached, 0);
  auto plain_phase1 = run_phase(&plain, 0);
  ExpectAllEqual(plain_phase1, cached_phase1, "pre-train");
  EXPECT_GT(cached.stats().encode_cache.hits, 0);

  // Identical deterministic training on both LIVE methods.
  cached_method.Train(TestData(), tcfg);
  plain_method.Train(TestData(), tcfg);

  auto cached_phase2 = run_phase(&cached, kPhaseSlots);
  auto plain_phase2 = run_phase(&plain, kPhaseSlots);
  // Stale entries surviving Train would decode old-weight encoder rows
  // through new-weight decoders here and diverge from the uncached engine.
  ExpectAllEqual(plain_phase2, cached_phase2, "post-train");
  // Results changed across the boundary (the training step actually moved
  // the weights) and the version check registered exactly one clear.
  EXPECT_NE(std::memcmp(cached_phase1[0].data(), cached_phase2[0].data(),
                        cached_phase1[0].size() * sizeof(float)),
            0);
  EXPECT_EQ(cached.stats().encode_cache.invalidations, 1);
}

TEST(EncodeCacheServing, SwapWeightsInvalidatesAtomicallyUnderLiveTraffic) {
  // Four explicit-id producers keep traffic flowing while the swap lands.
  // Explicit ids pin the slot->batch mapping, so every batch's content and
  // noise stream is schedule-independent: each served batch must match the
  // old-weights reference or the new-weights reference WHOLE — a batch
  // mixing stale cached encodes with post-swap weights would match neither.
  const int kProducers = 4;
  const int kPerProducer = 16;
  const int kSlots = kProducers * kPerProducer;
  const int kBatch = 4;
  auto scenes = Scenes(4);
  auto slot_scene = [&](uint64_t slot) -> const data::TrajectorySequence& {
    return scenes[slot % scenes.size()];
  };

  const int kTotal = kSlots + kBatch;  // one guaranteed post-swap batch

  core::VanillaMethod old_weights(models::BackboneKind::kSeq2Seq, TinyBackbone(), 5);
  core::VanillaMethod new_weights(models::BackboneKind::kSeq2Seq, TinyBackbone(), 77);
  std::vector<data::TrajectorySequence> schedule;
  for (uint64_t s = 0; s < static_cast<uint64_t>(kTotal); ++s) {
    schedule.push_back(slot_scene(s));
  }
  auto ref_old = Serve(old_weights, schedule, Options(kBatch, EncodeCacheMode::kOff));
  auto ref_new = Serve(new_weights, schedule, Options(kBatch, EncodeCacheMode::kOff));

  InferenceEngine engine(&old_weights, Options(kBatch, EncodeCacheMode::kOn));
  std::vector<std::future<Tensor>> futures(kTotal);
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        const uint64_t slot = static_cast<uint64_t>(p + i * kProducers);
        futures[slot] = engine.Submit(slot, slot_scene(slot));
        std::this_thread::yield();
      }
    });
  }
  // Swap mid-stream, racing the producers.
  engine.SwapWeights(new_weights);
  for (auto& t : producers) t.join();
  // The final batch is submitted after the swap completed: it MUST serve
  // from the new weights, warming the freshly invalidated cache.
  for (uint64_t s = kSlots; s < static_cast<uint64_t>(kTotal); ++s) {
    futures[s] = engine.Submit(s, slot_scene(s));
  }
  engine.Drain();

  std::vector<std::vector<float>> got;
  for (auto& f : futures) {
    Tensor t = f.get();
    got.emplace_back(t.data(), t.data() + t.size());
  }
  int batches_on_new = 0;
  for (int b = 0; b * kBatch < kTotal; ++b) {
    const size_t first = static_cast<size_t>(b) * kBatch;
    const size_t bytes = got[first].size() * sizeof(float);
    const bool is_old =
        std::memcmp(got[first].data(), ref_old[first].data(), bytes) == 0;
    const bool is_new =
        std::memcmp(got[first].data(), ref_new[first].data(), bytes) == 0;
    ASSERT_TRUE(is_old || is_new) << "batch " << b << " matches neither side";
    const auto& ref = is_new ? ref_new : ref_old;
    if (is_new) ++batches_on_new;
    for (size_t r = first; r < first + kBatch; ++r) {
      EXPECT_EQ(std::memcmp(got[r].data(), ref[r].data(),
                            got[r].size() * sizeof(float)),
                0)
          << "batch " << b << " row " << (r - first) << " mixes weights";
    }
  }
  InferenceEngineStats stats = engine.stats();
  EXPECT_EQ(stats.weight_swaps, 1);
  EXPECT_GT(batches_on_new, 0);  // at least the guaranteed post-swap batch
}

}  // namespace
}  // namespace serve
}  // namespace adaptraj
