// The serving engine builds every batch at one neighbor-slot width,
// options.sequence.max_neighbors. These tests pin what that relies on and
// what it buys: (a) a row's Predict bytes do not depend on the slot width M
// — for every method, backbone and sampling mode, scenes with no neighbors
// included — and (b) an engine with a deadline set, serving every fill and
// every neighbor count, keeps each result equal to its padded-batch
// reference while the plan cache holds one encode plan per miss-batch size
// plus the decode plan.

#include <cstring>
#include <future>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/adaptraj_method.h"
#include "core/baselines.h"
#include "core/parallel_trainer.h"
#include "data/multi_domain.h"
#include "serve/inference_engine.h"

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
    cfg.seed = 717;
    return new data::DomainGeneralizationData(data::BuildDomainGeneralizationData(
        {sim::Domain::kEthUcy, sim::Domain::kLcas}, sim::Domain::kSdd, cfg));
  }();
  return *dgd;
}

std::unique_ptr<core::Method> MakeMethod(const std::string& name,
                                         models::BackboneKind kind) {
  if (name == "vanilla") {
    return std::make_unique<core::VanillaMethod>(kind, TinyBackbone(), 5);
  }
  if (name == "Counter") {
    return std::make_unique<core::CounterMethod>(kind, TinyBackbone(), 5);
  }
  if (name == "CausalMotion") {
    return std::make_unique<core::CausalMotionMethod>(kind, TinyBackbone(), 5, 10.0f);
  }
  core::AdapTrajConfig acfg;
  acfg.feature_dim = 8;
  acfg.fused_dim = 8;
  acfg.num_source_domains = 2;
  return std::make_unique<core::AdapTrajMethod>(kind, TinyBackbone(), acfg, 5);
}

const char* const kMethods[] = {"vanilla", "Counter", "CausalMotion", "AdapTraj"};
const models::BackboneKind kBackbones[] = {models::BackboneKind::kSeq2Seq,
                                           models::BackboneKind::kPecnet,
                                           models::BackboneKind::kLbebm};

/// Test scene `index` (cycled) with exactly `count` neighbor windows. The
/// windows are borrowed in turn from every neighbor in the test split and
/// moved so that each ends at a distinct offset near the focal anchor.
data::TrajectorySequence SceneWithNeighbors(size_t index, int count) {
  const auto& test = TestData().target.test.sequences;
  std::vector<const std::vector<sim::Vec2>*> pool;
  for (const auto& s : test) {
    for (const auto& window : s.neighbors) pool.push_back(&window);
  }
  data::TrajectorySequence scene = test[index % test.size()];
  const data::SequenceConfig seq;
  const sim::Vec2 anchor = scene.focal[static_cast<size_t>(seq.obs_len) - 1];
  scene.neighbors.clear();
  for (int k = 0; k < count; ++k) {
    std::vector<sim::Vec2> window = *pool[(index + static_cast<size_t>(k)) % pool.size()];
    const sim::Vec2 end = window.back();
    const sim::Vec2 target(anchor.x + 0.6f * static_cast<float>(k + 1),
                           anchor.y + 0.4f * static_cast<float>(k % 3 - 1));
    for (sim::Vec2& p : window) p = p - end + target;
    scene.neighbors.push_back(std::move(window));
  }
  return scene;
}

std::vector<float> Row(const Tensor& t, int64_t row) {
  const int64_t cols = t.shape()[1];
  return std::vector<float>(t.data() + row * cols, t.data() + (row + 1) * cols);
}

bool SameBytes(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

// (a) Predict is width-invariant per row.
TEST(ServingWidthTest, PredictRowsAreByteIdenticalAtAnyNeighborWidth) {
  const data::SequenceConfig seq;
  // A batch mixing every neighbor count 0..max_neighbors, and one whose
  // scenes have no neighbors at all (natural M = 1).
  std::vector<data::TrajectorySequence> mixed;
  for (int k = 0; k <= seq.max_neighbors; ++k) {
    mixed.push_back(SceneWithNeighbors(static_cast<size_t>(k), k));
  }
  std::vector<data::TrajectorySequence> lonely;
  for (size_t i = 0; i < 3; ++i) lonely.push_back(SceneWithNeighbors(i + 3, 0));

  for (const auto* scenes : {&mixed, &lonely}) {
    std::vector<const data::TrajectorySequence*> ptrs;
    for (const auto& s : *scenes) ptrs.push_back(&s);
    const data::Batch natural = data::MakeBatch(ptrs, seq);
    for (models::BackboneKind kind : kBackbones) {
      for (const char* name : kMethods) {
        auto method = MakeMethod(name, kind);
        for (bool sample : {false, true}) {
          Rng natural_rng(77);
          const Tensor expected = method->Predict(natural, &natural_rng, sample);
          for (int64_t width : {int64_t{8}, int64_t{13}}) {
            const data::Batch wide = data::MakeBatch(ptrs, seq, width);
            ASSERT_EQ(wide.max_neighbors, std::max(width, natural.max_neighbors));
            Rng wide_rng(77);
            const Tensor got = method->Predict(wide, &wide_rng, sample);
            ASSERT_EQ(got.shape(), expected.shape());
            for (int64_t r = 0; r < natural.batch_size; ++r) {
              EXPECT_TRUE(SameBytes(Row(got, r), Row(expected, r)))
                  << name << " backbone " << static_cast<int>(kind) << " sample "
                  << sample << " M " << natural.max_neighbors << " -> " << width
                  << " row " << r;
            }
          }
        }
      }
    }
  }
}

// (b) Every fill 1..B through an engine with a deadline set.
TEST(ServingWidthTest, EveryFillMatchesItsReferenceAndPlansStayBounded) {
  const data::SequenceConfig seq;
  const int batch_size = 8;
  const uint64_t seed = 42;
  for (models::BackboneKind kind : kBackbones) {
    auto method = MakeMethod("AdapTraj", kind);
    InferenceEngineOptions options;
    options.batch_size = batch_size;
    options.sample = true;
    options.seed = seed;
    options.max_batch_delay_ms = 5;
    options.encode_cache = EncodeCacheMode::kOn;

    // Batch b holds fill b + 1; its rows carry neighbor counts cycling
    // through 0..max_neighbors. Each batch's head slot is submitted last, so
    // the batch can only form — by an idle or a deadline flush — once all
    // of its rows are present: the composition is fixed, whatever the
    // timing.
    std::vector<std::vector<data::TrajectorySequence>> batches;
    size_t scene_index = 0;
    for (int fill = 1; fill <= batch_size; ++fill) {
      std::vector<data::TrajectorySequence> rows;
      for (int r = 0; r < fill; ++r) {
        rows.push_back(
            SceneWithNeighbors(scene_index++, (fill + r) % (seq.max_neighbors + 1)));
      }
      batches.push_back(std::move(rows));
    }
    std::vector<std::vector<std::future<Tensor>>> futures(batches.size());
    InferenceEngine engine(method.get(), options);
    for (size_t b = 0; b < batches.size(); ++b) {
      const size_t fill = batches[b].size();
      futures[b].resize(fill);
      for (size_t r = fill; r-- > 0;) {
        futures[b][r] = engine.Submit(b * batch_size + r, batches[b][r]);
      }
    }
    std::vector<std::vector<std::vector<float>>> served(batches.size());
    for (size_t b = 0; b < batches.size(); ++b) {
      for (auto& f : futures[b]) {
        ASSERT_EQ(f.wait_for(std::chrono::seconds(30)), std::future_status::ready);
        Tensor t = f.get();
        served[b].emplace_back(t.data(), t.data() + t.size());
      }
    }
    // One encode plan per miss-batch size 1..B and one decode plan: with the
    // width fixed, no fill or neighbor mix adds a key.
    const auto stats = engine.stats();
    EXPECT_LE(stats.plan.plans, batch_size + 1) << "backbone " << static_cast<int>(kind);
    EXPECT_EQ(stats.batches, batch_size);
    EXPECT_EQ(stats.idle_flushes + stats.deadline_flushes, batch_size - 1);

    // Reference: the padded batch (tail cycling the live rows) at its
    // natural width, the batch's noise stream, Method::Predict.
    for (size_t b = 0; b < batches.size(); ++b) {
      std::vector<const data::TrajectorySequence*> padded;
      for (int r = 0; r < batch_size; ++r) {
        padded.push_back(&batches[b][static_cast<size_t>(r) % batches[b].size()]);
      }
      Rng rng(core::TaskSeed(seed, b));
      const Tensor expected =
          method->Predict(data::MakeBatch(padded, seq), &rng, options.sample);
      for (size_t r = 0; r < batches[b].size(); ++r) {
        EXPECT_TRUE(SameBytes(served[b][r], Row(expected, static_cast<int64_t>(r))))
            << "backbone " << static_cast<int>(kind) << " fill " << batches[b].size()
            << " row " << r;
      }
    }

    // A scene with more neighbors than the config keeps still widens its
    // batch, and its row still matches the reference.
    const data::TrajectorySequence crowded =
        SceneWithNeighbors(scene_index, seq.max_neighbors + 3);
    std::future<Tensor> wide = engine.Submit(crowded);
    ASSERT_EQ(wide.wait_for(std::chrono::seconds(30)), std::future_status::ready);
    const Tensor got = wide.get();
    std::vector<const data::TrajectorySequence*> padded(batch_size, &crowded);
    Rng rng(core::TaskSeed(seed, batches.size()));
    const Tensor expected =
        method->Predict(data::MakeBatch(padded, seq), &rng, options.sample);
    EXPECT_TRUE(SameBytes(std::vector<float>(got.data(), got.data() + got.size()),
                          Row(expected, 0)));
  }
}

}  // namespace
}  // namespace serve
}  // namespace adaptraj
