#include "ecnn/batch_runner.h"

#include "common/thread_pool.h"
#include "core/engine.h"

namespace sne::ecnn {

BatchRunner::BatchRunner(core::SneConfig hw, QuantizedNetwork net,
                         BatchOptions opts)
    : hw_(hw), net_(std::move(net)), opts_(opts) {
  hw_.validate();
  SNE_EXPECTS(!net_.layers.empty());
  if (opts_.workers > 0) pool_ = std::make_unique<ThreadPool>(opts_.workers);
  // A cold pool: release is a full reset(), so every pooled run is a strict
  // bitwise replay of run_one.
  engines_ = std::make_unique<EnginePool>(
      hw_, 0,
      EnginePoolOptions{opts_.memory_words, opts_.mem_timing,
                        opts_.use_wload_stream, /*max_engines=*/0,
                        /*weight_resident=*/false});
}

NetworkRunStats BatchRunner::run_one(const event::EventStream& input) const {
  core::SneEngine engine(hw_, opts_.memory_words, opts_.mem_timing);
  NetworkRunner runner(engine, opts_.use_wload_stream);
  return runner.run(net_, input, event::FirePolicy::kActiveStepsOnly);
}

std::vector<NetworkRunStats> BatchRunner::run(
    const std::vector<event::EventStream>& inputs) {
  std::vector<NetworkRunStats> results(inputs.size());
  struct Ctx {
    const BatchRunner* self;
    const std::vector<event::EventStream>* inputs;
    std::vector<NetworkRunStats>* results;
  };
  Ctx ctx{this, &inputs, &results};
  const ThreadPool::TaskFn task = [](void* p, std::size_t k) {
    Ctx& c = *static_cast<Ctx*>(p);
    // Pooled-reuse path: one resident engine per in-flight slot instead of
    // a construction (multi-MB memory clear) per sample; reset-on-release
    // keeps this bitwise equal to the fresh-engine run_one reference.
    EnginePool::Lease lease = c.self->engines_->acquire();
    (*c.results)[k] = lease.runner().run(c.self->net_, (*c.inputs)[k],
                                         event::FirePolicy::kActiveStepsOnly);
  };
  ThreadPool& pool = pool_ ? *pool_ : ThreadPool::global();
  pool.run(task, &ctx, inputs.size());
  return results;
}

std::vector<std::vector<GoldenExecutor::LayerTrace>> BatchRunner::run_golden(
    const std::vector<event::EventStream>& inputs, event::FirePolicy policy) {
  std::vector<std::vector<GoldenExecutor::LayerTrace>> results(inputs.size());
  struct Ctx {
    const BatchRunner* self;
    const std::vector<event::EventStream>* inputs;
    std::vector<std::vector<GoldenExecutor::LayerTrace>>* results;
    event::FirePolicy policy;
  };
  Ctx ctx{this, &inputs, &results, policy};
  const ThreadPool::TaskFn task = [](void* p, std::size_t k) {
    Ctx& c = *static_cast<Ctx*>(p);
    (*c.results)[k] = GoldenExecutor::run_network(c.self->net_, (*c.inputs)[k],
                                                  c.policy);
  };
  ThreadPool& pool = pool_ ? *pool_ : ThreadPool::global();
  pool.run(task, &ctx, inputs.size());
  return results;
}

}  // namespace sne::ecnn
